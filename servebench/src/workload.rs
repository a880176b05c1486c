//! What every workload shares: the seeded request generator, the scorer,
//! the service configuration, and the per-client tallies.

use std::path::Path;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use fact_data::Matrix;
use fact_ml::Classifier;
use fact_serve::{
    AuditSinkConfig, Decision, DecisionRequest, GuardConfig, ServeConfig, ServeError,
};

use crate::hist::Histogram;

/// Features per request (the `fact-shardd` default).
pub const N_FEATURES: usize = 8;
/// Load threads: the host has two cores, and the load generator never
/// runs more threads than that.
pub const CLIENTS: usize = 2;
/// In-flight submits each `flagged-pipelined` client keeps. Two clients
/// at 32 each can put at most 64 requests on one shard, well under the
/// default `queue_cap` of 256, so nothing is shed.
pub const PIPELINE_WINDOW: usize = 32;
/// Per-shard ε budget of the in-process guards. At one 0.01-ε release per
/// 1000 decisions it lasts 10^9 decisions per shard, so `BudgetExhausted`
/// never falls inside a run, even at many times today's rate.
pub const EPSILON_BUDGET: f64 = 10_000.0;
/// `fact-shardd --dp-interval`: `fact-shardd` keeps the default 1.0 ε
/// budget, which lasts 100 releases = 100k decisions per shard at this
/// interval. `remote-open` sends at a fixed rate, so a run serves a fixed
/// number of decisions, far below that.
pub const SHARDD_DP_INTERVAL: u64 = 2_000;
/// Served before the timed window opens.
pub const WARMUP: Duration = Duration::from_secs(1);

/// The three request-path workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process, two closed-loop clients, fair traffic.
    FairClosed,
    /// In-process, two pipelined clients, traffic that trips the fairness
    /// guard so every decision is flagged and audited.
    FlaggedPipelined,
    /// Through `fact-shardd` over a Unix socket, open loop, fair traffic.
    RemoteOpen,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::FairClosed,
        Workload::FlaggedPipelined,
        Workload::RemoteOpen,
    ];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FairClosed => "fair-closed",
            Workload::FlaggedPipelined => "flagged-pipelined",
            Workload::RemoteOpen => "remote-open",
        }
    }

    /// Whether both groups draw from the same feature distribution.
    pub fn fair(self) -> bool {
        self != Workload::FlaggedPipelined
    }
}

/// SplitMix64: a tiny, well-mixed deterministic generator step.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// The request for `key` under `seed`. The same (seed, key) always gives
/// the same request; keys are unique within a run.
///
/// Features are uniform on [0.3, 1.0], so the mean-of-features score is
/// favorable (≥ 0.5) for about 98% of requests. On fair traffic both
/// groups draw from that range: favorable rates near 1 keep the windowed
/// disparate impact far from the 0.8 limit even over the 50-sample
/// minimum window, so the guard never trips. On flagged traffic group B
/// draws from [0.0, 0.7] (about 2% favorable), so disparate impact is
/// near 0.02 and the guard stays tripped.
pub fn request(seed: u64, key: u64, fair: bool) -> DecisionRequest {
    let h = splitmix64(seed ^ splitmix64(key));
    let group_b = h & 1 == 1;
    let (lo, hi) = if group_b && !fair {
        (0.0, 0.7)
    } else {
        (0.3, 1.0)
    };
    let features = (0..N_FEATURES as u64)
        .map(|j| lo + (hi - lo) * unit(splitmix64(h.wrapping_add(j))))
        .collect();
    DecisionRequest {
        features,
        group_b,
        route_key: key,
        tenant: 0,
    }
}

/// The mean-of-features score, clamped to [0, 1] — the arithmetic of
/// `fact-shardd`'s scorer, in the same order, so results match bit for bit.
pub fn score(row: &[f64]) -> f64 {
    let mean = row.iter().sum::<f64>() / row.len().max(1) as f64;
    mean.clamp(0.0, 1.0)
}

/// The in-process model: [`score`] per row.
pub struct MeanScorer;

impl Classifier for MeanScorer {
    fn predict_proba(&self, x: &Matrix) -> fact_data::Result<Vec<f64>> {
        Ok((0..x.rows()).map(|i| score(x.row(i))).collect())
    }
}

/// The in-process service configuration: `ServeConfig::default()` (2
/// shards, `batch_max` 16, 200 µs linger, audit-and-flag, default guards)
/// with 8 features, the ε budget above, and the durable audit sink at
/// `audit_path`.
pub fn serve_config(audit_path: &Path) -> ServeConfig {
    ServeConfig {
        n_features: N_FEATURES,
        guards: Some(GuardConfig {
            epsilon_budget: EPSILON_BUDGET,
            ..GuardConfig::default()
        }),
        audit: Some(AuditSinkConfig {
            path: audit_path.to_path_buf(),
            ..AuditSinkConfig::default()
        }),
        ..ServeConfig::default()
    }
}

/// Outcome counts of one client (or of all clients, summed).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests handed to `submit`.
    pub issued: u64,
    /// Decisions received.
    pub ok: u64,
    /// Decisions received with `flagged` set.
    pub flagged: u64,
    /// Decisions whose probability differs from [`score`] of the request.
    pub wrong_probability: u64,
    /// `ServeError::Busy`.
    pub busy: u64,
    /// `ServeError::Throttled`.
    pub throttled: u64,
    /// `ServeError::Timeout`.
    pub timeout: u64,
    /// `ServeError::Rejected`.
    pub rejected: u64,
    /// `ServeError::Remote`.
    pub remote: u64,
    /// `ServeError::Internal`.
    pub internal: u64,
    /// Any other error (bad request, shutting down, resharding).
    pub other: u64,
}

impl Tally {
    /// Count one outcome. `expected` is [`score`] of the request's features.
    pub fn record(&mut self, expected: f64, result: &Result<Decision, ServeError>) {
        match result {
            Ok(d) => {
                self.ok += 1;
                self.flagged += u64::from(d.flagged);
                if !crate::checks::probability_matches(expected, d.probability) {
                    self.wrong_probability += 1;
                }
            }
            Err(e) => *self.error_slot(e) += 1,
        }
    }

    fn error_slot(&mut self, e: &ServeError) -> &mut u64 {
        match e {
            ServeError::Busy { .. } => &mut self.busy,
            ServeError::Throttled { .. } => &mut self.throttled,
            ServeError::Timeout { .. } => &mut self.timeout,
            ServeError::Rejected { .. } => &mut self.rejected,
            ServeError::Remote(_) => &mut self.remote,
            ServeError::Internal(_) => &mut self.internal,
            _ => &mut self.other,
        }
    }

    /// Typed failures of every kind.
    pub fn failed(&self) -> u64 {
        self.busy
            + self.throttled
            + self.timeout
            + self.rejected
            + self.remote
            + self.internal
            + self.other
    }

    /// Add another tally into this one.
    pub fn add(&mut self, o: &Tally) {
        self.issued += o.issued;
        self.ok += o.ok;
        self.flagged += o.flagged;
        self.wrong_probability += o.wrong_probability;
        self.busy += o.busy;
        self.throttled += o.throttled;
        self.timeout += o.timeout;
        self.rejected += o.rejected;
        self.remote += o.remote;
        self.internal += o.internal;
        self.other += o.other;
    }
}

/// Phase of the run: warm-up, not measured.
pub const WARM: u8 = 0;
/// The timed window (untraced).
pub const WINDOW: u8 = 1;
/// The traced window (`--trace 1` only).
pub const TRACED: u8 = 2;
/// Clients stop issuing.
pub const STOP: u8 = 3;

/// Shared clock, phase and measurement interval for the load threads.
pub struct Control {
    base: Instant,
    phase: AtomicU8,
    interval: AtomicUsize,
}

impl Control {
    /// A fresh control in the warm-up phase, outside any interval.
    pub fn new(base: Instant) -> Control {
        Control {
            base,
            phase: AtomicU8::new(WARM),
            interval: AtomicUsize::new(0),
        }
    }

    /// Nanoseconds since the run's base instant.
    pub fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// The current phase.
    pub fn phase(&self) -> u8 {
        self.phase.load(Ordering::Acquire)
    }

    /// Move to `phase`.
    pub fn set_phase(&self, phase: u8) {
        self.phase.store(phase, Ordering::Release);
    }

    /// The measurement interval outcomes are counted in (0 = none).
    pub fn interval(&self) -> usize {
        self.interval.load(Ordering::Acquire)
    }

    /// Count outcomes in interval `i` from now on.
    pub fn set_interval(&self, i: usize) {
        self.interval.store(i, Ordering::Release);
    }
}

/// One traced request: issued at `submit_ns`, answered at `recv_ns`.
#[derive(Debug, Clone, Copy)]
pub struct RequestSpan {
    /// The request id (its unique route key).
    pub key: u64,
    /// When it was submitted (or, open loop, scheduled).
    pub submit_ns: u64,
    /// When the decision reached the client.
    pub recv_ns: u64,
    /// The measurement interval it completed in.
    pub interval: usize,
}

/// Outcomes that completed inside one measurement interval.
#[derive(Clone, Default)]
pub struct IntervalRec {
    /// Outcomes (`issued` stays 0: issue and completion may fall in
    /// different intervals; attempted = ok + failed).
    pub tally: Tally,
    /// Ok decisions within the latency limit.
    pub within_slo: u64,
    /// Latencies of the Ok decisions.
    pub hist: Histogram,
}

/// What one load thread measured.
pub struct ClientOut {
    /// Every request, whole run.
    pub total: Tally,
    /// Per measurement interval (index 0: outside any interval).
    pub intervals: Vec<IntervalRec>,
    /// Spans of Ok decisions issued in the traced phase.
    pub spans: Vec<RequestSpan>,
}

impl ClientOut {
    /// Room for `intervals` measurement intervals, allocated and paged in
    /// now, before the service is set up.
    pub fn new(intervals: usize) -> ClientOut {
        ClientOut {
            total: Tally::default(),
            intervals: vec![IntervalRec::default(); intervals],
            spans: Vec::new(),
        }
    }

    /// Account one finished request. `issued_phase` is the phase at submit
    /// (spans are kept for requests issued while tracing was on);
    /// `interval` is the interval it completed in.
    #[allow(clippy::too_many_arguments)]
    pub fn finish(
        &mut self,
        issued_phase: u8,
        interval: usize,
        key: u64,
        start_ns: u64,
        recv_ns: u64,
        expected: f64,
        result: &Result<Decision, ServeError>,
        slo_ns: u64,
    ) {
        self.total.record(expected, result);
        let latency = recv_ns.saturating_sub(start_ns);
        if let Some(rec) = self.intervals.get_mut(interval).filter(|_| interval > 0) {
            rec.tally.record(expected, result);
            if result.is_ok() {
                rec.hist.record(latency);
                rec.within_slo += u64::from(latency <= slo_ns);
            }
        }
        if issued_phase == TRACED && result.is_ok() {
            self.spans.push(RequestSpan {
                key,
                submit_ns: start_ns,
                recv_ns,
                interval,
            });
        }
    }

    /// Account a request `submit` refused outright.
    pub fn refused(&mut self, interval: usize, err: ServeError) {
        self.finish(WARM, interval, 0, 0, 0, 0.0, &Err(err), 0);
    }

    /// Merge another client's measurements into this one.
    pub fn merge(&mut self, o: &ClientOut) {
        self.total.add(&o.total);
        for (a, b) in self.intervals.iter_mut().zip(&o.intervals) {
            a.tally.add(&b.tally);
            a.within_slo += b.within_slo;
            a.hist.merge(&b.hist);
        }
        self.spans.extend_from_slice(&o.spans);
    }

    /// The median over stretches of `intervals` (see
    /// [`median_of_stretches`](crate::measure::median_of_stretches)) of
    /// `f(stretch, outcomes, within-limit count, latencies)`.
    pub fn per_stretch(
        &self,
        intervals: &[usize],
        f: impl Fn(&[usize], &Tally, u64, &Histogram) -> f64,
    ) -> f64 {
        crate::measure::median_of_stretches(intervals, |g| {
            let (t, within, h) = self.selected(g);
            f(g, &t, within, &h)
        })
    }

    /// The selected intervals' outcomes: (tally, within-limit count,
    /// latency histogram).
    pub fn selected(&self, intervals: &[usize]) -> (Tally, u64, Histogram) {
        let mut t = Tally::default();
        let mut within = 0;
        let mut h = Histogram::new();
        for rec in intervals.iter().filter_map(|&i| self.intervals.get(i)) {
            t.add(&rec.tally);
            within += rec.within_slo;
            h.merge(&rec.hist);
        }
        (t, within, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_a_function_of_seed_and_key() {
        let a = request(7, 42, true);
        let b = request(7, 42, true);
        assert_eq!(a.features, b.features);
        assert_eq!(a.group_b, b.group_b);
        assert_ne!(request(8, 42, true).features, a.features);
        assert_eq!(a.features.len(), N_FEATURES);
    }

    #[test]
    fn flagged_traffic_separates_the_groups() {
        let rate = |fair: bool, group_b: bool| {
            let picked: Vec<f64> = (0..20_000u64)
                .map(|k| request(1, k, fair))
                .filter(|r| r.group_b == group_b)
                .map(|r| score(&r.features))
                .collect();
            picked.iter().filter(|&&p| p >= 0.5).count() as f64 / picked.len() as f64
        };
        let fair_di = rate(true, true) / rate(true, false);
        assert!(fair_di > 0.97, "fair disparate impact {fair_di}");
        let flagged_di = rate(false, true) / rate(false, false);
        assert!(flagged_di < 0.1, "flagged disparate impact {flagged_di}");
    }
}
