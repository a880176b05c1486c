//! Per-shard FACT guards, the degrade policy, and the global alert channel.
//!
//! Each worker shard owns its guard set (no sharing, no locks on the hot
//! path): a [`StreamingFairnessMonitor`], an optional [`DriftMonitor`] over
//! the decision scores, and a [`StreamingDpCounter`] spending from a
//! per-shard [`PrivacyAccountant`]. Alerts are debounced per (shard, kind)
//! and merged into one mpsc channel the service owner can drain.

use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::Arc;

use fact_confidentiality::PrivacyAccountant;
use fact_core::drift::DriftMonitor;
use fact_core::runtime::{Alert, StreamingDpCounter, StreamingFairnessMonitor};
use fact_data::Result;

use crate::checkpoint::{GuardCheckpoint, LedgerEntry};
use crate::metrics::MetricsRegistry;

/// What the service does with decisions after a guard trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradePolicy {
    /// Guards observe and alert but decisions are served unchanged.
    #[default]
    Off,
    /// Decisions are still served, but marked `flagged` for human audit
    /// while the trip cooldown lasts.
    AuditAndFlag,
    /// Decisions are refused (`ServeError::Rejected`) while the trip
    /// cooldown lasts — fail closed.
    HardReject,
}

/// Configuration of the per-shard guard set.
#[derive(Debug, Clone)]
pub struct GuardConfig {
    /// Sliding window of the fairness monitor (events).
    pub fairness_window: usize,
    /// Minimum acceptable disparate impact.
    pub min_di: f64,
    /// Events per group required before the fairness monitor speaks.
    pub min_samples_per_group: usize,
    /// Decisions between differentially-private count releases.
    pub dp_interval: usize,
    /// ε spent per DP release.
    pub epsilon_per_release: f64,
    /// Per-shard ε budget.
    pub epsilon_budget: f64,
    /// Optional score-drift monitor: (reference scores, n_bins, window,
    /// PSI threshold).
    pub drift: Option<(Vec<f64>, usize, usize, f64)>,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            fairness_window: 2_000,
            min_di: 0.8,
            min_samples_per_group: 50,
            dp_interval: 1_000,
            epsilon_per_release: 0.01,
            epsilon_budget: 1.0,
            drift: None,
        }
    }
}

/// The kind of a guard alert, used as the debounce key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// Windowed disparate impact below threshold.
    Fairness,
    /// Score distribution drifted from the reference.
    Drift,
    /// A DP count release (informational).
    DpRelease,
    /// The DP budget ran out.
    BudgetExhausted,
}

impl AlertKind {
    /// Classify a guard alert.
    pub fn of(alert: &Alert) -> AlertKind {
        match alert {
            Alert::FairnessViolation { .. } => AlertKind::Fairness,
            Alert::Drift(_) => AlertKind::Drift,
            Alert::DpRelease { .. } => AlertKind::DpRelease,
            Alert::BudgetExhausted => AlertKind::BudgetExhausted,
        }
    }

    fn index(self) -> usize {
        match self {
            AlertKind::Fairness => 0,
            AlertKind::Drift => 1,
            AlertKind::DpRelease => 2,
            AlertKind::BudgetExhausted => 3,
        }
    }

    /// Whether a trip of this kind should engage the degrade policy.
    /// DP releases are routine; fairness/drift/budget-exhaustion are not.
    pub fn trips_policy(self) -> bool {
        !matches!(self, AlertKind::DpRelease)
    }
}

/// A guard alert stamped with its origin.
#[derive(Debug, Clone)]
pub struct ServiceAlert {
    /// Shard that raised it.
    pub shard: usize,
    /// The shard's decision count when it was raised.
    pub at_decision: u64,
    /// The underlying guard alert.
    pub alert: Alert,
}

/// The shard-side end of the merged alert channel: forwards alerts after
/// per-kind debouncing and counts what it forwards.
pub struct AlertHub {
    shard: usize,
    tx: Sender<ServiceAlert>,
    metrics: Arc<MetricsRegistry>,
    /// Minimum decisions between forwarded alerts of the same kind.
    debounce: u64,
    last_sent: [Option<u64>; 4],
}

impl AlertHub {
    /// A hub for one shard, forwarding into `tx`.
    pub fn new(
        shard: usize,
        tx: Sender<ServiceAlert>,
        metrics: Arc<MetricsRegistry>,
        debounce: u64,
    ) -> Self {
        AlertHub {
            shard,
            tx,
            metrics,
            debounce,
            last_sent: [None; 4],
        }
    }

    /// Forward `alert` unless one of the same kind was forwarded within the
    /// debounce interval. Returns true when forwarded.
    pub fn raise(&mut self, at_decision: u64, alert: Alert) -> bool {
        let kind = AlertKind::of(&alert);
        let slot = kind.index();
        let due = match self.last_sent[slot] {
            None => true,
            Some(at) => at_decision.saturating_sub(at) >= self.debounce.max(1),
        };
        if !due {
            return false;
        }
        self.last_sent[slot] = Some(at_decision);
        self.metrics.alerts.fetch_add(1, Ordering::Relaxed);
        // The receiver may be gone (owner dropped it); alerts are advisory,
        // so a failed send is not an error.
        let _ = self.tx.send(ServiceAlert {
            shard: self.shard,
            at_decision,
            alert,
        });
        true
    }
}

/// One shard's owned guard set.
pub struct ShardGuards {
    fairness: StreamingFairnessMonitor,
    dp: StreamingDpCounter,
    accountant: PrivacyAccountant,
    drift: Option<DriftMonitor>,
}

impl ShardGuards {
    /// Build the guard set for one shard. `seed` decorrelates the DP noise
    /// streams across shards.
    pub fn new(cfg: &GuardConfig, seed: u64) -> Result<Self> {
        let drift = match &cfg.drift {
            Some((reference, n_bins, window, threshold)) => {
                Some(DriftMonitor::new(reference, *n_bins, *window, *threshold)?)
            }
            None => None,
        };
        Ok(ShardGuards {
            fairness: StreamingFairnessMonitor::new(
                cfg.fairness_window,
                cfg.min_di,
                cfg.min_samples_per_group,
            )?,
            dp: StreamingDpCounter::new(cfg.dp_interval, cfg.epsilon_per_release, seed)?,
            accountant: PrivacyAccountant::pure(cfg.epsilon_budget)?,
            drift,
        })
    }

    /// Observe one served decision; collected alerts are appended to `out`.
    pub fn observe(&mut self, group_b: bool, favorable: bool, score: f64, out: &mut Vec<Alert>) {
        if let Some(a) = self.fairness.observe(group_b, favorable) {
            out.push(a);
        }
        if let Some(a) = self.dp.observe(&mut self.accountant) {
            out.push(a);
        }
        if let Some(d) = &mut self.drift {
            if let Some(a) = d.observe(score) {
                out.push(Alert::Drift(a));
            }
        }
    }

    /// ε this shard has spent so far.
    pub fn epsilon_spent(&self) -> f64 {
        self.accountant.spent_epsilon()
    }

    /// Serialize this guard set's resumable state: the fairness window as
    /// a segment summary, the full ε ledger, and the DP counter's
    /// counters. The drift monitor's score window is excluded by design
    /// (see the [`checkpoint`](crate::checkpoint) module docs).
    pub fn checkpoint(
        &self,
        shard: usize,
        decisions: u64,
        segment_events: usize,
    ) -> Result<GuardCheckpoint> {
        Ok(GuardCheckpoint {
            shard: shard as u64,
            decisions,
            window: self.fairness.summary(segment_events)?,
            ledger: self
                .accountant
                .ledger()
                .iter()
                .map(LedgerEntry::from)
                .collect(),
            budget_epsilon: self.accountant.budget_epsilon(),
            budget_delta: self.accountant.budget_delta(),
            dp_pending: self.dp.pending() as u64,
            dp_exhausted: self.dp.exhausted_reported(),
        })
    }

    /// Resume a freshly-constructed guard set from `ck`: the fairness
    /// window is resynthesized from the summary (exact per-segment
    /// counts), the accountant replays every recorded release, and the DP
    /// counter picks up its pending count mid-interval. Must be called
    /// before the guards observe anything.
    pub fn restore(&mut self, ck: &GuardCheckpoint) -> Result<()> {
        self.fairness.restore(&ck.window);
        for e in &ck.ledger {
            for _ in 0..e.releases() {
                self.accountant
                    .spend(e.epsilon, e.delta, e.label.as_str())?;
            }
        }
        self.dp.restore(ck.dp_pending as usize, ck.dp_exhausted);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    #[test]
    fn hub_debounces_per_kind() {
        let (tx, rx) = channel();
        let metrics = Arc::new(MetricsRegistry::new(1));
        let mut hub = AlertHub::new(0, tx, Arc::clone(&metrics), 100);
        let fv = Alert::FairnessViolation {
            rate_protected: 0.1,
            rate_unprotected: 0.9,
            disparate_impact: 0.11,
        };
        assert!(hub.raise(10, fv.clone()));
        assert!(!hub.raise(50, fv.clone()), "within debounce window");
        // a different kind is not suppressed by the fairness debounce
        assert!(hub.raise(50, Alert::BudgetExhausted));
        assert!(hub.raise(110, fv));
        drop(hub);
        assert_eq!(rx.iter().count(), 3);
        assert_eq!(metrics.alerts.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn guards_spend_epsilon_and_alert_on_disparity() {
        let cfg = GuardConfig {
            fairness_window: 200,
            min_samples_per_group: 20,
            dp_interval: 50,
            ..GuardConfig::default()
        };
        let mut g = ShardGuards::new(&cfg, 7).unwrap();
        let mut alerts = Vec::new();
        for i in 0..400 {
            let group_b = i % 2 == 0;
            // group B almost never favored
            let favorable = !group_b || i % 20 == 0;
            g.observe(group_b, favorable, 0.5, &mut alerts);
        }
        assert!(alerts
            .iter()
            .any(|a| matches!(a, Alert::FairnessViolation { .. })));
        assert!(alerts.iter().any(|a| matches!(a, Alert::DpRelease { .. })));
        assert!(g.epsilon_spent() > 0.0);
    }

    #[test]
    fn checkpoint_restore_resumes_window_and_ledger() {
        let cfg = GuardConfig {
            fairness_window: 200,
            min_samples_per_group: 20,
            dp_interval: 50,
            ..GuardConfig::default()
        };
        let mut g = ShardGuards::new(&cfg, 7).unwrap();
        let mut alerts = Vec::new();
        for i in 0..333 {
            g.observe(i % 2 == 0, i % 3 != 0, 0.5, &mut alerts);
        }
        let ck = g.checkpoint(2, 333, 25).unwrap();
        assert_eq!(ck.shard, 2);
        assert_eq!(ck.decisions, 333);
        // 333 decisions at dp_interval 50 → 6 releases recorded
        assert_eq!(ck.ledger.iter().map(LedgerEntry::releases).sum::<u64>(), 6);
        assert_eq!(ck.dp_pending, 33);

        let mut restored = ShardGuards::new(&cfg, 7).unwrap();
        restored.restore(&ck).unwrap();
        assert_eq!(
            restored.epsilon_spent().to_bits(),
            g.epsilon_spent().to_bits()
        );
        // the restored window carries the same counts forward: a second
        // checkpoint from the restored guards matches the original
        let ck2 = restored.checkpoint(2, 333, 25).unwrap();
        assert_eq!(ck2.window.counts(), ck.window.counts());
        assert_eq!(ck2.dp_pending, ck.dp_pending);
        // and the DP cadence resumes mid-interval: 17 more decisions
        // complete the 50-decision interval and release exactly once
        alerts.clear();
        for i in 0..17 {
            restored.observe(i % 2 == 0, true, 0.5, &mut alerts);
        }
        assert_eq!(
            alerts
                .iter()
                .filter(|a| matches!(a, Alert::DpRelease { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn drift_guard_fires_on_score_shift() {
        let reference: Vec<f64> = (0..1000).map(|i| (i % 100) as f64 / 100.0).collect();
        let cfg = GuardConfig {
            drift: Some((reference, 10, 100, 0.2)),
            ..GuardConfig::default()
        };
        let mut g = ShardGuards::new(&cfg, 1).unwrap();
        let mut alerts = Vec::new();
        for i in 0..400 {
            // scores pinned high: far from the uniform reference
            g.observe(i % 2 == 0, true, 0.95, &mut alerts);
        }
        assert!(alerts.iter().any(|a| matches!(a, Alert::Drift(_))));
    }
}
