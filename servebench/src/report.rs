//! The metric catalogue and the result line.
//!
//! `--trace 0` prints every end-to-end metric; `--trace 1` prints every
//! per-layer metric. A per-layer metric whose layer is not on the
//! workload's request path (say `net.*` on an in-process workload, or the
//! in-process spans on `remote-open`) reads 0.

use std::collections::BTreeMap;

/// End-to-end metrics: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("decisions_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("within_slo_frac", "ratio"),
    ("cpu_us_per_decision", "us"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    // serve.service: submit, route, shard queue, batch linger
    ("service.queue_wait_us.p50", "us"),
    ("service.queue_wait_us.p99", "us"),
    ("service.batch_size.mean", "count"),
    ("service.shard.cpu_us_per_decision", "us"),
    ("service.shard.wakeups_per_decision", "count"),
    // serve.source
    ("source.fetch_us.p50", "us"),
    // ml
    ("ml.predict_us.p50", "us"),
    ("ml.rows_per_call", "count"),
    // post-predict: guards, audit enqueue, metrics, reply
    ("service.post_predict_us.p50", "us"),
    ("guards.flagged_frac", "ratio"),
    ("guards.alerts.fairness", "count"),
    ("guards.alerts.dp_release", "count"),
    ("guards.alerts.budget_exhausted", "count"),
    ("guards.epsilon_spent", "epsilon"),
    // serve.audit_sink + fact-transparency chain
    ("audit.entries_per_decision", "ratio"),
    ("audit.bytes_per_entry", "B"),
    ("audit.entries_per_batch", "count"),
    ("audit.append_us.p50", "us"),
    ("audit.sync_us.p50", "us"),
    ("audit.sync_us.p99", "us"),
    ("audit.head_us.p50", "us"),
    ("audit.writer.cpu_us_per_entry", "us"),
    ("audit.lag_entries.max", "count"),
    // net: the front-end RemoteShard
    ("net.rtt_us.mean", "us"),
    ("net.requests", "count"),
    ("net.reconnects", "count"),
    ("net.errors", "count"),
    ("net.reader.cpu_us_per_decision", "us"),
    // shardd: the fact-shardd worker process
    ("shardd.cpu_us_per_decision", "us"),
    ("shardd.conn.cpu_us_per_decision", "us"),
    ("shardd.writer.cpu_us_per_decision", "us"),
    ("shardd.shard.cpu_us_per_decision", "us"),
    ("shardd.wakeups_per_decision", "count"),
    ("shardd.io_bytes_per_decision", "B"),
    ("checkpoint.writes_per_1k_decisions", "count"),
    // the end-to-end tail: too dependent on the host to carry a bound (see
    // README.md), so reported here, from the untraced half
    ("latency_p99_us", "us"),
    // loadgen: the benchmark itself
    ("loadgen.lag_p99_us", "us"),
    ("loadgen.cpu_us_per_decision", "us"),
    ("loadgen.latency_samples", "count"),
    ("loadgen.latency_tail_pct", "%"),
    ("loadgen.latency_tail_us", "us"),
    // the tracing itself
    ("trace.decisions_per_s_ratio", "ratio"),
    ("trace.stage_coverage", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests issued in the timed window.
    pub attempted: u64,
    /// Of those, requests that failed with a typed error or timed out.
    pub failed: u64,
    /// Output checks that failed; any entry fails the run.
    pub failures: Vec<String>,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a check's verdict.
    pub fn check(&mut self, verdict: Result<(), String>) {
        if let Err(e) = verdict {
            self.failures.push(e);
        }
    }

    /// The result line: every metric of the chosen catalogue by name and
    /// unit. Fails if a metric was set under a name in neither catalogue,
    /// if an end-to-end metric is missing, or if any value is not finite.
    pub fn render(&self, trace: bool) -> Result<String, String> {
        for name in self.metrics.keys() {
            if !END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| n == name) {
                return Err(format!("metric {name} is not in the catalogue"));
            }
        }
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let mut parts = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            parts.push(format!(
                r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#
            ));
        }
        Ok(format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.failures.is_empty(),
            self.attempted,
            self.failed,
            parts.join(", ")
        ))
    }
}

/// Median of a non-empty sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
