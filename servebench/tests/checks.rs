//! Each output check rejects a broken output.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use fact_data::Matrix;
use fact_ml::Classifier;
use fact_serve::{AuditEvent, AuditSink, AuditSinkConfig, DecisionService, ServeConfig};
use servebench::checks::{self, AlertCounts, DrainLine};
use servebench::workload::{request, score, serve_config, Tally, Workload};

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Scores every batch in reverse row order: each caller gets a neighbour's
/// probability, the mix-up micro-batching must never cause.
struct SwappingScorer;

impl Classifier for SwappingScorer {
    fn predict_proba(&self, x: &Matrix) -> fact_data::Result<Vec<f64>> {
        Ok((0..x.rows()).rev().map(|i| score(x.row(i))).collect())
    }
}

fn drive(model: Arc<dyn Classifier + Send + Sync>, dir: &std::path::Path) -> Tally {
    let config = ServeConfig {
        shards: 1,
        batch_linger: Duration::from_millis(2),
        ..serve_config(&dir.join("audit.jsonl"))
    };
    let svc = DecisionService::start(model, config).unwrap();
    let mut tally = Tally::default();
    let handles: Vec<_> = (0..64)
        .map(|k| {
            let req = request(3, k, true);
            let expected = score(&req.features);
            tally.issued += 1;
            (expected, svc.submit(req).unwrap())
        })
        .collect();
    for (expected, h) in handles {
        tally.record(expected, &h.wait(Duration::from_secs(5)));
    }
    svc.shutdown();
    tally
}

#[test]
fn probability_check_rejects_a_mixed_up_batch() {
    let good = drive(
        Arc::new(servebench::workload::MeanScorer),
        &scratch("prob-good"),
    );
    assert!(checks::probabilities(&good).is_ok());
    assert_eq!(good.ok, 64);
    let bad = drive(Arc::new(SwappingScorer), &scratch("prob-bad"));
    assert!(bad.wrong_probability > 0);
    assert!(checks::probabilities(&bad).is_err());
}

#[test]
fn probability_check_is_exact() {
    assert!(checks::probability_matches(0.625, 0.625));
    assert!(!checks::probability_matches(0.625, 0.625 + f64::EPSILON));
}

#[test]
fn reconcile_rejects_lost_and_phantom_decisions() {
    let t = Tally {
        issued: 10,
        ok: 9,
        timeout: 1,
        ..Tally::default()
    };
    assert!(checks::reconcile(&t, 10, 0, 1).is_ok());
    // a request neither answered nor refused
    let lost = Tally {
        timeout: 0,
        ..t.clone()
    };
    assert!(checks::reconcile(&lost, 9, 0, 0).is_err());
    // the service claims a decision nobody received
    assert!(checks::reconcile(&t, 11, 0, 1).is_err());
    // shed or timed out on one side only
    assert!(checks::reconcile(&t, 10, 1, 1).is_err());
    assert!(checks::reconcile(&t, 10, 0, 0).is_err());
}

fn write_log(dir: &std::path::Path) -> PathBuf {
    let path = dir.join("audit.jsonl");
    let sink = AuditSink::open(&AuditSinkConfig {
        path: path.clone(),
        ..AuditSinkConfig::default()
    })
    .unwrap();
    let h = sink.handle();
    for k in 0..20u64 {
        h.record(AuditEvent::Flagged {
            shard: 0,
            route_key: k,
            probability: 0.125,
            favorable: false,
            group_b: true,
        });
    }
    h.record(AuditEvent::Alert {
        shard: 0,
        at_decision: 20,
        summary: "DpRelease { epsilon: 0.01 }".into(),
    });
    drop(h);
    let report = sink.finish();
    assert_eq!(report.audited, 23);
    path
}

#[test]
fn audit_check_accepts_an_intact_log() {
    let path = write_log(&scratch("audit-good"));
    let counts = checks::audit_log(&path).unwrap();
    assert_eq!(
        (counts.flagged, counts.dp_release, counts.lifecycle),
        (20, 1, 2)
    );
    assert!(checks::audit_matches(&counts, 20, 1, 1).is_ok());
    assert!(checks::sink_accounting(23, 20, 1).is_ok());
}

#[test]
fn audit_check_rejects_a_tampered_line() {
    let path = write_log(&scratch("audit-tampered"));
    let text = std::fs::read_to_string(&path).unwrap();
    let tampered = text.replacen("p=0.125000", "p=0.925000", 1);
    assert_ne!(text, tampered);
    std::fs::write(&path, tampered).unwrap();
    assert!(checks::audit_log(&path).is_err());
}

#[test]
fn audit_check_rejects_a_deleted_line() {
    let path = write_log(&scratch("audit-deleted"));
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    lines.remove(5);
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();
    assert!(checks::audit_log(&path).is_err());
}

#[test]
fn audit_counts_must_match_what_the_service_reported() {
    let path = write_log(&scratch("audit-counts"));
    let counts = checks::audit_log(&path).unwrap();
    assert!(checks::audit_matches(&counts, 21, 1, 1).is_err());
    assert!(checks::audit_matches(&counts, 20, 0, 1).is_err());
    assert!(checks::audit_matches(&counts, 20, 1, 2).is_err());
    assert!(checks::sink_accounting(22, 20, 1).is_err());
}

#[test]
fn drain_check_rejects_a_worker_that_served_more_or_less() {
    let client = Tally {
        issued: 100,
        ok: 100,
        ..Tally::default()
    };
    let drain = |served| DrainLine {
        served,
        ..DrainLine::default()
    };
    assert!(checks::drain_matches(&drain(100), &client).is_ok());
    assert!(checks::drain_matches(&drain(99), &client).is_err());
    assert!(checks::drain_matches(&drain(101), &client).is_err());
}

#[test]
fn regime_check_rejects_a_workload_outside_its_regime() {
    let quiet = AlertCounts::default();
    let tripped = AlertCounts {
        fairness: 1,
        ..quiet
    };
    let exhausted = AlertCounts {
        budget_exhausted: 1,
        ..quiet
    };
    assert!(checks::regime(Workload::FairClosed, 0.0, &quiet).is_ok());
    assert!(checks::regime(Workload::FairClosed, 0.0, &tripped).is_err());
    assert!(checks::regime(Workload::RemoteOpen, 0.02, &quiet).is_err());
    assert!(checks::regime(Workload::FlaggedPipelined, 0.995, &tripped).is_ok());
    assert!(checks::regime(Workload::FlaggedPipelined, 0.98, &tripped).is_err());
    assert!(checks::regime(Workload::FlaggedPipelined, 1.0, &exhausted).is_err());
}

#[test]
fn stage_check_rejects_an_incomplete_breakdown() {
    assert!(checks::stage_coverage(0.95).is_ok());
    assert!(checks::stage_coverage(0.85).is_err());
}
