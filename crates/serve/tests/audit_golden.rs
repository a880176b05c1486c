//! The audit log's bytes are a stored format: segments written today must
//! be byte-identical to what every earlier writer produced for the same
//! events, so offline verifiers, archives and diffs of old logs keep
//! working. These tests replay a fixed event sequence through the real
//! writer over [`MemStorage`] and compare the result byte for byte with
//! fixtures recorded by the serde-based line encoder the writer used
//! before it encoded lines directly (`tests/fixtures/`).
//!
//! The sequence is deterministic by construction: `flush_interval` is an
//! hour, so batches close only at `batch_max` or at shutdown, and the
//! small `max_segment_bytes` makes the writer roll (and write handoff
//! records) at the same points on every run.

use std::time::Duration;

use fact_serve::{
    verify_all_segments, AuditEvent, AuditSink, AuditSinkConfig, AuditStorage, MemStorage,
};
use fact_transparency::audit::{
    verify_chain_from, verify_segment_entries, AuditEntry, ChainHead, Digest,
};

const GOLDEN_V2_LOG: &[u8] = include_bytes!("fixtures/audit_golden_v2.jsonl");
const GOLDEN_V2_HEAD: &[u8] = include_bytes!("fixtures/audit_golden_v2.head");
const V1_SAMPLE: &[u8] = include_bytes!("fixtures/audit_v1_sample.jsonl");
const GOLDEN_V1_LOG: &[u8] = include_bytes!("fixtures/audit_golden_v1.jsonl");
const GOLDEN_V1_HEAD: &[u8] = include_bytes!("fixtures/audit_golden_v1.head");

/// Flagged, rejected, alert and operator lifecycle events, including an
/// alert summary with quotes, a backslash, a newline, a tab, other control
/// characters and non-ASCII text.
fn events(run: u64) -> Vec<AuditEvent> {
    let mut out = Vec::new();
    for k in 0..9u64 {
        out.push(AuditEvent::Flagged {
            shard: (k % 2) as usize,
            route_key: 1_000 * run + k,
            probability: 0.0625 + k as f64 / 17.0,
            favorable: k % 3 == 0,
            group_b: k % 2 == 1,
        });
    }
    out.push(AuditEvent::Rejected {
        shard: 1,
        route_key: 7_000 + run,
    });
    out.push(AuditEvent::Alert {
        shard: 0,
        at_decision: 512 + run,
        summary:
            "fairness: \"di\"=0.71 < 0.8\nwindow=256 path=C:\\audit\ttab \u{1}\u{1f}\u{7f} é → 🚩"
                .into(),
    });
    out.push(AuditEvent::Lifecycle {
        what: "operator_note".into(),
        detail: format!("run={run} quote=\" cr=\r"),
    });
    for k in 0..3u64 {
        out.push(AuditEvent::Rejected {
            shard: 0,
            route_key: 9_000 + k,
        });
    }
    out
}

fn config() -> AuditSinkConfig {
    AuditSinkConfig {
        batch_max: 4,
        flush_interval: Duration::from_secs(3600),
        queue_cap: 64,
        max_segment_bytes: 2_048,
        ..AuditSinkConfig::default()
    }
}

/// Two sink runs (open, record, finish) over `storage`: the second resumes
/// the chain the first left, so the log also holds a restart.
fn write_two_runs(storage: &MemStorage) {
    for run in 0..2 {
        let sink = AuditSink::open_with_storage(&config(), Box::new(storage.restart())).unwrap();
        assert_eq!(sink.recovery().lost, 0);
        let h = sink.handle();
        for ev in events(run) {
            h.record(ev);
        }
        drop(h);
        let report = sink.finish();
        assert_eq!((report.dropped, report.io_errors), (0, 0));
    }
}

/// The store's segments, concatenated in order, must equal `log` and its
/// head sidecar `head`; every segment must verify standalone and the
/// store continuously, across at least two rolls.
fn assert_matches_golden(storage: &MemStorage, log: &[u8], head: &[u8]) {
    let got = storage.log_bytes();
    if got != log {
        let at = got.iter().zip(log).position(|(a, b)| a != b);
        panic!(
            "audit log bytes differ from the fixture (len {} vs {}, first difference at {:?})",
            got.len(),
            log.len(),
            at
        );
    }
    assert_eq!(storage.head_bytes().as_deref(), Some(head));
    let audit = verify_all_segments(&mut storage.clone()).unwrap();
    assert!(audit.continuous, "{:?}", audit.segments);
    assert!(audit.segments.len() >= 3, "the fixture must cover rolls");
}

fn parse_lines(bytes: &[u8]) -> Vec<AuditEntry> {
    std::str::from_utf8(bytes)
        .unwrap()
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect()
}

#[test]
fn writer_reproduces_the_v2_golden_log_byte_for_byte() {
    let storage = MemStorage::new();
    write_two_runs(&storage);
    assert_matches_golden(&storage, GOLDEN_V2_LOG, GOLDEN_V2_HEAD);
    let entries = parse_lines(GOLDEN_V2_LOG);
    assert!(entries.iter().all(|e| matches!(e.hash, Digest::V2(_))));
    assert!(entries
        .iter()
        .any(|e| e.details.contains("\"di\"=0.71 < 0.8\n")));
}

#[test]
fn v1_sample_still_parses_and_verifies() {
    let entries = parse_lines(V1_SAMPLE);
    assert!(entries.len() >= 4);
    assert!(entries.iter().all(|e| matches!(e.hash, Digest::V1(_))));
    assert_eq!(verify_chain_from(ChainHead::genesis_v1(), &entries), None);
    assert_eq!(verify_chain_from(ChainHead::genesis(), &entries), None);
    let check = verify_segment_entries(&entries).unwrap();
    assert_eq!(check.end.version(), 1);
    // and each line re-serializes to exactly the bytes it was read from
    for (entry, line) in entries.iter().zip(V1_SAMPLE.split(|&b| b == b'\n')) {
        assert_eq!(serde_json::to_string(entry).unwrap().as_bytes(), line);
    }
}

#[test]
fn writer_extends_a_v1_log_at_v1_width_byte_for_byte() {
    let storage = MemStorage::new();
    {
        let mut s = storage.clone();
        s.open_segment(0).unwrap();
        s.append_log(V1_SAMPLE).unwrap();
        s.sync_log().unwrap();
    }
    write_two_runs(&storage);
    assert_matches_golden(&storage, GOLDEN_V1_LOG, GOLDEN_V1_HEAD);
    let entries = parse_lines(GOLDEN_V1_LOG);
    assert!(entries.iter().all(|e| matches!(e.hash, Digest::V1(_))));
}
