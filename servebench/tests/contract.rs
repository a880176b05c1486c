//! `BENCHMARK.json` lists exactly the metrics and workloads the benchmark
//! prints and accepts.

use servebench::report::{END_TO_END, PER_LAYER};
use servebench::workload::Workload;

/// `BENCHMARK.json` with each line trimmed and the lines joined, so an
/// object's fields read `"name": "x","unit": "y"` whatever the indent.
fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path)
        .expect("BENCHMARK.json at the repository root")
        .lines()
        .map(str::trim)
        .collect()
}

#[test]
fn every_metric_is_declared_once() {
    let json = benchmark_json();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(r#""name": "{name}","unit": "{unit}""#);
        assert_eq!(json.matches(&entry).count(), 1, "{entry} in BENCHMARK.json");
    }
    assert_eq!(
        json.matches(r#""unit": "#).count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json declares a metric the benchmark does not print"
    );
}

#[test]
fn every_workload_is_declared_once() {
    let json = benchmark_json();
    for w in Workload::ALL {
        let entry = format!(r#"{{"name": "{}","why": "#, w.name());
        assert_eq!(json.matches(&entry).count(), 1, "{entry} in BENCHMARK.json");
    }
    assert_eq!(json.matches(r#""why": "#).count(), Workload::ALL.len());
}
