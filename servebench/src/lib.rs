//! The serving benchmark for the FACT-guarded decision path.
//!
//! One command runs one workload against the real
//! `fact_serve::DecisionService` (in process) or the release `fact-shardd`
//! binary (over a Unix socket), checks every output, and prints one JSON
//! result line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See `README.md` next to this package for the
//! workloads, the metrics and what each layer should move.

pub mod checks;
pub mod hist;
pub mod local;
pub mod measure;
pub mod procfs;
pub mod remote;
pub mod report;
pub mod trace;
pub mod workload;

use std::path::PathBuf;
use std::time::Duration;

use workload::Workload;

/// One run's options, from the command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the request generator.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: Duration,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// The release `fact-shardd` binary (`remote-open` only).
    pub shardd: Option<PathBuf>,
    /// `remote-open` offered rate, requests per second.
    pub rate: f64,
    /// The workload's latency limit in microseconds.
    pub slo_us: u64,
    /// Scratch directory for audit logs, checkpoints and the socket.
    pub run_dir: PathBuf,
}

impl Opts {
    /// The audit log of the in-process service's `lifetime`-th set-up:
    /// each set-up opens a fresh log, so each does the same work.
    pub fn audit_path(&self, lifetime: usize) -> PathBuf {
        self.run_dir
            .join(format!("audit-{lifetime}"))
            .join("audit.jsonl")
    }
}

/// Run the workload `opts` names.
pub fn run(opts: &Opts) -> Result<report::Outcome, String> {
    match opts.workload {
        Workload::FairClosed | Workload::FlaggedPipelined => local::run(opts),
        Workload::RemoteOpen => remote::run(opts),
    }
}
