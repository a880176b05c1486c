//! The harness the cross-process experiments (E16, E18, E19, E20) share:
//! the scorer `fact-shardd` hosts, a disparate lending workload, and
//! helpers that spawn a worker, wait for it and drive it from a
//! front-end [`DecisionService`].

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fact_data::Matrix;
use fact_ml::Classifier;
use fact_net::RemoteShard;
use fact_serve::{DecisionRequest, DecisionService, ServeConfig, ShardSlot};
use rand::rngs::StdRng;
use rand::Rng;

/// Feature-vector length of every request the harness sends.
pub const N_FEATURES: usize = 4;

/// The deterministic model `fact-shardd` hosts: probability is the mean of
/// the feature vector, clamped to [0, 1]. Using it client-side scores the
/// same work the worker does.
pub struct MeanScorer;

impl Classifier for MeanScorer {
    fn predict_proba(&self, x: &Matrix) -> fact_data::Result<Vec<f64>> {
        Ok((0..x.rows())
            .map(|i| {
                let row = x.row(i);
                let mean = row.iter().sum::<f64>() / row.len().max(1) as f64;
                mean.clamp(0.0, 1.0)
            })
            .collect())
    }
}

/// A disparate lending request: group B (30% of traffic) scores low, so
/// the fairness monitor trips and flagged decisions flow to the audit log.
pub fn lending_request(rng: &mut StdRng, key: u64) -> DecisionRequest {
    let group_b = rng.gen_bool(0.3);
    let center = if group_b { 0.30 } else { 0.70 };
    let features: Vec<f64> = (0..N_FEATURES)
        .map(|_| (center + rng.gen_range(-0.15f64..0.15)).clamp(0.0, 1.0))
        .collect();
    DecisionRequest {
        features,
        group_b,
        route_key: key,
        tenant: 0,
    }
}

/// A scratch directory for one worker (socket, sidecars, audit log),
/// removed on drop.
pub struct WorkerDirs {
    /// The directory itself.
    pub root: PathBuf,
    /// Unix socket the worker listens on.
    pub socket: PathBuf,
    /// Guard-state sidecar directory.
    pub checkpoints: PathBuf,
    /// Audit log path.
    pub audit: PathBuf,
}

impl WorkerDirs {
    /// A fresh `fact-<experiment>-<tag>-<pid>` directory under the system
    /// temp dir.
    pub fn new(experiment: &str, tag: &str) -> WorkerDirs {
        let root =
            std::env::temp_dir().join(format!("fact-{experiment}-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create experiment dir");
        WorkerDirs {
            socket: root.join("shardd.sock"),
            checkpoints: root.join("checkpoints"),
            audit: root.join("audit.jsonl"),
            root,
        }
    }

    /// The audit log path as a flag value.
    pub fn audit_arg(&self) -> &str {
        self.audit.to_str().expect("temp paths are UTF-8")
    }
}

impl Drop for WorkerDirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// The `fact-shardd` binary built next to the running experiment.
pub fn shardd_path() -> PathBuf {
    let me = std::env::current_exe().expect("current_exe");
    let path = me.parent().expect("bin dir").join("fact-shardd");
    assert!(
        path.exists(),
        "fact-shardd not found at {} — build it first (cargo build --release --bin fact-shardd)",
        path.display()
    );
    path
}

/// Block until a worker accepts connections on `socket` (bounded).
fn wait_listening(socket: &Path) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match RemoteShard::connect(socket) {
            Ok(_) => return,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => panic!("worker never came up on {}: {e}", socket.display()),
        }
    }
}

/// Spawn `fact-shardd` on `dirs.socket` with sidecars in
/// `dirs.checkpoints`, [`N_FEATURES`]-wide requests and the `extra` flags,
/// and wait until it listens.
pub fn spawn_worker(dirs: &WorkerDirs, extra: &[&str]) -> Child {
    let child = Command::new(shardd_path())
        .arg("--socket")
        .arg(&dirs.socket)
        .arg("--checkpoint-dir")
        .arg(&dirs.checkpoints)
        .args(["--n-features", &N_FEATURES.to_string()])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn fact-shardd");
    wait_listening(&dirs.socket);
    child
}

/// A front-end with one unguarded remote slot on `socket`.
pub fn remote_client(socket: &Path) -> DecisionService {
    DecisionService::start(
        Arc::new(MeanScorer),
        ServeConfig {
            shards: 1,
            n_features: N_FEATURES,
            guards: None,
            topology: Some(vec![ShardSlot::Remote(socket.to_path_buf())]),
            default_timeout: Duration::from_secs(10),
            ..ServeConfig::default()
        },
    )
    .expect("start remote client")
}

/// Drive `n` lending requests with keys from `key_base`; returns how many
/// were served (errors tolerated — under a kill some in-flight requests
/// die with the worker).
pub fn drive(client: &DecisionService, rng: &mut StdRng, n: u64, key_base: u64) -> u64 {
    let mut served = 0;
    for i in 0..n {
        if client.decide(lending_request(rng, key_base + i)).is_ok() {
            served += 1;
        }
    }
    served
}
