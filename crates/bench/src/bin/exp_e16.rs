//! E16 — cross-process shard serving: kill-and-restart under load, and the
//! cost of going remote (EXPERIMENTS.md, E16).
//!
//! Two questions, one harness:
//!
//! 1. **Does guard state survive a worker crash?** Spawns a real
//!    `fact-shardd` process, routes a disparate lending workload to it
//!    through a `ShardSlot::Remote` topology, then SIGKILLs the worker
//!    mid-load. Hard-asserts the periodic checkpoints bound the loss
//!    (decisions lost < shards × checkpoint interval, never a silent
//!    reset to zero), respawns the worker over the same sidecar
//!    directory, and verifies it *resumes*: lifetime decision counts,
//!    fairness window, and ε ledger all continue from the checkpoint.
//!    The worker's durable audit log must verify segment-by-segment
//!    across the crash. `--smoke` runs only this phase (the CI gate).
//! 2. **What does a socket hop cost?** Closed-loop throughput/latency of
//!    the same guarded workload against in-process shards vs. a
//!    `fact-shardd` worker over a Unix socket.

use std::path::Path;
use std::process::Child;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::header;
use bench::shardd::{
    drive, lending_request, remote_client, spawn_worker, MeanScorer, WorkerDirs, N_FEATURES,
};
use fact_net::RemoteShard;
use fact_serve::audit_sink::{verify_all_segments, AuditStorage, FileStorage};
use fact_serve::{load_checkpoint, DecisionService, DegradePolicy, GuardConfig, ServeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const WORKER_SHARDS: usize = 2;
const CHECKPOINT_EVERY: u64 = 200;
const DP_INTERVAL: usize = 100;
const FAIRNESS_WINDOW: usize = 800;

/// Spawn a worker on `dirs` with the experiment's guard cadence; the audit
/// log is on when `with_audit`.
fn spawn_guarded_worker(dirs: &WorkerDirs, with_audit: bool) -> Child {
    let shards = WORKER_SHARDS.to_string();
    let every = CHECKPOINT_EVERY.to_string();
    let dp = DP_INTERVAL.to_string();
    let window = FAIRNESS_WINDOW.to_string();
    let mut flags = vec![
        "--shards",
        &shards,
        "--checkpoint-every",
        &every,
        "--dp-interval",
        &dp,
        "--fairness-window",
        &window,
    ];
    if with_audit {
        flags.extend(["--audit", dirs.audit_arg()]);
    }
    spawn_worker(dirs, &flags)
}

fn checkpoint_totals(dir: &Path) -> (u64, usize, f64) {
    let mut decisions = 0;
    let mut ledger = 0;
    let mut window_events = 0f64;
    for shard in 0..WORKER_SHARDS {
        if let Some(ck) = load_checkpoint(dir, shard).expect("readable checkpoint") {
            decisions += ck.decisions;
            ledger += ck
                .ledger
                .iter()
                .map(|e| e.releases() as usize)
                .sum::<usize>();
            window_events += ck.window.total_events() as f64;
        }
    }
    (decisions, ledger, window_events)
}

fn kill_restart_phase(n_load: u64, n_resume: u64) {
    println!("## E16a: kill-and-restart a remote shard worker under load\n");
    let dirs = WorkerDirs::new("e16", "recovery");
    let mut rng = StdRng::seed_from_u64(16);

    // --- run 1: load, then SIGKILL mid-flight ---------------------------
    let mut worker = spawn_guarded_worker(&dirs, true);
    let client = remote_client(&dirs.socket);
    let served1 = drive(&client, &mut rng, n_load, 0);
    assert_eq!(served1, n_load, "healthy worker must serve everything");

    worker.kill().expect("SIGKILL worker");
    worker.wait().expect("reap worker");
    let (ck_decisions, ck_ledger, ck_window) = checkpoint_totals(&dirs.checkpoints);
    let lost = served1 - ck_decisions;
    println!("served before kill            : {served1}");
    println!("checkpointed decisions        : {ck_decisions}");
    println!("decisions lost to the kill    : {lost}");
    println!("ε-ledger entries checkpointed : {ck_ledger}");
    println!("fairness-window events        : {ck_window}");
    assert!(ck_decisions > 0, "silent reset: checkpoints hold nothing");
    let bound = WORKER_SHARDS as u64 * CHECKPOINT_EVERY;
    assert!(
        lost < bound,
        "loss must be bounded by shards × interval: lost {lost}, bound {bound}"
    );
    assert!(ck_ledger > 0, "ε ledger must be checkpointed");

    // the dead worker surfaces as a typed error, not a hang
    let dead = client.decide(lending_request(&mut rng, 999_999));
    assert!(dead.is_err(), "decisions against a dead worker must fail");

    // --- run 2: respawn over the same sidecars, resume, drain cleanly ---
    let mut worker = spawn_guarded_worker(&dirs, true);
    let served2 = drive(&client, &mut rng, n_resume, n_load);
    assert_eq!(served2, n_resume, "respawned worker must serve everything");
    let reconnects = client.remote_stats()[0].reconnects;
    assert!(reconnects >= 1, "client must have healed the connection");

    let control = RemoteShard::connect(&dirs.socket).expect("control connection");
    let ack = control
        .control("shutdown", Duration::from_secs(5))
        .expect("shutdown ack");
    assert!(!ack.payload.is_empty());
    let status = worker.wait().expect("worker exit");
    assert!(status.success(), "graceful shutdown must exit 0: {status}");

    let (final_decisions, final_ledger, final_window) = checkpoint_totals(&dirs.checkpoints);
    println!("served after respawn          : {served2}");
    println!("client reconnects             : {reconnects}");
    println!("final lifetime decisions      : {final_decisions}");
    println!("final ε-ledger entries        : {final_ledger}");
    println!("final fairness-window events  : {final_window}");
    assert_eq!(
        final_decisions,
        ck_decisions + served2,
        "lifetime count must resume from the checkpoint, not from zero"
    );
    assert!(
        final_ledger >= ck_ledger,
        "ε ledger must grow monotonically across the restart"
    );
    assert!(final_window > 0.0);

    // --- the audit log must verify across the crash ---------------------
    let mut storage = FileStorage::open(&dirs.audit).expect("open audit log");
    let audit = verify_all_segments(&mut storage as &mut dyn AuditStorage).expect("verify");
    assert!(
        !audit.segments.is_empty(),
        "flagged decisions must be logged"
    );
    assert!(audit.continuous, "audit chain must be continuous");
    let mut entries = 0u64;
    for (id, verdict) in &audit.segments {
        let check = verdict
            .as_ref()
            .unwrap_or_else(|e| panic!("audit segment {id} failed verification: {e:?}"));
        entries += check.entries;
    }
    println!("audit segments verified       : {}", audit.segments.len());
    println!("audit entries across restart  : {entries}");
    assert!(entries > 0, "disparate traffic must have flagged decisions");
    println!("\nPASS: window + ε ledger survive a SIGKILL with bounded loss\n");
    let _ = client.shutdown();
}

// ---------------------------------------------------------------------------
// E16b: local vs remote throughput/latency
// ---------------------------------------------------------------------------

struct Measured {
    throughput: f64,
    mean_us: f64,
    p99_us: f64,
}

fn measure(client: &DecisionService, total: u64, threads: u64, seed: u64) -> Measured {
    let per = total / threads;
    let start = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let client = client.clone();
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ t);
                    let mut lat = Vec::with_capacity(per as usize);
                    for i in 0..per {
                        let req = lending_request(&mut rng, t * per + i);
                        let sent = Instant::now();
                        client.decide(req).expect("decision");
                        lat.push(sent.elapsed().as_micros() as u64);
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("driver thread"))
            .collect()
    });
    let wall = start.elapsed();
    latencies.sort_unstable();
    let n = latencies.len();
    Measured {
        throughput: n as f64 / wall.as_secs_f64(),
        mean_us: latencies.iter().sum::<u64>() as f64 / n as f64,
        p99_us: latencies[(n * 99) / 100 - 1] as f64,
    }
}

fn comparison_phase(total: u64) {
    println!(
        "## E16b: in-process vs cross-process serving ({total} decisions, 4 driver threads)\n"
    );
    let guard = GuardConfig {
        fairness_window: FAIRNESS_WINDOW,
        dp_interval: DP_INTERVAL,
        ..GuardConfig::default()
    };

    let local = DecisionService::start(
        Arc::new(MeanScorer),
        ServeConfig {
            shards: WORKER_SHARDS,
            n_features: N_FEATURES,
            policy: DegradePolicy::AuditAndFlag,
            guards: Some(guard),
            ..ServeConfig::default()
        },
    )
    .expect("start local service");
    let local_m = measure(&local, total, 4, 7);
    let _ = local.shutdown();

    let dirs = WorkerDirs::new("e16", "compare");
    let mut worker = spawn_guarded_worker(&dirs, false);
    let remote = remote_client(&dirs.socket);
    let remote_m = measure(&remote, total, 4, 7);
    let rtt = remote.remote_stats()[0].rtt_mean_micros;
    let _ = remote.shutdown();
    let control = RemoteShard::connect(&dirs.socket).expect("control connection");
    control
        .control("shutdown", Duration::from_secs(5))
        .expect("shutdown ack");
    worker.wait().expect("worker exit");

    header(&["mode", "req/s", "mean_us", "p99_us"], &[10, 12, 10, 10]);
    for (mode, m) in [("local", &local_m), ("remote", &remote_m)] {
        println!(
            "{mode:>10} {:>12.0} {:>10.1} {:>10.1}",
            m.throughput, m.mean_us, m.p99_us
        );
    }
    println!("\nremote wire RTT (client-measured): {rtt:.1} µs mean");
    println!(
        "socket-hop slowdown: {:.2}x throughput, {:.2}x mean latency",
        local_m.throughput / remote_m.throughput,
        remote_m.mean_us / local_m.mean_us
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!("# E16 — cross-process shard serving with guard-state checkpoint/merge\n");
    if smoke {
        kill_restart_phase(1_200, 600);
        println!("E16 smoke: OK");
    } else {
        kill_restart_phase(6_000, 3_000);
        comparison_phase(20_000);
    }
}
