//! Live-reshard coverage: the checkpoint transform conserves every count,
//! the cutover gate holds and replays concurrent submits, the hold window
//! is bounded by a typed refusal, and the `"reshard <M>"` control command
//! works end to end over fact-net.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fact_data::{Matrix, Result};
use fact_ml::Classifier;
use fact_net::{RemoteShard, Server, ShardHandler};
use fact_serve::{
    load_checkpoint, transform_checkpoints, write_checkpoint, CheckpointConfig, DecisionRequest,
    DecisionService, GuardCheckpoint, GuardConfig, LedgerEntry, NetShardHandler, ServeConfig,
    ServeError,
};

/// Probability = first feature.
struct StubModel;
impl Classifier for StubModel {
    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>> {
        Ok((0..x.rows()).map(|i| x.get(i, 0).clamp(0.0, 1.0)).collect())
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fact-reshard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(shards: usize, ckpt_dir: &std::path::Path) -> ServeConfig {
    ServeConfig {
        shards,
        n_features: 1,
        guards: Some(GuardConfig {
            fairness_window: 500,
            min_samples_per_group: 20,
            dp_interval: 100,
            ..GuardConfig::default()
        }),
        checkpoint: Some(CheckpointConfig {
            dir: ckpt_dir.to_path_buf(),
            every: 200,
            segment_events: 50,
        }),
        ..ServeConfig::default()
    }
}

fn request(i: u64) -> DecisionRequest {
    let group_b = i % 2 == 0;
    DecisionRequest {
        features: vec![if group_b { 0.3 } else { 0.7 }],
        group_b,
        route_key: i,
        tenant: 0,
    }
}

fn sidecar(shard: u64, decisions: u64, n_ledger: usize, eps_each: f64) -> GuardCheckpoint {
    let window = fact_fairness::WindowSummary::from_events(
        500,
        50,
        (0..decisions.min(500)).map(|i| (i % 2 == 0, i % 3 == 0)),
    )
    .unwrap();
    GuardCheckpoint {
        shard,
        decisions,
        window,
        ledger: (0..n_ledger)
            .map(|_| LedgerEntry {
                label: "dp-release".into(),
                epsilon: eps_each,
                delta: 0.0,
                count: Some(1),
            })
            .collect(),
        budget_epsilon: 1.0,
        budget_delta: 0.0,
        dp_pending: decisions % 100,
        dp_exhausted: false,
    }
}

#[test]
fn transform_conserves_counts_ledger_and_decisions() {
    let dir = temp_dir("transform");
    std::fs::create_dir_all(&dir).unwrap();
    // 4 uneven shards, shrink to 3 then grow to 8
    let mut pre_decisions = 0;
    let mut pre_ledger = 0;
    for shard in 0..4u64 {
        let ck = sidecar(shard, 100 + shard * 37, 3 + shard as usize, 0.01);
        pre_decisions += ck.decisions;
        pre_ledger += ck.ledger.iter().map(LedgerEntry::releases).sum::<u64>();
        write_checkpoint(&dir, &ck).unwrap();
    }

    let shrink = transform_checkpoints(&dir, 4, 3).unwrap();
    assert_eq!(shrink.pre_counts, shrink.post_counts, "window conservation");
    assert_eq!(shrink.pre_decisions, pre_decisions);
    assert_eq!(shrink.post_decisions, pre_decisions);
    assert_eq!(shrink.ledger_entries, pre_ledger);
    // the stale 4th sidecar is gone so a later grow cannot resurrect it
    assert!(load_checkpoint(&dir, 3).unwrap().is_none());

    // every surviving sidecar is loadable and the ledgers sum back
    let total_ledger: u64 = (0..3)
        .flat_map(|s| load_checkpoint(&dir, s).unwrap().unwrap().ledger)
        .map(|e| e.releases())
        .sum();
    assert_eq!(total_ledger, pre_ledger);

    let grow = transform_checkpoints(&dir, 3, 8).unwrap();
    assert_eq!(grow.pre_counts, shrink.post_counts, "chained transforms");
    assert_eq!(grow.pre_counts, grow.post_counts);
    assert_eq!(grow.post_decisions, pre_decisions);
    assert_eq!(grow.ledger_entries, pre_ledger);
    for s in 0..8 {
        assert!(load_checkpoint(&dir, s).unwrap().is_some(), "sidecar {s}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transform_refuses_over_budget_successor_without_writing() {
    let dir = temp_dir("budget");
    std::fs::create_dir_all(&dir).unwrap();
    // 4 shards × 30 entries × 0.01 ε = 1.2 ε total; into 1 successor that
    // exceeds the 1.0 budget, so the shrink must refuse
    for shard in 0..4u64 {
        write_checkpoint(&dir, &sidecar(shard, 200, 30, 0.01)).unwrap();
    }
    let before = load_checkpoint(&dir, 0).unwrap().unwrap();
    let err = transform_checkpoints(&dir, 4, 1).unwrap_err();
    assert!(matches!(err, ServeError::BadRequest(_)), "{err:?}");
    assert!(err.to_string().contains("budget"), "{err}");
    // nothing was written: sidecar 0 is untouched and 1..4 still exist
    assert_eq!(load_checkpoint(&dir, 0).unwrap().unwrap(), before);
    assert!(load_checkpoint(&dir, 3).unwrap().is_some());
    // spreading the same ledger over 2 successors fits (0.6 each)
    transform_checkpoints(&dir, 4, 2).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reshard_grows_and_shrinks_under_concurrent_load_without_losing_decisions() {
    let dir = temp_dir("live");
    let service = DecisionService::start(
        Arc::new(StubModel),
        ServeConfig {
            reshard_hold: Duration::from_secs(30),
            ..config(4, &dir)
        },
    )
    .unwrap();
    assert_eq!(service.shards(), 4);

    let stop = Arc::new(AtomicBool::new(false));
    let issued = Arc::new(AtomicU64::new(0));
    let ok = Arc::new(AtomicU64::new(0));
    let drivers: Vec<_> = (0..2)
        .map(|t| {
            let service = service.clone();
            let stop = Arc::clone(&stop);
            let issued = Arc::clone(&issued);
            let ok = Arc::clone(&ok);
            std::thread::spawn(move || {
                let mut i = t * 1_000_000u64;
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    issued.fetch_add(1, Ordering::Relaxed);
                    service.decide(request(i)).unwrap();
                    ok.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // let the drivers build real guard state, then cut over twice
    while ok.load(Ordering::Relaxed) < 500 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let grow = service.reshard(8).unwrap();
    assert_eq!((grow.from, grow.to), (4, 8));
    assert_eq!(grow.pre_counts, grow.post_counts, "window conservation");
    assert_eq!(grow.pre_decisions, grow.post_decisions);
    assert_eq!(service.shards(), 8);

    let mid = ok.load(Ordering::Relaxed);
    while ok.load(Ordering::Relaxed) < mid + 500 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let shrink = service.reshard(3).unwrap();
    assert_eq!((shrink.from, shrink.to), (8, 3));
    assert_eq!(shrink.pre_counts, shrink.post_counts);
    assert_eq!(service.shards(), 3);
    // the drained epoch between the two cutovers is accounted for
    assert!(shrink.drained >= 500, "{shrink:?}");

    stop.store(true, Ordering::Relaxed);
    for d in drivers {
        d.join().expect("driver saw an error — a decision was lost");
    }
    let report = service.shutdown();
    assert_eq!(
        report.reshards, 2,
        "one lifetime report across both cutovers"
    );
    let served = report.decisions_served;
    assert_eq!(issued.load(Ordering::Relaxed), ok.load(Ordering::Relaxed));
    assert_eq!(served, ok.load(Ordering::Relaxed), "zero lost decisions");
    // lifetime decisions survived both transforms into the final sidecars
    let ck_total: u64 = (0..3)
        .map(|s| load_checkpoint(&dir, s).unwrap().unwrap().decisions)
        .sum();
    assert_eq!(ck_total, served);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn submits_past_the_hold_window_get_a_typed_retryable_refusal() {
    let dir = temp_dir("hold");
    // a reshard against a service whose guards/checkpoints are off fails
    // fast — but first, pin the gate semantics with a zero hold window by
    // racing a submit against a real (slow) cutover
    let service = DecisionService::start(
        Arc::new(StubModel),
        ServeConfig {
            reshard_hold: Duration::ZERO,
            ..config(2, &dir)
        },
    )
    .unwrap();
    for i in 0..100 {
        service.decide(request(i)).unwrap();
    }
    // run the cutover on another thread; with reshard_hold = 0 any submit that
    // lands mid-cutover must see Resharding, never a hang or a drop
    let svc = service.clone();
    let cutover = std::thread::spawn(move || svc.reshard(5).unwrap());
    let mut saw_refusal = false;
    for i in 0..10_000u64 {
        match service.submit(request(1_000 + i)) {
            Ok(h) => {
                h.wait(Duration::from_secs(5)).unwrap();
            }
            Err(ServeError::Resharding) => {
                saw_refusal = true;
                break;
            }
            Err(e) => panic!("only Resharding is acceptable mid-cutover: {e:?}"),
        }
    }
    let report = cutover.join().unwrap();
    assert_eq!(report.to, 5);
    assert!(
        saw_refusal,
        "a zero hold window during a cutover must refuse at least one submit"
    );
    // after the cutover the same caller succeeds on retry — the refusal
    // was transient back-pressure, not a lost request
    service.decide(request(77)).unwrap();
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reshard_without_checkpointing_is_a_typed_error() {
    let service = DecisionService::start(
        Arc::new(StubModel),
        ServeConfig {
            shards: 2,
            n_features: 1,
            guards: None,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    service.decide(request(1)).unwrap();
    let err = service.reshard(4).unwrap_err();
    assert!(matches!(err, ServeError::BadRequest(_)), "{err:?}");
    // the refusal must not have disturbed the running service
    service.decide(request(2)).unwrap();
    service.shutdown();
}

#[test]
fn over_budget_shrink_rolls_back_and_keeps_serving() {
    let dir = temp_dir("rollback");
    // fat ε releases: 4 shards spending 0.3 per release soon carry more
    // ledger ε than one successor's 1.0 budget can replay
    let mut cfg = config(4, &dir);
    cfg.guards = Some(GuardConfig {
        fairness_window: 500,
        min_samples_per_group: 20,
        dp_interval: 50,
        epsilon_per_release: 0.3,
        ..GuardConfig::default()
    });
    let service = DecisionService::start(Arc::new(StubModel), cfg).unwrap();
    // ~600 decisions → ≥ 12 releases → ≥ 3.6 ε in the combined ledger
    for i in 0..600 {
        service.decide(request(i)).unwrap();
    }
    let err = service.reshard(1).unwrap_err();
    assert!(err.to_string().contains("budget"), "{err}");
    // the refusal rolled back: still 4 shards, still serving, and the
    // sidecars still carry the full 4-shard state
    assert_eq!(service.shards(), 4);
    service.decide(request(9_999)).unwrap();
    let total: u64 = (0..4)
        .map(|s| load_checkpoint(&dir, s).unwrap().unwrap().decisions)
        .sum();
    assert_eq!(total, 600, "drained sidecars survive the refusal untouched");
    // a feasible target still works after the refusal
    let report = service.reshard(8).unwrap();
    assert_eq!(report.pre_counts, report.post_counts);
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reshard_control_command_works_over_fact_net() {
    let dir = temp_dir("wire");
    let sock = std::env::temp_dir().join(format!("fact-reshard-wire-{}.sock", std::process::id()));
    let service = DecisionService::start(Arc::new(StubModel), config(4, &dir)).unwrap();
    let handler = NetShardHandler::new(service.clone(), Duration::from_secs(5));
    let mut server = Server::bind(&sock, Arc::new(handler) as Arc<dyn ShardHandler>).unwrap();

    let client = RemoteShard::connect(&sock).unwrap();
    for i in 0..300u64 {
        let wire = fact_net::RequestWire {
            features: vec![0.4],
            group_b: i % 2 == 0,
            route_key: i,
            tenant: None,
        };
        let frame = client
            .send(
                fact_net::FrameKind::Request,
                fact_net::encode(&wire).unwrap(),
            )
            .unwrap()
            .wait(Duration::from_secs(5))
            .unwrap();
        let resp: fact_net::ResponseWire = fact_net::decode(&frame.payload).unwrap();
        resp.into_result().unwrap();
    }

    let ack = client
        .control("reshard 2", Duration::from_secs(30))
        .unwrap();
    let wire: fact_net::ControlAckWire = fact_net::decode(&ack.payload).unwrap();
    assert!(wire.ok, "{}", wire.info);
    assert!(wire.info.contains("resharded 4 -> 2"), "{}", wire.info);
    assert_eq!(service.shards(), 2);

    // the worker keeps serving after the cutover
    let wire = fact_net::RequestWire {
        features: vec![0.9],
        group_b: false,
        route_key: 9,
        tenant: None,
    };
    let frame = client
        .send(
            fact_net::FrameKind::Request,
            fact_net::encode(&wire).unwrap(),
        )
        .unwrap()
        .wait(Duration::from_secs(5))
        .unwrap();
    let resp: fact_net::ResponseWire = fact_net::decode(&frame.payload).unwrap();
    assert!(resp.into_result().unwrap().favorable);

    // a malformed count and a plain-host reshard are refusals, not panics
    let ack = client
        .control("reshard nope", Duration::from_secs(5))
        .unwrap();
    let wire: fact_net::ControlAckWire = fact_net::decode(&ack.payload).unwrap();
    assert!(!wire.ok);

    server.shutdown();
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Serve `n` requests over `client`, keys `base..base + n`; each must
/// succeed.
fn serve_over_wire(client: &RemoteShard, base: u64, n: u64) {
    for i in base..base + n {
        let wire = fact_net::RequestWire {
            features: vec![0.4],
            group_b: i % 2 == 0,
            route_key: i,
            tenant: None,
        };
        let frame = client
            .send(
                fact_net::FrameKind::Request,
                fact_net::encode(&wire).unwrap(),
            )
            .unwrap()
            .wait(Duration::from_secs(5))
            .unwrap();
        let resp: fact_net::ResponseWire = fact_net::decode(&frame.payload).unwrap();
        resp.into_result().unwrap();
    }
}

fn socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fact-reshard-{tag}-{}.sock", std::process::id()))
}

#[test]
fn checkpoint_ack_reports_lifetime_decisions_across_a_reshard() {
    let dir = temp_dir("ack");
    let service = DecisionService::start(Arc::new(StubModel), config(4, &dir)).unwrap();
    let handler = NetShardHandler::new(service.clone(), Duration::from_secs(5));
    let sock = socket("ack");
    let mut server = Server::bind(&sock, Arc::new(handler) as Arc<dyn ShardHandler>).unwrap();
    let client = RemoteShard::connect(&sock).unwrap();
    serve_over_wire(&client, 0, 300);

    let ack = client
        .control("reshard 2", Duration::from_secs(30))
        .unwrap();
    let wire: fact_net::ControlAckWire = fact_net::decode(&ack.payload).unwrap();
    assert!(wire.ok, "{}", wire.info);

    // the ack covers every decision the worker served, not only the ones
    // since the cutover
    let frame = client
        .send(fact_net::FrameKind::Checkpoint, Vec::new())
        .unwrap()
        .wait(Duration::from_secs(5))
        .unwrap();
    let ack: fact_net::CheckpointAckWire = fact_net::decode(&frame.payload).unwrap();
    assert_eq!(ack.shards, 2);
    assert!(ack.decisions >= 300, "decisions covered: {}", ack.decisions);

    server.shutdown();
    assert_eq!(service.shutdown().decisions_served, 300);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reshard_control_without_checkpointing_is_refused_and_serving_continues() {
    let dir = temp_dir("refuse");
    let service = DecisionService::start(
        Arc::new(StubModel),
        ServeConfig {
            checkpoint: None,
            ..config(2, &dir)
        },
    )
    .unwrap();
    let handler = NetShardHandler::new(service.clone(), Duration::from_secs(5));
    let sock = socket("refuse");
    let mut server = Server::bind(&sock, Arc::new(handler) as Arc<dyn ShardHandler>).unwrap();
    let client = RemoteShard::connect(&sock).unwrap();
    serve_over_wire(&client, 0, 50);

    let ack = client
        .control("reshard 4", Duration::from_secs(30))
        .unwrap();
    let wire: fact_net::ControlAckWire = fact_net::decode(&ack.payload).unwrap();
    assert!(!wire.ok, "{}", wire.info);
    assert!(wire.info.contains("checkpoint"), "{}", wire.info);

    // the refusal left the service alone: same shards, still serving
    assert_eq!(service.shards(), 2);
    serve_over_wire(&client, 50, 50);
    server.shutdown();
    let report = service.shutdown();
    assert_eq!(report.decisions_served, 100);
    assert_eq!(report.reshards, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cutover_racing_shutdown_and_submits_ends_every_submit_exactly_once() {
    // splitmix64: a seeded schedule without a dependency
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    for seed in 0..8u64 {
        let mut rng = seed;
        let dir = temp_dir(&format!("race-{seed}"));
        let service = DecisionService::start(
            Arc::new(StubModel),
            ServeConfig {
                // 0 ms on some seeds, so parked submits get refused
                reshard_hold: Duration::from_millis(next(&mut rng) % 3),
                ..config(4, &dir)
            },
        )
        .unwrap();
        let reshard_after = Duration::from_micros(next(&mut rng) % 2_000);
        let shutdown_after = Duration::from_micros(next(&mut rng) % 4_000);

        let ok = Arc::new(AtomicU64::new(0));
        let (done_tx, done_rx) = std::sync::mpsc::channel::<Option<String>>();
        let mut threads = Vec::new();
        for t in 0..2u64 {
            let (service, ok, done) = (service.clone(), Arc::clone(&ok), done_tx.clone());
            threads.push(std::thread::spawn(move || {
                for i in 0.. {
                    match service.submit(request((t << 32) | i)) {
                        Ok(h) => {
                            h.wait(Duration::from_secs(30))
                                .expect("an accepted submit is answered");
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServeError::Resharding) => {}
                        Err(ServeError::ShuttingDown) => break,
                        Err(e) => panic!("seed {seed}: submit ended in {e:?}"),
                    }
                }
                done.send(None).unwrap();
            }));
        }
        let (svc, done) = (service.clone(), done_tx.clone());
        threads.push(std::thread::spawn(move || {
            std::thread::sleep(reshard_after);
            match svc.reshard(8) {
                Ok(_) | Err(ServeError::ShuttingDown) => {}
                Err(e) => panic!("seed {seed}: reshard ended in {e:?}"),
            }
            done.send(None).unwrap();
        }));
        let (svc, done) = (service.clone(), done_tx);
        threads.push(std::thread::spawn(move || {
            std::thread::sleep(shutdown_after);
            done.send(Some(format!("{:?}", svc.shutdown()))).unwrap();
        }));

        let mut first = None;
        for _ in 0..threads.len() {
            match done_rx.recv_timeout(Duration::from_secs(60)) {
                Ok(report) => first = first.or(report),
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    panic!("seed {seed}: a thread hung at the cutover gate")
                }
                // a thread panicked; joining below surfaces its message
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        for t in threads {
            t.join().unwrap();
        }

        let report = service.shutdown();
        assert_eq!(
            first.as_deref(),
            Some(format!("{report:?}").as_str()),
            "seed {seed}: a second shutdown returns the same report"
        );
        assert_eq!(
            report.decisions_served,
            ok.load(Ordering::Relaxed),
            "seed {seed}: every Ok is a served decision and nothing else is"
        );
        let sidecars: u64 = (0..8)
            .filter_map(|s| load_checkpoint(&dir, s).unwrap())
            .map(|ck| ck.decisions)
            .sum();
        assert_eq!(
            sidecars, report.decisions_served,
            "seed {seed}: the sidecars account for every decision"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
