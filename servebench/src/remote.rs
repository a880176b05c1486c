//! `remote-open`: a spawned release `fact-shardd` on a Unix socket behind
//! a front-end `DecisionService` with one `ShardSlot::Remote` slot, fed
//! open loop at a fixed rate.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use fact_net::RemoteShard;
use fact_serve::{DecisionHandle, DecisionService, RemoteShardReport, ServeConfig, ShardSlot};

use crate::checks::{self, AlertCounts, DrainLine};
use crate::hist::Histogram;
use crate::measure;
use crate::procfs::{self, ProcDelta, ProcSample};
use crate::report::{median, ratio, Outcome};
use crate::workload::{
    request, score, ClientOut, Control, MeanScorer, N_FEATURES, SHARDD_DP_INTERVAL, STOP, TRACED,
    WARMUP, WINDOW,
};
use crate::Opts;

/// Worker spawns per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;
/// How long a worker may take to come up or to drain.
const WORKER_DEADLINE: Duration = Duration::from_secs(30);
/// `fact-shardd --checkpoint-every`. Each checkpoint stalls its shard
/// thread for an fsync, a rename and a directory fsync, and every reply
/// queued behind it waits. At `fact-shardd`'s default of 500 the stalls
/// sat right at p99; at this cadence they stay beyond it, and the p99.9
/// tail (`loadgen.latency_tail_us`) prices them.
const SHARDD_CHECKPOINT_EVERY: u64 = 5_000;
/// ε per DP release (`GuardConfig::default().epsilon_per_release`).
const EPSILON_PER_RELEASE: f64 = 0.01;

/// A running `fact-shardd`. Dropping it kills the process if it has not
/// been stopped.
struct Worker {
    child: Option<Child>,
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
    socket: PathBuf,
}

impl Worker {
    /// Spawn the worker in `dir` (socket, checkpoint sidecars, audit log)
    /// and wait until it listens. A second spawn in the same `dir` restarts
    /// from the first one's checkpoints and continues its audit chain.
    fn spawn(shardd: &Path, dir: &Path) -> Result<Worker, String> {
        let socket = dir.join("w.sock");
        let mut child = Command::new(shardd)
            .arg("--socket")
            .arg(&socket)
            .arg("--checkpoint-dir")
            .arg(dir.join("checkpoints"))
            .arg("--audit")
            .arg(dir.join("audit.jsonl"))
            .args(["--shards", "2"])
            .args(["--n-features", &N_FEATURES.to_string()])
            .args(["--dp-interval", &SHARDD_DP_INTERVAL.to_string()])
            // the in-process defaults (`GuardConfig`, `ServeConfig`), where
            // fact-shardd's own defaults differ
            .args(["--fairness-window", "2000"])
            .args(["--queue-cap", "256"])
            .args(["--checkpoint-every", &SHARDD_CHECKPOINT_EVERY.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", shardd.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, lines) = mpsc::channel();
        let reader = thread::Builder::new()
            .name("sb-shardd-out".into())
            .spawn(move || {
                for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                    let _ = tx.send(line);
                }
            })
            .map_err(|e| format!("spawn stdout reader: {e}"))?;
        let mut worker = Worker {
            child: Some(child),
            lines,
            reader: Some(reader),
            socket,
        };
        // the banner naming the shard count follows every bind
        let deadline = Instant::now() + WORKER_DEADLINE;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match worker.lines.recv_timeout(left) {
                Ok(line) if line.contains("shard(s) (") => return Ok(worker),
                Ok(_) => {}
                Err(RecvTimeoutError::Timeout) => return Err("fact-shardd never came up".into()),
                Err(RecvTimeoutError::Disconnected) => {
                    let status = worker.child.as_mut().and_then(|c| c.wait().ok());
                    return Err(format!("fact-shardd exited during start-up: {status:?}"));
                }
            }
        }
    }

    /// The worker's pid.
    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Ask the worker to shut down over the control channel, wait for it
    /// to drain and exit, and return its final `drained;` line.
    fn stop(mut self) -> Result<DrainLine, String> {
        let ctl = RemoteShard::connect(self.socket.clone())
            .map_err(|e| format!("connect control: {e}"))?;
        ctl.control("shutdown", Duration::from_secs(5))
            .map_err(|e| format!("shutdown control: {e}"))?;
        drop(ctl);
        let mut child = self.child.take().expect("worker not yet stopped");
        let deadline = Instant::now() + WORKER_DEADLINE;
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(5)),
                Ok(None) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("fact-shardd did not exit after shutdown".into());
                }
                Err(e) => return Err(format!("wait for fact-shardd: {e}")),
            }
        };
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
        if !status.success() {
            return Err(format!("fact-shardd exited with {status}"));
        }
        let drain = self
            .lines
            .try_iter()
            .find(|l| l.starts_with("fact-shardd: drained;"))
            .ok_or("fact-shardd printed no drain line")?;
        checks::parse_drain_line(&drain)
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

/// The front end: one remote slot, otherwise the default configuration.
fn front_end(socket: &Path) -> Result<DecisionService, String> {
    DecisionService::start(
        Arc::new(MeanScorer),
        ServeConfig {
            shards: 1,
            n_features: N_FEATURES,
            topology: Some(vec![ShardSlot::Remote(socket.to_path_buf())]),
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("start front end: {e}"))
}

type InFlight = (u64, u64, u8, f64, DecisionHandle);

/// The open-loop generator: request `i` is due at `start + i / rate`,
/// sent when due (or at once, when late), whatever came back. Records how
/// late each untraced-window send was in `lag`.
fn generator(
    svc: DecisionService,
    control: Arc<Control>,
    tx: mpsc::Sender<InFlight>,
    (seed, rate): (u64, f64),
    (mut out, mut lag): (ClientOut, Histogram),
) -> (ClientOut, Histogram) {
    let period_ns = 1e9 / rate;
    let start = control.now_ns();
    for i in 0u64.. {
        let req = request(seed, i, true);
        let expected = score(&req.features);
        let due = start + (i as f64 * period_ns) as u64;
        let now = control.now_ns();
        if due > now {
            thread::sleep(Duration::from_nanos(due - now));
        }
        let phase = control.phase();
        if phase == STOP {
            break;
        }
        if phase == WINDOW {
            lag.record(control.now_ns().saturating_sub(due));
        }
        out.total.issued += 1;
        match svc.submit(req) {
            Ok(h) => {
                if tx.send((i, due, phase, expected, h)).is_err() {
                    break;
                }
            }
            Err(e) => out.refused(control.interval(), e),
        }
    }
    (out, lag)
}

/// The collector: waits for replies in send order and times each from
/// its due time.
fn collector(
    rx: mpsc::Receiver<InFlight>,
    control: Arc<Control>,
    slo_ns: u64,
    mut out: ClientOut,
) -> ClientOut {
    let timeout = ServeConfig::default().default_timeout;
    for (key, due, phase, expected, h) in rx {
        let result = h.wait(timeout);
        let recv = control.now_ns();
        out.finish(
            phase,
            control.interval(),
            key,
            due,
            recv,
            expected,
            &result,
            slo_ns,
        );
    }
    out
}

/// What the main thread samples at every interval boundary.
struct Snap {
    bench: ProcSample,
    worker: ProcSample,
    net: RemoteShardReport,
}

/// Run `remote-open`.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let w = opts.workload;
    let plan = measure::plan(opts.seconds, opts.trace);
    let slots = measure::slots(&plan);
    let (gen_out, col_out, lag) = (
        ClientOut::new(slots),
        ClientOut::new(slots),
        Histogram::new(),
    );
    let shardd = opts
        .shardd
        .as_deref()
        .ok_or("remote-open needs --shardd <path to fact-shardd>")?;
    let dir = opts.run_dir.join("worker");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let base = Instant::now();
    let mut out = Outcome::default();

    let setups = if opts.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut live = None;
    for i in 0..setups {
        let t0 = Instant::now();
        let worker = Worker::spawn(shardd, &dir)?;
        let svc = front_end(&worker.socket)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if i + 1 < setups {
            let report = svc.shutdown();
            let drain = worker.stop()?;
            if drain.served != 0 || report.decisions_served != 0 {
                out.failures.push(format!(
                    "an idle worker served {} (front end {})",
                    drain.served, report.decisions_served
                ));
            }
        } else {
            live = Some((worker, svc));
        }
    }
    let (worker, svc) = live.expect("at least one set-up");
    let wpid = worker.pid();

    let control = Arc::new(Control::new(base));
    let slo_ns = opts.slo_us * 1_000;
    let (tx, rx) = mpsc::channel();
    let gen = {
        let (svc, control) = (svc.clone(), Arc::clone(&control));
        let params = (opts.seed, opts.rate);
        thread::Builder::new()
            .name("sb-gen".into())
            .spawn(move || generator(svc, control, tx, params, (gen_out, lag)))
            .map_err(|e| format!("spawn generator: {e}"))?
    };
    let col = {
        let control = Arc::clone(&control);
        thread::Builder::new()
            .name("sb-collect".into())
            .spawn(move || collector(rx, control, slo_ns, col_out))
            .map_err(|e| format!("spawn collector: {e}"))?
    };

    thread::sleep(WARMUP);
    let pid = std::process::id();
    let tl = measure::run(
        &control,
        plan,
        || Snap {
            // a failed read leaves an empty sample: its deltas read as zero
            bench: procfs::sample(pid).unwrap_or_default(),
            worker: procfs::sample(wpid).unwrap_or_default(),
            net: svc.remote_stats().remove(0),
        },
        // nothing of the worker can be wrapped from outside: the traced
        // half re-measures the same path, so the overhead ratio reads ~1
        || {},
        |_| {},
    );
    let peak_rss = procfs::peak_rss_mib(pid)? + procfs::peak_rss_mib(wpid)?;

    let (mut all, lag) = gen.join().map_err(|_| "generator panicked".to_string())?;
    let collected = col.join().map_err(|_| "collector panicked".to_string())?;
    all.merge(&collected);
    let report = svc.shutdown();
    let drain = worker.stop()?;

    // ---- output checks
    out.check(checks::probabilities(&all.total));
    out.check(checks::reconcile(
        &all.total,
        report.decisions_served + all.total.timeout,
        report.shed,
        report.timed_out,
    ));
    out.check(checks::drain_matches(&drain, &all.total));
    let log = checks::audit_log(&dir.join("audit.jsonl")).unwrap_or_else(|e| {
        out.failures.push(e);
        Default::default()
    });
    // every DP release is forwarded (the 1000-decision interval exceeds
    // the 500-decision debounce) and audited, and the restored ε ledger
    // makes the last worker's spend the total over every restart
    let releases = (drain.eps_spent / EPSILON_PER_RELEASE).round() as u64;
    out.check(checks::audit_matches(
        &log,
        all.total.flagged,
        releases + log.fairness + log.budget_exhausted + log.other_alerts,
        setups as u64,
    ));
    if log.dp_release != releases {
        out.failures.push(format!(
            "audit log holds {} DP releases, the worker spent ε for {releases}",
            log.dp_release
        ));
    }
    let alerts = AlertCounts {
        fairness: log.fairness,
        dp_release: log.dp_release,
        budget_exhausted: log.budget_exhausted,
    };
    let kept = tl.selected(WINDOW);
    let (window_t, _, hist) = all.selected(&kept);
    let flagged_frac = ratio(window_t.flagged as f64, window_t.ok as f64);
    out.check(checks::regime(w, flagged_frac, &alerts));
    let attempted = window_t.ok + window_t.failed();
    if attempted == 0 {
        out.failures
            .push("no request completed in the timed window".into());
    }

    // ---- end-to-end
    let decisions = window_t.ok as f64;
    let secs = tl.seconds(&kept);
    let (bench, shardd_d) = tl.fold(
        &kept,
        (ProcDelta::default(), ProcDelta::default()),
        |(mut b, mut s), x, y| {
            b.add(&ProcDelta::between(&x.bench, &y.bench));
            s.add(&ProcDelta::between(&x.worker, &y.worker));
            (b, s)
        },
    );
    let dps = all.per_stretch(&kept, |g, t, _, _| t.ok as f64 / tl.seconds(g));
    out.attempted = attempted;
    out.failed = window_t.failed();
    out.set("decisions_per_s", dps);
    out.set(
        "latency_p50_us",
        all.per_stretch(&kept, |_, _, _, h| h.quantile_us(0.50)),
    );
    out.set(
        "latency_p90_us",
        all.per_stretch(&kept, |_, _, _, h| h.quantile_us(0.90)),
    );
    out.set(
        "latency_p99_us",
        all.per_stretch(&kept, |_, _, _, h| h.quantile_us(0.99)),
    );
    out.set(
        "within_slo_frac",
        all.per_stretch(&kept, |_, t, w, _| {
            ratio(w as f64, (t.ok + t.failed()) as f64)
        }),
    );
    // both processes' CPU
    let cpu_s = |g: &[usize]| {
        tl.sum(g, |x, y| {
            ProcDelta::between(&x.bench, &y.bench).cpu_s
                + ProcDelta::between(&x.worker, &y.worker).cpu_s
        })
    };
    out.set(
        "cpu_us_per_decision",
        all.per_stretch(&kept, |g, t, _, _| ratio(cpu_s(g) * 1e6, t.ok as f64)),
    );
    out.set("peak_rss_mb", peak_rss);
    out.set("setup_s", median(&setup_s));
    let tail = hist.tail().unwrap_or((0.0, 0.0));
    out.notes.push(format!(
        "{}: {} decisions in {:.2}s kept of {} intervals measured (steal ticks {:?}) at {} req/s \
         offered; latency samples {}, p{} = {:.1} us; failed {}; send lag p99 {:.1} us; worker \
         served {} with {} checkpoints",
        w.name(),
        window_t.ok,
        secs,
        tl.measured(WINDOW),
        (1..tl.phase.len()).map(|i| tl.steal(i)).collect::<Vec<_>>(),
        opts.rate,
        hist.count(),
        tail.0,
        tail.1,
        window_t.failed(),
        lag.quantile_us(0.99),
        drain.served,
        drain.checkpoints,
    ));

    // ---- per-layer
    let per = |cpu_s: f64| ratio(cpu_s * 1e6, decisions);
    let net =
        |f: fn(&RemoteShardReport) -> u64| tl.sum(&kept, |a, b| (f(&b.net) - f(&a.net)) as f64);
    // the client reports a running mean: weight it by decisions served
    let rtt_total = tl.sum(&kept, |a, b| {
        b.net.rtt_mean_micros * b.net.served as f64 - a.net.rtt_mean_micros * a.net.served as f64
    });
    out.set("net.rtt_us.mean", ratio(rtt_total, net(|r| r.served)));
    out.set("net.requests", net(|r| r.requests));
    out.set("net.reconnects", net(|r| r.reconnects));
    out.set("net.errors", net(|r| r.errors));
    out.set(
        "net.reader.cpu_us_per_decision",
        per(bench.threads("fact-net-reader").0),
    );
    out.set("shardd.cpu_us_per_decision", per(shardd_d.cpu_s));
    out.set(
        "shardd.conn.cpu_us_per_decision",
        per(shardd_d.threads("fact-net-conn").0),
    );
    out.set(
        "shardd.writer.cpu_us_per_decision",
        per(shardd_d.threads("fact-net-writer").0),
    );
    out.set(
        "shardd.shard.cpu_us_per_decision",
        per(shardd_d.threads("fact-serve-").0),
    );
    out.set(
        "shardd.wakeups_per_decision",
        ratio(shardd_d.wakeups() as f64, decisions),
    );
    out.set(
        "shardd.io_bytes_per_decision",
        ratio(shardd_d.io_bytes as f64, decisions),
    );
    out.set(
        "checkpoint.writes_per_1k_decisions",
        ratio(drain.checkpoints as f64 * 1000.0, drain.served as f64),
    );
    // the worker's log is read after it drains: per-entry figures cover its
    // whole life, the writer's CPU the kept intervals
    let entries_per_decision = ratio(log.entries as f64, drain.served as f64);
    out.set("audit.entries_per_decision", entries_per_decision);
    out.set(
        "audit.bytes_per_entry",
        ratio(log.bytes as f64, log.entries as f64),
    );
    out.set(
        "audit.writer.cpu_us_per_entry",
        ratio(
            shardd_d.threads("fact-audit-sink").0 * 1e6,
            entries_per_decision * decisions,
        ),
    );
    out.set("guards.flagged_frac", flagged_frac);
    out.set("guards.alerts.fairness", alerts.fairness as f64);
    out.set("guards.alerts.dp_release", alerts.dp_release as f64);
    out.set(
        "guards.alerts.budget_exhausted",
        alerts.budget_exhausted as f64,
    );
    out.set("guards.epsilon_spent", drain.eps_spent);
    out.set("loadgen.lag_p99_us", lag.quantile_us(0.99));
    out.set(
        "loadgen.cpu_us_per_decision",
        per(bench.threads("sb-gen").0 + bench.threads("sb-collect").0),
    );
    out.set("loadgen.latency_samples", hist.count() as f64);
    out.set("loadgen.latency_tail_pct", tail.0);
    out.set("loadgen.latency_tail_us", tail.1);
    if opts.trace {
        let kept_traced = tl.selected(TRACED);
        let traced_dps = measure::median_of_stretches(&kept_traced, |g| {
            all.selected(g).0.ok as f64 / tl.seconds(g)
        });
        out.set("trace.decisions_per_s_ratio", ratio(traced_dps, dps));
    }
    Ok(out)
}
