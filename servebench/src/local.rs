//! `fair-closed` and `flagged-pipelined`: the in-process
//! `DecisionService` driven by two load threads.

use std::collections::VecDeque;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use fact_serve::{
    AlertKind, DecisionHandle, DecisionService, InlineFeatures, ServeConfig, ServiceReport,
};

use crate::checks::{self, AlertCounts};
use crate::hist::quantile_us;
use crate::measure::{self, Timeline};
use crate::procfs::{self, ProcDelta, ProcSample};
use crate::report::{median, ratio, Outcome};
use crate::trace::{self, TimedModel, TimedSource, TimedStorage, Tracer};
use crate::workload::{
    request, score, serve_config, ClientOut, Control, MeanScorer, Workload, CLIENTS,
    PIPELINE_WINDOW, STOP, TRACED, WARMUP, WINDOW,
};
use crate::Opts;

/// Service set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 51;

/// Start the service: the plain program path, or (traced) with the timing
/// wrappers around the source, the scorer and the audit storage.
fn start(
    traced: Option<&Arc<Tracer>>,
    audit_path: &std::path::Path,
) -> Result<DecisionService, String> {
    let config = serve_config(audit_path);
    match traced {
        None => DecisionService::start_with_source(
            Arc::new(MeanScorer),
            config,
            Arc::new(InlineFeatures),
        ),
        Some(tracer) => {
            let storage = TimedStorage::open(audit_path, Arc::clone(tracer))
                .map_err(|e| format!("open audit storage: {e}"))?;
            DecisionService::start_with_audit_storage(
                Arc::new(TimedModel(Arc::clone(tracer))),
                config,
                Arc::new(TimedSource(Arc::clone(tracer))),
                Box::new(storage),
            )
        }
    }
    .map_err(|e| format!("start service: {e}"))
}

/// One load thread: keeps `window` submits in flight (1 = one `decide()`
/// at a time: submit, then wait with the default timeout) until the phase
/// turns to STOP, then drains.
fn client(
    svc: DecisionService,
    control: Arc<Control>,
    id: u64,
    (seed, fair, window, slo_ns): (u64, bool, usize, u64),
    mut out: ClientOut,
) -> ClientOut {
    let timeout = ServeConfig::default().default_timeout;
    let mut inflight: VecDeque<(u64, u64, u8, f64, DecisionHandle)> =
        VecDeque::with_capacity(window);
    let mut seq = 0u64;
    loop {
        while inflight.len() < window {
            let phase = control.phase();
            if phase == STOP {
                break;
            }
            let key = seq * CLIENTS as u64 + id;
            seq += 1;
            let req = request(seed, key, fair);
            let expected = score(&req.features);
            out.total.issued += 1;
            let t = control.now_ns();
            match svc.submit(req) {
                Ok(h) => inflight.push_back((key, t, phase, expected, h)),
                Err(e) => out.refused(control.interval(), e),
            }
        }
        let Some((key, t, phase, expected, h)) = inflight.pop_front() else {
            break;
        };
        let result = h.wait(timeout);
        let recv = control.now_ns();
        out.finish(
            phase,
            control.interval(),
            key,
            t,
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
    proc: ProcSample,
    served: u64,
    items: u64,
    batches: u64,
    /// Audit storage (appends, entries, bytes), traced runs only.
    storage: [u64; 3],
}

fn snap(svc: &DecisionService, tracer: &Tracer, pid: u32) -> Snap {
    let m = svc.metrics();
    let c = &tracer.storage;
    Snap {
        // a failed read leaves an empty sample: its deltas read as zero
        proc: procfs::sample(pid).unwrap_or_default(),
        served: m.served(),
        items: m.shards.iter().map(|s| s.batch_items).sum(),
        batches: m.shards.iter().map(|s| s.batches).sum(),
        storage: [
            c.appends.load(Relaxed),
            c.entries.load(Relaxed),
            c.bytes.load(Relaxed),
        ],
    }
}

fn proc_delta(tl: &Timeline<Snap>, intervals: &[usize]) -> ProcDelta {
    tl.fold(intervals, ProcDelta::default(), |mut acc, a, b| {
        acc.add(&ProcDelta::between(&a.proc, &b.proc));
        acc
    })
}

/// Run an in-process workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let w = opts.workload;
    let plan = measure::plan(opts.seconds, opts.trace);
    // the benchmark's own memory comes first, so peak RSS moves only with
    // the program
    let outs: Vec<ClientOut> = (0..CLIENTS)
        .map(|_| ClientOut::new(measure::slots(&plan)))
        .collect();
    let base = Instant::now();
    let tracer = Tracer::new(base);
    let traced = opts.trace.then_some(&tracer);
    let mut out = Outcome::default();

    let setups = if opts.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut earlier: Vec<ServiceReport> = Vec::new();
    let mut svc = None;
    for i in 0..setups {
        let t0 = Instant::now();
        let s = start(traced, &opts.audit_path(i))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if i + 1 < setups {
            earlier.push(s.shutdown());
        } else {
            svc = Some(s);
        }
    }
    let svc = svc.expect("at least one set-up");

    let control = Arc::new(Control::new(base));
    let window = match w {
        Workload::FlaggedPipelined => PIPELINE_WINDOW,
        _ => 1,
    };
    let params = (opts.seed, w.fair(), window, opts.slo_us * 1_000);
    let clients = outs
        .into_iter()
        .enumerate()
        .map(|(c, o)| {
            let (svc, control) = (svc.clone(), Arc::clone(&control));
            thread::Builder::new()
                .name(format!("sb-client-{c}"))
                .spawn(move || client(svc, control, c as u64, params, o))
                .map_err(|e| format!("spawn client: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;

    thread::sleep(WARMUP);
    let pid = std::process::id();
    let mut lag_max = vec![0u64; measure::slots(&plan)];
    let tl = measure::run(
        &control,
        plan,
        || snap(&svc, &tracer, pid),
        // spans on before the first traced submit, so every traced
        // request finds its batch
        || tracer.set_on(true),
        |i| {
            if control.phase() == TRACED {
                let m = svc.metrics();
                let flagged: u64 = m.shards.iter().map(|s| s.flagged).sum();
                let appended = tracer.storage.entries.load(Relaxed);
                // + 1: the sink's start marker
                let lag = (flagged + m.alerts + 1).saturating_sub(appended);
                lag_max[i] = lag_max[i].max(lag);
            }
        },
    );
    let peak_rss = procfs::peak_rss_mib(pid)?;

    let mut all = None::<ClientOut>;
    for c in clients {
        let o = c.join().map_err(|_| "client thread panicked".to_string())?;
        match &mut all {
            None => all = Some(o),
            Some(a) => a.merge(&o),
        }
    }
    let all = all.expect("at least one client");
    let report = svc.shutdown();
    let mut alerts = AlertCounts::default();
    let drained = svc.drain_alerts();
    for a in &drained {
        match AlertKind::of(&a.alert) {
            AlertKind::Fairness => alerts.fairness += 1,
            AlertKind::DpRelease => alerts.dp_release += 1,
            AlertKind::BudgetExhausted => alerts.budget_exhausted += 1,
            AlertKind::Drift => {}
        }
    }

    // ---- output checks
    out.check(checks::probabilities(&all.total));
    out.check(checks::reconcile(
        &all.total,
        report.decisions_served,
        report.shed,
        report.timed_out,
    ));
    if drained.len() as u64 != report.alerts_raised {
        out.failures.push(format!(
            "{} alerts drained but the report counts {}",
            drained.len(),
            report.alerts_raised
        ));
    }
    for (i, r) in earlier.iter().chain([&report]).enumerate() {
        out.check(checks::sink_accounting(
            r.audited,
            r.flagged,
            r.alerts_raised,
        ));
        match checks::audit_log(&opts.audit_path(i)) {
            Ok(log) => out.check(checks::audit_matches(&log, r.flagged, r.alerts_raised, 1)),
            Err(e) => out.failures.push(e),
        }
    }
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
    let delta = proc_delta(&tl, &kept);
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
    out.set(
        "cpu_us_per_decision",
        all.per_stretch(&kept, |g, t, _, _| {
            ratio(proc_delta(&tl, g).cpu_s * 1e6, t.ok as f64)
        }),
    );
    out.set("peak_rss_mb", peak_rss);
    out.set("setup_s", median(&setup_s));
    let tail = hist.tail().unwrap_or((0.0, 0.0));
    out.notes.push(format!(
        "{}: {} decisions in {:.2}s kept of {} intervals measured (steal ticks {:?}); \
         latency samples {}, p{} = {:.1} us; failed {}; flagged share {:.4}; \
         alerts fairness={} dp={} budget={}",
        w.name(),
        window_t.ok,
        secs,
        tl.measured(WINDOW),
        (1..tl.phase.len()).map(|i| tl.steal(i)).collect::<Vec<_>>(),
        hist.count(),
        tail.0,
        tail.1,
        window_t.failed(),
        flagged_frac,
        alerts.fairness,
        alerts.dp_release,
        alerts.budget_exhausted,
    ));

    // ---- per-layer
    let per = |cpu_s: f64| ratio(cpu_s * 1e6, decisions);
    let (shard_cpu, shard_cs) = delta.threads("fact-serve-");
    let items = tl.sum(&kept, |a, b| (b.items - a.items) as f64);
    let batches = tl.sum(&kept, |a, b| (b.batches - a.batches) as f64);
    let entries = tl.sum(&kept, |a, b| (b.storage[1] - a.storage[1]) as f64);
    out.set("service.batch_size.mean", ratio(items, batches));
    out.set("service.shard.cpu_us_per_decision", per(shard_cpu));
    out.set(
        "service.shard.wakeups_per_decision",
        ratio(shard_cs as f64, decisions),
    );
    out.set("guards.flagged_frac", flagged_frac);
    out.set("guards.alerts.fairness", alerts.fairness as f64);
    out.set("guards.alerts.dp_release", alerts.dp_release as f64);
    out.set(
        "guards.alerts.budget_exhausted",
        alerts.budget_exhausted as f64,
    );
    out.set("guards.epsilon_spent", report.epsilon_spent);
    out.set(
        "audit.writer.cpu_us_per_entry",
        ratio(delta.threads("fact-audit-sink").0 * 1e6, entries),
    );
    out.set(
        "loadgen.cpu_us_per_decision",
        per(delta.threads("sb-client-").0),
    );
    out.set("loadgen.latency_samples", hist.count() as f64);
    out.set("loadgen.latency_tail_pct", tail.0);
    out.set("loadgen.latency_tail_us", tail.1);

    if opts.trace {
        let kept_traced = tl.selected(TRACED);
        let in_kept = |t_ns: u64| tl.contains(&kept_traced, t_ns);
        let spans: Vec<_> = all
            .spans
            .iter()
            .filter(|s| kept_traced.contains(&s.interval))
            .copied()
            .collect();
        let [mut append, mut sync, mut head] = tracer.take_storage_times().map(|v| {
            v.into_iter()
                .filter(|s| in_kept(s.0))
                .map(|s| s.1)
                .collect::<Vec<_>>()
        });
        let d = |k: usize| tl.sum(&kept_traced, |a, b| (b.storage[k] - a.storage[k]) as f64);
        let (appends, entries, bytes) = (d(0), d(1), d(2));
        let traced_served = tl.sum(&kept_traced, |a, b| (b.served - a.served) as f64);
        let b = trace::breakdown(&spans, &tracer.take_batches());
        out.set("service.queue_wait_us.p50", b.queue_wait_p50);
        out.set("service.queue_wait_us.p99", b.queue_wait_p99);
        out.set("source.fetch_us.p50", b.fetch_p50);
        out.set("ml.predict_us.p50", b.predict_p50);
        out.set("ml.rows_per_call", b.rows_per_call);
        out.set("service.post_predict_us.p50", b.post_predict_p50);
        out.set("audit.entries_per_decision", ratio(entries, traced_served));
        out.set("audit.bytes_per_entry", ratio(bytes, entries));
        out.set("audit.entries_per_batch", ratio(entries, appends));
        out.set("audit.append_us.p50", quantile_us(&mut append, 0.5));
        out.set("audit.sync_us.p50", quantile_us(&mut sync, 0.5));
        out.set("audit.sync_us.p99", quantile_us(&mut sync, 0.99));
        out.set("audit.head_us.p50", quantile_us(&mut head, 0.5));
        let lag = kept_traced.iter().map(|&i| lag_max[i]).max().unwrap_or(0);
        out.set("audit.lag_entries.max", lag as f64);
        let (traced_t, _, _) = all.selected(&kept_traced);
        let traced_dps = measure::median_of_stretches(&kept_traced, |g| {
            all.selected(g).0.ok as f64 / tl.seconds(g)
        });
        out.set("trace.decisions_per_s_ratio", ratio(traced_dps, dps));
        out.set("trace.stage_coverage", b.coverage());
        out.check(checks::stage_coverage(b.coverage()));
        if b.linked != b.requests {
            out.failures.push(format!(
                "{} of {} traced requests have no batch span",
                b.requests - b.linked,
                b.requests
            ));
        }
        out.notes.push(format!(
            "traced: {} decisions ({:.0}/s vs {:.0}/s untraced); stages cover {:.1}% of the \
             {:.1} us mean (queue p50 {:.1}, fetch p50 {:.1}, predict p50 {:.1}, post p50 {:.1})",
            traced_t.ok,
            traced_dps,
            dps,
            b.coverage() * 100.0,
            b.mean_latency,
            b.queue_wait_p50,
            b.fetch_p50,
            b.predict_p50,
            b.post_predict_p50,
        ));
    }
    Ok(out)
}
