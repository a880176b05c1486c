//! Tracing from outside the program: timing wrappers around the public
//! traits the service calls back into, and the per-request stage
//! breakdown built from their spans.
//!
//! * [`TimedSource`] wraps `InlineFeatures` (`serve.source`): one span per
//!   micro-batch `fetch_batch`, carrying the batch's request ids.
//! * [`TimedModel`] wraps the scorer (`ml`): one span per
//!   `predict_proba`, joined to the fetch span that ran just before it on
//!   the same shard thread.
//! * [`TimedStorage`] wraps `FileStorage` (`serve.audit_sink`): append,
//!   fsync and head-write timings, and entry/byte counts.
//!
//! Spans are kept in memory and read out when the run ends. A switch
//! ([`Tracer::set_on`]) turns span recording on for the traced window
//! only; when off, each wrapper costs one atomic load.

use std::cell::RefCell;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fact_data::{Matrix, Result as DataResult};
use fact_ml::Classifier;
use fact_serve::{AuditStorage, FeatureSource, FileStorage, InlineFeatures};

use crate::hist::{mean_us, quantile_us};
use crate::workload::{MeanScorer, RequestSpan};

/// One micro-batch as the shard worker ran it.
#[derive(Debug, Clone)]
pub struct BatchSpan {
    /// Request ids (route keys) in the batch.
    pub keys: Vec<u64>,
    /// `fetch_batch` start and end (ns since the run's base instant).
    pub fetch: (u64, u64),
    /// `predict_proba` start and end.
    pub predict: (u64, u64),
}

/// Audit-storage calls as counted and timed by [`TimedStorage`].
#[derive(Debug, Default)]
pub struct StorageCounters {
    /// `append_log` calls (one per writer batch).
    pub appends: AtomicU64,
    /// Chained entries appended (lines).
    pub entries: AtomicU64,
    /// Bytes appended.
    pub bytes: AtomicU64,
}

/// The shared span store and on/off switch.
pub struct Tracer {
    base: Instant,
    on: AtomicBool,
    batches: Mutex<Vec<BatchSpan>>,
    /// Always counted, traced or not.
    pub storage: StorageCounters,
    /// (start, duration) of each timed storage call, ns.
    append: Mutex<Vec<(u64, u64)>>,
    sync: Mutex<Vec<(u64, u64)>>,
    head: Mutex<Vec<(u64, u64)>>,
}

thread_local! {
    /// The fetch half of the batch this shard thread is scoring.
    static PENDING_FETCH: RefCell<Option<(Vec<u64>, u64, u64)>> = const { RefCell::new(None) };
}

impl Tracer {
    /// A tracer measuring against `base`, initially off.
    pub fn new(base: Instant) -> Arc<Tracer> {
        Arc::new(Tracer {
            base,
            on: AtomicBool::new(false),
            batches: Mutex::new(Vec::new()),
            storage: StorageCounters::default(),
            append: Mutex::new(Vec::new()),
            sync: Mutex::new(Vec::new()),
            head: Mutex::new(Vec::new()),
        })
    }

    /// Start or stop recording spans.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Release);
    }

    fn is_on(&self) -> bool {
        self.on.load(Ordering::Acquire)
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Take every batch span recorded so far.
    pub fn take_batches(&self) -> Vec<BatchSpan> {
        std::mem::take(&mut *self.batches.lock().expect("batch spans lock"))
    }

    /// Take the (append, fsync, head write) spans recorded so far, each
    /// as (start, duration) in ns.
    pub fn take_storage_times(&self) -> [Vec<(u64, u64)>; 3] {
        let take = |m: &Mutex<Vec<(u64, u64)>>| {
            std::mem::take(&mut *m.lock().expect("storage spans lock"))
        };
        [take(&self.append), take(&self.sync), take(&self.head)]
    }

    fn time<T>(&self, store: &Mutex<Vec<(u64, u64)>>, f: impl FnOnce() -> T) -> T {
        if !self.is_on() {
            return f();
        }
        let t0 = self.now_ns();
        let out = f();
        let span = (t0, self.now_ns() - t0);
        store.lock().expect("storage spans lock").push(span);
        out
    }
}

/// `InlineFeatures`, timed.
pub struct TimedSource(pub Arc<Tracer>);

impl FeatureSource for TimedSource {
    fn fetch_batch(&self, keys: &[u64], inline: &[Vec<f64>]) -> DataResult<Matrix> {
        if !self.0.is_on() {
            return InlineFeatures.fetch_batch(keys, inline);
        }
        let t0 = self.0.now_ns();
        let out = InlineFeatures.fetch_batch(keys, inline);
        let t1 = self.0.now_ns();
        PENDING_FETCH.with(|p| *p.borrow_mut() = Some((keys.to_vec(), t0, t1)));
        out
    }
}

/// The mean scorer, timed.
pub struct TimedModel(pub Arc<Tracer>);

impl Classifier for TimedModel {
    fn predict_proba(&self, x: &Matrix) -> DataResult<Vec<f64>> {
        let fetched = PENDING_FETCH.with(|p| p.borrow_mut().take());
        let Some((keys, f0, f1)) = fetched.filter(|_| self.0.is_on()) else {
            return MeanScorer.predict_proba(x);
        };
        let t0 = self.0.now_ns();
        let out = MeanScorer.predict_proba(x);
        let t1 = self.0.now_ns();
        self.0
            .batches
            .lock()
            .expect("batch spans lock")
            .push(BatchSpan {
                keys,
                fetch: (f0, f1),
                predict: (t0, t1),
            });
        out
    }
}

/// `FileStorage`, counted and timed.
pub struct TimedStorage {
    inner: FileStorage,
    tracer: Arc<Tracer>,
}

impl TimedStorage {
    /// Wrap file storage opened at `path`.
    pub fn open(path: &std::path::Path, tracer: Arc<Tracer>) -> io::Result<TimedStorage> {
        Ok(TimedStorage {
            inner: FileStorage::open(path)?,
            tracer,
        })
    }
}

impl AuditStorage for TimedStorage {
    fn list_segments(&mut self) -> io::Result<Vec<u64>> {
        self.inner.list_segments()
    }
    fn read_segment(&mut self, segment: u64) -> io::Result<Vec<u8>> {
        self.inner.read_segment(segment)
    }
    fn open_segment(&mut self, segment: u64) -> io::Result<()> {
        self.inner.open_segment(segment)
    }
    fn append_log(&mut self, buf: &[u8]) -> io::Result<()> {
        let c = &self.tracer.storage;
        c.appends.fetch_add(1, Ordering::Relaxed);
        c.entries.fetch_add(
            buf.iter().filter(|&&b| b == b'\n').count() as u64,
            Ordering::Relaxed,
        );
        c.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        let tracer = Arc::clone(&self.tracer);
        tracer.time(&tracer.append, || self.inner.append_log(buf))
    }
    fn truncate_segment(&mut self, segment: u64, len: u64) -> io::Result<()> {
        self.inner.truncate_segment(segment, len)
    }
    fn sync_log(&mut self) -> io::Result<()> {
        let tracer = Arc::clone(&self.tracer);
        tracer.time(&tracer.sync, || self.inner.sync_log())
    }
    fn read_head(&mut self) -> io::Result<Option<Vec<u8>>> {
        self.inner.read_head()
    }
    fn write_head(&mut self, buf: &[u8]) -> io::Result<()> {
        let tracer = Arc::clone(&self.tracer);
        tracer.time(&tracer.head, || self.inner.write_head(buf))
    }
    fn list_archives(&mut self) -> io::Result<Vec<u64>> {
        self.inner.list_archives()
    }
    fn read_archive(&mut self, segment: u64) -> io::Result<Vec<u8>> {
        self.inner.read_archive(segment)
    }
    fn write_archive(&mut self, segment: u64, buf: &[u8]) -> io::Result<()> {
        self.inner.write_archive(segment, buf)
    }
    fn remove_segment_file(&mut self, segment: u64) -> io::Result<()> {
        self.inner.remove_segment_file(segment)
    }
    fn read_manifest(&mut self) -> io::Result<Option<Vec<u8>>> {
        self.inner.read_manifest()
    }
    fn write_manifest(&mut self, buf: &[u8]) -> io::Result<()> {
        self.inner.write_manifest(buf)
    }
    fn archive_handle(&self) -> Option<Box<dyn AuditStorage>> {
        self.inner.archive_handle()
    }
}

/// The per-request stage breakdown of the traced window.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    /// Traced Ok requests.
    pub requests: usize,
    /// Of those, requests whose batch span was found.
    pub linked: usize,
    /// Submit → `fetch_batch` start (queue hand-off plus batch linger), µs.
    pub queue_wait_p50: f64,
    /// Its 99th percentile, µs.
    pub queue_wait_p99: f64,
    /// `fetch_batch` duration per batch, median µs.
    pub fetch_p50: f64,
    /// `predict_proba` duration per batch, median µs.
    pub predict_p50: f64,
    /// Mean rows per `predict_proba` call.
    pub rows_per_call: f64,
    /// Predict end → decision at the client (guards, audit enqueue,
    /// metrics, reply), median µs.
    pub post_predict_p50: f64,
    /// Mean submit → receipt over linked requests, µs.
    pub mean_latency: f64,
    /// Sum of the four stage means over linked requests, µs.
    pub stage_sum: f64,
}

impl Breakdown {
    /// Share of the mean latency the stage spans account for.
    pub fn coverage(&self) -> f64 {
        if self.mean_latency > 0.0 {
            self.stage_sum / self.mean_latency
        } else {
            0.0
        }
    }
}

/// Join request spans to the batch spans that served them. Per-batch
/// figures cover the batches that served at least one of `requests`.
pub fn breakdown(requests: &[RequestSpan], batches: &[BatchSpan]) -> Breakdown {
    let mut batch_of = std::collections::HashMap::with_capacity(requests.len());
    for (i, b) in batches.iter().enumerate() {
        for &k in &b.keys {
            batch_of.insert(k, i);
        }
    }
    let (mut queue, mut fetch, mut predict, mut post, mut total) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut used = vec![false; batches.len()];
    for r in requests {
        let Some(&i) = batch_of.get(&r.key) else {
            continue;
        };
        let b = &batches[i];
        used[i] = true;
        queue.push(b.fetch.0.saturating_sub(r.submit_ns));
        fetch.push(b.fetch.1 - b.fetch.0);
        predict.push(b.predict.1 - b.predict.0);
        post.push(r.recv_ns.saturating_sub(b.predict.1));
        total.push(r.recv_ns.saturating_sub(r.submit_ns));
    }
    let stage_sum = mean_us(&queue) + mean_us(&fetch) + mean_us(&predict) + mean_us(&post);
    let served: Vec<&BatchSpan> = batches
        .iter()
        .zip(&used)
        .filter(|(_, &u)| u)
        .map(|(b, _)| b)
        .collect();
    let mut batch_fetch: Vec<u64> = served.iter().map(|b| b.fetch.1 - b.fetch.0).collect();
    let mut batch_predict: Vec<u64> = served.iter().map(|b| b.predict.1 - b.predict.0).collect();
    let rows: usize = served.iter().map(|b| b.keys.len()).sum();
    Breakdown {
        requests: requests.len(),
        linked: total.len(),
        queue_wait_p50: quantile_us(&mut queue, 0.5),
        queue_wait_p99: quantile_us(&mut queue, 0.99),
        fetch_p50: quantile_us(&mut batch_fetch, 0.5),
        predict_p50: quantile_us(&mut batch_predict, 0.5),
        rows_per_call: if served.is_empty() {
            0.0
        } else {
            rows as f64 / served.len() as f64
        },
        post_predict_p50: quantile_us(&mut post, 0.5),
        mean_latency: mean_us(&total),
        stage_sum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_cover_a_well_linked_request() {
        let reqs = [RequestSpan {
            key: 9,
            submit_ns: 1_000,
            recv_ns: 11_000,
            interval: 1,
        }];
        let batches = [BatchSpan {
            keys: vec![9, 10],
            fetch: (4_000, 5_000),
            predict: (5_000, 7_000),
        }];
        let b = breakdown(&reqs, &batches);
        assert_eq!(b.linked, 1);
        assert!((b.queue_wait_p50 - 3.0).abs() < 1e-9);
        assert!((b.post_predict_p50 - 4.0).abs() < 1e-9);
        assert!((b.coverage() - 1.0).abs() < 1e-9);
        assert!((b.rows_per_call - 2.0).abs() < 1e-9);
    }

    #[test]
    fn unlinked_requests_are_not_counted_as_covered() {
        let reqs = [RequestSpan {
            key: 1,
            submit_ns: 0,
            recv_ns: 10,
            interval: 1,
        }];
        let b = breakdown(&reqs, &[]);
        assert_eq!(b.linked, 0);
        assert_eq!(b.coverage(), 0.0);
    }
}
