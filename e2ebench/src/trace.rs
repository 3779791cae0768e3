//! The traced run's instruments, all on the benchmark's side of the public
//! API: an in-memory span recorder, a delegating [`CollectiveModel`] that
//! times session calls, and a [`TraceSink`] that keeps flush traces.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hdp_osr_core::{
    AttemptError, ClassifyOutcome, CollectiveModel, CollectiveSession, DegradeReason, FlushTrace,
    HdpOsr, ModelCapabilities, SnapshotStore, SweepTrace, TraceRecord, TraceSink,
};
use osr_dataset::protocol::TrainSet;
use rand::rngs::StdRng;

/// Marks an absent parent or request id.
pub const NONE: u64 = u64::MAX;

/// One timed interval. Times are nanoseconds since the run's origin.
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u64,
    pub request: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// The run's clock, and in a traced run the span store.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    next_id: AtomicU64,
    /// Span id of the `dispatch` call in progress; session spans hang off it.
    current_dispatch: AtomicU64,
    /// Fixed-size chunks, so that recording never copies earlier spans.
    spans: Mutex<Vec<Vec<Span>>>,
}

const CHUNK: usize = 1 << 16;

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            next_id: AtomicU64::new(0),
            current_dispatch: AtomicU64::new(NONE),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn new_id(&self) -> u64 {
        if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            NONE
        }
    }

    pub fn set_dispatch(&self, id: u64) {
        self.current_dispatch.store(id, Ordering::Relaxed);
    }

    /// Record a span under a fresh id; returns the id.
    pub fn span(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u64,
        request: u64,
    ) -> u64 {
        let id = self.new_id();
        self.span_with_id(id, name, start_ns, end_ns, parent, request);
        id
    }

    pub fn span_with_id(
        &self,
        id: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u64,
        request: u64,
    ) {
        if self.enabled {
            let span = Span {
                id,
                name,
                start_ns,
                end_ns,
                parent,
                request,
            };
            let mut chunks = self
                .spans
                .lock()
                .expect("span store lock is never poisoned");
            match chunks.last_mut() {
                Some(chunk) if chunk.len() < CHUNK => chunk.push(span),
                _ => {
                    let mut chunk = Vec::with_capacity(CHUNK);
                    chunk.push(span);
                    chunks.push(chunk);
                }
            }
        }
    }

    pub fn take_spans(&self) -> Vec<Span> {
        let chunks = std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span store lock is never poisoned"),
        );
        chunks.into_iter().flatten().collect()
    }
}

/// Write spans as tab-separated lines, one per span, ordered by id.
pub fn write_spans(path: &Path, spans: &mut [Span]) -> std::io::Result<()> {
    spans.sort_by_key(|s| s.id);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
    let opt = |v: u64| {
        if v == NONE {
            "-".to_string()
        } else {
            v.to_string()
        }
    };
    for s in spans.iter() {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent),
            opt(s.request)
        )?;
    }
    out.flush()
}

/// A CD-OSR model that times every session call it forwards. It does not
/// override `classify_collective`, so the server drives it through the same
/// open → sweep → finish path as the bare model.
pub struct TracedModel {
    inner: HdpOsr,
    tracer: Arc<Tracer>,
}

impl TracedModel {
    pub fn new(inner: &HdpOsr, tracer: Arc<Tracer>) -> Self {
        Self {
            inner: inner.clone(),
            tracer,
        }
    }
}

impl CollectiveModel for TracedModel {
    fn method(&self) -> &'static str {
        self.inner.method()
    }

    fn dim(&self) -> usize {
        CollectiveModel::dim(&self.inner)
    }

    fn capabilities(&self) -> ModelCapabilities {
        self.inner.capabilities()
    }

    fn fit(&mut self, train: &TrainSet) -> hdp_osr_core::Result<()> {
        CollectiveModel::fit(&mut self.inner, train)
    }

    fn warm_session<'s>(
        &'s self,
        batch: &[Vec<f64>],
    ) -> Result<Box<dyn CollectiveSession + 's>, AttemptError> {
        let parent = self.tracer.current_dispatch.load(Ordering::Relaxed);
        let start = self.tracer.now_ns();
        let inner = self.inner.warm_session(batch);
        self.tracer
            .span("collective.open", start, self.tracer.now_ns(), parent, NONE);
        Ok(Box::new(TracedSession {
            inner: inner?,
            tracer: &self.tracer,
            parent,
        }))
    }

    fn classify_frozen(
        &self,
        batch: &[Vec<f64>],
        reason: DegradeReason,
        attempts: u32,
    ) -> Option<ClassifyOutcome> {
        self.inner.classify_frozen(batch, reason, attempts)
    }

    fn classify_from_snapshot(
        &self,
        store: &SnapshotStore,
        batch: &[Vec<f64>],
        reason: DegradeReason,
        attempts: u32,
    ) -> Option<ClassifyOutcome> {
        self.inner
            .classify_from_snapshot(store, batch, reason, attempts)
    }
}

struct TracedSession<'s> {
    inner: Box<dyn CollectiveSession + 's>,
    tracer: &'s Tracer,
    parent: u64,
}

impl CollectiveSession for TracedSession<'_> {
    fn sweeps_planned(&self) -> usize {
        self.inner.sweeps_planned()
    }

    fn sweep(&mut self, rng: &mut StdRng) -> Result<SweepTrace, AttemptError> {
        let start = self.tracer.now_ns();
        let out = self.inner.sweep(rng);
        self.tracer.span(
            "collective.sweep",
            start,
            self.tracer.now_ns(),
            self.parent,
            NONE,
        );
        out
    }

    fn finish(&mut self) -> Result<ClassifyOutcome, AttemptError> {
        let start = self.tracer.now_ns();
        let out = self.inner.finish();
        self.tracer.span(
            "collective.finish",
            start,
            self.tracer.now_ns(),
            self.parent,
            NONE,
        );
        out
    }
}

/// Receives the flush traces `Frontend::dispatch` emits: counts any that
/// carry inherited poison and, in a traced run, keeps them.
pub struct FlushSink {
    keep: bool,
    poisoned: AtomicU64,
    records: Mutex<Vec<FlushTrace>>,
}

impl FlushSink {
    pub fn new(keep: bool) -> Self {
        Self {
            keep,
            poisoned: AtomicU64::new(0),
            records: Mutex::new(Vec::new()),
        }
    }

    pub fn poisoned(&self) -> u64 {
        self.poisoned.load(Ordering::Relaxed)
    }

    pub fn take(&self) -> Vec<FlushTrace> {
        std::mem::take(&mut *self.records.lock().expect("sink lock is never poisoned"))
    }
}

impl TraceSink for FlushSink {
    fn record(&self, record: &TraceRecord) {
        if let TraceRecord::Flush(flush) = record {
            if flush.batch.inherited_poison {
                self.poisoned.fetch_add(1, Ordering::Relaxed);
            }
            if self.keep {
                self.records
                    .lock()
                    .expect("sink lock is never poisoned")
                    .push(flush.clone());
            }
        }
    }
}
