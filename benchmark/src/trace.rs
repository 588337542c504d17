//! Tracing from outside the product: spans around calls into each layer's
//! public functions, recorded by decorators that live in this file.
//!
//! * a **client** span around every client or router call the load generator
//!   makes (a whole window, for a pipelining caller);
//! * a **core** span around every [`Dict`] call the engine makes on a shard,
//!   through [`TracedDict`];
//! * a **pdm** span around every [`StorageBackend`] call the shard's
//!   [`pdm::DiskArray`] makes, through [`TracedBackend`], which also counts
//!   blocks and barriers.
//!
//! A pdm span's parent is the core span open on its thread; a core span's
//! parent is the client span last announced for its shard. Spans stay in
//! memory; [`Tracer::finish`] computes self times and writes them out.

use pdm::metrics::MetricsRegistry;
use pdm::{
    BlockAddr, CompletionSet, DiskArray, FlushTicket, IoSubmission, OpCost, RecoveryReport,
    ScrubReport, StorageBackend, Word,
};
use pdm_dict::{Dict, DictError, LookupOutcome};
use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Shards a tracer can tell apart (the workloads use at most 8).
const MAX_SHARDS: usize = 16;
/// Spans written to the trace file; the aggregates use every span.
const FILE_SPAN_CAP: usize = 50_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    Client = 0,
    Core = 1,
    Pdm = 2,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Client => "client",
            Layer::Core => "core",
            Layer::Pdm => "pdm",
        }
    }
}

/// One recorded span. `parent` 0 means none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub layer: Layer,
    pub name: &'static str,
    pub thread: u16,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ops: u32,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

type Buffer = Arc<Mutex<Vec<Span>>>;

/// The process-wide span collector. Recording is off until
/// [`set_recording`](Tracer::set_recording) turns it on, so set-up, preload
/// and warm-up leave no spans.
pub struct Tracer {
    epoch: Instant,
    recording: AtomicBool,
    next_id: AtomicU32,
    next_thread: AtomicU32,
    in_flight: [AtomicU32; MAX_SHARDS],
    buffers: Mutex<Vec<Buffer>>,
}

static TRACER: OnceLock<Tracer> = OnceLock::new();

thread_local! {
    /// This thread's span buffer and number, registered on first use.
    static LOCAL: (Buffer, u16) = tracer().register_thread();
    /// The core span open on this thread, 0 for none.
    static OPEN_CORE: Cell<u32> = const { Cell::new(0) };
}

/// The tracer; created on first use.
pub fn tracer() -> &'static Tracer {
    TRACER.get_or_init(|| Tracer {
        epoch: Instant::now(),
        recording: AtomicBool::new(false),
        next_id: AtomicU32::new(1),
        next_thread: AtomicU32::new(0),
        in_flight: std::array::from_fn(|_| AtomicU32::new(0)),
        buffers: Mutex::new(Vec::new()),
    })
}

/// An open span; [`end`](OpenSpan::end) records it.
pub struct OpenSpan {
    id: u32,
    parent: u32,
    layer: Layer,
    name: &'static str,
    start_ns: u64,
}

impl OpenSpan {
    /// The span's id, or 0 when recording is off.
    pub fn id(&self) -> u32 {
        self.id
    }

    pub fn end(self, ops: usize) {
        if self.id == 0 {
            return;
        }
        let t = tracer();
        let end_ns = t.now_ns();
        LOCAL.with(|(buffer, thread)| {
            buffer.lock().expect("span buffer lock").push(Span {
                id: self.id,
                parent: self.parent,
                layer: self.layer,
                name: self.name,
                thread: *thread,
                start_ns: self.start_ns,
                end_ns,
                ops: ops as u32,
            });
        });
    }
}

impl Tracer {
    fn register_thread(&self) -> (Buffer, u16) {
        let buffer: Buffer = Arc::new(Mutex::new(Vec::new()));
        self.buffers
            .lock()
            .expect("tracer buffers lock")
            .push(Arc::clone(&buffer));
        (
            buffer,
            self.next_thread.fetch_add(1, Ordering::Relaxed) as u16,
        )
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    fn begin(&self, layer: Layer, name: &'static str, parent: u32) -> OpenSpan {
        let id = if self.recording.load(Ordering::Relaxed) {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        let start_ns = if id == 0 { 0 } else { self.now_ns() };
        OpenSpan {
            id,
            parent,
            layer,
            name,
            start_ns,
        }
    }

    /// Open a client span and announce it as the one in flight on `shards`
    /// (the shards its keys route to), so core spans there take it as parent.
    pub fn client_span(&self, name: &'static str, shards: impl Iterator<Item = usize>) -> OpenSpan {
        let span = self.begin(Layer::Client, name, 0);
        if span.id != 0 {
            for shard in shards {
                self.in_flight[shard % MAX_SHARDS].store(span.id, Ordering::Relaxed);
            }
        }
        span
    }

    /// Every span recorded so far, ordered by id.
    fn drain(&self) -> Vec<Span> {
        let mut all = Vec::new();
        for buffer in self.buffers.lock().expect("tracer buffers lock").iter() {
            all.append(&mut buffer.lock().expect("span buffer lock"));
        }
        all.sort_by_key(|s| s.id);
        all
    }

    /// Aggregate every recorded span and write the first of them to `path`.
    pub fn finish(&self, path: &Path) -> std::io::Result<TraceSummary> {
        let spans = self.drain();
        let summary = summarize(&spans);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"spans_recorded\": {}, \"spans_written\": {}, \"spans\": [",
            spans.len(),
            spans.len().min(FILE_SPAN_CAP)
        )?;
        for (i, s) in spans.iter().take(FILE_SPAN_CAP).enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            write!(
                out,
                "{sep}{{\"id\": {}, \"parent\": {}, \"layer\": \"{}\", \"name\": \"{}\", \"thread\": {}, \"start_ns\": {}, \"end_ns\": {}, \"ops\": {}}}",
                s.id, s.parent, s.layer.name(), s.name, s.thread, s.start_ns, s.end_ns, s.ops
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()?;
        Ok(summary)
    }
}

/// Totals over a set of spans, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceSummary {
    /// Operations the client spans carried.
    pub client_ops: u64,
    /// Sum of client span durations.
    pub client_ns: u64,
    /// Client span time no core or pdm child covers: wire, queue, wake-ups —
    /// the serving layer (or, for router calls, the cluster tier and all
    /// below it).
    pub client_self_ns: u64,
    /// Core span time no pdm child covers.
    pub core_self_ns: u64,
    /// Pdm span time (they have no children).
    pub pdm_self_ns: u64,
    /// Sum of core span durations (for the busy fraction).
    pub core_ns: u64,
    /// Sum of pdm span durations.
    pub pdm_ns: u64,
    /// Core and pdm span time that lies outside the parent's interval, or
    /// has no recorded parent at all.
    pub outside_ns: u64,
}

impl TraceSummary {
    /// Share of the traced time that could not be placed under a client call.
    pub fn unattributed_frac(&self) -> f64 {
        let total = self.client_ns + self.outside_ns;
        if total == 0 {
            0.0
        } else {
            self.outside_ns as f64 / total as f64
        }
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its interval its
/// children cover, wherever (whichever thread) the children ran.
pub fn summarize(spans: &[Span]) -> TraceSummary {
    let index: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut sum = TraceSummary::default();
    for s in spans {
        let parent = index.get(&s.parent).map(|&i| (i, spans[i]));
        if s.layer != Layer::Client {
            let inside = parent.map_or(0, |(_, p)| {
                s.end_ns
                    .min(p.end_ns)
                    .saturating_sub(s.start_ns.max(p.start_ns))
            });
            sum.outside_ns += s.duration() - inside;
        }
        if let Some((i, _)) = parent {
            children[i].push((s.start_ns, s.end_ns));
        }
    }
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let own = s.duration() - covered(kids, s.start_ns, s.end_ns);
        match s.layer {
            Layer::Client => {
                sum.client_ops += u64::from(s.ops);
                sum.client_ns += s.duration();
                sum.client_self_ns += own;
            }
            Layer::Core => {
                sum.core_ns += s.duration();
                sum.core_self_ns += own;
            }
            Layer::Pdm => {
                sum.pdm_ns += s.duration();
                sum.pdm_self_ns += own;
            }
        }
    }
    sum
}

/// Blocks and barriers a [`TracedBackend`] saw, shared with the benchmark.
#[derive(Debug, Default)]
pub struct BackendCounts {
    pub blocks_read: AtomicU64,
    pub blocks_written: AtomicU64,
    pub syncs: AtomicU64,
}

/// A [`StorageBackend`] that records a span and counts blocks around every
/// call, and otherwise is the backend it wraps.
#[derive(Debug)]
pub struct TracedBackend {
    inner: Box<dyn StorageBackend>,
    shard: usize,
    counts: Arc<BackendCounts>,
}

impl TracedBackend {
    pub fn new(inner: Box<dyn StorageBackend>, shard: usize, counts: Arc<BackendCounts>) -> Self {
        TracedBackend {
            inner,
            shard,
            counts,
        }
    }

    fn span(&self, name: &'static str) -> OpenSpan {
        let t = tracer();
        let open_core = OPEN_CORE.with(Cell::get);
        let parent = if open_core != 0 {
            open_core
        } else {
            t.in_flight[self.shard % MAX_SHARDS].load(Ordering::Relaxed)
        };
        t.begin(Layer::Pdm, name, parent)
    }
}

impl StorageBackend for TracedBackend {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
    fn disks(&self) -> usize {
        self.inner.disks()
    }
    fn block_words(&self) -> usize {
        self.inner.block_words()
    }
    fn blocks_on(&self, disk: usize) -> usize {
        self.inner.blocks_on(disk)
    }
    fn grow(&mut self, blocks_per_disk: usize) {
        self.inner.grow(blocks_per_disk);
    }
    fn submit(&mut self, batch: IoSubmission<'_>) -> CompletionSet {
        let span = self.span("submit");
        self.counts
            .blocks_read
            .fetch_add(batch.reads.len() as u64, Ordering::Relaxed);
        self.counts
            .blocks_written
            .fetch_add(batch.writes.len() as u64, Ordering::Relaxed);
        if batch.sync_after {
            self.counts.syncs.fetch_add(1, Ordering::Relaxed);
        }
        let blocks = batch.reads.len() + batch.writes.len();
        let done = self.inner.submit(batch);
        span.end(blocks);
        done
    }
    fn submit_reads(&self, reads: &[BlockAddr]) -> CompletionSet {
        let span = self.span("submit_reads");
        self.counts
            .blocks_read
            .fetch_add(reads.len() as u64, Ordering::Relaxed);
        let done = self.inner.submit_reads(reads);
        span.end(reads.len());
        done
    }
    fn peek(&self, addr: BlockAddr) -> Vec<Word> {
        self.inner.peek(addr)
    }
    fn poke(&mut self, addr: BlockAddr, data: &[Word]) {
        self.inner.poke(addr, data);
    }
    fn snapshot(&self) -> Vec<Vec<Box<[Word]>>> {
        self.inner.snapshot()
    }
    fn flush_begin(&mut self) -> FlushTicket {
        let span = self.span("flush_begin");
        self.counts.syncs.fetch_add(1, Ordering::Relaxed);
        let ticket = self.inner.flush_begin();
        span.end(0);
        ticket
    }
    fn flush_join(&mut self, ticket: FlushTicket) {
        let span = self.span("flush_join");
        self.inner.flush_join(ticket);
        span.end(0);
    }
}

/// A [`Dict`] that records a span around every operation the engine calls
/// and delegates everything, so crash watching (`disks`), absence
/// certification, recovery and checkpoints behave as on the bare shard.
pub struct TracedDict {
    inner: Box<dyn Dict + Send>,
    shard: usize,
}

impl TracedDict {
    pub fn new(inner: Box<dyn Dict + Send>, shard: usize) -> Self {
        TracedDict { inner, shard }
    }

    fn traced<R>(
        &mut self,
        name: &'static str,
        ops: usize,
        call: impl FnOnce(&mut (dyn Dict + Send)) -> R,
    ) -> R {
        let t = tracer();
        let parent = t.in_flight[self.shard % MAX_SHARDS].load(Ordering::Relaxed);
        let span = t.begin(Layer::Core, name, parent);
        let outer = OPEN_CORE.with(|c| c.replace(span.id()));
        let result = call(self.inner.as_mut());
        OPEN_CORE.with(|c| c.set(outer));
        span.end(ops);
        result
    }
}

impl Dict for TracedDict {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }
    fn lookup(&mut self, key: u64) -> LookupOutcome {
        self.traced("lookup", 1, |d| d.lookup(key))
    }
    fn insert(&mut self, key: u64, satellite: &[Word]) -> Result<OpCost, DictError> {
        self.traced("insert", 1, |d| d.insert(key, satellite))
    }
    fn delete(&mut self, key: u64) -> Result<(bool, OpCost), DictError> {
        self.traced("delete", 1, |d| d.delete(key))
    }
    fn lookup_batch(&mut self, keys: &[u64]) -> (Vec<Option<Vec<Word>>>, OpCost) {
        self.traced("lookup_batch", keys.len(), |d| d.lookup_batch(keys))
    }
    fn insert_batch(
        &mut self,
        entries: &[(u64, Vec<Word>)],
    ) -> (Vec<Result<(), DictError>>, OpCost) {
        self.traced("insert_batch", entries.len(), |d| d.insert_batch(entries))
    }
    fn set_metrics(&mut self, registry: Option<Arc<MetricsRegistry>>) {
        self.inner.set_metrics(registry);
    }
    fn refresh_gauges(&mut self) {
        self.inner.refresh_gauges();
    }
    fn disks(&self) -> Option<&DiskArray> {
        self.inner.disks()
    }
    fn disks_mut(&mut self) -> Option<&mut DiskArray> {
        self.inner.disks_mut()
    }
    fn recover(&mut self) -> RecoveryReport {
        self.inner.recover()
    }
    fn checkpoint(&mut self) -> bool {
        self.traced("checkpoint", 0, |d| d.checkpoint())
    }
    fn scrub(&mut self) -> ScrubReport {
        self.inner.scrub()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm::{MemBackend, PdmConfig};
    use pdm_dict::layout::DiskAllocator;
    use pdm_dict::{DictHandle, DictParams, DynamicDict};

    fn span(id: u32, parent: u32, layer: Layer, thread: u16, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: "t",
            thread,
            start_ns,
            end_ns,
            ops: 1,
        }
    }

    #[test]
    fn self_time_with_nested_children() {
        // client 0..100 > core 10..60 > pdm 20..30
        let s = summarize(&[
            span(1, 0, Layer::Client, 0, 0, 100),
            span(2, 1, Layer::Core, 1, 10, 60),
            span(3, 2, Layer::Pdm, 1, 20, 30),
        ]);
        assert_eq!(
            (s.client_self_ns, s.core_self_ns, s.pdm_self_ns),
            (50, 40, 10)
        );
        assert_eq!(
            s.client_self_ns + s.core_self_ns + s.pdm_self_ns,
            s.client_ns
        );
        assert_eq!(s.outside_ns, 0);
        assert_eq!(s.unattributed_frac(), 0.0);
    }

    #[test]
    fn self_time_with_sibling_children_counts_overlap_once() {
        // Two core children on different threads overlap in 30..40.
        let s = summarize(&[
            span(1, 0, Layer::Client, 0, 0, 100),
            span(2, 1, Layer::Core, 1, 10, 40),
            span(3, 1, Layer::Core, 2, 30, 70),
        ]);
        assert_eq!(s.client_self_ns, 40);
        assert_eq!(s.core_self_ns, 70);
    }

    #[test]
    fn cross_thread_child_is_clipped_to_its_parent() {
        // The core span outlives the client span that caused it by 20 ns.
        let s = summarize(&[
            span(1, 0, Layer::Client, 0, 0, 100),
            span(2, 1, Layer::Core, 1, 50, 120),
            // An orphan: its parent was never recorded.
            span(3, 99, Layer::Pdm, 2, 200, 230),
        ]);
        assert_eq!(s.client_self_ns, 50);
        assert_eq!(s.outside_ns, 20 + 30);
        assert!((s.unattributed_frac() - 50.0 / 150.0).abs() < 1e-12);
    }

    fn traced_shard(counts: &Arc<BackendCounts>) -> TracedDict {
        let cfg = PdmConfig::new(40, 128);
        let backend =
            TracedBackend::new(Box::new(MemBackend::new(40, 128, 0)), 0, Arc::clone(counts));
        let mut disks = DiskArray::with_backend(cfg, Box::new(backend)).unwrap();
        let mut alloc = DiskAllocator::new(40);
        let params = DictParams::new(256, 1 << 40, 2)
            .with_degree(20)
            .with_epsilon(0.5)
            .with_journal(4);
        let dict = DynamicDict::create(&mut disks, &mut alloc, 0, params).unwrap();
        TracedDict::new(Box::new(DictHandle::new(dict, disks)), 0)
    }

    #[test]
    fn decorators_forward_disks_recover_and_checkpoint() {
        let counts = Arc::new(BackendCounts::default());
        let mut traced = traced_shard(&counts);
        traced.insert(7, &[1, 2]).unwrap();
        assert_eq!(traced.lookup(7).satellite, Some(vec![1, 2]));
        assert_eq!(traced.len(), 1);
        // `disks()` reaches the real array: the engine's crash watch and
        // absence certification read it.
        let disks = traced.disks().expect("the wrapped shard has one array");
        assert!(disks.journal_enabled());
        assert!(!disks.crash_fired());
        let before = disks.stats();
        assert!(before.block_writes > 0);
        // The counting backend saw what the array's own counters saw.
        assert_eq!(
            counts.blocks_written.load(Ordering::Relaxed),
            before.block_writes
        );
        assert!(traced.disks_mut().is_some());
        assert!(
            traced.checkpoint(),
            "checkpoint must reach the journaled shard"
        );
        assert!(traced.recover().is_clean());
        assert_eq!(traced.lookup(7).satellite, Some(vec![1, 2]));
        assert_eq!(traced.kind(), "dynamic");
    }

    #[test]
    fn recorded_spans_nest_backend_under_dict() {
        let counts = Arc::new(BackendCounts::default());
        let mut traced = traced_shard(&counts);
        let t = tracer();
        t.set_recording(true);
        let client = t.client_span("lookup", std::iter::once(0));
        let client_id = client.id();
        traced.lookup(9);
        client.end(1);
        t.set_recording(false);
        let spans = t.drain();
        // Other tests may record through the same process-wide tracer.
        let core = spans
            .iter()
            .find(|s| s.layer == Layer::Core && s.parent == client_id)
            .expect("a core span under the client span");
        let pdm = spans
            .iter()
            .find(|s| s.layer == Layer::Pdm && s.parent == core.id)
            .expect("a pdm span under the core span");
        assert!(pdm.start_ns >= core.start_ns && pdm.end_ns <= core.end_ns);
    }
}
