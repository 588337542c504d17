//! The load generator: two caller threads driving a stack in lock step with
//! the measuring thread, one slice at a time.
//!
//! A run is a warm-up slice followed by measured slices. A slice is a fixed
//! number of operations, the workload's rate times the slice's nominal length,
//! which the callers share: every run of a workload issues the same operations
//! however fast the host is, so the counts of rounds, bytes and space repeat
//! (see README, "Slices"). Between slices every caller is parked on a
//! barrier, so the measuring thread can read the process counters and time the
//! control kernel with nothing else running; a neighbour's burst ruins one
//! slice, not the run.

use crate::host::{cpu_seconds, ref_kernel_ns};
use crate::stack::{Drive, Workload, CALLERS};
use crate::stream::{CallerStream, GenOp, Kind};
use crate::trace::tracer;
use pdm::Word;
use pdm_cluster::ClusterRouter;
use pdm_server::{DictClient, Op, Pending, Reply, TcpClient};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// A slice still short of its operations after this many times its nominal
/// length is cut there: a slower host or program stretches a run, but not
/// without bound.
const SLICE_TIME_CAP: u32 = 3;

/// A pipelining caller times every update but only one lookup in this many:
/// two clock reads cost a tenth of a cache-hit lookup.
const PIPELINED_LOOKUP_STRIDE: u64 = 7;

/// Something a synchronous caller can send one operation at a time to.
pub trait SyncTarget: Send {
    fn lookup(&mut self, key: u64) -> Result<Option<Vec<Word>>, String>;
    fn insert(&mut self, key: u64, satellite: &[Word]) -> Result<(), String>;
    fn delete(&mut self, key: u64) -> Result<bool, String>;
}

macro_rules! sync_target {
    ($ty:ty) => {
        impl SyncTarget for $ty {
            fn lookup(&mut self, key: u64) -> Result<Option<Vec<Word>>, String> {
                <$ty>::lookup(self, key).map_err(|e| e.to_string())
            }
            fn insert(&mut self, key: u64, satellite: &[Word]) -> Result<(), String> {
                <$ty>::insert(self, key, satellite).map_err(|e| e.to_string())
            }
            fn delete(&mut self, key: u64) -> Result<bool, String> {
                <$ty>::delete(self, key).map_err(|e| e.to_string())
            }
        }
    };
}

sync_target!(TcpClient);
sync_target!(DictClient);

impl SyncTarget for Arc<ClusterRouter> {
    fn lookup(&mut self, key: u64) -> Result<Option<Vec<Word>>, String> {
        ClusterRouter::lookup(self, key).map_err(|e| e.to_string())
    }
    fn insert(&mut self, key: u64, satellite: &[Word]) -> Result<(), String> {
        ClusterRouter::insert(self, key, satellite).map_err(|e| e.to_string())
    }
    fn delete(&mut self, key: u64) -> Result<bool, String> {
        ClusterRouter::delete(self, key).map_err(|e| e.to_string())
    }
}

/// Send `op` to `target` and check the reply against the model.
pub fn issue_sync(target: &mut dyn SyncTarget, op: &GenOp) -> Result<(), String> {
    let ok = match op.kind {
        Kind::Lookup => op.lookup_ok(target.lookup(op.key)?.as_deref()),
        Kind::Insert => {
            target.insert(op.key, &op.satellite())?;
            true
        }
        Kind::Delete => target.delete(op.key)?,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("reply to {op:?} contradicts the model"))
    }
}

/// What one caller did in one slice.
#[derive(Debug, Default)]
pub struct SliceRecord {
    pub ops: u64,
    pub failed: u64,
    pub lookup_ns: Vec<u32>,
    pub update_ns: Vec<u32>,
    /// Time from one reply (or window) to the next issue: the generator's
    /// own delay.
    pub gap_ns: Vec<u32>,
    pub span: Option<(Instant, Instant)>,
    /// The time cap ended the slice before its operations were done.
    pub cut_short: bool,
}

fn ns(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// One load-generator thread's state.
pub struct Caller<'w> {
    workload: &'w Workload,
    traced: bool,
    pub stream: CallerStream,
    target: Target,
    window: Vec<GenOp>,
    first_error: Option<String>,
}

pub enum Target {
    Sync(Box<dyn SyncTarget>),
    Pipelined(DictClient),
}

impl<'w> Caller<'w> {
    pub fn new(workload: &'w Workload, stream: CallerStream, target: Target, traced: bool) -> Self {
        Caller {
            workload,
            traced,
            stream,
            target,
            window: Vec::new(),
            first_error: None,
        }
    }

    fn note_failure(&mut self, rec: &mut SliceRecord, error: String) {
        rec.failed += 1;
        self.first_error.get_or_insert(error);
    }

    /// Take steps (one operation, or one window) from the slice's shared
    /// count until none is left, or until `cutoff`.
    fn run_slice(&mut self, steps: &AtomicU64, cutoff: Instant) -> SliceRecord {
        let mut rec = SliceRecord::default();
        let started = Instant::now();
        let mut last_done = started;
        // Relaxed: the count hands out work and publishes nothing else.
        while steps
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| {
                left.checked_sub(1)
            })
            .is_ok()
        {
            let (issued, done) = match self.workload.drive {
                Drive::Sync => self.sync_op(&mut rec),
                Drive::Pipelined(width) => self.window_ops(width, &mut rec),
            };
            rec.gap_ns.push(ns(issued - last_done));
            last_done = done;
            if last_done >= cutoff {
                rec.cut_short = true;
                break;
            }
        }
        rec.span = Some((started, last_done));
        rec
    }

    /// One synchronous operation; returns when it was issued and answered.
    fn sync_op(&mut self, rec: &mut SliceRecord) -> (Instant, Instant) {
        self.stream.next_window(1, &mut self.window);
        let op = self.window[0];
        let Target::Sync(target) = &mut self.target else {
            unreachable!("a synchronous workload has a synchronous target")
        };
        let span = self
            .traced
            .then(|| tracer().client_span("op", std::iter::once(self.workload.shard_of(op.key))));
        let t0 = Instant::now();
        let result = issue_sync(target.as_mut(), &op);
        let t1 = Instant::now();
        if let Some(span) = span {
            span.end(1);
        }
        rec.ops += 1;
        // After an error reply the update's fate is unknown; the model keeps
        // it applied, so a later contradiction counts as a failure too.
        self.stream.commit();
        match result {
            Ok(()) => {
                let sample = ns(t1 - t0);
                match op.kind {
                    Kind::Lookup => rec.lookup_ns.push(sample),
                    Kind::Insert | Kind::Delete => rec.update_ns.push(sample),
                }
            }
            Err(e) => self.note_failure(rec, e),
        }
        (t0, t1)
    }

    /// One window: `width` submits, then every wait, in order.
    fn window_ops(&mut self, width: usize, rec: &mut SliceRecord) -> (Instant, Instant) {
        self.stream.next_window(width, &mut self.window);
        let window = std::mem::take(&mut self.window);
        let Target::Pipelined(client) = &self.target else {
            unreachable!("a pipelining workload has an in-process client")
        };
        let client = client.clone();
        let span = self
            .traced
            .then(|| tracer().client_span("window", 0..self.workload.shards));
        let started = Instant::now();
        let mut lookups = 0u64;
        let mut in_flight: Vec<(Option<Instant>, Result<Pending, String>)> =
            Vec::with_capacity(width);
        for op in &window {
            let timed = match op.kind {
                Kind::Lookup => {
                    lookups += 1;
                    lookups.is_multiple_of(PIPELINED_LOOKUP_STRIDE)
                }
                Kind::Insert | Kind::Delete => true,
            };
            let request = match op.kind {
                Kind::Lookup => Op::Lookup(op.key),
                Kind::Insert => Op::Insert(op.key, op.satellite().to_vec()),
                Kind::Delete => Op::Delete(op.key),
            };
            let at = timed.then(Instant::now);
            in_flight.push((at, client.submit(request).map_err(|e| e.to_string())));
        }
        for (op, (at, pending)) in window.iter().zip(in_flight) {
            let result = pending.and_then(|p| p.wait().map_err(|e| e.to_string()));
            rec.ops += 1;
            let ok = match (&result, op.kind) {
                (Ok(Reply::Lookup(sat)), Kind::Lookup) => op.lookup_ok(sat.as_deref()),
                (Ok(Reply::Inserted), Kind::Insert) => true,
                (Ok(Reply::Deleted(was_present)), Kind::Delete) => *was_present,
                _ => false,
            };
            if !ok {
                self.note_failure(rec, format!("{op:?} answered {result:?}"));
            } else if let Some(at) = at {
                let sample = ns(at.elapsed());
                match op.kind {
                    Kind::Lookup => rec.lookup_ns.push(sample),
                    Kind::Insert | Kind::Delete => rec.update_ns.push(sample),
                }
            }
        }
        let done = Instant::now();
        if let Some(span) = span {
            span.end(width);
        }
        self.stream.commit();
        self.window = window;
        (started, done)
    }
}

/// One measured slice, over all callers.
#[derive(Debug, Default)]
pub struct Slice {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub ops: u64,
    pub failed: u64,
    pub lookup_ns: Vec<u32>,
    pub update_ns: Vec<u32>,
    pub gap_ns: Vec<u32>,
    pub cut_short: bool,
}

impl Slice {
    /// Verified operations per second, as timed.
    pub fn ops_per_s(&self) -> f64 {
        (self.ops - self.failed) as f64 / self.wall_s
    }

    /// Process CPU microseconds per verified operation.
    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_s * 1e6 / (self.ops - self.failed).max(1) as f64
    }
}

/// Everything a run of slices produced.
pub struct RunData {
    pub warmup: Slice,
    pub slices: Vec<Slice>,
    /// Control-kernel timings taken between slices, nanoseconds.
    pub ref_kernel_ns: Vec<f64>,
    pub streams: Vec<CallerStream>,
    pub first_error: Option<String>,
}

/// Slices of one run: a warm-up slice, then `slices` measured ones, each of
/// the operations the workload does in `slice` at its rate.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub slices: usize,
    pub slice: Duration,
}

struct Control {
    start: Barrier,
    end: Barrier,
    /// Steps left in the slice under way, over all callers.
    steps: AtomicU64,
    /// When the slice under way is cut short.
    cutoff: Mutex<Instant>,
    stop: AtomicBool,
}

/// Run `callers` through the warm-up and the measured slices. With `traced`,
/// spans are recorded during the measured slices only.
pub fn run_slices(callers: Vec<Caller<'_>>, schedule: Schedule, traced: bool) -> RunData {
    assert_eq!(callers.len(), CALLERS);
    let workload = callers[0].workload;
    let step_ops = match workload.drive {
        Drive::Sync => 1,
        Drive::Pipelined(width) => width as u64,
    };
    let ops_per_slice = workload.ops_per_second as f64 * schedule.slice.as_secs_f64();
    let steps_per_slice = (ops_per_slice / step_ops as f64).ceil() as u64;
    let control = Control {
        start: Barrier::new(CALLERS + 1),
        end: Barrier::new(CALLERS + 1),
        steps: AtomicU64::new(0),
        cutoff: Mutex::new(Instant::now()),
        stop: AtomicBool::new(false),
    };
    let records: Mutex<Vec<SliceRecord>> = Mutex::new(Vec::new());
    let mut kernel_ns = vec![ref_kernel_ns()];
    let mut slices = Vec::with_capacity(schedule.slices + 1);

    let finished: Vec<Caller<'_>> = std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .into_iter()
            .map(|mut caller| {
                let (control, records) = (&control, &records);
                scope.spawn(move || {
                    loop {
                        control.start.wait();
                        if control.stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let cutoff = *control.cutoff.lock().expect("cutoff lock");
                        let rec = caller.run_slice(&control.steps, cutoff);
                        records.lock().expect("records lock").push(rec);
                        control.end.wait();
                    }
                    caller
                })
            })
            .collect();

        for index in 0..=schedule.slices {
            let measured = index > 0;
            let cpu_before = cpu_seconds();
            control.steps.store(steps_per_slice, Ordering::Relaxed);
            *control.cutoff.lock().expect("cutoff lock") =
                Instant::now() + schedule.slice * SLICE_TIME_CAP;
            tracer().set_recording(traced && measured);
            control.start.wait();
            control.end.wait();
            tracer().set_recording(false);
            let cpu_s = cpu_seconds() - cpu_before;
            let mut slice = Slice {
                cpu_s,
                ..Slice::default()
            };
            let (mut first, mut last) = (None::<Instant>, None::<Instant>);
            for mut rec in records.lock().expect("records lock").drain(..) {
                slice.ops += rec.ops;
                slice.failed += rec.failed;
                slice.lookup_ns.append(&mut rec.lookup_ns);
                slice.update_ns.append(&mut rec.update_ns);
                slice.gap_ns.append(&mut rec.gap_ns);
                slice.cut_short |= rec.cut_short;
                let (started, ended) = rec.span.expect("a finished slice has a span");
                first = Some(first.map_or(started, |f| f.min(started)));
                last = Some(last.map_or(ended, |l| l.max(ended)));
            }
            slice.wall_s = (last.expect("callers ran") - first.expect("callers ran")).as_secs_f64();
            kernel_ns.push(ref_kernel_ns());
            slices.push(slice);
        }
        control.stop.store(true, Ordering::SeqCst);
        control.start.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });

    let warmup = slices.remove(0);
    let first_error = finished.iter().find_map(|c| c.first_error.clone());
    RunData {
        warmup,
        slices,
        ref_kernel_ns: kernel_ns,
        streams: finished.into_iter().map(|c| c.stream).collect(),
        first_error,
    }
}
