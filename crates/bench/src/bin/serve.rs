//! SERVE — the concurrent serving engine: coalescing gain, admission
//! control under overload, and the crash drill.
//!
//! Three experiments against two-shard engines:
//!
//! 1. **Coalescing vs one-op-per-lock.** 32 concurrent clients pipeline
//!    a skewed serving workload (a seeded Zipf(θ = 1.8) stream putting
//!    ~90% of requests on a 16-key hot set — the shape real request
//!    streams have) through the engine; per-shard
//!    workers coalesce queued requests into `lookup_batch` calls whose
//!    planner reads each *unique* block once per window and shares
//!    parallel rounds across keys, so every repeat of a hot key inside a
//!    window is free. The baseline replays the same stream one op at a
//!    time against twin dictionaries — one-op-per-lock serving, which
//!    pays a full parallel round for every request, hot or not. Both
//!    sides are counted in the deterministic PDM cost model, so the
//!    headline gate (≥ 3× fewer parallel rounds per op) is immune to CI
//!    timer noise.
//! 2. **Overload.** A fresh engine with a small admission bound is
//!    offered ~2× its queue capacity in flight. Excess submissions must
//!    be rejected with typed `Overloaded` backpressure (the bound makes
//!    queue growth structurally impossible), and the p99 latency of the
//!    *admitted* operations must stay within 2× of the uncontended p99
//!    (both floored at 1ms — see [`P99_FLOOR_US`]).
//! 3. **Crash drill.** A journaled shard is armed with a crash point
//!    (`FaultPlan::crash_after`: all later physical writes silently
//!    dropped); concurrent clients insert until the crash fires, the
//!    engine disconnects everything unacknowledged, and the image is
//!    reopened from disk alone. Gate: **zero acked-but-lost writes**.
//!    A graceful-shutdown twin checks the drained image recovers with
//!    nothing to replay.
//!
//! Writes `target/experiments/BENCH_serve.json`; exits nonzero on any
//! gate failure.
//!
//! Run: `cargo run -p bench --release --bin serve`
//! Smoke: `cargo run -p bench --release --bin serve -- --smoke`

use bench::fronts::{dense_keys, front, sat, Front};
use bench::workloads::ZipfStream;
use expander::mix::mix64;
use pdm::FaultPlan;
use pdm_dict::Dict;
use pdm_server::{DictClient, EngineConfig, Op, ServeEngine, ServeError};
use serde::Serialize;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
const ROUTE_SEED: u64 = 0x5EED_CAFE;
const CLIENTS: usize = 32;
const JOURNAL_ROWS: usize = 4;
/// Latency gates compare p99s floored at this value. The disk layer is
/// an in-RAM simulator, so absolute service times are microseconds and
/// the uncontended p99 is dominated by thread-wakeup jitter; comparing
/// sub-millisecond p99s measures the host scheduler, not the engine.
/// The gate exists to catch queueing collapse — an unbounded queue under
/// 2× overload pushes the tail to tens of milliseconds, far above this
/// floor — and the raw microsecond values are still reported.
const P99_FLOOR_US: u64 = 1_000;

/// The catalogue's dynamic front with this binary's ring.
fn journaled() -> Front {
    Front { journal_rows: JOURNAL_ROWS, ..front("dynamic") }
}

/// The engine's key route, replicated for the baseline and preloads.
fn shard_of(key: u64) -> usize {
    (mix64(ROUTE_SEED ^ key) % SHARDS as u64) as usize
}

/// Exponent of the Zipf(θ) serving stream (the shared
/// [`ZipfStream`] generator): θ = 1.8 concentrates ~90% of requests on
/// a hot set of a few dozen keys over this corpus size — the shape the
/// old hand-rolled 90%/16-key sampler approximated.
const ZIPF_THETA: f64 = 1.8;

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx]
}

#[derive(Serialize)]
struct LatencyRow {
    ops: usize,
    throughput_ops_s: f64,
    p50_us: u64,
    p99_us: u64,
    max_us: u64,
}

fn latency_row(mut samples_us: Vec<u64>, wall: Duration) -> LatencyRow {
    samples_us.sort_unstable();
    LatencyRow {
        ops: samples_us.len(),
        throughput_ops_s: samples_us.len() as f64 / wall.as_secs_f64(),
        p50_us: percentile(&samples_us, 0.50),
        p99_us: percentile(&samples_us, 0.99),
        max_us: percentile(&samples_us, 1.0),
    }
}

#[derive(Serialize)]
struct CoalescingReport {
    clients: usize,
    lookups: usize,
    zipf_theta: f64,
    /// Analytic fraction of draws in the 16 hottest keys.
    hot16_mass: f64,
    mean_batch: f64,
    rounds_per_op_coalesced: f64,
    rounds_per_op_single: f64,
    speedup: f64,
    /// Client-observed latency while pipelining 128 deep (queueing
    /// included) — not the uncontended service latency.
    pipelined_latency: LatencyRow,
}

#[derive(Serialize)]
struct OverloadReport {
    queue_bound: usize,
    offered_in_flight: usize,
    attempted: u64,
    admitted: u64,
    rejected: u64,
    reject_rate: f64,
    admitted_p99_us: u64,
    uncontended_p99_us: u64,
    p99_ratio_floored: f64,
}

#[derive(Serialize)]
struct CrashReport {
    crash_after_writes: u64,
    acked: usize,
    disconnected: usize,
    acked_lost: usize,
    in_doubt_present: usize,
    recovered_len: usize,
    graceful_replayable_intents: usize,
}

#[derive(Serialize)]
struct Report {
    smoke: bool,
    shards: usize,
    coalescing: CoalescingReport,
    /// Sync (one-in-flight-per-client) latency on a lightly loaded
    /// engine — the denominator for the overload tail-latency gate.
    uncontended: LatencyRow,
    overload: OverloadReport,
    crash: CrashReport,
}

/// Experiment 1: 32 pipelining clients through the engine vs the same
/// lookups served one at a time.
fn coalescing(keys: &[u64], per_client: usize, failures: &mut Vec<String>) -> CoalescingReport {
    // Preload the shards directly (off the engine's books), then serve.
    let mut shards: Vec<Box<dyn Dict + Send>> =
        (0..SHARDS).map(|s| front("dynamic").build(keys.len() + 64, &[], 0xA11CE + s as u64)).collect();
    for &k in keys {
        shards[shard_of(k)].insert(k, &sat(k, 2)).unwrap();
    }
    let engine = ServeEngine::new(
        shards,
        EngineConfig::default()
            .with_route_seed(ROUTE_SEED)
            .with_queue_bound(8192)
            .with_max_coalesce(128)
            .with_deadline(Duration::from_secs(120)),
    );
    let client = engine.client();

    let samples: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for c in 0..CLIENTS as u64 {
            let client = client.clone();
            let samples = &samples;
            let keys = &keys;
            s.spawn(move || {
                let mut local = Vec::with_capacity(per_client);
                let mut pending = Vec::with_capacity(128);
                let mut stream = ZipfStream::new(keys, ZIPF_THETA, 0xC0A1).with_draws(mix64(c));
                for i in 0..per_client {
                    let key = stream.next_key();
                    let at = Instant::now();
                    let p = client.submit(Op::Lookup(key)).unwrap();
                    pending.push((at, p, key));
                    // Pipeline in windows: keep the shard queues deep so
                    // workers drain full coalescing windows.
                    if pending.len() >= 128 || i + 1 == per_client {
                        for (at, p, key) in pending.drain(..) {
                            match p.wait() {
                                Ok(pdm_server::Reply::Lookup(Some(_))) => {
                                    local.push(at.elapsed().as_micros() as u64);
                                }
                                other => panic!("lookup({key}) answered {other:?}"),
                            }
                        }
                    }
                }
                samples.lock().unwrap().append(&mut local);
            });
        }
    });
    let wall = start.elapsed();
    let stats = engine.stats();
    drop(engine.shutdown());

    // Baseline: identical twin shards, the same skewed stream, one op at
    // a time — the per-op parallel cost one-op-per-lock serving pays.
    let mut twins: Vec<Box<dyn Dict + Send>> =
        (0..SHARDS).map(|s| front("dynamic").build(keys.len() + 64, &[], 0xA11CE + s as u64)).collect();
    for &k in keys {
        twins[shard_of(k)].insert(k, &sat(k, 2)).unwrap();
    }
    let mut single_ios = 0u64;
    let mut single_ops = 0u64;
    let mut stream = ZipfStream::new(keys, ZIPF_THETA, 0xC0A1).with_draws(0xBA5E);
    for _ in 0..stats.exec_ops.min(20_000) {
        let key = stream.next_key();
        let out = twins[shard_of(key)].lookup(key);
        assert!(out.satellite.is_some());
        single_ios += out.cost.parallel_ios;
        single_ops += 1;
    }

    let row = CoalescingReport {
        clients: CLIENTS,
        lookups: stats.exec_ops as usize,
        zipf_theta: ZIPF_THETA,
        hot16_mass: ZipfStream::new(keys, ZIPF_THETA, 0).head_mass(16),
        mean_batch: stats.mean_batch(),
        rounds_per_op_coalesced: stats.ios_per_op(),
        rounds_per_op_single: single_ios as f64 / single_ops as f64,
        speedup: (single_ios as f64 / single_ops as f64) / stats.ios_per_op().max(1e-9),
        pipelined_latency: latency_row(samples.into_inner().unwrap(), wall),
    };
    println!(
        "coalescing: {} lookups from {} clients (Zipf θ={:.1}, hot-16 mass {:.0}%) — \
         {:.1} ops per batched call, \
         {:.3} rounds/op vs {:.3} one-op-per-lock ({:.1}× fewer), {:.0} ops/s, \
         p50 {}µs p99 {}µs",
        row.lookups,
        row.clients,
        row.zipf_theta,
        100.0 * row.hot16_mass,
        row.mean_batch,
        row.rounds_per_op_coalesced,
        row.rounds_per_op_single,
        row.speedup,
        row.pipelined_latency.throughput_ops_s,
        row.pipelined_latency.p50_us,
        row.pipelined_latency.p99_us
    );
    if row.speedup < 3.0 {
        failures.push(format!(
            "coalesced serving saves only {:.2}× parallel rounds per op (gate: ≥ 3×)",
            row.speedup
        ));
    }
    row
}

/// True uncontended serving latency: a handful of sync clients, one op
/// in flight each, against a lightly loaded engine. This is the
/// denominator for the overload tail-latency gate.
fn uncontended(keys: &[u64]) -> LatencyRow {
    let mut shards: Vec<Box<dyn Dict + Send>> =
        (0..SHARDS).map(|s| front("dynamic").build(keys.len() + 64, &[], 0xCA1 + s as u64)).collect();
    for &k in keys {
        shards[shard_of(k)].insert(k, &sat(k, 2)).unwrap();
    }
    let engine = ServeEngine::new(
        shards,
        EngineConfig::default()
            .with_route_seed(ROUTE_SEED)
            .with_deadline(Duration::from_secs(120)),
    );
    let client = engine.client();

    let samples: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for c in 0..4u64 {
            let client = client.clone();
            let samples = &samples;
            let keys = &keys;
            s.spawn(move || {
                let mut local = Vec::with_capacity(500);
                let mut stream = ZipfStream::new(keys, ZIPF_THETA, 0x57A7).with_draws(mix64(c));
                for _ in 0..500 {
                    let key = stream.next_key();
                    let at = Instant::now();
                    assert!(client.lookup(key).unwrap().is_some());
                    local.push(at.elapsed().as_micros() as u64);
                }
                samples.lock().unwrap().append(&mut local);
            });
        }
    });
    let wall = start.elapsed();
    drop(engine.shutdown());
    let row = latency_row(samples.into_inner().unwrap(), wall);
    println!(
        "uncontended: 4 sync clients — p50 {}µs p99 {}µs max {}µs",
        row.p50_us, row.p99_us, row.max_us
    );
    row
}

/// Experiment 2: typed backpressure at ~2× capacity, and tail latency of
/// what *is* admitted.
fn overload(
    keys: &[u64],
    uncontended_p99_us: u64,
    failures: &mut Vec<String>,
) -> OverloadReport {
    const BOUND: usize = 16;
    // Offered in-flight ≈ 2 × the engine's total queue capacity.
    let offered = 2 * BOUND * SHARDS;
    let drivers = 8;
    let window = offered / drivers;
    let attempts_per_driver = keys.len().max(512);

    let mut shards: Vec<Box<dyn Dict + Send>> =
        (0..SHARDS).map(|s| front("dynamic").build(keys.len() + 64, &[], 0xF00D + s as u64)).collect();
    for &k in keys {
        shards[shard_of(k)].insert(k, &sat(k, 2)).unwrap();
    }
    let engine = ServeEngine::new(
        shards,
        EngineConfig::default()
            .with_route_seed(ROUTE_SEED)
            .with_queue_bound(BOUND)
            .with_max_coalesce(BOUND)
            .with_deadline(Duration::from_secs(120)),
    );
    let client = engine.client();

    let samples: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let attempted = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for c in 0..drivers as u64 {
            let client = client.clone();
            let (samples, attempted) = (&samples, &attempted);
            let keys = &keys;
            s.spawn(move || {
                let mut local = Vec::new();
                let mut pending = Vec::with_capacity(window);
                let mut state = mix64(0x0DD ^ c);
                for i in 0..attempts_per_driver {
                    state = mix64(state.wrapping_add(1));
                    let key = keys[(state as usize) % keys.len()];
                    attempted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let at = Instant::now();
                    match client.submit(Op::Lookup(key)) {
                        Ok(p) => pending.push((at, p)),
                        Err(ServeError::Overloaded { .. }) => {} // typed backpressure
                        Err(other) => panic!("submit: {other}"),
                    }
                    if pending.len() >= window || i + 1 == attempts_per_driver {
                        for (at, p) in pending.drain(..) {
                            p.wait().unwrap();
                            local.push(at.elapsed().as_micros() as u64);
                        }
                    }
                }
                samples.lock().unwrap().append(&mut local);
            });
        }
    });
    let stats = engine.stats();
    drop(engine.shutdown());

    let mut samples = samples.into_inner().unwrap();
    samples.sort_unstable();
    let admitted_p99 = percentile(&samples, 0.99);
    let ratio = admitted_p99.max(P99_FLOOR_US) as f64 / uncontended_p99_us.max(P99_FLOOR_US) as f64;
    let row = OverloadReport {
        queue_bound: BOUND,
        offered_in_flight: offered,
        attempted: attempted.into_inner(),
        admitted: stats.submitted,
        rejected: stats.rejected_overloaded,
        reject_rate: stats.rejected_overloaded as f64
            / (stats.submitted + stats.rejected_overloaded).max(1) as f64,
        admitted_p99_us: admitted_p99,
        uncontended_p99_us,
        p99_ratio_floored: ratio,
    };
    println!(
        "overload: offered {} in flight against bound {}×{} — {} admitted, {} rejected \
         ({:.1}% typed backpressure), admitted p99 {}µs vs uncontended {}µs ({:.2}× floored)",
        row.offered_in_flight,
        BOUND,
        SHARDS,
        row.admitted,
        row.rejected,
        100.0 * row.reject_rate,
        row.admitted_p99_us,
        row.uncontended_p99_us,
        row.p99_ratio_floored
    );
    if row.rejected == 0 {
        failures.push("2× overload produced zero Overloaded rejections".into());
    }
    if stats.rejected_timedout + stats.disconnected > 0 {
        failures.push(format!(
            "overload produced {} timeouts / {} disconnects — only Overloaded is acceptable",
            stats.rejected_timedout, stats.disconnected
        ));
    }
    if row.p99_ratio_floored > 2.0 {
        failures.push(format!(
            "admitted p99 under overload is {:.2}× the uncontended p99 (gate: ≤ 2×)",
            row.p99_ratio_floored
        ));
    }
    row
}

/// Experiment 3: crash drill + graceful-shutdown recovery.
fn crash_drill(inserts: usize, failures: &mut Vec<String>) -> CrashReport {
    let capacity = inserts + 64;
    let seed = 0xC4A5;
    // A journaled insert costs tens of physical writes; this budget lets
    // a few dozen inserts commit and ack, then kills the rest mid-load.
    let crash_at = 800 + (inserts as u64 % 211);

    let mut dict = journaled().build(capacity, &[], seed);
    dict.disks_mut()
        .unwrap()
        .set_fault_plan(FaultPlan::new().crash_after(crash_at));
    let engine = ServeEngine::new(
        vec![dict],
        EngineConfig::default()
            .with_route_seed(ROUTE_SEED)
            // Small windows: several insert batches commit (and ack)
            // before the crash point, so the durability claim is
            // exercised on a meaningful set of acked writes.
            .with_max_coalesce(8)
            .with_deadline(Duration::from_secs(120)),
    );
    let client: DictClient = engine.client();

    let acked: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let in_doubt: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let client = client.clone();
            let (acked, in_doubt) = (&acked, &in_doubt);
            let per_thread = inserts as u64 / 4;
            s.spawn(move || {
                for i in 0..per_thread {
                    let key = t * per_thread + i;
                    match client.insert(key, &sat(key, 2)) {
                        Ok(()) => acked.lock().unwrap().push(key),
                        Err(ServeError::Disconnected) => in_doubt.lock().unwrap().push(key),
                        Err(other) => panic!("insert({key}): {other}"),
                    }
                }
            });
        }
    });
    let acked = acked.into_inner().unwrap();
    let in_doubt = in_doubt.into_inner().unwrap();
    if !engine.crash_observed() {
        failures.push("crash point never fired during the drill".into());
    }

    // Reboot from the image alone.
    let mut shards = engine.shutdown();
    let image = {
        let disks = shards[0].disks_mut().unwrap();
        disks.clear_fault_plan();
        disks.clone()
    };
    drop(shards);
    let mut recovered = journaled().reopen(capacity, seed, image).unwrap();

    let mut acked_lost = 0;
    for &key in &acked {
        if recovered.lookup(key).satellite.as_deref() != Some(&sat(key, 2)[..]) {
            acked_lost += 1;
        }
    }
    let in_doubt_present = in_doubt
        .iter()
        .filter(|&&key| recovered.lookup(key).satellite.is_some())
        .count();
    if acked_lost > 0 {
        failures.push(format!(
            "{acked_lost} ACKED writes lost after the crash drill (gate: zero)"
        ));
    }
    if recovered.len() != acked.len() + in_doubt_present {
        failures.push(format!(
            "recovered counters ({}) disagree with recovered contents ({})",
            recovered.len(),
            acked.len() + in_doubt_present
        ));
    }

    // Graceful twin: serve, shut down (drain + checkpoint), reopen —
    // recovery must find a truncated ring and every ack present.
    let dict = journaled().build(capacity, &[], seed ^ 1);
    let engine = ServeEngine::new(vec![dict], EngineConfig::default());
    let client = engine.client();
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let client = client.clone();
            let per_thread = (inserts as u64 / 4).min(64);
            s.spawn(move || {
                for i in 0..per_thread {
                    let key = t * per_thread + i;
                    client.insert(key, &sat(key, 2)).unwrap();
                }
            });
        }
    });
    let shards = engine.shutdown();
    let expect = shards[0].len();
    let image = shards[0].disks().unwrap().clone();
    drop(shards);
    let mut reopened = journaled().reopen(capacity, seed ^ 1, image).unwrap();
    let report = reopened.recover();
    let graceful_replayable = report.replayed.len() + report.stalled as usize;
    if graceful_replayable > 0 {
        failures.push(format!(
            "graceful shutdown left {graceful_replayable} replayable journal intents"
        ));
    }
    if reopened.len() != expect {
        failures.push(format!(
            "graceful image lost records ({} vs {expect})",
            reopened.len()
        ));
    }

    let row = CrashReport {
        crash_after_writes: crash_at,
        acked: acked.len(),
        disconnected: in_doubt.len(),
        acked_lost,
        in_doubt_present,
        recovered_len: recovered.len(),
        graceful_replayable_intents: graceful_replayable,
    };
    println!(
        "crash drill: crash after {} writes — {} acked (all durable: {}), \
         {} disconnected ({} of them present after recovery), graceful twin replayed {}",
        row.crash_after_writes,
        row.acked,
        if row.acked_lost == 0 { "yes" } else { "NO" },
        row.disconnected,
        row.in_doubt_present,
        row.graceful_replayable_intents
    );
    row
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n_keys, per_client) = if smoke { (1024, 256) } else { (4096, 1024) };
    let keys = dense_keys(n_keys);
    let mut failures: Vec<String> = Vec::new();

    let coalescing = coalescing(&keys, per_client, &mut failures);
    let uncontended = uncontended(&keys);
    let overload = overload(&keys, uncontended.p99_us, &mut failures);
    let crash = crash_drill(if smoke { 256 } else { 512 }, &mut failures);

    let report = Report {
        smoke,
        shards: SHARDS,
        coalescing,
        uncontended,
        overload,
        crash,
    };
    bench::finish(
        "BENCH_serve",
        &report,
        &failures,
        "coalescing ≥ 3× fewer rounds/op than one-op-per-lock, overload rejects \
             typed with bounded tail latency, zero acked-but-lost writes in the crash drill",
    )
}
