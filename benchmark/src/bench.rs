//! One workload, run once: the bare pass that yields the end-to-end metrics,
//! and the traced pass that yields the per-layer ones.

use crate::drive::{run_slices, Caller, RunData, Schedule, Slice, SyncTarget, Target};
use crate::host::rss_peak_mib;
use crate::layers;
use crate::metrics::{Values, SLICES};
use crate::openloop;
use crate::stack::{
    remove_scratch, verify_reopened, verify_shards, ClusterStack, EngineStack, Instrument, Stack,
    Wire, Workload, CALLERS,
};
use crate::stats::{median, quantile_sorted, spread, tail};
use crate::stream::{CallerStream, Kind, DELETE_USER_BYTES, INSERT_USER_BYTES};
use crate::trace::tracer;
use pdm::Word;
use pdm_cluster::ClusterConfig;
use pdm_dict::Dict;
use pdm_server::protocol::{WireRequest, WireResponse};
use pdm_server::{EngineStats, Op, Reply, TcpClient};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Slices of the traced run, which yields shares and counts and is kept
/// shorter than the untraced reference before it: that one is a whole bare
/// run, and the timed `client.*` values of the per-layer pass are its.
const TRACED_SLICES: usize = 8;
const REFERENCE_SLICES: usize = SLICES;

/// Set-ups of a bare run. One set-up takes 0.3 to 2 s and on this host
/// repeats to a quarter or a third of itself (the first touches fresh memory
/// the host has to find), so the run sets up three times and `setup_s` is the
/// median.
const SETUPS: usize = 3;

pub struct RunOptions {
    pub seed: u64,
    /// Nominal measured seconds, cut into [`SLICES`] slices.
    pub seconds: f64,
    pub scratch: PathBuf,
}

impl RunOptions {
    fn schedule(&self, slices: usize) -> Schedule {
        // The warm-up is one more slice, a twelfth of the run length.
        Schedule {
            slices,
            slice: Duration::from_secs_f64(self.seconds / SLICES as f64),
        }
    }
}

/// What one run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

/// Attempts and failures gathered along a run. A reply that contradicts the
/// model, an error reply and a refusal are all failures.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn add_run(&mut self, data: &RunData) {
        for slice in std::iter::once(&data.warmup).chain(&data.slices) {
            self.add(slice.ops, slice.failed);
        }
        if let Some(error) = &data.first_error {
            println!("first_failure {error}");
        }
    }

    fn outcome(self, values: Values) -> Outcome {
        Outcome {
            correct: self.failed == 0,
            attempted: self.attempted.max(1),
            failed: self.failed,
            values,
        }
    }
}

fn callers<'w>(w: &'w Workload, stack: &Stack, seed: u64, traced: bool) -> Vec<Caller<'w>> {
    (0..CALLERS)
        .map(|c| {
            let target = match stack {
                Stack::Engine(e) if w.wire == Wire::Tcp => Target::Sync(Box::new(e.connect())),
                Stack::Engine(e) => Target::Pipelined(e.client()),
                Stack::Cluster(cl) => Target::Sync(Box::new(Arc::clone(&cl.router))),
            };
            Caller::new(w, w.caller_stream(seed, c), target, traced)
        })
        .collect()
}

fn sorted(slices: &[Slice], pick: impl Fn(&Slice) -> &Vec<u32>) -> Vec<u32> {
    let mut all: Vec<u32> = slices
        .iter()
        .flat_map(|s| pick(s).iter().copied())
        .collect();
    all.sort_unstable();
    all
}

/// Each slice's median latency, microseconds; a slice without a sample of the
/// kind is left out.
fn slice_p50s(slices: &[Slice], pick: impl Fn(&Slice) -> &Vec<u32>) -> Vec<f64> {
    slices
        .iter()
        .filter(|s| !pick(s).is_empty())
        .map(|s| {
            let mut v = pick(s).clone();
            v.sort_unstable();
            f64::from(quantile_sorted(&v, 0.5)) / 1e3
        })
        .collect()
}

/// Median over slices of the operations per second.
fn median_rate(slices: &[Slice]) -> f64 {
    median(&slices.iter().map(Slice::ops_per_s).collect::<Vec<_>>())
}

/// Print a run's slices: rate, CPU and the control kernel's time after each,
/// and the slices' median latencies.
fn print_slices(data: &RunData) {
    for (i, s) in data.slices.iter().enumerate() {
        println!(
            "slice {i} wall_s={:.4} ops_per_s={:.1} cpu_us_per_op={:.3} ref_kernel_ns={:.0}{}",
            s.wall_s,
            s.ops_per_s(),
            s.cpu_us_per_op(),
            // Timings 0 and 1 are those around the warm-up.
            data.ref_kernel_ns[i + 2],
            if s.cut_short {
                " cut short by the time cap"
            } else {
                ""
            }
        );
    }
    println!(
        "slice lookup_p50_us {:.1?}",
        slice_p50s(&data.slices, |s| &s.lookup_ns)
    );
    println!(
        "slice update_p50_us {:.1?}",
        slice_p50s(&data.slices, |s| &s.update_ns)
    );
}

/// The client-side values of an untraced run: throughput, CPU, latencies and
/// their tails, every one as timed, with the control kernel's time beside
/// them. None of them is gated: this host cannot repeat them (README,
/// "Bounds").
fn client_values(values: &mut Values, data: &RunData) {
    let slices = &data.slices;
    print_slices(data);
    let rates: Vec<f64> = slices.iter().map(Slice::ops_per_s).collect();
    let cpu: Vec<f64> = slices.iter().map(Slice::cpu_us_per_op).collect();
    values.set("client.ops_per_s", median(&rates));
    values.set("client.cpu_us_per_op", median(&cpu));
    values.set(
        "client.lookup_p50_us",
        median(&slice_p50s(slices, |s| &s.lookup_ns)),
    );
    values.set(
        "client.update_p50_us",
        median(&slice_p50s(slices, |s| &s.update_ns)),
    );
    let lookups = sorted(slices, |s| &s.lookup_ns);
    let updates = sorted(slices, |s| &s.update_ns);
    let (pct, at) = tail(&lookups);
    values.set("client.lookup_tail_us", f64::from(at) / 1e3);
    values.set("client.lookup_tail_pct", pct);
    values.set("client.lookup_samples", lookups.len() as f64);
    let (pct, at) = tail(&updates);
    values.set("client.update_tail_us", f64::from(at) / 1e3);
    values.set("client.update_tail_pct", pct);
    values.set("client.update_samples", updates.len() as f64);
    values.set("client.slice_spread", spread(&rates));
    let gaps = sorted(slices, |s| &s.gap_ns);
    values.set(
        "client.gen_late_p99_us",
        f64::from(quantile_sorted(&gaps, 0.99)) / 1e3,
    );
    values.set("host.ref_kernel_ns", median(&data.ref_kernel_ns));
    values.set("host.ref_kernel_spread", spread(&data.ref_kernel_ns));
}

fn print_stream(streams: &[CallerStream]) {
    let hash = streams
        .iter()
        .fold(0u64, |h, s| expander::mix::mix64(h ^ s.hash()));
    let hashed: u64 = streams.iter().map(CallerStream::hashed_ops).sum();
    println!("stream_hash={hash:016x} hashed_ops={hashed}");
    if streams.iter().any(CallerStream::budget_exhausted) {
        println!("note insert headroom ran out: later updates were issued as lookups");
    }
}

/// Acknowledged operations of a whole serving period (warm-up included), and
/// the user bytes of its updates.
struct Served {
    ops: u64,
    user_bytes: u64,
    live_keys: u64,
}

impl Served {
    fn of(data: &RunData) -> Served {
        let ops = std::iter::once(&data.warmup)
            .chain(&data.slices)
            .map(|s| s.ops - s.failed)
            .sum();
        let inserts: u64 = data.streams.iter().map(|s| s.acked_inserts).sum();
        let deletes: u64 = data.streams.iter().map(|s| s.acked_deletes).sum();
        Served {
            ops,
            user_bytes: inserts * INSERT_USER_BYTES + deletes * DELETE_USER_BYTES,
            live_keys: data.streams.iter().map(CallerStream::live_count).sum(),
        }
    }
}

fn storage_values(
    values: &mut Values,
    served: &Served,
    rounds: f64,
    written_bytes: f64,
    stored_bytes: f64,
) {
    values.set("rounds_per_op", rounds / served.ops.max(1) as f64);
    values.set(
        "write_bytes_per_user_byte",
        written_bytes / served.user_bytes.max(1) as f64,
    );
    values.set(
        "space_bytes_per_key",
        stored_bytes / served.live_keys.max(1) as f64,
    );
}

/// Shut an engine stack down, read its storage counters, and check the final
/// image against the model — for a file-backed stack on the directories
/// reopened from the files alone.
fn finish_engine(
    w: &Workload,
    stack: EngineStack,
    data: &RunData,
    tally: &mut Tally,
) -> crate::stack::StorageReport {
    let (report, mut shards, dirs) = stack.shutdown();
    let (checked, failed) = if w.file_backed {
        drop(shards);
        verify_reopened(w, &dirs, &data.streams)
    } else {
        verify_shards(w, &mut shards, &data.streams)
    };
    println!(
        "final_image checked={checked} unreadable={failed} reopened_from_files={}",
        w.file_backed
    );
    tally.add(checked, failed);
    report
}

/// Pull every hosted shard's image from every node over the wire; bytes in all.
fn exported_bytes(cluster: &ClusterStack) -> Result<u64, String> {
    let mut total = 0u64;
    for node in &cluster.nodes {
        let mut conn = TcpClient::connect(node.local_addr()).map_err(|e| e.to_string())?;
        for shard in node.hosted() {
            let mut chunk = 0;
            loop {
                let request = WireRequest::MigrateExport { shard, chunk };
                match conn.request(&request).map_err(|e| e.to_string())? {
                    WireResponse::ExportChunk {
                        total: chunks,
                        bytes,
                        ..
                    } => {
                        total += bytes.len() as u64;
                        chunk += 1;
                        if chunk >= chunks {
                            break;
                        }
                    }
                    other => return Err(format!("export of shard {shard} answered {other:?}")),
                }
            }
        }
    }
    Ok(total)
}

/// Rounds and written bytes of the cluster's replicas, taken on shadow shards:
/// the nodes own their arrays and export no counter, so the streams the
/// callers issued are generated again and applied to shards built by the
/// function the nodes use, each update counted once per trusted replica of
/// its shard. `streams` are the callers' streams as the run left them.
fn cluster_shadow(
    config: &ClusterConfig,
    replicas: &[usize],
    seed: u64,
    w: &Workload,
    streams: &[CallerStream],
) -> (f64, f64) {
    let mut shards: Vec<Box<dyn Dict + Send>> = (0..config.shards)
        .map(|s| pdm_cluster::node::build_shard(config, s))
        .collect();
    let (per_caller, _) = w.per_caller();
    for caller in 0..CALLERS {
        for (key, sat) in CallerStream::preload(seed, caller, per_caller) {
            shards[config.shard_of(key) as usize]
                .insert(key, &sat)
                .expect("shadow preload");
        }
    }
    let block_bytes = shards[0].disks().map_or(0, |d| d.block_words() * 8) as f64;
    let (mut rounds, mut written) = (0.0, 0.0);
    let mut replay: Vec<CallerStream> = (0..CALLERS).map(|c| w.caller_stream(seed, c)).collect();
    let issued: Vec<u64> = streams.iter().map(CallerStream::issued).collect();
    let mut window = Vec::new();
    for i in 0..issued.iter().copied().max().unwrap_or(0) {
        for (stream, _) in replay.iter_mut().zip(&issued).filter(|(_, &n)| i < n) {
            stream.next_window(1, &mut window);
            stream.commit();
            let op = window[0];
            let s = config.shard_of(op.key) as usize;
            let fanout = replicas[s] as f64;
            match op.kind {
                Kind::Lookup => rounds += shards[s].lookup(op.key).cost.parallel_ios as f64,
                Kind::Insert => {
                    let cost = shards[s]
                        .insert(op.key, &op.satellite())
                        .expect("shadow insert");
                    rounds += fanout * cost.parallel_ios as f64;
                    written += fanout * cost.block_writes as f64 * block_bytes;
                }
                Kind::Delete => {
                    let (_, cost) = shards[s].delete(op.key).expect("shadow delete");
                    rounds += fanout * cost.parallel_ios as f64;
                    written += fanout * cost.block_writes as f64 * block_bytes;
                }
            }
        }
    }
    (rounds, written)
}

fn trusted_replicas(cluster: &ClusterStack) -> Vec<usize> {
    let map = cluster.router.map_snapshot();
    (0..cluster.config.shards)
        .map(|s| map.replicas(s).len())
        .collect()
}

/// The bare pass: tracing off, the product as shipped. Yields every
/// end-to-end metric, and prints the timed `client.*` values beside them.
pub fn run_bare(w: &Workload, opts: &RunOptions, process_start: Instant) -> Outcome {
    let mut values = Values::default();
    let mut tally = Tally::default();
    // Process start to callers connected: backends created, shards built and
    // preloaded, engine, server or nodes started. Done SETUPS times, each on
    // a fresh stack, and the median is reported; the run uses the last.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut started = process_start;
    let (stack, callers) = loop {
        let stack = Stack::build(w, opts.seed, &opts.scratch, Instrument::Bare);
        let callers = callers(w, &stack, opts.seed, false);
        setups.push(started.elapsed().as_secs_f64());
        if setups.len() == SETUPS {
            break (stack, callers);
        }
        drop(callers);
        stack.discard();
        remove_scratch(&opts.scratch);
        started = Instant::now();
    };
    println!("setup_s each {setups:.3?}");
    values.set("setup_s", median(&setups));

    let data = run_slices(callers, opts.schedule(SLICES), false);
    tally.add_run(&data);
    client_values(&mut values, &data);
    print_stream(&data.streams);
    let served = Served::of(&data);

    match stack {
        Stack::Engine(engine) => {
            print_engine_stats(&engine.engine.stats());
            let report = finish_engine(w, engine, &data, &mut tally);
            storage_values(
                &mut values,
                &served,
                report.parallel_ios as f64,
                (report.block_writes * crate::stack::BLOCK_BYTES) as f64,
                report.storage_bytes as f64,
            );
        }
        Stack::Cluster(cluster) => {
            let replicas = trusted_replicas(&cluster);
            let stored = exported_bytes(&cluster).unwrap_or_else(|e| {
                println!("first_failure image export: {e}");
                tally.add(1, 1);
                0
            });
            let config = cluster.config;
            cluster.shutdown();
            let (rounds, written) = cluster_shadow(&config, &replicas, opts.seed, w, &data.streams);
            println!("note cluster_mixed: rounds and written bytes come from shadow shards, space from exported images");
            storage_values(&mut values, &served, rounds, written, stored as f64);
        }
    }
    remove_scratch(&opts.scratch);
    values.set("rss_peak_mb", rss_peak_mib());
    tally.outcome(values)
}

fn print_engine_stats(stats: &EngineStats) {
    println!(
        "engine submitted={} acked={} dict_errors={} rejected_overloaded={} timed_out={} mean_batch={:.2}",
        stats.submitted,
        stats.acked,
        stats.dict_errors,
        stats.rejected_overloaded,
        stats.rejected_timedout,
        stats.mean_batch()
    );
}

/// Probes of the untraced reference stack: what a call costs at each
/// boundary, so the wire's and the router's share is a subtraction.
fn boundary_probes(values: &mut Values, w: &Workload, stack: &Stack, seed: u64, tally: &mut Tally) {
    let (preloaded, _) = w.per_caller();
    let probe = w.caller_stream(seed, 0);
    let key_at = |i: usize| probe.key_of(i as u64 % preloaded);
    let want = |i: usize| crate::stream::satellite(key_at(i), i as u64 % preloaded);
    let (mut checked, mut bad) = (0u64, 0u64);
    let mut check = |got: Option<Vec<Word>>, i: usize| {
        checked += 1;
        if got.as_deref() != Some(want(i).as_slice()) {
            bad += 1;
        }
    };
    match stack {
        Stack::Engine(engine) => {
            let client = engine.client();
            let us = layers::p50_us(|i| check(client.lookup(key_at(i)).ok().flatten(), i));
            values.set("server.engine_sync_p50_us", us);
            if w.wire == Wire::Tcp {
                let mut conn = engine.connect();
                values.set(
                    "server.ping_p50_us",
                    layers::p50_us(|_| conn.ping().expect("ping")),
                );
            }
        }
        Stack::Cluster(cluster) => {
            // Straight to the primary of each key's shard, past the router.
            let map = cluster.router.map_snapshot();
            let mut conns: Vec<TcpClient> = cluster
                .nodes
                .iter()
                .map(|n| TcpClient::connect(n.local_addr()).expect("connect to a node"))
                .collect();
            let us = layers::p50_us(|i| {
                let shard = cluster.config.shard_of(key_at(i));
                let request = WireRequest::ShardOp {
                    shard,
                    epoch: map.epoch(),
                    op: Op::Lookup(key_at(i)),
                };
                match conns[map.primary(shard)].request(&request) {
                    Ok(WireResponse::Reply(Reply::Lookup(sat))) => check(sat, i),
                    _ => check(None, i),
                }
            });
            values.set("cluster.direct_lookup_p50_us", us);
            let mut conn =
                TcpClient::connect(cluster.nodes[0].local_addr()).expect("connect to a node");
            values.set(
                "server.ping_p50_us",
                layers::p50_us(|_| conn.ping().expect("ping")),
            );
        }
    }
    tally.add(checked, bad);
}

fn open_loop_ladder(
    values: &mut Values,
    w: &Workload,
    engine: &EngineStack,
    opts: &RunOptions,
    tally: &mut Tally,
) {
    let (preloaded, _) = w.per_caller();
    let mut targets: Vec<Box<dyn SyncTarget>> = (0..CALLERS)
        .map(|_| Box::new(engine.connect()) as Box<dyn SyncTarget>)
        .collect();
    // An eighth of the run length per rung: 1.25 s each at 10 s.
    let length = Duration::from_secs_f64(opts.seconds / 8.0);
    let rungs: Vec<openloop::Rung> = openloop::RATES
        .iter()
        .map(|&rate| openloop::rung(&mut targets, opts.seed, preloaded, rate, length))
        .collect();
    for rung in &rungs {
        tally.add(rung.attempted, rung.failed);
    }
    values.extend(openloop::rows(&rungs));
}

/// The traced pass: an untraced reference (boundary probes, the open-loop
/// ladder on `tcp_mem_lookup`, a bare run whose timings are the `client.*`
/// values), then the same workload on decorated shards with spans on. Yields
/// the per-layer metrics; end-to-end metrics never come from here.
pub fn run_traced(w: &Workload, opts: &RunOptions) -> Outcome {
    let mut values = Values::default();
    let mut tally = Tally::default();

    // Isolated layer calls, on the workload's configuration.
    let mut rows = Vec::new();
    layers::expander(&mut rows, w);
    layers::core(&mut rows, w, opts.seed, &opts.scratch);
    layers::pdm_mem(&mut rows);
    if w.file_backed {
        layers::pdm_file(&mut rows, &opts.scratch);
    }
    if let Some(cache) = w.engine.cache {
        layers::cache(&mut rows, cache);
    }
    if w.wire != Wire::InProcess {
        layers::codec(&mut rows);
    }
    if w.wire == Wire::Cluster {
        layers::loadbalance(&mut rows, w);
    }
    values.extend(rows);
    remove_scratch(&opts.scratch);

    // The untraced reference.
    let stack = Stack::build(w, opts.seed, &opts.scratch, Instrument::Bare);
    boundary_probes(&mut values, w, &stack, opts.seed, &mut tally);
    if let (Stack::Engine(engine), "tcp_mem_lookup") = (&stack, w.name) {
        open_loop_ladder(&mut values, w, engine, opts, &mut tally);
    }
    let reference = run_slices(
        callers(w, &stack, opts.seed, false),
        opts.schedule(REFERENCE_SLICES),
        false,
    );
    tally.add_run(&reference);
    client_values(&mut values, &reference);
    // Slice for slice the traced run's twin: a cache that is still warming
    // makes later slices faster, and the reference has more of them.
    let bare_rate = median_rate(&reference.slices[..TRACED_SLICES.min(reference.slices.len())]);
    stack.discard();
    remove_scratch(&opts.scratch);

    // The traced run.
    let stack = Stack::build(w, opts.seed, &opts.scratch, Instrument::Traced);
    let data = run_slices(
        callers(w, &stack, opts.seed, true),
        opts.schedule(TRACED_SLICES),
        true,
    );
    tally.add_run(&data);
    print_slices(&data);
    print_stream(&data.streams);
    let wall: f64 = data.slices.iter().map(|s| s.wall_s).sum();
    let measured_ops: u64 = data.slices.iter().map(|s| s.ops - s.failed).sum();
    let served = Served::of(&data);
    let traced_rate = median_rate(&data.slices);
    values.set("trace.overhead_frac", 1.0 - traced_rate / bare_rate);

    match stack {
        Stack::Engine(engine) => {
            let stats = engine.engine.stats();
            print_engine_stats(&stats);
            values.set("server.mean_batch", stats.mean_batch());
            values.set(
                "server.rejected_overloaded",
                stats.rejected_overloaded as f64,
            );
            values.set("server.timed_out", stats.rejected_timedout as f64);
            if let Some(c) = engine.engine.cache_counters() {
                let probes = (c.hits + c.negative_hits + c.misses).max(1) as f64;
                values.set("cache.hit_rate", (c.hits + c.negative_hits) as f64 / probes);
                values.set("cache.negative_hit_rate", c.negative_hits as f64 / probes);
                values.set("cache.admit_rejects", c.rejected as f64);
                values.set("cache.evictions", c.evicted as f64);
                values.set("cache.invalidations", c.invalidated as f64);
            }
            if let Some(registry) = &engine.registry {
                let labels = [("dict", "rebuild")];
                values.set(
                    "core.rebuilds",
                    registry.counter("dict_rebuilds_total", &labels).get() as f64,
                );
                let migrated = registry
                    .histogram("dict_migrated_keys_per_op", &labels)
                    .snapshot();
                values.set("core.migrated_keys_per_op", migrated.mean());
            }
            let counted =
                |pick: fn(&crate::trace::BackendCounts) -> &std::sync::atomic::AtomicU64| -> f64 {
                    engine
                        .counts
                        .iter()
                        .map(|c| pick(c).load(Ordering::Relaxed))
                        .sum::<u64>() as f64
                };
            let (read, written, syncs) = (
                counted(|c| &c.blocks_read),
                counted(|c| &c.blocks_written),
                counted(|c| &c.syncs),
            );
            let updates: u64 = data
                .streams
                .iter()
                .map(|s| s.acked_inserts + s.acked_deletes)
                .sum();
            let report = finish_engine(w, engine, &data, &mut tally);
            // The rebuilding Dictionary builds its own array, so no decorator
            // sits under it; its block counts are the array's own.
            let wrapped = read + written > 0.0;
            let ops = served.ops.max(1) as f64;
            values.set(
                "pdm.blocks_read_per_op",
                if wrapped {
                    read
                } else {
                    report.block_reads as f64
                } / ops,
            );
            values.set(
                "pdm.blocks_written_per_op",
                if wrapped {
                    written
                } else {
                    report.block_writes as f64
                } / ops,
            );
            values.set("pdm.syncs_per_update", syncs / updates.max(1) as f64);
        }
        Stack::Cluster(cluster) => {
            let stats = cluster.router.stats();
            let replicas = trusted_replicas(&cluster);
            values.set(
                "cluster.write_fanout",
                replicas.iter().sum::<usize>() as f64 / replicas.len().max(1) as f64,
            );
            values.set("cluster.reads_failover", stats.reads_failover as f64);
            values.set(
                "cluster.transport_failures",
                stats.transport_failures as f64,
            );
            values.set("cluster.writes_refused", stats.writes_refused as f64);
            values.set("cluster.suspects_latched", stats.suspects_latched as f64);
            cluster.shutdown();
        }
    }

    // Beside the scratch directory, in `benchmark/target`.
    let trace_path = crate::host::scratch_dir().with_file_name(format!("trace-{}.json", w.name));
    match tracer().finish(&trace_path) {
        Ok(sum) => {
            let per_op = |ns: u64| ns as f64 / 1e3 / sum.client_ops.max(1) as f64;
            values.set("trace.client_us", per_op(sum.client_ns));
            // The client span is the outermost call into `pdm-cluster`, or
            // into `pdm-server`: its self time is that layer's.
            let client_layer = if w.wire == Wire::Cluster {
                "trace.cluster_self_us"
            } else {
                "trace.server_self_us"
            };
            values.set(client_layer, per_op(sum.client_self_ns));
            values.set("trace.unattributed_frac", sum.unattributed_frac());
            // No decorator sits inside a cluster node.
            if w.wire != Wire::Cluster {
                values.set("trace.core_self_us", per_op(sum.core_self_ns));
                values.set("trace.pdm_self_us", per_op(sum.pdm_self_ns));
                values.set("server.dict_busy_frac", sum.core_ns as f64 / 1e9 / wall);
                values.set("pdm.backend_busy_frac", sum.pdm_ns as f64 / 1e9 / wall);
            }
            println!(
                "trace file={} client_ops={} measured_ops={measured_ops}",
                trace_path.display(),
                sum.client_ops
            );
        }
        Err(e) => {
            println!("first_failure writing the trace: {e}");
            tally.add(1, 1);
        }
    }
    remove_scratch(&opts.scratch);
    tally.outcome(values)
}
