//! The open-loop ladder: two connections follow a fixed arrival schedule, so
//! requests do not wait for completions and a stall charges everything queued
//! behind it. Every request is timed from when it was *due*.

use crate::drive::{issue_sync, SyncTarget};
use crate::stats::{quantile_sorted, tail};
use crate::stream::{GenOp, Keyspace, Kind};
use std::time::{Duration, Instant};

/// Arrival rates of the rungs, operations per second over both connections.
pub const RATES: [f64; 3] = [4_000.0, 8_000.0, 16_000.0];
/// A request is on time when it finishes within this of its due time.
const LIMIT: Duration = Duration::from_millis(1);
/// Share of on-time requests a rung needs to count as sustained.
const OK_SHARE: f64 = 0.99;
/// Waits longer than this sleep; shorter ones yield, because a sleep cannot
/// hit a 125 µs interval.
const SLEEP_ABOVE: Duration = Duration::from_micros(300);

#[derive(Debug, Default)]
pub struct Rung {
    pub p50_us: f64,
    pub tail_us: f64,
    pub ok_frac: f64,
    pub failed: u64,
    pub attempted: u64,
    late_ns: Vec<u32>,
}

/// One connection's share of one rung: lookups of preloaded keys of `caller`
/// at `rate` per second for `length`. Returns (latencies from due, lateness
/// of issue, failures).
fn connection(
    target: &mut dyn SyncTarget,
    keys: Keyspace,
    caller: usize,
    preloaded: u64,
    rate: f64,
    length: Duration,
) -> (Vec<u32>, Vec<u32>, u64) {
    let interval = Duration::from_secs_f64(1.0 / rate);
    let count = (length.as_secs_f64() * rate) as u32;
    let (mut latency, mut late, mut failed) = (Vec::new(), Vec::new(), 0);
    let start = Instant::now();
    for k in 0..count {
        let due = start + interval * k;
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            if due - now > SLEEP_ABOVE {
                std::thread::sleep(due - now - SLEEP_ABOVE);
            } else {
                std::thread::yield_now();
            }
        }
        let idx = u64::from(k).wrapping_mul(0x9E37_79B9) % preloaded;
        let key = keys.key(caller as u64, idx);
        let op = GenOp {
            kind: Kind::Lookup,
            key,
            idx,
            present: true,
        };
        let issued = Instant::now();
        if issue_sync(target, &op).is_err() {
            failed += 1;
        }
        let ns = |d: Duration| u32::try_from(d.as_nanos()).unwrap_or(u32::MAX);
        late.push(ns(issued - due));
        latency.push(ns(due.elapsed()));
    }
    (latency, late, failed)
}

/// Run one rung over `targets` (one per connection).
pub fn rung(
    targets: &mut [Box<dyn SyncTarget>],
    seed: u64,
    preloaded_per_caller: u64,
    rate: f64,
    length: Duration,
) -> Rung {
    let keys = Keyspace::new(seed);
    let per_connection = rate / targets.len() as f64;
    let parts: Vec<(Vec<u32>, Vec<u32>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = targets
            .iter_mut()
            .enumerate()
            .map(|(caller, target)| {
                scope.spawn(move || {
                    connection(
                        target.as_mut(),
                        keys,
                        caller,
                        preloaded_per_caller,
                        per_connection,
                        length,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop thread panicked"))
            .collect()
    });
    let mut latency: Vec<u32> = Vec::new();
    let mut rung = Rung::default();
    for (mut l, mut late, failed) in parts {
        latency.append(&mut l);
        rung.late_ns.append(&mut late);
        rung.failed += failed;
    }
    latency.sort_unstable();
    rung.attempted = latency.len() as u64;
    rung.p50_us = f64::from(quantile_sorted(&latency, 0.5)) / 1e3;
    rung.tail_us = f64::from(tail(&latency).1) / 1e3;
    let on_time = latency.partition_point(|&ns| u128::from(ns) <= LIMIT.as_nanos());
    // A failed request misses every limit.
    rung.ok_frac =
        on_time.saturating_sub(rung.failed as usize) as f64 / latency.len().max(1) as f64;
    rung
}

/// Per-layer rows of a whole ladder.
pub fn rows(rungs: &[Rung]) -> Vec<(&'static str, f64)> {
    const NAMES: [[&str; 3]; 3] = [
        ["open.r1_p50_us", "open.r1_tail_us", "open.r1_ok_frac"],
        ["open.r2_p50_us", "open.r2_tail_us", "open.r2_ok_frac"],
        ["open.r3_p50_us", "open.r3_tail_us", "open.r3_ok_frac"],
    ];
    let mut out = Vec::new();
    // The highest rate sustained with every lower rate sustained too.
    let (mut max_ok, mut sustained) = (0.0, true);
    let mut late: Vec<u32> = Vec::new();
    for ((rung, names), rate) in rungs.iter().zip(NAMES).zip(RATES) {
        out.push((names[0], rung.p50_us));
        out.push((names[1], rung.tail_us));
        out.push((names[2], rung.ok_frac));
        sustained &= rung.ok_frac >= OK_SHARE;
        if sustained {
            max_ok = rate;
        }
        late.extend_from_slice(&rung.late_ns);
    }
    late.sort_unstable();
    out.push(("open.max_ok_rate", max_ok));
    out.push((
        "open.gen_late_p99_us",
        f64::from(quantile_sorted(&late, 0.99)) / 1e3,
    ));
    out
}
