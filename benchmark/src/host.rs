//! What the benchmark reads about the machine it runs on: CPU time and peak
//! memory of this process, the CPUs it may use, the scratch filesystem, and a
//! fixed control kernel whose time says how fast the host ran.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/self/stat`. Linux fixes
/// it at 100 for user space on every architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// Environment variable the pinned re-exec sets, holding the CPU it chose.
pub const PINNED_ENV: &str = "PDM_BENCHMARK_PINNED";
/// Environment variable carrying the CPU count seen before pinning.
pub const NPROC_ENV: &str = "PDM_BENCHMARK_NPROC";

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// CPU seconds (user + system, all threads) this process has used.
pub fn cpu_seconds() -> f64 {
    let stat = read("/proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, i.e. the 12th and 13th after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / TICKS_PER_SECOND
}

fn status_field(name: &str) -> Option<String> {
    read("/proc/self/status").lines().find_map(|l| {
        l.strip_prefix(name)
            .map(|v| v.trim_start_matches(':').trim().to_string())
    })
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn rss_peak_mib() -> f64 {
    status_field("VmHWM")
        .and_then(|v| {
            v.split_whitespace()
                .next()
                .and_then(|n| n.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The CPUs this process may run on, from `Cpus_allowed_list` ("0-1,4").
pub fn cpus_allowed() -> Vec<usize> {
    let list = status_field("Cpus_allowed_list").unwrap_or_default();
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Filesystem type holding `path`, by the longest mount point that prefixes
/// it in `/proc/self/mounts`.
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mut best: (usize, String) = (0, "unknown".into());
    for line in read("/proc/self/mounts").lines() {
        let mut fields = line.split_whitespace();
        let (Some(_dev), Some(mount), Some(fstype)) = (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        if path.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), fstype.to_string());
        }
    }
    best.1
}

/// Directory for file-backed shards and traces: `benchmark/target/tmp`
/// beside this crate's manifest when run from a checkout, so everything the
/// benchmark writes stays inside it.
pub fn scratch_dir() -> PathBuf {
    let base = if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/target")
    } else {
        PathBuf::from("target")
    };
    base.join("tmp")
}

/// Whether the scratch filesystem accepts `O_DIRECT`. The workloads never
/// use it (they run buffered); this only labels the environment block.
pub fn direct_io_available(scratch: &Path) -> bool {
    let dir = scratch.join(format!("direct-probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ok = pdm::FileBackend::create(
        &dir,
        1,
        512,
        1,
        pdm::FileBackendOptions::default().direct_io(true),
    )
    .is_ok();
    let _ = std::fs::remove_dir_all(&dir);
    ok
}

/// The control kernel: a fixed chain of dependent integer multiply-adds. It
/// touches no product code and no memory, so its time moves only with the
/// share of a CPU the host gives this process. Timed between slices and
/// printed beside the metrics (nothing is rescaled by it), so a slow host and
/// a slow program can be told apart. Runs twice and keeps the faster time: a
/// stray interruption can only add time.
pub fn ref_kernel_ns() -> f64 {
    let once = || {
        let t = Instant::now();
        let (mut acc, mut carry) = (0u64, 0u64);
        for i in 0..3_000_000u64 {
            acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
            carry = carry.wrapping_add(acc >> 60);
        }
        std::hint::black_box((acc, carry));
        t.elapsed().as_nanos() as f64
    };
    once().min(once())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        assert!(rss_peak_mib() > 0.0);
        assert!(!cpus_allowed().is_empty());
        assert!(cpu_seconds() >= 0.0);
    }
}
