//! The metric tables: every name the benchmark reports, with its unit, its
//! direction and, for end-to-end metrics, the bound by which it may worsen.
//! `BENCHMARK.json` at the repository root is printed from these tables and
//! the workload list (`--print-contract`); a unit test keeps the two equal.

use crate::stack::workloads;

/// Measured seconds of one contract run.
pub const RUN_SECONDS: u64 = 10;
/// Slices a run is cut into; a wall-clock metric is the median over them.
pub const SLICES: usize = 12;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// What a user of the system sees and this host can repeat; measured with
/// tracing off. The costs in rounds, written bytes, space and memory keep the
/// issue's bounds. Throughput, CPU per operation and the two median latencies
/// are what a user sees first, but ten runs of one build on this host spread
/// over more than a bound may be (README, "Bounds"), so they are reported as
/// timed under [`TIMED`] and gate nothing.
pub const END_TO_END: [EndToEnd; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("rounds_per_op", "count", "lower", 0.02),
    e2e("write_bytes_per_user_byte", "ratio", "lower", 0.02),
    e2e("space_bytes_per_key", "B", "lower", 0.02),
    e2e("rss_peak_mb", "MiB", "lower", 0.10),
];

/// Single layers; printed by the traced pass. A layer a workload does not
/// cross reads 0 in the result line and is left out of the printed table.
pub const PER_LAYER: [PerLayer; 72] = [
    layer("expander.neighbors_ns_per_key", "ns", "lower"),
    layer("loadbalance.place_ns_per_item", "ns", "lower"),
    layer("core.lookup_ns", "ns", "lower"),
    layer("core.insert_ns", "ns", "lower"),
    layer("core.delete_ns", "ns", "lower"),
    layer("core.lookup_batch64_ns_per_key", "ns", "lower"),
    layer("core.lookup_rounds", "count", "lower"),
    layer("core.insert_rounds", "count", "lower"),
    layer("core.delete_rounds", "count", "lower"),
    layer("core.rebuilds", "count", "lower"),
    layer("core.migrated_keys_per_op", "count", "lower"),
    layer("pdm.mem_round_ns", "ns", "lower"),
    layer("pdm.file_round_us", "us", "lower"),
    layer("pdm.file_sync_us", "us", "lower"),
    layer("pdm.blocks_read_per_op", "count", "lower"),
    layer("pdm.blocks_written_per_op", "count", "lower"),
    layer("pdm.syncs_per_update", "count", "lower"),
    layer("pdm.journal_rounds_per_update", "count", "lower"),
    layer("pdm.backend_busy_frac", "frac", "lower"),
    layer("cache.probe_hit_ns", "ns", "lower"),
    layer("cache.probe_miss_ns", "ns", "lower"),
    layer("cache.fill_ns", "ns", "lower"),
    layer("cache.hit_rate", "frac", "higher"),
    layer("cache.negative_hit_rate", "frac", "higher"),
    layer("cache.admit_rejects", "count", "lower"),
    layer("cache.evictions", "count", "lower"),
    layer("cache.invalidations", "count", "lower"),
    layer("server.codec_ns_per_op", "ns", "lower"),
    layer("server.ping_p50_us", "us", "lower"),
    layer("server.engine_sync_p50_us", "us", "lower"),
    layer("server.mean_batch", "count", "higher"),
    layer("server.dict_busy_frac", "frac", "lower"),
    layer("server.rejected_overloaded", "count", "lower"),
    layer("server.timed_out", "count", "lower"),
    layer("cluster.direct_lookup_p50_us", "us", "lower"),
    layer("cluster.write_fanout", "count", "lower"),
    layer("cluster.reads_failover", "count", "lower"),
    layer("cluster.transport_failures", "count", "lower"),
    layer("cluster.writes_refused", "count", "lower"),
    layer("cluster.suspects_latched", "count", "lower"),
    layer("trace.client_us", "us", "lower"),
    layer("trace.server_self_us", "us", "lower"),
    layer("trace.core_self_us", "us", "lower"),
    layer("trace.pdm_self_us", "us", "lower"),
    layer("trace.cluster_self_us", "us", "lower"),
    layer("trace.unattributed_frac", "frac", "lower"),
    layer("trace.overhead_frac", "frac", "lower"),
    layer("client.ops_per_s", "1/s", "higher"),
    layer("client.cpu_us_per_op", "us", "lower"),
    layer("client.lookup_p50_us", "us", "lower"),
    layer("client.update_p50_us", "us", "lower"),
    layer("client.lookup_tail_us", "us", "lower"),
    layer("client.lookup_tail_pct", "%", "higher"),
    layer("client.lookup_samples", "count", "higher"),
    layer("client.update_tail_us", "us", "lower"),
    layer("client.update_tail_pct", "%", "higher"),
    layer("client.update_samples", "count", "higher"),
    layer("client.slice_spread", "frac", "lower"),
    layer("client.gen_late_p99_us", "us", "lower"),
    layer("open.r1_p50_us", "us", "lower"),
    layer("open.r1_tail_us", "us", "lower"),
    layer("open.r1_ok_frac", "frac", "higher"),
    layer("open.r2_p50_us", "us", "lower"),
    layer("open.r2_tail_us", "us", "lower"),
    layer("open.r2_ok_frac", "frac", "higher"),
    layer("open.r3_p50_us", "us", "lower"),
    layer("open.r3_tail_us", "us", "lower"),
    layer("open.r3_ok_frac", "frac", "higher"),
    layer("open.max_ok_rate", "1/s", "higher"),
    layer("open.gen_late_p99_us", "us", "lower"),
    layer("host.ref_kernel_ns", "ns", "lower"),
    layer("host.ref_kernel_spread", "frac", "lower"),
];

/// The wall-clock values of an untraced run, as timed: printed by every run,
/// in the result line of the per-layer pass, and never gated.
pub const TIMED: [&str; 4] = [
    "client.ops_per_s",
    "client.cpu_us_per_op",
    "client.lookup_p50_us",
    "client.update_p50_us",
];

/// The table's own copy of `name`, if it is a metric of either table.
pub fn known(name: &str) -> Option<&'static str> {
    let names = END_TO_END.iter().map(|m| m.name);
    names
        .chain(PER_LAYER.iter().map(|m| m.name))
        .find(|n| *n == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

fn unit_of(name: &str) -> &'static str {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
        .unwrap_or_else(|| panic!("metric {name} is not in the tables"))
}

/// A set of measured values, by metric name.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn extend(&mut self, rows: Vec<(&'static str, f64)>) {
        for (name, value) in rows {
            self.set(name, value);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// One `metric <name> <value> <unit>` line per value measured.
    pub fn print(&self) {
        for (name, value) in &self.0 {
            println!("metric {name} {value} {}", unit_of(name));
        }
    }

    /// The `"metrics"` object of the result line: every name in `names`, in
    /// order, 0 for a name this run did not measure.
    pub fn json(&self, names: impl Iterator<Item = &'static str>) -> String {
        let fields: Vec<String> = names
            .map(|name| {
                let value = self.get(name).unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    unit_of(name)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The text of `BENCHMARK.json`.
pub fn contract_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = workloads()
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names = HashSet::new();
        for m in &END_TO_END {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(["lower", "higher"].contains(&m.better));
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(["lower", "higher"].contains(&m.better));
        }
        for w in workloads() {
            assert!(name_ok(w.name) && names.insert(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn committed_contract_is_the_printed_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            contract_json(),
            "regenerate with --print-contract"
        );
    }

    #[test]
    fn result_metrics_list_every_name_and_zero_the_unmeasured() {
        let mut v = Values::default();
        v.set("rounds_per_op", 1.25);
        let json = v.json(END_TO_END.iter().map(|m| m.name));
        assert!(json.contains("\"rounds_per_op\": {\"value\": 1.25, \"unit\": \"count\"}"));
        assert!(json.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert_eq!(json.matches("\"unit\"").count(), END_TO_END.len());
    }
}
