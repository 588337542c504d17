//! RECORDS — what a record costs as it widens, in each layout.
//!
//! `DynamicDict` stores a record in its membership slot when a bucket of
//! `[flags, key, σ words]` slots fits one block, and as Theorem 7's chain
//! otherwise; the layout follows from (σ, N, B) alone. This sweeps σ from 0
//! words up past the width where the slot stops fitting, at B = 64 and 128
//! words, so both layouts show, beside §4.1's wide dictionary (`k = d/2`
//! chunks a key, its record padded to a multiple of `k` words). For each it
//! inserts `n` keys into a structure of capacity `2n`, looks every one up
//! and as many absent keys, deletes an eighth, and reports blocks written
//! per insert and per delete, bytes written per byte of key and record,
//! bytes stored per key, and rounds per operation. It then states the
//! crossover: the widest record stored inline, against the narrowest
//! chained. A shape whose bucket fits a block in neither layout (Theorem 7
//! inherits `B = Ω(log n)`) is listed as not built.
//!
//! Then it states the cluster nodes' rule: for each σ, at N = 4 096 and at
//! `cluster_mixed`'s N = 5 440, the block `ClusterConfig::block_words`
//! derives (the smallest power of two from 64 to 512 words that stores the
//! record inline, else 64 and chained), and that shape's write and space
//! cost against the same record at B = 64, chained from σ = 2. Each shape
//! holds N / 2 keys. It reports; it gates nothing.
//!
//! Writes `target/experiments/record_sweep.json`.
//!
//! Run (2 048 keys): `cargo run -p bench --release --bin record_sweep`
//! Smoke (256 keys): `cargo run -p bench --release --bin record_sweep -- --smoke`

use bench::fronts::{front, Front};
use bench::workloads::{entries_for, miss_probes, uniform_keys};
use pdm_cluster::ClusterConfig;
use pdm_dict::{DictError, DictParams, DynamicDict};
use serde::Serialize;

const UNIVERSE: u64 = 1 << 40;

#[derive(Serialize)]
struct Row {
    block_words: usize,
    sigma: usize,
    structure: &'static str,
    /// `inline`, `chained` or `wide`.
    layout: &'static str,
    /// Words stored a record (`wide` pads σ to a multiple of its `k`).
    record_words: usize,
    capacity: usize,
    n: usize,
    written_per_insert: f64,
    written_per_delete: f64,
    write_bytes_per_user_byte: f64,
    stored_bytes_per_key: f64,
    insert_rounds: f64,
    lookup_rounds: f64,
    miss_rounds: f64,
    delete_rounds: f64,
}

/// Build `f` at `capacity`, insert half that many keys and run the sweep's
/// operations on them; the build's error if the shape does not meet its
/// structure's conditions.
fn measure(f: &Front, layout: &'static str, sigma: usize, capacity: usize) -> Result<Row, DictError> {
    let n = capacity / 2;
    let keys = uniform_keys(n, UNIVERSE, 0x5EC0 + sigma as u64);
    let entries = entries_for(&keys, f.sigma);
    let measured = f.measured(capacity, &[], 0x5EC1)?;
    let (mut dict, desc) = (measured.dict, measured.desc);
    let writes = |dict: &dyn pdm_dict::Dict| dict.disks().expect("one array").stats().block_writes;
    let (mut insert_rounds, before) = (0, writes(dict.as_ref()));
    for (k, s) in &entries {
        insert_rounds += dict.insert(*k, s).expect("the sweep's inserts fit").parallel_ios;
    }
    let inserted = writes(dict.as_ref()) - before;
    let stored = desc.space_words(dict.as_ref()) * 8;
    let lookup_rounds: u64 = keys.iter().map(|&k| dict.lookup(k).cost.parallel_ios).sum();
    let misses = miss_probes(&keys, UNIVERSE, n, 0x5EC2);
    let miss_rounds: u64 = misses.iter().map(|&k| dict.lookup(k).cost.parallel_ios).sum();
    let doomed = &keys[..n / 8];
    let (mut delete_rounds, before) = (0, writes(dict.as_ref()));
    for &k in doomed {
        delete_rounds += dict.delete(k).expect("the sweep's deletes land").1.parallel_ios;
    }
    let deleted = writes(dict.as_ref()) - before;
    let per = |total: u64, ops: usize| total as f64 / ops as f64;
    Ok(Row {
        block_words: f.block_words,
        sigma,
        structure: f.name,
        layout,
        record_words: f.sigma,
        capacity,
        n,
        written_per_insert: per(inserted, n),
        written_per_delete: per(deleted, doomed.len()),
        write_bytes_per_user_byte: per(inserted * f.block_words as u64, n) / (1 + f.sigma) as f64,
        stored_bytes_per_key: stored as f64 / n as f64,
        insert_rounds: per(insert_rounds, n),
        lookup_rounds: per(lookup_rounds, n),
        miss_rounds: per(miss_rounds, n),
        delete_rounds: per(delete_rounds, doomed.len()),
    })
}

fn main() -> std::process::ExitCode {
    // 4 096 keys of capacity: the largest power of two at which a chained
    // bucket (21 slots of 3 words) still fits a 64-word block.
    let n = if std::env::args().any(|a| a == "--smoke") { 256 } else { 2048 };
    println!(
        "{:>4} {:>3} {:<8} {:>6} | {:>9} {:>9} {:>9} {:>10} | {:>6} {:>6} {:>6} {:>6}",
        "B", "σ", "layout", "words", "wr/ins", "wr/del", "wB/uB", "stored B/k", "ins", "lkp", "miss", "del"
    );
    let (mut rows, mut crossovers, mut unbuilt) = (Vec::new(), Vec::new(), Vec::new());
    for block_words in [64, 128] {
        let dynamic = Front { block_words, universe: UNIVERSE, ..front("dynamic") };
        let wide = Front { block_words, universe: UNIVERSE, ..front("wide") };
        let k = wide.degree / 2;
        let inline = |sigma| {
            let params = DictParams::new(2 * n, UNIVERSE, sigma).with_degree(dynamic.degree);
            DynamicDict::records_inline(&params, block_words)
        };
        // Every width that fits, and two that do not.
        let widest = (0..).take_while(|&sigma| inline(sigma)).last();
        let last = widest.map_or(1, |w| w + 2);
        for sigma in 0..=last {
            let layout = if inline(sigma) { "inline" } else { "chained" };
            let chunks = sigma.div_ceil(k).max(1);
            for (f, layout) in [(Front { sigma, ..dynamic.clone() }, layout), (Front { sigma: k * chunks, ..wide.clone() }, "wide")] {
                let row = match measure(&f, layout, sigma, 2 * n) {
                    Ok(row) => row,
                    Err(e) => {
                        println!("{block_words:>4} {sigma:>3} {layout:<8} {:>6} | does not build: {e}", f.sigma);
                        unbuilt.push(format!("B = {block_words}, σ = {sigma}, {layout}: {e}"));
                        continue;
                    }
                };
                println!("{row}");
                rows.push(row);
            }
        }
        let at = |sigma: usize, layout| {
            let row = rows.iter().find(|r| r.block_words == block_words && r.sigma == sigma && r.layout == layout);
            row.map_or("its bucket does not fit a block either".to_string(), |r| {
                format!("{:.2} blocks written an insert, {:.0} B stored a key", r.written_per_insert, r.stored_bytes_per_key)
            })
        };
        let first_chained = widest.map_or(0, |w| w + 1);
        let stored = widest.map_or("no record width is stored inline".to_string(), |w| {
            format!("records of ≤ {w} words are stored inline ({})", at(w, "inline"))
        });
        let crossover = format!(
            "B = {block_words}, N = {}: {stored}; from {first_chained} words they are chained ({})",
            2 * n,
            at(first_chained, "chained")
        );
        println!("crossover: {crossover}");
        crossovers.push(crossover);
    }
    let (node_rule, rules) = node_rule();
    #[derive(Serialize)]
    struct Report {
        rows: Vec<Row>,
        crossovers: Vec<String>,
        /// Shapes that do not meet their structure's conditions.
        unbuilt: Vec<String>,
        node_rule: Vec<NodeShape>,
        rules: Vec<String>,
    }
    bench::finish("record_sweep", &Report { rows, crossovers, unbuilt, node_rule, rules }, &[], "")
}

/// One record width under the cluster nodes' block rule.
#[derive(Serialize)]
struct NodeShape {
    /// On the block `ClusterConfig::block_words` derives.
    derived: Row,
    /// The same record on 64-word blocks.
    at_64: Row,
}

/// For each σ from 0 to one past the widest the rule stores inline, at
/// N = 4 096 and 5 440: the derived block's costs against B = 64's, and the
/// narrowest chained record on 1 024-word blocks. Returns the shapes and one
/// summary line a capacity.
fn node_rule() -> (Vec<NodeShape>, Vec<String>) {
    println!("node rule: ClusterConfig::block_words against B = 64");
    println!(
        "{:>5} {:>3} {:>4} {:<8} | {:>9} {:>9} {:>10} {:>10} | {:>6} {:>6}",
        "N", "σ", "B", "layout", "wB/uB", "@64", "stored B/k", "@64", "ins", "@64"
    );
    let (mut shapes, mut rules) = (Vec::new(), Vec::new());
    for capacity in [4096, 5440] {
        let cluster = |sigma| ClusterConfig { shard_capacity: capacity, universe: UNIVERSE, sigma, ..ClusterConfig::default() };
        let inline = |sigma, block_words| DynamicDict::records_inline(&cluster(sigma).shard_params(0), block_words);
        let layout = |sigma, block_words| if inline(sigma, block_words) { "inline" } else { "chained" };
        let chained_from = (0..).find(|&sigma| !inline(sigma, cluster(sigma).block_words())).expect("a wide record chains");
        let (mut first_sigma, mut write_gain, mut space_gain) = (Vec::<(usize, usize)>::new(), Vec::new(), Vec::new());
        // Indexed by σ.
        let mut widths = Vec::new();
        for sigma in 0..=chained_from + 1 {
            let block_words = cluster(sigma).block_words();
            let row = |b| {
                let f = Front { block_words: b, universe: UNIVERSE, sigma, ..front("dynamic") };
                measure(&f, layout(sigma, b), sigma, capacity).expect("every node shape builds")
            };
            let (derived, at_64) = (row(block_words), row(64));
            println!(
                "{capacity:>5} {sigma:>3} {block_words:>4} {:<8} | {:>9.1} {:>9.1} {:>10.1} {:>10.1} | {:>6.3} {:>6.3}",
                derived.layout,
                derived.write_bytes_per_user_byte,
                at_64.write_bytes_per_user_byte,
                derived.stored_bytes_per_key,
                at_64.stored_bytes_per_key,
                derived.insert_rounds,
                at_64.insert_rounds
            );
            if first_sigma.last().is_none_or(|&(b, _)| b != block_words) {
                first_sigma.push((block_words, sigma));
            }
            if sigma < chained_from && !inline(sigma, 64) {
                write_gain.push(at_64.write_bytes_per_user_byte / derived.write_bytes_per_user_byte);
                space_gain.push(at_64.stored_bytes_per_key / derived.stored_bytes_per_key);
            }
            widths.push(NodeShape { derived, at_64 });
        }
        // The ceiling: the narrowest record the rule chains, on the next
        // power of two, where its bucket would fit.
        let f = Front { block_words: 1024, universe: UNIVERSE, sigma: chained_from, ..front("dynamic") };
        let past = measure(&f, layout(chained_from, 1024), chained_from, capacity).expect("a 1 024-word shape builds");
        let chained = &widths[chained_from].at_64;
        println!("{capacity:>5} past the ceiling: {past}");
        let blocks: Vec<String> = first_sigma.iter().map(|(b, from)| format!("{b} words from σ = {from}")).collect();
        let range = |v: &[f64]| {
            let (lo, hi) = v.iter().fold((f64::MAX, 0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            format!("{lo:.1} – {hi:.1} ×")
        };
        let rule = format!(
            "N = {capacity}: {} (chained past the 512-word ceiling); where the derived block keeps a record \
             B = 64 chains, it writes {} fewer bytes and stores {} fewer; at σ = {chained_from} a 1 024-word \
             block would write {:.1} bytes a user byte against the chain's {:.1} (storing {:.0} B a key against {:.0})",
            blocks.join(", "),
            range(&write_gain),
            range(&space_gain),
            past.write_bytes_per_user_byte,
            chained.write_bytes_per_user_byte,
            past.stored_bytes_per_key,
            chained.stored_bytes_per_key
        );
        println!("rule: {rule}");
        rules.push(rule);
        shapes.extend(widths);
    }
    (shapes, rules)
}

impl std::fmt::Display for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:>4} {:>3} {:<8} {:>6} | {:>9.2} {:>9.2} {:>9.1} {:>10.1} | {:>6.3} {:>6.3} {:>6.3} {:>6.3}",
            self.block_words,
            self.sigma,
            self.layout,
            self.record_words,
            self.written_per_insert,
            self.written_per_delete,
            self.write_bytes_per_user_byte,
            self.stored_bytes_per_key,
            self.insert_rounds,
            self.lookup_rounds,
            self.miss_rounds,
            self.delete_rounds
        )
    }
}
