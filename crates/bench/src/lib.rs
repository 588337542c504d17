//! # `bench` — the experiment harness
//!
//! Regenerates every table, figure and quantitative claim of the paper
//! (see DESIGN.md's experiment index):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig1_table` | Figure 1 — the old/new dictionary comparison table |
//! | `lemma3_load` | Lemma 3 — deterministic load balancing bound |
//! | `thm6_construction` | Theorem 6 — one-probe static dictionary |
//! | `thm7_dynamic` | Theorem 7 — `1+ɛ` / `2+ɛ` dynamic dictionary |
//! | `basic_dict` | Section 4.1 claims |
//! | `expander_quality` | Section 5 — semi-explicit construction |
//! | `filesystem_motivation` | Section 1.2 — B-tree vs dictionary |
//! | `ablation_k_choice` | ablation: degree `d` and items-per-key `k` |
//! | `ablation_expansion` | ablation: expander quality vs dictionary cost |
//! | `workload_replay` | observability: guarantees read off exported metrics |
//! | `seed_sweep` | report: builds that fail to expand, per front × family × seed |
//!
//! Criterion benches (`cargo bench -p bench`) measure wall-clock time of
//! the same structures; the binaries measure **parallel I/Os**, the
//! paper's own cost metric.
//!
//! Every structure is described once, in [`fronts`]: the paper's seven
//! fronts with their shapes and quirk flags and Figure 1's method list,
//! each a constructor returning `Box<dyn Dict + Send>`. [`evaluate`]
//! measures any of them through `&mut dyn Dict`; the integration suites
//! (`tests/harness.rs` re-exports the catalogue) and the drill binaries
//! build from the same list. Every binary ends in [`finish`].

#![forbid(unsafe_code)]

pub mod fronts;
pub mod measure;
pub mod report;
pub mod workloads;

pub use measure::{evaluate, MethodReport};
pub use report::{finish, print_table};
