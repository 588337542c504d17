//! `pdm-benchmark`: the repository's wall-clock benchmark.
//!
//! One invocation runs one workload once:
//!
//! ```text
//! pdm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints every metric by name with its unit, and ends with one JSON line
//! (`correct`, `attempted`, `failed`, `metrics`). `--all`, `--aa N` and
//! `--quick` run the whole set in child processes. See `README.md`.

mod bench;
mod drive;
mod host;
mod layers;
mod metrics;
mod openloop;
mod stack;
mod stats;
mod stream;
mod trace;

use bench::{Outcome, RunOptions};
use metrics::{Values, END_TO_END, PER_LAYER, RUN_SECONDS, TIMED};
use stack::{workloads, Workload};
use std::os::unix::process::CommandExt;
use std::process::{Command, ExitCode};
use std::time::Instant;

const USAGE: &str =
    "usage: pdm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--no-pin]
       pdm-benchmark --all [--json PATH] [--seed <n>] [--seconds <s>]
       pdm-benchmark --aa <N> [--vary-seed] [--seed <n>] [--seconds <s>]
       pdm-benchmark --quick
       pdm-benchmark --print-contract";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    no_pin: bool,
    all: bool,
    json: Option<String>,
    aa: Option<usize>,
    vary_seed: bool,
    quick: bool,
    print_contract: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--aa" => {
                let n: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--aa: {e}"))?;
                if n < 3 {
                    return Err("--aa needs at least 3 sets".into());
                }
                args.aa = Some(n);
            }
            "--json" => args.json = Some(value("a path")?),
            "--no-pin" => args.no_pin = true,
            "--all" => args.all = true,
            "--vary-seed" => args.vary_seed = true,
            "--quick" => args.quick = true,
            "--print-contract" => args.print_contract = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Confine the whole process — server threads, disk workers and the load
/// generator — to one allowed CPU by re-executing under `taskset`. On this
/// 2-vCPU shared host a cross-CPU wake-up costs more than a whole request
/// (see README, "Pinning"). Returns only if this process should carry on:
/// already pinned, `--no-pin`, or no `taskset`.
fn pin_to_one_cpu(no_pin: bool) {
    if no_pin || std::env::var_os(host::PINNED_ENV).is_some() {
        return;
    }
    let allowed = host::cpus_allowed();
    let Some(&cpu) = allowed.last() else {
        return;
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(_) => return,
    };
    let error = Command::new("taskset")
        .arg("-c")
        .arg(cpu.to_string())
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(host::PINNED_ENV, cpu.to_string())
        .env(host::NPROC_ENV, allowed.len().to_string())
        .exec();
    println!("note taskset unavailable ({error}); running unpinned");
}

fn environment_block(seed: u64, seconds: f64, scratch: &std::path::Path) {
    let allowed: Vec<String> = host::cpus_allowed().iter().map(usize::to_string).collect();
    let pinned = std::env::var(host::PINNED_ENV).unwrap_or_else(|_| "none".into());
    let nproc = std::env::var(host::NPROC_ENV).unwrap_or_else(|_| allowed.len().to_string());
    let _ = std::fs::create_dir_all(scratch);
    println!(
        "env nproc={nproc} cpus_allowed={} pinned_cpu={pinned} scratch={} scratch_fs={} o_direct_available={} o_direct_used=false profile={} run_seconds={seconds} seed={seed}",
        allowed.join(","),
        scratch.display(),
        host::filesystem_of(scratch),
        host::direct_io_available(scratch),
        profile(),
    );
}

fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

fn find_workload(name: &str) -> Result<Workload, String> {
    workloads()
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| {
            let names: Vec<&str> = workloads().iter().map(|w| w.name).collect();
            format!("unknown workload {name}; known: {}", names.join(", "))
        })
}

/// Run one workload in this process and print the result line. `Ok(false)`
/// when a reply was wrong.
fn run_one(args: &Args, name: &str, process_start: Instant) -> Result<bool, String> {
    let w = find_workload(name)?;
    let seconds = args.seconds.unwrap_or(RUN_SECONDS as f64);
    let scratch = host::scratch_dir().join(format!("{}-{}", w.name, std::process::id()));
    environment_block(args.seed, seconds, &scratch);
    println!(
        "workload {} trace={} why: {}",
        w.name,
        u8::from(args.trace),
        w.why
    );
    let opts = RunOptions {
        seed: args.seed,
        seconds,
        scratch,
    };
    let outcome: Outcome = if args.trace {
        bench::run_traced(&w, &opts)
    } else {
        bench::run_bare(&w, &opts, process_start)
    };
    outcome.values.print();
    println!(
        "result workload={} correct={} attempted={} failed={}",
        w.name, outcome.correct, outcome.attempted, outcome.failed
    );
    let names: Vec<&'static str> = if args.trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        outcome.values.json(names.into_iter())
    );
    Ok(outcome.correct)
}

/// What a child run reported, parsed back from its `metric` and `result`
/// lines.
struct ChildRun {
    correct: bool,
    failed: u64,
    values: Values,
}

/// Run one workload in a child process. The child inherits this process's
/// pinning: its CPU mask, and the environment that says which CPU was chosen
/// (or, under `--no-pin`, that none was).
fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .env(
            host::PINNED_ENV,
            std::env::var(host::PINNED_ENV).unwrap_or_else(|_| "none".into()),
        )
        .output()
        .map_err(|e| format!("spawning a run of {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    // A child that found a wrong reply exits 1 after its result line; any
    // other failure leaves no result to read.
    if !output.status.success() && !stdout.contains("\nresult workload=") {
        return Err(format!(
            "run of {workload} exited with {}:\n{stdout}",
            output.status
        ));
    }
    let mut run = ChildRun {
        correct: false,
        failed: 0,
        values: Values::default(),
    };
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["metric", name, value, _unit] => {
                if let (Some(name), Ok(value)) = (metrics::known(name), value.parse::<f64>()) {
                    run.values.set(name, value);
                }
            }
            ["result", _, correct, _, failed] => {
                run.correct = *correct == "correct=true";
                run.failed = failed
                    .trim_start_matches("failed=")
                    .parse()
                    .unwrap_or(u64::MAX);
            }
            ["first_failure", ..] | ["note", ..] => println!("  {workload}: {line}"),
            _ => {}
        }
    }
    Ok(run)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// `--all`: every workload, bare then traced, each in a child process.
fn run_all(args: &Args) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(RUN_SECONDS as f64);
    environment_block(args.seed, seconds, &host::scratch_dir());
    let mut all_correct = true;
    let mut json_rows = Vec::new();
    for w in workloads() {
        for trace in [false, true] {
            let run = run_child(w.name, args.seed, seconds, trace)?;
            all_correct &= run.correct;
            println!(
                "== {} trace={} correct={} failed={}",
                w.name,
                u8::from(trace),
                run.correct,
                run.failed
            );
            run.values.print();
            // Every name the run measured: a bare run prints its timed
            // `client.*` values beside the end-to-end metrics.
            let names: Vec<&'static str> = END_TO_END
                .iter()
                .map(|m| m.name)
                .chain(PER_LAYER.iter().map(|m| m.name))
                .filter(|n| run.values.get(n).is_some())
                .collect();
            json_rows.push(format!(
                "  {{\"workload\": \"{}\", \"trace\": {}, \"correct\": {}, \"failed\": {}, \"metrics\": {}}}",
                json_escape(w.name),
                u8::from(trace),
                run.correct,
                run.failed,
                run.values.json(names.into_iter())
            ));
        }
    }
    if let Some(path) = &args.json {
        let body = format!(
            "{{\"seed\": {}, \"run_seconds\": {seconds}, \"profile\": \"{}\", \"runs\": [\n{}\n]}}\n",
            args.seed,
            profile(),
            json_rows.join(",\n")
        );
        std::fs::write(path, body).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(all_correct)
}

/// `--aa N`: the whole set N times from one build; per workload and metric
/// the median, the largest relative deviation from it, and the bound.
fn run_aa(args: &Args, sets: usize) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(RUN_SECONDS as f64);
    environment_block(args.seed, seconds, &host::scratch_dir());
    let enforce = !cfg!(debug_assertions);
    if !enforce {
        println!("note debug profile: bounds are reported, not enforced");
    }
    let mut runs: Vec<Vec<ChildRun>> = Vec::new();
    for set in 0..sets {
        let seed = if args.vary_seed {
            args.seed + set as u64
        } else {
            args.seed
        };
        let mut row = Vec::new();
        for w in workloads() {
            row.push(run_child(w.name, seed, seconds, false)?);
        }
        println!("set {} of {sets} done (seed {seed})", set + 1);
        runs.push(row);
    }
    let mut ok = true;
    println!(
        "{:<16} {:<28} {:>14} {:>10} {:>7}  verdict",
        "workload", "metric", "median", "max_dev", "bound"
    );
    for (i, w) in workloads().iter().enumerate() {
        ok &= runs.iter().all(|set| set[i].correct);
        let samples = |name: &str| -> Vec<f64> {
            runs.iter()
                .filter_map(|set| set[i].values.get(name))
                .collect()
        };
        for m in &END_TO_END {
            let samples = samples(m.name);
            // A run that did not print the metric, or printed 0, has failed it.
            let dev = if samples.len() == sets && samples.iter().all(|&v| v > 0.0) {
                stats::max_rel_deviation(&samples)
            } else {
                f64::INFINITY
            };
            let within = dev <= m.bound;
            ok &= within || !enforce;
            println!(
                "{:<16} {:<28} {:>14.4} {:>10.4} {:>7}  {}",
                w.name,
                m.name,
                stats::median(&samples),
                dev,
                m.bound,
                if within { "ok" } else { "EXCEEDS" }
            );
        }
        // The timed values have no bound: how far they moved is the host's
        // spread, which a later claim has to beat.
        for name in TIMED {
            let samples = samples(name);
            println!(
                "{:<16} {:<28} {:>14.4} {:>10.4} {:>7}  as timed",
                w.name,
                name,
                stats::median(&samples),
                stats::max_rel_deviation(&samples),
                "-"
            );
        }
    }
    Ok(ok)
}

/// `--quick`: a tenth of the run length, correctness only.
fn run_quick(args: &Args) -> Result<bool, String> {
    let seconds = RUN_SECONDS as f64 / 10.0;
    environment_block(args.seed, seconds, &host::scratch_dir());
    println!("note quick run: correctness only, bounds not enforced");
    let mut ok = true;
    for w in workloads() {
        let run = run_child(w.name, args.seed, seconds, false)?;
        println!(
            "{:<16} correct={} failed={}",
            w.name, run.correct, run.failed
        );
        ok &= run.correct;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_contract {
        print!("{}", metrics::contract_json());
        return ExitCode::SUCCESS;
    }
    pin_to_one_cpu(args.no_pin);
    let verdict = if let Some(sets) = args.aa {
        run_aa(&args, sets)
    } else if args.all {
        run_all(&args)
    } else if let Some(name) = args.workload.clone() {
        run_one(&args, &name, process_start)
    } else if args.quick {
        run_quick(&args)
    } else {
        Err(USAGE.to_string())
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
