//! Table printing and JSON persistence for the experiment binaries.

use crate::measure::MethodReport;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

fn fmt_opt_f(v: Option<f64>) -> String {
    v.map_or("-".into(), |x| format!("{x:.2}"))
}

fn fmt_opt_u(v: Option<u64>) -> String {
    v.map_or("-".into(), |x| x.to_string())
}

/// Print the Figure 1-style comparison table.
pub fn print_table(title: &str, reports: &[MethodReport]) {
    println!("\n== {title} ==");
    println!(
        "{:<34} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>10} {:>6} {:>5}",
        "method",
        "lkp avg",
        "lkp wc",
        "miss",
        "ins avg",
        "ins wc",
        "del avg",
        "bld IOs",
        "space(w)",
        "bw(w)",
        "disks"
    );
    for r in reports {
        println!(
            "{:<34} {:>7.3} {:>7} {:>7.3} {:>7} {:>7} {:>7} {:>7} {:>10} {:>6} {:>5}{}",
            r.name,
            r.lookup_avg,
            r.lookup_worst,
            r.miss_avg,
            fmt_opt_f(r.insert_avg),
            fmt_opt_u(r.insert_worst),
            fmt_opt_f(r.delete_avg),
            r.build_ios,
            r.space_words,
            r.bandwidth_words,
            r.disks_used,
            if r.failures > 0 {
                format!("  !! {} FAILURES", r.failures)
            } else {
                String::new()
            }
        );
    }
}

/// Where the experiment binaries leave their reports: `experiments/`
/// under the cargo target directory.
#[must_use]
pub fn experiments_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
        .join("experiments")
}

/// Persist results as JSON under `target/experiments/<name>.json`.
///
/// Returns the path written.
fn write_json<T: serde::Serialize>(name: &str, value: &T) -> std::io::Result<PathBuf> {
    let dir = experiments_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    let mut f = std::fs::File::create(&path)?;
    let body = serde_json::to_string_pretty(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    f.write_all(body.as_bytes())?;
    writeln!(f)?;
    Ok(path)
}

/// The one way an experiment binary ends: write `report` as `<name>.json`
/// and say where; then one `FAIL: …` line per entry of `failures` and exit
/// code 1, or `ACCEPT: <accept>` (a binary that gates nothing passes `""`
/// and prints no verdict) and success. A report that cannot be written is
/// a failure too: CI uploads these files.
pub fn finish<T: serde::Serialize>(name: &str, report: &T, failures: &[String], accept: &str) -> ExitCode {
    match write_json(name, report) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => {
            eprintln!("FAIL: could not write {name}.json: {e}");
            return ExitCode::FAILURE;
        }
    }
    for f in failures {
        eprintln!("FAIL: {f}");
    }
    if !failures.is_empty() {
        return ExitCode::FAILURE;
    }
    if !accept.is_empty() {
        println!("ACCEPT: {accept}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy() -> MethodReport {
        MethodReport {
            name: "test".into(),
            n: 10,
            build_ios: 20,
            insert_avg: Some(2.0),
            insert_worst: Some(2),
            lookup_avg: 1.0,
            lookup_worst: 1,
            miss_avg: 1.0,
            miss_worst: 1,
            delete_avg: None,
            space_words: 100,
            bandwidth_words: 4,
            disks_used: 8,
            failures: 0,
        }
    }

    #[test]
    fn table_prints_without_panicking() {
        print_table("unit test", &[dummy()]);
    }

    #[test]
    fn json_roundtrip() {
        let path = write_json("unit_test_report", &vec![dummy()]).unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.contains("\"name\": \"test\""));
    }

    #[test]
    fn finish_writes_the_report_and_fails_on_a_failure() {
        assert_eq!(finish("unit_test_finish", &1, &[], "nothing gated"), ExitCode::SUCCESS);
        assert!(experiments_dir().join("unit_test_finish.json").exists());
        assert_eq!(finish("unit_test_finish", &1, &["a gate".into()], ""), ExitCode::FAILURE);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_opt_f(None), "-");
        assert_eq!(fmt_opt_f(Some(1.5)), "1.50");
        assert_eq!(fmt_opt_u(Some(3)), "3");
    }
}
