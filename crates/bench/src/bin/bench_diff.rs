//! Regression gate: re-runs the benchmark matrix and diffs it against a
//! committed `BENCH_*.json` baseline (see `h2o_bench::perf`).
//!
//! Usage: `bench_diff [--baseline <path>] [--threshold <frac>]`
//!
//! Exit codes: 0 — no guarded metric regressed (or warn-only mode);
//! 1 — a guarded metric regressed beyond the threshold (strict mode);
//! 2 — usage / I/O / parse error.
//!
//! `H2O_BENCH_STRICT=0` switches to warn-only (the delta table still
//! prints). `H2O_BENCH_THRESHOLD` overrides the relative threshold
//! (default 0.25 = 25%).

use h2o_bench::perf::{
    diff_exit_code, diff_reports, run_matrix, BenchReport, BenchScale, DEFAULT_THRESHOLD,
};

fn main() {
    let mut baseline_path = "BENCH_pr9.json".to_string();
    let mut threshold = std::env::var("H2O_BENCH_THRESHOLD")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(DEFAULT_THRESHOLD);
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--baseline" => baseline_path = argv.next().unwrap_or(baseline_path),
            "--threshold" => {
                threshold = argv
                    .next()
                    .and_then(|v| v.parse::<f64>().ok())
                    .unwrap_or(threshold)
            }
            "--help" | "-h" => {
                println!("usage: bench_diff [--baseline <path>] [--threshold <frac>]");
                return;
            }
            other => {
                eprintln!("bench_diff: unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }
    let strict = std::env::var("H2O_BENCH_STRICT").map_or(true, |v| v != "0");

    let text = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("bench_diff: cannot read baseline {baseline_path}: {err}");
            std::process::exit(2);
        }
    };
    let baseline = match BenchReport::from_json(&text) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("bench_diff: malformed baseline {baseline_path}: {err}");
            std::process::exit(2);
        }
    };

    eprintln!(
        "bench_diff: re-running the matrix against '{}' (tag '{}', git {})",
        baseline_path,
        baseline.tag,
        baseline
            .env
            .get("git_rev")
            .map_or("unknown", |s| s.as_str())
    );
    let current = match run_matrix("current", BenchScale::from_env()) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("bench_diff: {err}");
            std::process::exit(2);
        }
    };
    let diff = diff_reports(&baseline, &current, threshold);
    print!("{}", diff.render());

    let regressions = diff.regressions();
    if regressions > 0 && !strict {
        eprintln!("bench_diff: H2O_BENCH_STRICT=0 — reporting only, not failing");
    }
    std::process::exit(i32::from(diff_exit_code(regressions, strict)));
}
