//! Runs the pinned benchmark scenario matrix and writes a versioned
//! `BENCH_<tag>.json` baseline (see `h2o_bench::perf` for the matrix and
//! the schema). Commit the output at the repo root to give `bench_diff`
//! something to gate against.
//!
//! Usage: `perf_baseline [--tag <tag>] [--out <path>]`
//!
//! Scale knobs: `H2O_BENCH_STEPS`, `H2O_BENCH_SIM_EVALS`,
//! `H2O_BENCH_MATMUL_ITERS`.

use h2o_bench::perf::{run_matrix, scenario_summary, BenchScale};

fn main() {
    let mut tag = "local".to_string();
    let mut out: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--tag" => tag = argv.next().unwrap_or(tag),
            "--out" => out = argv.next(),
            "--help" | "-h" => {
                println!("usage: perf_baseline [--tag <tag>] [--out <path>]");
                return;
            }
            other => {
                eprintln!("perf_baseline: unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }
    let out = out.unwrap_or_else(|| format!("BENCH_{tag}.json"));

    let scale = BenchScale::from_env();
    eprintln!(
        "perf_baseline: tag '{tag}', {} search steps, {} sim evals, {} matmul iters",
        scale.search_steps, scale.sim_evals, scale.matmul_iters
    );
    let report = match run_matrix(&tag, scale) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("perf_baseline: {err}");
            std::process::exit(2);
        }
    };
    for (name, metrics) in &report.scenarios {
        eprintln!("  {}", scenario_summary(name, metrics));
    }

    if let Err(err) = std::fs::write(&out, report.to_json()) {
        eprintln!("perf_baseline: cannot write {out}: {err}");
        std::process::exit(2);
    }
    println!(
        "perf_baseline: wrote {out} ({} scenarios, git {})",
        report.scenarios.len(),
        report.env.get("git_rev").map_or("unknown", |s| s.as_str())
    );
}
