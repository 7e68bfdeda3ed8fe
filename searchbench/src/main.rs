//! Search benchmark for h2o-nas.
//!
//! ```text
//! searchbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Repeats fixed-length search rounds of one pinned workload for `--seconds`
//! of wall time, checks every round's outputs, and prints as its last line
//! one JSON object: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. `NOTES.md` explains the workloads and metrics.
//!
//! The binary also serves `node-worker`, because `NodeCluster` spawns the
//! `vit-nodes2` nodes by re-executing the current executable.

mod kernels;
mod layers;
mod pin;
mod speed;
mod stats;
mod workloads;

use h2o_nas::eval::{BackendSpec, EvalScenario};
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Ctx, Round, Workload};

const USAGE: &str = "usage: searchbench --workload <dlrm-model|cnn-ckpt|dlrm-oneshot|vit-nodes2> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Variables that change how the program schedules or fails: cleared so a
/// run never inherits them, and recorded.
const AMBIENT_VARS: [&str; 3] = ["H2O_WORKERS", "H2O_EXEC_SERIAL", "H2O_NODES"];
const AMBIENT_PREFIX: &str = "H2O_CHAOS_";

/// Scratch space (checkpoints, node sockets) under the working directory.
const RUN_ROOT: &str = ".bench_run";

/// Seeds a run's rounds cycle through, all derived from `--seed`. The
/// reward metrics are their mean, and the timing metrics the median over
/// rounds of all of them, so one seed's search trajectory does not decide
/// a run's figures. A round repeating a seed must repeat its outcome.
const SEEDS_PER_RUN: usize = 16;

/// The seed of round `round` of a run with seed `seed`. In trace mode an
/// untraced and a traced round share each seed, so tracing's cost is
/// compared on equal searches and must leave the outcome unchanged.
fn round_seed(seed: u64, round: usize, trace: bool) -> u64 {
    let index = if trace { round / 2 } else { round };
    seed.wrapping_mul(SEEDS_PER_RUN as u64)
        .wrapping_add((index % SEEDS_PER_RUN) as u64)
}

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_flags(args: &[String]) -> Result<HashMap<&str, &str>, String> {
    if !args.len().is_multiple_of(2) {
        return Err("every flag takes one value".into());
    }
    args.chunks(2)
        .map(|pair| {
            let key = pair[0]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got '{}'", pair[0]))?;
            Ok((key, pair[1].as_str()))
        })
        .collect()
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let flags = parse_flags(args)?;
    let get = |key: &str| flags.get(key).copied().ok_or(format!("missing --{key}"));
    let name = get("workload")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload '{name}'"))?;
    let seed = get("seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: f64 = get("seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace '{other}' (0|1)")),
    };
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// `node-worker --addr A --domain D --eval-backend sim|cached
/// [--eval-cache-capacity N]`: the arguments `EvalScenario::worker_args`
/// produces for the backends this benchmark distributes.
fn node_worker(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let get = |key: &str| flags.get(key).copied().ok_or(format!("missing --{key}"));
    let backend = match get("eval-backend")? {
        "sim" => BackendSpec::Simulator,
        "cached" => BackendSpec::Cached {
            capacity: get("eval-cache-capacity")?
                .parse()
                .map_err(|_| "bad --eval-cache-capacity")?,
        },
        other => return Err(format!("node-worker serves sim|cached, not '{other}'")),
    };
    let scenario = EvalScenario::new(get("domain")?, backend)?;
    h2o_nas::distributed::run_worker(get("addr")?, scenario, None)
}

/// Removes the ambient variables from the environment; returns what was set.
fn clear_ambient_env() -> Vec<String> {
    let set: Vec<(String, String)> = std::env::vars()
        .filter(|(key, _)| AMBIENT_VARS.contains(&key.as_str()) || key.starts_with(AMBIENT_PREFIX))
        .collect();
    set.into_iter()
        .map(|(key, value)| {
            std::env::remove_var(&key);
            format!("{key}={value}")
        })
        .collect()
}

/// Resets the peak resident set `peak_rss_mb` reports to the current one.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process in MB since the last
/// [`reset_peak_rss`], from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Type of the filesystem holding `path`, from `/proc/mounts`.
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, point, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "none".to_string(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        )
}

/// Runs rounds until `seconds` have passed (at least one per seed; in trace
/// mode at least two, alternating untraced and traced so both can be
/// compared). Each round runs on the CPU that ran the reference work
/// fastest just before it (see `pin`), and its speed reading is the mean
/// of the reference times just before and just after it on that CPU.
fn run_rounds(options: &Options, run_dir: &Path) -> Vec<Round> {
    let budget = Duration::from_secs_f64(options.seconds);
    let min_rounds = if options.trace { 2 } else { SEEDS_PER_RUN };
    let cpus = pin::allowed_cpus();
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < min_rounds || start.elapsed() < budget {
        let fastest = pin::reference_on_each(&cpus)
            .into_iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .filter(|&(cpu, _)| pin::pin_to(&[cpu]));
        let (cpu, before_ms) = match fastest {
            Some((cpu, ms)) => (Some(cpu), ms),
            // The kernel refused to pin: run on every CPU.
            None => {
                pin::pin_to(&cpus);
                (None, speed::reference_ms())
            }
        };
        let dir = run_dir.join(format!("round-{}", rounds.len()));
        let ctx = Ctx {
            seed: round_seed(options.seed, rounds.len(), options.trace),
            trace: options.trace && rounds.len() % 2 == 1,
            dir: &dir,
        };
        reset_peak_rss();
        let mut round = workloads::run_round(options.workload, &ctx);
        round.seed = ctx.seed;
        round.cpu = cpu;
        round.peak_rss_mb = peak_rss_mb();
        round.reference_ms = (before_ms + speed::reference_ms()) / 2.0;
        rounds.push(round);
        let _ = std::fs::remove_dir_all(&dir);
        // The driver's spans buffer in memory until exported; export them
        // (to nowhere) so no round inherits the last one's buffer.
        drop(h2o_nas::obs::drain_spans());
    }
    rounds
}

/// For each round, the first round of the same seed whose search succeeded
/// (itself, if it is that round); `None` while none has.
fn first_of_seed(rounds: &[Round]) -> Vec<Option<usize>> {
    let mut first = HashMap::new();
    rounds
        .iter()
        .enumerate()
        .map(|(i, round)| {
            if round.driver_error.is_none() {
                first.entry(round.seed).or_insert(i);
            }
            first.get(&round.seed).copied()
        })
        .collect()
}

/// Operations attempted and failed: each round's search (failing on a
/// `DriverError`), each candidate (failing on a clamped reward), each
/// output check, and each comparison of a round's outcome hash with the
/// first successful round of the same seed.
fn failures(rounds: &[Round]) -> (u64, u64, Vec<String>) {
    let first = first_of_seed(rounds);
    let mut attempted = 0;
    let mut failed = 0;
    let mut why = Vec::new();
    for (i, round) in rounds.iter().enumerate() {
        attempted += 1 + round.candidates as u64 + round.checks.len() as u64;
        if let Some(err) = &round.driver_error {
            failed += 1;
            why.push(format!("round {i}: {err}"));
        }
        failed += round.clamped as u64;
        if round.clamped > 0 {
            why.push(format!("round {i}: {} clamped rewards", round.clamped));
        }
        for (name, ok) in &round.checks {
            if !ok {
                failed += 1;
                why.push(format!("round {i}: check failed: {name}"));
            }
        }
        match first[i] {
            Some(j) if j != i && round.driver_error.is_none() => {
                attempted += 1;
                if round.outcome_hash != rounds[j].outcome_hash {
                    failed += 1;
                    why.push(format!(
                        "round {i}: outcome hash differs from round {j}, of the same seed"
                    ));
                }
            }
            _ => {}
        }
    }
    (attempted, failed, why)
}

fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.is_empty() {
        out.push_str(", ");
    }
    let value = if value.is_finite() { value } else { 0.0 };
    let _ = write!(
        out,
        "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
    );
}

/// Median of a per-round value.
fn median_of(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    stats::median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// Mean over the run's seeds of a reward, each from the first round of
/// that seed whose search succeeded.
fn seed_mean(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    let firsts: BTreeSet<usize> = first_of_seed(rounds).into_iter().flatten().collect();
    firsts.iter().map(|&i| f(&rounds[i])).sum::<f64>() / firsts.len().max(1) as f64
}

/// Each timing metric is the median over the run's rounds, so that a burst
/// of load from outside moves one round, not the result. A round's times
/// are scaled to the nominal CPU speed: multiplied by the nominal over the
/// measured reference time (see `speed`).
fn end_to_end(w: Workload, rounds: &[Round], out: &mut String) {
    let scale = |r: &Round| speed::NOMINAL_MS / r.reference_ms;
    metric(
        out,
        "setup_s",
        median_of(rounds, |r| r.setup_s * scale(r)),
        "s",
    );
    metric(
        out,
        "cand_per_s",
        median_of(rounds, |r| r.candidates as f64 / (r.search_s * scale(r))),
        "1/s",
    );
    metric(
        out,
        "step_ms_p50",
        median_of(rounds, |r| stats::quantile(&r.step_ms, 0.5) * scale(r)),
        "ms",
    );
    metric(
        out,
        "step_ms_p90",
        median_of(rounds, |r| stats::quantile(&r.step_ms, 0.9) * scale(r)),
        "ms",
    );
    metric(
        out,
        "peak_rss_mb",
        median_of(rounds, |r| r.peak_rss_mb),
        "MB",
    );
    let floor = w.reward_floor();
    metric(
        out,
        "tail_reward",
        seed_mean(rounds, |r| r.tail_reward) - floor,
        "reward",
    );
    metric(
        out,
        "best_sim_reward",
        seed_mean(rounds, |r| r.best_sim_reward) - floor,
        "reward",
    );
}

/// `cpus`: how many CPUs the run may use, which caps how many executor
/// workers or nodes run at once.
fn per_layer(options: &Options, rounds: &[Round], cpus: usize, out: &mut String) {
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.trace.is_some()).collect();
    let untraced: Vec<&Round> = rounds.iter().filter(|r| r.trace.is_none()).collect();
    let pooled = |f: fn(&workloads::Trace) -> &Vec<f64>| -> Vec<f64> {
        traced
            .iter()
            .flat_map(|r| f(r.trace.as_ref().expect("traced")).iter().copied())
            .collect()
    };
    let collect = pooled(|t| &t.collect_ms);
    let evaluate = pooled(|t| &t.evaluate_us);
    let saves = pooled(|t| &t.save_ms);
    // Exact counts come from the first traced round, which searched with
    // the run's first seed whatever the number of rounds. A traced round
    // whose search failed has none.
    let none = workloads::Trace::default();
    let first = traced
        .first()
        .and_then(|r| r.trace.as_ref())
        .unwrap_or(&none);
    let kernels = first
        .kernels
        .as_ref()
        .map(kernels::measure)
        .unwrap_or_default();
    let workers = match options.workload.nodes() {
        0 => options.workload.workers(),
        nodes => nodes,
    }
    .min(cpus) as f64;
    let evaluate_us = kernels
        .replay_evaluate_us
        .unwrap_or(stats::median(&evaluate));
    let collect_ms = stats::median(&collect);
    let remote = options.workload.nodes() > 0;
    let served_total = (first.served + first.fallback) as f64;
    let median_search = |rs: &[&Round]| {
        stats::median(
            &rs.iter()
                .map(|r| r.search_s * speed::NOMINAL_MS / r.reference_ms)
                .collect::<Vec<_>>(),
        )
    };

    metric(out, "core.collect_ms", collect_ms, "ms");
    metric(
        out,
        "core.driver_self_ms",
        stats::median(&pooled(|t| &t.driver_self_ms)),
        "ms",
    );
    metric(out, "core.sample_us", kernels.sample_us, "us");
    metric(out, "core.reinforce_us", kernels.reinforce_us, "us");
    metric(
        out,
        "core.unexplained_share",
        1.0 - workloads::SHARDS as f64 * (kernels.sample_us + evaluate_us)
            / workers
            / (collect_ms * 1e3),
        "share",
    );
    metric(
        out,
        "core.steps",
        rounds.iter().map(|r| r.step_ms.len()).sum::<usize>() as f64,
        "count",
    );
    metric(out, "eval.evaluate_us", evaluate_us, "us");
    metric(
        out,
        "eval.served_share",
        if served_total > 0.0 {
            first.served as f64 / served_total
        } else {
            0.0
        },
        "share",
    );
    metric(out, "eval.fallback_count", first.fallback as f64, "count");
    metric(out, "hwsim.simulate_us", kernels.simulate_us, "us");
    metric(out, "hwsim.distinct_share", first.distinct_share, "share");
    metric(out, "perfmodel.infer_us", kernels.infer_us, "us");
    metric(
        out,
        "exec.busy_share",
        if remote {
            0.0
        } else {
            evaluate.iter().sum::<f64>() / (collect.iter().sum::<f64>() * 1e3 * workers)
        },
        "share",
    );
    metric(
        out,
        "exec.remote_collect_ms",
        if remote { collect_ms } else { 0.0 },
        "ms",
    );
    metric(
        out,
        "exec.wire_bytes_per_step",
        first.wire_bytes_per_step,
        "B",
    );
    metric(
        out,
        "exec.live_nodes_end",
        first.live_nodes_end as f64,
        "count",
    );
    metric(out, "ckpt.save_ms_p50", stats::quantile(&saves, 0.5), "ms");
    metric(out, "ckpt.save_ms_p90", stats::quantile(&saves, 0.9), "ms");
    metric(
        out,
        "ckpt.encode_ms",
        stats::median(&pooled(|t| &t.encode_ms)),
        "ms",
    );
    metric(out, "ckpt.bytes_mb", first.ckpt_bytes as f64 / 1e6, "MB");
    metric(
        out,
        "space.stage_update_ms",
        stats::median(&pooled(|t| &t.update_ms)),
        "ms",
    );
    metric(
        out,
        "tensor.matmul_gflops",
        kernels.matmul_gflops,
        "GFLOP/s",
    );
    metric(
        out,
        "data.batches_served",
        first.batches_served as f64,
        "count",
    );
    metric(
        out,
        "trace.overhead_share",
        median_search(&traced) / median_search(&untraced) - 1.0,
        "share",
    );
}

fn run(options: &Options) -> Result<(), String> {
    let cleared = clear_ambient_env();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let run_dir = PathBuf::from(RUN_ROOT).join(std::process::id().to_string());
    let tmp = run_dir.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("creating {}: {e}", tmp.display()))?;
    // NodeCluster puts its sockets under the temp dir: keep them in the
    // run directory. Relative, so the socket paths stay short.
    std::env::set_var("TMPDIR", &tmp);
    let w = options.workload;
    println!(
        "# searchbench {} seed={} seconds={} trace={}",
        w.name(),
        options.seed,
        options.seconds,
        u8::from(options.trace)
    );
    println!(
        "# env nproc={nproc} cpus={:?} workers={} nodes={} ckpt_every={} ckpt_fs={} rev={} cleared=[{}]",
        pin::allowed_cpus(),
        w.workers(),
        w.nodes(),
        w.checkpoint_every().map_or("none".to_string(), |e| e.to_string()),
        filesystem_of(&run_dir),
        git_rev(),
        cleared.join(" ")
    );
    let rounds = run_rounds(options, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    let _ = std::fs::remove_dir(RUN_ROOT);

    let steps: usize = rounds.iter().map(|r| r.step_ms.len()).sum();
    let firsts: BTreeSet<usize> = first_of_seed(&rounds).into_iter().flatten().collect();
    println!(
        "# rounds={} seeds={} steps_per_round={} steps_measured={} reference_ms_median={:?}",
        rounds.len(),
        firsts.len(),
        w.steps(),
        steps,
        median_of(&rounds, |r| r.reference_ms),
    );
    // Per seed: the outcome hash, which two runs of one seed must repeat,
    // and the rewards, raw; `first_step_reward` is the mean reward of the
    // first step's candidates, drawn from the uniform initial policy.
    for &i in &firsts {
        let r = &rounds[i];
        println!(
            "# seed={} outcome_hash={:016x} tail_reward={:?} best_sim_reward={:?} first_step_reward={:?}",
            r.seed, r.outcome_hash, r.tail_reward, r.best_sim_reward, r.first_step_reward
        );
    }
    // Per round, as measured: search seconds, set-up seconds, step p50 and
    // p90 in ms, and the reference time in ms.
    for r in &rounds {
        println!(
            "# round seed={} cpu={} search_s={:.6} setup_s={:.8} p50_ms={:.6} p90_ms={:.6} reference_ms={:.6}",
            r.seed,
            r.cpu.map_or(-1, |c| c as i64),
            r.search_s,
            r.setup_s,
            stats::quantile(&r.step_ms, 0.5),
            stats::quantile(&r.step_ms, 0.9),
            r.reference_ms
        );
    }
    let (attempted, failed, why) = failures(&rounds);
    for line in &why {
        println!("# FAILED {line}");
    }
    let mut metrics = String::new();
    if options.trace {
        let usable = if rounds.iter().all(|r| r.cpu.is_some()) {
            1
        } else {
            nproc.max(1)
        };
        per_layer(options, &rounds, usable, &mut metrics);
    } else {
        end_to_end(w, &rounds, &mut metrics);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        failed == 0
    );
    Ok(())
}

extern "C" {
    /// glibc's allocator tuning call.
    fn mallopt(param: i32, value: i32) -> i32;
}

/// `M_ARENA_MAX` from `<malloc.h>`.
const M_ARENA_MAX: i32 = -8;

/// Limits the allocator to one arena. glibc gives a new thread a new arena
/// while every existing one is in use, so how many arenas `cnn-ckpt`'s
/// per-batch executor threads created depended on whether one batch's
/// threads were still alive when the next began: the run's peak resident
/// set read 9.8 MB or 11.3 MB, at random. With one arena it repeats.
fn single_malloc_arena() {
    // SAFETY: mallopt takes two integers and touches only the allocator's
    // own settings; it runs before this process starts any thread.
    unsafe { mallopt(M_ARENA_MAX, 1) };
}

fn main() -> ExitCode {
    single_malloc_arena();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "node-worker" => node_worker(rest),
        _ => parse_options(&args).and_then(|options| run(&options)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(seed: u64, hash: u64, reward: f64, error: bool) -> Round {
        Round {
            seed,
            outcome_hash: hash,
            tail_reward: reward,
            driver_error: error.then(|| "search failed".to_string()),
            ..Round::default()
        }
    }

    #[test]
    fn a_failed_first_round_is_one_failure_not_many() {
        let rounds = [
            round(1, 0, 0.0, true),
            round(2, 20, 4.0, false),
            round(1, 10, 2.0, false),
            round(2, 20, 4.0, false),
            round(1, 10, 2.0, false),
        ];
        let (attempted, failed, why) = failures(&rounds);
        assert_eq!((attempted, failed), (5 + 2, 1), "{why:?}");
        assert_eq!(seed_mean(&rounds, |r| r.tail_reward), 3.0);
    }

    #[test]
    fn a_differing_outcome_of_a_seed_is_a_failure() {
        let rounds = [
            round(1, 10, 2.0, false),
            round(2, 20, 4.0, false),
            round(1, 11, 2.0, false),
        ];
        let (attempted, failed, _) = failures(&rounds);
        assert_eq!((attempted, failed), (3 + 1, 1));
    }
}
