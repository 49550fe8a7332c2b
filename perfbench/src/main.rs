//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <host-tree|sim-jw|jobs-mix> --seed <n> --seconds <s> --trace <0|1>
//!           [--negative-control]
//! perfbench --self-test
//! ```
//!
//! One run measures one workload for `--seconds` seconds, checks its
//! outputs, prints a human-readable report and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. It exits 1 when a check fails. See README.md.

mod jobs_mix;
mod report;
mod tree;

use report::{line, Outcome, Workload, END_TO_END, PER_LAYER};
use std::path::Path;
use std::process::ExitCode;

/// Scratch spools live here, inside the working directory.
const WORK_ROOT: &str = ".perfbench";
/// The `par` thread count of every measured step and round.
const MEASURED_THREADS: usize = 1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    negative_control: bool,
}

const USAGE: &str = "usage: perfbench --workload <host-tree|sim-jw|jobs-mix> --seed <n> \
--seconds <s> --trace <0|1> [--negative-control] | perfbench --self-test";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut negative_control = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--negative-control" {
            negative_control = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        negative_control,
    })
}

/// Full-size or self-test sizes.
#[derive(Clone, Copy)]
enum Size {
    Full,
    Tiny,
}

fn run_workload(args: &Args, size: Size) -> Result<Outcome, String> {
    let tree_size = match size {
        Size::Full => tree::TreeSize::FULL,
        Size::Tiny => tree::TreeSize::TINY,
    };
    let mix_size = match size {
        Size::Full => jobs_mix::MixSize::FULL,
        Size::Tiny => jobs_mix::MixSize::TINY,
    };
    let tier = match args.workload {
        Workload::HostTree => tree::Tier::Host,
        Workload::SimJw => tree::Tier::Sim,
        Workload::JobsMix => {
            return jobs_mix::run(
                mix_size,
                args.seed,
                args.seconds,
                args.traced,
                args.negative_control,
                Path::new(WORK_ROOT),
            )
        }
    };
    Ok(tree::run(tier, tree_size, args.seed, args.seconds, args.traced, args.negative_control))
}

/// Runs one workload and prints its report and result line.
fn bench(args: &Args) -> ExitCode {
    let threads = par::threads();
    println!(
        "perfbench workload={} seed={} seconds={} trace={}{}",
        args.workload.id(),
        args.seed,
        args.seconds,
        u8::from(args.traced),
        if args.negative_control { " negative-control=on" } else { "" }
    );
    println!(
        "env: par_threads={threads} nproc={} cpu=\"{}\" commit={}",
        par::available_parallelism(),
        report::cpu_model(),
        report::git_commit()
    );
    let outcome = match run_workload(args, Size::Full) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let defs = if args.traced { PER_LAYER } else { END_TO_END };
    let selected = match report::select(defs, args.workload, &outcome.metrics) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for l in &outcome.lines {
        println!("{l}");
    }
    println!(
        "  {} metrics (0 = layer not exercised by this workload):",
        if args.traced { "per-layer" } else { "end-to-end" }
    );
    for (d, v) in &selected {
        println!("{}", line(d.name, *v, d.unit, d.clock));
    }
    let checks = &outcome.checks;
    println!("  checks: {} operations, {} failed", checks.attempted, checks.failed);
    for p in &checks.problems {
        println!("  FAIL {p}");
    }
    println!("{}", report::result_json(&selected, checks));
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload at tiny size, traced and untraced, and requires that
/// every declared metric is emitted, every check passes, the negative
/// control fails, and the registry matches `BENCHMARK.json`.
fn self_test() -> ExitCode {
    let mut problems = Vec::new();
    for workload in Workload::ALL {
        for (traced, negative_control) in [(false, false), (true, false), (false, true)] {
            let args = Args { workload, seed: 7, seconds: 0.0, traced, negative_control };
            let label = format!(
                "{} trace={} negative-control={negative_control}",
                workload.id(),
                u8::from(traced)
            );
            let outcome = match run_workload(&args, Size::Tiny) {
                Ok(o) => o,
                Err(e) => {
                    problems.push(format!("{label}: {e}"));
                    continue;
                }
            };
            let defs = if traced { PER_LAYER } else { END_TO_END };
            if let Err(e) = report::select(defs, workload, &outcome.metrics) {
                problems.push(format!("{label}: {e}"));
            }
            let failed = outcome.checks.failed;
            if negative_control && failed == 0 {
                problems.push(format!("{label}: the negative control passed every check"));
            }
            if !negative_control && failed > 0 {
                problems.push(format!("{label}: {:?}", outcome.checks.problems));
            }
            println!("self-test {label}: {} operations, {failed} failed", outcome.checks.attempted);
        }
    }
    if let Err(e) = matches_manifest(include_str!("../../BENCHMARK.json")) {
        problems.push(format!("BENCHMARK.json: {e}"));
    }
    for p in &problems {
        println!("FAIL {p}");
    }
    if problems.is_empty() {
        println!("SELF-TEST OK");
        ExitCode::SUCCESS
    } else {
        println!("SELF-TEST FAIL");
        ExitCode::FAILURE
    }
}

/// Checks that the manifest declares exactly the registry's metrics, with
/// the same units, in the same order.
fn matches_manifest(text: &str) -> Result<(), String> {
    let manifest = serde_json::parse_value(text).map_err(|e| e.to_string())?;
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = manifest.get(key).and_then(|v| v.as_array()).ok_or(format!("no {key}"))?;
        let listed: Vec<(Option<&str>, Option<&str>)> = listed
            .iter()
            .map(|m| {
                (m.get("name").and_then(|v| v.as_str()), m.get("unit").and_then(|v| v.as_str()))
            })
            .collect();
        let declared: Vec<(Option<&str>, Option<&str>)> =
            defs.iter().map(|d| (Some(d.name), Some(d.unit))).collect();
        if listed != declared {
            return Err(format!("{key} lists {listed:?}, the benchmark declares {declared:?}"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // load from one process and one thread: on a few shared cores a second
    // worker makes every parallel region wait for the slower core, which
    // measures the neighbours, not the program. The thread-invariance
    // replay and `par.efficiency` run at `nproc` threads.
    par::set_threads(MEASURED_THREADS);
    if argv.iter().any(|a| a == "--self-test") {
        return self_test();
    }
    match parse_args(&argv) {
        Ok(args) => bench(&args),
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
