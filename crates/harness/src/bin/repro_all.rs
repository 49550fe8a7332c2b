//! Regenerates every table and figure of the paper in one run, sharing one
//! measurement cache so all artifacts describe the same experiment.
//! `--json <path>` additionally writes the machine-readable results;
//! `--faults <seed>` reruns the whole suite under deterministic fault
//! injection (results stay bit-exact, simulated times absorb the recovery
//! overhead) and finishes with a checkpoint/restart smoke.
//!
//! A leading subcommand runs one artifact on its own instead of the suite:
//!
//! ```text
//! repro-all fig4|fig5|table2|table3 [--quick] [--threads N] [--trace <path>] …
//! repro-all table1|ptpm-report      [--quick] [--threads N] …
//! repro-all drift [N=256] | imbalance [N=8192] | whatif [N=4096]  [--threads N]
//! repro-all bench [--quick] [--threads N] [--n N] [--shards N] [--json <path>] …
//! repro-all bench-history --history <jsonl> [--ingest <BENCH.json> --label L [--write]]
//!                         [--inject-slowdown F]
//! ```
//!
//! The first six and `bench` take the suite's experiment flags (see
//! `harness::try_config_from_args`); the three studies take a body count
//! and `--threads` only.
//!
//! `bench` runs the benchmark suite (`harness::bench`): every row names its
//! clock, `--json` writes the rows, `--n` benches one explicit size (the
//! million-body pipeline gate needs `--n 1048576`), and the last line is the
//! verdict `BENCH OK|SKIP|FAIL (…)`; it exits 1 on `FAIL`.
//!
//! `bench-history` reads the committed trajectory; with `--ingest` it
//! appends a `bench --json` report in memory (`--write` persists it) and
//! judges the result (`harness::bench::history`). `--inject-slowdown F`
//! multiplies every wall row of the ingested report by `F` and is never
//! written: CI uses it to prove the gate fails a uniform slowdown. Exit
//! codes: 0 for `OK`/`SKIP`, 1 for `FAIL`, 2 for usage or corrupt inputs.

use harness::bench::history::{self, History};
use harness::bench::BenchReport;

/// Workload seed of the drift, imbalance and what-if studies.
const STUDY_SEED: u64 = 20110101;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some(name @ ("drift" | "imbalance" | "whatif")) => study(name, &args[1..]),
        Some(name @ ("fig4" | "fig5" | "table1" | "table2" | "table3" | "ptpm-report")) => {
            artifact(name, &args[1..])
        }
        Some("bench") => bench(&args[1..]),
        Some("bench-history") => bench_history(&args[1..]),
        _ => suite(&args),
    }
}

/// One paper artifact over the experiment grid; the figures and Tables 2–3
/// also honour `--trace <path>`.
fn artifact(name: &str, args: &[String]) {
    let cfg = harness::config_from_args(args);
    let steps = cfg.steps;
    let mut runner = harness::Runner::new(cfg);
    let text = match name {
        "fig4" => harness::fig4::render(&harness::fig4::fig4(&mut runner)),
        "fig5" => harness::fig5::render(&harness::fig5::fig5(&mut runner)),
        "table1" => harness::table1::render(&harness::table1::table1(&mut runner), steps),
        "table2" => harness::table2::render(&harness::table2::table2(&mut runner), steps),
        "table3" => harness::table3::render(&harness::table3::table3(&mut runner), steps),
        _ => harness::ptpm_report::render(&harness::ptpm_report::ptpm_report(&mut runner)),
    };
    print!("{text}");
    if !matches!(name, "table1" | "ptpm-report") {
        harness::error::or_exit(harness::trace_export::run_trace_flag(args, &mut runner));
    }
}

/// One standalone study at the body count given as the first argument.
fn study(name: &str, args: &[String]) {
    harness::apply_threads_flag(args);
    let n = |default: usize| args.first().and_then(|a| a.parse().ok()).unwrap_or(default);
    let text = match name {
        "drift" => {
            let (n, t_total) = (n(256), 1.0);
            let dts = [0.02, 0.01, 0.005, 0.0025];
            let rows = harness::drift::drift_study(n, t_total, &dts, STUDY_SEED);
            harness::drift::render(&rows, n, t_total)
        }
        "imbalance" => harness::imbalance::render(&harness::imbalance::imbalance_experiment(
            n(8192),
            STUDY_SEED,
        )),
        _ => harness::whatif::render(&harness::whatif::whatif(n(4096), STUDY_SEED)),
    };
    print!("{text}");
}

/// The full suite (no subcommand).
fn suite(args: &[String]) {
    let cfg = harness::config_from_args(args);
    let steps = cfg.steps;
    let json_path = flag_value(args, "--json");

    println!("== PTPM fast N-body reproduction: full experiment suite ==\n");
    if let Some(seed) = cfg.fault_seed {
        println!(
            "fault injection ON: seed {seed}, p = {} per device operation \
             (retry recovery keeps results bit-exact)\n",
            harness::config::FAULT_PROBABILITY
        );
    }
    let results = harness::export::SuiteResults::run(cfg);
    println!("{}", harness::fig4::render(&results.fig4));
    println!("{}", harness::fig5::render(&results.fig5));
    println!("{}", harness::table1::render(&results.table1, steps));
    println!("{}", harness::table2::render(&results.table2, steps));
    println!("{}", harness::table3::render(&results.table3, steps));

    if let Some(path) = json_path {
        harness::error::or_exit(results.write_json(path));
        println!("machine-readable results written to {path}");
    }

    let mut runner = harness::Runner::new(results.config.clone());
    harness::error::or_exit(harness::trace_export::run_trace_flag(args, &mut runner));

    if let Some(seed) = results.config.fault_seed {
        println!("\n== fault-recovery smoke (seed {seed}) ==");
        let dir = std::env::temp_dir().join("nbody-ptpm-repro-faults");
        let text = harness::error::or_exit(harness::faults::demo(
            &harness::faults::FaultRun::smoke(seed),
            &dir,
        ));
        print!("{text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|p| args.get(p + 1)).map(String::as_str)
}

/// The benchmark suite.
fn bench(args: &[String]) {
    let mut cfg = harness::config_from_args(args);
    if let Some(value) = args.iter().position(|a| a == "--n").map(|p| args.get(p + 1)) {
        let value = value.cloned().unwrap_or_default();
        let n = value.parse::<usize>().ok().filter(|&n| n >= 1);
        let bad = harness::error::HarnessError::BadFlag { flag: "--n".into(), value };
        cfg.sizes = vec![harness::error::or_exit(n.ok_or(bad))];
    }
    println!("== benchmark suite ==\n");
    let report = harness::bench::run_bench(&cfg);
    print!("{}", harness::bench::render(&report));
    if let Some(path) = flag_value(args, "--json") {
        harness::error::or_exit(report.write_json(path));
        println!("benchmark rows written to {path}");
    }
    let verdict = report.verdict();
    println!("{verdict}");
    if verdict.starts_with("BENCH FAIL") {
        std::process::exit(1);
    }
}

/// Prints `message` and exits 2 (usage or corrupt input).
fn usage_error(message: String) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// The committed-trajectory gate.
fn bench_history(args: &[String]) {
    let Some(path) = flag_value(args, "--history") else {
        usage_error(
            "usage: repro-all bench-history --history <jsonl> \
             [--ingest <BENCH.json> --label L [--write]] [--inject-slowdown F]"
                .into(),
        );
    };
    let mut hist = match std::fs::read_to_string(path) {
        Ok(text) => History::parse(&text)
            .unwrap_or_else(|e| usage_error(format!("corrupt history {path}: {e}"))),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => History::default(),
        Err(e) => usage_error(format!("cannot read {path}: {e}")),
    };
    if let Some(bench_path) = flag_value(args, "--ingest") {
        let text = std::fs::read_to_string(bench_path)
            .unwrap_or_else(|e| usage_error(format!("cannot read {bench_path}: {e}")));
        let mut report = BenchReport::from_json(&text)
            .unwrap_or_else(|e| usage_error(format!("corrupt bench report {bench_path}: {e}")));
        let slowdown = flag_value(args, "--inject-slowdown").map(|v| {
            v.parse::<f64>()
                .unwrap_or_else(|_| usage_error(format!("bad value for --inject-slowdown: {v}")))
        });
        if let Some(factor) = slowdown {
            history::inject_slowdown(&mut report, factor);
            println!("injected synthetic {factor}x slowdown of every wall row (never written)");
        }
        let label = flag_value(args, "--label").unwrap_or("local");
        let seq = hist.append(label, report).seq;
        println!("ingested {bench_path} as entry {seq} ({label})");
        if args.iter().any(|a| a == "--write") {
            if slowdown.is_some() {
                usage_error("refusing to --write an --inject-slowdown entry".into());
            }
            std::fs::write(path, hist.render_jsonl())
                .unwrap_or_else(|e| usage_error(format!("cannot write {path}: {e}")));
            println!("wrote {path} ({} entries)", hist.entries.len());
        }
    }
    print!("{}", hist.render_trajectory());
    let verdict = history::verdict(&hist);
    println!("{verdict}");
    std::process::exit(i32::from(verdict.contains("FAIL")));
}
