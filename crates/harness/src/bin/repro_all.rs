//! Regenerates every table and figure of the paper in one run, sharing one
//! measurement cache so all artifacts describe the same experiment.
//! `--json <path>` additionally writes the machine-readable results;
//! `--faults <seed>` reruns the whole suite under deterministic fault
//! injection (results stay bit-exact, simulated times absorb the recovery
//! overhead) and finishes with a checkpoint/restart smoke;
//! `--bench-json [path]` appends the thread-pool wall-clock benchmark,
//! writing its rows to `path` (default `BENCH_pr4.json`) and printing a
//! greppable `BENCH OK` / `BENCH SKIP` / `BENCH FAIL` verdict, then the
//! seed-vs-optimized hot-path benchmark (`BENCH_pr5.json` next to it,
//! verdict `BENCH_PR5 …`) and the out-of-core tree-pipeline benchmark
//! (`BENCH_pr10.json`, verdict `BENCH_PR10 …`; the million-body gates
//! need the dedicated `bench-pr10 --n 1048576` binary). Build with
//! `--features alloc-count` to install the counting allocator and gate
//! steady-state allocations at zero.
//!
//! A leading subcommand runs one artifact on its own instead of the suite:
//!
//! ```text
//! repro-all fig4|fig5|table2|table3 [--quick] [--threads N] [--trace <path>] …
//! repro-all table1|ptpm-report      [--quick] [--threads N] …
//! repro-all drift [N=256] | imbalance [N=8192] | whatif [N=4096]  [--threads N]
//! ```
//!
//! The first six take the suite's experiment flags (see
//! `harness::try_config_from_args`); the last three take a body count and
//! `--threads` only.

#[cfg(feature = "alloc-count")]
#[global_allocator]
static ALLOC: par::arena::CountingAlloc = par::arena::CountingAlloc;

/// `name` in the same directory as the `--bench-json` target.
fn sibling_path(bench_path: &str, name: &str) -> String {
    let p = std::path::Path::new(bench_path);
    match p.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir.join(name).to_string_lossy().into_owned(),
        _ => name.to_string(),
    }
}

/// Workload seed of the drift, imbalance and what-if studies.
const STUDY_SEED: u64 = 20110101;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some(name @ ("drift" | "imbalance" | "whatif")) => study(name, &args[1..]),
        Some(name @ ("fig4" | "fig5" | "table1" | "table2" | "table3" | "ptpm-report")) => {
            artifact(name, &args[1..])
        }
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
    let json_path = args.iter().position(|a| a == "--json").and_then(|p| args.get(p + 1)).cloned();
    let bench_path = args.iter().position(|a| a == "--bench-json").map(|p| match args.get(p + 1) {
        Some(v) if !v.starts_with("--") => v.clone(),
        _ => "BENCH_pr4.json".to_string(),
    });

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
        harness::error::or_exit(results.write_json(&path));
        println!("machine-readable results written to {path}");
    }

    let mut runner = harness::Runner::new(results.config.clone());
    harness::error::or_exit(harness::trace_export::run_trace_flag(args, &mut runner));

    if let Some(path) = bench_path {
        println!("\n== thread-pool wall-clock benchmark ==");
        let report = harness::bench_json::run_bench(&results.config);
        print!("{}", harness::bench_json::render(&report));
        harness::error::or_exit(report.write_json(&path));
        println!("benchmark rows written to {path}");
        println!("{}", report.verdict());

        println!("\n== SoA hot-path benchmark (seed vs optimized) ==");
        let pr5 = harness::bench_pr5::run_bench(&results.config);
        print!("{}", harness::bench_pr5::render(&pr5));
        let pr5_path = sibling_path(&path, "BENCH_pr5.json");
        harness::error::or_exit(pr5.write_json(&pr5_path));
        println!("hot-path rows written to {pr5_path}");
        println!("{}", pr5.verdict());

        println!("\n== out-of-core tree-pipeline benchmark ==");
        let pr10 = harness::bench_pr10::run_bench(&results.config);
        print!("{}", harness::bench_pr10::render(&pr10));
        let pr10_path = sibling_path(&path, "BENCH_pr10.json");
        harness::error::or_exit(pr10.write_json(&pr10_path));
        println!("out-of-core rows written to {pr10_path}");
        println!("{}", pr10.verdict());
    }

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
