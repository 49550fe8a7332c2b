//! Golden verdicts of the benchmark suite (`repro-all bench`) and of its
//! trajectory gate (`repro-all bench-history`).
//!
//! One table: every failure reason a gate knows must turn the verdict to
//! `FAIL` and name that reason, the skip reasons keep their names, and a
//! report with every gate satisfied reads `OK`.

use harness::bench::history::{inject_slowdown, verdict, History};
use harness::bench::{BenchReport, BenchRow, Clock};

const MILLION: usize = 1_048_576;

fn row(layer: &str, plan: &str, variant: &str, n: usize, clock: Clock, seconds: f64) -> BenchRow {
    BenchRow {
        layer: layer.into(),
        plan: plan.into(),
        variant: variant.into(),
        backend: if layer == "plans" || layer == "tree-pipeline" { "sim" } else { "host" }.into(),
        n,
        threads: if variant == "threaded" { 4 } else { 1 },
        clock,
        seconds,
        interactions_per_s: None,
        bitexact: true,
        peak_device_bytes: None,
        shards: None,
    }
}

fn report(rows: Vec<BenchRow>) -> BenchReport {
    BenchReport { threads: 4, available_parallelism: 8, cpu_model: "cpu".into(), rows }
}

/// A report on which all three suite gates pass.
fn passing() -> BenchReport {
    let wall = |layer, plan, variant, s| row(layer, plan, variant, 8192, Clock::Wall, s);
    let piped = |variant, clock, s, peak, shards| BenchRow {
        peak_device_bytes: Some(peak),
        shards: Some(shards),
        ..row("tree-pipeline", "jw-parallel", variant, MILLION, clock, s)
    };
    report(vec![
        wall("plans", "jw-parallel", "serial", 2.0),
        wall("plans", "jw-parallel", "threaded", 1.0),
        wall("nbody-core.soa", "pp", "seed", 1.5),
        wall("nbody-core.soa", "pp", "optimized", 1.0),
        wall("treecode.tree", "tree-build", "seed", 1.0),
        wall("treecode.tree", "tree-build", "optimized", 0.9),
        wall("treecode.morton", "morton-sort", "seed", 1.0),
        wall("treecode.morton", "morton-sort", "optimized", 0.5),
        piped("host-path", Clock::Simulated, 0.9, 700, 1),
        piped("pipeline", Clock::Simulated, 0.06, 780, 1),
        piped("sharded", Clock::Simulated, 2.0, 90, 16),
        piped("forecast", Clock::Forecast, 0.058, 780, 1),
    ])
}

/// `passing()` with `edit` applied to every row of `layer` whose variant
/// is `variant`.
fn with(layer: &str, variant: &str, edit: impl Fn(&mut BenchRow)) -> BenchReport {
    let mut r = passing();
    r.rows.iter_mut().filter(|row| row.layer == layer && row.variant == variant).for_each(edit);
    r
}

/// A history whose entries each hold one serial/threaded jw-parallel pair
/// with the given threaded speedup (serial 1 s).
fn history_of(speedups: &[f64]) -> History {
    let mut h = History::default();
    for (i, &s) in speedups.iter().enumerate() {
        h.append(&format!("e{i}"), pair(s, 8192));
    }
    h
}

fn pair(speedup: f64, n: usize) -> BenchReport {
    report(vec![
        row("plans", "jw-parallel", "serial", n, Clock::Wall, 1.0),
        row("plans", "jw-parallel", "threaded", n, Clock::Wall, 1.0 / speedup),
    ])
}

fn appended(mut h: History, label: &str, r: BenchReport) -> History {
    h.append(label, r);
    h
}

enum Input {
    Suite(BenchReport),
    History(History),
}

#[test]
fn every_gate_fails_on_each_of_its_reasons_and_names_it() {
    let single_core = BenchReport { available_parallelism: 1, ..passing() };
    let small = {
        let mut r = passing();
        for row in r.rows.iter_mut().filter(|r| r.layer != "tree-pipeline") {
            row.n = 1024;
        }
        // slowdowns below the gated size do not count
        r.rows[1].seconds = 4.0;
        r.rows[3].seconds = 3.0;
        r
    };
    let below_million = {
        let mut r = passing();
        for row in r.rows.iter_mut().filter(|r| r.layer == "tree-pipeline") {
            row.n = 8192;
            row.peak_device_bytes = Some(1);
        }
        r
    };
    let single_core_history = {
        let mut laptop = pair(1.0, 8192);
        laptop.available_parallelism = 1;
        appended(history_of(&[3.0]), "laptop", laptop)
    };
    let same_class_single_core = {
        let mut a = pair(1.0, 8192);
        a.available_parallelism = 1;
        let mut b = pair(0.98, 8192);
        b.available_parallelism = 1;
        appended(appended(History::default(), "laptop", a), "laptop2", b)
    };
    let other_cpu = {
        let mut r = pair(0.5, 8192);
        r.cpu_model = "another cpu".into();
        appended(history_of(&[1.5, 1.6]), "other", r)
    };
    let uniform_slowdown = {
        let mut r = pair(1.55, 8192);
        inject_slowdown(&mut r, 10.0);
        appended(history_of(&[1.5, 1.6]), "slow", r)
    };
    let simulated_only = |seconds: f64| {
        report(vec![row(
            "tree-pipeline",
            "w-parallel",
            "pipeline",
            MILLION,
            Clock::Simulated,
            seconds,
        )])
    };
    let simulated_slowdown =
        appended(appended(History::default(), "a", simulated_only(0.05)), "b", simulated_only(0.5));
    let small_sizes =
        appended(appended(History::default(), "a", pair(1.5, 1024)), "b", pair(0.2, 1024));
    let wall_vs_simulated = {
        let mut prior = pair(1.5, 8192);
        prior.rows.iter_mut().for_each(|r| r.clock = Clock::Simulated);
        let mut latest = pair(1.5, 8192);
        inject_slowdown(&mut latest, 10.0);
        appended(appended(History::default(), "sim", prior), "wall", latest)
    };

    let cases: Vec<(&str, Input, &str, &str)> = vec![
        // --- suite: OK and the SKIP reasons ---
        (
            "all gates pass",
            Input::Suite(passing()),
            "BENCH OK (",
            "pipeline passed: min pipeline speedup 15.00x",
        ),
        ("single core", Input::Suite(single_core), "BENCH SKIP (", "threads skipped: single core"),
        (
            "no threads size reaches 4096",
            Input::Suite(small.clone()),
            "BENCH SKIP (",
            "threads skipped: no benchmark size reaches 4096",
        ),
        (
            "no PP size reaches 4096",
            Input::Suite(small),
            "BENCH SKIP (",
            "hot-path skipped: no PP size reaches 4096",
        ),
        (
            "no size reaches 1M",
            Input::Suite(below_million),
            "BENCH SKIP (",
            "pipeline skipped: no benchmark size reaches 1000000",
        ),
        // --- suite: every FAIL reason ---
        (
            "threaded forces differ",
            Input::Suite(with("plans", "threaded", |r| r.bitexact = false)),
            "BENCH FAIL (",
            "threads failed: threaded forces differ from serial: jw-parallel n=8192",
        ),
        (
            "threaded slowdown at n >= 4096 on >= 2 cores",
            Input::Suite(with("plans", "threaded", |r| r.seconds = 4.0)),
            "BENCH FAIL (",
            "threads failed: min threaded speedup 0.50x < 1.0 at jw-parallel n=8192",
        ),
        (
            "pp not bit-exact",
            Input::Suite(with("nbody-core.soa", "optimized", |r| r.bitexact = false)),
            "BENCH FAIL (",
            "hot-path failed: pp n=8192 not bit-exact vs its seed",
        ),
        (
            "tree build not bit-exact",
            Input::Suite(with("treecode.tree", "optimized", |r| r.bitexact = false)),
            "BENCH FAIL (",
            "hot-path failed: tree-build n=8192 not bit-exact vs its seed",
        ),
        (
            "morton sort not bit-exact",
            Input::Suite(with("treecode.morton", "optimized", |r| r.bitexact = false)),
            "BENCH FAIL (",
            "hot-path failed: morton-sort n=8192 not bit-exact vs its seed",
        ),
        (
            "PP optimized slowdown at n >= 4096",
            Input::Suite(with("nbody-core.soa", "optimized", |r| r.seconds = 3.0)),
            "BENCH FAIL (",
            "hot-path failed: min PP speedup 0.50x < 1.0 at n=8192",
        ),
        (
            "device tree forces differ",
            Input::Suite(with("tree-pipeline", "pipeline", |r| r.bitexact = false)),
            "BENCH FAIL (",
            "pipeline failed: jw-parallel device tree diverges from the host tree",
        ),
        (
            "sharded forces differ",
            Input::Suite(with("tree-pipeline", "sharded", |r| r.bitexact = false)),
            "BENCH FAIL (",
            "pipeline failed: jw-parallel sharded run diverges from unsharded",
        ),
        (
            "sharded peak >= unsharded at 1M",
            Input::Suite(with("tree-pipeline", "sharded", |r| r.peak_device_bytes = Some(700))),
            "BENCH FAIL (",
            "pipeline failed: jw-parallel sharding does not shrink peak device bytes",
        ),
        (
            "PTPM agreement above the band at 1M",
            Input::Suite(with("tree-pipeline", "forecast", |r| r.seconds = 0.1)),
            "BENCH FAIL (",
            "pipeline failed: jw-parallel PTPM agreement 1.667 outside (0.8, 1.25)",
        ),
        (
            "PTPM agreement below the band at 1M",
            Input::Suite(with("tree-pipeline", "forecast", |r| r.seconds = 0.03)),
            "BENCH FAIL (",
            "pipeline failed: jw-parallel PTPM agreement 0.500 outside (0.8, 1.25)",
        ),
        (
            "pipeline speedup below 1.5x at 1M",
            Input::Suite(with("tree-pipeline", "host-path", |r| r.seconds = 0.08)),
            "BENCH FAIL (",
            "pipeline failed: min pipeline speedup 1.33x < 1.5x",
        ),
        // --- trajectory gate ---
        ("improvement", Input::History(history_of(&[1.5, 1.6, 2.1])), "BENCH HISTORY OK", ""),
        (
            "within noise jitter",
            Input::History(history_of(&[1.5, 1.55, 1.45, 1.4])),
            "BENCH HISTORY OK",
            "",
        ),
        (
            "genuine speedup regression",
            Input::History(history_of(&[1.5, 1.6, 1.55, 0.6])),
            "BENCH HISTORY FAIL",
            "plans jw-parallel serial n=8192 speedup 0.60x fell below",
        ),
        (
            "uniform 10x slowdown of serial and threaded",
            Input::History(uniform_slowdown),
            "BENCH HISTORY FAIL",
            "plans jw-parallel serial n=8192 t=1 took 10.0000s, above",
        ),
        (
            "one noisy outlier in the baseline",
            Input::History(history_of(&[1.5, 10.0, 1.5, 1.4])),
            "BENCH HISTORY OK",
            "",
        ),
        (
            "missing baseline",
            Input::History(history_of(&[1.5])),
            "BENCH HISTORY SKIP (no baseline)",
            "",
        ),
        ("no history", Input::History(History::default()), "BENCH HISTORY SKIP (no history)", ""),
        (
            "bit-exactness is never waived",
            Input::History(appended(History::default(), "only", {
                let mut r = pair(2.0, 8192);
                r.rows[1].bitexact = false;
                r
            })),
            "BENCH HISTORY FAIL",
            "jw-parallel threaded n=8192 not bit-exact in entry 1",
        ),
        (
            "parallel classes do not mix",
            Input::History(single_core_history),
            "BENCH HISTORY SKIP (no comparable baseline)",
            "",
        ),
        ("one class gates itself", Input::History(same_class_single_core), "BENCH HISTORY OK", ""),
        (
            "CPU models do not mix",
            Input::History(other_cpu),
            "BENCH HISTORY SKIP (no comparable baseline)",
            "",
        ),
        (
            "small sizes are not gated",
            Input::History(small_sizes),
            "BENCH HISTORY SKIP (no wall-clock size reaches 4096)",
            "",
        ),
        (
            "simulated rows are never gated",
            Input::History(simulated_slowdown),
            "BENCH HISTORY SKIP (no wall-clock size reaches 4096)",
            "",
        ),
        (
            "wall rows never meet simulated baselines",
            Input::History(wall_vs_simulated),
            "BENCH HISTORY SKIP (no comparable baseline)",
            "",
        ),
    ];

    for (name, input, head, reason) in cases {
        let verdict = match &input {
            Input::Suite(r) => r.verdict(),
            Input::History(h) => verdict(h),
        };
        assert!(verdict.starts_with(head), "{name}: {verdict}");
        assert!(verdict.contains(reason), "{name}: want {reason:?} in {verdict}");
        if head.contains("FAIL") {
            assert!(!reason.is_empty(), "{name}: a failure must name its reason");
        }
    }
}
