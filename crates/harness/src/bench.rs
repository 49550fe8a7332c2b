//! The benchmark suite (`repro-all bench`): one row schema, one verdict.
//!
//! Every number the suite records is a [`BenchRow`] that names its clock
//! ([`Clock`]): *wall* rows time real host work, *simulated* rows read the
//! `gpu-sim` device model, *forecast* rows come from the PTPM cost model.
//! Rows a gate compares share a key (`layer`, `plan`, `backend`, `n`) and
//! differ in `variant`; numbers on different clocks are never divided into
//! one speedup, except the forecast-vs-simulated *agreement* the pipeline
//! gate checks.
//!
//! | section | layer | plan | variants | clock |
//! |---------|-------|------|----------|-------|
//! | thread pool | `plans` | each plan | `serial` (1 thread) / `threaded` | wall |
//! | hot paths | `nbody-core.soa`, `treecode.tree`, `treecode.morton` | `pp`, `tree-build`, `morton-sort` | `seed` / `optimized` (1 thread), and `threaded` for `pp` | wall |
//! | substrate | `treecode.interaction_list`, `treecode.bh` | `walk-generation`, `cpu-forces` | `theta=0.5 …` | wall |
//! | ablations | `ablation` | `i-parallel`, `jw-parallel` | `block=…`, `theta=…`, `walk=…`, `slice=…`, `cus=…` | simulated |
//! | tree pipeline | `tree-pipeline` | `w-parallel`, `jw-parallel` | `host-path` / `pipeline` / `sharded`, `forecast` | simulated, forecast |
//!
//! The wall sections and the ablations run at [`wall_sizes`] (the largest
//! two sweep sizes ≤ [`WALL_MAX_N`]); the tree-pipeline section runs at the
//! largest sweep size, so `--n 1048576` runs only that section. The
//! hot-path, substrate and tree-pipeline sections run on one thread, except
//! the `pp` `threaded` row.
//!
//! [`BenchReport::verdict`] is one greppable line, `BENCH OK|SKIP|FAIL (…)`,
//! naming each gate as passed, skipped (with its reason) or failed:
//!
//! * `threads` — threaded forces bit-identical to serial; on ≥ 2 cores, no
//!   threaded slowdown at n ≥ [`SPEEDUP_GATE_N`];
//! * `hot-path` — each optimized path bit-identical to its seed; no
//!   optimized PP slowdown at n ≥ [`SPEEDUP_GATE_N`];
//! * `pipeline` — device-built and sharded forces bit-identical to the
//!   in-core host path; at n ≥ [`PIPELINE_GATE_N`], sharding shrinks the
//!   peak device bytes, the PTPM forecast agrees with the simulated
//!   pipeline within [`AGREEMENT_BAND`], and the pipeline beats the host
//!   path by [`PIPELINE_SPEEDUP`].
//!
//! The verdict is `OK` only when every gate passed. Zero steady-state
//! allocation is gated by `tests/alloc_steady_state.rs`, not here. The
//! committed trajectory of these rows and its gate live in [`history`].

pub mod history;

use crate::config::ExperimentConfig;
use crate::error::HarnessError;
use gpu_sim::prelude::{Device, DeviceSpec, TransferModel};
use nbody_core::body::ParticleSet;
use nbody_core::gravity::{accelerations_pp, accelerations_pp_parallel};
use nbody_core::integrator::LeapfrogKdk;
use nbody_core::soa::{accelerations_pp_tiled_with, SoaBodies, SoaPp};
use nbody_core::vec3::Vec3;
use plans::make_plan;
use plans::prelude::{evaluate_tree_plan, PlanConfig, PlanKind, PlanOutcome};
use serde::{Deserialize, Serialize};
use std::time::Instant;
use treecode::prelude::*;

/// Smallest N whose wall rows the speedup gates (and the history gate)
/// judge: smaller workloads have too little work for a stable timing.
pub const SPEEDUP_GATE_N: usize = 4096;
/// Largest N the wall sections and ablations bench.
pub const WALL_MAX_N: usize = 16384;
/// Body count at which the tree-pipeline speedup, memory and agreement
/// gates apply: there the host tree path is the bottleneck the pipeline
/// exists to remove.
pub const PIPELINE_GATE_N: usize = 1_000_000;
/// Minimum host-path / pipeline speedup at [`PIPELINE_GATE_N`].
pub const PIPELINE_SPEEDUP: f64 = 1.5;
/// Open band the PTPM forecast / simulated pipeline ratio must fall in at
/// [`PIPELINE_GATE_N`].
pub const AGREEMENT_BAND: (f64, f64) = (0.8, 1.25);

/// Which clock a row's seconds were read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Clock {
    /// Real host time.
    Wall,
    /// The `gpu-sim` device model (and the plans' host cost model).
    Simulated,
    /// The PTPM cost model's forecast.
    Forecast,
}

impl Clock {
    /// Lower-case name for tables.
    pub(crate) fn id(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Simulated => "simulated",
            Clock::Forecast => "forecast",
        }
    }
}

/// One measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRow {
    /// Workspace layer the measured code lives in (`plans`, `treecode.tree`, …).
    pub layer: String,
    /// Plan or path measured (`jw-parallel`, `pp`, `morton-sort`, …).
    pub plan: String,
    /// Which side of a compared pair, or the ablated parameter.
    pub variant: String,
    /// `sim` (simulated device) or `host`.
    pub backend: String,
    /// Bodies in the workload.
    pub n: usize,
    /// Host worker threads the row ran with.
    pub threads: usize,
    /// The clock `seconds` was read from.
    pub clock: Clock,
    /// Seconds on `clock` (best of two for the hot paths).
    pub seconds: f64,
    /// Force interactions per second on `clock`; `None` when the row
    /// computes no forces.
    pub interactions_per_s: Option<f64>,
    /// False only when the row's result differed from its key's reference
    /// (serial, seed, or in-core host path); rows with nothing to compare
    /// report true.
    pub bitexact: bool,
    /// High-water device bytes of the evaluation (tree-pipeline rows).
    pub peak_device_bytes: Option<usize>,
    /// Shards the evaluation streamed through (tree-pipeline rows).
    pub shards: Option<usize>,
}

impl BenchRow {
    fn new(layer: &str, plan: &str, variant: &str, backend: &str, n: usize, clock: Clock) -> Self {
        BenchRow {
            layer: layer.into(),
            plan: plan.into(),
            variant: variant.into(),
            backend: backend.into(),
            n,
            threads: par::threads(),
            clock,
            seconds: 0.0,
            interactions_per_s: None,
            bitexact: true,
            peak_device_bytes: None,
            shards: None,
        }
    }

    fn timed(mut self, seconds: f64, interactions: Option<u64>) -> Self {
        self.seconds = seconds;
        self.interactions_per_s = interactions.map(|i| i as f64 / seconds.max(1e-12));
        self
    }

    fn exact(mut self, bitexact: bool) -> Self {
        self.bitexact = bitexact;
        self
    }

    /// True when `other` has this row's key: everything but `variant`,
    /// `threads` and the measured columns.
    pub(crate) fn same_key(&self, other: &BenchRow) -> bool {
        self.layer == other.layer
            && self.plan == other.plan
            && self.backend == other.backend
            && self.n == other.n
    }
}

/// A full suite run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Worker threads of the `threaded` rows.
    pub threads: usize,
    /// The machine's available parallelism (1 ⇒ the `threads` speedup gate
    /// is skipped).
    pub available_parallelism: usize,
    /// The CPU model (`/proc/cpuinfo`), part of the history's machine class.
    pub cpu_model: String,
    /// The measurements.
    pub rows: Vec<BenchRow>,
}

/// One gate's outcome.
#[derive(Debug, Clone, PartialEq)]
enum Gate {
    Passed(String),
    Skipped(String),
    Failed(String),
}

impl BenchReport {
    fn rows_in(&self, layers: &'static [&'static str]) -> impl Iterator<Item = &BenchRow> {
        self.rows.iter().filter(move |r| layers.contains(&r.layer.as_str()))
    }

    /// The row sharing `row`'s key with variant `variant`.
    fn partner(&self, row: &BenchRow, variant: &str) -> Option<&BenchRow> {
        self.rows.iter().find(|r| r.same_key(row) && r.variant == variant)
    }

    /// `(row, a.seconds / b.seconds)` for every `a`-variant row of `layers`
    /// at n ≥ `min_n` that has a `b` partner.
    fn ratios(
        &self,
        layers: &'static [&'static str],
        a: &str,
        b: &str,
        min_n: usize,
    ) -> Vec<(&BenchRow, f64)> {
        self.rows_in(layers)
            .filter(|r| r.variant == a && r.n >= min_n)
            .filter_map(|r| self.partner(r, b).map(|p| (r, r.seconds / p.seconds.max(1e-12))))
            .collect()
    }

    fn threads_gate(&self) -> Gate {
        if let Some(r) = self.rows_in(&["plans"]).find(|r| !r.bitexact) {
            return Gate::Failed(format!(
                "threaded forces differ from serial: {} n={}",
                r.plan, r.n
            ));
        }
        if self.threads < 2 || self.available_parallelism < 2 {
            return Gate::Skipped("single core".into());
        }
        let speedups = self.ratios(&["plans"], "serial", "threaded", SPEEDUP_GATE_N);
        match worst(&speedups) {
            None => Gate::Skipped(format!("no benchmark size reaches {SPEEDUP_GATE_N}")),
            Some((r, s)) if s < 1.0 => {
                Gate::Failed(format!("min threaded speedup {s:.2}x < 1.0 at {} n={}", r.plan, r.n))
            }
            Some((_, s)) => {
                Gate::Passed(format!("min speedup {s:.2}x at {} threads", self.threads))
            }
        }
    }

    fn hot_path_gate(&self) -> Gate {
        const LAYERS: &[&str] = &["nbody-core.soa", "treecode.tree", "treecode.morton"];
        if let Some(r) = self.rows_in(LAYERS).find(|r| !r.bitexact) {
            return Gate::Failed(format!("{} n={} not bit-exact vs its seed", r.plan, r.n));
        }
        let speedups = self.ratios(&["nbody-core.soa"], "seed", "optimized", SPEEDUP_GATE_N);
        match worst(&speedups) {
            None => Gate::Skipped(format!("no PP size reaches {SPEEDUP_GATE_N}")),
            Some((r, s)) if s < 1.0 => {
                Gate::Failed(format!("min PP speedup {s:.2}x < 1.0 at n={}", r.n))
            }
            Some((_, s)) => Gate::Passed(format!("min PP speedup {s:.2}x")),
        }
    }

    fn pipeline_gate(&self) -> Gate {
        const LAYER: &[&str] = &["tree-pipeline"];
        for (variant, what) in [
            ("pipeline", "device tree diverges from the host tree"),
            ("sharded", "sharded run diverges from unsharded"),
        ] {
            if let Some(r) = self.rows_in(LAYER).find(|r| r.variant == variant && !r.bitexact) {
                return Gate::Failed(format!("{} {what}", r.plan));
            }
        }
        let gated: Vec<&BenchRow> = self
            .rows_in(LAYER)
            .filter(|r| r.variant == "host-path" && r.n >= PIPELINE_GATE_N)
            .collect();
        if gated.is_empty() {
            return Gate::Skipped(format!("no benchmark size reaches {PIPELINE_GATE_N}"));
        }
        for host in &gated {
            let sharded = self.partner(host, "sharded").and_then(|r| r.peak_device_bytes);
            let full = host.peak_device_bytes;
            if sharded.is_none() || full.is_none() || sharded >= full {
                return Gate::Failed(format!(
                    "{} sharding does not shrink peak device bytes: {sharded:?} >= {full:?}",
                    host.plan
                ));
            }
        }
        let agreement = self.ratios(LAYER, "forecast", "pipeline", PIPELINE_GATE_N);
        let (lo, hi) = AGREEMENT_BAND;
        if agreement.len() < gated.len() {
            return Gate::Failed("a pipeline row lacks its forecast".into());
        }
        if let Some((r, a)) = agreement.iter().find(|(_, a)| *a <= lo || *a >= hi) {
            return Gate::Failed(format!("{} PTPM agreement {a:.3} outside ({lo}, {hi})", r.plan));
        }
        let speedups = self.ratios(LAYER, "host-path", "pipeline", PIPELINE_GATE_N);
        match worst(&speedups) {
            Some((_, s)) if speedups.len() == gated.len() && s >= PIPELINE_SPEEDUP => {
                Gate::Passed(format!(
                    "min pipeline speedup {s:.2}x >= {PIPELINE_SPEEDUP}x, PTPM agreement in ({lo}, {hi})"
                ))
            }
            found => Gate::Failed(format!(
                "min pipeline speedup {:.2}x < {PIPELINE_SPEEDUP}x",
                found.map_or(0.0, |(_, s)| s)
            )),
        }
    }

    /// The one verdict line: `BENCH FAIL (…)` if any gate failed, `BENCH OK
    /// (…)` if every gate passed, `BENCH SKIP (…)` otherwise; the
    /// parentheses name every gate's outcome.
    pub fn verdict(&self) -> String {
        let gates = [
            ("threads", self.threads_gate()),
            ("hot-path", self.hot_path_gate()),
            ("pipeline", self.pipeline_gate()),
        ];
        let head = if gates.iter().any(|(_, g)| matches!(g, Gate::Failed(_))) {
            "FAIL"
        } else if gates.iter().all(|(_, g)| matches!(g, Gate::Passed(_))) {
            "OK"
        } else {
            "SKIP"
        };
        let parts: Vec<String> = gates
            .iter()
            .map(|(name, gate)| match gate {
                Gate::Passed(why) => format!("{name} passed: {why}"),
                Gate::Skipped(why) => format!("{name} skipped: {why}"),
                Gate::Failed(why) => format!("{name} failed: {why}"),
            })
            .collect();
        format!("BENCH {head} ({})", parts.join("; "))
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> Result<String, HarnessError> {
        serde_json::to_string_pretty(self)
            .map_err(|e| HarnessError::Json { what: "bench report".into(), source: e })
    }

    /// Parses a previously written report.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Serializes and writes the report to `path` with typed errors.
    pub fn write_json(&self, path: &str) -> Result<(), HarnessError> {
        std::fs::write(path, self.to_json()?).map_err(|e| HarnessError::io(path, e))
    }
}

/// The pair with the smallest ratio.
fn worst<'a>(ratios: &[(&'a BenchRow, f64)]) -> Option<(&'a BenchRow, f64)> {
    ratios.iter().copied().min_by(|a, b| a.1.total_cmp(&b.1))
}

/// The sizes the wall sections and ablations bench: the largest two of the
/// sweep that are ≤ [`WALL_MAX_N`] (larger sizes only lengthen the run
/// without changing a verdict).
pub fn wall_sizes(sizes: &[usize]) -> Vec<usize> {
    let pool: Vec<usize> = sizes.iter().copied().filter(|&n| n <= WALL_MAX_N).collect();
    pool[pool.len().saturating_sub(2)..].to_vec()
}

/// The CPU model named in `/proc/cpuinfo`, or `unknown`.
pub(crate) fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn best_of_two<F: FnMut()>(mut f: F) -> f64 {
    (0..2)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Runs the whole suite for `cfg` (see the module table). Restores the
/// configured thread count before returning.
pub fn run_bench(cfg: &ExperimentConfig) -> BenchReport {
    let threads = cfg.threads.unwrap_or_else(par::threads).max(1);
    let sizes = wall_sizes(&cfg.sizes);
    let mut rows = Vec::new();
    for &n in &sizes {
        let set = cfg.workload(n).generate();
        thread_pool_rows(cfg, &set, threads, &mut rows);
        par::set_threads(1);
        hot_path_rows(cfg, &set, threads, &mut rows);
    }
    par::set_threads(threads);
    if let Some(&n) = sizes.last() {
        ablation_rows(cfg, n, &mut rows);
    }
    if let Some(&n) = cfg.sizes.last() {
        par::set_threads(1);
        pipeline_rows(cfg, n, &mut rows);
    }
    par::set_threads(threads);
    BenchReport {
        threads,
        available_parallelism: par::available_parallelism(),
        cpu_model: cpu_model(),
        rows,
    }
}

/// Every plan serial, then threaded, on fresh devices; forces compared.
fn thread_pool_rows(
    cfg: &ExperimentConfig,
    set: &ParticleSet,
    threads: usize,
    rows: &mut Vec<BenchRow>,
) {
    for kind in PlanKind::all() {
        let plan = make_plan(kind, cfg.plan);
        let run = |t: usize, variant: &str| {
            par::set_threads(t);
            let mut device = cfg.device();
            let start = Instant::now();
            let outcome = plan.evaluate(&mut device, set, &cfg.gravity);
            let row = BenchRow::new("plans", kind.id(), variant, "sim", set.len(), Clock::Wall)
                .timed(start.elapsed().as_secs_f64(), Some(outcome.interactions));
            (row, outcome.acc)
        };
        let (serial, serial_acc) = run(1, "serial");
        let (threaded, threaded_acc) = run(threads, "threaded");
        let exact = serial_acc == threaded_acc;
        rows.extend([serial.exact(exact), threaded.exact(exact)]);
    }
}

/// The SoA hot paths against the seed code they replaced, plus the
/// substrate walk generation and CPU Barnes-Hut forces (one thread), and
/// the tiled PP kernel split over `threads` workers.
fn hot_path_rows(
    cfg: &ExperimentConfig,
    set: &ParticleSet,
    threads: usize,
    rows: &mut Vec<BenchRow>,
) {
    let n = set.len();
    let params = &cfg.gravity;
    let pair = |layer: &str, plan: &str, seed_s: f64, opt_s: f64, exact: bool, ia: Option<u64>| {
        [("seed", seed_s), ("optimized", opt_s)].map(|(variant, s)| {
            BenchRow::new(layer, plan, variant, "host", n, Clock::Wall).timed(s, ia).exact(exact)
        })
    };

    // PP: scalar AoS reference vs the tiled SoA kernel, packing included
    let mut naive = vec![Vec3::ZERO; n];
    let seed_s = best_of_two(|| accelerations_pp(set, params, &mut naive));
    let mut soa = SoaBodies::new();
    let mut tiled = vec![Vec3::ZERO; n];
    let tile = nbody_core::soa::tile();
    let opt_s = best_of_two(|| {
        soa.fill_from(set);
        accelerations_pp_tiled_with(soa.view(), params, tile, &mut tiled);
    });
    let pp = (n as u64) * (n as u64);
    rows.extend(pair("nbody-core.soa", "pp", seed_s, opt_s, naive == tiled, Some(pp)));
    let mut split = vec![Vec3::ZERO; n];
    let split_s = best_of_two(|| accelerations_pp_parallel(set, params, &mut split, threads));
    let split_row = BenchRow::new("nbody-core.soa", "pp", "threaded", "host", n, Clock::Wall);
    rows.push(BenchRow { threads, ..split_row.timed(split_s, Some(pp)).exact(naive == split) });

    // tree: fresh build vs rebuild-in-place with pooled scratch
    let tree_params = TreeParams::default();
    let fresh = Octree::build(set, tree_params);
    let seed_s = best_of_two(|| {
        std::hint::black_box(Octree::build(set, tree_params));
    });
    let mut tree = Octree::build(set, tree_params);
    let mut scratch = par::arena::Scratch::new();
    let opt_s = best_of_two(|| tree.rebuild(set, &mut scratch));
    let exact = tree.nodes() == fresh.nodes() && tree.order() == fresh.order();
    rows.extend(pair("treecode.tree", "tree-build", seed_s, opt_s, exact, None));

    // Morton: full sort vs incremental re-sort of a near-sorted order (the
    // bodies drift a little so the previous order is no longer sorted)
    let mut drifted = set.clone();
    let order0 = morton_order(&drifted);
    let mut engine = SoaPp::new(*params);
    nbody_core::integrator::run(&mut drifted, &mut engine, &LeapfrogKdk, 5e-3, 5);
    let expected = morton_order(&drifted);
    let seed_s = best_of_two(|| {
        std::hint::black_box(morton_order(&drifted));
    });
    let mut order: Vec<u32> = Vec::new();
    let mut resort = || {
        order.clear();
        order.extend_from_slice(&order0);
        morton_order_incremental(&drifted, &mut order, &mut scratch);
    };
    let opt_s = best_of_two(&mut resort);
    let exact = order == expected;
    rows.extend(pair("treecode.morton", "morton-sort", seed_s, opt_s, exact, None));

    // substrate: walk generation and CPU Barnes-Hut forces over `fresh`
    let theta = OpeningAngle::new(cfg.plan.theta);
    let ws = cfg.plan.walk_size;
    let walk_s = best_of_two(|| {
        std::hint::black_box(build_walks(&fresh, set, theta, ws));
    });
    let variant = format!("theta={} walk={ws}", cfg.plan.theta);
    let walk = BenchRow::new(
        "treecode.interaction_list",
        "walk-generation",
        &variant,
        "host",
        n,
        Clock::Wall,
    );
    rows.push(walk.timed(walk_s, None));
    let mut acc = vec![Vec3::ZERO; n];
    let mut stats = WalkStats::default();
    let bh_s = best_of_two(|| stats = accelerations_bh(&fresh, set, theta, params, &mut acc));
    let variant = format!("theta={}", cfg.plan.theta);
    let bh = BenchRow::new("treecode.bh", "cpu-forces", &variant, "host", n, Clock::Wall);
    rows.push(bh.timed(bh_s, Some(stats.cell_interactions + stats.body_interactions)));
}

/// The design-space ablations on the simulated clock, at their historical
/// sizes capped by `n_max`. No gate reads them.
fn ablation_rows(cfg: &ExperimentConfig, n_max: usize, rows: &mut Vec<BenchRow>) {
    let hd5850 = DeviceSpec::radeon_hd_5850();
    let mut run = |kind: PlanKind, n: usize, variant: String, config, cus, total: bool| {
        let n = n.min(n_max);
        let set = cfg.workload(n).generate();
        let spec = hd5850.with_compute_units(cus);
        let mut device = Device::with_transfer_model(spec, TransferModel::pcie2_x16());
        let outcome = make_plan(kind, config).evaluate(&mut device, &set, &cfg.gravity);
        let seconds = if total { outcome.total_seconds() } else { outcome.kernel_s };
        let row = BenchRow::new("ablation", kind.id(), &variant, "sim", n, Clock::Simulated);
        rows.push(row.timed(seconds, Some(outcome.interactions)));
    };
    let (base, cus) = (cfg.plan, hd5850.compute_units);
    for block_size in [64, 128, 256] {
        let config = PlanConfig { block_size, ..base };
        run(PlanKind::IParallel, 4096, format!("block={block_size}"), config, cus, false);
    }
    for theta in [0.3, 0.5, 0.8] {
        let config = PlanConfig { theta, ..base };
        run(PlanKind::JwParallel, 8192, format!("theta={theta}"), config, cus, false);
    }
    for walk_size in [64, 128, 256] {
        let config = PlanConfig { walk_size, ..base };
        run(PlanKind::JwParallel, 8192, format!("walk={walk_size}"), config, cus, true);
    }
    for len in [64, 256, 1024, 8192] {
        let config = PlanConfig { jw_slice_len: Some(len), ..base };
        run(PlanKind::JwParallel, 4096, format!("slice={len}"), config, cus, false);
    }
    for cus in [4, 9, 18, 32] {
        run(PlanKind::JwParallel, 8192, format!("cus={cus}"), base, cus, false);
    }
}

/// Host path vs on-device tree pipeline for both tree plans at `n`, plus
/// the Morton-sharded run and the PTPM pipeline forecast, all on one
/// device.
fn pipeline_rows(cfg: &ExperimentConfig, n: usize, rows: &mut Vec<BenchRow>) {
    let set = cfg.workload(n).generate();
    let params = &cfg.gravity;
    let xfer = TransferModel::pcie2_x16();
    let mut device = Device::with_transfer_model(DeviceSpec::radeon_hd_5850(), xfer);
    let base = PlanConfig { device_tree: false, shards: None, mem_budget_bytes: None, ..cfg.plan };
    let sharded_cfg = PlanConfig { shards: Some(cfg.plan.shards.unwrap_or(8)), ..base };
    for kind in [PlanKind::WParallel, PlanKind::JwParallel] {
        let reference = evaluate_tree_plan(kind, &base, &mut device, &set, params).outcome;
        let device_cfg = PlanConfig { device_tree: true, ..base };
        let piped = evaluate_tree_plan(kind, &device_cfg, &mut device, &set, params);
        let sharded = evaluate_tree_plan(kind, &sharded_cfg, &mut device, &set, params).outcome;

        let entries = piped.shape.entries;
        let host_s = reference.host_tree_s + reference.host_walk_s + xfer.seconds(16 * entries);
        let forecast_s =
            ptpm::model::forecast_pipeline(&piped.shape, device.spec(), &xfer).seconds();
        // only the sharded row times force evaluation; the others time
        // getting the interaction lists onto the device
        let row = |variant: &str, clock, outcome: &PlanOutcome, seconds, forces: bool| BenchRow {
            peak_device_bytes: Some(outcome.peak_device_bytes),
            shards: Some(outcome.shards_used),
            ..BenchRow::new("tree-pipeline", kind.id(), variant, "sim", n, clock)
                .timed(seconds, forces.then_some(outcome.interactions))
                .exact(outcome.acc == reference.acc)
        };
        let pipeline_s = piped.outcome.pipeline_s;
        rows.extend([
            row("host-path", Clock::Simulated, &reference, host_s, false),
            row("pipeline", Clock::Simulated, &piped.outcome, pipeline_s, false),
            row("sharded", Clock::Simulated, &sharded, sharded.total_seconds(), true),
            row("forecast", Clock::Forecast, &piped.outcome, forecast_s, false),
        ]);
    }
}

/// Human-readable table of the rows.
pub fn render(report: &BenchReport) -> String {
    let mut out = format!(
        "threads = {} (machine parallelism {}, cpu {})\n{:<26} {:<16} {:<18} {:>4} {:>8} {:>3} {:<9} {:>11} {:>11}  exact  peak bytes / shards\n",
        report.threads,
        report.available_parallelism,
        report.cpu_model,
        "layer",
        "plan",
        "variant",
        "back",
        "N",
        "thr",
        "clock",
        "seconds",
        "inter/s",
    );
    for r in &report.rows {
        let ips = r.interactions_per_s.map_or("-".to_string(), |v| format!("{v:.3e}"));
        let mem = match (r.peak_device_bytes, r.shards) {
            (Some(p), Some(s)) => format!("{p} / {s}"),
            _ => String::new(),
        };
        out.push_str(&format!(
            "{:<26} {:<16} {:<18} {:>4} {:>8} {:>3} {:<9} {:>11.4e} {:>11}  {:<5}  {mem}\n",
            r.layer,
            r.plan,
            r.variant,
            r.backend,
            r.n,
            r.threads,
            r.clock.id(),
            r.seconds,
            ips,
            if r.bitexact { "yes" } else { "NO" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_sizes_are_the_largest_two_up_to_the_cap() {
        assert_eq!(wall_sizes(&[256, 512, 1024, 4096, 16384, 65536]), vec![4096, 16384]);
        assert_eq!(wall_sizes(&ExperimentConfig::paper().sizes), vec![8192, 16384]);
        assert_eq!(wall_sizes(&ExperimentConfig::quick().sizes), vec![1024, 8192]);
        assert_eq!(wall_sizes(&[128, 256]), vec![128, 256]);
        assert_eq!(wall_sizes(&[2048]), vec![2048]);
        assert!(wall_sizes(&[1 << 20]).is_empty(), "a million-body sweep runs only the pipeline");
    }

    #[test]
    fn small_suite_is_exact_clock_tagged_and_round_trips() {
        let mut cfg = ExperimentConfig::quick();
        cfg.sizes = vec![1024]; // four walks to shard; every size gate skips
        cfg.threads = Some(2);
        let report = run_bench(&cfg);
        par::set_threads(1);
        let count = |layer: &str| report.rows.iter().filter(|r| r.layer == layer).count();
        assert_eq!(count("plans"), 2 * PlanKind::all().len(), "serial + threaded per plan");
        assert_eq!(count("nbody-core.soa"), 3, "pp: seed + optimized + threaded");
        for layer in ["treecode.tree", "treecode.morton"] {
            assert_eq!(count(layer), 2, "{layer}: seed + optimized");
        }
        assert_eq!(count("treecode.interaction_list") + count("treecode.bh"), 2);
        assert_eq!(count("ablation"), 17);
        assert_eq!(count("tree-pipeline"), 8, "4 variants x 2 tree plans");
        for r in &report.rows {
            assert!(r.bitexact && r.seconds > 0.0, "{r:?}");
            let want = match r.layer.as_str() {
                "ablation" => vec![Clock::Simulated],
                "tree-pipeline" => vec![Clock::Simulated, Clock::Forecast],
                _ => vec![Clock::Wall],
            };
            assert!(want.contains(&r.clock), "{r:?}");
        }
        let piped = report.rows.iter().find(|r| r.variant == "sharded").unwrap();
        assert!(piped.shards.unwrap() > 1, "{piped:?}");
        let verdict = report.verdict();
        assert!(verdict.starts_with("BENCH SKIP ("), "{verdict}");
        assert!(verdict.contains("pipeline skipped: no benchmark size reaches"), "{verdict}");
        let back = BenchReport::from_json(&report.to_json().unwrap()).unwrap();
        assert_eq!(back.rows, report.rows);
        assert_eq!(back.cpu_model, report.cpu_model);
        assert!(render(&report).contains("walk-generation"));
    }
}
