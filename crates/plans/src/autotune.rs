//! PTPM-pruned autotuning across all four execution plans.
//!
//! One payoff of a deterministic device model: tuning costs simulated
//! seconds, not lab time. This generalizes the paper's hand-chosen
//! parameters (p = 256 blocks, walk size, slice length) into a procedure:
//! build the *joint* candidate grid over every `(plan kind, config)` pair
//! ([`candidates`] per kind, [`full_grid`] jointly), rank it with the
//! paper's analytic model (`ptpm::model`) using the workload's **real**
//! interaction-list geometry, and measure only a pruned shortlist. The PTPM
//! forecast is exactly the argument the paper makes before measuring
//! anything; here it saves most of the measurement budget, and a workspace
//! test holds it to the bar that matters: the pruned shortlist must contain
//! — and therefore select — the same winner as the full grid search. An
//! exhaustive search is [`measure`] over [`full_grid`] (or over one kind's
//! [`candidates`]).
//!
//! ## What tuning may and may not change
//!
//! Tuning *selects* a configuration; it never perturbs what that
//! configuration computes. That is the invariant persisted winners rely on
//! (DESIGN.md §13): replaying a stored `(kind, config)` reproduces the
//! measured winner's forces bit-exactly ([`evaluate_forces`] is
//! deterministic, which [`selection_is_reproducible`] verifies on the
//! winner). Note the invariant is *referential transparency of the
//! selection*, *not* cross-config bit-equality: among the tunables only
//! i-parallel's block size leaves the force bits untouched — j/jw slice
//! counts regroup the f32 partial-sum reduction and walk sizes change the
//! walk-level MAC geometry, so two configs of the same kind legitimately
//! differ in the last bits (and two plan kinds differ by approximation
//! class). The canonical job hash already keys results by `(plan, tile)`,
//! so a tuned choice can never be served where a differently-tuned result
//! was computed.

use crate::common::{PlanConfig, PlanKind};
use crate::j_parallel::auto_j_slices;
use crate::jw_parallel::auto_slice_len;
use crate::make_plan;
use crate::tree_pipeline::predict_pipeline_shape;
use gpu_sim::prelude::{Device, DeviceSpec, TransferModel};
use nbody_core::body::ParticleSet;
use nbody_core::gravity::GravityParams;
use nbody_core::vec3::Vec3;
use ptpm::model::{
    forecast_blocks, forecast_pipeline, i_parallel_block_flops, j_parallel_block_flops,
    jw_parallel_block_flops, w_parallel_block_flops, PipelineShape,
};
use serde::{Deserialize, Serialize};
use treecode::interaction_list::build_walks;
use treecode::mac::OpeningAngle;
use treecode::tree::{Octree, TreeParams};

/// Default shortlist size the pruner measures (out of the 25-candidate full
/// grid): large enough that the measured winner has always been inside it
/// on the conformance matrix, small enough to skip most measurements.
pub const DEFAULT_SHORTLIST: usize = 8;

/// Shard count the sharded tree-plan grid candidates use. Sharding is
/// bit-exact at any count, so one representative point is enough for the
/// tuner to learn whether the out-of-core path's per-shard overhead matters
/// on this workload.
pub const GRID_SHARDS: usize = 4;

/// What the tuner optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TuneObjective {
    /// Kernel-only simulated seconds (Table 3 semantics).
    KernelTime,
    /// End-to-end simulated seconds (Table 2 semantics).
    TotalTime,
}

/// One `(plan kind, config)` point of the joint candidate grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// The plan kind.
    pub kind: PlanKind,
    /// Its tunables.
    pub config: PlanConfig,
}

/// A candidate with its analytic forecast.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForecastPoint {
    /// The candidate.
    pub candidate: Candidate,
    /// PTPM-forecast seconds under the chosen objective.
    pub forecast_s: f64,
}

/// A candidate with its measured (simulated) seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeasurePoint {
    /// The candidate.
    pub candidate: Candidate,
    /// Measured objective seconds on a fresh simulated device.
    pub seconds: f64,
}

/// Everything one autotune run produced: the full forecast ranking, the
/// measured shortlist, and the winner.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AutotuneResult {
    /// The measured winner.
    pub best: Candidate,
    /// Its measured objective seconds.
    pub best_seconds: f64,
    /// Every grid candidate with its forecast, ascending by forecast.
    pub forecasts: Vec<ForecastPoint>,
    /// The measured shortlist, in shortlist order.
    pub measured: Vec<MeasurePoint>,
    /// True when re-evaluating the winner reproduced its forces bit-exactly
    /// (the replay invariant persisted tuning entries rely on).
    pub winner_reproducible: bool,
}

/// Candidate grid for a plan kind, derived from the device limits.
pub fn candidates(kind: PlanKind, base: PlanConfig, spec: &DeviceSpec) -> Vec<PlanConfig> {
    let max_wg = spec.max_workgroup_size as usize;
    let mut out = Vec::new();
    match kind {
        PlanKind::IParallel | PlanKind::JParallel => {
            for block in [64, 128, 256] {
                if block <= max_wg {
                    out.push(PlanConfig { block_size: block, ..base });
                }
            }
        }
        PlanKind::WParallel => {
            for ws in [64, 128, 256] {
                if ws <= max_wg {
                    out.push(PlanConfig { walk_size: ws, ..base });
                }
            }
        }
        PlanKind::JwParallel => {
            for ws in [64, 128, 256] {
                if ws > max_wg {
                    continue;
                }
                for slice in [None, Some(64), Some(256), Some(1024)] {
                    out.push(PlanConfig { walk_size: ws, jw_slice_len: slice, ..base });
                }
            }
        }
    }
    out
}

/// The joint candidate grid: [`candidates`] of every plan kind, in the
/// paper's plan order, plus — for the tree kinds — one Morton-sharded
/// variant ([`GRID_SHARDS`] shards) and one on-device tree-pipeline variant
/// at the base walk size. 25 candidates on the reference device.
pub fn full_grid(base: PlanConfig, spec: &DeviceSpec) -> Vec<Candidate> {
    let mut grid = Vec::new();
    for kind in PlanKind::all() {
        for config in candidates(kind, base, spec) {
            grid.push(Candidate { kind, config });
        }
        if kind.uses_tree() {
            grid.push(Candidate { kind, config: PlanConfig { shards: Some(GRID_SHARDS), ..base } });
            grid.push(Candidate { kind, config: PlanConfig { device_tree: true, ..base } });
        }
    }
    grid
}

/// The workload's interaction-list geometry, built once per autotune run
/// and shared by every tree-plan forecast: the octree is built at the base
/// config's θ/leaf capacity, then walks are generated per distinct walk
/// size in the grid. Using the *real* ragged list lengths (not the
/// admission-grade proxy of [`ptpm::jobcost`]) is what makes the forecast
/// ranking sharp enough to prune against a measured grid search.
pub struct ForecastGeometry {
    n: usize,
    /// `(walk_size, per-walk list lengths)`, one entry per distinct size.
    lists: Vec<(usize, Vec<usize>)>,
    /// `(walk_size, predicted device-pipeline shape)`, one entry per
    /// distinct walk size among `device_tree` candidates.
    shapes: Vec<(usize, PipelineShape)>,
}

impl ForecastGeometry {
    /// Builds the geometry for `set` covering every walk size in `grid`.
    pub fn build(set: &ParticleSet, base: PlanConfig, grid: &[Candidate]) -> Self {
        let mut walk_sizes: Vec<usize> =
            grid.iter().filter(|c| c.kind.uses_tree()).map(|c| c.config.walk_size).collect();
        walk_sizes.sort_unstable();
        walk_sizes.dedup();
        let lists = if walk_sizes.is_empty() {
            Vec::new()
        } else {
            let tree = Octree::build(set, TreeParams { leaf_capacity: base.leaf_capacity });
            walk_sizes
                .into_iter()
                .map(|ws| {
                    let walks = build_walks(&tree, set, OpeningAngle::new(base.theta), ws);
                    (ws, walks.groups.iter().map(|g| g.list_len()).collect())
                })
                .collect()
        };
        let mut shape_sizes: Vec<usize> = grid
            .iter()
            .filter(|c| c.kind.uses_tree() && c.config.device_tree)
            .map(|c| c.config.walk_size)
            .collect();
        shape_sizes.sort_unstable();
        shape_sizes.dedup();
        let shapes = shape_sizes
            .into_iter()
            .map(|ws| (ws, predict_pipeline_shape(set, &PlanConfig { walk_size: ws, ..base })))
            .collect();
        Self { n: set.len(), lists, shapes }
    }

    fn lists_for(&self, walk_size: usize) -> &[usize] {
        self.lists
            .iter()
            .find(|(ws, _)| *ws == walk_size)
            .map(|(_, lens)| lens.as_slice())
            .expect("geometry covers every walk size in the grid")
    }

    fn shape_for(&self, walk_size: usize) -> &PipelineShape {
        self.shapes
            .iter()
            .find(|(ws, _)| *ws == walk_size)
            .map(|(_, shape)| shape)
            .expect("geometry covers every device-tree walk size in the grid")
    }
}

/// Analytic forecast of one candidate's objective seconds on `spec`.
///
/// `KernelTime` is the pure `ptpm::model` launch forecast. `TotalTime` adds
/// the same components [`crate::common::PlanOutcome::total_seconds`] charges:
/// simulated host tree/walk seconds from the config's
/// [`crate::common::HostCostModel`] (walk generation overlapping the kernels
/// for the tree plans, as the plans pipeline it), and PCIe transfers under
/// [`TransferModel::pcie2_x16`] — float4 bodies up, float4 accelerations
/// down, packed list entries up for the tree plans.
pub fn forecast_candidate(
    c: &Candidate,
    geom: &ForecastGeometry,
    spec: &DeviceSpec,
    objective: TuneObjective,
) -> f64 {
    let n = geom.n;
    let kernel_s = match c.kind {
        PlanKind::IParallel => {
            forecast_blocks(&i_parallel_block_flops(n, c.config.block_size), spec).seconds
        }
        PlanKind::JParallel => {
            let block = c.config.block_size;
            let n_padded = n.div_ceil(block).max(1) * block;
            let slices = c.config.j_slices.unwrap_or_else(|| auto_j_slices(n_padded, block, spec));
            forecast_blocks(&j_parallel_block_flops(n, block, slices), spec).seconds
        }
        PlanKind::WParallel => {
            let lists = geom.lists_for(c.config.walk_size);
            forecast_blocks(&w_parallel_block_flops(lists, c.config.walk_size), spec).seconds
        }
        PlanKind::JwParallel => {
            let lists = geom.lists_for(c.config.walk_size);
            let total: usize = lists.iter().sum();
            let slice = c
                .config
                .jw_slice_len
                .unwrap_or_else(|| auto_slice_len(total, c.config.walk_size, spec));
            forecast_blocks(&jw_parallel_block_flops(lists, c.config.walk_size, slice), spec)
                .seconds
        }
    };
    match objective {
        TuneObjective::KernelTime => kernel_s,
        TuneObjective::TotalTime => {
            let tm = TransferModel::pcie2_x16();
            if c.kind.uses_tree() && c.config.device_tree {
                // On-device pipeline: f64 bit patterns ride up inside the
                // pipeline forecast (no packed lists cross PCIe), only the
                // accelerations come back; the host contributes nothing
                // unless the workload would force the coincident-point
                // fallback.
                let shape = geom.shape_for(c.config.walk_size);
                let pipe = forecast_pipeline(shape, spec, &tm);
                let host_s = if shape.fallback_host_build {
                    c.config.host_model.tree_seconds(n)
                } else {
                    0.0
                };
                return tm.seconds(16 * n) + pipe.seconds() + host_s + kernel_s;
            }
            // float4 bodies up + float4 accelerations down, every plan
            let mut total = tm.seconds(16 * n) + tm.seconds(16 * n);
            if c.kind.uses_tree() {
                let entries: usize = geom.lists_for(c.config.walk_size).iter().sum();
                let host = c.config.host_model;
                // packed float4 list entries ride PCIe too
                total += tm.seconds(16 * entries);
                // tree build is serial; walk generation overlaps the kernels
                total += host.tree_seconds(n) + host.walk_seconds(entries).max(kernel_s);
            } else {
                total += kernel_s;
            }
            total
        }
    }
}

/// Forecasts the whole grid and returns it ascending by forecast seconds
/// (ties keep grid order, so the ranking is deterministic).
pub fn forecast_grid_points(
    grid: &[Candidate],
    geom: &ForecastGeometry,
    spec: &DeviceSpec,
    objective: TuneObjective,
) -> Vec<ForecastPoint> {
    let mut points: Vec<(usize, ForecastPoint)> = grid
        .iter()
        .enumerate()
        .map(|(i, c)| {
            (
                i,
                ForecastPoint {
                    candidate: *c,
                    forecast_s: forecast_candidate(c, geom, spec, objective),
                },
            )
        })
        .collect();
    points.sort_by(|(ia, a), (ib, b)| {
        a.forecast_s.partial_cmp(&b.forecast_s).unwrap().then(ia.cmp(ib))
    });
    points.into_iter().map(|(_, p)| p).collect()
}

/// Prunes a sorted forecast ranking to the measurement shortlist: the top
/// `k` overall **plus** the forecast-best candidate of every plan kind.
/// Keeping each kind's champion costs at most three extra measurements and
/// makes the shortlist robust to cross-kind model bias — within one kind the
/// forecast ordering is sharp (same flop structure), across kinds the
/// measured simulator charges costs the ALU-only model ignores.
pub fn prune(forecasts: &[ForecastPoint], k: usize) -> Vec<Candidate> {
    let mut shortlist: Vec<Candidate> = Vec::new();
    for p in forecasts.iter().take(k.max(1)) {
        shortlist.push(p.candidate);
    }
    for kind in PlanKind::all() {
        if let Some(champion) = forecasts.iter().find(|p| p.candidate.kind == kind) {
            if !shortlist.contains(&champion.candidate) {
                shortlist.push(champion.candidate);
            }
        }
    }
    shortlist
}

/// Measures candidates on fresh simulated devices (deterministic simulated
/// seconds, not wall clock) under `objective`, in the given order.
pub fn measure(
    shortlist: &[Candidate],
    spec: &DeviceSpec,
    set: &ParticleSet,
    params: &GravityParams,
    objective: TuneObjective,
) -> Vec<MeasurePoint> {
    shortlist
        .iter()
        .map(|c| {
            let mut device = Device::with_transfer_model(spec.clone(), TransferModel::pcie2_x16());
            let outcome = make_plan(c.kind, c.config).evaluate(&mut device, set, params);
            let seconds = match objective {
                TuneObjective::KernelTime => outcome.kernel_s,
                TuneObjective::TotalTime => outcome.total_seconds(),
            };
            MeasurePoint { candidate: *c, seconds }
        })
        .collect()
}

/// Evaluates one candidate's forces on a fresh simulated device. The
/// deterministic primitive behind the replay invariant: a persisted tuning
/// entry reproduces the measured winner by re-running exactly this.
pub fn evaluate_forces(
    c: &Candidate,
    spec: &DeviceSpec,
    set: &ParticleSet,
    params: &GravityParams,
) -> Vec<Vec3> {
    let mut device = Device::with_transfer_model(spec.clone(), TransferModel::pcie2_x16());
    make_plan(c.kind, c.config).evaluate(&mut device, set, params).acc
}

/// Verifies the replay invariant on a candidate: two independent
/// evaluations on fresh devices must produce bit-identical forces.
pub fn selection_is_reproducible(
    c: &Candidate,
    spec: &DeviceSpec,
    set: &ParticleSet,
    params: &GravityParams,
) -> bool {
    evaluate_forces(c, spec, set, params) == evaluate_forces(c, spec, set, params)
}

/// The PTPM-pruned autotuner: forecast the full joint grid, measure the
/// top-`k`-plus-champions shortlist, return the measured winner with the
/// whole trace. Fully deterministic for a fixed workload and device.
///
/// # Panics
/// Panics if the candidate grid is empty (cannot happen with the built-in
/// grids on a valid device).
pub fn autotune(
    base: PlanConfig,
    spec: &DeviceSpec,
    set: &ParticleSet,
    params: &GravityParams,
    objective: TuneObjective,
    k: usize,
) -> AutotuneResult {
    let grid = full_grid(base, spec);
    assert!(!grid.is_empty(), "empty candidate grid");
    let geom = ForecastGeometry::build(set, base, &grid);
    let forecasts = forecast_grid_points(&grid, &geom, spec, objective);
    let shortlist = prune(&forecasts, k);
    let measured = measure(&shortlist, spec, set, params, objective);
    let best_point = measured
        .iter()
        .min_by(|a, b| a.seconds.partial_cmp(&b.seconds).unwrap())
        .expect("non-empty shortlist");
    let best = best_point.candidate;
    let best_seconds = best_point.seconds;
    let winner_reproducible = selection_is_reproducible(&best, spec, set, params);
    AutotuneResult { best, best_seconds, forecasts, measured, winner_reproducible }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::spec::WorkloadSpec;

    fn params() -> GravityParams {
        GravityParams { g: 1.0, softening: 0.05 }
    }

    fn spec() -> DeviceSpec {
        DeviceSpec::radeon_hd_5850()
    }

    /// One kind's [`candidates`] as grid points.
    fn kind_grid(kind: PlanKind, base: PlanConfig) -> Vec<Candidate> {
        candidates(kind, base, &spec())
            .into_iter()
            .map(|config| Candidate { kind, config })
            .collect()
    }

    fn argmin(points: &[MeasurePoint]) -> &MeasurePoint {
        points.iter().min_by(|a, b| a.seconds.partial_cmp(&b.seconds).unwrap()).unwrap()
    }

    #[test]
    fn grid_sizes_match_plan_structure() {
        let base = PlanConfig::default();
        assert_eq!(candidates(PlanKind::IParallel, base, &spec()).len(), 3);
        assert_eq!(candidates(PlanKind::WParallel, base, &spec()).len(), 3);
        assert_eq!(candidates(PlanKind::JwParallel, base, &spec()).len(), 12);
    }

    #[test]
    fn tuned_config_never_loses_to_default() {
        let set = nbody_core::testutil::random_set(2048, 1);
        let objective = TuneObjective::KernelTime;
        for kind in PlanKind::all() {
            let best = argmin(&measure(
                &kind_grid(kind, PlanConfig::default()),
                &spec(),
                &set,
                &params(),
                objective,
            ))
            .seconds;
            // the default config is in (or dominated by) the grid
            let default = [Candidate { kind, config: PlanConfig::default() }];
            let default_s = measure(&default, &spec(), &set, &params(), objective)[0].seconds;
            assert!(
                best <= default_s * 1.0001,
                "{}: tuned {best} vs default {default_s}",
                kind.id()
            );
        }
    }

    #[test]
    fn tuning_is_deterministic() {
        let set = nbody_core::testutil::random_set(1024, 2);
        let grid = kind_grid(PlanKind::JwParallel, PlanConfig::default());
        let a = measure(&grid, &spec(), &set, &params(), TuneObjective::KernelTime);
        let b = measure(&grid, &spec(), &set, &params(), TuneObjective::KernelTime);
        assert_eq!(a, b);
        assert_eq!(argmin(&a), argmin(&b));
    }

    #[test]
    fn objectives_can_disagree() {
        // kernel-optimal and total-optimal configs may differ (transfers and
        // host work enter only the total); the kernel optimum is never slower
        let set = nbody_core::testutil::random_set(512, 3);
        let grid = kind_grid(PlanKind::JwParallel, PlanConfig::default());
        let k = measure(&grid, &spec(), &set, &params(), TuneObjective::KernelTime);
        let t = measure(&grid, &spec(), &set, &params(), TuneObjective::TotalTime);
        assert!(argmin(&k).seconds <= argmin(&t).seconds);
    }

    #[test]
    fn full_grid_unions_every_kind() {
        let grid = full_grid(PlanConfig::default(), &spec());
        assert_eq!(grid.len(), 3 + 3 + (3 + 2) + (12 + 2));
        for kind in PlanKind::all() {
            assert!(grid.iter().any(|c| c.kind == kind));
        }
        for kind in [PlanKind::WParallel, PlanKind::JwParallel] {
            assert!(
                grid.iter().any(|c| c.kind == kind && c.config.shards == Some(GRID_SHARDS)),
                "{}: sharded candidate missing",
                kind.id()
            );
            assert!(
                grid.iter().any(|c| c.kind == kind && c.config.device_tree),
                "{}: device-tree candidate missing",
                kind.id()
            );
        }
    }

    #[test]
    fn device_tree_forecast_prices_the_predicted_shape() {
        let set = WorkloadSpec::plummer(700, 9).generate();
        let base = PlanConfig::default();
        let grid = full_grid(base, &spec());
        let geom = ForecastGeometry::build(&set, base, &grid);
        let dt = grid
            .iter()
            .find(|c| c.kind == PlanKind::WParallel && c.config.device_tree)
            .expect("device-tree candidate in the grid");
        let s = forecast_candidate(dt, &geom, &spec(), TuneObjective::TotalTime);
        assert!(s.is_finite() && s > 0.0);
        // the predicted shape equals the measured one, so the pipeline term
        // must match ptpm's forecast over that shape exactly
        let shape = predict_pipeline_shape(&set, &dt.config);
        let pipe = forecast_pipeline(&shape, &spec(), &TransferModel::pcie2_x16()).seconds();
        assert!(s > pipe, "total forecast must include the pipeline term");
    }

    #[test]
    fn forecasts_are_finite_positive_and_sorted() {
        let set = WorkloadSpec::plummer(512, 1).generate();
        let base = PlanConfig::default();
        let grid = full_grid(base, &spec());
        let geom = ForecastGeometry::build(&set, base, &grid);
        for objective in [TuneObjective::KernelTime, TuneObjective::TotalTime] {
            let points = forecast_grid_points(&grid, &geom, &spec(), objective);
            assert_eq!(points.len(), grid.len());
            assert!(points.iter().all(|p| p.forecast_s.is_finite() && p.forecast_s > 0.0));
            assert!(points.windows(2).all(|w| w[0].forecast_s <= w[1].forecast_s));
        }
    }

    #[test]
    fn shortlist_is_a_subset_and_covers_every_kind() {
        let set = WorkloadSpec::plummer(512, 2).generate();
        let base = PlanConfig::default();
        let grid = full_grid(base, &spec());
        let geom = ForecastGeometry::build(&set, base, &grid);
        let points = forecast_grid_points(&grid, &geom, &spec(), TuneObjective::KernelTime);
        let shortlist = prune(&points, DEFAULT_SHORTLIST);
        assert!(shortlist.len() >= DEFAULT_SHORTLIST);
        assert!(shortlist.len() <= DEFAULT_SHORTLIST + PlanKind::all().len());
        for c in &shortlist {
            assert!(grid.contains(c), "shortlist candidate not in the grid");
        }
        for kind in PlanKind::all() {
            assert!(shortlist.iter().any(|c| c.kind == kind), "{} missing", kind.id());
        }
        // structural, not timing-ranked: the shortlist is exactly the
        // forecast top-k plus champions, so it is deterministic
        let again = prune(&points, DEFAULT_SHORTLIST);
        assert_eq!(shortlist, again);
    }

    #[test]
    fn pruned_winner_matches_full_grid_winner() {
        let set = WorkloadSpec::plummer(512, 3).generate();
        let base = PlanConfig::default();
        for objective in [TuneObjective::KernelTime, TuneObjective::TotalTime] {
            let result = autotune(base, &spec(), &set, &params(), objective, DEFAULT_SHORTLIST);
            let full = measure(&full_grid(base, &spec()), &spec(), &set, &params(), objective);
            let full_best = argmin(&full);
            assert_eq!(result.best, full_best.candidate, "{objective:?}");
            assert_eq!(result.best_seconds, full_best.seconds, "{objective:?}");
        }
    }

    #[test]
    fn autotune_is_deterministic() {
        let set = WorkloadSpec::plummer(384, 4).generate();
        let a = autotune(
            PlanConfig::default(),
            &spec(),
            &set,
            &params(),
            TuneObjective::TotalTime,
            DEFAULT_SHORTLIST,
        );
        let b = autotune(
            PlanConfig::default(),
            &spec(),
            &set,
            &params(),
            TuneObjective::TotalTime,
            DEFAULT_SHORTLIST,
        );
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_seconds, b.best_seconds);
        assert_eq!(a.forecasts, b.forecasts);
        assert_eq!(a.measured, b.measured);
    }

    #[test]
    fn winner_is_reproducible_for_every_kind_champion() {
        let set = WorkloadSpec::plummer(384, 5).generate();
        let base = PlanConfig::default();
        let grid = full_grid(base, &spec());
        let geom = ForecastGeometry::build(&set, base, &grid);
        let points = forecast_grid_points(&grid, &geom, &spec(), TuneObjective::KernelTime);
        for kind in PlanKind::all() {
            let champion = points.iter().find(|p| p.candidate.kind == kind).unwrap();
            assert!(
                selection_is_reproducible(&champion.candidate, &spec(), &set, &params()),
                "{} champion replay diverged",
                kind.id()
            );
        }
    }

    #[test]
    fn i_parallel_block_size_is_the_one_bit_exact_knob() {
        // documented scoping of the invariant (module docs): i-parallel's
        // accumulation order is j-ascending regardless of block size, so its
        // grid is bit-exact across candidates; the other kinds' knobs
        // regroup f32 sums or change MAC geometry and are keyed by the
        // canonical hash instead.
        let set = WorkloadSpec::plummer(512, 6).generate();
        let base = PlanConfig::default();
        let reference = evaluate_forces(
            &Candidate { kind: PlanKind::IParallel, config: base },
            &spec(),
            &set,
            &params(),
        );
        for config in candidates(PlanKind::IParallel, base, &spec()) {
            let acc = evaluate_forces(
                &Candidate { kind: PlanKind::IParallel, config },
                &spec(),
                &set,
                &params(),
            );
            assert_eq!(acc, reference, "block={} diverged", config.block_size);
        }
    }
}
