//! The [`Backend`] trait: execution substrates a plan can run on.
//!
//! A backend is *where* a force evaluation executes, a [`PlanKind`] is
//! *which* decomposition it uses. Two substrates ship:
//!
//! | kind | substrate | precision | clocks | faults/traces |
//! |------|-----------|-----------|--------|---------------|
//! | [`BackendKind::Sim`]  | simulated HD 5850 ([`SimBackend`]) | f32 kernels | simulated | yes |
//! | [`BackendKind::Host`] | host SoA/treecode ([`HostBackend`]) | f64 | wall only | no |
//!
//! `auto` resolves to `sim`, which stays the deterministic oracle for PTPM
//! forecasts and golden traces.
//!
//! **The differential contract** (enforced by `plans::conformance` and
//! `tests/backend_conformance.rs`, documented in DESIGN.md §11):
//!
//! * every backend is bit-exact across host thread counts;
//! * [`HostBackend`]'s PP plans are bit-exact against the scalar f64
//!   reference, and its tree plans bit-exact against
//!   [`treecode::interaction_list::evaluate_walks_cpu`];
//! * the sim (f32) forces agree with the host (f64) forces within the
//!   [`crate::conformance::f32_l2_bound`] error-model band.

use crate::common::{PlanConfig, PlanKind, PlanOutcome};
use gpu_sim::device::Device;
use gpu_sim::prelude::{DeviceSpec, TransferModel};
use nbody_core::body::ParticleSet;
use nbody_core::gravity::GravityParams;
use nbody_core::soa::{accelerations_pp_tiled_parallel, accelerations_pp_tiled_with, SoaBodies};
use nbody_core::vec3::Vec3;
use serde::{Deserialize, Serialize};
use std::time::Instant;
use treecode::interaction_list::{build_walks, evaluate_group_packed, tree_ranks, WalkSet};
use treecode::mac::OpeningAngle;
use treecode::morton::keys_in_order;
use treecode::shards::MortonShards;
use treecode::tree::{Octree, TreeParams};

/// Which execution substrate to run plans on (`--backend` CLI values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum BackendKind {
    /// Pick the default substrate ([`BackendKind::Sim`] today).
    #[default]
    Auto,
    /// The simulated device — deterministic oracle with simulated clocks,
    /// fault injection, and execution traces.
    Sim,
    /// The host f64 path: SoA tiled PP and the packed walk-group kernel.
    Host,
}

impl BackendKind {
    /// Stable identifier used in CLI flags, job specs, and cache hashes.
    pub fn id(self) -> &'static str {
        match self {
            BackendKind::Auto => "auto",
            BackendKind::Sim => "sim",
            BackendKind::Host => "host",
        }
    }

    /// Parses the [`BackendKind::id`] form.
    pub fn parse(s: &str) -> Option<Self> {
        BackendKind::all().into_iter().find(|k| k.id() == s)
    }

    /// All kinds, `auto` first.
    pub fn all() -> [BackendKind; 3] {
        [BackendKind::Auto, BackendKind::Sim, BackendKind::Host]
    }

    /// The concrete substrate this kind selects (`auto` → `sim`). Cache
    /// hashes and admission rules key on the resolved kind so `auto` and an
    /// explicit `sim` share one cache entry.
    pub fn resolve(self) -> BackendKind {
        match self {
            BackendKind::Auto => BackendKind::Sim,
            other => other,
        }
    }
}

/// An execution substrate for the four plans.
///
/// The plan is chosen per call (a backend is a *place*, not a strategy), so
/// one backend instance can serve a whole experiment grid — and, on the sim
/// backend, a shared device's fault stream position carries across
/// evaluations exactly as before.
pub trait Backend {
    /// The resolved kind of this backend (never [`BackendKind::Auto`]).
    fn kind(&self) -> BackendKind;

    /// Display name (the kind id unless specialized).
    fn name(&self) -> &'static str {
        self.kind().id()
    }

    /// Evaluates accelerations for `set` under `plan`.
    fn evaluate(
        &mut self,
        plan: PlanKind,
        set: &ParticleSet,
        params: &GravityParams,
    ) -> PlanOutcome;

    /// The underlying simulated device, if this backend has one.
    fn device(&self) -> Option<&Device> {
        None
    }

    /// Mutable access to the simulated device, if any (e.g. to install a
    /// fault plan or trace sink).
    fn device_mut(&mut self) -> Option<&mut Device> {
        None
    }

    /// True when deterministic fault injection is available.
    fn supports_fault_injection(&self) -> bool {
        self.device().is_some()
    }

    /// True when the backend reports *simulated* clocks (kernel, transfer,
    /// recovery seconds). Backends without one report wall time only, in
    /// `host_measured_s`.
    fn has_simulated_clock(&self) -> bool {
        self.device().is_some()
    }
}

/// Builds a backend of the given (possibly `auto`) kind. The sim variant
/// gets the paper's HD 5850 behind PCIe 2.0 x16; callers that need a custom
/// device (fault plans, trace sinks) construct [`SimBackend`] directly.
pub fn make_backend(kind: BackendKind, config: PlanConfig) -> Box<dyn Backend> {
    match kind.resolve() {
        BackendKind::Host => Box::new(HostBackend::new(config)),
        _ => Box::new(SimBackend::new(default_device(), config)),
    }
}

/// The default simulated device: the paper's Radeon HD 5850 behind
/// PCIe 2.0 x16.
pub fn default_device() -> Device {
    Device::with_transfer_model(DeviceSpec::radeon_hd_5850(), TransferModel::pcie2_x16())
}

// ---------------------------------------------------------------------------
// Sim
// ---------------------------------------------------------------------------

/// The simulated-device backend: dispatches each evaluation to the plan's
/// device kernels exactly as before the trait existed.
pub struct SimBackend {
    device: Device,
    config: PlanConfig,
}

impl SimBackend {
    /// Wraps a device (which may carry a fault plan or trace sink) and the
    /// plan tunables.
    pub fn new(device: Device, config: PlanConfig) -> Self {
        Self { device, config }
    }
}

impl Backend for SimBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Sim
    }

    fn evaluate(
        &mut self,
        plan: PlanKind,
        set: &ParticleSet,
        params: &GravityParams,
    ) -> PlanOutcome {
        // every plan evaluation is one buffer scope (`Device::evaluation`),
        // so a long-lived backend does not grow with every step
        crate::make_plan(plan, self.config).evaluate(&mut self.device, set, params)
    }

    fn device(&self) -> Option<&Device> {
        Some(&self.device)
    }

    fn device_mut(&mut self) -> Option<&mut Device> {
        Some(&mut self.device)
    }
}

// ---------------------------------------------------------------------------
// Host (f64)
// ---------------------------------------------------------------------------

/// The host f64 backend: PP plans run the SoA tiled kernel (bit-exact
/// against the scalar reference at every tile size and thread count), tree
/// plans run the packed walk-group kernel
/// ([`evaluate_group_packed`], bit-exact against
/// [`treecode::interaction_list::evaluate_walks_cpu`]) parallelized over
/// walk groups (groups own disjoint bodies, so the scatter is
/// deterministic).
///
/// No simulated clocks: `kernel_s`/`transfer_s`/`recovery_s` are zero and
/// `launches` is zero; only the informational wall-clock `host_measured_s`
/// is reported.
pub struct HostBackend {
    config: PlanConfig,
    soa: SoaBodies,
}

impl HostBackend {
    /// Creates the backend; `config.block_size` doubles as the SoA tile
    /// size (results are tile-invariant, the knob only moves wall time).
    pub fn new(config: PlanConfig) -> Self {
        Self { config, soa: SoaBodies::new() }
    }

    fn evaluate_pp(&mut self, set: &ParticleSet, params: &GravityParams, acc: &mut [Vec3]) {
        self.soa.fill_from(set);
        let view = self.soa.view();
        let tile = self.config.block_size.min(nbody_core::soa::MAX_TILE);
        let threads = par::threads();
        if threads <= 1 {
            accelerations_pp_tiled_with(view, params, tile, acc);
        } else {
            accelerations_pp_tiled_parallel(view, params, tile, threads, acc);
        }
    }

    /// The Morton-shard decomposition of the walk range for out-of-core
    /// configs. The host has no device arenas, so a memory budget is read
    /// against the same packed-list byte estimate the device path arenas
    /// hold (16 bytes per entry + the target lane); the result only chunks
    /// the evaluation order, which the disjoint-target scatter makes
    /// bit-invariant.
    fn shard_decomposition(
        &self,
        set: &ParticleSet,
        tree: &Octree,
        walks: &WalkSet,
    ) -> MortonShards {
        let ws = self.config.walk_size;
        if let Some(count) = self.config.shards {
            return MortonShards::by_count(&keys_in_order(set, tree.order()), ws, count);
        }
        if let Some(budget) = self.config.mem_budget_bytes {
            let bytes: Vec<usize> =
                walks.groups.iter().map(|g| 16 * g.list_len() + 4 * ws).collect();
            return MortonShards::by_budget(
                &keys_in_order(set, tree.order()),
                ws,
                &bytes,
                0,
                budget,
            );
        }
        MortonShards::unsharded(set.len(), ws)
    }

    /// Returns `(interactions, shards used)`.
    fn evaluate_tree(
        &self,
        set: &ParticleSet,
        params: &GravityParams,
        acc: &mut [Vec3],
    ) -> (u64, usize) {
        let tree = Octree::build(set, TreeParams { leaf_capacity: self.config.leaf_capacity });
        let walks =
            build_walks(&tree, set, OpeningAngle::new(self.config.theta), self.config.walk_size);
        let decomp = self.shard_decomposition(set, &tree, &walks);
        let mut ranks = Vec::new();
        tree_ranks(&tree, &mut ranks);
        let (tree, rank) = (&tree, &ranks[..]);
        let mut lanes = Vec::new();
        let mut interactions = 0;
        // one pass per shard (a single pass when unsharded) — walks own
        // disjoint bodies, so any shard cut is bit-invariant
        for shard in decomp.shards() {
            let groups = &walks.groups[shard.walk_start..shard.walk_end.min(walks.groups.len())];
            let threads = par::threads().min(groups.len().max(1));
            if threads <= 1 {
                for group in groups {
                    interactions += evaluate_group_packed(
                        group,
                        tree,
                        set,
                        params,
                        rank,
                        &mut lanes,
                        |i, a| acc[i as usize] = a,
                    );
                }
            } else {
                let ranges = par::chunk_ranges(groups.len(), threads);
                let results = par::run_tasks(
                    ranges
                        .into_iter()
                        .map(|range| {
                            move || {
                                let (mut lanes, mut out, mut count) = (Vec::new(), Vec::new(), 0);
                                for group in &groups[range] {
                                    count += evaluate_group_packed(
                                        group,
                                        tree,
                                        set,
                                        params,
                                        rank,
                                        &mut lanes,
                                        |i, a| out.push((i, a)),
                                    );
                                }
                                (count, out)
                            }
                        })
                        .collect(),
                );
                for (count, out) in results {
                    interactions += count;
                    for (i, a) in out {
                        acc[i as usize] = a;
                    }
                }
            }
        }
        (interactions, decomp.len())
    }
}

impl Backend for HostBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Host
    }

    fn evaluate(
        &mut self,
        plan: PlanKind,
        set: &ParticleSet,
        params: &GravityParams,
    ) -> PlanOutcome {
        let n = set.len();
        let t0 = Instant::now();
        let mut acc = vec![Vec3::ZERO; n];
        let (interactions, shards) = if plan.uses_tree() {
            self.evaluate_tree(set, params, &mut acc)
        } else {
            self.evaluate_pp(set, params, &mut acc);
            ((n as u64) * (n as u64), 1)
        };
        // no simulated clocks or launches: flops are charged only on the
        // sim device, the host reports its wall time alone
        PlanOutcome {
            acc,
            interactions,
            host_measured_s: t0.elapsed().as_secs_f64(),
            shards_used: shards,
            ..PlanOutcome::empty()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_core::gravity::{accelerations_pp, max_relative_error};
    use nbody_core::testutil::random_set;

    fn params() -> GravityParams {
        GravityParams { g: 1.0, softening: 0.05 }
    }

    #[test]
    fn kind_parse_roundtrips_and_resolves() {
        for k in BackendKind::all() {
            assert_eq!(BackendKind::parse(k.id()), Some(k));
            assert_ne!(k.resolve(), BackendKind::Auto);
        }
        assert_eq!(BackendKind::parse("gpu"), None);
        assert_eq!(BackendKind::Auto.resolve(), BackendKind::Sim);
        assert_eq!(BackendKind::default(), BackendKind::Auto);
        // the retired device-f32 stub's id no longer parses
        assert_eq!(BackendKind::parse("f32"), None);
    }

    #[test]
    fn make_backend_resolves_auto_to_sim() {
        let b = make_backend(BackendKind::Auto, PlanConfig::default());
        assert_eq!(b.kind(), BackendKind::Sim);
        assert!(b.supports_fault_injection());
        assert!(b.has_simulated_clock());
        let b = make_backend(BackendKind::Host, PlanConfig::default());
        assert_eq!(b.kind(), BackendKind::Host);
        assert!(b.device().is_none());
        assert!(!b.supports_fault_injection());
        assert!(!b.has_simulated_clock());
    }

    #[test]
    fn host_pp_is_bit_exact_vs_scalar_reference() {
        let set = random_set(333, 12);
        let mut exact = vec![Vec3::ZERO; set.len()];
        accelerations_pp(&set, &params(), &mut exact);
        for plan in [PlanKind::IParallel, PlanKind::JParallel] {
            let mut host = make_backend(BackendKind::Host, PlanConfig::default());
            let got = host.evaluate(plan, &set, &params());
            assert_eq!(got.acc, exact, "{plan:?}: host PP diverged from scalar f64");
            assert_eq!(got.launches, 0);
            assert_eq!(got.kernel_s, 0.0);
        }
    }

    #[test]
    fn host_tree_matches_evaluate_walks_cpu() {
        let set = random_set(500, 13);
        let config = PlanConfig::default();
        let tree = Octree::build(&set, TreeParams { leaf_capacity: config.leaf_capacity });
        let walks = build_walks(&tree, &set, OpeningAngle::new(config.theta), config.walk_size);
        let mut exact = vec![Vec3::ZERO; set.len()];
        treecode::interaction_list::evaluate_walks_cpu(&walks, &tree, &set, &params(), &mut exact);
        for plan in [PlanKind::WParallel, PlanKind::JwParallel] {
            let mut host = make_backend(BackendKind::Host, config);
            let got = host.evaluate(plan, &set, &params());
            assert_eq!(got.acc, exact, "{plan:?}: host tree diverged from evaluate_walks_cpu");
            assert_eq!(got.interactions, walks.total_interactions());
        }
    }

    #[test]
    fn host_tree_sharding_is_bit_invariant_and_reported() {
        let set = random_set(600, 15);
        let base = PlanConfig::default();
        for plan in [PlanKind::WParallel, PlanKind::JwParallel] {
            let mut host = make_backend(BackendKind::Host, base);
            let reference = host.evaluate(plan, &set, &params());
            assert_eq!(reference.shards_used, 1);
            for shards in [2, 5] {
                let mut sharded =
                    make_backend(BackendKind::Host, PlanConfig { shards: Some(shards), ..base });
                let got = sharded.evaluate(plan, &set, &params());
                assert_eq!(got.acc, reference.acc, "{plan:?}: {shards} shards diverged");
                // eligible Morton splits may cap the realized count below
                // the request, but never above it
                assert!(
                    got.shards_used > 1 && got.shards_used <= shards,
                    "{plan:?}: asked {shards}, used {}",
                    got.shards_used
                );
            }
            let mut budgeted = make_backend(
                BackendKind::Host,
                PlanConfig { mem_budget_bytes: Some(64 * 1024), ..base },
            );
            let got = budgeted.evaluate(plan, &set, &params());
            assert_eq!(got.acc, reference.acc, "{plan:?}: budget sharding diverged");
            assert!(got.shards_used >= 1, "{plan:?}");
        }
    }

    #[test]
    fn sim_backend_routes_out_of_core_configs_bit_exactly() {
        // the sim backend must dispatch sharded and device-tree configs to
        // the tree pipeline, and both must reproduce the legacy forces
        let set = random_set(500, 16);
        let base = PlanConfig::default();
        for plan in [PlanKind::WParallel, PlanKind::JwParallel] {
            let mut legacy = make_backend(BackendKind::Sim, base);
            let reference = legacy.evaluate(plan, &set, &params());
            for config in
                [PlanConfig { shards: Some(3), ..base }, PlanConfig { device_tree: true, ..base }]
            {
                let mut sim = make_backend(BackendKind::Sim, config);
                let got = sim.evaluate(plan, &set, &params());
                assert_eq!(got.acc, reference.acc, "{plan:?}: {config:?} diverged on sim");
            }
        }
    }

    #[test]
    fn long_lived_sim_backend_frees_each_evaluation() {
        // ten evaluations on one backend must match ten fresh devices bit
        // for bit, and leave the device's memory as they found it; the
        // budgeted config sizes its shards from the bytes already live, so
        // retained buffers would change its decomposition
        let set = random_set(300, 17);
        let base = PlanConfig::default();
        let budgeted = PlanConfig { mem_budget_bytes: Some(48 * 1024), ..base };
        for config in [base, budgeted] {
            let mut long_lived = SimBackend::new(default_device(), config);
            let before = long_lived.device().map(|d| d.debug_pool().total_bytes());
            for step in 0..10 {
                let plan = PlanKind::all()[step % 4];
                let got = long_lived.evaluate(plan, &set, &params());
                let want =
                    SimBackend::new(default_device(), config).evaluate(plan, &set, &params());
                let what = format!("step {step} {plan:?} {config:?}");
                assert_eq!(got.acc, want.acc, "{what}: forces");
                assert_eq!(got.interactions, want.interactions, "{what}");
                assert_eq!(got.launches, want.launches, "{what}");
                assert_eq!(got.shards_used, want.shards_used, "{what}");
                assert_eq!(got.peak_device_bytes, want.peak_device_bytes, "{what}: peak");
                for (a, b) in [
                    (got.kernel_s, want.kernel_s),
                    (got.transfer_s, want.transfer_s),
                    (got.total_seconds(), want.total_seconds()),
                ] {
                    assert_eq!(a.to_bits(), b.to_bits(), "{what}: clocks");
                }
                let after = long_lived.device().map(|d| d.debug_pool().total_bytes());
                assert_eq!(after, before, "{what}: device memory not released");
            }
        }
    }

    #[test]
    fn f32_tier_tracks_the_f64_tier() {
        let set = random_set(256, 14);
        for plan in PlanKind::all() {
            let mut host = make_backend(BackendKind::Host, PlanConfig::default());
            let mut sim = make_backend(BackendKind::Sim, PlanConfig::default());
            let a = host.evaluate(plan, &set, &params());
            let b = sim.evaluate(plan, &set, &params());
            let err = max_relative_error(&a.acc, &b.acc);
            assert!(err < 1e-3, "{plan:?}: f32 vs f64 relative error {err}");
        }
    }
}
