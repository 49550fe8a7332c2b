//! Shared infrastructure of the four execution plans.
//!
//! A plan ([`ExecutionPlan`]) is a host program: it packs particle data into
//! device buffers, launches kernels on the simulated GPU, and collects a
//! [`PlanOutcome`] splitting time into the components the paper's tables
//! report — host tree/walk work, kernel time, transfer time.
//!
//! All device kernels share the same single-precision interaction
//! ([`interact_f32`]): the softened monopole of Eq. (1)/(3), computed exactly
//! as the OpenCL kernels the paper builds on. With nonzero softening the
//! self-interaction contributes a zero vector, so kernels never branch on
//! `i == j` — matching Nyland's original CUDA kernel.

use gpu_sim::prelude::*;
use nbody_core::body::ParticleSet;
use nbody_core::flops::FlopConvention;
use nbody_core::gravity::GravityParams;
use nbody_core::vec3::Vec3;
use serde::{Deserialize, Serialize};

/// Flops charged on the device per pairwise interaction. The GRAPE/Hamada
/// convention the paper's GFLOPS figures use.
pub const FLOPS_PER_INTERACTION: u64 = 38;

/// The four execution plans of the paper's §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlanKind {
    /// Nyland et al.: one thread per target body, tiles through LDS.
    IParallel,
    /// Hamada's chamomile scheme: the j-range split across blocks, with a
    /// reduction pass.
    JParallel,
    /// Hamada's multiple-walk method: one block per tree walk.
    WParallel,
    /// This paper: walks × j-slices — w-parallel's algorithmic gain with
    /// j-parallel's occupancy.
    JwParallel,
}

impl PlanKind {
    /// Stable identifier used in table output.
    pub fn id(self) -> &'static str {
        match self {
            PlanKind::IParallel => "i-parallel",
            PlanKind::JParallel => "j-parallel",
            PlanKind::WParallel => "w-parallel",
            PlanKind::JwParallel => "jw-parallel",
        }
    }

    /// Parses the [`PlanKind::id`] form (CLI flags, job specs).
    pub fn parse(s: &str) -> Option<Self> {
        PlanKind::all().into_iter().find(|k| k.id() == s)
    }

    /// All plans in the paper's presentation order.
    pub fn all() -> [PlanKind; 4] {
        [PlanKind::IParallel, PlanKind::JParallel, PlanKind::WParallel, PlanKind::JwParallel]
    }

    /// True for the treecode-based plans.
    pub fn uses_tree(self) -> bool {
        matches!(self, PlanKind::WParallel | PlanKind::JwParallel)
    }
}

/// Simulated cost of the host-side (CPU) work of the tree plans, calibrated
/// to the paper's Intel Pentium E2140 era rather than the machine running
/// the simulation — this keeps the tables deterministic and comparable to
/// the paper's hardware balance.
///
/// Calibration: an optimized octree build runs at roughly 150 ns/body on a
/// 2006-class core; walk generation plus float4 packing costs ~15 ns per
/// interaction-list entry — list entries are produced by an in-order
/// traversal of a pointer-free tree and packed with memcpy-like loops, and
/// the E2140's two cores pipeline walk generation against the device
/// (Hamada's multiple-walk setup). The *measured* wall time of the modern
/// host is still reported in [`PlanOutcome::host_measured_s`] for
/// transparency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HostCostModel {
    /// Simulated tree-build cost per body, nanoseconds.
    pub tree_ns_per_body: f64,
    /// Simulated walk-generation + packing cost per list entry, nanoseconds.
    pub walk_ns_per_entry: f64,
}

impl Default for HostCostModel {
    fn default() -> Self {
        Self { tree_ns_per_body: 150.0, walk_ns_per_entry: 15.0 }
    }
}

impl HostCostModel {
    /// A zero-cost host (isolates device behaviour in ablations).
    pub fn free() -> Self {
        Self { tree_ns_per_body: 0.0, walk_ns_per_entry: 0.0 }
    }

    /// Simulated seconds to build the octree over `n` bodies.
    pub fn tree_seconds(&self, n: usize) -> f64 {
        n as f64 * self.tree_ns_per_body * 1e-9
    }

    /// Simulated seconds to generate and pack `entries` list entries.
    pub fn walk_seconds(&self, entries: usize) -> f64 {
        entries as f64 * self.walk_ns_per_entry * 1e-9
    }
}

/// Tunables shared by the plans. `Default` reproduces the paper's setup.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanConfig {
    /// Threads per block for the PP plans (Nyland's `p`).
    pub block_size: usize,
    /// j-slices for j-parallel; `None` auto-tunes to fill the device.
    pub j_slices: Option<usize>,
    /// Target bodies per walk for the tree plans. The paper's 256-thread
    /// blocks are what keeps walk generation (per *entry*) cheap relative to
    /// the device work it feeds (per *entry × walk size*).
    pub walk_size: usize,
    /// Barnes-Hut opening angle θ.
    pub theta: f64,
    /// Octree leaf capacity.
    pub leaf_capacity: usize,
    /// Interaction-list slice length for jw-parallel; `None` auto-tunes.
    pub jw_slice_len: Option<usize>,
    /// Simulated host (CPU) cost model for tree builds and walk generation.
    pub host_model: HostCostModel,
    /// Build the tree and emit interaction lists **on the device** (the
    /// Morton/sort/level-link/walk-emit pipeline of `tree_pipeline`) instead
    /// of on the host. Tree plans only.
    #[serde(default)]
    pub device_tree: bool,
    /// Explicit Morton-shard count for the tree plans' out-of-core path;
    /// `None` defers to `mem_budget_bytes` (or runs unsharded). Shard
    /// boundaries snap to eligible Morton splits, so any count yields
    /// bit-identical forces.
    #[serde(default)]
    pub shards: Option<usize>,
    /// Device-memory budget driving the shard decomposition; `None` leaves
    /// the working set unsharded (unless `shards` asks otherwise).
    #[serde(default)]
    pub mem_budget_bytes: Option<usize>,
}

impl Default for PlanConfig {
    fn default() -> Self {
        Self {
            block_size: 256,
            j_slices: None,
            walk_size: 256,
            theta: 0.5,
            leaf_capacity: 16,
            jw_slice_len: None,
            host_model: HostCostModel::default(),
            device_tree: false,
            shards: None,
            mem_budget_bytes: None,
        }
    }
}

impl PlanConfig {
    /// Work-groups that keep every CU fed with some double-buffering: the
    /// auto-tuners target this count.
    pub fn target_groups(spec: &DeviceSpec) -> usize {
        2 * spec.compute_units as usize * 6
    }

    /// Validates the configuration against a device.
    pub fn validate(&self, spec: &DeviceSpec) -> Result<(), String> {
        if self.block_size == 0 || self.block_size > spec.max_workgroup_size as usize {
            return Err(format!(
                "block_size {} outside (0, {}]",
                self.block_size, spec.max_workgroup_size
            ));
        }
        if self.walk_size == 0 || self.walk_size > spec.max_workgroup_size as usize {
            return Err(format!(
                "walk_size {} outside (0, {}]",
                self.walk_size, spec.max_workgroup_size
            ));
        }
        if !(self.theta > 0.0 && self.theta <= 2.0) {
            return Err(format!("theta {} outside (0, 2]", self.theta));
        }
        if self.leaf_capacity == 0 {
            return Err("leaf_capacity must be positive".into());
        }
        if self.j_slices == Some(0) || self.jw_slice_len == Some(0) {
            return Err("explicit slice parameters must be positive".into());
        }
        if self.shards == Some(0) {
            return Err("shard count must be positive".into());
        }
        if self.mem_budget_bytes == Some(0) {
            return Err("memory budget must be positive".into());
        }
        Ok(())
    }
}

/// Everything one force evaluation produced, split the way the paper's
/// tables need it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanOutcome {
    /// Accelerations in original body order, widened to `f64`.
    pub acc: Vec<Vec3>,
    /// Pairwise interactions evaluated (PP: N²; tree plans: Σ walk targets ×
    /// list length).
    pub interactions: u64,
    /// Simulated host seconds building the octree (zero for PP plans);
    /// see [`HostCostModel`].
    pub host_tree_s: f64,
    /// Simulated host seconds generating walks/interaction lists.
    pub host_walk_s: f64,
    /// Wall time the *actual* host spent on tree + walks + packing —
    /// informational only, never used in tables.
    pub host_measured_s: f64,
    /// Simulated device seconds inside kernels.
    pub kernel_s: f64,
    /// Simulated seconds moving data over PCIe.
    pub transfer_s: f64,
    /// Simulated seconds lost to injected faults and retry backoff (the
    /// device's stall clock; zero on fault-free runs).
    pub recovery_s: f64,
    /// Kernel launches issued.
    pub launches: usize,
    /// True if the plan pipelines host walk generation with device kernels
    /// (the paper's w-parallel/jw-parallel do; see §4.2).
    pub overlap_walk_with_kernel: bool,
    /// Device seconds (kernels + descriptor traffic) spent in the on-device
    /// tree pipeline. Informational: already contained in `kernel_s` /
    /// `transfer_s`, never added to [`PlanOutcome::total_seconds`] again.
    #[serde(default)]
    pub pipeline_s: f64,
    /// Morton shards the evaluation streamed through (1 = unsharded).
    #[serde(default = "one")]
    pub shards_used: usize,
    /// High-water device-buffer bytes over the evaluation (the quantity the
    /// shard decomposition's memory budget caps).
    #[serde(default)]
    pub peak_device_bytes: usize,
}

fn one() -> usize {
    1
}

impl PlanOutcome {
    /// An all-zero outcome — the canonical `..PlanOutcome::empty()` tail for
    /// construction sites that only care about a subset of the fields.
    pub fn empty() -> Self {
        Self {
            acc: Vec::new(),
            interactions: 0,
            host_tree_s: 0.0,
            host_walk_s: 0.0,
            host_measured_s: 0.0,
            kernel_s: 0.0,
            transfer_s: 0.0,
            recovery_s: 0.0,
            launches: 0,
            overlap_walk_with_kernel: false,
            pipeline_s: 0.0,
            shards_used: 1,
            peak_device_bytes: 0,
        }
    }

    /// Kernel-only time: the paper's Table 3 column.
    pub fn kernel_seconds(&self) -> f64 {
        self.kernel_s
    }

    /// Total time: the paper's Table 2 column. Walk generation overlaps the
    /// kernels when the plan pipelines them; fault-recovery stalls are
    /// serial device time and never hide under host work.
    pub fn total_seconds(&self) -> f64 {
        let body = if self.overlap_walk_with_kernel {
            self.host_walk_s.max(self.kernel_s)
        } else {
            self.host_walk_s + self.kernel_s
        };
        self.host_tree_s + body + self.transfer_s + self.recovery_s
    }

    /// Sustained GFLOPS of the kernel under `convention`.
    pub fn gflops(&self, convention: FlopConvention) -> f64 {
        nbody_core::flops::gflops(self.interactions, convention, self.kernel_s)
    }
}

/// A force-evaluation strategy on the simulated device.
pub trait ExecutionPlan {
    /// Which of the paper's four plans this is.
    fn kind(&self) -> PlanKind;

    /// Plan name (the kind id unless specialized).
    fn name(&self) -> &'static str {
        self.kind().id()
    }

    /// The tunables this plan was instantiated with — lets a
    /// [`crate::backend::Backend`] be built from a boxed plan.
    fn config(&self) -> &PlanConfig;

    /// Evaluates accelerations for `set` on `device`.
    ///
    /// Implementations must reset the device clocks on entry so the outcome
    /// reflects exactly one evaluation.
    fn evaluate(
        &self,
        device: &mut Device,
        set: &ParticleSet,
        params: &GravityParams,
    ) -> PlanOutcome;
}

/// Single-precision softened interaction: accumulates onto `acc` the pull of
/// a source `[x, y, z, m]` on a target at `xi`. Zero-mass padding entries
/// and the self-pair (with `eps_sq > 0`) contribute exactly zero.
#[inline(always)]
pub fn interact_f32(xi: [f32; 3], source: &[f32], eps_sq: f32, acc: &mut [f32; 3]) {
    let dx = source[0] - xi[0];
    let dy = source[1] - xi[1];
    let dz = source[2] - xi[2];
    let r2 = dx * dx + dy * dy + dz * dz + eps_sq;
    let inv_r = 1.0 / r2.sqrt();
    let inv_r3 = inv_r * inv_r * inv_r;
    let s = source[3] * inv_r3;
    acc[0] += dx * s;
    acc[1] += dy * s;
    acc[2] += dz * s;
}

/// Accumulates a whole LDS tile of float4 sources onto one target: the
/// shared inner loop of every plan kernel's force-eval phase. Iterating
/// `chunks_exact(4)` over the staged slice keeps the j-ascending
/// accumulation order of per-element [`interact_f32`] calls (bit-identical
/// results) while exposing the full tile to the optimizer as one
/// bounds-check-free loop.
#[inline]
pub fn interact_tile_f32(xi: [f32; 3], tile: &[f32], eps_sq: f32, acc: &mut [f32; 3]) {
    debug_assert!(tile.len().is_multiple_of(4), "tile must be packed float4");
    for source in tile.chunks_exact(4) {
        interact_f32(xi, source, eps_sq, acc);
    }
}

/// Target lanes per row block of [`sweep_f32`]: the rows live in stack
/// arrays of this length, so a sweep never allocates.
const SWEEP_ROWS: usize = 64;

/// The position and accumulator lanes of up to [`SWEEP_ROWS`] targets, in
/// structure-of-arrays form.
struct F32Rows {
    xs: [f32; SWEEP_ROWS],
    ys: [f32; SWEEP_ROWS],
    zs: [f32; SWEEP_ROWS],
    axs: [f32; SWEEP_ROWS],
    ays: [f32; SWEEP_ROWS],
    azs: [f32; SWEEP_ROWS],
    len: usize,
}

impl Default for F32Rows {
    fn default() -> Self {
        let zero = [0.0; SWEEP_ROWS];
        Self { xs: zero, ys: zero, zs: zero, axs: zero, ays: zero, azs: zero, len: 0 }
    }
}

impl F32Rows {
    /// Appends a target at `xi` whose accumulator holds `acc`.
    ///
    /// # Panics
    /// Panics if the block already holds [`SWEEP_ROWS`] rows.
    #[inline]
    fn push(&mut self, xi: [f32; 3], acc: [f32; 3]) {
        let k = self.len;
        assert!(k < SWEEP_ROWS, "row block is full");
        [self.xs[k], self.ys[k], self.zs[k]] = xi;
        [self.axs[k], self.ays[k], self.azs[k]] = acc;
        self.len += 1;
    }

    /// The accumulator of row `k`.
    #[inline]
    fn acc(&self, k: usize) -> [f32; 3] {
        [self.axs[k], self.ays[k], self.azs[k]]
    }
}

/// Adds the pull of every float4 source of `tile`, in order, onto every row
/// of `rows`: the f32 sibling of `nbody_core::soa::sweep`.
///
/// The source loop is outer and the row loop inner, so each row keeps the
/// j-ascending chain and the expression tree of [`interact_f32`] — the
/// result is bit-identical to [`interact_tile_f32`] per row — while the
/// inner loop runs over independent lanes and vectorizes.
///
/// On `x86_64` CPUs with AVX2 the sweep runs an AVX2 build of the same body:
/// `fma` stays disabled and Rust never contracts `a * b + c`, so both builds
/// round every operation identically and return the same bits.
fn sweep_f32(rows: &mut F32Rows, tile: &[f32], eps_sq: f32) {
    debug_assert!(tile.len().is_multiple_of(4), "tile must be packed float4");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `sweep_f32_avx2` requires only that the CPU supports AVX2,
        // which the run-time check above has just confirmed.
        return unsafe { sweep_f32_avx2(rows, tile, eps_sq) };
    }
    sweep_f32_portable(rows, tile, eps_sq)
}

/// The baseline-target build of [`sweep_f32_body`] (SSE2 on `x86_64`).
///
/// `inline(never)`, as is the AVX2 build, for the reason
/// `nbody_core::soa::sweep_portable` gives: inlined into a caller's loop
/// LLVM stops vectorizing the lane loop. `ci.sh` checks both builds for
/// packed `sqrtps`/`divps` in the release binary.
#[inline(never)]
fn sweep_f32_portable(rows: &mut F32Rows, tile: &[f32], eps_sq: f32) {
    sweep_f32_body(rows, tile, eps_sq)
}

/// The AVX2 build of [`sweep_f32_body`]: packed `ymm` arithmetic, no FMA.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
unsafe fn sweep_f32_avx2(rows: &mut F32Rows, tile: &[f32], eps_sq: f32) {
    sweep_f32_body(rows, tile, eps_sq)
}

#[inline(always)]
fn sweep_f32_body(rows: &mut F32Rows, tile: &[f32], eps_sq: f32) {
    let n = rows.len;
    let ix = &rows.xs[..n];
    let iy = &rows.ys[..n];
    let iz = &rows.zs[..n];
    let axs = &mut rows.axs[..n];
    let ays = &mut rows.ays[..n];
    let azs = &mut rows.azs[..n];
    for source in tile.chunks_exact(4) {
        let (xj, yj, zj, mj) = (source[0], source[1], source[2], source[3]);
        for k in 0..n {
            // identical expression tree to interact_f32
            let dx = xj - ix[k];
            let dy = yj - iy[k];
            let dz = zj - iz[k];
            let r2 = dx * dx + dy * dy + dz * dz + eps_sq;
            let inv_r = 1.0 / r2.sqrt();
            let inv_r3 = inv_r * inv_r * inv_r;
            let s = mj * inv_r3;
            axs[k] += dx * s;
            ays[k] += dy * s;
            azs[k] += dz * s;
        }
    }
}

/// The target registers of one work-item of an f32 force kernel.
pub(crate) trait TargetLane {
    /// The item's target position and accumulator, or `None` for an item
    /// without a target (a padding slot its force-eval phase skips).
    fn lane(&mut self) -> Option<(&[f32; 3], &mut [f32; 3])>;
}

/// Adds a staged tile onto every item that has a target, [`SWEEP_ROWS`]
/// items at a time: bit-identical to calling [`interact_tile_f32`] per item.
fn sweep_items<R: TargetLane>(items: &mut [R], tile: &[f32], eps_sq: f32) {
    for chunk in items.chunks_mut(SWEEP_ROWS) {
        let mut rows = F32Rows::default();
        for item in chunk.iter_mut() {
            if let Some((xi, acc)) = item.lane() {
                rows.push(*xi, *acc);
            }
        }
        if rows.len == 0 {
            continue;
        }
        sweep_f32(&mut rows, tile, eps_sq);
        let mut k = 0;
        for item in chunk.iter_mut() {
            if let Some((_, acc)) = item.lane() {
                *acc = rows.acc(k);
                k += 1;
            }
        }
    }
}

/// The force-eval phase of every f32 force kernel for a whole work-group:
/// the `tile` float4 sources staged at LDS word 0 against every item's
/// target.
///
/// Each item is charged exactly what its per-item phase charges — the
/// tile's flops and an [`ItemCtx::lds_read_slice`] of the tile, which the
/// race detector sees — and then one [`sweep_items`] updates the
/// accumulators of the items with a target.
pub(crate) fn force_eval_group<R: TargetLane>(
    ctx: &mut GroupCtx<'_>,
    items: &mut [R],
    tile: usize,
    eps_sq: f32,
) {
    let flops = (FLOPS_PER_INTERACTION * tile as u64) as f64;
    for local_id in 0..items.len() {
        let mut item = ctx.item(local_id);
        item.charge_flops(flops);
        item.lds_read_slice(0, 4 * tile);
    }
    sweep_items(items, &ctx.lds()[..4 * tile], eps_sq);
}

/// Uploads positions+masses as float4 and returns (pos_mass, acc_out)
/// buffers; `acc_out` is float4 per body. The upload is charged to the
/// transfer clock — it is part of every plan's per-step cost. Retries
/// transient injected faults (see [`crate::recover`]).
pub fn upload_bodies(device: &mut Device, set: &ParticleSet) -> (BufF32, BufF32) {
    let packed = set.pack_pos_mass_f32();
    let pos_mass = device.alloc_f32(packed.len());
    crate::recover::upload_f32_with_recovery(device, pos_mass, &packed);
    let acc_out = device.alloc_f32(set.len() * 4);
    (pos_mass, acc_out)
}

/// Downloads a float4 acceleration buffer and widens to `Vec3`, applying the
/// gravitational constant `g` host-side (kernels work in G = 1 units).
/// Retries transient injected faults (see [`crate::recover`]).
pub fn download_acc(device: &mut Device, acc_out: BufF32, n: usize, g: f64) -> Vec<Vec3> {
    let raw = crate::recover::download_f32_with_recovery(device, acc_out);
    widen_acc(&raw, n, g)
}

/// Fallible [`download_acc`]: retries transient faults, surfaces a permanent
/// fault (or exhausted retries) to the caller instead of panicking. The
/// multi-device drivers use this to detect a lost device.
pub fn try_download_acc(
    device: &mut Device,
    acc_out: BufF32,
    n: usize,
    g: f64,
) -> Result<Vec<Vec3>, FaultError> {
    let raw = crate::recover::with_retry(device, &RetryPolicy::default(), |d| {
        d.try_download_f32(acc_out)
    })?;
    Ok(widen_acc(&raw, n, g))
}

fn widen_acc(raw: &[f32], n: usize, g: f64) -> Vec<Vec3> {
    (0..n)
        .map(|i| {
            Vec3::new(f64::from(raw[4 * i]), f64::from(raw[4 * i + 1]), f64::from(raw[4 * i + 2]))
                * g
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_ids_stable() {
        assert_eq!(PlanKind::IParallel.id(), "i-parallel");
        assert_eq!(PlanKind::JwParallel.id(), "jw-parallel");
        assert_eq!(PlanKind::all().len(), 4);
        assert!(PlanKind::WParallel.uses_tree());
        assert!(!PlanKind::JParallel.uses_tree());
    }

    #[test]
    fn plan_parse_roundtrips_every_id() {
        for kind in PlanKind::all() {
            assert_eq!(PlanKind::parse(kind.id()), Some(kind));
        }
        assert_eq!(PlanKind::parse("k-parallel"), None);
    }

    #[test]
    fn config_validation() {
        let spec = DeviceSpec::radeon_hd_5850();
        assert!(PlanConfig::default().validate(&spec).is_ok());
        let bad = PlanConfig { block_size: 0, ..Default::default() };
        assert!(bad.validate(&spec).is_err());
        let bad = PlanConfig { block_size: 512, ..Default::default() };
        assert!(bad.validate(&spec).is_err());
        let bad = PlanConfig { theta: 0.0, ..Default::default() };
        assert!(bad.validate(&spec).is_err());
        let bad = PlanConfig { j_slices: Some(0), ..Default::default() };
        assert!(bad.validate(&spec).is_err());
    }

    #[test]
    fn interaction_math_matches_f64_reference() {
        let xi = [0.1_f32, 0.2, 0.3];
        let src = [1.0_f32, -0.5, 0.7, 2.0];
        let mut acc = [0.0_f32; 3];
        interact_f32(xi, &src, 1e-4, &mut acc);
        let a64 = nbody_core::gravity::pair_acceleration(
            Vec3::new(0.1, 0.2, 0.3),
            Vec3::new(1.0, -0.5, 0.7),
            2.0,
            1e-4,
        );
        assert!((f64::from(acc[0]) - a64.x).abs() < 1e-6);
        assert!((f64::from(acc[1]) - a64.y).abs() < 1e-6);
        assert!((f64::from(acc[2]) - a64.z).abs() < 1e-6);
    }

    #[test]
    fn self_and_padding_contribute_zero() {
        let xi = [0.5_f32, 0.5, 0.5];
        let mut acc = [0.0_f32; 3];
        // self-pair: same position, nonzero mass, softened
        interact_f32(xi, &[0.5, 0.5, 0.5, 3.0], 1e-4, &mut acc);
        assert_eq!(acc, [0.0; 3]);
        // padding: zero mass anywhere
        interact_f32(xi, &[9.0, 9.0, 9.0, 0.0], 1e-4, &mut acc);
        assert_eq!(acc, [0.0; 3]);
    }

    /// Runs one sweep through `f` over `targets` (onto fresh non-zero
    /// accumulators, [`SWEEP_ROWS`] rows at a time) and returns the bits.
    fn sweep_with(
        f: impl Fn(&mut F32Rows, &[f32], f32),
        targets: &[[f32; 3]],
        tile: &[f32],
        eps_sq: f32,
    ) -> Vec<[u32; 3]> {
        let mut out = Vec::new();
        for chunk in targets.chunks(SWEEP_ROWS) {
            let mut rows = F32Rows::default();
            for (k, &xi) in chunk.iter().enumerate() {
                rows.push(xi, [0.25, -0.5, k as f32]);
            }
            f(&mut rows, tile, eps_sq);
            out.extend((0..rows.len).map(|k| rows.acc(k).map(f32::to_bits)));
        }
        out
    }

    #[test]
    fn lane_sweep_matches_the_per_target_tile_bitwise() {
        use nbody_core::testutil::random_set;
        let set = random_set(300, 21);
        let mut tile = set.pack_pos_mass_f32();
        // zero-mass padding, and a source that coincides with a target
        tile.extend_from_slice(&[0.0, 0.0, 0.0, 0.0, 9.0, -9.0, 9.0, 0.0]);
        let twin = tile[40..44].to_vec();
        tile.extend_from_slice(&twin);
        let targets: Vec<[f32; 3]> =
            tile.chunks_exact(4).take(137).map(|s| [s[0], s[1], s[2]]).collect();
        // sources short of a row block, not a multiple of 8, and empty
        for len in [0, 1, 7, 64, 130, tile.len() / 4] {
            let tile = &tile[..4 * len];
            for eps_sq in [0.05_f32 * 0.05, 1e-30, 0.0] {
                let per_target: Vec<[u32; 3]> = targets
                    .chunks(SWEEP_ROWS)
                    .flat_map(|chunk| {
                        chunk.iter().enumerate().map(|(k, &xi)| {
                            let mut acc = [0.25, -0.5, k as f32];
                            interact_tile_f32(xi, tile, eps_sq, &mut acc);
                            acc.map(f32::to_bits)
                        })
                    })
                    .collect();
                // on a CPU with AVX2 `sweep_f32` runs the AVX2 build; without
                // AVX2 both calls run the baseline build
                let dispatched = sweep_with(sweep_f32, &targets, tile, eps_sq);
                let portable = sweep_with(sweep_f32_portable, &targets, tile, eps_sq);
                let what = format!("len {len}, eps_sq {eps_sq}");
                assert_eq!(dispatched, per_target, "{what}: dispatched");
                assert_eq!(portable, per_target, "{what}: portable");
            }
        }
    }

    #[test]
    fn sweep_items_updates_only_targeted_items() {
        struct Item(Option<[f32; 3]>, [f32; 3]);
        impl TargetLane for Item {
            fn lane(&mut self) -> Option<(&[f32; 3], &mut [f32; 3])> {
                let Item(xi, acc) = self;
                xi.as_ref().map(|xi| (xi, acc))
            }
        }
        let tile = [1.0, 2.0, 3.0, 4.0, -1.0, 0.5, 0.0, 2.0];
        let mut items: Vec<Item> = (0..150)
            .map(|k| {
                let xi = (k % 3 != 1).then(|| [k as f32 * 0.01, 0.0, -0.2]);
                Item(xi, [k as f32; 3])
            })
            .collect();
        sweep_items(&mut items, &tile, 1e-4);
        for (k, item) in items.iter().enumerate() {
            let mut want = [k as f32; 3];
            if let Some(xi) = item.0 {
                interact_tile_f32(xi, &tile, 1e-4, &mut want);
            }
            assert_eq!(item.1.map(f32::to_bits), want.map(f32::to_bits), "item {k}");
        }
    }

    #[test]
    fn outcome_time_composition() {
        let base = PlanOutcome {
            acc: vec![],
            interactions: 0,
            host_tree_s: 1.0,
            host_walk_s: 2.0,
            host_measured_s: 0.0,
            kernel_s: 3.0,
            transfer_s: 0.5,
            recovery_s: 0.0,
            launches: 1,
            overlap_walk_with_kernel: false,
            ..PlanOutcome::empty()
        };
        assert_eq!(base.kernel_seconds(), 3.0);
        assert_eq!(base.total_seconds(), 6.5);
        let stalled = PlanOutcome { recovery_s: 0.25, ..base.clone() };
        assert_eq!(stalled.total_seconds(), 6.75);
        let overlapped = PlanOutcome { overlap_walk_with_kernel: true, ..base.clone() };
        // walk (2) hides under kernel (3)
        assert_eq!(overlapped.total_seconds(), 4.5);
        let walk_bound = PlanOutcome { host_walk_s: 5.0, overlap_walk_with_kernel: true, ..base };
        assert_eq!(walk_bound.total_seconds(), 6.5);
    }

    #[test]
    fn upload_download_roundtrip() {
        use nbody_core::testutil::random_set;
        let mut dev =
            Device::with_transfer_model(DeviceSpec::radeon_hd_5850(), TransferModel::free());
        let set = random_set(10, 1);
        let (pos_mass, acc_out) = upload_bodies(&mut dev, &set);
        assert_eq!(dev.debug_pool().len_f32(pos_mass), 40);
        // poke accelerations directly and download
        for i in 0..10 {
            dev.debug_pool_mut().f32_mut(acc_out)[4 * i] = i as f32;
        }
        let acc = download_acc(&mut dev, acc_out, 10, 2.0);
        assert_eq!(acc.len(), 10);
        assert_eq!(acc[3], Vec3::new(6.0, 0.0, 0.0)); // 3 * g
    }
}
