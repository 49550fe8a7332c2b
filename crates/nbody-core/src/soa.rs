//! Packed SoA views and the cache-blocked tiled PP kernel.
//!
//! [`ParticleSet`] already stores components in parallel vectors, but its
//! positions are `Vec<Vec3>` — an array of 24-byte structs. The O(N²) force
//! loop wants *flat* `f64` lanes (`xs/ys/zs/ms`) so the compiler can keep
//! one SIMD stream per component, exactly like the float4 buffers the
//! paper's kernels stage through GPU local memory. [`SoaBodies`] is that
//! packed copy, derived once per step and reused across steps without
//! reallocating.
//!
//! ## Tiling and the bit-exactness contract
//!
//! [`pp_rows_tiled`] processes a block of `tile` consecutive rows (the
//! *i*-tile) against the full body list, sweeping `j` in ascending order and
//! accumulating into one scalar chain per row — the same `j`-ascending
//! summation order as [`crate::gravity::accelerations_pp`], with the same
//! per-interaction expression tree. IEEE-754 ops are deterministic and Rust
//! never contracts `a*b + c` into an FMA on its own, so the tiled kernel is
//! **bit-identical** to the scalar reference for every tile size and thread
//! count; tiles change only the order rows are *visited*, never the order
//! any row's contributions are *summed* (see DESIGN.md §9). The payoff is
//! that the inner loop runs across the rows of the tile — independent
//! accumulator lanes — so the sqrt/div pipeline vectorizes while each row's
//! chain stays sequential.
//!
//! The lane loop itself is [`sweep`]: one call adds a run of packed sources
//! onto a tile's rows. The tree path's walk-group kernel
//! (`treecode::interaction_list::evaluate_group_packed`) drives the same
//! sweep with interaction-list sources, so both kernels share one loop and
//! one run-time AVX2 dispatch.
//!
//! The tile size is a pure performance knob resolved by [`tile`]: an
//! explicit [`set_tile`], else the `NBODY_TILE` environment variable, else a
//! small one-time auto-probe ([`auto_probe_tile`]) that times the candidates
//! on a synthetic workload.

use crate::body::ParticleSet;
use crate::gravity::GravityParams;
use crate::integrator::ForceEngine;
use crate::vec3::Vec3;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Largest permitted tile (bounds the stack accumulators of the kernel).
pub const MAX_TILE: usize = 512;

/// Tile sizes tried by [`auto_probe_tile`] (all within [`MAX_TILE`]).
pub const TILE_CANDIDATES: [usize; 5] = [16, 32, 64, 128, 256];

/// Packed struct-of-arrays body storage: flat `x/y/z/mass` lanes.
///
/// Owns its buffers; [`SoaBodies::fill_from`] repacks a [`ParticleSet`]
/// reusing capacity, so after the first call a steady-state refill performs
/// no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct SoaBodies {
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
    ms: Vec<f64>,
}

impl SoaBodies {
    /// Creates empty storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Repacks `set` into the flat lanes, reusing existing capacity.
    pub fn fill_from(&mut self, set: &ParticleSet) {
        let pos = set.pos();
        self.xs.clear();
        self.xs.extend(pos.iter().map(|p| p.x));
        self.ys.clear();
        self.ys.extend(pos.iter().map(|p| p.y));
        self.zs.clear();
        self.zs.extend(pos.iter().map(|p| p.z));
        self.ms.clear();
        self.ms.extend_from_slice(set.mass());
    }

    /// Number of packed bodies.
    #[inline]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True if no bodies are packed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Borrowed view of the lanes.
    #[inline]
    pub fn view(&self) -> SoaView<'_> {
        SoaView { xs: &self.xs, ys: &self.ys, zs: &self.zs, ms: &self.ms }
    }
}

/// Borrowed SoA view: one flat slice per component, all the same length.
#[derive(Debug, Clone, Copy)]
pub struct SoaView<'a> {
    /// x positions.
    pub xs: &'a [f64],
    /// y positions.
    pub ys: &'a [f64],
    /// z positions.
    pub zs: &'a [f64],
    /// masses.
    pub ms: &'a [f64],
}

impl<'a> SoaView<'a> {
    /// Builds a view from component slices.
    ///
    /// # Panics
    /// Panics if the slices disagree in length.
    #[inline]
    pub fn new(xs: &'a [f64], ys: &'a [f64], zs: &'a [f64], ms: &'a [f64]) -> Self {
        assert_eq!(xs.len(), ys.len(), "SoA lane length mismatch");
        assert_eq!(xs.len(), zs.len(), "SoA lane length mismatch");
        assert_eq!(xs.len(), ms.len(), "SoA lane length mismatch");
        Self { xs, ys, zs, ms }
    }

    /// Number of bodies in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True if the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }
}

/// 0 = not yet resolved; anything else is the configured tile size.
static TILE: AtomicUsize = AtomicUsize::new(0);

/// Pins the process-wide tile size used by [`tile`].
///
/// # Panics
/// Panics unless `1 <= t <= MAX_TILE`.
pub fn set_tile(t: usize) {
    assert!((1..=MAX_TILE).contains(&t), "tile size must be in 1..={MAX_TILE}, got {t}");
    TILE.store(t, Ordering::Relaxed);
}

/// The tile size in effect: the last [`set_tile`] value, else `NBODY_TILE`,
/// else the result of a one-time [`auto_probe_tile`]. Never affects results,
/// only wall-clock.
pub fn tile() -> usize {
    let t = TILE.load(Ordering::Relaxed);
    if t != 0 {
        return t;
    }
    let resolved = resolve_tile();
    // first caller wins; any later set_tile still overrides
    let _ = TILE.compare_exchange(0, resolved, Ordering::Relaxed, Ordering::Relaxed);
    TILE.load(Ordering::Relaxed)
}

fn resolve_tile() -> usize {
    if let Ok(v) = std::env::var("NBODY_TILE") {
        if let Ok(t) = v.trim().parse::<usize>() {
            if (1..=MAX_TILE).contains(&t) {
                return t;
            }
        }
    }
    auto_probe_tile()
}

/// Times each [`TILE_CANDIDATES`] entry on a small synthetic workload and
/// returns the fastest. Runs in a few milliseconds; called at most once per
/// process by [`tile`]. Deterministic in *results* (tile size never changes
/// forces) though the winning size depends on the machine.
pub fn auto_probe_tile() -> usize {
    let set = crate::testutil::random_set(1024, 0x5eed);
    let mut soa = SoaBodies::new();
    soa.fill_from(&set);
    let params = GravityParams::default();
    let mut acc = vec![Vec3::ZERO; set.len()];
    let mut best = (f64::INFINITY, TILE_CANDIDATES[0]);
    for &t in &TILE_CANDIDATES {
        // one warmup, then best-of-two timed evals
        pp_rows_tiled(soa.view(), 0..set.len(), &params, t, &mut acc);
        let mut fastest = f64::INFINITY;
        for _ in 0..2 {
            let start = std::time::Instant::now();
            pp_rows_tiled(soa.view(), 0..set.len(), &params, t, &mut acc);
            fastest = fastest.min(start.elapsed().as_secs_f64());
        }
        if fastest < best.0 {
            best = (fastest, t);
        }
    }
    best.1
}

/// The target rows of one tile: the position lanes a [`sweep`] reads and
/// the accumulator lanes it adds into, all of one length.
#[derive(Debug)]
pub struct RowLanes<'a> {
    xs: &'a [f64],
    ys: &'a [f64],
    zs: &'a [f64],
    axs: &'a mut [f64],
    ays: &'a mut [f64],
    azs: &'a mut [f64],
}

impl<'a> RowLanes<'a> {
    /// Builds the rows from position lanes and accumulator lanes.
    ///
    /// # Panics
    /// Panics if the six lanes disagree in length.
    pub fn new(
        xs: &'a [f64],
        ys: &'a [f64],
        zs: &'a [f64],
        axs: &'a mut [f64],
        ays: &'a mut [f64],
        azs: &'a mut [f64],
    ) -> Self {
        let rb = axs.len();
        for len in [xs.len(), ys.len(), zs.len(), ays.len(), azs.len()] {
            assert_eq!(len, rb, "row lane length mismatch");
        }
        Self { xs, ys, zs, axs, ays, azs }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.axs.len()
    }

    /// True if there are no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.axs.is_empty()
    }
}

/// A run of sources that are also rows of the tile: source `source + t` is
/// row `row + t` for every `t < len`. A [`sweep`] skips exactly these
/// self-pairs; `len == 0` ([`Diagonal::NONE`]) skips none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Diagonal {
    /// First source of the run.
    pub source: usize,
    /// The row that first source coincides with.
    pub row: usize,
    /// Length of the run.
    pub len: usize,
}

impl Diagonal {
    /// No source is a row.
    pub const NONE: Diagonal = Diagonal { source: 0, row: 0, len: 0 };
}

/// Adds the contribution of every source of `sources`, in order, onto every
/// row of `rows`, skipping the self-pairs `diagonal` names.
///
/// The source loop is outer and the row loop inner, so each row keeps one
/// sequential summation chain across the whole sweep — the order that makes
/// every caller bit-identical to its scalar reference — while the inner loop
/// runs over independent accumulator lanes and vectorizes. Only the
/// diagonal's sources pay the self-pair select (see DESIGN.md §9); the
/// sources around it run the branch-free lane loop.
///
/// On `x86_64` CPUs with AVX2 the sweep runs an AVX2 build of the same body:
/// `fma` stays disabled and Rust never contracts `a * b + c`, so both builds
/// round every operation identically and return the same bits.
///
/// # Panics
/// Panics if the diagonal reaches past the sources or the rows.
pub fn sweep(rows: &mut RowLanes<'_>, sources: SoaView<'_>, diagonal: Diagonal, eps_sq: f64) {
    assert!(
        diagonal.source + diagonal.len <= sources.len()
            && diagonal.row + diagonal.len <= rows.len(),
        "diagonal {diagonal:?} outside {} sources x {} rows",
        sources.len(),
        rows.len()
    );
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `sweep_avx2` requires only that the CPU supports AVX2,
        // which the run-time check above has just confirmed.
        return unsafe { sweep_avx2(rows, sources, diagonal, eps_sq) };
    }
    sweep_portable(rows, sources, diagonal, eps_sq)
}

/// The baseline-target build of [`sweep_body`] (SSE2 on `x86_64`).
///
/// `inline(never)`, as is the AVX2 build: inlined into a caller's tile loop
/// LLVM stops auto-vectorizing the lane loops (verified on the emitted asm —
/// scalar `sqrtsd` only); as standalone functions they compile to packed
/// `sqrtpd`/`divpd`. `ci.sh` checks both builds in the release binary.
#[inline(never)]
fn sweep_portable(rows: &mut RowLanes<'_>, sources: SoaView<'_>, diagonal: Diagonal, eps_sq: f64) {
    sweep_body(rows, sources, diagonal, eps_sq)
}

/// The AVX2 build of [`sweep_body`]: packed `ymm` arithmetic, no FMA.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
unsafe fn sweep_avx2(
    rows: &mut RowLanes<'_>,
    sources: SoaView<'_>,
    diagonal: Diagonal,
    eps_sq: f64,
) {
    sweep_body(rows, sources, diagonal, eps_sq)
}

#[inline(always)]
fn sweep_body(rows: &mut RowLanes<'_>, sources: SoaView<'_>, diagonal: Diagonal, eps_sq: f64) {
    let rb = rows.len();
    let n = sources.len();
    let xs = &sources.xs[..n];
    let ys = &sources.ys[..n];
    let zs = &sources.zs[..n];
    let ms = &sources.ms[..n];
    let ix = &rows.xs[..rb];
    let iy = &rows.ys[..rb];
    let iz = &rows.zs[..rb];
    let axs = &mut rows.axs[..rb];
    let ays = &mut rows.ays[..rb];
    let azs = &mut rows.azs[..rb];
    let d0 = diagonal.source;
    let d1 = d0 + diagonal.len;
    for j in 0..d0 {
        lanes_accumulate(ix, iy, iz, axs, ays, azs, xs[j], ys[j], zs[j], ms[j], eps_sq);
    }
    for j in d0..d1 {
        let (xj, yj, zj, mj) = (xs[j], ys[j], zs[j], ms[j]);
        let own = diagonal.row + (j - d0);
        for k in 0..rb {
            // identical expression tree to gravity::pair_acceleration
            let dx = xj - ix[k];
            let dy = yj - iy[k];
            let dz = zj - iz[k];
            let r2 = ((dx * dx + dy * dy) + dz * dz) + eps_sq;
            let inv_r = 1.0 / r2.sqrt();
            let inv_r3 = (inv_r * inv_r) * inv_r;
            let s = mj * inv_r3;
            // the self-pair is excluded by a select on the accumulator, not
            // by adding a masked 0.0: `-0.0 + 0.0` would flip the sign, and
            // at eps = 0 the discarded lane holds a NaN that must never be
            // merged into the sum
            let keep = k != own;
            axs[k] = if keep { axs[k] + dx * s } else { axs[k] };
            ays[k] = if keep { ays[k] + dy * s } else { ays[k] };
            azs[k] = if keep { azs[k] + dz * s } else { azs[k] };
        }
    }
    for j in d1..n {
        lanes_accumulate(ix, iy, iz, axs, ays, azs, xs[j], ys[j], zs[j], ms[j], eps_sq);
    }
}

/// One branch-free source-j sweep over the tile's row lanes: every index is
/// provably in bounds and there is no select, so the loop auto-vectorizes.
/// Callers guarantee source `j` is not one of the tile rows.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn lanes_accumulate(
    ix: &[f64],
    iy: &[f64],
    iz: &[f64],
    axs: &mut [f64],
    ays: &mut [f64],
    azs: &mut [f64],
    xj: f64,
    yj: f64,
    zj: f64,
    mj: f64,
    eps_sq: f64,
) {
    let rb = axs.len();
    let ix = &ix[..rb];
    let iy = &iy[..rb];
    let iz = &iz[..rb];
    let ays = &mut ays[..rb];
    let azs = &mut azs[..rb];
    for k in 0..rb {
        // identical expression tree to gravity::pair_acceleration
        let dx = xj - ix[k];
        let dy = yj - iy[k];
        let dz = zj - iz[k];
        let r2 = ((dx * dx + dy * dy) + dz * dz) + eps_sq;
        let inv_r = 1.0 / r2.sqrt();
        let inv_r3 = (inv_r * inv_r) * inv_r;
        let s = mj * inv_r3;
        axs[k] += dx * s;
        ays[k] += dy * s;
        azs[k] += dz * s;
    }
}

/// Fills `out` with the accelerations of rows `rows` using `tile`-row
/// blocks. Bit-identical to [`crate::gravity::accelerations_pp`] restricted
/// to those rows, for any tile size.
///
/// # Panics
/// Panics if `out.len() != rows.len()`, if `rows` exceeds the view, or if
/// `tile` is 0 or above [`MAX_TILE`].
pub fn pp_rows_tiled(
    view: SoaView<'_>,
    rows: Range<usize>,
    params: &GravityParams,
    tile: usize,
    out: &mut [Vec3],
) {
    assert_eq!(out.len(), rows.len(), "output buffer length mismatch");
    assert!(rows.end <= view.len(), "row range exceeds view");
    assert!((1..=MAX_TILE).contains(&tile), "tile size must be in 1..={MAX_TILE}, got {tile}");
    let eps_sq = params.eps_sq();
    let g = params.g;
    let mut axs = [0.0_f64; MAX_TILE];
    let mut ays = [0.0_f64; MAX_TILE];
    let mut azs = [0.0_f64; MAX_TILE];
    let mut row = rows.start;
    let mut written = 0;
    while row < rows.end {
        let rb = tile.min(rows.end - row);
        axs[..rb].fill(0.0);
        ays[..rb].fill(0.0);
        azs[..rb].fill(0.0);
        // the rows are sources `row..row + rb` of the view: that run is
        // the tile's diagonal
        let mut lanes = RowLanes::new(
            &view.xs[row..row + rb],
            &view.ys[row..row + rb],
            &view.zs[row..row + rb],
            &mut axs[..rb],
            &mut ays[..rb],
            &mut azs[..rb],
        );
        sweep(&mut lanes, view, Diagonal { source: row, row: 0, len: rb }, eps_sq);
        for k in 0..rb {
            out[written + k] = Vec3::new(axs[k] * g, ays[k] * g, azs[k] * g);
        }
        row += rb;
        written += rb;
    }
}

/// Tiled PP over all rows with the globally resolved [`tile`] size.
///
/// # Panics
/// Panics if `acc.len() != view.len()`.
pub fn accelerations_pp_tiled(view: SoaView<'_>, params: &GravityParams, acc: &mut [Vec3]) {
    accelerations_pp_tiled_with(view, params, tile(), acc)
}

/// Tiled PP over all rows with an explicit tile size.
pub fn accelerations_pp_tiled_with(
    view: SoaView<'_>,
    params: &GravityParams,
    tile: usize,
    acc: &mut [Vec3],
) {
    assert_eq!(acc.len(), view.len(), "acceleration buffer length mismatch");
    pp_rows_tiled(view, 0..view.len(), params, tile, acc);
}

/// Multithreaded tiled PP over row chunks (same fixed chunking as
/// [`crate::gravity::accelerations_pp_parallel`]). Per-row summation order
/// is unchanged, so results are bit-identical to the serial tiled kernel —
/// and hence to the scalar reference — at any thread count.
pub fn accelerations_pp_tiled_parallel(
    view: SoaView<'_>,
    params: &GravityParams,
    tile: usize,
    threads: usize,
    acc: &mut [Vec3],
) {
    assert_eq!(acc.len(), view.len(), "acceleration buffer length mismatch");
    let n = view.len();
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 || n < 64 {
        pp_rows_tiled(view, 0..n, params, tile, acc);
        return;
    }
    let ranges = par::chunk_ranges(n, threads);
    std::thread::scope(|scope| {
        let mut rest = acc;
        for range in ranges {
            let (rows, tail) = rest.split_at_mut(range.len());
            rest = tail;
            scope.spawn(move || pp_rows_tiled(view, range, params, tile, rows));
        }
    });
}

/// Zero-allocation direct-PP force engine on the tiled SoA kernel.
///
/// Owns its packed [`SoaBodies`]; every evaluation repacks into the same
/// buffers and runs the tiled kernel serially or chunked over
/// [`par::threads`]. Results are bit-identical to [`crate::integrator::DirectPp`]
/// at every thread count and tile size; after the first evaluation,
/// steady-state evaluations perform no heap allocation at `threads == 1`.
#[derive(Debug, Clone)]
pub struct SoaPp {
    /// Gravity model used for every evaluation.
    pub params: GravityParams,
    soa: SoaBodies,
}

impl SoaPp {
    /// Creates the engine with the given gravity model.
    pub fn new(params: GravityParams) -> Self {
        Self { params, soa: SoaBodies::new() }
    }
}

impl ForceEngine for SoaPp {
    fn accelerations(&mut self, set: &ParticleSet, acc: &mut [Vec3]) {
        self.soa.fill_from(set);
        let view = self.soa.view();
        let threads = par::threads();
        if threads <= 1 {
            accelerations_pp_tiled_with(view, &self.params, tile(), acc);
        } else {
            accelerations_pp_tiled_parallel(view, &self.params, tile(), threads, acc);
        }
    }

    fn name(&self) -> &str {
        "soa-pp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gravity::accelerations_pp;
    use crate::testutil::random_set;

    #[test]
    fn fill_from_packs_lanes() {
        let set = random_set(17, 1);
        let mut soa = SoaBodies::new();
        soa.fill_from(&set);
        assert_eq!(soa.len(), 17);
        let v = soa.view();
        for i in 0..set.len() {
            assert_eq!(v.xs[i], set.pos()[i].x);
            assert_eq!(v.ys[i], set.pos()[i].y);
            assert_eq!(v.zs[i], set.pos()[i].z);
            assert_eq!(v.ms[i], set.mass()[i]);
        }
    }

    #[test]
    fn refill_reuses_capacity() {
        let set = random_set(100, 2);
        let mut soa = SoaBodies::new();
        soa.fill_from(&set);
        let cap = soa.xs.capacity();
        soa.fill_from(&set);
        assert_eq!(soa.xs.capacity(), cap);
    }

    #[test]
    fn tiled_matches_reference_bitwise_across_tile_sizes() {
        let set = random_set(130, 3);
        let params = GravityParams::default();
        let mut reference = vec![Vec3::ZERO; set.len()];
        accelerations_pp(&set, &params, &mut reference);
        let mut soa = SoaBodies::new();
        soa.fill_from(&set);
        for t in [1, 2, 7, 64, 130, MAX_TILE] {
            let mut acc = vec![Vec3::ZERO; set.len()];
            accelerations_pp_tiled_with(soa.view(), &params, t, &mut acc);
            assert_eq!(acc, reference, "tile {t} diverged from scalar reference");
        }
    }

    #[test]
    fn tiled_exact_at_zero_softening() {
        // the self-interaction lane computes NaN at eps = 0; the select must
        // discard it
        let set = random_set(33, 4);
        let params = GravityParams { g: 1.0, softening: 0.0 };
        let mut reference = vec![Vec3::ZERO; set.len()];
        accelerations_pp(&set, &params, &mut reference);
        let mut soa = SoaBodies::new();
        soa.fill_from(&set);
        let mut acc = vec![Vec3::ZERO; set.len()];
        accelerations_pp_tiled(soa.view(), &params, &mut acc);
        assert_eq!(acc, reference);
        assert!(acc.iter().all(|a| a.is_finite()));
    }

    #[test]
    fn parallel_tiled_matches_serial_bitwise() {
        let set = random_set(257, 5);
        let params = GravityParams::default();
        let mut soa = SoaBodies::new();
        soa.fill_from(&set);
        let mut serial = vec![Vec3::ZERO; set.len()];
        accelerations_pp_tiled_with(soa.view(), &params, 64, &mut serial);
        for threads in [2, 3, 8] {
            let mut acc = vec![Vec3::ZERO; set.len()];
            accelerations_pp_tiled_parallel(soa.view(), &params, 64, threads, &mut acc);
            assert_eq!(acc, serial, "threads {threads} diverged");
        }
    }

    #[test]
    fn engine_matches_direct_pp() {
        use crate::integrator::{DirectPp, ForceEngine};
        let set = random_set(96, 6);
        let params = GravityParams::default();
        let mut a = vec![Vec3::ZERO; set.len()];
        let mut b = vec![Vec3::ZERO; set.len()];
        DirectPp::new(params).accelerations(&set, &mut a);
        SoaPp::new(params).accelerations(&set, &mut b);
        assert_eq!(a, b);
        assert_eq!(SoaPp::new(params).name(), "soa-pp");
    }

    #[test]
    fn empty_and_single_body() {
        let params = GravityParams::default();
        let empty = SoaBodies::new();
        let mut none: Vec<Vec3> = Vec::new();
        accelerations_pp_tiled_with(empty.view(), &params, 8, &mut none);
        let one = random_set(1, 7);
        let mut soa = SoaBodies::new();
        soa.fill_from(&one);
        let mut acc = vec![Vec3::ONE; 1];
        accelerations_pp_tiled_with(soa.view(), &params, 8, &mut acc);
        assert_eq!(acc[0], Vec3::ZERO, "lone body feels no force");
    }

    /// Runs one sweep through `f` onto fresh non-zero accumulators and
    /// returns their bits.
    fn sweep_with(
        f: impl Fn(&mut RowLanes<'_>, SoaView<'_>, Diagonal, f64),
        rows: &SoaBodies,
        sources: &SoaBodies,
        diagonal: Diagonal,
        eps_sq: f64,
    ) -> Vec<[u64; 3]> {
        let rb = rows.len();
        let (mut axs, mut ays, mut azs) = (vec![0.25; rb], vec![-0.5; rb], vec![0.0; rb]);
        let view = rows.view();
        let mut lanes = RowLanes::new(view.xs, view.ys, view.zs, &mut axs, &mut ays, &mut azs);
        f(&mut lanes, sources.view(), diagonal, eps_sq);
        (0..rb).map(|k| [axs[k].to_bits(), ays[k].to_bits(), azs[k].to_bits()]).collect()
    }

    #[test]
    fn dispatched_sweep_matches_the_portable_build_bitwise() {
        // On a CPU with AVX2 `sweep` runs the AVX2 build and this compares
        // it with the baseline build; on a CPU without AVX2 both calls run
        // the baseline build, and the test still pins the dispatch path.
        let mut soa = SoaBodies::new();
        soa.fill_from(&random_set(300, 8));
        let mut rows = SoaBodies::new();
        rows.fill_from(&random_set(37, 9));
        for eps_sq in [0.05 * 0.05, 1e-300, 0.0] {
            for diagonal in [
                Diagonal::NONE,
                Diagonal { source: 0, row: 0, len: 37 },
                Diagonal { source: 120, row: 5, len: 30 },
                Diagonal { source: 299, row: 36, len: 1 },
            ] {
                let dispatched = sweep_with(sweep, &rows, &soa, diagonal, eps_sq);
                let portable = sweep_with(sweep_portable, &rows, &soa, diagonal, eps_sq);
                assert_eq!(dispatched, portable, "eps_sq {eps_sq}, {diagonal:?}");
            }
        }
        // the sources as their own rows at eps = 0: every diagonal lane is
        // a NaN the select must drop in both builds
        let diagonal = Diagonal { source: 0, row: 0, len: soa.len() };
        let dispatched = sweep_with(sweep, &soa, &soa, diagonal, 0.0);
        assert_eq!(dispatched, sweep_with(sweep_portable, &soa, &soa, diagonal, 0.0));
        assert!(dispatched.iter().flatten().all(|&b| f64::from_bits(b).is_finite()));
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn diagonal_past_the_rows_is_rejected() {
        let mut soa = SoaBodies::new();
        soa.fill_from(&random_set(8, 10));
        sweep_with(sweep, &soa, &soa, Diagonal { source: 0, row: 4, len: 5 }, 0.0);
    }

    #[test]
    fn probe_returns_candidate() {
        let t = auto_probe_tile();
        assert!(TILE_CANDIDATES.contains(&t));
    }

    #[test]
    #[should_panic(expected = "tile size")]
    fn zero_tile_rejected() {
        set_tile(0);
    }
}
