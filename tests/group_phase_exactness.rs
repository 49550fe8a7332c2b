//! The group-level force-eval phase against the per-item phase it batches.
//!
//! Every f32 force kernel overrides `Kernel::phase_group` for its
//! force-eval phase with one lane sweep over the group's targets. A wrapper
//! kernel that forwards everything but `phase_group` runs the same launch
//! through the default per-item loop; the two must leave byte-identical
//! device memory, identical group costs, phase counts and per-phase
//! profiles at every host thread count, and identical race reports.
//!
//! The launches cover local sizes 1, 7, 64 and 256; tiles shorter than the
//! group and not a multiple of 8; idle (`NO_TARGET`) lanes; zero-mass
//! padding; and coincident bodies.

use gpu_sim::exec::{execute_launch_checked, execute_launch_profiled, ExecOutcome, PhaseCost};
use gpu_sim::prelude::*;
use nbody_core::body::ParticleSet;
use plans::i_parallel::IParallelKernel;
use plans::j_parallel::JPartialKernel;
use plans::jw_parallel::{slice_walks, JwPartialKernel};
use plans::multi_gpu::PpSlicedKernel;
use plans::w_parallel::{pack_walks, WWalkKernel};
use treecode::prelude::*;

/// Runs `K` with the default, per-item `phase_group`.
struct PerItem<'a, K>(&'a K);

impl<K: Kernel> Kernel for PerItem<'_, K> {
    type ItemRegs = K::ItemRegs;
    type GroupRegs = K::GroupRegs;

    fn name(&self) -> &str {
        self.0.name()
    }

    fn lds_words(&self) -> usize {
        self.0.lds_words()
    }

    fn phase_label(&self, phase: usize) -> String {
        self.0.phase_label(phase)
    }

    fn phase(
        &self,
        phase: usize,
        ctx: &mut ItemCtx<'_>,
        regs: &mut K::ItemRegs,
        group: &K::GroupRegs,
    ) {
        self.0.phase(phase, ctx, regs, group);
    }

    fn control(&self, phase: usize, group: &mut K::GroupRegs, info: &GroupInfo) -> Control {
        self.0.control(phase, group, info)
    }
}

/// Index of the force-eval phase in every f32 force kernel.
const FORCE_EVAL: usize = 2;

/// Runs `K`, and after each force-eval phase has the group's last item
/// rewrite LDS word 0 with the value it holds. That write races with every
/// other item's read of the tile, so the race detector reports it only if
/// those reads were tracked per item.
struct RaceProbe<'a, K>(&'a K);

impl<K: Kernel> Kernel for RaceProbe<'_, K> {
    type ItemRegs = K::ItemRegs;
    type GroupRegs = K::GroupRegs;

    fn name(&self) -> &str {
        self.0.name()
    }

    fn lds_words(&self) -> usize {
        self.0.lds_words()
    }

    fn phase(
        &self,
        phase: usize,
        ctx: &mut ItemCtx<'_>,
        regs: &mut K::ItemRegs,
        group: &K::GroupRegs,
    ) {
        self.0.phase(phase, ctx, regs, group);
    }

    fn phase_group(
        &self,
        phase: usize,
        ctx: &mut GroupCtx<'_>,
        items: &mut [K::ItemRegs],
        group: &K::GroupRegs,
    ) {
        self.0.phase_group(phase, ctx, items, group);
        if phase == FORCE_EVAL && ctx.local_size > 1 {
            let word = ctx.lds()[0];
            ctx.item(ctx.local_size - 1).lds_write(0, word);
        }
    }

    fn control(&self, phase: usize, group: &mut K::GroupRegs, info: &GroupInfo) -> Control {
        self.0.control(phase, group, info)
    }
}

/// Everything a launch leaves behind that the override must reproduce.
#[derive(Debug, PartialEq)]
struct Footprint {
    /// The bits of every buffer of the pool, in handle order.
    memory: Vec<Vec<u32>>,
    group_costs: Vec<GroupCost>,
    group_phases: Vec<u64>,
    phase_costs: Vec<Vec<PhaseCost>>,
}

fn footprint(pool: &BufferPool, bufs: &[BufF32], u32s: &[BufU32], out: ExecOutcome) -> Footprint {
    let mut memory: Vec<Vec<u32>> =
        bufs.iter().map(|&b| pool.f32(b).iter().map(|v| v.to_bits()).collect()).collect();
    memory.extend(u32s.iter().map(|&b| pool.u32(b).to_vec()));
    Footprint {
        memory,
        group_costs: out.group_costs,
        group_phases: out.group_phases,
        phase_costs: out.phase_costs,
    }
}

/// Launches `kernel` and its per-item twin on copies of `pool` at 1, 2 and
/// 3 host threads (profiled), then race-checked, and asserts they agree.
fn assert_override_exact<K: Kernel>(
    kernel: &K,
    grid: NdRange,
    pool: &BufferPool,
    bufs: &[BufF32],
    u32s: &[BufU32],
    what: &str,
) {
    let spec = DeviceSpec::radeon_hd_5850();
    let mut serial = None;
    for threads in [1, 2, 3] {
        par::set_threads(threads);
        let run = |k: &dyn Fn(&mut BufferPool) -> ExecOutcome| {
            let mut p = pool.clone();
            let out = k(&mut p);
            footprint(&p, bufs, u32s, out)
        };
        let batched = run(&|p| execute_launch_profiled(kernel, grid, &spec, p, false).0);
        let per_item = run(&|p| execute_launch_profiled(&PerItem(kernel), grid, &spec, p, false).0);
        assert_eq!(batched, per_item, "{what}: override diverged at {threads} threads");
        match &serial {
            None => serial = Some(batched),
            Some(s) => assert_eq!(&batched, s, "{what}: {threads} threads diverged from 1"),
        }
    }
    par::set_threads(1);
    let (mut a, mut b) = (pool.clone(), pool.clone());
    let (out_a, races_a) = execute_launch_checked(kernel, grid, &spec, &mut a);
    let (out_b, races_b) = execute_launch_checked(&PerItem(kernel), grid, &spec, &mut b);
    assert!(races_a.is_empty(), "{what}: {}", races_a[0]);
    assert_eq!(races_a, races_b, "{what}: race reports differ");
    assert_eq!(
        footprint(&a, bufs, u32s, out_a),
        footprint(&b, bufs, u32s, out_b),
        "{what}: race-checked launches differ"
    );
    let (mut a, mut b) = (pool.clone(), pool.clone());
    let (_, races_a) = execute_launch_checked(&RaceProbe(kernel), grid, &spec, &mut a);
    let (_, races_b) = execute_launch_checked(&RaceProbe(&PerItem(kernel)), grid, &spec, &mut b);
    assert_eq!(races_a.is_empty(), grid.local == 1, "{what}: the probe write must race");
    assert_eq!(races_a, races_b, "{what}: probed race reports differ");
}

/// A random set with three bodies stacked on one point.
fn bodies(n: usize, seed: u64) -> ParticleSet {
    let mut set = nbody_core::testutil::random_set(n, seed);
    let p = set.pos()[0];
    for i in [1, n / 2] {
        set.pos_mut()[i] = p;
    }
    set
}

const EPS_SQ: f32 = 0.05 * 0.05;
const LOCAL_SIZES: [usize; 4] = [1, 7, 64, 256];

/// Uploads float4 bodies zero-padded (zero mass) to `padded` entries.
fn upload(pool: &mut BufferPool, set: &ParticleSet, padded: usize) -> BufF32 {
    let mut data = set.pack_pos_mass_f32();
    data.resize(4 * padded, 0.0);
    let buf = pool.alloc_f32(data.len());
    pool.f32_mut(buf).copy_from_slice(&data);
    buf
}

#[test]
fn pp_kernels_match_their_per_item_phase() {
    let set = bodies(75, 41);
    let n = set.len();
    for block in LOCAL_SIZES {
        let n_padded = n.div_ceil(block) * block;

        let mut pool = BufferPool::new();
        let pos_mass = upload(&mut pool, &set, n_padded);
        let acc_out = pool.alloc_f32(4 * n);
        let k = IParallelKernel { pos_mass, acc_out, n, n_padded, block, eps_sq: EPS_SQ };
        let grid = NdRange { global: n_padded, local: block };
        assert_override_exact(&k, grid, &pool, &[pos_mass, acc_out], &[], "i-parallel");

        // 29-body slices: in 64- and 256-item groups every tile is shorter
        // than the group and not a multiple of 8
        let (s_count, slice_len) = (3, 29);
        let mut pool = BufferPool::new();
        let pos_mass = upload(&mut pool, &set, n_padded);
        let partial = pool.alloc_f32(4 * s_count * n_padded);
        let k = JPartialKernel {
            pos_mass,
            partial,
            n_padded,
            block,
            s_count,
            slice_len,
            eps_sq: EPS_SQ,
        };
        let grid = NdRange { global: n_padded * s_count, local: block };
        assert_override_exact(&k, grid, &pool, &[pos_mass, partial], &[], "j-parallel");

        // a source slice of 37 zero-padded to 45: a short last tile
        let (m, m_padded) = (37, 45);
        let mut pool = BufferPool::new();
        let targets = upload(&mut pool, &set, n_padded);
        let mut sources_set = bodies(m, 43);
        sources_set.pos_mut()[5] = set.pos()[3];
        let sources = upload(&mut pool, &sources_set, m_padded);
        let acc_out = pool.alloc_f32(4 * n);
        let k = PpSlicedKernel { targets, sources, acc_out, n, m_padded, block, eps_sq: EPS_SQ };
        let grid = NdRange { global: n_padded, local: block };
        assert_override_exact(&k, grid, &pool, &[targets, sources, acc_out], &[], "pp-sliced");
    }
}

#[test]
fn tree_kernels_match_their_per_item_phase() {
    let set = bodies(300, 47);
    let tree = Octree::build(&set, TreeParams { leaf_capacity: 8 });
    for walk_size in LOCAL_SIZES {
        let walks = build_walks(&tree, &set, OpeningAngle::new(0.6), walk_size);
        let packed = pack_walks(&walks, &tree, &set, walk_size);
        let mut pool = BufferPool::new();
        let list_data = pool.alloc_f32(packed.list_data.len());
        pool.f32_mut(list_data).copy_from_slice(&packed.list_data);
        let targets = pool.alloc_u32(packed.targets.len());
        pool.u32_mut(targets).copy_from_slice(&packed.targets);
        let pos_mass = upload(&mut pool, &set, set.len());
        let num_walks = packed.walk_desc.len();
        assert!(
            walk_size == 1 || packed.targets.contains(&plans::w_parallel::NO_TARGET),
            "walk size {walk_size}: expected idle lanes"
        );

        let mut w_pool = pool.clone();
        let acc_out = w_pool.alloc_f32(4 * set.len());
        let k = WWalkKernel {
            list_data,
            targets,
            pos_mass,
            acc_out,
            walk_desc: packed.walk_desc.clone(),
            walk_size,
            eps_sq: EPS_SQ,
        };
        let grid = NdRange { global: num_walks * walk_size, local: walk_size };
        let bufs = [list_data, pos_mass, acc_out];
        assert_override_exact(&k, grid, &w_pool, &bufs, &[targets], "w-parallel");

        // 13-entry slices: every tile is shorter than a 64- or 256-item
        // group and not a multiple of 8
        let (blocks, _) = slice_walks(&packed.walk_desc, 13);
        let partial = pool.alloc_f32(4 * blocks.len() * walk_size);
        let grid = NdRange { global: blocks.len() * walk_size, local: walk_size };
        let k = JwPartialKernel {
            list_data,
            targets,
            pos_mass,
            partial,
            blocks,
            walk_size,
            eps_sq: EPS_SQ,
        };
        let bufs = [list_data, pos_mass, partial];
        assert_override_exact(&k, grid, &pool, &bufs, &[targets], "jw-parallel");
    }
}
