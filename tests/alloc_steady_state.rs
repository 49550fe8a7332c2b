//! Zero-allocation steady-state gate.
//!
//! This binary installs [`par::arena::CountingAlloc`] as the global
//! allocator and asserts that, after a warmup step has populated the SoA
//! buffers, scratch arenas, and pooled tree storage, the serial hot paths
//! perform **zero** heap allocations per step:
//!
//! * the SoA-tiled PP engine driven by the leapfrog integrator,
//! * the Barnes-Hut engine (rebuild-in-place, refit, and pooled walks),
//! * interaction-list generation plus CPU walk evaluation,
//! * interaction-list generation plus the packed walk-group kernel,
//! * the incremental Morton re-sort.
//!
//! Zero allocation is a *serial* invariant (`par` pinned to one thread):
//! the parallel paths spawn scoped workers with per-chunk buffers by
//! design. The file holds exactly one `#[test]` so no concurrent test can
//! pollute the process-wide allocation counter.

#[global_allocator]
static ALLOC: par::arena::CountingAlloc = par::arena::CountingAlloc;

use nbody_core::integrator::{prime, ForceEngine, Integrator, LeapfrogKdk};
use nbody_core::prelude::*;
use treecode::prelude::*;

/// Runs `step` once more after `warmup` iterations and returns the
/// allocation events that single steady-state step performed.
fn allocs_of_step<F: FnMut()>(warmup: usize, mut step: F) -> u64 {
    for _ in 0..warmup {
        step();
    }
    par::arena::reset_alloc_count();
    step();
    par::arena::alloc_count()
}

#[test]
fn steady_state_steps_perform_zero_heap_allocations() {
    assert!(par::arena::counting_active(), "counting allocator must be installed");
    par::set_threads(1);
    let params = GravityParams { g: 1.0, softening: 0.05 };
    let n = 512;

    // --- PP path: SoA engine + leapfrog, full integrator step ---
    let mut set = nbody_core::testutil::random_set(n, 21);
    let mut engine = SoaPp::new(params);
    prime(&mut set, &mut engine); // also resolves the tile size (auto-probe)
    let pp = allocs_of_step(3, || LeapfrogKdk.step(&mut set, &mut engine, 1e-4));
    assert_eq!(pp, 0, "SoA PP integrator step allocated {pp} times");

    // --- treecode path: Barnes-Hut with rebuild-in-place and refit ---
    // rebuild_interval 2 makes consecutive steps alternate rebuild/refit,
    // so the warmup + measured window covers both branches
    let mut bh = BarnesHut::new(params).with_rebuild_interval(2);
    let mut acc = vec![Vec3::ZERO; set.len()];
    let tree_rebuild = allocs_of_step(4, || bh.accelerations(&set, &mut acc));
    assert_eq!(tree_rebuild, 0, "Barnes-Hut step allocated {tree_rebuild} times");

    // --- interaction lists: capacity-reusing walk build + CPU evaluation ---
    let tree = Octree::build(&set, TreeParams::default());
    let theta = OpeningAngle::new(0.5);
    let mut walks = build_walks(&tree, &set, theta, 64);
    let mut scratch = par::arena::Scratch::new();
    let walk = allocs_of_step(2, || {
        build_walks_into(&mut walks, &tree, &set, theta, 64, &mut scratch);
        evaluate_walks_cpu(&walks, &tree, &set, &params, &mut acc);
    });
    assert_eq!(walk, 0, "walk build + evaluation allocated {walk} times");

    // --- the packed walk-group kernel over the same walks: its rank and
    // lane buffers come from the arena ---
    let packed = allocs_of_step(2, || {
        build_walks_into(&mut walks, &tree, &set, theta, 64, &mut scratch);
        evaluate_walks_packed(&walks, &tree, &set, &params, &mut acc, &mut scratch);
    });
    assert_eq!(packed, 0, "walk build + packed group evaluation allocated {packed} times");

    // --- Morton path: incremental re-sort of a perturbed previous order ---
    let mut order = morton_order(&set);
    let mut i = 0usize;
    let morton = allocs_of_step(3, || {
        // in-place perturbation: forces real merge passes, not just the
        // sortedness verification scan
        let len = order.len();
        order.swap(i % len, (i * 7 + 13) % len);
        i += 1;
        morton_order_incremental(&set, &mut order, &mut scratch);
    });
    assert_eq!(morton, 0, "incremental Morton re-sort allocated {morton} times");

    // sanity: the counter is actually live in this binary
    let probe = vec![0u8; 1];
    std::hint::black_box(&probe);
    assert!(par::arena::alloc_count() > 0);
}
