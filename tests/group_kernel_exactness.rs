//! Edge cases of the packed walk-group kernel: every configuration must
//! reproduce the scalar `evaluate_walks_cpu` reference bit-for-bit, with
//! the same interaction count.
//!
//! The kernel earns this by construction — each target row sums its
//! sources in list order (cells, then bodies) with the expression tree of
//! `pair_acceleration`, and self-pairs are dropped by an accumulator
//! select — and this file pins the property where it is easiest to break:
//! zero softening (the dropped self lane is a NaN), one-body and short last
//! groups, lists longer than one source chunk, coincident bodies, and the
//! host backend's shard, memory-budget and thread-count configurations.

use nbody_core::prelude::*;
use plans::prelude::{make_backend, BackendKind, PlanConfig, PlanKind};
use treecode::interaction_list::SOURCE_CHUNK;
use treecode::prelude::*;

/// Runs the packed kernel and the scalar reference on one configuration
/// and asserts bitwise agreement; returns the walks and the forces for
/// further checks.
fn assert_packed_matches_cpu(
    set: &ParticleSet,
    leaf_capacity: usize,
    theta: f64,
    walk_size: usize,
    params: &GravityParams,
    what: &str,
) -> (WalkSet, Vec<Vec3>) {
    let tree = Octree::build(set, TreeParams { leaf_capacity });
    let walks = build_walks(&tree, set, OpeningAngle::new(theta), walk_size);
    let mut reference = vec![Vec3::ZERO; set.len()];
    let stats = evaluate_walks_cpu(&walks, &tree, set, params, &mut reference);
    let mut packed = vec![Vec3::ZERO; set.len()];
    let mut scratch = par::arena::Scratch::new();
    // twice over one arena: a warm, reused lane buffer must not leak state
    for pass in 0..2 {
        let count = evaluate_walks_packed(&walks, &tree, set, params, &mut packed, &mut scratch);
        assert_eq!(packed, reference, "{what}: packed kernel diverged (pass {pass})");
        assert_eq!(count, stats.total_interactions(), "{what}: interaction count");
    }
    assert_eq!(walks.total_interactions(), stats.total_interactions(), "{what}: WalkSet count");
    for g in &walks.groups {
        // the sorted-search count against the plain quadratic definition
        let self_pairs = g.bodies.iter().filter(|b| g.body_list.contains(b)).count() as u64;
        let quadratic = g.bodies.len() as u64 * g.list_len() as u64 - self_pairs;
        assert_eq!(g.interactions(), quadratic, "{what}: WalkGroup::interactions");
    }
    (walks, packed)
}

#[test]
fn packed_kernel_matches_the_cpu_walks_on_edge_cases() {
    let soft = GravityParams { g: 1.0, softening: 0.05 };
    let hard = GravityParams { g: 2.5, softening: 0.0 };

    // zero softening: the discarded self lane is a NaN that must never be
    // merged; 257 = 8 x 32 + 1 also leaves a one-body last group
    for params in [soft, hard] {
        let set = nbody_core::testutil::random_set(257, 31);
        let (walks, acc) = assert_packed_matches_cpu(&set, 16, 0.5, 32, &params, "n=257");
        assert_eq!(walks.groups.last().map(|g| g.bodies.len()), Some(1));
        assert!(acc.iter().all(|a| a.is_finite()), "non-finite force at {params:?}");
    }

    // a lone body, and a last group shorter than the walk size
    let one = nbody_core::testutil::random_set(1, 32);
    assert_packed_matches_cpu(&one, 16, 0.5, 64, &soft, "n=1");
    let set = nbody_core::testutil::random_set(150, 33);
    let (walks, _) = assert_packed_matches_cpu(&set, 4, 0.5, 64, &hard, "n=150 walk 64");
    assert_eq!(walks.groups.last().map(|g| g.bodies.len()), Some(150 - 128));

    // lists longer than one source chunk: sweeps cross chunk boundaries in
    // both the cell and the body stream
    let set = nbody_core::testutil::random_set(6000, 34);
    let (walks, _) = assert_packed_matches_cpu(&set, 1, 0.25, 4, &soft, "long cell lists");
    assert!(walks.groups.iter().any(|g| g.cell_list.len() > 2 * SOURCE_CHUNK));
    let (walks, _) = assert_packed_matches_cpu(&set, 64, 0.3, 64, &hard, "long body lists");
    assert!(walks.groups.iter().any(|g| g.body_list.len() > 2 * SOURCE_CHUNK));

    // coincident bodies: every third body repeats its predecessor's
    // position, so coincident pairs meet as sources and as targets
    let base = nbody_core::testutil::random_set(300, 35);
    let mut prev = Vec3::ZERO;
    let coincident: ParticleSet = (0..base.len())
        .map(|i| {
            let p = if i % 3 == 2 { prev } else { base.pos()[i] };
            prev = p;
            Body::new(p, Vec3::ZERO, base.mass()[i])
        })
        .collect();
    assert_packed_matches_cpu(&coincident, 2, 0.5, 16, &soft, "coincident bodies");
}

#[test]
fn host_tree_plans_match_the_cpu_walks_under_shards_and_threads() {
    let params = GravityParams { g: 1.0, softening: 0.05 };
    let set = nbody_core::testutil::random_set(900, 36);
    let base = PlanConfig { walk_size: 32, ..PlanConfig::default() };
    let tree = Octree::build(&set, TreeParams { leaf_capacity: base.leaf_capacity });
    let walks = build_walks(&tree, &set, OpeningAngle::new(base.theta), base.walk_size);
    let mut reference = vec![Vec3::ZERO; set.len()];
    evaluate_walks_cpu(&walks, &tree, &set, &params, &mut reference);
    let configs = [
        base,
        PlanConfig { shards: Some(2), ..base },
        PlanConfig { shards: Some(5), ..base },
        PlanConfig { mem_budget_bytes: Some(64 * 1024), ..base },
    ];
    for threads in [1, 2, 3, 8] {
        par::set_threads(threads);
        for config in configs {
            for plan in [PlanKind::WParallel, PlanKind::JwParallel] {
                let got = make_backend(BackendKind::Host, config).evaluate(plan, &set, &params);
                let what = format!("{plan:?} {config:?} at {threads} threads");
                assert_eq!(got.acc, reference, "{what}: diverged from evaluate_walks_cpu");
                assert_eq!(got.interactions, walks.total_interactions(), "{what}: count");
            }
        }
    }
    par::set_threads(1);
}
