//! # treecode
//!
//! The Barnes-Hut substrate of the PTPM N-body reproduction (paper §2.2):
//! octree construction with center-of-mass multipoles, the `l/D < θ`
//! multipole acceptance criterion, per-body CPU walks, and — the part the
//! GPU plans build on — Hamada-style **multiple-walk interaction lists**,
//! where spatially coherent groups of bodies share one list produced by a
//! single conservative (group-MAC) traversal.
//!
//! ```
//! use nbody_core::prelude::*;
//! use treecode::prelude::*;
//!
//! let set = nbody_core::testutil::random_set(256, 7);
//! let params = GravityParams::default();
//! let tree = Octree::build(&set, TreeParams::default());
//! let walks = build_walks(&tree, &set, OpeningAngle::new(0.5), 32);
//! let mut acc = vec![Vec3::ZERO; set.len()];
//! evaluate_walks_cpu(&walks, &tree, &set, &params, &mut acc);
//! assert!(acc.iter().all(|a| a.is_finite()));
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod interaction_list;
pub mod mac;
pub mod morton;
pub mod multipole;
pub mod shards;
pub mod traverse;
pub mod tree;

/// Common imports.
pub mod prelude {
    pub use crate::engine::BarnesHut;
    pub use crate::interaction_list::{
        build_walks, build_walks_into, build_walks_range, collect_list, collect_list_into,
        evaluate_group_packed, evaluate_walks_cpu, evaluate_walks_packed, tree_ranks, WalkGroup,
        WalkSet,
    };
    pub use crate::mac::{accepts_group, accepts_point, Aabb, OpeningAngle};
    pub use crate::morton::{
        demorton3, eligible_walk_splits, keys_in_order, morton3, morton_of, morton_order,
        morton_order_incremental,
    };
    pub use crate::multipole::{accelerations_bh_quad, compute_quadrupoles, Quadrupole};
    pub use crate::shards::{MortonShard, MortonShards};
    pub use crate::traverse::{
        acceleration_on, acceleration_on_with_stack, accelerations_bh, accelerations_bh_scratch,
        WalkStats,
    };
    pub use crate::tree::{octant, octant_offset, root_cube, Node, Octree, TreeParams, NO_CHILD};
}

pub use prelude::*;
