//! The cross-backend differential conformance suite: both backends over a
//! shared matrix of workloads × N × plans × thread counts.
//!
//! The checks themselves live in `plans::conformance` (see DESIGN.md §11
//! for the contract); this test pins the acceptance matrix:
//!
//! * per-backend thread invariance at {1, 2, 4} threads on every cell,
//! * host f64 bit-exactness against the scalar PP / treecode references,
//! * the sim (f32) relative L2 force error against the host (f64) within
//!   the documented `A·ε₃₂·√N` bound on every cell,
//! * the fault, trace, and energy-drift contracts as backend-generic
//!   properties.

use plans::prelude::*;
use workloads::spec::{WorkloadKind, WorkloadSpec};

fn case(kind: WorkloadKind, n: usize, seed: u64) -> ConformanceCase {
    let mut set = WorkloadSpec { kind, n, seed }.generate();
    set.recenter();
    ConformanceCase::new(format!("{}-{n}", kind.id()), set)
}

fn matrix_cases() -> Vec<ConformanceCase> {
    vec![
        case(WorkloadKind::Plummer, 256, 20110101),
        case(WorkloadKind::UniformCube, 320, 3),
        case(WorkloadKind::Disk, 192, 7),
        case(WorkloadKind::ClusterCollision, 256, 11),
    ]
}

#[test]
fn full_matrix_meets_the_backend_contract() {
    let report =
        run_matrix(&matrix_cases(), &PlanKind::all(), &DEFAULT_THREADS, PlanConfig::default());
    assert!(report.ok(), "{}", report.render());
    assert_eq!(report.cells.len(), 4 * 4, "4 workloads x 4 plans");
    let rendered = report.render();
    assert!(rendered.contains("CONFORMANCE OK"), "{rendered}");
    for cell in &report.cells {
        assert_eq!(cell.threads, vec![1, 2, 4], "acceptance thread counts");
        assert!(
            cell.f32_rel_l2 <= cell.f32_bound,
            "{}/{}: {} > {}",
            cell.case,
            cell.plan.id(),
            cell.f32_rel_l2,
            cell.f32_bound
        );
        // the band is meaningful: sim (f32) really is off the host (f64)
        // bits, just within bound (identical results would suggest a
        // wired-up oracle)
        assert!(cell.f32_rel_l2 > 0.0, "{}/{}", cell.case, cell.plan.id());
    }
}

#[test]
fn non_default_plan_geometry_still_conforms() {
    // explicit slice geometry exercises the j-parallel and jw-parallel
    // reduction orders off their auto-tuned defaults
    let config = PlanConfig {
        block_size: 128,
        j_slices: Some(5),
        walk_size: 128,
        jw_slice_len: Some(96),
        ..PlanConfig::default()
    };
    let cases = [case(WorkloadKind::Plummer, 300, 5)];
    let report = run_matrix(&cases, &PlanKind::all(), &[1, 4], config);
    assert!(report.ok(), "{}", report.render());
}

#[test]
fn fault_and_trace_contracts_are_backend_generic() {
    let set = case(WorkloadKind::Plummer, 192, 13).set;
    let config = PlanConfig::default();
    let fault_failures = check_fault_contract(&set, config);
    assert!(fault_failures.is_empty(), "{fault_failures:?}");
    let trace_failures = check_trace_contract(&set, config);
    assert!(trace_failures.is_empty(), "{trace_failures:?}");
}

#[test]
fn energy_drift_of_the_tiers_agrees() {
    let set = case(WorkloadKind::Plummer, 128, 17).set;
    let failures = check_energy_drift(&set, PlanConfig::default(), 8);
    assert!(failures.is_empty(), "{failures:?}");
}
