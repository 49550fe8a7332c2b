//! Cross-backend differential conformance harness.
//!
//! Runs both [`Backend`]s over a shared matrix of *cases × plans × thread
//! counts* and checks the backend contract (DESIGN.md §11):
//!
//! 1. **Thread invariance** — each backend's accelerations are bit-identical
//!    at every host thread count;
//! 2. **f64 references** — the host backend's PP plans are bit-exact against
//!    the scalar f64 reference, its tree plans against
//!    [`treecode::interaction_list::evaluate_walks_cpu`];
//! 3. **f32 accuracy** — the sim backend's (f32) relative L2 force error vs
//!    the host backend (f64) is within [`f32_l2_bound`], an error-model band
//!    `A · ε₃₂ · √N` (each f32 acceleration is a length-O(N) reduction of
//!    correctly-rounded terms, so per-component relative error grows like
//!    `√N·ε₃₂` for random summands; `A` absorbs the 1/r³ conditioning of
//!    near neighbours);
//! 4. **Fault contract** — fault injection exists only on the sim backend
//!    and never changes delivered physics;
//! 5. **Trace contract** — only the sim backend owns a device and emits
//!    launch events.
//!
//! The harness is reusable: callers supply the particle sets (so `plans`
//! does not depend on the workload generators) and get a
//! [`ConformanceReport`] that renders the same `CONFORMANCE OK/FAIL`
//! verdict line the CI gate greps for. `tests/backend_conformance.rs` and
//! the `conformance` harness bin are both thin wrappers over [`run_matrix`].

use crate::backend::{make_backend, Backend, BackendKind, SimBackend};
use crate::common::{PlanConfig, PlanKind, PlanOutcome};
use gpu_sim::fault::{FaultConfig, FaultPlan};
use gpu_sim::trace::MemoryTraceSink;
use nbody_core::body::ParticleSet;
use nbody_core::energy::total_energy;
use nbody_core::gravity::{accelerations_pp, GravityParams};
use nbody_core::integrator::{run, ForceEngine, LeapfrogKdk};
use nbody_core::vec3::Vec3;
use treecode::interaction_list::{build_walks, evaluate_walks_cpu};
use treecode::mac::OpeningAngle;
use treecode::tree::{Octree, TreeParams};

/// Machine epsilon of `f32` (2⁻²⁴, the unit roundoff).
pub const EPS32: f64 = 5.960_464_477_539_063e-8;

/// Conditioning headroom in [`f32_l2_bound`]: absorbs the amplification
/// from close encounters (softened 1/r³ terms) on top of the √N random-walk
/// accumulation growth. Calibrated against the full conformance matrix
/// (5 workload shapes × 4 plans, N up to 1024), where the worst observed
/// ratio to `ε₃₂·√N` is ≈ 0.9 — this leaves ~70× headroom without letting
/// a genuinely broken kernel (error ~√N·ε or worse per term) slip through.
pub const F32_L2_A: f64 = 64.0;

/// Tolerance on the *difference* in relative energy drift between the sim
/// (f32) and host (f64) backends over a short integration
/// ([`check_energy_drift`]).
pub const DRIFT_TOL: f64 = 1e-3;

/// The documented f32 force-error bound: relative L2 error of the sim
/// backend against the host backend must stay below `A · ε₃₂ · √N`.
pub fn f32_l2_bound(n: usize) -> f64 {
    F32_L2_A * EPS32 * (n as f64).sqrt()
}

/// Relative L2 error of `candidate` against `reference`:
/// `‖candidate − reference‖₂ / ‖reference‖₂`.
pub fn rel_l2(reference: &[Vec3], candidate: &[Vec3]) -> f64 {
    assert_eq!(reference.len(), candidate.len());
    let mut num = 0.0;
    let mut den = 0.0;
    for (r, c) in reference.iter().zip(candidate) {
        let d = *c - *r;
        num += d.dot(d);
        den += r.dot(*r);
    }
    if den == 0.0 {
        return if num == 0.0 { 0.0 } else { f64::INFINITY };
    }
    (num / den).sqrt()
}

/// One named particle set in the conformance matrix. Callers build these
/// from whatever generators they have (the harness bins use `workloads`).
#[derive(Debug, Clone)]
pub struct ConformanceCase {
    /// Display label, e.g. `"plummer-256"`.
    pub label: String,
    /// The bodies to evaluate forces for.
    pub set: ParticleSet,
}

impl ConformanceCase {
    /// Wraps a labeled particle set.
    pub fn new(label: impl Into<String>, set: ParticleSet) -> Self {
        Self { label: label.into(), set }
    }
}

/// The outcome of one (case × plan) cell.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Case label.
    pub case: String,
    /// Plan evaluated.
    pub plan: PlanKind,
    /// Body count.
    pub n: usize,
    /// Thread counts every backend was checked at.
    pub threads: Vec<usize>,
    /// Relative L2 error of the sim (f32) forces against the host (f64)
    /// forces.
    pub f32_rel_l2: f64,
    /// The bound that error was checked against.
    pub f32_bound: f64,
    /// Contract violations found in this cell (empty = pass).
    pub failures: Vec<String>,
}

/// Aggregated matrix outcome.
#[derive(Debug, Clone, Default)]
pub struct ConformanceReport {
    /// One report per (case × plan) cell, in matrix order.
    pub cells: Vec<CellReport>,
    /// Failures from the backend-generic contract checks (faults, traces,
    /// energy drift).
    pub contract_failures: Vec<String>,
}

impl ConformanceReport {
    /// True when every cell and contract check passed.
    pub fn ok(&self) -> bool {
        self.contract_failures.is_empty() && self.cells.iter().all(|c| c.failures.is_empty())
    }

    /// All failure messages, cell failures first.
    pub fn failures(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .cells
            .iter()
            .flat_map(|c| {
                c.failures.iter().map(move |f| format!("{}/{}: {f}", c.case, c.plan.id()))
            })
            .collect();
        out.extend(self.contract_failures.iter().cloned());
        out
    }

    /// Renders the per-cell table plus the `CONFORMANCE OK/FAIL` verdict
    /// line the CI gate greps for.
    pub fn render(&self) -> String {
        let mut out = String::from("case plan n threads f32_rel_l2 bound status\n");
        for c in &self.cells {
            let threads = c.threads.iter().map(|t| t.to_string()).collect::<Vec<_>>().join("/");
            let status = if c.failures.is_empty() { "ok" } else { "FAIL" };
            out.push_str(&format!(
                "{} {} {} {} {:.3e} {:.3e} {status}\n",
                c.case,
                c.plan.id(),
                c.n,
                threads,
                c.f32_rel_l2,
                c.f32_bound
            ));
        }
        for f in self.failures() {
            out.push_str(&format!("FAIL {f}\n"));
        }
        let worst = self.cells.iter().map(|c| c.f32_rel_l2).fold(0.0, f64::max);
        if self.ok() {
            out.push_str(&format!(
                "CONFORMANCE OK cells={} worst_f32_rel_l2={worst:.3e}\n",
                self.cells.len()
            ));
        } else {
            out.push_str(&format!("CONFORMANCE FAIL failures={}\n", self.failures().len()));
        }
        out
    }
}

/// The standard gravity model the conformance matrix runs under (softening
/// must be positive for the f32 kernels).
pub fn default_params() -> GravityParams {
    GravityParams { g: 1.0, softening: 0.05 }
}

/// The standard thread counts (the acceptance criterion's {1, 2, 4}).
pub const DEFAULT_THREADS: [usize; 3] = [1, 2, 4];

fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let prev = par::threads();
    par::set_threads(threads);
    let out = f();
    par::set_threads(prev);
    out
}

fn evaluate_at(
    kind: BackendKind,
    config: PlanConfig,
    plan: PlanKind,
    set: &ParticleSet,
    params: &GravityParams,
    threads: usize,
) -> PlanOutcome {
    with_threads(threads, || make_backend(kind, config).evaluate(plan, set, params))
}

/// Checks one (case × plan) cell: thread invariance per backend, bitwise
/// host ≡ f64 references, and the sim-vs-host L2 band.
pub fn check_cell(
    case: &ConformanceCase,
    plan: PlanKind,
    config: PlanConfig,
    threads: &[usize],
) -> CellReport {
    let params = default_params();
    let set = &case.set;
    let n = set.len();
    let mut failures = Vec::new();

    // one evaluation per backend at the base thread count…
    let base = threads.first().copied().unwrap_or(1);
    let sim = evaluate_at(BackendKind::Sim, config, plan, set, &params, base);
    let host = evaluate_at(BackendKind::Host, config, plan, set, &params, base);

    // …then thread invariance for every backend at the remaining counts
    for &t in threads.iter().skip(1) {
        for (kind, reference) in [(BackendKind::Sim, &sim), (BackendKind::Host, &host)] {
            let again = evaluate_at(kind, config, plan, set, &params, t);
            if again.acc != reference.acc {
                failures.push(format!(
                    "{} backend not bit-exact between {base} and {t} threads",
                    kind.id()
                ));
            }
        }
    }

    // host against the f64 references, to the bit
    let mut reference = vec![Vec3::ZERO; n];
    if plan.uses_tree() {
        let tree = Octree::build(set, TreeParams { leaf_capacity: config.leaf_capacity });
        let walks = build_walks(&tree, set, OpeningAngle::new(config.theta), config.walk_size);
        evaluate_walks_cpu(&walks, &tree, set, &params, &mut reference);
        if host.interactions != walks.total_interactions() {
            failures.push("host tree interaction count diverged from WalkSet".into());
        }
    } else {
        accelerations_pp(set, &params, &mut reference);
    }
    if host.acc != reference {
        failures.push("host backend not bit-exact against the f64 reference".into());
    }

    // sim (f32) within the documented error band of the host (f64)
    let f32_rel_l2 = rel_l2(&host.acc, &sim.acc);
    let f32_bound = f32_l2_bound(n);
    // NaN must fail the band, so test the violation directly
    if f32_rel_l2.is_nan() || f32_rel_l2 > f32_bound {
        failures.push(format!("f32 rel L2 {f32_rel_l2:.3e} exceeds bound {f32_bound:.3e}"));
    }

    CellReport {
        case: case.label.clone(),
        plan,
        n,
        threads: threads.to_vec(),
        f32_rel_l2,
        f32_bound,
        failures,
    }
}

/// Fault contract: injection is sim-only, and an injected-fault run delivers
/// bit-identical physics to a clean run (recovery is charged to the clock,
/// never to the data).
pub fn check_fault_contract(set: &ParticleSet, config: PlanConfig) -> Vec<String> {
    let params = default_params();
    let mut failures = Vec::new();
    let host = make_backend(BackendKind::Host, config);
    if host.supports_fault_injection() {
        failures.push("host backend claims fault injection".into());
    }
    if host.has_simulated_clock() {
        failures.push("host backend claims a simulated clock".into());
    }
    let plan = PlanKind::JwParallel;
    let clean = make_backend(BackendKind::Sim, config).evaluate(plan, set, &params);
    let mut device = crate::backend::default_device();
    device.set_fault_plan(FaultPlan::new(7, FaultConfig::transient(0.3)));
    let mut faulty = SimBackend::new(device, config);
    let outcome = faulty.evaluate(plan, set, &params);
    let counts =
        faulty.device().and_then(|d| d.fault_plan()).map(|p| p.counts().total()).unwrap_or(0);
    if counts == 0 {
        failures.push("fault plan at p=0.3 injected nothing".into());
    }
    if outcome.acc != clean.acc {
        failures.push("faulty sim run not bit-exact vs clean run".into());
    }
    if outcome.recovery_s <= 0.0 {
        failures.push("faulty sim run charged no recovery time".into());
    }
    failures
}

/// Trace contract: the sim backend owns a device and emits launch events;
/// the host owns no device, so its per-job traces are empty.
pub fn check_trace_contract(set: &ParticleSet, config: PlanConfig) -> Vec<String> {
    let params = default_params();
    let mut failures = Vec::new();
    let sink = MemoryTraceSink::new();
    let mut device = crate::backend::default_device();
    device.set_trace_sink(Box::new(sink.clone()));
    let mut sim = SimBackend::new(device, config);
    let outcome = sim.evaluate(PlanKind::IParallel, set, &params);
    let trace = sink.snapshot();
    if trace.launches.is_empty() {
        failures.push("sim backend emitted no launch events".into());
    }
    if trace.launches.len() != outcome.launches {
        failures.push(format!(
            "sim trace has {} launches but outcome reports {}",
            trace.launches.len(),
            outcome.launches
        ));
    }
    if trace.transfers.is_empty() {
        failures.push("sim backend emitted no transfer events".into());
    }
    if make_backend(BackendKind::Host, config).device().is_some() {
        failures.push("host backend exposes a device".into());
    }
    failures
}

/// Energy-drift agreement: integrates `steps` leapfrog steps on the host
/// (f64) and sim (f32) backends and requires their relative energy drifts
/// to agree within [`DRIFT_TOL`] (both run the same symplectic integrator;
/// only force rounding may separate them).
pub fn check_energy_drift(set: &ParticleSet, config: PlanConfig, steps: usize) -> Vec<String> {
    let params = default_params();
    let mut failures = Vec::new();
    let drift = |kind: BackendKind| {
        let mut local = set.clone();
        local.recenter();
        let e0 = total_energy(&local, &params);
        let mut engine = crate::engine::PlanForceEngine::with_backend(
            make_backend(kind, config),
            PlanKind::JwParallel,
            params,
        );
        run(&mut local, &mut engine, &LeapfrogKdk, 1e-3, steps);
        let _ = engine.name();
        ((total_energy(&local, &params) - e0) / e0).abs()
    };
    let host = drift(BackendKind::Host);
    let sim = drift(BackendKind::Sim);
    let gap = (host - sim).abs();
    // a NaN gap (non-finite energies) must count as disagreement
    if gap.is_nan() || gap > DRIFT_TOL {
        failures.push(format!(
            "energy drift disagreement: host {host:.3e} vs sim {sim:.3e} (tol {DRIFT_TOL:.1e})"
        ));
    }
    failures
}

/// Runs the full differential matrix: every case × every plan × every
/// thread count through [`check_cell`], plus the backend-generic fault,
/// trace, and energy-drift contracts on the first case.
pub fn run_matrix(
    cases: &[ConformanceCase],
    plans: &[PlanKind],
    threads: &[usize],
    config: PlanConfig,
) -> ConformanceReport {
    let mut report = ConformanceReport::default();
    for case in cases {
        for &plan in plans {
            report.cells.push(check_cell(case, plan, config, threads));
        }
    }
    if let Some(case) = cases.first() {
        report.contract_failures.extend(check_fault_contract(&case.set, config));
        report.contract_failures.extend(check_trace_contract(&case.set, config));
        report.contract_failures.extend(check_energy_drift(&case.set, config, 4));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_core::testutil::{equal_mass_set, random_set};

    #[test]
    fn rel_l2_basics() {
        let a = vec![Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 2.0, 0.0)];
        assert_eq!(rel_l2(&a, &a), 0.0);
        let b = vec![Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 2.2, 0.0)];
        let err = rel_l2(&a, &b);
        assert!((err - 0.2 / 5.0_f64.sqrt()).abs() < 1e-12, "{err}");
        let zeros = vec![Vec3::ZERO; 2];
        assert_eq!(rel_l2(&zeros, &zeros), 0.0);
        assert!(rel_l2(&zeros, &a).is_infinite());
    }

    #[test]
    fn bound_grows_with_sqrt_n() {
        assert!(f32_l2_bound(400) > f32_l2_bound(100));
        assert!((f32_l2_bound(400) / f32_l2_bound(100) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn small_matrix_passes() {
        let cases = [
            ConformanceCase::new("random-96", random_set(96, 21)),
            ConformanceCase::new("equal-mass-130", equal_mass_set(130, 22)),
        ];
        let report = run_matrix(&cases, &PlanKind::all(), &[1, 2], PlanConfig::default());
        assert!(report.ok(), "failures: {:?}", report.failures());
        assert_eq!(report.cells.len(), 8);
        let text = report.render();
        assert!(text.contains("CONFORMANCE OK"), "{text}");
        for c in &report.cells {
            assert!(c.f32_rel_l2 <= c.f32_bound);
        }
    }

    #[test]
    fn report_renders_failures() {
        let mut report = ConformanceReport::default();
        report.cells.push(CellReport {
            case: "x".into(),
            plan: PlanKind::IParallel,
            n: 8,
            threads: vec![1],
            f32_rel_l2: 1.0,
            f32_bound: 0.5,
            failures: vec!["f32 rel L2 1.0 exceeds bound 0.5".into()],
        });
        assert!(!report.ok());
        let text = report.render();
        assert!(text.contains("CONFORMANCE FAIL"), "{text}");
        assert!(text.contains("x/i-parallel"), "{text}");
    }
}
