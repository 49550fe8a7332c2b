//! Experiment configuration.
//!
//! [`ExperimentConfig::paper`] reproduces the paper's setup: a Plummer
//! sphere, N swept over powers of two up to 65536, θ = 0.5, 100 time steps,
//! the simulated HD 5850, and a CPU baseline emulating the Pentium E2140
//! through a measured-time slowdown factor (see [`HOST_SLOWDOWN`]).

use gpu_sim::prelude::*;
use nbody_core::gravity::GravityParams;
use plans::prelude::{Backend, BackendKind, PlanConfig, SimBackend};
use serde::{Deserialize, Serialize};
use workloads::spec::WorkloadSpec;

/// Factor applied to *measured* host (CPU) times to stand in for the
/// paper's Intel Pentium Dual-Core E2140 @ 1.6 GHz.
///
/// Calibration: a 2006-era 1.6 GHz core without SIMD-tuned code sustains
/// roughly 0.4–0.8 GFLOPS on scalar f64 N-body inner loops; a single modern
/// x86 core runs the same scalar Rust loop ~8× faster. The factor only
/// rescales the CPU columns of Tables 1–2; every GPU-side number is
/// simulated independently of the machine running the harness.
pub const HOST_SLOWDOWN: f64 = 8.0;

/// Per-operation probability used when fault injection is enabled through
/// [`ExperimentConfig::fault_seed`] (`--faults <seed>`): high enough that a
/// quick suite sees many injected faults, low enough that the bounded retry
/// (8 attempts) never exhausts in practice.
pub const FAULT_PROBABILITY: f64 = 0.05;

/// Everything an experiment needs to be reproducible.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Problem sizes to sweep.
    pub sizes: Vec<usize>,
    /// Workload seed (workload is always a Plummer sphere; the paper's
    /// evaluation varies only N).
    pub seed: u64,
    /// Time steps for the running-time tables (the paper uses 100).
    pub steps: usize,
    /// Gravity model shared by CPU and GPU paths.
    pub gravity: GravityParams,
    /// Plan tunables.
    pub plan: PlanConfig,
    /// Host-time slowdown emulating the paper's CPU.
    pub host_slowdown: f64,
    /// When set, every device runs under an injected transient-fault plan
    /// seeded from this value ([`FAULT_PROBABILITY`] per operation). Retry
    /// recovery keeps all results bit-exact; only the simulated times grow.
    /// Absent in result files written before fault injection existed.
    pub fault_seed: Option<u64>,
    /// Host worker-thread count pinned via `--threads` (`None` defers to
    /// `NBODY_THREADS` and then the machine's available parallelism). Every
    /// result is bit-exact across thread counts, so the field is purely a
    /// wall-clock knob. Absent in result files written before host
    /// parallelism existed (missing deserializes as `None`).
    pub threads: Option<usize>,
    /// Execution backend pinned via `--backend` (`None` = auto = the
    /// simulated device). Non-sim backends have no simulated clocks, fault
    /// injection, or traces — see DESIGN.md §11. Absent in result files
    /// written before the backend seam existed.
    pub backend: Option<BackendKind>,
}

impl ExperimentConfig {
    /// The paper's full sweep.
    pub fn paper() -> Self {
        Self {
            sizes: vec![256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536],
            seed: 20110101,
            steps: 100,
            gravity: GravityParams { g: 1.0, softening: 0.05 },
            plan: PlanConfig::default(),
            host_slowdown: HOST_SLOWDOWN,
            fault_seed: None,
            threads: None,
            backend: None,
        }
    }

    /// A reduced sweep for tests and CI smoke runs.
    pub fn quick() -> Self {
        Self { sizes: vec![256, 1024, 8192], steps: 10, ..Self::paper() }
    }

    /// The workload at one size.
    pub fn workload(&self, n: usize) -> WorkloadSpec {
        WorkloadSpec::plummer(n, self.seed)
    }

    /// A fresh simulated device (with the configured fault plan installed,
    /// if any).
    pub fn device(&self) -> Device {
        let mut device =
            Device::with_transfer_model(DeviceSpec::radeon_hd_5850(), TransferModel::pcie2_x16());
        if let Some(seed) = self.fault_seed {
            device.set_fault_plan(FaultPlan::new(seed, FaultConfig::transient(FAULT_PROBABILITY)));
        }
        device
    }

    /// The resolved backend kind this experiment runs on (`None`/`auto` →
    /// sim).
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.unwrap_or_default().resolve()
    }

    /// A fresh backend for one evaluation stream. On the sim backend this
    /// wraps [`ExperimentConfig::device`], so the configured fault plan is
    /// installed; the host backend ignores `fault_seed` (it has no device to
    /// inject into — CLI parsing rejects the combination).
    pub fn make_backend(&self) -> Box<dyn Backend> {
        match self.backend_kind() {
            BackendKind::Sim => Box::new(SimBackend::new(self.device(), self.plan)),
            other => plans::prelude::make_backend(other, self.plan),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_paper_setup() {
        let cfg = ExperimentConfig::paper();
        assert_eq!(cfg.steps, 100);
        assert_eq!(*cfg.sizes.last().unwrap(), 65536);
        assert!(cfg.sizes.windows(2).all(|w| w[1] == 2 * w[0]));
        assert_eq!(cfg.plan.theta, 0.5);
        assert_eq!(cfg.device().spec().compute_units, 18);
    }

    #[test]
    fn quick_config_is_smaller() {
        let q = ExperimentConfig::quick();
        assert!(q.sizes.len() < ExperimentConfig::paper().sizes.len());
        assert!(q.steps < 100);
    }

    #[test]
    fn fault_seed_installs_a_plan_without_changing_results() {
        let mut cfg = ExperimentConfig::quick();
        assert!(cfg.device().fault_plan().is_none());
        cfg.fault_seed = Some(9);
        let device = cfg.device();
        let plan = device.fault_plan().expect("fault plan installed");
        assert_eq!(plan.seed(), 9);
        // old result files (no fault_seed field) still deserialize
        let legacy = serde_json::to_string(&ExperimentConfig::quick()).unwrap();
        let stripped =
            legacy.replace("\"fault_seed\":null,", "").replace(",\"fault_seed\":null", "");
        assert!(!stripped.contains("fault_seed"));
        let back: ExperimentConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.fault_seed, None);
    }

    #[test]
    fn backend_field_resolves_and_legacy_json_parses() {
        let mut cfg = ExperimentConfig::quick();
        assert_eq!(cfg.backend_kind(), BackendKind::Sim);
        assert!(cfg.make_backend().device().is_some());
        cfg.backend = Some(BackendKind::Host);
        assert_eq!(cfg.backend_kind(), BackendKind::Host);
        assert!(cfg.make_backend().device().is_none());
        // result files written before the backend field existed still load
        let json = serde_json::to_string(&ExperimentConfig::quick()).unwrap();
        let stripped = json.replace("\"backend\":null,", "").replace(",\"backend\":null", "");
        assert!(!stripped.contains("\"backend\""));
        let back: ExperimentConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.backend, None);
    }

    #[test]
    fn workload_spec_is_plummer() {
        let cfg = ExperimentConfig::quick();
        let w = cfg.workload(512);
        assert_eq!(w.n, 512);
        assert_eq!(w.generate().len(), 512);
    }
}
