//! Cross-backend differential conformance gate.
//!
//! ```text
//! cargo run -p harness --release --bin conformance -- [--quick] [--threads N]
//! ```
//!
//! Runs the `plans::conformance` matrix — workloads × N × all four plans ×
//! host thread counts {1, 2, 4} across the sim and host backends —
//! and prints the per-cell table plus the `CONFORMANCE OK/FAIL` verdict
//! line ci.sh greps for. Exits 1 on any contract violation. `--quick`
//! trims the matrix to one workload per shape class for the CI smoke run.

use plans::prelude::{run_matrix, ConformanceCase, PlanConfig, PlanKind, DEFAULT_THREADS};
use workloads::spec::{WorkloadKind, WorkloadSpec};

fn case(kind: WorkloadKind, n: usize, seed: u64) -> ConformanceCase {
    let spec = WorkloadSpec { kind, n, seed };
    let mut set = spec.generate();
    set.recenter();
    ConformanceCase::new(format!("{}-{n}", kind.id()), set)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    harness::apply_threads_flag(&args);
    let quick = args.iter().any(|a| a == "--quick");

    let cases = if quick {
        vec![case(WorkloadKind::Plummer, 256, 20110101), case(WorkloadKind::Disk, 192, 7)]
    } else {
        vec![
            case(WorkloadKind::Plummer, 256, 20110101),
            case(WorkloadKind::Plummer, 1024, 20110101),
            case(WorkloadKind::UniformCube, 512, 3),
            case(WorkloadKind::Disk, 384, 7),
            case(WorkloadKind::ClusterCollision, 512, 11),
        ]
    };

    let report = run_matrix(&cases, &PlanKind::all(), &DEFAULT_THREADS, PlanConfig::default());
    print!("{}", report.render());
    if !report.ok() {
        std::process::exit(1);
    }
}
