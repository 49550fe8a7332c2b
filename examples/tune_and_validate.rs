//! Auto-tune a plan for a workload, then validate the winner: the
//! production workflow a downstream user runs when adopting the library on
//! a new problem size or a different (simulated) device.
//!
//! Run with: `cargo run --release --example tune_and_validate -- [N]`

use gpu_sim::prelude::DeviceSpec;
use nbody_core::prelude::*;
use plans::prelude::*;
use workloads::prelude::{plummer, PlummerParams};

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(4096);
    let params = GravityParams { g: 1.0, softening: 0.05 };
    let set = plummer(n, PlummerParams::default(), 99);
    let spec = DeviceSpec::radeon_hd_5850();

    println!("Tuning jw-parallel for N = {n} on {} ...\n", spec.name);
    // an exhaustive search: measure the jw-parallel slice of the joint grid
    let jw: Vec<Candidate> = full_grid(PlanConfig::default(), &spec)
        .into_iter()
        .filter(|c| c.kind == PlanKind::JwParallel)
        .collect();
    let measured = measure(&jw, &spec, &set, &params, TuneObjective::KernelTime);
    let best = measured
        .iter()
        .min_by(|a, b| a.seconds.partial_cmp(&b.seconds).unwrap())
        .expect("non-empty grid")
        .candidate
        .config;
    println!("{:>10} {:>12} {:>12} {:>14}", "walk size", "slice len", "variant", "kernel time");
    for point in &measured {
        let config = point.candidate.config;
        let variant = if config.device_tree {
            "device-tree".to_string()
        } else {
            config.shards.map(|s| format!("{s} shards")).unwrap_or_else(|| "in-core".to_string())
        };
        println!(
            "{:>10} {:>12} {:>12} {:>11.3} ms{}",
            config.walk_size,
            config.jw_slice_len.map(|l| l.to_string()).unwrap_or_else(|| "auto".to_string()),
            variant,
            point.seconds * 1e3,
            if config == best { "  <- best" } else { "" }
        );
    }

    println!("\nValidating the tuned configuration (race-checked, vs f64 reference):");
    let report = plans::validate::validate_plan(
        PlanKind::JwParallel,
        best,
        &spec,
        &set,
        &params,
        ErrorBudget::default(),
    );
    println!("  {}", report.summary());
    assert!(report.passed, "tuned configuration failed validation");

    println!("\nAnd the other plans at their defaults, for comparison:");
    for r in plans::validate::validate_all(PlanConfig::default(), &spec, &set, &params) {
        println!("  {}", r.summary());
    }
}
