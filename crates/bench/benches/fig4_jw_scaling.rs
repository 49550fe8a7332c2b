//! Figure 4 bench: jw-parallel simulated kernel time across the N sweep.
//! Criterion reports the *simulated device seconds* per evaluation; dividing
//! the interaction count by the reported time reproduces the paper's GFLOPS
//! curve (`repro-all fig4` prints the curve directly).

use bench::{kernel_seconds, simulated, workload};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use plans::prelude::JwParallel;

fn fig4(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_jw_scaling");
    group.sample_size(10);
    // iter_custom returns *simulated* seconds; keep Criterion's budget small
    // so it does not schedule thousands of (wall-expensive) iterations, and
    // use flat sampling so low-iteration samples don't break the regression
    group.sampling_mode(criterion::SamplingMode::Flat);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(500));
    for n in [256_usize, 1024, 4096, 16384] {
        let set = workload(n);
        let plan = JwParallel::default();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter_custom(|iters| simulated(&plan, &set, iters, kernel_seconds));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = bench::deterministic_criterion();
    targets = fig4
}
criterion_main!(benches);
