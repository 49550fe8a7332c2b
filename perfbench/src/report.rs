//! Metric registry, correctness bookkeeping, run environment and output.
//!
//! Every metric the benchmark can print is declared once here with its unit
//! and clock. A run prints all end-to-end metrics (untraced) or all
//! per-layer metrics (traced); a metric whose layer the workload does not
//! exercise reads 0, any other missing metric is a bug and aborts the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The three benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Plummer N=16384, w-parallel on the host backend.
    HostTree,
    /// The same set, jw-parallel on the simulated HD 5850.
    SimJw,
    /// Closed-loop job rounds through a fresh spool.
    JobsMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::HostTree, Workload::SimJw, Workload::JobsMix];

    pub fn id(self) -> &'static str {
        match self {
            Workload::HostTree => "host-tree",
            Workload::SimJw => "sim-jw",
            Workload::JobsMix => "jobs-mix",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.id() == s)
    }
}

/// Which clock a number was read from. Numbers on different clocks are
/// never divided into one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Real host time (also used for host memory, which is measured, not
    /// modelled).
    Wall,
    /// The `gpu-sim` device model's clock.
    Simulated,
    /// The PTPM cost model's clock.
    Forecast,
    /// A deterministic count or ratio: repeats bit-exactly for a seed.
    Count,
}

impl Clock {
    pub fn id(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Simulated => "simulated",
            Clock::Forecast => "forecast",
            Clock::Count => "count",
        }
    }
}

/// One declared metric.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    /// Workloads whose run measures it; on the others it reads 0.
    pub on: &'static [Workload],
}

const ALL: &[Workload] = &Workload::ALL;
const TREES: &[Workload] = &[Workload::HostTree, Workload::SimJw];
const HOST: &[Workload] = &[Workload::HostTree];
const SIM: &[Workload] = &[Workload::SimJw];
const MIX: &[Workload] = &[Workload::JobsMix];

const fn def(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    on: &'static [Workload],
) -> MetricDef {
    MetricDef { name, unit, clock, on }
}

/// End-to-end metrics, printed by the untraced run of every workload.
/// Latency and throughput are in `ref` units: wall time divided by the
/// wall time of [`reference_kernel_s`] run just before the sample.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Clock::Wall, ALL),
    def("latency_ref_p50", "ref", Clock::Wall, ALL),
    def("throughput_per_ref", "1/ref", Clock::Wall, ALL),
    def("peak_rss_mb", "MB", Clock::Wall, ALL),
];

/// Per-layer metrics, printed by the traced run of every workload.
pub const PER_LAYER: &[MetricDef] = &[
    def("workloads.generate_s", "s", Clock::Wall, ALL),
    def("treecode.tree.build_s", "s", Clock::Wall, TREES),
    def("treecode.interaction_list.walks_s", "s", Clock::Wall, TREES),
    def("treecode.interaction_list.interactions", "count", Clock::Count, TREES),
    def("treecode.interaction_list.list_len_cv", "ratio", Clock::Count, TREES),
    def("plans.engine.overhead_s", "s", Clock::Wall, TREES),
    def("plans.backend.host.evaluate_s", "s", Clock::Wall, HOST),
    def("plans.backend.host.force_s", "s", Clock::Wall, HOST),
    def("plans.backend.host.interactions_per_s", "1/s", Clock::Wall, HOST),
    def("par.efficiency", "ratio", Clock::Wall, TREES),
    def("plans.backend.sim.evaluate_s", "s", Clock::Wall, SIM),
    def("plans.backend.sim.total_s", "s", Clock::Simulated, SIM),
    def("plans.w_parallel.pack_s", "s", Clock::Wall, SIM),
    def("gpu-sim.kernel_s", "s", Clock::Simulated, SIM),
    def("gpu-sim.transfer_s", "s", Clock::Simulated, SIM),
    def("gpu-sim.gflops", "GFLOP/s", Clock::Simulated, SIM),
    def("gpu-sim.launches", "count", Clock::Count, SIM),
    def("gpu-sim.peak_device_bytes", "bytes", Clock::Count, SIM),
    def("gpu-sim.wall_ns_per_interaction", "ns", Clock::Wall, SIM),
    def("ptpm.forecast_rel_err", "ratio", Clock::Forecast, SIM),
    def("nbody-core.integrator.overhead_s", "s", Clock::Wall, TREES),
    def("nbody-core.soa.pp_interactions_per_s", "1/s", Clock::Wall, MIX),
    def("jobs.spool.open_s", "s", Clock::Wall, MIX),
    def("jobs.spool.submit_s", "s", Clock::Wall, MIX),
    def("jobs.runner.run_s", "s", Clock::Wall, MIX),
    def("jobs.server.drain_s", "s", Clock::Wall, MIX),
    def("jobs.server.latency_s_p90", "s", Clock::Wall, MIX),
    def("jobs.cache.hit_ratio", "ratio", Clock::Count, MIX),
    def("jobs.cache.hit_latency_s_p50", "s", Clock::Wall, MIX),
    def("jobs.cache.lookup_s", "s", Clock::Wall, MIX),
    def("jobs.checkpoint.bytes_per_job", "bytes", Clock::Count, MIX),
    def("jobs.artifact.bytes_per_job", "bytes", Clock::Count, MIX),
    def("jobs.cache.entry_bytes", "bytes", Clock::Count, MIX),
    def("physics.force_rel_l2", "ratio", Clock::Count, TREES),
    def("physics.energy_drift_max", "ratio", Clock::Count, MIX),
    def("trace.overhead_s", "s", Clock::Wall, ALL),
    def("bench.reference_kernel_s", "s", Clock::Wall, ALL),
];

/// Measured values by metric name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Correctness bookkeeping: every checked operation (a step, a replayed
/// step, a job) counts once in `attempted`, and once in `failed` if any of
/// its checks failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Checks {
    /// Records one operation and the problems its checks found.
    pub fn operation(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                self.problems.push(format!("{what}: {p}"));
            }
        }
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub metrics: Metrics,
    pub checks: Checks,
    /// Human-readable lines printed above the result (workload-specific
    /// named metrics, self-time tables).
    pub lines: Vec<String>,
}

/// One named value for the human-readable report: name, value, unit, clock.
pub fn line(name: &str, value: f64, unit: &str, clock: Clock) -> String {
    format!("  {name:<40} {value:>16.6e} {unit:<8} [{}]", clock.id())
}

/// Fills the declared metric set for `workload` from `measured`. A metric
/// that applies to the workload but was not measured is a bug.
pub fn select(
    defs: &'static [MetricDef],
    workload: Workload,
    measured: &Metrics,
) -> Result<Vec<(&'static MetricDef, f64)>, String> {
    let mut out = Vec::with_capacity(defs.len());
    for d in defs {
        let value = if d.on.contains(&workload) {
            match measured.get(d.name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => return Err(format!("metric {} is not finite: {v}", d.name)),
                None => return Err(format!("metric {} was not measured", d.name)),
            }
        } else {
            0.0
        };
        out.push((d, value));
    }
    Ok(out)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(selected: &[(&MetricDef, f64)], checks: &Checks) -> String {
    let mut metrics = String::new();
    for (i, (d, v)) in selected.iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        // `{:?}` prints the shortest string that round-trips the f64
        write!(metrics, "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", d.name, v, d.unit)
            .expect("writing to a String cannot fail");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed
    )
}

// ---------------------------------------------------------------------------
// Statistics and environment
// ---------------------------------------------------------------------------

/// The `q`-quantile (0..=1) by linear interpolation between order
/// statistics. Returns NaN for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Runs the benchmark's fixed reference work and returns its wall time.
///
/// The host this benchmark runs on is shared, and its speed drifts by tens
/// of percent over minutes, which moves every wall time in a run alike.
/// Every measured step or round is divided by the time of this kernel, run
/// just before it on the same thread, so the drift cancels while a change
/// to the program, which cannot change this kernel, still shows in full.
/// The kernel mixes the two kinds of work the workloads do: f64 gravity
/// over an interaction list gathered from a 16384-body set (the tree and
/// simulated-device kernels; a gather tracks them far better than a small
/// dense sum that stays in L1) and formatting and parsing floats (the jobs
/// layer's JSON). It takes ~8–10 ms.
pub fn reference_kernel_s() -> f64 {
    const BODIES: usize = 16384;
    const TARGETS: usize = 512;
    const LIST: usize = 2048;
    const FLOATS: usize = 4000;
    const TEXTS: usize = 4;
    let t = std::time::Instant::now();
    let mut rng = SplitMix(std::hint::black_box(0x5eed));
    let mut unit = || (rng.next_u64() >> 11) as f64 / (1_u64 << 53) as f64;
    let pos: Vec<[f64; 3]> = (0..BODIES).map(|_| [unit(), unit(), unit()]).collect();
    let list: Vec<usize> = (0..LIST).map(|_| (rng.next_u64() % BODIES as u64) as usize).collect();
    let mut acc = [0.0_f64; 3];
    for target in 0..TARGETS {
        let p = pos[target * 31 % BODIES];
        for &j in &list {
            let q = pos[j];
            let d = [q[0] - p[0], q[1] - p[1], q[2] - p[2]];
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + 0.0025;
            let inv = 1.0 / (r2 * r2.sqrt());
            for k in 0..3 {
                acc[k] += d[k] * inv;
            }
        }
    }
    let mut parsed = 0usize;
    let mut text = String::new();
    for k in 0..TEXTS {
        text.clear();
        for i in 0..FLOATS {
            write!(text, "{:?},", (i + k) as f64 * 0.37).expect("writing to a String cannot fail");
        }
        parsed += text.split(',').filter_map(|v| v.parse::<f64>().ok()).count();
    }
    std::hint::black_box((acc, parsed));
    t.elapsed().as_secs_f64()
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The CPU model string, so results are compared within one machine class.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` without running git; "unknown"
/// when the tree is not a git checkout.
pub fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

/// SplitMix64: the benchmark's own seeded generator for sample indices and
/// job seeds.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!((quantile(&[0.0, 10.0], 0.9) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len);
    }
}
