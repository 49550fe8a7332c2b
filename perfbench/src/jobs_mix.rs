//! The `jobs-mix` workload: one closed-loop client. Each round opens a fresh
//! spool, submits three new jobs plus one resubmission of the round's first
//! job (a cache hit), and drains it with `ServerConfig::default()`.
//!
//! A job's latency runs from its `Spool::submit` call to the mtime of its
//! record in `done/`, so queue wait inside the drain counts. Every round is
//! checked: all four records reach `done/`, exactly the resubmission is
//! served from the cache, and the served result's checksum equals an
//! independent recomputation of the job.

use crate::report::{
    line, median, peak_rss_mb, quantile, reference_kernel_s, Checks, Clock, Metrics, Outcome,
    SplitMix,
};
use jobs::cache::JobResult;
use jobs::runner::{reference_set, run_job, RunOptions, RunStatus};
use jobs::server::{drain, JobOutcome, ServerConfig};
use jobs::spec::JobSpec;
use jobs::spool::{JobState, Spool};
use nbody_core::body::ParticleSet;
use nbody_core::energy::total_energy;
use nbody_core::gravity::GravityParams;
use plans::backend::{Backend, BackendKind, HostBackend};
use plans::common::{PlanConfig, PlanKind};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime};
use workloads::snapshot::Snapshot;
use workloads::spec::WorkloadSpec;

/// Energy drift allowed over a job: 8 leapfrog steps of dt=1e-3 on a
/// softened N=1024 Plummer set measure ~2e-8.
const ENERGY_TOL: f64 = 1e-4;
/// New jobs per round; the round adds one resubmission.
const NEW_PER_ROUND: usize = 3;

/// Sizes of one jobs-mix run.
#[derive(Debug, Clone, Copy)]
pub struct MixSize {
    pub n: usize,
    pub steps: usize,
    /// Minimum rounds, however short `--seconds` is. The physics and byte
    /// counts are read from the first `min_rounds` rounds only, so they
    /// repeat exactly for a seed.
    pub min_rounds: usize,
    /// Set-ups timed in an untraced run (the median is reported).
    pub setups: usize,
}

impl MixSize {
    pub const FULL: MixSize = MixSize { n: 1024, steps: 8, min_rounds: 4, setups: 101 };
    pub const TINY: MixSize = MixSize { n: 256, steps: 2, min_rounds: 2, setups: 2 };
}

/// The job every spec in the mix shares, for one body-set seed.
fn job(size: MixSize, seed: u64) -> JobSpec {
    let mut spec =
        JobSpec::new(WorkloadSpec::plummer(size.n, seed), PlanKind::IParallel, size.steps);
    spec.checkpoint_every = 2;
    spec.backend = Some(BackendKind::Host);
    spec
}

/// The gravity model the jobs runner integrates with.
fn gravity() -> GravityParams {
    GravityParams { g: 1.0, softening: 0.05 }
}

/// The initial set of a job, recentered as the runner does.
fn initial_set(spec: &JobSpec) -> ParticleSet {
    let mut set = spec.workload.generate();
    set.recenter();
    set
}

fn final_checksum(spec: &JobSpec, set: ParticleSet) -> u64 {
    Snapshot::new(spec.label(), spec.steps as f64 * spec.dt, set)
        .checksum
        .expect("fresh snapshots carry a checksum")
}

/// Removes the benchmark's scratch spools when dropped, also on failure.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(root: &Path) -> std::io::Result<Self> {
        let dir = root.join(format!("run-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        if let Some(parent) = self.0.parent() {
            // succeeds only once no other run is using the root
            std::fs::remove_dir(parent).ok();
        }
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Bytes a job left in its work directory: (checkpoints, artifacts).
fn job_dir_bytes(dir: &Path) -> (u64, u64) {
    let (mut ckpt, mut artifact) = (0, 0);
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let len = entry.metadata().map_or(0, |m| m.len());
        if name.starts_with("ckpt-") {
            ckpt += len;
        } else {
            artifact += len;
        }
    }
    (ckpt, artifact)
}

/// One round's measurements.
struct Round {
    /// Wall time of the reference kernel run just before the round.
    reference_s: f64,
    wall_s: f64,
    open_s: f64,
    submit_s: Vec<f64>,
    drain_s: f64,
    computed_latency_s: Vec<f64>,
    hit_latency_s: Vec<f64>,
}

#[derive(Default)]
struct LayerSamples {
    open_s: Vec<f64>,
    submit_s: Vec<f64>,
    drain_s: Vec<f64>,
    run_s: Vec<f64>,
    lookup_s: Vec<f64>,
    pp_rate: Vec<f64>,
    checkpoint_bytes: Vec<f64>,
    artifact_bytes: Vec<f64>,
    entry_bytes: Vec<f64>,
    hits: usize,
    completed: usize,
}

/// Runs one jobs-mix workload under `work_root`.
pub fn run(
    size: MixSize,
    seed: u64,
    seconds: f64,
    traced: bool,
    negative_control: bool,
    work_root: &Path,
) -> Result<Outcome, String> {
    let work =
        WorkDir::new(work_root).map_err(|e| format!("creating {}: {e}", work_root.display()))?;
    let config = ServerConfig::default();
    let mut checks = Checks::default();
    let mut metrics = Metrics::new();
    let mut lines = Vec::new();
    let mut rng = SplitMix(seed);
    let next_specs = |rng: &mut SplitMix| -> Vec<JobSpec> {
        (0..NEW_PER_ROUND).map(|_| job(size, rng.next_u64() >> 16)).collect()
    };

    // ---- set-up: Spool::open + generating the first rounds' inputs ------
    // (generation dominates, so the filesystem's jitter on the directory
    // creations in `Spool::open` does not)
    let setups = if traced { 1 } else { size.setups.max(1) };
    let mut setup_s = Vec::with_capacity(setups);
    let mut generate_s = 0.0;
    let mut planned: VecDeque<Vec<JobSpec>> =
        (0..size.min_rounds).map(|_| next_specs(&mut rng)).collect();
    for i in 0..setups {
        let dir = work.0.join(format!("setup-{i}"));
        let t = Instant::now();
        Spool::open(&dir).map_err(|e| e.to_string())?;
        let g = Instant::now();
        let sets: Vec<ParticleSet> = planned.iter().flatten().map(initial_set).collect();
        generate_s = g.elapsed().as_secs_f64();
        setup_s.push(t.elapsed().as_secs_f64());
        std::hint::black_box(sets);
        std::fs::remove_dir_all(&dir).ok();
    }

    // ---- measured loop --------------------------------------------------
    let mut rounds: Vec<Round> = Vec::new();
    let mut untraced_round_s = Vec::new();
    let mut layer = LayerSamples::default();
    let mut drift = Vec::new();
    let mut busy = 0.0;
    let mut rss_mb = f64::NAN;
    let mut specs = planned.pop_front().expect("at least one planned round");
    let mut index = 0;
    while rounds.len() + untraced_round_s.len() < size.min_rounds || busy < seconds {
        // traced runs alternate probed and plain rounds: the round-time
        // difference is the probes' cost
        let probed = traced && index % 2 == 0;
        let dir = work.0.join(format!("round-{index}"));
        let mut submissions = specs.clone();
        submissions.push(specs[0].clone());
        if negative_control && index == 0 {
            plant_wrong_result(&dir, &specs[0])?;
        }

        let reference_s = reference_kernel_s();
        // timed: open, submit, drain
        let start = Instant::now();
        let (spool, recovery) = Spool::open(&dir).map_err(|e| e.to_string())?;
        let open_s = start.elapsed().as_secs_f64();
        let mut submitted = Vec::new();
        let mut submit_s = Vec::new();
        for spec in &submissions {
            let at = SystemTime::now();
            let t = Instant::now();
            let record = spool.submit(spec).map_err(|e| e.to_string())?;
            submit_s.push(t.elapsed().as_secs_f64());
            submitted.push((record, at));
        }
        let t = Instant::now();
        let summary = drain(&spool, recovery, &config).map_err(|e| e.to_string())?;
        let drain_s = t.elapsed().as_secs_f64();
        let wall_s = start.elapsed().as_secs_f64();
        busy += wall_s;

        // checks and latencies, untimed
        let cache = spool.cache();
        let mut round = Round {
            reference_s,
            wall_s,
            open_s,
            submit_s,
            drain_s,
            computed_latency_s: Vec::new(),
            hit_latency_s: Vec::new(),
        };
        for (k, (record, at)) in submitted.iter().enumerate() {
            let expect_hit = k == NEW_PER_ROUND;
            let mut problems = Vec::new();
            let done = spool.dir(JobState::Done).join(record.file_name());
            let latency = std::fs::metadata(&done)
                .and_then(|m| m.modified())
                .ok()
                .and_then(|mtime| mtime.duration_since(*at).ok())
                .map(|d| d.as_secs_f64());
            match latency {
                Some(l) if expect_hit => round.hit_latency_s.push(l),
                Some(l) => round.computed_latency_s.push(l),
                None => problems.push(format!("{} did not reach done/", record.id)),
            }
            let outcome = summary.reports.iter().find(|r| r.id == record.id).map(|r| &r.outcome);
            let want = if expect_hit { JobOutcome::CacheHit } else { JobOutcome::Computed };
            if outcome != Some(&want) {
                problems.push(format!("{} ended {outcome:?}, expected {want:?}", record.id));
            }
            let entry = cache.dir().join(format!("{}.json", record.hash_hex));
            if expect_hit {
                // the drain's own lookup validated the entry it served; its
                // checksum must match an independent recomputation
                let reference = final_checksum(&record.spec, reference_set(&record.spec));
                match stored_checksum(&entry) {
                    Some(served) if served == reference => {}
                    Some(served) => problems.push(format!(
                        "cache hit served checksum {served:#018x}, its computed twin {reference:#018x}"
                    )),
                    None => problems.push(format!("no cache entry for {}", record.hash_hex)),
                }
            } else if index < size.min_rounds {
                match cache.lookup(&record.hash_hex).map_err(|e| e.to_string())? {
                    None => problems.push(format!("no valid cache entry for {}", record.hash_hex)),
                    Some(result) => {
                        let e0 = total_energy(&initial_set(&record.spec), &gravity());
                        let e1 = total_energy(&result.final_snapshot.set, &gravity());
                        let d = ((e1 - e0) / e0).abs();
                        if d.is_nan() || d >= ENERGY_TOL {
                            problems.push(format!("energy drift {d:.3e} exceeds {ENERGY_TOL:.0e}"));
                        }
                        drift.push(d);
                    }
                }
            } else if !entry.is_file() {
                problems.push(format!("no cache entry for {}", record.hash_hex));
            }
            checks.operation(&format!("round {index} job {k}"), problems);
        }

        if probed {
            layer.open_s.push(round.open_s);
            layer.submit_s.extend(&round.submit_s);
            layer.drain_s.push(round.drain_s);
            layer.completed += summary.completed();
            layer.hits +=
                summary.reports.iter().filter(|r| r.outcome == JobOutcome::CacheHit).count();
            trace_round(
                &spool,
                &specs,
                index < size.min_rounds,
                &mut layer,
                &mut checks,
                &work.0,
                index,
            )?;
        }
        if index == 0 {
            // read after a fixed amount of work, so the figure does not
            // depend on how many rounds fit in the measured time
            rss_mb = peak_rss_mb();
        }
        if probed || !traced {
            rounds.push(round);
        } else {
            untraced_round_s.push(round.wall_s);
        }
        std::fs::remove_dir_all(&dir).ok();
        specs = planned.pop_front().unwrap_or_else(|| next_specs(&mut rng));
        index += 1;
    }

    // ---- metrics --------------------------------------------------------
    let computed: Vec<f64> = rounds.iter().flat_map(|r| r.computed_latency_s.clone()).collect();
    let hits: Vec<f64> = rounds.iter().flat_map(|r| r.hit_latency_s.clone()).collect();
    let jobs_done =
        rounds.iter().map(|r| r.computed_latency_s.len() + r.hit_latency_s.len()).sum::<usize>();
    let jobs_per_s = jobs_done as f64 / rounds.iter().map(|r| r.wall_s).sum::<f64>();
    let computed_ref: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.computed_latency_s.iter().map(|l| l / r.reference_s))
        .collect();
    let jobs_per_ref =
        jobs_done as f64 / rounds.iter().map(|r| r.wall_s / r.reference_s).sum::<f64>();
    let reference_s = median(&rounds.iter().map(|r| r.reference_s).collect::<Vec<_>>());
    let drift_max = drift.iter().copied().fold(f64::NAN, f64::max);
    if traced {
        metrics.insert("workloads.generate_s", generate_s);
        metrics.insert("physics.energy_drift_max", drift_max);
        metrics.insert("bench.reference_kernel_s", reference_s);
        metrics.insert("jobs.spool.open_s", median(&layer.open_s));
        metrics.insert("jobs.spool.submit_s", median(&layer.submit_s));
        metrics.insert("jobs.runner.run_s", median(&layer.run_s));
        metrics.insert("jobs.server.drain_s", median(&layer.drain_s));
        metrics.insert("jobs.server.latency_s_p90", quantile(&computed, 0.9));
        metrics.insert("jobs.cache.hit_ratio", layer.hits as f64 / layer.completed as f64);
        metrics.insert("jobs.cache.hit_latency_s_p50", median(&hits));
        metrics.insert("jobs.cache.lookup_s", median(&layer.lookup_s));
        metrics.insert("jobs.checkpoint.bytes_per_job", mean(&layer.checkpoint_bytes));
        metrics.insert("jobs.artifact.bytes_per_job", mean(&layer.artifact_bytes));
        metrics.insert("jobs.cache.entry_bytes", mean(&layer.entry_bytes));
        metrics.insert("nbody-core.soa.pp_interactions_per_s", median(&layer.pp_rate));
        let traced_round = median(&rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        metrics.insert("trace.overhead_s", traced_round - median(&untraced_round_s));
        lines.push(format!("  layer times (median of {} traced rounds):", rounds.len()));
        for name in [
            "jobs.spool.open_s",
            "jobs.spool.submit_s",
            "jobs.server.drain_s",
            "jobs.runner.run_s",
            "jobs.cache.lookup_s",
        ] {
            lines.push(line(name, metrics[name], "s", Clock::Wall));
        }
        lines.push(line(
            "queue+dispatch share of p50 latency",
            median(&computed) - metrics["jobs.runner.run_s"],
            "s",
            Clock::Wall,
        ));
        lines.push(line("traced round", traced_round, "s", Clock::Wall));
        lines.push(line("trace.overhead_s", metrics["trace.overhead_s"], "s", Clock::Wall));
    } else {
        metrics.insert("setup_s", median(&setup_s));
        metrics.insert("latency_ref_p50", median(&computed_ref));
        metrics.insert("throughput_per_ref", jobs_per_ref);
        metrics.insert("peak_rss_mb", rss_mb);
        lines.push(format!(
            "  workload metrics ({} rounds, {} computed jobs, {} cache hits, {} set-ups):",
            rounds.len(),
            computed.len(),
            hits.len(),
            setup_s.len()
        ));
        lines.push(line("setup_s", metrics["setup_s"], "s", Clock::Wall));
        lines.push(line("job_latency_s_p50", median(&computed), "s", Clock::Wall));
        lines.push(line("job_latency_s_p90", quantile(&computed, 0.9), "s", Clock::Wall));
        lines.push(line("cache_hit_latency_s_p50", median(&hits), "s", Clock::Wall));
        lines.push(line("jobs_per_s", jobs_per_s, "1/s", Clock::Wall));
        lines.push(line("reference_kernel_s_p50", reference_s, "s", Clock::Wall));
        lines.push(line("energy_drift_max", drift_max, "ratio", Clock::Count));
        lines.push(line("error_rate", checks.error_rate(), "ratio", Clock::Count));
        lines.push(line("peak_rss_mb", metrics["peak_rss_mb"], "MB", Clock::Wall));
    }
    Ok(Outcome { metrics, checks, lines })
}

/// The `result_checksum` field of a stored cache entry, read without
/// parsing the ~240 KB snapshot around it (a full lookup costs ~0.1 s).
fn stored_checksum(entry: &Path) -> Option<u64> {
    let text = std::fs::read_to_string(entry).ok()?;
    let key = "\"result_checksum\":";
    let rest = text[text.find(key)? + key.len()..].trim_start();
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The traced round's extra, standalone layer calls.
fn trace_round(
    spool: &Spool,
    specs: &[JobSpec],
    count_bytes: bool,
    layer: &mut LayerSamples,
    checks: &mut Checks,
    work: &Path,
    index: usize,
) -> Result<(), String> {
    let cache = spool.cache();
    for spec in specs {
        let hash = spec.hash_hex();
        let t = Instant::now();
        let found = cache.lookup(&hash).map_err(|e| e.to_string())?;
        layer.lookup_s.push(t.elapsed().as_secs_f64());
        if found.is_none() {
            checks.operation("cache lookup", vec![format!("{hash} missing")]);
        }
        if count_bytes {
            let (ckpt, artifact) = job_dir_bytes(&spool.job_dir(&hash));
            layer.checkpoint_bytes.push(ckpt as f64);
            layer.artifact_bytes.push(artifact as f64);
            layer.entry_bytes.push(file_len(&cache.dir().join(format!("{hash}.json"))) as f64);
        }
    }

    // the runner alone, on a fresh directory: the job latency minus this is
    // the dispatch and queue share
    let spec = &specs[0];
    let dir = work.join(format!("runner-{index}"));
    let t = Instant::now();
    let status = run_job(spec, &dir, &RunOptions::default()).map_err(|e| e.to_string())?;
    layer.run_s.push(t.elapsed().as_secs_f64());
    std::fs::remove_dir_all(&dir).ok();
    let mut problems = Vec::new();
    match status {
        RunStatus::Complete(result) => {
            let served = cache.lookup(&result.hash_hex).map_err(|e| e.to_string())?;
            if served.map(|r| r.result_checksum) != Some(result.result_checksum) {
                problems.push("a fresh run_job differs from the drained result".to_string());
            }
        }
        other => problems.push(format!("run_job ended {other:?}")),
    }
    checks.operation("standalone run_job", problems);

    // the host i-parallel force evaluation the jobs run, on one mix input
    let set = initial_set(spec);
    let mut backend = HostBackend::new(PlanConfig::default());
    let t = Instant::now();
    let outcome = backend.evaluate(PlanKind::IParallel, &set, &gravity());
    let s = t.elapsed().as_secs_f64();
    layer.pp_rate.push(outcome.interactions as f64 / s);
    Ok(())
}

/// Negative control: plants a self-consistent but wrong cache entry for
/// `spec` (one body moved, checksum recomputed) before the round runs, the
/// way a faulty store would. Lookup accepts it, so the round must catch it.
fn plant_wrong_result(dir: &Path, spec: &JobSpec) -> Result<(), String> {
    let mut set = reference_set(spec);
    let mut pos = set.pos()[0];
    pos.x += 1e-3;
    set.pos_mut()[0] = pos;
    let snapshot = Snapshot::new(spec.label(), spec.steps as f64 * spec.dt, set);
    let result = JobResult {
        hash_hex: spec.hash_hex(),
        spec: spec.clone(),
        result_checksum: snapshot.checksum.expect("fresh snapshots carry a checksum"),
        final_snapshot: snapshot,
        steps: spec.steps,
        simulated_total_s: 0.0,
        simulated_kernel_s: 0.0,
        recovery_s: 0.0,
        fault_total: 0,
        resumed_from: 0,
        retries: 0,
    };
    let (spool, _) = Spool::open(dir).map_err(|e| e.to_string())?;
    spool.cache().store(&result).map_err(|e| e.to_string())
}
