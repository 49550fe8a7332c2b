//! The `host-tree` and `sim-jw` workloads: leapfrog KDK steps over one
//! Plummer set, driven through `PlanForceEngine` on the host backend
//! (w-parallel) or the simulated device (jw-parallel).
//!
//! Untraced runs time whole `LeapfrogKdk::step` calls. Traced runs wrap the
//! engine and the backend in timing probes, alternate traced and untraced
//! steps (their difference is the tracing overhead), and after every
//! traced step repeat the treecode calls the backend made — `Octree::build`,
//! `build_walks` and, on the sim path, `pack_walks` — on the unchanged
//! positions, so each layer's self time can be derived.

use crate::report::{
    line, median, peak_rss_mb, reference_kernel_s, Checks, Clock, Metrics, Outcome, SplitMix,
};
use nbody_core::body::ParticleSet;
use nbody_core::gravity::{pair_acceleration, GravityParams};
use nbody_core::integrator::{prime, ForceEngine, Integrator, LeapfrogKdk};
use nbody_core::vec3::Vec3;
use plans::backend::{default_device, Backend, BackendKind, HostBackend, SimBackend};
use plans::common::{PlanConfig, PlanKind, PlanOutcome};
use plans::engine::PlanForceEngine;
use plans::jw_parallel::auto_slice_len;
use plans::w_parallel::pack_walks;
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;
use treecode::interaction_list::build_walks;
use treecode::mac::OpeningAngle;
use treecode::tree::{Octree, TreeParams};
use workloads::spec::WorkloadSpec;

/// Leapfrog step size.
const DT: f64 = 1e-3;
/// Flops charged per interaction (the GRAPE convention the paper uses).
const FLOPS_PER_INTERACTION: f64 = 38.0;
/// Relative L2 force error allowed against the f64 direct sum. The θ=0.5
/// monopole walk measures ~4e-4 on the N=65536 Plummer set and f32 device
/// arithmetic adds ~1e-7, so 5e-3 flags a wrong kernel, not the MAC.
const FORCE_TOL: f64 = 5e-3;
/// Acceleration scale the negative control applies (a wrong-G kernel).
const NEGATIVE_CONTROL_SCALE: f64 = 1.1;
/// Derived self times must sum to the traced step within this share.
const SELF_TIME_TOL: f64 = 0.05;

/// Sizes of one tree workload run.
#[derive(Debug, Clone, Copy)]
pub struct TreeSize {
    pub n: usize,
    /// Minimum measured steps, however short `--seconds` is.
    pub min_steps: usize,
    /// Set-ups timed in an untraced run (the median is reported).
    pub setups: usize,
    /// Targets sampled for the direct-sum force check.
    pub sample: usize,
    /// The force check runs on every `check_every`-th step and on the
    /// final state; every step is checked for finite values.
    pub check_every: usize,
}

impl TreeSize {
    pub const FULL: TreeSize =
        TreeSize { n: 16384, min_steps: 2, setups: 5, sample: 1024, check_every: 4 };
    pub const TINY: TreeSize =
        TreeSize { n: 256, min_steps: 2, setups: 2, sample: 64, check_every: 1 };
}

/// Which backend the workload evaluates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    Host,
    Sim,
}

impl Tier {
    fn plan(self) -> PlanKind {
        match self {
            Tier::Host => PlanKind::WParallel,
            Tier::Sim => PlanKind::JwParallel,
        }
    }
}

fn gravity() -> GravityParams {
    GravityParams { g: 1.0, softening: 0.05 }
}

/// Wall time of the most recent probed calls.
#[derive(Default)]
struct Probe {
    evaluate_s: Cell<f64>,
    engine_s: Cell<f64>,
}

/// A backend wrapper that times `Backend::evaluate` from outside and, for
/// the negative control, returns scaled accelerations.
struct ProbedBackend {
    inner: Box<dyn Backend>,
    probe: Rc<Probe>,
    perturb: bool,
}

impl Backend for ProbedBackend {
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }

    fn evaluate(
        &mut self,
        plan: PlanKind,
        set: &ParticleSet,
        params: &GravityParams,
    ) -> PlanOutcome {
        let t = Instant::now();
        let mut outcome = self.inner.evaluate(plan, set, params);
        self.probe.evaluate_s.set(t.elapsed().as_secs_f64());
        if self.perturb {
            for a in &mut outcome.acc {
                *a *= NEGATIVE_CONTROL_SCALE;
            }
        }
        outcome
    }

    fn device(&self) -> Option<&gpu_sim::device::Device> {
        self.inner.device()
    }

    fn device_mut(&mut self) -> Option<&mut gpu_sim::device::Device> {
        self.inner.device_mut()
    }
}

/// Times the engine call the integrator makes.
struct ProbedEngine<'a> {
    inner: &'a mut PlanForceEngine,
    probe: &'a Probe,
}

impl ForceEngine for ProbedEngine<'_> {
    fn accelerations(&mut self, set: &ParticleSet, acc: &mut [Vec3]) {
        let t = Instant::now();
        self.inner.accelerations(set, acc);
        self.probe.engine_s.set(t.elapsed().as_secs_f64());
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Builds the workload's engine; probed (and possibly perturbed) engines
/// share `probe`.
fn engine(tier: Tier, probe: Option<&Rc<Probe>>, perturb: bool) -> PlanForceEngine {
    let config = PlanConfig::default();
    let mut backend: Box<dyn Backend> = match tier {
        Tier::Host => Box::new(HostBackend::new(config)),
        Tier::Sim => Box::new(SimBackend::new(default_device(), config)),
    };
    if probe.is_some() || perturb {
        let probe = probe.cloned().unwrap_or_default();
        backend = Box::new(ProbedBackend { inner: backend, probe, perturb });
    }
    PlanForceEngine::with_backend(backend, tier.plan(), gravity())
}

/// The counts and simulated clocks of one evaluation that must repeat
/// bit-exactly. `peak_device_bytes` is left out: the simulated device never
/// frees buffers, so it grows with every evaluation a device has run and
/// differs between engines with different histories.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    interactions: u64,
    launches: usize,
    /// `f64::to_bits` of total, kernel and transfer simulated seconds.
    clocks: [u64; 3],
}

impl Fingerprint {
    fn of(o: &PlanOutcome) -> Self {
        Fingerprint {
            interactions: o.interactions,
            launches: o.launches,
            clocks: [o.total_seconds().to_bits(), o.kernel_s.to_bits(), o.transfer_s.to_bits()],
        }
    }
}

/// Relative L2 error of `set`'s accelerations against an f64 direct sum
/// over the sampled targets.
fn force_rel_l2(set: &ParticleSet, targets: &[usize]) -> f64 {
    let params = gravity();
    let eps_sq = params.eps_sq();
    let pos = set.pos();
    let mass = set.mass();
    let acc = set.acc();
    let parts = par::map_chunks(targets.len(), |range| {
        let (mut err, mut norm) = (0.0_f64, 0.0_f64);
        for &i in &targets[range] {
            let mut a = Vec3::ZERO;
            for j in 0..pos.len() {
                if j != i {
                    a += pair_acceleration(pos[i], pos[j], mass[j], eps_sq);
                }
            }
            let reference = a * params.g;
            err += (acc[i] - reference).norm_sq();
            norm += reference.norm_sq();
        }
        (err, norm)
    });
    let (err, norm) = parts.into_iter().fold((0.0, 0.0), |(e, n), (pe, pn)| (e + pe, n + pn));
    (err / norm).sqrt()
}

/// Distinct target indices for the force check, seeded by the run seed.
fn sample_targets(n: usize, count: usize, seed: u64) -> Vec<usize> {
    let count = count.min(n);
    let mut rng = SplitMix(seed ^ 0x5eed_f0ce);
    let mut picked = vec![false; n];
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let i = (rng.next_u64() % n as u64) as usize;
        if !picked[i] {
            picked[i] = true;
            out.push(i);
        }
    }
    out.sort_unstable();
    out
}

fn bits_equal(a: &ParticleSet, b: &ParticleSet) -> bool {
    let same = |x: &[Vec3], y: &[Vec3]| {
        x.len() == y.len()
            && x.iter().zip(y).all(|(p, q)| {
                p.x.to_bits() == q.x.to_bits()
                    && p.y.to_bits() == q.y.to_bits()
                    && p.z.to_bits() == q.z.to_bits()
            })
    };
    same(a.pos(), b.pos()) && same(a.vel(), b.vel()) && same(a.acc(), b.acc())
}

/// Checks that the state is finite.
fn check_finite(set: &ParticleSet) -> Vec<String> {
    if set.all_finite() {
        Vec::new()
    } else {
        vec!["non-finite positions, velocities or accelerations".into()]
    }
}

/// Checks one step's outputs; returns its force error and the problems.
fn check_step(set: &ParticleSet, targets: &[usize]) -> (f64, Vec<String>) {
    let mut problems = check_finite(set);
    let err = force_rel_l2(set, targets);
    if err.is_nan() || err >= FORCE_TOL {
        problems.push(format!("force relative L2 error {err:.3e} exceeds {FORCE_TOL:.1e}"));
    }
    (err, problems)
}

/// Per traced step: the probed wall times and the standalone treecode calls.
#[derive(Debug, Clone, Copy)]
struct TracedStep {
    step_s: f64,
    engine_s: f64,
    evaluate_s: f64,
    build_s: f64,
    walks_s: f64,
    pack_s: f64,
    interactions: u64,
}

impl TracedStep {
    /// The layer self times, in order: integrator, engine, tree build,
    /// walks, packing, and the backend's remaining force work.
    fn self_times(&self) -> [(&'static str, f64); 6] {
        [
            ("nbody-core.integrator", self.step_s - self.engine_s),
            ("plans.engine", self.engine_s - self.evaluate_s),
            ("treecode.tree.build", self.build_s),
            ("treecode.interaction_list.walks", self.walks_s),
            ("plans.w_parallel.pack", self.pack_s),
            ("backend.force", self.evaluate_s - self.build_s - self.walks_s - self.pack_s),
        ]
    }
}

/// Runs one tree workload. `seconds` bounds the summed step time of the
/// measured loop (at least `size.min_steps` steps).
pub fn run(
    tier: Tier,
    size: TreeSize,
    seed: u64,
    seconds: f64,
    traced: bool,
    negative_control: bool,
) -> Outcome {
    let threads = par::threads();
    // the thread-invariance replay needs a second thread count even on one core
    let replay_threads = par::available_parallelism().max(2);
    let spec = WorkloadSpec::plummer(size.n, seed);
    let probe = Rc::new(Probe::default());
    let mut checks = Checks::default();
    let mut metrics = Metrics::new();
    let mut lines = Vec::new();

    // ---- set-up: generate, build the engine, prime -------------------
    let setups = if traced { 1 } else { size.setups.max(1) };
    let mut setup_s = Vec::with_capacity(setups);
    let mut generate_s = 0.0;
    let mut state = None;
    for _ in 0..setups {
        let t = Instant::now();
        let mut set = spec.generate();
        set.recenter();
        generate_s = t.elapsed().as_secs_f64();
        let mut eng = engine(tier, traced.then_some(&probe), negative_control);
        prime(&mut set, &mut eng);
        setup_s.push(t.elapsed().as_secs_f64());
        state = Some((set, eng));
    }
    let (mut set, mut main_engine) = state.expect("at least one set-up");
    // traced runs alternate with a plain engine: the step-time difference is
    // the probes' cost
    let mut plain_engine = traced.then(|| engine(tier, None, negative_control));
    let targets = sample_targets(set.len(), size.sample, seed);

    // ---- measured loop ------------------------------------------------
    let before_first = set.clone();
    let mut after_first: Option<(ParticleSet, Fingerprint)> = None;
    let mut first_outcome: Option<PlanOutcome> = None;
    let mut first_err = f64::NAN;
    let mut rss_mb = f64::NAN;
    let mut step_s = Vec::new();
    // each `step_s` sample divided by the reference kernel run before it
    let mut step_ref = Vec::new();
    let mut reference_s = Vec::new();
    let mut untraced_step_s = Vec::new();
    let mut traced_steps: Vec<TracedStep> = Vec::new();
    let mut busy = 0.0;
    let mut index = 0;
    while step_s.len() + untraced_step_s.len() < size.min_steps || busy < seconds {
        let trace_this = traced && index % 2 == 0;
        if tier == Tier::Sim {
            // the simulated device never frees its buffers (~10 MB per
            // evaluation at N=16384): a fresh engine per step, built
            // outside the timed step, keeps the process small
            main_engine = engine(tier, traced.then_some(&probe), negative_control);
            if let Some(plain) = plain_engine.as_mut() {
                *plain = engine(tier, None, negative_control);
            }
        }
        let reference = reference_kernel_s();
        reference_s.push(reference);
        let t = Instant::now();
        if trace_this {
            let mut probed = ProbedEngine { inner: &mut main_engine, probe: &probe };
            LeapfrogKdk.step(&mut set, &mut probed, DT);
        } else {
            let eng = plain_engine.as_mut().unwrap_or(&mut main_engine);
            LeapfrogKdk.step(&mut set, eng, DT);
        }
        let s = t.elapsed().as_secs_f64();
        busy += s;
        let used = match &plain_engine {
            Some(plain) if !trace_this => plain,
            _ => &main_engine,
        };
        let outcome = used.last_outcome().expect("a step evaluates forces").clone();
        if trace_this || !traced {
            step_s.push(s);
            step_ref.push(s / reference);
        } else {
            untraced_step_s.push(s);
        }

        if trace_this {
            // the final kick changed only velocities: these calls see the
            // positions the backend just evaluated
            let config = PlanConfig::default();
            let t = Instant::now();
            let tree = Octree::build(&set, TreeParams { leaf_capacity: config.leaf_capacity });
            let build_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let walks = build_walks(&tree, &set, OpeningAngle::new(config.theta), config.walk_size);
            let walks_s = t.elapsed().as_secs_f64();
            // what the backend reports: the host skips self-pairs, the
            // device kernels count every packed pair
            let mut interactions = walks.total_interactions();
            let mut pack_s = 0.0;
            if tier == Tier::Sim {
                let t = Instant::now();
                let packed =
                    std::hint::black_box(pack_walks(&walks, &tree, &set, config.walk_size));
                pack_s = t.elapsed().as_secs_f64();
                interactions = packed.interactions;
                if traced_steps.is_empty() {
                    let lens: Vec<usize> = walks.groups.iter().map(|g| g.list_len()).collect();
                    let spec = default_device().spec().clone();
                    let slice = config.jw_slice_len.unwrap_or_else(|| {
                        auto_slice_len(packed.list_data.len() / 4, config.walk_size, &spec)
                    });
                    let forecast =
                        ptpm::model::forecast_jw_parallel(&lens, config.walk_size, slice, &spec);
                    let device = main_engine.device().expect("the sim backend has a device");
                    let simulated = device
                        .launches()
                        .iter()
                        .find(|l| l.kernel == "jw-parallel/partial")
                        .map_or(f64::NAN, |l| l.timing.seconds);
                    metrics.insert(
                        "ptpm.forecast_rel_err",
                        (forecast.seconds - simulated).abs() / simulated,
                    );
                }
            }
            if traced_steps.is_empty() {
                metrics.insert("treecode.interaction_list.list_len_cv", walks.list_len_cv());
            }
            let mut problems = Vec::new();
            if interactions != outcome.interactions {
                problems.push(format!(
                    "standalone walks count {interactions} interactions, the backend {}",
                    outcome.interactions
                ));
            }
            checks.operation("standalone treecode calls", problems);
            traced_steps.push(TracedStep {
                step_s: s,
                engine_s: probe.engine_s.get(),
                evaluate_s: probe.evaluate_s.get(),
                build_s,
                walks_s,
                pack_s,
                interactions,
            });
        }

        let (err, problems) = if index % size.check_every == 0 {
            check_step(&set, &targets)
        } else {
            (f64::NAN, check_finite(&set))
        };
        checks.operation(&format!("step {index}"), problems);
        if index == 0 {
            // read after a fixed amount of work, so the figure does not
            // depend on how many steps fit in the measured time
            rss_mb = peak_rss_mb();
            first_err = err;
            after_first = Some((set.clone(), Fingerprint::of(&outcome)));
            first_outcome = Some(outcome);
        }
        index += 1;
    }
    let first_outcome = first_outcome.expect("at least one step");
    if (index - 1) % size.check_every != 0 {
        let (_, problems) = check_step(&set, &targets);
        checks.operation("final state", problems);
    }

    // ---- thread invariance: replay the first step at nproc threads -----
    let (after_first, fingerprint) = after_first.expect("at least one step");
    par::set_threads(replay_threads);
    let mut replay_engine = engine(tier, traced.then_some(&probe), negative_control);
    let mut replay = before_first;
    let t = Instant::now();
    LeapfrogKdk.step(&mut replay, &mut replay_engine, DT);
    let replay_s = t.elapsed().as_secs_f64();
    par::set_threads(threads);
    let parallel_evaluate_s = probe.evaluate_s.get();
    let mut problems = Vec::new();
    let vs = format!("{threads} vs {replay_threads} threads");
    if !bits_equal(&replay, &after_first) {
        problems.push(format!("state after the step differs at {vs}"));
    }
    let replay_fp = Fingerprint::of(replay_engine.last_outcome().expect("the replay evaluates"));
    if replay_fp != fingerprint {
        problems.push(format!(
            "counts or simulated clocks differ at {vs}: {fingerprint:?} vs {replay_fp:?}"
        ));
    }
    // the check itself runs at the measured thread count, as for step 0
    let (replay_err, _) = check_step(&replay, &targets);
    if replay_err.to_bits() != first_err.to_bits() {
        problems.push(format!("force error {first_err:e} vs {replay_err:e} at {vs}"));
    }
    checks.operation(&format!("{replay_threads}-thread replay of step 0"), problems);

    // ---- metrics ------------------------------------------------------
    let sim_step_s = first_outcome.total_seconds();
    if traced {
        per_layer(
            tier,
            &mut metrics,
            &traced_steps,
            &first_outcome,
            replay_threads,
            parallel_evaluate_s,
        );
        metrics.insert("workloads.generate_s", generate_s);
        metrics.insert("physics.force_rel_l2", first_err);
        metrics.insert("bench.reference_kernel_s", median(&reference_s));
        metrics.insert(
            "trace.overhead_s",
            median(&step_s)
                - if untraced_step_s.is_empty() { f64::NAN } else { median(&untraced_step_s) },
        );
        self_time_report(&traced_steps, &mut checks, &mut lines);
        lines.push(line("trace.overhead_s", metrics["trace.overhead_s"], "s", Clock::Wall));
        lines.push(line(
            &format!("{replay_threads}-thread replay step"),
            replay_s,
            "s",
            Clock::Wall,
        ));
    } else {
        let p50 = median(&step_s);
        metrics.insert("setup_s", median(&setup_s));
        metrics.insert("latency_ref_p50", median(&step_ref));
        metrics.insert("throughput_per_ref", step_ref.len() as f64 / step_ref.iter().sum::<f64>());
        metrics.insert("peak_rss_mb", rss_mb);
        lines.push(format!(
            "  workload metrics ({} steps, {} set-ups):",
            step_s.len(),
            setup_s.len()
        ));
        lines.push(line("setup_s", metrics["setup_s"], "s", Clock::Wall));
        lines.push(line("step_wall_s_p50", p50, "s", Clock::Wall));
        lines.push(line(
            "steps_per_s",
            step_s.len() as f64 / step_s.iter().sum::<f64>(),
            "1/s",
            Clock::Wall,
        ));
        lines.push(line("reference_kernel_s_p50", median(&reference_s), "s", Clock::Wall));
        if tier == Tier::Sim {
            lines.push(line("sim_step_s", sim_step_s, "s", Clock::Simulated));
        }
        lines.push(line("force_rel_l2", first_err, "ratio", Clock::Count));
        lines.push(line("error_rate", checks.error_rate(), "ratio", Clock::Count));
        lines.push(line("peak_rss_mb", metrics["peak_rss_mb"], "MB", Clock::Wall));
    }
    Outcome { metrics, checks, lines }
}

fn per_layer(
    tier: Tier,
    metrics: &mut Metrics,
    steps: &[TracedStep],
    first: &PlanOutcome,
    parallel_threads: usize,
    parallel_evaluate_s: f64,
) {
    let med = |f: &dyn Fn(&TracedStep) -> f64| median(&steps.iter().map(f).collect::<Vec<_>>());
    let evaluate_s = med(&|s| s.evaluate_s);
    let force_s = med(&|s| s.evaluate_s - s.build_s - s.walks_s - s.pack_s);
    metrics.insert("treecode.tree.build_s", med(&|s| s.build_s));
    metrics.insert("treecode.interaction_list.walks_s", med(&|s| s.walks_s));
    metrics.insert(
        "treecode.interaction_list.interactions",
        steps.first().map_or(f64::NAN, |s| s.interactions as f64),
    );
    metrics.insert("plans.engine.overhead_s", med(&|s| s.engine_s - s.evaluate_s));
    metrics.insert("nbody-core.integrator.overhead_s", med(&|s| s.step_s - s.engine_s));
    // the traced steps run at one thread, the replay at `parallel_threads`
    metrics.insert("par.efficiency", evaluate_s / (parallel_threads as f64 * parallel_evaluate_s));
    match tier {
        Tier::Host => {
            metrics.insert("plans.backend.host.evaluate_s", evaluate_s);
            metrics.insert("plans.backend.host.force_s", force_s);
            metrics.insert(
                "plans.backend.host.interactions_per_s",
                med(&|s| s.interactions as f64 / (s.evaluate_s - s.build_s - s.walks_s)),
            );
        }
        Tier::Sim => {
            metrics.insert("plans.backend.sim.evaluate_s", evaluate_s);
            metrics.insert("plans.backend.sim.total_s", first.total_seconds());
            metrics.insert("plans.w_parallel.pack_s", med(&|s| s.pack_s));
            metrics.insert("gpu-sim.kernel_s", first.kernel_s);
            metrics.insert("gpu-sim.transfer_s", first.transfer_s);
            metrics.insert(
                "gpu-sim.gflops",
                first.interactions as f64 * FLOPS_PER_INTERACTION / first.kernel_s / 1e9,
            );
            metrics.insert("gpu-sim.launches", first.launches as f64);
            metrics.insert("gpu-sim.peak_device_bytes", first.peak_device_bytes as f64);
            metrics.insert(
                "gpu-sim.wall_ns_per_interaction",
                med(&|s| {
                    (s.evaluate_s - s.build_s - s.walks_s - s.pack_s) * 1e9 / s.interactions as f64
                }),
            );
        }
    }
}

/// Prints the median self time of each layer over the traced steps and
/// checks that the self times add up to the traced step.
fn self_time_report(steps: &[TracedStep], checks: &mut Checks, lines: &mut Vec<String>) {
    let Some(first) = steps.first() else { return };
    lines.push(format!("  self times (median of {} traced steps):", steps.len()));
    let names = first.self_times().map(|(name, _)| name);
    for (k, name) in names.iter().enumerate() {
        let v = median(&steps.iter().map(|s| s.self_times()[k].1).collect::<Vec<_>>());
        lines.push(line(&format!("self.{name}"), v, "s", Clock::Wall));
    }
    lines.push(line(
        "traced step",
        median(&steps.iter().map(|s| s.step_s).collect::<Vec<_>>()),
        "s",
        Clock::Wall,
    ));
    for (i, s) in steps.iter().enumerate() {
        // a derived self time below zero means a standalone call measured
        // slower than the work it stands for; clamping exposes it in the sum
        let sum: f64 = s.self_times().iter().map(|(_, v)| v.max(0.0)).sum();
        let mut problems = Vec::new();
        if (sum - s.step_s).abs() > SELF_TIME_TOL * s.step_s {
            problems.push(format!("self times sum to {sum:.4} s, the step took {:.4} s", s.step_s));
        }
        checks.operation(&format!("self-time sum of traced step {i}"), problems);
    }
}
