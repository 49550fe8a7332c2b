//! The simulated device: buffers + executor + scheduler + clocks.
//!
//! [`Device`] is what host code (the `plans` crate) programs against. It
//! owns global memory, executes kernels functionally, times them with the
//! scheduler, and keeps three clocks:
//!
//! * the **kernel clock** — simulated seconds the device spent in kernels;
//! * the **transfer clock** — simulated seconds spent on PCIe transfers;
//! * the **stall clock** — simulated seconds lost to injected faults and
//!   recovery backoff (zero unless a fault plan is installed; see the
//!   [`fault` module](crate::fault)).
//!
//! Their sum plus any host-side time the caller measures is the "total time"
//! of the paper's Table 2.
//!
//! The fallible API (`try_launch`, `try_upload_*`, `try_download_*`) is
//! where faults fire; the infallible methods are the same operations with
//! faults treated as unrecoverable. With no fault plan installed the
//! fallible methods take the exact pre-existing code path.

use crate::buffer::{BufF32, BufU32, BufU64, BufferPool};
use crate::exec::{execute_launch, execute_launch_checked, execute_launch_profiled};
use crate::fault::{CuHealth, FaultDecision, FaultError, FaultKind, FaultPlan};
use crate::kernel::{Kernel, NdRange};
use crate::pcie::TransferModel;
use crate::race::Race;
use crate::sched::{
    schedule_launch, schedule_launch_degraded, schedule_launch_placed, LaunchTiming,
};
use crate::spec::DeviceSpec;
use crate::trace::{
    FaultTrace, GroupSpan, LaunchTrace, MarkerTrace, PhaseSummary, TraceSink, TransferTrace,
};
use serde::{Deserialize, Serialize};

/// Summary of one kernel launch kept in the device log.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LaunchRecord {
    /// Kernel name.
    pub kernel: String,
    /// Launch geometry.
    pub grid: NdRange,
    /// Timing under the device model.
    pub timing: LaunchTiming,
}

/// Summary of one transfer kept in the device log.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferRecord {
    /// Bytes moved.
    pub bytes: usize,
    /// True for host→device.
    pub to_device: bool,
    /// Simulated seconds.
    pub seconds: f64,
}

/// A simulated GPU.
#[derive(Debug)]
pub struct Device {
    spec: DeviceSpec,
    transfer_model: TransferModel,
    pool: BufferPool,
    kernel_seconds: f64,
    transfer_seconds: f64,
    stall_seconds: f64,
    launches: Vec<LaunchRecord>,
    transfers: Vec<TransferRecord>,
    race_checking: bool,
    races: Vec<Race>,
    trace: Option<Box<dyn TraceSink>>,
    fault: Option<FaultPlan>,
    fault_events: usize,
}

// Multi-device drivers run one device per worker thread; every field,
// including the boxed trace sink (`TraceSink: Send`) and the fault plan
// (plain data), must stay shippable across threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Device>();
};

impl Device {
    /// Creates a device with the default PCIe model.
    ///
    /// # Panics
    /// Panics if the spec fails validation.
    pub fn new(spec: DeviceSpec) -> Self {
        Self::with_transfer_model(spec, TransferModel::default())
    }

    /// Creates a device with an explicit transfer model.
    pub fn with_transfer_model(spec: DeviceSpec, transfer_model: TransferModel) -> Self {
        spec.validate().expect("invalid device spec");
        Self {
            spec,
            transfer_model,
            pool: BufferPool::new(),
            kernel_seconds: 0.0,
            transfer_seconds: 0.0,
            stall_seconds: 0.0,
            launches: Vec::new(),
            transfers: Vec::new(),
            race_checking: false,
            races: Vec::new(),
            trace: None,
            fault: None,
            fault_events: 0,
        }
    }

    /// Installs a fault plan: subsequent fallible operations consult it, in
    /// issue order, and may fail (see the [`fault` module](crate::fault)).
    /// Per-CU health is rolled here, against this device's spec.
    pub fn set_fault_plan(&mut self, mut plan: FaultPlan) {
        plan.install(&self.spec);
        self.fault = Some(plan);
    }

    /// Removes and returns the fault plan, if any.
    pub fn clear_fault_plan(&mut self) -> Option<FaultPlan> {
        self.fault.take()
    }

    /// The installed fault plan, if any (for counts and CU health).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Installs a trace sink: subsequent launches, transfers, and
    /// annotations are recorded as structured events (see the [`trace`
    /// module](crate::trace)). While no sink is installed the device runs
    /// the untraced code path — no per-phase profiling, no placement
    /// capture.
    pub fn set_trace_sink(&mut self, mut sink: Box<dyn TraceSink>) {
        sink.begin(&self.spec);
        self.trace = Some(sink);
    }

    /// Removes and returns the current trace sink, if any.
    pub fn clear_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.trace.take()
    }

    /// True if a trace sink is installed.
    pub fn is_tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Emits an instant annotation onto the trace timeline (no-op when
    /// untraced). Plans use this to mark algorithmic stages around the
    /// kernels and transfers they issue.
    pub fn annotate(&mut self, label: &str) {
        let at_s = self.device_seconds();
        if let Some(sink) = self.trace.as_mut() {
            sink.marker(MarkerTrace { label: label.to_string(), at_s });
        }
    }

    /// Enables or disables data-race detection for subsequent launches.
    /// Races found accumulate in [`Device::races`]. Checking slows the
    /// functional execution; use it in tests and debugging, not sweeps.
    pub fn set_race_checking(&mut self, on: bool) {
        self.race_checking = on;
    }

    /// Races detected by checked launches since the last reset.
    pub fn races(&self) -> &[Race] {
        &self.races
    }

    /// The device description.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The transfer model in effect.
    pub fn transfer_model(&self) -> &TransferModel {
        &self.transfer_model
    }

    /// Allocates a zeroed `f32` buffer.
    pub fn alloc_f32(&mut self, len: usize) -> BufF32 {
        self.pool.alloc_f32(len)
    }

    /// Allocates a zeroed `u32` buffer.
    pub fn alloc_u32(&mut self, len: usize) -> BufU32 {
        self.pool.alloc_u32(len)
    }

    /// Allocates a zeroed `u64` buffer (Morton keys, f64 bit patterns).
    pub fn alloc_u64(&mut self, len: usize) -> BufU64 {
        self.pool.alloc_u64(len)
    }

    /// Runs one force evaluation as one scope: clears the clocks and logs
    /// ([`Device::reset_clocks`]), marks the buffer pool (restarting its
    /// high-water mark at the bytes live now), runs `body`, then frees
    /// every buffer `body` allocated. A reused device therefore does not
    /// grow with every evaluation, and the pool's high-water mark read
    /// inside `body` is this evaluation's alone. The clocks and logs stay
    /// readable after it returns; the freed buffers' handles must not be
    /// used again.
    pub fn evaluation<R>(&mut self, body: impl FnOnce(&mut Device) -> R) -> R {
        self.reset_clocks();
        let mark = self.pool.mark();
        let out = body(self);
        self.pool.release(mark);
        out
    }

    /// Host→device copy, charged to the transfer clock.
    ///
    /// # Panics
    /// Panics if `data` is longer than the buffer, or if an injected fault
    /// fires (use [`Device::try_upload_f32`] under fault injection).
    pub fn upload_f32(&mut self, buf: BufF32, data: &[f32]) {
        self.try_upload_f32(buf, data).expect("unrecovered upload fault");
    }

    /// Host→device copy of `u32` data, charged to the transfer clock.
    pub fn upload_u32(&mut self, buf: BufU32, data: &[u32]) {
        self.try_upload_u32(buf, data).expect("unrecovered upload fault");
    }

    /// Device→host copy, charged to the transfer clock.
    pub fn download_f32(&mut self, buf: BufF32) -> Vec<f32> {
        self.try_download_f32(buf).expect("unrecovered download fault")
    }

    /// Device→host copy of `u32` data, charged to the transfer clock.
    pub fn download_u32(&mut self, buf: BufU32) -> Vec<u32> {
        self.try_download_u32(buf).expect("unrecovered download fault")
    }

    /// Host→device copy of `u64` data, charged to the transfer clock.
    pub fn upload_u64(&mut self, buf: BufU64, data: &[u64]) {
        self.try_upload_u64(buf, data).expect("unrecovered upload fault");
    }

    /// Device→host copy of `u64` data, charged to the transfer clock.
    pub fn download_u64(&mut self, buf: BufU64) -> Vec<u64> {
        self.try_download_u64(buf).expect("unrecovered download fault")
    }

    /// Fallible host→device copy: consults the fault plan first. On an
    /// injected fault the attempt's cost is charged to the stall clock and
    /// **no data moves** — device memory is exactly as it was, so a retry
    /// that succeeds is bit-identical to a fault-free upload.
    pub fn try_upload_f32(&mut self, buf: BufF32, data: &[f32]) -> Result<(), FaultError> {
        self.check_transfer(data.len() * 4, true)?;
        self.pool.f32_mut(buf)[..data.len()].copy_from_slice(data);
        self.record_transfer(data.len() * 4, true);
        Ok(())
    }

    /// Fallible host→device copy of `u32` data (see
    /// [`Device::try_upload_f32`] for fault semantics).
    pub fn try_upload_u32(&mut self, buf: BufU32, data: &[u32]) -> Result<(), FaultError> {
        self.check_transfer(data.len() * 4, true)?;
        self.pool.u32_mut(buf)[..data.len()].copy_from_slice(data);
        self.record_transfer(data.len() * 4, true);
        Ok(())
    }

    /// Fallible device→host copy (see [`Device::try_upload_f32`] for fault
    /// semantics; device memory is read-only here, so retries are trivially
    /// safe).
    pub fn try_download_f32(&mut self, buf: BufF32) -> Result<Vec<f32>, FaultError> {
        self.check_transfer(self.pool.len_f32(buf) * 4, false)?;
        let data = self.pool.f32(buf).to_vec();
        self.record_transfer(data.len() * 4, false);
        Ok(data)
    }

    /// Fallible device→host copy of `u32` data.
    pub fn try_download_u32(&mut self, buf: BufU32) -> Result<Vec<u32>, FaultError> {
        self.check_transfer(self.pool.len_u32(buf) * 4, false)?;
        let data = self.pool.u32(buf).to_vec();
        self.record_transfer(data.len() * 4, false);
        Ok(data)
    }

    /// Fallible host→device copy of `u64` data (see
    /// [`Device::try_upload_f32`] for fault semantics).
    pub fn try_upload_u64(&mut self, buf: BufU64, data: &[u64]) -> Result<(), FaultError> {
        self.check_transfer(data.len() * 8, true)?;
        self.pool.u64_mut(buf)[..data.len()].copy_from_slice(data);
        self.record_transfer(data.len() * 8, true);
        Ok(())
    }

    /// Fallible device→host copy of `u64` data.
    pub fn try_download_u64(&mut self, buf: BufU64) -> Result<Vec<u64>, FaultError> {
        self.check_transfer(self.pool.len_u64(buf) * 8, false)?;
        let data = self.pool.u64(buf).to_vec();
        self.record_transfer(data.len() * 8, false);
        Ok(data)
    }

    /// Draws the fault decision for one transfer of `bytes` and, when a
    /// fault fires, charges its cost and records the trace event.
    fn check_transfer(&mut self, bytes: usize, to_device: bool) -> Result<(), FaultError> {
        let Some(plan) = self.fault.as_mut() else { return Ok(()) };
        let decision = plan.decide_transfer();
        let FaultDecision::Inject(kind) = decision else { return Ok(()) };
        let charged_s = match kind {
            // a failed transfer runs to completion before the CRC check
            FaultKind::TransferError => self.transfer_model.seconds(bytes),
            FaultKind::TransferTimeout => plan.config().transfer_timeout_s,
            _ => 0.0,
        };
        let op = if to_device { "h2d" } else { "d2h" };
        let at_s = self.device_seconds();
        Err(self.emit_fault(kind, op, at_s, charged_s, charged_s))
    }

    /// Records a fault trace event, charges `stall_s` to the stall clock,
    /// and returns the error the operation should propagate. `charged_s` is
    /// what the attempt cost in total — for corruption that time already
    /// landed on the kernel clock, so its `stall_s` is zero.
    fn emit_fault(
        &mut self,
        kind: FaultKind,
        op: &str,
        at_s: f64,
        charged_s: f64,
        stall_s: f64,
    ) -> FaultError {
        self.stall_seconds += stall_s;
        let event =
            FaultTrace { fault_id: self.fault_events, kind, op: op.to_string(), at_s, charged_s };
        self.fault_events += 1;
        if let Some(sink) = self.trace.as_mut() {
            sink.fault(event);
        }
        FaultError { kind, charged_s }
    }

    /// Untimed host access for test setup and assertions — never use on a
    /// measured path.
    pub fn debug_pool_mut(&mut self) -> &mut BufferPool {
        &mut self.pool
    }

    /// Untimed read-only host access.
    pub fn debug_pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Executes `kernel` over `grid`: runs it functionally, times it, and
    /// advances the kernel clock. Honors [`Device::set_race_checking`].
    ///
    /// # Panics
    /// Panics if an injected fault fires (use [`Device::try_launch`] under
    /// fault injection).
    pub fn launch<K: Kernel>(&mut self, kernel: &K, grid: NdRange) -> LaunchTiming {
        self.try_launch(kernel, grid).expect("unrecovered launch fault")
    }

    /// Fallible launch: consults the fault plan first. Fault semantics
    /// preserve bit-exactness of any later successful attempt:
    ///
    /// * [`FaultKind::LaunchFail`] — the kernel never executes; a fixed
    ///   penalty goes on the stall clock and device memory is untouched.
    /// * [`FaultKind::ResultCorruption`] — the kernel runs (its time is
    ///   charged to the kernel clock) but its writes are rolled back.
    /// * [`FaultKind::DeviceLost`] — permanent; every later operation fails.
    pub fn try_launch<K: Kernel>(
        &mut self,
        kernel: &K,
        grid: NdRange,
    ) -> Result<LaunchTiming, FaultError> {
        let decision = match self.fault.as_mut() {
            Some(plan) => plan.decide_launch(),
            None => FaultDecision::None,
        };
        let check = self.race_checking;
        match decision {
            FaultDecision::None => Ok(self.launch_dispatch(kernel, grid, check)),
            FaultDecision::Inject(FaultKind::LaunchFail) => {
                let penalty = self.fault.as_ref().map_or(0.0, |p| p.config().launch_fail_penalty_s);
                let at_s = self.device_seconds();
                Err(self.emit_fault(FaultKind::LaunchFail, kernel.name(), at_s, penalty, penalty))
            }
            FaultDecision::Inject(FaultKind::ResultCorruption) => {
                let at_s = self.device_seconds();
                let saved = self.pool.clone();
                let timing = self.launch_dispatch(kernel, grid, check);
                self.pool = saved;
                // the wasted time already landed on the kernel clock
                Err(self.emit_fault(
                    FaultKind::ResultCorruption,
                    kernel.name(),
                    at_s,
                    timing.seconds,
                    0.0,
                ))
            }
            FaultDecision::Inject(kind) => {
                let at_s = self.device_seconds();
                Err(self.emit_fault(kind, kernel.name(), at_s, 0.0, 0.0))
            }
        }
    }

    /// Routes a decided-to-run launch through the race-checked or plain
    /// path.
    fn launch_dispatch<K: Kernel>(
        &mut self,
        kernel: &K,
        grid: NdRange,
        check_races: bool,
    ) -> LaunchTiming {
        if check_races {
            let (timing, races) = self.launch_inner(kernel, grid, true);
            self.races.extend(races);
            timing
        } else {
            self.launch_inner(kernel, grid, false).0
        }
    }

    /// Like [`Device::launch`], but with intra-phase data-race detection.
    /// Returns the timing plus every race found (see `race` module); racy
    /// kernels still execute (in deterministic local-id order) so the
    /// corrupted output can be inspected.
    pub fn launch_checked<K: Kernel>(
        &mut self,
        kernel: &K,
        grid: NdRange,
    ) -> (LaunchTiming, Vec<Race>) {
        let (timing, races) = self.launch_inner(kernel, grid, true);
        self.races.extend(races.iter().cloned());
        (timing, races)
    }

    /// The one launch path: functional execution, scheduling, clock
    /// accounting, and (when a sink is installed) trace emission. Untraced
    /// launches take the original execute + schedule calls unchanged.
    fn launch_inner<K: Kernel>(
        &mut self,
        kernel: &K,
        grid: NdRange,
        check_races: bool,
    ) -> (LaunchTiming, Vec<Race>) {
        let start_s = self.device_seconds();
        let timing;
        let races;
        if self.trace.is_some() {
            let (outcome, r) =
                execute_launch_profiled(kernel, grid, &self.spec, &mut self.pool, check_races);
            races = r;
            let (t, placements) = match self.degraded_health() {
                Some(health) => schedule_launch_degraded(
                    &self.spec,
                    grid.local,
                    kernel.lds_words(),
                    &outcome.group_costs,
                    health,
                ),
                None => schedule_launch_placed(
                    &self.spec,
                    grid.local,
                    kernel.lds_words(),
                    &outcome.group_costs,
                ),
            };
            let groups = placements
                .iter()
                .map(|p| GroupSpan {
                    group: p.group,
                    cu: p.cu,
                    start_cycle: p.start_cycle,
                    end_cycle: p.end_cycle,
                    cost: outcome.group_costs[p.group],
                    phases: outcome.phase_costs[p.group].clone(),
                })
                .collect();
            let mut phases: Vec<PhaseSummary> = Vec::new();
            for per_group in &outcome.phase_costs {
                for pc in per_group {
                    match phases.iter_mut().find(|s| s.phase == pc.phase) {
                        Some(s) => {
                            s.executions += pc.executions;
                            s.cost += pc.cost;
                        }
                        None => phases.push(PhaseSummary {
                            phase: pc.phase,
                            label: kernel.phase_label(pc.phase),
                            executions: pc.executions,
                            cost: pc.cost,
                        }),
                    }
                }
            }
            phases.sort_by_key(|s| s.phase);
            let wavefronts_per_group = self.spec.waves_per_group(grid.local);
            let wavefront_occupancy = (t.occupancy_groups_per_cu * wavefronts_per_group) as f64
                / f64::from(self.spec.max_waves_per_cu).max(1.0);
            let event = LaunchTrace {
                launch_id: self.launches.len(),
                kernel: kernel.name().to_string(),
                grid,
                lds_words: kernel.lds_words(),
                start_s,
                wavefronts_per_group,
                wavefront_occupancy: wavefront_occupancy.min(1.0),
                timing: t.clone(),
                groups,
                phases,
            };
            if let Some(sink) = self.trace.as_mut() {
                sink.launch(event);
            }
            timing = t;
        } else {
            let (outcome, r) = if check_races {
                execute_launch_checked(kernel, grid, &self.spec, &mut self.pool)
            } else {
                (execute_launch(kernel, grid, &self.spec, &mut self.pool), Vec::new())
            };
            races = r;
            timing = match self.degraded_health() {
                Some(health) => {
                    schedule_launch_degraded(
                        &self.spec,
                        grid.local,
                        kernel.lds_words(),
                        &outcome.group_costs,
                        health,
                    )
                    .0
                }
                None => schedule_launch(
                    &self.spec,
                    grid.local,
                    kernel.lds_words(),
                    &outcome.group_costs,
                ),
            };
        }
        self.kernel_seconds += timing.seconds;
        self.launches.push(LaunchRecord {
            kernel: kernel.name().to_string(),
            grid,
            timing: timing.clone(),
        });
        (timing, races)
    }

    /// Simulated seconds spent in kernels since the last reset.
    pub fn kernel_seconds(&self) -> f64 {
        self.kernel_seconds
    }

    /// Simulated seconds spent in transfers since the last reset.
    pub fn transfer_seconds(&self) -> f64 {
        self.transfer_seconds
    }

    /// Simulated seconds lost to injected faults and recovery backoff since
    /// the last reset (zero unless a fault plan is installed).
    pub fn stall_seconds(&self) -> f64 {
        self.stall_seconds
    }

    /// Charges simulated seconds to the stall clock. Recovery layers use
    /// this for retry backoff, so recovery overhead shows up in total device
    /// time, traces, and the PTPM observed grid.
    pub fn charge_stall(&mut self, seconds: f64) {
        self.stall_seconds += seconds;
    }

    /// Kernel + transfer + stall seconds.
    pub fn device_seconds(&self) -> f64 {
        self.kernel_seconds + self.transfer_seconds + self.stall_seconds
    }

    /// Clears the clocks and logs (buffers, the race-checking mode flag, and
    /// any installed fault plan are kept; the plan's RNG stream is *not*
    /// rewound).
    pub fn reset_clocks(&mut self) {
        self.kernel_seconds = 0.0;
        self.transfer_seconds = 0.0;
        self.stall_seconds = 0.0;
        self.launches.clear();
        self.transfers.clear();
        self.races.clear();
        self.fault_events = 0;
    }

    /// CU health to schedule against, when the fault plan degrades any CU.
    fn degraded_health(&self) -> Option<&[CuHealth]> {
        self.fault.as_ref().filter(|f| f.degrades_scheduling()).map(FaultPlan::cu_health)
    }

    /// Launch log since the last reset.
    pub fn launches(&self) -> &[LaunchRecord] {
        &self.launches
    }

    /// Transfer log since the last reset.
    pub fn transfers(&self) -> &[TransferRecord] {
        &self.transfers
    }

    fn record_transfer(&mut self, bytes: usize, to_device: bool) {
        let seconds = self.transfer_model.seconds(bytes);
        let start_s = self.device_seconds();
        if let Some(sink) = self.trace.as_mut() {
            sink.transfer(TransferTrace {
                transfer_id: self.transfers.len(),
                bytes,
                to_device,
                start_s,
                seconds,
            });
        }
        self.transfer_seconds += seconds;
        self.transfers.push(TransferRecord { bytes, to_device, seconds });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ItemCtx;
    use crate::kernel::{Control, GroupInfo};

    struct AddOne {
        buf: BufF32,
        n: usize,
    }

    impl Kernel for AddOne {
        type ItemRegs = ();
        type GroupRegs = ();
        fn name(&self) -> &str {
            "add-one"
        }
        fn lds_words(&self) -> usize {
            0
        }
        fn phase(&self, _p: usize, ctx: &mut ItemCtx<'_>, _r: &mut (), _g: &()) {
            let i = ctx.global_id;
            if i < self.n {
                let v = ctx.read_f32_coalesced(self.buf, i);
                ctx.flops(1);
                ctx.write_f32_coalesced(self.buf, i, v + 1.0);
            }
        }
        fn control(&self, _p: usize, _g: &mut (), _i: &GroupInfo) -> Control {
            Control::Done
        }
    }

    fn device() -> Device {
        Device::with_transfer_model(DeviceSpec::tiny_test_device(), TransferModel::free())
    }

    #[test]
    fn upload_launch_download_roundtrip() {
        let mut dev = device();
        let buf = dev.alloc_f32(8);
        dev.upload_f32(buf, &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        dev.launch(&AddOne { buf, n: 8 }, NdRange { global: 8, local: 4 });
        let out = dev.download_f32(buf);
        assert_eq!(out, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn clocks_accumulate() {
        let mut dev = Device::with_transfer_model(
            DeviceSpec::tiny_test_device(),
            TransferModel { bandwidth_bytes_per_sec: 1e6, latency_s: 1e-3 },
        );
        let buf = dev.alloc_f32(250);
        dev.upload_f32(buf, &vec![0.0; 250]); // 1000 bytes at 1e6 B/s + 1 ms = 2 ms
        assert!((dev.transfer_seconds() - 2e-3).abs() < 1e-9);
        dev.launch(&AddOne { buf, n: 250 }, NdRange::round_up(250, 8));
        assert!(dev.kernel_seconds() > 0.0);
        assert!(dev.device_seconds() > dev.kernel_seconds());
        assert_eq!(dev.launches().len(), 1);
        assert_eq!(dev.transfers().len(), 1);
        dev.reset_clocks();
        assert_eq!(dev.device_seconds(), 0.0);
        assert!(dev.launches().is_empty());
    }

    #[test]
    fn launch_records_kernel_name_and_grid() {
        let mut dev = device();
        let buf = dev.alloc_f32(4);
        dev.launch(&AddOne { buf, n: 4 }, NdRange { global: 4, local: 4 });
        let rec = &dev.launches()[0];
        assert_eq!(rec.kernel, "add-one");
        assert_eq!(rec.grid.num_groups(), 1);
        assert_eq!(rec.timing.total_cost.flops, 4.0);
    }

    #[test]
    fn transfer_directions_logged() {
        let mut dev = device();
        let buf = dev.alloc_f32(4);
        dev.upload_f32(buf, &[1.0; 4]);
        let _ = dev.download_f32(buf);
        assert!(dev.transfers()[0].to_device);
        assert!(!dev.transfers()[1].to_device);
        assert_eq!(dev.transfers()[0].bytes, 16);
    }

    #[test]
    #[should_panic]
    fn invalid_spec_rejected() {
        let mut spec = DeviceSpec::tiny_test_device();
        spec.compute_units = 0;
        let _ = Device::new(spec);
    }

    #[test]
    fn u32_buffers_roundtrip() {
        let mut dev = device();
        let buf = dev.alloc_u32(3);
        dev.upload_u32(buf, &[7, 8, 9]);
        assert_eq!(dev.download_u32(buf), vec![7, 8, 9]);
    }

    #[test]
    fn u64_buffers_roundtrip_and_charge_eight_bytes() {
        let model = TransferModel { bandwidth_bytes_per_sec: 1e6, latency_s: 0.0 };
        let mut dev = Device::with_transfer_model(DeviceSpec::tiny_test_device(), model);
        let buf = dev.alloc_u64(3);
        dev.upload_u64(buf, &[u64::MAX, 1, 2]);
        assert_eq!(dev.download_u64(buf), vec![u64::MAX, 1, 2]);
        assert_eq!(dev.transfers()[0].bytes, 24);
        assert_eq!(dev.transfers()[1].bytes, 24);
    }

    #[test]
    fn traced_launch_records_placements_and_phases() {
        use crate::cost::GroupCost;
        use crate::trace::MemoryTraceSink;
        let mut dev = device();
        let sink = MemoryTraceSink::new();
        dev.set_trace_sink(Box::new(sink.clone()));
        assert!(dev.is_tracing());
        let buf = dev.alloc_f32(8);
        dev.upload_f32(buf, &[1.0; 8]);
        dev.annotate("force-eval");
        let timing = dev.launch(&AddOne { buf, n: 8 }, NdRange { global: 8, local: 4 });
        let trace = sink.snapshot();
        assert_eq!(trace.launches.len(), 1);
        assert_eq!(trace.transfers.len(), 1);
        assert_eq!(trace.markers[0].label, "force-eval");
        let lt = &trace.launches[0];
        assert_eq!(lt.kernel, "add-one");
        assert_eq!(lt.groups.len(), 2);
        // spans live inside the launch makespan, on valid CUs
        for g in &lt.groups {
            assert!(g.cu < trace.compute_units);
            assert!(g.start_cycle >= 0.0 && g.end_cycle <= lt.timing.compute_cycles + 1e-9);
            // per-phase deltas recompose the group total
            let phase_sum: GroupCost = g.phases.iter().map(|p| p.cost).sum();
            assert!((phase_sum.flops - g.cost.flops).abs() < 1e-12);
            assert_eq!(phase_sum.barriers, g.cost.barriers);
        }
        assert_eq!(lt.phases.len(), 1); // add-one is a single-phase kernel
        assert_eq!(lt.phases[0].label, "phase0");
        assert_eq!(lt.phases[0].cost.flops, 8.0);
        // the traced timing is identical to the untraced one
        let mut plain = device();
        let buf2 = plain.alloc_f32(8);
        plain.upload_f32(buf2, &[1.0; 8]);
        let t2 = plain.launch(&AddOne { buf: buf2, n: 8 }, NdRange { global: 8, local: 4 });
        assert_eq!(timing, t2);
    }

    #[test]
    fn zero_prob_fault_plan_changes_nothing() {
        use crate::fault::{FaultConfig, FaultPlan};
        let model = TransferModel { bandwidth_bytes_per_sec: 1e6, latency_s: 1e-3 };
        let mut plain = Device::with_transfer_model(DeviceSpec::tiny_test_device(), model);
        let mut faulty = Device::with_transfer_model(DeviceSpec::tiny_test_device(), model);
        faulty.set_fault_plan(FaultPlan::new(42, FaultConfig::default()));
        for dev in [&mut plain, &mut faulty] {
            let buf = dev.alloc_f32(8);
            dev.try_upload_f32(buf, &[1.0; 8]).unwrap();
            dev.try_launch(&AddOne { buf, n: 8 }, NdRange { global: 8, local: 4 }).unwrap();
            let out = dev.try_download_f32(buf).unwrap();
            assert_eq!(out, vec![2.0; 8]);
        }
        assert_eq!(plain.kernel_seconds(), faulty.kernel_seconds());
        assert_eq!(plain.transfer_seconds(), faulty.transfer_seconds());
        assert_eq!(faulty.stall_seconds(), 0.0);
        assert_eq!(faulty.fault_plan().unwrap().counts().total(), 0);
    }

    #[test]
    fn launch_fail_charges_stall_and_leaves_memory() {
        use crate::fault::{FaultConfig, FaultKind, FaultPlan};
        let mut dev = device();
        let cfg = FaultConfig { launch_fail_prob: 1.0, ..FaultConfig::default() };
        dev.set_fault_plan(FaultPlan::new(1, cfg));
        let buf = dev.alloc_f32(4);
        dev.try_upload_f32(buf, &[5.0; 4]).unwrap();
        let err = dev.try_launch(&AddOne { buf, n: 4 }, NdRange { global: 4, local: 4 });
        let err = err.unwrap_err();
        assert_eq!(err.kind, FaultKind::LaunchFail);
        assert!(err.is_transient());
        assert_eq!(dev.kernel_seconds(), 0.0, "the kernel never executed");
        assert_eq!(dev.stall_seconds(), cfg.launch_fail_penalty_s);
        assert!(dev.launches().is_empty());
        assert_eq!(dev.debug_pool().f32(buf), &[5.0; 4]);
    }

    #[test]
    fn corruption_rolls_back_writes_but_charges_kernel_time() {
        use crate::fault::{FaultConfig, FaultKind, FaultPlan};
        let mut dev = device();
        let cfg = FaultConfig { launch_corrupt_prob: 1.0, ..FaultConfig::default() };
        dev.set_fault_plan(FaultPlan::new(2, cfg));
        let buf = dev.alloc_f32(4);
        dev.try_upload_f32(buf, &[5.0; 4]).unwrap();
        let err =
            dev.try_launch(&AddOne { buf, n: 4 }, NdRange { global: 4, local: 4 }).unwrap_err();
        assert_eq!(err.kind, FaultKind::ResultCorruption);
        assert!(dev.kernel_seconds() > 0.0, "the wasted run is charged");
        assert_eq!(err.charged_s, dev.kernel_seconds());
        assert_eq!(dev.stall_seconds(), 0.0);
        assert_eq!(dev.debug_pool().f32(buf), &[5.0; 4], "writes rolled back");
    }

    #[test]
    fn transfer_fault_moves_no_data() {
        use crate::fault::{FaultConfig, FaultKind, FaultPlan};
        let model = TransferModel { bandwidth_bytes_per_sec: 1e6, latency_s: 1e-3 };
        let mut dev = Device::with_transfer_model(DeviceSpec::tiny_test_device(), model);
        let cfg = FaultConfig { transfer_error_prob: 1.0, ..FaultConfig::default() };
        dev.set_fault_plan(FaultPlan::new(3, cfg));
        let buf = dev.alloc_f32(4);
        let err = dev.try_upload_f32(buf, &[9.0; 4]).unwrap_err();
        assert_eq!(err.kind, FaultKind::TransferError);
        assert_eq!(dev.debug_pool().f32(buf), &[0.0; 4], "no data moved");
        assert_eq!(dev.transfer_seconds(), 0.0);
        assert!(dev.transfers().is_empty());
        // the failed attempt still ran on the wire: full transfer time stalls
        assert_eq!(dev.stall_seconds(), model.seconds(16));
    }

    #[test]
    fn lost_device_fails_every_operation() {
        use crate::fault::{FaultConfig, FaultKind, FaultPlan};
        let mut dev = device();
        dev.set_fault_plan(FaultPlan::new(4, FaultConfig::default().with_device_loss(1.0)));
        let buf = dev.alloc_f32(4);
        let e1 = dev.try_upload_f32(buf, &[1.0; 4]).unwrap_err();
        assert_eq!(e1.kind, FaultKind::DeviceLost);
        assert!(!e1.is_transient());
        let e2 = dev.try_launch(&AddOne { buf, n: 4 }, NdRange { global: 4, local: 4 });
        assert_eq!(e2.unwrap_err().kind, FaultKind::DeviceLost);
        let e3 = dev.try_download_f32(buf).unwrap_err();
        assert_eq!(e3.kind, FaultKind::DeviceLost);
        assert!(dev.fault_plan().unwrap().device_lost());
    }

    #[test]
    fn stall_clock_counts_toward_device_seconds_and_resets() {
        let mut dev = device();
        dev.charge_stall(0.5);
        assert_eq!(dev.stall_seconds(), 0.5);
        assert_eq!(dev.device_seconds(), 0.5);
        dev.reset_clocks();
        assert_eq!(dev.stall_seconds(), 0.0);
        assert_eq!(dev.device_seconds(), 0.0);
    }

    #[test]
    fn degraded_plan_slows_timing_but_preserves_results() {
        use crate::fault::{FaultConfig, FaultPlan};
        let mut healthy = device();
        let mut degraded = device();
        degraded.set_fault_plan(FaultPlan::new(6, FaultConfig::default().with_cu_faults(1.0, 0.0)));
        assert!(degraded.fault_plan().unwrap().degrades_scheduling());
        let grid = NdRange { global: 16, local: 4 };
        let bh = healthy.alloc_f32(16);
        let bd = degraded.alloc_f32(16);
        healthy.upload_f32(bh, &[3.0; 16]);
        degraded.try_upload_f32(bd, &[3.0; 16]).unwrap();
        let th = healthy.launch(&AddOne { buf: bh, n: 16 }, grid);
        let td = degraded.try_launch(&AddOne { buf: bd, n: 16 }, grid).unwrap();
        assert_eq!(healthy.download_f32(bh), degraded.try_download_f32(bd).unwrap());
        assert!(td.seconds > th.seconds, "every CU degraded must slow the launch");
    }

    #[test]
    fn fault_events_reach_trace_sink() {
        use crate::fault::{FaultConfig, FaultKind, FaultPlan};
        use crate::trace::MemoryTraceSink;
        let mut dev = device();
        let sink = MemoryTraceSink::new();
        dev.set_trace_sink(Box::new(sink.clone()));
        let cfg = FaultConfig { transfer_timeout_prob: 1.0, ..FaultConfig::default() };
        dev.set_fault_plan(FaultPlan::new(7, cfg));
        let buf = dev.alloc_f32(4);
        let _ = dev.try_upload_f32(buf, &[1.0; 4]).unwrap_err();
        let trace = sink.snapshot();
        assert_eq!(trace.faults.len(), 1);
        assert_eq!(trace.faults[0].kind, FaultKind::TransferTimeout);
        assert_eq!(trace.faults[0].op, "h2d");
        assert_eq!(trace.faults[0].fault_id, 0);
        assert_eq!(trace.faults[0].charged_s, cfg.transfer_timeout_s);
    }

    #[test]
    fn clearing_the_sink_stops_recording() {
        use crate::trace::MemoryTraceSink;
        let mut dev = device();
        let sink = MemoryTraceSink::new();
        dev.set_trace_sink(Box::new(sink.clone()));
        let buf = dev.alloc_f32(4);
        dev.upload_f32(buf, &[0.0; 4]);
        assert!(dev.clear_trace_sink().is_some());
        assert!(!dev.is_tracing());
        dev.launch(&AddOne { buf, n: 4 }, NdRange { global: 4, local: 4 });
        let trace = sink.snapshot();
        assert_eq!(trace.transfers.len(), 1);
        assert!(trace.launches.is_empty());
    }
}
