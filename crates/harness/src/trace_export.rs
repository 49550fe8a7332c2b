//! Execution-trace capture and export.
//!
//! [`capture`] runs a plan on a fresh traced device and bundles the recorded
//! [`Trace`] with its provenance; [`chrome_trace_json`] renders a set of
//! captures in the Chrome trace-event format (load in `chrome://tracing` or
//! Perfetto: one process per plan, one thread lane per compute unit, plus
//! lanes for PCIe transfers and host markers); [`csv`] renders the same
//! events as a flat table for spreadsheets and diff-based golden tests.
//!
//! `repro-all` and its figure/table subcommands accept `--trace <path>`
//! (see [`run_trace_flag`]); the `trace` binary exposes capture directly.

use crate::config::ExperimentConfig;
use crate::error::HarnessError;
use crate::runner::Runner;
use gpu_sim::trace::Trace;
use plans::prelude::PlanKind;
use serde::{Deserialize, Serialize, Value};

/// One captured trace with its provenance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanTrace {
    /// The plan that produced the events.
    pub plan: PlanKind,
    /// Problem size.
    pub n: usize,
    /// The recorded events.
    pub trace: Trace,
}

/// Captures the execution trace of one plan at one size.
pub fn capture(runner: &mut Runner, kind: PlanKind, n: usize) -> PlanTrace {
    PlanTrace { plan: kind, n, trace: runner.trace(kind, n) }
}

/// Captures all four plans at one size, in the paper's presentation order.
pub fn capture_all(runner: &mut Runner, n: usize) -> Vec<PlanTrace> {
    PlanKind::all().into_iter().map(|kind| capture(runner, kind, n)).collect()
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn s(text: impl Into<String>) -> Value {
    Value::Str(text.into())
}

fn us(seconds: f64) -> Value {
    Value::Float(seconds * 1e6)
}

fn metadata(name: &str, pid: usize, tid: usize, value: &str) -> Value {
    obj(vec![
        ("name", s(name)),
        ("ph", s("M")),
        ("pid", Value::UInt(pid as u64)),
        ("tid", Value::UInt(tid as u64)),
        ("args", obj(vec![("name", s(value))])),
    ])
}

fn cost_args(cost: &gpu_sim::cost::GroupCost) -> Value {
    obj(vec![
        ("flops", Value::Float(cost.flops)),
        ("lds_accesses", Value::Float(cost.lds_accesses)),
        ("read_bytes", Value::Float(cost.read_bytes)),
        ("write_bytes", Value::Float(cost.write_bytes)),
        ("barriers", Value::UInt(cost.barriers)),
    ])
}

/// Renders captures as a Chrome trace-event document (`traceEvents` array of
/// `"ph": "X"` complete events, timestamps in microseconds). Each capture
/// becomes one process; within it, thread lanes are the compute units,
/// then one lane for PCIe transfers and one for launches and host markers.
pub fn chrome_trace_json(traces: &[PlanTrace]) -> String {
    let mut events = Vec::new();
    for (pid, pt) in traces.iter().enumerate() {
        let t = &pt.trace;
        let cus = t.compute_units;
        let pcie_tid = cus;
        let host_tid = cus + 1;
        let fault_tid = cus + 2;
        events.push(metadata(
            "process_name",
            pid,
            0,
            &format!("{} N={} ({})", pt.plan.id(), pt.n, t.device),
        ));
        for cu in 0..cus {
            events.push(metadata("thread_name", pid, cu, &format!("CU {cu}")));
        }
        events.push(metadata("thread_name", pid, pcie_tid, "PCIe"));
        events.push(metadata("thread_name", pid, host_tid, "launches"));
        if !t.faults.is_empty() {
            events.push(metadata("thread_name", pid, fault_tid, "faults"));
        }

        for lt in &t.launches {
            events.push(obj(vec![
                ("name", s(&lt.kernel)),
                ("ph", s("X")),
                ("pid", Value::UInt(pid as u64)),
                ("tid", Value::UInt(host_tid as u64)),
                ("ts", us(lt.start_s)),
                ("dur", us(lt.timing.seconds)),
                (
                    "args",
                    obj(vec![
                        ("groups", Value::UInt(lt.timing.num_groups as u64)),
                        ("utilization", Value::Float(lt.timing.utilization)),
                        ("wavefront_occupancy", Value::Float(lt.wavefront_occupancy)),
                        ("bandwidth_bound", Value::Bool(lt.timing.bandwidth_bound)),
                        ("gflops", Value::Float(lt.timing.gflops())),
                    ]),
                ),
            ]));
            for g in &lt.groups {
                let start = lt.start_s + g.start_cycle / t.clock_hz;
                let dur = (g.end_cycle - g.start_cycle) / t.clock_hz;
                events.push(obj(vec![
                    ("name", s(format!("{} g{}", lt.kernel, g.group))),
                    ("ph", s("X")),
                    ("pid", Value::UInt(pid as u64)),
                    ("tid", Value::UInt(g.cu as u64)),
                    ("ts", us(start)),
                    ("dur", Value::Float(dur * 1e6)),
                    ("args", cost_args(&g.cost)),
                ]));
            }
        }
        for tr in &t.transfers {
            let dir = if tr.to_device { "H2D" } else { "D2H" };
            events.push(obj(vec![
                ("name", s(format!("{dir} {} B", tr.bytes))),
                ("ph", s("X")),
                ("pid", Value::UInt(pid as u64)),
                ("tid", Value::UInt(pcie_tid as u64)),
                ("ts", us(tr.start_s)),
                ("dur", us(tr.seconds)),
                ("args", obj(vec![("bytes", Value::UInt(tr.bytes as u64))])),
            ]));
        }
        for m in &t.markers {
            events.push(obj(vec![
                ("name", s(&m.label)),
                ("ph", s("i")),
                ("s", s("t")),
                ("pid", Value::UInt(pid as u64)),
                ("tid", Value::UInt(host_tid as u64)),
                ("ts", us(m.at_s)),
            ]));
        }
        for ft in &t.faults {
            events.push(obj(vec![
                ("name", s(format!("fault: {} ({})", ft.kind.id(), ft.op))),
                ("ph", s("X")),
                ("pid", Value::UInt(pid as u64)),
                ("tid", Value::UInt(fault_tid as u64)),
                ("ts", us(ft.at_s)),
                ("dur", us(ft.charged_s)),
                (
                    "args",
                    obj(vec![
                        ("kind", s(ft.kind.id())),
                        ("op", s(&ft.op)),
                        ("fault_id", Value::UInt(ft.fault_id as u64)),
                    ]),
                ),
            ]));
        }
    }
    let doc = obj(vec![("traceEvents", Value::Array(events)), ("displayTimeUnit", s("ms"))]);
    serde_json::to_string(&doc).expect("chrome trace serializes")
}

/// CSV schema shared by every event row; empty cells mean "not applicable
/// to this event kind". Transfer rows book their bytes as `write_bytes`
/// (host→device) or `read_bytes` (device→host), viewing device memory.
pub const CSV_HEADER: &str = "plan,n,event,id,name,group,cu,phase,executions,\
start_us,dur_us,flops,lds_accesses,read_bytes,write_bytes,barriers";

fn csv_row(cells: &[String]) -> String {
    cells.join(",")
}

fn fmt_us(seconds: f64) -> String {
    format!("{:.3}", seconds * 1e6)
}

fn cost_cells(cost: &gpu_sim::cost::GroupCost) -> [String; 5] {
    [
        format!("{}", cost.flops),
        format!("{}", cost.lds_accesses),
        format!("{}", cost.read_bytes),
        format!("{}", cost.write_bytes),
        cost.barriers.to_string(),
    ]
}

/// Renders captures as flat CSV: one `launch` row per kernel launch,
/// followed by its `phase` aggregates and per-work-group `group` spans,
/// then `transfer`, `marker`, and (only under fault injection) `fault`
/// rows — a fault row's `name` is the fault kind, its `phase` column holds
/// the faulted operation, and `dur_us` is the simulated time the fault
/// cost. Fully deterministic for a fixed workload seed — the golden-trace
/// tests diff this byte-for-byte.
pub fn csv(traces: &[PlanTrace]) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for pt in traces {
        let t = &pt.trace;
        let lead =
            |event: &str| vec![pt.plan.id().to_string(), pt.n.to_string(), event.to_string()];
        for lt in &t.launches {
            let mut cells = lead("launch");
            cells.extend([lt.launch_id.to_string(), lt.kernel.clone()]);
            cells.extend(["".into(), "".into(), "".into(), "".into()]);
            cells.extend([fmt_us(lt.start_s), fmt_us(lt.timing.seconds)]);
            cells.extend(cost_cells(&lt.timing.total_cost));
            out.push_str(&csv_row(&cells));
            out.push('\n');
            for ph in &lt.phases {
                let mut cells = lead("phase");
                cells.extend([lt.launch_id.to_string(), ph.label.clone()]);
                cells.extend(["".into(), "".into()]);
                cells.extend([ph.phase.to_string(), ph.executions.to_string()]);
                cells.extend(["".into(), "".into()]);
                cells.extend(cost_cells(&ph.cost));
                out.push_str(&csv_row(&cells));
                out.push('\n');
            }
            for g in &lt.groups {
                let start_s = lt.start_s + g.start_cycle / t.clock_hz;
                let dur_s = (g.end_cycle - g.start_cycle) / t.clock_hz;
                let mut cells = lead("group");
                cells.extend([lt.launch_id.to_string(), lt.kernel.clone()]);
                cells.extend([g.group.to_string(), g.cu.to_string()]);
                cells.extend(["".into(), "".into()]);
                cells.extend([fmt_us(start_s), fmt_us(dur_s)]);
                cells.extend(cost_cells(&g.cost));
                out.push_str(&csv_row(&cells));
                out.push('\n');
            }
        }
        for tr in &t.transfers {
            let mut cells = lead("transfer");
            cells.extend([
                tr.transfer_id.to_string(),
                if tr.to_device { "h2d".into() } else { "d2h".into() },
            ]);
            cells.extend(["".into(), "".into(), "".into(), "".into()]);
            cells.extend([fmt_us(tr.start_s), fmt_us(tr.seconds)]);
            let (read, write) = if tr.to_device { (0, tr.bytes) } else { (tr.bytes, 0) };
            cells.extend(["".into(), "".into(), read.to_string(), write.to_string(), "".into()]);
            out.push_str(&csv_row(&cells));
            out.push('\n');
        }
        for m in &t.markers {
            let mut cells = lead("marker");
            cells.extend(["".into(), m.label.clone()]);
            cells.extend(["".into(), "".into(), "".into(), "".into()]);
            cells.extend([fmt_us(m.at_s), "".into()]);
            cells.extend(["".into(), "".into(), "".into(), "".into(), "".into()]);
            out.push_str(&csv_row(&cells));
            out.push('\n');
        }
        // absent entirely in fault-free runs, so golden traces are unchanged
        for ft in &t.faults {
            let mut cells = lead("fault");
            cells.extend([ft.fault_id.to_string(), ft.kind.id().to_string()]);
            cells.extend(["".into(), "".into(), ft.op.clone(), "".into()]);
            cells.extend([fmt_us(ft.at_s), fmt_us(ft.charged_s)]);
            cells.extend(["".into(), "".into(), "".into(), "".into(), "".into()]);
            out.push_str(&csv_row(&cells));
            out.push('\n');
        }
    }
    out
}

/// The size `--trace` captures at: the largest configured size that keeps
/// the trace readable (≤ 4096 work-items), falling back to the smallest
/// configured size.
pub fn default_trace_n(cfg: &ExperimentConfig) -> usize {
    cfg.sizes
        .iter()
        .copied()
        .filter(|&n| n <= 4096)
        .max()
        .or_else(|| cfg.sizes.iter().copied().min())
        .unwrap_or(1024)
}

/// Writes captures to `path`: CSV when the extension is `.csv`, Chrome
/// trace JSON otherwise.
pub fn write_trace(path: &str, traces: &[PlanTrace]) -> std::io::Result<()> {
    let doc = if path.ends_with(".csv") { csv(traces) } else { chrome_trace_json(traces) };
    std::fs::write(path, doc)
}

/// The path following `--trace`, if the flag is present.
pub fn trace_flag(args: &[String]) -> Option<&str> {
    let pos = args.iter().position(|a| a == "--trace")?;
    Some(args.get(pos + 1).map(String::as_str).unwrap_or("trace.json"))
}

/// Implements the `--trace <path>` flag of `repro-all` and its subcommands:
/// when present, captures all four plans at [`default_trace_n`] and writes
/// the file. The runner is shared with the experiment so workloads and
/// measurements are reused where sizes overlap. A failed write surfaces as
/// a typed error so binaries exit non-zero instead of panicking.
pub fn run_trace_flag(args: &[String], runner: &mut Runner) -> Result<(), HarnessError> {
    let Some(path) = trace_flag(args) else { return Ok(()) };
    let path = path.to_string();
    let n = default_trace_n(&runner.cfg);
    let traces = capture_all(runner, n);
    write_trace(&path, &traces).map_err(|e| HarnessError::io(&path, e))?;
    eprintln!("wrote execution trace of all four plans at N={n} to {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_traces() -> Vec<PlanTrace> {
        let mut cfg = ExperimentConfig::quick();
        cfg.sizes = vec![256];
        let mut runner = Runner::new(cfg);
        capture_all(&mut runner, 256)
    }

    #[test]
    fn chrome_trace_is_valid_json_covering_all_plans() {
        let traces = quick_traces();
        let json = chrome_trace_json(&traces);
        let doc = serde_json::parse_value(&json).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|v| v.as_array()).expect("traceEvents");
        assert!(!events.is_empty());
        // every plan appears as a process_name metadata event
        for kind in PlanKind::all() {
            assert!(
                events.iter().any(|e| {
                    e.get("ph").and_then(Value::as_str) == Some("M")
                        && e.get("args")
                            .and_then(|a| a.get("name"))
                            .and_then(Value::as_str)
                            .is_some_and(|n| n.starts_with(kind.id()))
                }),
                "missing process for {}",
                kind.id()
            );
        }
        // complete events carry ts and dur
        let complete: Vec<&Value> =
            events.iter().filter(|e| e.get("ph").and_then(Value::as_str) == Some("X")).collect();
        assert!(!complete.is_empty());
        for e in &complete {
            assert!(e.get("ts").and_then(Value::as_f64).is_some_and(|t| t >= 0.0));
            assert!(e.get("dur").and_then(Value::as_f64).is_some_and(|d| d >= 0.0));
        }
        // markers from the plans' annotate() calls survive as instants
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Value::as_str) == Some("i-parallel: force-eval")));
    }

    #[test]
    fn csv_has_all_event_kinds_and_constant_width() {
        let traces = quick_traces();
        let text = csv(&traces);
        let mut lines = text.lines();
        let header = lines.next().unwrap();
        assert_eq!(header, CSV_HEADER);
        let width = header.split(',').count();
        let mut kinds = std::collections::HashSet::new();
        for line in lines {
            assert_eq!(line.split(',').count(), width, "ragged row: {line}");
            kinds.insert(line.split(',').nth(2).unwrap().to_string());
        }
        for kind in ["launch", "phase", "group", "transfer", "marker"] {
            assert!(kinds.contains(kind), "no {kind} rows");
        }
    }

    #[test]
    fn capture_is_deterministic() {
        let a = csv(&quick_traces());
        let b = csv(&quick_traces());
        assert_eq!(a, b);
    }

    #[test]
    fn fault_injection_shows_up_in_both_exports() {
        // deterministic seed scan: the first seed whose schedule injects
        // something is fixed forever
        let traces = (0..20)
            .map(|seed| {
                let mut cfg = ExperimentConfig::quick();
                cfg.sizes = vec![256];
                cfg.fault_seed = Some(seed);
                capture_all(&mut Runner::new(cfg), 256)
            })
            .find(|traces| traces.iter().any(|pt| !pt.trace.faults.is_empty()))
            .expect("some seed in 0..20 must inject a fault across four plans");
        let text = csv(&traces);
        let fault_rows: Vec<&str> =
            text.lines().filter(|l| l.split(',').nth(2) == Some("fault")).collect();
        assert!(!fault_rows.is_empty());
        let width = CSV_HEADER.split(',').count();
        for row in &fault_rows {
            assert_eq!(row.split(',').count(), width, "ragged fault row: {row}");
        }
        let json = chrome_trace_json(&traces);
        assert!(json.contains("fault: "), "chrome trace must carry fault spans");
        // fault-free capture stays byte-identical to before faults existed
        let clean = csv(&quick_traces());
        assert!(!clean.contains(",fault,"));
    }

    #[test]
    fn trace_flag_parses_path() {
        let args = vec!["--quick".to_string(), "--trace".to_string(), "out.json".to_string()];
        assert_eq!(trace_flag(&args), Some("out.json"));
        assert_eq!(trace_flag(&["--quick".to_string()]), None);
    }

    #[test]
    fn default_trace_n_prefers_modest_sizes() {
        let cfg = ExperimentConfig::paper();
        assert_eq!(default_trace_n(&cfg), 4096);
        let mut tiny = ExperimentConfig::quick();
        tiny.sizes = vec![8192, 16384];
        assert_eq!(default_trace_n(&tiny), 8192);
    }
}
