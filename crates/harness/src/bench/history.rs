//! The committed benchmark trajectory and its regression gate
//! (`repro-all bench-history`).
//!
//! `bench/history.jsonl` holds one [`HistoryEntry`] per line, append-only:
//! a labelled, sequenced [`BenchReport`]. [`verdict`] judges the newest
//! entry against the prior entries from the same *machine class* — the
//! parallel class (≥ 2 workers on a ≥ 2-way machine), the available
//! parallelism and the CPU model — because wall-clock numbers from another
//! machine say nothing about this one:
//!
//! * **bit-exactness is never waived** — any non-bit-exact row in the
//!   newest entry fails, baseline or not;
//! * **absolute time** — each `clock: wall` row at n ≥ [`SPEEDUP_GATE_N`]
//!   may take at most `median / (1 − BAND)` seconds, the median over the
//!   same row key (layer, plan, variant, backend, n, threads) in the
//!   comparable entries, so a uniform slowdown of every path fails;
//! * **parallel speedup** — each `serial`/`threaded` pair's ratio may fall
//!   at most [`BAND`] below the median of its comparable ratios;
//! * rows on the simulated and forecast clocks are never gated here: they
//!   are deterministic, and they are never compared with wall rows;
//! * no comparable baseline (first entry, new machine class, new size) is
//!   an explicit `SKIP`, never a silent pass.
//!
//! Medians, not means, so one noisy run cannot drag the baseline; the
//! band is wide (35%) because the gate is meant to catch architectural
//! regressions, not 3% jitter.

use super::{BenchReport, BenchRow, Clock, SPEEDUP_GATE_N};
use serde::{Deserialize, Serialize};

/// Relative noise band of both wall-clock checks.
pub const BAND: f64 = 0.35;

/// One line of `bench/history.jsonl`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HistoryEntry {
    /// Monotone sequence number (1-based, assigned at append).
    pub seq: u64,
    /// Where the snapshot came from (`pr9-seed`, `ci`, …).
    pub label: String,
    /// The suite run itself.
    pub report: BenchReport,
}

impl HistoryEntry {
    /// True when `other` ran on the same machine class.
    fn same_machine(&self, other: &HistoryEntry) -> bool {
        let class = |r: &BenchReport| {
            (r.threads >= 2 && r.available_parallelism >= 2, r.available_parallelism)
        };
        class(&self.report) == class(&other.report)
            && self.report.cpu_model == other.report.cpu_model
    }
}

/// The whole trajectory, oldest first.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// The entries, ascending by `seq`.
    pub entries: Vec<HistoryEntry>,
}

impl History {
    /// Parses the JSONL form. Blank lines are tolerated; anything
    /// unparseable is an error naming the line, so a corrupt committed
    /// history fails loudly instead of gating vacuously.
    pub fn parse(text: &str) -> Result<History, String> {
        let mut entries = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let entry: HistoryEntry =
                serde_json::from_str(line).map_err(|e| format!("history line {}: {e}", i + 1))?;
            entries.push(entry);
        }
        Ok(History { entries })
    }

    /// Serializes back to JSONL (one compact line per entry).
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            out.push_str(&serde_json::to_string(entry).expect("history entry serializes"));
            out.push('\n');
        }
        out
    }

    /// Appends a snapshot with the next sequence number.
    pub fn append(&mut self, label: &str, report: BenchReport) -> &HistoryEntry {
        let seq = self.entries.last().map_or(0, |e| e.seq) + 1;
        self.entries.push(HistoryEntry { seq, label: label.to_string(), report });
        self.entries.last().expect("just pushed")
    }

    /// Each wall row's seconds per entry, rendered for humans.
    pub fn render_trajectory(&self) -> String {
        let mut keys: Vec<&BenchRow> = Vec::new();
        for row in self.entries.iter().flat_map(|e| &e.report.rows) {
            if row.clock == Clock::Wall && !keys.iter().any(|k| same_series(k, row)) {
                keys.push(row);
            }
        }
        let mut out = String::new();
        for key in keys {
            out.push_str(&format!(
                "{} {} {} n={} t={}:",
                key.layer, key.plan, key.variant, key.n, key.threads
            ));
            for e in &self.entries {
                if let Some(r) = e.report.rows.iter().find(|r| same_series(key, r)) {
                    out.push_str(&format!(" {}:{:.4}s", e.seq, r.seconds));
                }
            }
            out.push('\n');
        }
        if !out.is_empty() {
            out.push_str("(wall seconds per entry seq)\n");
        }
        out
    }
}

/// True when `a` and `b` measure the same thing on the same clock.
fn same_series(a: &BenchRow, b: &BenchRow) -> bool {
    a.same_key(b) && a.variant == b.variant && a.threads == b.threads && a.clock == b.clock
}

/// Multiplies every wall row's seconds by `factor` (the negative control:
/// a uniform slowdown of every measured path).
pub fn inject_slowdown(report: &mut BenchReport, factor: f64) {
    for row in report.rows.iter_mut().filter(|r| r.clock == Clock::Wall) {
        row.seconds *= factor;
        row.interactions_per_s = row.interactions_per_s.map(|v| v / factor);
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The `serial / threaded` ratio of `serial`'s pair in `report`.
fn speedup(report: &BenchReport, serial: &BenchRow) -> Option<f64> {
    report
        .rows
        .iter()
        .find(|r| r.same_key(serial) && r.variant == "threaded" && r.clock == Clock::Wall)
        .map(|t| serial.seconds / t.seconds.max(1e-12))
}

/// The trajectory gate: judges the newest entry against the prior history.
/// Returns a greppable one-liner starting with `BENCH HISTORY OK`,
/// `BENCH HISTORY SKIP (…)`, or `BENCH HISTORY FAIL (…)`.
pub fn verdict(history: &History) -> String {
    let Some(latest) = history.entries.last() else {
        return "BENCH HISTORY SKIP (no history)".into();
    };
    if let Some(bad) = latest.report.rows.iter().find(|r| !r.bitexact) {
        return format!(
            "BENCH HISTORY FAIL ({} {} n={} not bit-exact in entry {})",
            bad.plan, bad.variant, bad.n, latest.seq
        );
    }
    let prior = &history.entries[..history.entries.len() - 1];
    if prior.is_empty() {
        return "BENCH HISTORY SKIP (no baseline)".into();
    }
    let comparable: Vec<&BenchReport> =
        prior.iter().filter(|e| e.same_machine(latest)).map(|e| &e.report).collect();
    let gated: Vec<&BenchRow> = latest
        .report
        .rows
        .iter()
        .filter(|r| r.clock == Clock::Wall && r.n >= SPEEDUP_GATE_N)
        .collect();
    if gated.is_empty() {
        return format!("BENCH HISTORY SKIP (no wall-clock size reaches {SPEEDUP_GATE_N})");
    }
    let mut checked = 0usize;
    let mut worst: Option<(f64, String)> = None;
    for row in gated {
        let tag = format!("{} {} {} n={}", row.layer, row.plan, row.variant, row.n);
        let mut judged = Vec::new();
        // parallel speedup of a serial/threaded pair
        if row.variant == "serial" {
            if let Some(s) = speedup(&latest.report, row) {
                let base: Vec<f64> = comparable
                    .iter()
                    .filter_map(|r| speedup(r, r.rows.iter().find(|p| same_series(p, row))?))
                    .collect();
                if !base.is_empty() {
                    let m = median(base);
                    let floor = m * (1.0 - BAND);
                    if s < floor {
                        return format!(
                            "BENCH HISTORY FAIL ({tag} speedup {s:.2}x fell below {floor:.2}x = median {m:.2}x - {:.0}% band)",
                            BAND * 100.0
                        );
                    }
                    judged.push(s / m.max(1e-12));
                }
            }
        }
        // absolute wall time of the row itself
        let base: Vec<f64> = comparable
            .iter()
            .flat_map(|r| &r.rows)
            .filter(|p| same_series(p, row))
            .map(|p| p.seconds)
            .collect();
        if !base.is_empty() {
            let m = median(base);
            let ceiling = m / (1.0 - BAND);
            if row.seconds > ceiling {
                return format!(
                    "BENCH HISTORY FAIL ({tag} t={} took {:.4}s, above {ceiling:.4}s = median {m:.4}s / (1 - {:.0}% band))",
                    row.threads,
                    row.seconds,
                    BAND * 100.0
                );
            }
            judged.push(m / row.seconds.max(1e-12));
        }
        checked += usize::from(!judged.is_empty());
        for ratio in judged {
            if worst.as_ref().is_none_or(|(w, _)| ratio < *w) {
                worst = Some((ratio, tag.clone()));
            }
        }
    }
    match worst {
        None => "BENCH HISTORY SKIP (no comparable baseline)".into(),
        Some((ratio, tag)) => {
            format!("BENCH HISTORY OK ({checked} gated rows; worst vs median {ratio:.2}x at {tag})")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry_report(rows: Vec<BenchRow>) -> BenchReport {
        BenchReport { threads: 4, available_parallelism: 8, cpu_model: "cpu".into(), rows }
    }

    fn wall_row(variant: &str, seconds: f64) -> BenchRow {
        BenchRow {
            layer: "plans".into(),
            plan: "jw-parallel".into(),
            variant: variant.into(),
            backend: "sim".into(),
            n: 8192,
            threads: if variant == "serial" { 1 } else { 4 },
            clock: Clock::Wall,
            seconds,
            interactions_per_s: Some(1e9 / seconds),
            bitexact: true,
            peak_device_bytes: None,
            shards: None,
        }
    }

    #[test]
    fn jsonl_round_trips_and_append_renumbers() {
        let mut h = History::default();
        for (i, s) in [1.5, 1.6, 1.2].into_iter().enumerate() {
            let report = entry_report(vec![wall_row("serial", 1.0), wall_row("threaded", 1.0 / s)]);
            h.append(&format!("e{i}"), report);
        }
        let text = h.render_jsonl();
        let back = History::parse(&text).unwrap();
        assert_eq!(back.entries.len(), 3);
        assert_eq!(back.entries.last().unwrap().seq, 3);
        assert_eq!(back.entries.last().unwrap().label, "e2");
        assert_eq!(back.entries[1].report.rows, h.entries[1].report.rows);
        assert_eq!(back.render_jsonl(), text);
        assert!(h.render_trajectory().contains("plans jw-parallel threaded n=8192 t=4: 1:0.6667s"));
        // blank lines tolerated, garbage is a named error
        assert!(History::parse("\n\n").unwrap().entries.is_empty());
        let err = History::parse("not json\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn committed_history_parses_and_tags_its_clocks() {
        let text = include_str!("../../../../bench/history.jsonl");
        let h = History::parse(text).unwrap();
        assert!(h.entries.len() >= 2);
        // the pr10 entry compares a modeled host path with a simulated
        // pipeline: no wall row, so never gated against the wall rows
        let pr10 = h.entries.iter().find(|e| e.label == "pr10-pipeline").unwrap();
        assert!(pr10.report.rows.iter().all(|r| r.clock == Clock::Simulated));
        let pr9 = h.entries.iter().find(|e| e.label == "pr9-seed").unwrap();
        assert!(pr9.report.rows.iter().all(|r| r.clock == Clock::Wall));
        assert!(!verdict(&h).contains("FAIL"), "{}", verdict(&h));
    }

    #[test]
    fn slowdown_touches_only_wall_rows() {
        let mut sim = wall_row("threaded", 2.0);
        sim.clock = Clock::Simulated;
        let mut report = entry_report(vec![wall_row("serial", 1.0), sim]);
        inject_slowdown(&mut report, 10.0);
        assert_eq!(report.rows[0].seconds, 10.0);
        assert_eq!(report.rows[1].seconds, 2.0);
    }
}
