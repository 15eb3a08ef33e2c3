//! Decision provenance: the per-slot "why" behind GreFar's
//! drift-plus-penalty decisions.
//!
//! `GreFar::decide_observed` emits one `decision.explain` event per data
//! center per slot (see `grefar-core`), carrying each DC's share of the
//! drift term of objective (14), its energy cost, routing/processing
//! volumes, the binding state of capacity constraint (11), and the
//! machine reason when a fallback overrode the solver. This module
//! groups those events by slot, cross-checks the attribution against the
//! `grefar.decide` decomposition — `Σ_i drift_i` must equal the recorded
//! drift, and `V·(Σ_i e_i − β·f)` the recorded penalty — and renders
//! either one slot's full table or a ranking of the slots that
//! contributed most to peak queue growth.

use crate::stream::{DecideSample, ExplainSample, TelemetryStream};
use std::fmt::Write as _;

/// Relative tolerance for the attribution cross-checks: the explain
/// events and the decide event are computed from the same floats in the
/// same process, so anything beyond accumulation-order noise is a bug.
const RECONCILE_TOLERANCE: f64 = 1e-6;

/// All `decision.explain` rows of one slot, with the matching
/// `grefar.decide` sample and the slot's queue movement.
#[derive(Debug, Clone)]
pub struct SlotExplain {
    /// The slot.
    pub t: u64,
    /// Per-DC provenance rows, in DC order as emitted.
    pub rows: Vec<ExplainSample<'static>>,
    /// The slot's `grefar.decide` sample (matched positionally — both
    /// families are emitted once per decided slot, in slot order).
    pub decide: Option<DecideSample<'static>>,
    /// `queue_max` at the end of this slot (from the `slot` event).
    pub queue_max: f64,
    /// Growth of `queue_max` over the previous slot — the ranking key
    /// for `--top-k`.
    pub queue_growth: f64,
}

impl SlotExplain {
    /// Sum of the per-DC drift contributions.
    pub fn drift_sum(&self) -> f64 {
        self.rows.iter().map(|r| r.drift).sum()
    }

    /// Sum of the per-DC energy costs.
    pub fn energy_sum(&self) -> f64 {
        self.rows.iter().map(|r| r.energy).sum()
    }

    /// The slot-wide fairness score (rides on the DC-0 row).
    pub fn fairness(&self) -> Option<f64> {
        self.rows.iter().find_map(|r| r.fairness)
    }

    /// The DC whose drift contribution has the largest magnitude.
    pub fn hottest_dc(&self) -> Option<&ExplainSample<'static>> {
        self.rows
            .iter()
            .max_by(|a, b| a.drift.abs().total_cmp(&b.drift.abs()))
    }

    /// The first fallback reason recorded for this slot, if any.
    pub fn reason(&self) -> Option<&str> {
        self.rows.iter().find_map(|r| r.reason.as_deref())
    }
}

/// A run's decision provenance, grouped by slot.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// The run's display label.
    pub label: String,
    /// One entry per decided slot, in slot order.
    pub slots: Vec<SlotExplain>,
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= RECONCILE_TOLERANCE * a.abs().max(b.abs()).max(1.0)
}

impl ExplainReport {
    /// Builds the report from the first run in `text` that carries
    /// `decision.explain` events.
    ///
    /// # Errors
    ///
    /// Returns `Err` when the document fails parsing or no run carries
    /// provenance events (pre-PR-8 streams, or non-GreFar schedulers).
    pub fn from_stream(text: &str) -> Result<ExplainReport, String> {
        let stream = TelemetryStream::parse(text)?;
        let run = stream
            .runs
            .iter()
            .find(|r| !r.explains.is_empty())
            .ok_or_else(|| {
                "no decision.explain events in stream — was the run scheduled by GreFar \
                 with telemetry enabled?"
                    .to_string()
            })?;
        let mut slots: Vec<SlotExplain> = Vec::new();
        for sample in &run.explains {
            match slots.last_mut() {
                Some(slot) if slot.t == sample.t => slot.rows.push(sample.clone()),
                _ => slots.push(SlotExplain {
                    t: sample.t,
                    rows: vec![sample.clone()],
                    decide: None,
                    queue_max: 0.0,
                    queue_growth: 0.0,
                }),
            }
        }
        let mut previous_queue_max = 0.0;
        for (idx, slot) in slots.iter_mut().enumerate() {
            slot.decide = run.decides.get(idx).cloned();
            if let Some(sample) = run.slots.iter().find(|s| s.t == slot.t) {
                slot.queue_max = sample.queue_max;
                slot.queue_growth = sample.queue_max - previous_queue_max;
                previous_queue_max = sample.queue_max;
            }
        }
        Ok(ExplainReport {
            label: run.display_label().to_string(),
            slots,
        })
    }

    /// Cross-checks every slot's attribution against its `grefar.decide`
    /// decomposition. Empty means everything reconciles.
    pub fn reconcile(&self) -> Vec<String> {
        let mut failures = Vec::new();
        for slot in &self.slots {
            let Some(decide) = &slot.decide else { continue };
            let drift_sum = slot.drift_sum();
            if !close(drift_sum, decide.drift) {
                failures.push(format!(
                    "slot {}: explain drift sum {drift_sum} != decide drift {}",
                    slot.t, decide.drift
                ));
            }
            // Penalty = V·g = V·(energy − β·fairness); the fairness score
            // rides on the DC-0 row, so the check needs it present.
            if let Some(fairness) = slot.fairness() {
                let penalty = decide.v * (slot.energy_sum() - decide.beta * fairness);
                if !close(penalty, decide.penalty) {
                    failures.push(format!(
                        "slot {}: V*(energy - beta*fairness) = {penalty} != decide penalty {}",
                        slot.t, decide.penalty
                    ));
                }
            }
        }
        failures
    }

    fn slot_at(&self, t: u64) -> Option<&SlotExplain> {
        self.slots.iter().find(|s| s.t == t)
    }

    /// Renders one slot's full per-DC "why" table.
    ///
    /// # Errors
    ///
    /// Returns `Err` when slot `t` carries no provenance events.
    pub fn render_slot(&self, t: u64) -> Result<String, String> {
        let slot = self
            .slot_at(t)
            .ok_or_else(|| format!("no decision.explain events for slot {t}"))?;
        let mut out = String::new();
        match &slot.decide {
            Some(decide) => {
                let _ = writeln!(
                    out,
                    "slot {} — {}: objective {:.4}, drift {:.4}, penalty {:.4} ({})",
                    slot.t,
                    self.label,
                    decide.objective,
                    decide.drift,
                    decide.penalty,
                    decide.solver
                );
            }
            None => {
                let _ = writeln!(out, "slot {} — {}", slot.t, self.label);
            }
        }
        let _ = writeln!(
            out,
            "  {:>3}  {:>10}  {:>8}  {:>7}  {:>9}  {:>8}  {:>15}  reason",
            "dc", "drift", "energy", "routed", "processed", "backlog", "busy/capacity"
        );
        for row in &slot.rows {
            // The capacity constraint (11) binds when the scheduled work
            // exhausts the DC's service rate.
            let binding = if row.busy >= row.capacity - 1e-9 * row.capacity.abs().max(1.0) {
                "*"
            } else {
                " "
            };
            let _ = writeln!(
                out,
                "  {:>3}  {:>10.4}  {:>8.4}  {:>7.2}  {:>9.2}  {:>8.2}  {:>7.2}/{:<6.2}{binding} {}",
                row.dc,
                row.drift,
                row.energy,
                row.routed,
                row.processed,
                row.backlog,
                row.busy,
                row.capacity,
                row.reason.as_deref().unwrap_or("-")
            );
        }
        let _ = writeln!(
            out,
            "  sum  {:>10.4}  {:>8.4}   (queue_max {:.2}, growth {:+.2})",
            slot.drift_sum(),
            slot.energy_sum(),
            slot.queue_max,
            slot.queue_growth
        );
        if let Some(fairness) = slot.fairness() {
            let deficits = slot
                .rows
                .iter()
                .find_map(|r| r.deficits.as_deref())
                .unwrap_or("-");
            let _ = writeln!(
                out,
                "  fairness f(t) = {fairness:.4}; deficits (gamma - x) = {deficits}"
            );
        }
        Ok(out)
    }

    /// Renders the `k` slots that contributed most to peak queue growth,
    /// largest growth first (ties broken by slot order).
    pub fn render_top(&self, k: usize) -> String {
        let mut ranked: Vec<&SlotExplain> = self.slots.iter().collect();
        ranked.sort_by(|a, b| {
            b.queue_growth
                .total_cmp(&a.queue_growth)
                .then_with(|| a.t.cmp(&b.t))
        });
        ranked.truncate(k);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "top {} of {} slots by queue growth — {}",
            ranked.len(),
            self.slots.len(),
            self.label
        );
        let _ = writeln!(
            out,
            "  {:>4}  {:>5}  {:>8}  {:>9}  {:>10}  {:>9}  {:>3}  reason",
            "rank", "t", "dq_max", "queue_max", "drift", "penalty", "dc"
        );
        for (rank, slot) in ranked.iter().enumerate() {
            let (drift, penalty) = slot
                .decide
                .as_ref()
                .map(|d| (d.drift, d.penalty))
                .unwrap_or((slot.drift_sum(), f64::NAN));
            let hottest = slot.hottest_dc().map(|r| r.dc.to_string());
            let _ = writeln!(
                out,
                "  {:>4}  {:>5}  {:>+8.2}  {:>9.2}  {:>10.4}  {:>9.4}  {:>3}  {}",
                rank + 1,
                slot.t,
                slot.queue_growth,
                slot.queue_max,
                drift,
                penalty,
                hottest.as_deref().unwrap_or("-"),
                slot.reason().unwrap_or("-")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn explain_line(t: u64, dc: u64, drift: f64, energy: f64, extra: &str) -> String {
        format!(
            "{{\"schema\":1,\"event\":\"decision.explain\",\"t\":{t},\"dc\":{dc},\
             \"drift\":{drift},\"energy\":{energy},\"routed\":2,\"processed\":2,\
             \"backlog\":6,\"busy\":4,\"capacity\":15{extra}}}\n"
        )
    }

    fn decide_line(t: u64, drift: f64, penalty: f64) -> String {
        format!(
            "{{\"schema\":1,\"event\":\"grefar.decide\",\"t\":{t},\"v\":2,\"beta\":0.5,\
             \"objective\":{},\"drift\":{drift},\"penalty\":{penalty},\"solver\":\"greedy\",\
             \"fw_iterations\":0,\"fw_gap\":0,\"wall_us\":3}}\n",
            drift + penalty
        )
    }

    fn slot_line(t: u64, queue_max: f64) -> String {
        format!(
            "{{\"schema\":1,\"event\":\"slot\",\"t\":{t},\"queue_central\":1,\"queue_local\":1,\
             \"queue_max\":{queue_max},\"energy\":1,\"fairness\":-0.2,\"arrivals\":3,\
             \"dropped\":0,\"wall_us\":5}}\n"
        )
    }

    /// Two slots, two DCs; penalty = V·(Σe − β·f) = 2·(1.0 − 0.5·(−0.2)) = 2.2.
    fn sample_stream() -> String {
        let mut text = String::from(
            "{\"schema\":1,\"event\":\"run.start\",\"scheduler\":\"GreFar(V=2)\",\"horizon\":2}\n",
        );
        for t in 0..2 {
            text += &decide_line(t, -6.0, 2.2);
            text += &explain_line(
                t,
                0,
                -4.0,
                0.6,
                ",\"fairness\":-0.2,\"deficits\":\"0.1,-0.1\"",
            );
            text += &explain_line(t, 1, -2.0, 0.4, "");
            text += &slot_line(t, if t == 0 { 4.0 } else { 9.0 });
        }
        text += "{\"schema\":1,\"event\":\"run.end\",\"slots\":2,\"completed\":4,\"dropped\":0,\"wall_us\":9}\n";
        text
    }

    #[test]
    fn groups_slots_and_reconciles() {
        let report = ExplainReport::from_stream(&sample_stream()).unwrap();
        assert_eq!(report.slots.len(), 2);
        assert_eq!(report.slots[0].rows.len(), 2);
        assert!((report.slots[1].queue_growth - 5.0).abs() < 1e-12);
        assert!(report.reconcile().is_empty(), "{:?}", report.reconcile());
    }

    #[test]
    fn bad_attribution_fails_reconciliation() {
        let broken = sample_stream().replace("\"drift\":-4,", "\"drift\":-3,");
        let report = ExplainReport::from_stream(&broken).unwrap();
        let failures = report.reconcile();
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("drift sum"), "{failures:?}");

        let skewed = sample_stream().replace("\"penalty\":2.2", "\"penalty\":9.9");
        let report = ExplainReport::from_stream(&skewed).unwrap();
        assert!(
            report.reconcile().iter().any(|f| f.contains("penalty")),
            "{:?}",
            report.reconcile()
        );
    }

    #[test]
    fn renders_a_slot_table() {
        let report = ExplainReport::from_stream(&sample_stream()).unwrap();
        let table = report.render_slot(1).unwrap();
        assert!(table.contains("slot 1 — GreFar(V=2)"), "{table}");
        assert!(table.contains("greedy"), "{table}");
        assert!(table.contains("deficits (gamma - x) = 0.1,-0.1"), "{table}");
        assert!(table.contains("4.00/15.00"), "{table}");
        assert!(report.render_slot(7).is_err());
    }

    #[test]
    fn binding_capacity_is_marked() {
        let saturated =
            sample_stream().replace("\"busy\":4,\"capacity\":15", "\"busy\":15,\"capacity\":15");
        let report = ExplainReport::from_stream(&saturated).unwrap();
        let table = report.render_slot(0).unwrap();
        assert!(table.contains("15.00/15.00 *"), "{table}");
    }

    #[test]
    fn top_k_ranks_by_queue_growth() {
        let report = ExplainReport::from_stream(&sample_stream()).unwrap();
        let table = report.render_top(1);
        assert!(table.contains("top 1 of 2 slots"), "{table}");
        // Slot 1 grew by 5.0 vs slot 0's 4.0, so it ranks first.
        let line = table.lines().nth(2).unwrap();
        assert!(line.trim_start().starts_with("1      1"), "{table}");
    }

    #[test]
    fn fallback_reason_is_surfaced() {
        let degraded = sample_stream().replace(
            "\"capacity\":15}",
            "\"capacity\":15,\"reason\":\"dc_offline\"}",
        );
        let report = ExplainReport::from_stream(&degraded).unwrap();
        assert!(report.render_slot(0).unwrap().contains("dc_offline"));
        assert!(report.render_top(2).contains("dc_offline"));
    }

    #[test]
    fn streams_without_provenance_are_an_error() {
        let bare = "{\"schema\":1,\"event\":\"run.start\",\"scheduler\":\"Always\",\"horizon\":0}\n\
                    {\"schema\":1,\"event\":\"run.end\",\"slots\":0,\"completed\":0,\"dropped\":0,\"wall_us\":1}\n";
        let err = ExplainReport::from_stream(bare).unwrap_err();
        assert!(err.contains("decision.explain"), "{err}");
    }
}
