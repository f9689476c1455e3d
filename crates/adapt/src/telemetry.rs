//! Per-run adaptation telemetry: the epoch log.
//!
//! While an adaptive run executes, the simulator appends one
//! [`EpochRecord`] per epoch for the monitored core (core 0, the one
//! running the benchmark): the epoch's [`EpochFeedback`], the prefetcher
//! that produced it, and every directive the policy emitted at the
//! boundary. The full [`AdaptTelemetry`] rides in the simulation result
//! and from there into experiment report JSON, and carries the counter
//! invariants the CI smoke arm pins down.

use crate::EpochFeedback;
use bosim_stats::{Align, DecodeError, Json, Table};

/// One applied-or-rejected directive at an epoch boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectiveRecord {
    /// Rendered site-addressed directive (e.g. `"l2:degree=2"`,
    /// `"l3:prefetch=off"`, `"l2:switch=none"`).
    pub directive: String,
    /// Whether the target prefetcher (or the simulator, for switches)
    /// accepted it.
    pub applied: bool,
}

/// One epoch of the monitored core's adaptation history.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// The epoch's feedback (counter deltas + derived rates).
    pub feedback: EpochFeedback,
    /// Name of the prefetcher that ran during this epoch.
    pub prefetcher: String,
    /// Directives the policy emitted at this epoch's end boundary.
    pub directives: Vec<DirectiveRecord>,
}

impl EpochRecord {
    fn to_json(&self) -> Json {
        let mut obj = match self.feedback.to_json() {
            Json::Obj(pairs) => pairs,
            _ => unreachable!("feedback renders as an object"),
        };
        obj.push(("prefetcher".into(), Json::from(self.prefetcher.as_str())));
        obj.push((
            "directives".into(),
            Json::arr(self.directives.iter().map(|d| {
                Json::obj([
                    ("directive", Json::from(d.directive.as_str())),
                    ("applied", Json::from(d.applied)),
                ])
            })),
        ));
        Json::Obj(obj)
    }

    fn from_json(doc: &Json) -> Result<EpochRecord, DecodeError> {
        Ok(EpochRecord {
            feedback: EpochFeedback::from_json(doc)?,
            prefetcher: doc.str_field("prefetcher")?.to_string(),
            directives: decode_items(doc, "directives", |d| {
                Ok(DirectiveRecord {
                    directive: d.str_field("directive")?.to_string(),
                    applied: d.bool_field("applied")?,
                })
            })?,
        })
    }
}

/// Decodes every element of array field `key` with `item`, naming the
/// failing element's index in the error path.
fn decode_items<T>(
    doc: &Json,
    key: &str,
    item: impl Fn(&Json) -> Result<T, DecodeError>,
) -> Result<Vec<T>, DecodeError> {
    doc.arr_field(key)?
        .iter()
        .enumerate()
        .map(|(i, v)| item(v).map_err(|e| e.within(&format!("[{i}]"))))
        .collect::<Result<_, _>>()
        .map_err(|e| e.within(key))
}

/// The complete adaptation history of one simulation run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AdaptTelemetry {
    /// The tuning policy's label.
    pub policy: String,
    /// Epoch length in cycles.
    pub epoch_cycles: u64,
    /// One record per completed epoch of the monitored core, in order.
    /// (The trailing partial epoch at run end is not recorded.)
    pub epochs: Vec<EpochRecord>,
    /// Directives applied successfully, all cores.
    pub applied: u64,
    /// Directives rejected (unsupported by the running prefetcher), all
    /// cores.
    pub rejected: u64,
}

impl AdaptTelemetry {
    /// Checks the counter invariants the telemetry must satisfy:
    ///
    /// * cumulatively, `useful + unused_evicted <= prefetch_fills` at
    ///   **every site** (the flat L2 counters and the `l3` block) —
    ///   every prefetch-filled line resolves at most once;
    /// * every derived rate (accuracy, coverage, lateness, per-site
    ///   accuracy) lies in `[0, 1]`;
    /// * bus occupancy is non-negative and sane (≤ 1.25; boundary bursts
    ///   may spill a little past 1.0);
    /// * epoch indices are consecutive.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let (mut useful, mut unused, mut fills) = (0u64, 0u64, 0u64);
        let (mut l3_useful, mut l3_unused, mut l3_fills) = (0u64, 0u64, 0u64);
        for (i, r) in self.epochs.iter().enumerate() {
            let fb = &r.feedback;
            if fb.epoch != i as u64 {
                return Err(format!("epoch {i} recorded index {}", fb.epoch));
            }
            useful += fb.useful_fills;
            unused += fb.unused_evicted;
            fills += fb.prefetch_fills;
            l3_useful += fb.l3.useful_fills;
            l3_unused += fb.l3.unused_evicted;
            l3_fills += fb.l3.prefetch_fills;
            for (label, rate) in [
                ("accuracy", fb.accuracy()),
                ("coverage", fb.coverage()),
                ("lateness", fb.lateness()),
                ("l3 accuracy", fb.l3.accuracy()),
            ] {
                if let Some(v) = rate {
                    if !(0.0..=1.0).contains(&v) {
                        return Err(format!("epoch {i}: {label} {v} outside [0, 1]"));
                    }
                }
            }
            if !(0.0..=1.25).contains(&fb.bus_occupancy) {
                return Err(format!(
                    "epoch {i}: bus occupancy {} outside [0, 1.25]",
                    fb.bus_occupancy
                ));
            }
        }
        if useful + unused > fills {
            return Err(format!(
                "L2 site: useful ({useful}) + unused-evicted ({unused}) exceeds prefetch fills ({fills})"
            ));
        }
        if l3_useful + l3_unused > l3_fills {
            return Err(format!(
                "L3 site: useful ({l3_useful}) + unused-evicted ({l3_unused}) exceeds prefetch fills ({l3_fills})"
            ));
        }
        Ok(())
    }

    /// The telemetry as a JSON tree (one object per epoch plus totals).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("policy", Json::from(self.policy.as_str())),
            ("epoch_cycles", Json::from(self.epoch_cycles)),
            ("directives_applied", Json::from(self.applied)),
            ("directives_rejected", Json::from(self.rejected)),
            (
                "epochs",
                Json::arr(self.epochs.iter().map(EpochRecord::to_json)),
            ),
        ])
    }

    /// Decodes [`to_json`](Self::to_json)'s output: re-rendering the
    /// decoded telemetry reproduces the input bytes.
    ///
    /// # Errors
    ///
    /// A [`DecodeError`] whose path names the first missing or
    /// ill-typed field (e.g. `epochs[2].l3.issued`).
    pub fn from_json(doc: &Json) -> Result<AdaptTelemetry, DecodeError> {
        Ok(AdaptTelemetry {
            policy: doc.str_field("policy")?.to_string(),
            epoch_cycles: doc.u64_field("epoch_cycles")?,
            epochs: decode_items(doc, "epochs", EpochRecord::from_json)?,
            applied: doc.u64_field("directives_applied")?,
            rejected: doc.u64_field("directives_rejected")?,
        })
    }

    /// An aligned text table of the epoch history — the human-readable
    /// counterpart of [`to_json`](Self::to_json).
    pub fn table(&self) -> Table {
        let mut t = Table::new([
            "epoch",
            "prefetcher",
            "ipc",
            "accuracy",
            "coverage",
            "lateness",
            "bus",
            "directives",
        ]);
        t.align([
            Align::Right,
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Left,
        ]);
        let rate = |v: Option<f64>| v.map(|x| format!("{x:.2}")).unwrap_or_else(|| "-".into());
        for r in &self.epochs {
            let fb = &r.feedback;
            let dirs: Vec<String> = r
                .directives
                .iter()
                .map(|d| {
                    if d.applied {
                        d.directive.clone()
                    } else {
                        format!("{}(rejected)", d.directive)
                    }
                })
                .collect();
            t.row([
                fb.epoch.to_string(),
                r.prefetcher.clone(),
                format!("{:.3}", fb.ipc()),
                rate(fb.accuracy()),
                rate(fb.coverage()),
                rate(fb.lateness()),
                format!("{:.2}", fb.bus_occupancy),
                dirs.join(" "),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(epoch: u64, fills: u64, useful: u64, unused: u64) -> EpochRecord {
        EpochRecord {
            feedback: EpochFeedback {
                epoch,
                cycles: 1_000,
                instructions: 800,
                prefetch_fills: fills,
                useful_fills: useful,
                unused_evicted: unused,
                bus_occupancy: 0.3,
                ..Default::default()
            },
            prefetcher: "BO".into(),
            directives: vec![DirectiveRecord {
                directive: "degree=2".into(),
                applied: true,
            }],
        }
    }

    fn telemetry(epochs: Vec<EpochRecord>) -> AdaptTelemetry {
        AdaptTelemetry {
            policy: "degree-governor".into(),
            epoch_cycles: 1_000,
            epochs,
            applied: 1,
            rejected: 0,
        }
    }

    #[test]
    fn invariants_hold_for_a_sane_log() {
        // A fill from epoch 0 may resolve in epoch 1: the invariant is
        // cumulative, not per-epoch.
        let t = telemetry(vec![record(0, 100, 10, 0), record(1, 0, 60, 20)]);
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn over_resolution_is_caught() {
        let t = telemetry(vec![record(0, 50, 40, 20)]);
        let err = t.check_invariants().unwrap_err();
        assert!(err.contains("exceeds prefetch fills"), "{err}");
        assert!(err.contains("L2 site"), "{err}");
    }

    #[test]
    fn l3_site_over_resolution_is_caught() {
        // The per-site invariant applies to the L3 block independently.
        let mut r = record(0, 100, 10, 0);
        r.feedback.l3 = crate::SiteFeedback {
            issued: 5,
            prefetch_fills: 4,
            useful_fills: 3,
            unused_evicted: 2,
        };
        let err = telemetry(vec![r]).check_invariants().unwrap_err();
        assert!(err.contains("L3 site"), "{err}");
        // A consistent L3 block passes.
        let mut ok = record(0, 100, 10, 0);
        ok.feedback.l3 = crate::SiteFeedback {
            issued: 5,
            prefetch_fills: 4,
            useful_fills: 2,
            unused_evicted: 2,
        };
        assert!(telemetry(vec![ok]).check_invariants().is_ok());
    }

    #[test]
    fn non_consecutive_epochs_are_caught() {
        let t = telemetry(vec![record(0, 10, 0, 0), record(3, 10, 0, 0)]);
        assert!(t.check_invariants().is_err());
    }

    #[test]
    fn silly_occupancy_is_caught() {
        let mut r = record(0, 10, 0, 0);
        r.feedback.bus_occupancy = 2.0;
        assert!(telemetry(vec![r]).check_invariants().is_err());
    }

    #[test]
    fn json_and_table_render() {
        let t = telemetry(vec![record(0, 100, 80, 5)]);
        let j = t.to_json().to_string();
        assert!(j.contains("\"policy\":\"degree-governor\""));
        assert!(j.contains("\"prefetcher\":\"BO\""));
        assert!(j.contains("\"directive\":\"degree=2\""));
        let table = t.table().to_tsv();
        assert!(table.contains("degree=2"), "{table}");
        assert!(table.starts_with("epoch\tprefetcher\tipc"));
    }

    #[test]
    fn json_decodes_back_to_the_same_bytes() {
        let mut r = record(1, 100, 80, 5);
        r.feedback.bus_occupancy = f64::NAN; // rendered as null
        r.feedback.l3.issued = 7;
        let t = telemetry(vec![record(0, 10, 2, 1), r]);
        let text = t.to_json().to_string();
        let back = AdaptTelemetry::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.to_json().to_string(), text);
        assert_eq!(back.epochs[1].feedback.l3.issued, 7);

        let bad = text.replacen("\"issued\":7", "\"issued\":\"7\"", 1);
        let err = AdaptTelemetry::from_json(&Json::parse(&bad).unwrap()).unwrap_err();
        assert_eq!(err.path, "epochs[1].l3.issued", "{err}");
    }
}
