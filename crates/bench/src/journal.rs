//! Grid cells as rows, and the one report assembler.
//!
//! Every completed job of an [`ExperimentPlan`] becomes a [`JobRow`]:
//! the benchmark/config labels, both metric values, and the run's
//! [`RunSummary`]. [`ExperimentPlan::report`] builds the [`Report`] from
//! one row per planned job, and it is the only code that computes arm
//! values and geometric means. [`Experiment::run`](crate::Experiment::run)
//! keeps its rows in memory; a long-running sweep (`bosim serve`)
//! appends each row to an on-disk journal as soon as its job finishes
//! and, after a crash, loads the rows back and runs only the missing
//! jobs. Both then call `report` on the same row set, and a row decoded
//! from journal text ([`JobRow::from_json`]) renders byte-identically to
//! the row it was written from, so a resumed sweep's report is
//! byte-identical to an uninterrupted one and to `Experiment::run`'s:
//! the report depends only on the row set, never on completion order or
//! on which process produced a row.
//!
//! Rows are keyed by [`ExperimentPlan::job_key`] — a restart-stable
//! identity hashing the benchmark and the full configuration — so a
//! journal written against a different corpus or arm set cannot be
//! silently replayed (the serving layer also checks
//! [`ExperimentPlan::fingerprint`] for the whole grid).
//!
//! Determinism note: rows carry **no wall-clock timestamps**. Ordering
//! is by job index at assembly time, and the journal's only sequencing
//! is file append order, which the report never depends on. The lint's
//! D002 rule keeps this module clock-free.

use crate::experiment::ExperimentPlan;
use crate::report::{arm_gm, ArmReport, Report, RunSummary};
use bosim::SimResult;
use bosim_stats::{DecodeError, Json};
use std::collections::BTreeMap;
use std::fmt;

/// 64-bit FNV-1a — the workspace's restart-stable hash for job keys and
/// plan fingerprints (`DefaultHasher` is seeded per process and cannot
/// be trusted across restarts).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One journaled grid cell: everything the report needs from one
/// completed job, in a form that survives a JSON round trip exactly
/// (f64s are emitted in Rust's shortest round-trip form).
// bosim-lint: schema(serve-journal-row)
#[derive(Debug, Clone, PartialEq)]
pub struct JobRow {
    /// The job's index in [`ExperimentPlan::jobs`] order.
    pub job: usize,
    /// The restart-stable job key ([`ExperimentPlan::job_key`]).
    pub key: String,
    /// Benchmark name (e.g. `"462.libquantum-like"`).
    pub benchmark: String,
    /// Configuration label (e.g. `"4KB/1-core/l2:BO"`).
    pub config: String,
    /// Instructions per cycle on core 0 — the
    /// [`Metric::Ipc`](crate::Metric::Ipc) value.
    pub ipc: f64,
    /// DRAM accesses per kilo-instruction — the
    /// [`Metric::DramPerKi`](crate::Metric::DramPerKi) value.
    pub dram_per_ki: f64,
    /// The run's summary statistics, as the report's `runs` carry them.
    pub summary: RunSummary,
}

/// A failure while decoding a journal row or assembling a report from
/// rows.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalError {
    /// A row line was structurally wrong (missing/ill-typed field).
    BadRow {
        /// What was missing or mistyped.
        what: String,
    },
    /// Report assembly found no row for a planned job.
    MissingRow {
        /// The job index with no row.
        job: usize,
        /// Its stable key.
        key: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::BadRow { what } => write!(f, "bad journal row: {what}"),
            JournalError::MissingRow { job, key } => {
                write!(f, "no journal row for job {job} ({key})")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl JobRow {
    /// The compact JSON form written as one journal line.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("job", Json::UInt(self.job as u64)),
            ("key", Json::from(self.key.as_str())),
            ("benchmark", Json::from(self.benchmark.as_str())),
            ("config", Json::from(self.config.as_str())),
            ("ipc", Json::from(self.ipc)),
            ("dram_per_ki", Json::from(self.dram_per_ki)),
            ("summary", self.summary.to_json()),
        ])
    }

    /// Decodes one journal line's JSON document, summary included.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::BadRow`] naming the first missing or
    /// ill-typed field (a path such as `summary.adapt.epochs[3].cycles`
    /// inside the summary).
    pub fn from_json(doc: &Json) -> Result<JobRow, JournalError> {
        let decode = || -> Result<JobRow, DecodeError> {
            Ok(JobRow {
                job: doc.u64_field("job")? as usize,
                key: doc.str_field("key")?.to_string(),
                benchmark: doc.str_field("benchmark")?.to_string(),
                config: doc.str_field("config")?.to_string(),
                ipc: doc.f64_field("ipc")?,
                dram_per_ki: doc.f64_field("dram_per_ki")?,
                summary: RunSummary::from_json(doc.field("summary")?)
                    .map_err(|e| e.within("summary"))?,
            })
        };
        decode().map_err(|e| JournalError::BadRow {
            what: e.to_string(),
        })
    }
}

impl ExperimentPlan {
    /// Distils a finished job into its row.
    ///
    /// # Panics
    ///
    /// Panics when `job` is out of range.
    pub fn row(&self, job: usize, result: &SimResult) -> JobRow {
        JobRow {
            job,
            key: self.job_key(job).to_string(),
            benchmark: result.benchmark.clone(),
            config: result.config.clone(),
            ipc: result.ipc(),
            dram_per_ki: result.dram_accesses_per_ki(),
            summary: RunSummary::from(result),
        }
    }

    /// Assembles the [`Report`] from one row per planned job: each arm's
    /// per-benchmark values (the subject's metric, divided by the
    /// baseline's when the arm has one), its geometric mean and its
    /// subject runs.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::MissingRow`] when a planned job has no
    /// row.
    pub fn report(&self, rows: &BTreeMap<usize, JobRow>) -> Result<Report, JournalError> {
        let get = |job: usize| {
            rows.get(&job).ok_or_else(|| JournalError::MissingRow {
                job,
                key: self.job_key(job).to_string(),
            })
        };
        let mut arms = Vec::with_capacity(self.arms.len());
        for (arm, cells) in self.arms.iter().zip(&self.lookup) {
            let mut values = Vec::with_capacity(cells.len());
            let mut runs = Vec::with_capacity(cells.len());
            for &(s, b) in cells {
                let subject = get(s)?;
                let value = self.metric.row_value(subject);
                values.push(match b {
                    Some(b) => value / self.metric.row_value(get(b)?),
                    None => value,
                });
                runs.push(subject.summary.clone());
            }
            arms.push(ArmReport {
                series: arm.series.clone(),
                group: arm.group.clone(),
                config: arm.config.clone(),
                baseline: arm.baseline.clone(),
                gm: arm_gm(&values, self.with_gm),
                values,
                runs,
            });
        }
        Ok(Report {
            name: self.name.clone(),
            title: self.title.clone(),
            metric: self.metric.label(self.paired).to_string(),
            benchmarks: self.benchmarks.iter().map(|b| b.short.clone()).collect(),
            arms,
            layout: self.layout,
            with_gm: self.with_gm,
            decimals: self.decimals,
        })
    }

    /// The JSON document of [`report`](Self::report).
    ///
    /// # Errors
    ///
    /// As [`report`](Self::report).
    pub fn report_json_from_rows(
        &self,
        rows: &BTreeMap<usize, JobRow>,
    ) -> Result<Json, JournalError> {
        self.report(rows).map(|r| r.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Experiment;
    use bosim::adapt::{policies, AdaptConfig};
    use bosim::{run_job, SimConfig};
    use bosim_types::SplitMix64;

    fn tiny(cfg: SimConfig) -> SimConfig {
        SimConfig {
            warmup_instructions: 2_000,
            measure_instructions: 10_000,
            ..cfg
        }
    }

    fn summary(ipc: f64) -> RunSummary {
        RunSummary {
            benchmark: "456.hmmer-like".into(),
            config: "4KB/1-core/next-line".into(),
            ipc,
            dram_per_ki: f64::NAN, // rendered as null
            l2_miss_per_ki: 0.5,
            instructions: 10_000,
            cycles: 8_100,
            l1_prefetches: 0,
            l1_prefetch_tlb_drops: 0,
            l2_prefetches_issued: 12,
            l2_prefetch_fills: 11,
            l3_prefetches_issued: 0,
            l3_prefetch_fills: 0,
            adapt: None,
        }
    }

    #[test]
    fn fnv64_is_stable() {
        // Pinned values: the journal's keys must never drift between
        // builds, or resumes would re-run the whole grid.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv64(b"ab"), fnv64(b"ba"));
    }

    #[test]
    fn job_rows_round_trip_through_json_text() {
        let row = JobRow {
            job: 3,
            key: "456#0|00000000deadbeef".into(),
            benchmark: "456.hmmer-like".into(),
            config: "4KB/1-core/next-line".into(),
            ipc: 1.234567890123,
            dram_per_ki: 0.1 + 0.2, // deliberately non-representable
            summary: summary(1.234567890123),
        };
        let text = row.to_json().to_string();
        let back = JobRow::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.job, row.job);
        assert_eq!(back.dram_per_ki, row.dram_per_ki);
        assert!(back.summary.dram_per_ki.is_nan(), "null decodes to NaN");
        assert_eq!(back.summary.to_string(), row.summary.to_json().to_string());
        // And re-emission is byte-identical (shortest-repr idempotence).
        assert_eq!(back.to_json().to_string(), text);
    }

    #[test]
    fn bad_rows_name_the_field() {
        let doc = Json::parse(r#"{"job":1,"key":"k"}"#).unwrap();
        let err = JobRow::from_json(&doc).unwrap_err();
        assert!(err.to_string().contains("benchmark"), "{err}");
        let doc = Json::parse(r#"{"job":-1}"#).unwrap();
        let err = JobRow::from_json(&doc).unwrap_err();
        assert!(err.to_string().contains("job"), "{err}");
        let doc = Json::parse(r#"{"job":0,"key":"k","benchmark":"b","config":"c","ipc":"fast"}"#)
            .unwrap();
        let err = JobRow::from_json(&doc).unwrap_err();
        assert!(err.to_string().contains("ipc"), "{err}");
        // A summary that is not a run summary is rejected, not embedded.
        let row = r#"{"job":0,"key":"k","benchmark":"b","config":"c","ipc":1,"dram_per_ki":2,"summary":5}"#;
        let err = JobRow::from_json(&Json::parse(row).unwrap()).unwrap_err();
        assert_eq!(
            err,
            JournalError::BadRow {
                what: "field summary is not an object".into()
            }
        );
        let row = row.replace(
            r#""summary":5"#,
            &format!(r#""summary":{}"#, summary(1.0).to_json()),
        );
        let row = row.replace(r#""cycles":8100"#, r#""cycles":true"#);
        let err = JobRow::from_json(&Json::parse(&row).unwrap()).unwrap_err();
        assert!(err.to_string().contains("summary.cycles"), "{err}");
    }

    /// One real row line of an adaptive run, so the summary carries
    /// epoch telemetry.
    fn adaptive_row_line() -> String {
        let mut cfg = tiny(SimConfig::default()).with_prefetcher(bosim::prefetchers::bo_default());
        cfg.adapt = Some(AdaptConfig::new(policies::degree_governor()).epoch_cycles(1_500));
        let plan = Experiment::new("journal_fuzz", "journal fuzz")
            .benchmark_ids(&["462"])
            .arm("adaptive", cfg)
            .plan()
            .unwrap();
        let result = run_job(&plan.jobs()[0]);
        plan.row(0, &result).to_json().to_string()
    }

    /// Replaces the `n`-th leaf (depth first) of `doc` with `with`;
    /// false when `doc` has fewer leaves.
    fn replace_leaf(doc: &mut Json, n: &mut usize, with: &Json) -> bool {
        match doc {
            Json::Arr(items) => items.iter_mut().any(|v| replace_leaf(v, n, with)),
            Json::Obj(pairs) => pairs.iter_mut().any(|(_, v)| replace_leaf(v, n, with)),
            leaf if *n == 0 => {
                *leaf = with.clone();
                true
            }
            _ => {
                *n -= 1;
                false
            }
        }
    }

    #[test]
    fn mutated_row_lines_decode_or_fail_typed() {
        let line = adaptive_row_line();
        let row = JobRow::from_json(&Json::parse(&line).unwrap()).unwrap();
        let epochs = row.summary.adapt.as_ref().map_or(0, |a| a.epochs.len());
        assert!(epochs >= 2, "want epoch telemetry to mutate, got {epochs}");
        assert_eq!(row.to_json().to_string(), line);

        // Byte mutations: every decode either succeeds, and then
        // re-renders to a fixed point, or returns a typed error; it
        // never panics.
        let check = |bytes: &[u8]| {
            let Some(doc) = std::str::from_utf8(bytes)
                .ok()
                .and_then(|t| Json::parse(t).ok())
            else {
                return;
            };
            if let Ok(row) = JobRow::from_json(&doc) {
                let text = row.to_json().to_string();
                let again = JobRow::from_json(&Json::parse(&text).unwrap()).unwrap();
                assert_eq!(again.to_json().to_string(), text);
            }
        };
        let bytes = line.as_bytes();
        let mut rng = SplitMix64::new(0x0b5e_55ed);
        for pos in 0..bytes.len() {
            let mut flipped = bytes.to_vec();
            flipped[pos] ^= 1 << (rng.next_u64() % 8);
            check(&flipped);
            let mut cut = bytes.to_vec();
            cut.remove(pos);
            check(&cut);
            let mut grown = bytes.to_vec();
            grown.insert(pos, b"0\"-]}n,"[(rng.next_u64() % 7) as usize]);
            check(&grown);
        }

        // Type mutations: every leaf the decoder reads is type-checked.
        // The only leaves it skips are the derived rates it recomputes:
        // an epoch's ipc, accuracy, coverage, lateness and l3 accuracy.
        let (mut leaves, mut rejected) = (0, 0);
        loop {
            let mut doc = Json::parse(&line).unwrap();
            if !replace_leaf(&mut doc, &mut leaves.clone(), &Json::Arr(Vec::new())) {
                break;
            }
            leaves += 1;
            match JobRow::from_json(&doc) {
                Ok(_) => {}
                Err(JournalError::BadRow { .. }) => rejected += 1,
                Err(other) => panic!("untyped failure {other:?}"),
            }
        }
        assert_eq!(rejected, leaves - 5 * epochs);
    }

    #[test]
    fn missing_rows_are_reported_with_their_key() {
        let exp = Experiment::new("journal_miss", "missing rows")
            .benchmark_ids(&["456"])
            .arm("base", tiny(SimConfig::default()));
        let plan = exp.plan().unwrap();
        let err = plan.report(&BTreeMap::new()).unwrap_err();
        match err {
            JournalError::MissingRow { job, ref key } => {
                assert_eq!(job, 0);
                assert_eq!(key, plan.job_key(0));
            }
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn job_keys_and_fingerprints_are_restart_stable() {
        let mk = || {
            Experiment::new("stable", "stable")
                .benchmark_ids(&["456", "444"])
                .arm_vs(
                    "BO",
                    tiny(SimConfig::default()).with_prefetcher(bosim::prefetchers::bo_default()),
                    tiny(SimConfig::default()),
                )
        };
        let a = mk().plan().unwrap();
        let b = mk().plan().unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        for i in 0..a.jobs().len() {
            assert_eq!(a.job_key(i), b.job_key(i));
        }
        // A different grid fingerprints differently.
        let c = Experiment::new("stable", "stable")
            .benchmark_ids(&["456"])
            .arm("raw", tiny(SimConfig::default()))
            .plan()
            .unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}
