//! The `bosim serve` sweep service: a corpus-scale grid runner with a
//! persistent job queue, checkpointed resume and an incremental report
//! stream.
//!
//! # Lifecycle
//!
//! [`serve`] plans the experiment ([`Experiment::plan`]), opens (or
//! creates) the journal under the output directory
//! ([`Journal`]), and replays every row a
//! previous run already completed — those jobs are **never re-executed**
//! (dedup by [job key](bosim_bench::ExperimentPlan::job_key), guarded
//! by the plan [fingerprint](bosim_bench::ExperimentPlan::fingerprint)).
//! The remaining jobs run on the workspace's one executor,
//! [`bosim::run_jobs`], whose completion callback appends each row to
//! the journal and echoes it to the stream file on this thread, so a
//! `SIGKILL` at any instant loses at most the in-flight jobs.
//!
//! # Determinism
//!
//! The final report is **always** assembled from the journaled rows by
//! [`ExperimentPlan::report`] — the same function `bosim sweep` and
//! every figure binary use. An uninterrupted run and any kill+resume
//! sequence walk the exact same assembly path over the exact same row
//! set, so their report files are byte-identical, and identical to
//! `bosim sweep`'s. Completion order, thread count and crash timing can
//! only change *when* rows appear, never what the report says.
//!
//! # Artifacts
//!
//! For an experiment named `N` under the output directory `D`:
//! `D/N.journal.jsonl` (the checkpoint journal), `D/N.stream.jsonl`
//! (one [`StreamEvent`] per resume/row/abort/report, flushed as it
//! happens), and `D/N.json` (the final report, written only when the
//! grid is complete). See `docs/SERVE.md`.

use crate::commands::CliError;
use crate::queue::Journal;
use bosim::{run_jobs, Job};
use bosim_bench::{Experiment, ExperimentPlan, JobRow};
use bosim_stats::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::ops::ControlFlow;
use std::path::PathBuf;

/// Tuning and test knobs for one [`serve`] invocation.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker-thread count (clamped to at least 1; `--shards`).
    pub shards: usize,
    /// Soft-abort hook: stop handing out work after this many jobs have
    /// been journaled *by this process* (the crash/restart harness and
    /// the CI smoke test; `--abort-after` / `BOSIM_SERVE_ABORT_AFTER`).
    pub abort_after: Option<u64>,
    /// Output directory for the journal, stream and report files.
    pub out_dir: PathBuf,
}

impl ServeOptions {
    /// Defaults: one worker thread per core, no abort hook, the standard
    /// report directory.
    pub fn new(out_dir: impl Into<PathBuf>) -> ServeOptions {
        ServeOptions {
            shards: bosim::default_threads(),
            abort_after: None,
            out_dir: out_dir.into(),
        }
    }
}

/// One line of the incremental stream file: progress as it happens.
///
/// `event` is `"resume"` (journal replayed; `done` jobs were already
/// complete), `"row"` (one job just completed; `row` carries its
/// journal row), `"abort"` (the abort hook fired) or `"report"` (grid
/// complete; the final report was written). `done`/`total` count
/// completed vs planned jobs at the moment of the event.
// bosim-lint: schema(serve-stream-event)
#[derive(Debug, Clone, PartialEq)]
pub struct StreamEvent {
    /// Event kind: `resume`, `row`, `abort` or `report`.
    pub event: String,
    /// Jobs complete (journaled) at this moment.
    pub done: u64,
    /// Total jobs in the grid.
    pub total: u64,
    /// The completed job's journal row (for `row` events).
    pub row: Option<Json>,
}

impl StreamEvent {
    /// The compact JSON form written as one stream line.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("event", Json::from(self.event.as_str())),
            ("done", Json::UInt(self.done)),
            ("total", Json::UInt(self.total)),
            ("row", Json::from(self.row.clone())),
        ])
    }
}

/// What one [`serve`] invocation did.
#[derive(Debug)]
pub struct ServeSummary {
    /// Total jobs in the grid.
    pub total: usize,
    /// Jobs recovered from the journal (not re-executed).
    pub resumed: usize,
    /// Jobs executed by this process.
    pub ran: usize,
    /// Always 0: workers take jobs from one shared counter, so there is
    /// no per-worker queue to steal from. Kept because `perfbench`
    /// reports it as `cli.jobs_stolen`.
    pub stolen: usize,
    /// Duplicate journal rows dropped on resume.
    pub duplicates: u64,
    /// Stale journal rows skipped on resume.
    pub stale: u64,
    /// Whether a torn final journal line was recovered on resume.
    pub torn_recovered: bool,
    /// Whether the abort hook stopped the sweep early.
    pub aborted: bool,
    /// The final report path (written only when the grid completed).
    pub report_path: Option<PathBuf>,
    /// The checkpoint journal path.
    pub journal_path: PathBuf,
    /// The incremental stream path.
    pub stream_path: PathBuf,
}

struct Stream {
    path: PathBuf,
    file: std::fs::File,
    total: u64,
}

impl Stream {
    fn open(path: PathBuf, total: u64) -> Result<Stream, CliError> {
        let file = std::fs::File::options()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| CliError::Failed(format!("cannot open {}: {e}", path.display())))?;
        Ok(Stream { path, file, total })
    }

    fn emit(&mut self, event: &str, done: u64, row: Option<Json>) -> Result<(), CliError> {
        let line = StreamEvent {
            event: event.to_string(),
            done,
            total: self.total,
            row,
        }
        .to_json()
        .to_string();
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.write_all(b"\n"))
            .and_then(|()| self.file.flush())
            .map_err(|e| CliError::Failed(format!("cannot write {}: {e}", self.path.display())))
    }
}

/// Runs `experiment` as a checkpointed sweep. See the [module
/// docs](self) for lifecycle and determinism.
///
/// # Errors
///
/// [`CliError::Failed`] on plan errors, journal/stream I/O failures, a
/// journal belonging to a different plan, or a panicking job. The
/// journal keeps every row completed before the failure, so a rerun
/// resumes instead of restarting.
pub fn serve(experiment: Experiment, opts: &ServeOptions) -> Result<ServeSummary, CliError> {
    let plan = experiment
        .plan()
        .map_err(|e| CliError::Failed(format!("cannot plan sweep: {e}")))?;
    serve_plan(&plan, opts)
}

fn serve_plan(plan: &ExperimentPlan, opts: &ServeOptions) -> Result<ServeSummary, CliError> {
    let total = plan.jobs().len();
    let journal_path = opts.out_dir.join(format!("{}.journal.jsonl", plan.name()));
    let stream_path = opts.out_dir.join(format!("{}.stream.jsonl", plan.name()));

    let (mut journal, load) = Journal::open(&journal_path, plan)
        .map_err(|e| CliError::Failed(format!("cannot resume sweep: {e}")))?;
    let mut rows: BTreeMap<usize, JobRow> = load.rows;
    if load.torn_recovered {
        eprintln!("[bosim serve] recovered a torn final journal line (crash mid-append)");
    }
    if load.duplicates > 0 || load.stale > 0 {
        eprintln!(
            "[bosim serve] journal replay: dropped {} duplicate and {} stale row(s)",
            load.duplicates, load.stale
        );
    }
    let resumed = rows.len();
    let mut stream = Stream::open(stream_path.clone(), total as u64)?;
    stream.emit("resume", resumed as u64, None)?;

    let pending: Vec<usize> = (0..total).filter(|i| !rows.contains_key(i)).collect();
    let jobs: Vec<&Job> = pending.iter().map(|&i| &plan.jobs()[i]).collect();
    let threads = opts.shards.clamp(1, pending.len().max(1));
    eprintln!(
        "[bosim serve] {}: {} jobs total, {} resumed from journal, {} to run on {} thread(s)",
        plan.name(),
        total,
        resumed,
        pending.len(),
        threads,
    );

    let mut ran = 0usize;
    let mut aborted = false;
    let mut io_failure: Option<CliError> = None;
    let outcome = run_jobs(&jobs, threads, |p, result| {
        let job = pending[p];
        let row = plan.row(job, &result);
        let line = row.to_json();
        let checkpointed = journal
            .append(&row)
            .map_err(|e| CliError::Failed(format!("cannot checkpoint: {e}")))
            .and_then(|()| {
                rows.insert(job, row);
                stream.emit("row", rows.len() as u64, Some(line))
            });
        if let Err(e) = checkpointed {
            io_failure = Some(e);
            return ControlFlow::Break(());
        }
        ran += 1;
        // Once the abort hook fires, the executor drops in-flight
        // completions, exactly as a real crash would lose them: the
        // journal holds precisely the rows completed before the "kill",
        // which is what the crash/restart harness relies on.
        if opts.abort_after.is_some_and(|n| ran as u64 >= n) {
            aborted = true;
            return ControlFlow::Break(());
        }
        ControlFlow::Continue(())
    });
    if let Some(e) = io_failure {
        return Err(e);
    }
    if let Err(e) = outcome {
        return Err(CliError::Failed(format!(
            "sweep failed: {e} (completed rows are checkpointed in {}; rerun to resume)",
            journal_path.display()
        )));
    }

    if aborted {
        stream.emit("abort", rows.len() as u64, None)?;
        eprintln!(
            "[bosim serve] abort hook fired after {ran} job(s); {} of {total} journaled",
            rows.len()
        );
    }
    let mut report_path = None;
    if rows.len() == total {
        let report = plan
            .report(&rows)
            .map_err(|e| CliError::Failed(format!("cannot assemble report: {e}")))?;
        let path = report.write_json(&opts.out_dir).map_err(|e| {
            CliError::Failed(format!(
                "cannot write {}.json under {}: {e}",
                report.name,
                opts.out_dir.display()
            ))
        })?;
        stream.emit("report", rows.len() as u64, None)?;
        eprintln!("[bosim serve] report written to {}", path.display());
        report_path = Some(path);
    }

    Ok(ServeSummary {
        total,
        resumed,
        ran,
        stolen: 0,
        duplicates: load.duplicates,
        stale: load.stale,
        torn_recovered: load.torn_recovered,
        aborted,
        report_path,
        journal_path,
        stream_path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_events_round_trip() {
        let e = StreamEvent {
            event: "row".to_string(),
            done: 3,
            total: 12,
            row: Some(Json::obj([("job", Json::UInt(2))])),
        };
        let doc = Json::parse(&e.to_json().to_string()).unwrap();
        assert_eq!(doc.get("event").and_then(Json::as_str), Some("row"));
        assert_eq!(doc.get("done").and_then(Json::as_f64), Some(3.0));
        assert_eq!(doc.get("total").and_then(Json::as_f64), Some(12.0));
        assert!(doc.get("row").is_some());
        // Non-row events carry an explicit null row.
        let e = StreamEvent {
            event: "resume".to_string(),
            done: 0,
            total: 12,
            row: None,
        };
        assert!(e.to_json().to_string().contains("\"row\":null"));
    }
}
