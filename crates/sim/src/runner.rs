//! The job executor: runs (benchmark × configuration) grids on worker
//! threads and hands each result to the caller as it completes.
//!
//! [`run_jobs`] is the only executor in the workspace: experiment runs
//! and the `bosim serve` sweep service both drive it. It returns
//! [`RunnerError`] instead of panicking: a panicking simulation (e.g. a
//! stall assertion) is caught on the worker thread and reported with the
//! benchmark and configuration that failed.

use crate::config::SimConfig;
use crate::system::{SimResult, System};
use bosim_trace::BenchmarkSpec;
use std::borrow::Borrow;
use std::fmt;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;

/// One cell of an experiment grid.
#[derive(Debug, Clone)]
pub struct Job {
    /// The benchmark to run on core 0.
    pub bench: BenchmarkSpec,
    /// The machine configuration.
    pub config: SimConfig,
}

/// A failure while running a job grid.
#[derive(Debug, Clone)]
pub enum RunnerError {
    /// A worker panicked while simulating a job.
    JobFailed {
        /// The benchmark whose simulation failed.
        benchmark: String,
        /// The configuration label of the failing job.
        config: String,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl fmt::Display for RunnerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunnerError::JobFailed {
                benchmark,
                config,
                message,
            } => write!(f, "job {benchmark} [{config}] panicked: {message}"),
        }
    }
}

impl std::error::Error for RunnerError {}

/// Runs one job to completion.
pub fn run_job(job: &Job) -> SimResult {
    System::new(&job.config, &job.bench).run()
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `jobs` on `threads` workers (at least one) and calls
/// `on_done(index, result)` on the calling thread as each job
/// completes.
///
/// Workers take jobs in index order from one shared counter, so an idle
/// worker always picks up the next job and one slow job holds back no
/// other. Completion order depends on host scheduling; callers key what
/// they keep by the job index. Each result is moved into `on_done` and
/// never buffered here.
///
/// When `on_done` returns [`ControlFlow::Break`], no further job is
/// handed out, and completions of jobs already running are dropped
/// without being delivered.
///
/// # Errors
///
/// Returns [`RunnerError::JobFailed`] naming the first job (in
/// completion order) whose simulation panicked. A failure stops the
/// handing out of jobs; every completion before it, and those of jobs
/// already running, are still delivered.
pub fn run_jobs<J, F>(jobs: &[J], threads: usize, mut on_done: F) -> Result<(), RunnerError>
where
    J: Borrow<Job> + Sync,
    F: FnMut(usize, SimResult) -> ControlFlow<()>,
{
    // Both atomics publish no other data (results travel through the
    // channel), so Relaxed suffices: a stop seen late only lets a worker
    // start another job, whose completion is dropped or delivered as
    // documented above.
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let mut failure = None;
    // bosim-lint: allow(D004, whole-run worker pool: each job is an independent simulation and the caller keys results by job index, so host scheduling cannot reach any SimResult)
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel();
        for _ in 0..threads.clamp(1, jobs.len().max(1)) {
            let (tx, next, stop) = (tx.clone(), &next, &stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    let res = catch_unwind(AssertUnwindSafe(|| run_job(job.borrow())))
                        .map_err(panic_message);
                    if res.is_err() {
                        stop.store(true, Ordering::Relaxed);
                    }
                    if tx.send((i, res)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        let mut stopped = false;
        for (i, res) in rx {
            match res {
                Ok(_) if stopped => {}
                Ok(result) => {
                    if on_done(i, result).is_break() {
                        stopped = true;
                        stop.store(true, Ordering::Relaxed);
                    }
                }
                Err(message) => {
                    let job: &Job = jobs[i].borrow();
                    failure.get_or_insert(RunnerError::JobFailed {
                        benchmark: job.bench.name.clone(),
                        config: job.config.label(),
                        message,
                    });
                }
            }
        }
    });
    failure.map_or(Ok(()), Err)
}

/// Default worker-thread count: all available cores.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bosim_trace::suite;

    fn tiny_cfg() -> SimConfig {
        SimConfig {
            warmup_instructions: 5_000,
            measure_instructions: 20_000,
            ..Default::default()
        }
    }

    fn job(id: &str, config: SimConfig) -> Job {
        Job {
            bench: suite::benchmark(id).expect("exists"),
            config,
        }
    }

    /// A grid of `n` very short jobs.
    fn grid(n: usize) -> Vec<Job> {
        let cfg = SimConfig {
            warmup_instructions: 500,
            measure_instructions: 1_000,
            ..Default::default()
        };
        (0..n).map(|_| job("456", cfg.clone())).collect()
    }

    #[test]
    fn parallel_runner_matches_serial() {
        let jobs = vec![job("456", tiny_cfg()), job("444", tiny_cfg())];
        let serial: Vec<SimResult> = jobs.iter().map(run_job).collect();
        let mut parallel: Vec<Option<SimResult>> = vec![None, None];
        run_jobs(&jobs, 2, |i, r| {
            parallel[i] = Some(r);
            ControlFlow::Continue(())
        })
        .expect("jobs succeed");
        for (a, b) in serial.iter().zip(&parallel) {
            let b = b.as_ref().expect("every job delivered");
            assert_eq!(a.benchmark, b.benchmark);
            assert_eq!(a.cycles, b.cycles, "determinism violated");
            assert_eq!(a.instructions, b.instructions);
        }
    }

    #[test]
    fn every_job_reaches_the_callback_exactly_once() {
        // Zero threads clamps to one; more threads than jobs is fine.
        let jobs = grid(11);
        for threads in [0, 1, 2, 5, 16] {
            let mut seen = vec![0u32; jobs.len()];
            run_jobs(&jobs, threads, |i, _| {
                seen[i] += 1;
                ControlFlow::Continue(())
            })
            .expect("jobs succeed");
            assert!(seen.iter().all(|&n| n == 1), "threads {threads}: {seen:?}");
        }
        let none: &[Job] = &[];
        run_jobs(none, 3, |_, _| -> ControlFlow<()> {
            panic!("no job to deliver")
        })
        .expect("an empty grid runs nothing");
    }

    #[test]
    fn no_completion_is_delivered_after_the_callback_stops() {
        let jobs = grid(12);
        for threads in [1, 2, 5] {
            let mut delivered = Vec::new();
            run_jobs(&jobs, threads, |i, _| {
                delivered.push(i);
                if delivered.len() == 3 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            })
            .expect("a stop is not an error");
            assert_eq!(delivered.len(), 3, "threads {threads}: {delivered:?}");
        }
    }

    #[test]
    fn worker_panic_names_the_failing_benchmark() {
        // active_cores = 0 trips the System::new assertion; the runner
        // must surface it as an error naming the job, not a panic. On
        // one thread the jobs run in order: both completions before the
        // failure are delivered, and nothing after it runs.
        let mut bad = tiny_cfg();
        bad.active_cores = 0;
        let jobs = vec![
            job("456", tiny_cfg()),
            job("462", tiny_cfg()),
            job("444", bad),
            job("470", tiny_cfg()),
        ];
        for threads in [1, 2] {
            let mut delivered = Vec::new();
            let err = run_jobs(&jobs, threads, |i, _| {
                delivered.push(i);
                ControlFlow::Continue(())
            })
            .expect_err("bad job must fail");
            let RunnerError::JobFailed {
                benchmark, message, ..
            } = err;
            assert_eq!(benchmark, "444.namd-like");
            assert!(message.contains("active_cores"), "{message}");
            delivered.sort_unstable();
            assert!(
                delivered.starts_with(&[0, 1]),
                "threads {threads}: {delivered:?}"
            );
            assert!(!delivered.contains(&2));
            if threads == 1 {
                assert_eq!(delivered, [0, 1]);
            }
        }
    }
}
