//! # bosim-cli — the `bosim` command-line driver
//!
//! Opens the simulator to real workloads from the shell: point `bosim`
//! at a ChampSim or raw address trace and a prefetcher stack, and it
//! assembles the same validated [`SimConfig`](bosim::SimConfig) +
//! [`Experiment`](bosim_bench::Experiment) pipeline the figure binaries
//! use, emitting the usual text tables and JSON reports.
//!
//! ```text
//! bosim run --trace mcf.champsim --stack l2:bo --baseline l2:none
//! bosim sweep --corpus corpus.toml
//! bosim serve --corpus corpus.toml --shards 4
//! bosim inspect mcf.champsim
//! bosim gen --bench 462 --uops 200000 --out libq.champsim --format champsim
//! ```
//!
//! `bosim serve` is the long-running form of `sweep`: the grid runs on
//! the same executor and report assembler, every completed job is
//! checkpointed to a persistent job [queue], and a killed sweep resumes
//! exactly where it left off ([`serve()`], `docs/SERVE.md`).
//!
//! Everything is dependency-free: argument parsing ([`args`]) and the
//! corpus manifest parser ([`corpus`], a strict TOML subset) are
//! hand-rolled, like `bosim_stats::Json`. The command implementations
//! live in [`commands`] and are exercised directly by the integration
//! tests — the binary in `main.rs` is a thin exit-code wrapper.
//!
//! Trace formats, sampling semantics and a worked walkthrough are
//! documented in `docs/TRACES.md`; the crate map lives in
//! `docs/ARCHITECTURE.md`.

#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod corpus;
pub mod queue;
pub mod serve;

pub use commands::{dispatch, CliError, USAGE};
pub use serve::{serve, ServeOptions, ServeSummary};

/// The `--shards` worker count of [`serve()`]: however many workers
/// pull from the executor's shared job counter, and however their
/// completions interleave with kills and resumes, every job of the grid
/// is journaled exactly once.
#[cfg(test)]
mod shard {
    mod tests {
        use crate::queue::{Journal, JournalLoad};
        use crate::{serve, ServeOptions, ServeSummary};
        use bosim::SimConfig;
        use bosim_bench::Experiment;
        use bosim_types::SplitMix64;
        use std::path::{Path, PathBuf};

        const NAME: &str = "shard_grid";

        /// 4 benchmarks × 2 arms = 8 short jobs.
        fn experiment() -> Experiment {
            let base = SimConfig {
                warmup_instructions: 1_000,
                measure_instructions: 4_000,
                ..SimConfig::default()
            };
            let bo = base
                .clone()
                .with_prefetcher(bosim::prefetchers::bo_default());
            Experiment::new(NAME, "shard test")
                .benchmark_ids(&["456", "444", "462", "429"])
                .arm("base", base)
                .arm("bo", bo)
        }

        fn scratch(tag: &str) -> PathBuf {
            let dir =
                std::env::temp_dir().join(format!("bosim_shard_{tag}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        }

        fn run(dir: &Path, shards: usize, abort_after: Option<u64>) -> ServeSummary {
            let mut opts = ServeOptions::new(dir);
            opts.shards = shards;
            opts.abort_after = abort_after;
            serve(experiment(), &opts).expect("serve")
        }

        /// Replays the journal the way a resume would.
        fn replay(dir: &Path) -> JournalLoad {
            let plan = experiment().plan().expect("plan");
            let path = dir.join(format!("{NAME}.journal.jsonl"));
            Journal::open(&path, &plan).expect("journal").1
        }

        fn report(dir: &Path) -> Vec<u8> {
            std::fs::read(dir.join(format!("{NAME}.json"))).expect("report")
        }

        #[test]
        fn every_job_runs_exactly_once_under_any_interleaving() {
            // Property: a sweep killed after a random number of jobs at
            // one worker count and resumed at another journals each job
            // exactly once — no job is lost, none runs twice — and
            // writes the same report as an uninterrupted sweep.
            let ref_dir = scratch("ref");
            let reference = run(&ref_dir, 1, None);
            let total = reference.total;
            assert_eq!(reference.ran, total);
            let reference_report = report(&ref_dir);
            let _ = std::fs::remove_dir_all(&ref_dir);

            let counts = [1usize, 2, 3, 5, 8];
            let mut rng = SplitMix64::new(0xdada);
            for shards in counts {
                for trial in 0..2 {
                    let dir = scratch(&format!("kill_{shards}_{trial}"));
                    let kill_after = 1 + rng.next_u64() % (total as u64 - 1);
                    let resume_shards = counts[(rng.next_u64() % counts.len() as u64) as usize];
                    let first = run(&dir, shards, Some(kill_after));
                    assert!(first.aborted);
                    assert_eq!(first.ran as u64, kill_after);
                    let second = run(&dir, resume_shards, None);
                    assert_eq!(second.resumed, first.ran);
                    assert_eq!(
                        first.ran + second.ran,
                        total,
                        "shards {shards}→{resume_shards} trial {trial}: a job ran twice or never"
                    );
                    let load = replay(&dir);
                    assert_eq!(load.rows.len(), total);
                    assert_eq!(
                        (load.duplicates, load.stale),
                        (0, 0),
                        "shards {shards}→{resume_shards} trial {trial}: job journaled twice"
                    );
                    assert_eq!(report(&dir), reference_report);
                    let _ = std::fs::remove_dir_all(&dir);
                }
            }
        }

        #[test]
        fn concurrent_shards_dispense_disjoint_jobs() {
            // Real worker threads, no kill: each job index is journaled
            // once and every index of the plan is present.
            let dir = scratch("concurrent");
            let summary = run(&dir, 4, None);
            assert_eq!(summary.ran, summary.total);
            let load = replay(&dir);
            assert_eq!((load.duplicates, load.stale), (0, 0));
            let jobs: Vec<usize> = load.rows.keys().copied().collect();
            assert_eq!(jobs, (0..summary.total).collect::<Vec<_>>());
            for (&job, row) in &load.rows {
                assert_eq!(row.job, job, "row journaled under another job's index");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn zero_shards_clamps_to_one() {
            let zero = scratch("zero");
            let one = scratch("one");
            let summary = run(&zero, 0, None);
            assert_eq!(
                summary.ran, summary.total,
                "zero shards still runs the grid"
            );
            run(&one, 1, None);
            assert_eq!(report(&zero), report(&one));
            let _ = std::fs::remove_dir_all(&zero);
            let _ = std::fs::remove_dir_all(&one);
        }
    }
}
