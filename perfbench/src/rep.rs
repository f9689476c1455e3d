//! One repetition of a workload, run in this process.
//!
//! A repetition sets the workload up, runs it, checks its result and
//! reports host times, the host-speed samples taken just before set-up
//! and just after the run, the counts read from bosim's public
//! statistics, the result fingerprint and this process's peak resident
//! set. With tracing on it also records spans around every call and
//! times the `bench` layer's row and report kernels on the repetition's
//! own rows.

use crate::hostspeed;
use crate::span::Tracer;
use crate::workload::{write_corpus, Size, Workload};
use bosim::{SimResult, System};
use bosim_bench::journal::fnv64;
use bosim_bench::{Experiment, ExperimentPlan, JobRow};
use bosim_cli::queue::Journal;
use bosim_cli::{corpus, serve, ServeOptions};
use bosim_stats::Json;
use bosim_trace::{ArtifactStore, ExternalSpec, TraceFormat};
use bosim_types::CoreId;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Set-ups per simulation repetition; the median is reported.
const SETUPS: usize = 9;

/// Options of one repetition.
pub struct RepArgs<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub size: Size,
    pub traced: bool,
    /// Also run every `serve-grid` job directly and compare.
    pub replay: bool,
    pub work: &'a Path,
}

/// Whole-run counters of one simulated machine, read from its public
/// statistics after the run (warm-up included).
#[derive(Default)]
struct Counts {
    cycles: u64,
    steps: u64,
    retired: u64,
    branches: u64,
    mispredicts: u64,
    loads: u64,
    stores: u64,
    dl1_misses: u64,
    l2_accesses: u64,
    l2_misses: u64,
    l3_accesses: u64,
    l3_misses: u64,
    l2_fill_merges: u64,
    bo_issued: u64,
    bo_useful: u64,
    bo_late: u64,
    dram_reads: u64,
    dram_writes: u64,
    dram_row_opens: u64,
}

impl Counts {
    fn add(&mut self, sys: &System) {
        let core = sys.core0_stats();
        let unc = sys.uncore().stats();
        let dram = sys.uncore().dram_stats();
        let l2 = sys.uncore().prefetch_telemetry(CoreId(0));
        self.cycles += sys.cycle();
        self.steps += sys.steps_executed();
        self.retired += core.retired;
        self.branches += core.branches;
        self.mispredicts += core.mispredicts;
        self.loads += core.loads;
        self.stores += core.stores;
        self.dl1_misses += core.dl1_misses;
        self.l2_accesses += unc.l2_accesses;
        self.l2_misses += unc.l2_misses;
        self.l3_accesses += unc.l3_accesses;
        self.l3_misses += unc.l3_misses;
        self.l2_fill_merges += unc.l2_fill_merges;
        self.bo_issued += l2.issued;
        self.bo_useful += l2.useful;
        self.bo_late += l2.late_promotions;
        self.dram_reads += dram.reads;
        self.dram_writes += dram.writes;
        self.dram_row_opens += dram.row_opens;
    }

    fn to_json(&self) -> Json {
        Json::obj(
            [
                ("cycles", self.cycles),
                ("steps", self.steps),
                ("retired", self.retired),
                ("branches", self.branches),
                ("mispredicts", self.mispredicts),
                ("loads", self.loads),
                ("stores", self.stores),
                ("dl1_misses", self.dl1_misses),
                ("l2_accesses", self.l2_accesses),
                ("l2_misses", self.l2_misses),
                ("l3_accesses", self.l3_accesses),
                ("l3_misses", self.l3_misses),
                ("l2_fill_merges", self.l2_fill_merges),
                ("bo_issued", self.bo_issued),
                ("bo_useful", self.bo_useful),
                ("bo_late", self.bo_late),
                ("dram_reads", self.dram_reads),
                ("dram_writes", self.dram_writes),
                ("dram_row_opens", self.dram_row_opens),
            ]
            .map(|(k, v)| (k, Json::UInt(v))),
        )
    }
}

/// Peak resident set of this process, in KiB (`VmHWM`).
fn vmhwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Minimum wall seconds of `reps` calls of `f`.
fn min_time(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Times `JobRow::to_json` (ns per row) and `report_json_from_rows`
/// (seconds per report) on the repetition's own rows.
fn bench_kernels(plan: &ExperimentPlan, rows: &BTreeMap<usize, JobRow>) -> Json {
    const ROW_CALLS: usize = 2_000;
    let row_s = min_time(5, || {
        for row in rows.values().cycle().take(ROW_CALLS) {
            black_box(black_box(row).to_json());
        }
    });
    let report_s = min_time(5, || {
        black_box(plan.report_json_from_rows(black_box(rows)).ok());
    });
    Json::obj([
        ("row_ns", Json::from(row_s * 1e9 / ROW_CALLS as f64)),
        ("report_s", Json::from(report_s)),
    ])
}

fn fingerprint(bytes: &[u8]) -> String {
    format!("{:016x}", fnv64(bytes))
}

/// Runs one repetition and returns its result document.
pub fn run(args: &RepArgs) -> Result<Json, String> {
    if args.workload.is_sim() {
        sim_rep(args)
    } else {
        serve_rep(args)
    }
}

fn sim_rep(args: &RepArgs) -> Result<Json, String> {
    let w = args.workload;
    let mut host_s = hostspeed::samples(2, 1);
    let mut tr = Tracer::new(args.traced);
    // Set up several times and keep the last system; only the kept
    // set-up is traced.
    let mut setup_s = Vec::new();
    for _ in 1..SETUPS {
        let t = Instant::now();
        let bench = w.bench(args.seed);
        let cfg = w.config(args.seed, args.size);
        black_box(System::new(&cfg, &bench));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let started = Instant::now();
    let ((bench, cfg, mut sys), last_setup) = tr.span("perfbench", "setup", |tr| {
        let (bench, _) = tr.span("trace", "BenchmarkSpec", |_| w.bench(args.seed));
        let (cfg, _) = tr.span("sim", "SimConfig::build", |_| {
            w.config(args.seed, args.size)
        });
        let (sys, _) = tr.span("sim", "System::new", |_| System::new(&cfg, &bench));
        (bench, cfg, sys)
    });
    setup_s.push(last_setup);
    let (result, run_s) = tr.span("sim", "System::run", |_| sys.run());
    let rss = vmhwm_kb();
    let mut counts = Counts::default();
    counts.add(&sys);

    let (planned, _) = tr.span("bench", "Experiment::plan+row", |_| {
        let plan = Experiment::new("perfbench", w.name())
            .benchmarks(vec![bench])
            .arm("l2:bo", cfg)
            .plan()
            .map_err(|e| format!("cannot plan: {e}"))?;
        let row = plan.row(0, &result);
        Ok::<_, String>((plan, row, check(&result)))
    });
    let total_s = started.elapsed().as_secs_f64();
    host_s.extend(hostspeed::samples(2, 1));
    let (plan, row, invariants) = planned?;
    let mut doc = vec![
        ("setup_s", Json::from(median(setup_s))),
        ("total_s", Json::from(total_s)),
        ("job_s", Json::from(last_setup + run_s)),
        ("run_s", Json::from(run_s)),
        ("host_s", Json::arr(host_s.into_iter().map(Json::from))),
        ("jobs", Json::UInt(1)),
        ("threads", Json::UInt(1)),
        (
            "fingerprint",
            Json::from(fingerprint(row.summary.to_string().as_bytes())),
        ),
        ("invariants", Json::from(invariants)),
        ("peak_rss_kb", Json::UInt(rss)),
        ("counts", counts.to_json()),
    ];
    if args.traced {
        let rows = BTreeMap::from([(0, row)]);
        doc.push(("bench_kernels", bench_kernels(&plan, &rows)));
        doc.push(("spans", tr.to_json()));
    }
    Ok(Json::obj(doc))
}

/// `"ok"`, or the first violated per-site invariant.
fn check(result: &SimResult) -> String {
    match result.check_site_invariants() {
        Ok(()) => "ok".to_string(),
        Err(e) => e,
    }
}

fn serve_rep(args: &RepArgs) -> Result<Json, String> {
    let io = |e: std::io::Error| e.to_string();
    let manifest = write_corpus(&args.work.join("corpus"), args.seed, args.size).map_err(io)?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut host_s = hostspeed::samples(2, threads);
    let mut tr = Tracer::new(args.traced);
    let started = Instant::now();
    let (setup, setup_s) = tr.span("perfbench", "setup", |tr| {
        let (c, _) = tr.span("cli", "corpus::load", |_| corpus::load(&manifest));
        let c = c.map_err(|e| e.to_string())?;
        let (decoded, _) = tr.span("trace", "ExternalSpec::load", |_| {
            c.traces
                .iter()
                .try_for_each(|t| {
                    ExternalSpec::new(&t.path, TraceFormat::ChampSim)
                        .load()
                        .map(drop)
                })
                .map_err(|e| e.to_string())
        });
        decoded?;
        let (e, _) = tr.span("cli", "sweep_experiment", |_| {
            bosim_cli::commands::sweep_experiment(&c)
        });
        let e = e.map_err(|e| e.to_string())?;
        let (plan, _) = tr.span("bench", "Experiment::plan", |_| e.plan());
        let plan = plan.map_err(|e| e.to_string())?;
        Ok::<_, String>((e, plan))
    });
    let (experiment, plan) = setup?;

    let mut opts = ServeOptions::new(args.work.join("out"));
    opts.shards = threads;
    let (summary, run_s) = tr.span("cli", "serve", |_| serve(experiment, &opts));
    let summary = summary.map_err(|e| e.to_string())?;
    let rss = vmhwm_kb();
    let store = ArtifactStore::global().counters();
    let (report, _) = tr.span("bench", "report::fingerprint", |_| {
        let path = summary
            .report_path
            .as_ref()
            .ok_or("serve wrote no report")?;
        std::fs::read(path).map_err(|e| e.to_string())
    });
    let total_s = started.elapsed().as_secs_f64();
    host_s.extend(hostspeed::samples(2, threads));
    let report = report?;
    let (counts, invariants) = if args.replay {
        let (counts, verdict) = replay(&plan, &report);
        (Some(counts), verdict)
    } else {
        (None, "ok".to_string())
    };

    let mut doc = vec![
        ("setup_s", Json::from(setup_s)),
        ("total_s", Json::from(total_s)),
        ("job_s", Json::from(run_s)),
        ("run_s", Json::from(run_s)),
        ("host_s", Json::arr(host_s.into_iter().map(Json::from))),
        ("jobs", Json::from(summary.total)),
        ("threads", Json::from(threads)),
        ("fingerprint", Json::from(fingerprint(&report))),
        ("invariants", Json::from(invariants)),
        ("peak_rss_kb", Json::UInt(rss)),
        (
            "store",
            Json::obj([
                ("decodes", Json::UInt(store.decodes)),
                ("hits", Json::UInt(store.hits)),
                ("spills", Json::UInt(store.spills)),
            ]),
        ),
        ("jobs_run", Json::from(summary.ran)),
        ("jobs_stolen", Json::from(summary.stolen)),
    ];
    if args.traced {
        let (_, load) = Journal::open(&summary.journal_path, &plan).map_err(|e| e.to_string())?;
        doc.push(("bench_kernels", bench_kernels(&plan, &load.rows)));
        doc.push(("spans", tr.to_json()));
    }
    if let Some(counts) = counts {
        doc.push(("counts", counts.to_json()));
    }
    Ok(Json::obj(doc))
}

/// Runs every planned job directly, checks each result's invariants,
/// and checks that the report assembled from those runs is
/// byte-identical to the one `serve` wrote. Returns the whole-run
/// counts summed over the jobs, and `"ok"` or the first failed check.
fn replay(plan: &ExperimentPlan, report: &[u8]) -> (Counts, String) {
    let mut counts = Counts::default();
    let mut rows = BTreeMap::new();
    let mut verdict = "ok".to_string();
    for (i, job) in plan.jobs().iter().enumerate() {
        let mut sys = System::new(&job.config, &job.bench);
        let result = sys.run();
        counts.add(&sys);
        let job_verdict = check(&result);
        if job_verdict != "ok" && verdict == "ok" {
            verdict = format!("job {i}: {job_verdict}");
        }
        rows.insert(i, plan.row(i, &result));
    }
    let same = plan
        .report_json_from_rows(&rows)
        .is_ok_and(|doc| doc.to_pretty().as_bytes() == report);
    if !same && verdict == "ok" {
        verdict = "serve report differs from the report of direct runs".to_string();
    }
    (counts, verdict)
}
