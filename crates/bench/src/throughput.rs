//! Simulator-throughput measurement (the `perf` binary).
//!
//! The paper's figures sweep dozens of configurations through the
//! cycle-accurate model, so *simulator* throughput — sim-cycles/sec and
//! µops/sec of wall-clock time — bounds how many scenarios are
//! explorable. This module measures it: every benchmark runs twice on
//! identical configurations, once in [`ExecMode::Naive`] (every source
//! ticks every cycle) and once in [`ExecMode::Scheduled`] (the default
//! event-wheel loop), and the two [`SimResult`]s are asserted
//! bit-identical before any rate is reported. The output rides
//! the existing [`Report`] machinery: `BENCH_throughput.json` lands in
//! the report directory next to the figure reports.
//!
//! Runs are strictly serial — parallel workers would share memory
//! bandwidth and turn the wall-clock numbers into noise.

use crate::report::{ArmReport, Layout, Report, RunSummary};
use bosim::{prefetchers, ExecMode, SimConfig, SimResult, System};
use bosim_trace::BenchmarkSpec;
use std::time::Instant;

/// One timed simulation: simulated work per second of wall clock.
#[derive(Debug, Clone)]
pub struct ThroughputMeasurement {
    /// Benchmark name.
    pub benchmark: String,
    /// Total simulated cycles (warm-up + measured window).
    pub sim_cycles: u64,
    /// Cycles actually stepped (the rest were fast-forwarded).
    pub steps: u64,
    /// Total µops retired by core 0 (warm-up + measured window).
    pub uops: u64,
    /// Wall-clock seconds for the whole run.
    pub wall_seconds: f64,
    /// The measured-window result (for the invariance check).
    pub result: SimResult,
}

impl ThroughputMeasurement {
    /// Simulated megacycles per wall-clock second.
    pub fn mcycles_per_sec(&self) -> f64 {
        self.sim_cycles as f64 / self.wall_seconds / 1e6
    }

    /// Retired µops (core 0) per wall-clock second, in millions.
    pub fn muops_per_sec(&self) -> f64 {
        self.uops as f64 / self.wall_seconds / 1e6
    }
}

/// Runs `bench` once under `cfg` and times it.
pub fn measure(cfg: &SimConfig, bench: &BenchmarkSpec) -> ThroughputMeasurement {
    let mut sys = System::new(cfg, bench);
    let start = Instant::now();
    let result = sys.run();
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    ThroughputMeasurement {
        benchmark: bench.name.clone(),
        sim_cycles: sys.cycle(),
        steps: sys.steps_executed(),
        uops: sys.core0_stats().retired,
        wall_seconds: wall,
        result,
    }
}

/// A naive/optimized measurement pair for one benchmark.
#[derive(Debug, Clone)]
pub struct ThroughputPair {
    /// Every-cycle loop ([`ExecMode::Naive`]).
    pub naive: ThroughputMeasurement,
    /// Event-wheel loop ([`ExecMode::Scheduled`]).
    pub optimized: ThroughputMeasurement,
}

impl ThroughputPair {
    /// Optimized over naive sim-cycles/sec.
    pub fn speedup(&self) -> f64 {
        self.optimized.mcycles_per_sec() / self.naive.mcycles_per_sec()
    }
}

/// Measures the whole `benches` grid: `reps` interleaved naive and
/// optimized runs per benchmark, keeping the fastest wall-clock run of
/// each mode (the minimum rejects scheduler and frequency noise, which
/// only ever slows a run down). A short discarded simulation up front
/// absorbs process start-up costs so neither mode pays them.
///
/// # Panics
///
/// Panics if any benchmark's naive and optimized runs disagree on any
/// counter of the measured window — the scheduled loop must be invisible
/// in the results, and a throughput number for a *different* simulation
/// would be meaningless.
pub fn measure_suite(
    base: &SimConfig,
    benches: &[BenchmarkSpec],
    reps: usize,
) -> Vec<ThroughputPair> {
    let reps = reps.max(1);
    if let Some(first) = benches.first() {
        let mut warm = base.clone();
        warm.warmup_instructions = 5_000;
        warm.measure_instructions = 20_000;
        let _ = measure(&warm, first);
    }
    let naive_cfg = SimConfig {
        exec: ExecMode::Naive,
        ..base.clone()
    };
    let opt_cfg = SimConfig {
        exec: ExecMode::Scheduled,
        ..base.clone()
    };
    benches
        .iter()
        .map(|bench| {
            let fastest = |best: Option<ThroughputMeasurement>, m: ThroughputMeasurement| match best
            {
                Some(b) if b.wall_seconds <= m.wall_seconds => Some(b),
                _ => Some(m),
            };
            let mut naive: Option<ThroughputMeasurement> = None;
            let mut optimized: Option<ThroughputMeasurement> = None;
            for _ in 0..reps {
                let n = measure(&naive_cfg, bench);
                let o = measure(&opt_cfg, bench);
                assert_eq!(
                    n.result, o.result,
                    "{}: the scheduled loop must be cycle-exact",
                    bench.name
                );
                assert_eq!(n.sim_cycles, o.sim_cycles, "{}", bench.name);
                naive = fastest(naive, n);
                optimized = fastest(optimized, o);
            }
            ThroughputPair {
                naive: naive.expect("reps >= 1"), // bosim-lint: allow(P002, reps >= 1 so both arms ran)
                optimized: optimized.expect("reps >= 1"), // bosim-lint: allow(P002, reps >= 1 so both arms ran)
            }
        })
        .collect()
}

/// One machine configuration's worth of throughput pairs, labelled for
/// the report.
#[derive(Debug, Clone)]
pub struct ArmThroughput {
    /// The machine label heading this arm's rows (`default`, `4-core`,
    /// `l2:bo`).
    pub label: String,
    /// The measured configuration.
    pub config: SimConfig,
    /// One naive/optimized pair per benchmark.
    pub pairs: Vec<ThroughputPair>,
}

/// The machine configurations the `perf` binary times: the Table 1
/// default, a four-core machine (parallel-tick territory, much less
/// idle time to skip) and an `l2:bo` machine (the paper's subject
/// prefetcher, busier uncore queues).
pub fn perf_arms(base: &SimConfig) -> Vec<(String, SimConfig)> {
    let four_core = SimConfig {
        active_cores: 4,
        ..base.clone()
    };
    let bo = base.clone().with_prefetcher(prefetchers::bo_default());
    vec![
        ("default".to_string(), base.clone()),
        ("4-core".to_string(), four_core),
        ("l2:bo".to_string(), bo),
    ]
}

/// Aggregate optimized-over-naive speedup across every arm: total
/// simulated cycles over total wall seconds, both modes summed over all
/// arms and benchmarks. The CI floor (`BOSIM_PERF_MIN_SPEEDUP`) gates
/// on this number.
pub fn aggregate_speedup(arms: &[ArmThroughput]) -> f64 {
    let naive: Vec<&ThroughputMeasurement> = arms
        .iter()
        .flat_map(|a| a.pairs.iter().map(|p| &p.naive))
        .collect();
    let optimized: Vec<&ThroughputMeasurement> = arms
        .iter()
        .flat_map(|a| a.pairs.iter().map(|p| &p.optimized))
        .collect();
    total_mcycles_per_sec(&optimized) / total_mcycles_per_sec(&naive)
}

/// Aggregate rate: total simulated cycles over total wall seconds.
fn total_mcycles_per_sec(ms: &[&ThroughputMeasurement]) -> f64 {
    let cycles: u64 = ms.iter().map(|m| m.sim_cycles).sum();
    let wall: f64 = ms.iter().map(|m| m.wall_seconds).sum();
    cycles as f64 / wall.max(1e-9) / 1e6
}

fn total_muops_per_sec(ms: &[&ThroughputMeasurement]) -> f64 {
    let uops: u64 = ms.iter().map(|m| m.uops).sum();
    let wall: f64 = ms.iter().map(|m| m.wall_seconds).sum();
    uops as f64 / wall.max(1e-9) / 1e6
}

/// Builds the `BENCH_throughput` report: one column per benchmark plus
/// a `TOTAL` column (aggregate rates, not means), and per machine arm
/// one row per metric. Each arm's `speedup` row's `TOTAL` cell is that
/// machine's headline number: optimized over naive aggregate
/// sim-cycles/sec.
///
/// # Panics
///
/// Panics when `arms` is empty or the arms measured different
/// benchmark lists — the columns would not line up.
pub fn throughput_report(arms: &[ArmThroughput]) -> Report {
    let first = arms.first().expect("at least one throughput arm"); // bosim-lint: allow(P002, harness misuse; the perf binary always passes arms)
                                                                    // Full benchmark names: a bare numeric prefix ("462") reads as a
                                                                    // data point in a throughput table, not a label.
    let mut benchmarks: Vec<String> = first
        .pairs
        .iter()
        .map(|p| p.naive.benchmark.clone())
        .collect();
    benchmarks.push("TOTAL".to_string());

    let mut rows: Vec<ArmReport> = Vec::with_capacity(arms.len() * 5);
    for a in arms {
        assert_eq!(
            a.pairs.len(),
            first.pairs.len(),
            "arm {} measured a different benchmark list",
            a.label
        );
        let naive: Vec<&ThroughputMeasurement> = a.pairs.iter().map(|p| &p.naive).collect();
        let optimized: Vec<&ThroughputMeasurement> = a.pairs.iter().map(|p| &p.optimized).collect();

        let arm = |series: String, values: Vec<f64>, runs: &[&ThroughputMeasurement]| ArmReport {
            series,
            group: None,
            config: a.config.label(),
            baseline: None,
            values,
            gm: None,
            runs: runs.iter().map(|m| RunSummary::from(&m.result)).collect(),
        };
        let rates =
            |ms: &[&ThroughputMeasurement], f: fn(&ThroughputMeasurement) -> f64, total: f64| {
                let mut v: Vec<f64> = ms.iter().map(|m| f(m)).collect();
                v.push(total);
                v
            };
        let mut speedups: Vec<f64> = a.pairs.iter().map(ThroughputPair::speedup).collect();
        speedups.push(total_mcycles_per_sec(&optimized) / total_mcycles_per_sec(&naive));

        rows.push(arm(
            format!("{} naive Mcyc/s", a.label),
            rates(
                &naive,
                ThroughputMeasurement::mcycles_per_sec,
                total_mcycles_per_sec(&naive),
            ),
            &naive,
        ));
        rows.push(arm(
            format!("{} opt Mcyc/s", a.label),
            rates(
                &optimized,
                ThroughputMeasurement::mcycles_per_sec,
                total_mcycles_per_sec(&optimized),
            ),
            &optimized,
        ));
        rows.push(arm(
            format!("{} naive Muops/s", a.label),
            rates(
                &naive,
                ThroughputMeasurement::muops_per_sec,
                total_muops_per_sec(&naive),
            ),
            &naive,
        ));
        rows.push(arm(
            format!("{} opt Muops/s", a.label),
            rates(
                &optimized,
                ThroughputMeasurement::muops_per_sec,
                total_muops_per_sec(&optimized),
            ),
            &optimized,
        ));
        rows.push(arm(format!("{} speedup", a.label), speedups, &optimized));
    }

    Report {
        name: "BENCH_throughput".to_string(),
        title: format!(
            "Simulator throughput, {} machine arms (naive vs optimized)",
            arms.len()
        ),
        metric: "sim-Mcycles/s".to_string(),
        benchmarks,
        arms: rows,
        layout: Layout::ArmRows,
        with_gm: false,
        decimals: 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bosim_trace::suite;

    #[test]
    fn measure_pairs_are_invariant_and_report_shapes_up() {
        let cfg = SimConfig {
            warmup_instructions: 2_000,
            measure_instructions: 10_000,
            ..Default::default()
        };
        let benches = vec![
            suite::benchmark("462").expect("exists"),
            suite::benchmark("444").expect("exists"),
        ];
        let pairs = measure_suite(&cfg, &benches, 1);
        assert_eq!(pairs.len(), 2);
        for p in &pairs {
            assert!(p.naive.sim_cycles > 0);
            assert!(p.naive.wall_seconds > 0.0);
            assert!(p.speedup() > 0.0);
        }
        let arms = vec![ArmThroughput {
            label: "default".to_string(),
            config: cfg,
            pairs,
        }];
        assert!(aggregate_speedup(&arms) > 0.0);
        let report = throughput_report(&arms);
        assert_eq!(report.name, "BENCH_throughput");
        assert_eq!(report.benchmarks.len(), 3, "two benchmarks plus TOTAL");
        assert_eq!(report.arms.len(), 5, "five metric rows per machine arm");
        for a in &report.arms {
            assert_eq!(a.values.len(), 3);
        }
        let tsv = report.table().to_tsv();
        assert!(tsv.contains("default speedup"), "{tsv}");
        assert!(tsv.contains("TOTAL"), "{tsv}");
    }

    #[test]
    fn perf_arms_cover_multicore_and_bo() {
        let arms = perf_arms(&SimConfig::default());
        let labels: Vec<&str> = arms.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["default", "4-core", "l2:bo"]);
        assert_eq!(arms[1].1.active_cores, 4);
        assert!(arms[2].1.label().ends_with("/BO"), "{}", arms[2].1.label());
    }
}
