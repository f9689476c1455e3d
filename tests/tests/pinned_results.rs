//! Pinned absolute results: committed fingerprints of whole
//! `SimResult`s on a handful of arms.
//!
//! golden_stats compares `ExecMode::Naive` with `ExecMode::Scheduled`,
//! and both run the same `Core` and `Tage` code, so a change in how a
//! core dispatches, predicts or wakes µops moves both sides alike and
//! passes unnoticed there. This test pins the result itself. The arms
//! cover the mispredict-heavy suite benchmarks (TAGE allocation and the
//! redirect stall), pointer chasing, stores, the multi-core loop, the
//! L1D stride site on its own and the shared L3 site fed by two cores
//! (its queue entries carry the triggering core, which only matters
//! with more than one).
//!
//! A fingerprint is the FNV-1a hash of the `SimResult`'s `Debug` text,
//! so it changes with any counter. If a change is meant to alter
//! simulated behaviour, rerun this test and commit the printed values.

use bosim::{prefetchers, SimConfig, SimResult, System};
use bosim_bench::journal::fnv64;
use bosim_trace::suite;
use bosim_types::PageSize;

fn run(cfg: &SimConfig, bench_id: &str) -> SimResult {
    let bench = suite::benchmark(bench_id).expect("benchmark exists");
    System::new(cfg, &bench).run()
}

fn fingerprint(result: &SimResult) -> String {
    format!("{:016x}", fnv64(format!("{result:?}").as_bytes()))
}

fn one_core(bench_seed: u64) -> SimConfig {
    SimConfig {
        warmup_instructions: 10_000,
        measure_instructions: 50_000,
        l2_prefetcher: prefetchers::bo_default(),
        seed: bench_seed,
        ..Default::default()
    }
}

/// `(arm, config, benchmark, fingerprint)` for every pinned arm.
fn arms() -> Vec<(&'static str, SimConfig, &'static str, &'static str)> {
    let four_core = SimConfig {
        active_cores: 4,
        warmup_instructions: 5_000,
        measure_instructions: 15_000,
        ..one_core(0xB05EED)
    };
    let two_core_l3 = SimConfig {
        active_cores: 2,
        l3_prefetcher: Some(prefetchers::next_line()),
        ..one_core(0xB05EED)
    };
    let stride_only = SimConfig {
        l1_prefetcher: Some(prefetchers::stride_default()),
        l2_prefetcher: prefetchers::none(),
        page: PageSize::M4,
        ..one_core(0x0005_EED2)
    };
    vec![
        ("445 l2:bo", one_core(0xB05EED), "445", "257bcc6c9cb525e7"),
        ("458 l2:bo", one_core(0xB05EED), "458", "c2833090ebeaad50"),
        ("429 l2:bo", one_core(0xB05EED), "429", "f8a8c8d39a1267b8"),
        ("470 l2:bo", one_core(0xB05EED), "470", "407a8b955a67d93d"),
        ("433 4-core", four_core, "433", "cf51646a557d7c93"),
        ("462 l1:stride", stride_only, "462", "dfc3febc47ea3777"),
        (
            "433 2-core l3:next-line",
            two_core_l3,
            "433",
            "607104315abf2c37",
        ),
    ]
}

#[test]
fn results_match_pinned_fingerprints() {
    let mut wrong = Vec::new();
    for (arm, cfg, bench_id, pinned) in arms() {
        let result = run(&cfg, bench_id);
        // The arms must exercise what they are here to pin.
        match bench_id {
            "445" | "458" => assert!(result.core.mispredicts > 500, "{arm}: {:?}", result.core),
            "462" => assert!(result.core.l1_prefetches > 100, "{arm}: {:?}", result.core),
            _ if cfg.l3_prefetcher.is_some() => {
                let u = &result.uncore;
                assert!(
                    u.l3_prefetches_issued > 0 && u.l3_prefetches_cancelled > 0,
                    "{arm}: {u:?}"
                )
            }
            _ => {}
        }
        let got = fingerprint(&result);
        if got != pinned {
            wrong.push(format!("{arm}: pinned {pinned}, got {got}"));
        }
    }
    assert!(
        wrong.is_empty(),
        "simulated results moved:\n{}",
        wrong.join("\n")
    );
}
