//! Figure 4: impact of disabling the DL1 stride prefetcher (speedups
//! relative to the baselines; below 1.0 means the prefetcher helps).
use bosim::SimConfig;
use bosim_bench::six_baseline_speedup;

fn main() {
    six_baseline_speedup(
        "fig04_dl1_stride",
        "Figure 4: disabling the DL1 stride prefetcher",
        |page, cores| {
            SimConfig::builder()
                .page(page)
                .cores(cores)
                .no_l1_prefetcher()
                .build()
                .expect("a baseline with an empty L1 site is valid")
        },
    )
    .run_and_emit();
}
