//! The benchmark's workloads and the seeded inputs each one runs on.
//!
//! Every input is derived from the `--seed` argument: the synthetic
//! workloads take their `BenchmarkSpec.seed` and `SimConfig.seed` from
//! it, and `serve-grid` captures its ChampSim corpus from seeded
//! synthetic sources. The simulator only ever sees the generated
//! inputs.

use bosim::{prefetchers, SimConfig};
use bosim_trace::{capture, champsim, suite, BenchmarkSpec};
use bosim_types::mix64;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One core, `462.libquantum-like` on `l2:bo`: core-tick bound.
    Core462,
    /// One core, `429.mcf-like` on `l2:bo`: pointer chasing, memory bound.
    Mem429,
    /// Four cores, `433.milc-like` on core 0 plus three thrashers.
    Mc4_433,
    /// `bosim serve` over a generated ChampSim corpus.
    ServeGrid,
}

/// Run length: `full` for measurement, `tiny` for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A smoke-test size, roughly 1/20 of the work.
    Tiny,
}

impl Size {
    pub fn parse(s: &str) -> Option<Size> {
        match s {
            "full" => Some(Size::Full),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }

    fn scale(self, full: u64) -> u64 {
        match self {
            Size::Full => full,
            Size::Tiny => full / 20,
        }
    }
}

/// The traces of the `serve-grid` corpus (suite ids).
const SERVE_TRACES: [&str; 4] = ["462", "429", "433", "470"];
/// The stacks of the `serve-grid` corpus; each is paired with the
/// shared `l2:none` baseline.
const SERVE_STACKS: [&str; 3] = ["l2:bo", "l2:next-line", "l2:sbp"];

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Core462,
        Workload::Mem429,
        Workload::Mc4_433,
        Workload::ServeGrid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Core462 => "core-462",
            Workload::Mem429 => "mem-429",
            Workload::Mc4_433 => "mc4-433",
            Workload::ServeGrid => "serve-grid",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Suite id, core count, warm-up and measured instructions of a
    /// simulation workload, or `None` for `serve-grid`.
    fn sim_params(self) -> Option<(&'static str, usize, u64, u64)> {
        match self {
            Workload::Core462 => Some(("462", 1, 200_000, 1_000_000)),
            Workload::Mem429 => Some(("429", 1, 100_000, 400_000)),
            Workload::Mc4_433 => Some(("433", 4, 20_000, 80_000)),
            Workload::ServeGrid => None,
        }
    }

    pub fn is_sim(self) -> bool {
        self.sim_params().is_some()
    }

    /// Core 0's benchmark (simulation workloads only).
    pub fn bench(self, seed: u64) -> BenchmarkSpec {
        let (id, ..) = self.sim_params().expect("a simulation workload");
        seeded_spec(id, seed)
    }

    /// The machine configuration (simulation workloads only).
    pub fn config(self, seed: u64, size: Size) -> SimConfig {
        let (_, cores, warmup, instructions) = self.sim_params().expect("a simulation workload");
        SimConfig::builder()
            .cores(cores)
            .prefetcher(prefetchers::bo_default())
            .warmup(size.scale(warmup))
            .instructions(size.scale(instructions))
            .seed(mix64(seed ^ 0x5EED_C0F6))
            .build()
            .expect("benchmark machine configurations are valid")
    }
}

/// Suite benchmark `id` with its generator seed taken from `seed`.
pub fn seeded_spec(id: &str, seed: u64) -> BenchmarkSpec {
    let mut spec = suite::benchmark(id).expect("benchmark ids are suite ids");
    spec.seed = mix64(seed ^ mix64(id.as_bytes().iter().fold(0, |h, &b| h << 8 | u64::from(b))));
    spec
}

/// Captures the seeded `serve-grid` traces, encodes them as ChampSim
/// files under `dir` and writes the sweep manifest next to them.
/// Returns the manifest's path.
pub fn write_corpus(dir: &Path, seed: u64, size: Size) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let uops = size.scale(300_000) as usize;
    let mut manifest = format!(
        "name = \"perfbench-grid\"\ninstructions = {}\nwarmup = {}\n",
        size.scale(100_000),
        size.scale(30_000)
    );
    for id in SERVE_TRACES {
        let recorded = capture(&mut seeded_spec(id, seed).build(), uops);
        let path = dir.join(format!("{id}.champsim"));
        std::fs::write(&path, champsim::encode(&recorded))?;
        let _ = write!(
            manifest,
            "\n[[trace]]\npath = \"{id}.champsim\"\nformat = \"champsim\"\nname = \"{id}\"\n"
        );
    }
    for stack in SERVE_STACKS {
        let _ = write!(
            manifest,
            "\n[[stack]]\nstack = \"{stack}\"\nbaseline = \"l2:none\"\n"
        );
    }
    let path = dir.join("corpus.toml");
    std::fs::write(&path, manifest)?;
    Ok(path)
}
