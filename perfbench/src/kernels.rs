//! Layer replay kernels: each layer's public structures timed alone on
//! the workload's own streams.
//!
//! The µop stream is captured from the workload's core-0 source (the
//! seeded synthetic generator, or the decoded `serve-grid` corpus).
//! From it the kernels derive the branch stream, the data-page stream
//! and the line streams reaching each cache level: data lines are
//! translated and filtered through a DL1-geometry array into the L2
//! stream, whose misses in a Table-1 L2 array form the L3 stream, whose
//! misses in the Table-1 L3 array form the DRAM stream. Every kernel
//! builds fresh structures outside the timed region, replays the
//! stream with `black_box`, and reports the minimum of [`REPS`] runs.

use crate::hostspeed;
use crate::workload::{write_corpus, Size, Workload};
use best_offset::{AccessOutcome, BestOffsetPrefetcher, CacheAccess, Prefetcher, RrTable};
use bosim::SimConfig;
use bosim_cache::policy::{InsertCtx, PolicyKind};
use bosim_cache::CacheArray;
use bosim_cpu::{PageTranslator, Tage, TlbHierarchy};
use bosim_dram::{MemConfig, MemorySystem};
use bosim_stats::Json;
use bosim_trace::{champsim, MicroOp, ReplaySource, TraceSource, UopKind};
use bosim_types::{CoreId, LineAddr};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Timed runs per kernel; the fastest is reported.
const REPS: usize = 5;

/// Most DRAM reads replayed by the DRAM kernel.
const MAX_DRAM_READS: usize = 50_000;

fn min_secs(mut setup_and_run: impl FnMut() -> f64) -> f64 {
    (0..REPS)
        .map(|_| setup_and_run())
        .fold(f64::INFINITY, f64::min)
}

fn per_call_ns(secs: f64, calls: usize) -> f64 {
    secs * 1e9 / calls.max(1) as f64
}

/// The workload's µop stream, its ChampSim bytes, and a factory for
/// fresh sources replaying it as the simulator would.
struct Streams {
    uops: Vec<MicroOp>,
    champsim_bytes: Vec<Vec<u8>>,
    source: Box<dyn Fn() -> Box<dyn TraceSource>>,
}

fn streams(w: Workload, seed: u64, size: Size, work: &Path) -> Result<Streams, String> {
    let n = match size {
        Size::Full => 200_000,
        Size::Tiny => 10_000,
    };
    if w.is_sim() {
        let spec = w.bench(seed);
        let uops = bosim_trace::capture(&mut spec.build(), n);
        let champsim_bytes = vec![champsim::encode(&uops)];
        let source = Box::new(move || Box::new(spec.build()) as Box<dyn TraceSource>);
        return Ok(Streams {
            uops,
            champsim_bytes,
            source,
        });
    }
    let manifest = write_corpus(&work.join("corpus"), seed, size).map_err(|e| e.to_string())?;
    let corpus = bosim_cli::corpus::load(&manifest).map_err(|e| e.to_string())?;
    let mut uops = Vec::new();
    let mut champsim_bytes = Vec::new();
    let per_trace = n / corpus.traces.len().max(1);
    for t in &corpus.traces {
        let bytes = std::fs::read(&t.path).map_err(|e| e.to_string())?;
        let decoded = champsim::decode(&bytes[..]).map_err(|e| e.to_string())?;
        uops.extend(decoded.into_iter().take(per_trace));
        champsim_bytes.push(bytes);
    }
    let shared = std::sync::Arc::new(uops.clone());
    let source = Box::new(move || {
        Box::new(ReplaySource::from_shared("corpus", shared.clone())) as Box<dyn TraceSource>
    });
    Ok(Streams {
        uops,
        champsim_bytes,
        source,
    })
}

/// Line streams at each level, with the L2 outcome of each L2 access.
struct LineStreams {
    l2: Vec<(LineAddr, AccessOutcome)>,
    l3: Vec<LineAddr>,
    dram: Vec<LineAddr>,
}

fn insert_ctx() -> InsertCtx {
    InsertCtx {
        demand: true,
        core: CoreId(0),
    }
}

/// Looks `line` up in `array`, inserting it on a miss. Returns whether
/// it hit.
fn access_or_fill(array: &mut CacheArray, line: LineAddr) -> bool {
    let hit = array.access(line, false).is_some();
    if !hit {
        black_box(array.insert(line, false, false, insert_ctx()));
    }
    hit
}

fn line_streams(uops: &[MicroOp], cfg: &SimConfig, seed: u64) -> LineStreams {
    let translator = PageTranslator::new(seed, cfg.page);
    let mut dl1 = CacheArray::new(cfg.core.dl1_size, cfg.core.dl1_ways, PolicyKind::Lru, 1, 2);
    let (mut l2_array, mut l3_array) = table1_arrays(cfg);
    let mut s = LineStreams {
        l2: Vec::new(),
        l3: Vec::new(),
        dram: Vec::new(),
    };
    for m in uops.iter().filter_map(|u| u.mem) {
        let line = translator.translate(m.vaddr);
        if access_or_fill(&mut dl1, line) {
            continue;
        }
        if access_or_fill(&mut l2_array, line) {
            s.l2.push((line, AccessOutcome::Hit));
            continue;
        }
        s.l2.push((line, AccessOutcome::Miss));
        s.l3.push(line);
        if !access_or_fill(&mut l3_array, line) {
            s.dram.push(line);
        }
    }
    s
}

fn table1_arrays(cfg: &SimConfig) -> (CacheArray, CacheArray) {
    (
        CacheArray::new(cfg.l2_size, cfg.l2_ways, PolicyKind::Lru, 1, 3),
        CacheArray::new(cfg.l3_size, cfg.l3_ways, cfg.l3_policy, 4, 7),
    )
}

/// Runs every layer kernel for the workload and returns
/// `{"values": {name: value}, "host_s": [...]}`, with host-speed samples
/// taken before and after the kernels. `dram_gap` is the run's
/// simulated cycles per DRAM read, which paces the DRAM kernel.
pub fn run(w: Workload, seed: u64, size: Size, work: &Path, dram_gap: f64) -> Result<Json, String> {
    let cfg = if w.is_sim() {
        w.config(seed, size)
    } else {
        SimConfig::default()
    };
    let st = streams(w, seed, size, work)?;
    let n = st.uops.len();
    let mut host_s = hostspeed::samples(2, 1);

    // trace: µop generation / replay, and ChampSim decode.
    let next_uop = min_secs(|| {
        let mut src = (st.source)();
        let t = Instant::now();
        for _ in 0..n {
            black_box(src.next_uop());
        }
        t.elapsed().as_secs_f64()
    });
    let decode_bytes: usize = st.champsim_bytes.iter().map(Vec::len).sum();
    let decode = min_secs(|| {
        let t = Instant::now();
        for bytes in &st.champsim_bytes {
            black_box(champsim::decode(black_box(&bytes[..])).ok());
        }
        t.elapsed().as_secs_f64()
    });

    // cpu: TAGE over the conditional branches, the TLB hierarchy over
    // the data pages.
    let branches: Vec<(u64, bool)> = st
        .uops
        .iter()
        .filter(|u| u.kind == UopKind::CondBranch)
        .filter_map(|u| u.branch.map(|b| (u.pc, b.taken)))
        .collect();
    let tage = min_secs(|| {
        let mut tage = Tage::with_defaults();
        let t = Instant::now();
        for &(pc, taken) in &branches {
            black_box(tage.update(black_box(pc), taken));
        }
        t.elapsed().as_secs_f64()
    });
    let pages: Vec<u64> = st
        .uops
        .iter()
        .filter_map(|u| u.mem.map(|m| m.vaddr.page_number(cfg.page)))
        .collect();
    let tlb = min_secs(|| {
        let mut tlbs = TlbHierarchy::with_defaults();
        let t = Instant::now();
        for &vpn in &pages {
            black_box(tlbs.data_penalty(black_box(vpn)));
        }
        t.elapsed().as_secs_f64()
    });

    // cache: L2 and L3 arrays at Table-1 geometry.
    let lines = line_streams(&st.uops, &cfg, cfg.seed);
    let array_calls = lines.l2.len() + lines.l3.len();
    let array = min_secs(|| {
        let (mut l2, mut l3) = table1_arrays(&cfg);
        let t = Instant::now();
        for &(line, _) in &lines.l2 {
            black_box(access_or_fill(&mut l2, black_box(line)));
        }
        for &line in &lines.l3 {
            black_box(access_or_fill(&mut l3, black_box(line)));
        }
        t.elapsed().as_secs_f64()
    });

    // core: BO on the L2 access stream (every prefetch fills in time),
    // and the RR table alone.
    let bo = min_secs(|| {
        let mut bo = BestOffsetPrefetcher::with_defaults(cfg.page);
        let mut out = Vec::new();
        let t = Instant::now();
        for &(line, outcome) in &lines.l2 {
            out.clear();
            bo.on_access(CacheAccess { line, outcome }, &mut out);
            for &l in &out {
                bo.on_fill(l, true);
            }
        }
        black_box(&bo);
        t.elapsed().as_secs_f64()
    });
    let rr = min_secs(|| {
        let mut rr = RrTable::new(256, 12);
        let t = Instant::now();
        for &(line, _) in &lines.l2 {
            black_box(rr.contains(black_box(line)));
            rr.insert(line);
        }
        t.elapsed().as_secs_f64()
    });

    // dram: the DRAM stream arrives at the run's own mean spacing
    // (`dram_gap` cycles per read); the memory system is ticked only at
    // the cycles `next_event` names, as the simulator's event loop does,
    // until every read has returned.
    let reads: Vec<LineAddr> = lines.dram.iter().copied().take(MAX_DRAM_READS).collect();
    let dram = min_secs(|| {
        let mut mem = MemorySystem::new(MemConfig {
            num_cores: 1,
            ..Default::default()
        });
        let mut done = Vec::new();
        let mut completed = 0;
        let mut now = 0;
        let mut tick = |mem: &mut MemorySystem, now: &mut u64, before: u64| {
            match mem.next_event(*now) {
                Some(at) if at < before => {
                    let at = at.max(*now);
                    mem.tick(at, true, &mut done);
                    *now = at + 1;
                }
                _ => *now = before,
            }
            let n = done.len();
            done.clear();
            n
        };
        let t = Instant::now();
        for (id, &line) in reads.iter().enumerate() {
            let due = (id as f64 * dram_gap) as u64;
            while now < due {
                completed += tick(&mut mem, &mut now, due);
            }
            while !mem.can_accept_read(line, CoreId(0)) {
                completed += tick(&mut mem, &mut now, u64::MAX);
            }
            mem.enqueue_read(line, CoreId(0), id as u64, now);
        }
        while completed < reads.len() {
            completed += tick(&mut mem, &mut now, u64::MAX);
        }
        t.elapsed().as_secs_f64()
    });

    let values = [
        ("trace.next_uop_ns", per_call_ns(next_uop, n)),
        ("trace.decode_mb_per_s", decode_bytes as f64 / 1e6 / decode),
        ("cpu.tage_ns", per_call_ns(tage, branches.len())),
        ("cpu.tlb_ns", per_call_ns(tlb, pages.len())),
        ("cache.array_ns", per_call_ns(array, array_calls)),
        ("core.bo_ns", per_call_ns(bo, lines.l2.len())),
        ("core.rr_ns", per_call_ns(rr, lines.l2.len())),
        ("dram.ns_per_read", per_call_ns(dram, reads.len())),
    ];
    host_s.extend(hostspeed::samples(2, 1));
    Ok(Json::obj([
        ("values", Json::obj(values.map(|(k, v)| (k, Json::from(v))))),
        ("host_s", Json::arr(host_s.into_iter().map(Json::from))),
    ]))
}
