//! The out-of-order core timing model.
//!
//! Trace-driven and cycle-approximate, calibrated to Table 1: 256-entry
//! ROB, 8-wide decode, 12-wide retire, 2 load ports, 32 DL1 MSHRs, 12
//! cycle minimum branch misprediction penalty with redirect at branch
//! execution, TAGE/ITTAGE prediction, two-level TLBs, 32KB 8-way IL1/DL1
//! (3-cycle DL1), a 42-entry store buffer draining in the background, and
//! a pluggable L1D prefetch site (any [`best_offset::L1Prefetcher`];
//! the §5.5 PC-indexed stride prefetcher is the default occupant,
//! trained at retirement and issuing at access time through the TLB2).
//!
//! Scheduling is event-driven inside a per-cycle `tick`: register
//! dependences are tracked through a scoreboard with wakeup lists, so
//! pointer chases serialise on memory latency while independent loads
//! expose memory-level parallelism — the two behaviours that decide
//! whether prefetch timeliness matters.
//!
//! The per-µop structures are sized when a core is built, so dispatch
//! allocates nothing. The ROB is a fixed ring of `Copy` entries,
//! `rob_size` rounded up to a power of two, and µop `seq` lives in slot
//! `seq & mask`. Each entry's wakeup list is a FIFO linked through a
//! per-core slab of waiter nodes with a free list. A consumer holds at
//! most two nodes while it waits in the ROB, so the slab never grows
//! past `2 × rob_size` nodes. Load issues and their retries wait in a
//! heap ordered by `(cycle, seq)`, at most one per load in the ROB.

use crate::tage::{Ittage, Tage};
use crate::tlb::{PageTranslator, TlbHierarchy};
use best_offset::{L1Prefetcher, TuneDirective};
use bosim_cache::policy::{InsertCtx, PolicyKind};
use bosim_cache::{CacheArray, MshrFile};
use bosim_trace::{MicroOp, TraceSource, UopKind, NUM_REGS};
use bosim_types::{CoreId, Cycle, LineAddr, PageSize, ReqClass, VirtAddr};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// The end of a waiter list.
const NIL: u32 = u32::MAX;

/// Core configuration (Table 1 defaults via [`Default`]).
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// Reorder buffer capacity (256).
    pub rob_size: usize,
    /// Decode/dispatch width (8).
    pub dispatch_width: usize,
    /// Retire width (12).
    pub retire_width: usize,
    /// Loads issued per cycle (2 load ports).
    pub load_ports: usize,
    /// Integer ALU ports (Table 1: 4 INT execution ports).
    pub int_ports: usize,
    /// FP ports (Table 1: 2 FP execution ports).
    pub fp_ports: usize,
    /// Store buffer entries (42).
    pub store_buffer: usize,
    /// DL1 MSHR block requests (32).
    pub mshrs: usize,
    /// Minimum misprediction penalty, cycles (12).
    pub mispredict_penalty: u64,
    /// DL1 hit latency, cycles (3).
    pub dl1_latency: u64,
    /// DL1 size in bytes (32KB) and ways (8).
    pub dl1_size: u64,
    /// DL1 associativity.
    pub dl1_ways: usize,
    /// IL1 size in bytes (32KB) and ways (8).
    pub il1_size: u64,
    /// IL1 associativity.
    pub il1_ways: usize,
    /// Decode batch size: µops pulled from the trace source per refill
    /// of the core's decode ring. `0` (the default) bypasses the ring
    /// and pulls one µop at a time through the virtual call — the
    /// reference behaviour the batched path must match exactly (batching
    /// only changes *when* µops are fetched from the source, never which
    /// µops the front-end sees).
    pub decode_batch: usize,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            rob_size: 256,
            dispatch_width: 8,
            retire_width: 12,
            load_ports: 2,
            int_ports: 4,
            fp_ports: 2,
            store_buffer: 42,
            mshrs: 32,
            mispredict_penalty: 12,
            dl1_latency: 3,
            dl1_size: 32 << 10,
            dl1_ways: 8,
            il1_size: 32 << 10,
            il1_ways: 8,
            decode_batch: 0,
        }
    }
}

/// A request the core sends to the uncore (its private L2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UncoreRequest {
    /// Read a block (demand miss or DL1 prefetch).
    Read {
        /// Physical line.
        line: LineAddr,
        /// Demand vs L1-prefetch class.
        class: ReqClass,
        /// True for instruction fetches.
        ifetch: bool,
    },
    /// Write back a dirty block evicted from the DL1.
    Writeback {
        /// Physical line.
        line: LineAddr,
    },
}

/// Core-level statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired.
    pub retired: u64,
    /// Conditional branches seen.
    pub branches: u64,
    /// Mispredicted branches (direction or target).
    pub mispredicts: u64,
    /// Data loads executed.
    pub loads: u64,
    /// Stores committed.
    pub stores: u64,
    /// DL1 load hits.
    pub dl1_hits: u64,
    /// DL1 load misses (block requests sent to L2, before merging).
    pub dl1_misses: u64,
    /// IL1 misses.
    pub il1_misses: u64,
    /// L1D-site prefetch requests issued to the uncore.
    pub l1_prefetches: u64,
    /// L1D-site prefetch requests dropped on a TLB2 miss.
    pub l1_prefetch_tlb_drops: u64,
}

/// An observability event reported by a core (the L1D prefetch site's
/// issue path). Buffered only while a sink is enabled
/// ([`Core::set_obs_sink`]) and drained by the simulator each cycle,
/// which stamps cycle and core id — with the sink off (the default)
/// the issue path does no event work at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreObsEvent {
    /// An L1D prefetch was issued into the uncore request path.
    L1PrefetchIssued {
        /// Physical line address of the prefetch.
        line: LineAddr,
    },
    /// A proposed L1D prefetch was dropped on the §5.5 TLB2 probe (the
    /// target was never translated, so no line address exists).
    L1PrefetchTlbDrop,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegState {
    Known(Cycle),
    Pending(u64),
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    kind: UopKind,
    pc: u64,
    vaddr: u64,
    has_mem: bool,
    dst: Option<u8>,
    done_at: Option<Cycle>,
    /// Producers still outstanding.
    unresolved: u8,
    /// Earliest known execution start.
    ready_hint: Cycle,
    /// Dependent seqs waiting for this entry's completion.
    waiters: WaitList,
    mispredicted: bool,
    /// Loads: the address translation penalty has been charged.
    translated: bool,
}

impl RobEntry {
    /// The filler of ring slots no µop occupies.
    const EMPTY: RobEntry = RobEntry {
        kind: UopKind::Int,
        pc: 0,
        vaddr: 0,
        has_mem: false,
        dst: None,
        done_at: None,
        unresolved: 0,
        ready_hint: 0,
        waiters: WaitList::EMPTY,
        mispredicted: false,
        translated: false,
    };
}

/// A FIFO of dependent seqs, linked through a [`WaiterSlab`].
#[derive(Debug, Clone, Copy)]
struct WaitList {
    head: u32,
    tail: u32,
}

impl WaitList {
    const EMPTY: WaitList = WaitList {
        head: NIL,
        tail: NIL,
    };
}

#[derive(Debug, Clone, Copy)]
struct WaitNode {
    seq: u64,
    next: u32,
}

/// The nodes of every ROB entry's waiter list, with a free list of
/// released nodes threaded through `next`.
#[derive(Debug)]
struct WaiterSlab {
    nodes: Vec<WaitNode>,
    free: u32,
}

impl WaiterSlab {
    fn with_capacity(n: usize) -> Self {
        WaiterSlab {
            nodes: Vec::with_capacity(n),
            free: NIL,
        }
    }

    /// Appends `seq` to the tail of `list`.
    fn push(&mut self, list: &mut WaitList, seq: u64) {
        let node = WaitNode { seq, next: NIL };
        let i = if self.free == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let i = self.free;
            self.free = self.nodes[i as usize].next;
            self.nodes[i as usize] = node;
            i
        };
        if list.tail == NIL {
            list.head = i;
        } else {
            self.nodes[list.tail as usize].next = i;
        }
        list.tail = i;
    }

    /// Removes and returns the head of `list`, releasing its node.
    fn pop(&mut self, list: &mut WaitList) -> Option<u64> {
        if list.head == NIL {
            return None;
        }
        let i = list.head;
        let WaitNode { seq, next } = self.nodes[i as usize];
        list.head = next;
        if next == NIL {
            list.tail = NIL;
        }
        self.nodes[i as usize].next = self.free;
        self.free = i;
        Some(seq)
    }
}

const PORT_RING: usize = 256;

/// Per-cycle use of one class of ports: slot `cycle % PORT_RING` holds
/// `(cycle, ports taken)`, and a slot holding another cycle is free.
type PortRing = [(Cycle, u8); PORT_RING];

/// Takes a port of `ring` (`cap` per cycle) at or after `t`; returns
/// the granted cycle.
fn reserve(ring: &mut PortRing, cap: usize, mut t: Cycle) -> Cycle {
    loop {
        let slot = &mut ring[(t as usize) % PORT_RING];
        if slot.0 != t {
            *slot = (t, 0);
        }
        if (slot.1 as usize) < cap {
            slot.1 += 1;
            return t;
        }
        t += 1;
    }
}

/// One simulated core: front-end, ROB, L1 caches, TLBs and predictors.
#[derive(Debug)]
pub struct Core {
    id: CoreId,
    cfg: CoreConfig,
    trace: Box<dyn TraceSource>,
    translator: PageTranslator,
    /// TLB hierarchy (public for experiment configuration).
    pub tlbs: TlbHierarchy,
    tage: Tage,
    ittage: Ittage,
    il1: CacheArray,
    dl1: CacheArray,
    mshr: MshrFile,
    /// The pluggable L1D prefetch site (`None` = site empty, Figure 4).
    l1_prefetcher: Option<Box<dyn L1Prefetcher>>,

    /// The ROB ring: µops `head_seq..next_seq` sit in slot `seq & rob_mask`.
    rob: Vec<RobEntry>,
    rob_mask: u64,
    head_seq: u64,
    next_seq: u64,
    waiters: WaiterSlab,
    regs: [RegState; NUM_REGS],
    /// Load issues and retries, as `(cycle, seq)`.
    events: BinaryHeap<Reverse<(Cycle, u64)>>,

    fetch_stalled_until: Cycle,
    ifetch_pending: Option<LineAddr>,
    cur_fetch_vline: u64,
    pending_uop: Option<MicroOp>,
    /// Decode ring: µops pre-pulled from the trace source in blocks of
    /// `cfg.decode_batch` (empty and never refilled when batching is
    /// off). `decode_pos` is the read cursor into it.
    decode_buf: Vec<MicroOp>,
    decode_pos: usize,

    store_buffer: VecDeque<(u64, u64)>, // (pc, vaddr)
    /// The head store already charged its one-time TLB probe.
    store_probed: bool,
    /// The head store is parked on a full MSHR. Nothing this core does
    /// on its own can free a slot, so the scheduled loop may sleep the
    /// core; only a [`fill`](Self::fill) clears the flag.
    store_blocked: bool,
    ports: Box<PortRing>,
    int_port_ring: Box<PortRing>,
    fp_port_ring: Box<PortRing>,

    stats: CoreStats,
    /// Buffered observability events; `None` (the default) disables
    /// buffering entirely.
    obs: Option<Vec<CoreObsEvent>>,
}

impl Core {
    /// Creates a core running `trace` with the given page size and
    /// translation seed. `l1_prefetcher` occupies the L1D prefetch site
    /// (`None` leaves the site empty, as in the Figure 4 ablation); the
    /// TLB2-probe / MSHR-drop issue path of §5.5 applies to whatever
    /// prefetcher is plugged in.
    pub fn new(
        id: CoreId,
        cfg: CoreConfig,
        trace: Box<dyn TraceSource>,
        page: PageSize,
        seed: u64,
        l1_prefetcher: Option<Box<dyn L1Prefetcher>>,
    ) -> Self {
        Core {
            id,
            trace,
            translator: PageTranslator::new(seed ^ (0x517E * (id.index() as u64 + 1)), page),
            tlbs: TlbHierarchy::with_defaults(),
            tage: Tage::with_defaults(),
            ittage: Ittage::with_defaults(),
            il1: CacheArray::new(cfg.il1_size, cfg.il1_ways, PolicyKind::Lru, 1, seed ^ 1),
            dl1: CacheArray::new(cfg.dl1_size, cfg.dl1_ways, PolicyKind::Lru, 1, seed ^ 2),
            mshr: MshrFile::new(cfg.mshrs),
            l1_prefetcher,
            rob: vec![RobEntry::EMPTY; cfg.rob_size.next_power_of_two()],
            rob_mask: cfg.rob_size.next_power_of_two() as u64 - 1,
            head_seq: 0,
            next_seq: 0,
            waiters: WaiterSlab::with_capacity(2 * cfg.rob_size),
            regs: [RegState::Known(0); NUM_REGS],
            events: BinaryHeap::with_capacity(cfg.rob_size),
            fetch_stalled_until: 0,
            ifetch_pending: None,
            cur_fetch_vline: u64::MAX,
            pending_uop: None,
            decode_buf: Vec::new(),
            decode_pos: 0,
            store_buffer: VecDeque::new(),
            store_probed: false,
            store_blocked: false,
            ports: Box::new([(u64::MAX, 0); PORT_RING]),
            int_port_ring: Box::new([(u64::MAX, 0); PORT_RING]),
            fp_port_ring: Box::new([(u64::MAX, 0); PORT_RING]),
            stats: CoreStats::default(),
            cfg,
            obs: None,
        }
    }

    /// Enables or disables observability event buffering. While on,
    /// the simulator drains with [`drain_obs`](Self::drain_obs) every
    /// cycle it ticks this core.
    pub fn set_obs_sink(&mut self, enabled: bool) {
        self.obs = if enabled {
            Some(self.obs.take().unwrap_or_default())
        } else {
            None
        };
    }

    /// Moves any buffered [`CoreObsEvent`]s into `out`, in issue order.
    pub fn drain_obs(&mut self, out: &mut Vec<CoreObsEvent>) {
        if let Some(obs) = &mut self.obs {
            out.append(obs);
        }
    }

    /// This core's id.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.stats.retired
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// The virtual→physical translator (used by tests).
    pub fn translator(&self) -> &PageTranslator {
        &self.translator
    }

    /// The occupant of the L1D prefetch site, if any (introspection for
    /// tests and examples).
    pub fn l1_prefetcher(&self) -> Option<&dyn L1Prefetcher> {
        self.l1_prefetcher.as_deref()
    }

    /// Applies a runtime reconfiguration directive to the L1D-site
    /// prefetcher. Returns whether the directive was applied (`false`
    /// when the site is empty or the occupant rejects it).
    pub fn reconfigure_l1_prefetcher(&mut self, directive: &TuneDirective) -> bool {
        match self.l1_prefetcher.as_mut() {
            Some(p) => p.reconfigure(directive),
            None => false,
        }
    }

    /// µops in the ROB.
    #[inline]
    fn rob_len(&self) -> usize {
        (self.next_seq - self.head_seq) as usize
    }

    /// The oldest µop in the ROB, if any.
    #[inline]
    fn rob_head(&self) -> Option<&RobEntry> {
        self.slot(self.head_seq).map(|i| &self.rob[i])
    }

    /// The ring slot of `seq`, if it is in the ROB.
    #[inline]
    fn slot(&self, seq: u64) -> Option<usize> {
        (self.head_seq..self.next_seq)
            .contains(&seq)
            .then_some((seq & self.rob_mask) as usize)
    }

    #[inline]
    fn entry_mut(&mut self, seq: u64) -> Option<&mut RobEntry> {
        let i = self.slot(seq)?;
        Some(&mut self.rob[i])
    }

    /// Reserves a load port at or after `t`; returns the granted cycle.
    fn reserve_port(&mut self, t: Cycle) -> Cycle {
        reserve(&mut self.ports, self.cfg.load_ports, t)
    }

    /// Reserves an execution port (INT or FP) at or after `t`.
    fn reserve_exec_port(&mut self, kind: UopKind, t: Cycle) -> Cycle {
        match kind {
            UopKind::Fp | UopKind::FpDiv => reserve(&mut self.fp_port_ring, self.cfg.fp_ports, t),
            _ => reserve(&mut self.int_port_ring, self.cfg.int_ports, t),
        }
    }

    /// Marks `seq` complete at `done`, propagating to the scoreboard and
    /// waking dependents.
    fn complete(&mut self, seq: u64, done: Cycle, out: &mut Vec<UncoreRequest>) {
        let (dst, mut waiters, mispredicted) = {
            let e = match self.entry_mut(seq) {
                Some(e) => e,
                None => return,
            };
            e.done_at = Some(done);
            let waiters = std::mem::replace(&mut e.waiters, WaitList::EMPTY);
            (e.dst, waiters, e.mispredicted)
        };
        if let Some(d) = dst {
            if self.regs[d as usize] == RegState::Pending(seq) {
                self.regs[d as usize] = RegState::Known(done);
            }
        }
        if mispredicted {
            // Redirect at execution + pipeline-refill minimum (Table 1):
            // replaces the stall sentinel set at dispatch.
            self.fetch_stalled_until = done + self.cfg.mispredict_penalty;
        }
        while let Some(w) = self.waiters.pop(&mut waiters) {
            let sched = {
                let e = match self.entry_mut(w) {
                    Some(e) => e,
                    None => continue,
                };
                e.unresolved -= 1;
                e.ready_hint = e.ready_hint.max(done);
                if e.unresolved == 0 {
                    Some((e.kind, e.ready_hint))
                } else {
                    None
                }
            };
            if let Some((kind, ready)) = sched {
                self.schedule_exec(w, kind, ready, out);
            }
        }
    }

    /// Schedules execution of `seq`, a µop of `kind`, once all its
    /// producers are known.
    fn schedule_exec(
        &mut self,
        seq: u64,
        kind: UopKind,
        ready: Cycle,
        out: &mut Vec<UncoreRequest>,
    ) {
        if kind == UopKind::Load {
            let t = self.reserve_port(ready);
            self.events.push(Reverse((t, seq)));
        } else {
            let start = self.reserve_exec_port(kind, ready);
            let done = start + kind.exec_latency();
            self.complete(seq, done, out);
        }
    }

    /// Executes a load's DL1 access at its issue cycle.
    fn load_issue(&mut self, seq: u64, now: Cycle, out: &mut Vec<UncoreRequest>) {
        let Some(e) = self.entry_mut(seq) else {
            return;
        };
        let (pc, va) = (e.pc, VirtAddr(e.vaddr));
        // Translation penalty delays the access; charged exactly once per
        // load (the walk result is kept, so a retry must not re-probe —
        // concurrent loads with set-conflicting VPNs would otherwise
        // evict each other's entries forever).
        if !std::mem::replace(&mut e.translated, true) {
            let penalty = self
                .tlbs
                .data_penalty(va.page_number(self.translator.page_size()));
            if penalty > 0 {
                self.events.push(Reverse((now + penalty, seq)));
                return;
            }
        }
        let line = self.translator.translate(va);
        match self.dl1.access(line, false) {
            Some(hit) => {
                self.stats.dl1_hits += 1;
                let done = now + self.cfg.dl1_latency;
                self.complete(seq, done, out);
                if hit.was_prefetch {
                    // Prefetched hit: the L1 prefetcher triggers.
                    self.try_l1_prefetch(pc, va, out, now);
                }
            }
            None => {
                // Merge with a pending request if possible.
                if let Some(e) = self.mshr.find_mut(line) {
                    e.waiters.push(seq);
                    self.try_l1_prefetch(pc, va, out, now);
                    return;
                }
                if !self.mshr.try_alloc(line, now, false) {
                    // MSHR full: retry next cycle.
                    self.events.push(Reverse((now + 1, seq)));
                    return;
                }
                self.stats.dl1_misses += 1;
                self.mshr
                    .find_mut(line)
                    .expect("just allocated") // bosim-lint: allow(P002, MSHR entry allocated two lines above)
                    .waiters
                    .push(seq);
                out.push(UncoreRequest::Read {
                    line,
                    class: ReqClass::Demand,
                    ifetch: false,
                });
                self.try_l1_prefetch(pc, va, out, now);
            }
        }
    }

    /// The §5.5 L1D prefetch issue path (access-time trigger, TLB2
    /// probe, MSHR allocation), applied to whatever prefetcher occupies
    /// the site.
    fn try_l1_prefetch(
        &mut self,
        pc: u64,
        vaddr: VirtAddr,
        out: &mut Vec<UncoreRequest>,
        now: Cycle,
    ) {
        let Some(l1) = self.l1_prefetcher.as_mut() else {
            return;
        };
        let Some(target) = l1.on_access(pc, vaddr) else {
            return;
        };
        let page = self.translator.page_size();
        if !self.tlbs.prefetch_probe(target.page_number(page)) {
            self.stats.l1_prefetch_tlb_drops += 1;
            if let Some(obs) = &mut self.obs {
                obs.push(CoreObsEvent::L1PrefetchTlbDrop);
            }
            return;
        }
        let line = self.translator.translate(target);
        if self.dl1.contains(line) || self.mshr.find(line).is_some() {
            return;
        }
        if !self.mshr.try_alloc(line, now, true) {
            return; // MSHR full: drop the prefetch.
        }
        self.stats.l1_prefetches += 1;
        if let Some(obs) = &mut self.obs {
            obs.push(CoreObsEvent::L1PrefetchIssued { line });
        }
        out.push(UncoreRequest::Read {
            line,
            class: ReqClass::L1Prefetch,
            ifetch: false,
        });
    }

    /// Delivers a filled block from the uncore (the sim calls this when
    /// the block is forwarded to the DL1/IL1 fill path).
    pub fn fill(&mut self, line: LineAddr, now: Cycle, out: &mut Vec<UncoreRequest>) {
        // A fill is the one event that can unpark a head store blocked
        // on a full MSHR: it frees a slot and may land the line itself.
        self.store_blocked = false;
        if self.ifetch_pending == Some(line) {
            self.ifetch_pending = None;
            if !self.il1.contains(line) {
                self.il1.insert(
                    line,
                    false,
                    false,
                    InsertCtx {
                        demand: true,
                        core: self.id,
                    },
                );
            }
            // Fetch resumes; fall through in case a data request for the
            // same line is also pending in the MSHRs.
        }
        let Some(entry) = self.mshr.complete(line) else {
            return;
        };
        let demanded = !entry.waiters.is_empty();
        for seq in entry.waiters {
            self.complete(seq, now + 1, out);
        }
        if !self.dl1.contains(line) {
            let evicted = self.dl1.insert(
                line,
                entry.prefetch && !demanded && !entry.store,
                entry.store,
                InsertCtx {
                    demand: demanded || entry.store,
                    core: self.id,
                },
            );
            if let Some(ev) = evicted {
                if ev.dirty {
                    out.push(UncoreRequest::Writeback { line: ev.line });
                }
            }
        }
    }

    /// Drains one committed store per cycle through the DL1.
    ///
    /// A store probes the TLB once, when it first reaches the buffer
    /// head — a parked store holds its translation, it does not
    /// re-touch TLB state on every retry. A head parked on a full MSHR
    /// sets `store_blocked`: every later retry is provably identical
    /// (the DL1 and MSHR only gain the line, and the MSHR only frees a
    /// slot, through a fill), so [`next_work_cycle`]
    /// (Self::next_work_cycle) lets the scheduled loop sleep the core
    /// instead of spinning here.
    fn drain_store(&mut self, now: Cycle, out: &mut Vec<UncoreRequest>) {
        let Some(&(_pc, vaddr)) = self.store_buffer.front() else {
            return;
        };
        let va = VirtAddr(vaddr);
        if !self.store_probed {
            // Committed stores absorb translation latency; the probe
            // still charges the TLB hierarchy (fills + LRU) once.
            let _ = self
                .tlbs
                .data_penalty(va.page_number(self.translator.page_size()));
            self.store_probed = true;
        }
        let line = self.translator.translate(va);
        if self.dl1.access(line, true).is_some() {
            self.pop_store();
            return;
        }
        if let Some(e) = self.mshr.find_mut(line) {
            e.store = true;
            self.pop_store();
            return;
        }
        if self.mshr.try_alloc(line, now, false) {
            self.mshr.find_mut(line).expect("just allocated").store = true; // bosim-lint: allow(P002, MSHR entry allocated in the branch above)
            self.stats.dl1_misses += 1;
            out.push(UncoreRequest::Read {
                line,
                class: ReqClass::Demand,
                ifetch: false,
            });
            self.pop_store();
            return;
        }
        // MSHR full: the store waits at the buffer head until a fill
        // frees a slot (or lands the line itself).
        self.store_blocked = true;
    }

    /// Retires the head store from the buffer and re-arms the one-shot
    /// head-store state.
    fn pop_store(&mut self) {
        self.store_buffer.pop_front();
        self.store_probed = false;
        self.store_blocked = false;
    }

    /// Retires up to `retire_width` completed µops in program order,
    /// training the L1 prefetcher and committing stores.
    fn retire(&mut self, now: Cycle) {
        for _ in 0..self.cfg.retire_width {
            let Some(&head) = self.rob_head() else {
                return;
            };
            match head.done_at {
                Some(t) if t <= now => {}
                _ => return,
            }
            if head.kind == UopKind::Store && self.store_buffer.len() >= self.cfg.store_buffer {
                return; // store buffer full: stall retirement
            }
            let e = head;
            self.head_seq += 1;
            self.stats.retired += 1;
            if e.has_mem {
                if let Some(l1) = self.l1_prefetcher.as_mut() {
                    l1.on_retire(e.pc, VirtAddr(e.vaddr));
                }
                if e.kind == UopKind::Load {
                    self.stats.loads += 1;
                }
                if e.kind == UopKind::Store {
                    self.stats.stores += 1;
                    self.store_buffer.push_back((e.pc, e.vaddr));
                }
            }
        }
    }

    /// The next µop off the decode ring — or straight from the source
    /// when batching is off. The ring refills in `decode_batch` blocks
    /// via [`TraceSource::next_block`]; sources are infinite, so a
    /// refill always produces µops (a defensive fallback covers a
    /// custom source that ignores the contract).
    #[inline]
    fn next_decoded(&mut self) -> MicroOp {
        if self.cfg.decode_batch == 0 {
            return self.trace.next_uop();
        }
        if self.decode_pos == self.decode_buf.len() {
            self.decode_buf.clear();
            self.decode_pos = 0;
            self.trace
                .next_block(&mut self.decode_buf, self.cfg.decode_batch);
            if self.decode_buf.is_empty() {
                return self.trace.next_uop();
            }
        }
        let u = self.decode_buf[self.decode_pos];
        self.decode_pos += 1;
        u
    }

    /// Front end: fetch/dispatch up to `dispatch_width` µops.
    fn dispatch(&mut self, now: Cycle, out: &mut Vec<UncoreRequest>) {
        if now < self.fetch_stalled_until || self.ifetch_pending.is_some() {
            return;
        }
        let mut line_switches = 0;
        let mut taken_branches = 0;
        for _ in 0..self.cfg.dispatch_width {
            if self.rob_len() >= self.cfg.rob_size {
                return;
            }
            let uop = match self.pending_uop.take() {
                Some(u) => u,
                None => self.next_decoded(),
            };
            // --- Instruction fetch: 1 line and 1 taken branch per cycle.
            let vline = uop.pc >> 6;
            if vline != self.cur_fetch_vline {
                if line_switches >= 1 {
                    self.pending_uop = Some(uop);
                    return;
                }
                let page = self.translator.page_size();
                let vpn = VirtAddr(uop.pc).page_number(page);
                let penalty = self.tlbs.instr_penalty(vpn);
                if penalty > 0 {
                    self.fetch_stalled_until = now + penalty;
                    self.pending_uop = Some(uop);
                    return;
                }
                let pline = self.translator.translate(VirtAddr(uop.pc));
                if self.il1.access(pline, false).is_none() {
                    self.stats.il1_misses += 1;
                    self.ifetch_pending = Some(pline);
                    out.push(UncoreRequest::Read {
                        line: pline,
                        class: ReqClass::Demand,
                        ifetch: true,
                    });
                    self.pending_uop = Some(uop);
                    return;
                }
                self.cur_fetch_vline = vline;
                line_switches += 1;
            }

            // --- Branch prediction.
            let mut mispredicted = false;
            if uop.kind.is_branch() {
                let info = uop.branch.unwrap_or(bosim_trace::BranchInfo {
                    taken: true,
                    target: 0,
                });
                match uop.kind {
                    UopKind::CondBranch => {
                        self.stats.branches += 1;
                        let correct = self.tage.update(uop.pc, info.taken);
                        if !correct {
                            mispredicted = true;
                        }
                    }
                    UopKind::IndirectBranch => {
                        self.stats.branches += 1;
                        let correct = self.ittage.update(uop.pc, info.target);
                        if !correct {
                            mispredicted = true;
                        }
                    }
                    _ => {} // direct jumps: predicted correctly
                }
                if mispredicted {
                    self.stats.mispredicts += 1;
                }
                if info.taken {
                    taken_branches += 1;
                }
            }

            // --- Rename/dispatch into the ROB.
            let seq = self.next_seq;
            self.next_seq += 1;
            let mut unresolved = 0u8;
            let mut ready = now;
            for src in uop.srcs.iter().flatten() {
                match self.regs[src.index()] {
                    RegState::Known(t) => ready = ready.max(t),
                    RegState::Pending(p) => {
                        // Attach to the producer's wait list.
                        if let Some(i) = self.slot(p) {
                            self.waiters.push(&mut self.rob[i].waiters, seq);
                            unresolved += 1;
                        }
                    }
                }
            }
            let (vaddr, has_mem) = match uop.mem {
                Some(m) => (m.vaddr.0, true),
                None => (0, false),
            };
            self.rob[(seq & self.rob_mask) as usize] = RobEntry {
                kind: uop.kind,
                pc: uop.pc,
                vaddr,
                has_mem,
                dst: uop.dst.map(|r| r.0),
                done_at: None,
                unresolved,
                ready_hint: ready,
                waiters: WaitList::EMPTY,
                mispredicted,
                translated: false,
            };
            if let Some(d) = uop.dst {
                self.regs[d.index()] = RegState::Pending(seq);
            }
            if mispredicted {
                // Stall fetch until the branch executes; `complete`
                // replaces the sentinel with the real redirect time.
                self.fetch_stalled_until = u64::MAX;
            }
            if unresolved == 0 {
                self.schedule_exec(seq, uop.kind, ready, out);
            }
            if mispredicted {
                return;
            }
            if taken_branches >= 1 && uop.kind.is_branch() {
                return; // 1 taken branch per fetch cycle
            }
        }
    }

    /// The earliest cycle ≥ `from` at which [`tick`](Self::tick) can do
    /// any work on its own, or [`Cycle::MAX`] when only an external
    /// [`fill`](Self::fill) can wake the core (e.g. the ROB head is an
    /// outstanding miss and the front end is blocked behind it).
    ///
    /// Used by the system loop to fast-forward through stall windows.
    /// The bound is conservative: whenever the core *might* act next
    /// cycle (dispatch can proceed, a store is draining, a retire was
    /// width-limited) it returns `from` and no cycles are skipped.
    pub fn next_work_cycle(&self, from: Cycle) -> Cycle {
        let mut t = Cycle::MAX;
        // Scheduled load issues / retries.
        if let Some(&Reverse((et, _))) = self.events.peek() {
            if et <= from {
                return from;
            }
            t = t.min(et);
        }
        // Retirement: a completed head retires (or frees ROB space) at
        // its completion cycle; an incomplete head waits on an event or
        // an external fill, both accounted for elsewhere.
        if let Some(head) = self.rob_head() {
            match head.done_at {
                Some(d) if d > from => t = t.min(d),
                Some(_) => return from,
                None => {}
            }
        }
        // Committed stores drain (and probe the DL1) every cycle —
        // except a head parked on a full MSHR, which only an external
        // fill can move (and a fill re-posts the core anyway).
        if !self.store_buffer.is_empty() && !self.store_blocked {
            return from;
        }
        // Front end.
        if self.ifetch_pending.is_none() {
            if from < self.fetch_stalled_until {
                // u64::MAX is the mispredict sentinel: the redirect time
                // is set when the branch completes (covered above).
                if self.fetch_stalled_until != Cycle::MAX {
                    t = t.min(self.fetch_stalled_until);
                }
            } else if self.rob_len() < self.cfg.rob_size {
                return from; // dispatch will make progress
            }
        }
        t
    }

    /// Advances the core by one cycle, pushing uncore requests into `out`.
    pub fn tick(&mut self, now: Cycle, out: &mut Vec<UncoreRequest>) {
        // Process due events.
        while let Some(&Reverse((t, seq))) = self.events.peek() {
            if t > now {
                break;
            }
            self.events.pop();
            self.load_issue(seq, t.max(now), out);
        }
        self.retire(now);
        self.drain_store(now, out);
        self.dispatch(now, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bosim_trace::{suite, ReplaySource};
    use bosim_trace::{BranchInfo, MemRef, Reg};

    /// A trivial uncore: every read completes after a fixed latency.
    struct FixedUncore {
        latency: Cycle,
        pending: Vec<(Cycle, LineAddr)>,
        reads: u64,
    }

    impl FixedUncore {
        fn new(latency: Cycle) -> Self {
            FixedUncore {
                latency,
                pending: Vec::new(),
                reads: 0,
            }
        }

        fn run(&mut self, core: &mut Core, cycles: Cycle) {
            let mut reqs = Vec::new();
            for now in 0..cycles {
                let mut i = 0;
                while i < self.pending.len() {
                    if self.pending[i].0 <= now {
                        let (_, line) = self.pending.swap_remove(i);
                        core.fill(line, now, &mut reqs);
                    } else {
                        i += 1;
                    }
                }
                core.tick(now, &mut reqs);
                for r in reqs.drain(..) {
                    if let UncoreRequest::Read { line, .. } = r {
                        self.reads += 1;
                        self.pending.push((now + self.latency, line));
                    }
                }
            }
        }
    }

    fn load(pc: u64, addr: u64, dst: u8, addr_dep: Option<u8>) -> MicroOp {
        MicroOp {
            pc,
            kind: UopKind::Load,
            dst: Some(Reg(dst)),
            srcs: [addr_dep.map(Reg), None],
            mem: Some(MemRef {
                vaddr: VirtAddr(addr),
                size: 8,
            }),
            branch: None,
        }
    }

    fn branch(pc: u64, target: u64) -> MicroOp {
        MicroOp {
            pc,
            kind: UopKind::CondBranch,
            dst: None,
            srcs: [None, None],
            mem: None,
            branch: Some(BranchInfo {
                taken: true,
                target,
            }),
        }
    }

    fn stride_l1() -> Option<Box<dyn L1Prefetcher>> {
        Some(Box::new(bosim_baselines::StridePrefetcher::with_defaults()))
    }

    fn core_with(uops: Vec<MicroOp>) -> Core {
        let trace = ReplaySource::new("test", uops);
        Core::new(
            CoreId(0),
            CoreConfig::default(),
            Box::new(trace),
            PageSize::M4,
            42,
            stride_l1(),
        )
    }

    #[test]
    fn retires_simple_alu_stream_at_high_ipc() {
        let uops: Vec<MicroOp> = (0..64)
            .map(|i| MicroOp {
                pc: 0x400000 + i * 4,
                kind: UopKind::Int,
                dst: Some(Reg((i % 8) as u8)),
                srcs: [None, None],
                mem: None,
                branch: None,
            })
            .chain(std::iter::once(branch(0x400000 + 64 * 4, 0x400000)))
            .collect();
        let mut core = core_with(uops);
        let mut unc = FixedUncore::new(20);
        unc.run(&mut core, 3000);
        let ipc = core.retired() as f64 / 3000.0;
        assert!(ipc > 2.0, "independent ALU stream IPC {ipc}");
    }

    #[test]
    fn independent_loads_overlap_mlp() {
        // 8 independent loads to distinct lines per iteration.
        let mut uops: Vec<MicroOp> = (0..8)
            .map(|i| load(0x400000 + i * 4, 0x10_0000_0000 + i * 4096, i as u8, None))
            .collect();
        uops.push(branch(0x400100, 0x400000));
        let mut core = core_with(uops);
        let mut unc = FixedUncore::new(200);
        unc.run(&mut core, 20_000);
        let mlp_ipc = core.retired();

        // Serialised chain: each load's address depends on the previous.
        let mut uops2: Vec<MicroOp> = (0..8)
            .map(|i| load(0x400000 + i * 4, 0x10_0000_0000 + i * 4096, 0, Some(0)))
            .collect();
        uops2.push(branch(0x400100, 0x400000));
        let mut core2 = core_with(uops2);
        let mut unc2 = FixedUncore::new(200);
        unc2.run(&mut core2, 20_000);
        let serial_ipc = core2.retired();

        assert!(
            mlp_ipc as f64 > serial_ipc as f64 * 2.5,
            "MLP {mlp_ipc} vs serialised {serial_ipc}"
        );
    }

    #[test]
    fn dl1_hits_do_not_go_to_uncore() {
        // Same line accessed repeatedly: one miss then hits.
        let mut uops: Vec<MicroOp> = (0..16)
            .map(|i| load(0x400000 + i * 4, 0x10_0000_0000, (i % 4) as u8, None))
            .collect();
        uops.push(branch(0x400100, 0x400000));
        let mut core = core_with(uops);
        let mut unc = FixedUncore::new(50);
        unc.run(&mut core, 5_000);
        assert!(core.retired() > 1000);
        let s = core.stats();
        assert!(s.dl1_hits > 10 * s.dl1_misses, "{s:?}");
    }

    #[test]
    fn mispredicted_branches_throttle_ipc() {
        // Data-dependent (random per encounter) branches vs loop-like
        // ones: TAGE cannot learn the former, so IPC must drop.
        fn run_with(predictable_permille: u32) -> u64 {
            let spec = bosim_trace::BenchmarkSpec {
                name: format!("branchy-{predictable_permille}"),
                short: "t".into(),
                kernels: vec![bosim_trace::KernelCfg::Branchy(
                    bosim_trace::synth::BranchyCfg {
                        ops_per_branch: 4,
                        taken_permille: 500,
                        predictable_permille,
                        resident_bytes: 4096,
                        load_every: 0,
                        code_blocks: 1,
                    },
                )],
                schedule: bosim_trace::Schedule::Interleaved(vec![1]),
                seed: 99,
                external: None,
            };
            let mut core = Core::new(
                CoreId(0),
                CoreConfig::default(),
                Box::new(spec.build()),
                PageSize::M4,
                42,
                stride_l1(),
            );
            let mut unc = FixedUncore::new(30);
            unc.run(&mut core, 30_000);
            core.retired()
        }
        let predictable = run_with(1000);
        let random = run_with(0);
        assert!(
            predictable as f64 > random as f64 * 1.5,
            "predictable {predictable} vs random {random}"
        );
        let mispredict_frac = {
            // Sanity: the random case must actually mispredict a lot.
            predictable as f64 / random as f64
        };
        assert!(mispredict_frac > 1.0);
    }

    #[test]
    fn stores_generate_writebacks_eventually() {
        let spec = suite::thrasher();
        let mut core = Core::new(
            CoreId(0),
            CoreConfig::default(),
            Box::new(spec.build()),
            PageSize::M4,
            7,
            stride_l1(),
        );
        let mut unc = FixedUncore::new(60);
        // Run long enough to fill the DL1 with dirty lines and evict.
        let mut reqs = Vec::new();
        let mut writebacks = 0;
        for now in 0..60_000 {
            let mut i = 0;
            while i < unc.pending.len() {
                if unc.pending[i].0 <= now {
                    let (_, line) = unc.pending.swap_remove(i);
                    core.fill(line, now, &mut reqs);
                } else {
                    i += 1;
                }
            }
            core.tick(now, &mut reqs);
            for r in reqs.drain(..) {
                match r {
                    UncoreRequest::Read { line, .. } => {
                        unc.pending.push((now + 60, line));
                    }
                    UncoreRequest::Writeback { .. } => writebacks += 1,
                }
            }
        }
        assert!(core.stats().stores > 1000);
        assert!(writebacks > 100, "writebacks: {writebacks}");
    }

    #[test]
    fn stride_prefetcher_issues_l1_prefetches_on_streams() {
        let spec = suite::benchmark("462").expect("exists");
        let mut core = Core::new(
            CoreId(0),
            CoreConfig::default(),
            Box::new(spec.build()),
            PageSize::M4,
            11,
            stride_l1(),
        );
        let mut unc = FixedUncore::new(100);
        unc.run(&mut core, 100_000);
        let s = core.stats();
        assert!(
            s.l1_prefetches > 50,
            "stride prefetcher should fire on libquantum-like: {s:?}"
        );
    }

    #[test]
    fn a_producer_wakes_its_consumers_in_dispatch_order() {
        // One missing load feeds twelve ALU µops. With four INT ports,
        // the wakeup order decides which consumers issue first.
        let mut uops = vec![load(0x400000, 0x10_0000_0000, 1, None)];
        uops.extend((1..=12u64).map(|i| MicroOp {
            pc: 0x400000 + i * 4,
            kind: UopKind::Int,
            dst: Some(Reg(2 + (i % 6) as u8)),
            srcs: [Some(Reg(1)), None],
            mem: None,
            branch: None,
        }));
        uops.push(branch(0x400000 + 13 * 4, 0x400000));
        let mut core = core_with(uops);
        let mut reqs = Vec::new();
        let mut ifetch = Vec::new();
        let mut missed = None;
        // Instruction fetches fill after ten cycles; the data miss waits
        // (the cold page walks end well before cycle 400).
        for now in 0..400 {
            ifetch.retain(|&(at, line)| {
                if at == now {
                    core.fill(line, now, &mut Vec::new());
                }
                at > now
            });
            core.tick(now, &mut reqs);
            for r in reqs.drain(..) {
                match r {
                    UncoreRequest::Read {
                        line, ifetch: true, ..
                    } => ifetch.push((now + 10, line)),
                    UncoreRequest::Read {
                        line,
                        class: ReqClass::Demand,
                        ..
                    } => {
                        missed.get_or_insert(line);
                    }
                    _ => {}
                }
            }
        }
        let line = missed.expect("the load misses the cold DL1");
        assert!(core.entry_mut(0).unwrap().done_at.is_none());
        core.fill(line, 400, &mut reqs);
        assert_eq!(core.entry_mut(0).unwrap().done_at, Some(401));
        let done: Vec<Cycle> = (1..=12)
            .map(|seq| core.entry_mut(seq).unwrap().done_at.expect("woken"))
            .collect();
        // Each consumer takes the first free INT port after the one
        // woken before it, so in wakeup order the cycles never go back;
        // four ports per cycle spread twelve consumers over three.
        assert!(done.windows(2).all(|w| w[0] <= w[1]), "{done:?}");
        assert!(done[0] < done[11], "{done:?}");
    }

    #[test]
    fn waiter_slab_reuses_released_nodes() {
        // A long branchy run with loads: every consumer of an
        // outstanding producer takes a waiter node. Live nodes are at
        // most two per ROB entry, so the slab stays within that bound
        // only if released nodes are reused.
        let spec = bosim_trace::BenchmarkSpec {
            name: "branchy-loads".into(),
            short: "t".into(),
            kernels: vec![
                bosim_trace::KernelCfg::Branchy(bosim_trace::synth::BranchyCfg {
                    ops_per_branch: 4,
                    taken_permille: 500,
                    predictable_permille: 500,
                    resident_bytes: 1 << 20,
                    load_every: 3,
                    code_blocks: 1,
                }),
                bosim_trace::KernelCfg::Chase(bosim_trace::synth::ChaseCfg {
                    region_bytes: 1 << 20,
                    chains: 4,
                    compute_per_load: 2,
                    branch_every: 1,
                }),
            ],
            schedule: bosim_trace::Schedule::Interleaved(vec![2, 1]),
            seed: 5,
            external: None,
        };
        let mut core = Core::new(
            CoreId(0),
            CoreConfig::default(),
            Box::new(spec.build()),
            PageSize::K4,
            5,
            stride_l1(),
        );
        let mut unc = FixedUncore::new(80);
        unc.run(&mut core, 100_000);
        let s = core.stats();
        assert!(s.mispredicts > 2_000 && s.loads > 10_000, "{s:?}");
        let nodes = core.waiters.nodes.len();
        assert!(
            nodes > 0 && nodes <= 2 * core.cfg.rob_size,
            "{nodes} waiter nodes"
        );
    }

    #[test]
    fn full_suite_smoke_runs() {
        for spec in suite::suite().into_iter().take(6) {
            let mut core = Core::new(
                CoreId(0),
                CoreConfig::default(),
                Box::new(spec.build()),
                PageSize::K4,
                3,
                stride_l1(),
            );
            let mut unc = FixedUncore::new(80);
            unc.run(&mut core, 20_000);
            assert!(
                core.retired() > 1_000,
                "{}: retired only {}",
                spec.name,
                core.retired()
            );
        }
    }
}
