//! Per-epoch prefetch feedback.
//!
//! The simulator slices a run into fixed-length cycle *epochs*. At every
//! boundary it distils the uncore's per-core usefulness counters and the
//! shared DRAM activity into one [`EpochFeedback`] per core — the entire
//! interface between the machine and the tuning policies. Everything a
//! policy may react to (accuracy, coverage, lateness, bus pressure, IPC)
//! is a pure function of this record, which keeps policies deterministic
//! and unit-testable without a simulator.

use bosim_stats::{DecodeError, Json};

/// One prefetch site's counter deltas over an epoch (the L1/L3 blocks
/// of [`EpochFeedback`]; the L2 site — the paper's subject and what
/// every pre-existing policy reads — keeps its flat fields).
// bosim-lint: schema(site-feedback)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SiteFeedback {
    /// Prefetch requests the site issued downstream.
    pub issued: u64,
    /// Lines filled into the site's cache still carrying prefetch class.
    pub prefetch_fills: u64,
    /// Prefetch-filled lines first touched from above while the
    /// prefetch bit was still set.
    pub useful_fills: u64,
    /// Prefetch-filled lines evicted with the prefetch bit still set.
    pub unused_evicted: u64,
}

impl SiteFeedback {
    /// Fills whose fate is known this epoch.
    pub fn resolved_fills(&self) -> u64 {
        self.useful_fills + self.unused_evicted
    }

    /// Useful fills over resolved fills; `None` until any fill resolved.
    pub fn accuracy(&self) -> Option<f64> {
        let resolved = self.resolved_fills();
        (resolved > 0).then(|| self.useful_fills as f64 / resolved as f64)
    }

    /// JSON rendering used inside the epoch telemetry.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("issued", Json::from(self.issued)),
            ("prefetch_fills", Json::from(self.prefetch_fills)),
            ("useful_fills", Json::from(self.useful_fills)),
            ("unused_evicted", Json::from(self.unused_evicted)),
            ("accuracy", Json::from(self.accuracy())),
        ])
    }

    /// Decodes [`to_json`](Self::to_json)'s output (the derived
    /// `accuracy` is recomputed, not read).
    ///
    /// # Errors
    ///
    /// A [`DecodeError`] naming the first missing or ill-typed counter.
    pub fn from_json(doc: &Json) -> Result<SiteFeedback, DecodeError> {
        Ok(SiteFeedback {
            issued: doc.u64_field("issued")?,
            prefetch_fills: doc.u64_field("prefetch_fills")?,
            useful_fills: doc.u64_field("useful_fills")?,
            unused_evicted: doc.u64_field("unused_evicted")?,
        })
    }
}

/// One epoch's observations for one core: raw counter deltas over the
/// epoch plus the shared DRAM-bus occupancy.
///
/// All counters are deltas (this epoch only), not running totals.
// bosim-lint: schema(epoch-feedback)
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpochFeedback {
    /// Epoch index since simulation start (0-based).
    pub epoch: u64,
    /// First cycle of the epoch.
    pub start_cycle: u64,
    /// Epoch length in cycles.
    pub cycles: u64,
    /// Instructions the core retired in the epoch.
    pub instructions: u64,
    /// L2 read accesses from this core (demand + L1 prefetch).
    pub l2_accesses: u64,
    /// ... of which missed (fill-queue merges included).
    pub l2_misses: u64,
    /// L2 prefetch requests this core issued to the L3.
    pub issued: u64,
    /// Lines inserted into this core's L2 still carrying prefetch class.
    pub prefetch_fills: u64,
    /// Useful fills: first core-side hit (demand or L1 prefetch) on a
    /// line whose prefetch bit was still set ("prefetched hits", §5.6).
    pub useful_fills: u64,
    /// Prefetch-filled lines evicted with the prefetch bit still set —
    /// fetched but never used.
    pub unused_evicted: u64,
    /// Late prefetches: demand misses that merged with an in-flight
    /// prefetch fill (the prefetch was correct but not timely).
    pub late_promotions: u64,
    /// DRAM read CAS commands in the epoch (all cores).
    pub dram_reads: u64,
    /// DRAM write CAS commands in the epoch (all cores).
    pub dram_writes: u64,
    /// Fraction of the epoch the DRAM data buses were busy transferring
    /// lines, 0.0 (idle) ..= ~1.0 (saturated), aggregated over channels.
    pub bus_occupancy: f64,
    /// L1D-site prefetch requests this core issued (post-TLB2).
    pub l1_prefetches: u64,
    /// L1D-site prefetch requests dropped on a TLB2 miss.
    pub l1_tlb_drops: u64,
    /// The shared L3 site's counters. The L3 is one structure serving
    /// every core, so multi-core runs see the same machine-wide deltas
    /// in each core's feedback.
    pub l3: SiteFeedback,
}

impl EpochFeedback {
    /// Instructions per cycle over the epoch.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Resolved prefetch fills: fills whose fate is known (first demand
    /// hit or unused eviction). Fills still resident and untouched are
    /// unresolved.
    pub fn resolved_fills(&self) -> u64 {
        self.useful_fills + self.unused_evicted
    }

    /// Prefetch accuracy: useful fills over resolved fills. `None` until
    /// any fill resolved this epoch.
    pub fn accuracy(&self) -> Option<f64> {
        let resolved = self.resolved_fills();
        (resolved > 0).then(|| self.useful_fills as f64 / resolved as f64)
    }

    /// Prefetch coverage: the fraction of would-be misses the prefetcher
    /// converted into (prefetched) hits. `None` when the core had neither
    /// misses nor useful fills.
    pub fn coverage(&self) -> Option<f64> {
        let total = self.useful_fills + self.l2_misses;
        (total > 0).then(|| self.useful_fills as f64 / total as f64)
    }

    /// Prefetch lateness: among correct prefetches, the fraction that
    /// arrived too late (the demand caught the fill in flight). `None`
    /// when no prefetch was correct this epoch.
    pub fn lateness(&self) -> Option<f64> {
        let correct = self.late_promotions + self.useful_fills;
        (correct > 0).then(|| self.late_promotions as f64 / correct as f64)
    }

    /// JSON rendering used by the per-epoch report telemetry.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("epoch", Json::from(self.epoch)),
            ("start_cycle", Json::from(self.start_cycle)),
            ("cycles", Json::from(self.cycles)),
            ("instructions", Json::from(self.instructions)),
            ("ipc", Json::from(self.ipc())),
            ("l2_accesses", Json::from(self.l2_accesses)),
            ("l2_misses", Json::from(self.l2_misses)),
            ("issued", Json::from(self.issued)),
            ("prefetch_fills", Json::from(self.prefetch_fills)),
            ("useful_fills", Json::from(self.useful_fills)),
            ("unused_evicted", Json::from(self.unused_evicted)),
            ("late_promotions", Json::from(self.late_promotions)),
            ("accuracy", Json::from(self.accuracy())),
            ("coverage", Json::from(self.coverage())),
            ("lateness", Json::from(self.lateness())),
            ("dram_reads", Json::from(self.dram_reads)),
            ("dram_writes", Json::from(self.dram_writes)),
            ("bus_occupancy", Json::from(self.bus_occupancy)),
            ("l1_prefetches", Json::from(self.l1_prefetches)),
            ("l1_tlb_drops", Json::from(self.l1_tlb_drops)),
            ("l3", self.l3.to_json()),
        ])
    }

    /// Decodes [`to_json`](Self::to_json)'s output. The derived rates
    /// (`ipc`, `accuracy`, `coverage`, `lateness`) are recomputed from
    /// the counters, not read.
    ///
    /// # Errors
    ///
    /// A [`DecodeError`] naming the first missing or ill-typed field.
    pub fn from_json(doc: &Json) -> Result<EpochFeedback, DecodeError> {
        Ok(EpochFeedback {
            epoch: doc.u64_field("epoch")?,
            start_cycle: doc.u64_field("start_cycle")?,
            cycles: doc.u64_field("cycles")?,
            instructions: doc.u64_field("instructions")?,
            l2_accesses: doc.u64_field("l2_accesses")?,
            l2_misses: doc.u64_field("l2_misses")?,
            issued: doc.u64_field("issued")?,
            prefetch_fills: doc.u64_field("prefetch_fills")?,
            useful_fills: doc.u64_field("useful_fills")?,
            unused_evicted: doc.u64_field("unused_evicted")?,
            late_promotions: doc.u64_field("late_promotions")?,
            dram_reads: doc.u64_field("dram_reads")?,
            dram_writes: doc.u64_field("dram_writes")?,
            bus_occupancy: doc.f64_field("bus_occupancy")?,
            l1_prefetches: doc.u64_field("l1_prefetches")?,
            l1_tlb_drops: doc.u64_field("l1_tlb_drops")?,
            l3: SiteFeedback::from_json(doc.field("l3")?).map_err(|e| e.within("l3"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fb() -> EpochFeedback {
        EpochFeedback {
            epoch: 3,
            cycles: 10_000,
            instructions: 12_000,
            l2_misses: 60,
            prefetch_fills: 100,
            useful_fills: 40,
            unused_evicted: 10,
            late_promotions: 10,
            ..Default::default()
        }
    }

    #[test]
    fn derived_metrics() {
        let f = fb();
        assert!((f.ipc() - 1.2).abs() < 1e-12);
        assert_eq!(f.resolved_fills(), 50);
        assert!((f.accuracy().unwrap() - 0.8).abs() < 1e-12);
        assert!((f.coverage().unwrap() - 0.4).abs() < 1e-12);
        assert!((f.lateness().unwrap() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_epoch_has_no_rates() {
        let f = EpochFeedback::default();
        assert_eq!(f.ipc(), 0.0);
        assert_eq!(f.accuracy(), None);
        assert_eq!(f.coverage(), None);
        assert_eq!(f.lateness(), None);
    }

    #[test]
    fn json_includes_derived_rates() {
        let j = fb().to_json().to_string();
        assert!(j.contains("\"accuracy\":0.8"), "{j}");
        assert!(j.contains("\"epoch\":3"));
        assert!(j.contains("\"l3\":{"), "{j}");
        assert!(j.contains("\"l1_prefetches\":0"), "{j}");
    }

    #[test]
    fn site_feedback_rates() {
        let s = SiteFeedback {
            issued: 100,
            prefetch_fills: 90,
            useful_fills: 30,
            unused_evicted: 10,
        };
        assert_eq!(s.resolved_fills(), 40);
        assert!((s.accuracy().unwrap() - 0.75).abs() < 1e-12);
        assert_eq!(SiteFeedback::default().accuracy(), None);
        let j = s.to_json().to_string();
        assert!(j.contains("\"issued\":100"), "{j}");
    }
}
