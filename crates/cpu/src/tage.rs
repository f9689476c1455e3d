//! TAGE conditional branch predictor (Seznec & Michaud, JILP 2006).
//!
//! The paper's baseline front-end uses a 31KB TAGE and a 6KB ITTAGE
//! (Table 1). This is a standard TAGE: a bimodal base predictor plus N
//! partially-tagged tables indexed with geometrically increasing global
//! history lengths; prediction comes from the longest matching history,
//! with a "use alternate on newly allocated" (`use_alt`) tie-breaker and
//! usefulness-directed allocation.

use bosim_types::mix64;

/// Folded history register: compresses an arbitrary-length global history
/// into `out_bits` by circular XOR folding. The mask and both shifts are
/// fixed at construction, so an update is shifts, XORs and ANDs only.
#[derive(Debug, Clone)]
struct Folded {
    value: u32,
    mask: u32,
    /// `out_bits - 1`: where the rotated-out bit sits.
    top: u32,
    /// `hist_len % out_bits`: where the dropped history bit lands.
    drop_shift: u32,
}

impl Folded {
    fn new(hist_len: u32, out_bits: u32) -> Self {
        Folded {
            value: 0,
            mask: (1u32 << out_bits) - 1,
            top: out_bits - 1,
            drop_shift: hist_len % out_bits,
        }
    }

    /// Shifts in the newest history bit and drops the oldest.
    #[inline]
    fn update(&mut self, new_bit: u32, dropped_bit: u32) {
        // Rotate left by one and inject the new bit, then remove the bit
        // that falls off the end of the history. Every term stays within
        // `mask`, so the result does too.
        self.value = ((self.value << 1) | new_bit) & self.mask
            ^ (self.value >> self.top)
            ^ (dropped_bit << self.drop_shift) & self.mask;
    }
}

/// A tagged table's history length and the folded registers that index
/// and tag it.
#[derive(Debug, Clone)]
struct TableHistory {
    len: usize,
    idx: Folded,
    tag0: Folded,
    tag1: Folded,
}

#[derive(Debug, Clone, Copy, Default)]
struct TaggedEntry {
    tag: u16,
    ctr: i8,    // 3-bit signed counter, -4..=3; >= 0 predicts taken
    useful: u8, // 2-bit usefulness
}

/// TAGE configuration.
#[derive(Debug, Clone)]
pub struct TageConfig {
    /// log2 of bimodal entries.
    pub bimodal_bits: u32,
    /// log2 of entries per tagged table.
    pub table_bits: u32,
    /// Tag width per tagged table.
    pub tag_bits: u32,
    /// History lengths, one per tagged table (geometric).
    pub history_lengths: Vec<u32>,
}

impl Default for TageConfig {
    /// Roughly 31KB: 16K bimodal (4KB) + 8 tagged tables of 1K entries
    /// (~2B each -> ~16KB) plus history machinery.
    fn default() -> Self {
        TageConfig {
            bimodal_bits: 14,
            table_bits: 10,
            tag_bits: 11,
            history_lengths: vec![4, 8, 16, 32, 64, 120, 220, 400],
        }
    }
}

/// The hits of one match pass, longest history first, and the bimodal
/// index. The visited tables' indices and tags go to a separate slot
/// buffer.
#[derive(Debug, Clone, Copy)]
struct Lookup {
    provider: Option<usize>,
    alt: Option<usize>,
    bimodal: usize,
}

/// The TAGE conditional-branch direction predictor.
#[derive(Debug)]
pub struct Tage {
    bimodal_mask: usize,
    table_mask: usize,
    tag_mask: u32,
    bimodal: Vec<i8>, // 2-bit counters, -2..=1; >= 0 taken
    tables: Vec<Vec<TaggedEntry>>,
    hist: Vec<TableHistory>,
    /// Global history as a power-of-two bit ring, longer than the
    /// longest history length.
    ghist: Vec<u8>,
    ghist_pos: usize,
    /// `(index, tag)` per tagged table, filled by the match pass that
    /// [`update`](Self::update) runs and reused by its updates.
    slots: Vec<(usize, u16)>,
    use_alt: i8,
    /// Deterministic allocation tie-breaking.
    rng_state: u64,
    predictions: u64,
    mispredictions: u64,
}

impl Tage {
    /// Creates a TAGE predictor from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no tagged tables.
    pub fn new(cfg: TageConfig) -> Self {
        assert!(!cfg.history_lengths.is_empty());
        let max_hist = *cfg.history_lengths.iter().max().expect("non-empty") as usize; // bosim-lint: allow(P002, history_lengths is validated non-empty)
        let hist = cfg
            .history_lengths
            .iter()
            .map(|&h| TableHistory {
                len: h as usize,
                idx: Folded::new(h, cfg.table_bits),
                tag0: Folded::new(h, cfg.tag_bits),
                tag1: Folded::new(h, cfg.tag_bits - 1),
            })
            .collect();
        let n = cfg.history_lengths.len();
        Tage {
            bimodal_mask: (1 << cfg.bimodal_bits) - 1,
            table_mask: (1 << cfg.table_bits) - 1,
            tag_mask: (1 << cfg.tag_bits) - 1,
            bimodal: vec![0; 1 << cfg.bimodal_bits],
            tables: vec![vec![TaggedEntry::default(); 1 << cfg.table_bits]; n],
            hist,
            ghist: vec![0; (max_hist + 1).next_power_of_two()],
            ghist_pos: 0,
            slots: vec![(0, 0); n],
            use_alt: 0,
            rng_state: 0x8005_1CE5,
            predictions: 0,
            mispredictions: 0,
        }
    }

    /// Creates the default ~31KB predictor.
    pub fn with_defaults() -> Self {
        Self::new(TageConfig::default())
    }

    /// The match pass: walks the tagged tables from the longest history
    /// down, storing each table's index and tag in `slots`, and stops at
    /// the second hit. Every table longer than the provider is visited,
    /// so allocation and ageing find their slots filled.
    fn lookup(&self, pc: u64, slots: &mut [(usize, u16)]) -> Lookup {
        let base = pc >> 2;
        let mut provider = None;
        let mut alt = None;
        for t in (0..self.tables.len()).rev() {
            let h = &self.hist[t];
            let idx =
                ((base ^ (pc >> (3 + t as u64)) ^ h.idx.value as u64) as usize) & self.table_mask;
            let tag = ((base as u32 ^ h.tag0.value ^ (h.tag1.value << 1)) & self.tag_mask) as u16;
            slots[t] = (idx, tag);
            if self.tables[t][idx].tag == tag {
                if provider.is_some() {
                    alt = Some(t);
                    break;
                }
                provider = Some(t);
            }
        }
        Lookup {
            provider,
            alt,
            bimodal: (base as usize) & self.bimodal_mask,
        }
    }

    /// `(prediction, alternate prediction)` for a finished lookup. The
    /// alternate is the second hit, or the bimodal counter without one.
    fn choose(&self, l: &Lookup, slots: &[(usize, u16)]) -> (bool, bool) {
        let alt_pred = match l.alt {
            Some(a) => self.tables[a][slots[a].0].ctr >= 0,
            None => self.bimodal[l.bimodal] >= 0,
        };
        let pred = match l.provider {
            Some(p) => {
                let e = &self.tables[p][slots[p].0];
                let weak = e.ctr == 0 || e.ctr == -1;
                if weak && e.useful == 0 && self.use_alt >= 0 {
                    alt_pred
                } else {
                    e.ctr >= 0
                }
            }
            None => alt_pred,
        };
        (pred, alt_pred)
    }

    /// Predicts the direction of the conditional branch at `pc` without
    /// changing any state. [`update`](Self::update) predicts on its own;
    /// call this only to look without training.
    pub fn predict(&self, pc: u64) -> bool {
        let mut slots = vec![(0, 0); self.tables.len()];
        let l = self.lookup(pc, &mut slots);
        self.choose(&l, &slots).0
    }

    /// Predicts the conditional branch at `pc`, then trains the
    /// predictor with the actual outcome and advances the global
    /// history; call once per conditional branch, in program order, and
    /// do not call [`predict`](Self::predict) first. Returns whether the
    /// prediction was correct.
    pub fn update(&mut self, pc: u64, taken: bool) -> bool {
        let mut slots = std::mem::take(&mut self.slots);
        let l = self.lookup(pc, &mut slots);
        let (predicted, alt_pred) = self.choose(&l, &slots);
        let correct = predicted == taken;
        self.predictions += 1;
        if !correct {
            self.mispredictions += 1;
        }

        // Provider counter update.
        match l.provider {
            Some(p) => {
                let e = &mut self.tables[p][slots[p].0];
                let provider_pred = e.ctr >= 0;
                e.ctr = (e.ctr + if taken { 1 } else { -1 }).clamp(-4, 3);
                // Usefulness: provider correct where alternate was wrong.
                if provider_pred == taken && alt_pred != taken {
                    e.useful = (e.useful + 1).min(3);
                }
                if provider_pred != taken && alt_pred == taken {
                    e.useful = e.useful.saturating_sub(1);
                    self.use_alt = (self.use_alt + 1).min(7);
                } else if provider_pred == taken && alt_pred != taken {
                    self.use_alt = (self.use_alt - 1).max(-8);
                }
            }
            None => {
                let c = &mut self.bimodal[l.bimodal];
                *c = (*c + if taken { 1 } else { -1 }).clamp(-2, 1);
            }
        }

        // Allocation on misprediction: claim an entry in a longer table.
        if !correct {
            let start = l.provider.map(|p| p + 1).unwrap_or(0);
            self.rng_state = self
                .rng_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1);
            let skip = (self.rng_state >> 60) & 1; // light randomisation
            let mut allocated = false;
            let first = start + skip as usize;
            for (table, &(idx, tag)) in self.tables.iter_mut().zip(&slots).skip(first) {
                let e = &mut table[idx];
                if e.useful == 0 {
                    e.tag = tag;
                    e.ctr = if taken { 0 } else { -1 };
                    allocated = true;
                    break;
                }
            }
            if !allocated {
                // Age usefulness to make room next time.
                for (table, &(idx, _)) in self.tables.iter_mut().zip(&slots).skip(start) {
                    let e = &mut table[idx];
                    e.useful = e.useful.saturating_sub(1);
                }
            }
        }
        self.slots = slots;

        // Advance global history.
        self.push_history(taken);
        correct
    }

    fn push_history(&mut self, taken: bool) {
        let mask = self.ghist.len() - 1;
        self.ghist_pos = (self.ghist_pos + 1) & mask;
        self.ghist[self.ghist_pos] = taken as u8;
        let new_bit = taken as u32;
        for h in &mut self.hist {
            let dropped = self.ghist[self.ghist_pos.wrapping_sub(h.len) & mask] as u32;
            h.idx.update(new_bit, dropped);
            h.tag0.update(new_bit, dropped);
            h.tag1.update(new_bit, dropped);
        }
    }

    /// `(predictions, mispredictions)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.predictions, self.mispredictions)
    }
}

/// ITTAGE-style indirect-branch target predictor (scaled down to the ~6KB
/// Table 1 budget): a PC-indexed target cache plus two tagged
/// history-indexed tables.
#[derive(Debug)]
pub struct Ittage {
    base: Vec<(u32, u64)>,        // (partial pc tag, target)
    tagged: Vec<Vec<(u32, u64)>>, // per-table (tag, target)
    hist: u64,
    predictions: u64,
    mispredictions: u64,
}

impl Ittage {
    /// Creates the default predictor (256-entry base, 2 × 256 tagged).
    pub fn with_defaults() -> Self {
        Ittage {
            base: vec![(0, 0); 256],
            tagged: vec![vec![(0, 0); 256]; 2],
            hist: 0,
            predictions: 0,
            mispredictions: 0,
        }
    }

    fn base_idx(pc: u64) -> usize {
        (mix64(pc) as usize) & 255
    }

    fn tagged_idx(&self, pc: u64, t: usize) -> (usize, u32) {
        let hlen = if t == 0 { 8 } else { 32 };
        let h = self.hist & ((1u64 << hlen) - 1);
        let m = mix64(pc ^ h.wrapping_mul(0x9E37_79B9));
        ((m as usize) & 255, (m >> 32) as u32 | 1)
    }

    /// Predicts the target of the indirect branch at `pc`.
    pub fn predict(&self, pc: u64) -> u64 {
        for t in (0..self.tagged.len()).rev() {
            let (idx, tag) = self.tagged_idx(pc, t);
            let (etag, target) = self.tagged[t][idx];
            if etag == tag {
                return target;
            }
        }
        self.base[Self::base_idx(pc)].1
    }

    /// Updates with the actual target; returns whether the prediction was
    /// correct.
    pub fn update(&mut self, pc: u64, target: u64) -> bool {
        let predicted = self.predict(pc);
        let correct = predicted == target;
        self.predictions += 1;
        if !correct {
            self.mispredictions += 1;
            // Allocate in the shortest-history table that disagrees.
            for t in 0..self.tagged.len() {
                let (idx, tag) = self.tagged_idx(pc, t);
                if self.tagged[t][idx].0 != tag || self.tagged[t][idx].1 != target {
                    self.tagged[t][idx] = (tag, target);
                    break;
                }
            }
        }
        self.base[Self::base_idx(pc)] = (1, target);
        self.hist = (self.hist << 2) ^ mix64(target) & 3;
        correct
    }

    /// `(predictions, mispredictions)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.predictions, self.mispredictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The predictor as it was before the one-pass rewrite: two match
    /// passes per update, indices and tags recomputed at every use, a
    /// `%`-wrapped history ring. Kept verbatim as the oracle for
    /// `one_pass_update_matches_the_two_pass_reference`.
    mod reference {
        use super::super::{TageConfig, TaggedEntry};

        /// Folded history register: compresses an arbitrary-length global history
        /// into `out_bits` by circular XOR folding.
        #[derive(Debug, Clone)]
        struct Folded {
            value: u32,
            out_bits: u32,
            hist_len: u32,
        }

        impl Folded {
            fn new(hist_len: u32, out_bits: u32) -> Self {
                Folded {
                    value: 0,
                    out_bits,
                    hist_len,
                }
            }

            /// Shifts in the newest history bit and drops the oldest.
            fn update(&mut self, new_bit: u32, dropped_bit: u32) {
                let mask = (1u32 << self.out_bits) - 1;
                // Rotate left by one and inject the new bit.
                self.value = ((self.value << 1) | new_bit) & mask
                    ^ (self.value >> (self.out_bits - 1))
                    // Remove the bit that falls off the end of the history.
                    ^ (dropped_bit << (self.hist_len % self.out_bits)) & mask;
                self.value &= mask;
            }
        }

        /// The TAGE conditional-branch direction predictor.
        #[derive(Debug)]
        pub struct RefTage {
            cfg: TageConfig,
            bimodal: Vec<i8>, // 2-bit counters, -2..=1; >= 0 taken
            tables: Vec<Vec<TaggedEntry>>,
            /// Global history as a bit deque (bounded by max history length).
            ghist: Vec<u8>,
            ghist_pos: usize,
            folded_idx: Vec<Folded>,
            folded_tag0: Vec<Folded>,
            folded_tag1: Vec<Folded>,
            use_alt: i8,
            /// Deterministic allocation tie-breaking.
            rng_state: u64,
            predictions: u64,
            mispredictions: u64,
        }

        impl RefTage {
            /// Creates a TAGE predictor from a configuration.
            ///
            /// # Panics
            ///
            /// Panics if the configuration has no tagged tables.
            pub fn new(cfg: TageConfig) -> Self {
                assert!(!cfg.history_lengths.is_empty());
                let max_hist = *cfg.history_lengths.iter().max().expect("non-empty") as usize; // bosim-lint: allow(P002, history_lengths is validated non-empty)
                let tables = cfg
                    .history_lengths
                    .iter()
                    .map(|_| vec![TaggedEntry::default(); 1 << cfg.table_bits])
                    .collect();
                let folded_idx = cfg
                    .history_lengths
                    .iter()
                    .map(|&h| Folded::new(h, cfg.table_bits))
                    .collect();
                let folded_tag0 = cfg
                    .history_lengths
                    .iter()
                    .map(|&h| Folded::new(h, cfg.tag_bits))
                    .collect();
                let folded_tag1 = cfg
                    .history_lengths
                    .iter()
                    .map(|&h| Folded::new(h, cfg.tag_bits - 1))
                    .collect();
                RefTage {
                    bimodal: vec![0; 1 << cfg.bimodal_bits],
                    tables,
                    ghist: vec![0; max_hist + 1],
                    ghist_pos: 0,
                    folded_idx,
                    folded_tag0,
                    folded_tag1,
                    use_alt: 0,
                    rng_state: 0x8005_1CE5,
                    predictions: 0,
                    mispredictions: 0,
                    cfg,
                }
            }

            #[inline]
            fn bimodal_index(&self, pc: u64) -> usize {
                ((pc >> 2) as usize) & ((1 << self.cfg.bimodal_bits) - 1)
            }

            #[inline]
            fn table_index(&self, pc: u64, t: usize) -> usize {
                let h = self.folded_idx[t].value as u64;
                let mixed = (pc >> 2) ^ (pc >> (3 + t as u64)) ^ h;
                (mixed as usize) & ((1 << self.cfg.table_bits) - 1)
            }

            #[inline]
            fn table_tag(&self, pc: u64, t: usize) -> u16 {
                let tag =
                    (pc >> 2) as u32 ^ self.folded_tag0[t].value ^ (self.folded_tag1[t].value << 1);
                (tag & ((1 << self.cfg.tag_bits) - 1)) as u16
            }

            /// Returns `(provider_table, alt_table)` hit indices, longest first.
            fn matches(&self, pc: u64) -> (Option<usize>, Option<usize>) {
                let mut provider = None;
                let mut alt = None;
                for t in (0..self.tables.len()).rev() {
                    let e = &self.tables[t][self.table_index(pc, t)];
                    if e.tag == self.table_tag(pc, t) {
                        if provider.is_none() {
                            provider = Some(t);
                        } else {
                            alt = Some(t);
                            break;
                        }
                    }
                }
                (provider, alt)
            }

            fn table_pred(&self, pc: u64, t: usize) -> bool {
                self.tables[t][self.table_index(pc, t)].ctr >= 0
            }

            fn bimodal_pred(&self, pc: u64) -> bool {
                self.bimodal[self.bimodal_index(pc)] >= 0
            }

            /// Predicts the direction of the conditional branch at `pc`.
            pub fn predict(&self, pc: u64) -> bool {
                let (provider, alt) = self.matches(pc);
                match provider {
                    Some(p) => {
                        let e = &self.tables[p][self.table_index(pc, p)];
                        let weak = e.ctr == 0 || e.ctr == -1;
                        if weak && e.useful == 0 && self.use_alt >= 0 {
                            match alt {
                                Some(a) => self.table_pred(pc, a),
                                None => self.bimodal_pred(pc),
                            }
                        } else {
                            e.ctr >= 0
                        }
                    }
                    None => self.bimodal_pred(pc),
                }
            }

            /// Updates the predictor with the actual outcome; call once per
            /// conditional branch, after [`predict`](Self::predict). Returns
            /// whether the prediction was correct.
            pub fn update(&mut self, pc: u64, taken: bool) -> bool {
                let predicted = self.predict(pc);
                let correct = predicted == taken;
                self.predictions += 1;
                if !correct {
                    self.mispredictions += 1;
                }

                let (provider, alt) = self.matches(pc);
                // Provider counter update.
                match provider {
                    Some(p) => {
                        let idx = self.table_index(pc, p);
                        let alt_pred = match alt {
                            Some(a) => self.table_pred(pc, a),
                            None => self.bimodal_pred(pc),
                        };
                        let e = &mut self.tables[p][idx];
                        let provider_pred = e.ctr >= 0;
                        e.ctr = (e.ctr + if taken { 1 } else { -1 }).clamp(-4, 3);
                        // Usefulness: provider correct where alternate was wrong.
                        if provider_pred == taken && alt_pred != taken {
                            e.useful = (e.useful + 1).min(3);
                        }
                        if provider_pred != taken && alt_pred == taken {
                            e.useful = e.useful.saturating_sub(1);
                            self.use_alt = (self.use_alt + 1).min(7);
                        } else if provider_pred == taken && alt_pred != taken {
                            self.use_alt = (self.use_alt - 1).max(-8);
                        }
                    }
                    None => {
                        let idx = self.bimodal_index(pc);
                        let c = &mut self.bimodal[idx];
                        *c = (*c + if taken { 1 } else { -1 }).clamp(-2, 1);
                    }
                }

                // Allocation on misprediction: claim an entry in a longer table.
                if !correct {
                    let start = provider.map(|p| p + 1).unwrap_or(0);
                    self.rng_state = self
                        .rng_state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1);
                    let skip = (self.rng_state >> 60) & 1; // light randomisation
                    let mut allocated = false;
                    let mut t = start + skip as usize;
                    while t < self.tables.len() {
                        let idx = self.table_index(pc, t);
                        let tag = self.table_tag(pc, t);
                        let e = &mut self.tables[t][idx];
                        if e.useful == 0 {
                            e.tag = tag;
                            e.ctr = if taken { 0 } else { -1 };
                            allocated = true;
                            break;
                        }
                        t += 1;
                    }
                    if !allocated {
                        // Age usefulness to make room next time.
                        for t in start..self.tables.len() {
                            let idx = self.table_index(pc, t);
                            let e = &mut self.tables[t][idx];
                            e.useful = e.useful.saturating_sub(1);
                        }
                    }
                }

                // Advance global history.
                self.push_history(taken);
                correct
            }

            fn push_history(&mut self, taken: bool) {
                let max = self.ghist.len();
                self.ghist_pos = (self.ghist_pos + 1) % max;
                self.ghist[self.ghist_pos] = taken as u8;
                let new_bit = taken as u32;
                for (t, &hl) in self.cfg.history_lengths.clone().iter().enumerate() {
                    let dropped_idx = (self.ghist_pos + max - hl as usize) % max;
                    let dropped = self.ghist[dropped_idx] as u32;
                    self.folded_idx[t].update(new_bit, dropped);
                    self.folded_tag0[t].update(new_bit, dropped);
                    self.folded_tag1[t].update(new_bit, dropped);
                }
            }

            /// `(predictions, mispredictions)` so far.
            pub fn stats(&self) -> (u64, u64) {
                (self.predictions, self.mispredictions)
            }
        }
    }

    /// A seeded branch stream of `n` `(pc, taken)` pairs in one of three
    /// shapes: random PCs with random biases, periodic patterns over a
    /// few loop branches, and PCs that differ only above the index bits,
    /// so they alias in the bimodal and tagged tables.
    fn stream(shape: u8, seed: u64, n: usize) -> Vec<(u64, bool)> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        (0..n)
            .map(|i| match shape {
                0 => {
                    let r = next();
                    let pc = 0x40_0000 + (r % 4096) * 4;
                    // Per-PC bias from the PC itself, noise from the stream.
                    (pc, (next() % 100) < (pc >> 2) % 100)
                }
                1 => {
                    let b = (next() % 6) as usize;
                    let period = [2usize, 3, 4, 7, 12, 33][b];
                    (0x40_1000 + b as u64 * 0x40, (i % period) < period / 2)
                }
                _ => {
                    let r = next();
                    let pc = 0x40_2000 + (r % 8) * (1 << 24) + (r >> 40) % 3 * 4;
                    (pc, r & 0x30 != 0)
                }
            })
            .collect()
    }

    #[test]
    fn one_pass_update_matches_the_two_pass_reference() {
        let configs = [
            TageConfig::default(),
            TageConfig {
                bimodal_bits: 8,
                table_bits: 6,
                tag_bits: 7,
                history_lengths: vec![3, 7, 13, 29, 61],
            },
        ];
        for cfg in configs {
            for shape in 0..3 {
                for seed in [1u64, 0x9E37_79B9, 0xB05E_ED00] {
                    let mut new = Tage::new(cfg.clone());
                    let mut old = reference::RefTage::new(cfg.clone());
                    for (i, (pc, taken)) in stream(shape, seed, 30_000).into_iter().enumerate() {
                        if i % 7 == 0 {
                            assert_eq!(new.predict(pc), old.predict(pc), "predict, step {i}");
                        }
                        assert_eq!(
                            new.update(pc, taken),
                            old.update(pc, taken),
                            "shape {shape} seed {seed:#x}: update diverged at step {i}"
                        );
                    }
                    assert_eq!(new.stats(), old.stats(), "shape {shape} seed {seed:#x}");
                    let (p, m) = new.stats();
                    assert!(m > 0 && m < p, "stream must mispredict sometimes: {m}/{p}");
                    for probe in stream(shape, seed ^ 0xFF, 500) {
                        assert_eq!(new.predict(probe.0), old.predict(probe.0));
                    }
                }
            }
        }
    }

    #[test]
    fn always_taken_branch_is_learned() {
        let mut t = Tage::with_defaults();
        for _ in 0..64 {
            t.update(0x400100, true);
        }
        assert!(t.predict(0x400100));
        let (p, m) = t.stats();
        assert!(m < p / 4, "{m}/{p} mispredictions on always-taken");
    }

    #[test]
    fn alternating_pattern_is_learned_via_history() {
        let mut t = Tage::with_defaults();
        let mut wrong_late = 0;
        for i in 0..4000u64 {
            let taken = i % 2 == 0;
            let correct = t.update(0x400200, taken);
            if i > 2000 && !correct {
                wrong_late += 1;
            }
        }
        assert!(
            wrong_late < 100,
            "alternating branch should be near-perfect, got {wrong_late} late errors"
        );
    }

    #[test]
    fn short_period_pattern_is_learned() {
        // Period-4 pattern TTNT requires history; bimodal alone fails.
        let mut t = Tage::with_defaults();
        let pattern = [true, true, false, true];
        let mut wrong_late = 0;
        for i in 0..8000u64 {
            let taken = pattern[(i % 4) as usize];
            let correct = t.update(0x400300, taken);
            if i > 4000 && !correct {
                wrong_late += 1;
            }
        }
        assert!(
            wrong_late < 200,
            "period-4 pattern: {wrong_late} late errors"
        );
    }

    #[test]
    fn random_branches_mispredict_about_half() {
        let mut t = Tage::with_defaults();
        let mut x = 88172645463325252u64;
        let mut wrong = 0;
        let n = 20000;
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let taken = x & 1 == 1;
            if !t.update(0x400400, taken) {
                wrong += 1;
            }
        }
        let rate = wrong as f64 / n as f64;
        assert!(
            (0.35..0.65).contains(&rate),
            "random branch misprediction rate {rate}"
        );
    }

    #[test]
    fn distinct_pcs_do_not_destructively_alias() {
        let mut t = Tage::with_defaults();
        let mut wrong_late = 0;
        for i in 0..6000u64 {
            let c1 = t.update(0x400500, true);
            let c2 = t.update(0x400504, false);
            if i > 3000 {
                wrong_late += (!c1) as u32 + (!c2) as u32;
            }
        }
        assert!(
            wrong_late < 60,
            "{wrong_late} late errors on two biased PCs"
        );
    }

    #[test]
    fn ittage_learns_stable_target() {
        let mut it = Ittage::with_defaults();
        for _ in 0..50 {
            it.update(0x400600, 0x500000);
        }
        assert_eq!(it.predict(0x400600), 0x500000);
    }

    #[test]
    fn ittage_history_distinguishes_targets() {
        // Alternating targets in a fixed global pattern: the tagged
        // tables should capture a good share after warmup.
        let mut it = Ittage::with_defaults();
        let targets = [0xA000u64, 0xB000];
        let mut wrong_late = 0;
        for i in 0..4000u64 {
            let tgt = targets[(i % 2) as usize];
            let correct = it.update(0x400700, tgt);
            if i >= 2000 && !correct {
                wrong_late += 1;
            }
        }
        assert!(
            wrong_late < 800,
            "alternating-target indirect: {wrong_late}/2000 late errors"
        );
    }
}
