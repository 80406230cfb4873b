//! A detailed set-associative cache bank with way-partitioning and
//! set-dueling DRRIP.
//!
//! The bank models exactly the shared microarchitectural state the paper's
//! security analysis cares about (Fig. 10):
//!
//! - **Cache sets** (① conflict attacks): partitions restrict *insertions*
//!   to a [`WayMask`], like Intel CAT, so disjoint masks eliminate conflict
//!   evictions between partitions.
//! - **Replacement state** (③ performance leakage): DRRIP's PSEL counter is
//!   a single, bank-wide register shared by *all* partitions, so co-running
//!   applications still influence each other's replacement policy even when
//!   their way masks are disjoint.
//!
//! Bank *port* contention (② port attacks) is timing behaviour and is
//! modeled by `nuca-noc`'s port simulator.

use crate::replacement::{InsertFlavor, ReplState, BRRIP_LONG_INTERVAL, RRPV_MAX};
use crate::{LineAddr, ReplPolicy};
use core::fmt;

/// Identifies a way-partition within a bank (e.g., one per application or
/// one per VM, depending on the LLC design).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PartitionId(pub usize);

impl fmt::Display for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "part{}", self.0)
    }
}

/// A bitmask over the ways of one bank, restricting where a partition may
/// insert lines (Intel CAT-style capacity bitmask).
///
/// # Examples
///
/// ```
/// use nuca_cache::WayMask;
/// let m = WayMask::first_n(4);
/// assert_eq!(m.count(), 4);
/// assert!(m.contains(3));
/// assert!(!m.contains(4));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WayMask(pub u64);

impl WayMask {
    /// A mask allowing every way of a `ways`-way bank.
    ///
    /// # Panics
    ///
    /// Panics if `ways > 64`.
    pub fn all(ways: u32) -> WayMask {
        assert!(ways <= 64, "way masks support at most 64 ways");
        if ways == 64 {
            WayMask(u64::MAX)
        } else {
            WayMask((1u64 << ways) - 1)
        }
    }

    /// A mask of the lowest `n` ways.
    pub fn first_n(n: u32) -> WayMask {
        WayMask::all(n)
    }

    /// A contiguous mask of `n` ways starting at way `start`.
    pub fn range(start: u32, n: u32) -> WayMask {
        WayMask(WayMask::all(n).0 << start)
    }

    /// Number of ways in the mask.
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether way `w` is in the mask.
    pub fn contains(self, w: u32) -> bool {
        w < 64 && (self.0 >> w) & 1 == 1
    }

    /// True if no ways are allowed.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// Configuration of one [`CacheBank`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankConfig {
    /// Number of sets.
    pub sets: usize,
    /// Number of ways (≤ 64).
    pub ways: u32,
    /// Replacement policy.
    pub policy: ReplPolicy,
}

/// Result of one access to a [`CacheBank`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was resident.
    pub hit: bool,
    /// Whether the evicted line was dirty and must be written back to
    /// memory.
    pub writeback: bool,
}

/// Aggregate and per-partition access statistics.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BankStats {
    /// Total accesses.
    pub accesses: u64,
    /// Total hits.
    pub hits: u64,
    /// Per-partition `(accesses, hits)`.
    pub per_partition: Vec<(u64, u64)>,
}

impl BankStats {
    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Miss ratio over all partitions (0 when no accesses).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }

    /// Miss ratio of one partition (0 when it made no accesses).
    pub fn partition_miss_ratio(&self, part: PartitionId) -> f64 {
        match self.per_partition.get(part.0) {
            Some(&(acc, hits)) if acc > 0 => (acc - hits) as f64 / acc as f64,
            _ => 0.0,
        }
    }

    fn record(&mut self, part: PartitionId, hit: bool) {
        self.accesses += 1;
        if self.per_partition.len() <= part.0 {
            self.per_partition.resize(part.0 + 1, (0, 0));
        }
        // Branch-free: `hit` alternates unpredictably on the simulator hot
        // path, so counting with an add beats a ~50% mispredicted branch.
        let entry = &mut self.per_partition[part.0];
        entry.0 += 1;
        entry.1 += u64::from(hit);
        self.hits += u64::from(hit);
    }
}

/// A set-associative cache bank with way-partitioning and (for DRRIP) a
/// bank-wide shared set-dueling PSEL counter.
///
/// See the crate-level docs for the security-relevant sharing this
/// structure models.
///
/// # Layout
///
/// The bank is a flat arena rather than a `Vec<Vec<Option<Line>>>`, and
/// the layout is driven by cache-line traffic per simulated access:
///
/// - `meta` interleaves, per set, a row of 8-bit **partial tags** (a hash
///   of each resident line's address) and the row of RRPV counters. For a
///   32-way set both rows together span 64 bytes — one host cache line
///   carries everything a lookup *and* a victim scan need.
/// - A lookup scans the partial-tag row first (SWAR, eight ways per `u64`)
///   and touches the full 8-byte tag array only for candidate ways — on a
///   miss, usually never. False positives are rejected by the full tag
///   compare; false negatives cannot happen because fills always write the
///   hash.
/// - Each way's full tag and owning partition share one 8-byte `Slot`:
///   the tag is stored *set-relative* (`line / sets` — the set index adds
///   no information) so it fits in 32 bits, and a fill writes tag and
///   owner through a single cache line instead of two parallel arrays.
/// - `vd` packs each set's valid and dirty bitmasks side by side.
#[derive(Debug, Clone)]
pub struct CacheBank {
    cfg: BankConfig,
    /// `cfg.ways` as a `usize` stride.
    ways: usize,
    /// Tag/owner arena, `sets * ways` entries; empty slots hold
    /// [`NO_TAG`].
    slots: Vec<Slot>,
    /// Interleaved per-set metadata, `2 * ways` bytes per set: the partial
    /// tag row at `si * 2 * ways`, then the RRPV row (unused under LRU).
    meta: Vec<u8>,
    /// LRU timestamp per way slot (LRU policy; empty under RRIP).
    stamps: Vec<u64>,
    /// Per-set `[valid, dirty]` way bitmask pair (bit `w` set = way `w`
    /// holds a line / holds a dirty line).
    vd: Vec<[u64; 2]>,
    masks: Vec<WayMask>,
    /// 10-bit saturating policy selector shared across the whole bank.
    /// High values mean SRRIP is missing more, so followers use BRRIP.
    psel: u32,
    brrip_ctr: u32,
    stamp: u64,
    stats: BankStats,
}

const PSEL_MAX: u32 = 1023;
const PSEL_INIT: u32 = 512;
/// Leader-set stride for set-dueling (one SRRIP and one BRRIP leader per 32
/// sets).
const DUEL_STRIDE: usize = 32;
/// Set-relative tag stored in empty way slots, so an equality compare
/// against any real tag fails without a separate validity check.
/// [`CacheBank`] asserts that real line addresses stay below
/// `NO_TAG * sets`, which for realistic geometries allows multi-terabyte
/// address spaces.
const NO_TAG: u32 = u32::MAX;
/// Valid-mask index within a [`CacheBank::vd`] pair.
const VD_VALID: usize = 0;
/// Dirty-mask index within a [`CacheBank::vd`] pair.
const VD_DIRTY: usize = 1;

/// One way's tag and owner, fused so a fill touches a single cache line.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Set-relative tag (`line / sets`), or [`NO_TAG`] when empty.
    tag: u32,
    /// Owning partition (16 bits are plenty: partitions are per-app or
    /// per-VM).
    part: u16,
}

const EMPTY_SLOT: Slot = Slot {
    tag: NO_TAG,
    part: 0,
};

impl CacheBank {
    /// Creates an empty bank.
    ///
    /// # Panics
    ///
    /// Panics if `sets == 0`, `ways == 0`, or `ways > 64`.
    pub fn new(cfg: BankConfig) -> CacheBank {
        assert!(cfg.sets > 0, "bank needs at least one set");
        assert!(cfg.ways > 0 && cfg.ways <= 64, "ways must be in 1..=64");
        let ways = cfg.ways as usize;
        let slots = cfg.sets * ways;
        let lru = cfg.policy == ReplPolicy::Lru;
        CacheBank {
            cfg,
            ways,
            slots: vec![EMPTY_SLOT; slots],
            meta: vec![0; 2 * slots],
            stamps: if lru { vec![0; slots] } else { Vec::new() },
            vd: vec![[0, 0]; cfg.sets],
            masks: Vec::new(),
            psel: PSEL_INIT,
            brrip_ctr: 0,
            stamp: 0,
            stats: BankStats::default(),
        }
    }

    /// Bitmask selecting the bank's physical ways.
    #[inline]
    fn ways_mask(&self) -> u64 {
        WayMask::all(self.cfg.ways).0
    }

    /// Offset of set `si`'s partial-tag row in [`CacheBank::meta`]; the
    /// RRPV row follows at `meta_base + ways`.
    #[inline]
    fn meta_base(&self, si: usize) -> usize {
        si * 2 * self.ways
    }

    /// Splits a line address into its set index and set-relative tag.
    ///
    /// # Panics
    ///
    /// Panics if the tag would collide with the [`NO_TAG`] sentinel —
    /// i.e. if `line >= u32::MAX * sets`, far beyond any simulated
    /// footprint.
    #[inline]
    fn split(&self, line: LineAddr) -> (usize, u32) {
        let sets = self.cfg.sets as u64;
        // Power-of-two geometries strength-reduce to mask and shift; the
        // branch is on a loop invariant and predicts perfectly.
        let (si, tag) = if sets.is_power_of_two() {
            (line & (sets - 1), line >> sets.trailing_zeros())
        } else {
            (line % sets, line / sets)
        };
        assert!(
            tag < u64::from(NO_TAG),
            "line address out of range for 32-bit set-relative tags"
        );
        (si as usize, tag as u32)
    }

    /// 8-bit partial tag of a set-relative tag (top byte of a Fibonacci
    /// hash).
    #[inline]
    fn tag_hash(tag: u32) -> u8 {
        (u64::from(tag).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8
    }

    /// Narrows a partition id to the arena's 16-bit owner slots.
    #[inline]
    fn owner_of(part: PartitionId) -> u16 {
        assert!(
            part.0 <= u16::MAX as usize,
            "partition ids must fit in 16 bits"
        );
        part.0 as u16
    }

    /// This bank's configuration.
    pub fn config(&self) -> BankConfig {
        self.cfg
    }

    /// Access statistics so far.
    pub fn stats(&self) -> &BankStats {
        &self.stats
    }

    /// Resets statistics without touching cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = BankStats::default();
    }

    /// Sets the way mask for `part`. Partitions without an explicit mask may
    /// insert into any way.
    pub fn set_mask(&mut self, part: PartitionId, mask: WayMask) {
        if self.masks.len() <= part.0 {
            self.masks.resize(part.0 + 1, WayMask::all(self.cfg.ways));
        }
        self.masks[part.0] = mask;
    }

    /// The way mask in effect for `part`.
    pub fn mask(&self, part: PartitionId) -> WayMask {
        self.masks
            .get(part.0)
            .copied()
            .unwrap_or_else(|| WayMask::all(self.cfg.ways))
    }

    /// Current value of the shared DRRIP policy selector.
    ///
    /// Exposed so tests can observe how co-runners drag the shared policy
    /// around (the channel behind the performance-leakage experiment,
    /// paper Fig. 12, which measures its effect on hit rates instead).
    pub fn psel(&self) -> u32 {
        self.psel
    }

    /// Whether `line` is currently resident.
    pub fn resident(&self, line: LineAddr) -> bool {
        let (si, tag) = self.split(line);
        self.find_way(si, tag).is_some()
    }

    /// Invalidates every line owned by `part`; returns how many were
    /// dropped. Used when flushing a partition on VM context switch
    /// (Sec. IV-B).
    pub fn flush_partition(&mut self, part: PartitionId) -> u64 {
        let owner = Self::owner_of(part);
        let mut dropped = 0;
        for si in 0..self.cfg.sets {
            let base = si * self.ways;
            let mut v = self.vd[si][VD_VALID];
            while v != 0 {
                let w = v.trailing_zeros() as usize;
                if self.slots[base + w].part == owner {
                    self.slots[base + w].tag = NO_TAG;
                    self.vd[si][VD_VALID] &= !(1u64 << w);
                    self.vd[si][VD_DIRTY] &= !(1u64 << w);
                    dropped += 1;
                }
                v &= v - 1;
            }
        }
        dropped
    }

    /// Number of resident lines owned by `part`.
    pub fn occupancy(&self, part: PartitionId) -> u64 {
        let owner = Self::owner_of(part);
        let mut count = 0;
        for si in 0..self.cfg.sets {
            let base = si * self.ways;
            let mut v = self.vd[si][VD_VALID];
            while v != 0 {
                let w = v.trailing_zeros() as usize;
                count += u64::from(self.slots[base + w].part == owner);
                v &= v - 1;
            }
        }
        count
    }

    /// Performs one read access on behalf of `part`, filling on a miss.
    ///
    /// Shorthand for [`CacheBank::access_rw`] with `is_write == false`.
    pub fn access(&mut self, line: LineAddr, part: PartitionId) -> AccessOutcome {
        self.access_rw(line, part, false)
    }

    /// Performs one access on behalf of `part`, filling on a miss. Writes
    /// mark the line dirty; evicting a dirty line reports a write-back.
    ///
    /// On a miss the victim is chosen only among ways in `part`'s
    /// [`WayMask`]; if the mask is empty the access bypasses the cache (miss
    /// without fill).
    #[inline]
    pub fn access_rw(
        &mut self,
        line: LineAddr,
        part: PartitionId,
        is_write: bool,
    ) -> AccessOutcome {
        self.stamp += 1;
        let (si, tag) = self.split(line);
        let base = si * self.ways;

        // Hit path: hits are allowed anywhere in the set (CAT restricts
        // insertion, not lookup).
        if let Some(w) = self.find_way(si, tag) {
            let rslot = self.meta_base(si) + self.ways + w;
            match self.cfg.policy {
                ReplPolicy::Lru => self.stamps[base + w] = self.stamp,
                _ => self.meta[rslot] = 0,
            }
            self.vd[si][VD_DIRTY] |= u64::from(is_write) << w;
            self.stats.record(part, true);
            return AccessOutcome {
                hit: true,
                writeback: false,
            };
        }

        // Miss path.
        self.stats.record(part, false);
        self.duel_on_miss(si);
        let mask = self.mask(part);
        if mask.is_empty() {
            return AccessOutcome {
                hit: false,
                writeback: false,
            };
        }
        let w = self.pick_victim(si, mask);
        let slot = base + w;
        let bit = 1u64 << w;
        let was_valid = self.vd[si][VD_VALID] & bit != 0;
        let writeback = was_valid && self.vd[si][VD_DIRTY] & bit != 0;
        let mb = self.meta_base(si);
        match self.insertion_state(si) {
            ReplState::Lru { stamp } => self.stamps[slot] = stamp,
            ReplState::Rrip { rrpv } => self.meta[mb + self.ways + w] = rrpv,
        }
        self.slots[slot] = Slot {
            tag,
            part: Self::owner_of(part),
        };
        self.meta[mb + w] = Self::tag_hash(tag);
        self.vd[si][VD_VALID] |= bit;
        self.vd[si][VD_DIRTY] = (self.vd[si][VD_DIRTY] & !bit) | (u64::from(is_write) << w);
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    /// First way of set `si` holding set-relative tag `tag` (ascending way
    /// order, matching a physical parallel tag compare).
    ///
    /// Scans the set's 8-bit partial-tag row eight ways at a time (SWAR
    /// zero-byte detection on a `u64`), then verifies candidate ways
    /// against the full tags in ascending order. A miss usually never
    /// touches the slot array at all — one 32-byte filter row replaces a
    /// 256-byte slot row on the most common path. The zero-byte formula
    /// may flag the byte after a genuine match (borrow propagation); such
    /// false candidates are rejected by the full tag compare, which also
    /// rejects empty slots ([`NO_TAG`] never equals a real tag).
    #[inline]
    fn find_way(&self, si: usize, tag: u32) -> Option<usize> {
        const LO: u64 = 0x0101_0101_0101_0101;
        const HI: u64 = 0x8080_8080_8080_8080;
        let bcast = LO * u64::from(Self::tag_hash(tag));
        let mb = self.meta_base(si);
        let frow = &self.meta[mb..mb + self.ways];
        let base = si * self.ways;
        // Accumulate one candidate bit per way across all chunks before
        // branching at all: per-chunk early exits would add a ~50%
        // mispredicted branch per chunk, and the scan is pure ALU work.
        let mut cand: u64 = 0;
        let mut chunks = frow.chunks_exact(8);
        let mut start = 0usize;
        for c in chunks.by_ref() {
            let v = u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")) ^ bcast;
            let z = v.wrapping_sub(LO) & !v & HI;
            // Gather the per-byte match bits into 8 contiguous candidate
            // bits (the classic LSB-gather multiplier: byte k's bit lands
            // at position 56 + k, collision- and carry-free).
            const PACK: u64 = 0x0102_0408_1020_4080;
            let m8 = (z >> 7).wrapping_mul(PACK) >> 56;
            cand |= m8 << start;
            start += 8;
        }
        let h = Self::tag_hash(tag);
        for (i, &f) in chunks.remainder().iter().enumerate() {
            cand |= u64::from(f == h) << (start + i);
        }
        while cand != 0 {
            let w = cand.trailing_zeros() as usize;
            if self.slots[base + w].tag == tag {
                return Some(w);
            }
            cand &= cand - 1;
        }
        None
    }

    /// Role of a set in DRRIP set-dueling.
    fn duel_role(&self, si: usize) -> Option<InsertFlavor> {
        if self.cfg.policy != ReplPolicy::Drrip {
            return None;
        }
        match si % DUEL_STRIDE {
            0 => Some(InsertFlavor::Srrip),
            16 => Some(InsertFlavor::Brrip),
            _ => None,
        }
    }

    fn duel_on_miss(&mut self, si: usize) {
        match self.duel_role(si) {
            Some(InsertFlavor::Srrip) => self.psel = (self.psel + 1).min(PSEL_MAX),
            Some(InsertFlavor::Brrip) => self.psel = self.psel.saturating_sub(1),
            None => {}
        }
    }

    fn insertion_flavor(&mut self, si: usize) -> InsertFlavor {
        match self.cfg.policy {
            ReplPolicy::Lru | ReplPolicy::Nru => InsertFlavor::Srrip, // unused / fixed
            ReplPolicy::Srrip => InsertFlavor::Srrip,
            ReplPolicy::Brrip => InsertFlavor::Brrip,
            ReplPolicy::Drrip => match self.duel_role(si) {
                Some(f) => f,
                None => {
                    if self.psel > PSEL_INIT {
                        InsertFlavor::Brrip
                    } else {
                        InsertFlavor::Srrip
                    }
                }
            },
        }
    }

    fn insertion_state(&mut self, si: usize) -> ReplState {
        match self.cfg.policy {
            ReplPolicy::Lru => ReplState::Lru { stamp: self.stamp },
            // NRU inserts recently-used (ref bit clear).
            ReplPolicy::Nru => ReplState::Rrip { rrpv: 0 },
            _ => {
                let rrpv = match self.insertion_flavor(si) {
                    InsertFlavor::Srrip => RRPV_MAX - 1,
                    InsertFlavor::Brrip => {
                        self.brrip_ctr = (self.brrip_ctr + 1) % BRRIP_LONG_INTERVAL;
                        if self.brrip_ctr == 0 {
                            RRPV_MAX - 1
                        } else {
                            RRPV_MAX
                        }
                    }
                };
                ReplState::Rrip { rrpv }
            }
        }
    }

    /// Picks a victim way within `mask`, preferring invalid ways.
    fn pick_victim(&mut self, si: usize, mask: WayMask) -> usize {
        debug_assert!(!mask.is_empty());
        let base = si * self.ways;
        let rbase = self.meta_base(si) + self.ways;
        let avail = mask.0 & self.ways_mask();
        // Invalid way first: lowest allowed way whose valid bit is clear.
        let invalid = avail & !self.vd[si][VD_VALID];
        if invalid != 0 {
            return invalid.trailing_zeros() as usize;
        }
        // Every allowed way is valid from here on.
        match self.cfg.policy {
            ReplPolicy::Lru => {
                let mut best = 0;
                let mut best_stamp = u64::MAX;
                let mut v = avail;
                while v != 0 {
                    let w = v.trailing_zeros() as usize;
                    let stamp = self.stamps[base + w];
                    if stamp < best_stamp {
                        best_stamp = stamp;
                        best = w;
                    }
                    v &= v - 1;
                }
                best
            }
            _ => {
                // Find the lowest way at the policy's max RRPV within the
                // mask; otherwise age the masked ways and retry. Aging is
                // restricted to the mask so partitions cannot perturb each
                // other's RRPVs (content isolation); the *policy choice*
                // still leaks via PSEL.
                //
                // Both the scan and the aging are SWAR over the contiguous
                // RRPV row, eight ways per `u64`: masked RRPVs never exceed
                // `rrpv_max() <= 3`, so byte-wise adds cannot carry, and
                // the exact zero-byte formula (no borrow propagation, so no
                // false positives that could change the victim) finds
                // `rrpv == max` bytes. `trailing_zeros` preserves the
                // lowest-way-first order of the scalar loop.
                const LO: u64 = 0x0101_0101_0101_0101;
                const HI: u64 = 0x8080_8080_8080_8080;
                /// High bit of each byte whose way-mask bit is set.
                #[inline]
                fn byte_mask(m8: u8) -> u64 {
                    const LO: u64 = 0x0101_0101_0101_0101;
                    const HI: u64 = 0x8080_8080_8080_8080;
                    const SPREAD: u64 = 0x8040_2010_0804_0201;
                    ((u64::from(m8) * LO) & SPREAD).wrapping_add(!HI) & HI
                }
                let max = self.cfg.policy.rrpv_max();
                let bmax = LO * u64::from(max);
                let full = self.ways & !7;
                loop {
                    let mut start = 0usize;
                    while start < full {
                        let m8 = (avail >> start) as u8;
                        if m8 != 0 {
                            let row = u64::from_le_bytes(
                                self.meta[rbase + start..rbase + start + 8]
                                    .try_into()
                                    .expect("row chunk is 8 bytes"),
                            );
                            // High bit per byte equal to `max` (exact — an
                            // inexact zero-detect could pick a wrong way).
                            let x = row ^ bmax;
                            let z = !(((x & !HI).wrapping_add(!HI)) | x) & byte_mask(m8);
                            if z != 0 {
                                return start + (z.trailing_zeros() as usize >> 3);
                            }
                        }
                        start += 8;
                    }
                    let mut v = avail >> full;
                    while v != 0 {
                        let w = full + v.trailing_zeros() as usize;
                        if self.meta[rbase + w] >= max {
                            return w;
                        }
                        v &= v - 1;
                    }
                    let mut start = 0usize;
                    while start < full {
                        let m8 = (avail >> start) as u8;
                        if m8 != 0 {
                            let inc = byte_mask(m8) >> 7;
                            let span = &mut self.meta[rbase + start..rbase + start + 8];
                            let row =
                                u64::from_le_bytes(span.try_into().expect("row chunk is 8 bytes"));
                            span.copy_from_slice(&row.wrapping_add(inc).to_le_bytes());
                        }
                        start += 8;
                    }
                    let mut v = avail >> full;
                    while v != 0 {
                        let w = full + v.trailing_zeros() as usize;
                        self.meta[rbase + w] += 1;
                        v &= v - 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank(sets: usize, ways: u32, policy: ReplPolicy) -> CacheBank {
        CacheBank::new(BankConfig { sets, ways, policy })
    }

    /// Addresses that all map to set 0 of a `sets`-set bank.
    fn same_set_lines(sets: usize, n: usize) -> Vec<LineAddr> {
        (1..=n as u64).map(|i| i * sets as u64).collect()
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut b = bank(16, 2, ReplPolicy::Lru);
        let lines = same_set_lines(16, 3);
        b.access(lines[0], PartitionId(0));
        b.access(lines[1], PartitionId(0));
        // Touch line 0 so line 1 is LRU.
        assert!(b.access(lines[0], PartitionId(0)).hit);
        assert!(!b.access(lines[2], PartitionId(0)).hit);
        assert!(b.resident(lines[0]));
        assert!(!b.resident(lines[1]));
    }

    #[test]
    fn lru_exact_reuse_within_capacity() {
        let mut b = bank(16, 4, ReplPolicy::Lru);
        let lines = same_set_lines(16, 4);
        for &l in &lines {
            assert!(!b.access(l, PartitionId(0)).hit);
        }
        for &l in &lines {
            assert!(b.access(l, PartitionId(0)).hit, "working set fits");
        }
        assert_eq!(b.stats().hits, 4);
        assert_eq!(b.stats().misses(), 4);
    }

    #[test]
    fn way_partitioning_isolates_insertions() {
        let mut b = bank(16, 4, ReplPolicy::Lru);
        let victim = PartitionId(0);
        let attacker = PartitionId(1);
        b.set_mask(victim, WayMask::range(0, 2));
        b.set_mask(attacker, WayMask::range(2, 2));

        let lines = same_set_lines(16, 8);
        // Victim fills its two ways.
        b.access(lines[0], victim);
        b.access(lines[1], victim);
        // Attacker thrashes the same set with many lines.
        for &l in &lines[2..8] {
            b.access(l, attacker);
        }
        // Victim's lines must survive: the attacker cannot evict them.
        assert!(b.resident(lines[0]));
        assert!(b.resident(lines[1]));
    }

    #[test]
    fn unpartitioned_sharing_allows_conflict_evictions() {
        let mut b = bank(16, 4, ReplPolicy::Lru);
        let victim = PartitionId(0);
        let attacker = PartitionId(1);
        let lines = same_set_lines(16, 8);
        b.access(lines[0], victim);
        for &l in &lines[2..8] {
            b.access(l, attacker);
        }
        // Without partitioning the attacker primed the set and evicted the
        // victim — this is the conflict attack surface.
        assert!(!b.resident(lines[0]));
    }

    #[test]
    fn empty_mask_bypasses() {
        let mut b = bank(16, 4, ReplPolicy::Lru);
        b.set_mask(PartitionId(0), WayMask(0));
        b.access(16, PartitionId(1));
        assert!(!b.access(64, PartitionId(0)).hit);
        assert!(!b.resident(64));
        assert!(b.resident(16), "a bypass evicts nothing");
    }

    #[test]
    fn srrip_hit_promotion_protects_reused_lines() {
        let mut b = bank(16, 2, ReplPolicy::Srrip);
        let lines = same_set_lines(16, 3);
        b.access(lines[0], PartitionId(0));
        b.access(lines[1], PartitionId(0));
        // Promote line 0 to RRPV 0.
        assert!(b.access(lines[0], PartitionId(0)).hit);
        // The new line should displace the non-promoted one.
        b.access(lines[2], PartitionId(0));
        assert!(b.resident(lines[0]));
        assert!(!b.resident(lines[1]));
    }

    #[test]
    fn brrip_mostly_inserts_distant() {
        let mut b = bank(64, 4, ReplPolicy::Brrip);
        // Stream many lines through one set; BRRIP keeps thrashing traffic
        // at distant RRPV, so a resident reused line survives a long scan.
        let keep = 64u64; // set 0
        b.access(keep, PartitionId(0));
        assert!(b.access(keep, PartitionId(0)).hit); // promote to RRPV 0
        for i in 2..40u64 {
            b.access(i * 64, PartitionId(0));
            b.access(keep, PartitionId(0)); // keep re-referencing
        }
        assert!(b.resident(keep), "BRRIP is scan-resistant");
    }

    #[test]
    fn drrip_leader_sets_move_psel() {
        let mut b = bank(64, 2, ReplPolicy::Drrip);
        let init = b.psel();
        // Misses in set 0 (SRRIP leader) increment PSEL.
        for i in 1..20u64 {
            b.access(i * 64, PartitionId(0));
        }
        assert!(b.psel() > init);
        // Misses in set 16 (BRRIP leader) decrement PSEL.
        let before = b.psel();
        for i in 1..40u64 {
            b.access(i * 64 + 16, PartitionId(0));
        }
        assert!(b.psel() < before);
    }

    #[test]
    fn drrip_psel_is_shared_across_partitions() {
        // The performance-leakage channel: partition 1's misses in leader
        // sets change the policy partition 0's follower sets use.
        let mut b = bank(64, 2, ReplPolicy::Drrip);
        b.set_mask(PartitionId(0), WayMask::range(0, 1));
        b.set_mask(PartitionId(1), WayMask::range(1, 1));
        // Followers insert SRRIP-style until PSEL passes its midpoint.
        assert!(b.psel() <= PSEL_INIT);
        // Partition 1 hammers the SRRIP leader set with misses.
        for i in 1..2000u64 {
            b.access(i * 64, PartitionId(1));
        }
        assert!(
            b.psel() > PSEL_INIT,
            "a co-runner flipped the shared policy despite disjoint masks"
        );
    }

    #[test]
    fn nru_behaves_like_coarse_lru() {
        let mut b = bank(16, 2, ReplPolicy::Nru);
        let lines = same_set_lines(16, 3);
        b.access(lines[0], PartitionId(0));
        b.access(lines[1], PartitionId(0));
        // Touch line 0 so it is recently-used; line 1 ages on the victim
        // scan and gets evicted.
        assert!(b.access(lines[0], PartitionId(0)).hit);
        b.access(lines[2], PartitionId(0));
        assert!(b.resident(lines[0]) || b.resident(lines[2]));
        // NRU keeps reused data across small working sets exactly.
        let mut b2 = bank(16, 4, ReplPolicy::Nru);
        for _ in 0..3 {
            for &l in &same_set_lines(16, 4) {
                b2.access(l, PartitionId(0));
            }
        }
        assert_eq!(b2.stats().misses(), 4, "only cold misses");
    }

    #[test]
    fn nru_has_no_set_dueling_state() {
        let mut b = bank(64, 2, ReplPolicy::Nru);
        let before = b.psel();
        for i in 1..200u64 {
            b.access(i * 64, PartitionId(0)); // leader-set misses
        }
        assert_eq!(b.psel(), before, "NRU never touches PSEL");
    }

    #[test]
    fn flush_partition_drops_only_that_partition() {
        let mut b = bank(16, 4, ReplPolicy::Lru);
        b.access(16, PartitionId(0));
        b.access(32, PartitionId(1));
        assert_eq!(b.occupancy(PartitionId(0)), 1);
        let dropped = b.flush_partition(PartitionId(0));
        assert_eq!(dropped, 1);
        assert!(!b.resident(16));
        assert!(b.resident(32));
    }

    #[test]
    fn stats_track_partitions_separately() {
        let mut b = bank(16, 4, ReplPolicy::Lru);
        b.access(16, PartitionId(0));
        b.access(16, PartitionId(0));
        b.access(32, PartitionId(1));
        let s = b.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.hits, 1);
        assert!((s.partition_miss_ratio(PartitionId(0)) - 0.5).abs() < 1e-12);
        assert_eq!(s.partition_miss_ratio(PartitionId(1)), 1.0);
        assert_eq!(s.partition_miss_ratio(PartitionId(9)), 0.0);
    }

    #[test]
    fn writebacks_follow_dirty_evictions() {
        let mut b = bank(16, 1, ReplPolicy::Lru);
        let lines = same_set_lines(16, 3);
        // Write line 0 (dirty), then displace it: write-back.
        b.access_rw(lines[0], PartitionId(0), true);
        let out = b.access(lines[1], PartitionId(0));
        assert!(out.writeback, "dirty victim must be written back");
        // Clean line displaced: no write-back.
        let out2 = b.access(lines[2], PartitionId(0));
        assert!(!out2.writeback);
        // A write HIT dirties an existing clean line.
        let mut b2 = bank(16, 2, ReplPolicy::Lru);
        b2.access(lines[0], PartitionId(0)); // clean fill
        b2.access_rw(lines[0], PartitionId(0), true); // dirty it
        b2.access(lines[1], PartitionId(0));
        let out3 = b2.access(lines[2], PartitionId(0)); // evicts line 0 (LRU)
        assert!(out3.writeback);
    }

    #[test]
    fn way_mask_helpers() {
        assert_eq!(WayMask::all(64).count(), 64);
        assert_eq!(WayMask::range(2, 2).0, 0b1100);
        assert!(WayMask(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "ways must be in 1..=64")]
    fn too_many_ways_panics() {
        bank(16, 65, ReplPolicy::Lru);
    }
}
