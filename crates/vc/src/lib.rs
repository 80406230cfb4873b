//! Virtual caches: placement descriptors, the virtual-cache translation
//! buffer (VTB), the page TLB, and the coherence cost of moving data.
//!
//! Jumanji reuses Jigsaw's single-lookup D-NUCA hardware (Sec. IV-A): every
//! page belongs to a *virtual cache* (VC, one per application here), and
//! each core's [`Vtb`] maps a VC id to a [`PlacementDescriptor`] — a
//! 128-entry array of bank ids. An address is hashed to pick a descriptor
//! entry, which names the unique LLC bank holding that address. Software
//! controls placement simply by rewriting descriptor entries.
//!
//! # Examples
//!
//! ```
//! use nuca_vc::{PlacementDescriptor, Vtb};
//! use nuca_types::{AppId, BankId};
//!
//! // Place a VC 75% in bank 2 and 25% in bank 3.
//! let desc = PlacementDescriptor::from_shares(&[(BankId(2), 0.75), (BankId(3), 0.25)]);
//! let mut vtb = Vtb::new();
//! vtb.install(AppId(0), desc);
//! let bank = vtb.lookup(AppId(0), 0xABCD);
//! assert!(bank == BankId(2) || bank == BankId(3));
//! ```

#![warn(missing_docs)]

use nuca_types::hash::mix64;
use nuca_types::{AppId, BankId, PageId};

/// Number of entries in a placement descriptor (matches the paper's
/// 128-entry array, Fig. 7).
pub const DESCRIPTOR_ENTRIES: usize = 128;

/// Cache lines per page (4 KB pages of 64 B lines). Single-lookup D-NUCAs
/// place data at page granularity (Sec. II-A), so every line of a page
/// lives in the same bank.
pub const PAGE_LINES: u64 = 64;

/// The page containing a line address.
///
/// # Examples
///
/// ```
/// use nuca_vc::{page_of_line, PAGE_LINES};
/// use nuca_types::PageId;
/// assert_eq!(page_of_line(0), PageId(0));
/// assert_eq!(page_of_line(PAGE_LINES), PageId(1));
/// ```
#[inline]
pub fn page_of_line(line: u64) -> PageId {
    PageId((line / PAGE_LINES) as usize)
}

/// A 128-entry array of bank ids controlling where one virtual cache's
/// lines live.
///
/// The fraction of the VC's data in bank *b* equals the fraction of
/// descriptor entries naming *b* (the address hash is uniform).
///
/// Entries are stored as single bytes so a whole descriptor occupies two
/// cache lines (the hardware's 128 × 7-bit SRAM row, Fig. 7) — a
/// [`Vtb::lookup`] on the simulator hot path touches one line, not
/// sixteen. Bank ids must therefore fit in a byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementDescriptor {
    entries: [u8; DESCRIPTOR_ENTRIES],
}

/// Narrows a bank id to the descriptor's byte-wide entry storage.
#[inline]
fn entry_of(b: BankId) -> u8 {
    debug_assert!(
        b.index() <= u8::MAX as usize,
        "descriptor entries are byte-wide; bank ids must be < 256"
    );
    b.index() as u8
}

impl PlacementDescriptor {
    /// A descriptor striping data uniformly over `num_banks` banks —
    /// S-NUCA behaviour.
    ///
    /// # Panics
    ///
    /// Panics if `num_banks == 0`.
    pub fn uniform(num_banks: usize) -> PlacementDescriptor {
        assert!(num_banks > 0, "need at least one bank");
        let mut entries = [0u8; DESCRIPTOR_ENTRIES];
        for (i, e) in entries.iter_mut().enumerate() {
            *e = entry_of(BankId(i % num_banks));
        }
        PlacementDescriptor { entries }
    }

    /// Builds a descriptor whose per-bank entry counts approximate the
    /// given capacity shares (largest-remainder apportionment).
    ///
    /// Shares need not sum to one; they are normalized. Banks with zero
    /// share receive no entries.
    ///
    /// # Panics
    ///
    /// Panics if `shares` is empty or all weights are zero/negative.
    pub fn from_shares(shares: &[(BankId, f64)]) -> PlacementDescriptor {
        let total: f64 = shares.iter().map(|(_, w)| w.max(0.0)).sum();
        assert!(total > 0.0, "placement shares must have positive total");
        // Integer apportionment of 128 entries.
        let mut counts: Vec<(BankId, usize, f64)> = shares
            .iter()
            .filter(|(_, w)| *w > 0.0)
            .map(|&(b, w)| {
                let exact = w / total * DESCRIPTOR_ENTRIES as f64;
                (b, exact.floor() as usize, exact - exact.floor())
            })
            .collect();
        let assigned: usize = counts.iter().map(|c| c.1).sum();
        let mut remaining = DESCRIPTOR_ENTRIES - assigned;
        // Hand out leftovers by largest fractional remainder (ties by bank
        // id for determinism).
        let mut order: Vec<usize> = (0..counts.len()).collect();
        order.sort_by(|&a, &b| {
            counts[b]
                .2
                .partial_cmp(&counts[a].2)
                .expect("remainders are finite")
                .then(counts[a].0.cmp(&counts[b].0))
        });
        for idx in order {
            if remaining == 0 {
                break;
            }
            counts[idx].1 += 1;
            remaining -= 1;
        }
        let mut entries = [0u8; DESCRIPTOR_ENTRIES];
        let mut pos = 0;
        for (b, n, _) in &counts {
            for _ in 0..*n {
                entries[pos] = entry_of(*b);
                pos += 1;
            }
        }
        debug_assert_eq!(pos, DESCRIPTOR_ENTRIES);
        // Interleave entries so consecutive hash values don't stick to one
        // bank: permute by a fixed stride coprime to 128.
        let mut interleaved = [0u8; DESCRIPTOR_ENTRIES];
        for (i, e) in entries.iter().enumerate() {
            interleaved[(i * 37) % DESCRIPTOR_ENTRIES] = *e;
        }
        PlacementDescriptor {
            entries: interleaved,
        }
    }

    /// The bank holding `line` under this descriptor.
    ///
    /// Placement is page-granular (Sec. II-A): the descriptor entry is
    /// selected by hashing the line's *page*, so all 64 lines of a page
    /// map to the same bank.
    #[inline]
    pub fn bank_for(&self, line: u64) -> BankId {
        self.bank_for_page(page_of_line(line))
    }

    /// The bank holding `page` under this descriptor.
    #[inline]
    pub fn bank_for_page(&self, page: PageId) -> BankId {
        BankId(
            self.entries[(mix64(page.index() as u64) % DESCRIPTOR_ENTRIES as u64) as usize]
                as usize,
        )
    }

    /// Per-bank capacity shares implied by the descriptor, in ascending
    /// bank order.
    ///
    /// Deterministic by construction (a dense per-bank count, walked in
    /// bank order) and allocation-light: one count vector sized by the
    /// largest bank id plus the output — no intermediate hash map.
    pub fn shares(&self) -> Vec<(BankId, f64)> {
        let max_bank = *self
            .entries
            .iter()
            .max()
            .expect("descriptor is never empty") as usize;
        let mut counts = vec![0u16; max_bank + 1];
        for &e in &self.entries {
            counts[e as usize] += 1;
        }
        counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| (BankId(b), f64::from(n) / DESCRIPTOR_ENTRIES as f64))
            .collect()
    }

    /// The set of banks with at least one entry.
    pub fn banks(&self) -> Vec<BankId> {
        let mut v: Vec<BankId> = self.entries.iter().map(|&e| BankId(e as usize)).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Fraction of descriptor entries that map to a different bank in
    /// `other` — the fraction of the VC's lines that must be invalidated
    /// and re-fetched after reconfiguration (the background walk of
    /// Sec. IV-A "Coherence").
    pub fn moved_fraction(&self, other: &PlacementDescriptor) -> f64 {
        let moved = self
            .entries
            .iter()
            .zip(other.entries.iter())
            .filter(|(a, b)| a != b)
            .count();
        moved as f64 / DESCRIPTOR_ENTRIES as f64
    }
}

/// The per-core virtual-cache translation buffer: VC id → descriptor.
///
/// One VC per application suffices for this paper (Sec. IV-A), so VCs are
/// keyed by [`AppId`] — and since app ids are small dense integers, the
/// table is a plain `Vec` indexed by id. A [`Vtb::lookup`] (one per
/// simulated LLC access) is an array index plus the descriptor's hash,
/// with no hash-map probing in the path — this mirrors the hardware,
/// where the VTB is an SRAM indexed by VC id (Fig. 7).
#[derive(Debug, Clone, Default)]
pub struct Vtb {
    /// Descriptor slots, indexed by `AppId`; `None` = not installed.
    descs: Vec<Option<PlacementDescriptor>>,
    /// Number of `Some` slots.
    installed: usize,
}

impl Vtb {
    /// An empty VTB.
    pub fn new() -> Vtb {
        Vtb::default()
    }

    /// Installs (or replaces) the descriptor for `vc`, returning the
    /// fraction of lines moved relative to the previous descriptor
    /// (1.0 for a fresh install — everything must be fetched anyway).
    pub fn install(&mut self, vc: AppId, desc: PlacementDescriptor) -> f64 {
        let idx = vc.index();
        if self.descs.len() <= idx {
            self.descs.resize(idx + 1, None);
        }
        let moved = match &self.descs[idx] {
            Some(old) => old.moved_fraction(&desc),
            None => {
                self.installed += 1;
                1.0
            }
        };
        self.descs[idx] = Some(desc);
        moved
    }

    /// The bank for `line` in virtual cache `vc`.
    ///
    /// # Panics
    ///
    /// Panics if `vc` has no installed descriptor — accessing an unmapped
    /// VC is a simulator bug.
    #[inline]
    pub fn lookup(&self, vc: AppId, line: u64) -> BankId {
        self.descs
            .get(vc.index())
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("no descriptor installed for {vc}"))
            .bank_for(line)
    }

    /// The descriptor for `vc`, if installed.
    pub fn descriptor(&self, vc: AppId) -> Option<&PlacementDescriptor> {
        self.descs.get(vc.index()).and_then(Option::as_ref)
    }

    /// Number of installed descriptors.
    pub fn len(&self) -> usize {
        self.installed
    }

    /// True if no descriptors are installed.
    pub fn is_empty(&self) -> bool {
        self.installed == 0
    }
}

/// A per-core translation lookaside buffer caching page entries (which
/// carry the VC id in this design, Sec. IV-A).
///
/// Fully-associative with true-LRU replacement — small TLBs are built this
/// way, and it keeps the model exact. The implementation is an indexed
/// lookup rather than a recency-ordered list: an open-addressed hash index
/// (power-of-two table, [`mix64`] probe start, backward-shift deletion)
/// maps pages to entry slots, and the slots form an intrusive
/// doubly-linked recency list. A hit is one index probe plus a splice to
/// the MRU end; an eviction unlinks the list head — every operation is
/// O(1), and the hit/miss sequence is identical to the old scan-and-shift
/// list, since the linked list encodes exactly the same recency order.
///
/// # Examples
///
/// ```
/// use nuca_vc::Tlb;
/// use nuca_types::PageId;
/// let mut tlb = Tlb::new(2);
/// assert!(!tlb.access(PageId(1))); // cold miss
/// assert!(tlb.access(PageId(1))); // hit
/// tlb.access(PageId(2));
/// tlb.access(PageId(3)); // evicts page 1 (LRU)
/// assert!(!tlb.access(PageId(1)));
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    capacity: usize,
    /// Resident page key per entry slot.
    pages: Vec<u64>,
    /// Intrusive recency list over entry slots (`TLB_NONE` = null).
    prev: Vec<u32>,
    next: Vec<u32>,
    /// LRU end of the list.
    head: u32,
    /// MRU end of the list.
    tail: u32,
    /// Occupied entry slots (they fill in order `0..capacity`).
    len: usize,
    /// Open-addressed index: each table slot packs
    /// `(page key << slot_bits) | entry slot` into one `u64`
    /// (`TLB_EMPTY` = vacant), so a probe is a single load.
    idx: Vec<u64>,
    /// Bit width of the entry-slot field in a packed [`Tlb::idx`] value.
    slot_bits: u32,
    hits: u64,
    misses: u64,
}

/// Vacant index-table slot marker (no page hashes to it: page keys are
/// page numbers, far below `u64::MAX`).
const TLB_EMPTY: u64 = u64::MAX;
/// Null link in the recency list.
const TLB_NONE: u32 = u32::MAX;

impl Tlb {
    /// Creates a TLB with room for `capacity` page entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Tlb {
        assert!(capacity > 0, "TLB needs at least one entry");
        // 4x slots keep the probe chains at ~1 even when full.
        let table = (capacity * 4).next_power_of_two();
        let slot_bits = usize::BITS - (capacity - 1).leading_zeros();
        Tlb {
            capacity,
            pages: vec![0; capacity],
            prev: vec![TLB_NONE; capacity],
            next: vec![TLB_NONE; capacity],
            head: TLB_NONE,
            tail: TLB_NONE,
            len: 0,
            idx: vec![TLB_EMPTY; table],
            slot_bits,
            hits: 0,
            misses: 0,
        }
    }

    /// Packs a page key and entry slot into one index value.
    #[inline]
    fn idx_pack(&self, key: u64, slot: u32) -> u64 {
        debug_assert!(
            key.checked_shl(self.slot_bits).map(|v| v >> self.slot_bits) == Some(key),
            "page key too large to pack beside the slot field"
        );
        (key << self.slot_bits) | u64::from(slot)
    }

    /// Entry slot holding `key`, if resident.
    #[inline]
    fn idx_find(&self, key: u64) -> Option<u32> {
        let mask = self.idx.len() - 1;
        let smask = (1u64 << self.slot_bits) - 1;
        let mut i = mix64(key) as usize & mask;
        loop {
            let v = self.idx[i];
            if v >> self.slot_bits == key {
                return Some((v & smask) as u32);
            }
            if v == TLB_EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts `key → slot`; the key must not be present.
    fn idx_insert(&mut self, key: u64, slot: u32) {
        let mask = self.idx.len() - 1;
        let mut i = mix64(key) as usize & mask;
        while self.idx[i] != TLB_EMPTY {
            i = (i + 1) & mask;
        }
        self.idx[i] = self.idx_pack(key, slot);
    }

    /// Removes `key` (must be present), backward-shifting displaced
    /// entries so probe chains never need tombstones.
    fn idx_remove(&mut self, key: u64) {
        let mask = self.idx.len() - 1;
        let mut i = mix64(key) as usize & mask;
        while self.idx[i] >> self.slot_bits != key {
            i = (i + 1) & mask;
        }
        let mut j = i;
        loop {
            self.idx[i] = TLB_EMPTY;
            loop {
                j = (j + 1) & mask;
                let v = self.idx[j];
                if v == TLB_EMPTY {
                    return;
                }
                // An entry at `j` may fill the hole at `i` only if its
                // ideal slot does not lie in `(i, j]` — otherwise moving
                // it would break its own probe chain.
                let ideal = mix64(v >> self.slot_bits) as usize & mask;
                if (j.wrapping_sub(ideal) & mask) >= (j.wrapping_sub(i) & mask) {
                    self.idx[i] = v;
                    i = j;
                    break;
                }
            }
        }
    }

    /// Unlinks `slot` from the recency list.
    #[inline]
    fn unlink(&mut self, slot: u32) {
        let (p, n) = (self.prev[slot as usize], self.next[slot as usize]);
        if p == TLB_NONE {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == TLB_NONE {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
    }

    /// Appends `slot` at the MRU end.
    #[inline]
    fn push_mru(&mut self, slot: u32) {
        self.prev[slot as usize] = self.tail;
        self.next[slot as usize] = TLB_NONE;
        if self.tail == TLB_NONE {
            self.head = slot;
        } else {
            self.next[self.tail as usize] = slot;
        }
        self.tail = slot;
    }

    /// Looks up `page`, filling on a miss; returns whether it hit.
    #[inline]
    pub fn access(&mut self, page: PageId) -> bool {
        let key = page.index() as u64;
        debug_assert!(key != TLB_EMPTY, "the all-ones page id is reserved");
        if let Some(slot) = self.idx_find(key) {
            self.hits += 1;
            if self.tail != slot {
                self.unlink(slot);
                self.push_mru(slot);
            }
            true
        } else {
            self.misses += 1;
            let slot = if self.len < self.capacity {
                let s = self.len as u32;
                self.len += 1;
                s
            } else {
                let victim = self.head;
                self.idx_remove(self.pages[victim as usize]);
                self.unlink(victim);
                victim
            };
            self.pages[slot as usize] = key;
            self.push_mru(slot);
            self.idx_insert(key, slot);
            false
        }
    }

    /// TLB hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// TLB misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate over all accesses (0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_descriptor_stripes_all_banks() {
        let d = PlacementDescriptor::uniform(20);
        let shares = d.shares();
        assert_eq!(shares.len(), 20);
        for (_, s) in &shares {
            // 128/20 is not integral; shares are 6/128 or 7/128.
            assert!(*s >= 6.0 / 128.0 - 1e-12 && *s <= 7.0 / 128.0 + 1e-12);
        }
    }

    #[test]
    fn from_shares_apportions_entries() {
        let d = PlacementDescriptor::from_shares(&[(BankId(1), 0.75), (BankId(2), 0.25)]);
        let shares = d.shares();
        assert_eq!(shares.len(), 2);
        assert!((shares[0].1 - 0.75).abs() <= 1.0 / 128.0);
        assert!((shares[1].1 - 0.25).abs() <= 1.0 / 128.0);
        assert_eq!(d.banks(), vec![BankId(1), BankId(2)]);
    }

    #[test]
    fn from_shares_normalizes_weights() {
        let a = PlacementDescriptor::from_shares(&[(BankId(0), 3.0), (BankId(1), 1.0)]);
        let b = PlacementDescriptor::from_shares(&[(BankId(0), 0.75), (BankId(1), 0.25)]);
        assert_eq!(a.shares(), b.shares());
    }

    #[test]
    fn bank_for_respects_shares_statistically() {
        let d = PlacementDescriptor::from_shares(&[(BankId(5), 0.5), (BankId(9), 0.5)]);
        let mut five = 0;
        let n = 100_000u64;
        for line in 0..n {
            match d.bank_for(line) {
                BankId(5) => five += 1,
                BankId(9) => {}
                other => panic!("unexpected bank {other}"),
            }
        }
        let frac = five as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "got {frac}");
    }

    #[test]
    fn moved_fraction_bounds() {
        let a = PlacementDescriptor::uniform(20);
        let b = PlacementDescriptor::uniform(20);
        assert_eq!(a.moved_fraction(&b), 0.0);
        let c = PlacementDescriptor::from_shares(&[(BankId(0), 1.0)]);
        let full = a.moved_fraction(&c);
        assert!(
            full > 0.9,
            "moving everything to one bank relocates most lines"
        );
    }

    #[test]
    fn vtb_install_reports_movement() {
        let mut vtb = Vtb::new();
        let first = vtb.install(AppId(0), PlacementDescriptor::uniform(4));
        assert_eq!(first, 1.0);
        let second = vtb.install(AppId(0), PlacementDescriptor::uniform(4));
        assert_eq!(second, 0.0);
        assert_eq!(vtb.len(), 1);
        assert!(!vtb.is_empty());
    }

    #[test]
    #[should_panic(expected = "no descriptor installed")]
    fn vtb_lookup_unmapped_panics() {
        Vtb::new().lookup(AppId(3), 0);
    }

    /// The old recency-ordered-list TLB, kept as a reference model: MRU at
    /// the front, hits shift to the front, misses evict the back.
    struct ReferenceTlb {
        capacity: usize,
        entries: Vec<PageId>,
    }

    impl ReferenceTlb {
        fn access(&mut self, page: PageId) -> bool {
            if let Some(i) = self.entries.iter().position(|&p| p == page) {
                self.entries.remove(i);
                self.entries.insert(0, page);
                true
            } else {
                if self.entries.len() == self.capacity {
                    self.entries.pop();
                }
                self.entries.insert(0, page);
                false
            }
        }
    }

    /// The detailed simulator's page-locality pattern: mostly re-touches
    /// of a hot page set, with a streaming tail of fresh pages.
    fn page_locality_trace(n: usize) -> Vec<PageId> {
        let mut state = 0x5DEECE66Du64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        (0..n)
            .map(|i| {
                let r = next();
                if r % 10 < 9 {
                    PageId((r % 96) as usize) // hot region
                } else {
                    PageId(10_000 + i) // streaming cold page
                }
            })
            .collect()
    }

    #[test]
    fn indexed_tlb_matches_reference_lru_hit_miss_sequence() {
        let trace = page_locality_trace(20_000);
        for capacity in [1, 2, 16, 64, 128] {
            let mut tlb = Tlb::new(capacity);
            let mut reference = ReferenceTlb {
                capacity,
                entries: Vec::new(),
            };
            for (i, &p) in trace.iter().enumerate() {
                assert_eq!(
                    tlb.access(p),
                    reference.access(p),
                    "capacity {capacity}: diverged at access {i} (page {p:?})"
                );
            }
            assert!(tlb.hits() > 0 && tlb.misses() > 0, "trace exercises both");
        }
    }

    #[test]
    #[should_panic(expected = "positive total")]
    fn zero_shares_panic() {
        PlacementDescriptor::from_shares(&[(BankId(0), 0.0)]);
    }
}
