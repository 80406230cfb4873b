//! The workspace's hashes: a cheap deterministic 64-bit mixer, the
//! content fingerprint every key and checksum is made of, and the
//! deterministic hash maps.
//!
//! [`mix64`] serves wherever the hardware hashes an address (VTB
//! descriptor indexing, UMON set sampling, bank striping).
//! Table-lookup-plus-hash is all the Jigsaw/Jumanji hardware needs
//! (Sec. IV-A), so a single well-mixed integer hash shared by every
//! component keeps the simulation self-consistent and reproducible.
//!
//! [`Fingerprinter`] is the harness's one content hash: every cell key,
//! memo key (deadlines, sampled curves) and profile fingerprint is
//! streamed through it field by field, and the store's record checksum
//! is its 64-bit half. It runs four independent lanes over 32-byte
//! blocks, so hashing runs at close to memory speed, and each output half
//! reads every lane (see its docs for why that matters).
//! [`fingerprint128`] is its one-shot form over a byte string.

/// Mixes a 64-bit value (splitmix64 finalizer).
///
/// # Examples
///
/// ```
/// use nuca_types::hash::mix64;
/// assert_ne!(mix64(1), mix64(2));
/// assert_eq!(mix64(7), mix64(7));
/// ```
#[inline]
pub fn mix64(v: u64) -> u64 {
    let mut x = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The odd multipliers of a lane round (the xxHash64 primes 1 and 2).
const PRIME1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME2: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// Initial lane states: digits of pi, nothing up the sleeve.
const LANE_SEEDS: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

/// Finalization seeds of the low and high output halves.
const LOW_SEED: u64 = 0x4528_21E6_38D0_1377;
const HIGH_SEED: u64 = 0xBE54_66CF_34E9_0C6C;

/// A streaming 128-bit content fingerprint, for cache keys that must
/// identify an input *by value* across threads, call sites and processes,
/// and for the store's record checksums.
///
/// The input is one byte stream, however it is split across calls: the
/// typed writers append little-endian bytes (`f64` by bit pattern, a
/// string behind its length as a `u64`), so a key is composed field by
/// field without building a byte vector first. The whole state is six
/// words, which stay in registers while a key is composed: a typed write
/// costs about a nanosecond.
///
/// **Lanes.** Four independent 64-bit lanes each absorb one 8-byte word of
/// every 32-byte block: `lane = rotl(lane + word·P₂, 31)·P₁`, with `P₁`,
/// `P₂` odd. The four chains have no data dependence on each other, so a
/// core runs them side by side: about 80 ns for 600 bytes on a 2-vCPU
/// x86-64 container, where the former two serial [`mix64`] chains per
/// 8-byte word took about 620 ns on the same host. A partial last word
/// and block are zero-padded and absorbed like full ones.
///
/// **Finalization.** Each 64-bit output half is a chain of [`mix64`]
/// (splitmix64) steps that starts from the half's own seed and the total
/// length and folds in *every* lane. The length tells a zero-padded tail
/// from real zero bytes. Every step is a bijection of the running state,
/// so an input difference that reaches one lane — a single flipped bit
/// always does, since a round is a bijection in both the lane and the
/// word — changes both halves, with certainty rather than with high
/// probability. A half that read only some lanes would miss every flip
/// that landed in the others; [`finish64`](Self::finish64) is the store
/// checksum, so such a half would let those flips through undetected.
///
/// With 128 bits, the collision probability over even millions of
/// distinct keys is ≪ 2⁻⁸⁰, far below any other failure mode of the
/// process, so a fingerprint is safe to use as the *whole* identity of a
/// memoized computation's input. It is not a cryptographic hash: it
/// guards against accidents, not adversaries.
///
/// # Examples
///
/// ```
/// use nuca_types::hash::{fingerprint128, Fingerprinter};
/// let mut f = Fingerprinter::new();
/// f.write_u32(7);
/// f.write_str("xapian");
/// f.write_f64(1.5);
/// let key = f.finish128();
///
/// // The same bytes in one piece fingerprint alike.
/// let mut bytes = 7u32.to_le_bytes().to_vec();
/// bytes.extend_from_slice(&6u64.to_le_bytes());
/// bytes.extend_from_slice(b"xapian");
/// bytes.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
/// assert_eq!(fingerprint128(&bytes), key);
/// // The low half is the 64-bit fingerprint.
/// assert_eq!(f.finish64(), key as u64);
/// ```
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    /// The lanes, rotated so that `lanes[0]` absorbs the next word: after
    /// a whole block they are back in order, each having absorbed its
    /// word. Rotating instead of buffering the block keeps the whole
    /// state in registers while a key is composed.
    lanes: [u64; 4],
    /// The bytes of the current partial word, little-endian; the bytes
    /// above them are zero.
    tail: u64,
    /// Bytes written in all: `len % 8` of them are in `tail`.
    len: u64,
}

impl Default for Fingerprinter {
    fn default() -> Fingerprinter {
        Fingerprinter::new()
    }
}

impl Fingerprinter {
    /// A fingerprinter that has absorbed nothing.
    pub const fn new() -> Fingerprinter {
        Fingerprinter {
            lanes: LANE_SEEDS,
            tail: 0,
            len: 0,
        }
    }

    /// Absorbs one whole word into the lane whose turn it is.
    #[inline(always)]
    fn push_word(&mut self, w: u64) {
        let [a, b, c, d] = self.lanes;
        let a = a
            .wrapping_add(w.wrapping_mul(PRIME2))
            .rotate_left(31)
            .wrapping_mul(PRIME1);
        self.lanes = [b, c, d, a];
    }

    /// Appends the `n` (1 to 8) low bytes of `v`, whose higher bytes are
    /// zero.
    #[inline(always)]
    fn write_word(&mut self, v: u64, n: u64) {
        let fill = self.len % 8;
        let joined = u128::from(self.tail) | (u128::from(v) << (8 * fill));
        self.len += n;
        if fill + n >= 8 {
            self.push_word(joined as u64);
            self.tail = (joined >> 64) as u64;
        } else {
            self.tail = joined as u64;
        }
    }

    /// Appends `bytes` to the stream.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut w = [0u8; 8];
            w.copy_from_slice(word);
            self.write_word(u64::from_le_bytes(w), 8);
        }
        for &b in words.remainder() {
            self.write_word(u64::from(b), 1);
        }
    }

    /// Appends one byte.
    #[inline]
    pub fn write_u8(&mut self, v: u8) {
        self.write_word(u64::from(v), 1);
    }

    /// Appends a little-endian `u16`.
    #[inline]
    pub fn write_u16(&mut self, v: u16) {
        self.write_word(u64::from(v), 2);
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.write_word(u64::from(v), 4);
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write_word(v, 8);
    }

    /// Appends a little-endian `u128`.
    #[inline]
    pub fn write_u128(&mut self, v: u128) {
        self.write_u64(v as u64);
        self.write_u64((v >> 64) as u64);
    }

    /// Appends a `usize` as a `u64`, so a key is the same on every
    /// supported target.
    #[inline]
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Appends an `f64` by bit pattern: `0.0` and `-0.0` differ, and so
    /// do NaNs with different payloads.
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Appends a string behind its length, so `("ab", "c")` and
    /// `("a", "bc")` differ.
    #[inline]
    pub fn write_str(&mut self, v: &str) {
        self.write_usize(v.len());
        self.write(v.as_bytes());
    }

    /// The lanes, in order, after the partial word and then the partial
    /// block are absorbed zero-padded.
    #[inline]
    fn final_lanes(&self) -> [u64; 4] {
        let mut f = self.clone();
        let mut words = f.len.div_ceil(8);
        if !f.len.is_multiple_of(8) {
            f.push_word(f.tail);
        }
        while !words.is_multiple_of(4) {
            f.push_word(0);
            words += 1;
        }
        f.lanes
    }

    /// One output half: a [`mix64`] chain from `seed` and the length
    /// through every lane, in `order`.
    #[inline]
    fn half(&self, lanes: &[u64; 4], seed: u64, order: [usize; 4]) -> u64 {
        order
            .iter()
            .fold(seed ^ self.len, |h, &i| mix64(h ^ lanes[i]))
    }

    /// The 64-bit fingerprint of the bytes written so far: the low half
    /// of [`finish128`](Self::finish128), computed alone. It reads every
    /// lane, so it detects every single-bit flip; the store checksums
    /// records with it.
    pub fn finish64(&self) -> u64 {
        self.half(&self.final_lanes(), LOW_SEED, [0, 1, 2, 3])
    }

    /// The 128-bit fingerprint of the bytes written so far. Writing may
    /// continue after it.
    pub fn finish128(&self) -> u128 {
        let lanes = self.final_lanes();
        let low = self.half(&lanes, LOW_SEED, [0, 1, 2, 3]);
        let high = self.half(&lanes, HIGH_SEED, [3, 2, 1, 0]);
        (u128::from(high) << 64) | u128::from(low)
    }
}

/// The 128-bit [`Fingerprinter`] fingerprint of a byte string, in one
/// shot: equal to streaming the same bytes in any split.
///
/// # Examples
///
/// ```
/// use nuca_types::hash::fingerprint128;
/// assert_ne!(fingerprint128(b"abc"), fingerprint128(b"abd"));
/// assert_ne!(fingerprint128(b"a"), fingerprint128(b"a\0"));
/// assert_eq!(fingerprint128(b"same"), fingerprint128(b"same"));
/// ```
pub fn fingerprint128(bytes: &[u8]) -> u128 {
    let mut f = Fingerprinter::new();
    f.write(bytes);
    f.finish128()
}

/// A [`std::hash::BuildHasher`] wrapping [`mix64`], for hot-path hash maps
/// keyed by addresses or ids.
///
/// SipHash (the standard-library default) costs tens of nanoseconds per
/// lookup; the simulator's keys are already well-distributed integers, so
/// a single splitmix64 round is both faster and — unlike `RandomState` —
/// deterministic across runs, which the byte-identical-output guarantee
/// requires of every structure on the simulated path.
///
/// # Examples
///
/// ```
/// use nuca_types::hash::DetMap;
/// let mut m: DetMap<u64, u32> = DetMap::default();
/// m.insert(7, 1);
/// assert_eq!(m.get(&7), Some(&1));
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct Mix64Build;

/// The workspace's hash map: a `HashMap` hashed by [`Mix64Build`].
///
/// `clippy.toml` bans `std::collections::HashMap` by path, because its
/// default `RandomState` hasher iterates in a different order in every
/// process. This alias and [`DetSet`] lift the ban: their hasher is
/// fixed, so every map built through them iterates in the same order run
/// after run. Build one with `DetMap::default()`.
#[allow(
    clippy::disallowed_types,
    reason = "the sanctioned map: a fixed Mix64Build hasher, never RandomState"
)]
pub type DetMap<K, V> = std::collections::HashMap<K, V, Mix64Build>;

/// The workspace's hash set: a `HashSet` hashed by [`Mix64Build`] (see
/// [`DetMap`]).
#[allow(
    clippy::disallowed_types,
    reason = "the sanctioned set: a fixed Mix64Build hasher, never RandomState"
)]
pub type DetSet<T> = std::collections::HashSet<T, Mix64Build>;

impl std::hash::BuildHasher for Mix64Build {
    type Hasher = Mix64Hasher;
    fn build_hasher(&self) -> Mix64Hasher {
        Mix64Hasher { state: 0 }
    }
}

/// The hasher produced by [`Mix64Build`]: folds every written word through
/// [`mix64`].
#[derive(Debug, Default, Clone, Copy)]
pub struct Mix64Hasher {
    state: u64,
}

impl std::hash::Hasher for Mix64Hasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (e.g. tuple or struct keys): fold 8-byte chunks.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.state = mix64(self.state ^ u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.state = mix64(self.state ^ v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `n` bytes of a fixed, non-repeating-looking pattern.
    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 + 7) as u8).collect()
    }

    /// Pinned fingerprints: every store record's checksum and every cell
    /// and memo key is made of these, so a change to the kernel must be
    /// deliberate. Changing them retires every existing store: bump
    /// `codec::FORMAT_VERSION` with them.
    #[test]
    fn golden_fingerprints() {
        let golden: [(usize, u128); 6] = [
            (0, 0xb100_b861_c9d1_a037_31f5_2686_8351_f03e),
            (1, 0xcdef_1c48_178f_f1e1_faf0_ee8c_a422_14df),
            (31, 0x7a80_35fe_04a3_8a03_ce85_425d_0e84_7192),
            (32, 0x3a18_fd0c_75eb_4e50_6e4c_2f5d_5e6f_811d),
            (33, 0x3eec_97ba_3542_6e9d_a833_841b_d5b1_f9d4),
            (1024, 0x846d_2dba_deda_6bfd_804d_153e_85eb_8200),
        ];
        for (n, want) in golden {
            assert_eq!(fingerprint128(&pattern(n)), want, "{n} bytes");
        }
    }

    #[test]
    fn trailing_zeros_and_length_change_the_fingerprint() {
        let mut seen = DetSet::default();
        for base in [pattern(0), pattern(5), pattern(32), pattern(63)] {
            for zeros in 0..=40 {
                let mut bytes = base.clone();
                bytes.resize(base.len() + zeros, 0);
                assert!(
                    seen.insert(fingerprint128(&bytes)),
                    "{} + {zeros} zeros",
                    base.len()
                );
            }
        }
        // Two all-zero inputs differ only by length.
        assert_ne!(fingerprint128(&[0; 32]), fingerprint128(&[0; 64]));
    }

    #[test]
    fn typed_writes_are_their_little_endian_bytes() {
        let mut f = Fingerprinter::new();
        f.write_u8(1);
        f.write_u16(2);
        f.write_u32(3);
        f.write_u64(4);
        f.write_u128(5);
        f.write_usize(6);
        f.write_f64(-0.0);
        f.write_str("lc");
        let mut bytes = vec![1];
        bytes.extend_from_slice(&2u16.to_le_bytes());
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(&4u64.to_le_bytes());
        bytes.extend_from_slice(&5u128.to_le_bytes());
        bytes.extend_from_slice(&6u64.to_le_bytes());
        bytes.extend_from_slice(&(-0.0f64).to_bits().to_le_bytes());
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.extend_from_slice(b"lc");
        assert_eq!(f.finish128(), fingerprint128(&bytes));
        assert_eq!(f.finish64(), fingerprint128(&bytes) as u64);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Streaming the same bytes in any split fingerprints like the
        /// one-shot form.
        #[test]
        fn any_split_streams_like_one_shot(
            bytes in proptest::collection::vec(0u32..256, 0..200),
            cuts in proptest::collection::vec(0usize..200, 0..6),
        ) {
            let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let mut f = Fingerprinter::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([bytes.len()]) {
                f.write(&bytes[from..cut]);
                from = cut;
            }
            prop_assert_eq!(f.finish128(), fingerprint128(&bytes));
            prop_assert_eq!(f.finish64(), fingerprint128(&bytes) as u64);
        }

        /// Flipping any one bit changes both 64-bit halves.
        #[test]
        fn a_flipped_bit_changes_both_halves(
            bytes in proptest::collection::vec(0u32..256, 1..301),
            at in 0usize..300,
            bit in 0u32..8,
        ) {
            let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
            let mut flipped = bytes.clone();
            flipped[at % bytes.len()] ^= 1 << bit;
            let (a, b) = (fingerprint128(&bytes), fingerprint128(&flipped));
            prop_assert_ne!(a as u64, b as u64);
            prop_assert_ne!((a >> 64) as u64, (b >> 64) as u64);
        }
    }

    #[test]
    fn mixes_low_bits_into_high_entropy() {
        // Consecutive inputs should land in different buckets of a small
        // modulus almost always.
        let buckets: DetSet<u64> = (0..128u64).map(|i| mix64(i) % 128).collect();
        assert!(buckets.len() > 70, "got {} distinct buckets", buckets.len());
    }

    #[test]
    fn deterministic() {
        assert_eq!(mix64(0xDEAD_BEEF), mix64(0xDEAD_BEEF));
    }

    #[test]
    fn uniformity_over_banks() {
        // Hashing a large address range modulo 20 banks should be near
        // uniform (within 5% relative).
        let mut counts = [0u64; 20];
        let n = 200_000u64;
        for i in 0..n {
            counts[(mix64(i) % 20) as usize] += 1;
        }
        let expect = n as f64 / 20.0;
        for c in counts {
            assert!((c as f64 - expect).abs() / expect < 0.05);
        }
    }
}
