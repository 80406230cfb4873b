//! A cheap deterministic 64-bit mixer used wherever the hardware hashes an
//! address (VTB descriptor indexing, UMON set sampling, bank striping).
//!
//! Table-lookup-plus-hash is all the Jigsaw/Jumanji hardware needs
//! (Sec. IV-A), so a single well-mixed integer hash shared by every
//! component keeps the simulation self-consistent and reproducible.

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

/// A 128-bit content fingerprint of a byte string, for cache keys that
/// must identify an input *by value* across threads and call sites.
///
/// Two independent [`mix64`] streams fold the input's 8-byte words (the
/// second stream rotates each word and offsets its state so the streams
/// decorrelate), and the length is mixed in last so a zero-padded tail
/// cannot alias a shorter input. With 128 bits, the collision probability
/// over even millions of distinct keys is ≪ 2⁻⁸⁰ — far below any other
/// failure mode of the process — so fingerprints are safe to use as the
/// *whole* identity of a memoized computation's input.
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
    let mut a: u64 = 0x243F_6A88_85A3_08D3; // digits of pi: nothing-up-my-sleeve
    let mut b: u64 = 0x1319_8A2E_0370_7344;
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        let w = u64::from_le_bytes(word);
        a = mix64(a ^ w);
        b = mix64(b ^ w.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15);
    }
    let len = bytes.len() as u64;
    a = mix64(a ^ len);
    b = mix64(b ^ len.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (u128::from(a) << 64) | u128::from(b)
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
