//! The store salt's fold: a pure function of named byte strings, shared
//! by `build.rs` (which gathers them) and the tests (which check it).

/// 64-bit FNV-1a, folded over successive byte strings.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

/// Folds `(name, value)` parts, in order, into one 64-bit salt. Each
/// part contributes its name, its value's length and its value, so no
/// two different part lists concatenate to the same byte stream.
pub fn fold<'a>(parts: impl IntoIterator<Item = (&'a str, &'a [u8])>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325;
    for (name, value) in parts {
        h = fnv1a(h, name.as_bytes());
        h = fnv1a(h, &(value.len() as u64).to_le_bytes());
        h = fnv1a(h, value);
    }
    h
}
