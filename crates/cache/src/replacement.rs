//! Replacement policies: LRU and the RRIP family (SRRIP, BRRIP, DRRIP).
//!
//! DRRIP's set-dueling state (the PSEL counter) lives in
//! [`crate::CacheBank`], because set-dueling is a *bank-granularity*
//! mechanism — that sharing is exactly the performance-leakage channel the
//! paper demonstrates in Sec. VI-C.

/// Which replacement policy a cache bank uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplPolicy {
    /// True least-recently-used.
    Lru,
    /// Static RRIP: insert at "long re-reference" (RRPV = max-1), promote to
    /// 0 on hit \[Jaleel et al., ISCA'10\].
    Srrip,
    /// Bimodal RRIP: insert at "distant" (RRPV = max) most of the time,
    /// occasionally at "long".
    Brrip,
    /// Dynamic RRIP: chooses between SRRIP and BRRIP per bank via
    /// set-dueling on a shared PSEL counter.
    Drrip,
    /// Not-recently-used: one reference bit per line (equivalent to 1-bit
    /// RRIP). Has no set-dueling state, so it exhibits no cross-partition
    /// performance leakage — a useful ablation against DRRIP.
    Nru,
}

impl ReplPolicy {
    /// Maximum re-reference prediction value for this policy's counters.
    pub(crate) fn rrpv_max(self) -> u8 {
        match self {
            ReplPolicy::Nru => 1,
            _ => RRPV_MAX,
        }
    }
}

/// Maximum re-reference prediction value for 2-bit RRIP.
pub(crate) const RRPV_MAX: u8 = 3;

/// BRRIP inserts at "long" (rather than "distant") once every this many
/// insertions.
pub(crate) const BRRIP_LONG_INTERVAL: u32 = 32;

/// Per-line replacement metadata.
///
/// For LRU this is a logical timestamp (bigger = more recent); for RRIP it
/// is the 2-bit RRPV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplState {
    Lru { stamp: u64 },
    Rrip { rrpv: u8 },
}

/// The concrete insertion flavour a DRRIP bank resolved to for one fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InsertFlavor {
    Srrip,
    Brrip,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rrpv_ranges() {
        assert_eq!(ReplPolicy::Nru.rrpv_max(), 1);
        assert_eq!(ReplPolicy::Srrip.rrpv_max(), 3);
    }
}
