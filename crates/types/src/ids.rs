//! Strongly typed identifiers for hardware and software entities.
//!
//! Newtypes keep core, bank, application, VM, and page indices statically
//! distinct (C-NEWTYPE), so a placement algorithm cannot accidentally index
//! a bank table with a core id.

use core::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub usize);

        impl $name {
            /// Returns the raw index.
            #[inline]
            pub fn index(self) -> usize {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<usize> for $name {
            fn from(v: usize) -> Self {
                $name(v)
            }
        }

        impl From<$name> for usize {
            fn from(v: $name) -> usize {
                v.0
            }
        }
    };
}

id_type!(
    /// Identifies one core (hardware thread context) on the chip.
    ///
    /// Cores are numbered in row-major tile order: core *i* lives on tile *i*
    /// of the mesh.
    CoreId,
    "core"
);

id_type!(
    /// Identifies one LLC bank.
    ///
    /// Banks are numbered in row-major tile order and are colocated with the
    /// like-numbered core on the same tile.
    BankId,
    "bank"
);

id_type!(
    /// Identifies one application (process). Each application owns one
    /// virtual cache in the D-NUCA designs.
    AppId,
    "app"
);

id_type!(
    /// Identifies one virtual machine (trust domain). Applications in the
    /// same VM trust each other; applications in different VMs do not.
    VmId,
    "vm"
);

id_type!(
    /// Identifies one virtual memory page (used by the virtual-cache page
    /// mapping).
    PageId,
    "page"
);

/// A count of cache ways, used for way-partitioned (Intel CAT-style)
/// allocations.
///
/// # Examples
///
/// ```
/// use nuca_types::WayCount;
/// let w = WayCount(4);
/// assert_eq!(w.0, 4);
/// assert_eq!(w.to_string(), "4 ways");
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WayCount(pub u32);

impl fmt::Display for WayCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ways", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::DetSet;

    #[test]
    fn ids_round_trip_through_usize() {
        let c = CoreId::from(7usize);
        assert_eq!(usize::from(c), 7);
        assert_eq!(c.index(), 7);
    }

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(CoreId(3).to_string(), "core3");
        assert_eq!(BankId(19).to_string(), "bank19");
        assert_eq!(AppId(0).to_string(), "app0");
        assert_eq!(VmId(2).to_string(), "vm2");
        assert_eq!(PageId(42).to_string(), "page42");
    }

    #[test]
    fn ids_are_hashable_and_ordered() {
        let mut set = DetSet::default();
        set.insert(BankId(1));
        set.insert(BankId(1));
        set.insert(BankId(2));
        assert_eq!(set.len(), 2);
        assert!(BankId(1) < BankId(2));
    }

    #[test]
    fn ids_are_distinct_types() {
        // This is a compile-time property; the test documents the intent.
        fn takes_bank(_b: BankId) {}
        takes_bank(BankId(0));
    }
}
