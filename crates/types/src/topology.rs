//! On-chip mesh topology and X-Y routing distances.
//!
//! The evaluation platform (Table II of the paper) is a 5×4 mesh of tiles.
//! Each tile holds one core and one LLC bank; four memory controllers sit at
//! the chip corners. Messages use dimension-ordered (X-Y) routing, so the
//! hop count between two tiles is their Manhattan distance.

use crate::{BankId, CoreId};
use core::fmt;

/// A tile coordinate on the mesh: `x` is the column, `y` the row.
///
/// # Examples
///
/// ```
/// use nuca_types::TileCoord;
/// let a = TileCoord { x: 0, y: 0 };
/// let b = TileCoord { x: 4, y: 3 };
/// assert_eq!(a.manhattan(b), 7);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TileCoord {
    /// Column index, `0..cols`.
    pub x: usize,
    /// Row index, `0..rows`.
    pub y: usize,
}

impl TileCoord {
    /// Manhattan distance (X-Y routing hop count) to another tile.
    #[inline]
    pub fn manhattan(self, other: TileCoord) -> usize {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }
}

impl fmt::Display for TileCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// A rectangular mesh of tiles, each holding one core and one LLC bank.
///
/// Tiles are numbered row-major: tile `i` is at column `i % cols`, row
/// `i / cols`. Core `i` and bank `i` are colocated on tile `i`.
///
/// # Examples
///
/// ```
/// use nuca_types::{Mesh, CoreId, BankId};
/// let mesh = Mesh::new(5, 4);
/// assert_eq!(mesh.num_tiles(), 20);
/// assert_eq!(mesh.hops_core_to_bank(CoreId(0), BankId(0)), 0);
/// assert_eq!(mesh.hops_core_to_bank(CoreId(0), BankId(4)), 4);
/// let nearest: Vec<_> = mesh.banks_by_distance(CoreId(0)).collect();
/// assert_eq!(nearest[0], BankId(0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mesh {
    cols: usize,
    rows: usize,
}

impl Mesh {
    /// Creates a mesh with the given number of columns and rows.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(cols: usize, rows: usize) -> Mesh {
        assert!(cols > 0 && rows > 0, "mesh dimensions must be nonzero");
        Mesh { cols, rows }
    }

    /// Number of columns.
    #[inline]
    pub fn cols(self) -> usize {
        self.cols
    }

    /// Number of rows.
    #[inline]
    pub fn rows(self) -> usize {
        self.rows
    }

    /// Total number of tiles (= cores = banks).
    #[inline]
    pub fn num_tiles(self) -> usize {
        self.cols * self.rows
    }

    /// Coordinate of tile `i` (row-major numbering).
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_tiles()`.
    #[inline]
    pub fn tile(self, i: usize) -> TileCoord {
        assert!(i < self.num_tiles(), "tile index {i} out of range");
        TileCoord {
            x: i % self.cols,
            y: i / self.cols,
        }
    }

    /// Tile index of a coordinate.
    #[inline]
    pub fn tile_index(self, c: TileCoord) -> usize {
        debug_assert!(c.x < self.cols && c.y < self.rows);
        c.y * self.cols + c.x
    }

    /// Coordinate of the tile holding `core`.
    #[inline]
    pub fn core_tile(self, core: CoreId) -> TileCoord {
        self.tile(core.index())
    }

    /// Coordinate of the tile holding `bank`.
    #[inline]
    pub fn bank_tile(self, bank: BankId) -> TileCoord {
        self.tile(bank.index())
    }

    /// X-Y routing hop count from a core's tile to a bank's tile.
    #[inline]
    pub fn hops_core_to_bank(self, core: CoreId, bank: BankId) -> usize {
        self.core_tile(core).manhattan(self.bank_tile(bank))
    }

    /// The four corner tiles, in the order NW, NE, SW, SE.
    pub fn corner_tiles(self) -> [TileCoord; 4] {
        [
            TileCoord { x: 0, y: 0 },
            TileCoord {
                x: self.cols - 1,
                y: 0,
            },
            TileCoord {
                x: 0,
                y: self.rows - 1,
            },
            TileCoord {
                x: self.cols - 1,
                y: self.rows - 1,
            },
        ]
    }

    /// Hop count from a tile to its nearest corner (memory controllers sit
    /// at chip corners).
    pub fn hops_to_nearest_corner(self, t: TileCoord) -> usize {
        self.corner_tiles()
            .iter()
            .map(|c| t.manhattan(*c))
            .min()
            .expect("mesh has four corners")
    }

    /// Iterator over all bank ids sorted by X-Y distance from `core`
    /// (nearest first; ties broken by bank index for determinism).
    pub fn banks_by_distance(self, core: CoreId) -> BanksByDistance {
        let origin = self.core_tile(core);
        let mut banks: Vec<(usize, BankId)> = (0..self.num_tiles())
            .map(|i| (self.tile(i).manhattan(origin), BankId(i)))
            .collect();
        banks.sort();
        BanksByDistance {
            inner: banks.into_iter(),
        }
    }

    /// Average hop distance from `core` to a set of `(bank, weight)` pairs,
    /// where weights are the fraction of accesses served by each bank.
    ///
    /// Returns 0 for an empty placement.
    pub fn weighted_distance<I>(self, core: CoreId, placement: I) -> f64
    where
        I: IntoIterator<Item = (BankId, f64)>,
    {
        let origin = self.core_tile(core);
        let mut total_w = 0.0;
        let mut total_d = 0.0;
        for (bank, w) in placement {
            total_w += w;
            total_d += w * self.bank_tile(bank).manhattan(origin) as f64;
        }
        if total_w > 0.0 {
            total_d / total_w
        } else {
            0.0
        }
    }

    /// Average hop distance from `core` over *all* banks, weighted equally.
    ///
    /// This is the S-NUCA average distance, since static NUCA stripes data
    /// uniformly across every bank.
    pub fn snuca_avg_distance(self, core: CoreId) -> f64 {
        self.weighted_distance(core, (0..self.num_tiles()).map(|i| (BankId(i), 1.0)))
    }
}

/// Iterator over banks sorted by distance from a core.
///
/// Produced by [`Mesh::banks_by_distance`].
#[derive(Debug, Clone)]
pub struct BanksByDistance {
    inner: std::vec::IntoIter<(usize, BankId)>,
}

impl Iterator for BanksByDistance {
    type Item = BankId;

    fn next(&mut self) -> Option<BankId> {
        self.inner.next().map(|(_, b)| b)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for BanksByDistance {}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new(5, 4)
    }

    #[test]
    fn row_major_numbering() {
        let m = mesh();
        assert_eq!(m.tile(0), TileCoord { x: 0, y: 0 });
        assert_eq!(m.tile(4), TileCoord { x: 4, y: 0 });
        assert_eq!(m.tile(5), TileCoord { x: 0, y: 1 });
        assert_eq!(m.tile(19), TileCoord { x: 4, y: 3 });
        for i in 0..20 {
            assert_eq!(m.tile_index(m.tile(i)), i);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tile_out_of_range_panics() {
        mesh().tile(20);
    }

    #[test]
    fn manhattan_distances() {
        let m = mesh();
        assert_eq!(m.hops_core_to_bank(CoreId(0), BankId(0)), 0);
        assert_eq!(m.hops_core_to_bank(CoreId(0), BankId(19)), 7);
    }

    #[test]
    fn corners_and_memory_distance() {
        let m = mesh();
        let corners = m.corner_tiles();
        assert_eq!(corners[0], TileCoord { x: 0, y: 0 });
        assert_eq!(corners[3], TileCoord { x: 4, y: 3 });
        // Center tile (2,1) is 3 hops from NW and 3 from SW; nearest is 3.
        assert_eq!(m.hops_to_nearest_corner(TileCoord { x: 2, y: 1 }), 3);
        // A corner is 0 hops from itself.
        assert_eq!(m.hops_to_nearest_corner(TileCoord { x: 0, y: 0 }), 0);
    }

    #[test]
    fn banks_by_distance_sorted_and_complete() {
        let m = mesh();
        let banks: Vec<BankId> = m.banks_by_distance(CoreId(0)).collect();
        assert_eq!(banks.len(), 20);
        assert_eq!(banks[0], BankId(0));
        // Distances must be non-decreasing.
        let mut last = 0;
        for b in &banks {
            let d = m.hops_core_to_bank(CoreId(0), *b);
            assert!(d >= last, "distances must be sorted");
            last = d;
        }
        // Ties broken by index: distance-1 banks from core 0 are 1 and 5.
        assert_eq!(banks[1], BankId(1));
        assert_eq!(banks[2], BankId(5));
    }

    #[test]
    fn weighted_distance_basic() {
        let m = mesh();
        // All accesses to the local bank: distance 0.
        assert_eq!(m.weighted_distance(CoreId(0), [(BankId(0), 1.0)]), 0.0);
        // Half local, half one hop away: 0.5.
        let d = m.weighted_distance(CoreId(0), [(BankId(0), 0.5), (BankId(1), 0.5)]);
        assert!((d - 0.5).abs() < 1e-12);
        // Empty placement is defined as zero.
        assert_eq!(m.weighted_distance(CoreId(0), []), 0.0);
    }

    #[test]
    fn snuca_distance_is_uniform_average() {
        let m = mesh();
        let d = m.snuca_avg_distance(CoreId(0));
        let expect: f64 = (0..20)
            .map(|i| m.hops_core_to_bank(CoreId(0), BankId(i)) as f64)
            .sum::<f64>()
            / 20.0;
        assert!((d - expect).abs() < 1e-12);
        // Corner cores are farther from data on average than center cores.
        let center = m.snuca_avg_distance(CoreId(7));
        assert!(d > center);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dimension_panics() {
        Mesh::new(0, 4);
    }
}
