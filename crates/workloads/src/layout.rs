//! Thread-to-core layout for VMs on the mesh.
//!
//! The paper's default scenario pins each of four VMs to five cores in one
//! corner quadrant of the 5×4 chip, with the latency-critical application
//! on the corner core (Fig. 2). For other VM counts (the Fig. 17 scaling
//! study) we assign contiguous serpentine runs of tiles, which keeps each
//! VM spatially clustered.

use nuca_types::{CoreId, Mesh};

/// Core assignment for one VM: `cores[0]` hosts the first (latency-critical)
/// application, in keeping with the paper's corner placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmPlacement {
    /// The VM's cores; index 0 is the preferred LC core.
    pub cores: Vec<CoreId>,
}

/// The paper's 4-VM quadrant layout on a 5×4 mesh: each VM gets five cores
/// in one corner, LC application on the corner tile.
///
/// # Panics
///
/// Panics if the mesh is not 5×4.
pub fn quadrant_layout(mesh: Mesh) -> Vec<VmPlacement> {
    assert!(
        mesh.cols() == 5 && mesh.rows() == 4,
        "quadrant layout is specific to the paper's 5x4 mesh"
    );
    let q = |tiles: [usize; 5]| VmPlacement {
        cores: tiles.into_iter().map(CoreId).collect(),
    };
    vec![
        // NW: corner tile 0, neighbours rightward/downward.
        q([0, 1, 5, 6, 2]),
        // NE: corner tile 4.
        q([4, 3, 9, 8, 7]),
        // SW: corner tile 15.
        q([15, 16, 10, 11, 12]),
        // SE: corner tile 19.
        q([19, 18, 14, 13, 17]),
    ]
}

/// General layout: splits the mesh's tiles, visited in serpentine
/// (boustrophedon) order, into contiguous runs of the requested sizes.
///
/// Serpentine order keeps consecutive tiles adjacent, so each VM occupies a
/// spatially compact run. The first core of each run is the VM's preferred
/// LC core.
///
/// # Panics
///
/// Panics if the sizes do not sum to the number of tiles or any size is 0.
pub fn serpentine_layout(mesh: Mesh, vm_sizes: &[usize]) -> Vec<VmPlacement> {
    let total: usize = vm_sizes.iter().sum();
    assert_eq!(
        total,
        mesh.num_tiles(),
        "VM sizes must cover every core exactly once"
    );
    assert!(vm_sizes.iter().all(|&s| s > 0), "VM sizes must be nonzero");
    let mut order = Vec::with_capacity(mesh.num_tiles());
    for row in 0..mesh.rows() {
        let cols: Vec<usize> = if row % 2 == 0 {
            (0..mesh.cols()).collect()
        } else {
            (0..mesh.cols()).rev().collect()
        };
        for col in cols {
            order.push(row * mesh.cols() + col);
        }
    }
    let mut out = Vec::with_capacity(vm_sizes.len());
    let mut pos = 0;
    for &size in vm_sizes {
        let cores = order[pos..pos + size].iter().map(|&t| CoreId(t)).collect();
        out.push(VmPlacement { cores });
        pos += size;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuca_types::hash::DetSet;

    fn mesh() -> Mesh {
        Mesh::new(5, 4)
    }

    #[test]
    fn quadrants_partition_all_cores() {
        let vms = quadrant_layout(mesh());
        assert_eq!(vms.len(), 4);
        let all: DetSet<CoreId> = vms.iter().flat_map(|v| v.cores.iter().copied()).collect();
        assert_eq!(all.len(), 20);
        for v in &vms {
            assert_eq!(v.cores.len(), 5);
        }
    }

    #[test]
    fn lc_cores_sit_on_chip_corners() {
        let vms = quadrant_layout(mesh());
        let lc: Vec<usize> = vms.iter().map(|v| v.cores[0].index()).collect();
        assert_eq!(lc, vec![0, 4, 15, 19]);
    }

    #[test]
    fn quadrants_are_compact() {
        let m = mesh();
        for v in quadrant_layout(m) {
            let anchor = v.cores[0];
            for &c in &v.cores {
                let d = m.core_tile(anchor).manhattan(m.core_tile(c));
                assert!(d <= 3, "core {c} is {d} hops from its VM corner");
            }
        }
    }

    #[test]
    fn serpentine_partitions_and_clusters() {
        let m = mesh();
        let vms = serpentine_layout(m, &[5, 5, 5, 5]);
        let all: DetSet<CoreId> = vms.iter().flat_map(|v| v.cores.iter().copied()).collect();
        assert_eq!(all.len(), 20);
        // Consecutive cores in a run are adjacent on the mesh.
        for v in &vms {
            for w in v.cores.windows(2) {
                let d = m.core_tile(w[0]).manhattan(m.core_tile(w[1]));
                assert_eq!(d, 1, "serpentine neighbours must be adjacent");
            }
        }
    }

    #[test]
    fn serpentine_supports_uneven_sizes() {
        let vms = serpentine_layout(mesh(), &[4, 4, 4, 2, 2, 2, 2]);
        assert_eq!(vms.len(), 7);
        assert_eq!(vms[3].cores.len(), 2);
    }

    #[test]
    #[should_panic(expected = "cover every core")]
    fn wrong_total_panics() {
        serpentine_layout(mesh(), &[5, 5, 5]);
    }

    #[test]
    #[should_panic(expected = "5x4")]
    fn quadrant_layout_rejects_other_meshes() {
        quadrant_layout(Mesh::new(4, 4));
    }
}
