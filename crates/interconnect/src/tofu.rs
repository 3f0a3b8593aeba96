//! The TofuD six-dimensional torus/mesh.
//!
//! TofuD organizes nodes in six dimensions `(X, Y, Z, A, B, C)`. The inner
//! `(A, B, C) = (2, 3, 2)` block of 12 nodes is the *Tofu unit* (one rack
//! shelf); `A` and `C` are size-2 meshes, `B` is a size-3 torus. The outer
//! `X, Y, Z` dimensions are tori connecting the units. Dimension-ordered
//! minimal routing gives the hop count as the sum of per-dimension
//! distances.
//!
//! CTE-Arm's 192 nodes map onto `(X, Y, Z) = (4, 2, 2)` units of 12.

use crate::topology::{check_node, NodeId, Topology};
use serde::{Deserialize, Serialize};

/// Number of dimensions in a Tofu coordinate.
pub const DIMS: usize = 6;

/// A TofuD torus/mesh description.
///
/// ```
/// use interconnect::{tofu::TofuD, topology::{NodeId, Topology}};
/// let t = TofuD::cte_arm();
/// assert_eq!(t.nodes(), 192);
/// // Consecutive ids share a 12-node Tofu unit.
/// assert!(t.same_unit(NodeId(0), NodeId(11)));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TofuD {
    /// Extent of each dimension, order `[X, Y, Z, A, B, C]`.
    pub dims: [usize; DIMS],
    /// Whether each dimension wraps (torus) or not (mesh).
    pub periodic: [bool; DIMS],
}

impl TofuD {
    /// The CTE-Arm configuration: 192 nodes = (4 × 2 × 2) units × (2 × 3 × 2).
    pub fn cte_arm() -> Self {
        Self {
            dims: [4, 2, 2, 2, 3, 2],
            // X, Y, Z and B are tori; A and C are meshes, per the TofuD
            // architecture (Ajima et al., CLUSTER 2018).
            periodic: [true, true, true, false, true, false],
        }
    }

    /// A custom geometry (e.g. Fugaku-scale studies).
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn with_dims(dims: [usize; DIMS], periodic: [bool; DIMS]) -> Self {
        assert!(dims.iter().all(|&d| d > 0), "zero-extent dimension");
        Self { dims, periodic }
    }

    /// Mixed-radix decode of a node id into coordinates. The *innermost*
    /// (fastest-varying) dimension is `C`, so consecutive node ids sit in
    /// the same Tofu unit — which is what produces the diagonal bands in
    /// the paper's Fig. 4 node-pair map.
    pub fn coords(&self, n: NodeId) -> [usize; DIMS] {
        check_node(self, n);
        let mut rem = n.index();
        let mut c = [0; DIMS];
        for i in (0..DIMS).rev() {
            c[i] = rem % self.dims[i];
            rem /= self.dims[i];
        }
        c
    }

    /// Advance coordinates to the next node id in odometer order (the
    /// inverse-decode of `id + 1`), wrapping to all-zeros after the last
    /// id. O(1) amortized — the incremental companion to
    /// [`coords`](Self::coords) for id-ordered sweeps, which would
    /// otherwise pay six integer divisions per node.
    #[inline]
    pub fn advance_coords(&self, c: &mut [usize; DIMS]) {
        for d in (0..DIMS).rev() {
            c[d] += 1;
            if c[d] < self.dims[d] {
                return;
            }
            c[d] = 0;
        }
    }

    /// Inverse of [`coords`](Self::coords).
    pub fn node_at(&self, coords: [usize; DIMS]) -> NodeId {
        let mut id = 0;
        for (&c, &d) in coords.iter().zip(&self.dims) {
            assert!(c < d, "coordinate out of range");
            id = id * d + c;
        }
        NodeId(id)
    }

    /// Distance along one dimension under its wrap rule.
    fn dim_distance(&self, i: usize, a: usize, b: usize) -> usize {
        let d = a.abs_diff(b);
        if self.periodic[i] {
            d.min(self.dims[i] - d)
        } else {
            d
        }
    }

    /// True when both nodes lie in the same Tofu unit (equal X, Y, Z).
    pub fn same_unit(&self, a: NodeId, b: NodeId) -> bool {
        let ca = self.coords(a);
        let cb = self.coords(b);
        ca[..3] == cb[..3]
    }
}

impl Topology for TofuD {
    fn nodes(&self) -> usize {
        self.dims.iter().product()
    }

    fn hops(&self, a: NodeId, b: NodeId) -> usize {
        let ca = self.coords(a);
        let cb = self.coords(b);
        (0..DIMS).map(|i| self.dim_distance(i, ca[i], cb[i])).sum()
    }

    fn sharing(&self, a: NodeId, b: NodeId) -> f64 {
        // Routes that leave the Tofu unit ride the shared X/Y/Z trunk links;
        // static dimension-ordered routing makes distinct pairs collide on
        // them, halving the effective per-pair capacity. This two-class
        // structure is the source of the bimodal bandwidth distribution the
        // paper observes for mid-sized messages (Fig. 5).
        if self.same_unit(a, b) {
            1.0
        } else {
            2.0
        }
    }

    fn name(&self) -> &str {
        "TofuD"
    }

    fn diameter(&self) -> usize {
        (0..DIMS)
            .map(|i| {
                let max_d = self.dims[i] - 1;
                if self.periodic[i] {
                    self.dims[i] / 2
                } else {
                    max_d
                }
            })
            .sum()
    }

    /// Per-dimension histogram fold: mean pairwise hops of a set of id
    /// runs without enumerating pairs (see [`crate::folded::set_mean_hops`]).
    fn set_mean_hops(&self, runs: &[(usize, usize)]) -> Option<f64> {
        crate::folded::set_mean_hops(self, runs)
    }

    /// Torus translation symmetry folds the pair table to one entry per
    /// coordinate-offset class — memory independent of the pair count, so
    /// full-Fugaku networks stay under 10 MB instead of ~100 GB dense.
    fn pair_table(&self) -> Option<crate::folded::FoldedTable> {
        Some(crate::folded::FoldedTable::build(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cte_arm_has_192_nodes() {
        assert_eq!(TofuD::cte_arm().nodes(), 192);
    }

    #[test]
    fn coords_roundtrip() {
        let t = TofuD::cte_arm();
        for i in 0..t.nodes() {
            let n = NodeId(i);
            assert_eq!(t.node_at(t.coords(n)), n);
        }
    }

    #[test]
    fn advance_coords_matches_decode_in_id_order() {
        let t = TofuD::cte_arm();
        let mut c = [0; DIMS];
        for i in 0..t.nodes() {
            assert_eq!(c, t.coords(NodeId(i)), "odometer diverged at id {i}");
            t.advance_coords(&mut c);
        }
        assert_eq!(c, [0; DIMS], "odometer wraps to the origin");
    }

    #[test]
    fn self_distance_is_zero() {
        let t = TofuD::cte_arm();
        assert_eq!(t.hops(NodeId(17), NodeId(17)), 0);
    }

    #[test]
    fn hops_symmetric() {
        let t = TofuD::cte_arm();
        for a in (0..192).step_by(7) {
            for b in (0..192).step_by(11) {
                assert_eq!(t.hops(NodeId(a), NodeId(b)), t.hops(NodeId(b), NodeId(a)));
            }
        }
    }

    #[test]
    fn triangle_inequality_holds() {
        let t = TofuD::cte_arm();
        for a in (0..192).step_by(13) {
            for b in (0..192).step_by(17) {
                for c in (0..192).step_by(19) {
                    let (a, b, c) = (NodeId(a), NodeId(b), NodeId(c));
                    assert!(t.hops(a, c) <= t.hops(a, b) + t.hops(b, c));
                }
            }
        }
    }

    #[test]
    fn torus_wraps_and_mesh_does_not() {
        // X is a size-4 torus: distance between x=0 and x=3 is 1.
        let t = TofuD::cte_arm();
        let a = t.node_at([0, 0, 0, 0, 0, 0]);
        let b = t.node_at([3, 0, 0, 0, 0, 0]);
        assert_eq!(t.hops(a, b), 1);
        // A is a size-2 mesh: distance between a=0 and a=1 is 1 either way,
        // but B as size-3 torus wraps: b=0 to b=2 is 1.
        let c = t.node_at([0, 0, 0, 0, 2, 0]);
        assert_eq!(t.hops(a, c), 1);
    }

    #[test]
    fn consecutive_ids_share_a_unit() {
        let t = TofuD::cte_arm();
        assert!(t.same_unit(NodeId(0), NodeId(11)));
        assert!(!t.same_unit(NodeId(0), NodeId(12)));
        assert_eq!(t.sharing(NodeId(0), NodeId(5)), 1.0);
        assert_eq!(t.sharing(NodeId(0), NodeId(100)), 2.0);
    }

    #[test]
    fn diameter_closed_form_matches_scan() {
        let small = TofuD::with_dims([2, 2, 1, 2, 3, 2], [true, true, true, false, true, false]);
        let scan = {
            let n = small.nodes();
            let mut d = 0;
            for a in 0..n {
                for b in 0..n {
                    d = d.max(small.hops(NodeId(a), NodeId(b)));
                }
            }
            d
        };
        assert_eq!(small.diameter(), scan);
    }

    #[test]
    #[should_panic(expected = "zero-extent")]
    fn zero_dim_rejected() {
        TofuD::with_dims([0, 1, 1, 1, 1, 1], [true; 6]);
    }

    #[test]
    #[should_panic(expected = "coordinate out of range")]
    fn bad_coordinate_rejected() {
        TofuD::cte_arm().node_at([4, 0, 0, 0, 0, 0]);
    }
}
