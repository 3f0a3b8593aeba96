//! Symmetry-folded routing metadata for the TofuD torus.
//!
//! A dense all-pairs memo would store 4 bytes per *ordered node pair* —
//! fine at CTE-Arm's 192 nodes, but ~100 GB at Fugaku's 158,976. On a
//! TofuD torus such a table is massively redundant: dimension-ordered
//! minimal routing makes both `hops(a, b)` and `sharing(a, b)` functions
//! of the per-dimension **coordinate offset** `b_i − a_i` alone, never of
//! the absolute position. A [`FoldedTable`]
//! therefore stores one entry per *offset class* — `Π (2·ext_i − 1)`
//! entries, the product of the extents' signed-offset ranges — instead of
//! one per pair. Fugaku's `[24, 23, 24, 2, 3, 2]` shape folds from
//! 2.5 × 10¹⁰ pairs to 4,473,225 classes: under 10 MB.
//!
//! ## Carry-free decode
//!
//! Resolving a pair must not cost a coordinate decode (twelve integer
//! divisions), or the fold would lose to direct routing. The trick is a
//! mixed-radix *offset encoding* with radix `k_i = 2·ext_i − 1` per
//! dimension: each node gets a precomputed `u32`
//! `enc[x] = Σ x_i · stride_i` over those radices, and the class index of
//! `(a, b)` is
//!
//! ```text
//! class(a, b) = enc[b] − enc[a] + S,     S = Σ (ext_i − 1) · stride_i
//! ```
//!
//! Per dimension the digit of that sum is `b_i − a_i + (ext_i − 1)`, which
//! lies in `[0, 2·ext_i − 2]` — strictly below the radix — so **no digit
//! ever carries** and the flat integer arithmetic is exact: one add, one
//! subtract and two array loads resolve any pair. Torus wraps are folded
//! into the table *contents* at build time (each class stores the minimal
//! modular distance), not into the index.
//!
//! Each entry packs the hop count (13 bits) and the sharing-class palette
//! index (3 bits) into one `u16`, preserving the topology's values
//! bit-for-bit: hop counts are the same integers and sharing factors are
//! the exact `f64`s `TofuD::sharing` returns. Direct routing is the
//! differential oracle (see `tests/folded_table.rs`).

use crate::tofu::{TofuD, DIMS};
use crate::topology::{check_node, NodeId, Topology};
use rayon::prelude::*;

/// Bits of each packed entry holding the hop count.
pub const HOPS_BITS: u32 = 13;
/// Mask extracting the hop count from a packed entry.
pub const HOPS_MASK: u16 = (1 << HOPS_BITS) - 1;

/// O(#offset-classes) fold of the all-pairs routing table on a TofuD
/// torus/mesh: `Π (2·ext − 1)` packed entries plus one `u32` encoding per
/// node, instead of 4 bytes per ordered pair.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldedTable {
    n: usize,
    name: String,
    /// Per-node mixed-radix offset encodings (radix `2·ext − 1` per dim).
    enc: Vec<u32>,
    /// `S = Σ (ext_i − 1) · stride_i`: the all-zero-offset class index,
    /// also the largest value `enc` takes.
    shift: u32,
    /// One packed `hops | class << HOPS_BITS` entry per offset class.
    entries: Vec<u16>,
    palette: Vec<f64>,
    diameter: usize,
}

impl FoldedTable {
    /// Fold the routing metadata of a TofuD shape. `O(Π (2·ext − 1))`
    /// work, independent of the node-pair count: each block of the three
    /// inner dimensions' classes is one outer hop sum added to a shared
    /// row of inner sums, and blocks fill in parallel. At full Fugaku what
    /// remains is mostly the first touch of the ~9 MB table.
    ///
    /// # Panics
    /// Panics if the class space overflows 31-bit indexing (a shape far
    /// beyond any deployed torus) or a hop count exceeds the 13-bit entry
    /// field.
    pub fn build(topo: &TofuD) -> Self {
        let n = topo.nodes();
        let dims = topo.dims;
        let mut radix = [0usize; DIMS];
        for i in 0..DIMS {
            radix[i] = 2 * dims[i] - 1;
        }
        let mut cstride = [1usize; DIMS];
        for d in (0..DIMS - 1).rev() {
            cstride[d] = cstride[d + 1] * radix[d + 1];
        }
        let classes = cstride[0] * radix[0];
        // `enc[b] + S` must stay below 2³²; S < classes, enc ≤ S.
        assert!(
            classes < (1usize << 31),
            "folded class space ({classes}) overflows u32 offset arithmetic"
        );
        let shift: u32 = (0..DIMS).map(|i| ((dims[i] - 1) * cstride[i]) as u32).sum();

        // Per-node encodings, walked odometer-style in id order so the
        // fill never pays a mixed-radix decode.
        let mut enc = vec![0u32; n];
        let mut c = [0usize; DIMS];
        for e in enc.iter_mut() {
            *e = (0..DIMS).map(|i| (c[i] * cstride[i]) as u32).sum();
            topo.advance_coords(&mut c);
        }

        // Sharing palette: TofuD has exactly two classes — same-unit
        // (all X/Y/Z offsets zero) and cross-unit. Both factors are taken
        // from the topology itself so they stay exact f64s; a machine that
        // is a single unit wide (X = Y = Z = 1) only ever sees the first.
        let same = topo.sharing(NodeId(0), NodeId(0));
        let cross_rep = (0..3).find(|&d| dims[d] > 1).map(|d| {
            let node_stride: usize = dims[d + 1..].iter().product();
            topo.sharing(NodeId(0), NodeId(node_stride))
        });
        let palette: Vec<f64> = std::iter::once(same).chain(cross_rep).collect();

        // Hops sum per-dimension distances, and the sharing class reads the
        // three outer (X/Y/Z) offsets alone. So each block of inner-dimension
        // classes (45 entries on TofuD) is one outer sum plus a shared row
        // of inner sums, and fills in parallel, block by block.
        let periodic = topo.periodic;
        let dist: Vec<Vec<usize>> = (0..DIMS)
            .map(|i| {
                (0..radix[i])
                    .map(|g| {
                        // Signed per-dimension offset of digit `g`; the
                        // torus wrap is folded into the stored distance.
                        let off = g.abs_diff(dims[i] - 1);
                        if periodic[i] {
                            off.min(dims[i] - off)
                        } else {
                            off
                        }
                    })
                    .collect()
            })
            .collect();
        let mut inner = Vec::with_capacity(radix[3] * radix[4] * radix[5]);
        for &d3 in &dist[3] {
            for &d4 in &dist[4] {
                for &d5 in &dist[5] {
                    inner.push(d3 + d4 + d5);
                }
            }
        }
        let inner_max = inner.iter().copied().max().unwrap_or(0);
        let mut entries = vec![0u16; classes];
        entries
            .par_chunks_mut(inner.len())
            .enumerate()
            .for_each(|(bi, chunk)| {
                let (g0, rest) = (bi / (radix[1] * radix[2]), bi % (radix[1] * radix[2]));
                let (g1, g2) = (rest / radix[2], rest % radix[2]);
                let outer = dist[0][g0] + dist[1][g1] + dist[2][g2];
                assert!(
                    outer + inner_max <= HOPS_MASK as usize,
                    "hop count {} overflows the {HOPS_BITS}-bit folded entry",
                    outer + inner_max
                );
                let same_unit = [g0, g1, g2] == [dims[0] - 1, dims[1] - 1, dims[2] - 1];
                let class = u16::from(!same_unit) << HOPS_BITS;
                for (e, &h) in chunk.iter_mut().zip(&inner) {
                    *e = class | (outer + h) as u16;
                }
            });

        Self {
            n,
            name: format!("{} (folded)", topo.name()),
            enc,
            shift,
            entries,
            palette,
            diameter: topo.diameter(),
        }
    }

    /// Offset-class index of the ordered pair — carry-free mixed-radix
    /// arithmetic, no coordinate decode.
    #[inline]
    fn class_index(&self, a: NodeId, b: NodeId) -> usize {
        ((self.enc[b.index()] + self.shift) - self.enc[a.index()]) as usize
    }

    /// Hop count of the ordered pair: two array loads and an add.
    #[inline]
    pub fn hops(&self, a: NodeId, b: NodeId) -> usize {
        (self.entries[self.class_index(a, b)] & HOPS_MASK) as usize
    }

    /// Sharing factor of the ordered pair, from the exact-`f64` palette.
    #[inline]
    pub fn sharing(&self, a: NodeId, b: NodeId) -> f64 {
        self.palette[(self.entries[self.class_index(a, b)] >> HOPS_BITS) as usize]
    }

    /// Number of nodes the fold covers.
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// Number of distinct offset classes stored (`Π (2·ext − 1)`).
    pub fn offset_classes(&self) -> usize {
        self.entries.len()
    }

    /// The distinct sharing factors, same-unit first.
    pub fn sharing_classes(&self) -> &[f64] {
        &self.palette
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.entries.len() * 2 + self.enc.len() * 4 + self.palette.len() * 8
    }

    /// Resolve every ordered pair (self-pairs included) through the folded
    /// fast path and return a checksum of hops and sharing classes — the
    /// benchmark kernel behind the `folded_routes_per_sec` row, kept here
    /// so the timed loop is exactly the production lookup arithmetic.
    pub fn checksum_all_pairs(&self) -> u64 {
        let mut sink = 0u64;
        for a in 0..self.n {
            // Hoist the source term: `class = enc[b] + (S − enc[a])`.
            let base = self.shift - self.enc[a];
            for &eb in &self.enc {
                let e = self.entries[(eb + base) as usize];
                sink += (e & HOPS_MASK) as u64 + (((e >> HOPS_BITS) as u64) << 1);
            }
        }
        sink
    }
}

impl Topology for FoldedTable {
    fn nodes(&self) -> usize {
        self.n
    }

    fn hops(&self, a: NodeId, b: NodeId) -> usize {
        check_node(self, a);
        check_node(self, b);
        FoldedTable::hops(self, a, b)
    }

    fn sharing(&self, a: NodeId, b: NodeId) -> f64 {
        check_node(self, a);
        check_node(self, b);
        FoldedTable::sharing(self, a, b)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn diameter(&self) -> usize {
        self.diameter
    }
}

/// Closed-form mean pairwise hop distance of a node set on a TofuD torus —
/// the per-dimension companion to the offset-class fold above.
///
/// Dimension-ordered routing makes `hops(a, b) = Σ_d dist_d(a_d, b_d)`, so
/// the total over all unordered pairs separates per dimension:
///
/// ```text
/// Σ_{i<j} hops(nᵢ, nⱼ) = Σ_d Σ_{x<y} h_d[x] · h_d[y] · dist_d(x, y)
/// ```
///
/// where `h_d` is the histogram of the set's coordinates along dimension
/// `d` (same-coordinate pairs contribute zero and drop out). The set comes
/// as `(start, len)` runs of consecutive ids. Along a run, the dimension-`d`
/// coordinate steps through segments of `stride_d` ids, so each run's
/// first id is decoded once and the histogram is filled segment by
/// segment, with whole `ext_d · stride_d` cycles added in one step: a set
/// of `r` runs costs `O(r · Σ ext_d)` to histogram, with no division per
/// segment. The pair sum per dimension comes from running prefix counts
/// and coordinate sums in `O(ext_d)`. Hop totals accumulate exactly in
/// `u64` (the dense walk's own accumulator width, with the same headroom:
/// the total is bounded by `pairs · max hops`) and the final
/// `total / pairs` division performs the same integer→`f64` conversions,
/// so the result is bit-identical to
/// [`mean_pairwise_hops_dense`](crate::placement::mean_pairwise_hops_dense).
///
/// Returns `None` when the runs overlap, are not ascending or fall outside
/// the topology — callers fall back to the dense walk (which preserves the
/// historical duplicate handling and out-of-range panics).
pub fn set_mean_hops(topo: &TofuD, runs: &[(usize, usize)]) -> Option<f64> {
    let n = topo.nodes();
    let mut k = 0usize;
    let mut prev_end = 0usize;
    for &(start, len) in runs {
        let end = start.checked_add(len)?;
        if start < prev_end || end > n {
            return None;
        }
        prev_end = end;
        k += len;
    }
    if k < 2 {
        return Some(0.0);
    }
    let dims = topo.dims;
    let mut stride = [0usize; DIMS];
    let mut s = 1usize;
    for d in (0..DIMS).rev() {
        stride[d] = s;
        s *= dims[d];
    }
    // One flat histogram buffer for all six dimensions: a single
    // allocation per call, scored a hundred thousand times per replay.
    let mut offsets = [0usize; DIMS + 1];
    for d in 0..DIMS {
        offsets[d + 1] = offsets[d] + dims[d];
    }
    let mut hist = vec![0u64; offsets[DIMS]];
    for &(start, len) in runs.iter().filter(|r| r.1 > 0) {
        let mut c = [0usize; DIMS];
        let mut rem = start;
        for d in (0..DIMS).rev() {
            c[d] = rem % dims[d];
            rem /= dims[d];
        }
        // `start mod stride_d`: the run's offset into its first segment.
        let mut inner = 0usize;
        for d in (0..DIMS).rev() {
            let h = &mut hist[offsets[d]..offsets[d + 1]];
            let cycle = dims[d] * stride[d];
            let mut left = len;
            if left >= cycle {
                // Whole cycles hit every coordinate `stride` times and
                // leave the phase where it was.
                let cycles = left / cycle;
                let per = (cycles * stride[d]) as u64;
                for slot in h.iter_mut() {
                    *slot += per;
                }
                left -= cycles * cycle;
            }
            let (mut x, mut seg) = (c[d], stride[d] - inner);
            while left > 0 {
                let take = seg.min(left);
                h[x] += take as u64;
                left -= take;
                x += 1;
                if x == dims[d] {
                    x = 0;
                }
                seg = stride[d];
            }
            inner += c[d] * stride[d];
        }
    }
    let total: u64 = (0..DIMS)
        .map(|d| pair_distance_total(&hist[offsets[d]..offsets[d + 1]], topo.periodic[d]))
        .sum();
    let pairs = k as u64 * (k as u64 - 1) / 2;
    Some(total as f64 / pairs as f64)
}

/// `Σ_{x<y} h[x] · h[y] · dist(x, y)` along one dimension, in `O(ext)`.
///
/// For each `y`, the pairs with `x < y` split at `y − ⌊ext/2⌋` on a torus:
/// nearer coordinates are `y − x` apart, farther ones wrap, `ext − y + x`
/// apart (a mesh never wraps). Running sums of `h[x]` and `x · h[x]` below
/// `y` and below the split give both parts without a pair loop; every term
/// is an exact integer, so the total equals the pairwise sum.
fn pair_distance_total(h: &[u64], periodic: bool) -> u64 {
    let e = h.len();
    let half = if periodic { e / 2 } else { e };
    // Σ h[x] and Σ x·h[x] over x < y, and over x < y − half.
    let (mut count, mut moment) = (0u64, 0u64);
    let (mut far_count, mut far_moment) = (0u64, 0u64);
    let mut total = 0u64;
    for (y, &hy) in h.iter().enumerate() {
        if y > half {
            let x = y - half - 1;
            far_count += h[x];
            far_moment += x as u64 * h[x];
        }
        let yy = y as u64;
        if hy > 0 {
            let near = yy * (count - far_count) - (moment - far_moment);
            let far = (e as u64 - yy) * far_count + far_moment;
            total += hy * (near + far);
        }
        count += hy;
        moment += yy * hy;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folded_agrees_with_direct_on_cte_arm() {
        let t = TofuD::cte_arm();
        let f = FoldedTable::build(&t);
        assert_eq!(f.nodes(), 192);
        for a in 0..192 {
            for b in 0..192 {
                let (a, b) = (NodeId(a), NodeId(b));
                assert_eq!(f.hops(a, b), t.hops(a, b), "hops ({a}, {b})");
                assert_eq!(
                    f.sharing(a, b).to_bits(),
                    t.sharing(a, b).to_bits(),
                    "sharing ({a}, {b})"
                );
            }
        }
        assert_eq!(Topology::diameter(&f), t.diameter());
        assert_eq!(f.sharing_classes(), &[1.0, 2.0]);
    }

    #[test]
    fn class_space_is_product_of_offset_ranges() {
        let t = TofuD::cte_arm();
        let f = FoldedTable::build(&t);
        // [4,2,2,2,3,2] → 7·3·3·3·5·3 = 2835 classes for 36 864 pairs.
        assert_eq!(f.offset_classes(), 2835);
        // Far below a dense memo's 4 bytes per ordered pair.
        assert!(f.memory_bytes() < 4 * 192 * 192);
    }

    #[test]
    fn single_unit_machine_has_one_sharing_class() {
        let t = TofuD::with_dims([1, 1, 1, 2, 3, 2], [true, true, true, false, true, false]);
        let f = FoldedTable::build(&t);
        assert_eq!(f.sharing_classes(), &[1.0]);
        for a in 0..t.nodes() {
            for b in 0..t.nodes() {
                assert_eq!(f.sharing(NodeId(a), NodeId(b)), 1.0);
            }
        }
    }

    #[test]
    fn checksum_matches_direct_enumeration() {
        let t = TofuD::with_dims([3, 2, 2, 2, 3, 2], [true, true, true, false, true, false]);
        let f = FoldedTable::build(&t);
        let mut want = 0u64;
        for a in 0..t.nodes() {
            for b in 0..t.nodes() {
                let (a, b) = (NodeId(a), NodeId(b));
                let class = u64::from(t.sharing(a, b) != 1.0);
                want += t.hops(a, b) as u64 + (class << 1);
            }
        }
        assert_eq!(f.checksum_all_pairs(), want);
    }

    #[test]
    fn is_a_topology_for_generic_sweeps() {
        let t = TofuD::cte_arm();
        let f = FoldedTable::build(&t);
        let nodes: Vec<NodeId> = (0..24).map(NodeId).collect();
        let direct = crate::placement::mean_pairwise_hops(&t, &nodes);
        let folded = crate::placement::mean_pairwise_hops(&f, &nodes);
        assert_eq!(direct.to_bits(), folded.to_bits());
        assert!(f.name().contains("folded"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn topology_impl_checks_bounds() {
        let f = FoldedTable::build(&TofuD::cte_arm());
        Topology::hops(&f, NodeId(0), NodeId(192));
    }

    #[test]
    fn set_mean_hops_matches_dense_on_assorted_sets() {
        use crate::placement::{id_runs, mean_pairwise_hops_dense};
        let shapes = [
            TofuD::cte_arm(),
            TofuD::with_dims([3, 2, 2, 2, 3, 2], [true, false, true, false, true, false]),
            TofuD::with_dims([5, 1, 3, 2, 3, 2], [true, true, true, false, true, false]),
        ];
        for t in &shapes {
            let n = t.nodes();
            let sets: Vec<Vec<NodeId>> = vec![
                (0..n.min(24)).map(NodeId).collect(),    // one prefix run
                (0..n).step_by(3).map(NodeId).collect(), // singleton runs
                (0..n - 6).step_by(7).chain(n - 5..n).map(NodeId).collect(),
                vec![NodeId(0), NodeId(n - 1)], // extremes
                (n / 3..n / 3 + n.min(30) / 2).map(NodeId).collect(),
            ];
            for nodes in &sets {
                let runs = id_runs(nodes).expect("ascending ids");
                let closed = set_mean_hops(t, &runs).expect("sorted set folds");
                let dense = mean_pairwise_hops_dense(t, nodes);
                assert_eq!(
                    closed.to_bits(),
                    dense.to_bits(),
                    "shape {:?} set {:?}",
                    t.dims,
                    &nodes[..nodes.len().min(8)]
                );
            }
        }
    }

    #[test]
    fn pair_distance_total_matches_the_pair_loop() {
        let mut rng = simkit::rng::Pcg32::seeded(5);
        for e in 1..=30 {
            for periodic in [false, true] {
                let h: Vec<u64> = (0..e)
                    .map(|_| u64::from(rng.next_below(4)) * u64::from(rng.next_below(50)))
                    .collect();
                let mut want = 0u64;
                for x in 0..e {
                    for y in x + 1..e {
                        let span = y - x;
                        let dist = if periodic { span.min(e - span) } else { span };
                        want += h[x] * h[y] * dist as u64;
                    }
                }
                assert_eq!(pair_distance_total(&h, periodic), want, "e {e} {periodic}");
            }
        }
    }

    #[test]
    fn set_mean_hops_rejects_unfoldable_inputs() {
        let t = TofuD::cte_arm();
        assert!(set_mean_hops(&t, &[(5, 1), (2, 1)]).is_none(), "unsorted");
        assert!(set_mean_hops(&t, &[(2, 1), (2, 1)]).is_none(), "duplicate");
        assert!(set_mean_hops(&t, &[(0, 4), (2, 5)]).is_none(), "overlap");
        assert!(
            set_mean_hops(&t, &[(0, 1), (500, 1)]).is_none(),
            "out of range"
        );
        assert!(
            set_mean_hops(&t, &[(0, 1), (usize::MAX, 2)]).is_none(),
            "overflowing run"
        );
        assert_eq!(set_mean_hops(&t, &[(7, 1)]), Some(0.0), "singleton");
        assert_eq!(set_mean_hops(&t, &[]), Some(0.0), "empty");
    }

    #[test]
    fn set_mean_hops_handles_fugaku_scale_sets() {
        // A 64k-node prefix plus a scattered tail at the full-Fugaku shape:
        // closed form answers in microseconds where the dense walk would
        // route 2×10⁹ pairs.
        let t = TofuD::with_dims(
            [24, 23, 24, 2, 3, 2],
            [true, true, true, false, true, false],
        );
        let runs: Vec<(usize, usize)> = std::iter::once((0, 65_536))
            .chain((100_000..t.nodes()).step_by(97).map(|i| (i, 1)))
            .collect();
        let mean = set_mean_hops(&t, &runs).expect("folds");
        let diam = t.diameter() as f64;
        assert!(mean > 0.0 && mean < diam, "mean {mean} within (0, {diam})");
    }
}
