//! Dimension-ordered routing and link-load analysis on the TofuD torus.
//!
//! TofuD routes minimally, dimension by dimension. Enumerating the actual
//! links a route crosses lets us compute per-link load under a traffic
//! pattern — the mechanistic justification for the two-class sharing model
//! in [`crate::tofu`]: under uniform all-to-all traffic the busiest trunk
//! links carry about twice the mean load, which is exactly the sharing
//! factor the bandwidth model charges to cross-unit pairs.
//!
//! ## Fast path
//!
//! Route enumeration is the inner loop of every all-pairs sweep, so it is
//! built to run without touching the allocator:
//!
//! * [`RouteSteps`] walks a route as a plain iterator of [`RouteStep`]s.
//!   The direction of travel along each dimension is decided **once** when
//!   the iterator enters that dimension (minimal routes never reverse
//!   mid-dimension), and node ids are updated incrementally from
//!   precomputed mixed-radix strides — no per-step coordinate encode.
//! * [`LinkLoad`] is a dense `(node, dim, dir)`-indexed accumulator that
//!   replaces the old `HashMap<Link, u64>`: recording a traversal is one
//!   add into a flat `Vec<u64>`, and merging two accumulators (one per
//!   parallel chunk) is element-wise.
//! * [`all_pairs_link_load`] fans the source nodes out over the rayon pool
//!   and combines per-chunk [`LinkLoad`]s in deterministic chunk order;
//!   the counts are integers, so the result is bit-identical to the
//!   sequential sweep at every `RAYON_NUM_THREADS`.

use crate::tofu::{TofuD, DIMS};
use crate::topology::{check_node, NodeId, Topology};
use rayon::prelude::*;

/// One directed physical link: `(from_coords, dimension, direction)`.
/// Direction +1 is the increasing-coordinate port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Link {
    /// Source node of the link.
    pub from: NodeId,
    /// The dimension the link travels along.
    pub dim: usize,
    /// `+1` or `-1`.
    pub dir: i8,
}

/// One hop of a dimension-ordered route: the directed link crossed and the
/// node it lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteStep {
    /// Node the hop leaves from.
    pub from: NodeId,
    /// Node the hop arrives at.
    pub to: NodeId,
    /// Dimension the hop travels along.
    pub dim: usize,
    /// `+1` or `-1`.
    pub dir: i8,
}

impl RouteStep {
    /// The directed link this step crosses.
    #[inline]
    pub fn link(&self) -> Link {
        Link {
            from: self.from,
            dim: self.dim,
            dir: self.dir,
        }
    }
}

/// Non-allocating iterator over the hops of the dimension-ordered minimal
/// route from `a` to `b` (see [`route_steps`]).
///
/// Yields exactly `topo.hops(a, b)` [`RouteStep`]s; the node sequence of
/// the route is `a` followed by each step's `to`.
#[derive(Debug, Clone)]
pub struct RouteSteps<'a> {
    topo: &'a TofuD,
    /// Mixed-radix stride of each dimension (id delta of a +1 step).
    strides: [usize; DIMS],
    cur: [usize; DIMS],
    dst: [usize; DIMS],
    cur_id: usize,
    /// Dimension currently being walked.
    dim: usize,
    /// Hops left in `dim`; when 0 the iterator advances to the next
    /// unfinished dimension and decides its direction once.
    left_in_dim: usize,
    /// Direction for `dim`, +1 or -1 (hoisted out of the step loop).
    dir: i8,
}

impl<'a> RouteSteps<'a> {
    fn new(topo: &'a TofuD, a: NodeId, b: NodeId) -> Self {
        check_node(topo, a);
        check_node(topo, b);
        Self::from_coords(topo, a, topo.coords(a), topo.coords(b))
    }

    /// Construct from pre-decoded endpoint coordinates. This is the hot
    /// constructor for all-pairs sweeps, which maintain coordinates
    /// incrementally ([`TofuD::advance_coords`]) instead of paying a
    /// mixed-radix decode (six integer divisions) per endpoint per pair.
    ///
    /// `ac` must equal `topo.coords(a)` and `dst` must be in range; debug
    /// builds check both.
    #[inline]
    pub fn from_coords(topo: &'a TofuD, a: NodeId, ac: [usize; DIMS], dst: [usize; DIMS]) -> Self {
        debug_assert_eq!(ac, topo.coords(a), "source coords out of sync");
        debug_assert!(dst.iter().zip(&topo.dims).all(|(&c, &d)| c < d));
        let mut strides = [1usize; DIMS];
        for d in (0..DIMS - 1).rev() {
            strides[d] = strides[d + 1] * topo.dims[d + 1];
        }
        // Dimension entry is lazy (`next`/`fold` perform it), keeping
        // this constructor to a handful of register moves.
        Self {
            topo,
            strides,
            cur: ac,
            dst,
            cur_id: a.index(),
            dim: 0,
            left_in_dim: 0,
            dir: 1,
        }
    }

    /// Find the next dimension with distance to cover and decide its
    /// direction — once, not per step. On a torus the minimal side never
    /// flips while walking (the forward distance only shrinks), and mesh
    /// dimensions only ever step the direct way.
    #[inline]
    fn enter_next_dim(&mut self) {
        while self.left_in_dim == 0 && self.dim < DIMS {
            let d = self.dim;
            if self.cur[d] == self.dst[d] {
                self.dim += 1;
                continue;
            }
            let extent = self.topo.dims[d];
            let dist = self.cur[d].abs_diff(self.dst[d]);
            // Modular distances without the division: cur ≠ dst here, so
            // the forward distance is dist when dst is ahead, else the
            // wrap-around complement (and symmetrically for backward).
            let (fwd, bwd) = if self.dst[d] > self.cur[d] {
                (dist, extent - dist)
            } else {
                (extent - dist, dist)
            };
            let step_fwd = if self.topo.periodic[d] {
                fwd <= bwd
            } else {
                self.dst[d] > self.cur[d]
            };
            // The modular distances reduce to |Δ| on mesh dimensions,
            // so fwd/bwd give the hop count either way.
            if step_fwd {
                self.dir = 1;
                self.left_in_dim = fwd;
            } else {
                self.dir = -1;
                self.left_in_dim = bwd;
            }
        }
    }
}

impl Iterator for RouteSteps<'_> {
    type Item = RouteStep;

    #[inline]
    fn next(&mut self) -> Option<RouteStep> {
        if self.left_in_dim == 0 {
            self.enter_next_dim();
            if self.left_in_dim == 0 {
                return None;
            }
        }
        let d = self.dim;
        let extent = self.topo.dims[d];
        let stride = self.strides[d];
        let from = NodeId(self.cur_id);
        if self.dir > 0 {
            if self.cur[d] + 1 == extent {
                // Wrap +: coordinate ext-1 → 0, id drops by (ext-1)·stride.
                self.cur[d] = 0;
                self.cur_id -= (extent - 1) * stride;
            } else {
                self.cur[d] += 1;
                self.cur_id += stride;
            }
        } else if self.cur[d] == 0 {
            // Wrap −: coordinate 0 → ext-1.
            self.cur[d] = extent - 1;
            self.cur_id += (extent - 1) * stride;
        } else {
            self.cur[d] -= 1;
            self.cur_id -= stride;
        }
        let step = RouteStep {
            from,
            to: NodeId(self.cur_id),
            dim: d,
            dir: self.dir,
        };
        self.left_in_dim -= 1;
        Some(step)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Hops still to walk. Mid-dimension the minimal side never flips
        // (the chosen distance only shrinks), so the per-dimension modular
        // distance from the current position *is* the remaining count.
        let mut rem = 0;
        for d in self.dim..DIMS {
            let dist = self.cur[d].abs_diff(self.dst[d]);
            rem += if self.topo.periodic[d] {
                dist.min(self.topo.dims[d] - dist)
            } else {
                dist
            };
        }
        (rem, Some(rem))
    }

    /// Single-pass traversal: one direction decision per dimension, then a
    /// straight run of hops with the extent, stride and direction held in
    /// locals — no iterator state machine. `for_each`, `count` and friends
    /// delegate here, which is what the all-pairs sweeps consume.
    #[inline]
    fn fold<B, F>(self, init: B, mut f: F) -> B
    where
        F: FnMut(B, RouteStep) -> B,
    {
        let mut acc = init;
        let topo = self.topo;
        let mut id = self.cur_id;
        let mut start = self.dim;
        if self.left_in_dim > 0 {
            // Rare: a dimension partially walked via `next` before folding.
            let d = start;
            acc = walk_dim(
                topo.dims[d],
                self.strides[d],
                self.dir,
                self.left_in_dim,
                self.cur[d],
                d,
                &mut id,
                acc,
                &mut f,
            );
            start = d + 1;
        }
        for d in start..DIMS {
            let extent = topo.dims[d];
            // Branch-free direction decision: every select below lowers to
            // a conditional move, so per-destination direction entropy
            // (extents 2–4 flip it almost randomly) costs no mispredicts.
            // A finished dimension falls out as count == 0.
            let (cur, dst) = (self.cur[d], self.dst[d]);
            let dist = cur.abs_diff(dst);
            let ahead = dst > cur;
            let (fwd, bwd) = if ahead {
                (dist, extent - dist)
            } else {
                (extent - dist, dist)
            };
            let step_fwd = if topo.periodic[d] { fwd <= bwd } else { ahead };
            let (dir, count) = if step_fwd { (1i8, fwd) } else { (-1i8, bwd) };
            if count == 0 {
                continue;
            }
            acc = walk_dim(
                extent,
                self.strides[d],
                dir,
                count,
                cur,
                d,
                &mut id,
                acc,
                &mut f,
            );
        }
        acc
    }
}

/// Walk `count` hops along one dimension, invoking `f` per hop. A minimal
/// route wraps at most once per dimension, so the walk is two straight
/// arithmetic runs around one known wrap hop — no per-step wrap test to
/// mispredict.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn walk_dim<B, F>(
    extent: usize,
    stride: usize,
    dir: i8,
    count: usize,
    c: usize,
    d: usize,
    id: &mut usize,
    acc: B,
    f: &mut F,
) -> B
where
    F: FnMut(B, RouteStep) -> B,
{
    let mut acc = acc;
    let mut at = *id;
    let sdelta = if dir > 0 {
        stride as isize
    } else {
        -(stride as isize)
    };
    let to_wrap = if dir > 0 { extent - 1 - c } else { c };
    let k1 = count.min(to_wrap);
    for _ in 0..k1 {
        let from = NodeId(at);
        at = (at as isize + sdelta) as usize;
        acc = f(
            acc,
            RouteStep {
                from,
                to: NodeId(at),
                dim: d,
                dir,
            },
        );
    }
    if count > to_wrap {
        let from = NodeId(at);
        at = (at as isize - sdelta * (extent as isize - 1)) as usize;
        acc = f(
            acc,
            RouteStep {
                from,
                to: NodeId(at),
                dim: d,
                dir,
            },
        );
        for _ in 0..count - to_wrap - 1 {
            let from = NodeId(at);
            at = (at as isize + sdelta) as usize;
            acc = f(
                acc,
                RouteStep {
                    from,
                    to: NodeId(at),
                    dim: d,
                    dir,
                },
            );
        }
    }
    *id = at;
    acc
}

impl ExactSizeIterator for RouteSteps<'_> {}

/// The hops of the dimension-ordered minimal route from `a` to `b`, as a
/// non-allocating iterator.
pub fn route_steps<'a>(topo: &'a TofuD, a: NodeId, b: NodeId) -> RouteSteps<'a> {
    RouteSteps::new(topo, a, b)
}

/// The full node sequence of the dimension-ordered minimal route from `a`
/// to `b` (inclusive of both endpoints).
pub fn route(topo: &TofuD, a: NodeId, b: NodeId) -> Vec<NodeId> {
    let steps = route_steps(topo, a, b);
    let mut path = Vec::with_capacity(steps.len() + 1);
    path.push(a);
    path.extend(steps.map(|s| s.to));
    path
}

/// The directed links of a route.
pub fn route_links(topo: &TofuD, a: NodeId, b: NodeId) -> Vec<Link> {
    route_steps(topo, a, b).map(|s| s.link()).collect()
}

/// Dense per-link traversal counter: one `u64` slot per
/// `(node, dimension, direction)` port, indexed arithmetically.
///
/// Replaces the `HashMap<Link, u64>` accumulator: recording a hop is a
/// single indexed add, and two accumulators merge element-wise, which is
/// what makes the chunk-ordered parallel reduction in
/// [`all_pairs_link_load`] deterministic (integer adds, fixed layout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkLoad {
    n_nodes: usize,
    counts: Vec<u64>,
}

impl LinkLoad {
    /// An all-zero accumulator for a `n_nodes`-node topology.
    pub fn new(n_nodes: usize) -> Self {
        Self {
            n_nodes,
            counts: vec![0; n_nodes * DIMS * 2],
        }
    }

    #[inline]
    fn slot(from: NodeId, dim: usize, dir: i8) -> usize {
        (from.index() * DIMS + dim) * 2 + usize::from(dir > 0)
    }

    /// Count one traversal of the directed link.
    #[inline]
    pub fn record(&mut self, from: NodeId, dim: usize, dir: i8) {
        self.counts[Self::slot(from, dim, dir)] += 1;
    }

    /// Count `n` traversals of the directed link at once — the bulk entry
    /// point for closed-form fills ([`crate::sweep`]) that expand
    /// per-offset counts by symmetry instead of walking routes.
    #[inline]
    pub fn add(&mut self, from: NodeId, dim: usize, dir: i8, n: u64) {
        self.counts[Self::slot(from, dim, dir)] += n;
    }

    /// Traversals recorded for one directed link.
    #[inline]
    pub fn get(&self, from: NodeId, dim: usize, dir: i8) -> u64 {
        self.counts[Self::slot(from, dim, dir)]
    }

    /// Element-wise merge of another accumulator over the same topology.
    pub fn merge(&mut self, other: &LinkLoad) {
        assert_eq!(
            self.n_nodes, other.n_nodes,
            "merging link loads of different topologies"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// `(max, mean)` load over used links; `(0, 0)` when nothing was
    /// recorded.
    pub fn max_mean(&self) -> (f64, f64) {
        let mut max = 0u64;
        let mut sum = 0u64;
        let mut used = 0u64;
        for &c in &self.counts {
            if c > 0 {
                max = max.max(c);
                sum += c;
                used += 1;
            }
        }
        if used == 0 {
            (0.0, 0.0)
        } else {
            (max as f64, sum as f64 / used as f64)
        }
    }
}

/// Per-link traversal counts under uniform all-pairs traffic (one unit per
/// ordered pair), swept in parallel over source nodes. Per-chunk
/// accumulators are combined in chunk order, so the result is bit-identical
/// to a sequential sweep at every thread count.
///
/// Each fold element is one *source* — `O(n · diameter)` route steps, not
/// a cheap scalar — so the default reduction grid (sequential below 4096
/// elements) would leave the pool idle at every realistic node count. An
/// explicit grain keeps ≤ 64 chunks of ≥ 16 sources; it is a pure
/// function of `n`, so determinism is unaffected, and the counts are
/// integers, so re-chunking cannot change the result. For the closed-form
/// route that skips enumeration entirely see
/// [`crate::sweep::uniform_all_pairs_loads`].
pub fn all_pairs_loads(topo: &TofuD) -> LinkLoad {
    let n = topo.nodes();
    let grain = n.div_ceil(64).max(16);
    (0..n)
        .into_par_iter()
        .fold(
            || LinkLoad::new(n),
            |mut acc, s| {
                let src = NodeId(s);
                let sc = topo.coords(src);
                // Destination coordinates tick odometer-style in id
                // order, so the inner loop never pays a decode.
                let mut dc = [0usize; DIMS];
                for r in 0..n {
                    if r != s {
                        RouteSteps::from_coords(topo, src, sc, dc)
                            .for_each(|step| acc.record(step.from, step.dim, step.dir));
                    }
                    topo.advance_coords(&mut dc);
                }
                acc
            },
        )
        .with_grain(grain)
        .reduce(
            || LinkLoad::new(n),
            |mut a, b| {
                a.merge(&b);
                a
            },
        )
}

/// Per-link message load under uniform all-pairs traffic (one unit per
/// ordered pair). Returns `(max_load, mean_load)` over used links.
pub fn all_pairs_link_load(topo: &TofuD) -> (f64, f64) {
    all_pairs_loads(topo).max_mean()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_endpoints_and_length() {
        let t = TofuD::cte_arm();
        for (a, b) in [(0usize, 0usize), (0, 1), (0, 100), (37, 154)] {
            let (a, b) = (NodeId(a), NodeId(b));
            let path = route(&t, a, b);
            assert_eq!(*path.first().unwrap(), a);
            assert_eq!(*path.last().unwrap(), b);
            assert_eq!(path.len(), t.hops(a, b) + 1, "minimal route");
        }
    }

    #[test]
    fn consecutive_route_nodes_are_neighbours() {
        let t = TofuD::cte_arm();
        let path = route(&t, NodeId(5), NodeId(180));
        for w in path.windows(2) {
            assert_eq!(t.hops(w[0], w[1]), 1);
        }
    }

    #[test]
    fn torus_routes_take_the_wrap_when_shorter() {
        let t = TofuD::cte_arm();
        // X from 0 to 3 on a size-4 torus: one wrap hop, not three.
        let a = t.node_at([0, 0, 0, 0, 0, 0]);
        let b = t.node_at([3, 0, 0, 0, 0, 0]);
        let path = route(&t, a, b);
        assert_eq!(path.len(), 2);
    }

    #[test]
    fn links_match_hops() {
        let t = TofuD::cte_arm();
        let links = route_links(&t, NodeId(2), NodeId(77));
        assert_eq!(links.len(), t.hops(NodeId(2), NodeId(77)));
        // Dimension-ordered: dims along the route never decrease.
        for w in links.windows(2) {
            assert!(w[1].dim >= w[0].dim);
        }
    }

    #[test]
    fn route_steps_is_exact_size_and_consistent() {
        let t = TofuD::cte_arm();
        for (a, b) in [(0usize, 0usize), (0, 191), (13, 13), (42, 137)] {
            let (a, b) = (NodeId(a), NodeId(b));
            let steps = route_steps(&t, a, b);
            assert_eq!(steps.len(), t.hops(a, b));
            let mut prev = a;
            for s in route_steps(&t, a, b) {
                assert_eq!(s.from, prev);
                assert_eq!(t.hops(s.from, s.to), 1, "each step is one hop");
                // The step's (dim, dir) matches the coordinate delta.
                let cf = t.coords(s.from);
                let ct = t.coords(s.to);
                let d = (0..DIMS).find(|&d| cf[d] != ct[d]).expect("one hop");
                assert_eq!(d, s.dim);
                // On extent-2 dimensions the coordinate delta alone is
                // ambiguous; meshes must step the direct way, tori pick +1.
                let extent = t.dims[d];
                let fwd = if t.periodic[d] {
                    (cf[d] + 1) % extent == ct[d]
                } else {
                    ct[d] > cf[d]
                };
                assert_eq!(s.dir > 0, fwd);
                prev = s.to;
            }
            assert_eq!(prev, b, "route ends at the destination");
        }
    }

    #[test]
    fn link_load_slots_roundtrip() {
        let t = TofuD::cte_arm();
        let mut load = LinkLoad::new(t.nodes());
        load.record(NodeId(7), 3, 1);
        load.record(NodeId(7), 3, 1);
        load.record(NodeId(7), 3, -1);
        assert_eq!(load.get(NodeId(7), 3, 1), 2);
        assert_eq!(load.get(NodeId(7), 3, -1), 1);
        assert_eq!(load.get(NodeId(7), 2, 1), 0);
    }

    #[test]
    fn parallel_load_matches_sequential_reference() {
        let t = TofuD::with_dims([3, 2, 2, 2, 3, 2], [true, true, true, false, true, false]);
        let n = t.nodes();
        let mut seq = LinkLoad::new(n);
        for s in 0..n {
            for r in 0..n {
                if s == r {
                    continue;
                }
                for step in route_steps(&t, NodeId(s), NodeId(r)) {
                    seq.record(step.from, step.dim, step.dir);
                }
            }
        }
        assert_eq!(all_pairs_loads(&t), seq);
    }

    #[test]
    fn uniform_traffic_hotspots_justify_the_sharing_factor() {
        // The busiest link under all-pairs traffic carries roughly 2× the
        // mean — the sharing = 2.0 charged to cross-unit routes in the
        // bandwidth model.
        let t = TofuD::cte_arm();
        let (max, mean) = all_pairs_link_load(&t);
        let ratio = max / mean;
        assert!(
            (1.6..=3.0).contains(&ratio),
            "hotspot ratio {ratio} (max {max}, mean {mean})"
        );
    }

    #[test]
    fn small_torus_loads_are_symmetric() {
        let t = TofuD::with_dims([2, 2, 2, 1, 1, 1], [true, true, true, false, false, false]);
        let (max, mean) = all_pairs_link_load(&t);
        // Perfectly symmetric machine: every used link equally loaded.
        assert!((max - mean).abs() < 1e-9, "max {max} vs mean {mean}");
    }
}
