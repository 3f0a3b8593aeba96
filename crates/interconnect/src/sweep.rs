//! Closed-form uniform-traffic sweeps on the TofuD torus.
//!
//! The streamed all-pairs sweep ([`crate::routing::all_pairs_loads`])
//! walks every ordered pair's route — `O(n² · diameter)` work that is fine
//! at 192 nodes and hopeless at Fugaku's 158,976. Dimension-ordered
//! routing makes the uniform-traffic pattern separable: when a route walks
//! dimension `d`, dimensions before `d` already sit at the destination's
//! coordinates and dimensions after `d` still sit at the source's. The
//! dim-`d` walk therefore depends only on the pair's dim-`d` coordinates
//! `(p, q)`, and for any fixed other-dimension context there are exactly
//! `n / ext_d` (source-tail × destination-head) completions. Writing
//! `W_d(x, s)` for the number of ordered `(p, q) ∈ [0, ext_d)²` whose
//! minimal dim-`d` walk crosses the port at coordinate `x` in direction
//! `s`:
//!
//! ```text
//! load(u, d, s)  = (n / ext_d) · W_d(u_d, s)          (per directed link)
//! mean hops      = Σ_d (n / ext_d)² · S_d / (n² − n),  S_d = Σ_{p,q} dist_d(p, q)
//! ```
//!
//! `W_d` replays the router's own direction tie-break (forward when the
//! forward distance does not exceed the backward one), so these forms are
//! **exact** — integer-identical to enumerating every route, which the
//! tests and `tests/folded_table.rs` verify differentially. Total cost:
//! `O(Σ ext³)` for the `W_d` tables plus `O(n)` for a dense fill — a
//! full-Fugaku sweep in milliseconds instead of CPU-centuries.

use crate::routing::LinkLoad;
use crate::tofu::{TofuD, DIMS};
use crate::topology::{NodeId, Topology};

/// Per-dimension port-crossing counts under uniform traffic:
/// `counts[x * 2 + (dir > 0)]` is `W_d(x, s)`, and `pair_dist_sum` is
/// `Σ_{p,q} dist_d(p, q)` over all ordered coordinate pairs.
#[derive(Debug, Clone)]
struct DimPortLoads {
    counts: Vec<u64>,
    pair_dist_sum: u64,
}

/// Walk the minimal dim walk from `p` to `q` with the router's direction
/// rule, invoking `f(x, dir)` for the port each hop leaves from.
fn walk_offsets(extent: usize, periodic: bool, p: usize, q: usize, mut f: impl FnMut(usize, i8)) {
    if p == q {
        return;
    }
    let dist = p.abs_diff(q);
    let (fwd, bwd) = if q > p {
        (dist, extent - dist)
    } else {
        (extent - dist, dist)
    };
    let step_fwd = if periodic { fwd <= bwd } else { q > p };
    let (dir, count) = if step_fwd { (1i8, fwd) } else { (-1i8, bwd) };
    let mut cur = p;
    for _ in 0..count {
        f(cur, dir);
        cur = if dir > 0 {
            if cur + 1 == extent {
                0
            } else {
                cur + 1
            }
        } else if cur == 0 {
            extent - 1
        } else {
            cur - 1
        };
    }
}

fn dim_port_loads(extent: usize, periodic: bool) -> DimPortLoads {
    let mut counts = vec![0u64; extent * 2];
    let mut pair_dist_sum = 0u64;
    for p in 0..extent {
        for q in 0..extent {
            let mut hops = 0u64;
            walk_offsets(extent, periodic, p, q, |x, dir| {
                counts[x * 2 + usize::from(dir > 0)] += 1;
                hops += 1;
            });
            pair_dist_sum += hops;
        }
    }
    DimPortLoads {
        counts,
        pair_dist_sum,
    }
}

/// Per-link traversal counts under uniform all-pairs traffic, by symmetry
/// expansion: integer-identical to
/// [`crate::routing::all_pairs_loads`] at `O(n)` instead of
/// `O(n² · diameter)`.
pub fn uniform_all_pairs_loads(topo: &TofuD) -> LinkLoad {
    let n = topo.nodes();
    let per_dim: Vec<DimPortLoads> = (0..DIMS)
        .map(|d| dim_port_loads(topo.dims[d], topo.periodic[d]))
        .collect();
    let mut load = LinkLoad::new(n);
    let mut c = [0usize; DIMS];
    for u in 0..n {
        for d in 0..DIMS {
            let completions = (n / topo.dims[d]) as u64;
            let w = &per_dim[d].counts;
            let back = w[c[d] * 2] * completions;
            let fwd = w[c[d] * 2 + 1] * completions;
            if back > 0 {
                load.add(NodeId(u), d, -1, back);
            }
            if fwd > 0 {
                load.add(NodeId(u), d, 1, fwd);
            }
        }
        topo.advance_coords(&mut c);
    }
    load
}

/// `(max, mean)` link load under uniform all-pairs traffic — the
/// closed-form replacement for
/// [`crate::routing::all_pairs_link_load`], usable at full-Fugaku scale.
pub fn uniform_link_load(topo: &TofuD) -> (f64, f64) {
    uniform_all_pairs_loads(topo).max_mean()
}

/// Mean pairwise hop distance over every ordered non-self node pair, in
/// closed form. Bit-identical to
/// [`crate::placement::mean_pairwise_hops`] over the full machine
/// whenever the integer totals are exactly representable (they are for
/// every deployed shape).
pub fn uniform_mean_hops(topo: &TofuD) -> f64 {
    let n = topo.nodes() as u128;
    if n < 2 {
        return 0.0;
    }
    let total: u128 = (0..DIMS)
        .map(|d| {
            let completions = n / topo.dims[d] as u128;
            completions
                * completions
                * dim_port_loads(topo.dims[d], topo.periodic[d]).pair_dist_sum as u128
        })
        .sum();
    total as f64 / (n * n - n) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement;
    use crate::routing::all_pairs_loads;

    fn shapes() -> Vec<TofuD> {
        vec![
            TofuD::cte_arm(),
            TofuD::with_dims([3, 2, 2, 2, 3, 2], [true, true, true, false, true, false]),
            TofuD::with_dims([2, 2, 2, 1, 1, 1], [true, true, true, false, false, false]),
            TofuD::with_dims([5, 1, 3, 2, 1, 2], [true, false, true, false, true, false]),
            TofuD::with_dims([1, 1, 1, 2, 3, 2], [true, true, true, false, true, false]),
        ]
    }

    #[test]
    fn closed_form_loads_match_streamed_enumeration() {
        for t in shapes() {
            assert_eq!(
                uniform_all_pairs_loads(&t),
                all_pairs_loads(&t),
                "loads diverge on dims {:?}",
                t.dims
            );
        }
    }

    #[test]
    fn closed_form_mean_hops_is_bit_identical_to_pair_scan() {
        for t in shapes() {
            let all: Vec<NodeId> = (0..t.nodes()).map(NodeId).collect();
            let scanned = placement::mean_pairwise_hops(&t, &all);
            let closed = uniform_mean_hops(&t);
            assert_eq!(
                closed.to_bits(),
                scanned.to_bits(),
                "mean hops diverge on dims {:?}: {closed} vs {scanned}",
                t.dims
            );
        }
    }

    #[test]
    fn singleton_machine_has_zero_mean_hops() {
        let t = TofuD::with_dims([1; 6], [false; 6]);
        assert_eq!(uniform_mean_hops(&t), 0.0);
    }

    #[test]
    fn fugaku_class_sweep_runs_in_closed_form() {
        // The full-Fugaku shape: 158 976 nodes, 2.5 × 10¹⁰ ordered pairs.
        // The streamed sweep is unrunnable; the closed form prices it
        // instantly and its hotspot structure matches CTE-Arm's.
        let t = TofuD::with_dims(
            [24, 23, 24, 2, 3, 2],
            [true, true, true, false, true, false],
        );
        let (max, mean) = uniform_link_load(&t);
        assert!(max > mean && mean > 0.0);
        let hops = uniform_mean_hops(&t);
        assert!(hops > 1.0 && hops < t.diameter() as f64);
    }
}
