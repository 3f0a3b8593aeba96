//! Job placement policies.
//!
//! CTE-Arm's scheduler is topology-aware: it allocates jobs on contiguous
//! Tofu coordinates to minimize hop counts (Section II). It does *not* let
//! users pick specific nodes (one of the paper's usability complaints). The
//! random allocator exists for the ablation study quantifying what
//! topology-awareness buys.

use crate::topology::{NodeId, Topology};
use rayon::prelude::*;
use simkit::rng::Pcg32;

/// A placement policy: choose `n` nodes for a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Contiguous block of node ids — on TofuD consecutive ids share Tofu
    /// units, so this is the topology-aware allocation.
    ContiguousBlock,
    /// Uniformly random nodes (fragmented-cluster worst case).
    Random,
}

/// Allocate `n` nodes from a topology under a policy. The RNG is only used
/// by [`Placement::Random`].
///
/// # Panics
/// Panics if `n` is zero or exceeds the cluster size.
pub fn allocate<T: Topology>(
    topo: &T,
    n: usize,
    policy: Placement,
    rng: &mut Pcg32,
) -> Vec<NodeId> {
    assert!(n >= 1, "cannot allocate zero nodes");
    assert!(
        n <= topo.nodes(),
        "requested {n} nodes from a {}-node cluster",
        topo.nodes()
    );
    match policy {
        Placement::ContiguousBlock => (0..n).map(NodeId).collect(),
        Placement::Random => {
            let mut all: Vec<usize> = (0..topo.nodes()).collect();
            rng.shuffle(&mut all);
            let mut picked: Vec<usize> = all.into_iter().take(n).collect();
            picked.sort_unstable();
            picked.into_iter().map(NodeId).collect()
        }
    }
}

/// Mean pairwise hop distance of an allocation — the quantity the
/// topology-aware scheduler minimizes.
///
/// Strictly ascending ids are grouped into runs of consecutive ids and
/// handed to the topology's closed form (TofuD's per-dimension histogram
/// fold, see [`Topology::set_mean_hops`]), which answers without touching
/// the k² pairs. Unsorted or duplicated ids, out-of-range ids and
/// topologies without a closed form take the dense walk in
/// [`mean_pairwise_hops_dense`]. Both paths produce bit-identical results
/// at every thread count, so callers never observe which one ran.
pub fn mean_pairwise_hops<T: Topology + Sync>(topo: &T, nodes: &[NodeId]) -> f64 {
    if let Some(mean) = id_runs(nodes).and_then(|runs| topo.set_mean_hops(&runs)) {
        return mean;
    }
    mean_pairwise_hops_dense(topo, nodes)
}

/// [`mean_pairwise_hops`] of a node set given as `(start, len)` runs of
/// consecutive ids, ascending and disjoint — the form the scheduler keeps
/// its allocations in. Topologies without a closed form expand the runs
/// and take the dense walk.
pub fn mean_run_hops<T: Topology + Sync>(topo: &T, runs: &[(usize, usize)]) -> f64 {
    topo.set_mean_hops(runs).unwrap_or_else(|| {
        let nodes: Vec<NodeId> = runs
            .iter()
            .flat_map(|&(start, len)| (start..start + len).map(NodeId))
            .collect();
        mean_pairwise_hops_dense(topo, &nodes)
    })
}

/// Group strictly ascending ids into maximal `(start, len)` runs of
/// consecutive ids; `None` when the ids are unsorted or repeat.
pub fn id_runs(nodes: &[NodeId]) -> Option<Vec<(usize, usize)>> {
    let mut runs: Vec<(usize, usize)> = Vec::new();
    let mut prev: Option<usize> = None;
    for n in nodes {
        let i = n.index();
        match prev {
            Some(p) if i <= p => return None,
            Some(p) if i == p + 1 => runs.last_mut().expect("a run is open").1 += 1,
            _ => runs.push((i, 1)),
        }
        prev = Some(i);
    }
    Some(runs)
}

/// The dense all-pairs walk behind [`mean_pairwise_hops`] — the
/// differential oracle for the closed forms.
///
/// The O(n²) pair scan fans out over the rayon pool, one outer node per
/// task; hop counts accumulate in integers and the per-chunk partials are
/// combined in chunk order, so the result is bit-identical to the
/// sequential scan at every thread count. Score large TofuD sweeps against
/// a [`crate::folded::FoldedTable`] (itself a [`Topology`]) to make each
/// `hops` query two array loads.
pub fn mean_pairwise_hops_dense<T: Topology + Sync>(topo: &T, nodes: &[NodeId]) -> f64 {
    if nodes.len() < 2 {
        return 0.0;
    }
    // Each element routes against every later node, so elements are far
    // heavier than the scalar folds the default reduction grid assumes; an
    // explicit grain (a pure function of the length, keeping determinism)
    // lets even a few-hundred-node allocation use the pool. Integer sums
    // are order-independent, so the result is unchanged.
    let grain = nodes.len().div_ceil(64).max(16);
    let (total, pairs) = (0..nodes.len())
        .into_par_iter()
        .fold(
            || (0u64, 0u64),
            |(mut total, mut pairs), i| {
                let a = nodes[i];
                for &b in &nodes[i + 1..] {
                    total += topo.hops(a, b) as u64;
                    pairs += 1;
                }
                (total, pairs)
            },
        )
        .with_grain(grain)
        .reduce(|| (0, 0), |x, y| (x.0 + y.0, x.1 + y.1));
    total as f64 / pairs as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tofu::TofuD;

    #[test]
    fn contiguous_allocation_is_prefix() {
        let t = TofuD::cte_arm();
        let mut rng = Pcg32::seeded(1);
        let nodes = allocate(&t, 12, Placement::ContiguousBlock, &mut rng);
        assert_eq!(nodes, (0..12).map(NodeId).collect::<Vec<_>>());
    }

    #[test]
    fn random_allocation_is_distinct_and_in_range() {
        let t = TofuD::cte_arm();
        let mut rng = Pcg32::seeded(2);
        let nodes = allocate(&t, 48, Placement::Random, &mut rng);
        assert_eq!(nodes.len(), 48);
        let mut dedup = nodes.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 48, "no duplicates");
        assert!(nodes.iter().all(|n| n.index() < 192));
    }

    #[test]
    fn topology_aware_beats_random_on_hops() {
        let t = TofuD::cte_arm();
        let mut rng = Pcg32::seeded(3);
        let block = allocate(&t, 24, Placement::ContiguousBlock, &mut rng);
        let random = allocate(&t, 24, Placement::Random, &mut rng);
        let hb = mean_pairwise_hops(&t, &block);
        let hr = mean_pairwise_hops(&t, &random);
        assert!(
            hb < hr,
            "contiguous {hb} should beat random {hr} on mean hops"
        );
    }

    #[test]
    fn id_runs_group_consecutive_ids_and_refuse_disorder() {
        let ids = |v: &[usize]| v.iter().copied().map(NodeId).collect::<Vec<_>>();
        assert_eq!(
            id_runs(&ids(&[0, 1, 2, 5, 7, 8])),
            Some(vec![(0, 3), (5, 1), (7, 2)])
        );
        assert_eq!(id_runs(&[]), Some(vec![]));
        assert_eq!(id_runs(&ids(&[3, 2])), None, "unsorted");
        assert_eq!(id_runs(&ids(&[3, 3])), None, "duplicate");
    }

    #[test]
    fn run_hops_match_the_node_list_on_every_path() {
        let t = TofuD::cte_arm();
        let runs = [(0, 5), (40, 12), (150, 3)];
        let nodes: Vec<NodeId> = runs
            .iter()
            .flat_map(|&(s, l)| (s..s + l).map(NodeId))
            .collect();
        let dense = mean_pairwise_hops_dense(&t, &nodes);
        assert_eq!(mean_run_hops(&t, &runs).to_bits(), dense.to_bits());
        assert_eq!(mean_pairwise_hops(&t, &nodes).to_bits(), dense.to_bits());
        // The folded table has no closed form: the runs are expanded.
        let f = crate::folded::FoldedTable::build(&t);
        assert_eq!(mean_run_hops(&f, &runs).to_bits(), dense.to_bits());
    }

    #[test]
    fn mean_hops_of_singleton_is_zero() {
        let t = TofuD::cte_arm();
        assert_eq!(mean_pairwise_hops(&t, &[NodeId(3)]), 0.0);
    }

    #[test]
    #[should_panic(expected = "requested")]
    fn over_allocation_rejected() {
        let t = TofuD::cte_arm();
        let mut rng = Pcg32::seeded(4);
        allocate(&t, 193, Placement::ContiguousBlock, &mut rng);
    }
}
