//! The original scan-based allocator, retained as a differential oracle.
//!
//! [`OracleAllocator`] is the pre-run-index implementation of
//! [`crate::Allocator`]: every query rescans the `Vec<bool>` occupancy
//! arrays and picks a node list, converted once into an [`Allocation`] on
//! the way out. It is O(n) per call — unusable at full-Fugaku replay
//! scale, which is exactly why it makes a trustworthy oracle: the
//! equivalence battery (`tests/sched_equivalence.rs`) replays identical
//! workloads through both allocators and demands identical node picks,
//! RNG streams, stats, and requeue behaviour on every [`AllocationPolicy`].

use crate::allocation::Allocation;
use crate::allocator::{AllocationPolicy, NodePool};
use interconnect::placement::mean_pairwise_hops;
use interconnect::topology::{NodeId, Topology};
use simkit::rng::Pcg32;

/// Tracks node occupancy by full scan — the retained reference
/// implementation of [`crate::Allocator`].
pub struct OracleAllocator<T: Topology> {
    topo: T,
    free: Vec<bool>,
    /// Hard-failed (drained) nodes: never eligible for allocation, even
    /// when free. `free` keeps tracking occupancy independently so a node
    /// that fails mid-job is still released exactly once.
    failed: Vec<bool>,
    policy: AllocationPolicy,
    rng: Pcg32,
}

impl<T: Topology> OracleAllocator<T> {
    /// An empty cluster under a policy.
    pub fn new(topo: T, policy: AllocationPolicy, seed: u64) -> Self {
        let n = topo.nodes();
        Self {
            topo,
            free: vec![true; n],
            failed: vec![false; n],
            policy,
            rng: Pcg32::seeded(seed),
        }
    }

    /// Whether a node may be handed out: free and not drained.
    fn eligible(&self, i: usize) -> bool {
        self.free[i] && !self.failed[i]
    }

    /// Nodes currently allocatable (free and not failed), by full scan.
    pub fn free_count(&self) -> usize {
        (0..self.free.len()).filter(|&i| self.eligible(i)).count()
    }

    /// Drain a node after a hard failure. Returns `true` when the node was
    /// allocated at the time.
    pub fn fail_node(&mut self, node: NodeId) -> bool {
        let i = node.index();
        assert!(i < self.failed.len(), "node out of range");
        self.failed[i] = true;
        !self.free[i]
    }

    /// Nodes still alive (not drained), allocated or free, by full scan.
    pub fn alive_count(&self) -> usize {
        self.failed.iter().filter(|&&f| !f).count()
    }

    /// The topology.
    pub fn topology(&self) -> &T {
        &self.topo
    }

    /// Try to allocate `count` nodes; `None` if not enough are free.
    pub fn allocate(&mut self, count: usize) -> Option<Allocation> {
        assert!(count >= 1, "zero-node allocation");
        if self.free_count() < count {
            return None;
        }
        let picked = match self.policy {
            AllocationPolicy::BestFitContiguous => self.best_fit(count),
            AllocationPolicy::FirstFit => self.first_fit(count),
            AllocationPolicy::Random => self.random_fit(count),
        };
        for n in &picked {
            debug_assert!(self.free[n.index()], "double allocation");
            self.free[n.index()] = false;
        }
        Some(Allocation::from_ids(&picked))
    }

    /// Return an allocation's nodes to the free pool.
    pub fn release(&mut self, allocation: &Allocation) {
        for n in allocation.nodes() {
            assert!(!self.free[n.index()], "releasing a free node");
            self.free[n.index()] = true;
        }
    }

    fn first_fit(&self, count: usize) -> Vec<NodeId> {
        (0..self.free.len())
            .filter(|&i| self.eligible(i))
            .take(count)
            .map(NodeId)
            .collect()
    }

    /// Smallest free *run* of consecutive ids that fits; falls back to
    /// first-fit when no single run is large enough.
    fn best_fit(&self, count: usize) -> Vec<NodeId> {
        let n = self.free.len();
        let mut best: Option<(usize, usize)> = None; // (start, len)
        let mut i = 0;
        while i < n {
            if self.eligible(i) {
                let start = i;
                while i < n && self.eligible(i) {
                    i += 1;
                }
                let len = i - start;
                if len >= count {
                    let better = match best {
                        None => true,
                        Some((_, blen)) => len < blen,
                    };
                    if better {
                        best = Some((start, len));
                    }
                }
            } else {
                i += 1;
            }
        }
        match best {
            Some((start, _)) => (start..start + count).map(NodeId).collect(),
            None => self.first_fit(count),
        }
    }

    fn random_fit(&mut self, count: usize) -> Vec<NodeId> {
        let mut free: Vec<usize> = (0..self.free.len()).filter(|&i| self.eligible(i)).collect();
        self.rng.shuffle(&mut free);
        let mut picked: Vec<usize> = free.into_iter().take(count).collect();
        picked.sort_unstable();
        picked.into_iter().map(NodeId).collect()
    }

    /// Compactness of an allocation: mean pairwise hop distance of its
    /// node list.
    pub fn compactness(&self, allocation: &Allocation) -> f64
    where
        T: Sync,
    {
        let nodes: Vec<NodeId> = allocation.nodes().collect();
        mean_pairwise_hops(&self.topo, &nodes)
    }

    /// Fragmentation of the free pool: 1 − (largest free run / free count).
    pub fn fragmentation(&self) -> f64 {
        let free_total = self.free_count();
        if free_total == 0 {
            return 0.0;
        }
        let mut largest = 0usize;
        let mut run = 0usize;
        for i in 0..self.free.len() {
            if self.eligible(i) {
                run += 1;
                largest = largest.max(run);
            } else {
                run = 0;
            }
        }
        1.0 - largest as f64 / free_total as f64
    }
}

impl<T: Topology + Sync> NodePool for OracleAllocator<T> {
    type Topo = T;

    fn topology(&self) -> &T {
        OracleAllocator::topology(self)
    }

    fn free_count(&self) -> usize {
        OracleAllocator::free_count(self)
    }

    fn alive_count(&self) -> usize {
        OracleAllocator::alive_count(self)
    }

    fn fail_node(&mut self, node: NodeId) -> bool {
        OracleAllocator::fail_node(self, node)
    }

    fn allocate(&mut self, count: usize) -> Option<Allocation> {
        OracleAllocator::allocate(self, count)
    }

    fn release(&mut self, allocation: &Allocation) {
        OracleAllocator::release(self, allocation)
    }

    fn compactness(&self, allocation: &Allocation) -> f64 {
        OracleAllocator::compactness(self, allocation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::Allocator;
    use interconnect::tofu::TofuD;
    use simkit::rng::Pcg32;

    /// A randomized allocate/release/fail trace drives both allocators and
    /// demands identical picks and occupancy views at every step — the
    /// crate-level seed of the full battery in `tests/sched_equivalence.rs`.
    #[test]
    fn differential_trace_matches_the_run_indexed_allocator() {
        for policy in [
            AllocationPolicy::BestFitContiguous,
            AllocationPolicy::FirstFit,
            AllocationPolicy::Random,
        ] {
            let mut oracle = OracleAllocator::new(TofuD::cte_arm(), policy, 9);
            let mut fast = Allocator::new(TofuD::cte_arm(), policy, 9);
            let mut live: Vec<Allocation> = Vec::new();
            let mut rng = Pcg32::seeded(1234);
            for step in 0..600 {
                match rng.next_below(10) {
                    0..=5 => {
                        let want = 1 + rng.next_below(48) as usize;
                        let a = oracle.allocate(want);
                        let b = fast.allocate(want);
                        assert_eq!(a, b, "{policy:?} step {step}: picks diverged");
                        if let Some(nodes) = a {
                            live.push(nodes);
                        }
                    }
                    6..=8 => {
                        if !live.is_empty() {
                            let k = rng.next_below(live.len() as u32) as usize;
                            let nodes = live.swap_remove(k);
                            oracle.release(&nodes);
                            fast.release(&nodes);
                        }
                    }
                    _ => {
                        let node = NodeId(rng.next_below(192) as usize);
                        assert_eq!(oracle.fail_node(node), fast.fail_node(node));
                    }
                }
                assert_eq!(
                    oracle.free_count(),
                    fast.free_count(),
                    "{policy:?} step {step}"
                );
                assert_eq!(oracle.alive_count(), fast.alive_count());
                assert_eq!(
                    oracle.fragmentation().to_bits(),
                    fast.fragmentation().to_bits(),
                    "{policy:?} step {step}: fragmentation diverged"
                );
            }
        }
    }
}
