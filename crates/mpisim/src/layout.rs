//! Rank-to-hardware mapping.

use interconnect::topology::NodeId;
use serde::{Deserialize, Serialize};

/// How a job's MPI ranks are laid out on the allocated nodes.
///
/// Ranks are block-assigned: ranks `[i·rpn, (i+1)·rpn)` live on the `i`-th
/// allocated node — the default behaviour of both Fujitsu MPI and Intel MPI
/// with block mapping.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobLayout {
    /// The allocated nodes, in assignment order.
    pub nodes: Vec<NodeId>,
    /// Ranks per node.
    pub ranks_per_node: usize,
    /// OpenMP threads per rank.
    pub threads_per_rank: usize,
}

impl JobLayout {
    /// Build a layout, validating against oversubscription of nodes with
    /// `cores_per_node` cores.
    ///
    /// # Panics
    /// Panics if the per-node core demand exceeds the node or any count is
    /// zero.
    pub fn new(
        nodes: Vec<NodeId>,
        ranks_per_node: usize,
        threads_per_rank: usize,
        cores_per_node: usize,
    ) -> Self {
        assert!(!nodes.is_empty(), "a job needs at least one node");
        assert!(
            ranks_per_node >= 1 && threads_per_rank >= 1,
            "zero ranks or threads"
        );
        assert!(
            ranks_per_node * threads_per_rank <= cores_per_node,
            "oversubscribed node: {ranks_per_node} ranks × {threads_per_rank} threads > {cores_per_node} cores"
        );
        Self {
            nodes,
            ranks_per_node,
            threads_per_rank,
        }
    }

    /// Total MPI ranks in the job.
    pub fn n_ranks(&self) -> usize {
        self.nodes.len() * self.ranks_per_node
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Cores actually busy on each node.
    pub fn active_cores_per_node(&self) -> usize {
        self.ranks_per_node * self.threads_per_rank
    }

    /// The node hosting a rank.
    pub fn node_of(&self, rank: usize) -> NodeId {
        assert!(rank < self.n_ranks(), "rank {rank} out of range");
        self.nodes[rank / self.ranks_per_node]
    }

    /// Whether two ranks share a node (messages go through shared memory).
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn rank_counting() {
        let l = JobLayout::new(nodes(4), 48, 1, 48);
        assert_eq!(l.n_ranks(), 192);
        assert_eq!(l.n_nodes(), 4);
        assert_eq!(l.active_cores_per_node(), 48);
    }

    #[test]
    fn node_assignment_is_block() {
        let l = JobLayout::new(nodes(3), 4, 12, 48);
        assert_eq!(l.node_of(0), NodeId(0));
        assert_eq!(l.node_of(3), NodeId(0));
        assert_eq!(l.node_of(4), NodeId(1));
        assert_eq!(l.node_of(11), NodeId(2));
        assert!(l.same_node(0, 3));
        assert!(!l.same_node(3, 4));
    }

    #[test]
    #[should_panic(expected = "oversubscribed")]
    fn oversubscription_rejected() {
        JobLayout::new(nodes(1), 5, 12, 48);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rank_bounds_checked() {
        let l = JobLayout::new(nodes(1), 2, 1, 48);
        l.node_of(2);
    }
}
