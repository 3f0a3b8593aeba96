//! The node set a job holds, as runs of consecutive node ids.

use interconnect::placement::id_runs;
use interconnect::topology::NodeId;

/// The nodes of one allocation: ascending, disjoint `(start, len)` runs of
/// consecutive ids plus their total. Best-fit hands out one run; a
/// first-fit fallback hands out one run per free stretch it drains, so a
/// full-Fugaku allocation of thousands of nodes is a few dozen runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Allocation {
    runs: Vec<(usize, usize)>,
    count: usize,
}

impl Allocation {
    /// The allocation holding exactly `ids`.
    ///
    /// # Panics
    /// Panics unless the ids are strictly ascending.
    pub fn from_ids(ids: &[NodeId]) -> Self {
        let runs = id_runs(ids).expect("allocation ids must be strictly ascending");
        Self {
            runs,
            count: ids.len(),
        }
    }

    /// Append a run above every run already held.
    pub(crate) fn push_run(&mut self, start: usize, len: usize) {
        debug_assert!(len > 0, "empty run");
        debug_assert!(
            self.runs.last().is_none_or(|&(s, l)| s + l < start),
            "runs must ascend with a gap between them"
        );
        self.runs.push((start, len));
        self.count += len;
    }

    /// Number of nodes held.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no node is held.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `(start, len)` runs, ascending.
    pub fn runs(&self) -> &[(usize, usize)] {
        &self.runs
    }

    /// Every node held, in ascending order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.runs
            .iter()
            .flat_map(|&(start, len)| (start..start + len).map(NodeId))
    }

    /// Whether `node` is held: a binary search over the runs.
    pub fn contains(&self, node: NodeId) -> bool {
        let i = node.index();
        let k = self.runs.partition_point(|&(start, _)| start <= i);
        k > 0 && {
            let (start, len) = self.runs[k - 1];
            i < start + len
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[usize]) -> Vec<NodeId> {
        v.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn from_ids_groups_runs_and_round_trips() {
        let a = Allocation::from_ids(&ids(&[3, 4, 5, 9, 11, 12]));
        assert_eq!(a.runs(), &[(3, 3), (9, 1), (11, 2)]);
        assert_eq!(a.len(), 6);
        assert!(!a.is_empty());
        assert_eq!(a.nodes().collect::<Vec<_>>(), ids(&[3, 4, 5, 9, 11, 12]));
        assert!(Allocation::from_ids(&[]).is_empty());
        assert_eq!(Allocation::default(), Allocation::from_ids(&[]));
    }

    #[test]
    fn contains_searches_the_runs() {
        let a = Allocation::from_ids(&ids(&[3, 4, 5, 9, 11, 12]));
        for i in 0..16 {
            let want = [3, 4, 5, 9, 11, 12].contains(&i);
            assert_eq!(a.contains(NodeId(i)), want, "node {i}");
        }
        assert!(!Allocation::default().contains(NodeId(0)));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_ids_are_refused() {
        Allocation::from_ids(&ids(&[4, 3]));
    }
}
