//! Node allocation over the torus.
//!
//! The production [`Allocator`] hands out and takes back [`Allocation`]s,
//! runs of consecutive node ids, and never works node by node. Its free
//! pool is an incremental **run index**: boundary-tag arrays record each
//! maximal eligible-id run's length at its first and last id
//! (malloc-style, so coalescing on release is O(1) per run), and a
//! best-fit index keeps runs of up to 64 ids in exact-length bins (O(1)
//! insert and remove, a `u64` mask finds the smallest non-empty length)
//! and longer runs in an ordered set. Occupancy, drains and eligibility
//! are bitmaps updated with word masks once per run, and a summary bitmap
//! (one bit per non-empty eligibility word) lets first-fit skip allocated
//! stretches 4,096 ids at a time. Free/failed populations are incremental
//! counters (debug-asserted against the bitmaps), so a full-Fugaku
//! allocate/release cycle costs O(runs) plus O(log n) for long runs. The
//! original scan-based allocator is retained verbatim as
//! [`crate::allocator_oracle::OracleAllocator`]; differential tests pin
//! the two to *identical node picks* on every policy.

use crate::allocation::Allocation;
use interconnect::placement::mean_run_hops;
use interconnect::topology::{NodeId, Topology};
use simkit::rng::Pcg32;
use std::collections::BTreeSet;

/// How free nodes are chosen for a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationPolicy {
    /// Smallest contiguous run of free node ids that fits (node ids are
    /// torus-curve ordered, so contiguity ≈ compactness) — the
    /// topology-aware behaviour of the Fujitsu scheduler.
    BestFitContiguous,
    /// First free nodes in id order, skipping holes (ignores topology).
    FirstFit,
    /// Uniformly random free nodes (fragmented worst case).
    Random,
}

/// The allocator surface the [`crate::Scheduler`] drives — implemented by
/// the run-indexed [`Allocator`] and by the retained scan-based
/// [`crate::allocator_oracle::OracleAllocator`], so differential tests can
/// replay one workload through both and demand identical picks and stats.
pub trait NodePool {
    /// The topology nodes are drawn from.
    type Topo: Topology;

    /// The topology.
    fn topology(&self) -> &Self::Topo;

    /// Nodes currently allocatable (free and not failed).
    fn free_count(&self) -> usize;

    /// Nodes still alive (not drained), allocated or free.
    fn alive_count(&self) -> usize;

    /// Drain a node after a hard failure. Returns `true` when the node was
    /// allocated at the time (the scheduler must kill the holding job).
    fn fail_node(&mut self, node: NodeId) -> bool;

    /// Try to allocate `count` nodes; `None` if not enough are eligible.
    fn allocate(&mut self, count: usize) -> Option<Allocation>;

    /// Return an allocation's nodes to the free pool.
    fn release(&mut self, allocation: &Allocation);

    /// Compactness of an allocation: mean pairwise hop distance.
    fn compactness(&self, allocation: &Allocation) -> f64;
}

/// Longest run the best-fit index keeps in an exact-length bin; at most
/// 64, one bit of the `u64` non-empty mask per length.
const SMALL: usize = 64;

/// The free runs by length, for best-fit: the smallest run that fits,
/// the lowest start among equals — exactly the oracle's left-to-right
/// scan order.
struct RunIndex {
    /// `bins[l - 1]`: starts of the runs of length `l ≤ SMALL`, unordered.
    bins: Vec<Vec<u32>>,
    /// `slot[s]`: position of short-run start `s` in its bin.
    slot: Vec<u32>,
    /// Bit `l - 1` set ⟺ `bins[l - 1]` is non-empty.
    nonempty: u64,
    /// Runs longer than `SMALL`, keyed `len << 32 | start`.
    long: BTreeSet<u64>,
}

impl RunIndex {
    fn new(n: usize) -> Self {
        Self {
            bins: vec![Vec::new(); SMALL],
            slot: vec![0; n],
            nonempty: 0,
            long: BTreeSet::new(),
        }
    }

    fn insert(&mut self, start: usize, len: usize) {
        if len > SMALL {
            self.long.insert(((len as u64) << 32) | start as u64);
            return;
        }
        let bin = &mut self.bins[len - 1];
        self.slot[start] = bin.len() as u32;
        bin.push(start as u32);
        self.nonempty |= 1 << (len - 1);
    }

    fn remove(&mut self, start: usize, len: usize) {
        if len > SMALL {
            let was_present = self.long.remove(&(((len as u64) << 32) | start as u64));
            debug_assert!(was_present, "length index out of sync");
            return;
        }
        let bin = &mut self.bins[len - 1];
        let k = self.slot[start] as usize;
        debug_assert_eq!(bin[k] as usize, start, "length bin out of sync");
        bin.swap_remove(k);
        if let Some(&moved) = bin.get(k) {
            self.slot[moved as usize] = k as u32;
        }
        if bin.is_empty() {
            self.nonempty &= !(1 << (len - 1));
        }
    }

    /// `(start, len)` of the smallest run of at least `count` ids, the
    /// lowest start among runs of that length.
    fn best(&self, count: usize) -> Option<(usize, usize)> {
        if count <= SMALL {
            let fits = self.nonempty & (!0u64 << (count - 1));
            if fits != 0 {
                let len = fits.trailing_zeros() as usize + 1;
                let start = *self.bins[len - 1].iter().min().expect("non-empty bin");
                return Some((start as usize, len));
            }
        }
        let key = *self.long.range((count as u64) << 32..).next()?;
        Some(((key & u64::from(u32::MAX)) as usize, (key >> 32) as usize))
    }

    /// Length of the longest run, 0 when there is none.
    fn longest(&self) -> usize {
        match self.long.last() {
            Some(&key) => (key >> 32) as usize,
            None => (u64::BITS - self.nonempty.leading_zeros()) as usize,
        }
    }
}

/// Call `f(w, mask)` for every bitmap word `w` that `[start, end)`
/// touches, `mask` selecting the range's bits in it.
fn word_masks(start: usize, end: usize, mut f: impl FnMut(usize, u64)) {
    debug_assert!(start < end, "empty id range");
    let (ws, we) = (start / 64, (end - 1) / 64);
    let lo = !0u64 << (start % 64);
    let hi = !0u64 >> (63 - (end - 1) % 64);
    if ws == we {
        f(ws, lo & hi);
    } else {
        f(ws, lo);
        for w in ws + 1..we {
            f(w, !0);
        }
        f(we, hi);
    }
}

fn get_bit(bits: &[u64], i: usize) -> bool {
    bits[i / 64] & (1 << (i % 64)) != 0
}

/// Tracks node occupancy and hands out allocations.
pub struct Allocator<T: Topology> {
    topo: T,
    policy: AllocationPolicy,
    rng: Pcg32,
    /// Occupancy bitmap: bit `i` set ⟺ node `i` is allocated. Kept apart
    /// from `drained`, so a node that fails mid-job is still released
    /// exactly once.
    busy: Vec<u64>,
    /// Hard-failed (drained) nodes: never eligible for allocation, even
    /// when free.
    drained: Vec<u64>,
    /// Eligibility bitmap: bit `i` set ⟺ node `i` is neither busy nor
    /// drained. Gives first-fit and the random policy their ascending id
    /// walks 64 ids per word, and locates the run containing an interior
    /// id without a search tree.
    words: Vec<u64>,
    /// Bit `w` set ⟺ `words[w] != 0`: first-fit skips 64 empty words at
    /// a time.
    summary: Vec<u64>,
    /// Boundary tag: `len_at_start[s]` is the length of the maximal
    /// eligible run starting at `s`, 0 when `s` starts no run.
    len_at_start: Vec<u32>,
    /// Boundary tag: `len_at_end[e]` is the length of the maximal eligible
    /// run whose *last* id is `e`, 0 otherwise. Lets release coalesce with
    /// the left neighbour in O(1).
    len_at_end: Vec<u32>,
    /// The runs by length, for best-fit.
    index: RunIndex,
    /// Incremental |eligible|, kept in lock-step by allocate/release/fail.
    eligible_count: usize,
    /// Incremental |not failed|.
    alive: usize,
}

impl<T: Topology> Allocator<T> {
    /// An empty cluster under a policy.
    ///
    /// # Panics
    /// Panics if the topology has 2³² nodes or more.
    pub fn new(topo: T, policy: AllocationPolicy, seed: u64) -> Self {
        let n = topo.nodes();
        assert!(n < 1 << 32, "{n} nodes overflow the run index's u32 ids");
        let mut words = vec![!0u64; n.div_ceil(64)];
        if !n.is_multiple_of(64) {
            *words.last_mut().expect("n >= 1") = (1u64 << (n % 64)) - 1;
        }
        let mut summary = vec![0u64; words.len().div_ceil(64)];
        word_masks(0, words.len(), |w, m| summary[w] |= m);
        let mut a = Self {
            topo,
            policy,
            rng: Pcg32::seeded(seed),
            busy: vec![0; words.len()],
            drained: vec![0; words.len()],
            words,
            summary,
            len_at_start: vec![0; n],
            len_at_end: vec![0; n],
            index: RunIndex::new(n),
            eligible_count: n,
            alive: n,
        };
        a.insert_run(0, n);
        a
    }

    /// Number of nodes in the cluster.
    fn n(&self) -> usize {
        self.len_at_start.len()
    }

    /// Clear eligible id `i`'s bit, and its summary bit if its word empties.
    fn clear_bit(&mut self, i: usize) {
        let w = i / 64;
        self.words[w] &= !(1u64 << (i % 64));
        if self.words[w] == 0 {
            self.summary[w / 64] &= !(1u64 << (w % 64));
        }
    }

    /// Mark `[start, end)` allocated: set its busy bits, clear its
    /// eligibility bits, and drop the summary bits of emptied words.
    fn occupy(&mut self, start: usize, end: usize) {
        let (busy, words, summary) = (&mut self.busy, &mut self.words, &mut self.summary);
        word_masks(start, end, |w, m| {
            debug_assert_eq!(busy[w] & m, 0, "double allocation");
            busy[w] |= m;
            words[w] &= !m;
            if words[w] == 0 {
                summary[w / 64] &= !(1u64 << (w % 64));
            }
        });
    }

    /// Make the drain-free stretch `[start, end)` eligible again: set its
    /// bits and their words' summary bits, and coalesce it into the run
    /// index.
    fn add_stretch(&mut self, start: usize, end: usize) {
        let words = &mut self.words;
        word_masks(start, end, |w, m| words[w] |= m);
        let summary = &mut self.summary;
        word_masks(start / 64, (end - 1) / 64 + 1, |w, m| summary[w] |= m);
        self.coalesce_stretch(start, end);
        self.eligible_count += end - start;
    }

    /// First eligible id at or after `from`, which by the run invariant is
    /// always a run *start* when `from` sits at or past the previous run's
    /// end. `None` when no eligible id remains.
    fn next_run_start(&self, from: usize) -> Option<usize> {
        let w = from / 64;
        let word = *self.words.get(w)? & (!0u64 << (from % 64));
        if word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
        // The rest of the walk reads the summary: one bit per word.
        let next = w + 1;
        let mut s = next / 64;
        let mut bits = *self.summary.get(s)? & (!0u64 << (next % 64));
        loop {
            if bits != 0 {
                let w = s * 64 + bits.trailing_zeros() as usize;
                return Some(w * 64 + self.words[w].trailing_zeros() as usize);
            }
            s += 1;
            bits = *self.summary.get(s)?;
        }
    }

    /// Start of the run containing eligible id `i`: one past the nearest
    /// zero bit below `i`. O(gap/64) bitmap words, no search tree.
    fn run_start_containing(&self, i: usize) -> usize {
        let mut w = i / 64;
        let mut inv = !self.words[w] & ((1u64 << (i % 64)) - 1);
        loop {
            if inv != 0 {
                return w * 64 + 64 - inv.leading_zeros() as usize;
            }
            if w == 0 {
                return 0;
            }
            w -= 1;
            inv = !self.words[w];
        }
    }

    /// First drained id in `[from, end)`, or `end` when there is none.
    fn next_drained(&self, from: usize, end: usize) -> usize {
        let mut w = from / 64;
        let mut word = self.drained[w] & (!0u64 << (from % 64));
        while word == 0 {
            w += 1;
            if w * 64 >= end {
                return end;
            }
            word = self.drained[w];
        }
        end.min(w * 64 + word.trailing_zeros() as usize)
    }

    /// Recount the eligible nodes from the occupancy and drain bitmaps,
    /// checking the eligibility bitmap and its summary word by word.
    fn scan_eligible(&self) -> usize {
        let n = self.n();
        let mut count = 0;
        for (w, &word) in self.words.iter().enumerate() {
            let valid = if (w + 1) * 64 > n {
                (1u64 << (n % 64)) - 1
            } else {
                !0
            };
            let eligible = !self.busy[w] & !self.drained[w] & valid;
            assert_eq!(word, eligible, "eligibility bitmap drifted at word {w}");
            assert_eq!(get_bit(&self.summary, w), word != 0, "summary drifted");
            count += eligible.count_ones() as usize;
        }
        count
    }

    /// Nodes currently allocatable (free and not failed). O(1): the count
    /// is maintained incrementally and debug-asserted against the bitmaps.
    pub fn free_count(&self) -> usize {
        debug_assert_eq!(
            self.eligible_count,
            self.scan_eligible(),
            "incremental eligible counter drifted from the scan"
        );
        self.eligible_count
    }

    /// Drain a node after a hard failure: it immediately stops being
    /// allocatable. Returns `true` when the node was allocated at the time
    /// (the scheduler must kill and requeue whatever job holds it).
    pub fn fail_node(&mut self, node: NodeId) -> bool {
        let i = node.index();
        assert!(i < self.n(), "node out of range");
        let busy = get_bit(&self.busy, i);
        if !get_bit(&self.drained, i) {
            self.drained[i / 64] |= 1 << (i % 64);
            self.alive -= 1;
            if !busy {
                self.split_out_of_runs(i);
                self.eligible_count -= 1;
            }
        }
        busy
    }

    /// Whether a node has been drained by [`Allocator::fail_node`].
    pub fn is_failed(&self, node: NodeId) -> bool {
        get_bit(&self.drained, node.index())
    }

    /// Nodes still alive (not drained), allocated or free. O(1).
    pub fn alive_count(&self) -> usize {
        debug_assert_eq!(
            self.alive,
            self.n()
                - self
                    .drained
                    .iter()
                    .map(|w| w.count_ones() as usize)
                    .sum::<usize>(),
            "incremental alive counter drifted from the scan"
        );
        self.alive
    }

    /// The topology.
    pub fn topology(&self) -> &T {
        &self.topo
    }

    /// The paper's usability restriction: users cannot pin specific nodes.
    /// Always refused, mirroring CTE-Arm's production configuration.
    pub fn allocate_specific(&mut self, _nodes: &[NodeId]) -> Result<Allocation, &'static str> {
        Err("the scheduler does not allow allocating specific nodes")
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
        for &(start, len) in picked.runs() {
            self.occupy(start, start + len);
        }
        self.eligible_count -= picked.len();
        Some(picked)
    }

    /// Return an allocation's nodes to the free pool. Each run re-enters
    /// the index as one coalesced stretch: its interior cannot border an
    /// existing run (those ids were allocated). Drained nodes split a run;
    /// the scan for them is skipped while no node has failed.
    pub fn release(&mut self, allocation: &Allocation) {
        for &(start, len) in allocation.runs() {
            let end = start + len;
            assert!(end <= self.n(), "node out of range");
            let busy = &mut self.busy;
            word_masks(start, end, |w, m| {
                assert!(busy[w] & m == m, "releasing a free node");
                busy[w] &= !m;
            });
            if self.alive == self.n() {
                self.add_stretch(start, end);
                continue;
            }
            let mut pos = start;
            while pos < end {
                let stop = self.next_drained(pos, end);
                if stop > pos {
                    self.add_stretch(pos, stop);
                }
                pos = stop + 1;
            }
        }
    }

    /// First eligible ids in ascending order, consumed off the front of
    /// each run. Walks run starts through the bitmap and its summary, so
    /// each consumed run costs one short word-scan hop plus its index
    /// updates.
    fn first_fit(&mut self, count: usize) -> Allocation {
        let mut picked = Allocation::default();
        let mut need = count;
        let mut cursor = 0usize;
        while need > 0 {
            let start = self
                .next_run_start(cursor)
                .expect("free_count admitted an unfillable request");
            let len = self.len_at_start[start] as usize;
            debug_assert!(len > 0, "bitmap walk landed off a run boundary");
            let take = need.min(len);
            picked.push_run(start, take);
            self.remove_run(start, len);
            self.insert_run(start + take, len - take);
            need -= take;
            cursor = start + len;
        }
        picked
    }

    /// Smallest free *run* of consecutive ids that fits; falls back to
    /// first-fit when no single run is large enough. O(1) for runs of up
    /// to 64 ids, O(log n) above.
    fn best_fit(&mut self, count: usize) -> Allocation {
        let Some((start, len)) = self.index.best(count) else {
            return self.first_fit(count);
        };
        self.remove_run(start, len);
        self.insert_run(start + count, len - count);
        let mut picked = Allocation::default();
        picked.push_run(start, count);
        picked
    }

    /// Uniformly random eligible nodes. Materializes the same ascending
    /// eligible list and runs the same Fisher–Yates draws as the oracle,
    /// so both the picks and the RNG stream stay stream-identical.
    fn random_fit(&mut self, count: usize) -> Allocation {
        let mut free: Vec<usize> = Vec::with_capacity(self.eligible_count);
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                free.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        self.rng.shuffle(&mut free);
        let mut picked: Vec<usize> = free.into_iter().take(count).collect();
        picked.sort_unstable();
        for &i in &picked {
            self.split_out_of_runs(i);
        }
        let ids: Vec<NodeId> = picked.into_iter().map(NodeId).collect();
        Allocation::from_ids(&ids)
    }

    /// Compactness of an allocation: mean pairwise hop distance of its
    /// runs. (`Sync` because the dense-walk fallback fans out over the
    /// rayon pool; TofuD answers through the closed-form histogram fold.)
    pub fn compactness(&self, allocation: &Allocation) -> f64
    where
        T: Sync,
    {
        mean_run_hops(&self.topo, allocation.runs())
    }

    /// Fragmentation of the free pool: 1 − (largest free run / free count).
    /// 0 when all free nodes are one run; → 1 when fully scattered. O(1)
    /// from the run index.
    pub fn fragmentation(&self) -> f64 {
        if self.eligible_count == 0 {
            return 0.0;
        }
        1.0 - self.index.longest() as f64 / self.eligible_count as f64
    }

    fn insert_run(&mut self, start: usize, len: usize) {
        if len == 0 {
            return;
        }
        debug_assert_eq!(self.len_at_start[start], 0, "overlapping runs");
        debug_assert_eq!(self.len_at_end[start + len - 1], 0, "overlapping runs");
        self.len_at_start[start] = len as u32;
        self.len_at_end[start + len - 1] = len as u32;
        self.index.insert(start, len);
    }

    fn remove_run(&mut self, start: usize, len: usize) {
        debug_assert_eq!(
            self.len_at_start[start] as usize, len,
            "run index out of sync"
        );
        self.len_at_start[start] = 0;
        self.len_at_end[start + len - 1] = 0;
        self.index.remove(start, len);
    }

    /// Remove a single (eligible) node from the run containing it,
    /// splitting the run in two. Clears the node's bitmap bit, so repeated
    /// splits (the random policy, failure drains) stay consistent.
    fn split_out_of_runs(&mut self, i: usize) {
        let start = self.run_start_containing(i);
        let len = self.len_at_start[start] as usize;
        debug_assert!(len > 0 && i < start + len, "node missing from its run");
        self.remove_run(start, len);
        self.insert_run(start, i - start);
        self.insert_run(i + 1, start + len - i - 1);
        self.clear_bit(i);
    }

    /// Add the stretch `[start, end)` back, coalescing with the runs
    /// bordering it on either side — O(1) via the boundary tags.
    fn coalesce_stretch(&mut self, mut start: usize, end: usize) {
        let mut len = end - start;
        if start > 0 {
            let l = self.len_at_end[start - 1] as usize;
            if l > 0 {
                self.remove_run(start - l, l);
                start -= l;
                len += l;
            }
        }
        if end < self.len_at_start.len() {
            let r = self.len_at_start[end] as usize;
            if r > 0 {
                self.remove_run(end, r);
                len += r;
            }
        }
        self.insert_run(start, len);
    }
}

impl<T: Topology + Sync> NodePool for Allocator<T> {
    type Topo = T;

    fn topology(&self) -> &T {
        Allocator::topology(self)
    }

    fn free_count(&self) -> usize {
        Allocator::free_count(self)
    }

    fn alive_count(&self) -> usize {
        Allocator::alive_count(self)
    }

    fn fail_node(&mut self, node: NodeId) -> bool {
        Allocator::fail_node(self, node)
    }

    fn allocate(&mut self, count: usize) -> Option<Allocation> {
        Allocator::allocate(self, count)
    }

    fn release(&mut self, allocation: &Allocation) {
        Allocator::release(self, allocation)
    }

    fn compactness(&self, allocation: &Allocation) -> f64 {
        Allocator::compactness(self, allocation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interconnect::tofu::TofuD;

    fn alloc(policy: AllocationPolicy) -> Allocator<TofuD> {
        Allocator::new(TofuD::cte_arm(), policy, 42)
    }

    #[test]
    fn empty_cluster_is_all_free() {
        let a = alloc(AllocationPolicy::BestFitContiguous);
        assert_eq!(a.free_count(), 192);
        assert_eq!(a.fragmentation(), 0.0);
    }

    #[test]
    fn allocate_and_release_roundtrip() {
        let mut a = alloc(AllocationPolicy::FirstFit);
        let nodes = a.allocate(48).expect("fits");
        assert_eq!(nodes.len(), 48);
        assert_eq!(a.free_count(), 144);
        a.release(&nodes);
        assert_eq!(a.free_count(), 192);
    }

    #[test]
    fn over_allocation_returns_none() {
        let mut a = alloc(AllocationPolicy::FirstFit);
        assert!(a.allocate(193).is_none());
        let _ = a.allocate(100).unwrap();
        assert!(a.allocate(93).is_none());
        assert!(a.allocate(92).is_some());
    }

    #[test]
    fn specific_node_requests_are_refused() {
        // The paper's Section-VI complaint, as behaviour.
        let mut a = alloc(AllocationPolicy::BestFitContiguous);
        let err = a.allocate_specific(&[NodeId(0), NodeId(5)]).unwrap_err();
        assert!(err.contains("does not allow"));
    }

    #[test]
    fn best_fit_prefers_the_smallest_hole() {
        let mut a = alloc(AllocationPolicy::BestFitContiguous);
        // Carve the cluster into a 12-node hole and a large tail:
        // allocate 0..50, free 20..32 (12-node hole).
        let first = a.allocate(50).unwrap();
        let hole: Vec<NodeId> = (20..32).map(NodeId).collect();
        a.release(&Allocation::from_ids(&hole));
        let _ = first;
        // A 12-node job should land exactly in the hole, not the tail.
        let got: Vec<NodeId> = a.allocate(12).unwrap().nodes().collect();
        assert_eq!(got, hole, "best fit picks the snug hole");
    }

    #[test]
    fn best_fit_breaks_length_ties_towards_low_ids() {
        let mut a = alloc(AllocationPolicy::BestFitContiguous);
        let all: Vec<NodeId> = a.allocate(192).unwrap().nodes().collect();
        // Two equal 8-node holes at 40 and 120: the lower one must win,
        // like the oracle's left-to-right scan.
        a.release(&Allocation::from_ids(&all[40..48]));
        a.release(&Allocation::from_ids(&all[120..128]));
        let got = a.allocate(8).unwrap();
        assert_eq!(got.runs()[0].0, 40, "tie resolves to the lowest start");
    }

    #[test]
    fn release_coalesces_adjacent_runs() {
        let mut a = alloc(AllocationPolicy::BestFitContiguous);
        let all: Vec<NodeId> = a.allocate(192).unwrap().nodes().collect();
        // Release three touching fragments out of order; they must fuse
        // into one 30-node run a single 30-node job can take.
        a.release(&Allocation::from_ids(&all[10..20]));
        a.release(&Allocation::from_ids(&all[30..40]));
        a.release(&Allocation::from_ids(&all[20..30]));
        assert_eq!(a.free_count(), 30);
        assert_eq!(a.fragmentation(), 0.0, "one fused run");
        let got: Vec<NodeId> = a.allocate(30).unwrap().nodes().collect();
        assert_eq!(got, (10..40).map(NodeId).collect::<Vec<_>>());
    }

    #[test]
    fn contiguous_beats_random_on_compactness() {
        let mut c = alloc(AllocationPolicy::BestFitContiguous);
        let mut r = alloc(AllocationPolicy::Random);
        let nc = c.allocate(24).unwrap();
        let nr = r.allocate(24).unwrap();
        assert!(c.compactness(&nc) < r.compactness(&nr));
    }

    #[test]
    fn fragmentation_rises_with_scattered_frees() {
        let mut a = alloc(AllocationPolicy::FirstFit);
        let all = a.allocate(192).unwrap();
        // Free every third node: heavily fragmented pool.
        let scattered: Vec<NodeId> = all.nodes().step_by(3).collect();
        a.release(&Allocation::from_ids(&scattered));
        assert!(a.fragmentation() > 0.9, "frag {}", a.fragmentation());
    }

    #[test]
    fn failed_nodes_are_drained_from_every_policy() {
        for policy in [
            AllocationPolicy::BestFitContiguous,
            AllocationPolicy::FirstFit,
            AllocationPolicy::Random,
        ] {
            let mut a = alloc(policy);
            assert!(!a.fail_node(NodeId(0)), "free node: no kill needed");
            assert!(a.is_failed(NodeId(0)));
            assert_eq!(a.free_count(), 191);
            assert_eq!(a.alive_count(), 191);
            let got = a.allocate(191).expect("all live nodes fit");
            assert!(
                !got.contains(NodeId(0)),
                "{policy:?} must never hand out a failed node"
            );
            assert!(a.allocate(1).is_none(), "only the dead node remains");
        }
    }

    #[test]
    fn failing_an_allocated_node_reports_the_kill() {
        let mut a = alloc(AllocationPolicy::FirstFit);
        let nodes = a.allocate(4).expect("fits");
        let third = nodes.nodes().nth(2).expect("four nodes");
        assert!(a.fail_node(third), "node was allocated: job must die");
        // The release path still works once, and the node stays drained.
        a.release(&nodes);
        assert_eq!(a.free_count(), 191);
        assert_eq!(a.alive_count(), 191);
    }

    #[test]
    fn double_fail_keeps_counters_stable() {
        let mut a = alloc(AllocationPolicy::FirstFit);
        assert!(!a.fail_node(NodeId(9)));
        assert!(!a.fail_node(NodeId(9)), "idempotent drain");
        assert_eq!(a.free_count(), 191);
        assert_eq!(a.alive_count(), 191);
    }

    #[test]
    fn fragmentation_ignores_failed_nodes() {
        let mut a = alloc(AllocationPolicy::FirstFit);
        // One dead node in the middle splits the free run, but the metric
        // tracks *allocatable* space.
        let _ = a.fail_node(NodeId(96));
        assert!(a.fragmentation() > 0.0, "dead node splits the run");
        assert_eq!(a.free_count(), 191);
    }

    #[test]
    #[should_panic(expected = "releasing a free node")]
    fn double_release_detected() {
        let mut a = alloc(AllocationPolicy::FirstFit);
        let nodes = a.allocate(4).unwrap();
        a.release(&nodes);
        a.release(&nodes);
    }
}
