//! The [`Job`] execution context: runs SPMD programs on virtual clocks.

use crate::collectives::{self, CollectiveAlgo};
use crate::faults::JobFaults;
use crate::layout::JobLayout;
use crate::trace::{Activity, Trace};
use arch::compiler::Compiler;
use arch::cost::{CostModel, KernelProfile};
use arch::machines::Machine;
use interconnect::network::{Network, PathCost};
use interconnect::topology::{NodeId, Topology};
use simkit::rng::Pcg32;
use simkit::time::VirtualClock;
use simkit::units::{Bandwidth, Bytes, Time};
use std::collections::HashMap;

/// A posted, not-yet-completed neighbour exchange (see
/// [`Job::post_neighbor_exchange`]).
#[must_use = "a posted exchange must be completed with wait_halo"]
pub struct PendingHalo {
    completion: Vec<Time>,
}

/// A running MPI job on a simulated cluster.
///
/// Each rank owns a [`VirtualClock`]. Compute steps advance individual
/// clocks (with optional load-imbalance noise); synchronizing communication
/// aligns clocks the way blocking MPI semantics do. The job's elapsed time
/// is the latest clock — the "slowest process" time the paper plots.
pub struct Job<'a, T: Topology> {
    machine: &'a Machine,
    compiler: &'a Compiler,
    network: &'a Network<T>,
    layout: JobLayout,
    clocks: Vec<VirtualClock>,
    rng: Pcg32,
    algo: CollectiveAlgo,
    imbalance_sigma: f64,
    /// Per-rank compute clock stretch from fault-plan slowdowns (CMG
    /// throttling); 1.0 everywhere on a healthy machine, in which case the
    /// multiply is bit-neutral.
    compute_stretch: Vec<f64>,
    /// Cached farthest pair of allocated nodes: the conservative
    /// representative route for collective stages.
    far_pair: (NodeId, NodeId),
    /// Resolved route cost of `far_pair`, cached at launch so every
    /// collective stage prices its messages without re-routing.
    far_cost: PathCost,
    trace: Option<Trace>,
}

impl<'a, T: Topology> Job<'a, T> {
    /// Launch a job.
    pub fn new(
        machine: &'a Machine,
        compiler: &'a Compiler,
        network: &'a Network<T>,
        layout: JobLayout,
        seed: u64,
    ) -> Self {
        let n = layout.n_ranks();
        let far_pair = Self::farthest_pair(network, &layout);
        let far_cost = network.path_cost(far_pair.0, far_pair.1);
        Self {
            machine,
            compiler,
            network,
            layout,
            clocks: vec![VirtualClock::new(); n],
            rng: Pcg32::seeded(seed),
            algo: CollectiveAlgo::Auto,
            imbalance_sigma: 0.03,
            compute_stretch: vec![1.0; n],
            far_pair,
            far_cost,
            trace: None,
        }
    }

    fn farthest_pair(network: &Network<T>, layout: &JobLayout) -> (NodeId, NodeId) {
        let nodes = &layout.nodes;
        if nodes.len() < 2 {
            return (nodes[0], nodes[0]);
        }
        // When the network has already materialised its pair table (folded
        // on TofuD — two array reads per hop query), ride it; otherwise
        // fall back to direct coordinate routing. Both return identical hop
        // counts, so the selected pair is the same either way.
        let hops: &dyn Fn(NodeId, NodeId) -> usize = match network.table_if_built() {
            Some(t) => &|a, b| t.hops(a, b),
            None => &|a, b| network.topology().hops(a, b),
        };
        let first = nodes[0];
        // Double sweep from the first node: near-diameter pair in O(n).
        let a = *nodes
            .iter()
            .max_by_key(|&&n| hops(first, n))
            .expect("non-empty");
        let b = *nodes
            .iter()
            .max_by_key(|&&n| hops(a, n))
            .expect("non-empty");
        (a, b)
    }

    /// Select the inter-node collective algorithm (default: size-based).
    pub fn with_collective_algo(mut self, algo: CollectiveAlgo) -> Self {
        self.algo = algo;
        self
    }

    /// Apply the job-visible slice of a fault plan: ranks on throttled
    /// nodes run compute chunks `1/factor` slower. Network-side faults are
    /// not handled here — they live in the `Network` this job already
    /// prices against.
    ///
    /// # Panics
    /// Panics if any node in the layout is hard-failed (by the plan or the
    /// network): a rank there would never finish. The scheduler layer is
    /// responsible for draining failed nodes before placement.
    pub fn with_faults(mut self, faults: &JobFaults) -> Self {
        for &node in &self.layout.nodes {
            assert!(
                !faults.is_failed(node) && !self.network.is_failed(node),
                "cannot place ranks on failed node {node}"
            );
        }
        for rank in 0..self.layout.n_ranks() {
            self.compute_stretch[rank] = faults.compute_stretch(self.layout.node_of(rank));
        }
        self
    }

    /// Enable per-rank execution tracing (see [`crate::trace`]).
    pub fn with_tracing(mut self) -> Self {
        self.trace = Some(Trace::new());
        self
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Set the per-compute-step load-imbalance sigma (default 0.03;
    /// 0 = perfectly balanced).
    pub fn with_imbalance(mut self, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "imbalance sigma must be non-negative");
        self.imbalance_sigma = sigma;
        self
    }

    /// Number of ranks.
    pub fn n_ranks(&self) -> usize {
        self.layout.n_ranks()
    }

    /// The layout.
    pub fn layout(&self) -> &JobLayout {
        &self.layout
    }

    /// The farthest pair of allocated nodes — the representative route
    /// whose cached cost prices every collective stage.
    pub fn far_pair(&self) -> (NodeId, NodeId) {
        self.far_pair
    }

    /// The job's elapsed time so far: the latest rank clock.
    pub fn elapsed(&self) -> Time {
        self.clocks
            .iter()
            .map(|c| c.now())
            .fold(Time::ZERO, Time::max)
    }

    /// Per-rank clock snapshot.
    pub fn rank_times(&self) -> Vec<Time> {
        self.clocks.iter().map(|c| c.now()).collect()
    }

    /// Every rank executes the same per-rank work chunk; each rank's time is
    /// perturbed by the imbalance noise.
    ///
    /// The chunk is split across the rank's OpenMP threads and priced once
    /// per call: [`CostModel::chunk_time`] is a pure function of the
    /// profile and the active cores, which are the same for every rank. The
    /// per-rank loop keeps only the fault stretch, the imbalance draw (in
    /// rank order, so the noise sequence is fixed by the seed) and the clock
    /// advance.
    pub fn compute(&mut self, per_rank: &KernelProfile) {
        let cm = CostModel::new(&self.machine.core, &self.machine.memory, self.compiler);
        let threads = self.layout.threads_per_rank as f64;
        // Pricing never reads the name, so the per-thread copy leaves it out.
        let per_thread = KernelProfile {
            name: String::new(),
            flops: per_rank.flops / threads,
            bytes: per_rank.bytes / threads,
            ..*per_rank
        };
        let chunk = cm
            .chunk_time(&per_thread, self.layout.active_cores_per_node())
            .value();
        for (rank, clock) in self.clocks.iter_mut().enumerate() {
            // Fault-plan slowdown: ×1.0 on healthy nodes is bit-neutral.
            let mut t = chunk * self.compute_stretch[rank];
            if self.imbalance_sigma > 0.0 {
                t *= self.rng.lognormal_noise(self.imbalance_sigma);
            }
            let t = Time::seconds(t);
            let start = clock.now();
            clock.advance(t);
            if let Some(trace) = self.trace.as_mut() {
                trace.record(rank, Activity::Compute, start, start + t, &per_rank.name);
            }
        }
    }

    /// Representative point-to-point time across the allocation (worst
    /// pair). Collective stages call this once per stage with varying
    /// sizes, so the route cost comes from the cached [`PathCost`] rather
    /// than re-resolving `far_pair` each time.
    fn inter_node_ptp(&self, bytes: Bytes) -> Time {
        self.network.message_time_with(&self.far_cost, bytes)
    }

    /// Intra-node (shared-memory) point-to-point time.
    fn intra_node_ptp(&self, bytes: Bytes) -> Time {
        // Shared-memory copy: half the injection overhead + copy at 20 GB/s,
        // mirroring Network's self-message model.
        self.network.link().sw_overhead * 0.5 + bytes / Bandwidth::gb_per_sec(20.0)
    }

    /// A blocking step over all ranks: every clock waits for the latest
    /// (the synchronization part of blocking MPI semantics), then all pay
    /// `cost`. Only a traced job snapshots the per-rank start times, to
    /// record each rank's interval from its pre-sync clock to the common
    /// completion time.
    fn blocking(&mut self, cost: Time, activity: Activity, label: &str) {
        let starts = self.trace.is_some().then(|| self.rank_times());
        let latest = self.elapsed();
        for c in &mut self.clocks {
            c.advance_to(latest);
            c.advance(cost);
        }
        if let (Some(starts), Some(trace)) = (starts, self.trace.as_mut()) {
            for (rank, (&s, c)) in starts.iter().zip(&self.clocks).enumerate() {
                trace.record(rank, activity, s, c.now(), label);
            }
        }
    }

    /// Hierarchical collective cost: intra-node stage over the ranks of one
    /// node, inter-node stage over node leaders.
    fn hierarchical_cost(
        &self,
        bytes: Bytes,
        intra_f: impl Fn(usize, Bytes, &dyn Fn(Bytes) -> Time) -> Time,
        inter_f: impl Fn(usize, Bytes, &dyn Fn(Bytes) -> Time) -> Time,
    ) -> Time {
        let rpn = self.layout.ranks_per_node;
        let nodes = self.layout.n_nodes();
        let intra_ptp = |b: Bytes| self.intra_node_ptp(b);
        let inter_ptp = |b: Bytes| self.inter_node_ptp(b);
        intra_f(rpn, bytes, &intra_ptp) + inter_f(nodes, bytes, &inter_ptp)
    }

    /// MPI_Barrier over all ranks.
    pub fn barrier(&mut self) {
        let rpn = self.layout.ranks_per_node;
        let nodes = self.layout.n_nodes();
        let cost = collectives::barrier(rpn, self.intra_node_ptp(Bytes::ZERO))
            + collectives::barrier(nodes, self.inter_node_ptp(Bytes::ZERO));
        self.blocking(cost, Activity::Collective, "barrier");
    }

    /// MPI_Allreduce of `bytes` per rank.
    pub fn allreduce(&mut self, bytes: Bytes) {
        let algo = self.algo;
        let cost = self.hierarchical_cost(
            bytes,
            |p, b, ptp| collectives::allreduce(p, b, algo, ptp),
            |p, b, ptp| collectives::allreduce(p, b, algo, ptp),
        );
        self.blocking(cost, Activity::Collective, "allreduce");
    }

    /// MPI_Bcast of `bytes` from rank 0.
    pub fn bcast(&mut self, bytes: Bytes) {
        let algo = self.algo;
        let cost = self.hierarchical_cost(
            bytes,
            |p, b, ptp| collectives::bcast(p, b, algo, ptp),
            |p, b, ptp| collectives::bcast(p, b, algo, ptp),
        );
        self.blocking(cost, Activity::Collective, "bcast");
    }

    /// MPI_Reduce of `bytes` to rank 0.
    pub fn reduce(&mut self, bytes: Bytes) {
        let algo = self.algo;
        let cost = self.hierarchical_cost(
            bytes,
            |p, b, ptp| collectives::reduce(p, b, algo, ptp),
            |p, b, ptp| collectives::reduce(p, b, algo, ptp),
        );
        self.blocking(cost, Activity::Collective, "reduce");
    }

    /// MPI_Allgather where each rank contributes `bytes`.
    pub fn allgather(&mut self, bytes: Bytes) {
        let algo = self.algo;
        let rpn = self.layout.ranks_per_node;
        let cost = self.hierarchical_cost(
            bytes,
            |p, b, ptp| collectives::allgather(p, b, algo, ptp),
            // Node leaders carry their node's aggregated contribution.
            |p, b, ptp| collectives::allgather(p, b * rpn as f64, algo, ptp),
        );
        self.blocking(cost, Activity::Collective, "allgather");
    }

    /// MPI_Alltoall where each rank sends `bytes` to every other rank.
    pub fn alltoall(&mut self, bytes: Bytes) {
        let rpn = self.layout.ranks_per_node;
        let cost = self.hierarchical_cost(
            bytes,
            |p, b, ptp| collectives::alltoall(p, b, ptp),
            // Inter-node traffic: each node exchanges rpn² rank-pair
            // payloads with every other node.
            |p, b, ptp| collectives::alltoall(p, b * (rpn * rpn) as f64, ptp),
        );
        self.blocking(cost, Activity::Collective, "alltoall");
    }

    /// Allreduce over a sub-communicator (e.g. HPL's grid rows/columns):
    /// only the listed ranks synchronize and pay the cost; everyone else
    /// keeps running.
    ///
    /// # Panics
    /// Panics on duplicate or out-of-range ranks.
    pub fn allreduce_among(&mut self, ranks: &[usize], bytes: Bytes) {
        if ranks.len() <= 1 {
            return;
        }
        let mut seen = vec![false; self.n_ranks()];
        for &r in ranks {
            assert!(r < self.n_ranks(), "rank out of range");
            assert!(!seen[r], "duplicate rank in sub-communicator");
            seen[r] = true;
        }
        let starts: Option<Vec<Time>> = self
            .trace
            .is_some()
            .then(|| ranks.iter().map(|&r| self.clocks[r].now()).collect());
        // Synchronize the subset.
        let latest = ranks
            .iter()
            .map(|&r| self.clocks[r].now())
            .fold(Time::ZERO, Time::max);
        for &r in ranks {
            self.clocks[r].advance_to(latest);
        }
        // Cost: how many distinct nodes does the subset span?
        let mut nodes: Vec<_> = ranks.iter().map(|&r| self.layout.node_of(r)).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let per_node = ranks.len().div_ceil(nodes.len());
        let algo = self.algo;
        let cost = collectives::allreduce(per_node, bytes, algo, |b| self.intra_node_ptp(b))
            + collectives::allreduce(nodes.len(), bytes, algo, |b| self.inter_node_ptp(b));
        for &r in ranks {
            self.clocks[r].advance(cost);
        }
        if let (Some(starts), Some(trace)) = (starts, self.trace.as_mut()) {
            for (&r, &s) in ranks.iter().zip(&starts) {
                let end = self.clocks[r].now();
                trace.record(r, Activity::Collective, s, end, "allreduce(sub)");
            }
        }
    }

    /// MPI_Gather of `bytes` per rank to rank 0.
    pub fn gather(&mut self, bytes: Bytes) {
        let rpn = self.layout.ranks_per_node;
        let cost = self.hierarchical_cost(
            bytes,
            |p, b, ptp| collectives::gather(p, b, ptp),
            // Node leaders forward their node's aggregate.
            |p, b, ptp| collectives::gather(p, b * rpn as f64, ptp),
        );
        self.blocking(cost, Activity::Collective, "gather");
    }

    /// MPI_Reduce_scatter of `bytes` per rank.
    pub fn reduce_scatter(&mut self, bytes: Bytes) {
        let cost = self.hierarchical_cost(
            bytes,
            |p, b, ptp| collectives::reduce_scatter(p, b, ptp),
            |p, b, ptp| collectives::reduce_scatter(p, b, ptp),
        );
        self.blocking(cost, Activity::Collective, "reduce_scatter");
    }

    /// MPI_Scan (inclusive prefix) of `bytes` per rank.
    pub fn scan(&mut self, bytes: Bytes) {
        let cost = self.hierarchical_cost(
            bytes,
            |p, b, ptp| collectives::scan(p, b, ptp),
            |p, b, ptp| collectives::scan(p, b, ptp),
        );
        self.blocking(cost, Activity::Collective, "scan");
    }

    /// Paired MPI_Sendrecv between two ranks: both clocks meet, then pay the
    /// transfer.
    pub fn sendrecv(&mut self, a: usize, b: usize, bytes: Bytes) {
        assert!(
            a < self.n_ranks() && b < self.n_ranks(),
            "rank out of range"
        );
        let start = self.clocks[a].now().max(self.clocks[b].now());
        let t = if self.layout.same_node(a, b) {
            self.intra_node_ptp(bytes)
        } else {
            self.network
                .message_time(self.layout.node_of(a), self.layout.node_of(b), bytes)
        };
        let end = start + t;
        let (sa, sb) = (self.clocks[a].now(), self.clocks[b].now());
        self.clocks[a].advance_to(end);
        self.clocks[b].advance_to(end);
        if let Some(trace) = self.trace.as_mut() {
            trace.record(a, Activity::PointToPoint, sa, end, "sendrecv");
            trace.record(b, Activity::PointToPoint, sb, end, "sendrecv");
        }
    }

    /// Post a non-blocking neighbour exchange (`MPI_Isend`/`MPI_Irecv`):
    /// each rank pays only the injection overheads now; the wire time
    /// proceeds in the background and [`Job::wait_halo`] synchronizes with
    /// it. Compute issued between post and wait overlaps with the
    /// transfers — the classic halo-hiding pattern.
    pub fn post_neighbor_exchange(
        &mut self,
        neighbors: impl Fn(usize) -> Vec<(usize, Bytes)>,
    ) -> PendingHalo {
        self.post_exchange(|rank, peers| peers.extend(neighbors(rank)))
    }

    /// The one neighbour-exchange core behind [`Job::post_neighbor_exchange`]
    /// and [`Job::ring_halo`]: `write_peers(rank, buf)` appends the rank's
    /// `(peer, bytes)` messages to a buffer reused across ranks. An
    /// inter-node message is priced once per distinct (source node, peer
    /// node, size) within the call, which is exact because
    /// [`Network::message_time`] is a pure function of those three.
    fn post_exchange(
        &mut self,
        mut write_peers: impl FnMut(usize, &mut Vec<(usize, Bytes)>),
    ) -> PendingHalo {
        let n = self.n_ranks();
        let sw = self.network.link().sw_overhead;
        let mut completion = Vec::with_capacity(n);
        let mut peers = Vec::new();
        let mut priced: HashMap<(NodeId, NodeId, u64), Time> = HashMap::new();
        for rank in 0..n {
            peers.clear();
            write_peers(rank, &mut peers);
            let start = self.clocks[rank].now();
            if peers.is_empty() {
                completion.push(start);
                continue;
            }
            // Injection overheads occupy the CPU.
            let inject = sw * peers.len() as f64;
            self.clocks[rank].advance(inject);
            // Wire time proceeds asynchronously from the post time.
            let src = self.layout.node_of(rank);
            let mut slowest = Time::ZERO;
            for &(peer, bytes) in &peers {
                assert!(peer < n, "peer rank out of range");
                let dst = self.layout.node_of(peer);
                let t = if src == dst {
                    self.intra_node_ptp(bytes)
                } else {
                    *priced
                        .entry((src, dst, bytes.value().to_bits()))
                        .or_insert_with(|| self.network.message_time(src, dst, bytes))
                };
                slowest = slowest.max(t);
            }
            completion.push(start + inject + slowest);
        }
        PendingHalo { completion }
    }

    /// Complete a posted exchange: each rank's clock jumps to the later of
    /// its current time (compute finished after the wire) and the
    /// transfer completion (the wire was the bottleneck).
    pub fn wait_halo(&mut self, pending: PendingHalo) {
        assert_eq!(
            pending.completion.len(),
            self.n_ranks(),
            "pending halo from a different job"
        );
        for (rank, &done) in pending.completion.iter().enumerate() {
            let start = self.clocks[rank].now();
            self.clocks[rank].advance_to(done);
            if let Some(trace) = self.trace.as_mut() {
                let end = start.max(done);
                if end > start {
                    trace.record(rank, Activity::PointToPoint, start, end, "halo-wait");
                }
            }
        }
    }

    /// Blocking neighbour (halo) exchange: post and immediately wait.
    /// Defined as the composition of [`Job::post_neighbor_exchange`] and
    /// [`Job::wait_halo`], so blocking and overlapped paths share one cost
    /// model by construction.
    pub fn neighbor_exchange(&mut self, neighbors: impl Fn(usize) -> Vec<(usize, Bytes)>) {
        let pending = self.post_neighbor_exchange(neighbors);
        self.wait_halo(pending);
    }

    /// Blocking halo exchange over a ring neighbourhood in rank space: rank
    /// `r` swaps `bytes` with `r+1, r−1, r+2, r−2, …` (mod the rank count),
    /// `n_neighbors` peers in all but at most every other rank. These are
    /// the application models' domain-decomposition halos.
    pub fn ring_halo(&mut self, n_neighbors: usize, bytes: Bytes) {
        let n = self.n_ranks();
        let count = n_neighbors.min(n - 1);
        let pending = self.post_exchange(|r, peers| {
            peers.extend(
                (1..=n_neighbors.div_ceil(2))
                    .flat_map(|d| [(r + d) % n, (r + n - d % n) % n])
                    .take(count)
                    .map(|peer| (peer, bytes)),
            );
        });
        self.wait_halo(pending);
    }

    /// Collective file output of `total_bytes` through a shared parallel
    /// filesystem of the given sustained bandwidth (used for WRF's hourly
    /// frames). All ranks block until the write drains.
    pub fn parallel_write(&mut self, total_bytes: Bytes, fs_bandwidth: Bandwidth) {
        self.blocking(total_bytes / fs_bandwidth, Activity::Io, "parallel_write");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arch::machines::{cte_arm, marenostrum4};
    use interconnect::fattree::FatTree;
    use interconnect::link::LinkModel;
    use interconnect::tofu::TofuD;

    fn cte_job(n_nodes: usize, rpn: usize, tpr: usize) -> (Machine, Compiler, Network<TofuD>) {
        let m = cte_arm();
        let c = Compiler::gnu_sve();
        let net = Network::new(TofuD::cte_arm(), LinkModel::tofud());
        let _ = (n_nodes, rpn, tpr);
        (m, c, net)
    }

    fn layout(machine: &Machine, n_nodes: usize, rpn: usize, tpr: usize) -> JobLayout {
        JobLayout::new(
            (0..n_nodes).map(NodeId).collect(),
            rpn,
            tpr,
            machine.memory.n_domains,
            machine.cores_per_node(),
        )
    }

    #[test]
    fn fresh_job_has_zero_elapsed() {
        let (m, c, net) = cte_job(4, 48, 1);
        let job = Job::new(&m, &c, &net, layout(&m, 4, 48, 1), 1);
        assert_eq!(job.elapsed(), Time::ZERO);
        assert_eq!(job.n_ranks(), 192);
    }

    #[test]
    fn compute_advances_clocks() {
        let (m, c, net) = cte_job(2, 48, 1);
        let mut job = Job::new(&m, &c, &net, layout(&m, 2, 48, 1), 1);
        job.compute(&KernelProfile::dp("work", 1e9, 1e8));
        assert!(job.elapsed().value() > 0.0);
        // All ranks advanced.
        assert!(job.rank_times().iter().all(|t| t.value() > 0.0));
    }

    #[test]
    fn imbalance_spreads_rank_times() {
        let (m, c, net) = cte_job(2, 48, 1);
        let mut job = Job::new(&m, &c, &net, layout(&m, 2, 48, 1), 1).with_imbalance(0.1);
        job.compute(&KernelProfile::dp("work", 1e9, 1e8));
        let times = job.rank_times();
        let min = times
            .iter()
            .map(|t| t.value())
            .fold(f64::INFINITY, f64::min);
        let max = times.iter().map(|t| t.value()).fold(0.0, f64::max);
        assert!(max > min * 1.02, "imbalance should spread clocks");
        // Zero imbalance: identical clocks.
        let mut balanced = Job::new(&m, &c, &net, layout(&m, 2, 48, 1), 1).with_imbalance(0.0);
        balanced.compute(&KernelProfile::dp("work", 1e9, 1e8));
        let bt = balanced.rank_times();
        assert!(bt.iter().all(|t| (t.value() - bt[0].value()).abs() < 1e-15));
    }

    #[test]
    fn barrier_aligns_clocks() {
        let (m, c, net) = cte_job(2, 48, 1);
        let mut job = Job::new(&m, &c, &net, layout(&m, 2, 48, 1), 1).with_imbalance(0.2);
        job.compute(&KernelProfile::dp("work", 1e9, 1e8));
        job.barrier();
        let times = job.rank_times();
        assert!(
            times
                .iter()
                .all(|t| (t.value() - times[0].value()).abs() < 1e-15),
            "clocks aligned after barrier"
        );
    }

    #[test]
    fn allreduce_costs_more_on_more_nodes() {
        let (m, c, net) = cte_job(2, 48, 1);
        let mut small = Job::new(&m, &c, &net, layout(&m, 2, 48, 1), 1).with_imbalance(0.0);
        let mut large = Job::new(&m, &c, &net, layout(&m, 64, 48, 1), 1).with_imbalance(0.0);
        small.allreduce(Bytes::kib(8.0));
        large.allreduce(Bytes::kib(8.0));
        assert!(large.elapsed() > small.elapsed());
    }

    #[test]
    fn sendrecv_couples_two_ranks_only() {
        let (m, c, net) = cte_job(2, 4, 12);
        let mut job = Job::new(&m, &c, &net, layout(&m, 2, 4, 12), 1).with_imbalance(0.0);
        job.sendrecv(0, 7, Bytes::kib(64.0));
        let times = job.rank_times();
        assert!(times[0].value() > 0.0);
        assert_eq!(times[0], times[7]);
        assert_eq!(times[3], Time::ZERO);
    }

    #[test]
    fn intra_node_messages_are_cheaper() {
        let (m, c, net) = cte_job(2, 4, 12);
        let mut job = Job::new(&m, &c, &net, layout(&m, 2, 4, 12), 1).with_imbalance(0.0);
        job.sendrecv(0, 1, Bytes::kib(64.0)); // same node
        let intra = job.rank_times()[0];
        let mut job2 = Job::new(&m, &c, &net, layout(&m, 2, 4, 12), 1).with_imbalance(0.0);
        job2.sendrecv(0, 4, Bytes::kib(64.0)); // across nodes
        let inter = job2.rank_times()[0];
        assert!(intra < inter);
    }

    #[test]
    fn neighbor_exchange_overlaps_messages() {
        let (m, c, net) = cte_job(4, 1, 48);
        let mut job = Job::new(&m, &c, &net, layout(&m, 4, 1, 48), 1).with_imbalance(0.0);
        // Ring halo: each rank talks to both neighbours.
        let n = job.n_ranks();
        job.neighbor_exchange(|r| {
            vec![
                ((r + 1) % n, Bytes::kib(32.0)),
                ((r + n - 1) % n, Bytes::kib(32.0)),
            ]
        });
        let t_two = job.elapsed();
        // A single message of the same size costs barely less (overlap).
        let mut one = Job::new(&m, &c, &net, layout(&m, 4, 1, 48), 1).with_imbalance(0.0);
        one.neighbor_exchange(|r| vec![((r + 1) % n, Bytes::kib(32.0))]);
        let t_one = one.elapsed();
        assert!(t_two.value() < t_one.value() * 2.0, "messages overlap");
        assert!(
            t_two > t_one,
            "extra message still costs injection overhead"
        );
    }

    #[test]
    fn parallel_write_scales_with_volume() {
        let (m, c, net) = cte_job(2, 48, 1);
        let mut job = Job::new(&m, &c, &net, layout(&m, 2, 48, 1), 1);
        job.parallel_write(Bytes::gb(10.0), Bandwidth::gb_per_sec(5.0));
        assert!((job.elapsed().value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn works_on_fattree_cluster_too() {
        let m = marenostrum4();
        let c = Compiler::intel();
        let net = Network::new(FatTree::marenostrum4(), LinkModel::omnipath());
        let l = JobLayout::new(
            (0..16).map(NodeId).collect(),
            48,
            1,
            m.memory.n_domains,
            m.cores_per_node(),
        );
        let mut job = Job::new(&m, &c, &net, l, 1);
        job.compute(&KernelProfile::dp("work", 1e10, 1e9));
        job.allreduce(Bytes::kib(64.0));
        assert!(job.elapsed().value() > 0.0);
    }

    #[test]
    fn cached_route_cost_is_bit_identical_to_rerouting() {
        // A job on a network with the routing table prebuilt must price
        // every collective exactly like one that routes through the
        // topology directly.
        let (m, c, net) = cte_job(8, 48, 1);
        let net_cached = Network::new(TofuD::cte_arm(), LinkModel::tofud());
        net_cached.routing_table();
        let script = |net: &Network<TofuD>| {
            let mut job = Job::new(&m, &c, net, layout(&m, 8, 48, 1), 7).with_imbalance(0.0);
            job.allreduce(Bytes::kib(64.0));
            job.alltoall(Bytes::kib(4.0));
            job.bcast(Bytes::mib(1.0));
            job.elapsed().value()
        };
        assert_eq!(script(&net).to_bits(), script(&net_cached).to_bits());
    }

    #[test]
    fn far_pair_spans_the_allocation() {
        let (m, c, net) = cte_job(4, 48, 1);
        let job = Job::new(&m, &c, &net, layout(&m, 4, 48, 1), 1);
        let (a, b) = job.far_pair();
        let topo = net.topology();
        // The double sweep lands on a pair at least as far apart as any
        // pair involving node 0.
        let from_zero = (0..4)
            .map(|i| topo.hops(NodeId(0), NodeId(i)))
            .max()
            .unwrap();
        assert!(topo.hops(a, b) >= from_zero);
    }

    #[test]
    fn deterministic_across_runs() {
        let (m, c, net) = cte_job(4, 48, 1);
        let run = || {
            let mut job = Job::new(&m, &c, &net, layout(&m, 4, 48, 1), 42);
            job.compute(&KernelProfile::dp("w", 1e9, 1e8));
            job.allreduce(Bytes::kib(8.0));
            job.elapsed().value()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn overlap_hides_halo_behind_compute() {
        let (m, c, net) = cte_job(4, 1, 48);
        let layout4 = layout(&m, 4, 1, 48);
        let work = KernelProfile::dp("w", 5e10, 1e8);
        let halo = Bytes::mib(2.0);
        let n = 4;
        let peers = move |r: usize| vec![((r + 1) % n, halo), ((r + n - 1) % n, halo)];

        // Sequential: compute, then blocking halo.
        let mut seq = Job::new(&m, &c, &net, layout4.clone(), 1).with_imbalance(0.0);
        seq.compute(&work);
        seq.neighbor_exchange(peers);
        let t_seq = seq.elapsed();

        // Overlapped: post, compute, wait.
        let mut ovl = Job::new(&m, &c, &net, layout(&m, 4, 1, 48), 1).with_imbalance(0.0);
        let pending = ovl.post_neighbor_exchange(peers);
        ovl.compute(&work);
        ovl.wait_halo(pending);
        let t_ovl = ovl.elapsed();

        assert!(t_ovl < t_seq, "overlap must win: {t_ovl} vs {t_seq}");
        // And it can never beat the compute time alone.
        let mut comp = Job::new(&m, &c, &net, layout(&m, 4, 1, 48), 1).with_imbalance(0.0);
        comp.compute(&work);
        assert!(t_ovl >= comp.elapsed());
    }

    #[test]
    fn wait_without_compute_costs_the_full_transfer() {
        let (m, c, net) = cte_job(2, 1, 48);
        let halo = Bytes::mib(4.0);
        let mut a = Job::new(&m, &c, &net, layout(&m, 2, 1, 48), 1).with_imbalance(0.0);
        let pending = a.post_neighbor_exchange(|r| vec![(1 - r, halo)]);
        a.wait_halo(pending);
        let mut b = Job::new(&m, &c, &net, layout(&m, 2, 1, 48), 1).with_imbalance(0.0);
        b.neighbor_exchange(|r| vec![(1 - r, halo)]);
        // Identical when nothing overlaps (same injection + wire costs).
        assert!((a.elapsed().value() - b.elapsed().value()).abs() < 1e-12);
    }

    #[test]
    fn trace_records_compute_and_collectives() {
        use crate::trace::Activity;
        let (m, c, net) = cte_job(2, 4, 12);
        let mut job = Job::new(&m, &c, &net, layout(&m, 2, 4, 12), 1)
            .with_tracing()
            .with_imbalance(0.05);
        job.compute(&KernelProfile::dp("kernel-x", 1e9, 1e7));
        job.allreduce(Bytes::kib(8.0));
        job.parallel_write(Bytes::mib(10.0), Bandwidth::gb_per_sec(10.0));
        let trace = job.trace().expect("tracing enabled");
        // 8 ranks × (1 compute + 1 collective + 1 io).
        assert_eq!(trace.events.len(), 24);
        assert!(trace.fraction(Activity::Compute) > 0.0);
        assert!(trace.fraction(Activity::Collective) > 0.0);
        assert!(trace.fraction(Activity::Io) > 0.0);
        let gantt = trace.gantt(4, 40);
        assert!(gantt.contains("r0"));
        // With imbalance, the fastest rank's collective interval includes
        // its wait for the slowest — collective time varies per rank.
        let coll: Vec<f64> = trace
            .events
            .iter()
            .filter(|e| e.activity == Activity::Collective)
            .map(|e| e.duration().value())
            .collect();
        let min = coll.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = coll.iter().cloned().fold(0.0, f64::max);
        assert!(max > min, "waits differ across ranks");
    }

    #[test]
    fn untraced_job_has_no_trace() {
        let (m, c, net) = cte_job(1, 4, 1);
        let mut job = Job::new(&m, &c, &net, layout(&m, 1, 4, 1), 1);
        job.compute(&KernelProfile::dp("w", 1e6, 0.0));
        assert!(job.trace().is_none());
    }

    #[test]
    fn extra_collectives_advance_clocks() {
        let (m, c, net) = cte_job(4, 48, 1);
        for op in ["gather", "reduce_scatter", "scan"] {
            let mut job = Job::new(&m, &c, &net, layout(&m, 4, 48, 1), 1).with_imbalance(0.0);
            match op {
                "gather" => job.gather(Bytes::kib(4.0)),
                "reduce_scatter" => job.reduce_scatter(Bytes::kib(4.0)),
                _ => job.scan(Bytes::kib(4.0)),
            }
            assert!(job.elapsed().value() > 0.0, "{op} must cost time");
        }
    }

    #[test]
    fn subset_allreduce_leaves_others_untouched() {
        let (m, c, net) = cte_job(4, 4, 12);
        let mut job = Job::new(&m, &c, &net, layout(&m, 4, 4, 12), 1).with_imbalance(0.0);
        // Ranks 0, 4, 8, 12: one per node — a "grid column".
        job.allreduce_among(&[0, 4, 8, 12], Bytes::kib(8.0));
        let times = job.rank_times();
        assert!(times[0].value() > 0.0);
        assert_eq!(times[0], times[4]);
        assert_eq!(times[1], Time::ZERO, "non-members untouched");
        // The subset collective is cheaper than the full one.
        let mut full = Job::new(&m, &c, &net, layout(&m, 4, 4, 12), 1).with_imbalance(0.0);
        full.allreduce(Bytes::kib(8.0));
        assert!(times[0] < full.elapsed());
    }

    #[test]
    #[should_panic(expected = "duplicate rank")]
    fn subset_allreduce_rejects_duplicates() {
        let (m, c, net) = cte_job(2, 4, 12);
        let mut job = Job::new(&m, &c, &net, layout(&m, 2, 4, 12), 1);
        job.allreduce_among(&[0, 0], Bytes::kib(1.0));
    }

    #[test]
    fn slowdown_fault_stretches_compute_on_its_node_only() {
        use interconnect::faults::{Fault, FaultPlan};
        let (m, c, net) = cte_job(2, 4, 12);
        let plan = FaultPlan::new("slow").with(Fault::Slowdown {
            node: NodeId(1),
            factor: 0.5,
        });
        let jf = crate::faults::JobFaults::from_plan(&plan);
        let mut job = Job::new(&m, &c, &net, layout(&m, 2, 4, 12), 1)
            .with_imbalance(0.0)
            .with_faults(&jf);
        job.compute(&KernelProfile::dp("w", 1e9, 1e8));
        let times = job.rank_times();
        // Ranks 0–3 live on node 0 (healthy), ranks 4–7 on node 1 (×2).
        assert!(
            (times[4].value() - 2.0 * times[0].value()).abs() < 1e-12 * times[0].value(),
            "throttled node runs exactly 2x slower"
        );
    }

    #[test]
    fn empty_faults_are_bit_neutral() {
        let (m, c, net) = cte_job(4, 48, 1);
        let script = |job: &mut Job<TofuD>| {
            job.compute(&KernelProfile::dp("w", 1e9, 1e8));
            job.allreduce(Bytes::kib(8.0));
            job.elapsed().value()
        };
        let mut plain = Job::new(&m, &c, &net, layout(&m, 4, 48, 1), 42);
        let mut faulted = Job::new(&m, &c, &net, layout(&m, 4, 48, 1), 42)
            .with_faults(&crate::faults::JobFaults::none());
        assert_eq!(
            script(&mut plain).to_bits(),
            script(&mut faulted).to_bits(),
            "JobFaults::none must not perturb a single bit"
        );
    }

    #[test]
    fn any_fault_never_speeds_a_job_up() {
        use interconnect::faults::{Fault, FaultPlan};
        use interconnect::network::Degradation;
        let (m, c, net) = cte_job(4, 48, 1);
        let plan = FaultPlan::new("mix")
            .with(Fault::Degrade {
                node: NodeId(2),
                degradation: Degradation::receive_fault(0.1),
            })
            .with(Fault::Retransmit {
                node: NodeId(1),
                drop_prob: 0.2,
                timeout: Time::micros(30.0),
            })
            .with(Fault::Slowdown {
                node: NodeId(3),
                factor: 0.6,
            });
        let faulty_net = plan.apply(Network::new(TofuD::cte_arm(), LinkModel::tofud()));
        let jf = crate::faults::JobFaults::from_plan(&plan);
        let script = |net: &Network<TofuD>, jf: &crate::faults::JobFaults| {
            let mut job = Job::new(&m, &c, net, layout(&m, 4, 48, 1), 7)
                .with_imbalance(0.0)
                .with_faults(jf);
            job.compute(&KernelProfile::dp("w", 1e9, 1e8));
            job.allreduce(Bytes::kib(64.0));
            job.sendrecv(0, 100, Bytes::kib(32.0));
            job.alltoall(Bytes::kib(4.0));
            job.elapsed()
        };
        let clean = script(&net, &crate::faults::JobFaults::none());
        let faulty = script(&faulty_net, &jf);
        assert!(faulty >= clean, "faults cannot reduce makespan");
        assert!(faulty > clean, "these faults sit on allocated nodes");
    }

    #[test]
    #[should_panic(expected = "cannot place ranks on failed node")]
    fn placement_on_failed_node_is_refused() {
        use interconnect::faults::{Fault, FaultPlan};
        let (m, c, _) = cte_job(2, 4, 12);
        let plan = FaultPlan::new("dead").with(Fault::Failure { node: NodeId(1) });
        let net = plan.apply(Network::new(TofuD::cte_arm(), LinkModel::tofud()));
        let jf = crate::faults::JobFaults::from_plan(&plan);
        let _ = Job::new(&m, &c, &net, layout(&m, 2, 4, 12), 1).with_faults(&jf);
    }

    fn clock_bits<T: Topology>(job: &Job<T>) -> Vec<u64> {
        job.rank_times()
            .iter()
            .map(|t| t.value().to_bits())
            .collect()
    }

    /// Several `compute` calls on one job against a reference that prices
    /// every rank's chunk on its own, applies the fault stretch and draws
    /// the imbalance noise in rank order.
    fn assert_compute_matches_per_rank_reference<T: Topology>(
        m: &Machine,
        c: &Compiler,
        net: &Network<T>,
        l: JobLayout,
    ) {
        use interconnect::faults::{Fault, FaultPlan};
        let seed = 11;
        let plan = FaultPlan::new("slow").with(Fault::Slowdown {
            node: l.nodes[1],
            factor: 0.7,
        });
        let jf = JobFaults::from_plan(&plan);
        let profiles = [
            KernelProfile::dp("assembly", 3e9, 2e8).with_vectorizable(0.97),
            KernelProfile::dp("indexed", 5e8, 0.0).with_vectorizable(0.30),
            KernelProfile::dp("stream", 0.0, 4e8),
        ];
        let mut job = Job::new(m, c, net, l.clone(), seed)
            .with_imbalance(0.1)
            .with_faults(&jf);
        for p in &profiles {
            job.compute(p);
        }

        let cm = CostModel::new(&m.core, &m.memory, c);
        let threads = l.threads_per_rank as f64;
        let mut rng = Pcg32::seeded(seed);
        let mut clocks = vec![0.0_f64; l.n_ranks()];
        for p in &profiles {
            for (rank, clock) in clocks.iter_mut().enumerate() {
                let per_thread = KernelProfile {
                    flops: p.flops / threads,
                    bytes: p.bytes / threads,
                    ..p.clone()
                };
                let t = cm
                    .chunk_time(&per_thread, l.active_cores_per_node())
                    .value();
                let t = t * jf.compute_stretch(l.node_of(rank));
                *clock += t * rng.lognormal_noise(0.1);
            }
        }
        let want: Vec<u64> = clocks.iter().map(|t| t.to_bits()).collect();
        assert_eq!(clock_bits(&job), want);
    }

    #[test]
    fn compute_matches_a_per_rank_reference_loop() {
        let (m, c, net) = cte_job(3, 4, 12);
        assert_compute_matches_per_rank_reference(&m, &c, &net, layout(&m, 3, 4, 12));
        assert_compute_matches_per_rank_reference(&m, &c, &net, layout(&m, 2, 48, 1));
        let mn4 = marenostrum4();
        let intel = Compiler::intel();
        let fat = Network::new(FatTree::marenostrum4(), LinkModel::omnipath());
        assert_compute_matches_per_rank_reference(&mn4, &intel, &fat, layout(&mn4, 2, 48, 1));
        assert_compute_matches_per_rank_reference(&mn4, &intel, &fat, layout(&mn4, 4, 2, 8));
    }

    /// The ring neighbourhood as a `neighbor_exchange` closure: the peer
    /// formula `ring_halo` must reproduce.
    fn ring_closure(
        n: usize,
        n_neighbors: usize,
        bytes: Bytes,
    ) -> impl Fn(usize) -> Vec<(usize, Bytes)> {
        move |r| {
            (1..=n_neighbors.div_ceil(2))
                .flat_map(|d| [(r + d) % n, (r + n - d % n) % n])
                .take(n_neighbors.min(n.saturating_sub(1)))
                .map(|peer| (peer, bytes))
                .collect()
        }
    }

    /// Allocated nodes mixing near and far pairs on TofuD and same-leaf and
    /// cross-leaf pairs on the fat tree.
    const SPREAD: [NodeId; 5] = [NodeId(0), NodeId(37), NodeId(1), NodeId(74), NodeId(150)];

    /// Link faults on three of the [`SPREAD`] nodes.
    fn link_faults() -> interconnect::faults::FaultPlan {
        use interconnect::faults::{Fault, FaultPlan};
        use interconnect::network::Degradation;
        FaultPlan::new("links")
            .with(Fault::Degrade {
                node: NodeId(37),
                degradation: Degradation::receive_fault(0.3),
            })
            .with(Fault::LinkLatency {
                node: NodeId(1),
                extra: Time::micros(5.0),
            })
            .with(Fault::Retransmit {
                node: NodeId(74),
                drop_prob: 0.2,
                timeout: Time::micros(30.0),
            })
    }

    fn spread_layout(m: &Machine, n_nodes: usize, rpn: usize) -> JobLayout {
        let (domains, cores) = (m.memory.n_domains, m.cores_per_node());
        JobLayout::new(SPREAD[..n_nodes].to_vec(), rpn, 1, domains, cores)
    }

    /// `ring_halo` against the closure on 1-, 2- and 5-node layouts at
    /// several densities.
    fn assert_ring_halo_matches_closure<T: Topology>(m: &Machine, c: &Compiler, net: &Network<T>) {
        for n_nodes in [1, 2, 5] {
            for rpn in [1, 4, 48] {
                for k in [0, 1, 2, 4, 6, 10] {
                    let run = |ring: bool| {
                        let l = spread_layout(m, n_nodes, rpn);
                        let mut job = Job::new(m, c, net, l, 3).with_imbalance(0.05);
                        let n = job.n_ranks();
                        for bytes in [Bytes::kib(4.0), Bytes::mib(2.0), Bytes::kib(4.0)] {
                            job.compute(&KernelProfile::dp("w", 1e8, 1e7));
                            if ring {
                                job.ring_halo(k, bytes);
                            } else {
                                job.neighbor_exchange(ring_closure(n, k, bytes));
                            }
                        }
                        clock_bits(&job)
                    };
                    let case = format!("{n_nodes} nodes × {rpn} ranks, {k} peers");
                    assert_eq!(run(true), run(false), "{case}");
                }
            }
        }
    }

    #[test]
    fn ring_halo_matches_the_neighbor_exchange_closure() {
        let (m, c, tofu) = cte_job(5, 48, 1);
        assert_ring_halo_matches_closure(&m, &c, &tofu);
        assert_ring_halo_matches_closure(&m, &c, &link_faults().apply(tofu));
        let mn4 = marenostrum4();
        let intel = Compiler::intel();
        let fat = Network::new(FatTree::marenostrum4(), LinkModel::omnipath());
        assert_ring_halo_matches_closure(&mn4, &intel, &fat);
        assert_ring_halo_matches_closure(&mn4, &intel, &link_faults().apply(fat));
    }

    #[test]
    fn exchange_matches_pricing_every_message_directly() {
        // Each rank messages both neighbouring nodes, and one of them in two
        // sizes, on a faulted network: a memoized wire time must equal the
        // direct price of that very (source node, peer node, size).
        let m = cte_arm();
        let c = Compiler::gnu_sve();
        let net = link_faults().apply(Network::new(TofuD::cte_arm(), LinkModel::tofud()));
        let l = spread_layout(&m, 5, 4);
        let n = l.n_ranks();
        let (small, large) = (Bytes::kib(1.0), Bytes::mib(8.0));
        let peers = |r: usize| {
            vec![
                ((r + 4) % n, small),
                ((r + n - 4) % n, large),
                ((r + 1) % n, large),
            ]
        };
        let mut job = Job::new(&m, &c, &net, l.clone(), 1).with_imbalance(0.0);
        job.neighbor_exchange(peers);
        let want: Vec<u64> = (0..n)
            .map(|r| {
                let msgs = peers(r);
                let inject = net.link().sw_overhead * msgs.len() as f64;
                // `message_time` on one node is the shared-memory copy.
                let wire = msgs
                    .iter()
                    .map(|&(p, b)| net.message_time(l.node_of(r), l.node_of(p), b))
                    .fold(Time::ZERO, Time::max);
                (Time::ZERO + inject + wire).value().to_bits()
            })
            .collect();
        assert_eq!(clock_bits(&job), want);
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn sendrecv_bounds_checked() {
        let (m, c, net) = cte_job(1, 4, 1);
        let mut job = Job::new(&m, &c, &net, layout(&m, 1, 4, 1), 1);
        job.sendrecv(0, 4, Bytes::ZERO);
    }
}
