//! A network: topology + link model + per-node health + measurement noise.

use crate::folded::FoldedTable;
use crate::link::LinkModel;
use crate::topology::{check_node, NodeId, Topology};
use simkit::rng::Pcg32;
use simkit::units::{Bandwidth, Bytes, Time};
use std::sync::{Arc, OnceLock};

/// Lognormal sigma of dynamic-contention noise for messages ≥ 1 MiB.
/// The paper observes high run-to-run variability only above 2^20 B.
const LARGE_MSG_NOISE_SIGMA: f64 = 0.25;

/// Asymmetric per-node bandwidth degradation.
///
/// The paper's Fig. 4 shows node `arms0b1-11c` achieving very low bandwidth
/// *as a receiver* while performing normally *as a sender* — consistent with
/// a faulty receive-side DMA engine or a mis-trained link lane. The factors
/// scale the effective bandwidth of messages arriving at / departing from
/// the node.
#[derive(Debug, Clone, Copy)]
pub struct Degradation {
    /// Multiplier on receive-side bandwidth, `(0, 1]`.
    pub rx_factor: f64,
    /// Multiplier on send-side bandwidth, `(0, 1]`.
    pub tx_factor: f64,
}

impl Degradation {
    /// A degradation with both factors validated to `(0, 1]`.
    ///
    /// # Panics
    /// Panics if either factor is outside `(0, 1]` (a factor above 1 would
    /// model a *faster*-than-healthy endpoint; a factor of 0 or below would
    /// produce a non-positive effective bandwidth — both are construction
    /// bugs, not fault models).
    pub fn new(rx_factor: f64, tx_factor: f64) -> Self {
        for (name, f) in [("rx_factor", rx_factor), ("tx_factor", tx_factor)] {
            assert!(
                f > 0.0 && f <= 1.0,
                "Degradation {name} must be in (0, 1], got {f}"
            );
        }
        Self {
            rx_factor,
            tx_factor,
        }
    }

    /// A receive-only fault like the one in the paper.
    pub fn receive_fault(rx_factor: f64) -> Self {
        Self::new(rx_factor, 1.0)
    }

    /// A send-only fault (the mirror image of [`Degradation::receive_fault`]).
    pub fn send_fault(tx_factor: f64) -> Self {
        Self::new(1.0, tx_factor)
    }
}

/// Resolved cost parameters of one (sender, receiver) path — everything
/// [`Network::message_time`] derives from the pair before touching the
/// message size. Callers that price many messages over the same pair (the
/// collective stages in `mpisim`) resolve this once and reuse it via
/// [`Network::message_time_with`] instead of re-routing per stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathCost {
    /// Router hops on the minimal route; 0 for a node talking to itself.
    pub hops: usize,
    /// Oversubscription factor of the route.
    pub sharing: f64,
    /// Bandwidth derate from endpoint health (`tx · rx`); 0 when either
    /// endpoint has hard-failed (transfers never complete).
    pub health: f64,
    /// Fixed extra latency from link faults on either endpoint, seconds.
    pub extra_s: f64,
    /// Multiplicative expected-retransmit stretch of the whole transfer,
    /// ≥ 1 (1 on healthy paths).
    pub stretch: f64,
    /// True when sender and receiver are the same node (shared-memory
    /// copy, not a network transfer).
    pub local: bool,
}

/// A complete network model.
///
/// A clone made after the pair table is built shares that table instead of
/// copying or rebuilding it. The table depends on the topology alone, never
/// on node health, so a faulted clone of a healthy network prices every
/// path exactly as a fresh faulted network would.
#[derive(Clone)]
pub struct Network<T: Topology> {
    topo: T,
    link: LinkModel,
    /// Per-node send/receive health factors, flat-indexed by node id
    /// (1.0 = healthy). Dense so the per-message lookup is two loads
    /// instead of two hash probes.
    deg_tx: Vec<f64>,
    deg_rx: Vec<f64>,
    /// Additive per-endpoint latency from link faults (mis-trained lanes),
    /// seconds; 0 = healthy.
    extra_lat: Vec<f64>,
    /// Multiplicative expected-retransmit stretch per endpoint, ≥ 1
    /// (transient packet loss with timeout/backoff, folded analytically so
    /// sweeps stay deterministic); 1 = healthy.
    retry_stretch: Vec<f64>,
    /// Hard-failed nodes: transfers touching them never complete.
    failed: Vec<bool>,
    /// Memoized hop/sharing pair table, built on first request and shared
    /// with later clones; `None` for topologies that answer pairs in O(1)
    /// directly.
    table: OnceLock<Option<Arc<FoldedTable>>>,
}

impl<T: Topology> Network<T> {
    /// Build a healthy network.
    pub fn new(topo: T, link: LinkModel) -> Self {
        let n = topo.nodes();
        Self {
            topo,
            link,
            deg_tx: vec![1.0; n],
            deg_rx: vec![1.0; n],
            extra_lat: vec![0.0; n],
            retry_stretch: vec![1.0; n],
            failed: vec![false; n],
            table: OnceLock::new(),
        }
    }

    /// Mark a node as degraded.
    ///
    /// # Panics
    /// Panics if either factor is outside `(0, 1]` — the same guard as
    /// [`Degradation::new`], repeated here because the struct's fields are
    /// public and could have been set directly.
    pub fn with_degraded_node(mut self, node: NodeId, d: Degradation) -> Self {
        check_node(&self.topo, node);
        for (name, f) in [("rx_factor", d.rx_factor), ("tx_factor", d.tx_factor)] {
            assert!(
                f > 0.0 && f <= 1.0,
                "Degradation {name} must be in (0, 1], got {f}"
            );
        }
        self.deg_tx[node.index()] = d.tx_factor;
        self.deg_rx[node.index()] = d.rx_factor;
        self
    }

    /// Add fixed extra latency to every transfer touching `node` (a
    /// mis-trained link lane). Additive with any previous link fault.
    ///
    /// # Panics
    /// Panics on negative latency.
    pub fn with_link_fault(mut self, node: NodeId, extra: Time) -> Self {
        check_node(&self.topo, node);
        assert!(extra.value() >= 0.0, "link-fault latency must be ≥ 0");
        self.extra_lat[node.index()] += extra.value();
        self
    }

    /// Model transient packet loss at `node`: each transfer attempt is
    /// dropped with probability `drop_prob` and retried after `timeout`.
    /// Folded analytically into an expected-cost stretch (`1/(1−q)` on the
    /// transfer) plus an expected timeout charge (`q/(1−q) · timeout`), so
    /// campaigns stay bit-deterministic instead of sampling per message.
    ///
    /// # Panics
    /// Panics unless `0 ≤ drop_prob < 1` and `timeout ≥ 0`.
    pub fn with_retransmit_fault(mut self, node: NodeId, drop_prob: f64, timeout: Time) -> Self {
        check_node(&self.topo, node);
        assert!(
            (0.0..1.0).contains(&drop_prob),
            "drop probability must be in [0, 1), got {drop_prob}"
        );
        assert!(timeout.value() >= 0.0, "retransmit timeout must be ≥ 0");
        let expected_attempts = 1.0 / (1.0 - drop_prob);
        self.retry_stretch[node.index()] *= expected_attempts;
        self.extra_lat[node.index()] += drop_prob / (1.0 - drop_prob) * timeout.value();
        self
    }

    /// Mark a node as hard-failed: every transfer touching it takes
    /// infinite time (zero measured bandwidth). The scheduler layer drains
    /// failed nodes; `mpisim` refuses to place ranks on them.
    pub fn with_failed_node(mut self, node: NodeId) -> Self {
        check_node(&self.topo, node);
        self.failed[node.index()] = true;
        self
    }

    /// Whether a node has hard-failed.
    pub fn is_failed(&self, node: NodeId) -> bool {
        check_node(&self.topo, node);
        self.failed[node.index()]
    }

    /// All hard-failed nodes, in id order.
    pub fn failed_nodes(&self) -> Vec<NodeId> {
        self.failed
            .iter()
            .enumerate()
            .filter(|(_, &f)| f)
            .map(|(i, _)| NodeId(i))
            .collect()
    }

    /// The topology.
    pub fn topology(&self) -> &T {
        &self.topo
    }

    /// The link model.
    pub fn link(&self) -> &LinkModel {
        &self.link
    }

    /// Bandwidth derate for the (sender, receiver) pair from node health.
    fn health_factor(&self, from: NodeId, to: NodeId) -> f64 {
        self.deg_tx[from.index()] * self.deg_rx[to.index()]
    }

    /// The memoized hop/sharing table, built on first request. Sweeps that
    /// price every pair (the Fig. 4 map, link-load analysis) use it to
    /// avoid re-deriving the route per message; one-off messages never pay
    /// the build. The topology decides whether there is one
    /// ([`Topology::pair_table`]): TofuD folds by translation symmetry, so
    /// even a full-Fugaku network stays under 10 MB here, while the fat
    /// tree's direct O(1) queries need no table (`None`).
    pub fn routing_table(&self) -> Option<&FoldedTable> {
        self.table
            .get_or_init(|| self.topo.pair_table().map(Arc::new))
            .as_deref()
    }

    /// The memoized table if some caller has already built it, without
    /// triggering the build.
    pub fn table_if_built(&self) -> Option<&FoldedTable> {
        self.table.get().and_then(Option::as_deref)
    }

    /// Resolve the size-independent cost parameters of one path. Uses the
    /// memoized table when it has been built, the topology directly
    /// otherwise — the values are identical either way.
    pub fn path_cost(&self, from: NodeId, to: NodeId) -> PathCost {
        check_node(&self.topo, from);
        check_node(&self.topo, to);
        if from == to {
            return PathCost {
                hops: 0,
                sharing: 1.0,
                health: 1.0,
                extra_s: 0.0,
                stretch: 1.0,
                local: true,
            };
        }
        let (hops, sharing) = match self.table_if_built() {
            Some(t) => (t.hops(from, to), t.sharing(from, to)),
            None => (self.topo.hops(from, to), self.topo.sharing(from, to)),
        };
        let health = if self.failed[from.index()] || self.failed[to.index()] {
            0.0
        } else {
            self.health_factor(from, to)
        };
        PathCost {
            hops,
            sharing,
            health,
            extra_s: self.extra_lat[from.index()] + self.extra_lat[to.index()],
            stretch: self.retry_stretch[from.index()] * self.retry_stretch[to.index()],
            local: false,
        }
    }

    /// Transfer time for one message over an already-resolved path.
    pub fn message_time_with(&self, cost: &PathCost, bytes: Bytes) -> Time {
        if cost.local {
            // Intra-node copy through shared memory: model as half the
            // software overhead, no hops.
            return self.link.sw_overhead * 0.5 + bytes / Bandwidth::gb_per_sec(20.0);
        }
        // A degraded endpoint (mis-trained lane, faulty DMA engine) forces
        // per-packet retransmits, stretching the whole transfer — latency
        // and serialization alike — by 1/health. Link faults add fixed
        // latency per attempt and transient loss stretches the expected
        // total; on healthy paths (`extra_s` 0, `stretch` 1) both terms
        // are bit-neutral. A failed endpoint (health 0) yields +∞: the
        // transfer never completes, i.e. zero measured bandwidth.
        let healthy = self.link.message_time(bytes, cost.hops, cost.sharing);
        Time::seconds((healthy.value() / cost.health + cost.extra_s) * cost.stretch)
    }

    /// Deterministic (noise-free) transfer time for one message.
    pub fn message_time(&self, from: NodeId, to: NodeId, bytes: Bytes) -> Time {
        self.message_time_with(&self.path_cost(from, to), bytes)
    }

    /// Measured transfer time: deterministic cost plus dynamic-contention
    /// noise for large messages (the paper's >1 MiB variability).
    pub fn measured_time(&self, from: NodeId, to: NodeId, bytes: Bytes, rng: &mut Pcg32) -> Time {
        let base = self.message_time(from, to, bytes);
        if bytes.value() >= 1024.0 * 1024.0 {
            // Contention only ever slows a transfer down: fold the lognormal
            // factor to ≥ 1.
            let factor = rng.lognormal_noise(LARGE_MSG_NOISE_SIGMA).max(1.0);
            Time::seconds(base.value() * factor)
        } else {
            base
        }
    }

    /// Bandwidth an OSU-style sendrecv loop reports for the pair.
    pub fn measured_bandwidth(
        &self,
        from: NodeId,
        to: NodeId,
        bytes: Bytes,
        rng: &mut Pcg32,
    ) -> Bandwidth {
        bytes / self.measured_time(from, to, bytes, rng)
    }

    /// The full node-pair bandwidth map at one message size (Fig. 4):
    /// `map[sender][receiver]` in GB/s. The diagonal (self-pairs) is 0.
    ///
    /// Prices every ordered pair, so the topology's memoized routing
    /// table, if it has one, is built first; the RNG consumption stays
    /// strictly sequential, keeping the map bit-identical to the
    /// pre-table implementation.
    pub fn pairwise_bandwidth_map(&self, bytes: Bytes, rng: &mut Pcg32) -> Vec<Vec<f64>> {
        self.routing_table();
        let n = self.topo.nodes();
        let mut map = vec![vec![0.0; n]; n];
        for (s, row) in map.iter_mut().enumerate() {
            for (r, cell) in row.iter_mut().enumerate() {
                if s != r {
                    *cell = self
                        .measured_bandwidth(NodeId(s), NodeId(r), bytes, rng)
                        .as_gb_per_sec();
                }
            }
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fattree::FatTree;
    use crate::tofu::TofuD;

    fn cte_net() -> Network<TofuD> {
        Network::new(TofuD::cte_arm(), LinkModel::tofud())
    }

    #[test]
    fn nearby_pairs_are_faster() {
        let net = cte_net();
        let near = net.message_time(NodeId(0), NodeId(1), Bytes::new(256.0));
        let far = net.message_time(NodeId(0), NodeId(100), Bytes::new(256.0));
        assert!(near < far);
    }

    #[test]
    fn receive_fault_is_asymmetric() {
        let bad = NodeId(23);
        let net = cte_net().with_degraded_node(bad, Degradation::receive_fault(0.1));
        let mut rng = Pcg32::seeded(1);
        let sz = Bytes::kib(256.0);
        let other = NodeId(100);
        let to_bad = net.measured_bandwidth(other, bad, sz, &mut rng).value();
        let from_bad = net.measured_bandwidth(bad, other, sz, &mut rng).value();
        assert!(
            from_bad > 3.0 * to_bad,
            "send {from_bad} should dwarf receive {to_bad}"
        );
    }

    #[test]
    fn large_messages_are_noisy_small_are_not() {
        let net = cte_net();
        let mut rng = Pcg32::seeded(2);
        let small: Vec<f64> = (0..50)
            .map(|_| {
                net.measured_time(NodeId(0), NodeId(50), Bytes::kib(4.0), &mut rng)
                    .value()
            })
            .collect();
        let large: Vec<f64> = (0..50)
            .map(|_| {
                net.measured_time(NodeId(0), NodeId(50), Bytes::mib(4.0), &mut rng)
                    .value()
            })
            .collect();
        let cv = |v: &[f64]| {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            (v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / v.len() as f64).sqrt() / m
        };
        assert!(cv(&small) < 1e-12, "small messages deterministic");
        assert!(cv(&large) > 0.05, "large messages vary");
    }

    #[test]
    fn pairwise_map_shape() {
        let net = cte_net();
        let mut rng = Pcg32::seeded(3);
        let map = net.pairwise_bandwidth_map(Bytes::new(256.0), &mut rng);
        assert_eq!(map.len(), 192);
        assert_eq!(map[0].len(), 192);
        assert_eq!(map[7][7], 0.0);
        assert!(map[0][1] > 0.0);
        // In-unit pair beats cross-machine pair.
        assert!(map[0][1] > map[0][180]);
    }

    #[test]
    fn self_message_is_cheap() {
        let net = cte_net();
        let t_self = net.message_time(NodeId(5), NodeId(5), Bytes::kib(1.0));
        let t_remote = net.message_time(NodeId(5), NodeId(6), Bytes::kib(1.0));
        assert!(t_self < t_remote);
    }

    #[test]
    fn fattree_network_works_too() {
        let net = Network::new(FatTree::marenostrum4(), LinkModel::omnipath());
        let same_leaf = net.message_time(NodeId(0), NodeId(3), Bytes::kib(1.0));
        let cross = net.message_time(NodeId(0), NodeId(40), Bytes::kib(1.0));
        assert!(same_leaf < cross);
    }

    #[test]
    fn path_cost_reuse_matches_direct_calls() {
        let bad = NodeId(23);
        let net = cte_net().with_degraded_node(bad, Degradation::receive_fault(0.1));
        for (a, b) in [(0usize, 0usize), (0, 1), (5, 23), (23, 5), (0, 180)] {
            let (a, b) = (NodeId(a), NodeId(b));
            let cost = net.path_cost(a, b);
            for bytes in [0.0, 256.0, 65536.0, 4.0e6] {
                let direct = net.message_time(a, b, Bytes::new(bytes));
                let cached = net.message_time_with(&cost, Bytes::new(bytes));
                assert_eq!(direct, cached, "pair ({a}, {b}) at {bytes} B");
            }
        }
    }

    #[test]
    fn table_path_is_bit_identical_to_direct_path() {
        let direct = cte_net();
        let cached = cte_net();
        cached.routing_table();
        for (a, b) in [(0usize, 1usize), (0, 100), (37, 154), (191, 0)] {
            let (a, b) = (NodeId(a), NodeId(b));
            for bytes in [256.0, 65536.0, 8.0e6] {
                let td = direct.message_time(a, b, Bytes::new(bytes));
                let tc = cached.message_time(a, b, Bytes::new(bytes));
                assert_eq!(
                    td.value().to_bits(),
                    tc.value().to_bits(),
                    "table lookup must not perturb the time model"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "rx_factor must be in (0, 1]")]
    fn degradation_rejects_factor_above_one() {
        // The original bug: receive_fault(1.5) silently produced a
        // faster-than-healthy endpoint (negative effective degradation).
        let _ = Degradation::receive_fault(1.5);
    }

    #[test]
    #[should_panic(expected = "rx_factor must be in (0, 1]")]
    fn degradation_rejects_zero_factor() {
        let _ = Degradation::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "tx_factor must be in (0, 1]")]
    fn degradation_rejects_negative_tx() {
        let _ = Degradation::new(0.5, -0.1);
    }

    #[test]
    #[should_panic(expected = "rx_factor must be in (0, 1]")]
    fn degradation_rejects_nan() {
        let _ = Degradation::receive_fault(f64::NAN);
    }

    #[test]
    fn degradation_accepts_boundary_values() {
        let d = Degradation::new(1.0, 1.0);
        assert_eq!((d.rx_factor, d.tx_factor), (1.0, 1.0));
        let d = Degradation::send_fault(0.001);
        assert_eq!(d.rx_factor, 1.0);
        assert_eq!(d.tx_factor, 0.001);
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn with_degraded_node_validates_direct_struct_literals() {
        // Fields are public; the builder re-checks them.
        let _ = cte_net().with_degraded_node(
            NodeId(0),
            Degradation {
                rx_factor: 2.0,
                tx_factor: 1.0,
            },
        );
    }

    #[test]
    fn link_fault_adds_latency_to_both_directions() {
        let bad = NodeId(7);
        let extra = Time::micros(15.0);
        let net = cte_net().with_link_fault(bad, extra);
        let clean = cte_net();
        for (a, b) in [(NodeId(7), NodeId(50)), (NodeId(50), NodeId(7))] {
            let t_fault = net.message_time(a, b, Bytes::new(256.0));
            let t_clean = clean.message_time(a, b, Bytes::new(256.0));
            assert!(
                (t_fault.value() - t_clean.value() - extra.value()).abs() < 1e-15,
                "extra latency must appear verbatim"
            );
        }
        // Unrelated pairs are untouched, bit for bit.
        let t_fault = net.message_time(NodeId(0), NodeId(50), Bytes::kib(4.0));
        let t_clean = clean.message_time(NodeId(0), NodeId(50), Bytes::kib(4.0));
        assert_eq!(t_fault.value().to_bits(), t_clean.value().to_bits());
    }

    #[test]
    fn retransmit_fault_stretches_expected_time() {
        let bad = NodeId(3);
        // q = 0.5 → expected attempts 2, expected timeout charge 1·timeout.
        let net = cte_net().with_retransmit_fault(bad, 0.5, Time::micros(10.0));
        let clean = cte_net();
        let t_fault = net.message_time(NodeId(0), bad, Bytes::kib(64.0)).value();
        let t_clean = clean.message_time(NodeId(0), bad, Bytes::kib(64.0)).value();
        let expected = (t_clean + 10.0e-6) * 2.0;
        assert!(
            (t_fault - expected).abs() < 1e-15,
            "expected {expected}, got {t_fault}"
        );
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn retransmit_fault_rejects_certain_loss() {
        let _ = cte_net().with_retransmit_fault(NodeId(0), 1.0, Time::micros(1.0));
    }

    #[test]
    fn failed_node_never_completes_a_transfer() {
        let dead = NodeId(42);
        let net = cte_net().with_failed_node(dead);
        assert!(net.is_failed(dead));
        assert!(!net.is_failed(NodeId(41)));
        assert_eq!(net.failed_nodes(), vec![dead]);
        let t = net.message_time(NodeId(0), dead, Bytes::kib(1.0));
        assert!(t.value().is_infinite(), "transfer to a failed node hangs");
        let mut rng = Pcg32::seeded(9);
        let bw = net.measured_bandwidth(dead, NodeId(0), Bytes::kib(1.0), &mut rng);
        assert_eq!(bw.value(), 0.0, "zero measured bandwidth");
        // Healthy pairs still price bit-identically to a clean network.
        let clean = cte_net();
        let a = net.message_time(NodeId(0), NodeId(1), Bytes::kib(1.0));
        let b = clean.message_time(NodeId(0), NodeId(1), Bytes::kib(1.0));
        assert_eq!(a.value().to_bits(), b.value().to_bits());
    }

    #[test]
    fn neutral_fault_fields_are_bit_transparent() {
        // The fault terms ride in the hot per-message formula; with no
        // faults installed they must not perturb a single bit.
        let net = cte_net();
        for (a, b) in [(0usize, 1usize), (0, 100), (37, 154), (191, 0)] {
            let cost = net.path_cost(NodeId(a), NodeId(b));
            assert_eq!(cost.extra_s, 0.0);
            assert_eq!(cost.stretch, 1.0);
            for bytes in [0.0, 256.0, 65536.0, 8.0e6] {
                let t = net.message_time_with(&cost, Bytes::new(bytes));
                let healthy = net
                    .link
                    .message_time(Bytes::new(bytes), cost.hops, cost.sharing);
                assert_eq!(
                    t.value().to_bits(),
                    (healthy.value() / cost.health).to_bits()
                );
            }
        }
    }
}
