//! Figs. 4 & 5 — OSU-style point-to-point network studies on CTE-Arm.

use interconnect::link::LinkModel;
use interconnect::network::{Degradation, Network};
use interconnect::tofu::TofuD;
use interconnect::topology::{NodeId, Topology};
use simkit::cache::{Cache, CacheKey};
use simkit::rng::Pcg32;
use simkit::stats::Histogram;
use simkit::units::Bytes;

/// The node the paper found with crippled receive bandwidth: hostname
/// `arms0b1-11c`, which the rack/board/shelf codec
/// ([`interconnect::hostname`]) maps to node 18 (rack 0, board 1,
/// shelf 11, slot c).
pub const DEGRADED_NODE: NodeId = NodeId(18);

/// Receive-side bandwidth factor of the degraded node.
pub const DEGRADED_RX_FACTOR: f64 = 0.08;

/// Build the CTE-Arm network as measured: TofuD with the one faulty
/// receiver.
pub fn cte_network() -> Network<TofuD> {
    Network::new(TofuD::cte_arm(), LinkModel::tofud()).with_degraded_node(
        DEGRADED_NODE,
        Degradation::receive_fault(DEGRADED_RX_FACTOR),
    )
}

/// Fig. 4 — the 192×192 node-pair bandwidth map at 256 B messages.
/// `map[sender][receiver]` in GB/s; the diagonal is zero.
pub fn figure4(seed: u64) -> Vec<Vec<f64>> {
    let net = cte_network();
    let mut rng = Pcg32::seeded(seed);
    net.pairwise_bandwidth_map(Bytes::new(256.0), &mut rng)
}

/// [`figure4`] through a [`Cache`]: the 192×192 map is the most expensive
/// microbenchmark sweep, and extension experiments revisit it.
pub fn figure4_cached(cache: &Cache, seed: u64) -> Vec<Vec<f64>> {
    let key = CacheKey::new("CTE-Arm", "osu-map", format!("seed={seed}|msg=256B"));
    cache.get_or_persistent(key, || figure4(seed))
}

/// Summary statistics extracted from a Fig.-4 map.
#[derive(Debug, Clone)]
pub struct PairMapSummary {
    /// Mean bandwidth over off-diagonal pairs (GB/s).
    pub mean: f64,
    /// Per-receiver column means (GB/s).
    pub rx_means: Vec<f64>,
    /// Per-sender row means (GB/s).
    pub tx_means: Vec<f64>,
}

/// Reduce a pair map to its per-node means.
pub fn summarize_map(map: &[Vec<f64>]) -> PairMapSummary {
    let n = map.len();
    let mut rx = vec![0.0; n];
    let mut tx = vec![0.0; n];
    let mut total = 0.0;
    for (s, row) in map.iter().enumerate() {
        for (r, &bw) in row.iter().enumerate() {
            if s == r {
                continue;
            }
            tx[s] += bw;
            rx[r] += bw;
            total += bw;
        }
    }
    let denom = (n - 1) as f64;
    PairMapSummary {
        mean: total / (n as f64 * denom),
        rx_means: rx.into_iter().map(|v| v / denom).collect(),
        tx_means: tx.into_iter().map(|v| v / denom).collect(),
    }
}

/// The message sizes of Fig. 5: powers of two from 1 B to 4 MiB.
pub fn figure5_sizes() -> Vec<usize> {
    (0..=22).map(|i| 1usize << i).collect()
}

/// One row of Fig. 5: the distribution of pair bandwidths at one size.
#[derive(Debug, Clone)]
pub struct BandwidthDistribution {
    /// Message size in bytes.
    pub size: usize,
    /// Histogram of pair bandwidths (GB/s).
    pub histogram: Histogram,
    /// Coefficient of variation across pairs.
    pub cv: f64,
}

/// Fig. 5 — for each message size, the distribution of bandwidth across a
/// deterministic sample of node pairs (`pairs_per_size` of them).
pub fn figure5(seed: u64, pairs_per_size: usize) -> Vec<BandwidthDistribution> {
    let net = cte_network();
    let mut rng = Pcg32::seeded(seed);
    let n = net.topology().nodes();
    figure5_sizes()
        .into_iter()
        .map(|size| {
            let mut values = Vec::with_capacity(pairs_per_size);
            for _ in 0..pairs_per_size {
                let a = rng.next_below(n as u32) as usize;
                let mut b = rng.next_below(n as u32) as usize;
                while b == a {
                    b = rng.next_below(n as u32) as usize;
                }
                let bw = net
                    .measured_bandwidth(NodeId(a), NodeId(b), Bytes::new(size as f64), &mut rng)
                    .as_gb_per_sec();
                values.push(bw);
            }
            let max = values.iter().fold(0.0f64, |m, &v| m.max(v)) * 1.02 + 1e-9;
            let mut histogram = Histogram::new(0.0, max, 40);
            for &v in &values {
                histogram.record(v);
            }
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
            BandwidthDistribution {
                size,
                histogram,
                cv: var.sqrt() / mean,
            }
        })
        .collect()
}

/// [`figure5`] through a [`Cache`]. The whole sweep is cached as one value:
/// its sampled pairs come from a single rng stream, so splitting it per
/// size would change the numbers.
pub fn figure5_cached(
    cache: &Cache,
    seed: u64,
    pairs_per_size: usize,
) -> Vec<BandwidthDistribution> {
    let key = CacheKey::new(
        "CTE-Arm",
        "osu-dist",
        format!("seed={seed}|pairs={pairs_per_size}"),
    );
    cache.get_or_persistent(key, || figure5(seed, pairs_per_size))
}

impl serde::bin::Encode for BandwidthDistribution {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.size as u64).encode(out);
        self.histogram.encode(out);
        self.cv.encode(out);
    }
}

impl serde::bin::Decode for BandwidthDistribution {
    fn decode(r: &mut serde::bin::Reader<'_>) -> Result<Self, serde::bin::DecodeError> {
        Ok(BandwidthDistribution {
            size: u64::decode(r)? as usize,
            histogram: Histogram::decode(r)?,
            cv: f64::decode(r)?,
        })
    }
}

impl simkit::store::StoreValue for BandwidthDistribution {
    const TYPE_NAME: &'static str = "microbench::BandwidthDistribution";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_dimensions_and_diagonal() {
        let map = figure4(1);
        assert_eq!(map.len(), 192);
        for (i, row) in map.iter().enumerate() {
            assert_eq!(row.len(), 192);
            assert_eq!(row[i], 0.0);
        }
    }

    #[test]
    fn degraded_node_is_bad_receiver_good_sender() {
        let map = figure4(2);
        let s = summarize_map(&map);
        let bad = DEGRADED_NODE.index();
        // Worst receiver column by a wide margin.
        let min_rx = s
            .rx_means
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        assert_eq!(min_rx.0, bad, "degraded node is the worst receiver");
        assert!(*min_rx.1 < 0.5 * s.mean, "receive bandwidth crippled");
        // As a sender it is unremarkable (within 10 % of the mean).
        let tx_ratio = s.tx_means[bad] / s.mean;
        assert!(
            (tx_ratio - 1.0).abs() < 0.1,
            "sender side looks healthy: ratio {tx_ratio}"
        );
    }

    #[test]
    fn diagonal_locality_pattern_exists() {
        // Pairs within a Tofu unit (|i−j| < 12 within the same block)
        // outperform cross-machine pairs, producing Fig. 4's diagonal bands.
        let map = figure4(3);
        let near = map[0][1];
        let far = map[0][100];
        assert!(near > far, "near {near} vs far {far}");
    }

    #[test]
    fn small_message_bandwidth_is_latency_dominated() {
        let map = figure4(4);
        let s = summarize_map(&map);
        // 256 B at ~1.5 µs ⇒ ~0.15 GB/s, far below the 6.8 GB/s link peak.
        assert!(s.mean < 0.3, "mean {}", s.mean);
        assert!(s.mean > 0.05, "mean {}", s.mean);
    }

    #[test]
    fn fig5_covers_all_sizes() {
        let dists = figure5(5, 400);
        assert_eq!(dists.len(), 23);
        assert_eq!(dists[0].size, 1);
        assert_eq!(dists[22].size, 4 * 1024 * 1024);
    }

    #[test]
    fn mid_sizes_are_bimodal() {
        // The paper notes a bimodal distribution between 1 KiB and 256 KiB:
        // in-unit pairs vs trunk-sharing pairs.
        let dists = figure5(6, 2000);
        let mid = dists
            .iter()
            .find(|d| d.size == 64 * 1024)
            .expect("64 KiB row present");
        let modes = mid.histogram.smoothed(3).modes(30);
        assert!(
            modes.len() >= 2,
            "expected ≥ 2 modes at 64 KiB, found {:?}",
            modes
        );
    }

    #[test]
    fn large_messages_show_high_variability() {
        let dists = figure5(7, 800);
        let small_cv = dists.iter().find(|d| d.size == 4096).unwrap().cv;
        let large_cv = dists.iter().find(|d| d.size == 4 * 1024 * 1024).unwrap().cv;
        assert!(
            large_cv > 1.5 * small_cv,
            "variability must grow: {small_cv} -> {large_cv}"
        );
    }

    #[test]
    fn degraded_node_matches_the_papers_hostname() {
        assert_eq!(
            interconnect::hostname::parse_hostname("arms0b1-11c"),
            Some(DEGRADED_NODE)
        );
        assert_eq!(
            interconnect::hostname::hostname(DEGRADED_NODE),
            "arms0b1-11c"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = figure4(42);
        let b = figure4(42);
        assert_eq!(a, b);
    }
}
