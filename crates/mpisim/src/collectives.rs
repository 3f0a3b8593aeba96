//! Collective-operation cost formulas.
//!
//! Costs follow the classic Hockney-style decomposition. A collective over
//! `p` participants with payload `n` bytes and representative point-to-point
//! time `ptp(n)` costs:
//!
//! | collective | binomial tree | ring |
//! |---|---|---|
//! | allreduce  | `2⌈log₂ p⌉ · ptp(n)` (reduce + bcast) | `2(p−1) · ptp(n/p)` |
//! | alltoall   | `(p−1) · ptp(n)` (pairwise exchange) | same |
//!
//! Real MPI libraries switch algorithm by message size; [`CollectiveAlgo::Auto`]
//! mimics that (tree below 16 KiB per-rank payload, ring above).

use simkit::units::{Bytes, Time};

/// Allreduce algorithm selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveAlgo {
    /// Latency-optimal binomial tree / recursive doubling.
    BinomialTree,
    /// Bandwidth-optimal ring.
    Ring,
    /// Size-based switch like production MPI libraries.
    Auto,
}

impl CollectiveAlgo {
    fn resolve(self, bytes: Bytes) -> CollectiveAlgo {
        match self {
            CollectiveAlgo::Auto => {
                if bytes.value() < 16.0 * 1024.0 {
                    CollectiveAlgo::BinomialTree
                } else {
                    CollectiveAlgo::Ring
                }
            }
            other => other,
        }
    }
}

fn ceil_log2(p: usize) -> f64 {
    if p <= 1 {
        0.0
    } else {
        (usize::BITS - (p - 1).leading_zeros()) as f64
    }
}

/// Allreduce of `bytes` across `p` participants.
pub fn allreduce(
    p: usize,
    bytes: Bytes,
    algo: CollectiveAlgo,
    ptp: impl Fn(Bytes) -> Time,
) -> Time {
    if p <= 1 {
        return Time::ZERO;
    }
    match algo.resolve(bytes) {
        CollectiveAlgo::BinomialTree => ptp(bytes) * (2.0 * ceil_log2(p)),
        // Rabenseifner ring: reduce-scatter + allgather.
        CollectiveAlgo::Ring => ptp(bytes / p as f64) * (2 * (p - 1)) as f64,
        CollectiveAlgo::Auto => unreachable!("resolved above"),
    }
}

/// All-to-all personalized exchange where each participant sends `bytes` to
/// every other (pairwise-exchange algorithm, `p−1` rounds).
pub fn alltoall(p: usize, bytes: Bytes, ptp: impl Fn(Bytes) -> Time) -> Time {
    if p <= 1 {
        return Time::ZERO;
    }
    ptp(bytes) * (p - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_ptp(alpha_us: f64, beta_gbps: f64) -> impl Fn(Bytes) -> Time {
        move |b: Bytes| Time::micros(alpha_us) + Time::seconds(b.value() / (beta_gbps * 1e9))
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0.0);
        assert_eq!(ceil_log2(2), 1.0);
        assert_eq!(ceil_log2(3), 2.0);
        assert_eq!(ceil_log2(4), 2.0);
        assert_eq!(ceil_log2(192), 8.0);
    }

    #[test]
    fn singleton_collectives_are_free() {
        let ptp = linear_ptp(1.0, 6.8);
        assert_eq!(
            allreduce(1, Bytes::kib(4.0), CollectiveAlgo::Auto, &ptp),
            Time::ZERO
        );
        assert_eq!(alltoall(1, Bytes::kib(4.0), &ptp), Time::ZERO);
    }

    #[test]
    fn tree_wins_small_ring_wins_large() {
        let ptp = linear_ptp(1.0, 6.8);
        let p = 64;
        let small = Bytes::new(8.0);
        let large = Bytes::mib(64.0);
        let tree_small = allreduce(p, small, CollectiveAlgo::BinomialTree, &ptp);
        let ring_small = allreduce(p, small, CollectiveAlgo::Ring, &ptp);
        assert!(tree_small < ring_small);
        let tree_large = allreduce(p, large, CollectiveAlgo::BinomialTree, &ptp);
        let ring_large = allreduce(p, large, CollectiveAlgo::Ring, &ptp);
        assert!(ring_large < tree_large);
    }

    #[test]
    fn auto_matches_best_choice_at_extremes() {
        let ptp = linear_ptp(1.0, 6.8);
        let p = 32;
        let small = Bytes::new(64.0);
        assert_eq!(
            allreduce(p, small, CollectiveAlgo::Auto, &ptp),
            allreduce(p, small, CollectiveAlgo::BinomialTree, &ptp)
        );
        let large = Bytes::mib(8.0);
        assert_eq!(
            allreduce(p, large, CollectiveAlgo::Auto, &ptp),
            allreduce(p, large, CollectiveAlgo::Ring, &ptp)
        );
    }

    #[test]
    fn alltoall_linear_in_participants() {
        let ptp = linear_ptp(1.0, 6.8);
        let t8 = alltoall(8, Bytes::kib(64.0), &ptp);
        let t16 = alltoall(16, Bytes::kib(64.0), &ptp);
        let ratio = t16.value() / t8.value();
        assert!((ratio - 15.0 / 7.0).abs() < 1e-9);
    }
}
