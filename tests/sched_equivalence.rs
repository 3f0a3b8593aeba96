//! Differential battery: the run-indexed [`Allocator`] versus the
//! retained scan [`OracleAllocator`].
//!
//! The fast allocator replaces the oracle's O(n) free-array scans with
//! boundary-tag run indexing, eligibility and summary bitmaps, and a
//! best-fit index of exact-length bins for short runs beside an ordered
//! set for long ones; it hands out runs of node ids where the oracle
//! picks a node list. Its contract is *pick identity*, not just equal
//! aggregates. These properties replay randomized workloads (with
//! injected node failures and deliberately colliding submit times)
//! through both implementations under every policy and demand identical
//! node picks, identical requeue/abandon behaviour, and bit-identical
//! statistics, under rayon pools of 1, 2 and 8 workers.
//!
//! The same file pins the closed-form compactness: `set_mean_hops`
//! (per-dimension run histograms, exact integer pair sums) must agree
//! bit-for-bit with the dense O(k²) pairwise walk it replaced.

use interconnect::folded::set_mean_hops;
use interconnect::placement::{id_runs, mean_pairwise_hops_dense};
use interconnect::tofu::TofuD;
use interconnect::topology::{NodeId, Topology};
use proptest::prelude::*;
use sched::{AllocationPolicy, Allocator, JobRequest, NodeFailure, OracleAllocator, Scheduler};
use simkit::units::Time;

mod common;
use common::{at, THREAD_LADDER};

const POLICIES: [AllocationPolicy; 3] = [
    AllocationPolicy::BestFitContiguous,
    AllocationPolicy::FirstFit,
    AllocationPolicy::Random,
];

/// A 5,184-node TofuD: 81 bitmap words, so first-fit walks cross more
/// than one 64-word stretch of the eligibility bitmap, which CTE-Arm's
/// three words never do.
fn mid_topo() -> TofuD {
    TofuD::with_dims([12, 6, 6, 2, 3, 2], [true, true, true, false, true, false])
}

/// Build requests from a compact plan. Submit times are drawn from a
/// coarse grid so equal submit times are common — the `(submit, id)`
/// sort key, not sort stability, must break those ties.
fn requests_from(plan: &[(usize, u32, u32)]) -> Vec<JobRequest> {
    plan.iter()
        .enumerate()
        .map(|(id, &(nodes, submit_slot, dur))| JobRequest {
            id,
            nodes,
            duration: Time::seconds(1.0 + dur as f64),
            submit: Time::seconds(submit_slot as f64 * 500.0),
        })
        .collect()
}

/// The same plan scaled to a cluster `scale` times CTE-Arm's size: each
/// request grows by `scale`, less a duration-derived remainder so sizes
/// are not all multiples of `scale`.
fn scaled_requests(plan: &[(usize, u32, u32)], scale: usize) -> Vec<JobRequest> {
    let mut requests = requests_from(plan);
    for r in &mut requests {
        let dur = r.duration.value() as usize;
        r.nodes = r.nodes * scale - dur % scale;
    }
    requests
}

fn failures_from(plan: &[(usize, u32)]) -> Vec<NodeFailure> {
    scaled_failures(plan, 1)
}

/// Failures spread over a cluster `scale` times CTE-Arm's size.
fn scaled_failures(plan: &[(usize, u32)], scale: usize) -> Vec<NodeFailure> {
    plan.iter()
        .map(|&(node, at)| NodeFailure {
            node: NodeId(node % 192 * scale + at as usize % scale),
            at: Time::seconds(at as f64),
        })
        .collect()
}

/// Everything observable about a finished run, with floats as bits.
#[derive(Debug, PartialEq, Eq)]
struct RunDigest {
    allocations: Vec<Vec<usize>>,
    starts: Vec<Option<u64>>,
    ends: Vec<Option<u64>>,
    compactness: Vec<u64>,
    requeues: Vec<u32>,
    abandoned: Vec<bool>,
    makespan: u64,
    mean_wait: u64,
    mean_compactness: u64,
    utilization: u64,
    stat_requeued: usize,
    stat_abandoned: usize,
    stat_failed_nodes: usize,
}

fn digest(jobs: &[sched::JobState], stats: &sched::SchedulerStats) -> RunDigest {
    RunDigest {
        allocations: jobs
            .iter()
            .map(|j| j.allocation.nodes().map(|n| n.index()).collect())
            .collect(),
        starts: jobs
            .iter()
            .map(|j| j.start.map(|t| t.value().to_bits()))
            .collect(),
        ends: jobs
            .iter()
            .map(|j| j.end.map(|t| t.value().to_bits()))
            .collect(),
        compactness: jobs.iter().map(|j| j.compactness.to_bits()).collect(),
        requeues: jobs.iter().map(|j| j.requeues).collect(),
        abandoned: jobs.iter().map(|j| j.abandoned).collect(),
        makespan: stats.makespan.value().to_bits(),
        mean_wait: stats.mean_wait.value().to_bits(),
        mean_compactness: stats.mean_compactness.to_bits(),
        utilization: stats.utilization.to_bits(),
        stat_requeued: stats.requeued,
        stat_abandoned: stats.abandoned,
        stat_failed_nodes: stats.failed_nodes,
    }
}

fn run_fast(
    policy: AllocationPolicy,
    backfill: bool,
    requests: Vec<JobRequest>,
    failures: Vec<NodeFailure>,
) -> RunDigest {
    run_fast_on(TofuD::cte_arm(), policy, backfill, requests, failures)
}

fn run_oracle(
    policy: AllocationPolicy,
    backfill: bool,
    requests: Vec<JobRequest>,
    failures: Vec<NodeFailure>,
) -> RunDigest {
    run_oracle_on(TofuD::cte_arm(), policy, backfill, requests, failures)
}

fn run_fast_on(
    topo: TofuD,
    policy: AllocationPolicy,
    backfill: bool,
    requests: Vec<JobRequest>,
    failures: Vec<NodeFailure>,
) -> RunDigest {
    let alloc = Allocator::new(topo, policy, 42);
    let (jobs, stats) = Scheduler::new(alloc, backfill).run_with_failures(requests, failures);
    digest(&jobs, &stats)
}

fn run_oracle_on(
    topo: TofuD,
    policy: AllocationPolicy,
    backfill: bool,
    requests: Vec<JobRequest>,
    failures: Vec<NodeFailure>,
) -> RunDigest {
    let alloc = OracleAllocator::new(topo, policy, 42);
    let (jobs, stats) = Scheduler::new(alloc, backfill).run_with_failures(requests, failures);
    digest(&jobs, &stats)
}

proptest! {
    /// Pick identity: every policy, with failures, fast ≡ oracle. The
    /// 5,184-node shape replays the same plan with job sizes scaled to it,
    /// under the two policies that walk free runs (the random policy
    /// shuffles every eligible id, which is slow in a debug build and
    /// walks no runs).
    #[test]
    fn optimized_allocator_matches_the_oracle(
        plan in proptest::collection::vec((1usize..=96, 0u32..8, 0u32..3000), 1..50),
        fails in proptest::collection::vec((0usize..192, 0u32..6000), 0..4),
        backfill in any::<bool>(),
    ) {
        let scale = mid_topo().nodes() / 192;
        let shapes = [
            (TofuD::cte_arm(), &POLICIES[..], requests_from(&plan), failures_from(&fails)),
            (
                mid_topo(),
                &POLICIES[..2],
                scaled_requests(&plan, scale),
                scaled_failures(&fails, scale),
            ),
        ];
        for (topo, policies, requests, failures) in shapes {
            for &policy in policies {
                let (r, f) = (requests.clone(), failures.clone());
                let fast = run_fast_on(topo.clone(), policy, backfill, r, f);
                let (r, f) = (requests.clone(), failures.clone());
                let slow = run_oracle_on(topo.clone(), policy, backfill, r, f);
                prop_assert_eq!(
                    &fast, &slow,
                    "policy {:?} diverged from the oracle on {} nodes", policy, topo.nodes()
                );
            }
        }
    }

    /// Thread-pool independence: the digest is identical at 1, 2 and 8
    /// rayon workers, for both implementations.
    #[test]
    fn digests_are_identical_across_thread_pools(
        plan in proptest::collection::vec((1usize..=96, 0u32..8, 0u32..3000), 1..30),
        fails in proptest::collection::vec((0usize..192, 0u32..6000), 0..3),
    ) {
        let requests = requests_from(&plan);
        let failures = failures_from(&fails);
        for policy in POLICIES {
            let baseline = at(1, || run_fast(policy, true, requests.clone(), failures.clone()));
            for threads in THREAD_LADDER {
                let fast = at(threads, || run_fast(policy, true, requests.clone(), failures.clone()));
                let slow = at(threads, || run_oracle(policy, true, requests.clone(), failures.clone()));
                prop_assert_eq!(&fast, &baseline, "{:?} drifted at {} threads", policy, threads);
                prop_assert_eq!(&slow, &baseline, "oracle {:?} drifted at {} threads", policy, threads);
            }
        }
    }

    /// Closed-form compactness ≡ dense pairwise walk, bit for bit, on
    /// arbitrary node sets of the full Fugaku torus.
    #[test]
    fn closed_form_hops_match_the_dense_walk_bitwise(
        raw in proptest::collection::vec(0usize..158_976, 2..120),
    ) {
        let mut ids = raw.clone();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() < 2 {
            return;
        }
        let topo = cluster_eval::faults::fugaku_topo();
        let nodes: Vec<NodeId> = ids.into_iter().map(NodeId).collect();
        let runs = id_runs(&nodes).expect("ascending ids");
        let closed = set_mean_hops(&topo, &runs).expect("in-bounds nodes");
        let dense = mean_pairwise_hops_dense(&topo, &nodes);
        prop_assert_eq!(closed.to_bits(), dense.to_bits());
    }
}

/// Jobs submitted at the same instant must dispatch in id order — the
/// explicit `(submit, id)` key, pinned against both allocators.
#[test]
fn equal_submit_times_dispatch_in_id_order() {
    let requests: Vec<JobRequest> = (0..8)
        .map(|id| JobRequest {
            id,
            nodes: 48,
            duration: Time::seconds(1000.0),
            submit: Time::seconds(0.0),
        })
        .collect();
    for policy in POLICIES {
        let fast = run_fast(policy, true, requests.clone(), Vec::new());
        let slow = run_oracle(policy, true, requests.clone(), Vec::new());
        assert_eq!(fast, slow);
        // 192 nodes / 48 per job = 4 at a time: ids 0-3 first, 4-7 after.
        let mut starts: Vec<f64> = Vec::new();
        for s in &fast.starts {
            starts.push(f64::from_bits(s.expect("all jobs run")));
        }
        for w in starts.windows(2) {
            assert!(w[0] <= w[1], "later id started earlier: {starts:?}");
        }
        assert!(
            starts[3] < starts[4],
            "second wave should queue: {starts:?}"
        );
    }
}

/// A failure mid-run kills and requeues the victim; both allocators
/// agree on the victim, the requeue count, and the re-placement.
#[test]
fn failure_requeues_are_identical_fast_vs_oracle() {
    let requests: Vec<JobRequest> = (0..6)
        .map(|id| JobRequest {
            id,
            nodes: 64,
            duration: Time::seconds(5000.0),
            submit: Time::seconds(id as f64),
        })
        .collect();
    let failures = vec![NodeFailure {
        node: NodeId(10),
        at: Time::seconds(2500.0),
    }];
    for policy in POLICIES {
        let fast = run_fast(policy, true, requests.clone(), failures.clone());
        let slow = run_oracle(policy, true, requests.clone(), failures.clone());
        assert_eq!(fast, slow);
        assert_eq!(fast.stat_failed_nodes, 1);
        assert!(
            fast.stat_requeued >= 1,
            "{policy:?}: the failure at t=2500 should kill a running job"
        );
    }
}
