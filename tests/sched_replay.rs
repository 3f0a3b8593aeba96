//! Replay harness suite: the seed-deterministic workload generator, the
//! smoke table, and the committed goldens under `tests/golden/sched/`.
//!
//! The smoke table runs a 300-job CTE-Arm workload with injected node
//! failures through every policy on the run-indexed allocator, and
//! formats the stats with shortest-roundtrip `Display` — so a single
//! changed bit anywhere in the scheduler shows up as a golden diff. The
//! mid-scale table runs the same four cases on a 5,184-node TofuD, where
//! best-fit often finds no single free run and falls back to first-fit
//! across many runs. Regenerate after an intended model change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test sched_replay
//! git diff tests/golden/sched/
//! ```
//!
//! The full-Fugaku picks (`tests/golden/sched/fugaku_3day.csv`) are too
//! slow for a debug build; CI diffs the release CLI's output against them.

use cluster_eval::schedreplay::{
    machine_topo, parse_policy, policy_name, run_replay, smoke, smoke_table, ReplayConfig,
};
use interconnect::tofu::TofuD;
use interconnect::topology::{NodeId, Topology};
use sched::{AllocationPolicy, Allocator, NodeFailure, ReplaySpec, Scheduler};
use simkit::units::Time;
use std::path::PathBuf;

mod common;
use common::{at, THREAD_LADDER};

/// Mid-scale replay: 1 day × 1,500 jobs on a `[12, 6, 6, 2, 3, 2]`
/// TofuD (5,184 nodes, 81 bitmap words), with a six-node failure burst
/// at midday.
const MID_DIMS: [usize; 6] = [12, 6, 6, 2, 3, 2];
const MID_DAYS: usize = 1;
const MID_JOBS_PER_DAY: usize = 1_500;
const MID_SEED: u64 = 7;

fn mid_table() -> String {
    let topo = TofuD::with_dims(MID_DIMS, [true, true, true, false, true, false]);
    let spec = ReplaySpec::new(topo.nodes(), MID_DAYS, MID_JOBS_PER_DAY);
    let failures: Vec<NodeFailure> = [40usize, 41, 97, 2_600, 4_100, 5_183]
        .iter()
        .map(|&n| NodeFailure {
            node: NodeId(n),
            at: Time::seconds(45_000.0),
        })
        .collect();
    let mut out = String::from(
        "policy,backfill,makespan_s,mean_wait_s,mean_compactness,utilization,requeued,abandoned\n",
    );
    for (policy, backfill) in [
        (AllocationPolicy::BestFitContiguous, true),
        (AllocationPolicy::FirstFit, true),
        (AllocationPolicy::Random, true),
        (AllocationPolicy::BestFitContiguous, false),
    ] {
        let allocator = Allocator::new(topo.clone(), policy, MID_SEED);
        let (_, s) = Scheduler::new(allocator, backfill)
            .run_with_failures(spec.generate(MID_SEED), failures.clone());
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            policy_name(policy),
            backfill,
            s.makespan.value(),
            s.mean_wait.value(),
            s.mean_compactness,
            s.utilization,
            s.requeued,
            s.abandoned,
        ));
    }
    out
}

#[test]
fn mid_scale_replay_matches_the_committed_golden() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/sched/mid.csv");
    let table = mid_table();
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0") {
        std::fs::write(&path, &table).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .expect("tests/golden/sched/mid.csv (UPDATE_GOLDEN=1 creates it)");
    assert_eq!(
        table, want,
        "mid-scale replay stats diverged from the golden"
    );
}

#[test]
fn smoke_table_is_identical_at_1_2_8_threads() {
    let baseline = at(1, smoke_table);
    assert_eq!(baseline.lines().count(), 5, "header + four policy rows");
    for threads in THREAD_LADDER {
        let table = at(threads, smoke_table);
        assert_eq!(table, baseline, "smoke table drifted at {threads} threads");
    }
}

#[test]
fn smoke_matches_the_committed_golden() {
    // `smoke()` itself diffs against tests/golden/sched/smoke.csv (or
    // regenerates it under UPDATE_GOLDEN); surface its message on failure.
    match smoke() {
        Ok(_) => {}
        Err(msg) => panic!("{msg}"),
    }
}

#[test]
fn replay_workload_is_seed_deterministic() {
    let spec = ReplaySpec::new(192, 2, 200);
    let a = spec.generate(9);
    let b = spec.generate(9);
    let c = spec.generate(10);
    assert_eq!(a.len(), spec.jobs());
    assert!(a.iter().zip(&b).all(|(x, y)| x.id == y.id
        && x.nodes == y.nodes
        && x.submit.value().to_bits() == y.submit.value().to_bits()
        && x.duration.value().to_bits() == y.duration.value().to_bits()));
    assert!(
        a.iter()
            .zip(&c)
            .any(|(x, y)| x.nodes != y.nodes
                || x.submit.value().to_bits() != y.submit.value().to_bits()),
        "different seeds should change the workload"
    );
}

#[test]
fn small_replay_is_deterministic_and_sane() {
    let config = ReplayConfig {
        machine: "cte-arm".into(),
        days: 1,
        jobs_per_day: 300,
        policy: AllocationPolicy::BestFitContiguous,
        seed: 3,
        backfill: true,
    };
    let a = run_replay(&config);
    let b = run_replay(&config);
    assert_eq!(a.nodes, 192);
    assert_eq!(a.jobs, 300);
    assert_eq!(
        a.stats.makespan.value().to_bits(),
        b.stats.makespan.value().to_bits()
    );
    assert_eq!(a.stats.utilization.to_bits(), b.stats.utilization.to_bits());
    assert_eq!(
        a.stats.mean_compactness.to_bits(),
        b.stats.mean_compactness.to_bits()
    );
    assert!(a.stats.utilization > 0.0 && a.stats.utilization <= 1.0);
    assert!(a.stats.makespan.value() > 0.0);
    let csv = a.to_csv();
    assert_eq!(csv.lines().count(), 2, "header + one row");
    assert!(a.to_text().contains("cte-arm"));
}

#[test]
fn machine_and_policy_names_roundtrip() {
    assert_eq!(
        machine_topo("fugaku").expect("fugaku").nodes(),
        arch::fugaku::FUGAKU_NODES
    );
    assert_eq!(machine_topo("cte-arm").expect("cte-arm").nodes(), 192);
    assert!(machine_topo("summit").is_none());
    for name in ["best-fit", "first-fit", "random"] {
        let policy = parse_policy(name).expect("known policy");
        assert_eq!(policy_name(policy), name);
    }
    assert!(parse_policy("round-robin").is_none());
}
