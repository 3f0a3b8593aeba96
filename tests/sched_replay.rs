//! Replay harness suite: the seed-deterministic workload generator, the
//! smoke table, and the committed golden under `tests/golden/sched/`.
//!
//! The smoke table runs a 300-job CTE-Arm workload with injected node
//! failures through every policy on the run-indexed allocator, and
//! formats the stats with shortest-roundtrip `Display` — so a single
//! changed bit anywhere in the scheduler shows up as a golden diff.
//! Regenerate after an intended model change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test sched_replay
//! git diff tests/golden/sched/
//! ```

use cluster_eval::schedreplay::{
    machine_topo, parse_policy, policy_name, run_replay, smoke, smoke_table, ReplayConfig,
};
use interconnect::topology::Topology;
use sched::{AllocationPolicy, ReplaySpec};

mod common;
use common::{at, THREAD_LADDER};

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
    assert_eq!(machine_topo("fugaku").expect("fugaku").nodes(), 158_976);
    assert_eq!(machine_topo("cte-arm").expect("cte-arm").nodes(), 192);
    assert!(machine_topo("summit").is_none());
    for name in ["best-fit", "first-fit", "random"] {
        let policy = parse_policy(name).expect("known policy");
        assert_eq!(policy_name(policy), name);
    }
    assert!(parse_policy("round-robin").is_none());
}
