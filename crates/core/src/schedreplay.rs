//! Full-scale scheduler replays behind `cluster-eval sched-replay`.
//!
//! The paper evaluates CTE-Arm as a *production shared system*; this
//! module replays months of synthetic production (Section II's
//! topology-aware FCFS + backfill scheduler) at full-Fugaku node counts.
//! The run-indexed allocator and the closed-form compactness fold make a
//! month of 40,000 jobs/day at 158,976 nodes a seconds-scale single-thread
//! computation — the workload the ROADMAP's "month-long production
//! scheduler replays" follow-on asked for.
//!
//! `smoke()` is the CI self-test: a small deterministic replay (with an
//! injected failure burst) runs through the run-indexed allocator on every
//! policy and pins the stats against `tests/golden/sched/smoke.csv`
//! (`UPDATE_GOLDEN=1` regenerates). Pick identity with the scan-based
//! [`sched::OracleAllocator`] is pinned by `tests/sched_equivalence.rs`.

use interconnect::tofu::TofuD;
use interconnect::topology::{NodeId, Topology};
use sched::{AllocationPolicy, Allocator, NodeFailure, ReplaySpec, Scheduler, SchedulerStats};
use simkit::units::Time;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Configuration of one replay run.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Machine name (`fugaku` or `cte-arm`).
    pub machine: String,
    /// Days of submissions.
    pub days: usize,
    /// Jobs per day.
    pub jobs_per_day: usize,
    /// Allocation policy.
    pub policy: AllocationPolicy,
    /// Workload and allocator seed.
    pub seed: u64,
    /// EASY backfill (default) vs strict FCFS.
    pub backfill: bool,
}

impl ReplayConfig {
    /// The ISSUE's headline run: a month of full-Fugaku production.
    pub fn fugaku_month() -> Self {
        Self {
            machine: "fugaku".into(),
            days: 30,
            jobs_per_day: 40_000,
            policy: AllocationPolicy::BestFitContiguous,
            seed: 1,
            backfill: true,
        }
    }
}

/// Result of a replay: the scheduler stats plus replay throughput.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The configuration replayed.
    pub config: ReplayConfig,
    /// Cluster size of the machine.
    pub nodes: usize,
    /// Jobs replayed.
    pub jobs: usize,
    /// Wall time of generate + simulate, seconds.
    pub wall_s: f64,
    /// Jobs simulated per wall-clock second.
    pub jobs_per_sec: f64,
    /// Aggregate scheduler statistics.
    pub stats: SchedulerStats,
}

/// Resolve a machine name to its TofuD shape.
pub fn machine_topo(name: &str) -> Option<TofuD> {
    match name {
        "fugaku" => Some(crate::faults::fugaku_topo()),
        "cte-arm" => Some(TofuD::cte_arm()),
        _ => None,
    }
}

/// Parse a CLI policy name.
pub fn parse_policy(name: &str) -> Option<AllocationPolicy> {
    match name {
        "best-fit" => Some(AllocationPolicy::BestFitContiguous),
        "first-fit" => Some(AllocationPolicy::FirstFit),
        "random" => Some(AllocationPolicy::Random),
        _ => None,
    }
}

/// Render a policy the way the CLI spells it.
pub fn policy_name(policy: AllocationPolicy) -> &'static str {
    match policy {
        AllocationPolicy::BestFitContiguous => "best-fit",
        AllocationPolicy::FirstFit => "first-fit",
        AllocationPolicy::Random => "random",
    }
}

/// Run one replay. Allocations are not retained per job — at a million
/// jobs the node lists would dominate memory without informing the stats.
///
/// # Panics
/// Panics on an unknown machine name.
pub fn run_replay(config: &ReplayConfig) -> ReplayOutcome {
    let topo = machine_topo(&config.machine)
        .unwrap_or_else(|| panic!("unknown machine '{}'", config.machine));
    let nodes = topo.nodes();
    let spec = ReplaySpec::new(nodes, config.days, config.jobs_per_day);
    let t0 = Instant::now();
    let workload = spec.generate(config.seed);
    let jobs = workload.len();
    let allocator = Allocator::new(topo, config.policy, config.seed);
    let (_, stats) = Scheduler::new(allocator, config.backfill)
        .retain_allocations(false)
        .run(workload);
    let wall_s = t0.elapsed().as_secs_f64();
    ReplayOutcome {
        config: config.clone(),
        nodes,
        jobs,
        wall_s,
        jobs_per_sec: if wall_s > 0.0 {
            jobs as f64 / wall_s
        } else {
            0.0
        },
        stats,
    }
}

impl ReplayOutcome {
    /// Human-readable report.
    pub fn to_text(&self) -> String {
        let c = &self.config;
        let s = &self.stats;
        format!(
            "sched-replay: {} ({} nodes), {} days x {} jobs/day = {} jobs\n\
               policy {}, backfill {}, seed {}\n\
               replayed in {:.2} s ({:.0} jobs/s)\n\
               makespan {:.2} days  utilization {:.1} %  mean wait {:.1} min  \
             mean compactness {:.3} hops\n\
               failed nodes {}  requeued {}  abandoned {}\n",
            c.machine,
            self.nodes,
            c.days,
            c.jobs_per_day,
            self.jobs,
            policy_name(c.policy),
            if c.backfill { "on" } else { "off" },
            c.seed,
            self.wall_s,
            self.jobs_per_sec,
            s.makespan.value() / 86_400.0,
            s.utilization * 100.0,
            s.mean_wait.value() / 60.0,
            s.mean_compactness,
            s.failed_nodes,
            s.requeued,
            s.abandoned,
        )
    }

    /// One CSV row (with header) of the deterministic fields plus timing.
    pub fn to_csv(&self) -> String {
        let c = &self.config;
        let s = &self.stats;
        format!(
            "machine,nodes,days,jobs_per_day,jobs,policy,backfill,seed,wall_s,jobs_per_sec,\
             makespan_s,mean_wait_s,mean_compactness,utilization,requeued,abandoned\n\
             {},{},{},{},{},{},{},{},{:.3},{:.0},{},{},{},{},{},{}\n",
            c.machine,
            self.nodes,
            c.days,
            c.jobs_per_day,
            self.jobs,
            policy_name(c.policy),
            c.backfill,
            c.seed,
            self.wall_s,
            self.jobs_per_sec,
            s.makespan.value(),
            s.mean_wait.value(),
            s.mean_compactness,
            s.utilization,
            s.requeued,
            s.abandoned,
        )
    }
}

// ---------------------------------------------------------------------------
// Smoke test: golden stats.
// ---------------------------------------------------------------------------

/// Smoke-replay scale: 2 days × 150 jobs/day on CTE-Arm.
const SMOKE_DAYS: usize = 2;
const SMOKE_JOBS_PER_DAY: usize = 150;
const SMOKE_SEED: u64 = 7;

fn smoke_failures() -> Vec<NodeFailure> {
    // A three-node burst mid-way through day 1: exercises the kill /
    // requeue / drain path.
    [40usize, 41, 97]
        .iter()
        .map(|&n| NodeFailure {
            node: NodeId(n),
            at: Time::seconds(45_000.0),
        })
        .collect()
}

fn smoke_stats_row(policy: AllocationPolicy, backfill: bool) -> String {
    let spec = ReplaySpec::new(192, SMOKE_DAYS, SMOKE_JOBS_PER_DAY);
    let workload = spec.generate(SMOKE_SEED);
    let allocator = Allocator::new(TofuD::cte_arm(), policy, SMOKE_SEED);
    let (_, s) = Scheduler::new(allocator, backfill).run_with_failures(workload, smoke_failures());
    // `{}` on f64 prints the shortest round-trip representation, so the
    // golden pins exact bits while staying readable.
    format!(
        "{},{},{},{},{},{},{},{}\n",
        policy_name(policy),
        backfill,
        s.makespan.value(),
        s.mean_wait.value(),
        s.mean_compactness,
        s.utilization,
        s.requeued,
        s.abandoned,
    )
}

/// The golden file the smoke compares against.
fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/sched/smoke.csv")
}

/// Render the smoke table: every policy with backfill, plus strict FCFS
/// under the production policy, each row produced by the run-indexed
/// allocator.
pub fn smoke_table() -> String {
    let mut out = String::from(
        "policy,backfill,makespan_s,mean_wait_s,mean_compactness,utilization,requeued,abandoned\n",
    );
    let cases = [
        (AllocationPolicy::BestFitContiguous, true),
        (AllocationPolicy::FirstFit, true),
        (AllocationPolicy::Random, true),
        (AllocationPolicy::BestFitContiguous, false),
    ];
    for (policy, backfill) in cases {
        out.push_str(&smoke_stats_row(policy, backfill));
    }
    out
}

/// Run the smoke: compare the smoke table against the golden. With
/// `UPDATE_GOLDEN=1` in the environment the golden is rewritten instead.
///
/// # Errors
/// Returns a description of any divergence or I/O failure.
pub fn smoke() -> Result<String, String> {
    let table = smoke_table();
    let path = golden_path();
    let updating = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0");
    if updating {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .map_err(|e| format!("creating {}: {e}", path.display()))?;
        std::fs::write(&path, &table).map_err(|e| format!("writing {}: {e}", path.display()))?;
        return Ok(format!("updated {}", path.display()));
    }
    let want = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "reading {} (run with UPDATE_GOLDEN=1 to create): {e}",
            path.display()
        )
    })?;
    if want != table {
        let mut msg = String::from(
            "sched smoke stats diverged from the golden \
             (UPDATE_GOLDEN=1 cluster-eval sched-replay --smoke to regenerate):\n",
        );
        for (g, n) in want.lines().zip(table.lines()) {
            if g != n {
                let _ = writeln!(msg, "  golden: {g}\n  now:    {n}");
            }
        }
        return Err(msg);
    }
    Ok(format!(
        "{} policies x {} jobs byte-identical to the golden",
        4,
        SMOKE_DAYS * SMOKE_JOBS_PER_DAY
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_names_resolve() {
        assert_eq!(
            machine_topo("fugaku").unwrap().nodes(),
            arch::fugaku::FUGAKU_NODES
        );
        assert_eq!(machine_topo("cte-arm").unwrap().nodes(), 192);
        assert!(machine_topo("summit").is_none());
    }

    #[test]
    fn policy_names_roundtrip() {
        for p in [
            AllocationPolicy::BestFitContiguous,
            AllocationPolicy::FirstFit,
            AllocationPolicy::Random,
        ] {
            assert_eq!(parse_policy(policy_name(p)), Some(p));
        }
        assert!(parse_policy("worst-fit").is_none());
    }

    #[test]
    fn small_replay_reports_sane_numbers() {
        let cfg = ReplayConfig {
            machine: "cte-arm".into(),
            days: 1,
            jobs_per_day: 120,
            policy: AllocationPolicy::BestFitContiguous,
            seed: 3,
            backfill: true,
        };
        let out = run_replay(&cfg);
        assert_eq!(out.jobs, 120);
        assert_eq!(out.nodes, 192);
        assert!(out.stats.utilization > 0.0 && out.stats.utilization <= 1.0);
        assert!(out.stats.makespan.value() > 0.0);
        assert!(out.jobs_per_sec > 0.0);
        assert!(out.to_text().contains("cte-arm (192 nodes)"));
        assert!(out.to_csv().starts_with("machine,nodes,"));
    }

    #[test]
    fn smoke_table_is_deterministic() {
        let a = smoke_table();
        let b = smoke_table();
        assert_eq!(a, b, "smoke stats are run-to-run deterministic");
        assert_eq!(a.lines().count(), 5, "header + 4 cases");
        assert!(a.contains("best-fit,true"));
        assert!(a.contains("best-fit,false"));
    }

    #[test]
    fn smoke_matches_the_committed_golden() {
        // The same check CI runs via `cluster-eval sched-replay --smoke`.
        let msg = smoke().expect("golden in sync");
        assert!(msg.contains("byte-identical"));
    }
}
