//! `sched-replay`: repeated 3-day full-Fugaku production replays.
//!
//! The `sched` row of `BENCH_host.json` at full scale: 158,976 nodes,
//! 40,000 jobs a day for three days (120,000 jobs), best-fit allocation
//! with EASY backfill. A replay is `ReplaySpec::generate` followed by
//! `Scheduler::run`; it is the only path through the allocator, the queue
//! and `interconnect::folded::set_mean_hops`, and touches no app model,
//! store or serve code.
//!
//! A replay's cost depends on its job set: replays of twelve `ReplaySpec`
//! seeds took 1.3-2.3 s, and each seed kept its place within ~10 % when
//! replayed again. A run therefore draws a new job set from its seed every
//! [`REPLAYS_PER_SET`] replays, so its median spans several, and a set's
//! second replay must reproduce the statistics of its first bit for bit.
//!
//! Traced, a replay is a root span `replay` holding `sched.generate` and
//! `sched.schedule`.

use crate::stats::{median, Outcome};
use crate::trace::{Scope, Tracer};
use crate::Budget;
use cluster_eval::faults::fugaku_topo;
use cluster_eval::schedreplay::{self, run_replay, ReplayConfig};
use sched::{AllocationPolicy, Allocator, ReplaySpec, Scheduler, SchedulerStats};
use simkit::rng::Pcg32;
use std::time::Instant;

/// Nodes of `fugaku_topo()`.
const NODES: usize = 158_976;
const DAYS: usize = 3;
const JOBS_PER_DAY: usize = 40_000;
/// Replays measured even when `--seconds` is shorter than they take.
const MIN_REPLAYS: usize = 3;
/// Untraced replays of each job set: the first is the set's reference and
/// the second must repeat it. A 25 s run covers seven to nine sets.
const REPLAYS_PER_SET: usize = 2;

struct Replay {
    wall_s: f64,
    jobs: usize,
    stats: SchedulerStats,
}

/// One replay. Untraced, it is `schedreplay::run_replay`, the function
/// behind `cluster-eval sched-replay`. Traced, it repeats run_replay's
/// steps with a span around generation and one around scheduling.
fn replay(seed: u64, tracer: Option<(&Tracer, u64)>) -> Replay {
    let Some(tracer) = tracer else {
        let o = run_replay(&ReplayConfig {
            machine: "fugaku".into(),
            days: DAYS,
            jobs_per_day: JOBS_PER_DAY,
            policy: AllocationPolicy::BestFitContiguous,
            seed,
            backfill: true,
        });
        return Replay {
            wall_s: o.wall_s,
            jobs: o.jobs,
            stats: o.stats,
        };
    };
    let t0 = Instant::now();
    let scope = Scope::open(Some(tracer), "replay");
    let jobs = scope.child("sched.generate", || {
        ReplaySpec::new(NODES, DAYS, JOBS_PER_DAY).generate(seed)
    });
    let n = jobs.len();
    let (_, stats) = scope.child("sched.schedule", || {
        let allocator = Allocator::new(fugaku_topo(), AllocationPolicy::BestFitContiguous, seed);
        Scheduler::new(allocator, true)
            .retain_allocations(false)
            .run(jobs)
    });
    scope.close();
    Replay {
        wall_s: t0.elapsed().as_secs_f64(),
        jobs: n,
        stats,
    }
}

/// Every field of the stats as exact bits, for bit-identity checks.
fn bits(s: &SchedulerStats) -> [u64; 7] {
    [
        s.makespan.value().to_bits(),
        s.mean_wait.value().to_bits(),
        s.mean_compactness.to_bits(),
        s.utilization.to_bits(),
        s.failed_nodes as u64,
        s.requeued as u64,
        s.abandoned as u64,
    ]
}

pub struct Setup {
    /// Draws each job set's `ReplaySpec` seed from the workload seed.
    seeds: Pcg32,
}

/// `ReplaySpec` seed of the warm-up replay. It is the same for every
/// workload seed, so `setup_s` times the same work on every run.
const WARM_UP_SEED: u64 = 0;

/// Run the scheduler smoke (run-indexed allocator against the oracle and
/// the committed golden), then one warm-up replay.
pub fn setup(seed: u64) -> Result<Setup, String> {
    let msg = schedreplay::smoke()?;
    eprintln!("sched smoke: {msg}");
    replay(WARM_UP_SEED, None);
    Ok(Setup {
        seeds: Pcg32::seeded(seed),
    })
}

/// Measure replays for the window, [`REPLAYS_PER_SET`] untraced replays
/// per job set. Untraced, report the median replay and jobs per second;
/// traced, follow each untraced replay with a traced one of the same set
/// and report the first job set's simulated statistics and the tracing
/// overhead.
pub fn run(mut s: Setup, budget: &Budget, tracer: Option<&Tracer>) -> Outcome {
    let mut out = Outcome::default();
    // The current set's reference: its first replay's job count and stats.
    let mut want = None;
    let check = |out: &mut Outcome, want: &mut Option<_>, r: &Replay| match *want {
        None => *want = Some((r.jobs, bits(&r.stats))),
        Some(w) => out.check((r.jobs, bits(&r.stats)) == w, || {
            format!(
                "replay stats {:?} differ from the job set's first replay",
                r.stats
            )
        }),
    };
    let (mut plain, mut rates, mut traced_walls) = (Vec::new(), Vec::new(), Vec::new());
    let (mut seed, mut first) = (0, None);
    while budget.more(plain.len(), MIN_REPLAYS) {
        if plain.len() % REPLAYS_PER_SET == 0 {
            seed = s.seeds.next_u64();
            want = None;
        }
        let r = replay(seed, None);
        check(&mut out, &mut want, &r);
        plain.push(r.wall_s);
        rates.push(r.jobs as f64 / r.wall_s);
        if let Some(t) = tracer {
            let r = replay(seed, Some((t, traced_walls.len() as u64)));
            check(&mut out, &mut want, &r);
            traced_walls.push(r.wall_s);
        }
        first.get_or_insert(r);
    }
    let first = first.expect("at least one replay");
    let jobs = first.jobs as f64;
    let replays = plain.len();
    let replay_ms = median(&mut plain) * 1e3;
    if tracer.is_none() {
        out.push("op_p50_ms", replay_ms, "ms", replays);
        out.push("work_per_s", median(&mut rates), "1/s", replays);
        return out;
    }
    let traced_ms = median(&mut traced_walls) * 1e3;
    out.push("trace.op_ms", traced_ms, "ms", traced_walls.len());
    out.push(
        "trace.overhead_pct",
        100.0 * (traced_ms - replay_ms) / replay_ms,
        "%",
        traced_walls.len(),
    );
    let st = &first.stats;
    out.push("replay.jobs", jobs, "count", 1);
    out.push("replay.makespan_s", st.makespan.value(), "sim_s", 1);
    out.push("replay.utilization", st.utilization, "ratio", 1);
    out.push("replay.mean_wait_s", st.mean_wait.value(), "sim_s", 1);
    out.push("replay.mean_compactness", st.mean_compactness, "hops", 1);
    out.push("replay.requeued", st.requeued as f64, "count", 1);
    out.push("replay.abandoned", st.abandoned as f64, "count", 1);
    out
}
