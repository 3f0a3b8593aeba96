//! The job queue: FCFS with EASY backfill over a [`NodePool`] allocator.
//!
//! Requests are sorted by the explicit key `(submit, id)` (total order by
//! construction, not sort stability), so a job's FCFS priority *is* its
//! index in the sorted vector. The waiting set exploits that: a min-`want`
//! segment tree over job indices finds the leftmost waiting job that fits
//! the free pool in O(log m), replacing the per-event rescan of a `Vec` —
//! at million-job replay scale the old scan was quadratic in the queue
//! depth. Submissions stream from the sorted jobs, so the event heap holds
//! only completions and failures (about as many as there are running
//! jobs). Dispatch order, billing order, and event order are unchanged, so
//! results are byte-identical to the historical implementation.

use crate::allocation::Allocation;
use crate::allocator::NodePool;
use interconnect::topology::{NodeId, Topology};
use simkit::event::EventQueue;
use simkit::units::Time;

/// A job submission.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Submitter-visible id.
    pub id: usize,
    /// Nodes requested.
    pub nodes: usize,
    /// Runtime once started.
    pub duration: Time,
    /// Submission time.
    pub submit: Time,
}

/// A hard node failure injected into a scheduler run: at `at`, `node`
/// drains from the allocator and any job running on it is killed and
/// requeued (the degrade-gracefully contract).
#[derive(Debug, Clone, Copy)]
pub struct NodeFailure {
    /// The failing node.
    pub node: NodeId,
    /// When it fails.
    pub at: Time,
}

/// Lifecycle of a job inside the scheduler.
#[derive(Debug, Clone)]
pub struct JobState {
    /// The request.
    pub request: JobRequest,
    /// Start time, once running.
    pub start: Option<Time>,
    /// End time, once finished.
    pub end: Option<Time>,
    /// The allocation, while running/after completion (cleared at finish
    /// when [`Scheduler::retain_allocations`] is disabled).
    pub allocation: Allocation,
    /// Mean pairwise hops of the allocation (compactness at start).
    pub compactness: f64,
    /// How many times a node failure killed this job back into the queue.
    pub requeues: u32,
    /// True when failures shrank the cluster below the job's request and
    /// it could never be (re)placed.
    pub abandoned: bool,
}

impl JobState {
    /// Queue wait time (end-to-start of queueing), once started.
    pub fn wait(&self) -> Option<Time> {
        self.start.map(|s| s - self.request.submit)
    }
}

/// Aggregate statistics of a completed simulation.
#[derive(Debug, Clone)]
pub struct SchedulerStats {
    /// Makespan: completion time of the last job.
    pub makespan: Time,
    /// Mean queue wait across jobs.
    pub mean_wait: Time,
    /// Mean allocation compactness (pairwise hops) across jobs.
    pub mean_compactness: f64,
    /// Node-time utilization in `[0, 1]`.
    pub utilization: f64,
    /// Nodes that hard-failed during the run.
    pub failed_nodes: usize,
    /// Job kills caused by node failures (each adds one requeue).
    pub requeued: usize,
    /// Jobs that could never be placed after failures shrank the cluster.
    pub abandoned: usize,
}

/// Scheduler events. `Finish` carries the job's dispatch epoch: a node
/// failure that kills the job bumps its epoch, turning the already-queued
/// completion event into a stale no-op (the event queue has no cancel).
/// `Submit` never enters the queue: submissions stream from the sorted
/// jobs.
enum Event {
    Submit(usize),
    Finish(usize, u64),
    Fail(NodeId),
}

/// The waiting set: a 64-ary min tree over the node count each waiting
/// job wants (`u32::MAX` when the job is not waiting), indexed by FCFS
/// position. Level 0 holds one leaf per job; each level above holds the
/// min of 64-entry blocks of the level below, so a million-job replay
/// needs only four levels of `u32` (~5 MB) and every update or query
/// touches a handful of contiguous cache lines instead of ~21 scattered
/// pointer hops through a 32 MB binary tree. `first_fitting(cap)`
/// descends towards the leftmost leaf ≤ `cap` — the backfill query — and
/// the FCFS head is the same query with an unbounded cap.
struct WaitIndex {
    levels: Vec<Vec<u32>>,
    len: usize,
}

const WAIT_FANOUT: usize = 64;

impl WaitIndex {
    fn new(jobs: usize) -> Self {
        let mut levels = vec![vec![u32::MAX; jobs.max(1)]];
        while levels.last().unwrap().len() > WAIT_FANOUT {
            let below = levels.last().unwrap().len();
            levels.push(vec![u32::MAX; below.div_ceil(WAIT_FANOUT)]);
        }
        Self { levels, len: 0 }
    }

    fn set(&mut self, idx: usize, value: u32) {
        self.levels[0][idx] = value;
        let mut block = idx / WAIT_FANOUT;
        for level in 1..self.levels.len() {
            let lo = block * WAIT_FANOUT;
            let hi = (lo + WAIT_FANOUT).min(self.levels[level - 1].len());
            let min = *self.levels[level - 1][lo..hi].iter().min().unwrap();
            if self.levels[level][block] == min {
                return;
            }
            self.levels[level][block] = min;
            block /= WAIT_FANOUT;
        }
    }

    fn insert(&mut self, idx: usize, want: usize) {
        debug_assert!(
            want < u32::MAX as usize,
            "want overflows the empty sentinel"
        );
        debug_assert_eq!(self.levels[0][idx], u32::MAX, "double insert");
        self.set(idx, want as u32);
        self.len += 1;
    }

    fn remove(&mut self, idx: usize) {
        debug_assert_ne!(self.levels[0][idx], u32::MAX, "not waiting");
        self.set(idx, u32::MAX);
        self.len -= 1;
    }

    /// Leftmost waiting job whose request fits under `cap`, if any.
    fn first_fitting(&self, cap: usize) -> Option<usize> {
        let cap = cap.min(u32::MAX as usize - 1) as u32;
        let top = self.levels.len() - 1;
        let mut idx = self.levels[top].iter().position(|&v| v <= cap)?;
        for level in (0..top).rev() {
            let lo = idx * WAIT_FANOUT;
            let hi = (lo + WAIT_FANOUT).min(self.levels[level].len());
            let off = self.levels[level][lo..hi]
                .iter()
                .position(|&v| v <= cap)
                .expect("parent min admitted this block");
            idx = lo + off;
        }
        Some(idx)
    }

    /// The FCFS head: leftmost waiting job of any size.
    fn head(&self) -> Option<usize> {
        self.first_fitting(usize::MAX - 1)
    }

    /// All waiting jobs in FCFS order; blocks whose min is the empty
    /// sentinel are skipped whole, so the walk costs O(m / 64 + found).
    fn waiting(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.len);
        let top = self.levels.len() - 1;
        self.collect(top, 0, self.levels[top].len(), &mut out);
        out
    }

    fn collect(&self, level: usize, lo: usize, hi: usize, out: &mut Vec<usize>) {
        for (off, &v) in self.levels[level][lo..hi].iter().enumerate() {
            if v == u32::MAX {
                continue;
            }
            let idx = lo + off;
            if level == 0 {
                out.push(idx);
            } else {
                let lo2 = idx * WAIT_FANOUT;
                let hi2 = (lo2 + WAIT_FANOUT).min(self.levels[level - 1].len());
                self.collect(level - 1, lo2, hi2, out);
            }
        }
    }
}

/// The running jobs, so a node failure searches only them for the job that
/// holds the node: their indices in no particular order, plus each job's
/// position in that list for O(1) removal.
struct Running {
    jobs: Vec<usize>,
    slot: Vec<u32>,
}

impl Running {
    fn new(jobs: usize) -> Self {
        Self {
            jobs: Vec::new(),
            slot: vec![0; jobs],
        }
    }

    fn insert(&mut self, idx: usize) {
        self.slot[idx] = self.jobs.len() as u32;
        self.jobs.push(idx);
    }

    fn remove(&mut self, idx: usize) {
        let at = self.slot[idx] as usize;
        self.jobs.swap_remove(at);
        if let Some(&moved) = self.jobs.get(at) {
            self.slot[moved] = at as u32;
        }
    }
}

/// A FCFS + EASY-backfill scheduler over an allocator.
pub struct Scheduler<A: NodePool> {
    allocator: A,
    jobs: Vec<JobState>,
    backfill: bool,
    retain_allocations: bool,
}

impl<A: NodePool> Scheduler<A> {
    /// Wrap an allocator. `backfill` enables EASY backfill (jobs behind
    /// the queue head may start if they fit right now).
    pub fn new(allocator: A, backfill: bool) -> Self {
        Self {
            allocator,
            jobs: Vec::new(),
            backfill,
            retain_allocations: true,
        }
    }

    /// Whether finished jobs keep their allocations in [`JobState`]
    /// (default `true`). Million-job replays disable this: the aggregate
    /// stats never read an allocation after its release.
    pub fn retain_allocations(mut self, keep: bool) -> Self {
        self.retain_allocations = keep;
        self
    }

    /// Run a workload to completion and return per-job states + stats.
    ///
    /// # Panics
    /// Panics if any request exceeds the cluster, has a non-positive
    /// duration or is submitted before t = 0.
    pub fn run(self, requests: Vec<JobRequest>) -> (Vec<JobState>, SchedulerStats) {
        self.run_with_failures(requests, Vec::new())
    }

    /// Run a workload through a sequence of hard node failures. At each
    /// failure time the node drains from the allocator; a job running on
    /// it is killed, loses its progress, and is requeued in FCFS order
    /// (ties broken by submission). Jobs that can never fit on the
    /// shrunken cluster are abandoned rather than wedging the queue — the
    /// scheduler degrades gracefully instead of erroring.
    ///
    /// # Panics
    /// Panics if any request exceeds the cluster, has a non-positive
    /// duration or is submitted before t = 0, or if a failure names a node
    /// outside the topology or a time before t = 0.
    pub fn run_with_failures(
        mut self,
        mut requests: Vec<JobRequest>,
        failures: Vec<NodeFailure>,
    ) -> (Vec<JobState>, SchedulerStats) {
        let cluster = self.allocator.topology().nodes();
        for r in &requests {
            assert!(
                r.nodes >= 1 && r.nodes <= cluster,
                "job {} wants {} of {cluster} nodes",
                r.id,
                r.nodes
            );
            assert!(r.duration > Time::ZERO, "job {} has no duration", r.id);
            assert!(
                r.submit >= Time::ZERO,
                "job {} is submitted before t = 0",
                r.id
            );
        }
        for f in &failures {
            assert!(f.node.index() < cluster, "failure names an unknown node");
        }
        // Explicit (submit, id) key under `total_cmp`: tie order is pinned
        // by construction, not by sort stability or input order.
        requests.sort_by(|a, b| {
            a.submit
                .value()
                .total_cmp(&b.submit.value())
                .then(a.id.cmp(&b.id))
        });
        self.jobs = requests
            .into_iter()
            .map(|request| JobState {
                request,
                start: None,
                end: None,
                allocation: Allocation::default(),
                compactness: 0.0,
                requeues: 0,
                abandoned: false,
            })
            .collect();
        let jobs = self.jobs.len();

        // Sorted by (submit, id), a job's FCFS priority is its index:
        // requeues keep original submit order, so the waiting set never
        // needs more than the index to order itself.
        let mut waiting = WaitIndex::new(jobs);
        let mut running = Running::new(jobs);
        let mut epochs: Vec<u64> = vec![0; jobs];
        // Failures enter the heap before any completion, so at equal times
        // the order is submission, failure, completion — the enqueue order
        // of a heap that also held every submission.
        let mut events: EventQueue<Event> = EventQueue::new();
        for f in &failures {
            events.schedule_at(f.at, Event::Fail(f.node));
        }
        let mut next_submit = 0usize;

        let mut busy_node_time = 0.0;
        let mut failed_nodes = 0usize;
        let mut requeued = 0usize;
        let mut abandoned = 0usize;
        loop {
            let due = self.jobs.get(next_submit).map(|j| j.request.submit);
            let (now, ev) = match (due, events.peek_time()) {
                (Some(submit), next) if next.is_none_or(|t| submit <= t) => {
                    next_submit += 1;
                    (submit, Event::Submit(next_submit - 1))
                }
                _ => match events.pop() {
                    Some(event) => event,
                    None => break,
                },
            };
            match ev {
                Event::Submit(idx) => {
                    if self.jobs[idx].request.nodes > self.allocator.alive_count() {
                        self.jobs[idx].abandoned = true;
                        abandoned += 1;
                    } else {
                        waiting.insert(idx, self.jobs[idx].request.nodes);
                    }
                }
                Event::Finish(idx, epoch) => {
                    if epoch != epochs[idx] {
                        // Stale completion of a run a node failure killed.
                        continue;
                    }
                    running.remove(idx);
                    let alloc = std::mem::take(&mut self.jobs[idx].allocation);
                    busy_node_time += alloc.len() as f64 * self.jobs[idx].request.duration.value();
                    self.allocator.release(&alloc);
                    if self.retain_allocations {
                        self.jobs[idx].allocation = alloc;
                    }
                    self.jobs[idx].end = Some(now);
                }
                Event::Fail(node) => {
                    let was_allocated = self.allocator.fail_node(node);
                    failed_nodes += 1;
                    if was_allocated {
                        let idx = *running
                            .jobs
                            .iter()
                            .find(|&&i| self.jobs[i].allocation.contains(node))
                            .expect("an allocated node belongs to a running job");
                        running.remove(idx);
                        // Kill: bill the partial work, free the nodes,
                        // invalidate the pending Finish, requeue in FCFS
                        // order by original submission (= index order).
                        let alloc = std::mem::take(&mut self.jobs[idx].allocation);
                        let started = self.jobs[idx].start.take().expect("running job");
                        busy_node_time += alloc.len() as f64 * (now - started).value();
                        self.allocator.release(&alloc);
                        epochs[idx] += 1;
                        self.jobs[idx].compactness = 0.0;
                        self.jobs[idx].requeues += 1;
                        requeued += 1;
                        waiting.insert(idx, self.jobs[idx].request.nodes);
                    }
                    // Drop queued jobs the shrunken cluster can never hold.
                    let alive = self.allocator.alive_count();
                    for idx in waiting.waiting() {
                        if self.jobs[idx].request.nodes > alive {
                            waiting.remove(idx);
                            self.jobs[idx].abandoned = true;
                            abandoned += 1;
                        }
                    }
                }
            }
            // Dispatch: FCFS head first; optionally backfill the rest.
            // `allocate(want)` succeeds exactly when `want ≤ free_count()`
            // under every policy, so the tree query pre-answers it.
            loop {
                let cap = self.allocator.free_count();
                let next = if self.backfill {
                    waiting.first_fitting(cap)
                } else {
                    // Strict FCFS: a blocked head blocks everyone.
                    waiting
                        .head()
                        .filter(|&h| self.jobs[h].request.nodes <= cap)
                };
                let Some(idx) = next else { break };
                let want = self.jobs[idx].request.nodes;
                let allocation = self
                    .allocator
                    .allocate(want)
                    .expect("the waiting index admitted a job that fits");
                self.jobs[idx].compactness = self.allocator.compactness(&allocation);
                self.jobs[idx].start = Some(now);
                events.schedule_at(
                    now + self.jobs[idx].request.duration,
                    Event::Finish(idx, epochs[idx]),
                );
                self.jobs[idx].allocation = allocation;
                waiting.remove(idx);
                running.insert(idx);
            }
        }

        let makespan = self
            .jobs
            .iter()
            .filter_map(|j| j.end)
            .fold(Time::ZERO, Time::max);
        let n = self.jobs.len().max(1) as f64;
        let mean_wait = Time::seconds(
            self.jobs
                .iter()
                .filter_map(|j| j.wait())
                .map(|w| w.value())
                .sum::<f64>()
                / n,
        );
        let mean_compactness = self.jobs.iter().map(|j| j.compactness).sum::<f64>() / n;
        let utilization = if makespan > Time::ZERO {
            busy_node_time / (cluster as f64 * makespan.value())
        } else {
            0.0
        };
        (
            self.jobs,
            SchedulerStats {
                makespan,
                mean_wait,
                mean_compactness,
                utilization,
                failed_nodes,
                requeued,
                abandoned,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::{AllocationPolicy, Allocator};
    use interconnect::tofu::TofuD;

    fn scheduler(policy: AllocationPolicy, backfill: bool) -> Scheduler<Allocator<TofuD>> {
        Scheduler::new(Allocator::new(TofuD::cte_arm(), policy, 7), backfill)
    }

    fn job(id: usize, nodes: usize, dur: f64, submit: f64) -> JobRequest {
        JobRequest {
            id,
            nodes,
            duration: Time::seconds(dur),
            submit: Time::seconds(submit),
        }
    }

    #[test]
    fn single_job_runs_immediately() {
        let (jobs, stats) =
            scheduler(AllocationPolicy::BestFitContiguous, false).run(vec![job(0, 48, 100.0, 0.0)]);
        assert_eq!(jobs[0].start, Some(Time::ZERO));
        assert_eq!(jobs[0].end, Some(Time::seconds(100.0)));
        assert_eq!(stats.makespan, Time::seconds(100.0));
        assert!((stats.utilization - 0.25).abs() < 1e-9, "48/192 busy");
    }

    #[test]
    fn fcfs_queues_when_full() {
        let (jobs, _) = scheduler(AllocationPolicy::FirstFit, false)
            .run(vec![job(0, 192, 10.0, 0.0), job(1, 10, 5.0, 1.0)]);
        // Job 1 must wait for the full-machine job.
        assert_eq!(jobs[1].start, Some(Time::seconds(10.0)));
        assert_eq!(jobs[1].wait(), Some(Time::seconds(9.0)));
    }

    #[test]
    fn equal_submit_times_order_by_id_not_input_order() {
        // Two simultaneous submissions arriving in descending-id order:
        // the sort key pins id 2 as the FCFS head, so it runs first and
        // the id-5 hog waits — regardless of input order or sort stability.
        let (jobs, _) = scheduler(AllocationPolicy::FirstFit, false)
            .run(vec![job(5, 192, 10.0, 0.0), job(2, 10, 5.0, 0.0)]);
        assert_eq!(jobs[0].request.id, 2, "sorted output orders ties by id");
        assert_eq!(jobs[0].start, Some(Time::ZERO));
        assert_eq!(jobs[1].request.id, 5);
        assert_eq!(jobs[1].start, Some(Time::seconds(5.0)), "hog waits");
    }

    #[test]
    fn backfill_lets_small_jobs_jump_safely() {
        // Head job wants the full machine and must wait for job 0; with
        // backfill, the tiny job 2 runs in the meantime.
        let workload = vec![
            job(0, 100, 10.0, 0.0),
            job(1, 192, 10.0, 1.0),
            job(2, 10, 2.0, 2.0),
        ];
        let (with_bf, _) = scheduler(AllocationPolicy::FirstFit, true).run(workload.clone());
        assert_eq!(with_bf[2].start, Some(Time::seconds(2.0)), "backfilled");
        let (without, _) = scheduler(AllocationPolicy::FirstFit, false).run(workload);
        assert!(
            without[2].start.unwrap() > Time::seconds(2.0),
            "strict FCFS blocks it"
        );
    }

    #[test]
    fn backfill_improves_utilization() {
        let workload: Vec<JobRequest> = (0..20)
            .map(|i| {
                let nodes = if i % 3 == 0 { 150 } else { 30 };
                job(i, nodes, 10.0, i as f64 * 0.1)
            })
            .collect();
        let (_, bf) = scheduler(AllocationPolicy::FirstFit, true).run(workload.clone());
        let (_, fcfs) = scheduler(AllocationPolicy::FirstFit, false).run(workload);
        assert!(
            bf.utilization >= fcfs.utilization,
            "backfill {} ≥ fcfs {}",
            bf.utilization,
            fcfs.utilization
        );
        assert!(bf.makespan <= fcfs.makespan);
    }

    #[test]
    fn topology_aware_policy_gives_compacter_jobs_under_churn() {
        // A churning workload fragments the free pool; the contiguous
        // policy keeps allocations tighter than random placement.
        let workload: Vec<JobRequest> = (0..40)
            .map(|i| job(i, 12 + (i % 5) * 8, 5.0 + (i % 7) as f64, i as f64 * 1.3))
            .collect();
        let (_, aware) = scheduler(AllocationPolicy::BestFitContiguous, true).run(workload.clone());
        let (_, random) = scheduler(AllocationPolicy::Random, true).run(workload);
        assert!(
            aware.mean_compactness < random.mean_compactness,
            "aware {} < random {}",
            aware.mean_compactness,
            random.mean_compactness
        );
    }

    #[test]
    fn all_jobs_finish_and_nodes_are_returned() {
        let workload: Vec<JobRequest> = (0..30)
            .map(|i| job(i, 20 + (i % 4) * 30, 3.0, (i / 3) as f64))
            .collect();
        let (jobs, stats) = scheduler(AllocationPolicy::BestFitContiguous, true).run(workload);
        assert!(jobs.iter().all(|j| j.end.is_some()), "everything completes");
        assert!(stats.utilization > 0.0 && stats.utilization <= 1.0);
        assert!(stats.makespan > Time::ZERO);
    }

    #[test]
    fn dropping_allocations_changes_no_stats() {
        let workload: Vec<JobRequest> = (0..30)
            .map(|i| job(i, 20 + (i % 4) * 30, 3.0, (i / 3) as f64))
            .collect();
        let (kept, ks) = scheduler(AllocationPolicy::BestFitContiguous, true).run(workload.clone());
        let (dropped, ds) = scheduler(AllocationPolicy::BestFitContiguous, true)
            .retain_allocations(false)
            .run(workload);
        assert_eq!(ks.makespan, ds.makespan);
        assert_eq!(ks.utilization.to_bits(), ds.utilization.to_bits());
        assert_eq!(ks.mean_compactness.to_bits(), ds.mean_compactness.to_bits());
        for (k, d) in kept.iter().zip(&dropped) {
            assert_eq!(k.start, d.start);
            assert_eq!(k.end, d.end);
            assert!(!k.allocation.is_empty(), "default keeps the node list");
            assert!(d.allocation.is_empty(), "opt-out clears it at finish");
        }
    }

    #[test]
    #[should_panic(expected = "wants")]
    fn oversized_job_rejected() {
        scheduler(AllocationPolicy::FirstFit, false).run(vec![job(0, 500, 1.0, 0.0)]);
    }

    fn fail(node: usize, at: f64) -> NodeFailure {
        NodeFailure {
            node: NodeId(node),
            at: Time::seconds(at),
        }
    }

    #[test]
    fn failure_kills_and_requeues_the_running_job() {
        // One full-machine job; a node fails mid-run. The job is killed,
        // requeued, and restarted... but now wants 192 of 191 live nodes,
        // so it is abandoned. A second, smaller job still completes.
        let (jobs, stats) = scheduler(AllocationPolicy::FirstFit, false).run_with_failures(
            vec![job(0, 192, 100.0, 0.0), job(1, 50, 10.0, 1.0)],
            vec![fail(7, 30.0)],
        );
        assert_eq!(jobs[0].requeues, 1);
        assert!(jobs[0].abandoned, "192-node job can't fit on 191 nodes");
        assert_eq!(jobs[0].end, None);
        assert_eq!(stats.failed_nodes, 1);
        assert_eq!(stats.requeued, 1);
        assert_eq!(stats.abandoned, 1);
        // The small job starts once the dead machine frees up.
        assert_eq!(jobs[1].start, Some(Time::seconds(30.0)));
        assert_eq!(jobs[1].end, Some(Time::seconds(40.0)));
    }

    #[test]
    fn requeued_job_restarts_and_finishes_later() {
        // 100-node job killed at t=30 restarts immediately (92+ free live
        // nodes remain? no — it held 100 of 192; after the kill 191 live
        // nodes are all free) and runs its full duration again.
        let (jobs, stats) = scheduler(AllocationPolicy::FirstFit, false)
            .run_with_failures(vec![job(0, 100, 50.0, 0.0)], vec![fail(40, 30.0)]);
        assert_eq!(jobs[0].requeues, 1);
        assert!(!jobs[0].abandoned);
        assert_eq!(jobs[0].end, Some(Time::seconds(80.0)), "30 + fresh 50");
        assert!(
            !jobs[0].allocation.contains(NodeId(40)),
            "replacement avoids the dead node"
        );
        assert!(stats.makespan == Time::seconds(80.0));
        // Utilization accounts the lost partial run as busy time.
        let expected_busy = 100.0 * 30.0 + 100.0 * 50.0;
        assert!((stats.utilization - expected_busy / (192.0 * 80.0)).abs() < 1e-12);
    }

    #[test]
    fn failure_on_a_free_node_kills_nothing() {
        let (jobs, stats) = scheduler(AllocationPolicy::FirstFit, true).run_with_failures(
            vec![job(0, 20, 10.0, 0.0)],
            vec![fail(100, 1.0), fail(101, 2.0)],
        );
        assert_eq!(jobs[0].requeues, 0);
        assert_eq!(jobs[0].end, Some(Time::seconds(10.0)));
        assert_eq!(stats.failed_nodes, 2);
        assert_eq!(stats.requeued, 0);
    }

    #[test]
    fn oversized_submissions_after_failures_are_abandoned_not_wedged() {
        // The failure lands before the full-machine job is submitted: the
        // scheduler abandons it at submit time and keeps serving the rest.
        let (jobs, stats) = scheduler(AllocationPolicy::FirstFit, false).run_with_failures(
            vec![job(0, 192, 10.0, 5.0), job(1, 30, 5.0, 6.0)],
            vec![fail(0, 1.0)],
        );
        assert!(jobs[0].abandoned);
        assert_eq!(jobs[0].start, None);
        assert_eq!(jobs[1].end, Some(Time::seconds(11.0)));
        assert_eq!(stats.abandoned, 1);
    }

    #[test]
    fn late_failure_kills_exactly_the_one_running_holder() {
        // 400 one-node jobs, about ten at a time, run and finish (each
        // keeps its allocation); then two 8-node jobs run side by side and
        // a node of the second fails mid-run. Only that job is killed, and
        // the finished jobs that once held the node are left alone.
        let mut requests: Vec<JobRequest> = (0..400).map(|i| job(i, 1, 10.0, i as f64)).collect();
        requests.push(job(400, 8, 100.0, 1000.0));
        requests.push(job(401, 8, 100.0, 1000.0));
        let run = |failures| {
            scheduler(AllocationPolicy::FirstFit, false)
                .run_with_failures(requests.clone(), failures)
        };
        let (clean, _) = run(vec![]);
        let node = clean[401].allocation.nodes().next().expect("8 nodes");
        assert!(
            clean[..400].iter().any(|j| j.allocation.contains(node)),
            "a finished job once held the node"
        );
        let (jobs, stats) = run(vec![fail(node.index(), 1050.0)]);
        assert_eq!(stats.requeued, 1);
        assert_eq!(jobs[401].requeues, 1);
        assert_eq!(
            jobs[401].end,
            Some(Time::seconds(1150.0)),
            "restarts at once"
        );
        assert!(!jobs[401].allocation.contains(node));
        assert!(jobs[..401].iter().all(|j| j.requeues == 0));
        assert_eq!(jobs[400].end, Some(Time::seconds(1100.0)));
    }

    #[test]
    fn production_day_survives_a_failure_burst() {
        use crate::workload::WorkloadSpec;
        let workload = WorkloadSpec::production_day(192).generate(11);
        let failures: Vec<NodeFailure> = (0..6).map(|i| fail(i * 30, 20_000.0)).collect();
        let clean = scheduler(AllocationPolicy::BestFitContiguous, true).run(workload.clone());
        let faulty = scheduler(AllocationPolicy::BestFitContiguous, true)
            .run_with_failures(workload, failures);
        assert_eq!(faulty.1.failed_nodes, 6);
        // Every job either completed or was abandoned — nothing wedged.
        assert!(faulty
            .0
            .iter()
            .all(|j| j.end.is_some() || j.abandoned || j.start.is_some()));
        // Losing 6 of 192 nodes can only stretch the day.
        assert!(faulty.1.makespan >= clean.1.makespan);
    }
}
