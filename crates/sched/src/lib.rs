//! # sched — the cluster job scheduler
//!
//! Section II of the paper: *"The job scheduler of the cluster is aware of
//! the network topology and can allocate nodes for user jobs to exploit
//! proximity and reduce the latency of messages."* And Section VI's
//! complaint: *"the job scheduler does not allow allocating specific nodes
//! or enforcing specific process binding."*
//!
//! This crate simulates that scheduler: a FCFS-with-backfill queue over
//! the TofuD torus, with selectable allocation policies. It quantifies
//! what topology-awareness buys (allocation compactness under load) and
//! reproduces the usability restriction (explicit node requests are
//! rejected, as on the real machine). An [`Allocation`] is a list of runs
//! of consecutive node ids, and the allocator, the release path and the
//! compactness fold all work run by run, never node by node, so replays
//! scale to full Fugaku (158,976 nodes).

//! ```
//! use sched::{AllocationPolicy, Allocator, Scheduler, WorkloadSpec};
//! use interconnect::tofu::TofuD;
//!
//! let allocator = Allocator::new(TofuD::cte_arm(), AllocationPolicy::BestFitContiguous, 1);
//! let workload = WorkloadSpec::production_day(192).generate(1);
//! let (jobs, stats) = Scheduler::new(allocator, true).run(workload);
//! assert!(jobs.iter().all(|j| j.end.is_some()));
//! assert!(stats.utilization > 0.0);
//! ```

#![warn(missing_docs)]

pub mod allocation;
pub mod allocator;
pub mod allocator_oracle;
pub mod queue;
pub mod workload;

pub use allocation::Allocation;
pub use allocator::{AllocationPolicy, Allocator, NodePool};
pub use allocator_oracle::OracleAllocator;
pub use queue::{JobRequest, JobState, NodeFailure, Scheduler, SchedulerStats};
pub use workload::{ReplaySpec, WorkloadSpec};
