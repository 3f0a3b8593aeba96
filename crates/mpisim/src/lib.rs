//! # mpisim — a message-passing runtime simulator
//!
//! Executes SPMD *rank programs* against the [`arch`] node models and the
//! [`interconnect`] network models, tracking one virtual clock per rank.
//! The programming model is bulk-synchronous: a program is a sequence of
//! compute steps (costed by [`arch::cost::CostModel`]) and communication
//! steps (point-to-point or collectives, costed against the network), and
//! the job's elapsed time is the latest rank clock — exactly the "slowest
//! process" metric the paper reports for Alya's phases.
//!
//! * [`layout`] — how ranks map onto nodes, NUMA domains and cores.
//! * [`collectives`] — cost formulas for Barrier/Bcast/Reduce/Allreduce/
//!   Allgather/Alltoall with hierarchical (intra-node + inter-node) stages
//!   and selectable inter-node algorithm (binomial tree vs ring).
//! * [`job`] — the [`job::Job`] execution context tying it all together.
//! * [`faults`] — the job-visible slice of a fault plan: per-node compute
//!   slowdowns as rank clock stretches, refusal of failed nodes, and the
//!   all-to-all drain signature that localizes a degraded node.
//! * [`trace`] — per-rank timelines of traced jobs, with per-activity
//!   breakdowns and a text Gantt strip.
//!
//! A compute step prices its chunk once per call and a halo prices each
//! inter-node route once per node pair and size, so the per-rank cost left
//! is mostly the lognormal imbalance draw, then the halo's peer loop.

//! ```
//! use arch::{compiler::Compiler, cost::KernelProfile, machines::cte_arm};
//! use interconnect::{link::LinkModel, network::Network, tofu::TofuD, topology::NodeId};
//! use mpisim::{job::Job, layout::JobLayout};
//! use simkit::units::Bytes;
//!
//! let machine = cte_arm();
//! let compiler = Compiler::gnu_sve();
//! let net = Network::new(TofuD::cte_arm(), LinkModel::tofud());
//! let layout = JobLayout::new((0..4).map(NodeId).collect(), 48, 1, 4, 48);
//! let mut job = Job::new(&machine, &compiler, &net, layout, 7);
//! job.compute(&KernelProfile::dp("step", 1e9, 1e8));
//! job.allreduce(Bytes::new(8.0));
//! assert!(job.elapsed().value() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod collectives;
pub mod faults;
pub mod job;
pub mod layout;
pub mod trace;

pub use collectives::CollectiveAlgo;
pub use faults::JobFaults;
pub use job::Job;
pub use layout::JobLayout;
pub use trace::{Activity, Trace};
