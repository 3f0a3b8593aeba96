//! # interconnect — cluster network models
//!
//! Models of the two interconnects in the paper:
//!
//! * **TofuD** ([`tofu`]) — Fujitsu's six-dimensional torus/mesh. CTE-Arm's
//!   192 nodes are arranged as an `(X,Y,Z) = (4,2,2)` torus of
//!   `(A,B,C) = (2,3,2)` groups (the TofuD unit of 12 nodes), 6.8 GB/s peak
//!   injection per node.
//! * **OmniPath** ([`fattree`]) — Intel's 100 Gbit/s fat-tree as deployed in
//!   MareNostrum 4 (32-node leaf switches, 2:1 taper to the spine).
//!
//! A [`network::Network`] combines a topology with a [`link::LinkModel`]
//! (software overhead + per-hop latency + serialization + rendezvous
//! handshake) and optional per-node degradation — the paper found one CTE-Arm
//! node, `arms0b1-11c`, with crippled *receive* bandwidth but normal send
//! bandwidth (Fig. 4); [`network::Degradation`] reproduces exactly that
//! asymmetry.
//!
//! [`placement`] implements the topology-aware block allocation the CTE-Arm
//! scheduler performs, plus a random allocator for the ablation study.
//!
//! All-pairs analyses (route enumeration, link loads, placement scoring)
//! run on a fast path. [`folded::FoldedTable`] is the one pair memo: it
//! stores TofuD hop counts and sharing factors per coordinate *offset
//! class* by torus translation symmetry (under 10 MB at 158,976 nodes,
//! ~100 GB for a dense all-pairs table), and a [`network::Network`]
//! builds it on first request. The fat tree needs no memo — its direct
//! `hops`/`sharing` are an O(1) same-leaf test. [`routing::RouteSteps`]
//! enumerates routes without allocating, the sweeps fan out over the
//! rayon pool with chunk-ordered (bit-deterministic) reductions, and
//! [`sweep`] prices uniform-traffic link loads, bisection crossings and
//! mean pairwise hops in exact per-dimension closed forms, no all-pairs
//! enumeration at all.

#![warn(missing_docs)]

pub mod bisection;
pub mod fattree;
pub mod faults;
pub mod folded;
pub mod hostname;
pub mod link;
pub mod network;
pub mod placement;
pub mod routing;
pub mod sweep;
pub mod tofu;
pub mod topology;

pub use fattree::FatTree;
pub use faults::{Fault, FaultPlan, FaultSpec};
pub use folded::FoldedTable;
pub use link::LinkModel;
pub use network::{Degradation, Network, PathCost};
pub use tofu::TofuD;
pub use topology::{NodeId, Topology};
