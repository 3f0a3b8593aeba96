//! # cluster-eval — the evaluation harness
//!
//! The paper's primary contribution is its evaluation methodology: a
//! bottom-up sweep from micro-architectural kernels through synthetic HPC
//! benchmarks to five untuned production applications, run identically on
//! an A64FX cluster and an Intel reference system. This crate is that
//! methodology as a library: every table and figure of the paper is an
//! [`experiments::Experiment`] that regenerates its data from the models
//! in the substrate crates.
//!
//! ```
//! use cluster_eval::experiments;
//!
//! // Regenerate Fig. 1 (FPU µKernel) and print it.
//! let artifact = experiments::run("fig1").expect("fig1 is registered");
//! println!("{}", artifact.to_text());
//! ```
//!
//! [`report`] renders every experiment into a text + CSV report directory,
//! and [`engine`] runs any registry subset across a worker pool with a
//! shared sub-result cache.

#![warn(missing_docs)]

pub mod cachemodel;
pub mod engine;
pub mod experiments;
pub mod extensions;
pub mod faults;
pub mod hostbench;
pub mod json;
pub mod report;
pub mod schedreplay;
pub mod serve;
pub mod speedup;
pub mod validation;

pub use engine::{run_experiments, Ctx, RunReport};
pub use experiments::{all_experiments, run, Artifact, Experiment};
pub use extensions::{extension_experiments, run_extension};
pub use faults::{campaign, campaigns, run_campaign, Campaign, CampaignReport};
pub use serve::{model_code_hash, Query, ServeSummary};
pub use validation::validation_report;
