//! # simkit — deterministic simulation substrate
//!
//! Foundation crate for the `a64fx-cluster-eval` workspace. Provides the
//! machinery every other crate builds on:
//!
//! * [`units`] — strongly-typed physical quantities (time, bytes, flops,
//!   bandwidth) so that cost models cannot accidentally mix units.
//! * [`time`] — a virtual clock for simulated execution.
//! * [`event`] — a deterministic discrete-event queue.
//! * [`rng`] — a small, seedable, reproducible PCG32 generator (identical
//!   streams on every platform, unlike hash-seeded generators).
//! * [`stats`] — online statistics (Welford), histograms, percentiles.
//! * [`series`] — labelled data series and text/CSV table rendering used to
//!   regenerate the paper's figures and tables.
//! * [`cache`] — concurrency-safe, two-tier memoization of expensive
//!   simulation sub-results, keyed by `(machine, workload, params)`.
//! * [`store`] — the disk-backed content-addressed tier under the cache:
//!   an append-only segment + index pair, versioned by a model-code hash,
//!   with checksum-verified torn-tail recovery.
//!
//! Everything in this crate is pure and deterministic: simulating the same
//! experiment twice yields bit-identical results.

#![warn(missing_docs)]

pub mod cache;
pub mod event;
pub mod rng;
pub mod series;
pub mod stats;
pub mod store;
pub mod time;
pub mod units;

pub use cache::{Cache, CacheKey, TierCounters};
pub use event::EventQueue;
pub use rng::Pcg32;
pub use series::{Figure, Series, Table};
pub use stats::{Histogram, OnlineStats};
pub use store::{Store, StoreValue};
pub use time::VirtualClock;
pub use units::{Bandwidth, Bytes, Flops, Time};
