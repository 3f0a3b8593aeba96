//! # bench — Criterion benchmark targets
//!
//! Three suites:
//!
//! * `paper_artifacts` — one target per paper table/figure: times the full
//!   regeneration of each artifact and prints its headline values, so a
//!   `cargo bench` run doubles as a reproduction log.
//! * `host_kernels` — the real compute kernels on the host machine that
//!   nothing else times: the FPU µKernel, STREAM Copy/Scale/Add, blocked
//!   LU, the CSR and stencil PCG iterations, FEM assembly, the atmosphere
//!   step, the LJ cell-list rebuilds and the FFT. STREAM Triad, DGEMM,
//!   SpMV, SymGS, the ocean step and the LJ force loop belong to
//!   `cluster-eval bench-all --json` (`core::hostbench`), one harness per
//!   kernel.
//! * `ablations` — the design-choice studies listed in DESIGN.md §5:
//!   collective algorithms, placement policies, SVE-uptake sweep, and the
//!   HBM↔DDR4 memory swap.

/// Shared helper: a compact Criterion configuration for the slower
/// cluster-scale simulations.
pub fn quick() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1))
}
