//! # hpcg — the HPCG benchmark (Fig. 7)
//!
//! Like the `hpl` crate, two halves:
//!
//! * The **real algorithm** — 27-point operator, symmetric Gauss–Seidel,
//!   preconditioned CG — lives in [`kernels::cg`] and is exercised end to
//!   end by [`verify_small_grid`].
//! * The **cluster-scale simulation** ([`simulate`]) reproduces the paper's
//!   runs: local grid `48 × 88 × 88` per rank, MPI-only with 48 ranks per
//!   node, Vanilla (compiled as-is) vs Optimized (vendor binary) versions.
//!
//! HPCG is bandwidth-bound, so a node's throughput is its sustained memory
//! bandwidth divided by the implementation's **bytes-per-flop** — how much
//! memory traffic each useful flop drags along. The vendor binaries have
//! lower bytes/flop (blocked SpMV, SVE gathers, zfill stores); the Vanilla
//! build on the A64FX additionally runs on the write-allocate store path
//! that caps the C-compiled STREAM at 421 GB/s (Section III-B).
//!
//! | build | bandwidth source | bytes/flop |
//! |---|---|---|
//! | CTE-Arm Optimized | 862.6 GB/s (Fortran-path HBM) | 8.8 |
//! | CTE-Arm Vanilla | 421.1 GB/s (C-path HBM) | 12.0 |
//! | MN4 Optimized | 201.2 GB/s | 5.1 |
//! | MN4 Vanilla | 201.2 GB/s | 7.0 |
//!
//! At scale the fat tree loses ground (tapered uplinks congest the
//! 26-neighbour halo traffic of 9216 ranks) while TofuD's torus carries
//! halos on dedicated neighbour links; the calibrated scale terms below
//! reproduce the paper's 2.91 → 2.96 % (CTE-Arm) and 1.22 → 0.96 % (MN4)
//! fractions of peak.

#![warn(missing_docs)]

pub mod distributed;

use arch::compiler::Language;
use arch::machines::Machine;
use kernels::cg::cg_solve;
use kernels::stencil_matrix::StencilMatrix;
use simkit::units::Time;

/// Which HPCG build is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HpcgVersion {
    /// Compiled as-is from the reference sources.
    Vanilla,
    /// Vendor-optimized binary.
    Optimized,
}

/// An HPCG run configuration.
#[derive(Debug, Clone)]
pub struct HpcgConfig {
    /// Local (per-rank) grid dimensions.
    pub nx: usize,
    /// Local y-dimension.
    pub ny: usize,
    /// Local z-dimension.
    pub nz: usize,
    /// Ranks per node (48: MPI-only, one per core).
    pub ranks_per_node: usize,
    /// Build variant.
    pub version: HpcgVersion,
}

impl HpcgConfig {
    /// The paper's configuration: `--nx=48 --ny=88 --nz=88`, 48 ranks/node.
    pub fn paper(version: HpcgVersion) -> Self {
        Self {
            nx: 48,
            ny: 88,
            nz: 88,
            ranks_per_node: 48,
            version,
        }
    }

    /// Grid points owned by one rank.
    pub fn local_points(&self) -> usize {
        self.nx * self.ny * self.nz
    }
}

/// Effective streaming bandwidth (bytes/s) of one node for a build.
pub fn effective_bandwidth(machine: &Machine, version: HpcgVersion) -> f64 {
    match version {
        // The vendor binary streams like the best (Fortran-path) STREAM.
        HpcgVersion::Optimized => machine.memory.app_sustained_bandwidth().value(),
        // The as-is C++ build rides the write-allocate store path: on the
        // A64FX that is the 421 GB/s C-STREAM result; on MN4 both paths
        // sustain the same bandwidth.
        HpcgVersion::Vanilla => {
            machine.memory.domain.peak_bandwidth.value()
                * machine.memory.mpi_efficiency.get(Language::C)
                * machine.memory.n_domains as f64
        }
    }
}

/// Implementation bytes-per-flop (see module docs for the table).
pub fn bytes_per_flop(machine: &Machine, version: HpcgVersion) -> f64 {
    let hbm = machine.core.full_load_vector_derate >= 0.999;
    match (hbm, version) {
        // 256-byte lines waste bandwidth on CSR gathers; zfill + SVE
        // gathers claw some back in the vendor build.
        (true, HpcgVersion::Optimized) => 8.8,
        (true, HpcgVersion::Vanilla) => 12.0,
        // MKL's blocked SpMV reuses cache lines well.
        (false, HpcgVersion::Optimized) => 5.1,
        (false, HpcgVersion::Vanilla) => 7.0,
    }
}

/// Multi-node scale efficiency of the halo/allreduce traffic (calibrated
/// against the paper's two published points per machine; see module docs).
pub fn scale_efficiency(machine: &Machine, nodes: usize) -> f64 {
    let l = (nodes as f64).log2();
    if machine.interconnect.contains("Tofu") {
        // Torus neighbour links carry the halos without contention; the
        // measured fraction even rises slightly (2.91 → 2.96 %).
        1.0 + 0.0022 * l
    } else {
        // Tapered fat-tree uplinks congest under 26-neighbour halo traffic.
        1.0 / (1.0 + 0.035 * l)
    }
}

/// Outcome of a simulated HPCG run.
#[derive(Debug, Clone)]
pub struct HpcgResult {
    /// Achieved GFlop/s across the allocation.
    pub gflops: f64,
    /// Fraction of theoretical peak.
    pub fraction_of_peak: f64,
    /// Simulated wall-clock for the rated residual reduction.
    pub time: Time,
}

/// Flops HPCG executes per grid point per CG iteration: SpMV (2·27) +
/// SymGS forward+backward (4·27) + BLAS-1 (~10).
pub const FLOPS_PER_POINT_ITER: f64 = 2.0 * 27.0 + 4.0 * 27.0 + 10.0;

/// Simulate an HPCG run on `nodes` nodes.
///
/// ```
/// use hpcg::{simulate, HpcgConfig, HpcgVersion};
/// let cte = arch::machines::cte_arm();
/// let run = simulate(&cte, 1, &HpcgConfig::paper(HpcgVersion::Optimized));
/// // The paper's 2.91 % of peak on one node.
/// assert!((run.fraction_of_peak - 0.0291).abs() < 0.002);
/// ```
pub fn simulate(machine: &Machine, nodes: usize, cfg: &HpcgConfig) -> HpcgResult {
    assert!(
        nodes >= 1 && nodes <= machine.nodes,
        "node count out of range"
    );
    assert!(
        cfg.ranks_per_node <= machine.cores_per_node(),
        "rank oversubscription"
    );
    let node_gflops =
        effective_bandwidth(machine, cfg.version) / bytes_per_flop(machine, cfg.version) / 1e9;
    let gflops = node_gflops * nodes as f64 * scale_efficiency(machine, nodes);
    let peak = machine.peak_dp_cluster(nodes).as_gflops();
    // Rated run: 50 CG iterations over the global problem.
    let iters = 50.0;
    let total_flops = iters
        * FLOPS_PER_POINT_ITER
        * cfg.local_points() as f64
        * (cfg.ranks_per_node * nodes) as f64;
    HpcgResult {
        gflops,
        fraction_of_peak: gflops / peak,
        time: Time::seconds(total_flops / (gflops * 1e9)),
    }
}

/// Symbolic access trace of one rank's SpMV over the local grid — the
/// dominant memory pattern of the CG iteration (SymGS touches the same
/// arrays with the same indirection).
pub fn traffic_trace(cfg: &HpcgConfig) -> arch::Trace {
    kernels::cg::spmv_csr_traffic_trace(cfg.nx as u64, cfg.ny as u64, cfg.nz as u64)
}

/// Fraction-of-peak predicted by the cache-hierarchy model rather than
/// the calibrated [`bytes_per_flop`] table: simulates the local-grid
/// SpMV trace through the machine's cache hierarchy and port model.
/// Returns `None` for machines the trace predictor has no hierarchy
/// config for. [`simulate`] is untouched — this is the differential
/// check that the calibrated path and the mechanistic path agree.
pub fn cache_model_fraction_of_peak(machine: &Machine, cfg: &HpcgConfig) -> Option<f64> {
    let predictor = arch::cachesim::Predictor::for_machine(machine)?;
    let trace = traffic_trace(cfg);
    let n = cfg.local_points() as f64;
    let spec = arch::KernelSpec {
        name: "hpcg_spmv".into(),
        // SpMV flops of the full 27-lane unroll, matching the trace.
        flops: 2.0 * 27.0 * n,
        counted_bytes: trace.nominal_bytes() as f64,
        vectorizable: 1.0,
        tuned: cfg.version == HpcgVersion::Optimized,
    };
    Some(predictor.predict(&spec, &trace).pct_peak_flops)
}

/// [`simulate`] through a [`simkit::cache::Cache`]: Fig. 7 and Table IV
/// run the same `(machine, nodes, config)` points, so whoever runs first
/// pays and the rest reuse.
pub fn simulate_cached(
    cache: &simkit::cache::Cache,
    machine: &Machine,
    nodes: usize,
    cfg: &HpcgConfig,
) -> HpcgResult {
    cache.get_or_persistent(cache_key(machine, nodes, cfg), || {
        simulate(machine, nodes, cfg)
    })
}

/// The key [`simulate_cached`] stores its result under.
pub fn cache_key(machine: &Machine, nodes: usize, cfg: &HpcgConfig) -> simkit::cache::CacheKey {
    simkit::cache::CacheKey::new(
        machine.name.clone(),
        "hpcg",
        format!("nodes={nodes}|cfg={cfg:?}"),
    )
}

impl serde::bin::Encode for HpcgResult {
    fn encode(&self, out: &mut Vec<u8>) {
        self.gflops.encode(out);
        self.fraction_of_peak.encode(out);
        self.time.encode(out);
    }
}

impl serde::bin::Decode for HpcgResult {
    fn decode(r: &mut serde::bin::Reader<'_>) -> Result<Self, serde::bin::DecodeError> {
        Ok(HpcgResult {
            gflops: f64::decode(r)?,
            fraction_of_peak: f64::decode(r)?,
            time: Time::decode(r)?,
        })
    }
}

impl simkit::store::StoreValue for HpcgResult {
    const TYPE_NAME: &'static str = "hpcg::HpcgResult";
}

/// Run the real preconditioned CG on a small grid and return
/// `(iterations, relative_residual, achieved_host_gflops)`. Used by tests
/// and benches to pin the simulated benchmark to the genuine algorithm.
/// Runs on the structure-aware [`StencilMatrix`] engine — stencil-packed
/// SpMV and the parallel multicolor SymGS preconditioner.
pub fn verify_small_grid(nx: usize, ny: usize, nz: usize) -> (usize, f64, f64) {
    let a = StencilMatrix::hpcg(nx, ny, nz);
    let b = vec![1.0; a.n];
    let t0 = std::time::Instant::now();
    let res = cg_solve(&a, &b, 200, 1e-8, true);
    let dt = t0.elapsed().as_secs_f64();
    (res.iterations, res.relative_residual, res.flops / dt / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arch::machines::{cte_arm, marenostrum4};

    #[test]
    fn real_cg_converges_on_small_grid() {
        let (iters, rel, gflops) = verify_small_grid(8, 8, 8);
        assert!(rel < 1e-8, "residual {rel}");
        assert!(
            iters < 50,
            "SymGS-preconditioned CG converges fast: {iters}"
        );
        assert!(gflops > 0.0);
    }

    #[test]
    fn cte_optimized_single_node_fraction() {
        // Paper: 2.91 % of peak on one node.
        let cte = cte_arm();
        let r = simulate(&cte, 1, &HpcgConfig::paper(HpcgVersion::Optimized));
        assert!(
            (r.fraction_of_peak - 0.0291).abs() < 0.002,
            "fraction {}",
            r.fraction_of_peak
        );
    }

    #[test]
    fn cte_optimized_192_nodes_fraction() {
        // Paper: 2.96 % of peak on 192 nodes.
        let cte = cte_arm();
        let r = simulate(&cte, 192, &HpcgConfig::paper(HpcgVersion::Optimized));
        assert!(
            (r.fraction_of_peak - 0.0296).abs() < 0.002,
            "fraction {}",
            r.fraction_of_peak
        );
    }

    #[test]
    fn speedup_matches_table4() {
        // Table IV: HPCG speedup CTE/MN4 = 2.50 at 1 node, 3.24 at 192.
        let cte = cte_arm();
        let mn4 = marenostrum4();
        let cfg = HpcgConfig::paper(HpcgVersion::Optimized);
        let s1 = simulate(&cte, 1, &cfg).gflops / simulate(&mn4, 1, &cfg).gflops;
        assert!((s1 - 2.50).abs() < 0.25, "1-node speedup {s1}");
        let s192 = simulate(&cte, 192, &cfg).gflops / simulate(&mn4, 192, &cfg).gflops;
        assert!((s192 - 3.24).abs() < 0.33, "192-node speedup {s192}");
    }

    #[test]
    fn vanilla_is_slower_than_optimized_everywhere() {
        for m in [cte_arm(), marenostrum4()] {
            let v = simulate(&m, 1, &HpcgConfig::paper(HpcgVersion::Vanilla));
            let o = simulate(&m, 1, &HpcgConfig::paper(HpcgVersion::Optimized));
            assert!(v.gflops < o.gflops, "{}: vanilla must lose", m.name);
        }
    }

    #[test]
    fn vanilla_gap_is_larger_on_a64fx() {
        // The A64FX vanilla build loses both bandwidth (C store path) and
        // bytes/flop, so its vanilla/optimized ratio is worse than MN4's.
        let cte = cte_arm();
        let mn4 = marenostrum4();
        let ratio = |m: &Machine| {
            simulate(m, 1, &HpcgConfig::paper(HpcgVersion::Vanilla)).gflops
                / simulate(m, 1, &HpcgConfig::paper(HpcgVersion::Optimized)).gflops
        };
        assert!(ratio(&cte) < ratio(&mn4));
    }

    #[test]
    fn hpcg_is_far_below_hpl_fractions() {
        // The paper's closing remark: HPCG sits at a few % of peak while
        // LINPACK reaches 63–85 %.
        let cte = cte_arm();
        let r = simulate(&cte, 192, &HpcgConfig::paper(HpcgVersion::Optimized));
        assert!(r.fraction_of_peak < 0.05);
    }

    #[test]
    fn local_problem_size_matches_paper() {
        let cfg = HpcgConfig::paper(HpcgVersion::Optimized);
        assert_eq!(cfg.local_points(), 48 * 88 * 88);
        assert_eq!(cfg.ranks_per_node, 48);
    }

    #[test]
    fn simulated_time_is_positive_and_scales() {
        let cte = cte_arm();
        let cfg = HpcgConfig::paper(HpcgVersion::Optimized);
        let t1 = simulate(&cte, 1, &cfg).time;
        let t192 = simulate(&cte, 192, &cfg).time;
        // Weak-scaled problem: time per node is ~constant.
        let ratio = t192.value() / t1.value();
        assert!((ratio - 1.0).abs() < 0.05, "weak-scaling ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "rank oversubscription")]
    fn oversubscription_rejected() {
        let cte = cte_arm();
        let mut cfg = HpcgConfig::paper(HpcgVersion::Optimized);
        cfg.ranks_per_node = 49;
        simulate(&cte, 1, &cfg);
    }

    #[test]
    fn cache_model_agrees_with_calibrated_path() {
        // The mechanistic cache-model prediction and the calibrated
        // bytes-per-flop table must land in the same regime — both say
        // "a few percent of peak" for the vendor build on the A64FX.
        let cte = cte_arm();
        let cfg = HpcgConfig::paper(HpcgVersion::Optimized);
        let calibrated = simulate(&cte, 1, &cfg).fraction_of_peak;
        let modeled = cache_model_fraction_of_peak(&cte, &cfg).unwrap();
        assert!(
            modeled > 0.5 * calibrated && modeled < 2.0 * calibrated,
            "cache model {modeled} vs calibrated {calibrated}"
        );
    }

    #[test]
    fn cache_model_skips_unknown_machines() {
        let mut m = cte_arm();
        m.name = "unknown".into();
        let cfg = HpcgConfig::paper(HpcgVersion::Optimized);
        assert!(cache_model_fraction_of_peak(&m, &cfg).is_none());
    }
}
