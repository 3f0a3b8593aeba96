//! Host micro-benchmarks for the kernel runtime (`bench-all --json`).
//!
//! Unlike the experiment registry — which reproduces the *paper's* A64FX
//! numbers from analytic machine models — this module measures what the
//! rewritten parallel runtime actually delivers on the machine running the
//! binary: per-kernel GB/s or GFLOP/s with 1 worker thread and with the
//! full configured pool, plus the resulting speedup, the interconnect fast
//! path, the structure-aware HPCG engine and the `mpisim` layer under the
//! Alya study (the app workload that dominates a `regen` pass). The
//! snapshot also carries the deterministic CTE-Arm cache-model predictions
//! (`cachemodel`). The output, rendered through `json::Writer`, is the
//! committed `BENCH_host.json` snapshot (regenerate it with
//! `cluster-eval bench-all --json > BENCH_host.json` — the recorded
//! `host.detected_cores` field says what hardware a snapshot came from, so
//! numbers from a 1-core CI container and a 48-core A64FX node are never
//! confused). Serve and scheduler-replay throughput are not timed here:
//! perfbench's `whatif` and `sched-replay` workloads own them, with
//! regression bounds.
//!
//! Every measurement uses calibrated best-of-k timing: one warm-up call
//! estimates the closure's wall time, reps are auto-scaled so every timed
//! batch runs at least `TARGET_BATCH_SECS` (25 ms), and the reported
//! number is the best per-rep time over `BATCHES` (5) batches. That keeps a
//! microsecond kernel from being timed as a single clock-granularity
//! sample, so run-to-run deltas in `BENCH_host.json` reflect the code, not
//! the timer. The kernels themselves are the real `crates/kernels`
//! implementations, so these numbers move when the runtime or the kernels
//! do.

use crate::cachemodel::predict_all;
use crate::json::Writer;
use apps::alya::Alya;
use arch::cachesim::Prediction;
use arch::cost::{
    spmv_csr_bytes, spmv_csr_moved_bytes, spmv_stencil_bytes, spmv_stencil_moved_bytes,
};
use interconnect::folded::FoldedTable;
use interconnect::link::LinkModel;
use interconnect::network::Network;
use interconnect::routing::{all_pairs_loads, RouteSteps};
use interconnect::tofu::{TofuD, DIMS};
use interconnect::topology::{NodeId, Topology};
use kernels::cg::{build_hpcg_matrix, symgs};
use kernels::gemm::{gemm_blocked, gemm_flops};
use kernels::matrix::DenseMatrix;
use kernels::md::LjSystem;
use kernels::mg::MgHierarchy;
use kernels::stencil::OceanGrid;
use kernels::stencil_matrix::StencilMatrix;
use kernels::stream::{StreamArrays, StreamKernel};
use mpisim::job::thread_noise_counts;
use std::time::Instant;

/// Minimum wall time a calibrated timed batch should cover. Long enough
/// to amortize timer granularity and scheduling jitter, short enough that
/// the full kernel suite stays interactive.
const TARGET_BATCH_SECS: f64 = 0.025;

/// Timed batches per calibrated measurement (the best one is reported).
const BATCHES: usize = 5;

/// Upper bound on auto-scaled reps, so a nanosecond-cheap closure cannot
/// spin a batch for minutes.
const MAX_REPS: usize = 100_000;

/// Calibrated best-of-k timing: one warm-up call primes caches and
/// estimates the closure's wall time, reps are scaled so a batch covers
/// [`TARGET_BATCH_SECS`], and the best per-rep seconds over [`BATCHES`]
/// batches is returned.
fn calibrated_best<F: FnMut()>(mut f: F) -> f64 {
    let t0 = Instant::now();
    f();
    let warm = t0.elapsed().as_secs_f64();
    let reps = if warm > 0.0 {
        ((TARGET_BATCH_SECS / warm).ceil() as usize).clamp(1, MAX_REPS)
    } else {
        MAX_REPS
    };
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() / reps as f64);
    }
    best
}

/// A kernel measurement entry point: thread count in, throughput out.
type BenchFn = fn(usize) -> f64;

/// One kernel's measurement at both thread settings.
#[derive(Debug, Clone)]
pub struct KernelBench {
    /// Kernel name (`stream_triad`, `gemm_blocked`, …).
    pub name: &'static str,
    /// Unit of `value_1t` / `value_nt` (`GB/s` or `GFLOP/s`).
    pub metric: &'static str,
    /// Problem-size note for the record (e.g. `n=2000000`).
    pub size: String,
    /// Throughput with a single worker thread.
    pub value_1t: f64,
    /// Throughput with the full configured pool.
    pub value_nt: f64,
}

/// Interconnect fast-path measurements: per-message route-cost resolution
/// (before/after the memoized table), route-step enumeration rate, and the
/// parallel all-pairs link-load sweep at one worker vs. the full pool.
#[derive(Debug, Clone)]
pub struct NetworkBench {
    /// Topology the route-rate numbers come from.
    pub route_topology: String,
    /// Routes resolved per second through `Network::path_cost` with the
    /// memoized [`FoldedTable`] built — the per-message fast path every
    /// `message_time` call rides.
    pub routes_per_sec: f64,
    /// The same query stream answered the pre-change way: `path_cost`
    /// before `routing_table()` is built falls back to direct
    /// coordinate-decode `hops()`/`sharing()` — byte-for-byte the code
    /// `message_time` ran before the table existed. Measured fresh on the
    /// same host every run, so the before/after never mixes machines.
    pub baseline_routes_per_sec: f64,
    /// Full-route step enumeration rate: the non-allocating `RouteSteps`
    /// iterator walked to completion over every ordered pair.
    pub route_enum_per_sec: f64,
    /// Topology the link-load sweep runs on.
    pub sweep_topology: String,
    /// All-pairs link-load sweep wall time with a 1-worker pool, ms.
    pub sweep_ms_1t: f64,
    /// Same sweep with the full configured pool, ms.
    pub sweep_ms_nt: f64,
    /// Topology of the symmetry-folded rows (full Fugaku).
    pub folded_topology: String,
    /// Path-cost resolutions per second through the folded table's
    /// all-pairs decode loop (hops + sharing class per pair).
    pub folded_routes_per_sec: f64,
    /// Wall time to build the full-Fugaku folded table, milliseconds.
    pub folded_build_ms: f64,
    /// Resident bytes of the full-Fugaku folded table.
    pub folded_table_bytes: usize,
    /// Topology of the 10k-node closed-form sweep row.
    pub sweep_10k_topology: String,
    /// Closed-form all-pairs uniform-traffic sweep (link loads + mean
    /// hops) at 10k+ nodes, milliseconds.
    pub sweep_10k_closed_ms: f64,
    /// The same closed-form sweep at full-Fugaku scale, milliseconds.
    pub fugaku_sweep_closed_ms: f64,
}

/// Structure-aware HPCG engine measurements: the CSR baseline against the
/// stencil-packed format for SpMV (throughput *and* effective traffic),
/// the sequential SymGS oracle against the parallel multicolor smoother,
/// and the full V-cycle at one worker vs. the configured pool.
#[derive(Debug, Clone)]
pub struct HpcgBench {
    /// Grid the SpMV/SymGS rows ran on (e.g. `32x32x32`).
    pub grid: String,
    /// CSR SpMV flop rate under the full pool, GFLOP/s.
    pub spmv_csr_gflops: f64,
    /// CSR SpMV *compulsory-DRAM-floor* traffic under the full pool, GB/s:
    /// the minimal main-memory bytes a perfect cache would move
    /// ([`spmv_csr_bytes`]) over measured wall time. A lower bound on the
    /// achieved bandwidth, NOT a throughput ranking across formats.
    pub spmv_csr_gbs_dram_floor: f64,
    /// CSR SpMV *moved* traffic, GB/s ([`spmv_csr_moved_bytes`]: what the
    /// loop actually touches). Comparable across matrix formats, unlike
    /// the floor number.
    pub spmv_csr_gbs_moved: f64,
    /// Stencil-packed SpMV flop rate under the full pool, GFLOP/s.
    pub spmv_stencil_gflops: f64,
    /// Stencil-packed SpMV *compulsory-DRAM-floor* traffic, GB/s
    /// ([`spmv_stencil_bytes`]: just the `x`/`y` streams — the packed
    /// format's whole metadata is ~500 B, so its floor is tiny *by
    /// construction*). Dividing by these few bytes makes a *faster* kernel
    /// print a *smaller* GB/s than CSR — never compare this column across
    /// formats; use the `_gbs_moved` columns for that.
    pub spmv_stencil_gbs_dram_floor: f64,
    /// Stencil-packed SpMV *moved* traffic, GB/s
    /// ([`spmv_stencil_moved_bytes`]): the format-comparable number.
    pub spmv_stencil_gbs_moved: f64,
    /// Sequential (oracle) SymGS sweeps per second.
    pub symgs_seq_sweeps_per_sec: f64,
    /// Parallel multicolor SymGS sweeps per second under the full pool.
    pub symgs_colored_sweeps_per_sec: f64,
    /// One V-cycle on the stencil hierarchy with a 1-worker pool, ms.
    pub vcycle_ms_1t: f64,
    /// Same V-cycle with the full configured pool, ms.
    pub vcycle_ms_nt: f64,
}

/// The `mpisim` layer under Alya's Fig. 8 sweep: wall time on one thread
/// and the exact work behind it.
#[derive(Debug, Clone)]
pub struct MpisimBench {
    /// The runs timed.
    pub workload: String,
    /// Wall time of the whole sweep on one worker thread, in ms.
    pub wall_ms_1t: f64,
    /// Rank-compute steps across the sweep (ranks × compute calls).
    pub rank_steps: u64,
    /// Summed [`mpisim::Job::noise_counts`] of the sweep: rank steps whose
    /// imbalance uniforms were drawn, and those finished in full.
    pub noise_counts: (u64, u64),
}

/// The full host snapshot.
#[derive(Debug, Clone)]
pub struct HostBench {
    /// Cores the OS reports (`available_parallelism`). Distinct from
    /// `pool_threads`: a snapshot may legitimately record a pool wider or
    /// narrower than the hardware.
    pub detected_cores: usize,
    /// Worker threads the "N-thread" column used.
    pub pool_threads: usize,
    /// The `RAYON_NUM_THREADS` override in effect, if any.
    pub rayon_threads_env: Option<String>,
    /// Per-kernel measurements.
    pub kernels: Vec<KernelBench>,
    /// Interconnect fast-path measurements.
    pub network: NetworkBench,
    /// Structure-aware HPCG engine measurements.
    pub hpcg: HpcgBench,
    /// The `mpisim` layer under Alya's Fig. 8 sweep.
    pub mpisim: MpisimBench,
    /// Cache-model predictions for every `cachemodel` registry kernel on
    /// CTE-Arm. Deterministic — no host measurement involved.
    pub cache: Vec<Prediction>,
}

/// `num / den`, or 0 when the denominator is not positive.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Run `measure` under a pool fixed to `threads` workers.
fn with_pool<R>(threads: usize, measure: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool construction is infallible")
        .install(measure)
}

fn bench_stream(threads: usize) -> f64 {
    let mut arrays = StreamArrays::new(2_000_000);
    let bytes = (arrays.len() * StreamKernel::Triad.bytes_per_element()) as f64;
    let parallel = threads > 1;
    let secs = with_pool(threads, || {
        calibrated_best(|| {
            if parallel {
                arrays.run_parallel(StreamKernel::Triad);
            } else {
                arrays.run_sequential(StreamKernel::Triad);
            }
        })
    });
    bytes / secs / 1e9
}

fn bench_gemm(threads: usize) -> f64 {
    let n = 192;
    let a = DenseMatrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 97) as f64 / 97.0);
    let b = DenseMatrix::from_fn(n, n, |i, j| ((i * 13 + j * 41) % 89) as f64 / 89.0);
    let mut c = DenseMatrix::zeros(n, n);
    let secs = with_pool(threads, || calibrated_best(|| gemm_blocked(&a, &b, &mut c)));
    gemm_flops(n, n, n) as f64 / secs / 1e9
}

fn bench_spmv(threads: usize) -> f64 {
    let a = build_hpcg_matrix(24, 24, 24);
    let x: Vec<f64> = (0..a.n).map(|i| (i as f64).sin()).collect();
    let mut y = vec![0.0; a.n];
    let secs = with_pool(threads, || calibrated_best(|| a.spmv(&x, &mut y)));
    (2 * a.nnz()) as f64 / secs / 1e9
}

fn bench_spmv_stencil(threads: usize) -> f64 {
    let a = StencilMatrix::hpcg(24, 24, 24);
    let x: Vec<f64> = (0..a.n).map(|i| (i as f64).sin()).collect();
    let mut y = vec![0.0; a.n];
    let secs = with_pool(threads, || calibrated_best(|| a.spmv(&x, &mut y)));
    (2 * a.nnz()) as f64 / secs / 1e9
}

fn bench_stencil(threads: usize) -> f64 {
    let mut grid = OceanGrid::with_bump(512, 256);
    // Bytes per step is a pure function of the grid size.
    let (_, bytes) = grid.step(1.0, 1000.0);
    let secs = with_pool(threads, || {
        calibrated_best(|| {
            grid.step(1.0, 1000.0);
        })
    });
    bytes as f64 / secs / 1e9
}

fn bench_md(threads: usize) -> f64 {
    let mut sys = LjSystem::cubic_lattice(12, 0.8, 42);
    // Positions never move here, so the flop count is call-invariant.
    let (_, flops) = sys.compute_forces();
    let secs = with_pool(threads, || {
        calibrated_best(|| {
            sys.compute_forces();
        })
    });
    flops as f64 / secs / 1e9
}

fn topo_label(t: &TofuD) -> String {
    format!("TofuD {:?} ({} nodes)", t.dims, t.nodes())
}

/// Route-cost resolutions per second through [`Network::path_cost`] over
/// every ordered pair — the operation `message_time` performs per message.
/// With the routing table built this is the O(1) fast path; on a fresh
/// network it falls back to the pre-change direct computation, which is
/// what makes it the in-situ baseline.
fn bench_resolve_rate(net: &Network<TofuD>) -> f64 {
    let n = net.topology().nodes();
    let secs = calibrated_best(|| {
        let mut hop_sink = 0u64;
        let mut share_sink = 0.0f64;
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    let c = net.path_cost(NodeId(a), NodeId(b));
                    hop_sink = hop_sink.wrapping_add(c.hops as u64);
                    share_sink += c.sharing;
                }
            }
        }
        std::hint::black_box((hop_sink, share_sink));
    });
    (n * (n - 1)) as f64 / secs
}

/// Step-enumeration rate: walk the non-allocating step iterator over every
/// ordered pair of the CTE-Arm torus. Uses the same decode-free
/// constructor the all-pairs sweeps use.
fn bench_route_enum_rate(topo: &TofuD) -> f64 {
    let n = topo.nodes();
    let secs = calibrated_best(|| {
        let mut sink = 0u64;
        for s in 0..n {
            let src = NodeId(s);
            let sc = topo.coords(src);
            let mut dc = [0usize; DIMS];
            for r in 0..n {
                if r != s {
                    sink = RouteSteps::from_coords(topo, src, sc, dc)
                        .fold(sink, |acc, step| acc.wrapping_add(step.to.index() as u64));
                }
                topo.advance_coords(&mut dc);
            }
        }
        std::hint::black_box(sink);
    });
    (n * (n - 1)) as f64 / secs
}

/// Folded-table resolutions per second: stream the all-pairs decode loop
/// (two array reads + unpack per ordered pair, self-pairs included) over a
/// table that fits in cache.
fn bench_folded_resolve_rate(topo: &TofuD) -> f64 {
    let t = FoldedTable::build(topo);
    let n = t.nodes();
    let secs = calibrated_best(|| {
        std::hint::black_box(t.checksum_all_pairs());
    });
    (n * n) as f64 / secs
}

/// Closed-form uniform-traffic sweep wall time (ms): per-link loads with
/// max/mean plus the machine-wide mean hop distance.
fn bench_closed_sweep(topo: &TofuD) -> f64 {
    calibrated_best(|| {
        let load = interconnect::sweep::uniform_link_load(topo);
        let hops = interconnect::sweep::uniform_mean_hops(topo);
        std::hint::black_box((load, hops));
    }) * 1e3
}

/// All-pairs link-load sweep wall time (ms) under a pool of `threads`.
fn bench_sweep(topo: &TofuD, threads: usize) -> f64 {
    with_pool(threads, || {
        calibrated_best(|| {
            std::hint::black_box(all_pairs_loads(topo).max_mean());
        }) * 1e3
    })
}

/// Measure the interconnect fast path on the 192-node CTE-Arm torus:
/// per-message cost resolution before (direct fallback) and after (memoized
/// folded table) the fast path, step enumeration, and the all-pairs
/// link-load sweep on a 1536-node TofuD at 1 worker vs. the full pool.
pub fn run_network_bench(pool_threads: usize) -> NetworkBench {
    let small = TofuD::cte_arm();
    let big = TofuD::with_dims([8, 4, 4, 2, 3, 2], [true, true, true, false, true, false]);
    // 10 368 nodes: the smallest row past the ISSUE's 10k sweep target.
    let tenk = TofuD::with_dims([12, 12, 6, 2, 3, 2], [true, true, true, false, true, false]);
    let fugaku = crate::faults::fugaku_topo();
    // Two networks over the same topology: one left table-less so
    // `path_cost` runs the pre-change direct computation, one with the
    // memoized table the production path uses.
    let direct = Network::new(TofuD::cte_arm(), LinkModel::tofud());
    let cached = Network::new(TofuD::cte_arm(), LinkModel::tofud());
    cached.routing_table();
    let folded_build_ms = calibrated_best(|| {
        std::hint::black_box(FoldedTable::build(&fugaku));
    }) * 1e3;
    NetworkBench {
        route_topology: topo_label(&small),
        routes_per_sec: bench_resolve_rate(&cached),
        baseline_routes_per_sec: bench_resolve_rate(&direct),
        route_enum_per_sec: bench_route_enum_rate(&small),
        sweep_topology: topo_label(&big),
        sweep_ms_1t: bench_sweep(&big, 1),
        sweep_ms_nt: bench_sweep(&big, pool_threads),
        folded_topology: topo_label(&fugaku),
        folded_routes_per_sec: bench_folded_resolve_rate(&small),
        folded_build_ms,
        folded_table_bytes: FoldedTable::build(&fugaku).memory_bytes(),
        sweep_10k_topology: topo_label(&tenk),
        sweep_10k_closed_ms: bench_closed_sweep(&tenk),
        fugaku_sweep_closed_ms: bench_closed_sweep(&fugaku),
    }
}

/// Measure the structure-aware HPCG engine on a 32³ grid: both SpMV
/// formats (same operator, same flops — only the stored format differs),
/// both SymGS smoothers, and the 4-level V-cycle at 1 worker vs. the pool.
pub fn run_hpcg_bench(pool_threads: usize) -> HpcgBench {
    let (nx, ny, nz) = (32, 32, 32);
    let csr = build_hpcg_matrix(nx, ny, nz);
    let st = StencilMatrix::hpcg(nx, ny, nz);
    let n = st.n;
    let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
    let b = vec![1.0; n];
    let mut y = vec![0.0; n];

    let spmv_csr_secs = with_pool(pool_threads, || calibrated_best(|| csr.spmv(&x, &mut y)));
    let spmv_st_secs = with_pool(pool_threads, || calibrated_best(|| st.spmv(&x, &mut y)));
    let flops = (2 * csr.nnz()) as f64;

    // Sweeps/s: the sequential lexicographic oracle vs. the parallel
    // multicolor smoother (same operator; the guess vector lives outside
    // the timed region and per-sweep cost is value-independent).
    let mut xs = vec![0.0; n];
    let symgs_seq_secs = calibrated_best(|| symgs(&csr, &b, &mut xs));
    xs.fill(0.0);
    let symgs_col_secs = with_pool(pool_threads, || {
        calibrated_best(|| st.symgs_colored(&b, &mut xs))
    });

    let h = MgHierarchy::build(nx, ny, nz, 4);
    let mut xv = vec![0.0; n];
    let mut vcycle_ms = |threads: usize| {
        with_pool(threads, || {
            calibrated_best(|| {
                xv.fill(0.0);
                h.v_cycle(&b, &mut xv);
            }) * 1e3
        })
    };
    let vcycle_ms_1t = vcycle_ms(1);
    let vcycle_ms_nt = vcycle_ms(pool_threads);

    HpcgBench {
        grid: format!("{nx}x{ny}x{nz}"),
        spmv_csr_gflops: flops / spmv_csr_secs / 1e9,
        spmv_csr_gbs_dram_floor: spmv_csr_bytes(n, csr.nnz()) / spmv_csr_secs / 1e9,
        spmv_csr_gbs_moved: spmv_csr_moved_bytes(n, csr.nnz()) / spmv_csr_secs / 1e9,
        spmv_stencil_gflops: flops / spmv_st_secs / 1e9,
        spmv_stencil_gbs_dram_floor: spmv_stencil_bytes(n) / spmv_st_secs / 1e9,
        spmv_stencil_gbs_moved: spmv_stencil_moved_bytes(n) / spmv_st_secs / 1e9,
        symgs_seq_sweeps_per_sec: 1.0 / symgs_seq_secs,
        symgs_colored_sweeps_per_sec: 1.0 / symgs_col_secs,
        vcycle_ms_1t,
        vcycle_ms_nt,
    }
}

/// Measure the six host kernels at 1 thread and at `pool_threads`.
///
/// Factored out of [`run_host_bench`] so the `bench-delta` regression
/// gate can run just the kernel rows (twice, cheaply) without paying for
/// the network and HPCG sections.
pub fn run_kernel_benches(pool_threads: usize) -> Vec<KernelBench> {
    let runs: Vec<(&'static str, &'static str, String, BenchFn)> = vec![
        (
            "stream_triad",
            "GB/s",
            "n=2000000 f64 elements".into(),
            bench_stream,
        ),
        (
            "gemm_blocked",
            "GFLOP/s",
            "192x192x192 packed tiles".into(),
            bench_gemm,
        ),
        (
            "spmv_csr",
            "GFLOP/s",
            "HPCG 24x24x24 27-point".into(),
            bench_spmv,
        ),
        (
            "spmv_stencil",
            "GFLOP/s",
            "HPCG 24x24x24 stencil-packed".into(),
            bench_spmv_stencil,
        ),
        (
            "stencil_ocean",
            "GB/s",
            "512x256 shallow-water".into(),
            bench_stencil,
        ),
        (
            "md_forces",
            "GFLOP/s",
            "1728 LJ particles, cell list".into(),
            bench_md,
        ),
    ];
    runs.into_iter()
        .map(|(name, metric, size, f)| {
            let value_1t = f(1);
            // On a 1-wide pool the "N-thread" leg is the same measurement;
            // skip the duplicate run (the JSON suppresses the column too).
            let value_nt = if pool_threads > 1 {
                f(pool_threads)
            } else {
                value_1t
            };
            KernelBench {
                name,
                metric,
                size,
                value_1t,
                value_nt,
            }
        })
        .collect()
}

/// Time Alya's Fig. 8 points (uncached, one after another on one worker
/// thread) and count their rank steps and imbalance-noise work.
pub fn run_mpisim_bench() -> MpisimBench {
    let alya = Alya::test_case_b();
    let points = alya.sweep_points();
    let sweep = || {
        for &(cluster, nodes) in &points {
            std::hint::black_box(alya.simulate(cluster, nodes));
        }
    };
    let (drawn, evaluated) = thread_noise_counts();
    sweep();
    let (drawn_after, evaluated_after) = thread_noise_counts();
    // Each run is 48 ranks per node over `steps` time steps of one
    // assembly compute and two computes per solver iteration.
    let computes = alya.steps * (1 + 2 * alya.solver_iters);
    let nodes: usize = points.iter().map(|&(_, n)| n).sum();
    MpisimBench {
        workload: format!(
            "Alya fig8: {} points, {nodes} nodes x 48 ranks, {computes} computes per run",
            points.len()
        ),
        wall_ms_1t: with_pool(1, || calibrated_best(sweep)) * 1e3,
        rank_steps: (nodes * 48 * computes) as u64,
        noise_counts: (drawn_after - drawn, evaluated_after - evaluated),
    }
}

/// Measure every kernel at 1 thread and at the configured pool width.
pub fn run_host_bench() -> HostBench {
    let pool_threads = rayon::current_num_threads();
    let detected_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let rayon_threads_env = std::env::var("RAYON_NUM_THREADS").ok();
    if pool_threads > detected_cores {
        eprintln!(
            "warning: pool of {pool_threads} threads oversubscribes the \
             {detected_cores} detected core(s); N-thread numbers will be noisy"
        );
    }
    HostBench {
        detected_cores,
        pool_threads,
        rayon_threads_env,
        kernels: run_kernel_benches(pool_threads),
        network: run_network_bench(pool_threads),
        hpcg: run_hpcg_bench(pool_threads),
        mpisim: run_mpisim_bench(),
        cache: cte_arm_cache(),
    }
}

/// The cache-model predictions for every registry kernel on CTE-Arm.
fn cte_arm_cache() -> Vec<Prediction> {
    predict_all(&arch::machines::cte_arm())
        .expect("the CTE-Arm model always has a hierarchy config")
        .into_iter()
        .map(|(_, p)| p)
        .collect()
}

impl HostBench {
    /// Render as pretty-printed JSON (the `BENCH_host.json` format).
    pub fn to_json(&self) -> String {
        Writer::document(|w| {
            w.object("host", |w| {
                w.int("detected_cores", self.detected_cores as u64)
                    .int("pool_threads", self.pool_threads as u64);
                match &self.rayon_threads_env {
                    Some(v) => w.str("rayon_num_threads_env", v),
                    None => w.null("rayon_num_threads_env"),
                };
            });
            w.array("kernels", &self.kernels, |w, k| {
                w.str("name", k.name)
                    .str("metric", k.metric)
                    .str("size", &k.size);
                self.thread_columns(
                    w,
                    ("value", 3),
                    (k.value_1t, k.value_nt),
                    ("speedup", ratio(k.value_nt, k.value_1t)),
                );
            });
            let hp = &self.hpcg;
            w.object("hpcg", |w| {
                w.str("grid", &hp.grid)
                    .num("spmv_csr_gflops", hp.spmv_csr_gflops, 3)
                    .num("spmv_csr_gbs_dram_floor", hp.spmv_csr_gbs_dram_floor, 3)
                    .num("spmv_csr_gbs_moved", hp.spmv_csr_gbs_moved, 3)
                    .num("spmv_stencil_gflops", hp.spmv_stencil_gflops, 3)
                    .num(
                        "spmv_stencil_gbs_dram_floor",
                        hp.spmv_stencil_gbs_dram_floor,
                        3,
                    )
                    .num("spmv_stencil_gbs_moved", hp.spmv_stencil_gbs_moved, 3)
                    .num(
                        "spmv_format_speedup",
                        ratio(hp.spmv_stencil_gflops, hp.spmv_csr_gflops),
                        3,
                    )
                    .num("symgs_seq_sweeps_per_sec", hp.symgs_seq_sweeps_per_sec, 1)
                    .num(
                        "symgs_colored_sweeps_per_sec",
                        hp.symgs_colored_sweeps_per_sec,
                        1,
                    )
                    .num(
                        "symgs_speedup",
                        ratio(hp.symgs_colored_sweeps_per_sec, hp.symgs_seq_sweeps_per_sec),
                        3,
                    );
                self.thread_columns(
                    w,
                    ("vcycle_wall_ms", 2),
                    (hp.vcycle_ms_1t, hp.vcycle_ms_nt),
                    ("vcycle_speedup", ratio(hp.vcycle_ms_1t, hp.vcycle_ms_nt)),
                );
            });
            let nw = &self.network;
            w.object("network", |w| {
                w.str("route_topology", &nw.route_topology)
                    .num("routes_per_sec", nw.routes_per_sec, 0)
                    .num("baseline_routes_per_sec", nw.baseline_routes_per_sec, 0)
                    .num(
                        "resolve_speedup",
                        ratio(nw.routes_per_sec, nw.baseline_routes_per_sec),
                        3,
                    )
                    .num("route_enum_per_sec", nw.route_enum_per_sec, 0)
                    .str("sweep_topology", &nw.sweep_topology);
                self.thread_columns(
                    w,
                    ("sweep_wall_ms", 1),
                    (nw.sweep_ms_1t, nw.sweep_ms_nt),
                    ("sweep_speedup", ratio(nw.sweep_ms_1t, nw.sweep_ms_nt)),
                );
                w.str("folded_topology", &nw.folded_topology)
                    .num("folded_routes_per_sec", nw.folded_routes_per_sec, 0)
                    .num("folded_build_ms", nw.folded_build_ms, 1)
                    .int("folded_table_bytes", nw.folded_table_bytes as u64)
                    .str("sweep_10k_topology", &nw.sweep_10k_topology)
                    .num("sweep_10k_closed_ms", nw.sweep_10k_closed_ms, 2)
                    .num("fugaku_sweep_closed_ms", nw.fugaku_sweep_closed_ms, 2);
            });
            let mp = &self.mpisim;
            w.object("mpisim", |w| {
                w.str("workload", &mp.workload)
                    .num("wall_ms_1_thread", mp.wall_ms_1t, 1)
                    .int("rank_steps", mp.rank_steps)
                    .int("noise_drawn", mp.noise_counts.0)
                    .int("noise_evaluated", mp.noise_counts.1);
            });
            w.array("cache", &self.cache, |w, p| {
                w.str("kernel", &p.kernel)
                    .int("dram_bytes", p.sim.dram_bytes())
                    .int("nominal_bytes", p.sim.nominal_bytes)
                    .num("pct_peak_flops", p.pct_peak_flops, 4)
                    .num("pct_peak_bw", p.pct_peak_bw, 4)
                    .str("bound", &p.bound);
            });
        })
    }

    /// One quantity measured at 1 worker and at the full pool: the
    /// `<stem>_1_thread` column, then `<stem>_<N>_threads` and the
    /// speedup. A 1-wide pool has no distinct N-thread leg, so it gets no
    /// N-thread column and a `null` speedup rather than noise over noise.
    fn thread_columns(
        &self,
        w: &mut Writer,
        (stem, decimals): (&str, usize),
        (one, many): (f64, f64),
        (speedup_key, speedup): (&str, f64),
    ) {
        w.num(&format!("{stem}_1_thread"), one, decimals);
        let n = self.pool_threads;
        if n > 1 {
            w.num(&format!("{stem}_{n}_threads"), many, decimals)
                .num(speedup_key, speedup, 3);
        } else {
            w.null(speedup_key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cachemodel::registry;
    use crate::json::{self, Value};

    /// A snapshot on a `pool_threads`-wide pool (as many detected cores)
    /// with one kernel row that triples on a wider pool.
    fn sample(pool_threads: usize) -> HostBench {
        HostBench {
            detected_cores: pool_threads,
            pool_threads,
            rayon_threads_env: None,
            kernels: vec![KernelBench {
                name: "stream_triad",
                metric: "GB/s",
                size: "n=10".into(),
                value_1t: 10.0,
                value_nt: if pool_threads > 1 { 30.0 } else { 10.0 },
            }],
            network: NetworkBench {
                route_topology: "TofuD [4, 2, 2, 2, 3, 2] (192 nodes)".into(),
                routes_per_sec: 5.0e7,
                baseline_routes_per_sec: 1.0e7,
                route_enum_per_sec: 2.0e7,
                sweep_topology: "TofuD [8, 4, 4, 2, 3, 2] (1536 nodes)".into(),
                sweep_ms_1t: 200.0,
                sweep_ms_nt: 50.0,
                folded_topology: "TofuD [24, 23, 24, 2, 3, 2] (158976 nodes)".into(),
                folded_routes_per_sec: 1.5e9,
                folded_build_ms: 40.0,
                folded_table_bytes: 9_582_978,
                sweep_10k_topology: "TofuD [12, 12, 6, 2, 3, 2] (10368 nodes)".into(),
                sweep_10k_closed_ms: 1.25,
                fugaku_sweep_closed_ms: 18.5,
            },
            hpcg: HpcgBench {
                grid: "32x32x32".into(),
                spmv_csr_gflops: 2.0,
                spmv_csr_gbs_dram_floor: 18.0,
                spmv_csr_gbs_moved: 26.0,
                spmv_stencil_gflops: 6.0,
                spmv_stencil_gbs_dram_floor: 3.0,
                spmv_stencil_gbs_moved: 42.0,
                symgs_seq_sweeps_per_sec: 100.0,
                symgs_colored_sweeps_per_sec: 250.0,
                vcycle_ms_1t: 40.0,
                vcycle_ms_nt: 10.0,
            },
            mpisim: MpisimBench {
                workload: "Alya fig8: 13 points".into(),
                wall_ms_1t: 61.27,
                rank_steps: 4_518_336,
                noise_counts: (4_518_336, 423_784),
            },
            cache: vec![],
        }
    }

    /// `section.key` of the rendered snapshot, which must parse; an array
    /// section reads its first row.
    fn field(hb: &HostBench, section: &str, key: &str) -> Value {
        let j = hb.to_json();
        let v = json::parse(&j).unwrap_or_else(|e| panic!("snapshot does not parse ({e}):\n{j}"));
        let s = v.get(section).expect("section present");
        let row = s.as_array().map_or(s, |rows| &rows[0]);
        row.get(key)
            .cloned()
            .unwrap_or_else(|| panic!("{section}.{key} missing:\n{j}"))
    }

    #[test]
    fn json_shape_is_well_formed() {
        let hb = sample(4);
        let j = hb.to_json();
        assert!(j.contains("\"detected_cores\": 4"));
        assert!(j.contains("\"rayon_num_threads_env\": null"));
        assert!(j.contains("\"value_4_threads\": 30.000"));
        assert!(j.contains("\"speedup\": 3.000"));
        assert!(j.contains("\"routes_per_sec\": 50000000"));
        assert!(j.contains("\"baseline_routes_per_sec\": 10000000"));
        assert!(j.contains("\"resolve_speedup\": 5.000"));
        assert!(j.contains("\"route_enum_per_sec\": 20000000"));
        assert!(j.contains("\"sweep_wall_ms_4_threads\": 50.0"));
        assert!(j.contains("\"sweep_speedup\": 4.000"));
        assert!(j.contains("\"folded_routes_per_sec\": 1500000000"));
        assert!(j.contains("\"folded_build_ms\": 40.0"));
        assert!(j.contains("\"folded_table_bytes\": 9582978"));
        assert!(j.contains("\"sweep_10k_closed_ms\": 1.25"));
        assert!(j.contains("\"fugaku_sweep_closed_ms\": 18.50"));
        assert!(j.contains("\"hpcg\": {"));
        assert!(j.contains("\"grid\": \"32x32x32\""));
        assert!(j.contains("\"spmv_csr_gbs_dram_floor\": 18.000"));
        assert!(j.contains("\"spmv_csr_gbs_moved\": 26.000"));
        assert!(j.contains("\"spmv_stencil_gbs_dram_floor\": 3.000"));
        assert!(j.contains("\"spmv_stencil_gbs_moved\": 42.000"));
        assert!(j.contains("\"spmv_format_speedup\": 3.000"));
        assert!(j.contains("\"symgs_speedup\": 2.500"));
        assert!(j.contains("\"vcycle_wall_ms_4_threads\": 10.00"));
        assert!(j.contains("\"vcycle_speedup\": 4.000"));
        assert_eq!(field(&hb, "host", "detected_cores"), Value::Num(4.0));
        assert_eq!(field(&hb, "host", "rayon_num_threads_env"), Value::Null);
        assert_eq!(field(&hb, "kernels", "speedup"), Value::Num(3.0));
        assert_eq!(field(&hb, "hpcg", "vcycle_speedup"), Value::Num(4.0));
    }

    #[test]
    fn mpisim_section_has_wall_time_and_exact_counts() {
        for threads in [1, 4] {
            let hb = sample(threads);
            let mpisim = |key| field(&hb, "mpisim", key);
            assert_eq!(mpisim("workload").as_str(), Some("Alya fig8: 13 points"));
            // One worker whatever the pool, so no N-thread column.
            assert_eq!(mpisim("wall_ms_1_thread"), Value::Num(61.3));
            assert_eq!(mpisim("rank_steps"), Value::Num(4_518_336.0));
            assert_eq!(mpisim("noise_drawn"), Value::Num(4_518_336.0));
            assert_eq!(mpisim("noise_evaluated"), Value::Num(423_784.0));
            let j = hb.to_json();
            let section = &j[j.find("\"mpisim\": {").expect("section")..];
            let section = &section[..section.find('}').expect("closed")];
            let keys = section.matches("\": ").count();
            assert_eq!(keys, 6, "the section key and five columns:\n{section}");
        }
    }

    #[test]
    fn single_thread_pool_suppresses_speedup_columns() {
        // Regression for the committed 1-core snapshot: the JSON printed
        // `value_1_thread` AND `value_1_threads` per kernel plus a
        // "speedup" that was pure measurement noise. A 1-wide pool must
        // emit one value column and null ratios.
        let hb = sample(1);
        let j = hb.to_json();
        assert!(j.contains("\"value_1_thread\": 10.000"));
        assert!(!j.contains("\"value_1_threads\""));
        assert!(j.contains("\"speedup\": null"));
        assert!(!j.contains("\"vcycle_wall_ms_1_threads\""));
        assert!(j.contains("\"vcycle_speedup\": null"));
        assert!(!j.contains("\"sweep_wall_ms_1_threads\""));
        assert!(j.contains("\"sweep_speedup\": null"));
        // The scale rows are thread-count-independent and stay.
        assert!(j.contains("\"folded_table_bytes\": 9582978"));
        assert_eq!(field(&hb, "kernels", "value_1_thread"), Value::Num(10.0));
        for (section, key) in [
            ("kernels", "speedup"),
            ("hpcg", "vcycle_speedup"),
            ("network", "sweep_speedup"),
        ] {
            assert_eq!(field(&hb, section, key), Value::Null, "{section}.{key}");
        }
    }

    #[test]
    fn rayon_env_override_is_quoted() {
        let mut hb = sample(2);
        hb.rayon_threads_env = Some("2".into());
        assert!(hb.to_json().contains("\"rayon_num_threads_env\": \"2\""));
        // The override is outside input: a quote in it must not break the
        // document.
        for env in ["2", "2\"x"] {
            hb.rayon_threads_env = Some(env.into());
            let read = field(&hb, "host", "rayon_num_threads_env");
            assert_eq!(read.as_str(), Some(env));
        }
    }

    #[test]
    fn hpcg_ratios_handle_zero_denominators() {
        let mut hb = sample(4);
        let ratios = |hb: &HostBench| {
            ["spmv_format_speedup", "symgs_speedup", "vcycle_speedup"].map(|k| field(hb, "hpcg", k))
        };
        assert_eq!(ratios(&hb), [3.0, 2.5, 4.0].map(Value::Num));
        hb.hpcg.spmv_csr_gflops = 0.0;
        hb.hpcg.symgs_seq_sweeps_per_sec = 0.0;
        hb.hpcg.vcycle_ms_nt = 0.0;
        assert_eq!(ratios(&hb), [0.0; 3].map(Value::Num));
    }

    #[test]
    fn sweep_speedup_handles_zero_denominator() {
        let mut hb = sample(4);
        assert_eq!(field(&hb, "network", "sweep_speedup"), Value::Num(4.0));
        hb.network.sweep_ms_nt = 0.0;
        assert_eq!(field(&hb, "network", "sweep_speedup"), Value::Num(0.0));
    }

    #[test]
    fn resolve_speedup_handles_zero_baseline() {
        let mut hb = sample(4);
        assert_eq!(field(&hb, "network", "resolve_speedup"), Value::Num(5.0));
        hb.network.baseline_routes_per_sec = 0.0;
        assert_eq!(field(&hb, "network", "resolve_speedup"), Value::Num(0.0));
    }

    #[test]
    fn speedup_handles_zero_baseline() {
        let mut hb = sample(4);
        hb.kernels[0].value_1t = 0.0;
        assert_eq!(field(&hb, "kernels", "speedup"), Value::Num(0.0));
    }

    #[test]
    fn snapshot_has_one_cache_row_per_registry_kernel() {
        let mut hb = sample(4);
        hb.cache = cte_arm_cache();
        let v = json::parse(&hb.to_json()).expect("the snapshot parses");
        let rows = v.get("cache").and_then(Value::as_array).expect("rows");
        let kernels: Vec<&str> = rows
            .iter()
            .filter_map(|r| r.get("kernel")?.as_str())
            .collect();
        let keys: Vec<&str> = registry().iter().map(|e| e.key).collect();
        assert_eq!(kernels, keys);
        for key in ["dram_bytes", "nominal_bytes", "pct_peak_bw", "bound"] {
            assert!(rows.iter().all(|r| r.get(key).is_some()), "no {key}");
        }
    }

    #[test]
    fn spmv_moved_gbs_is_format_comparable() {
        // Regression for the old report: dividing the stencil kernel's
        // time by its tiny model-byte count printed ~1 GB/s against CSR's
        // ~17 GB/s for a *faster* kernel. The moved-byte columns must put
        // both formats in the same band.
        let hp = run_hpcg_bench(2);
        assert!(
            hp.spmv_stencil_gflops > 0.0 && hp.spmv_csr_gflops > 0.0,
            "bench must produce nonzero rates"
        );
        let ratio = hp.spmv_stencil_gbs_moved / hp.spmv_csr_gbs_moved;
        assert!(
            ratio > 0.2 && ratio < 5.0,
            "moved-GB/s ratio stencil/CSR out of band: {ratio}"
        );
        // The faster format must never report less moved traffic per
        // second than it reports arithmetic — sanity tie between columns.
        assert!(hp.spmv_stencil_gbs_moved > hp.spmv_stencil_gbs_dram_floor);
    }
}
