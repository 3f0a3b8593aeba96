//! Determinism suite for the work-stealing kernel runtime.
//!
//! The rewritten `third_party/rayon` promises that floating-point results
//! are **bit-identical at every thread count**: side-effect traversals
//! write each element exactly once, and reductions (`sum`/`reduce`) use a
//! fixed chunk grid that depends only on the input length, combined
//! strictly in chunk order. These tests pin that contract end-to-end —
//! from raw `dot`/`sum` through SpMV, STREAM, packed-tile GEMM and a full
//! CG solve — by running each kernel under pools of 1, 2 and 8 workers and
//! comparing outputs with `to_bits()`, not tolerances.
//!
//! CI runs this suite twice: once in the default leg and once with
//! `RAYON_NUM_THREADS=2`, so the pooled code path is exercised even where
//! the default would collapse to one worker.

use kernels::cg::{build_hpcg_matrix, cg_solve};
use kernels::gemm::gemm_blocked;
use kernels::matrix::{dot, DenseMatrix};
use kernels::stencil_matrix::StencilMatrix;
use kernels::stream::{StreamArrays, StreamKernel};
use proptest::prelude::*;
use rayon::prelude::*;

mod common;
use common::at;

/// Adversarial vector: magnitudes spanning ten orders, so any change in
/// summation association changes the result's bits.
fn adversarial(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let small = ((i * 2_654_435_761) % 1000) as f64 * 1e-6;
            let large = (i % 7) as f64 * 1e9;
            small + large - 3e8
        })
        .collect()
}

#[test]
fn dot_is_bit_identical_at_1_2_8_threads() {
    let a = adversarial(300_001);
    let b = adversarial(300_001);
    let d1 = at(1, || dot(&a, &b));
    let d2 = at(2, || dot(&a, &b));
    let d8 = at(8, || dot(&a, &b));
    assert_eq!(d1.to_bits(), d2.to_bits());
    assert_eq!(d1.to_bits(), d8.to_bits());
}

#[test]
fn par_sum_is_bit_identical_at_1_2_8_threads() {
    let v = adversarial(123_457);
    let s1: f64 = at(1, || v.par_iter().map(|&x| x).sum());
    let s2: f64 = at(2, || v.par_iter().map(|&x| x).sum());
    let s8: f64 = at(8, || v.par_iter().map(|&x| x).sum());
    assert_eq!(s1.to_bits(), s2.to_bits());
    assert_eq!(s1.to_bits(), s8.to_bits());
}

#[test]
fn par_reduce_is_bit_identical_at_1_2_8_threads() {
    let v = adversarial(50_000);
    let r = |t: usize| at(t, || v.par_iter().map(|&x| x).reduce(|| 0.0, |a, b| a + b));
    let (r1, r2, r8) = (r(1), r(2), r(8));
    assert_eq!(r1.to_bits(), r2.to_bits());
    assert_eq!(r1.to_bits(), r8.to_bits());
}

#[test]
fn spmv_is_bit_identical_at_1_2_8_threads() {
    let a = build_hpcg_matrix(20, 20, 20);
    let x: Vec<f64> = (0..a.n).map(|i| (i as f64 * 0.37).sin()).collect();
    let run = |t: usize| {
        at(t, || {
            let mut y = vec![0.0; a.n];
            a.spmv(&x, &mut y);
            y
        })
    };
    let (y1, y2, y8) = (run(1), run(2), run(8));
    assert!(y1.iter().zip(&y2).all(|(p, q)| p.to_bits() == q.to_bits()));
    assert!(y1.iter().zip(&y8).all(|(p, q)| p.to_bits() == q.to_bits()));
}

#[test]
fn stencil_spmv_is_bit_identical_at_1_2_8_threads_and_vs_csr() {
    // The stencil-packed engine parallelizes over row chunks with the same
    // chunk grid as the CSR path and accumulates each row's 27 lanes in
    // ascending-column order — so it must match CSR bit-for-bit too.
    let csr = build_hpcg_matrix(20, 20, 20);
    let st = StencilMatrix::hpcg(20, 20, 20);
    let x: Vec<f64> = (0..st.n).map(|i| (i as f64 * 0.37).sin()).collect();
    let run = |t: usize| {
        at(t, || {
            let mut y = vec![0.0; st.n];
            st.spmv(&x, &mut y);
            y
        })
    };
    let (y1, y2, y8) = (run(1), run(2), run(8));
    assert!(y1.iter().zip(&y2).all(|(p, q)| p.to_bits() == q.to_bits()));
    assert!(y1.iter().zip(&y8).all(|(p, q)| p.to_bits() == q.to_bits()));
    let mut yc = vec![0.0; csr.n];
    at(1, || csr.spmv(&x, &mut yc));
    assert!(
        y1.iter().zip(&yc).all(|(p, q)| p.to_bits() == q.to_bits()),
        "stencil SpMV diverged from the CSR oracle"
    );
}

#[test]
fn colored_symgs_is_bit_identical_at_1_2_8_threads() {
    // The multicolor smoother computes each color's updates into a scratch
    // buffer against a frozen x, then scatters sequentially — so the only
    // parallel region writes disjoint scratch chunks and the arithmetic
    // never depends on the pool width. Three compounding sweeps amplify
    // any divergence.
    let st = StencilMatrix::hpcg(16, 16, 16);
    let r: Vec<f64> = (0..st.n).map(|i| 1.0 + (i % 17) as f64 * 0.03).collect();
    let run = |t: usize| {
        at(t, || {
            let mut x = vec![0.0; st.n];
            for _ in 0..3 {
                st.symgs_colored(&r, &mut x);
            }
            x
        })
    };
    let (x1, x2, x8) = (run(1), run(2), run(8));
    assert!(x1.iter().zip(&x2).all(|(p, q)| p.to_bits() == q.to_bits()));
    assert!(x1.iter().zip(&x8).all(|(p, q)| p.to_bits() == q.to_bits()));
}

#[test]
fn stencil_cg_solve_is_bit_identical_at_1_and_8_threads() {
    // The full HPCG path on the new engine: stencil SpMV + colored SymGS
    // preconditioning through dozens of CG iterations.
    let a = StencilMatrix::hpcg(12, 12, 12);
    let b: Vec<f64> = (0..a.n).map(|i| 1.0 + (i % 13) as f64 * 0.01).collect();
    let r1 = at(1, || cg_solve(&a, &b, 50, 1e-10, true));
    let r8 = at(8, || cg_solve(&a, &b, 50, 1e-10, true));
    assert_eq!(r1.iterations, r8.iterations);
    assert_eq!(
        r1.relative_residual.to_bits(),
        r8.relative_residual.to_bits()
    );
    assert!(r1
        .x
        .iter()
        .zip(&r8.x)
        .all(|(p, q)| p.to_bits() == q.to_bits()));
}

#[test]
fn stream_triad_is_bit_identical_at_1_2_8_threads_and_vs_sequential() {
    let run = |t: usize, parallel: bool| {
        at(t, || {
            let mut s = StreamArrays::new(200_000);
            for k in StreamKernel::ALL {
                if parallel {
                    s.run_parallel(k);
                } else {
                    s.run_sequential(k);
                }
            }
            s
        })
    };
    let seq = run(1, false);
    for threads in [1, 2, 8] {
        let par = run(threads, true);
        assert!(
            seq.c
                .iter()
                .zip(&par.c)
                .all(|(p, q)| p.to_bits() == q.to_bits()),
            "parallel STREAM at {threads} threads diverged from sequential"
        );
    }
}

#[test]
fn gemm_blocked_is_bit_identical_at_1_2_8_threads() {
    let n = 150;
    let a = DenseMatrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 97) as f64 / 97.0 - 0.5);
    let b = DenseMatrix::from_fn(n, n, |i, j| ((i * 13 + j * 41) % 89) as f64 / 89.0 - 0.5);
    let run = |t: usize| {
        at(t, || {
            let mut c = DenseMatrix::zeros(n, n);
            gemm_blocked(&a, &b, &mut c);
            c
        })
    };
    let (c1, c2, c8) = (run(1), run(2), run(8));
    assert!(c1
        .data()
        .iter()
        .zip(c2.data())
        .all(|(p, q)| p.to_bits() == q.to_bits()));
    assert!(c1
        .data()
        .iter()
        .zip(c8.data())
        .all(|(p, q)| p.to_bits() == q.to_bits()));
}

#[test]
fn ocean_stencil_step_is_bit_identical_at_1_2_8_threads() {
    // The fused-tiled sequential path and the two-pass parallel path must
    // produce the same bits, and the parallel path must not depend on the
    // pool width. 30 compounding steps amplify any divergence.
    use kernels::stencil::OceanGrid;
    let run = |t: usize| {
        at(t, || {
            let mut g = OceanGrid::with_bump(128, 96);
            for _ in 0..30 {
                g.step(1.0, 1000.0);
            }
            g
        })
    };
    let (g1, g2, g8) = (run(1), run(2), run(8));
    for (a, b) in [(&g1, &g2), (&g1, &g8)] {
        assert!(a
            .eta
            .iter()
            .zip(&b.eta)
            .all(|(p, q)| p.to_bits() == q.to_bits()));
        assert!(a
            .u
            .iter()
            .zip(&b.u)
            .all(|(p, q)| p.to_bits() == q.to_bits()));
        assert!(a
            .v
            .iter()
            .zip(&b.v)
            .all(|(p, q)| p.to_bits() == q.to_bits()));
    }
}

#[test]
fn md_forces_and_trajectory_are_bit_identical_at_1_2_8_threads() {
    // The half-neighbor traversal accumulates into chunk-private buffers
    // reduced in fixed chunk order; the chunk grid is a pure function of
    // the system, so forces — and whole trajectories — must not move with
    // the pool width. 1728 particles crosses the parallel cutoff.
    use kernels::md::LjSystem;
    let run = |t: usize| {
        at(t, || {
            let mut s = LjSystem::cubic_lattice(12, 0.8, 42);
            s.compute_forces();
            for _ in 0..5 {
                s.step(0.002);
            }
            s
        })
    };
    let (s1, s2, s8) = (run(1), run(2), run(8));
    for (a, b) in [(&s1, &s2), (&s1, &s8)] {
        for (fa, fb) in a.force.iter().zip(&b.force) {
            for d in 0..3 {
                assert_eq!(fa[d].to_bits(), fb[d].to_bits());
            }
        }
        for (pa, pb) in a.pos.iter().zip(&b.pos) {
            for d in 0..3 {
                assert_eq!(pa[d].to_bits(), pb[d].to_bits());
            }
        }
    }
}

#[test]
fn full_cg_solve_is_bit_identical_at_1_and_8_threads() {
    // End to end: SpMV + dots + axpys + SymGS across dozens of iterations.
    // Any thread-count-dependent rounding anywhere would compound and
    // change the final bits.
    let a = build_hpcg_matrix(12, 12, 12);
    let b: Vec<f64> = (0..a.n).map(|i| 1.0 + (i % 13) as f64 * 0.01).collect();
    let r1 = at(1, || cg_solve(&a, &b, 50, 1e-10, true));
    let r8 = at(8, || cg_solve(&a, &b, 50, 1e-10, true));
    assert_eq!(r1.iterations, r8.iterations);
    assert_eq!(
        r1.relative_residual.to_bits(),
        r8.relative_residual.to_bits()
    );
    assert!(r1
        .x
        .iter()
        .zip(&r8.x)
        .all(|(p, q)| p.to_bits() == q.to_bits()));
}

#[test]
fn topology_sweeps_are_bit_identical_at_1_2_8_threads() {
    // The interconnect fast path parallelizes three sweeps: all-pairs
    // link-load accumulation, mean pairwise hops, and folded-table
    // construction. All reduce in integers or fill disjoint blocks, so
    // every derived float must match bit-for-bit at any pool width.
    use interconnect::folded::FoldedTable;
    use interconnect::placement::mean_pairwise_hops;
    use interconnect::routing::{all_pairs_link_load, all_pairs_loads};
    use interconnect::tofu::TofuD;
    use interconnect::topology::{NodeId, Topology};

    let topo = TofuD::cte_arm();
    let nodes: Vec<NodeId> = (0..topo.nodes()).step_by(3).map(NodeId).collect();
    let run = |t: usize| {
        at(t, || {
            let load = all_pairs_loads(&topo);
            let (max, mean) = all_pairs_link_load(&topo);
            let hops = mean_pairwise_hops(&topo, &nodes);
            let table = FoldedTable::build(&topo);
            (load, max, mean, hops, table)
        })
    };
    let (load1, max1, mean1, hops1, table1) = run(1);
    for threads in [2, 8] {
        let (load, max, mean, hops, table) = run(threads);
        assert_eq!(load1, load, "link-load sweep diverged at {threads} threads");
        assert_eq!(max1, max);
        assert_eq!(mean1.to_bits(), mean.to_bits());
        assert_eq!(hops1.to_bits(), hops.to_bits());
        assert_eq!(table1, table, "folded table diverged at {threads} threads");
    }
}

#[test]
fn fault_campaign_is_bit_identical_at_1_2_8_threads() {
    // The F-series campaign drives every layer at once — pairwise sweeps
    // over the faulty network (rayon-parallel), mpisim jobs, and a full
    // scheduler day — so its CSV pins the determinism contract end to end:
    // same bytes under pools of 1, 2 and 8 workers, and at any `--jobs`.
    use cluster_eval::engine::Ctx;
    use cluster_eval::faults::{campaign, run_campaign};

    let c = campaign("smoke").expect("smoke campaign is registered");
    let run = |threads: usize, jobs: usize| {
        at(threads, || {
            let ctx = Ctx::new();
            run_campaign(&ctx, &c, jobs).table.to_csv()
        })
    };
    let base = run(1, 1);
    assert_eq!(base, run(2, 2), "campaign diverged at 2 threads");
    assert_eq!(base, run(8, 2), "campaign diverged at 8 threads");
}

#[test]
fn engine_jobs_and_pool_share_the_core_budget_without_hanging() {
    use cluster_eval::engine::{filter_experiments, run_experiments, Ctx};
    use cluster_eval::experiments::all_experiments;
    use std::time::Duration;

    // 4 engine driver threads, each free to open parallel kernel regions:
    // the engine's reserve_drivers(4) divides the pool so jobs × threads
    // stays within the configured budget. The watchdog catches any
    // deadlock or oversubscription livelock.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let ctx = Ctx::new();
        let mut selected = filter_experiments(all_experiments(), Some("fig4"));
        selected.extend(filter_experiments(all_experiments(), Some("fig8")));
        selected.extend(filter_experiments(all_experiments(), Some("fig9")));
        let reports = run_experiments(selected, 4, &ctx);
        let _ = tx.send(reports.len());
    });
    let n = rx
        .recv_timeout(Duration::from_secs(300))
        .expect("engine with --jobs 4 must finish under a generous timeout");
    assert_eq!(n, 3);
    // The reservation guard must have restored the full pool on drop.
    assert!(rayon::current_num_threads() >= 1);
}

proptest! {
    #[test]
    fn pooled_par_chunks_mut_matches_sequential(
        data in proptest::collection::vec(-1e6f64..1e6, 1..3000),
        chunk in 1usize..257,
    ) {
        // Reference: plain sequential chunk traversal.
        let mut expected = data.clone();
        for (ci, c) in expected.chunks_mut(chunk).enumerate() {
            for (k, x) in c.iter_mut().enumerate() {
                *x = *x * 0.5 + (ci * 31 + k) as f64;
            }
        }
        // Same traversal through the pooled runtime at 4 workers.
        let mut actual = data.clone();
        at(4, || {
            actual.par_chunks_mut(chunk).enumerate().for_each(|(ci, c)| {
                for (k, x) in c.iter_mut().enumerate() {
                    *x = *x * 0.5 + (ci * 31 + k) as f64;
                }
            });
        });
        prop_assert!(expected.iter().zip(&actual).all(|(p, q)| p.to_bits() == q.to_bits()));
    }

    #[test]
    fn pooled_dot_matches_single_thread_on_random_slices(
        data in proptest::collection::vec(-1e3f64..1e3, 1..6000),
    ) {
        let d1 = at(1, || dot(&data, &data));
        let d4 = at(4, || dot(&data, &data));
        prop_assert_eq!(d1.to_bits(), d4.to_bits());
    }
}
