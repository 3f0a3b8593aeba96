//! The real compute kernels on the host: the executable counterparts of
//! the paper's workloads. Throughput units are printed by Criterion.
//!
//! One harness per kernel: STREAM Triad, DGEMM, CSR and stencil SpMV, both
//! SymGS smoothers, the ocean step and the LJ force loop are timed by
//! `cluster-eval bench-all --json` (`core::hostbench`, committed as
//! `BENCH_host.json`), so they are not repeated here.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use kernels::cg::{build_hpcg_matrix, cg_solve};
use kernels::fem::{assemble, TriangleMesh};
use kernels::fma;
use kernels::lu::lu_factor;
use kernels::matrix::DenseMatrix;
use kernels::md::LjSystem;
use kernels::spectral::fft;
use kernels::stencil_matrix::StencilMatrix;
use kernels::stream::{StreamArrays, StreamKernel};
use simkit::rng::Pcg32;
use std::hint::black_box;

fn bench_fma(c: &mut Criterion) {
    let mut g = c.benchmark_group("fpu_ukernel");
    let iters = 200_000u64;
    g.throughput(Throughput::Elements(iters * fma::CHAINS as u64 * 2));
    g.bench_function("scalar_f64", |b| {
        b.iter(|| black_box(fma::scalar_f64(iters)))
    });
    g.bench_function("scalar_f32", |b| {
        b.iter(|| black_box(fma::scalar_f32(iters)))
    });
    g.throughput(Throughput::Elements(iters / 8 * 256 * 2));
    g.bench_function("vector_f64", |b| {
        b.iter(|| black_box(fma::vector_f64(iters / 8)))
    });
    g.throughput(Throughput::Elements(iters / 8 * 512 * 2));
    g.bench_function("vector_f32", |b| {
        b.iter(|| black_box(fma::vector_f32(iters / 8)))
    });
    g.finish();
}

fn bench_stream(c: &mut Criterion) {
    let mut g = c.benchmark_group("stream");
    let n = 4_000_000;
    for kernel in [StreamKernel::Copy, StreamKernel::Scale, StreamKernel::Add] {
        g.throughput(Throughput::Bytes((n * kernel.bytes_per_element()) as u64));
        let mut arrays = StreamArrays::new(n);
        g.bench_function(BenchmarkId::new("sequential", format!("{kernel:?}")), |b| {
            b.iter(|| arrays.run_sequential(black_box(kernel)))
        });
        let mut arrays = StreamArrays::new(n);
        g.bench_function(BenchmarkId::new("parallel", format!("{kernel:?}")), |b| {
            b.iter(|| arrays.run_parallel(black_box(kernel)))
        });
    }
    g.finish();
}

fn bench_linear_algebra(c: &mut Criterion) {
    let mut g = c.benchmark_group("linear_algebra");
    g.sample_size(10);
    let mut rng = Pcg32::seeded(1);
    let n = 256;
    let a = DenseMatrix::from_fn(n, n, |_, _| rng.uniform(-1.0, 1.0));
    g.throughput(Throughput::Elements(kernels::lu::hpl_flops(n as u64) as u64));
    g.bench_function("lu_256", |b| {
        b.iter(|| black_box(lu_factor(a.clone(), 32).expect("non-singular")))
    });
    g.finish();
}

fn bench_hpcg_core(c: &mut Criterion) {
    let mut g = c.benchmark_group("hpcg_core");
    g.sample_size(10);
    let a = build_hpcg_matrix(16, 16, 16);
    let s = StencilMatrix::hpcg(16, 16, 16);
    let rhs = vec![1.0; a.n];
    g.throughput(Throughput::Elements(2 * a.nnz() as u64));
    g.bench_function("pcg_5iters_16cubed", |b| {
        b.iter(|| black_box(cg_solve(&a, &rhs, 5, 0.0, true)))
    });
    g.bench_function("pcg_stencil_5iters_16cubed", |b| {
        b.iter(|| black_box(cg_solve(&s, &rhs, 5, 0.0, true)))
    });
    g.finish();
}

fn bench_app_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("app_kernels");
    g.sample_size(10);
    // Alya proxy: FEM assembly.
    let mesh = TriangleMesh::unit_square(129);
    g.bench_function("fem_assembly_129x129", |b| {
        b.iter(|| black_box(assemble(&mesh, |_, _| 1.0, |_, _| 0.0)))
    });
    // WRF proxy: atmosphere step.
    let mut atmos = kernels::stencil::AtmosGrid::with_bubble(256, 256, 32);
    g.bench_function("atmos_step_256x32", |b| {
        b.iter(|| black_box(atmos.step(0.4, 0.2, 0.05)))
    });
    // Gromacs proxy: the flat counting-sort cell-list rebuild against the
    // nested Vec<Vec> build it replaced. One force evaluation first sizes
    // the cell scratch, so the flat rebuild is timed in its zero-allocation
    // steady state.
    let mut lj = LjSystem::cubic_lattice(12, 0.8, 1);
    lj.compute_forces();
    g.bench_function("lj_cell_list_flat_1728", |b| b.iter(|| lj.rebuild_cells()));
    g.bench_function("lj_cell_list_nested_1728", |b| {
        b.iter(|| black_box(lj.cell_list_nested()))
    });
    // OpenIFS proxy: FFT.
    let mut rng = Pcg32::seeded(2);
    let signal: Vec<(f64, f64)> = (0..4096)
        .map(|_| (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
        .collect();
    g.bench_function("fft_4096", |b| {
        b.iter(|| {
            let mut data = signal.clone();
            fft(&mut data, false);
            black_box(data)
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_fma, bench_stream, bench_linear_algebra, bench_hpcg_core, bench_app_kernels
}
criterion_main!(benches);
