//! Ablation studies for the design choices called out in DESIGN.md §5.
//! Each prints its finding before timing, so the bench log records the
//! quantitative effect.

use arch::compiler::Compiler;
use arch::cost::{CostModel, KernelProfile};
use arch::machines::{cte_arm, marenostrum4};
use bench::quick;
use criterion::{criterion_group, criterion_main, Criterion};
use interconnect::link::LinkModel;
use interconnect::network::Network;
use interconnect::placement::{allocate, mean_pairwise_hops, Placement};
use interconnect::tofu::TofuD;
use interconnect::topology::NodeId;
use mpisim::collectives::CollectiveAlgo;
use mpisim::job::Job;
use mpisim::layout::JobLayout;
use simkit::rng::Pcg32;
use simkit::units::Bytes;
use std::hint::black_box;

/// A synthetic Alya-solver-like loop on 64 CTE-Arm nodes: 200 iterations
/// of compute + two 8-byte allreduces under the given collective algorithm.
fn solver_loop(algo: CollectiveAlgo) -> f64 {
    let machine = cte_arm();
    let compiler = Compiler::gnu_sve();
    let net = Network::new(TofuD::cte_arm(), LinkModel::tofud());
    let layout = JobLayout::new(
        (0..64).map(NodeId).collect(),
        48,
        1,
        machine.cores_per_node(),
    );
    let mut job = Job::new(&machine, &compiler, &net, layout, 1).with_collective_algo(algo);
    let profile = KernelProfile::dp("iter", 1e6, 1e5).with_vectorizable(0.3);
    for _ in 0..200 {
        job.compute(&profile);
        job.allreduce(Bytes::new(8.0));
        job.allreduce(Bytes::new(8.0));
    }
    job.elapsed().value()
}

fn ablation_collectives(c: &mut Criterion) {
    let tree = solver_loop(CollectiveAlgo::BinomialTree);
    let ring = solver_loop(CollectiveAlgo::Ring);
    let auto = solver_loop(CollectiveAlgo::Auto);
    println!("== ablation: collective algorithm (64-node solver loop) ==");
    println!("  binomial tree: {tree:.4} s simulated");
    println!(
        "  ring:          {ring:.4} s simulated ({:.2}× tree)",
        ring / tree
    );
    println!("  auto:          {auto:.4} s simulated\n");
    let mut g = c.benchmark_group("ablation_collectives");
    g.bench_function("tree", |b| {
        b.iter(|| black_box(solver_loop(CollectiveAlgo::BinomialTree)))
    });
    g.bench_function("ring", |b| {
        b.iter(|| black_box(solver_loop(CollectiveAlgo::Ring)))
    });
    g.finish();
}

fn placement_hops(policy: Placement, seed: u64) -> f64 {
    let topo = TofuD::cte_arm();
    let mut rng = Pcg32::seeded(seed);
    let nodes = allocate(&topo, 48, policy, &mut rng);
    mean_pairwise_hops(&topo, &nodes)
}

fn ablation_placement(c: &mut Criterion) {
    let contiguous = placement_hops(Placement::ContiguousBlock, 1);
    let random: f64 = (0..10)
        .map(|s| placement_hops(Placement::Random, s))
        .sum::<f64>()
        / 10.0;
    println!("== ablation: placement policy (48-node job on the torus) ==");
    println!("  topology-aware block: {contiguous:.2} mean hops");
    println!(
        "  random allocation:    {random:.2} mean hops ({:.0}% worse)\n",
        100.0 * (random / contiguous - 1.0)
    );
    let mut g = c.benchmark_group("ablation_placement");
    g.bench_function("contiguous", |b| {
        b.iter(|| black_box(placement_hops(Placement::ContiguousBlock, 1)))
    });
    g.bench_function("random", |b| {
        b.iter(|| black_box(placement_hops(Placement::Random, 2)))
    });
    g.finish();
}

/// Alya-assembly slowdown (CTE/MN4) as a function of GNU's SVE uptake.
fn assembly_slowdown(uptake: f64) -> f64 {
    let cte = cte_arm();
    let mn4 = marenostrum4();
    let mut gnu = Compiler::gnu_sve();
    gnu.uptake_app = uptake;
    let intel = Compiler::intel();
    let profile = KernelProfile::dp("assembly", 1e9, 2e7).with_vectorizable(0.97);
    let tc = CostModel::new(&cte.core, &cte.memory, &gnu)
        .chunk_time(&profile, 48)
        .value();
    let tm = CostModel::new(&mn4.core, &mn4.memory, &intel)
        .chunk_time(&profile, 48)
        .value();
    tc / tm
}

fn ablation_sve_uptake(c: &mut Criterion) {
    println!("== ablation: SVE uptake sweep (the paper's conclusion in numbers) ==");
    for uptake in [0.12, 0.30, 0.50, 0.65, 0.90] {
        println!(
            "  GNU SVE uptake {:>4.0}% -> Alya-assembly slowdown {:.2}×",
            uptake * 100.0,
            assembly_slowdown(uptake)
        );
    }
    println!();
    let mut g = c.benchmark_group("ablation_sve");
    g.bench_function("slowdown_curve", |b| {
        b.iter(|| {
            for uptake in [0.12, 0.3, 0.5, 0.65, 0.9] {
                black_box(assembly_slowdown(uptake));
            }
        })
    });
    g.finish();
}

/// Solver-phase (streaming) gap with the factory memory systems vs with
/// HBM and DDR4 swapped between the machines.
fn ablation_memory_swap(c: &mut Criterion) {
    let cte = cte_arm();
    let mn4 = marenostrum4();
    let gnu = Compiler::gnu_sve();
    let intel = Compiler::intel();
    let stream = KernelProfile::dp("solver-stream", 0.0, 1e8);
    let gap = |cte_mem: &arch::memory::MemoryModel, mn4_mem: &arch::memory::MemoryModel| {
        let tc = CostModel::new(&cte.core, cte_mem, &gnu)
            .chunk_time(&stream, 48)
            .value();
        let tm = CostModel::new(&mn4.core, mn4_mem, &intel)
            .chunk_time(&stream, 48)
            .value();
        tc / tm
    };
    let factory = gap(&cte.memory, &mn4.memory);
    let swapped = gap(&mn4.memory, &cte.memory);
    println!("== ablation: memory subsystem swap (streaming solver phase) ==");
    println!("  factory (A64FX+HBM vs Xeon+DDR4): CTE/MN4 time ratio {factory:.2}");
    println!("  swapped (A64FX+DDR4 vs Xeon+HBM): CTE/MN4 time ratio {swapped:.2}");
    println!("  -> the HBM advantage flips sign when swapped\n");
    let mut g = c.benchmark_group("ablation_memory");
    g.bench_function("factory_vs_swapped", |b| {
        b.iter(|| {
            black_box(gap(&cte.memory, &mn4.memory));
            black_box(gap(&mn4.memory, &cte.memory));
        })
    });
    g.finish();
}

/// A NEMO-like step with blocking vs overlapped halo exchanges on 16
/// CTE-Arm nodes with large halos.
fn stencil_step(overlap: bool) -> f64 {
    let machine = cte_arm();
    let compiler = Compiler::gnu_sve();
    let net = Network::new(TofuD::cte_arm(), LinkModel::tofud());
    let layout = JobLayout::new(
        (0..16).map(NodeId).collect(),
        4,
        12,
        machine.cores_per_node(),
    );
    let mut job = Job::new(&machine, &compiler, &net, layout, 1).with_imbalance(0.0);
    // Work sized so compute and halo wire time are comparable — the regime
    // where overlap pays.
    let work = KernelProfile::dp("stencil", 1e8, 2e7).with_vectorizable(0.3);
    let n = 64;
    let halo = Bytes::mib(8.0);
    let peers = move |r: usize| vec![((r + 1) % n, halo), ((r + n - 1) % n, halo)];
    for _ in 0..10 {
        if overlap {
            let pending = job.post_neighbor_exchange(peers);
            job.compute(&work);
            job.wait_halo(pending);
        } else {
            job.compute(&work);
            job.neighbor_exchange(peers);
        }
    }
    job.elapsed().value()
}

fn ablation_overlap(c: &mut Criterion) {
    let blocking = stencil_step(false);
    let overlapped = stencil_step(true);
    println!("== ablation: communication/computation overlap (stencil, 16 nodes) ==");
    println!("  blocking halos:   {blocking:.4} s simulated");
    println!(
        "  overlapped halos: {overlapped:.4} s simulated ({:.0}% saved)\n",
        100.0 * (1.0 - overlapped / blocking)
    );
    let mut g = c.benchmark_group("ablation_overlap");
    g.bench_function("blocking", |b| b.iter(|| black_box(stencil_step(false))));
    g.bench_function("overlapped", |b| b.iter(|| black_box(stencil_step(true))));
    g.finish();
}

/// An Alya-solver-like run on 32 nodes allocated contiguously vs randomly
/// scattered over the torus: placement's end-to-end effect on an
/// application, not just on mean hops.
fn solver_with_allocation(nodes: Vec<NodeId>) -> f64 {
    let machine = cte_arm();
    let compiler = Compiler::gnu_sve();
    let net = Network::new(TofuD::cte_arm(), LinkModel::tofud());
    let layout = JobLayout::new(nodes, 48, 1, machine.cores_per_node());
    let mut job = Job::new(&machine, &compiler, &net, layout, 1).with_imbalance(0.0);
    let profile = KernelProfile::dp("iter", 5e5, 5e4).with_vectorizable(0.3);
    for _ in 0..100 {
        job.compute(&profile);
        job.allreduce(Bytes::new(16.0));
        job.allreduce(Bytes::new(16.0));
    }
    job.elapsed().value()
}

fn ablation_app_placement(c: &mut Criterion) {
    let topo = TofuD::cte_arm();
    let mut rng = Pcg32::seeded(9);
    let contiguous = allocate(&topo, 32, Placement::ContiguousBlock, &mut rng);
    let random = allocate(&topo, 32, Placement::Random, &mut rng);
    let tc = solver_with_allocation(contiguous);
    let tr = solver_with_allocation(random);
    println!("== ablation: allocation shape on an application (32-node solver) ==");
    println!("  contiguous block: {tc:.4} s simulated");
    println!(
        "  random scatter:   {tr:.4} s simulated ({:.1}% slower)\n",
        100.0 * (tr / tc - 1.0)
    );
    let mut g = c.benchmark_group("ablation_app_placement");
    g.bench_function("contiguous", |b| {
        b.iter(|| {
            let mut rng = Pcg32::seeded(9);
            let nodes = allocate(&TofuD::cte_arm(), 32, Placement::ContiguousBlock, &mut rng);
            black_box(solver_with_allocation(nodes))
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick();
    targets = ablation_collectives, ablation_placement, ablation_sve_uptake,
              ablation_memory_swap, ablation_overlap, ablation_app_placement
}
criterion_main!(benches);
