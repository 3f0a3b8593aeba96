//! Property-based tests over the core data structures and invariants.

use interconnect::fattree::FatTree;
use interconnect::tofu::TofuD;
use interconnect::topology::{NodeId, Topology};
use kernels::matrix::{CsrMatrix, DenseMatrix};
use proptest::prelude::*;
use simkit::stats::{Histogram, OnlineStats};
use simkit::units::{Bandwidth, Bytes, Time};

/// A small random Tofu geometry (each dimension 1–3, at most ~200 nodes).
fn tofu_strategy() -> impl Strategy<Value = TofuD> {
    (
        proptest::array::uniform6(1usize..=3),
        proptest::array::uniform6(any::<bool>()),
    )
        .prop_map(|(dims, periodic)| TofuD::with_dims(dims, periodic))
}

proptest! {
    #[test]
    fn tofu_hops_form_a_metric(topo in tofu_strategy(), seed in 0u32..1000) {
        let n = topo.nodes();
        let a = NodeId(seed as usize % n);
        let b = NodeId((seed as usize * 7 + 3) % n);
        let c = NodeId((seed as usize * 13 + 5) % n);
        // Identity, symmetry, triangle inequality.
        prop_assert_eq!(topo.hops(a, a), 0);
        prop_assert_eq!(topo.hops(a, b), topo.hops(b, a));
        prop_assert!(topo.hops(a, c) <= topo.hops(a, b) + topo.hops(b, c));
        // Bounded by the closed-form diameter.
        prop_assert!(topo.hops(a, b) <= topo.diameter());
    }

    #[test]
    fn tofu_coords_roundtrip(topo in tofu_strategy(), seed in 0u32..10_000) {
        let n = NodeId(seed as usize % topo.nodes());
        prop_assert_eq!(topo.node_at(topo.coords(n)), n);
    }

    #[test]
    fn tofu_route_length_matches_hops(topo in tofu_strategy(), seed in 0u32..10_000) {
        use interconnect::routing::{route, route_steps};
        let n = topo.nodes();
        let a = NodeId(seed as usize % n);
        let b = NodeId((seed as usize * 31 + 7) % n);
        let h = topo.hops(a, b);
        // The materialized route visits hops+1 nodes; the step iterator
        // yields exactly hops steps and declares that length up front.
        prop_assert_eq!(route(&topo, a, b).len() - 1, h);
        let steps = route_steps(&topo, a, b);
        prop_assert_eq!(steps.len(), h);
        prop_assert_eq!(steps.count(), h);
    }

    #[test]
    fn fattree_hops_are_in_the_three_classes(
        nodes in 1usize..500,
        leaf in 1usize..64,
        a in 0usize..500,
        b in 0usize..500,
    ) {
        let t = FatTree::with_geometry(nodes, leaf, 2.0);
        let a = NodeId(a % nodes);
        let b = NodeId(b % nodes);
        let h = t.hops(a, b);
        prop_assert!(h == 0 || h == 2 || h == 4);
        prop_assert_eq!(h == 0, a == b);
    }

    #[test]
    fn online_stats_merge_is_order_independent(
        xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
        split in 0usize..100,
    ) {
        let split = split % xs.len();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &xs[..split] {
            left.push(x);
        }
        for &x in &xs[split..] {
            right.push(x);
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() <= 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!((left.variance() - whole.variance()).abs()
            <= 1e-5 * (1.0 + whole.variance().abs()));
    }

    #[test]
    fn histogram_total_count_is_preserved(
        xs in proptest::collection::vec(-10.0f64..20.0, 0..200),
    ) {
        let mut h = Histogram::new(0.0, 10.0, 13);
        for &x in &xs {
            h.record(x);
        }
        prop_assert_eq!(h.total() as usize, xs.len());
        let in_bins: u64 = h.bins().iter().sum();
        prop_assert_eq!(in_bins + h.underflow() + h.overflow(), h.total());
    }

    #[test]
    fn unit_arithmetic_is_consistent(
        bytes in 1.0f64..1e12,
        secs in 1e-9f64..1e3,
    ) {
        let b = Bytes::new(bytes);
        let t = Time::seconds(secs);
        let bw: Bandwidth = b / t;
        // b / (b/t) == t and bw · t == b, to round-off.
        let t2 = b / bw;
        prop_assert!((t2.value() - secs).abs() <= 1e-12 * secs);
        let b2 = bw * t;
        prop_assert!((b2.value() - bytes).abs() <= 1e-9 * bytes);
    }

    #[test]
    fn lu_solves_random_well_conditioned_systems(seed in 0u64..50) {
        // Diagonally dominant ⇒ non-singular and well conditioned.
        let mut rng = simkit::rng::Pcg32::seeded(seed);
        let n = 24 + (seed as usize % 17);
        let mut a = DenseMatrix::from_fn(n, n, |_, _| rng.uniform(-1.0, 1.0));
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        let b: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let f = kernels::lu::lu_factor(a.clone(), 8).expect("non-singular");
        let x = f.solve(&b);
        let ax = a.matvec(&x);
        for (l, r) in ax.iter().zip(&b) {
            prop_assert!((l - r).abs() < 1e-9);
        }
    }

    #[test]
    fn csr_spmv_is_linear(seed in 0u64..50) {
        let mut rng = simkit::rng::Pcg32::seeded(seed);
        let n = 10 + (seed as usize % 20);
        let mut trips = Vec::new();
        for i in 0..n {
            trips.push((i, i, rng.uniform(1.0, 2.0)));
            let j = rng.next_below(n as u32) as usize;
            trips.push((i, j, rng.uniform(-1.0, 1.0)));
        }
        let m = CsrMatrix::from_triplets(n, &trips);
        let x: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let y: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let alpha = rng.uniform(-2.0, 2.0);
        // A(αx + y) == αAx + Ay
        let mut lhs = vec![0.0; n];
        let combo: Vec<f64> = x.iter().zip(&y).map(|(x, y)| alpha * x + y).collect();
        m.spmv(&combo, &mut lhs);
        let mut ax = vec![0.0; n];
        let mut ay = vec![0.0; n];
        m.spmv(&x, &mut ax);
        m.spmv(&y, &mut ay);
        for i in 0..n {
            prop_assert!((lhs[i] - (alpha * ax[i] + ay[i])).abs() < 1e-10);
        }
    }

    #[test]
    fn stencil_spmv_matches_csr_bitwise_and_dense_numerically(
        nx in 1usize..6,
        ny in 1usize..6,
        nz in 1usize..6,
        seed in 0u64..1000,
    ) {
        use kernels::cg::build_hpcg_matrix;
        use kernels::stencil_matrix::StencilMatrix;
        let csr = build_hpcg_matrix(nx, ny, nz);
        let st = StencilMatrix::hpcg(nx, ny, nz);
        prop_assert_eq!(st.n, csr.n);
        prop_assert_eq!(st.nnz(), csr.nnz());
        let n = csr.n;
        let mut rng = simkit::rng::Pcg32::seeded(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut ys = vec![0.0; n];
        let mut yc = vec![0.0; n];
        st.spmv(&x, &mut ys);
        csr.spmv(&x, &mut yc);
        // Same lane/column accumulation order ⇒ identical bits, not just
        // identical to tolerance.
        for i in 0..n {
            prop_assert_eq!(ys[i].to_bits(), yc[i].to_bits(), "row {} diverged", i);
        }
        // And both agree with a dense matvec of the same operator to
        // round-off (the dense sum associates differently over the zeros).
        let d = DenseMatrix::from_fn(n, n, |i, j| {
            csr.row(i).find(|&(c, _)| c == j).map_or(0.0, |(_, v)| v)
        });
        let yd = d.matvec(&x);
        for i in 0..n {
            prop_assert!((ys[i] - yd[i]).abs() < 1e-10, "row {}: {} vs {}", i, ys[i], yd[i]);
        }
    }

    #[test]
    fn colored_symgs_reduces_residual_at_least_as_much_as_jacobi(
        nx in 2usize..7,
        ny in 2usize..7,
        nz in 2usize..7,
        seed in 0u64..500,
    ) {
        use kernels::matrix::norm2;
        use kernels::stencil_matrix::StencilMatrix;
        let st = StencilMatrix::hpcg(nx, ny, nz);
        let n = st.n;
        let mut rng = simkit::rng::Pcg32::seeded(seed);
        let r: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let residual = |x: &[f64]| {
            let mut ax = vec![0.0; n];
            st.spmv(x, &mut ax);
            norm2(&r.iter().zip(&ax).map(|(r, ax)| r - ax).collect::<Vec<_>>())
        };
        // One Jacobi sweep from a zero guess: x = D⁻¹·r (HPCG diag = 26).
        let x_jacobi: Vec<f64> = r.iter().map(|v| v / 26.0).collect();
        let mut x_gs = vec![0.0; n];
        st.symgs_colored(&r, &mut x_gs);
        prop_assert!(
            residual(&x_gs) <= residual(&x_jacobi) * (1.0 + 1e-12),
            "colored SymGS ({}) must smooth at least as hard as Jacobi ({})",
            residual(&x_gs),
            residual(&x_jacobi)
        );
    }

    #[test]
    fn collective_costs_grow_with_participants(
        p in 2usize..512,
        bytes in 1.0f64..1e7,
    ) {
        use mpisim::collectives::{allreduce, CollectiveAlgo};
        let ptp = |b: Bytes| Time::micros(1.0) + Time::seconds(b.value() / 6.8e9);
        let small = allreduce(p, Bytes::new(bytes), CollectiveAlgo::Auto, ptp);
        let large = allreduce(p * 2, Bytes::new(bytes), CollectiveAlgo::Auto, ptp);
        prop_assert!(large >= small);
        prop_assert!(small > Time::ZERO);
    }

    #[test]
    fn kernel_cost_is_monotone_in_work(
        flops in 1e6f64..1e12,
        bytes in 0.0f64..1e9,
        factor in 1.01f64..10.0,
    ) {
        use arch::compiler::Compiler;
        use arch::cost::{CostModel, KernelProfile};
        let m = arch::machines::cte_arm();
        let compiler = Compiler::gnu_sve();
        let cm = CostModel::new(&m.core, &m.memory, &compiler);
        let base = KernelProfile::dp("base", flops, bytes);
        let more = KernelProfile::dp("more", flops * factor, bytes * factor);
        let t1 = cm.chunk_time(&base, 48);
        let t2 = cm.chunk_time(&more, 48);
        prop_assert!(t2 > t1, "more work must cost more: {t1} vs {t2}");
        // And the scaling is exactly linear for a fixed profile shape.
        prop_assert!((t2.value() / t1.value() - factor).abs() < 1e-9 * factor);
    }

    #[test]
    fn message_time_is_monotone_in_size_and_hops(
        bytes in 0.0f64..1e8,
        extra in 1.0f64..1e6,
        hops in 0usize..10,
    ) {
        use interconnect::link::LinkModel;
        let l = LinkModel::tofud();
        let t1 = l.message_time(Bytes::new(bytes), hops, 1.0);
        let t2 = l.message_time(Bytes::new(bytes + extra), hops, 1.0);
        let t3 = l.message_time(Bytes::new(bytes), hops + 1, 1.0);
        prop_assert!(t2 >= t1);
        prop_assert!(t3 > t1);
    }
}

proptest! {
    #[test]
    fn sched_allocator_conserves_nodes(
        requests in proptest::collection::vec(1usize..64, 1..12),
        policy_idx in 0usize..3,
    ) {
        use sched::{AllocationPolicy, Allocator};
        use interconnect::tofu::TofuD;
        let policy = [
            AllocationPolicy::BestFitContiguous,
            AllocationPolicy::FirstFit,
            AllocationPolicy::Random,
        ][policy_idx];
        let mut alloc = Allocator::new(TofuD::cte_arm(), policy, 11);
        let mut live: Vec<sched::Allocation> = Vec::new();
        let mut expected_free = 192usize;
        for &want in &requests {
            match alloc.allocate(want) {
                Some(nodes) => {
                    prop_assert_eq!(nodes.len(), want);
                    // Distinct nodes within the allocation.
                    let mut d: Vec<_> = nodes.nodes().collect();
                    d.sort();
                    d.dedup();
                    prop_assert_eq!(d.len(), want);
                    expected_free -= want;
                    live.push(nodes);
                }
                None => prop_assert!(expected_free < want),
            }
            prop_assert_eq!(alloc.free_count(), expected_free);
        }
        // Releasing everything restores the empty cluster.
        for nodes in live {
            alloc.release(&nodes);
        }
        prop_assert_eq!(alloc.free_count(), 192);
        prop_assert_eq!(alloc.fragmentation(), 0.0);
    }

    #[test]
    fn multigrid_vcycle_never_increases_residual(
        nx in 1usize..4,
        seed in 0u64..20,
    ) {
        use kernels::mg::MgHierarchy;
        use kernels::matrix::norm2;
        let dim = 4 * nx; // multiple of 4 so at least two levels exist
        let h = MgHierarchy::build(dim, dim, 4, 3);
        let n = h.levels[0].matrix.n;
        let mut rng = simkit::rng::Pcg32::seeded(seed);
        let b: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut x = vec![0.0; n];
        h.v_cycle(&b, &mut x);
        let a = &h.levels[0].matrix;
        let mut ax = vec![0.0; n];
        a.spmv(&x, &mut ax);
        let r: Vec<f64> = b.iter().zip(&ax).map(|(b, ax)| b - ax).collect();
        prop_assert!(norm2(&r) < norm2(&b), "one V-cycle reduces the residual");
    }

    #[test]
    fn distributed_lu_matches_serial_on_random_grids(
        seed in 0u64..12,
        p in 1usize..4,
        q in 1usize..4,
    ) {
        use hpl::distributed::BlockCyclicLu;
        use kernels::lu::lu_factor;
        use kernels::matrix::DenseMatrix;
        let n = 48;
        let mut rng = simkit::rng::Pcg32::seeded(seed);
        let mut a = DenseMatrix::from_fn(n, n, |_, _| rng.uniform(-1.0, 1.0));
        for i in 0..n {
            a[(i, i)] += n as f64; // well conditioned
        }
        let b: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let serial = lu_factor(a.clone(), 16).expect("non-singular").solve(&b);
        let mut dist = BlockCyclicLu::distribute(&a, 16, p, q);
        prop_assert!(dist.factor());
        let x = dist.gather_factors().solve(&b);
        for (d, s) in x.iter().zip(&serial) {
            prop_assert!((d - s).abs() < 1e-9);
        }
    }

    #[test]
    fn histogram_smoothing_preserves_rough_mass(
        xs in proptest::collection::vec(0.0f64..10.0, 50..200),
        window in 0usize..3,
    ) {
        let window = 2 * window + 1; // odd
        let mut h = Histogram::new(0.0, 10.0, 17);
        for &x in &xs {
            h.record(x);
        }
        let s = h.smoothed(window);
        // Integer-division smoothing loses at most (window-1)/window per bin.
        let before: u64 = h.bins().iter().sum();
        let after: u64 = s.bins().iter().sum();
        prop_assert!(after <= before + before / 2 + 17);
        prop_assert!(s.bins().len() == h.bins().len());
    }

    #[test]
    fn engine_matches_sequential_baseline_on_random_subsets(
        mask in 1u32..512,
        perm_seed in 0u64..1000,
        jobs in 1usize..5,
    ) {
        use cluster_eval::engine::{run_experiments, Ctx};
        // A pool of cheap registry entries including the Alya trio, whose
        // fig9/fig10 → fig8 deps exercise the cache-sharing path.
        const POOL: [&str; 9] = [
            "table1", "table2", "table3", "fig1", "fig2", "fig3", "fig8", "fig9", "fig10",
        ];
        static BASELINE: std::sync::OnceLock<std::collections::HashMap<&'static str, String>> =
            std::sync::OnceLock::new();
        let baseline = BASELINE.get_or_init(|| {
            POOL.iter()
                .map(|&id| (id, cluster_eval::run(id).expect("registered").to_csv()))
                .collect()
        });
        // Pick the subset from the mask bits, then shuffle its order.
        let mut subset: Vec<&str> = POOL
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &id)| id)
            .collect();
        let mut rng = simkit::rng::Pcg32::seeded(perm_seed);
        for i in (1..subset.len()).rev() {
            subset.swap(i, rng.next_below(i as u32 + 1) as usize);
        }
        let experiments = subset
            .iter()
            .map(|&id| {
                cluster_eval::all_experiments()
                    .into_iter()
                    .find(|e| e.id == id)
                    .expect("registered")
            })
            .collect();
        let reports = run_experiments(experiments, jobs, &Ctx::new());
        prop_assert_eq!(reports.len(), subset.len());
        for (want_id, report) in subset.iter().zip(&reports) {
            prop_assert_eq!(*want_id, report.id, "engine preserves input order");
            prop_assert_eq!(
                &report.artifact.to_csv(),
                &baseline[report.id],
                "{} diverged from the sequential baseline", report.id
            );
        }
    }

    #[test]
    fn roofline_attainable_is_monotone_in_intensity(
        lo in 0.001f64..1.0,
        factor in 1.01f64..100.0,
    ) {
        use arch::roofline::Roofline;
        use arch::compiler::Compiler;
        let r = Roofline::build(&arch::machines::cte_arm(), &Compiler::gnu_sve());
        for c in 0..r.ceilings.len() {
            prop_assert!(r.attainable(c, lo * factor) >= r.attainable(c, lo));
        }
    }
}

// ---------------------------------------------------------------------------
// Fault-injection properties (F-series subsystem).
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn collective_costs_are_monotone_in_message_size(
        p in 2usize..512,
        bytes in 1.0f64..1e7,
        extra in 1.0f64..1e7,
    ) {
        // Per fixed algorithm. (Auto is deliberately excluded: its
        // size-based switch from binomial tree to ring at 16 KiB trades a
        // latency cliff for bandwidth, so the combined curve is not
        // globally monotone — exactly like production MPI libraries.)
        use mpisim::collectives::{allreduce, alltoall, CollectiveAlgo};
        let ptp = |b: Bytes| Time::micros(1.0) + Time::seconds(b.value() / 6.8e9);
        let small = Bytes::new(bytes);
        let large = Bytes::new(bytes + extra);
        for algo in [CollectiveAlgo::BinomialTree, CollectiveAlgo::Ring] {
            prop_assert!(allreduce(p, large, algo, ptp) >= allreduce(p, small, algo, ptp));
        }
        prop_assert!(alltoall(p, large, ptp) >= alltoall(p, small, ptp));
    }

    #[test]
    fn collective_costs_are_monotone_in_rank_count(
        p in 2usize..512,
        bytes in 1.0f64..1e7,
    ) {
        use mpisim::collectives::{allreduce, alltoall, CollectiveAlgo};
        let ptp = |b: Bytes| Time::micros(1.0) + Time::seconds(b.value() / 6.8e9);
        let b = Bytes::new(bytes);
        for algo in [CollectiveAlgo::BinomialTree, CollectiveAlgo::Ring, CollectiveAlgo::Auto] {
            prop_assert!(allreduce(2 * p, b, algo, ptp) >= allreduce(p, b, algo, ptp));
        }
        prop_assert!(alltoall(2 * p, b, ptp) >= alltoall(p, b, ptp));
    }

    #[test]
    fn injecting_any_fault_never_decreases_a_jobs_makespan(
        degraded in 0usize..3,
        link_latency in 0usize..3,
        retransmit in 0usize..3,
        slowdown in 0usize..3,
        failures in 0usize..2,
        seed in 0u64..200,
    ) {
        use arch::compiler::Compiler;
        use arch::cost::KernelProfile;
        use interconnect::faults::{Fault, FaultPlan, FaultSpec};
        use interconnect::link::LinkModel;
        use interconnect::network::Network;
        use mpisim::{Job, JobFaults, JobLayout};

        let spec = FaultSpec { degraded, link_latency, retransmit, slowdown, failures };
        let plan = FaultPlan::generate("prop", 192, &spec, seed);
        let clean = Network::new(TofuD::cte_arm(), LinkModel::tofud());
        let faulty = plan.apply(Network::new(TofuD::cte_arm(), LinkModel::tofud()));

        // Lay the job over faulty-but-alive nodes first (so the faults are
        // actually visible to it), padded with healthy nodes.
        let failed = plan.failed_nodes();
        let mut picked: Vec<NodeId> = Vec::new();
        for f in &plan.faults {
            let n = f.node();
            if !matches!(f, Fault::Failure { .. })
                && !failed.contains(&n)
                && !picked.contains(&n)
                && picked.len() < 4
            {
                picked.push(n);
            }
        }
        let mut next = 0usize;
        while picked.len() < 4 {
            let n = NodeId(next);
            if !failed.contains(&n) && !picked.contains(&n) {
                picked.push(n);
            }
            next += 1;
        }
        picked.sort_unstable_by_key(|n| n.index());

        let machine = arch::machines::cte_arm();
        let compiler = Compiler::gnu_sve();
        let elapsed = |net: &Network<TofuD>, jf: &JobFaults| {
            let layout = JobLayout::new(
                picked.clone(),
                4,
                12,
                machine.cores_per_node(),
            );
            let mut job = Job::new(&machine, &compiler, net, layout, seed)
                .with_imbalance(0.0)
                .with_faults(jf);
            job.compute(&KernelProfile::dp("w", 1e9, 1e8));
            job.allreduce(Bytes::kib(64.0));
            job.alltoall(Bytes::kib(8.0));
            job.sendrecv(0, job.n_ranks() - 1, Bytes::kib(32.0));
            job.elapsed()
        };
        let base = elapsed(&clean, &JobFaults::none());
        let hurt = elapsed(&faulty, &JobFaults::from_plan(&plan));
        prop_assert!(
            hurt >= base,
            "plan `{}` sped the job up: {} < {}",
            plan.describe(),
            hurt,
            base
        );
        // An empty plan is exactly bit-neutral.
        if plan.faults.is_empty() {
            prop_assert_eq!(hurt.value().to_bits(), base.value().to_bits());
        }
    }

    #[test]
    fn hostnames_roundtrip_node_ids(id in 0usize..192) {
        use interconnect::hostname::{hostname, parse_hostname};
        let name = hostname(NodeId(id));
        prop_assert_eq!(parse_hostname(&name), Some(NodeId(id)));
    }

    #[test]
    fn hostnames_roundtrip_every_canonical_name(
        rack in 0usize..4,
        board in 0usize..4,
        shelf in 10usize..13,
        slot in 0usize..4,
    ) {
        use interconnect::hostname::{hostname, parse_hostname};
        let name = format!("arms{rack}b{board}-{shelf}{}", (b'a' + slot as u8) as char);
        let node = parse_hostname(&name).expect("canonical name parses");
        prop_assert!(node.index() < 192);
        prop_assert_eq!(hostname(node), name);
    }
}

#[test]
fn the_papers_degraded_hostname_pins_node_18() {
    use interconnect::hostname::{hostname, parse_hostname};
    // `arms0b1-11c` is the degraded node of the paper's Fig. 4 — the
    // F-series campaigns fingerprint it by this exact name.
    assert_eq!(parse_hostname("arms0b1-11c"), Some(NodeId(18)));
    assert_eq!(hostname(NodeId(18)), "arms0b1-11c");
}
