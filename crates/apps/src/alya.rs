//! Alya — high-performance computational mechanics (Figs. 8, 9, 10).
//!
//! TestCaseB: incompressible turbulent flow around a sphere, 132 M-element
//! mesh, 20 time steps (the first is discarded; 19 are averaged). MPI-only,
//! 48 ranks per node. Each time step has two dominant phases the paper
//! analyses separately:
//!
//! * **Assembly** — the element loop: long, stabilized Navier–Stokes
//!   element computations. Intrinsically highly vectorizable (k ≈ 0.97,
//!   Alya ships a VECTOR_SIZE blocking layer — see the `-DVECTOR_SIZE=16`
//!   build flag in Table III), but on CTE-Arm GNU 8.3.1-sve leaves almost
//!   all of it on the scalar pipes.
//! * **Solver** — a Krylov iteration: indexed SpMV-like sweeps (low
//!   intrinsic vectorizability, k ≈ 0.3) plus a streaming component that is
//!   genuinely memory-bound, plus two global reductions per iteration.
//!   The streaming part is where the A64FX's HBM pays off, which is why
//!   the paper sees only a 1.79× gap here against 4.96× in assembly.

use crate::common::{by_cluster, cluster_sweep, min_nodes, plot, with_job, AppRun, Cluster};
use arch::cost::KernelProfile;
use simkit::cache::{Cache, CacheKey};
use simkit::series::Figure;
use simkit::units::{Bytes, Time};

/// The Alya TestCaseB workload model.
#[derive(Debug, Clone)]
pub struct Alya {
    /// Mesh elements (132 M in TestCaseB).
    pub elements: f64,
    /// Assembly flops per element (stabilized NS element matrices).
    pub assembly_flops_per_element: f64,
    /// Assembly main-memory bytes per element (mostly cache-resident).
    pub assembly_bytes_per_element: f64,
    /// Krylov iterations per time step.
    pub solver_iters: usize,
    /// Solver compute flops per mesh-owned element per iteration
    /// (indexed, poorly vectorizable part).
    pub solver_flops_per_element: f64,
    /// Solver streaming bytes per element per iteration (vectors + matrix
    /// coefficients actually fetched from memory).
    pub solver_bytes_per_element: f64,
    /// Time steps simulated and averaged (the paper averages 19).
    pub steps: usize,
}

impl Alya {
    /// The UEABS TestCaseB input set.
    pub fn test_case_b() -> Self {
        Self {
            elements: 132e6,
            assembly_flops_per_element: 25_000.0,
            assembly_bytes_per_element: 500.0,
            solver_iters: 50,
            // Calibrated so the Solver:Assembly time split on MareNostrum 4
            // is ≈ 49:51, the split implied by the paper's 4.96× / 1.79× /
            // 3.4× phase and total ratios.
            solver_flops_per_element: 151.0,
            solver_bytes_per_element: 64.0,
            steps: 2,
        }
    }

    /// Resident footprint: ~2.4 kB per element (meshes, matrices, fields).
    pub fn footprint_bytes(&self) -> f64 {
        self.elements * 2400.0
    }

    /// Minimum nodes (memory-bound): 12 on CTE-Arm, matching the paper's
    /// "NP" entries at lower counts.
    pub fn min_nodes(&self, cluster: Cluster) -> usize {
        min_nodes(cluster, self.footprint_bytes())
    }

    /// Simulate a run and report the average time step plus phase times.
    pub fn simulate(&self, cluster: Cluster, nodes: usize) -> AppRun {
        assert!(
            nodes >= self.min_nodes(cluster),
            "TestCaseB does not fit on {nodes} nodes of {}",
            cluster.label()
        );
        let ranks = nodes * 48;
        let per_rank_elems = self.elements / ranks as f64;
        let assembly = KernelProfile::dp(
            "alya-assembly",
            per_rank_elems * self.assembly_flops_per_element,
            per_rank_elems * self.assembly_bytes_per_element,
        )
        .with_vectorizable(0.97);
        // The solver iteration has two back-to-back parts: the indexed
        // SpMV-like sweep (compute-limited on both machines) and the
        // streaming vector updates (memory-limited — HBM's advantage).
        // They are separate kernels in Alya, so they are costed additively
        // rather than under one roofline max.
        let solver_indexed = KernelProfile::dp(
            "alya-solver-indexed",
            per_rank_elems * self.solver_flops_per_element,
            0.0,
        )
        .with_vectorizable(0.30);
        let solver_stream = KernelProfile::dp(
            "alya-solver-stream",
            0.0,
            per_rank_elems * self.solver_bytes_per_element,
        );
        // Halo surface per rank: (E/ranks)^(2/3) interface elements × ~0.5 kB.
        let halo_bytes = Bytes::new(per_rank_elems.powf(2.0 / 3.0) * 500.0);

        let (t_assembly, t_solver, elapsed) = with_job(cluster, nodes, 48, 1, false, 17, |job| {
            let mut t_assembly = Time::ZERO;
            let mut t_solver = Time::ZERO;
            for _ in 0..self.steps {
                let t0 = job.elapsed();
                job.compute(&assembly);
                job.halo(10, halo_bytes);
                let t1 = job.elapsed();
                t_assembly += t1 - t0;
                for _ in 0..self.solver_iters {
                    job.compute(&solver_indexed);
                    job.compute(&solver_stream);
                    job.allreduce(Bytes::new(16.0));
                    job.allreduce(Bytes::new(16.0));
                }
                let t2 = job.elapsed();
                t_solver += t2 - t1;
            }
            (t_assembly, t_solver, job.elapsed())
        });
        let n = self.steps as f64;
        AppRun {
            elapsed: elapsed / n,
            phases: vec![
                ("assembly".into(), t_assembly / n),
                ("solver".into(), t_solver / n),
            ],
        }
    }

    /// [`Self::simulate`] through a [`Cache`]: Figs. 8, 9 and 10 sweep the
    /// identical study (they differ only in which phase they plot), and
    /// Table IV revisits the 16-node point, so the first caller pays and
    /// the rest reuse.
    pub fn simulate_cached(&self, cache: &Cache, cluster: Cluster, nodes: usize) -> AppRun {
        cache.get_or_persistent(self.cache_key(cluster, nodes), || {
            self.simulate(cluster, nodes)
        })
    }

    /// The key [`Self::simulate_cached`] stores its run under.
    pub fn cache_key(&self, cluster: Cluster, nodes: usize) -> CacheKey {
        CacheKey::new(cluster.label(), "alya", format!("{self:?}|nodes={nodes}"))
    }

    /// Node counts plotted for each machine (paper: CTE-Arm 12–78,
    /// MareNostrum 4 12–16).
    pub fn paper_node_counts(&self, cluster: Cluster) -> Vec<usize> {
        match cluster {
            Cluster::CteArm => vec![12, 16, 22, 30, 38, 44, 52, 62, 70, 78],
            Cluster::MareNostrum4 => vec![12, 14, 16],
        }
    }

    /// The runs Figs. 8, 9 and 10 plot, in plot order: each cluster's
    /// [`Self::paper_node_counts`], CTE-Arm first. The points are
    /// independent, so a caller may run them in any order or at once.
    pub fn sweep_points(&self) -> Vec<(Cluster, usize)> {
        cluster_sweep(|c| self.paper_node_counts(c))
    }

    /// Plot the runs of [`Self::sweep_points`] (one per point, in order).
    fn scaling_figure(
        &self,
        runs: &[AppRun],
        id: &str,
        title: &str,
        phase: Option<&str>,
    ) -> Figure {
        let placements = by_cluster(&self.sweep_points());
        let fig = Figure::new(id, title, "nodes", "time per step [s]");
        plot(fig, placements, runs, |run| {
            match phase {
                Some(p) => run.phase(p).expect("phase exists"),
                None => run.elapsed,
            }
            .value()
        })
    }

    /// Fig. 8 — average time step, from the runs of [`Self::sweep_points`].
    pub fn figure8(&self, runs: &[AppRun]) -> Figure {
        self.scaling_figure(runs, "fig8", "Alya: scalability (average time step)", None)
    }

    /// Fig. 9 — assembly phase, from the runs of [`Self::sweep_points`].
    pub fn figure9(&self, runs: &[AppRun]) -> Figure {
        self.scaling_figure(runs, "fig9", "Alya: Assembly phase", Some("assembly"))
    }

    /// Fig. 10 — solver phase, from the runs of [`Self::sweep_points`].
    pub fn figure10(&self, runs: &[AppRun]) -> Figure {
        self.scaling_figure(runs, "fig10", "Alya: Solver phase", Some("solver"))
    }
}

/// Find the smallest CTE-Arm node count whose time beats the given
/// MareNostrum 4 reference time, scanning up to 192 nodes.
pub fn cte_nodes_matching(alya: &Alya, reference: Time, phase: Option<&str>) -> Option<usize> {
    for nodes in alya.min_nodes(Cluster::CteArm)..=192 {
        let run = alya.simulate(Cluster::CteArm, nodes);
        let t = match phase {
            Some(p) => run.phase(p).expect("phase exists"),
            None => run.elapsed,
        };
        if t <= reference {
            return Some(nodes);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ratio_at(alya: &Alya, nodes: usize, phase: Option<&str>) -> f64 {
        let c = alya.simulate(Cluster::CteArm, nodes);
        let m = alya.simulate(Cluster::MareNostrum4, nodes);
        match phase {
            Some(p) => c.phase(p).unwrap() / m.phase(p).unwrap(),
            None => c.elapsed / m.elapsed,
        }
    }

    #[test]
    fn needs_twelve_cte_nodes() {
        let a = Alya::test_case_b();
        assert_eq!(a.min_nodes(Cluster::CteArm), 12);
        assert!(a.min_nodes(Cluster::MareNostrum4) <= 4);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn too_few_nodes_rejected() {
        Alya::test_case_b().simulate(Cluster::CteArm, 8);
    }

    #[test]
    fn total_ratio_is_about_3_4() {
        // Paper: CTE-Arm consistently 3.4× slower for 12–16 nodes.
        let a = Alya::test_case_b();
        for nodes in [12, 16] {
            let r = ratio_at(&a, nodes, None);
            assert!((r - 3.4).abs() < 0.45, "total ratio at {nodes} nodes: {r}");
        }
    }

    #[test]
    fn assembly_ratio_is_about_4_96() {
        let a = Alya::test_case_b();
        let r = ratio_at(&a, 12, Some("assembly"));
        assert!((r - 4.96).abs() < 0.6, "assembly ratio {r}");
    }

    #[test]
    fn solver_ratio_is_about_1_79() {
        let a = Alya::test_case_b();
        let r = ratio_at(&a, 12, Some("solver"));
        assert!((r - 1.79).abs() < 0.35, "solver ratio {r}");
    }

    #[test]
    fn crossover_total_near_44_nodes() {
        // Paper: 44 CTE-Arm nodes match 12 MareNostrum 4 nodes.
        let a = Alya::test_case_b();
        let reference = a.simulate(Cluster::MareNostrum4, 12).elapsed;
        let x = cte_nodes_matching(&a, reference, None).expect("crossover exists");
        assert!((38..=50).contains(&x), "total crossover at {x} nodes");
    }

    #[test]
    fn crossover_assembly_near_62_nodes() {
        let a = Alya::test_case_b();
        let reference = a
            .simulate(Cluster::MareNostrum4, 12)
            .phase("assembly")
            .unwrap();
        let x = cte_nodes_matching(&a, reference, Some("assembly")).expect("crossover exists");
        assert!((54..=70).contains(&x), "assembly crossover at {x} nodes");
    }

    #[test]
    fn crossover_solver_near_22_nodes() {
        let a = Alya::test_case_b();
        let reference = a
            .simulate(Cluster::MareNostrum4, 12)
            .phase("solver")
            .unwrap();
        let x = cte_nodes_matching(&a, reference, Some("solver")).expect("crossover exists");
        assert!((19..=26).contains(&x), "solver crossover at {x} nodes");
    }

    #[test]
    fn both_machines_scale() {
        let a = Alya::test_case_b();
        let runs: Vec<AppRun> = a
            .sweep_points()
            .into_iter()
            .map(|(c, n)| a.simulate(c, n))
            .collect();
        let f = a.figure8(&runs);
        assert_eq!(f.series.len(), 2);
        assert_eq!(f.series[0].points.len(), 10);
        assert_eq!(f.series[1].points.len(), 3);
        for s in &f.series {
            assert!(s.is_non_increasing(0.08), "{} must scale", s.label);
        }
    }

    #[test]
    fn phase_times_compose_total() {
        let a = Alya::test_case_b();
        let run = a.simulate(Cluster::CteArm, 16);
        let sum = run.phase("assembly").unwrap() + run.phase("solver").unwrap();
        // Assembly + solver dominate the step (> 95 %).
        assert!(sum.value() > 0.95 * run.elapsed.value());
        assert!(sum.value() <= run.elapsed.value() + 1e-12);
    }
}
