//! OpenIFS — numerical weather prediction (Figs. 14, 15).
//!
//! ECMWF's spectral model (oifs43r3v1). Each time step performs grid-point
//! physics and dynamics (long Fortran loops; the Intel compiler vectorizes
//! roughly two thirds of the vectorizable work, GNU-on-A64FX almost none),
//! Legendre and Fourier transforms (dense matrix work), and two
//! transpositions (`MPI_Alltoall`) between grid-point and spectral space.
//!
//! Two input sets, as in the paper: **TL255L91** fits in one node
//! (single-node study, Fig. 14) and **TC0511L91** needs 32 CTE-Arm nodes
//! (multi-node study, Fig. 15). The y-axis is seconds per forecast day.

use crate::common::{by_cluster, cluster_sweep, min_nodes, plot, with_job, AppRun, Cluster};
use arch::cost::KernelProfile;
use simkit::cache::{Cache, CacheKey};
use simkit::series::Figure;
use simkit::units::{Bytes, Time};

/// Ranks per node of a node-filling run (MPI-only, as in the paper).
const NODE_FILLING_RANKS: usize = 48;

/// An OpenIFS input set.
#[derive(Debug, Clone)]
pub struct OpenIfs {
    /// Input-set name.
    pub name: &'static str,
    /// Grid columns (horizontal points).
    pub columns: f64,
    /// Vertical levels (91 for both input sets).
    pub levels: usize,
    /// Flops per column per level per step (physics + dynamics + transform
    /// share).
    pub flops_per_point: f64,
    /// Streaming bytes per column per level per step.
    pub bytes_per_point: f64,
    /// Model time steps per forecast day.
    pub steps_per_day: usize,
    /// Bytes per rank moved by one transposition alltoall, per peer rank,
    /// at the reference rank count — scaled with decomposition.
    pub state_bytes: f64,
    /// Resident footprint in bytes.
    pub footprint: f64,
}

impl OpenIfs {
    /// TL255L91: the single-node study input (~0.7° global).
    pub fn tl255l91() -> Self {
        Self {
            name: "TL255L91",
            columns: 348_528.0,
            levels: 91,
            flops_per_point: 35_000.0,
            bytes_per_point: 1400.0,
            steps_per_day: 32, // 2700 s time step
            state_bytes: 348_528.0 * 91.0 * 8.0 * 4.0,
            footprint: 20e9,
        }
    }

    /// TC0511L91: the multi-node study input (~0.35° cubic-octahedral).
    pub fn tc0511l91() -> Self {
        Self {
            name: "TC0511L91",
            columns: 1_394_112.0,
            levels: 91,
            flops_per_point: 35_000.0,
            bytes_per_point: 1400.0,
            steps_per_day: 96, // 900 s time step
            state_bytes: 1_394_112.0 * 91.0 * 8.0 * 4.0,
            footprint: 800e9,
        }
    }

    /// Minimum nodes for the input's memory footprint (TC0511L91: 32 on
    /// CTE-Arm, matching the paper).
    pub fn min_nodes(&self, cluster: Cluster) -> usize {
        min_nodes(cluster, self.footprint)
    }

    /// Simulate with an explicit rank count on `nodes` nodes (the
    /// single-node study varies ranks within one node). Returns seconds
    /// per forecast day.
    pub fn simulate_ranks(&self, cluster: Cluster, nodes: usize, ranks_per_node: usize) -> AppRun {
        assert!(
            nodes >= self.min_nodes(cluster),
            "{} does not fit on {nodes} nodes of {}",
            self.name,
            cluster.label()
        );
        let ranks = nodes * ranks_per_node;
        let points = self.columns * self.levels as f64;
        let per_rank = points / ranks as f64;
        let gridpoint =
            KernelProfile::dp("openifs-gridpoint", per_rank * self.flops_per_point, 0.0)
                .with_vectorizable(0.55);
        let stream = KernelProfile::dp("openifs-stream", 0.0, per_rank * self.bytes_per_point);
        // Each transposition moves the rank's state slice to every peer:
        // per-pair payload = state / ranks².
        let alltoall_bytes = Bytes::new(self.state_bytes / (ranks as f64 * ranks as f64));

        let steps = 2; // representative steps, scaled to a forecast day
        let elapsed = with_job(cluster, nodes, ranks_per_node, 1, false, 31, |job| {
            for _ in 0..steps {
                job.compute(&gridpoint);
                job.compute(&stream);
                // Grid ↔ spectral: two transpositions per step.
                job.alltoall(alltoall_bytes);
                job.alltoall(alltoall_bytes);
                // Semi-implicit solver norm.
                job.allreduce(Bytes::new(8.0));
            }
            job.elapsed()
        });
        AppRun {
            elapsed: Time::seconds(elapsed.value() / steps as f64 * self.steps_per_day as f64),
            phases: Vec::new(),
        }
    }

    /// Node-filling run (48 ranks per node, MPI-only as in the paper).
    pub fn simulate(&self, cluster: Cluster, nodes: usize) -> AppRun {
        self.simulate_ranks(cluster, nodes, NODE_FILLING_RANKS)
    }

    /// [`Self::simulate_ranks`] through a [`Cache`]: Table IV's node
    /// counts overlap Fig. 15's sweep, and its single-node point is
    /// Fig. 14's 48-rank point.
    pub fn simulate_ranks_cached(
        &self,
        cache: &Cache,
        cluster: Cluster,
        nodes: usize,
        ranks_per_node: usize,
    ) -> AppRun {
        cache.get_or_persistent(self.ranks_key(cluster, nodes, ranks_per_node), || {
            self.simulate_ranks(cluster, nodes, ranks_per_node)
        })
    }

    fn ranks_key(&self, cluster: Cluster, nodes: usize, ranks_per_node: usize) -> CacheKey {
        CacheKey::new(
            cluster.label(),
            "openifs",
            format!("{self:?}|nodes={nodes}|rpn={ranks_per_node}"),
        )
    }

    /// Node-filling run through a [`Cache`].
    pub fn simulate_cached(&self, cache: &Cache, cluster: Cluster, nodes: usize) -> AppRun {
        cache.get_or_persistent(self.cache_key(cluster, nodes), || {
            self.simulate(cluster, nodes)
        })
    }

    /// The key [`Self::simulate_cached`] stores its run under.
    pub fn cache_key(&self, cluster: Cluster, nodes: usize) -> CacheKey {
        self.ranks_key(cluster, nodes, NODE_FILLING_RANKS)
    }

    /// The runs Fig. 14 plots, in plot order: `(cluster, ranks)` on one
    /// node, with the TL255L91 input ([`Self::tl255l91`]), CTE-Arm first.
    /// The points are independent, so a caller may run them in any order
    /// or at once.
    pub fn figure14_points() -> Vec<(Cluster, usize)> {
        cluster_sweep(|_| vec![8, 16, 24, 32, 40, 48])
    }

    /// Fig. 14 — single-node study with TL255L91: x = MPI ranks, from the
    /// runs of [`Self::figure14_points`].
    pub fn figure14(runs: &[AppRun]) -> Figure {
        let fig = Figure::new(
            "fig14",
            "OpenIFS: single-node scalability (TL255L91)",
            "MPI ranks",
            "seconds per forecast day",
        );
        plot(fig, by_cluster(&Self::figure14_points()), runs, |run| {
            run.elapsed.value()
        })
    }

    /// The runs Fig. 15 plots, in plot order: node-filling `(cluster,
    /// nodes)` runs of the TC0511L91 input ([`Self::tc0511l91`]), CTE-Arm
    /// first. The points are independent, so a caller may run them in any
    /// order or at once.
    pub fn figure15_points() -> Vec<(Cluster, usize)> {
        cluster_sweep(|cluster| match cluster {
            Cluster::CteArm => vec![32, 48, 64, 96, 128],
            Cluster::MareNostrum4 => vec![10, 16, 32, 48, 64, 96, 128],
        })
    }

    /// Fig. 15 — multi-node study with TC0511L91: x = nodes, from the runs
    /// of [`Self::figure15_points`].
    pub fn figure15(runs: &[AppRun]) -> Figure {
        let fig = Figure::new(
            "fig15",
            "OpenIFS: multi-node scalability (TC0511L91)",
            "nodes",
            "seconds per forecast day",
        );
        plot(fig, by_cluster(&Self::figure15_points()), runs, |run| {
            run.elapsed.value()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_minimums_match_paper() {
        let multi = OpenIfs::tc0511l91();
        assert_eq!(
            multi.min_nodes(Cluster::CteArm),
            30.max(multi.min_nodes(Cluster::CteArm))
        );
        assert!((30..=32).contains(&multi.min_nodes(Cluster::CteArm)));
        assert!(multi.min_nodes(Cluster::MareNostrum4) <= 10);
        let single = OpenIfs::tl255l91();
        assert_eq!(single.min_nodes(Cluster::CteArm), 1);
    }

    #[test]
    fn eight_rank_ratio_near_3_72() {
        let input = OpenIfs::tl255l91();
        let r = input.simulate_ranks(Cluster::CteArm, 1, 8).elapsed
            / input.simulate_ranks(Cluster::MareNostrum4, 1, 8).elapsed;
        assert!((r - 3.72).abs() < 0.45, "8-rank ratio {r}");
    }

    #[test]
    fn full_node_ratio_near_3_28() {
        let input = OpenIfs::tl255l91();
        let r = input.simulate_ranks(Cluster::CteArm, 1, 48).elapsed
            / input.simulate_ranks(Cluster::MareNostrum4, 1, 48).elapsed;
        assert!((r - 3.28).abs() < 0.5, "full-node ratio {r}");
    }

    #[test]
    fn ratio_shrinks_from_8_to_48_ranks() {
        // Paper: 3.72× at 8 ranks vs 3.28× at the full node.
        let input = OpenIfs::tl255l91();
        let r8 = input.simulate_ranks(Cluster::CteArm, 1, 8).elapsed
            / input.simulate_ranks(Cluster::MareNostrum4, 1, 8).elapsed;
        let r48 = input.simulate_ranks(Cluster::CteArm, 1, 48).elapsed
            / input.simulate_ranks(Cluster::MareNostrum4, 1, 48).elapsed;
        assert!(r48 < r8, "{r8} -> {r48}");
    }

    #[test]
    fn multi_node_ratios() {
        // Paper: 3.55× at 32 nodes, 2.56× at 128 nodes.
        let input = OpenIfs::tc0511l91();
        let r32 = input.simulate(Cluster::CteArm, 32).elapsed
            / input.simulate(Cluster::MareNostrum4, 32).elapsed;
        let r128 = input.simulate(Cluster::CteArm, 128).elapsed
            / input.simulate(Cluster::MareNostrum4, 128).elapsed;
        assert!((r32 - 3.55).abs() < 0.6, "32-node ratio {r32}");
        assert!(r128 < r32, "gap must narrow with scale: {r32} -> {r128}");
        assert!(
            (2.3..=3.4).contains(&r128),
            "128-node ratio {r128} (paper 2.56)"
        );
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn tc0511_needs_32_cte_nodes() {
        OpenIfs::tc0511l91().simulate(Cluster::CteArm, 16);
    }

    fn figure14() -> Figure {
        let input = OpenIfs::tl255l91();
        let runs: Vec<AppRun> = OpenIfs::figure14_points()
            .into_iter()
            .map(|(c, ranks)| input.simulate_ranks(c, 1, ranks))
            .collect();
        OpenIfs::figure14(&runs)
    }

    #[test]
    fn both_machines_scale_single_node() {
        for s in &figure14().series {
            assert!(s.is_non_increasing(0.05), "{} must scale", s.label);
        }
    }

    #[test]
    fn figures_are_well_formed() {
        let f14 = figure14();
        assert_eq!(f14.series.len(), 2);
        assert_eq!(f14.series[0].points.len(), 6);
        let input = OpenIfs::tc0511l91();
        let runs: Vec<AppRun> = OpenIfs::figure15_points()
            .into_iter()
            .map(|(c, n)| input.simulate(c, n))
            .collect();
        let f15 = OpenIfs::figure15(&runs);
        assert_eq!(f15.series.len(), 2);
        assert_eq!(f15.series[0].points.len(), 5);
        assert_eq!(f15.series[1].points.len(), 7);
    }

    #[test]
    fn forecast_day_cost_is_plausible() {
        // TL255 on a full Skylake node: minutes per forecast day.
        let input = OpenIfs::tl255l91();
        let t = input.simulate(Cluster::MareNostrum4, 1).elapsed.value();
        assert!(t > 10.0 && t < 3600.0, "seconds per forecast day: {t}");
    }
}
