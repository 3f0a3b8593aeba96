//! WRF — mesoscale weather (Fig. 16).
//!
//! The paper's input: the Iberian peninsula at 4 km resolution, 56 h of
//! simulation producing one history frame per simulated hour (54 frames),
//! run with output enabled and disabled. WRF's step mixes compute-heavy
//! physics (microphysics, radiation — partially vectorized by Intel, left
//! scalar by GNU-on-A64FX) with genuinely streaming dynamics sweeps; the
//! calibrated mix (67.5 : 32.5 on MareNostrum 4) produces the paper's
//! ~2.2× gap, the smallest among the five applications precisely because
//! the streaming share is the largest — HBM absorbs it.

use crate::common::{plot, with_job, AppRun, Cluster};
use arch::cost::KernelProfile;
use simkit::cache::{Cache, CacheKey};
use simkit::series::Figure;
use simkit::units::{Bytes, Time};

/// The Iberia-4km workload model.
#[derive(Debug, Clone)]
pub struct Wrf {
    /// Horizontal grid points (≈ 1000 × 750 at 4 km over Iberia+margins).
    pub horiz_points: f64,
    /// Vertical levels.
    pub levels: usize,
    /// Compute flops per grid point per step (physics + dynamics).
    pub flops_per_point: f64,
    /// Streaming bytes per grid point per step.
    pub bytes_per_point: f64,
    /// Simulated hours (56 in the paper).
    pub hours: usize,
    /// Model steps per simulated hour (dt = 24 s at 4 km).
    pub steps_per_hour: usize,
    /// History frames written (54 — spin-up hours produce none).
    pub frames: usize,
    /// Bytes per history frame.
    pub frame_bytes: f64,
    /// Representative steps actually simulated per run.
    pub steps: usize,
}

impl Wrf {
    /// The Iberian-peninsula 4 km, 56 h case.
    pub fn iberia_4km() -> Self {
        let horiz = 1000.0 * 750.0;
        let levels = 50;
        Self {
            horiz_points: horiz,
            levels,
            flops_per_point: 7000.0,
            bytes_per_point: 1660.0,
            hours: 56,
            steps_per_hour: 150,
            frames: 54,
            // History frame: ~6 single-precision 3-D fields.
            frame_bytes: horiz * levels as f64 * 6.0 * 4.0,
            steps: 3,
        }
    }

    /// Simulate a run. `io` toggles history output, as in the paper.
    pub fn simulate(&self, cluster: Cluster, nodes: usize, io: bool) -> AppRun {
        let ranks = nodes * 48;
        let points = self.horiz_points * self.levels as f64;
        let per_rank = points / ranks as f64;
        let physics = KernelProfile::dp("wrf-physics", per_rank * self.flops_per_point, 0.0)
            .with_vectorizable(0.30);
        let stream = KernelProfile::dp("wrf-stream", 0.0, per_rank * self.bytes_per_point);
        // 2-D decomposition halo: 4 edges × √(horiz/ranks) × levels × 8 B
        // × 3 prognostic field groups.
        let halo_bytes =
            Bytes::new((self.horiz_points / ranks as f64).sqrt() * self.levels as f64 * 8.0 * 3.0);

        let (step_time, io_time) = with_job(cluster, nodes, 48, 1, false, 37, |job| {
            for _ in 0..self.steps {
                job.compute(&physics);
                job.compute(&stream);
                job.halo(4, halo_bytes);
            }
            let t_steps = job.elapsed();
            // One representative frame write.
            job.write_output(Bytes::new(self.frame_bytes));
            (
                Time::seconds(t_steps.value() / self.steps as f64),
                job.elapsed() - t_steps,
            )
        });
        let total_steps = (self.hours * self.steps_per_hour) as f64;
        let compute_total = step_time.value() * total_steps;
        let io_total = if io {
            io_time.value() * self.frames as f64
        } else {
            0.0
        };
        AppRun {
            elapsed: Time::seconds(compute_total + io_total),
            phases: vec![
                ("compute".into(), Time::seconds(compute_total)),
                ("io".into(), Time::seconds(io_total)),
            ],
        }
    }

    /// [`Self::simulate`] through a [`Cache`]: Table IV revisits Fig. 16's
    /// IO-enabled runs at 1–64 nodes.
    pub fn simulate_cached(
        &self,
        cache: &Cache,
        cluster: Cluster,
        nodes: usize,
        io: bool,
    ) -> AppRun {
        cache.get_or_persistent(self.cache_key(cluster, nodes, io), || {
            self.simulate(cluster, nodes, io)
        })
    }

    /// The key [`Self::simulate_cached`] stores its run under.
    pub fn cache_key(&self, cluster: Cluster, nodes: usize, io: bool) -> CacheKey {
        CacheKey::new(
            cluster.label(),
            "wrf",
            format!("{self:?}|nodes={nodes}|io={io}"),
        )
    }

    /// The runs Fig. 16 plots, in plot order: `(cluster, nodes, io)` at
    /// 1–64 nodes, with history output and then without, CTE-Arm first.
    /// The points are independent, so a caller may run them in any order
    /// or at once.
    pub fn sweep_points(&self) -> Vec<(Cluster, usize, bool)> {
        let mut points = Vec::new();
        for cluster in Cluster::BOTH {
            for io in [true, false] {
                for nodes in [1usize, 2, 4, 8, 16, 32, 64] {
                    points.push((cluster, nodes, io));
                }
            }
        }
        points
    }

    /// Fig. 16 — scalability with IO enabled and disabled, from the runs
    /// of [`Self::sweep_points`].
    pub fn figure16(&self, runs: &[AppRun]) -> Figure {
        let placements = self
            .sweep_points()
            .into_iter()
            .map(|(cluster, nodes, io)| {
                let output = if io { "IO" } else { "no IO" };
                (format!("{} ({output})", cluster.label()), nodes as f64)
            })
            .collect();
        let fig = Figure::new(
            "fig16",
            "WRF: scalability (Iberia 4 km, 56 h)",
            "nodes",
            "elapsed time [s]",
        );
        plot(fig, placements, runs, |run| run.elapsed.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ratio(w: &Wrf, nodes: usize) -> f64 {
        w.simulate(Cluster::CteArm, nodes, true).elapsed
            / w.simulate(Cluster::MareNostrum4, nodes, true).elapsed
    }

    #[test]
    fn single_node_ratio_near_2_16() {
        let w = Wrf::iberia_4km();
        let r = ratio(&w, 1);
        assert!((r - 2.16).abs() < 0.3, "1-node ratio {r}");
    }

    #[test]
    fn sixty_four_node_ratio_near_2_23() {
        let w = Wrf::iberia_4km();
        let r = ratio(&w, 64);
        assert!((r - 2.23).abs() < 0.4, "64-node ratio {r}");
    }

    #[test]
    fn mn4_wins_at_every_scale() {
        let w = Wrf::iberia_4km();
        for nodes in [1, 4, 16, 64] {
            assert!(ratio(&w, nodes) > 1.5, "MN4 consistently outperforms");
        }
    }

    #[test]
    fn io_makes_little_difference() {
        // Paper: "little difference... giving the runs with IO disabled a
        // slight advantage".
        let w = Wrf::iberia_4km();
        for cluster in Cluster::BOTH {
            let with_io = w.simulate(cluster, 8, true).elapsed.value();
            let without = w.simulate(cluster, 8, false).elapsed.value();
            assert!(without < with_io, "no-IO run is faster");
            assert!(
                (with_io - without) / with_io < 0.10,
                "IO overhead below 10 %: {with_io} vs {without}"
            );
        }
    }

    #[test]
    fn io_phase_accounts_for_the_difference() {
        let w = Wrf::iberia_4km();
        let run = w.simulate(Cluster::CteArm, 4, true);
        let io = run.phase("io").unwrap().value();
        let compute = run.phase("compute").unwrap().value();
        assert!(io > 0.0);
        assert!((io + compute - run.elapsed.value()).abs() < 1e-9);
        let no_io = w.simulate(Cluster::CteArm, 4, false);
        assert_eq!(no_io.phase("io").unwrap().value(), 0.0);
    }

    #[test]
    fn wrf_has_the_smallest_gap_of_the_apps() {
        // The paper's discussion: WRF's large streaming share keeps the
        // A64FX penalty at ~2.2×, below Alya/OpenIFS/Gromacs levels.
        let w = Wrf::iberia_4km();
        let r = ratio(&w, 16);
        assert!(r < 2.6, "WRF gap {r} stays the smallest");
    }

    #[test]
    fn scales_with_nodes() {
        let w = Wrf::iberia_4km();
        let runs: Vec<AppRun> = w
            .sweep_points()
            .into_iter()
            .map(|(c, n, io)| w.simulate(c, n, io))
            .collect();
        let f = w.figure16(&runs);
        assert_eq!(f.series.len(), 4);
        assert_eq!(f.series[1].label, "CTE-Arm (no IO)");
        assert!(f.series.iter().all(|s| s.points.len() == 7));
        for s in &f.series {
            assert!(s.is_non_increasing(0.05), "{} must scale", s.label);
        }
    }

    #[test]
    fn elapsed_time_is_plausible() {
        // 56 h at 4 km on one Skylake node: hours of wall-clock.
        let w = Wrf::iberia_4km();
        let t = w.simulate(Cluster::MareNostrum4, 1, true).elapsed.value();
        assert!(t > 1800.0 && t < 100_000.0, "elapsed {t}");
    }
}
