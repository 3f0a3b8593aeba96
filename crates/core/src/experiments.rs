//! The experiment registry: every table and figure of the paper.

use crate::engine::{fan_out, Ctx};
use apps::alya::Alya;
use apps::common::{AppRun, Cluster};
use apps::gromacs::Gromacs;
use apps::nemo::Nemo;
use apps::openifs::OpenIfs;
use apps::wrf::Wrf;
use arch::machines::{cte_arm, marenostrum4};
use simkit::series::{Figure, Series, Table};
use simkit::stats::quantile;

/// A regenerated paper artifact.
#[derive(Debug, Clone)]
pub enum Artifact {
    /// A figure (line/bar data).
    Figure(Figure),
    /// A table.
    Table(Table),
}

impl Artifact {
    /// Artifact identifier (`fig2`, `table4`, …).
    pub fn id(&self) -> &str {
        match self {
            Artifact::Figure(f) => &f.id,
            Artifact::Table(t) => &t.id,
        }
    }

    /// Human-readable rendering.
    pub fn to_text(&self) -> String {
        match self {
            Artifact::Figure(f) => f.to_text(),
            Artifact::Table(t) => t.to_text(),
        }
    }

    /// CSV rendering.
    pub fn to_csv(&self) -> String {
        match self {
            Artifact::Figure(f) => f.to_csv(),
            Artifact::Table(t) => t.to_csv(),
        }
    }
}

/// A registered experiment.
pub struct Experiment {
    /// Identifier matching the paper (`fig1`…`fig16`, `table1`…`table4`).
    pub id: &'static str,
    /// What the paper calls it.
    pub title: &'static str,
    /// Which paper section it reproduces.
    pub section: &'static str,
    /// Experiments whose cache entries this one reuses. The engine runs
    /// deps first so that hit/miss attribution is deterministic at any
    /// `--jobs` level; outside the engine they are advisory.
    pub deps: &'static [&'static str],
    /// Regenerate the artifact, memoizing sub-results in `ctx`.
    pub run: fn(&Ctx) -> Artifact,
}

/// All experiments, in paper order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "table1",
            title: "Hardware configuration of CTE-Arm and MareNostrum 4",
            section: "II",
            deps: &[],
            run: table1,
        },
        Experiment {
            id: "table2",
            title: "Build configurations for STREAM",
            section: "III-B",
            deps: &[],
            run: table2,
        },
        Experiment {
            id: "fig1",
            title: "FPU µKernel sustained performance",
            section: "III-A",
            deps: &[],
            run: fig1,
        },
        Experiment {
            id: "fig2",
            title: "STREAM Triad bandwidth with OpenMP",
            section: "III-B",
            deps: &[],
            run: fig2,
        },
        Experiment {
            id: "fig3",
            title: "STREAM Triad bandwidth with MPI+OpenMP",
            section: "III-B",
            deps: &[],
            run: fig3,
        },
        Experiment {
            id: "fig4",
            title: "Bandwidth of all node-pairs (msg 256 B)",
            section: "III-C",
            deps: &[],
            run: fig4,
        },
        Experiment {
            id: "fig5",
            title: "Bandwidth distribution across node pairs and sizes",
            section: "III-C",
            deps: &[],
            run: fig5,
        },
        Experiment {
            id: "fig6",
            title: "Linpack scalability",
            section: "IV-A",
            deps: &[],
            run: fig6,
        },
        Experiment {
            id: "fig7",
            title: "HPCG performance (vanilla and optimized)",
            section: "IV-B",
            deps: &[],
            run: fig7,
        },
        Experiment {
            id: "table3",
            title: "Build configurations for all HPC applications",
            section: "V",
            deps: &[],
            run: table3,
        },
        Experiment {
            id: "fig8",
            title: "Alya scalability",
            section: "V-A",
            deps: &[],
            run: fig8,
        },
        Experiment {
            id: "fig9",
            title: "Alya assembly phase",
            section: "V-A",
            deps: &["fig8"],
            run: fig9,
        },
        Experiment {
            id: "fig10",
            title: "Alya solver phase",
            section: "V-A",
            deps: &["fig8"],
            run: fig10,
        },
        Experiment {
            id: "fig11",
            title: "NEMO scalability",
            section: "V-B",
            deps: &[],
            run: fig11,
        },
        Experiment {
            id: "fig12",
            title: "Gromacs single-node scalability",
            section: "V-C",
            deps: &[],
            run: fig12,
        },
        Experiment {
            id: "fig13",
            title: "Gromacs multi-node scalability",
            section: "V-C",
            deps: &["fig12"],
            run: fig13,
        },
        Experiment {
            id: "fig14",
            title: "OpenIFS single-node scalability",
            section: "V-D",
            deps: &[],
            run: fig14,
        },
        Experiment {
            id: "fig15",
            title: "OpenIFS multi-node scalability",
            section: "V-D",
            deps: &[],
            run: fig15,
        },
        Experiment {
            id: "fig16",
            title: "WRF scalability (IO on/off)",
            section: "V-E",
            deps: &[],
            run: fig16,
        },
        Experiment {
            id: "table4",
            title: "Speedup of CTE-Arm relative to MareNostrum 4",
            section: "VI",
            deps: &[
                "fig6", "fig7", "fig8", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
            ],
            run: table4,
        },
    ]
}

/// Run one experiment by id with a fresh (single-use) context.
pub fn run(id: &str) -> Option<Artifact> {
    run_in(&Ctx::new(), id)
}

/// Run one experiment by id, memoizing sub-results in `ctx`.
pub fn run_in(ctx: &Ctx, id: &str) -> Option<Artifact> {
    all_experiments()
        .into_iter()
        .find(|e| e.id == id)
        .map(|e| (e.run)(ctx))
}

fn table1(_ctx: &Ctx) -> Artifact {
    let cte = cte_arm();
    let mn4 = marenostrum4();
    let mut t = Table::new(
        "table1",
        "Hardware configuration of CTE-Arm and MareNostrum 4",
        vec!["Property", "CTE-Arm", "MareNostrum 4"],
    );
    let rows: Vec<(&str, String, String)> = vec![
        (
            "System integrator",
            cte.integrator.clone(),
            mn4.integrator.clone(),
        ),
        ("CPU name", cte.core.name.clone(), mn4.core.name.clone()),
        ("SIMD extensions", "NEON, SVE".into(), "AVX512".into()),
        (
            "Frequency [GHz]",
            format!("{:.2}", cte.core.freq_ghz),
            format!("{:.2}", mn4.core.freq_ghz),
        ),
        (
            "Sockets / node",
            cte.sockets.to_string(),
            mn4.sockets.to_string(),
        ),
        (
            "Cores / node",
            cte.cores_per_node().to_string(),
            mn4.cores_per_node().to_string(),
        ),
        (
            "DP Peak / core [GFlop/s]",
            format!("{:.2}", cte.core.peak_dp().as_gflops()),
            format!("{:.2}", mn4.core.peak_dp().as_gflops()),
        ),
        (
            "DP Peak / node [GFlop/s]",
            format!("{:.2}", cte.peak_dp_node().as_gflops()),
            format!("{:.2}", mn4.peak_dp_node().as_gflops()),
        ),
        (
            "Memory / node [GB]",
            format!("{:.0}", cte.memory.capacity().value() / 1e9),
            format!("{:.0}", mn4.memory.capacity().value() / 1e9),
        ),
        (
            "Peak memory bandwidth [GB/s]",
            format!("{:.0}", cte.memory.peak_bandwidth().as_gb_per_sec()),
            format!("{:.0}", mn4.memory.peak_bandwidth().as_gb_per_sec()),
        ),
        (
            "Num. of nodes",
            cte.nodes.to_string(),
            mn4.nodes.to_string(),
        ),
        (
            "Interconnection",
            cte.interconnect.clone(),
            mn4.interconnect.clone(),
        ),
        (
            "Peak network bandwidth [GB/s]",
            format!("{:.2}", cte.network_peak.as_gb_per_sec()),
            format!("{:.2}", mn4.network_peak.as_gb_per_sec()),
        ),
    ];
    for (k, a, b) in rows {
        t.push_row(vec![k.to_string(), a, b]);
    }
    Artifact::Table(t)
}

fn table2(_ctx: &Ctx) -> Artifact {
    let mut t = Table::new(
        "table2",
        "Build configurations for STREAM",
        vec!["Build", "Compiler", "Key flags"],
    );
    t.push_row(vec![
        "CTE-Arm OpenMP",
        "Fujitsu/1.2.26b",
        "-Kfast,parallel -KA64FX -KSVE -Kopenmp -Kzfill=100 -Kprefetch_sequential=soft -mcmodel=large",
    ]);
    t.push_row(vec![
        "CTE-Arm MPI+OpenMP",
        "Fujitsu/1.2.26b",
        "-Kfast,parallel -KA64FX -KSVE -Kopenmp -Kzfill=100 -Kprefetch_sequential=soft",
    ]);
    t.push_row(vec![
        "MareNostrum 4 OpenMP",
        "Intel/19.1.1.217",
        "-O3 -xHost -qopenmp-link=static -qopenmp",
    ]);
    t.push_row(vec![
        "MareNostrum 4 MPI+OpenMP",
        "Intel/19.1.1.217",
        "-O3 -xHost -qopenmp-link=static -qopenmp",
    ]);
    Artifact::Table(t)
}

fn table3(_ctx: &Ctx) -> Artifact {
    let mut t = Table::new(
        "table3",
        "Build configurations for all HPC applications",
        vec!["Application", "CTE-Arm", "MareNostrum 4"],
    );
    t.push_row(vec![
        "Alya",
        "GNU/8.3.1-sve + Fujitsu MPI 1.1.18",
        "GNU/8.4.2 + OpenMPI 4.0.2",
    ]);
    t.push_row(vec![
        "NEMO",
        "GNU/8.3.1-sve + Fujitsu MPI 1.2.26b",
        "Intel/2017.4 + Intel MPI 2018.4",
    ]);
    t.push_row(vec![
        "Gromacs",
        "GNU/11.0.0 + Fujitsu MPI 1.2.26b + fftw3-sve + SSL2",
        "Intel/2018.4 + Intel MPI + fftw 3.3.8 + MKL",
    ]);
    t.push_row(vec![
        "OpenIFS",
        "GNU/8.3.1-sve + Fujitsu MPI 1.2.26b + internal BLAS/LAPACK",
        "Intel/2018.4 + Intel MPI + MKL",
    ]);
    t.push_row(vec![
        "WRF",
        "GNU/8.3.1-sve + Fujitsu MPI 1.2.26b + NetCDF 4.2",
        "Intel/2017.4 + Intel MPI + NetCDF 4.4.1.1",
    ]);
    Artifact::Table(t)
}

fn fig1(_ctx: &Ctx) -> Artifact {
    Artifact::Figure(microbench::fpu::figure1(&cte_arm(), &marenostrum4()))
}

fn fig2(_ctx: &Ctx) -> Artifact {
    Artifact::Figure(microbench::stream::figure2(&cte_arm(), &marenostrum4()))
}

fn fig3(_ctx: &Ctx) -> Artifact {
    Artifact::Figure(microbench::stream::figure3(&cte_arm(), &marenostrum4()))
}

fn fig4(ctx: &Ctx) -> Artifact {
    let map = microbench::network::figure4_cached(&ctx.cache, 4242);
    let summary = microbench::network::summarize_map(&map);
    let mut t = Table::new(
        "fig4",
        "Node-pair bandwidth map summary (msg 256 B; per-node means in GB/s)",
        vec!["node", "rx_mean", "tx_mean"],
    );
    for (i, (rx, tx)) in summary.rx_means.iter().zip(&summary.tx_means).enumerate() {
        t.push_row(vec![i.to_string(), format!("{rx:.4}"), format!("{tx:.4}")]);
    }
    Artifact::Table(t)
}

fn fig5(ctx: &Ctx) -> Artifact {
    let dists = microbench::network::figure5_cached(&ctx.cache, 4242, 2000);
    let mut t = Table::new(
        "fig5",
        "Bandwidth distribution across node pairs by message size",
        vec!["size_bytes", "p10", "p50", "p90", "cv", "modes"],
    );
    for d in dists {
        // Reconstruct coarse percentiles from the histogram bins.
        let mut samples = Vec::new();
        for (i, &count) in d.histogram.bins().iter().enumerate() {
            for _ in 0..count {
                samples.push(d.histogram.bin_center(i));
            }
        }
        t.push_row(vec![
            d.size.to_string(),
            format!("{:.4}", quantile(&samples, 0.10)),
            format!("{:.4}", quantile(&samples, 0.50)),
            format!("{:.4}", quantile(&samples, 0.90)),
            format!("{:.3}", d.cv),
            d.histogram.smoothed(3).modes(30).len().to_string(),
        ]);
    }
    Artifact::Table(t)
}

fn fig6(ctx: &Ctx) -> Artifact {
    let mut fig = Figure::new("fig6", "Linpack scalability", "nodes", "GFlop/s");
    let counts = [1usize, 2, 4, 8, 16, 32, 64, 128, 192];
    for (machine, link) in [
        (cte_arm(), interconnect::link::LinkModel::tofud()),
        (marenostrum4(), interconnect::link::LinkModel::omnipath()),
    ] {
        let mut s = Series::new(machine.name.clone());
        for &n in &counts {
            let r = hpl::simulate_cached(
                &ctx.cache,
                &machine,
                &link,
                n,
                &hpl::paper_config(&machine, n),
            );
            s.push(n as f64, r.gflops);
        }
        fig.series.push(s);
    }
    Artifact::Figure(fig)
}

fn fig7(ctx: &Ctx) -> Artifact {
    let mut fig = Figure::new(
        "fig7",
        "HPCG performance, vanilla and optimized",
        "nodes",
        "GFlop/s",
    );
    for machine in [cte_arm(), marenostrum4()] {
        for (version, vname) in [
            (hpcg::HpcgVersion::Vanilla, "vanilla"),
            (hpcg::HpcgVersion::Optimized, "optimized"),
        ] {
            let mut s = Series::new(format!("{} ({vname})", machine.name));
            for n in [1usize, 192] {
                let r = hpcg::simulate_cached(
                    &ctx.cache,
                    &machine,
                    n,
                    &hpcg::HpcgConfig::paper(version),
                );
                s.push(n as f64, r.gflops);
            }
            fig.series.push(s);
        }
    }
    Artifact::Figure(fig)
}

fn fig8(ctx: &Ctx) -> Artifact {
    let alya = Alya::test_case_b();
    Artifact::Figure(alya.figure8(&alya_runs(ctx, &alya)))
}

fn fig9(ctx: &Ctx) -> Artifact {
    let alya = Alya::test_case_b();
    Artifact::Figure(alya.figure9(&alya_runs(ctx, &alya)))
}

fn fig10(ctx: &Ctx) -> Artifact {
    let alya = Alya::test_case_b();
    Artifact::Figure(alya.figure10(&alya_runs(ctx, &alya)))
}

/// The Alya sweep Figs. 8–10 plot, one point per pool task.
fn alya_runs(ctx: &Ctx, alya: &Alya) -> Vec<AppRun> {
    fan_out(&alya.sweep_points(), |&(cluster, nodes)| {
        alya.simulate_cached(&ctx.cache, cluster, nodes)
    })
}

fn fig11(ctx: &Ctx) -> Artifact {
    let nemo = Nemo::bench_orca1();
    let runs = fan_out(&nemo.sweep_points(), |&(cluster, nodes)| {
        nemo.simulate_cached(&ctx.cache, cluster, nodes)
    });
    Artifact::Figure(nemo.figure11(&runs))
}

fn fig12(ctx: &Ctx) -> Artifact {
    let gromacs = Gromacs::lignocellulose_rf();
    let runs = gromacs_runs(ctx, &gromacs, &gromacs.figure12_points());
    Artifact::Figure(gromacs.figure12(&runs))
}

fn fig13(ctx: &Ctx) -> Artifact {
    let gromacs = Gromacs::lignocellulose_rf();
    let runs = gromacs_runs(ctx, &gromacs, &gromacs.figure13_points());
    Artifact::Figure(gromacs.figure13(&runs))
}

/// Gromacs `(cluster, nodes, ranks per node, threads per rank)` points,
/// one per pool task.
fn gromacs_runs(
    ctx: &Ctx,
    gromacs: &Gromacs,
    points: &[(Cluster, usize, usize, usize)],
) -> Vec<AppRun> {
    fan_out(points, |&(cluster, nodes, ranks, threads)| {
        gromacs.simulate_config_cached(&ctx.cache, cluster, nodes, ranks, threads)
    })
}

fn fig14(ctx: &Ctx) -> Artifact {
    let input = OpenIfs::tl255l91();
    let runs = fan_out(&OpenIfs::figure14_points(), |&(cluster, ranks)| {
        input.simulate_ranks_cached(&ctx.cache, cluster, 1, ranks)
    });
    Artifact::Figure(OpenIfs::figure14(&runs))
}

fn fig15(ctx: &Ctx) -> Artifact {
    let input = OpenIfs::tc0511l91();
    let runs = fan_out(&OpenIfs::figure15_points(), |&(cluster, nodes)| {
        input.simulate_cached(&ctx.cache, cluster, nodes)
    });
    Artifact::Figure(OpenIfs::figure15(&runs))
}

fn fig16(ctx: &Ctx) -> Artifact {
    let wrf = Wrf::iberia_4km();
    let runs = fan_out(&wrf.sweep_points(), |&(cluster, nodes, io)| {
        wrf.simulate_cached(&ctx.cache, cluster, nodes, io)
    });
    Artifact::Figure(wrf.figure16(&runs))
}

fn table4(ctx: &Ctx) -> Artifact {
    Artifact::Table(crate::speedup::speedup_table_cached(&ctx.cache))
}

/// Convenience: the cluster a series label belongs to (used by reports).
pub fn cluster_of_label(label: &str) -> Option<Cluster> {
    if label.starts_with("CTE-Arm") {
        Some(Cluster::CteArm)
    } else if label.starts_with("MareNostrum 4") {
        Some(Cluster::MareNostrum4)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_paper_artifact() {
        let ids: Vec<&str> = all_experiments().iter().map(|e| e.id).collect();
        for want in [
            "table1", "table2", "table3", "table4", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
            "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
        ] {
            assert!(ids.contains(&want), "missing {want}");
        }
        assert_eq!(ids.len(), 20);
    }

    #[test]
    fn run_by_id_works() {
        let a = run("table1").expect("registered");
        assert_eq!(a.id(), "table1");
        assert!(run("fig99").is_none());
    }

    #[test]
    fn table1_matches_paper_numbers() {
        let Artifact::Table(t) = run("table1").unwrap() else {
            panic!("table1 is a table");
        };
        let find = |prop: &str| {
            t.rows
                .iter()
                .find(|r| r[0] == prop)
                .unwrap_or_else(|| panic!("{prop} present"))
                .clone()
        };
        assert_eq!(find("DP Peak / node [GFlop/s]")[1], "3379.20");
        assert_eq!(find("DP Peak / node [GFlop/s]")[2], "3225.60");
        assert_eq!(find("Peak memory bandwidth [GB/s]")[1], "1024");
        assert_eq!(find("Num. of nodes")[1], "192");
        assert_eq!(find("Num. of nodes")[2], "3456");
    }

    #[test]
    fn fig6_artifact_shape() {
        let Artifact::Figure(f) = run("fig6").unwrap() else {
            panic!("fig6 is a figure");
        };
        assert_eq!(f.series.len(), 2);
        // CTE-Arm beats MN4 at every point (Table IV row 1 all > 1).
        let cte = f.series_named("CTE-Arm").unwrap();
        let mn4 = f.series_named("MareNostrum 4").unwrap();
        for (&(x, yc), &(_, ym)) in cte.points.iter().zip(&mn4.points) {
            assert!(yc > ym, "CTE wins HPL at {x} nodes");
        }
    }

    #[test]
    fn fig7_vanilla_below_optimized() {
        let Artifact::Figure(f) = run("fig7").unwrap() else {
            panic!("fig7 is a figure");
        };
        assert_eq!(f.series.len(), 4);
        for machine in ["CTE-Arm", "MareNostrum 4"] {
            let v = f
                .series_named(&format!("{machine} (vanilla)"))
                .unwrap()
                .y_at(1.0)
                .unwrap();
            let o = f
                .series_named(&format!("{machine} (optimized)"))
                .unwrap()
                .y_at(1.0)
                .unwrap();
            assert!(v < o, "{machine}: vanilla {v} < optimized {o}");
        }
    }

    #[test]
    fn fig5_table_reports_bimodality_and_noise() {
        let Artifact::Table(t) = run("fig5").unwrap() else {
            panic!("fig5 renders as a table");
        };
        // Mid-size row (64 KiB) has ≥ 2 modes.
        let mid = t
            .rows
            .iter()
            .find(|r| r[0] == (64 * 1024).to_string())
            .expect("64 KiB row");
        assert!(mid[5].parse::<usize>().unwrap() >= 2);
        // Large-message rows have a bigger CV than small ones.
        let cv_of = |size: usize| {
            t.rows.iter().find(|r| r[0] == size.to_string()).unwrap()[4]
                .parse::<f64>()
                .unwrap()
        };
        assert!(cv_of(4 * 1024 * 1024) > cv_of(4096));
    }

    #[test]
    fn cluster_label_parsing() {
        assert_eq!(cluster_of_label("CTE-Arm (C)"), Some(Cluster::CteArm));
        assert_eq!(
            cluster_of_label("MareNostrum 4 vector"),
            Some(Cluster::MareNostrum4)
        );
        assert_eq!(cluster_of_label("other"), None);
    }
}
