//! Extension experiments beyond the paper's figures: external validation
//! and the analyses its conclusions call for.
//!
//! * `ext_fugaku` — scale the CTE-Arm models to Fugaku's 158,976 nodes and
//!   compare against the November-2020 Top500/HPCG listings the paper
//!   cites.
//! * `ext_roofline` — rooflines of both machines under their production
//!   toolchains (the machine-balance argument of Section VI).
//! * `ext_energy` — energy-to-solution for benchmark- and application-like
//!   kernels (the evaluation the authors' own prior work performs for
//!   ThunderX2).
//! * `ext_variability` — the stability claims of Sections III-A/B as
//!   checkable numbers.

use crate::engine::{fan_out, Ctx};
use crate::experiments::{Artifact, Experiment};
use apps::common::{with_job, Cluster, JobHandle};
use arch::compiler::Compiler;
use arch::cost::{CostModel, KernelProfile};
use arch::fugaku::{fugaku, FUGAKU_NODES};
use arch::machines::{cte_arm, marenostrum4};
use arch::power::energy_of_run;
use arch::roofline::Roofline;
use interconnect::fattree::FatTree;
use interconnect::link::LinkModel;
use interconnect::network::Network;
use interconnect::tofu::TofuD;
use interconnect::topology::NodeId;
use mpisim::job::Job;
use mpisim::layout::JobLayout;
use mpisim::trace::Activity;
use simkit::series::{Figure, Series, Table};
use simkit::units::Bytes;

/// The extension experiments, report-ordered.
pub fn extension_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "ext_fugaku",
            title: "Fugaku-scale validation vs Top500/HPCG Nov-2020",
            section: "IV (validation)",
            deps: &[],
            run: ext_fugaku,
        },
        Experiment {
            id: "ext_roofline",
            title: "Rooflines under the production toolchains",
            section: "VI (analysis)",
            deps: &[],
            run: ext_roofline,
        },
        Experiment {
            id: "ext_energy",
            title: "Energy-to-solution comparison",
            section: "VI (analysis)",
            deps: &[],
            run: ext_energy,
        },
        Experiment {
            id: "ext_variability",
            title: "Variability of compute, memory and network",
            section: "III (claims)",
            deps: &[],
            run: ext_variability,
        },
        Experiment {
            id: "ext_latency",
            title: "Point-to-point latency vs message size (OSU companion)",
            section: "III-C (extension)",
            deps: &[],
            run: ext_latency,
        },
        Experiment {
            id: "ext_pop",
            title: "POP-style efficiency metrics from traced runs",
            section: "V (analysis)",
            deps: &[],
            run: ext_pop,
        },
        Experiment {
            id: "ext_weak",
            title: "Weak scaling of a stencil workload",
            section: "V (extension)",
            deps: &[],
            run: ext_weak,
        },
    ]
}

/// Run one extension experiment by id with a fresh context.
pub fn run_extension(id: &str) -> Option<Artifact> {
    run_extension_in(&Ctx::new(), id)
}

/// Run one extension experiment by id, memoizing sub-results in `ctx`.
pub fn run_extension_in(ctx: &Ctx, id: &str) -> Option<Artifact> {
    extension_experiments()
        .into_iter()
        .find(|e| e.id == id)
        .map(|e| (e.run)(ctx))
}

fn ext_fugaku(ctx: &Ctx) -> Artifact {
    let f = fugaku();
    let hpl_run = hpl::simulate_cached(
        &ctx.cache,
        &f,
        &interconnect::link::LinkModel::tofud(),
        FUGAKU_NODES,
        &hpl::paper_config(&f, FUGAKU_NODES),
    );
    let hpcg_run = hpcg::simulate_cached(
        &ctx.cache,
        &f,
        FUGAKU_NODES,
        &hpcg::HpcgConfig::paper(hpcg::HpcgVersion::Optimized),
    );
    let mut t = Table::new(
        "ext_fugaku",
        "Fugaku (158,976 nodes) predicted vs measured (Nov 2020 lists)",
        vec!["Quantity", "Model", "Measured"],
    );
    t.push_row(vec![
        "HPL [PFlop/s]".to_string(),
        format!("{:.0}", hpl_run.gflops / 1e6),
        "442".to_string(),
    ]);
    t.push_row(vec![
        "HPL efficiency [%]".to_string(),
        format!("{:.1}", 100.0 * hpl_run.efficiency),
        "82.3".to_string(),
    ]);
    t.push_row(vec![
        "HPCG [PFlop/s]".to_string(),
        format!("{:.1}", hpcg_run.gflops / 1e6),
        "16.0".to_string(),
    ]);
    t.push_row(vec![
        "HPCG fraction of DP peak [%]".to_string(),
        format!("{:.2}", 100.0 * hpcg_run.fraction_of_peak),
        "2.98 (16.0/537.2; the paper quotes 3.62 vs the HPL Rmax)".to_string(),
    ]);
    Artifact::Table(t)
}

fn ext_roofline(_ctx: &Ctx) -> Artifact {
    let mut fig = Figure::new(
        "ext_roofline",
        "Rooflines under production toolchains (node level)",
        "arithmetic intensity [flop/byte]",
        "attainable GFlop/s",
    );
    for (machine, compiler) in [
        (cte_arm(), Compiler::gnu_sve()),
        (marenostrum4(), Compiler::intel()),
    ] {
        let r = Roofline::build(&machine, &compiler);
        for (c, ceiling) in r.ceilings.iter().enumerate() {
            let mut s = Series::new(format!("{} — {}", machine.name, ceiling.name));
            for (x, ys) in r.sample(0.01, 100.0, 25) {
                s.push(x, ys[c] / 1e9);
            }
            fig.series.push(s);
        }
    }
    Artifact::Figure(fig)
}

fn ext_energy(_ctx: &Ctx) -> Artifact {
    let cte = cte_arm();
    let mn4 = marenostrum4();
    let gnu = Compiler::gnu_sve();
    let fujitsu = Compiler::fujitsu();
    let intel = Compiler::intel();
    let mut t = Table::new(
        "ext_energy",
        "Energy to solution, one node-chunk of work (CTE-Arm vs MareNostrum 4)",
        vec![
            "Workload",
            "CTE time [s]",
            "MN4 time [s]",
            "CTE energy [kJ]",
            "MN4 energy [kJ]",
            "time ratio",
            "energy ratio",
        ],
    );
    let cases: [(&str, KernelProfile, &Compiler); 3] = [
        (
            "HPL-like (vendor, compute-bound)",
            KernelProfile::dp("hpl", 1e13, 1e10)
                .with_vectorizable(1.0)
                .with_tuned(true)
                .with_vector_efficiency(0.88),
            &fujitsu,
        ),
        (
            "untuned app (Alya-assembly-like)",
            KernelProfile::dp("app", 1e12, 2e10).with_vectorizable(0.97),
            &gnu,
        ),
        (
            "streaming (solver-like, memory-bound)",
            KernelProfile::dp("stream", 1e11, 8e11).with_vectorizable(0.5),
            &gnu,
        ),
    ];
    for (name, profile, cte_compiler) in cases {
        let cte_cost = CostModel::new(&cte.core, &cte.memory, cte_compiler);
        let mn4_cost = CostModel::new(&mn4.core, &mn4.memory, &intel);
        let tc = cte_cost.parallel_time(&profile, 48).value();
        let tm = mn4_cost.parallel_time(&profile, 48).value();
        let ec = energy_of_run(&cte, &cte_cost, &profile, 48, 1).energy_j;
        let em = energy_of_run(&mn4, &mn4_cost, &profile, 48, 1).energy_j;
        t.push_row(vec![
            name.to_string(),
            format!("{tc:.2}"),
            format!("{tm:.2}"),
            format!("{:.2}", ec / 1e3),
            format!("{:.2}", em / 1e3),
            format!("{:.2}", tc / tm),
            format!("{:.2}", ec / em),
        ]);
    }
    Artifact::Table(t)
}

fn ext_variability(ctx: &Ctx) -> Artifact {
    let cte = cte_arm();
    let mn4 = marenostrum4();
    let mut t = Table::new(
        "ext_variability",
        "Coefficient of variation of repeated measurements",
        vec!["Measurement", "CTE-Arm CV", "MareNostrum 4 CV"],
    );
    let fpu_c = microbench::variability::fpu_across_cluster(&cte, 11).cv();
    let fpu_m = microbench::variability::fpu_across_cluster(&mn4, 12).cv();
    t.push_row(vec![
        "FPU µKernel across all cores/nodes".to_string(),
        format!("{:.4}", fpu_c),
        format!("{:.4}", fpu_m),
    ]);
    let st_c = microbench::variability::stream_across_runs(&cte, 50, 13).cv();
    let st_m = microbench::variability::stream_across_runs(&mn4, 50, 14).cv();
    t.push_row(vec![
        "STREAM Triad across 50 executions".to_string(),
        format!("{:.4}", st_c),
        format!("{:.4}", st_m),
    ]);
    let dists = microbench::network::figure5_cached(&ctx.cache, 15, 800);
    let net_small = dists.iter().find(|d| d.size == 4096).unwrap().cv;
    let net_large = dists.iter().find(|d| d.size == 4 * 1024 * 1024).unwrap().cv;
    t.push_row(vec![
        "network p2p, 4 KiB messages".to_string(),
        format!("{net_small:.4}"),
        "-".to_string(),
    ]);
    t.push_row(vec![
        "network p2p, 4 MiB messages".to_string(),
        format!("{net_large:.4}"),
        "-".to_string(),
    ]);
    Artifact::Table(t)
}

fn ext_latency(_ctx: &Ctx) -> Artifact {
    Artifact::Figure(microbench::latency::latency_figure())
}

/// Run one traced representative step of an app-like workload on 16 nodes
/// of a cluster and return `(compute_fraction, collective_fraction)`.
fn traced_step(cluster: Cluster, app: &str) -> (f64, f64) {
    let machine = cluster.machine();
    let compiler = cluster.app_compiler(false);
    let nodes = 16usize;
    let layout = JobLayout::new(
        (0..nodes).map(NodeId).collect(),
        48,
        1,
        machine.cores_per_node(),
    );
    let run = |job: &mut dyn JobHandle| {
        let ranks = (nodes * 48) as f64;
        match app {
            "alya" => {
                let e = 132e6 / ranks;
                job.compute(
                    &KernelProfile::dp("assembly", e * 25_000.0, e * 500.0).with_vectorizable(0.97),
                );
                for _ in 0..50 {
                    job.compute(
                        &KernelProfile::dp("solver", e * 151.0, e * 64.0).with_vectorizable(0.30),
                    );
                    job.allreduce(Bytes::new(16.0));
                    job.allreduce(Bytes::new(16.0));
                }
            }
            "nemo" => {
                let p = 600.0 * 500.0 * 75.0 / ranks;
                job.compute(
                    &KernelProfile::dp("step", p * 2750.0, p * 1200.0).with_vectorizable(0.3),
                );
                job.halo(4, Bytes::kib(60.0));
                for _ in 0..80 {
                    job.allreduce(Bytes::new(8.0));
                }
            }
            _ => {
                // openifs-like: gridpoint + two transpositions.
                let p = 1_394_112.0 * 91.0 / ranks;
                job.compute(
                    &KernelProfile::dp("gridpoint", p * 35_000.0, p * 1400.0)
                        .with_vectorizable(0.55),
                );
                job.alltoall(Bytes::new(1.0e9 / (ranks * ranks)));
                job.alltoall(Bytes::new(1.0e9 / (ranks * ranks)));
                job.allreduce(Bytes::new(8.0));
            }
        }
    };
    match cluster {
        Cluster::CteArm => {
            let net = Network::new(TofuD::cte_arm(), LinkModel::tofud());
            let mut job = Job::new(&machine, &compiler, &net, layout, 5).with_tracing();
            run(&mut job);
            let t = job.trace().expect("traced");
            (
                t.fraction(Activity::Compute),
                t.fraction(Activity::Collective),
            )
        }
        Cluster::MareNostrum4 => {
            let net = Network::new(FatTree::marenostrum4(), LinkModel::omnipath());
            let mut job = Job::new(&machine, &compiler, &net, layout, 5).with_tracing();
            run(&mut job);
            let t = job.trace().expect("traced");
            (
                t.fraction(Activity::Compute),
                t.fraction(Activity::Collective),
            )
        }
    }
}

fn ext_pop(_ctx: &Ctx) -> Artifact {
    let mut t = Table::new(
        "ext_pop",
        "POP-style efficiency from traced 16-node runs (compute fraction / collective share)",
        vec![
            "Workload",
            "CTE-Arm compute %",
            "CTE-Arm collective %",
            "MN4 compute %",
            "MN4 collective %",
        ],
    );
    let apps = ["alya", "nemo", "openifs"];
    let steps: Vec<(&str, Cluster)> = apps
        .iter()
        .flat_map(|&app| Cluster::BOTH.map(|cluster| (app, cluster)))
        .collect();
    let fractions = fan_out(&steps, |&(app, cluster)| traced_step(cluster, app));
    for (app, pair) in apps.iter().zip(fractions.chunks(2)) {
        let [(cc, ca), (mc, ma)] = [pair[0], pair[1]];
        t.push_row(vec![
            app.to_string(),
            format!("{:.1}", cc * 100.0),
            format!("{:.1}", ca * 100.0),
            format!("{:.1}", mc * 100.0),
            format!("{:.1}", ma * 100.0),
        ]);
    }
    Artifact::Table(t)
}

/// Node counts of the weak-scaling study.
const WEAK_NODES: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// Time of three steps of the weak-scaling stencil (fixed work per rank)
/// on `nodes` nodes of `cluster`.
fn weak_time(cluster: Cluster, nodes: usize) -> f64 {
    let per_rank =
        KernelProfile::dp("stencil", 50_000.0 * 2750.0, 50_000.0 * 1200.0).with_vectorizable(0.3);
    with_job(cluster, nodes, 48, 1, false, 3, |job| {
        for _ in 0..3 {
            job.compute(&per_rank);
            job.halo(4, Bytes::kib(100.0));
            job.allreduce(Bytes::new(8.0));
        }
        job.elapsed().value()
    })
}

fn ext_weak(_ctx: &Ctx) -> Artifact {
    // Weak scaling: constant per-rank ocean-stencil work, growing node
    // counts. Efficiency = t(1 node) / t(n nodes); 1.0 is perfect.
    let mut fig = Figure::new(
        "ext_weak",
        "Weak scaling of a NEMO-like stencil (per-rank work fixed)",
        "nodes",
        "weak-scaling efficiency",
    );
    let points: Vec<(Cluster, usize)> = Cluster::BOTH
        .into_iter()
        .flat_map(|cluster| WEAK_NODES.map(|nodes| (cluster, nodes)))
        .collect();
    let times = fan_out(&points, |&(cluster, nodes)| weak_time(cluster, nodes));
    for (cluster, times) in Cluster::BOTH
        .into_iter()
        .zip(times.chunks(WEAK_NODES.len()))
    {
        // The 1-node point is the baseline.
        let base = times[0];
        let mut s = Series::new(cluster.label());
        for (&nodes, &t) in WEAK_NODES.iter().zip(times) {
            s.push(nodes as f64, base / t);
        }
        fig.series.push(s);
    }
    Artifact::Figure(fig)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fugaku_hpl_prediction_matches_top500() {
        let Artifact::Table(t) = ext_fugaku(&Ctx::new()) else {
            panic!("table expected");
        };
        let model_pf: f64 = t.cell(0, "Model").unwrap().parse().unwrap();
        // Measured 442 PFlop/s; we predict within 5 %.
        assert!(
            (model_pf - 442.0).abs() / 442.0 < 0.05,
            "Fugaku HPL {model_pf} PF"
        );
        let eff: f64 = t.cell(1, "Model").unwrap().parse().unwrap();
        assert!((eff - 82.3).abs() < 3.5, "efficiency {eff}%");
    }

    #[test]
    fn fugaku_hpcg_prediction_matches_list() {
        let Artifact::Table(t) = ext_fugaku(&Ctx::new()) else {
            panic!("table expected");
        };
        let model_pf: f64 = t.cell(2, "Model").unwrap().parse().unwrap();
        assert!(
            (model_pf - 16.0).abs() / 16.0 < 0.05,
            "Fugaku HPCG {model_pf} PF (measured 16.0)"
        );
    }

    #[test]
    fn paper_ordering_cte_slightly_above_fugaku_hpl() {
        // "Fugaku recorded 82 % ... which is 3 % below our results in
        // CTE-Arm": the small cluster is a bit more efficient.
        let cte = cte_arm();
        let cte_eff = hpl::simulate(
            &cte,
            &interconnect::link::LinkModel::tofud(),
            192,
            &hpl::paper_config(&cte, 192),
        )
        .efficiency;
        let f = fugaku();
        let f_eff = hpl::simulate(
            &f,
            &interconnect::link::LinkModel::tofud(),
            FUGAKU_NODES,
            &hpl::paper_config(&f, FUGAKU_NODES),
        )
        .efficiency;
        assert!(cte_eff > f_eff, "CTE {cte_eff} > Fugaku {f_eff}");
        assert!(cte_eff - f_eff < 0.06, "by a few percent only");
    }

    #[test]
    fn energy_table_shows_the_efficiency_story() {
        let Artifact::Table(t) = ext_energy(&Ctx::new()) else {
            panic!("table expected");
        };
        // HPL-like: A64FX faster AND far more efficient.
        let hpl_time: f64 = t.cell(0, "time ratio").unwrap().parse().unwrap();
        let hpl_energy: f64 = t.cell(0, "energy ratio").unwrap().parse().unwrap();
        assert!(hpl_time < 1.0);
        assert!(hpl_energy < 0.7, "A64FX HPL energy ratio {hpl_energy}");
        assert!(
            hpl_energy < hpl_time,
            "energy advantage exceeds time advantage"
        );
        // Untuned app: slower in time, but energy gap is much smaller.
        let app_time: f64 = t.cell(1, "time ratio").unwrap().parse().unwrap();
        let app_energy: f64 = t.cell(1, "energy ratio").unwrap().parse().unwrap();
        assert!(app_time > 2.0);
        assert!(
            app_energy < app_time,
            "energy gap {app_energy} < time gap {app_time}"
        );
    }

    #[test]
    fn variability_table_contrasts_compute_and_network() {
        let Artifact::Table(t) = ext_variability(&Ctx::new()) else {
            panic!("table expected");
        };
        let fpu: f64 = t.cell(0, "CTE-Arm CV").unwrap().parse().unwrap();
        let net: f64 = t.cell(3, "CTE-Arm CV").unwrap().parse().unwrap();
        assert!(fpu < 0.01);
        assert!(net > 0.1);
    }

    #[test]
    fn roofline_figure_has_six_series() {
        let Artifact::Figure(f) = ext_roofline(&Ctx::new()) else {
            panic!("figure expected");
        };
        assert_eq!(f.series.len(), 6);
    }

    #[test]
    fn pop_table_shows_mn4_more_communication_bound() {
        // The same communication costs weigh more against MN4's faster
        // compute, so its compute fraction is lower for the solver-heavy
        // workloads.
        let Artifact::Table(t) = ext_pop(&Ctx::new()) else {
            panic!("table expected");
        };
        let alya = &t.rows[0];
        let cte_compute: f64 = alya[1].parse().unwrap();
        let mn4_compute: f64 = alya[3].parse().unwrap();
        assert!(cte_compute > 50.0, "CTE compute-dominated: {cte_compute}");
        assert!(
            mn4_compute <= cte_compute,
            "faster machine waits more: {mn4_compute} vs {cte_compute}"
        );
    }

    #[test]
    fn weak_scaling_stays_high_and_decays_slowly() {
        let Artifact::Figure(f) = ext_weak(&Ctx::new()) else {
            panic!("figure expected");
        };
        for s in &f.series {
            let at1 = s.y_at(1.0).unwrap();
            assert!((at1 - 1.0).abs() < 1e-9, "normalized at 1 node");
            let at128 = s.y_at(128.0).unwrap();
            assert!(at128 > 0.7, "{}: efficiency at 128 nodes {at128}", s.label);
            assert!(at128 < 1.01, "never super-linear");
        }
    }

    #[test]
    fn extension_registry_is_runnable() {
        let ctx = Ctx::new();
        for exp in extension_experiments() {
            let a = (exp.run)(&ctx);
            assert_eq!(a.id(), exp.id);
            assert!(a.to_text().len() > 50);
        }
        assert!(run_extension("ext_energy").is_some());
        assert!(run_extension("nope").is_none());
    }
}
