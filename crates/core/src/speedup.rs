//! Table IV — the speedup summary of CTE-Arm relative to MareNostrum 4.
//!
//! Speedup > 1 means CTE-Arm is faster. `NP` marks configurations the
//! input set cannot run (memory); `N/A` marks node counts outside a
//! study's measured range, mirroring the paper's table.

use crate::engine::fan_out;
use apps::alya::Alya;
use apps::common::Cluster;
use apps::gromacs::Gromacs;
use apps::nemo::Nemo;
use apps::openifs::OpenIfs;
use apps::wrf::Wrf;
use hpcg::{HpcgConfig, HpcgVersion};
use simkit::cache::Cache;
use simkit::series::Table;

/// The node counts of Table IV's columns.
pub const NODE_COUNTS: [usize; 6] = [1, 16, 32, 64, 128, 192];

/// One Table-IV cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell {
    /// Speedup of CTE-Arm over MareNostrum 4 (MN4 time / CTE time).
    Speedup(f64),
    /// Not possible: the input does not fit in CTE-Arm's memory.
    NotPossible,
    /// Outside the study's measured range in the paper.
    NotAvailable,
}

impl Cell {
    /// Render like the paper.
    pub fn render(self) -> String {
        match self {
            Cell::Speedup(s) => format!("{s:.2}"),
            Cell::NotPossible => "NP".into(),
            Cell::NotAvailable => "N/A".into(),
        }
    }

    /// The numeric value, if any.
    pub fn value(self) -> Option<f64> {
        match self {
            Cell::Speedup(s) => Some(s),
            _ => None,
        }
    }
}

/// One Table-IV row: which runs its cells compare, and how.
struct Row {
    name: &'static str,
    /// The node counts the paper measured (the others are `N/A`).
    measured: &'static [usize],
    /// Whether the input fits CTE-Arm at this node count (else `NP`).
    fits: fn(usize) -> bool,
    /// The figure of merit of one run on `cluster` at `nodes`: GFlop/s for
    /// the benchmarks, seconds for the applications.
    measure: fn(&Cache, Cluster, usize) -> f64,
    /// Whether higher `measure` is faster (a rate, not a time).
    rate: bool,
}

impl Row {
    /// Whether the cell at `nodes` compares two runs.
    fn has_speedup(&self, nodes: usize) -> bool {
        self.measured.contains(&nodes) && (self.fits)(nodes)
    }
}

fn always(_: usize) -> bool {
    true
}

/// Every row of the table, in the paper's order. Every measured run
/// revisits a point some figure's sweep already took.
fn rows() -> [Row; 7] {
    [
        Row {
            name: "LINPACK",
            measured: &NODE_COUNTS,
            fits: always,
            measure: |cache, cluster, n| {
                let machine = cluster.machine();
                let cfg = hpl::paper_config(&machine, n);
                hpl::simulate_cached(cache, &machine, &cluster.link(), n, &cfg).gflops
            },
            rate: true,
        },
        // The paper ran HPCG at 1 and 192 nodes.
        Row {
            name: "HPCG",
            measured: &[1, 192],
            fits: always,
            measure: |cache, cluster, n| {
                let cfg = HpcgConfig::paper(HpcgVersion::Optimized);
                hpcg::simulate_cached(cache, &cluster.machine(), n, &cfg).gflops
            },
            rate: true,
        },
        // Measured 16–64; NP where TestCaseB does not fit on CTE-Arm.
        Row {
            name: "Alya",
            measured: &[1, 16, 32, 64],
            fits: |n| n >= Alya::test_case_b().min_nodes(Cluster::CteArm),
            measure: |cache, cluster, n| {
                let alya = Alya::test_case_b();
                alya.simulate_cached(cache, cluster, n).elapsed.value()
            },
            rate: false,
        },
        // 1 node uses TL255L91; 32–128 use TC0511L91, which is NP at 16.
        Row {
            name: "OpenIFS",
            measured: &[1, 16, 32, 64, 128],
            fits: |n| n == 1 || n >= OpenIfs::tc0511l91().min_nodes(Cluster::CteArm),
            measure: |cache, cluster, n| {
                let input = if n == 1 {
                    OpenIfs::tl255l91()
                } else {
                    OpenIfs::tc0511l91()
                };
                input.simulate_cached(cache, cluster, n).elapsed.value()
            },
            rate: false,
        },
        Row {
            name: "Gromacs",
            measured: &NODE_COUNTS,
            fits: always,
            measure: |cache, cluster, n| {
                let gromacs = Gromacs::lignocellulose_rf();
                gromacs.simulate_cached(cache, cluster, n).elapsed.value()
            },
            rate: false,
        },
        // Measured 1–64, with history output on.
        Row {
            name: "WRF",
            measured: &[1, 16, 32, 64],
            fits: always,
            measure: |cache, cluster, n| {
                let wrf = Wrf::iberia_4km();
                wrf.simulate_cached(cache, cluster, n, true).elapsed.value()
            },
            rate: false,
        },
        // The paper's table reports 16 nodes; NP below 8 on CTE-Arm.
        Row {
            name: "NEMO",
            measured: &[1, 16],
            fits: |n| n >= Nemo::bench_orca1().min_nodes(Cluster::CteArm),
            measure: |cache, cluster, n| {
                let nemo = Nemo::bench_orca1();
                nemo.simulate_cached(cache, cluster, n).elapsed.value()
            },
            rate: false,
        },
    ]
}

/// Compute the full Table-IV matrix, reusing sub-results from `cache` —
/// every cell revisits a run some figure's sweep already performed. Each
/// (row, node count, cluster) run is one [`fan_out`] task.
pub fn speedup_cells_cached(cache: &Cache) -> Vec<(String, Vec<Cell>)> {
    let rows = rows();
    let runs: Vec<(usize, usize, Cluster)> = rows
        .iter()
        .enumerate()
        .flat_map(|(r, row)| {
            NODE_COUNTS
                .into_iter()
                .filter(|&n| row.has_speedup(n))
                .flat_map(move |n| Cluster::BOTH.map(|cluster| (r, n, cluster)))
        })
        .collect();
    let mut measured = fan_out(&runs, |&(r, n, cluster)| {
        (rows[r].measure)(cache, cluster, n)
    })
    .into_iter();
    rows.iter()
        .map(|row| {
            let cells = NODE_COUNTS
                .iter()
                .map(|&n| {
                    if !row.measured.contains(&n) {
                        return Cell::NotAvailable;
                    }
                    if !(row.fits)(n) {
                        return Cell::NotPossible;
                    }
                    // Runs come back in task order: CTE-Arm, then MN4.
                    let cte = measured.next().expect("a CTE-Arm run");
                    let mn4 = measured.next().expect("a MareNostrum 4 run");
                    Cell::Speedup(if row.rate { cte / mn4 } else { mn4 / cte })
                })
                .collect();
            (row.name.to_string(), cells)
        })
        .collect()
}

/// Render Table IV, reusing sub-results from `cache`.
pub fn speedup_table_cached(cache: &Cache) -> Table {
    let mut columns = vec!["Application".to_string()];
    columns.extend(NODE_COUNTS.iter().map(|n| n.to_string()));
    let mut table = Table::new(
        "table4",
        "Speedup of CTE-Arm relative to MareNostrum 4",
        columns,
    );
    for (name, cells) in speedup_cells_cached(cache) {
        let mut r = vec![name];
        r.extend(cells.iter().map(|c| c.render()));
        table.push_row(r);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(rows: &[(String, Vec<Cell>)], app: &str, nodes: usize) -> Cell {
        let col = NODE_COUNTS.iter().position(|&n| n == nodes).unwrap();
        rows.iter().find(|(n, _)| n == app).unwrap().1[col]
    }

    #[test]
    fn matches_paper_within_tolerance() {
        // Paper Table IV cells with our tolerance bands. Gromacs' 128/192
        // cells and WRF's measured drift are known deviations (our MD comm
        // model keeps the gap flat; see EXPERIMENTS.md), so the tightest
        // checks sit on the cells the models target directly.
        let rows = speedup_cells_cached(&Cache::new());
        let close = |c: Cell, want: f64, tol: f64, what: &str| {
            let got = c
                .value()
                .unwrap_or_else(|| panic!("{what}: expected value"));
            assert!((got - want).abs() < tol, "{what}: got {got}, paper {want}");
        };
        close(cell(&rows, "LINPACK", 1), 1.25, 0.12, "LINPACK@1");
        close(cell(&rows, "LINPACK", 192), 1.40, 0.15, "LINPACK@192");
        close(cell(&rows, "HPCG", 1), 2.50, 0.25, "HPCG@1");
        close(cell(&rows, "HPCG", 192), 3.24, 0.35, "HPCG@192");
        close(cell(&rows, "Alya", 16), 0.30, 0.05, "Alya@16");
        close(cell(&rows, "Alya", 32), 0.31, 0.06, "Alya@32");
        close(cell(&rows, "OpenIFS", 1), 0.31, 0.05, "OpenIFS@1");
        close(cell(&rows, "OpenIFS", 32), 0.28, 0.05, "OpenIFS@32");
        close(cell(&rows, "Gromacs", 1), 0.32, 0.05, "Gromacs@1");
        close(cell(&rows, "WRF", 1), 0.49, 0.08, "WRF@1");
        close(cell(&rows, "NEMO", 16), 0.56, 0.08, "NEMO@16");
    }

    #[test]
    fn np_cells_match_paper() {
        let rows = speedup_cells_cached(&Cache::new());
        assert_eq!(cell(&rows, "Alya", 1), Cell::NotPossible);
        assert_eq!(cell(&rows, "NEMO", 1), Cell::NotPossible);
        assert_eq!(cell(&rows, "OpenIFS", 16), Cell::NotPossible);
    }

    #[test]
    fn benchmarks_favor_cte_apps_favor_mn4() {
        // The paper's headline: synthetic benchmarks speed up (> 1),
        // applications slow down (< 1).
        let rows = speedup_cells_cached(&Cache::new());
        for (name, cells) in &rows {
            for c in cells {
                if let Cell::Speedup(s) = c {
                    if name == "LINPACK" || name == "HPCG" {
                        assert!(*s > 1.0, "{name}: {s}");
                    } else {
                        assert!(*s < 1.0, "{name}: {s}");
                    }
                }
            }
        }
    }

    #[test]
    fn table_renders() {
        let t = speedup_table_cached(&Cache::new());
        assert_eq!(t.columns.len(), 7);
        assert_eq!(t.rows.len(), 7);
        let text = t.to_text();
        assert!(text.contains("LINPACK"));
        assert!(text.contains("NP"));
        assert!(text.contains("N/A"));
    }
}
