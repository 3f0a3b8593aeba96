//! Table IV — the speedup summary of CTE-Arm relative to MareNostrum 4.
//!
//! Speedup > 1 means CTE-Arm is faster. `NP` marks configurations the
//! input set cannot run (memory); `N/A` marks node counts outside a
//! study's measured range, mirroring the paper's table.

use apps::alya::Alya;
use apps::common::Cluster;
use apps::gromacs::Gromacs;
use apps::nemo::Nemo;
use apps::openifs::OpenIfs;
use apps::wrf::Wrf;
use hpcg::{HpcgConfig, HpcgVersion};
use interconnect::link::LinkModel;
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

/// Compute one application row. `measured` restricts to the node counts
/// the paper actually ran (others become `N/A`).
fn row(name: &str, measured: &[usize], f: impl Fn(usize) -> Cell) -> (String, Vec<Cell>) {
    let cells = NODE_COUNTS
        .iter()
        .map(|&n| {
            if measured.contains(&n) {
                f(n)
            } else {
                Cell::NotAvailable
            }
        })
        .collect();
    (name.to_string(), cells)
}

/// Compute the full Table-IV matrix, reusing sub-results from `cache` —
/// every cell revisits a run some figure's sweep already performed.
pub fn speedup_cells_cached(cache: &Cache) -> Vec<(String, Vec<Cell>)> {
    let mut rows = Vec::new();

    // LINPACK — measured at every column.
    rows.push(row("LINPACK", &NODE_COUNTS, |n| {
        let cte = arch::machines::cte_arm();
        let mn4 = arch::machines::marenostrum4();
        let gc = hpl::simulate_cached(
            cache,
            &cte,
            &LinkModel::tofud(),
            n,
            &hpl::paper_config(&cte, n),
        )
        .gflops;
        let gm = hpl::simulate_cached(
            cache,
            &mn4,
            &LinkModel::omnipath(),
            n,
            &hpl::paper_config(&mn4, n),
        )
        .gflops;
        Cell::Speedup(gc / gm)
    }));

    // HPCG — the paper ran 1 and 192 nodes.
    rows.push(row("HPCG", &[1, 192], |n| {
        let cfg = HpcgConfig::paper(HpcgVersion::Optimized);
        let gc = hpcg::simulate_cached(cache, &arch::machines::cte_arm(), n, &cfg).gflops;
        let gm = hpcg::simulate_cached(cache, &arch::machines::marenostrum4(), n, &cfg).gflops;
        Cell::Speedup(gc / gm)
    }));

    // Alya — measured 16–64; NP where TestCaseB does not fit on CTE-Arm.
    let alya = Alya::test_case_b();
    rows.push(row("Alya", &[1, 16, 32, 64], |n| {
        if n < alya.min_nodes(Cluster::CteArm) {
            return Cell::NotPossible;
        }
        let tc = alya.simulate_cached(cache, Cluster::CteArm, n).elapsed;
        let tm = alya
            .simulate_cached(cache, Cluster::MareNostrum4, n)
            .elapsed;
        Cell::Speedup(tm / tc)
    }));

    // OpenIFS — 1 node uses TL255L91; 16 nodes is NP for TC0511L91;
    // 32–128 use TC0511L91.
    rows.push(row("OpenIFS", &[1, 16, 32, 64, 128], |n| {
        if n == 1 {
            let input = OpenIfs::tl255l91();
            let tc = input.simulate_cached(cache, Cluster::CteArm, 1).elapsed;
            let tm = input
                .simulate_cached(cache, Cluster::MareNostrum4, 1)
                .elapsed;
            return Cell::Speedup(tm / tc);
        }
        let input = OpenIfs::tc0511l91();
        if n < input.min_nodes(Cluster::CteArm) {
            return Cell::NotPossible;
        }
        let tc = input.simulate_cached(cache, Cluster::CteArm, n).elapsed;
        let tm = input
            .simulate_cached(cache, Cluster::MareNostrum4, n)
            .elapsed;
        Cell::Speedup(tm / tc)
    }));

    // Gromacs — measured at every column.
    let gromacs = Gromacs::lignocellulose_rf();
    rows.push(row("Gromacs", &NODE_COUNTS, |n| {
        let tc = gromacs.simulate_cached(cache, Cluster::CteArm, n).elapsed;
        let tm = gromacs
            .simulate_cached(cache, Cluster::MareNostrum4, n)
            .elapsed;
        Cell::Speedup(tm / tc)
    }));

    // WRF — measured 1–64.
    let wrf = Wrf::iberia_4km();
    rows.push(row("WRF", &[1, 16, 32, 64], |n| {
        let tc = wrf.simulate_cached(cache, Cluster::CteArm, n, true).elapsed;
        let tm = wrf
            .simulate_cached(cache, Cluster::MareNostrum4, n, true)
            .elapsed;
        Cell::Speedup(tm / tc)
    }));

    // NEMO — the paper's table reports 16 nodes; NP below 8 on CTE-Arm.
    let nemo = Nemo::bench_orca1();
    rows.push(row("NEMO", &[1, 16], |n| {
        if n < nemo.min_nodes(Cluster::CteArm) {
            return Cell::NotPossible;
        }
        let tc = nemo.simulate_cached(cache, Cluster::CteArm, n).elapsed;
        let tm = nemo
            .simulate_cached(cache, Cluster::MareNostrum4, n)
            .elapsed;
        Cell::Speedup(tm / tc)
    }));

    rows
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
