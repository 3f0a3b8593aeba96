//! # hpl — the LINPACK benchmark (Fig. 6)
//!
//! Two halves:
//!
//! * A **real** LU solver lives in [`kernels::lu`]; [`verify_small_system`]
//!   runs it end to end with HPL's own residual check, proving the
//!   simulated benchmark's numerics are the real algorithm's.
//! * A **cluster-scale simulation** ([`simulate`]) walks the blocked
//!   right-looking factorization panel by panel over a P×Q 2-D
//!   block-cyclic grid, costing each stage — panel factorization, panel
//!   broadcast along the row, row swaps along the column, trailing DGEMM
//!   update — against the machine and network models. The paper's
//!   configuration is reproduced: the vendor binary (fully vectorized), N
//!   sized to 80 % of aggregate memory, 4 ranks/node on CTE-Arm (one per
//!   CMG) vs 1 rank/node on MareNostrum 4, and `P×Q = n_ranks`.

#![warn(missing_docs)]

pub mod distributed;

use arch::machines::Machine;
use interconnect::link::LinkModel;
use kernels::lu::{hpl_residual, lu_factor};
use kernels::matrix::DenseMatrix;
use simkit::rng::Pcg32;
use simkit::units::Time;

/// Sustained fraction of node DP peak a vendor-tuned DGEMM achieves.
///
/// CTE-Arm: Fujitsu's HPL sustains ~88 % (HBM feeds the SVE pipes; the
/// A64FX holds nominal clock under full-node SVE). MareNostrum 4: MKL's
/// DGEMM under package-wide AVX-512 runs at the licence frequency, netting
/// ~72 % of the Table-I nominal peak. These two constants plus the
/// communication model produce the paper's 85 % vs 63 % end-to-end HPL
/// efficiencies.
pub fn vendor_dgemm_efficiency(machine: &Machine) -> f64 {
    // Keyed on the absence of a full-load derate rather than the name, so
    // hypothetical machines behave sensibly.
    if machine.core.full_load_vector_derate >= 0.999 {
        0.88
    } else {
        0.72 * machine.core.full_load_vector_derate / 0.70
    }
}

/// An HPL run configuration.
#[derive(Debug, Clone)]
pub struct HplConfig {
    /// Problem dimension N.
    pub n: usize,
    /// Panel width NB.
    pub nb: usize,
    /// Process-grid rows P.
    pub p: usize,
    /// Process-grid columns Q.
    pub q: usize,
    /// MPI ranks per node (4 on CTE-Arm = one per CMG, 1 on MN4).
    pub ranks_per_node: usize,
    /// Fraction of the panel broadcast/swap traffic hidden behind the
    /// trailing update by HPL's lookahead. Fujitsu's HPL drives TofuD's
    /// RDMA engines asynchronously and hides ~95 % of it; the MareNostrum 4
    /// runs showed the classic non-overlapped scaling behaviour (0.0).
    pub lookahead_overlap: f64,
}

/// The paper's rank mapping for each machine.
pub fn ranks_per_node(machine: &Machine) -> usize {
    if machine.sockets == 1 {
        machine.memory.n_domains // one rank per CMG
    } else {
        1 // Intel's recommended single threaded-MKL rank
    }
}

/// Problem size filling ≥ 80 % of aggregate memory
/// (`N = √(0.80 · mem_bytes / 8)`, rounded down to a multiple of NB).
pub fn problem_size(machine: &Machine, nodes: usize, nb: usize) -> usize {
    let mem = machine.memory.capacity().value() * nodes as f64;
    let n = (0.80 * mem / 8.0).sqrt() as usize;
    (n / nb).max(1) * nb
}

/// Near-square factorization `P×Q = n_ranks` with `P ≤ Q` (HPL's
/// recommended aspect).
pub fn grid_dims(n_ranks: usize) -> (usize, usize) {
    assert!(n_ranks >= 1, "need at least one rank");
    let mut best = (1, n_ranks);
    let mut p = 1;
    while p * p <= n_ranks {
        if n_ranks.is_multiple_of(p) {
            best = (p, n_ranks / p);
        }
        p += 1;
    }
    best
}

/// Build the configuration the paper used for `nodes` nodes of a machine.
pub fn paper_config(machine: &Machine, nodes: usize) -> HplConfig {
    let rpn = ranks_per_node(machine);
    let nb = 240;
    let (p, q) = grid_dims(nodes * rpn);
    HplConfig {
        n: problem_size(machine, nodes, nb),
        nb,
        p,
        q,
        ranks_per_node: rpn,
        lookahead_overlap: if machine.core.full_load_vector_derate >= 0.999 {
            0.95
        } else {
            0.0
        },
    }
}

/// Outcome of a simulated HPL run.
#[derive(Debug, Clone)]
pub struct HplResult {
    /// Wall-clock of the factorization + solve.
    pub time: Time,
    /// Achieved GFlop/s (HPL flop convention).
    pub gflops: f64,
    /// Fraction of the cluster's theoretical peak.
    pub efficiency: f64,
    /// Breakdown: fraction of time in the trailing DGEMM update.
    pub update_fraction: f64,
}

/// Simulate one HPL run of `cfg` on `nodes` nodes of `machine`.
///
/// ```
/// use interconnect::link::LinkModel;
/// let cte = arch::machines::cte_arm();
/// let cfg = hpl::paper_config(&cte, 192);
/// let run = hpl::simulate(&cte, &LinkModel::tofud(), 192, &cfg);
/// // The paper's 85 % HPL efficiency at full scale.
/// assert!((run.efficiency - 0.85).abs() < 0.02);
/// ```
///
/// The network enters through `link`, whose
/// network is described by `link` (the topology enters through the
/// effective hop count of grid-row/column neighbours, which block-cyclic
/// layouts keep small; we charge 3 hops).
pub fn simulate(machine: &Machine, link: &LinkModel, nodes: usize, cfg: &HplConfig) -> HplResult {
    assert!(
        nodes >= 1 && nodes <= machine.nodes,
        "node count out of range"
    );
    assert_eq!(
        cfg.p * cfg.q,
        nodes * cfg.ranks_per_node,
        "grid must cover exactly the allocated ranks"
    );
    let node_peak = machine.peak_dp_node().value();
    let dgemm_rate_node = node_peak * vendor_dgemm_efficiency(machine);
    let cluster_dgemm = dgemm_rate_node * nodes as f64;
    // Panel factorization runs on one grid column (P ranks): its rate is
    // the column's share of the cluster, at half DGEMM efficiency (skinny
    // matrix, pivot search serializes).
    let ranks = (cfg.p * cfg.q) as f64;
    let col_rate = cluster_dgemm * (cfg.p as f64 / ranks) * 0.5;

    let hops = 3;
    let msg = |bytes: f64| link.message_time(simkit::units::Bytes::new(bytes), hops, 1.0);

    let n = cfg.n as f64;
    let nb = cfg.nb as f64;
    let n_panels = cfg.n / cfg.nb;
    let mut t_total = 0.0;
    let mut t_update = 0.0;
    for k in 0..n_panels {
        let m = n - k as f64 * nb; // trailing dimension
                                   // Panel factorization: m·nb² flops on the owning column.
        t_total += (m * nb * nb) / col_rate;
        // Panel broadcast along the grid row: log₂(Q) stages of m×nb
        // doubles; row swaps + U broadcast along the column: log₂(P)
        // stages. Lookahead hides `lookahead_overlap` of it.
        let panel_bytes = m * nb * 8.0;
        let mut t_comm = 0.0;
        if cfg.q > 1 {
            let stages_q = (cfg.q as f64).log2().ceil();
            t_comm += msg(panel_bytes / cfg.p as f64).value() * stages_q;
        }
        if cfg.p > 1 {
            let stages_p = (cfg.p as f64).log2().ceil();
            t_comm += msg(panel_bytes / cfg.q as f64).value() * stages_p;
        }
        t_total += t_comm * (1.0 - cfg.lookahead_overlap.clamp(0.0, 1.0));
        // Trailing update: 2·m²·nb flops spread over the whole grid.
        let upd = 2.0 * m * m * nb / cluster_dgemm;
        t_update += upd;
        t_total += upd;
    }
    let flops = kernels::lu::hpl_flops(cfg.n as u64);
    let gflops = flops / t_total / 1e9;
    HplResult {
        time: Time::seconds(t_total),
        gflops,
        efficiency: gflops * 1e9 / machine.peak_dp_cluster(nodes).value(),
        update_fraction: t_update / t_total,
    }
}

/// [`simulate`] through a [`simkit::cache::Cache`]: Fig. 6 and Table IV
/// sweep overlapping node counts, so whoever runs first pays and the rest
/// reuse. The key captures everything `simulate` reads.
pub fn simulate_cached(
    cache: &simkit::cache::Cache,
    machine: &Machine,
    link: &LinkModel,
    nodes: usize,
    cfg: &HplConfig,
) -> HplResult {
    cache.get_or_persistent(cache_key(machine, link, nodes, cfg), || {
        simulate(machine, link, nodes, cfg)
    })
}

/// The key [`simulate_cached`] stores its result under.
pub fn cache_key(
    machine: &Machine,
    link: &LinkModel,
    nodes: usize,
    cfg: &HplConfig,
) -> simkit::cache::CacheKey {
    simkit::cache::CacheKey::new(
        machine.name.clone(),
        "hpl",
        format!("nodes={nodes}|cfg={cfg:?}|link={link:?}"),
    )
}

impl serde::bin::Encode for HplResult {
    fn encode(&self, out: &mut Vec<u8>) {
        self.time.encode(out);
        self.gflops.encode(out);
        self.efficiency.encode(out);
        self.update_fraction.encode(out);
    }
}

impl serde::bin::Decode for HplResult {
    fn decode(r: &mut serde::bin::Reader<'_>) -> Result<Self, serde::bin::DecodeError> {
        Ok(HplResult {
            time: Time::decode(r)?,
            gflops: f64::decode(r)?,
            efficiency: f64::decode(r)?,
            update_fraction: f64::decode(r)?,
        })
    }
}

impl simkit::store::StoreValue for HplResult {
    const TYPE_NAME: &'static str = "hpl::HplResult";
}

/// Run the real LU kernel on a small random system and apply HPL's
/// correctness criterion (scaled residual < 16). Returns the residual.
pub fn verify_small_system(n: usize, nb: usize, seed: u64) -> f64 {
    let mut rng = Pcg32::seeded(seed);
    let a = DenseMatrix::from_fn(n, n, |_, _| rng.uniform(-0.5, 0.5));
    let b: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let f = lu_factor(a.clone(), nb).expect("random dense matrices are a.s. non-singular");
    let x = f.solve(&b);
    hpl_residual(&a, &x, &b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arch::machines::{cte_arm, marenostrum4};

    #[test]
    fn real_lu_passes_hpl_check() {
        assert!(verify_small_system(120, 32, 1) < 16.0);
    }

    #[test]
    fn grid_dims_near_square() {
        assert_eq!(grid_dims(1), (1, 1));
        assert_eq!(grid_dims(4), (2, 2));
        assert_eq!(grid_dims(192), (12, 16));
        assert_eq!(grid_dims(768), (24, 32));
        let (p, q) = grid_dims(48);
        assert_eq!(p * q, 48);
        assert!(p <= q);
    }

    #[test]
    fn problem_size_tracks_memory() {
        let cte = cte_arm();
        let n1 = problem_size(&cte, 1, 240);
        // √(0.8·32e9/8) ≈ 56 568 → 56 400 after NB rounding.
        assert!((n1 as f64 - 56_568.0).abs() < 240.0, "N = {n1}");
        let n192 = problem_size(&cte, 192, 240);
        assert!(n192 > 13 * n1, "√192 ≈ 13.9 × single-node N");
        assert_eq!(n192 % 240, 0);
    }

    #[test]
    fn ranks_per_node_matches_paper() {
        assert_eq!(ranks_per_node(&cte_arm()), 4);
        assert_eq!(ranks_per_node(&marenostrum4()), 1);
    }

    #[test]
    fn cte_full_cluster_hits_85_percent() {
        let cte = cte_arm();
        let link = LinkModel::tofud();
        let cfg = paper_config(&cte, 192);
        let r = simulate(&cte, &link, 192, &cfg);
        assert!(
            (r.efficiency - 0.85).abs() < 0.02,
            "CTE-Arm efficiency {}",
            r.efficiency
        );
    }

    #[test]
    fn mn4_192_nodes_hits_63_percent() {
        let mn4 = marenostrum4();
        let link = LinkModel::omnipath();
        let cfg = paper_config(&mn4, 192);
        let r = simulate(&mn4, &link, 192, &cfg);
        assert!(
            (r.efficiency - 0.63).abs() < 0.06,
            "MN4 efficiency {}",
            r.efficiency
        );
    }

    #[test]
    fn linpack_speedup_at_one_node_matches_table4() {
        // Table IV: 1.25× at one node.
        let cte = cte_arm();
        let mn4 = marenostrum4();
        let rc = simulate(&cte, &LinkModel::tofud(), 1, &paper_config(&cte, 1));
        let rm = simulate(&mn4, &LinkModel::omnipath(), 1, &paper_config(&mn4, 1));
        let speedup = rc.gflops / rm.gflops;
        assert!((speedup - 1.25).abs() < 0.12, "speedup {speedup}");
    }

    #[test]
    fn efficiency_decreases_with_scale() {
        let mn4 = marenostrum4();
        let link = LinkModel::omnipath();
        let e1 = simulate(&mn4, &link, 1, &paper_config(&mn4, 1)).efficiency;
        let e192 = simulate(&mn4, &link, 192, &paper_config(&mn4, 192)).efficiency;
        assert!(e192 < e1, "comm overhead must grow: {e1} -> {e192}");
    }

    #[test]
    fn update_dominates_time() {
        let cte = cte_arm();
        let r = simulate(&cte, &LinkModel::tofud(), 16, &paper_config(&cte, 16));
        assert!(
            r.update_fraction > 0.7,
            "DGEMM fraction {}",
            r.update_fraction
        );
    }

    #[test]
    fn gflops_scale_superlinearly_in_name_only() {
        // Strong machine count scaling: 192 nodes ≳ 150× one node.
        let cte = cte_arm();
        let link = LinkModel::tofud();
        let g1 = simulate(&cte, &link, 1, &paper_config(&cte, 1)).gflops;
        let g192 = simulate(&cte, &link, 192, &paper_config(&cte, 192)).gflops;
        assert!(g192 > 150.0 * g1, "{g1} -> {g192}");
    }

    #[test]
    #[should_panic(expected = "grid must cover")]
    fn mismatched_grid_rejected() {
        let cte = cte_arm();
        let mut cfg = paper_config(&cte, 4);
        cfg.p = 3;
        simulate(&cte, &LinkModel::tofud(), 4, &cfg);
    }
}
