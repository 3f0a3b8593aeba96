//! The full-scale Fugaku machine model — the system CTE-Arm is a small
//! sibling of.
//!
//! The paper repeatedly situates CTE-Arm against Fugaku: same A64FX CPU,
//! same TofuD interconnect, 828× the node count. Fugaku's published
//! Top500/HPCG results (November 2020 lists, which the paper cites) are
//! the external validation points for this workspace's models:
//!
//! * HPL: 442 PFlop/s = **82 %** of the 537 PFlop/s peak ("3 % below our
//!   results in CTE-Arm", the paper notes).
//! * HPCG: 16.0 PFlop/s = **3.62 %** of peak (the paper's CTE-Arm 2.91 %
//!   is "slightly below").

use crate::cache::CacheHierarchy;
use crate::cpu::CoreModel;
use crate::isa::VectorIsa;
use crate::machines::Machine;
use crate::memory::MemoryModel;
use simkit::units::Bandwidth;

/// Fugaku's node count (158,976 = 24 × 23 × 24 Tofu units of 12).
pub const FUGAKU_NODES: usize = 158_976;

/// The Fugaku machine: identical node architecture to CTE-Arm (the
/// production partition runs the A64FX at 2.2 GHz in normal mode),
/// scaled to 158,976 nodes.
pub fn fugaku() -> Machine {
    Machine {
        name: "Fugaku".into(),
        integrator: "Fujitsu".into(),
        core: CoreModel {
            name: "A64FX".into(),
            freq_ghz: 2.2,
            vector_isa: VectorIsa::sve_512(),
            fma_pipes: 2,
            scalar_fma_per_cycle: 2,
            scalar_ilp: 0.35,
            full_load_vector_derate: 1.0,
        },
        caches: CacheHierarchy::a64fx(),
        memory: MemoryModel::a64fx(),
        sockets: 1,
        nodes: FUGAKU_NODES,
        network_peak: Bandwidth::gb_per_sec(6.8),
        interconnect: "TofuD".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_count_and_geometry_agree() {
        assert_eq!(fugaku().nodes, FUGAKU_NODES);
    }

    #[test]
    fn peak_matches_top500_listing() {
        // 158,976 × 3.3792 TFlop/s = 537.2 PFlop/s.
        let m = fugaku();
        let peak_pf = m.peak_dp_cluster(FUGAKU_NODES).value() / 1e15;
        assert!((peak_pf - 537.2).abs() < 0.5, "peak {peak_pf} PF");
    }

    #[test]
    fn same_node_architecture_as_cte_arm() {
        let f = fugaku();
        let c = crate::machines::cte_arm();
        assert_eq!(f.core.peak_dp().value(), c.core.peak_dp().value());
        assert_eq!(
            f.memory.peak_bandwidth().value(),
            c.memory.peak_bandwidth().value()
        );
        assert_eq!(f.cores_per_node(), c.cores_per_node());
    }
}
