//! A builder for hypothetical machines — the "what if" API.
//!
//! The paper's conclusions invite counterfactuals: what if the A64FX had
//! MareNostrum 4's memory capacity? What if a Skylake node had HBM? What
//! would a bigger CTE-Arm look like? The builder starts from a real
//! machine and swaps components while keeping everything else consistent,
//! so the whole experiment stack (HPL, HPCG, apps, energy, rooflines) runs
//! unchanged on the variant.

use crate::machines::Machine;
use crate::memory::MemoryModel;
use simkit::units::Bytes;

/// Fluent construction of machine variants.
#[derive(Debug, Clone)]
pub struct MachineBuilder {
    machine: Machine,
}

impl MachineBuilder {
    /// Start from an existing machine.
    pub fn from(machine: Machine) -> Self {
        Self { machine }
    }

    /// Rename the variant.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.machine.name = name.into();
        self
    }

    /// Change the cluster size.
    ///
    /// # Panics
    /// Panics on zero nodes.
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        assert!(nodes >= 1, "a cluster needs nodes");
        self.machine.nodes = nodes;
        self
    }

    /// Swap the whole memory subsystem (e.g. HBM ↔ DDR4).
    pub fn with_memory(mut self, memory: MemoryModel) -> Self {
        assert_eq!(
            memory.cores(),
            self.machine.cores_per_node(),
            "memory model must cover the same cores"
        );
        self.machine.memory = memory;
        self
    }

    /// Scale per-domain memory capacity (e.g. 3× for a 96 GB A64FX node).
    pub fn with_memory_capacity_factor(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "capacity factor must be positive");
        self.machine.memory.domain.capacity =
            Bytes::new(self.machine.memory.domain.capacity.value() * factor);
        self
    }

    /// Change the core clock (GHz); peaks follow automatically.
    pub fn with_frequency(mut self, ghz: f64) -> Self {
        assert!(ghz > 0.0, "frequency must be positive");
        self.machine.core.freq_ghz = ghz;
        self
    }

    /// Change the out-of-order strength parameter.
    pub fn with_scalar_ilp(mut self, ilp: f64) -> Self {
        assert!(ilp > 0.0 && ilp <= 1.0, "scalar ILP in (0, 1]");
        self.machine.core.scalar_ilp = ilp;
        self
    }

    /// Finish.
    pub fn build(self) -> Machine {
        self.machine
    }
}

/// The counterfactual the paper's NP discussion implies: an A64FX node
/// with MareNostrum 4's 96 GB of memory capacity (bandwidth unchanged).
pub fn a64fx_with_big_memory() -> Machine {
    MachineBuilder::from(crate::machines::cte_arm())
        .named("CTE-Arm (96 GB variant)")
        .with_memory_capacity_factor(3.0)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines::cte_arm;

    #[test]
    fn builder_preserves_unmodified_fields() {
        let base = cte_arm();
        let variant = MachineBuilder::from(base.clone())
            .named("variant")
            .with_nodes(384)
            .build();
        assert_eq!(variant.name, "variant");
        assert_eq!(variant.nodes, 384);
        assert_eq!(variant.core.peak_dp().value(), base.core.peak_dp().value());
        assert_eq!(
            variant.memory.peak_bandwidth().value(),
            base.memory.peak_bandwidth().value()
        );
    }

    #[test]
    fn frequency_scales_the_peaks() {
        let faster = MachineBuilder::from(cte_arm()).with_frequency(4.4).build();
        // Double the clock, double the peak.
        assert!((faster.peak_dp_node().as_gflops() - 2.0 * 3379.2).abs() < 1e-9);
    }

    #[test]
    fn big_memory_variant_fixes_the_np_cells() {
        use crate::machines::Machine;
        let variant = a64fx_with_big_memory();
        assert_eq!(variant.memory.capacity().value(), 96e9);
        // Alya's 317 GB footprint now fits in 4 nodes instead of 12
        // (same arithmetic as apps::common::min_nodes).
        let min_nodes = |m: &Machine, footprint: f64| {
            (footprint / (0.85 * m.memory.capacity().value())).ceil() as usize
        };
        assert_eq!(min_nodes(&cte_arm(), 316.8e9), 12);
        assert_eq!(min_nodes(&variant, 316.8e9), 4);
    }

    #[test]
    #[should_panic(expected = "must cover the same cores")]
    fn mismatched_memory_rejected() {
        // A 24-core memory model cannot drop into a 48-core node.
        let mut small = MemoryModel::a64fx();
        small.n_domains = 2;
        MachineBuilder::from(cte_arm()).with_memory(small);
    }

    #[test]
    #[should_panic(expected = "scalar ILP")]
    fn bad_ilp_rejected() {
        MachineBuilder::from(cte_arm()).with_scalar_ilp(1.5);
    }
}
