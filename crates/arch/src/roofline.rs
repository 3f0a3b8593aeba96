//! Roofline analysis: the classic visual model for the machine balance
//! discussion in the paper's conclusions (weak scalar core vs fast memory).
//!
//! For a machine and toolchain, the attainable performance at arithmetic
//! intensity `I` (flop/byte) is
//!
//! ```text
//! P(I) = min(P_compute, I · B_sustained)
//! ```
//!
//! with several compute ceilings: the vector peak, the compiler-achieved
//! ceiling (uptake-limited), and the scalar ceiling. The machine-balance
//! ridge point `I* = P / B` tells which kernels are memory-bound: the
//! A64FX's enormous bandwidth pushes its ridge to ~3.8 flop/byte while
//! MareNostrum 4 sits at ~16 — which is exactly why the Alya Solver phase
//! (low intensity) nearly closes the gap while Assembly (high intensity)
//! does not.

use crate::compiler::Compiler;
use crate::machines::Machine;
use serde::{Deserialize, Serialize};

/// One roofline ceiling.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ceiling {
    /// Name, e.g. `"SVE peak"` or `"scalar (untuned)"`.
    pub name: String,
    /// Node-level compute ceiling in flop/s.
    pub flops: f64,
}

/// A machine's roofline under a given toolchain.
///
/// ```
/// use arch::{compiler::Compiler, roofline::Roofline};
/// let r = Roofline::build(&arch::machines::cte_arm(), &Compiler::gnu_sve());
/// // HBM pushes the ridge point below 4 flop/byte.
/// assert!(r.ridge(0) < 4.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Roofline {
    /// Machine name.
    pub machine: String,
    /// Sustained node memory bandwidth (bytes/s).
    pub bandwidth: f64,
    /// Compute ceilings, highest first.
    pub ceilings: Vec<Ceiling>,
}

impl Roofline {
    /// Build the roofline of a machine/toolchain pair. The "compiler"
    /// ceiling assumes a fully-vectorizable untuned kernel; the scalar
    /// ceiling assumes none of it vectorizes.
    pub fn build(machine: &Machine, compiler: &Compiler) -> Self {
        let cores = machine.cores_per_node() as f64;
        let vector_peak = machine.peak_dp_node().value();
        let scalar_sustained =
            machine.core.sustained_scalar().value() * compiler.scalar_quality * cores;
        let uptake = compiler.uptake_app;
        // Amdahl blend of vector and scalar paths at full vectorizability.
        let compiler_ceiling = 1.0
            / (uptake / (vector_peak * machine.core.full_load_vector_derate)
                + (1.0 - uptake) / scalar_sustained);
        Self {
            machine: machine.name.clone(),
            bandwidth: machine.memory.app_sustained_bandwidth().value(),
            ceilings: vec![
                Ceiling {
                    name: format!("{} peak", machine.core.vector_isa.name),
                    flops: vector_peak,
                },
                Ceiling {
                    name: format!("compiler-achieved ({:?})", compiler.id),
                    flops: compiler_ceiling,
                },
                Ceiling {
                    name: "scalar (untuned)".into(),
                    flops: scalar_sustained,
                },
            ],
        }
    }

    /// Attainable flop/s at intensity `I` under a given ceiling index.
    pub fn attainable(&self, ceiling: usize, intensity: f64) -> f64 {
        assert!(intensity >= 0.0, "negative intensity");
        (intensity * self.bandwidth).min(self.ceilings[ceiling].flops)
    }

    /// The ridge point `I* = P/B` of a ceiling: kernels below it are
    /// memory-bound, above it compute-bound.
    pub fn ridge(&self, ceiling: usize) -> f64 {
        self.ceilings[ceiling].flops / self.bandwidth
    }

    /// Sample the roofline over a log-spaced intensity range for plotting:
    /// `(intensity, attainable-per-ceiling…)` rows.
    pub fn sample(&self, lo: f64, hi: f64, points: usize) -> Vec<(f64, Vec<f64>)> {
        assert!(lo > 0.0 && hi > lo && points >= 2, "bad sampling range");
        let step = (hi / lo).powf(1.0 / (points - 1) as f64);
        (0..points)
            .map(|i| {
                let x = lo * step.powi(i as i32);
                let ys = (0..self.ceilings.len())
                    .map(|c| self.attainable(c, x))
                    .collect();
                (x, ys)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines::{cte_arm, marenostrum4};

    #[test]
    fn a64fx_ridge_is_low_thanks_to_hbm() {
        let r = Roofline::build(&cte_arm(), &Compiler::fujitsu());
        let ridge = r.ridge(0);
        // 3379 GFlop/s / 862.6 GB/s ≈ 3.9 flop/byte.
        assert!((ridge - 3.9).abs() < 0.2, "ridge {ridge}");
    }

    #[test]
    fn skylake_ridge_is_4x_higher() {
        let a = Roofline::build(&cte_arm(), &Compiler::fujitsu()).ridge(0);
        let s = Roofline::build(&marenostrum4(), &Compiler::intel()).ridge(0);
        assert!(s > 3.5 * a, "Skylake ridge {s} vs A64FX {a}");
    }

    #[test]
    fn ceilings_are_ordered() {
        for (m, c) in [
            (cte_arm(), Compiler::gnu_sve()),
            (marenostrum4(), Compiler::intel()),
        ] {
            let r = Roofline::build(&m, &c);
            assert!(r.ceilings[0].flops >= r.ceilings[1].flops);
            assert!(r.ceilings[1].flops >= r.ceilings[2].flops);
        }
    }

    #[test]
    fn gnu_compiler_ceiling_collapses_toward_scalar() {
        // With 12 % uptake the achieved ceiling sits much closer to the
        // scalar roof than to the SVE peak — the paper's core finding.
        let r = Roofline::build(&cte_arm(), &Compiler::gnu_sve());
        let peak = r.ceilings[0].flops;
        let achieved = r.ceilings[1].flops;
        let scalar = r.ceilings[2].flops;
        assert!(achieved < 0.1 * peak, "achieved {achieved} vs peak {peak}");
        assert!(
            achieved < 1.35 * scalar,
            "achieved sits near the scalar roof"
        );
    }

    #[test]
    fn attainable_is_min_of_bandwidth_and_ceiling() {
        let r = Roofline::build(&cte_arm(), &Compiler::fujitsu());
        // Deep in memory-bound territory.
        let low = r.attainable(0, 0.1);
        assert!((low - 0.1 * r.bandwidth).abs() < 1.0);
        // Deep in compute-bound territory.
        let high = r.attainable(0, 1000.0);
        assert_eq!(high, r.ceilings[0].flops);
    }

    #[test]
    fn sampling_is_log_spaced_and_monotone() {
        let r = Roofline::build(&marenostrum4(), &Compiler::intel());
        let samples = r.sample(0.01, 100.0, 41);
        assert_eq!(samples.len(), 41);
        assert!((samples[0].0 - 0.01).abs() < 1e-12);
        assert!((samples[40].0 - 100.0).abs() < 1e-9);
        for w in samples.windows(2) {
            assert!(w[1].0 > w[0].0);
            for (a, b) in w[0].1.iter().zip(&w[1].1) {
                assert!(b >= a, "attainable never decreases with intensity");
            }
        }
    }

    #[test]
    fn solver_vs_assembly_explained_by_rooflines() {
        // Alya solver streaming sits at ~0.05 flop/byte (memory-bound on
        // MN4, not on the A64FX side thanks to HBM); assembly at ~50
        // flop/byte (compute-bound on both, so the compiler ceiling rules).
        let cte = Roofline::build(&cte_arm(), &Compiler::gnu_sve());
        let mn4 = Roofline::build(&marenostrum4(), &Compiler::intel());
        // Memory-bound point: A64FX attains more.
        assert!(cte.attainable(1, 0.05) > mn4.attainable(1, 0.05));
        // Compute-bound point: MN4 attains much more (compiler ceiling).
        assert!(mn4.attainable(1, 50.0) > 3.0 * cte.attainable(1, 50.0));
    }
}
