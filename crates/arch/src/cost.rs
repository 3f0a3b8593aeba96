//! The kernel cost model: roofline with an explicit scalar/vector split.
//!
//! A kernel is described by *what it does* ([`KernelProfile`]: flops, memory
//! traffic, intrinsic vectorizability, precision) and costed against *where
//! it runs* (a [`crate::machines::Machine`] plus a
//! [`crate::compiler::Compiler`]). The execution time of a chunk of work on
//! `cores` cores is
//!
//! ```text
//! t_compute = flops · [ v / R_vec  +  (1 − v) / R_scalar ]
//! t_memory  = bytes / B_share
//! t         = max(t_compute, t_memory)          (perfect overlap roofline)
//! ```
//!
//! where `v` is the *achieved* vectorized fraction (kernel vectorizability ×
//! compiler uptake), `R_vec` the derated vector rate, `R_scalar` the
//! sustained scalar rate (peak × out-of-order strength × compiler scalar
//! quality), and `B_share` the cores' share of the node's sustained memory
//! bandwidth.

use crate::compiler::Compiler;
use crate::cpu::CoreModel;
use crate::isa::Precision;
use crate::memory::MemoryModel;
use serde::{Deserialize, Serialize};
use simkit::units::{Bandwidth, Bytes, Flops, Time};

/// Engaged-vector efficiency implied by a kernel's gather mix: unit-stride
/// lanes run at full width while gathered elements serialize to roughly
/// one per cycle, so a fraction `g` of gathered loads costs `g·lanes`
/// issue slots. This replaces the old per-kernel hard-coded efficiencies.
pub fn gather_vector_efficiency(gather_fraction: f64, lanes: f64) -> f64 {
    let g = gather_fraction.clamp(0.0, 1.0);
    1.0 / ((1.0 - g) + g * lanes)
}

/// A static description of a computational kernel's resource appetite.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelProfile {
    /// Human name for reports, e.g. `"alya-assembly"`.
    pub name: String,
    /// Floating-point operations in the chunk being costed.
    pub flops: Flops,
    /// Main-memory traffic of the chunk (beyond-LLC bytes).
    pub bytes: Bytes,
    /// Fraction of the flops that live in vectorizable loops `[0, 1]`.
    pub vectorizable: f64,
    /// Whether the loops are tuned/benchmark-style (pragmas, unit stride)
    /// or un-tuned application code — selects the compiler uptake tier.
    pub tuned: bool,
    /// Dominant floating-point precision.
    pub precision: Precision,
    /// Efficiency of the vector unit once engaged (gather/scatter overhead,
    /// short loop bodies): derates `R_vec`, in `(0, 1]`.
    pub vector_efficiency: f64,
}

impl KernelProfile {
    /// Convenience constructor for a double-precision profile.
    pub fn dp(name: impl Into<String>, flops: f64, bytes: f64) -> Self {
        Self {
            name: name.into(),
            flops: Flops::new(flops),
            bytes: Bytes::new(bytes),
            vectorizable: 0.8,
            tuned: false,
            precision: Precision::Double,
            vector_efficiency: 0.8,
        }
    }

    /// Set the vectorizable fraction (builder style).
    pub fn with_vectorizable(mut self, v: f64) -> Self {
        self.vectorizable = v;
        self
    }

    /// Mark as tuned benchmark code (builder style).
    pub fn with_tuned(mut self, tuned: bool) -> Self {
        self.tuned = tuned;
        self
    }

    /// Set the engaged-vector efficiency (builder style).
    pub fn with_vector_efficiency(mut self, e: f64) -> Self {
        self.vector_efficiency = e;
        self
    }

    /// Arithmetic intensity in flop/byte (∞ if no memory traffic).
    pub fn intensity(&self) -> f64 {
        if self.bytes.value() == 0.0 {
            f64::INFINITY
        } else {
            self.flops.value() / self.bytes.value()
        }
    }

    /// Profile of one CSR SpMV over an `n`-row matrix with `nnz` stored
    /// entries: [`spmv_csr_bytes`] of traffic, `2·nnz` flops. The
    /// engaged-vector efficiency is *derived* from the format's gather mix
    /// (one indexed `x` load per three loaded streams) via
    /// [`gather_vector_efficiency`], not hard-coded.
    pub fn spmv_csr(n: usize, nnz: usize) -> Self {
        Self::dp("spmv-csr", 2.0 * nnz as f64, spmv_csr_bytes(n, nnz))
            .with_vectorizable(0.9)
            .with_vector_efficiency(gather_vector_efficiency(1.0 / 3.0, 8.0))
    }

    /// Profile of one stencil-packed SpMV over an `n`-row 27-point operator:
    /// [`spmv_stencil_bytes`] of traffic (no index streams at all), `2·27·n`
    /// flops, unit-stride lanes (zero gathers — the structure is known at
    /// compile time) so the derived efficiency is full width.
    pub fn spmv_stencil(n: usize) -> Self {
        Self::dp("spmv-stencil", 2.0 * 27.0 * n as f64, spmv_stencil_bytes(n))
            .with_vectorizable(0.95)
            .with_tuned(true)
            .with_vector_efficiency(gather_vector_efficiency(0.0, 8.0))
    }
}

/// Main-memory bytes of one CSR SpMV (`y = A·x`, `n` rows, `nnz` stored
/// entries): every stored entry streams a value (8 B) and a column index
/// (8 B), the row pointers add `8·(n+1)`, and each row reads and writes `y`
/// (16 B per row). `x` reuse is assumed perfect (it fits in cache for the
/// grids benched here), matching the counting used by the host benches.
pub fn spmv_csr_bytes(n: usize, nnz: usize) -> f64 {
    16.0 * nnz as f64 + 8.0 * (n as f64 + 1.0) + 16.0 * n as f64
}

/// Main-memory bytes of one stencil-packed SpMV over `n` rows: the matrix
/// is 27 lane offsets + 27 lane coefficients — constants that live in
/// registers — so the only streams are `x` in and `y` out (8 B each per
/// row). This is the format's whole point: the ~17× traffic drop versus
/// [`spmv_csr_bytes`] on the same operator.
pub fn spmv_stencil_bytes(n: usize) -> f64 {
    16.0 * n as f64
}

/// Core-side *moved* bytes of one CSR SpMV: what the loop actually
/// touches, element by element — values, column indices, one gathered `x`
/// read per entry, row pointers, and the `y` store. Use this (not the
/// model-DRAM count above) when converting measured wall time into an
/// effective GB/s that is comparable across matrix formats.
pub fn spmv_csr_moved_bytes(n: usize, nnz: usize) -> f64 {
    24.0 * nnz as f64 + 8.0 * (n as f64 + 1.0) + 8.0 * n as f64
}

/// Core-side *moved* bytes of one stencil-packed SpMV: 27 `x` reads plus
/// one `y` store per row. The format still sheds the entire index/value
/// stream of CSR, but its loop touches far more than the 16 B/row the
/// DRAM-side model count says — dividing measured time by the model count
/// is what produced the nonsensical 1.1 GB/s readings in `BENCH_host.json`.
pub fn spmv_stencil_moved_bytes(n: usize) -> f64 {
    8.0 * 28.0 * n as f64
}

/// A costing context: one node's core and memory models plus the toolchain.
#[derive(Debug, Clone)]
pub struct CostModel<'a> {
    /// Core execution model.
    pub core: &'a CoreModel,
    /// Node memory model.
    pub memory: &'a MemoryModel,
    /// Toolchain that compiled the kernel.
    pub compiler: &'a Compiler,
}

impl<'a> CostModel<'a> {
    /// Build a costing context.
    pub fn new(core: &'a CoreModel, memory: &'a MemoryModel, compiler: &'a Compiler) -> Self {
        Self {
            core,
            memory,
            compiler,
        }
    }

    /// Sustained per-core vector rate for a profile: ISA peak at the
    /// profile's precision, derated by engaged-vector efficiency. Falls
    /// back to the scalar pipeline when the ISA lacks the precision.
    pub fn vector_rate(&self, profile: &KernelProfile) -> f64 {
        match self.core.peak_vector(profile.precision) {
            Some(peak) => peak.value() * profile.vector_efficiency,
            None => self.scalar_rate(),
        }
    }

    /// Sustained per-core scalar rate: peak scalar issue × out-of-order
    /// strength × compiler scalar quality.
    pub fn scalar_rate(&self) -> f64 {
        self.core.peak_scalar().value() * self.core.scalar_ilp * self.compiler.scalar_quality
    }

    /// Per-core share of the node's sustained memory bandwidth when
    /// `active_cores` cores are driving memory simultaneously. A single
    /// core is limited by its own line-fill concurrency.
    pub fn bandwidth_share(&self, active_cores: usize) -> Bandwidth {
        assert!(active_cores >= 1, "need at least one active core");
        let node = self.memory.app_sustained_bandwidth().value();
        let fair = node / active_cores as f64;
        let single = self.memory.per_thread_bandwidth.value() * 1.8;
        Bandwidth::bytes_per_sec(fair.min(single))
    }

    /// Execution time of the profile's chunk on one core, with
    /// `active_cores` cores sharing the memory system. When most of the
    /// node's cores drive their SIMD units simultaneously, the vector rate
    /// is derated by the core's full-load factor (AVX-512 licence
    /// frequency on Skylake; no-op on the A64FX).
    pub fn chunk_time(&self, profile: &KernelProfile, active_cores: usize) -> Time {
        let v = self
            .compiler
            .vectorized_fraction(profile.vectorizable, profile.tuned);
        let mut r_vec = self.vector_rate(profile);
        if active_cores * 4 >= self.memory.cores() * 3 {
            r_vec *= self.core.full_load_vector_derate;
        }
        let r_scalar = self.scalar_rate();
        let flops = profile.flops.value();
        let t_compute = flops * (v / r_vec + (1.0 - v) / r_scalar);
        let t_memory = profile.bytes.value() / self.bandwidth_share(active_cores).value();
        Time::seconds(t_compute.max(t_memory))
    }

    /// Time for a chunk evenly split across `cores` cores of the node
    /// (perfect load balance within the node).
    pub fn parallel_time(&self, profile: &KernelProfile, cores: usize) -> Time {
        assert!(
            cores >= 1 && cores <= self.memory.cores(),
            "core count out of range"
        );
        let per_core = KernelProfile {
            flops: profile.flops / cores as f64,
            bytes: profile.bytes / cores as f64,
            ..profile.clone()
        };
        self.chunk_time(&per_core, cores)
    }

    /// Achieved node-level flop rate for the profile on `cores` cores.
    pub fn achieved_rate(&self, profile: &KernelProfile, cores: usize) -> f64 {
        profile.flops.value() / self.parallel_time(profile, cores).value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines;

    fn cte() -> machines::Machine {
        machines::cte_arm()
    }

    fn mn4() -> machines::Machine {
        machines::marenostrum4()
    }

    #[test]
    fn compute_bound_tuned_kernel_approaches_vector_peak() {
        let m = cte();
        let compiler = Compiler::fujitsu();
        let cm = CostModel::new(&m.core, &m.memory, &compiler);
        // Pure-FMA kernel: no memory traffic, fully vectorizable, no
        // gather/scatter losses.
        let k = KernelProfile::dp("fma", 1e12, 0.0)
            .with_vectorizable(1.0)
            .with_tuned(true)
            .with_vector_efficiency(1.0);
        let rate = cm.achieved_rate(&k, 1) / 1e9;
        // Fujitsu uptake 0.95 ⇒ ≥ 85 % of the 70.4 GFlop/s peak.
        assert!(rate > 0.85 * 70.4, "rate {rate}");
    }

    #[test]
    fn memory_bound_kernel_is_bandwidth_limited() {
        let m = cte();
        let compiler = Compiler::gnu_sve();
        let cm = CostModel::new(&m.core, &m.memory, &compiler);
        // STREAM-like: 1 flop per 12 bytes.
        let k = KernelProfile::dp("triad", 1e9, 12e9).with_tuned(true);
        let t = cm.parallel_time(&k, 48);
        let implied_bw = 12e9 / t.value();
        let node_bw = m.memory.app_sustained_bandwidth().value();
        assert!((implied_bw - node_bw).abs() / node_bw < 1e-6);
    }

    #[test]
    fn untuned_app_code_is_much_slower_on_a64fx() {
        // The paper's headline: un-tuned compute-bound application loops run
        // 2–5× slower on the A64FX node because SVE stays idle and the
        // scalar core is weak.
        let a = cte();
        let s = mn4();
        let gnu = Compiler::gnu_sve();
        let intel = Compiler::intel();
        let k = KernelProfile::dp("assembly", 1e12, 1e10).with_vectorizable(0.7);
        let ta = CostModel::new(&a.core, &a.memory, &gnu)
            .parallel_time(&k, 48)
            .value();
        let ts = CostModel::new(&s.core, &s.memory, &intel)
            .parallel_time(&k, 48)
            .value();
        let slowdown = ta / ts;
        assert!(slowdown > 2.0 && slowdown < 7.0, "slowdown {slowdown}");
    }

    #[test]
    fn memory_bound_app_gap_is_small() {
        // Memory-bound phases benefit from HBM: the gap shrinks (paper's
        // Alya Solver observation).
        let a = cte();
        let s = mn4();
        let gnu = Compiler::gnu_sve();
        let intel = Compiler::intel();
        // 1 flop per 8 bytes: firmly memory-bound on both machines.
        let k = KernelProfile::dp("solver", 1e11, 8e11).with_vectorizable(0.6);
        let ta = CostModel::new(&a.core, &a.memory, &gnu)
            .parallel_time(&k, 48)
            .value();
        let ts = CostModel::new(&s.core, &s.memory, &intel)
            .parallel_time(&k, 48)
            .value();
        // HBM node should actually win on pure streaming.
        assert!(ta < ts, "A64FX should win memory-bound: {ta} vs {ts}");
    }

    #[test]
    fn single_core_bandwidth_is_concurrency_limited() {
        let m = cte();
        let compiler = Compiler::gnu_sve();
        let cm = CostModel::new(&m.core, &m.memory, &compiler);
        let one = cm.bandwidth_share(1).value();
        let all = cm.bandwidth_share(48).value() * 48.0;
        assert!(one < all, "one core cannot saturate the node");
        assert!(one <= m.memory.per_thread_bandwidth.value() * 1.8 + 1.0);
    }

    #[test]
    fn parallel_time_scales_with_cores_for_compute_bound() {
        let m = mn4();
        let compiler = Compiler::intel();
        let cm = CostModel::new(&m.core, &m.memory, &compiler);
        let k = KernelProfile::dp("flops", 1e12, 1e6).with_vectorizable(0.9);
        // Below the full-load threshold: ideal scaling.
        let t1 = cm.parallel_time(&k, 1).value();
        let t24 = cm.parallel_time(&k, 24).value();
        let speedup = t1 / t24;
        assert!((speedup - 24.0).abs() < 0.3, "speedup {speedup}");
        // Full node: AVX-512 licence derate makes scaling sub-ideal.
        let t48 = cm.parallel_time(&k, 48).value();
        let full = t1 / t48;
        assert!(full < 48.0 && full > 30.0, "full-node speedup {full}");
    }

    #[test]
    fn a64fx_has_no_full_load_derate() {
        let m = cte();
        let compiler = Compiler::fujitsu();
        let cm = CostModel::new(&m.core, &m.memory, &compiler);
        let k = KernelProfile::dp("flops", 1e12, 1e6)
            .with_vectorizable(1.0)
            .with_tuned(true)
            .with_vector_efficiency(1.0);
        let t1 = cm.parallel_time(&k, 1).value();
        let t48 = cm.parallel_time(&k, 48).value();
        let speedup = t1 / t48;
        assert!((speedup - 48.0).abs() < 0.5, "speedup {speedup}");
    }

    #[test]
    fn intensity() {
        let k = KernelProfile::dp("k", 100.0, 50.0);
        assert!((k.intensity() - 2.0).abs() < 1e-12);
        let inf = KernelProfile::dp("k", 100.0, 0.0);
        assert!(inf.intensity().is_infinite());
    }

    #[test]
    fn stencil_spmv_sheds_the_index_traffic() {
        // A 64³ interior-dominated HPCG grid: nnz ≈ 27·n, so CSR moves
        // ≈ 16·27·n bytes of matrix alone while the stencil form moves 16·n
        // total. The traffic ratio must therefore approach 27×… in the
        // model, bounded below by the non-matrix streams.
        let n = 64 * 64 * 64;
        let nnz = 27 * n; // interior approximation
        let csr = spmv_csr_bytes(n, nnz);
        let st = spmv_stencil_bytes(n);
        let ratio = csr / st;
        assert!(ratio > 25.0 && ratio < 30.0, "traffic ratio {ratio}");
        // Identical flops: format changes traffic, not arithmetic.
        let pc = KernelProfile::spmv_csr(n, nnz);
        let ps = KernelProfile::spmv_stencil(n);
        assert_eq!(pc.flops.value(), ps.flops.value());
        // So the stencil profile has the (much) higher intensity.
        assert!(ps.intensity() > 20.0 * pc.intensity());
    }

    #[test]
    fn stencil_spmv_is_faster_on_the_a64fx_roofline() {
        // Both SpMV forms are memory-bound on the A64FX; the stencil form's
        // traffic reduction must show up as a near-proportional time win.
        let m = cte();
        let compiler = Compiler::fujitsu();
        let cm = CostModel::new(&m.core, &m.memory, &compiler);
        let n = 104 * 104 * 104; // the paper's per-node HPCG box
        let nnz = 27 * n;
        let t_csr = cm.parallel_time(&KernelProfile::spmv_csr(n, nnz), 48);
        let t_st = cm.parallel_time(&KernelProfile::spmv_stencil(n), 48);
        let win = t_csr.value() / t_st.value();
        assert!(win > 5.0, "stencil win {win}");
    }

    #[test]
    #[should_panic(expected = "core count out of range")]
    fn parallel_time_checks_core_count() {
        let m = cte();
        let compiler = Compiler::gnu_sve();
        let cm = CostModel::new(&m.core, &m.memory, &compiler);
        cm.parallel_time(&KernelProfile::dp("k", 1.0, 1.0), 49);
    }

    #[test]
    fn moved_bytes_are_format_comparable() {
        let n = 64 * 64 * 64;
        let nnz = 27 * n;
        // Moved-byte ratio CSR/stencil ≈ (24·27 + 16) / (8·28) ≈ 2.96:
        // same order of magnitude, unlike the ~28× model-byte ratio.
        let ratio = spmv_csr_moved_bytes(n, nnz) / spmv_stencil_moved_bytes(n);
        assert!(ratio > 2.0 && ratio < 4.0, "moved ratio {ratio}");
    }

    #[test]
    fn gather_efficiency_is_derived_not_pinned() {
        // Full-gather kernels collapse to ~1/lanes; pure unit stride is 1.
        assert!((gather_vector_efficiency(0.0, 8.0) - 1.0).abs() < 1e-12);
        assert!((gather_vector_efficiency(1.0, 8.0) - 0.125).abs() < 1e-12);
        // CSR's one-gather-in-three lands well under the stencil form.
        let csr = KernelProfile::spmv_csr(1000, 27_000);
        let st = KernelProfile::spmv_stencil(1000);
        assert!(csr.vector_efficiency < 0.5 * st.vector_efficiency);
    }
}
