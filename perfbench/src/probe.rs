//! Host probe: the paper's FPU µkernel and STREAM triad, run in a process
//! of their own before and after each workload run.
//!
//! The two rates say how fast this host was around a run; they are
//! diagnostics only and never correct a workload metric.

use kernels::fma::{measure_gflops, vector_f64};
use kernels::stream::{measure_bandwidth, StreamArrays, StreamKernel};

/// FMA rounds per timing: 51 MFLOP over the 256-lane vector kernel, about
/// a tenth of a second at the ~0.4 GFLOP/s it reaches on the reference host.
const FMA_ITERS: u64 = 100_000;
const TRIALS: usize = 3;
/// Last-level cache of the reference host: one 105 MiB L3.
const LLC_MIB: usize = 105;
/// Triad arrays are each this many times the last-level cache.
const LLC_MULTIPLE: usize = 4;

/// Measure and render the probe's JSON line.
pub fn run() -> Result<String, String> {
    let mut fma_gflops = 0.0f64;
    for _ in 0..TRIALS {
        let (gflops, r) = measure_gflops(vector_f64, FMA_ITERS);
        if !std::hint::black_box(r.checksum).is_finite() {
            return Err("FMA checksum is not finite".into());
        }
        fma_gflops = fma_gflops.max(gflops);
    }

    let array_mib = LLC_MULTIPLE * LLC_MIB;
    let mut arrays = StreamArrays::new(array_mib * 1024 * 1024 / std::mem::size_of::<f64>());
    arrays.run_parallel(StreamKernel::Triad);
    let triad_gbs = measure_bandwidth(&mut arrays, StreamKernel::Triad, TRIALS, true);
    // a = b + 3c with b = 2, c = 0 leaves a = 2 after every repetition.
    if arrays.a.iter().any(|&x| x != 2.0) {
        return Err("triad produced wrong values".into());
    }
    Ok(format!(
        "{{\"fma_gflops\":{fma_gflops},\"triad_gbs\":{triad_gbs},\
         \"llc_mib\":{LLC_MIB},\"triad_array_mib\":{array_mib},\"threads\":{}}}",
        rayon::current_num_threads()
    ))
}
