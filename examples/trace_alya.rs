//! Trace an Alya-like time step and print a POP-style efficiency report.
//!
//! BSC analyses applications through Paraver timelines and the POP
//! efficiency metrics; this example records the same kind of data from a
//! simulated Alya step on 16 nodes of each machine: a per-rank Gantt strip
//! and the compute/communication breakdown, showing where the time goes on
//! each system.
//!
//! ```bash
//! cargo run --release --example trace_alya
//! ```

use arch::cost::KernelProfile;
use interconnect::link::LinkModel;
use interconnect::network::Network;
use interconnect::tofu::TofuD;
use interconnect::topology::NodeId;
use mpisim::job::Job;
use mpisim::layout::JobLayout;
use mpisim::trace::Activity;
use simkit::units::Bytes;

fn main() {
    let machine = arch::machines::cte_arm();
    let compiler = arch::compiler::Compiler::gnu_sve();
    let net = Network::new(TofuD::cte_arm(), LinkModel::tofud());
    let nodes = 16;
    let layout = JobLayout::new(
        (0..nodes).map(NodeId).collect(),
        48,
        1,
        machine.cores_per_node(),
    );
    let mut job = Job::new(&machine, &compiler, &net, layout, 99)
        .with_tracing()
        .with_imbalance(0.06);

    // One Alya-like time step (profiles as in apps::alya, 16 nodes).
    let per_rank_elems = 132e6 / (nodes * 48) as f64;
    let assembly = KernelProfile::dp(
        "assembly",
        per_rank_elems * 25_000.0,
        per_rank_elems * 500.0,
    )
    .with_vectorizable(0.97);
    let solver_idx =
        KernelProfile::dp("solver-indexed", per_rank_elems * 151.0, 0.0).with_vectorizable(0.30);
    let solver_stream = KernelProfile::dp("solver-stream", 0.0, per_rank_elems * 64.0);

    job.compute(&assembly);
    job.neighbor_exchange(|r| vec![((r + 1) % (nodes * 48), Bytes::kib(200.0))]);
    for _ in 0..50 {
        job.compute(&solver_idx);
        job.compute(&solver_stream);
        job.allreduce(Bytes::new(16.0));
        job.allreduce(Bytes::new(16.0));
    }

    let trace = job.trace().expect("tracing enabled");
    println!(
        "Alya-like time step on 16 × CTE-Arm — {} traced events\n",
        trace.events.len()
    );
    println!("{}", trace.gantt(12, 100));

    println!("time breakdown (all ranks):");
    let total: f64 = trace.breakdown().iter().map(|(_, t)| t.value()).sum();
    for (activity, t) in trace.breakdown() {
        println!(
            "  {:13} {:8.3} rank-seconds  ({:4.1} %)",
            format!("{activity:?}"),
            t.value(),
            100.0 * t.value() / total
        );
    }

    // POP-style metrics.
    let compute = trace.fraction(Activity::Compute);
    println!(
        "\nparallel efficiency (compute / total): {:.1} %",
        compute * 100.0
    );
    println!(
        "communication share: {:.1} %  (collectives {:.1} %, p2p {:.1} %)",
        100.0 * (1.0 - compute),
        100.0 * trace.fraction(Activity::Collective),
        100.0 * trace.fraction(Activity::PointToPoint),
    );
    println!("\nstep time (slowest rank): {:.3} s", job.elapsed().value());
}
