//! F-series fault-injection campaigns.
//!
//! The paper's network evaluation *detected* a degraded node from healthy
//! measurements (`arms0b1-11c`, Fig. 4). A campaign inverts that
//! methodology: it **injects** a seed-determined [`FaultPlan`] into the
//! CTE-Arm model, re-runs the detection battery — the Fig.-4 ping-pong map
//! plus an all-to-all drain sweep — and checks that the per-node outlier
//! ranking fingerprints exactly the injected nodes. Multi-fault campaigns
//! additionally run an `mpisim` job across the faulty nodes and replay a
//! production day through the scheduler with hard node failures.
//!
//! Every trial starts from the healthy baseline: the per-pair tables of
//! the fault-free network, computed once per campaign. A trial copies them
//! and re-prices only the messages with a faulted endpoint — the rows and
//! columns of [`Network::faulted_nodes`]. That is exact, not an
//! approximation: `Network::path_cost` reads node health only through the
//! pair's two endpoints, so every other message prices bit for bit as on
//! the healthy network. A trial's pricing work is set by its faulted
//! nodes, not by the machine size ([`CampaignReport::messages_priced`]).
//!
//! Everything is deterministic: trial plans derive from `(campaign seed,
//! trial index)` through `simkit::rng`, trials are pure functions of their
//! plan and the baseline, and the baseline is built (through the shared
//! [`Ctx`] cache) before trials fan out — so the campaign table is
//! byte-identical at any `--jobs` / `RAYON_NUM_THREADS`.

use crate::engine::{run_indexed, Ctx};
use crate::experiments::Artifact;
use arch::compiler::Compiler;
use arch::cost::KernelProfile;
use arch::machines::cte_arm;
use interconnect::faults::{Fault, FaultPlan, FaultSpec};
use interconnect::hostname::hostname;
use interconnect::link::LinkModel;
use interconnect::network::{Degradation, Network};
use interconnect::tofu::TofuD;
use interconnect::topology::{NodeId, Topology};
use microbench::network::{summarize_map, PairMapSummary, DEGRADED_NODE, DEGRADED_RX_FACTOR};
use mpisim::faults::JobFaults;
use mpisim::{Job, JobLayout};
use rayon::prelude::*;
use sched::{AllocationPolicy, Allocator, NodeFailure, Scheduler, WorkloadSpec};
use simkit::cache::CacheKey;
use simkit::series::Table;
use simkit::units::{Bytes, Time};

/// Ping-pong probe size (bytes): the paper's Fig.-4 message size, below
/// the 1 MiB noise threshold so the whole battery is noise-free.
const PROBE_BYTES: f64 = 256.0;

/// All-to-all drain probe size (64 KiB).
const DRAIN_BYTES: f64 = 64.0 * 1024.0;

/// A named fault-injection campaign: a family of trial plans plus the
/// studies to run on each.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// CLI name (`smoke`, `degraded`, `multi`).
    pub name: &'static str,
    /// Human-readable description.
    pub title: &'static str,
    /// Master seed: fully determines every trial plan.
    pub seed: u64,
    /// Whether trial 0 replays the paper's measured `arms0b1-11c` fault.
    pub include_paper_plan: bool,
    /// How many seed-generated trials follow.
    pub generated_trials: usize,
    /// Fault mix of each generated trial.
    pub spec: FaultSpec,
    /// Whether to replay a production day through the scheduler with the
    /// plan's hard failures (and report makespan stretch / requeues).
    pub sched_study: bool,
}

/// The paper's measured fault, as a plan: node 18 (`arms0b1-11c`) with
/// receive bandwidth at 8 % of healthy.
pub fn paper_plan() -> FaultPlan {
    FaultPlan::new("arms0b1-11c-rx").with(Fault::Degrade {
        node: DEGRADED_NODE,
        degradation: Degradation::receive_fault(DEGRADED_RX_FACTOR),
    })
}

fn trial_seed(campaign_seed: u64, trial: usize) -> u64 {
    campaign_seed
        .wrapping_mul(1_000_003)
        .wrapping_add(trial as u64 + 1)
}

impl Campaign {
    /// The trial plans, in order. Trial 0 is the paper plan when
    /// `include_paper_plan`; the rest derive from `(seed, index)`.
    pub fn plans(&self) -> Vec<FaultPlan> {
        let nodes = TofuD::cte_arm().nodes();
        let mut plans = Vec::new();
        if self.include_paper_plan {
            plans.push(paper_plan());
        }
        for i in 0..self.generated_trials {
            plans.push(FaultPlan::generate(
                format!("{}-{i}", self.name),
                nodes,
                &self.spec,
                trial_seed(self.seed, i),
            ));
        }
        plans
    }
}

/// The campaign registry.
pub fn campaigns() -> Vec<Campaign> {
    vec![
        Campaign {
            name: "smoke",
            title: "CI smoke: paper fault + one generated multi-fault trial",
            seed: 7,
            include_paper_plan: true,
            generated_trials: 1,
            spec: FaultSpec {
                degraded: 1,
                failures: 1,
                ..FaultSpec::default()
            },
            sched_study: true,
        },
        Campaign {
            name: "degraded",
            title: "Degraded-node study: Fig.-4 signature across injected receivers",
            seed: 41,
            include_paper_plan: true,
            generated_trials: 5,
            spec: FaultSpec {
                degraded: 1,
                ..FaultSpec::default()
            },
            sched_study: false,
        },
        Campaign {
            name: "multi",
            title: "Multi-fault campaign: degrade + link + retransmit + slowdown + failure",
            seed: 97,
            include_paper_plan: false,
            generated_trials: 4,
            spec: FaultSpec {
                degraded: 1,
                link_latency: 1,
                retransmit: 1,
                slowdown: 1,
                failures: 1,
            },
            sched_study: true,
        },
    ]
}

/// Look a campaign up by CLI name.
pub fn campaign(name: &str) -> Option<Campaign> {
    campaigns().into_iter().find(|c| c.name == name)
}

/// Scheduler-replay outcome of one trial.
#[derive(Debug, Clone)]
pub struct SchedOutcome {
    /// Makespan of the faulty day over the healthy day. Can dip below 1
    /// when abandoning an unplaceable hero job sheds work.
    pub makespan_ratio: f64,
    /// Jobs killed and requeued by node failures.
    pub requeued: usize,
    /// Jobs abandoned because the shrunken cluster could never hold them.
    pub abandoned: usize,
}

/// Everything one trial measured.
#[derive(Debug, Clone)]
pub struct TrialOutcome {
    /// The injected plan.
    pub plan: FaultPlan,
    /// Network-visible injected nodes (the detector's ground truth).
    pub injected: Vec<NodeId>,
    /// Top-|injected| nodes of the outlier ranking.
    pub detected: Vec<NodeId>,
    /// Whether detected == injected as sets — the fingerprint criterion.
    pub fingerprint_hit: bool,
    /// Worst per-node ping-pong bandwidth slowdown vs baseline (∞ for a
    /// hard-failed node).
    pub net_max_slowdown: f64,
    /// Mean slowdown over nodes with finite slowdown.
    pub net_mean_slowdown: f64,
    /// Worst per-node all-to-all drain stretch vs baseline.
    pub drain_slowdown: f64,
    /// Makespan stretch of an `mpisim` job laid out across the faulty
    /// nodes (compute + collectives + ptp), vs the same job healthy.
    pub job_slowdown: f64,
    /// Scheduler replay, when the campaign asks for it.
    pub sched: Option<SchedOutcome>,
}

fn healthy_network() -> Network<TofuD> {
    Network::new(TofuD::cte_arm(), LinkModel::tofud())
}

/// The Fig.-4 price of a pair: the bandwidth a 256 B ping-pong reports, in
/// GB/s. Below the 1 MiB noise threshold the measured time is the
/// deterministic one, so no noise is drawn; a failed endpoint reads 0.
fn map_price(net: &Network<TofuD>) -> impl Fn(NodeId, NodeId) -> f64 + '_ {
    let bytes = Bytes::new(PROBE_BYTES);
    move |s, r| (bytes / net.message_time(s, r, bytes)).as_gb_per_sec()
}

/// The drain price of a pair: one 64 KiB message's time, in seconds
/// (`+∞` through a failed endpoint).
fn drain_price(net: &Network<TofuD>) -> impl Fn(NodeId, NodeId) -> f64 + '_ {
    move |s, r| net.message_time(s, r, Bytes::new(DRAIN_BYTES)).value()
}

/// `table[sender][receiver]` over all `n` nodes, priced by `price`; the
/// diagonal (self-pairs) is 0 and not priced.
fn pair_table(n: usize, price: impl Fn(NodeId, NodeId) -> f64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|s| {
            (0..n)
                .map(|r| {
                    if s == r {
                        0.0
                    } else {
                        price(NodeId(s), NodeId(r))
                    }
                })
                .collect()
        })
        .collect()
}

/// Re-price the row and the column of each of `nodes` in `table` (their
/// sends and their receives) and return the number of messages priced.
fn reprice_pairs(
    table: &mut [Vec<f64>],
    nodes: &[NodeId],
    price: impl Fn(NodeId, NodeId) -> f64,
) -> u64 {
    let n = table.len();
    for &f in nodes {
        for o in (0..n).filter(|&o| o != f.index()) {
            table[f.index()][o] = price(f, NodeId(o));
            table[o][f.index()] = price(NodeId(o), f);
        }
    }
    (nodes.len() * 2 * (n - 1)) as u64
}

/// Per-node all-to-all drain times from a message-time table: for each
/// node, the time to serialize its sends to — and its receives from —
/// every live peer, whichever direction is slower. This is the paper's
/// all-to-all detection signature: a receive-degraded node drains its
/// *receive* side far slower than its sends, and every healthy node sees
/// one slow peer. Hard-failed nodes never drain (`+∞`); live nodes skip
/// dead peers, as MPI would after the fault is acked.
fn drains(times: &[Vec<f64>], failed: &[NodeId]) -> Vec<f64> {
    let n = times.len();
    let mut dead = vec![false; n];
    for f in failed {
        dead[f.index()] = true;
    }
    (0..n)
        .map(|s| {
            if dead[s] {
                return f64::INFINITY;
            }
            let (mut send, mut recv) = (0.0f64, 0.0f64);
            for r in (0..n).filter(|&r| r != s && !dead[r]) {
                send += times[s][r];
                recv += times[r][s];
            }
            send.max(recv)
        })
        .collect()
}

/// The healthy CTE-Arm baseline every F-series trial starts from.
struct Baseline {
    /// The fault-free network, pair table built; trials clone it.
    net: Network<TofuD>,
    /// The Fig.-4 map at 256 B, GB/s ([`map_price`]).
    map: Vec<Vec<f64>>,
    /// The 64 KiB message times, seconds ([`drain_price`]).
    times: Vec<Vec<f64>>,
    /// The map's per-node means.
    summary: PairMapSummary,
    /// The drains of `times`.
    drains: Vec<f64>,
}

impl Baseline {
    /// Build the baseline, its two tables through `ctx`'s cache, and
    /// return it with the messages this call priced (none for a table the
    /// cache already held).
    fn new(ctx: &Ctx) -> (Self, u64) {
        let net = healthy_network();
        net.routing_table();
        let n = net.topology().nodes();
        let mut priced = 0;
        let mut table = |workload: &str, params: &str, price: &dyn Fn(NodeId, NodeId) -> f64| {
            ctx.cache
                .get_or_persistent(CacheKey::new("CTE-Arm", workload, params), || {
                    priced += (n * (n - 1)) as u64;
                    pair_table(n, price)
                })
        };
        let map = table("faults-baseline-map", "msg=256B", &map_price(&net));
        let times = table("faults-baseline-drain", "msg=64KiB", &drain_price(&net));
        let base = Self {
            summary: summarize_map(&map),
            drains: drains(&times, &[]),
            net,
            map,
            times,
        };
        (base, priced)
    }
}

fn baseline_sched_makespan(ctx: &Ctx, seed: u64) -> f64 {
    ctx.cache.get_or_persistent(
        CacheKey::new("CTE-Arm", "faults-sched-baseline", format!("seed={seed}")),
        || {
            let alloc = Allocator::new(TofuD::cte_arm(), AllocationPolicy::BestFitContiguous, seed);
            let workload = WorkloadSpec::production_day(192).generate(seed);
            Scheduler::new(alloc, true).run(workload).1.makespan.value()
        },
    )
}

/// The `k` nodes with the largest `score`, largest first. Ties go to the
/// lower id, so the order is total and the selection unique: partition
/// the top `k` out, then sort only those.
fn top_k(score: &[f64], k: usize) -> Vec<NodeId> {
    let rank = |a: &usize, b: &usize| score[*b].total_cmp(&score[*a]).then(a.cmp(b));
    let mut order: Vec<usize> = (0..score.len()).collect();
    if k < order.len() {
        order.select_nth_unstable_by(k, rank);
        order.truncate(k);
    }
    order.sort_unstable_by(rank);
    order.into_iter().map(NodeId).collect()
}

/// Per-node ping-pong slowdowns vs baseline and the top-`k` outlier
/// ranking ([`top_k`]).
fn detect(base: &PairMapSummary, faulty: &PairMapSummary, k: usize) -> (Vec<NodeId>, Vec<f64>) {
    let n = faulty.rx_means.len();
    let slow: Vec<f64> = (0..n)
        .map(|i| {
            let rx = base.rx_means[i] / faulty.rx_means[i];
            let tx = base.tx_means[i] / faulty.tx_means[i];
            rx.max(tx)
        })
        .collect();
    (top_k(&slow, k), slow)
}

/// Lay a 4-node, 16-rank job across the faulty region (injected non-failed
/// nodes first, healthy filler after) and compare its makespan against the
/// identical job on the healthy network `clean`.
fn job_slowdown(plan: &FaultPlan, faulty_net: &Network<TofuD>, clean: &Network<TofuD>) -> f64 {
    let failed = plan.failed_nodes();
    let mut picked: Vec<NodeId> = Vec::new();
    let mut injected: Vec<usize> = plan
        .faults
        .iter()
        .filter(|f| !matches!(f, Fault::Failure { .. }))
        .map(|f| f.node().index())
        .collect();
    injected.sort_unstable();
    injected.dedup();
    for i in injected {
        if picked.len() < 4 && !failed.contains(&NodeId(i)) {
            picked.push(NodeId(i));
        }
    }
    let mut next = 0usize;
    while picked.len() < 4 {
        let n = NodeId(next);
        if !failed.contains(&n) && !picked.contains(&n) {
            picked.push(n);
        }
        next += 1;
    }
    picked.sort_unstable_by_key(|n| n.index());

    let machine = cte_arm();
    let compiler = Compiler::gnu_sve();
    let layout = || JobLayout::new(picked.clone(), 4, 12, machine.cores_per_node());
    let script = |net: &Network<TofuD>, jf: &JobFaults| {
        let mut job = Job::new(&machine, &compiler, net, layout(), 5)
            .with_imbalance(0.0)
            .with_faults(jf);
        job.compute(&KernelProfile::dp("phase", 1e9, 1e8));
        job.allreduce(Bytes::kib(64.0));
        job.alltoall(Bytes::kib(8.0));
        job.sendrecv(0, job.n_ranks() - 1, Bytes::kib(32.0));
        job.elapsed().value()
    };
    script(faulty_net, &JobFaults::from_plan(plan)) / script(clean, &JobFaults::none())
}

fn sched_outcome(ctx: &Ctx, campaign: &Campaign, plan: &FaultPlan) -> SchedOutcome {
    let base = baseline_sched_makespan(ctx, campaign.seed);
    let failures: Vec<NodeFailure> = plan
        .failed_nodes()
        .into_iter()
        .enumerate()
        .map(|(i, node)| NodeFailure {
            node,
            at: Time::seconds(20_000.0 + 7_000.0 * i as f64),
        })
        .collect();
    let alloc = Allocator::new(
        TofuD::cte_arm(),
        AllocationPolicy::BestFitContiguous,
        campaign.seed,
    );
    let workload = WorkloadSpec::production_day(192).generate(campaign.seed);
    let (_, stats) = Scheduler::new(alloc, true).run_with_failures(workload, failures);
    SchedOutcome {
        makespan_ratio: stats.makespan.value() / base,
        requeued: stats.requeued,
        abandoned: stats.abandoned,
    }
}

/// Run one trial: inject, probe, detect, and (optionally) replay the
/// scheduler. A pure function of `(campaign, plan)` and the baseline; also
/// returns the messages it priced.
fn run_trial(
    ctx: &Ctx,
    campaign: &Campaign,
    base: &Baseline,
    plan: &FaultPlan,
) -> (TrialOutcome, u64) {
    // The clone shares the baseline's built pair table.
    let net = plan.apply(base.net.clone());
    let faulted = net.faulted_nodes();
    let mut map = base.map.clone();
    let mut times = base.times.clone();
    let priced = reprice_pairs(&mut map, &faulted, map_price(&net))
        + reprice_pairs(&mut times, &faulted, drain_price(&net));
    let summary = summarize_map(&map);

    let injected = plan.injected_network_nodes();
    let (detected, slowdowns) = detect(&base.summary, &summary, injected.len());
    let mut detected_sorted: Vec<usize> = detected.iter().map(|n| n.index()).collect();
    detected_sorted.sort_unstable();
    let injected_sorted: Vec<usize> = injected.iter().map(|n| n.index()).collect();
    let fingerprint_hit = detected_sorted == injected_sorted;

    let finite: Vec<f64> = slowdowns
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .collect();
    let net_max_slowdown = slowdowns.iter().copied().fold(1.0_f64, f64::max);
    let net_mean_slowdown = finite.iter().sum::<f64>() / finite.len() as f64;

    let drain_slowdown = drains(&times, &net.failed_nodes())
        .iter()
        .zip(&base.drains)
        .map(|(f, b)| f / b)
        .fold(1.0_f64, f64::max);

    let job_slowdown = job_slowdown(plan, &net, &base.net);
    let sched = campaign
        .sched_study
        .then(|| sched_outcome(ctx, campaign, plan));

    let outcome = TrialOutcome {
        plan: plan.clone(),
        injected,
        detected,
        fingerprint_hit,
        net_max_slowdown,
        net_mean_slowdown,
        drain_slowdown,
        job_slowdown,
        sched,
    };
    (outcome, priced)
}

/// A finished campaign: the report table plus per-trial detail.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: &'static str,
    /// The report table (`fseries_<name>`), golden-snapshotted.
    pub table: Table,
    /// Per-trial outcomes, in trial order.
    pub trials: Vec<TrialOutcome>,
    /// Messages priced ([`Network::message_time`] calls) by the maps and
    /// drain tables: the baseline's when this run computed them, plus
    /// every trial's re-pricing. The `mpisim` job and the scheduler replay
    /// are not counted.
    pub messages_priced: u64,
}

impl CampaignReport {
    /// The table as an [`Artifact`] (text/CSV rendering).
    pub fn artifact(&self) -> Artifact {
        Artifact::Table(self.table.clone())
    }
}

fn hostnames(nodes: &[NodeId]) -> String {
    if nodes.is_empty() {
        return "-".into();
    }
    nodes
        .iter()
        .map(|&n| hostname(n))
        .collect::<Vec<_>>()
        .join("+")
}

/// Run a campaign's trials on up to `jobs` workers. The healthy baseline is
/// built once (its tables through `ctx`'s cache) and lent to every trial,
/// and the scheduler baseline is computed into `ctx` first, so trial
/// workers only ever take cache hits; the trials fan out through
/// [`run_indexed`], and the resulting table is byte-identical at any
/// `jobs` / thread count.
pub fn run_campaign(ctx: &Ctx, campaign: &Campaign, jobs: usize) -> CampaignReport {
    let (base, mut messages_priced) = Baseline::new(ctx);
    if campaign.sched_study {
        let _ = baseline_sched_makespan(ctx, campaign.seed);
    }

    let plans = campaign.plans();
    let (trials, priced): (Vec<TrialOutcome>, Vec<u64>) = run_indexed(plans.len(), jobs, |i| {
        run_trial(ctx, campaign, &base, &plans[i])
    })
    .into_iter()
    .unzip();
    messages_priced += priced.iter().sum::<u64>();

    let mut table = Table::new(
        format!("fseries_{}", campaign.name),
        format!("F-series fault campaign: {}", campaign.title),
        vec![
            "trial",
            "plan",
            "injected",
            "detected",
            "fingerprint",
            "net max slowdown",
            "net mean slowdown",
            "drain slowdown",
            "job slowdown",
            "sched makespan ratio",
            "requeued",
            "abandoned",
        ],
    );
    for (i, t) in trials.iter().enumerate() {
        let (sched_ratio, requeued, abandoned) = match &t.sched {
            Some(s) => (
                format!("{:.4}", s.makespan_ratio),
                s.requeued.to_string(),
                s.abandoned.to_string(),
            ),
            None => ("-".into(), "-".into(), "-".into()),
        };
        table.push_row(vec![
            i.to_string(),
            t.plan.describe(),
            hostnames(&t.injected),
            hostnames(&t.detected),
            if t.fingerprint_hit { "HIT" } else { "MISS" }.to_string(),
            format!("{:.4}", t.net_max_slowdown),
            format!("{:.4}", t.net_mean_slowdown),
            format!("{:.4}", t.drain_slowdown),
            format!("{:.4}", t.job_slowdown),
            sched_ratio,
            requeued,
            abandoned,
        ]);
    }
    CampaignReport {
        name: campaign.name,
        table,
        trials,
        messages_priced,
    }
}

// ---------------------------------------------------------------------------
// Machine-scale smoke campaign (full Fugaku, 158 976 nodes).
//
// The F-series campaigns above lean on the O(n²) Fig.-4 pairwise map —
// fine at CTE-Arm's 192 nodes, unrunnable at Fugaku scale, where the map
// alone would be 2.5 × 10¹⁰ probes and a dense all-pairs table ~100 GB.
// The scale campaign replaces both:
//
// * routes resolve through the network's symmetry-folded pair table
//   (< 10 MB for the full machine);
// * machine-wide traffic statistics come from the closed-form sweeps in
//   `interconnect::sweep`;
// * detection runs an O(n) probe battery — every node pings three
//   partners at fixed coordinate offsets — and fingerprints faults by each
//   node's **median** probe slowdown over its six (3 tx + 3 rx) probes.
//   The median is what makes O(n) coverage safe: a healthy partner of a
//   faulty node sees at most one bad probe out of six, so its median stays
//   at 1.0, while a faulty node degrades at least half of its own probes.
// ---------------------------------------------------------------------------

/// Full-Fugaku TofuD shape: 24 × 23 × 24 units of 2 × 3 × 2 nodes.
pub const FUGAKU_DIMS: [usize; 6] = [24, 23, 24, 2, 3, 2];

/// The full-Fugaku torus: 158 976 nodes.
pub fn fugaku_topo() -> TofuD {
    TofuD::with_dims(FUGAKU_DIMS, [true, true, true, false, true, false])
}

/// Probes each node initiates in the scale battery.
const SCALE_PROBES: usize = 3;

/// Fault mix of every scale trial.
const SCALE_SPEC: FaultSpec = FaultSpec {
    degraded: 2,
    link_latency: 1,
    retransmit: 1,
    slowdown: 0,
    failures: 2,
};

/// Fixed partner offsets: near neighbour, antipode, and an off-axis point
/// in between. Identical for baseline and faulty batteries, so per-probe
/// slowdown ratios are well defined.
fn probe_offsets(n: usize) -> [usize; SCALE_PROBES] {
    assert!(n >= 8, "scale battery needs at least 8 nodes, got {n}");
    [1, n / 2, n / 2 + n / 4]
}

/// Bandwidth of the probe node `s` sends to `(s + o) % n`; zero through a
/// failed endpoint (the transfer never completes).
fn probe_bw(net: &Network<TofuD>, n: usize, s: usize, o: usize) -> f64 {
    let t = net
        .message_time(NodeId(s), NodeId((s + o) % n), Bytes::new(PROBE_BYTES))
        .value();
    if t.is_finite() {
        PROBE_BYTES / t
    } else {
        0.0
    }
}

/// Per-probe bandwidths, `bw[s * SCALE_PROBES + j]` for the probe node `s`
/// sends to `(s + offsets[j]) % n`.
fn probe_battery(net: &Network<TofuD>) -> Vec<f64> {
    let n = net.topology().nodes();
    let offs = probe_offsets(n);
    let mut bw = vec![0.0; n * SCALE_PROBES];
    // Each node's row is written by that node's probes alone.
    bw.par_chunks_mut(SCALE_PROBES)
        .enumerate()
        .for_each(|(s, row)| {
            for (cell, &o) in row.iter_mut().zip(&offs) {
                *cell = probe_bw(net, n, s, o);
            }
        });
    bw
}

/// Re-price, in a copy of the healthy battery, the probes each of `nodes`
/// sends and receives on `net`, and return the number priced.
fn reprice_probes(bw: &mut [f64], net: &Network<TofuD>, nodes: &[NodeId]) -> u64 {
    let n = net.topology().nodes();
    for &f in nodes {
        for (j, &o) in probe_offsets(n).iter().enumerate() {
            let (sent, src) = (f.index(), (f.index() + n - o) % n);
            bw[sent * SCALE_PROBES + j] = probe_bw(net, n, sent, o);
            bw[src * SCALE_PROBES + j] = probe_bw(net, n, src, o);
        }
    }
    (nodes.len() * 2 * SCALE_PROBES) as u64
}

/// Each node's median slowdown over its six probes (3 sent + 3 received),
/// then the top-`k` outliers ([`top_k`]). A node with zero
/// faulty bandwidth on a majority of probes medians to `+∞`.
fn scale_detect(base: &[f64], faulty: &[f64], n: usize, k: usize) -> (Vec<NodeId>, Vec<f64>) {
    let offs = probe_offsets(n);
    let slow: Vec<f64> = (0..n)
        .map(|i| {
            let mut ratios = [0.0f64; 2 * SCALE_PROBES];
            for j in 0..SCALE_PROBES {
                let tx = i * SCALE_PROBES + j;
                let src = ((i + n - offs[j]) % n) * SCALE_PROBES + j;
                ratios[j] = base[tx] / faulty[tx];
                ratios[SCALE_PROBES + j] = base[src] / faulty[src];
            }
            ratios.sort_unstable_by(f64::total_cmp);
            // Upper median: robust to one-sided (rx-only) faults, which
            // leave the three tx ratios at 1.0.
            ratios[SCALE_PROBES]
        })
        .collect();
    (top_k(&slow, k), slow)
}

/// One scale trial's outcome.
#[derive(Debug, Clone)]
pub struct ScaleTrial {
    /// The injected plan.
    pub plan: FaultPlan,
    /// Network-visible injected nodes (ground truth), id order.
    pub injected: Vec<NodeId>,
    /// Top-|injected| nodes of the median-slowdown ranking, rank order.
    pub detected: Vec<NodeId>,
    /// Whether detected == injected as sets.
    pub fingerprint_hit: bool,
    /// Worst finite median slowdown across all nodes.
    pub max_finite_slowdown: f64,
    /// Nodes whose median slowdown is infinite (hard failures).
    pub infinite_slowdowns: usize,
}

/// A finished scale campaign: machine-wide closed-form statistics plus the
/// per-trial fingerprint table.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Nodes in the machine.
    pub nodes: usize,
    /// Resident bytes of the network's pair table (folded on TofuD).
    pub table_bytes: usize,
    /// Wall time to build the pair table, milliseconds.
    pub table_build_ms: f64,
    /// Wall time of the closed-form uniform-traffic sweep, milliseconds.
    pub sweep_ms: f64,
    /// `(max, mean)` directed-link load under uniform all-pairs traffic.
    pub link_load: (f64, f64),
    /// Mean pairwise hop distance over the whole machine.
    pub mean_hops: f64,
    /// Probe messages priced ([`Network::message_time`] calls): the
    /// healthy battery once, then each trial's re-pricing.
    pub messages_priced: u64,
    /// Per-trial outcomes.
    pub trials: Vec<ScaleTrial>,
    /// The report table (`fseries_scale_<n>`).
    pub table: Table,
}

/// Run the machine-scale fault campaign on `topo`: closed-form sweep,
/// folded-table probe batteries, and `generated_trials` seed-derived fault
/// plans. Each trial starts from a copy of the healthy battery and
/// re-prices only the probes its faulted nodes send and receive — 36 of
/// 476,928 at full Fugaku — while the detector still reads every node.
/// Everything is deterministic in `(topo, generated_trials, seed)`.
pub fn run_scale_campaign(topo: TofuD, generated_trials: usize, seed: u64) -> ScaleReport {
    use std::time::Instant;
    let n = topo.nodes();

    let t0 = Instant::now();
    let link_load = interconnect::sweep::uniform_link_load(&topo);
    let mean_hops = interconnect::sweep::uniform_mean_hops(&topo);
    let sweep_ms = t0.elapsed().as_secs_f64() * 1e3;

    let base_net = Network::new(topo.clone(), LinkModel::tofud());
    let t1 = Instant::now();
    let table = base_net
        .routing_table()
        .expect("TofuD networks fold their pair table");
    let table_build_ms = t1.elapsed().as_secs_f64() * 1e3;
    let table_bytes = table.memory_bytes();
    // Re-pricing a trial's faulted nodes is exact only against a battery
    // with no faults of its own.
    assert!(
        base_net.faulted_nodes().is_empty(),
        "the base network is healthy"
    );
    let base_bw = probe_battery(&base_net);
    let mut messages_priced = base_bw.len() as u64;

    let trials: Vec<ScaleTrial> = (0..generated_trials)
        .map(|i| {
            let plan =
                FaultPlan::generate(format!("scale-{i}"), n, &SCALE_SPEC, trial_seed(seed, i));
            // The clone shares the base network's built pair table.
            let net = plan.apply(base_net.clone());
            let mut bw = base_bw.clone();
            messages_priced += reprice_probes(&mut bw, &net, &net.faulted_nodes());
            let injected = plan.injected_network_nodes();
            let (detected, slow) = scale_detect(&base_bw, &bw, n, injected.len());
            let mut detected_sorted: Vec<usize> = detected.iter().map(|d| d.index()).collect();
            detected_sorted.sort_unstable();
            let injected_sorted: Vec<usize> = injected.iter().map(|d| d.index()).collect();
            ScaleTrial {
                fingerprint_hit: detected_sorted == injected_sorted,
                max_finite_slowdown: slow
                    .iter()
                    .copied()
                    .filter(|v| v.is_finite())
                    .fold(1.0_f64, f64::max),
                infinite_slowdowns: slow.iter().filter(|v| v.is_infinite()).count(),
                plan,
                injected,
                detected,
            }
        })
        .collect();

    let ids = |nodes: &[NodeId]| {
        nodes
            .iter()
            .map(|d| d.index().to_string())
            .collect::<Vec<_>>()
            .join("+")
    };
    let mut table = Table::new(
        format!("fseries_scale_{n}"),
        format!("Machine-scale fault campaign: {n} nodes, folded pair table, O(n) probe battery"),
        vec![
            "trial",
            "plan",
            "injected",
            "detected",
            "fingerprint",
            "max finite slowdown",
            "failed medians",
        ],
    );
    for (i, t) in trials.iter().enumerate() {
        table.push_row(vec![
            i.to_string(),
            t.plan.describe(),
            ids(&t.injected),
            ids(&t.detected),
            if t.fingerprint_hit { "HIT" } else { "MISS" }.to_string(),
            format!("{:.4}", t.max_finite_slowdown),
            t.infinite_slowdowns.to_string(),
        ]);
    }
    ScaleReport {
        nodes: n,
        table_bytes,
        table_build_ms,
        sweep_ms,
        link_load,
        mean_hops,
        messages_priced,
        trials,
        table,
    }
}

/// The full-Fugaku smoke campaign: two generated trials at 158 976 nodes.
pub fn run_fugaku_smoke() -> ScaleReport {
    run_scale_campaign(fugaku_topo(), 2, 11)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_plans_deterministic() {
        let names: Vec<&str> = campaigns().iter().map(|c| c.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        for c in campaigns() {
            let a: Vec<String> = c.plans().iter().map(|p| p.describe()).collect();
            let b: Vec<String> = c.plans().iter().map(|p| p.describe()).collect();
            assert_eq!(a, b, "{}: plans must be reproducible", c.name);
            assert!(!a.is_empty());
        }
        assert!(campaign("smoke").is_some());
        assert!(campaign("nope").is_none());
    }

    #[test]
    fn paper_trial_fingerprints_arms0b1_11c() {
        let ctx = Ctx::new();
        let c = campaign("smoke").expect("registered");
        let plan = paper_plan();
        let (base, _) = Baseline::new(&ctx);
        let (t, priced) = run_trial(&ctx, &c, &base, &plan);
        // One faulted node: its row and column, in the map and the drains.
        assert_eq!(priced, 2 * 2 * 191);
        assert_eq!(t.injected, vec![DEGRADED_NODE]);
        assert_eq!(t.detected, vec![DEGRADED_NODE]);
        assert!(t.fingerprint_hit);
        assert!(t.net_max_slowdown > 2.0, "8% rx is a loud outlier");
        assert!(t.drain_slowdown > 1.5);
        assert!(t.job_slowdown >= 1.0);
    }

    #[test]
    fn smoke_campaign_hits_on_every_trial() {
        let ctx = Ctx::new();
        let report = run_campaign(&ctx, &campaign("smoke").expect("registered"), 1);
        assert_eq!(report.trials.len(), 2);
        for (i, t) in report.trials.iter().enumerate() {
            assert!(t.fingerprint_hit, "trial {i} must fingerprint its nodes");
            assert_eq!(report.table.cell(i, "fingerprint"), Some("HIT"));
        }
        // The generated trial carries a hard failure: the scheduler replay
        // must report it without wedging.
        let t1 = &report.trials[1];
        assert_eq!(t1.plan.failed_nodes().len(), 1);
        assert!(t1.sched.is_some());
        assert!(t1.net_max_slowdown.is_infinite(), "failed node never talks");
    }

    #[test]
    fn scale_campaign_fingerprints_at_thousands_of_nodes() {
        // Mid-scale stand-in for the Fugaku run (debug builds exercise the
        // machinery here; the release CLI runs the full machine).
        let topo = TofuD::with_dims([6, 6, 6, 2, 3, 2], [true, true, true, false, true, false]);
        let report = run_scale_campaign(topo, 2, 11);
        assert_eq!(report.nodes, 2592);
        // The table itself is pinned, plans and fingerprints alike.
        let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/golden/scale/fseries_scale_2592.csv");
        let want =
            std::fs::read_to_string(&golden).expect("tests/golden/scale/fseries_scale_2592.csv");
        assert_eq!(
            report.table.to_csv(),
            want,
            "2,592-node campaign table drifted"
        );
        // The healthy battery once, then 3 sent + 3 received probes for each
        // trial's 6 faulted nodes.
        assert_eq!(report.messages_priced, 2592 * 3 + 2 * 6 * 6);
        for (i, t) in report.trials.iter().enumerate() {
            assert!(t.fingerprint_hit, "trial {i} must fingerprint its nodes");
            assert_eq!(t.injected.len(), 6);
            assert_eq!(t.infinite_slowdowns, 2, "two hard failures median to ∞");
            assert!(t.max_finite_slowdown > 1.0);
        }
        // The battery rides the folded table, never the dense one: memory
        // stays linear in offset classes, not quadratic in nodes.
        assert!(
            report.table_bytes < report.nodes * report.nodes,
            "pair table ({} B) must be far below dense O(n²)",
            report.table_bytes
        );
        let (max, mean) = report.link_load;
        assert!(max > mean && mean > 0.0);
        assert!(report.mean_hops > 1.0);
    }

    #[test]
    fn faulted_clone_shares_the_table_and_prices_like_a_fresh_network() {
        let topo = TofuD::with_dims([6, 6, 6, 2, 3, 2], [true, true, true, false, true, false]);
        let n = topo.nodes();
        let base = Network::new(topo.clone(), LinkModel::tofud());
        let table = base.routing_table().expect("TofuD folds its pair table");
        let plan = FaultPlan::generate("shared", n, &SCALE_SPEC, trial_seed(11, 0));
        let clone = plan.apply(base.clone());
        let shared = clone
            .table_if_built()
            .expect("the clone starts with the table");
        assert!(std::ptr::eq(shared, table), "shared, not copied");
        let fresh = plan.apply(Network::new(topo, LinkModel::tofud()));
        assert!(fresh.table_if_built().is_none());
        let (via_clone, via_fresh) = (probe_battery(&clone), probe_battery(&fresh));
        assert_eq!(via_clone.len(), n * SCALE_PROBES);
        for (i, (a, b)) in via_clone.iter().zip(&via_fresh).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "probe {i}");
        }
        assert!(
            via_clone.contains(&0.0),
            "the plan's failed nodes answer no probe"
        );
    }

    #[test]
    fn scale_campaign_is_deterministic() {
        let topo = || TofuD::with_dims([4, 4, 4, 2, 3, 2], [true, true, true, false, true, false]);
        let a = run_scale_campaign(topo(), 1, 3).table.to_csv();
        let b = run_scale_campaign(topo(), 1, 3).table.to_csv();
        assert_eq!(a, b);
    }

    #[test]
    fn probe_battery_is_clean_on_a_healthy_machine() {
        let topo = TofuD::cte_arm();
        let n = topo.nodes();
        let net = Network::new(topo, LinkModel::tofud());
        let bw = probe_battery(&net);
        assert!(bw.iter().all(|&b| b > 0.0));
        let (detected, slow) = scale_detect(&bw, &bw, n, 3);
        assert!(slow.iter().all(|&s| s == 1.0));
        // Ties broken by id: the "outliers" of a healthy machine are just
        // the first ids.
        assert_eq!(detected, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn drains_flag_the_degraded_receiver() {
        let bad = NodeId(18);
        let net = healthy_network().with_degraded_node(bad, Degradation::receive_fault(0.08));
        let drains = drains(&pair_table(192, drain_price(&net)), &net.failed_nodes());
        assert_eq!(drains.len(), 192);
        let worst = drains
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(worst, bad.index(), "receive-degraded node drains slowest");
    }

    #[test]
    fn failed_nodes_never_drain_and_peers_skip_them() {
        let dead = NodeId(40);
        let net = healthy_network().with_failed_node(dead);
        let drains = drains(&pair_table(192, drain_price(&net)), &net.failed_nodes());
        assert!(drains[dead.index()].is_infinite());
        // Every live node still drains in finite time (dead peer skipped).
        for (i, d) in drains.iter().enumerate() {
            if i != dead.index() {
                assert!(d.is_finite(), "node {i} must skip the dead peer");
            }
        }
    }

    /// A generated plan with every fault kind (`counts`: degraded, link,
    /// retransmit, slowdown, failures), plus a second fault on its first
    /// node and a neutral `Degrade` of 1.0 on node `extra % n`.
    fn mixed_plan(n: usize, seed: u64, counts: [usize; 5], extra: usize) -> FaultPlan {
        let [degraded, link_latency, retransmit, slowdown, failures] = counts;
        let spec = FaultSpec {
            degraded,
            link_latency,
            retransmit,
            slowdown,
            failures,
        };
        let plan = FaultPlan::generate("mixed", n, &spec, seed);
        let twice = plan.faults[0].node();
        plan.with(Fault::Retransmit {
            node: twice,
            drop_prob: 0.2,
            timeout: Time::micros(30.0),
        })
        .with(Fault::Degrade {
            node: NodeId(extra % n),
            degradation: Degradation::new(1.0, 1.0),
        })
    }

    fn assert_bits_eq<'a>(
        got: impl IntoIterator<Item = &'a f64>,
        want: impl IntoIterator<Item = &'a f64>,
        what: &str,
    ) {
        for (i, (g, w)) in got.into_iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: cell {i}: {g} vs {w}");
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// Re-pricing the healthy tables and battery at the faulted nodes
        /// equals pricing everything again on the faulted network, bit for
        /// bit: the map and drain tables on CTE-Arm, the probe battery on
        /// CTE-Arm and on the 2,592-node torus.
        #[test]
        fn repricing_matches_a_full_recomputation(
            seed in 0u64..u64::MAX,
            counts in (1usize..3, 1usize..3, 1usize..3, 0usize..2, 1usize..3),
            extra in 0usize..100_000,
        ) {
            let counts = [counts.0, counts.1, counts.2, counts.3, counts.4];
            let base = healthy_network();
            base.routing_table();
            let net = mixed_plan(192, seed, counts, extra).apply(base.clone());
            let faulted = net.faulted_nodes();
            prop_assert!(!net.failed_nodes().is_empty());

            let mut map = pair_table(192, map_price(&base));
            reprice_pairs(&mut map, &faulted, map_price(&net));
            let want = pair_table(192, map_price(&net));
            assert_bits_eq(map.iter().flatten(), want.iter().flatten(), "map");

            let mut times = pair_table(192, drain_price(&base));
            reprice_pairs(&mut times, &faulted, drain_price(&net));
            let want = pair_table(192, drain_price(&net));
            assert_bits_eq(times.iter().flatten(), want.iter().flatten(), "drain times");

            let torus = TofuD::with_dims([6, 6, 6, 2, 3, 2], [true, true, true, false, true, false]);
            for base in [base, Network::new(torus, LinkModel::tofud())] {
                let n = base.topology().nodes();
                let net = mixed_plan(n, seed, counts, extra).apply(base.clone());
                let mut bw = probe_battery(&base);
                let priced = reprice_probes(&mut bw, &net, &net.faulted_nodes());
                prop_assert_eq!(priced, (net.faulted_nodes().len() * 6) as u64);
                assert_bits_eq(&bw, &probe_battery(&net), "battery");
            }
        }

        /// The partitioned top-k is the full sort's first k.
        #[test]
        fn top_k_is_the_head_of_a_full_sort(seed in 0u64..u64::MAX, k in 0usize..40) {
            let mut rng = simkit::rng::Pcg32::seeded(seed);
            // Few distinct values, so ties are common.
            let score: Vec<f64> = (0..32).map(|_| f64::from(rng.next_below(6))).collect();
            let mut order: Vec<usize> = (0..score.len()).collect();
            order.sort_by(|&a, &b| score[b].total_cmp(&score[a]).then(a.cmp(&b)));
            let want: Vec<NodeId> = order.into_iter().take(k).map(NodeId).collect();
            prop_assert_eq!(top_k(&score, k), want);
        }
    }

    #[test]
    fn campaign_is_byte_identical_across_jobs() {
        let c = campaign("smoke").expect("registered");
        let csv = |jobs: usize| {
            let ctx = Ctx::new();
            run_campaign(&ctx, &c, jobs).table.to_csv()
        };
        let one = csv(1);
        assert_eq!(one, csv(2));
        assert_eq!(one, csv(8));
    }
}
