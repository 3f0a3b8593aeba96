//! `regen`: repeated cold passes that regenerate every committed artifact.
//!
//! A pass is what reproducing the paper costs a user: the 20 paper
//! artifacts and the 7 extensions through the experiment engine on one
//! worker thread, the `smoke`, `degraded` and `multi` fault campaigns, and
//! the full-Fugaku fault smoke, all on a fresh [`Ctx`]. Every pass is
//! checked against the committed goldens, so a speed change that moves a
//! single simulated byte shows as a failure, not as a gain.
//!
//! Traced, a pass is a root span `regen` holding one `engine` span around
//! the engine call, with an `experiments.<id>` span per experiment inside
//! it, and one `faults.<name>` span per campaign.

use crate::stats::{median, Outcome};
use crate::trace::{Scope, SpanId, Tracer};
use crate::Budget;
use cluster_eval::engine::{run_experiments, Ctx};
use cluster_eval::experiments::{all_experiments, Artifact, Experiment};
use cluster_eval::extensions::extension_experiments;
use cluster_eval::faults::{campaign, run_campaign, run_fugaku_smoke};
use cluster_eval::validation;
use simkit::cache::TierCounters;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const CAMPAIGNS: [&str; 3] = ["smoke", "degraded", "multi"];
const FUGAKU_SMOKE: &str = "fugaku-smoke";
/// Passes measured even when `--seconds` is shorter than they take.
const MIN_PASSES: usize = 3;

/// Outputs of one pass: every experiment, every campaign and the
/// fugaku-smoke table.
fn artifacts_per_pass() -> usize {
    registry().len() + CAMPAIGNS.len() + 1
}

/// The paper artifacts followed by the extensions, in report order.
fn registry() -> Vec<Experiment> {
    let mut all = all_experiments();
    all.extend(extension_experiments());
    all
}

/// Everything one pass produced, rendered for checking.
struct Pass {
    wall_s: f64,
    /// `(id, csv)` per experiment, registry order.
    artifacts: Vec<(&'static str, String)>,
    /// `(name, csv)` per campaign.
    campaigns: Vec<(&'static str, String)>,
    /// Fugaku-smoke trials that fingerprinted their injected nodes, of all.
    fugaku_hits: (usize, usize),
    counters: TierCounters,
}

/// The traced pass in progress, read by [`spanned`]: its tracer, engine
/// span and request id.
static TRACED_PASS: Mutex<Option<(Arc<Tracer>, SpanId, u64)>> = Mutex::new(None);

/// Registry entry `I`'s `run`, inside a span `experiments.<id>` under the
/// engine span. `Experiment::run` is a plain `fn`, so a wrapper cannot
/// capture the tracer; it finds it in [`TRACED_PASS`].
fn spanned<const I: usize>(ctx: &Ctx) -> Artifact {
    let (tracer, engine, request) = TRACED_PASS
        .lock()
        .expect("traced-pass lock")
        .clone()
        .expect("a traced pass is in progress");
    let exp = &registry()[I];
    tracer.span(
        format!("experiments.{}", exp.id),
        Some(engine),
        request,
        || (exp.run)(ctx),
    )
}

/// One [`spanned`] per registry slot.
#[rustfmt::skip]
const SPANNED: [fn(&Ctx) -> Artifact; 32] = [
    spanned::<0>, spanned::<1>, spanned::<2>, spanned::<3>, spanned::<4>, spanned::<5>,
    spanned::<6>, spanned::<7>, spanned::<8>, spanned::<9>, spanned::<10>, spanned::<11>,
    spanned::<12>, spanned::<13>, spanned::<14>, spanned::<15>, spanned::<16>, spanned::<17>,
    spanned::<18>, spanned::<19>, spanned::<20>, spanned::<21>, spanned::<22>, spanned::<23>,
    spanned::<24>, spanned::<25>, spanned::<26>, spanned::<27>, spanned::<28>, spanned::<29>,
    spanned::<30>, spanned::<31>,
];

/// One pass on a fresh context. A traced pass hands the engine the same
/// registry in one `run_experiments(_, 1, _)` call, each `run` wrapped in
/// its span, so the engine schedules, spawns and collects exactly as in an
/// untraced pass, and its own work stays in the engine span's self time.
fn run_pass(tracer: Option<(&Arc<Tracer>, u64)>) -> Pass {
    let t0 = Instant::now();
    let scope = Scope::open(tracer.map(|(t, r)| (&**t, r)), "regen");
    let ctx = Ctx::new();
    let reports = match tracer.zip(scope.traced()) {
        None => run_experiments(registry(), 1, &ctx),
        Some(((tracer, request), (_, pass))) => {
            let registry = registry();
            assert!(registry.len() <= SPANNED.len(), "registry outgrew SPANNED");
            let engine = tracer.begin("engine", Some(pass), request);
            *TRACED_PASS.lock().expect("traced-pass lock") =
                Some((Arc::clone(tracer), engine, request));
            let wrapped = registry
                .into_iter()
                .zip(SPANNED)
                .map(|(e, run)| Experiment { run, ..e })
                .collect();
            let reports = run_experiments(wrapped, 1, &ctx);
            *TRACED_PASS.lock().expect("traced-pass lock") = None;
            tracer.end(engine);
            reports
        }
    };
    let campaigns: Vec<_> = CAMPAIGNS
        .iter()
        .map(|&name| {
            let c = campaign(name).expect("registered campaign");
            scope.child(format!("faults.{name}"), || run_campaign(&ctx, &c, 1))
        })
        .collect();
    let scale = scope.child(format!("faults.{FUGAKU_SMOKE}"), run_fugaku_smoke);
    scope.close();
    let wall_s = t0.elapsed().as_secs_f64();

    Pass {
        wall_s,
        artifacts: reports
            .iter()
            .map(|r| (r.id, r.artifact.to_csv()))
            .collect(),
        campaigns: campaigns
            .iter()
            .map(|c| (c.name, c.table.to_csv()))
            .collect(),
        fugaku_hits: (
            scale.trials.iter().filter(|t| t.fingerprint_hit).count(),
            scale.trials.len(),
        ),
        counters: ctx.cache.counters(),
    }
}

/// The committed goldens every pass must reproduce byte for byte.
pub struct Setup {
    /// `(id, csv)` of the paper artifacts.
    paper: Vec<(&'static str, String)>,
    /// `(name, csv)` of the campaigns.
    campaigns: Vec<(&'static str, String)>,
    /// The warm-up pass, whose extensions later passes must equal.
    first: Pass,
}

/// Load the goldens and run one warm-up pass.
pub fn setup(root: &Path) -> Result<Setup, String> {
    let golden = root.join("tests/golden");
    let read = |p: std::path::PathBuf| {
        std::fs::read_to_string(&p).map_err(|e| format!("reading {}: {e}", p.display()))
    };
    let paper = all_experiments()
        .iter()
        .map(|e| Ok((e.id, read(golden.join(format!("{}.csv", e.id)))?)))
        .collect::<Result<_, String>>()?;
    let campaigns = CAMPAIGNS
        .iter()
        .map(|&n| Ok((n, read(golden.join(format!("faults/fseries_{n}.csv")))?)))
        .collect::<Result<_, String>>()?;
    Ok(Setup {
        paper,
        campaigns,
        first: run_pass(None),
    })
}

/// Check one pass: goldens for the paper artifacts and campaigns,
/// first-pass equality for the extensions, fugaku-smoke fingerprints, and
/// the same cache traffic as the first pass.
fn check(out: &mut Outcome, s: &Setup, pass: &Pass) {
    for (id, csv) in &pass.artifacts {
        let want = s
            .paper
            .iter()
            .chain(&s.first.artifacts)
            .find(|(g, _)| g == id)
            .map(|(_, c)| c);
        out.check(want == Some(csv), || {
            format!("artifact {id} differs from its reference")
        });
    }
    for ((name, csv), (_, want)) in pass.campaigns.iter().zip(&s.campaigns) {
        out.check(csv == want, || {
            format!("campaign {name} differs from its golden")
        });
    }
    let (hits, trials) = pass.fugaku_hits;
    out.check(hits == trials && trials > 0, || {
        format!("fugaku-smoke fingerprinted {hits} of {trials} trials")
    });
    out.check(pass.counters == s.first.counters, || {
        format!(
            "cache traffic {:?} differs from the first pass {:?}",
            pass.counters, s.first.counters
        )
    });
}

/// Measure passes for the window. Untraced, report the median pass and
/// the artifacts a pass regenerates per second; traced, alternate untraced
/// and traced passes and report the exact counts and the tracing overhead.
pub fn run(s: Setup, budget: &Budget, tracer: Option<&Arc<Tracer>>) -> Outcome {
    let mut out = Outcome::default();
    check(&mut out, &s, &s.first);
    let (mut plain, mut traced_walls) = (Vec::new(), Vec::new());
    while budget.more(plain.len(), MIN_PASSES) {
        let pass = run_pass(None);
        check(&mut out, &s, &pass);
        plain.push(pass.wall_s);
        if let Some(t) = tracer {
            let pass = run_pass(Some((t, traced_walls.len() as u64)));
            check(&mut out, &s, &pass);
            traced_walls.push(pass.wall_s);
        }
    }

    let checks = validation::checks();
    let failing = checks.iter().filter(|c| !c.passes()).count();
    out.tally(checks.len() as u64, failing as u64);
    for c in checks.iter().filter(|c| !c.passes()) {
        eprintln!("FAILED: ledger anchor {} / {}", c.artifact, c.quantity);
    }

    let passes = plain.len();
    let mut rates: Vec<f64> = plain
        .iter()
        .map(|w| artifacts_per_pass() as f64 / w)
        .collect();
    let pass_ms = median(&mut plain) * 1e3;
    if tracer.is_none() {
        out.push("op_p50_ms", pass_ms, "ms", passes);
        out.push("work_per_s", median(&mut rates), "1/s", passes);
        return out;
    }
    let traced_ms = median(&mut traced_walls) * 1e3;
    out.push("trace.op_ms", traced_ms, "ms", traced_walls.len());
    out.push(
        "trace.overhead_pct",
        100.0 * (traced_ms - pass_ms) / pass_ms,
        "%",
        traced_walls.len(),
    );
    let c = s.first.counters;
    out.push("regen.cache_misses", c.misses as f64, "count", 1);
    out.push("regen.cache_mem_hits", c.mem_hits as f64, "count", 1);
    let dev = checks.iter().map(|c| c.deviation().abs()).sum::<f64>() / checks.len() as f64;
    out.push("regen.anchors", checks.len() as f64, "count", 1);
    out.push("regen.anchors_failing", failing as f64, "count", 1);
    out.push("regen.anchor_dev_pct", dev * 100.0, "%", checks.len());
    out
}
