//! `whatif`: one closed-loop client sending a seeded stream of what-if
//! requests through `serve::respond`, first cold, then warm.
//!
//! Set-up runs the cold session: it creates an empty store, sends every
//! request (each of its queries is an engine miss) and flushes the index.
//! The timed operations are the requests of warm sessions: each reopens
//! the store under a fresh [`Ctx`], so every query is a disk-tier hit.
//! Both phases go through the same `simkit::store` layer, one writing (in
//! `setup_s`) and one reading (in the timed metrics), so a change that
//! helps one at the other's cost shows on this workload.
//!
//! Traced, a session is a root span `cold` or `warm` holding `store.open`,
//! one `serve.respond` per request and `store.flush`; each `serve.respond`
//! holds `json.parse`, `serve.validate` and one `serve.answer_<tier>` per
//! query.

use crate::stats::{median, Outcome};
use crate::trace::{Scope, SpanId, Tracer};
use crate::Budget;
use cluster_eval::engine::{run_indexed, Ctx};
use cluster_eval::json::{self, Value};
use cluster_eval::serve::{open_store, respond, Query};
use simkit::cache::{Cache, TierCounters};
use simkit::rng::Pcg32;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Rounds of the stream: each round sends one request per way of choosing
/// 5 of the 7 apps, so two rounds give 42 requests and 210 queries. The
/// cold session is set-up and runs in every set-up process; two rounds
/// keep it at a few seconds.
const ROUNDS: usize = 2;
/// Distinct queries (and apps) per request.
const PER_REQUEST: usize = 5;
/// Worker threads `respond` fans each request out to.
const JOBS: usize = 2;
/// Warm sessions measured even when `--seconds` is already spent.
const MIN_WARM_SESSIONS: usize = 3;
const APPS: [&str; 7] = ["alya", "nemo", "wrf", "openifs", "gromacs", "hpl", "hpcg"];
const MACHINES: [&str; 2] = ["cte-arm", "mn4"];
/// The paper's node-count range (CTE-Arm has 192 nodes).
const MAX_NODES: u32 = 192;

/// One query of the stream, as it goes on the wire.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Draw {
    app: &'static str,
    machine: &'static str,
    nodes: u32,
    /// WRF only: with history output.
    io: bool,
    /// HPCG only: `vanilla` or `optimized`.
    version: &'static str,
}

impl Draw {
    /// The model variants of an app: WRF with and without I/O, both HPCG
    /// versions, one for the rest.
    fn variants(app: &'static str, machine: &'static str) -> Vec<Draw> {
        let base = Draw {
            app,
            machine,
            nodes: 0,
            io: false,
            version: "",
        };
        match app {
            "wrf" => vec![base.clone(), Draw { io: true, ..base }],
            "hpcg" => ["vanilla", "optimized"]
                .iter()
                .map(|&version| Draw {
                    version,
                    ..base.clone()
                })
                .collect(),
            _ => vec![base],
        }
    }

    fn to_json(&self) -> String {
        let extra = match self.app {
            "wrf" => format!(",\"io\":{}", self.io),
            "hpcg" => format!(",\"version\":\"{}\"", self.version),
            _ => String::new(),
        };
        format!(
            "{{\"app\":\"{}\",\"machine\":\"{}\",\"nodes\":{}{extra}}}",
            self.app, self.machine, self.nodes
        )
    }

    /// The mix label: app plus the variant that changes the model.
    fn variant(&self) -> String {
        match self.app {
            "wrf" if self.io => "wrf+io".into(),
            "hpcg" => format!("hpcg-{}", self.version),
            app => app.into(),
        }
    }

    fn accepted(&self) -> bool {
        json::parse(&self.to_json()).is_ok_and(|v| Query::parse(&v).is_ok())
    }
}

/// The request lines of one seeded stream, built as a stratified sample so
/// that its cost barely moves from seed to seed:
///
/// * every round sends the 21 five-app subsets of the 7 apps in a shuffled
///   order, so each app appears in exactly 15 requests per round;
/// * each app's queries are split evenly over its machine and variant
///   cells, and within a cell the node counts are one uniform draw from
///   each of equal strata of the counts `Query::parse` accepts in 1..=192.
///   Strata are disjoint, so no query repeats anywhere in the stream, and
///   the min-node rules stay inside the program;
/// * each app's queries are shuffled before they are dealt to requests.
fn generate(seed: u64) -> (Vec<String>, Vec<Draw>) {
    let mut rng = Pcg32::seeded(seed);
    let n_apps = APPS.len();
    let subsets: Vec<Vec<usize>> = (0..1u32 << n_apps)
        .filter(|m| m.count_ones() as usize == PER_REQUEST)
        .map(|m| (0..n_apps).filter(|a| m & (1 << a) != 0).collect())
        .collect();
    let mut plan = Vec::new();
    for _ in 0..ROUNDS {
        let mut round = subsets.clone();
        rng.shuffle(&mut round);
        plan.extend(round);
    }

    let per_app = ROUNDS * subsets.len() * PER_REQUEST / n_apps;
    let mut queues: Vec<Vec<Draw>> = APPS
        .iter()
        .map(|&app| {
            let mut cells: Vec<Draw> = MACHINES
                .iter()
                .flat_map(|&m| Draw::variants(app, m))
                .collect();
            rng.shuffle(&mut cells);
            let mut queries = Vec::with_capacity(per_app);
            for (c, cell) in cells.iter().enumerate() {
                let k = per_app / cells.len() + usize::from(c < per_app % cells.len());
                let ok: Vec<u32> = (1..=MAX_NODES)
                    .filter(|&nodes| {
                        Draw {
                            nodes,
                            ..cell.clone()
                        }
                        .accepted()
                    })
                    .collect();
                assert!(
                    k <= ok.len(),
                    "{cell:?} accepts only {} node counts",
                    ok.len()
                );
                for j in 0..k {
                    let (lo, hi) = (j * ok.len() / k, (j + 1) * ok.len() / k);
                    let pick = lo + rng.next_below((hi - lo) as u32) as usize;
                    queries.push(Draw {
                        nodes: ok[pick],
                        ..cell.clone()
                    });
                }
            }
            rng.shuffle(&mut queries);
            queries
        })
        .collect();

    let (mut lines, mut draws) = (Vec::new(), Vec::new());
    for (r, apps) in plan.iter().enumerate() {
        let req: Vec<Draw> = apps
            .iter()
            .map(|&a| queues[a].pop().expect("every app has a query per request"))
            .collect();
        let body: Vec<String> = req.iter().map(Draw::to_json).collect();
        lines.push(format!(
            "{{\"id\":{},\"queries\":[{}]}}",
            r + 1,
            body.join(",")
        ));
        draws.extend(req);
    }
    (lines, draws)
}

/// Print the generated app/machine/node mix to stderr.
fn print_mix(seed: u64, draws: &[Draw]) {
    let mut mix: BTreeMap<(String, &str), usize> = BTreeMap::new();
    for d in draws {
        *mix.entry((d.variant(), d.machine)).or_default() += 1;
    }
    let mut nodes: Vec<f64> = draws.iter().map(|d| f64::from(d.nodes)).collect();
    let (lo, hi) = nodes
        .iter()
        .fold((f64::MAX, f64::MIN), |(l, h), &n| (l.min(n), h.max(n)));
    eprintln!(
        "whatif stream seed {seed}: {} requests x {PER_REQUEST} queries, \
         nodes {lo}..{hi} (median {})",
        draws.len() / PER_REQUEST,
        median(&mut nodes)
    );
    let cells: Vec<String> = mix
        .iter()
        .map(|((v, m), n)| format!("{v}@{m}={n}"))
        .collect();
    eprintln!("  mix: {}", cells.join(" "));
}

pub struct Setup {
    lines: Vec<String>,
    store_dir: PathBuf,
    /// The cold session, whose responses every warm session must repeat.
    cold: Session,
}

/// Generate the stream, check every request line, create the empty store
/// directory and fill it with the cold session (traced when `tracer` is
/// given).
pub fn setup(seed: u64, work: &Path, tracer: Option<&Tracer>) -> Result<Setup, String> {
    let (lines, draws) = generate(seed);
    print_mix(seed, &draws);
    for line in &lines {
        let request = json::parse(line).map_err(|e| format!("generated bad JSON {line}: {e}"))?;
        let queries = request
            .get("queries")
            .and_then(Value::as_array)
            .unwrap_or(&[]);
        if queries.len() != PER_REQUEST || queries.iter().any(|q| Query::parse(q).is_err()) {
            return Err(format!("generated an invalid request: {line}"));
        }
    }
    let store_dir = work.join("whatif-store");
    if store_dir.exists() {
        std::fs::remove_dir_all(&store_dir)
            .map_err(|e| format!("clearing {}: {e}", store_dir.display()))?;
    }
    std::fs::create_dir_all(&store_dir)
        .map_err(|e| format!("creating {}: {e}", store_dir.display()))?;
    let cold = session(&lines, &store_dir, tracer.map(|t| (t, COLD_SID)))?;
    Ok(Setup {
        lines,
        store_dir,
        cold,
    })
}

/// One session's measurements.
struct Session {
    /// Store open through final flush.
    wall_s: f64,
    /// Per-request wall time, stream order.
    request_s: Vec<f64>,
    responses: Vec<String>,
    /// Cache traffic per request.
    tiers: Vec<TierCounters>,
    records: usize,
    segment_bytes: u64,
}

/// Session id of the cold session; warm sessions count up from it.
const COLD_SID: u64 = 1;

/// Run the stream once against the store. With a tracer, the session is a
/// root span `cold` (session [`COLD_SID`]) or `warm` (any later session),
/// and request ids are `(session << 32) | request`.
fn session(
    lines: &[String],
    store_dir: &Path,
    tracer: Option<(&Tracer, u64)>,
) -> Result<Session, String> {
    let t0 = Instant::now();
    let sid = tracer.map_or(0, |(_, sid)| sid);
    let phase = if sid == COLD_SID { "cold" } else { "warm" };
    let scope = Scope::open(tracer.map(|(t, sid)| (t, sid << 32)), phase);
    let store = scope
        .child("store.open", || open_store(store_dir))
        .map_err(|e| format!("opening the store: {e}"))?;
    let ctx = Ctx::with_store(store.clone());
    let n = lines.len();
    let (mut request_s, mut responses, mut tiers) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    for (r, line) in lines.iter().enumerate() {
        let before = ctx.cache.counters();
        let t = Instant::now();
        let resp = match scope.traced() {
            None => respond(&ctx, line, JOBS),
            Some((tr, root)) => traced_respond(tr, &ctx, line, root, (sid << 32) | r as u64)?,
        };
        request_s.push(t.elapsed().as_secs_f64());
        tiers.push(ctx.cache.counters().since(&before));
        responses.push(resp);
    }
    scope
        .child("store.flush", || store.flush_index())
        .map_err(|e| format!("flushing the store index: {e}"))?;
    scope.close();
    Ok(Session {
        wall_s: t0.elapsed().as_secs_f64(),
        request_s,
        responses,
        tiers,
        records: store.records(),
        segment_bytes: store.segment_bytes(),
    })
}

/// `serve::respond` taken apart at its layer boundaries: `json::parse`,
/// `Query::parse` over the request, and `Query::answer` per query on the
/// same slot-ordered workers, each inside a span under one `serve.respond`
/// span, whose self time is `respond`'s own work (starting the workers and
/// assembling the response). The answer span is named after the tier that
/// served it. The response must equal `respond`'s byte for byte, which
/// every warm comparison checks.
fn traced_respond(
    tr: &Tracer,
    ctx: &Ctx,
    line: &str,
    parent: SpanId,
    rid: u64,
) -> Result<String, String> {
    let req = tr.begin("serve.respond", Some(parent), rid);
    let parsed = tr.span("json.parse", Some(req), rid, || json::parse(line));
    let parsed = parsed.map_err(|e| format!("request {rid} did not parse: {e}"))?;
    let id = parsed.get("id").and_then(Value::as_u64);
    let queries = parsed.get("queries").and_then(Value::as_array);
    let (Some(id), Some(queries)) = (id, queries) else {
        return Err(format!("request {rid} lacks an id or queries"));
    };
    let checked: Vec<Result<Query, String>> = tr.span("serve.validate", Some(req), rid, || {
        queries.iter().map(Query::parse).collect()
    });
    let results = run_indexed(checked.len(), JOBS, |i| match &checked[i] {
        Ok(q) => {
            let span = tr.begin("serve.answer", Some(req), rid);
            Cache::reset_thread_counters();
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| q.answer(ctx)));
            let tier = Cache::thread_counters();
            let name = match (tier.misses, tier.disk_hits) {
                (0, 0) => "serve.answer_mem".to_string(),
                (0, _) => "serve.answer_disk".to_string(),
                _ => format!("serve.answer_miss.{}", app_of(q)),
            };
            tr.end_as(span, name);
            out.unwrap_or_else(|_| format!("{{\"error\":\"query {i} panicked\"}}"))
        }
        Err(e) => format!("{{\"error\":\"{}\"}}", json::escape(e)),
    });
    let out = format!("{{\"id\":{id},\"results\":[{}]}}", results.join(","));
    tr.end(req);
    Ok(out)
}

fn app_of(q: &Query) -> &str {
    match q {
        Query::App { app, .. } => app,
        Query::Hpl { .. } => "hpl",
        Query::Hpcg { .. } => "hpcg",
    }
}

/// Count the session's failures: error slots, warm bytes that differ from
/// the cold response, and any request whose tier traffic is not exactly
/// one miss (cold) or one disk hit (warm) per query.
fn check(out: &mut Outcome, sess: &Session, cold: Option<&Session>) {
    let q = PER_REQUEST as u64;
    for (r, resp) in sess.responses.iter().enumerate() {
        let t = sess.tiers[r];
        let (bytes_ok, tiers_ok) = match cold {
            None => (true, t.misses == q && t.total() == q),
            Some(c) => (c.responses[r] == *resp, t.disk_hits == q && t.total() == q),
        };
        let ok = bytes_ok && tiers_ok && !resp.contains("\"error\"");
        out.check(ok, || {
            format!(
                "{} request {r}: bytes_match={bytes_ok} tiers={t:?} response={resp}",
                if cold.is_none() { "cold" } else { "warm" }
            )
        });
    }
}

fn sum_tiers(sess: &Session) -> TierCounters {
    sess.tiers
        .iter()
        .fold(TierCounters::default(), |a, t| TierCounters {
            mem_hits: a.mem_hits + t.mem_hits,
            disk_hits: a.disk_hits + t.disk_hits,
            misses: a.misses + t.misses,
        })
}

/// Measure warm sessions for the window. Untraced, report the median
/// request latency (each session's median request, median over sessions)
/// and queries per second of a session, store open through flush (median
/// over sessions); traced, alternate untraced and traced sessions and
/// report the exact tier and store counts and the tracing overhead.
pub fn run(s: Setup, budget: &Budget, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    check(&mut out, &s.cold, None);
    let queries = (s.lines.len() * PER_REQUEST) as f64;

    // A run keeps two numbers per session, so the number of sessions it
    // fits does not move `peak_rss_mb`.
    let (mut p50s, mut walls, mut traced_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut warm_tiers = None;
    while budget.more(walls.len(), MIN_WARM_SESSIONS) {
        let mut warm = session(&s.lines, &s.store_dir, None)?;
        check(&mut out, &warm, Some(&s.cold));
        warm_tiers.get_or_insert(sum_tiers(&warm));
        p50s.push(median(&mut warm.request_s) * 1e3);
        walls.push(warm.wall_s);
        if let Some(t) = tracer {
            let sid = COLD_SID + walls.len() as u64;
            let traced = session(&s.lines, &s.store_dir, Some((t, sid)))?;
            check(&mut out, &traced, Some(&s.cold));
            traced_walls.push(traced.wall_s);
        }
    }
    let _ = std::fs::remove_dir_all(&s.store_dir);

    let sessions = walls.len();
    let mut rates: Vec<f64> = walls.iter().map(|w| queries / w).collect();
    let session_ms = median(&mut walls) * 1e3;
    if tracer.is_none() {
        out.push("op_p50_ms", median(&mut p50s), "ms", sessions);
        out.push("work_per_s", median(&mut rates), "1/s", sessions);
        return Ok(out);
    }
    let traced_ms = median(&mut traced_walls) * 1e3;
    out.push("trace.op_ms", traced_ms, "ms", traced_walls.len());
    out.push(
        "trace.overhead_pct",
        100.0 * (traced_ms - session_ms) / session_ms,
        "%",
        traced_walls.len(),
    );
    let (c, w) = (
        sum_tiers(&s.cold),
        warm_tiers.expect("at least one warm session"),
    );
    out.push("cold.cache_misses", c.misses as f64, "count", 1);
    out.push("cold.store_records", s.cold.records as f64, "count", 1);
    out.push(
        "cold.store_segment_bytes",
        s.cold.segment_bytes as f64,
        "bytes",
        1,
    );
    out.push("warm.cache_disk_hits", w.disk_hits as f64, "count", 1);
    out.push("warm.cache_misses", w.misses as f64, "count", 1);
    Ok(out)
}
