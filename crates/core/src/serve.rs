//! `cluster-eval serve` — evaluation-as-a-service over stdin/stdout.
//!
//! A long-running front end for batched what-if queries: each input line
//! is a JSON request naming a batch of `(app, machine, nodes, …)` points,
//! each output line is the matching JSON response. Responses are emitted
//! in request order. *Within* a request, a query whose result is already
//! stored, in memory or on disk, is answered on the calling thread, and so
//! is an invalid one: reading a stored result takes a few microseconds,
//! less than starting a worker thread. Only the remaining queries are
//! computed, out of order, on up to `--jobs` workers
//! ([`crate::engine::run_indexed`]). Every result lands in its own slot and
//! each query makes exactly one cache lookup wherever it runs, so the
//! response bytes and the tier counts never depend on the worker count. A
//! request whose queries are all stored starts no thread.
//!
//! Two identical queries in flight at once cost one engine miss: every
//! simulation funnels through the shared [`Ctx`] cache, whose per-key slot
//! lock is a single-flight map — the second query blocks on the first's
//! slot and reads the computed value as a memory hit. With a persistent
//! [`Store`] attached (`--store DIR`), results survive across server
//! restarts, so a warm store answers whole batches without touching the
//! engine at all.
//!
//! Responses carry **no timing or counter fields** — a response is a pure
//! function of the query and the model code, so cold and warm serves are
//! byte-identical. Per-batch statistics go to stderr instead.
//!
//! ## Wire protocol (one JSON document per line)
//!
//! ```text
//! → {"id": 1, "queries": [{"app": "alya", "machine": "cte-arm", "nodes": 16}]}
//! ← {"id":1,"results":[{"app":"alya","machine":"CTE-Arm","nodes":16,"elapsed_s":…,…}]}
//! ```
//!
//! Query fields: `app` (alya | nemo | wrf | openifs | gromacs | hpl |
//! hpcg), `machine` (cte-arm | mn4), `nodes`, plus `io` (wrf: write
//! history output) and `version` (hpcg: vanilla | optimized). A malformed
//! or failing query yields `{"error":"…"}` in its result slot; a
//! malformed request line, a line that is not UTF-8, and a line longer
//! than [`MAX_LINE_BYTES`] each yield one `{"id":null,"error":"…"}`.

use crate::engine::{run_indexed, Ctx};
use crate::json::{self, Value};
use apps::common::Cluster;
use simkit::cache::{Cache, CacheKey, TierCounters};
use simkit::store::Store;
use std::fmt::Write as _;
use std::io::{self, BufRead, Read, Write};
use std::sync::Arc;
use std::time::Instant;

/// The 64-bit FNV-1a digest of every model source file, computed by
/// `build.rs`. Stores opened with this hash can only ever serve results
/// produced by byte-identical model code.
pub fn model_code_hash() -> u64 {
    u64::from_str_radix(env!("CLUSTER_EVAL_MODEL_HASH"), 16)
        .expect("build script emits a 16-digit hex hash")
}

/// Open the persistent store for the current model revision under `dir`.
pub fn open_store(dir: &std::path::Path) -> io::Result<Arc<Store>> {
    Ok(Arc::new(Store::open(dir, model_code_hash())?))
}

/// One validated what-if query.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// A production-application point (Alya/NEMO/WRF/OpenIFS/GROMACS).
    App {
        /// Application name (lowercase, as on the wire).
        app: String,
        /// Target cluster.
        cluster: Cluster,
        /// Node count.
        nodes: usize,
        /// WRF only: write the hourly history output.
        io: bool,
    },
    /// An HPL (LINPACK) point.
    Hpl {
        /// Target cluster.
        cluster: Cluster,
        /// Node count.
        nodes: usize,
    },
    /// An HPCG point.
    Hpcg {
        /// Target cluster.
        cluster: Cluster,
        /// Node count.
        nodes: usize,
        /// Build variant.
        version: hpcg::HpcgVersion,
    },
}

fn parse_cluster(v: &Value) -> Result<Cluster, String> {
    match v.get("machine").and_then(Value::as_str) {
        Some("cte-arm") => Ok(Cluster::CteArm),
        Some("mn4") => Ok(Cluster::MareNostrum4),
        Some(other) => Err(format!("unknown machine '{other}' (cte-arm | mn4)")),
        None => Err("query needs a string 'machine' field".into()),
    }
}

impl Query {
    /// Validate one JSON query object.
    pub fn parse(v: &Value) -> Result<Self, String> {
        let cluster = parse_cluster(v)?;
        let nodes = v
            .get("nodes")
            .and_then(Value::as_u64)
            .ok_or("query needs an integer 'nodes' field")? as usize;
        let max = cluster.machine().nodes;
        if nodes == 0 || nodes > max {
            return Err(format!(
                "nodes={nodes} out of range for {} (1..={max})",
                cluster.label()
            ));
        }
        match v.get("app").and_then(Value::as_str) {
            Some("hpl") => Ok(Query::Hpl { cluster, nodes }),
            Some("hpcg") => {
                let version = match v.get("version").and_then(Value::as_str) {
                    None | Some("optimized") => hpcg::HpcgVersion::Optimized,
                    Some("vanilla") => hpcg::HpcgVersion::Vanilla,
                    Some(other) => {
                        return Err(format!(
                            "unknown hpcg version '{other}' (vanilla | optimized)"
                        ))
                    }
                };
                Ok(Query::Hpcg {
                    cluster,
                    nodes,
                    version,
                })
            }
            Some(app @ ("alya" | "nemo" | "wrf" | "openifs" | "gromacs")) => {
                let min = match app {
                    "alya" => apps::alya::Alya::test_case_b().min_nodes(cluster),
                    "nemo" => apps::nemo::Nemo::bench_orca1().min_nodes(cluster),
                    "openifs" => apps::openifs::OpenIfs::tc0511l91().min_nodes(cluster),
                    _ => 1,
                };
                if nodes < min {
                    return Err(format!(
                        "{app} does not fit on {nodes} nodes of {} (needs >= {min})",
                        cluster.label()
                    ));
                }
                Ok(Query::App {
                    app: app.to_string(),
                    cluster,
                    nodes,
                    io: v.get("io").and_then(Value::as_bool).unwrap_or(false),
                })
            }
            Some(other) => Err(format!(
                "unknown app '{other}' (alya | nemo | wrf | openifs | gromacs | hpl | hpcg)"
            )),
            None => Err("query needs a string 'app' field".into()),
        }
    }

    /// Evaluate against `ctx` and render the result JSON object. Every
    /// float is formatted with `Display` (shortest round-trip form), so
    /// the bytes are a pure function of the value.
    pub fn answer(&self, ctx: &Ctx) -> String {
        match self {
            Query::App {
                app,
                cluster,
                nodes,
                io,
            } => {
                let cache = &ctx.cache;
                let run =
                    match app.as_str() {
                        "alya" => {
                            apps::alya::Alya::test_case_b().simulate_cached(cache, *cluster, *nodes)
                        }
                        "nemo" => {
                            apps::nemo::Nemo::bench_orca1().simulate_cached(cache, *cluster, *nodes)
                        }
                        "wrf" => apps::wrf::Wrf::iberia_4km()
                            .simulate_cached(cache, *cluster, *nodes, *io),
                        "openifs" => apps::openifs::OpenIfs::tc0511l91()
                            .simulate_cached(cache, *cluster, *nodes),
                        "gromacs" => apps::gromacs::Gromacs::lignocellulose_rf()
                            .simulate_cached(cache, *cluster, *nodes),
                        other => unreachable!("Query::parse admitted app '{other}'"),
                    };
                let mut out = format!(
                    "{{\"app\":\"{app}\",\"machine\":\"{}\",\"nodes\":{nodes},\"elapsed_s\":{}",
                    cluster.label(),
                    run.elapsed.value()
                );
                if !run.phases.is_empty() {
                    out.push_str(",\"phases\":{");
                    for (i, (name, t)) in run.phases.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "\"{}\":{}", json::escape(name), t.value());
                    }
                    out.push('}');
                }
                out.push('}');
                out
            }
            Query::Hpl { cluster, nodes } => {
                let machine = cluster.machine();
                let cfg = hpl::paper_config(&machine, *nodes);
                let r = hpl::simulate_cached(&ctx.cache, &machine, &cluster.link(), *nodes, &cfg);
                format!(
                    "{{\"app\":\"hpl\",\"machine\":\"{}\",\"nodes\":{nodes},\
                     \"gflops\":{},\"efficiency\":{},\"time_s\":{}}}",
                    cluster.label(),
                    r.gflops,
                    r.efficiency,
                    r.time.value()
                )
            }
            Query::Hpcg {
                cluster,
                nodes,
                version,
            } => {
                let machine = cluster.machine();
                let cfg = hpcg::HpcgConfig::paper(*version);
                let r = hpcg::simulate_cached(&ctx.cache, &machine, *nodes, &cfg);
                format!(
                    "{{\"app\":\"hpcg\",\"machine\":\"{}\",\"nodes\":{nodes},\
                     \"version\":\"{}\",\"gflops\":{},\"fraction_of_peak\":{},\"time_s\":{}}}",
                    cluster.label(),
                    match version {
                        hpcg::HpcgVersion::Vanilla => "vanilla",
                        hpcg::HpcgVersion::Optimized => "optimized",
                    },
                    r.gflops,
                    r.fraction_of_peak,
                    r.time.value()
                )
            }
        }
    }

    /// The key [`Self::answer`] looks its result up under, built by the
    /// same key function as the model entry point it calls.
    pub fn cache_key(&self) -> CacheKey {
        match self {
            Query::App {
                app,
                cluster,
                nodes,
                io,
            } => {
                let (cluster, nodes) = (*cluster, *nodes);
                match app.as_str() {
                    "alya" => apps::alya::Alya::test_case_b().cache_key(cluster, nodes),
                    "nemo" => apps::nemo::Nemo::bench_orca1().cache_key(cluster, nodes),
                    "wrf" => apps::wrf::Wrf::iberia_4km().cache_key(cluster, nodes, *io),
                    "openifs" => apps::openifs::OpenIfs::tc0511l91().cache_key(cluster, nodes),
                    "gromacs" => {
                        apps::gromacs::Gromacs::lignocellulose_rf().cache_key(cluster, nodes)
                    }
                    other => unreachable!("Query::parse admitted app '{other}'"),
                }
            }
            Query::Hpl { cluster, nodes } => {
                let machine = cluster.machine();
                let cfg = hpl::paper_config(&machine, *nodes);
                hpl::cache_key(&machine, &cluster.link(), *nodes, &cfg)
            }
            Query::Hpcg {
                cluster,
                nodes,
                version,
            } => hpcg::cache_key(
                &cluster.machine(),
                *nodes,
                &hpcg::HpcgConfig::paper(*version),
            ),
        }
    }
}

/// The error line for a request that has no usable id.
fn request_error(message: &str) -> String {
    format!("{{\"id\":null,\"error\":\"{}\"}}", json::escape(message))
}

/// The result object for slot `i` of a request: the answer of a valid
/// query, or the error of an invalid one.
fn answer_slot(ctx: &Ctx, i: usize, query: &Result<Query, String>) -> String {
    match query {
        // Backstop for model-level panics (e.g. config asserts the
        // validation does not know about): a failing query must poison
        // its slot, not the server.
        Ok(q) => std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| q.answer(ctx)))
            .unwrap_or_else(|_| {
                format!("{{\"error\":\"query {i} panicked in the engine — see server log\"}}")
            }),
        Err(e) => format!("{{\"error\":\"{}\"}}", json::escape(e)),
    }
}

/// Render the response line for one raw request line. Pure except for
/// cache effects in `ctx` — this is the unit both the server loop and the
/// test batteries drive.
///
/// Queries whose results are stored, and invalid ones, are answered here
/// on the calling thread; only the rest go to [`run_indexed`]'s `jobs`
/// workers. Each result lands in its own slot, and the cache's
/// single-flight slots let duplicate misses share one computation, so the
/// bytes are independent of `jobs`.
pub fn respond(ctx: &Ctx, line: &str, jobs: usize) -> String {
    respond_counted(ctx, line, jobs).0
}

/// [`respond`], plus the number of query slots the response answers, each
/// with a result or an error of its own. A request refused whole answers
/// none.
fn respond_counted(ctx: &Ctx, line: &str, jobs: usize) -> (String, u64) {
    let parsed = match json::parse(line) {
        Ok(v) => v,
        Err(e) => return (request_error(&e), 0),
    };
    let Some(id) = parsed.get("id").and_then(Value::as_u64) else {
        return (request_error("request needs an integer 'id' field"), 0);
    };
    let Some(queries) = parsed.get("queries").and_then(Value::as_array) else {
        let error = format!("{{\"id\":{id},\"error\":\"request needs a 'queries' array\"}}");
        return (error, 0);
    };
    let checked: Vec<Result<Query, String>> = queries.iter().map(Query::parse).collect();
    let mut results = Vec::with_capacity(checked.len());
    let mut misses = Vec::new();
    for (i, query) in checked.iter().enumerate() {
        if matches!(query, Ok(q) if !ctx.cache.is_stored(&q.cache_key())) {
            misses.push(i);
            results.push(String::new());
        } else {
            results.push(answer_slot(ctx, i, query));
        }
    }
    let computed = run_indexed(misses.len(), jobs, |k| {
        answer_slot(ctx, misses[k], &checked[misses[k]])
    });
    for (&i, result) in misses.iter().zip(computed) {
        results[i] = result;
    }
    let answered = results.len() as u64;
    (
        format!("{{\"id\":{id},\"results\":[{}]}}", results.join(",")),
        answered,
    )
}

/// What one [`serve`] session did, for the stderr summary.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeSummary {
    /// Request lines processed (including malformed ones).
    pub requests: u64,
    /// Individual queries answered, with a result or an error of their
    /// own (the slots of every request that was not refused whole).
    pub queries: u64,
    /// Cache traffic of this session (memory hits / disk hits / misses).
    pub counters: TierCounters,
}

/// Longest request line [`serve`] reads, in bytes, not counting its
/// final `\n`. A longer line is answered with one error line and the rest of
/// it is skipped unbuffered, so no input can grow the server's memory.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Read the next line into `buf` without its line ending, holding at most
/// [`MAX_LINE_BYTES`] of it. `None` at end of input; `Some(false)` when
/// the line was longer than the cap, in which case the rest of it, up to
/// and including its newline, has been consumed and dropped.
fn read_capped_line(input: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<Option<bool>> {
    buf.clear();
    let cap = MAX_LINE_BYTES as u64 + 1;
    if input.by_ref().take(cap).read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > MAX_LINE_BYTES {
        input.skip_until(b'\n')?;
        return Ok(Some(false));
    }
    Ok(Some(true))
}

/// Serve line-delimited JSON requests from `input` to `output` until EOF.
/// Each response line is flushed before the next request is read, so a
/// driving process can pipeline. A line that is not UTF-8 or is longer
/// than [`MAX_LINE_BYTES`] gets one error line, and serving carries on
/// with the next line. Batch statistics go to `log`.
pub fn serve(
    ctx: &Ctx,
    mut input: impl BufRead,
    mut output: impl Write,
    mut log: impl Write,
    jobs: usize,
) -> io::Result<ServeSummary> {
    let mut summary = ServeSummary::default();
    let before = ctx.cache.counters();
    let mut buf = Vec::new();
    while let Some(fits) = read_capped_line(&mut input, &mut buf)? {
        let started = Instant::now();
        let counters_at = ctx.cache.counters();
        let (response, answered) = if fits {
            match std::str::from_utf8(&buf) {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => respond_counted(ctx, line, jobs),
                Err(_) => (request_error("request line is not valid UTF-8"), 0),
            }
        } else {
            let error = format!("request line longer than {MAX_LINE_BYTES} bytes");
            (request_error(&error), 0)
        };
        output.write_all(response.as_bytes())?;
        output.write_all(b"\n")?;
        output.flush()?;
        summary.requests += 1;
        summary.queries += answered;
        let delta = ctx.cache.counters().since(&counters_at);
        writeln!(
            log,
            "serve: request {} in {:.3} ms ({} mem / {} disk / {} miss)",
            summary.requests,
            started.elapsed().as_secs_f64() * 1e3,
            delta.mem_hits,
            delta.disk_hits,
            delta.misses
        )?;
    }
    summary.counters = ctx.cache.counters().since(&before);
    // Make the session durable before reporting success.
    if let Some(store) = ctx.cache.store() {
        store.flush_index()?;
    }
    Ok(summary)
}

/// Run `lines` as one in-memory session and return the response lines.
/// The harness behind the determinism tests and the smoke self-test.
pub fn run_batch(ctx: &Ctx, lines: &[String], jobs: usize) -> Vec<String> {
    lines.iter().map(|l| respond(ctx, l, jobs)).collect()
}

/// Outcome of [`smoke`], one field per acceptance criterion.
#[derive(Debug, Clone)]
pub struct SmokeReport {
    /// Wall time of the cold replay (fresh store, every query a miss).
    pub cold_ms: f64,
    /// Wall time of the warm replay (reopened store, no engine work).
    pub warm_ms: f64,
    /// Cache traffic of the cold replay.
    pub cold: TierCounters,
    /// Cache traffic of the warm replay.
    pub warm: TierCounters,
}

/// Cold/warm self-test over a canned batch file: replay it against a
/// fresh store, then reopen the store in a new context and replay again.
/// Fails unless the warm replay (a) produced byte-identical responses,
/// (b) never missed into the engine, (c) answered every query on the
/// calling thread, without a worker, and (d) beat the cold replay by the
/// `speedup` factor the store exists to deliver.
pub fn smoke(
    batch_path: &std::path::Path,
    jobs: usize,
    speedup: f64,
) -> Result<SmokeReport, String> {
    let text = std::fs::read_to_string(batch_path)
        .map_err(|e| format!("cannot read {}: {e}", batch_path.display()))?;
    let lines: Vec<String> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(String::from)
        .collect();
    if lines.is_empty() {
        return Err(format!("{} holds no requests", batch_path.display()));
    }
    let dir = std::env::temp_dir().join(format!("cluster-eval-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let result = smoke_in(&dir, &lines, jobs, speedup);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn smoke_in(
    dir: &std::path::Path,
    lines: &[String],
    jobs: usize,
    speedup: f64,
) -> Result<SmokeReport, String> {
    let open = || open_store(dir).map_err(|e| format!("store open failed: {e}"));

    let cold_ctx = Ctx::with_store(open()?);
    let t0 = Instant::now();
    let cold_out = run_batch(&cold_ctx, lines, jobs);
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cold = cold_ctx.cache.counters();
    drop(cold_ctx); // flush the index, as a server shutdown would

    let warm_ctx = Ctx::with_store(open()?);
    Cache::reset_thread_counters();
    let t1 = Instant::now();
    let warm_out = run_batch(&warm_ctx, lines, jobs);
    let warm_ms = t1.elapsed().as_secs_f64() * 1e3;
    let warm = warm_ctx.cache.counters();
    let inline = Cache::thread_counters();

    if cold.misses == 0 {
        return Err("cold replay missed nothing — the batch exercised no simulations".into());
    }
    if warm_out != cold_out {
        let at = cold_out
            .iter()
            .zip(&warm_out)
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        return Err(format!(
            "warm replay diverged from cold at response {at}:\n  cold: {}\n  warm: {}",
            cold_out[at], warm_out[at]
        ));
    }
    if warm.misses != 0 {
        return Err(format!(
            "warm replay reached the engine {} times — the store failed to serve it",
            warm.misses
        ));
    }
    if warm.disk_hits == 0 {
        return Err("warm replay never touched the disk tier".into());
    }
    if inline != warm {
        return Err(format!(
            "warm replay used workers: the calling thread answered {inline:?} of {warm:?}"
        ));
    }
    if cold_ms < speedup * warm_ms {
        return Err(format!(
            "warm replay too slow: cold {cold_ms:.1} ms vs warm {warm_ms:.1} ms \
             (need >{speedup}x)"
        ));
    }
    Ok(SmokeReport {
        cold_ms,
        warm_ms,
        cold,
        warm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(q: &str) -> String {
        format!("{{\"id\": 1, \"queries\": [{q}]}}")
    }

    #[test]
    fn malformed_lines_answer_with_errors() {
        let ctx = Ctx::new();
        assert!(respond(&ctx, "not json", 1).starts_with("{\"id\":null,\"error\":"));
        assert!(respond(&ctx, "{\"queries\": []}", 1).contains("'id'"));
        assert!(respond(&ctx, "{\"id\": 2}", 1).contains("'queries'"));
    }

    #[test]
    fn unknown_fields_fail_per_query_not_per_request() {
        let ctx = Ctx::new();
        let r = respond(
            &ctx,
            "{\"id\":4,\"queries\":[{\"app\":\"hpl\",\"machine\":\"cte-arm\",\"nodes\":1},\
             {\"app\":\"nope\",\"machine\":\"cte-arm\",\"nodes\":1}]}",
            1,
        );
        assert!(r.starts_with("{\"id\":4,\"results\":["), "{r}");
        assert!(r.contains("\"gflops\":"), "first query succeeds: {r}");
        assert!(r.contains("unknown app 'nope'"), "second fails: {r}");
    }

    #[test]
    fn node_range_and_fit_are_validated() {
        let ctx = Ctx::new();
        let r = respond(
            &ctx,
            &line("{\"app\":\"hpl\",\"machine\":\"cte-arm\",\"nodes\":100000}"),
            1,
        );
        assert!(r.contains("out of range"), "{r}");
        let r = respond(
            &ctx,
            &line("{\"app\":\"alya\",\"machine\":\"cte-arm\",\"nodes\":1}"),
            1,
        );
        assert!(r.contains("does not fit"), "{r}");
    }

    #[test]
    fn responses_carry_no_timing() {
        // The byte-identical cold/warm contract rests on this.
        let ctx = Ctx::new();
        let r = respond(
            &ctx,
            &line("{\"app\":\"hpcg\",\"machine\":\"mn4\",\"nodes\":4,\"version\":\"vanilla\"}"),
            1,
        );
        for forbidden in ["ms", "wall", "hit", "miss"] {
            assert!(!r.contains(forbidden), "'{forbidden}' leaked into {r}");
        }
    }

    #[test]
    fn every_query_variant_is_stored_under_its_cache_key() {
        let variants = [
            r#"{"app":"alya","machine":"mn4","nodes":4}"#,
            r#"{"app":"nemo","machine":"mn4","nodes":1}"#,
            r#"{"app":"wrf","machine":"cte-arm","nodes":1}"#,
            r#"{"app":"wrf","machine":"cte-arm","nodes":1,"io":true}"#,
            r#"{"app":"openifs","machine":"mn4","nodes":10}"#,
            r#"{"app":"gromacs","machine":"cte-arm","nodes":1}"#,
            r#"{"app":"hpl","machine":"mn4","nodes":2}"#,
            r#"{"app":"hpcg","machine":"cte-arm","nodes":2,"version":"vanilla"}"#,
            r#"{"app":"hpcg","machine":"cte-arm","nodes":2,"version":"optimized"}"#,
        ];
        for text in variants {
            let query = Query::parse(&json::parse(text).expect("json")).expect(text);
            let ctx = Ctx::new();
            let key = query.cache_key();
            assert!(!ctx.cache.is_stored(&key), "{text}");
            query.answer(&ctx);
            assert!(ctx.cache.is_stored(&key), "{text} stored under another key");
            assert_eq!(ctx.cache.len(), 1, "{text}");
        }
    }

    #[test]
    fn model_hash_is_wired_through() {
        // Parses and is stable within a build.
        assert_eq!(model_code_hash(), model_code_hash());
    }
}
