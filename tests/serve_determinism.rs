//! The serve front end's contract, pinned as tests:
//!
//! * **Worker-count independence** — the canned 50-query batch produces
//!   byte-identical response lines at `--jobs` 1, 2 and 8, under rayon
//!   pools of 1, 2 and 8 threads.
//! * **Cold/warm equivalence** — a fresh store and a reopened warm store
//!   serve byte-identical responses; the warm pass never reaches the
//!   engine and is served from disk.
//! * **In-flight dedupe** — two identical queries in one parallel batch
//!   cost exactly one engine miss; the second is a memory hit.
//! * **Hit path** — stored queries are answered on the calling thread, so
//!   a warm replay charges every lookup to it at any `--jobs`, and a
//!   request mixing stored, unstored, duplicate and invalid queries keeps
//!   the bytes and the exact tier counts of a fresh context.
//! * **Deterministic failure** — malformed requests and failing queries
//!   produce stable, in-order error lines, not dropped responses; a line
//!   that is not UTF-8 or longer than the line cap gets one error line and
//!   the session carries on.
//! * **Hostile input** — any string survives an escape/parse round trip;
//!   arbitrary byte lines between two valid requests each get one
//!   parsable answer and never reach the engine's panic backstop; valid
//!   but absurd queries each fail in their own slot without engine work.

use cluster_eval::engine::Ctx;
use cluster_eval::json::{self, Value};
use cluster_eval::serve::{open_store, respond, run_batch, MAX_LINE_BYTES};
use proptest::collection::vec;
use proptest::prelude::*;
use simkit::cache::{Cache, TierCounters};
use std::path::Path;

mod common;
use common::{at, TempDir, THREAD_LADDER};

fn canned_batch() -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/serve_batch_50.jsonl");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let lines: Vec<String> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(String::from)
        .collect();
    assert_eq!(
        lines.len(),
        10,
        "the canned batch is 10 requests of 5 queries"
    );
    lines
}

#[test]
fn responses_are_independent_of_jobs_and_pool_threads() {
    let batch = canned_batch();
    let reference = at(1, || run_batch(&Ctx::new(), &batch, 1));
    assert_eq!(
        reference.len(),
        batch.len(),
        "one response line per request"
    );
    for r in &reference {
        assert!(
            !r.contains("error"),
            "canned batch must be all-success: {r}"
        );
    }
    for pool in THREAD_LADDER {
        for jobs in THREAD_LADDER {
            let out = at(pool, || run_batch(&Ctx::new(), &batch, jobs));
            assert_eq!(
                out, reference,
                "responses changed at pool={pool} jobs={jobs}"
            );
        }
    }
}

#[test]
fn cold_and_warm_stores_serve_identical_bytes() {
    let batch = canned_batch();
    let dir = TempDir::new("serve-warm");

    let cold_ctx = Ctx::with_store(open_store(dir.path()).expect("open"));
    let cold = run_batch(&cold_ctx, &batch, 2);
    let cold_counters = cold_ctx.cache.counters();
    assert!(cold_counters.misses > 0, "cold pass must reach the engine");
    drop(cold_ctx); // server restart: flushes the index

    for jobs in THREAD_LADDER {
        let warm_ctx = Ctx::with_store(open_store(dir.path()).expect("reopen"));
        let warm = run_batch(&warm_ctx, &batch, jobs);
        assert_eq!(warm, cold, "warm replay at jobs={jobs} diverged from cold");
        let c = warm_ctx.cache.counters();
        assert_eq!(c.misses, 0, "warm replay reached the engine at jobs={jobs}");
        assert!(c.disk_hits > 0, "warm replay never touched the store");
    }
}

#[test]
fn identical_inflight_queries_cost_one_engine_miss() {
    // Two copies of the same query in one batch, evaluated on two worker
    // threads: the cache's per-key slot lock is a single-flight map, so
    // one thread computes (miss) and the other blocks on the slot and
    // reads the fresh value (memory hit).
    let line = r#"{"id": 1, "queries": [
        {"app": "hpl", "machine": "cte-arm", "nodes": 16},
        {"app": "hpl", "machine": "cte-arm", "nodes": 16}]}"#
        .replace('\n', " ");
    let ctx = Ctx::new();
    let response = at(2, || respond(&ctx, &line, 2));
    let c = ctx.cache.counters();
    assert_eq!(c.misses, 1, "dedupe failed: both in-flight copies computed");
    assert_eq!(c.mem_hits, 1, "the second copy must be a memory hit");
    // Both result slots hold the same bytes.
    let results = response.split("},{").count();
    assert_eq!(results, 2, "{response}");
    let body = response
        .strip_prefix("{\"id\":1,\"results\":[")
        .and_then(|r| r.strip_suffix("]}"))
        .expect("well-formed response");
    let split = body.find("},{").expect("two objects") + 1;
    assert_eq!(
        body[..split],
        body[split + 1..],
        "duplicate queries must answer identically"
    );
}

#[test]
fn warm_replay_is_answered_on_the_calling_thread() {
    let batch = canned_batch();
    let dir = TempDir::new("serve-inline");
    run_batch(
        &Ctx::with_store(open_store(dir.path()).expect("open")),
        &batch,
        2,
    );
    for jobs in THREAD_LADDER {
        let ctx = Ctx::with_store(open_store(dir.path()).expect("reopen"));
        let before = ctx.cache.counters();
        Cache::reset_thread_counters();
        let _ = run_batch(&ctx, &batch, jobs);
        let delta = ctx.cache.counters().since(&before);
        assert_eq!(
            (delta.mem_hits, delta.disk_hits, delta.misses),
            (5, 45, 0),
            "jobs={jobs}"
        );
        assert_eq!(
            Cache::thread_counters(),
            delta,
            "a stored query went to a worker at jobs={jobs}"
        );
    }
}

#[test]
fn mixed_requests_keep_bytes_and_ledger() {
    // Slots: stored on disk, unstored, invalid, unstored, the first
    // unstored again, stored in memory, the disk one again.
    let on_disk = r#"{"app": "hpl", "machine": "cte-arm", "nodes": 4}"#;
    let in_memory = r#"{"app": "hpcg", "machine": "mn4", "nodes": 2, "version": "vanilla"}"#;
    let unstored = r#"{"app": "gromacs", "machine": "mn4", "nodes": 1}"#;
    let other = r#"{"app": "wrf", "machine": "cte-arm", "nodes": 1, "io": true}"#;
    let invalid = r#"{"app": "alya", "machine": "cte-arm", "nodes": 1}"#;
    let request = |id: u32, queries: &[&str]| {
        format!("{{\"id\": {id}, \"queries\": [{}]}}", queries.join(", "))
    };
    let mixed = request(
        3,
        &[
            on_disk, unstored, invalid, other, unstored, in_memory, on_disk,
        ],
    );
    let reference = respond(&Ctx::new(), &mixed, 1);
    assert!(reference.contains("does not fit"), "{reference}");
    for pool in THREAD_LADDER {
        for jobs in THREAD_LADDER {
            let dir = TempDir::new("serve-mixed");
            respond(
                &Ctx::with_store(open_store(dir.path()).expect("open")),
                &request(1, &[on_disk]),
                1,
            );
            let ctx = Ctx::with_store(open_store(dir.path()).expect("reopen"));
            respond(&ctx, &request(2, &[in_memory]), 1);
            let before = ctx.cache.counters();
            Cache::reset_thread_counters();
            let out = at(pool, || respond(&ctx, &mixed, jobs));
            assert_eq!(out, reference, "pool={pool} jobs={jobs}");
            let total = ctx.cache.counters().since(&before);
            let calling = Cache::thread_counters();
            let ledger = |c: TierCounters| (c.mem_hits, c.disk_hits, c.misses);
            assert_eq!(ledger(total), (3, 1, 2), "pool={pool} jobs={jobs}");
            assert_eq!(ledger(calling), (2, 1, 0), "pool={pool} jobs={jobs}");
        }
    }
}

#[test]
fn dedupe_also_spans_requests_within_a_session() {
    // The canned batch repeats 5 of its 50 queries; a full serve session
    // must charge 45 misses and 5 memory hits, at every jobs level.
    let batch = canned_batch();
    for jobs in THREAD_LADDER {
        let ctx = Ctx::new();
        let _ = run_batch(&ctx, &batch, jobs);
        let c = ctx.cache.counters();
        assert_eq!(
            (c.misses, c.mem_hits, c.disk_hits),
            (45, 5, 0),
            "cache traffic shifted at jobs={jobs}"
        );
    }
}

#[test]
fn error_lines_are_deterministic_and_in_order() {
    let lines = vec![
        "this is not json".to_string(),
        r#"{"queries": []}"#.to_string(),
        r#"{"id": 7, "queries": [{"app": "alya", "machine": "cte-arm", "nodes": 1}]}"#.to_string(),
        r#"{"id": 8, "queries": [{"app": "hpl", "machine": "vax", "nodes": 4}]}"#.to_string(),
        // Hostile nesting must be an error line, not a stack overflow.
        "[".repeat(200_000),
        // 2^53 + 1 parses to the f64 2^53: refused, not echoed as 2^53.
        r#"{"id": 9007199254740993, "queries": []}"#.to_string(),
    ];
    let expected = [
        "{\"id\":null,\"error\":",
        "{\"id\":null,\"error\":\"request needs an integer 'id' field\"}",
        "{\"id\":7,\"results\":[{\"error\":\"alya does not fit on 1 nodes of CTE-Arm (needs >= 12)\"}]}",
        "{\"id\":8,\"results\":[{\"error\":\"unknown machine 'vax' (cte-arm | mn4)\"}]}",
        "{\"id\":null,\"error\":\"nesting deeper than 64 levels at byte 64\"}",
        "{\"id\":null,\"error\":\"request needs an integer 'id' field\"}",
    ];
    for jobs in THREAD_LADDER {
        let out = run_batch(&Ctx::new(), &lines, jobs);
        assert_eq!(out.len(), lines.len(), "every request gets a response line");
        for (got, want) in out.iter().zip(expected) {
            assert!(got.starts_with(want), "jobs={jobs}: {got} !~ {want}");
        }
    }
}

#[test]
fn serve_loop_streams_one_line_per_request() {
    // Drive the real reader/writer loop, not just run_batch.
    let batch = canned_batch();
    let input = batch.join("\n");
    let mut out = Vec::new();
    let mut log = Vec::new();
    let summary = cluster_eval::serve::serve(
        &Ctx::new(),
        std::io::BufReader::new(input.as_bytes()),
        &mut out,
        &mut log,
        2,
    )
    .expect("serve");
    assert_eq!(summary.requests, 10);
    assert_eq!(summary.queries, 50);
    let text = String::from_utf8(out).expect("utf8 responses");
    assert_eq!(text.lines().count(), 10);
    assert_eq!(run_batch(&Ctx::new(), &batch, 2).join("\n") + "\n", text);
}

#[test]
fn serve_summary_counts_every_answered_query() {
    // Two computed queries, one query answered with an error in its slot,
    // and two requests refused whole: 4 requests, 3 answered queries,
    // though only 2 of them touched the cache.
    let input = [
        r#"{"id": 1, "queries": [{"app": "hpl", "machine": "cte-arm", "nodes": 2}, {"app": "hpl", "machine": "mn4", "nodes": 2}]}"#,
        r#"{"id": 2, "queries": [{"app": "nope", "machine": "cte-arm", "nodes": 1}]}"#,
        "not json",
        r#"{"id": 4}"#,
    ]
    .join("\n");
    for jobs in THREAD_LADDER {
        let summary = cluster_eval::serve::serve(
            &Ctx::new(),
            input.as_bytes(),
            std::io::sink(),
            std::io::sink(),
            jobs,
        )
        .expect("serve");
        assert_eq!(summary.requests, 4, "jobs={jobs}");
        assert_eq!(summary.queries, 3, "jobs={jobs}");
        assert_eq!(summary.counters.total(), 2, "jobs={jobs}");
    }
}

/// Drive the real reader/writer loop over a valid request, the `bad`
/// line and another valid request, and return the response lines.
fn serve_around(bad: &[u8]) -> Vec<String> {
    let first = r#"{"id": 1, "queries": [{"app": "hpl", "machine": "cte-arm", "nodes": 4}]}"#;
    let last = r#"{"id": 2, "queries": [{"app": "hpl", "machine": "mn4", "nodes": 4}]}"#;
    let input = [first.as_bytes(), bad, last.as_bytes()].join(&b'\n');
    let mut out = Vec::new();
    let summary = cluster_eval::serve::serve(
        &Ctx::new(),
        std::io::BufReader::new(input.as_slice()),
        &mut out,
        std::io::sink(),
        2,
    )
    .expect("a bad line must not end the session");
    assert_eq!(summary.requests, 3);
    let lines: Vec<String> = String::from_utf8(out)
        .expect("utf8 responses")
        .lines()
        .map(String::from)
        .collect();
    let ctx = Ctx::new();
    assert_eq!(
        lines.len(),
        3,
        "one response line per input line: {lines:?}"
    );
    assert_eq!(lines[0], respond(&ctx, first, 1));
    assert_eq!(lines[2], respond(&ctx, last, 1));
    lines
}

#[test]
fn invalid_utf8_line_is_answered_and_skipped() {
    let lines = serve_around(b"\xff\xfe");
    assert_eq!(
        lines[1],
        "{\"id\":null,\"error\":\"request line is not valid UTF-8\"}"
    );
}

#[test]
fn overlong_line_is_answered_and_skipped() {
    // A valid request padded past the cap: it must be refused whole, and
    // its tail must not be read as a request of its own.
    let mut bad = br#"{"id": 9, "queries": []}"#.to_vec();
    bad.resize(MAX_LINE_BYTES + 100, b' ');
    let lines = serve_around(&bad);
    assert_eq!(
        lines[1],
        format!("{{\"id\":null,\"error\":\"request line longer than {MAX_LINE_BYTES} bytes\"}}")
    );
}

/// Characters that stress the string codec: controls, quotes, backslashes,
/// the escape-free ASCII range, and scalars from every UTF-8 width.
fn hostile_char((class, raw): (u8, u32)) -> Option<char> {
    let code = match class {
        0 => raw % 0x80,
        1 => [0x22, 0x5c, 0x2f, 0x0a, 0x0d, 0x09, 0x00, 0x1f, 0x7f][raw as usize % 9],
        2 => raw % 0x1_0000,
        _ => raw % 0x11_0000,
    };
    char::from_u32(code) // drops surrogates
}

/// Fragments a hostile request line is assembled from, space-separated:
/// JSON syntax, the protocol's keys, bad escapes and multi-byte characters.
const FRAGMENTS: &str = r#"{ } [ ] " : , \ \u \ud800 "id" "queries" -1 1e999 null true é€𝄞"#;

/// Assemble a newline-free line from `(pick, byte)` draws: mostly
/// fragments and ASCII bytes, with one draw in 32 an arbitrary byte, so
/// lines both reach the parser and break UTF-8.
fn hostile_line(parts: Vec<(usize, u8)>) -> Vec<u8> {
    let fragments: Vec<&str> = FRAGMENTS.split(' ').collect();
    let mut line = Vec::new();
    for (pick, byte) in parts {
        if let Some(fragment) = fragments.get(pick) {
            line.extend_from_slice(fragment.as_bytes());
            continue;
        }
        let byte = if pick == 31 { byte } else { byte % 0x80 };
        line.push(if byte == b'\n' { b' ' } else { byte });
    }
    line
}

/// `c` written as `\uXXXX` escapes of its UTF-16 code units.
fn utf16_escapes(c: char) -> String {
    c.encode_utf16(&mut [0; 2])
        .iter()
        .map(|unit| format!("\\u{unit:04x}"))
        .collect()
}

proptest! {
    #[test]
    fn utf16_escapes_parse_back_to_their_scalar(raw in 0u32..0x11_0000) {
        let c = char::from_u32(raw).unwrap_or('\u{fffd}');
        let parsed = json::parse(&format!("\"{}\"", utf16_escapes(c)));
        prop_assert_eq!(parsed, Ok(Value::Str(c.to_string())));
    }

    #[test]
    fn escaped_strings_parse_back_exactly(chars in vec((0u8..4, 0u32..0x11_0000), 0..64)) {
        let s: String = chars.iter().copied().filter_map(hostile_char).collect();
        let parsed = json::parse(&format!("\"{}\"", json::escape(&s)));
        prop_assert_eq!(parsed, Ok(Value::Str(s)));
    }

    #[test]
    fn hostile_lines_get_one_parsable_answer_each(
        lines in vec(vec((0usize..32, 0u8..=255), 0..48).prop_map(hostile_line), 1..6),
    ) {
        let first = br#"{"id": 1, "queries": []}"#;
        let last = br#"{"id": 2, "queries": []}"#;
        let mut input = first.to_vec();
        for line in &lines {
            input.push(b'\n');
            input.extend_from_slice(line);
        }
        input.push(b'\n');
        input.extend_from_slice(last);
        let mut out = Vec::new();
        let ctx = Ctx::new();
        cluster_eval::serve::serve(&ctx, input.as_slice(), &mut out, std::io::sink(), 2)
            .expect("a hostile line must not end the session");
        // serve drops one trailing '\r' and skips blank lines unanswered.
        let answered = lines
            .iter()
            .filter(|l| {
                let l = l.strip_suffix(b"\r").unwrap_or(l);
                !std::str::from_utf8(l).is_ok_and(|l| l.trim().is_empty())
            })
            .count();
        let text = String::from_utf8(out).expect("utf8 responses");
        let answers: Vec<&str> = text.lines().collect();
        prop_assert_eq!(answers.len(), answered + 2, "{:?}", answers);
        prop_assert_eq!(answers[0], r#"{"id":1,"results":[]}"#);
        prop_assert_eq!(answers[answers.len() - 1], r#"{"id":2,"results":[]}"#);
        for answer in &answers {
            prop_assert!(json::parse(answer).is_ok(), "unparsable answer {answer}");
            prop_assert!(!answer.contains("panicked in the engine"), "{answer}");
        }
    }
}

#[test]
fn absurd_queries_fail_in_their_slots_without_engine_work() {
    let cases = [
        (
            r#"{"app": "hpl", "machine": "cte-arm", "nodes": 0}"#,
            "nodes=0 out of range for CTE-Arm (1..=192)",
        ),
        (
            r#"{"app": "hpl", "machine": "cte-arm", "nodes": 193}"#,
            "nodes=193 out of range for CTE-Arm (1..=192)",
        ),
        (
            r#"{"app": "hpl", "machine": "cte-arm", "nodes": 9007199254740992}"#,
            "query needs an integer 'nodes' field",
        ),
        (
            r#"{"app": "hpl", "machine": "cte-arm", "nodes": 1e300}"#,
            "query needs an integer 'nodes' field",
        ),
        (
            r#"{"app": "hpl", "machine": "cte-arm", "nodes": -1}"#,
            "query needs an integer 'nodes' field",
        ),
        (
            r#"{"app": "hpl", "machine": "cte-arm", "nodes": 1.5}"#,
            "query needs an integer 'nodes' field",
        ),
        (
            r#"{"app": "doom", "machine": "cte-arm", "nodes": 4}"#,
            "unknown app 'doom' (alya | nemo | wrf | openifs | gromacs | hpl | hpcg)",
        ),
        (
            r#"{"app": "hpl", "machine": "vax", "nodes": 4}"#,
            "unknown machine 'vax' (cte-arm | mn4)",
        ),
        (
            r#"{"app": "hpl", "machine": "cte-arm", "nodes": 4, "nodes": 0}"#,
            "nodes=0 out of range for CTE-Arm (1..=192)",
        ),
    ];
    let queries: Vec<&str> = cases.iter().map(|(q, _)| *q).collect();
    let line = format!("{{\"id\": 5, \"queries\": [{}]}}", queries.join(", "));
    let errors: Vec<String> = cases
        .iter()
        .map(|(_, e)| format!("{{\"error\":\"{e}\"}}"))
        .collect();
    let want = format!("{{\"id\":5,\"results\":[{}]}}", errors.join(","));
    for jobs in THREAD_LADDER {
        let ctx = Ctx::new();
        assert_eq!(respond(&ctx, &line, jobs), want, "jobs={jobs}");
        let c = ctx.cache.counters();
        assert_eq!(
            (c.mem_hits, c.disk_hits, c.misses),
            (0, 0, 0),
            "jobs={jobs}"
        );
    }
}
