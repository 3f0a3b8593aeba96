//! `cluster-eval` — command-line front end of the evaluation harness.
//!
//! ```text
//! cluster-eval list                 list every experiment (paper + extensions)
//! cluster-eval run <id> [--csv]     regenerate one artifact (fig1..fig16, table1..table4, ext_*)
//! cluster-eval run --all [--jobs N] [--filter GLOB]
//!                                   run the registry on a worker pool with a shared cache
//! cluster-eval bench-all [--csv]    run everything, report wall time and cache hits/misses
//! cluster-eval bench-all --json     measure host kernel throughput (1 thread vs pool)
//!                                   and print the BENCH_host.json snapshot
//! cluster-eval bench-delta [--max-var PCT]
//!                                   run the kernel benches twice and fail if any
//!                                   kernel's run-to-run variance exceeds PCT% (default 30)
//! cluster-eval report [dir]         write all artifacts to <dir> (default ./report)
//! cluster-eval cache-model [--machine cte-arm|mn4]
//!                                   per-level hit/miss/traffic tables and %-of-peak
//!                                   predictions from the cache-hierarchy simulator
//! cluster-eval table4               shortcut for the speedup summary
//! cluster-eval faults --campaign <name> [--jobs N] [--csv]
//!                                   run an F-series fault-injection campaign
//! cluster-eval faults --list        list registered campaigns
//! cluster-eval serve [--jobs N] [--store DIR]
//!                                   answer line-delimited JSON query batches on
//!                                   stdin; with --store, results persist across
//!                                   restarts in a content-addressed disk store
//! cluster-eval serve --smoke FILE [--jobs N]
//!                                   cold/warm self-test: replay FILE against a
//!                                   fresh store, reopen, replay again; fail
//!                                   unless warm is byte-identical, engine-free
//!                                   and >10x faster
//! ```

use cluster_eval::engine::{filter_experiments, run_experiments, suggestions, Ctx, RunReport};
use cluster_eval::experiments::{all_experiments, run};
use cluster_eval::extensions::{extension_experiments, run_extension};
use cluster_eval::faults::{campaign, campaigns, run_campaign};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  cluster-eval list\n  cluster-eval run <id> [--csv]\n  \
         cluster-eval run --all [--jobs N] [--filter GLOB]\n  \
         cluster-eval bench-all [--csv|--json]\n  \
         cluster-eval bench-delta [--max-var PCT]\n  \
         cluster-eval report [dir]\n  cluster-eval cache-model [--machine cte-arm|mn4]\n  \
         cluster-eval table4\n  cluster-eval validate\n  \
         cluster-eval faults --campaign <name> [--jobs N] [--csv]\n  \
         cluster-eval faults --list\n  \
         cluster-eval serve [--jobs N] [--store DIR]\n  \
         cluster-eval serve --smoke FILE [--jobs N]\n  \
         cluster-eval sched-replay [--machine fugaku|cte-arm] [--days N] \
[--jobs-per-day N]\n                            \
[--policy best-fit|first-fit|random] [--seed N] [--strict-fcfs] [--csv]\n  \
         cluster-eval sched-replay --smoke"
    );
    ExitCode::from(2)
}

/// Parse `--jobs N` (default: 1) and `--filter GLOB` (default: none).
fn parse_engine_flags(args: &[String]) -> Result<(usize, Option<String>), String> {
    let mut jobs = 1usize;
    let mut filter = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                jobs = v.parse().map_err(|_| format!("bad --jobs value '{v}'"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--filter" => {
                filter = Some(it.next().ok_or("--filter needs a glob")?.clone());
            }
            "--all" | "--csv" => {}
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok((jobs, filter))
}

fn print_run_summary(reports: &[RunReport]) {
    let total_mem: u64 = reports.iter().map(|r| r.mem_hits).sum();
    let total_disk: u64 = reports.iter().map(|r| r.disk_hits).sum();
    let total_misses: u64 = reports.iter().map(|r| r.misses).sum();
    println!(
        "{:<10} {:>10} {:>8} {:>8} {:>8}  title",
        "id", "wall [ms]", "mem", "disk", "misses"
    );
    for r in reports {
        println!(
            "{:<10} {:>10.1} {:>8} {:>8} {:>8}  {}",
            r.id,
            r.wall.as_secs_f64() * 1e3,
            r.mem_hits,
            r.disk_hits,
            r.misses,
            r.title
        );
    }
    println!(
        "{} experiments, {total_mem} mem hits / {total_disk} disk hits / {total_misses} misses",
        reports.len()
    );
}

fn reports_csv(reports: &[RunReport]) -> String {
    let mut out = String::from("id,section,wall_ms,mem_hits,disk_hits,misses\n");
    for r in reports {
        out.push_str(&format!(
            "{},{},{:.3},{},{},{}\n",
            r.id,
            r.section,
            r.wall.as_secs_f64() * 1e3,
            r.mem_hits,
            r.disk_hits,
            r.misses
        ));
    }
    out
}

fn run_all(args: &[String]) -> ExitCode {
    let (jobs, filter) = match parse_engine_flags(args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    let selected = filter_experiments(all_experiments(), filter.as_deref());
    if selected.is_empty() {
        eprintln!(
            "--filter '{}' matches no experiment",
            filter.unwrap_or_default()
        );
        return ExitCode::FAILURE;
    }
    let ctx = Ctx::new();
    let reports = run_experiments(selected, jobs, &ctx);
    print_run_summary(&reports);
    ExitCode::SUCCESS
}

fn run_one(id: &str, csv: bool) -> ExitCode {
    match run(id).or_else(|| run_extension(id)) {
        Some(a) => {
            print!("{}", if csv { a.to_csv() } else { a.to_text() });
            ExitCode::SUCCESS
        }
        None => {
            let registry: Vec<&str> = all_experiments()
                .iter()
                .map(|e| e.id)
                .chain(extension_experiments().iter().map(|e| e.id))
                .collect();
            let near = suggestions(id, registry);
            if near.is_empty() {
                eprintln!("unknown experiment '{id}' — try `cluster-eval list`");
            } else {
                eprintln!(
                    "unknown experiment '{id}' — did you mean {}?",
                    near.join(" or ")
                );
            }
            ExitCode::FAILURE
        }
    }
}

fn bench_all(args: &[String]) -> ExitCode {
    let csv = match args {
        [] => false,
        [flag] if flag == "--csv" => true,
        [flag] if flag == "--json" => {
            // Host-kernel mode: measure what the parallel runtime delivers
            // on *this* machine (1 thread vs full pool) and emit the
            // BENCH_host.json snapshot.
            print!("{}", cluster_eval::hostbench::run_host_bench().to_json());
            return ExitCode::SUCCESS;
        }
        _ => {
            eprintln!(
                "bench-all takes at most one of --csv or --json, got '{}'",
                args.join(" ")
            );
            return usage();
        }
    };
    let ctx = Ctx::new();
    let mut experiments = all_experiments();
    experiments.extend(extension_experiments());
    let reports = run_experiments(experiments, 1, &ctx);
    if csv {
        print!("{}", reports_csv(&reports));
    } else {
        print_run_summary(&reports);
    }
    ExitCode::SUCCESS
}

/// The bench regression gate: run the calibrated kernel benches twice and
/// fail if any kernel's two throughput readings disagree by more than
/// `--max-var` percent (default 30). A pass means the calibrated timing is
/// stable enough on this host for `BENCH_host.json` deltas to be
/// attributed to code changes rather than measurement noise.
fn bench_delta(args: &[String]) -> ExitCode {
    let mut max_var = 30.0f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--max-var" => {
                let Some(v) = it.next() else {
                    eprintln!("--max-var needs a percentage");
                    return usage();
                };
                match v.parse::<f64>() {
                    Ok(p) if p > 0.0 => max_var = p,
                    _ => {
                        eprintln!("bad --max-var value '{v}'");
                        return usage();
                    }
                }
            }
            other => {
                eprintln!("unknown flag '{other}'");
                return usage();
            }
        }
    }
    let pool_threads = rayon::current_num_threads();
    let first = cluster_eval::hostbench::run_kernel_benches(pool_threads);
    let second = cluster_eval::hostbench::run_kernel_benches(pool_threads);
    let mut worst = 0.0f64;
    let mut failures = 0usize;
    println!(
        "{:<16} {:>12} {:>12} {:>9}  ({} thread pool, limit {:.0}%)",
        "kernel", "run1", "run2", "delta", pool_threads, max_var
    );
    for (a, b) in first.iter().zip(&second) {
        // Compare every reported column; on a 1-wide pool value_nt
        // duplicates value_1t, so the extra check is free.
        for (label, va, vb) in [
            ("1t", a.value_1t, b.value_1t),
            ("nt", a.value_nt, b.value_nt),
        ] {
            if pool_threads == 1 && label == "nt" {
                continue;
            }
            let mid = 0.5 * (va + vb);
            let rel = if mid > 0.0 {
                100.0 * (va - vb).abs() / mid
            } else {
                100.0
            };
            worst = worst.max(rel);
            let over = rel > max_var;
            if over {
                failures += 1;
            }
            println!(
                "{:<16} {:>9.3} {} {:>9.3} {} {:>8.1}%{}",
                format!("{}/{}", a.name, label),
                va,
                a.metric,
                vb,
                b.metric,
                rel,
                if over { "  EXCEEDS LIMIT" } else { "" }
            );
        }
    }
    if failures == 0 {
        println!("bench-delta PASS: worst variance {worst:.1}% <= {max_var:.0}%");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench-delta FAIL: {failures} reading(s) above {max_var:.0}% \
             run-to-run variance (worst {worst:.1}%)"
        );
        ExitCode::FAILURE
    }
}

/// The full-Fugaku scale campaign: closed-form sweep + folded-table probe
/// battery at 158 976 nodes. Separate from the registry because it skips
/// the O(n²) Fig.-4 machinery entirely.
fn run_fugaku_smoke(csv: bool) -> ExitCode {
    let report = cluster_eval::faults::run_fugaku_smoke();
    // The summary carries wall times; keep it off stdout in CSV mode so
    // the CSV stream stays byte-identical run to run (campaign
    // determinism contract).
    let summary = format!(
        "fugaku-smoke: {} nodes, pair table {:.2} MB in {:.1} ms, \
         closed-form sweep {:.1} ms (max/mean link load {:.1}/{:.1}, mean hops {:.2}), \
         {} messages priced",
        report.nodes,
        report.table_bytes as f64 / (1024.0 * 1024.0),
        report.table_build_ms,
        report.sweep_ms,
        report.link_load.0,
        report.link_load.1,
        report.mean_hops,
        report.messages_priced,
    );
    if csv {
        eprintln!("{summary}");
    } else {
        println!("{summary}");
    }
    let artifact = cluster_eval::experiments::Artifact::Table(report.table.clone());
    print!(
        "{}",
        if csv {
            artifact.to_csv()
        } else {
            artifact.to_text()
        }
    );
    let misses = report.trials.iter().filter(|t| !t.fingerprint_hit).count();
    if misses == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{misses} trial(s) failed to fingerprint their injected nodes");
        ExitCode::FAILURE
    }
}

fn run_faults(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--list") {
        println!("fault campaigns:");
        for c in campaigns() {
            println!("  {:12} {}", c.name, c.title);
        }
        println!(
            "  {:12} Machine-scale smoke: folded-table probe battery at 158 976 nodes",
            "fugaku-smoke"
        );
        return ExitCode::SUCCESS;
    }
    let mut jobs = 1usize;
    let mut name: Option<String> = None;
    let mut csv = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--campaign" => {
                let Some(v) = it.next() else {
                    eprintln!("--campaign needs a name");
                    return usage();
                };
                name = Some(v.clone());
            }
            "--jobs" => {
                let Some(v) = it.next() else {
                    eprintln!("--jobs needs a value");
                    return usage();
                };
                match v.parse::<usize>() {
                    Ok(j) if j >= 1 => jobs = j,
                    _ => {
                        eprintln!("bad --jobs value '{v}'");
                        return usage();
                    }
                }
            }
            "--csv" => csv = true,
            other => {
                eprintln!("unknown flag '{other}'");
                return usage();
            }
        }
    }
    let Some(name) = name else {
        eprintln!("faults needs --campaign <name> (or --list)");
        return usage();
    };
    if name == "fugaku-smoke" {
        return run_fugaku_smoke(csv);
    }
    let Some(c) = campaign(&name) else {
        let known: Vec<&str> = campaigns()
            .iter()
            .map(|c| c.name)
            .chain(std::iter::once("fugaku-smoke"))
            .collect();
        eprintln!("unknown campaign '{name}' — known: {}", known.join(", "));
        return ExitCode::FAILURE;
    };
    let ctx = Ctx::new();
    let report = run_campaign(&ctx, &c, jobs);
    eprintln!("{}: {} messages priced", c.name, report.messages_priced);
    let artifact = report.artifact();
    print!(
        "{}",
        if csv {
            artifact.to_csv()
        } else {
            artifact.to_text()
        }
    );
    let misses = report.trials.iter().filter(|t| !t.fingerprint_hit).count();
    if misses == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{misses} trial(s) failed to fingerprint their injected nodes");
        ExitCode::FAILURE
    }
}

fn run_serve(args: &[String]) -> ExitCode {
    let mut jobs = 1usize;
    let mut store_dir: Option<String> = None;
    let mut smoke_file: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => jobs = v,
                _ => {
                    eprintln!("--jobs needs an integer >= 1");
                    return usage();
                }
            },
            "--store" => match it.next() {
                Some(d) => store_dir = Some(d.clone()),
                None => {
                    eprintln!("--store needs a directory");
                    return usage();
                }
            },
            "--smoke" => match it.next() {
                Some(f) => smoke_file = Some(f.clone()),
                None => {
                    eprintln!("--smoke needs a batch file");
                    return usage();
                }
            },
            other => {
                eprintln!("unknown flag '{other}'");
                return usage();
            }
        }
    }

    if let Some(file) = smoke_file {
        return match cluster_eval::serve::smoke(std::path::Path::new(&file), jobs, 10.0) {
            Ok(r) => {
                println!(
                    "serve smoke PASS: cold {:.1} ms ({} misses) -> warm {:.1} ms \
                     ({} disk / {} mem hits, 0 misses), {:.0}x",
                    r.cold_ms,
                    r.cold.misses,
                    r.warm_ms,
                    r.warm.disk_hits,
                    r.warm.mem_hits,
                    r.cold_ms / r.warm_ms.max(1e-9)
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("serve smoke FAIL: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let ctx = match &store_dir {
        Some(dir) => match cluster_eval::serve::open_store(std::path::Path::new(dir)) {
            Ok(store) => {
                eprintln!(
                    "serve: store {} ({} records, model {:016x})",
                    dir,
                    store.records(),
                    store.model_hash()
                );
                Ctx::with_store(store)
            }
            Err(e) => {
                eprintln!("cannot open store '{dir}': {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Ctx::new(),
    };
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    match cluster_eval::serve::serve(&ctx, stdin.lock(), stdout.lock(), std::io::stderr(), jobs) {
        Ok(s) => {
            eprintln!(
                "serve: {} requests, {} queries ({} mem / {} disk / {} miss)",
                s.requests, s.queries, s.counters.mem_hits, s.counters.disk_hits, s.counters.misses
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_sched_replay(args: &[String]) -> ExitCode {
    use cluster_eval::schedreplay;
    let mut config = schedreplay::ReplayConfig::fugaku_month();
    let mut csv = false;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--machine" => match it.next() {
                Some(m) if schedreplay::machine_topo(m).is_some() => config.machine = m.clone(),
                other => {
                    eprintln!(
                        "unknown --machine '{}' — known: fugaku, cte-arm",
                        other.map(String::as_str).unwrap_or("")
                    );
                    return usage();
                }
            },
            "--days" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => config.days = v,
                _ => {
                    eprintln!("--days needs an integer >= 1");
                    return usage();
                }
            },
            "--jobs-per-day" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => config.jobs_per_day = v,
                _ => {
                    eprintln!("--jobs-per-day needs an integer >= 1");
                    return usage();
                }
            },
            "--policy" => match it.next().and_then(|p| schedreplay::parse_policy(p)) {
                Some(p) => config.policy = p,
                None => {
                    eprintln!("unknown --policy — known: best-fit, first-fit, random");
                    return usage();
                }
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => config.seed = v,
                None => {
                    eprintln!("--seed needs an integer");
                    return usage();
                }
            },
            "--strict-fcfs" => config.backfill = false,
            "--csv" => csv = true,
            "--smoke" => smoke = true,
            other => {
                eprintln!("unknown flag '{other}'");
                return usage();
            }
        }
    }
    if smoke {
        return match schedreplay::smoke() {
            Ok(msg) => {
                println!("sched smoke PASS: {msg}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("sched smoke FAIL: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let out = schedreplay::run_replay(&config);
    if csv {
        print!("{}", out.to_csv());
    } else {
        print!("{}", out.to_text());
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("paper artifacts:");
            for e in all_experiments() {
                println!("  {:8} [Sec. {:5}] {}", e.id, e.section, e.title);
            }
            println!("extensions:");
            for e in extension_experiments() {
                println!("  {:16} [{}] {}", e.id, e.section, e.title);
            }
            ExitCode::SUCCESS
        }
        Some("run") => {
            if args.iter().any(|a| a == "--all") {
                return run_all(&args[1..]);
            }
            let Some(id) = args.get(1) else {
                return usage();
            };
            if id.starts_with("--") {
                return usage();
            }
            run_one(id, args.iter().any(|a| a == "--csv"))
        }
        Some("bench-all") => bench_all(&args[1..]),
        Some("bench-delta") => bench_delta(&args[1..]),
        Some("report") => {
            let dir = args.get(1).cloned().unwrap_or_else(|| "report".into());
            match cluster_eval::report::generate_report(std::path::Path::new(&dir)) {
                Ok(artifacts) => {
                    println!("wrote {} artifacts to {dir}", artifacts.len());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("report generation failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("validate") => {
            let t = cluster_eval::validation::validation_report();
            print!("{}", t.to_text());
            let failing = cluster_eval::validation::checks()
                .iter()
                .filter(|c| !c.passes())
                .count();
            if failing == 0 {
                println!("\nall checks PASS");
                ExitCode::SUCCESS
            } else {
                println!("\n{failing} checks FAIL");
                ExitCode::FAILURE
            }
        }
        Some("cache-model") => {
            let machine = match &args[1..] {
                [] => arch::machines::cte_arm(),
                [flag, m] if flag == "--machine" && m == "cte-arm" => arch::machines::cte_arm(),
                [flag, m] if flag == "--machine" && m == "mn4" => arch::machines::marenostrum4(),
                other => {
                    eprintln!(
                        "cache-model takes only --machine cte-arm|mn4, got '{}'",
                        other.join(" ")
                    );
                    return usage();
                }
            };
            match cluster_eval::cachemodel::render_report(&machine) {
                Some(r) => {
                    print!("{r}");
                    ExitCode::SUCCESS
                }
                None => {
                    eprintln!("no hierarchy config for machine '{}'", machine.name);
                    ExitCode::FAILURE
                }
            }
        }
        Some("faults") => run_faults(&args[1..]),
        Some("serve") => run_serve(&args[1..]),
        Some("sched-replay") => run_sched_replay(&args[1..]),
        Some("table4") => {
            let a = run("table4").expect("table4 is registered");
            print!("{}", a.to_text());
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
