//! `perfbench`: the end-to-end and per-layer benchmark of the `regen`,
//! `whatif` and `sched-replay` user paths. `run.py` runs it; see
//! `README.md` beside this crate for the design.
//!
//! ```text
//! perfbench run   --workload W --seed N --seconds S --trace 0|1 --root DIR --work DIR [--spans FILE]
//! perfbench setup --workload W --seed N --root DIR --work DIR
//! perfbench probe
//! ```
//!
//! `run` and `setup` print one JSON line on stdout; everything meant for a
//! person goes to stderr. A `run` reports `op_p50_ms` and `work_per_s`
//! untraced; traced (`--trace 1`), it reports its exact counts, the
//! tracing overhead and each layer's share of its phase's time.

mod probe;
mod regen;
mod replay;
mod stats;
mod trace;
mod whatif;

use stats::Outcome;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::{Span, Tracer};

/// Widest thread pool the benchmark uses, capped at the host's cores.
const POOL_WIDTH: usize = 2;

/// The measuring window of one run.
pub struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    /// Whether to start another operation: always until `min` are done,
    /// then while the window is open.
    pub fn more(&self, done: usize, min: usize) -> bool {
        done < min || self.start.elapsed().as_secs_f64() < self.seconds
    }
}

enum Prepared {
    Regen(regen::Setup),
    Whatif(whatif::Setup),
    Replay(replay::Setup),
}

fn prepare(
    workload: &str,
    seed: u64,
    root: &Path,
    work: &Path,
    tracer: Option<&Tracer>,
) -> Result<Prepared, String> {
    match workload {
        "regen" => regen::setup(root).map(Prepared::Regen),
        "whatif" => whatif::setup(seed, work, tracer).map(Prepared::Whatif),
        "sched-replay" => replay::setup(seed).map(Prepared::Replay),
        other => Err(format!(
            "unknown workload '{other}' (regen | whatif | sched-replay)"
        )),
    }
}

fn measure(p: Prepared, budget: &Budget, tracer: Option<&Arc<Tracer>>) -> Result<Outcome, String> {
    Ok(match p {
        Prepared::Regen(s) => regen::run(s, budget, tracer),
        Prepared::Whatif(s) => whatif::run(s, budget, tracer.map(|t| &**t))?,
        Prepared::Replay(s) => replay::run(s, budget, tracer.map(|t| &**t)),
    })
}

/// Report each layer's share of its phase's time (`<phase>.<layer>_pct`),
/// and print the same split as mean milliseconds per operation.
fn push_layers(out: &mut Outcome, spans: &[Span]) {
    for (phase, p) in trace::layers(spans) {
        for (layer, &ns) in &p.self_ns {
            let share = p.share_pct(layer);
            eprintln!(
                "layer {phase}.{layer}: {:.4} ms per operation, {share:.2} % of {} operations",
                ns as f64 * 1e-6 / p.ops as f64,
                p.ops
            );
            out.push(format!("{phase}.{layer}_pct"), share, "%", p.ops);
        }
    }
}

fn render(setup_s: f64, out: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::new();
    for m in &out.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
        metrics.push(format!(
            "{{\"name\":\"{}\",\"value\":{},\"unit\":\"{}\",\"samples\":{}}}",
            m.name, m.value, m.unit, m.samples
        ));
    }
    Ok(format!(
        "{{\"setup_s\":{setup_s},\"attempted\":{},\"failed\":{},\"metrics\":[{}]}}",
        out.attempted,
        out.failed,
        metrics.join(",")
    ))
}

struct Args {
    cmd: String,
    flags: HashMap<String, String>,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut it = std::env::args().skip(1);
        let cmd = it.next().ok_or("missing command (run | setup | probe)")?;
        let mut flags = HashMap::new();
        while let Some(k) = it.next() {
            let key = k
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{k}'"))?;
            let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            flags.insert(key.to_string(), v);
        }
        Ok(Self { cmd, flags })
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.flags
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self.get(key)?;
        v.parse().map_err(|_| format!("bad --{key} value '{v}'"))
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    match real_main(started) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main(started: Instant) -> Result<String, String> {
    let args = Args::parse()?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    rayon::ThreadPoolBuilder::new()
        .num_threads(POOL_WIDTH.min(cores))
        .build_global()
        .map_err(|e| format!("fixing the pool width: {e:?}"))?;
    if args.cmd == "probe" {
        return probe::run();
    }
    let workload = args.get("workload")?;
    let seed: u64 = args.num("seed")?;
    let root = PathBuf::from(args.get("root")?);
    let work = PathBuf::from(args.get("work")?);
    let traced = args.cmd == "run" && args.num::<u8>("trace")? == 1;
    let tracer = traced.then(|| Arc::new(Tracer::new()));
    let prepared = prepare(workload, seed, &root, &work, tracer.as_deref())?;
    let setup_s = started.elapsed().as_secs_f64();
    match args.cmd.as_str() {
        "setup" => Ok(format!("{{\"setup_s\":{setup_s}}}")),
        "run" => {
            let budget = Budget {
                start: Instant::now(),
                seconds: args.num("seconds")?,
            };
            let mut out = measure(prepared, &budget, tracer.as_ref())?;
            if let Some(tracer) = tracer {
                let spans = Arc::into_inner(tracer)
                    .expect("no operation holds the tracer after the run")
                    .finish();
                push_layers(&mut out, &spans);
                if let Some(path) = args.flags.get("spans") {
                    trace::write_csv(Path::new(path), &spans)
                        .map_err(|e| format!("writing spans to {path}: {e}"))?;
                    eprintln!("perfbench: wrote {} spans to {path}", spans.len());
                }
            }
            render(setup_s, &out)
        }
        other => Err(format!("unknown command '{other}' (run | setup | probe)")),
    }
}
