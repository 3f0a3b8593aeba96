//! The experiment engine: run any subset of the registry across a worker
//! pool, with per-experiment wall time and cache-hit accounting.
//!
//! Experiments share expensive sub-simulations — Figs. 8–10 sweep the same
//! Alya study, Table IV revisits node counts every figure already measured
//! — so each run owns a [`Ctx`] whose [`Cache`] memoizes those
//! sub-results. To keep the hit/miss accounting deterministic under
//! parallelism, each [`Experiment`] declares `deps`: the experiments that
//! *produce* the cache entries it reuses. The scheduler never starts an
//! experiment before its deps finish, so the producer always takes the
//! misses and the consumer always takes the hits — `--jobs 1` and
//! `--jobs 16` report identical numbers and bit-identical artifacts.
//!
//! Inside an experiment, a study's independent points (the node counts of
//! a strong-scaling sweep, the cells of Table IV) run through [`fan_out`]
//! on the kernel pool, with the experiment's thread as worker 0. The
//! cache traffic of points that ran on pool helpers is charged back to
//! that thread, so an experiment's counts are the same at any pool width.

use crate::experiments::{Artifact, Experiment};
use rayon::prelude::*;
use simkit::cache::{Cache, TierCounters};
use simkit::store::Store;
use std::collections::HashSet;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Shared state threaded through every experiment of one engine run.
#[derive(Debug, Default)]
pub struct Ctx {
    /// Memoized sub-results, keyed `(machine, workload, params)`.
    pub cache: Cache,
}

impl Ctx {
    /// A fresh context with an empty, memory-only cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// A context whose cache is backed by a persistent [`Store`]:
    /// `get_or_persistent` lookups missing in memory fall through to disk
    /// before computing, and computed results are written back.
    pub fn with_store(store: Arc<Store>) -> Self {
        Self {
            cache: Cache::with_store(store),
        }
    }
}

/// The outcome of one experiment inside an engine run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Experiment id (`fig8`, `table4`, …).
    pub id: &'static str,
    /// Experiment title.
    pub title: &'static str,
    /// Paper section.
    pub section: &'static str,
    /// Wall-clock time of this experiment alone.
    pub wall: Duration,
    /// In-memory cache hits charged to this experiment.
    pub mem_hits: u64,
    /// Persistent-store hits (results reloaded from disk) charged to it.
    pub disk_hits: u64,
    /// Cache misses (sub-results it computed first) charged to it.
    pub misses: u64,
    /// The regenerated artifact.
    pub artifact: Artifact,
}

/// Case-sensitive glob match supporting `*` (any run) and `?` (any one
/// character) — enough for `--filter 'fig1*'`.
pub fn glob_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    // Classic two-pointer wildcard match with backtracking to the last `*`.
    let (mut pi, mut ti) = (0usize, 0usize);
    let (mut star, mut mark) = (None::<usize>, 0usize);
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '?' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '*' {
            star = Some(pi);
            mark = ti;
            pi += 1;
        } else if let Some(s) = star {
            pi = s + 1;
            mark += 1;
            ti = mark;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '*' {
        pi += 1;
    }
    pi == p.len()
}

/// Rank registry ids by similarity to a mistyped `input`; returns the
/// closest few (edit distance ≤ 2, or sharing a prefix/substring).
pub fn suggestions<'a>(input: &str, ids: impl IntoIterator<Item = &'a str>) -> Vec<&'a str> {
    let mut scored: Vec<(usize, &str)> = ids
        .into_iter()
        .filter_map(|id| {
            let d = edit_distance(input, id);
            if d <= 2 || id.contains(input) || input.contains(id) {
                Some((d, id))
            } else {
                None
            }
        })
        .collect();
    scored.sort();
    scored.into_iter().take(3).map(|(_, id)| id).collect()
}

fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

struct SchedState {
    /// Parallel to the experiment list: claimed by some worker?
    claimed: Vec<bool>,
    /// Ids whose experiments have finished.
    completed: HashSet<&'static str>,
}

/// Run `experiments` on up to `jobs` worker threads, honouring `deps`,
/// sharing `ctx`, and returning reports in the input order regardless of
/// completion order. Deps outside the run set are treated as satisfied —
/// that experiment then computes (and gets charged for) the sub-results
/// itself, which keeps filtered runs deterministic too.
pub fn run_experiments(experiments: Vec<Experiment>, jobs: usize, ctx: &Ctx) -> Vec<RunReport> {
    let jobs = jobs.max(1).min(experiments.len().max(1));
    // Tell the kernel runtime how many driver threads will run kernels
    // concurrently: each rayon region then uses `configured / jobs`
    // workers, so engine jobs × pool threads never oversubscribe the core
    // budget. The guard restores the full pool when this run finishes.
    let _pool_budget = rayon::reserve_drivers(jobs);
    // Each worker fans its experiments' points out at the width the caller
    // sees, so a caller's `ThreadPool::install` reaches them too.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(rayon::current_num_threads())
        .build()
        .expect("thread pool");
    let ids: HashSet<&'static str> = experiments.iter().map(|e| e.id).collect();
    let state = Mutex::new(SchedState {
        claimed: vec![false; experiments.len()],
        completed: HashSet::new(),
    });
    let ready = Condvar::new();
    let slots: Vec<Mutex<Option<RunReport>>> =
        experiments.iter().map(|_| Mutex::new(None)).collect();

    let worker = || loop {
        let idx = {
            let mut st = state.lock().expect("scheduler lock");
            loop {
                if st.claimed.iter().all(|&c| c) {
                    return;
                }
                let next = experiments.iter().enumerate().position(|(i, e)| {
                    !st.claimed[i]
                        && e.deps
                            .iter()
                            .all(|d| !ids.contains(d) || st.completed.contains(d))
                });
                match next {
                    Some(i) => {
                        st.claimed[i] = true;
                        break i;
                    }
                    None => st = ready.wait(st).expect("scheduler wait"),
                }
            }
        };
        let exp = &experiments[idx];
        Cache::reset_thread_counters();
        let started = Instant::now();
        let artifact = (exp.run)(ctx);
        let wall = started.elapsed();
        let counters = Cache::thread_counters();
        *slots[idx].lock().expect("slot lock") = Some(RunReport {
            id: exp.id,
            title: exp.title,
            section: exp.section,
            wall,
            mem_hits: counters.mem_hits,
            disk_hits: counters.disk_hits,
            misses: counters.misses,
            artifact,
        });
        state
            .lock()
            .expect("scheduler lock")
            .completed
            .insert(exp.id);
        ready.notify_all();
    };
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| pool.install(worker));
        }
    });

    slots
        .into_iter()
        .map(|s| s.into_inner().expect("slot lock").expect("slot filled"))
        .collect()
}

/// Run `count` independent tasks on up to `jobs` worker threads and return
/// their results in index order. The work-queue order is a simple atomic
/// counter, but because results land in their own slots and every task must
/// be a pure function of its index, the output is byte-identical at any
/// `jobs` — the property the fault-campaign driver pins in its goldens.
/// Like [`run_experiments`], the worker count is registered with the kernel
/// runtime so tasks × pool threads never oversubscribe the core budget.
/// With no tasks it returns at once and starts no thread.
pub fn run_indexed<R: Send>(count: usize, jobs: usize, task: impl Fn(usize) -> R + Sync) -> Vec<R> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    if count == 0 {
        return Vec::new();
    }
    let jobs = jobs.max(1).min(count);
    let _pool_budget = rayon::reserve_drivers(jobs);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    return;
                }
                *slots[i].lock().expect("slot lock") = Some(task(i));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("slot lock").expect("task ran"))
        .collect()
}

/// Run `task` once per item on the kernel pool and return the results in
/// item order. The pool is [`rayon::current_num_threads`] wide, so under
/// `--jobs N` each engine worker fans out over its share of the core
/// budget, and the calling thread is worker 0. A fan-out nested in another
/// pool region runs inline.
///
/// Every task must be a pure function of its item; each one made on a pool
/// helper has its cache traffic charged to the calling thread, so the
/// caller's [`Cache::thread_counters`] read as if it had run every task
/// itself.
pub fn fan_out<T: Sync, R: Send>(items: &[T], task: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let caller = std::thread::current().id();
    let task = &task;
    let done: Vec<(R, Option<TierCounters>)> = items
        .par_iter()
        .map(move |item| {
            let before = Cache::thread_counters();
            let result = task(item);
            let elsewhere = (std::thread::current().id() != caller)
                .then(|| Cache::thread_counters().since(&before));
            (result, elsewhere)
        })
        .collect_with_grain(1);
    done.into_iter()
        .map(|(result, elsewhere)| {
            if let Some(delta) = elsewhere {
                Cache::add_thread_counters(delta);
            }
            result
        })
        .collect()
}

/// Filter a registry by a `--filter` glob (or pass everything when `None`).
pub fn filter_experiments(experiments: Vec<Experiment>, filter: Option<&str>) -> Vec<Experiment> {
    match filter {
        None => experiments,
        Some(glob) => experiments
            .into_iter()
            .filter(|e| glob_match(glob, e.id))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::all_experiments;

    #[test]
    fn glob_semantics() {
        assert!(glob_match("fig*", "fig12"));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("fig?", "fig4"));
        assert!(!glob_match("fig?", "fig12"));
        assert!(glob_match("*4", "table4"));
        assert!(!glob_match("table*", "fig4"));
        assert!(glob_match("fig12", "fig12"));
    }

    #[test]
    fn suggestions_rank_near_misses_first() {
        let ids = ["fig1", "fig12", "table4", "ext_energy"];
        assert_eq!(suggestions("fig13", ids)[0], "fig1");
        assert!(suggestions("tabel4", ids).contains(&"table4"));
        assert!(suggestions("energy", ids).contains(&"ext_energy"));
        assert!(suggestions("zzzzzz", ids).is_empty());
    }

    #[test]
    fn deps_reference_registered_experiments() {
        let ids: HashSet<&str> = all_experiments().iter().map(|e| e.id).collect();
        for e in all_experiments() {
            for d in e.deps {
                assert!(ids.contains(d), "{}: unknown dep {d}", e.id);
                assert_ne!(*d, e.id, "{}: self-dep", e.id);
            }
        }
    }

    #[test]
    fn scheduler_respects_deps_and_order() {
        let ctx = Ctx::new();
        let exps = filter_experiments(all_experiments(), Some("fig8"));
        let mut subset = exps;
        subset.extend(filter_experiments(all_experiments(), Some("fig9")));
        let reports = run_experiments(subset, 4, &ctx);
        assert_eq!(reports[0].id, "fig8");
        assert_eq!(reports[1].id, "fig9");
        // fig8 computed the Alya sweep; fig9 reused every point.
        assert!(reports[0].misses > 0);
        assert_eq!(reports[1].misses, 0);
        assert!(reports[1].mem_hits > 0);
        // Memory-only context: the disk tier never fires.
        assert_eq!(reports[1].disk_hits, 0);
    }

    #[test]
    fn fan_out_keeps_item_order_and_charges_helpers_to_the_caller() {
        use simkit::cache::CacheKey;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::{Duration, Instant};
        let cache = Cache::new();
        let caller = std::thread::current().id();
        let helper_ran = AtomicBool::new(false);
        let items: Vec<u64> = (0..8).collect();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .expect("pool");
        Cache::reset_thread_counters();
        let out = pool.install(|| {
            fan_out(&items, |&i| {
                let on_caller = std::thread::current().id() == caller;
                if on_caller {
                    // Hold the caller until a helper has computed a point,
                    // so at least one miss is made off the calling thread.
                    let deadline = Instant::now() + Duration::from_secs(30);
                    while !helper_ran.load(Ordering::SeqCst) && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                }
                let v: u64 =
                    cache.get_or_persistent(CacheKey::new("m", "w", i.to_string()), || i * 10);
                if !on_caller {
                    helper_ran.store(true, Ordering::SeqCst);
                }
                v
            })
        });
        assert!(
            helper_ran.load(Ordering::SeqCst),
            "a pool helper ran a point"
        );
        assert_eq!(out, (0..8).map(|i| i * 10).collect::<Vec<u64>>());
        assert_eq!(
            Cache::thread_counters(),
            TierCounters {
                mem_hits: 0,
                disk_hits: 0,
                misses: 8
            },
            "every miss is charged to the caller"
        );
    }

    #[test]
    fn filtered_run_without_producer_still_works() {
        // fig9 alone: its dep (fig8) is outside the run set, so it pays
        // for the sweep itself — misses, not hits.
        let ctx = Ctx::new();
        let reports = run_experiments(filter_experiments(all_experiments(), Some("fig9")), 2, &ctx);
        assert_eq!(reports.len(), 1);
        assert!(reports[0].misses > 0);
        assert_eq!(reports[0].mem_hits, 0);
    }
}
