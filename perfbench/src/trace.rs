//! In-memory span recorder for the traced runs.
//!
//! Spans are opened and closed by the benchmark around its own calls into
//! each layer; nothing inside the program is instrumented. Every span
//! keeps its name, start, end, parent and request id. Spans stay in memory
//! until the run ends, when [`Tracer::finish`] computes each span's self
//! time (its duration minus the union of its children's intervals, since
//! children may run in parallel) and [`write_csv`] writes them out.
//!
//! A root span is one operation of a phase and is named after the phase
//! (`regen`, `cold`, `warm`, `replay`); [`layers`] splits each phase's
//! time over the spans below its roots.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

struct Open {
    name: String,
    start_ns: u64,
    end_ns: Option<u64>,
    parent: Option<SpanId>,
    request: u64,
}

/// A closed span with its self time.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
    pub self_ns: u64,
}

/// Collects spans from any thread of the run.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Open>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Open a span; close it with [`Tracer::end`] or [`Tracer::end_as`].
    pub fn begin(&self, name: impl Into<String>, parent: Option<SpanId>, request: u64) -> SpanId {
        let name = name.into();
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        spans.push(Open {
            name,
            start_ns: self.now_ns(),
            end_ns: None,
            parent,
            request,
        });
        spans.len() - 1
    }

    pub fn end(&self, id: SpanId) {
        let end = self.now_ns();
        self.spans.lock().expect("tracer lock poisoned")[id].end_ns = Some(end);
    }

    /// Close a span under a name known only after the call, such as the
    /// store tier that answered a query.
    pub fn end_as(&self, id: SpanId, name: impl Into<String>) {
        let end = self.now_ns();
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        spans[id].end_ns = Some(end);
        spans[id].name = name.into();
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Close the recorder and compute every span's self time.
    ///
    /// # Panics
    /// Panics if a span was left open, which is a bug in the benchmark.
    pub fn finish(self) -> Vec<Span> {
        let open = self.spans.into_inner().expect("tracer lock poisoned");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); open.len()];
        for s in &open {
            let end = s
                .end_ns
                .unwrap_or_else(|| panic!("span '{}' never closed", s.name));
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, end));
            }
        }
        open.into_iter()
            .zip(children)
            .map(|(s, mut kids)| {
                let end_ns = s.end_ns.expect("checked above");
                let covered = union_len(&mut kids);
                Span {
                    self_ns: (end_ns - s.start_ns).saturating_sub(covered),
                    name: s.name,
                    start_ns: s.start_ns,
                    end_ns,
                    parent: s.parent,
                    request: s.request,
                }
            })
            .collect()
    }
}

/// Where the spans of one operation go: nowhere in an untraced run, under
/// the operation's root span in a traced one.
#[derive(Clone, Copy)]
pub struct Scope<'a> {
    traced: Option<(&'a Tracer, SpanId)>,
    request: u64,
}

impl<'a> Scope<'a> {
    /// Open the operation's root span `name`, for request id `request`,
    /// when tracing.
    pub fn open(tracer: Option<(&'a Tracer, u64)>, name: &str) -> Self {
        Self {
            traced: tracer.map(|(t, request)| (t, t.begin(name, None, request))),
            request: tracer.map_or(0, |(_, request)| request),
        }
    }

    /// Run `f`, inside a child span `name` of the root when tracing.
    pub fn child<R>(&self, name: impl Into<String>, f: impl FnOnce() -> R) -> R {
        match self.traced {
            Some((t, root)) => t.span(name, Some(root), self.request, f),
            None => f(),
        }
    }

    /// The tracer and root span, when tracing.
    pub fn traced(&self) -> Option<(&'a Tracer, SpanId)> {
        self.traced
    }

    pub fn close(self) {
        if let Some((t, root)) = self.traced {
            t.end(root);
        }
    }
}

/// Total length covered by a set of possibly overlapping intervals.
fn union_len(iv: &mut [(u64, u64)]) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in iv.iter() {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Where one phase's time went: its operations and, per layer, the self
/// time of the layer's spans under the phase's roots.
#[derive(Debug, Default)]
pub struct Phase {
    /// Root spans, one per operation.
    pub ops: usize,
    /// Total duration of the root spans.
    pub wall_ns: u64,
    /// Self time per layer name; `self` is the roots' own self time.
    pub self_ns: BTreeMap<String, u64>,
}

impl Phase {
    /// A layer's share of the phase's time, in percent.
    pub fn share_pct(&self, layer: &str) -> f64 {
        self.self_ns
            .get(layer)
            .map_or(0.0, |&ns| 100.0 * ns as f64 / self.wall_ns.max(1) as f64)
    }
}

/// Group spans by phase (the name of their root span) and sum each
/// layer's self time. A phase's layer self times add up to its wall.
pub fn layers(spans: &[Span]) -> BTreeMap<String, Phase> {
    // A span opens after its parent, so the parent's root is known.
    let mut root = Vec::with_capacity(spans.len());
    let mut phases: BTreeMap<String, Phase> = BTreeMap::new();
    for (id, s) in spans.iter().enumerate() {
        let r = s.parent.map_or(id, |p| root[p]);
        root.push(r);
        let phase = phases.entry(spans[r].name.clone()).or_default();
        let layer = if r == id {
            phase.ops += 1;
            phase.wall_ns += s.end_ns - s.start_ns;
            "self"
        } else {
            s.name.as_str()
        };
        *phase.self_ns.entry(layer.to_string()).or_default() += s.self_ns;
    }
    phases
}

/// Write the spans as CSV, one row per span in opening order.
pub fn write_csv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::from("id,parent,request,name,start_ns,end_ns,self_ns\n");
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(String::new(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{id},{parent},{},{},{},{},{}",
            s.request, s.name, s.start_ns, s.end_ns, s.self_ns
        );
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlapping_children() {
        assert_eq!(union_len(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(&mut []), 0);
    }

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new();
        let root = t.begin("root", None, 0);
        t.span("child", Some(root), 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        let spans = t.finish();
        let dur = |s: &Span| s.end_ns - s.start_ns;
        assert_eq!(spans[0].self_ns, dur(&spans[0]) - dur(&spans[1]));
        assert_eq!(spans[1].self_ns, dur(&spans[1]));

        let phases = layers(&spans);
        let root = &phases["root"];
        assert_eq!((root.ops, root.wall_ns), (1, dur(&spans[0])));
        let total: f64 = ["self", "child"].iter().map(|l| root.share_pct(l)).sum();
        assert!((total - 100.0).abs() < 1e-9, "shares add up to {total}");
        assert_eq!(root.share_pct("absent"), 0.0);
    }
}
