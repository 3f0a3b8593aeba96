//! Execution traces: per-rank timelines of what a job did.
//!
//! BSC's own workflow (the POP centre of excellence the paper
//! acknowledges) analyses applications through Paraver timelines; this
//! module records the same kind of data from simulated runs — one interval
//! per rank per operation — and renders compact summaries: the time
//! breakdown per activity and a text Gantt strip per rank.

use serde::{Deserialize, Serialize};
use simkit::units::Time;

/// What a rank was doing during an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Activity {
    /// Local computation.
    Compute,
    /// Blocking collective (includes the wait for peers).
    Collective,
    /// Point-to-point / halo communication.
    PointToPoint,
    /// Parallel file I/O.
    Io,
}

impl Activity {
    /// One-letter code used in the Gantt strip.
    pub fn code(self) -> char {
        match self {
            Activity::Compute => 'C',
            Activity::Collective => 'A',
            Activity::PointToPoint => 'p',
            Activity::Io => 'W',
        }
    }
}

/// One traced interval on one rank.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceEvent {
    /// The rank.
    pub rank: usize,
    /// Activity kind.
    pub activity: Activity,
    /// Interval start.
    pub start: Time,
    /// Interval end.
    pub end: Time,
}

impl TraceEvent {
    /// Interval length.
    pub fn duration(&self) -> Time {
        self.end - self.start
    }
}

/// A recorded job trace.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    /// All events, in recording order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one interval.
    pub fn record(&mut self, rank: usize, activity: Activity, start: Time, end: Time) {
        debug_assert!(end >= start, "negative interval");
        self.events.push(TraceEvent {
            rank,
            activity,
            start,
            end,
        });
    }

    /// Total traced time per activity, summed over ranks.
    pub fn breakdown(&self) -> Vec<(Activity, Time)> {
        let mut acc: Vec<(Activity, Time)> = Vec::new();
        for e in &self.events {
            match acc.iter_mut().find(|(a, _)| *a == e.activity) {
                Some((_, t)) => *t += e.duration(),
                None => acc.push((e.activity, e.duration())),
            }
        }
        acc
    }

    /// Fraction of traced time spent in an activity.
    pub fn fraction(&self, activity: Activity) -> f64 {
        let total: f64 = self.events.iter().map(|e| e.duration().value()).sum();
        if total == 0.0 {
            return 0.0;
        }
        let part: f64 = self
            .events
            .iter()
            .filter(|e| e.activity == activity)
            .map(|e| e.duration().value())
            .sum();
        part / total
    }

    /// Latest event end.
    pub fn span(&self) -> Time {
        self.events
            .iter()
            .map(|e| e.end)
            .fold(Time::ZERO, Time::max)
    }

    /// Render a text Gantt: one strip of `width` cells per rank (first
    /// `max_ranks` ranks), each cell showing the dominant activity code.
    pub fn gantt(&self, max_ranks: usize, width: usize) -> String {
        use std::fmt::Write as _;
        assert!(width >= 1, "zero-width gantt");
        let span = self.span().value();
        let mut out = String::new();
        if span == 0.0 {
            return out;
        }
        let ranks: Vec<usize> = {
            let mut r: Vec<usize> = self.events.iter().map(|e| e.rank).collect();
            r.sort_unstable();
            r.dedup();
            r.into_iter().take(max_ranks).collect()
        };
        let _ = writeln!(
            out,
            "time →  0 .. {span:.3} s   (C compute, A collective, p p2p, W io)"
        );
        for rank in ranks {
            let mut cells = vec![('.', 0.0f64); width];
            for e in self.events.iter().filter(|e| e.rank == rank) {
                let c0 = ((e.start.value() / span) * width as f64) as usize;
                let c1 = (((e.end.value() / span) * width as f64).ceil() as usize).min(width);
                let weight = e.duration().value() / (c1.max(c0 + 1) - c0) as f64;
                for cell in cells.iter_mut().take(c1).skip(c0) {
                    if weight >= cell.1 {
                        *cell = (e.activity.code(), weight);
                    }
                }
            }
            let strip: String = cells.into_iter().map(|(c, _)| c).collect();
            let _ = writeln!(out, "r{rank:<5} |{strip}|");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> Time {
        Time::seconds(s)
    }

    #[test]
    fn breakdown_sums_durations() {
        let mut tr = Trace::new();
        tr.record(0, Activity::Compute, t(0.0), t(2.0));
        tr.record(0, Activity::Collective, t(2.0), t(3.0));
        tr.record(1, Activity::Compute, t(0.0), t(1.0));
        let b = tr.breakdown();
        let compute = b.iter().find(|(a, _)| *a == Activity::Compute).unwrap().1;
        assert_eq!(compute, t(3.0));
        assert!((tr.fraction(Activity::Compute) - 0.75).abs() < 1e-12);
        assert_eq!(tr.span(), t(3.0));
    }

    #[test]
    fn empty_trace_is_benign() {
        let tr = Trace::new();
        assert_eq!(tr.fraction(Activity::Io), 0.0);
        assert_eq!(tr.span(), Time::ZERO);
        assert_eq!(tr.gantt(4, 10), "");
    }

    #[test]
    fn gantt_shows_dominant_activity() {
        let mut tr = Trace::new();
        tr.record(0, Activity::Compute, t(0.0), t(8.0));
        tr.record(0, Activity::Collective, t(8.0), t(10.0));
        let g = tr.gantt(1, 10);
        assert!(g.contains("r0"));
        let strip: &str = g.lines().nth(1).unwrap();
        let c_count = strip.matches('C').count();
        let a_count = strip.matches('A').count();
        assert!(c_count >= 7, "compute dominates: {strip}");
        assert!(a_count >= 1, "collective visible: {strip}");
    }

    #[test]
    fn gantt_caps_rank_count() {
        let mut tr = Trace::new();
        for r in 0..100 {
            tr.record(r, Activity::Compute, t(0.0), t(1.0));
        }
        let g = tr.gantt(5, 20);
        assert_eq!(g.lines().count(), 6, "header + 5 ranks");
    }

    #[test]
    fn activity_codes_are_distinct() {
        let codes = [
            Activity::Compute.code(),
            Activity::Collective.code(),
            Activity::PointToPoint.code(),
            Activity::Io.code(),
        ];
        let mut dedup = codes.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 4);
    }
}
