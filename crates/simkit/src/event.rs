//! A deterministic discrete-event scheduler.
//!
//! Events are ordered by `(time, sequence)`: two events scheduled for the
//! same instant fire in insertion order, which keeps runs bit-reproducible
//! regardless of heap internals.

use crate::units::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event queue holding payloads of type `E`, keyed by simulated time.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: Time,
}

#[derive(Debug)]
struct Entry<E> {
    at: Time,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .at
            .partial_cmp(&self.at)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at t = 0.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: Time::ZERO,
        }
    }

    /// Current simulated time (time of the last popped event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Time of the earliest pending event, without popping it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.at)
    }

    /// Schedule `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` precedes the current time — scheduling into the past
    /// is always a simulation bug.
    pub fn schedule_at(&mut self, at: Time, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past ({at} < {})",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Schedule `payload` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: Time, payload: E) {
        self.schedule_at(self.now + delay, payload);
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|e| {
            self.now = e.at;
            (e.at, e.payload)
        })
    }
}

/// A driver that runs an event queue to completion through a handler.
///
/// The handler receives `(time, event, &mut Scheduler)` and may schedule
/// follow-up events; the run ends when the queue drains or after
/// `max_events` (a runaway-loop backstop).
pub struct Scheduler<E> {
    queue: EventQueue<E>,
    max_events: u64,
}

impl<E> Scheduler<E> {
    /// A scheduler with a generous default event budget.
    pub fn new() -> Self {
        Self {
            queue: EventQueue::new(),
            max_events: 100_000_000,
        }
    }

    /// Override the event budget.
    pub fn with_max_events(mut self, max: u64) -> Self {
        self.max_events = max;
        self
    }

    /// Access the underlying queue (e.g. to seed initial events).
    pub fn queue(&mut self) -> &mut EventQueue<E> {
        &mut self.queue
    }

    /// Run until the queue drains. Returns the final simulated time and the
    /// number of events processed.
    ///
    /// # Panics
    /// Panics if the event budget is exhausted, which indicates a live-lock
    /// in the simulated protocol.
    pub fn run(&mut self, mut handler: impl FnMut(Time, E, &mut EventQueue<E>)) -> (Time, u64) {
        let mut processed = 0;
        while let Some((t, ev)) = self.queue.pop() {
            handler(t, ev, &mut self.queue);
            processed += 1;
            assert!(
                processed <= self.max_events,
                "event budget exhausted after {processed} events — livelock?"
            );
        }
        (self.queue.now(), processed)
    }
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::seconds(3.0), "c");
        q.schedule_at(Time::seconds(1.0), "a");
        q.schedule_at(Time::seconds(2.0), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule_at(Time::seconds(1.0), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::seconds(5.0), ());
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), Time::seconds(5.0));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::seconds(2.0), ());
        q.pop();
        q.schedule_at(Time::seconds(1.0), ());
    }

    #[test]
    fn scheduler_runs_cascading_events() {
        // A chain: each event schedules the next until a countdown hits zero.
        let mut s = Scheduler::new();
        s.queue().schedule_at(Time::seconds(1.0), 5u32);
        let mut fired = Vec::new();
        let (end, n) = s.run(|t, countdown, q| {
            fired.push((t, countdown));
            if countdown > 0 {
                q.schedule_in(Time::seconds(1.0), countdown - 1);
            }
        });
        assert_eq!(n, 6);
        assert_eq!(end, Time::seconds(6.0));
        assert_eq!(fired.len(), 6);
        assert_eq!(fired[5], (Time::seconds(6.0), 0));
    }

    #[test]
    #[should_panic(expected = "event budget exhausted")]
    fn runaway_loop_is_caught() {
        let mut s = Scheduler::new().with_max_events(100);
        s.queue().schedule_at(Time::ZERO, ());
        s.run(|_, (), q| q.schedule_in(Time::seconds(1.0), ()));
    }

    #[test]
    fn len_and_is_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(Time::seconds(1.0), ());
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_time_shows_the_next_pop_without_taking_it() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule_at(Time::seconds(3.0), "late");
        q.schedule_at(Time::seconds(2.0), "early");
        assert_eq!(q.peek_time(), Some(Time::seconds(2.0)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.now(), Time::ZERO, "peeking does not advance the clock");
        assert_eq!(q.pop(), Some((Time::seconds(2.0), "early")));
        assert_eq!(q.peek_time(), Some(Time::seconds(3.0)));
    }
}
