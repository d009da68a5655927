//! A deterministic discrete-event queue.
//!
//! [`EventQueue`] orders events by `(time, sequence)`: events scheduled for
//! the same instant pop in the order they were scheduled, which keeps runs
//! bit-for-bit reproducible regardless of queue internals.
//!
//! Internally it is a plain binary heap over that total order: O(log n)
//! schedule and pop at any queue depth. There is no cancellation; engines
//! drop stale events at handling time by checking the incarnation or
//! address stamp the event carries.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered queue of simulation events.
///
/// # Examples
///
/// ```
/// use simkit::event::EventQueue;
/// use simkit::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2.0), "later");
/// q.schedule(SimTime::from_secs(1.0), "sooner");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t.as_secs(), e), (1.0, "sooner"));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: SimTime,
    popped: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// The current simulation instant: the timestamp of the most recently
    /// popped event, never earlier than any previously popped event.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Number of events still pending.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns true if no events remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock — scheduling into
    /// the past would silently reorder causality.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        self.now = s.at;
        self.popped += 1;
        Some((s.at, s.event))
    }

    /// Peeks at the timestamp of the next event without popping it.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3.0), 'c');
        q.schedule(t(1.0), 'a');
        q.schedule(t(2.0), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_pop_in_schedule_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), ());
        q.schedule(t(4.0), ());
        q.pop();
        assert_eq!(q.now(), t(1.0));
        q.pop();
        assert_eq!(q.now(), t(4.0));
        assert_eq!(q.events_processed(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(t(10.0), ());
        q.pop();
        q.schedule(t(5.0), ());
    }

    #[test]
    fn empty_reporting() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(t(1.0), 0);
        assert!(!q.is_empty());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    // ------------------------------------------------------------------
    // Property test: the heap agrees with an independent linear-scan
    // oracle on randomized schedules, including duplicate instants and
    // far-future times.
    // ------------------------------------------------------------------

    /// The simplest correct queue: an unsorted list whose pop removes the
    /// first entry with the least `(at, seq)`.
    #[derive(Default)]
    struct ScanQueue {
        entries: Vec<(SimTime, u64, u64)>,
        next_seq: u64,
        now: SimTime,
    }

    impl ScanQueue {
        fn schedule(&mut self, at: SimTime, payload: u64) {
            self.entries.push((at, self.next_seq, payload));
            self.next_seq += 1;
        }

        fn first_min(&self) -> Option<usize> {
            (0..self.entries.len()).min_by_key(|&i| (self.entries[i].0, self.entries[i].1))
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.first_min().map(|i| self.entries[i].0)
        }

        fn pop(&mut self) -> Option<(SimTime, u64)> {
            let (at, _, payload) = self.entries.remove(self.first_min()?);
            self.now = at;
            Some((at, payload))
        }
    }

    #[test]
    fn randomized_schedules_match_the_scan_oracle() {
        use crate::rng::RngStream;
        use crate::time::SimDuration;

        for trial in 0..20u64 {
            let mut rng = RngStream::from_seed(0xCA1E + trial, "event-queue-prop");
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut oracle = ScanQueue::default();
            let mut payload = 0u64;

            let pop_both = |q: &mut EventQueue<u64>, oracle: &mut ScanQueue| {
                assert_eq!(q.peek_time(), oracle.peek_time(), "peek (trial {trial})");
                let got = q.pop();
                assert_eq!(got, oracle.pop(), "pop (trial {trial})");
                if let Some((at, _)) = got {
                    assert_eq!(q.now(), at);
                }
                got.is_some()
            };

            for _ in 0..2000 {
                if rng.below(10) < 6 {
                    // Schedule, biased toward near times, with duplicate
                    // instants and occasional far-future times.
                    let gap = match rng.below(4) {
                        0 => 0.0, // duplicate of `now`
                        1 => rng.f64() * 1.0,
                        2 => rng.f64() * 50.0,
                        _ => rng.f64() * 2560.0,
                    };
                    let at = oracle.now + SimDuration::from_secs(gap);
                    q.schedule(at, payload);
                    oracle.schedule(at, payload);
                    payload += 1;
                } else {
                    pop_both(&mut q, &mut oracle);
                }
                assert_eq!(q.len(), oracle.entries.len(), "len drift (trial {trial})");
            }
            // Drain both completely; tails must agree too.
            while pop_both(&mut q, &mut oracle) {}
            assert!(q.is_empty());
        }
    }
}
