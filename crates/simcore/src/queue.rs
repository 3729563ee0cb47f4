//! The kernel's event queue.
//!
//! [`EventQueue`] pops events in strict `(time, insertion-seq)` order and
//! panics on scheduling into the past. It is one binary min-heap of whole
//! `(at, seq, payload)` entries and a one-entry front slot. A push that
//! fires before every pending event (in a running node, half to three
//! quarters of all pushes) takes the slot, and the next pop takes it back
//! without touching the heap. The test-only
//! `HeapEventQueue` (`event.rs`), a plain whole-entry heap, is the
//! reference the differential property tests below hold it to.
//!
//! Determinism: `seq` is unique, so no two entries compare equal, and the
//! slot only ever holds the entry the heap would pop first. The pop
//! sequence depends only on the push/pop program, never on the heap's
//! internal layout or on whether an entry passed through the slot.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A pending event, ordered so that `BinaryHeap` (a max-heap) pops the
/// earliest `(at, seq)` first.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
    // `BinaryHeap` sifts with `<=` and `>=`. Comparing the key tuples
    // directly compiles tighter than the defaults, which go through `cmp`:
    // the `event-queue-*` rows of `probe perf` read up to 20% faster.
    fn le(&self, other: &Self) -> bool {
        (other.at, other.seq) <= (self.at, self.seq)
    }
    fn ge(&self, other: &Self) -> bool {
        (other.at, other.seq) >= (self.at, self.seq)
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A time-ordered event queue with stable FIFO tie-breaking.
///
/// # Examples
///
/// ```
/// use seqio_simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(20), "late");
/// q.push(SimTime::from_nanos(10), "early");
/// q.push(SimTime::from_nanos(10), "early-second");
///
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// The earliest pending event, when a push put it here: it orders
    /// before every entry in `heap`.
    front: Option<Entry<E>>,
    /// Every other pending event.
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
    /// Growths of the heap's storage (kernel self-profile only; never
    /// read by the scheduling logic).
    resizes: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue").field("len", &self.len()).field("now", &self.now).finish()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            front: None,
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            resizes: 0,
        }
    }

    /// The current simulation time: the timestamp of the most recently
    /// popped event (or zero before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + usize::from(self.front.is_some())
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.front.is_none() && self.heap.is_empty()
    }

    /// Total number of events ever scheduled (a simple progress metric).
    pub fn scheduled_count(&self) -> u64 {
        self.next_seq
    }

    /// Statistics for the kernel self-profile: lifetime pushes and how
    /// many times the pending set outgrew the queue's storage.
    pub fn stats(&self) -> crate::QueueStats {
        crate::QueueStats { pushes: self.next_seq, resizes: self.resizes }
    }

    /// Schedules `payload` to fire at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time — scheduling into the
    /// past is always a model bug and would silently corrupt causality.
    pub fn push(&mut self, at: SimTime, payload: E) {
        assert!(at >= self.now, "scheduling into the past: event at {at} but now is {}", self.now);
        let entry = Entry { at, seq: self.next_seq, payload };
        self.next_seq += 1;
        // The new event has the largest seq yet, so it fires first only if
        // it is strictly earlier than the earliest pending event; on a tie
        // the pending one fires first.
        let first = match (&self.front, self.heap.peek()) {
            (Some(earliest), _) | (None, Some(earliest)) => at < earliest.at,
            (None, None) => true,
        };
        if !first {
            self.heap_push(entry);
        } else if let Some(displaced) = self.front.replace(entry) {
            self.heap_push(displaced);
        }
    }

    /// Pushes `entry` into the heap, counting growths of its storage.
    fn heap_push(&mut self, entry: Entry<E>) {
        let capacity = self.heap.capacity();
        self.heap.push(entry);
        self.resizes += u64::from(self.heap.capacity() != capacity);
    }

    /// Removes and returns the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Entry { at, payload, .. } = self.front.take().or_else(|| self.heap.pop())?;
        self.now = at;
        Some((at, payload))
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.front.as_ref().or_else(|| self.heap.peek()).map(|e| e.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::HeapEventQueue;
    use crate::time::SimDuration;
    use crate::QueueStats;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[5u64, 3, 9, 1, 7] {
            q.push(SimTime::from_nanos(t), t);
        }
        let mut out = Vec::new();
        while let Some((_, v)) = q.pop() {
            out.push(v);
        }
        assert_eq!(out, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(42);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), ());
        q.push(SimTime::from_nanos(30), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(10));
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(30));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), ());
        q.pop();
        q.push(SimTime::from_nanos(5), ());
    }

    #[test]
    fn same_time_as_now_is_allowed() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), 1);
        q.pop();
        q.push(SimTime::from_nanos(10), 2); // zero-delay follow-up event
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), 2)));
    }

    #[test]
    fn len_and_counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO + SimDuration::from_micros(1), ());
        q.push(SimTime::ZERO + SimDuration::from_micros(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_count(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(1_000)));
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_count(), 2);
    }

    #[test]
    fn stats_count_pushes_and_storage_growths() {
        let mut q = EventQueue::new();
        assert_eq!(q.stats(), QueueStats { pushes: 0, resizes: 0 });
        for i in 0..10_000u64 {
            q.push(SimTime::from_nanos(i * 1_000), i);
        }
        let grown = q.stats();
        assert_eq!(grown.pushes, 10_000);
        assert!((1..20).contains(&grown.resizes), "storage grows geometrically: {grown:?}");
        // Draining keeps the storage, so refilling to the same depth
        // grows nothing.
        while q.pop().is_some() {}
        for i in 0..10_000u64 {
            q.push(q.now() + SimDuration::from_nanos(i), i);
        }
        assert_eq!(q.stats(), QueueStats { pushes: 20_000, resizes: grown.resizes });
    }

    #[test]
    fn far_future_events_pop_last() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.push(SimTime::from_nanos(i * 100), i);
        }
        q.push(SimTime::from_nanos(u64::MAX / 2), 999);
        for i in 0..100u64 {
            assert_eq!(q.pop().unwrap().1, i);
        }
        assert_eq!(q.pop(), Some((SimTime::from_nanos(u64::MAX / 2), 999)));
        assert_eq!(q.pop(), None);
    }

    /// Drives the queue and the heap reference queue through the same
    /// interleaved push/pop program and asserts identical observable
    /// behaviour at every step. Ops `0..3` push at `now + dt` (`dt` is
    /// often zero or tiny, so FIFO ties are common), `3` pops, `4` pushes
    /// strictly between `now` and the earliest pending instant (the front
    /// slot's path, displacing whatever the slot held) and `5` pushes at
    /// exactly the earliest pending instant (a tie the new event must
    /// lose). With nothing pending, or no instant strictly between, `4`
    /// and `5` push at `now + dt`.
    fn differential(program: &[(u8, u64)]) {
        let mut q = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut next_payload = 0u64;
        for &(op, dt) in program {
            if op == 3 {
                assert_eq!(q.pop(), heap.pop(), "pop diverged");
            } else {
                // The reference names the earliest pending instant, so a
                // queue that misreads its own cannot steer the program.
                let now = heap.now();
                let at = match (op, heap.peek_time()) {
                    (4, Some(earliest)) if earliest - now >= SimDuration::from_nanos(2) => {
                        let gap = (earliest - now).as_nanos();
                        now + SimDuration::from_nanos(1 + dt % (gap - 1))
                    }
                    (5, Some(earliest)) => earliest,
                    _ => now + SimDuration::from_nanos(dt),
                };
                q.push(at, next_payload);
                heap.push(at, next_payload);
                next_payload += 1;
            }
            assert_eq!(q.len(), heap.len());
            assert_eq!(q.is_empty(), heap.is_empty());
            assert_eq!(q.now(), heap.now());
            assert_eq!(q.peek_time(), heap.peek_time());
        }
        // Drain: the remaining sequences must match exactly.
        loop {
            let (a, b) = (q.pop(), heap.pop());
            assert_eq!(a, b, "drain diverged");
            if a.is_none() {
                break;
            }
        }
    }

    proptest! {
        /// Random interleaved push/pop programs produce identical
        /// `(time, payload)` sequences from both implementations.
        #[test]
        fn prop_differential_vs_heap(
            program in proptest::collection::vec((0u8..6, 0u64..500), 0..400)
        ) {
            differential(&program);
        }

        /// Same property with the kernel's mix: most pushes land strictly
        /// before every pending event, so they take the front slot, and
        /// nearly half of those displace its entry into the heap; some tie
        /// the earliest pending instant, and about two dozen events are
        /// pending at a push.
        #[test]
        fn prop_differential_front_heavy(
            program in proptest::collection::vec(
                (
                    prop_oneof![
                        Just(4u8), Just(4), Just(4), Just(4), Just(4), Just(5), 0u8..3,
                        Just(3), Just(3), Just(3), Just(3), Just(3),
                    ],
                    0u64..1_000_000,
                ),
                0..400,
            )
        ) {
            differential(&program);
        }

        /// Same property under clustered timestamps: many ties, then
        /// far-future jumps.
        #[test]
        fn prop_differential_clustered(
            program in proptest::collection::vec(
                prop_oneof![(0u8..3, Just(0u64)), (0u8..3, 1_000_000u64..2_000_000), Just((3u8, 0u64))],
                0..300,
            )
        ) {
            differential(&program);
        }

        /// Popping always yields a non-decreasing time sequence, and within
        /// one timestamp, insertion order.
        #[test]
        fn prop_pop_order(times in proptest::collection::vec(0u64..1_000, 0..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(t), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((t, i)) = q.pop() {
                if let Some((lt, li)) = last {
                    prop_assert!(t >= lt);
                    if t == lt {
                        prop_assert!(i > li, "FIFO violated within a timestamp");
                    }
                }
                last = Some((t, i));
            }
        }

        /// The queue drains exactly the number of events pushed.
        #[test]
        fn prop_conservation(times in proptest::collection::vec(0u64..100, 0..100)) {
            let mut q = EventQueue::new();
            for &t in &times {
                q.push(SimTime::from_nanos(t), ());
            }
            let mut n = 0;
            while q.pop().is_some() {
                n += 1;
            }
            prop_assert_eq!(n, times.len());
        }
    }
}
