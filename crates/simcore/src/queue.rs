//! The kernel's event queue.
//!
//! [`EventQueue`] pops events in strict `(time, insertion-seq)` order and
//! panics on scheduling into the past. It is a binary min-heap of
//! `(at, seq, slot)` keys over a slab of payloads: a sift moves 24-byte
//! keys, never the payloads, and a free list recycles the slots of popped
//! events. The test-only `HeapEventQueue` (`event.rs`), which keeps whole
//! entries in its heap, is the reference the differential property tests
//! below hold it to.
//!
//! Determinism: `seq` is unique, so no two keys compare equal and the pop
//! sequence depends only on the push/pop program, never on the heap's
//! internal layout or on which slot a payload landed in.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

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
    /// Pending `(at ns, seq, slot)` keys, earliest `(at, seq)` on top.
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// Payloads by slot; `None` marks a free slot.
    slots: Vec<Option<E>>,
    /// Free slots, the most recently freed (cache-warm) reused first.
    free: Vec<usize>,
    next_seq: u64,
    now: SimTime,
    /// Growths of the key heap's storage (kernel self-profile only; never
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
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
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
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(payload);
                slot
            }
            None => {
                self.slots.push(Some(payload));
                self.slots.len() - 1
            }
        };
        let capacity = self.heap.capacity();
        self.heap.push(Reverse((at.as_nanos(), self.next_seq, slot)));
        self.resizes += u64::from(self.heap.capacity() != capacity);
        self.next_seq += 1;
    }

    /// Removes and returns the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((at, _, slot)) = self.heap.pop()?;
        let payload = self.slots[slot].take().expect("a pending key owns its slot");
        self.free.push(slot);
        self.now = SimTime::from_nanos(at);
        Some((self.now, payload))
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse((at, ..))| SimTime::from_nanos(at))
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
    /// behaviour at every step — including FIFO ordering at equal
    /// timestamps (the `dt == 0`/tiny-delta cases below hit ties often)
    /// and payloads surviving slot reuse.
    fn differential(program: &[(u8, u64)]) {
        let mut q = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut next_payload = 0u64;
        for &(op, dt) in program {
            if op < 3 {
                // Push at now + dt; dt is frequently zero or tiny, so equal
                // timestamps (FIFO ties) are common.
                let at = q.now() + SimDuration::from_nanos(dt);
                q.push(at, next_payload);
                heap.push(at, next_payload);
                next_payload += 1;
            } else {
                assert_eq!(q.pop(), heap.pop(), "pop diverged");
            }
            assert_eq!(q.len(), heap.len());
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
            program in proptest::collection::vec((0u8..4, 0u64..500), 0..400)
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
