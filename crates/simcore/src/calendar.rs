//! Calendar event queue — the default DES kernel queue.
//!
//! [`EventQueue`] implements the same contract as the test-only binary-heap
//! reference queue (`HeapEventQueue` in `event.rs`) — strict
//! `(time, insertion-seq)` pop order, panic on scheduling into the past —
//! but stores pending events in a *calendar*: a ring of time buckets, each
//! `width` nanoseconds wide, that together cover one "year" of
//! `width * buckets` nanoseconds (R. Brown, CACM 1988). Push hashes an
//! event to the bucket of its timestamp; pop walks the ring one bucket
//! window at a time. With the bucket count resized to track the pending-set
//! size and the width re-estimated from the observed event spacing, both
//! operations are amortized O(1), versus O(log n) for the heap — this queue
//! is the hot loop of every figure reproduction.
//!
//! Determinism: the structure contains no randomness and no hashing of
//! payloads; for a given push/pop program the pop sequence is identical to
//! the reference queue's, which the differential property tests below (and
//! the bit-identical figure CSVs) verify.

use crate::time::SimTime;

#[derive(Debug)]
struct Entry<E> {
    at: u64,
    seq: u64,
    payload: E,
}

const MIN_BUCKETS: usize = 16;
/// Bucket width used before any spacing estimate exists (~1 µs). Widths
/// are always powers of two so the bucket of a timestamp is a shift, not
/// a division.
const DEFAULT_WIDTH: u64 = 1 << 10;
/// Pop-gap samples kept for the width estimate.
const GAP_SAMPLES: usize = 32;
/// A popped bucket still holding more entries than this triggers a width
/// re-estimate: the current width is funnelling too many events into one
/// bucket (the calendar's classic failure on clustered timestamps).
const REWIDTH_BUCKET_LEN: usize = 32;

/// One calendar day: an unsorted pile of entries plus the cached key of its
/// minimum. Push is O(1) (append + min update); only a pop that removes the
/// minimum pays a rescan of the pile.
struct Bucket<E> {
    entries: Vec<Entry<E>>,
    /// `(at, seq)` of the earliest entry, `None` when empty.
    min: Option<(u64, u64)>,
}

impl<E> Default for Bucket<E> {
    fn default() -> Self {
        Bucket { entries: Vec::new(), min: None }
    }
}

impl<E> Bucket<E> {
    fn push(&mut self, e: Entry<E>) {
        let key = (e.at, e.seq);
        if self.min.is_none_or(|m| key < m) {
            self.min = Some(key);
        }
        self.entries.push(e);
    }

    /// Removes and returns the minimum entry. Keys are unique, so the
    /// extraction (and the resulting pop order) is deterministic even
    /// though the pile itself is unordered. One pass locates the minimum
    /// and the runner-up (the new cached minimum) together.
    fn pop_min(&mut self) -> Entry<E> {
        let key = self.min.expect("pop_min on empty bucket");
        let mut idx = usize::MAX;
        let mut next: Option<(u64, u64)> = None;
        for (i, e) in self.entries.iter().enumerate() {
            let k = (e.at, e.seq);
            if k == key {
                idx = i;
            } else if next.is_none_or(|n| k < n) {
                next = Some(k);
            }
        }
        debug_assert!(idx != usize::MAX, "cached min present in bucket");
        let e = self.entries.swap_remove(idx);
        self.min = next;
        e
    }
}

/// A time-ordered event queue with stable FIFO tie-breaking, backed by a
/// calendar (bucket ring) rather than a heap.
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
    /// Bucket ring; each bucket caches its minimum `(at, seq)` so the pop
    /// scan rejects or accepts a whole bucket in O(1).
    buckets: Vec<Bucket<E>>,
    /// `buckets.len()`, always a power of two (so the ring index is a mask).
    mask: usize,
    /// Nanoseconds covered by one bucket per year; always a power of two.
    width: u64,
    /// `width.trailing_zeros()`, so `at >> shift` is the day of `at`.
    shift: u32,
    /// Ring position the next pop searches first.
    cursor: usize,
    /// Exclusive upper bound of the cursor bucket's current window. Kept in
    /// u128 so `width * buckets` years never overflow.
    window_top: u128,
    len: usize,
    next_seq: u64,
    now: SimTime,
    /// Ring of the most recent nonzero pop-to-pop time gaps. Their median
    /// sizes the buckets at the next resize: unlike a `(max - min) / n`
    /// span estimate it is not fooled by clustered timestamp distributions,
    /// where the span is huge but the head-of-queue spacing is tiny.
    gap_samples: [u64; GAP_SAMPLES],
    gap_fill: usize,
    gap_pos: usize,
    /// Ring rebuilds over the queue's lifetime (cheap bookkeeping for the
    /// kernel self-profile; never read by the scheduling logic).
    resizes: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len)
            .field("buckets", &self.buckets.len())
            .field("width_ns", &self.width)
            .field("now", &self.now)
            .finish()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Bucket::default()).collect(),
            mask: MIN_BUCKETS - 1,
            width: DEFAULT_WIDTH,
            shift: DEFAULT_WIDTH.trailing_zeros(),
            cursor: 0,
            window_top: DEFAULT_WIDTH as u128,
            len: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            gap_samples: [0; GAP_SAMPLES],
            gap_fill: 0,
            gap_pos: 0,
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
        self.len
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled (a simple progress metric).
    pub fn scheduled_count(&self) -> u64 {
        self.next_seq
    }

    /// Shape statistics for the kernel self-profile: lifetime pushes, the
    /// current ring size and bucket width, and how many times the ring
    /// was rebuilt.
    pub fn stats(&self) -> crate::QueueStats {
        crate::QueueStats {
            pushes: self.next_seq,
            buckets: self.buckets.len(),
            width_ns: self.width,
            resizes: self.resizes,
        }
    }

    /// Schedules `payload` to fire at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time — scheduling into the
    /// past is always a model bug and would silently corrupt causality.
    pub fn push(&mut self, at: SimTime, payload: E) {
        assert!(at >= self.now, "scheduling into the past: event at {at} but now is {}", self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.len == 0 {
            // Snap the search cursor to the first event's window so the next
            // pop starts exactly there instead of sweeping the ring.
            self.seek_to(at.as_nanos());
        } else if (at.as_nanos() as u128) < self.window_top - self.width as u128 {
            // The event lands below the current window: rewind so the scan
            // can't skip it. (Happens when a push-to-empty fast-forwarded the
            // cursor and a later push is earlier — legal while >= `now`.)
            self.seek_to(at.as_nanos());
        }
        self.insert(Entry { at: at.as_nanos(), seq, payload });
        self.len += 1;
        if self.len > 2 * self.buckets.len() {
            self.resize(self.buckets.len() * 2);
        }
    }

    /// Removes and returns the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        // Walk the ring, one bucket window per step; an entry belongs to the
        // current window exactly when its time is below the window top (it
        // can never be below the window bottom: everything earlier was
        // popped before the cursor moved past it).
        for _ in 0..=self.mask {
            if let Some((at, _)) = self.buckets[self.cursor].min {
                if (at as u128) < self.window_top {
                    let e = self.buckets[self.cursor].pop_min();
                    return Some(self.take(self.cursor, e));
                }
            }
            self.cursor = (self.cursor + 1) & self.mask;
            self.window_top += self.width as u128;
        }
        // A whole year held nothing: the next event is far away. Find the
        // global minimum directly and jump the calendar to its window.
        let (b, _) = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(b, v)| v.min.map(|key| (b, key)))
            .min_by_key(|&(_, key)| key)
            .expect("len > 0 implies a pending entry");
        let e = self.buckets[b].pop_min();
        self.seek_to(e.at);
        Some(self.take(b, e))
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        // Same search as `pop`, without touching the cursor state.
        let mut cursor = self.cursor;
        let mut top = self.window_top;
        for _ in 0..=self.mask {
            if let Some((at, _)) = self.buckets[cursor].min {
                if (at as u128) < top {
                    return Some(SimTime::from_nanos(at));
                }
            }
            cursor = (cursor + 1) & self.mask;
            top += self.width as u128;
        }
        self.buckets.iter().filter_map(|v| v.min).min().map(|(at, _)| SimTime::from_nanos(at))
    }

    /// Books a popped entry out of the queue.
    fn take(&mut self, bucket: usize, e: Entry<E>) -> (SimTime, E) {
        debug_assert!(e.at >= self.now.as_nanos());
        self.len -= 1;
        let gap = e.at - self.now.as_nanos();
        if gap > 0 {
            // Ties carry no spacing information; record only real advances.
            self.gap_samples[self.gap_pos] = gap;
            self.gap_pos = (self.gap_pos + 1) % GAP_SAMPLES;
            self.gap_fill = (self.gap_fill + 1).min(GAP_SAMPLES);
        }
        self.now = SimTime::from_nanos(e.at);
        if self.len < self.buckets.len() / 4 && self.buckets.len() > MIN_BUCKETS {
            self.resize(self.buckets.len() / 2);
        } else if self.buckets[bucket].entries.len() > REWIDTH_BUCKET_LEN {
            // The width is funnelling a crowd into one bucket; re-estimate,
            // but only rebuild if the estimate has actually moved (otherwise
            // a stubbornly bad estimate would trigger an O(n) rebuild per
            // pop).
            if let Some(w) = self.estimated_width() {
                if w < self.width / 2 || w > self.width.saturating_mul(2) {
                    self.set_width(w);
                    self.resize(self.buckets.len());
                }
            }
        }
        (self.now, e.payload)
    }

    /// Points the cursor at the window containing instant `ns`.
    fn seek_to(&mut self, ns: u64) {
        let day = ns >> self.shift;
        self.cursor = (day as usize) & self.mask;
        self.window_top = (day as u128 + 1) << self.shift;
    }

    /// Appends to the bucket of `e.at` (O(1): the pile is unordered, only
    /// its cached minimum is maintained).
    fn insert(&mut self, e: Entry<E>) {
        let b = ((e.at >> self.shift) as usize) & self.mask;
        self.buckets[b].push(e);
    }

    /// Sets the bucket width (rounded up to a power of two by the caller's
    /// estimate) and the matching day shift.
    fn set_width(&mut self, w: u64) {
        self.width = w.next_power_of_two();
        self.shift = self.width.trailing_zeros();
    }

    /// Width candidate from the recent pop-gap samples: a few head-of-queue
    /// gaps per bucket. The *median* gap is robust against both outlier
    /// jumps and clustered distributions, where a `(max - min) / n` span
    /// estimate is off by orders of magnitude. `None` until enough of the
    /// queue's head has been observed.
    fn estimated_width(&self) -> Option<u64> {
        if self.gap_fill < 4 {
            return None;
        }
        let mut s = self.gap_samples[..self.gap_fill].to_vec();
        s.sort_unstable();
        let w = s[self.gap_fill / 2].saturating_mul(4).clamp(1, 1 << 40);
        Some(w.next_power_of_two())
    }

    /// Rebuilds the ring with `n` buckets and a width re-estimated from the
    /// pending set's event spacing.
    fn resize(&mut self, n: usize) {
        debug_assert!(n.is_power_of_two());
        self.resizes += 1;
        let entries: Vec<Entry<E>> =
            self.buckets.iter_mut().flat_map(|b| std::mem::take(&mut b.entries)).collect();
        for b in &mut self.buckets {
            b.min = None;
        }
        if let Some(w) = self.estimated_width() {
            self.set_width(w);
        } else if entries.len() >= 2 {
            // No pops observed yet: spread the pending span over the count.
            let min = entries.iter().map(|e| e.at).min().expect("non-empty");
            let max = entries.iter().map(|e| e.at).max().expect("non-empty");
            let gap = (max - min) / (entries.len() as u64 - 1);
            self.set_width((gap * 2).clamp(1, 1 << 40));
        }
        if n > self.buckets.len() {
            self.buckets.resize_with(n, Bucket::default);
        } else {
            self.buckets.truncate(n);
        }
        self.mask = n - 1;
        for e in entries {
            self.insert(e);
        }
        // The clock never runs backwards, so the earliest pending entry is
        // at or after `now`; restart the search at the clock's window.
        self.seek_to(self.now.as_nanos());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::HeapEventQueue;
    use crate::time::SimDuration;
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
    fn stats_expose_shape_and_resize_count() {
        let mut q = EventQueue::new();
        let s = q.stats();
        assert_eq!((s.pushes, s.buckets, s.resizes), (0, MIN_BUCKETS, 0));
        for i in 0..10_000u64 {
            q.push(SimTime::from_nanos(i * 1_000), i);
        }
        let s = q.stats();
        assert_eq!(s.pushes, 10_000);
        assert!(s.resizes > 0, "growth rebuilds the ring");
        assert!(s.buckets > MIN_BUCKETS && s.width_ns.is_power_of_two());
        while q.pop().is_some() {}
        assert!(q.stats().resizes > s.resizes, "draining shrinks the ring");
    }

    #[test]
    fn far_future_events_pop_after_a_year_jump() {
        let mut q = EventQueue::new();
        // Sprinkle near events, then one far beyond any calendar year.
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

    #[test]
    fn grows_and_shrinks_through_resizes() {
        let mut q = EventQueue::new();
        for i in 0..100_000u64 {
            q.push(SimTime::from_nanos((i * 2_654_435_761) % 1_000_000_000), i);
        }
        assert!(q.buckets.len() > MIN_BUCKETS, "growth expected");
        let mut last = 0;
        for _ in 0..100_000 {
            let (t, _) = q.pop().expect("full");
            assert!(t.as_nanos() >= last);
            last = t.as_nanos();
        }
        assert_eq!(q.buckets.len(), MIN_BUCKETS, "shrink back when drained");
        assert!(q.pop().is_none());
    }

    /// Drives the calendar queue and the heap reference queue through the
    /// same interleaved push/pop program and asserts identical observable
    /// behaviour at every step — including FIFO ordering at equal
    /// timestamps (the `dt == 0`/tiny-delta cases below hit ties often).
    fn differential(program: &[(u8, u64)]) {
        let mut cal = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut next_payload = 0u64;
        for &(op, dt) in program {
            if op < 3 {
                // Push at now + dt; dt is frequently zero or tiny, so equal
                // timestamps (FIFO ties) are common.
                let at = cal.now() + SimDuration::from_nanos(dt);
                cal.push(at, next_payload);
                heap.push(at, next_payload);
                next_payload += 1;
            } else {
                assert_eq!(cal.pop(), heap.pop(), "pop diverged");
            }
            assert_eq!(cal.len(), heap.len());
            assert_eq!(cal.now(), heap.now());
            assert_eq!(cal.peek_time(), heap.peek_time());
        }
        // Drain: the remaining sequences must match exactly.
        loop {
            let (a, b) = (cal.pop(), heap.pop());
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

        /// Same property under clustered timestamps (many ties, then
        /// far-future jumps) — the calendar's worst-case shapes.
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
