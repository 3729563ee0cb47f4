//! The buffered set: host-memory staging of prefetched data.
//!
//! Every dispatched stream owns one or more R-sized [`IoBuffer`]s. A buffer
//! is allocated when the read-ahead request is issued, marked *filled* when
//! the disk delivers, serves client requests from memory, and is freed when
//! the last byte is consumed — or reclaimed by the garbage collector if its
//! stream goes quiet (paper §4.3). Total allocation never exceeds `M`.

use seqio_simcore::SimTime;

use crate::stream::StreamId;

/// Identifier of one staging buffer, in allocation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct BufferId(u64);

/// Block address (512-byte units).
pub type Lba = u64;

const BLOCK: u64 = 512;

/// One staging buffer.
#[derive(Debug, Clone)]
pub(crate) struct IoBuffer {
    /// Identifier.
    pub id: BufferId,
    /// First block staged.
    pub start: Lba,
    /// Length in blocks.
    pub blocks: u64,
    /// `true` once the disk delivered the data.
    pub filled: bool,
    /// Blocks from `start` already served to clients.
    pub consumed: u64,
    /// Last time the buffer served (or received) data.
    pub last_access: SimTime,
}

impl IoBuffer {
    /// One past the last staged block.
    pub fn end(&self) -> Lba {
        self.start + self.blocks
    }
}

/// Outcome of trying to serve a client request from the buffered set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Coverage {
    /// Entirely covered by filled buffers: serve from memory now.
    Ready,
    /// Covered, but part of it is still being filled by an in-flight
    /// read-ahead: the request must wait for the fill to land.
    InFlight,
    /// Not covered: the scheduler must fetch it.
    Missing,
}

/// The buffered set with `M`-bounded accounting.
///
/// Each stream's buffers sit in one `Vec`, indexed by the stream's slot
/// and sorted by `(start, id)`. When buffers overlap (a fill restarted
/// behind the frontier), that is the order the coverage walks chain them
/// in. A stream's list must be empty when its slot is handed to a new
/// stream; [`free_stream`](Self::free_stream) checks it.
#[derive(Debug)]
pub(crate) struct BufferPool {
    capacity: u64,
    used: u64,
    peak: u64,
    by_slot: Vec<Vec<IoBuffer>>,
    next_id: u64,
}

impl BufferPool {
    /// Creates a pool bounded at `capacity` bytes (`M`).
    pub fn new(capacity: u64) -> Self {
        BufferPool { capacity, used: 0, peak: 0, by_slot: Vec::new(), next_id: 0 }
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Highest allocation ever reached.
    pub fn peak_bytes(&self) -> u64 {
        self.peak
    }

    /// Configured bound (`M`).
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    /// The buffers of `stream`, sorted by `(start, id)`.
    fn list(&self, stream: StreamId) -> &[IoBuffer] {
        self.by_slot.get(stream.slot()).map_or(&[], Vec::as_slice)
    }

    /// Allocates a buffer for `[start, start+blocks)` of `stream`, or
    /// returns `None` if that would exceed `M`.
    pub fn try_alloc(
        &mut self,
        stream: StreamId,
        start: Lba,
        blocks: u64,
        now: SimTime,
    ) -> Option<BufferId> {
        let bytes = blocks * BLOCK;
        if self.used + bytes > self.capacity {
            return None;
        }
        let id = BufferId(self.next_id);
        self.next_id += 1;
        self.used += bytes;
        self.peak = self.peak.max(self.used);
        let slot = stream.slot();
        if slot >= self.by_slot.len() {
            self.by_slot.resize_with(slot + 1, Vec::new);
        }
        // The new id is the greatest yet, so it goes after every buffer
        // with the same start: at the end for a fill at the frontier.
        let list = &mut self.by_slot[slot];
        let at = list.partition_point(|b| b.start <= start);
        list.insert(
            at,
            IoBuffer { id, start, blocks, filled: false, consumed: 0, last_access: now },
        );
        Some(id)
    }

    /// Marks buffer `id` of `stream` as filled by the disk.
    ///
    /// # Panics
    ///
    /// Panics if the stream holds no such buffer.
    pub fn mark_filled(&mut self, stream: StreamId, id: BufferId, now: SimTime) {
        let b = self
            .by_slot
            .get_mut(stream.slot())
            .and_then(|list| list.iter_mut().find(|b| b.id == id))
            .expect("mark_filled: unknown buffer");
        b.filled = true;
        b.last_access = now;
    }

    /// Classifies how `[lba, lba+blocks)` of `stream` is covered by the
    /// stream's buffers (chaining across contiguous buffers).
    pub fn coverage(&self, stream: StreamId, lba: Lba, blocks: u64) -> Coverage {
        let end = lba + blocks;
        let mut at = lba;
        let mut any_unfilled = false;
        for b in self.list(stream) {
            if b.start > at {
                break; // gap
            }
            if b.end() <= at {
                continue;
            }
            if !b.filled {
                any_unfilled = true;
            }
            at = b.end();
            if at >= end {
                return if any_unfilled { Coverage::InFlight } else { Coverage::Ready };
            }
        }
        Coverage::Missing
    }

    /// Returns the first block at or after `from` (bounded by `limit`) that
    /// no buffer of `stream` covers — filled or in flight. Used to resume
    /// fetching exactly at the gap instead of re-reading staged data.
    pub fn covered_until(&self, stream: StreamId, from: Lba, limit: Lba) -> Lba {
        let mut at = from;
        for b in self.list(stream) {
            if b.start > at {
                break; // gap
            }
            if b.end() <= at {
                continue;
            }
            at = b.end();
            if at >= limit {
                return limit;
            }
        }
        at.min(limit)
    }

    /// Records that `[lba, lba+blocks)` of `stream` has been served,
    /// advancing consumption watermarks. Buffers whose data is entirely at
    /// or below the served range's end are freed ("last request that
    /// corresponds to an I/O buffer" — paper §4.3). Returns the number of
    /// bytes freed.
    pub fn consume(&mut self, stream: StreamId, lba: Lba, blocks: u64, now: SimTime) -> u64 {
        let end = lba + blocks;
        let Some(list) = self.by_slot.get_mut(stream.slot()) else { return 0 };
        let mut freed = 0;
        list.retain_mut(|b| {
            if b.start < end && b.filled {
                let new_consumed = (end.min(b.end())) - b.start;
                b.consumed = b.consumed.max(new_consumed);
                b.last_access = now;
            }
            if b.filled && b.consumed >= b.blocks {
                freed += b.blocks * BLOCK;
                false
            } else {
                true
            }
        });
        self.used -= freed;
        freed
    }

    /// Frees every buffer of `stream` when the stream is torn down, leaving
    /// its slot's list empty for the next stream. Returns bytes freed.
    ///
    /// # Panics
    ///
    /// Panics if a buffer of `stream` is still being filled: streams are
    /// torn down only with no fill in flight.
    pub fn free_stream(&mut self, stream: StreamId) -> u64 {
        let Some(list) = self.by_slot.get_mut(stream.slot()) else { return 0 };
        assert!(list.iter().all(|b| b.filled), "free_stream: a fill is still in flight");
        let freed = list.drain(..).map(|b| b.blocks * BLOCK).sum();
        self.used -= freed;
        freed
    }

    /// Reclaims filled buffers idle since before `cutoff`; returns the bytes
    /// freed.
    pub fn gc(&mut self, cutoff: SimTime) -> u64 {
        let mut freed = 0;
        for list in &mut self.by_slot {
            list.retain(|b| {
                let idle = b.filled && b.last_access < cutoff;
                if idle {
                    freed += b.blocks * BLOCK;
                }
                !idle
            });
        }
        self.used -= freed;
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamTable;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    /// Ids of `n` live streams, in slots `0..n`.
    fn streams(n: usize) -> Vec<StreamId> {
        let mut tb = StreamTable::new();
        (0..n).map(|_| tb.create(0, 0, 0, SimTime::ZERO)).collect()
    }

    fn one_stream() -> StreamId {
        streams(1)[0]
    }

    #[test]
    fn alloc_respects_capacity() {
        let s = one_stream();
        let mut p = BufferPool::new(1024 * 1024); // 2048 blocks
        let a = p.try_alloc(s, 0, 1024, t(0));
        assert!(a.is_some());
        let b = p.try_alloc(s, 1024, 1024, t(0));
        assert!(b.is_some());
        assert_eq!(p.used_bytes(), 1024 * 1024);
        assert!(p.try_alloc(s, 2048, 1, t(0)).is_none(), "over capacity");
        assert_eq!(p.peak_bytes(), 1024 * 1024);
    }

    #[test]
    fn coverage_transitions() {
        let s = one_stream();
        let mut p = BufferPool::new(10 * 1024 * 1024);
        assert_eq!(p.coverage(s, 0, 128), Coverage::Missing);
        let id = p.try_alloc(s, 0, 1024, t(0)).unwrap();
        assert_eq!(p.coverage(s, 0, 128), Coverage::InFlight);
        p.mark_filled(s, id, t(1));
        assert_eq!(p.coverage(s, 0, 128), Coverage::Ready);
        assert_eq!(p.coverage(s, 896, 128), Coverage::Ready);
        assert_eq!(p.coverage(s, 1000, 128), Coverage::Missing, "past the end");
    }

    #[test]
    fn coverage_chains_across_contiguous_buffers() {
        let s = one_stream();
        let mut p = BufferPool::new(10 * 1024 * 1024);
        let a = p.try_alloc(s, 0, 1024, t(0)).unwrap();
        let b = p.try_alloc(s, 1024, 1024, t(0)).unwrap();
        p.mark_filled(s, a, t(1));
        assert_eq!(p.coverage(s, 1000, 48), Coverage::InFlight, "straddles into unfilled");
        p.mark_filled(s, b, t(2));
        assert_eq!(p.coverage(s, 1000, 48), Coverage::Ready);
        // A gap breaks the chain.
        assert_eq!(p.coverage(s, 2048, 8), Coverage::Missing);
    }

    #[test]
    fn consume_frees_fully_used_buffers() {
        let s = one_stream();
        let mut p = BufferPool::new(10 * 1024 * 1024);
        let a = p.try_alloc(s, 0, 1024, t(0)).unwrap();
        p.mark_filled(s, a, t(1));
        // Consume in four quarters; only the last frees.
        for q in 0..4u64 {
            let freed = p.consume(s, q * 256, 256, t(2 + q));
            if q < 3 {
                assert_eq!(freed, 0);
            } else {
                assert_eq!(freed, 1024 * 512);
            }
        }
        assert_eq!(p.used_bytes(), 0);
        assert_eq!(p.coverage(s, 0, 1), Coverage::Missing, "the stream holds no buffer");
    }

    #[test]
    fn consume_with_skip_frees_bypassed_buffers() {
        let s = one_stream();
        let mut p = BufferPool::new(10 * 1024 * 1024);
        let a = p.try_alloc(s, 0, 512, t(0)).unwrap();
        let b = p.try_alloc(s, 512, 512, t(0)).unwrap();
        p.mark_filled(s, a, t(1));
        p.mark_filled(s, b, t(1));
        // A near-sequential client skips the first buffer entirely.
        let freed = p.consume(s, 512, 512, t(2));
        // Both buffers end at or below 1024: both are freed.
        assert_eq!(freed, 1024 * 512);
    }

    #[test]
    fn gc_reclaims_idle_filled_buffers_only() {
        let ids = streams(2);
        let mut p = BufferPool::new(10 * 1024 * 1024);
        let a = p.try_alloc(ids[0], 0, 512, t(0)).unwrap();
        let _inflight = p.try_alloc(ids[1], 9000, 512, t(0)).unwrap();
        p.mark_filled(ids[0], a, t(1));
        let freed = p.gc(t(100));
        assert_eq!(freed, 512 * 512);
        assert_eq!(p.coverage(ids[0], 0, 1), Coverage::Missing, "the idle buffer is gone");
        // The unfilled buffer survives (its disk request is outstanding).
        assert_eq!(p.coverage(ids[1], 9000, 1), Coverage::InFlight);
        assert_eq!(p.used_bytes(), 512 * 512);
    }

    #[test]
    fn gc_respects_recent_access() {
        let s = one_stream();
        let mut p = BufferPool::new(10 * 1024 * 1024);
        let a = p.try_alloc(s, 0, 512, t(0)).unwrap();
        p.mark_filled(s, a, t(50));
        let freed = p.gc(t(10));
        assert_eq!(freed, 0, "recently touched buffer must survive");
    }

    #[test]
    fn free_stream_frees_every_filled_buffer() {
        let s = one_stream();
        let mut p = BufferPool::new(10 * 1024 * 1024);
        let a = p.try_alloc(s, 0, 512, t(0)).unwrap();
        let b = p.try_alloc(s, 512, 512, t(0)).unwrap();
        p.mark_filled(s, a, t(1));
        p.mark_filled(s, b, t(1));
        assert_eq!(p.free_stream(s), 2 * 512 * 512);
        assert_eq!(p.used_bytes(), 0);
        assert_eq!(p.coverage(s, 0, 1), Coverage::Missing);
        assert_eq!(p.free_stream(s), 0, "nothing left to free");
    }

    #[test]
    #[should_panic(expected = "fill is still in flight")]
    fn free_stream_with_a_fill_in_flight_panics() {
        let s = one_stream();
        let mut p = BufferPool::new(10 * 1024 * 1024);
        let _inflight = p.try_alloc(s, 0, 512, t(0)).unwrap();
        p.free_stream(s);
    }

    #[test]
    fn per_stream_isolation() {
        let ids = streams(2);
        let mut p = BufferPool::new(10 * 1024 * 1024);
        let a = p.try_alloc(ids[0], 0, 512, t(0)).unwrap();
        p.mark_filled(ids[0], a, t(1));
        assert_eq!(p.coverage(ids[1], 0, 8), Coverage::Missing);
        assert_eq!(p.consume(ids[1], 0, 512, t(2)), 0);
        assert_eq!(p.coverage(ids[0], 0, 8), Coverage::Ready);
    }

    #[test]
    fn overlapping_buffers_keep_start_then_allocation_order() {
        let s = one_stream();
        let mut p = BufferPool::new(10 * 1024 * 1024);
        let late = p.try_alloc(s, 256, 256, t(0)).unwrap();
        let early = p.try_alloc(s, 0, 128, t(0)).unwrap();
        let again = p.try_alloc(s, 0, 512, t(0)).unwrap();
        let order: Vec<_> = p.list(s).iter().map(|b| b.id).collect();
        assert_eq!(order, [early, again, late]);
        assert_eq!(p.covered_until(s, 0, 1024), 512);
    }
}
