//! Test oracles: the stream table and the buffered set as they were before
//! streams and buffers moved to slots and sorted vectors, the admission
//! queue before it split per disk, and the region bitmap before it set
//! whole words; and seeded differential programs that drive old and new
//! side by side.
//!
//! The old structures key streams and buffers by SipHash maps, keep a
//! per-disk `BTreeMap` of `(client_next, id)` and sort a stream's buffers by
//! start on every coverage walk. The old admission queue is one queue of
//! every disk's waiting streams, walked from the front on every pick, and
//! the old bitmap sets one bit per loop pass. The new ones must return the
//! same value for every call, with old ids mapped to new ones.

use std::collections::HashMap;

use proptest::prelude::*;
use seqio_simcore::{SimRng, SimTime};

use crate::admission::AdmissionQueues;
use crate::bitmap::RegionBitmap;
use crate::buffer::{BufferId, BufferPool, Coverage, Lba};
use crate::stream::{PendingRequest, StreamId, StreamTable};

/// The stream table, buffered set, admission queue and region bitmap as
/// they were, trimmed to what the differential programs call.
mod old {
    use std::collections::{BTreeMap, HashMap, VecDeque};

    use seqio_simcore::SimTime;

    use crate::buffer::{Coverage, Lba};
    use crate::stream::{self, PendingRequest};

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub struct StreamId(pub u64);

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub struct BufferId(pub u64);

    pub struct Stream {
        pub id: StreamId,
        pub disk: usize,
        pub client_next: Lba,
        pub frontier: Lba,
        pub pending: VecDeque<PendingRequest>,
        pub dispatched: bool,
        pub inflight: bool,
        pub last_active: SimTime,
    }

    #[derive(Default)]
    pub struct StreamTable {
        streams: HashMap<StreamId, Stream>,
        index: HashMap<usize, BTreeMap<(Lba, StreamId), ()>>,
        next_id: u64,
    }

    impl StreamTable {
        pub fn len(&self) -> usize {
            self.streams.len()
        }

        pub fn create(
            &mut self,
            disk: usize,
            client_next: Lba,
            frontier: Lba,
            now: SimTime,
        ) -> StreamId {
            let id = StreamId(self.next_id);
            self.next_id += 1;
            self.streams.insert(
                id,
                Stream {
                    id,
                    disk,
                    client_next,
                    frontier,
                    pending: VecDeque::new(),
                    dispatched: false,
                    inflight: false,
                    last_active: now,
                },
            );
            self.index.entry(disk).or_default().insert((client_next, id), ());
            id
        }

        pub fn get(&self, id: StreamId) -> Option<&Stream> {
            self.streams.get(&id)
        }

        pub fn get_mut(&mut self, id: StreamId) -> Option<&mut Stream> {
            self.streams.get_mut(&id)
        }

        pub fn match_request(&self, disk: usize, lba: Lba, slack: u64) -> Option<StreamId> {
            let idx = self.index.get(&disk)?;
            let lo = (lba.saturating_sub(slack), StreamId(0));
            let hi = (lba, StreamId(u64::MAX));
            idx.range(lo..=hi).next_back().map(|(&(_, id), ())| id)
        }

        pub fn advance_client_next(&mut self, id: StreamId, new_next: Lba) {
            let s = self.streams.get_mut(&id).expect("advance on unknown stream");
            if s.client_next == new_next {
                return;
            }
            let idx = self.index.get_mut(&s.disk).expect("index out of sync");
            idx.remove(&(s.client_next, id));
            idx.insert((new_next, id), ());
            s.client_next = new_next;
        }

        /// How many index entries an advance of `id` to `to` passes.
        pub fn passed(&self, id: StreamId, to: Lba) -> usize {
            let s = &self.streams[&id];
            self.index[&s.disk].range((s.client_next, id)..(to, id)).count() - 1
        }

        pub fn remove(&mut self, id: StreamId) -> Option<Stream> {
            let s = self.streams.remove(&id)?;
            if let Some(idx) = self.index.get_mut(&s.disk) {
                idx.remove(&(s.client_next, id));
            }
            Some(s)
        }

        pub fn idle_streams(&self, cutoff: SimTime) -> Vec<StreamId> {
            self.streams
                .values()
                .filter(|s| {
                    s.last_active < cutoff && s.pending.is_empty() && !s.inflight && !s.dispatched
                })
                .map(|s| s.id)
                .collect()
        }
    }

    const BLOCK: u64 = 512;

    struct IoBuffer {
        stream: StreamId,
        start: Lba,
        blocks: u64,
        filled: bool,
        consumed: u64,
        last_access: SimTime,
    }

    impl IoBuffer {
        fn end(&self) -> Lba {
            self.start + self.blocks
        }
    }

    pub struct BufferPool {
        capacity: u64,
        used: u64,
        peak: u64,
        buffers: HashMap<BufferId, IoBuffer>,
        by_stream: HashMap<StreamId, Vec<BufferId>>,
        next_id: u64,
    }

    impl BufferPool {
        pub fn new(capacity: u64) -> Self {
            BufferPool {
                capacity,
                used: 0,
                peak: 0,
                buffers: HashMap::new(),
                by_stream: HashMap::new(),
                next_id: 0,
            }
        }

        pub fn used_bytes(&self) -> u64 {
            self.used
        }

        pub fn peak_bytes(&self) -> u64 {
            self.peak
        }

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
            self.buffers.insert(
                id,
                IoBuffer { stream, start, blocks, filled: false, consumed: 0, last_access: now },
            );
            self.by_stream.entry(stream).or_default().push(id);
            Some(id)
        }

        pub fn mark_filled(&mut self, id: BufferId, now: SimTime) {
            let b = self.buffers.get_mut(&id).expect("mark_filled: unknown buffer");
            b.filled = true;
            b.last_access = now;
        }

        pub fn coverage(&self, stream: StreamId, lba: Lba, blocks: u64) -> Coverage {
            let end = lba + blocks;
            let Some(ids) = self.by_stream.get(&stream) else { return Coverage::Missing };
            let mut bufs: Vec<&IoBuffer> = ids.iter().filter_map(|i| self.buffers.get(i)).collect();
            bufs.sort_by_key(|b| b.start);
            let mut at = lba;
            let mut any_unfilled = false;
            for b in bufs {
                if b.end() <= at || b.start > at {
                    if b.start > at {
                        break; // gap
                    }
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

        pub fn covered_until(&self, stream: StreamId, from: Lba, limit: Lba) -> Lba {
            let Some(ids) = self.by_stream.get(&stream) else { return from };
            let mut bufs: Vec<&IoBuffer> = ids.iter().filter_map(|i| self.buffers.get(i)).collect();
            bufs.sort_by_key(|b| b.start);
            let mut at = from;
            for b in bufs {
                if b.end() <= at {
                    continue;
                }
                if b.start > at {
                    break; // gap
                }
                at = b.end();
                if at >= limit {
                    return limit;
                }
            }
            at.min(limit)
        }

        pub fn consume(&mut self, stream: StreamId, lba: Lba, blocks: u64, now: SimTime) -> u64 {
            let end = lba + blocks;
            let buffers = &mut self.buffers;
            let Some(ids) = self.by_stream.get_mut(&stream) else { return 0 };
            let mut freed = 0;
            ids.retain(|id| {
                let b = buffers.get_mut(id).expect("index out of sync");
                if b.start < end && b.filled {
                    let new_consumed = (end.min(b.end())) - b.start;
                    b.consumed = b.consumed.max(new_consumed);
                    b.last_access = now;
                }
                if b.filled && b.consumed >= b.blocks {
                    freed += b.blocks * BLOCK;
                    buffers.remove(id);
                    false
                } else {
                    true
                }
            });
            self.used -= freed;
            if freed > 0 {
                self.prune_stream_index(stream);
            }
            freed
        }

        fn prune_stream_index(&mut self, stream: StreamId) {
            if let Some(v) = self.by_stream.get(&stream) {
                if v.is_empty() {
                    self.by_stream.remove(&stream);
                }
            }
        }

        /// The old `free_stream(stream, false)`: in-flight buffers stay.
        pub fn free_stream(&mut self, stream: StreamId) -> u64 {
            let buffers = &mut self.buffers;
            let Some(ids) = self.by_stream.get_mut(&stream) else { return 0 };
            let mut freed = 0;
            ids.retain(|id| {
                let b = &buffers[id];
                if b.filled {
                    freed += b.blocks * BLOCK;
                    buffers.remove(id);
                    false
                } else {
                    true
                }
            });
            self.used -= freed;
            self.prune_stream_index(stream);
            freed
        }

        pub fn gc(&mut self, cutoff: SimTime) -> u64 {
            let victims: Vec<BufferId> = self
                .buffers
                .iter()
                .filter(|(_, b)| b.filled && b.last_access < cutoff)
                .map(|(&id, _)| id)
                .collect();
            let mut freed = 0;
            for id in victims {
                let b = self.buffers.remove(&id).expect("victim exists");
                freed += b.blocks * BLOCK;
                if let Some(v) = self.by_stream.get_mut(&b.stream) {
                    v.retain(|x| *x != id);
                }
                self.prune_stream_index(b.stream);
            }
            self.used -= freed;
            freed
        }
    }

    /// The round-robin admission queue of every disk's waiting streams.
    #[derive(Default)]
    pub struct AdmissionQueue {
        rr: VecDeque<stream::StreamId>,
    }

    impl AdmissionQueue {
        pub fn push(&mut self, id: stream::StreamId) {
            self.rr.push_back(id);
        }

        pub fn get(&self, i: usize) -> stream::StreamId {
            self.rr[i]
        }

        pub fn remove(&mut self, i: usize) {
            self.rr.remove(i);
        }

        /// The old `pick_admission`, with the server's per-disk quota test
        /// passed in as `open`.
        pub fn pick(
            &mut self,
            streams: &stream::StreamTable,
            open: impl Fn(usize) -> bool,
        ) -> Option<usize> {
            let mut i = 0;
            while i < self.rr.len() {
                let sid = self.rr[i];
                match streams.get(sid) {
                    None => {
                        self.rr.remove(i);
                    }
                    Some(s) if !s.waiting => {
                        self.rr.remove(i);
                    }
                    Some(s) => {
                        if open(s.disk) {
                            return Some(i);
                        }
                        i += 1;
                    }
                }
            }
            None
        }
    }

    /// The region bitmap that set one bit per loop pass.
    pub struct BitLoopBitmap {
        base: Lba,
        len: u64,
        words: Vec<u64>,
        set_count: u64,
    }

    impl BitLoopBitmap {
        pub fn new(base: Lba, len: u64) -> Self {
            BitLoopBitmap { base, len, words: vec![0; len.div_ceil(64) as usize], set_count: 0 }
        }

        pub fn set_count(&self) -> u64 {
            self.set_count
        }

        pub fn set_range(&mut self, lba: Lba, blocks: u64) -> u64 {
            let lo = lba.max(self.base);
            let hi = (lba + blocks).min(self.base + self.len);
            let mut newly = 0;
            let mut b = lo;
            while b < hi {
                let off = b - self.base;
                let w = (off / 64) as usize;
                let bit = 1u64 << (off % 64);
                if self.words[w] & bit == 0 {
                    self.words[w] |= bit;
                    newly += 1;
                }
                b += 1;
            }
            self.set_count += newly;
            newly
        }
    }
}

/// Operations per differential program.
const OPS: usize = 100_000;

fn ms(v: u64) -> SimTime {
    SimTime::from_nanos(v * 1_000_000)
}

/// Picks one entry of a non-empty slice.
fn pick<T: Copy>(rng: &mut SimRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

/// A `client_next` from a small grid, so streams collide on it often.
fn grid_lba(rng: &mut SimRng) -> Lba {
    rng.below(48) * 128
}

#[test]
fn stream_table_matches_the_reference() {
    let mut rng = SimRng::seed_from(17);
    let mut new = StreamTable::new();
    let mut old = old::StreamTable::default();
    // Live streams as (old, new) pairs, and the new ids of removed ones.
    let mut live: Vec<(old::StreamId, StreamId)> = Vec::new();
    let mut to_new: HashMap<old::StreamId, StreamId> = HashMap::new();
    let mut stale: Vec<StreamId> = Vec::new();
    let mut clock = 0;
    let (mut matched, mut reused, mut slots_seen, mut shifted) = (0, 0, 0, 0);
    for _ in 0..OPS {
        clock += rng.below(3);
        let op = rng.below(20);
        if (op < 5 && live.len() < 64) || live.is_empty() {
            let disk = rng.below(3) as usize;
            let next = grid_lba(&mut rng);
            let frontier = next + rng.below(4) * 128;
            let o = old.create(disk, next, frontier, ms(clock));
            let n = new.create(disk, next, frontier, ms(clock));
            reused += usize::from(n.slot() < slots_seen);
            slots_seen = slots_seen.max(n.slot() + 1);
            live.push((o, n));
            to_new.insert(o, n);
        } else if op < 8 {
            let at = rng.below(live.len() as u64) as usize;
            let (o, n) = live.swap_remove(at);
            let (so, sn) = (old.remove(o).expect("live"), new.remove(n).expect("live"));
            assert_eq!(
                (so.disk, so.client_next, so.frontier),
                (sn.disk, sn.client_next, sn.frontier)
            );
            assert!(new.remove(n).is_none() && old.remove(o).is_none());
            stale.push(n);
        } else if op < 17 {
            // Half the probes land just past a live stream's position.
            let (disk, lba) = if rng.chance(0.5) {
                let s = old.get(pick(&mut rng, &live).0).expect("live");
                (s.disk, s.client_next + rng.below(160))
            } else {
                (rng.below(4) as usize, grid_lba(&mut rng) + rng.below(256))
            };
            let slack = pick(&mut rng, &[0, 64, 128, 1024]);
            let found = old.match_request(disk, lba, slack);
            let m = new.match_request(disk, lba, slack);
            assert_eq!(m.map(|m| m.id), found.map(|o| to_new[&o]), "match {disk}/{lba}/{slack}");
            matched += usize::from(found.is_some());
            // Four probes in nine advance their match past the request, as
            // the server does; the end lands on the grid a third of the time.
            if let (Some(o), Some(m)) = (found, m) {
                if op < 12 {
                    let end = if rng.chance(0.33) {
                        (lba / 128 + rng.range(1, 4)) * 128
                    } else {
                        lba + pick(&mut rng, &[1, 64, 128, 256, 384])
                    };
                    shifted += usize::from(old.passed(o, end) > 0);
                    old.advance_client_next(o, end);
                    assert_eq!(new.advance(m, end).client_next, end);
                }
            }
        } else if op < 19 {
            // Flip the flags the idle filter reads, the same on both.
            let (o, n) = pick(&mut rng, &live);
            let (so, sn) = (old.get_mut(o).expect("live"), new.get_mut(n).expect("live"));
            match rng.below(4) {
                0 => (so.inflight, sn.inflight) = (!so.inflight, !sn.inflight),
                1 => (so.dispatched, sn.dispatched) = (!so.dispatched, !sn.dispatched),
                2 => (so.last_active, sn.last_active) = (ms(clock), ms(clock)),
                _ if so.pending.is_empty() => {
                    let p = PendingRequest { client: 0, lba: so.client_next, blocks: 128 };
                    so.pending.push_back(p);
                    sn.pending.push_back(p);
                }
                _ => {
                    so.pending.clear();
                    sn.pending.clear();
                }
            }
        } else {
            let cutoff = ms(clock.saturating_sub(rng.below(200)));
            let mut expect: Vec<StreamId> =
                old.idle_streams(cutoff).into_iter().map(|o| to_new[&o]).collect();
            let mut got = new.idle_streams(cutoff);
            expect.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expect);
            if !stale.is_empty() {
                assert!(new.get(pick(&mut rng, &stale)).is_none(), "a removed id stays dead");
            }
        }
        assert_eq!(new.len(), old.len());
    }
    assert!(
        matched > 5_000 && reused > 10_000 && shifted > 1_000,
        "{matched} matches, {reused} slot reuses, {shifted} advances past a neighbour"
    );
}

/// One stream of the buffered-set program, in both id spaces.
struct PoolStream {
    old: old::StreamId,
    new: StreamId,
    /// Next fill start at the frontier.
    frontier: Lba,
    /// Where the client reads next.
    cursor: Lba,
    /// Fills in flight.
    unfilled: Vec<(old::BufferId, BufferId)>,
}

#[test]
fn buffer_pool_matches_the_reference() {
    let mut rng = SimRng::seed_from(71);
    // Room for 48 buffers of 128 blocks: enough that allocations fail now
    // and then, with six streams of a few buffers each.
    let capacity = 48 * 128 * 512;
    let mut new = BufferPool::new(capacity);
    let mut old = old::BufferPool::new(capacity);
    let mut table = StreamTable::new();
    let mut next_old = 0;
    let mut fresh = |table: &mut StreamTable, start: Lba| {
        next_old += 1;
        PoolStream {
            old: old::StreamId(next_old),
            new: table.create(0, start, start, SimTime::ZERO),
            frontier: start,
            cursor: start,
            unfilled: Vec::new(),
        }
    };
    let mut streams: Vec<PoolStream> = (0..6).map(|i| fresh(&mut table, i * 1_000_000)).collect();
    let mut clock = 0;
    let (mut overlapping, mut torn_down, mut ready) = (0, 0, 0);
    for _ in 0..OPS {
        clock += rng.below(4);
        let now = ms(clock);
        let at = rng.below(streams.len() as u64) as usize;
        let s = &mut streams[at];
        match rng.below(24) {
            0..=4 => {
                // Mostly at the frontier; sometimes behind it, so buffers
                // overlap and share starts.
                let behind = if rng.chance(0.25) { rng.below(5) * 64 } else { 0 };
                let start = s.frontier.saturating_sub(behind).max(s.cursor.saturating_sub(64));
                let blocks = pick(&mut rng, &[64, 128, 256]);
                let got = (
                    old.try_alloc(s.old, start, blocks, now),
                    new.try_alloc(s.new, start, blocks, now),
                );
                match got {
                    (Some(o), Some(n)) => {
                        s.unfilled.push((o, n));
                        overlapping += usize::from(start < s.frontier);
                        s.frontier = s.frontier.max(start + blocks);
                    }
                    (None, None) => {}
                    _ => panic!("allocation outcomes differ"),
                }
            }
            5..=9 if !s.unfilled.is_empty() => {
                let (o, n) = s.unfilled.swap_remove(rng.below(s.unfilled.len() as u64) as usize);
                old.mark_filled(o, now);
                new.mark_filled(s.new, n, now);
            }
            10..=13 => {
                let lba = s.cursor.saturating_sub(32) + rng.below(160);
                let blocks = rng.range(1, 256);
                let expect = old.coverage(s.old, lba, blocks);
                assert_eq!(new.coverage(s.new, lba, blocks), expect);
                ready += usize::from(expect == Coverage::Ready);
            }
            14..=15 => {
                let from = s.cursor.saturating_sub(64) + rng.below(256);
                let limit = from + rng.range(1, 1024);
                assert_eq!(
                    new.covered_until(s.new, from, limit),
                    old.covered_until(s.old, from, limit)
                );
            }
            16..=20 => {
                let lba = s.cursor + rng.below(2) * rng.below(128);
                let blocks = rng.range(1, 256);
                assert_eq!(
                    new.consume(s.new, lba, blocks, now),
                    old.consume(s.old, lba, blocks, now)
                );
                s.cursor = lba + blocks;
                s.frontier = s.frontier.max(s.cursor);
            }
            21 => {
                let cutoff = ms(clock.saturating_sub(rng.below(400)));
                assert_eq!(new.gc(cutoff), old.gc(cutoff));
            }
            22 if s.unfilled.is_empty() => {
                // Teardown, as the garbage collector does it: only with no
                // fill in flight. The slot then goes to a new stream.
                assert_eq!(new.free_stream(s.new), old.free_stream(s.old));
                assert!(table.remove(s.new).is_some());
                let start = rng.below(64) * 1_000_000;
                streams[at] = fresh(&mut table, start);
                torn_down += 1;
            }
            _ => {}
        }
        assert_eq!(new.used_bytes(), old.used_bytes());
        assert_eq!(new.peak_bytes(), old.peak_bytes());
    }
    assert!(
        overlapping > 1_500 && torn_down > 300 && ready > 900,
        "{overlapping} overlapping allocations, {torn_down} teardowns, {ready} ready walks"
    );
}

/// Two streams wait at the same `client_next`; the later-created one got a
/// lower slot, recycled from a removed stream. Both tables give the
/// request to the later-created stream.
#[test]
fn match_prefers_the_later_stream_on_a_recycled_lower_slot() {
    let mut new = StreamTable::new();
    let mut old = old::StreamTable::default();
    let first = new.create(0, 0, 0, SimTime::ZERO);
    let earlier = new.create(0, 1000, 1000, SimTime::ZERO);
    new.remove(first);
    let later = new.create(0, 1000, 1000, SimTime::ZERO);
    assert!(later.slot() < earlier.slot(), "the later stream reuses slot {}", first.slot());
    assert_eq!(new.match_request(0, 1000, 0).map(|m| m.id), Some(later));
    assert_eq!(new.match_request(0, 1100, 128).map(|m| m.id), Some(later));

    let first = old.create(0, 0, 0, SimTime::ZERO);
    let _earlier = old.create(0, 1000, 1000, SimTime::ZERO);
    old.remove(first);
    let later_old = old.create(0, 1000, 1000, SimTime::ZERO);
    assert_eq!(old.match_request(0, 1000, 0), Some(later_old));
}

/// Drives the per-disk admission queues and the old single queue side by
/// side, the way the server does: streams wait on five disks, picks run
/// against per-disk quotas that a retune moves, and a pick ends as
/// `NoMemory` (it stays queued), `NoDemand` or `Issued`. Dispatched
/// streams retire and queue again, and the collector removes streams while
/// their entries are still queued, so stale ids of removed streams sit in
/// the queues while their slots hold new streams. Every pick must name the
/// same stream.
#[test]
fn admission_queues_match_the_single_queue_scan() {
    const DISKS: usize = 5;
    let mut rng = SimRng::seed_from(29);
    let mut table = StreamTable::new();
    let mut new = AdmissionQueues::new(DISKS);
    let mut old = old::AdmissionQueue::default();
    let (mut live, mut admitted): (Vec<StreamId>, Vec<StreamId>) = (Vec::new(), Vec::new());
    let mut dispatched = [0usize; DISKS];
    let mut quota = 2;
    let mut waiting = 0;
    let mut slots_seen = 0;
    let (mut picks, mut held, mut issued) = (0, 0, 0);
    let (mut stale, mut reused, mut retunes) = (0, 0, 0);
    for _ in 0..OPS {
        let at = rng.below(live.len().max(1) as u64) as usize;
        match rng.below(17) {
            0..=3 if live.len() < 96 => {
                let disk = rng.below(DISKS as u64) as usize;
                let id = table.create(disk, 0, 0, SimTime::ZERO);
                reused += usize::from(id.slot() < slots_seen);
                slots_seen = slots_seen.max(id.slot() + 1);
                table.get_mut(id).expect("just created").waiting = true;
                new.push(disk, id);
                old.push(id);
                waiting += 1;
                live.push(id);
            }
            4..=5 if !live.is_empty() => {
                let s = table.get_mut(live[at]).expect("live");
                if !s.waiting && !s.dispatched {
                    s.waiting = true;
                    new.push(s.disk, s.id);
                    old.push(s.id);
                    waiting += 1;
                }
            }
            6..=11 => {
                let open = |disk: usize| dispatched[disk] < quota;
                let got = new.pick(&table, open);
                let expect = old.pick(&table, open);
                assert_eq!(got.map(|p| p.id), expect.map(|i| old.get(i)), "pick");
                let (Some(got), Some(i)) = (got, expect) else { continue };
                picks += 1;
                match rng.below(3) {
                    0 => held += 1,
                    outcome => {
                        new.remove(got);
                        old.remove(i);
                        waiting -= 1;
                        let s = table.get_mut(got.id).expect("a pick is live");
                        s.waiting = false;
                        if outcome == 2 {
                            s.dispatched = true;
                            dispatched[s.disk] += 1;
                            admitted.push(s.id);
                            issued += 1;
                        }
                    }
                }
            }
            12..=13 if !admitted.is_empty() => {
                let id = admitted.swap_remove(rng.below(admitted.len() as u64) as usize);
                let s = table.get_mut(id).expect("a dispatched stream is live");
                s.dispatched = false;
                dispatched[s.disk] -= 1;
                if rng.chance(0.7) {
                    s.waiting = true;
                    new.push(s.disk, s.id);
                    old.push(s.id);
                    waiting += 1;
                }
            }
            14..=15 if !live.is_empty() => {
                // The collector never removes a dispatched stream.
                let s = table.get(live[at]).expect("live");
                if !s.dispatched {
                    stale += usize::from(s.waiting);
                    waiting -= usize::from(s.waiting);
                    table.remove(live.swap_remove(at));
                }
            }
            16 => {
                quota = rng.range(1, 4) as usize;
                retunes += 1;
            }
            _ => {}
        }
        assert!(waiting == 0 || !new.is_empty(), "a waiting stream is always queued");
    }
    assert!(
        picks > 20_000 && held > 5_000 && issued > 5_000,
        "{picks} picks, {held} held, {issued} issued"
    );
    assert!(
        stale > 2_000 && reused > 5_000 && retunes > 3_000,
        "{stale} stale entries, {reused} slot reuses, {retunes} retunes"
    );
}

proptest! {
    /// Word-wise `set_range` returns what the bit-at-a-time loop returns,
    /// call by call, and leaves the same bits set. Ranges start near the
    /// region's edges and near word boundaries inside it.
    #[test]
    fn prop_region_bitmap_matches_the_bit_loop(
        base in 0u64..300,
        len in 1u64..400,
        ranges in proptest::collection::vec((0u64..4, 0u64..2000, 1u64..200), 1..40)
    ) {
        let mut new = RegionBitmap::new(base, len);
        let mut old = old::BitLoopBitmap::new(base, len);
        for (anchor, offset, blocks) in ranges {
            let lba = match anchor {
                0 => (base + offset % 64).saturating_sub(32),
                1 => (base + len + offset % 64).saturating_sub(32),
                2 => (base + offset % len / 64 * 64 + offset % 8).saturating_sub(4),
                _ => offset,
            };
            prop_assert_eq!(new.set_range(lba, blocks), old.set_range(lba, blocks));
            prop_assert_eq!(new.set_count(), old.set_count());
        }
        for lba in base.saturating_sub(1)..base + len + 1 {
            prop_assert_eq!(new.set_range(lba, 1), old.set_range(lba, 1), "bit {}", lba);
        }
    }
}
