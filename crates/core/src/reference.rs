//! Test oracles: the stream table and the buffered set as they were before
//! streams and buffers moved to slots and sorted vectors, and seeded
//! differential programs that drive old and new side by side.
//!
//! The old structures key streams and buffers by SipHash maps, keep a
//! per-disk `BTreeMap` of `(client_next, id)` and sort a stream's buffers by
//! start on every coverage walk. The new ones must return the same value for
//! every call, with old ids mapped to new ones.

use std::collections::HashMap;

use seqio_simcore::{SimRng, SimTime};

use crate::buffer::{BufferId, BufferPool, Coverage, Lba};
use crate::stream::{PendingRequest, StreamId, StreamTable};

/// The stream table and buffered set as they were, trimmed to what the
/// differential programs call.
mod old {
    use std::collections::{BTreeMap, HashMap, VecDeque};

    use seqio_simcore::SimTime;

    use crate::buffer::{Coverage, Lba};
    use crate::stream::PendingRequest;

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
    let (mut matched, mut reused, mut slots_seen) = (0, 0, 0);
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
        } else if op < 12 {
            let (o, n) = pick(&mut rng, &live);
            let current = old.get(o).expect("live").client_next;
            let next =
                if rng.chance(0.5) { current + rng.range(1, 4) * 128 } else { grid_lba(&mut rng) };
            old.advance_client_next(o, next);
            new.advance_client_next(n, next);
        } else if op < 17 {
            // Half the probes land just past a live stream's position.
            let (disk, lba) = if rng.chance(0.5) {
                let s = old.get(pick(&mut rng, &live).0).expect("live");
                (s.disk, s.client_next + rng.below(160))
            } else {
                (rng.below(4) as usize, grid_lba(&mut rng) + rng.below(256))
            };
            let slack = pick(&mut rng, &[0, 64, 128, 1024]);
            let expect = old.match_request(disk, lba, slack).map(|o| to_new[&o]);
            assert_eq!(new.match_request(disk, lba, slack), expect, "match {disk}/{lba}/{slack}");
            matched += usize::from(expect.is_some());
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
    assert!(matched > 5_000 && reused > 10_000, "{matched} matches, {reused} slot reuses");
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
    assert_eq!(new.match_request(0, 1000, 0), Some(later));
    assert_eq!(new.match_request(0, 1100, 128), Some(later));

    let first = old.create(0, 0, 0, SimTime::ZERO);
    let _earlier = old.create(0, 1000, 1000, SimTime::ZERO);
    old.remove(first);
    let later_old = old.create(0, 1000, 1000, SimTime::ZERO);
    assert_eq!(old.match_request(0, 1000, 0), Some(later_old));
}
