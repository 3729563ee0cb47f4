//! The stream table: state for every detected sequential stream.
//!
//! Streams live in a slab. A [`StreamId`] carries the stream's slot, so a
//! lookup is one bounds-checked index, and its creation sequence number,
//! which orders ids and tells a live stream from a stale id whose slot was
//! since reused. Each disk keeps a `Vec` of `(client_next, id)` sorted
//! ascending for prefix matching. A [`Match`] carries its entry's position
//! to [`StreamTable::advance`], so a request that advances a stream past
//! none of its neighbours overwrites its entry in place, with no search.

use std::collections::VecDeque;

use seqio_simcore::SimTime;

use crate::buffer::Lba;

/// Identifier of a detected stream: its creation sequence number and its
/// slab slot. Ids order by sequence number, so the latest-created of two
/// streams compares greater whatever slots they hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct StreamId {
    seq: u64,
    slot: usize,
}

impl StreamId {
    /// The slab slot, which the buffered set also indexes by.
    pub(crate) fn slot(self) -> usize {
        self.slot
    }
}

/// A stream that [`StreamTable::match_request`] found, with the position
/// of its prefix-index entry, which [`StreamTable::advance`] reuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Match {
    /// The matched stream.
    pub id: StreamId,
    at: usize,
}

/// A client request parked on a stream's private queue until its data is
/// staged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingRequest {
    /// Caller-side request identifier.
    pub client: u64,
    /// First block requested.
    pub lba: Lba,
    /// Length in blocks.
    pub blocks: u64,
}

/// State of one detected sequential stream.
#[derive(Debug)]
pub(crate) struct Stream {
    /// Identifier.
    pub id: StreamId,
    /// Destination disk.
    pub disk: usize,
    /// Next block the client is expected to ask for.
    pub client_next: Lba,
    /// Next block the scheduler will read ahead from the disk.
    pub frontier: Lba,
    /// Client requests waiting for data.
    pub pending: VecDeque<PendingRequest>,
    /// `true` while the stream occupies a dispatch-set slot.
    pub dispatched: bool,
    /// `true` while the stream sits in the round-robin admission queue.
    pub waiting: bool,
    /// `true` while a read-ahead disk request is outstanding.
    pub inflight: bool,
    /// Read-ahead requests issued during the current residency.
    pub issued_in_residency: u64,
    /// Last time the stream saw a request or completed a fill.
    pub last_active: SimTime,
}

/// Lookup structure over all live streams.
#[derive(Debug, Default)]
pub(crate) struct StreamTable {
    /// The slab, indexed by [`StreamId::slot`].
    slots: Vec<Option<Stream>>,
    /// Vacant slots, reused last-freed first.
    free: Vec<usize>,
    /// Per disk: `(client_next, id)` sorted ascending, for prefix matching.
    index: Vec<Vec<(Lba, StreamId)>>,
    next_seq: u64,
}

impl StreamTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live streams.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Registers a new stream whose client is expected to continue at
    /// `client_next` and whose read-ahead starts at `frontier`.
    pub fn create(
        &mut self,
        disk: usize,
        client_next: Lba,
        frontier: Lba,
        now: SimTime,
    ) -> StreamId {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        let id = StreamId { seq: self.next_seq, slot };
        self.next_seq += 1;
        self.slots[slot] = Some(Stream {
            id,
            disk,
            client_next,
            frontier,
            pending: VecDeque::new(),
            dispatched: false,
            waiting: false,
            inflight: false,
            issued_in_residency: 0,
            last_active: now,
        });
        if disk >= self.index.len() {
            self.index.resize_with(disk + 1, Vec::new);
        }
        // The new id is the greatest yet, so it sorts after every entry
        // with the same `client_next`.
        let idx = &mut self.index[disk];
        let at = idx.partition_point(|&(lba, _)| lba <= client_next);
        idx.insert(at, (client_next, id));
        id
    }

    /// Borrows a stream; `None` once it was removed, even if its slot has
    /// been reused since.
    pub fn get(&self, id: StreamId) -> Option<&Stream> {
        self.slots.get(id.slot())?.as_ref().filter(|s| s.id == id)
    }

    /// Mutably borrows a stream; `None` once it was removed.
    pub fn get_mut(&mut self, id: StreamId) -> Option<&mut Stream> {
        self.slots.get_mut(id.slot())?.as_mut().filter(|s| s.id == id)
    }

    /// Finds the stream on `disk` whose expected next block is at or up to
    /// `slack` blocks behind `lba` (i.e. `client_next <= lba <=
    /// client_next + slack`). Prefers the closest (largest `client_next`),
    /// then the latest created.
    pub fn match_request(&self, disk: usize, lba: Lba, slack: u64) -> Option<Match> {
        let idx = self.index.get(disk)?;
        let at = idx.partition_point(|&(next, _)| next <= lba).checked_sub(1)?;
        let (next, id) = idx[at];
        (next >= lba.saturating_sub(slack)).then_some(Match { id, at })
    }

    /// Moves a matched stream's expected-next pointer forward to
    /// `new_next`, past the request that matched it, and returns the
    /// stream. Nothing may change the table between the match and this
    /// call.
    ///
    /// # Panics
    ///
    /// Panics if the stream was removed since the match.
    pub fn advance(&mut self, m: Match, new_next: Lba) -> &mut Stream {
        let s = self.slots[m.id.slot]
            .as_mut()
            .filter(|s| s.id == m.id)
            .expect("advance on unknown stream");
        let idx = &mut self.index[s.disk];
        debug_assert_eq!(idx[m.at], (s.client_next, m.id), "stale match");
        debug_assert!(new_next > s.client_next, "a match only moves its stream forward");
        s.client_next = new_next;
        let key = (new_next, m.id);
        // Shift the entries the stream passes down by one and drop it into
        // the gap; with none passed, overwrite its entry in place.
        if idx.get(m.at + 1).is_some_and(|e| *e < key) {
            let to = m.at + 1 + idx[m.at + 2..].partition_point(|e| *e < key);
            idx[m.at..=to].rotate_left(1);
            idx[to] = key;
        } else {
            idx[m.at] = key;
        }
        s
    }

    /// Removes a stream, returning it. Its slot is reused by a later
    /// [`create`](Self::create).
    pub fn remove(&mut self, id: StreamId) -> Option<Stream> {
        let s = self.slots.get_mut(id.slot)?.take_if(|s| s.id == id)?;
        self.free.push(id.slot);
        let idx = &mut self.index[s.disk];
        let at = idx.binary_search(&(s.client_next, id)).expect("index out of sync");
        idx.remove(at);
        Some(s)
    }

    /// Ids of streams idle since before `cutoff` with nothing pending or in
    /// flight — garbage-collection candidates.
    pub fn idle_streams(&self, cutoff: SimTime) -> Vec<StreamId> {
        self.slots
            .iter()
            .flatten()
            .filter(|s| {
                s.last_active < cutoff && s.pending.is_empty() && !s.inflight && !s.dispatched
            })
            .map(|s| s.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    /// The id of the stream a request at `lba` on disk 0 matches.
    fn matched(tb: &StreamTable, lba: Lba, slack: u64) -> Option<StreamId> {
        tb.match_request(0, lba, slack).map(|m| m.id)
    }

    /// Matches a request at `lba` on disk 0 and advances its stream to
    /// `new_next`, as the server does.
    fn advance(tb: &mut StreamTable, lba: Lba, new_next: Lba) -> StreamId {
        let m = tb.match_request(0, lba, 0).expect("a stream waits at lba");
        tb.advance(m, new_next).id
    }

    #[test]
    fn create_and_match_exact() {
        let mut tb = StreamTable::new();
        let id = tb.create(0, 1000, 1000, t(0));
        assert_eq!(matched(&tb, 1000, 128), Some(id));
        assert_eq!(matched(&tb, 999, 128), None, "behind expected");
        assert_eq!(tb.match_request(1, 1000, 128), None, "wrong disk");
    }

    #[test]
    fn match_allows_slack() {
        let mut tb = StreamTable::new();
        let id = tb.create(0, 1000, 1000, t(0));
        assert_eq!(matched(&tb, 1100, 128), Some(id));
        assert_eq!(matched(&tb, 1129, 128), None, "past slack");
    }

    #[test]
    fn closest_stream_wins() {
        let mut tb = StreamTable::new();
        let _far = tb.create(0, 900, 900, t(0));
        let near = tb.create(0, 1000, 1000, t(0));
        assert_eq!(matched(&tb, 1000, 200), Some(near));
    }

    #[test]
    fn advance_reindexes() {
        let mut tb = StreamTable::new();
        let id = tb.create(0, 1000, 1000, t(0));
        assert_eq!(advance(&mut tb, 1000, 1128), id);
        assert_eq!(matched(&tb, 1000, 0), None);
        assert_eq!(matched(&tb, 1128, 0), Some(id));
        assert_eq!(tb.get(id).unwrap().client_next, 1128);
    }

    #[test]
    fn remove_clears_index() {
        let mut tb = StreamTable::new();
        let id = tb.create(0, 1000, 1000, t(0));
        assert!(tb.remove(id).is_some());
        assert!(tb.remove(id).is_none());
        assert_eq!(matched(&tb, 1000, 0), None);
        assert_eq!(tb.len(), 0);
    }

    #[test]
    fn idle_detection_excludes_busy_streams() {
        let mut tb = StreamTable::new();
        let idle = tb.create(0, 0, 0, t(0));
        let busy = tb.create(0, 5000, 5000, t(0));
        tb.get_mut(busy).unwrap().inflight = true;
        let recent = tb.create(0, 9000, 9000, t(100));
        let ids = tb.idle_streams(t(50));
        assert!(ids.contains(&idle));
        assert!(!ids.contains(&busy), "inflight streams are not idle");
        assert!(!ids.contains(&recent), "recently active streams are not idle");
    }

    #[test]
    fn two_streams_same_position_coexist() {
        let mut tb = StreamTable::new();
        let a = tb.create(0, 1000, 1000, t(0));
        let b = tb.create(0, 1000, 1000, t(0));
        // Both live; match returns one of them deterministically (the larger id).
        let m = matched(&tb, 1000, 0).unwrap();
        assert!(m == a || m == b);
        assert_eq!(tb.len(), 2);
        tb.remove(m);
        assert!(matched(&tb, 1000, 0).is_some(), "the other remains indexed");
    }

    #[test]
    fn stale_id_resolves_to_none_after_slot_reuse() {
        let mut tb = StreamTable::new();
        let old = tb.create(0, 1000, 1000, t(0));
        tb.remove(old);
        let new = tb.create(0, 1000, 1000, t(0));
        assert_eq!(new.slot(), old.slot(), "the freed slot is reused");
        assert!(tb.get(old).is_none());
        assert!(tb.get_mut(old).is_none());
        assert!(tb.remove(old).is_none());
        assert_eq!(tb.get(new).unwrap().id, new);
    }

    #[test]
    fn advance_past_neighbours_keeps_the_index_sorted() {
        let mut tb = StreamTable::new();
        let ids: Vec<_> = (0..4).map(|i| tb.create(0, i * 100, i * 100, t(0))).collect();
        // Past two neighbours, then past the last entry, then past none.
        assert_eq!(advance(&mut tb, 0, 250), ids[0]);
        assert_eq!(advance(&mut tb, 100, 400), ids[1]);
        assert_eq!(advance(&mut tb, 200, 220), ids[2]);
        assert!(tb.index[0].windows(2).all(|w| w[0] < w[1]), "{:?}", tb.index[0]);
        assert_eq!(matched(&tb, 260, 20), Some(ids[0]));
        assert_eq!(matched(&tb, 410, 20), Some(ids[1]));
        assert_eq!(matched(&tb, 230, 20), Some(ids[2]));
        assert_eq!(matched(&tb, 300, 0), Some(ids[3]));
    }
}
