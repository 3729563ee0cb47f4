//! The admission queues: streams waiting for a dispatch-set slot.
//!
//! Each disk keeps a FIFO of `(push sequence number, stream)`, and the
//! front entries of the non-empty FIFOs are kept sorted by sequence
//! number. A pick walks those heads in order and takes the first one on a
//! disk below its dispatch quota. It passes over at most one entry per
//! full disk, instead of every waiting stream whose disk is full.
//!
//! The order is that of one queue holding every disk's entries in push
//! order. Entries are pushed only at the back, and an entry leaves only
//! where a pick chose it or found it stale. So the first eligible entry of
//! that one queue is the eligible head with the smallest sequence number.

use std::collections::VecDeque;

use crate::stream::{StreamId, StreamTable};

/// A picked entry, the front of its disk's FIFO, for
/// [`AdmissionQueues::remove`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pick {
    /// The stream to admit.
    pub id: StreamId,
    disk: usize,
}

/// Waiting streams, one FIFO per disk.
#[derive(Debug)]
pub(crate) struct AdmissionQueues {
    /// Per disk: `(push sequence number, stream)` in push order.
    disks: Vec<VecDeque<(u64, StreamId)>>,
    /// `(sequence number, disk)` of each non-empty FIFO's front entry,
    /// ascending.
    heads: Vec<(u64, usize)>,
    next_seq: u64,
}

impl AdmissionQueues {
    /// Empty queues for `disks` disks.
    pub fn new(disks: usize) -> Self {
        AdmissionQueues { disks: vec![VecDeque::new(); disks], heads: Vec::new(), next_seq: 0 }
    }

    /// `true` when no entry is queued, stale or not. With only stale
    /// entries queued a pick finds nothing, so callers may skip it.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Queues `id` behind every entry pushed before it.
    pub fn push(&mut self, disk: usize, id: StreamId) {
        let q = &mut self.disks[disk];
        q.push_back((self.next_seq, id));
        if q.len() == 1 {
            // The newest entry sorts after every head.
            self.heads.push((self.next_seq, disk));
        }
        self.next_seq += 1;
    }

    /// Picks the next stream to admit, round robin: the earliest pushed
    /// waiting stream whose disk is `open` (below quota). Drops the stale
    /// entries it meets: streams removed since their push, or no longer
    /// waiting. The pick stays queued, at the front of its disk's FIFO,
    /// until [`remove`](Self::remove)d.
    pub fn pick(&mut self, streams: &StreamTable, open: impl Fn(usize) -> bool) -> Option<Pick> {
        let mut i = 0;
        while let Some(&(seq, disk)) = self.heads.get(i) {
            if !open(disk) {
                i += 1;
                continue;
            }
            let (_, id) = self.disks[disk][0];
            if streams.get(id).is_some_and(|s| s.waiting) {
                return Some(Pick { id, disk });
            }
            // The disk's next entry, if any, sorts after position i.
            self.disks[disk].pop_front();
            self.refile(disk, seq);
        }
        None
    }

    /// Removes a picked entry. Nothing may be pushed or picked between the
    /// pick and this call.
    pub fn remove(&mut self, pick: Pick) {
        let (seq, id) = self.disks[pick.disk].pop_front().expect("picked entry is queued");
        debug_assert_eq!(id, pick.id, "stale pick");
        self.refile(pick.disk, seq);
    }

    /// Re-sorts `disk` among the heads after its front entry, which had
    /// sequence number `old`, left its FIFO.
    fn refile(&mut self, disk: usize, old: u64) {
        let at = self.heads.binary_search(&(old, disk)).expect("a queued disk has a head");
        self.heads.remove(at);
        if let Some(&(seq, _)) = self.disks[disk].front() {
            let to = self.heads.partition_point(|&head| head < (seq, disk));
            self.heads.insert(to, (seq, disk));
        }
    }
}
