//! Disk command queue.
//!
//! Holds requests waiting for the mechanism. Two policies are provided:
//! plain FIFO (how a commodity disk treats a shallow queue) and greedy
//! shortest-seek first (an NCQ-style what-if). There is no elevator:
//! uniformly placed streams already queue in address order, so a C-LOOK
//! sweep picks what FIFO picks.

use std::collections::VecDeque;

use crate::request::{DiskRequest, Lba};

/// Ordering policy for queued commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueuePolicy {
    /// First-come first-served.
    #[default]
    Fifo,
    /// Shortest seek first: always the request nearest the head, in either
    /// direction (NCQ-style greedy; can starve distant requests).
    Sstf,
}

/// A command queue with a selectable ordering policy.
#[derive(Debug, Clone)]
pub struct CommandQueue {
    policy: QueuePolicy,
    entries: VecDeque<DiskRequest>,
    peak: usize,
}

impl CommandQueue {
    /// Creates an empty queue.
    pub fn new(policy: QueuePolicy) -> Self {
        CommandQueue { policy, entries: VecDeque::new(), peak: 0 }
    }

    /// The ordering policy in effect.
    pub fn policy(&self) -> QueuePolicy {
        self.policy
    }

    /// Number of queued commands.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Highest occupancy ever observed (for reporting).
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Appends a command.
    pub fn push(&mut self, req: DiskRequest) {
        self.entries.push_back(req);
        self.peak = self.peak.max(self.entries.len());
    }

    /// Removes and returns the next command to service, given the current
    /// head block position.
    pub fn pop_next(&mut self, head: Lba) -> Option<DiskRequest> {
        if self.entries.is_empty() {
            return None;
        }
        match self.policy {
            QueuePolicy::Fifo => self.entries.pop_front(),
            QueuePolicy::Sstf => {
                let idx = self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, r)| r.lba.abs_diff(head))
                    .map(|(i, _)| i)
                    .expect("queue not empty");
                self.entries.remove(idx)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestId;

    fn req(id: u64, lba: Lba) -> DiskRequest {
        DiskRequest::read(RequestId(id), lba, 8)
    }

    #[test]
    fn fifo_preserves_arrival_order() {
        let mut q = CommandQueue::new(QueuePolicy::Fifo);
        q.push(req(1, 500));
        q.push(req(2, 100));
        q.push(req(3, 900));
        assert_eq!(q.pop_next(0).unwrap().id, RequestId(1));
        assert_eq!(q.pop_next(0).unwrap().id, RequestId(2));
        assert_eq!(q.pop_next(0).unwrap().id, RequestId(3));
        assert!(q.pop_next(0).is_none());
    }

    #[test]
    fn sstf_picks_nearest_in_either_direction() {
        let mut q = CommandQueue::new(QueuePolicy::Sstf);
        q.push(req(1, 100));
        q.push(req(2, 480));
        q.push(req(3, 900));
        // Head at 500: nearest is 480 (behind), then 100 vs 900 from 480.
        assert_eq!(q.pop_next(500).unwrap().lba, 480);
        assert_eq!(q.pop_next(480).unwrap().lba, 100);
        assert_eq!(q.pop_next(100).unwrap().lba, 900);
    }

    #[test]
    fn sstf_total_head_travel_not_worse_than_fifo() {
        let lbas = [900u64, 50, 875, 60, 850, 70, 825];
        let travel = |policy: QueuePolicy| {
            let mut q = CommandQueue::new(policy);
            for (i, &l) in lbas.iter().enumerate() {
                q.push(req(i as u64, l));
            }
            let mut head = 0u64;
            let mut total = 0u64;
            while let Some(r) = q.pop_next(head) {
                total += r.lba.abs_diff(head);
                head = r.lba;
            }
            total
        };
        assert!(travel(QueuePolicy::Sstf) <= travel(QueuePolicy::Fifo));
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut q = CommandQueue::new(QueuePolicy::Fifo);
        assert!(q.is_empty());
        for i in 0..5 {
            q.push(req(i, i * 100));
        }
        q.pop_next(0);
        q.push(req(9, 0));
        assert_eq!(q.peak(), 5);
        assert_eq!(q.len(), 5);
    }
}
