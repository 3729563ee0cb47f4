//! Completely Fair Queueing (the 2.6.11-era variant).
//!
//! One queue per process, served round-robin with a per-turn request
//! quantum. This CFQ generation has no idling (that arrived with the later
//! time-sliced rewrite). Under the node's page-cache read-ahead a file has
//! at most one fetch in flight, so each process queue holds at most one
//! request and the round robin serves requests in arrival order: in
//! Figure 2 this model reads exactly as noop (DESIGN.md §5b).

use std::collections::{HashMap, VecDeque};

use seqio_simcore::SimTime;

use crate::scheduler::{BlockRequest, IoScheduler, SchedDecision};

/// Round-robin fair queueing scheduler.
#[derive(Debug)]
pub struct Cfq {
    queues: HashMap<usize, VecDeque<BlockRequest>>,
    /// Round-robin order of processes with queued requests.
    rr: VecDeque<usize>,
    /// Requests the active process may still dispatch this turn.
    quantum: u32,
    remaining: u32,
    active: Option<usize>,
    queued: usize,
}

impl Cfq {
    /// Creates a CFQ scheduler dispatching up to `quantum` requests per
    /// process turn.
    ///
    /// # Panics
    ///
    /// Panics if `quantum == 0`.
    pub fn new(quantum: u32) -> Self {
        assert!(quantum > 0, "quantum must be positive");
        Cfq {
            queues: HashMap::new(),
            rr: VecDeque::new(),
            quantum,
            remaining: 0,
            active: None,
            queued: 0,
        }
    }

    fn rotate(&mut self) -> Option<usize> {
        while let Some(p) = self.rr.pop_front() {
            if self.queues.get(&p).map(|q| !q.is_empty()).unwrap_or(false) {
                self.active = Some(p);
                self.remaining = self.quantum;
                return Some(p);
            }
        }
        self.active = None;
        None
    }
}

impl IoScheduler for Cfq {
    fn add(&mut self, req: BlockRequest, _now: SimTime) {
        let p = req.process;
        let q = self.queues.entry(p).or_default();
        let was_empty = q.is_empty();
        q.push_back(req);
        self.queued += 1;
        if was_empty && self.active != Some(p) && !self.rr.contains(&p) {
            self.rr.push_back(p);
        }
    }

    fn next(&mut self, _now: SimTime) -> SchedDecision {
        // Stay with the active process while it has quantum and requests.
        let p = match self.active {
            Some(p)
                if self.remaining > 0
                    && self.queues.get(&p).map(|q| !q.is_empty()).unwrap_or(false) =>
            {
                p
            }
            _ => {
                // Requeue the outgoing process if it still has work.
                if let Some(p) = self.active {
                    if self.queues.get(&p).map(|q| !q.is_empty()).unwrap_or(false)
                        && !self.rr.contains(&p)
                    {
                        self.rr.push_back(p);
                    }
                }
                match self.rotate() {
                    Some(p) => p,
                    None => return SchedDecision::Idle,
                }
            }
        };
        let q = self.queues.get_mut(&p).expect("active queue exists");
        let r = q.pop_front().expect("non-empty by selection");
        self.queued -= 1;
        self.remaining -= 1;
        SchedDecision::Dispatch(r)
    }

    fn on_complete(&mut self, _process: usize, _now: SimTime) {}

    fn queued(&self) -> usize {
        self.queued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, process: usize, lba: u64) -> BlockRequest {
        BlockRequest { id, process, lba, blocks: 8 }
    }

    fn t() -> SimTime {
        SimTime::ZERO
    }

    fn drain(s: &mut Cfq, n: usize) -> Vec<(usize, u64)> {
        (0..n)
            .map(|_| match s.next(t()) {
                SchedDecision::Dispatch(r) => (r.process, r.id),
                other => panic!("{other:?}"),
            })
            .collect()
    }

    #[test]
    fn round_robin_across_processes() {
        let mut s = Cfq::new(1);
        for p in 0..3usize {
            for i in 0..2u64 {
                s.add(req(p as u64 * 10 + i, p, i * 8), t());
            }
        }
        let order = drain(&mut s, 6);
        let procs: Vec<usize> = order.iter().map(|&(p, _)| p).collect();
        assert_eq!(procs, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(s.next(t()), SchedDecision::Idle);
    }

    #[test]
    fn quantum_gives_consecutive_turns() {
        let mut s = Cfq::new(3);
        for p in 0..2usize {
            for i in 0..3u64 {
                s.add(req(p as u64 * 10 + i, p, i * 8), t());
            }
        }
        let order = drain(&mut s, 6);
        let procs: Vec<usize> = order.iter().map(|&(p, _)| p).collect();
        assert_eq!(procs, vec![0, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn within_process_order_is_fifo() {
        let mut s = Cfq::new(8);
        s.add(req(1, 0, 800), t());
        s.add(req(2, 0, 0), t());
        let order = drain(&mut s, 2);
        assert_eq!(order, vec![(0, 1), (0, 2)]);
    }

    #[test]
    fn late_arrivals_join_fairly() {
        let mut s = Cfq::new(1);
        s.add(req(1, 0, 0), t());
        assert!(matches!(s.next(t()), SchedDecision::Dispatch(r) if r.id == 1));
        // Process 1 arrives while 0's queue is empty.
        s.add(req(2, 1, 100), t());
        s.add(req(3, 0, 8), t());
        let order = drain(&mut s, 2);
        let procs: Vec<usize> = order.iter().map(|&(p, _)| p).collect();
        assert_eq!(procs, vec![1, 0]);
    }

    #[test]
    fn queued_counts() {
        let mut s = Cfq::new(2);
        assert_eq!(s.queued(), 0);
        s.add(req(1, 0, 0), t());
        s.add(req(2, 1, 0), t());
        assert_eq!(s.queued(), 2);
        let _ = s.next(t());
        assert_eq!(s.queued(), 1);
    }
}
