//! Shared-bandwidth network link under processor sharing.
//!
//! The paper's testbed serves every client over one 1 GbE link; the
//! aggregate disk throughput a client *observes* is therefore capped by
//! how the link divides its capacity among concurrent responses. A
//! [`FairShareLink`] models that division as processor sharing: a link
//! serves one demand (the most one receiver can absorb), and each of the
//! `n` active transfers moves at `min(demand, capacity / n)`, which is the
//! max-min fair share when every transfer demands the same. The shares
//! change every time a transfer starts or finishes.
//!
//! The link keeps the virtual clock of fair queueing (Demers, Keshav and
//! Shenker, SIGCOMM 1989). One service clock counts the bytes each active
//! transfer has received since the link last went idle. A transfer of `b`
//! bytes started at clock reading `v` finishes when the clock reaches its
//! finish tag `v + b`, and the tags wait in a min-heap, so a start or a
//! completion costs O(log n).
//!
//! The link is a [`SimComponent`](crate::SimComponent) on the shared
//! simulation clock, so a co-simulation driver can advance it in lockstep
//! with storage nodes. Determinism: a transfer's delivery depends only on
//! its finish tag and the clock, never on the order transfers were
//! inserted in; completions at equal instants are delivered sorted by
//! caller tag, and every instant is a whole nanosecond. Permuting the
//! insertion order of simultaneous transfers therefore cannot change any
//! delivery, and equal transfers started together finish together.
//!
//! # Examples
//!
//! ```
//! use seqio_simcore::{FairShareLink, SimComponent, SimTime};
//!
//! // A 100 B/s link carrying two unbounded transfers of 100 B each:
//! // both run at 50 B/s and finish together at t = 2 s.
//! let mut link = FairShareLink::new(100.0).unwrap();
//! link.init();
//! link.start_transfer(SimTime::ZERO, 100, f64::INFINITY, 7);
//! link.start_transfer(SimTime::ZERO, 100, f64::INFINITY, 3);
//! link.advance_to(SimTime::MAX);
//! let done = link.take_deliveries();
//! assert_eq!(done.len(), 2);
//! assert_eq!(done[0].tag, 3); // equal instants delivered in tag order
//! assert_eq!(done[0].at, SimTime::from_nanos(2_000_000_000));
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::component::SimComponent;
use crate::error::SeqioError;
use crate::time::SimTime;

/// One transfer that finished crossing the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkDelivery {
    /// The caller-supplied transfer tag (e.g. a session id).
    pub tag: u64,
    /// When the last byte left the link.
    pub at: SimTime,
}

/// A shared-bandwidth link dividing its capacity equally among concurrent
/// transfers of one demand (see the module-level docs above).
#[derive(Debug, Clone)]
pub struct FairShareLink {
    capacity_bps: f64,
    /// The demand every transfer makes, bytes/s, fixed by the first start.
    demand_bps: Option<f64>,
    /// Deliveries are settled to here; starts must not precede it.
    now: SimTime,
    /// The last plan point: the service clock read `planned_served` bytes
    /// at `planned_at`, and has run at `rate_bps` since. The clock is
    /// always derived from this point, never accumulated, so advancing in
    /// chunks cannot change a delivery.
    planned_at: SimTime,
    planned_served: f64,
    rate_bps: f64,
    /// Active transfers as `(finish tag bits, caller tag)`, least first.
    /// Finish tags are never negative, so their bits order as they do.
    active: BinaryHeap<Reverse<(u64, u64)>>,
    /// The rounded-up least time-to-finish, in ns from `planned_at`: the
    /// next completion batch is every transfer planned to finish within it.
    batch_ns: f64,
    /// `planned_at + batch_ns`, saturated; `None` when idle.
    next: Option<SimTime>,
    deliveries: Vec<LinkDelivery>,
}

impl FairShareLink {
    /// Creates a link with the given capacity in bytes per second.
    /// `f64::INFINITY` models an uncontended network: with an infinite
    /// demand, every transfer completes the instant it starts.
    ///
    /// # Errors
    ///
    /// Rejects NaN, zero or negative capacities.
    pub fn new(capacity_bps: f64) -> Result<Self, SeqioError> {
        if capacity_bps.is_nan() || capacity_bps <= 0.0 {
            return Err(SeqioError::Experiment(format!(
                "link capacity must be positive, got {capacity_bps}"
            )));
        }
        Ok(FairShareLink {
            capacity_bps,
            demand_bps: None,
            now: SimTime::ZERO,
            planned_at: SimTime::ZERO,
            planned_served: 0.0,
            rate_bps: 0.0,
            active: BinaryHeap::new(),
            batch_ns: 0.0,
            next: None,
            deliveries: Vec::new(),
        })
    }

    /// Number of transfers currently in flight.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Begins moving `bytes` for `tag` at instant `at`, demanding at most
    /// `demand_bps` (the receiver's own bottleneck; `f64::INFINITY` for
    /// "as fast as the link allows"). The shares of every active transfer
    /// change immediately. A zero-byte transfer completes at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the link's settled clock (starts must be
    /// fed in non-decreasing time order), if `demand_bps` is not positive,
    /// or if it differs from the demand of the link's first transfer (a
    /// link serves one demand).
    pub fn start_transfer(&mut self, at: SimTime, bytes: u64, demand_bps: f64, tag: u64) {
        assert!(at >= self.now, "transfer starts must not precede the link clock");
        assert!(!demand_bps.is_nan() && demand_bps > 0.0, "transfer demand must be positive");
        let demand = *self.demand_bps.get_or_insert(demand_bps);
        assert!(
            demand.to_bits() == demand_bps.to_bits(),
            "a link serves one demand: {demand_bps} B/s differs from its first transfer's {demand} B/s"
        );
        // Deliver anything that finishes no later than the new arrival.
        self.run_completions(at);
        self.now = at;
        let finish = self.served_at(at) + bytes as f64;
        self.active.push(Reverse((finish.to_bits(), tag)));
        self.replan(at);
    }

    /// Drains the accumulated [`LinkDelivery`] records, in delivery order
    /// (ties broken by ascending tag).
    pub fn take_deliveries(&mut self) -> Vec<LinkDelivery> {
        std::mem::take(&mut self.deliveries)
    }

    /// The service clock at `t`, in bytes: what each active transfer has
    /// received since the link last went idle.
    fn served_at(&self, t: SimTime) -> f64 {
        self.planned_served + self.rate_bps * t.duration_since(self.planned_at).as_secs_f64()
    }

    /// Unrounded nanoseconds from `planned_at` until the service clock
    /// reaches `finish`.
    fn to_finish_ns(&self, finish: f64) -> f64 {
        (finish - self.planned_served) / self.rate_bps * 1e9
    }

    /// Makes `at` the plan point: reads the service clock there at the old
    /// rate, then sets the equal share of the transfers now active and
    /// plans the next completion batch. An idle link restarts its clock at
    /// zero, so the clock keeps its precision over a long run.
    fn replan(&mut self, at: SimTime) {
        let Some(&Reverse((least, _))) = self.active.peek() else {
            (self.planned_at, self.planned_served, self.rate_bps) = (at, 0.0, 0.0);
            self.next = None;
            return;
        };
        self.planned_served = self.served_at(at);
        self.planned_at = at;
        let demand = self.demand_bps.expect("an active link has a demand");
        self.rate_bps = demand.min(self.capacity_bps / self.active.len() as f64);
        let least = self.to_finish_ns(f64::from_bits(least));
        // Whole nanoseconds, rounded up so the plan never undershoots.
        self.batch_ns = least.ceil();
        self.next = Some(finish_instant(at, least));
    }

    /// Delivers every planned completion at instants `<= limit`, in time
    /// order, replanning after each completion batch.
    fn run_completions(&mut self, limit: SimTime) {
        while let Some(next) = self.next.filter(|&next| next <= limit) {
            // Below the saturated instant, a transfer finishes at `next`
            // exactly when its time-to-finish rounds up to `batch_ns`; at
            // it, every transfer whose own instant saturates does. Both
            // tests are monotone in the finish tag, so the batch is a
            // prefix of the heap.
            let first = self.deliveries.len();
            while let Some(&Reverse((finish, tag))) = self.active.peek() {
                let ns = self.to_finish_ns(f64::from_bits(finish));
                let done = if next == SimTime::MAX {
                    finish_instant(self.planned_at, ns) == next
                } else {
                    ns <= self.batch_ns
                };
                if !done {
                    break;
                }
                self.active.pop();
                self.deliveries.push(LinkDelivery { tag, at: next });
            }
            self.deliveries[first..].sort_unstable_by_key(|d| d.tag);
            self.replan(next);
        }
    }
}

/// The whole-nanosecond instant `to_finish_ns` after `planned_at`,
/// rounded up and saturated at [`SimTime::MAX`].
fn finish_instant(planned_at: SimTime, to_finish_ns: f64) -> SimTime {
    SimTime::from_nanos(planned_at.as_nanos().saturating_add(to_finish_ns.ceil() as u64))
}

impl SimComponent for FairShareLink {
    fn init(&mut self) {}

    fn peek_next_time(&self) -> Option<SimTime> {
        self.next
    }

    fn advance_to(&mut self, limit: SimTime) {
        self.run_completions(limit);
        self.now = self.now.max(limit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use crate::units::MIB;

    fn drained(link: &mut FairShareLink) -> Vec<LinkDelivery> {
        link.advance_to(SimTime::MAX);
        link.take_deliveries()
    }

    #[test]
    fn single_transfer_runs_at_link_speed() {
        let mut l = FairShareLink::new(1000.0).unwrap();
        l.init();
        l.start_transfer(SimTime::ZERO, 500, f64::INFINITY, 1);
        let d = drained(&mut l);
        assert_eq!(d, vec![LinkDelivery { tag: 1, at: SimTime::from_nanos(500_000_000) }]);
        assert_eq!(l.active_count(), 0);
    }

    #[test]
    fn demand_cap_limits_a_transfer() {
        // 1000 B/s link, client can only take 100 B/s: 500 B takes 5 s.
        let mut l = FairShareLink::new(1000.0).unwrap();
        l.start_transfer(SimTime::ZERO, 500, 100.0, 9);
        let d = drained(&mut l);
        assert_eq!(d[0].at, SimTime::ZERO + SimDuration::from_secs(5));
    }

    #[test]
    fn rates_rise_progressively_as_transfers_finish() {
        // A=150 B and B=50 B from t=0 share 100 B/s at 50 B/s each; B
        // finishes at 1 s; A then gets the full 100 B/s for its remaining
        // 100 B, finishing at 2 s (not 3 s).
        let mut l = FairShareLink::new(100.0).unwrap();
        l.start_transfer(SimTime::ZERO, 150, f64::INFINITY, 0);
        l.start_transfer(SimTime::ZERO, 50, f64::INFINITY, 1);
        let d = drained(&mut l);
        assert_eq!(d[0], LinkDelivery { tag: 1, at: SimTime::ZERO + SimDuration::from_secs(1) });
        assert_eq!(d[1], LinkDelivery { tag: 0, at: SimTime::ZERO + SimDuration::from_secs(2) });
    }

    #[test]
    fn late_arrival_slows_an_active_transfer() {
        // A: 200 B from t=0 alone at 100 B/s. B: 100 B arrives at t=1
        // when A has 100 B left; both then run at 50 B/s, finishing at 3 s.
        let mut l = FairShareLink::new(100.0).unwrap();
        l.start_transfer(SimTime::ZERO, 200, f64::INFINITY, 0);
        l.start_transfer(SimTime::ZERO + SimDuration::from_secs(1), 100, f64::INFINITY, 1);
        let d = drained(&mut l);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].at, SimTime::ZERO + SimDuration::from_secs(3));
        assert_eq!(d[1].at, SimTime::ZERO + SimDuration::from_secs(3));
        assert_eq!((d[0].tag, d[1].tag), (0, 1), "equal instants deliver in tag order");
    }

    #[test]
    fn infinite_capacity_adds_zero_delay() {
        let mut l = FairShareLink::new(f64::INFINITY).unwrap();
        let t = SimTime::from_nanos(123_456);
        l.start_transfer(t, u64::MAX / 2, f64::INFINITY, 4);
        l.advance_to(t);
        assert_eq!(l.take_deliveries(), vec![LinkDelivery { tag: 4, at: t }]);
    }

    #[test]
    fn zero_byte_transfer_completes_at_start() {
        let mut l = FairShareLink::new(10.0).unwrap();
        let t = SimTime::from_nanos(5);
        l.start_transfer(t, 0, 1.0, 2);
        l.advance_to(t);
        assert_eq!(l.take_deliveries(), vec![LinkDelivery { tag: 2, at: t }]);
    }

    #[test]
    fn chunked_advance_is_bit_identical_to_one_shot() {
        for demand in [250.0, f64::INFINITY] {
            let runs: Vec<Vec<LinkDelivery>> = [1u64, 7, 1000]
                .iter()
                .map(|&step_ms| {
                    let mut l = FairShareLink::new(777.0).unwrap();
                    l.init();
                    for i in 0..20u64 {
                        l.advance_to(SimTime::from_nanos(i * 50_000_000));
                        l.start_transfer(
                            SimTime::from_nanos(i * 50_000_000),
                            100 + i * 37,
                            demand,
                            i,
                        );
                    }
                    let mut t = SimTime::from_nanos(20 * 50_000_000);
                    while l.peek_next_time().is_some() {
                        t += SimDuration::from_millis(step_ms);
                        l.advance_to(t);
                    }
                    l.take_deliveries()
                })
                .collect();
            assert_eq!(runs[0], runs[1]);
            assert_eq!(runs[0], runs[2]);
            assert_eq!(runs[0].len(), 20);
        }
    }

    #[test]
    fn simultaneous_equal_starts_ignore_insertion_order() {
        // Seven equal transfers split 250 MiB/s equally, so all seven
        // finish together at 1000 ns + 7 * 131,072 B / 250 MiB/s, whatever
        // order they were inserted in.
        let run = |tags: &mut dyn Iterator<Item = u64>| {
            let mut l = FairShareLink::new(250.0 * MIB as f64).unwrap();
            for tag in tags {
                l.start_transfer(SimTime::from_nanos(1000), 131_072, f64::INFINITY, tag);
            }
            drained(&mut l)
        };
        let forward = run(&mut (0..7));
        assert_eq!(forward, run(&mut (0..7).rev()));
        let at = SimTime::from_nanos(3_501_000);
        assert_eq!(forward, (0..7).map(|tag| LinkDelivery { tag, at }).collect::<Vec<_>>());
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(FairShareLink::new(0.0).is_err());
        assert!(FairShareLink::new(-5.0).is_err());
        assert!(FairShareLink::new(f64::NAN).is_err());
    }

    #[test]
    #[should_panic(expected = "must not precede")]
    fn starts_must_be_time_ordered() {
        let mut l = FairShareLink::new(10.0).unwrap();
        l.start_transfer(SimTime::from_nanos(100), 10, 1.0, 0);
        l.advance_to(SimTime::from_nanos(50_000_000_000));
        l.start_transfer(SimTime::from_nanos(10), 10, 1.0, 1);
    }
}
