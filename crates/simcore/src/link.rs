//! Shared-bandwidth network link with progressive max-min fair sharing.
//!
//! The paper's testbed serves every client over one 1 GbE link; the
//! aggregate disk throughput a client *observes* is therefore capped by
//! how the link divides its capacity among concurrent responses. A
//! [`FairShareLink`] models that division: every active transfer gets a
//! max-min fair share of the capacity (the water-filling of
//! [`max_min_rates`]), and rates are recomputed every time a transfer
//! starts or finishes — the *progressive filling* interpretation of
//! fairness.
//!
//! The link is a [`SimComponent`](crate::SimComponent) on the shared
//! simulation clock, so a co-simulation driver can advance it in lockstep
//! with storage nodes. Determinism: active transfers are water-filled in
//! (demand, start instant, tag) order, so a transfer's rate depends on the
//! set of active transfers and never on the order they were inserted in;
//! completions at equal instants are delivered sorted by caller tag, and
//! all bookkeeping is settled at integer-nanosecond boundaries. Permuting
//! the insertion order of simultaneous transfers therefore cannot change
//! any delivery, as long as no two of them share demand, start instant and
//! tag (such exact twins keep their insertion order).
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

use std::cmp::Ordering;

use crate::component::SimComponent;
use crate::error::SeqioError;
use crate::time::SimTime;

/// One water-filling step: grants `demand` at most an equal share of the
/// `capacity` still unallocated among the `left` transfers not yet
/// served, and takes the grant out of `capacity`. [`max_min_rates`] and
/// [`FairShareLink`] both allocate through this one definition, so their
/// rates agree to the bit.
#[inline(always)]
fn fill_step(capacity: &mut f64, left: usize, demand: f64) -> f64 {
    let granted = demand.min(*capacity / left as f64);
    *capacity = (*capacity - granted).max(0.0);
    granted
}

/// Max-min fair allocation of `capacity_bps` among `demands` (bytes/s).
///
/// Water-filling: demands are served in ascending order, each transfer
/// receiving `min(demand, remaining_capacity / transfers_left)`; equal
/// demands are served in input order. The result is returned in input
/// order. Because the shares are computed by successive division, equal
/// demands can differ in the last bits depending on their position:
/// `max_min_rates(10.0, &[1e9; 3])` is `[3.3333333333333335,
/// 3.333333333333333, 3.333333333333333]`. Properties (verified by
/// `tests/link_properties.rs`):
///
/// * conservation — granted rates sum to `min(capacity, sum of demands)`;
/// * fairness — nobody is below `min(demand, capacity / n)`;
/// * monotonicity — adding a demand never raises anyone else's rate.
///
/// An infinite capacity grants every demand in full; infinite demands are
/// allowed and mean "take whatever the link offers".
///
/// # Panics
///
/// Panics if `capacity_bps` is NaN, zero or negative, or any demand is
/// NaN, zero or negative.
pub fn max_min_rates(capacity_bps: f64, demands: &[f64]) -> Vec<f64> {
    assert!(!capacity_bps.is_nan() && capacity_bps > 0.0, "link capacity must be positive");
    assert!(demands.iter().all(|d| !d.is_nan() && *d > 0.0), "transfer demands must be positive");
    if capacity_bps.is_infinite() {
        return demands.to_vec();
    }
    let mut order: Vec<usize> = (0..demands.len()).collect();
    order.sort_by(|&a, &b| demands[a].total_cmp(&demands[b]).then(a.cmp(&b)));
    let mut rates = vec![0.0; demands.len()];
    let mut capacity = capacity_bps;
    for (k, &i) in order.iter().enumerate() {
        rates[i] = fill_step(&mut capacity, demands.len() - k, demands[i]);
    }
    rates
}

/// One transfer that finished crossing the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkDelivery {
    /// The caller-supplied transfer tag (e.g. a session id).
    pub tag: u64,
    /// When the last byte left the link.
    pub at: SimTime,
}

/// What orders an active transfer in the water-fill.
#[derive(Debug, Clone, Copy)]
struct Key {
    /// The most the receiver can absorb, bytes/s.
    demand_bps: f64,
    start: SimTime,
    tag: u64,
}

impl Key {
    fn order(&self, other: &Key) -> Ordering {
        self.demand_bps
            .total_cmp(&other.demand_bps)
            .then(self.start.cmp(&other.start))
            .then(self.tag.cmp(&other.tag))
    }
}

/// Counts whose water-fill tables [`RateCache`] computes together.
const FILL_BLOCK: usize = 8;

/// Blocks [`RateCache`] keeps: 24 tables, about 0.4 MiB at 2,000 active
/// transfers. The active count drifts by one per event, so it rarely
/// leaves the two neighbouring blocks; a third absorbs the turns.
const CACHED_BLOCKS: usize = 3;

/// Memoized water-fill tables for a link whose active transfers all
/// demand the same rate. Then the rate granted at sorted position `k`
/// depends only on the active count `n`, so the table for `n` is filled
/// once and copied on every later event with `n` transfers active.
///
/// The water-fill is a serial chain of divisions. Tables are filled for
/// [`FILL_BLOCK`] neighbouring counts at once so their independent chains
/// overlap; the least recently used block is evicted beyond
/// [`CACHED_BLOCKS`].
#[derive(Debug, Clone, Default)]
struct RateCache {
    /// The demand every cached table was filled for.
    demand_bps: f64,
    blocks: Vec<RateBlock>,
    clock: u64,
}

#[derive(Debug, Clone, Default)]
struct RateBlock {
    /// The block holds the tables for counts `first..first + FILL_BLOCK`;
    /// the one for `first + j` starts at `rates[j * (first + FILL_BLOCK)]`.
    first: usize,
    rates: Vec<f64>,
    last_used: u64,
}

impl RateBlock {
    /// Fills the tables for counts `first..first + FILL_BLOCK`, stepping
    /// their chains side by side.
    fn fill(&mut self, capacity_bps: f64, demand_bps: f64, first: usize) {
        let stride = first + FILL_BLOCK;
        self.first = first;
        self.rates.clear();
        self.rates.resize(FILL_BLOCK * stride, 0.0);
        let mut capacity = [capacity_bps; FILL_BLOCK];
        // Chain `j` serves `first + j` transfers, so at step `k` it has
        // `first + j - k` left.
        for k in 0..stride - 1 {
            for (j, cap) in capacity.iter_mut().enumerate() {
                if k < first + j {
                    self.rates[j * stride + k] = fill_step(cap, first + j - k, demand_bps);
                }
            }
        }
    }
}

impl RateCache {
    /// The water-fill rates of `n` transfers that each demand
    /// `demand_bps`, in sorted-position order.
    fn table(&mut self, capacity_bps: f64, demand_bps: f64, n: usize) -> &[f64] {
        if self.demand_bps.to_bits() != demand_bps.to_bits() {
            self.blocks.clear();
            self.demand_bps = demand_bps;
        }
        self.clock += 1;
        let first = n - n % FILL_BLOCK;
        let slot = match self.blocks.iter().position(|b| b.first == first) {
            Some(slot) => slot,
            None => {
                let slot = if self.blocks.len() < CACHED_BLOCKS {
                    self.blocks.push(RateBlock::default());
                    self.blocks.len() - 1
                } else {
                    (0..self.blocks.len())
                        .min_by_key(|&s| self.blocks[s].last_used)
                        .expect("the cache holds blocks")
                };
                self.blocks[slot].fill(capacity_bps, demand_bps, first);
                slot
            }
        };
        let block = &mut self.blocks[slot];
        block.last_used = self.clock;
        let at = (n - first) * (first + FILL_BLOCK);
        &block.rates[at..at + n]
    }
}

/// A shared-bandwidth link dividing its capacity max-min fairly among
/// concurrent transfers (see the module-level docs above).
///
/// Active transfers live in parallel arrays sorted by (demand, start
/// instant, tag), the water-fill order, so an event needs no sort and
/// allocates nothing once the arrays have grown.
#[derive(Debug, Clone)]
pub struct FairShareLink {
    capacity_bps: f64,
    /// Bookkeeping is settled to here.
    now: SimTime,
    /// The instant the current rates and times-to-finish were planned at.
    planned_at: SimTime,
    keys: Vec<Key>,
    /// Bytes still to move, settled up to `now`.
    remaining: Vec<f64>,
    /// Currently granted rate, bytes/s.
    rate: Vec<f64>,
    /// Unrounded nanoseconds from `planned_at` to completion at `rate`.
    to_finish_ns: Vec<f64>,
    /// The rounded-up least time-to-finish: the next completion batch is
    /// every transfer planned to finish within it.
    batch_ns: f64,
    /// `planned_at + batch_ns`, saturated; `None` when idle.
    next: Option<SimTime>,
    cache: RateCache,
    deliveries: Vec<LinkDelivery>,
}

impl FairShareLink {
    /// Creates a link with the given capacity in bytes per second.
    /// `f64::INFINITY` models an uncontended (zero-delay) network.
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
            now: SimTime::ZERO,
            planned_at: SimTime::ZERO,
            keys: Vec::new(),
            remaining: Vec::new(),
            rate: Vec::new(),
            to_finish_ns: Vec::new(),
            batch_ns: 0.0,
            next: None,
            cache: RateCache::default(),
            deliveries: Vec::new(),
        })
    }

    /// An infinite-capacity link: every transfer completes the instant it
    /// starts, adding exactly zero delay (the identity configuration).
    pub fn infinite() -> Self {
        FairShareLink::new(f64::INFINITY).expect("infinity is a valid capacity")
    }

    /// The configured capacity, bytes per second.
    pub fn capacity_bps(&self) -> f64 {
        self.capacity_bps
    }

    /// The instant the link's bookkeeping is settled to.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of transfers currently in flight.
    pub fn active_count(&self) -> usize {
        self.keys.len()
    }

    /// `true` when nothing is in flight.
    pub fn is_idle(&self) -> bool {
        self.keys.is_empty()
    }

    /// Begins moving `bytes` for `tag` at instant `at`, demanding at most
    /// `demand_bps` (the receiver's own bottleneck; `f64::INFINITY` for
    /// "as fast as the link allows"). Rates of every active transfer are
    /// recomputed immediately. A zero-byte transfer completes at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the link's settled clock (starts must be
    /// fed in non-decreasing time order) or `demand_bps` is not positive.
    pub fn start_transfer(&mut self, at: SimTime, bytes: u64, demand_bps: f64, tag: u64) {
        assert!(at >= self.now, "transfer starts must not precede the link clock");
        assert!(!demand_bps.is_nan() && demand_bps > 0.0, "transfer demand must be positive");
        // Deliver anything that finishes no later than the new arrival,
        // then settle the survivors' byte counts to `at`.
        self.run_completions(at);
        self.settle_to(at);
        let key = Key { demand_bps, start: at, tag };
        let pos = self.keys.partition_point(|k| k.order(&key) != Ordering::Greater);
        self.keys.insert(pos, key);
        self.remaining.insert(pos, bytes as f64);
        self.replan();
    }

    /// Drains the accumulated [`LinkDelivery`] records, in delivery order
    /// (ties broken by ascending tag).
    pub fn take_deliveries(&mut self) -> Vec<LinkDelivery> {
        std::mem::take(&mut self.deliveries)
    }

    /// Moves bytes for the interval `[self.now, to]` at current rates.
    fn settle_to(&mut self, to: SimTime) {
        if to <= self.now {
            return;
        }
        let dt = to.duration_since(self.now).as_secs_f64();
        for (left, &rate) in self.remaining.iter_mut().zip(&self.rate) {
            *left = if rate.is_infinite() { 0.0 } else { (*left - rate * dt).max(0.0) };
        }
        self.now = to;
    }

    /// Reassigns every active transfer its max-min fair rate and plans
    /// its time-to-finish from the settled clock.
    fn replan(&mut self) {
        let n = self.keys.len();
        self.planned_at = self.now;
        self.rate.resize(n, 0.0);
        self.to_finish_ns.resize(n, 0.0);
        if n == 0 {
            self.next = None;
            return;
        }
        let demand_bps = self.keys[0].demand_bps;
        if self.capacity_bps.is_infinite() {
            for (rate, key) in self.rate.iter_mut().zip(&self.keys) {
                *rate = key.demand_bps;
            }
        } else if demand_bps.to_bits() == self.keys[n - 1].demand_bps.to_bits() {
            // Sorted by demand, so equal ends mean one demand for all.
            let table = self.cache.table(self.capacity_bps, demand_bps, n);
            self.rate.copy_from_slice(table);
        } else {
            let mut capacity = self.capacity_bps;
            for (k, (rate, key)) in self.rate.iter_mut().zip(&self.keys).enumerate() {
                *rate = fill_step(&mut capacity, n - k, key.demand_bps);
            }
        }
        for ((ns, &left), &rate) in
            self.to_finish_ns.iter_mut().zip(&self.remaining).zip(&self.rate)
        {
            *ns = if left <= 0.0 || rate.is_infinite() { 0.0 } else { left / rate * 1e9 };
        }
        let least = least(&self.to_finish_ns);
        // Whole nanoseconds, rounded up so the plan never undershoots;
        // completion forces the residue to zero.
        self.batch_ns = least.ceil();
        self.next = Some(finish_instant(self.planned_at, least));
    }

    /// Delivers every planned completion at instants `<= limit`, in time
    /// order, replanning after each completion batch.
    fn run_completions(&mut self, limit: SimTime) {
        while let Some(next) = self.next.filter(|&next| next <= limit) {
            self.settle_to(next);
            // Below the saturated instant, a transfer finishes at `next`
            // exactly when its time-to-finish rounds up to `batch_ns`; at
            // it, every transfer whose own instant saturates does.
            let saturated = next == SimTime::MAX;
            let (planned_at, batch_ns) = (self.planned_at, self.batch_ns);
            let done = |ns: f64| {
                if saturated {
                    finish_instant(planned_at, ns) == next
                } else {
                    ns <= batch_ns
                }
            };
            let first = self.deliveries.len();
            let batch = self.to_finish_ns.iter().filter(|&&ns| done(ns)).count();
            if self.to_finish_ns[..batch].iter().all(|&ns| done(ns)) {
                // The usual batch: the longest-running transfers, at the
                // front of their equal-demand run.
                let finished = self.keys.drain(..batch);
                self.deliveries.extend(finished.map(|k| LinkDelivery { tag: k.tag, at: next }));
                self.remaining.drain(..batch);
            } else {
                let mut kept = 0;
                for i in 0..self.keys.len() {
                    if done(self.to_finish_ns[i]) {
                        self.deliveries.push(LinkDelivery { tag: self.keys[i].tag, at: next });
                    } else {
                        self.keys[kept] = self.keys[i];
                        self.remaining[kept] = self.remaining[i];
                        kept += 1;
                    }
                }
                self.keys.truncate(kept);
                self.remaining.truncate(kept);
            }
            self.deliveries[first..].sort_unstable_by_key(|d| d.tag);
            self.replan();
        }
    }
}

/// The least of `values`, none of them NaN (infinity when empty). Eight
/// running minima let the comparisons overlap; the result is the same in
/// any order.
fn least(values: &[f64]) -> f64 {
    let mut lanes = [f64::INFINITY; 8];
    let chunks = values.chunks_exact(lanes.len());
    let tail = chunks.remainder();
    for chunk in chunks {
        for (lane, &v) in lanes.iter_mut().zip(chunk) {
            *lane = lane.min(v);
        }
    }
    tail.iter().chain(&lanes).fold(f64::INFINITY, |a, &b| a.min(b))
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
        self.settle_to(limit.max(self.now));
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
        assert!(l.is_idle());
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
        // Two 100 B transfers share 100 B/s: both at 50 B/s. One 50 B
        // transfer joining at t=0 with demand 50 would change shares; use
        // a staggered pair instead: A=150 B and B=50 B from t=0. Both run
        // at 50 B/s; B finishes at 1 s; A then gets the full 100 B/s for
        // its remaining 100 B, finishing at 2 s (not 3 s).
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
        let mut l = FairShareLink::infinite();
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
                        if i % 3 == 0 { 250.0 } else { f64::INFINITY },
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

    #[test]
    fn simultaneous_equal_starts_ignore_insertion_order() {
        // Seven equal transfers split 250 MiB/s with rates that differ in
        // the last bits by water-fill position, so whichever two hold the
        // two largest shares finish first, at 3,501,000 ns. Positions
        // follow (start, tag), not insertion order.
        let run = |tags: &mut dyn Iterator<Item = u64>| {
            let mut l = FairShareLink::new(250.0 * MIB as f64).unwrap();
            for tag in tags {
                l.start_transfer(SimTime::from_nanos(1000), 131_072, f64::INFINITY, tag);
            }
            drained(&mut l)
        };
        let forward = run(&mut (0..7));
        assert_eq!(forward, run(&mut (0..7).rev()));
        let first = LinkDelivery { tag: 0, at: SimTime::from_nanos(3_501_000) };
        assert_eq!(forward[..2], [first, LinkDelivery { tag: 1, ..first }]);
        assert!(forward[2..].iter().all(|d| d.at > first.at));
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

    #[test]
    fn allocator_waterfills() {
        let r = max_min_rates(90.0, &[10.0, 100.0, 100.0]);
        // Small demand fully served; the rest split the remainder evenly.
        assert!((r[0] - 10.0).abs() < 1e-9);
        assert!((r[1] - 40.0).abs() < 1e-9);
        assert!((r[2] - 40.0).abs() < 1e-9);
        assert!(max_min_rates(f64::INFINITY, &[5.0, f64::INFINITY])[1].is_infinite());
        assert!(max_min_rates(10.0, &[]).is_empty());
    }

    #[test]
    fn equal_demands_are_shared_by_position() {
        // Successive division leaves the first of three equal demands a
        // bit above the others; the documented example, pinned.
        assert_eq!(
            max_min_rates(10.0, &[1e9; 3]),
            [3.3333333333333335, 3.333333333333333, 3.333333333333333]
        );
    }
}
