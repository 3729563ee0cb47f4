//! Property tests for the fair-share link, and differential checks of it
//! against two plain reference links.
//!
//! Two properties hold exactly: equal transfers started together finish
//! together, and permuting the insertion order of simultaneous transfers,
//! exact twins included, changes no delivery. The link conserves work to
//! within a nanosecond per transfer, and adding a transfer makes no other
//! delivery earlier by more than the nanosecond of rounding that
//! [`never_sped_up`] explains.
//!
//! [`reference::ReferenceLink`] is the link's model in its plainest form,
//! and the link must match it bit for bit. [`bytes_left::BytesLeftLink`]
//! settles every transfer's bytes left on each event instead; it shares no
//! arithmetic with the link, so it checks the model rather than the code.

use proptest::prelude::*;
use seqio_simcore::units::MIB;
use seqio_simcore::{FairShareLink, LinkDelivery, SimComponent, SimRng, SimTime};

/// Runs `transfers` (start ns, bytes, tag) of one demand through a link,
/// inserting the starts of each simultaneous batch in the order given by
/// `order`, and returns the deliveries.
fn run_link(
    capacity: f64,
    demand: f64,
    transfers: &[(u64, u64, u64)],
    order: &[usize],
) -> Vec<LinkDelivery> {
    let mut link = FairShareLink::new(capacity).expect("positive capacity");
    link.init();
    // Starts must be fed in time order; the stable sort keeps `order`'s
    // relative arrangement within each simultaneous batch (the property
    // under test).
    let mut idx: Vec<usize> = order.to_vec();
    idx.sort_by_key(|&i| transfers[i].0);
    for &i in &idx {
        let (start_ns, bytes, tag) = transfers[i];
        link.start_transfer(SimTime::from_nanos(start_ns), bytes, demand, tag);
    }
    link.advance_to(SimTime::MAX);
    link.take_deliveries()
}

/// Transfers of `(slot, bytes)` tagged by position, started a millisecond
/// apart per slot so simultaneous batches are common.
fn slotted(raw: &[(u64, u64)]) -> Vec<(u64, u64, u64)> {
    raw.iter().enumerate().map(|(i, &(slot, bytes))| (slot * 1_000_000, bytes, i as u64)).collect()
}

/// Either a third of the capacity or unbounded.
fn demand_for(capacity: f64, capped: bool) -> f64 {
    if capped {
        capacity / 3.0
    } else {
        f64::INFINITY
    }
}

/// Adding `extra` to the transfers `raw` (see [`slotted`]) makes no other
/// delivery earlier by more than one nanosecond. Each delivery instant is
/// the ceiling of a floating-point time, and the added transfer moves the
/// instants the service clock is read at. So a finish that is a whole
/// nanosecond in exact arithmetic can round one nanosecond later without
/// the added transfer than with it, even where that transfer takes no
/// bandwidth from the others.
fn never_sped_up(
    capacity_raw: u32,
    raw: &[(u64, u64)],
    extra: (u64, u64),
    capped: bool,
) -> Result<(), String> {
    let capacity = f64::from(capacity_raw);
    let demand = demand_for(capacity, capped);
    let base = slotted(raw);
    let grown = slotted(&[raw, &[extra]].concat());
    let before = run_link(capacity, demand, &base, &(0..base.len()).collect::<Vec<_>>());
    let after = run_link(capacity, demand, &grown, &(0..grown.len()).collect::<Vec<_>>());
    for b in &before {
        let a = after.iter().find(|a| a.tag == b.tag).expect("every transfer is delivered");
        if a.at.as_nanos() + 1 < b.at.as_nanos() {
            return Err(format!("transfer {} sped up from {:?} to {:?}", b.tag, b.at, a.at));
        }
    }
    Ok(())
}

/// The three cases `PROPTEST_RNG_SEED` 1034, 4896 and 5551 generated
/// where the added transfer moves a demand-bound transfer's delivery 1 ns
/// earlier: each finishes at a whole nanosecond in exact arithmetic
/// (2.251 s, 57.8935 s and 3826.128 s) and rounds up one nanosecond past
/// it without the added transfer.
#[test]
fn adding_a_transfer_never_speeds_up_another_at_the_recorded_cases() {
    never_sped_up(85_908, &[(3, 34_491), (1, 64_431)], (0, 4_451), true).unwrap();
    never_sped_up(4_000, &[(1, 35_741), (4, 77_186)], (3, 56_982), true).unwrap();
    never_sped_up(56, &[(2, 34_126), (3, 71_421)], (4, 47_996), true).unwrap();
}

proptest! {
    /// Equal transfers started at one instant share the link equally, so
    /// they deliver at one instant. Whole 4 KiB pages on links of whole
    /// MiB/s make many of these finishes whole nanoseconds, where shares
    /// that differed in their last bits would split the batch.
    #[test]
    fn prop_equal_transfers_finish_together(
        capacity_mib in 1u64..1_000,
        k in 1usize..40,
        pages in 1u64..64,
        start in 0u64..1_000_000_000,
        capped in any::<bool>(),
    ) {
        let capacity = (capacity_mib * MIB) as f64;
        let transfers: Vec<(u64, u64, u64)> =
            (0..k as u64).map(|tag| (start, pages * 4096, tag)).collect();
        let order: Vec<usize> = (0..k).collect();
        let done = run_link(capacity, demand_for(capacity, capped), &transfers, &order);
        prop_assert_eq!(done.len(), k, "every transfer is delivered");
        prop_assert!(done.iter().all(|d| d.at == done[0].at), "equal transfers split: {done:?}");
    }

    /// Monotonicity: adding one transfer to a feed makes no other
    /// delivery earlier, to within the nanosecond of rounding that
    /// [`never_sped_up`] explains.
    #[test]
    fn prop_adding_a_transfer_never_speeds_up_another(
        capacity_raw in 1u32..100_000,
        raw in proptest::collection::vec((0u64..5, 1u64..100_000), 1..20),
        extra in (0u64..5, 1u64..100_000),
        capped in any::<bool>(),
    ) {
        never_sped_up(capacity_raw, &raw, extra, capped)?;
    }

    /// Conservation: transfers started together at an infinite demand keep
    /// the link busy until it has moved all their bytes, and no longer.
    /// Each batch rounds its instant up to a whole nanosecond, so the last
    /// delivery lies within one nanosecond per transfer of the ideal.
    #[test]
    fn prop_link_conserves_work(
        capacity_raw in 1u32..1_000_000,
        bytes in proptest::collection::vec(1u64..1_000_000, 1..40),
        start in 0u64..1_000_000_000,
    ) {
        let capacity = f64::from(capacity_raw);
        let transfers: Vec<(u64, u64, u64)> =
            bytes.iter().enumerate().map(|(tag, &b)| (start, b, tag as u64)).collect();
        let order: Vec<usize> = (0..transfers.len()).collect();
        let done = run_link(capacity, f64::INFINITY, &transfers, &order);
        let last = done.iter().map(|d| d.at).max().expect("at least one transfer");
        let total: u64 = bytes.iter().sum();
        let ideal = start as f64 + total as f64 / capacity * 1e9;
        let off = (last.as_nanos() as f64 - ideal).abs();
        prop_assert!(
            off <= bytes.len() as f64,
            "last byte at {} ns, {off} ns off the ideal {ideal} ns",
            last.as_nanos()
        );
    }

    /// Completion-order determinism: permuting the insertion order of
    /// simultaneous transfers of one demand changes no delivery instant
    /// and no delivery order (ties always resolve by ascending tag). A
    /// `twin` repeats the previous transfer, tag included.
    #[test]
    fn prop_deliveries_are_insertion_order_invariant(
        capacity_raw in 1u32..100_000,
        raw in proptest::collection::vec((0u64..5, 1u64..100_000, any::<bool>()), 1..20),
        capped in any::<bool>(),
        rot in 1usize..19,
    ) {
        let capacity = f64::from(capacity_raw);
        let mut transfers: Vec<(u64, u64, u64)> = Vec::with_capacity(raw.len());
        for (i, &(slot, bytes, twin)) in raw.iter().enumerate() {
            let t = match transfers.last() {
                Some(&prev) if twin => prev,
                _ => (slot * 1_000_000, bytes, i as u64),
            };
            transfers.push(t);
        }
        let demand = demand_for(capacity, capped);
        let forward: Vec<usize> = (0..transfers.len()).collect();
        let mut permuted = forward.clone();
        permuted.rotate_left(rot % transfers.len());
        let a = run_link(capacity, demand, &transfers, &forward);
        let b = run_link(capacity, demand, &transfers, &permuted);
        prop_assert_eq!(a.len(), transfers.len(), "every transfer is delivered");
        prop_assert_eq!(a, b, "insertion order leaked into deliveries");
    }
}

#[test]
#[should_panic(expected = "a link serves one demand")]
fn a_second_demand_is_refused() {
    let mut link = FairShareLink::new(100.0).expect("positive capacity");
    link.start_transfer(SimTime::ZERO, 10, f64::INFINITY, 0);
    link.start_transfer(SimTime::ZERO, 10, 50.0, 1);
}

/// The link's model in its plainest form: a `Vec` of `(finish tag, tag)`
/// on the same service clock, scanned on every event for the least tag
/// and the completion batch. [`FairShareLink`] must match it bit for bit.
mod reference {
    use seqio_simcore::{LinkDelivery, SimTime};

    pub struct ReferenceLink {
        capacity_bps: f64,
        demand_bps: f64,
        now: SimTime,
        planned_at: SimTime,
        planned_served: f64,
        rate_bps: f64,
        active: Vec<(f64, u64)>,
        deliveries: Vec<LinkDelivery>,
    }

    impl ReferenceLink {
        pub fn new(capacity_bps: f64, demand_bps: f64) -> Self {
            ReferenceLink {
                capacity_bps,
                demand_bps,
                now: SimTime::ZERO,
                planned_at: SimTime::ZERO,
                planned_served: 0.0,
                rate_bps: 0.0,
                active: Vec::new(),
                deliveries: Vec::new(),
            }
        }

        pub fn active_count(&self) -> usize {
            self.active.len()
        }

        pub fn start_transfer(&mut self, at: SimTime, bytes: u64, tag: u64) {
            self.run_completions(at);
            self.now = at;
            self.active.push((self.served_at(at) + bytes as f64, tag));
            self.replan(at);
        }

        pub fn take_deliveries(&mut self) -> Vec<LinkDelivery> {
            std::mem::take(&mut self.deliveries)
        }

        pub fn peek_next_time(&self) -> Option<SimTime> {
            let least = self.active.iter().map(|&(finish, _)| finish).reduce(f64::min)?;
            Some(self.instant(self.to_finish_ns(least)))
        }

        pub fn advance_to(&mut self, limit: SimTime) {
            self.run_completions(limit);
            self.now = self.now.max(limit);
        }

        fn served_at(&self, t: SimTime) -> f64 {
            self.planned_served + self.rate_bps * t.duration_since(self.planned_at).as_secs_f64()
        }

        fn to_finish_ns(&self, finish: f64) -> f64 {
            (finish - self.planned_served) / self.rate_bps * 1e9
        }

        fn instant(&self, to_finish_ns: f64) -> SimTime {
            let ns = self.planned_at.as_nanos().saturating_add(to_finish_ns.ceil() as u64);
            SimTime::from_nanos(ns)
        }

        /// Reads the service clock at `at` and sets the equal share of the
        /// transfers now active; an idle link restarts the clock at zero.
        fn replan(&mut self, at: SimTime) {
            if self.active.is_empty() {
                (self.planned_served, self.rate_bps) = (0.0, 0.0);
            } else {
                self.planned_served = self.served_at(at);
                let n = self.active.len() as f64;
                self.rate_bps = self.demand_bps.min(self.capacity_bps / n);
            }
            self.planned_at = at;
        }

        fn run_completions(&mut self, limit: SimTime) {
            while let Some(next) = self.peek_next_time().filter(|&next| next <= limit) {
                let least = self.active.iter().map(|&(finish, _)| finish).reduce(f64::min);
                let batch_ns = self.to_finish_ns(least.expect("a planned link is active")).ceil();
                let (mut batch, kept): (Vec<_>, Vec<_>) =
                    self.active.iter().copied().partition(|&(finish, _)| {
                        let ns = self.to_finish_ns(finish);
                        if next == SimTime::MAX {
                            self.instant(ns) == next
                        } else {
                            ns <= batch_ns
                        }
                    });
                batch.sort_unstable_by_key(|&(_, tag)| tag);
                self.deliveries
                    .extend(batch.into_iter().map(|(_, tag)| LinkDelivery { tag, at: next }));
                self.active = kept;
                self.replan(next);
            }
        }
    }
}

/// Processor sharing with each transfer's bytes left settled on every
/// event at the equal share, and each finish instant planned from those
/// bytes: the structure of the water-filling link this one replaced, with
/// no arithmetic in common with [`FairShareLink`].
mod bytes_left {
    use seqio_simcore::{LinkDelivery, SimTime};

    struct Transfer {
        tag: u64,
        remaining: f64,
        finish: SimTime,
    }

    pub struct BytesLeftLink {
        capacity_bps: f64,
        demand_bps: f64,
        rate_bps: f64,
        now: SimTime,
        active: Vec<Transfer>,
        deliveries: Vec<LinkDelivery>,
    }

    impl BytesLeftLink {
        pub fn new(capacity_bps: f64, demand_bps: f64) -> Self {
            BytesLeftLink {
                capacity_bps,
                demand_bps,
                rate_bps: 0.0,
                now: SimTime::ZERO,
                active: Vec::new(),
                deliveries: Vec::new(),
            }
        }

        pub fn start_transfer(&mut self, at: SimTime, bytes: u64, tag: u64) {
            self.run_completions(at);
            self.settle_to(at);
            self.active.push(Transfer { tag, remaining: bytes as f64, finish: SimTime::MAX });
            self.recompute_rates();
        }

        pub fn take_deliveries(&mut self) -> Vec<LinkDelivery> {
            std::mem::take(&mut self.deliveries)
        }

        pub fn advance_to(&mut self, limit: SimTime) {
            self.run_completions(limit);
            self.settle_to(limit.max(self.now));
        }

        fn settle_to(&mut self, to: SimTime) {
            if to <= self.now {
                return;
            }
            let dt = to.duration_since(self.now).as_secs_f64();
            for t in &mut self.active {
                t.remaining = if self.rate_bps.is_infinite() {
                    0.0
                } else {
                    (t.remaining - self.rate_bps * dt).max(0.0)
                };
            }
            self.now = to;
        }

        fn recompute_rates(&mut self) {
            if self.active.is_empty() {
                return;
            }
            self.rate_bps = self.demand_bps.min(self.capacity_bps / self.active.len() as f64);
            for t in &mut self.active {
                t.finish = if t.remaining <= 0.0 || self.rate_bps.is_infinite() {
                    self.now
                } else {
                    let ns = (t.remaining / self.rate_bps * 1e9).ceil();
                    SimTime::from_nanos(self.now.as_nanos().saturating_add(ns as u64))
                };
            }
        }

        fn run_completions(&mut self, limit: SimTime) {
            while let Some(next) = self.active.iter().map(|t| t.finish).min() {
                if next > limit {
                    return;
                }
                self.settle_to(next);
                let mut done: Vec<u64> =
                    self.active.iter().filter(|t| t.finish == next).map(|t| t.tag).collect();
                done.sort_unstable();
                self.active.retain(|t| t.finish != next);
                self.deliveries.extend(done.into_iter().map(|tag| LinkDelivery { tag, at: next }));
                self.recompute_rates();
            }
        }
    }
}

/// One call on a link.
#[derive(Debug, Clone, Copy)]
enum Op {
    Start { at: u64, bytes: u64, tag: u64 },
    Advance(u64),
}

/// A capacity, the one demand every transfer makes, and the calls.
struct Feed {
    capacity: f64,
    demand: f64,
    ops: Vec<Op>,
}

/// Drives the link and [`reference::ReferenceLink`] through `feed`,
/// asserting after every call that both report the same next instant,
/// active count and deliveries. Returns the deliveries and the peak
/// active count.
fn differential(feed: &Feed) -> (Vec<LinkDelivery>, usize) {
    let mut fast = FairShareLink::new(feed.capacity).expect("positive capacity");
    fast.init();
    let mut slow = reference::ReferenceLink::new(feed.capacity, feed.demand);
    let mut delivered = Vec::new();
    let mut peak = 0;
    let mut check = |fast: &mut FairShareLink, slow: &mut reference::ReferenceLink, step: usize| {
        assert_eq!(fast.peek_next_time(), slow.peek_next_time(), "next instant, call {step}");
        assert_eq!(fast.active_count(), slow.active_count(), "active count, call {step}");
        let got = fast.take_deliveries();
        assert_eq!(got, slow.take_deliveries(), "deliveries, call {step}");
        delivered.extend(got);
    };
    for (step, op) in feed.ops.iter().enumerate() {
        match *op {
            Op::Start { at, bytes, tag } => {
                let at = SimTime::from_nanos(at);
                fast.start_transfer(at, bytes, feed.demand, tag);
                slow.start_transfer(at, bytes, tag);
                peak = peak.max(fast.active_count());
            }
            Op::Advance(to) => {
                fast.advance_to(SimTime::from_nanos(to));
                slow.advance_to(SimTime::from_nanos(to));
            }
        }
        check(&mut fast, &mut slow, step);
    }
    fast.advance_to(SimTime::MAX);
    slow.advance_to(SimTime::MAX);
    check(&mut fast, &mut slow, feed.ops.len());
    assert_eq!(fast.active_count(), 0, "the drained link is idle");
    (delivered, peak)
}

/// `n` starts whose gaps and sizes come from the closures, in bursts of
/// `burst` simultaneous starts. Tags rise with the start instant.
fn starts(
    seed: u64,
    n: usize,
    burst: u64,
    mut gap_ns: impl FnMut(&mut SimRng, u64) -> u64,
    mut bytes: impl FnMut(&mut SimRng) -> u64,
) -> Vec<Op> {
    let mut rng = SimRng::seed_from(seed);
    let mut at = 1_000;
    (0..n as u64)
        .map(|tag| {
            if tag % burst == 0 {
                at += gap_ns(&mut rng, at);
            }
            Op::Start { at, bytes: bytes(&mut rng), tag }
        })
        .collect()
}

/// Inserts an `advance_to` every `step_ns` of start time, and past the
/// last start keeps advancing in chunks while transfers drain, so the
/// links are advanced between events without replanning.
fn chunked(ops: &[Op], step_ns: u64) -> Vec<Op> {
    let mut out = Vec::with_capacity(ops.len() * 2);
    let mut next = step_ns;
    for &op in ops {
        if let Op::Start { at, .. } = op {
            while next < at {
                out.push(Op::Advance(next));
                next += step_ns;
            }
        }
        out.push(op);
    }
    out.extend((1..4_000).map(|i| Op::Advance(next + i * step_ns)));
    out
}

/// Bursts of up to 12 simultaneous starts at one unbounded demand.
fn shared_infinite_demand_feeds() -> Vec<Feed> {
    [(1, 1), (2, 5), (3, 12)]
        .into_iter()
        .map(|(seed, burst)| Feed {
            capacity: 40.0 * MIB as f64,
            demand: f64::INFINITY,
            ops: starts(seed, 600, burst, |r, _| r.range(0, 4_000_000), |r| r.range(1, 200_000)),
        })
        .collect()
}

/// One demand, low enough that light load is demand-bound and heavy load
/// is capacity-bound.
fn shared_finite_demand_feed() -> Feed {
    let capacity = 40.0 * MIB as f64;
    let ops = starts(4, 600, 3, |r, _| r.range(0, 3_000_000), |r| r.range(1, 300_000));
    Feed { capacity, demand: capacity / 5.0, ops }
}

/// Every third transfer is empty and completes at its own start.
fn zero_byte_feeds() -> Vec<Feed> {
    [f64::INFINITY, 3.0 * MIB as f64]
        .into_iter()
        .map(|demand| Feed {
            capacity: 20.0 * MIB as f64,
            demand,
            ops: starts(
                6,
                400,
                4,
                |r, _| r.range(0, 2_000_000),
                |r| if r.below(3) == 0 { 0 } else { r.range(1, 100_000) },
            ),
        })
        .collect()
}

/// An infinite capacity, once per demand: an unbounded demand delivers
/// every transfer at its start, a finite one moves each at that demand.
fn infinite_capacity_feeds() -> Vec<Feed> {
    [f64::INFINITY, 5.0 * MIB as f64, 0.5 * MIB as f64]
        .into_iter()
        .map(|demand| Feed {
            capacity: f64::INFINITY,
            demand,
            ops: starts(7, 300, 3, |r, _| r.range(0, 1_000_000), |r| r.range(0, 100_000)),
        })
        .collect()
}

/// The same starts at two demands, each advanced in one shot and in
/// chunks of `step_ns`.
fn chunked_feed_pairs() -> Vec<(Feed, Feed)> {
    let capacity = 30.0 * MIB as f64;
    [(f64::INFINITY, 700_000), (capacity / 4.0, 3_000_000)]
        .into_iter()
        .map(|(demand, step_ns)| {
            let ops = starts(8, 400, 2, |r, _| r.range(0, 3_000_000), |r| r.range(1, 200_000));
            let stepped = Feed { capacity, demand, ops: chunked(&ops, step_ns) };
            (Feed { capacity, demand, ops }, stepped)
        })
        .collect()
}

/// The arrival rate swings far above and below the link's capacity, so
/// the active count climbs from zero past 100 and back several times.
fn swelling_backlog_feeds() -> Vec<Feed> {
    let capacity = 20.0 * MIB as f64;
    [f64::INFINITY, capacity / 50.0]
        .into_iter()
        .map(|demand| Feed {
            capacity,
            demand,
            ops: starts(
                9,
                3_000,
                1,
                |r, at| {
                    let phase = (at as f64 / 1e9 * std::f64::consts::TAU / 2.0).sin();
                    // 160 transfers/s fill the link; swing between 40 and 280.
                    r.exponential(1e9 / (160.0 + 120.0 * phase)) as u64
                },
                |_| 128 * 1024,
            ),
        })
        .collect()
}

/// 20k 128 KiB transfers at 250 MiB/s (2000 a second fill the link) with
/// the arrival rate swinging 40% either side of it, peaking above 1000
/// active.
fn saturated_replay_feed() -> Feed {
    let ops = starts(
        10,
        20_000,
        1,
        |r, at| {
            let phase = (at as f64 / 1e9 * std::f64::consts::TAU / 4.0).sin();
            r.exponential(1e9 / (2000.0 + 800.0 * phase)) as u64
        },
        |_| 128 * 1024,
    );
    Feed { capacity: 250.0 * MIB as f64, demand: f64::INFINITY, ops }
}

#[test]
fn fast_link_matches_reference_on_shared_infinite_demand() {
    for feed in shared_infinite_demand_feeds() {
        assert_eq!(differential(&feed).0.len(), 600);
    }
}

#[test]
fn fast_link_matches_reference_on_shared_finite_demand() {
    assert_eq!(differential(&shared_finite_demand_feed()).0.len(), 600);
}

#[test]
fn fast_link_matches_reference_on_zero_byte_transfers() {
    for feed in zero_byte_feeds() {
        let (done, _) = differential(&feed);
        assert_eq!(done.len(), 400);
        for op in &feed.ops {
            if let Op::Start { at, bytes: 0, tag } = *op {
                let d = done.iter().find(|d| d.tag == tag).expect("every transfer is delivered");
                assert_eq!(d.at, SimTime::from_nanos(at), "empty transfer {tag} left its start");
            }
        }
    }
}

#[test]
fn fast_link_matches_reference_on_infinite_capacity() {
    for feed in infinite_capacity_feeds() {
        let (done, _) = differential(&feed);
        assert_eq!(done.len(), 300);
        if feed.demand.is_infinite() {
            let started: Vec<LinkDelivery> = (feed.ops.iter())
                .map(|&op| match op {
                    Op::Start { at, tag, .. } => LinkDelivery { tag, at: SimTime::from_nanos(at) },
                    Op::Advance(_) => unreachable!("the feed only starts transfers"),
                })
                .collect();
            assert_eq!(done, started, "an unconstrained link delivers at each start");
        }
    }
}

#[test]
fn fast_link_matches_reference_under_chunked_advance() {
    for (one_shot, stepped) in chunked_feed_pairs() {
        assert_eq!(
            differential(&one_shot).0,
            differential(&stepped).0,
            "chunked advance moved a delivery"
        );
    }
}

#[test]
fn fast_link_matches_reference_as_the_backlog_swells_and_drains() {
    for feed in swelling_backlog_feeds() {
        let (done, peak) = differential(&feed);
        assert_eq!(done.len(), 3_000);
        assert!(peak > 100, "peak active {peak} too low");
    }
}

#[test]
fn fast_link_matches_reference_on_a_long_saturated_replay() {
    let (done, peak) = differential(&saturated_replay_feed());
    assert_eq!(done.len(), 20_000);
    assert!(peak > 1000, "peak active {peak} is not above 1000");
}

/// Replays `feed` through [`bytes_left::BytesLeftLink`].
fn bytes_left_deliveries(feed: &Feed) -> Vec<LinkDelivery> {
    let mut link = bytes_left::BytesLeftLink::new(feed.capacity, feed.demand);
    for op in &feed.ops {
        match *op {
            Op::Start { at, bytes, tag } => {
                link.start_transfer(SimTime::from_nanos(at), bytes, tag)
            }
            Op::Advance(to) => link.advance_to(SimTime::from_nanos(to)),
        }
    }
    link.advance_to(SimTime::MAX);
    link.take_deliveries()
}

#[test]
fn bytes_left_model_agrees_within_16_ns_on_every_feed() {
    let mut feeds = shared_infinite_demand_feeds();
    feeds.push(shared_finite_demand_feed());
    feeds.extend(zero_byte_feeds());
    feeds.extend(infinite_capacity_feeds());
    feeds.extend(chunked_feed_pairs().into_iter().flat_map(|(a, b)| [a, b]));
    feeds.extend(swelling_backlog_feeds());
    feeds.push(saturated_replay_feed());
    for (i, feed) in feeds.iter().enumerate() {
        let (link, _) = differential(feed);
        let model = bytes_left_deliveries(feed);
        let order = |d: &[LinkDelivery]| d.iter().map(|d| d.tag).collect::<Vec<_>>();
        assert_eq!(order(&link), order(&model), "delivery order, feed {i}");
        for (a, b) in link.iter().zip(&model) {
            let shift = a.at.as_nanos().abs_diff(b.at.as_nanos());
            assert!(shift <= 16, "feed {i}: tag {} moved {shift} ns", a.tag);
        }
    }
}
