//! Property tests for the fair-share link: conservation, max-min
//! fairness, monotonicity of the pure allocator, insertion-order
//! determinism of the full progressive-filling link simulation, and a
//! differential check of the link against a plain reference copy that
//! rebuilds the allocation on every event.

use proptest::prelude::*;
use seqio_simcore::units::MIB;
use seqio_simcore::{max_min_rates, FairShareLink, LinkDelivery, SimComponent, SimRng, SimTime};

/// Builds a positive, finite demand vector from raw generator output.
fn demands_from(raw: &[u16]) -> Vec<f64> {
    raw.iter().map(|&d| f64::from(d) + 1.0).collect()
}

/// Runs `n` transfers through a link, inserting the starts of each
/// simultaneous batch in the order given by `perm`, and returns the
/// deliveries.
fn run_link(capacity: f64, transfers: &[(u64, u64, f64)], order: &[usize]) -> Vec<LinkDelivery> {
    let mut link = FairShareLink::new(capacity).expect("positive capacity");
    link.init();
    // Starts must be fed in time order; the stable sort keeps `order`'s
    // relative arrangement within each simultaneous batch (the property
    // under test).
    let mut idx: Vec<usize> = order.to_vec();
    idx.sort_by_key(|&i| transfers[i].0);
    for &i in &idx {
        let (start_ns, bytes, demand) = transfers[i];
        link.start_transfer(SimTime::from_nanos(start_ns), bytes, demand, i as u64);
    }
    link.advance_to(SimTime::MAX);
    link.take_deliveries()
}

proptest! {
    /// Conservation: granted rates sum to `min(capacity, sum demands)`
    /// (up to fp rounding) — the link never oversubscribes and never
    /// leaves claimable bandwidth idle.
    #[test]
    fn prop_allocation_conserves_capacity(
        capacity_raw in 1u32..1_000_000,
        raw in proptest::collection::vec(any::<u16>(), 1..40),
    ) {
        let capacity = f64::from(capacity_raw);
        let demands = demands_from(&raw);
        let rates = max_min_rates(capacity, &demands);
        let granted: f64 = rates.iter().sum();
        let claimable: f64 = demands.iter().sum::<f64>().min(capacity);
        prop_assert!(
            (granted - claimable).abs() <= 1e-9 * claimable.max(1.0),
            "granted {granted} != claimable {claimable}"
        );
    }

    /// Max-min fairness: nobody sits below `min(demand, capacity / n)` —
    /// a transfer is only ever short of the equal share because its own
    /// demand is smaller.
    #[test]
    fn prop_no_one_below_the_fair_share(
        capacity_raw in 1u32..1_000_000,
        raw in proptest::collection::vec(any::<u16>(), 1..40),
    ) {
        let capacity = f64::from(capacity_raw);
        let demands = demands_from(&raw);
        let rates = max_min_rates(capacity, &demands);
        let equal = capacity / demands.len() as f64;
        for (i, (&rate, &demand)) in rates.iter().zip(&demands).enumerate() {
            let floor = demand.min(equal);
            prop_assert!(
                rate >= floor - 1e-9 * floor.max(1.0),
                "transfer {i}: rate {rate} below fair floor {floor}"
            );
            prop_assert!(rate <= demand + 1e-12, "transfer {i} granted above its demand");
        }
    }

    /// Monotonicity: adding one more transfer never *raises* any
    /// existing transfer's rate.
    #[test]
    fn prop_adding_a_transfer_never_raises_others(
        capacity_raw in 1u32..1_000_000,
        raw in proptest::collection::vec(any::<u16>(), 1..40),
        extra in any::<u16>(),
    ) {
        let capacity = f64::from(capacity_raw);
        let demands = demands_from(&raw);
        let before = max_min_rates(capacity, &demands);
        let mut grown = demands.clone();
        grown.push(f64::from(extra) + 1.0);
        let after = max_min_rates(capacity, &grown);
        for (i, (&b, &a)) in before.iter().zip(&after).enumerate() {
            prop_assert!(
                a <= b + 1e-9 * b.max(1.0),
                "transfer {i} rose from {b} to {a} when a competitor joined"
            );
        }
    }

    /// Allocation of distinct demands is invariant under permutation of
    /// the demand vector: each transfer's rate depends only on its own
    /// demand and the multiset of competitors. Ties are left out on
    /// purpose: successive division gives equal demands in the fair-share
    /// regime different last bits by position (DESIGN §5g), which
    /// `link::tests::equal_demands_are_shared_by_position` pins instead.
    #[test]
    fn prop_allocation_is_permutation_invariant(
        capacity_raw in 1u32..1_000_000,
        raw in proptest::collection::vec(any::<u16>(), 2..30),
        rot in 1usize..29,
    ) {
        let capacity = f64::from(capacity_raw);
        let mut seen = std::collections::HashSet::new();
        let distinct: Vec<u16> = raw.into_iter().filter(|d| seen.insert(*d)).collect();
        let demands = demands_from(&distinct);
        let rot = rot % demands.len();
        let mut rotated = demands.clone();
        rotated.rotate_left(rot);
        let base = max_min_rates(capacity, &demands);
        let perm = max_min_rates(capacity, &rotated);
        for (i, p) in perm.iter().enumerate() {
            let j = (i + rot) % demands.len();
            prop_assert_eq!(
                base[j].to_bits(),
                p.to_bits(),
                "rate changed under permutation at index {}",
                j
            );
        }
    }

    /// Completion-order determinism: permuting the insertion order of
    /// simultaneous transfers changes no delivery instant and no
    /// delivery order (ties always resolve by ascending tag).
    #[test]
    fn prop_deliveries_are_insertion_order_invariant(
        capacity_raw in 1u32..100_000,
        raw in proptest::collection::vec((0u64..5, 1u64..100_000, any::<bool>()), 1..20),
        rot in 1usize..19,
    ) {
        let capacity = f64::from(capacity_raw);
        // A handful of start instants so simultaneous batches are common.
        let transfers: Vec<(u64, u64, f64)> = raw
            .iter()
            .map(|&(slot, bytes, capped)| {
                let demand = if capped { capacity / 3.0 } else { f64::INFINITY };
                (slot * 1_000_000, bytes, demand)
            })
            .collect();
        let forward: Vec<usize> = (0..transfers.len()).collect();
        let mut permuted = forward.clone();
        permuted.rotate_left(rot % transfers.len());
        let a = run_link(capacity, &transfers, &forward);
        let b = run_link(capacity, &transfers, &permuted);
        prop_assert_eq!(a.len(), transfers.len(), "every transfer is delivered");
        prop_assert_eq!(a, b, "insertion order leaked into deliveries");
    }
}

/// The progressive-filling link in its plainest form: a `Vec` of
/// transfers in insertion order, the allocation rebuilt by
/// [`max_min_rates`] on every start and completion, and each planned
/// finish instant stored per transfer. [`FairShareLink`] must match it
/// bit for bit whenever equal-demand starts arrive in (instant, tag)
/// order, the order in which both break ties.
mod reference {
    use seqio_simcore::{max_min_rates, LinkDelivery, SimTime};

    struct Transfer {
        tag: u64,
        remaining: f64,
        demand_bps: f64,
        rate_bps: f64,
        finish: SimTime,
    }

    pub struct ReferenceLink {
        capacity_bps: f64,
        now: SimTime,
        active: Vec<Transfer>,
        deliveries: Vec<LinkDelivery>,
    }

    impl ReferenceLink {
        pub fn new(capacity_bps: f64) -> Self {
            ReferenceLink {
                capacity_bps,
                now: SimTime::ZERO,
                active: Vec::new(),
                deliveries: Vec::new(),
            }
        }

        pub fn active_count(&self) -> usize {
            self.active.len()
        }

        pub fn start_transfer(&mut self, at: SimTime, bytes: u64, demand_bps: f64, tag: u64) {
            self.run_completions(at);
            self.settle_to(at);
            self.active.push(Transfer {
                tag,
                remaining: bytes as f64,
                demand_bps,
                rate_bps: 0.0,
                finish: SimTime::MAX,
            });
            self.recompute_rates();
        }

        pub fn take_deliveries(&mut self) -> Vec<LinkDelivery> {
            std::mem::take(&mut self.deliveries)
        }

        pub fn peek_next_time(&self) -> Option<SimTime> {
            self.active.iter().map(|t| t.finish).min()
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
                if t.rate_bps.is_infinite() {
                    t.remaining = 0.0;
                } else {
                    t.remaining = (t.remaining - t.rate_bps * dt).max(0.0);
                }
            }
            self.now = to;
        }

        fn recompute_rates(&mut self) {
            if self.active.is_empty() {
                return;
            }
            let demands: Vec<f64> = self.active.iter().map(|t| t.demand_bps).collect();
            let rates = max_min_rates(self.capacity_bps, &demands);
            for (t, rate) in self.active.iter_mut().zip(rates) {
                t.rate_bps = rate;
                t.finish = if t.remaining <= 0.0 || rate.is_infinite() {
                    self.now
                } else {
                    let ns = (t.remaining / rate * 1e9).ceil();
                    SimTime::from_nanos(self.now.as_nanos().saturating_add(ns as u64))
                };
            }
        }

        fn run_completions(&mut self, limit: SimTime) {
            loop {
                let Some(next) = self.active.iter().map(|t| t.finish).min() else {
                    return;
                };
                if next > limit {
                    return;
                }
                self.settle_to(next);
                let mut done: Vec<u64> =
                    self.active.iter().filter(|t| t.finish == next).map(|t| t.tag).collect();
                done.sort_unstable();
                self.active.retain(|t| t.finish != next);
                for tag in done {
                    self.deliveries.push(LinkDelivery { tag, at: next });
                }
                self.recompute_rates();
            }
        }
    }
}

/// One call on a link.
#[derive(Debug, Clone, Copy)]
enum Op {
    Start { at: u64, bytes: u64, demand: f64, tag: u64 },
    Advance(u64),
}

/// Drives the fast link and the reference through `ops`, asserting after
/// every call that both report the same next instant and deliveries.
/// Returns the deliveries and the peak active count.
fn differential(capacity: f64, ops: &[Op]) -> (Vec<LinkDelivery>, usize) {
    let mut fast = FairShareLink::new(capacity).expect("positive capacity");
    fast.init();
    let mut slow = reference::ReferenceLink::new(capacity);
    let mut delivered = Vec::new();
    let mut peak = 0;
    let mut check = |fast: &mut FairShareLink, slow: &mut reference::ReferenceLink, step: usize| {
        assert_eq!(fast.peek_next_time(), slow.peek_next_time(), "next instant, call {step}");
        assert_eq!(fast.active_count(), slow.active_count(), "active count, call {step}");
        let got = fast.take_deliveries();
        assert_eq!(got, slow.take_deliveries(), "deliveries, call {step}");
        delivered.extend(got);
    };
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Start { at, bytes, demand, tag } => {
                let at = SimTime::from_nanos(at);
                fast.start_transfer(at, bytes, demand, tag);
                slow.start_transfer(at, bytes, demand, tag);
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
    check(&mut fast, &mut slow, ops.len());
    assert!(fast.is_idle(), "the drained link is idle");
    (delivered, peak)
}

/// A start feed: `n` transfers whose gaps, sizes and demands come from
/// the closures, with bursts of `burst` simultaneous starts. Tags rise
/// with the start instant, the order both links agree on.
fn feed(
    seed: u64,
    n: usize,
    burst: u64,
    mut gap_ns: impl FnMut(&mut SimRng, u64) -> u64,
    mut bytes: impl FnMut(&mut SimRng) -> u64,
    mut demand: impl FnMut(&mut SimRng) -> f64,
) -> Vec<Op> {
    let mut rng = SimRng::seed_from(seed);
    let mut at = 1_000;
    (0..n as u64)
        .map(|tag| {
            if tag % burst == 0 {
                at += gap_ns(&mut rng, at);
            }
            Op::Start { at, bytes: bytes(&mut rng), demand: demand(&mut rng), tag }
        })
        .collect()
}

/// Inserts an `advance_to` every `step_ns` of start time, so the links
/// are settled between events without replanning.
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
    out
}

#[test]
fn fast_link_matches_reference_on_shared_infinite_demand() {
    // Bursts of up to 12 simultaneous starts keep many equal-demand ties
    // in the water-fill at once.
    for (seed, burst) in [(1, 1), (2, 5), (3, 12)] {
        let ops = feed(
            seed,
            600,
            burst,
            |r, _| r.range(0, 4_000_000),
            |r| r.range(1, 200_000),
            |_| f64::INFINITY,
        );
        let (done, _) = differential(40.0 * MIB as f64, &ops);
        assert_eq!(done.len(), 600);
    }
}

#[test]
fn fast_link_matches_reference_on_shared_finite_demand() {
    // One demand for all, low enough that light load is demand-bound and
    // heavy load is capacity-bound.
    let capacity = 40.0 * MIB as f64;
    let ops =
        feed(4, 600, 3, |r, _| r.range(0, 3_000_000), |r| r.range(1, 300_000), |_| capacity / 5.0);
    assert_eq!(differential(capacity, &ops).0.len(), 600);
}

#[test]
fn fast_link_matches_reference_on_mixed_demands() {
    let capacity = 40.0 * MIB as f64;
    let demands = [capacity / 3.0, capacity / 7.0, f64::INFINITY, capacity, 12_345.0];
    let ops = feed(
        5,
        600,
        4,
        |r, _| r.range(0, 3_000_000),
        |r| r.range(1, 300_000),
        |r| demands[r.below(demands.len() as u64) as usize],
    );
    assert_eq!(differential(capacity, &ops).0.len(), 600);
}

#[test]
fn fast_link_matches_reference_on_zero_byte_transfers() {
    // Every third transfer is empty and completes at its own start.
    for demand in [f64::INFINITY, 3.0 * MIB as f64] {
        let ops = feed(
            6,
            400,
            4,
            |r, _| r.range(0, 2_000_000),
            |r| if r.below(3) == 0 { 0 } else { r.range(1, 100_000) },
            |_| demand,
        );
        assert_eq!(differential(20.0 * MIB as f64, &ops).0.len(), 400);
    }
}

#[test]
fn fast_link_matches_reference_on_infinite_capacity() {
    let demands = [f64::INFINITY, 5.0 * MIB as f64, 0.5 * MIB as f64];
    let ops = feed(
        7,
        300,
        3,
        |r, _| r.range(0, 1_000_000),
        |r| r.range(0, 100_000),
        |r| demands[r.below(demands.len() as u64) as usize],
    );
    assert_eq!(differential(f64::INFINITY, &ops).0.len(), 300);
}

#[test]
fn fast_link_matches_reference_under_chunked_advance() {
    let capacity = 30.0 * MIB as f64;
    for (demand, step_ns) in [(f64::INFINITY, 700_000), (capacity / 4.0, 3_000_000)] {
        let ops =
            feed(8, 400, 2, |r, _| r.range(0, 3_000_000), |r| r.range(1, 200_000), |_| demand);
        let mut chunked_ops = chunked(&ops, step_ns);
        // Past the last start, keep advancing in chunks while transfers
        // drain.
        let Some(&Op::Start { at: last, .. }) = ops.last() else { unreachable!() };
        chunked_ops.extend((1..4_000).map(|i| Op::Advance(last + i * step_ns)));
        let (one_shot, _) = differential(capacity, &ops);
        let (stepped, _) = differential(capacity, &chunked_ops);
        assert_eq!(one_shot, stepped, "chunked advance changed a delivery");
    }
}

#[test]
fn fast_link_matches_reference_across_rate_table_evictions() {
    // The arrival rate swings far above and below the link's capacity, so
    // the active count climbs from zero past 100 and back several times:
    // the uniform-demand rate tables are filled, hit, and evicted.
    let capacity = 20.0 * MIB as f64;
    for demand in [f64::INFINITY, capacity / 50.0] {
        let ops = feed(
            9,
            3_000,
            1,
            |r, at| {
                let phase = (at as f64 / 1e9 * std::f64::consts::TAU / 2.0).sin();
                // 160 transfers/s fill the link; swing between 40 and 280.
                r.exponential(1e9 / (160.0 + 120.0 * phase)) as u64
            },
            |_| 128 * 1024,
            |_| demand,
        );
        let (done, peak) = differential(capacity, &ops);
        assert_eq!(done.len(), 3_000);
        assert!(peak > 100, "peak active {peak} too low to evict rate tables");
    }
}

#[test]
fn fast_link_matches_reference_on_a_long_saturated_replay() {
    // 20k 128 KiB transfers at 250 MiB/s (2000 a second fill the link)
    // with the arrival rate swinging 40% either side of it, peaking above
    // 1000 active.
    let ops = feed(
        10,
        20_000,
        1,
        |r, at| {
            let phase = (at as f64 / 1e9 * std::f64::consts::TAU / 4.0).sin();
            r.exponential(1e9 / (2000.0 + 800.0 * phase)) as u64
        },
        |_| 128 * 1024,
        |_| f64::INFINITY,
    );
    let (done, peak) = differential(250.0 * MIB as f64, &ops);
    assert_eq!(done.len(), 20_000);
    assert!(peak > 1000, "peak active {peak} is not above 1000");
}
