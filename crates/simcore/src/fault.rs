//! Deterministic, seeded fault injection for the simulated storage stack.
//!
//! A [`FaultPlan`] schedules per-disk faults for one experiment run:
//!
//! * **straggler windows** — a service-time multiplier applied to every
//!   media operation of one disk over a virtual-time window (a slow or
//!   degraded spindle);
//! * **transient read errors** — each media read fails with a configured
//!   probability and must be retried by the controller;
//! * **bad regions** — LBA ranges whose accesses pay a fixed remap
//!   penalty (reallocated sectors living in a spare area).
//!
//! The plan itself is pure data: all randomness (the per-operation error
//! draw) comes from a [`SimRng`](crate::SimRng) forked deterministically
//! from the experiment seed by the disk model, so a fixed seed plus a
//! fixed plan reproduces a run bit for bit — including across parallel
//! sweep workers. An empty plan injects nothing and leaves the healthy
//! simulation byte-identical: models only consult fault state when it was
//! explicitly installed.
//!
//! # Examples
//!
//! ```
//! use seqio_simcore::{FaultPlan, SimDuration, SimTime};
//!
//! let plan = FaultPlan::new()
//!     .straggler(0, 4.0, SimDuration::from_secs(1), Some(SimDuration::from_secs(5)))
//!     .read_errors(0, 0.01);
//! plan.validate().unwrap();
//! let t = SimTime::ZERO + SimDuration::from_secs(2);
//! assert_eq!(plan.straggler_factor(0, t), 4.0);
//! assert_eq!(plan.straggler_factor(1, t), 1.0);
//! ```

use crate::error::SeqioError;
use crate::record::{parse_duration, ClauseFields};
use crate::time::{SimDuration, SimTime};

/// One straggler window: every media operation started by the disk while
/// the window is active has its positioning and transfer times multiplied
/// by `factor`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Straggler {
    /// Service-time multiplier, `>= 1.0`.
    pub factor: f64,
    /// Window start (virtual time; experiment runs start at `SimTime::ZERO`).
    pub from: SimTime,
    /// Window length (the end is exclusive); `None` keeps the disk slow
    /// for the whole run.
    pub duration: Option<SimDuration>,
}

impl Straggler {
    /// Whether the window is active at `t`.
    #[must_use]
    pub fn active_at(&self, t: SimTime) -> bool {
        t >= self.from && self.duration.is_none_or(|d| t.duration_since(self.from) < d)
    }
}

/// An LBA range whose media accesses pay a fixed remap penalty, modelling
/// sectors reallocated to a spare area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadRegion {
    /// First block of the region.
    pub start: u64,
    /// Length of the region in blocks.
    pub blocks: u64,
    /// Extra positioning time charged per media operation touching the
    /// region.
    pub penalty: SimDuration,
}

impl BadRegion {
    /// Whether a media operation covering `[lba, lba + blocks)` touches
    /// this region.
    #[must_use]
    pub fn overlaps(&self, lba: u64, blocks: u64) -> bool {
        lba < self.start + self.blocks && self.start < lba + blocks
    }
}

/// Bounded retry-with-backoff and per-request timeout policy applied by
/// the controllers when a disk reports a transient read error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of retries per request before the controller gives
    /// up and completes the request via the drive's internal recovery.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles on every further attempt.
    pub backoff: SimDuration,
    /// Per-request deadline: a request whose total service time exceeds
    /// this is counted as timed out (and no longer retried).
    /// `SimDuration::ZERO` disables the deadline.
    pub timeout: SimDuration,
}

impl RetryPolicy {
    /// The longest delay the controller waits before a retry: `backoff`
    /// doubled once per earlier attempt, the doubling capped at 20 (zero
    /// when the policy never retries). `None` when it does not fit on
    /// the simulated clock.
    #[must_use]
    pub fn max_delay(&self) -> Option<SimDuration> {
        if self.max_retries == 0 {
            return Some(SimDuration::ZERO);
        }
        let doublings = (self.max_retries - 1).min(20);
        self.backoff.as_nanos().checked_mul(1 << doublings).map(SimDuration::from_nanos)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff: SimDuration::from_micros(500),
            timeout: SimDuration::ZERO,
        }
    }
}

/// All faults scheduled for one disk.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DiskFaults {
    /// Straggler windows; when several are active the largest factor wins.
    pub stragglers: Vec<Straggler>,
    /// Probability that a media read fails transiently, in `[0, 1]`.
    pub read_error_rate: f64,
    /// Remapped LBA ranges.
    pub bad_regions: Vec<BadRegion>,
}

impl DiskFaults {
    /// The straggler multiplier in effect at `t` (`1.0` when healthy).
    #[must_use]
    pub fn straggler_factor(&self, t: SimTime) -> f64 {
        self.stragglers.iter().filter(|s| s.active_at(t)).fold(1.0, |acc, s| acc.max(s.factor))
    }

    /// The total remap penalty for a media operation covering
    /// `[lba, lba + blocks)` (`ZERO` when it touches no bad region).
    #[must_use]
    pub fn remap_penalty(&self, lba: u64, blocks: u64) -> SimDuration {
        self.bad_regions
            .iter()
            .filter(|r| r.overlaps(lba, blocks))
            .fold(SimDuration::ZERO, |acc, r| acc + r.penalty)
    }
}

/// A deterministic per-disk fault schedule for one experiment run.
///
/// Built with the chained [`straggler`](FaultPlan::straggler),
/// [`read_errors`](FaultPlan::read_errors),
/// [`bad_region`](FaultPlan::bad_region) and [`retry`](FaultPlan::retry)
/// methods, or parsed from the CLI spec grammar with
/// [`parse`](FaultPlan::parse). Disk indices are global (over all
/// controllers), matching the experiment's disk numbering.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    disks: Vec<(usize, DiskFaults)>,
    retry: Option<RetryPolicy>,
}

impl FaultPlan {
    /// An empty plan: injects nothing, changes nothing.
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan schedules no faults and overrides no policy.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.disks.is_empty() && self.retry.is_none()
    }

    /// Adds a straggler window for `disk`: media operations started in
    /// `[from, from + duration)` are slowed by `factor`; `None` keeps the
    /// disk slow for the rest of the run.
    #[must_use]
    pub fn straggler(
        mut self,
        disk: usize,
        factor: f64,
        from: SimDuration,
        duration: Option<SimDuration>,
    ) -> Self {
        let from = SimTime::ZERO + from;
        self.entry(disk).stragglers.push(Straggler { factor, from, duration });
        self
    }

    /// Sets the transient read-error probability for `disk`.
    #[must_use]
    pub fn read_errors(mut self, disk: usize, rate: f64) -> Self {
        self.entry(disk).read_error_rate = rate;
        self
    }

    /// Adds a remapped region of `blocks` blocks starting at `start` on
    /// `disk`, charging `penalty` per media operation touching it.
    #[must_use]
    pub fn bad_region(
        mut self,
        disk: usize,
        start: u64,
        blocks: u64,
        penalty: SimDuration,
    ) -> Self {
        self.entry(disk).bad_regions.push(BadRegion { start, blocks, penalty });
        self
    }

    /// Overrides the controllers' retry/timeout policy for this run.
    #[must_use]
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// The retry-policy override, if the plan carries one.
    #[must_use]
    pub fn retry_policy(&self) -> Option<RetryPolicy> {
        self.retry
    }

    /// The faults scheduled for `disk`, if any.
    #[must_use]
    pub fn disk(&self, disk: usize) -> Option<&DiskFaults> {
        self.disks.iter().find(|(d, _)| *d == disk).map(|(_, f)| f)
    }

    /// The highest disk index named by the plan, if any disk is named.
    #[must_use]
    pub fn max_disk(&self) -> Option<usize> {
        self.disks.iter().map(|(d, _)| *d).max()
    }

    /// The straggler multiplier in effect for `disk` at `t` (`1.0` for
    /// disks the plan does not name).
    #[must_use]
    pub fn straggler_factor(&self, disk: usize, t: SimTime) -> f64 {
        self.disk(disk).map_or(1.0, |f| f.straggler_factor(t))
    }

    /// The instants at which some disk's straggler factor may cross
    /// `threshold`: the start and the end of every window whose factor
    /// reaches it, unsorted. Between two consecutive instants, whether
    /// each disk's [`straggler_factor`](Self::straggler_factor) is at or
    /// above `threshold` does not change.
    pub fn threshold_crossings(&self, threshold: f64) -> impl Iterator<Item = SimTime> + '_ {
        self.disks
            .iter()
            .flat_map(|(_, f)| &f.stragglers)
            .filter(move |s| s.factor >= threshold)
            .flat_map(|s| [Some(s.from), s.duration.and_then(|d| s.from.checked_add(d))])
            .flatten()
    }

    /// Checks every scheduled fault for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint: straggler factors must be
    /// finite and `>= 1.0`, windows non-empty and ending on the simulated
    /// clock, error rates in `[0, 1]`, bad regions non-empty, and the
    /// longest retry delay ([`RetryPolicy::max_delay`]) on the clock.
    pub fn validate(&self) -> Result<(), SeqioError> {
        let fail = |reason: String| Err(SeqioError::Component { component: "faults", reason });
        for (disk, f) in &self.disks {
            for s in &f.stragglers {
                if !s.factor.is_finite() || s.factor < 1.0 {
                    return fail(format!("disk {disk}: straggler factor must be >= 1.0"));
                }
                if s.duration == Some(SimDuration::ZERO) {
                    return fail(format!("disk {disk}: straggler window is empty"));
                }
                if s.duration.is_some_and(|d| s.from.checked_add(d).is_none()) {
                    return fail(format!(
                        "disk {disk}: straggler window end (`from` + `for`) overflows the \
                         simulated clock"
                    ));
                }
            }
            if !(0.0..=1.0).contains(&f.read_error_rate) {
                return fail(format!("disk {disk}: read error rate must be in [0, 1]"));
            }
            for r in &f.bad_regions {
                if r.blocks == 0 {
                    return fail(format!("disk {disk}: bad region must cover at least one block"));
                }
            }
        }
        if let Some(r) = self.retry {
            if r.max_delay().is_none() {
                return fail(format!(
                    "retry: `backoff` {} doubled over `max` {} retries overflows the simulated \
                     clock",
                    r.backoff, r.max_retries
                ));
            }
        }
        Ok(())
    }

    /// Parses the CLI `--faults` spec grammar: `;`-separated clauses of
    /// `key=value` pairs, e.g.
    ///
    /// ```text
    /// straggler:disk=0,factor=4,from=1s,for=10s;errors:disk=0,rate=0.01;
    /// badregion:disk=1,start=4096,blocks=8192,penalty=5ms;
    /// retry:max=4,backoff=500us,timeout=250ms
    /// ```
    ///
    /// Durations accept `ns`/`us`/`ms`/`s` suffixes (bare numbers are
    /// seconds). `straggler` defaults `from` to `0s` and leaves the window
    /// open-ended when `for` is omitted. The parsed plan is validated.
    ///
    /// # Errors
    ///
    /// Returns a `faults` component error naming the malformed clause or
    /// the violated constraint.
    pub fn parse(spec: &str) -> Result<FaultPlan, SeqioError> {
        let fail = |reason: String| SeqioError::Component { component: "faults", reason };
        let mut plan = FaultPlan::new();
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let (kind, rest) = clause
                .split_once(':')
                .ok_or_else(|| fail(format!("clause `{clause}` is missing `kind:`")))?;
            let kind = kind.trim();
            let mut fields = ClauseFields::parse("faults", kind, rest).map_err(&fail)?;
            match kind {
                "straggler" => {
                    let disk = fields.usize_field("disk", "a disk index")?;
                    let factor = fields.float("factor")?;
                    let from = fields.duration_or("from", SimDuration::ZERO)?;
                    let dur = fields.optional_duration("for")?;
                    plan = plan.straggler(disk, factor, from, dur);
                }
                "errors" => {
                    let disk = fields.usize_field("disk", "a disk index")?;
                    let rate = fields.float("rate")?;
                    plan = plan.read_errors(disk, rate);
                }
                "badregion" => {
                    let disk = fields.usize_field("disk", "a disk index")?;
                    let start = fields.u64_field("start", "a block count")?;
                    let blocks = fields.u64_field("blocks", "a block count")?;
                    let penalty = fields.duration_or("penalty", SimDuration::from_millis(5))?;
                    plan = plan.bad_region(disk, start, blocks, penalty);
                }
                "retry" => {
                    let mut policy = RetryPolicy::default();
                    if let Some(m) = fields.take("max") {
                        policy.max_retries =
                            m.parse().map_err(|_| fail(format!("`max={m}` is not an integer")))?;
                    }
                    if let Some(b) = fields.take("backoff") {
                        policy.backoff = parse_duration(&b)
                            .map_err(|reason| fail(format!("`backoff={b}`: {reason}")))?;
                    }
                    if let Some(t) = fields.take("timeout") {
                        policy.timeout = parse_duration(&t)
                            .map_err(|reason| fail(format!("`timeout={t}`: {reason}")))?;
                    }
                    plan = plan.retry(policy);
                }
                other => return Err(fail(format!("unknown fault kind `{other}`"))),
            }
            fields.finish()?;
        }
        plan.validate()?;
        Ok(plan)
    }
}

impl FaultPlan {
    fn entry(&mut self, disk: usize) -> &mut DiskFaults {
        if let Some(i) = self.disks.iter().position(|(d, _)| *d == disk) {
            return &mut self.disks[i].1;
        }
        self.disks.push((disk, DiskFaults::default()));
        &mut self.disks.last_mut().expect("just pushed").1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert!(plan.disk(0).is_none());
        assert_eq!(plan.straggler_factor(0, at(1)), 1.0);
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn straggler_window_bounds() {
        let plan = FaultPlan::new().straggler(
            2,
            4.0,
            SimDuration::from_secs(1),
            Some(SimDuration::from_secs(2)),
        );
        assert_eq!(plan.straggler_factor(2, at(0)), 1.0);
        assert_eq!(plan.straggler_factor(2, at(1)), 4.0);
        assert_eq!(plan.straggler_factor(2, at(2)), 4.0);
        assert_eq!(plan.straggler_factor(2, at(3)), 1.0);
        assert_eq!(plan.straggler_factor(0, at(1)), 1.0);
        assert_eq!(plan.max_disk(), Some(2));
    }

    #[test]
    fn overlapping_windows_take_the_max_factor() {
        let plan = FaultPlan::new().straggler(0, 2.0, SimDuration::ZERO, None).straggler(
            0,
            8.0,
            SimDuration::from_secs(1),
            Some(SimDuration::from_secs(1)),
        );
        assert_eq!(plan.straggler_factor(0, at(0)), 2.0);
        assert_eq!(plan.straggler_factor(0, at(1)), 8.0);
        assert_eq!(plan.straggler_factor(0, at(3)), 2.0);
    }

    #[test]
    fn threshold_crossings_are_the_edges_of_windows_that_reach_it() {
        let plan = FaultPlan::new()
            .straggler(0, 1.5, SimDuration::ZERO, None)
            .straggler(0, 8.0, SimDuration::from_secs(1), Some(SimDuration::from_secs(2)))
            .straggler(3, 2.0, SimDuration::from_secs(5), None)
            .read_errors(1, 0.5);
        let crossings: Vec<SimTime> = plan.threshold_crossings(2.0).collect();
        assert_eq!(crossings, [at(1), at(3), at(5)]);
        // Between the edges, whether each disk sits at or above the
        // threshold stays put.
        let degraded =
            |t| -> Vec<bool> { (0..4).map(|d| plan.straggler_factor(d, at(t)) >= 2.0).collect() };
        for t in (1..8).filter(|&t| !crossings.contains(&at(t))) {
            assert_eq!(degraded(t), degraded(t - 1), "changed at {t} s");
        }
        assert_eq!(plan.threshold_crossings(16.0).count(), 0);
        assert_eq!(FaultPlan::new().threshold_crossings(2.0).count(), 0);
    }

    #[test]
    fn bad_region_overlap_and_penalty() {
        let plan = FaultPlan::new().bad_region(1, 100, 50, SimDuration::from_millis(5));
        let f = plan.disk(1).unwrap();
        assert_eq!(f.remap_penalty(0, 100), SimDuration::ZERO);
        assert_eq!(f.remap_penalty(140, 16), SimDuration::from_millis(5));
        assert_eq!(f.remap_penalty(149, 1), SimDuration::from_millis(5));
        assert_eq!(f.remap_penalty(150, 10), SimDuration::ZERO);
    }

    #[test]
    fn validate_rejects_bad_inputs() {
        let p = FaultPlan::new().straggler(0, 0.5, SimDuration::ZERO, None);
        assert!(p.validate().is_err());
        let p =
            FaultPlan::new().straggler(0, 2.0, SimDuration::from_secs(1), Some(SimDuration::ZERO));
        assert!(p.validate().is_err());
        let p = FaultPlan::new().read_errors(0, 1.5);
        assert!(p.validate().is_err());
        let p = FaultPlan::new().bad_region(0, 10, 0, SimDuration::from_millis(1));
        assert!(p.validate().is_err());
    }

    #[test]
    fn clock_overflows_are_rejected() {
        let p = FaultPlan::new().straggler(
            0,
            4.0,
            SimDuration::from_secs(1),
            Some(SimDuration::from_nanos(u64::MAX)),
        );
        let err = p.validate().unwrap_err().to_string();
        assert!(err.contains("`from` + `for`"), "{err}");
        // The whole clock from zero still fits.
        let p = FaultPlan::new().straggler(0, 4.0, SimDuration::ZERO, Some(SimDuration::MAX));
        assert!(p.validate().is_ok());

        let retry = |max_retries, backoff| {
            FaultPlan::new().retry(RetryPolicy { max_retries, backoff, ..RetryPolicy::default() })
        };
        let err = retry(3, SimDuration::MAX).validate().unwrap_err().to_string();
        assert!(err.contains("`backoff`"), "{err}");
        // One retry waits the backoff itself; none never waits.
        assert!(retry(1, SimDuration::MAX).validate().is_ok());
        assert!(retry(0, SimDuration::MAX).validate().is_ok());
        // The doubling stops at 2^20, however many retries are allowed.
        let p = retry(u32::MAX, SimDuration::from_nanos(u64::MAX >> 20));
        assert_eq!(
            p.retry_policy().unwrap().max_delay(),
            Some(SimDuration::from_nanos((u64::MAX >> 20) << 20))
        );
        assert!(retry(u32::MAX, SimDuration::from_nanos((u64::MAX >> 20) + 1)).validate().is_err());
    }

    #[test]
    fn parse_full_spec() {
        let plan = FaultPlan::parse(
            "straggler:disk=0,factor=4,from=1s,for=10s; errors:disk=0,rate=0.01;\
             badregion:disk=1,start=4096,blocks=8192,penalty=5ms;\
             retry:max=4,backoff=500us,timeout=250ms",
        )
        .unwrap();
        assert_eq!(plan.straggler_factor(0, at(5)), 4.0);
        assert_eq!(plan.straggler_factor(0, at(20)), 1.0);
        assert!((plan.disk(0).unwrap().read_error_rate - 0.01).abs() < 1e-12);
        assert_eq!(
            plan.disk(1).unwrap().bad_regions,
            vec![BadRegion { start: 4096, blocks: 8192, penalty: SimDuration::from_millis(5) }]
        );
        let retry = plan.retry_policy().unwrap();
        assert_eq!(retry.max_retries, 4);
        assert_eq!(retry.backoff, SimDuration::from_micros(500));
        assert_eq!(retry.timeout, SimDuration::from_millis(250));
    }

    #[test]
    fn parse_defaults_and_errors() {
        let plan = FaultPlan::parse("straggler:disk=3,factor=2").unwrap();
        assert_eq!(plan.straggler_factor(3, at(0)), 2.0);
        assert_eq!(plan.straggler_factor(3, at(1000)), 2.0);

        assert!(FaultPlan::parse("nonsense").is_err());
        assert!(FaultPlan::parse("wobble:disk=0").is_err());
        assert!(FaultPlan::parse("straggler:factor=2").is_err());
        assert!(FaultPlan::parse("straggler:disk=0,factor=2,bogus=1").is_err());
        assert!(FaultPlan::parse("errors:disk=0,rate=7").is_err());
        assert!(FaultPlan::parse("straggler:disk=0,factor=2,for=-1s").is_err());
    }

    #[test]
    fn parse_errors_name_the_offending_token() {
        // Each message pinpoints the bad token and its clause — never
        // just echoes the whole spec back.
        let msg = |spec: &str| FaultPlan::parse(spec).unwrap_err().to_string();

        let m = msg("straggler:disk=0,factor=4; errors:disk=zero,rate=0.01");
        assert!(m.contains("`disk=zero`"), "{m}");
        assert!(m.contains("`errors` clause"), "{m}");

        let m = msg("straggler:factor=4");
        assert!(m.contains("`straggler` clause"), "{m}");
        assert!(m.contains("`disk`"), "{m}");

        let m = msg("straggler:disk=0,factor=4,from=never");
        assert!(m.contains("`from=never`"), "{m}");

        let m = msg("straggler:disk=0,factor=4,wobble=1");
        assert!(m.contains("unknown field `wobble`"), "{m}");
        assert!(m.contains("`straggler` clause"), "{m}");

        let m = msg("retry:max=many");
        assert!(m.contains("`max=many`"), "{m}");

        let m = msg("retry:backoff=soon");
        assert!(m.contains("`backoff=soon`"), "{m}");

        let m = msg("badregion:disk=0,start=4096 blocks=8");
        assert!(m.contains("`start=4096 blocks=8`"), "{m}");
        assert!(m.contains("`badregion` clause"), "{m}");
    }

    #[test]
    fn parse_duration_suffixes() {
        assert_eq!(parse_duration("250ns").unwrap(), SimDuration::from_nanos(250));
        assert_eq!(parse_duration("500us").unwrap(), SimDuration::from_micros(500));
        assert_eq!(parse_duration("5ms").unwrap(), SimDuration::from_millis(5));
        assert_eq!(parse_duration("2s").unwrap(), SimDuration::from_secs(2));
        assert_eq!(parse_duration("0.5").unwrap(), SimDuration::from_millis(500));
        assert!(parse_duration("fast").is_err());
        // The CLI's inputs, minutes included.
        assert_eq!(parse_duration("8s").unwrap(), SimDuration::from_secs(8));
        assert_eq!(parse_duration("500ms").unwrap(), SimDuration::from_millis(500));
        assert_eq!(parse_duration("2m").unwrap(), SimDuration::from_secs(120));
        assert_eq!(parse_duration("90").unwrap(), SimDuration::from_secs(90));
        assert!(parse_duration("soon").is_err());
    }
}
