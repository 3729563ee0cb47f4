//! SLO burn-rate monitoring over session completions.
//!
//! An SLO of the form "at most a fraction `target` of sessions may
//! exceed `threshold`" defines an error budget; the **burn rate** is how
//! fast a window of traffic consumes it: `(bad/total) / target`. A burn
//! of 1 spends the budget exactly on schedule, 5 spends it five times
//! too fast. Following the SRE multi-window discipline, an alert needs
//! *both* a fast window (reacts quickly, noisy alone) and a slow window
//! (confirms the problem is sustained) over the factor — pages at
//! [`BurnRateConfig::page_factor`], warnings at
//! [`BurnRateConfig::warn_factor`].
//!
//! [`monitor`] replays a run's completion record on a fixed tick grid —
//! the same sample-interval discipline the
//! [`MetricsHub`](seqio_simcore::MetricsHub) uses — and returns the
//! per-tick burn series plus deterministic [`AlertEvent`]s at every
//! state transition. Everything is a pure function of the completions:
//! replaying a run reproduces its alerts bit-for-bit.

use seqio_cluster::SessionSlo;
use seqio_simcore::{MetricsHub, SeqioError, SimDuration, SimTime};

use crate::correlate::SessionTrace;

/// An SLO over session latency plus the alerting windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnRateConfig {
    /// Latency threshold: a session above it violates the SLO.
    pub threshold: SimDuration,
    /// Allowed violation fraction (the error budget), in `(0, 1)`.
    pub target: f64,
    /// Fast confirmation window.
    pub fast_window: SimDuration,
    /// Slow confirmation window.
    pub slow_window: SimDuration,
    /// Both-window burn at or above this pages.
    pub page_factor: f64,
    /// Both-window burn at or above this warns.
    pub warn_factor: f64,
}

impl BurnRateConfig {
    /// An SLO with the standard window pair: 5 s fast / 60 s slow,
    /// page at 5x burn, warn at 1x.
    pub fn new(threshold: SimDuration, target: f64) -> Self {
        BurnRateConfig {
            threshold,
            target,
            fast_window: SimDuration::from_secs(5),
            slow_window: SimDuration::from_secs(60),
            page_factor: 5.0,
            warn_factor: 1.0,
        }
    }

    /// Derives an SLO from a measured baseline: threshold at the
    /// baseline's p99 with a 1% error budget, so a run matching the
    /// baseline burns at exactly 1x.
    pub fn from_slo(slo: &SessionSlo) -> Self {
        BurnRateConfig::new(SimDuration::from_millis_f64(slo.p99_ms), 0.01)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), SeqioError> {
        if !(self.target > 0.0 && self.target < 1.0) {
            return Err(SeqioError::Experiment(format!(
                "SLO target must be in (0, 1), got {}",
                self.target
            )));
        }
        if self.fast_window == SimDuration::ZERO || self.slow_window < self.fast_window {
            return Err(SeqioError::Experiment(
                "burn-rate windows must satisfy 0 < fast <= slow".into(),
            ));
        }
        if !(self.page_factor >= self.warn_factor && self.warn_factor > 0.0) {
            return Err(SeqioError::Experiment(
                "burn-rate factors must satisfy 0 < warn <= page".into(),
            ));
        }
        Ok(())
    }
}

/// Alerting state at one tick, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertSeverity {
    /// Both windows burn at or above the warn factor.
    Warn,
    /// Both windows burn at or above the page factor.
    Page,
}

/// One deterministic alert transition.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// The tick at which the state changed.
    pub at: SimTime,
    /// The new state; `None` clears a previous alert.
    pub severity: Option<AlertSeverity>,
    /// Fast-window burn at the tick.
    pub fast_burn: f64,
    /// Slow-window burn at the tick.
    pub slow_burn: f64,
}

/// The full monitoring record of one run.
#[derive(Debug, Clone)]
pub struct BurnRateReport {
    /// The SLO and windows monitored against.
    pub config: BurnRateConfig,
    /// Per-tick series: `slo.fast_burn`, `slo.slow_burn`, `slo.alert`
    /// (0 = clear, 1 = warn, 2 = page), `slo.completed` and
    /// `slo.violations` (cumulative counts).
    pub series: seqio_simcore::MetricSeries,
    /// Every state transition, in tick order.
    pub alerts: Vec<AlertEvent>,
    /// Sessions observed.
    pub completed: u64,
    /// Sessions over the threshold.
    pub violations: u64,
    /// The worst fast-window burn seen at any tick.
    pub peak_fast_burn: f64,
}

impl BurnRateReport {
    /// The highest severity reached, if any alert fired.
    pub fn peak_severity(&self) -> Option<AlertSeverity> {
        self.alerts.iter().filter_map(|a| a.severity).max()
    }
}

/// Monitors correlated traces: completed sessions enter the record at
/// their completion instant with their end-to-end latency.
///
/// # Errors
///
/// Returns the first configuration error.
pub fn monitor(
    traces: &[SessionTrace],
    cfg: &BurnRateConfig,
    tick: SimDuration,
) -> Result<BurnRateReport, SeqioError> {
    let mut samples: Vec<(SimTime, SimDuration)> =
        traces.iter().filter_map(|t| t.completed().zip(t.latency())).collect();
    samples.sort_unstable();
    monitor_samples(&samples, cfg, tick)
}

/// Ticks any input may span, on top of [`TICKS_PER_SAMPLE`] per sample.
const BASE_TICKS: u64 = 1 << 14;

/// Ticks each completed session adds to the grid an input may span.
const TICKS_PER_SAMPLE: u64 = 64;

/// [`monitor`] over raw `(completion instant, latency)` samples sorted
/// by instant.
///
/// The tick grid runs from zero to the last completion, so its length is
/// set by the stamp values, not by the number of samples. It may hold at
/// most 16,384 ticks plus 64 per sample (at 100 ms ticks: 27 minutes,
/// plus 6.4 s per session), which bounds the work and the series by the
/// size of the input.
///
/// # Errors
///
/// Returns the first configuration error; `tick` must be positive, and
/// the last completion must lie within the tick grid the input allows.
pub fn monitor_samples(
    samples: &[(SimTime, SimDuration)],
    cfg: &BurnRateConfig,
    tick: SimDuration,
) -> Result<BurnRateReport, SeqioError> {
    cfg.validate()?;
    if tick == SimDuration::ZERO {
        return Err(SeqioError::Experiment("burn-rate tick must be positive".into()));
    }
    debug_assert!(samples.windows(2).all(|w| w[0].0 <= w[1].0), "samples sorted by instant");
    let end = samples.last().map(|(t, _)| *t).unwrap_or(SimTime::ZERO);
    let ticks = end.as_nanos().div_ceil(tick.as_nanos()).max(1);
    let limit = BASE_TICKS + TICKS_PER_SAMPLE * samples.len() as u64;
    if ticks > limit || ticks.checked_mul(tick.as_nanos()).is_none() {
        return Err(SeqioError::Experiment(format!(
            "burn-rate monitoring: the last completion at {end} needs {ticks} ticks of {tick}, \
             more than the {limit} that {} completed session(s) allow",
            samples.len()
        )));
    }

    let mut hub = MetricsHub::new(tick);
    let fast_id = hub.gauge("slo.fast_burn", "x");
    let slow_id = hub.gauge("slo.slow_burn", "x");
    let alert_id = hub.gauge("slo.alert", "level");
    let done_id = hub.gauge("slo.completed", "sessions");
    let bad_id = hub.gauge("slo.violations", "sessions");

    let mut alerts = Vec::new();
    let mut state: Option<AlertSeverity> = None;
    let mut peak_fast = 0.0f64;
    // Cumulative prefix counts let each window query run in O(1) via two
    // cursors per window over the time-sorted samples.
    let mut fast_lo = 0usize;
    let mut slow_lo = 0usize;
    let mut hi = 0usize;
    let mut bad_prefix: Vec<u64> = Vec::with_capacity(samples.len() + 1);
    bad_prefix.push(0);
    for (_, l) in samples {
        bad_prefix.push(bad_prefix.last().unwrap() + u64::from(*l > cfg.threshold));
    }

    let mut now = SimTime::ZERO;
    loop {
        now += tick;
        while hi < samples.len() && samples[hi].0 <= now {
            hi += 1;
        }
        let fast_from =
            now.saturating_duration_since(SimTime::ZERO).saturating_sub(cfg.fast_window);
        let slow_from =
            now.saturating_duration_since(SimTime::ZERO).saturating_sub(cfg.slow_window);
        let fast_start = SimTime::ZERO + fast_from;
        let slow_start = SimTime::ZERO + slow_from;
        while fast_lo < hi && samples[fast_lo].0 <= fast_start {
            fast_lo += 1;
        }
        while slow_lo < hi && samples[slow_lo].0 <= slow_start {
            slow_lo += 1;
        }
        let burn = |lo: usize| {
            let total = (hi - lo) as f64;
            if total == 0.0 {
                0.0
            } else {
                ((bad_prefix[hi] - bad_prefix[lo]) as f64 / total) / cfg.target
            }
        };
        let (fast_burn, slow_burn) = (burn(fast_lo), burn(slow_lo));
        peak_fast = peak_fast.max(fast_burn);
        let both = fast_burn.min(slow_burn);
        let next = if both >= cfg.page_factor {
            Some(AlertSeverity::Page)
        } else if both >= cfg.warn_factor {
            Some(AlertSeverity::Warn)
        } else {
            None
        };
        if next != state {
            alerts.push(AlertEvent { at: now, severity: next, fast_burn, slow_burn });
            state = next;
        }
        hub.set(fast_id, fast_burn);
        hub.set(slow_id, slow_burn);
        hub.set(
            alert_id,
            match state {
                None => 0.0,
                Some(AlertSeverity::Warn) => 1.0,
                Some(AlertSeverity::Page) => 2.0,
            },
        );
        hub.set(done_id, hi as f64);
        hub.set(bad_id, bad_prefix[hi] as f64);
        hub.sample(now);
        if now >= end {
            break;
        }
    }

    Ok(BurnRateReport {
        config: *cfg,
        series: hub.into_series(),
        alerts,
        completed: samples.len() as u64,
        violations: *bad_prefix.last().unwrap(),
        peak_fast_burn: peak_fast,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn at(v: u64) -> SimTime {
        SimTime::ZERO + ms(v)
    }

    /// `per_sec` completions each second for `secs` seconds, a fraction
    /// `bad` of them over the threshold.
    fn load(start_s: u64, secs: u64, per_sec: u64, bad_every: u64) -> Vec<(SimTime, SimDuration)> {
        let mut out = Vec::new();
        for s in 0..secs {
            for k in 0..per_sec {
                let t = at((start_s + s) * 1000 + k * 1000 / per_sec);
                let l = if bad_every > 0 && k % bad_every == 0 { ms(500) } else { ms(10) };
                out.push((t, l));
            }
        }
        out
    }

    fn cfg() -> BurnRateConfig {
        BurnRateConfig {
            threshold: ms(100),
            target: 0.01,
            fast_window: SimDuration::from_secs(5),
            slow_window: SimDuration::from_secs(30),
            page_factor: 5.0,
            warn_factor: 1.0,
        }
    }

    #[test]
    fn healthy_traffic_never_alerts() {
        let r = monitor_samples(&load(0, 60, 50, 0), &cfg(), ms(500)).unwrap();
        assert_eq!(r.violations, 0);
        assert!(r.alerts.is_empty());
        assert_eq!(r.peak_severity(), None);
        assert_eq!(r.peak_fast_burn, 0.0);
        assert_eq!(r.series.column_max("slo.alert"), 0.0);
        assert_eq!(r.completed, 60 * 50);
    }

    #[test]
    fn a_sustained_incident_pages_and_clears() {
        // 60 s healthy, then 60 s with one session in five violating
        // (20% bad = 20x burn at a 1% budget), then healthy again.
        let mut samples = load(0, 60, 50, 0);
        samples.extend(load(60, 60, 50, 5));
        samples.extend(load(120, 60, 50, 0));
        let r = monitor_samples(&samples, &cfg(), ms(500)).unwrap();
        assert!(r.violations > 0);
        assert_eq!(r.peak_severity(), Some(AlertSeverity::Page));
        // The page fires only after BOTH windows confirm — i.e. inside
        // the incident, not at its first bad tick, and never before 60 s.
        let first_page = r.alerts.iter().find(|a| a.severity == Some(AlertSeverity::Page)).unwrap();
        assert!(first_page.at > at(60_000), "paged before the incident began");
        assert!(first_page.at < at(125_000), "paged only after the incident ended");
        // The alert clears once the slow window drains.
        assert_eq!(r.alerts.last().unwrap().severity, None);
        assert!(r.series.column_max("slo.fast_burn") >= 5.0);
    }

    #[test]
    fn short_blips_warn_at_most() {
        // A 2 s spike inside otherwise healthy traffic: the fast window
        // sees it, the 30 s slow window dilutes it below the page factor.
        let mut samples = load(0, 40, 50, 0);
        samples.extend(load(40, 2, 50, 2));
        samples.extend(load(42, 40, 50, 0));
        let r = monitor_samples(&samples, &cfg(), ms(500)).unwrap();
        assert!(r.peak_fast_burn >= 5.0, "the fast window must see the spike");
        assert_ne!(r.peak_severity(), Some(AlertSeverity::Page), "slow window must gate the page");
    }

    #[test]
    fn the_report_is_deterministic_and_total() {
        let samples = load(0, 20, 30, 7);
        let a = monitor_samples(&samples, &cfg(), ms(250)).unwrap();
        let b = monitor_samples(&samples, &cfg(), ms(250)).unwrap();
        assert_eq!(a.alerts, b.alerts);
        assert_eq!(a.series.to_csv(), b.series.to_csv());
        // Empty input: one tick, no alerts.
        let empty = monitor_samples(&[], &cfg(), ms(250)).unwrap();
        assert_eq!(empty.completed, 0);
        assert!(empty.alerts.is_empty());
        // Invalid configs are rejected up front.
        assert!(monitor_samples(&[], &BurnRateConfig::new(ms(1), 0.0), ms(1)).is_err());
        assert!(monitor_samples(&[], &cfg(), SimDuration::ZERO).is_err());
        let mut bad = cfg();
        bad.slow_window = ms(1);
        assert!(monitor_samples(&[], &bad, ms(1)).is_err());
    }

    #[test]
    fn the_tick_grid_is_bounded_by_the_input() {
        let one = |at_ns: u64| vec![(SimTime::from_nanos(at_ns), ms(1))];
        // One session allows 16,384 + 64 ticks, however late it lands.
        let last = (BASE_TICKS + TICKS_PER_SAMPLE) * 100_000_000;
        let r = monitor_samples(&one(last), &cfg(), ms(100)).unwrap();
        assert_eq!(r.series.len() as u64, BASE_TICKS + TICKS_PER_SAMPLE);
        let err = monitor_samples(&one(last + 1), &cfg(), ms(100)).unwrap_err().to_string();
        assert!(err.contains("ticks"), "{err}");
        for at_ns in [10_000_000_000_000_000, 9_200_000_000_000_000_000, u64::MAX] {
            assert!(monitor_samples(&one(at_ns), &cfg(), ms(100)).is_err());
        }
        // A tick so long the grid would step past the end of the clock.
        assert!(
            monitor_samples(&one(u64::MAX - 1), &cfg(), ms(1) * (u64::MAX / 2_000_000)).is_err()
        );
        // More sessions buy a proportionally longer grid.
        let many: Vec<_> =
            (0..1_000).map(|i| (SimTime::from_nanos(i * 6_000_000_000), ms(1))).collect();
        assert!(monitor_samples(&many, &cfg(), ms(100)).is_ok());
    }

    #[test]
    fn from_slo_matches_the_baseline_p99() {
        let lats: Vec<SimDuration> = (1..=100).map(ms).collect();
        let slo = SessionSlo::from_latencies(100, lats).unwrap();
        let cfg = BurnRateConfig::from_slo(&slo);
        assert_eq!(cfg.threshold, ms(99));
        assert_eq!(cfg.target, 0.01);
        assert!(cfg.validate().is_ok());
    }
}
