//! Opt-in observability primitives: request-lifecycle phases, named
//! metric time series, and the sampler configuration that drives them.
//!
//! The layer follows the same discipline as fault injection: **strictly
//! opt-in and zero-perturbation**. With an [`ObsConfig`] left disabled
//! (the default) no component draws extra randomness, schedules extra
//! events, or changes any simulation output; enabling it only *records*
//! — phase timestamps into spans and periodic metric snapshots into a
//! columnar [`MetricSeries`] — without feeding anything back into the
//! models.
//!
//! # Examples
//!
//! ```
//! use seqio_simcore::{MetricsHub, ObsConfig, SimDuration, SimTime};
//!
//! let cfg = ObsConfig::new().with_metrics().sample_every(SimDuration::from_millis(5));
//! assert!(cfg.metrics && !cfg.spans);
//!
//! let mut hub = MetricsHub::new(cfg.sample_interval);
//! let depth = hub.gauge("disk0.queue_depth", "requests");
//! let served = hub.counter("node.requests_completed", "requests");
//! hub.set(depth, 3.0);
//! hub.add(served, 1.0);
//! hub.sample(SimTime::ZERO + SimDuration::from_millis(5));
//! let series = hub.series();
//! assert_eq!(series.len(), 1);
//! assert_eq!(series.column(depth)[0], 3.0);
//! ```

use std::fmt::Write as _;

use crate::time::{SimDuration, SimTime};

/// The lifecycle phases a client request can pass through, in order.
///
/// Not every request visits every phase: a direct-path request is never
/// classified or staged, a memory hit never touches a disk. Missing
/// phases contribute zero duration, so per-phase durations always sum to
/// the end-to-end latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanPhase {
    /// The client handed the request to the network.
    Enqueued,
    /// The scheduler matched the request to a (new or existing) stream.
    Classified,
    /// The owning stream held a dispatch-set slot for this request.
    DispatchAdmitted,
    /// The disk I/O covering this request was issued.
    DiskIssued,
    /// The covering disk I/O completed at the device.
    DiskComplete,
    /// The requested data was resident in the buffered set.
    Staged,
    /// The response reached the client.
    Delivered,
    /// The response finished crossing the client-facing network link
    /// (stamped by the front-end tier; storage-node runs leave it unset).
    NetworkDelivered,
}

impl SpanPhase {
    /// Every phase, in lifecycle order.
    pub const ALL: [SpanPhase; 8] = [
        SpanPhase::Enqueued,
        SpanPhase::Classified,
        SpanPhase::DispatchAdmitted,
        SpanPhase::DiskIssued,
        SpanPhase::DiskComplete,
        SpanPhase::Staged,
        SpanPhase::Delivered,
        SpanPhase::NetworkDelivered,
    ];

    /// Number of phases.
    pub const COUNT: usize = Self::ALL.len();

    /// Position in lifecycle order (0 = [`Enqueued`](SpanPhase::Enqueued)).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name, used in CSV/JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            SpanPhase::Enqueued => "enqueued",
            SpanPhase::Classified => "classified",
            SpanPhase::DispatchAdmitted => "dispatch_admitted",
            SpanPhase::DiskIssued => "disk_issued",
            SpanPhase::DiskComplete => "disk_complete",
            SpanPhase::Staged => "staged",
            SpanPhase::Delivered => "delivered",
            SpanPhase::NetworkDelivered => "network_delivered",
        }
    }
}

/// What the observability layer should record during a run.
///
/// The default configuration records nothing; both facets are opt-in and
/// guaranteed not to perturb the simulation (no extra RNG draws, no
/// change to event arithmetic, `events_simulated` excludes sampler
/// ticks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record one lifecycle span per completed client request inside the
    /// measured window.
    pub spans: bool,
    /// Snapshot registered metrics every `sample_interval` into a
    /// columnar time series.
    pub metrics: bool,
    /// Sampling period for the metric time series.
    pub sample_interval: SimDuration,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl ObsConfig {
    /// Everything disabled, with the default 10 ms sampling period.
    pub fn new() -> Self {
        ObsConfig { spans: false, metrics: false, sample_interval: SimDuration::from_millis(10) }
    }

    /// Both spans and metric sampling enabled.
    pub fn all() -> Self {
        ObsConfig::new().with_spans().with_metrics()
    }

    /// Enables lifecycle-span recording.
    pub fn with_spans(mut self) -> Self {
        self.spans = true;
        self
    }

    /// Enables periodic metric sampling.
    pub fn with_metrics(mut self) -> Self {
        self.metrics = true;
        self
    }

    /// Sets the metric sampling period.
    pub fn sample_every(mut self, interval: SimDuration) -> Self {
        self.sample_interval = interval;
        self
    }

    /// `true` when any facet is switched on.
    pub fn is_enabled(&self) -> bool {
        self.spans || self.metrics
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Rejects metric sampling with a zero period (the sampler event
    /// would never advance the clock).
    pub fn validate(&self) -> Result<(), crate::SeqioError> {
        if self.metrics && self.sample_interval == SimDuration::ZERO {
            return Err(crate::SeqioError::Experiment(
                "observability: metric sample interval must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Whether a metric accumulates or reflects an instantaneous level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically accumulating value (events, bytes, retries).
    Counter,
    /// Instantaneous level (queue depth, staged bytes, busy fraction).
    Gauge,
}

/// Handle to a registered metric (index into the hub's columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(usize);

#[derive(Debug, Clone)]
struct MetricDef {
    name: String,
    unit: &'static str,
    kind: MetricKind,
}

/// Registry of named counters and gauges plus the columnar time series
/// their periodic snapshots accumulate into.
///
/// Components register metrics up front, update current values as they
/// see fit (`set`/`add` are plain float stores — no locking, no
/// allocation after registration), and a periodic sampler calls
/// [`sample`](MetricsHub::sample) to append one row. Sampling never
/// perturbs the simulation: it reads model state, it does not change it.
#[derive(Debug, Clone)]
pub struct MetricsHub {
    defs: Vec<MetricDef>,
    values: Vec<f64>,
    series: MetricSeries,
}

impl MetricsHub {
    /// Creates an empty hub whose series advertises `interval` as its
    /// sampling period.
    pub fn new(interval: SimDuration) -> Self {
        MetricsHub {
            defs: Vec::new(),
            values: Vec::new(),
            series: MetricSeries {
                interval,
                names: Vec::new(),
                units: Vec::new(),
                times: Vec::new(),
                columns: Vec::new(),
            },
        }
    }

    /// Registers a counter; returns its handle.
    pub fn counter(&mut self, name: &str, unit: &'static str) -> MetricId {
        self.register(name, unit, MetricKind::Counter)
    }

    /// Registers a gauge; returns its handle.
    pub fn gauge(&mut self, name: &str, unit: &'static str) -> MetricId {
        self.register(name, unit, MetricKind::Gauge)
    }

    fn register(&mut self, name: &str, unit: &'static str, kind: MetricKind) -> MetricId {
        assert!(self.series.times.is_empty(), "register metrics before the first sample");
        let id = MetricId(self.defs.len());
        self.defs.push(MetricDef { name: name.to_string(), unit, kind });
        self.values.push(0.0);
        self.series.names.push(name.to_string());
        self.series.units.push(unit.to_string());
        self.series.columns.push(Vec::new());
        id
    }

    /// Number of registered metrics.
    pub fn metric_count(&self) -> usize {
        self.defs.len()
    }

    /// Name of a registered metric.
    pub fn name(&self, id: MetricId) -> &str {
        &self.defs[id.0].name
    }

    /// Unit of a registered metric.
    pub fn unit(&self, id: MetricId) -> &'static str {
        self.defs[id.0].unit
    }

    /// Kind of a registered metric.
    pub fn kind(&self, id: MetricId) -> MetricKind {
        self.defs[id.0].kind
    }

    /// Overwrites the current value (gauges).
    pub fn set(&mut self, id: MetricId, value: f64) {
        self.values[id.0] = value;
    }

    /// Adds to the current value (counters).
    pub fn add(&mut self, id: MetricId, delta: f64) {
        self.values[id.0] += delta;
    }

    /// Current (not-yet-sampled) value.
    pub fn value(&self, id: MetricId) -> f64 {
        self.values[id.0]
    }

    /// Appends one row: every metric's current value at `now`.
    pub fn sample(&mut self, now: SimTime) {
        self.series.times.push(now);
        for (col, &v) in self.series.columns.iter_mut().zip(&self.values) {
            col.push(v);
        }
    }

    /// The accumulated time series.
    pub fn series(&self) -> &MetricSeries {
        &self.series
    }

    /// Consumes the hub, keeping only the series.
    pub fn into_series(self) -> MetricSeries {
        self.series
    }
}

/// A columnar metric time series: one shared time axis, one column per
/// registered metric, in registration order.
#[derive(Debug, Clone)]
pub struct MetricSeries {
    interval: SimDuration,
    names: Vec<String>,
    units: Vec<String>,
    times: Vec<SimTime>,
    columns: Vec<Vec<f64>>,
}

impl MetricSeries {
    /// The sampling period the series was recorded with.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Number of samples (rows).
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when no sample was ever taken.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The shared time axis.
    pub fn times(&self) -> &[SimTime] {
        &self.times
    }

    /// Metric names, in column order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// One metric's samples.
    pub fn column(&self, id: MetricId) -> &[f64] {
        &self.columns[id.0]
    }

    /// Looks a column up by its registered name.
    pub fn column_by_name(&self, name: &str) -> Option<&[f64]> {
        self.names.iter().position(|n| n == name).map(|i| self.columns[i].as_slice())
    }

    /// Mean of one column (0 when empty).
    pub fn column_mean(&self, name: &str) -> f64 {
        match self.column_by_name(name) {
            Some(c) if !c.is_empty() => c.iter().sum::<f64>() / c.len() as f64,
            _ => 0.0,
        }
    }

    /// Maximum of one column (0 when empty).
    pub fn column_max(&self, name: &str) -> f64 {
        self.column_by_name(name).map(|c| c.iter().copied().fold(0.0f64, f64::max)).unwrap_or(0.0)
    }

    /// Merges several independently recorded series onto one shared
    /// clock, prefixing every column name with its source label
    /// (`"node0." + name`).
    ///
    /// All series share the simulation's time origin (`SimTime::ZERO`)
    /// and must have been sampled with the same interval, so rows align
    /// by index. The merged time axis is the longest input axis; series
    /// that stopped sampling earlier (their node drained sooner) are
    /// padded by holding their last sampled value, or `0.0` when they
    /// never sampled at all. Inputs paired with an empty label keep
    /// their column names unprefixed.
    ///
    /// # Errors
    ///
    /// Rejects inputs whose sampling intervals disagree — rows would not
    /// represent the same instants and the merge would be meaningless.
    pub fn merge_labeled(
        parts: &[(&str, &MetricSeries)],
    ) -> Result<MetricSeries, crate::SeqioError> {
        let interval =
            parts.iter().map(|(_, s)| s.interval).max().unwrap_or(SimDuration::from_millis(10));
        if parts.iter().any(|(_, s)| s.interval != interval) {
            return Err(crate::SeqioError::Experiment(
                "metric series merge: sampling intervals differ across inputs".into(),
            ));
        }
        let times = parts
            .iter()
            .map(|(_, s)| &s.times)
            .max_by_key(|t| t.len())
            .cloned()
            .unwrap_or_default();
        let rows = times.len();
        let mut merged = MetricSeries {
            interval,
            names: Vec::new(),
            units: Vec::new(),
            times,
            columns: Vec::new(),
        };
        for (label, series) in parts {
            for ((name, unit), col) in series.names.iter().zip(&series.units).zip(&series.columns) {
                merged.names.push(if label.is_empty() {
                    name.clone()
                } else {
                    format!("{label}.{name}")
                });
                merged.units.push(unit.clone());
                let mut out = col.clone();
                let pad = out.last().copied().unwrap_or(0.0);
                out.resize(rows, pad);
                merged.columns.push(out);
            }
        }
        Ok(merged)
    }

    /// Renders the series as CSV: a `time_ms` column followed by one
    /// column per metric (header row carries `name [unit]`). Header
    /// fields containing a comma, quote or newline — possible once
    /// [`merge_labeled`](Self::merge_labeled) prefixes arbitrary node
    /// labels — are RFC 4180-quoted, so any CSV reader sees one column
    /// per metric.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_ms");
        for (n, u) in self.names.iter().zip(&self.units) {
            let _ = write!(out, ",{}", csv_field(&format!("{n} [{u}]")));
        }
        out.push('\n');
        for (row, &t) in self.times.iter().enumerate() {
            let _ = write!(out, "{:.3}", t.as_millis_f64());
            for col in &self.columns {
                let _ = write!(out, ",{}", fmt_value(col[row]));
            }
            out.push('\n');
        }
        out
    }
}

/// Quotes one CSV field per RFC 4180 when it contains a delimiter, quote
/// or line break; passes clean fields through untouched.
fn csv_field(f: &str) -> String {
    if f.contains(',') || f.contains('"') || f.contains('\n') || f.contains('\r') {
        format!("\"{}\"", f.replace('"', "\"\""))
    } else {
        f.to_string()
    }
}

/// Formats a sample compactly: integers without a fraction, everything
/// else with six significant decimals.
fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_are_ordered_and_named() {
        assert_eq!(SpanPhase::COUNT, 8);
        for (i, p) in SpanPhase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert!(!p.name().is_empty());
        }
        assert_eq!(SpanPhase::Enqueued.index(), 0);
        assert_eq!(SpanPhase::Delivered.index(), 6);
        assert_eq!(SpanPhase::NetworkDelivered.index(), 7);
        assert_eq!(SpanPhase::NetworkDelivered.name(), "network_delivered");
    }

    #[test]
    fn config_defaults_disabled() {
        let c = ObsConfig::default();
        assert!(!c.is_enabled());
        assert!(c.validate().is_ok());
        let c = ObsConfig::all();
        assert!(c.spans && c.metrics && c.is_enabled());
        let bad = ObsConfig::new().with_metrics().sample_every(SimDuration::ZERO);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn hub_samples_registered_metrics() {
        let mut hub = MetricsHub::new(SimDuration::from_millis(1));
        let g = hub.gauge("depth", "requests");
        let c = hub.counter("served", "requests");
        assert_eq!(hub.metric_count(), 2);
        assert_eq!(hub.name(g), "depth");
        assert_eq!(hub.kind(c), MetricKind::Counter);
        hub.set(g, 4.0);
        hub.add(c, 2.0);
        hub.add(c, 1.0);
        hub.sample(SimTime::from_nanos(1_000_000));
        hub.set(g, 1.5);
        hub.sample(SimTime::from_nanos(2_000_000));
        let s = hub.series();
        assert_eq!(s.len(), 2);
        assert_eq!(s.column(g), &[4.0, 1.5]);
        assert_eq!(s.column(c), &[3.0, 3.0]);
        assert_eq!(s.column_by_name("served").unwrap(), &[3.0, 3.0]);
        assert_eq!(s.column_by_name("absent"), None);
        assert!((s.column_mean("depth") - 2.75).abs() < 1e-12);
        assert_eq!(s.column_max("depth"), 4.0);
    }

    #[test]
    fn csv_has_time_axis_and_units() {
        let mut hub = MetricsHub::new(SimDuration::from_millis(1));
        let g = hub.gauge("staged", "bytes");
        hub.set(g, 1024.0);
        hub.sample(SimTime::from_nanos(5_000_000));
        hub.set(g, 0.25);
        hub.sample(SimTime::from_nanos(10_000_000));
        let csv = hub.series().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "time_ms,staged [bytes]");
        assert_eq!(lines.next().unwrap(), "5.000,1024");
        assert_eq!(lines.next().unwrap(), "10.000,0.250000");
    }

    #[test]
    fn merge_aligns_clocks_and_pads_short_tails() {
        let mut a = MetricsHub::new(SimDuration::from_millis(1));
        let ga = a.gauge("depth", "requests");
        a.set(ga, 2.0);
        a.sample(SimTime::from_nanos(1_000_000));
        a.set(ga, 5.0);
        a.sample(SimTime::from_nanos(2_000_000));
        let mut b = MetricsHub::new(SimDuration::from_millis(1));
        let gb = b.gauge("depth", "requests");
        b.set(gb, 7.0);
        b.sample(SimTime::from_nanos(1_000_000));
        let merged =
            MetricSeries::merge_labeled(&[("node0", a.series()), ("node1", b.series())]).unwrap();
        assert_eq!(merged.len(), 2);
        assert_eq!(merged.names(), &["node0.depth".to_string(), "node1.depth".to_string()]);
        assert_eq!(merged.column_by_name("node0.depth").unwrap(), &[2.0, 5.0]);
        // node1 drained after one sample: its last value is held.
        assert_eq!(merged.column_by_name("node1.depth").unwrap(), &[7.0, 7.0]);
        assert_eq!(merged.interval(), SimDuration::from_millis(1));
        // Empty labels keep names unprefixed; empty input set merges to empty.
        let plain = MetricSeries::merge_labeled(&[("", a.series())]).unwrap();
        assert_eq!(plain.names(), &["depth".to_string()]);
        assert!(MetricSeries::merge_labeled(&[]).unwrap().is_empty());
        // Interval mismatch is an error, not a silent misalignment.
        let c = MetricsHub::new(SimDuration::from_millis(2));
        assert!(MetricSeries::merge_labeled(&[("a", a.series()), ("c", c.series())]).is_err());
    }

    #[test]
    fn csv_header_quotes_awkward_column_names() {
        // Labels carrying the CSV delimiter and quotes — the shapes a
        // `merge_labeled` node prefix can produce from user-named nodes.
        let mut hub = MetricsHub::new(SimDuration::from_millis(2));
        let a = hub.gauge("rack 0, shelf 1.depth", "requests");
        let b = hub.counter("say \"hi\"", "events");
        hub.set(a, 1.5);
        hub.add(b, 2.0);
        hub.sample(SimTime::from_nanos(2_000_000));
        let csv = hub.series().to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "time_ms,\"rack 0, shelf 1.depth [requests]\",\"say \"\"hi\"\" [events]\""
        );
        assert_eq!(lines.next().unwrap(), "2.000,1.500000,2");
        // A clean series is written without any quoting.
        let mut plain = MetricsHub::new(SimDuration::from_millis(1));
        let g = plain.gauge("depth", "requests");
        plain.set(g, 2.0);
        plain.sample(SimTime::from_nanos(1_000_000));
        assert_eq!(plain.series().to_csv(), "time_ms,depth [requests]\n1.000,2\n");
    }

    #[test]
    #[should_panic(expected = "register metrics before the first sample")]
    fn late_registration_panics() {
        let mut hub = MetricsHub::new(SimDuration::from_millis(1));
        hub.sample(SimTime::ZERO);
        let _ = hub.gauge("late", "x");
    }
}
