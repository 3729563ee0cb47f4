//! What every workload shares: its simulated outputs, the traced-run span
//! recorder, the output digest, and the per-layer figures read off
//! finished node results.

use std::collections::BTreeMap;
use std::time::Instant;

use seqio_cluster::{ClusterResult, MigrationRecord, SessionSlo};
use seqio_node::{Experiment, NodeSim, RunResult};
use seqio_simcore::SimDuration;

/// The simulated outputs of one run. Deterministic at a fixed seed: every
/// run of a seed, traced or not, must reproduce them bit for bit.
#[derive(Debug, Clone, Default)]
pub struct Sim {
    /// FNV-1a digest over the workload's simulated results.
    pub digest: u64,
    /// Kernel events simulated.
    pub events: u64,
    /// Client sessions the run served (see each workload for its unit).
    pub sessions: u64,
    /// Aggregate delivered throughput, summed over the workload's runs.
    pub mbs: f64,
    /// Median session latency, simulated milliseconds.
    pub p50_ms: f64,
    /// 99.9th-percentile session latency, simulated milliseconds.
    pub p999_ms: f64,
    /// Latency samples behind the two percentiles.
    pub latency_samples: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Sim {
    /// Fills the latency fields from one sample per session.
    pub fn set_latencies(&mut self, latencies: Vec<SimDuration>) -> Result<(), String> {
        self.latency_samples = latencies.len() as u64;
        let slo = SessionSlo::from_latencies(self.latency_samples, latencies)
            .ok_or("no session produced a latency sample")?;
        self.p50_ms = slo.p50_ms;
        self.p999_ms = slo.p999_ms;
        Ok(())
    }
}

/// One untraced run: its simulated outputs plus what the traced re-drive
/// of the same seed needs from it.
#[derive(Debug, Clone)]
pub struct Run {
    /// Simulated outputs.
    pub sim: Sim,
    /// Host-side layer figures only the untraced entry point can give
    /// (the sweep pool's CPU time and efficiency).
    pub notes: Vec<(&'static str, f64)>,
    /// Migrations the cluster performed, for the independent re-drive.
    pub migrations: Vec<MigrationRecord>,
}

impl Run {
    pub fn new(sim: Sim) -> Run {
        Run { sim, notes: Vec::new(), migrations: Vec::new() }
    }
}

/// A benchmark workload, built from its seed by the set-up.
pub trait Workload {
    /// Runs the workload once through the program's own entry point and
    /// checks its outputs.
    fn run(&self) -> Result<Run, String>;

    /// Re-drives the same workload through the layers' public functions,
    /// recording layer spans and counters into `tr`. `reference` is an
    /// untraced run of the same seed that took `reference_wall` seconds.
    fn traced(&self, tr: &mut Trace, reference: &Run, reference_wall: f64) -> Result<Sim, String>;

    /// One-off checks that need more than a single run's outputs.
    fn verify(&self, _first: &Run) -> Result<(), String> {
        Ok(())
    }
}

/// Layer spans (host seconds) and counters of one traced run.
#[derive(Debug, Default)]
pub struct Trace {
    spans: BTreeMap<&'static str, f64>,
    values: BTreeMap<String, f64>,
}

impl Trace {
    /// Times `f` as part of layer span `name`. Spans must not nest: their
    /// sum is the traced run's covered time.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add_span(name, t0.elapsed().as_secs_f64());
        out
    }

    /// Adds `secs` measured elsewhere to layer span `name`.
    pub fn add_span(&mut self, name: &'static str, secs: f64) {
        *self.spans.entry(name).or_default() += secs;
    }

    /// Adds to counter `name`.
    pub fn add(&mut self, name: impl Into<String>, v: f64) {
        *self.values.entry(name.into()).or_default() += v;
    }

    /// Sets counter or ratio `name`.
    pub fn set(&mut self, name: impl Into<String>, v: f64) {
        self.values.insert(name.into(), v);
    }

    /// Host seconds covered by layer spans.
    pub fn span_total(&self) -> f64 {
        self.spans.values().sum()
    }

    /// Host seconds recorded under span `name`.
    pub fn span(&self, name: &str) -> f64 {
        self.spans.get(name).copied().unwrap_or(0.0)
    }

    /// Every span and counter by metric name.
    pub fn into_values(self) -> BTreeMap<String, f64> {
        let mut out = self.values;
        for (k, v) in self.spans {
            out.insert(k.to_string(), v);
        }
        out
    }
}

/// Median of `v` (the mean of the middle pair for even lengths).
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn eat_f64(&mut self, v: f64) {
        self.eat(v.to_bits());
    }

    /// Everything a node run reports about the simulated system.
    pub fn node(&mut self, r: &RunResult) {
        self.eat(r.bytes_delivered);
        self.eat(r.requests_completed);
        self.eat(r.events_simulated);
        self.eat(r.window.as_nanos());
        for &b in &r.per_stream_bytes {
            self.eat(b);
        }
        for &m in &r.per_stream_mbs {
            self.eat_f64(m);
        }
        for t in &r.stream_done_at {
            self.eat(t.map_or(u64::MAX, |t| t.as_nanos()));
        }
        for v in [&r.disk_ops, &r.disk_seeks, &r.disk_timeouts] {
            for &x in v {
                self.eat(x);
            }
        }
        self.eat(r.ctrl_bytes_from_disks);
        self.eat(r.ctrl_wasted_bytes);
    }

    /// A merged cluster result, its session SLO and its migrations.
    pub fn cluster(&mut self, r: &ClusterResult) {
        for n in &r.nodes {
            if let Some(res) = &n.result {
                self.node(res);
            }
        }
        for &m in &r.per_stream_mbs {
            self.eat_f64(m);
        }
        self.eat(r.window.as_nanos());
        self.eat(r.bytes_delivered);
        self.eat(r.requests_completed);
        self.eat(r.events_simulated);
        for m in &r.migrations {
            for v in [m.at.as_nanos(), m.stream as u64, m.from as u64, m.to as u64] {
                self.eat(v);
            }
        }
        if let Some(slo) = &r.slo {
            self.eat(slo.sessions);
            self.eat(slo.completed);
            for v in [slo.p50_ms, slo.p95_ms, slo.p99_ms, slo.p999_ms, slo.mean_ms, slo.max_ms] {
                self.eat_f64(v);
            }
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Builds and initialises one node sim under the `node.build_s` span.
pub fn build_node(tr: &mut Trace, spec: &Experiment) -> Result<NodeSim, String> {
    tr.time("node.build_s", || {
        let mut sim = NodeSim::new(spec)?;
        sim.init();
        Ok(sim)
    })
    .map_err(|e: seqio_simcore::SeqioError| e.to_string())
}

/// The kernel event classes the per-layer report splits time over.
const EVENT_CLASSES: [&str; 6] =
    ["arrive", "submit_ctrl", "ctrl_internal", "ctrl_done", "deliver", "gc"];

/// Records the simulated disk, controller and stream-scheduler counters
/// and the kernel profile of finished node runs. `warmup` is each run's
/// warm-up, which disk busy time also covers.
pub fn record_nodes<'a>(
    tr: &mut Trace,
    runs: impl IntoIterator<Item = (SimDuration, &'a RunResult)>,
) {
    let (mut ops, mut seeks, mut timeouts) = (0u64, 0u64, 0u64);
    let (mut busy, mut span) = (0.0f64, 0.0f64);
    let (mut from_disks, mut wasted, mut events) = (0u64, 0u64, 0u64);
    let (mut requests, mut hits) = (0u64, 0u64);
    for (warmup, r) in runs {
        ops += r.disk_ops.iter().sum::<u64>();
        seeks += r.disk_seeks.iter().sum::<u64>();
        timeouts += r.disk_timeouts.iter().sum::<u64>();
        busy += r.disk_busy.iter().map(|b| b.as_secs_f64()).sum::<f64>();
        span += r.disk_busy.len() as f64 * (warmup + r.window).as_secs_f64();
        from_disks += r.ctrl_bytes_from_disks;
        wasted += r.ctrl_wasted_bytes;
        events += r.events_simulated;
        if let Some(m) = &r.server_metrics {
            requests += m.client_requests;
            hits += m.memory_hits;
            for (name, v) in [
                ("core.client_requests", m.client_requests),
                ("core.streams_detected", m.streams_detected),
                ("core.admissions", m.admissions),
                ("core.fills_issued", m.fills_issued),
                ("core.issue_no_memory", m.issue_no_memory),
                ("core.streams_gced", m.streams_gced),
                ("core.degraded_rotations", m.degraded_rotations),
            ] {
                tr.add(name, v as f64);
            }
        }
        if let Some(p) = &r.prof {
            for c in p.classes.iter().filter(|c| EVENT_CLASSES.contains(&c.name)) {
                tr.add(format!("node.ev.{}.count", c.name), c.count as f64);
                tr.add(format!("node.ev.{}.s", c.name), c.wall_nanos as f64 / 1e9);
            }
            tr.add("simcore.calendar.pushes", p.queue.pushes as f64);
            tr.add("simcore.calendar.resizes", p.queue.resizes as f64);
        }
    }
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    tr.set("node.events", events as f64);
    tr.set("disk.ops", ops as f64);
    tr.set("disk.seeks_per_op", ratio(seeks as f64, ops as f64));
    tr.set("disk.busy_frac", ratio(busy, span));
    tr.set("disk.timeouts", timeouts as f64);
    tr.set("controller.bytes_from_disks", from_disks as f64);
    tr.set("controller.wasted_bytes", wasted as f64);
    tr.set(
        "controller.prefetch_useful_ratio",
        ratio(from_disks.saturating_sub(wasted) as f64, from_disks as f64),
    );
    tr.set("core.memory_hit_ratio", ratio(hits as f64, requests as f64));
    let advance = tr.span("node.advance_s");
    tr.set("node.ns_per_event", ratio(advance * 1e9, events as f64));
}
