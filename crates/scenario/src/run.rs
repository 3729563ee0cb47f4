//! Scenario execution: replaying a [`ScenarioTrace`] against live storage
//! nodes, with optional adaptive autotuning at epoch boundaries.
//!
//! Each node runs independently on the [`driver`](seqio_node::driver):
//! the trace's ops for that node are its timeline (injections and
//! retirements through the same `StreamHandoff` surface mid-run
//! migration uses) and the adaptive tuner is its epoch controller, so the
//! outcome is bit-identical at every `SEQIO_JOBS` value.
//!
//! With an empty trace and an [inert](crate::AdaptiveConfig::inert) tuner
//! the runner degenerates to stepping the template experiment in epochs,
//! which `NodeSim` guarantees is bit-identical to [`Experiment::run`] —
//! the retune-neutrality property the test suite pins to the golden
//! figure hash.

use seqio_node::driver::{self, NodeController, NodeDrive, NodeOp};
use seqio_node::sweep::{derive_seed, resolve_jobs};
use seqio_node::{Experiment, Frontend, NodeSim, RunResult};
use seqio_simcore::{EpochController, SeqioError, SimTime};
use seqio_workload::Pattern;

use crate::adaptive::{AdaptiveConfig, AdaptiveTuner, RetuneAction};
use crate::trace::ScenarioTrace;

/// One applied retune, for reporting and fingerprinting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetuneEvent {
    /// Node the retune was applied to.
    pub node: usize,
    /// Epoch boundary it fired at.
    pub at: SimTime,
    /// The knob values applied.
    pub action: RetuneAction,
}

/// A scenario execution: a per-node experiment template, a trace of
/// stream operations, and an optional adaptive tuner.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// Per-node storage template (shape, frontend, costs, warmup,
    /// duration, faults). Its static stream layout still applies; a
    /// template with zero static streams runs in open-session mode and
    /// the trace provides the whole population.
    pub template: Experiment,
    /// The operations to perform. `trace.nodes` sets the node count.
    pub trace: ScenarioTrace,
    /// Worker override (`None` = `SEQIO_JOBS`, then available
    /// parallelism).
    pub jobs: Option<usize>,
    /// When set, node `k` runs with seed `derive_seed(base, k)`.
    pub base_seed: Option<u64>,
    /// Epoch-boundary adaptive tuning. Requires the stream-scheduler
    /// frontend. `None` skips epoch ticks entirely.
    pub adaptive: Option<AdaptiveConfig>,
}

/// What a [`ScenarioRun`] produced.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Per-node results, in node order.
    pub nodes: Vec<RunResult>,
    /// Every retune the adaptive tuner applied, in `(node, at)` order.
    pub retunes: Vec<RetuneEvent>,
}

impl ScenarioOutcome {
    /// Sum of per-node aggregate throughputs, MB/s.
    pub fn total_throughput_mbs(&self) -> f64 {
        self.nodes.iter().map(RunResult::total_throughput_mbs).sum()
    }

    /// FNV-1a digest of the outcome's observable state (delivered bytes,
    /// completion counts, event counts, per-stream bytes and rates, and
    /// every retune). Two outcomes with equal fingerprints ran
    /// bit-identically for all practical purposes; the determinism and
    /// record→replay tests compare these.
    pub fn fingerprint(&self) -> u64 {
        fn eat(h: &mut u64, v: u64) {
            for b in v.to_le_bytes() {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for r in &self.nodes {
            eat(&mut h, r.bytes_delivered);
            eat(&mut h, r.requests_completed);
            eat(&mut h, r.events_simulated);
            for &b in &r.per_stream_bytes {
                eat(&mut h, b);
            }
            for &m in &r.per_stream_mbs {
                eat(&mut h, m.to_bits());
            }
        }
        eat(&mut h, self.retunes.len() as u64);
        for e in &self.retunes {
            eat(&mut h, e.node as u64);
            eat(&mut h, e.at.as_nanos());
            eat(&mut h, e.action.dispatch_streams as u64);
            eat(&mut h, e.action.read_ahead_bytes);
            eat(&mut h, e.action.requests_per_residency);
            eat(&mut h, e.action.degraded_rotate_threshold.to_bits());
        }
        h
    }
}

impl ScenarioRun {
    /// A run of `trace` over `template` with default execution knobs.
    pub fn new(template: Experiment, trace: ScenarioTrace) -> ScenarioRun {
        ScenarioRun { template, trace, jobs: None, base_seed: None, adaptive: None }
    }

    /// Executes the scenario.
    ///
    /// # Errors
    ///
    /// Returns the first specification error (invalid trace, invalid
    /// template, an injected stream that does not fit the node, adaptive
    /// tuning on a non-scheduler frontend); a valid specification always
    /// runs to completion.
    pub fn run(&self) -> Result<ScenarioOutcome, SeqioError> {
        self.trace.validate()?;
        driver::check_nodes(self.trace.nodes)?;
        let mut template = self.template.clone();
        if template.total_streams() == 0 {
            template.open_sessions = true;
            template.requests_per_stream = None;
        }
        let server = match (&self.adaptive, &template.frontend) {
            (None, _) => None,
            (Some(_), Frontend::StreamScheduler(cfg)) => Some(cfg.clone()),
            (Some(_), _) => {
                return Err(SeqioError::Experiment(
                    "adaptive tuning requires the stream-scheduler frontend".into(),
                ));
            }
        };
        // Every injected stream must fit the node: its disk must exist and
        // a random stream's span must end on it. (A sequential stream that
        // runs into its disk's end finishes there.)
        template.validate()?;
        let (disks, disk_blocks) = (template.shape.total_disks(), template.shape.disk_blocks());
        for op in &self.trace.ops {
            let Some(s) = op.spec() else { continue };
            let reason = if s.disk >= disks {
                format!("names disk {} but nodes have {disks} disk(s)", s.disk)
            } else if matches!(s.pattern, Pattern::Random { span_blocks }
                if s.start.saturating_add(span_blocks) > disk_blocks)
            {
                format!("spans past its disk's end at block {disk_blocks}")
            } else {
                continue;
            };
            return Err(SeqioError::Experiment(format!(
                "stream {} on node {} {reason}",
                op.stream, op.node
            )));
        }
        let base = self.base_seed.unwrap_or(template.seed);
        // The adaptive tuner ticks every epoch inside the run horizon.
        let horizon = SimTime::ZERO + template.warmup + template.duration;

        let mut nodes = Vec::with_capacity(self.trace.nodes);
        for k in 0..self.trace.nodes {
            let mut spec = template.clone();
            if self.base_seed.is_some() {
                spec.seed = derive_seed(base, k);
            }
            // The trace is in canonical order, so each node's ops are too.
            let ops = self.trace.ops.iter().filter(move |op| op.node == k).map(|op| NodeOp {
                at: op.at,
                stream: op.stream,
                inject: op.spec(),
            });
            let mut node = NodeDrive::new(&spec, ops)?;
            if let (Some(cfg), Some(server)) = (&self.adaptive, &server) {
                let tuner =
                    NodeTuner { node: k, tuner: AdaptiveTuner::new(server, *cfg), log: vec![] };
                node.control(tuner, cfg.epoch, horizon);
            }
            nodes.push(node);
        }

        let mut outcome = ScenarioOutcome { nodes: Vec::new(), retunes: Vec::new() };
        for run in driver::run(nodes, resolve_jobs(self.jobs)) {
            outcome.nodes.push(run.result);
            outcome.retunes.extend(run.controller.into_iter().flat_map(|t| t.log));
        }
        Ok(outcome)
    }
}

/// The adaptive tuner as a node's controller: at each tick it reads the
/// node's health and applies the retune it asks for.
struct NodeTuner {
    node: usize,
    tuner: AdaptiveTuner,
    log: Vec<RetuneEvent>,
}

impl NodeController for NodeTuner {
    fn tick(&mut self, at: SimTime, sim: &mut NodeSim) {
        if let Some(action) = self.tuner.epoch(at, &sim.health(at)) {
            sim.retune(
                action.dispatch_streams,
                action.read_ahead_bytes,
                action.requests_per_residency,
                action.degraded_rotate_threshold,
            )
            .expect("adaptive actions maintain the memory invariant");
            self.log.push(RetuneEvent { node: self.node, at, action });
        }
    }
}
