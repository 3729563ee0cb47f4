//! The client front-end driver: open-loop session execution over live
//! storage nodes, plus the shared-link overlay and SLO assembly.
//!
//! # Execution model
//!
//! The pre-generated session schedule (see
//! [`generate_sessions`](crate::generate_sessions)) is split per node into
//! a timeline for the [`driver`](seqio_node::driver): each node runs
//! *independently*, injecting every new session at its arrival through
//! the same `StreamHandoff` surface mid-run migration uses and retiring
//! sessions whose lifetime bound expires. Nodes never exchange state
//! mid-run, so results are bit-identical at every `SEQIO_JOBS` value.
//!
//! # The network overlay
//!
//! Data flows one way (storage → client), so the shared front-end link is
//! applied as a *lagged overlay*: after the nodes finish, every completed
//! session's response body enters a [`FairShareLink`] at its exact
//! storage-completion instant (`stream_done_at`), in deterministic
//! `(instant, session)` order. Every response demands the same rate, so
//! the link is processor sharing: each of the `n` responses in flight
//! moves at `min(session_demand_bps, capacity_bps / n)`, re-divided on
//! every start and finish, and each session's end-to-end latency is
//! `link delivery - arrival`. The overlay adds no events to
//! the storage simulation, so node results stay untouched by link
//! configuration.

use seqio_cluster::{ClusterResult, NodeHealth, NodeOutcome, SessionSlo};
use seqio_node::driver::{self, NodeDrive, NodeOp};
use seqio_node::sweep::{derive_seed, resolve_jobs};
use seqio_node::Experiment;
use seqio_simcore::{FairShareLink, SeqioError, SimDuration, SimTime, SpanPhase};
use seqio_workload::StreamSpec;

use crate::session::{generate_sessions, ArrivalConfig, SessionSpec};

/// [`derive_seed`] index reserved for the session-generation RNG stream.
/// Node seeds use indices `0..K`, so the session stream can never collide
/// with a node seed for any realistic cluster size; the storage-side
/// rotational and fault streams are derived from the *node* seeds and
/// stay independent as well (`seed_streams_stay_independent` in
/// `tests/arrival_stats.rs` guards this).
pub const SESSION_SEED_INDEX: usize = 0x5e55_10aa;

/// The shared client-facing network link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Link capacity in bytes per second, shared equally among all
    /// in-flight responses. `f64::INFINITY` (the default) removes the
    /// network constraint entirely.
    pub capacity_bps: f64,
    /// Per-session receive cap in bytes per second (a client NIC or
    /// player drain rate). `f64::INFINITY` takes whatever the link
    /// offers.
    pub session_demand_bps: f64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig { capacity_bps: f64::INFINITY, session_demand_bps: f64::INFINITY }
    }
}

impl LinkConfig {
    /// A gigabit-Ethernet-class link (125 MB/s), the paper's testbed NIC.
    pub fn gigabit() -> Self {
        LinkConfig { capacity_bps: 125.0 * 1024.0 * 1024.0, ..LinkConfig::default() }
    }

    /// `true` when neither the link nor the per-session demand constrains
    /// anything: every response is delivered the instant storage
    /// completes it, adding exactly zero latency.
    pub fn is_unconstrained(&self) -> bool {
        self.capacity_bps.is_infinite() && self.session_demand_bps.is_infinite()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Rejects NaN, zero or negative capacities and demands.
    pub fn validate(&self) -> Result<(), SeqioError> {
        if self.capacity_bps.is_nan() || self.capacity_bps <= 0.0 {
            return Err(SeqioError::Experiment(format!(
                "link capacity must be positive, got {}",
                self.capacity_bps
            )));
        }
        if self.session_demand_bps.is_nan() || self.session_demand_bps <= 0.0 {
            return Err(SeqioError::Experiment(format!(
                "per-session demand must be positive, got {}",
                self.session_demand_bps
            )));
        }
        Ok(())
    }
}

/// A complete client-driven experiment: a cluster of storage nodes, an
/// open-loop session population and the shared front-end link.
/// Build with [`ClientExperiment::builder`], run with
/// [`run`](ClientExperiment::run).
#[derive(Debug, Clone)]
pub struct ClientExperiment {
    /// Per-node storage template (shape, frontend, costs, clock,
    /// observability). Its stream layout is ignored: nodes start empty
    /// and adopt sessions mid-run.
    pub template: Experiment,
    /// Number of storage nodes.
    pub nodes: usize,
    /// When set, node `k` runs with seed `derive_seed(base, k)` and the
    /// session stream with `derive_seed(base, SESSION_SEED_INDEX)`.
    pub base_seed: Option<u64>,
    /// Worker override (`None` = `SEQIO_JOBS`, then available
    /// parallelism).
    pub jobs: Option<usize>,
    /// The open-loop session population.
    pub arrivals: ArrivalConfig,
    /// The shared client-facing link.
    pub link: LinkConfig,
}

impl ClientExperiment {
    /// Starts a builder: 1 node, [`ArrivalConfig::default`] sessions,
    /// unconstrained link, template defaults from
    /// [`Experiment::builder`].
    pub fn builder() -> ClientExperimentBuilder {
        ClientExperimentBuilder {
            spec: ClientExperiment {
                template: Experiment::builder().build(),
                nodes: 1,
                base_seed: None,
                jobs: None,
                arrivals: ArrivalConfig::default(),
                link: LinkConfig::default(),
            },
        }
    }

    /// The exact session schedule [`run`](Self::run) will execute: the
    /// same deterministic `generate_sessions` call the driver performs
    /// internally, exposed so post-hoc consumers — trace correlation in
    /// `seqio-telemetry`, the CLI's `--correlate-out` — can join global
    /// session ids back to arrival instants and titles without
    /// re-deriving seeds.
    ///
    /// # Errors
    ///
    /// Returns the first specification error, exactly as `run` would.
    pub fn session_schedule(&self) -> Result<Vec<SessionSpec>, SeqioError> {
        if self.nodes == 0 {
            return Err(SeqioError::Experiment("need at least one node".into()));
        }
        driver::check_nodes(self.nodes)?;
        let disks = self.template.shape.total_disks();
        let request_blocks = self.template.request_blocks();
        let usable_blocks =
            self.template.shape.disk.geometry.capacity_bytes / seqio_disk::BLOCK_SIZE;
        let horizon = self.template.warmup + self.template.duration;
        let base = self.base_seed.unwrap_or(self.template.seed);
        let session_seed = derive_seed(base, SESSION_SEED_INDEX);
        generate_sessions(
            &self.arrivals,
            self.nodes,
            disks,
            request_blocks,
            usable_blocks,
            horizon,
            session_seed,
        )
    }

    /// Runs the experiment: pre-generates the session schedule, runs each
    /// node's sessions as its timeline, merges the nodes and overlays the
    /// link. The merged [`ClusterResult`]'s [`slo`](ClusterResult::slo)
    /// field carries the end-to-end session percentiles (when any session
    /// completed).
    ///
    /// # Errors
    ///
    /// Returns the first specification error; a valid specification
    /// always runs to completion.
    pub fn run(&self) -> Result<ClusterResult, SeqioError> {
        driver::check_nodes(self.nodes)?;
        self.link.validate()?;
        if self.nodes == 0 {
            return Err(SeqioError::Experiment("need at least one node".into()));
        }
        if self.template.replay.is_some() {
            return Err(SeqioError::Experiment(
                "open-loop sessions are incompatible with trace replay".into(),
            ));
        }
        if self.template.faults.is_some() {
            return Err(SeqioError::Experiment(
                "the open-loop client front-end does not support fault plans yet".into(),
            ));
        }
        // Nodes start empty and adopt sessions mid-run; the template's
        // static stream layout does not apply.
        let mut template = self.template.clone();
        template.streams_per_disk = 0;
        template.stream_counts = None;
        template.open_sessions = true;
        template.requests_per_stream = None;

        let request_blocks = template.request_blocks();
        let base = self.base_seed.unwrap_or(template.seed);
        // None of the template fields cleared above feed session
        // generation, so the public schedule is exactly the one executed.
        let sessions = self.session_schedule()?;

        // Per-node timelines of `(instant, session, retire)`: injections
        // at arrival, optional retirements at the lifetime bound. Sorted
        // so the schedule is one fixed sequence per node; specs are built
        // from the schedule only as the node reaches them.
        let horizon_at = SimTime::ZERO + template.warmup + template.duration;
        let mut ops: Vec<Vec<(SimTime, usize, bool)>> = vec![Vec::new(); self.nodes];
        for s in &sessions {
            ops[s.node].push((s.arrival, s.id, false));
            if let Some(life) = self.arrivals.session_lifetime {
                let cut = s.arrival + life;
                if cut < horizon_at {
                    ops[s.node].push((cut, s.id, true));
                }
            }
        }
        let mut specs = Vec::with_capacity(self.nodes);
        let mut nodes = Vec::with_capacity(self.nodes);
        for (k, mut list) in ops.into_iter().enumerate() {
            list.sort_unstable();
            let mut spec = template.clone();
            if self.base_seed.is_some() {
                spec.seed = derive_seed(base, k);
            }
            let sessions = &sessions;
            let timeline = list.into_iter().map(move |(at, session, retire)| NodeOp {
                at,
                stream: session,
                inject: (!retire).then(|| {
                    let s = &sessions[session];
                    StreamSpec::sequential(s.disk, s.start, request_blocks, s.requests)
                }),
            });
            nodes.push(NodeDrive::<_, ()>::new(&spec, timeline)?);
            specs.push(spec);
        }
        let runs = driver::run(nodes, resolve_jobs(self.jobs));

        let mut assignment = vec![0usize; sessions.len()];
        for s in &sessions {
            assignment[s.id] = s.node;
        }
        let mut node_ids = Vec::with_capacity(self.nodes);
        let mut outcomes = Vec::with_capacity(self.nodes);
        // Sessions retired at their lifetime bound were abandoned.
        let mut skip = vec![false; sessions.len()];
        for (k, (run, spec)) in runs.into_iter().zip(specs).enumerate() {
            for &g in &run.retired {
                skip[g] = true;
            }
            outcomes.push(NodeOutcome {
                node: k,
                assigned_streams: run.injected.len(),
                health: NodeHealth::healthy(),
                spec: Some(spec),
                result: Some(run.result),
            });
            node_ids.push(run.injected);
        }
        let mut result = ClusterResult::merge(outcomes, assignment, node_ids, Vec::new());
        let arrivals: Vec<SimTime> = sessions.iter().map(|s| s.arrival).collect();
        let session_bytes: Vec<u64> =
            sessions.iter().map(|s| s.requests * template.request_bytes).collect();
        overlay_link(&self.link, &mut result, &arrivals, &session_bytes, &skip)?;
        Ok(result)
    }
}

/// Feeds every completed session's response through the shared link at
/// its exact storage-completion instant, fills in
/// [`ClusterResult::slo`], and — on a constrained link — stamps the
/// `network_delivered` phase onto each session's final span. With an
/// unconstrained link the network adds zero delay and spans are left as
/// the nodes recorded them. Sessions marked in `skip` were abandoned and
/// yield no latency sample.
fn overlay_link(
    link: &LinkConfig,
    result: &mut ClusterResult,
    arrivals: &[SimTime],
    session_bytes: &[u64],
    skip: &[bool],
) -> Result<(), SeqioError> {
    // Completed sessions in deterministic (instant, session) order.
    let mut done: Vec<(SimTime, usize)> = Vec::new();
    for outcome in &result.nodes {
        let Some(r) = &outcome.result else { continue };
        for (slot, &g) in result.node_stream_ids[outcome.node].iter().enumerate() {
            if skip[g] {
                continue;
            }
            if let Some(t) = r.stream_done_at.get(slot).copied().flatten() {
                done.push((t, g));
            }
        }
    }
    done.sort_unstable();

    let mut sim = FairShareLink::new(link.capacity_bps)?;
    for &(t, g) in &done {
        sim.start_transfer(t, session_bytes[g], link.session_demand_bps, g as u64);
    }
    seqio_simcore::SimComponent::advance_to(&mut sim, SimTime::MAX);
    let mut delivered: Vec<Option<SimTime>> = vec![None; arrivals.len()];
    for d in sim.take_deliveries() {
        delivered[d.tag as usize] = Some(d.at);
    }

    let latencies: Vec<SimDuration> = delivered
        .iter()
        .enumerate()
        .filter_map(|(g, t)| t.map(|t| t.duration_since(arrivals[g])))
        .collect();
    result.slo = SessionSlo::from_latencies(arrivals.len() as u64, latencies);

    if !link.is_unconstrained() {
        let ids = result.node_stream_ids.clone();
        for outcome in &mut result.nodes {
            let node = outcome.node;
            let Some(r) = outcome.result.as_mut() else { continue };
            let done_at = r.stream_done_at.clone();
            let Some(spans) = r.spans.as_mut() else { continue };
            for span in spans.iter_mut() {
                // The session's final request is the span whose delivery
                // instant equals the stream's completion instant.
                let Some(d) = done_at.get(span.stream).copied().flatten() else { continue };
                if span.stamp(SpanPhase::Delivered) != Some(d) {
                    continue;
                }
                if let Some(net) = ids[node].get(span.stream).and_then(|&g| delivered[g]) {
                    span.stamps[SpanPhase::NetworkDelivered.index()] = Some(net);
                }
            }
        }
    }
    Ok(())
}

/// Builder for [`ClientExperiment`].
#[derive(Debug, Clone)]
pub struct ClientExperimentBuilder {
    spec: ClientExperiment,
}

impl ClientExperimentBuilder {
    /// Replaces the per-node storage template.
    pub fn template(mut self, t: Experiment) -> Self {
        self.spec.template = t;
        self
    }

    /// Sets the node count.
    pub fn nodes(mut self, k: usize) -> Self {
        self.spec.nodes = k;
        self
    }

    /// Derives per-node and session seeds from a cluster base seed.
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.spec.base_seed = Some(seed);
        self
    }

    /// Overrides the worker count.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.spec.jobs = Some(jobs);
        self
    }

    /// Sets the open-loop session population.
    pub fn arrivals(mut self, cfg: ArrivalConfig) -> Self {
        self.spec.arrivals = cfg;
        self
    }

    /// Configures the shared client-facing link.
    pub fn link(mut self, link: LinkConfig) -> Self {
        self.spec.link = link;
        self
    }

    /// Finalizes the specification without running it.
    pub fn build(self) -> ClientExperiment {
        self.spec
    }

    /// Builds and runs in one step.
    ///
    /// # Errors
    ///
    /// Returns the first specification error.
    pub fn run(self) -> Result<ClusterResult, SeqioError> {
        self.spec.run()
    }
}
