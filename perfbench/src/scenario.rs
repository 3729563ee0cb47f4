//! `scenario-churn`: the `churn`, `video` and `mixed` generators on two
//! eight-disk nodes, each trace round-tripped through its text form and
//! run under the `auto` tune with the `AdaptiveTuner`.

use std::collections::HashMap;
use std::time::Instant;

use seqio_core::ServerConfig;
use seqio_disk::BLOCK_SIZE;
use seqio_node::sweep::derive_seed;
use seqio_node::{Experiment, Frontend, NodeShape, StreamHandoff};
use seqio_scenario::{
    generate, AdaptiveConfig, AdaptiveTuner, RetuneEvent, Scenario, ScenarioKind, ScenarioOutcome,
    ScenarioParams, ScenarioRun, ScenarioTrace, TraceOpKind,
};
use seqio_simcore::{EpochController, ProfConfig, SimDuration, SimTime};
use seqio_workload::Pattern;

use crate::layers::{build_node, record_nodes, Digest, Run, Sim, Trace, Workload};

const KINDS: [ScenarioKind; 3] = [ScenarioKind::Churn, ScenarioKind::Video, ScenarioKind::Mixed];
const NODES: usize = 2;
const STREAMS_PER_DISK: usize = 16;
const WARMUP: SimDuration = SimDuration::from_secs(1);
const WINDOW: SimDuration = SimDuration::from_secs(9);
const GIB: u64 = 1 << 30;
/// Independent trace instances per generator, each from its own seed
/// derived from the workload seed. Pooling them averages out how much a
/// single random trace shapes the outputs.
const INSTANCES: usize = 16;

pub struct ScenarioChurn {
    /// One run per generator, over its text-round-tripped trace.
    runs: Vec<ScenarioRun>,
    /// The generated traces before the round trip.
    originals: Vec<ScenarioTrace>,
    template: Experiment,
    seed: u64,
}

fn template() -> Experiment {
    Experiment::builder()
        .shape(NodeShape::eight_disk())
        .streams_per_disk(0)
        .open_sessions(true)
        .frontend(Frontend::StreamScheduler(ServerConfig::auto_tune(GIB, 8)))
        .warmup(WARMUP)
        .duration(WINDOW)
        .build()
}

/// Every (instance seed, scenario) pair of one workload seed.
fn generate_all(template: &Experiment, seed: u64) -> Result<Vec<(u64, Scenario)>, String> {
    let params = ScenarioParams::from_template(template, NODES, STREAMS_PER_DISK);
    let mut out = Vec::with_capacity(INSTANCES * KINDS.len());
    for j in 0..INSTANCES {
        let s = derive_seed(seed, j);
        for &k in &KINDS {
            let mut scenario = generate(k, &params, s).map_err(|e| e.to_string())?;
            end_at_disk_edge(&mut scenario.trace, params.usable_blocks);
            out.push((s, scenario));
        }
    }
    Ok(out)
}

/// The generators start unbounded sequential streams at random offsets,
/// and one that reaches the end of its disk panics the server ("request
/// past disk end"). Cap each sequential stream at the requests that fit
/// before the edge; a stream that never gets there runs unchanged.
fn end_at_disk_edge(trace: &mut ScenarioTrace, usable_blocks: u64) {
    for op in &mut trace.ops {
        if let TraceOpKind::Inject {
            start, blocks, requests, pattern: Pattern::Sequential, ..
        } = &mut op.kind
        {
            *requests = (*requests).min((usable_blocks - *start) / *blocks);
        }
    }
}

fn round_trip(trace: &ScenarioTrace) -> Result<ScenarioTrace, String> {
    ScenarioTrace::from_text(&trace.to_text()).map_err(|e| e.to_string())
}

impl ScenarioChurn {
    pub fn new(seed: u64, jobs: usize) -> Result<ScenarioChurn, String> {
        let template = template();
        let mut runs = Vec::new();
        let mut originals = Vec::new();
        for (s, scenario) in generate_all(&template, seed)? {
            let mut t = template.clone();
            t.faults = scenario.faults.clone();
            for k in 0..NODES {
                let mut spec = t.clone();
                spec.seed = derive_seed(s, k);
                seqio_node::NodeSim::new(&spec).map_err(|e| e.to_string())?.init();
            }
            let mut run = ScenarioRun::new(t, round_trip(&scenario.trace)?);
            run.base_seed = Some(s);
            run.jobs = Some(jobs);
            run.adaptive = Some(AdaptiveConfig::standard());
            runs.push(run);
            originals.push(scenario.trace);
        }
        Ok(ScenarioChurn { runs, originals, template, seed })
    }

    /// Simulated outputs of the scenario outcomes. Sessions are the
    /// trace's injected streams. Each stream that completed requests in
    /// the measured window gives one latency sample: its mean request
    /// interval there, the time it was alive over the requests it
    /// completed (one request outstanding, as in `paper-sweep`).
    fn outputs(&self, outcomes: &[ScenarioOutcome]) -> Result<Sim, String> {
        let mut digest = Digest::default();
        let mut sim = Sim::default();
        let mut latencies = Vec::new();
        let measured = SimTime::ZERO + WARMUP;
        let horizon = measured + WINDOW;
        for (run, out) in self.runs.iter().zip(outcomes) {
            digest.eat(out.fingerprint());
            for r in &out.nodes {
                digest.node(r);
                sim.events += r.events_simulated;
                let timeouts: u64 = r.disk_timeouts.iter().sum();
                sim.attempted += r.requests_completed + timeouts;
                sim.failed += timeouts;
            }
            sim.mbs += out.total_throughput_mbs();
            let retired: HashMap<(usize, usize), SimTime> = run
                .trace
                .ops
                .iter()
                .filter(|o| o.kind == TraceOpKind::Retire)
                .map(|o| ((o.node, o.stream), o.at))
                .collect();
            let mut slot = [0usize; NODES];
            for op in &run.trace.ops {
                let TraceOpKind::Inject { blocks, .. } = op.kind else { continue };
                sim.sessions += 1;
                let r = &out.nodes[op.node];
                let s = slot[op.node];
                slot[op.node] += 1;
                let requests = r.per_stream_bytes[s] / (blocks * BLOCK_SIZE);
                let start = op.at.max(measured);
                let end = [retired.get(&(op.node, op.stream)).copied(), r.stream_done_at[s]]
                    .into_iter()
                    .flatten()
                    .fold(horizon, SimTime::min);
                if requests > 0 && end > start {
                    let alive = end.duration_since(start).as_nanos();
                    latencies.push(SimDuration::from_nanos(alive / requests));
                }
            }
        }
        sim.digest = digest.finish();
        sim.set_latencies(latencies)?;
        Ok(sim)
    }
}

impl Workload for ScenarioChurn {
    fn run(&self) -> Result<Run, String> {
        let outcomes = self
            .runs
            .iter()
            .map(|r| r.run().map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Run::new(self.outputs(&outcomes)?))
    }

    /// The generated traces, run without their text round trip, must give
    /// the round-tripped runs' outputs, scenario fingerprints included.
    fn verify(&self, first: &Run) -> Result<(), String> {
        let outcomes = self
            .runs
            .iter()
            .zip(&self.originals)
            .map(|(run, original)| {
                let mut direct = run.clone();
                direct.trace = original.clone();
                direct.run().map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let digest = self.outputs(&outcomes)?.digest;
        if digest != first.sim.digest {
            return Err(format!(
                "the text round trip changed the outputs: digest {:016x} vs {digest:016x}",
                first.sim.digest
            ));
        }
        Ok(())
    }

    /// Re-drives each scenario by hand: generation, the text round trip,
    /// then one node at a time through the trace's injects and retires
    /// merged with the tuner's epoch ticks.
    fn traced(&self, tr: &mut Trace, _: &Run, _: f64) -> Result<Sim, String> {
        let scenarios =
            tr.time("scenario.generate_s", || generate_all(&self.template, self.seed))?;
        let traces = tr.time("scenario.text_roundtrip_s", || {
            scenarios.iter().map(|(_, s)| round_trip(&s.trace)).collect::<Result<Vec<_>, _>>()
        })?;
        let mut outcomes = Vec::new();
        let (mut advance, mut inject, mut retire, mut tune) = (0.0, 0.0, 0.0, 0.0);
        let (mut injects, mut retires) = (0u64, 0u64);
        for (run, trace) in self.runs.iter().zip(&traces) {
            tr.add("scenario.ops", trace.ops.len() as f64);
            let adaptive = run.adaptive.expect("scenario runs are tuned");
            let Frontend::StreamScheduler(server) = &run.template.frontend else {
                return Err("the scenario template must use the stream scheduler".into());
            };
            let horizon = SimTime::ZERO + run.template.warmup + run.template.duration;
            let mut ticks = Vec::new();
            let mut t = SimTime::ZERO + adaptive.epoch;
            while t < horizon {
                ticks.push(t);
                t += adaptive.epoch;
            }
            let mut nodes = Vec::with_capacity(NODES);
            let mut retunes = Vec::new();
            for k in 0..NODES {
                let mut spec = run.template.clone();
                spec.seed = derive_seed(run.base_seed.expect("scenario runs are seeded"), k);
                spec.prof = Some(ProfConfig::new());
                let mut sim = build_node(tr, &spec)?;
                let mut tuner = AdaptiveTuner::new(server, adaptive);
                let mut slot_of = HashMap::new();
                let ops: Vec<_> = trace.ops.iter().filter(|o| o.node == k).collect();
                let (mut oi, mut ti) = (0, 0);
                // An op at a tick's instant goes first, as in the runner.
                while oi < ops.len() || ti < ticks.len() {
                    let t0 = Instant::now();
                    if ops.get(oi).is_some_and(|o| ticks.get(ti).is_none_or(|&tt| o.at <= tt)) {
                        let op = ops[oi];
                        oi += 1;
                        sim.advance_to(op.at);
                        let t1 = Instant::now();
                        advance += (t1 - t0).as_secs_f64();
                        if let Some(stream) = op.spec() {
                            let handoff =
                                StreamHandoff::fresh(stream).map_err(|e| e.to_string())?;
                            slot_of.insert(op.stream, sim.inject_stream(op.at, handoff));
                            injects += 1;
                            inject += t1.elapsed().as_secs_f64();
                        } else {
                            let slot = slot_of[&op.stream];
                            if sim.stream_live(slot) {
                                let _ = sim.retire_stream(slot);
                                retires += 1;
                            }
                            retire += t1.elapsed().as_secs_f64();
                        }
                    } else {
                        let at = ticks[ti];
                        ti += 1;
                        sim.advance_to(at);
                        let t1 = Instant::now();
                        advance += (t1 - t0).as_secs_f64();
                        if let Some(action) = tuner.epoch(at, &sim.health(at)) {
                            sim.retune(
                                action.dispatch_streams,
                                action.read_ahead_bytes,
                                action.requests_per_residency,
                                action.degraded_rotate_threshold,
                            )
                            .map_err(|e| e.to_string())?;
                            retunes.push(RetuneEvent { node: k, at, action });
                        }
                        tune += t1.elapsed().as_secs_f64();
                    }
                }
                tr.time("node.advance_s", || sim.advance_to(SimTime::MAX));
                nodes.push(tr.time("node.finish_s", || sim.finish()));
            }
            tr.add("scenario.retunes", retunes.len() as f64);
            outcomes.push(ScenarioOutcome { nodes, retunes });
        }
        tr.add_span("node.advance_s", advance);
        tr.add_span("node.inject_s", inject);
        tr.add_span("node.retire_s", retire);
        tr.add_span("scenario.tune_s", tune);
        tr.set("node.inject", injects as f64);
        tr.set("node.retire", retires as f64);
        record_nodes(tr, outcomes.iter().flat_map(|o| o.nodes.iter().map(|r| (WARMUP, r))));
        self.outputs(&outcomes)
    }
}
