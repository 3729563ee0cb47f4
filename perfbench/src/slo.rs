//! `slo-diurnal`: the `probe slo` shape at a fixed session count. Open
//! loop, Poisson+Zipf diurnal arrivals averaging 1600 sessions/s against four
//! eight-disk nodes behind a 250 MiB/s `FairShareLink`, with a 10 s
//! session lifetime.

use std::collections::HashMap;
use std::time::Instant;

use seqio_client::{ArrivalConfig, ClientExperiment, LinkConfig, RateModulation, SessionSpec};
use seqio_cluster::{ClusterResult, NodeHealth, NodeOutcome, SessionSlo};
use seqio_node::sweep::derive_seed;
use seqio_node::{Experiment, NodeShape, StreamHandoff};
use seqio_simcore::units::{KIB, MIB};
use seqio_simcore::{FairShareLink, ProfConfig, SimComponent, SimDuration, SimTime};
use seqio_workload::StreamSpec;

use crate::layers::{build_node, record_nodes, Digest, Run, Sim, Trace, Workload};

/// Expected sessions per run. Link cost is super-linear in sessions, so
/// `sessions_per_s` only compares at this count.
const SESSIONS: f64 = 105_000.0;
const RATE: f64 = 1600.0;
const NODES: usize = 4;
const LIFETIME: SimDuration = SimDuration::from_secs(10);
/// Diurnal cycles over the run, and the swing of the arrival rate. The
/// link carries 2000 sessions/s, so each busy hour (2720/s) overloads it
/// by a third and builds a backlog that the rate curve, not the seed,
/// mostly sets; the median session waits behind it. A 0.3 swing peaks
/// just past the link's capacity, where the backlog (and with it the
/// link's host cost and the p99.9) is a random walk that varied by a
/// third from seed to seed; a 0.5 swing left the median session at the
/// backlog's edge, where it varied by 15%.
const CYCLES: u64 = 12;
const DEPTH: f64 = 0.7;

pub struct SloDiurnal {
    xp: ClientExperiment,
    schedule: Vec<SessionSpec>,
    seed: u64,
}

/// The open-loop node template, as `ClientExperiment` derives it.
fn open_template(t: &Experiment) -> Experiment {
    let mut t = t.clone();
    t.streams_per_disk = 0;
    t.stream_counts = None;
    t.open_sessions = true;
    t.requests_per_stream = None;
    t
}

impl SloDiurnal {
    pub fn new(seed: u64, jobs: usize) -> Result<SloDiurnal, String> {
        let duration = SimDuration::from_secs_f64(SESSIONS / RATE);
        let template = Experiment::builder()
            .shape(NodeShape::eight_disk())
            .request_size(64 * KIB)
            .warmup(SimDuration::ZERO)
            .duration(duration)
            .build();
        let arrivals = ArrivalConfig {
            rate_per_sec: RATE,
            modulation: RateModulation::Diurnal { period: duration / CYCLES, depth: DEPTH },
            titles: 8192,
            zipf_exponent: 0.8,
            requests_per_session: 2,
            session_lifetime: Some(LIFETIME),
        };
        let xp = ClientExperiment::builder()
            .template(template)
            .nodes(NODES)
            .base_seed(seed)
            .jobs(jobs)
            .arrivals(arrivals)
            .link(LinkConfig { capacity_bps: 250.0 * MIB as f64, ..LinkConfig::default() })
            .build();
        let schedule = xp.session_schedule().map_err(|e| e.to_string())?;
        let open = open_template(&xp.template);
        for k in 0..NODES {
            let mut spec = open.clone();
            spec.seed = derive_seed(seed, k);
            seqio_node::NodeSim::new(&spec).map_err(|e| e.to_string())?.init();
        }
        Ok(SloDiurnal { xp, schedule, seed })
    }

    /// Simulated outputs and checks of a finished open-loop run. A session
    /// fails when its lifetime bound falls inside the run and it did not
    /// finish on storage by then (it was abandoned); sessions still in
    /// flight when the run ends are censored, not failed.
    fn outputs(&self, r: &ClusterResult) -> Result<Sim, String> {
        let slo = r.slo.as_ref().ok_or("no session completed")?;
        if slo.sessions != self.schedule.len() as u64 {
            return Err(format!(
                "{} sessions admitted but the schedule holds {}",
                slo.sessions,
                self.schedule.len()
            ));
        }
        if !(slo.p50_ms <= slo.p99_ms && slo.p99_ms <= slo.p999_ms) {
            return Err(format!(
                "percentiles out of order: p50 {} p99 {} p99.9 {}",
                slo.p50_ms, slo.p99_ms, slo.p999_ms
            ));
        }
        let horizon = SimTime::ZERO + self.xp.template.warmup + self.xp.template.duration;
        let mut done: Vec<Option<SimTime>> = vec![None; self.schedule.len()];
        for n in &r.nodes {
            let Some(res) = &n.result else { continue };
            for (slot, &g) in r.node_stream_ids[n.node].iter().enumerate() {
                done[g] = res.stream_done_at[slot];
            }
        }
        let failed = self
            .schedule
            .iter()
            .filter(|s| {
                let cut = s.arrival + LIFETIME;
                cut < horizon && done[s.id].is_none_or(|t| t > cut)
            })
            .count() as u64;
        let mut digest = Digest::default();
        digest.cluster(r);
        Ok(Sim {
            digest: digest.finish(),
            events: r.events_simulated,
            sessions: slo.completed,
            mbs: r.total_throughput_mbs(),
            p50_ms: slo.p50_ms,
            p999_ms: slo.p999_ms,
            latency_samples: slo.completed,
            attempted: slo.sessions,
            failed,
        })
    }
}

impl Workload for SloDiurnal {
    fn run(&self) -> Result<Run, String> {
        let r = self.xp.run().map_err(|e| e.to_string())?;
        Ok(Run::new(self.outputs(&r)?))
    }

    /// Re-drives the client tier by hand: the session schedule, one node
    /// at a time from arrival to arrival, the merge, the link overlay fed
    /// each session's storage-completion instant, and the SLO summary.
    fn traced(&self, tr: &mut Trace, _: &Run, _: f64) -> Result<Sim, String> {
        let sessions = tr
            .time("client.schedule_s", || self.xp.session_schedule())
            .map_err(|e| e.to_string())?;
        tr.set("client.sessions", sessions.len() as f64);
        let horizon = SimTime::ZERO + self.xp.template.warmup + self.xp.template.duration;
        let mut template = open_template(&self.xp.template);
        template.prof = Some(ProfConfig::new());
        let request_blocks = template.request_blocks();

        // (instant, session, retire) per node, in `ClientExperiment`'s order.
        let mut ops: Vec<Vec<(SimTime, usize, bool)>> = vec![Vec::new(); NODES];
        for s in &sessions {
            ops[s.node].push((s.arrival, s.id, false));
            let cut = s.arrival + LIFETIME;
            if cut < horizon {
                ops[s.node].push((cut, s.id, true));
            }
        }
        let mut outcomes = Vec::with_capacity(NODES);
        let mut node_ids = Vec::with_capacity(NODES);
        let mut abandoned = vec![false; sessions.len()];
        let (mut advance, mut inject, mut retire) = (0.0, 0.0, 0.0);
        let (mut injects, mut retires) = (0u64, 0u64);
        for (k, node_ops) in ops.iter_mut().enumerate() {
            node_ops.sort_unstable();
            let mut spec = template.clone();
            spec.seed = derive_seed(self.seed, k);
            let mut sim = build_node(tr, &spec)?;
            let mut slots = Vec::new();
            let mut slot_of = HashMap::new();
            for &(at, g, is_retire) in node_ops.iter() {
                let t0 = Instant::now();
                sim.advance_to(at);
                let t1 = Instant::now();
                advance += (t1 - t0).as_secs_f64();
                if is_retire {
                    let slot = slot_of[&g];
                    if sim.stream_live(slot) {
                        let _ = sim.retire_stream(slot);
                        abandoned[g] = true;
                        retires += 1;
                    }
                    retire += t1.elapsed().as_secs_f64();
                } else {
                    let s = &sessions[g];
                    let spec = StreamSpec::sequential(s.disk, s.start, request_blocks, s.requests);
                    let handoff = StreamHandoff::fresh(spec).map_err(|e| e.to_string())?;
                    slot_of.insert(g, sim.inject_stream(at, handoff));
                    slots.push(g);
                    injects += 1;
                    inject += t1.elapsed().as_secs_f64();
                }
            }
            tr.time("node.advance_s", || sim.advance_to(SimTime::MAX));
            let result = tr.time("node.finish_s", || sim.finish());
            outcomes.push(NodeOutcome {
                node: k,
                assigned_streams: slots.len(),
                health: NodeHealth::healthy(),
                spec: Some(spec),
                result: Some(result),
            });
            node_ids.push(slots);
        }
        tr.add_span("node.advance_s", advance);
        tr.add_span("node.inject_s", inject);
        tr.add_span("node.retire_s", retire);
        tr.set("node.inject", injects as f64);
        tr.set("node.retire", retires as f64);

        let assignment: Vec<usize> = sessions.iter().map(|s| s.node).collect();
        let mut result = tr.time("cluster.merge_s", || {
            ClusterResult::merge(outcomes, assignment, node_ids, Vec::new())
        });

        // The link overlay: every storage-completed, non-abandoned session
        // enters the link at its completion instant, in (instant, session)
        // order.
        let request_bytes = template.request_bytes;
        let (delivered, peak) = tr
            .time("simcore.link.replay_s", || {
                let mut done: Vec<(SimTime, usize)> = Vec::new();
                for n in &result.nodes {
                    let Some(r) = &n.result else { continue };
                    for (slot, &g) in result.node_stream_ids[n.node].iter().enumerate() {
                        if let Some(t) = r.stream_done_at[slot].filter(|_| !abandoned[g]) {
                            done.push((t, g));
                        }
                    }
                }
                done.sort_unstable();
                let link = self.xp.link;
                let mut sim = FairShareLink::new(link.capacity_bps)?;
                let mut peak = 0;
                for &(t, g) in &done {
                    let bytes = sessions[g].requests * request_bytes;
                    sim.start_transfer(t, bytes, link.session_demand_bps, g as u64);
                    peak = peak.max(sim.active_count());
                }
                sim.advance_to(SimTime::MAX);
                Ok::<_, seqio_simcore::SeqioError>((sim.take_deliveries(), peak))
            })
            .map_err(|e| e.to_string())?;
        let replay = tr.span("simcore.link.replay_s");
        tr.set("simcore.link.transfers", delivered.len() as f64);
        tr.set("simcore.link.peak_active", peak as f64);
        tr.set("simcore.link.transfers_per_s", delivered.len() as f64 / replay);

        result.slo = tr.time("cluster.slo_s", || {
            let latencies: Vec<SimDuration> = delivered
                .iter()
                .map(|d| d.at.duration_since(sessions[d.tag as usize].arrival))
                .collect();
            SessionSlo::from_latencies(sessions.len() as u64, latencies)
        });
        record_nodes(
            tr,
            result.nodes.iter().filter_map(|n| n.result.as_ref()).map(|r| (SimDuration::ZERO, r)),
        );
        self.outputs(&result)
    }
}
