//! `cluster-migrate`: a closed-loop finite batch on two eight-disk nodes
//! behind the stream scheduler, 100 streams/disk, with a factor-8
//! straggler appearing on node 1 mid-run and the `Rebalancer` migrating
//! its live streams to node 0 in lockstep epochs.

use std::collections::HashMap;
use std::time::Instant;

use seqio_cluster::{
    ClusterExperiment, ClusterResult, NodeHealth, NodeOutcome, RebalanceConfig, ShardPolicy,
};
use seqio_node::sweep::derive_seed;
use seqio_node::{Experiment, Frontend, NodeShape, NodeSim, StreamHandoff};
use seqio_simcore::units::KIB;
use seqio_simcore::{FaultPlan, ProfConfig, SimDuration, SimTime};

use crate::layers::{build_node, record_nodes, Digest, Run, Sim, Trace, Workload};

const NODES: usize = 2;
const STREAMS_PER_DISK: usize = 100;
const REQUESTS_PER_STREAM: u64 = 256;
/// Straggler onset, mid-run: the rebalanced batch's median stream
/// finishes at about 56 s.
const ONSET: SimDuration = SimDuration::from_secs(24);
/// Rebalancer check interval.
const EPOCH: SimDuration = SimDuration::from_millis(2_400);

pub struct ClusterMigrate {
    cluster: ClusterExperiment,
}

impl ClusterMigrate {
    pub fn new(seed: u64, jobs: usize) -> Result<ClusterMigrate, String> {
        let template = Experiment::builder()
            .shape(NodeShape::eight_disk())
            .streams_per_disk(STREAMS_PER_DISK)
            .request_size(64 * KIB)
            .frontend(Frontend::stream_scheduler_with_readahead(512 * KIB))
            .requests_per_stream(REQUESTS_PER_STREAM)
            .warmup(SimDuration::ZERO)
            .duration(SimDuration::from_secs(600))
            .build();
        let cluster = ClusterExperiment::builder()
            .template(template)
            .nodes(NODES)
            .policy(ShardPolicy::HashByStream)
            .node_fault(1, FaultPlan::new().straggler(0, 8.0, ONSET, None))
            .rebalance(RebalanceConfig::new(EPOCH))
            .base_seed(seed)
            .jobs(jobs)
            .build();
        cluster.validate().map_err(|e| e.to_string())?;
        let w = ClusterMigrate { cluster };
        for k in 0..NODES {
            NodeSim::new(&w.node_spec(k)).map_err(|e| e.to_string())?.init();
        }
        Ok(w)
    }

    /// Node `k`'s spec, as the cluster derives it for an even hash deal.
    fn node_spec(&self, k: usize) -> Experiment {
        let c = &self.cluster;
        let mut spec = c.template.clone();
        spec.faults = c.node_faults[k].clone();
        spec.seed = derive_seed(c.base_seed.expect("the cluster is seeded"), k);
        spec
    }

    /// Simulated outputs and checks: every request completes and at least
    /// one stream migrated. A stream's latency sample is the instant its
    /// batch finished, on whichever node it ended.
    fn outputs(&self, r: &ClusterResult) -> Result<Sim, String> {
        let streams = self.cluster.total_streams() as u64;
        let attempted = streams * REQUESTS_PER_STREAM;
        if r.requests_completed != attempted {
            return Err(format!("{} of {attempted} requests completed", r.requests_completed));
        }
        if r.migrations.is_empty() {
            return Err("the straggler triggered no migration".into());
        }
        let mut finished = vec![SimTime::ZERO; streams as usize];
        let mut timeouts = 0;
        for n in &r.nodes {
            let Some(res) = &n.result else { continue };
            timeouts += res.disk_timeouts.iter().sum::<u64>();
            for (slot, &g) in r.node_stream_ids[n.node].iter().enumerate() {
                if let Some(t) = res.stream_done_at[slot] {
                    finished[g] = finished[g].max(t);
                }
            }
        }
        let mut digest = Digest::default();
        digest.cluster(r);
        let mut sim = Sim {
            digest: digest.finish(),
            events: r.events_simulated,
            sessions: streams,
            mbs: r.total_throughput_mbs(),
            attempted: attempted + timeouts,
            failed: timeouts,
            ..Sim::default()
        };
        sim.set_latencies(finished.iter().map(|t| t.duration_since(SimTime::ZERO)).collect())?;
        Ok(sim)
    }
}

impl Workload for ClusterMigrate {
    fn run(&self) -> Result<Run, String> {
        let r = self.cluster.run().map_err(|e| e.to_string())?;
        let mut run = Run::new(self.outputs(&r)?);
        run.migrations = r.migrations;
        Ok(run)
    }

    /// Re-drives the same nodes independently: each node alone from start
    /// to finish, replaying the lockstep run's migrations as retires on
    /// the source and injects on the target. Sources go first, so every
    /// handoff exists before its target needs it. The lockstep run's
    /// cores-times-wall per event, against the nodes' own advance time per
    /// event, isolates the epoch barrier's cost.
    fn traced(&self, tr: &mut Trace, reference: &Run, reference_wall: f64) -> Result<Sim, String> {
        let migrations = &reference.migrations;
        if migrations.iter().any(|m| m.to != 0 || m.from == 0) {
            return Err("expected every migration to leave the straggler for node 0".into());
        }
        let total = self.cluster.total_streams();
        let assignment = self.cluster.router().assign(total);
        let mut slot_map: Vec<Vec<usize>> = vec![Vec::new(); NODES];
        for (g, &k) in assignment.iter().enumerate() {
            slot_map[k].push(g);
        }
        let mut handoffs: HashMap<usize, StreamHandoff> = HashMap::new();
        let mut results = vec![None; NODES];
        let (mut advance, mut inject, mut retire) = (0.0, 0.0, 0.0);
        for k in (0..NODES).rev() {
            let mut spec = self.node_spec(k);
            spec.prof = Some(ProfConfig::new());
            let mut sim = build_node(tr, &spec)?;
            for (i, m) in migrations.iter().enumerate().filter(|(_, m)| m.from == k || m.to == k) {
                let t0 = Instant::now();
                sim.advance_to(m.at);
                let t1 = Instant::now();
                advance += (t1 - t0).as_secs_f64();
                if m.from == k {
                    let slot = slot_map[k]
                        .iter()
                        .position(|&g| g == m.stream)
                        .ok_or("a migrated stream is not on its source node")?;
                    let h = sim.retire_stream(slot).ok_or("a migrated stream had nothing left")?;
                    handoffs.insert(i, h);
                    retire += t1.elapsed().as_secs_f64();
                } else {
                    let h = handoffs.remove(&i).ok_or("a handoff is missing")?;
                    sim.inject_stream(m.at, h);
                    slot_map[k].push(m.stream);
                    inject += t1.elapsed().as_secs_f64();
                }
            }
            tr.time("node.advance_s", || sim.advance_to(SimTime::MAX));
            results[k] = Some(tr.time("node.finish_s", || sim.finish()));
        }
        tr.add_span("node.advance_s", advance);
        tr.add_span("node.inject_s", inject);
        tr.add_span("node.retire_s", retire);
        tr.set("node.inject", migrations.len() as f64);
        tr.set("node.retire", migrations.len() as f64);
        tr.set("cluster.migrations", migrations.len() as f64);

        let disks = self.cluster.template.shape.total_disks();
        let outcomes: Vec<NodeOutcome> = results
            .into_iter()
            .enumerate()
            .map(|(k, result)| NodeOutcome {
                node: k,
                assigned_streams: assignment.iter().filter(|&&a| a == k).count(),
                health: NodeHealth::from_faults(self.cluster.node_faults[k].as_ref(), disks),
                spec: Some(self.node_spec(k)),
                result,
            })
            .collect();
        let merged = tr.time("cluster.merge_s", || {
            ClusterResult::merge(outcomes, assignment, slot_map, migrations.clone())
        });
        let events = merged.events_simulated as f64;
        let alone = tr.span("node.advance_s") + inject + retire;
        let jobs = self.cluster.jobs.unwrap_or(1) as f64;
        tr.set("cluster.lockstep_ns_per_event", reference_wall * jobs * 1e9 / events);
        tr.set("cluster.independent_ns_per_event", alone * 1e9 / events);
        record_nodes(
            tr,
            merged.nodes.iter().filter_map(|n| n.result.as_ref()).map(|r| (SimDuration::ZERO, r)),
        );
        self.outputs(&merged)
    }
}
