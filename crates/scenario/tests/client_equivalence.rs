//! The open-loop client front end and the scenario runner drive nodes
//! through one loop: a client session schedule written out as a scenario
//! trace and replayed through `ScenarioRun` gives every node the
//! `RunResult` the client run produced, bit for bit, at any worker count.

use seqio_client::{ArrivalConfig, ClientExperiment};
use seqio_node::{Experiment, NodeShape, RunResult};
use seqio_scenario::{ScenarioRun, ScenarioTrace, TraceOp, TraceOpKind};
use seqio_simcore::{SimDuration, SimTime};
use seqio_workload::Pattern;

const NODES: usize = 3;
const SEED: u64 = 23;

fn template() -> Experiment {
    Experiment::builder()
        .shape(NodeShape::single_disk())
        .streams_per_disk(0)
        .warmup(SimDuration::from_millis(200))
        .duration(SimDuration::from_secs(2))
        .build()
}

fn client(jobs: usize) -> ClientExperiment {
    ClientExperiment::builder()
        .template(template())
        .nodes(NODES)
        .base_seed(SEED)
        .jobs(jobs)
        .arrivals(ArrivalConfig {
            rate_per_sec: 400.0,
            requests_per_session: 8,
            // Short enough that overloaded nodes abandon sessions.
            session_lifetime: Some(SimDuration::from_millis(150)),
            ..ArrivalConfig::default()
        })
        .build()
}

/// The client's session schedule as a trace: each session injected at
/// its arrival and retired at its lifetime cut when that falls before
/// the horizon, exactly as the client run does it.
fn schedule_as_trace(xp: &ClientExperiment) -> ScenarioTrace {
    let t = &xp.template;
    let horizon = SimTime::ZERO + t.warmup + t.duration;
    let life = xp.arrivals.session_lifetime.expect("sessions have a lifetime");
    let mut trace = ScenarioTrace::new("client", NODES);
    for s in xp.session_schedule().unwrap() {
        let kind = TraceOpKind::Inject {
            disk: s.disk,
            start: s.start,
            blocks: t.request_blocks(),
            requests: s.requests,
            pattern: Pattern::Sequential,
        };
        trace.ops.push(TraceOp { at: s.arrival, node: s.node, stream: s.id, kind });
        if s.arrival + life < horizon {
            let kind = TraceOpKind::Retire;
            trace.ops.push(TraceOp { at: s.arrival + life, node: s.node, stream: s.id, kind });
        }
    }
    trace.sort();
    trace
}

type Fingerprint = (Vec<u64>, Vec<Option<SimTime>>, u64, u64);

fn fingerprint(r: &RunResult) -> Fingerprint {
    (r.per_stream_bytes.clone(), r.stream_done_at.clone(), r.events_simulated, r.bytes_delivered)
}

#[test]
fn client_sessions_replayed_as_a_trace_reproduce_every_node() {
    let trace = schedule_as_trace(&client(1));
    for jobs in [1, 3] {
        let clustered = client(jobs).run().unwrap();
        let mut replay = ScenarioRun::new(template(), trace.clone());
        replay.base_seed = Some(SEED);
        replay.jobs = Some(jobs);
        let replayed = replay.run().unwrap();

        assert_eq!(replayed.nodes.len(), NODES);
        let mut finished = 0;
        let mut unfinished = 0;
        for (k, node) in clustered.nodes.iter().enumerate() {
            let r = node.result.as_ref().expect("every open-loop node runs");
            assert_eq!(
                fingerprint(&replayed.nodes[k]),
                fingerprint(r),
                "jobs={jobs}: node {k} diverged between the client and scenario paths"
            );
            finished += r.stream_done_at.iter().filter(|d| d.is_some()).count();
            unfinished += r.stream_done_at.iter().filter(|d| d.is_none()).count();
        }
        assert!(finished > 0 && unfinished > 0, "{finished} finished, {unfinished} not");
    }
}
