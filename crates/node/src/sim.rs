//! The steppable surface of [`NodeSim`]: the [`StreamHandoff`] that
//! carries a live stream between nodes, the model-state
//! [`HealthSnapshot`] an epoch driver polls, and the [`SimComponent`]
//! contract the cluster co-simulation steps nodes through.

use seqio_simcore::{SeqioError, SimComponent, SimDuration, SimTime};
use seqio_workload::StreamSpec;

use crate::system::NodeSim;

/// The unissued tail of a live stream, captured by
/// [`NodeSim::retire_stream`] on the source node and adopted by
/// [`NodeSim::inject_stream`] on the target. Opaque to the carrier: the
/// cluster layer moves handoffs between nodes without inspecting them.
#[derive(Debug, Clone, Copy)]
pub struct StreamHandoff {
    pub(crate) remainder: StreamSpec,
}

impl StreamHandoff {
    /// Wraps a freshly generated stream as a handoff, so a client
    /// front-end can attach brand-new sessions to a live node through the
    /// same injection surface migration uses. The spec must be valid.
    ///
    /// # Errors
    ///
    /// Returns the spec's first violated constraint.
    pub fn fresh(spec: StreamSpec) -> Result<StreamHandoff, SeqioError> {
        spec.validate().map_err(SeqioError::component("session stream"))?;
        Ok(StreamHandoff { remainder: spec })
    }

    /// The (node-local) disk index the stream targets. Homogeneous nodes
    /// keep the same index on the target.
    pub fn disk(&self) -> usize {
        self.remainder.disk
    }

    /// Requests left to issue after the handoff point.
    pub fn remaining_requests(&self) -> u64 {
        self.remainder.num_requests
    }
}

/// A point-in-time view of one node's load and degradation, assembled
/// purely from simulation model state (disk queues, cumulative busy time,
/// the fault plan) — never from the opt-in observability recorder. A
/// rebalancer polling this at every epoch therefore cannot perturb the
/// simulation or couple its decisions to whether recording is enabled.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSnapshot {
    /// Requests queued at each disk, in global disk order.
    pub queue_depths: Vec<usize>,
    /// Cumulative mechanism busy time of each disk.
    pub busy_time: Vec<SimDuration>,
    /// Each disk's straggler service-time factor at the snapshot instant
    /// (1.0 = healthy).
    pub straggler_factors: Vec<f64>,
    /// Streams on the node that still have requests to issue.
    pub live_streams: usize,
    /// Bytes currently staged in the stream scheduler's buffered set
    /// (0 on the direct and Linux front ends, which stage nothing). An
    /// adaptive tuner reads this against `M` to judge memory pressure.
    pub staged_bytes: u64,
}

impl HealthSnapshot {
    /// The worst per-disk straggler factor (1.0 when fully healthy).
    pub fn worst_straggler_factor(&self) -> f64 {
        self.straggler_factors.iter().copied().fold(1.0, f64::max)
    }
}

impl SimComponent for NodeSim {
    fn init(&mut self) {
        NodeSim::init(self);
    }
    fn peek_next_time(&self) -> Option<SimTime> {
        NodeSim::peek_next_time(self)
    }
    fn advance_to(&mut self, limit: SimTime) {
        NodeSim::advance_to(self, limit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, Frontend, RunResult};
    use seqio_simcore::FaultPlan;

    fn spec() -> Experiment {
        Experiment::builder()
            .streams_per_disk(6)
            .requests_per_stream(20)
            .warmup(SimDuration::ZERO)
            .duration(SimDuration::from_secs(30))
            .seed(5)
            .build()
    }

    fn fingerprint(r: &RunResult) -> (Vec<u64>, u64, u64, u64, Vec<u64>) {
        (
            r.per_stream_mbs.iter().map(|m| m.to_bits()).collect(),
            r.bytes_delivered,
            r.requests_completed,
            r.events_simulated,
            r.per_stream_bytes.clone(),
        )
    }

    #[test]
    fn stepping_is_bit_identical_to_running() {
        let plain = spec().run();
        for epoch_ms in [1u64, 7, 50, 1_000] {
            let mut sim = NodeSim::new(&spec()).unwrap();
            sim.init();
            let mut t = SimTime::ZERO;
            while sim.peek_next_time().is_some() {
                t += SimDuration::from_millis(epoch_ms);
                sim.advance_to(t);
            }
            let stepped = sim.finish();
            assert_eq!(
                fingerprint(&stepped),
                fingerprint(&plain),
                "epoch {epoch_ms}ms diverged from the one-shot run"
            );
            assert_eq!(stepped.window, plain.window);
        }
    }

    #[test]
    fn migration_conserves_the_workload() {
        // Two 1-disk nodes; move every live stream from B to A mid-run.
        let mut a = NodeSim::new(&spec()).unwrap();
        let mut b = NodeSim::new(&spec()).unwrap();
        a.init();
        b.init();
        let cut = SimTime::ZERO + SimDuration::from_millis(200);
        a.advance_to(cut);
        b.advance_to(cut);
        let mut moved = 0;
        for s in 0..6 {
            if let Some(h) = b.retire_stream(s) {
                assert_eq!(h.disk(), 0);
                assert!(h.remaining_requests() > 0);
                a.inject_stream(cut, h);
                moved += 1;
            }
        }
        assert!(moved > 0, "mid-run streams should have work left");
        a.advance_to(SimTime::MAX);
        b.advance_to(SimTime::MAX);
        let ra = a.finish();
        let rb = b.finish();
        // Every one of the 2 x 6 x 20 requests completes somewhere.
        assert_eq!(ra.requests_completed + rb.requests_completed, 2 * 6 * 20);
        assert_eq!(ra.per_stream_bytes.len(), 6 + moved);
        let total: u64 = ra.bytes_delivered + rb.bytes_delivered;
        assert_eq!(total, 2 * 6 * 20 * 64 * 1024);
    }

    #[test]
    fn a_stream_that_reaches_its_disk_end_finishes_there() {
        let linux = Frontend::Linux { scheduler: seqio_hostsched::SchedKind::Anticipatory };
        let scheduler = Frontend::StreamScheduler(seqio_core::ServerConfig::default_tuning());
        for frontend in [Frontend::Direct, scheduler, linux] {
            let spec = Experiment::builder()
                .streams_per_disk(0)
                .open_sessions(true)
                .frontend(frontend.clone())
                .warmup(SimDuration::ZERO)
                .duration(SimDuration::from_secs(30))
                .build();
            let mut sim = NodeSim::new(&spec).unwrap();
            sim.init();
            // The last 1000 blocks hold 125 eight-block requests; the Linux
            // read-ahead window grows past what is left.
            let start = spec.shape.disk_blocks() - 1_000;
            let stream = StreamSpec::sequential(0, start, 8, 1_000_000);
            let slot = sim.inject_stream(SimTime::ZERO, StreamHandoff::fresh(stream).unwrap());
            sim.advance_to(SimTime::MAX);
            assert!(sim.stream_done_at(slot).is_some(), "{frontend:?}: the stream finished");
            assert_eq!(sim.finish().per_stream_bytes[slot], 1_000 * 512, "{frontend:?}");
        }
    }

    #[test]
    fn health_reads_the_fault_plan_at_the_given_instant() {
        let mut e = spec();
        e.faults = Some(FaultPlan::new().straggler(
            0,
            8.0,
            SimDuration::from_millis(500),
            Some(SimDuration::from_millis(500)),
        ));
        let sim = NodeSim::new(&e).unwrap();
        let healthy = sim.health(SimTime::ZERO);
        assert_eq!(healthy.worst_straggler_factor(), 1.0);
        let degraded = sim.health(SimTime::ZERO + SimDuration::from_millis(700));
        assert_eq!(degraded.worst_straggler_factor(), 8.0);
        let recovered = sim.health(SimTime::ZERO + SimDuration::from_millis(1_100));
        assert_eq!(recovered.worst_straggler_factor(), 1.0);
        assert_eq!(healthy.queue_depths.len(), 1);
    }
}
