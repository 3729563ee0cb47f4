//! `paper-sweep`: the paper's own experiment. One closed-loop eight-disk
//! node per grid point, {direct, stream scheduler R=512K} x {10, 100}
//! streams/disk over a long fixed window, run through `Sweep`.

use seqio_node::sweep::derive_seed;
use seqio_node::{Experiment, Frontend, NodeShape, NodeSim, RunResult, Sweep};
use seqio_simcore::units::KIB;
use seqio_simcore::{ProfConfig, SimDuration, SimTime};

use crate::layers::{build_node, record_nodes, Digest, Run, Sim, Trace, Workload};

/// Simulated warm-up and measured window of every grid point.
const WARMUP: SimDuration = SimDuration::from_secs(2);
const WINDOW: SimDuration = SimDuration::from_secs(120);
const STREAMS_PER_DISK: [usize; 2] = [10, 100];

pub struct PaperSweep {
    points: Vec<Experiment>,
    seed: u64,
    jobs: usize,
}

fn grid() -> Vec<Experiment> {
    let mut points = Vec::new();
    for frontend in [Frontend::Direct, Frontend::stream_scheduler_with_readahead(512 * KIB)] {
        for spd in STREAMS_PER_DISK {
            points.push(
                Experiment::builder()
                    .shape(NodeShape::eight_disk())
                    .streams_per_disk(spd)
                    .frontend(frontend.clone())
                    .warmup(WARMUP)
                    .duration(WINDOW)
                    .build(),
            );
        }
    }
    points
}

impl PaperSweep {
    pub fn new(seed: u64, jobs: usize) -> Result<PaperSweep, String> {
        let points = grid();
        // The sims themselves are part of set-up: build and initialise
        // one per point, exactly as the sweep workers will.
        for (i, p) in points.iter().enumerate() {
            let mut spec = p.clone();
            spec.seed = derive_seed(seed, i);
            NodeSim::new(&spec).map_err(|e| format!("grid point {i}: {e}"))?.init();
        }
        Ok(PaperSweep { points, seed, jobs })
    }

    /// Simulated outputs and checks, shared by the untraced and traced
    /// paths. A closed-loop stream never finishes inside the window, so
    /// each stream's latency sample is its mean request interval: the
    /// window over the requests it completed, one request outstanding.
    fn outputs(&self, results: &[RunResult]) -> Result<Sim, String> {
        let mut digest = Digest::default();
        let mut sim = Sim::default();
        let mut latencies = Vec::new();
        for (p, r) in self.points.iter().zip(results) {
            digest.node(r);
            sim.events += r.events_simulated;
            sim.sessions += r.per_stream_bytes.len() as u64;
            sim.mbs += r.total_throughput_mbs();
            let timeouts: u64 = r.disk_timeouts.iter().sum();
            sim.attempted += r.requests_completed + timeouts;
            sim.failed += timeouts;
            for &bytes in &r.per_stream_bytes {
                let requests = bytes / p.request_bytes;
                if let Some(ns) = r.window.as_nanos().checked_div(requests) {
                    latencies.push(SimDuration::from_nanos(ns));
                }
            }
        }
        sim.digest = digest.finish();
        sim.set_latencies(latencies)?;
        // Grid order: direct 10, direct 100, scheduler 10, scheduler 100.
        let (direct, sched) =
            (results[1].total_throughput_mbs(), results[3].total_throughput_mbs());
        if sched <= direct {
            return Err(format!(
                "the scheduler ({sched:.3} MB/s) does not beat direct ({direct:.3} MB/s) \
                 at 100 streams/disk"
            ));
        }
        Ok(sim)
    }
}

impl Workload for PaperSweep {
    fn run(&self) -> Result<Run, String> {
        let report =
            Sweep::builder().points(self.points.clone()).base_seed(self.seed).jobs(self.jobs).run();
        let cpu = report.cpu_time().as_secs_f64();
        let efficiency = cpu / (report.wall.as_secs_f64() * report.jobs as f64);
        let mut run = Run::new(self.outputs(&report.into_results())?);
        run.notes = vec![("sweep.cpu_s", cpu), ("sweep.parallel_efficiency", efficiency)];
        Ok(run)
    }

    fn traced(&self, tr: &mut Trace, reference: &Run, _: f64) -> Result<Sim, String> {
        let mut results = Vec::with_capacity(self.points.len());
        for (i, p) in self.points.iter().enumerate() {
            let mut spec = p.clone();
            spec.seed = derive_seed(self.seed, i);
            spec.prof = Some(ProfConfig::new());
            let mut sim = build_node(tr, &spec)?;
            tr.time("node.advance_s", || sim.advance_to(SimTime::MAX));
            results.push(tr.time("node.finish_s", || sim.finish()));
        }
        for &(name, v) in &reference.notes {
            tr.set(name, v);
        }
        record_nodes(tr, results.iter().map(|r| (WARMUP, r)));
        self.outputs(&results)
    }
}
