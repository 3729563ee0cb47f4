//! Experiment specification and results.

use seqio_controller::ControllerConfig;
use seqio_core::{ServerConfig, ServerMetrics};
use seqio_disk::{bytes_to_blocks, DiskConfig, Geometry, BLOCK_SIZE};
use seqio_hostsched::SchedKind;
use seqio_simcore::{
    FaultPlan, KernelProfile, LatencyHistogram, MetricSeries, ObsConfig, ProfConfig, SeqioError,
    SimDuration, SimTime, SpanPhase,
};
use seqio_workload::Pattern;

use crate::calibration::CostModel;
use crate::span::SpanRecord;
use crate::system::NodeSim;

/// Physical layout of a storage node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeShape {
    /// Number of controllers.
    pub controllers: usize,
    /// Disks attached to each controller.
    pub disks_per_controller: usize,
    /// Controller template (its `ports` field is overridden to
    /// `disks_per_controller`).
    pub controller: ControllerConfig,
    /// Disk model used for every spindle.
    pub disk: DiskConfig,
}

impl NodeShape {
    /// One controller, one disk — the paper's base configuration.
    pub fn single_disk() -> Self {
        NodeShape {
            controllers: 1,
            disks_per_controller: 1,
            controller: ControllerConfig::single_port(),
            disk: DiskConfig::wd800jd(),
        }
    }

    /// One BC4810 with eight disks — the paper's medium configuration.
    pub fn eight_disk() -> Self {
        NodeShape {
            controllers: 1,
            disks_per_controller: 8,
            controller: ControllerConfig::bc4810(),
            disk: DiskConfig::wd800jd(),
        }
    }

    /// Fifteen controllers x four disks = 60 disks — the paper's large
    /// configuration (Figure 1).
    pub fn sixty_disk() -> Self {
        NodeShape {
            controllers: 15,
            disks_per_controller: 4,
            controller: ControllerConfig { ports: 4, ..ControllerConfig::bc4810() },
            disk: DiskConfig::wd800jd(),
        }
    }

    /// Total spindles.
    pub fn total_disks(&self) -> usize {
        self.controllers * self.disks_per_controller
    }

    /// Blocks on each of the node's disks.
    pub fn disk_blocks(&self) -> u64 {
        Geometry::new(&self.disk.geometry, self.disk.track_switch).total_blocks()
    }

    /// Validates the shape.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`SeqioError`].
    pub fn validate(&self) -> Result<(), SeqioError> {
        if self.controllers == 0 || self.disks_per_controller == 0 {
            return Err(SeqioError::Shape("need at least one controller and one disk".into()));
        }
        let mut c = self.controller.clone();
        c.ports = self.disks_per_controller;
        c.validate().map_err(SeqioError::component("controller"))?;
        self.disk.validate().map_err(SeqioError::component("disk"))
    }
}

/// Which request path services the clients.
#[derive(Debug, Clone, PartialEq)]
pub enum Frontend {
    /// Requests go straight to the controllers (the baseline of Figures
    /// 1, 4, 5, 6, 7, 8).
    Direct,
    /// The paper's stream scheduler with an explicit configuration.
    StreamScheduler(ServerConfig),
    /// The stream scheduler in the "adequate memory" setup of Figure 10:
    /// `D` = total streams, `N` = 1, `M = D * R`.
    AllDispatched {
        /// Read-ahead size `R` in bytes.
        read_ahead_bytes: u64,
    },
    /// A Linux-like kernel path: page-cache read-ahead (the 2.6 kernel's
    /// 16–128 KiB window) plus a block-layer scheduler (Figure 2).
    Linux {
        /// Block-layer scheduling policy.
        scheduler: SchedKind,
    },
}

impl Frontend {
    /// Convenience constructor matching the facade-crate quick start:
    /// stream scheduling with every stream dispatched at the given `R`.
    pub fn stream_scheduler_with_readahead(read_ahead_bytes: u64) -> Self {
        Frontend::AllDispatched { read_ahead_bytes }
    }
}

/// How streams are laid out on each disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// `disksize / streams` apart (the paper's default).
    Uniform,
    /// Fixed byte interval between stream starts (Figure 5 uses 1 GByte).
    Interval(u64),
}

/// A complete experiment description (builder-constructed).
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Node layout.
    pub shape: NodeShape,
    /// Concurrent sequential streams per disk.
    pub streams_per_disk: usize,
    /// Explicit per-disk stream counts (one entry per disk, in global disk
    /// order), overriding the uniform `streams_per_disk` layout. Disks may
    /// carry different counts — even zero — as long as at least one stream
    /// exists. `None` (the default) keeps the uniform layout and is
    /// bit-identical to builds without this field. Used by the cluster
    /// layer, where a router hands each node an uneven share of streams.
    pub stream_counts: Option<Vec<usize>>,
    /// Client request size in bytes, a whole number of 512-byte blocks.
    pub request_bytes: u64,
    /// Request path.
    pub frontend: Frontend,
    /// Stream placement.
    pub placement: Placement,
    /// Per-stream access pattern (sequential, near-sequential or random).
    pub pattern: Pattern,
    /// Issue writes instead of reads (writes always bypass staging).
    pub writes: bool,
    /// Requests per stream (`None` = open-ended until the clock stops).
    pub requests_per_stream: Option<u64>,
    /// Open-session mode: the node may start with zero streams and adopt
    /// sessions mid-run through the stream-injection surface (the client
    /// front-end tier drives this). Leaves every closed-loop code path
    /// untouched — a `false` value is bit-identical to builds without the
    /// field. Incompatible with replay and the `AllDispatched` frontend
    /// (which sizes its dispatch set from the static stream count).
    pub open_sessions: bool,
    /// Replay these recorded spans instead of generating a workload: each
    /// request arrives open-loop at its span's enqueue stamp with the
    /// recorded stream, disk, LBA and length (`streams_per_disk`,
    /// `pattern`, `placement` and `requests_per_stream` are ignored).
    /// Recorded stream ids map to local slots by their rank among the
    /// distinct ids, so ids `0..n` stay as they are.
    pub replay: Option<Vec<SpanRecord>>,
    /// Cost model.
    pub costs: CostModel,
    /// Warm-up excluded from measurement.
    pub warmup: SimDuration,
    /// Measured window.
    pub duration: SimDuration,
    /// RNG seed.
    pub seed: u64,
    /// Deterministic fault schedule (`None` = healthy run; faults are
    /// strictly opt-in and a missing or empty plan leaves every output
    /// bit-identical to a build without fault support).
    pub faults: Option<FaultPlan>,
    /// Observability configuration (`None` = nothing recorded; like
    /// faults, observability is strictly opt-in and never perturbs the
    /// simulation — results stay bit-identical with it on or off).
    pub obs: Option<ObsConfig>,
    /// Kernel self-profiling configuration (`None` = no accounting; like
    /// observability, profiling is strictly opt-in, only *reads* the host
    /// clock around event dispatch, and leaves every simulation output
    /// bit-identical).
    pub prof: Option<ProfConfig>,
}

impl Experiment {
    /// Starts a builder with the paper's defaults: single disk, 10 streams,
    /// 64 KiB requests, direct path, uniform placement, open-ended streams,
    /// 2 s warm-up + 6 s measurement.
    pub fn builder() -> ExperimentBuilder {
        ExperimentBuilder {
            spec: Experiment {
                shape: NodeShape::single_disk(),
                streams_per_disk: 10,
                stream_counts: None,
                request_bytes: 64 * 1024,
                frontend: Frontend::Direct,
                placement: Placement::Uniform,
                pattern: Pattern::Sequential,
                writes: false,
                requests_per_stream: None,
                open_sessions: false,
                replay: None,
                costs: CostModel::default(),
                warmup: SimDuration::from_secs(2),
                duration: SimDuration::from_secs(6),
                seed: 1,
                faults: None,
                obs: None,
                prof: None,
            },
        }
    }

    /// Total streams across the node.
    pub fn total_streams(&self) -> usize {
        match &self.stream_counts {
            Some(counts) => counts.iter().sum(),
            None => self.streams_per_disk * self.shape.total_disks(),
        }
    }

    /// Streams on each disk, in global disk order: the explicit
    /// [`stream_counts`](Experiment::stream_counts) when set, else
    /// `streams_per_disk` everywhere.
    pub fn per_disk_streams(&self) -> Vec<usize> {
        match &self.stream_counts {
            Some(counts) => counts.clone(),
            None => vec![self.streams_per_disk; self.shape.total_disks()],
        }
    }

    /// Request size in blocks.
    pub fn request_blocks(&self) -> u64 {
        bytes_to_blocks(self.request_bytes)
    }

    /// Validates the full specification.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`SeqioError`].
    pub fn validate(&self) -> Result<(), SeqioError> {
        self.shape.validate()?;
        if self.streams_per_disk == 0 && !self.open_sessions {
            return Err(SeqioError::Experiment("need at least one stream per disk".into()));
        }
        if let Some(counts) = &self.stream_counts {
            if counts.len() != self.shape.total_disks() {
                return Err(SeqioError::Experiment(format!(
                    "stream_counts names {} disks but the node has {}",
                    counts.len(),
                    self.shape.total_disks()
                )));
            }
            if counts.iter().sum::<usize>() == 0 && !self.open_sessions {
                return Err(SeqioError::Experiment(
                    "stream_counts must place at least one stream".into(),
                ));
            }
        }
        if self.open_sessions {
            if self.replay.is_some() {
                return Err(SeqioError::Experiment(
                    "open-session mode is incompatible with trace replay".into(),
                ));
            }
            if matches!(self.frontend, Frontend::AllDispatched { .. }) {
                return Err(SeqioError::Experiment(
                    "open-session mode cannot size an AllDispatched frontend \
                     (its dispatch set derives from the static stream count); \
                     use an explicit StreamScheduler configuration"
                        .into(),
                ));
            }
        }
        if self.request_bytes == 0 {
            return Err(SeqioError::Experiment("request size must be positive".into()));
        }
        if !self.request_bytes.is_multiple_of(BLOCK_SIZE) {
            return Err(SeqioError::Experiment(format!(
                "request size {} bytes is not a whole number of {BLOCK_SIZE}-byte blocks",
                self.request_bytes
            )));
        }
        if self.duration == SimDuration::ZERO {
            return Err(SeqioError::Experiment("measurement window must be positive".into()));
        }
        let Some(window_end) = (SimTime::ZERO + self.warmup).checked_add(self.duration) else {
            return Err(SeqioError::Experiment(
                "the window end (`warmup` + `duration`) overflows the simulated clock".into(),
            ));
        };
        match &self.frontend {
            Frontend::Direct => {}
            Frontend::StreamScheduler(cfg) => cfg.validate()?,
            Frontend::AllDispatched { read_ahead_bytes } => {
                // The node derives this configuration and panics on an
                // invalid one, so refuse it here.
                ServerConfig::all_dispatched(self.total_streams(), *read_ahead_bytes).validate()?;
            }
            Frontend::Linux { .. } => {
                if self.writes {
                    return Err(SeqioError::Experiment(
                        "the Linux front end models a read path only".into(),
                    ));
                }
            }
        }
        if let Some(spans) = &self.replay {
            self.validate_replay(spans)?;
        }
        if let Some(obs) = &self.obs {
            obs.validate()?;
        }
        if let Some(plan) = &self.faults {
            plan.validate()?;
            let disks = self.shape.total_disks();
            if let Some(d) = plan.max_disk() {
                if d >= disks {
                    return Err(SeqioError::Experiment(format!(
                        "fault plan names disk {d} but the node has only {disks} disks"
                    )));
                }
            }
            // A retry is scheduled at most the largest delay past the last
            // event the node handles, which lies inside the window.
            let retry = plan.retry_policy().and_then(|r| r.max_delay());
            if retry.is_some_and(|delay| window_end.checked_add(delay).is_none()) {
                return Err(SeqioError::Experiment(
                    "the fault plan's largest retry delay past the window end (`warmup` + \
                     `duration`) overflows the simulated clock"
                        .into(),
                ));
            }
        }
        Ok(())
    }

    /// Checks every replay record against the node: its disk must exist,
    /// its request must be non-empty and end on the disk, and its arrival
    /// (enqueue plus the one-way network delay) must be representable.
    fn validate_replay(&self, spans: &[SpanRecord]) -> Result<(), SeqioError> {
        if spans.is_empty() {
            return Err(SeqioError::Experiment("replay trace is empty".into()));
        }
        let (disks, disk_blocks) = (self.shape.total_disks(), self.shape.disk_blocks());
        let net = self.costs.network_oneway.as_nanos();
        for (i, s) in spans.iter().enumerate() {
            let reason = if s.disk >= disks {
                format!("names disk {} but the node has {disks} disk(s)", s.disk)
            } else if s.blocks == 0 {
                "requests zero blocks".to_string()
            } else if s.lba.checked_add(s.blocks).is_none_or(|end| end > disk_blocks) {
                format!(
                    "runs past its disk's end: lba {} + {} blocks > {disk_blocks}",
                    s.lba, s.blocks
                )
            } else {
                match s.stamp(SpanPhase::Enqueued) {
                    None => "has no enqueue stamp".to_string(),
                    Some(t) if t.as_nanos().checked_add(net).is_none() => format!(
                        "is enqueued at {} ns, too late to add the network delay",
                        t.as_nanos()
                    ),
                    Some(_) => continue,
                }
            };
            return Err(SeqioError::Experiment(format!(
                "replay record {} (stream {}) {reason}",
                i + 1,
                s.stream
            )));
        }
        Ok(())
    }

    /// Attaches an observability configuration to an already-built
    /// experiment (equivalent to [`ExperimentBuilder::observe`]). Recording
    /// is strictly opt-in and never changes simulation outputs.
    pub fn observe(mut self, cfg: ObsConfig) -> Self {
        self.obs = Some(cfg);
        self
    }

    /// Attaches a kernel self-profiling configuration to an already-built
    /// experiment (equivalent to [`ExperimentBuilder::profile`]).
    /// Profiling is strictly opt-in and never changes simulation outputs.
    pub fn profile(mut self, cfg: ProfConfig) -> Self {
        self.prof = Some(cfg);
        self
    }

    /// Runs the experiment to completion.
    ///
    /// # Panics
    ///
    /// Panics if the specification is invalid.
    pub fn run(&self) -> RunResult {
        match run_node(self) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }
}

/// Validates and runs one storage-node simulation — the non-panicking
/// entry point embedders (the cluster layer, custom harnesses) build on:
/// a [`NodeSim`] stepped through `init`, one `advance_to` the end of
/// time, and `finish`. [`Experiment::run`] is a thin panicking wrapper
/// over this.
///
/// # Errors
///
/// Returns the first violated constraint of the specification.
pub fn run_node(spec: &Experiment) -> Result<RunResult, SeqioError> {
    let mut sim = NodeSim::new(spec)?;
    sim.init();
    sim.advance_to(SimTime::MAX);
    Ok(sim.finish())
}

/// Builder for [`Experiment`].
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    spec: Experiment,
}

impl ExperimentBuilder {
    /// Sets the node layout.
    pub fn shape(mut self, shape: NodeShape) -> Self {
        self.spec.shape = shape;
        self
    }

    /// Sets streams per disk.
    pub fn streams_per_disk(mut self, n: usize) -> Self {
        self.spec.streams_per_disk = n;
        self
    }

    /// Overrides the uniform layout with explicit per-disk stream counts
    /// (one entry per disk, in global disk order; entries may be zero).
    pub fn stream_counts(mut self, counts: Vec<usize>) -> Self {
        self.spec.stream_counts = Some(counts);
        self
    }

    /// Sets the client request size in bytes.
    pub fn request_size(mut self, bytes: u64) -> Self {
        self.spec.request_bytes = bytes;
        self
    }

    /// Sets the request path.
    pub fn frontend(mut self, f: Frontend) -> Self {
        self.spec.frontend = f;
        self
    }

    /// Sets the stream placement policy.
    pub fn placement(mut self, p: Placement) -> Self {
        self.spec.placement = p;
        self
    }

    /// Sets the per-stream access pattern.
    pub fn pattern(mut self, p: Pattern) -> Self {
        self.spec.pattern = p;
        self
    }

    /// Switches the workload to writes.
    pub fn writes(mut self, w: bool) -> Self {
        self.spec.writes = w;
        self
    }

    /// Replays recorded spans open-loop (see [`Experiment::replay`]).
    pub fn replay(mut self, spans: Vec<SpanRecord>) -> Self {
        self.spec.replay = Some(spans);
        self
    }

    /// Limits each stream to `n` requests (default: open-ended).
    pub fn requests_per_stream(mut self, n: u64) -> Self {
        self.spec.requests_per_stream = Some(n);
        self
    }

    /// Enables open-session mode: the node may start with zero streams
    /// and adopt sessions mid-run via stream injection (see
    /// [`Experiment::open_sessions`]).
    pub fn open_sessions(mut self, on: bool) -> Self {
        self.spec.open_sessions = on;
        self
    }

    /// Replaces the cost model.
    pub fn costs(mut self, c: CostModel) -> Self {
        self.spec.costs = c;
        self
    }

    /// Sets the warm-up period.
    pub fn warmup(mut self, d: SimDuration) -> Self {
        self.spec.warmup = d;
        self
    }

    /// Sets the measured window length.
    pub fn duration(mut self, d: SimDuration) -> Self {
        self.spec.duration = d;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.spec.seed = s;
        self
    }

    /// Installs a deterministic fault schedule for the run.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.spec.faults = Some(plan);
        self
    }

    /// Enables the observability layer (lifecycle spans and/or metric
    /// sampling) for the run. Strictly opt-in: a run with any
    /// [`ObsConfig`] produces results bit-identical to a run without one.
    pub fn observe(mut self, cfg: ObsConfig) -> Self {
        self.spec.obs = Some(cfg);
        self
    }

    /// Enables kernel self-profiling (per-event-class count/duration
    /// accounting in the dispatch loop, plus event-queue statistics).
    /// Strictly opt-in: a profiled run produces simulation results
    /// bit-identical to an unprofiled one; only the exported
    /// [`KernelProfile`] (wall-clock figures included) differs run to run.
    pub fn profile(mut self, cfg: ProfConfig) -> Self {
        self.spec.prof = Some(cfg);
        self
    }

    /// Finalizes the specification without running it.
    pub fn build(self) -> Experiment {
        self.spec
    }

    /// Builds and runs in one step.
    pub fn run(self) -> RunResult {
        self.spec.run()
    }
}

/// Measured outcome of one experiment run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Per-stream throughput in MBytes/s over the measured window.
    pub per_stream_mbs: Vec<f64>,
    /// Client-side response-time distribution (measured window only).
    pub response: LatencyHistogram,
    /// Bytes delivered inside the window.
    pub bytes_delivered: u64,
    /// Bytes each stream delivered inside the window (the exact integer
    /// numerators behind `per_stream_mbs`; the cluster layer sums these
    /// across nodes when a stream migrates mid-run).
    pub per_stream_bytes: Vec<u64>,
    /// When each stream's final response reached the client — `Some` only
    /// for streams that exhausted a finite request budget during the run.
    /// The client front-end tier reads these instants to compute
    /// per-session end-to-end latency.
    pub stream_done_at: Vec<Option<SimTime>>,
    /// Length of the realized measurement window.
    pub window: SimDuration,
    /// Stream-scheduler counters, when that frontend was used.
    pub server_metrics: Option<ServerMetrics>,
    /// Per-disk seek counts (for diagnostics).
    pub disk_seeks: Vec<u64>,
    /// Per-disk mechanism busy time (for diagnostics).
    pub disk_busy: Vec<SimDuration>,
    /// Per-disk media operations (for diagnostics).
    pub disk_ops: Vec<u64>,
    /// Per-disk transient read errors injected by the fault plan (all
    /// zero on healthy runs).
    pub disk_read_errors: Vec<u64>,
    /// Per-disk controller retries of errored fetches.
    pub disk_retries: Vec<u64>,
    /// Per-disk requests whose service time exceeded the configured
    /// per-request deadline.
    pub disk_timeouts: Vec<u64>,
    /// Controller prefetched bytes reclaimed before use (summed).
    pub ctrl_wasted_bytes: u64,
    /// Bytes the controllers pulled off the disks (summed; compare with
    /// `bytes_delivered` to see prefetch overshoot).
    pub ctrl_bytes_from_disks: u64,
    /// Total client requests completed inside the window.
    pub requests_completed: u64,
    /// Discrete events scheduled on the simulation kernel over the whole
    /// run (warm-up included) — the numerator for events/sec.
    pub events_simulated: u64,
    /// Phase-stamped lifecycle spans, when span recording was enabled
    /// (one per request completed inside the measured window).
    pub spans: Option<Vec<SpanRecord>>,
    /// Metric time series, when periodic sampling was enabled.
    pub metrics: Option<MetricSeries>,
    /// Kernel self-profile, when profiling was enabled. Event-class
    /// counts are deterministic; wall-clock nanoseconds are host
    /// measurements and vary run to run.
    pub prof: Option<KernelProfile>,
}

impl RunResult {
    /// System throughput: the sum of per-stream throughputs, exactly as the
    /// paper computes it.
    pub fn total_throughput_mbs(&self) -> f64 {
        self.per_stream_mbs.iter().sum()
    }

    /// Mean client-side response time in milliseconds.
    pub fn mean_response_ms(&self) -> f64 {
        self.response.mean().as_millis_f64()
    }

    /// Median client-side response time in milliseconds (0 if unmeasured).
    pub fn p50_response_ms(&self) -> f64 {
        self.response.quantile(0.5).map(|d| d.as_millis_f64()).unwrap_or(0.0)
    }

    /// 99th-percentile client-side response time in milliseconds.
    pub fn p99_response_ms(&self) -> f64 {
        self.response.quantile(0.99).map(|d| d.as_millis_f64()).unwrap_or(0.0)
    }

    /// Throughput per disk, assuming streams were spread evenly.
    pub fn per_disk_throughput_mbs(&self, disks: usize) -> f64 {
        self.total_throughput_mbs() / disks as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_are_valid() {
        for s in [NodeShape::single_disk(), NodeShape::eight_disk(), NodeShape::sixty_disk()] {
            assert!(s.validate().is_ok(), "{s:?}");
        }
        assert_eq!(NodeShape::sixty_disk().total_disks(), 60);
    }

    #[test]
    fn builder_defaults_validate() {
        let e = Experiment::builder().build();
        assert!(e.validate().is_ok());
        assert_eq!(e.total_streams(), 10);
        assert_eq!(e.request_blocks(), 128);
    }

    #[test]
    fn builder_setters_apply() {
        let e = Experiment::builder()
            .shape(NodeShape::eight_disk())
            .streams_per_disk(30)
            .request_size(128 * 1024)
            .frontend(Frontend::stream_scheduler_with_readahead(1024 * 1024))
            .placement(Placement::Interval(1 << 30))
            .requests_per_stream(100)
            .warmup(SimDuration::from_millis(100))
            .duration(SimDuration::from_secs(1))
            .seed(42)
            .build();
        assert_eq!(e.total_streams(), 240);
        assert!(
            matches!(e.frontend, Frontend::AllDispatched { read_ahead_bytes } if read_ahead_bytes == 1 << 20)
        );
        assert!(e.validate().is_ok());
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut e = Experiment::builder().build();
        e.streams_per_disk = 0;
        assert!(e.validate().is_err());
        let mut e = Experiment::builder().build();
        e.request_bytes = 0;
        assert!(e.validate().is_err());
        // A size that is not whole 512-byte blocks would be rounded up.
        let mut e = Experiment::builder().build();
        e.request_bytes = 1000;
        let err = e.validate().unwrap_err().to_string();
        assert!(err.contains("request size 1000 bytes"), "{err}");
        let e =
            Experiment::builder().frontend(Frontend::stream_scheduler_with_readahead(1000)).build();
        let err = e.validate().unwrap_err().to_string();
        assert!(err.contains("R = 1000 bytes"), "{err}");
        let mut e = Experiment::builder().build();
        e.duration = SimDuration::ZERO;
        assert!(e.validate().is_err());
    }

    #[test]
    fn fault_plans_are_validated_against_the_shape() {
        let plan = FaultPlan::new().straggler(0, 4.0, SimDuration::ZERO, None);
        let e = Experiment::builder().faults(plan.clone()).build();
        assert!(e.validate().is_ok());

        // Disk 3 does not exist on a single-disk node.
        let e = Experiment::builder().faults(FaultPlan::new().read_errors(3, 0.01)).build();
        assert!(e.validate().is_err());

        // Internally inconsistent plans are rejected too.
        let e = Experiment::builder()
            .faults(FaultPlan::new().straggler(0, 0.5, SimDuration::ZERO, None))
            .build();
        assert!(e.validate().is_err());
    }
}
