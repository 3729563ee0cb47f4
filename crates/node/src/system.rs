//! The storage-node discrete-event engine.
//!
//! [`NodeSim`] assembles clients, a request-path front end (direct, the
//! paper's stream scheduler, or a Linux-like kernel path), controllers
//! and disks, and runs the whole thing on one event queue. The paper's
//! measurement methodology is reproduced exactly: closed-loop clients with
//! one outstanding request per stream, header-only network, throughput as
//! the sum of per-stream throughputs over the measured window, response
//! time taken at the client.

use seqio_controller::{Controller, ControllerConfig, CtrlEvent, CtrlOutput, HostRequest};
use seqio_core::{ServerConfig, ServerOutput, SpanEvent, StorageServer};
use seqio_disk::{Direction, Disk, RequestId};
use seqio_hostsched::{BlockRequest, IoScheduler, RaOutcome, SchedDecision, StreamRa};
use seqio_simcore::{
    EventQueue, LatencyHistogram, MetricId, MetricsHub, ProfTally, SeqioError, SimDuration, SimRng,
    SimTime, SpanPhase,
};
use seqio_workload::{interval_offsets, uniform_offsets, ClientSet, StreamSpec};

use crate::experiment::{Experiment, Frontend, Placement, RunResult};
use crate::sim::{HealthSnapshot, StreamHandoff};
use crate::span::SpanRecord;

#[derive(Debug)]
enum Ev {
    /// Client request `id` arrives at the node.
    Arrive(u64),
    /// Send a request to controller `ctrl`.
    SubmitCtrl { ctrl: usize, req: HostRequest },
    /// A controller-internal event is due.
    CtrlInternal { ctrl: usize, ev: CtrlEvent },
    /// Controller `ctrl` finished its request `id` (fault-path
    /// annotations ride along for the span recorder).
    CtrlDone { ctrl: usize, id: u64, retries: u32, timed_out: bool },
    /// Response for client request `id` reaches the client.
    Deliver { id: u64, from_memory: bool },
    /// Stream-scheduler garbage-collection tick.
    Gc,
    /// Re-poll a Linux block scheduler (anticipation expiry).
    LinuxKick { disk: usize },
    /// Periodic observability sample (only scheduled when metric
    /// sampling is enabled; excluded from `events_simulated`).
    Sample,
}

/// Stable class names for the kernel self-profile, indexed by
/// [`Ev::class`] — one per `Ev` variant, in declaration order.
const EV_CLASS_NAMES: [&str; 8] = [
    "arrive",
    "submit_ctrl",
    "ctrl_internal",
    "ctrl_done",
    "deliver",
    "gc",
    "linux_kick",
    "sample",
];

impl Ev {
    /// Index into [`EV_CLASS_NAMES`] for profiling.
    fn class(&self) -> usize {
        match self {
            Ev::Arrive(_) => 0,
            Ev::SubmitCtrl { .. } => 1,
            Ev::CtrlInternal { .. } => 2,
            Ev::CtrlDone { .. } => 3,
            Ev::Deliver { .. } => 4,
            Ev::Gc => 5,
            Ev::LinuxKick { .. } => 6,
            Ev::Sample => 7,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct ClientMeta {
    stream: usize,
    disk: usize,
    lba: u64,
    blocks: u64,
    sent: SimTime,
}

/// What a controller-level request was for.
#[derive(Debug, Clone, Copy)]
enum Tag {
    /// A client request passed through directly.
    Client(u64),
    /// A stream-scheduler backend request.
    Backend(u64),
    /// A Linux read-ahead fetch for `stream` on `disk`.
    Fetch { disk: usize, stream: usize },
}

#[derive(Debug)]
struct LinuxDisk {
    sched: Box<dyn IoScheduler>,
    /// Per-stream read-ahead state, indexed by the dense global stream id.
    ra: Vec<Option<StreamRa>>,
    /// Client requests blocked on each stream's in-flight fetch, indexed by
    /// the dense global stream id (vectors are reused across fetches).
    waiters: Vec<Vec<u64>>,
    busy: bool,
    /// Blocks on the disk; read-ahead never fetches past them.
    blocks: u64,
}

#[derive(Debug)]
enum Fe {
    Direct,
    Stream(Box<StorageServer>),
    Linux(Vec<LinuxDisk>),
}

/// How client requests are produced.
#[derive(Debug)]
enum Drive {
    /// Closed loop: each stream re-issues after its completion.
    Closed(ClientSet),
    /// Open loop: arrivals at recorded timestamps.
    Replay,
}

/// Renumbers recorded stream ids to their rank among the distinct ids, so
/// the per-stream tables hold one entry per recorded stream whatever the
/// ids' size (ids `0..n` map to themselves). Returns the stream count.
fn rank_stream_ids(spans: &mut [SpanRecord]) -> usize {
    let mut ids: Vec<usize> = spans.iter().map(|s| s.stream).collect();
    ids.sort_unstable();
    ids.dedup();
    for s in spans.iter_mut() {
        s.stream = ids.binary_search(&s.stream).expect("every id was collected");
    }
    ids.len()
}

/// A span being assembled for an in-flight client request (slab-parallel
/// to `NodeSim::meta`).
#[derive(Debug, Clone, Copy, Default)]
struct PartialSpan {
    stamps: [Option<SimTime>; SpanPhase::COUNT],
    retries: u32,
    timed_out: bool,
}

/// Metric handles registered by the node's sampler, in registration order.
#[derive(Debug)]
struct HubIds {
    /// Per-disk gauges/counters, indexed by global disk id.
    queue_depth: Vec<MetricId>,
    busy_frac: Vec<MetricId>,
    retries: Vec<MetricId>,
    requests_completed: MetricId,
    bytes_delivered: MetricId,
    /// Stream-scheduler metrics (absent on direct/Linux front ends).
    server: Option<ServerIds>,
}

#[derive(Debug)]
struct ServerIds {
    dispatched_streams: MetricId,
    live_streams: MetricId,
    staged_bytes: MetricId,
    memory_capacity: MetricId,
    streams_detected: MetricId,
    streams_gced: MetricId,
    memory_hits: MetricId,
    admissions: MetricId,
}

/// Opt-in observability state. Recording never feeds back into the
/// simulation: sampler events are excluded from `events_simulated`, span
/// stamping only reads model state, and no extra randomness is drawn.
#[derive(Debug)]
struct Obs {
    spans_on: bool,
    /// Metric sampling period ([`SimDuration::ZERO`] when metrics are off).
    interval: SimDuration,
    hub: Option<(MetricsHub, HubIds)>,
    /// Last sampled per-disk cumulative busy time, for windowed busy-fraction.
    prev_busy: Vec<SimDuration>,
    prev_at: SimTime,
    /// Partial spans, slab-parallel to `NodeSim::meta`.
    slots: Vec<PartialSpan>,
    /// Finished spans delivered inside the measured window.
    done: Vec<SpanRecord>,
    /// Reused buffer for draining the server's span log.
    scratch: Vec<SpanEvent>,
    /// Sampler events pushed onto the queue, subtracted from
    /// `scheduled_count()` so `events_simulated` stays bit-identical with
    /// observability off.
    pushes: u64,
}

impl Obs {
    /// Records `phase` for client `id` at `at`; the first stamp per phase
    /// wins (a covering fill may be re-announced for already-issued
    /// requests).
    fn stamp(&mut self, id: u64, phase: SpanPhase, at: SimTime) {
        if !self.spans_on {
            return;
        }
        let slot = &mut self.slots[id as usize].stamps[phase.index()];
        if slot.is_none() {
            *slot = Some(at);
        }
    }

    /// Merges fault annotations into the span of client `id`.
    fn annotate(&mut self, id: u64, retries: u32, timed_out: bool) {
        if !self.spans_on {
            return;
        }
        let slot = &mut self.slots[id as usize];
        slot.retries = slot.retries.max(retries);
        slot.timed_out |= timed_out;
    }
}

/// A steppable storage-node simulation: the engine behind every run.
///
/// The node follows the [`SimComponent`] contract (`init /
/// peek_next_time / advance_to`), so an outer driver — the cluster
/// co-simulation — can advance several nodes on one shared clock,
/// observe their health at epoch boundaries, and migrate live streams
/// between them mid-run. [`run_node`](crate::run_node) itself is
/// `init + advance_to(MAX) + finish` on the same engine, so stepping a
/// node in epochs is bit-identical to running it standalone.
///
/// # Examples
///
/// Drive a node in 50 ms epochs; the result is bit-identical to
/// [`Experiment::run`]:
///
/// ```
/// use seqio_node::{Experiment, NodeSim};
/// use seqio_simcore::{SimComponent, SimDuration, SimTime};
///
/// let spec = Experiment::builder()
///     .streams_per_disk(4)
///     .warmup(SimDuration::from_millis(100))
///     .duration(SimDuration::from_millis(400))
///     .build();
/// let mut sim = NodeSim::new(&spec).unwrap();
/// sim.init();
/// let mut t = SimTime::ZERO;
/// while sim.peek_next_time().is_some() {
///     t += SimDuration::from_millis(50);
///     sim.advance_to(t);
/// }
/// let stepped = sim.finish();
/// let plain = spec.run();
/// assert_eq!(stepped.bytes_delivered, plain.bytes_delivered);
/// assert_eq!(stepped.events_simulated, plain.events_simulated);
/// ```
///
/// [`SimComponent`]: seqio_simcore::SimComponent
#[derive(Debug)]
pub struct NodeSim {
    spec: Experiment,
    q: EventQueue<Ev>,
    rng: SimRng,
    controllers: Vec<Controller>,
    dpc: usize,
    fe: Fe,
    drive: Drive,
    /// In-flight client requests, slab-indexed by client id. Slot indices
    /// are reused via `meta_free` — safe because a client id is only ever
    /// visible between allocation and delivery, and never recorded in
    /// results or traces.
    meta: Vec<Option<ClientMeta>>,
    meta_free: Vec<u64>,
    /// In-flight controller requests, slab-indexed by the controller-level
    /// request id (ids are node-global, so one slab covers all controllers).
    tags: Vec<Option<Tag>>,
    tags_free: Vec<u64>,
    /// Scratch buffers so the per-event dispatch loops never allocate.
    server_scratch: Vec<ServerOutput>,
    ctrl_scratch: Vec<CtrlOutput>,
    cpu_free: SimTime,
    warmup_at: SimTime,
    stop_at: SimTime,
    /// Set once an event past `stop_at` is reached; the node then refuses
    /// to advance further (the steppable equivalent of the run loop's
    /// `break`).
    stopped: bool,
    /// Streams adopted from another node so far (salts the per-injection
    /// RNG derivation).
    migrations: u64,
    stream_bytes: Vec<u64>,
    /// When each stream's final response reached the client, `None` while
    /// the stream still has requests (or never finished). Plain
    /// bookkeeping off existing completions — no events, no RNG — so
    /// recording it cannot perturb any run. The client front-end tier
    /// reads it to time session completions.
    stream_done_at: Vec<Option<SimTime>>,
    response: LatencyHistogram,
    last_delivery: SimTime,
    requests_completed: u64,
    obs: Option<Obs>,
    /// Kernel self-profiling tally (`None` = the dispatch loop takes its
    /// historical branch-free path). Profiling only reads the host clock
    /// around dispatch; it never touches simulation state.
    prof: Option<ProfTally>,
}

impl NodeSim {
    /// Validates `spec` and builds the steppable node.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint of the specification.
    pub fn new(spec: &Experiment) -> Result<NodeSim, SeqioError> {
        spec.validate()?;
        let mut spec = spec.clone();
        let mut rng = SimRng::seed_from(spec.seed);
        let dpc = spec.shape.disks_per_controller;
        let mut controllers = Vec::with_capacity(spec.shape.controllers);
        for c in 0..spec.shape.controllers {
            let mut cfg = ControllerConfig { ports: dpc, ..spec.shape.controller.clone() };
            if let Some(policy) = spec.faults.as_ref().and_then(|pl| pl.retry_policy()) {
                cfg.retry = policy;
            }
            let disks = (0..dpc)
                .map(|p| {
                    let global = c * dpc + p;
                    let mut disk =
                        Disk::new(spec.shape.disk.clone(), spec.seed ^ (global as u64) << 8 | 1);
                    if let Some(df) = spec.faults.as_ref().and_then(|pl| pl.disk(global)) {
                        // The fault RNG stream is independent of the disk's
                        // rotational-phase seed so enabling faults never
                        // perturbs healthy arithmetic.
                        let fault_seed =
                            spec.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (global as u64 + 1);
                        disk.install_faults(df.clone(), fault_seed);
                    }
                    disk
                })
                .collect();
            controllers.push(Controller::new(cfg, disks));
        }
        let disk_blocks = spec.shape.disk_blocks();
        let total_disks = spec.shape.total_disks();

        // Stream layout: `streams_per_disk` per spindle, unless the spec
        // carries explicit per-disk counts (cluster sharding).
        let per_disk = spec.per_disk_streams();
        let mut specs = Vec::with_capacity(per_disk.iter().sum());
        let request_blocks = spec.request_blocks();
        let reqs = spec.requests_per_stream.unwrap_or(u64::MAX);
        debug_assert_eq!(per_disk.len(), total_disks);
        for (d, &count) in per_disk.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let offsets = match spec.placement {
                Placement::Uniform => uniform_offsets(disk_blocks, count),
                Placement::Interval(bytes) => interval_offsets(
                    disk_blocks,
                    count,
                    bytes.div_ceil(512),
                    // Open-ended streams just need their start to fit; finite
                    // ones must fit their whole run in the interval.
                    request_blocks * reqs.min(bytes.div_ceil(512) / request_blocks.max(1)),
                ),
            };
            for start in offsets {
                specs.push(StreamSpec {
                    disk: d,
                    start,
                    request_blocks,
                    num_requests: reqs,
                    pattern: spec.pattern,
                });
            }
        }
        let (drive, n_streams) = match &mut spec.replay {
            None => {
                let clients = ClientSet::new(specs, disk_blocks, &mut rng);
                let n = clients.len();
                (Drive::Closed(clients), n)
            }
            Some(spans) => (Drive::Replay, rank_stream_ids(spans)),
        };
        let mut fe = match &spec.frontend {
            Frontend::Direct => Fe::Direct,
            Frontend::StreamScheduler(cfg) => Fe::Stream(Box::new(StorageServer::new(
                cfg.clone(),
                vec![disk_blocks; total_disks],
            ))),
            Frontend::AllDispatched { read_ahead_bytes } => {
                let cfg = ServerConfig::all_dispatched(spec.total_streams(), *read_ahead_bytes);
                Fe::Stream(Box::new(StorageServer::new(cfg, vec![disk_blocks; total_disks])))
            }
            Frontend::Linux { scheduler, .. } => Fe::Linux(
                (0..total_disks)
                    .map(|_| LinuxDisk {
                        sched: scheduler.build(),
                        ra: std::iter::repeat_with(|| None).take(n_streams).collect(),
                        waiters: vec![Vec::new(); n_streams],
                        busy: false,
                        blocks: disk_blocks,
                    })
                    .collect(),
            ),
        };
        let warmup_at = SimTime::ZERO + spec.warmup;
        let stop_at = warmup_at + spec.duration;
        let obs = spec.obs.filter(|o| o.is_enabled()).map(|cfg| {
            if cfg.spans {
                if let Fe::Stream(server) = &mut fe {
                    server.enable_span_log();
                }
            }
            let hub = cfg.metrics.then(|| {
                let mut hub = MetricsHub::new(cfg.sample_interval);
                let mut queue_depth = Vec::with_capacity(total_disks);
                let mut busy_frac = Vec::with_capacity(total_disks);
                let mut retries = Vec::with_capacity(total_disks);
                for d in 0..total_disks {
                    queue_depth.push(hub.gauge(&format!("disk{d}.queue_depth"), "requests"));
                    busy_frac.push(hub.gauge(&format!("disk{d}.busy_frac"), "fraction"));
                    retries.push(hub.counter(&format!("disk{d}.retries"), "retries"));
                }
                let requests_completed = hub.counter("node.requests_completed", "requests");
                let bytes_delivered = hub.counter("node.bytes_delivered", "bytes");
                let server = matches!(fe, Fe::Stream(_)).then(|| ServerIds {
                    dispatched_streams: hub.gauge("server.dispatched_streams", "streams"),
                    live_streams: hub.gauge("server.live_streams", "streams"),
                    staged_bytes: hub.gauge("server.staged_bytes", "bytes"),
                    memory_capacity: hub.gauge("server.memory_capacity", "bytes"),
                    streams_detected: hub.counter("server.streams_detected", "streams"),
                    streams_gced: hub.counter("server.streams_gced", "streams"),
                    memory_hits: hub.counter("server.memory_hits", "requests"),
                    admissions: hub.counter("server.admissions", "admissions"),
                });
                let ids = HubIds {
                    queue_depth,
                    busy_frac,
                    retries,
                    requests_completed,
                    bytes_delivered,
                    server,
                };
                (hub, ids)
            });
            Obs {
                spans_on: cfg.spans,
                interval: if cfg.metrics { cfg.sample_interval } else { SimDuration::ZERO },
                hub,
                prev_busy: vec![SimDuration::ZERO; total_disks],
                prev_at: SimTime::ZERO,
                slots: Vec::new(),
                done: Vec::new(),
                scratch: Vec::new(),
                pushes: 0,
            }
        });
        let prof = spec.prof.map(|cfg| ProfTally::new(cfg, &EV_CLASS_NAMES));
        Ok(NodeSim {
            spec,
            q: EventQueue::new(),
            rng,
            controllers,
            dpc,
            fe,
            drive,
            meta: Vec::new(),
            meta_free: Vec::new(),
            tags: Vec::new(),
            tags_free: Vec::new(),
            server_scratch: Vec::new(),
            ctrl_scratch: Vec::new(),
            cpu_free: SimTime::ZERO,
            warmup_at,
            stop_at,
            stopped: false,
            migrations: 0,
            stream_bytes: vec![0; n_streams],
            stream_done_at: vec![None; n_streams],
            response: LatencyHistogram::new(),
            last_delivery: SimTime::ZERO,
            requests_completed: 0,
            obs,
            prof,
        })
    }

    /// Schedules the node's initial events: the kickoff burst (closed
    /// loop) or the recorded arrivals (replay), the stream scheduler's GC
    /// tick, and the observability sampler.
    ///
    /// Closed loop: every stream sends its first request, slightly
    /// staggered so arrival ties do not all land on one instant.
    pub fn init(&mut self) {
        match &mut self.drive {
            Drive::Closed(clients) => {
                let initial = clients.initial_requests();
                let net = self.spec.costs.network_oneway;
                for (i, r) in initial.into_iter().enumerate() {
                    let sent = SimTime::ZERO + SimDuration::from_micros(i as u64 % 997);
                    let id = self.alloc_client_id(r.stream, r.disk, r.lba, r.blocks, sent);
                    self.q.push(sent + net, Ev::Arrive(id));
                }
            }
            Drive::Replay => {
                let spans = self.spec.replay.clone().expect("replay drive implies spans");
                let net = self.spec.costs.network_oneway;
                for s in spans {
                    let sent = s.enqueued();
                    let id = self.alloc_client_id(s.stream, s.disk, s.lba, s.blocks, sent);
                    self.q.push(sent + net, Ev::Arrive(id));
                }
            }
        }
        if matches!(self.fe, Fe::Stream(_)) {
            let period = match &self.fe {
                Fe::Stream(s) => s.gc_period(),
                _ => unreachable!(),
            };
            self.q.push(SimTime::ZERO + period, Ev::Gc);
            self.update_degraded(SimTime::ZERO);
        }
        if let Some(obs) = &mut self.obs {
            if obs.interval > SimDuration::ZERO {
                self.q.push(SimTime::ZERO + obs.interval, Ev::Sample);
                obs.pushes += 1;
            }
        }
    }

    /// When the node next wants to run: the timestamp of its earliest
    /// pending event, or `None` once it is drained or every remaining
    /// event lies past the stop time (the steppable form of the run
    /// loop's `now > stop_at` break).
    pub fn peek_next_time(&self) -> Option<SimTime> {
        if self.stopped {
            return None;
        }
        self.q.peek_time().filter(|&t| t <= self.stop_at)
    }

    /// Handles every pending event with timestamp `<= limit`, in queue
    /// order. Chunked calls with non-decreasing limits pop the exact same
    /// event sequence as one call with `limit = SimTime::MAX`, so epoch
    /// driving is bit-identical to a standalone run.
    pub fn advance_to(&mut self, limit: SimTime) {
        while !self.stopped {
            let Some(t) = self.q.peek_time() else { break };
            if t > limit {
                break;
            }
            let (now, ev) = self.q.pop().expect("peeked event exists");
            if now > self.stop_at {
                self.stopped = true;
                break;
            }
            if self.prof.is_some() {
                self.handle_profiled(now, ev);
            } else {
                self.handle(now, ev);
            }
        }
    }

    /// Dispatches one event with self-profiling around it: books the
    /// event's class and (when configured) the host-clock nanoseconds its
    /// handler took. The simulation sees the exact same `handle` call.
    fn handle_profiled(&mut self, now: SimTime, ev: Ev) {
        let class = ev.class();
        let wall = self.prof.as_ref().is_some_and(ProfTally::wall_time);
        let t0 = wall.then(std::time::Instant::now);
        self.handle(now, ev);
        let nanos = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
        if let Some(p) = self.prof.as_mut() {
            p.record(class, nanos);
        }
    }

    /// Consumes the node and assembles its [`RunResult`] from its final
    /// state.
    pub fn finish(self) -> RunResult {
        let effective_end = self.last_delivery.min(self.stop_at).max(self.warmup_at);
        let window = effective_end.duration_since(self.warmup_at);
        let secs = window.as_secs_f64();
        let per_stream_mbs = self
            .stream_bytes
            .iter()
            .map(|&b| if secs > 0.0 { b as f64 / (1024.0 * 1024.0) / secs } else { 0.0 })
            .collect();
        let server_metrics = match &self.fe {
            Fe::Stream(s) => Some(s.metrics()),
            _ => None,
        };
        let mut disk_seeks = Vec::new();
        let mut disk_busy = Vec::new();
        let mut disk_ops = Vec::new();
        let mut disk_read_errors = Vec::new();
        let mut disk_retries = Vec::new();
        let mut disk_timeouts = Vec::new();
        let mut ctrl_wasted_bytes = 0;
        let mut ctrl_bytes_from_disks = 0;
        for c in &self.controllers {
            ctrl_wasted_bytes += c.cache_wasted_bytes();
            ctrl_bytes_from_disks += c.metrics().bytes_from_disks;
            for p in 0..self.dpc {
                let m = c.disk(p).metrics();
                disk_seeks.push(m.seeks);
                disk_busy.push(m.busy_time);
                disk_ops.push(m.media_ops);
                disk_read_errors.push(m.read_errors);
                let fc = c.fault_counters()[p];
                disk_retries.push(fc.retries);
                disk_timeouts.push(fc.timeouts);
            }
        }
        // Sampler events are bookkeeping, not simulation: subtract them so
        // `events_simulated` is bit-identical with observability off.
        let obs_pushes = self.obs.as_ref().map_or(0, |o| o.pushes);
        let prof = self.prof.map(|t| t.finish(self.q.stats()));
        let (spans, metrics) = match self.obs {
            Some(obs) => {
                (obs.spans_on.then_some(obs.done), obs.hub.map(|(hub, _)| hub.into_series()))
            }
            None => (None, None),
        };
        RunResult {
            per_stream_mbs,
            response: self.response,
            bytes_delivered: self.stream_bytes.iter().sum(),
            per_stream_bytes: self.stream_bytes,
            stream_done_at: self.stream_done_at,
            window,
            server_metrics,
            disk_seeks,
            disk_busy,
            disk_ops,
            disk_read_errors,
            disk_retries,
            disk_timeouts,
            ctrl_wasted_bytes,
            ctrl_bytes_from_disks,
            requests_completed: self.requests_completed,
            events_simulated: self.q.scheduled_count() - obs_pushes,
            spans,
            metrics,
            prof,
        }
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Arrive(id) => self.on_arrive(now, id),
            Ev::SubmitCtrl { ctrl, req } => {
                let mut outs = std::mem::take(&mut self.ctrl_scratch);
                self.controllers[ctrl].submit_into(now, req, &mut outs);
                self.map_ctrl_outputs(ctrl, &mut outs);
                self.ctrl_scratch = outs;
            }
            Ev::CtrlInternal { ctrl, ev } => {
                let mut outs = std::mem::take(&mut self.ctrl_scratch);
                self.controllers[ctrl].on_event_into(now, ev, &mut outs);
                self.map_ctrl_outputs(ctrl, &mut outs);
                self.ctrl_scratch = outs;
            }
            Ev::CtrlDone { ctrl, id, retries, timed_out } => {
                self.on_ctrl_done(now, ctrl, id, retries, timed_out)
            }
            Ev::Deliver { id, from_memory } => self.on_deliver(now, id, from_memory),
            Ev::Gc => {
                self.update_degraded(now);
                if let Fe::Stream(server) = &mut self.fe {
                    let mut outs = std::mem::take(&mut self.server_scratch);
                    server.on_gc_into(now, &mut outs);
                    let period = server.gc_period();
                    self.drain_server_spans();
                    self.apply_server_outputs(now, false, &mut outs);
                    self.server_scratch = outs;
                    self.q.push(now + period, Ev::Gc);
                }
            }
            Ev::LinuxKick { disk } => self.linux_kick(now, disk),
            Ev::Sample => self.on_sample(now),
        }
    }

    /// Takes one metric sample and reschedules the sampler. Read-only with
    /// respect to the simulation: every value is computed from existing
    /// model state, and the re-pushed event is excluded from
    /// `events_simulated`.
    fn on_sample(&mut self, now: SimTime) {
        let Some(obs) = self.obs.as_mut() else { return };
        let Some((hub, ids)) = obs.hub.as_mut() else { return };
        let elapsed = now.duration_since(obs.prev_at);
        let mut d = 0;
        for c in &self.controllers {
            let fcs = c.fault_counters();
            for (p, fc) in fcs.iter().enumerate().take(self.dpc) {
                let disk = c.disk(p);
                hub.set(ids.queue_depth[d], disk.queue_len() as f64);
                let busy = disk.metrics().busy_time;
                let frac = if elapsed > SimDuration::ZERO {
                    busy.saturating_sub(obs.prev_busy[d]).as_nanos() as f64
                        / elapsed.as_nanos() as f64
                } else {
                    0.0
                };
                hub.set(ids.busy_frac[d], frac);
                obs.prev_busy[d] = busy;
                hub.set(ids.retries[d], fc.retries as f64);
                d += 1;
            }
        }
        obs.prev_at = now;
        hub.set(ids.requests_completed, self.requests_completed as f64);
        hub.set(ids.bytes_delivered, self.stream_bytes.iter().sum::<u64>() as f64);
        if let (Some(sids), Fe::Stream(server)) = (&ids.server, &self.fe) {
            let m = server.metrics();
            hub.set(sids.dispatched_streams, server.dispatched_streams() as f64);
            hub.set(sids.live_streams, server.live_streams() as f64);
            hub.set(sids.staged_bytes, server.memory_used() as f64);
            hub.set(sids.memory_capacity, server.config().memory_bytes as f64);
            hub.set(sids.streams_detected, m.streams_detected as f64);
            hub.set(sids.streams_gced, m.streams_gced as f64);
            hub.set(sids.memory_hits, m.memory_hits as f64);
            hub.set(sids.admissions, m.admissions as f64);
        }
        hub.sample(now);
        let next = now + obs.interval;
        if next <= self.stop_at {
            self.q.push(next, Ev::Sample);
            obs.pushes += 1;
        }
    }

    /// Drains span events the stream scheduler logged during its last call
    /// and stamps the matching client spans. No-op unless spans are on.
    fn drain_server_spans(&mut self) {
        let Some(obs) = self.obs.as_mut().filter(|o| o.spans_on) else { return };
        let Fe::Stream(server) = &mut self.fe else { return };
        let mut scratch = std::mem::take(&mut obs.scratch);
        server.drain_span_log(&mut scratch);
        for ev in scratch.drain(..) {
            match ev {
                SpanEvent::Classified { client, at } => {
                    obs.stamp(client, SpanPhase::Classified, at)
                }
                SpanEvent::Admitted { client, at } => {
                    obs.stamp(client, SpanPhase::DispatchAdmitted, at)
                }
                SpanEvent::DiskIssued { client, at } => {
                    obs.stamp(client, SpanPhase::DiskIssued, at)
                }
                SpanEvent::Faulted { client, retries, timed_out } => {
                    obs.annotate(client, retries, timed_out)
                }
            }
        }
        obs.scratch = scratch;
    }

    // ----- migration & health (cluster co-simulation) -----------------

    /// Retires local stream `stream` for migration: captures its unissued
    /// tail and exhausts the local generator, so the stream issues nothing
    /// further here (a request already in flight still completes, and
    /// counts, on this node). Returns `None` when nothing is left to
    /// migrate, and on replay (open-loop) drives.
    pub fn retire_stream(&mut self, stream: usize) -> Option<StreamHandoff> {
        match &mut self.drive {
            Drive::Closed(clients) => {
                clients.retire_stream(stream).map(|remainder| StreamHandoff { remainder })
            }
            Drive::Replay => None,
        }
    }

    /// Adopts a migrated stream at time `at` and returns its new local
    /// slot: appends a generator for the handoff, grows every per-stream
    /// table, and restarts the closed loop by scheduling the stream's
    /// first arrival.
    ///
    /// The injection RNG is derived from the node seed and an injection
    /// counter — never drawn from the node's main RNG stream — so a run
    /// that performs no injections is unperturbed.
    ///
    /// # Panics
    ///
    /// Panics on replay (open-loop) drives and if the handoff names a
    /// disk the node does not have.
    pub fn inject_stream(&mut self, at: SimTime, handoff: StreamHandoff) -> usize {
        let spec = handoff.remainder;
        let disks = self.spec.shape.total_disks();
        assert!(spec.disk < disks, "injected stream names disk {} of {disks}", spec.disk);
        let seq = self.migrations;
        self.migrations += 1;
        // SplitMix64 finalizer over (node seed, injection index), salted so
        // it cannot collide with the disk or fault seed streams.
        let mut z =
            self.spec.seed ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x6d69_6772_6174_6531;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let rng = SimRng::seed_from(z ^ (z >> 31));
        let slot = {
            let Drive::Closed(clients) = &mut self.drive else {
                panic!("stream migration requires closed-loop clients")
            };
            clients.inject_stream(spec, rng)
        };
        debug_assert_eq!(slot, self.stream_bytes.len());
        self.stream_bytes.push(0);
        self.stream_done_at.push(None);
        if let Fe::Linux(disks) = &mut self.fe {
            for d in disks {
                d.ra.push(None);
                d.waiters.push(Vec::new());
            }
        }
        let kick = {
            let Drive::Closed(clients) = &mut self.drive else { unreachable!() };
            clients.kickoff(slot)
        };
        match kick {
            Some(r) => {
                let net = self.net();
                let id = self.alloc_client_id(r.stream, r.disk, r.lba, r.blocks, at);
                self.q.push(at + net, Ev::Arrive(id));
            }
            // Its first request would cross its disk's end: the stream
            // finishes on arrival.
            None => self.stream_done_at[slot] = Some(at),
        }
        slot
    }

    /// `true` while local stream `stream` still has requests to issue.
    pub fn stream_live(&self, stream: usize) -> bool {
        match &self.drive {
            Drive::Closed(c) => c.stream_live(stream),
            Drive::Replay => false,
        }
    }

    /// When local stream `stream`'s final response reached the client, if
    /// it has finished (the instant the client front-end tier times a
    /// session's storage completion from).
    pub fn stream_done_at(&self, stream: usize) -> Option<SimTime> {
        self.stream_done_at.get(stream).copied().flatten()
    }

    /// The (node-local) disk index local stream `stream` targets.
    pub fn stream_disk(&self, stream: usize) -> usize {
        match &self.drive {
            Drive::Closed(c) => c.stream_spec(stream).disk,
            Drive::Replay => 0,
        }
    }

    /// Streams on the node that still have requests to issue.
    pub fn live_streams(&self) -> usize {
        match &self.drive {
            Drive::Closed(c) => c.live_count(),
            Drive::Replay => 0,
        }
    }

    /// A model-state [`HealthSnapshot`] at time `at`. Reads only
    /// simulation state — disk queues, cumulative busy time, the fault
    /// plan — never the opt-in recorder, so polling it cannot perturb
    /// results or depend on whether observability is enabled.
    pub fn health(&self, at: SimTime) -> HealthSnapshot {
        let disks = self.spec.shape.total_disks();
        let mut queue_depths = Vec::with_capacity(disks);
        let mut busy_time = Vec::with_capacity(disks);
        for c in &self.controllers {
            for p in 0..self.dpc {
                let d = c.disk(p);
                queue_depths.push(d.queue_len());
                busy_time.push(d.metrics().busy_time);
            }
        }
        let straggler_factors = (0..disks)
            .map(|d| self.spec.faults.as_ref().map_or(1.0, |pl| pl.straggler_factor(d, at)))
            .collect();
        let staged_bytes = match &self.fe {
            Fe::Stream(server) => server.memory_used(),
            Fe::Direct | Fe::Linux(_) => 0,
        };
        HealthSnapshot {
            queue_depths,
            busy_time,
            straggler_factors,
            live_streams: self.live_streams(),
            staged_bytes,
        }
    }

    /// Applies a mid-run retune of the stream scheduler's dynamic knobs —
    /// `D`, `R`, `N` and the degraded-rotate threshold — between events.
    /// `M` stays fixed, so the new working set must satisfy
    /// `D * R * N <= M`. The change takes effect on the scheduler's next
    /// admission/issue path; a run whose controller never calls this is
    /// bit-identical to the static tune.
    ///
    /// # Errors
    ///
    /// Rejects invalid tunes (leaving the configuration untouched) and
    /// nodes whose frontend is not the stream scheduler.
    pub fn retune(
        &mut self,
        dispatch_streams: usize,
        read_ahead_bytes: u64,
        requests_per_residency: u64,
        degraded_rotate_threshold: f64,
    ) -> Result<(), SeqioError> {
        let Fe::Stream(server) = &mut self.fe else {
            return Err(SeqioError::Experiment(
                "retune requires the stream-scheduler frontend".into(),
            ));
        };
        server.retune(
            dispatch_streams,
            read_ahead_bytes,
            requests_per_residency,
            degraded_rotate_threshold,
        )
    }

    // ----- client side ------------------------------------------------

    fn alloc_client_id(
        &mut self,
        stream: usize,
        disk: usize,
        lba: u64,
        blocks: u64,
        sent: SimTime,
    ) -> u64 {
        let meta = ClientMeta { stream, disk, lba, blocks, sent };
        let id = match self.meta_free.pop() {
            Some(id) => {
                self.meta[id as usize] = Some(meta);
                id
            }
            None => {
                self.meta.push(Some(meta));
                self.meta.len() as u64 - 1
            }
        };
        if let Some(obs) = self.obs.as_mut().filter(|o| o.spans_on) {
            let idx = id as usize;
            if obs.slots.len() <= idx {
                obs.slots.resize(idx + 1, PartialSpan::default());
            }
            obs.slots[idx] = PartialSpan::default();
            obs.slots[idx].stamps[SpanPhase::Enqueued.index()] = Some(sent);
        }
        id
    }

    fn net(&self) -> SimDuration {
        self.spec.costs.network_oneway
    }

    fn on_deliver(&mut self, now: SimTime, id: u64, from_memory: bool) {
        let meta = self.meta[id as usize].take().expect("delivery for unknown request");
        self.meta_free.push(id);
        if now >= self.warmup_at && now <= self.stop_at {
            self.stream_bytes[meta.stream] += meta.blocks * 512;
            self.response.record(now.duration_since(meta.sent));
            self.requests_completed += 1;
            if let Some(obs) = self.obs.as_mut().filter(|o| o.spans_on) {
                obs.stamp(id, SpanPhase::Delivered, now);
                let slot = obs.slots[id as usize];
                obs.done.push(SpanRecord {
                    stream: meta.stream,
                    disk: meta.disk,
                    lba: meta.lba,
                    blocks: meta.blocks,
                    from_memory,
                    retries: slot.retries,
                    timed_out: slot.timed_out,
                    stamps: slot.stamps,
                });
            }
        }
        self.last_delivery = now;
        let Drive::Closed(clients) = &mut self.drive else { return };
        if let Some(next) = clients.on_complete(meta.stream) {
            let think = if from_memory {
                self.spec.costs.hit_turnaround
            } else {
                let mean =
                    self.spec.costs.wake_per_stream.as_secs_f64() * self.stream_bytes.len() as f64;
                let jitter = if mean > 0.0 {
                    SimDuration::from_secs_f64(self.rng.exponential(mean))
                } else {
                    SimDuration::ZERO
                };
                self.spec.costs.wake_base + jitter
            };
            let sent = now + think;
            let cid = self.alloc_client_id(next.stream, next.disk, next.lba, next.blocks, sent);
            self.q.push(sent + self.net(), Ev::Arrive(cid));
        } else if !clients.stream_live(meta.stream) {
            // The stream's final response just reached the client: the
            // session is complete end to end (at the storage tier).
            self.stream_done_at[meta.stream] = Some(now);
        }
    }

    // ----- node front ends ----------------------------------------------

    fn on_arrive(&mut self, now: SimTime, id: u64) {
        let meta = self.meta[id as usize].expect("arrival for unknown request");
        match &mut self.fe {
            Fe::Direct => {
                let at = self.charge(now, self.spec.costs.cpu_request);
                if let Some(obs) = self.obs.as_mut() {
                    obs.stamp(id, SpanPhase::DiskIssued, at);
                }
                let write = self.spec.writes;
                self.submit_to_disk(at, meta.disk, meta.lba, meta.blocks, write, Tag::Client(id));
            }
            Fe::Stream(server) => {
                let req = seqio_core::ClientRequest {
                    id,
                    disk: meta.disk,
                    lba: meta.lba,
                    blocks: meta.blocks,
                    write: self.spec.writes,
                };
                let mut outs = std::mem::take(&mut self.server_scratch);
                server.on_client_request_into(now, req, &mut outs);
                self.drain_server_spans();
                self.apply_server_outputs(now, false, &mut outs);
                self.server_scratch = outs;
            }
            Fe::Linux(disks) => {
                let d = &mut disks[meta.disk];
                let end = d.blocks;
                let ra = d.ra[meta.stream].get_or_insert_with(|| StreamRa::new(end));
                match ra.on_read(meta.lba, meta.blocks) {
                    RaOutcome::Hit { prefetch } => {
                        let at = now + self.spec.costs.cpu_request;
                        self.q.push(at, Ev::Deliver { id, from_memory: true });
                        if let Some((lba, blocks)) = prefetch {
                            d.sched.add(
                                BlockRequest { id: 0, process: meta.stream, lba, blocks },
                                now,
                            );
                        }
                        self.linux_kick(now, meta.disk);
                    }
                    RaOutcome::Blocked => {
                        d.waiters[meta.stream].push(id);
                    }
                    RaOutcome::Miss { lba, blocks } => {
                        d.waiters[meta.stream].push(id);
                        d.sched.add(BlockRequest { id: 0, process: meta.stream, lba, blocks }, now);
                        self.linux_kick(now, meta.disk);
                    }
                }
            }
        }
    }

    /// Applies stream-scheduler outputs, charging server CPU per action.
    /// Drains `outs` so the caller can reuse the buffer. `from_disk` says
    /// whether the outputs came from a disk completion (the span recorder
    /// uses it to tell "data just landed" from "data was already staged").
    fn apply_server_outputs(
        &mut self,
        now: SimTime,
        from_disk: bool,
        outs: &mut Vec<ServerOutput>,
    ) {
        for o in outs.drain(..) {
            match o {
                ServerOutput::SubmitDisk(b) => {
                    let mut cost = self.spec.costs.cpu_request;
                    if b.admitted {
                        cost = cost
                            + self.spec.costs.swap_fixed
                            + self
                                .spec
                                .costs
                                .swap_per_mib
                                .mul_f64(b.blocks as f64 * 512.0 / (1024.0 * 1024.0));
                    }
                    let at = self.charge(now, cost);
                    self.submit_to_disk(at, b.disk, b.lba, b.blocks, b.write, Tag::Backend(b.id));
                }
                ServerOutput::CompleteClient { client, from_memory } => {
                    if let Some(obs) = self.obs.as_mut() {
                        // Data served straight from disk (direct pass-through
                        // or a fill landing) reached the device now; a memory
                        // hit on arrival or GC only proves it was staged.
                        if !from_memory || from_disk {
                            obs.stamp(client, SpanPhase::DiskComplete, now);
                        }
                        obs.stamp(client, SpanPhase::Staged, now);
                    }
                    let at = self.charge(now, self.spec.costs.cpu_completion);
                    self.q.push(at + self.net(), Ev::Deliver { id: client, from_memory });
                }
            }
        }
    }

    /// Refreshes the stream scheduler's per-disk health view from the
    /// fault plan: a disk whose straggler factor meets the configured
    /// threshold has its streams rotated out after each fill instead of
    /// stalling a dispatch slot. No-op on healthy runs.
    fn update_degraded(&mut self, now: SimTime) {
        let Some(plan) = &self.spec.faults else { return };
        let Fe::Stream(server) = &mut self.fe else { return };
        let threshold = server.config().degraded_rotate_threshold;
        for d in 0..self.spec.shape.total_disks() {
            server.set_disk_degraded(d, plan.straggler_factor(d, now) >= threshold);
        }
    }

    /// Serializes work on the (single-threaded) server process.
    fn charge(&mut self, now: SimTime, cost: SimDuration) -> SimTime {
        let end = self.cpu_free.max(now) + cost;
        self.cpu_free = end;
        end
    }

    // ----- controller plumbing ------------------------------------------

    fn submit_to_disk(
        &mut self,
        at: SimTime,
        disk: usize,
        lba: u64,
        blocks: u64,
        write: bool,
        tag: Tag,
    ) {
        let ctrl = disk / self.dpc;
        let port = disk % self.dpc;
        let id = match self.tags_free.pop() {
            Some(id) => {
                self.tags[id as usize] = Some(tag);
                id
            }
            None => {
                self.tags.push(Some(tag));
                self.tags.len() as u64 - 1
            }
        };
        let req = HostRequest {
            id: RequestId(id),
            port,
            lba,
            blocks,
            direction: if write { Direction::Write } else { Direction::Read },
        };
        self.q.push(at, Ev::SubmitCtrl { ctrl, req });
    }

    /// Drains `outs` so the caller can reuse the buffer.
    fn map_ctrl_outputs(&mut self, ctrl: usize, outs: &mut Vec<CtrlOutput>) {
        for o in outs.drain(..) {
            match o {
                CtrlOutput::Complete { id, at, retries, timed_out, .. } => {
                    self.q.push(at, Ev::CtrlDone { ctrl, id: id.0, retries, timed_out });
                }
                CtrlOutput::Event { at, event } => {
                    self.q.push(at, Ev::CtrlInternal { ctrl, ev: event });
                }
            }
        }
    }

    fn on_ctrl_done(&mut self, now: SimTime, _ctrl: usize, id: u64, retries: u32, timed_out: bool) {
        let tag = self.tags[id as usize].take().expect("completion for unknown tag");
        self.tags_free.push(id);
        match tag {
            Tag::Client(req) => {
                if let Some(obs) = self.obs.as_mut() {
                    obs.stamp(req, SpanPhase::DiskComplete, now);
                    obs.annotate(req, retries, timed_out);
                }
                let at = self.charge(now, self.spec.costs.cpu_completion);
                self.q.push(at + self.net(), Ev::Deliver { id: req, from_memory: false });
            }
            Tag::Backend(bid) => {
                let spans_on = self.obs.as_ref().is_some_and(|o| o.spans_on);
                if let Fe::Stream(server) = &mut self.fe {
                    if spans_on && (retries > 0 || timed_out) {
                        server.annotate_backend_fault(bid, retries, timed_out);
                    }
                    let mut outs = std::mem::take(&mut self.server_scratch);
                    server.on_disk_complete_into(now, bid, &mut outs);
                    self.drain_server_spans();
                    self.apply_server_outputs(now, true, &mut outs);
                    self.server_scratch = outs;
                }
            }
            Tag::Fetch { disk, stream } => {
                if let Fe::Linux(disks) = &mut self.fe {
                    let d = &mut disks[disk];
                    d.busy = false;
                    d.sched.on_complete(stream, now);
                    if let Some(ra) = &mut d.ra[stream] {
                        ra.on_fetch_complete();
                    }
                    // Take the waiter list out so its capacity is reused by
                    // the next fetch on this stream.
                    let mut waiters = std::mem::take(&mut d.waiters[stream]);
                    for w in waiters.drain(..) {
                        if let Some(obs) = self.obs.as_mut() {
                            obs.stamp(w, SpanPhase::DiskComplete, now);
                            obs.annotate(w, retries, timed_out);
                        }
                        let at = now + self.spec.costs.cpu_completion;
                        self.q.push(at, Ev::Deliver { id: w, from_memory: false });
                    }
                    let Fe::Linux(disks) = &mut self.fe else { unreachable!() };
                    disks[disk].waiters[stream] = waiters;
                }
                self.linux_kick(now, disk);
            }
        }
    }

    // ----- Linux dispatch loop --------------------------------------------

    fn linux_kick(&mut self, now: SimTime, disk: usize) {
        let decision = {
            let Fe::Linux(disks) = &mut self.fe else { return };
            let d = &mut disks[disk];
            if d.busy {
                return;
            }
            match d.sched.next(now) {
                SchedDecision::Dispatch(r) => {
                    d.busy = true;
                    Some(r)
                }
                SchedDecision::WaitUntil(t) => {
                    self.q.push(t.max(now), Ev::LinuxKick { disk });
                    None
                }
                SchedDecision::Idle => None,
            }
        };
        if let Some(r) = decision {
            self.submit_to_disk(
                now,
                disk,
                r.lba,
                r.blocks,
                false,
                Tag::Fetch { disk, stream: r.process },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::NodeShape;
    use seqio_hostsched::SchedKind;
    use seqio_simcore::units::{KIB, MIB};

    fn quick(spec: Experiment) -> RunResult {
        spec.run()
    }

    #[test]
    fn direct_single_stream_reaches_streaming_rate() {
        let r = quick(
            Experiment::builder()
                .streams_per_disk(1)
                .warmup(SimDuration::from_millis(500))
                .duration(SimDuration::from_secs(2))
                .build(),
        );
        let t = r.total_throughput_mbs();
        assert!(t > 25.0 && t < 65.0, "single direct stream: {t} MB/s");
        assert!(r.requests_completed > 100);
    }

    #[test]
    fn direct_many_streams_collapse() {
        let one = quick(
            Experiment::builder()
                .streams_per_disk(1)
                .warmup(SimDuration::from_millis(500))
                .duration(SimDuration::from_secs(2))
                .build(),
        );
        let hundred = quick(
            Experiment::builder()
                .streams_per_disk(100)
                .warmup(SimDuration::from_millis(500))
                .duration(SimDuration::from_secs(2))
                .build(),
        );
        let t1 = one.total_throughput_mbs();
        let t100 = hundred.total_throughput_mbs();
        assert!(t100 < t1 / 2.0, "throughput must collapse: 1 stream {t1} vs 100 streams {t100}");
    }

    #[test]
    fn stream_scheduler_restores_throughput() {
        // Warm-up must cover the 100-stream detection transient (~2 s of
        // seek-bound direct requests) before measuring steady state.
        let direct = quick(
            Experiment::builder()
                .streams_per_disk(100)
                .warmup(SimDuration::from_secs(3))
                .duration(SimDuration::from_secs(3))
                .build(),
        );
        let sched = quick(
            Experiment::builder()
                .streams_per_disk(100)
                .frontend(Frontend::stream_scheduler_with_readahead(4 * MIB))
                .warmup(SimDuration::from_secs(3))
                .duration(SimDuration::from_secs(3))
                .build(),
        );
        let td = direct.total_throughput_mbs();
        let ts = sched.total_throughput_mbs();
        assert!(
            ts > 2.0 * td,
            "stream scheduler should be >2x direct at 100 streams: {ts} vs {td}"
        );
        let m = sched.server_metrics.expect("stream fe reports metrics");
        assert!(m.streams_detected >= 90, "detected {}", m.streams_detected);
        assert!(
            m.memory_hits > m.direct_requests,
            "hits {} direct {}",
            m.memory_hits,
            m.direct_requests
        );
    }

    #[test]
    fn linux_frontend_runs_and_degrades_with_streams() {
        let mk = |streams: usize| {
            Experiment::builder()
                .streams_per_disk(streams)
                .request_size(4 * KIB)
                .frontend(Frontend::Linux { scheduler: SchedKind::Anticipatory })
                .costs(crate::calibration::CostModel::local_xdd())
                .warmup(SimDuration::from_millis(500))
                .duration(SimDuration::from_secs(2))
                .build()
                .run()
        };
        let few = mk(2).total_throughput_mbs();
        let many = mk(128).total_throughput_mbs();
        assert!(few > 15.0, "2-stream anticipatory: {few} MB/s");
        assert!(many < few, "128 streams ({many}) must be slower than 2 ({few})");
    }

    #[test]
    fn eight_disk_node_scales() {
        let r = quick(
            Experiment::builder()
                .shape(NodeShape::eight_disk())
                .streams_per_disk(1)
                .warmup(SimDuration::from_millis(500))
                .duration(SimDuration::from_secs(2))
                .build(),
        );
        let t = r.total_throughput_mbs();
        assert!(t > 100.0, "8 disks x 1 stream: {t} MB/s");
        assert_eq!(r.per_stream_mbs.len(), 8);
        assert_eq!(r.disk_seeks.len(), 8);
    }

    #[test]
    fn finite_workload_terminates() {
        let r = quick(
            Experiment::builder()
                .streams_per_disk(4)
                .requests_per_stream(50)
                .warmup(SimDuration::ZERO)
                .duration(SimDuration::from_secs(30))
                .build(),
        );
        assert_eq!(r.requests_completed, 200, "all 4 x 50 requests complete");
    }

    #[test]
    fn response_time_grows_with_streams() {
        let few = quick(
            Experiment::builder()
                .streams_per_disk(2)
                .warmup(SimDuration::from_millis(500))
                .duration(SimDuration::from_secs(2))
                .build(),
        );
        let many = quick(
            Experiment::builder()
                .streams_per_disk(60)
                .warmup(SimDuration::from_millis(500))
                .duration(SimDuration::from_secs(2))
                .build(),
        );
        assert!(
            many.mean_response_ms() > few.mean_response_ms(),
            "more streams -> longer responses ({} vs {})",
            many.mean_response_ms(),
            few.mean_response_ms()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            quick(
                Experiment::builder()
                    .streams_per_disk(10)
                    .seed(99)
                    .warmup(SimDuration::from_millis(200))
                    .duration(SimDuration::from_millis(800))
                    .build(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.bytes_delivered, b.bytes_delivered);
        assert_eq!(a.requests_completed, b.requests_completed);
    }
}

#[cfg(test)]
mod pattern_tests {
    use super::*;
    use crate::experiment::{Experiment, Frontend};
    use seqio_simcore::units::MIB;
    use seqio_workload::Pattern;

    #[test]
    fn near_sequential_streams_still_benefit_from_scheduling() {
        let run = |fe: Option<Frontend>| {
            let mut b = Experiment::builder()
                .streams_per_disk(40)
                .pattern(Pattern::NearSequential { p: 0.1, jitter_blocks: 32 })
                .warmup(SimDuration::from_secs(2))
                .duration(SimDuration::from_secs(2))
                .seed(21);
            if let Some(f) = fe {
                b = b.frontend(f);
            }
            b.run().total_throughput_mbs()
        };
        let direct = run(None);
        let sched = run(Some(Frontend::stream_scheduler_with_readahead(2 * MIB)));
        assert!(
            sched > 1.5 * direct,
            "scheduler should still help near-sequential streams: {sched:.1} vs {direct:.1}"
        );
    }

    #[test]
    fn random_workload_is_passed_through_not_hijacked() {
        let r = Experiment::builder()
            .streams_per_disk(8)
            .pattern(Pattern::Random { span_blocks: 400_000 })
            .frontend(Frontend::stream_scheduler_with_readahead(MIB))
            .requests_per_stream(40)
            .warmup(SimDuration::ZERO)
            .duration(SimDuration::from_secs(60))
            .seed(22)
            .run();
        assert_eq!(r.requests_completed, 320, "random workload completes");
        let m = r.server_metrics.unwrap();
        assert!(
            m.direct_requests > m.memory_hits,
            "random traffic should mostly bypass staging: direct {} vs hits {}",
            m.direct_requests,
            m.memory_hits
        );
    }

    #[test]
    fn write_workload_completes_and_bypasses_staging() {
        let r = Experiment::builder()
            .streams_per_disk(6)
            .writes(true)
            .requests_per_stream(30)
            .frontend(Frontend::stream_scheduler_with_readahead(MIB))
            .warmup(SimDuration::ZERO)
            .duration(SimDuration::from_secs(60))
            .seed(23)
            .run();
        assert_eq!(r.requests_completed, 180);
        let m = r.server_metrics.unwrap();
        assert_eq!(m.direct_requests, 180, "writes always go straight to disk");
        assert_eq!(m.memory_hits, 0);
    }

    #[test]
    fn percentiles_are_ordered() {
        let r = Experiment::builder()
            .streams_per_disk(20)
            .warmup(SimDuration::from_millis(500))
            .duration(SimDuration::from_secs(1))
            .seed(24)
            .run();
        assert!(r.p50_response_ms() <= r.p99_response_ms());
        assert!(r.p99_response_ms() > 0.0);
    }

    #[test]
    fn linux_frontend_rejects_writes() {
        use seqio_hostsched::SchedKind;
        let e = Experiment::builder()
            .writes(true)
            .frontend(Frontend::Linux { scheduler: SchedKind::Noop })
            .build();
        assert!(e.validate().is_err());
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::experiment::Experiment;
    use seqio_simcore::ObsConfig;

    #[test]
    fn trace_records_every_windowed_completion() {
        let r = Experiment::builder()
            .streams_per_disk(4)
            .requests_per_stream(25)
            .observe(ObsConfig::new().with_spans())
            .warmup(SimDuration::ZERO)
            .duration(SimDuration::from_secs(60))
            .seed(31)
            .run();
        let spans = r.spans.as_ref().expect("spans enabled");
        assert_eq!(spans.len() as u64, r.requests_completed);
        assert_eq!(spans.len(), 100);
        for s in spans {
            assert!(s.delivered() > s.enqueued());
            assert!(s.stream < 4);
            assert_eq!(s.blocks, 128);
        }
        // Within a stream, records are sequential in lba.
        let mut last = std::collections::HashMap::new();
        for s in spans {
            if let Some(prev) = last.insert(s.stream, s.lba) {
                assert!(s.lba > prev, "stream {} went backwards", s.stream);
            }
        }
        // CSV round trip has the right row count.
        let csv = crate::span::spans_to_csv(spans);
        assert_eq!(csv.lines().count(), 101);
    }

    #[test]
    fn trace_disabled_by_default() {
        let r = Experiment::builder()
            .streams_per_disk(1)
            .requests_per_stream(5)
            .warmup(SimDuration::ZERO)
            .duration(SimDuration::from_secs(10))
            .run();
        assert!(r.spans.is_none());
    }
}

#[cfg(test)]
mod replay_tests {
    use super::*;
    use crate::experiment::{Experiment, Frontend, NodeShape};
    use seqio_simcore::units::MIB;
    use seqio_simcore::ObsConfig;

    fn capture() -> crate::RunResult {
        Experiment::builder()
            .streams_per_disk(6)
            .requests_per_stream(30)
            .observe(ObsConfig::new().with_spans())
            .warmup(SimDuration::ZERO)
            .duration(SimDuration::from_secs(60))
            .seed(41)
            .run()
    }

    fn replay(spans: Vec<SpanRecord>) -> crate::ExperimentBuilder {
        Experiment::builder()
            .replay(spans)
            .warmup(SimDuration::ZERO)
            .duration(SimDuration::from_secs(120))
    }

    #[test]
    fn replay_completes_every_recorded_request() {
        let original = capture();
        let spans = original.spans.clone().unwrap();
        let replayed = replay(spans.clone()).seed(42).run();
        assert_eq!(replayed.requests_completed, spans.len() as u64);
        assert_eq!(replayed.bytes_delivered, original.bytes_delivered);
        assert_eq!(replayed.per_stream_bytes, original.per_stream_bytes);
    }

    #[test]
    fn replay_through_a_different_frontend() {
        let spans = capture().spans.unwrap();
        let replayed = replay(spans.clone())
            .frontend(Frontend::stream_scheduler_with_readahead(MIB))
            .observe(ObsConfig::new().with_spans())
            .seed(43)
            .run();
        assert_eq!(replayed.requests_completed, spans.len() as u64);
        let out = replayed.spans.unwrap();
        assert_eq!(out.len(), spans.len());
        // Open loop: send times are preserved from the input spans.
        let mut sent_in: Vec<_> = spans.iter().map(SpanRecord::enqueued).collect();
        let mut sent_out: Vec<_> = out.iter().map(SpanRecord::enqueued).collect();
        sent_in.sort();
        sent_out.sort();
        assert_eq!(sent_in, sent_out);
    }

    #[test]
    fn empty_replay_rejected() {
        let e = Experiment::builder().replay(Vec::new()).build();
        assert!(e.validate().is_err());
    }

    #[test]
    fn replay_records_that_do_not_fit_the_node_are_typed_errors() {
        let good = capture().spans.unwrap()[0];
        let disk_blocks = NodeShape::single_disk().disk_blocks();
        let mut no_enqueue = good;
        no_enqueue.stamps[SpanPhase::Enqueued.index()] = None;
        let cases = [
            (SpanRecord { disk: 1, ..good }, "names disk 1"),
            (SpanRecord { blocks: 0, ..good }, "zero blocks"),
            (SpanRecord { lba: disk_blocks - 64, ..good }, "past its disk's end"),
            (SpanRecord { lba: u64::MAX, ..good }, "past its disk's end"),
            (no_enqueue, "no enqueue stamp"),
        ];
        for (bad, want) in cases {
            let err = Experiment::builder().replay(vec![good, bad]).build().validate().unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("replay record 2") && msg.contains(want), "{msg}");
        }
        let mut late = good;
        late.stamps[SpanPhase::Enqueued.index()] = Some(SimTime::MAX);
        let err = Experiment::builder().replay(vec![late]).build().validate().unwrap_err();
        assert!(err.to_string().contains("too late"), "{err}");
        // A record ending exactly at the disk's last block fits.
        let last = SpanRecord { lba: disk_blocks - good.blocks, ..good };
        assert!(Experiment::builder().replay(vec![last]).build().validate().is_ok());
    }

    #[test]
    fn recorded_stream_ids_map_to_their_rank() {
        let spans = capture().spans.unwrap();
        // Spread the six recorded ids far apart: the node still sizes its
        // tables by the six distinct streams, in the same order.
        let sparse: Vec<SpanRecord> = spans
            .iter()
            .map(|s| SpanRecord { stream: s.stream * 1_000_000_007 + 5_000_000_000, ..*s })
            .collect();
        let dense = replay(spans).seed(44).run();
        let spread = replay(sparse).seed(44).run();
        assert_eq!(spread.per_stream_bytes.len(), 6);
        assert_eq!(spread.per_stream_bytes, dense.per_stream_bytes);
        assert_eq!(format!("{:?}", spread.response), format!("{:?}", dense.response));
    }
}
