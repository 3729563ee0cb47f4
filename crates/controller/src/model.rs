//! The controller state machine.
//!
//! A [`Controller`] owns its attached [`Disk`]s and mediates every transfer
//! between them and the host. Three shared resources shape performance:
//!
//! 1. the per-port link (SATA, 150 MB/s) moving data off each disk;
//! 2. the aggregate controller/host bus (450 MB/s on the paper's BC4810);
//! 3. the controller's single firmware processor, whose per-request cost
//!    grows with the number of resident request buffers — the
//!    *buffer-management* effect behind the paper's Figure 12.
//!
//! Optionally the controller prefetches ahead of sequential reads into its
//! own extent cache (Figure 8).

use seqio_disk::{
    bytes_to_blocks, Direction, Disk, DiskOutput, DiskRequest, Lba, RequestId, BLOCK_SIZE,
};
use seqio_simcore::{SimDuration, SimTime};

use crate::cache::{ExtentCache, ExtentHit};
use crate::config::ControllerConfig;

/// A host-side request addressed to one port of the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostRequest {
    /// Caller-chosen identifier echoed back on completion.
    pub id: RequestId,
    /// Which attached disk the request targets.
    pub port: usize,
    /// First block.
    pub lba: Lba,
    /// Length in blocks.
    pub blocks: u64,
    /// Read or write.
    pub direction: Direction,
}

impl HostRequest {
    /// Convenience constructor for a read.
    pub fn read(id: RequestId, port: usize, lba: Lba, blocks: u64) -> Self {
        HostRequest { id, port, lba, blocks, direction: Direction::Read }
    }

    /// Convenience constructor for a write.
    pub fn write(id: RequestId, port: usize, lba: Lba, blocks: u64) -> Self {
        HostRequest { id, port, lba, blocks, direction: Direction::Write }
    }

    /// Transfer size in bytes.
    pub fn bytes(&self) -> u64 {
        self.blocks * BLOCK_SIZE
    }

    /// One past the last block.
    pub fn end(&self) -> Lba {
        self.lba + self.blocks
    }
}

/// Opaque token the caller must hand back via [`Controller::on_event`] at
/// the indicated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlEvent {
    /// A disk's mechanical operation finished.
    DiskOpFinished {
        /// Port whose disk finished.
        port: usize,
    },
    /// A disk-level request's data is ready at the drive.
    DiskComplete {
        /// Port whose disk completed a request.
        port: usize,
        /// The internal disk-request id.
        disk_req: RequestId,
        /// Whether the drive reported a transient read error (fault
        /// injection); the controller retries with backoff.
        error: bool,
    },
    /// A previously scheduled retry of an errored fetch is due.
    RetryFetch {
        /// Port whose fetch is retried.
        port: usize,
        /// The internal disk-request id (its in-flight slot is still held).
        disk_req: RequestId,
    },
}

/// Output of [`Controller::submit`] / [`Controller::on_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlOutput {
    /// Host request `id` is complete at `at`.
    Complete {
        /// The host request identifier.
        id: RequestId,
        /// Payload bytes delivered.
        bytes: u64,
        /// Completion instant.
        at: SimTime,
        /// Retry attempts the serving fetch went through (fault path).
        retries: u32,
        /// Whether the serving fetch overran the per-request deadline.
        timed_out: bool,
    },
    /// Call [`Controller::on_event`] with `event` at `at`.
    Event {
        /// When to deliver the event.
        at: SimTime,
        /// The event token.
        event: CtrlEvent,
    },
}

/// Behaviour counters for one controller.
#[derive(Debug, Clone, Copy, Default)]
pub struct ControllerMetrics {
    /// Host requests accepted.
    pub host_requests: u64,
    /// Reads served from the controller's extent cache.
    pub cache_hits: u64,
    /// Reads that attached to an in-flight prefetch.
    pub inflight_hits: u64,
    /// Disk-level fetch operations issued.
    pub disk_fetches: u64,
    /// Bytes delivered to the host.
    pub bytes_to_host: u64,
    /// Bytes pulled over the per-port links.
    pub bytes_from_disks: u64,
    /// Highest number of simultaneously resident host requests.
    pub peak_outstanding: usize,
    /// Speculative (asynchronous) controller prefetches issued.
    pub async_prefetches: u64,
}

/// Per-port fault-handling counters (all zero without fault injection).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortFaultCounters {
    /// Errored disk completions observed on this port.
    pub errors: u64,
    /// Retries issued for errored fetches.
    pub retries: u64,
    /// Fetches whose total service time exceeded the per-request deadline.
    pub timeouts: u64,
}

#[derive(Debug)]
struct InflightFetch {
    port: usize,
    lba: Lba,
    blocks: u64,
    direction: Direction,
    /// When the fetch was first issued (drives the per-request deadline).
    started: SimTime,
    /// Error retries performed so far.
    attempts: u32,
    /// Host requests served by this fetch (empty for speculative
    /// controller prefetches).
    waiters: Vec<HostRequest>,
}

/// A disk controller with its attached disks.
#[derive(Debug)]
pub struct Controller {
    cfg: ControllerConfig,
    disks: Vec<Disk>,
    cache: ExtentCache,
    link_free: Vec<SimTime>,
    bus_free: SimTime,
    cpu_free: SimTime,
    outstanding: usize,
    /// Bytes of host-request buffers currently resident (drives the
    /// buffer-management pressure term).
    resident_bytes: u64,
    /// Slab of in-flight disk fetches, indexed by the disk-level
    /// `RequestId` (slot indices are reused via `inflight_free`, which is
    /// safe because a disk id is only ever visible while its fetch is in
    /// flight).
    inflight: Vec<Option<InflightFetch>>,
    inflight_free: Vec<usize>,
    /// Per-port index of the slab: `(lba, end, slot)` of every fetch
    /// started on the port (reads and writes), in no particular order.
    /// An entry goes in when its fetch starts and comes out at the fetch's
    /// final completion, so an errored fetch awaiting its retry stays
    /// listed. Lookups scan one port's list, not the whole slab.
    inflight_by_port: Vec<Vec<(Lba, Lba, usize)>>,
    /// Recycled waiter vectors, so steady-state fetches allocate nothing.
    waiter_pool: Vec<Vec<HostRequest>>,
    /// Scratch for collecting disk outputs inside one call.
    disk_scratch: Vec<DiskOutput>,
    /// Per-port error/retry/timeout counters (fault injection).
    port_faults: Vec<PortFaultCounters>,
    metrics: ControllerMetrics,
}

impl Controller {
    /// Builds a controller owning `disks` (one per port, in port order).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the disk count does not
    /// match `cfg.ports`.
    pub fn new(cfg: ControllerConfig, disks: Vec<Disk>) -> Self {
        cfg.validate().expect("invalid controller config");
        assert_eq!(disks.len(), cfg.ports, "one disk per configured port");
        let cache = ExtentCache::new(cfg.cache_bytes);
        let ports = cfg.ports;
        Controller {
            cfg,
            disks,
            cache,
            link_free: vec![SimTime::ZERO; ports],
            bus_free: SimTime::ZERO,
            cpu_free: SimTime::ZERO,
            outstanding: 0,
            resident_bytes: 0,
            inflight: Vec::new(),
            inflight_free: Vec::new(),
            inflight_by_port: vec![Vec::new(); ports],
            waiter_pool: Vec::new(),
            disk_scratch: Vec::new(),
            port_faults: vec![PortFaultCounters::default(); ports],
            metrics: ControllerMetrics::default(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// Immutable access to an attached disk (for placement / capacity).
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn disk(&self, port: usize) -> &Disk {
        &self.disks[port]
    }

    /// Behaviour counters.
    pub fn metrics(&self) -> ControllerMetrics {
        self.metrics
    }

    /// Mutable access to an attached disk — used by the node layer to
    /// install per-disk fault schedules before the run starts.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn disk_mut(&mut self, port: usize) -> &mut Disk {
        &mut self.disks[port]
    }

    /// Per-port error/retry/timeout counters (all zero without fault
    /// injection).
    pub fn fault_counters(&self) -> &[PortFaultCounters] {
        &self.port_faults
    }

    /// Prefetch-cache counters (evictions, wasted bytes).
    pub fn cache_evictions(&self) -> u64 {
        self.cache.evictions()
    }

    /// Prefetched bytes reclaimed before any request consumed them.
    pub fn cache_wasted_bytes(&self) -> u64 {
        self.cache.wasted_bytes()
    }

    /// Requests currently resident in the controller.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Submits a host request.
    ///
    /// Convenience wrapper over [`submit_into`](Controller::submit_into)
    /// that allocates a fresh output vector per call; the simulation hot
    /// paths use the `_into` variant with a reusable scratch buffer.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range or the request is invalid for the
    /// target disk.
    pub fn submit(&mut self, now: SimTime, req: HostRequest) -> Vec<CtrlOutput> {
        let mut out = Vec::new();
        self.submit_into(now, req, &mut out);
        out
    }

    /// Submits a host request, appending outputs to `out` instead of
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range or the request is invalid for the
    /// target disk.
    pub fn submit_into(&mut self, now: SimTime, req: HostRequest, out: &mut Vec<CtrlOutput>) {
        assert!(req.port < self.cfg.ports, "port {} out of range", req.port);
        self.metrics.host_requests += 1;
        self.outstanding += 1;
        self.resident_bytes += req.bytes();
        self.metrics.peak_outstanding = self.metrics.peak_outstanding.max(self.outstanding);
        match req.direction {
            Direction::Write => {
                self.cache.invalidate(req.port, req.lba, req.blocks);
                self.start_fetch(now, req.port, req.lba, req.blocks, req.direction, Some(req), out);
            }
            Direction::Read => {
                if let Some(hit) = self.cache.lookup_extent(req.port, req.lba, req.blocks) {
                    self.metrics.cache_hits += 1;
                    let at = self.charge_completion(now, req.bytes());
                    let port = req.port;
                    self.finish(req, at, 0, false, out);
                    self.maybe_async_prefetch(now, port, hit, out);
                } else if let Some(slot) = self.covering_fetch(req.port, req.lba, req.end()) {
                    self.metrics.inflight_hits += 1;
                    self.inflight[slot]
                        .as_mut()
                        .expect("indexed fetch is in flight")
                        .waiters
                        .push(req);
                } else {
                    let extent = self.plan_extent(&req);
                    let port = req.port;
                    let lba = req.lba;
                    self.start_fetch(now, port, lba, extent, req.direction, Some(req), out);
                    // Prefetch the extent after the missed one as well: a
                    // sequential reader is about to want it. Under memory
                    // pressure these speculative fetches are exactly the
                    // wasted work that collapses Figure 8's large-prefetch
                    // configurations.
                    self.maybe_async_prefetch(
                        now,
                        port,
                        ExtentHit { start: lba, blocks: extent, touched: extent },
                        out,
                    );
                }
            }
        }
    }

    /// Speculative read-ahead: once a stream has consumed half of its
    /// cached extent, fetch the next extent in the background so a steady
    /// reader never stalls (and so, under memory pressure, the wasted
    /// prefetches are what collapse throughput — the paper's Figure 8).
    fn maybe_async_prefetch(
        &mut self,
        now: SimTime,
        port: usize,
        hit: ExtentHit,
        out: &mut Vec<CtrlOutput>,
    ) {
        // Trigger once a quarter of the extent is consumed, so the next
        // fetch overlaps the remaining consumption.
        if self.cfg.prefetch_bytes == 0 || hit.touched * 4 < hit.blocks {
            return;
        }
        let next = hit.start + hit.blocks;
        let disk_end = self.disks[port].geometry().total_blocks();
        if next >= disk_end || self.cache.contains(port, next) {
            return;
        }
        if self.fetching(port, next) {
            return;
        }
        let blocks = bytes_to_blocks(self.cfg.prefetch_bytes).max(1).min(disk_end - next);
        self.metrics.async_prefetches += 1;
        self.start_fetch(now, port, next, blocks, Direction::Read, None, out);
    }

    /// The lowest slot among the fetches in flight on `port` that cover
    /// `[lba, end)`: the fetch a slot-order scan of the slab finds first,
    /// so attaching here matches that scan exactly.
    fn covering_fetch(&self, port: usize, lba: Lba, end: Lba) -> Option<usize> {
        self.inflight_by_port[port]
            .iter()
            .filter(|&&(start, stop, _)| start <= lba && end <= stop)
            .map(|&(_, _, slot)| slot)
            .min()
    }

    /// Whether a fetch in flight on `port` already covers `block`.
    fn fetching(&self, port: usize, block: Lba) -> bool {
        self.inflight_by_port[port].iter().any(|&(start, stop, _)| start <= block && block < stop)
    }

    /// Delivers a previously scheduled [`CtrlEvent`].
    ///
    /// Convenience wrapper over [`on_event_into`](Controller::on_event_into).
    pub fn on_event(&mut self, now: SimTime, ev: CtrlEvent) -> Vec<CtrlOutput> {
        let mut out = Vec::new();
        self.on_event_into(now, ev, &mut out);
        out
    }

    /// Delivers a previously scheduled [`CtrlEvent`], appending outputs to
    /// `out` instead of allocating.
    pub fn on_event_into(&mut self, now: SimTime, ev: CtrlEvent, out: &mut Vec<CtrlOutput>) {
        match ev {
            CtrlEvent::DiskOpFinished { port } => {
                let mut scratch = std::mem::take(&mut self.disk_scratch);
                self.disks[port].on_op_finished_into(now, &mut scratch);
                self.map_disk_outputs(port, &mut scratch, out);
                self.disk_scratch = scratch;
            }
            CtrlEvent::DiskComplete { port, disk_req, error } => {
                let slot = disk_req.0 as usize;
                if error {
                    // Transient read error: retry with exponential backoff
                    // while attempts and the per-request deadline allow;
                    // otherwise fall through and let the drive's internal
                    // recovery complete the request (its data is staged).
                    let fetch = self.inflight[slot]
                        .as_mut()
                        .expect("errored completion for unknown disk request");
                    assert_eq!(fetch.port, port, "completion port mismatch");
                    self.port_faults[port].errors += 1;
                    let retry = self.cfg.retry;
                    let within_deadline = retry.timeout == SimDuration::ZERO
                        || now.duration_since(fetch.started) < retry.timeout;
                    if fetch.attempts < retry.max_retries && within_deadline {
                        fetch.attempts += 1;
                        self.port_faults[port].retries += 1;
                        let shift = (fetch.attempts - 1).min(20);
                        let backoff = SimDuration::from_nanos(
                            retry.backoff.as_nanos().saturating_mul(1 << shift),
                        );
                        out.push(CtrlOutput::Event {
                            at: now + backoff,
                            event: CtrlEvent::RetryFetch { port, disk_req },
                        });
                        return;
                    }
                }
                let mut fetch =
                    self.inflight[slot].take().expect("completion for unknown disk request");
                self.inflight_free.push(slot);
                assert_eq!(fetch.port, port, "completion port mismatch");
                let index = &mut self.inflight_by_port[port];
                let at =
                    index.iter().position(|e| e.2 == slot).expect("in-flight fetch is indexed");
                index.swap_remove(at);
                let timeout = self.cfg.retry.timeout;
                let timed_out =
                    timeout > SimDuration::ZERO && now.duration_since(fetch.started) > timeout;
                if timed_out {
                    self.port_faults[port].timeouts += 1;
                }
                let retries = fetch.attempts;
                self.metrics.bytes_from_disks += fetch.blocks * BLOCK_SIZE;
                // Move the extent over the port link before anything is
                // visible to the host.
                let link_time = self.transfer_time(fetch.blocks * BLOCK_SIZE, self.cfg.link_rate);
                let link_end = self.link_free[port].max(now) + link_time;
                self.link_free[port] = link_end;
                // Reads land in the controller cache when prefetching.
                if fetch.direction == Direction::Read && self.cfg.cache_bytes > 0 {
                    self.cache.insert(port, fetch.lba, fetch.blocks, now);
                }
                for w in fetch.waiters.drain(..) {
                    let at = self.charge_completion(link_end, w.bytes());
                    self.finish(w, at, retries, timed_out, out);
                }
                self.waiter_pool.push(fetch.waiters);
            }
            CtrlEvent::RetryFetch { port, disk_req } => {
                let slot = disk_req.0 as usize;
                let f = self.inflight[slot].as_ref().expect("retry for unknown disk request");
                assert_eq!(f.port, port, "retry port mismatch");
                let retry = DiskRequest {
                    id: disk_req,
                    lba: f.lba,
                    blocks: f.blocks,
                    direction: f.direction,
                };
                let mut scratch = std::mem::take(&mut self.disk_scratch);
                self.disks[port].submit_into(now, retry, &mut scratch);
                self.map_disk_outputs(port, &mut scratch, out);
                self.disk_scratch = scratch;
            }
        }
    }

    /// Extent size (blocks) to fetch for a read miss: the request itself,
    /// extended to the controller's prefetch size and clipped to the disk.
    fn plan_extent(&self, req: &HostRequest) -> u64 {
        let want = bytes_to_blocks(self.cfg.prefetch_bytes).max(req.blocks);
        let disk_end = self.disks[req.port].geometry().total_blocks();
        // Out-of-range requests are rejected by the disk's own validation;
        // saturate here so the error message comes from there.
        want.min(disk_end.saturating_sub(req.lba)).max(req.blocks)
    }

    #[allow(clippy::too_many_arguments)]
    fn start_fetch(
        &mut self,
        now: SimTime,
        port: usize,
        lba: Lba,
        extent_blocks: u64,
        direction: Direction,
        waiter: Option<HostRequest>,
        out: &mut Vec<CtrlOutput>,
    ) {
        let mut waiters = self.waiter_pool.pop().unwrap_or_default();
        waiters.extend(waiter);
        let slot = match self.inflight_free.pop() {
            Some(s) => s,
            None => {
                self.inflight.push(None);
                self.inflight.len() - 1
            }
        };
        let disk_id = RequestId(slot as u64);
        self.metrics.disk_fetches += 1;
        let disk_req = DiskRequest { id: disk_id, lba, blocks: extent_blocks, direction };
        self.inflight[slot] = Some(InflightFetch {
            port,
            lba,
            blocks: extent_blocks,
            direction,
            started: now,
            attempts: 0,
            waiters,
        });
        self.inflight_by_port[port].push((lba, lba + extent_blocks, slot));
        let mut scratch = std::mem::take(&mut self.disk_scratch);
        self.disks[port].submit_into(now, disk_req, &mut scratch);
        self.map_disk_outputs(port, &mut scratch, out);
        self.disk_scratch = scratch;
    }

    fn map_disk_outputs(
        &mut self,
        port: usize,
        disk_outs: &mut Vec<DiskOutput>,
        out: &mut Vec<CtrlOutput>,
    ) {
        for o in disk_outs.drain(..) {
            match o {
                DiskOutput::Complete { id, at, error, .. } => {
                    out.push(CtrlOutput::Event {
                        at,
                        event: CtrlEvent::DiskComplete { port, disk_req: id, error },
                    });
                }
                DiskOutput::OpFinished { at } => {
                    out.push(CtrlOutput::Event { at, event: CtrlEvent::DiskOpFinished { port } });
                }
            }
        }
    }

    /// Charges firmware CPU and the shared host bus for delivering `bytes`
    /// of one host request, starting no earlier than `ready`; returns the
    /// completion instant.
    fn charge_completion(&mut self, ready: SimTime, bytes: u64) -> SimTime {
        let cpu_time = self.cfg.cpu_fixed
            + self.cfg.cpu_per_mib.mul_f64(bytes as f64 / (1024.0 * 1024.0))
            + self.cfg.cpu_per_resident_mib.mul_f64(self.resident_bytes as f64 / (1024.0 * 1024.0));
        let cpu_end = self.cpu_free.max(ready) + cpu_time;
        self.cpu_free = cpu_end;
        let bus_end =
            self.bus_free.max(cpu_end) + self.transfer_time(bytes, self.cfg.aggregate_rate);
        self.bus_free = bus_end;
        bus_end
    }

    fn finish(
        &mut self,
        req: HostRequest,
        at: SimTime,
        retries: u32,
        timed_out: bool,
        out: &mut Vec<CtrlOutput>,
    ) {
        self.outstanding -= 1;
        self.resident_bytes -= req.bytes();
        self.metrics.bytes_to_host += req.bytes();
        out.push(CtrlOutput::Complete { id: req.id, bytes: req.bytes(), at, retries, timed_out });
    }

    fn transfer_time(&self, bytes: u64, rate: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / rate as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqio_disk::{CacheConfig, DiskConfig};
    use seqio_simcore::units::{KIB, MIB};
    use seqio_simcore::{EventQueue, SimRng};

    fn make(cfg: ControllerConfig, disk_cfg: DiskConfig) -> Controller {
        let disks = (0..cfg.ports).map(|p| Disk::new(disk_cfg.clone(), 42 + p as u64)).collect();
        Controller::new(cfg, disks)
    }

    /// Runs requests through a controller with a real event loop.
    /// `schedule` holds (submit time, request); returns completions
    /// (id -> completion time) in completion order.
    fn run(
        ctrl: &mut Controller,
        schedule: Vec<(SimTime, HostRequest)>,
    ) -> Vec<(RequestId, SimTime)> {
        #[derive(Debug)]
        enum Ev {
            Submit(HostRequest),
            Ctrl(CtrlEvent),
        }
        let mut q = EventQueue::new();
        for (at, r) in schedule {
            q.push(at, Ev::Submit(r));
        }
        let mut done = Vec::new();
        while let Some((now, ev)) = q.pop() {
            let outs = match ev {
                Ev::Submit(r) => ctrl.submit(now, r),
                Ev::Ctrl(e) => ctrl.on_event(now, e),
            };
            for o in outs {
                match o {
                    CtrlOutput::Complete { id, at, .. } => done.push((id, at)),
                    CtrlOutput::Event { at, event } => q.push(at, Ev::Ctrl(event)),
                }
            }
        }
        done.sort_by_key(|&(_, at)| at);
        done
    }

    #[test]
    fn single_read_completes() {
        let mut c = make(ControllerConfig::single_port(), DiskConfig::wd800jd());
        let done = run(&mut c, vec![(SimTime::ZERO, HostRequest::read(RequestId(1), 0, 0, 128))]);
        assert_eq!(done.len(), 1);
        let (id, at) = done[0];
        assert_eq!(id, RequestId(1));
        let ms = at.as_millis_f64();
        assert!(ms > 0.3 && ms < 40.0, "64K read took {ms}ms");
        assert_eq!(c.outstanding(), 0);
        assert_eq!(c.metrics().bytes_to_host, 64 * KIB);
    }

    #[test]
    fn link_serializes_per_port() {
        // Two large cache-hit-free reads on one port: the second completes
        // strictly after the first's link transfer.
        let mut c = make(ControllerConfig::single_port(), DiskConfig::wd800jd());
        let done = run(
            &mut c,
            vec![
                (SimTime::ZERO, HostRequest::read(RequestId(1), 0, 0, 2048)),
                (SimTime::ZERO, HostRequest::read(RequestId(2), 0, 10_000_000, 2048)),
            ],
        );
        assert_eq!(done.len(), 2);
        assert!(done[1].1 > done[0].1);
    }

    #[test]
    fn ports_run_in_parallel_but_share_bus() {
        let cfg = ControllerConfig { ports: 2, ..ControllerConfig::bc4810() };
        let mut c = make(cfg, DiskConfig::wd800jd());
        let done = run(
            &mut c,
            vec![
                (SimTime::ZERO, HostRequest::read(RequestId(1), 0, 0, 2048)),
                (SimTime::ZERO, HostRequest::read(RequestId(2), 1, 0, 2048)),
            ],
        );
        assert_eq!(done.len(), 2);
        // Both finish within a small window of each other (parallel disks),
        // but not at the identical instant (shared bus serializes delivery).
        let gap = done[1].1.duration_since(done[0].1);
        assert!(gap < SimDuration::from_millis(30), "gap {gap}");
        assert!(gap > SimDuration::ZERO);
    }

    #[test]
    fn controller_prefetch_serves_sequential_follow_ups() {
        let cfg = ControllerConfig::single_port().with_prefetch(128 * MIB, MIB);
        let mut c = make(cfg, DiskConfig::wd800jd());
        // First 64K read triggers a 1 MiB fetch; the next sequential read
        // must be a controller cache hit (no second disk fetch).
        let done = run(
            &mut c,
            vec![
                (SimTime::ZERO, HostRequest::read(RequestId(1), 0, 0, 128)),
                (
                    SimTime::ZERO + SimDuration::from_millis(100),
                    HostRequest::read(RequestId(2), 0, 128, 128),
                ),
            ],
        );
        assert_eq!(done.len(), 2);
        // One demand fetch plus speculative prefetches of later extents.
        assert!(c.metrics().disk_fetches >= 1);
        assert!(c.metrics().async_prefetches >= 1, "miss should trigger speculative prefetch");
        assert_eq!(c.metrics().cache_hits, 1);
        // The hit is fast: well under a mechanical latency.
        let hit_latency = done[1].1.duration_since(SimTime::ZERO + SimDuration::from_millis(100));
        assert!(hit_latency < SimDuration::from_millis(2), "hit took {hit_latency}");
    }

    #[test]
    fn inflight_prefetch_attaches_waiters() {
        let cfg = ControllerConfig::single_port().with_prefetch(128 * MIB, 4 * MIB);
        let mut c = make(cfg, DiskConfig::wd800jd());
        // Second request arrives while the 4 MiB fetch is still in flight.
        let done = run(
            &mut c,
            vec![
                (SimTime::ZERO, HostRequest::read(RequestId(1), 0, 0, 128)),
                (
                    SimTime::ZERO + SimDuration::from_micros(200),
                    HostRequest::read(RequestId(2), 0, 128, 128),
                ),
            ],
        );
        assert_eq!(done.len(), 2);
        // One demand fetch (plus any speculative ones); the second request
        // attached to the in-flight demand fetch.
        assert_eq!(c.metrics().inflight_hits, 1);
    }

    #[test]
    fn prefetch_thrash_with_many_streams() {
        // 8 streams x 2 MiB prefetch: with an 8 MiB controller cache extents
        // are mostly reclaimed before reuse; with a 64 MiB cache (all streams
        // fit) nearly every follow-up request hits. This is the Figure 8
        // crossover.
        let run_case = |cache_mib: u64| {
            let cfg = ControllerConfig::single_port().with_prefetch(cache_mib * MIB, 2 * MIB);
            let mut c = make(cfg, DiskConfig::wd800jd());
            let spacing = c.disk(0).geometry().total_blocks() / 8;
            let mut sched = Vec::new();
            let mut t = SimTime::ZERO;
            for round in 0..4u64 {
                for s in 0..8u64 {
                    sched.push((
                        t,
                        HostRequest::read(
                            RequestId(round * 8 + s),
                            0,
                            s * spacing + round * 128,
                            128,
                        ),
                    ));
                    t += SimDuration::from_millis(40);
                }
            }
            let done = run(&mut c, sched);
            assert_eq!(done.len(), 32);
            (c.metrics().cache_hits, c.cache_evictions())
        };
        let (thrash_hits, thrash_evictions) = run_case(8);
        let (ample_hits, _) = run_case(64);
        assert!(thrash_evictions > 0);
        assert!(
            ample_hits >= 20,
            "ample cache should hit on nearly all 24 follow-ups, got {ample_hits}"
        );
        assert!(
            thrash_hits < ample_hits / 2,
            "thrashing cache ({thrash_hits}) should hit far less than ample ({ample_hits})"
        );
    }

    #[test]
    fn cpu_pressure_grows_with_outstanding() {
        // Complete one request with nothing else resident, then another with
        // many requests resident; the second pays more CPU time.
        let mut quiet = make(ControllerConfig::single_port(), DiskConfig::wd800jd());
        let d1 = run(&mut quiet, vec![(SimTime::ZERO, HostRequest::read(RequestId(1), 0, 0, 128))]);

        let mut busy = make(ControllerConfig::single_port(), DiskConfig::wd800jd());
        let mut sched = vec![(SimTime::ZERO, HostRequest::read(RequestId(1), 0, 0, 128))];
        for i in 0..64u64 {
            sched.push((
                SimTime::ZERO,
                HostRequest::read(RequestId(100 + i), 0, 10_000_000 + i * 2_000_000, 128),
            ));
        }
        let d2 = run(&mut busy, sched);
        let quiet_first = d1[0].1;
        let busy_first = d2[0].1;
        assert!(busy_first > quiet_first, "pressure must delay completion");
    }

    #[test]
    fn write_then_read_misses_controller_cache() {
        let cfg = ControllerConfig::single_port().with_prefetch(128 * MIB, MIB);
        let mut c = make(cfg, DiskConfig::wd800jd());
        let done = run(
            &mut c,
            vec![
                (SimTime::ZERO, HostRequest::read(RequestId(1), 0, 0, 128)),
                (
                    SimTime::ZERO + SimDuration::from_millis(100),
                    HostRequest::write(RequestId(2), 0, 0, 128),
                ),
                (
                    SimTime::ZERO + SimDuration::from_millis(200),
                    HostRequest::read(RequestId(3), 0, 128, 128),
                ),
            ],
        );
        assert_eq!(done.len(), 3);
        // The post-write read must not be served from the (invalidated)
        // cache region the write touched.
        assert!(c.metrics().disk_fetches >= 3);
    }

    #[test]
    fn transient_errors_are_retried_until_exhausted() {
        use seqio_simcore::FaultPlan;
        let disk_cfg = DiskConfig::wd800jd().with_cache(CacheConfig::disabled());
        let mut c = make(ControllerConfig::single_port(), disk_cfg);
        // Every media read errors; with no deadline the controller burns
        // all `max_retries` before completing via drive-internal recovery.
        let plan = FaultPlan::new().read_errors(0, 1.0);
        c.disk_mut(0).install_faults(plan.disk(0).unwrap().clone(), 5);
        let done = run(&mut c, vec![(SimTime::ZERO, HostRequest::read(RequestId(1), 0, 0, 128))]);
        assert_eq!(done.len(), 1, "request must still complete");
        let f = c.fault_counters()[0];
        let max = c.config().retry.max_retries as u64;
        assert_eq!(f.retries, max);
        assert_eq!(f.errors, max + 1, "initial attempt plus every retry errors");
        assert_eq!(f.timeouts, 0, "deadline disabled");
        assert_eq!(c.outstanding(), 0);
    }

    #[test]
    fn deadline_stops_retries_and_counts_timeout() {
        use seqio_simcore::FaultPlan;
        let disk_cfg = DiskConfig::wd800jd().with_cache(CacheConfig::disabled());
        let mut cfg = ControllerConfig::single_port();
        cfg.retry.timeout = SimDuration::from_millis(1);
        let mut c = make(cfg, disk_cfg);
        let plan = FaultPlan::new().read_errors(0, 1.0);
        c.disk_mut(0).install_faults(plan.disk(0).unwrap().clone(), 5);
        let done = run(&mut c, vec![(SimTime::ZERO, HostRequest::read(RequestId(1), 0, 0, 128))]);
        assert_eq!(done.len(), 1);
        let f = c.fault_counters()[0];
        // A cold read takes several ms, so the first errored completion is
        // already past the 1ms deadline: no retries, one timeout.
        assert_eq!(f.errors, 1);
        assert_eq!(f.retries, 0);
        assert_eq!(f.timeouts, 1);
    }

    #[test]
    #[should_panic(expected = "port")]
    fn bad_port_panics() {
        let mut c = make(ControllerConfig::single_port(), DiskConfig::wd800jd());
        let _ = c.submit(SimTime::ZERO, HostRequest::read(RequestId(1), 5, 0, 8));
    }

    #[test]
    fn disabled_disk_cache_still_works_end_to_end() {
        let disk_cfg = DiskConfig::wd800jd().with_cache(CacheConfig::disabled());
        let mut c = make(ControllerConfig::single_port(), disk_cfg);
        let done = run(&mut c, vec![(SimTime::ZERO, HostRequest::read(RequestId(1), 0, 0, 128))]);
        assert_eq!(done.len(), 1);
    }

    /// The lookups the per-port index replaced: scans of the whole slab in
    /// slot order, kept as the oracle of the differential test.
    impl Controller {
        fn scan_covering(&self, port: usize, lba: Lba, end: Lba) -> Option<usize> {
            self.inflight.iter().position(|f| {
                f.as_ref()
                    .is_some_and(|f| f.port == port && f.lba <= lba && end <= f.lba + f.blocks)
            })
        }

        fn scan_fetching(&self, port: usize, block: Lba) -> bool {
            self.inflight
                .iter()
                .flatten()
                .any(|f| f.port == port && f.lba <= block && block < f.lba + f.blocks)
        }

        /// Every in-flight fetch of the slab as `(lba, end, slot)`, sorted,
        /// one list per port.
        fn slab_by_port(&self) -> Vec<Vec<(Lba, Lba, usize)>> {
            let mut ports = vec![Vec::new(); self.cfg.ports];
            for (slot, f) in self.inflight.iter().enumerate() {
                if let Some(f) = f {
                    ports[f.port].push((f.lba, f.lba + f.blocks, slot));
                }
            }
            ports.iter_mut().for_each(|p| p.sort_unstable());
            ports
        }
    }

    /// A random host request on a narrow band of each port's disk, so
    /// fetches overlap: 64-block-aligned starts over 2048 blocks, lengths
    /// from 8 to 256 blocks, one write in eight.
    fn random_request(rng: &mut SimRng, id: u64, ports: usize) -> HostRequest {
        let port = rng.below(ports as u64) as usize;
        let lba = rng.below(32) * 64 + [0, 8, 32][rng.below(3) as usize];
        let blocks = [8, 64, 128, 256][rng.below(4) as usize];
        if rng.chance(0.125) {
            HostRequest::write(RequestId(id), port, lba, blocks)
        } else {
            HostRequest::read(RequestId(id), port, lba, blocks)
        }
    }

    /// One step of the differential program: a host arrival or a
    /// controller event coming due.
    #[derive(Debug)]
    enum Call {
        Arrive,
        Ctrl(CtrlEvent),
    }

    /// Drives a four-port controller through `calls` seeded controller
    /// calls in time order: host submits arriving every 0-400 µs (skipped
    /// while 48 are outstanding) and the events they cause, with a 10%
    /// transient read-error rate on every disk, three retries and a 30 ms
    /// deadline. After every call the per-port index must list exactly the
    /// slab's in-flight fetches, and on four random probes per call both
    /// lookups must answer as the slab scans do. Returns how many probes
    /// found two or more covering fetches.
    fn differential_program(cfg: ControllerConfig, seed: u64, calls: usize) -> u64 {
        use seqio_simcore::{FaultPlan, RetryPolicy};
        let retry = RetryPolicy { timeout: SimDuration::from_millis(30), ..cfg.retry };
        let cfg = ControllerConfig { ports: 4, retry, ..cfg };
        let mut c = make(cfg, DiskConfig::wd800jd());
        let plan = (0..4).fold(FaultPlan::new(), |p, d| p.read_errors(d, 0.1));
        for d in 0..4 {
            c.disk_mut(d).install_faults(plan.disk(d).unwrap().clone(), seed + d as u64);
        }
        let mut rng = SimRng::seed_from(seed);
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, Call::Arrive);
        let (mut made, mut submitted, mut writes, mut completed, mut multi) = (0, 0, 0, 0, 0);
        let mut out = Vec::new();
        while let Some((now, call)) = q.pop() {
            match call {
                Call::Arrive if made >= calls => continue,
                Call::Arrive => {
                    q.push(now + SimDuration::from_micros(rng.below(400)), Call::Arrive);
                    if c.outstanding() >= 48 {
                        continue;
                    }
                    let req = random_request(&mut rng, submitted, 4);
                    writes += u64::from(req.direction == Direction::Write);
                    submitted += 1;
                    c.submit_into(now, req, &mut out);
                }
                Call::Ctrl(ev) => c.on_event_into(now, ev, &mut out),
            }
            made += 1;
            for o in out.drain(..) {
                match o {
                    CtrlOutput::Complete { .. } => completed += 1,
                    CtrlOutput::Event { at, event } => q.push(at, Call::Ctrl(event)),
                }
            }
            let mut index = c.inflight_by_port.clone();
            index.iter_mut().for_each(|p| p.sort_unstable());
            assert_eq!(index, c.slab_by_port(), "call {made}: index differs from the slab");
            for _ in 0..4 {
                let probe = random_request(&mut rng, 0, 4);
                let (p, lba, end) = (probe.port, probe.lba, probe.end());
                assert_eq!(
                    c.covering_fetch(p, lba, end),
                    c.scan_covering(p, lba, end),
                    "call {made}: attach lookup for port {p} [{lba}, {end})"
                );
                assert_eq!(c.fetching(p, lba), c.scan_fetching(p, lba), "call {made}: block {lba}");
                let covering = c.inflight_by_port[p].iter().filter(|e| e.0 <= lba && end <= e.1);
                multi += u64::from(covering.count() >= 2);
            }
        }
        assert_eq!(completed, submitted, "every host request completes once");
        assert!(
            c.inflight_by_port.iter().all(Vec::is_empty),
            "a drained controller indexes nothing"
        );
        assert_eq!(c.outstanding(), 0);
        let faults = c
            .fault_counters()
            .iter()
            .fold((0, 0, 0), |(e, r, t), f| (e + f.errors, r + f.retries, t + f.timeouts));
        assert!(
            faults.0 > 0 && faults.1 > 0 && faults.2 > 0,
            "errors, retries, timeouts: {faults:?}"
        );
        assert!(writes > 0 && c.metrics().inflight_hits > 0);
        multi
    }

    #[test]
    fn port_index_matches_the_slab_scan() {
        // 2 x 50k calls: controller prefetch off, then on (a small pool,
        // so extents are reclaimed and speculative fetches overlap).
        let plain = differential_program(ControllerConfig::bc4810(), 19, 50_000);
        let prefetch = differential_program(
            ControllerConfig::bc4810().with_prefetch(4 * MIB, 256 * KIB),
            23,
            50_000,
        );
        assert!(plain > 1000 && prefetch > 1000, "overlapping covers: {plain}, {prefetch}");
    }
}
