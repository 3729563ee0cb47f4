//! The storage server (paper Figure 9).
//!
//! [`StorageServer`] is the host-level scheduler: it classifies incoming
//! requests, detects sequential streams, admits up to `D` of them into the
//! dispatch set, issues `R`-sized read-ahead requests on their behalf
//! (`N` per residency, round-robin replacement), stages the prefetched data
//! in an `M`-bounded buffered set, and serves client requests from memory.
//!
//! The server is a pure state machine: callers feed it client requests and
//! disk completions and relay the returned [`ServerOutput`]s. It is used
//! both by the simulated storage node (`seqio-node`) and by the real-file
//! backend runner ([`crate::runner`]).

use seqio_simcore::{SeqioError, SimDuration, SimTime};

use crate::admission::AdmissionQueues;
use crate::buffer::{BufferId, BufferPool, Coverage, Lba};
use crate::classifier::{Classification, Classifier};
use crate::config::{ServerConfig, DETECT_OFFSET_BLOCKS, STREAM_MATCH_SLACK_BLOCKS};
use crate::stream::{PendingRequest, StreamId, StreamTable};

/// A request arriving from a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientRequest {
    /// Caller-side identifier, echoed in [`ServerOutput::CompleteClient`].
    pub id: u64,
    /// Destination disk (index at this storage node).
    pub disk: usize,
    /// First block.
    pub lba: Lba,
    /// Length in blocks.
    pub blocks: u64,
    /// `true` for writes (always passed through directly).
    pub write: bool,
}

impl ClientRequest {
    /// Convenience constructor for a read.
    pub fn read(id: u64, disk: usize, lba: Lba, blocks: u64) -> Self {
        ClientRequest { id, disk, lba, blocks, write: false }
    }

    /// One past the last requested block.
    pub fn end(&self) -> Lba {
        self.lba + self.blocks
    }
}

/// A disk request the server wants its backend to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendRequest {
    /// Server-assigned identifier, echoed via
    /// [`StorageServer::on_disk_complete`].
    pub id: u64,
    /// Destination disk.
    pub disk: usize,
    /// First block.
    pub lba: Lba,
    /// Length in blocks.
    pub blocks: u64,
    /// `true` for writes.
    pub write: bool,
    /// `true` when this request swapped a stream into the dispatch set
    /// (lets callers charge the buffer-allocation cost to admissions).
    pub admitted: bool,
}

/// Output of the server state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerOutput {
    /// Execute this request on the backing store.
    SubmitDisk(BackendRequest),
    /// Client request `client` is complete. `from_memory` is `true` when it
    /// was served from the buffered set without (new) disk I/O.
    CompleteClient {
        /// The client request identifier.
        client: u64,
        /// Whether the buffered set satisfied it.
        from_memory: bool,
    },
}

/// Behaviour counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerMetrics {
    /// Client requests received.
    pub client_requests: u64,
    /// Requests passed straight to a disk (unclassified or writes).
    pub direct_requests: u64,
    /// Requests served from the buffered set.
    pub memory_hits: u64,
    /// Requests parked on a stream queue (data in flight or not yet fetched).
    pub queued_requests: u64,
    /// Streams promoted by the classifier.
    pub streams_detected: u64,
    /// Dispatch-set admissions (stream swap-ins).
    pub admissions: u64,
    /// Read-ahead disk requests issued.
    pub fills_issued: u64,
    /// Client completions emitted.
    pub completions: u64,
    /// Streams torn down by the garbage collector.
    pub streams_gced: u64,
    /// Fill attempts rejected because `M` was exhausted.
    pub issue_no_memory: u64,
    /// Fill attempts skipped because the stream had no demand.
    pub issue_no_demand: u64,
    /// Dispatched streams rotated out early because their disk was
    /// reported degraded (fault injection).
    pub degraded_rotations: u64,
}

#[derive(Debug, Clone, Copy)]
enum PendingDisk {
    Direct { client: u64 },
    Fill { stream: StreamId, buffer: BufferId },
}

/// A lifecycle annotation emitted while the span log is enabled
/// (see [`StorageServer::enable_span_log`]). Strictly observational:
/// recording these never changes scheduling decisions or outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanEvent {
    /// The request matched (or triggered detection of) a stream.
    Classified {
        /// Client request id.
        client: u64,
        /// When the classification happened.
        at: SimTime,
    },
    /// The request's stream held a dispatch-set slot.
    Admitted {
        /// Client request id.
        client: u64,
        /// When the slot was (already) held.
        at: SimTime,
    },
    /// A disk I/O covering the request was issued.
    DiskIssued {
        /// Client request id.
        client: u64,
        /// Issue time.
        at: SimTime,
    },
    /// The disk I/O serving the request went through the controller's
    /// fault path (retries and/or a deadline overrun).
    Faulted {
        /// Client request id.
        client: u64,
        /// Retry attempts beyond the first issue.
        retries: u32,
        /// Whether the per-request deadline was exceeded.
        timed_out: bool,
    },
}

/// Why a read-ahead could (not) be issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IssueOutcome {
    /// A fill was submitted.
    Issued,
    /// `M` is exhausted: retry when memory frees (the pick stays queued).
    NoMemory,
    /// The stream has staged enough ahead of its client (or hit the end of
    /// the disk): nothing to do for it right now.
    NoDemand,
}

/// The host-level stream scheduler.
#[derive(Debug)]
pub struct StorageServer {
    cfg: ServerConfig,
    read_ahead_blocks: u64,
    disk_capacity: Vec<u64>,
    classifier: Classifier,
    streams: StreamTable,
    pool: BufferPool,
    /// Admission queues, one per disk (stream ids with `waiting == true`).
    queues: AdmissionQueues,
    dispatched_count: usize,
    /// Dispatched streams per disk; admission balances across spindles so a
    /// small dispatch set (e.g. `D = #disks`) keeps every disk busy.
    disk_dispatched: Vec<usize>,
    /// Per-disk dispatch bound: `ceil(D / #disks)`.
    disk_quota: usize,
    /// In-flight backend operations, slot-indexed by backend id. Ids are
    /// reused from `pending_free`, so the table stays as small as the
    /// in-flight window and lookups skip hashing entirely.
    pending_disk: Vec<Option<PendingDisk>>,
    pending_free: Vec<u64>,
    pending_count: usize,
    /// Per-disk degradation flags reported by the embedding layer (fault
    /// injection); degraded disks rotate their streams out early.
    degraded: Vec<bool>,
    /// Lifecycle annotations accumulated since the last drain; `None`
    /// (the default) disables all span bookkeeping.
    span_log: Option<Vec<SpanEvent>>,
    metrics: ServerMetrics,
}

impl StorageServer {
    /// Creates a server for a node whose disks have the given capacities
    /// (in blocks).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `disk_capacity` is empty.
    pub fn new(cfg: ServerConfig, disk_capacity: Vec<u64>) -> Self {
        cfg.validate().expect("invalid server config");
        assert!(!disk_capacity.is_empty(), "server needs at least one disk");
        let classifier = Classifier::new(DETECT_OFFSET_BLOCKS, cfg.detect_threshold_blocks);
        let pool = BufferPool::new(cfg.memory_bytes);
        let read_ahead_blocks = cfg.read_ahead_blocks();
        let n_disks = disk_capacity.len();
        let disk_quota = cfg.dispatch_streams.div_ceil(n_disks);
        StorageServer {
            cfg,
            read_ahead_blocks,
            disk_capacity,
            classifier,
            streams: StreamTable::new(),
            pool,
            queues: AdmissionQueues::new(n_disks),
            dispatched_count: 0,
            disk_dispatched: vec![0; n_disks],
            disk_quota,
            pending_disk: Vec::new(),
            pending_free: Vec::new(),
            pending_count: 0,
            degraded: vec![false; n_disks],
            span_log: None,
            metrics: ServerMetrics::default(),
        }
    }

    /// Turns on lifecycle-span annotations. The embedding layer collects
    /// them via [`drain_span_log`](Self::drain_span_log) after each call
    /// into the server. Off by default; enabling it records strictly more
    /// information without changing any scheduling decision or output.
    pub fn enable_span_log(&mut self) {
        if self.span_log.is_none() {
            self.span_log = Some(Vec::new());
        }
    }

    /// Moves all span annotations accumulated since the last drain into
    /// `into`. No-op while the span log is disabled.
    pub fn drain_span_log(&mut self, into: &mut Vec<SpanEvent>) {
        if let Some(log) = self.span_log.as_mut() {
            into.append(log);
        }
    }

    /// Annotates the client request(s) riding on backend operation
    /// `backend_id` with the controller's fault-path outcome (retries /
    /// deadline overrun). Must be called *before* the matching
    /// [`on_disk_complete`](Self::on_disk_complete). For a read-ahead
    /// fill, every request currently parked on the owning stream is
    /// annotated. No-op while the span log is disabled.
    pub fn annotate_backend_fault(&mut self, backend_id: u64, retries: u32, timed_out: bool) {
        let Some(log) = self.span_log.as_mut() else { return };
        match self.pending_disk.get(backend_id as usize).copied().flatten() {
            Some(PendingDisk::Direct { client }) => {
                log.push(SpanEvent::Faulted { client, retries, timed_out });
            }
            Some(PendingDisk::Fill { stream, .. }) => {
                if let Some(s) = self.streams.get(stream) {
                    for p in s.pending.iter() {
                        log.push(SpanEvent::Faulted { client: p.client, retries, timed_out });
                    }
                }
            }
            None => {}
        }
    }

    /// Reports disk health (fault injection): while `degraded` is set, any
    /// dispatched stream on `disk` is rotated out of the dispatch set
    /// after each completed fill instead of holding its slot for a full
    /// residency. The embedding layer decides when a disk counts as
    /// degraded — typically when its straggler factor reaches
    /// [`degraded_rotate_threshold`](ServerConfig::degraded_rotate_threshold).
    ///
    /// # Panics
    ///
    /// Panics if `disk` is out of range.
    pub fn set_disk_degraded(&mut self, disk: usize, degraded: bool) {
        self.degraded[disk] = degraded;
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Applies a mid-run retune of the dynamic knobs: `D`, `R`, `N` and
    /// the degraded-rotate threshold. The staging memory `M` stays fixed —
    /// the buffer pool was sized at construction — so the new working set
    /// must still satisfy `D * R * N <= M`.
    ///
    /// Taking effect is gradual by design: a larger `D` admits more
    /// streams on the next issue path, a smaller one self-corrects as
    /// dispatched streams rotate out (`try_admit` re-checks the bound on
    /// every admission), and a new `R` applies from the next fill, as does
    /// the staging lead bound `R * N`. Staged buffers bought under the old
    /// tune remain valid — retuning never invalidates data, only future
    /// scheduling decisions.
    ///
    /// # Errors
    ///
    /// Rejects tunes violating [`ServerConfig::validate`] (including the
    /// memory invariant against the *existing* `M`); the configuration is
    /// left untouched on error.
    pub fn retune(
        &mut self,
        dispatch_streams: usize,
        read_ahead_bytes: u64,
        requests_per_residency: u64,
        degraded_rotate_threshold: f64,
    ) -> Result<(), SeqioError> {
        let mut cfg = self.cfg.clone();
        cfg.dispatch_streams = dispatch_streams;
        cfg.read_ahead_bytes = read_ahead_bytes;
        cfg.requests_per_residency = requests_per_residency;
        cfg.degraded_rotate_threshold = degraded_rotate_threshold;
        cfg.validate()?;
        self.read_ahead_blocks = cfg.read_ahead_blocks();
        self.disk_quota = cfg.dispatch_streams.div_ceil(self.disk_dispatched.len());
        self.cfg = cfg;
        Ok(())
    }

    /// Behaviour counters.
    pub fn metrics(&self) -> ServerMetrics {
        self.metrics
    }

    /// Bytes of staging memory in use.
    pub fn memory_used(&self) -> u64 {
        self.pool.used_bytes()
    }

    /// Highest staging-memory usage observed.
    pub fn memory_peak(&self) -> u64 {
        self.pool.peak_bytes()
    }

    /// Streams currently occupying dispatch-set slots.
    pub fn dispatched_streams(&self) -> usize {
        self.dispatched_count
    }

    /// Live detected streams (dispatched, waiting or staged).
    pub fn live_streams(&self) -> usize {
        self.streams.len()
    }

    /// The garbage-collection period the host loop should honour.
    pub fn gc_period(&self) -> SimDuration {
        self.cfg.gc_period
    }

    /// Handles an arriving client request.
    ///
    /// # Panics
    ///
    /// Panics if the request is empty, overruns its disk, or names an
    /// unknown disk.
    pub fn on_client_request(&mut self, now: SimTime, req: ClientRequest) -> Vec<ServerOutput> {
        let mut out = Vec::new();
        self.on_client_request_into(now, req, &mut out);
        out
    }

    /// Handles an arriving client request, appending outputs to `out`
    /// instead of allocating.
    ///
    /// # Panics
    ///
    /// Panics if the request is empty, overruns its disk, or names an
    /// unknown disk.
    pub fn on_client_request_into(
        &mut self,
        now: SimTime,
        req: ClientRequest,
        out: &mut Vec<ServerOutput>,
    ) {
        assert!(req.disk < self.disk_capacity.len(), "unknown disk {}", req.disk);
        assert!(req.blocks > 0, "empty request");
        assert!(
            req.lba.checked_add(req.blocks).is_some_and(|end| end <= self.disk_capacity[req.disk]),
            "request past disk end"
        );
        self.metrics.client_requests += 1;

        if req.write {
            self.submit_direct(now, req, out);
            return;
        }

        if let Some(m) = self.streams.match_request(req.disk, req.lba, STREAM_MATCH_SLACK_BLOCKS) {
            let sid = m.id;
            if let Some(log) = self.span_log.as_mut() {
                log.push(SpanEvent::Classified { client: req.id, at: now });
            }
            self.streams.advance(m, req.end()).last_active = now;
            match self.pool.coverage(sid, req.lba, req.blocks) {
                Coverage::Ready => {
                    let freed = self.pool.consume(sid, req.lba, req.blocks, now);
                    self.metrics.memory_hits += 1;
                    self.metrics.completions += 1;
                    out.push(ServerOutput::CompleteClient { client: req.id, from_memory: true });
                    // Consumption shrank the stream's staging lead: keep its
                    // prefetch pipeline primed by re-queueing it.
                    self.requeue_if_demand(sid);
                    if freed > 0 || !self.queues.is_empty() {
                        self.try_admit(now, out);
                    }
                }
                Coverage::InFlight => {
                    self.metrics.queued_requests += 1;
                    let s = self.streams.get_mut(sid).expect("stream exists");
                    s.pending.push_back(PendingRequest {
                        client: req.id,
                        lba: req.lba,
                        blocks: req.blocks,
                    });
                    if let Some(log) = self.span_log.as_mut() {
                        // The covering fill is already on the wire: the
                        // request was admitted and issued before it arrived.
                        if self.streams.get(sid).is_some_and(|s| s.dispatched) {
                            log.push(SpanEvent::Admitted { client: req.id, at: now });
                        }
                        log.push(SpanEvent::DiskIssued { client: req.id, at: now });
                    }
                }
                Coverage::Missing => {
                    self.metrics.queued_requests += 1;
                    let s = self.streams.get_mut(sid).expect("stream exists");
                    s.pending.push_back(PendingRequest {
                        client: req.id,
                        lba: req.lba,
                        blocks: req.blocks,
                    });
                    if let Some(log) = self.span_log.as_mut() {
                        if self.streams.get(sid).is_some_and(|s| s.dispatched) {
                            log.push(SpanEvent::Admitted { client: req.id, at: now });
                        }
                    }
                    let s = self.streams.get_mut(sid).expect("stream exists");
                    if !s.dispatched && !s.waiting {
                        s.waiting = true;
                        self.queues.push(req.disk, sid);
                    }
                    self.try_admit(now, out);
                }
            }
        } else {
            match self.classifier.observe(req.disk, req.lba, req.blocks, now) {
                Classification::Detected => {
                    self.metrics.streams_detected += 1;
                    if let Some(log) = self.span_log.as_mut() {
                        log.push(SpanEvent::Classified { client: req.id, at: now });
                    }
                    let sid = self.streams.create(req.disk, req.end(), req.end(), now);
                    let s = self.streams.get_mut(sid).expect("just created");
                    s.waiting = true;
                    self.queues.push(req.disk, sid);
                    // The triggering request itself still goes directly to
                    // the disk; read-ahead starts behind it.
                    self.submit_direct(now, req, out);
                    self.try_admit(now, out);
                }
                Classification::Pending => {
                    self.submit_direct(now, req, out);
                }
            }
        }
    }

    /// Handles a backend completion for request `backend_id`.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown (double completion).
    pub fn on_disk_complete(&mut self, now: SimTime, backend_id: u64) -> Vec<ServerOutput> {
        let mut out = Vec::new();
        self.on_disk_complete_into(now, backend_id, &mut out);
        out
    }

    /// Handles a backend completion, appending outputs to `out` instead of
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown (double completion).
    pub fn on_disk_complete_into(
        &mut self,
        now: SimTime,
        backend_id: u64,
        out: &mut Vec<ServerOutput>,
    ) {
        let pending = self.pending_disk[backend_id as usize]
            .take()
            .expect("completion for unknown backend request");
        self.pending_free.push(backend_id);
        self.pending_count -= 1;
        match pending {
            PendingDisk::Direct { client } => {
                self.metrics.completions += 1;
                out.push(ServerOutput::CompleteClient { client, from_memory: false });
            }
            PendingDisk::Fill { stream, buffer } => {
                self.pool.mark_filled(stream, buffer, now);
                let state = self.streams.get_mut(stream).map(|s| {
                    s.inflight = false;
                    s.last_active = now;
                    (s.dispatched, s.issued_in_residency)
                });
                if let Some((dispatched, issued)) = state {
                    // Issue path first (paper §4.2), so its disk requests
                    // precede the client completions in `out`.
                    if dispatched {
                        // Graceful degradation: a stream on a disk reported
                        // degraded is rotated out after every fill rather
                        // than holding its slot for a full residency while
                        // the slow spindle crawls through N requests.
                        let degraded =
                            self.streams.get(stream).is_some_and(|s| self.degraded[s.disk]);
                        let keep = !degraded
                            && issued < self.cfg.requests_per_residency
                            && self.issue_fill(now, stream, false, out) == IssueOutcome::Issued;
                        if !keep {
                            if degraded && issued < self.cfg.requests_per_residency {
                                self.metrics.degraded_rotations += 1;
                            }
                            self.retire(stream);
                        }
                    }
                    self.try_admit(now, out);
                    // Completion path: drain every pending request now covered.
                    self.serve_pending(now, stream, out);
                    self.requeue_if_demand(stream);
                }
                // Serving may have freed memory: admissions may now succeed.
                self.try_admit(now, out);
            }
        }
    }

    /// Periodic garbage collection (paper §4.3): reclaims buffers idle past
    /// the timeout, streams with nothing left to do, and stale classifier
    /// regions. Call every [`gc_period`](Self::gc_period).
    pub fn on_gc(&mut self, now: SimTime) -> Vec<ServerOutput> {
        let mut out = Vec::new();
        self.on_gc_into(now, &mut out);
        out
    }

    /// Periodic garbage collection, appending outputs to `out` instead of
    /// allocating.
    pub fn on_gc_into(&mut self, now: SimTime, out: &mut Vec<ServerOutput>) {
        let cutoff =
            SimTime::from_nanos(now.as_nanos().saturating_sub(self.cfg.buffer_timeout.as_nanos()));
        self.pool.gc(cutoff);
        for sid in self.streams.idle_streams(cutoff) {
            // Idle streams have no fill in flight, so this empties the
            // stream's buffer list before its slot is reused.
            self.pool.free_stream(sid);
            self.streams.remove(sid);
            self.metrics.streams_gced += 1;
            // If the stream sat in an admission queue, a pick drops it
            // lazily when it finds the id no longer resolves.
        }
        self.classifier.gc(cutoff);
        self.try_admit(now, out);
    }

    /// Sends a request straight to the disk, bypassing staging.
    fn submit_direct(&mut self, now: SimTime, req: ClientRequest, out: &mut Vec<ServerOutput>) {
        let id = self.alloc_backend(PendingDisk::Direct { client: req.id });
        self.metrics.direct_requests += 1;
        if let Some(log) = self.span_log.as_mut() {
            log.push(SpanEvent::DiskIssued { client: req.id, at: now });
        }
        out.push(ServerOutput::SubmitDisk(BackendRequest {
            id,
            disk: req.disk,
            lba: req.lba,
            blocks: req.blocks,
            write: req.write,
            admitted: false,
        }));
    }

    /// `true` while the stream should keep prefetching: it has unserved
    /// requests, or it has staged less than one residency (`R * N`, under
    /// the tune in effect) ahead of its client. Without that bound a stream
    /// whose client went away would keep cycling through the dispatch set
    /// prefetching data nobody reads.
    fn has_demand(&self, stream: StreamId) -> bool {
        let Some(s) = self.streams.get(stream) else { return false };
        if !s.pending.is_empty() {
            return true;
        }
        if s.frontier >= self.disk_capacity[s.disk] {
            return false;
        }
        let lead_blocks = s.frontier.saturating_sub(s.client_next);
        lead_blocks * 512 < self.cfg.read_ahead_bytes * self.cfg.requests_per_residency
    }

    /// Puts a stream back on its disk's admission queue if it still has
    /// demand.
    fn requeue_if_demand(&mut self, stream: StreamId) {
        if !self.has_demand(stream) {
            return;
        }
        let Some(s) = self.streams.get_mut(stream) else { return };
        if !s.dispatched && !s.waiting {
            s.waiting = true;
            self.queues.push(s.disk, stream);
        }
    }

    /// Admits waiting streams while slots and memory allow, balanced across
    /// disks by the per-disk quota.
    fn try_admit(&mut self, now: SimTime, out: &mut Vec<ServerOutput>) {
        while self.dispatched_count < self.cfg.dispatch_streams {
            let Some(pick) = self
                .queues
                .pick(&self.streams, |disk| self.disk_dispatched[disk] < self.disk_quota)
            else {
                break;
            };
            let sid = pick.id;
            // Tentatively admit: the fill only happens if memory allows.
            // Besides `Issued`, any outcome may follow requests sent
            // straight to the disk because they could never be staged.
            match self.issue_fill(now, sid, true, out) {
                IssueOutcome::NoMemory => break, // the pick waits for memory
                IssueOutcome::NoDemand => {
                    self.queues.remove(pick);
                    if let Some(s) = self.streams.get_mut(sid) {
                        s.waiting = false;
                    }
                    continue;
                }
                IssueOutcome::Issued => {}
            }
            self.queues.remove(pick);
            let s = self.streams.get_mut(sid).expect("stream exists");
            s.waiting = false;
            s.dispatched = true;
            s.issued_in_residency = 1; // issue_fill counted the first request
            let disk = s.disk;
            self.dispatched_count += 1;
            self.disk_dispatched[disk] += 1;
            self.metrics.admissions += 1;
            if let Some(log) = self.span_log.as_mut() {
                // Every request parked on the stream rode this admission.
                if let Some(s) = self.streams.get(sid) {
                    for p in s.pending.iter() {
                        log.push(SpanEvent::Admitted { client: p.client, at: now });
                    }
                }
            }
        }
    }

    /// Issues one `R`-sized read-ahead for `stream` at its frontier.
    fn issue_fill(
        &mut self,
        now: SimTime,
        stream: StreamId,
        admitted: bool,
        out: &mut Vec<ServerOutput>,
    ) -> IssueOutcome {
        if !self.has_demand(stream) {
            self.metrics.issue_no_demand += 1;
            return IssueOutcome::NoDemand;
        }
        let Some(s) = self.streams.get(stream) else { return IssueOutcome::NoDemand };
        let disk = s.disk;
        let mut frontier = s.frontier;
        let mut min_blocks = 0;
        // If the oldest unserved request is neither staged nor in flight
        // (e.g. its data was garbage-collected, or the client skipped
        // ahead), restart read-ahead at its first uncovered block — and make
        // sure the fill reaches the request's end even when the client's
        // requests are larger than `R`.
        if let Some(&front) = s.pending.front() {
            if self.pool.coverage(stream, front.lba, front.blocks) == Coverage::Missing {
                frontier = self.pool.covered_until(stream, front.lba, front.lba + front.blocks);
                min_blocks = (front.lba + front.blocks).saturating_sub(frontier);
            }
        }
        let cap = self.disk_capacity[disk];
        if frontier >= cap {
            return IssueOutcome::NoDemand;
        }
        let blocks = self.read_ahead_blocks.max(min_blocks).min(cap - frontier);
        if blocks * 512 > self.pool.capacity_bytes() {
            // The waiting request(s) can never be staged within `M`: pass
            // them straight to the disk instead of livelocking on refetches.
            let mut sent = false;
            while let Some(&front) = self.streams.get(stream).and_then(|s| s.pending.front()) {
                let needed = (front.lba + front.blocks).saturating_sub(self.pool.covered_until(
                    stream,
                    front.lba,
                    front.lba + front.blocks,
                ));
                if needed == 0
                    || needed.max(self.read_ahead_blocks) * 512 <= self.pool.capacity_bytes()
                {
                    break;
                }
                let s = self.streams.get_mut(stream).expect("stream exists");
                let front = s.pending.pop_front().expect("front exists");
                s.last_active = now;
                let req = ClientRequest {
                    id: front.client,
                    disk,
                    lba: front.lba,
                    blocks: front.blocks,
                    write: false,
                };
                self.submit_direct(now, req, out);
                sent = true;
            }
            // A smaller request parked behind the ones just sent still
            // needs a fill; nothing else would re-queue the stream for it.
            // Each recursion sends at least one request, so this ends.
            let parked = self.streams.get(stream).is_some_and(|s| !s.pending.is_empty());
            if sent && parked {
                return self.issue_fill(now, stream, admitted, out);
            }
            return IssueOutcome::NoDemand;
        }
        let Some(buffer) = self.pool.try_alloc(stream, frontier, blocks, now) else {
            self.metrics.issue_no_memory += 1;
            return IssueOutcome::NoMemory;
        };
        let id = self.alloc_backend(PendingDisk::Fill { stream, buffer });
        let lba = frontier;
        let s = self.streams.get_mut(stream).expect("stream exists");
        s.frontier = frontier + blocks;
        s.inflight = true;
        if !admitted {
            s.issued_in_residency += 1;
        }
        self.metrics.fills_issued += 1;
        if let Some(log) = self.span_log.as_mut() {
            // Every parked request now fully inside the fetched frontier has
            // its covering disk I/O on the wire (first stamp wins downstream,
            // so re-announcing already-issued requests is harmless).
            if let Some(s) = self.streams.get(stream) {
                for p in s.pending.iter() {
                    if p.lba + p.blocks <= s.frontier {
                        log.push(SpanEvent::DiskIssued { client: p.client, at: now });
                    }
                }
            }
        }
        out.push(ServerOutput::SubmitDisk(BackendRequest {
            id,
            disk,
            lba,
            blocks,
            write: false,
            admitted,
        }));
        IssueOutcome::Issued
    }

    /// Removes `stream` from the dispatch set, re-queueing it round-robin
    /// while it still has demand.
    fn retire(&mut self, stream: StreamId) {
        let Some(s) = self.streams.get_mut(stream) else { return };
        if !s.dispatched {
            return;
        }
        s.dispatched = false;
        s.issued_in_residency = 0;
        let disk = s.disk;
        self.dispatched_count -= 1;
        self.disk_dispatched[disk] -= 1;
        self.requeue_if_demand(stream);
    }

    /// Completes every pending request of `stream` that is now staged.
    fn serve_pending(&mut self, now: SimTime, stream: StreamId, out: &mut Vec<ServerOutput>) {
        loop {
            let Some(s) = self.streams.get(stream) else { return };
            let Some(&front) = s.pending.front() else { return };
            match self.pool.coverage(stream, front.lba, front.blocks) {
                Coverage::Ready => {
                    self.pool.consume(stream, front.lba, front.blocks, now);
                    let s = self.streams.get_mut(stream).expect("stream exists");
                    s.pending.pop_front();
                    s.last_active = now;
                    self.metrics.memory_hits += 1;
                    self.metrics.completions += 1;
                    out.push(ServerOutput::CompleteClient {
                        client: front.client,
                        from_memory: true,
                    });
                }
                Coverage::InFlight | Coverage::Missing => return,
            }
        }
    }

    fn alloc_backend(&mut self, op: PendingDisk) -> u64 {
        self.pending_count += 1;
        match self.pending_free.pop() {
            Some(id) => {
                self.pending_disk[id as usize] = Some(op);
                id
            }
            None => {
                self.pending_disk.push(Some(op));
                self.pending_disk.len() as u64 - 1
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqio_simcore::units::{KIB, MIB};

    const DISK_BLOCKS: u64 = 10_000_000;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    fn server(cfg: ServerConfig) -> StorageServer {
        StorageServer::new(cfg, vec![DISK_BLOCKS])
    }

    fn cfg(d: usize, r_kib: u64, n: u64) -> ServerConfig {
        ServerConfig {
            dispatch_streams: d,
            read_ahead_bytes: r_kib * KIB,
            requests_per_residency: n,
            memory_bytes: (d as u64) * r_kib * KIB * n,
            ..ServerConfig::default_tuning()
        }
    }

    /// Drives `streams` sequential 64 KiB readers (one outstanding request
    /// each) through the server with an instant in-order "disk": every
    /// SubmitDisk completes before the next client request is injected.
    /// Returns (completions, server).
    fn run_closed_loop(
        mut srv: StorageServer,
        streams: usize,
        reqs_per_stream: usize,
    ) -> (u64, StorageServer) {
        let spacing = DISK_BLOCKS / streams as u64;
        let mut next_req: Vec<u64> = (0..streams).map(|s| s as u64 * spacing).collect();
        let mut issued = vec![0usize; streams];
        let mut done = vec![0usize; streams];
        let mut completions = 0u64;
        let mut clock = 0u64;
        let mut client_of = std::collections::HashMap::new();
        let mut next_client_id = 0u64;

        // Round-robin client injection, completing all disk work eagerly.
        // When a pass makes no progress (e.g. finished streams pin
        // partially-consumed buffers), run the periodic GC the way the real
        // server loop does, then retry.
        let mut gc_retries = 0;
        let mut progress = true;
        while progress {
            progress = false;
            for s in 0..streams {
                if issued[s] - done[s] > 0 || issued[s] >= reqs_per_stream {
                    continue;
                }
                clock += 50;
                let id = next_client_id;
                next_client_id += 1;
                client_of.insert(id, s);
                let req = ClientRequest::read(id, 0, next_req[s], 128);
                next_req[s] += 128;
                issued[s] += 1;
                progress = true;
                let mut outs = srv.on_client_request(t(clock), req);
                // Drain the disk: complete backend requests FIFO until the
                // server stops producing them.
                let mut disk_q: Vec<BackendRequest> = Vec::new();
                loop {
                    for o in outs.drain(..) {
                        match o {
                            ServerOutput::SubmitDisk(b) => disk_q.push(b),
                            ServerOutput::CompleteClient { client, .. } => {
                                completions += 1;
                                done[client_of[&client]] += 1;
                            }
                        }
                    }
                    if disk_q.is_empty() {
                        break;
                    }
                    let b = disk_q.remove(0);
                    clock += 10;
                    outs = srv.on_disk_complete(t(clock), b.id);
                }
            }
            if !progress && completions < (streams * reqs_per_stream) as u64 && gc_retries < 50 {
                gc_retries += 1;
                // Jump past the buffer timeout and sweep, draining any disk
                // work the freed memory lets the server issue.
                clock += 20_000_000;
                let mut outs = srv.on_gc(t(clock));
                let mut disk_q: Vec<BackendRequest> = Vec::new();
                loop {
                    for o in outs.drain(..) {
                        match o {
                            ServerOutput::SubmitDisk(b) => disk_q.push(b),
                            ServerOutput::CompleteClient { client, .. } => {
                                completions += 1;
                                done[client_of[&client]] += 1;
                            }
                        }
                    }
                    if disk_q.is_empty() {
                        break;
                    }
                    let b = disk_q.remove(0);
                    clock += 10;
                    outs = srv.on_disk_complete(t(clock), b.id);
                }
                progress = true;
            }
        }
        if completions < (streams * reqs_per_stream) as u64 {
            eprintln!(
                "STALL: completions={} dispatched={} live={} mem={}/{} rr_nonempty_hint",
                completions,
                srv.dispatched_streams(),
                srv.live_streams(),
                srv.memory_used(),
                srv.config().memory_bytes
            );
            for s in 0..streams {
                if done[s] < reqs_per_stream {
                    eprintln!("  stream {s}: issued={} done={}", issued[s], done[s]);
                }
            }
        }
        (completions, srv)
    }

    #[test]
    fn single_stream_completes_every_request() {
        let (completions, srv) = run_closed_loop(server(cfg(2, 256, 4)), 1, 50);
        assert_eq!(completions, 50);
        let m = srv.metrics();
        assert_eq!(m.client_requests, 50);
        assert_eq!(m.completions, 50);
        assert!(m.streams_detected >= 1);
        // After detection, most requests come from memory.
        assert!(m.memory_hits > 40, "memory hits {}", m.memory_hits);
    }

    #[test]
    fn many_streams_complete_every_request() {
        let (completions, srv) = run_closed_loop(server(cfg(2, 256, 4)), 20, 20);
        assert_eq!(completions, 400, "every request completes exactly once");
        assert_eq!(srv.metrics().completions, 400);
        assert!(srv.metrics().streams_detected >= 20);
    }

    #[test]
    fn dispatch_set_bounded_by_d() {
        let srv = server(cfg(3, 256, 4));
        let (_, srv) = run_closed_loop(srv, 10, 10);
        // The bound holds at the end; the invariant is asserted throughout
        // by construction (dispatched_count guarded in try_admit).
        assert!(srv.dispatched_streams() <= 3);
    }

    #[test]
    fn memory_never_exceeds_m() {
        let c = cfg(4, 512, 2);
        let m = c.memory_bytes;
        let (_, srv) = run_closed_loop(server(c), 30, 10);
        assert!(srv.memory_peak() <= m, "peak {} > M {}", srv.memory_peak(), m);
        assert!(srv.memory_peak() > 0);
    }

    #[test]
    fn detection_takes_two_requests() {
        let mut srv = server(cfg(1, 256, 1));
        let o1 = srv.on_client_request(t(0), ClientRequest::read(0, 0, 0, 128));
        assert!(matches!(o1[0], ServerOutput::SubmitDisk(b) if !b.admitted && b.blocks == 128));
        assert_eq!(srv.live_streams(), 0);
        let o2 = srv.on_client_request(t(1), ClientRequest::read(1, 0, 128, 128));
        // Second request triggers detection: direct submit + read-ahead fill.
        assert_eq!(srv.live_streams(), 1);
        let fills: Vec<_> =
            o2.iter().filter(|o| matches!(o, ServerOutput::SubmitDisk(b) if b.admitted)).collect();
        assert_eq!(fills.len(), 1, "read-ahead starts on detection");
        assert_eq!(srv.metrics().streams_detected, 1);
    }

    #[test]
    fn writes_pass_through() {
        let mut srv = server(cfg(1, 256, 1));
        let outs = srv.on_client_request(
            t(0),
            ClientRequest { id: 9, disk: 0, lba: 0, blocks: 128, write: true },
        );
        assert_eq!(outs.len(), 1);
        assert!(matches!(outs[0], ServerOutput::SubmitDisk(b) if b.write));
        assert_eq!(srv.metrics().direct_requests, 1);
    }

    #[test]
    fn residency_limits_fills_per_admission() {
        // D=1, N=2: a stream issues exactly 2 fills per admission.
        let (_, srv) = run_closed_loop(server(cfg(1, 64, 2)), 1, 40);
        let m = srv.metrics();
        assert!(m.admissions >= 2, "stream must cycle through the dispatch set");
        // fills = admissions (first fill) + continuations; with N=2 the
        // continuation count equals the admission count (one extra each).
        assert!(
            m.fills_issued <= m.admissions * 2,
            "fills {} > admissions {} * N",
            m.fills_issued,
            m.admissions
        );
    }

    #[test]
    fn round_robin_is_fair() {
        // D=1 and many streams: admissions should spread across streams, so
        // every stream finishes (checked by run_closed_loop returning).
        let (completions, srv) = run_closed_loop(server(cfg(1, 128, 1)), 8, 10);
        assert_eq!(completions, 80);
        assert!(srv.metrics().admissions >= 8);
    }

    #[test]
    fn gc_reclaims_idle_streams_and_buffers() {
        let mut srv = server(cfg(2, 256, 2));
        // Detect a stream and stage data for it, draining all disk work
        // (fill completions may trigger follow-up fills).
        let mut backend = Vec::new();
        for (i, lba) in [(0u64, 0u64), (1, 128)] {
            for o in srv.on_client_request(t(i * 100), ClientRequest::read(i, 0, lba, 128)) {
                if let ServerOutput::SubmitDisk(b) = o {
                    backend.push(b.id);
                }
            }
        }
        let mut clock = 1_000;
        while let Some(id) = backend.pop() {
            clock += 1;
            for o in srv.on_disk_complete(t(clock), id) {
                if let ServerOutput::SubmitDisk(b) = o {
                    backend.push(b.id);
                }
            }
        }
        assert!(srv.memory_used() > 0);
        assert_eq!(srv.live_streams(), 1);
        // Long after the timeout, GC tears everything down.
        let far = SimTime::ZERO + SimDuration::from_secs(100);
        let _ = srv.on_gc(far);
        assert_eq!(srv.memory_used(), 0, "buffers reclaimed");
        assert_eq!(srv.live_streams(), 0, "idle stream reclaimed");
        assert_eq!(srv.metrics().streams_gced, 1);
    }

    #[test]
    fn issue_path_comes_before_completions() {
        // Paper §4.2: in a fill completion's output the SubmitDisk entries of
        // the issue path precede the CompleteClient entries.
        let mut srv = server(cfg(1, 64, 8));
        let mut fills = Vec::new();
        // Detect.
        let _ = srv.on_client_request(t(0), ClientRequest::read(0, 0, 0, 128));
        for o in srv.on_client_request(t(1), ClientRequest::read(1, 0, 128, 128)) {
            if let ServerOutput::SubmitDisk(b) = o {
                fills.push(b);
            }
        }
        // Queue a request for data the first fill will deliver, then
        // complete the fill. 64 KiB fill covers blocks [256, 384).
        let fill = fills.iter().find(|b| b.admitted).expect("fill issued");
        let _ = srv.on_client_request(t(2), ClientRequest::read(2, 0, 256, 128));
        let outs = srv.on_disk_complete(t(3), fill.id);
        let submit_pos = outs.iter().position(|o| matches!(o, ServerOutput::SubmitDisk(_)));
        let complete_pos =
            outs.iter().position(|o| matches!(o, ServerOutput::CompleteClient { .. }));
        let (Some(s), Some(c)) = (submit_pos, complete_pos) else {
            panic!("expected both a submit and a completion, got {outs:?}");
        };
        assert!(s < c, "issue path must come first: {outs:?}");
    }

    #[test]
    fn staging_stops_one_residency_ahead_of_the_client() {
        // R = 64 KiB and N = 4: a stream stages at most R * N = 256 KiB past
        // its client. M holds four residencies, so only that bound can stop
        // it. Every staged byte lies past the client's next block, so the
        // memory in use is the stream's lead.
        let mut c = cfg(1, 64, 4);
        c.memory_bytes *= 4;
        let lead = c.read_ahead_bytes * c.requests_per_residency;
        let mut srv = server(c);
        let mut clock = 10;
        // Detection at blocks 0 and 128 puts the client's next block at 256;
        // the client then stops reading while every fill completes.
        let _ = srv.on_client_request(t(0), ClientRequest::read(0, 0, 0, 128));
        let outs = srv.on_client_request(t(1), ClientRequest::read(1, 0, 128, 128));
        drain(&mut srv, outs, &mut clock);
        assert_eq!(srv.memory_used(), lead, "staging must stop one residency ahead");
        // Each 64 KiB the client reads frees one R of lead: the stream is
        // admitted again, stages exactly that R, and its next fill inside
        // the residency is refused for lack of demand.
        for (i, lba) in [(2u64, 256u64), (3, 384)] {
            let refused = srv.metrics().issue_no_demand;
            let outs = srv.on_client_request(t(1_000 * i), ClientRequest::read(i, 0, lba, 128));
            assert_eq!(drain(&mut srv, outs, &mut clock), vec![i]);
            assert_eq!(srv.memory_used(), lead);
            assert_eq!(srv.metrics().issue_no_demand, refused + 1);
        }
    }

    #[test]
    fn refetches_after_gc_dropped_data() {
        let mut c = cfg(1, 64, 1);
        c.buffer_timeout = SimDuration::from_millis(1);
        let mut srv = server(c);
        // Detect a stream; let its fill land.
        let _ = srv.on_client_request(t(0), ClientRequest::read(0, 0, 0, 128));
        let outs = srv.on_client_request(t(10), ClientRequest::read(1, 0, 128, 128));
        let fill = outs
            .iter()
            .find_map(|o| match o {
                ServerOutput::SubmitDisk(b) if b.admitted => Some(*b),
                _ => None,
            })
            .expect("fill issued");
        let _ = srv.on_disk_complete(t(20), fill.id);
        assert!(srv.memory_used() > 0);
        // GC sweeps the staged (never consumed) buffer away.
        let _ = srv.on_gc(SimTime::ZERO + SimDuration::from_secs(10));
        assert_eq!(srv.memory_used(), 0);
        // The client finally asks for the dropped range: the server must
        // fetch it again rather than stall.
        let outs = srv.on_client_request(
            SimTime::ZERO + SimDuration::from_secs(11),
            ClientRequest::read(2, 0, 256, 128),
        );
        let refetch: Vec<_> =
            outs.iter().filter(|o| matches!(o, ServerOutput::SubmitDisk(_))).collect();
        assert_eq!(refetch.len(), 1, "expected a refetch, got {outs:?}");
    }

    #[test]
    fn duplicate_or_backward_requests_go_direct() {
        let mut srv = server(cfg(1, 256, 1));
        let _ = srv.on_client_request(t(0), ClientRequest::read(0, 0, 1000, 128));
        let _ = srv.on_client_request(t(1), ClientRequest::read(1, 0, 1128, 128));
        assert_eq!(srv.live_streams(), 1);
        // Re-reading an old offset does not match the stream (expected next
        // is 1256) and must not corrupt it.
        let outs = srv.on_client_request(t(2), ClientRequest::read(2, 0, 0, 128));
        assert!(matches!(outs[0], ServerOutput::SubmitDisk(b) if b.lba == 0 && !b.admitted));
        assert_eq!(srv.live_streams(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown disk")]
    fn unknown_disk_panics() {
        let mut srv = server(cfg(1, 64, 1));
        let _ = srv.on_client_request(t(0), ClientRequest::read(0, 7, 0, 128));
    }

    #[test]
    #[should_panic(expected = "request past disk end")]
    fn request_end_past_u64_max_panics() {
        // lba + blocks wraps to 4, which is inside the disk.
        let mut srv = StorageServer::new(ServerConfig::default_tuning(), vec![1 << 30]);
        let _ = srv.on_client_request(t(0), ClientRequest::read(1, 0, u64::MAX - 3, 8));
    }

    #[test]
    #[should_panic(expected = "unknown backend request")]
    fn double_completion_panics() {
        let mut srv = server(cfg(1, 64, 1));
        let outs = srv.on_client_request(t(0), ClientRequest::read(0, 0, 0, 128));
        let ServerOutput::SubmitDisk(b) = outs[0] else { panic!() };
        let _ = srv.on_disk_complete(t(1), b.id);
        let _ = srv.on_disk_complete(t(2), b.id);
    }

    #[test]
    fn span_log_records_lifecycle_without_changing_outputs() {
        // Identical request sequence with and without the span log: the
        // ServerOutputs must match exactly, and the log must carry the
        // expected annotations.
        let drive = |enable: bool| {
            let mut srv = server(cfg(2, 64, 2));
            if enable {
                srv.enable_span_log();
            }
            let mut all_outs = Vec::new();
            let mut spans = Vec::new();
            let mut backend = Vec::new();
            let mut clock = 0u64;
            for (id, lba) in [(0u64, 0u64), (1, 128), (2, 256)] {
                clock += 100;
                let outs = srv.on_client_request(t(clock), ClientRequest::read(id, 0, lba, 128));
                for o in &outs {
                    if let ServerOutput::SubmitDisk(b) = o {
                        backend.push(b.id);
                    }
                }
                all_outs.extend(outs);
                srv.drain_span_log(&mut spans);
            }
            while let Some(bid) = backend.pop() {
                clock += 10;
                let outs = srv.on_disk_complete(t(clock), bid);
                for o in &outs {
                    if let ServerOutput::SubmitDisk(b) = o {
                        backend.push(b.id);
                    }
                }
                all_outs.extend(outs);
                srv.drain_span_log(&mut spans);
            }
            (all_outs, spans)
        };
        let (outs_off, spans_off) = drive(false);
        let (outs_on, spans_on) = drive(true);
        assert_eq!(outs_off, outs_on, "span log must not perturb outputs");
        assert!(spans_off.is_empty(), "disabled log records nothing");
        // Request 1 triggers detection, request 2 matches the stream.
        assert!(spans_on.contains(&SpanEvent::Classified { client: 1, at: t(200) }));
        assert!(spans_on.contains(&SpanEvent::Classified { client: 2, at: t(300) }));
        // Every direct submit carries a DiskIssued stamp.
        assert!(spans_on.iter().any(|e| matches!(e, SpanEvent::DiskIssued { client: 0, .. })));
        assert!(spans_on.iter().any(|e| matches!(e, SpanEvent::DiskIssued { client: 1, .. })));
    }

    #[test]
    fn annotate_backend_fault_tags_direct_and_fill() {
        let mut srv = server(cfg(1, 64, 1));
        srv.enable_span_log();
        // Direct request: annotate before completion.
        let outs = srv.on_client_request(t(0), ClientRequest::read(7, 0, 0, 128));
        let ServerOutput::SubmitDisk(b) = outs[0] else { panic!() };
        srv.annotate_backend_fault(b.id, 2, true);
        let mut spans = Vec::new();
        srv.drain_span_log(&mut spans);
        assert!(spans.contains(&SpanEvent::Faulted { client: 7, retries: 2, timed_out: true }));
        let _ = srv.on_disk_complete(t(10), b.id);
        // Unknown backend id is a no-op, not a panic.
        srv.annotate_backend_fault(9999, 1, false);
    }

    /// Completes every disk request in `outs`, and those they cause, in
    /// order on an instant disk; returns the client ids completed.
    fn drain(srv: &mut StorageServer, mut outs: Vec<ServerOutput>, clock: &mut u64) -> Vec<u64> {
        let mut completed = Vec::new();
        let mut next = 0;
        while let Some(&o) = outs.get(next) {
            next += 1;
            match o {
                ServerOutput::SubmitDisk(b) => {
                    *clock += 1;
                    outs.extend(srv.on_disk_complete(t(*clock), b.id));
                }
                ServerOutput::CompleteClient { client, .. } => completed.push(client),
            }
        }
        completed
    }

    #[test]
    fn oversized_request_sent_direct_on_admission_completes() {
        // M = 16 MiB, R = 8 MiB, N = 1: the first fill's completion retires
        // the stream and re-admits it, and the parked 64 MiB request can
        // never be staged, so admission sends it straight to the disk.
        let mut srv = server(ServerConfig::memory_limited(16 * MIB, 8 * MIB, 1));
        let mut outs = srv.on_client_request(t(0), ClientRequest::read(0, 0, 0, 4096));
        assert_eq!(srv.live_streams(), 1, "one large request is enough to detect");
        outs.extend(srv.on_client_request(t(1), ClientRequest::read(1, 0, 4096, 131_072)));
        let mut completed = drain(&mut srv, outs, &mut 1);
        completed.sort_unstable();
        assert_eq!(completed, [0, 1], "both requests complete");
        assert_eq!(srv.metrics().direct_requests, 2);
    }

    #[test]
    fn request_parked_behind_an_oversized_one_completes() {
        // M = R = 8 MiB, N = 1, so D = 1: stream A holds the only slot
        // while stream B waits with a 64 MiB request, which can never be
        // staged, and a small request parked behind it. Once admission
        // sends the large one direct, the small one still needs a fill.
        let mut srv = server(ServerConfig::memory_limited(8 * MIB, 8 * MIB, 1));
        let mut outs = srv.on_client_request(t(0), ClientRequest::read(0, 0, 0, 4096));
        outs.extend(srv.on_client_request(t(1), ClientRequest::read(1, 0, 5_000_000, 4096)));
        assert_eq!(srv.live_streams(), 2, "each large request detects a stream");
        outs.extend(srv.on_client_request(t(2), ClientRequest::read(2, 0, 5_004_096, 131_072)));
        outs.extend(srv.on_client_request(t(3), ClientRequest::read(3, 0, 5_135_168, 8)));
        let mut clock = 3;
        let mut completed = drain(&mut srv, outs, &mut clock);
        // Idle buffers time out after 10 s: collect three times, 21 s apart.
        for _ in 0..3 {
            clock += 21_000_000;
            let outs = srv.on_gc(t(clock));
            completed.extend(drain(&mut srv, outs, &mut clock));
        }
        completed.sort_unstable();
        assert_eq!(completed, [0, 1, 2, 3], "every request completes");
        // The two detecting requests and the 64 MiB one; 3 takes a fill.
        assert_eq!(srv.metrics().direct_requests, 3);
    }

    #[test]
    fn degraded_disk_rotates_streams_after_each_fill() {
        // Healthy control: full residencies, no rotation counted.
        let (done, srv) = run_closed_loop(server(cfg(2, 64, 8)), 2, 40);
        assert_eq!(done, 80);
        assert_eq!(srv.metrics().degraded_rotations, 0);

        // Same workload on a degraded disk: every fill completion rotates
        // the stream out instead of finishing its N-request residency, and
        // all work still completes.
        let mut srv = server(cfg(2, 64, 8));
        srv.set_disk_degraded(0, true);
        let (done, srv) = run_closed_loop(srv, 2, 40);
        assert_eq!(done, 80, "degraded disk must not lose requests");
        assert!(
            srv.metrics().degraded_rotations > 0,
            "degraded disk must rotate dispatched streams early"
        );
    }
}

#[cfg(test)]
mod dispatch_policy_tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    fn detect_stream(srv: &mut StorageServer, base: u64, first_id: u64) -> Vec<BackendRequest> {
        let mut subs = Vec::new();
        for (k, lba) in [(0u64, base), (1, base + 128)] {
            for o in srv.on_client_request(
                t(first_id * 100 + k),
                ClientRequest::read(first_id * 10 + k, 0, lba, 128),
            ) {
                if let ServerOutput::SubmitDisk(b) = o {
                    subs.push(b);
                }
            }
        }
        subs
    }

    /// With D=1 and three detected streams, round robin admits in
    /// detection order: the far stream, detected before the nearby one,
    /// goes first.
    #[test]
    fn round_robin_admits_in_detection_order() {
        // M holds all three streams' fills: no client reads them back.
        let cfg = ServerConfig {
            dispatch_streams: 1,
            read_ahead_bytes: 64 * 1024,
            requests_per_residency: 1,
            memory_bytes: 3 * 64 * 1024,
            ..ServerConfig::default_tuning()
        };
        let mut srv = StorageServer::new(cfg, vec![10_000_000]);
        // Detect three streams: near (100_000), far (5_000_000),
        // middle (120_000) — in this arrival order. The first detected
        // stream is admitted immediately (slot free); the other two wait.
        let mut subs = Vec::new();
        subs.extend(detect_stream(&mut srv, 100_000, 1));
        subs.extend(detect_stream(&mut srv, 5_000_000, 2));
        subs.extend(detect_stream(&mut srv, 120_000, 3));
        // Complete all outstanding disk work; each admitted stream's fill
        // completion ends its residency and frees the slot.
        let mut order = Vec::new();
        while let Some(b) = subs.pop() {
            for o in srv.on_disk_complete(t(10_000 + b.id), b.id) {
                if let ServerOutput::SubmitDisk(nb) = o {
                    if nb.admitted {
                        order.push(nb.lba);
                    }
                    subs.push(nb);
                }
            }
        }
        // Each admission's fill starts past the two detecting requests.
        assert_eq!(order, [5_000_256, 120_256], "round robin follows arrival order");
    }

    /// Admission preserves the dispatch bound and completes all work.
    #[test]
    fn policies_respect_dispatch_bound() {
        // M holds every stream's residency, so only D bounds admission.
        let cfg = ServerConfig {
            dispatch_streams: 2,
            read_ahead_bytes: 64 * 1024,
            requests_per_residency: 2,
            memory_bytes: 6 * 2 * 64 * 1024,
            ..ServerConfig::default_tuning()
        };
        let mut srv = StorageServer::new(cfg, vec![10_000_000]);
        let mut subs = Vec::new();
        let mut most = 0;
        for i in 0..6u64 {
            subs.extend(detect_stream(&mut srv, i * 1_000_000, i + 1));
            most = most.max(srv.dispatched_streams());
        }
        while let Some(b) = subs.pop() {
            for o in srv.on_disk_complete(t(50_000 + b.id), b.id) {
                if let ServerOutput::SubmitDisk(nb) = o {
                    subs.push(nb);
                }
            }
            most = most.max(srv.dispatched_streams());
        }
        assert_eq!(most, 2, "the dispatch set fills to D and no further");
        let m = srv.metrics();
        assert_eq!((m.admissions, m.fills_issued), (6, 12), "every stream gets one residency");
    }

    /// A retune updates the cached derived values, keeps `M` fixed, and
    /// rejects working sets that no longer fit the existing pool.
    #[test]
    fn retune_updates_derived_values_and_enforces_memory() {
        let cfg = ServerConfig {
            dispatch_streams: 4,
            read_ahead_bytes: 64 * 1024,
            requests_per_residency: 2,
            memory_bytes: 8 * 64 * 1024,
            ..ServerConfig::default_tuning()
        };
        let mut srv = StorageServer::new(cfg, vec![10_000_000; 2]);
        srv.retune(2, 128 * 1024, 2, 3.0).unwrap();
        assert_eq!(srv.config().dispatch_streams, 2);
        assert_eq!(srv.config().read_ahead_bytes, 128 * 1024);
        assert_eq!(srv.config().degraded_rotate_threshold, 3.0);
        assert_eq!(srv.config().memory_bytes, 8 * 64 * 1024, "M never moves");
        assert_eq!(srv.read_ahead_blocks, 256);
        assert_eq!(srv.disk_quota, 1);

        // D*R*N > M: rejected, config untouched.
        let before = srv.config().clone();
        assert!(srv.retune(8, 128 * 1024, 4, 3.0).is_err());
        assert_eq!(*srv.config(), before);
        // Degenerate knobs are rejected through the same validation.
        assert!(srv.retune(0, 128 * 1024, 1, 3.0).is_err());
        assert!(srv.retune(1, 64 * 1024, 1, 1.0).is_err());
    }
}
