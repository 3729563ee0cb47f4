//! The disk state machine.
//!
//! [`Disk`] is a passive, event-driven model: callers [`submit`] requests and
//! relay the returned [`DiskOutput`]s into their own event loop; when an
//! `OpFinished` output fires, they call [`on_op_finished`]. The model runs one
//! mechanical operation at a time; cache hits complete without touching the
//! mechanism.
//!
//! A *media operation* for a read covers the uncached tail of the request
//! plus planned read-ahead (the drive streams the request blocks first, so
//! the request completes as soon as its own blocks are under the head, while
//! the mechanism stays busy filling the rest of the segment — the eager
//! read-ahead behaviour real drives exhibit and the paper's Figures 6–7
//! depend on).
//!
//! [`submit`]: Disk::submit
//! [`on_op_finished`]: Disk::on_op_finished

use seqio_simcore::{DiskFaults, SimDuration, SimRng, SimTime};

use crate::cache::{FillTicket, SegmentedCache};
use crate::config::DiskConfig;
use crate::geometry::Geometry;
use crate::queue::CommandQueue;
use crate::request::{Direction, DiskRequest, Lba, RequestId, BLOCK_SIZE};
use crate::seek::SeekModel;

/// Something the caller must act on, produced by [`Disk::submit`] /
/// [`Disk::on_op_finished`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskOutput {
    /// Request `id` has its data ready (reads) or durably written (writes)
    /// at instant `at`. `hit` is `true` when no media operation was needed.
    Complete {
        /// The completed request.
        id: RequestId,
        /// Payload size in bytes.
        bytes: u64,
        /// Completion instant (never earlier than the call that returned it).
        at: SimTime,
        /// Whether the read was served from the cache / in-flight operation.
        hit: bool,
        /// Whether the media read failed transiently (fault injection); the
        /// caller is expected to retry. Always `false` without an installed
        /// fault plan.
        error: bool,
    },
    /// The caller must invoke [`Disk::on_op_finished`] at instant `at`.
    OpFinished {
        /// When the active media operation releases the mechanism.
        at: SimTime,
    },
}

/// Aggregate behaviour counters for one disk.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskMetrics {
    /// Host requests submitted.
    pub requests: u64,
    /// Reads served entirely from a segment.
    pub cache_hits: u64,
    /// Reads served by attaching to the in-flight media operation.
    pub inflight_hits: u64,
    /// Media operations started.
    pub media_ops: u64,
    /// Positioning operations that required a seek (non-contiguous start).
    pub seeks: u64,
    /// Total seek time.
    pub seek_time: SimDuration,
    /// Total rotational-latency time.
    pub rot_time: SimDuration,
    /// Total mechanism-busy time (positioning + transfer).
    pub busy_time: SimDuration,
    /// Bytes requested by hosts.
    pub bytes_requested: u64,
    /// Bytes streamed off the media (requests + read-ahead).
    pub bytes_from_media: u64,
    /// Injected transient read errors (fault injection only).
    pub read_errors: u64,
    /// Media operations that paid a bad-region remap penalty (fault
    /// injection only).
    pub remapped_ops: u64,
    /// Media operations started inside a straggler window (fault injection
    /// only).
    pub degraded_ops: u64,
}

impl DiskMetrics {
    /// Fraction of `elapsed` the mechanism spent busy (positioning +
    /// transfer). Returns 0 for a zero elapsed time; values can exceed 1
    /// transiently when `elapsed` undercounts in-flight work.
    pub fn busy_fraction(&self, elapsed: SimDuration) -> f64 {
        if elapsed == SimDuration::ZERO {
            return 0.0;
        }
        self.busy_time.as_nanos() as f64 / elapsed.as_nanos() as f64
    }
}

#[derive(Debug, Clone, Copy)]
struct ActiveOp {
    lba: Lba,
    blocks: u64,
    transfer_start: SimTime,
    finish: SimTime,
    ticket: Option<FillTicket>,
    is_write: bool,
    /// Straggler service-time multiplier in effect when the op started
    /// (`1.0` when healthy); scales in-flight coverage estimates.
    slow: f64,
}

/// Installed fault schedule plus the dedicated RNG for error draws. Kept
/// separate from the rotational-phase RNG so enabling faults never
/// perturbs the healthy timing sequence.
#[derive(Debug)]
struct FaultState {
    plan: DiskFaults,
    rng: SimRng,
}

/// A single simulated disk drive.
#[derive(Debug)]
pub struct Disk {
    cfg: DiskConfig,
    geom: Geometry,
    seek: SeekModel,
    cache: SegmentedCache,
    queue: CommandQueue,
    active: Option<ActiveOp>,
    /// One past the last block the mechanism read/wrote.
    last_media_end: Option<Lba>,
    /// Current head cylinder.
    head_cylinder: u64,
    /// When the mechanism last went idle.
    media_free_at: SimTime,
    rng: SimRng,
    faults: Option<FaultState>,
    metrics: DiskMetrics,
}

impl Disk {
    /// Builds a disk from its configuration with a deterministic RNG seed
    /// (used only for rotational-phase sampling).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`DiskConfig::validate`]).
    pub fn new(cfg: DiskConfig, seed: u64) -> Self {
        cfg.validate().expect("invalid disk config");
        let geom = Geometry::new(&cfg.geometry, cfg.track_switch);
        let seek = SeekModel::fit(&cfg.seek, geom.total_cylinders());
        let cache = SegmentedCache::new(cfg.cache);
        let queue = CommandQueue::new(cfg.queue_policy);
        Disk {
            cfg,
            geom,
            seek,
            cache,
            queue,
            active: None,
            last_media_end: None,
            head_cylinder: 0,
            media_free_at: SimTime::ZERO,
            rng: SimRng::seed_from(seed),
            faults: None,
            metrics: DiskMetrics::default(),
        }
    }

    /// Installs a fault schedule for this disk. `seed` feeds the dedicated
    /// fault RNG (error draws), kept separate from the rotational-phase
    /// RNG so a disabled plan leaves the healthy run bit-identical.
    pub fn install_faults(&mut self, plan: DiskFaults, seed: u64) {
        self.faults = Some(FaultState { plan, rng: SimRng::seed_from(seed) });
    }

    /// The disk's geometry (for placement and capacity queries).
    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// The configuration this disk was built from.
    pub fn config(&self) -> &DiskConfig {
        &self.cfg
    }

    /// Behaviour counters.
    pub fn metrics(&self) -> DiskMetrics {
        self.metrics
    }

    /// `true` when no operation is active and nothing is queued.
    pub fn is_idle(&self) -> bool {
        self.active.is_none() && self.queue.is_empty()
    }

    /// Number of queued (not yet started) commands.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Checks that a request is well-formed for this disk.
    ///
    /// # Errors
    ///
    /// Returns a message if the request is empty or runs past the disk end.
    pub fn validate_request(&self, req: &DiskRequest) -> Result<(), String> {
        if req.blocks == 0 {
            return Err(format!("{}: zero-length transfer", req.id));
        }
        if req.end() > self.geom.total_blocks() {
            return Err(format!(
                "{}: [{}, {}) beyond disk end {}",
                req.id,
                req.lba,
                req.end(),
                self.geom.total_blocks()
            ));
        }
        Ok(())
    }

    /// Submits a request.
    ///
    /// Convenience wrapper over [`submit_into`](Disk::submit_into) that
    /// allocates a fresh output vector per call; the simulation hot paths use
    /// the `_into` variant with a reusable scratch buffer instead.
    ///
    /// # Panics
    ///
    /// Panics if the request fails [`validate_request`](Disk::validate_request).
    pub fn submit(&mut self, now: SimTime, req: DiskRequest) -> Vec<DiskOutput> {
        let mut out = Vec::new();
        self.submit_into(now, req, &mut out);
        out
    }

    /// Submits a request, appending outputs to `out` instead of allocating.
    ///
    /// # Panics
    ///
    /// Panics if the request fails [`validate_request`](Disk::validate_request).
    pub fn submit_into(&mut self, now: SimTime, req: DiskRequest, out: &mut Vec<DiskOutput>) {
        self.validate_request(&req).expect("invalid disk request");
        self.metrics.requests += 1;
        self.metrics.bytes_requested += req.bytes();
        match req.direction {
            Direction::Write => {
                self.cache.invalidate(req.lba, req.blocks);
                self.queue.push(req);
            }
            Direction::Read => {
                // The drive's cache fast paths only apply to commands that
                // actually reach the drive; with a deep backlog the command
                // sits in the host FIFO instead (and is re-checked when it
                // reaches the mechanism).
                let at_device = self.queue.len() < self.cfg.device_queue_depth;
                // Fully covered by the in-flight media operation?
                if let Some(op) = self.active {
                    if at_device
                        && !op.is_write
                        && op.lba <= req.lba
                        && req.end() <= op.lba + op.blocks
                    {
                        let mut avail =
                            self.geom.covered_at(op.transfer_start, op.lba, op.blocks, req.end());
                        if op.slow > 1.0 {
                            avail = op.transfer_start
                                + avail.duration_since(op.transfer_start).mul_f64(op.slow);
                        }
                        let at = avail.max(now) + self.cfg.command_overhead;
                        self.metrics.inflight_hits += 1;
                        out.push(DiskOutput::Complete {
                            id: req.id,
                            bytes: req.bytes(),
                            at,
                            hit: true,
                            error: false,
                        });
                        return;
                    }
                }
                // Fully in cache?
                if at_device && self.cache.lookup(req.lba, req.blocks, now) {
                    self.metrics.cache_hits += 1;
                    out.push(DiskOutput::Complete {
                        id: req.id,
                        bytes: req.bytes(),
                        at: now + self.cfg.command_overhead,
                        hit: true,
                        error: false,
                    });
                    return;
                }
                self.queue.push(req);
            }
        }
        self.try_start(now, out);
    }

    /// Must be called when an [`DiskOutput::OpFinished`] instant arrives.
    ///
    /// Convenience wrapper over [`on_op_finished_into`](Disk::on_op_finished_into).
    ///
    /// # Panics
    ///
    /// Panics if no operation is active or `now` is not its finish instant.
    pub fn on_op_finished(&mut self, now: SimTime) -> Vec<DiskOutput> {
        let mut out = Vec::new();
        self.on_op_finished_into(now, &mut out);
        out
    }

    /// [`on_op_finished`](Disk::on_op_finished), appending outputs to `out`
    /// instead of allocating.
    ///
    /// # Panics
    ///
    /// Panics if no operation is active or `now` is not its finish instant.
    pub fn on_op_finished_into(&mut self, now: SimTime, out: &mut Vec<DiskOutput>) {
        let op = self.active.take().expect("on_op_finished with no active op");
        assert_eq!(op.finish, now, "on_op_finished at the wrong instant");
        if let Some(ticket) = op.ticket {
            self.cache.commit_fill(ticket, op.lba, op.blocks, now);
        }
        let end = op.lba + op.blocks;
        self.last_media_end = Some(end);
        self.head_cylinder = self.geom.cylinder_of(end.min(self.geom.total_blocks() - 1));
        self.media_free_at = now;
        self.try_start(now, out);
    }

    /// Starts the next queued command if the mechanism is free.
    fn try_start(&mut self, now: SimTime, out: &mut Vec<DiskOutput>) {
        while self.active.is_none() {
            let head = self.last_media_end.unwrap_or(0);
            let Some(req) = self.queue.pop_next(head) else { break };

            // Conditions may have changed while queued: re-check the cache.
            if req.direction == Direction::Read && self.cache.lookup(req.lba, req.blocks, now) {
                self.metrics.cache_hits += 1;
                out.push(DiskOutput::Complete {
                    id: req.id,
                    bytes: req.bytes(),
                    at: now + self.cfg.command_overhead,
                    hit: true,
                    error: false,
                });
                continue;
            }

            // Trim a partially-cached read down to the blocks that need media.
            let op_lba = if req.direction == Direction::Read {
                match self.cache.coverage_end(req.lba, now) {
                    Some(end) if end > req.lba => end.min(req.end() - 1).max(req.lba),
                    _ => req.lba,
                }
            } else {
                req.lba
            };
            debug_assert!(op_lba < req.end());
            let needed = req.end() - op_lba;

            // Plan read-ahead beyond the request.
            let ra = if req.direction == Direction::Read {
                self.cache.plan_read_ahead(needed)
            } else {
                0
            };
            let total = (needed + ra).min(self.geom.total_blocks() - op_lba);

            // Fault injection: the straggler multiplier in effect right now
            // and the remap penalty for the blocks this op covers. Both stay
            // at their identity values (and cost nothing) when no plan is
            // installed, keeping healthy runs bit-identical.
            let (slow, remap) = match &self.faults {
                Some(f) => (f.plan.straggler_factor(now), f.plan.remap_penalty(op_lba, total)),
                None => (1.0, SimDuration::ZERO),
            };

            // Positioning: a contiguous continuation within the
            // speed-matching window pays nothing — and is *credited* for the
            // idle gap, because the firmware kept streaming the track into
            // its buffer while waiting for the command (this is what lets a
            // single synchronous sequential reader run at media rate on real
            // drives). Anything else pays seek + rotational latency.
            let gap = now.saturating_duration_since(self.media_free_at);
            let contiguous =
                self.last_media_end == Some(op_lba) && gap <= self.cfg.sequential_gap_tolerance;
            let mut ttime = self.geom.transfer_time(op_lba, total);
            if slow > 1.0 {
                ttime = ttime.mul_f64(slow);
                self.metrics.degraded_ops += 1;
            }
            let mut transfer_start = if contiguous {
                // Backdate the transfer by the buffered head start (the
                // drive read up to `gap` worth of this data already).
                let credit = gap.min(ttime);
                now + self.cfg.command_overhead - credit
            } else {
                let target = self.geom.cylinder_of(op_lba);
                let dist = target.abs_diff(self.head_cylinder);
                let mut seek = self.seek.time(dist);
                let mut rot = self.geom.rotation().mul_f64(self.rng.unit());
                if slow > 1.0 {
                    seek = seek.mul_f64(slow);
                    rot = rot.mul_f64(slow);
                }
                self.metrics.seeks += 1;
                self.metrics.seek_time += seek;
                self.metrics.rot_time += rot;
                now + self.cfg.command_overhead + seek + rot
            };
            if remap > SimDuration::ZERO {
                transfer_start += remap;
                self.metrics.remapped_ops += 1;
            }
            let finish = transfer_start + ttime;
            let ticket = if req.direction == Direction::Read {
                self.cache.begin_fill(op_lba, total, now)
            } else {
                None
            };

            self.metrics.media_ops += 1;
            self.metrics.bytes_from_media += total * BLOCK_SIZE;
            self.metrics.busy_time += finish.duration_since(now);

            // The submitting request completes once its own blocks are read
            // (or, for writes, when the whole operation lands).
            let complete_at = if req.direction == Direction::Read {
                let mut covered = self.geom.covered_at(transfer_start, op_lba, total, req.end());
                if slow > 1.0 {
                    covered = transfer_start + covered.duration_since(transfer_start).mul_f64(slow);
                }
                // `.max(now)`: a backdated (gap-credited) transfer may have
                // "already covered" the requested blocks.
                (covered + self.cfg.command_overhead).max(now + self.cfg.command_overhead)
            } else {
                finish
            };
            let error = match self.faults.as_mut() {
                Some(f) if req.direction == Direction::Read && f.plan.read_error_rate > 0.0 => {
                    let e = f.rng.chance(f.plan.read_error_rate);
                    if e {
                        self.metrics.read_errors += 1;
                    }
                    e
                }
                _ => false,
            };
            out.push(DiskOutput::Complete {
                id: req.id,
                bytes: req.bytes(),
                at: complete_at,
                hit: false,
                error,
            });

            self.active = Some(ActiveOp {
                lba: op_lba,
                blocks: total,
                transfer_start,
                finish,
                ticket,
                is_write: req.direction == Direction::Write,
                slow,
            });
            out.push(DiskOutput::OpFinished { at: finish });
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use seqio_simcore::units::{KIB, MIB};

    fn disk() -> Disk {
        Disk::new(DiskConfig::wd800jd(), 42)
    }

    fn disk_with_cache(segments: usize, seg_bytes: u64, ra: u64) -> Disk {
        let cfg = DiskConfig::wd800jd().with_cache(CacheConfig {
            segment_count: segments,
            segment_bytes: seg_bytes,
            read_ahead_bytes: ra,
        });
        Disk::new(cfg, 42)
    }

    /// Event-driven harness: `streams[i]` issues `reqs_per_stream`
    /// back-to-back sequential reads of `blocks` starting at its offset,
    /// with one outstanding request per stream. Returns (bytes, end time,
    /// hit count).
    pub(super) fn run_streams(
        d: &mut Disk,
        starts: &[Lba],
        blocks: u64,
        reqs_per_stream: u64,
        turnaround: SimDuration,
    ) -> (u64, SimTime, u64) {
        use seqio_simcore::EventQueue;
        #[derive(Debug)]
        enum Ev {
            Submit(DiskRequest),
            OpFinished,
            Done(RequestId, bool),
        }
        let n = starts.len() as u64;
        let mut q = EventQueue::new();
        let mut issued = vec![0u64; starts.len()];
        let mut bytes = 0u64;
        let mut hits = 0u64;
        let mut end = SimTime::ZERO;
        for (s, &lba) in starts.iter().enumerate() {
            q.push(SimTime::ZERO, Ev::Submit(DiskRequest::read(RequestId(s as u64), lba, blocks)));
            issued[s] = 1;
        }
        let handle = |outs: Vec<DiskOutput>, q: &mut EventQueue<Ev>, now: SimTime| {
            for o in outs {
                match o {
                    DiskOutput::Complete { id, at, hit, .. } => {
                        q.push(at.max(now), Ev::Done(id, hit));
                    }
                    DiskOutput::OpFinished { at } => q.push(at, Ev::OpFinished),
                }
            }
        };
        while let Some((now, ev)) = q.pop() {
            match ev {
                Ev::Submit(r) => {
                    let outs = d.submit(now, r);
                    handle(outs, &mut q, now);
                }
                Ev::OpFinished => {
                    let outs = d.on_op_finished(now);
                    handle(outs, &mut q, now);
                }
                Ev::Done(id, hit) => {
                    bytes += blocks * BLOCK_SIZE;
                    if hit {
                        hits += 1;
                    }
                    end = now;
                    let s = (id.0 % n) as usize;
                    if issued[s] < reqs_per_stream {
                        let lba = starts[s] + issued[s] * blocks;
                        issued[s] += 1;
                        let next = DiskRequest::read(RequestId(id.0 + n), lba, blocks);
                        q.push(now + turnaround, Ev::Submit(next));
                    }
                }
            }
        }
        (bytes, end, hits)
    }

    /// Drives a single request through the state machine, returning
    /// (completion time, hit flag).
    fn run_one(d: &mut Disk, now: SimTime, req: DiskRequest) -> (SimTime, bool) {
        let outs = d.submit(now, req);
        let mut done: Option<(SimTime, bool)> = None;
        let mut finish: Option<SimTime> = None;
        for o in outs {
            match o {
                DiskOutput::Complete { id, at, hit, .. } => {
                    assert_eq!(id, req.id);
                    done = Some((at, hit));
                }
                DiskOutput::OpFinished { at } => finish = Some(at),
            }
        }
        if let Some(at) = finish {
            let more = d.on_op_finished(at);
            assert!(more.is_empty(), "no queued work expected");
        }
        done.expect("request must complete")
    }

    #[test]
    fn cold_read_takes_mechanical_time() {
        let mut d = disk();
        let (at, hit) =
            run_one(&mut d, SimTime::ZERO, DiskRequest::read(RequestId(1), 1_000_000, 128));
        assert!(!hit);
        // Seek + rotation + transfer: somewhere between 0.5ms and 35ms.
        let ms = at.as_millis_f64();
        assert!(ms > 0.5 && ms < 35.0, "cold 64K read took {ms}ms");
        assert_eq!(d.metrics().media_ops, 1);
        assert_eq!(d.metrics().requests, 1);
    }

    #[test]
    fn sequential_reads_hit_readahead() {
        let mut d = disk_with_cache(32, 256 * KIB, 256 * KIB);
        let (_, _, hits) = run_streams(&mut d, &[0], 128, 16, SimDuration::from_micros(50));
        // 256K segments over 64K requests: 3 of every 4 requests hit.
        assert!(hits >= 10, "only {hits}/16 hits");
    }

    #[test]
    fn single_stream_sustains_high_throughput() {
        // Synchronous sequential 64K reads with read-ahead should land in the
        // 35-60 MB/s range the paper measures for one stream.
        let mut d = disk_with_cache(32, 2 * MIB, 2 * MIB);
        let (bytes, end, _) = run_streams(&mut d, &[0], 128, 400, SimDuration::from_micros(100));
        let mbs = bytes as f64 / (1024.0 * 1024.0) / end.as_secs_f64();
        assert!(mbs > 30.0 && mbs < 65.0, "single-stream throughput {mbs} MB/s");
    }

    #[test]
    fn many_streams_without_readahead_collapse() {
        // 30 interleaved streams, no read-ahead: every request seeks.
        let mut d = disk_with_cache(32, 64 * KIB, 64 * KIB); // segment == request
        let spacing = d.geometry().total_blocks() / 30;
        let starts: Vec<Lba> = (0..30).map(|s| s * spacing).collect();
        let (bytes, end, _) = run_streams(&mut d, &starts, 128, 20, SimDuration::from_micros(100));
        let mbs = bytes as f64 / (1024.0 * 1024.0) / end.as_secs_f64();
        assert!(mbs < 15.0, "interleaved no-RA throughput should collapse, got {mbs} MB/s");
        assert!(d.metrics().seeks > 500);
    }

    #[test]
    fn readahead_restores_multi_stream_throughput() {
        // The same 30 streams with 2 MiB segments/read-ahead recover most of
        // the disk's streaming rate — the paper's central observation.
        let mut collapse = disk_with_cache(32, 64 * KIB, 64 * KIB);
        let mut ra = disk_with_cache(32, 2 * MIB, 2 * MIB);
        let spacing = collapse.geometry().total_blocks() / 30;
        let starts: Vec<Lba> = (0..30).map(|s| s * spacing).collect();
        let (b1, e1, _) =
            run_streams(&mut collapse, &starts, 128, 20, SimDuration::from_micros(100));
        let (b2, e2, _) = run_streams(&mut ra, &starts, 128, 60, SimDuration::from_micros(100));
        let slow = b1 as f64 / e1.as_secs_f64();
        let fast = b2 as f64 / e2.as_secs_f64();
        assert!(
            fast > 2.5 * slow,
            "2MiB read-ahead should be >2.5x faster: {:.1} vs {:.1} MB/s",
            fast / (1024.0 * 1024.0),
            slow / (1024.0 * 1024.0)
        );
    }

    #[test]
    fn inflight_request_attaches_to_active_op() {
        let mut d = disk_with_cache(32, MIB, MIB);
        // First request starts a 1 MiB media op (64K request + RA).
        let outs = d.submit(SimTime::ZERO, DiskRequest::read(RequestId(1), 0, 128));
        let finish = outs
            .iter()
            .find_map(|o| match o {
                DiskOutput::OpFinished { at } => Some(*at),
                _ => None,
            })
            .unwrap();
        // While the op is in flight, a request inside its range completes
        // without a second media op.
        let mid = SimTime::from_nanos(finish.as_nanos() / 2);
        let outs2 = d.submit(mid, DiskRequest::read(RequestId(2), 512, 128));
        assert_eq!(outs2.len(), 1);
        match outs2[0] {
            DiskOutput::Complete { id, hit, at, .. } => {
                assert_eq!(id, RequestId(2));
                assert!(hit);
                assert!(at <= finish + SimDuration::from_millis(1));
            }
            _ => panic!("expected completion"),
        }
        assert_eq!(d.metrics().inflight_hits, 1);
        assert_eq!(d.metrics().media_ops, 1);
        d.on_op_finished(finish);
    }

    #[test]
    fn write_invalidates_cache() {
        let mut d = disk_with_cache(32, 256 * KIB, 256 * KIB);
        let (_, _) = run_one(&mut d, SimTime::ZERO, DiskRequest::read(RequestId(1), 0, 128));
        // Cached now; a write to the same range invalidates.
        let (at, hit) = run_one(
            &mut d,
            SimTime::from_nanos(1_000_000_000),
            DiskRequest::write(RequestId(2), 0, 128),
        );
        assert!(!hit);
        let (_, hit3) = run_one(
            &mut d,
            at + SimDuration::from_millis(1),
            DiskRequest::read(RequestId(3), 0, 128),
        );
        assert!(!hit3, "read after write must go to media");
    }

    #[test]
    fn write_during_a_fill_drops_the_fill() {
        let op_finish = |outs: &[DiskOutput]| {
            outs.iter().find_map(|o| match o {
                DiskOutput::OpFinished { at } => Some(*at),
                _ => None,
            })
        };
        // The first read fills [0, 512) of a 1 MiB segment; the read at 512
        // extends that segment, and the write at 0 invalidates it while the
        // extending fill is still on the media.
        let mut d = disk_with_cache(32, MIB, 256 * KIB);
        run_one(&mut d, SimTime::ZERO, DiskRequest::read(RequestId(1), 0, 128));
        let t = SimTime::from_nanos(1_000_000_000);
        let fill = op_finish(&d.submit(t, DiskRequest::read(RequestId(2), 512, 128)))
            .expect("the read at 512 goes to the media");
        assert!(d.submit(t, DiskRequest::write(RequestId(3), 0, 128)).is_empty());
        let write = op_finish(&d.on_op_finished(fill)).expect("the write starts after the fill");
        assert!(d.on_op_finished(write).is_empty());
        let (_, hit) = run_one(
            &mut d,
            write + SimDuration::from_millis(1),
            DiskRequest::read(RequestId(4), 512, 128),
        );
        assert!(!hit, "a fill landing in an invalidated segment is dropped");
    }

    #[test]
    fn queue_drains_in_order() {
        let mut d = disk_with_cache(0, 0, 0); // no cache
        let mut outs = Vec::new();
        for i in 0..5u64 {
            outs.extend(
                d.submit(SimTime::ZERO, DiskRequest::read(RequestId(i), i * 1_000_000, 128)),
            );
        }
        // Exactly one op active; drain the chain.
        let mut completed = Vec::new();
        loop {
            let mut next_finish = None;
            for o in &outs {
                match *o {
                    DiskOutput::Complete { id, .. } => completed.push(id),
                    DiskOutput::OpFinished { at } => next_finish = Some(at),
                }
            }
            outs.clear();
            match next_finish {
                Some(at) => outs = d.on_op_finished(at),
                None => break,
            }
        }
        completed.sort();
        completed.dedup();
        assert_eq!(completed.len(), 5);
        assert!(d.is_idle());
    }

    #[test]
    #[should_panic(expected = "invalid disk request")]
    fn oversized_request_panics() {
        let mut d = disk();
        let end = d.geometry().total_blocks();
        let _ = d.submit(SimTime::ZERO, DiskRequest::read(RequestId(1), end - 10, 20));
    }

    #[test]
    fn validate_request_reports_errors() {
        let d = disk();
        assert!(d.validate_request(&DiskRequest::read(RequestId(1), 0, 0)).is_err());
        assert!(d.validate_request(&DiskRequest::read(RequestId(1), 0, 8)).is_ok());
    }

    #[test]
    fn contiguous_continuation_skips_seek() {
        let mut d = disk_with_cache(0, 0, 0);
        let (at1, _) = run_one(&mut d, SimTime::ZERO, DiskRequest::read(RequestId(1), 0, 256));
        let seeks_before = d.metrics().seeks;
        // Immediately continue where the media op ended.
        let (_, _) = run_one(&mut d, at1, DiskRequest::read(RequestId(2), 256, 256));
        assert_eq!(d.metrics().seeks, seeks_before, "contiguous read must not seek");
    }

    #[test]
    fn gap_beyond_tolerance_pays_rotation() {
        let mut d = disk_with_cache(0, 0, 0);
        let (at1, _) = run_one(&mut d, SimTime::ZERO, DiskRequest::read(RequestId(1), 0, 256));
        let seeks_before = d.metrics().seeks;
        // Come back far later: the platter has rotated away.
        let (_, _) = run_one(
            &mut d,
            at1 + SimDuration::from_millis(50),
            DiskRequest::read(RequestId(2), 256, 256),
        );
        assert_eq!(d.metrics().seeks, seeks_before + 1);
    }
}

#[cfg(test)]
mod device_queue_tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::config::DiskConfig;
    use seqio_simcore::units::KIB;

    fn disk_with_cache(segments: usize, seg_bytes: u64, ra: u64) -> Disk {
        let cfg = DiskConfig::wd800jd().with_cache(CacheConfig {
            segment_count: segments,
            segment_bytes: seg_bytes,
            read_ahead_bytes: ra,
        });
        Disk::new(cfg, 7)
    }

    /// Fill the cache with one op, then bury the disk under a backlog deeper
    /// than the device queue: a fresh submit for cached data must NOT take
    /// the fast path (it waits in the host FIFO), but when it reaches the
    /// mechanism the op-start recheck still serves it from the cache.
    #[test]
    fn deep_backlog_defers_cache_hits_to_op_start() {
        let mut d = disk_with_cache(32, 256 * KIB, 256 * KIB);
        // Op 1: populate the segment at lba 0.
        let outs = d.submit(SimTime::ZERO, DiskRequest::read(RequestId(0), 0, 128));
        let finish = outs
            .iter()
            .find_map(|o| match o {
                DiskOutput::OpFinished { at } => Some(*at),
                _ => None,
            })
            .unwrap();
        let mut next = d.on_op_finished(finish);
        assert!(next.is_empty());
        // Backlog: more queued commands than the device queue holds.
        let depth = d.config().device_queue_depth;
        let mut events = Vec::new();
        let t = finish + SimDuration::from_millis(1);
        for i in 0..(depth as u64 + 4) {
            events.extend(
                d.submit(t, DiskRequest::read(RequestId(10 + i), 40_000_000 + i * 1_000_000, 128)),
            );
        }
        // Now re-read the cached range: with a deep backlog this must not
        // complete instantly as a submit-time hit.
        let before_hits = d.metrics().cache_hits;
        let outs = d.submit(t, DiskRequest::read(RequestId(99), 0, 128));
        assert!(
            outs.iter()
                .all(|o| !matches!(o, DiskOutput::Complete { id, .. } if *id == RequestId(99))),
            "deep backlog must defer the hit: {outs:?}"
        );
        assert_eq!(d.metrics().cache_hits, before_hits);
        events.extend(outs);
        // Drain the whole queue; the buried request eventually completes as
        // an op-start cache hit.
        let mut done99 = false;
        let mut hit99 = false;
        let mut pending: Vec<DiskOutput> = events;
        loop {
            let mut op_finish = None;
            for o in pending.drain(..) {
                match o {
                    DiskOutput::Complete { id, hit, .. } => {
                        if id == RequestId(99) {
                            done99 = true;
                            hit99 = hit;
                        }
                    }
                    DiskOutput::OpFinished { at } => op_finish = Some(at),
                }
            }
            match op_finish {
                Some(at) => pending = d.on_op_finished(at),
                None => break,
            }
        }
        assert!(done99, "buried request completes");
        assert!(hit99, "…as a cache hit at op start");
        next.clear();
    }

    /// The firmware gap credit: a contiguous continuation after a short idle
    /// gap finishes (gap-credit) sooner than after a long one, and far
    /// sooner than a non-contiguous read.
    #[test]
    fn gap_credit_shrinks_contiguous_service() {
        let service = |gap_ms: u64, contiguous: bool| {
            let mut d = disk_with_cache(0, 0, 0);
            let outs = d.submit(SimTime::ZERO, DiskRequest::read(RequestId(1), 0, 2048));
            let finish = outs
                .iter()
                .find_map(|o| match o {
                    DiskOutput::OpFinished { at } => Some(*at),
                    _ => None,
                })
                .unwrap();
            d.on_op_finished(finish);
            let start = finish + SimDuration::from_millis(gap_ms);
            let lba = if contiguous { 2048 } else { 30_000_000 };
            let outs = d.submit(start, DiskRequest::read(RequestId(2), lba, 2048));
            let done = outs
                .iter()
                .find_map(|o| match o {
                    DiskOutput::Complete { at, .. } => Some(*at),
                    _ => None,
                })
                .unwrap();
            done.duration_since(start)
        };
        let credited = service(5, true); // within the 10ms window
        let uncredited = service(50, true); // window expired: rotational hit
        let random = service(5, false);
        assert!(
            credited < uncredited,
            "gap credit must shorten service: {credited} vs {uncredited}"
        );
        assert!(random > credited, "random read pays seek + rotation: {random}");
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::cache::CacheConfig;
    use seqio_simcore::FaultPlan;

    fn disk_no_cache() -> Disk {
        let cfg = DiskConfig::wd800jd().with_cache(CacheConfig {
            segment_count: 0,
            segment_bytes: 0,
            read_ahead_bytes: 0,
        });
        Disk::new(cfg, 42)
    }

    /// Runs one cold read and returns its completion time.
    fn cold_read(d: &mut Disk) -> SimTime {
        let outs = d.submit(SimTime::ZERO, DiskRequest::read(RequestId(1), 1_000_000, 128));
        let mut done = None;
        let mut finish = None;
        for o in outs {
            match o {
                DiskOutput::Complete { at, .. } => done = Some(at),
                DiskOutput::OpFinished { at } => finish = Some(at),
            }
        }
        d.on_op_finished(finish.expect("media op"));
        done.expect("completion")
    }

    #[test]
    fn straggler_inflates_service_time() {
        let healthy = cold_read(&mut disk_no_cache());
        let mut slow = disk_no_cache();
        let plan = FaultPlan::new().straggler(0, 4.0, SimDuration::ZERO, None);
        slow.install_faults(plan.disk(0).unwrap().clone(), 9);
        let degraded = cold_read(&mut slow);
        let ratio = degraded.as_nanos() as f64 / healthy.as_nanos() as f64;
        assert!(ratio > 2.5, "4x straggler should inflate service: ratio {ratio:.2}");
        assert_eq!(slow.metrics().degraded_ops, 1);
        assert_eq!(slow.metrics().read_errors, 0);
    }

    #[test]
    fn inactive_window_leaves_timing_identical() {
        let healthy = cold_read(&mut disk_no_cache());
        let mut d = disk_no_cache();
        // Window far in the future: the op at t=0 must be untouched.
        let plan = FaultPlan::new().straggler(0, 8.0, SimDuration::from_secs(100), None);
        d.install_faults(plan.disk(0).unwrap().clone(), 9);
        assert_eq!(cold_read(&mut d), healthy);
        assert_eq!(d.metrics().degraded_ops, 0);
    }

    #[test]
    fn bad_region_charges_remap_penalty() {
        let healthy = cold_read(&mut disk_no_cache());
        let mut d = disk_no_cache();
        let penalty = SimDuration::from_millis(20);
        let plan = FaultPlan::new().bad_region(0, 1_000_000, 256, penalty);
        d.install_faults(plan.disk(0).unwrap().clone(), 9);
        let remapped = cold_read(&mut d);
        assert_eq!(remapped, healthy + penalty);
        assert_eq!(d.metrics().remapped_ops, 1);
    }

    #[test]
    fn read_errors_are_flagged_and_deterministic() {
        let errors_of = |seed: u64| {
            let mut d = disk_no_cache();
            let plan = FaultPlan::new().read_errors(0, 0.5);
            d.install_faults(plan.disk(0).unwrap().clone(), seed);
            let mut flagged = Vec::new();
            for i in 0..20u64 {
                let outs = d.submit(SimTime::ZERO, DiskRequest::read(RequestId(i), 0, 128));
                let mut finish = None;
                for o in outs {
                    match o {
                        DiskOutput::Complete { id, error, .. } => {
                            if error {
                                flagged.push(id.0);
                            }
                        }
                        DiskOutput::OpFinished { at } => finish = Some(at),
                    }
                }
                d.on_op_finished(finish.expect("media op"));
            }
            (flagged, d.metrics().read_errors)
        };
        let (flagged, count) = errors_of(9);
        assert!(count > 0, "50% error rate over 20 media reads must fire");
        assert_eq!(flagged.len() as u64, count);
        assert_eq!(errors_of(9), (flagged, count), "same seed, same errors");
    }
}

#[cfg(test)]
mod analytic_agreement {
    use super::tests::run_streams;
    use super::*;
    use crate::analytic;
    use crate::cache::CacheConfig;
    use crate::config::DiskConfig;
    use seqio_simcore::units::KIB;

    /// The simulator and the closed-form estimate agree within 40% on the
    /// interleaved-stream regimes the paper sweeps.
    #[test]
    fn simulator_matches_estimate_within_tolerance() {
        for (streams, segments) in [(10usize, 32usize), (30, 32), (100, 32)] {
            let cfg = DiskConfig::wd800jd().with_cache(CacheConfig {
                segment_count: segments,
                segment_bytes: 256 * KIB,
                read_ahead_bytes: 256 * KIB,
            });
            let est = analytic::interleaved_streams(&cfg, streams, 64 * KIB).mbytes_per_sec;
            let mut d = Disk::new(cfg, 3);
            let spacing = d.geometry().total_blocks() / streams as u64;
            let starts: Vec<Lba> = (0..streams as u64).map(|s| s * spacing).collect();
            let (bytes, end, _) =
                run_streams(&mut d, &starts, 128, 40, SimDuration::from_micros(300));
            let sim = bytes as f64 / (1024.0 * 1024.0) / end.as_secs_f64();
            let ratio = sim / est;
            assert!(
                (0.6..=1.6).contains(&ratio),
                "{streams} streams: sim {sim:.1} vs estimate {est:.1} (ratio {ratio:.2})"
            );
        }
    }
}
