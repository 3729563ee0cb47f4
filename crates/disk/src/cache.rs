//! Segmented on-disk cache.
//!
//! A disk cache is divided into a fixed number of *segments*, each holding a
//! contiguous run of blocks (the hardware analogue of a cache line). The
//! paper's Figures 4–7 sweep exactly the knobs modeled here: segment count,
//! segment size and read-ahead. When more streams than segments are active,
//! LRU reclaim evicts prefetched data before its stream returns for it —
//! the throughput-collapse mechanism this crate must reproduce.

use seqio_simcore::units::format_bytes;
use seqio_simcore::SimTime;

use crate::request::{bytes_to_blocks, Lba, BLOCK_SIZE};

/// Disk-cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of cache segments (0 disables the cache entirely).
    pub segment_count: usize,
    /// Capacity of each segment in bytes.
    pub segment_bytes: u64,
    /// How far beyond a request the disk fills the segment (bytes). The
    /// effective read-ahead is additionally capped by the free space left in
    /// the segment, so `read_ahead_bytes == request size` or
    /// `segment_bytes == request size` both yield "no prefetch".
    pub read_ahead_bytes: u64,
}

impl CacheConfig {
    /// A disabled cache.
    pub const fn disabled() -> Self {
        CacheConfig { segment_count: 0, segment_bytes: 0, read_ahead_bytes: 0 }
    }

    /// Total cache capacity in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.segment_count as u64 * self.segment_bytes
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.segment_count == 0 {
            return Ok(()); // disabled
        }
        if self.segment_bytes == 0 || !self.segment_bytes.is_multiple_of(BLOCK_SIZE) {
            return Err(format!(
                "segment size {} must be a positive multiple of {BLOCK_SIZE}",
                format_bytes(self.segment_bytes)
            ));
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
struct Segment {
    start: Lba,
    /// Valid blocks from `start`.
    filled: u64,
    /// Highest offset (blocks from `start`) ever served to a host request.
    touched: u64,
    last_touch: SimTime,
    /// `true` once the segment has held data (so empty slots are preferred
    /// for allocation before any eviction happens).
    used: bool,
}

impl Segment {
    const EMPTY: Segment =
        Segment { start: 0, filled: 0, touched: 0, last_touch: SimTime::ZERO, used: false };
}

/// Handle for a fill-in-progress returned by [`SegmentedCache::begin_fill`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillTicket {
    index: usize,
}

/// Counters describing cache behaviour. Hit/miss classification lives in
/// [`DiskMetrics`](crate::DiskMetrics) (counted once per host request by the
/// disk model); the cache tracks reclaim behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheMetrics {
    /// Segments reclaimed (evicted or slid) to make room.
    pub evictions: u64,
    /// Prefetched blocks discarded before any request consumed them.
    pub wasted_blocks: u64,
}

/// The segmented cache itself.
#[derive(Debug, Clone)]
pub struct SegmentedCache {
    cfg: CacheConfig,
    segments: Vec<Segment>,
    metrics: CacheMetrics,
}

impl SegmentedCache {
    /// Creates a cache from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`CacheConfig::validate`]).
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate().expect("invalid cache config");
        SegmentedCache {
            cfg,
            segments: vec![Segment::EMPTY; cfg.segment_count],
            metrics: CacheMetrics::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Behaviour counters.
    pub fn metrics(&self) -> CacheMetrics {
        self.metrics
    }

    fn capacity_blocks(&self) -> u64 {
        bytes_to_blocks(self.cfg.segment_bytes)
    }

    /// Attempts to serve `[lba, lba+blocks)` from the cache. On a hit the
    /// owning segment's LRU position and consumption watermark are updated.
    pub fn lookup(&mut self, lba: Lba, blocks: u64, now: SimTime) -> bool {
        for seg in &mut self.segments {
            if seg.used && seg.start <= lba && lba + blocks <= seg.start + seg.filled {
                seg.touched = seg.touched.max(lba + blocks - seg.start);
                seg.last_touch = now;
                return true;
            }
        }
        false
    }

    /// Non-mutating containment check (no LRU touch, no watermark update).
    pub fn contains(&self, lba: Lba, blocks: u64) -> bool {
        self.segments
            .iter()
            .any(|seg| seg.used && seg.start <= lba && lba + blocks <= seg.start + seg.filled)
    }

    /// If `lba` falls inside a segment's valid data, returns one past the
    /// last contiguous cached block from `lba` (and records the consumption
    /// up to that point). Used to trim a partially-cached read down to the
    /// blocks that actually need the media.
    pub fn coverage_end(&mut self, lba: Lba, now: SimTime) -> Option<Lba> {
        for seg in &mut self.segments {
            if seg.used && seg.start <= lba && lba < seg.start + seg.filled {
                let end = seg.start + seg.filled;
                seg.touched = seg.filled;
                seg.last_touch = now;
                return Some(end);
            }
        }
        None
    }

    /// Plans segment space for a media read of `[lba, lba+total_blocks)`.
    ///
    /// Returns `None` when the cache is disabled or the transfer exceeds one
    /// segment (the data then bypasses the cache). Otherwise reuses a
    /// contiguous segment (extending or sliding it) or evicts the LRU
    /// segment, and returns a ticket to pass to [`commit_fill`] when the
    /// media operation finishes.
    ///
    /// [`commit_fill`]: SegmentedCache::commit_fill
    pub fn begin_fill(&mut self, lba: Lba, total_blocks: u64, now: SimTime) -> Option<FillTicket> {
        if self.cfg.segment_count == 0 {
            return None;
        }
        let cap = self.capacity_blocks();
        if total_blocks > cap {
            return None; // larger than a segment: bypass
        }
        // 1. A segment we can extend: op range is contiguous with (or starts
        //    inside) its valid data and the union still fits.
        for (i, seg) in self.segments.iter_mut().enumerate() {
            if seg.used
                && lba >= seg.start
                && lba <= seg.start + seg.filled
                && (lba + total_blocks - seg.start) <= cap
            {
                seg.last_touch = now;
                return Some(FillTicket { index: i });
            }
        }
        // 2. A contiguous segment that is full: slide it forward (the stream
        //    has consumed it; keep one segment per stream).
        for (i, seg) in self.segments.iter_mut().enumerate() {
            if seg.used && lba >= seg.start && lba <= seg.start + seg.filled {
                self.metrics.wasted_blocks += seg.filled.saturating_sub(seg.touched);
                self.metrics.evictions += 1;
                *seg = Segment { start: lba, filled: 0, touched: 0, last_touch: now, used: true };
                return Some(FillTicket { index: i });
            }
        }
        // 3. Allocate: prefer a never-used slot, else evict the LRU segment.
        let idx = if let Some(i) = self.segments.iter().position(|s| !s.used) {
            i
        } else {
            let i = self
                .segments
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_touch)
                .map(|(i, _)| i)
                .expect("segment_count > 0");
            let victim = &self.segments[i];
            self.metrics.wasted_blocks += victim.filled.saturating_sub(victim.touched);
            self.metrics.evictions += 1;
            i
        };
        self.segments[idx] =
            Segment { start: lba, filled: 0, touched: 0, last_touch: now, used: true };
        Some(FillTicket { index: idx })
    }

    /// Records that the media read `[lba, lba+total_blocks)` planned by
    /// [`begin_fill`](SegmentedCache::begin_fill) has landed in its segment.
    ///
    /// A write that overlapped the segment while the read was in flight
    /// [`invalidate`](SegmentedCache::invalidate)d it; the fill is then
    /// dropped, since the data it read may be stale.
    pub fn commit_fill(&mut self, ticket: FillTicket, lba: Lba, total_blocks: u64, now: SimTime) {
        let seg = &mut self.segments[ticket.index];
        if !seg.used {
            return;
        }
        if lba >= seg.start && lba <= seg.start + seg.filled {
            seg.filled = seg.filled.max(lba + total_blocks - seg.start);
        } else {
            // The segment was re-planned in an unexpected way; restart it.
            seg.start = lba;
            seg.filled = total_blocks;
            seg.touched = 0;
        }
        seg.last_touch = now;
    }

    /// Drops any cached data overlapping `[lba, lba+blocks)` (used on writes).
    pub fn invalidate(&mut self, lba: Lba, blocks: u64) {
        for seg in &mut self.segments {
            if seg.used && lba < seg.start + seg.filled && seg.start < lba + blocks {
                *seg = Segment::EMPTY;
            }
        }
    }

    /// How many blocks of read-ahead to plan beyond a request of
    /// `request_blocks` at the current configuration: limited both by the
    /// configured read-ahead and by segment capacity.
    pub fn plan_read_ahead(&self, request_blocks: u64) -> u64 {
        if self.cfg.segment_count == 0 {
            return 0;
        }
        let cap = self.capacity_blocks();
        if request_blocks >= cap {
            return 0;
        }
        let ra = bytes_to_blocks(self.cfg.read_ahead_bytes);
        ra.saturating_sub(request_blocks).min(cap - request_blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqio_simcore::units::{KIB, MIB};

    fn cache(segments: usize, seg_kib: u64, ra_kib: u64) -> SegmentedCache {
        SegmentedCache::new(CacheConfig {
            segment_count: segments,
            segment_bytes: seg_kib * KIB,
            read_ahead_bytes: ra_kib * KIB,
        })
    }

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = cache(4, 256, 256);
        assert!(!c.lookup(0, 128, t(1)));
        let ticket = c.begin_fill(0, 512, t(1)).unwrap();
        c.commit_fill(ticket, 0, 512, t(2));
        assert!(c.lookup(0, 128, t(3)));
        assert!(c.lookup(384, 128, t(4)));
        assert!(!c.lookup(512, 1, t(5)));
        assert!(c.contains(0, 512));
        assert!(!c.contains(0, 513));
    }

    #[test]
    fn coverage_end_trims_partial_hits() {
        let mut c = cache(4, 256, 256);
        let ticket = c.begin_fill(100, 200, t(1)).unwrap();
        c.commit_fill(ticket, 100, 200, t(1));
        assert_eq!(c.coverage_end(150, t(2)), Some(300));
        assert_eq!(c.coverage_end(300, t(2)), None);
        assert_eq!(c.coverage_end(99, t(2)), None);
    }

    #[test]
    fn read_ahead_planning_respects_caps() {
        let c = cache(4, 256, 128);
        // request 64K = 128 blocks, RA config 128K => 128 blocks beyond.
        assert_eq!(c.plan_read_ahead(128), 128);
        // request as big as read-ahead => none.
        assert_eq!(c.plan_read_ahead(256), 0);
        // request fills the segment => none.
        assert_eq!(c.plan_read_ahead(512), 0);
        // segment capacity caps RA.
        let c2 = cache(4, 256, 10_000);
        assert_eq!(c2.plan_read_ahead(128), 512 - 128);
        // disabled cache plans nothing.
        let c3 = SegmentedCache::new(CacheConfig::disabled());
        assert_eq!(c3.plan_read_ahead(128), 0);
    }

    #[test]
    fn transfers_larger_than_segment_bypass() {
        let mut c = cache(4, 64, 64);
        assert!(c.begin_fill(0, 256, t(1)).is_none());
    }

    #[test]
    fn extend_keeps_one_segment_per_stream() {
        let mut c = cache(2, 256, 256);
        let ti = c.begin_fill(0, 256, t(1)).unwrap();
        c.commit_fill(ti, 0, 256, t(1));
        // Contiguous follow-up extends the same segment.
        let ti2 = c.begin_fill(256, 256, t(2)).unwrap();
        assert_eq!(ti, ti2);
        c.commit_fill(ti2, 256, 256, t(2));
        assert!(c.lookup(0, 512, t(3)));
        assert_eq!(c.metrics().evictions, 0);
    }

    #[test]
    fn slide_recycles_full_segment() {
        let mut c = cache(1, 256, 256); // capacity 512 blocks
        let ti = c.begin_fill(0, 512, t(1)).unwrap();
        c.commit_fill(ti, 0, 512, t(1));
        assert!(c.lookup(0, 512, t(2))); // consume everything
                                         // Next contiguous fill no longer fits -> slide, no waste (all touched).
        let ti2 = c.begin_fill(512, 512, t(3)).unwrap();
        c.commit_fill(ti2, 512, 512, t(3));
        assert!(c.lookup(512, 512, t(4)));
        assert!(!c.lookup(0, 1, t(5))); // old data gone
        let m = c.metrics();
        assert_eq!(m.evictions, 1);
        assert_eq!(m.wasted_blocks, 0);
    }

    #[test]
    fn lru_eviction_counts_waste() {
        let mut c = cache(2, 256, 256);
        let a = c.begin_fill(0, 512, t(1)).unwrap();
        c.commit_fill(a, 0, 512, t(1));
        let b = c.begin_fill(10_000, 512, t(2)).unwrap();
        c.commit_fill(b, 10_000, 512, t(2));
        // Touch segment A so B becomes LRU.
        assert!(c.lookup(0, 64, t(3)));
        // Third stream forces eviction of B, whose 512 blocks were never used.
        let d = c.begin_fill(20_000, 512, t(4)).unwrap();
        c.commit_fill(d, 20_000, 512, t(4));
        let m = c.metrics();
        assert_eq!(m.evictions, 1);
        assert_eq!(m.wasted_blocks, 512);
        assert!(c.lookup(0, 64, t(5)), "A survived");
        assert!(!c.lookup(10_000, 64, t(6)), "B evicted");
    }

    #[test]
    fn thrash_when_streams_exceed_segments() {
        let mut c = cache(2, 256, 256);
        // Three interleaved "streams" over a two-segment cache: nothing
        // survives long enough to be reused.
        let mut hits = 0;
        for round in 0u64..10 {
            for s in 0u64..3 {
                let lba = s * 1_000_000 + round * 128;
                if c.lookup(lba, 128, t(round * 10 + s)) {
                    hits += 1;
                } else if let Some(ti) = c.begin_fill(lba, 512, t(round * 10 + s)) {
                    c.commit_fill(ti, lba, 512, t(round * 10 + s));
                }
            }
        }
        assert_eq!(hits, 0, "LRU must thrash with 3 streams over 2 segments");
        assert!(c.metrics().wasted_blocks > 0);
    }

    #[test]
    fn reuse_when_streams_fit_segments() {
        let mut c = cache(4, 256, 256);
        let mut hits = 0;
        let mut misses = 0;
        for round in 0u64..8 {
            for s in 0u64..3 {
                let lba = s * 1_000_000 + round * 128;
                if c.lookup(lba, 128, t(round * 10 + s)) {
                    hits += 1;
                } else {
                    misses += 1;
                    if let Some(ti) = c.begin_fill(lba, 512, t(round * 10 + s)) {
                        c.commit_fill(ti, lba, 512, t(round * 10 + s));
                    }
                }
            }
        }
        // Each 512-block fill serves 4 x 128-block requests: 1 miss, 3 hits.
        assert!(hits > misses, "hits {hits} misses {misses}");
    }

    #[test]
    fn invalidate_drops_overlaps() {
        let mut c = cache(2, 256, 256);
        let a = c.begin_fill(0, 512, t(1)).unwrap();
        c.commit_fill(a, 0, 512, t(1));
        c.invalidate(100, 10);
        assert!(!c.lookup(0, 64, t(2)));
    }

    #[test]
    fn disabled_cache_never_hits() {
        let mut c = SegmentedCache::new(CacheConfig::disabled());
        assert!(!c.lookup(0, 1, t(1)));
        assert!(c.begin_fill(0, 8, t(1)).is_none());
    }

    #[test]
    fn config_validation() {
        assert!(CacheConfig { segment_count: 1, segment_bytes: 511, read_ahead_bytes: 0 }
            .validate()
            .is_err());
        assert!(CacheConfig::disabled().validate().is_ok());
        assert_eq!(
            CacheConfig { segment_count: 32, segment_bytes: 256 * KIB, read_ahead_bytes: 0 }
                .total_bytes(),
            8 * MIB
        );
    }
}
