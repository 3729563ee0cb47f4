//! Closed-form throughput estimates.
//!
//! First-order analytic expectations for the disk model: the test oracle
//! that `model.rs`'s `analytic_agreement` test holds the simulator to
//! (compiled only for tests). The estimator deliberately captures only the
//! dominant terms — positioning amortization and cache reuse — so
//! simulator agreement within a few tens of percent is the bar, not
//! equality.

use seqio_simcore::SimDuration;

use crate::config::DiskConfig;
use crate::geometry::Geometry;
use crate::request::{bytes_to_blocks, BLOCK_SIZE};
use crate::seek::SeekModel;

/// Outcome of an estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputEstimate {
    /// Expected aggregate throughput in MBytes/s.
    pub mbytes_per_sec: f64,
    /// Expected mechanical time per media operation.
    pub per_op: SimDuration,
    /// Bytes delivered to clients per media operation.
    pub delivered_per_op: u64,
}

/// Average media rate across the zones (bytes/second, including track
/// switches).
pub fn mean_media_rate(cfg: &DiskConfig) -> f64 {
    let geom = Geometry::new(&cfg.geometry, cfg.track_switch);
    let zones = geom.zones();
    let sum: f64 = zones.iter().map(|z| geom.media_rate(z.first_block)).sum();
    sum / zones.len() as f64
}

/// Expected steady-state throughput for `streams` synchronous sequential
/// readers of `request_bytes` each, interleaved round-robin on one disk.
///
/// Model: every cache-missing operation pays command overhead, a seek over
/// the inter-stream spacing, half a rotation, and the media transfer of the
/// request plus its read-ahead. When the stream count fits the segment
/// count, the read-ahead is consumed by later requests (one miss per
/// segment's worth of data); otherwise LRU reclaim voids it and every
/// request misses.
///
/// # Panics
///
/// Panics if `streams == 0`, `request_bytes == 0`, or the configuration is
/// invalid.
pub fn interleaved_streams(
    cfg: &DiskConfig,
    streams: usize,
    request_bytes: u64,
) -> ThroughputEstimate {
    assert!(streams > 0, "need at least one stream");
    assert!(request_bytes > 0, "request must be positive");
    cfg.validate().expect("invalid disk config");
    let geom = Geometry::new(&cfg.geometry, cfg.track_switch);
    let seek = SeekModel::fit(&cfg.seek, geom.total_cylinders());

    let request_blocks = bytes_to_blocks(request_bytes);
    let seg_blocks = bytes_to_blocks(cfg.cache.segment_bytes);
    let ra_blocks = if cfg.cache.segment_count == 0 || request_blocks >= seg_blocks {
        0
    } else {
        bytes_to_blocks(cfg.cache.read_ahead_bytes)
            .saturating_sub(request_blocks)
            .min(seg_blocks - request_blocks)
    };
    let op_blocks = request_blocks + ra_blocks;

    // Reuse: prefetched data survives only while each stream keeps its own
    // segment.
    let reuse = streams <= cfg.cache.segment_count;
    let delivered_blocks = if reuse { op_blocks } else { request_blocks };

    let positioning = if streams == 1 {
        SimDuration::ZERO // contiguous continuation, gap-credited
    } else {
        let spacing_cyl = (geom.total_cylinders() / streams as u64).max(1);
        seek.time(spacing_cyl) + geom.rotation() / 2
    };
    let transfer =
        SimDuration::from_secs_f64(op_blocks as f64 * BLOCK_SIZE as f64 / mean_media_rate(cfg));
    let per_op = cfg.command_overhead + positioning + transfer;
    let delivered = delivered_blocks * BLOCK_SIZE;
    ThroughputEstimate {
        mbytes_per_sec: delivered as f64 / (1024.0 * 1024.0) / per_op.as_secs_f64(),
        per_op,
        delivered_per_op: delivered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use seqio_simcore::units::{KIB, MIB};

    #[test]
    fn mean_rate_between_inner_and_outer() {
        let cfg = DiskConfig::wd800jd();
        let rate = mean_media_rate(&cfg);
        assert!(rate > cfg.geometry.inner_rate as f64 * 0.9);
        assert!(rate < cfg.geometry.outer_rate as f64);
    }

    #[test]
    fn single_stream_near_media_rate() {
        let cfg = DiskConfig::wd800jd();
        let e = interleaved_streams(&cfg, 1, 64 * KIB);
        let mbs = e.mbytes_per_sec;
        assert!(mbs > 40.0 && mbs < 65.0, "{mbs}");
    }

    #[test]
    fn collapse_when_streams_exceed_segments() {
        let cfg = DiskConfig::wd800jd(); // 32 segments
        let ok = interleaved_streams(&cfg, 30, 64 * KIB);
        let thrash = interleaved_streams(&cfg, 100, 64 * KIB);
        assert!(
            ok.mbytes_per_sec > 2.0 * thrash.mbytes_per_sec,
            "{} vs {}",
            ok.mbytes_per_sec,
            thrash.mbytes_per_sec
        );
        assert!(ok.delivered_per_op > thrash.delivered_per_op);
    }

    #[test]
    fn bigger_segments_help_when_they_fit() {
        let small = DiskConfig::wd800jd().with_cache(CacheConfig {
            segment_count: 32,
            segment_bytes: 64 * KIB,
            read_ahead_bytes: 64 * KIB,
        });
        let big = DiskConfig::wd800jd().with_cache(CacheConfig {
            segment_count: 32,
            segment_bytes: 2 * MIB,
            read_ahead_bytes: 2 * MIB,
        });
        let s = interleaved_streams(&small, 30, 64 * KIB).mbytes_per_sec;
        let b = interleaved_streams(&big, 30, 64 * KIB).mbytes_per_sec;
        assert!(b > 3.0 * s, "{b} vs {s}");
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn zero_streams_panics() {
        let _ = interleaved_streams(&DiskConfig::wd800jd(), 0, 64 * 1024);
    }
}
