//! Whole-disk configuration and presets.

use seqio_simcore::units::{KIB, MIB};
use seqio_simcore::SimDuration;

use crate::cache::CacheConfig;
use crate::geometry::GeometryConfig;
use crate::queue::QueuePolicy;
use crate::seek::SeekConfig;

/// Complete description of one disk drive.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskConfig {
    /// Platter/zone layout.
    pub geometry: GeometryConfig,
    /// Seek-time characteristics.
    pub seek: SeekConfig,
    /// On-disk segmented cache.
    pub cache: CacheConfig,
    /// Command-queue ordering.
    pub queue_policy: QueuePolicy,
    /// How many commands the drive itself holds (TCQ/NCQ depth). Only
    /// commands that have reached the drive can be served from its cache or
    /// attach to the in-flight operation; anything deeper waits in the host
    /// FIFO and is (re-)checked when it reaches the mechanism. Commodity
    /// SATA drives of the paper's era hold only a handful.
    pub device_queue_depth: usize,
    /// Fixed electronics/command-processing overhead charged per operation
    /// (both cache hits and media operations).
    pub command_overhead: SimDuration,
    /// Head-settle time when streaming crosses a track boundary.
    pub track_switch: SimDuration,
    /// Idle-gap length the drive's speed-matching buffer absorbs: if a
    /// contiguous read arrives within this long of the previous media
    /// operation finishing, no rotational re-alignment is charged.
    pub sequential_gap_tolerance: SimDuration,
}

impl DiskConfig {
    /// Western Digital Caviar SE WD800JD-alike — the drive used in the
    /// paper's testbed: 80 GB, 7200 rpm, 8.9 ms average seek, 8 MB cache,
    /// SATA-150. Application-level sustained throughput lands in the
    /// 55–60 MB/s range the paper reports.
    pub fn wd800jd() -> Self {
        DiskConfig {
            geometry: GeometryConfig {
                capacity_bytes: 80_000_000_000,
                heads: 2,
                rpm: 7200,
                zones: 16,
                outer_rate: 66 * MIB,
                inner_rate: 38 * MIB,
            },
            seek: SeekConfig {
                track_to_track: SimDuration::from_millis(2),
                average: SimDuration::from_millis_f64(8.9),
                full_stroke: SimDuration::from_millis(21),
            },
            cache: CacheConfig {
                segment_count: 32,
                segment_bytes: 256 * KIB,
                read_ahead_bytes: 256 * KIB,
            },
            queue_policy: QueuePolicy::Fifo,
            device_queue_depth: 4,
            command_overhead: SimDuration::from_micros(150),
            track_switch: SimDuration::from_micros(500),
            // A strictly sequential reader with one outstanding command
            // still streams at media rate on real drives because firmware
            // read-ahead bridges the host round-trip; approximate that by
            // absorbing idle gaps up to roughly one revolution plus a host
            // round-trip before charging rotational re-alignment.
            sequential_gap_tolerance: SimDuration::from_millis(10),
        }
    }

    /// Replaces the cache configuration (builder-style convenience used all
    /// over the figure sweeps).
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// Validates every sub-configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.geometry.validate()?;
        self.seek.validate()?;
        self.cache.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_is_valid() {
        assert!(DiskConfig::wd800jd().validate().is_ok());
    }

    #[test]
    fn preset_matches_datasheet() {
        let c = DiskConfig::wd800jd();
        assert_eq!(c.geometry.rpm, 7200);
        assert_eq!(c.cache.total_bytes(), 8 * MIB);
        assert_eq!(c.seek.average, SimDuration::from_millis_f64(8.9));
    }

    #[test]
    fn builder_helpers_replace_fields() {
        let c = DiskConfig::wd800jd().with_cache(CacheConfig::disabled());
        assert_eq!(c.cache.segment_count, 0);
    }
}
