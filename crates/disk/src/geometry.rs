//! Multi-zone disk geometry.
//!
//! Modern disks record more sectors on outer tracks than inner ones
//! (zoned bit recording), so the sustained media rate falls from the outside
//! of the platter to the inside. [`Geometry`] models the disk as a sequence
//! of zones, each with a fixed sectors-per-track count, and provides the
//! LBA → cylinder mapping and transfer-time computation the mechanical model
//! needs.

use seqio_simcore::{SimDuration, SimTime};

use crate::request::{Lba, BLOCK_SIZE};

/// Parameters from which a [`Geometry`] is built.
#[derive(Debug, Clone, PartialEq)]
pub struct GeometryConfig {
    /// Approximate total capacity in bytes (the built geometry rounds to
    /// whole cylinders; see [`Geometry::capacity_bytes`] for the exact value).
    pub capacity_bytes: u64,
    /// Number of read/write heads (recording surfaces).
    pub heads: u32,
    /// Spindle speed in revolutions per minute.
    pub rpm: u32,
    /// Number of recording zones.
    pub zones: u32,
    /// Media rate of the outermost zone, bytes/second.
    pub outer_rate: u64,
    /// Media rate of the innermost zone, bytes/second.
    pub inner_rate: u64,
}

impl GeometryConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.capacity_bytes == 0 {
            return Err("capacity must be positive".into());
        }
        if self.heads == 0 {
            return Err("head count must be positive".into());
        }
        if self.rpm == 0 {
            return Err("rpm must be positive".into());
        }
        if self.zones == 0 {
            return Err("zone count must be positive".into());
        }
        if self.inner_rate == 0 || self.outer_rate < self.inner_rate {
            return Err("rates must satisfy 0 < inner_rate <= outer_rate".into());
        }
        Ok(())
    }
}

/// One recording zone: a run of cylinders sharing a sectors-per-track count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Zone {
    /// First block of the zone.
    pub first_block: Lba,
    /// Number of blocks in the zone.
    pub blocks: u64,
    /// First cylinder of the zone.
    pub first_cylinder: u64,
    /// Number of cylinders in the zone.
    pub cylinders: u64,
    /// Sectors (512-byte blocks) per track in this zone.
    pub sectors_per_track: u64,
}

impl Zone {
    /// One past the last block of the zone.
    pub fn end_block(&self) -> Lba {
        self.first_block + self.blocks
    }
}

/// A fully-built disk geometry.
#[derive(Debug, Clone)]
pub struct Geometry {
    zones: Vec<Zone>,
    heads: u64,
    rotation: SimDuration,
    total_blocks: u64,
    total_cylinders: u64,
    /// Settle time when the head moves to the next track of the same zone
    /// while streaming (charged once per track crossed).
    track_switch: SimDuration,
}

impl Geometry {
    /// Builds a geometry from a configuration.
    ///
    /// Zones get equal shares of the capacity; sectors-per-track interpolate
    /// linearly from `outer_rate` down to `inner_rate`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`GeometryConfig::validate`]).
    pub fn new(cfg: &GeometryConfig, track_switch: SimDuration) -> Self {
        cfg.validate().expect("invalid geometry config");
        let rotation = SimDuration::from_secs_f64(60.0 / cfg.rpm as f64);
        let rot_s = rotation.as_secs_f64();
        let heads = cfg.heads as u64;
        let zone_bytes = cfg.capacity_bytes / cfg.zones as u64;

        let mut zones = Vec::with_capacity(cfg.zones as usize);
        let mut first_block = 0u64;
        let mut first_cylinder = 0u64;
        for z in 0..cfg.zones {
            // Linear interpolation outer -> inner.
            let frac = if cfg.zones == 1 { 0.0 } else { z as f64 / (cfg.zones - 1) as f64 };
            let rate =
                cfg.outer_rate as f64 + frac * (cfg.inner_rate as f64 - cfg.outer_rate as f64);
            let spt = ((rate * rot_s) / BLOCK_SIZE as f64).round().max(1.0) as u64;
            let cyl_blocks = spt * heads;
            let cylinders = (zone_bytes / BLOCK_SIZE).div_ceil(cyl_blocks).max(1);
            let blocks = cylinders * cyl_blocks;
            zones.push(Zone {
                first_block,
                blocks,
                first_cylinder,
                cylinders,
                sectors_per_track: spt,
            });
            first_block += blocks;
            first_cylinder += cylinders;
        }
        Geometry {
            zones,
            heads,
            rotation,
            total_blocks: first_block,
            total_cylinders: first_cylinder,
            track_switch,
        }
    }

    /// Exact usable capacity in bytes (whole cylinders).
    pub fn capacity_bytes(&self) -> u64 {
        self.total_blocks * BLOCK_SIZE
    }

    /// Exact usable capacity in blocks.
    pub fn total_blocks(&self) -> u64 {
        self.total_blocks
    }

    /// Total number of cylinders across all zones.
    pub fn total_cylinders(&self) -> u64 {
        self.total_cylinders
    }

    /// Time for one platter revolution.
    pub fn rotation(&self) -> SimDuration {
        self.rotation
    }

    /// The recording zones, outermost first.
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }

    /// The zone containing `lba`.
    ///
    /// # Panics
    ///
    /// Panics if `lba` is past the end of the disk.
    pub fn zone_of(&self, lba: Lba) -> &Zone {
        assert!(lba < self.total_blocks, "lba {lba} beyond disk end {}", self.total_blocks);
        let idx = self.zones.partition_point(|z| z.end_block() <= lba);
        &self.zones[idx]
    }

    /// The cylinder containing `lba`.
    ///
    /// # Panics
    ///
    /// Panics if `lba` is past the end of the disk.
    pub fn cylinder_of(&self, lba: Lba) -> u64 {
        let z = self.zone_of(lba);
        z.first_cylinder + (lba - z.first_block) / (z.sectors_per_track * self.heads)
    }

    /// Sustained media rate at `lba`, in bytes/second, accounting for
    /// track-switch overhead.
    pub fn media_rate(&self, lba: Lba) -> f64 {
        let z = self.zone_of(lba);
        let track_bytes = (z.sectors_per_track * BLOCK_SIZE) as f64;
        let track_time = self.rotation.as_secs_f64() + self.track_switch.as_secs_f64();
        track_bytes / track_time
    }

    /// Time to stream `blocks` blocks starting at `lba` off the media
    /// (rotation-rate transfer plus one track-switch per track crossed;
    /// positioning time is *not* included).
    ///
    /// # Panics
    ///
    /// Panics if the transfer runs past the end of the disk.
    pub fn transfer_time(&self, lba: Lba, blocks: u64) -> SimDuration {
        assert!(
            lba + blocks <= self.total_blocks,
            "transfer [{lba}, {}) beyond disk end {}",
            lba + blocks,
            self.total_blocks
        );
        let mut remaining = blocks;
        let mut at = lba;
        let mut total = SimDuration::ZERO;
        while remaining > 0 {
            let z = self.zone_of(at);
            let in_zone = (z.end_block() - at).min(remaining);
            let spt = z.sectors_per_track;
            // Time reading `in_zone` blocks at this zone's linear density.
            let read = self.rotation.mul_f64(in_zone as f64 / spt as f64);
            // Track switches: one per track boundary crossed inside the run.
            let first_track = at / spt;
            let last_track = (at + in_zone - 1) / spt;
            let switches = last_track - first_track;
            total = total + read + self.track_switch * switches;
            at += in_zone;
            remaining -= in_zone;
        }
        total
    }

    /// The instant, within a transfer that began at `start` for the range
    /// `[lba, lba+blocks)`, when the prefix up to `upto` is available.
    ///
    /// # Panics
    ///
    /// Panics if `upto` is outside `(lba, lba + blocks]`.
    pub fn covered_at(&self, start: SimTime, lba: Lba, blocks: u64, upto: Lba) -> SimTime {
        assert!(upto > lba && upto <= lba + blocks, "upto outside transfer range");
        start + self.transfer_time(lba, upto - lba)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use seqio_simcore::units::{GIB, MIB};

    fn small_cfg() -> GeometryConfig {
        GeometryConfig {
            capacity_bytes: 4 * GIB,
            heads: 2,
            rpm: 7200,
            zones: 8,
            outer_rate: 60 * MIB,
            inner_rate: 35 * MIB,
        }
    }

    fn geom() -> Geometry {
        Geometry::new(&small_cfg(), SimDuration::from_micros(800))
    }

    #[test]
    fn capacity_close_to_requested() {
        let g = geom();
        let want = (4 * GIB) as f64;
        let got = g.capacity_bytes() as f64;
        assert!((got - want).abs() / want < 0.01, "capacity {got} vs {want}");
    }

    #[test]
    fn zones_are_contiguous_and_cover_disk() {
        let g = geom();
        let mut next_block = 0;
        let mut next_cyl = 0;
        for z in g.zones() {
            assert_eq!(z.first_block, next_block);
            assert_eq!(z.first_cylinder, next_cyl);
            next_block = z.end_block();
            next_cyl = z.first_cylinder + z.cylinders;
        }
        assert_eq!(next_block, g.total_blocks());
        assert_eq!(next_cyl, g.total_cylinders());
    }

    #[test]
    fn outer_zone_faster_than_inner() {
        let g = geom();
        let outer = g.media_rate(0);
        let inner = g.media_rate(g.total_blocks() - 1);
        assert!(outer > inner, "outer {outer} should exceed inner {inner}");
        // Rates should be near the configured values (track switch shaves a bit).
        assert!(outer > 0.85 * 60.0 * MIB as f64 && outer < 60.5 * MIB as f64);
        assert!(inner > 0.85 * 35.0 * MIB as f64 && inner < 35.5 * MIB as f64);
    }

    #[test]
    fn media_rates_monotonically_nonincreasing() {
        let g = geom();
        let mut last = f64::INFINITY;
        for z in g.zones() {
            let r = g.media_rate(z.first_block);
            assert!(r <= last + 1.0);
            last = r;
        }
    }

    #[test]
    fn cylinder_of_is_monotonic() {
        let g = geom();
        let step = g.total_blocks() / 997;
        let mut last = 0;
        for i in 0..997 {
            let c = g.cylinder_of(i * step);
            assert!(c >= last);
            last = c;
        }
        assert_eq!(g.cylinder_of(0), 0);
        assert_eq!(g.cylinder_of(g.total_blocks() - 1), g.total_cylinders() - 1);
    }

    #[test]
    fn transfer_time_scales_with_length() {
        let g = geom();
        let t1 = g.transfer_time(0, 128);
        let t2 = g.transfer_time(0, 256);
        assert!(t2 > t1);
        // 1 MiB at the outer zone should take roughly 1MiB/60MiBps ≈ 17ms
        // (plus track switches).
        let t = g.transfer_time(0, 2048).as_millis_f64();
        assert!(t > 14.0 && t < 25.0, "1MiB outer transfer took {t}ms");
    }

    #[test]
    fn transfer_time_spans_zones() {
        let g = geom();
        let z0 = &g.zones()[0];
        let boundary = z0.end_block();
        // A transfer straddling a zone boundary equals the sum of its parts.
        let whole = g.transfer_time(boundary - 64, 128);
        let a = g.transfer_time(boundary - 64, 64);
        let b = g.transfer_time(boundary, 64);
        let sum = a + b;
        let diff = whole.as_nanos().abs_diff(sum.as_nanos());
        assert!(diff <= 2, "whole {whole} vs parts {sum}");
    }

    #[test]
    fn covered_at_is_between_start_and_end() {
        let g = geom();
        let start = SimTime::from_nanos(1_000_000);
        let full = start + g.transfer_time(1000, 512);
        let mid = g.covered_at(start, 1000, 512, 1256);
        assert!(mid > start && mid < full);
        assert_eq!(g.covered_at(start, 1000, 512, 1512), full);
    }

    #[test]
    #[should_panic(expected = "beyond disk end")]
    fn transfer_past_end_panics() {
        let g = geom();
        let _ = g.transfer_time(g.total_blocks() - 10, 20);
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut c = small_cfg();
        c.capacity_bytes = 0;
        assert!(c.validate().is_err());
        let mut c = small_cfg();
        c.inner_rate = c.outer_rate + 1;
        assert!(c.validate().is_err());
        let mut c = small_cfg();
        c.zones = 0;
        assert!(c.validate().is_err());
        assert!(small_cfg().validate().is_ok());
    }

    /// Transfer time is additive up to rounding and at most one
    /// track-switch (a split landing exactly on a track boundary moves
    /// that boundary's switch out of both halves).
    fn transfer_additive(start: u64, len: u64, cut: u64) -> Result<(), String> {
        let g = geom();
        prop_assume!(start + len <= g.total_blocks());
        let cut = cut.min(len - 1);
        let whole = g.transfer_time(start, len).as_nanos();
        let parts =
            (g.transfer_time(start, cut) + g.transfer_time(start + cut, len - cut)).as_nanos();
        let track_switch = SimDuration::from_micros(800).as_nanos();
        prop_assert!(whole.abs_diff(parts) <= track_switch + 4);
        Ok(())
    }

    /// The shrunk failure recorded in `proptest-regressions/geometry.txt`.
    #[test]
    fn transfer_is_additive_at_the_recorded_failure() {
        transfer_additive(817_899, 2326, 2325).unwrap();
    }

    proptest! {
        #[test]
        fn prop_transfer_additive(start in 0u64..1_000_000, len in 2u64..4096, cut in 1u64..4095) {
            transfer_additive(start, len, cut)?;
        }

        /// Every valid LBA maps to a valid cylinder.
        #[test]
        fn prop_cylinder_in_range(frac in 0.0f64..1.0) {
            let g = geom();
            let lba = ((g.total_blocks() - 1) as f64 * frac) as u64;
            prop_assert!(g.cylinder_of(lba) < g.total_cylinders());
        }
    }
}
