//! Scheduler configuration: the paper's four tunables `D`, `R`, `N`, `M`
//! plus classifier, garbage-collection and degradation knobs. How far a
//! stream may stage ahead of its client is not a knob: it is one
//! residency, `R * N`. Streams are admitted round robin (paper §4.2).

use seqio_simcore::units::{format_bytes, GIB, KIB, MIB};
use seqio_simcore::{SeqioError, SimDuration};

/// Classifier: how far around a request's block the detection bitmap
/// extends, in blocks (the paper's `offset`; "a few tens" of requests).
pub(crate) const DETECT_OFFSET_BLOCKS: u64 = 4096;

/// How far ahead of a stream's expected next block an arriving request may
/// be and still match the stream (tolerates small skips).
pub(crate) const STREAM_MATCH_SLACK_BLOCKS: u64 = 128;

/// Configuration of the host-level stream scheduler.
///
/// The four headline parameters follow the paper's notation:
///
/// * `D` — [`dispatch_streams`](Self::dispatch_streams): streams allowed to
///   issue disk requests simultaneously;
/// * `R` — [`read_ahead_bytes`](Self::read_ahead_bytes): size of each disk
///   request issued on behalf of a stream (independent of client request
///   size);
/// * `N` — [`requests_per_residency`](Self::requests_per_residency): disk
///   requests a stream issues before round-robin replacement;
/// * `M` — [`memory_bytes`](Self::memory_bytes): host memory available for
///   staging, with the invariant `M >= D * R * N`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// `D`: maximum number of streams in the dispatch set.
    pub dispatch_streams: usize,
    /// `R`: read-ahead (disk request) size in bytes, a whole number of
    /// 512-byte blocks.
    pub read_ahead_bytes: u64,
    /// `N`: requests a stream issues per dispatch-set residency.
    pub requests_per_residency: u64,
    /// `M`: host memory devoted to I/O buffering, in bytes.
    pub memory_bytes: u64,
    /// Classifier: set-bit count within a region that flags a sequential
    /// stream. The region's bitmap covers 4096 blocks on each side of the
    /// first request, so the threshold is at most 8192.
    pub detect_threshold_blocks: u64,
    /// Buffers idle longer than this are reclaimed by the garbage collector.
    pub buffer_timeout: SimDuration,
    /// Period of the garbage-collection sweep.
    pub gc_period: SimDuration,
    /// Graceful degradation (fault injection): a stream whose disk is
    /// reported degraded by at least this service-time factor is rotated
    /// out of the dispatch set after each fill instead of holding its slot
    /// for a full residency. Must be `> 1.0`; only takes effect when the
    /// embedding layer reports disk health via
    /// [`StorageServer::set_disk_degraded`](crate::StorageServer::set_disk_degraded).
    pub degraded_rotate_threshold: f64,
}

impl ServerConfig {
    /// A reasonable starting point: `D`=4, `R`=1 MiB, `N`=8, `M`=64 MiB.
    pub fn default_tuning() -> Self {
        ServerConfig {
            dispatch_streams: 4,
            read_ahead_bytes: MIB,
            requests_per_residency: 8,
            memory_bytes: 64 * MIB,
            detect_threshold_blocks: 192,
            buffer_timeout: SimDuration::from_secs(10),
            gc_period: SimDuration::from_secs(1),
            degraded_rotate_threshold: 2.0,
        }
    }

    /// Builds the paper's "adequate memory" configuration for Figures 10/12:
    /// all `streams` staged *and* dispatched (`D = S`, `N = 1`,
    /// `M = D * R * N`).
    pub fn all_dispatched(streams: usize, read_ahead_bytes: u64) -> Self {
        ServerConfig {
            dispatch_streams: streams,
            read_ahead_bytes,
            requests_per_residency: 1,
            memory_bytes: streams as u64 * read_ahead_bytes,
            ..Self::default_tuning()
        }
    }

    /// Builds the memory-limited configuration of Figure 11: `D` is derived
    /// from available memory as `D = M / (R * N)`.
    ///
    /// # Panics
    ///
    /// Panics if the memory cannot hold even one buffer.
    pub fn memory_limited(memory_bytes: u64, read_ahead_bytes: u64, n: u64) -> Self {
        let d = (memory_bytes / (read_ahead_bytes * n)) as usize;
        assert!(d >= 1, "memory holds no buffers: M={memory_bytes}, R={read_ahead_bytes}, N={n}");
        ServerConfig {
            dispatch_streams: d,
            read_ahead_bytes,
            requests_per_residency: n,
            memory_bytes,
            ..Self::default_tuning()
        }
    }

    /// The paper's conclusion configuration (Figures 13/14): a small
    /// dispatch set (typically one stream per disk), long residencies.
    pub fn small_dispatch(disks: usize, read_ahead_bytes: u64, n: u64) -> Self {
        ServerConfig {
            dispatch_streams: disks,
            read_ahead_bytes,
            requests_per_residency: n,
            memory_bytes: disks as u64 * read_ahead_bytes * n,
            ..Self::default_tuning()
        }
    }

    /// Static auto-tuning: derives `D`, `R`, `N` from the storage node's
    /// memory and disk count, the paper's "adjust (statically) to different
    /// storage node configurations". One dispatched stream per disk,
    /// 512 KiB read-ahead, and the longest residency that keeps
    /// `D * R * N` within half the node's memory.
    ///
    /// # Panics
    ///
    /// Panics if `disks == 0` or half the node's memory cannot hold one
    /// buffer per disk.
    pub fn auto_tune(node_memory_bytes: u64, disks: usize) -> Self {
        assert!(disks > 0, "auto_tune needs at least one disk");
        let r = 512 * KIB;
        let d = disks;
        let budget = node_memory_bytes / 2;
        assert!(d as u64 * r <= budget, "node memory too small for one buffer per disk");
        let n = (budget / (d as u64 * r)).min(128);
        ServerConfig {
            dispatch_streams: d,
            read_ahead_bytes: r,
            requests_per_residency: n,
            memory_bytes: d as u64 * r * n,
            ..Self::default_tuning()
        }
    }

    /// The staging-memory lower bound `D * R * N`.
    pub fn working_set_bytes(&self) -> u64 {
        self.dispatch_streams as u64 * self.read_ahead_bytes * self.requests_per_residency
    }

    /// Read-ahead size in 512-byte blocks.
    pub fn read_ahead_blocks(&self) -> u64 {
        self.read_ahead_bytes.div_ceil(512)
    }

    /// Validates the configuration, including the paper's memory invariant
    /// `M >= D * R * N`.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a
    /// [`SeqioError::Server`].
    pub fn validate(&self) -> Result<(), SeqioError> {
        let fail = |reason: String| Err(SeqioError::Server(reason));
        if self.dispatch_streams == 0 {
            return fail("dispatch set must hold at least one stream (D >= 1)".into());
        }
        if self.read_ahead_bytes == 0 {
            return fail("read-ahead must be positive (R > 0)".into());
        }
        if !self.read_ahead_bytes.is_multiple_of(512) {
            return fail(format!(
                "read-ahead R = {} bytes is not a whole number of 512-byte blocks",
                self.read_ahead_bytes
            ));
        }
        if self.requests_per_residency == 0 {
            return fail("residency must allow at least one request (N >= 1)".into());
        }
        if !self.degraded_rotate_threshold.is_finite() || self.degraded_rotate_threshold <= 1.0 {
            return fail("degraded-rotate threshold must be a finite factor > 1.0".into());
        }
        if self.memory_bytes < self.working_set_bytes() {
            return fail(format!(
                "memory invariant violated: M = {} but D*R*N = {}",
                format_bytes(self.memory_bytes),
                format_bytes(self.working_set_bytes())
            ));
        }
        if self.memory_bytes > 64 * GIB {
            return fail("memory above 64 GiB is surely a misconfiguration".into());
        }
        if self.detect_threshold_blocks == 0 {
            return fail("classifier threshold must be positive".into());
        }
        if self.detect_threshold_blocks > 2 * DETECT_OFFSET_BLOCKS {
            return fail("detection threshold exceeds the bitmap window".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tuning_valid() {
        assert!(ServerConfig::default_tuning().validate().is_ok());
    }

    #[test]
    fn memory_invariant_enforced() {
        let mut c = ServerConfig::default_tuning();
        c.memory_bytes = c.working_set_bytes() - 1;
        let err = c.validate().unwrap_err();
        assert!(matches!(err, SeqioError::Server(_)), "{err}");
        assert!(err.to_string().contains("memory invariant"), "{err}");
    }

    #[test]
    fn all_dispatched_matches_paper_setup() {
        // Fig. 10: 100 streams, R = 8 MiB => M = 800 MiB.
        let c = ServerConfig::all_dispatched(100, 8 * MIB);
        assert!(c.validate().is_ok());
        assert_eq!(c.dispatch_streams, 100);
        assert_eq!(c.requests_per_residency, 1);
        assert_eq!(c.memory_bytes, 800 * MIB);
    }

    #[test]
    fn memory_limited_derives_dispatch() {
        // Fig. 11: M = 16 MiB, R = 8 MiB => only 2 streams dispatch.
        let c = ServerConfig::memory_limited(16 * MIB, 8 * MIB, 1);
        assert_eq!(c.dispatch_streams, 2);
        assert!(c.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "no buffers")]
    fn memory_limited_too_small_panics() {
        let _ = ServerConfig::memory_limited(MIB, 8 * MIB, 1);
    }

    #[test]
    fn small_dispatch_matches_fig13() {
        let c = ServerConfig::small_dispatch(8, 512 * KIB, 128);
        assert!(c.validate().is_ok());
        assert_eq!(c.dispatch_streams, 8);
        assert_eq!(c.memory_bytes, 512 * MIB);
    }

    #[test]
    fn auto_tune_scales_with_memory() {
        let small = ServerConfig::auto_tune(64 * MIB, 1);
        let large = ServerConfig::auto_tune(GIB, 8);
        assert!(small.validate().is_ok());
        assert!(large.validate().is_ok());
        assert!(small.requests_per_residency < large.requests_per_residency * 8);
        assert_eq!(large.dispatch_streams, 8);
        assert!(large.memory_bytes <= GIB / 2);
    }

    #[test]
    #[should_panic(expected = "node memory too small")]
    fn auto_tune_too_small_panics() {
        // 1 MiB leaves a 512 KiB budget against eight 512 KiB buffers.
        let _ = ServerConfig::auto_tune(MIB, 8);
    }

    #[test]
    fn rejects_degenerate_parameters() {
        let mut c = ServerConfig::default_tuning();
        c.dispatch_streams = 0;
        assert!(c.validate().is_err());
        let mut c = ServerConfig::default_tuning();
        c.read_ahead_bytes = 0;
        assert!(c.validate().is_err());
        let mut c = ServerConfig::default_tuning();
        c.requests_per_residency = 0;
        assert!(c.validate().is_err());
        let mut c = ServerConfig::default_tuning();
        c.detect_threshold_blocks = DETECT_OFFSET_BLOCKS * 3;
        assert!(c.validate().is_err());
    }

    #[test]
    fn read_ahead_must_be_whole_blocks() {
        // R = 1000 B with D = 4, N = 8 and M = D*R*N: each fill would
        // reserve two whole blocks (1024 B), so the pool would hold 31
        // fills, not D*N = 32.
        let c = ServerConfig {
            dispatch_streams: 4,
            read_ahead_bytes: 1000,
            requests_per_residency: 8,
            memory_bytes: 32_000,
            ..ServerConfig::default_tuning()
        };
        let err = c.validate().unwrap_err().to_string();
        assert!(err.contains("R = 1000 bytes") && err.contains("512-byte blocks"), "{err}");
        let c = ServerConfig { read_ahead_bytes: 1024, memory_bytes: 32 * 1024, ..c };
        assert!(c.validate().is_ok());
    }
}
