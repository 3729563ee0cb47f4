//! Controller configuration and presets.

use seqio_simcore::{RetryPolicy, SimDuration};

/// Configuration of one disk controller.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerConfig {
    /// Number of disk ports (drives attached).
    pub ports: usize,
    /// Per-port link rate (SATA), bytes/second.
    pub link_rate: u64,
    /// Aggregate controller/host-bus rate shared by all ports, bytes/second.
    pub aggregate_rate: u64,
    /// Controller memory available for prefetched data, bytes (0 = none).
    pub cache_bytes: u64,
    /// Controller-level read-ahead per miss, bytes (0 disables controller
    /// prefetch; the disk may still prefetch into its own cache).
    pub prefetch_bytes: u64,
    /// Fixed firmware cost charged per host request on the controller's
    /// (single) processor.
    pub cpu_fixed: SimDuration,
    /// Additional firmware cost per MiB transferred (DMA setup, scatter /
    /// gather bookkeeping).
    pub cpu_per_mib: SimDuration,
    /// Buffer-management pressure: extra cost per host request, per MiB of
    /// request buffers resident in the controller at the time (scatter /
    /// gather descriptor upkeep grows with mapped bytes). This is the
    /// effect the paper names for the Figure 12 collapse (many large
    /// outstanding buffers) and the Figure 13 recovery (few).
    pub cpu_per_resident_mib: SimDuration,
    /// Retries of a disk fetch that reports a transient read error (fault
    /// injection), their backoff and the per-request deadline. Once the
    /// retries run out, or the deadline passes, the drive's internal
    /// recovery completes the request. The default deadline is `ZERO`
    /// (none), so healthy runs count no timeouts.
    pub retry: RetryPolicy,
}

impl ControllerConfig {
    /// Broadcom BC4810-alike: the entry-level 8-port SATA RAID controller
    /// from the paper's testbed — 450 MB/s aggregate, SATA-150 links.
    pub fn bc4810() -> Self {
        ControllerConfig {
            ports: 8,
            link_rate: 150_000_000,
            aggregate_rate: 450_000_000,
            cache_bytes: 0,
            prefetch_bytes: 0,
            cpu_fixed: SimDuration::from_micros(30),
            cpu_per_mib: SimDuration::from_micros(100),
            cpu_per_resident_mib: SimDuration::from_micros(5),
            retry: RetryPolicy::default(),
        }
    }

    /// Single-port variant of [`bc4810`](ControllerConfig::bc4810) used by
    /// the one-disk experiments.
    pub fn single_port() -> Self {
        ControllerConfig { ports: 1, ..Self::bc4810() }
    }

    /// Enables controller-level prefetching with the given cache size and
    /// read-ahead (builder-style).
    pub fn with_prefetch(mut self, cache_bytes: u64, prefetch_bytes: u64) -> Self {
        self.cache_bytes = cache_bytes;
        self.prefetch_bytes = prefetch_bytes;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.ports == 0 {
            return Err("controller needs at least one port".into());
        }
        if self.link_rate == 0 || self.aggregate_rate == 0 {
            return Err("link and aggregate rates must be positive".into());
        }
        if self.prefetch_bytes > 0 && self.cache_bytes == 0 {
            return Err("controller prefetch requires controller cache memory".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqio_simcore::units::MIB;

    #[test]
    fn presets_valid() {
        assert!(ControllerConfig::bc4810().validate().is_ok());
        assert!(ControllerConfig::single_port().validate().is_ok());
        assert_eq!(ControllerConfig::single_port().ports, 1);
    }

    #[test]
    fn prefetch_requires_cache() {
        let mut c = ControllerConfig::bc4810();
        c.prefetch_bytes = MIB;
        assert!(c.validate().is_err());
        let c = ControllerConfig::bc4810().with_prefetch(128 * MIB, MIB);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn zero_ports_rejected() {
        let mut c = ControllerConfig::bc4810();
        c.ports = 0;
        assert!(c.validate().is_err());
    }
}
