//! Calibration constants for the storage-node model.
//!
//! Everything here is derived from the paper's testbed description (2x
//! AMD Opteron 242, 1 GB RAM, Fedora Core 3 / Linux 2.6.11, 1 GbE clients
//! with data excluded from the network path) or from ordinary magnitudes
//! for mid-2000s hardware. Absolute throughputs depend on these values;
//! the *shapes* of the reproduced figures do not (see DESIGN.md §5).

use seqio_simcore::SimDuration;

/// Host-side cost model (server process + network). Every cost may be
/// zero: the Figure 2 runs are local, so they zero the network term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// Server CPU to accept/classify one client request.
    pub cpu_request: SimDuration,
    /// Server CPU to complete one client request.
    pub cpu_completion: SimDuration,
    /// Fixed server CPU to swap a stream into the dispatch set
    /// (buffer allocation and registration — the paper's host-side
    /// "buffer management" term, visible as Fig. 14's small gain).
    pub swap_fixed: SimDuration,
    /// Additional swap cost per MiB of read-ahead buffer.
    pub swap_per_mib: SimDuration,
    /// One-way network latency for a request/response header (the paper's
    /// harness sends headers only, so there is no per-byte term).
    pub network_oneway: SimDuration,
    /// Client think time before re-issuing after a memory-served response.
    pub hit_turnaround: SimDuration,
    /// Base client wake-up delay after an I/O-served response.
    pub wake_base: SimDuration,
    /// Extra mean wake-up delay per concurrent stream sharing the client
    /// host's CPUs (exponentially distributed). Zero for the paper's
    /// distributed-client experiments; positive for the local `xdd` runs of
    /// Figure 2, where hundreds of reader threads contend for two CPUs.
    pub wake_per_stream: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            cpu_request: SimDuration::from_micros(10),
            cpu_completion: SimDuration::from_micros(5),
            swap_fixed: SimDuration::from_micros(200),
            swap_per_mib: SimDuration::from_micros(150),
            network_oneway: SimDuration::from_micros(50),
            hit_turnaround: SimDuration::from_micros(20),
            wake_base: SimDuration::from_micros(100),
            wake_per_stream: SimDuration::ZERO,
        }
    }
}

impl CostModel {
    /// The Figure 2 variant: reader threads run on the storage host itself
    /// (no network) and contend for its two CPUs, so wake-up latency grows
    /// with the thread count.
    pub fn local_xdd() -> Self {
        CostModel {
            wake_per_stream: SimDuration::from_micros(30),
            network_oneway: SimDuration::ZERO,
            hit_turnaround: SimDuration::from_micros(8),
            wake_base: SimDuration::from_micros(60),
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_xdd_adds_contention() {
        let m = CostModel::local_xdd();
        assert!(m.wake_per_stream > SimDuration::ZERO);
    }

    #[test]
    fn local_xdd_is_networkless() {
        assert_eq!(CostModel::local_xdd().network_oneway, SimDuration::ZERO);
    }
}
