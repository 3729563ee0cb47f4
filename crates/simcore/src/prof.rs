//! Opt-in kernel self-profiling: per-event-class count/duration
//! accounting for the simulation engine's dispatch loop, plus event-queue
//! statistics.
//!
//! Like faults and observability, profiling is **strictly opt-in and
//! zero-perturbation**: with no [`ProfConfig`] installed the engine's hot
//! loop takes the exact branch-free path it always took, and with one
//! installed the profiler only *reads* the host clock around dispatch —
//! simulation outputs stay bit-identical either way. Event-class counts
//! are deterministic; wall-clock nanoseconds are host measurements and
//! vary run to run (they are reported, never fed back).

/// What the kernel profiler should record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfConfig {
    /// Record wall-clock dispatch time per event class (host
    /// nanoseconds; nondeterministic across runs). Counts are always
    /// recorded when profiling is installed.
    pub wall_time: bool,
}

impl Default for ProfConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl ProfConfig {
    /// Counts and wall-clock durations.
    pub fn new() -> Self {
        ProfConfig { wall_time: true }
    }

    /// Deterministic counts only — no host-clock reads.
    pub fn counts_only() -> Self {
        ProfConfig { wall_time: false }
    }
}

/// Dispatch statistics for one event class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventClassStats {
    /// Stable class name (e.g. `"deliver"`).
    pub name: &'static str,
    /// Events of this class dispatched (deterministic).
    pub count: u64,
    /// Total wall-clock nanoseconds spent in this class's handlers
    /// (zero when [`ProfConfig::wall_time`] was off).
    pub wall_nanos: u64,
}

/// Statistics of the [`EventQueue`](crate::EventQueue) at the end of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Events ever scheduled (the engine's `events_simulated` numerator
    /// before sampler-tick subtraction).
    pub pushes: u64,
    /// Growths of the queue's storage over the whole run: how many times
    /// the pending set outgrew it. The storage never shrinks.
    pub resizes: u64,
}

/// Accumulator the engine drives while profiling is installed; condenses
/// into a [`KernelProfile`] at the end of the run.
#[derive(Debug, Clone)]
pub struct ProfTally {
    cfg: ProfConfig,
    classes: Vec<EventClassStats>,
}

impl ProfTally {
    /// Creates a tally over the given event classes (indexed by position).
    pub fn new(cfg: ProfConfig, class_names: &[&'static str]) -> Self {
        ProfTally {
            cfg,
            classes: class_names
                .iter()
                .map(|&name| EventClassStats { name, count: 0, wall_nanos: 0 })
                .collect(),
        }
    }

    /// `true` when the engine should read the host clock around dispatch.
    pub fn wall_time(&self) -> bool {
        self.cfg.wall_time
    }

    /// Books one dispatched event of class `class`.
    pub fn record(&mut self, class: usize, wall_nanos: u64) {
        let c = &mut self.classes[class];
        c.count += 1;
        c.wall_nanos += wall_nanos;
    }

    /// Condenses the tally plus the final queue statistics into the
    /// exported profile.
    pub fn finish(self, queue: QueueStats) -> KernelProfile {
        KernelProfile { classes: self.classes, queue }
    }
}

/// The exported kernel self-profile: per-event-class dispatch accounting
/// plus the final event-queue statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelProfile {
    /// Per-class stats, in engine class order (classes never dispatched
    /// keep zero counts).
    pub classes: Vec<EventClassStats>,
    /// Event-queue statistics at the end of the run.
    pub queue: QueueStats,
}

impl KernelProfile {
    /// Total events dispatched across all classes.
    pub fn total_events(&self) -> u64 {
        self.classes.iter().map(|c| c.count).sum()
    }

    /// Total wall-clock nanoseconds across all classes.
    pub fn total_wall_nanos(&self) -> u64 {
        self.classes.iter().map(|c| c.wall_nanos).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_accumulates_per_class() {
        let mut t = ProfTally::new(ProfConfig::new(), &["a", "b"]);
        assert!(t.wall_time());
        t.record(0, 10);
        t.record(0, 5);
        t.record(1, 100);
        let p = t.finish(QueueStats { pushes: 3, resizes: 0 });
        assert_eq!(p.total_events(), 3);
        assert_eq!(p.total_wall_nanos(), 115);
        assert_eq!(p.classes[0].count, 2);
        assert_eq!(p.classes[1].wall_nanos, 100);
    }

    #[test]
    fn counts_only_skips_wall_time() {
        let mut t = ProfTally::new(ProfConfig::counts_only(), &["x"]);
        assert!(!t.wall_time());
        t.record(0, 0);
        let p = t.finish(QueueStats { pushes: 1, resizes: 2 });
        assert_eq!(p.total_events(), 1);
        assert_eq!(p.total_wall_nanos(), 0);
        assert_eq!(p.queue.resizes, 2);
    }
}
