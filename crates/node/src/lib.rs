//! # seqio-node
//!
//! Full storage-node simulation for the `seqio` reproduction of the
//! ICDCS 2009 sequential-streams paper: closed-loop clients over a
//! header-only network, a pluggable request path (direct, the paper's
//! stream scheduler, or a Linux-like kernel path), controllers and disks,
//! all driven by one deterministic event loop.
//!
//! The main entry point is [`Experiment`]: describe the node shape, the
//! workload and the front end, then [`run`](Experiment::run) it and read
//! throughput/latency off the [`RunResult`].
//!
//! # Examples
//!
//! ```
//! use seqio_node::{Experiment, Frontend, NodeShape};
//! use seqio_simcore::SimDuration;
//!
//! let result = Experiment::builder()
//!     .shape(NodeShape::single_disk())
//!     .streams_per_disk(10)
//!     .request_size(64 * 1024)
//!     .frontend(Frontend::stream_scheduler_with_readahead(1024 * 1024))
//!     .warmup(SimDuration::from_millis(200))
//!     .duration(SimDuration::from_millis(800))
//!     .seed(7)
//!     .run();
//! assert!(result.total_throughput_mbs() > 5.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod calibration;
pub mod driver;
mod experiment;
mod sim;
pub mod span;
pub mod sweep;
mod system;

pub use calibration::CostModel;
pub use experiment::{
    run_node, Experiment, ExperimentBuilder, Frontend, NodeShape, Placement, RunResult,
};
pub use seqio_simcore::{
    FaultPlan, KernelProfile, MetricSeries, ObsConfig, ProfConfig, RetryPolicy, SeqioError,
    SimComponent, SpanPhase,
};
pub use sim::{HealthSnapshot, StreamHandoff};
pub use span::{PhaseBreakdown, SpanRecord};
pub use sweep::{PointOutcome, Sweep, SweepBuilder, SweepReport};
pub use system::NodeSim;
