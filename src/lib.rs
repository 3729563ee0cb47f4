//! # seqio
//!
//! Facade crate for the `seqio` workspace: a reproduction of
//! *"Reducing Disk I/O Performance Sensitivity for Large Numbers of
//! Sequential Streams"* (Panagiotakis, Flouris, Bilas — ICDCS 2009).
//!
//! The workspace implements, from scratch:
//!
//! * a DiskSim-style storage simulator ([`disk`], [`controller`], [`simcore`]);
//! * a Linux-like kernel I/O path with noop/deadline/anticipatory/CFQ
//!   schedulers ([`hostsched`]);
//! * the paper's contribution — a host-level sequential-stream scheduler
//!   with bitmap classification, a bounded dispatch set and a memory-bounded
//!   buffered set ([`core`]);
//! * workload generation ([`workload`]) and a full storage-node simulation
//!   with an experiment runner ([`node`]);
//! * a multi-node cluster layer running every node on a shared simulated
//!   clock, with deterministic stream routing and mid-run stream
//!   migration off degraded nodes ([`cluster`]);
//! * an open-loop client/network front end: user-scale session arrivals
//!   over a fair-share link with end-to-end session SLOs ([`client`]);
//! * cluster-wide telemetry: cross-tier trace correlation, tail
//!   attribution and SLO burn-rate monitoring ([`telemetry`]);
//! * named replayable workload scenarios and an epoch feedback
//!   controller adapting the scheduler's `D`/`R`/`N` mid-run
//!   ([`scenario`]).
//!
//! # Quick start
//!
//! A single-node study is an [`Experiment`](node::Experiment);
//! [`node::run_node`] returns every specification problem as a typed
//! [`SeqioError`] (`Experiment::run` panics on one instead). Multi-node
//! studies build a [`ClusterExperiment`](cluster::ClusterExperiment) from
//! a per-node template.
//!
//! ```
//! use seqio::prelude::*;
//!
//! // 30 sequential streams on one disk, serviced through the paper's
//! // stream scheduler with 1 MiB read-ahead.
//! let spec = Experiment::builder()
//!     .shape(NodeShape::single_disk())
//!     .streams_per_disk(30)
//!     .request_size(64 * 1024)
//!     .frontend(Frontend::stream_scheduler_with_readahead(1024 * 1024))
//!     .seed(7)
//!     .build();
//! let result = seqio::node::run_node(&spec).unwrap();
//! assert!(result.total_throughput_mbs() > 10.0);
//! ```
//!
//! Grids of experiments run on a worker pool via [`node::Sweep`], with
//! results returned in grid order regardless of worker count:
//!
//! ```
//! use seqio::prelude::*;
//!
//! let report = Sweep::builder()
//!     .points((1..=3).map(|n| {
//!         Experiment::builder().streams_per_disk(10 * n).seed(7).build()
//!     }))
//!     .jobs(2)
//!     .run();
//! assert_eq!(report.len(), 3);
//! ```

pub use seqio_simcore::SeqioError;

/// One-line import for the common experiment-building vocabulary.
///
/// ```
/// use seqio::prelude::*;
/// ```
pub mod prelude {
    pub use seqio_cluster::{ClusterExperiment, ClusterResult, RebalanceConfig, ShardPolicy};
    pub use seqio_core::ServerConfig;
    pub use seqio_node::{
        Experiment, ExperimentBuilder, Frontend, NodeShape, RunResult, Sweep, SweepBuilder,
        SweepReport,
    };
    pub use seqio_simcore::{SeqioError, SimDuration};
}

pub use seqio_client as client;
pub use seqio_cluster as cluster;
pub use seqio_controller as controller;
pub use seqio_core as core;
pub use seqio_disk as disk;
pub use seqio_hostsched as hostsched;
pub use seqio_node as node;
pub use seqio_scenario as scenario;
pub use seqio_simcore as simcore;
pub use seqio_telemetry as telemetry;
pub use seqio_workload as workload;
