//! # seqio-cluster
//!
//! Multi-node scale-out for the `seqio` storage-node simulation: `K`
//! full node simulations behind a deterministic front-end router,
//! co-simulated on one shared clock with mid-run stream migration.
//!
//! The paper's stream scheduler is a per-node building block; this crate
//! models the layer above it. A [`ClusterExperiment`] takes a per-node
//! [`Experiment`](seqio_node::Experiment) template and shards the global
//! client streams across nodes with a [`ShardPolicy`] (hash, or
//! straggler-aware steering driven by per-node [`NodeHealth`] derived
//! from fault plans). The node [`driver`](seqio_node::driver) then runs
//! every node on a single simulated clock: independently to completion,
//! or — with a [`RebalanceConfig`] — meeting only at the first epoch
//! boundary after each degradation change, the only instants a
//! migration can happen. There the planner [`plan`] reads each node's
//! health and migrates live streams off degraded nodes, carrying each
//! stream's exact remainder to its new home. Per-node results merge
//! into a [`ClusterResult`] over the cluster **makespan** (exactly, per
//! global stream, when migrations occurred).
//!
//! Everything stays bit-deterministic at any worker count, faults are
//! opt-in per node, observability is opt-in via the template and never
//! feeds the rebalancer, and a 1-node cluster is bit-identical to
//! running the template [`Experiment`](seqio_node::Experiment) directly.
//!
//! # Examples
//!
//! ```
//! use seqio_cluster::{ClusterExperiment, RebalanceConfig, ShardPolicy};
//! use seqio_node::Experiment;
//! use seqio_simcore::{FaultPlan, SimDuration};
//!
//! let template = Experiment::builder()
//!     .streams_per_disk(12)
//!     .requests_per_stream(12)
//!     .warmup(SimDuration::ZERO)
//!     .duration(SimDuration::from_secs(120))
//!     .build();
//! let result = ClusterExperiment::builder()
//!     .template(template)
//!     .nodes(2)
//!     .policy(ShardPolicy::HashByStream)
//!     .base_seed(7)
//!     // Node 1's only disk slows down 8x mid-run; at the first 50 ms
//!     // boundary after the onset, migrate its live streams away.
//!     .node_fault(1, FaultPlan::new().straggler(0, 8.0, SimDuration::from_millis(300), None))
//!     .rebalance(RebalanceConfig::new(SimDuration::from_millis(50)))
//!     .run()
//!     .unwrap();
//! assert_eq!(result.per_stream_mbs.len(), 24);
//! assert!(!result.migrations.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cluster;
mod rebalance;
mod router;
mod slo;

pub use cluster::{ClusterExperiment, ClusterExperimentBuilder, ClusterResult, NodeOutcome};
pub use rebalance::{
    plan, MigratableStream, MigrationRecord, MoveDecision, NodeView, RebalanceConfig,
};
pub use router::{NodeHealth, Router, ShardPolicy};
pub use slo::{percentile, SessionSlo};
