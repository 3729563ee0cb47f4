//! # seqio-simcore
//!
//! Discrete-event simulation kernel for the `seqio` workspace — the
//! foundation under the disk, controller and storage-node models used to
//! reproduce *"Reducing Disk I/O Performance Sensitivity for Large Numbers
//! of Sequential Streams"* (ICDCS 2009).
//!
//! The crate provides four small, dependency-light building blocks:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond virtual time;
//! * [`EventQueue`] — a binary heap of `(time, seq, payload)` entries with
//!   a front slot for an event pushed before every pending one, and stable
//!   FIFO tie-breaking, so simulations are bit-for-bit reproducible; held
//!   to the pop order of a plain `BinaryHeap` reference queue by
//!   differential property tests;
//! * [`SimRng`] — explicitly seeded randomness with per-component forking;
//! * [`SimComponent`] — the steppable-simulation contract
//!   (`init / peek_next_time / advance_to`) that lets a co-simulation
//!   driver advance several independent simulations on one shared clock;
//! * measurement: [`LatencyHistogram`];
//! * [`FaultPlan`] — deterministic, seeded per-disk fault schedules
//!   (stragglers, transient read errors, bad regions) consumed by the
//!   device models;
//! * [`FairShareLink`] — a shared-bandwidth client-facing network link
//!   dividing its capacity equally among concurrent transfers of one
//!   demand (processor sharing, kept as a virtual clock);
//! * [`ClauseFields`] — the shared `kind:key=value,...` clause grammar
//!   behind the `--faults` spec and the scenario trace files;
//! * [`EpochController`] — the feedback-controller contract polled by
//!   epoch-stepping drivers (cluster rebalancing, adaptive tuning);
//! * observability: [`ObsConfig`], [`SpanPhase`], [`MetricsHub`] /
//!   [`MetricSeries`] — strictly opt-in lifecycle-span and metric
//!   time-series recording, guaranteed not to perturb simulation output;
//! * kernel self-profiling: [`ProfConfig`] / [`KernelProfile`] — opt-in
//!   per-event-class count/duration accounting for the engine's dispatch
//!   loop, with event-queue statistics ([`QueueStats`]);
//! * [`SeqioError`] — typed validation errors shared by the higher layers.
//!
//! # Examples
//!
//! A minimal event loop:
//!
//! ```
//! use seqio_simcore::{EventQueue, SimDuration, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev {
//!     Tick(u32),
//! }
//!
//! let mut q = EventQueue::new();
//! q.push(SimTime::ZERO + SimDuration::from_millis(1), Ev::Tick(0));
//! let mut fired = 0;
//! while let Some((now, Ev::Tick(i))) = q.pop() {
//!     fired += 1;
//!     if i < 9 {
//!         q.push(now + SimDuration::from_millis(1), Ev::Tick(i + 1));
//!     }
//! }
//! assert_eq!(fired, 10);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod component;
mod controller;
mod error;
#[cfg(test)]
mod event;
mod fault;
mod link;
mod obs;
mod prof;
mod queue;
mod record;
mod rng;
mod stats;
mod time;
pub mod units;

pub use component::SimComponent;
pub use controller::EpochController;
pub use error::SeqioError;
pub use fault::{BadRegion, DiskFaults, FaultPlan, RetryPolicy, Straggler};
pub use link::{FairShareLink, LinkDelivery};
pub use obs::{MetricId, MetricKind, MetricSeries, MetricsHub, ObsConfig, SpanPhase};
pub use prof::{EventClassStats, KernelProfile, ProfConfig, ProfTally, QueueStats};
pub use queue::EventQueue;
pub use record::{parse_duration, ClauseFields};
pub use rng::SimRng;
pub use stats::LatencyHistogram;
pub use time::{SimDuration, SimTime};
