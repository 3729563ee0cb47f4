//! # seqio-client
//!
//! Open-loop client/network front-end for the `seqio` storage
//! simulation: user-scale session arrivals over a shared fair-share
//! link, with end-to-end SLO percentiles.
//!
//! The storage layers below model closed-loop clients — a fixed stream
//! population pinned from `t = 0`. Real media services see the opposite:
//! users *arrive* (Poisson, possibly bursty or diurnal), pick titles by
//! popularity (Zipf), watch for a bounded time, and receive their bytes
//! across one shared network link. This crate adds that tier:
//!
//! * [`ArrivalProcess`] / [`ZipfSampler`] — deterministic open-loop
//!   session generation by Lewis–Shedler thinning over a modulated rate
//!   ([`RateModulation`]), with Zipf title popularity;
//! * [`ClientExperiment`] — the driver: sessions are injected into live
//!   [`NodeSim`](seqio_node::NodeSim)s mid-run through the stream-handoff
//!   surface, each node advancing independently (bit-identical at any
//!   `SEQIO_JOBS`), with optional lifetime-bounded retirement;
//! * [`LinkConfig`] — a shared-bandwidth client-facing link whose
//!   capacity is split equally among in-flight responses (processor
//!   sharing), applied as a deterministic lagged overlay of
//!   [`FairShareLink`](seqio_simcore::FairShareLink) over the exact
//!   storage-completion instants; per-session end-to-end latencies
//!   condense into [`SessionSlo`](seqio_cluster::SessionSlo) percentiles
//!   on the merged [`ClusterResult`](seqio_cluster::ClusterResult).
//!
//! # Examples
//!
//! A thousand-user open-loop run against two nodes behind a gigabit
//! link:
//!
//! ```
//! use seqio_client::{ArrivalConfig, ClientExperiment, LinkConfig};
//! use seqio_node::Experiment;
//! use seqio_simcore::SimDuration;
//!
//! let template = Experiment::builder()
//!     .warmup(SimDuration::ZERO)
//!     .duration(SimDuration::from_secs(10))
//!     .build();
//! let result = ClientExperiment::builder()
//!     .template(template)
//!     .nodes(2)
//!     .base_seed(7)
//!     .arrivals(ArrivalConfig { rate_per_sec: 100.0, ..ArrivalConfig::default() })
//!     .link(LinkConfig::gigabit())
//!     .run()
//!     .unwrap();
//! let slo = result.slo.expect("sessions completed");
//! assert!(slo.completed > 0);
//! assert!(slo.p999_ms >= slo.p50_ms);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arrivals;
mod run;
mod session;

pub use arrivals::{ArrivalProcess, RateModulation, ZipfSampler, MAX_TITLES};
pub use run::{ClientExperiment, ClientExperimentBuilder, LinkConfig, SESSION_SEED_INDEX};
pub use session::{generate_sessions, ArrivalConfig, SessionSpec};
