//! # seqio-workload
//!
//! Workload generation for the `seqio` storage-node simulation: stream
//! specifications ([`StreamSpec`], [`Pattern`]), closed-loop client
//! emulation with one outstanding request per stream ([`ClientSet`]) and
//! placement helpers ([`uniform_offsets`], [`interval_offsets`]).
//!
//! # Examples
//!
//! ```
//! use seqio_simcore::SimRng;
//! use seqio_workload::{ClientSet, StreamSpec};
//!
//! // Ten sequential 64 KiB streams, one outstanding request each.
//! let specs: Vec<_> =
//!     (0..10).map(|i| StreamSpec::sequential(0, i * 1_000_000, 128, 100)).collect();
//! let mut rng = SimRng::seed_from(1);
//! let mut clients = ClientSet::new(specs, 16_000_000, &mut rng);
//! let burst = clients.initial_requests();
//! assert_eq!(burst.len(), 10);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod client;
mod placement;
mod stream;

pub use client::{ClientRequest, ClientSet, StreamIdx};
pub use placement::{interval_offsets, uniform_offsets};
pub use stream::{Pattern, StreamSpec, StreamState};
