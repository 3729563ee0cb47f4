//! # seqio-core
//!
//! The paper's contribution: a host-level scheduler that makes disk
//! throughput insensitive to the number of concurrent sequential streams
//! (*"Reducing Disk I/O Performance Sensitivity for Large Numbers of
//! Sequential Streams"*, ICDCS 2009).
//!
//! The scheduler (see [`StorageServer`]):
//!
//! 1. **classifies** requests into sequential streams with small
//!    dynamically-allocated per-region bitmaps ([`Classifier`]);
//! 2. **dispatches** up to `D` streams at a time, issuing `R`-sized
//!    read-ahead disk requests, `N` per residency, replacing streams
//!    round-robin;
//! 3. **stages** prefetched data in host memory bounded by `M` (the
//!    buffered set), serving clients from memory and garbage-collecting
//!    idle buffers.
//!
//! Configuration lives in [`ServerConfig`] with the paper's invariant
//! `M >= D * R * N` enforced at validation.
//!
//! # Examples
//!
//! ```
//! use seqio_core::{ClientRequest, ServerConfig, ServerOutput, StorageServer};
//! use seqio_simcore::SimTime;
//!
//! let cfg = ServerConfig::default_tuning();
//! let mut server = StorageServer::new(cfg, vec![1_000_000]);
//!
//! // First request of a stream: unclassified, passed straight through.
//! let outs = server.on_client_request(SimTime::ZERO, ClientRequest::read(0, 0, 0, 128));
//! assert!(matches!(outs[0], ServerOutput::SubmitDisk(_)));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod admission;
mod bitmap;
mod buffer;
mod classifier;
mod config;
#[cfg(test)]
mod reference;
mod runner;
mod server;
mod stream;

pub use bitmap::RegionBitmap;
pub use classifier::{Classification, Classifier};
pub use config::ServerConfig;
pub use runner::RealNode;
pub use server::{
    BackendRequest, ClientRequest, ServerMetrics, ServerOutput, SpanEvent, StorageServer,
};
