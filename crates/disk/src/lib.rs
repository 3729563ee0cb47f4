//! # seqio-disk
//!
//! A single-disk mechanical + cache model — the DiskSim-equivalent substrate
//! for the `seqio` reproduction of *"Reducing Disk I/O Performance
//! Sensitivity for Large Numbers of Sequential Streams"* (ICDCS 2009).
//!
//! The model covers exactly the knobs the paper's evaluation sweeps:
//!
//! * zoned geometry with outer-to-inner media-rate falloff ([`Geometry`]);
//! * a three-parameter seek curve fitted from datasheet numbers
//!   ([`SeekModel`]);
//! * a segmented disk cache with configurable segment count, segment size
//!   and read-ahead ([`SegmentedCache`], [`CacheConfig`]);
//! * a command queue with FIFO or shortest-seek-first ordering
//!   ([`CommandQueue`]);
//! * the event-driven drive itself ([`Disk`]).
//!
//! # Examples
//!
//! ```
//! use seqio_disk::{Disk, DiskConfig, DiskOutput, DiskRequest, RequestId};
//! use seqio_simcore::SimTime;
//!
//! let mut disk = Disk::new(DiskConfig::wd800jd(), 1);
//! let outs = disk.submit(SimTime::ZERO, DiskRequest::read(RequestId(1), 0, 128));
//! // The caller relays outputs into its event loop:
//! for o in outs {
//!     match o {
//!         DiskOutput::Complete { id, at, .. } => {
//!             assert_eq!(id, RequestId(1));
//!             assert!(at > SimTime::ZERO);
//!         }
//!         DiskOutput::OpFinished { at } => {
//!             disk.on_op_finished(at);
//!         }
//!     }
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[cfg(test)]
mod analytic;
mod cache;
mod config;
mod geometry;
mod model;
mod queue;
mod request;
mod seek;

pub use cache::{CacheConfig, CacheMetrics, FillTicket, SegmentedCache};
pub use config::DiskConfig;
pub use geometry::{Geometry, GeometryConfig, Zone};
pub use model::{Disk, DiskMetrics, DiskOutput};
pub use queue::{CommandQueue, QueuePolicy};
pub use request::{bytes_to_blocks, Direction, DiskRequest, Lba, RequestId, BLOCK_SIZE};
pub use seek::{SeekConfig, SeekModel};
