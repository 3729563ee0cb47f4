//! # seqio-controller
//!
//! Disk-controller model for the `seqio` workspace: per-port SATA links, a
//! shared aggregate bus, firmware CPU with buffer-management pressure, and
//! optional controller-level prefetching into a FIFO extent cache.
//!
//! Together with [`seqio_disk`] this forms the DiskSim-equivalent substrate
//! for reproducing the ICDCS 2009 sequential-streams paper: the controller
//! is where the paper's Figure 8 (controller prefetch) and Figure 12/13
//! (buffer-management collapse and recovery) effects live.
//!
//! # Examples
//!
//! ```
//! use seqio_controller::{Controller, ControllerConfig, CtrlOutput, HostRequest};
//! use seqio_disk::{Disk, DiskConfig, RequestId};
//! use seqio_simcore::SimTime;
//!
//! let cfg = ControllerConfig::single_port();
//! let disk = Disk::new(DiskConfig::wd800jd(), 1);
//! let mut ctrl = Controller::new(cfg, vec![disk]);
//!
//! let outs = ctrl.submit(SimTime::ZERO, HostRequest::read(RequestId(1), 0, 0, 128));
//! // Relay `CtrlOutput::Event`s into your event loop and hand them back via
//! // `ctrl.on_event(at, event)`; `CtrlOutput::Complete` reports results.
//! assert!(!outs.is_empty());
//! # let _ = outs;
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod config;
mod model;

pub use cache::ExtentCache;
pub use config::ControllerConfig;
pub use model::{
    Controller, ControllerMetrics, CtrlEvent, CtrlOutput, HostRequest, PortFaultCounters,
};
