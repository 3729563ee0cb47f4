//! # seqio-hostsched
//!
//! A Linux-2.6.11-era kernel I/O path for the paper's baseline comparison
//! (Figure 2): per-file ramping read-ahead over a page cache
//! ([`StreamRa`]) and the block-layer schedulers of the day —
//! [`Noop`], [`Deadline`], [`Anticipatory`] and
//! [`Cfq`] — behind the [`IoScheduler`] trait.
//!
//! # Examples
//!
//! ```
//! use seqio_hostsched::{BlockRequest, IoScheduler, SchedDecision, SchedKind};
//! use seqio_simcore::SimTime;
//!
//! let mut sched = SchedKind::Anticipatory.build();
//! sched.add(BlockRequest { id: 1, process: 0, lba: 0, blocks: 32 }, SimTime::ZERO);
//! assert!(matches!(sched.next(SimTime::ZERO), SchedDecision::Dispatch(_)));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod anticipatory;
mod cfq;
mod readahead;
mod scheduler;

pub use anticipatory::Anticipatory;
pub use cfq::Cfq;
pub use readahead::{RaOutcome, StreamRa};
pub use scheduler::{BlockRequest, Deadline, IoScheduler, Lba, Noop, SchedDecision, SchedKind};
