//! Steppable simulation components.
//!
//! A [`SimComponent`] is a self-contained discrete-event simulation that an
//! outer driver can advance in bounded time slices instead of running to
//! completion in one call. The contract exists so several components can
//! share one logical clock: a co-simulation driver advances every component
//! to a common horizon, inspects or mutates cross-component state at the
//! barrier, and repeats. Because each component still pops its own events in
//! its own deterministic order, chunked advancement is bit-identical to one
//! uninterrupted run — the barrier only pauses the component, it never
//! reorders it.
//!
//! The storage-node engine implements this trait (as `NodeSim` in
//! `seqio-node`) and the cluster layer drives K nodes on top of it,
//! meeting only at the epoch boundaries where a migration can happen.

use crate::time::SimTime;

/// A discrete-event simulation that can be advanced in time slices.
///
/// # Contract
///
/// * [`init`](Self::init) is called exactly once, before any other method,
///   and schedules the component's initial events.
/// * [`peek_next_time`](Self::peek_next_time) reports when the component
///   next wants to run, or `None` once it has nothing left to do (drained,
///   or every remaining event lies beyond its own stop condition).
/// * [`advance_to`](Self::advance_to) handles, in deterministic order,
///   every pending event with timestamp `<= limit`. Calling it with
///   monotonically non-decreasing limits must produce exactly the same
///   final state as a single call with the largest limit — chunking is
///   observationally free.
///
/// # Examples
///
/// ```
/// use seqio_simcore::{SimComponent, SimTime};
///
/// /// Counts down `n` ticks, one per nanosecond.
/// #[derive(Debug)]
/// struct Countdown {
///     next: Option<SimTime>,
///     remaining: u32,
/// }
///
/// impl SimComponent for Countdown {
///     fn init(&mut self) {
///         self.next = (self.remaining > 0).then_some(SimTime::from_nanos(1));
///     }
///     fn peek_next_time(&self) -> Option<SimTime> {
///         self.next
///     }
///     fn advance_to(&mut self, limit: SimTime) {
///         while let Some(t) = self.next {
///             if t > limit {
///                 break;
///             }
///             self.remaining -= 1;
///             self.next = (self.remaining > 0).then_some(SimTime::from_nanos(t.as_nanos() + 1));
///         }
///     }
/// }
///
/// let mut c = Countdown { next: None, remaining: 3 };
/// c.init();
/// c.advance_to(SimTime::from_nanos(2)); // handles ticks at 1 ns and 2 ns
/// assert_eq!(c.remaining, 1);
/// c.advance_to(SimTime::MAX);
/// assert_eq!(c.remaining, 0);
/// assert_eq!(c.peek_next_time(), None);
/// ```
pub trait SimComponent {
    /// Schedules the component's initial events. Called exactly once.
    fn init(&mut self);

    /// The timestamp of the next event the component would handle, or
    /// `None` when it has nothing left to do.
    fn peek_next_time(&self) -> Option<SimTime>;

    /// Handles every pending event with timestamp `<= limit`, in the
    /// component's own deterministic order.
    fn advance_to(&mut self, limit: SimTime);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference component: an event queue of u32 payloads summed on pop.
    #[derive(Debug, Default)]
    struct Summer {
        q: crate::queue::EventQueue<u32>,
        sum: u64,
        initialized: bool,
    }

    impl SimComponent for Summer {
        fn init(&mut self) {
            self.initialized = true;
            for i in 1..=10u64 {
                self.q.push(SimTime::from_nanos(i * 100), i as u32);
            }
        }
        fn peek_next_time(&self) -> Option<SimTime> {
            self.q.peek_time()
        }
        fn advance_to(&mut self, limit: SimTime) {
            while let Some(t) = self.q.peek_time() {
                if t > limit {
                    break;
                }
                let (_, v) = self.q.pop().expect("peeked");
                self.sum += v as u64;
            }
        }
    }

    #[test]
    fn chunked_advance_equals_one_shot() {
        let mut chunked = Summer::default();
        chunked.init();
        let mut t = SimTime::ZERO;
        while chunked.peek_next_time().is_some() {
            t += crate::time::SimDuration::from_nanos(250);
            chunked.advance_to(t);
        }

        let mut oneshot = Summer::default();
        oneshot.init();
        oneshot.advance_to(SimTime::MAX);

        assert_eq!(chunked.sum, oneshot.sum);
        assert_eq!(chunked.sum, 55);
        assert_eq!(chunked.peek_next_time(), None);
    }

    #[test]
    fn advance_is_inclusive_of_the_limit() {
        let mut s = Summer::default();
        s.init();
        s.advance_to(SimTime::from_nanos(300));
        assert_eq!(s.sum, 1 + 2 + 3);
        assert_eq!(s.peek_next_time(), Some(SimTime::from_nanos(400)));
    }
}
