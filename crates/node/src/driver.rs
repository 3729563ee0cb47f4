//! The one driver for every run that steps several [`NodeSim`]s: a worker
//! pool and a per-node loop.
//!
//! [`pool_map`] deals items to scoped worker threads by an atomic cursor
//! and returns the results in input order. [`NodeDrive`] is one node's
//! loop: it applies a sorted timeline of stream injects and retires
//! through [`StreamHandoff`], and polls an optional [`NodeController`] at
//! fixed epoch ticks. [`run_lockstep`] pauses every node at each instant
//! of a barrier list fixed before the run and calls a hook there, then
//! drives each node to completion on its worker; [`run`] is the case
//! with no barriers. The cluster's barriers are the first epoch boundary
//! after each degradation change, the only instants its planner can
//! move a stream, so nodes meet only where a migration can happen.
//!
//! Results are bit-identical at any worker count:
//! - each node is advanced by exactly one worker between barriers;
//! - each node's op and tick order is fixed before it runs, and an op
//!   applies before a same-instant tick, so a controller sees the state
//!   that already includes it;
//! - every cross-node decision happens at a barrier, on the calling
//!   thread.

use std::collections::HashMap;
use std::fmt;
use std::iter::Peekable;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use seqio_simcore::{SeqioError, SimDuration, SimTime};
use seqio_workload::StreamSpec;

use crate::experiment::{Experiment, RunResult};
use crate::sim::StreamHandoff;
use crate::system::NodeSim;

/// The most nodes one run may drive. Each node is a whole simulated
/// machine, so a node count read from outside input (a flag, a trace
/// header) is checked against this before anything is sized by it.
pub const MAX_NODES: usize = 4096;

/// Refuses a node count above [`MAX_NODES`].
///
/// # Errors
///
/// Returns an error naming `nodes` and the limit.
pub fn check_nodes(nodes: usize) -> Result<(), SeqioError> {
    if nodes > MAX_NODES {
        return Err(SeqioError::Experiment(format!(
            "nodes: {nodes} is more than the {MAX_NODES} one run may drive"
        )));
    }
    Ok(())
}

/// Runs `work(index, item)` over every item on up to `jobs` scoped worker
/// threads and returns the results in input order. With one worker (or
/// one item) everything runs on the calling thread.
///
/// # Panics
///
/// Re-raises a panic from `work`.
pub fn pool_map<T: Send, R: Send>(
    items: Vec<T>,
    jobs: usize,
    work: impl Fn(usize, T) -> R + Sync,
) -> Vec<R> {
    let workers = jobs.min(items.len());
    if workers <= 1 {
        return items.into_iter().enumerate().map(|(i, t)| work(i, t)).collect();
    }
    fn lock<X>(m: &Mutex<X>) -> MutexGuard<'_, X> {
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }
    let cells: Vec<Mutex<(Option<T>, Option<R>)>> =
        items.into_iter().map(|t| Mutex::new((Some(t), None))).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                let item = lock(cell).0.take().expect("each item is dealt once");
                let result = work(i, item);
                lock(cell).1 = Some(result);
            });
        }
    });
    cells
        .into_iter()
        .map(|c| c.into_inner().unwrap_or_else(PoisonError::into_inner).1.expect("every item ran"))
        .collect()
}

/// One operation on a node's timeline.
#[derive(Debug, Clone, Copy)]
pub struct NodeOp {
    /// When the operation fires.
    pub at: SimTime,
    /// The timeline's own id for the stream: a retire names the id its
    /// inject used.
    pub stream: usize,
    /// The stream to inject, or `None` to retire stream `stream`. The
    /// spec must be valid.
    pub inject: Option<StreamSpec>,
}

/// A per-node epoch controller. [`NodeDrive`] polls it at each tick,
/// after the node has advanced to the tick and applied every op due at
/// that instant.
pub trait NodeController {
    /// Observes (and may retune) the node at tick `at`.
    fn tick(&mut self, at: SimTime, sim: &mut NodeSim);
}

/// The controller type of nodes that run without one.
impl NodeController for () {
    fn tick(&mut self, _: SimTime, _: &mut NodeSim) {}
}

/// One node's loop: its simulation, a timeline of [`NodeOp`]s sorted by
/// time, and an optional [`NodeController`] ticking at a fixed period.
pub struct NodeDrive<I: Iterator<Item = NodeOp>, C> {
    sim: NodeSim,
    ops: Peekable<I>,
    controller: Option<C>,
    period: SimDuration,
    until: SimTime,
    next_tick: SimTime,
    /// Timeline stream id -> local slot.
    slots: HashMap<usize, usize>,
    injected: Vec<usize>,
    retired: Vec<usize>,
}

impl<I: Iterator<Item = NodeOp>, C> fmt::Debug for NodeDrive<I, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeDrive").field("sim", &self.sim).finish_non_exhaustive()
    }
}

impl<I: Iterator<Item = NodeOp>, C: NodeController> NodeDrive<I, C> {
    /// Builds and initializes `spec`'s node with the timeline `ops`.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint of `spec`.
    pub fn new(
        spec: &Experiment,
        ops: impl IntoIterator<IntoIter = I>,
    ) -> Result<Self, SeqioError> {
        let mut sim = NodeSim::new(spec)?;
        sim.init();
        Ok(NodeDrive {
            sim,
            ops: ops.into_iter().peekable(),
            controller: None,
            period: SimDuration::ZERO,
            until: SimTime::ZERO,
            next_tick: SimTime::ZERO,
            slots: HashMap::new(),
            injected: Vec::new(),
            retired: Vec::new(),
        })
    }

    /// Polls `controller` at `period`, `2 * period`, ... while before
    /// `until`.
    pub fn control(&mut self, controller: C, period: SimDuration, until: SimTime) {
        self.controller = Some(controller);
        self.period = period;
        self.until = until;
        self.next_tick = SimTime::ZERO + period;
    }

    /// The node's simulation.
    pub fn sim(&self) -> &NodeSim {
        &self.sim
    }

    /// The node's simulation, for a cross-node hook to act on.
    pub fn sim_mut(&mut self) -> &mut NodeSim {
        &mut self.sim
    }

    fn tick_due(&self) -> Option<SimTime> {
        (self.controller.is_some() && self.next_tick < self.until).then_some(self.next_tick)
    }

    /// Applies every op and tick due at or before `limit`, in time order
    /// with an op before a same-instant tick, then advances the node to
    /// `limit`.
    pub fn run_until(&mut self, limit: SimTime) {
        loop {
            let tick = self.tick_due().filter(|&t| t <= limit);
            if let Some(op) =
                self.ops.next_if(|op| op.at <= limit && tick.is_none_or(|t| op.at <= t))
            {
                self.sim.advance_to(op.at);
                self.apply(op);
            } else if let Some(at) = tick {
                self.next_tick += self.period;
                self.sim.advance_to(at);
                if let Some(c) = self.controller.as_mut() {
                    c.tick(at, &mut self.sim);
                }
            } else {
                break;
            }
        }
        self.sim.advance_to(limit);
    }

    fn apply(&mut self, op: NodeOp) {
        match op.inject {
            Some(spec) => {
                let handoff =
                    StreamHandoff::fresh(spec).expect("timeline streams are validated up front");
                self.slots.insert(op.stream, self.sim.inject_stream(op.at, handoff));
                self.injected.push(op.stream);
            }
            None => {
                let slot = self.slots[&op.stream];
                if self.sim.stream_live(slot) {
                    let _ = self.sim.retire_stream(slot);
                    self.retired.push(op.stream);
                }
            }
        }
    }

    /// `true` once the node has no event, op or tick left.
    fn drained(&mut self) -> bool {
        self.sim.peek_next_time().is_none()
            && self.ops.peek().is_none()
            && self.tick_due().is_none()
    }

    /// Consumes the drive and assembles the node's [`NodeRun`].
    pub fn finish(self) -> NodeRun<C> {
        NodeRun {
            result: self.sim.finish(),
            injected: self.injected,
            retired: self.retired,
            controller: self.controller,
        }
    }
}

/// What one [`NodeDrive`] produced.
#[derive(Debug)]
pub struct NodeRun<C> {
    /// The node's result.
    pub result: RunResult,
    /// Timeline stream ids in injection order. Injected streams take the
    /// local slots after the node's static streams, in this order.
    pub injected: Vec<usize>,
    /// Timeline stream ids that were still live when retired.
    pub retired: Vec<usize>,
    /// The controller, with whatever it recorded.
    pub controller: Option<C>,
}

/// Drives every node to completion on up to `jobs` workers, each node
/// independently: [`run_lockstep`] with no barriers.
pub fn run<I, C>(nodes: Vec<NodeDrive<I, C>>, jobs: usize) -> Vec<NodeRun<C>>
where
    I: Iterator<Item = NodeOp> + Send,
    C: NodeController + Send,
{
    run_lockstep(nodes, jobs, &[], |_, _| {})
}

/// Drives every node to completion on up to `jobs` workers, pausing them
/// all at each instant of `barriers` (strictly ascending): the nodes
/// advance to barrier `t`, then `hook(t, nodes)` runs on the calling
/// thread. Once every node has drained no hook runs. After the last
/// barrier each node runs to the end and is finished on its worker, so
/// drained nodes do not stay in memory.
///
/// # Panics
///
/// Panics if `barriers` is not strictly ascending.
pub fn run_lockstep<I, C>(
    mut nodes: Vec<NodeDrive<I, C>>,
    jobs: usize,
    barriers: &[SimTime],
    mut hook: impl FnMut(SimTime, &mut [NodeDrive<I, C>]),
) -> Vec<NodeRun<C>>
where
    I: Iterator<Item = NodeOp> + Send,
    C: NodeController + Send,
{
    assert!(barriers.is_sorted_by(|a, b| a < b), "barriers must be strictly ascending");
    for &t in barriers {
        pool_map(nodes.iter_mut().collect(), jobs, |_, node| node.run_until(t));
        if nodes.iter_mut().all(NodeDrive::drained) {
            break;
        }
        hook(t, &mut nodes);
    }
    pool_map(nodes, jobs, |_, mut node| {
        node.run_until(SimTime::MAX);
        node.finish()
    })
}
