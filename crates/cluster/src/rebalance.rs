//! Mid-run stream rebalancing for the shared-clock co-simulation.
//!
//! At each barrier — the first epoch boundary after a fault plan starts
//! or ends a degraded window ([`RebalanceConfig::barriers`]) — the
//! cluster driver snapshots each live node's health
//! ([`seqio_node::HealthSnapshot`], assembled purely from model state)
//! and hands [`plan`] a list of [`NodeView`]s. The planner returns
//! [`MoveDecision`]s — which global streams to migrate off disks degraded
//! past the rotate threshold, and to which node. It is pure: decisions
//! depend only on the views (which are themselves deterministic functions
//! of the shared clock and the seeds), never on worker count, wall-clock
//! time, or recorder state — so a rebalanced run is bit-identical at any
//! `SEQIO_JOBS` count.

use seqio_simcore::{FaultPlan, SeqioError, SimDuration, SimTime};

use crate::router::degraded_threshold;

/// Configuration of the mid-run rebalancer. A disk whose straggler factor
/// reaches the stream scheduler's default `degraded_rotate_threshold`
/// (2.0) is degraded, and every live stream on it is a migration
/// candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceConfig {
    /// Epoch length: the boundaries `k * check_interval` (`k >= 1`) at
    /// which the rebalancer may look for streams to migrate. The nodes
    /// meet only at the first boundary at or after an instant a fault
    /// plan starts or ends a degraded window, since at every other
    /// boundary the planner would move nothing.
    pub check_interval: SimDuration,
}

impl RebalanceConfig {
    /// A rebalancer checking every `check_interval`.
    pub fn new(check_interval: SimDuration) -> Self {
        RebalanceConfig { check_interval }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Rejects a zero check interval.
    pub fn validate(&self) -> Result<(), SeqioError> {
        if self.check_interval == SimDuration::ZERO {
            return Err(SeqioError::Experiment("rebalance check interval must be positive".into()));
        }
        Ok(())
    }

    /// The boundaries at which the nodes meet, strictly ascending: the
    /// first boundary `k * check_interval` (`k >= 1`) at or after each
    /// instant one of `plans` starts or ends a window whose factor reaches
    /// [`degraded_threshold`]. A boundary past `SimTime::MAX` is dropped.
    ///
    /// At any other boundary [`plan`] would move nothing. It moves a
    /// stream only while a live stream sits on a degraded disk and
    /// another node has no degraded disk; both change only at those
    /// window edges, streams enter a node only at a barrier, and a
    /// barrier moves every stream that has a target. So a boundary with
    /// no edge since the previous one finds either no candidate or no
    /// target, exactly as the previous one left it.
    ///
    /// # Panics
    ///
    /// Panics on a zero `check_interval` ([`validate`](Self::validate)
    /// refuses it).
    pub(crate) fn barriers<'a>(
        &self,
        plans: impl IntoIterator<Item = &'a FaultPlan>,
    ) -> Vec<SimTime> {
        let every = self.check_interval.as_nanos();
        let mut barriers: Vec<SimTime> = plans
            .into_iter()
            .flat_map(|p| p.threshold_crossings(degraded_threshold()))
            .filter_map(|c| c.as_nanos().div_ceil(every).max(1).checked_mul(every))
            .map(SimTime::from_nanos)
            .collect();
        barriers.sort_unstable();
        barriers.dedup();
        barriers
    }
}

/// One live node as the rebalancer sees it at a barrier.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeView {
    /// Node index.
    pub node: usize,
    /// Streams on the node that still have requests to issue.
    pub live_streams: usize,
    /// The node's worst per-disk straggler factor right now.
    pub worst_factor: f64,
    /// Live streams sitting on degraded disks, each with the straggler
    /// factor of its disk. Empty on healthy nodes.
    pub migratable: Vec<MigratableStream>,
}

/// A live stream on a degraded disk, eligible for migration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigratableStream {
    /// Global stream id.
    pub global: usize,
    /// Straggler factor of the disk the stream sits on.
    pub factor: f64,
}

/// One planned migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveDecision {
    /// Global stream id to move.
    pub global: usize,
    /// Source node.
    pub from: usize,
    /// Target node.
    pub to: usize,
}

/// One executed migration, recorded in the [`ClusterResult`](crate::ClusterResult).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationRecord {
    /// Shared-clock instant of the migration (a barrier).
    pub at: SimTime,
    /// Global stream id that moved.
    pub stream: usize,
    /// Source node.
    pub from: usize,
    /// Target node.
    pub to: usize,
}

/// Plans this epoch's migrations off degraded disks (see module docs).
/// Pure: the same views always produce the same moves, in the same order.
///
/// For every migratable stream whose disk factor meets the threshold
/// (taken in ascending node order, then the node's own stream order), the
/// target is the least-loaded node that is not degraded and is strictly
/// healthier than the stream's disk — ties broken by lowest node index.
/// Streams with no eligible target stay put: the planner never moves a
/// stream to a node it knows to be at least as degraded as the stream's
/// source disk.
pub fn plan(views: &[NodeView]) -> Vec<MoveDecision> {
    let threshold = degraded_threshold();
    let mut loads: Vec<usize> = views.iter().map(|v| v.live_streams).collect();
    let mut moves = Vec::new();
    for (vi, v) in views.iter().enumerate() {
        for m in &v.migratable {
            if m.factor < threshold {
                continue;
            }
            let target = views
                .iter()
                .enumerate()
                .filter(|(wi, w)| {
                    *wi != vi && w.worst_factor < threshold && w.worst_factor < m.factor
                })
                .min_by(|(ai, a), (bi, b)| {
                    loads[*ai].cmp(&loads[*bi]).then(a.node.cmp(&b.node)).then(ai.cmp(bi))
                });
            if let Some((wi, w)) = target {
                moves.push(MoveDecision { global: m.global, from: v.node, to: w.node });
                loads[wi] += 1;
                loads[vi] = loads[vi].saturating_sub(1);
            }
        }
    }
    moves
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn view(node: usize, live: usize, worst: f64, migratable: &[(usize, f64)]) -> NodeView {
        NodeView {
            node,
            live_streams: live,
            worst_factor: worst,
            migratable: migratable
                .iter()
                .map(|&(global, factor)| MigratableStream { global, factor })
                .collect(),
        }
    }

    #[test]
    fn config_validates() {
        assert!(RebalanceConfig::new(SimDuration::from_millis(100)).validate().is_ok());
        assert!(RebalanceConfig::new(SimDuration::ZERO).validate().is_err());
    }

    #[test]
    fn degraded_streams_move_to_the_least_loaded_healthy_node() {
        let views = vec![
            view(0, 10, 8.0, &[(3, 8.0), (7, 8.0)]),
            view(1, 6, 1.0, &[]),
            view(2, 4, 1.0, &[]),
        ];
        let moves = plan(&views);
        assert_eq!(
            moves,
            vec![
                MoveDecision { global: 3, from: 0, to: 2 },
                MoveDecision { global: 7, from: 0, to: 2 }, // loads now 5 vs 6: node 2 again
            ]
        );
    }

    #[test]
    fn ties_break_toward_the_lowest_node_index() {
        let views = vec![view(0, 5, 1.0, &[]), view(1, 2, 4.0, &[(9, 4.0)]), view(2, 5, 1.0, &[])];
        let moves = plan(&views);
        assert_eq!(moves, vec![MoveDecision { global: 9, from: 1, to: 0 }]);
    }

    #[test]
    fn no_healthy_target_means_no_move() {
        // Every other node is itself at or past the threshold.
        let views = vec![view(0, 5, 8.0, &[(1, 8.0)]), view(1, 5, 2.0, &[])];
        assert!(plan(&views).is_empty());
        // A lone node has nowhere to go.
        let views = vec![view(0, 5, 8.0, &[(1, 8.0)])];
        assert!(plan(&views).is_empty());
    }

    fn secs(s: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(s)
    }

    #[test]
    fn the_straggler_batch_meets_once_at_the_onset() {
        // Two nodes, a factor-8 straggler on node 1 from 24 s, 2.4 s
        // checks: the onset is the tenth boundary.
        let cfg = RebalanceConfig::new(SimDuration::from_millis(2_400));
        let straggler = FaultPlan::new().straggler(0, 8.0, SimDuration::from_secs(24), None);
        assert_eq!(cfg.barriers([&straggler]), [secs(24.0)]);
        assert_eq!(cfg.barriers([]), []);
        assert_eq!(cfg.barriers([&FaultPlan::new(), &FaultPlan::new().read_errors(0, 0.5)]), []);
    }

    #[test]
    fn each_crossing_maps_to_the_first_boundary_at_or_after_it() {
        let cfg = RebalanceConfig::new(SimDuration::from_secs(1));
        let window = |from: f64, len: Option<f64>| {
            FaultPlan::new().straggler(
                0,
                4.0,
                SimDuration::from_secs_f64(from),
                len.map(SimDuration::from_secs_f64),
            )
        };
        // On a boundary: that boundary; between two: the later one.
        assert_eq!(cfg.barriers([&window(3.0, None)]), [secs(3.0)]);
        assert_eq!(cfg.barriers([&window(2.5, None)]), [secs(3.0)]);
        // At 0: the first boundary, never 0 itself.
        assert_eq!(cfg.barriers([&window(0.0, None)]), [secs(1.0)]);
        // A bounded window meets at both edges, even inside one epoch.
        assert_eq!(cfg.barriers([&window(2.5, Some(4.0))]), [secs(3.0), secs(7.0)]);
        assert_eq!(cfg.barriers([&window(2.2, Some(0.5))]), [secs(3.0)]);
        // Several plans: sorted, each boundary once; a factor below the
        // threshold is no crossing.
        let mild = FaultPlan::new().straggler(0, 1.5, SimDuration::from_secs(1), None);
        assert_eq!(
            cfg.barriers([&window(5.0, None), &mild, &window(2.5, Some(1.0))]),
            [secs(3.0), secs(4.0), secs(5.0)]
        );
    }

    #[test]
    fn a_boundary_past_the_end_of_the_clock_is_dropped() {
        let cfg = RebalanceConfig::new(SimDuration::from_secs(1));
        let late = SimDuration::from_nanos(u64::MAX - 5);
        let plan = FaultPlan::new()
            .straggler(0, 8.0, SimDuration::from_secs(2), None)
            .straggler(1, 8.0, late, None);
        assert_eq!(cfg.barriers([&plan]), [secs(2.0)]);
        // A boundary that lands exactly on the last instant stays.
        let cfg = RebalanceConfig::new(SimDuration::from_nanos(5));
        let plan = FaultPlan::new().straggler(0, 8.0, SimDuration::from_nanos(u64::MAX - 1), None);
        assert_eq!(cfg.barriers([&plan]), [SimTime::MAX]);
    }

    proptest! {
        /// The planner never migrates a stream to a node it knows to be
        /// more degraded than the stream's source disk — for any mix of
        /// node factors, loads and candidate streams.
        #[test]
        fn prop_never_moves_to_a_worse_node(
            factors in proptest::collection::vec(0.5f64..32.0, 2..8),
            loads in proptest::collection::vec(0usize..100, 2..8),
        ) {
            let threshold = degraded_threshold();
            let n = factors.len().min(loads.len());
            let mut next_global = 0;
            let views: Vec<NodeView> = (0..n)
                .map(|k| {
                    let worst = factors[k];
                    let migratable: Vec<MigratableStream> = (0..loads[k].min(5))
                        .map(|_| {
                            next_global += 1;
                            // Candidate factors never exceed the node's worst.
                            MigratableStream { global: next_global - 1, factor: worst }
                        })
                        .collect();
                    NodeView { node: k, live_streams: loads[k], worst_factor: worst, migratable }
                })
                .collect();
            let moves = plan(&views);
            for mv in &moves {
                prop_assert!(mv.from != mv.to, "self-moves are meaningless");
                let src = &views[mv.from];
                let dst = &views[mv.to];
                let stream = src.migratable.iter().find(|m| m.global == mv.global)
                    .expect("moved stream was a candidate on its source");
                prop_assert!(stream.factor >= threshold, "only degraded streams move");
                prop_assert!(dst.worst_factor < threshold, "target must be healthy");
                prop_assert!(
                    dst.worst_factor < stream.factor,
                    "target ({}) must be strictly healthier than the source disk ({})",
                    dst.worst_factor,
                    stream.factor
                );
            }
            // Decisions are pure: replanning the same views is identical.
            prop_assert_eq!(plan(&views), moves);
        }
    }
}
