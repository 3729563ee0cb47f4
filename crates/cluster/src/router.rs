//! Deterministic front-end stream routing across cluster nodes.
//!
//! The router decides, before any simulation runs, which storage node
//! serves each client stream. Routing is a pure function of the policy,
//! the node count, the stream count and (for the straggler-aware policy)
//! the per-node health vector — never of worker scheduling or wall-clock
//! state — so cluster runs inherit the repo's bit-determinism guarantee.

use seqio_simcore::{FaultPlan, SeqioError};

/// How client streams are sharded across the cluster's nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicy {
    /// Streams are dealt across nodes in the order of a hash of their
    /// global stream id (a SplitMix64 mix). Dealing by hash *rank* rather
    /// than by `hash % K` keeps placement pseudo-random while guaranteeing
    /// exact balance: node loads differ by at most one stream. On one
    /// node every stream lands on node 0, so a 1-node cluster is
    /// bit-identical to a plain [`Experiment`](seqio_node::Experiment)
    /// (the equivalence oracle).
    HashByStream,
    /// Like [`HashByStream`](ShardPolicy::HashByStream), but the deal
    /// skips nodes whose health is at or past the degraded threshold, so
    /// new streams steer away from stragglers. Degraded nodes receive
    /// streams only when every node is degraded.
    StragglerAware,
}

impl ShardPolicy {
    /// Stable lowercase name, used by the CLI and JSON probes.
    pub fn name(self) -> &'static str {
        match self {
            ShardPolicy::HashByStream => "hash",
            ShardPolicy::StragglerAware => "straggler-aware",
        }
    }

    /// Parses a CLI policy name.
    ///
    /// # Errors
    ///
    /// Returns a usage-style message listing the accepted names.
    pub fn parse(s: &str) -> Result<Self, SeqioError> {
        match s {
            "hash" => Ok(ShardPolicy::HashByStream),
            "straggler-aware" | "aware" => Ok(ShardPolicy::StragglerAware),
            other => Err(SeqioError::Experiment(format!(
                "shard policy: expected hash|straggler-aware, got {other:?}"
            ))),
        }
    }
}

/// Front-end view of one node's health, derived from its §5c fault plan
/// before the run starts (the router is an admission-time policy; it does
/// not observe the simulation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeHealth {
    /// Worst straggler slowdown factor across the node's disks and fault
    /// windows (`1.0` = nominal speed everywhere).
    pub worst_straggler_factor: f64,
}

impl NodeHealth {
    /// A node with no known faults.
    pub fn healthy() -> Self {
        NodeHealth { worst_straggler_factor: 1.0 }
    }

    /// Derives health from a node's fault plan: the maximum straggler
    /// factor any of its `disks` spindles is scheduled to suffer. `None`
    /// (no plan) is healthy.
    pub fn from_faults(plan: Option<&FaultPlan>, disks: usize) -> Self {
        let worst = plan
            .iter()
            .flat_map(|p| (0..disks).filter_map(|d| p.disk(d)))
            .flat_map(|df| df.stragglers.iter().map(|s| s.factor))
            .fold(1.0f64, f64::max);
        NodeHealth { worst_straggler_factor: worst }
    }

    /// `true` when the worst scheduled slowdown reaches the stream
    /// scheduler's default `degraded_rotate_threshold` (2.0).
    pub fn is_degraded(&self) -> bool {
        self.worst_straggler_factor >= degraded_threshold()
    }
}

impl Default for NodeHealth {
    fn default() -> Self {
        Self::healthy()
    }
}

/// The slowdown factor at which the router and the rebalancer count a
/// node or disk as degraded: the stream scheduler's default
/// `degraded_rotate_threshold`, so the cluster steers streams away from
/// exactly the disks a node's own scheduler rotates streams off.
pub(crate) fn degraded_threshold() -> f64 {
    seqio_core::ServerConfig::default_tuning().degraded_rotate_threshold
}

/// A configured stream router: policy, node count and the per-node
/// health the straggler-aware policy consults.
#[derive(Debug, Clone)]
pub struct Router {
    /// Sharding policy.
    pub policy: ShardPolicy,
    /// Number of nodes `K`.
    pub nodes: usize,
    /// Per-node health (length `K`).
    pub health: Vec<NodeHealth>,
}

impl Router {
    /// A router over `nodes` healthy nodes.
    pub fn new(policy: ShardPolicy, nodes: usize) -> Self {
        Router { policy, nodes, health: vec![NodeHealth::healthy(); nodes] }
    }

    /// Replaces the per-node health vector.
    pub fn with_health(mut self, health: Vec<NodeHealth>) -> Self {
        self.health = health;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Rejects empty clusters and a health vector of the wrong length.
    pub fn validate(&self) -> Result<(), SeqioError> {
        if self.nodes == 0 {
            return Err(SeqioError::Experiment("cluster needs at least one node".into()));
        }
        if self.health.len() != self.nodes {
            return Err(SeqioError::Experiment(format!(
                "router health names {} nodes but the cluster has {}",
                self.health.len(),
                self.nodes
            )));
        }
        Ok(())
    }

    /// Assigns global streams `0..streams` to nodes; element `g` of the
    /// returned vector is the node serving stream `g`.
    ///
    /// The assignment is a pure function of
    /// `(policy, nodes, health, streams)`: calling it twice — or from
    /// different worker counts — yields identical vectors.
    ///
    /// # Panics
    ///
    /// Panics if the router fails [`validate`](Router::validate).
    pub fn assign(&self, streams: usize) -> Vec<usize> {
        if let Err(e) = self.validate() {
            panic!("router: {e}");
        }
        let all: Vec<usize> = (0..self.nodes).collect();
        match self.policy {
            ShardPolicy::HashByStream => deal(streams, &all),
            ShardPolicy::StragglerAware => {
                let healthy: Vec<usize> =
                    all.iter().copied().filter(|&k| !self.health[k].is_degraded()).collect();
                // Everyone degraded: nothing to steer away from.
                deal(streams, if healthy.is_empty() { &all } else { &healthy })
            }
        }
    }

    /// Per-node stream counts implied by [`assign`](Router::assign).
    pub fn node_loads(&self, streams: usize) -> Vec<usize> {
        let mut loads = vec![0usize; self.nodes];
        for node in self.assign(streams) {
            loads[node] += 1;
        }
        loads
    }
}

/// Deals global streams `0..streams` round-robin over `targets` in the
/// order of `(mix(id), id)`: placement is pseudo-random, balance is exact
/// (loads differ by at most one).
fn deal(streams: usize, targets: &[usize]) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..streams).collect();
    ids.sort_by_key(|&g| (mix(g as u64), g));
    let mut assignment = vec![0usize; streams];
    for (rank, g) in ids.into_iter().enumerate() {
        assignment[g] = targets[rank % targets.len()];
    }
    assignment
}

/// SplitMix64 finalizer: spreads consecutive stream ids across the full
/// 64-bit space so the deal order looks random but costs one multiply
/// chain per id.
fn mix(id: u64) -> u64 {
    let mut z = id.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqio_simcore::SimDuration;

    #[test]
    fn policy_names_round_trip() {
        for p in [ShardPolicy::HashByStream, ShardPolicy::StragglerAware] {
            assert_eq!(ShardPolicy::parse(p.name()).unwrap(), p);
        }
        assert!(ShardPolicy::parse("round-robin").is_err());
    }

    #[test]
    fn health_derives_from_fault_plans() {
        assert_eq!(NodeHealth::from_faults(None, 8), NodeHealth::healthy());
        let plan = FaultPlan::new().straggler(2, 4.0, SimDuration::ZERO, None).straggler(
            5,
            2.5,
            SimDuration::ZERO,
            None,
        );
        let h = NodeHealth::from_faults(Some(&plan), 8);
        assert_eq!(h.worst_straggler_factor, 4.0);
        assert!(h.is_degraded());
        let mild = FaultPlan::new().straggler(0, 1.5, SimDuration::ZERO, None);
        assert!(!NodeHealth::from_faults(Some(&mild), 1).is_degraded());
        // Faults on disks past the node's shape are ignored.
        let h = NodeHealth::from_faults(Some(&plan), 1);
        assert_eq!(h, NodeHealth::healthy());
    }

    #[test]
    fn hash_deal_is_exactly_balanced() {
        let r = Router::new(ShardPolicy::HashByStream, 3);
        let loads = r.node_loads(100);
        assert_eq!(loads.iter().sum::<usize>(), 100);
        assert!(loads.iter().all(|&l| l == 33 || l == 34), "{loads:?}");
    }

    #[test]
    fn straggler_aware_avoids_the_degraded_node() {
        let mut health = vec![NodeHealth::healthy(); 4];
        health[1] = NodeHealth { worst_straggler_factor: 4.0 };
        let r = Router::new(ShardPolicy::StragglerAware, 4).with_health(health);
        let loads = r.node_loads(90);
        assert_eq!(loads[1], 0);
        assert_eq!(loads.iter().sum::<usize>(), 90);
        assert_eq!(loads[0] + loads[2] + loads[3], 90);
    }

    #[test]
    fn invalid_routers_are_rejected() {
        assert!(Router::new(ShardPolicy::HashByStream, 0).validate().is_err());
        let short = Router::new(ShardPolicy::HashByStream, 3).with_health(vec![]);
        assert!(short.validate().is_err());
    }
}
