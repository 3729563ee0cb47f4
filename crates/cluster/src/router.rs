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
    /// Every stream goes to node 0. Only valid for single-node clusters;
    /// exists so a 1-node cluster is bit-identical to a plain
    /// [`Experiment`](seqio_node::Experiment) (the equivalence oracle).
    Identity,
    /// Streams are dealt across nodes in the order of a hash of their
    /// global stream id (a SplitMix64 mix). Dealing by hash *rank* rather
    /// than by `hash % K` keeps placement pseudo-random while guaranteeing
    /// exact balance: node loads differ by at most one stream.
    HashByStream,
    /// Like [`HashByStream`](ShardPolicy::HashByStream), but the deal
    /// skips nodes whose health is at or past the degraded threshold, so
    /// new streams steer away from stragglers. Degraded nodes only
    /// receive streams once every healthy node is at capacity.
    StragglerAware,
}

impl ShardPolicy {
    /// Stable lowercase name, used by the CLI and JSON probes.
    pub fn name(self) -> &'static str {
        match self {
            ShardPolicy::Identity => "identity",
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
            "identity" => Ok(ShardPolicy::Identity),
            "hash" => Ok(ShardPolicy::HashByStream),
            "straggler-aware" | "aware" => Ok(ShardPolicy::StragglerAware),
            other => Err(SeqioError::Experiment(format!(
                "shard policy: expected identity|hash|straggler-aware, got {other:?}"
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

    /// `true` when the worst scheduled slowdown reaches `threshold` (the
    /// stream scheduler's `degraded_rotate_threshold` convention).
    pub fn is_degraded(&self, threshold: f64) -> bool {
        self.worst_straggler_factor >= threshold
    }
}

impl Default for NodeHealth {
    fn default() -> Self {
        Self::healthy()
    }
}

/// A configured stream router: policy, node count, per-node health and
/// the admission knobs the straggler-aware policy consults.
#[derive(Debug, Clone)]
pub struct Router {
    /// Sharding policy.
    pub policy: ShardPolicy,
    /// Number of nodes `K`.
    pub nodes: usize,
    /// Per-node health (length `K`).
    pub health: Vec<NodeHealth>,
    /// Slowdown factor at which a node counts as degraded.
    pub degraded_threshold: f64,
    /// Maximum streams a node accepts before the straggler-aware deal
    /// spills past it (`None` = unbounded). Other policies ignore this.
    pub capacity: Option<usize>,
}

impl Router {
    /// A router over `nodes` healthy nodes with the stream scheduler's
    /// default degraded threshold and unbounded capacity.
    pub fn new(policy: ShardPolicy, nodes: usize) -> Self {
        Router {
            policy,
            nodes,
            health: vec![NodeHealth::healthy(); nodes],
            degraded_threshold: seqio_core::ServerConfig::default_tuning()
                .degraded_rotate_threshold,
            capacity: None,
        }
    }

    /// Replaces the per-node health vector.
    pub fn with_health(mut self, health: Vec<NodeHealth>) -> Self {
        self.health = health;
        self
    }

    /// Overrides the degraded threshold.
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.degraded_threshold = threshold;
        self
    }

    /// Caps the streams any single node accepts under the
    /// straggler-aware deal.
    pub fn with_capacity(mut self, cap: usize) -> Self {
        self.capacity = Some(cap);
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Rejects empty clusters, a health vector of the wrong length, the
    /// identity policy on more than one node, and non-finite thresholds.
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
        if self.policy == ShardPolicy::Identity && self.nodes != 1 {
            return Err(SeqioError::Experiment(
                "identity routing is only meaningful on a 1-node cluster".into(),
            ));
        }
        if !self.degraded_threshold.is_finite() || self.degraded_threshold <= 1.0 {
            return Err(SeqioError::Experiment(
                "degraded threshold must be a finite factor above 1.0".into(),
            ));
        }
        Ok(())
    }

    /// Assigns global streams `0..streams` to nodes; element `g` of the
    /// returned vector is the node serving stream `g`.
    ///
    /// The assignment is a pure function of
    /// `(policy, nodes, health, threshold, capacity, streams)`: calling
    /// it twice — or from different worker counts — yields identical
    /// vectors.
    ///
    /// # Panics
    ///
    /// Panics if the router fails [`validate`](Router::validate).
    pub fn assign(&self, streams: usize) -> Vec<usize> {
        if let Err(e) = self.validate() {
            panic!("router: {e}");
        }
        match self.policy {
            ShardPolicy::Identity => vec![0; streams],
            ShardPolicy::HashByStream => self.deal(streams, &(0..self.nodes).collect::<Vec<_>>()),
            ShardPolicy::StragglerAware => {
                let healthy: Vec<usize> = (0..self.nodes)
                    .filter(|&k| !self.health[k].is_degraded(self.degraded_threshold))
                    .collect();
                if healthy.is_empty() {
                    // Everyone is degraded: nothing to steer away from.
                    return self.deal(streams, &(0..self.nodes).collect::<Vec<_>>());
                }
                let cap = self.capacity.unwrap_or(usize::MAX);
                let degraded: Vec<usize> =
                    (0..self.nodes).filter(|k| !healthy.contains(k)).collect();
                let mut loads = vec![0usize; self.nodes];
                let mut assignment = vec![0usize; streams];
                for (rank, g) in hash_order(streams).into_iter().enumerate() {
                    // Deal over healthy nodes while any has room, then
                    // over degraded ones, then (everyone full) over all.
                    let pick = pick_round_robin(&healthy, &loads, cap, rank)
                        .or_else(|| pick_round_robin(&degraded, &loads, cap, rank))
                        .unwrap_or(healthy[rank % healthy.len()]);
                    loads[pick] += 1;
                    assignment[g] = pick;
                }
                assignment
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

    /// Deals streams round-robin over `targets` in hash-rank order:
    /// placement is pseudo-random, balance is exact (loads differ by at
    /// most one).
    fn deal(&self, streams: usize, targets: &[usize]) -> Vec<usize> {
        let mut assignment = vec![0usize; streams];
        for (rank, g) in hash_order(streams).into_iter().enumerate() {
            assignment[g] = targets[rank % targets.len()];
        }
        assignment
    }
}

/// Global stream ids ordered by `(mix(id), id)` — the deterministic
/// pseudo-random deal order shared by the hash and straggler-aware
/// policies.
fn hash_order(streams: usize) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..streams).collect();
    ids.sort_by_key(|&g| (mix(g as u64), g));
    ids
}

/// Next node from `targets` (rotating with `rank`) whose load is under
/// `cap`, or `None` when every target is full.
fn pick_round_robin(targets: &[usize], loads: &[usize], cap: usize, rank: usize) -> Option<usize> {
    if targets.is_empty() {
        return None;
    }
    (0..targets.len()).map(|i| targets[(rank + i) % targets.len()]).find(|&k| loads[k] < cap)
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
        for p in [ShardPolicy::Identity, ShardPolicy::HashByStream, ShardPolicy::StragglerAware] {
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
        assert!(h.is_degraded(2.0));
        assert!(!h.is_degraded(8.0));
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
    fn straggler_aware_spills_only_past_capacity() {
        let mut health = vec![NodeHealth::healthy(); 3];
        health[0] = NodeHealth { worst_straggler_factor: 8.0 };
        let r = Router::new(ShardPolicy::StragglerAware, 3).with_health(health).with_capacity(10);
        // 25 streams, two healthy nodes x 10 capacity: 5 spill to node 0.
        let loads = r.node_loads(25);
        assert_eq!(loads, vec![5, 10, 10]);
        // Everyone (including the straggler) full: the deal wraps anyway
        // rather than dropping streams.
        let loads = r.node_loads(40);
        assert_eq!(loads.iter().sum::<usize>(), 40);
    }

    #[test]
    fn invalid_routers_are_rejected() {
        assert!(Router::new(ShardPolicy::HashByStream, 0).validate().is_err());
        assert!(Router::new(ShardPolicy::Identity, 2).validate().is_err());
        assert!(Router::new(ShardPolicy::Identity, 1).validate().is_ok());
        let short = Router::new(ShardPolicy::HashByStream, 3).with_health(vec![]);
        assert!(short.validate().is_err());
        let bad = Router::new(ShardPolicy::HashByStream, 2).with_threshold(1.0);
        assert!(bad.validate().is_err());
    }
}
