//! Property tests for the cluster stream router: purity, hash-deal
//! balance and straggler avoidance, over randomized node counts, stream
//! counts and health vectors.

use proptest::prelude::*;
use seqio_cluster::{NodeHealth, Router, ShardPolicy};

/// A router whose degraded nodes straggle at 4x, past the stream
/// scheduler's 2.0 degraded threshold; the rest are healthy.
fn router(policy: ShardPolicy, degraded: &[bool]) -> Router {
    let health: Vec<NodeHealth> = degraded
        .iter()
        .map(|&d| NodeHealth { worst_straggler_factor: if d { 4.0 } else { 1.0 } })
        .collect();
    Router::new(policy, degraded.len()).with_health(health)
}

proptest! {
    /// Sharding is a pure function of (policy, K, S, health):
    /// recomputing the assignment — as a different worker or a later
    /// process would — yields the identical vector, and every stream
    /// lands on a real node.
    #[test]
    fn prop_assignment_is_pure_and_total(
        nodes in 1usize..9,
        streams in 0usize..400,
        policy_pick in 0usize..2,
        degraded in proptest::collection::vec(any::<bool>(), 1..9),
    ) {
        let policy = [ShardPolicy::HashByStream, ShardPolicy::StragglerAware][policy_pick];
        let degraded: Vec<bool> = (0..nodes).map(|k| *degraded.get(k).unwrap_or(&false)).collect();
        let r = router(policy, &degraded);
        let a = r.assign(streams);
        let b = r.assign(streams);
        prop_assert_eq!(&a, &b, "assignment must be reproducible");
        prop_assert_eq!(a.len(), streams);
        prop_assert!(a.iter().all(|&k| k < nodes), "stream routed past node count");
    }

    /// The hash policy balances within the promised ±20% of the ideal
    /// S/K share for 64 or more streams (the rank-based deal actually
    /// achieves ±1 stream, well inside the contract).
    #[test]
    fn prop_hash_balances_within_20_percent(
        nodes in 1usize..9,
        streams in 64usize..512,
    ) {
        let r = Router::new(ShardPolicy::HashByStream, nodes);
        let loads = r.node_loads(streams);
        prop_assert_eq!(loads.iter().sum::<usize>(), streams);
        let ideal = streams as f64 / nodes as f64;
        for (k, &l) in loads.iter().enumerate() {
            prop_assert!(
                (l as f64 - ideal).abs() <= 0.2 * ideal,
                "node {} holds {} streams, ideal {:.1} (K={}, S={})",
                k, l, ideal, nodes, streams
            );
            prop_assert!((l as f64 - ideal).abs() <= 1.0, "deal is exact to ±1");
        }
    }

    /// The straggler-aware policy never routes a stream to a node flagged
    /// past the degraded threshold while any node is healthy, and deals
    /// the healthy nodes an exactly balanced share.
    #[test]
    fn prop_straggler_aware_spares_degraded_nodes(
        nodes in 2usize..9,
        streams in 1usize..400,
        degraded_seed in proptest::collection::vec(any::<bool>(), 8),
    ) {
        let degraded: Vec<bool> =
            (0..nodes).map(|k| degraded_seed[k % degraded_seed.len()]).collect();
        prop_assume!(degraded.iter().any(|&d| !d));
        let r = router(ShardPolicy::StragglerAware, &degraded);
        let loads = r.node_loads(streams);
        prop_assert_eq!(loads.iter().sum::<usize>(), streams, "no stream may be dropped");
        let healthy = degraded.iter().filter(|&&d| !d).count();
        for k in 0..nodes {
            if degraded[k] {
                prop_assert_eq!(loads[k], 0, "degraded node {} got streams", k);
            } else {
                prop_assert!(
                    loads[k].abs_diff(streams / healthy) <= 1,
                    "healthy node {} holds {} of {} streams over {} healthy nodes",
                    k, loads[k], streams, healthy
                );
            }
        }
    }

    /// With every node healthy, the straggler-aware deal degenerates to
    /// the hash deal exactly — health consultation must cost nothing.
    #[test]
    fn prop_straggler_aware_matches_hash_when_healthy(
        nodes in 1usize..9,
        streams in 0usize..300,
    ) {
        let aware = Router::new(ShardPolicy::StragglerAware, nodes).assign(streams);
        let hash = Router::new(ShardPolicy::HashByStream, nodes).assign(streams);
        prop_assert_eq!(aware, hash);
    }
}
