//! Cluster composition: per-node experiment construction, shared-clock
//! co-simulation with optional mid-run rebalancing, and result merging.

use seqio_node::driver::{self, NodeDrive, NodeOp};
use seqio_node::sweep::{derive_seed, resolve_jobs};
use seqio_node::{Experiment, RunResult};
use seqio_simcore::{FaultPlan, LatencyHistogram, MetricSeries, SeqioError, SimDuration, SimTime};

use crate::rebalance::{plan, MigratableStream, MigrationRecord, NodeView, RebalanceConfig};
use crate::router::{degraded_threshold, NodeHealth, Router, ShardPolicy};

/// A multi-node cluster experiment: `K` copies of a per-node
/// [`Experiment`] template behind a front-end [`Router`].
///
/// The client population is `K * template.total_streams()` global
/// streams. The router assigns each global stream to a node before
/// anything runs; each node then runs on the
/// [`driver`](seqio_node::driver), and the per-node [`RunResult`]s merge
/// into one [`ClusterResult`].
///
/// With [`rebalance`](ClusterExperimentBuilder::rebalance) set, the
/// cluster-level planner [`plan`] reads every node's health at the first
/// epoch boundary after each degradation change and migrates live
/// streams off disks degraded past the rotate threshold, mid-run.
/// Decisions derive only from the shared clock and the seeds, so results
/// stay bit-identical at any `SEQIO_JOBS` count; without a rebalancer the
/// per-node simulations are bit-identical to running each node
/// standalone.
///
/// Faults are opt-in per node; observability is opt-in via the
/// template's `ObsConfig` and never perturbs results.
#[derive(Debug, Clone)]
pub struct ClusterExperiment {
    /// Per-node experiment template (shape, workload, frontend, clock).
    pub template: Experiment,
    /// Number of storage nodes `K`.
    pub nodes: usize,
    /// Stream sharding policy.
    pub policy: ShardPolicy,
    /// Per-node fault plans (`None` entries are healthy nodes). The
    /// template's own `faults` field must stay empty — cluster faults
    /// are always per node.
    pub node_faults: Vec<Option<FaultPlan>>,
    /// When set, node `k` runs with seed [`derive_seed`]`(base, k)`;
    /// when `None`, every node keeps the template seed (used by the
    /// 1-node equivalence oracle).
    pub base_seed: Option<u64>,
    /// Worker override for the fan-out (`None` = `SEQIO_JOBS`, then
    /// available parallelism).
    pub jobs: Option<usize>,
    /// Mid-run rebalancing: when set, the nodes meet at the first
    /// `check_interval` boundary after each degradation change, where
    /// live streams migrate off degraded disks. `None` runs the cluster
    /// statically.
    pub rebalance: Option<RebalanceConfig>,
}

impl ClusterExperiment {
    /// Starts a builder: 1 node, [`ShardPolicy::HashByStream`] routing,
    /// healthy, template defaults from [`Experiment::builder`].
    pub fn builder() -> ClusterExperimentBuilder {
        ClusterExperimentBuilder {
            spec: ClusterExperiment {
                template: Experiment::builder().build(),
                nodes: 1,
                policy: ShardPolicy::HashByStream,
                node_faults: vec![None],
                base_seed: None,
                jobs: None,
                rebalance: None,
            },
        }
    }

    /// Global client streams across the cluster.
    pub fn total_streams(&self) -> usize {
        self.nodes * self.template.total_streams()
    }

    /// The router this specification implies (health derived from the
    /// per-node fault plans).
    pub fn router(&self) -> Router {
        let disks = self.template.shape.total_disks();
        let health: Vec<NodeHealth> =
            self.node_faults.iter().map(|p| NodeHealth::from_faults(p.as_ref(), disks)).collect();
        Router::new(self.policy, self.nodes).with_health(health)
    }

    /// Validates the full cluster specification.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`SeqioError`].
    pub fn validate(&self) -> Result<(), SeqioError> {
        driver::check_nodes(self.nodes)?;
        self.template.validate()?;
        if self.template.faults.is_some() {
            return Err(SeqioError::Experiment(
                "cluster faults are per node: use node_fault(k, plan), not the template".into(),
            ));
        }
        if self.template.stream_counts.is_some() && self.nodes > 1 {
            return Err(SeqioError::Experiment(
                "the cluster owns per-disk stream layout across nodes; \
                 template.stream_counts is only honoured on a 1-node cluster"
                    .into(),
            ));
        }
        if self.template.replay.is_some() {
            return Err(SeqioError::Experiment("trace replay cannot be sharded".into()));
        }
        if self.node_faults.len() != self.nodes {
            return Err(SeqioError::Experiment(format!(
                "node_faults names {} nodes but the cluster has {}",
                self.node_faults.len(),
                self.nodes
            )));
        }
        for (k, plan) in self.node_faults.iter().enumerate() {
            if let Some(p) = plan {
                p.validate()?;
                if let Some(d) = p.max_disk() {
                    let disks = self.template.shape.total_disks();
                    if d >= disks {
                        return Err(SeqioError::Experiment(format!(
                            "node {k} fault plan names disk {d} but nodes have {disks} disks"
                        )));
                    }
                }
            }
        }
        if let Some(cfg) = &self.rebalance {
            cfg.validate()?;
        }
        self.router().validate()
    }

    /// Builds the per-node experiment spec for a node assigned
    /// `assigned` streams (`None` when the node received no streams and
    /// is skipped entirely).
    fn node_spec(&self, node: usize, assigned: usize) -> Option<Experiment> {
        if assigned == 0 {
            return None;
        }
        let mut spec = self.template.clone();
        let disks = spec.shape.total_disks();
        if self.nodes == 1 && spec.stream_counts.is_some() {
            // A 1-node cluster honours the template's explicit per-disk
            // layout verbatim (the router assigns the whole population to
            // this node anyway).
            debug_assert_eq!(assigned, spec.total_streams());
        } else if assigned.is_multiple_of(disks) {
            // An even share keeps the uniform layout, so a 1-node
            // cluster runs the template spec verbatim.
            spec.streams_per_disk = assigned / disks;
        } else {
            let base = assigned / disks;
            let rem = assigned % disks;
            spec.stream_counts = Some((0..disks).map(|d| base + usize::from(d < rem)).collect());
        }
        spec.faults = self.node_faults[node].clone();
        if let Some(b) = self.base_seed {
            spec.seed = derive_seed(b, node);
        }
        Some(spec)
    }

    /// Runs the shared-clock co-simulation and merges the results.
    ///
    /// Every populated node runs on the [`driver`](seqio_node::driver),
    /// whose worker pool is sized by [`resolve_jobs`] like a
    /// [`seqio_node::Sweep`]. Without a rebalancer each node runs
    /// independently to the end of time, which is exactly its standalone
    /// event loop; with one, the nodes meet at the first
    /// `check_interval` boundary after each degradation change
    /// ([`RebalanceConfig`]'s barriers), where live streams migrate off
    /// degraded disks, and run independently in between.
    ///
    /// # Errors
    ///
    /// Returns the first specification error; a valid specification
    /// always runs to completion.
    pub fn run(&self) -> Result<ClusterResult, SeqioError> {
        self.validate()?;
        let barriers = self
            .rebalance
            .as_ref()
            .map_or_else(Vec::new, |cfg| cfg.barriers(self.node_faults.iter().flatten()));
        self.run_at(&barriers)
    }

    /// Runs a validated specification with the nodes meeting at
    /// `barriers`, where the planner may migrate streams.
    fn run_at(&self, barriers: &[SimTime]) -> Result<ClusterResult, SeqioError> {
        let total = self.total_streams();
        let router = self.router();
        let assignment = router.assign(total);

        // Node k serves its assigned global ids in ascending order,
        // mapped onto local slots 0..n_k (disk-major, the node's own
        // stream order).
        let node_ids: Vec<Vec<usize>> = {
            let mut ids = vec![Vec::new(); self.nodes];
            for (g, &k) in assignment.iter().enumerate() {
                ids[k].push(g);
            }
            ids
        };

        // Seeds are derived per node up front, so a skipped (empty)
        // node never shifts its neighbours' seeds.
        let specs: Vec<Option<Experiment>> =
            node_ids.iter().enumerate().map(|(k, ids)| self.node_spec(k, ids.len())).collect();
        let live: Vec<usize> = (0..self.nodes).filter(|&k| specs[k].is_some()).collect();
        let mut nodes: Vec<Node> = Vec::with_capacity(live.len());
        for spec in specs.iter().flatten() {
            nodes.push(NodeDrive::new(spec, std::iter::empty())?);
        }
        let jobs = resolve_jobs(self.jobs);

        // The final local-slot -> global-stream map per node; grows on
        // the target side as streams migrate in.
        let mut slot_map = node_ids.clone();
        let mut migrations: Vec<MigrationRecord> = Vec::new();

        let pos = |k: usize| live.binary_search(&k).expect("plans name live nodes only");
        let runs = driver::run_lockstep(nodes, jobs, barriers, |t, nodes| {
            let views = build_views(nodes, &live, &slot_map, t);
            for mv in plan(&views) {
                // Slots only grow, so a stream's live slot on a node is
                // its last one there.
                let src_slot = slot_map[mv.from]
                    .iter()
                    .rposition(|&g| g == mv.global)
                    .expect("planned streams live on their source node");
                let Some(handoff) = nodes[pos(mv.from)].sim_mut().retire_stream(src_slot) else {
                    continue;
                };
                let new_slot = nodes[pos(mv.to)].sim_mut().inject_stream(t, handoff);
                debug_assert_eq!(new_slot, slot_map[mv.to].len());
                slot_map[mv.to].push(mv.global);
                migrations.push(MigrationRecord {
                    at: t,
                    stream: mv.global,
                    from: mv.from,
                    to: mv.to,
                });
            }
        });

        let disks = self.template.shape.total_disks();
        let mut runs = runs.into_iter();
        let mut outcomes = Vec::with_capacity(self.nodes);
        for (k, spec) in specs.into_iter().enumerate() {
            outcomes.push(NodeOutcome {
                node: k,
                assigned_streams: node_ids[k].len(),
                health: NodeHealth::from_faults(self.node_faults[k].as_ref(), disks),
                result: spec.as_ref().map(|_| runs.next().expect("one run per live node").result),
                spec,
            });
        }
        Ok(ClusterResult::merge(outcomes, assignment, slot_map, migrations))
    }
}

/// A cluster node on the driver: no timeline, no per-node controller.
type Node = NodeDrive<std::iter::Empty<NodeOp>, ()>;

/// Snapshots every live node's health at barrier `at` into the
/// [`NodeView`]s the rebalancer plans from; `live[i]` is `nodes[i]`'s
/// cluster index. Only live streams on degraded disks become migration
/// candidates.
fn build_views(
    nodes: &[Node],
    live: &[usize],
    slot_map: &[Vec<usize>],
    at: SimTime,
) -> Vec<NodeView> {
    let threshold = degraded_threshold();
    let mut views = Vec::new();
    for (node, &k) in nodes.iter().zip(live) {
        let sim = node.sim();
        let health = sim.health(at);
        let mut migratable = Vec::new();
        for (slot, &g) in slot_map[k].iter().enumerate() {
            if !sim.stream_live(slot) {
                continue;
            }
            let factor = health.straggler_factors[sim.stream_disk(slot)];
            if factor >= threshold {
                migratable.push(MigratableStream { global: g, factor });
            }
        }
        views.push(NodeView {
            node: k,
            live_streams: health.live_streams,
            worst_factor: health.worst_straggler_factor(),
            migratable,
        });
    }
    views
}

/// Builder for [`ClusterExperiment`].
#[derive(Debug, Clone)]
pub struct ClusterExperimentBuilder {
    spec: ClusterExperiment,
}

impl ClusterExperimentBuilder {
    /// Sets the per-node experiment template.
    pub fn template(mut self, t: Experiment) -> Self {
        self.spec.template = t;
        self
    }

    /// Sets the node count and sizes the per-node fault table to it. A
    /// count above [`driver::MAX_NODES`] sizes nothing: `validate` and
    /// `run` refuse it.
    pub fn nodes(mut self, k: usize) -> Self {
        self.spec.nodes = k;
        if driver::check_nodes(k).is_ok() {
            self.spec.node_faults.resize(k, None);
        }
        self
    }

    /// Sets the sharding policy.
    pub fn policy(mut self, p: ShardPolicy) -> Self {
        self.spec.policy = p;
        self
    }

    /// Installs a fault plan on one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is past the configured node count (call
    /// [`nodes`](Self::nodes) first).
    pub fn node_fault(mut self, node: usize, plan: FaultPlan) -> Self {
        assert!(node < self.spec.nodes, "node {node} past cluster size {}", self.spec.nodes);
        // The table is unsized only under a count `validate` refuses.
        if let Some(slot) = self.spec.node_faults.get_mut(node) {
            *slot = Some(plan);
        }
        self
    }

    /// Derives per-node seeds from a cluster base seed.
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.spec.base_seed = Some(seed);
        self
    }

    /// Overrides the fan-out worker count.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.spec.jobs = Some(jobs);
        self
    }

    /// Enables mid-run rebalancing: the nodes meet at the first
    /// `cfg.check_interval` boundary after each degradation change and
    /// migrate live streams off degraded disks.
    pub fn rebalance(mut self, cfg: RebalanceConfig) -> Self {
        self.spec.rebalance = Some(cfg);
        self
    }

    /// Finalizes the specification without running it.
    pub fn build(self) -> ClusterExperiment {
        self.spec
    }

    /// Builds and runs in one step.
    ///
    /// # Errors
    ///
    /// Returns the first specification error.
    pub fn run(self) -> Result<ClusterResult, SeqioError> {
        self.spec.run()
    }
}

/// One node's share of a cluster run.
#[derive(Debug, Clone)]
pub struct NodeOutcome {
    /// Node index `0..K`.
    pub node: usize,
    /// Streams the router assigned here.
    pub assigned_streams: usize,
    /// Health the router saw for this node.
    pub health: NodeHealth,
    /// The spec that ran (`None` when no streams were assigned and the
    /// node was skipped).
    pub spec: Option<Experiment>,
    /// The node's own result over its own realized window (`None` for
    /// skipped nodes).
    pub result: Option<RunResult>,
}

/// Merged outcome of a cluster run on the shared cluster clock.
///
/// All nodes start at `SimTime::ZERO`; the cluster's measurement window
/// is the **makespan** — the longest realized node window — and every
/// per-stream throughput is expressed over that shared window, so the
/// paper-style sum `total_throughput_mbs` equals total bytes over the
/// time the slowest node needed. A straggling node therefore drags the
/// whole cluster figure down exactly as it would a real batch of
/// clients waiting for their slowest shard.
///
/// A global stream's bytes are the exact integer sum of what it delivered
/// on every node that hosted it (one node unless it migrated), and its
/// throughput is that sum over the shared window.
#[derive(Debug, Clone)]
pub struct ClusterResult {
    /// Per-node outcomes, indexed by node.
    pub nodes: Vec<NodeOutcome>,
    /// Global stream → node map the router produced (the *initial*
    /// placement; see [`migrations`](Self::migrations) for later moves).
    pub assignment: Vec<usize>,
    /// Final local-slot → global-stream map per node: entry `[k][s]` is
    /// the global id of node `k`'s local stream `s`, including slots
    /// created by mid-run migration.
    pub node_stream_ids: Vec<Vec<usize>>,
    /// Every migration the rebalancer performed, in execution order
    /// (empty for static runs).
    pub migrations: Vec<MigrationRecord>,
    /// Per-stream throughput in MBytes/s over the cluster window, in
    /// global stream order.
    pub per_stream_mbs: Vec<f64>,
    /// The cluster window: the longest realized node window.
    pub window: SimDuration,
    /// Client response-time distribution merged across nodes.
    pub response: LatencyHistogram,
    /// Bytes delivered cluster-wide inside the measured windows.
    pub bytes_delivered: u64,
    /// Client requests completed cluster-wide.
    pub requests_completed: u64,
    /// Discrete events simulated across all node runs.
    pub events_simulated: u64,
    /// Merged metric time series (`nodeK.`-prefixed columns), when the
    /// template enabled metric sampling.
    pub metrics: Option<MetricSeries>,
    /// End-to-end session SLO percentiles, when a client front-end drove
    /// the run (see [`crate::SessionSlo`]). Always `None` for plain cluster runs:
    /// session latency is defined from arrival to network delivery, and
    /// only the client tier knows both instants.
    pub slo: Option<crate::SessionSlo>,
}

impl ClusterResult {
    /// Merges per-node outcomes into one cluster result on the shared
    /// clock: each global stream's exact bytes, summed over the nodes
    /// that hosted it, over the makespan window (see the type docs). On a
    /// 1-node cluster this is the node's own arithmetic, so its figures
    /// are bit-identical to a plain `Experiment`.
    /// `assignment` is the router's initial global-stream → node map,
    /// `node_ids` the final local-slot → global-stream map per node, and
    /// `migrations` the mid-run moves in execution order.
    ///
    /// [`ClusterExperiment::run`] calls this internally; it is public so
    /// other callers of the [`driver`](seqio_node::driver) — the
    /// open-loop client front-end — can fold their per-node results into
    /// the same aggregate surface.
    pub fn merge(
        nodes: Vec<NodeOutcome>,
        assignment: Vec<usize>,
        node_ids: Vec<Vec<usize>>,
        migrations: Vec<MigrationRecord>,
    ) -> ClusterResult {
        let window = nodes
            .iter()
            .filter_map(|n| n.result.as_ref())
            .map(|r| r.window)
            .max()
            .unwrap_or(SimDuration::ZERO);
        let mut stream_bytes = vec![0u64; assignment.len()];
        for outcome in &nodes {
            let Some(result) = &outcome.result else { continue };
            for (slot, &g) in node_ids[outcome.node].iter().enumerate() {
                stream_bytes[g] += result.per_stream_bytes[slot];
            }
        }
        let secs = window.as_secs_f64();
        let per_stream_mbs = stream_bytes
            .iter()
            .map(|&b| if secs > 0.0 { b as f64 / (1024.0 * 1024.0) / secs } else { 0.0 })
            .collect();
        let mut response = LatencyHistogram::new();
        let mut bytes = 0u64;
        let mut requests = 0u64;
        let mut events = 0u64;
        let mut parts: Vec<(String, &MetricSeries)> = Vec::new();
        for outcome in &nodes {
            let Some(result) = &outcome.result else { continue };
            response.merge(&result.response);
            bytes += result.bytes_delivered;
            requests += result.requests_completed;
            events += result.events_simulated;
            if let Some(series) = &result.metrics {
                parts.push((format!("node{}", outcome.node), series));
            }
        }
        let metrics = if parts.is_empty() {
            None
        } else {
            let labeled: Vec<(&str, &MetricSeries)> =
                parts.iter().map(|(l, s)| (l.as_str(), *s)).collect();
            Some(
                MetricSeries::merge_labeled(&labeled)
                    .expect("node series share the template's sampling interval"),
            )
        };
        ClusterResult {
            nodes,
            assignment,
            node_stream_ids: node_ids,
            migrations,
            per_stream_mbs,
            window,
            response,
            bytes_delivered: bytes,
            requests_completed: requests,
            events_simulated: events,
            metrics,
            slo: None,
        }
    }

    /// Cluster throughput: the sum of per-stream throughputs over the
    /// shared window, exactly as the paper aggregates a node.
    pub fn total_throughput_mbs(&self) -> f64 {
        self.per_stream_mbs.iter().sum()
    }

    /// One node's share of the cluster throughput, attributing each
    /// stream to the node it was *initially* assigned — a migrated
    /// stream's whole rate counts toward its original home.
    pub fn node_throughput_mbs(&self, node: usize) -> f64 {
        self.assignment
            .iter()
            .zip(&self.per_stream_mbs)
            .filter(|(&k, _)| k == node)
            .map(|(_, &mbs)| mbs)
            .sum()
    }

    /// Mean response time in milliseconds across every client request.
    pub fn mean_response_ms(&self) -> f64 {
        self.response.mean().as_millis_f64()
    }

    /// 99th-percentile response time in milliseconds cluster-wide.
    pub fn p99_response_ms(&self) -> f64 {
        self.response.quantile(0.99).map(|d| d.as_millis_f64()).unwrap_or(0.0)
    }

    /// The worst per-node mean response time in milliseconds — the
    /// tail-node view a cluster operator watches.
    pub fn max_node_mean_response_ms(&self) -> f64 {
        self.nodes
            .iter()
            .filter_map(|n| n.result.as_ref())
            .map(|r| r.mean_response_ms())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqio_node::Frontend;
    use seqio_simcore::units::KIB;

    fn quick_template() -> Experiment {
        Experiment::builder()
            .streams_per_disk(4)
            .requests_per_stream(8)
            .warmup(SimDuration::ZERO)
            .duration(SimDuration::from_secs(30))
            .build()
    }

    #[test]
    fn builder_defaults_validate() {
        let c = ClusterExperiment::builder().template(quick_template()).build();
        assert!(c.validate().is_ok());
        assert_eq!(c.total_streams(), 4);
        // The default policy deals across several nodes too, exactly as
        // the hash policy named explicitly.
        let c = ClusterExperiment::builder().template(quick_template()).nodes(2).base_seed(7);
        let default = c.clone().build();
        assert!(default.validate().is_ok());
        let named = c.policy(ShardPolicy::HashByStream).run().unwrap();
        let default = default.run().unwrap();
        assert_eq!(default.assignment, named.assignment);
        assert_eq!(default.bytes_delivered, named.bytes_delivered);
        assert_eq!(default.events_simulated, named.events_simulated);
        let bits =
            |r: &ClusterResult| r.per_stream_mbs.iter().map(|m| m.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&default), bits(&named));
    }

    #[test]
    fn invalid_specs_are_rejected() {
        // Template-level faults.
        let mut c = ClusterExperiment::builder().template(quick_template()).build();
        c.template.faults = Some(FaultPlan::new().read_errors(0, 0.01));
        assert!(c.validate().is_err());
        // Template-level stream_counts: fine on 1 node, rejected across
        // several (the router owns the layout there).
        let mut c = ClusterExperiment::builder().template(quick_template()).build();
        c.template.stream_counts = Some(vec![4]);
        assert!(c.validate().is_ok());
        let mut c = ClusterExperiment::builder()
            .template(quick_template())
            .nodes(2)
            .policy(ShardPolicy::HashByStream)
            .build();
        c.template.stream_counts = Some(vec![4]);
        assert!(c.validate().is_err());
        // Fault table length drift.
        let mut c = ClusterExperiment::builder().template(quick_template()).build();
        c.node_faults.clear();
        assert!(c.validate().is_err());
        // Node fault naming an absent disk.
        let c = ClusterExperiment::builder()
            .template(quick_template())
            .nodes(2)
            .policy(ShardPolicy::HashByStream)
            .node_fault(1, FaultPlan::new().read_errors(5, 0.01))
            .build();
        assert!(c.validate().is_err());
    }

    #[test]
    fn a_huge_node_count_is_refused_before_anything_is_sized() {
        let c = ClusterExperiment::builder()
            .template(quick_template())
            .nodes(usize::MAX)
            .policy(ShardPolicy::HashByStream)
            .node_fault(1, FaultPlan::new().read_errors(0, 0.01))
            .build();
        for err in [c.validate().err(), c.run().err()] {
            let err = err.expect("the count is refused");
            assert!(err.to_string().contains(&format!("nodes: {}", usize::MAX)), "{err}");
        }
    }

    #[test]
    fn one_node_runs_the_templates_stream_counts_verbatim() {
        let mut template = quick_template();
        template.stream_counts = Some(vec![3]);
        let result = ClusterExperiment::builder().template(template.clone()).run().unwrap();
        assert_eq!(result.per_stream_mbs.len(), 3);
        assert_eq!(result.requests_completed, 3 * 8);
        assert_eq!(result.nodes[0].spec.as_ref().unwrap().stream_counts, Some(vec![3]));
        // Across several nodes the router owns the layout.
        let err = ClusterExperiment::builder()
            .template(template)
            .nodes(2)
            .policy(ShardPolicy::HashByStream)
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("1-node cluster"));
    }

    #[test]
    fn two_node_hash_cluster_merges_both_nodes() {
        let result = ClusterExperiment::builder()
            .template(quick_template())
            .nodes(2)
            .policy(ShardPolicy::HashByStream)
            .base_seed(7)
            .jobs(2)
            .run()
            .unwrap();
        assert_eq!(result.per_stream_mbs.len(), 8);
        assert_eq!(result.assignment.len(), 8);
        assert_eq!(result.requests_completed, 8 * 8);
        assert!(result.total_throughput_mbs() > 0.0);
        assert!(result.window > SimDuration::ZERO);
        // Exact deal: four streams per node, both nodes ran.
        for n in &result.nodes {
            assert_eq!(n.assigned_streams, 4);
            assert!(n.result.is_some());
        }
        // Node shares partition the total.
        let split = result.node_throughput_mbs(0) + result.node_throughput_mbs(1);
        assert!((split - result.total_throughput_mbs()).abs() < 1e-9);
        // Per-node seeds derive from (base, node).
        for (k, n) in result.nodes.iter().enumerate() {
            assert_eq!(n.spec.as_ref().unwrap().seed, derive_seed(7, k));
        }
    }

    #[test]
    fn empty_nodes_are_skipped_without_shifting_seeds() {
        // All streams steered away from the degraded node 0.
        let plan = FaultPlan::new().straggler(0, 4.0, SimDuration::ZERO, None);
        let result = ClusterExperiment::builder()
            .template(quick_template())
            .nodes(2)
            .policy(ShardPolicy::StragglerAware)
            .node_fault(0, plan)
            .base_seed(3)
            .run()
            .unwrap();
        assert_eq!(result.nodes[0].assigned_streams, 0);
        assert!(result.nodes[0].result.is_none() && result.nodes[0].spec.is_none());
        let n1 = &result.nodes[1];
        assert_eq!(n1.assigned_streams, 8);
        assert_eq!(n1.spec.as_ref().unwrap().seed, derive_seed(3, 1));
        assert!(n1.health == NodeHealth::healthy());
        assert_eq!(result.requests_completed, 8 * 8);
    }

    /// One fault panel case: `nodes` single-disk nodes under the hash
    /// deal, each node's plan, the stop time and whether any stream
    /// should move.
    struct Case {
        name: &'static str,
        nodes: usize,
        faults: Vec<(usize, FaultPlan)>,
        stop: SimDuration,
        moves: bool,
    }

    fn ms(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    fn straggler(factor: f64, from: u64, len: Option<u64>) -> FaultPlan {
        FaultPlan::new().straggler(0, factor, ms(from), len.map(ms))
    }

    /// Twelve 48-request streams per node finish in 1.5-2.3 s healthy,
    /// under either front end, so every window opens mid-run.
    fn panel() -> Vec<Case> {
        let case =
            |name, nodes, faults, moves| Case { name, nodes, faults, stop: ms(20_000), moves };
        let overlapping = FaultPlan::new()
            .straggler(0, 1.5, ms(100), None)
            .straggler(0, 4.0, ms(200), Some(ms(400)))
            .straggler(0, 8.0, ms(300), Some(ms(200)));
        vec![
            case("onset mid-run", 2, vec![(1, straggler(8.0, 300, None))], true),
            case("onset between boundaries", 2, vec![(1, straggler(8.0, 325, None))], true),
            case("window from 0", 2, vec![(1, straggler(8.0, 0, None))], true),
            case("factor below the threshold", 2, vec![(1, straggler(1.5, 300, None))], false),
            case(
                "target recovers, source stays degraded",
                2,
                vec![(0, straggler(4.0, 0, Some(500))), (1, straggler(8.0, 200, None))],
                true,
            ),
            case(
                "every node degraded",
                2,
                vec![(0, straggler(8.0, 300, None)), (1, straggler(4.0, 300, None))],
                false,
            ),
            case("window inside one epoch", 2, vec![(1, straggler(8.0, 310, Some(20)))], false),
            case(
                "staggered onsets on three nodes",
                3,
                vec![
                    (0, straggler(8.0, 200, Some(600))),
                    (1, straggler(4.0, 410, None)),
                    (2, straggler(16.0, 600, Some(300))),
                ],
                true,
            ),
            case("a lone node", 1, vec![(0, straggler(8.0, 300, None))], false),
            case(
                "overlapping windows on one disk",
                2,
                vec![(1, overlapping), (0, straggler(3.0, 450, Some(100)))],
                true,
            ),
            Case {
                name: "onset after the stop time",
                nodes: 2,
                faults: vec![(1, straggler(8.0, 1_500, None))],
                stop: ms(1_000),
                moves: false,
            },
        ]
    }

    fn panel_cluster(case: &Case, frontend: Frontend) -> ClusterExperiment {
        let template = Experiment::builder()
            .streams_per_disk(12)
            .request_size(64 * KIB)
            .requests_per_stream(48)
            .frontend(frontend)
            .warmup(SimDuration::ZERO)
            .duration(case.stop)
            .build();
        let mut b = ClusterExperiment::builder()
            .template(template)
            .nodes(case.nodes)
            .base_seed(7)
            .rebalance(RebalanceConfig::new(ms(50)));
        for (k, plan) in &case.faults {
            b = b.node_fault(*k, plan.clone());
        }
        b.build()
    }

    /// The schedule before barriers came from the fault plans: every
    /// `check_interval` boundary up to the first one at or past the stop
    /// time, by which every node has drained.
    fn every_boundary(c: &ClusterExperiment) -> Vec<SimTime> {
        let every = c.rebalance.as_ref().expect("a rebalanced cluster").check_interval;
        let stop = SimTime::ZERO + c.template.warmup + c.template.duration;
        (1..).map(|k| SimTime::ZERO + every * k).take_while(|&b| b - every < stop).collect()
    }

    /// The migration log and every node's per-slot result.
    fn fingerprint(r: &ClusterResult) -> String {
        let per_node: Vec<_> = r
            .nodes
            .iter()
            .map(|n| {
                n.result.as_ref().map(|res| {
                    (
                        res.per_stream_bytes.clone(),
                        res.per_stream_mbs.iter().map(|m| m.to_bits()).collect::<Vec<_>>(),
                        res.window,
                        res.events_simulated,
                    )
                })
            })
            .collect();
        format!(
            "{:?} {:?} {:?} {} {} {:?}",
            r.per_stream_mbs.iter().map(|m| m.to_bits()).collect::<Vec<_>>(),
            r.node_stream_ids,
            r.migrations,
            r.requests_completed,
            r.events_simulated,
            per_node,
        )
    }

    #[test]
    fn barriers_at_degradation_changes_match_a_barrier_at_every_boundary() {
        for case in panel() {
            for frontend in [Frontend::Direct, Frontend::stream_scheduler_with_readahead(512 * KIB)]
            {
                let c = panel_cluster(&case, frontend);
                let barriers =
                    c.rebalance.as_ref().unwrap().barriers(c.node_faults.iter().flatten());
                let reference = ClusterExperiment { jobs: Some(1), ..c.clone() };
                let every = every_boundary(&c);
                assert!(barriers.len() < every.len() / 10, "{}: {barriers:?}", case.name);
                let got = c.run().unwrap();
                let want = reference.run_at(&every).unwrap();
                assert_eq!(fingerprint(&got), fingerprint(&want), "{}", case.name);
                assert_eq!(!got.migrations.is_empty(), case.moves, "{}", case.name);
                assert!(got.migrations.iter().all(|m| barriers.contains(&m.at)), "{}", case.name);
            }
        }
    }

    #[test]
    fn uneven_shares_fall_back_to_stream_counts() {
        let c = ClusterExperiment::builder().template(quick_template()).build();
        // 4 streams on 1 disk: even share, uniform layout preserved.
        let spec = c.node_spec(0, 4).unwrap();
        assert_eq!(spec.streams_per_disk, 4);
        assert!(spec.stream_counts.is_none());
        // Uneven share on an 8-disk node spreads the remainder.
        let mut c = c;
        c.template.shape = seqio_node::NodeShape::eight_disk();
        let spec = c.node_spec(0, 11).unwrap();
        assert_eq!(spec.stream_counts, Some(vec![2, 2, 2, 1, 1, 1, 1, 1]));
        assert_eq!(spec.total_streams(), 11);
        assert!(c.node_spec(0, 0).is_none());
    }
}
