//! Named scenario generators.
//!
//! Each generator materializes its whole operation schedule up front from
//! one dedicated RNG stream — `derive_seed(seed, SCENARIO_SEED_INDEX)`,
//! forked once per scenario kind — so a generated trace is a pure
//! function of `(kind, params, seed)`: bit-identical at every
//! `SEQIO_JOBS` value, and independent of the node, rotational, fault and
//! session RNG streams (the determinism suite guards both properties).

use seqio_client::{generate_sessions, ArrivalConfig};
use seqio_node::sweep::derive_seed;
use seqio_node::Experiment;
use seqio_simcore::{FaultPlan, SeqioError, SimDuration, SimRng, SimTime};
use seqio_workload::Pattern;

use crate::trace::{ScenarioTrace, TraceOp, TraceOpKind};

/// [`derive_seed`] index reserved for the scenario-generation RNG stream.
/// Node seeds use indices `0..K` and the client session stream uses
/// `SESSION_SEED_INDEX`; this index collides with neither, so scenario
/// generation can never couple to any other stream.
pub const SCENARIO_SEED_INDEX: usize = 0x5ce7_a10d;

/// The named workload shapes the scenario engine can generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// All streams sequential from `t = 0`, round-robin over disks —
    /// the paper's closed-loop baseline expressed as a trace.
    Steady,
    /// Video-segment streaming: Poisson session arrivals over a Zipf
    /// catalogue, each session a finite sequential read of its title's
    /// extent.
    Video,
    /// Steady readers plus a whole-disk backup scan starting mid-run on
    /// every disk.
    Backup,
    /// Half sequential readers, half random-access interferers.
    Mixed,
    /// Stream churn: staggered arrivals with bounded lifetimes, so the
    /// live population rises and falls.
    Churn,
    /// Readers that are retired and re-injected at a new offset twice
    /// mid-run (seek/restart, e.g. a user scrubbing through a file).
    SeekRestart,
    /// The steady population over a node whose disk 0 turns into a mild
    /// (1.8x) straggler mid-run — below the default rotate threshold, so
    /// only an adaptive tuner reacts.
    Degraded,
}

impl ScenarioKind {
    /// Every kind, in matrix order.
    pub const ALL: [ScenarioKind; 7] = [
        ScenarioKind::Steady,
        ScenarioKind::Video,
        ScenarioKind::Backup,
        ScenarioKind::Mixed,
        ScenarioKind::Churn,
        ScenarioKind::SeekRestart,
        ScenarioKind::Degraded,
    ];

    /// The scenario's stable name (also its trace `meta:name`).
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::Steady => "steady",
            ScenarioKind::Video => "video",
            ScenarioKind::Backup => "backup",
            ScenarioKind::Mixed => "mixed",
            ScenarioKind::Churn => "churn",
            ScenarioKind::SeekRestart => "seek-restart",
            ScenarioKind::Degraded => "degraded",
        }
    }

    /// Looks a kind up by [`name`](Self::name).
    pub fn from_name(s: &str) -> Option<ScenarioKind> {
        ScenarioKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Fork salt for the kind's private RNG stream (1-based so no kind
    /// shares the root stream).
    fn salt(self) -> u64 {
        1 + ScenarioKind::ALL.iter().position(|k| k == &self).expect("kind is in ALL") as u64
    }
}

/// The dimensions a generator works against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioParams {
    /// Storage nodes addressed by the trace.
    pub nodes: usize,
    /// Disks per node.
    pub disks: usize,
    /// Request size in blocks.
    pub request_blocks: u64,
    /// One disk's capacity in blocks (bounds offsets and extents).
    pub usable_blocks: u64,
    /// Run horizon (warmup + measured window).
    pub horizon: SimDuration,
    /// Workload intensity: long-lived streams per disk (arrival-driven
    /// scenarios scale their populations from this).
    pub streams_per_disk: usize,
}

impl ScenarioParams {
    /// Reads the node dimensions off an experiment template.
    pub fn from_template(t: &Experiment, nodes: usize, streams_per_disk: usize) -> ScenarioParams {
        ScenarioParams {
            nodes,
            disks: t.shape.total_disks(),
            request_blocks: t.request_blocks(),
            usable_blocks: t.shape.disk.geometry.capacity_bytes / seqio_disk::BLOCK_SIZE,
            horizon: t.warmup + t.duration,
            streams_per_disk,
        }
    }
}

/// A generated scenario: the trace plus the fault plan (if any) the
/// template must carry to reproduce it.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Which generator produced it.
    pub kind: ScenarioKind,
    /// The materialized operation schedule.
    pub trace: ScenarioTrace,
    /// Per-node fault plan the scenario assumes (only
    /// [`Degraded`](ScenarioKind::Degraded) sets one).
    pub faults: Option<FaultPlan>,
}

/// Dense per-node stream-id allocator shared by every generator.
struct Ids {
    next: Vec<usize>,
}

impl Ids {
    fn new(nodes: usize) -> Ids {
        Ids { next: vec![0; nodes] }
    }
    fn alloc(&mut self, node: usize) -> usize {
        let id = self.next[node];
        self.next[node] += 1;
        id
    }
}

/// Materializes scenario `kind` against `params`, drawing every random
/// choice from the dedicated scenario RNG stream of `seed`.
///
/// # Errors
///
/// Rejects degenerate parameters (zero nodes/disks/streams, a zero
/// horizon) and propagates session-generation errors for
/// [`Video`](ScenarioKind::Video).
pub fn generate(
    kind: ScenarioKind,
    params: &ScenarioParams,
    seed: u64,
) -> Result<Scenario, SeqioError> {
    if params.nodes == 0 || params.disks == 0 || params.streams_per_disk == 0 {
        return Err(SeqioError::Experiment(
            "scenario needs at least one node, disk and stream per disk".into(),
        ));
    }
    seqio_node::driver::check_nodes(params.nodes)?;
    if params.horizon == SimDuration::ZERO {
        return Err(SeqioError::Experiment("scenario horizon must be positive".into()));
    }
    if params.usable_blocks < 4 * params.request_blocks {
        return Err(SeqioError::Experiment(
            "disk too small for scenario offsets (need four requests of headroom)".into(),
        ));
    }
    let mut root = SimRng::seed_from(derive_seed(seed, SCENARIO_SEED_INDEX));
    // Each kind forks its own stream off the root at a kind-specific
    // salt; the root is advanced identically for every kind, so changing
    // one generator can never shift another's draws.
    let mut rng = root.fork(kind.salt());
    let mut trace = ScenarioTrace::new(kind.name(), params.nodes);
    let mut ids = Ids::new(params.nodes);
    let mut faults = None;
    match kind {
        ScenarioKind::Steady => steady(&mut trace, &mut ids, params, &mut rng),
        ScenarioKind::Video => video(&mut trace, &mut ids, params, &mut rng)?,
        ScenarioKind::Backup => backup(&mut trace, &mut ids, params, &mut rng),
        ScenarioKind::Mixed => mixed(&mut trace, &mut ids, params, &mut rng),
        ScenarioKind::Churn => churn(&mut trace, &mut ids, params, &mut rng),
        ScenarioKind::SeekRestart => seek_restart(&mut trace, &mut ids, params, &mut rng),
        ScenarioKind::Degraded => {
            steady(&mut trace, &mut ids, params, &mut rng);
            // A mild straggler on every node's disk 0 for the middle half
            // of the run: below the default rotate threshold (2.0), so a
            // static tune ignores it.
            faults = Some(FaultPlan::new().straggler(
                0,
                DEGRADED_FACTOR,
                params.horizon / 4,
                Some(params.horizon / 2),
            ));
        }
    }
    trace.sort();
    trace.validate()?;
    Ok(Scenario { kind, trace, faults })
}

/// The [`Degraded`](ScenarioKind::Degraded) scenario's straggler factor:
/// mild on purpose — below the default rotate threshold of 2.0.
pub const DEGRADED_FACTOR: f64 = 1.8;

/// A start offset with room for at least four requests before the disk
/// edge.
fn offset(params: &ScenarioParams, rng: &mut SimRng) -> u64 {
    rng.below(params.usable_blocks - 4 * params.request_blocks)
}

fn inject(trace: &mut ScenarioTrace, at: SimTime, node: usize, stream: usize, kind: TraceOpKind) {
    trace.ops.push(TraceOp { at, node, stream, kind });
}

fn steady(trace: &mut ScenarioTrace, ids: &mut Ids, p: &ScenarioParams, rng: &mut SimRng) {
    for node in 0..p.nodes {
        for disk in 0..p.disks {
            for _ in 0..p.streams_per_disk {
                let id = ids.alloc(node);
                inject(
                    trace,
                    SimTime::ZERO,
                    node,
                    id,
                    TraceOpKind::Inject {
                        disk,
                        start: offset(p, rng),
                        blocks: p.request_blocks,
                        requests: u64::MAX,
                        pattern: Pattern::Sequential,
                    },
                );
            }
        }
    }
}

fn video(
    trace: &mut ScenarioTrace,
    ids: &mut Ids,
    p: &ScenarioParams,
    rng: &mut SimRng,
) -> Result<(), SeqioError> {
    // Arrival rate sized so the expected concurrent population matches
    // the steady scenario's: sessions last requests/rate-ish, so aim for
    // ~3x streams_per_disk arrivals per disk over the horizon.
    let total = (3 * p.nodes * p.disks * p.streams_per_disk).max(1);
    let cfg = ArrivalConfig {
        rate_per_sec: total as f64 / p.horizon.as_secs_f64(),
        titles: (p.nodes * p.disks * 16).max(16),
        requests_per_session: 256,
        ..ArrivalConfig::default()
    };
    let sessions = generate_sessions(
        &cfg,
        p.nodes,
        p.disks,
        p.request_blocks,
        p.usable_blocks,
        p.horizon,
        rng.next_u64(),
    )?;
    for s in sessions {
        let id = ids.alloc(s.node);
        inject(
            trace,
            s.arrival,
            s.node,
            id,
            TraceOpKind::Inject {
                disk: s.disk,
                start: s.start,
                blocks: p.request_blocks,
                requests: s.requests,
                pattern: Pattern::Sequential,
            },
        );
    }
    Ok(())
}

fn backup(trace: &mut ScenarioTrace, ids: &mut Ids, p: &ScenarioParams, rng: &mut SimRng) {
    steady(trace, ids, p, rng);
    // One whole-disk scan per disk, entering an eighth of the way in so
    // the interference onset is visible against the steady baseline.
    let at = SimTime::ZERO + p.horizon / 8;
    for node in 0..p.nodes {
        for disk in 0..p.disks {
            let id = ids.alloc(node);
            inject(
                trace,
                at,
                node,
                id,
                TraceOpKind::Inject {
                    disk,
                    start: 0,
                    blocks: p.request_blocks,
                    requests: u64::MAX,
                    pattern: Pattern::Sequential,
                },
            );
        }
    }
}

fn mixed(trace: &mut ScenarioTrace, ids: &mut Ids, p: &ScenarioParams, rng: &mut SimRng) {
    let span = (p.usable_blocks / 4).max(p.request_blocks);
    for node in 0..p.nodes {
        for disk in 0..p.disks {
            for s in 0..p.streams_per_disk {
                let id = ids.alloc(node);
                let pattern = if s % 2 == 0 {
                    Pattern::Sequential
                } else {
                    Pattern::Random { span_blocks: span }
                };
                inject(
                    trace,
                    SimTime::ZERO,
                    node,
                    id,
                    TraceOpKind::Inject {
                        disk,
                        start: offset(p, rng).min(p.usable_blocks - span),
                        blocks: p.request_blocks,
                        requests: u64::MAX,
                        pattern,
                    },
                );
            }
        }
    }
}

fn churn(trace: &mut ScenarioTrace, ids: &mut Ids, p: &ScenarioParams, rng: &mut SimRng) {
    // Twice the steady population, arriving over the first three quarters
    // of the run with lifetimes between an eighth and a half of the
    // horizon: the live set rises and falls continuously.
    let total = 2 * p.nodes * p.disks * p.streams_per_disk;
    let h = p.horizon.as_nanos();
    for _ in 0..total {
        let node = rng.below(p.nodes as u64) as usize;
        let disk = rng.below(p.disks as u64) as usize;
        let arrival = SimTime::from_nanos(rng.below(3 * h / 4));
        let life = SimDuration::from_nanos(h / 8 + rng.below(3 * h / 8));
        let id = ids.alloc(node);
        inject(
            trace,
            arrival,
            node,
            id,
            TraceOpKind::Inject {
                disk,
                start: offset(p, rng),
                blocks: p.request_blocks,
                requests: u64::MAX,
                pattern: Pattern::Sequential,
            },
        );
        let cut = arrival + life;
        if cut < SimTime::ZERO + p.horizon {
            trace.ops.push(TraceOp { at: cut, node, stream: id, kind: TraceOpKind::Retire });
        }
    }
}

fn seek_restart(trace: &mut ScenarioTrace, ids: &mut Ids, p: &ScenarioParams, rng: &mut SimRng) {
    // Every reader scrubs twice: at each third of the horizon it is
    // retired and re-injected (as a fresh trace stream) at a new offset.
    let h = p.horizon.as_nanos();
    for node in 0..p.nodes {
        for disk in 0..p.disks {
            for _ in 0..p.streams_per_disk {
                let mut prev: Option<usize> = None;
                for seg in 0..3u64 {
                    let at = SimTime::from_nanos(seg * h / 3);
                    if let Some(old) = prev {
                        trace.ops.push(TraceOp {
                            at,
                            node,
                            stream: old,
                            kind: TraceOpKind::Retire,
                        });
                    }
                    let id = ids.alloc(node);
                    inject(
                        trace,
                        at,
                        node,
                        id,
                        TraceOpKind::Inject {
                            disk,
                            start: offset(p, rng),
                            blocks: p.request_blocks,
                            requests: u64::MAX,
                            pattern: Pattern::Sequential,
                        },
                    );
                    prev = Some(id);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ScenarioParams {
        ScenarioParams {
            nodes: 2,
            disks: 4,
            request_blocks: 128,
            usable_blocks: 1 << 24,
            horizon: SimDuration::from_secs(3),
            streams_per_disk: 3,
        }
    }

    #[test]
    fn every_kind_generates_a_valid_named_trace() {
        for kind in ScenarioKind::ALL {
            let s = generate(kind, &params(), 7).unwrap();
            assert_eq!(s.trace.name, kind.name());
            assert_eq!(s.trace.nodes, 2);
            assert!(!s.trace.ops.is_empty(), "{kind:?} generated no ops");
            s.trace.validate().unwrap();
            assert_eq!(s.faults.is_some(), kind == ScenarioKind::Degraded);
            assert_eq!(ScenarioKind::from_name(kind.name()), Some(kind));
        }
    }

    #[test]
    fn generation_is_a_pure_function_of_kind_params_seed() {
        for kind in ScenarioKind::ALL {
            let a = generate(kind, &params(), 7).unwrap();
            let b = generate(kind, &params(), 7).unwrap();
            assert_eq!(a.trace, b.trace, "{kind:?} not deterministic");
            // Every generator draws offsets (at least) from its stream,
            // so a different seed draws a different trace.
            let c = generate(kind, &params(), 8).unwrap();
            assert_ne!(a.trace, c.trace, "{kind:?} ignores the seed");
        }
    }

    #[test]
    fn traces_round_trip_through_text() {
        for kind in ScenarioKind::ALL {
            let s = generate(kind, &params(), 11).unwrap();
            let text = s.trace.to_text();
            let back = ScenarioTrace::from_text(&text).unwrap();
            assert_eq!(back, s.trace, "{kind:?} text round-trip");
        }
    }

    #[test]
    fn degenerate_parameters_are_rejected() {
        let mut p = params();
        p.streams_per_disk = 0;
        assert!(generate(ScenarioKind::Steady, &p, 1).is_err());
        let mut p = params();
        p.horizon = SimDuration::ZERO;
        assert!(generate(ScenarioKind::Steady, &p, 1).is_err());
        let mut p = params();
        p.usable_blocks = 100;
        assert!(generate(ScenarioKind::Steady, &p, 1).is_err());
    }
}
