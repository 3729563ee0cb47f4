//! The scenario experiment matrix: every named scenario run under the
//! direct frontend, a panel of static scheduler tunes, and the adaptive
//! tuner — the shared harness and acceptance bars behind the integration
//! tests and the `scenario_matrix` figure.

use seqio_core::ServerConfig;
use seqio_node::{Experiment, Frontend, NodeShape};
use seqio_simcore::{SeqioError, SimDuration};

use crate::adaptive::AdaptiveConfig;
use crate::generators::{generate, Scenario, ScenarioKind, ScenarioParams};
use crate::run::ScenarioRun;

const MIB: u64 = 1 << 20;
const GIB: u64 = 1 << 30;

/// How large a matrix run is. The quick scale keeps the whole 7-scenario
/// matrix inside a few seconds of wall clock for tests and CI; the full
/// scale is the `scenario_matrix` figure's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixScale {
    /// Warmup excluded from measurement.
    pub warmup: SimDuration,
    /// Measured window.
    pub duration: SimDuration,
    /// Long-lived streams per disk.
    pub streams_per_disk: usize,
}

impl MatrixScale {
    /// Test/CI scale.
    pub fn quick() -> MatrixScale {
        MatrixScale {
            warmup: SimDuration::from_millis(250),
            duration: SimDuration::from_millis(1_250),
            streams_per_disk: 4,
        }
    }

    /// The `scenario_matrix` figure's scale.
    pub fn full() -> MatrixScale {
        MatrixScale {
            warmup: SimDuration::from_secs(1),
            duration: SimDuration::from_secs(4),
            streams_per_disk: 4,
        }
    }
}

/// One static tune's throughput on a scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticOutcome {
    /// Candidate name (`auto`, `default`).
    pub name: &'static str,
    /// Aggregate throughput, MB/s.
    pub mbs: f64,
}

/// One scenario's full comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixRow {
    /// Scenario name.
    pub scenario: &'static str,
    /// Direct (no scheduler) throughput, MB/s.
    pub direct_mbs: f64,
    /// Every static scheduler tune's throughput.
    pub statics: Vec<StaticOutcome>,
    /// The over-wide reference tune's throughput, MB/s. Recorded for the
    /// report but not part of the static candidate panel: its `D = 64`
    /// dispatch set abandons the paper's few-streams-at-a-time discipline
    /// and, on scenarios it happens to win, does so for reasons (open
    /// sessions draining a huge staging pool) the `D/R/N` feedback rules
    /// cannot observe from disk health alone.
    pub wide_mbs: f64,
    /// Adaptive throughput (tuner seeded from the `auto` tune), MB/s.
    pub adaptive_mbs: f64,
    /// Retunes the adaptive tuner applied across nodes.
    pub retunes: usize,
}

impl MatrixRow {
    /// The best static candidate.
    pub fn best_static(&self) -> StaticOutcome {
        *self
            .statics
            .iter()
            .max_by(|a, b| a.mbs.total_cmp(&b.mbs))
            .expect("matrix rows carry at least one static candidate")
    }
}

/// The single-node, eight-disk template every matrix cell shares; the
/// scenario trace provides the whole stream population.
pub fn matrix_template(scale: &MatrixScale, seed: u64) -> Experiment {
    Experiment::builder()
        .shape(NodeShape::eight_disk())
        .streams_per_disk(0)
        .open_sessions(true)
        .warmup(scale.warmup)
        .duration(scale.duration)
        .seed(seed)
        .build()
}

/// The static scheduler tunes the adaptive controller is measured
/// against: the repo's two canonical named tunes. `auto` is the
/// memory-aware tuner at 1 GiB; `default` the historical hand tune
/// (`D=4`).
pub fn static_candidates() -> Vec<(&'static str, ServerConfig)> {
    vec![("auto", ServerConfig::auto_tune(GIB, 8)), ("default", ServerConfig::default_tuning())]
}

/// The deliberately over-wide reference tune recorded alongside the
/// candidate panel (see [`MatrixRow::wide_mbs`]).
pub fn wide_reference() -> ServerConfig {
    ServerConfig::memory_limited(512 * MIB, MIB, 8)
}

/// Generates scenario `kind` at the matrix scale.
///
/// # Errors
///
/// Propagates generator errors.
pub fn matrix_scenario(
    kind: ScenarioKind,
    scale: &MatrixScale,
    seed: u64,
) -> Result<Scenario, SeqioError> {
    let template = matrix_template(scale, seed);
    let params = ScenarioParams::from_template(&template, 1, scale.streams_per_disk);
    generate(kind, &params, seed)
}

fn run_cell(
    template: &Experiment,
    scenario: &Scenario,
    frontend: Frontend,
    adaptive: Option<AdaptiveConfig>,
) -> Result<(f64, usize), SeqioError> {
    let mut t = template.clone();
    t.frontend = frontend;
    t.faults = scenario.faults.clone();
    let mut run = ScenarioRun::new(t, scenario.trace.clone());
    run.adaptive = adaptive;
    let outcome = run.run()?;
    Ok((outcome.total_throughput_mbs(), outcome.retunes.len()))
}

/// Runs one scenario across the direct frontend, every static candidate
/// and the adaptive tuner.
///
/// # Errors
///
/// Propagates generation and run errors.
pub fn run_row(
    kind: ScenarioKind,
    scale: &MatrixScale,
    seed: u64,
) -> Result<MatrixRow, SeqioError> {
    let template = matrix_template(scale, seed);
    let scenario = matrix_scenario(kind, scale, seed)?;
    let (direct_mbs, _) = run_cell(&template, &scenario, Frontend::Direct, None)?;
    let mut statics = Vec::new();
    for (name, cfg) in static_candidates() {
        let (mbs, _) = run_cell(&template, &scenario, Frontend::StreamScheduler(cfg), None)?;
        statics.push(StaticOutcome { name, mbs });
    }
    let (wide_mbs, _) =
        run_cell(&template, &scenario, Frontend::StreamScheduler(wide_reference()), None)?;
    let (adaptive_mbs, retunes) = run_cell(
        &template,
        &scenario,
        Frontend::StreamScheduler(ServerConfig::auto_tune(GIB, 8)),
        Some(AdaptiveConfig::standard()),
    )?;
    Ok(MatrixRow { scenario: kind.name(), direct_mbs, statics, wide_mbs, adaptive_mbs, retunes })
}

/// Runs the whole matrix, one row per scenario kind.
///
/// # Errors
///
/// Propagates the first row error.
pub fn run_matrix(scale: &MatrixScale, seed: u64) -> Result<Vec<MatrixRow>, SeqioError> {
    ScenarioKind::ALL.iter().map(|&k| run_row(k, scale, seed)).collect()
}

/// The matrix's adaptive bar: on every row the adaptive tuner matches or
/// beats the best static candidate. A row where the tuner stayed quiet is
/// a bit-identical run of the `auto` tune, so no epsilon is needed.
///
/// # Errors
///
/// Names the first row whose adaptive run fell below the best static one.
pub fn check_adaptive_bar(rows: &[MatrixRow]) -> Result<(), String> {
    for r in rows {
        let best = r.best_static();
        if r.adaptive_mbs < best.mbs {
            return Err(format!(
                "{}: adaptive {:.2} MB/s lost to static {} {:.2} MB/s",
                r.scenario, r.adaptive_mbs, best.name, best.mbs
            ));
        }
    }
    Ok(())
}

/// The rescue bar on a [`degraded_rescue`] result: the adaptive tuner
/// retunes at least once and strictly beats the narrow static tune.
///
/// # Errors
///
/// Describes the rescue when it did not strictly win.
pub fn check_rescue_bar(rescue: (f64, f64, usize)) -> Result<(), String> {
    let (static_mbs, adaptive_mbs, retunes) = rescue;
    if adaptive_mbs > static_mbs && retunes >= 1 {
        return Ok(());
    }
    Err(format!(
        "degraded rescue did not strictly win: {static_mbs:.2} -> {adaptive_mbs:.2} MB/s with \
         {retunes} retune(s)"
    ))
}

/// The degraded-rescue demonstration: on the [`Degraded`] scenario with a
/// *narrow* static tune (`default`, `D=4` on 8 disks — dispatch slots are
/// shared across disks), the adaptive tuner's straggler rule lowers the
/// rotate threshold below the 1.8x factor and rotation stops the slow
/// disk from hoarding slots. Returns `(static_mbs, adaptive_mbs,
/// retunes)`; adaptive strictly wins.
///
/// [`Degraded`]: ScenarioKind::Degraded
///
/// # Errors
///
/// Propagates generation and run errors.
pub fn degraded_rescue(scale: &MatrixScale, seed: u64) -> Result<(f64, f64, usize), SeqioError> {
    let template = matrix_template(scale, seed);
    let scenario = matrix_scenario(ScenarioKind::Degraded, scale, seed)?;
    let narrow = Frontend::StreamScheduler(ServerConfig::default_tuning());
    let (static_mbs, _) = run_cell(&template, &scenario, narrow.clone(), None)?;
    let (adaptive_mbs, retunes) =
        run_cell(&template, &scenario, narrow, Some(AdaptiveConfig::standard()))?;
    Ok((static_mbs, adaptive_mbs, retunes))
}
