//! `seqio-scenario` — the scenario engine and adaptive autotuner.
//!
//! Two halves, built on the storage-node engine's stream-injection
//! surface:
//!
//! - **Scenario engine**: a replayable, deterministic [trace
//!   format](ScenarioTrace) (hand-rolled text, shared clause grammar with
//!   the CLI's `--faults` spec) plus [named generators](ScenarioKind) for
//!   video-segment streaming, backup scans, mixed sequential+random
//!   interference, stream churn and reader seek/restart. Generators
//!   materialize every operation up front from one dedicated RNG stream
//!   ([`SCENARIO_SEED_INDEX`]), so traces are bit-identical at every
//!   `SEQIO_JOBS` value and independent of all other seed streams.
//! - **Adaptive autotuning**: [`AdaptiveTuner`], an
//!   [`EpochController`](seqio_simcore::EpochController) that reads
//!   model-state [health](seqio_node::HealthSnapshot) at epoch boundaries
//!   and retunes the scheduler's `D`/`R`/`N` and degraded-rotate
//!   threshold mid-run; plus the [experiment matrix](run_matrix)
//!   comparing direct, static tunes and adaptive on every scenario.

#![warn(missing_docs)]

mod adaptive;
mod generators;
mod matrix;
mod run;
mod trace;

pub use adaptive::{AdaptiveConfig, AdaptiveTuner, RetuneAction};
pub use generators::{
    generate, Scenario, ScenarioKind, ScenarioParams, DEGRADED_FACTOR, SCENARIO_SEED_INDEX,
};
pub use matrix::{
    check_adaptive_bar, check_rescue_bar, degraded_rescue, matrix_scenario, matrix_template,
    run_matrix, run_row, static_candidates, wide_reference, MatrixRow, MatrixScale, StaticOutcome,
};
pub use run::{RetuneEvent, ScenarioOutcome, ScenarioRun};
pub use trace::{
    pattern_from_text, pattern_to_text, ScenarioTrace, TraceOp, TraceOpKind, TRACE_HEADER,
};
