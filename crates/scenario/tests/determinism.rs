//! Scenario determinism: record→replay round-trips bit-for-bit, outcomes
//! are invariant under the worker count, the scenario RNG stream is
//! disjoint from every other seed derivation, and a configured-but-inert
//! adaptive tuner leaves runs bit-identical to the static tune — pinned
//! all the way down to the Figure-1 golden CSV hash.

use seqio_client::SESSION_SEED_INDEX;
use seqio_core::ServerConfig;
use seqio_node::sweep::derive_seed;
use seqio_node::{Experiment, Frontend, NodeShape, RunResult};
use seqio_scenario::{
    generate, matrix_scenario, matrix_template, AdaptiveConfig, MatrixScale, ScenarioKind,
    ScenarioParams, ScenarioRun, ScenarioTrace, SCENARIO_SEED_INDEX,
};
use seqio_simcore::SimDuration;

#[path = "../../../tests/support/fig01_golden.rs"]
mod fig01_golden;

fn scheduler_template(scale: &MatrixScale, seed: u64) -> Experiment {
    let mut t = matrix_template(scale, seed);
    t.frontend = Frontend::StreamScheduler(ServerConfig::auto_tune(1 << 30, 8));
    t
}

/// Every observable a figure could plot, plus the diagnostics (the same
/// fields the sweep determinism suite compares).
fn result_fingerprint(r: &RunResult) -> (u64, u64, Vec<u64>, Vec<u64>, u64, u64, String) {
    (
        r.bytes_delivered,
        r.requests_completed,
        r.disk_seeks.clone(),
        r.disk_ops.clone(),
        r.ctrl_wasted_bytes,
        r.ctrl_bytes_from_disks,
        format!(
            "{:?} {:?} {:?} {:?} {:?}",
            r.per_stream_mbs, r.window, r.disk_read_errors, r.disk_retries, r.disk_timeouts
        ),
    )
}

/// Recording a generated scenario to the text trace format and replaying
/// the parsed copy reproduces the original run bit-for-bit, for every
/// scenario kind — with the adaptive tuner live, so epoch retunes are
/// covered by the round trip too.
#[test]
fn record_replay_reproduces_every_scenario_bit_for_bit() {
    let scale = MatrixScale::quick();
    for kind in ScenarioKind::ALL {
        let scenario = matrix_scenario(kind, &scale, 11).unwrap();
        let mut template = scheduler_template(&scale, 11);
        template.faults = scenario.faults.clone();

        let mut original = ScenarioRun::new(template.clone(), scenario.trace.clone());
        original.adaptive = Some(AdaptiveConfig::standard());

        let text = scenario.trace.to_text();
        let reparsed = ScenarioTrace::from_text(&text).unwrap();
        assert_eq!(reparsed.to_text(), text, "{}: text form is not a fixed point", kind.name());
        let mut replay = ScenarioRun::new(template, reparsed);
        replay.adaptive = Some(AdaptiveConfig::standard());

        let a = original.run().unwrap();
        let b = replay.run().unwrap();
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "{}: replay diverged from the recorded run",
            kind.name()
        );
        for (x, y) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(result_fingerprint(x), result_fingerprint(y), "{}", kind.name());
        }
    }
}

/// A multi-node scenario sharded over one worker and over seven produces
/// identical outcomes: the worker schedule cannot leak into results.
#[test]
fn outcomes_are_invariant_under_the_worker_count() {
    let scale = MatrixScale::quick();
    let template = scheduler_template(&scale, 11);
    let params = ScenarioParams::from_template(&template, 5, scale.streams_per_disk);
    for kind in [ScenarioKind::Churn, ScenarioKind::Video, ScenarioKind::SeekRestart] {
        let scenario = generate(kind, &params, 23).unwrap();
        let fp = |jobs: usize| {
            let mut run = ScenarioRun::new(template.clone(), scenario.trace.clone());
            run.jobs = Some(jobs);
            run.base_seed = Some(7);
            run.adaptive = Some(AdaptiveConfig::standard());
            run.run().unwrap().fingerprint()
        };
        assert_eq!(fp(1), fp(7), "{}: worker count leaked into the outcome", kind.name());
    }
}

/// Regression guard in the style of the session-seed guard: the scenario
/// generator's dedicated seed index maps to a seed stream disjoint from
/// per-node seeds, rotational-phase seeds, fault seeds, and the session
/// generator's own stream.
#[test]
fn scenario_seed_stream_stays_independent() {
    for base in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX] {
        let scenario_seed = derive_seed(base, SCENARIO_SEED_INDEX);
        assert_ne!(scenario_seed, derive_seed(base, SESSION_SEED_INDEX));
        for k in 0..4096usize {
            let node_seed = derive_seed(base, k);
            assert_ne!(scenario_seed, node_seed, "collides with node {k} seed (base {base})");
            for disk in 0..64u64 {
                // The exact derivations the node simulation applies per
                // disk (see seqio-node system construction).
                let rotational = node_seed ^ (disk << 8) | 1;
                let fault = node_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (disk + 1);
                assert_ne!(scenario_seed, rotational, "collides with a rotational-phase seed");
                assert_ne!(scenario_seed, fault, "collides with a fault seed");
            }
        }
    }
}

/// A configured-but-inert adaptive tuner (every threshold unreachable)
/// run over an empty trace is bit-identical to `Experiment::run` on the
/// same static population: epoch health polling is read-only.
#[test]
fn inert_tuner_is_bit_identical_to_the_static_run() {
    let template = Experiment::builder()
        .shape(NodeShape::eight_disk())
        .streams_per_disk(3)
        .frontend(Frontend::StreamScheduler(ServerConfig::auto_tune(1 << 30, 8)))
        .warmup(SimDuration::from_millis(250))
        .duration(SimDuration::from_millis(750))
        .seed(11)
        .build();
    let static_result = template.run();

    let mut run = ScenarioRun::new(template, ScenarioTrace::new("inert-neutrality", 1));
    run.adaptive = Some(AdaptiveConfig::inert());
    let out = run.run().unwrap();
    assert!(out.retunes.is_empty(), "an inert tuner must never retune");
    assert_eq!(result_fingerprint(&static_result), result_fingerprint(&out.nodes[0]));
}

/// The scenario runner reproduces the Figure-1 golden CSV hash: driving
/// the golden subset through `ScenarioRun` (empty traces — the population
/// is the template's own static streams) renders byte-for-byte the same
/// CSV, so the runner cannot drift from `Experiment::run` semantics
/// without tripping the golden.
#[test]
fn scenario_runner_preserves_the_fig01_golden_hash() {
    let mbs: Vec<f64> = fig01_golden::points()
        .into_iter()
        .map(|template| {
            let run = ScenarioRun::new(template, ScenarioTrace::new("fig01", 1));
            run.run().unwrap().nodes[0].total_throughput_mbs()
        })
        .collect();
    let (csv, hash) = fig01_golden::render(&mbs);
    assert_eq!(
        hash,
        fig01_golden::GOLDEN,
        "scenario-runner fig01 CSV drifted from the recorded golden output:\n{csv}"
    );
}
