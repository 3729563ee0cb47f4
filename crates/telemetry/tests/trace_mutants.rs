//! No-panic harness for the correlated-trace input that `seqio report
//! --trace` reads: deterministic mutants of a recorded trace file go
//! through the parser, the tail attribution and the burn-rate monitor,
//! and every one must end in a result or a typed error — never a panic,
//! never a long stall.

#[path = "../../../tests/support/mutator.rs"]
mod mutator;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use mutator::Mutator;
use seqio_client::{ArrivalConfig, ClientExperiment, LinkConfig};
use seqio_cluster::SessionSlo;
use seqio_node::{Experiment, ObsConfig};
use seqio_simcore::{SimDuration, SimRng};
use seqio_telemetry::{
    correlate, monitor, traces_from_jsonl, traces_to_jsonl, BurnRateConfig, TailAttribution,
};

/// A recorded trace file: a short two-node open-loop run behind a
/// constrained link, so spans carry every stamp including the network
/// delivery.
fn recorded_corpus() -> String {
    let template = Experiment::builder()
        .warmup(SimDuration::ZERO)
        .duration(SimDuration::from_secs(2))
        .observe(ObsConfig::new().with_spans())
        .build();
    let xp = ClientExperiment::builder()
        .template(template)
        .nodes(2)
        .base_seed(29)
        .arrivals(ArrivalConfig {
            rate_per_sec: 20.0,
            titles: 16,
            requests_per_session: 2,
            ..ArrivalConfig::default()
        })
        .link(LinkConfig { capacity_bps: 20.0 * 1024.0 * 1024.0, ..LinkConfig::default() })
        .build();
    let schedule = xp.session_schedule().unwrap();
    let traces = correlate(&xp.run().unwrap(), &schedule);
    let completed = traces.iter().filter(|t| t.latency().is_some()).count();
    assert!(completed >= 20, "the corpus holds {completed} completed sessions");
    traces_to_jsonl(&traces)
}

/// The correlated-trace JSONL format for the shared mutator. The edge
/// cases are zero, small ids, an id too large to size a table, stamps far
/// past the run, values at and past `u64::MAX`, a negative, a fraction and
/// an exponent.
const TRACE_JSONL: Mutator = Mutator {
    alphabet: b"0123456789,:[]{}\"\\\n-+.eE nultrfas",
    edges: &[
        "0",
        "1",
        "7",
        "4294967296",
        "10000000000000000",
        "9200000000000000000",
        "18446744073709551614",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999999999",
        "-1",
        "0.5",
        "1e300",
    ],
    drops_lines: false,
};

/// What `seqio report --trace FILE --attribute p99 --burn` does with the
/// file, minus the printing: parse, attribute the p99 band, then monitor
/// the burn rate against the file's own p99.
fn report(text: &str) -> Result<(bool, bool), String> {
    let traces = traces_from_jsonl(text)?;
    let attributed = TailAttribution::compute(&traces, 0.99, 1.0).is_some();
    let latencies: Vec<SimDuration> = traces.iter().filter_map(|t| t.latency()).collect();
    let monitored = match SessionSlo::from_latencies(traces.len() as u64, latencies) {
        Some(slo) => {
            let cfg = BurnRateConfig::from_slo(&slo);
            monitor(&traces, &cfg, SimDuration::from_millis(100)).is_ok()
        }
        None => false,
    };
    Ok((attributed, monitored))
}

/// The no-panic bar for the trace input: 10k mutants of a recorded trace
/// file each parse, attribute and monitor to a result or a typed error,
/// with no panic, and none takes long. Invalid UTF-8 counts as the read
/// error `read_to_string` returns in the CLI.
#[test]
fn trace_input_mutants_never_panic() {
    const MUTANTS: u64 = 10_000;
    let jsonl = recorded_corpus();
    let mut rng = SimRng::seed_from(0x7ace_5eed);
    let (mut not_utf8, mut parse_err, mut parsed, mut monitored) = (0u64, 0u64, 0u64, 0u64);
    let mut unmonitored = 0u64;
    let mut panics: Vec<String> = Vec::new();
    let mut slowest = Duration::ZERO;
    for _ in 0..MUTANTS {
        let bytes = TRACE_JSONL.mutant(&jsonl, &mut rng);
        let Ok(text) = std::str::from_utf8(&bytes) else {
            not_utf8 += 1;
            continue;
        };
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| report(text)));
        slowest = slowest.max(started.elapsed());
        match outcome {
            Ok(Err(_)) => parse_err += 1,
            Ok(Ok((_, true))) => {
                parsed += 1;
                monitored += 1;
            }
            Ok(Ok((_, false))) => {
                parsed += 1;
                unmonitored += 1;
            }
            Err(_) => panics.push(text.to_string()),
        }
    }
    assert!(panics.is_empty(), "{} mutant(s) panicked; first:\n{}", panics.len(), panics[0]);
    assert_eq!(not_utf8 + parse_err + parsed, MUTANTS);
    println!(
        "{parse_err} parse errors, {monitored} monitored, {unmonitored} not monitored, \
         {not_utf8} not UTF-8; slowest mutant {slowest:?}"
    );
    // Both the parser and the analyses behind it must see real traffic.
    for (what, n) in [("parse errors", parse_err), ("monitored files", monitored)] {
        assert!(n >= MUTANTS / 100, "only {n} {what} among {MUTANTS} mutants");
    }
    assert!(slowest < Duration::from_secs(2), "one mutant took {slowest:?}");
}
