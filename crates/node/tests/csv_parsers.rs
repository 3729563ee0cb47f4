//! Edge-case audit of the span CSV parser, `span::spans_from_csv`, which
//! reads every span file `seqio report` and `seqio replay` accept: it must
//! handle degenerate inputs — empty files, header-only files, trailing
//! newlines, mid-file corruption — with errors, never panics, and never
//! silently dropped rows. A mutation harness then drives ten thousand
//! corrupted copies of a recorded file through the parser and the replay
//! validation.

#[path = "../../../tests/support/mutator.rs"]
mod mutator;

use std::panic::{catch_unwind, AssertUnwindSafe};

use mutator::Mutator;
use seqio_hostsched::SchedKind;
use seqio_node::span::{spans_from_csv, spans_to_csv};
use seqio_node::{run_node, Experiment, Frontend, NodeShape, ObsConfig, SpanPhase};
use seqio_simcore::units::MIB;
use seqio_simcore::{SimDuration, SimRng};

fn span_line(delivered_ns: u64) -> String {
    // stream,disk,lba,blocks,from_memory,retries,timed_out + 8 stamps
    // (enqueued first, delivered seventh, network_delivered last).
    format!("0,0,0,128,true,0,false,1000,,,,,,{delivered_ns},")
}

#[test]
fn empty_and_whitespace_files_parse_to_nothing() {
    assert_eq!(spans_from_csv("").unwrap(), vec![]);
    assert_eq!(spans_from_csv("\n\n  \n").unwrap(), vec![]);
}

#[test]
fn header_only_files_parse_to_nothing() {
    let span_header = spans_to_csv(&[]);
    assert!(span_header.starts_with("stream,"));
    assert_eq!(spans_from_csv(&span_header).unwrap(), vec![]);
    // With and without the trailing newline.
    assert_eq!(spans_from_csv(span_header.trim_end()).unwrap(), vec![]);
}

#[test]
fn trailing_newlines_do_not_add_rows() {
    let spans = spans_from_csv(&span_line(2_000)).unwrap();
    let csv = spans_to_csv(&spans);
    assert!(csv.ends_with('\n'));
    assert_eq!(spans_from_csv(&csv).unwrap().len(), 1);
    assert_eq!(spans_from_csv(csv.trim_end()).unwrap().len(), 1);
    assert_eq!(spans_from_csv(&format!("{csv}\n\n")).unwrap().len(), 1);
}

#[test]
fn field_count_mismatch_mid_file_names_the_line() {
    // Two good rows, then a truncated one: the error carries the 1-based
    // line number of the corruption.
    let good = span_line(2_000);
    let n_fields = 7 + SpanPhase::COUNT;
    let csv = format!("{good}\n{good}\n0,0,0\n");
    let err = spans_from_csv(&csv).unwrap_err();
    assert!(err.contains("line 3"), "{err}");
    assert!(err.contains(&format!("expected {n_fields} fields")), "{err}");

    // An extra field is just as corrupt as a missing one.
    let err = spans_from_csv(&format!("{good},oops")).unwrap_err();
    assert!(err.contains(&format!("expected {n_fields} fields")), "{err}");
}

#[test]
fn span_delivery_before_enqueue_is_an_error_not_a_panic() {
    // delivered (100 ns) < enqueued (1000 ns): without parser validation
    // this record would panic later in SpanRecord::total().
    let err = spans_from_csv(&span_line(100)).unwrap_err();
    assert!(err.contains("delivery precedes enqueue"), "{err}");
    // Equal stamps (zero-latency memory hit) are fine.
    let spans = spans_from_csv(&span_line(1_000)).unwrap();
    assert_eq!(spans[0].total(), seqio_simcore::SimDuration::ZERO);
}

#[test]
fn a_body_row_that_looks_like_a_header_is_not_skipped() {
    // Only line 1 may be a header; a header-ish line later is corrupt.
    let csv = spans_to_csv(&spans_from_csv(&span_line(2_000)).unwrap());
    let header = csv.lines().next().unwrap();
    let err = spans_from_csv(&format!("{csv}{header}\n")).unwrap_err();
    assert!(err.contains("line 3"), "{err}");
}

/// The node a replay mutant is validated against, and a span CSV recorded
/// on it: a short stream-scheduler run over all eight disks, so the file
/// carries several disks and streams and filled phase columns.
fn recorded_corpus() -> (Experiment, String) {
    let spec = Experiment::builder()
        .shape(NodeShape::eight_disk())
        .streams_per_disk(2)
        .requests_per_stream(3)
        .frontend(Frontend::stream_scheduler_with_readahead(MIB))
        .warmup(SimDuration::ZERO)
        .duration(SimDuration::from_secs(10))
        .seed(5)
        .build();
    let spans = spec.clone().observe(ObsConfig::new().with_spans()).run().spans.unwrap();
    assert_eq!(spans.len(), 48, "every recorded request is in the corpus");
    (spec, spans_to_csv(&spans))
}

/// The span CSV format for the shared mutator. The edge cases are zero,
/// a disk past the shape, the disk's block count, values at and past
/// `u64::MAX`, and a stream id too large to size a table.
const SPAN_CSV: Mutator = Mutator {
    alphabet: b"0123456789,,,\n-+.eE tfalsruNn",
    edges: &[
        "0",
        "8",
        "156263510",
        "18446744073709551615",
        "18446744073709551616",
        "18446744073709551487",
        "99999999999999999999999999",
        "5000000000",
    ],
    drops_lines: true,
};

/// The no-panic bar for the replay input: every mutant of a recorded
/// span file reads, parses and validates to `Ok` or a typed error — never
/// a panic — and every mutant that validates replays to completion, on
/// the direct, Linux and stream-scheduler front ends in turn. Invalid
/// UTF-8 counts as the read error `read_to_string` returns in the CLI.
#[test]
fn replay_input_mutants_never_panic() {
    const MUTANTS: u64 = 10_000;
    let (spec, csv) = recorded_corpus();
    let frontends = [
        Frontend::Direct,
        Frontend::Linux { scheduler: SchedKind::Anticipatory },
        spec.frontend.clone(),
    ];
    let mut rng = SimRng::seed_from(0x5eed_5a4e);
    let (mut not_utf8, mut parse_err, mut invalid, mut replayed) = (0u64, 0u64, 0u64, 0u64);
    let mut panics: Vec<String> = Vec::new();
    for k in 0..MUTANTS {
        let bytes = SPAN_CSV.mutant(&csv, &mut rng);
        let Ok(text) = std::str::from_utf8(&bytes) else {
            not_utf8 += 1;
            continue;
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            spans_from_csv(text).map(|spans| {
                let mut replay = spec.clone();
                replay.replay = Some(spans);
                replay.frontend = frontends[k as usize % frontends.len()].clone();
                run_node(&replay).map(|r| r.requests_completed)
            })
        }));
        match outcome {
            Ok(Err(_)) => parse_err += 1,
            Ok(Ok(Err(_))) => invalid += 1,
            Ok(Ok(Ok(_))) => replayed += 1,
            Err(_) => panics.push(text.to_string()),
        }
    }
    assert!(panics.is_empty(), "{} mutant(s) panicked; first:\n{}", panics.len(), panics[0]);
    assert_eq!(not_utf8 + parse_err + invalid + replayed, MUTANTS);
    // Each layer must see real traffic for the bar to mean anything.
    for (what, n) in
        [("parse errors", parse_err), ("validation errors", invalid), ("replays", replayed)]
    {
        assert!(n >= MUTANTS / 100, "only {n} {what} among {MUTANTS} mutants");
    }
}
