//! End-to-end CLI coverage driving the compiled `seqio` binary: the
//! `report --slo` zero-completed-sessions report stays a clean report
//! (not NaN percentiles or a hard error), `scenario record` →
//! `scenario replay` reproduces `scenario run` exactly, and replayed
//! traces that overrun the node end cleanly instead of crashing.

use std::path::PathBuf;
use std::process::{Command, Output};

fn seqio(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_seqio")).args(args).output().expect("the seqio binary runs")
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "seqio exited with {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seqio-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A span file recorded by a plain `run` carries no network-delivered
/// stamps, so the session SLO has zero completed sessions. That is a
/// legitimate outcome and must produce a clean report — historically it
/// was a hard error, and naive percentile math would print NaNs.
#[test]
fn report_slo_with_zero_completed_sessions_is_a_clean_report() {
    let dir = scratch_dir("slo");
    let spans = dir.join("spans.csv");
    let spans = spans.to_str().unwrap();
    stdout(&seqio(&[
        "run",
        "--streams",
        "2",
        "--requests",
        "4",
        "--warmup",
        "0s",
        "--duration",
        "200ms",
        "--trace-out",
        spans,
    ]));

    let report = stdout(&seqio(&["report", "--spans", spans, "--slo"]));
    assert!(
        report.contains("no completed sessions"),
        "zero-completed SLO report missing:\n{report}"
    );
    assert!(!report.contains("NaN"), "SLO report leaked NaN percentiles:\n{report}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `scenario record` writes the trace a `scenario run` of the same kind
/// and seed would generate, and `scenario replay` of that file reproduces
/// the run's report byte-for-byte (totals, per-node lines, retunes).
#[test]
fn scenario_record_then_replay_matches_the_direct_run() {
    let dir = scratch_dir("scenario");
    let trace = dir.join("mixed.trace");
    let trace = trace.to_str().unwrap();

    let recorded = stdout(&seqio(&["scenario", "record", "--kind", "mixed", "--out", trace]));
    assert!(recorded.contains("recorded:"), "{recorded}");
    let text = std::fs::read_to_string(trace).unwrap();
    assert!(text.starts_with("# seqio scenario trace v1"), "unexpected trace header:\n{text}");

    let run = stdout(&seqio(&["scenario", "run", "--kind", "mixed", "--adaptive"]));
    let replay = stdout(&seqio(&["scenario", "replay", "--trace", trace, "--adaptive"]));
    assert_eq!(run, replay, "replaying the recorded trace diverged from the original run");
    assert!(run.contains("total:"), "{run}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Unknown scenario kinds and verbs fail with errors naming the choices.
#[test]
fn scenario_errors_name_the_valid_choices() {
    let out = seqio(&["scenario", "run", "--kind", "bogus"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("bogus") && err.contains("seek-restart"), "{err}");

    let out = seqio(&["scenario", "frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("run|record|replay"), "{err}");
}

/// Writes a one-inject scenario trace and returns its path.
fn one_inject_trace(dir: &std::path::Path, name: &str, inject: &str) -> String {
    let path = dir.join(format!("{name}.trace"));
    let text = format!("# seqio scenario trace v1\nmeta:name={name},nodes=1\ninject:{inject}\n");
    std::fs::write(&path, text).expect("write the trace");
    path.to_str().unwrap().to_string()
}

/// A replayed stream on a disk the node does not have is a typed error
/// naming the disk, not a crash.
#[test]
fn replaying_a_stream_on_a_missing_disk_is_a_clean_error() {
    let dir = scratch_dir("missing-disk");
    let inject = "at=0,node=0,stream=0,disk=99,start=0,blocks=128,requests=4,pattern=seq";
    let trace = one_inject_trace(&dir, "missing-disk", inject);
    for direct in [false, true] {
        let mut args = vec!["scenario", "replay", "--trace", &trace];
        if direct {
            args.push("--direct");
        }
        let out = seqio(&args);
        assert_eq!(out.status.code(), Some(1), "direct={direct}: expected a clean error exit");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("disk 99"), "direct={direct}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A sequential stream that runs into its disk's end finishes there, on
/// the stream scheduler and on the direct path alike.
#[test]
fn replaying_a_stream_into_its_disk_end_finishes_it() {
    let dir = scratch_dir("disk-end");
    let inject =
        "at=0,node=0,stream=0,disk=0,start=156249000,blocks=128,requests=100000,pattern=seq";
    let trace = one_inject_trace(&dir, "disk-end", inject);
    for direct in [false, true] {
        let mut args = vec!["scenario", "replay", "--trace", &trace];
        if direct {
            args.push("--direct");
        }
        let report = stdout(&seqio(&args));
        assert!(report.contains("total:"), "direct={direct}: {report}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
