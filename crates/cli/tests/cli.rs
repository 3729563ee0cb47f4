//! End-to-end CLI coverage driving the compiled `seqio` binary: the
//! `report --slo` zero-completed-sessions report stays a clean report
//! (not NaN percentiles or a hard error), `run --trace-out` → `replay
//! --spans` completes every recorded request, `scenario record` →
//! `scenario replay` reproduces `scenario run` exactly, and replayed
//! spans and traces that do not fit the node end cleanly instead of
//! crashing, as do clock-overflowing runs, sizes that are not whole
//! blocks and hostile trace files; a healthy `cluster run --rebalance`
//! prints what the static run prints.

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

/// The `requests:` line of a run report.
fn requests_line(report: &str) -> &str {
    report.lines().find(|l| l.starts_with("requests:")).expect("report has a requests line")
}

/// `run --trace-out` then `replay --spans` of that file completes every
/// recorded request, on each front end.
#[test]
fn replaying_a_recorded_span_file_completes_every_request() {
    let dir = scratch_dir("span-replay");
    for frontend in ["direct", "stream", "linux"] {
        let spans = dir.join(format!("{frontend}.csv"));
        let spans = spans.to_str().unwrap();
        let window = ["--frontend", frontend, "--warmup", "0s", "--duration", "2s"];
        let mut run = vec!["run", "--streams", "3", "--requests", "5", "--trace-out", spans];
        run.extend(window);
        let recorded = stdout(&seqio(&run));
        assert!(recorded.contains("15 spans ->"), "{frontend}: {recorded}");
        assert!(requests_line(&recorded).contains("15 completed"), "{frontend}: {recorded}");

        let mut replay = vec!["replay", "--spans", spans];
        replay.extend(window);
        let replayed = stdout(&seqio(&replay));
        assert!(requests_line(&replayed).contains("15 completed"), "{frontend}: {replayed}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Writes a span file holding the header and `records`, returning its path.
fn span_file(dir: &std::path::Path, name: &str, records: &[&str]) -> String {
    let path = dir.join(format!("{name}.csv"));
    let mut text = seqio_node::span::spans_to_csv(&[]);
    for r in records {
        text.push_str(r);
        text.push('\n');
    }
    std::fs::write(&path, text).expect("write the span file");
    path.to_str().unwrap().to_string()
}

/// Replays `spans` and returns its stderr, asserting the clean exit 1 of a
/// typed error.
fn replay_error(spans: &str, extra: &[&str]) -> String {
    let mut args = vec!["replay", "--spans", spans];
    args.extend(extra);
    let out = seqio(&args);
    assert_eq!(out.status.code(), Some(1), "expected a clean error exit: {out:?}");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Spans recorded on the eight-disk shape name disks a single-disk node
/// does not have: a typed error naming the record, not an index panic.
#[test]
fn replaying_spans_from_a_larger_node_is_a_clean_error() {
    let dir = scratch_dir("span-shape");
    let spans = dir.join("eight.csv");
    let spans = spans.to_str().unwrap();
    stdout(&seqio(&[
        "run",
        "--shape",
        "eight",
        "--streams",
        "1",
        "--requests",
        "2",
        "--warmup",
        "0s",
        "--duration",
        "1s",
        "--trace-out",
        spans,
    ]));
    let err = replay_error(spans, &["--shape", "single"]);
    assert!(err.contains("replay record") && err.contains("but the node has 1 disk(s)"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A request past the disk's last block is a typed error, not a disk-model
/// assertion.
#[test]
fn replaying_a_span_past_the_disk_end_is_a_clean_error() {
    let dir = scratch_dir("span-lba");
    let spans = span_file(&dir, "lba", &["0,0,999999999999,128,false,0,false,1000,,,,,,2000,"]);
    let err = replay_error(&spans, &[]);
    assert!(err.contains("replay record 1") && err.contains("past its disk's end"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A zero-length request is a typed error, not a disk-model assertion.
#[test]
fn replaying_a_zero_block_span_is_a_clean_error() {
    let dir = scratch_dir("span-zero");
    let spans = span_file(&dir, "zero", &["0,0,0,0,false,0,false,1000,,,,,,2000,"]);
    let err = replay_error(&spans, &[]);
    assert!(err.contains("replay record 1") && err.contains("zero blocks"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// An arrival that cannot be represented on the simulated clock is a typed
/// error, not an overflow.
#[test]
fn replaying_a_span_enqueued_at_the_end_of_time_is_a_clean_error() {
    let dir = scratch_dir("span-late");
    let max = u64::MAX;
    let record = format!("0,0,0,128,false,0,false,{max},,,,,,{max},");
    let spans = span_file(&dir, "late", &[&record]);
    let err = replay_error(&spans, &[]);
    assert!(err.contains("replay record 1") && err.contains("too late"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A huge recorded stream id takes one per-stream slot, the same as id 0,
/// instead of sizing the per-stream tables by its value.
#[test]
fn replaying_a_huge_stream_id_uses_one_stream_slot() {
    let dir = scratch_dir("span-stream");
    let spans = span_file(
        &dir,
        "stream",
        &[
            "5000000000,0,0,128,false,0,false,1000,,,,,,2000,",
            "5000000000,0,128,128,false,0,false,5000000,,,,,,6000000,",
        ],
    );
    let report = stdout(&seqio(&["replay", "--spans", &spans, "--warmup", "0s"]));
    assert!(requests_line(&report).contains("2 completed"), "{report}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Spans (`--trace-out`, `replay --spans`) are the one per-request record,
/// so `--trace` on a node run and `--trace-in` are unknown flags: a sweep
/// handed `--trace FILE` fails instead of exiting 0 without writing it.
#[test]
fn removed_trace_flags_are_unknown() {
    for (args, flag) in [
        (&["run", "--trace", "t.csv"][..], "trace"),
        (&["sweep", "--param", "streams", "--values", "1", "--trace", "t.csv"][..], "trace"),
        (&["replay", "--trace-in", "t.csv"][..], "trace-in"),
    ] {
        let out = seqio(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag(s): {flag}")), "{args:?}: {err}");
    }
}

/// `client run` drives open-loop sessions only: the closed-loop mode and
/// the shard policy it alone read are unknown flags.
#[test]
fn client_run_refuses_the_removed_closed_loop_flags() {
    for (args, flag) in [
        (&["client", "run", "--shard", "hash"][..], "shard"),
        (&["client", "run", "--closed-loop"][..], "closed-loop"),
    ] {
        let out = seqio(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag(s): {flag}")), "{args:?}: {err}");
    }
}

/// A catalogue above `MAX_TITLES` is refused before anything is sized by
/// it: one size overflows every capacity, the other would allocate.
#[test]
fn client_run_refuses_too_many_titles() {
    for titles in ["2305843009213693952", "50000000"] {
        let args = ["client", "run", "--titles", titles, "--warmup", "0s", "--duration", "1s"];
        let err = typed_error(&args);
        assert!(err.contains(&format!("titles: {titles}")), "{args:?}: {err}");
    }
}

/// Runs `seqio` expecting the clean exit 1 of a typed error and returns
/// its stderr.
fn typed_error(args: &[&str]) -> String {
    let out = seqio(args);
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
    assert!(err.starts_with("error: "), "{args:?}: {err}");
    err
}

/// A retry backoff that doubles past the end of the simulated clock is
/// refused up front instead of wrapping the controller's retry instant.
#[test]
fn run_refuses_a_retry_delay_past_the_end_of_the_clock() {
    let err = typed_error(&[
        "run",
        "--streams",
        "2",
        "--warmup",
        "0s",
        "--duration",
        "1s",
        "--faults",
        "errors:disk=0,rate=1;retry:backoff=18446744073709551615ns,max=3",
    ]);
    assert!(err.contains("`backoff`") && err.contains("overflows"), "{err}");
    // One retry waits the backoff itself: that fits on the clock, but not
    // after the end of the window.
    let err = typed_error(&[
        "run",
        "--streams",
        "2",
        "--warmup",
        "0s",
        "--duration",
        "1s",
        "--faults",
        "errors:disk=0,rate=1;retry:backoff=18446744073709551615ns,max=1",
    ]);
    assert!(err.contains("retry delay") && err.contains("overflows"), "{err}");
}

/// A request or read-ahead size that is not whole 512-byte blocks is
/// refused, naming the value, instead of being rounded up to whole blocks
/// and counted at the rounded size. The all-dispatched preset's read-ahead
/// is checked before the node builds its server, so a zero one is refused
/// too instead of panicking there.
#[test]
fn run_refuses_sizes_that_are_not_whole_blocks() {
    let window = ["--streams", "2", "--warmup", "0s", "--duration", "1s"];
    let err = typed_error(&[&["run", "--request", "1000"][..], &window].concat());
    assert!(err.contains("request size 1000 bytes"), "{err}");
    let stream = |readahead| {
        [&["run", "--frontend", "stream", "--readahead", readahead][..], &window].concat()
    };
    let err = typed_error(&stream("1000"));
    assert!(err.contains("R = 1000 bytes"), "{err}");
    let err = typed_error(&stream("0"));
    assert!(err.contains("R > 0"), "{err}");
}

/// A measurement window that ends past the end of the simulated clock is
/// refused instead of wrapping to an instant stop.
#[test]
fn run_refuses_a_window_past_the_end_of_the_clock() {
    let err = typed_error(&[
        "run",
        "--streams",
        "1",
        "--warmup",
        "1s",
        "--duration",
        "18446744073709551615ns",
        "--requests",
        "2",
    ]);
    assert!(err.contains("`warmup` + `duration`") && err.contains("overflows"), "{err}");
}

/// A straggler window that ends past the end of the simulated clock is
/// refused for that reason, not as an empty window.
#[test]
fn run_refuses_a_straggler_window_past_the_end_of_the_clock() {
    let err = typed_error(&[
        "run",
        "--streams",
        "1",
        "--faults",
        "straggler:disk=0,factor=4,from=1s,for=18446744073709551615ns",
    ]);
    assert!(err.contains("`from` + `for`") && err.contains("overflows"), "{err}");
    assert!(!err.contains("empty"), "{err}");
}

/// Writes a correlated-trace file holding `lines` and returns its path.
fn trace_file(dir: &std::path::Path, name: &str, lines: &[&str]) -> String {
    let path = dir.join(format!("{name}.jsonl"));
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();
    path.to_str().unwrap().to_string()
}

/// One completed two-request session on `node`, delivered at
/// `delivered_ns`.
fn session_line(node: &str, delivered_ns: &str) -> String {
    let span = |lba: u64, enq: u64| {
        format!(
            "{{\"node\":{node},\"stream\":0,\"disk\":0,\"lba\":{lba},\"blocks\":128,\
             \"from_memory\":false,\"retries\":0,\"timed_out\":false,\
             \"stamps\":[{enq},null,null,null,null,null,{delivered_ns},null]}}"
        )
    };
    format!(
        "{{\"session\":0,\"arrival_ns\":0,\"title\":1,\"requests\":2,\"nodes\":[{node}],\
         \"spans\":[{},{}]}}",
        span(0, 0),
        span(128, 1)
    )
}

/// A trace line nested far deeper than the format ever nests is a typed
/// error, not a stack overflow.
#[test]
fn report_refuses_deeply_nested_trace_json() {
    let dir = scratch_dir("trace-nested");
    let trace = trace_file(&dir, "nested", &[&"[".repeat(2_000_000)]);
    let err = typed_error(&["report", "--trace", &trace]);
    assert!(err.contains("line 1") && err.contains("nesting deeper than"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--burn` over a session stamped near the end of the clock refuses the
/// tick grid the stamp would need instead of walking it, and attribution
/// over stamps at the very end of the clock saturates.
#[test]
fn report_burn_work_is_bounded_by_the_input() {
    let dir = scratch_dir("trace-late");
    let late = trace_file(&dir, "late", &[&session_line("0", "9200000000000000000")]);
    let err = typed_error(&["report", "--trace", &late, "--burn"]);
    assert!(err.contains("ticks"), "{err}");
    let end = trace_file(&dir, "end", &[&session_line("0", &u64::MAX.to_string())]);
    let report = stdout(&seqio(&["report", "--trace", &end, "--attribute", "p99"]));
    assert!(report.contains("delivered              100.00%"), "{report}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--correlate` lists the nodes a file names, however large their ids,
/// without walking every id below them.
#[test]
fn report_correlate_lists_only_the_named_nodes() {
    let dir = scratch_dir("trace-node");
    let node = (u64::MAX - 1).to_string();
    let trace = trace_file(&dir, "node", &[&session_line(&node, "2000")]);
    let report = stdout(&seqio(&["report", "--trace", &trace, "--correlate"]));
    assert!(report.contains(&format!("{node}          1          2")), "{report}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `client run --trace-out` over two nodes names every span by its global
/// session id: each `stream` in the file is one session, whose requests
/// run back to back on one disk and never exceed the session's budget.
#[test]
fn client_trace_out_names_each_session_once() {
    let dir = scratch_dir("client-spans");
    let spans = dir.join("c.csv");
    let spans = spans.to_str().unwrap();
    stdout(&seqio(&[
        "client",
        "run",
        "--nodes",
        "2",
        "--rate",
        "50",
        "--link",
        "125M",
        "--warmup",
        "0s",
        "--duration",
        "2s",
        "--base-seed",
        "7",
        "--trace-out",
        spans,
    ]));
    let csv = std::fs::read_to_string(spans).unwrap();
    let mut sessions: std::collections::BTreeMap<u64, Vec<(u64, u64, u64, u64)>> =
        Default::default();
    for line in csv.lines().skip(1) {
        let f: Vec<u64> = line.split(',').take(8).map(|v| v.parse().unwrap_or(0)).collect();
        // (enqueue, disk, lba, blocks) under the stream id.
        sessions.entry(f[0]).or_default().push((f[7], f[1], f[2], f[3]));
    }
    assert!(sessions.len() > 40, "only {} sessions recorded", sessions.len());
    for (id, mut requests) in sessions {
        assert!(requests.len() <= 4, "stream {id} holds {} requests", requests.len());
        requests.sort_unstable();
        for w in requests.windows(2) {
            assert_eq!(w[1].1, w[0].1, "stream {id} changes disk: {requests:?}");
            assert_eq!(w[1].2, w[0].2 + w[0].3, "stream {id} is not one session: {requests:?}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The two oversized node counts every command must refuse: one that
/// overflows every capacity, and one small enough to allocate, so the
/// refusal must come before anything is sized by it.
const TOO_MANY_NODES: [&str; 2] = ["18446744073709551615", "50000000"];

/// Runs `args` with each of [`TOO_MANY_NODES`] substituted for `{n}` and
/// checks the typed error names the node count.
fn refuses_too_many_nodes(args: &[&str]) {
    for n in TOO_MANY_NODES {
        let args: Vec<&str> = args.iter().map(|&a| if a == "{n}" { n } else { a }).collect();
        let err = typed_error(&args);
        assert!(err.contains(&format!("nodes: {n}")), "{args:?}: {err}");
    }
}

/// A replayed trace whose header declares more nodes than a run may drive
/// is refused before any per-node table is sized.
#[test]
fn scenario_replay_refuses_a_trace_declaring_too_many_nodes() {
    let dir = scratch_dir("too-many-nodes");
    for n in TOO_MANY_NODES {
        let path = dir.join(format!("{n}.trace"));
        std::fs::write(&path, format!("# seqio scenario trace v1\nmeta:name=x,nodes={n}\n"))
            .unwrap();
        // The replay banner goes out first; the run then refuses.
        let out = seqio(&["scenario", "replay", "--trace", path.to_str().unwrap()]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{err}");
        assert!(err.contains(&format!("error: invalid experiment: nodes: {n}")), "{err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scenario_record_refuses_too_many_nodes() {
    let dir = scratch_dir("record-too-many-nodes");
    let out = dir.join("video.trace");
    refuses_too_many_nodes(&[
        "scenario",
        "record",
        "--kind",
        "video",
        "--nodes",
        "{n}",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(!out.exists(), "a refused record writes no trace");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cluster_run_refuses_too_many_nodes() {
    refuses_too_many_nodes(&[
        "cluster",
        "run",
        "--nodes",
        "{n}",
        "--shard",
        "hash",
        "--streams",
        "1",
    ]);
}

/// With nothing degraded no migration can happen, so the nodes never
/// meet: 10 µs checks over 600 s would otherwise be 6·10^7 stops.
#[test]
fn a_healthy_rebalanced_cluster_runs_like_a_static_one() {
    let args = [
        "cluster",
        "run",
        "--nodes",
        "2",
        "--frontend",
        "stream",
        "--streams",
        "4",
        "--requests",
        "8",
        "--warmup",
        "0s",
        "--duration",
        "600s",
    ];
    let rebalanced = seqio(&[&args[..], &["--rebalance", "10us"]].concat());
    assert_eq!(stdout(&rebalanced), stdout(&seqio(&args)));
}

#[test]
fn client_run_refuses_too_many_nodes() {
    refuses_too_many_nodes(&["client", "run", "--nodes", "{n}", "--rate", "10"]);
}
