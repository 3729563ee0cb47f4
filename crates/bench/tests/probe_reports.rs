//! Every deterministic probe report, regenerated in memory from its one
//! definition in `seqio_bench::reports` (acceptance bars included) and
//! compared with the committed file under `bench_results/` byte for byte.
//! The committed files are only read here; `probe <mode>` rewrites them.

use seqio_bench::reports::REPORTS;
use seqio_bench::results_dir;

/// Runs report `mode` and compares it with its committed file.
fn matches_committed(mode: &str) {
    let (_, file, report) =
        REPORTS.iter().find(|(name, ..)| *name == mode).expect("a known report");
    let fresh = report().unwrap_or_else(|bar| panic!("{file}: acceptance bar failed: {bar}"));
    let path = results_dir().join(file);
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let (old, new): (Vec<&str>, Vec<&str>) =
        (committed.split('\n').collect(), fresh.split('\n').collect());
    for (i, (o, n)) in old.iter().zip(&new).enumerate() {
        assert_eq!(
            o,
            n,
            "{file} line {} differs from the report the current build writes; if the change is \
             deliberate, rewrite it with `probe {mode}`",
            i + 1
        );
    }
    assert_eq!(old.len(), new.len(), "{file}: the current build writes a different line count");
}

#[test]
fn migrate_report_matches_the_committed_file() {
    matches_committed("migrate");
}

#[test]
fn timeline_report_matches_the_committed_file() {
    matches_committed("timeline");
}
