//! The deterministic probe reports that no figure runs, one definition
//! each.
//!
//! Each report function runs its experiment, prints the table `probe
//! <mode>` shows, checks the report's acceptance bars (the only copy of
//! them) and returns the JSON text committed under `bench_results/`.
//! `probe <mode>` writes that text, and `tests/probe_reports.rs` compares
//! every report with its committed file.

use std::fmt::Write as _;

use seqio_cluster::{ClusterExperiment, ClusterExperimentBuilder, RebalanceConfig, ShardPolicy};
use seqio_node::{Experiment, FaultPlan, Frontend, NodeShape, ObsConfig};
use seqio_simcore::units::{KIB, MIB};
use seqio_simcore::SimDuration;

/// A report definition: runs the experiment, checks the bars and returns
/// the report text, or the first bar that failed.
pub type Report = fn() -> Result<String, String>;

/// Every deterministic report: its `probe` mode, its file under
/// `bench_results/` and its definition.
pub const REPORTS: [(&str, &str, Report); 2] =
    [("migrate", "migrate_probe.json", migrate), ("timeline", "timeline_probe.json", timeline)];

/// `migrate_probe.json`: one of two nodes (16 streams of 16 64 KiB
/// requests each, base seed 19) develops a factor-8 straggler at 60% of
/// the healthy makespan. Static hash and straggler-aware routing ride it
/// out; the rebalanced run starts from the hash deal and migrates live
/// streams at epochs of 1/25 of the healthy makespan.
///
/// Bars: migration beats the best static routing by >= 1.3x with at least
/// one move; aware beats hash; no run loses a byte.
///
/// # Errors
///
/// Returns the first bar that fails.
pub fn migrate() -> Result<String, String> {
    let (spd, requests) = (16usize, 16u64);
    let template = Experiment::builder()
        .streams_per_disk(spd)
        .request_size(64 * KIB)
        .requests_per_stream(requests)
        .warmup(SimDuration::ZERO)
        .duration(SimDuration::from_secs(300))
        .build();
    let base = ClusterExperiment::builder().template(template).nodes(2).base_seed(19).jobs(2);
    let run = |b: ClusterExperimentBuilder| b.run().expect("a valid migrate point");

    // The onset follows the healthy makespan, so the fault lands mid-run:
    // both nodes are past half their batch when node 1's disk slows down.
    let healthy = run(base.clone().policy(ShardPolicy::HashByStream));
    let onset = SimDuration::from_millis((healthy.window.as_millis_f64() * 0.6) as u64);
    let epoch = SimDuration::from_millis(((healthy.window.as_millis_f64() / 25.0) as u64).max(1));
    let faulted = base.node_fault(1, FaultPlan::new().straggler(0, 8.0, onset, None));
    let hash = run(faulted.clone().policy(ShardPolicy::HashByStream));
    let aware = run(faulted.clone().policy(ShardPolicy::StragglerAware));
    let migrated =
        run(faulted.policy(ShardPolicy::HashByStream).rebalance(RebalanceConfig::new(epoch)));

    let (tp_hash, tp_aware, tp_mig) = (
        hash.total_throughput_mbs(),
        aware.total_throughput_mbs(),
        migrated.total_throughput_mbs(),
    );
    let win = tp_mig / tp_hash.max(tp_aware);
    println!("-- migrate probe: 2 nodes, {spd} streams/node, 8x straggler from {onset} --");
    for (name, r) in [("static hash", &hash), ("static aware", &aware)] {
        println!(
            "  {name:<16} {:>8.2} MB/s  makespan {:.1} ms",
            r.total_throughput_mbs(),
            r.window.as_millis_f64()
        );
    }
    println!(
        "  migrated         {tp_mig:>8.2} MB/s  makespan {:.1} ms  ({} move(s))",
        migrated.window.as_millis_f64(),
        migrated.migrations.len()
    );
    println!("  migration win over best static: {win:.2}x");

    let json = format!(
        "{{\n  \"streams_per_node\": {spd},\n  \"requests_per_stream\": {requests},\n  \
         \"straggler_factor\": 8.0,\n  \"onset_ms\": {:.3},\n  \"epoch_ms\": {:.3},\n  \
         \"hash_mbs\": {tp_hash:.4},\n  \"aware_mbs\": {tp_aware:.4},\n  \
         \"migrated_mbs\": {tp_mig:.4},\n  \"migrations\": {},\n  \
         \"win_over_best_static\": {win:.4}\n}}\n",
        onset.as_millis_f64(),
        epoch.as_millis_f64(),
        migrated.migrations.len()
    );

    // Every run moves the same bytes, so throughput differences are
    // makespan differences.
    let total_bytes = 2 * spd as u64 * requests * 64 * KIB;
    for (name, r) in [("hash", &hash), ("aware", &aware), ("migrated", &migrated)] {
        ensure!(
            r.bytes_delivered == total_bytes,
            "the {name} run delivered {} of {total_bytes} bytes",
            r.bytes_delivered
        );
    }
    ensure!(!migrated.migrations.is_empty(), "the straggler triggered no migration");
    ensure!(
        win >= 1.3,
        "migration win {win:.2}x below the 1.3x bar: migrated {tp_mig:.1} MB/s vs hash \
         {tp_hash:.1} / aware {tp_aware:.1}"
    );
    ensure!(
        tp_aware > tp_hash,
        "avoiding the straggler ({tp_aware:.2} MB/s) did not beat riding it out ({tp_hash:.2})"
    );
    Ok(json)
}

/// `timeline_probe.json`: the direct path and the stream scheduler (R = 1
/// MiB) on eight disks of 30 streams (seed 17, 1 s warm-up, 2 s window)
/// with the metric sampler on every 20 ms: per-disk utilization
/// timelines and the scheduler's staged-memory high-water mark.
///
/// Bar: each disk's sampled mean utilization stays within 5% of the run's
/// aggregate busy time.
///
/// # Errors
///
/// Returns the first bar that fails.
pub fn timeline() -> Result<String, String> {
    let w = SimDuration::from_secs(1);
    let d = SimDuration::from_secs(2);
    let interval = SimDuration::from_millis(20);
    let run = |sched: bool| {
        let mut b = Experiment::builder()
            .shape(NodeShape::eight_disk())
            .streams_per_disk(30)
            .warmup(w)
            .duration(d)
            .seed(17);
        if sched {
            b = b.frontend(Frontend::stream_scheduler_with_readahead(MIB));
        }
        b.build().observe(ObsConfig::new().with_metrics().sample_every(interval)).run()
    };

    println!("-- timeline probe: 8 disks, 30 streams/disk, sampled every {interval} --");
    let mut json = String::from("{\n  \"sample_interval_ms\": 20,\n  \"runs\": [");
    let run_secs = (w + d).as_secs_f64();
    for (i, (name, r)) in [("direct", run(false)), ("scheduler", run(true))].iter().enumerate() {
        let series = r.metrics.as_ref().expect("sampling enabled");
        let _ = write!(
            json,
            "{}\n    {{\"name\": \"{name}\", \"throughput_mbs\": {:.4}, \"disks\": [",
            if i == 0 { "" } else { "," },
            r.total_throughput_mbs()
        );
        let mut util_sum = 0.0;
        for (disk, busy) in r.disk_busy.iter().enumerate() {
            let col = format!("disk{disk}.busy_frac");
            let sampled = series.column_mean(&col);
            let aggregate = busy.as_secs_f64() / run_secs;
            util_sum += sampled;
            ensure!(
                (sampled - aggregate).abs() <= 0.05 * aggregate.max(0.01),
                "{name} disk {disk}: sampled utilization {sampled:.4} drifted from aggregate \
                 {aggregate:.4}"
            );
            let timeline: Vec<String> = series
                .column_by_name(&col)
                .expect("registered column")
                .iter()
                .map(|v| format!("{v:.4}"))
                .collect();
            let _ = write!(
                json,
                "{}\n      {{\"disk\": {disk}, \"mean_util\": {sampled:.4}, \
                 \"aggregate_util\": {aggregate:.4}, \"timeline\": [{}]}}",
                if disk == 0 { "" } else { "," },
                timeline.join(",")
            );
        }
        let staged_hw = series.column_max("server.staged_bytes") as u64;
        let _ = write!(json, "\n    ], \"staged_high_water_bytes\": {staged_hw}}}");
        println!(
            "  {name:<10} {:>8.2} MB/s  mean util {:.3}  staged high-water {} KiB",
            r.total_throughput_mbs(),
            util_sum / r.disk_busy.len() as f64,
            staged_hw / 1024
        );
    }
    json.push_str("\n  ]\n}\n");
    Ok(json)
}
