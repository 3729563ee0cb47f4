//! The deterministic probe reports, one definition each.
//!
//! Each report function runs its experiment, prints the table `probe
//! <mode>` shows, checks the report's acceptance bars (the only copy of
//! them) and returns the JSON text committed under `bench_results/`.
//! `probe <mode>` writes that text, the `cluster_scaling` and
//! `ablation_faults` figures build their points on [`cluster_point`] and
//! [`fault_point`], `tests/probe_reports.rs` compares every report with
//! its committed file and `tests/cluster_scaling.rs` checks the cluster
//! report's two bars on their own points.

use std::fmt::Write as _;
use std::time::Instant;

use seqio_cluster::{
    ClusterExperiment, ClusterExperimentBuilder, ClusterResult, RebalanceConfig, ShardPolicy,
};
use seqio_node::{Experiment, FaultPlan, Frontend, NodeShape, ObsConfig, RunResult};
use seqio_scenario::{
    check_adaptive_bar, check_rescue_bar, degraded_rescue, run_matrix, MatrixScale,
};
use seqio_simcore::units::{KIB, MIB};
use seqio_simcore::SimDuration;

/// A report definition: runs the experiment, checks the bars and returns
/// the report text, or the first bar that failed.
pub type Report = fn() -> Result<String, String>;

/// Every deterministic report: its `probe` mode, its file under
/// `bench_results/` and its definition.
pub const REPORTS: [(&str, &str, Report); 5] = [
    ("cluster", "cluster_probe.json", cluster),
    ("migrate", "migrate_probe.json", migrate),
    ("faults", "fault_probe.json", faults),
    ("timeline", "timeline_probe.json", timeline),
    ("scenario", "scenario_probe.json", scenario),
];

/// Requests each stream of the cluster report's batch reads.
const CLUSTER_REQUESTS: u64 = 16;

/// One point of the cluster report: `nodes` nodes of one disk each, every
/// stream reading a 16-request batch of 64 KiB from time zero through the
/// stream scheduler at R = 512 KiB, dealt by `policy` (base seed 2026).
/// A node's window is its drain time, so the cluster window is the
/// makespan. `straggler` slows that node's disk 4x from the start.
///
/// # Panics
///
/// Panics on an invalid specification: no nodes, or a `straggler` that
/// names no node.
pub fn cluster_point(
    nodes: usize,
    streams_per_disk: usize,
    policy: ShardPolicy,
    straggler: Option<usize>,
) -> ClusterResult {
    let template = Experiment::builder()
        .streams_per_disk(streams_per_disk)
        .request_size(64 * KIB)
        .frontend(Frontend::stream_scheduler_with_readahead(512 * KIB))
        .requests_per_stream(CLUSTER_REQUESTS)
        .warmup(SimDuration::ZERO)
        .duration(SimDuration::from_secs(120))
        .build();
    let mut b =
        ClusterExperiment::builder().template(template).nodes(nodes).policy(policy).base_seed(2026);
    if let Some(k) = straggler {
        b = b.node_fault(k, FaultPlan::new().straggler(0, 4.0, SimDuration::ZERO, None));
    }
    b.run().expect("a valid cluster point")
}

/// `cluster_probe.json`: aggregate throughput and makespan of 1/2/4/8
/// healthy nodes at 100 streams per disk, and the hash-vs-straggler-aware
/// pair with a 4x straggler on node 1 of 4.
///
/// Bars: 1 -> 4 healthy nodes scale >= 3.5x ([`scaling_bar`]);
/// straggler-aware routing holds >= 1.5x hash, routes nothing to node 1
/// (hash routes something) and drains sooner ([`straggler_bar`]); every
/// run delivers its full batch.
///
/// # Errors
///
/// Returns the first bar that fails.
pub fn cluster() -> Result<String, String> {
    let spd = 100;
    let healthy =
        [1, 2, 4, 8].map(|nodes| cluster_point(nodes, spd, ShardPolicy::HashByStream, None));
    let hash = cluster_point(4, spd, ShardPolicy::HashByStream, Some(1));
    let aware = cluster_point(4, spd, ShardPolicy::StragglerAware, Some(1));
    let (one, four) = (healthy[0].total_throughput_mbs(), healthy[2].total_throughput_mbs());
    let (tp_hash, tp_aware) = (hash.total_throughput_mbs(), aware.total_throughput_mbs());
    let (scaling, ratio) = (four / one, tp_aware / tp_hash);

    println!(
        "-- cluster probe: {spd} streams/disk, {CLUSTER_REQUESTS} requests/stream, batch drain --"
    );
    let mut json = format!(
        "{{\n  \"streams_per_disk\": {spd},\n  \"requests_per_stream\": {CLUSTER_REQUESTS},\n  \
         \"healthy\": ["
    );
    for (i, r) in healthy.iter().enumerate() {
        let (nodes, mbs, ms) = (r.nodes.len(), r.total_throughput_mbs(), r.window.as_millis_f64());
        println!("  nodes={nodes}  {mbs:>8.2} MB/s aggregate  makespan {ms:.1} ms");
        let _ = write!(
            json,
            "{}\n    {{\"nodes\": {nodes}, \"aggregate_mbs\": {mbs:.4}, \"makespan_ms\": {ms:.3}}}",
            if i == 0 { "" } else { "," }
        );
    }
    println!(
        "  straggler(4x on node 1): hash {tp_hash:>7.2} MB/s  aware {tp_aware:>7.2} MB/s  \
         ratio {ratio:.2}x"
    );
    println!("  1->4 healthy scaling: {scaling:.2}x");
    let _ = write!(
        json,
        "\n  ],\n  \"scaling_1_to_4\": {scaling:.4},\n  \"straggler\": {{\
         \"factor\": 4.0, \"node\": 1, \"nodes\": 4, \
         \"hash_mbs\": {tp_hash:.4}, \"aware_mbs\": {tp_aware:.4}, \
         \"aware_over_hash\": {ratio:.4}}}\n}}\n"
    );

    for r in [&healthy[1], &healthy[3]] {
        full_batch(r, spd)?;
    }
    scaling_bar(&healthy[0], &healthy[2], spd)?;
    straggler_bar(&hash, &aware, spd)?;
    Ok(json)
}

/// Fails unless `r` completed every request of its [`cluster_point`]
/// batch at `streams_per_disk`.
fn full_batch(r: &ClusterResult, streams_per_disk: usize) -> Result<(), String> {
    let batch = (r.nodes.len() * streams_per_disk) as u64 * CLUSTER_REQUESTS;
    ensure!(
        r.requests_completed == batch,
        "a {}-node run completed {} of {batch} requests",
        r.nodes.len(),
        r.requests_completed
    );
    Ok(())
}

/// The cluster report's scale-out bar on a healthy 1-node and 4-node
/// [`cluster_point`]: both deliver their full batch and the aggregate
/// throughput scales >= 3.5x.
///
/// # Errors
///
/// Returns the first part of the bar that fails.
pub fn scaling_bar(
    one: &ClusterResult,
    four: &ClusterResult,
    streams_per_disk: usize,
) -> Result<(), String> {
    full_batch(one, streams_per_disk)?;
    full_batch(four, streams_per_disk)?;
    let (tp_one, tp_four) = (one.total_throughput_mbs(), four.total_throughput_mbs());
    let scaling = tp_four / tp_one;
    ensure!(
        scaling >= 3.5,
        "1 -> 4 healthy node scaling {scaling:.2}x below 3.5x ({tp_one:.2} -> {tp_four:.2} MB/s)"
    );
    Ok(())
}

/// The cluster report's straggler bar on the hash and straggler-aware
/// 4-node [`cluster_point`]s with a straggler on node 1: both deliver
/// their full batch, aware routing holds >= 1.5x hash, routes nothing to
/// node 1 (hash routes something) and drains sooner.
///
/// # Errors
///
/// Returns the first part of the bar that fails.
pub fn straggler_bar(
    hash: &ClusterResult,
    aware: &ClusterResult,
    streams_per_disk: usize,
) -> Result<(), String> {
    full_batch(hash, streams_per_disk)?;
    full_batch(aware, streams_per_disk)?;
    let (tp_hash, tp_aware) = (hash.total_throughput_mbs(), aware.total_throughput_mbs());
    let ratio = tp_aware / tp_hash;
    ensure!(
        ratio >= 1.5,
        "straggler-aware routing held only {ratio:.2}x of hash ({tp_aware:.2} vs {tp_hash:.2} MB/s)"
    );
    ensure!(
        hash.nodes[1].assigned_streams > 0 && aware.nodes[1].assigned_streams == 0,
        "the straggler node got {} streams under hash and {} under aware routing",
        hash.nodes[1].assigned_streams,
        aware.nodes[1].assigned_streams
    );
    ensure!(
        aware.window < hash.window,
        "steering round the straggler did not shorten the makespan ({} vs {})",
        aware.window,
        hash.window
    );
    Ok(())
}

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

/// One point of the fault report: 100 streams on one disk (seed 11)
/// through the direct path or the stream scheduler at R = 4 MiB. Disk 0
/// slows `factor` times when the measured window opens, so the warm-up
/// (stream detection, staging ramp-up) runs on healthy hardware.
pub fn fault_point(factor: f64, scheduler: bool, window: (SimDuration, SimDuration)) -> Experiment {
    fault_spec(FaultPlan::new().straggler(0, factor, window.0, None), scheduler, window)
}

/// [`fault_point`]'s operating point under any fault plan.
fn fault_spec(plan: FaultPlan, scheduler: bool, window: (SimDuration, SimDuration)) -> Experiment {
    let mut b = Experiment::builder()
        .streams_per_disk(100)
        .faults(plan)
        .warmup(window.0)
        .duration(window.1);
    if scheduler {
        b = b.frontend(Frontend::stream_scheduler_with_readahead(4 * MIB));
    }
    b.seed(11).build()
}

/// `fault_probe.json`: throughput and error/retry/timeout counters of
/// both request paths ([`fault_point`], 3 s warm-up and 3 s window) under
/// 1x to 8x stragglers and under 0.1% and 1% read-error rates.
///
/// Bars: the scheduler holds >= 2x direct at every straggler severity,
/// and the 8x straggler costs it throughput.
///
/// # Errors
///
/// Returns the first bar that fails.
pub fn faults() -> Result<String, String> {
    let secs = 3;
    let window = (SimDuration::from_secs(secs), SimDuration::from_secs(secs));
    let mut rows = Vec::new();
    for factor in [1.0, 2.0, 4.0, 8.0] {
        let runs = [false, true].map(|sched| fault_point(factor, sched, window).run());
        rows.push((format!("straggler-{factor:.0}x"), runs));
    }
    let stragglers = rows.len();
    for rate in [0.001, 0.01] {
        let plan = FaultPlan::new().read_errors(0, rate);
        let runs = [false, true].map(|sched| fault_spec(plan.clone(), sched, window).run());
        rows.push((format!("errors-{rate}"), runs));
    }

    println!("-- fault probe: {secs}s warmup + {secs}s window, 100 streams, 1 disk --");
    let mut json = format!("{{\n  \"window_secs\": {secs},\n  \"points\": [");
    for (i, (name, [direct, sched])) in rows.iter().enumerate() {
        let (d, s) = (direct.total_throughput_mbs(), sched.total_throughput_mbs());
        let errors = direct.disk_read_errors[0] + sched.disk_read_errors[0];
        let retries = direct.disk_retries[0] + sched.disk_retries[0];
        let timeouts = direct.disk_timeouts[0] + sched.disk_timeouts[0];
        println!(
            "  {name:<22} direct {d:>7.2} MB/s  scheduler {s:>7.2} MB/s  \
             errors {errors} retries {retries} timeouts {timeouts}"
        );
        let _ = write!(
            json,
            "{}\n    {{\"name\": \"{name}\", \"direct_mbs\": {d:.4}, \"scheduler_mbs\": {s:.4}, \
             \"read_errors\": {errors}, \"retries\": {retries}, \"timeouts\": {timeouts}}}",
            if i == 0 { "" } else { "," }
        );
    }
    json.push_str("\n  ]\n}\n");

    let mbs = |r: &RunResult| r.total_throughput_mbs();
    for (name, [direct, sched]) in &rows[..stragglers] {
        ensure!(
            mbs(sched) >= 2.0 * mbs(direct),
            "{name}: the scheduler held {:.2} MB/s, under 2x direct {:.2} MB/s",
            mbs(sched),
            mbs(direct)
        );
    }
    let (healthy, worst) = (mbs(&rows[0].1[1]), mbs(&rows[stragglers - 1].1[1]));
    ensure!(
        healthy > worst,
        "the 8x straggler cost the scheduler nothing: {healthy:.2} -> {worst:.2} MB/s"
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

/// `scenario_probe.json`: the scenario matrix at the quick scale, seed 11
/// — every named scenario under the direct path, the static candidate
/// panel, the over-wide reference tune and the adaptive tuner — plus the
/// degraded-rescue point, with the run's wall time.
///
/// Bars: [`check_adaptive_bar`] and [`check_rescue_bar`].
///
/// # Errors
///
/// Returns the first bar that fails, or a run error.
pub fn scenario() -> Result<String, String> {
    let scale = MatrixScale::quick();
    let seed = 11;
    let start = Instant::now();
    let rows = run_matrix(&scale, seed).map_err(|e| e.to_string())?;
    let rescue = degraded_rescue(&scale, seed).map_err(|e| e.to_string())?;
    let wall = start.elapsed().as_secs_f64();

    println!("-- scenario matrix: quick scale, seed {seed}, {wall:.2}s wall --");
    println!(
        "  {:<13} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8}",
        "scenario", "direct", "auto", "default", "wide", "adaptive", "retunes"
    );
    for r in &rows {
        let cell = |name: &str| {
            r.statics.iter().find(|s| s.name == name).expect("candidate panel is fixed").mbs
        };
        println!(
            "  {:<13} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>8}",
            r.scenario,
            r.direct_mbs,
            cell("auto"),
            cell("default"),
            r.wide_mbs,
            r.adaptive_mbs,
            r.retunes
        );
    }
    let (rescue_static, rescue_adaptive, rescue_retunes) = rescue;
    println!(
        "  degraded rescue (narrow D=4 tune): static {rescue_static:.2} MB/s -> adaptive \
         {rescue_adaptive:.2} MB/s ({rescue_retunes} retune(s))"
    );

    let mut json = format!(
        "{{\n  \"scale\": \"quick\",\n  \"seed\": {seed},\n  \"wall_secs\": {wall:.3},\n  \
         \"rows\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"scenario\": \"{}\", \"direct_mbs\": {:.4}",
            r.scenario, r.direct_mbs
        );
        for s in &r.statics {
            let _ = write!(json, ", \"{}_mbs\": {:.4}", s.name, s.mbs);
        }
        let _ = writeln!(
            json,
            ", \"wide_mbs\": {:.4}, \"adaptive_mbs\": {:.4}, \"retunes\": {}}}{}",
            r.wide_mbs,
            r.adaptive_mbs,
            r.retunes,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"degraded_rescue\": {{\"static_mbs\": {rescue_static:.4}, \
         \"adaptive_mbs\": {rescue_adaptive:.4}, \"retunes\": {rescue_retunes}}}\n}}\n"
    );

    check_adaptive_bar(&rows)?;
    check_rescue_bar(rescue)?;
    Ok(json)
}
