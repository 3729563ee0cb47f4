//! End-to-end and per-layer benchmark of the seqio simulator.
//!
//! ```text
//! seqio-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation builds the named workload from `--seed` (the set-up,
//! timed) and runs it, back to back for `--seconds` of host time, checking
//! every run's outputs. With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` it alternates untraced runs with a
//! traced re-drive through the layers' public functions and reports the
//! per-layer metrics. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; a failed check or a
//! bad argument exits non-zero without printing it. See `README.md`.

mod host;
mod layers;
mod migrate;
mod scenario;
mod slo;
mod sweep;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use layers::{median, Run, Sim, Trace, Workload};

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["paper-sweep", "slo-diurnal", "scenario-churn", "cluster-migrate"];

/// Fewest runs behind a median, whatever `--seconds` allows.
const MIN_RUNS: usize = 3;

/// Set-ups timed before each run. A set-up takes milliseconds, so several
/// samples per run keep its median off a few noisy moments of the host.
const SETUPS_PER_RUN: usize = 5;

/// Every per-layer metric the traced run prints: name, unit. A workload
/// that never enters a layer reports zero for it.
const PER_LAYER: [(&str, &str); 59] = [
    ("simcore.link.transfers", "count"),
    ("simcore.link.replay_s", "s"),
    ("simcore.link.peak_active", "count"),
    ("simcore.link.transfers_per_s", "1/s"),
    ("node.events", "count"),
    ("node.advance_s", "s"),
    ("node.ns_per_event", "ns"),
    ("node.build_s", "s"),
    ("node.finish_s", "s"),
    ("node.ev.arrive.count", "count"),
    ("node.ev.arrive.s", "s"),
    ("node.ev.submit_ctrl.count", "count"),
    ("node.ev.submit_ctrl.s", "s"),
    ("node.ev.ctrl_internal.count", "count"),
    ("node.ev.ctrl_internal.s", "s"),
    ("node.ev.ctrl_done.count", "count"),
    ("node.ev.ctrl_done.s", "s"),
    ("node.ev.deliver.count", "count"),
    ("node.ev.deliver.s", "s"),
    ("node.ev.gc.count", "count"),
    ("node.ev.gc.s", "s"),
    ("simcore.calendar.pushes", "count"),
    ("simcore.calendar.resizes", "count"),
    ("node.inject", "count"),
    ("node.retire", "count"),
    ("node.inject_s", "s"),
    ("node.retire_s", "s"),
    ("disk.ops", "count"),
    ("disk.seeks_per_op", "ratio"),
    ("disk.busy_frac", "ratio"),
    ("disk.timeouts", "count"),
    ("controller.bytes_from_disks", "B"),
    ("controller.wasted_bytes", "B"),
    ("controller.prefetch_useful_ratio", "ratio"),
    ("core.client_requests", "count"),
    ("core.memory_hit_ratio", "ratio"),
    ("core.streams_detected", "count"),
    ("core.admissions", "count"),
    ("core.fills_issued", "count"),
    ("core.issue_no_memory", "count"),
    ("core.streams_gced", "count"),
    ("core.degraded_rotations", "count"),
    ("cluster.migrations", "count"),
    ("cluster.lockstep_ns_per_event", "ns"),
    ("cluster.independent_ns_per_event", "ns"),
    ("cluster.merge_s", "s"),
    ("cluster.slo_s", "s"),
    ("client.sessions", "count"),
    ("client.schedule_s", "s"),
    ("scenario.ops", "count"),
    ("scenario.generate_s", "s"),
    ("scenario.text_roundtrip_s", "s"),
    ("scenario.tune_s", "s"),
    ("scenario.retunes", "count"),
    ("sweep.cpu_s", "s"),
    ("sweep.parallel_efficiency", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
    ("failed_share", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Sweep, client, cluster and scenario workers, pinned to at most the
/// host's cores.
fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    let jobs = jobs();
    Ok(match name {
        "paper-sweep" => Box::new(sweep::PaperSweep::new(seed, jobs)?),
        "slo-diurnal" => Box::new(slo::SloDiurnal::new(seed, jobs)?),
        "scenario-churn" => Box::new(scenario::ScenarioChurn::new(seed, jobs)?),
        "cluster-migrate" => Box::new(migrate::ClusterMigrate::new(seed, jobs)?),
        _ => unreachable!("workload names are checked by parse_args"),
    })
}

/// One untraced run, timed in host wall and CPU seconds.
fn timed_run(w: &dyn Workload) -> Result<(Run, f64, f64), String> {
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    let run = w.run()?;
    let wall = t0.elapsed().as_secs_f64();
    Ok((run, wall, host::cpu_seconds() - cpu0))
}

/// Every run of one seed must reproduce the first run's outputs exactly.
fn same_outputs(first: &Sim, next: &Sim) -> Result<(), String> {
    if first.digest != next.digest {
        return Err(format!(
            "simulated digest changed between runs of one seed: {:016x} then {:016x}",
            first.digest, next.digest
        ));
    }
    Ok(())
}

fn print_sim(name: &str, seed: u64, sim: &Sim) {
    println!(
        "{name} seed {seed}: digest {:016x}, {} events, {} sessions, {:.4} MB/s, \
         p50 {:.4} ms / p99.9 {:.4} ms over {} latency samples, {} of {} operations failed",
        sim.digest,
        sim.events,
        sim.sessions,
        sim.mbs,
        sim.p50_ms,
        sim.p999_ms,
        sim.latency_samples,
        sim.failed,
        sim.attempted
    );
}

/// What one invocation prints: the simulated outputs of a run (identical
/// for every run of the seed), how many runs it made, and its metrics.
struct Report {
    sim: Sim,
    runs: u64,
    metrics: BTreeMap<&'static str, (f64, &'static str)>,
}

/// Each run gets `SETUPS_PER_RUN` fresh set-ups of the workload, each
/// timed on its own, so the set-up and run medians both sample the host
/// across the whole invocation rather than one moment of it.
fn end_to_end(args: &Args) -> Result<Report, String> {
    let start = Instant::now();
    let (mut setups, mut walls, mut cpus) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<(Box<dyn Workload>, Run)> = None;
    while walls.len() < MIN_RUNS || start.elapsed().as_secs_f64() < args.seconds {
        let mut built = None;
        for _ in 0..SETUPS_PER_RUN {
            drop(built.take());
            let t0 = Instant::now();
            let w = build(&args.workload, args.seed)?;
            setups.push(t0.elapsed().as_secs_f64());
            built = Some(w);
        }
        let w = built.expect("SETUPS_PER_RUN is positive");
        let (run, wall, cpu) = timed_run(w.as_ref())?;
        walls.push(wall);
        cpus.push(cpu);
        match &first {
            Some((_, f)) => same_outputs(&f.sim, &run.sim)?,
            None => first = Some((w, run)),
        }
    }
    let (w, first) = first.expect("at least one run");
    w.verify(&first)?;
    let sim = first.sim;
    print_sim(&args.workload, args.seed, &sim);
    println!("{} runs, walls {walls:?}", walls.len());

    let runs = walls.len() as u64;
    let wall = median(&mut walls);
    let metrics = BTreeMap::from([
        ("wall_s", (wall, "s")),
        ("setup_s", (median(&mut setups), "s")),
        ("cpu_s", (median(&mut cpus), "s")),
        ("peak_rss_mib", (host::peak_rss_mib()?, "MiB")),
        ("sim_events_per_s", (sim.events as f64 / wall, "events/s")),
        ("sessions_per_s", (sim.sessions as f64 / wall, "sessions/s")),
        ("sim_mbs", (sim.mbs, "MB/s")),
        ("sim_p50_ms", (sim.p50_ms, "ms")),
        ("sim_p999_ms", (sim.p999_ms, "ms")),
    ]);
    Ok(Report { sim, runs, metrics })
}

fn per_layer(args: &Args) -> Result<Report, String> {
    let w = build(&args.workload, args.seed)?;
    let start = Instant::now();
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut coverage = Vec::new();
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut first: Option<Sim> = None;
    while first.is_none() || start.elapsed().as_secs_f64() < args.seconds {
        let (reference, wall, _) = timed_run(w.as_ref())?;
        if let Some(f) = &first {
            same_outputs(f, &reference.sim)?;
        }
        let mut tr = Trace::default();
        let t0 = Instant::now();
        let traced = w.traced(&mut tr, &reference, wall)?;
        let traced_wall = t0.elapsed().as_secs_f64();
        if traced.digest != reference.sim.digest {
            return Err(format!(
                "the traced re-drive diverged from the untraced run: digest {:016x} vs {:016x}",
                traced.digest, reference.sim.digest
            ));
        }
        untraced_walls.push(wall);
        traced_walls.push(traced_wall);
        coverage.push(tr.span_total() / traced_wall);
        for (k, v) in tr.into_values() {
            samples.entry(k).or_default().push(v);
        }
        if first.is_none() {
            w.verify(&reference)?;
            first = Some(reference.sim);
        }
    }
    let sim = first.expect("at least one traced run");
    print_sim(&args.workload, args.seed, &sim);
    println!("{} traced runs, traced walls {traced_walls:?}", traced_walls.len());

    let runs = traced_walls.len() as u64;
    let mut values: BTreeMap<String, f64> =
        samples.into_iter().map(|(k, mut v)| (k, median(&mut v))).collect();
    values
        .insert("trace.overhead_s".into(), median(&mut traced_walls) - median(&mut untraced_walls));
    values.insert("trace.coverage".into(), median(&mut coverage));
    values.insert("failed_share".into(), sim.failed as f64 / sim.attempted as f64);
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, (values.remove(name).unwrap_or(0.0), unit)))
        .collect();
    if let Some(extra) = values.keys().next() {
        return Err(format!("layer metric {extra} is missing from the per-layer catalogue"));
    }
    Ok(Report { sim, runs, metrics })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: seqio-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let report = match if args.trace { per_layer(&args) } else { end_to_end(&args) } {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let mut json = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.sim.attempted * report.runs,
        report.sim.failed * report.runs
    );
    for (i, (name, (value, unit))) in report.metrics.iter().enumerate() {
        if !value.is_finite() {
            eprintln!("error: {}: metric {name} is {value}", args.workload);
            std::process::exit(1);
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(json, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    json.push_str("}}");
    println!("{json}");
}
