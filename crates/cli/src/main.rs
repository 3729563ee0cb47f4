//! `seqio` — command-line front end for the storage-node simulator.
//!
//! ```text
//! seqio run   [flags]                 # one experiment, full report
//! seqio sweep --param <p> --values a,b,c [flags]   # table over one knob
//! seqio info                          # presets and flag reference
//! ```

mod args;
mod build;
mod common;

use std::process::ExitCode;

use args::Args;
use build::{experiment_from, EXPERIMENT_FLAGS};
use common::{CommonArgs, COMMON_FLAGS};
use seqio_node::RunResult;

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let sub = argv.next().unwrap_or_else(|| "help".to_string());
    let rest: Vec<String> = argv.collect();
    let result = match sub.as_str() {
        "run" => cmd_run(rest),
        "sweep" => cmd_sweep(rest),
        "cluster" => cmd_cluster(rest),
        "client" => cmd_client(rest),
        "replay" => cmd_replay(rest),
        "report" => cmd_report(rest),
        "scenario" => cmd_scenario(rest),
        "info" | "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?} (try `seqio help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_run(rest: Vec<String>) -> Result<(), String> {
    let args = Args::parse(rest)?;
    let mut known = EXPERIMENT_FLAGS.to_vec();
    known.extend_from_slice(COMMON_FLAGS);
    let unknown = args.unknown_flags(&known);
    if !unknown.is_empty() {
        return Err(format!("unknown flag(s): {}", unknown.join(", ")));
    }
    let common = CommonArgs::from_args(&args)?;
    let template = experiment_from(&args, &common)?;
    let disks = template.shape.total_disks();
    eprintln!(
        "running: {} disk(s), {} stream(s)/disk, {}B requests, {:?} window {}+{}",
        disks,
        template.streams_per_disk,
        template.request_bytes,
        frontend_name(&template),
        template.warmup,
        template.duration
    );
    let r = seqio_node::run_node(&template).map_err(|e| e.to_string())?;
    print_report(&r, disks);
    common.write_outputs(r.spans.as_ref(), r.metrics.as_ref())?;
    Ok(())
}

/// `true` when the user asked for a recording file a tabular subcommand
/// has nowhere to put.
fn common_output_requested(args: &Args) -> bool {
    args.get("trace-out").is_some() || args.get("metrics-out").is_some()
}

fn frontend_name(spec: &seqio_node::Experiment) -> &'static str {
    match spec.frontend {
        seqio_node::Frontend::Direct => "direct",
        seqio_node::Frontend::StreamScheduler(_) => "stream",
        seqio_node::Frontend::AllDispatched { .. } => "stream(all-dispatched)",
        seqio_node::Frontend::Linux { .. } => "linux",
    }
}

fn print_report(r: &RunResult, disks: usize) {
    println!("throughput:      {:>9.2} MB/s total", r.total_throughput_mbs());
    println!("per disk:        {:>9.2} MB/s", r.per_disk_throughput_mbs(disks));
    println!(
        "response time:   mean {:.2} ms   p50 {:.2} ms   p99 {:.2} ms",
        r.mean_response_ms(),
        r.p50_response_ms(),
        r.p99_response_ms()
    );
    println!(
        "requests:        {} completed, {} MiB delivered over {}",
        r.requests_completed,
        r.bytes_delivered >> 20,
        r.window
    );
    if let Some(m) = &r.server_metrics {
        println!(
            "scheduler:       {} streams detected, {} admissions, {} fills, {} memory hits, {} direct",
            m.streams_detected, m.admissions, m.fills_issued, m.memory_hits, m.direct_requests
        );
    }
    let total_seeks: u64 = r.disk_seeks.iter().sum();
    println!("disks:           {total_seeks} seeks across {disks} disk(s)");
    let errors: u64 = r.disk_read_errors.iter().sum();
    let retries: u64 = r.disk_retries.iter().sum();
    let timeouts: u64 = r.disk_timeouts.iter().sum();
    if errors + retries + timeouts > 0 {
        println!("faults:          {errors} read errors, {retries} retries, {timeouts} timeouts");
    }
}

/// `--nodes K` (default 1), refused above [`seqio_node::driver::MAX_NODES`]
/// before anything is sized by it.
fn nodes_flag(args: &Args) -> Result<usize, String> {
    let nodes = usize::try_from(args.u64_or("nodes", 1)?).unwrap_or(usize::MAX);
    seqio_node::driver::check_nodes(nodes)?;
    Ok(nodes)
}

/// `seqio cluster run --nodes K --shard POLICY [--faults SPEC
/// --fault-node I] [experiment flags]` — a multi-node cluster run: the
/// experiment flags describe each node's template, `--faults` (if given)
/// lands on `--fault-node` only, and the router shards the global stream
/// population across the nodes.
fn cmd_cluster(rest: Vec<String>) -> Result<(), String> {
    let mut rest = rest.into_iter();
    match rest.next().as_deref() {
        Some("run") => {}
        other => {
            return Err(format!(
                "cluster: expected `cluster run [flags]`, got {:?}",
                other.unwrap_or("nothing")
            ))
        }
    }
    let args = Args::parse(rest)?;
    let mut known = EXPERIMENT_FLAGS.to_vec();
    known.extend_from_slice(COMMON_FLAGS);
    known.extend_from_slice(&["nodes", "shard", "fault-node", "base-seed", "rebalance"]);
    let unknown = args.unknown_flags(&known);
    if !unknown.is_empty() {
        return Err(format!("unknown flag(s): {}", unknown.join(", ")));
    }
    let common = CommonArgs::from_args(&args)?;
    if common.trace_out.is_some() {
        return Err("cluster runs do not support per-request trace output yet".into());
    }

    let mut template = experiment_from(&args, &common)?;
    // `experiment_from` installs --faults on the template; the cluster
    // layer wants them on one node instead.
    let plan = template.faults.take();
    let nodes = nodes_flag(&args)?;
    let policy = seqio_cluster::ShardPolicy::parse(args.get("shard").unwrap_or("hash"))
        .map_err(|e| format!("--shard: {e}"))?;
    let fault_node = args.u64_or("fault-node", 0)? as usize;
    if fault_node >= nodes.max(1) {
        return Err(format!("--fault-node: node {fault_node} past cluster size {nodes}"));
    }

    let disks = template.shape.total_disks();
    let mut b =
        seqio_cluster::ClusterExperiment::builder().template(template).nodes(nodes).policy(policy);
    if let Some(plan) = plan {
        b = b.node_fault(fault_node, plan);
    }
    if let Some(seed) = args.get("base-seed") {
        let s: u64 = seed.parse().map_err(|_| format!("--base-seed: bad integer {seed:?}"))?;
        b = b.base_seed(s);
    }
    if let Some(j) = common.jobs {
        b = b.jobs(j);
    }
    if let Some(interval) = args.get("rebalance") {
        let d = seqio_simcore::parse_duration(interval).map_err(|e| format!("--rebalance: {e}"))?;
        b = b.rebalance(seqio_cluster::RebalanceConfig::new(d));
    }
    let cluster = b.build();
    cluster.validate().map_err(|e| e.to_string())?;
    eprintln!(
        "cluster: {} node(s) x {} disk(s), {} global stream(s), {} routing{}",
        nodes,
        disks,
        cluster.total_streams(),
        policy.name(),
        if cluster.rebalance.is_some() { ", mid-run rebalancing" } else { "" }
    );
    let c = cluster.run().map_err(|e| e.to_string())?;

    println!("{:>6} {:>9} {:>12} {:>10} {:>10}", "node", "streams", "MB/s", "mean ms", "window");
    for n in &c.nodes {
        match &n.result {
            Some(r) => println!(
                "{:>6} {:>9} {:>12.2} {:>10.2} {:>10}",
                n.node,
                n.assigned_streams,
                c.node_throughput_mbs(n.node),
                r.mean_response_ms(),
                r.window
            ),
            None => println!("{:>6} {:>9} {:>12} {:>10} {:>10}", n.node, 0, "-", "-", "skipped"),
        }
    }
    println!("throughput:      {:>9.2} MB/s aggregate over {}", c.total_throughput_mbs(), c.window);
    println!(
        "response time:   mean {:.2} ms   p99 {:.2} ms   worst node mean {:.2} ms",
        c.mean_response_ms(),
        c.p99_response_ms(),
        c.max_node_mean_response_ms()
    );
    println!(
        "requests:        {} completed, {} MiB delivered",
        c.requests_completed,
        c.bytes_delivered >> 20
    );
    if !c.migrations.is_empty() {
        println!("migrations:      {} stream move(s):", c.migrations.len());
        for m in &c.migrations {
            println!("    t={} stream {} node {} -> {}", m.at, m.stream, m.from, m.to);
        }
    }
    common.write_outputs(None, c.metrics.as_ref())?;
    Ok(())
}

/// `seqio client run [--nodes K] [--rate R --titles N --zipf S ...]
/// [experiment flags]` — an open-loop client/network run: sessions arrive
/// at `--rate` per second (optionally bursty or diurnal), pick Zipf-
/// popular titles, stream them from the cluster described by the
/// experiment flags, and receive their bytes across a shared `--link`.
/// Reports end-to-end session SLO percentiles.
fn cmd_client(rest: Vec<String>) -> Result<(), String> {
    let mut rest = rest.into_iter();
    match rest.next().as_deref() {
        Some("run") => {}
        other => {
            return Err(format!(
                "client: expected `client run [flags]`, got {:?}",
                other.unwrap_or("nothing")
            ))
        }
    }
    let args = Args::parse(rest)?;
    let mut known = EXPERIMENT_FLAGS.to_vec();
    known.extend_from_slice(COMMON_FLAGS);
    known.extend_from_slice(&[
        "nodes",
        "base-seed",
        "rate",
        "titles",
        "zipf",
        "session-requests",
        "lifetime",
        "link",
        "burst",
        "diurnal",
        "correlate-out",
    ]);
    let unknown = args.unknown_flags(&known);
    if !unknown.is_empty() {
        return Err(format!("unknown flag(s): {}", unknown.join(", ")));
    }
    let common = CommonArgs::from_args(&args)?;

    let mut template = experiment_from(&args, &common)?;
    if args.get("correlate-out").is_some() {
        // Correlation joins on request spans: force span recording on
        // even when no --trace-out file was asked for.
        let obs = template.obs.take().unwrap_or_else(seqio_node::ObsConfig::new);
        template.obs = Some(obs.with_spans());
    }
    let nodes = nodes_flag(&args)?;

    let modulation = match (args.get("burst"), args.get("diurnal")) {
        (Some(_), Some(_)) => return Err("--burst and --diurnal are mutually exclusive".into()),
        (Some(spec), None) => {
            let p: Vec<&str> = spec.split(',').collect();
            let [period, duty, on_factor] = p[..] else {
                return Err(format!("--burst: expected PERIOD,DUTY,FACTOR, got {spec:?}"));
            };
            seqio_client::RateModulation::Bursty {
                period: seqio_simcore::parse_duration(period)
                    .map_err(|e| format!("--burst: {e}"))?,
                duty: duty.parse().map_err(|_| format!("--burst: bad duty {duty:?}"))?,
                on_factor: on_factor
                    .parse()
                    .map_err(|_| format!("--burst: bad factor {on_factor:?}"))?,
            }
        }
        (None, Some(spec)) => {
            let p: Vec<&str> = spec.split(',').collect();
            let [period, depth] = p[..] else {
                return Err(format!("--diurnal: expected PERIOD,DEPTH, got {spec:?}"));
            };
            seqio_client::RateModulation::Diurnal {
                period: seqio_simcore::parse_duration(period)
                    .map_err(|e| format!("--diurnal: {e}"))?,
                depth: depth.parse().map_err(|_| format!("--diurnal: bad depth {depth:?}"))?,
            }
        }
        (None, None) => seqio_client::RateModulation::Constant,
    };
    let arrivals = seqio_client::ArrivalConfig {
        rate_per_sec: match args.get("rate") {
            Some(v) => v.parse().map_err(|_| format!("--rate: bad number {v:?}"))?,
            None => 100.0,
        },
        modulation,
        titles: args.u64_or("titles", 1024)? as usize,
        zipf_exponent: match args.get("zipf") {
            Some(v) => v.parse().map_err(|_| format!("--zipf: bad number {v:?}"))?,
            None => 0.8,
        },
        requests_per_session: args.u64_or("session-requests", 4)?,
        session_lifetime: match args.get("lifetime") {
            Some(v) => {
                Some(seqio_simcore::parse_duration(v).map_err(|e| format!("--lifetime: {e}"))?)
            }
            None => None,
        },
    };
    // Refused before the banner, and before any table is sized by it.
    arrivals.validate().map_err(|e| e.to_string())?;
    let link = match args.get("link") {
        None | Some("inf") => seqio_client::LinkConfig::default(),
        Some(v) => seqio_client::LinkConfig {
            capacity_bps: args::parse_size(v).map_err(|e| format!("--link: {e}"))? as f64,
            ..seqio_client::LinkConfig::default()
        },
    };

    let mut b = seqio_client::ClientExperiment::builder()
        .template(template)
        .nodes(nodes)
        .arrivals(arrivals.clone())
        .link(link);
    if let Some(seed) = args.get("base-seed") {
        let s: u64 = seed.parse().map_err(|_| format!("--base-seed: bad integer {seed:?}"))?;
        b = b.base_seed(s);
    }
    if let Some(j) = common.jobs {
        b = b.jobs(j);
    }
    eprintln!(
        "client: {} session(s)/s open loop over {} node(s), {} titles (zipf {}), link {}",
        arrivals.rate_per_sec,
        nodes,
        arrivals.titles,
        arrivals.zipf_exponent,
        args.get("link").unwrap_or("unconstrained"),
    );
    let xp = b.build();
    let c = xp.run().map_err(|e| e.to_string())?;

    println!("throughput:      {:>9.2} MB/s aggregate over {}", c.total_throughput_mbs(), c.window);
    println!(
        "requests:        {} completed, {} MiB delivered",
        c.requests_completed,
        c.bytes_delivered >> 20
    );
    match &c.slo {
        Some(slo) => {
            println!(
                "sessions:        {} arrived, {} completed ({:.1}% within lifetime)",
                slo.sessions,
                slo.completed,
                100.0 * slo.completion_ratio()
            );
            println!(
                "session SLO:     p50 {:.2} ms   p95 {:.2} ms   p99 {:.2} ms   p99.9 {:.2} ms",
                slo.p50_ms, slo.p95_ms, slo.p99_ms, slo.p999_ms
            );
            println!("                 mean {:.2} ms   max {:.2} ms", slo.mean_ms, slo.max_ms);
        }
        None => println!("sessions:        none completed inside the run window"),
    }
    // Each node numbers its own stream slots from 0; the file names every
    // span by its global session id, so sessions on different nodes never
    // share a `stream`.
    let merged_spans: Option<Vec<seqio_node::SpanRecord>> = common.trace_out.as_ref().map(|_| {
        c.nodes
            .iter()
            .filter_map(|n| Some((&c.node_stream_ids[n.node], n.result.as_ref()?.spans.as_ref()?)))
            .flat_map(|(ids, spans)| {
                spans.iter().map(|s| seqio_node::SpanRecord { stream: ids[s.stream], ..*s })
            })
            .collect()
    });
    common.write_outputs(merged_spans.as_ref(), c.metrics.as_ref())?;
    if let Some(path) = args.get("correlate-out") {
        // The session schedule regenerates deterministically from the
        // seeds the run used; the trace join reads arrivals and titles.
        let schedule = xp.session_schedule().map_err(|e| e.to_string())?;
        let traces = seqio_telemetry::correlate(&c, &schedule);
        let completed = traces.iter().filter(|t| t.latency().is_some()).count();
        let multi = traces.iter().filter(|t| t.node_path.len() > 1).count();
        std::fs::write(path, seqio_telemetry::traces_to_jsonl(&traces))
            .map_err(|e| format!("--correlate-out {path}: {e}"))?;
        println!(
            "traces:          {} session(s) correlated ({completed} completed, {multi} \
             multi-node) -> {path}",
            traces.len()
        );
    }
    Ok(())
}

/// `seqio replay --spans FILE [experiment flags]` — re-runs the requests
/// of a span file written by `run --trace-out` open loop: each arrives at
/// its recorded enqueue instant with its recorded stream, disk, LBA and
/// length, on the node the experiment flags describe.
fn cmd_replay(rest: Vec<String>) -> Result<(), String> {
    let args = Args::parse(rest)?;
    let mut known = EXPERIMENT_FLAGS.to_vec();
    known.extend_from_slice(COMMON_FLAGS);
    known.push("spans");
    let unknown = args.unknown_flags(&known);
    if !unknown.is_empty() {
        return Err(format!("unknown flag(s): {}", unknown.join(", ")));
    }
    if args.get("jobs").is_some() {
        return Err("--jobs: replay is a single open-loop run".into());
    }
    let common = CommonArgs::from_args(&args)?;
    let path = args.get("spans").ok_or("replay needs --spans FILE (from `run --trace-out`)")?;
    let csv = std::fs::read_to_string(path).map_err(|e| format!("--spans {path}: {e}"))?;
    let spans =
        seqio_node::span::spans_from_csv(&csv).map_err(|e| format!("--spans {path}: {e}"))?;
    // Replay stays on the direct single-node path: an open-loop replay
    // has no live streams the cluster driver could route or migrate.
    let mut spec = experiment_from(&args, &common)?;
    eprintln!("replaying {} requests from {path}", spans.len());
    spec.replay = Some(spans);
    let r = seqio_node::run_node(&spec).map_err(|e| e.to_string())?;
    print_report(&r, spec.shape.total_disks());
    common.write_outputs(r.spans.as_ref(), r.metrics.as_ref())?;
    Ok(())
}

/// `seqio report --spans FILE [--phases] [--slo]` — summarizes a span
/// file written by `run --trace-out`, optionally with a per-phase latency
/// breakdown and (for files recorded through the client front end) the
/// network-inclusive SLO percentiles. `seqio report --trace FILE
/// [--correlate] [--attribute P] [--burn]` instead works over correlated
/// session traces written by `client run --correlate-out`: cross-node
/// session summaries, tail attribution of a latency percentile band, and
/// SLO burn-rate monitoring with deterministic alert transitions.
fn cmd_report(rest: Vec<String>) -> Result<(), String> {
    let args = Args::parse(rest)?;
    let unknown =
        args.unknown_flags(&["spans", "phases", "slo", "trace", "correlate", "attribute", "burn"]);
    if !unknown.is_empty() {
        return Err(format!("unknown flag(s): {}", unknown.join(", ")));
    }
    if let Some(path) = args.get("trace") {
        if args.get("spans").is_some() {
            return Err("--spans and --trace are mutually exclusive".into());
        }
        return report_traces(&args, path);
    }
    if args.switch("correlate") || args.switch("burn") || attribute_band(&args).is_some() {
        return Err(
            "--correlate/--attribute/--burn need --trace FILE (from `client run --correlate-out`)"
                .into(),
        );
    }
    let path = args.get("spans").ok_or("report needs --spans FILE (from `run --trace-out`)")?;
    let csv = std::fs::read_to_string(path).map_err(|e| format!("--spans {path}: {e}"))?;
    let spans = seqio_node::span::spans_from_csv(&csv)?;
    if spans.is_empty() && (args.switch("phases") || args.switch("slo")) {
        return Err(format!(
            "--spans {path}: no spans to break down (the file has a header but no records)"
        ));
    }
    let breakdown = seqio_node::span::PhaseBreakdown::from_spans(&spans);
    let from_memory = spans.iter().filter(|s| s.from_memory).count();
    let faulted = spans.iter().filter(|s| s.retries > 0 || s.timed_out).count();
    println!(
        "{} spans ({} served from memory, {} touched by faults)",
        spans.len(),
        from_memory,
        faulted
    );
    if args.switch("phases") {
        println!("{:<18} {:>10} {:>10} {:>10}", "phase", "mean ms", "p50 ms", "p99 ms");
        // Enqueued marks the origin of every span; its duration is zero by
        // construction, so the table starts at classification.
        for phase in &seqio_node::SpanPhase::ALL[1..] {
            let h = &breakdown.phases[phase.index()];
            println!(
                "{:<18} {:>10.3} {:>10.3} {:>10.3}",
                phase.name(),
                h.mean().as_millis_f64(),
                h.quantile(0.5).unwrap_or_default().as_millis_f64(),
                h.quantile(0.99).unwrap_or_default().as_millis_f64()
            );
        }
        let t = &breakdown.total;
        println!(
            "{:<18} {:>10.3} {:>10.3} {:>10.3}",
            "end-to-end",
            t.mean().as_millis_f64(),
            t.quantile(0.5).unwrap_or_default().as_millis_f64(),
            t.quantile(0.99).unwrap_or_default().as_millis_f64()
        );
    } else {
        println!(
            "end-to-end:      mean {:.3} ms   p50 {:.3} ms   p99 {:.3} ms (try --phases)",
            breakdown.total.mean().as_millis_f64(),
            breakdown.total.quantile(0.5).unwrap_or_default().as_millis_f64(),
            breakdown.total.quantile(0.99).unwrap_or_default().as_millis_f64()
        );
    }
    if args.switch("slo") {
        // Network-inclusive latency exists only on spans the client tier
        // stamped: each completed session's final request.
        let latencies: Vec<_> = spans
            .iter()
            .filter(|s| s.stamp(seqio_node::SpanPhase::NetworkDelivered).is_some())
            .map(seqio_node::SpanRecord::total)
            .collect();
        // Zero completed sessions is a legitimate outcome (an overloaded
        // run, or a file recorded without a constrained link), not an
        // error — and certainly not a set of NaN percentiles. Report it
        // plainly.
        match seqio_cluster::SessionSlo::from_latencies(latencies.len() as u64, latencies) {
            Some(slo) => {
                println!(
                    "session SLO:     {} delivered sessions   p50 {:.2} ms   p95 {:.2} ms   \
                     p99 {:.2} ms   p99.9 {:.2} ms",
                    slo.completed, slo.p50_ms, slo.p95_ms, slo.p99_ms, slo.p999_ms
                );
            }
            None => println!(
                "session SLO:     no completed sessions (no span carries a network_delivered \
                 stamp; a constrained `seqio client run --link RATE` records them)"
            ),
        }
    }
    Ok(())
}

/// The percentile band `--attribute` asked for: an explicit spec, or
/// "p99" when given as a bare switch.
fn attribute_band(args: &Args) -> Option<String> {
    match args.get("attribute") {
        Some(spec) => Some(spec.to_string()),
        None if args.switch("attribute") => Some("p99".to_string()),
        None => None,
    }
}

/// The `--trace FILE` half of `seqio report`: correlated session traces.
fn report_traces(args: &Args, path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("--trace {path}: {e}"))?;
    let traces =
        seqio_telemetry::traces_from_jsonl(&text).map_err(|e| format!("--trace {path}: {e}"))?;
    let completed = traces.iter().filter(|t| t.latency().is_some()).count();
    let migrated: Vec<&seqio_telemetry::SessionTrace> =
        traces.iter().filter(|t| t.node_path.len() > 1).collect();
    let spans: usize = traces.iter().map(|t| t.spans.len()).sum();
    println!(
        "{} correlated session(s), {} span(s) ({} completed, {} crossed nodes)",
        traces.len(),
        spans,
        completed,
        migrated.len()
    );
    if args.switch("correlate") {
        // (sessions, spans) per node named in the file, counted in one pass.
        let mut per_node = std::collections::BTreeMap::<usize, (usize, usize)>::new();
        for t in &traces {
            let mut path = t.node_path.clone();
            path.sort_unstable();
            path.dedup();
            for k in path {
                per_node.entry(k).or_default().0 += 1;
            }
            for s in &t.spans {
                per_node.entry(s.node).or_default().1 += 1;
            }
        }
        println!("{:>6} {:>10} {:>10}", "node", "sessions", "spans");
        for (k, (sessions, node_spans)) in per_node {
            println!("{k:>6} {sessions:>10} {node_spans:>10}");
        }
        for t in &migrated {
            println!("session {:>6} crossed nodes {:?}", t.session, t.node_path);
        }
    }
    if let Some(spec) = attribute_band(args) {
        let lo =
            seqio_telemetry::parse_percentile(&spec).map_err(|e| format!("--attribute: {e}"))?;
        let tail = seqio_telemetry::TailAttribution::compute(&traces, lo, 1.0)
            .ok_or_else(|| format!("--attribute: no completed session in {path} to attribute"))?;
        print!("{}", tail.to_table());
    }
    if args.switch("burn") {
        // Monitor the run against its own distribution: threshold at its
        // p99 with a 1% budget, so a healthy run burns at ~1x.
        let latencies: Vec<_> = traces.iter().filter_map(|t| t.latency()).collect();
        let slo = seqio_cluster::SessionSlo::from_latencies(traces.len() as u64, latencies)
            .ok_or_else(|| format!("--burn: no completed session in {path} to monitor"))?;
        let cfg = seqio_telemetry::BurnRateConfig::from_slo(&slo);
        let report =
            seqio_telemetry::monitor(&traces, &cfg, seqio_simcore::SimDuration::from_millis(100))
                .map_err(|e| e.to_string())?;
        println!(
            "burn rate:       threshold {:.2} ms (own p99), budget {:.0}%, windows {}/{}",
            cfg.threshold.as_millis_f64(),
            cfg.target * 100.0,
            cfg.fast_window,
            cfg.slow_window
        );
        println!(
            "                 {} completed, {} violation(s), peak fast burn {:.2}x",
            report.completed, report.violations, report.peak_fast_burn
        );
        if report.alerts.is_empty() {
            println!("                 no alert transitions");
        }
        for a in &report.alerts {
            let state = match a.severity {
                Some(seqio_telemetry::AlertSeverity::Page) => "PAGE",
                Some(seqio_telemetry::AlertSeverity::Warn) => "warn",
                None => "clear",
            };
            println!("  t={} {state} (fast {:.2}x, slow {:.2}x)", a.at, a.fast_burn, a.slow_burn);
        }
    }
    Ok(())
}

/// `seqio scenario run|record|replay` — the scenario engine front end.
///
/// `run` generates a named scenario and drives it through the scenario
/// runner; `record` writes the generated trace to a text file without
/// running it; `replay` parses a recorded trace file and runs it. Record
/// followed by replay reproduces the original run bit-for-bit.
fn cmd_scenario(rest: Vec<String>) -> Result<(), String> {
    let mut rest = rest.into_iter();
    let verb = match rest.next() {
        Some(v) => v,
        None => return Err("scenario: expected `scenario run|record|replay [flags]`".into()),
    };
    let args = Args::parse(rest)?;
    let known: &[&str] =
        &["kind", "seed", "scale", "nodes", "adaptive", "direct", "jobs", "out", "trace", "faults"];
    let unknown = args.unknown_flags(known);
    if !unknown.is_empty() {
        return Err(format!("unknown flag(s): {}", unknown.join(", ")));
    }

    let seed = args.u64_or("seed", 11)?;
    let scale = match args.get("scale").unwrap_or("quick") {
        "quick" => seqio_scenario::MatrixScale::quick(),
        "full" => seqio_scenario::MatrixScale::full(),
        other => return Err(format!("--scale: expected quick|full, got {other:?}")),
    };

    match verb.as_str() {
        "run" | "record" => {
            let nodes = nodes_flag(&args)?;
            if nodes == 0 {
                return Err("--nodes: need at least one node".into());
            }
            let kinds: Vec<&str> =
                seqio_scenario::ScenarioKind::ALL.iter().map(|k| k.name()).collect();
            let kind_s = args.get("kind").ok_or_else(|| {
                format!("scenario {verb}: needs --kind; one of {}", kinds.join("|"))
            })?;
            let kind = seqio_scenario::ScenarioKind::from_name(kind_s).ok_or_else(|| {
                format!("--kind: expected one of {}, got {kind_s:?}", kinds.join("|"))
            })?;
            let template = seqio_scenario::matrix_template(&scale, seed);
            let params = seqio_scenario::ScenarioParams::from_template(
                &template,
                nodes,
                scale.streams_per_disk,
            );
            let scenario =
                seqio_scenario::generate(kind, &params, seed).map_err(|e| e.to_string())?;
            if let Some(out) = args.get("out") {
                std::fs::write(out, scenario.trace.to_text())
                    .map_err(|e| format!("--out {out}: {e}"))?;
                println!(
                    "recorded:        {} op(s) on {nodes} node(s) -> {out}",
                    scenario.trace.ops.len()
                );
            } else if verb == "record" {
                return Err("scenario record: needs --out FILE".into());
            }
            if verb == "record" {
                return Ok(());
            }
            eprintln!(
                "scenario:        {} ({} op(s), {nodes} node(s), seed {seed}, window {}+{})",
                kind.name(),
                scenario.trace.ops.len(),
                scale.warmup,
                scale.duration
            );
            run_scenario_trace(&args, template, scenario.trace, scenario.faults)
        }
        "replay" => {
            let path = args.get("trace").ok_or("scenario replay: needs --trace FILE")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("--trace {path}: {e}"))?;
            let trace = seqio_scenario::ScenarioTrace::from_text(&text)
                .map_err(|e| format!("--trace {path}: {e}"))?;
            let faults = match args.get("faults") {
                Some(spec) => Some(
                    seqio_simcore::FaultPlan::parse(spec).map_err(|e| format!("--faults: {e}"))?,
                ),
                None => None,
            };
            let template = seqio_scenario::matrix_template(&scale, seed);
            eprintln!(
                "scenario:        replay {} ({} op(s), {} node(s), seed {seed}, window {}+{})",
                trace.name,
                trace.ops.len(),
                trace.nodes,
                scale.warmup,
                scale.duration
            );
            run_scenario_trace(&args, template, trace, faults)
        }
        other => Err(format!("scenario: expected run|record|replay, got {other:?}")),
    }
}

/// Shared back half of `scenario run` and `scenario replay`: pick the
/// frontend, attach faults, drive the scenario runner and report.
fn run_scenario_trace(
    args: &Args,
    mut template: seqio_node::Experiment,
    trace: seqio_scenario::ScenarioTrace,
    faults: Option<seqio_simcore::FaultPlan>,
) -> Result<(), String> {
    if args.switch("direct") && args.switch("adaptive") {
        return Err("--direct runs without the scheduler; it cannot be --adaptive".into());
    }
    template.frontend = if args.switch("direct") {
        seqio_node::Frontend::Direct
    } else {
        seqio_node::Frontend::StreamScheduler(seqio_core::ServerConfig::auto_tune(1 << 30, 8))
    };
    template.faults = faults;
    let disks_per_node = template.shape.total_disks();
    let mut run = seqio_scenario::ScenarioRun::new(template, trace);
    if args.switch("adaptive") {
        run.adaptive = Some(seqio_scenario::AdaptiveConfig::standard());
    }
    if let Some(j) = args.get("jobs") {
        let j: usize = j.parse().map_err(|_| format!("--jobs: expected an integer, got {j:?}"))?;
        run.jobs = Some(j);
    }
    let outcome = run.run().map_err(|e| e.to_string())?;
    for (i, r) in outcome.nodes.iter().enumerate() {
        println!(
            "node {i}:          {:>9.2} MB/s   {} request(s), {} MiB over {}",
            r.total_throughput_mbs(),
            r.requests_completed,
            r.bytes_delivered >> 20,
            r.window
        );
    }
    println!(
        "total:           {:>9.2} MB/s over {} node(s), {} disk(s) each",
        outcome.total_throughput_mbs(),
        outcome.nodes.len(),
        disks_per_node
    );
    if args.switch("adaptive") {
        println!("retunes:         {}", outcome.retunes.len());
        for e in &outcome.retunes {
            println!("  node {} t={} {:?}", e.node, e.at, e.action);
        }
    }
    Ok(())
}

fn cmd_sweep(rest: Vec<String>) -> Result<(), String> {
    let args = Args::parse(rest)?;
    let mut known = EXPERIMENT_FLAGS.to_vec();
    known.extend_from_slice(COMMON_FLAGS);
    known.extend_from_slice(&["param", "values", "progress"]);
    let unknown = args.unknown_flags(&known);
    if !unknown.is_empty() {
        return Err(format!("unknown flag(s): {}", unknown.join(", ")));
    }
    if common_output_requested(&args) {
        return Err(
            "--trace-out/--metrics-out: sweeps print a table; record one point with `run`".into()
        );
    }
    let common = CommonArgs::from_args(&args)?;
    let param = args.get("param").ok_or("sweep needs --param streams|readahead|request")?;
    let values: Vec<&str> = args
        .get("values")
        .ok_or("sweep needs --values a,b,c")?
        .split(',')
        .map(str::trim)
        .filter(|v| !v.is_empty())
        .collect();
    if values.is_empty() {
        return Err("--values: empty list".into());
    }
    if !matches!(param, "streams" | "readahead" | "request") {
        return Err(format!("--param: expected streams|readahead|request, got {param:?}"));
    }

    // Build the whole grid up front, then run it on the worker pool.
    let mut specs: Vec<seqio_node::Experiment> = Vec::new();
    for v in &values {
        // Re-parse with the swept flag overridden.
        let mut items: Vec<String> = Vec::new();
        items.push(format!("--{param}={v}"));
        // Carry every other original flag through; the shared flags are
        // already parsed in `common` and apply to every point.
        for k in EXPERIMENT_FLAGS {
            if *k == param {
                continue;
            }
            if let Some(val) = args.get(k) {
                items.push(format!("--{k}={val}"));
            } else if args.switch(k) {
                items.push(format!("--{k}"));
            }
        }
        let sub = Args::parse(items)?;
        specs.push(experiment_from(&sub, &common)?);
    }

    let mut sweep = seqio_node::Sweep::builder().points(specs).progress(args.switch("progress"));
    if let Some(j) = common.jobs {
        sweep = sweep.jobs(j);
    }
    let report = sweep.run();

    println!("{:>12} {:>12} {:>12} {:>10} {:>10}", param, "MB/s", "MB/s/disk", "mean ms", "p99 ms");
    for (v, o) in values.iter().zip(report.outcomes()) {
        let disks = o.spec.shape.total_disks();
        let r = &o.result;
        println!(
            "{:>12} {:>12.2} {:>12.2} {:>10.2} {:>10.2}",
            v,
            r.total_throughput_mbs(),
            r.per_disk_throughput_mbs(disks),
            r.mean_response_ms(),
            r.p99_response_ms()
        );
    }
    eprintln!(
        "sweep: {} point(s) on {} worker(s) in {:.2}s",
        report.len(),
        report.jobs,
        report.wall.as_secs_f64()
    );
    Ok(())
}

fn print_help() {
    println!(
        "\
seqio — storage-node simulator for large numbers of sequential streams
(reproduction of Panagiotakis/Flouris/Bilas, ICDCS 2009)

USAGE:
  seqio run    [flags]
  seqio sweep  --param streams|readahead|request --values a,b,c [--jobs N] [flags]
  seqio cluster run --nodes K --shard POLICY [flags]   # multi-node cluster
  seqio client run --nodes K --rate R [flags]  # open-loop sessions + link SLO
  seqio replay --spans FILE [flags]        # open-loop replay of a span file
  seqio report --spans FILE [--phases] [--slo]  # per-phase latency breakdown
  seqio report --trace FILE [--correlate] [--attribute P] [--burn]
                                           # correlated session traces: cross-
                                           # node summary, tail attribution,
                                           # SLO burn-rate alerts
  seqio scenario run    --kind K [flags]   # generate + run a named scenario
  seqio scenario record --kind K --out FILE  # write its trace, don't run
  seqio scenario replay --trace FILE [flags] # re-run a recorded trace
  seqio info

EXPERIMENT FLAGS (run, sweep, cluster run, replay):
  --shape single|eight|sixty     node layout             [single]
  --streams N                    streams per disk        [10]
  --request SIZE                 client request size     [64K]
  --frontend direct|stream|linux request path            [direct]
  --readahead SIZE               scheduler R             [1M]
  --d N --n N --memory SIZE      explicit D/N/M (frontend=stream)
  --scheduler noop|deadline|cfq|anticipatory   (frontend=linux)
  --pattern seq|near|random      stream access pattern   [seq]
  --placement uniform|interval:SIZE                      [uniform]
  --writes                       issue writes instead of reads
  --requests N                   requests per stream     [open-ended]
  --warmup DUR --duration DUR    measurement window      [3s / 5s]
  --seed N                       deterministic seed      [1]
  --local-costs                  local (xdd-style) client cost model

SHARED FLAGS (one grammar across run, sweep and cluster run):
  --faults SPEC                  deterministic fault plan; `;`-separated:
                                   straggler:disk=D,factor=F[,from=DUR][,for=DUR]
                                   errors:disk=D,rate=P
                                   badregion:disk=D,start=LBA,blocks=N[,penalty=DUR]
                                   retry:[max=N][,backoff=DUR][,timeout=DUR]
                                 (whole run; on a cluster, lands on --fault-node)
  --trace-out FILE               record request-lifecycle spans and
                                 write them as the span CSV
  --metrics-out FILE             record a metric time series CSV
  --sample-interval DUR          metric sampling period  [10ms]
  --jobs N                       worker threads          [SEQIO_JOBS, then #cpus]

FLAGS (sweep only):
  --param streams|readahead|request --values a,b,c  the swept knob
  --progress                     per-point progress lines on stderr

FLAGS (cluster run):
  --nodes K                      storage nodes             [1]
  --shard hash|straggler-aware   stream sharding policy    [hash]
  --fault-node I                 node receiving --faults   [0]
  --base-seed N                  derive per-node seeds from (N, node)
  --rebalance DUR                migrate live streams off degraded nodes
                                 at the first multiple of DUR (sim time)
                                 after each degradation change
  (experiment flags above describe each node's template; --faults applies
   to --fault-node only and drives straggler-aware health)

FLAGS (scenario run / record / replay):
  --kind K                       steady|video|backup|mixed|churn|
                                 seek-restart|degraded        (run, record)
  --scale quick|full             matrix scale (window + population) [quick]
  --nodes N                      nodes the generator addresses      [1]
  --seed N                       scenario RNG seed                  [11]
  --direct                       run without the stream scheduler
  --adaptive                     enable the epoch adaptive tuner
  --jobs N                       worker threads for multi-node traces
  --out FILE                     also write the generated trace text
  --trace FILE                   recorded trace to replay     (replay)
  --faults SPEC                  fault plan for the replay    (replay;
                                 `run` injects the generator's own plan,
                                 e.g. the degraded straggler — pass it
                                 here to reproduce such a run exactly)

FLAGS (client run):
  --nodes K                      cluster under the client tier  [1]
  --rate R                       session arrivals per second    [100]
  --burst PERIOD,DUTY,FACTOR     bursty rate modulation
  --diurnal PERIOD,DEPTH         sinusoidal rate modulation
  --titles N --zipf S            catalogue size and popularity  [1024 / 0.8]
  --session-requests N           sequential requests per session  [4]
  --lifetime DUR                 abandon sessions older than DUR
  --link RATE                    shared client link, bytes/s (e.g. 125M)
                                 [unconstrained]
  --correlate-out FILE           write correlated session traces (JSONL):
                                 client arrivals joined with node spans and
                                 migrations; feed to `report --trace`
  (experiment flags shape each node; --warmup + --duration bound arrivals)

EXAMPLES:
  seqio run --streams 100 --frontend stream --readahead 4M
  seqio run --shape eight --frontend stream --d 8 --n 128 --readahead 512K
  seqio sweep --param streams --values 1,10,30,100 --frontend direct
  seqio run --frontend linux --scheduler anticipatory --request 4K --local-costs
  seqio run --streams 100 --frontend stream --faults straggler:disk=0,factor=4
  seqio run --streams 50 --frontend stream --trace-out spans.csv --metrics-out m.csv
  seqio report --spans spans.csv --phases
  seqio replay --spans spans.csv --frontend linux --trace-out replayed.csv
  seqio cluster run --nodes 4 --shard straggler-aware --streams 100 \\
        --frontend stream --requests 16 --warmup 0s --duration 60s \\
        --faults straggler:disk=0,factor=4 --fault-node 1 --base-seed 7
  seqio cluster run --nodes 2 --shard hash --streams 16 --requests 16 \\
        --warmup 0s --duration 300s --faults straggler:disk=0,factor=8,from=2s \\
        --fault-node 1 --base-seed 7 --rebalance 250ms
  seqio client run --nodes 4 --rate 400 --titles 4096 --zipf 0.8 \\
        --link 250M --lifetime 30s --warmup 0s --duration 60s --base-seed 7
  seqio client run --nodes 2 --rate 200 --burst 10s,0.3,3 --link 125M \\
        --warmup 0s --duration 30s --trace-out spans.csv
  seqio report --spans spans.csv --slo
  seqio client run --nodes 2 --rate 200 --link 125M --warmup 0s \\
        --duration 30s --correlate-out traces.jsonl
  seqio report --trace traces.jsonl --correlate --attribute p99.9 --burn
  seqio scenario run --kind video --adaptive
  seqio scenario record --kind churn --out churn.trace
  seqio scenario replay --trace churn.trace --adaptive"
    );
}
