//! Builds an [`Experiment`] from parsed flags (shared by `run` and `sweep`).

use seqio_core::ServerConfig;
use seqio_hostsched::SchedKind;
use seqio_node::{CostModel, Experiment, Frontend, NodeShape, Placement};
use seqio_simcore::SimDuration;
use seqio_workload::Pattern;

use crate::args::{parse_size, Args};
use crate::common::CommonArgs;

/// Flags understood by experiment construction. The fault / output /
/// worker knobs every subcommand shares live in
/// [`crate::common::COMMON_FLAGS`] instead.
pub const EXPERIMENT_FLAGS: &[&str] = &[
    "shape",
    "streams",
    "request",
    "frontend",
    "readahead",
    "d",
    "n",
    "memory",
    "scheduler",
    "pattern",
    "writes",
    "placement",
    "requests",
    "warmup",
    "duration",
    "seed",
    "local-costs",
];

/// Builds the experiment, reporting the first flag problem. The shared
/// flags (`--faults`, the observability outputs) arrive pre-parsed in
/// `common` and are installed on the template here.
///
/// # Errors
///
/// Returns a usage message describing the offending flag.
pub fn experiment_from(args: &Args, common: &CommonArgs) -> Result<Experiment, String> {
    let shape = match args.get("shape").unwrap_or("single") {
        "single" => NodeShape::single_disk(),
        "eight" => NodeShape::eight_disk(),
        "sixty" => NodeShape::sixty_disk(),
        other => return Err(format!("--shape: expected single|eight|sixty, got {other:?}")),
    };
    let streams = args.u64_or("streams", 10)? as usize;
    if streams == 0 {
        return Err("--streams: must be at least 1".into());
    }
    let request = args.size_or("request", 64 * 1024)?;
    let readahead = args.size_or("readahead", 1024 * 1024)?;

    let frontend = match args.get("frontend").unwrap_or("direct") {
        "direct" => Frontend::Direct,
        "stream" => {
            // Explicit D/N/M if given, else the all-dispatched preset.
            match (args.get("d"), args.get("n"), args.get("memory")) {
                (None, None, None) => Frontend::AllDispatched { read_ahead_bytes: readahead },
                _ => {
                    let d = args.u64_or("d", 4)? as usize;
                    let n = args.u64_or("n", 8)?;
                    let m = args.size_or("memory", d as u64 * readahead * n)?;
                    let cfg = ServerConfig {
                        dispatch_streams: d,
                        read_ahead_bytes: readahead,
                        requests_per_residency: n,
                        memory_bytes: m,
                        ..ServerConfig::default_tuning()
                    };
                    cfg.validate()?;
                    Frontend::StreamScheduler(cfg)
                }
            }
        }
        "linux" => {
            let scheduler = match args.get("scheduler").unwrap_or("anticipatory") {
                "noop" => SchedKind::Noop,
                "deadline" => SchedKind::Deadline,
                "cfq" => SchedKind::Cfq,
                "anticipatory" => SchedKind::Anticipatory,
                other => {
                    return Err(format!(
                        "--scheduler: expected noop|deadline|cfq|anticipatory, got {other:?}"
                    ))
                }
            };
            Frontend::Linux { scheduler }
        }
        other => return Err(format!("--frontend: expected direct|stream|linux, got {other:?}")),
    };

    let pattern = match args.get("pattern").unwrap_or("seq") {
        "seq" | "sequential" => Pattern::Sequential,
        "near" | "near-seq" => Pattern::NearSequential { p: 0.1, jitter_blocks: 64 },
        "random" => Pattern::Random { span_blocks: 1 << 20 },
        other => return Err(format!("--pattern: expected seq|near|random, got {other:?}")),
    };

    let placement = match args.get("placement") {
        None | Some("uniform") => Placement::Uniform,
        Some(v) => match v.strip_prefix("interval:") {
            Some(sz) => {
                Placement::Interval(parse_size(sz).map_err(|e| format!("--placement: {e}"))?)
            }
            None => return Err(format!("--placement: expected uniform|interval:SIZE, got {v:?}")),
        },
    };

    let mut b = Experiment::builder()
        .shape(shape)
        .streams_per_disk(streams)
        .request_size(request)
        .frontend(frontend)
        .pattern(pattern)
        .placement(placement)
        .writes(args.switch("writes"))
        .warmup(args.duration_or("warmup", SimDuration::from_secs(3))?)
        .duration(args.duration_or("duration", SimDuration::from_secs(5))?)
        .seed(args.u64_or("seed", 1)?);
    if let Some(r) = args.get("requests") {
        let n: u64 = r.parse().map_err(|_| format!("--requests: bad integer {r:?}"))?;
        b = b.requests_per_stream(n);
    }
    if args.switch("local-costs") {
        b = b.costs(CostModel::local_xdd());
    }
    if let Some(plan) = &common.faults {
        b = b.faults(plan.clone());
    }
    if let Some(cfg) = common.obs() {
        b = b.observe(cfg);
    }
    let e = b.build();
    e.validate()?;
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(items: &[&str]) -> Args {
        Args::parse(items.iter().map(|s| s.to_string())).unwrap()
    }

    /// Parses the shared flags too, the way every subcommand does.
    fn try_build(a: &Args) -> Result<Experiment, String> {
        let common = CommonArgs::from_args(a)?;
        experiment_from(a, &common)
    }

    #[test]
    fn defaults_build() {
        let e = try_build(&args(&[])).unwrap();
        assert_eq!(e.streams_per_disk, 10);
        assert_eq!(e.request_bytes, 64 * 1024);
        assert!(matches!(e.frontend, Frontend::Direct));
    }

    #[test]
    fn stream_frontend_with_explicit_drnm() {
        let e = try_build(&args(&[
            "--frontend",
            "stream",
            "--d",
            "2",
            "--n",
            "4",
            "--readahead",
            "512K",
        ]))
        .unwrap();
        match e.frontend {
            Frontend::StreamScheduler(cfg) => {
                assert_eq!(cfg.dispatch_streams, 2);
                assert_eq!(cfg.requests_per_residency, 4);
                assert_eq!(cfg.read_ahead_bytes, 512 * 1024);
                assert_eq!(cfg.memory_bytes, 2 * 4 * 512 * 1024);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stream_frontend_defaults_to_all_dispatched() {
        let e = try_build(&args(&["--frontend", "stream", "--readahead", "2M"])).unwrap();
        assert!(matches!(
            e.frontend,
            Frontend::AllDispatched { read_ahead_bytes } if read_ahead_bytes == 2 << 20
        ));
    }

    #[test]
    fn linux_frontend_with_scheduler() {
        let e = try_build(&args(&["--frontend", "linux", "--scheduler", "cfq"])).unwrap();
        assert!(matches!(e.frontend, Frontend::Linux { scheduler: SchedKind::Cfq, .. }));
    }

    #[test]
    fn interval_placement_and_pattern() {
        let e = try_build(&args(&[
            "--placement",
            "interval:1G",
            "--pattern",
            "near",
            "--shape",
            "eight",
        ]))
        .unwrap();
        assert!(matches!(e.placement, Placement::Interval(b) if b == 1 << 30));
        assert!(matches!(e.pattern, Pattern::NearSequential { .. }));
        assert_eq!(e.shape.total_disks(), 8);
    }

    #[test]
    fn bad_values_are_reported() {
        assert!(try_build(&args(&["--shape", "giant"])).is_err());
        assert!(try_build(&args(&["--frontend", "warp"])).is_err());
        assert!(try_build(&args(&["--streams", "0"])).is_err());
        assert!(try_build(&args(&["--scheduler", "bfq", "--frontend", "linux"])).is_err());
        assert!(try_build(&args(&["--placement", "pile"])).is_err());
    }

    #[test]
    fn writes_switch_applies() {
        let e = try_build(&args(&["--writes"])).unwrap();
        assert!(e.writes);
    }

    #[test]
    fn observability_flags_enable_the_recorder() {
        // Default: nothing recorded.
        assert!(try_build(&args(&[])).unwrap().obs.is_none());
        // --trace-out enables spans only.
        let e = try_build(&args(&["--trace-out", "spans.csv"])).unwrap();
        let obs = e.obs.expect("--trace-out enables observability");
        assert!(obs.spans && !obs.metrics);
        // --metrics-out enables sampling, with a configurable period.
        let e = try_build(&args(&["--metrics-out", "metrics.csv", "--sample-interval", "2ms"]))
            .unwrap();
        let obs = e.obs.expect("--metrics-out enables observability");
        assert!(!obs.spans && obs.metrics);
        assert_eq!(obs.sample_interval, SimDuration::from_millis(2));
        // Both together.
        let e = try_build(&args(&["--trace-out", "s.csv", "--metrics-out", "m.csv"])).unwrap();
        let obs = e.obs.unwrap();
        assert!(obs.spans && obs.metrics);
        assert_eq!(obs.sample_interval, SimDuration::from_millis(10), "default period");
    }

    #[test]
    fn faults_spec_builds_a_plan() {
        let e = try_build(&args(&[
            "--faults",
            "straggler:disk=0,factor=4,from=1s,for=10s;errors:disk=0,rate=0.01",
        ]))
        .unwrap();
        let plan = e.faults.expect("--faults installs a plan");
        assert_eq!(
            plan.straggler_factor(0, seqio_simcore::SimTime::ZERO + SimDuration::from_secs(2)),
            4.0
        );
        // Default: healthy.
        assert!(try_build(&args(&[])).unwrap().faults.is_none());
        // Malformed specs and plans naming absent disks are usage errors.
        assert!(try_build(&args(&["--faults", "wobble:disk=0"])).is_err());
        assert!(try_build(&args(&["--faults", "errors:disk=9,rate=0.1"])).is_err());
    }
}
