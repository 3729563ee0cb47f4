//! Observability neutrality: enabling spans and metric sampling must not
//! change a single simulation output. The recorder follows the fault
//! layer's discipline — opt-in, no extra RNG draws, no event-arithmetic
//! perturbation — and these tests pin that promise bit-for-bit across the
//! direct and scheduler paths, healthy and faulted, and across sweep
//! worker counts. The accuracy end is covered too: sampled per-disk
//! utilization must agree with the run's aggregate counters, and per-phase
//! latency means must sum to the end-to-end mean.

use seqio_node::span::PhaseBreakdown;
use seqio_node::{
    Experiment, FaultPlan, Frontend, ObsConfig, ProfConfig, RunResult, SpanPhase, Sweep,
};
use seqio_simcore::units::{KIB, MIB};
use seqio_simcore::SimDuration;

#[path = "../../../tests/support/fig01_golden.rs"]
mod fig01_golden;

/// Every field of `RunResult` except the recorder outputs themselves,
/// rendered so that any drift — histogram buckets, float bit patterns,
/// event counts — fails the comparison.
fn fingerprint(r: &RunResult) -> String {
    format!(
        "{:?}|{:?}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}|{}|{}",
        r.per_stream_mbs,
        r.window,
        r.bytes_delivered,
        r.response,
        r.server_metrics,
        r.disk_seeks,
        r.disk_busy,
        r.disk_ops,
        r.disk_read_errors,
        r.disk_retries,
        r.disk_timeouts,
        r.ctrl_wasted_bytes,
        r.ctrl_bytes_from_disks,
        r.requests_completed,
        r.events_simulated,
    )
}

fn base(frontend: Option<Frontend>, faults: Option<FaultPlan>) -> Experiment {
    let mut b = Experiment::builder()
        .streams_per_disk(20)
        .request_size(64 * KIB)
        .warmup(SimDuration::from_millis(500))
        .duration(SimDuration::from_secs(2))
        .seed(77);
    if let Some(fe) = frontend {
        b = b.frontend(fe);
    }
    let mut e = b.build();
    e.faults = faults;
    e
}

fn plan() -> FaultPlan {
    FaultPlan::new()
        .straggler(0, 3.0, SimDuration::from_millis(600), Some(SimDuration::from_secs(1)))
        .read_errors(0, 0.03)
}

#[test]
fn enabling_observability_never_changes_outputs() {
    let cases: Vec<(&str, Option<Frontend>, Option<FaultPlan>)> = vec![
        ("direct healthy", None, None),
        ("scheduler healthy", Some(Frontend::stream_scheduler_with_readahead(MIB)), None),
        ("direct faulted", None, Some(plan())),
        ("scheduler faulted", Some(Frontend::stream_scheduler_with_readahead(MIB)), Some(plan())),
    ];
    for (label, fe, faults) in cases {
        let off = base(fe.clone(), faults.clone()).run();
        let spans_only =
            base(fe.clone(), faults.clone()).observe(ObsConfig::new().with_spans()).run();
        let on = base(fe.clone(), faults.clone())
            .observe(ObsConfig::all().sample_every(SimDuration::from_millis(5)))
            .profile(ProfConfig::new())
            .run();
        assert_eq!(fingerprint(&off), fingerprint(&on), "{label}: recorder perturbed the run");
        assert_eq!(fingerprint(&off), fingerprint(&spans_only), "{label}: spans perturbed the run");
        assert!(off.spans.is_none() && off.metrics.is_none(), "{label}: obs off yet recorded");
        let spans = on.spans.as_ref().expect("spans enabled");
        assert_eq!(spans.len() as u64, on.requests_completed, "{label}: one span per completion");
        // Per request: metric sampling and profiling leave every span —
        // stream, disk, LBA, length, enqueue and delivery instants,
        // memory-hit flag and the phase stamps between — exactly as a
        // spans-only run records it.
        assert_eq!(spans_only.spans.as_ref(), Some(spans), "{label}: per-request records drifted");
        assert!(!on.metrics.as_ref().expect("metrics enabled").is_empty(), "{label}: no samples");
    }
}

/// Kernel self-profiling obeys the same neutrality bar as the recorder:
/// simulation outputs are bit-identical with it on, the profiled event
/// count equals `events_simulated` plus the sampler ticks it excludes,
/// and the queue stats reflect a real run.
#[test]
fn enabling_profiling_never_changes_outputs() {
    for (label, fe) in
        [("direct", None), ("scheduler", Some(Frontend::stream_scheduler_with_readahead(MIB)))]
    {
        let off = base(fe.clone(), Some(plan())).run();
        let on = base(fe.clone(), Some(plan())).profile(ProfConfig::new()).run();
        assert_eq!(fingerprint(&off), fingerprint(&on), "{label}: profiler perturbed the run");
        assert!(off.prof.is_none(), "{label}: profiling off yet recorded");
        let prof = on.prof.as_ref().expect("profiling enabled");
        // Every scheduled event is dispatched exactly once or still
        // pending at the stop time; the dispatched count can never exceed
        // the scheduled count.
        assert!(prof.total_events() <= prof.queue.pushes, "{label}: dispatched > scheduled");
        assert!(prof.total_events() > 0, "{label}: nothing dispatched");
        assert_eq!(prof.queue.pushes, on.events_simulated, "{label}: queue pushes drifted");
        assert!(prof.classes.iter().any(|c| c.name == "deliver" && c.count > 0), "{label}");
        assert!(prof.total_wall_nanos() > 0, "{label}: wall timing was on");
        // Counts-only profiling reads no host clock but books the same
        // deterministic counts.
        let counts = base(fe.clone(), Some(plan())).profile(ProfConfig::counts_only()).run();
        let cp = counts.prof.as_ref().unwrap();
        assert_eq!(cp.total_wall_nanos(), 0, "{label}: counts_only read the clock");
        assert_eq!(
            cp.classes.iter().map(|c| (c.name, c.count)).collect::<Vec<_>>(),
            prof.classes.iter().map(|c| (c.name, c.count)).collect::<Vec<_>>(),
            "{label}: class counts are deterministic"
        );
    }
}

/// Spans re-derive exactly what the response histogram already measures: `delivered - enqueued` per request matches the
/// recorded latency distribution's count and exact sum.
#[test]
fn span_totals_match_the_response_histogram() {
    let r = base(Some(Frontend::stream_scheduler_with_readahead(MIB)), None)
        .observe(ObsConfig::new().with_spans())
        .run();
    let spans = r.spans.as_ref().unwrap();
    assert_eq!(spans.len() as u64, r.response.count());
    let span_sum: u64 = spans.iter().map(|s| s.total().as_nanos()).sum();
    let hist_mean = r.response.mean().as_nanos();
    let span_mean = span_sum / spans.len() as u64;
    assert_eq!(span_mean, hist_mean, "span totals drifted from the response histogram");
    for s in spans {
        let phase_sum: SimDuration = s.phase_durations().iter().copied().sum();
        assert_eq!(phase_sum, s.total(), "per-span phase durations must sum exactly");
    }
}

#[test]
fn per_phase_means_sum_to_end_to_end_mean() {
    let r = base(Some(Frontend::stream_scheduler_with_readahead(MIB)), None)
        .observe(ObsConfig::new().with_spans())
        .run();
    let spans = r.spans.as_ref().unwrap();
    let breakdown = PhaseBreakdown::from_spans(spans);
    let total_ms = breakdown.total.mean().as_millis_f64();
    let sum_ms = breakdown.sum_of_phase_means_ms();
    // Each phase mean truncates to whole nanoseconds, so the sum can fall
    // short of the end-to-end mean by at most one nanosecond per phase.
    let slack_ms = SpanPhase::COUNT as f64 * 1e-6;
    assert!(
        (total_ms - sum_ms).abs() <= slack_ms,
        "phase means {sum_ms} ms do not sum to end-to-end mean {total_ms} ms"
    );
}

/// The sampled per-disk busy fraction telescopes: the mean over equal
/// sampling intervals must agree with the aggregate busy time the run
/// reports, on both sides of the scheduler-vs-direct pair.
#[test]
fn sampled_utilization_matches_aggregate_busy_time() {
    for fe in [None, Some(Frontend::stream_scheduler_with_readahead(MIB))] {
        let r = base(fe, None)
            .observe(ObsConfig::new().with_metrics().sample_every(SimDuration::from_millis(5)))
            .run();
        let series = r.metrics.as_ref().unwrap();
        let run_secs = (SimDuration::from_millis(500) + SimDuration::from_secs(2)).as_secs_f64();
        for (d, busy) in r.disk_busy.iter().enumerate() {
            let sampled = series.column_mean(&format!("disk{d}.busy_frac"));
            let aggregate = busy.as_secs_f64() / run_secs;
            assert!(
                (sampled - aggregate).abs() <= 0.05 * aggregate.max(0.01),
                "disk {d}: sampled utilization {sampled:.4} vs aggregate {aggregate:.4}"
            );
        }
    }
}

#[test]
fn recorder_outputs_are_identical_across_sweep_worker_counts() {
    let points = || {
        [1usize, 12]
            .iter()
            .map(|&s| {
                let mut e = Experiment::builder()
                    .streams_per_disk(s)
                    .request_size(64 * KIB)
                    .frontend(Frontend::stream_scheduler_with_readahead(MIB))
                    .warmup(SimDuration::from_millis(500))
                    .duration(SimDuration::from_secs(1))
                    .seed(5)
                    .build();
                e.obs = Some(ObsConfig::all().sample_every(SimDuration::from_millis(10)));
                e
            })
            .collect::<Vec<_>>()
    };
    let serial = Sweep::builder().points(points()).jobs(1).run();
    let pooled = Sweep::builder().points(points()).jobs(4).run();
    for (i, (a, b)) in serial.results().zip(pooled.results()).enumerate() {
        assert_eq!(fingerprint(a), fingerprint(b), "point {i} diverged");
        let (sa, sb) = (a.spans.as_ref().unwrap(), b.spans.as_ref().unwrap());
        assert_eq!(
            seqio_node::span::spans_to_csv(sa),
            seqio_node::span::spans_to_csv(sb),
            "point {i}: span CSV diverged across worker counts"
        );
        let (ma, mb) = (a.metrics.as_ref().unwrap(), b.metrics.as_ref().unwrap());
        assert_eq!(ma.to_csv(), mb.to_csv(), "point {i}: metric CSV diverged across workers");
    }
}

/// The Figure-1 golden subset re-run with the full recorder switched ON:
/// the pinned hash must not move. This is the strongest neutrality
/// statement — any extra RNG draw, reordered event or float-accumulation
/// change caused by observability shows up here.
#[test]
fn fig01_golden_hash_unchanged_with_observability_enabled() {
    let points = fig01_golden::points().into_iter().map(|mut e| {
        e.obs = Some(ObsConfig::all().sample_every(SimDuration::from_millis(10)));
        e.prof = Some(ProfConfig::new());
        e
    });
    let report = Sweep::builder().points(points).jobs(4).run();
    let mbs: Vec<f64> = report.results().map(RunResult::total_throughput_mbs).collect();
    let (csv, hash) = fig01_golden::render(&mbs);
    assert_eq!(
        hash,
        fig01_golden::GOLDEN,
        "fig01 subset CSV drifted when observability was enabled:\n{csv}"
    );
}
