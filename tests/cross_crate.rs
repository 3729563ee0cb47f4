//! Cross-crate integration: conservation, determinism and plumbing checks
//! spanning workload -> node -> core -> controller -> disk.

use seqio::core::ServerConfig;
use seqio::hostsched::SchedKind;
use seqio::node::{CostModel, Experiment, Frontend, NodeShape, Placement};
use seqio::simcore::units::{GIB, KIB, MIB};
use seqio::simcore::SimDuration;

/// Finite workloads complete exactly once per request, on every front end.
#[test]
fn conservation_across_frontends() {
    let frontends: Vec<(&str, Frontend)> = vec![
        ("direct", Frontend::Direct),
        ("stream", Frontend::stream_scheduler_with_readahead(MIB)),
        ("linux", Frontend::Linux { scheduler: SchedKind::Anticipatory }),
    ];
    for (name, fe) in frontends {
        let r = Experiment::builder()
            .streams_per_disk(6)
            .requests_per_stream(40)
            .frontend(fe)
            .warmup(SimDuration::ZERO)
            .duration(SimDuration::from_secs(60))
            .seed(11)
            .run();
        assert_eq!(r.requests_completed, 240, "{name}: every request completes exactly once");
        assert_eq!(r.bytes_delivered, 240 * 64 * KIB, "{name}: bytes conserved");
    }
}

/// Identical seeds give identical results; different seeds differ.
#[test]
fn determinism_and_seed_sensitivity() {
    let run = |seed: u64| {
        Experiment::builder()
            .streams_per_disk(20)
            .warmup(SimDuration::from_millis(300))
            .duration(SimDuration::from_secs(1))
            .seed(seed)
            .run()
    };
    let a = run(7);
    let b = run(7);
    let c = run(8);
    assert_eq!(a.bytes_delivered, b.bytes_delivered);
    assert_eq!(a.requests_completed, b.requests_completed);
    assert_eq!(a.disk_seeks, b.disk_seeks);
    // A different seed must change observable behavior somewhere; which
    // aggregate moves depends on the RNG stream, so accept any of them.
    assert!(
        a.bytes_delivered != c.bytes_delivered
            || a.per_stream_mbs != c.per_stream_mbs
            || a.disk_seeks != c.disk_seeks,
        "different seed, different run"
    );
}

/// Multi-controller topologies route requests to the right disks.
#[test]
fn sixty_disk_topology_routes_everywhere() {
    let r = Experiment::builder()
        .shape(NodeShape::sixty_disk())
        .streams_per_disk(1)
        .warmup(SimDuration::from_millis(500))
        .duration(SimDuration::from_secs(1))
        .seed(12)
        .run();
    assert_eq!(r.disk_seeks.len(), 60);
    assert_eq!(r.per_stream_mbs.len(), 60);
    // Every disk served I/O.
    assert!(r.disk_ops.iter().all(|&n| n > 0), "some disk never worked: {:?}", r.disk_ops);
    assert!(r.total_throughput_mbs() > 500.0);
}

/// Interval placement (the Figure 5 layout) runs and respects spacing.
#[test]
fn interval_placement_runs() {
    let r = Experiment::builder()
        .streams_per_disk(10)
        .placement(Placement::Interval(GIB))
        .requests_per_stream(20)
        .warmup(SimDuration::ZERO)
        .duration(SimDuration::from_secs(30))
        .seed(13)
        .run();
    assert_eq!(r.requests_completed, 200);
}

/// The Linux front end works with every scheduler policy.
#[test]
fn all_linux_schedulers_run() {
    for k in [SchedKind::Noop, SchedKind::Deadline, SchedKind::Cfq, SchedKind::Anticipatory] {
        let r = Experiment::builder()
            .streams_per_disk(4)
            .request_size(4 * KIB)
            .requests_per_stream(200)
            .frontend(Frontend::Linux { scheduler: k })
            .costs(CostModel::local_xdd())
            .warmup(SimDuration::ZERO)
            .duration(SimDuration::from_secs(30))
            .seed(14)
            .run();
        assert_eq!(r.requests_completed, 800, "{} completes the workload", k.name());
    }
}

/// Stream-scheduler metrics are consistent with delivery accounting.
#[test]
fn scheduler_metrics_consistency() {
    let cfg = ServerConfig::all_dispatched(30, MIB);
    let r = Experiment::builder()
        .streams_per_disk(30)
        .requests_per_stream(60)
        .frontend(Frontend::StreamScheduler(cfg))
        .warmup(SimDuration::ZERO)
        .duration(SimDuration::from_secs(60))
        .seed(15)
        .run();
    let m = r.server_metrics.expect("metrics available");
    assert_eq!(m.client_requests, 1800);
    assert_eq!(m.completions, 1800);
    assert_eq!(
        m.memory_hits + m.direct_requests,
        m.completions,
        "every completion is either a memory hit or a direct request"
    );
    assert_eq!(m.streams_detected, 30);
    assert!(m.admissions >= 30);
}

/// Larger client requests shift work from many small ops to fewer large
/// ones without losing bytes.
#[test]
fn request_size_sweep_conserves_bytes() {
    for req in [16 * KIB, 64 * KIB, 256 * KIB] {
        let r = Experiment::builder()
            .streams_per_disk(4)
            .request_size(req)
            .requests_per_stream(32)
            .warmup(SimDuration::ZERO)
            .duration(SimDuration::from_secs(60))
            .seed(16)
            .run();
        assert_eq!(r.bytes_delivered, 4 * 32 * req, "request size {req}");
    }
}
