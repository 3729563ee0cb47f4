//! Integration tests for the paper's headline claims, exercised through the
//! public facade (`seqio::*`) across all crates.

use seqio::core::ServerConfig;
use seqio::node::{Experiment, Frontend, NodeShape};
use seqio::simcore::units::{KIB, MIB};
use seqio::simcore::SimDuration;

fn windows() -> (SimDuration, SimDuration) {
    (SimDuration::from_secs(3), SimDuration::from_secs(3))
}

/// "Our approach improves disk throughput up to a factor of 4 with a
/// workload of 100 sequential streams" — we assert a conservative 3x.
#[test]
fn headline_multi_x_improvement_at_100_streams() {
    let (warmup, duration) = windows();
    let direct =
        Experiment::builder().streams_per_disk(100).warmup(warmup).duration(duration).seed(1).run();
    let sched = Experiment::builder()
        .streams_per_disk(100)
        .frontend(Frontend::stream_scheduler_with_readahead(4 * MIB))
        .warmup(warmup)
        .duration(duration)
        .seed(1)
        .run();
    let factor = sched.total_throughput_mbs() / direct.total_throughput_mbs();
    assert!(
        factor > 3.0,
        "expected >3x improvement, got {factor:.1}x ({:.1} vs {:.1} MB/s)",
        sched.total_throughput_mbs(),
        direct.total_throughput_mbs()
    );
}

/// "It effectively makes the I/O subsystem insensitive to the number of I/O
/// streams used": with the small-dispatch configuration the spread between
/// 10 and 100 streams stays small while the direct path collapses.
#[test]
fn insensitivity_to_stream_count() {
    let (warmup, duration) = windows();
    let run = |streams: usize, fe: Option<ServerConfig>| {
        let mut b = Experiment::builder()
            .streams_per_disk(streams)
            .warmup(warmup)
            .duration(duration)
            .seed(2);
        if let Some(cfg) = fe {
            b = b.frontend(Frontend::StreamScheduler(cfg));
        }
        b.run().total_throughput_mbs()
    };
    let cfg = || ServerConfig::small_dispatch(1, 512 * KIB, 64);
    let sched_10 = run(10, Some(cfg()));
    let sched_100 = run(100, Some(cfg()));
    let direct_10 = run(10, None);
    let direct_100 = run(100, None);

    let sched_spread = (sched_10 - sched_100).abs() / sched_10.max(sched_100);
    let direct_spread = (direct_10 - direct_100).abs() / direct_10.max(direct_100);
    assert!(
        sched_spread < 0.35,
        "scheduler should be nearly flat 10->100 streams: {sched_10:.1} vs {sched_100:.1}"
    );
    assert!(
        direct_spread > 0.5,
        "direct path should collapse 10->100 streams: {direct_10:.1} vs {direct_100:.1}"
    );
}

/// "Small amounts of host-level buffering can be very effective": 16 MB of
/// staging already buys most of the achievable throughput at 60 streams.
#[test]
fn small_memory_is_effective() {
    let (warmup, duration) = windows();
    let run = |mem: u64| {
        let cfg = ServerConfig::memory_limited(mem, 4 * MIB, 1);
        Experiment::builder()
            .streams_per_disk(60)
            .frontend(Frontend::StreamScheduler(cfg))
            .warmup(warmup)
            .duration(duration)
            .seed(3)
            .run()
            .total_throughput_mbs()
    };
    let small = run(16 * MIB);
    let big = run(256 * MIB);
    assert!(small > 0.7 * big, "16MB ({small:.1}) should reach >70% of 256MB ({big:.1})");
}

/// "Response time is affected mostly by the number of streams, with
/// read-ahead size having only a small negative impact" — and larger R
/// lowers the mean because more requests are served from memory.
#[test]
fn response_time_scales_with_streams() {
    let (warmup, duration) = windows();
    let run = |streams: usize, ra: u64| {
        Experiment::builder()
            .streams_per_disk(streams)
            .frontend(Frontend::stream_scheduler_with_readahead(ra))
            .warmup(warmup)
            .duration(duration)
            .seed(4)
            .run()
            .mean_response_ms()
    };
    let few = run(10, MIB);
    let many = run(100, MIB);
    assert!(many > 3.0 * few, "100 streams ({many:.1} ms) >> 10 streams ({few:.1} ms)");
    let many_big_ra = run(100, 8 * MIB);
    assert!(
        many_big_ra < many,
        "8M read-ahead ({many_big_ra:.1} ms) should lower the 100-stream mean ({many:.1} ms)"
    );
}

/// The paper's memory invariant `M >= D*R*N` is enforced end to end.
#[test]
fn memory_invariant_rejected_at_experiment_level() {
    let mut cfg = ServerConfig::default_tuning();
    cfg.memory_bytes = cfg.working_set_bytes() - 1;
    let e = Experiment::builder().frontend(Frontend::StreamScheduler(cfg)).build();
    assert!(e.validate().is_err());
}

/// The 8-disk medium configuration recovers a large fraction of the
/// controller's 450 MB/s with D = #disks (Figure 13's conclusion).
#[test]
fn eight_disk_small_dispatch_recovers_aggregate() {
    let cfg = ServerConfig::small_dispatch(8, 512 * KIB, 128);
    let r = Experiment::builder()
        .shape(NodeShape::eight_disk())
        .streams_per_disk(30)
        .frontend(Frontend::StreamScheduler(cfg))
        .warmup(SimDuration::from_secs(6))
        .duration(SimDuration::from_secs(4))
        .seed(5)
        .run();
    let t = r.total_throughput_mbs();
    assert!(t > 270.0, "expected >60% of 450 MB/s, got {t:.0}");
}

/// Round robin rotates every stream through the dispatch set on a
/// multi-disk node: with one dispatch slot per disk pair (D = 4 on eight
/// disks) and residencies of N = 8 fills, each of the 80 streams still
/// delivers data inside the window.
#[test]
fn round_robin_rotates_every_stream_on_eight_disks() {
    let cfg = ServerConfig {
        dispatch_streams: 4,
        read_ahead_bytes: MIB,
        requests_per_residency: 8,
        memory_bytes: 32 * MIB,
        ..ServerConfig::default_tuning()
    };
    let r = Experiment::builder()
        .shape(NodeShape::eight_disk())
        .streams_per_disk(10)
        .frontend(Frontend::StreamScheduler(cfg))
        .warmup(SimDuration::from_secs(2))
        .duration(SimDuration::from_secs(4))
        .seed(2424)
        .run();
    let starved: Vec<usize> =
        (0..r.per_stream_bytes.len()).filter(|&s| r.per_stream_bytes[s] == 0).collect();
    assert_eq!(r.per_stream_bytes.len(), 80);
    assert!(starved.is_empty(), "streams with no bytes in the window: {starved:?}");
}
