//! Property-based integration tests: random experiment configurations and
//! random request sequences must preserve the system's core invariants.

use proptest::prelude::*;
use seqio::core::{ClientRequest, ServerConfig, ServerOutput, StorageServer};
use seqio::node::{Experiment, Frontend};
use seqio::simcore::units::KIB;
use seqio::simcore::{SimDuration, SimTime};

/// Any sane experiment configuration completes its finite workload
/// exactly (conservation), whatever the frontend or geometry knobs.
fn conserve_requests(
    streams: usize,
    req_kib: u64,
    ra_kib: u64,
    use_sched: bool,
    seed: u64,
) -> Result<(), String> {
    let reqs = 20u64;
    let mut b = Experiment::builder()
        .streams_per_disk(streams)
        .request_size(req_kib * KIB)
        .requests_per_stream(reqs)
        .warmup(SimDuration::ZERO)
        .duration(SimDuration::from_secs(120))
        .seed(seed);
    if use_sched {
        b = b.frontend(Frontend::stream_scheduler_with_readahead(ra_kib * KIB));
    }
    let r = b.run();
    prop_assert_eq!(r.requests_completed, streams as u64 * reqs);
    prop_assert_eq!(r.bytes_delivered, streams as u64 * reqs * req_kib * KIB);
    Ok(())
}

/// The shrunk failure recorded in `properties.proptest-regressions`.
#[test]
fn experiments_conserve_requests_at_the_recorded_failure() {
    conserve_requests(1, 256, 128, true, 0).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_experiments_conserve_requests(
        streams in 1usize..24,
        req_kib in prop_oneof![Just(4u64), Just(16), Just(64), Just(256)],
        ra_kib in prop_oneof![Just(128u64), Just(512), Just(2048)],
        use_sched in any::<bool>(),
        seed in 0u64..1000,
    ) {
        conserve_requests(streams, req_kib, ra_kib, use_sched, seed)?;
    }
}

/// Fuzzes the storage server directly with interleaved sequential and
/// random readers and an immediate-completion backend:
/// * every client request completes exactly once;
/// * staging memory never exceeds `M`;
/// * the dispatch set never exceeds `D`.
fn server_invariants(ops: Vec<(usize, u64, u64)>, d: usize, n: u64) -> Result<(), String> {
    let cfg = ServerConfig {
        dispatch_streams: d,
        read_ahead_bytes: 128 * KIB,
        requests_per_residency: n,
        memory_bytes: d as u64 * 128 * KIB * n,
        ..ServerConfig::default_tuning()
    };
    let m = cfg.memory_bytes;
    let cap = 10_000_000u64;
    let mut srv = StorageServer::new(cfg, vec![cap; 3]);
    // Per (pseudo-)stream cursors: ops pick a stream, a disk bias and a
    // block count; stream cursors advance sequentially with occasional
    // jumps, giving the classifier a mix of sequential and random traffic.
    let mut cursors = [0u64; 6];
    let mut issued = 0u64;
    let mut completed = 0u64;
    let mut disk_q: Vec<u64> = Vec::new();
    let mut clock = 0u64;
    let mut next_id = 0u64;

    let drain = |outs: Vec<ServerOutput>, disk_q: &mut Vec<u64>, completed: &mut u64| {
        for o in outs {
            match o {
                ServerOutput::SubmitDisk(b) => disk_q.push(b.id),
                ServerOutput::CompleteClient { .. } => *completed += 1,
            }
        }
    };

    for (stream, jump, blocks16) in ops {
        clock += 97;
        let disk = stream % 3;
        if jump == 2 {
            cursors[stream] += 10_000; // tear the sequence
        }
        let lba = (stream as u64 * 1_500_000 + cursors[stream]) % (cap - 200);
        let blocks = blocks16 * 16;
        cursors[stream] += blocks;
        let req = ClientRequest::read(next_id, disk, lba, blocks);
        next_id += 1;
        issued += 1;
        let outs = srv.on_client_request(SimTime::from_nanos(clock * 1_000), req);
        drain(outs, &mut disk_q, &mut completed);
        prop_assert!(srv.memory_used() <= m, "memory bound violated");
        prop_assert!(srv.dispatched_streams() <= d, "dispatch bound violated");
        // Complete one pending disk request (out of order now and then).
        if !disk_q.is_empty() {
            let idx = (clock as usize) % disk_q.len();
            let id = disk_q.swap_remove(idx);
            clock += 13;
            let outs = srv.on_disk_complete(SimTime::from_nanos(clock * 1_000), id);
            drain(outs, &mut disk_q, &mut completed);
        }
    }
    // Drain everything outstanding, with periodic GC for stragglers.
    let mut gc_rounds = 0;
    while completed < issued && gc_rounds < 100 {
        if disk_q.is_empty() {
            clock += 60_000_000; // jump a minute: GC reclaims and reissues
            gc_rounds += 1;
            let outs = srv.on_gc(SimTime::from_nanos(clock * 1_000));
            drain(outs, &mut disk_q, &mut completed);
        } else {
            let id = disk_q.remove(0);
            clock += 13;
            let outs = srv.on_disk_complete(SimTime::from_nanos(clock * 1_000), id);
            drain(outs, &mut disk_q, &mut completed);
        }
        prop_assert!(srv.memory_used() <= m, "memory bound violated during drain");
    }
    prop_assert_eq!(completed, issued, "every request completes exactly once");
    Ok(())
}

/// The shrunk failure recorded in `properties.proptest-regressions`.
#[test]
fn server_invariants_hold_at_the_recorded_failure() {
    let ops = vec![
        (5, 2, 2),
        (5, 2, 4),
        (5, 2, 1),
        (5, 2, 3),
        (5, 2, 4),
        (5, 2, 3),
        (5, 2, 3),
        (5, 2, 4),
        (5, 2, 3),
        (5, 2, 1),
        (5, 2, 2),
        (5, 2, 4),
        (5, 2, 3),
        (5, 2, 1),
        (5, 2, 3),
        (5, 2, 4),
        (5, 2, 2),
        (5, 2, 1),
        (5, 2, 3),
        (5, 2, 2),
        (5, 2, 1),
        (5, 2, 1),
        (5, 2, 2),
        (5, 2, 4),
        (0, 0, 4),
        (3, 0, 3),
        (4, 2, 2),
        (5, 0, 2),
        (1, 1, 4),
        (1, 1, 3),
        (2, 0, 3),
        (0, 2, 1),
        (3, 0, 4),
        (4, 1, 1),
        (0, 0, 3),
        (3, 1, 1),
        (4, 1, 4),
        (4, 2, 1),
        (4, 0, 2),
        (0, 0, 1),
        (4, 0, 1),
        (4, 0, 1),
        (1, 2, 2),
        (0, 2, 1),
        (0, 2, 2),
        (4, 2, 1),
        (4, 2, 3),
        (4, 2, 3),
        (3, 1, 1),
        (2, 0, 1),
        (1, 0, 3),
        (4, 2, 4),
        (5, 2, 3),
        (3, 0, 4),
        (5, 0, 2),
        (2, 2, 4),
        (4, 0, 3),
        (4, 2, 1),
    ];
    server_invariants(ops, 1, 4).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_server_invariants_under_fuzz(
        ops in proptest::collection::vec((0usize..6, 0u64..3, 1u64..5), 1..300),
        d in 1usize..5,
        n in 1u64..5,
    ) {
        server_invariants(ops, d, n)?;
    }
}
