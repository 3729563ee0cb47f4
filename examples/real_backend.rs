//! The scheduler on real storage: runs the user-level storage server
//! against actual files with a worker-pool backend (positioned reads,
//! `O_DIRECT` when the filesystem permits), mirroring the paper's real
//! Linux implementation.
//!
//! Creates two 64 MiB scratch files in the system temp directory, runs 8
//! concurrent sequential readers against each, and reports wall-clock
//! throughput plus scheduler internals.
//!
//! ```text
//! cargo run --release --example real_backend
//! ```

use std::fs::File;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use seqio::core::RealNode;
use seqio::prelude::*;
use seqio::simcore::units::{KIB, MIB};

fn make_scratch(name: &str, mib: usize) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("seqio-example-{}-{name}.dat", std::process::id()));
    let mut f = File::create(&p).expect("create scratch file");
    let chunk = vec![0xA5u8; MIB as usize];
    for _ in 0..mib {
        f.write_all(&chunk).expect("fill scratch file");
    }
    // Flush dirty pages now: an O_DIRECT read of a dirty range forces a
    // synchronous writeback, which would serialize the whole benchmark.
    f.sync_all().expect("sync scratch file");
    p
}

fn main() {
    let files = [make_scratch("disk0", 64), make_scratch("disk1", 64)];
    let readers_per_file = 8u64;
    let requests_per_reader = 64u64; // 64 x 64 KiB = 4 MiB per reader

    // Interactive timeouts: readers finish quickly here, and a finished
    // reader's staged read-ahead is only reclaimed by the periodic garbage
    // collector (paper 4.3) — so use a short buffer timeout. A stream
    // stages at most one residency (R * N) ahead of its reader, so N = 1
    // bounds that lead at 1 MiB.
    let cfg = ServerConfig {
        dispatch_streams: 4,
        read_ahead_bytes: MIB,
        requests_per_residency: 1,
        memory_bytes: 16 * MIB,
        gc_period: SimDuration::from_millis(25),
        buffer_timeout: SimDuration::from_millis(200),
        ..ServerConfig::default_tuning()
    };
    println!(
        "user-level server over {} files, D={}, R={}K, N={}, M={}MB (SEQIO_DIRECT=1 for O_DIRECT)\n",
        files.len(),
        cfg.dispatch_streams,
        cfg.read_ahead_bytes / KIB,
        cfg.requests_per_residency,
        cfg.memory_bytes / MIB
    );

    // Buffered I/O by default: O_DIRECT latency is wildly unpredictable on
    // virtualized filesystems. Pass SEQIO_DIRECT=1 to exercise it anyway.
    let direct = std::env::var_os("SEQIO_DIRECT").is_some();
    let node = Arc::new(RealNode::open(&files, cfg, 4, direct).expect("open backing files"));
    let started = Instant::now();
    let mut handles = Vec::new();
    for disk in 0..files.len() {
        for r in 0..readers_per_file {
            let node = Arc::clone(&node);
            handles.push(std::thread::spawn(move || {
                // Spread readers across the file, 4 MiB runs each.
                let base = r * (64 / readers_per_file) * 2048;
                for i in 0..requests_per_reader {
                    node.read(disk, base + i * 128, 128).expect("read");
                }
            }));
        }
    }
    for h in handles {
        h.join().expect("reader thread");
    }
    let elapsed = started.elapsed();
    let delivered = files.len() as u64 * readers_per_file * requests_per_reader * 64 * KIB;
    println!(
        "delivered {} MiB in {:.2}s  ->  {:.0} MB/s at the clients",
        delivered / MIB,
        elapsed.as_secs_f64(),
        delivered as f64 / MIB as f64 / elapsed.as_secs_f64()
    );
    println!("backend actually read {} MiB (read-ahead overshoot included)", {
        let n = Arc::strong_count(&node);
        debug_assert_eq!(n, 1);
        node.bytes_read() / MIB
    });

    let node = Arc::into_inner(node).expect("all readers joined");
    let m = node.shutdown();
    println!(
        "scheduler: {} streams detected, {} fills, {} admissions, {}/{} requests from memory",
        m.streams_detected, m.fills_issued, m.admissions, m.memory_hits, m.client_requests
    );

    for f in files {
        let _ = std::fs::remove_file(f);
    }
}
