//! The Figure-1 golden subset pinned by the determinism and equivalence
//! suites: four points of the fig01 grid (60 disks, direct path, 1 and 5
//! streams per disk x 64 KiB and 256 KiB requests, seed 11, 1 s warm-up
//! and 2 s window) rendered as the figure CSV and hashed. Any change to
//! simulation semantics (event ordering, seed derivation, float
//! accumulation order) moves the hash. Each suite includes this file with
//! `#[path]`, runs the points its own way and checks [`GOLDEN`] with its
//! own message.

use seqio_node::{Experiment, NodeShape};
use seqio_simcore::units::KIB;
use seqio_simcore::SimDuration;

/// FNV-1a of the subset's CSV, as recorded.
pub const GOLDEN: u64 = 4786420990628480947;

const STREAMS_PER_DISK: [usize; 2] = [1, 5];
const REQUESTS: [u64; 2] = [64 * KIB, 256 * KIB];

/// The subset's points: streams per disk outer, request size inner.
pub fn points() -> Vec<Experiment> {
    let mut points = Vec::new();
    for streams in STREAMS_PER_DISK {
        for req in REQUESTS {
            points.push(
                Experiment::builder()
                    .shape(NodeShape::sixty_disk())
                    .streams_per_disk(streams)
                    .request_size(req)
                    .warmup(SimDuration::from_secs(1))
                    .duration(SimDuration::from_secs(2))
                    .seed(11)
                    .build(),
            );
        }
    }
    points
}

/// The CSV of the points' throughputs `mbs` (in [`points`] order) and its
/// FNV-1a hash. The layout is the one `Figure::to_csv` writes: a header of
/// series labels, one row per request size, y values formatted `{:.4}`.
pub fn render(mbs: &[f64]) -> (String, u64) {
    let mut csv = String::from("Request size,60 Streams,300 Streams\n");
    for (ri, x) in ["64K", "256K"].iter().enumerate() {
        csv.push_str(x);
        for si in 0..STREAMS_PER_DISK.len() {
            csv.push_str(&format!(",{:.4}", mbs[si * REQUESTS.len() + ri]));
        }
        csv.push('\n');
    }
    // FNV-1a: dependency-free and stable.
    let mut h = 0xcbf29ce484222325u64;
    for &b in csv.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    (csv, h)
}
