//! Stream specifications and per-stream request generation.

use seqio_disk::Lba;
use seqio_simcore::SimRng;

/// The access pattern a stream follows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// Strictly sequential: request `i` starts where request `i-1` ended.
    Sequential,
    /// Mostly sequential, but with probability `p` a request skips forward
    /// up to `jitter_blocks` (models container formats and slightly
    /// reordered readers).
    NearSequential {
        /// Probability of a skip per request.
        p: f64,
        /// Maximum forward skip in blocks.
        jitter_blocks: u64,
    },
    /// Uniformly random within `[start, start + span_blocks)`.
    Random {
        /// Extent of the random region in blocks.
        span_blocks: u64,
    },
}

/// Static description of one I/O stream (the paper's client parameters:
/// destination disk and offset, number and size of requests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSpec {
    /// Destination disk (global disk index at the storage node).
    pub disk: usize,
    /// Starting block.
    pub start: Lba,
    /// Request size in blocks.
    pub request_blocks: u64,
    /// Number of requests to issue (`u64::MAX` for open-ended streams that
    /// run until the measurement window closes).
    pub num_requests: u64,
    /// Access pattern.
    pub pattern: Pattern,
}

impl StreamSpec {
    /// A strictly sequential stream.
    pub fn sequential(disk: usize, start: Lba, request_blocks: u64, num_requests: u64) -> Self {
        StreamSpec { disk, start, request_blocks, num_requests, pattern: Pattern::Sequential }
    }

    /// Validates the specification.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.request_blocks == 0 {
            return Err("request size must be positive".into());
        }
        if self.num_requests == 0 {
            return Err("stream must issue at least one request".into());
        }
        if let Pattern::Random { span_blocks } = self.pattern {
            if span_blocks < self.request_blocks {
                return Err("random span smaller than one request".into());
            }
        }
        Ok(())
    }
}

/// Mutable generation state for one stream.
#[derive(Debug, Clone)]
pub struct StreamState {
    spec: StreamSpec,
    next_lba: Lba,
    issued: u64,
    rng: SimRng,
    /// Blocks on the stream's disk.
    disk_blocks: Lba,
}

impl StreamState {
    /// Creates the generator on a disk of `disk_blocks` blocks; `rng`
    /// seeds pattern randomness (unused for strictly sequential streams).
    /// A sequential or near-sequential stream whose next request would
    /// cross the disk's end finishes there.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid.
    pub fn new(spec: StreamSpec, disk_blocks: Lba, rng: SimRng) -> Self {
        spec.validate().expect("invalid stream spec");
        StreamState { next_lba: spec.start, spec, issued: 0, rng, disk_blocks }
    }

    /// The stream's static description.
    pub fn spec(&self) -> &StreamSpec {
        &self.spec
    }

    /// Requests issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Requests the stream has yet to issue.
    pub fn remaining(&self) -> u64 {
        self.spec.num_requests.saturating_sub(self.issued)
    }

    /// The block the next request would start at (for sequential and
    /// near-sequential patterns; random streams draw fresh positions).
    pub fn position(&self) -> Lba {
        self.next_lba
    }

    /// Splits off the unissued tail of the stream as a fresh spec and
    /// exhausts this generator in place, so the stream can be handed to
    /// another node mid-run (live migration).
    ///
    /// The remainder resumes exactly where this generator stopped:
    /// sequential and near-sequential streams continue from the current
    /// position, random streams keep their original span. Any request
    /// already issued (including one still in flight) stays accounted to
    /// this generator. Returns `None` when nothing is left to split.
    pub fn split_remainder(&mut self) -> Option<StreamSpec> {
        if self.exhausted() {
            return None;
        }
        let start = match self.spec.pattern {
            Pattern::Random { .. } => self.spec.start,
            Pattern::Sequential | Pattern::NearSequential { .. } => self.next_lba,
        };
        let remainder = StreamSpec {
            disk: self.spec.disk,
            start,
            request_blocks: self.spec.request_blocks,
            num_requests: self.remaining(),
            pattern: self.spec.pattern,
        };
        self.spec.num_requests = self.issued;
        Some(remainder)
    }

    /// `true` once the stream has generated all its requests.
    pub fn exhausted(&self) -> bool {
        self.issued >= self.spec.num_requests
    }

    /// Produces the next request as `(lba, blocks)`, or `None` when done.
    pub fn next_request(&mut self) -> Option<(Lba, u64)> {
        if self.exhausted() {
            return None;
        }
        let blocks = self.spec.request_blocks;
        match self.spec.pattern {
            Pattern::Sequential => {}
            Pattern::NearSequential { p, jitter_blocks } => {
                if jitter_blocks > 0 && self.rng.chance(p) {
                    self.next_lba = self.next_lba.saturating_add(self.rng.below(jitter_blocks) + 1);
                }
            }
            Pattern::Random { span_blocks } => {
                self.issued += 1;
                return Some((self.spec.start + self.rng.below(span_blocks - blocks + 1), blocks));
            }
        }
        let lba = self.next_lba;
        if lba.saturating_add(blocks) > self.disk_blocks {
            // The stream ran into its disk's end: it finishes here.
            self.spec.num_requests = self.issued;
            return None;
        }
        self.issued += 1;
        self.next_lba = lba + blocks;
        Some((lba, blocks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rng() -> SimRng {
        SimRng::seed_from(7)
    }

    #[test]
    fn sequential_requests_are_contiguous() {
        let mut s = StreamState::new(StreamSpec::sequential(0, 1000, 128, 5), Lba::MAX, rng());
        let mut expect = 1000;
        while let Some((lba, blocks)) = s.next_request() {
            assert_eq!(lba, expect);
            assert_eq!(blocks, 128);
            expect += 128;
        }
        assert_eq!(s.issued(), 5);
        assert!(s.exhausted());
        assert_eq!(s.next_request(), None);
    }

    #[test]
    fn sequential_stream_finishes_at_the_disk_end() {
        // Three requests fit before block 1_000; the fourth would cross.
        let mut s = StreamState::new(StreamSpec::sequential(0, 600, 128, 10), 1_000, rng());
        for lba in [600, 728, 856] {
            assert_eq!(s.next_request(), Some((lba, 128)));
        }
        assert_eq!(s.next_request(), None);
        assert!(s.exhausted());
        assert_eq!(s.issued(), 3);
        assert_eq!(s.split_remainder(), None);
    }

    #[test]
    fn near_sequential_moves_forward() {
        let spec = StreamSpec {
            disk: 0,
            start: 0,
            request_blocks: 64,
            num_requests: 200,
            pattern: Pattern::NearSequential { p: 0.3, jitter_blocks: 32 },
        };
        let mut s = StreamState::new(spec, Lba::MAX, rng());
        let mut last_end = 0;
        let mut skips = 0;
        while let Some((lba, blocks)) = s.next_request() {
            assert!(lba >= last_end, "near-sequential never goes backwards");
            if lba > last_end {
                skips += 1;
            }
            last_end = lba + blocks;
        }
        assert!(skips > 20, "expected some skips, saw {skips}");
        assert!(skips < 150, "too many skips: {skips}");
    }

    #[test]
    fn random_stays_in_span() {
        let spec = StreamSpec {
            disk: 0,
            start: 5_000,
            request_blocks: 16,
            num_requests: 500,
            pattern: Pattern::Random { span_blocks: 1_000 },
        };
        let mut s = StreamState::new(spec, Lba::MAX, rng());
        while let Some((lba, blocks)) = s.next_request() {
            assert!(lba >= 5_000);
            assert!(lba + blocks <= 6_000);
        }
    }

    #[test]
    fn split_remainder_resumes_where_the_stream_stopped() {
        let mut s = StreamState::new(StreamSpec::sequential(2, 1_000, 128, 10), Lba::MAX, rng());
        for _ in 0..4 {
            s.next_request();
        }
        let rem = s.split_remainder().expect("6 requests left");
        assert_eq!(rem.disk, 2);
        assert_eq!(rem.start, 1_000 + 4 * 128);
        assert_eq!(rem.num_requests, 6);
        assert_eq!(rem.request_blocks, 128);
        // The donor is exhausted in place and issues nothing further.
        assert!(s.exhausted());
        assert_eq!(s.next_request(), None);
        assert_eq!(s.split_remainder(), None);
        // The remainder covers exactly the unissued tail.
        let mut r = StreamState::new(rem, Lba::MAX, rng());
        let mut expect = 1_000 + 4 * 128;
        let mut count = 0;
        while let Some((lba, blocks)) = r.next_request() {
            assert_eq!(lba, expect);
            expect += blocks;
            count += 1;
        }
        assert_eq!(count, 6);
    }

    #[test]
    fn split_remainder_of_random_stream_keeps_the_span() {
        let spec = StreamSpec {
            disk: 0,
            start: 5_000,
            request_blocks: 16,
            num_requests: 20,
            pattern: Pattern::Random { span_blocks: 1_000 },
        };
        let mut s = StreamState::new(spec, Lba::MAX, rng());
        s.next_request();
        let rem = s.split_remainder().unwrap();
        assert_eq!(rem.start, 5_000, "random remainder anchors at the original span");
        assert_eq!(rem.num_requests, 19);
    }

    #[test]
    fn validation_catches_bad_specs() {
        assert!(StreamSpec::sequential(0, 0, 0, 1).validate().is_err());
        assert!(StreamSpec::sequential(0, 0, 8, 0).validate().is_err());
        let bad = StreamSpec {
            disk: 0,
            start: 0,
            request_blocks: 100,
            num_requests: 1,
            pattern: Pattern::Random { span_blocks: 50 },
        };
        assert!(bad.validate().is_err());
        assert!(StreamSpec::sequential(0, 0, 8, 1).validate().is_ok());
    }

    proptest! {
        /// A sequential stream of n requests covers exactly
        /// [start, start + n*blocks) with no gaps or overlaps.
        #[test]
        fn prop_sequential_coverage(start in 0u64..1_000_000, blocks in 1u64..512, n in 1u64..100) {
            let mut s = StreamState::new(StreamSpec::sequential(0, start, blocks, n), Lba::MAX, SimRng::seed_from(1));
            let mut expect = start;
            let mut count = 0;
            while let Some((lba, b)) = s.next_request() {
                prop_assert_eq!(lba, expect);
                expect += b;
                count += 1;
            }
            prop_assert_eq!(count, n);
            prop_assert_eq!(expect, start + n * blocks);
        }
    }
}
