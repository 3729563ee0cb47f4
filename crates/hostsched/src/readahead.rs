//! Kernel file read-ahead (the 2.6-era ramping window).
//!
//! Each sequentially-read file gets a read-ahead window that starts small
//! and doubles up to `VM_MAX_READAHEAD` (128 KiB). Reads inside the cached
//! window hit the page cache; crossing the middle of the window triggers an
//! asynchronous fetch of the next window so a steady reader pipelines.
//! No fetch reaches past the end of the file (here: the disk).

use crate::scheduler::Lba;

/// The window a file's first read fetches, in bytes (Linux: 16 KiB).
const INITIAL_BYTES: u64 = 16 * 1024;

/// The largest window, in bytes (Linux's `VM_MAX_READAHEAD`, 128 KiB).
const MAX_BYTES: u64 = 128 * 1024;

/// Outcome of a page-cache read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaOutcome {
    /// Served from the cache. `prefetch` asks the caller to start an
    /// asynchronous fetch of the next window.
    Hit {
        /// Background fetch to issue, if the reader crossed the trigger.
        prefetch: Option<(Lba, u64)>,
    },
    /// The data is already being fetched: the reader blocks until
    /// [`StreamRa::on_fetch_complete`] is called.
    Blocked,
    /// Cache miss: fetch this extent synchronously; the reader blocks.
    Miss {
        /// First block to fetch.
        lba: Lba,
        /// Blocks to fetch (the current window).
        blocks: u64,
    },
}

/// Per-file (per-stream) read-ahead state.
#[derive(Debug, Clone)]
pub struct StreamRa {
    /// Cached extent `[start, end)` (the most recent window(s)).
    cached: Option<(Lba, Lba)>,
    /// Extent currently being fetched.
    inflight: Option<(Lba, Lba)>,
    /// Current window size in blocks.
    window: u64,
    /// `true` once an async prefetch was triggered for the current window.
    triggered: bool,
    /// One past the file's last block; fetches are clipped here.
    end: Lba,
}

impl StreamRa {
    /// Creates fresh state for a file that ends before block `end`.
    pub fn new(end: Lba) -> Self {
        StreamRa {
            cached: None,
            inflight: None,
            window: INITIAL_BYTES / 512,
            triggered: false,
            end,
        }
    }

    /// Current window in blocks.
    pub fn window_blocks(&self) -> u64 {
        self.window
    }

    fn grow(&mut self) {
        self.window = (self.window * 2).min(MAX_BYTES / 512);
    }

    /// Processes a read of `[lba, lba+blocks)`, which must end by the
    /// file's end.
    pub fn on_read(&mut self, lba: Lba, blocks: u64) -> RaOutcome {
        let end = lba + blocks;
        debug_assert!(end <= self.end, "read [{lba}, {end}) past the file end {}", self.end);
        if let Some((cs, ce)) = self.cached {
            if lba >= cs && end <= ce {
                // Cache hit; maybe trigger the async next-window fetch when
                // the reader crosses the middle of the cached extent.
                let mut prefetch = None;
                if !self.triggered && self.inflight.is_none() && end * 2 >= cs + ce {
                    self.triggered = true;
                    self.grow();
                    let next = self.window.min(self.end - ce);
                    if next > 0 {
                        prefetch = Some((ce, next));
                        self.inflight = Some((ce, ce + next));
                    }
                }
                return RaOutcome::Hit { prefetch };
            }
        }
        if self.inflight.is_some() {
            // Either inside the in-flight window, or a miss while a fetch
            // is outstanding: the reader waits for the fetch either way (a
            // file has at most one read-ahead in flight).
            return RaOutcome::Blocked;
        }
        // Miss: fetch a fresh window from the requested offset.
        let fetch = self.window.max(blocks).min(self.end - lba);
        self.inflight = Some((lba, lba + fetch));
        self.triggered = false;
        RaOutcome::Miss { lba, blocks: fetch }
    }

    /// Notes that the in-flight fetch landed; the cached extent becomes the
    /// union of the old tail and the fetched window.
    ///
    /// # Panics
    ///
    /// Panics if no fetch was in flight.
    pub fn on_fetch_complete(&mut self) {
        let (is, ie) = self.inflight.take().expect("no fetch in flight");
        self.cached = match self.cached {
            // Contiguous extension: keep one merged extent.
            Some((cs, ce)) if ce == is => Some((cs, ie)),
            _ => Some((is, ie)),
        };
        self.triggered = false;
    }

    /// Bytes currently held in the page cache for this file.
    pub fn cached_bytes(&self) -> u64 {
        self.cached.map(|(s, e)| (e - s) * 512).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ra() -> StreamRa {
        StreamRa::new(Lba::MAX)
    }

    #[test]
    fn first_read_misses_with_initial_window() {
        let mut r = ra();
        match r.on_read(0, 8) {
            RaOutcome::Miss { lba, blocks } => {
                assert_eq!(lba, 0);
                assert_eq!(blocks, 32); // 16 KiB
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sequential_reads_hit_after_fetch() {
        let mut r = ra();
        let RaOutcome::Miss { blocks, .. } = r.on_read(0, 8) else { panic!() };
        r.on_fetch_complete();
        for i in 0..blocks / 8 / 2 - 1 {
            match r.on_read(i * 8, 8) {
                RaOutcome::Hit { .. } => {}
                other => panic!("read {i}: {other:?}"),
            }
        }
    }

    #[test]
    fn crossing_the_middle_triggers_async_prefetch() {
        let mut r = ra();
        let _ = r.on_read(0, 8);
        r.on_fetch_complete(); // cached [0, 32)
                               // Read into the second half.
        match r.on_read(16, 8) {
            RaOutcome::Hit { prefetch: Some((lba, blocks)) } => {
                assert_eq!(lba, 32);
                assert_eq!(blocks, 64, "window doubled to 32 KiB");
            }
            other => panic!("{other:?}"),
        }
        // Only one trigger per window.
        assert!(matches!(r.on_read(24, 8), RaOutcome::Hit { prefetch: None }));
    }

    #[test]
    fn window_caps_at_max() {
        let mut r = ra();
        let mut at = 0u64;
        // Run several windows; the window must never exceed 128 KiB = 256 blocks.
        for _ in 0..8 {
            match r.on_read(at, 8) {
                RaOutcome::Miss { lba, blocks } => {
                    assert!(blocks <= 256);
                    r.on_fetch_complete();
                    at = lba; // keep reading from the window start
                }
                RaOutcome::Hit { prefetch } => {
                    if prefetch.is_some() {
                        r.on_fetch_complete();
                    }
                    at += 8;
                }
                RaOutcome::Blocked => {
                    r.on_fetch_complete();
                }
            }
        }
        assert!(r.window_blocks() <= 256);
    }

    #[test]
    fn read_into_inflight_blocks() {
        let mut r = ra();
        let _ = r.on_read(0, 8);
        r.on_fetch_complete(); // cached [0,32)
        let RaOutcome::Hit { prefetch: Some(_) } = r.on_read(16, 8) else { panic!() };
        // Next window [32, 96) is in flight; reading it blocks.
        assert_eq!(r.on_read(32, 8), RaOutcome::Blocked);
        r.on_fetch_complete();
        assert!(matches!(r.on_read(32, 8), RaOutcome::Hit { .. }));
    }

    #[test]
    fn merged_extent_spans_windows() {
        let mut r = ra();
        let _ = r.on_read(0, 8);
        r.on_fetch_complete();
        let RaOutcome::Hit { prefetch: Some(_) } = r.on_read(16, 8) else { panic!() };
        r.on_fetch_complete();
        // Old window [0,32) and new [32,96) merge: block 0 still cached.
        assert!(matches!(r.on_read(0, 8), RaOutcome::Hit { .. }));
        assert_eq!(r.cached_bytes(), 96 * 512);
    }

    #[test]
    fn random_reads_keep_missing() {
        let mut r = ra();
        for i in 0..10u64 {
            match r.on_read(i * 100_000, 8) {
                RaOutcome::Miss { .. } => r.on_fetch_complete(),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn fetches_stop_at_the_file_end() {
        let mut r = StreamRa::new(48);
        // A miss near the end fetches only what is left.
        assert_eq!(r.on_read(40, 8), RaOutcome::Miss { lba: 40, blocks: 8 });
        r.on_fetch_complete();
        // Crossing the middle of the last extent prefetches nothing.
        assert_eq!(r.on_read(40, 8), RaOutcome::Hit { prefetch: None });
        // A prefetch that would cross the end is clipped to it.
        let mut r = StreamRa::new(60);
        let _ = r.on_read(0, 8);
        r.on_fetch_complete(); // cached [0, 32)
        assert_eq!(r.on_read(16, 8), RaOutcome::Hit { prefetch: Some((32, 28)) });
    }
}
