//! Controller prefetch cache.
//!
//! Unlike the disk's fixed segments, controller memory is a pool of
//! variable-size *extents* (one per prefetch operation) replaced in FIFO
//! insertion order — the straightforward policy of an entry-level
//! controller. The paper's Figure 8 sweeps prefetch size against this
//! pool: once `streams x prefetch` exceeds the pool, extents are reclaimed
//! while their streams are still consuming them, every reclaim forces a
//! refetch that accelerates the next reclaim, and throughput collapses.

use seqio_disk::Lba;
use seqio_simcore::SimTime;

/// Description of the extent that satisfied a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtentHit {
    /// First block of the extent.
    pub start: Lba,
    /// Extent length in blocks.
    pub blocks: u64,
    /// Highest block offset served so far.
    pub touched: u64,
}

/// Byte-granularity extent cache with FIFO replacement.
#[derive(Debug, Clone)]
pub struct ExtentCache {
    capacity: u64,
    used: u64,
    extents: Vec<Extent>,
    evictions: u64,
    wasted_bytes: u64,
}

#[derive(Debug, Clone, Copy)]
struct Extent {
    port: usize,
    start: Lba,
    blocks: u64,
    /// Highest block offset served to a host request.
    touched: u64,
    /// Insertion instant (FIFO replacement key).
    inserted: SimTime,
}

const BLOCK: u64 = seqio_disk::BLOCK_SIZE;

impl ExtentCache {
    /// Creates a cache holding at most `capacity` bytes (0 disables it).
    pub fn new(capacity: u64) -> Self {
        ExtentCache { capacity, used: 0, extents: Vec::new(), evictions: 0, wasted_bytes: 0 }
    }

    /// Configured capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently resident.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Number of extents reclaimed so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Prefetched bytes reclaimed before any request consumed them.
    pub fn wasted_bytes(&self) -> u64 {
        self.wasted_bytes
    }

    /// Serves `[lba, lba+blocks)` on `port` if a resident extent covers it.
    pub fn lookup(&mut self, port: usize, lba: Lba, blocks: u64) -> bool {
        self.lookup_extent(port, lba, blocks).is_some()
    }

    /// Like [`lookup`](Self::lookup), but reports the covering extent so the
    /// caller can decide whether to prefetch the next one.
    pub fn lookup_extent(&mut self, port: usize, lba: Lba, blocks: u64) -> Option<ExtentHit> {
        for e in &mut self.extents {
            if e.port == port && e.start <= lba && lba + blocks <= e.start + e.blocks {
                e.touched = e.touched.max(lba + blocks - e.start);
                return Some(ExtentHit { start: e.start, blocks: e.blocks, touched: e.touched });
            }
        }
        None
    }

    /// Non-mutating containment check for a single block.
    pub fn contains(&self, port: usize, lba: Lba) -> bool {
        self.extents.iter().any(|e| e.port == port && e.start <= lba && lba < e.start + e.blocks)
    }

    /// Inserts a fetched extent, evicting the oldest inserted extents until
    /// it fits (a lookup does not refresh an extent). Extents larger than
    /// the whole cache are not inserted.
    pub fn insert(&mut self, port: usize, lba: Lba, blocks: u64, now: SimTime) {
        let bytes = blocks * BLOCK;
        if bytes > self.capacity {
            return;
        }
        while self.used + bytes > self.capacity {
            let idx = self
                .extents
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.inserted)
                .map(|(i, _)| i)
                .expect("used > 0 implies extents exist");
            let victim = self.extents.swap_remove(idx);
            self.used -= victim.blocks * BLOCK;
            self.evictions += 1;
            self.wasted_bytes += victim.blocks.saturating_sub(victim.touched) * BLOCK;
        }
        self.extents.push(Extent { port, start: lba, blocks, touched: 0, inserted: now });
        self.used += bytes;
    }

    /// Drops any extent overlapping `[lba, lba+blocks)` on `port`.
    pub fn invalidate(&mut self, port: usize, lba: Lba, blocks: u64) {
        let mut i = 0;
        while i < self.extents.len() {
            let e = self.extents[i];
            if e.port == port && lba < e.start + e.blocks && e.start < lba + blocks {
                self.used -= e.blocks * BLOCK;
                self.extents.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqio_simcore::units::MIB;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn insert_then_lookup() {
        let mut c = ExtentCache::new(MIB);
        assert!(!c.lookup(0, 0, 8));
        c.insert(0, 0, 128, t(1));
        assert!(c.lookup(0, 0, 128));
        assert!(c.lookup(0, 64, 64));
        assert!(!c.lookup(0, 64, 128));
        assert!(!c.lookup(1, 0, 8), "other port must miss");
    }

    #[test]
    fn fifo_eviction_on_pressure() {
        let mut c = ExtentCache::new(512 * 1024); // holds two 512-block extents
        c.insert(0, 0, 512, t(1));
        c.insert(0, 10_000, 512, t(2));
        assert!(c.lookup(0, 0, 8)); // touching does not protect (FIFO)
        c.insert(0, 20_000, 512, t(4)); // evicts the oldest insert
        assert!(!c.lookup(0, 0, 8), "oldest insert evicted despite touch");
        assert!(c.lookup(0, 10_000, 8));
        assert!(c.lookup(0, 20_000, 8));
        assert_eq!(c.evictions(), 1);
        assert!(c.wasted_bytes() > 0);
    }

    #[test]
    fn oversized_extent_skipped() {
        let mut c = ExtentCache::new(1024);
        c.insert(0, 0, 100, t(1)); // 51200 bytes > 1024
        assert_eq!(c.used(), 0);
        assert!(!c.lookup(0, 0, 1));
    }

    #[test]
    fn invalidate_overlaps() {
        let mut c = ExtentCache::new(MIB);
        c.insert(0, 0, 128, t(1));
        c.insert(1, 0, 128, t(1));
        c.invalidate(0, 64, 1);
        assert!(!c.lookup(0, 0, 8));
        assert!(c.lookup(1, 0, 8), "other port unaffected");
        assert_eq!(c.used(), 128 * BLOCK);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = ExtentCache::new(0);
        c.insert(0, 0, 8, t(1));
        assert!(!c.lookup(0, 0, 8));
    }

    #[test]
    fn thrash_when_working_set_exceeds_capacity() {
        // 4 streams x 512-block extents over a cache that fits 2: no reuse.
        let mut c = ExtentCache::new(512 * 1024);
        let mut hits = 0;
        for round in 0u64..8 {
            for s in 0u64..4 {
                let lba = s * 1_000_000 + round * 512;
                if c.lookup(0, lba, 128) {
                    hits += 1;
                } else {
                    c.insert(0, lba, 512, t(round * 10 + s));
                }
            }
        }
        assert_eq!(hits, 0);
    }
}
