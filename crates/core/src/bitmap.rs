//! Per-region detection bitmaps.
//!
//! The classifier allocates a small bitmap around the first request it sees
//! in a disk region: one bit per block over `[base, base + len)`. Each
//! subsequent request in the range sets its blocks' bits; when enough
//! distinct blocks are set, the region is declared a sequential stream
//! (paper §4.1). Dynamically-allocated small bitmaps keep memory bounded on
//! large disks.

/// Block address type re-used from the disk crate.
pub type Lba = u64;

/// A fixed-range block bitmap.
#[derive(Debug, Clone)]
pub struct RegionBitmap {
    base: Lba,
    len: u64,
    words: Vec<u64>,
    set_count: u64,
}

impl RegionBitmap {
    /// Creates an empty bitmap over `[base, base + len)` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(base: Lba, len: u64) -> Self {
        assert!(len > 0, "bitmap must cover at least one block");
        let words = vec![0u64; len.div_ceil(64) as usize];
        RegionBitmap { base, len, words, set_count: 0 }
    }

    /// First block covered.
    pub fn base(&self) -> Lba {
        self.base
    }

    /// One past the last block covered.
    pub fn end(&self) -> Lba {
        self.base + self.len
    }

    /// `true` if `lba` falls inside the region.
    pub fn covers(&self, lba: Lba) -> bool {
        (self.base..self.end()).contains(&lba)
    }

    /// Number of distinct blocks marked so far.
    pub fn set_count(&self) -> u64 {
        self.set_count
    }

    /// Approximate heap footprint in bytes (for memory accounting).
    pub fn memory_bytes(&self) -> usize {
        self.words.len() * 8 + std::mem::size_of::<Self>()
    }

    /// Marks the blocks of `[lba, lba + blocks)` that fall inside the
    /// region; out-of-range blocks are ignored. Returns the number of bits
    /// newly set (already-set blocks — duplicate requests — count zero,
    /// matching the paper's "ignores multiple requests to the same block").
    pub fn set_range(&mut self, lba: Lba, blocks: u64) -> u64 {
        let lo = lba.max(self.base);
        let hi = (lba + blocks).min(self.end());
        let mut newly = 0;
        // One masked word at a time over the region offsets [off, last).
        let (mut off, last) = (lo - self.base, hi.saturating_sub(self.base));
        while off < last {
            let shift = off % 64;
            let n = (last - off).min(64 - shift);
            let mask = (u64::MAX >> (64 - n)) << shift;
            let word = &mut self.words[(off / 64) as usize];
            newly += u64::from((mask & !*word).count_ones());
            *word |= mask;
            off += n;
        }
        self.set_count += newly;
        newly
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn covers_and_bounds() {
        let b = RegionBitmap::new(100, 50);
        assert!(b.covers(100));
        assert!(b.covers(149));
        assert!(!b.covers(99));
        assert!(!b.covers(150));
        assert_eq!(b.base(), 100);
        assert_eq!(b.end(), 150);
    }

    #[test]
    fn set_range_counts_new_bits_once() {
        let mut b = RegionBitmap::new(0, 256);
        assert_eq!(b.set_range(0, 64), 64);
        assert_eq!(b.set_range(0, 64), 0, "duplicates ignored");
        assert_eq!(b.set_range(32, 64), 32, "overlap counted once");
        assert_eq!(b.set_count(), 96);
    }

    #[test]
    fn set_range_clips_to_region() {
        let mut b = RegionBitmap::new(100, 50);
        // Entirely before / after: nothing.
        assert_eq!(b.set_range(0, 50), 0);
        assert_eq!(b.set_range(200, 50), 0);
        // Straddling the start.
        assert_eq!(b.set_range(90, 20), 10);
        // Straddling the end.
        assert_eq!(b.set_range(145, 20), 5);
        assert_eq!(b.set_count(), 15);
    }

    #[test]
    fn memory_footprint_is_small() {
        // The paper's point: a few-thousand-block region costs well under a KiB.
        let b = RegionBitmap::new(0, 4096);
        assert!(b.memory_bytes() < 1024, "{} bytes", b.memory_bytes());
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_length_panics() {
        let _ = RegionBitmap::new(0, 0);
    }

    proptest! {
        /// set_count always equals the number of distinct covered blocks.
        #[test]
        fn prop_set_count_matches_distinct_blocks(
            ranges in proptest::collection::vec((0u64..600, 1u64..100), 1..20)
        ) {
            let mut b = RegionBitmap::new(50, 512);
            let mut reference = std::collections::HashSet::new();
            for (lba, blocks) in ranges {
                b.set_range(lba, blocks);
                for x in lba..lba + blocks {
                    if (50..562).contains(&x) {
                        reference.insert(x);
                    }
                }
            }
            prop_assert_eq!(b.set_count(), reference.len() as u64);
        }
    }
}
