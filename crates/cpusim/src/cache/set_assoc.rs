//! A set-associative cache with true-LRU replacement.

use crate::config::CacheConfig;

/// The tag of an invalid way. A tag is `addr >> (line bits + set bits)`
/// with at least one bit shifted out (checked in [`SetAssocCache::new`]),
/// so no address has an all-ones tag.
const INVALID: u64 = u64::MAX;

/// A set-associative cache array. Stores only tags (the simulator never needs
/// data values), with per-set true-LRU replacement.
///
/// Equality compares the full state: geometry, every tag and LRU stamp, the
/// access tick, and the counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetAssocCache {
    config: CacheConfig,
    sets_mask: u64,
    /// `log2(sets)`: the set-index bits between the line offset and the tag.
    set_bits: u32,
    line_shift: u32,
    /// `tags[set * assoc + way]`: tag, or [`INVALID`].
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags` (larger = more recently used).
    stamps: Vec<u64>,
    tick: u64,
    accesses: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Creates an empty (all-invalid) cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry (see [`CacheConfig::sets`]), including
    /// a single set of one-byte lines, whose tags would span every `u64`.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let n = (sets * config.ways as u64) as usize;
        let set_bits = sets.trailing_zeros();
        let line_shift = config.line_bytes.trailing_zeros();
        assert!(
            set_bits + line_shift > 0,
            "a cache needs more than one set or lines wider than one byte"
        );
        Self {
            sets_mask: sets - 1,
            set_bits,
            line_shift,
            config,
            tags: vec![INVALID; n],
            stamps: vec![0; n],
            tick: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    #[inline]
    fn index_of(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let set = (line & self.sets_mask) as usize;
        let tag = line >> self.set_bits;
        (set, tag)
    }

    /// Accesses `addr`: returns `true` on hit. On a miss the line is filled,
    /// evicting the LRU way. Statistics are updated.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        self.accesses += 1;
        let (set, tag) = self.index_of(addr);
        let assoc = self.config.ways as usize;
        let base = set * assoc;
        // Hit?
        for way in 0..assoc {
            if self.tags[base + way] == tag {
                self.stamps[base + way] = self.tick;
                return true;
            }
        }
        self.misses += 1;
        // Fill: prefer an invalid way, else evict LRU.
        let victim = (0..assoc)
            .find(|&w| self.tags[base + w] == INVALID)
            .unwrap_or_else(|| {
                (0..assoc)
                    .min_by_key(|&w| self.stamps[base + w])
                    .expect("associativity is nonzero")
            });
        self.tags[base + victim] = tag;
        self.stamps[base + victim] = self.tick;
        false
    }

    /// Peeks whether `addr` is resident without updating LRU or statistics.
    pub fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.index_of(addr);
        let assoc = self.config.ways as usize;
        let base = set * assoc;
        (0..assoc).any(|w| self.tags[base + w] == tag)
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss ratio (0 when no accesses yet).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Clears access statistics while keeping cache contents (used after
    /// pre-warming so measured miss ratios reflect steady state only).
    pub fn reset_stats(&mut self) {
        self.accesses = 0;
        self.misses = 0;
    }

    /// Invalidates everything and clears statistics.
    pub fn clear(&mut self) {
        self.tags.iter_mut().for_each(|t| *t = INVALID);
        self.stamps.iter_mut().for_each(|s| *s = 0);
        self.tick = 0;
        self.accesses = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets × 2 ways × 64 B lines = 512 B.
        SetAssocCache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            latency: 1,
        })
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1001)); // same line
        assert_eq!(c.accesses(), 3);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Set stride = 4 sets × 64 B = 256 B; these three map to set 0.
        let a = 0x0000;
        let b = 0x0100;
        let d = 0x0200;
        assert!(!c.access(a));
        assert!(!c.access(b));
        assert!(c.access(a)); // a is now MRU, b is LRU
        assert!(!c.access(d)); // evicts b
        assert!(c.access(a));
        assert!(!c.access(b)); // b was evicted
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny();
        for set in 0..4u64 {
            assert!(!c.access(set * 64));
        }
        for set in 0..4u64 {
            assert!(c.access(set * 64));
        }
    }

    #[test]
    fn contains_does_not_mutate() {
        let mut c = tiny();
        c.access(0x40);
        let accesses = c.accesses();
        assert!(c.contains(0x40));
        assert!(!c.contains(0x4000));
        assert_eq!(c.accesses(), accesses);
    }

    #[test]
    fn miss_ratio_and_clear() {
        let mut c = tiny();
        assert_eq!(c.miss_ratio(), 0.0);
        c.access(0);
        c.access(0);
        assert!((c.miss_ratio() - 0.5).abs() < 1e-12);
        c.clear();
        assert_eq!(c.accesses(), 0);
        assert!(!c.contains(0));
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = tiny();
        // 32 distinct lines in a 8-line cache, round-robin: always miss
        // after warmup.
        for round in 0..4 {
            for line in 0..32u64 {
                let hit = c.access(line * 64);
                if round > 0 {
                    assert!(!hit, "round {round} line {line} should miss (LRU thrash)");
                }
            }
        }
    }

    #[test]
    fn highest_addresses_are_cached_like_any_other() {
        // Their tags are the largest a cache can hold, one below the
        // invalid marker.
        let mut c = tiny();
        assert!(!c.contains(u64::MAX));
        assert!(!c.access(u64::MAX));
        assert!(c.access(u64::MAX - 1)); // same line
        assert!(c.contains(u64::MAX));
        assert_eq!(c.misses(), 1);
    }

    #[test]
    #[should_panic(expected = "more than one set")]
    fn one_set_of_byte_lines_is_rejected() {
        let _ = SetAssocCache::new(CacheConfig {
            size_bytes: 4,
            ways: 4,
            line_bytes: 1,
            latency: 1,
        });
    }

    #[test]
    fn working_set_fitting_cache_always_hits_after_warmup() {
        let mut c = tiny();
        for _ in 0..3 {
            for line in 0..8u64 {
                c.access(line * 64);
            }
        }
        for line in 0..8u64 {
            assert!(c.access(line * 64), "line {line}");
        }
    }
}
