//! The two-level cache hierarchy plus main memory.

use super::set_assoc::SetAssocCache;
use crate::config::{CacheGeometry, CpuConfig};

/// Which level serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceLevel {
    /// Hit in the L1 (instruction or data, depending on port).
    L1,
    /// Missed L1, hit L2.
    L2,
    /// Missed L2, serviced by main memory.
    Memory,
}

/// The outcome of a cache access: total latency and the per-level activity
/// it generated (for the power model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Total latency in cycles until the data is available.
    pub latency: u32,
    /// Deepest level touched.
    pub level: ServiceLevel,
}

/// L1I + L1D + unified L2 + memory.
///
/// Equality compares the full state: every tag and LRU stamp, each level's
/// access tick, and every counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheHierarchy {
    l1i: SetAssocCache,
    l1d: SetAssocCache,
    l2: SetAssocCache,
    memory_latency: u32,
    l2_accesses: u64,
    mem_accesses: u64,
}

impl CacheHierarchy {
    /// Builds the hierarchy described by `config`.
    pub fn new(config: &CpuConfig) -> Self {
        Self {
            l1i: SetAssocCache::new(config.l1i),
            l1d: SetAssocCache::new(config.l1d),
            l2: SetAssocCache::new(config.l2),
            memory_latency: config.memory_latency,
            l2_accesses: 0,
            mem_accesses: 0,
        }
    }

    /// The geometry this hierarchy was built for.
    pub fn geometry(&self) -> CacheGeometry {
        CacheGeometry {
            l1i: *self.l1i.config(),
            l1d: *self.l1d.config(),
            l2: *self.l2.config(),
            memory_latency: self.memory_latency,
        }
    }

    #[inline]
    fn access_through(
        l1: &mut SetAssocCache,
        l2: &mut SetAssocCache,
        l2_accesses: &mut u64,
        mem_accesses: &mut u64,
        memory_latency: u32,
        addr: u64,
    ) -> AccessResult {
        let l1_latency = l1.config().latency;
        if l1.access(addr) {
            return AccessResult {
                latency: l1_latency,
                level: ServiceLevel::L1,
            };
        }
        *l2_accesses += 1;
        let l2_latency = l1_latency + l2.config().latency;
        if l2.access(addr) {
            return AccessResult {
                latency: l2_latency,
                level: ServiceLevel::L2,
            };
        }
        *mem_accesses += 1;
        AccessResult {
            latency: l2_latency + memory_latency,
            level: ServiceLevel::Memory,
        }
    }

    /// A data access (load or store address) at `addr`.
    #[inline]
    pub fn access_data(&mut self, addr: u64) -> AccessResult {
        Self::access_through(
            &mut self.l1d,
            &mut self.l2,
            &mut self.l2_accesses,
            &mut self.mem_accesses,
            self.memory_latency,
            addr,
        )
    }

    /// An instruction fetch at `pc`.
    #[inline]
    pub fn access_inst(&mut self, pc: u64) -> AccessResult {
        Self::access_through(
            &mut self.l1i,
            &mut self.l2,
            &mut self.l2_accesses,
            &mut self.mem_accesses,
            self.memory_latency,
            pc,
        )
    }

    /// The L1 data cache (for statistics).
    pub fn l1d(&self) -> &SetAssocCache {
        &self.l1d
    }

    /// The L1 instruction cache (for statistics).
    pub fn l1i(&self) -> &SetAssocCache {
        &self.l1i
    }

    /// The unified L2 (for statistics).
    pub fn l2(&self) -> &SetAssocCache {
        &self.l2
    }

    /// Total L2 accesses (from either L1).
    pub fn l2_accesses(&self) -> u64 {
        self.l2_accesses
    }

    /// Total main-memory accesses.
    pub fn memory_accesses(&self) -> u64 {
        self.mem_accesses
    }

    /// Clears all level statistics while keeping cache contents (used after
    /// pre-warming).
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.l2_accesses = 0;
        self.mem_accesses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> CacheHierarchy {
        CacheHierarchy::new(&CpuConfig::isca04_table1())
    }

    #[test]
    fn cold_access_goes_to_memory() {
        let mut h = hierarchy();
        let r = h.access_data(0x10_0000);
        assert_eq!(r.level, ServiceLevel::Memory);
        // 2 (L1) + 12 (L2) + 80 (memory) = 94.
        assert_eq!(r.latency, 94);
    }

    #[test]
    fn second_access_hits_l1() {
        let mut h = hierarchy();
        h.access_data(0x10_0000);
        let r = h.access_data(0x10_0000);
        assert_eq!(r.level, ServiceLevel::L1);
        assert_eq!(r.latency, 2);
    }

    #[test]
    fn l1_evicted_line_hits_l2() {
        let mut h = hierarchy();
        let base = 0x10_0000u64;
        h.access_data(base);
        // Thrash set 0 of the 2-way 512-set L1 (set stride 512*64 = 32 KiB)
        // with two more lines so `base` is evicted from L1 but stays in L2.
        h.access_data(base + 32 * 1024);
        h.access_data(base + 64 * 1024);
        let r = h.access_data(base);
        assert_eq!(r.level, ServiceLevel::L2);
        assert_eq!(r.latency, 14);
    }

    #[test]
    fn instruction_and_data_paths_are_separate_l1s() {
        let mut h = hierarchy();
        h.access_data(0x4000);
        // Same address through the I-port still misses L1I (but hits L2).
        let r = h.access_inst(0x4000);
        assert_eq!(r.level, ServiceLevel::L2);
        assert_eq!(h.l1i().misses(), 1);
        assert_eq!(h.l1d().misses(), 1);
    }

    #[test]
    fn statistics_count_level_traffic() {
        let mut h = hierarchy();
        h.access_data(0);
        h.access_data(0);
        h.access_inst(1 << 30);
        assert_eq!(h.l1d().accesses(), 2);
        assert_eq!(h.l2_accesses(), 2); // one per cold L1 miss
        assert_eq!(h.memory_accesses(), 2);
    }
}
