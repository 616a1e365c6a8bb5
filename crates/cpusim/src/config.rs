//! Processor configuration (the paper's Table 1 architectural parameters).

use crate::branch::BranchModel;
use crate::memsys::MemorySystemConfig;

/// Configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Access latency in cycles (hit latency).
    pub latency: u32,
}

impl CacheConfig {
    /// Number of sets implied by size, ways, and line size.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets) or not a power of
    /// two.
    pub fn sets(&self) -> u64 {
        let sets = self.size_bytes / (self.ways as u64 * self.line_bytes as u64);
        assert!(sets > 0, "cache has zero sets");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

/// Everything a [`crate::cache::CacheHierarchy`]'s behaviour depends on
/// besides its contents: the three cache geometries and the memory latency.
/// Hierarchies of one geometry that see the same accesses end in the same
/// state, so a warmed hierarchy can be shared by every CPU of that geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2 cache.
    pub l2: CacheConfig,
    /// Main-memory latency in cycles (beyond L2).
    pub memory_latency: u32,
}

/// Functional-unit pool sizes (Table 1: 8 int ALU, 2 int mul/div, 4 FP ALU,
/// 2 FP mul/div).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuConfig {
    /// Integer ALUs (also execute branches).
    pub int_alu: u32,
    /// Integer multiply/divide units.
    pub int_mul_div: u32,
    /// Floating-point ALUs.
    pub fp_alu: u32,
    /// Floating-point multiply/divide units.
    pub fp_mul_div: u32,
}

/// Operation latencies in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyConfig {
    /// Integer ALU / branch.
    pub int_alu: u32,
    /// Integer multiply (pipelined).
    pub int_mul: u32,
    /// Integer divide (unpipelined: occupies the unit).
    pub int_div: u32,
    /// FP add/compare (pipelined).
    pub fp_alu: u32,
    /// FP multiply (pipelined).
    pub fp_mul: u32,
    /// FP divide (unpipelined).
    pub fp_div: u32,
}

/// Full processor configuration.
///
/// [`CpuConfig::isca04_table1`] reproduces the paper's simulated machine:
/// 8-wide out-of-order issue, 128-entry ROB and LSQ, 64 KB 2-way 2-cycle
/// 2-port L1s, 2 MB 8-way 12-cycle L2, 80-cycle memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuConfig {
    /// Maximum instructions fetched per cycle.
    pub fetch_width: u32,
    /// Maximum instructions dispatched (renamed) per cycle.
    pub dispatch_width: u32,
    /// Maximum instructions issued per cycle (dynamically reducible).
    pub issue_width: u32,
    /// Maximum instructions committed per cycle.
    pub commit_width: u32,
    /// Reorder-buffer entries (unified RUU-style window).
    pub rob_entries: u32,
    /// Load/store-queue entries.
    pub lsq_entries: u32,
    /// Fetch-buffer entries between fetch and dispatch.
    pub fetch_buffer: u32,
    /// Data-cache ports (dynamically reducible).
    pub mem_ports: u32,
    /// Branch-mispredict redirect penalty (frontend refill), cycles.
    pub mispredict_penalty: u32,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2 cache.
    pub l2: CacheConfig,
    /// Main-memory latency in cycles (beyond L2).
    pub memory_latency: u32,
    /// Functional units.
    pub fu: FuConfig,
    /// Operation latencies.
    pub latency: LatencyConfig,
    /// How branch outcomes are decided (profile-driven by default).
    pub branch_model: BranchModel,
    /// Optional MSHR/bandwidth limits (unlimited by default, matching the
    /// paper's machine description).
    pub memory_system: Option<MemorySystemConfig>,
}

impl CpuConfig {
    /// The paper's Table 1 machine.
    pub fn isca04_table1() -> Self {
        Self {
            fetch_width: 8,
            dispatch_width: 8,
            issue_width: 8,
            commit_width: 8,
            rob_entries: 128,
            lsq_entries: 128,
            fetch_buffer: 16,
            mem_ports: 2,
            mispredict_penalty: 10,
            l1i: CacheConfig {
                size_bytes: 64 * 1024,
                ways: 2,
                line_bytes: 64,
                latency: 2,
            },
            l1d: CacheConfig {
                size_bytes: 64 * 1024,
                ways: 2,
                line_bytes: 64,
                latency: 2,
            },
            l2: CacheConfig {
                size_bytes: 2 * 1024 * 1024,
                ways: 8,
                line_bytes: 64,
                latency: 12,
            },
            memory_latency: 80,
            fu: FuConfig {
                int_alu: 8,
                int_mul_div: 2,
                fp_alu: 4,
                fp_mul_div: 2,
            },
            latency: LatencyConfig {
                int_alu: 1,
                int_mul: 3,
                int_div: 12,
                fp_alu: 2,
                fp_mul: 4,
                fp_div: 12,
            },
            branch_model: BranchModel::Profile,
            memory_system: None,
        }
    }

    /// The cache hierarchy this configuration describes.
    pub fn cache_geometry(&self) -> CacheGeometry {
        CacheGeometry {
            l1i: self.l1i,
            l1d: self.l1d,
            l2: self.l2,
            memory_latency: self.memory_latency,
        }
    }

    /// Validates internal consistency (widths nonzero, caches well-formed).
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on any inconsistency. Called by
    /// [`crate::Cpu::new`].
    pub fn validate(&self) {
        assert!(self.fetch_width > 0, "fetch width must be nonzero");
        assert!(self.dispatch_width > 0, "dispatch width must be nonzero");
        assert!(self.issue_width > 0, "issue width must be nonzero");
        assert!(self.commit_width > 0, "commit width must be nonzero");
        assert!(self.rob_entries > 0, "ROB must be nonzero");
        assert!(self.lsq_entries > 0, "LSQ must be nonzero");
        assert!(self.fetch_buffer > 0, "fetch buffer must be nonzero");
        assert!(self.mem_ports > 0, "memory ports must be nonzero");
        assert!(self.fu.int_alu > 0, "need at least one integer ALU");
        if let Some(ms) = &self.memory_system {
            ms.validate();
        }
        if let BranchModel::Predictor { entries, .. } = self.branch_model {
            assert!(
                entries.is_power_of_two(),
                "predictor table must be a power of two"
            );
        }
        // Cache geometry checks (sets() panics on bad geometry).
        let _ = self.l1i.sets();
        let _ = self.l1d.sets();
        let _ = self.l2.sets();
    }
}

impl Default for CpuConfig {
    fn default() -> Self {
        Self::isca04_table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_is_valid() {
        CpuConfig::isca04_table1().validate();
    }

    #[test]
    fn table1_matches_paper() {
        let c = CpuConfig::isca04_table1();
        assert_eq!(c.issue_width, 8);
        assert_eq!(c.rob_entries, 128);
        assert_eq!(c.lsq_entries, 128);
        assert_eq!(c.l1d.size_bytes, 64 * 1024);
        assert_eq!(c.l1d.ways, 2);
        assert_eq!(c.l1d.latency, 2);
        assert_eq!(c.l2.size_bytes, 2 * 1024 * 1024);
        assert_eq!(c.l2.ways, 8);
        assert_eq!(c.l2.latency, 12);
        assert_eq!(c.memory_latency, 80);
        assert_eq!(c.mem_ports, 2);
        assert_eq!(c.fu.int_alu, 8);
        assert_eq!(c.fu.fp_alu, 4);
    }

    #[test]
    fn cache_sets_computation() {
        let c = CacheConfig {
            size_bytes: 64 * 1024,
            ways: 2,
            line_bytes: 64,
            latency: 2,
        };
        assert_eq!(c.sets(), 512);
        let l2 = CacheConfig {
            size_bytes: 2 * 1024 * 1024,
            ways: 8,
            line_bytes: 64,
            latency: 12,
        };
        assert_eq!(l2.sets(), 4096);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        let c = CacheConfig {
            size_bytes: 3 * 1024,
            ways: 2,
            line_bytes: 64,
            latency: 1,
        };
        let _ = c.sets();
    }

    #[test]
    #[should_panic(expected = "zero sets")]
    fn zero_sets_panics() {
        let c = CacheConfig {
            size_bytes: 64,
            ways: 2,
            line_bytes: 64,
            latency: 1,
        };
        let _ = c.sets();
    }

    #[test]
    #[should_panic(expected = "issue width")]
    fn invalid_config_panics() {
        let mut c = CpuConfig::isca04_table1();
        c.issue_width = 0;
        c.validate();
    }

    #[test]
    fn default_is_table1() {
        assert_eq!(CpuConfig::default(), CpuConfig::isca04_table1());
    }
}
