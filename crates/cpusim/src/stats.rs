//! Per-cycle event reporting and whole-run statistics.

use crate::control::PhantomLevel;
use crate::isa::OpClass;

/// Everything that happened in one processor cycle, as consumed by the power
/// model. All counts are for this cycle only.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CycleEvents {
    /// Instructions fetched into the fetch buffer.
    pub fetched: u32,
    /// Instructions dispatched (renamed) into the window.
    pub dispatched: u32,
    /// Instructions issued, per [`OpClass::index`].
    pub issued: [u32; 9],
    /// Instructions that completed execution (wrote back).
    pub completed: u32,
    /// Instructions committed.
    pub committed: u32,
    /// L1 I-cache accesses.
    pub l1i_accesses: u32,
    /// L1 D-cache accesses (load/store issue plus store commit).
    pub l1d_accesses: u32,
    /// Accesses that reached the L2.
    pub l2_accesses: u32,
    /// Accesses that reached main memory.
    pub mem_accesses: u32,
    /// Occupied reorder-buffer entries at end of cycle.
    pub rob_occupancy: u32,
    /// A mispredicted branch resolved this cycle (squash + redirect).
    pub mispredict_redirect: bool,
    /// Phantom-operation level active this cycle, if any.
    pub phantom: Option<PhantomLevel>,
}

impl CycleEvents {
    /// Total instructions issued this cycle across all classes.
    #[inline]
    pub fn issued_total(&self) -> u32 {
        self.issued.iter().sum()
    }

    /// Issued count for one class.
    #[inline]
    pub fn issued_of(&self, op: OpClass) -> u32 {
        self.issued[op.index()]
    }
}

/// Aggregate statistics for a run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Instructions fetched.
    pub fetched: u64,
    /// Instructions issued.
    pub issued: u64,
    /// Committed instructions per class.
    pub committed_by_class: [u64; 9],
    /// L1D accesses / misses.
    pub l1d_accesses: u64,
    /// L1D misses (serviced by L2 or beyond).
    pub l1d_misses: u64,
    /// L2 misses (serviced by memory).
    pub l2_misses: u64,
    /// Mispredicted branches resolved.
    pub mispredicts: u64,
    /// Cycles in which issue was fully stalled by external control.
    pub stalled_cycles: u64,
}

impl RunStats {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Folds one cycle's events into the aggregate.
    #[inline]
    pub fn absorb(&mut self, ev: &CycleEvents) {
        self.cycles += 1;
        self.committed += ev.committed as u64;
        self.fetched += ev.fetched as u64;
        self.issued += ev.issued_total() as u64;
        self.l1d_accesses += ev.l1d_accesses as u64;
        if ev.mispredict_redirect {
            self.mispredicts += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issued_total_sums_classes() {
        let mut ev = CycleEvents::default();
        ev.issued[OpClass::IntAlu.index()] = 3;
        ev.issued[OpClass::Load.index()] = 2;
        assert_eq!(ev.issued_total(), 5);
        assert_eq!(ev.issued_of(OpClass::Load), 2);
        assert_eq!(ev.issued_of(OpClass::FpMul), 0);
    }

    #[test]
    fn ipc_handles_zero_cycles() {
        assert_eq!(RunStats::default().ipc(), 0.0);
    }

    #[test]
    fn absorb_accumulates() {
        let mut s = RunStats::default();
        let mut issued = [0u32; 9];
        issued[0] = 4;
        let ev = CycleEvents {
            committed: 4,
            fetched: 8,
            issued,
            mispredict_redirect: true,
            ..CycleEvents::default()
        };
        s.absorb(&ev);
        s.absorb(&ev);
        assert_eq!(s.cycles, 2);
        assert_eq!(s.committed, 8);
        assert_eq!(s.fetched, 16);
        assert_eq!(s.issued, 8);
        assert_eq!(s.mispredicts, 2);
        assert!((s.ipc() - 4.0).abs() < 1e-12);
    }
}
