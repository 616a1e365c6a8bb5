//! Spreading of multi-cycle operation current over pipeline stages.
//!
//! Wattch charges the whole energy of an event (e.g. a cache access) in the
//! cycle it starts; the paper extends it to spread the current of
//! multi-cycle operations over the cycles they actually occupy (Section
//! 4.1), as \[10\] and \[14\] also did. [`ActivitySpreader`] implements that: a
//! contribution of total weight `amount` scheduled `delay` cycles ahead and
//! lasting `duration` cycles is delivered as `amount/duration` per cycle.

/// A ring buffer of future per-cycle activity contributions for one
/// structure.
///
/// Slots are found without division: `head < n` and every offset is
/// clamped below `n`, so `head + offset < 2n` and one compare-and-subtract
/// gives the slot `(head + offset) % n` would.
#[derive(Debug, Clone)]
pub struct ActivitySpreader {
    ring: Vec<f64>,
    head: usize,
}

impl ActivitySpreader {
    /// Creates a spreader able to schedule up to `horizon` cycles ahead.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    pub fn new(horizon: usize) -> Self {
        assert!(horizon > 0, "spreader horizon must be nonzero");
        Self {
            ring: vec![0.0; horizon],
            head: 0,
        }
    }

    /// Schedules `amount` of activity spread evenly over `duration` cycles
    /// beginning `delay` cycles from now. Contributions beyond the horizon
    /// are clamped to the last slot (never dropped, so energy is conserved).
    #[inline]
    pub fn schedule(&mut self, delay: u32, duration: u32, amount: f64) {
        debug_assert!(amount >= 0.0, "activity must be non-negative");
        let duration = duration.max(1);
        let per_cycle = amount / duration as f64;
        let n = self.ring.len();
        for k in 0..duration {
            let offset = ((delay + k) as usize).min(n - 1);
            let mut slot = self.head + offset;
            if slot >= n {
                slot -= n;
            }
            self.ring[slot] += per_cycle;
        }
    }

    /// Pops the activity that lands in the current cycle and advances time.
    #[inline]
    pub fn drain_cycle(&mut self) -> f64 {
        let v = self.ring[self.head];
        self.ring[self.head] = 0.0;
        self.head += 1;
        if self.head == self.ring.len() {
            self.head = 0;
        }
        v
    }

    /// Total activity still scheduled (for tests / conservation checks).
    pub fn pending(&self) -> f64 {
        self.ring.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `%`-indexed spreader the division-free ring replaced, kept as
    /// the oracle of the equivalence property.
    struct ModuloSpreader {
        ring: Vec<f64>,
        head: usize,
    }

    impl ModuloSpreader {
        fn schedule(&mut self, delay: u32, duration: u32, amount: f64) {
            let duration = duration.max(1);
            let per_cycle = amount / duration as f64;
            let n = self.ring.len();
            for k in 0..duration {
                let offset = ((delay + k) as usize).min(n - 1);
                let slot = (self.head + offset) % n;
                self.ring[slot] += per_cycle;
            }
        }

        fn drain_cycle(&mut self) -> f64 {
            let v = self.ring[self.head];
            self.ring[self.head] = 0.0;
            self.head = (self.head + 1) % self.ring.len();
            v
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random schedules — delays and durations reaching past the
        /// horizon, so the clamp is exercised — drain the same bits from
        /// the division-free ring as from the `%`-indexed oracle, drain by
        /// drain.
        #[test]
        fn division_free_ring_matches_the_modulo_oracle(
            horizon in 1usize..130,
            ops in prop::collection::vec(
                (0u32..200, 0u32..120, 0.0f64..50.0, 0u32..4),
                1..300,
            ),
        ) {
            let mut fast = ActivitySpreader::new(horizon);
            let mut oracle = ModuloSpreader { ring: vec![0.0; horizon], head: 0 };
            for (i, &(delay, duration, amount, drains)) in ops.iter().enumerate() {
                fast.schedule(delay, duration, amount);
                oracle.schedule(delay, duration, amount);
                for d in 0..drains {
                    let (got, want) = (fast.drain_cycle(), oracle.drain_cycle());
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "op {} drain {}", i, d);
                }
            }
            for d in 0..=horizon {
                let (got, want) = (fast.drain_cycle(), oracle.drain_cycle());
                prop_assert_eq!(got.to_bits(), want.to_bits(), "final drain {}", d);
            }
        }
    }

    #[test]
    fn immediate_single_cycle_delivery() {
        let mut s = ActivitySpreader::new(8);
        s.schedule(0, 1, 1.0);
        assert!((s.drain_cycle() - 1.0).abs() < 1e-12);
        assert_eq!(s.drain_cycle(), 0.0);
    }

    #[test]
    fn delayed_delivery() {
        let mut s = ActivitySpreader::new(8);
        s.schedule(3, 1, 2.0);
        assert_eq!(s.drain_cycle(), 0.0);
        assert_eq!(s.drain_cycle(), 0.0);
        assert_eq!(s.drain_cycle(), 0.0);
        assert!((s.drain_cycle() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn spreading_conserves_total() {
        let mut s = ActivitySpreader::new(128);
        s.schedule(14, 80, 1.0); // memory access: 80 cycles starting at +14
        let mut total = 0.0;
        for _ in 0..128 {
            total += s.drain_cycle();
        }
        assert!((total - 1.0).abs() < 1e-9, "total delivered = {total}");
    }

    #[test]
    fn spread_is_even_across_duration() {
        let mut s = ActivitySpreader::new(16);
        s.schedule(2, 4, 1.0);
        let vals: Vec<f64> = (0..8).map(|_| s.drain_cycle()).collect();
        assert_eq!(vals[0], 0.0);
        assert_eq!(vals[1], 0.0);
        for v in &vals[2..6] {
            assert!((v - 0.25).abs() < 1e-12);
        }
        assert_eq!(vals[6], 0.0);
    }

    #[test]
    fn beyond_horizon_clamps_but_conserves() {
        let mut s = ActivitySpreader::new(4);
        s.schedule(10, 5, 1.0); // entirely beyond horizon: lands in last slot
        let mut total = 0.0;
        for _ in 0..8 {
            total += s.drain_cycle();
        }
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_schedules_accumulate() {
        let mut s = ActivitySpreader::new(8);
        s.schedule(0, 2, 1.0);
        s.schedule(1, 2, 1.0);
        assert!((s.drain_cycle() - 0.5).abs() < 1e-12);
        assert!((s.drain_cycle() - 1.0).abs() < 1e-12);
        assert!((s.drain_cycle() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pending_tracks_outstanding_work() {
        let mut s = ActivitySpreader::new(8);
        s.schedule(2, 2, 3.0);
        assert!((s.pending() - 3.0).abs() < 1e-12);
        s.drain_cycle();
        s.drain_cycle();
        s.drain_cycle();
        assert!((s.pending() - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn zero_horizon_panics() {
        let _ = ActivitySpreader::new(0);
    }
}
