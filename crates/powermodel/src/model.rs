//! The activity-to-current model.
//!
//! Each cycle, the pipeline's [`CycleEvents`] are converted into
//! per-structure activity factors in `[0, 1]`, weighted by the configured
//! structure shares, and mapped linearly onto the current envelope
//! `[idle_current, peak_current]`. Multi-cycle cache/memory and long-latency
//! functional-unit operations are spread over the cycles they occupy via
//! [`crate::spread::ActivitySpreader`]. Phantom operations
//! impose a *floor* on chip current (they consume current but do no work).

use cpusim::{CpuConfig, CycleEvents, OpClass, PhantomLevel};
use rlc::units::Amps;

use crate::config::PowerConfig;
use crate::spread::ActivitySpreader;

/// One cycle's current split across pipeline structures.
///
/// `total = idle + Σ(structure contributions) + phantom + detector`, up to
/// the envelope clamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurrentBreakdown {
    /// The gated-idle floor (global clock + residual draws).
    pub idle: Amps,
    /// Instruction fetch.
    pub fetch: Amps,
    /// Decode/rename.
    pub dispatch: Amps,
    /// Issue window wakeup/select.
    pub window: Amps,
    /// Register file.
    pub regfile: Amps,
    /// Integer ALUs and branch units.
    pub int_alu: Amps,
    /// Integer multiply/divide.
    pub int_mul: Amps,
    /// Floating-point units.
    pub fp: Amps,
    /// L1 instruction cache.
    pub l1i: Amps,
    /// L1 data cache.
    pub l1d: Amps,
    /// Unified L2.
    pub l2: Amps,
    /// Memory bus / DRAM interface.
    pub mem_bus: Amps,
    /// Result (writeback) bus.
    pub result_bus: Amps,
    /// Commit logic.
    pub commit: Amps,
    /// Extra current added by phantom operations (above real activity).
    pub phantom: Amps,
    /// Detection-hardware overhead.
    pub detector: Amps,
    /// The chip current for the cycle.
    pub total: Amps,
}

impl CurrentBreakdown {
    /// Sum of the per-structure dynamic contributions (excluding idle,
    /// phantom, and detector terms).
    pub fn dynamic_total(&self) -> Amps {
        Amps::new(
            self.fetch.amps()
                + self.dispatch.amps()
                + self.window.amps()
                + self.regfile.amps()
                + self.int_alu.amps()
                + self.int_mul.amps()
                + self.fp.amps()
                + self.l1i.amps()
                + self.l1d.amps()
                + self.l2.amps()
                + self.mem_bus.amps()
                + self.result_bus.amps()
                + self.commit.amps(),
        )
    }
}

/// One advance of the model: everything `breakdown_for` needs, of which the
/// total-only path reads just `total`.
struct ModelStep {
    contributions: [f64; 13],
    weighted: f64,
    scale: f64,
    phantom_amps: f64,
    detector_amps: f64,
    total: f64,
}

/// Converts per-cycle pipeline events into processor current.
///
/// The model is stateful because of current spreading: the current of a
/// memory access started in cycle *c* flows during cycles *c..c+94*.
///
/// # Examples
///
/// ```
/// use cpusim::{CpuConfig, CycleEvents};
/// use powermodel::{PowerConfig, PowerModel};
///
/// let mut model = PowerModel::new(PowerConfig::isca04_table1(), CpuConfig::isca04_table1());
/// // An idle cycle draws the idle current.
/// let i = model.current_for(&CycleEvents::default());
/// assert!((i.amps() - 35.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct PowerModel {
    power: PowerConfig,
    cpu: CpuConfig,
    l1d_spread: ActivitySpreader,
    l2_spread: ActivitySpreader,
    mem_spread: ActivitySpreader,
    fu_spread: ActivitySpreader,
    detector_enabled: bool,
    /// `power.weights.total()`, the activity normaliser.
    norm: f64,
    /// `power.dynamic_range()` in amps.
    range: f64,
    /// `range / norm`: amps per unit of weighted activity.
    scale: f64,
}

impl PowerModel {
    /// Creates a model for the given power envelope and machine geometry.
    ///
    /// # Panics
    ///
    /// Panics if either configuration is invalid.
    pub fn new(power: PowerConfig, cpu: CpuConfig) -> Self {
        power.validate();
        cpu.validate();
        let horizon = (cpu.memory_latency + cpu.l2.latency + cpu.l1d.latency + 2) as usize;
        let norm = power.weights.total();
        let range = power.dynamic_range().amps();
        Self {
            detector_enabled: power.detector_overhead.amps() > 0.0,
            norm,
            range,
            scale: range / norm,
            power,
            cpu,
            l1d_spread: ActivitySpreader::new(horizon),
            l2_spread: ActivitySpreader::new(horizon),
            mem_spread: ActivitySpreader::new(horizon),
            fu_spread: ActivitySpreader::new(horizon),
        }
    }

    /// The power configuration.
    pub fn power_config(&self) -> &PowerConfig {
        &self.power
    }

    /// Converts one cycle's events into the chip current for that cycle.
    ///
    /// Must be called exactly once per simulated cycle (the spreaders
    /// advance time internally).
    ///
    /// This is the total-only fast path: it runs the same model step as
    /// [`PowerModel::breakdown_for`] — the total is fully determined before
    /// any per-structure attribution — but skips assembling the 13-entry
    /// [`CurrentBreakdown`], which the per-cycle hot loop never reads.
    #[inline]
    pub fn current_for(&mut self, ev: &CycleEvents) -> Amps {
        Amps::new(self.step(ev).total)
    }

    /// Converts a batch of per-cycle events into per-cycle chip current
    /// (amps), appended to `out`.
    ///
    /// The spreaders are stateful, so the batch is evaluated serially; a
    /// batch call is bit-exact with the equivalent [`PowerModel::current_for`]
    /// loop for any batch size. Exists so flat-buffer kernels can fill a
    /// current buffer in one call per chunk.
    pub fn current_for_batch(&mut self, events: &[CycleEvents], out: &mut Vec<f64>) {
        out.reserve(events.len());
        for ev in events {
            out.push(self.step(ev).total);
        }
    }

    /// Like [`PowerModel::current_for`], but also reporting how the dynamic
    /// current splits across pipeline structures (for characterization and
    /// the per-structure plots a power methodology paper would show).
    ///
    /// Must be called exactly once per simulated cycle — like `current_for`
    /// it advances the model by one step; the two differ only in how much of
    /// the step's result they report.
    pub fn breakdown_for(&mut self, ev: &CycleEvents) -> CurrentBreakdown {
        let s = self.step(ev);
        // Per-structure amps; when the weighted sum saturated at 1.0, scale
        // contributions down proportionally so they still add up.
        let saturation = if s.weighted > 1.0 {
            1.0 / s.weighted
        } else {
            1.0
        };
        let amps = |c: f64| c * s.scale * saturation;
        CurrentBreakdown {
            idle: self.power.idle_current,
            fetch: Amps::new(amps(s.contributions[0])),
            dispatch: Amps::new(amps(s.contributions[1])),
            window: Amps::new(amps(s.contributions[2])),
            regfile: Amps::new(amps(s.contributions[3])),
            int_alu: Amps::new(amps(s.contributions[4])),
            int_mul: Amps::new(amps(s.contributions[5])),
            fp: Amps::new(amps(s.contributions[6])),
            l1i: Amps::new(amps(s.contributions[7])),
            l1d: Amps::new(amps(s.contributions[8])),
            l2: Amps::new(amps(s.contributions[9])),
            mem_bus: Amps::new(amps(s.contributions[10])),
            result_bus: Amps::new(amps(s.contributions[11])),
            commit: Amps::new(amps(s.contributions[12])),
            phantom: Amps::new(s.phantom_amps),
            detector: Amps::new(s.detector_amps),
            total: Amps::new(s.total),
        }
    }

    /// Advances the model by one cycle: schedules this cycle's spread
    /// activity, drains the spreaders, and computes the chip current. The
    /// single implementation behind both `current_for` and `breakdown_for`.
    #[inline]
    fn step(&mut self, ev: &CycleEvents) -> ModelStep {
        let w = self.power.weights;
        let norm = self.norm;
        let cpu = self.cpu;

        // Schedule the spread portions of this cycle's new events.
        // L1D accesses occupy the cache for its hit latency.
        if ev.l1d_accesses > 0 {
            self.l1d_spread.schedule(
                0,
                cpu.l1d.latency,
                ev.l1d_accesses as f64 / cpu.mem_ports as f64,
            );
        }
        // L2 accesses begin after the L1 latency and occupy the L2 pipeline.
        if ev.l2_accesses > 0 {
            self.l2_spread
                .schedule(cpu.l1d.latency, cpu.l2.latency, ev.l2_accesses as f64);
        }
        // Memory accesses begin after L1+L2 and keep the bus/DRAM active.
        if ev.mem_accesses > 0 {
            self.mem_spread.schedule(
                cpu.l1d.latency + cpu.l2.latency,
                cpu.memory_latency,
                ev.mem_accesses as f64,
            );
        }
        // Long-latency functional units stay busy for their full latency.
        let lat = &cpu.latency;
        let fu_work = [
            (OpClass::IntMul, lat.int_mul, cpu.fu.int_mul_div),
            (OpClass::IntDiv, lat.int_div, cpu.fu.int_mul_div),
            (OpClass::FpAlu, lat.fp_alu, cpu.fu.fp_alu),
            (OpClass::FpMul, lat.fp_mul, cpu.fu.fp_mul_div),
            (OpClass::FpDiv, lat.fp_div, cpu.fu.fp_mul_div),
        ];
        for (op, latency, units) in fu_work {
            let n = ev.issued_of(op);
            if n > 0 {
                self.fu_spread.schedule(0, latency, n as f64 / units as f64);
            }
        }

        // Per-structure activity factors for this cycle.
        let clamp = |x: f64| x.clamp(0.0, 1.0);
        let issued_total = ev.issued_total() as f64;
        let a_fetch = clamp(ev.fetched as f64 / cpu.fetch_width as f64);
        let a_dispatch = clamp(ev.dispatched as f64 / cpu.dispatch_width as f64);
        // Window energy: wakeup broadcast (completions) + selection (issued)
        // + CAM of occupied entries.
        let a_window = clamp(
            0.5 * (issued_total + ev.completed as f64) / cpu.issue_width as f64
                + 0.3 * ev.rob_occupancy as f64 / cpu.rob_entries as f64,
        );
        let a_regfile =
            clamp((2.0 * issued_total + ev.completed as f64) / (3.0 * cpu.issue_width as f64));
        let a_int_alu = clamp(
            (ev.issued_of(OpClass::IntAlu) + ev.issued_of(OpClass::Branch)) as f64
                / cpu.fu.int_alu as f64,
        );
        let a_int_mul = clamp(self.fu_spread_take_placeholder());
        let a_l1i = clamp(ev.l1i_accesses as f64);
        let a_l1d = clamp(self.l1d_spread.drain_cycle());
        let a_l2 = clamp(self.l2_spread.drain_cycle());
        let a_mem = clamp(self.mem_spread.drain_cycle());
        let a_result = clamp(ev.completed as f64 / cpu.issue_width as f64);
        let a_commit = clamp(ev.committed as f64 / cpu.commit_width as f64);

        // The FP/int-mul spreader is shared; split it between the two FU
        // weight buckets proportionally (int mul/div is a small share).
        let fu_busy = a_int_mul;
        let a_fp = fu_busy;

        let (range, scale) = (self.range, self.scale);
        let contributions = [
            w.fetch * a_fetch,
            w.dispatch * a_dispatch,
            w.window * a_window,
            w.regfile * a_regfile,
            w.int_alu * a_int_alu,
            w.int_mul * fu_busy,
            w.fp * a_fp,
            w.l1i * a_l1i,
            w.l1d * a_l1d,
            w.l2 * a_l2,
            w.mem_bus * a_mem,
            w.result_bus * a_result,
            w.commit * a_commit,
        ];
        let weighted: f64 = contributions.iter().sum::<f64>() / norm;
        let mut current = self.power.idle_current.amps() + range * clamp(weighted);

        // Phantom operations hold the chip at a current floor.
        let mut phantom_amps = 0.0;
        if let Some(level) = ev.phantom {
            let target = match level {
                PhantomLevel::Medium => self.power.idle_current.amps() + 0.5 * range,
                PhantomLevel::High => self.power.idle_current.amps() + 0.95 * range,
                PhantomLevel::Floor(amps) => (amps as f64).clamp(
                    self.power.idle_current.amps(),
                    self.power.peak_current.amps(),
                ),
            };
            if target > current {
                phantom_amps = target - current;
                current = target;
            }
        }

        let detector_amps = if self.detector_enabled {
            self.power.detector_overhead.amps()
        } else {
            0.0
        };
        current += detector_amps;

        ModelStep {
            contributions,
            weighted,
            scale,
            phantom_amps,
            detector_amps,
            total: current,
        }
    }

    /// Drains the shared long-latency FU spreader for this cycle.
    #[inline]
    fn fu_spread_take_placeholder(&mut self) -> f64 {
        self.fu_spread.drain_cycle()
    }

    /// The medium current level phantom operations maintain (midpoint of the
    /// envelope, the paper's "medium level of processor current").
    pub fn medium_current(&self) -> Amps {
        self.power.idle_current + self.power.dynamic_range() * 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PowerModel {
        PowerModel::new(PowerConfig::isca04_table1(), CpuConfig::isca04_table1())
    }

    fn busy_events() -> CycleEvents {
        let mut issued = [0u32; 9];
        issued[OpClass::IntAlu.index()] = 6;
        issued[OpClass::Load.index()] = 2;
        CycleEvents {
            fetched: 8,
            dispatched: 8,
            issued,
            completed: 8,
            committed: 8,
            l1i_accesses: 1,
            l1d_accesses: 2,
            rob_occupancy: 100,
            ..CycleEvents::default()
        }
    }

    #[test]
    fn idle_cycle_draws_idle_current() {
        let mut m = model();
        let i = m.current_for(&CycleEvents::default());
        assert!((i.amps() - 35.0).abs() < 1e-9, "idle current = {i}");
    }

    #[test]
    fn current_never_exceeds_envelope() {
        let mut m = model();
        for _ in 0..200 {
            let i = m.current_for(&busy_events());
            assert!(i.amps() >= 35.0 - 1e-9);
            assert!(i.amps() <= 105.0 + 1e-9, "current {i} above peak");
        }
    }

    #[test]
    fn busy_cycles_draw_much_more_than_idle() {
        let mut m = model();
        // Warm up the spreaders.
        let mut last = Amps::new(0.0);
        for _ in 0..10 {
            last = m.current_for(&busy_events());
        }
        assert!(last.amps() > 70.0, "sustained busy current = {last}");
    }

    #[test]
    fn activity_swing_spans_tens_of_amps() {
        // The paper's machine swings between 35 A and 105 A; a burst-idle
        // pattern must produce swings beyond the 32 A resonant threshold.
        let mut m = model();
        let mut hi: f64 = 0.0;
        let mut lo: f64 = f64::MAX;
        for c in 0..400 {
            let ev = if (c / 50) % 2 == 0 {
                busy_events()
            } else {
                CycleEvents::default()
            };
            let i = m.current_for(&ev).amps();
            if c > 100 {
                hi = hi.max(i);
                lo = lo.min(i);
            }
        }
        assert!(hi - lo > 32.0, "swing = {} A", hi - lo);
    }

    #[test]
    fn phantom_medium_floors_current_at_midpoint() {
        let mut m = model();
        let ev = CycleEvents {
            phantom: Some(PhantomLevel::Medium),
            ..CycleEvents::default()
        };
        let i = m.current_for(&ev);
        assert!(
            (i.amps() - 70.0).abs() < 1e-9,
            "medium phantom current = {i}"
        );
        assert_eq!(m.medium_current(), Amps::new(70.0));
    }

    #[test]
    fn phantom_high_approaches_peak() {
        let mut m = model();
        let ev = CycleEvents {
            phantom: Some(PhantomLevel::High),
            ..CycleEvents::default()
        };
        let i = m.current_for(&ev);
        assert!(i.amps() > 95.0, "high phantom current = {i}");
    }

    #[test]
    fn phantom_does_not_reduce_real_activity_current() {
        let mut a = model();
        let mut b = model();
        let mut ev = busy_events();
        let plain = (0..20)
            .map(|_| a.current_for(&ev).amps())
            .fold(0.0, f64::max);
        ev.phantom = Some(PhantomLevel::Medium);
        let with_phantom = (0..20)
            .map(|_| b.current_for(&ev).amps())
            .fold(0.0, f64::max);
        assert!(with_phantom >= plain - 1e-9);
    }

    #[test]
    fn memory_access_current_is_spread_over_latency() {
        let mut m = model();
        let ev = CycleEvents {
            l1d_accesses: 1,
            l2_accesses: 1,
            mem_accesses: 1,
            ..CycleEvents::default()
        };
        let first = m.current_for(&ev).amps();
        // Subsequent idle cycles still carry the spread L2/memory current.
        let mut elevated = 0;
        for _ in 0..90 {
            let i = m.current_for(&CycleEvents::default()).amps();
            if i > 35.01 {
                elevated += 1;
            }
        }
        assert!(first < 105.0);
        assert!(
            elevated > 60,
            "memory current should persist, saw {elevated} elevated cycles"
        );
    }

    #[test]
    fn breakdown_sums_to_total_without_phantom() {
        let mut m = model();
        for _ in 0..30 {
            let b = m.breakdown_for(&busy_events());
            let reconstructed =
                b.idle.amps() + b.dynamic_total().amps() + b.phantom.amps() + b.detector.amps();
            assert!(
                (reconstructed - b.total.amps()).abs() < 1e-9,
                "breakdown {reconstructed} vs total {}",
                b.total
            );
        }
    }

    #[test]
    fn breakdown_attributes_phantom_current() {
        let mut m = model();
        let ev = CycleEvents {
            phantom: Some(PhantomLevel::High),
            ..CycleEvents::default()
        };
        let b = m.breakdown_for(&ev);
        assert!(
            b.phantom.amps() > 60.0,
            "idle chip + high phantom, got {}",
            b.phantom
        );
        assert!(
            (b.idle.amps() + b.dynamic_total().amps() + b.phantom.amps() - b.total.amps()).abs()
                < 1e-9
        );
    }

    #[test]
    fn breakdown_shows_cache_heavy_cycles() {
        let mut m = model();
        let ev = CycleEvents {
            l1d_accesses: 2,
            ..CycleEvents::default()
        };
        let _ = m.breakdown_for(&ev);
        let b = m.breakdown_for(&CycleEvents::default());
        assert!(
            b.l1d.amps() > 0.0,
            "spread L1D current must appear in the breakdown"
        );
        assert!(b.fetch.amps() == 0.0);
    }

    /// A deterministic mixed stream: busy bursts, idle gaps, memory traffic,
    /// phantom cycles — every branch of the model step.
    fn mixed_stream(n: usize) -> Vec<CycleEvents> {
        (0..n)
            .map(|c| match c % 7 {
                0..=2 => busy_events(),
                3 => CycleEvents {
                    l1d_accesses: 2,
                    l2_accesses: 1,
                    mem_accesses: 1,
                    ..busy_events()
                },
                4 => CycleEvents {
                    phantom: Some(PhantomLevel::Medium),
                    ..CycleEvents::default()
                },
                _ => CycleEvents::default(),
            })
            .collect()
    }

    #[test]
    fn current_for_matches_breakdown_total_bit_exactly() {
        // The total-only fast path and the breakdown path must advance the
        // same state and compute the same total, bit for bit.
        let mut fast = model();
        let mut full = model();
        for (c, ev) in mixed_stream(500).iter().enumerate() {
            let a = fast.current_for(ev).amps();
            let b = full.breakdown_for(ev).total.amps();
            assert_eq!(a.to_bits(), b.to_bits(), "total diverged at cycle {c}");
        }
    }

    #[test]
    fn batch_current_matches_serial_bit_exactly() {
        let stream = mixed_stream(600);
        let mut serial = model();
        let mut batched = model();
        let serial_out: Vec<f64> = stream
            .iter()
            .map(|ev| serial.current_for(ev).amps())
            .collect();
        let mut batch_out = Vec::new();
        for chunk in stream.chunks(113) {
            batched.current_for_batch(chunk, &mut batch_out);
        }
        assert_eq!(serial_out.len(), batch_out.len());
        for (c, (a, b)) in serial_out.iter().zip(&batch_out).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "batch diverged at cycle {c}");
        }
    }

    #[test]
    fn detector_overhead_is_charged_when_enabled() {
        let mut plain = model();
        let mut with = PowerModel::new(
            PowerConfig::isca04_table1_with_detector(),
            CpuConfig::isca04_table1(),
        );
        let a = plain.current_for(&CycleEvents::default()).amps();
        let b = with.current_for(&CycleEvents::default()).amps();
        assert!(b > a && b - a < 1.0, "overhead = {}", b - a);
    }
}
