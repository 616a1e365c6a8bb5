//! Energy accounting.
//!
//! Energy per cycle is `I · V<sub>dd</sub> · t_cycle`. The experiments report
//! *relative* energy and energy-delay (technique vs. base run), so the meter
//! keeps absolute joules and exposes ratio helpers.

use rlc::units::{Amps, Hertz, Volts};

/// Accumulates energy over a run, one cycle at a time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyMeter {
    vdd: Volts,
    cycle_time: f64,
    joules: f64,
    cycles: u64,
}

impl EnergyMeter {
    /// Creates a meter for a machine at `vdd` clocked at `clock`.
    ///
    /// # Panics
    ///
    /// Panics if `clock` or `vdd` is not finite and positive.
    pub fn new(vdd: Volts, clock: Hertz) -> Self {
        assert!(
            vdd.volts().is_finite() && vdd.volts() > 0.0,
            "Vdd must be positive"
        );
        assert!(
            clock.hertz().is_finite() && clock.hertz() > 0.0,
            "clock must be positive"
        );
        Self {
            vdd,
            cycle_time: 1.0 / clock.hertz(),
            joules: 0.0,
            cycles: 0,
        }
    }

    /// Records one cycle at the given current.
    pub fn record(&mut self, current: Amps) {
        self.joules += current.amps() * self.vdd.volts() * self.cycle_time;
        self.cycles += 1;
    }

    /// Total energy so far in joules.
    pub fn joules(&self) -> f64 {
        self.joules
    }

    /// Cycles recorded.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Average power in watts (0 before any cycle is recorded).
    pub fn average_power_watts(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.joules / (self.cycles as f64 * self.cycle_time)
        }
    }

    /// Energy–delay product in joule-seconds.
    pub fn energy_delay(&self) -> f64 {
        self.joules * self.cycles as f64 * self.cycle_time
    }
}

/// Relative energy and energy-delay of a technique run against a base run
/// *for the same committed instruction count*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelativeCost {
    /// Technique cycles / base cycles.
    pub slowdown: f64,
    /// Technique energy / base energy.
    pub relative_energy: f64,
    /// Technique (energy × delay) / base (energy × delay).
    pub relative_energy_delay: f64,
}

impl RelativeCost {
    /// Computes relative cost from base and technique meters.
    ///
    /// # Panics
    ///
    /// Panics if the base run is empty.
    pub fn from_meters(base: &EnergyMeter, technique: &EnergyMeter) -> Self {
        assert!(
            base.cycles() > 0 && base.joules() > 0.0,
            "base run must be non-empty"
        );
        let slowdown = technique.cycles() as f64 / base.cycles() as f64;
        let relative_energy = technique.joules() / base.joules();
        Self {
            slowdown,
            relative_energy,
            relative_energy_delay: relative_energy * slowdown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter() -> EnergyMeter {
        EnergyMeter::new(Volts::new(1.0), Hertz::from_giga(10.0))
    }

    #[test]
    fn single_cycle_energy() {
        let mut m = meter();
        m.record(Amps::new(100.0));
        // 100 A × 1 V × 100 ps = 10 nJ.
        assert!((m.joules() - 1e-8).abs() < 1e-14);
        assert_eq!(m.cycles(), 1);
    }

    #[test]
    fn average_power_matches_current_times_vdd() {
        let mut m = meter();
        for _ in 0..1000 {
            m.record(Amps::new(70.0));
        }
        assert!((m.average_power_watts() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn energy_delay_scales_quadratically_with_time_at_fixed_power() {
        let mut a = meter();
        let mut b = meter();
        for _ in 0..100 {
            a.record(Amps::new(50.0));
        }
        for _ in 0..200 {
            b.record(Amps::new(50.0));
        }
        assert!((b.energy_delay() / a.energy_delay() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn relative_cost_identity() {
        let mut base = meter();
        for _ in 0..100 {
            base.record(Amps::new(80.0));
        }
        let rel = RelativeCost::from_meters(&base, &base.clone());
        assert!((rel.slowdown - 1.0).abs() < 1e-12);
        assert!((rel.relative_energy - 1.0).abs() < 1e-12);
        assert!((rel.relative_energy_delay - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slower_hotter_run_costs_more() {
        let mut base = meter();
        for _ in 0..100 {
            base.record(Amps::new(80.0));
        }
        let mut tech = meter();
        for _ in 0..110 {
            tech.record(Amps::new(85.0));
        }
        let rel = RelativeCost::from_meters(&base, &tech);
        assert!((rel.slowdown - 1.1).abs() < 1e-12);
        assert!(rel.relative_energy > 1.1);
        assert!(rel.relative_energy_delay > rel.relative_energy);
    }

    #[test]
    fn average_power_zero_when_empty() {
        assert_eq!(meter().average_power_watts(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn relative_cost_requires_base() {
        let empty = meter();
        let _ = RelativeCost::from_meters(&empty, &empty.clone());
    }
}
