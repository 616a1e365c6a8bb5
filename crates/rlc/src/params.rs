//! Power-distribution-network parameters and derived resonance quantities.
//!
//! The network is the second-order model of the paper's Figure 1: the
//! power-supply impedance `R`, the die-to-package connection inductance `L`,
//! and the on-die decoupling capacitance `C`, driven by the CPU core modeled
//! as a current source. All resonance quantities (resonant frequency, quality
//! factor, resonance band, damping rate) derive from `R`, `L`, `C`.

use crate::error::RlcError;
use crate::units::{Cycles, Farads, Henries, Hertz, Ohms, Seconds, Volts};

/// The three circuit elements of the second-order power-supply model plus the
/// supply voltage and noise margin.
///
/// Construct with [`SupplyParams::new`], or use the presets
/// [`SupplyParams::isca04_table1`] (the paper's evaluated design: 375 µΩ,
/// 1.69 pH, 1500 nF, 1.0 V, 5 % margin) and
/// [`SupplyParams::isca04_section2_example`] (the motivating example of
/// Section 2: ~500 nF, 5 pH class package at 2.0 V).
///
/// # Examples
///
/// ```
/// use rlc::SupplyParams;
///
/// let p = SupplyParams::isca04_table1();
/// let f = p.resonant_frequency();
/// assert!((f.hertz() / 1e6 - 100.0).abs() < 1.0); // ~100 MHz
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupplyParams {
    resistance: Ohms,
    inductance: Henries,
    capacitance: Farads,
    vdd: Volts,
    noise_margin: Volts,
}

impl SupplyParams {
    /// Creates a parameter set, validating that every element is finite and
    /// positive and that the circuit is underdamped (R² < 4L/C) — the
    /// precondition for resonant oscillation that the whole technique
    /// targets.
    ///
    /// # Errors
    ///
    /// Returns [`RlcError::InvalidElement`] for non-finite or non-positive
    /// elements, [`RlcError::InvalidNoiseMargin`] for a bad margin, and
    /// [`RlcError::NotUnderdamped`] when R² ≥ 4L/C.
    pub fn new(
        resistance: Ohms,
        inductance: Henries,
        capacitance: Farads,
        vdd: Volts,
        noise_margin: Volts,
    ) -> Result<Self, RlcError> {
        let check = |element: &'static str, value: f64| -> Result<(), RlcError> {
            if !value.is_finite() || value <= 0.0 {
                Err(RlcError::InvalidElement { element, value })
            } else {
                Ok(())
            }
        };
        check("R", resistance.ohms())?;
        check("L", inductance.henries())?;
        check("C", capacitance.farads())?;
        check("Vdd", vdd.volts())?;
        if !noise_margin.volts().is_finite() || noise_margin.volts() <= 0.0 {
            return Err(RlcError::InvalidNoiseMargin {
                margin: noise_margin.volts(),
            });
        }
        let r_squared = resistance.ohms() * resistance.ohms();
        let four_l_over_c = 4.0 * inductance.henries() / capacitance.farads();
        if r_squared >= four_l_over_c {
            return Err(RlcError::NotUnderdamped {
                r_squared,
                four_l_over_c,
            });
        }
        Ok(Self {
            resistance,
            inductance,
            capacitance,
            vdd,
            noise_margin,
        })
    }

    /// The aggressive future design point the paper evaluates (Table 1):
    /// 375 µΩ, 1.69 pH, 1500 nF at V<sub>dd</sub> = 1.0 V with a ±5 % (50 mV)
    /// noise margin. Resonant frequency ≈ 100 MHz, Q ≈ 2.83.
    pub fn isca04_table1() -> Self {
        Self::new(
            Ohms::from_micro(375.0),
            Henries::from_pico(1.69),
            Farads::from_nano(1500.0),
            Volts::new(1.0),
            Volts::new(0.05),
        )
        .expect("Table 1 parameters are valid by construction")
    }

    /// The contemporary-package example of the paper's Section 2: ~500 nF of
    /// on-die decoupling and ~5 pH of solder-bump inductance at 2.0 V,
    /// yielding a ~100 MHz resonant frequency, a 92–108 MHz resonance band,
    /// and a higher Q (~6) whose energy dissipates ~40 % per period.
    pub fn isca04_section2_example() -> Self {
        // Q = sqrt(L/C)/R ≈ 6.2 and f0 ≈ 100 MHz require L·C = 1/(2π·1e8)²
        // and sqrt(L/C) ≈ 6.2·R. With C = 500 nF: L = 5.066 pH,
        // sqrt(L/C) = 3.18 mΩ, so R = 0.515 mΩ gives Q ≈ 6.18 (dissipation
        // exp(-π/Q) ≈ 0.60, i.e. 40 % per period, matching the paper).
        Self::new(
            Ohms::from_micro(515.0),
            Henries::from_pico(5.066),
            Farads::from_nano(500.0),
            Volts::new(2.0),
            Volts::new(0.10),
        )
        .expect("Section 2 example parameters are valid by construction")
    }

    /// Power-supply series impedance R.
    #[inline]
    pub fn resistance(&self) -> Ohms {
        self.resistance
    }

    /// Die-to-package connection inductance L.
    pub fn inductance(&self) -> Henries {
        self.inductance
    }

    /// On-die decoupling capacitance C.
    pub fn capacitance(&self) -> Farads {
        self.capacitance
    }

    /// Nominal supply voltage.
    pub fn vdd(&self) -> Volts {
        self.vdd
    }

    /// Absolute noise margin: a supply deviation beyond ±margin is a
    /// noise-margin violation.
    #[inline]
    pub fn noise_margin(&self) -> Volts {
        self.noise_margin
    }

    /// The resonant frequency f = 1 / (2π√(LC)), at which current variations
    /// cause maximum voltage variation.
    pub fn resonant_frequency(&self) -> Hertz {
        let lc = self.inductance.henries() * self.capacitance.farads();
        Hertz::new(1.0 / (2.0 * std::f64::consts::PI * lc.sqrt()))
    }

    /// The resonant period 1/f.
    pub fn resonant_period(&self) -> Seconds {
        self.resonant_frequency().period()
    }

    /// The characteristic impedance √(L/C) of the resonant loop.
    pub fn characteristic_impedance(&self) -> Ohms {
        Ohms::new((self.inductance.henries() / self.capacitance.farads()).sqrt())
    }

    /// The quality factor Q = 2πfL / R = √(L/C) / R. Q sets both the width of
    /// the resonance band (B = f/Q) and how quickly resonant energy
    /// dissipates.
    pub fn quality_factor(&self) -> f64 {
        self.characteristic_impedance().ohms() / self.resistance.ohms()
    }

    /// The width of the resonance band B = f/Q (the half-energy bandwidth).
    pub fn resonance_bandwidth(&self) -> Hertz {
        Hertz::new(self.resonant_frequency().hertz() / self.quality_factor())
    }

    /// The resonance band `[f_low, f_high]`: the half-energy (half-power)
    /// frequencies of the resonant loop, using the exact second-order
    /// expressions f0·(√(1 + 1/(4Q²)) ∓ 1/(2Q)). Current variations anywhere
    /// inside this band can build into noise-margin violations.
    pub fn resonance_band(&self) -> (Hertz, Hertz) {
        let f0 = self.resonant_frequency().hertz();
        let q = self.quality_factor();
        let half = 1.0 / (2.0 * q);
        let root = (1.0 + half * half).sqrt();
        (
            Hertz::new(f0 * (root - half)),
            Hertz::new(f0 * (root + half)),
        )
    }

    /// The damping rate α = πf/Q in nepers per second: voltage variations
    /// decay as e^(−αt) once excitation stops.
    pub fn damping_rate_nepers_per_second(&self) -> f64 {
        std::f64::consts::PI * self.resonant_frequency().hertz() / self.quality_factor()
    }

    /// The fraction of the voltage-variation *amplitude* that survives one
    /// full resonant period of free decay: e^(−π/Q). For the Table 1 supply
    /// (Q ≈ 2.83) this is ≈ 0.33, i.e. variations dissipate ~66 % per period;
    /// for the Section 2 example (Q ≈ 6.2) it is ≈ 0.60 (~40 % dissipated).
    pub fn decay_per_period(&self) -> f64 {
        (-std::f64::consts::PI / self.quality_factor()).exp()
    }

    /// The number of clock cycles in the resonant period at the given clock
    /// frequency, rounded to the nearest cycle.
    ///
    /// # Errors
    ///
    /// Returns [`RlcError::PeriodTooShort`] if the period is under 8 cycles
    /// (cycle-granularity detection needs at least a couple of cycles per
    /// quarter period), and [`RlcError::InvalidElement`] for a bad clock.
    pub fn resonant_period_cycles(&self, clock: Hertz) -> Result<Cycles, RlcError> {
        if !clock.hertz().is_finite() || clock.hertz() <= 0.0 {
            return Err(RlcError::InvalidElement {
                element: "clock",
                value: clock.hertz(),
            });
        }
        let cycles = clock.hertz() / self.resonant_frequency().hertz();
        if cycles < 8.0 {
            return Err(RlcError::PeriodTooShort { cycles });
        }
        Ok(Cycles::new(cycles.round() as u64))
    }

    /// The resonance band expressed as a range of periods in clock cycles
    /// `(min_period, max_period)`. The band's *high* frequency edge maps to
    /// the *short* period. For Table 1 at 10 GHz this is (84, 119) cycles.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SupplyParams::resonant_period_cycles`], applied
    /// to the short-period edge.
    pub fn resonance_band_cycles(&self, clock: Hertz) -> Result<(Cycles, Cycles), RlcError> {
        if !clock.hertz().is_finite() || clock.hertz() <= 0.0 {
            return Err(RlcError::InvalidElement {
                element: "clock",
                value: clock.hertz(),
            });
        }
        let (f_low, f_high) = self.resonance_band();
        let short = clock.hertz() / f_high.hertz();
        let long = clock.hertz() / f_low.hertz();
        if short < 8.0 {
            return Err(RlcError::PeriodTooShort { cycles: short });
        }
        Ok((
            Cycles::new(short.round() as u64),
            Cycles::new(long.round() as u64),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GHZ10: Hertz = Hertz::new(10e9);

    #[test]
    fn table1_resonant_frequency_is_100mhz() {
        let p = SupplyParams::isca04_table1();
        let f = p.resonant_frequency().hertz() / 1e6;
        assert!((f - 100.0).abs() < 0.5, "f = {f} MHz");
    }

    #[test]
    fn table1_quality_factor_is_2_83() {
        let p = SupplyParams::isca04_table1();
        let q = p.quality_factor();
        assert!((q - 2.83).abs() < 0.01, "Q = {q}");
    }

    #[test]
    fn table1_band_is_84_to_119_cycles_at_10ghz() {
        let p = SupplyParams::isca04_table1();
        let (lo, hi) = p.resonance_band_cycles(GHZ10).unwrap();
        assert_eq!(lo, Cycles::new(84), "short period edge");
        assert_eq!(hi, Cycles::new(119), "long period edge");
    }

    #[test]
    fn table1_band_frequencies_match_paper() {
        let p = SupplyParams::isca04_table1();
        let (f_low, f_high) = p.resonance_band();
        assert!(
            (f_low.hertz() / 1e6 - 83.9).abs() < 0.5,
            "low edge {}",
            f_low
        );
        assert!(
            (f_high.hertz() / 1e6 - 119.0).abs() < 1.0,
            "high edge {}",
            f_high
        );
    }

    #[test]
    fn table1_dissipates_about_66_percent_per_period() {
        let p = SupplyParams::isca04_table1();
        let surviving = p.decay_per_period();
        assert!(
            (1.0 - surviving - 0.66).abs() < 0.02,
            "dissipated = {}",
            1.0 - surviving
        );
    }

    #[test]
    fn section2_example_matches_paper_narrative() {
        let p = SupplyParams::isca04_section2_example();
        let f = p.resonant_frequency().hertz() / 1e6;
        assert!((f - 100.0).abs() < 1.0, "f = {f} MHz");
        // ~40% dissipation per period.
        let dissipated = 1.0 - p.decay_per_period();
        assert!(
            (dissipated - 0.40).abs() < 0.03,
            "dissipated = {dissipated}"
        );
        // Resonance band ≈ 92–108 MHz.
        let (lo, hi) = p.resonance_band();
        assert!((lo.hertz() / 1e6 - 92.0).abs() < 1.5, "lo = {lo}");
        assert!((hi.hertz() / 1e6 - 108.0).abs() < 1.5, "hi = {hi}");
    }

    #[test]
    fn resonant_period_cycles_table1() {
        let p = SupplyParams::isca04_table1();
        let t = p.resonant_period_cycles(GHZ10).unwrap();
        assert_eq!(t, Cycles::new(100));
    }

    #[test]
    fn rejects_overdamped_circuit() {
        // Huge R makes the circuit overdamped.
        let err = SupplyParams::new(
            Ohms::new(1.0),
            Henries::from_pico(1.69),
            Farads::from_nano(1500.0),
            Volts::new(1.0),
            Volts::new(0.05),
        )
        .unwrap_err();
        assert!(matches!(err, RlcError::NotUnderdamped { .. }));
    }

    #[test]
    fn rejects_nonpositive_elements() {
        let bad = SupplyParams::new(
            Ohms::new(0.0),
            Henries::from_pico(1.69),
            Farads::from_nano(1500.0),
            Volts::new(1.0),
            Volts::new(0.05),
        );
        assert!(matches!(
            bad,
            Err(RlcError::InvalidElement { element: "R", .. })
        ));

        let bad = SupplyParams::new(
            Ohms::from_micro(375.0),
            Henries::new(f64::NAN),
            Farads::from_nano(1500.0),
            Volts::new(1.0),
            Volts::new(0.05),
        );
        assert!(matches!(
            bad,
            Err(RlcError::InvalidElement { element: "L", .. })
        ));

        let bad = SupplyParams::new(
            Ohms::from_micro(375.0),
            Henries::from_pico(1.69),
            Farads::from_nano(1500.0),
            Volts::new(1.0),
            Volts::new(-0.05),
        );
        assert!(matches!(bad, Err(RlcError::InvalidNoiseMargin { .. })));
    }

    #[test]
    fn rejects_too_fast_resonance_for_slow_clock() {
        let p = SupplyParams::isca04_table1();
        // 100 MHz clock -> 1 cycle per resonant period: too short.
        let err = p
            .resonant_period_cycles(Hertz::from_mega(100.0))
            .unwrap_err();
        assert!(matches!(err, RlcError::PeriodTooShort { .. }));
        let err = p
            .resonance_band_cycles(Hertz::from_mega(100.0))
            .unwrap_err();
        assert!(matches!(err, RlcError::PeriodTooShort { .. }));
    }

    #[test]
    fn rejects_bad_clock() {
        let p = SupplyParams::isca04_table1();
        assert!(p.resonant_period_cycles(Hertz::new(0.0)).is_err());
        assert!(p.resonance_band_cycles(Hertz::new(-1.0)).is_err());
    }

    #[test]
    fn bandwidth_equals_f_over_q() {
        let p = SupplyParams::isca04_table1();
        let b = p.resonance_bandwidth().hertz();
        let expect = p.resonant_frequency().hertz() / p.quality_factor();
        assert!((b - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn band_edges_straddle_resonant_frequency() {
        let p = SupplyParams::isca04_table1();
        let (lo, hi) = p.resonance_band();
        let f0 = p.resonant_frequency();
        assert!(lo.hertz() < f0.hertz() && f0.hertz() < hi.hertz());
        // Geometric mean of exact half-power points equals f0.
        let gm = (lo.hertz() * hi.hertz()).sqrt();
        assert!((gm - f0.hertz()).abs() / f0.hertz() < 1e-9);
    }
}
