//! The voltage-threshold technique of Joseph, Brooks & Martonosi (HPCA'03)
//! — reference \[10\] of the paper.
//!
//! The technique senses the supply voltage directly: when the deviation
//! exceeds a threshold on the *high* side (current dropped, voltage
//! overshooting), it phantom-fires the L1 caches and functional units to
//! pull current up; on the *low* side (current spiked, voltage sagging), it
//! stops fetch and issue. Following the paper's evaluation, the model
//! includes peak-to-peak sensor noise and a sensing-to-actuation delay —
//! the two practical effects that dominate the technique's cost.

use cpusim::{PhantomLevel, PipelineControls};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlc::units::Volts;

/// Configuration of the voltage-sensor technique.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorConfig {
    /// Target detection threshold (volts of deviation from nominal).
    pub target_threshold: Volts,
    /// Peak-to-peak sensor noise (volts). The *actual* threshold is the
    /// target minus half the noise, as in the paper's Table 4.
    pub sensor_noise_pp: Volts,
    /// Cycles between a supply-voltage excursion and the response.
    pub delay_cycles: u32,
    /// Minimum cycles a response stays engaged once triggered (debounce).
    pub min_response_cycles: u32,
    /// RNG seed for the sensor-noise sequence.
    pub noise_seed: u64,
}

impl SensorConfig {
    /// One row of the paper's Table 4: `(threshold mV, noise mV, delay)`.
    pub fn table4(threshold_mv: f64, noise_mv: f64, delay: u32) -> Self {
        Self {
            target_threshold: Volts::new(threshold_mv * 1e-3),
            sensor_noise_pp: Volts::new(noise_mv * 1e-3),
            delay_cycles: delay,
            min_response_cycles: 4,
            noise_seed: 0xB0_1DFACE,
        }
    }

    /// The effective threshold after subtracting half the sensor noise
    /// (the paper's "actual threshold" column).
    pub fn actual_threshold(&self) -> Volts {
        Volts::new(self.target_threshold.volts() - self.sensor_noise_pp.volts() / 2.0)
    }
}

/// Which response the sensor technique has engaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SensorResponse {
    None,
    /// Voltage too high → phantom-fire caches and FUs (raise current).
    PhantomFire,
    /// Voltage too low → stop fetch and issue (drop current).
    Throttle,
}

/// The voltage-sensor controller. Feed it the per-cycle supply-voltage
/// deviation; it returns pipeline controls.
#[derive(Debug, Clone)]
pub struct VoltageSensor {
    config: SensorConfig,
    rng: StdRng,
    /// Delay line of sensed (noisy) voltages.
    delay_line: std::collections::VecDeque<f64>,
    response: SensorResponse,
    response_remaining: u32,
    response_cycles: u64,
    engagements: u64,
}

impl VoltageSensor {
    /// Creates a controller.
    ///
    /// # Panics
    ///
    /// Panics if the actual threshold (target − noise/2) is not positive.
    pub fn new(config: SensorConfig) -> Self {
        assert!(
            config.actual_threshold().volts() > 0.0,
            "sensor noise swallows the detection threshold entirely"
        );
        Self {
            rng: StdRng::seed_from_u64(config.noise_seed),
            delay_line: std::collections::VecDeque::with_capacity(super::reserved_slots(
                config.delay_cycles,
            )),
            config,
            response: SensorResponse::None,
            response_remaining: 0,
            response_cycles: 0,
            engagements: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SensorConfig {
        &self.config
    }

    /// Total cycles spent in (either) response.
    pub fn response_cycles(&self) -> u64 {
        self.response_cycles
    }

    /// Total response engagements (rising edges).
    pub fn engagements(&self) -> u64 {
        self.engagements
    }

    /// Advances one cycle with the given true supply-voltage deviation and
    /// returns the controls to apply this cycle.
    pub fn tick(&mut self, noise_voltage: Volts) -> PipelineControls {
        // Sensor reading: true voltage plus uniform noise, delayed.
        let noise_amp = self.config.sensor_noise_pp.volts() / 2.0;
        let sensed = noise_voltage.volts()
            + if noise_amp > 0.0 {
                self.rng.gen_range(-noise_amp..=noise_amp)
            } else {
                0.0
            };
        self.delay_line.push_back(sensed);
        if self.delay_line.len() <= self.config.delay_cycles as usize {
            return PipelineControls::free();
        }
        let observed = self
            .delay_line
            .pop_front()
            .expect("delay line is non-empty");

        // The deployed threshold is lowered by half the sensor noise so
        // that true excursions are still caught despite the noise — which
        // is exactly why noisy sensors raise false alarms (Table 4).
        let thr = self.config.actual_threshold().volts();
        let new_response = if observed > thr {
            Some(SensorResponse::PhantomFire)
        } else if observed < -thr {
            Some(SensorResponse::Throttle)
        } else {
            None
        };

        match new_response {
            Some(r) => {
                if self.response == SensorResponse::None {
                    self.engagements += 1;
                }
                self.response = r;
                self.response_remaining = self.config.min_response_cycles;
            }
            None => {
                if self.response_remaining > 0 {
                    self.response_remaining -= 1;
                } else {
                    self.response = SensorResponse::None;
                }
            }
        }

        match self.response {
            SensorResponse::None => PipelineControls::free(),
            SensorResponse::PhantomFire => {
                self.response_cycles += 1;
                PipelineControls {
                    phantom: Some(PhantomLevel::High),
                    ..PipelineControls::default()
                }
            }
            SensorResponse::Throttle => {
                self.response_cycles += 1;
                PipelineControls {
                    stall_issue: true,
                    stall_fetch: true,
                    ..PipelineControls::default()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sensor(threshold_mv: f64, noise_mv: f64, delay: u32) -> VoltageSensor {
        VoltageSensor::new(SensorConfig::table4(threshold_mv, noise_mv, delay))
    }

    #[test]
    fn quiet_voltage_means_no_response() {
        let mut s = sensor(30.0, 0.0, 0);
        for _ in 0..1000 {
            let c = s.tick(Volts::new(0.001));
            assert!(!c.is_restricted());
        }
        assert_eq!(s.response_cycles(), 0);
    }

    #[test]
    fn high_voltage_phantom_fires() {
        let mut s = sensor(30.0, 0.0, 0);
        let c = s.tick(Volts::new(0.040));
        assert_eq!(c.phantom, Some(PhantomLevel::High));
        assert!(!c.stall_issue);
    }

    #[test]
    fn low_voltage_throttles() {
        let mut s = sensor(30.0, 0.0, 0);
        let c = s.tick(Volts::new(-0.040));
        assert!(c.stall_issue && c.stall_fetch);
        assert!(c.phantom.is_none());
    }

    #[test]
    fn delay_shifts_the_response() {
        let mut s = sensor(30.0, 0.0, 5);
        // A 1-cycle spike: the response must appear exactly 5 cycles later.
        let mut engaged_at = None;
        for c in 0..20u32 {
            let v = if c == 0 { 0.040 } else { 0.0 };
            let controls = s.tick(Volts::new(v));
            if controls.is_restricted() && engaged_at.is_none() {
                engaged_at = Some(c);
            }
        }
        assert_eq!(engaged_at, Some(5));
    }

    #[test]
    fn sensor_noise_causes_false_alarms() {
        // True voltage well inside the window, but 15 mV of noise on a
        // 20 mV threshold trips responses spuriously.
        let mut clean = sensor(20.0, 0.0, 0);
        let mut noisy = sensor(20.0, 15.0, 0);
        for c in 0..20_000u64 {
            // Benign 12 mV ripple.
            let v = Volts::new(0.012 * ((c as f64) * 0.05).sin());
            let _ = clean.tick(v);
            let _ = noisy.tick(v);
        }
        assert_eq!(
            clean.response_cycles(),
            0,
            "clean sensor must not react to 12 mV ripple"
        );
        assert!(
            noisy.response_cycles() > 0,
            "noisy sensor should raise false alarms on benign ripple"
        );
    }

    #[test]
    fn min_response_duration_debounces() {
        let mut s = sensor(30.0, 0.0, 0);
        let _ = s.tick(Volts::new(0.040));
        let mut engaged = 1;
        for _ in 0..10 {
            if s.tick(Volts::new(0.0)).is_restricted() {
                engaged += 1;
            }
        }
        assert!(
            engaged >= 4,
            "response persists for the debounce window, got {engaged}"
        );
        assert!(engaged < 10, "response must eventually release");
    }

    #[test]
    fn actual_threshold_subtracts_half_noise() {
        let c = SensorConfig::table4(30.0, 15.0, 0);
        assert!((c.actual_threshold().volts() - 0.0225).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "swallows")]
    fn noise_exceeding_threshold_panics() {
        let _ = VoltageSensor::new(SensorConfig::table4(10.0, 25.0, 0));
    }
}
