//! Resonance-tuning configuration.

use rlc::units::{Amps, Cycles, Hertz};
use rlc::{Calibration, RlcError, SupplyParams};

/// All parameters of the resonance-tuning detector and two-level response.
///
/// The detector parameters derive from the supply's resonance geometry
/// (Section 2.1.3): the resonance band as a range of periods, the resonant
/// current variation threshold `M`, and the maximum repetition tolerance.
/// The response parameters follow Section 5.2: first-level response at
/// event count ≥ 2 reduces issue width 8→4 and cache ports 2→1 for
/// `initial_response_time` cycles; second-level response at count ≥ 3
/// (tolerance − 1) stalls with medium-current phantoms for 35 cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuningConfig {
    /// Shortest in-band period, in cycles (84 for Table 1 at 10 GHz).
    pub band_min_period: Cycles,
    /// Longest in-band period, in cycles (119 for Table 1 at 10 GHz).
    pub band_max_period: Cycles,
    /// Resonant current variation threshold `M` (32 A in Table 1).
    pub variation_threshold: Amps,
    /// Maximum repetition tolerance in half waves (4 in Table 1).
    pub max_repetition_tolerance: u32,
    /// Event count at which the first-level response engages (2).
    pub initial_response_threshold: u32,
    /// Event count at which the second-level response engages (3).
    pub second_level_threshold: u32,
    /// First-level response duration in cycles (swept 75–200 in Table 3).
    pub initial_response_time: u32,
    /// Second-level response duration in cycles (35: long enough for the
    /// supply to dissipate one event count's worth of energy).
    pub second_level_time: u32,
    /// Issue width during the first-level response (4).
    pub first_level_issue_width: u32,
    /// Data-cache ports during the first-level response (1).
    pub first_level_mem_ports: u32,
    /// Cycles between detection and response engagement (0 in the main
    /// results; 5 in the paper's delay-sensitivity experiment).
    pub response_delay: u32,
}

impl TuningConfig {
    /// The paper's Table 1 / Section 5.2 configuration with the given
    /// initial response time.
    pub fn isca04_table1(initial_response_time: u32) -> Self {
        Self {
            band_min_period: Cycles::new(84),
            band_max_period: Cycles::new(119),
            variation_threshold: Amps::new(32.0),
            max_repetition_tolerance: 4,
            initial_response_threshold: 2,
            second_level_threshold: 3,
            initial_response_time,
            second_level_time: 35,
            first_level_issue_width: 4,
            first_level_mem_ports: 1,
            response_delay: 0,
        }
    }

    /// Builds a configuration from a circuit-level [`Calibration`] of an
    /// arbitrary supply (thresholds follow the paper's relationships:
    /// second-level at tolerance − 1, initial response at half that).
    pub fn from_calibration(cal: &Calibration, initial_response_time: u32) -> Self {
        let tol = cal.max_repetition_tolerance.max(2);
        Self {
            band_min_period: cal.band_periods.0,
            band_max_period: cal.band_periods.1,
            variation_threshold: cal.variation_threshold,
            max_repetition_tolerance: tol,
            initial_response_threshold: (tol / 2).max(1),
            second_level_threshold: tol - 1,
            initial_response_time,
            second_level_time: 35,
            first_level_issue_width: 4,
            first_level_mem_ports: 1,
            response_delay: 0,
        }
    }

    /// Convenience: calibrate a supply by circuit simulation and derive the
    /// tuning configuration from it.
    ///
    /// # Errors
    ///
    /// Propagates calibration failures (e.g. an over-designed supply that
    /// never violates — there is nothing to tune).
    pub fn calibrated(
        supply: &SupplyParams,
        clock: Hertz,
        max_variation: Amps,
        initial_response_time: u32,
    ) -> Result<Self, RlcError> {
        let cal = rlc::calibrate(supply, clock, max_variation)?;
        Ok(Self::from_calibration(&cal, initial_response_time))
    }

    /// Returns a copy with the given sensing-to-response delay.
    pub fn with_response_delay(mut self, delay: u32) -> Self {
        self.response_delay = delay;
        self
    }

    /// Quarter-period lengths (in cycles) covering the resonance band: one
    /// current-history adder per length (9 for Table 1: 21–29 cycles).
    pub fn quarter_periods(&self) -> std::ops::RangeInclusive<u32> {
        (self.band_min_period.count() as u32 / 4)..=(self.band_max_period.count() as u32 / 4)
    }

    /// Half-period lengths (in cycles) covering the band (42–59 for
    /// Table 1): the lookback offsets used when chaining resonant events.
    pub fn half_periods(&self) -> std::ops::RangeInclusive<u32> {
        (self.band_min_period.count() as u32 / 2)..=(self.band_max_period.count() as u32 / 2)
    }

    /// The per-quarter-period event threshold `M·T/8` in amp-cycles, for
    /// quarter period `q` (so `T = 4q`).
    pub fn event_threshold(&self, quarter_period: u32) -> f64 {
        self.variation_threshold.amps() * (4 * quarter_period) as f64 / 8.0
    }

    /// Required history length, in cycles, for the high-low/low-high shift
    /// registers: enough half waves to cover the maximum repetition
    /// tolerance at the longest in-band period, plus slack for the run
    /// widths.
    pub fn history_length(&self) -> usize {
        let half_max = self.band_max_period.count() as usize / 2;
        (self.max_repetition_tolerance as usize + 2) * half_max + 2 * half_max
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on inconsistency.
    pub fn validate(&self) {
        assert!(
            self.band_min_period.count() >= 8,
            "band periods too short for cycle-level detection"
        );
        assert!(
            self.band_min_period < self.band_max_period,
            "band period range must be increasing"
        );
        assert!(
            self.variation_threshold.amps() > 0.0,
            "variation threshold must be positive"
        );
        assert!(
            self.max_repetition_tolerance >= 2,
            "repetition tolerance must be at least 2"
        );
        assert!(
            self.initial_response_threshold < self.second_level_threshold,
            "first-level threshold must precede second-level"
        );
        assert!(
            self.second_level_threshold < self.max_repetition_tolerance,
            "second-level response must engage before the tolerance is reached"
        );
        assert!(
            self.initial_response_time > 0,
            "initial response time must be nonzero"
        );
        assert!(
            self.second_level_time > 0,
            "second-level time must be nonzero"
        );
        assert!(
            self.first_level_issue_width > 0,
            "first-level issue width must be nonzero"
        );
        assert!(
            self.first_level_mem_ports > 0,
            "first-level port count must be nonzero"
        );
    }
}

/// How the supervised experiment engine wraps each application run: watchdog
/// deadline, bounded-backoff retries, and the run store it reads and writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Per-run watchdog deadline; `None` disables the watchdog.
    pub timeout: Option<std::time::Duration>,
    /// How many times a failed run is retried (retries only help transient
    /// faults; persistent ones fail identically every attempt).
    pub max_retries: u32,
    /// First retry delay; doubles per failure.
    pub backoff_base: std::time::Duration,
    /// Upper bound on any single retry delay.
    pub backoff_cap: std::time::Duration,
    /// The run store the suite reads and writes: a stored application
    /// replays instead of simulating, and every fresh run is put the moment
    /// it succeeds, so an interrupted suite resumes from it. `None` (the
    /// default) persists nothing.
    pub store: Option<crate::store::RunStore>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            timeout: None,
            max_retries: 2,
            backoff_base: std::time::Duration::from_millis(25),
            backoff_cap: std::time::Duration::from_millis(250),
            store: None,
        }
    }
}

impl SupervisorConfig {
    /// The delay before the retry that follows `failures` failed attempts:
    /// exponential from [`SupervisorConfig::backoff_base`], capped at
    /// [`SupervisorConfig::backoff_cap`].
    pub fn backoff_delay(&self, failures: u32) -> std::time::Duration {
        let doublings = failures.saturating_sub(1).min(16);
        self.backoff_base
            .saturating_mul(1u32 << doublings)
            .min(self.backoff_cap)
    }
}

/// The complete robustness policy for a suite run: supervision parameters
/// plus the fault-injection plan. The default policy is inert — no faults,
/// no watchdog, no store — and is bit-exact-neutral.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunPolicy {
    /// Watchdog / retry / store configuration.
    pub supervisor: SupervisorConfig,
    /// The fault-injection plan ([`crate::fault::FaultPlan::none`] by
    /// default).
    pub plan: crate::fault::FaultPlan,
}

impl RunPolicy {
    /// The inert policy.
    pub fn none() -> Self {
        Self::default()
    }

    /// `true` when this policy changes nothing about how a suite executes:
    /// no fault plan, no watchdog, no store. This is the one inertness
    /// check: an inert base suite is served from the engine's process-wide
    /// memo ([`crate::engine::base_suite`]), and the harnesses print no
    /// `failures` section for it.
    pub fn is_inert(&self) -> bool {
        !self.plan.is_enabled()
            && self.supervisor.timeout.is_none()
            && self.supervisor.store.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let c = TuningConfig::isca04_table1(100);
        c.validate();
        assert_eq!(c.band_min_period, Cycles::new(84));
        assert_eq!(c.band_max_period, Cycles::new(119));
        assert_eq!(c.variation_threshold, Amps::new(32.0));
        assert_eq!(c.max_repetition_tolerance, 4);
        assert_eq!(c.initial_response_threshold, 2);
        assert_eq!(c.second_level_threshold, 3);
        assert_eq!(c.second_level_time, 35);
    }

    #[test]
    fn nine_quarter_period_adders_for_table1() {
        // Section 3.3: "up to 9 current-history adders".
        let c = TuningConfig::isca04_table1(100);
        assert_eq!(c.quarter_periods().count(), 9);
        assert_eq!(c.quarter_periods(), 21..=29);
        assert_eq!(c.half_periods(), 42..=59);
    }

    #[test]
    fn event_threshold_is_mt_over_8() {
        let c = TuningConfig::isca04_table1(100);
        // q = 25 → T = 100 → M·T/8 = 32·100/8 = 400 amp-cycles.
        assert!((c.event_threshold(25) - 400.0).abs() < 1e-9);
    }

    #[test]
    fn history_covers_tolerance() {
        let c = TuningConfig::isca04_table1(100);
        // At least tolerance × longest half period.
        assert!(c.history_length() >= 4 * 59);
    }

    #[test]
    fn calibrated_config_resembles_paper() {
        let c = TuningConfig::calibrated(
            &SupplyParams::isca04_table1(),
            Hertz::from_giga(10.0),
            Amps::new(70.0),
            100,
        )
        .unwrap();
        c.validate();
        assert_eq!(c.band_min_period, Cycles::new(84));
        assert_eq!(c.band_max_period, Cycles::new(119));
        assert!(
            c.variation_threshold.amps() > 20.0 && c.variation_threshold.amps() < 40.0,
            "calibrated M = {}",
            c.variation_threshold
        );
        assert!((2..=6).contains(&c.max_repetition_tolerance));
    }

    #[test]
    #[should_panic(expected = "second-level")]
    fn invalid_thresholds_panic() {
        let mut c = TuningConfig::isca04_table1(100);
        c.second_level_threshold = 4; // == tolerance: too late
        c.validate();
    }

    #[test]
    fn delay_builder() {
        let c = TuningConfig::isca04_table1(100).with_response_delay(5);
        assert_eq!(c.response_delay, 5);
    }
}

#[cfg(test)]
mod supervisor_tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn backoff_doubles_and_caps() {
        let sup = SupervisorConfig::default();
        assert_eq!(sup.backoff_delay(1), Duration::from_millis(25));
        assert_eq!(sup.backoff_delay(2), Duration::from_millis(50));
        assert_eq!(sup.backoff_delay(3), Duration::from_millis(100));
        assert_eq!(sup.backoff_delay(4), Duration::from_millis(200));
        assert_eq!(sup.backoff_delay(5), Duration::from_millis(250), "capped");
        assert_eq!(sup.backoff_delay(40), Duration::from_millis(250), "capped");
    }

    #[test]
    fn default_policy_is_inert() {
        let policy = RunPolicy::none();
        assert!(policy.is_inert());
        let mut with_timeout = RunPolicy::none();
        with_timeout.supervisor.timeout = Some(Duration::from_secs(1));
        assert!(!with_timeout.is_inert());
        let with_plan = RunPolicy {
            plan: crate::fault::FaultPlan::seeded(1),
            ..RunPolicy::none()
        };
        assert!(!with_plan.is_inert());
        let mut with_store = RunPolicy::none();
        with_store.supervisor.store = Some(crate::store::RunStore::open("store".into()));
        assert!(!with_store.is_inert());
    }
}
