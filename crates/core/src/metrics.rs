//! Relative cost metrics: slowdown, energy, and energy-delay of a technique
//! run against its base run, plus suite-level summaries and the structured
//! per-run observability rows ([`RunMetrics`]) the experiment engine emits.

use crate::engine::CacheStats;
use crate::sim::{InstrumentedRun, SimResult};

/// One application's technique-vs-base comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelativeOutcome {
    /// Application name.
    pub app: &'static str,
    /// Technique cycles / base cycles (≥ 1 in practice).
    pub slowdown: f64,
    /// Technique energy / base energy.
    pub relative_energy: f64,
    /// Relative energy-delay product.
    pub relative_energy_delay: f64,
    /// Fraction of technique cycles in the first-level tuning response.
    pub first_level_fraction: f64,
    /// Fraction of technique cycles in the second-level tuning response.
    pub second_level_fraction: f64,
    /// Fraction of technique cycles in the sensor technique's response.
    pub sensor_response_fraction: f64,
    /// Violation cycles remaining under the technique.
    pub violation_cycles: u64,
}

impl RelativeOutcome {
    /// Builds the comparison for one app.
    ///
    /// # Panics
    ///
    /// Panics if the runs are for different apps, or the base run is empty,
    /// or the two runs did not commit the same instruction count (the
    /// slowdown metric requires identical work).
    pub fn new(base: &SimResult, technique: &SimResult) -> Self {
        assert_eq!(base.app, technique.app, "comparing different applications");
        assert!(
            base.cycles > 0 && base.energy_joules > 0.0,
            "base run must be non-empty"
        );
        // Runs stop at the first cycle reaching the instruction budget, so
        // committed counts may differ by up to a commit width.
        let diff = base.committed.abs_diff(technique.committed);
        assert!(
            diff <= 8,
            "base and technique must run identical work (committed {} vs {})",
            base.committed,
            technique.committed
        );
        let slowdown = technique.cycles as f64 / base.cycles as f64;
        let relative_energy = technique.energy_joules / base.energy_joules;
        Self {
            app: base.app,
            slowdown,
            relative_energy,
            relative_energy_delay: relative_energy * slowdown,
            first_level_fraction: technique.first_level_fraction(),
            second_level_fraction: technique.second_level_fraction(),
            sensor_response_fraction: technique.sensor_response_fraction(),
            violation_cycles: technique.violation_cycles,
        }
    }
}

/// Structured observability for one application run: what the engine knows
/// about how the simulation behaved and what it cost to execute, emitted by
/// every harness under `--json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMetrics {
    /// Application name.
    pub app: &'static str,
    /// Technique display name (`base`, `tuning`, ...).
    pub technique: &'static str,
    /// End-to-end wall time of the run in seconds (0 for replayed rows).
    pub wall_seconds: f64,
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Simulated cycles per wall second (0 for replayed rows).
    pub sim_cycles_per_second: f64,
    /// Cycles whose supply deviation exceeded the noise margin.
    pub violation_cycles: u64,
    /// Fraction of cycles in the first-level tuning response.
    pub first_level_fraction: f64,
    /// Fraction of cycles in the second-level tuning response.
    pub second_level_fraction: f64,
    /// Fraction of cycles in the sensor technique's throttled response
    /// (0 for other techniques).
    pub sensor_response_fraction: f64,
    /// Resonant events the tuning detector raised (0 for other techniques).
    pub detector_events: u64,
    /// Process-wide base-suite cache hits when this row was built.
    pub base_cache_hits: u64,
    /// Process-wide base-suite simulations when this row was built.
    pub base_cache_misses: u64,
    /// Sampled wall time in the controller phase, seconds.
    pub phase_controller_seconds: f64,
    /// Sampled wall time in the CPU model, seconds.
    pub phase_cpu_seconds: f64,
    /// Sampled wall time in the power model, seconds.
    pub phase_power_seconds: f64,
    /// Sampled wall time in the supply integration, seconds.
    pub phase_supply_seconds: f64,
    /// `true` when the row was replayed from the run store rather
    /// than simulated in this process.
    pub replayed: bool,
    /// Supervisor attempts this run took (1 = first try succeeded).
    pub attempts: u32,
}

impl RunMetrics {
    /// Builds the row for a freshly simulated run.
    pub fn from_instrumented(
        technique: &'static str,
        run: &InstrumentedRun,
        cache: CacheStats,
    ) -> Self {
        let wall = run.wall.as_secs_f64();
        Self {
            app: run.result.app,
            technique,
            wall_seconds: wall,
            cycles: run.result.cycles,
            committed: run.result.committed,
            sim_cycles_per_second: if wall > 0.0 {
                run.result.cycles as f64 / wall
            } else {
                0.0
            },
            violation_cycles: run.result.violation_cycles,
            first_level_fraction: run.result.first_level_fraction(),
            second_level_fraction: run.result.second_level_fraction(),
            sensor_response_fraction: run.result.sensor_response_fraction(),
            detector_events: run.detector_events,
            base_cache_hits: cache.hits,
            base_cache_misses: cache.misses,
            phase_controller_seconds: run.phases.controller.as_secs_f64(),
            phase_cpu_seconds: run.phases.cpu.as_secs_f64(),
            phase_power_seconds: run.phases.power.as_secs_f64(),
            phase_supply_seconds: run.phases.supply_sampled().as_secs_f64(),
            replayed: false,
            attempts: 1,
        }
    }

    /// Builds the row for a result replayed from the run store: the
    /// simulation outcome is known but nothing was executed, so all timing
    /// fields are zero.
    pub fn replayed(technique: &'static str, result: &SimResult, cache: CacheStats) -> Self {
        Self {
            app: result.app,
            technique,
            wall_seconds: 0.0,
            cycles: result.cycles,
            committed: result.committed,
            sim_cycles_per_second: 0.0,
            violation_cycles: result.violation_cycles,
            first_level_fraction: result.first_level_fraction(),
            second_level_fraction: result.second_level_fraction(),
            sensor_response_fraction: result.sensor_response_fraction(),
            detector_events: 0,
            base_cache_hits: cache.hits,
            base_cache_misses: cache.misses,
            phase_controller_seconds: 0.0,
            phase_cpu_seconds: 0.0,
            phase_power_seconds: 0.0,
            phase_supply_seconds: 0.0,
            replayed: true,
            attempts: 1,
        }
    }
}

/// Suite-level summary in the shape of the paper's Tables 3–5 rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean slowdown across apps.
    pub avg_slowdown: f64,
    /// The worst per-app slowdown.
    pub worst_slowdown: f64,
    /// Which app was worst.
    pub worst_app: &'static str,
    /// Number of apps slower than 15 %.
    pub apps_over_15_percent: usize,
    /// Mean relative energy-delay.
    pub avg_energy_delay: f64,
    /// Mean fraction of cycles in the first-level response.
    pub avg_first_level_fraction: f64,
    /// Mean fraction of cycles in the second-level response.
    pub avg_second_level_fraction: f64,
    /// Mean fraction of cycles in the sensor response.
    pub avg_sensor_response_fraction: f64,
    /// Total violation cycles remaining across the suite.
    pub total_violation_cycles: u64,
}

impl Summary {
    /// Aggregates per-app outcomes.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn from_outcomes(outcomes: &[RelativeOutcome]) -> Self {
        assert!(!outcomes.is_empty(), "cannot summarize an empty suite");
        let n = outcomes.len() as f64;
        let mean = |f: fn(&RelativeOutcome) -> f64| outcomes.iter().map(f).sum::<f64>() / n;
        let worst = outcomes
            .iter()
            .max_by(|a, b| a.slowdown.total_cmp(&b.slowdown))
            .expect("non-empty");
        Self {
            avg_slowdown: mean(|o| o.slowdown),
            worst_slowdown: worst.slowdown,
            worst_app: worst.app,
            apps_over_15_percent: outcomes.iter().filter(|o| o.slowdown > 1.15).count(),
            avg_energy_delay: mean(|o| o.relative_energy_delay),
            avg_first_level_fraction: mean(|o| o.first_level_fraction),
            avg_second_level_fraction: mean(|o| o.second_level_fraction),
            avg_sensor_response_fraction: mean(|o| o.sensor_response_fraction),
            total_violation_cycles: outcomes.iter().map(|o| o.violation_cycles).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlc::units::Volts;

    fn result(app: &'static str, cycles: u64, joules: f64) -> SimResult {
        SimResult {
            app,
            cycles,
            committed: 1000,
            ipc: 1.0,
            violation_cycles: 0,
            worst_noise: Volts::new(0.0),
            energy_joules: joules,
            energy_delay: 0.0,
            first_level_cycles: 0,
            second_level_cycles: 0,
            sensor_response_cycles: 0,
            damping_bound_cycles: 0,
        }
    }

    #[test]
    fn relative_outcome_math() {
        let base = result("x", 1000, 1.0);
        let mut tech = result("x", 1100, 1.05);
        tech.first_level_cycles = 110;
        let o = RelativeOutcome::new(&base, &tech);
        assert!((o.slowdown - 1.1).abs() < 1e-12);
        assert!((o.relative_energy - 1.05).abs() < 1e-12);
        assert!((o.relative_energy_delay - 1.155).abs() < 1e-12);
        assert!((o.first_level_fraction - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "different applications")]
    fn mismatched_apps_panic() {
        let _ = RelativeOutcome::new(&result("a", 10, 1.0), &result("b", 10, 1.0));
    }

    #[test]
    #[should_panic(expected = "identical work")]
    fn mismatched_work_panics() {
        let base = result("a", 10, 1.0);
        let mut tech = result("a", 12, 1.0);
        tech.committed = 900;
        let _ = RelativeOutcome::new(&base, &tech);
    }

    #[test]
    fn summary_aggregates() {
        let outcomes = vec![
            RelativeOutcome::new(&result("a", 100, 1.0), &result("a", 105, 1.02)),
            RelativeOutcome::new(&result("b", 100, 1.0), &result("b", 130, 1.20)),
            RelativeOutcome::new(&result("c", 100, 1.0), &result("c", 101, 1.00)),
        ];
        let s = Summary::from_outcomes(&outcomes);
        assert!((s.avg_slowdown - (1.05 + 1.30 + 1.01) / 3.0).abs() < 1e-12);
        assert_eq!(s.worst_app, "b");
        assert!((s.worst_slowdown - 1.3).abs() < 1e-12);
        assert_eq!(s.apps_over_15_percent, 1);
        assert_eq!(s.total_violation_cycles, 0);
    }

    #[test]
    #[should_panic(expected = "empty suite")]
    fn empty_summary_panics() {
        let _ = Summary::from_outcomes(&[]);
    }

    #[test]
    fn run_metrics_derive_rates_from_wall_time() {
        use crate::sim::{InstrumentedRun, PhaseTimings};
        use std::time::Duration;

        let phases = PhaseTimings {
            cpu: Duration::from_millis(10),
            sampled_cycles: 16,
            ..Default::default()
        };
        let mut sim_result = result("gzip", 2_000, 1.0);
        sim_result.sensor_response_cycles = 200;
        let run = InstrumentedRun {
            result: sim_result,
            detector_events: 3,
            phases,
            wall: Duration::from_millis(500),
        };
        let m = RunMetrics::from_instrumented("base", &run, CacheStats { hits: 2, misses: 1 });
        assert_eq!(m.app, "gzip");
        assert!((m.sensor_response_fraction - 0.1).abs() < 1e-12);
        assert!((m.sim_cycles_per_second - 4_000.0).abs() < 1e-6);
        assert!((m.phase_cpu_seconds - 0.010).abs() < 1e-9);
        assert_eq!(m.detector_events, 3);
        assert_eq!((m.base_cache_hits, m.base_cache_misses), (2, 1));
        assert!(!m.replayed);
    }

    #[test]
    fn replayed_metrics_carry_outcome_but_no_timing() {
        let m = RunMetrics::replayed("base", &result("mcf", 5_000, 2.0), CacheStats::default());
        assert!(m.replayed);
        assert_eq!(m.cycles, 5_000);
        assert_eq!(m.wall_seconds, 0.0);
        assert_eq!(m.sim_cycles_per_second, 0.0);
    }
}
