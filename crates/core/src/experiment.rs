//! Suite-level experiment drivers: run the 26-application suite under a
//! technique (on the bounded worker pool of [`crate::engine`]) and build
//! the rows of the paper's tables.

use workloads::{corpus, spec2k, WorkloadProfile};

use crate::baselines::{DampingConfig, SensorConfig};
use crate::config::{RunPolicy, TuningConfig};
use crate::engine::{
    cached_base_suite, cached_base_suite_supervised, cached_corpus_base_suite,
    cached_corpus_base_suite_supervised, run_suite_supervised, try_run_suite, SupervisedSuite,
};
use crate::fault::FailureReport;
use crate::metrics::{RelativeOutcome, Summary};
use crate::sim::{SimConfig, SimResult, Technique};

/// Runs every profile under `technique` on the engine's bounded worker
/// pool, returning results in suite order.
///
/// # Panics
///
/// Panics with the failing application's name if any run panics. Use
/// [`crate::engine::try_run_suite`] to handle that case, or to also get
/// per-run metrics.
pub fn run_suite(
    profiles: &[WorkloadProfile],
    technique: &Technique,
    sim: &SimConfig,
) -> Vec<SimResult> {
    match try_run_suite(profiles, technique, sim) {
        Ok(suite) => suite.results,
        Err(e) => panic!("{e}"),
    }
}

/// Runs the full 26-app suite on the base machine.
///
/// Base runs are memoized per configuration ([`cached_base_suite`]): every
/// table and figure driver in one process shares a single simulation, and
/// the default run store under `target/restune-cache/` spares later
/// processes the cold run.
pub fn run_base_suite(sim: &SimConfig) -> Vec<SimResult> {
    cached_base_suite(sim).results.clone()
}

/// [`run_base_suite`] for the RISC-V corpus suite (memoized and stored
/// through [`cached_corpus_base_suite`], like the synthetic suite).
pub fn run_corpus_base_suite(sim: &SimConfig) -> Vec<SimResult> {
    cached_corpus_base_suite(sim).results.clone()
}

/// Pairs base and technique suite results into per-app outcomes.
///
/// # Panics
///
/// Panics if the slices have different lengths or misaligned apps.
pub fn compare_suites(base: &[SimResult], technique: &[SimResult]) -> Vec<RelativeOutcome> {
    assert_eq!(base.len(), technique.len(), "suite size mismatch");
    base.iter()
        .zip(technique)
        .map(|(b, t)| RelativeOutcome::new(b, t))
        .collect()
}

/// Runs the suite under the policy's supervision and fault plan, labelling
/// the failure report with `scope` (a design-point label such as
/// `tuning-100`).
pub fn run_suite_policed(
    profiles: &[WorkloadProfile],
    technique: &Technique,
    sim: &SimConfig,
    policy: &RunPolicy,
    scope: &str,
) -> SupervisedSuite {
    let mut suite =
        run_suite_supervised(profiles, technique, sim, &policy.supervisor, &policy.plan);
    suite.report.scope = scope.to_string();
    suite
}

/// The base suite under supervision: storage faults are applied to the
/// suite's stored records, damaged records are recovered by re-simulating,
/// and a failing application degrades its slot rather than the whole suite.
///
/// With an inert policy this is bit-identical to [`run_base_suite`].
pub fn base_suite_supervised(sim: &SimConfig, policy: &RunPolicy) -> SupervisedSuite {
    cached_base_suite_supervised(sim, &policy.supervisor, &policy.plan)
}

/// [`base_suite_supervised`] for the RISC-V corpus suite.
pub fn corpus_base_suite_supervised(sim: &SimConfig, policy: &RunPolicy) -> SupervisedSuite {
    cached_corpus_base_suite_supervised(sim, &policy.supervisor, &policy.plan)
}

/// Pairs the applications that succeeded in *both* supervised suites into
/// per-app outcomes, skipping any slot that failed on either side — the
/// degraded analogue of [`compare_suites`].
///
/// # Panics
///
/// Panics if the suites have different lengths.
pub fn paired_outcomes(
    base: &SupervisedSuite,
    technique: &SupervisedSuite,
) -> Vec<RelativeOutcome> {
    assert_eq!(
        base.outcomes.len(),
        technique.outcomes.len(),
        "suite size mismatch"
    );
    base.outcomes
        .iter()
        .zip(&technique.outcomes)
        .filter_map(|(b, t)| match (b, t) {
            (Ok(b), Ok(t)) if b.app == t.app => Some(RelativeOutcome::new(b, t)),
            _ => None,
        })
        .collect()
}

/// One row of Table 2: an application's base-machine classification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Row {
    /// Application name.
    pub app: &'static str,
    /// The paper's classification for the real benchmark.
    pub paper_violating: bool,
    /// Measured IPC.
    pub ipc: f64,
    /// Measured fraction of cycles in violation.
    pub violation_fraction: f64,
}

/// Reproduces Table 2: classify every application by base-machine
/// violations.
pub fn table2(sim: &SimConfig) -> Vec<Table2Row> {
    let profiles = spec2k::all();
    run_base_suite(sim)
        .into_iter()
        .zip(&profiles)
        .map(|(r, p)| Table2Row {
            app: r.app,
            paper_violating: p.paper_violating,
            ipc: r.ipc,
            violation_fraction: r.violation_fraction(),
        })
        .collect()
}

/// One row of Table 3: resonance tuning at one initial response time.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Initial response time in cycles.
    pub initial_response_time: u32,
    /// Suite summary (first/second-level fractions, slowdowns, ED).
    pub summary: Summary,
    /// Per-app outcomes backing the summary.
    pub outcomes: Vec<RelativeOutcome>,
}

/// Reproduces Table 3: sweep the initial response time.
pub fn table3(sim: &SimConfig, response_times: &[u32], base: &[SimResult]) -> Vec<Table3Row> {
    table3_for(sim, &spec2k::all(), response_times, base)
}

/// Table 3 over the RISC-V corpus: the same response-time sweep, with each
/// design point executing the real programs' lowered traces instead of the
/// synthetic streams. `base` must come from [`run_corpus_base_suite`].
pub fn table3_riscv(sim: &SimConfig, response_times: &[u32], base: &[SimResult]) -> Vec<Table3Row> {
    table3_for(sim, &corpus::all(), response_times, base)
}

fn table3_for(
    sim: &SimConfig,
    profiles: &[WorkloadProfile],
    response_times: &[u32],
    base: &[SimResult],
) -> Vec<Table3Row> {
    response_times
        .iter()
        .map(|&t| {
            let technique = Technique::Tuning(TuningConfig::isca04_table1(t));
            let results = run_suite(profiles, &technique, sim);
            let outcomes = compare_suites(base, &results);
            Table3Row {
                initial_response_time: t,
                summary: Summary::from_outcomes(&outcomes),
                outcomes,
            }
        })
        .collect()
}

/// One row of Table 4: the voltage-sensor technique of \[10\] at one
/// threshold/noise/delay point.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// Sensor configuration (threshold, noise, delay).
    pub config: SensorConfig,
    /// Suite summary.
    pub summary: Summary,
    /// Per-app outcomes backing the summary.
    pub outcomes: Vec<RelativeOutcome>,
}

/// Reproduces Table 4: sweep the sensor technique's threshold, noise, and
/// delay.
pub fn table4(sim: &SimConfig, configs: &[SensorConfig], base: &[SimResult]) -> Vec<Table4Row> {
    let profiles = spec2k::all();
    configs
        .iter()
        .map(|&config| {
            let results = run_suite(&profiles, &Technique::Sensor(config), sim);
            let outcomes = compare_suites(base, &results);
            Table4Row {
                config,
                summary: Summary::from_outcomes(&outcomes),
                outcomes,
            }
        })
        .collect()
}

/// One row of Table 5: pipeline damping at one δ.
#[derive(Debug, Clone, PartialEq)]
pub struct Table5Row {
    /// δ relative to the resonant current variation threshold.
    pub delta_relative: f64,
    /// Suite summary.
    pub summary: Summary,
    /// Per-app outcomes backing the summary.
    pub outcomes: Vec<RelativeOutcome>,
}

/// Reproduces Table 5: sweep δ.
pub fn table5(sim: &SimConfig, deltas: &[f64], base: &[SimResult]) -> Vec<Table5Row> {
    let profiles = spec2k::all();
    deltas
        .iter()
        .map(|&d| {
            let technique = Technique::Damping(DampingConfig::isca04_table5(d));
            let results = run_suite(&profiles, &technique, sim);
            let outcomes = compare_suites(base, &results);
            Table5Row {
                delta_relative: d,
                summary: Summary::from_outcomes(&outcomes),
                outcomes,
            }
        })
        .collect()
}

/// Builds the Table 2 rows a supervised base suite can still support: one
/// row per *successful* application (a failed slot simply has no row).
pub fn table2_from_supervised(base: &SupervisedSuite) -> Vec<Table2Row> {
    base.outcomes
        .iter()
        .zip(&spec2k::all())
        .filter_map(|(outcome, p)| {
            outcome.as_ref().ok().map(|r| Table2Row {
                app: r.app,
                paper_violating: p.paper_violating,
                ipc: r.ipc,
                violation_fraction: r.violation_fraction(),
            })
        })
        .collect()
}

/// Supervised Table 3: each response-time design point runs under the
/// policy; a row covers the apps that succeeded in both that point and the
/// base suite, and a design point with no surviving pairs yields no row.
/// One scope-labelled [`FailureReport`] is returned per design point.
pub fn table3_supervised(
    sim: &SimConfig,
    response_times: &[u32],
    base: &SupervisedSuite,
    policy: &RunPolicy,
) -> (Vec<Table3Row>, Vec<FailureReport>) {
    table3_supervised_for(sim, &spec2k::all(), response_times, base, policy)
}

/// Supervised [`table3_riscv`] (see [`table3_supervised`] for the
/// degradation rules). `base` must come from
/// [`corpus_base_suite_supervised`].
pub fn table3_riscv_supervised(
    sim: &SimConfig,
    response_times: &[u32],
    base: &SupervisedSuite,
    policy: &RunPolicy,
) -> (Vec<Table3Row>, Vec<FailureReport>) {
    table3_supervised_for(sim, &corpus::all(), response_times, base, policy)
}

fn table3_supervised_for(
    sim: &SimConfig,
    profiles: &[WorkloadProfile],
    response_times: &[u32],
    base: &SupervisedSuite,
    policy: &RunPolicy,
) -> (Vec<Table3Row>, Vec<FailureReport>) {
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    for &t in response_times {
        let technique = Technique::Tuning(TuningConfig::isca04_table1(t));
        let suite = run_suite_policed(profiles, &technique, sim, policy, &format!("tuning-{t}"));
        let outcomes = paired_outcomes(base, &suite);
        if !outcomes.is_empty() {
            rows.push(Table3Row {
                initial_response_time: t,
                summary: Summary::from_outcomes(&outcomes),
                outcomes,
            });
        }
        reports.push(suite.report);
    }
    (rows, reports)
}

/// Supervised Table 4 (see [`table3_supervised`] for the degradation
/// rules).
pub fn table4_supervised(
    sim: &SimConfig,
    configs: &[SensorConfig],
    base: &SupervisedSuite,
    policy: &RunPolicy,
) -> (Vec<Table4Row>, Vec<FailureReport>) {
    let profiles = spec2k::all();
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    for &config in configs {
        let scope = format!(
            "sensor-{:.0}mV-{:.0}mV-{}cy",
            config.target_threshold.volts() * 1e3,
            config.sensor_noise_pp.volts() * 1e3,
            config.delay_cycles
        );
        let suite = run_suite_policed(&profiles, &Technique::Sensor(config), sim, policy, &scope);
        let outcomes = paired_outcomes(base, &suite);
        if !outcomes.is_empty() {
            rows.push(Table4Row {
                config,
                summary: Summary::from_outcomes(&outcomes),
                outcomes,
            });
        }
        reports.push(suite.report);
    }
    (rows, reports)
}

/// Supervised Table 5 (see [`table3_supervised`] for the degradation
/// rules).
pub fn table5_supervised(
    sim: &SimConfig,
    deltas: &[f64],
    base: &SupervisedSuite,
    policy: &RunPolicy,
) -> (Vec<Table5Row>, Vec<FailureReport>) {
    let profiles = spec2k::all();
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    for &d in deltas {
        let technique = Technique::Damping(DampingConfig::isca04_table5(d));
        let suite = run_suite_policed(&profiles, &technique, sim, policy, &format!("damping-{d}"));
        let outcomes = paired_outcomes(base, &suite);
        if !outcomes.is_empty() {
            rows.push(Table5Row {
                delta_relative: d,
                summary: Summary::from_outcomes(&outcomes),
                outcomes,
            });
        }
        reports.push(suite.report);
    }
    (rows, reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::run;

    fn quick_sim() -> SimConfig {
        SimConfig::isca04(20_000)
    }

    #[test]
    fn suite_runs_in_order() {
        let profiles: Vec<_> = spec2k::all().into_iter().take(4).collect();
        let results = run_suite(&profiles, &Technique::Base, &quick_sim());
        assert_eq!(results.len(), 4);
        for (r, p) in results.iter().zip(&profiles) {
            assert_eq!(r.app, p.name);
            assert!(r.committed >= 20_000 && r.committed < 20_000 + 8);
        }
    }

    #[test]
    fn parallel_suite_matches_serial() {
        let profiles: Vec<_> = spec2k::all().into_iter().take(3).collect();
        let parallel = run_suite(&profiles, &Technique::Base, &quick_sim());
        let serial: Vec<_> = profiles
            .iter()
            .map(|p| run(p, &Technique::Base, &quick_sim()))
            .collect();
        assert_eq!(parallel, serial, "threading must not affect determinism");
    }

    #[test]
    fn compare_suites_aligns_apps() {
        let profiles: Vec<_> = spec2k::all().into_iter().take(2).collect();
        let base = run_suite(&profiles, &Technique::Base, &quick_sim());
        let tech = run_suite(
            &profiles,
            &Technique::Tuning(TuningConfig::isca04_table1(100)),
            &quick_sim(),
        );
        let outcomes = compare_suites(&base, &tech);
        assert_eq!(outcomes.len(), 2);
        for o in &outcomes {
            assert!(
                o.slowdown >= 1.0 - 1e-9,
                "{}: slowdown {}",
                o.app,
                o.slowdown
            );
        }
    }

    #[test]
    fn inert_policy_pairs_exactly_like_compare_suites() {
        let profiles: Vec<_> = spec2k::all().into_iter().take(3).collect();
        let sim = quick_sim();
        let technique = Technique::Tuning(TuningConfig::isca04_table1(100));
        let policy = RunPolicy::none();

        let base_sup = run_suite_policed(&profiles, &Technique::Base, &sim, &policy, "base");
        let tech_sup = run_suite_policed(&profiles, &technique, &sim, &policy, "tuning-100");
        assert!(base_sup.report.is_empty() && tech_sup.report.is_empty());

        let base = run_suite(&profiles, &Technique::Base, &sim);
        let tech = run_suite(&profiles, &technique, &sim);
        assert_eq!(
            paired_outcomes(&base_sup, &tech_sup),
            compare_suites(&base, &tech),
            "inert supervision must be the identity"
        );
    }

    #[test]
    fn paired_outcomes_skip_apps_that_failed_either_side() {
        use crate::fault::{FaultPlan, FaultSpec};

        let profiles: Vec<_> = spec2k::all().into_iter().take(3).collect();
        let victim = profiles[2].name;
        let sim = quick_sim();
        let clean = RunPolicy::none();
        let faulty = RunPolicy {
            plan: FaultPlan::none().with_persistent_fault(victim, FaultSpec::WorkerPanic),
            ..RunPolicy::none()
        };

        let base = run_suite_policed(&profiles, &Technique::Base, &sim, &clean, "base");
        let technique = Technique::Tuning(TuningConfig::isca04_table1(100));
        let tech = run_suite_policed(&profiles, &technique, &sim, &faulty, "tuning-100");

        let outcomes = paired_outcomes(&base, &tech);
        assert_eq!(outcomes.len(), 2, "the failed app must be dropped");
        assert!(outcomes.iter().all(|o| o.app != victim));
        assert_eq!(tech.report.failures.len(), 1);
        assert_eq!(tech.report.scope, "tuning-100");
    }
}
