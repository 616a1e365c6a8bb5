//! Suite-level experiment drivers: run the 26-application suite under a
//! technique (on the bounded worker pool of [`crate::engine`]) and build
//! the rows of the paper's tables.
//!
//! Every driver starts from a base suite ([`crate::engine::base_suite`] or
//! [`crate::engine::corpus_base_suite`]) and runs each design point under a
//! [`RunPolicy`]; the inert policy is just the policy with no faults, no
//! watchdog and no store of its own.

use workloads::{corpus, spec2k, WorkloadProfile};

use crate::baselines::{DampingConfig, SensorConfig};
use crate::config::{RunPolicy, TuningConfig};
use crate::engine::{run_suite_supervised, SupervisedSuite};
use crate::fault::FailureReport;
use crate::metrics::{RelativeOutcome, Summary};
use crate::sim::{SimConfig, Technique};

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

/// Pairs the applications that succeeded in *both* supervised suites into
/// per-app outcomes, skipping any slot that failed on either side.
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

/// Runs one suite per design point under `policy` and pairs each with
/// `base`. A row covers the apps that succeeded in both that point and the
/// base suite, and a design point with no surviving pairs yields no row.
/// One [`FailureReport`], labelled with the point's scope, is returned per
/// design point.
fn design_points<P: Copy, R>(
    profiles: &[WorkloadProfile],
    sim: &SimConfig,
    base: &SupervisedSuite,
    policy: &RunPolicy,
    points: &[P],
    design: impl Fn(P) -> (String, Technique),
    row: impl Fn(P, Vec<RelativeOutcome>) -> R,
) -> (Vec<R>, Vec<FailureReport>) {
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    for &point in points {
        let (scope, technique) = design(point);
        let suite = run_suite_policed(profiles, &technique, sim, policy, &scope);
        let outcomes = paired_outcomes(base, &suite);
        if !outcomes.is_empty() {
            rows.push(row(point, outcomes));
        }
        reports.push(suite.report);
    }
    (rows, reports)
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

/// Reproduces Table 2 from the SPEC2K base suite: classify every
/// application by base-machine violations. A failed slot simply has no row.
pub fn table2(base: &SupervisedSuite) -> Vec<Table2Row> {
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

/// Reproduces Table 3: sweep the initial response time over the SPEC2K
/// suite, one `tuning-T` design point per response time. `base` must come
/// from [`crate::engine::base_suite`].
pub fn table3(
    sim: &SimConfig,
    response_times: &[u32],
    base: &SupervisedSuite,
    policy: &RunPolicy,
) -> (Vec<Table3Row>, Vec<FailureReport>) {
    table3_for(&spec2k::all(), sim, response_times, base, policy)
}

/// Table 3 over the RISC-V corpus: the same response-time sweep, with each
/// design point executing the real programs' lowered traces instead of the
/// synthetic streams. `base` must come from
/// [`crate::engine::corpus_base_suite`].
pub fn table3_riscv(
    sim: &SimConfig,
    response_times: &[u32],
    base: &SupervisedSuite,
    policy: &RunPolicy,
) -> (Vec<Table3Row>, Vec<FailureReport>) {
    table3_for(&corpus::all(), sim, response_times, base, policy)
}

fn table3_for(
    profiles: &[WorkloadProfile],
    sim: &SimConfig,
    response_times: &[u32],
    base: &SupervisedSuite,
    policy: &RunPolicy,
) -> (Vec<Table3Row>, Vec<FailureReport>) {
    design_points(
        profiles,
        sim,
        base,
        policy,
        response_times,
        |t| {
            let technique = Technique::Tuning(TuningConfig::isca04_table1(t));
            (format!("tuning-{t}"), technique)
        },
        |t, outcomes| Table3Row {
            initial_response_time: t,
            summary: Summary::from_outcomes(&outcomes),
            outcomes,
        },
    )
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
/// delay over the SPEC2K suite (see [`table3`] for the rows and reports).
pub fn table4(
    sim: &SimConfig,
    configs: &[SensorConfig],
    base: &SupervisedSuite,
    policy: &RunPolicy,
) -> (Vec<Table4Row>, Vec<FailureReport>) {
    design_points(
        &spec2k::all(),
        sim,
        base,
        policy,
        configs,
        |config| {
            let scope = format!(
                "sensor-{:.0}mV-{:.0}mV-{}cy",
                config.target_threshold.volts() * 1e3,
                config.sensor_noise_pp.volts() * 1e3,
                config.delay_cycles
            );
            (scope, Technique::Sensor(config))
        },
        |config, outcomes| Table4Row {
            config,
            summary: Summary::from_outcomes(&outcomes),
            outcomes,
        },
    )
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

/// Reproduces Table 5: sweep δ over the SPEC2K suite (see [`table3`] for
/// the rows and reports).
pub fn table5(
    sim: &SimConfig,
    deltas: &[f64],
    base: &SupervisedSuite,
    policy: &RunPolicy,
) -> (Vec<Table5Row>, Vec<FailureReport>) {
    design_points(
        &spec2k::all(),
        sim,
        base,
        policy,
        deltas,
        |d| {
            let technique = Technique::Damping(DampingConfig::isca04_table5(d));
            (format!("damping-{d}"), technique)
        },
        |d, outcomes| Table5Row {
            delta_relative: d,
            summary: Summary::from_outcomes(&outcomes),
            outcomes,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_sim() -> SimConfig {
        SimConfig::isca04(20_000)
    }

    #[test]
    fn paired_outcomes_align_apps() {
        let profiles: Vec<_> = spec2k::all().into_iter().take(2).collect();
        let policy = RunPolicy::none();
        let base = run_suite_policed(&profiles, &Technique::Base, &quick_sim(), &policy, "base");
        let tech = run_suite_policed(
            &profiles,
            &Technique::Tuning(TuningConfig::isca04_table1(100)),
            &quick_sim(),
            &policy,
            "tuning-100",
        );
        let outcomes = paired_outcomes(&base, &tech);
        assert_eq!(outcomes.len(), 2);
        for (o, p) in outcomes.iter().zip(&profiles) {
            assert_eq!(o.app, p.name);
            assert!(
                o.slowdown >= 1.0 - 1e-9,
                "{}: slowdown {}",
                o.app,
                o.slowdown
            );
        }
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
