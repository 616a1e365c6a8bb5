//! Declarative parameter-grid sweeps over the technique × PDN × workload
//! space, backed by the run store ([`crate::store`]).
//!
//! A [`GridSpec`] names the axes — workload classes (the synthetic SPEC2K
//! profiles and the RISC-V corpus), PDN inductance scales, tuning response
//! times, sensor thresholds, damping deltas — and expands into one suite
//! per (class, PDN, technique) point. Every *individual application run*
//! inside those suites is a record in a [`RunStore`] (by default `store/`
//! under the cache directory), so overlapping sweeps share every common
//! run: a second sweep that widens one axis re-simulates only the new
//! points.
//!
//! Execution routes through [`run_suite_supervised`] with the sweep's
//! store, so sweeps inherit the whole supervision stack — watchdogs,
//! retries, store lookups and puts (an interrupted sweep resumes
//! bit-identically), one durability barrier per suite that put a run, the
//! worker pool, and `--connect` mesh offload —
//! without any sweep-specific scheduling. Each (class, PDN) group finally
//! reports its Pareto frontier over (violation cycles, slowdown,
//! energy-delay); because every execution path is bit-exact, the frontier
//! is byte-identical however the runs were produced.

use rlc::params::SupplyParams;
use rlc::units::Henries;
use workloads::{corpus, spec2k, WorkloadProfile};

use crate::baselines::{DampingConfig, SensorConfig};
use crate::config::{RunPolicy, SupervisorConfig, TuningConfig};
use crate::engine::run_suite_supervised;
use crate::fault::FaultPlan;
use crate::metrics::{RelativeOutcome, Summary};
use crate::obs;
use crate::sim::{SimConfig, SimResult, Technique};
use crate::store::{EvictStats, RunStore};

/// A workload class a sweep can cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadClass {
    /// The synthetic SPEC2K profile suite.
    Spec2k,
    /// The RISC-V real-program corpus.
    Corpus,
}

impl WorkloadClass {
    /// The class name used in grid specs and reports.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadClass::Spec2k => "spec2k",
            WorkloadClass::Corpus => "corpus",
        }
    }

    /// Every profile in the class, in suite order.
    pub fn profiles(self) -> Vec<WorkloadProfile> {
        match self {
            WorkloadClass::Spec2k => spec2k::all(),
            WorkloadClass::Corpus => corpus::all(),
        }
    }

    fn parse(raw: &str) -> Result<WorkloadClass, String> {
        match raw {
            "spec2k" => Ok(WorkloadClass::Spec2k),
            "corpus" => Ok(WorkloadClass::Corpus),
            other => Err(format!(
                "unknown workload class '{other}' (expected spec2k or corpus)"
            )),
        }
    }
}

/// One sensor design point: `THRESHOLD_MV:NOISE_MV:DELAY` in a grid spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorPoint {
    /// Detection threshold in millivolts below nominal.
    pub threshold_mv: f64,
    /// Sensor noise floor in millivolts.
    pub noise_mv: f64,
    /// Sensing-to-response delay in cycles.
    pub delay: u32,
}

/// The declarative axes of one sweep. Parsed from repeatable
/// `--grid KEY=VALUE` arguments; every unset axis keeps its default, and
/// the cross product of all axes is the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Workload classes to cover (`workloads=spec2k,corpus`).
    pub workloads: Vec<WorkloadClass>,
    /// PDN inductance scale factors (`pdn=1.0,1.5`); 1.0 is the paper's
    /// Table 1 network, exactly.
    pub pdn_scales: Vec<f64>,
    /// Tuning initial response times in cycles (`tuning=75,100`).
    pub tuning: Vec<u32>,
    /// Sensor design points (`sensor=THR:NOISE:DELAY,..`).
    pub sensor: Vec<SensorPoint>,
    /// Damping deltas relative to Table 5 (`damping=0.5,1.0`).
    pub damping: Vec<f64>,
    /// Committed instructions per run (`instructions=N`).
    pub instructions: u64,
}

impl GridSpec {
    /// Parses `KEY=VALUE` pairs into a spec, starting from the defaults
    /// (spec2k, the paper's PDN, tuning at 100 cycles,
    /// `default_instructions`).
    ///
    /// # Errors
    ///
    /// Returns a one-line description of the first malformed pair — an
    /// unknown key, an unparseable value, a PDN scale that produces an
    /// invalid (non-underdamped) supply network, a sensor point with
    /// negative noise or a non-positive actual threshold, or an instruction
    /// count whose cycle cap (12 cycles per instruction plus 100k)
    /// overflows a `u64`.
    pub fn parse(
        pairs: &[(String, String)],
        default_instructions: u64,
    ) -> Result<GridSpec, String> {
        let mut spec = GridSpec {
            workloads: vec![WorkloadClass::Spec2k],
            pdn_scales: vec![1.0],
            tuning: vec![100],
            sensor: Vec::new(),
            damping: Vec::new(),
            instructions: default_instructions,
        };
        for (key, value) in pairs {
            if value.is_empty() {
                return Err(format!("grid axis '{key}' has an empty value"));
            }
            match key.as_str() {
                "workloads" => {
                    spec.workloads = split_list(value, WorkloadClass::parse)?;
                }
                "pdn" => {
                    spec.pdn_scales = split_list(value, |v| {
                        let scale = parse_positive_f64(v, "PDN scale")?;
                        // Validate eagerly: a scale that breaks the
                        // underdamped invariant should fail at parse time,
                        // not halfway through a sweep.
                        sim_for(scale, spec.instructions)?;
                        Ok(scale)
                    })?;
                }
                "tuning" => {
                    spec.tuning = split_list(value, |v| {
                        v.parse::<u32>()
                            .ok()
                            .filter(|&t| t > 0)
                            .ok_or_else(|| format!("invalid tuning response time '{v}'"))
                    })?;
                }
                "sensor" => {
                    spec.sensor = split_list(value, parse_sensor_point)?;
                }
                "damping" => {
                    spec.damping = split_list(value, |v| parse_positive_f64(v, "damping delta"))?;
                }
                "instructions" => {
                    spec.instructions = value
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("invalid instruction count '{value}'"))?;
                    if SimConfig::cycle_cap(spec.instructions).is_none() {
                        return Err(format!(
                            "grid axis 'instructions': {value} instructions overflow the \
                             run's cycle cap"
                        ));
                    }
                }
                other => {
                    return Err(format!(
                        "unknown grid axis '{other}' (expected workloads, pdn, tuning, \
                         sensor, damping, or instructions)"
                    ));
                }
            }
        }
        Ok(spec)
    }

    /// Every technique point in the spec, labeled: the base machine plus
    /// one point per tuning / sensor / damping configuration.
    pub fn technique_points(&self) -> Vec<(String, Technique)> {
        let mut points = vec![(String::from("base"), Technique::Base)];
        for &t in &self.tuning {
            points.push((
                format!("tuning[{t}]"),
                Technique::Tuning(TuningConfig::isca04_table1(t)),
            ));
        }
        for s in &self.sensor {
            points.push((
                format!("sensor[{}:{}:{}]", s.threshold_mv, s.noise_mv, s.delay),
                Technique::Sensor(SensorConfig::table4(s.threshold_mv, s.noise_mv, s.delay)),
            ));
        }
        for &d in &self.damping {
            points.push((
                format!("damping[{d}]"),
                Technique::Damping(DampingConfig::isca04_table5(d)),
            ));
        }
        points
    }
}

fn split_list<T>(value: &str, parse: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    let items: Vec<T> = value
        .split(',')
        .map(str::trim)
        .filter(|v| !v.is_empty())
        .map(parse)
        .collect::<Result<_, _>>()?;
    if items.is_empty() {
        return Err(String::from("a grid axis needs at least one value"));
    }
    Ok(items)
}

fn parse_positive_f64(raw: &str, what: &str) -> Result<f64, String> {
    raw.parse::<f64>()
        .ok()
        .filter(|v| v.is_finite() && *v > 0.0)
        .ok_or_else(|| format!("invalid {what} '{raw}' (need a positive number)"))
}

fn parse_sensor_point(raw: &str) -> Result<SensorPoint, String> {
    let mut fields = raw.split(':');
    let point = (|| {
        let threshold_mv = fields
            .next()?
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())?;
        let noise_mv = fields
            .next()?
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())?;
        let delay = fields.next()?.parse::<u32>().ok()?;
        fields.next().is_none().then_some(SensorPoint {
            threshold_mv,
            noise_mv,
            delay,
        })
    })()
    .ok_or_else(|| format!("invalid sensor point '{raw}' (expected THR_MV:NOISE_MV:DELAY)"))?;
    // Validate eagerly, like a PDN scale: negative noise has no meaning, and
    // a non-positive actual threshold would make `VoltageSensor::new` panic
    // in every run of the point, after the sweep's other suites have run.
    let actual = SensorConfig::table4(point.threshold_mv, point.noise_mv, point.delay)
        .actual_threshold()
        .volts();
    if point.noise_mv < 0.0 || actual <= 0.0 {
        return Err(format!(
            "invalid sensor point '{raw}' (need NOISE_MV >= 0 and a positive actual \
             threshold THR_MV - NOISE_MV/2)"
        ));
    }
    Ok(point)
}

/// The machine configuration for one PDN scale: scale 1.0 is *exactly*
/// [`SimConfig::isca04`] (so those runs stay wire-encodable and can be
/// served by a `restuned` mesh); other scales multiply the Table 1 loop
/// inductance, moving the resonant frequency by `1/sqrt(scale)`.
///
/// # Errors
///
/// Returns the RLC validation error when the scaled network is no longer
/// underdamped.
pub fn sim_for(pdn_scale: f64, instructions: u64) -> Result<SimConfig, String> {
    let mut sim = SimConfig::isca04(instructions);
    if pdn_scale == 1.0 {
        return Ok(sim);
    }
    let base = sim.supply;
    sim.supply = SupplyParams::new(
        base.resistance(),
        Henries::from_pico(base.inductance().henries() * 1e12 * pdn_scale),
        base.capacitance(),
        base.vdd(),
        base.noise_margin(),
    )
    .map_err(|e| format!("PDN scale {pdn_scale}: {e}"))?;
    Ok(sim)
}

/// One evaluated sweep point: a technique on one (class, PDN) group,
/// summarized relative to that group's base machine.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Workload class name.
    pub class: &'static str,
    /// PDN inductance scale.
    pub pdn_scale: f64,
    /// Technique label (`base`, `tuning[100]`, ...).
    pub technique: String,
    /// Suite summary relative to the group's base machine (the base point
    /// summarizes against itself: slowdown 1.0, its own violations).
    pub summary: Summary,
    /// Whether the point is Pareto-optimal within its (class, PDN) group
    /// over (violation cycles, slowdown, energy-delay), all minimized.
    pub on_frontier: bool,
}

/// The result of one [`run_sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// Every evaluated point, in deterministic grid order.
    pub points: Vec<SweepPoint>,
    /// Individual application runs the grid required.
    pub runs: u64,
    /// Runs served from the store.
    pub store_hits: u64,
    /// Runs that had to simulate.
    pub store_misses: u64,
    /// What the end-of-sweep eviction pass removed.
    pub evicted: EvictStats,
}

impl SweepOutcome {
    /// The Pareto-optimal points, in grid order.
    pub fn frontier(&self) -> Vec<&SweepPoint> {
        self.points.iter().filter(|p| p.on_frontier).collect()
    }

    /// Fraction of runs served from the store (0.0 for an empty sweep).
    pub fn hit_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.store_hits as f64 / self.runs as f64
        }
    }
}

/// Expands `spec` and executes every point, sharing individual runs
/// through `store` and supervising suites with `policy` (so watchdogs,
/// fault plans, the worker pool, and `--connect` all apply; the sweep's
/// store takes the place of any store in the policy). Runs under
/// result-perturbing faults are stored under keys of their own, so they
/// never mix with clean ones. Emits `sweep-start` / `sweep-point` /
/// `frontier-point` / `sweep-end` trace events and finishes with a store
/// eviction pass.
///
/// # Errors
///
/// Returns a description of the first suite whose applications exhausted
/// their retries; every run that completed — in that suite too — stays in
/// the store, so a re-run resumes instead of restarting.
pub fn run_sweep(
    spec: &GridSpec,
    policy: &RunPolicy,
    store: &RunStore,
) -> Result<SweepOutcome, String> {
    let techniques = spec.technique_points();
    let groups = spec.workloads.len() * spec.pdn_scales.len();
    obs::Event::engine("sweep-start")
        .u64_field("groups", groups as u64)
        .u64_field("points", (groups * techniques.len()) as u64)
        .u64_field("instructions", spec.instructions)
        .emit();

    let sup = SupervisorConfig {
        store: Some(store.clone()),
        ..policy.supervisor.clone()
    };
    let mut outcome = SweepOutcome {
        points: Vec::new(),
        runs: 0,
        store_hits: 0,
        store_misses: 0,
        evicted: EvictStats::default(),
    };

    for &class in &spec.workloads {
        let profiles = class.profiles();
        for &pdn_scale in &spec.pdn_scales {
            let sim = sim_for(pdn_scale, spec.instructions)?;
            let mut group = Vec::with_capacity(techniques.len());
            for (label, technique) in &techniques {
                let results =
                    suite_results(&profiles, technique, &sim, &sup, &policy.plan, &mut outcome)
                        .map_err(|e| format!("{}/pdn={pdn_scale}/{label}: {e}", class.name()))?;
                group.push((label.clone(), results));
            }
            let base = &group[0].1;
            let summaries: Vec<(String, Summary)> = group
                .iter()
                .map(|(label, results)| {
                    let outcomes: Vec<RelativeOutcome> = base
                        .iter()
                        .zip(results)
                        .map(|(b, r)| RelativeOutcome::new(b, r))
                        .collect();
                    (label.clone(), Summary::from_outcomes(&outcomes))
                })
                .collect();
            for (index, (label, summary)) in summaries.iter().enumerate() {
                let on_frontier = summaries
                    .iter()
                    .enumerate()
                    .all(|(other, (_, s))| other == index || !dominates(s, summary));
                let point = SweepPoint {
                    class: class.name(),
                    pdn_scale,
                    technique: label.clone(),
                    summary: *summary,
                    on_frontier,
                };
                emit_point("sweep-point", &point);
                if on_frontier {
                    // A frontier point is still a sweep point: both shapes
                    // are emitted so histograms count every point once.
                    emit_point("frontier-point", &point);
                }
                outcome.points.push(point);
            }
        }
    }

    outcome.evicted = store.evict();
    obs::Event::engine("sweep-end")
        .u64_field("points", outcome.points.len() as u64)
        .u64_field("frontier", outcome.frontier().len() as u64)
        .u64_field("store_hits", outcome.store_hits)
        .u64_field("store_misses", outcome.store_misses)
        .emit();
    Ok(outcome)
}

/// Strict Pareto dominance over (violations, slowdown, energy-delay), all
/// minimized: no worse on every axis, strictly better on at least one.
fn dominates(a: &Summary, b: &Summary) -> bool {
    let no_worse = a.total_violation_cycles <= b.total_violation_cycles
        && a.avg_slowdown <= b.avg_slowdown
        && a.avg_energy_delay <= b.avg_energy_delay;
    let better = a.total_violation_cycles < b.total_violation_cycles
        || a.avg_slowdown < b.avg_slowdown
        || a.avg_energy_delay < b.avg_energy_delay;
    no_worse && better
}

fn emit_point(kind: &str, point: &SweepPoint) {
    obs::Event::engine(kind)
        .str_field("class", point.class)
        .f64_field("pdn", point.pdn_scale)
        .str_field("technique", &point.technique)
        .u64_field("violations", point.summary.total_violation_cycles)
        .f64_field("slowdown", point.summary.avg_slowdown)
        .f64_field("energy_delay", point.summary.avg_energy_delay)
        .emit();
}

/// One suite's results in profile order, run through the engine with the
/// sweep's store: stored runs replay, the rest simulate and are put.
fn suite_results(
    profiles: &[WorkloadProfile],
    technique: &Technique,
    sim: &SimConfig,
    sup: &SupervisorConfig,
    plan: &FaultPlan,
    outcome: &mut SweepOutcome,
) -> Result<Vec<SimResult>, String> {
    let suite = run_suite_supervised(profiles, technique, sim, sup, plan);
    let hits = suite
        .metrics
        .iter()
        .flatten()
        .filter(|m| m.replayed)
        .count() as u64;
    outcome.runs += profiles.len() as u64;
    outcome.store_hits += hits;
    outcome.store_misses += profiles.len() as u64 - hits;
    suite.all_results().ok_or_else(|| {
        let failed: Vec<String> = suite
            .outcomes
            .iter()
            .filter_map(|o| o.as_ref().err())
            .map(|f| f.to_string())
            .collect();
        failed.join("; ")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(raw: &[(&str, &str)]) -> Vec<(String, String)> {
        raw.iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn grid_parses_every_axis_and_rejects_nonsense() {
        let spec = GridSpec::parse(
            &pairs(&[
                ("workloads", "spec2k, corpus"),
                ("pdn", "1.0,1.5"),
                ("tuning", "75,100"),
                ("sensor", "10:2.5:5"),
                ("damping", "0.5"),
                ("instructions", "9000"),
            ]),
            120_000,
        )
        .expect("spec parses");
        assert_eq!(
            spec.workloads,
            vec![WorkloadClass::Spec2k, WorkloadClass::Corpus]
        );
        assert_eq!(spec.pdn_scales, vec![1.0, 1.5]);
        assert_eq!(spec.tuning, vec![75, 100]);
        assert_eq!(
            spec.sensor,
            vec![SensorPoint {
                threshold_mv: 10.0,
                noise_mv: 2.5,
                delay: 5
            }]
        );
        assert_eq!(spec.damping, vec![0.5]);
        assert_eq!(spec.instructions, 9_000);
        // base + 2 tuning + 1 sensor + 1 damping
        assert_eq!(spec.technique_points().len(), 5);

        for bad in [
            ("workloads", "spec9k"),
            ("pdn", "-1"),
            ("pdn", "0.0001"), // breaks the underdamped invariant
            ("tuning", "0"),
            ("sensor", "10:2.5"),
            ("sensor", "-5:0:0"),  // threshold below zero
            ("sensor", "20:50:0"), // noise swallows the threshold
            ("sensor", "20:-1:0"), // negative noise
            ("instructions", "0"),
            ("orientation", "sideways"),
            ("pdn", ""),
        ] {
            let result = GridSpec::parse(&pairs(&[bad]), 120_000);
            assert!(result.is_err(), "{bad:?} must be rejected");
        }
        // u64::MAX instructions: the cycle cap overflows.
        let err = GridSpec::parse(&pairs(&[("instructions", "18446744073709551615")]), 120_000)
            .expect_err("an overflowing cycle cap is rejected");
        assert!(
            err.contains("'instructions'"),
            "the error names the axis: {err}"
        );
        let largest = ((u64::MAX - 100_000) / 12).to_string();
        let spec = GridSpec::parse(&pairs(&[("instructions", largest.as_str())]), 120_000)
            .expect("the largest count whose cap fits parses");
        assert_eq!(SimConfig::cycle_cap(spec.instructions), Some(u64::MAX - 11));
    }

    #[test]
    fn pdn_scale_one_is_exactly_the_paper_machine() {
        let sim = sim_for(1.0, 10_000).expect("scale 1.0 is valid");
        assert_eq!(
            sim,
            SimConfig::isca04(10_000),
            "wire-encodability depends on this"
        );
        let scaled = sim_for(2.0, 10_000).expect("scale 2.0 is valid");
        let ratio = scaled.supply.inductance().henries() / sim.supply.inductance().henries();
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn frontier_marks_exactly_the_nondominated_points() {
        let summary = |violations, slowdown, ed| Summary {
            avg_slowdown: slowdown,
            worst_slowdown: slowdown,
            worst_app: "mcf",
            apps_over_15_percent: 0,
            avg_energy_delay: ed,
            avg_first_level_fraction: 0.0,
            avg_second_level_fraction: 0.0,
            avg_sensor_response_fraction: 0.0,
            total_violation_cycles: violations,
        };
        let a = summary(100, 1.0, 1.0); // base: violations, no slowdown
        let b = summary(0, 1.05, 1.1); // clean but slower
        let c = summary(0, 1.08, 1.2); // dominated by b
        assert!(
            !dominates(&a, &b) && !dominates(&b, &a),
            "a and b trade off"
        );
        assert!(dominates(&b, &c));
        assert!(!dominates(&c, &b));
        assert!(!dominates(&b, &b), "a point never dominates itself");
    }
}
