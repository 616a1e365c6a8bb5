//! The integrated simulation loop: CPU → power model → supply network, with
//! an inductive-noise controller in the feedback path.
//!
//! Mirrors the paper's methodology (Section 4): the Wattch-style model
//! converts per-cycle pipeline activity into current; the Heun-integrated
//! RLC supply converts current into voltage deviation; the controller
//! (resonance tuning, the voltage-sensor technique of \[10\], or pipeline
//! damping \[14\]) closes the loop through the pipeline throttle controls.

use std::time::{Duration, Instant};

use cpusim::{Cpu, CpuConfig, CycleEvents, PipelineControls, ScanMode};
use powermodel::{EnergyMeter, PowerConfig, PowerModel};
use rlc::units::{Amps, Hertz, Volts};
use rlc::{PowerSupply, SupplyParams};
use workloads::{stream::warm_caches, StreamGen, WorkloadProfile};

use crate::baselines::{DampingConfig, PipelineDamping, SensorConfig, VoltageSensor};
use crate::config::TuningConfig;
use crate::fault::{FaultRuntime, FaultSignal, FaultSpec};
use crate::response::ResonanceTuner;

/// How often (in cycles) the hot loop checks the watchdog deadline: rare
/// enough to stay off the profile, frequent enough that a stuck run is
/// caught within a fraction of a millisecond of simulated work.
pub(crate) const WATCHDOG_CHECK_MASK: u64 = 0xFFF;

/// The inductive-noise control technique applied during a run.
#[derive(Debug, Clone, PartialEq)]
pub enum Technique {
    /// No control: the base machine (violations allowed).
    Base,
    /// Resonance tuning (this paper).
    Tuning(TuningConfig),
    /// The voltage-threshold technique of \[10\].
    Sensor(SensorConfig),
    /// Pipeline damping \[14\].
    Damping(DampingConfig),
}

impl Technique {
    /// A short display name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            Technique::Base => "base",
            Technique::Tuning(_) => "tuning",
            Technique::Sensor(_) => "sensor[10]",
            Technique::Damping(_) => "damping[14]",
        }
    }
}

/// Machine-level simulation parameters shared across runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Processor configuration.
    pub cpu: CpuConfig,
    /// Power model configuration.
    pub power: PowerConfig,
    /// Power-supply network.
    pub supply: SupplyParams,
    /// Clock frequency.
    pub clock: Hertz,
    /// Run length in committed instructions (identical work for base and
    /// technique runs, so cycle ratios are slowdowns).
    pub instructions: u64,
    /// Safety cap on cycles (a run never exceeds this even if commit
    /// throughput collapses).
    pub max_cycles: u64,
}

impl SimConfig {
    /// The paper's machine with a given instruction budget per run. The
    /// cycle cap is 12 cycles per instruction plus 100k, saturating at
    /// `u64::MAX` for budgets whose cap does not fit.
    pub fn isca04(instructions: u64) -> Self {
        Self {
            cpu: CpuConfig::isca04_table1(),
            power: PowerConfig::isca04_table1(),
            supply: SupplyParams::isca04_table1(),
            clock: Hertz::from_giga(10.0),
            instructions,
            max_cycles: Self::cycle_cap(instructions).unwrap_or(u64::MAX),
        }
    }

    /// The cycle cap [`SimConfig::isca04`] gives `instructions`, or `None`
    /// when it overflows a `u64`.
    pub(crate) fn cycle_cap(instructions: u64) -> Option<u64> {
        instructions.checked_mul(12)?.checked_add(100_000)
    }
}

/// The outcome of one application run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimResult {
    /// Application name.
    pub app: &'static str,
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Committed IPC.
    pub ipc: f64,
    /// Cycles whose supply deviation exceeded the noise margin.
    pub violation_cycles: u64,
    /// Largest-magnitude supply deviation observed.
    pub worst_noise: Volts,
    /// Total energy in joules.
    pub energy_joules: f64,
    /// Energy × delay in joule-seconds.
    pub energy_delay: f64,
    /// Cycles in the first-level tuning response (0 for other techniques).
    pub first_level_cycles: u64,
    /// Cycles in the second-level tuning response (0 for other techniques).
    pub second_level_cycles: u64,
    /// Cycles in any response of the sensor technique (0 otherwise).
    pub sensor_response_cycles: u64,
    /// Cycles where damping throttled or padded (0 otherwise).
    pub damping_bound_cycles: u64,
}

impl SimResult {
    /// Fraction of cycles spent in the given count.
    fn fraction(&self, cycles: u64) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            cycles as f64 / self.cycles as f64
        }
    }

    /// Fraction of cycles in the first-level response.
    pub fn first_level_fraction(&self) -> f64 {
        self.fraction(self.first_level_cycles)
    }

    /// Fraction of cycles in the second-level response.
    pub fn second_level_fraction(&self) -> f64 {
        self.fraction(self.second_level_cycles)
    }

    /// Fraction of cycles in the sensor technique's response.
    pub fn sensor_response_fraction(&self) -> f64 {
        self.fraction(self.sensor_response_cycles)
    }

    /// Fraction of cycles in violation.
    pub fn violation_fraction(&self) -> f64 {
        self.fraction(self.violation_cycles)
    }
}

/// One cycle's observable state, passed to trace observers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleRecord {
    /// Cycle index.
    pub cycle: u64,
    /// Chip current this cycle.
    pub current: Amps,
    /// Supply deviation at end of cycle.
    pub noise: Volts,
    /// Resonant event count of an event detected this cycle (tuning only).
    pub event_count: Option<u32>,
    /// Whether the controls this cycle restricted the pipeline.
    pub restricted: bool,
    /// Pipeline events of the cycle.
    pub events: CycleEvents,
}

// One instance per run, dispatched every cycle of the hot loop — worth the
// stack size over boxing the tuner. Enum dispatch (not a trait object) so
// the per-cycle update inlines in both the reference loop and the fused
// kernel.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Controller {
    Base,
    Tuning(ResonanceTuner),
    Sensor(VoltageSensor),
    Damping(PipelineDamping),
}

impl Controller {
    pub(crate) fn for_technique(technique: &Technique) -> Self {
        match technique {
            Technique::Base => Controller::Base,
            Technique::Tuning(cfg) => Controller::Tuning(ResonanceTuner::new(*cfg)),
            Technique::Sensor(cfg) => Controller::Sensor(VoltageSensor::new(*cfg)),
            Technique::Damping(cfg) => Controller::Damping(PipelineDamping::new(*cfg)),
        }
    }
}

/// Wall-time attribution of the simulation loop's four stages (controller →
/// CPU → power model → supply), sampled every
/// [`PhaseTimings::SAMPLE_INTERVAL`] cycles so instrumented runs stay within
/// a few percent of uninstrumented speed: the clock is read only on sampled
/// cycles and around whole multi-cycle supply flushes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Time in the noise controller (detector + response selection).
    pub controller: Duration,
    /// Time in the out-of-order CPU model.
    pub cpu: Duration,
    /// Time in the Wattch-style power model.
    pub power: Duration,
    /// Time in the RLC supply integration, per sampled cycle: the reference
    /// loop's supply step, or the fused kernel's one-cycle flush (the
    /// sensor technique, which flushes every cycle).
    pub supply: Duration,
    /// Raw (unsampled) wall time of the fused kernel's multi-cycle supply
    /// flushes. A flush spans sampled and unsampled cycles alike, so each
    /// is timed whole and the total is scaled down by
    /// [`PhaseTimings::SAMPLE_INTERVAL`] only at report time
    /// ([`PhaseTimings::supply_sampled`]).
    pub supply_flush: Duration,
    /// How many cycles were sampled (each contributes to all four phases).
    pub sampled_cycles: u64,
}

impl PhaseTimings {
    /// One cycle in this many is timed; the rest run unobserved.
    pub const SAMPLE_INTERVAL: u64 = 64;

    /// The supply phase's sampled-equivalent time: the per-cycle samples
    /// plus the multi-cycle flush total scaled down by the sampling ratio
    /// (one division over the accumulated sum, not one per flush).
    pub fn supply_sampled(&self) -> Duration {
        self.supply + self.supply_flush / Self::SAMPLE_INTERVAL as u32
    }

    /// Total sampled wall time across the four phases.
    pub fn total(&self) -> Duration {
        self.controller + self.cpu + self.power + self.supply_sampled()
    }
}

/// A run's outcome plus the observability data the experiment engine
/// reports: per-phase wall time, total wall time, and detector activity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstrumentedRun {
    /// The simulation outcome (identical to what [`run`] returns).
    pub result: SimResult,
    /// Resonant events the tuning detector raised (0 for other techniques).
    pub detector_events: u64,
    /// Coarse per-phase wall-time attribution.
    pub phases: PhaseTimings,
    /// End-to-end wall time of the run.
    pub wall: Duration,
}

/// The power configuration a technique actually runs with: tuning runs are
/// charged the detection/prevention hardware overhead.
pub(crate) fn effective_power_config(technique: &Technique, sim: &SimConfig) -> PowerConfig {
    if matches!(technique, Technique::Tuning(_)) {
        PowerConfig {
            detector_overhead: Amps::new(0.3),
            ..sim.power
        }
    } else {
        sim.power
    }
}

/// Assembles a run's [`SimResult`] and detector-event count from the final
/// component states — shared by the reference loop and the fused kernel so
/// the two paths cannot drift in how they report a run.
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish_run(
    profile: &WorkloadProfile,
    cycles: u64,
    committed: u64,
    ipc: f64,
    supply: &PowerSupply,
    meter: &powermodel::EnergyMeter,
    controller: &Controller,
    damping_bound: u64,
) -> (SimResult, u64) {
    let (first, second) = match controller {
        Controller::Tuning(t) => (t.stats().first_level_cycles, t.stats().second_level_cycles),
        _ => (0, 0),
    };
    let sensor_cycles = match controller {
        Controller::Sensor(s) => s.response_cycles(),
        _ => 0,
    };
    let damping_cycles = match controller {
        Controller::Damping(d) => d.throttled_cycles() + damping_bound,
        _ => 0,
    };
    let detector_events = match controller {
        Controller::Tuning(t) => t.detector().events_detected(),
        _ => 0,
    };

    let result = SimResult {
        app: profile.name,
        cycles,
        committed,
        ipc,
        violation_cycles: supply.violation_cycles(),
        worst_noise: supply.worst_noise(),
        energy_joules: meter.joules(),
        energy_delay: meter.energy_delay(),
        first_level_cycles: first,
        second_level_cycles: second,
        sensor_response_cycles: sensor_cycles,
        damping_bound_cycles: damping_cycles,
    };
    (result, detector_events)
}

/// The shared simulation entry behind [`run_observed`], [`run_instrumented`]
/// and [`run_supervised`]: returns the outcome and the detector's event
/// count.
///
/// Dispatches to the fused batched kernel ([`crate::kernel`]) unless the
/// `RESTUNE_KERNEL=off` escape hatch selects the per-cycle reference loop.
/// The two paths are bit-exact (proven by the golden-trace fixtures and the
/// property suite), so the choice is purely a performance matter.
fn run_core(
    profile: &WorkloadProfile,
    technique: &Technique,
    sim: &SimConfig,
    observer: Option<&mut dyn FnMut(&CycleRecord)>,
    timers: Option<&mut PhaseTimings>,
    faults: &mut FaultRuntime,
    deadline: Option<Instant>,
) -> (SimResult, u64) {
    if crate::kernel::fused_enabled() {
        crate::kernel::run_fused(
            profile,
            technique,
            sim,
            crate::kernel::FLUSH_BATCH,
            observer,
            timers,
            faults,
            deadline,
        )
    } else {
        run_core_reference(profile, technique, sim, observer, timers, faults, deadline)
    }
}

/// The pre-kernel per-cycle simulation loop, kept as the bit-exactness
/// reference and A/B baseline for the fused kernel: classic full-window CPU
/// scheduling ([`ScanMode::FullScan`]), a private stream decode, and one
/// supply step per cycle.
///
/// `observer`, when given, sees every cycle's [`CycleRecord`] in order.
/// `faults` is the per-run fault state machine (the identity for ordinary
/// runs — the inert fast path returns every value bit-for-bit) and
/// `deadline` the optional watchdog deadline, checked every
/// `WATCHDOG_CHECK_MASK + 1` cycles. Watchdog expiry and surfaced
/// integration errors unwind with a typed [`FaultSignal`] payload so the
/// supervisor can classify them.
pub(crate) fn run_core_reference(
    profile: &WorkloadProfile,
    technique: &Technique,
    sim: &SimConfig,
    mut observer: Option<&mut dyn FnMut(&CycleRecord)>,
    mut timers: Option<&mut PhaseTimings>,
    faults: &mut FaultRuntime,
    deadline: Option<Instant>,
) -> (SimResult, u64) {
    let power_cfg = effective_power_config(technique, sim);
    let mut cpu = Cpu::with_scan_mode(sim.cpu, StreamGen::new(*profile), ScanMode::FullScan);
    warm_caches(&mut cpu);
    let mut model = PowerModel::new(power_cfg, sim.cpu);
    let idle = power_cfg.idle_current;
    let mut supply = PowerSupply::new(sim.supply, sim.clock, idle);
    let mut meter = EnergyMeter::new(power_cfg.vdd, sim.clock);

    let mut controller = Controller::for_technique(technique);

    let mut last_current = idle;
    let mut last_noise = Volts::new(0.0);
    let mut last_events = CycleEvents::default();
    let mut cycles = 0u64;
    let mut damping_bound = 0u64;

    // Times one stage when this cycle is sampled, otherwise runs it bare.
    macro_rules! staged {
        ($sampling:expr, $field:ident, $e:expr) => {
            if let (true, Some(acc)) = ($sampling, timers.as_deref_mut()) {
                let t0 = Instant::now();
                let v = $e;
                acc.$field += t0.elapsed();
                v
            } else {
                $e
            }
        };
    }

    while cpu.stats().committed < sim.instructions && cycles < sim.max_cycles {
        if let Some(deadline) = deadline {
            if cycles & WATCHDOG_CHECK_MASK == 0 && Instant::now() >= deadline {
                std::panic::panic_any(FaultSignal::timeout(cycles));
            }
        }
        let sampling = timers.is_some() && cycles.is_multiple_of(PhaseTimings::SAMPLE_INTERVAL);
        let mut event_count = None;
        let controls = staged!(
            sampling,
            controller,
            match &mut controller {
                Controller::Base => PipelineControls::free(),
                Controller::Tuning(t) => {
                    let c = t.tick(faults.sense(cycles, last_current.amps()));
                    event_count = t.last_event().map(|e| e.count);
                    c
                }
                Controller::Sensor(s) =>
                    s.tick(Volts::new(faults.sense(cycles, last_noise.volts()))),
                Controller::Damping(d) => {
                    let c = d.tick(&last_events);
                    if c.phantom.is_some() {
                        damping_bound += 1;
                    }
                    c
                }
            }
        );
        let ev = staged!(sampling, cpu, cpu.tick(controls));
        let current = staged!(
            sampling,
            power,
            Amps::new(faults.perturb_current(cycles, model.current_for(&ev).amps()))
        );
        let out = staged!(
            sampling,
            supply,
            match supply.try_tick(current) {
                Ok(out) => out,
                Err(e) => std::panic::panic_any(FaultSignal::numerical(e, cycles)),
            }
        );
        meter.record(current);
        if sampling {
            if let Some(acc) = timers.as_deref_mut() {
                acc.sampled_cycles += 1;
            }
        }

        if let Some(observe) = observer.as_deref_mut() {
            observe(&CycleRecord {
                cycle: cycles,
                current,
                noise: out.noise,
                event_count,
                restricted: controls.is_restricted(),
                events: ev,
            });
        }

        last_current = current;
        last_noise = out.noise;
        last_events = ev;
        cycles += 1;
    }

    finish_run(
        profile,
        cycles,
        cpu.stats().committed,
        cpu.stats().ipc(),
        &supply,
        &meter,
        &controller,
        damping_bound,
    )
}

/// Runs one application under a technique, invoking `observer` every cycle.
///
/// Prefer [`run`] unless you need per-cycle traces.
pub fn run_observed<F: FnMut(&CycleRecord)>(
    profile: &WorkloadProfile,
    technique: &Technique,
    sim: &SimConfig,
    mut observer: F,
) -> SimResult {
    run_core(
        profile,
        technique,
        sim,
        Some(&mut observer),
        None,
        &mut FaultRuntime::none(),
        None,
    )
    .0
}

/// Runs one application under a technique.
pub fn run(profile: &WorkloadProfile, technique: &Technique, sim: &SimConfig) -> SimResult {
    run_core(
        profile,
        technique,
        sim,
        None,
        None,
        &mut FaultRuntime::none(),
        None,
    )
    .0
}

/// Runs one application with observability enabled: the returned
/// [`InstrumentedRun`] carries wall time, coarse per-phase timings, and the
/// detector's event count alongside the ordinary [`SimResult`].
///
/// Timing is sampled, not exact, so `result` is bit-identical to [`run`]'s.
pub fn run_instrumented(
    profile: &WorkloadProfile,
    technique: &Technique,
    sim: &SimConfig,
) -> InstrumentedRun {
    let mut phases = PhaseTimings::default();
    let start = Instant::now();
    let (result, detector_events) = run_core(
        profile,
        technique,
        sim,
        None,
        Some(&mut phases),
        &mut FaultRuntime::none(),
        None,
    );
    InstrumentedRun {
        result,
        detector_events,
        phases,
        wall: start.elapsed(),
    }
}

/// The natural magnitude of what a technique's controller senses: relative
/// sensor-noise sigmas are scaled by this. The tuning detector watches
/// current (amps, against its variation threshold); the voltage sensor and
/// everything else watch supply deviation (volts, against the noise margin).
fn sense_scale(technique: &Technique, sim: &SimConfig) -> f64 {
    match technique {
        Technique::Tuning(cfg) => cfg.variation_threshold.amps(),
        _ => sim.supply.noise_margin().volts(),
    }
}

/// Runs one application with the given faults armed and an optional absolute
/// watchdog deadline — the supervised engine's per-attempt entry point.
///
/// With no faults and no deadline this is bit-identical to
/// [`run_instrumented`]. Injected worker faults fire before the simulation
/// starts; watchdog expiry and surfaced integration errors unwind with a
/// typed [`crate::fault::FaultSignal`] payload, so callers should wrap this
/// in `catch_unwind` and downcast to classify.
///
/// # Panics
///
/// Panics (by design) when an armed fault or the watchdog fires.
pub fn run_supervised(
    profile: &WorkloadProfile,
    technique: &Technique,
    sim: &SimConfig,
    specs: &[FaultSpec],
    deadline: Option<Instant>,
) -> InstrumentedRun {
    // Observability: the tracer is a read-only observer over per-cycle
    // records, so a traced run stays bit-identical to an untraced one. It
    // decides once per run: when tracing is off it is dormant, no observer
    // is attached, and the loop builds no records.
    let mut tracer =
        crate::obs::CycleTracer::new(profile.name, technique.name(), sim.supply.noise_margin());
    let traced = tracer.is_enabled();
    let mut observe = |rec: &CycleRecord| tracer.observe(rec);
    crate::obs::note_armed_faults(profile.name, specs);
    let mut faults = FaultRuntime::from_specs(specs, sense_scale(technique, sim));
    faults.set_traced_app(profile.name);
    faults.pre_run();
    let mut phases = PhaseTimings::default();
    let start = Instant::now();
    let (result, detector_events) = run_core(
        profile,
        technique,
        sim,
        traced.then_some(&mut observe as &mut dyn FnMut(&CycleRecord)),
        Some(&mut phases),
        &mut faults,
        deadline,
    );
    tracer.finish();
    if crate::obs::trace_enabled() {
        crate::obs::Event::sim("run-end", profile.name, result.cycles)
            .str_field("technique", technique.name())
            .u64_field("committed", result.committed)
            .u64_field("violation_cycles", result.violation_cycles)
            .u64_field("detector_events", detector_events)
            .f64_field("wall_seconds", start.elapsed().as_secs_f64())
            .emit();
    }
    InstrumentedRun {
        result,
        detector_events,
        phases,
        wall: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::spec2k;

    fn quick_sim() -> SimConfig {
        SimConfig::isca04(40_000)
    }

    #[test]
    fn base_run_completes_requested_instructions() {
        let p = spec2k::by_name("gzip").unwrap();
        let r = run(&p, &Technique::Base, &quick_sim());
        assert!(r.committed >= 40_000 && r.committed < 40_000 + 8);
        assert!(r.cycles > 0);
        assert!(r.ipc > 0.5);
        assert!(r.energy_joules > 0.0);
    }

    #[test]
    fn identical_runs_are_deterministic() {
        let p = spec2k::by_name("parser").unwrap();
        let a = run(&p, &Technique::Base, &quick_sim());
        let b = run(&p, &Technique::Base, &quick_sim());
        assert_eq!(a, b);
    }

    #[test]
    fn violating_app_violates_on_base_machine() {
        let p = spec2k::by_name("swim").unwrap();
        let sim = SimConfig::isca04(150_000);
        let r = run(&p, &Technique::Base, &sim);
        assert!(
            r.violation_cycles > 0,
            "swim must violate on the base machine"
        );
    }

    #[test]
    fn tuning_prevents_nearly_all_violations() {
        let p = spec2k::by_name("swim").unwrap();
        let sim = SimConfig::isca04(150_000);
        let base = run(&p, &Technique::Base, &sim);
        let tuned = run(
            &p,
            &Technique::Tuning(TuningConfig::isca04_table1(100)),
            &sim,
        );
        assert!(base.violation_cycles > 0);
        assert!(
            tuned.violation_cycles * 20 <= base.violation_cycles,
            "tuning should eliminate ≥95% of violation cycles: {} vs {}",
            tuned.violation_cycles,
            base.violation_cycles
        );
        assert!(tuned.first_level_cycles > 0, "tuning must actually engage");
    }

    #[test]
    fn tuning_slowdown_is_modest() {
        let p = spec2k::by_name("bzip").unwrap();
        let sim = SimConfig::isca04(80_000);
        let base = run(&p, &Technique::Base, &sim);
        let tuned = run(
            &p,
            &Technique::Tuning(TuningConfig::isca04_table1(100)),
            &sim,
        );
        let slowdown = tuned.cycles as f64 / base.cycles as f64;
        assert!(slowdown < 1.35, "tuning slowdown {slowdown} too harsh");
        assert!(slowdown >= 1.0 - 1e-9);
    }

    #[test]
    fn sensor_technique_responds_and_runs() {
        let p = spec2k::by_name("swim").unwrap();
        let sim = SimConfig::isca04(80_000);
        let r = run(
            &p,
            &Technique::Sensor(SensorConfig::table4(20.0, 0.0, 0)),
            &sim,
        );
        assert!(
            r.sensor_response_cycles > 0,
            "sensor should react to swim's variations"
        );
        assert!(r.committed >= 80_000);
    }

    #[test]
    fn damping_bounds_variations_at_cost() {
        let p = spec2k::by_name("swim").unwrap();
        let sim = SimConfig::isca04(80_000);
        let base = run(&p, &Technique::Base, &sim);
        let damped = run(
            &p,
            &Technique::Damping(DampingConfig::isca04_table5(0.25)),
            &sim,
        );
        assert!(
            damped.cycles > base.cycles,
            "tight damping must cost cycles"
        );
        assert!(damped.violation_cycles <= base.violation_cycles);
    }

    #[test]
    fn observer_sees_every_cycle() {
        let p = spec2k::by_name("gzip").unwrap();
        let sim = SimConfig::isca04(5_000);
        let mut n = 0u64;
        let r = run_observed(&p, &Technique::Base, &sim, |rec| {
            assert_eq!(rec.cycle, n);
            n += 1;
        });
        assert_eq!(n, r.cycles);
    }

    #[test]
    fn instrumented_run_matches_plain_run() {
        let p = spec2k::by_name("gzip").unwrap();
        let sim = quick_sim();
        let plain = run(&p, &Technique::Base, &sim);
        let inst = run_instrumented(&p, &Technique::Base, &sim);
        assert_eq!(
            inst.result, plain,
            "instrumentation must not perturb the simulation"
        );
        assert!(inst.wall > Duration::ZERO);
        assert!(inst.phases.sampled_cycles > 0);
        assert_eq!(
            inst.phases.sampled_cycles,
            plain.cycles.div_ceil(PhaseTimings::SAMPLE_INTERVAL),
            "every SAMPLE_INTERVAL-th cycle is timed"
        );
        assert!(
            inst.phases.total() <= inst.wall,
            "sampled time is a subset of wall time"
        );
        assert_eq!(inst.detector_events, 0, "base runs have no detector");
    }

    #[test]
    fn one_cycle_flushes_are_timed_on_sampled_cycles_only() {
        let p = spec2k::by_name("swim").unwrap();
        let sim = SimConfig::isca04(20_000);
        let sensor = Technique::Sensor(SensorConfig::table4(20.0, 10.0, 5));
        let inst = run_instrumented(&p, &sensor, &sim);
        assert_eq!(
            inst.phases.supply_flush,
            Duration::ZERO,
            "the sensor's one-cycle flushes are not timed whole"
        );
        assert!(inst.phases.supply > Duration::ZERO, "sampled flushes count");
        assert_eq!(
            inst.phases.sampled_cycles,
            inst.result.cycles.div_ceil(PhaseTimings::SAMPLE_INTERVAL)
        );
        let tuning = Technique::Tuning(TuningConfig::isca04_table1(100));
        let inst = run_instrumented(&p, &tuning, &sim);
        assert!(
            inst.phases.supply_flush > Duration::ZERO,
            "batched flushes keep their whole-flush timing"
        );
    }

    #[test]
    fn instrumented_tuning_run_reports_detector_events() {
        let p = spec2k::by_name("swim").unwrap();
        let sim = SimConfig::isca04(150_000);
        let inst = run_instrumented(
            &p,
            &Technique::Tuning(TuningConfig::isca04_table1(100)),
            &sim,
        );
        assert!(inst.detector_events > 0, "swim must trip the detector");
    }

    #[test]
    fn supervised_run_without_faults_is_bit_identical() {
        let p = spec2k::by_name("gzip").unwrap();
        let sim = quick_sim();
        let plain = run(&p, &Technique::Base, &sim);
        let supervised = run_supervised(&p, &Technique::Base, &sim, &[], None);
        assert_eq!(supervised.result, plain);
    }

    #[test]
    fn numeric_fault_unwinds_with_a_classified_signal() {
        use crate::fault::{FailureKind, FaultSignal, FaultSpec};
        let p = spec2k::by_name("gzip").unwrap();
        let sim = SimConfig::isca04(20_000);
        let specs = [FaultSpec::NumericNan { at_cycle: 500 }];
        let payload = std::panic::catch_unwind(|| {
            let _ = run_supervised(&p, &Technique::Base, &sim, &specs, None);
        })
        .expect_err("NaN current must unwind");
        let signal = payload
            .downcast::<FaultSignal>()
            .expect("payload is a FaultSignal");
        assert_eq!(signal.kind, FailureKind::Numerical);
        assert!(signal.message.contains("cycle 500"), "{}", signal.message);
    }

    #[test]
    fn watchdog_deadline_unwinds_as_timeout() {
        use crate::fault::{FailureKind, FaultSignal};
        let p = spec2k::by_name("gzip").unwrap();
        let sim = SimConfig::isca04(200_000);
        let deadline = Some(Instant::now()); // already expired
        let payload = std::panic::catch_unwind(|| {
            let _ = run_supervised(&p, &Technique::Base, &sim, &[], deadline);
        })
        .expect_err("expired deadline must unwind");
        let signal = payload
            .downcast::<FaultSignal>()
            .expect("payload is a FaultSignal");
        assert_eq!(signal.kind, FailureKind::Timeout);
    }

    #[test]
    fn sensor_faults_perturb_sensing_techniques_but_not_base() {
        use crate::fault::FaultSpec;
        let p = spec2k::by_name("swim").unwrap();
        let sim = SimConfig::isca04(60_000);
        let specs = [FaultSpec::SensorNoise {
            sigma: 0.5,
            seed: 11,
        }];

        let base_clean = run(&p, &Technique::Base, &sim);
        let base_faulted = run_supervised(&p, &Technique::Base, &sim, &specs, None);
        assert_eq!(
            base_faulted.result, base_clean,
            "base has no sensor: sensor faults must not touch it"
        );

        let technique = Technique::Tuning(TuningConfig::isca04_table1(100));
        let clean = run(&p, &technique, &sim);
        let faulted = run_supervised(&p, &technique, &sim, &specs, None);
        assert_ne!(
            faulted.result, clean,
            "heavy detector noise must change the tuning run"
        );
    }

    #[test]
    fn huge_delays_and_windows_run_without_reserving_them_up_front() {
        use crate::fault::FaultSpec;
        let p = spec2k::by_name("gzip").unwrap();
        let sim = SimConfig::isca04(2_000);
        let sensor = Technique::Sensor(SensorConfig::table4(20.0, 10.0, u32::MAX));
        let damping = Technique::Damping(DampingConfig {
            window: u32::MAX,
            ..DampingConfig::isca04_table5(1.0)
        });
        for technique in [&sensor, &damping] {
            assert!(run(&p, technique, &sim).committed >= 2_000);
        }
        let delayed = [FaultSpec::SensorDelay { cycles: u32::MAX }];
        let inst = run_supervised(&p, &sensor, &sim, &delayed, None);
        assert!(inst.result.committed >= 2_000);
    }

    #[test]
    fn cycle_cap_saturates_instead_of_wrapping() {
        assert_eq!(SimConfig::isca04(u64::MAX).max_cycles, u64::MAX);
        assert_eq!(SimConfig::isca04(1_000).max_cycles, 112_000);
        let largest = (u64::MAX - 100_000) / 12;
        assert_eq!(SimConfig::cycle_cap(largest), Some(largest * 12 + 100_000));
        assert_eq!(SimConfig::cycle_cap(largest + 1), None);
        assert_eq!(SimConfig::isca04(largest + 1).max_cycles, u64::MAX);
    }

    #[test]
    fn technique_names() {
        assert_eq!(Technique::Base.name(), "base");
        assert_eq!(
            Technique::Tuning(TuningConfig::isca04_table1(75)).name(),
            "tuning"
        );
        assert_eq!(
            Technique::Sensor(SensorConfig::table4(30.0, 0.0, 0)).name(),
            "sensor[10]"
        );
        assert_eq!(
            Technique::Damping(DampingConfig::isca04_table5(1.0)).name(),
            "damping[14]"
        );
    }
}
