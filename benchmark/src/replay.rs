//! The traced run's simulation-layer probe: re-drives one job through the
//! public per-layer calls in the fused kernel's order — controller `tick`,
//! `Cpu::tick`, `PowerModel::current_for` + `EnergyMeter::record`, and
//! `PowerSupply::try_tick_batch` once per flush — timing one cycle in
//! [`SAMPLE_EVERY`]. Results are batch-invariant, so the flush batch is
//! this file's own constant; the replay must still equal `restune::run`
//! bit for bit, which the caller checks.

use cpusim::{CycleEvents, PipelineControls};
use powermodel::{EnergyMeter, PowerConfig, PowerModel};
use restune::{PipelineDamping, ResonanceTuner, SimConfig, SimResult, Technique, VoltageSensor};
use rlc::units::{Amps, Volts};
use rlc::PowerSupply;
use workloads::{shared_stream, stream::warm_caches};

use crate::jobs::Job;
use crate::spans::{Recorder, Span, NONE};

/// Cycles per supply flush (every cycle for the sensor technique, whose
/// controller reads the supply voltage back).
pub const FLUSH_BATCH: usize = 1024;

/// One cycle in this many is timed; a timestamp costs tens of ns against
/// a cycle of well under a microsecond.
pub const SAMPLE_EVERY: u64 = 64;

// One per replay, dispatched every cycle: enum dispatch, as in the kernel.
#[allow(clippy::large_enum_variant)]
enum Controller {
    Base,
    Tuning(ResonanceTuner),
    Sensor(VoltageSensor),
    Damping(PipelineDamping),
}

/// Deterministic work counts: a host-speed change must leave them equal.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimWork {
    pub cycles: u64,
    pub committed: u64,
    pub issued: u64,
    pub rob_entries: u64,
    pub l1d_misses: u64,
    pub restricted_cycles: u64,
    pub tuning_cycles: u64,
    pub detector_events: u64,
    pub flushes: u64,
}

/// Re-drives `job`, recording spans under a `replay` span tagged with
/// `job_id`. `None` when the supply integrator fails (a failed operation).
pub fn replay(
    job: &Job,
    sim: &SimConfig,
    rec: &Recorder,
    job_id: u32,
    work: &mut SimWork,
) -> Option<SimResult> {
    let mut spans: Vec<Span> = Vec::new();
    let root = rec.id();
    let root_start = rec.now();
    let mut span = |name: &'static str, start: u64, end: u64, count: u64| {
        spans.push(Span {
            id: rec.id(),
            parent: root,
            job: job_id,
            name,
            start,
            end,
            count,
        });
    };
    let (controller_span, tuning) = match job.technique {
        Technique::Base => ("controller.base", false),
        Technique::Tuning(_) => ("controller.tuning", true),
        Technique::Sensor(_) => ("controller.sensor", false),
        Technique::Damping(_) => ("controller.damping", false),
    };

    let setup_start = rec.now();
    // Tuning runs are charged the detector hardware, as in the kernel.
    let power_cfg = if tuning {
        PowerConfig {
            detector_overhead: Amps::new(0.3),
            ..sim.power
        }
    } else {
        sim.power
    };
    let mut cpu = cpusim::Cpu::new(sim.cpu, shared_stream(&job.profile, sim.instructions));
    warm_caches(&mut cpu);
    let mut model = PowerModel::new(power_cfg, sim.cpu);
    let idle = power_cfg.idle_current;
    let mut supply = PowerSupply::new(sim.supply, sim.clock, idle);
    let mut meter = EnergyMeter::new(power_cfg.vdd, sim.clock);
    let mut controller = match &job.technique {
        Technique::Base => Controller::Base,
        Technique::Tuning(c) => Controller::Tuning(ResonanceTuner::new(*c)),
        Technique::Sensor(c) => Controller::Sensor(VoltageSensor::new(*c)),
        Technique::Damping(c) => Controller::Damping(PipelineDamping::new(*c)),
    };
    span("kernel.setup", setup_start, rec.now(), 1);

    let flush_every = if matches!(job.technique, Technique::Sensor(_)) {
        1
    } else {
        FLUSH_BATCH
    };
    let mut currents: Vec<f64> = Vec::with_capacity(flush_every);
    let mut noises: Vec<f64> = Vec::with_capacity(flush_every);
    let mut last_current = idle;
    let mut last_noise = Volts::new(0.0);
    let mut last_events = CycleEvents::default();
    let mut cycles = 0u64;
    let mut damping_bound = 0u64;
    let running = |cpu: &cpusim::Cpu<_>, cycles: u64| {
        cpu.stats().committed < sim.instructions && cycles < sim.max_cycles
    };

    while running(&cpu, cycles) {
        currents.clear();
        let flush_start = cycles;
        while currents.len() < flush_every && running(&cpu, cycles) {
            let sampled = cycles.is_multiple_of(SAMPLE_EVERY);
            let t0 = if sampled { rec.now() } else { 0 };
            let controls = match &mut controller {
                Controller::Base => PipelineControls::free(),
                Controller::Tuning(t) => t.tick(last_current.amps()),
                Controller::Sensor(s) => s.tick(last_noise),
                Controller::Damping(d) => {
                    let c = d.tick(&last_events);
                    if c.phantom.is_some() {
                        damping_bound += 1;
                    }
                    c
                }
            };
            let t1 = if sampled { rec.now() } else { 0 };
            let ev = cpu.tick(controls);
            let t2 = if sampled { rec.now() } else { 0 };
            let amps = model.current_for(&ev).amps();
            meter.record(Amps::new(amps));
            if sampled {
                let t3 = rec.now();
                span(controller_span, t0, t1, 1);
                span("cpusim.tick", t1, t2, 1);
                span("powermodel.current", t2, t3, 1);
            }
            work.issued += u64::from(ev.issued_total());
            work.rob_entries += u64::from(ev.rob_occupancy);
            work.restricted_cycles += u64::from(controls.is_restricted());
            currents.push(amps);
            last_current = Amps::new(amps);
            last_events = ev;
            cycles += 1;
        }
        noises.clear();
        let sampled = flush_start.is_multiple_of(SAMPLE_EVERY);
        let t0 = if sampled { rec.now() } else { 0 };
        let flushed = supply.try_tick_batch(&currents, &mut noises);
        if sampled {
            span("rlc.flush", t0, rec.now(), currents.len() as u64);
        }
        flushed.ok()?;
        work.flushes += 1;
        if let Some(&n) = noises.last() {
            last_noise = Volts::new(n);
        }
    }

    let stats = *cpu.stats();
    let (mut first, mut second, mut sensor_cycles, mut damping_cycles) = (0, 0, 0, 0);
    match &controller {
        Controller::Base => {}
        Controller::Tuning(t) => {
            first = t.stats().first_level_cycles;
            second = t.stats().second_level_cycles;
            work.tuning_cycles += cycles;
            work.detector_events += t.detector().events_detected();
        }
        Controller::Sensor(s) => sensor_cycles = s.response_cycles(),
        Controller::Damping(d) => damping_cycles = d.throttled_cycles() + damping_bound,
    }
    work.cycles += cycles;
    work.committed += stats.committed;
    work.l1d_misses += stats.l1d_misses;

    spans.push(Span {
        id: root,
        parent: NONE,
        job: job_id,
        name: "replay",
        start: root_start,
        end: rec.now(),
        count: cycles,
    });
    rec.append(&mut spans);
    Some(SimResult {
        app: job.profile.name,
        cycles,
        committed: stats.committed,
        ipc: stats.ipc(),
        violation_cycles: supply.violation_cycles(),
        worst_noise: supply.worst_noise(),
        energy_joules: meter.joules(),
        energy_delay: meter.energy_delay(),
        first_level_cycles: first,
        second_level_cycles: second,
        sensor_response_cycles: sensor_cycles,
        damping_bound_cycles: damping_cycles,
    })
}
