//! Cycle-driven power-supply simulation: feed per-cycle CPU current in, get
//! per-cycle noise voltage and violation flags out.
//!
//! [`PowerSupply`] is the stateful object the integrated processor simulation
//! steps once per clock cycle. [`simulate_waveform`] is the batch driver used
//! by the circuit-level experiments (Figure 3, calibration).

use crate::error::IntegrationError;
use crate::integrator::{try_step, Method, PreparedStep, SupplyState};
use crate::params::SupplyParams;
use crate::units::{Amps, Cycles, Hertz, Seconds, Volts};
use crate::waveform::Waveform;

/// A stateful power supply advanced one clock cycle at a time.
///
/// # Examples
///
/// ```
/// use rlc::{PowerSupply, SupplyParams};
/// use rlc::units::{Amps, Hertz};
///
/// let mut supply = PowerSupply::new(
///     SupplyParams::isca04_table1(),
///     Hertz::from_giga(10.0),
///     Amps::new(70.0),
/// );
/// // A constant current never violates the noise margin.
/// for _ in 0..1000 {
///     let out = supply.tick(Amps::new(70.0));
///     assert!(!out.violation);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct PowerSupply {
    params: SupplyParams,
    dt: Seconds,
    method: Method,
    state: SupplyState,
    prev_current: Amps,
    cycle: Cycles,
    violations: u64,
    worst_noise: Volts,
}

/// Per-cycle output of [`PowerSupply::tick`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupplyOutput {
    /// The cycle index that was just completed.
    pub cycle: Cycles,
    /// The inductive-noise voltage at the end of the cycle (IR drop removed;
    /// 0 at any constant current).
    pub noise: Volts,
    /// `true` when `|noise|` exceeds the configured noise margin.
    pub violation: bool,
}

impl PowerSupply {
    /// Creates a supply at rest, pre-settled at `initial_current` (no startup
    /// transient).
    pub fn new(params: SupplyParams, clock: Hertz, initial_current: Amps) -> Self {
        Self::with_method(params, clock, initial_current, Method::Heun)
    }

    /// Creates a supply using a specific integration [`Method`].
    ///
    /// # Panics
    ///
    /// Panics if `clock` is not finite and positive.
    pub fn with_method(
        params: SupplyParams,
        clock: Hertz,
        initial_current: Amps,
        method: Method,
    ) -> Self {
        assert!(
            clock.hertz().is_finite() && clock.hertz() > 0.0,
            "clock frequency must be finite and positive"
        );
        Self {
            state: SupplyState::steady(&params, initial_current),
            params,
            dt: clock.period(),
            method,
            prev_current: initial_current,
            cycle: Cycles::new(0),
            violations: 0,
            worst_noise: Volts::new(0.0),
        }
    }

    /// The circuit parameters.
    pub fn params(&self) -> &SupplyParams {
        &self.params
    }

    /// Advances one clock cycle during which the CPU draws `current`, and
    /// returns the end-of-cycle noise voltage and violation flag.
    ///
    /// # Panics
    ///
    /// Panics when the guarded integration step fails (see
    /// [`PowerSupply::try_tick`] for the fallible form).
    pub fn tick(&mut self, current: Amps) -> SupplyOutput {
        self.try_tick(current)
            .unwrap_or_else(|e| panic!("supply integration failed: {e}"))
    }

    /// The fallible form of [`PowerSupply::tick`]: advances one cycle, or
    /// returns the [`IntegrationError`] when the step produced an unusable
    /// state even after the integrator's halved retry. On error the supply
    /// state is left untouched, so a caller may recover by replaying the
    /// cycle with a sanitized current.
    pub fn try_tick(&mut self, current: Amps) -> Result<SupplyOutput, IntegrationError> {
        self.state = try_step(
            &self.params,
            self.method,
            self.state,
            self.prev_current,
            current,
            self.dt,
        )?;
        self.prev_current = current;
        let noise = self.state.noise_voltage(&self.params);
        let violation = noise.abs().volts() > self.params.noise_margin().volts();
        if violation {
            self.violations += 1;
        }
        if noise.abs().volts() > self.worst_noise.abs().volts() {
            self.worst_noise = noise;
        }
        let out = SupplyOutput {
            cycle: self.cycle,
            noise,
            violation,
        };
        self.cycle = self.cycle + Cycles::new(1);
        Ok(out)
    }

    /// Advances one clock cycle per element of `currents` (amps), appending
    /// each end-of-cycle noise voltage (volts) to `noise_out`.
    ///
    /// This is the batch form of [`PowerSupply::try_tick`] for flat-buffer
    /// hot loops: the step size is validated and the circuit coefficients
    /// are loaded once per call via [`PreparedStep`], then every element
    /// runs exactly the per-cycle operation sequence of `try_tick` — state
    /// step, previous-current update, noise evaluation, violation count,
    /// worst-noise update, cycle advance — so a batch call is bit-exact
    /// with the equivalent serial `try_tick` loop, for any batch size.
    ///
    /// # Errors
    ///
    /// On a failed step at index `k`, returns `(k, error)` with `noise_out`
    /// holding the `k` completed cycles and the supply state exactly as a
    /// serial loop would leave it after cycle `k - 1`: cycle `k` itself is
    /// untouched and may be replayed with a sanitized current.
    #[inline]
    pub fn try_tick_batch(
        &mut self,
        currents: &[f64],
        noise_out: &mut Vec<f64>,
    ) -> Result<(), (usize, IntegrationError)> {
        let prepared = PreparedStep::new(self.params, self.method, self.dt).map_err(|e| (0, e))?;
        noise_out.reserve(currents.len());
        for (k, &amps) in currents.iter().enumerate() {
            let current = Amps::new(amps);
            self.state = prepared
                .advance(self.state, self.prev_current, current)
                .map_err(|e| (k, e))?;
            self.prev_current = current;
            let noise = self.state.noise_voltage(&self.params);
            let violation = noise.abs().volts() > self.params.noise_margin().volts();
            if violation {
                self.violations += 1;
            }
            if noise.abs().volts() > self.worst_noise.abs().volts() {
                self.worst_noise = noise;
            }
            self.cycle = self.cycle + Cycles::new(1);
            noise_out.push(noise.volts());
        }
        Ok(())
    }

    /// The current inductive-noise voltage without advancing time.
    pub fn noise(&self) -> Volts {
        self.state.noise_voltage(&self.params)
    }

    /// The raw integrator state (node voltage and inductor current).
    pub fn state(&self) -> SupplyState {
        self.state
    }

    /// Total cycles simulated so far.
    pub fn cycles(&self) -> Cycles {
        self.cycle
    }

    /// Total cycles whose noise exceeded the margin.
    pub fn violation_cycles(&self) -> u64 {
        self.violations
    }

    /// The largest-magnitude noise voltage observed so far.
    pub fn worst_noise(&self) -> Volts {
        self.worst_noise
    }

    /// Resets the supply to rest at `current` and clears statistics.
    pub fn reset(&mut self, current: Amps) {
        self.state = SupplyState::steady(&self.params, current);
        self.prev_current = current;
        self.cycle = Cycles::new(0);
        self.violations = 0;
        self.worst_noise = Volts::new(0.0);
    }
}

/// A full per-cycle trace from a batch waveform simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveformTrace {
    /// Per-cycle CPU current fed to the supply.
    pub current: Vec<Amps>,
    /// Per-cycle noise voltage (IR drop removed).
    pub noise: Vec<Volts>,
    /// Cycle indices at which the noise margin was violated.
    pub violation_cycles: Vec<Cycles>,
    /// The largest-magnitude noise voltage over the run.
    pub worst_noise: Volts,
}

impl WaveformTrace {
    /// `true` when the margin was violated at least once.
    pub fn violated(&self) -> bool {
        !self.violation_cycles.is_empty()
    }

    /// The first cycle at which a violation occurred, if any.
    pub fn first_violation(&self) -> Option<Cycles> {
        self.violation_cycles.first().copied()
    }
}

/// One tapped sample of the supply waveform: the CPU current driven into the
/// supply during a cycle and the inductive-noise voltage it produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaveformSample {
    /// Cycle index the sample was taken at.
    pub cycle: u64,
    /// CPU current drawn during the cycle.
    pub current: Amps,
    /// End-of-cycle inductive-noise voltage.
    pub noise: Volts,
}

/// A fixed-capacity ring buffer tapping the supply's per-cycle waveform.
///
/// The observability layer records every cycle's `(current, noise)` pair
/// here so that when a noise-margin violation or detector event fires, the
/// cycles *leading up to it* are still available and can be dumped as a
/// compact trace window (the paper's Figure 3/4-style voltage traces).
/// Recording is a pair of array writes — it never touches the supply state,
/// so a tapped run is bit-exact with an untapped one.
#[derive(Debug, Clone)]
pub struct WaveformRing {
    samples: Vec<WaveformSample>,
    capacity: usize,
    head: usize,
}

impl WaveformRing {
    /// Creates an empty ring holding at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "waveform ring needs a nonzero capacity");
        Self {
            samples: Vec::with_capacity(capacity),
            capacity,
            head: 0,
        }
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of samples currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when nothing has been recorded since creation/[`Self::clear`].
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Records one cycle's sample, evicting the oldest once full.
    pub fn record(&mut self, cycle: u64, current: Amps, noise: Volts) {
        let sample = WaveformSample {
            cycle,
            current,
            noise,
        };
        if self.samples.len() < self.capacity {
            self.samples.push(sample);
        } else {
            self.samples[self.head] = sample;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// The held samples in chronological order (oldest first).
    pub fn snapshot(&self) -> Vec<WaveformSample> {
        let mut out = Vec::with_capacity(self.samples.len());
        out.extend_from_slice(&self.samples[self.head..]);
        out.extend_from_slice(&self.samples[..self.head]);
        out
    }

    /// Discards all samples; capacity is unchanged.
    pub fn clear(&mut self) {
        self.samples.clear();
        self.head = 0;
    }
}

/// Simulates `n` cycles of the supply driven by `wave`, starting settled at
/// the waveform's cycle-0 current.
pub fn simulate_waveform<W: Waveform + ?Sized>(
    params: &SupplyParams,
    clock: Hertz,
    wave: &W,
    n: Cycles,
) -> WaveformTrace {
    let initial = wave.current_at(Cycles::new(0));
    let mut supply = PowerSupply::new(*params, clock, initial);
    let mut current = Vec::with_capacity(n.as_usize());
    let mut noise = Vec::with_capacity(n.as_usize());
    let mut violation_cycles = Vec::new();
    for c in 0..n.count() {
        let i = wave.current_at(Cycles::new(c));
        let out = supply.tick(i);
        current.push(i);
        noise.push(out.noise);
        if out.violation {
            violation_cycles.push(out.cycle);
        }
    }
    WaveformTrace {
        current,
        noise,
        violation_cycles,
        worst_noise: supply.worst_noise(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::{Constant, PeriodicWave, Shape};

    const GHZ10: Hertz = Hertz::new(10e9);

    fn table1() -> SupplyParams {
        SupplyParams::isca04_table1()
    }

    #[test]
    fn constant_current_never_violates() {
        let trace = simulate_waveform(
            &table1(),
            GHZ10,
            &Constant::new(Amps::new(105.0)),
            Cycles::new(5_000),
        );
        assert!(!trace.violated());
        assert!(trace.worst_noise.abs().volts() < 1e-6);
    }

    #[test]
    fn figure3_square_wave_violates() {
        // Figure 3: a 34 A square wave at the resonant frequency from cycle
        // 100 to 500 drives the supply past the 50 mV margin.
        let wave = PeriodicWave::new(
            Shape::Square,
            Amps::new(70.0),
            Amps::new(34.0),
            Cycles::new(100),
            Cycles::new(100),
            Cycles::new(500),
        );
        let trace = simulate_waveform(&table1(), GHZ10, &wave, Cycles::new(1_000));
        assert!(trace.violated(), "worst noise = {}", trace.worst_noise);
        let first = trace.first_violation().unwrap();
        // Violation occurs during the stimulus after a few repetitions, not
        // instantly at onset.
        assert!(
            first.count() > 150 && first.count() < 520,
            "first violation at {first}"
        );
    }

    #[test]
    fn figure3_ringing_decays_after_stimulus() {
        let wave = PeriodicWave::new(
            Shape::Square,
            Amps::new(70.0),
            Amps::new(34.0),
            Cycles::new(100),
            Cycles::new(100),
            Cycles::new(500),
        );
        let trace = simulate_waveform(&table1(), GHZ10, &wave, Cycles::new(1_500));
        // Peak noise in successive post-stimulus periods decays ~66% per
        // period (Q = 2.83).
        let peak_in = |lo: usize, hi: usize| -> f64 {
            trace.noise[lo..hi]
                .iter()
                .map(|v| v.abs().volts())
                .fold(0.0, f64::max)
        };
        let p1 = peak_in(520, 620);
        let p2 = peak_in(620, 720);
        let p3 = peak_in(720, 820);
        let r1 = p2 / p1;
        let r2 = p3 / p2;
        let expect = table1().decay_per_period();
        assert!(
            (r1 - expect).abs() < 0.12,
            "decay ratio {r1} vs e^(-pi/Q) {expect}"
        );
        assert!(
            (r2 - expect).abs() < 0.12,
            "decay ratio {r2} vs e^(-pi/Q) {expect}"
        );
    }

    #[test]
    fn off_band_square_wave_is_absorbed() {
        // Same 34 A amplitude at a 20-cycle period (500 MHz), far outside the
        // 84–119-cycle resonance band: absorbed by the supply.
        let wave =
            PeriodicWave::sustained_square(Amps::new(70.0), Amps::new(34.0), Cycles::new(20));
        let trace = simulate_waveform(&table1(), GHZ10, &wave, Cycles::new(3_000));
        assert!(!trace.violated(), "worst = {}", trace.worst_noise);
    }

    #[test]
    fn small_resonant_wave_is_tolerated() {
        // Well below the resonant current variation threshold: sustained
        // resonant excitation never violates.
        let wave =
            PeriodicWave::sustained_square(Amps::new(70.0), Amps::new(10.0), Cycles::new(100));
        let trace = simulate_waveform(&table1(), GHZ10, &wave, Cycles::new(10_000));
        assert!(!trace.violated(), "worst = {}", trace.worst_noise);
    }

    #[test]
    fn tick_statistics_accumulate() {
        let mut s = PowerSupply::new(table1(), GHZ10, Amps::new(70.0));
        for c in 0..600u64 {
            let i = if (c / 50) % 2 == 0 { 90.0 } else { 50.0 };
            s.tick(Amps::new(i));
        }
        assert_eq!(s.cycles(), Cycles::new(600));
        assert!(
            s.violation_cycles() > 0,
            "40 A resonant swing should violate"
        );
        assert!(s.worst_noise().abs().volts() > 0.05);
        s.reset(Amps::new(70.0));
        assert_eq!(s.cycles(), Cycles::new(0));
        assert_eq!(s.violation_cycles(), 0);
        assert_eq!(s.noise().volts(), 0.0);
    }

    #[test]
    fn try_tick_rejects_non_finite_current_and_preserves_state() {
        let mut s = PowerSupply::new(table1(), GHZ10, Amps::new(70.0));
        for _ in 0..10 {
            s.tick(Amps::new(90.0));
        }
        let before = s.state();
        let cycles_before = s.cycles();
        let err = s
            .try_tick(Amps::new(f64::NAN))
            .expect_err("NaN current must fail");
        assert!(matches!(err, IntegrationError::NonFiniteState { .. }));
        assert_eq!(s.state(), before, "failed tick must not corrupt state");
        assert_eq!(s.cycles(), cycles_before);
        // The supply remains usable afterwards.
        let out = s.try_tick(Amps::new(90.0)).expect("recovers");
        assert_eq!(out.cycle, cycles_before);
    }

    #[test]
    #[should_panic(expected = "supply integration failed")]
    fn tick_panics_on_non_finite_current() {
        let mut s = PowerSupply::new(table1(), GHZ10, Amps::new(70.0));
        let _ = s.tick(Amps::new(f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "clock frequency")]
    fn bad_clock_panics() {
        let _ = PowerSupply::new(table1(), Hertz::new(0.0), Amps::new(70.0));
    }

    /// A deterministic current sequence mixing resonant swings, ramps, and
    /// quiet stretches, for batch-vs-serial comparisons.
    fn mixed_currents(n: usize) -> Vec<f64> {
        (0..n)
            .map(|c| {
                let swing = if (c / 50) % 2 == 0 { 20.0 } else { -20.0 };
                let ramp = (c % 137) as f64 * 0.11;
                70.0 + swing + ramp
            })
            .collect()
    }

    #[test]
    fn try_tick_batch_matches_serial_ticks_bit_exactly() {
        let currents = mixed_currents(3_000);
        for method in [Method::Heun, Method::Rk4] {
            let mut serial = PowerSupply::with_method(table1(), GHZ10, Amps::new(70.0), method);
            let mut batched = serial.clone();

            let mut serial_noise = Vec::new();
            for &i in &currents {
                serial_noise.push(serial.try_tick(Amps::new(i)).unwrap().noise.volts());
            }

            // Ragged batch sizes, including 1 and a remainder chunk.
            let mut batch_noise = Vec::new();
            for chunk in currents.chunks(257) {
                batched.try_tick_batch(chunk, &mut batch_noise).unwrap();
            }

            assert_eq!(serial_noise.len(), batch_noise.len());
            for (c, (a, b)) in serial_noise.iter().zip(&batch_noise).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "noise diverged at cycle {c} ({method:?})"
                );
            }
            assert_eq!(serial.state(), batched.state());
            assert_eq!(serial.cycles(), batched.cycles());
            assert_eq!(serial.violation_cycles(), batched.violation_cycles());
            assert_eq!(
                serial.worst_noise().volts().to_bits(),
                batched.worst_noise().volts().to_bits()
            );
        }
    }

    #[test]
    fn try_tick_batch_error_reports_index_and_preserves_prefix() {
        let mut currents = mixed_currents(100);
        currents[42] = f64::NAN;

        let mut reference = PowerSupply::new(table1(), GHZ10, Amps::new(70.0));
        for &i in &currents[..42] {
            reference.tick(Amps::new(i));
        }

        let mut batched = PowerSupply::new(table1(), GHZ10, Amps::new(70.0));
        let mut noise = Vec::new();
        let (k, err) = batched
            .try_tick_batch(&currents, &mut noise)
            .expect_err("NaN mid-batch must fail");
        assert_eq!(k, 42);
        assert!(matches!(err, IntegrationError::NonFiniteState { .. }));
        // The 42 completed cycles are emitted and the state is exactly the
        // serial state after cycle 41; the failed cycle is replayable.
        assert_eq!(noise.len(), 42);
        assert_eq!(batched.state(), reference.state());
        assert_eq!(batched.cycles(), reference.cycles());
        let out = batched.try_tick(Amps::new(70.0)).expect("replayable");
        assert_eq!(out.cycle, Cycles::new(42));
    }

    #[test]
    fn waveform_ring_keeps_the_newest_samples_in_order() {
        let mut ring = WaveformRing::new(4);
        assert!(ring.is_empty());
        for c in 0..3u64 {
            ring.record(c, Amps::new(c as f64), Volts::new(0.0));
        }
        assert_eq!(ring.len(), 3);
        let cycles: Vec<u64> = ring.snapshot().iter().map(|s| s.cycle).collect();
        assert_eq!(cycles, vec![0, 1, 2]);
        for c in 3..11u64 {
            ring.record(c, Amps::new(c as f64), Volts::new(0.1));
        }
        assert_eq!(ring.len(), 4, "capacity bounds the ring");
        let cycles: Vec<u64> = ring.snapshot().iter().map(|s| s.cycle).collect();
        assert_eq!(cycles, vec![7, 8, 9, 10], "oldest evicted, order kept");
        assert_eq!(ring.snapshot()[3].current, Amps::new(10.0));
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.capacity(), 4);
        ring.record(99, Amps::new(1.0), Volts::new(0.2));
        assert_eq!(ring.snapshot()[0].cycle, 99);
    }

    #[test]
    #[should_panic(expected = "nonzero capacity")]
    fn waveform_ring_rejects_zero_capacity() {
        let _ = WaveformRing::new(0);
    }

    #[test]
    fn heun_and_rk4_agree_on_resonant_drive() {
        let p = table1();
        let wave =
            PeriodicWave::sustained_square(Amps::new(70.0), Amps::new(20.0), Cycles::new(100));
        let mut heun = PowerSupply::with_method(p, GHZ10, Amps::new(80.0), Method::Heun);
        let mut rk4 = PowerSupply::with_method(p, GHZ10, Amps::new(80.0), Method::Rk4);
        let mut max_diff: f64 = 0.0;
        for c in 0..2_000u64 {
            let i = wave.current_at(Cycles::new(c));
            let a = heun.tick(i).noise.volts();
            let b = rk4.tick(i).noise.volts();
            max_diff = max_diff.max((a - b).abs());
        }
        assert!(max_diff < 2e-3, "integrator disagreement {max_diff} V");
    }
}
