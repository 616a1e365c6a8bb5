//! Time-domain integration of the second-order supply network.
//!
//! State equations for the source-free circuit of Figure 1(b), with `v` the
//! on-die node voltage deviation and `i_l` the current in the R–L branch,
//! driven by the CPU current `i_cpu`:
//!
//! ```text
//! C · dv/dt   = i_l − i_cpu
//! L · di_l/dt = −v − R·i_l
//! ```
//!
//! The paper integrates this with the Heun formula (improved Euler); we
//! implement Heun as the default and RK4 plus the exact free-decay solution
//! for cross-validation in tests.

use crate::error::IntegrationError;
use crate::params::SupplyParams;
use crate::units::{Amps, Seconds, Volts};

/// Node-voltage magnitude beyond which the integration is declared divergent.
///
/// The physical simulations stay below ~1 V of deviation, so a megavolt of
/// computed deviation can only mean the step has lost all meaning (bad inputs
/// or a numerically unstable step). Generous on purpose: the guard must never
/// fire on a legitimate run.
pub const BLOW_UP_LIMIT_VOLTS: f64 = 1e6;

/// The two-element state of the supply network.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SupplyState {
    /// On-die node voltage deviation (volts, relative to the eliminated
    /// source).
    pub v: f64,
    /// Current in the R–L branch (amps).
    pub i_l: f64,
}

impl SupplyState {
    /// The steady state for a constant CPU current: `i_l = i`, `v = −R·i`.
    pub fn steady(params: &SupplyParams, i_cpu: Amps) -> Self {
        Self {
            v: -params.resistance().ohms() * i_cpu.amps(),
            i_l: i_cpu.amps(),
        }
    }

    /// The *inductive-noise* voltage: the node-voltage deviation with the
    /// quasi-static IR drop removed, `v + R·i_l`. This is zero at any
    /// constant current level, matching the paper's assumption that the
    /// supply maintains V<sub>dd</sub> at any constant current (Section 4.1),
    /// and equals `−L·di_l/dt` — the purely inductive component.
    pub fn noise_voltage(&self, params: &SupplyParams) -> Volts {
        Volts::new(self.v + params.resistance().ohms() * self.i_l)
    }
}

/// Numerical scheme used to advance the supply state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Method {
    /// Heun's formula (improved Euler), the paper's choice: second-order,
    /// two derivative evaluations per step.
    #[default]
    Heun,
    /// Classical fourth-order Runge–Kutta, for cross-validation. The CPU
    /// current is treated as linear-in-time across the step (it is piecewise
    /// constant per cycle in practice, so midpoint = average of endpoints).
    Rk4,
}

#[derive(Debug, Clone, Copy)]
struct Derivative {
    dv: f64,
    di_l: f64,
}

#[inline]
fn derivative(c: f64, l: f64, r: f64, s: SupplyState, i_cpu: f64) -> Derivative {
    Derivative {
        dv: (s.i_l - i_cpu) / c,
        di_l: (-s.v - r * s.i_l) / l,
    }
}

/// Advances the state by one step of length `dt`, with the CPU current equal
/// to `i_start` at the step start and `i_end` at the step end.
///
/// For per-cycle simulation, call with `dt` = one clock period and
/// `i_start`/`i_end` the currents of the adjacent cycles.
///
/// # Panics
///
/// Panics when the guarded [`try_step`] fails: a non-positive or non-finite
/// step size, or a step whose result is non-finite or beyond
/// [`BLOW_UP_LIMIT_VOLTS`] even after the halved retry. Callers that want to
/// handle those conditions should use [`try_step`] directly.
pub fn step(
    params: &SupplyParams,
    method: Method,
    state: SupplyState,
    i_start: Amps,
    i_end: Amps,
    dt: Seconds,
) -> SupplyState {
    try_step(params, method, state, i_start, i_end, dt)
        .unwrap_or_else(|e| panic!("supply integration failed: {e}"))
}

/// The guarded integrator entry point: validates the step size, advances the
/// state, and checks the result for NaN/infinity and for divergence beyond
/// [`BLOW_UP_LIMIT_VOLTS`].
///
/// A failing step is retried once as two half-size steps (the CPU current at
/// the midpoint is taken as the endpoint average, consistent with the
/// piecewise-linear current model). This rescues marginal cases where a
/// too-coarse step overshoots the envelope that a finer step tracks
/// accurately; a genuinely divergent or non-finite state survives the retry
/// and is surfaced as an [`IntegrationError`].
///
/// For well-posed inputs this returns exactly the bits of the unguarded
/// arithmetic: the guards only inspect, never perturb.
///
/// # Errors
///
/// [`IntegrationError::InvalidStep`] for a bad `dt`;
/// [`IntegrationError::NonFiniteState`] or [`IntegrationError::BlowUp`] when
/// both the full step and the halved retry produce an unusable state.
pub fn try_step(
    params: &SupplyParams,
    method: Method,
    state: SupplyState,
    i_start: Amps,
    i_end: Amps,
    dt: Seconds,
) -> Result<SupplyState, IntegrationError> {
    PreparedStep::new(*params, method, dt)?.advance(state, i_start, i_end)
}

/// A step with its size validated and its circuit coefficients (C, L, R)
/// loaded once, for per-cycle hot loops that advance the same circuit with
/// the same `dt` millions of times.
///
/// [`PreparedStep::advance`] runs the exact arithmetic of [`try_step`] —
/// `try_step` itself is implemented as `PreparedStep::new(..)?.advance(..)`
/// — so preparing a step can never change a single result bit; it only
/// hoists the per-call validation and parameter loads out of the loop.
#[derive(Debug, Clone, Copy)]
pub struct PreparedStep {
    method: Method,
    h: f64,
    c: f64,
    l: f64,
    r: f64,
}

impl PreparedStep {
    /// Validates `dt` once and captures the circuit coefficients.
    ///
    /// # Errors
    ///
    /// [`IntegrationError::InvalidStep`] when `dt` is not positive and
    /// finite.
    pub fn new(
        params: SupplyParams,
        method: Method,
        dt: Seconds,
    ) -> Result<Self, IntegrationError> {
        let h = dt.seconds();
        if !(h > 0.0 && h.is_finite()) {
            return Err(IntegrationError::InvalidStep { h });
        }
        Ok(Self {
            method,
            h,
            c: params.capacitance().farads(),
            l: params.inductance().henries(),
            r: params.resistance().ohms(),
        })
    }

    /// Advances the state by one prepared step, including the guard checks
    /// and the one halved retry of [`try_step`].
    ///
    /// # Errors
    ///
    /// [`IntegrationError::NonFiniteState`] or [`IntegrationError::BlowUp`]
    /// when both the full step and the halved retry produce an unusable
    /// state.
    #[inline]
    pub fn advance(
        &self,
        state: SupplyState,
        i_start: Amps,
        i_end: Amps,
    ) -> Result<SupplyState, IntegrationError> {
        let full = self.raw(state, i_start.amps(), i_end.amps(), self.h);
        if let Err(first) = check_state(full) {
            // One step-halving retry before surfacing the failure.
            let i_mid = 0.5 * (i_start.amps() + i_end.amps());
            let half = 0.5 * self.h;
            let s1 = self.raw(state, i_start.amps(), i_mid, half);
            let s2 = self.raw(s1, i_mid, i_end.amps(), half);
            return match check_state(s2) {
                Ok(()) => Ok(s2),
                // Report the retry's failure; it is the better-resolved
                // attempt.
                Err(second) => Err(if matches!(second, IntegrationError::InvalidStep { .. }) {
                    first
                } else {
                    second
                }),
            };
        }
        Ok(full)
    }

    #[inline]
    fn raw(&self, state: SupplyState, i_start: f64, i_end: f64, h: f64) -> SupplyState {
        raw_step_coeffs(
            self.c,
            self.l,
            self.r,
            self.method,
            state,
            i_start,
            i_end,
            h,
        )
    }
}

#[inline]
fn check_state(s: SupplyState) -> Result<(), IntegrationError> {
    if !s.v.is_finite() || !s.i_l.is_finite() {
        return Err(IntegrationError::NonFiniteState { v: s.v, i_l: s.i_l });
    }
    if s.v.abs() > BLOW_UP_LIMIT_VOLTS {
        return Err(IntegrationError::BlowUp {
            v: s.v,
            limit: BLOW_UP_LIMIT_VOLTS,
        });
    }
    Ok(())
}

#[cfg(test)]
fn raw_step(
    params: &SupplyParams,
    method: Method,
    state: SupplyState,
    i_start: f64,
    i_end: f64,
    h: f64,
) -> SupplyState {
    raw_step_coeffs(
        params.capacitance().farads(),
        params.inductance().henries(),
        params.resistance().ohms(),
        method,
        state,
        i_start,
        i_end,
        h,
    )
}

#[allow(clippy::too_many_arguments)]
#[inline]
fn raw_step_coeffs(
    c: f64,
    l: f64,
    r: f64,
    method: Method,
    state: SupplyState,
    i_start: f64,
    i_end: f64,
    h: f64,
) -> SupplyState {
    match method {
        Method::Heun => {
            let k1 = derivative(c, l, r, state, i_start);
            let predictor = SupplyState {
                v: state.v + h * k1.dv,
                i_l: state.i_l + h * k1.di_l,
            };
            let k2 = derivative(c, l, r, predictor, i_end);
            SupplyState {
                v: state.v + 0.5 * h * (k1.dv + k2.dv),
                i_l: state.i_l + 0.5 * h * (k1.di_l + k2.di_l),
            }
        }
        Method::Rk4 => {
            let i_mid = 0.5 * (i_start + i_end);
            let k1 = derivative(c, l, r, state, i_start);
            let s2 = SupplyState {
                v: state.v + 0.5 * h * k1.dv,
                i_l: state.i_l + 0.5 * h * k1.di_l,
            };
            let k2 = derivative(c, l, r, s2, i_mid);
            let s3 = SupplyState {
                v: state.v + 0.5 * h * k2.dv,
                i_l: state.i_l + 0.5 * h * k2.di_l,
            };
            let k3 = derivative(c, l, r, s3, i_mid);
            let s4 = SupplyState {
                v: state.v + h * k3.dv,
                i_l: state.i_l + h * k3.di_l,
            };
            let k4 = derivative(c, l, r, s4, i_end);
            SupplyState {
                v: state.v + h / 6.0 * (k1.dv + 2.0 * k2.dv + 2.0 * k3.dv + k4.dv),
                i_l: state.i_l + h / 6.0 * (k1.di_l + 2.0 * k2.di_l + 2.0 * k3.di_l + k4.di_l),
            }
        }
    }
}

/// The exact free-decay solution (CPU current identically zero) starting from
/// `state`, evaluated at time `t`. Used to validate the numerical
/// integrators: the underdamped homogeneous response is
/// `e^(−αt)·(A·cos ωd·t + B·sin ωd·t)` with `α = R/(2L)` and
/// `ωd = √(1/(LC) − α²)`.
pub fn exact_free_decay(params: &SupplyParams, state: SupplyState, t: Seconds) -> SupplyState {
    let r = params.resistance().ohms();
    let l = params.inductance().henries();
    let c = params.capacitance().farads();
    let alpha = r / (2.0 * l);
    let omega0_sq = 1.0 / (l * c);
    let omega_d = (omega0_sq - alpha * alpha).sqrt();
    let tt = t.seconds();

    // v'' + 2α v' + ω0² v = 0 with v(0) = state.v and
    // v'(0) = (i_l − 0)/C from the state equation.
    let v0 = state.v;
    let vp0 = state.i_l / c;
    let a = v0;
    let b = (vp0 + alpha * v0) / omega_d;
    let decay = (-alpha * tt).exp();
    let (sin, cos) = (omega_d * tt).sin_cos();
    let v = decay * (a * cos + b * sin);
    // v' = −α v + decay·ωd·(−a sin + b cos); i_l = C·v' (i_cpu = 0).
    let vp = -alpha * v + decay * omega_d * (-a * sin + b * cos);
    SupplyState { v, i_l: c * vp }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table1() -> SupplyParams {
        SupplyParams::isca04_table1()
    }

    const DT: Seconds = Seconds::new(100e-12); // one 10 GHz cycle

    #[test]
    fn steady_state_is_fixed_point() {
        let p = table1();
        let s0 = SupplyState::steady(&p, Amps::new(70.0));
        let s1 = step(&p, Method::Heun, s0, Amps::new(70.0), Amps::new(70.0), DT);
        assert!((s1.v - s0.v).abs() < 1e-12);
        assert!((s1.i_l - s0.i_l).abs() < 1e-9);
        assert!(s0.noise_voltage(&p).volts().abs() < 1e-12);
    }

    #[test]
    fn heun_matches_exact_free_decay() {
        let p = table1();
        let mut s = SupplyState { v: 0.05, i_l: 0.0 };
        let s0 = s;
        let n = 1000; // one resonant period = 100 cycles; run 10 periods
        for _ in 0..n {
            s = step(&p, Method::Heun, s, Amps::new(0.0), Amps::new(0.0), DT);
        }
        let exact = exact_free_decay(&p, s0, Seconds::new(DT.seconds() * n as f64));
        assert!(
            (s.v - exact.v).abs() < 2e-4,
            "heun v = {}, exact v = {}",
            s.v,
            exact.v
        );
        assert!(
            (s.i_l - exact.i_l).abs() < 2.0,
            "i_l {} vs {}",
            s.i_l,
            exact.i_l
        );
    }

    #[test]
    fn rk4_is_closer_to_exact_than_heun() {
        let p = table1();
        let s0 = SupplyState { v: 0.05, i_l: 10.0 };
        let n = 500;
        let mut heun = s0;
        let mut rk4 = s0;
        for _ in 0..n {
            heun = step(&p, Method::Heun, heun, Amps::new(0.0), Amps::new(0.0), DT);
            rk4 = step(&p, Method::Rk4, rk4, Amps::new(0.0), Amps::new(0.0), DT);
        }
        let exact = exact_free_decay(&p, s0, Seconds::new(DT.seconds() * n as f64));
        let err_heun = (heun.v - exact.v).abs();
        let err_rk4 = (rk4.v - exact.v).abs();
        assert!(
            err_rk4 <= err_heun,
            "rk4 err {err_rk4} vs heun err {err_heun}"
        );
    }

    #[test]
    fn free_decay_loses_expected_amplitude_per_period() {
        let p = table1();
        // Start at a pure voltage displacement and measure the envelope decay
        // across one resonant period.
        let s0 = SupplyState { v: 0.05, i_l: 0.0 };
        let period = p.resonant_period();
        let after = exact_free_decay(&p, s0, period);
        // The voltage returns near its in-phase point after one period scaled
        // by e^(−π/Q); damping shifts ωd slightly from ω0 so allow tolerance.
        let expected = 0.05 * p.decay_per_period();
        assert!(
            (after.v - expected).abs() < 0.05 * 0.05,
            "v after period {} vs expected {}",
            after.v,
            expected
        );
    }

    #[test]
    fn noise_voltage_removes_ir_drop() {
        let p = table1();
        // Simulate a slow ramp to a new constant current; after settling the
        // noise voltage must return to ~0 even though v itself sits at −R·I.
        let mut s = SupplyState::steady(&p, Amps::new(35.0));
        // Gentle 10000-cycle linear ramp from 35 A to 105 A: far below the
        // resonance band in frequency content.
        let n = 10_000;
        for k in 0..n {
            let i0 = 35.0 + 70.0 * (k as f64 / n as f64);
            let i1 = 35.0 + 70.0 * ((k + 1) as f64 / n as f64);
            s = step(&p, Method::Heun, s, Amps::new(i0), Amps::new(i1), DT);
        }
        for _ in 0..5_000 {
            s = step(&p, Method::Heun, s, Amps::new(105.0), Amps::new(105.0), DT);
        }
        assert!(
            s.noise_voltage(&p).volts().abs() < 0.005,
            "noise after settling = {}",
            s.noise_voltage(&p)
        );
        assert!((s.i_l - 105.0).abs() < 0.5);
    }

    /// An underdamped circuit with ω₀ = 1 rad/s where multi-second steps are
    /// numerically marginal — lets the guard paths be exercised with modest
    /// state values.
    fn gentle_unit_circuit() -> SupplyParams {
        use crate::units::{Farads, Henries, Ohms};
        SupplyParams::new(
            Ohms::new(0.01),
            Henries::new(1.0),
            Farads::new(1.0),
            Volts::new(1.0),
            Volts::new(0.05),
        )
        .expect("unit circuit is underdamped")
    }

    #[test]
    fn try_step_is_bit_identical_to_step_on_nominal_input() {
        let p = table1();
        let s = SupplyState::steady(&p, Amps::new(70.0));
        let a = step(&p, Method::Heun, s, Amps::new(70.0), Amps::new(90.0), DT);
        let b = try_step(&p, Method::Heun, s, Amps::new(70.0), Amps::new(90.0), DT)
            .expect("nominal step succeeds");
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_step_sizes_are_rejected_even_in_release() {
        let p = table1();
        let s = SupplyState::default();
        for h in [0.0, -1e-12, f64::NAN, f64::INFINITY] {
            let got = try_step(
                &p,
                Method::Heun,
                s,
                Amps::new(0.0),
                Amps::new(0.0),
                Seconds::new(h),
            );
            assert!(
                matches!(got, Err(crate::error::IntegrationError::InvalidStep { .. })),
                "h = {h} must be rejected, got {got:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "supply integration failed")]
    fn unguarded_step_panics_on_bad_step_size() {
        let p = table1();
        let _ = step(
            &p,
            Method::Heun,
            SupplyState::default(),
            Amps::new(0.0),
            Amps::new(0.0),
            Seconds::new(0.0),
        );
    }

    #[test]
    fn non_finite_current_surfaces_as_non_finite_state() {
        let p = table1();
        let s = SupplyState::steady(&p, Amps::new(70.0));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let got = try_step(&p, Method::Heun, s, Amps::new(70.0), Amps::new(bad), DT);
            assert!(
                matches!(
                    got,
                    Err(crate::error::IntegrationError::NonFiniteState { .. })
                ),
                "current {bad} must surface as NonFiniteState, got {got:?}"
            );
        }
    }

    #[test]
    fn step_halving_rescues_a_marginal_overshoot() {
        // At h = 3 s (h·ω₀ = 3) a single Heun step of the unit circuit
        // overshoots the blow-up envelope from |v| = 4×10⁵; the same interval
        // as two half steps stays inside it. The guard's one halved retry
        // must therefore turn a would-be BlowUp into a success, and return
        // exactly the two-half-step composition.
        let p = gentle_unit_circuit();
        let s = SupplyState { v: 4.0e5, i_l: 0.0 };
        let (zero, h) = (Amps::new(0.0), Seconds::new(3.0));

        let full = raw_step(&p, Method::Heun, s, 0.0, 0.0, 3.0);
        assert!(
            full.v.abs() > BLOW_UP_LIMIT_VOLTS,
            "full step must overshoot (v = {})",
            full.v
        );

        let rescued = try_step(&p, Method::Heun, s, zero, zero, h).expect("halved retry rescues");
        assert!(rescued.v.abs() <= BLOW_UP_LIMIT_VOLTS);
        let s1 = raw_step(&p, Method::Heun, s, 0.0, 0.0, 1.5);
        let s2 = raw_step(&p, Method::Heun, s1, 0.0, 0.0, 1.5);
        assert_eq!(rescued, s2, "rescue must be the two-half-step composition");
    }

    #[test]
    fn prepared_step_matches_try_step_bit_exactly() {
        // A prepared step must reproduce try_step bit-for-bit across a long
        // resonant trajectory, for both integrators — including the halved
        // retry (exercised separately below).
        let p = SupplyParams::isca04_table1();
        let dt = Seconds::new(1e-10);
        for method in [Method::Heun, Method::Rk4] {
            let prepared = PreparedStep::new(p, method, dt).unwrap();
            let mut a = SupplyState { v: 0.01, i_l: 75.0 };
            let mut b = a;
            for c in 0..5_000u64 {
                let swing = if (c / 50) % 2 == 0 { 90.0 } else { 55.0 };
                let (i0, i1) = (Amps::new(swing), Amps::new(swing + 0.25));
                a = try_step(&p, method, a, i0, i1, dt).unwrap();
                b = prepared.advance(b, i0, i1).unwrap();
                assert_eq!(a.v.to_bits(), b.v.to_bits(), "v diverged at {c}");
                assert_eq!(a.i_l.to_bits(), b.i_l.to_bits(), "i_l diverged at {c}");
            }
        }
    }

    #[test]
    fn prepared_step_rejects_bad_dt_at_construction() {
        let p = gentle_unit_circuit();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let got = PreparedStep::new(p, Method::Heun, Seconds::new(bad));
            assert!(
                matches!(got, Err(IntegrationError::InvalidStep { .. })),
                "dt {bad} must be rejected, got {got:?}"
            );
        }
    }

    #[test]
    fn prepared_step_performs_the_halved_rescue() {
        // Same marginal-overshoot setup as the try_step rescue test: the
        // prepared path must run the identical retry and return the same
        // two-half-step composition.
        let p = gentle_unit_circuit();
        let s = SupplyState { v: 4.0e5, i_l: 0.0 };
        let (zero, h) = (Amps::new(0.0), Seconds::new(3.0));
        let via_try = try_step(&p, Method::Heun, s, zero, zero, h).expect("rescued");
        let via_prepared = PreparedStep::new(p, Method::Heun, h)
            .unwrap()
            .advance(s, zero, zero)
            .expect("rescued");
        assert_eq!(via_try, via_prepared);
    }

    #[test]
    fn genuine_divergence_survives_the_retry_and_surfaces() {
        // Starting already far outside the envelope, halving cannot help:
        // the guard must report BlowUp rather than loop or mask it.
        let p = gentle_unit_circuit();
        let s = SupplyState { v: 5.0e6, i_l: 0.0 };
        let got = try_step(
            &p,
            Method::Heun,
            s,
            Amps::new(0.0),
            Amps::new(0.0),
            Seconds::new(3.0),
        );
        assert!(
            matches!(got, Err(crate::error::IntegrationError::BlowUp { .. })),
            "got {got:?}"
        );
    }

    #[test]
    fn resonant_square_wave_builds_voltage() {
        // A square wave at the resonant frequency must pump the oscillation;
        // the same amplitude far off-resonance must not.
        let p = table1();
        let drive = |half_period: u64| -> f64 {
            let mut s = SupplyState::steady(&p, Amps::new(53.0));
            let mut peak: f64 = 0.0;
            let mut cur = 70.0;
            let mut prev = 70.0;
            for cycle in 0..4000u64 {
                let next = if (cycle / half_period).is_multiple_of(2) {
                    70.0
                } else {
                    36.0
                };
                s = step(&p, Method::Heun, s, Amps::new(prev), Amps::new(cur), DT);
                prev = cur;
                cur = next;
                peak = peak.max(s.noise_voltage(&p).volts().abs());
            }
            peak
        };
        let resonant = drive(50); // 100-cycle period = 100 MHz at 10 GHz
        let off = drive(10); // 20-cycle period = 500 MHz, far outside band
        assert!(
            resonant > 3.0 * off,
            "resonant peak {resonant} should dwarf off-band peak {off}"
        );
        assert!(
            resonant > 0.05,
            "34 A resonant square wave should violate the margin"
        );
    }
}
