//! Second-order RLC power-distribution-network simulator for inductive-noise
//! (di/dt) studies.
//!
//! This crate is the circuit substrate of a reproduction of Powell &
//! Vijaykumar, *Exploiting Resonant Behavior to Reduce Inductive Noise*
//! (ISCA 2004). It models the network of the paper's Figure 1 — supply
//! impedance `R`, die-to-package inductance `L`, on-die decoupling
//! capacitance `C`, with the CPU core as a current source — and provides:
//!
//! * resonance analysis: resonant frequency, quality factor, resonance band,
//!   damping rate ([`SupplyParams`]);
//! * frequency-domain impedance sweeps (Figure 1(c); [`ImpedanceSweep`]);
//! * time-domain simulation with the Heun (improved Euler) integrator used
//!   by the paper, plus RK4 and an exact free-decay solution for validation
//!   ([`PowerSupply`], [`integrator`]);
//! * waveform generators for circuit-level experiments ([`waveform`]); and
//! * design-time calibration of the resonant current variation threshold and
//!   maximum repetition tolerance (Section 2.1.3; [`calibrate()`](crate::calibrate())).
//!
//! # Quick start
//!
//! ```
//! use rlc::{SupplyParams, PowerSupply};
//! use rlc::units::{Amps, Hertz};
//!
//! // The paper's Table 1 supply: 375 µΩ, 1.69 pH, 1500 nF at 1.0 V.
//! let params = SupplyParams::isca04_table1();
//! assert!((params.quality_factor() - 2.83).abs() < 0.01);
//!
//! // Drive it cycle by cycle at 10 GHz.
//! let mut supply = PowerSupply::new(params, Hertz::from_giga(10.0), Amps::new(70.0));
//! let out = supply.tick(Amps::new(90.0));
//! assert!(!out.violation); // one isolated step does not violate
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod calibrate;
pub mod error;
pub mod fit;
pub mod impedance;
pub mod integrator;
pub mod params;
pub mod spectrum;
pub mod supply;
pub mod two_stage;
pub mod units;
pub mod waveform;

pub use calibrate::{calibrate, Calibration};
pub use error::{IntegrationError, RlcError};
pub use fit::{fit_supply, FitResult, ImpedanceSample};
pub use impedance::{impedance_at, ImpedancePoint, ImpedanceSweep};
pub use integrator::{
    exact_free_decay, step, try_step, Method, PreparedStep, SupplyState, BLOW_UP_LIMIT_VOLTS,
};
pub use params::SupplyParams;
pub use spectrum::{band_power, power_at, resonance_band_ratio};
pub use supply::{
    simulate_waveform, PowerSupply, SupplyOutput, WaveformRing, WaveformSample, WaveformTrace,
};
pub use two_stage::{step_two_stage, TwoStageParams, TwoStageState, TwoStageSupply};
pub use units::{Amps, Cycles, Farads, Henries, Hertz, Ohms, Seconds, Volts};
pub use waveform::{Constant, PeriodicWave, Shape, Waveform};
