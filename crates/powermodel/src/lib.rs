//! Wattch-style power/current model for the inductive-noise simulator.
//!
//! Converts per-cycle pipeline activity ([`cpusim::CycleEvents`]) into
//! processor current, following the methodology of Powell & Vijaykumar
//! (ISCA 2004), whose base simulator is Wattch over SimpleScalar:
//!
//! * current is power divided by supply voltage, with the chip swinging
//!   between an idle floor (global clock + residual draw of aggressively
//!   clock-gated units; 35 A in Table 1) and a peak (105 A);
//! * per-structure dynamic current is apportioned with Wattch-like weights
//!   ([`StructureWeights`]);
//! * the current of multi-cycle operations (cache misses, long-latency
//!   functional units) is spread over the pipeline stages/cycles they
//!   occupy, as the paper's Section 4.1 extension does; and
//! * phantom operations (used by all three studied techniques) hold the
//!   chip at a configurable current floor while doing no work.
//!
//! [`EnergyMeter`] integrates current into energy and energy-delay, the
//! paper's cost metrics.
//!
//! # Examples
//!
//! ```
//! use cpusim::{CpuConfig, CycleEvents};
//! use powermodel::{EnergyMeter, PowerConfig, PowerModel};
//! use rlc::units::Hertz;
//!
//! let config = PowerConfig::isca04_table1();
//! let mut model = PowerModel::new(config, CpuConfig::isca04_table1());
//! let mut meter = EnergyMeter::new(config.vdd, Hertz::from_giga(10.0));
//! for _ in 0..100 {
//!     let current = model.current_for(&CycleEvents::default());
//!     meter.record(current);
//! }
//! assert!((meter.average_power_watts() - 35.0).abs() < 1e-6); // idle chip
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod energy;
pub mod gating;
pub mod model;
pub mod spread;

pub use config::{PowerConfig, StructureWeights};
pub use energy::{EnergyMeter, RelativeCost};
pub use gating::GatingStyle;
pub use model::{CurrentBreakdown, PowerModel};
pub use spread::ActivitySpreader;
