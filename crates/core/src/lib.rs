//! **Resonance tuning**: architectural detection and prevention of
//! inductive (di/dt) noise — a from-scratch Rust reproduction of Powell &
//! Vijaykumar, *Exploiting Resonant Behavior to Reduce Inductive Noise*
//! (ISCA 2004).
//!
//! Inductive noise arises when processor current variations excite the
//! resonant RLC loop of the power-distribution network; repeated variations
//! at frequencies inside the supply's *resonance band* build supply-voltage
//! glitches beyond the noise margin. Rather than bounding the *magnitude*
//! of variations (as prior schemes did), resonance tuning changes their
//! *frequency*: it detects *nascent, repeated* resonant behavior by sensing
//! processor current, and steers the pipeline away from the band with a
//! gentle first-level response (reduced issue width and cache ports),
//! backed by a guaranteed second-level response (stall with medium-current
//! phantom operations).
//!
//! # Crate layout
//!
//! * [`detector`] — the current-history register, band-wide quarter-period
//!   adders, high-low/low-high event histories, and the resonant event
//!   count (paper Section 3.1);
//! * [`ResonanceTuner`] — the two-level response controller (Section 3.2);
//! * [`baselines`] — the compared prior techniques: voltage-threshold
//!   sensing (\[10\]) and pipeline damping (\[14\]);
//! * [`sim`] — the integrated CPU + power + supply simulation loop
//!   (Section 4 methodology);
//! * [`kernel`] — the fused batched hot-path engine behind `sim` (flat
//!   current buffers, batched supply flushes, shared workload decode),
//!   bit-exact with the per-cycle reference loop;
//! * [`experiment`] — one driver per table (Tables 2–5 and the RISC-V
//!   Table 3), each running its design points under a [`RunPolicy`] and
//!   returning rows plus scope-labelled failure reports;
//! * [`engine`] — the suite execution engine: bounded worker-pool
//!   scheduling, one base-suite entry per workload class (memoized under an
//!   inert policy), structured run metrics;
//! * [`store`] — the run store, the one persistence for results: one
//!   identity-verified, crash-consistent record per run, read and written
//!   by the engine;
//! * [`metrics`] — slowdown / energy-delay accounting and per-run
//!   observability rows.
//!
//! # Quick start
//!
//! ```
//! use restune::{run, SimConfig, Technique, TuningConfig};
//! use workloads::spec2k;
//!
//! let sim = SimConfig::isca04(20_000); // 20k instructions per run
//! let app = spec2k::by_name("parser").expect("parser is in the suite");
//!
//! let base = run(&app, &Technique::Base, &sim);
//! let tuned = run(&app, &Technique::Tuning(TuningConfig::isca04_table1(100)), &sim);
//!
//! // Tuning trades a little performance for violation-free operation.
//! assert!(tuned.cycles >= base.cycles);
//! assert!(tuned.violation_cycles <= base.violation_cycles);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod baselines;
pub mod client;
pub mod config;
pub mod detector;
pub mod engine;
mod envcfg;
pub mod experiment;
pub mod fault;
pub mod isolation;
pub mod kernel;
pub mod mesh;
pub mod metrics;
pub mod obs;
pub mod response;
pub mod server;
pub mod sim;
pub mod store;
pub mod sweep;
pub mod testenv;
mod wire;

pub use analysis::{analyze, GuaranteeReport};
pub use baselines::{DampingConfig, PipelineDamping, SensorConfig, VoltageSensor};
pub use client::{clear_connect, connect_active, set_connect, set_net_faults};
pub use config::{RunPolicy, SupervisorConfig, TuningConfig};
pub use detector::{EventDetector, Polarity, ResonantEvent, WaveletConfig, WaveletDetector};
pub use engine::{
    base_suite, corpus_base_suite, run_suite_supervised, try_run_suite, CacheStats, SuiteError,
    SuiteRun, SupervisedSuite,
};
pub use fault::{
    parse_net_faults, AppFailure, ChaosSchedule, ChaosStep, FailureKind, FailureReport, FaultPlan,
    FaultSpec, NetFaultSpec, StorageFault, StorageIncident,
};
pub use isolation::{
    install_signal_handlers, isolation_mode, maybe_run_worker, shutdown_requested, IsolationMode,
};
pub use kernel::{run_on_path, run_with_batch, EnginePath};
pub use mesh::{job_shard, partition_host, rendezvous_order, shard_keys, ChaosConductor, Mesh};
pub use metrics::{RelativeOutcome, RunMetrics, Summary};
pub use obs::{CycleTracer, Event, JsonValue, TraceBuffer, TraceSink};
pub use response::{ResonanceTuner, ResponseLevel, ResponseStats};
pub use server::{Endpoint, Server, ServerConfig, ServerStats};
pub use sim::{
    run, run_instrumented, run_observed, run_supervised, CycleRecord, InstrumentedRun,
    PhaseTimings, SimConfig, SimResult, Technique,
};
pub use store::{run_key, EvictStats, RunStore};
pub use sweep::{
    run_sweep, sim_for, GridSpec, SensorPoint, SweepOutcome, SweepPoint, WorkloadClass,
};
