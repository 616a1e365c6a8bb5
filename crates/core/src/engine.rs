//! The suite experiment engine: bounded deterministic scheduling, the run
//! store as the one persistence for results, a process-wide memo of
//! base-machine suite runs, and structured per-run metrics.
//!
//! The table and figure drivers in [`crate::experiment`] all start from the
//! same base-machine suite; this module makes that shared work explicit:
//!
//! * [`try_run_suite`] executes a suite on a worker pool sized to the
//!   machine (not one OS thread per application), writing each result into
//!   its own slot so ordering and determinism are structural, and reporting
//!   the *name* of a failing application instead of a bare unwrap;
//! * [`run_suite_supervised`] reads and writes a [`RunStore`] when its
//!   [`SupervisorConfig`] carries one: stored runs replay, fresh runs are
//!   put as they succeed, so a checkpoint is just the store;
//! * [`base_suite`] and [`corpus_base_suite`] are the one base-suite entry
//!   per workload class: under an inert [`RunPolicy`] they memoize base
//!   runs per machine configuration, so any number of drivers in one
//!   process trigger at most one base simulation, in front of the default
//!   run store, so later processes skip the cold run too;
//! * every run carries a [`RunMetrics`] row (wall time, simulated
//!   cycles/second, per-phase timings, detector events, cache counters)
//!   that the harnesses emit under `--json`.

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use workloads::{corpus, spec2k, WorkloadProfile};

use crate::config::{RunPolicy, SupervisorConfig};
use crate::fault::{
    AppFailure, FailureKind, FailureReport, FaultPlan, FaultSignal, FaultSpec, InjectionEvent,
    RecoveryEvent, StorageFault, StorageIncident,
};
use crate::metrics::RunMetrics;
use crate::sim::{run_supervised, InstrumentedRun, SimConfig, SimResult, Technique};
use crate::store::{faulted_run_key, CacheKey, RunStore};

/// A suite run failed: the named application's simulation panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuiteError {
    /// The application whose run panicked.
    pub app: String,
    /// The panic message, when one was available.
    pub message: String,
}

impl fmt::Display for SuiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulation of '{}' failed: {}", self.app, self.message)
    }
}

impl std::error::Error for SuiteError {}

/// A suite's results in suite order, plus per-app observability rows.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteRun {
    /// One [`SimResult`] per application, in the order given.
    pub results: Vec<SimResult>,
    /// One [`RunMetrics`] row per application, aligned with `results`.
    pub metrics: Vec<RunMetrics>,
    /// End-to-end wall time of the whole suite in seconds.
    pub wall_seconds: f64,
}

/// Worker-pool width: `RESTUNE_WORKERS` when set to a positive integer,
/// otherwise the machine's available parallelism, never more than `jobs`.
/// A non-numeric or zero `RESTUNE_WORKERS` warns once per process and falls
/// back to the default rather than being silently ignored — the shared
/// `RESTUNE_*` knob contract of [`crate::envcfg`].
fn worker_count(jobs: usize) -> usize {
    let hw = crate::envcfg::positive_usize("RESTUNE_WORKERS", "engine", "the default worker count")
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    hw.min(jobs).max(1)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("(non-string panic payload)")
    }
}

/// Runs every profile under `technique` on a bounded worker pool, returning
/// results in suite order.
///
/// This is the unsupervised front door: no fault injection, no watchdog, no
/// retries — a thin wrapper over [`run_suite_supervised`] with the inert
/// policy. A panicking run surfaces as a [`SuiteError`] naming the
/// application; remaining workers finish their runs.
///
/// # Errors
///
/// Returns the first (in suite order) failing application's name and panic
/// message.
pub fn try_run_suite(
    profiles: &[WorkloadProfile],
    technique: &Technique,
    sim: &SimConfig,
) -> Result<SuiteRun, SuiteError> {
    let sup = SupervisorConfig {
        max_retries: 0,
        ..SupervisorConfig::default()
    };
    let suite = run_suite_supervised(profiles, technique, sim, &sup, &FaultPlan::none());
    suite_run(suite)
}

/// The all-or-nothing view of a supervised suite: every result with its
/// metrics, or the first (in suite order) failing application.
fn suite_run(suite: SupervisedSuite) -> Result<SuiteRun, SuiteError> {
    let wall_seconds = suite.wall_seconds;
    let mut results = Vec::with_capacity(suite.outcomes.len());
    let mut metrics = Vec::with_capacity(suite.outcomes.len());
    for (outcome, m) in suite.outcomes.into_iter().zip(suite.metrics) {
        match outcome {
            Ok(r) => {
                results.push(r);
                metrics.push(m.expect("a successful slot always carries metrics"));
            }
            Err(f) => {
                return Err(SuiteError {
                    app: f.app,
                    message: f.message,
                })
            }
        }
    }
    Ok(SuiteRun {
        results,
        metrics,
        wall_seconds,
    })
}

/// A supervised suite run: one `Result` slot per application instead of an
/// all-or-nothing suite, plus the failure report that explains every slot.
#[derive(Debug, Clone)]
pub struct SupervisedSuite {
    /// Per-application outcome, in suite order: the result, or the
    /// classified failure that exhausted its retries.
    pub outcomes: Vec<Result<SimResult, AppFailure>>,
    /// One [`RunMetrics`] row per *successful* application, aligned with
    /// `outcomes` (`None` where the run failed).
    pub metrics: Vec<Option<RunMetrics>>,
    /// Injections, recoveries, storage incidents, and terminal failures.
    pub report: FailureReport,
    /// End-to-end wall time of the whole suite in seconds.
    pub wall_seconds: f64,
}

impl SupervisedSuite {
    /// How many applications completed successfully.
    pub fn completed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_ok()).count()
    }

    /// All results when every application succeeded, `None` otherwise.
    pub fn all_results(&self) -> Option<Vec<SimResult>> {
        self.outcomes
            .iter()
            .map(|o| o.as_ref().ok().copied())
            .collect()
    }
}

/// Classifies an unwound panic payload: a typed [`FaultSignal`] carries its
/// own failure kind; anything else is an unclassified worker panic.
pub(crate) fn classify_payload(payload: Box<dyn std::any::Any + Send>) -> (FailureKind, String) {
    match payload.downcast::<FaultSignal>() {
        Ok(signal) => (signal.kind, signal.message),
        Err(other) => (FailureKind::Panic, panic_message(other)),
    }
}

/// Runs one attempt on the local tiers: a child process when eligible
/// (per [`crate::isolation::process_attempt`]'s gates, with `force`
/// bypassing the `RESTUNE_ISOLATION` mode check), otherwise in-process.
/// Hard-crash faults (abort/SIGKILL) would take down the whole process
/// in-process, so the thread tier records them as simulated crashes
/// instead of executing them. Shared by the suite supervisor and the
/// server's worker pool.
pub(crate) fn execute_attempt(
    profile: &WorkloadProfile,
    technique: &Technique,
    sim: &SimConfig,
    specs: &[FaultSpec],
    timeout: Option<Duration>,
    force_process: bool,
    obs: &crate::isolation::ObsRouting<'_>,
) -> Result<InstrumentedRun, (FailureKind, String)> {
    match crate::isolation::process_attempt(
        profile,
        technique,
        sim,
        specs,
        timeout,
        force_process,
        obs,
    ) {
        Some(outcome) => outcome,
        None => {
            if let Some(spec) = specs.iter().find(|s| s.is_hard_crash()) {
                Err((
                    FailureKind::Crash,
                    format!(
                        "injected {} (simulated: containing a hard crash \
                         requires RESTUNE_ISOLATION=process)",
                        spec.class()
                    ),
                ))
            } else {
                let deadline = timeout.map(|t| Instant::now() + t);
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_supervised(profile, technique, sim, specs, deadline)
                }))
                .map_err(classify_payload)
            }
        }
    }
}

/// Runs one application under supervision: injects the plan's faults for
/// each attempt, enforces the watchdog deadline, classifies any unwind, and
/// retries with bounded exponential backoff.
fn supervise_one(
    profile: &WorkloadProfile,
    technique: &Technique,
    sim: &SimConfig,
    sup: &SupervisorConfig,
    plan: &FaultPlan,
    report: &Mutex<FailureReport>,
) -> Result<(SimResult, RunMetrics), AppFailure> {
    let mut last: Option<(FailureKind, String)> = None;
    for attempt in 0..=sup.max_retries {
        if crate::isolation::shutdown_requested() {
            return Err(AppFailure {
                app: profile.name.to_string(),
                kind: FailureKind::Interrupted,
                message: String::from("suite interrupted by signal"),
                attempts: attempt,
            });
        }
        let specs = plan.faults_for(profile.name, attempt);
        if !specs.is_empty() {
            let mut rep = report.lock().unwrap_or_else(PoisonError::into_inner);
            for spec in &specs {
                rep.injections.push(InjectionEvent {
                    app: profile.name.to_string(),
                    attempt,
                    class: spec.class(),
                });
                crate::obs::counter_add("engine.injections", 1);
                crate::obs::Event::engine("fault-injected")
                    .str_field("app", profile.name)
                    .u64_field("attempt", u64::from(attempt))
                    .str_field("class", spec.class())
                    .emit();
            }
        }
        // Remote dispatch first: when a `--connect` endpoint is armed the
        // suite server executes the attempt and this process is a thin
        // client. Otherwise the local tiers apply.
        let outcome: Result<InstrumentedRun, (FailureKind, String)> =
            match crate::client::remote_attempt(profile, technique, sim, &specs, sup.timeout) {
                Some(outcome) => outcome,
                None => execute_attempt(
                    profile,
                    technique,
                    sim,
                    &specs,
                    sup.timeout,
                    false,
                    &crate::isolation::ObsRouting::Absorb,
                ),
            };
        match outcome {
            Ok(inst) => {
                let mut metrics =
                    RunMetrics::from_instrumented(technique.name(), &inst, base_cache_stats());
                metrics.attempts = attempt + 1;
                if let Some((kind, message)) = last {
                    crate::obs::counter_add("engine.recoveries", 1);
                    crate::obs::Event::engine("recovered")
                        .str_field("app", profile.name)
                        .str_field("after", &format!("{kind:?}"))
                        .u64_field("attempts", u64::from(attempt + 1))
                        .emit();
                    report
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .recoveries
                        .push(RecoveryEvent {
                            app: profile.name.to_string(),
                            kind,
                            message,
                            attempts: attempt + 1,
                        });
                }
                return Ok((inst.result, metrics));
            }
            Err((kind, message)) => {
                let interrupted = kind == FailureKind::Interrupted;
                let backoff = (!interrupted && attempt < sup.max_retries)
                    .then(|| sup.backoff_delay(attempt + 1));
                crate::obs::counter_add("engine.attempt_failures", 1);
                crate::obs::Event::engine("attempt-failed")
                    .str_field("app", profile.name)
                    .u64_field("attempt", u64::from(attempt))
                    .str_field("kind", &format!("{kind:?}"))
                    .u64_field("backoff_ms", backoff.unwrap_or_default().as_millis() as u64)
                    .emit();
                last = Some((kind, message));
                if interrupted {
                    break; // a drained suite must not retry, only record
                }
                if let Some(delay) = backoff {
                    std::thread::sleep(delay);
                }
            }
        }
    }
    let (kind, message) = last.expect("the retry loop only exits failed with a recorded failure");
    Err(AppFailure {
        app: profile.name.to_string(),
        kind,
        message,
        attempts: sup.max_retries + 1,
    })
}

/// The run-store key of `profile`'s run on retry `attempt`: its
/// [`crate::store::run_key`] plus that attempt's result-perturbing (sensor)
/// faults, the only faults that change what a run computes. Worker and
/// numeric faults decide only *whether* a run completes, so a run stored
/// under them replays clean.
fn stored_key(
    profile: &WorkloadProfile,
    technique: &Technique,
    sim: &SimConfig,
    plan: &FaultPlan,
    attempt: u32,
) -> CacheKey {
    faulted_run_key(
        profile,
        technique,
        sim,
        &plan.result_faults(profile.name, attempt),
    )
}

/// Runs every profile under `technique` on the bounded worker pool, with
/// the full supervision stack: per-attempt fault injection from `plan`,
/// watchdog deadlines, classified failures, and bounded-backoff retries.
///
/// With `sup.store` set the suite reads and writes that run store: an
/// application whose run is stored (under its attempt-0 sensor faults)
/// replays it, the pool is sized to the misses, and each fresh run is put
/// the moment it succeeds (under the sensor faults of the attempt that
/// produced it), so an interrupted suite resumes from the store. A suite
/// that put anything ends with one [`RunStore::sync`], after which its
/// runs survive an OS crash too.
///
/// Unlike [`try_run_suite`], one failing application does not abort the
/// suite: its slot carries the classified [`AppFailure`] and every other
/// application still completes (graceful degradation).
pub fn run_suite_supervised(
    profiles: &[WorkloadProfile],
    technique: &Technique,
    sim: &SimConfig,
    sup: &SupervisorConfig,
    plan: &FaultPlan,
) -> SupervisedSuite {
    let start = Instant::now();
    // FaultSignal unwinds are classified control flow, not crashes; keep
    // the default hook's backtraces off stderr for them.
    crate::fault::install_signal_quieting_hook();
    crate::obs::Event::engine("suite-start")
        .str_field("technique", technique.name())
        .u64_field("apps", profiles.len() as u64)
        .u64_field("instructions", sim.instructions)
        .emit();
    let report = Mutex::new(FailureReport::new(technique.name()));
    let slots: Vec<OnceLock<Result<(SimResult, RunMetrics), AppFailure>>> =
        profiles.iter().map(|_| OnceLock::new()).collect();

    if let Some(store) = &sup.store {
        let stats = base_cache_stats();
        for (slot, profile) in slots.iter().zip(profiles) {
            let Some(result) = store.get(&stored_key(profile, technique, sim, plan, 0)) else {
                continue;
            };
            crate::obs::counter_add("engine.replayed", 1);
            crate::obs::Event::engine("replayed")
                .str_field("app", result.app)
                .str_field("technique", technique.name())
                .emit();
            let metrics = RunMetrics::replayed(technique.name(), &result, stats);
            let _ = slot.set(Ok((result, metrics)));
        }
    }
    // A failed put or barrier warns once per suite; the results stay good.
    let degrade = |store: &RunStore, what: &str, e: io::Error| {
        let mut rep = report.lock().unwrap_or_else(PoisonError::into_inner);
        if !rep.store_degraded {
            rep.store_degraded = true;
            crate::obs::warn(
                "store",
                &format!(
                    "run-store {what} failed in {} ({e}); this suite will not fully resume",
                    store.dir().display()
                ),
            );
        }
    };
    let put_any = AtomicBool::new(false);
    let put = |profile: &WorkloadProfile, result: &SimResult, attempts: u32| {
        let Some(store) = &sup.store else { return };
        let key = stored_key(profile, technique, sim, plan, attempts - 1);
        match store.put(&key, result) {
            Ok(()) => put_any.store(true, Ordering::Relaxed),
            Err(e) => degrade(store, "put", e),
        }
    };

    let misses: Vec<usize> = (0..profiles.len())
        .filter(|&idx| slots[idx].get().is_none())
        .collect();
    // No misses, no pool: a fully stored suite starts no threads.
    let threads = worker_count(misses.len()).min(misses.len());
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let mut pool = Vec::new();
        for _ in 0..threads {
            pool.push(scope.spawn(|| loop {
                let Some(&idx) = misses.get(next.fetch_add(1, Ordering::Relaxed)) else {
                    return;
                };
                let profile = &profiles[idx];
                // Graceful shutdown: once a signal arrives, stop claiming
                // work — unclaimed apps become `interrupted` slots, the
                // store keeps everything already completed, and the
                // partial report goes out as usual.
                let outcome = if crate::isolation::shutdown_requested() {
                    Err(AppFailure {
                        app: profile.name.to_string(),
                        kind: FailureKind::Interrupted,
                        message: String::from("suite interrupted by signal"),
                        attempts: 0,
                    })
                } else {
                    supervise_one(profile, technique, sim, sup, plan, &report)
                };
                if let Ok((result, metrics)) = &outcome {
                    put(profile, result, metrics.attempts);
                }
                let stored = slots[idx].set(outcome).is_ok();
                assert!(stored, "each unfilled slot is claimed exactly once");
            }));
        }
        // Joining, unlike the scope's own wait, also waits for each thread's
        // locals to drop: its process-tier worker retires before the suite
        // returns.
        for thread in pool {
            if let Err(panic) = thread.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    // One durability barrier for every run the pool put (store module
    // docs, *Durability*), in place of one fsync per put.
    if let (Some(store), true) = (&sup.store, put_any.into_inner()) {
        if let Err(e) = store.sync() {
            degrade(store, "sync", e);
        }
    }

    let mut outcomes = Vec::with_capacity(slots.len());
    let mut metrics = Vec::with_capacity(slots.len());
    for slot in slots {
        match slot
            .into_inner()
            .expect("every slot was claimed or pre-filled")
        {
            Ok((r, m)) => {
                outcomes.push(Ok(r));
                metrics.push(Some(m));
            }
            Err(f) => {
                outcomes.push(Err(f));
                metrics.push(None);
            }
        }
    }
    let mut report = report.into_inner().unwrap_or_else(PoisonError::into_inner);
    for outcome in &outcomes {
        if let Err(f) = outcome {
            report.failures.push(f.clone());
        }
    }
    let wall_seconds = start.elapsed().as_secs_f64();
    crate::obs::Event::engine("suite-end")
        .str_field("technique", technique.name())
        .u64_field("apps", outcomes.len() as u64)
        .u64_field("failures", report.failures.len() as u64)
        .f64_field("wall_seconds", wall_seconds)
        .emit();
    SupervisedSuite {
        outcomes,
        metrics,
        report,
        wall_seconds,
    }
}

/// Damages a stored record in place according to the storage fault.
fn corrupt_file(path: &Path, fault: StorageFault) -> io::Result<()> {
    let mut bytes = std::fs::read(path)?;
    let mid = bytes.len() / 2;
    match fault {
        StorageFault::Truncate => bytes.truncate(mid),
        StorageFault::BitFlip => {
            if let Some(b) = bytes.get_mut(mid) {
                // Flipping bit 4 maps every digit, hex letter, tab, and
                // newline outside its class, so the damage always parses as
                // corruption rather than as a different valid value.
                *b ^= 0x10;
            }
        }
    }
    std::fs::write(path, bytes)
}

/// The base-machine suite of the synthetic SPEC2K profiles for `sim`,
/// under `policy`: the starting point of every table and figure driver.
///
/// An inert policy ([`RunPolicy::is_inert`]) is served from a process-wide
/// memo, so any number of drivers in one process simulate the base suite
/// at most once; concurrent callers with the same config serialize on it.
/// Only a complete suite is memoized. Any other policy bypasses the memo,
/// since a partial or perturbed base suite must never poison it.
///
/// Either way the suite reads and writes a run store: the policy's, or the
/// default one ([`RunStore::open_default`]) when it has none, so later
/// processes skip the cold run too. A planned storage fault first damages
/// each of the suite's records that exist there (one [`StorageIncident`]
/// apiece); the damaged records miss and re-simulating recovers them. A
/// failing application degrades its slot rather than the whole suite, and
/// a suite that simulated evicts the store to its bounds afterwards.
pub fn base_suite(sim: &SimConfig, policy: &RunPolicy) -> SupervisedSuite {
    base_suite_for(sim, &spec2k::all(), policy)
}

/// [`base_suite`] for the RISC-V corpus suite: the same memo, counters,
/// storage-fault recovery, and run store.
pub fn corpus_base_suite(sim: &SimConfig, policy: &RunPolicy) -> SupervisedSuite {
    base_suite_for(sim, &corpus::all(), policy)
}

fn base_suite_for(
    sim: &SimConfig,
    profiles: &[WorkloadProfile],
    policy: &RunPolicy,
) -> SupervisedSuite {
    let mut memo = None;
    if policy.is_inert() {
        let key = memo_key(sim, profiles);
        let state = cache().lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(suite) = state.memo.get(&key) {
            BASE_HITS.fetch_add(1, Ordering::Relaxed);
            return suite.clone();
        }
        memo = Some((state, key));
    }

    let plan = &policy.plan;
    let store = policy
        .supervisor
        .store
        .clone()
        .unwrap_or_else(RunStore::open_default);
    let mut incidents = Vec::new();
    if let Some(fault) = plan.storage_fault() {
        for (idx, profile) in profiles.iter().enumerate() {
            let path = store.path_for(&stored_key(profile, &Technique::Base, sim, plan, 0));
            if path.exists() && corrupt_file(&path, fault).is_ok() {
                let incident = StorageIncident {
                    path: path.display().to_string(),
                    detail: format!("injected {}", fault.class()),
                    recovered: false,
                };
                incidents.push((idx, incident));
            }
        }
    }

    let sup = SupervisorConfig {
        store: Some(store.clone()),
        ..policy.supervisor.clone()
    };
    let mut suite = run_suite_supervised(profiles, &Technique::Base, sim, &sup, plan);
    let simulated = !suite.metrics.iter().all(|m| m.is_some_and(|m| m.replayed));
    if simulated {
        store.evict();
    }
    suite.report.scope = String::from("base");
    for (idx, mut incident) in incidents {
        if suite.metrics[idx].is_some_and(|m| !m.replayed) {
            incident.recovered = true;
            incident.detail.push_str(" — re-simulated");
        }
        suite.report.storage.push(incident);
    }
    if let Some((mut state, key)) = memo {
        if simulated {
            BASE_MISSES.fetch_add(1, Ordering::Relaxed);
            *state.simulations.entry(key.clone()).or_insert(0) += 1;
        } else {
            BASE_HITS.fetch_add(1, Ordering::Relaxed);
        }
        if suite.report.failures.is_empty() {
            state.memo.insert(key, suite.clone());
        }
    }
    suite
}

/// Hit/miss counters of the process-wide base-suite memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests served from memory or entirely from the run store.
    pub hits: u64,
    /// Requests that had to simulate (part of) the suite.
    pub misses: u64,
}

static BASE_HITS: AtomicU64 = AtomicU64::new(0);
static BASE_MISSES: AtomicU64 = AtomicU64::new(0);

struct CacheState {
    memo: HashMap<String, SupervisedSuite>,
    /// Base-suite simulations actually executed, per memo key.
    simulations: HashMap<String, u64>,
}

static CACHE: OnceLock<Mutex<CacheState>> = OnceLock::new();

fn cache() -> &'static Mutex<CacheState> {
    CACHE.get_or_init(|| {
        Mutex::new(CacheState {
            memo: HashMap::new(),
            simulations: HashMap::new(),
        })
    })
}

/// The memo key of a base suite: the machine configuration and every
/// workload profile, in full.
fn memo_key(sim: &SimConfig, profiles: &[WorkloadProfile]) -> String {
    format!("{sim:?}|{profiles:?}")
}

/// Process-wide counters of the base-suite memo's activity (inert
/// policies only).
pub fn base_cache_stats() -> CacheStats {
    CacheStats {
        hits: BASE_HITS.load(Ordering::Relaxed),
        misses: BASE_MISSES.load(Ordering::Relaxed),
    }
}

/// How many times this process actually *simulated* the base suite for
/// `sim` under an inert policy (as opposed to serving all of it from the
/// memo or the run store).
pub fn base_suite_simulations(sim: &SimConfig) -> u64 {
    simulations_for(&memo_key(sim, &spec2k::all()))
}

/// [`base_suite_simulations`] for the RISC-V corpus suite.
pub fn corpus_base_suite_simulations(sim: &SimConfig) -> u64 {
    simulations_for(&memo_key(sim, &corpus::all()))
}

fn simulations_for(key: &str) -> u64 {
    let state = cache().lock().unwrap_or_else(PoisonError::into_inner);
    state.simulations.get(key).copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TuningConfig;
    use crate::sim::run;
    use std::path::PathBuf;

    fn quick_sim() -> SimConfig {
        SimConfig::isca04(15_000)
    }

    #[test]
    fn bounded_pool_matches_serial_order_and_values() {
        let profiles: Vec<_> = spec2k::all().into_iter().take(5).collect();
        let sim = quick_sim();
        let suite = try_run_suite(&profiles, &Technique::Base, &sim).unwrap();
        assert_eq!(suite.results.len(), 5);
        assert_eq!(suite.metrics.len(), 5);
        for ((r, m), p) in suite.results.iter().zip(&suite.metrics).zip(&profiles) {
            assert_eq!(r.app, p.name);
            assert_eq!(m.app, p.name);
            assert_eq!(m.cycles, r.cycles);
            assert!(m.wall_seconds > 0.0);
            assert!(m.sim_cycles_per_second > 0.0);
            assert!(!m.replayed);
            assert_eq!(*r, run(p, &Technique::Base, &sim));
        }
        assert!(suite.wall_seconds > 0.0);
    }

    #[test]
    fn tuning_suite_reports_detector_activity() {
        let profiles = vec![spec2k::by_name("swim").unwrap()];
        let sim = SimConfig::isca04(150_000);
        let technique = Technique::Tuning(TuningConfig::isca04_table1(100));
        let suite = try_run_suite(&profiles, &technique, &sim).unwrap();
        assert_eq!(suite.metrics[0].technique, "tuning");
        assert!(suite.metrics[0].detector_events > 0);
        assert!(suite.metrics[0].first_level_fraction > 0.0);
    }

    #[test]
    fn failing_app_is_named() {
        // An invalid profile trips `WorkloadProfile::validate` inside the
        // worker; the error must carry the app's name, not a bare unwrap.
        let good = spec2k::by_name("gzip").unwrap();
        let mut bad = spec2k::by_name("mcf").unwrap();
        bad.name = "broken-app";
        bad.mean_dep = 0.0;
        let err = try_run_suite(&[good, bad], &Technique::Base, &quick_sim())
            .expect_err("the invalid profile must fail the suite");
        assert_eq!(err.app, "broken-app");
        assert!(
            err.message.contains("mean dependence distance"),
            "panic message should survive: {}",
            err.message
        );
    }

    /// A scratch run store, empty, and a supervisor that reads and writes
    /// it.
    fn scratch_store(label: &str) -> (PathBuf, SupervisorConfig) {
        let dir =
            std::env::temp_dir().join(format!("restune-engine-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sup = SupervisorConfig {
            store: Some(RunStore::open(dir.clone())),
            ..SupervisorConfig::default()
        };
        (dir, sup)
    }

    fn replayed(suite: &SupervisedSuite) -> Vec<bool> {
        suite
            .metrics
            .iter()
            .map(|m| m.expect("every app completed").replayed)
            .collect()
    }

    #[test]
    fn fingerprint_tracks_config_changes() {
        let gzip = spec2k::by_name("gzip").unwrap();
        let clean = FaultPlan::none();
        let fp = |sim: &SimConfig| stored_key(&gzip, &Technique::Base, sim, &clean, 0).fingerprint;
        let a = fp(&SimConfig::isca04(10_000));
        let b = fp(&SimConfig::isca04(10_001));
        let a2 = fp(&SimConfig::isca04(10_000));
        assert_ne!(a, b);
        assert_eq!(a, a2);
        // A clean run is stored under the public run key, so records written
        // through `RunStore::put(&run_key(..))` serve the engine and back.
        let sim = quick_sim();
        assert_eq!(
            stored_key(&gzip, &Technique::Base, &sim, &clean, 0),
            crate::store::run_key(&gzip, &Technique::Base, &sim)
        );
    }

    #[test]
    fn baseline_file_round_trips_bit_exactly() {
        // A supervised base suite records one file per application; the
        // next one replays them all, bit-identical to fresh simulation.
        let sim = SimConfig::isca04(4_000);
        let (dir, supervisor) = scratch_store("baseline");
        let policy = RunPolicy {
            supervisor,
            ..RunPolicy::none()
        };
        let recorded = corpus_base_suite(&sim, &policy);
        let apps = corpus::all().len();
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), apps);
        let replay = corpus_base_suite(&sim, &policy);
        assert_eq!(replayed(&replay), vec![true; apps]);
        let serial: Vec<_> = corpus::all()
            .iter()
            .map(|p| run(p, &Technique::Base, &sim))
            .collect();
        assert_eq!(recorded.all_results().unwrap(), serial);
        assert_eq!(replay.all_results().unwrap(), serial);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_baseline_is_not_an_error() {
        // A store directory that does not exist yet: every lookup misses
        // without creating anything, and the first put creates it.
        let profiles = vec![spec2k::by_name("gzip").unwrap()];
        let (dir, sup) = scratch_store("missing");
        let suite = run_suite_supervised(
            &profiles,
            &Technique::Base,
            &quick_sim(),
            &sup,
            &FaultPlan::none(),
        );
        assert!(suite.report.is_empty(), "{:?}", suite.report);
        assert_eq!(replayed(&suite), vec![false]);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_put_marks_the_report_and_keeps_the_results() {
        // A store rooted under a regular file can never be written.
        let profiles: Vec<_> = spec2k::all().into_iter().take(2).collect();
        let file = std::env::temp_dir().join(format!("restune-engine-file-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let sup = SupervisorConfig {
            store: Some(RunStore::open(file.join("store"))),
            ..SupervisorConfig::default()
        };
        let sim = quick_sim();
        let suite =
            run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &FaultPlan::none());
        assert!(suite.report.store_degraded);
        assert!(suite.report.is_clean(), "a put failure fails no run");
        assert_eq!(
            suite.all_results().unwrap(),
            try_run_suite(&profiles, &Technique::Base, &sim)
                .unwrap()
                .results
        );
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn base_suite_is_simulated_once_per_process() {
        // A config unique to this test so parallel tests don't share the
        // memo entry, and a cache directory of its own so the first call
        // really simulates: default-store records outlive a test run.
        let sim = SimConfig::isca04(15_551);
        let dir = std::env::temp_dir().join(format!("restune-engine-once-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = dir.to_str().unwrap();
        crate::testenv::with_env(&[("RESTUNE_CACHE_DIR", Some(cache))], || {
            assert_eq!(base_suite_simulations(&sim), 0);
            let first = base_suite(&sim, &RunPolicy::none());
            assert_eq!(base_suite_simulations(&sim), 1);
            let hits = base_cache_stats().hits;
            let second = base_suite(&sim, &RunPolicy::none());
            assert_eq!(
                base_suite_simulations(&sim),
                1,
                "second request must hit the memo"
            );
            assert!(base_cache_stats().hits > hits);
            assert_eq!(second.all_results(), first.all_results());
            assert_eq!(replayed(&second), vec![false; spec2k::all().len()]);
            let first = first.all_results().expect("the base suite completes");

            // A fresh process has an empty memo but the same store: a
            // store-backed suite serves every application from it.
            let sup = SupervisorConfig {
                store: Some(RunStore::open_default()),
                ..SupervisorConfig::default()
            };
            let fresh = run_suite_supervised(
                &spec2k::all(),
                &Technique::Base,
                &sim,
                &sup,
                &FaultPlan::none(),
            );
            assert_eq!(replayed(&fresh), vec![true; spec2k::all().len()]);
            assert_eq!(fresh.all_results().unwrap(), first);
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_base_suite_is_reported_and_not_memoized() {
        // An invalid profile fails its slot; the inert base suite must
        // report it rather than panic, and must not memoize a partial suite.
        let good = spec2k::by_name("gzip").unwrap();
        let mut bad = spec2k::by_name("mcf").unwrap();
        bad.name = "broken-base-app";
        bad.mean_dep = 0.0;
        let profiles = [good, bad];
        let sim = quick_sim();
        let dir =
            std::env::temp_dir().join(format!("restune-engine-partial-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = dir.to_str().unwrap();
        crate::testenv::with_env(&[("RESTUNE_CACHE_DIR", Some(cache))], || {
            for _ in 0..2 {
                let suite = base_suite_for(&sim, &profiles, &RunPolicy::none());
                assert_eq!(suite.completed(), 1);
                assert_eq!(suite.report.scope, "base");
                assert_eq!(suite.report.failures.len(), 1);
                assert_eq!(suite.report.failures[0].app, "broken-base-app");
            }
        });
        assert_eq!(
            simulations_for(&memo_key(&sim, &profiles)),
            2,
            "a partial base suite must simulate again, not replay the memo"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_count_is_bounded() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(1_000) <= 1_000);
        assert!(worker_count(1_000) >= 1);
    }

    #[test]
    fn invalid_workers_env_warns_and_falls_back() {
        // Only the return value is checked (a stderr warning is emitted);
        // an invalid value must behave exactly like an unset variable. All
        // environment mutation goes through the shared lock so parallel
        // tests never observe a half-restored variable.
        for bad in ["three", "0", " ", "-2"] {
            let n = crate::testenv::with_env(&[("RESTUNE_WORKERS", Some(bad))], || worker_count(8));
            assert!((1..=8).contains(&n), "RESTUNE_WORKERS='{bad}' gave {n}");
        }
        let unset = crate::testenv::with_env(&[("RESTUNE_WORKERS", None)], || worker_count(8));
        assert!((1..=8).contains(&unset));
    }

    #[test]
    fn supervised_suite_degrades_instead_of_aborting() {
        let profiles: Vec<_> = spec2k::all().into_iter().take(3).collect();
        let victim = profiles[1].name;
        let sim = quick_sim();
        let plan =
            FaultPlan::none().with_persistent_fault(victim, crate::fault::FaultSpec::WorkerPanic);
        let sup = SupervisorConfig {
            max_retries: 1,
            ..SupervisorConfig::default()
        };
        let suite = run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &plan);

        assert_eq!(suite.completed(), 2, "the other apps must still finish");
        assert!(suite.all_results().is_none());
        let failure = suite.outcomes[1].as_ref().expect_err("victim fails");
        assert_eq!(failure.app, victim);
        assert_eq!(failure.kind, FailureKind::Panic);
        assert_eq!(failure.attempts, 2, "one retry was spent");
        assert_eq!(suite.report.failures.len(), 1);
        assert_eq!(suite.report.injections.len(), 2, "both attempts injected");
        assert!(!suite.report.is_clean());
        // Healthy slots match an unsupervised run bit-for-bit.
        assert_eq!(
            suite.outcomes[0].as_ref().unwrap(),
            &run(&profiles[0], &Technique::Base, &sim)
        );
    }

    #[test]
    fn transient_fault_recovers_with_backoff_retry() {
        let profiles = vec![spec2k::by_name("gzip").unwrap()];
        let sim = quick_sim();
        let plan =
            FaultPlan::none().with_transient_fault("gzip", crate::fault::FaultSpec::WorkerPanic);
        let sup = SupervisorConfig {
            max_retries: 2,
            backoff_base: std::time::Duration::from_millis(1),
            ..SupervisorConfig::default()
        };
        let suite = run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &plan);

        assert_eq!(suite.completed(), 1, "retry must rescue the run");
        assert!(suite.report.is_clean());
        assert_eq!(suite.report.recoveries.len(), 1);
        assert_eq!(suite.report.recoveries[0].kind, FailureKind::Panic);
        assert_eq!(suite.report.recoveries[0].attempts, 2);
        let metrics = suite.metrics[0].as_ref().unwrap();
        assert_eq!(metrics.attempts, 2);
        // The clean retry reproduces the unfaulted run bit-for-bit.
        assert_eq!(
            suite.outcomes[0].as_ref().unwrap(),
            &run(&profiles[0], &Technique::Base, &sim)
        );
    }

    #[test]
    fn final_failed_attempt_does_not_sleep_backoff() {
        let profiles = vec![spec2k::by_name("gzip").unwrap()];
        let sim = quick_sim();
        let plan =
            FaultPlan::none().with_persistent_fault("gzip", crate::fault::FaultSpec::WorkerPanic);
        let base = std::time::Duration::from_millis(60);
        let sup = SupervisorConfig {
            max_retries: 2,
            backoff_base: base,
            backoff_cap: std::time::Duration::from_secs(10),
            ..SupervisorConfig::default()
        };

        let t0 = std::time::Instant::now();
        let suite = run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &plan);
        let wall = t0.elapsed();

        let failure = suite.outcomes[0]
            .as_ref()
            .expect_err("persistent fault fails");
        assert_eq!(failure.attempts, sup.max_retries + 1);
        // Backoff runs *between* attempts only: after attempts 1 and 2
        // (60 ms, then 120 ms). Sleeping after the final attempt would add
        // another 240 ms for nothing — the suite is already lost.
        assert!(
            wall >= base * 3,
            "both inter-attempt backoffs must run, got {wall:?}"
        );
        assert!(
            wall < base * 7,
            "the final failed attempt must not sleep its 240 ms backoff, got {wall:?}"
        );
    }

    #[test]
    fn inert_supervised_suite_matches_try_run_suite() {
        let profiles: Vec<_> = spec2k::all().into_iter().take(3).collect();
        let sim = quick_sim();
        let plain = try_run_suite(&profiles, &Technique::Base, &sim).unwrap();
        let supervised = run_suite_supervised(
            &profiles,
            &Technique::Base,
            &sim,
            &SupervisorConfig::default(),
            &FaultPlan::none(),
        );
        assert!(supervised.report.is_empty());
        assert_eq!(supervised.all_results().unwrap(), plain.results);
    }

    #[test]
    fn checkpoint_round_trips_and_tolerates_a_truncated_tail() {
        let profiles: Vec<_> = spec2k::all().into_iter().take(3).collect();
        let sim = quick_sim();
        let (dir, sup) = scratch_store("truncated");
        let plan = FaultPlan::none();
        let first = run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &plan);

        // A torn write of the last application's record: it re-simulates,
        // everything else replays, and the suite is unchanged.
        let store = sup.store.as_ref().unwrap();
        let path = store.path_for(&stored_key(&profiles[2], &Technique::Base, &sim, &plan, 0));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 20]).unwrap();
        let resumed = run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &plan);
        assert_eq!(replayed(&resumed), vec![true, true, false]);
        assert_eq!(resumed.all_results(), first.all_results());
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "the run is put back");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn suite_fingerprint_tracks_result_perturbing_faults_only() {
        let app = spec2k::by_name("gzip").unwrap();
        let sim = quick_sim();
        let sensor = crate::fault::FaultSpec::SensorDelay { cycles: 3 };
        let clean = FaultPlan::none();
        let persistent = FaultPlan::none().with_persistent_fault(app.name, sensor);
        let transient = FaultPlan::none().with_transient_fault(app.name, sensor);
        let worker =
            FaultPlan::none().with_persistent_fault(app.name, crate::fault::FaultSpec::WorkerPanic);
        let fp = |plan: &FaultPlan, attempt| {
            stored_key(&app, &Technique::Base, &sim, plan, attempt).fingerprint
        };
        assert_ne!(
            fp(&clean, 0),
            fp(&persistent, 0),
            "sensor faults change results, so they must change the key"
        );
        assert_eq!(
            fp(&clean, 0),
            fp(&worker, 0),
            "worker faults never change results, so records stay shareable"
        );
        // A retry that runs without a transient sensor fault computes the
        // clean result, and is stored under the clean key.
        assert_eq!(fp(&transient, 0), fp(&persistent, 1));
        assert_eq!(fp(&transient, 1), fp(&clean, 0));
    }

    #[test]
    fn resumed_suite_replays_checkpointed_rows_bit_exactly() {
        let profiles: Vec<_> = spec2k::all().into_iter().take(3).collect();
        let sim = quick_sim();
        let (dir, sup) = scratch_store("resume");
        let plan = FaultPlan::none();

        // Simulate an interrupted run: only app 1 completed and was stored
        // before the kill.
        let partial = run(&profiles[1], &Technique::Base, &sim);
        let key = stored_key(&profiles[1], &Technique::Base, &sim, &plan, 0);
        sup.store.as_ref().unwrap().put(&key, &partial).unwrap();

        let resumed = run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &plan);
        assert_eq!(
            replayed(&resumed),
            vec![false, true, false],
            "the stored app must be replayed, not re-simulated"
        );

        // The resumed suite equals an uninterrupted one bit-for-bit.
        let uninterrupted = try_run_suite(&profiles, &Technique::Base, &sim).unwrap();
        assert_eq!(resumed.all_results().unwrap(), uninterrupted.results);

        // Every run is stored now: a rerun replays the whole suite without
        // starting a pool.
        let rerun = run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &plan);
        assert_eq!(replayed(&rerun), vec![true; 3]);
        assert_eq!(rerun.all_results().unwrap(), uninterrupted.results);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
