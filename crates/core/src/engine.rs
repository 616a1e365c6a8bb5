//! The suite experiment engine: bounded deterministic scheduling, a
//! process-wide memo of base-machine suite runs, recorded-baseline files,
//! and structured per-run metrics.
//!
//! The table and figure drivers in [`crate::experiment`] all start from the
//! same base-machine suite; this module makes that shared work explicit:
//!
//! * [`try_run_suite`] executes a suite on a worker pool sized to the
//!   machine (not one OS thread per application), writing each result into
//!   its own slot so ordering and determinism are structural, and reporting
//!   the *name* of a failing application instead of a bare unwrap;
//! * [`cached_base_suite`] memoizes base runs per [`SimConfig`]
//!   fingerprint, so any number of drivers in one process trigger exactly
//!   one base simulation, and records the rows to a baseline file under the
//!   build's `target/` directory so later processes skip the cold run too;
//! * every run carries a [`RunMetrics`] row (wall time, simulated
//!   cycles/second, per-phase timings, detector events, cache counters)
//!   that the harnesses emit under `--json`.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use workloads::{corpus, registry, spec2k, WorkloadProfile};

use crate::config::SupervisorConfig;
use crate::fault::{
    AppFailure, FailureKind, FailureReport, FaultPlan, FaultSignal, FaultSpec, InjectionEvent,
    RecoveryEvent, StorageFault, StorageIncident,
};
use crate::metrics::RunMetrics;
use crate::sim::{run_supervised, InstrumentedRun, SimConfig, SimResult, Technique};

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
    fn from_suite_run(run: &SuiteRun, scope: &str) -> Self {
        Self {
            outcomes: run.results.iter().copied().map(Ok).collect(),
            metrics: run.metrics.iter().copied().map(Some).collect(),
            report: FailureReport::new(scope),
            wall_seconds: run.wall_seconds,
        }
    }

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

/// Runs every profile under `technique` on the bounded worker pool, with
/// the full supervision stack: per-attempt fault injection from `plan`,
/// watchdog deadlines, classified failures, bounded-backoff retries, and —
/// when `sup.resume` is set — checkpoint/resume of completed applications.
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

    // Resume: pre-fill slots from a prior interrupted run of the *same*
    // suite (fingerprint covers machine, technique, profiles, and the
    // result-perturbing part of the fault plan).
    let checkpoint = sup.resume.then(|| {
        let key = suite_key(profiles, technique, sim, plan);
        let path = checkpoint_path(sup, key.fingerprint);
        let rows = load_checkpoint(&path, &key, profiles);
        (path, key, rows)
    });
    if let Some((_, _, rows)) = &checkpoint {
        let stats = base_cache_stats();
        for (idx, result) in rows {
            crate::obs::counter_add("engine.replayed", 1);
            crate::obs::Event::engine("replayed")
                .str_field("app", result.app)
                .str_field("technique", technique.name())
                .emit();
            let metrics = RunMetrics::replayed(technique.name(), result, stats);
            let _ = slots[*idx].set(Ok((*result, metrics)));
        }
    }

    let ckpt_append = Mutex::new(());
    // Serialized crash-consistent checkpoint append with a once-per-suite
    // degradation warning.
    let append_ckpt = |idx: usize, result: &SimResult| {
        if let Some((path, key, _)) = &checkpoint {
            let _guard = ckpt_append.lock().unwrap_or_else(PoisonError::into_inner);
            if let Err(e) = append_checkpoint(path, key, idx, result) {
                let mut rep = report.lock().unwrap_or_else(PoisonError::into_inner);
                if !rep.checkpoint_degraded {
                    rep.checkpoint_degraded = true;
                    crate::obs::warn(
                        "checkpoint",
                        &format!(
                            "checkpoint append failed for {} ({e}); \
                             this suite will not fully resume",
                            path.display()
                        ),
                    );
                }
            }
        }
    };

    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let mut pool = Vec::new();
        for _ in 0..worker_count(profiles.len()) {
            pool.push(scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(profile) = profiles.get(idx) else {
                    return;
                };
                if slots[idx].get().is_some() {
                    continue; // replayed from the checkpoint
                }
                // Graceful shutdown: once a signal arrives, stop claiming
                // work — unclaimed apps become `interrupted` slots, the
                // checkpoint keeps everything already completed, and the
                // partial report goes out as usual.
                if crate::isolation::shutdown_requested() {
                    let stored = slots[idx]
                        .set(Err(AppFailure {
                            app: profile.name.to_string(),
                            kind: FailureKind::Interrupted,
                            message: String::from("suite interrupted by signal"),
                            attempts: 0,
                        }))
                        .is_ok();
                    assert!(stored, "each unfilled slot is claimed exactly once");
                    continue;
                }
                let outcome = supervise_one(profile, technique, sim, sup, plan, &report);
                if let Ok((result, _)) = &outcome {
                    append_ckpt(idx, result);
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
    // A fully successful suite retires its checkpoint; a degraded one keeps
    // it so a fixed-up rerun only repeats the failed applications. Success
    // is also the moment to sweep out *abandoned* sibling checkpoints —
    // files whose suites crashed and were never resumed would otherwise
    // accumulate forever.
    if let Some((path, _, _)) = &checkpoint {
        if outcomes.iter().all(Result::is_ok) {
            let _ = std::fs::remove_file(path);
            prune_stale_checkpoints(&checkpoint_dir(sup));
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

/// Checkpoint-file schema version; bump when the row format changes.
/// v2 added the per-row CRC32 and the tmp+fsync+rename write path; v3 the
/// persisted identity row (the fingerprint-collision guard).
const CHECKPOINT_SCHEMA: u32 = 3;

/// A fully-qualified cache key: the 64-bit FNV-1a fingerprint plus the
/// identity string it was hashed from.
///
/// Every persisted cache plane — recorded baselines, suite checkpoints,
/// the server result cache, the sweep run store — stores *both* and
/// verifies the identity on read. 64 bits of FNV-1a make an accidental
/// collision unlikely, not impossible, and two different configurations
/// silently sharing one cache slot would replay wrong results with no
/// way to notice; an identity mismatch is therefore treated as a miss
/// with an `obs::warn`, never as a hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    /// FNV-1a of `identity`.
    pub fingerprint: u64,
    /// The full config identity string the fingerprint was derived from.
    pub identity: String,
}

impl CacheKey {
    /// Hashes `identity` into its fingerprint.
    pub fn from_identity(identity: String) -> CacheKey {
        let fingerprint = fnv1a(identity.as_bytes());
        CacheKey {
            fingerprint,
            identity,
        }
    }
}

/// Warns about (and counts) a fingerprint collision on one cache plane:
/// the stored identity under this fingerprint belongs to a different
/// configuration, so the record must be treated as a miss.
pub(crate) fn warn_identity_mismatch(
    category: &'static str,
    path: &Path,
    expected: &str,
    found: &str,
) {
    crate::obs::counter_add(&format!("{category}.identity_mismatches"), 1);
    crate::obs::warn(
        category,
        &format!(
            "fingerprint collision at {}: stored identity '{found}' != expected \
             '{expected}'; treating as a miss",
            path.display()
        ),
    );
}

/// Writes `bytes` to `path` crash-consistently: the data goes to a sibling
/// tmp file, is fsynced, and is renamed over the target, so a crash or
/// SIGKILL at any instant leaves either the old complete file or the new
/// one — never a torn mix.
///
/// Every call gets its own tmp file (process id plus a process-wide
/// sequence number), so concurrent writers of one path — two threads
/// finishing the same run — each rename a complete file and the last
/// rename wins; a shared tmp name would let one writer truncate or rename
/// away the other's file mid-write.
pub(crate) fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Appends the CRC32 trailer to one serialized row: `<core>\tcrc=<hex8>`.
pub(crate) fn crc_line(core: &str) -> String {
    format!("{core}\tcrc={:08x}", crate::wire::crc32(core.as_bytes()))
}

/// Splits a CRC-trailed row into its core and whether the CRC verifies.
/// `None` means the line is structurally torn (no trailer at all — an
/// interrupted write); `Some((core, false))` means the row is complete but
/// damaged (bit rot, an injected flip).
pub(crate) fn split_crc_line(line: &str) -> Option<(&str, bool)> {
    let (core, crc) = line.rsplit_once("\tcrc=")?;
    if crc.len() != 8 {
        return None;
    }
    let recorded = u32::from_str_radix(crc, 16).ok()?;
    Some((core, recorded == crate::wire::crc32(core.as_bytes())))
}

/// [`CacheKey`] of everything a supervised suite's *results* depend on: the
/// machine configuration, the technique (with its config), every workload
/// profile, and the result-perturbing (sensor) part of the fault plan.
/// Worker/numeric faults and supervisor settings are excluded on purpose —
/// they change *whether* a run completes, never *what* it computes.
pub fn suite_key(
    profiles: &[WorkloadProfile],
    technique: &Technique,
    sim: &SimConfig,
    plan: &FaultPlan,
) -> CacheKey {
    let mut identity = format!("ckpt-v{CHECKPOINT_SCHEMA}|{sim:?}|{technique:?}|");
    for p in profiles {
        identity.push_str(&format!("{}:{:?};", p.name, plan.result_faults(p.name)));
    }
    identity.push_str(&format!("|{profiles:?}"));
    CacheKey::from_identity(identity)
}

/// The fingerprint half of [`suite_key`].
pub fn suite_fingerprint(
    profiles: &[WorkloadProfile],
    technique: &Technique,
    sim: &SimConfig,
    plan: &FaultPlan,
) -> u64 {
    suite_key(profiles, technique, sim, plan).fingerprint
}

/// Directory for suite checkpoints: the supervisor's override when set,
/// otherwise `checkpoints/` under [`baseline_cache_dir`].
pub fn checkpoint_dir(sup: &SupervisorConfig) -> PathBuf {
    sup.checkpoint_dir
        .clone()
        .unwrap_or_else(|| baseline_cache_dir().join("checkpoints"))
}

/// Path of the checkpoint for fingerprint `fp` under [`checkpoint_dir`].
pub fn checkpoint_path(sup: &SupervisorConfig, fp: u64) -> PathBuf {
    checkpoint_dir(sup).join(format!("ckpt-{fp:016x}.tsv"))
}

/// Default age past which an untouched checkpoint counts as abandoned.
const CHECKPOINT_MAX_AGE: Duration = Duration::from_secs(7 * 24 * 3600);

/// Removes abandoned checkpoints — `ckpt-*.tsv` files in `dir` not
/// modified for `RESTUNE_CKPT_MAX_AGE_SECS` seconds (default 7 days) —
/// and returns how many were pruned (also surfaced as the
/// `cache.checkpoints_pruned` counter).
///
/// Called automatically after every fully successful resumable suite;
/// checkpoints of suites that crashed and were never resumed would
/// otherwise accumulate in the cache directory forever.
pub fn prune_stale_checkpoints(dir: &Path) -> u64 {
    let max_age = crate::envcfg::positive_f64(
        "RESTUNE_CKPT_MAX_AGE_SECS",
        "cache",
        "the 7-day default checkpoint age bound",
    )
    .map(Duration::from_secs_f64)
    .unwrap_or(CHECKPOINT_MAX_AGE);
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut pruned = 0u64;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if !(name.starts_with("ckpt-") && name.ends_with(".tsv")) {
            continue;
        }
        let abandoned = entry
            .metadata()
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| t.elapsed().ok())
            .is_some_and(|age| age > max_age);
        if abandoned && std::fs::remove_file(entry.path()).is_ok() {
            pruned += 1;
        }
    }
    if pruned > 0 {
        crate::obs::counter_add("cache.checkpoints_pruned", pruned);
    }
    pruned
}

/// Appends one completed application to the checkpoint, creating the file
/// (with its header and identity row) on first use.
///
/// The append is a read-modify-write through [`atomic_write`]: checkpoints
/// hold at most one small row per application, so rewriting the whole file
/// is cheap, and a crash mid-append can never tear an already-recorded row.
/// Each row carries its own CRC32 so later damage is detected per-row.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn append_checkpoint(
    path: &Path,
    key: &CacheKey,
    idx: usize,
    result: &SimResult,
) -> io::Result<()> {
    let header = format!(
        "restune-checkpoint v{CHECKPOINT_SCHEMA} fp={:016x}",
        key.fingerprint
    );
    let id_row = crc_line(&format!("id={}", key.identity));
    let mut body = match std::fs::read_to_string(path) {
        Ok(text)
            if text.lines().next() == Some(header.as_str())
                && text.lines().nth(1) == Some(id_row.as_str()) =>
        {
            text
        }
        // Missing, stale, colliding, or unreadable: start the file over.
        _ => format!("{header}\n{id_row}\n"),
    };
    if !body.ends_with('\n') {
        body.push('\n'); // a torn tail must not concatenate with the new row
    }
    body.push_str(&crc_line(&format!("{idx}\t{}", result_row(result))));
    body.push('\n');
    atomic_write(path, body.as_bytes())
}

/// Loads the completed rows of a checkpoint written by
/// [`append_checkpoint`], keyed by suite index.
///
/// A missing file is an empty resume. A stale fingerprint or header is
/// discarded with a warning; a matching fingerprint whose stored identity
/// differs (a fingerprint collision) is reported and treated as an empty
/// resume without touching the file. Damage is recovered at row
/// granularity:
///
/// * a row whose CRC32 does not verify is *skipped* — only that
///   application re-runs, everything else replays;
/// * a structurally torn line (no CRC trailer, or a row that no longer
///   parses) stops the scan — the intact prefix is kept, the tail after
///   the tear is re-run. Expected when the previous process died
///   mid-write.
pub fn load_checkpoint(
    path: &Path,
    key: &CacheKey,
    profiles: &[WorkloadProfile],
) -> Vec<(usize, SimResult)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut lines = text.lines();
    let expected = format!(
        "restune-checkpoint v{CHECKPOINT_SCHEMA} fp={:016x}",
        key.fingerprint
    );
    if lines.next() != Some(expected.as_str()) {
        discard_stale(path, "stale or corrupt checkpoint");
        return Vec::new();
    }
    // The identity row pins the fingerprint to one configuration. A torn
    // or damaged identity row means the file cannot be trusted at all.
    match lines.next().and_then(split_crc_line) {
        Some((core, true)) => match core.strip_prefix("id=") {
            Some(identity) if identity == key.identity => {}
            Some(identity) => {
                warn_identity_mismatch("cache", path, &key.identity, identity);
                return Vec::new();
            }
            None => {
                discard_stale(path, "checkpoint missing its identity row");
                return Vec::new();
            }
        },
        _ => {
            discard_stale(path, "checkpoint with a torn or damaged identity row");
            return Vec::new();
        }
    }
    let mut rows: HashMap<usize, SimResult> = HashMap::new();
    for line in lines {
        let Some((core, intact)) = split_crc_line(line) else {
            break; // torn tail: keep the prefix
        };
        if !intact {
            continue; // damaged row: re-run just this application
        }
        let Some((idx, result)) = parse_checkpoint_row(core, profiles) else {
            break; // verified CRC but unparseable: schema drift, stop
        };
        rows.insert(idx, result);
    }
    let mut out: Vec<_> = rows.into_iter().collect();
    out.sort_by_key(|(idx, _)| *idx);
    out
}

fn parse_checkpoint_row(line: &str, profiles: &[WorkloadProfile]) -> Option<(usize, SimResult)> {
    let (idx, row) = line.split_once('\t')?;
    let idx = idx.parse::<usize>().ok()?;
    let result = parse_row(row)?;
    if profiles.get(idx)?.name != result.app {
        return None;
    }
    Some((idx, result))
}

/// Damages a cache file in place according to the storage fault.
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

/// The supervised counterpart of [`cached_base_suite`]: the base-machine
/// suite with storage-fault injection, damaged-baseline recovery, and
/// graceful degradation.
///
/// With an inert policy this is *exactly* the unsupervised cached path
/// (same memo, same counters, bit-identical results). With faults enabled
/// it bypasses the in-process memo — a partial or perturbed base suite must
/// never poison the clean cache — applies any planned storage fault to the
/// recorded baseline, recovers by re-simulating, and re-records on success.
pub fn cached_base_suite_supervised(
    sim: &SimConfig,
    sup: &SupervisorConfig,
    plan: &FaultPlan,
) -> SupervisedSuite {
    cached_suite_supervised_for(sim, &spec2k::all(), sup, plan)
}

/// [`cached_base_suite_supervised`] for the RISC-V corpus suite: same
/// storage-fault, recovery, and recording behavior against the corpus
/// baseline file.
pub fn cached_corpus_base_suite_supervised(
    sim: &SimConfig,
    sup: &SupervisorConfig,
    plan: &FaultPlan,
) -> SupervisedSuite {
    cached_suite_supervised_for(sim, &corpus::all(), sup, plan)
}

fn cached_suite_supervised_for(
    sim: &SimConfig,
    profiles: &[WorkloadProfile],
    sup: &SupervisorConfig,
    plan: &FaultPlan,
) -> SupervisedSuite {
    let policy_is_inert = !plan.is_enabled() && sup.timeout.is_none() && !sup.resume;
    if policy_is_inert {
        return SupervisedSuite::from_suite_run(&cached_suite_for(sim, profiles), "base");
    }

    let key = baseline_key_for(sim, profiles);
    let path = suite_baseline_path(key.fingerprint);
    let mut incidents = Vec::new();
    if let Some(fault) = plan.storage_fault() {
        if path.exists() && corrupt_file(&path, fault).is_ok() {
            incidents.push(StorageIncident {
                path: path.display().to_string(),
                detail: format!("injected {}", fault.class()),
                recovered: false,
            });
        }
    }

    if let Ok(Some(results)) = load_baseline(&path, &key) {
        let stats = base_cache_stats();
        let metrics = results
            .iter()
            .map(|r| Some(RunMetrics::replayed("base", r, stats)))
            .collect();
        let mut report = FailureReport::new("base");
        report.storage = incidents;
        return SupervisedSuite {
            outcomes: results.into_iter().map(Ok).collect(),
            metrics,
            report,
            wall_seconds: 0.0,
        };
    }

    let mut suite = run_suite_supervised(profiles, &Technique::Base, sim, sup, plan);
    suite.report.scope = String::from("base");
    if let Some(results) = suite.all_results() {
        if !plan.has_result_faults() {
            let _ = save_baseline(&path, &key, &results);
        }
        for incident in &mut incidents {
            incident.recovered = true;
            incident.detail.push_str(" — re-simulated");
        }
    }
    suite.report.storage.splice(0..0, incidents);
    suite
}

/// Hit/miss counters of the process-wide base-suite cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests served from memory or a recorded-baseline file.
    pub hits: u64,
    /// Requests that had to simulate the suite.
    pub misses: u64,
}

static BASE_HITS: AtomicU64 = AtomicU64::new(0);
static BASE_MISSES: AtomicU64 = AtomicU64::new(0);

struct CacheState {
    memo: HashMap<u64, Arc<SuiteRun>>,
    /// Base-suite simulations actually executed, per fingerprint.
    simulations: HashMap<u64, u64>,
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

/// Process-wide counters of [`cached_base_suite`] activity.
pub fn base_cache_stats() -> CacheStats {
    CacheStats {
        hits: BASE_HITS.load(Ordering::Relaxed),
        misses: BASE_MISSES.load(Ordering::Relaxed),
    }
}

/// How many times this process actually *simulated* the base suite for
/// `sim` (as opposed to serving it from the memo or a baseline file).
pub fn base_suite_simulations(sim: &SimConfig) -> u64 {
    simulations_for(base_fingerprint(sim))
}

/// [`base_suite_simulations`] for the RISC-V corpus suite.
pub fn corpus_base_suite_simulations(sim: &SimConfig) -> u64 {
    simulations_for(corpus_base_fingerprint(sim))
}

fn simulations_for(fp: u64) -> u64 {
    let state = cache().lock().unwrap_or_else(PoisonError::into_inner);
    state.simulations.get(&fp).copied().unwrap_or(0)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Baseline-file schema version; bump when the row format changes.
/// v2 added the per-row CRC32 and the tmp+fsync+rename write path; v3 the
/// persisted identity row (the fingerprint-collision guard).
const BASELINE_SCHEMA: u32 = 3;

/// [`CacheKey`] of everything a base-suite run depends on: the machine
/// configuration and every workload profile. The `Debug` representations
/// include all fields recursively (floats in shortest-roundtrip form), so
/// any parameter change — in the machine or in a profile — yields a new
/// fingerprint and invalidates recorded baselines.
pub fn base_key(sim: &SimConfig) -> CacheKey {
    baseline_key_for(sim, &spec2k::all())
}

/// [`base_key`] for the RISC-V corpus suite. Corpus profiles carry a
/// content hash of their assembly source as `seed`, so editing a program
/// re-fingerprints the corpus baseline exactly like a profile edit does for
/// the synthetic suite.
pub fn corpus_base_key(sim: &SimConfig) -> CacheKey {
    baseline_key_for(sim, &corpus::all())
}

/// The fingerprint half of [`base_key`].
pub fn base_fingerprint(sim: &SimConfig) -> u64 {
    base_key(sim).fingerprint
}

/// The fingerprint half of [`corpus_base_key`].
pub fn corpus_base_fingerprint(sim: &SimConfig) -> u64 {
    corpus_base_key(sim).fingerprint
}

fn baseline_key_for(sim: &SimConfig, profiles: &[WorkloadProfile]) -> CacheKey {
    CacheKey::from_identity(format!("v{BASELINE_SCHEMA}|{sim:?}|{profiles:?}"))
}

/// Directory for recorded baselines: `$RESTUNE_CACHE_DIR` when set,
/// otherwise `restune-cache/` inside the build's `target/` directory
/// (located from the running executable's path).
pub fn baseline_cache_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("RESTUNE_CACHE_DIR") {
        return PathBuf::from(dir);
    }
    if let Ok(exe) = std::env::current_exe() {
        for dir in exe.ancestors() {
            if dir.file_name().is_some_and(|n| n == "target") {
                return dir.join("restune-cache");
            }
        }
    }
    PathBuf::from("target").join("restune-cache")
}

/// Path of the recorded baseline for `sim` under [`baseline_cache_dir`].
pub fn baseline_path(sim: &SimConfig) -> PathBuf {
    suite_baseline_path(base_fingerprint(sim))
}

/// [`baseline_path`] for the RISC-V corpus suite.
pub fn corpus_baseline_path(sim: &SimConfig) -> PathBuf {
    suite_baseline_path(corpus_base_fingerprint(sim))
}

fn suite_baseline_path(fingerprint: u64) -> PathBuf {
    baseline_cache_dir().join(format!("base-{fingerprint:016x}.tsv"))
}

/// Serializes result rows to `path`, keyed by `key` (fingerprint in the
/// header, full identity string in the row after it).
///
/// Floats are stored as `f64::to_bits` hex, so a load reproduces every row
/// bit-for-bit. The write is crash-consistent ([`atomic_write`]) and every
/// row carries a CRC32, so a reader can tell damage from staleness.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_baseline(path: &Path, key: &CacheKey, results: &[SimResult]) -> io::Result<()> {
    let mut body = String::new();
    body.push_str(&format!(
        "restune-baseline v{BASELINE_SCHEMA} fp={:016x} apps={}\n",
        key.fingerprint,
        results.len()
    ));
    body.push_str(&crc_line(&format!("id={}", key.identity)));
    body.push('\n');
    for r in results {
        body.push_str(&crc_line(&result_row(r)));
        body.push('\n');
    }
    atomic_write(path, body.as_bytes())
}

/// The bit-exact TSV serialization of one result row, shared by baseline
/// files, checkpoints, and the sweep run store.
pub(crate) fn result_row(r: &SimResult) -> String {
    format!(
        "{}\t{}\t{}\t{:016x}\t{}\t{:016x}\t{:016x}\t{:016x}\t{}\t{}\t{}\t{}",
        r.app,
        r.cycles,
        r.committed,
        r.ipc.to_bits(),
        r.violation_cycles,
        r.worst_noise.volts().to_bits(),
        r.energy_joules.to_bits(),
        r.energy_delay.to_bits(),
        r.first_level_cycles,
        r.second_level_cycles,
        r.sensor_response_cycles,
        r.damping_bound_cycles,
    )
}

pub(crate) fn parse_row(line: &str) -> Option<SimResult> {
    let mut f = line.split('\t');
    let name = f.next()?;
    // Resolve through the registry so `app` stays a `&'static str`; an
    // unknown name means the file predates a suite change and must be
    // discarded.
    let app = registry::by_name(name)?.name;
    let uint = |s: Option<&str>| s?.parse::<u64>().ok();
    let float = |s: Option<&str>| Some(f64::from_bits(u64::from_str_radix(s?, 16).ok()?));
    let result = SimResult {
        app,
        cycles: uint(f.next())?,
        committed: uint(f.next())?,
        ipc: float(f.next())?,
        violation_cycles: uint(f.next())?,
        worst_noise: rlc::units::Volts::new(float(f.next())?),
        energy_joules: float(f.next())?,
        energy_delay: float(f.next())?,
        first_level_cycles: uint(f.next())?,
        second_level_cycles: uint(f.next())?,
        sensor_response_cycles: uint(f.next())?,
        damping_bound_cycles: uint(f.next())?,
    };
    if f.next().is_some() {
        return None;
    }
    Some(result)
}

/// Deletes a stale or damaged cache file and says so on stderr, once, so
/// the next run doesn't trip over it again.
pub(crate) fn discard_stale(path: &Path, why: &str) {
    let _ = std::fs::remove_file(path);
    crate::obs::warn("cache", &format!("discarded {} ({why})", path.display()));
}

/// What [`parse_baseline`] made of a recorded-baseline file.
enum BaselineParse {
    /// Fingerprint and identity verified; rows replay bit-exactly.
    Rows(Vec<SimResult>),
    /// Different schema/fingerprint, damage, or a torn identity row — the
    /// file is useless and should be discarded.
    Stale,
    /// The fingerprint matched but the stored identity belongs to a
    /// different configuration: a 64-bit collision. The file is *valid*
    /// for its own configuration, so it is left in place.
    Collision(String),
}

/// Loads result rows recorded by [`save_baseline`].
///
/// Returns `Ok(None)` when the file does not exist, carries a different
/// fingerprint or schema version, or fails to parse — all of which mean
/// "no usable baseline", not an error. A stale or corrupt file is deleted
/// (with a one-line stderr warning) so it is re-recorded on the next run
/// instead of being rediscovered broken every time. A file whose
/// fingerprint matches but whose stored identity differs — a fingerprint
/// collision — is reported via `obs::warn` and treated as a miss without
/// deleting the other configuration's valid record.
///
/// # Errors
///
/// Propagates filesystem errors other than the file being absent.
pub fn load_baseline(path: &Path, key: &CacheKey) -> io::Result<Option<Vec<SimResult>>> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    match parse_baseline(&text, key) {
        BaselineParse::Rows(rows) => Ok(Some(rows)),
        BaselineParse::Stale => {
            discard_stale(path, "stale or corrupt recorded baseline");
            Ok(None)
        }
        BaselineParse::Collision(found) => {
            warn_identity_mismatch("cache", path, &key.identity, &found);
            Ok(None)
        }
    }
}

fn parse_baseline(text: &str, key: &CacheKey) -> BaselineParse {
    let mut lines = text.lines();
    let expected = format!(
        "restune-baseline v{BASELINE_SCHEMA} fp={:016x} apps=",
        key.fingerprint
    );
    let Some(apps) = lines
        .next()
        .filter(|h| h.starts_with(&expected))
        .and_then(|h| h[expected.len()..].parse::<usize>().ok())
    else {
        return BaselineParse::Stale;
    };
    match lines.next().and_then(split_crc_line) {
        Some((core, true)) => match core.strip_prefix("id=") {
            Some(identity) if identity == key.identity => {}
            Some(identity) => return BaselineParse::Collision(identity.to_string()),
            None => return BaselineParse::Stale,
        },
        _ => return BaselineParse::Stale,
    }
    // Baselines are all-or-nothing (a partial base suite is useless), so
    // any torn or CRC-damaged row discards the whole file.
    let rows: Option<Vec<SimResult>> = lines
        .map(|line| {
            let (core, intact) = split_crc_line(line)?;
            intact.then(|| parse_row(core))?
        })
        .collect();
    match rows.filter(|r| r.len() == apps) {
        Some(rows) => BaselineParse::Rows(rows),
        None => BaselineParse::Stale,
    }
}

/// The base-machine suite for `sim`, simulated at most once per process.
///
/// Lookup order: the in-process memo, then a recorded baseline file under
/// [`baseline_cache_dir`], then a real [`try_run_suite`] whose rows are
/// recorded for future processes. Concurrent callers with the same config
/// serialize on the cache, so the suite still runs exactly once.
///
/// # Panics
///
/// Panics with the failing application's name if the base simulation
/// panics.
pub fn cached_base_suite(sim: &SimConfig) -> Arc<SuiteRun> {
    cached_suite_for(sim, &spec2k::all())
}

/// [`cached_base_suite`] for the RISC-V corpus suite: the same memo,
/// counters, and recorded-baseline machinery, keyed by the corpus
/// fingerprint.
pub fn cached_corpus_base_suite(sim: &SimConfig) -> Arc<SuiteRun> {
    cached_suite_for(sim, &corpus::all())
}

fn cached_suite_for(sim: &SimConfig, profiles: &[WorkloadProfile]) -> Arc<SuiteRun> {
    let key = baseline_key_for(sim, profiles);
    let fp = key.fingerprint;
    let mut state = cache().lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(run) = state.memo.get(&fp) {
        BASE_HITS.fetch_add(1, Ordering::Relaxed);
        return Arc::clone(run);
    }

    let path = suite_baseline_path(fp);
    if let Ok(Some(results)) = load_baseline(&path, &key) {
        BASE_HITS.fetch_add(1, Ordering::Relaxed);
        let stats = base_cache_stats();
        let metrics = results
            .iter()
            .map(|r| RunMetrics::replayed("base", r, stats))
            .collect();
        let run = Arc::new(SuiteRun {
            results,
            metrics,
            wall_seconds: 0.0,
        });
        state.memo.insert(fp, Arc::clone(&run));
        return run;
    }

    BASE_MISSES.fetch_add(1, Ordering::Relaxed);
    let run = try_run_suite(profiles, &Technique::Base, sim).unwrap_or_else(|e| panic!("{e}"));
    *state.simulations.entry(fp).or_insert(0) += 1;
    // Recording is best-effort: a read-only target directory only costs
    // later processes the cold run.
    let _ = save_baseline(&path, &key, &run.results);
    let run = Arc::new(run);
    state.memo.insert(fp, Arc::clone(&run));
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TuningConfig;
    use crate::sim::run;

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

    #[test]
    fn fingerprint_tracks_config_changes() {
        let a = base_fingerprint(&SimConfig::isca04(10_000));
        let b = base_fingerprint(&SimConfig::isca04(10_001));
        let a2 = base_fingerprint(&SimConfig::isca04(10_000));
        assert_ne!(a, b);
        assert_eq!(a, a2);
    }

    #[test]
    fn baseline_file_round_trips_bit_exactly() {
        let profiles: Vec<_> = spec2k::all().into_iter().take(2).collect();
        let sim = quick_sim();
        let results: Vec<_> = profiles
            .iter()
            .map(|p| run(p, &Technique::Base, &sim))
            .collect();
        let key = base_key(&sim);
        let path = std::env::temp_dir().join("restune-baseline-roundtrip.tsv");
        save_baseline(&path, &key, &results).unwrap();
        let loaded = load_baseline(&path, &key)
            .unwrap()
            .expect("fingerprint matches");
        assert_eq!(
            loaded, results,
            "recorded baseline must replay bit-identically"
        );
        // A different fingerprint must refuse the file — and discard it so
        // the stale artifact is not rediscovered broken forever.
        let other = CacheKey {
            fingerprint: key.fingerprint ^ 1,
            identity: key.identity.clone(),
        };
        assert_eq!(load_baseline(&path, &other).unwrap(), None);
        assert!(!path.exists(), "stale baseline must be deleted");
    }

    #[test]
    fn colliding_baseline_is_a_miss_but_survives() {
        // Two keys that share the 64-bit fingerprint but describe different
        // configurations: the canonical birthday-collision hazard the
        // identity row exists to catch.
        let profiles: Vec<_> = spec2k::all().into_iter().take(1).collect();
        let sim = quick_sim();
        let results: Vec<_> = profiles
            .iter()
            .map(|p| run(p, &Technique::Base, &sim))
            .collect();
        let key = base_key(&sim);
        let impostor = CacheKey {
            fingerprint: key.fingerprint,
            identity: format!("{}|impostor", key.identity),
        };
        let path = std::env::temp_dir().join("restune-baseline-collision.tsv");
        save_baseline(&path, &key, &results).unwrap();
        assert_eq!(
            load_baseline(&path, &impostor).unwrap(),
            None,
            "a colliding fingerprint with a different identity is a miss"
        );
        assert!(
            path.exists(),
            "the other configuration's valid record must not be deleted"
        );
        // The rightful owner still loads bit-exactly afterwards.
        let loaded = load_baseline(&path, &key).unwrap().expect("still valid");
        assert_eq!(loaded, results);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_baseline_is_not_an_error() {
        let path = std::env::temp_dir().join("restune-baseline-does-not-exist.tsv");
        let key = CacheKey::from_identity(String::from("missing"));
        assert_eq!(load_baseline(&path, &key).unwrap(), None);
    }

    #[test]
    fn corrupt_baseline_is_rejected() {
        let path = std::env::temp_dir().join("restune-baseline-corrupt.tsv");
        let key = CacheKey::from_identity(String::from("corrupt-baseline-test"));
        std::fs::write(
            &path,
            format!(
                "restune-baseline v{BASELINE_SCHEMA} fp={:016x} apps=1\n{}\nnot-an-app\t1\n",
                key.fingerprint,
                crc_line(&format!("id={}", key.identity)),
            ),
        )
        .unwrap();
        assert_eq!(load_baseline(&path, &key).unwrap(), None);
        assert!(!path.exists(), "corrupt baseline must be deleted");
    }

    #[test]
    fn base_suite_is_simulated_once_per_process() {
        // A config unique to this test so parallel tests don't share the
        // memo entry; delete any recorded baseline so the first call really
        // simulates.
        let sim = SimConfig::isca04(15_551);
        let _ = std::fs::remove_file(baseline_path(&sim));
        assert_eq!(base_suite_simulations(&sim), 0);

        let first = cached_base_suite(&sim);
        assert_eq!(base_suite_simulations(&sim), 1);
        let second = cached_base_suite(&sim);
        assert_eq!(
            base_suite_simulations(&sim),
            1,
            "second request must hit the memo"
        );
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(first.results.len(), spec2k::all().len());

        // A fresh process would find the recorded baseline; simulate that by
        // loading the file directly.
        let loaded = load_baseline(&baseline_path(&sim), &base_key(&sim)).unwrap();
        assert_eq!(loaded.as_deref(), Some(first.results.as_slice()));
        let _ = std::fs::remove_file(baseline_path(&sim));
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
        let results: Vec<_> = profiles
            .iter()
            .map(|p| run(p, &Technique::Base, &sim))
            .collect();
        let key = suite_key(&profiles, &Technique::Base, &sim, &FaultPlan::none());
        let path = std::env::temp_dir().join("restune-ckpt-roundtrip.tsv");
        let _ = std::fs::remove_file(&path);

        append_checkpoint(&path, &key, 0, &results[0]).unwrap();
        append_checkpoint(&path, &key, 2, &results[2]).unwrap();
        let loaded = load_checkpoint(&path, &key, &profiles);
        assert_eq!(loaded, vec![(0, results[0]), (2, results[2])]);

        // A kill mid-append leaves a truncated last row: everything before
        // it must survive.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("1\tgzip\t12"); // unfinished row
        std::fs::write(&path, text).unwrap();
        let partial = load_checkpoint(&path, &key, &profiles);
        assert_eq!(partial, vec![(0, results[0]), (2, results[2])]);

        // A colliding fingerprint with a different identity is a miss that
        // leaves the other configuration's rows untouched.
        let impostor = CacheKey {
            fingerprint: key.fingerprint,
            identity: format!("{}|impostor", key.identity),
        };
        assert!(load_checkpoint(&path, &impostor, &profiles).is_empty());
        assert!(path.exists(), "colliding checkpoint must not be deleted");
        assert_eq!(load_checkpoint(&path, &key, &profiles).len(), 2);

        // A stale fingerprint discards the file entirely.
        let stale = CacheKey {
            fingerprint: key.fingerprint ^ 1,
            identity: key.identity.clone(),
        };
        assert!(load_checkpoint(&path, &stale, &profiles).is_empty());
        assert!(!path.exists(), "stale checkpoint must be deleted");
    }

    #[test]
    fn suite_fingerprint_tracks_result_perturbing_faults_only() {
        let profiles: Vec<_> = spec2k::all().into_iter().take(2).collect();
        let sim = quick_sim();
        let clean = FaultPlan::none();
        let sensor = FaultPlan::none().with_persistent_fault(
            profiles[0].name,
            crate::fault::FaultSpec::SensorDelay { cycles: 3 },
        );
        let worker = FaultPlan::none()
            .with_persistent_fault(profiles[0].name, crate::fault::FaultSpec::WorkerPanic);
        let fp = |plan: &FaultPlan| suite_fingerprint(&profiles, &Technique::Base, &sim, plan);
        assert_ne!(
            fp(&clean),
            fp(&sensor),
            "sensor faults change results, so they must change the fingerprint"
        );
        assert_eq!(
            fp(&clean),
            fp(&worker),
            "worker faults never change results, so checkpoints stay shareable"
        );
    }

    #[test]
    fn resumed_suite_replays_checkpointed_rows_bit_exactly() {
        let profiles: Vec<_> = spec2k::all().into_iter().take(3).collect();
        let sim = quick_sim();
        let dir = std::env::temp_dir().join("restune-ckpt-resume-test");
        let _ = std::fs::remove_dir_all(&dir);
        let sup = SupervisorConfig {
            resume: true,
            checkpoint_dir: Some(dir.clone()),
            ..SupervisorConfig::default()
        };
        let plan = FaultPlan::none();

        // Simulate an interrupted run: only app 1 completed and was
        // checkpointed before the kill.
        let partial = run(&profiles[1], &Technique::Base, &sim);
        let key = suite_key(&profiles, &Technique::Base, &sim, &plan);
        let fp = key.fingerprint;
        append_checkpoint(&checkpoint_path(&sup, fp), &key, 1, &partial).unwrap();

        let resumed = run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &plan);
        assert!(
            resumed.metrics[1].as_ref().unwrap().replayed,
            "the checkpointed app must be replayed, not re-simulated"
        );
        assert!(!resumed.metrics[0].as_ref().unwrap().replayed);

        // The resumed suite equals an uninterrupted one bit-for-bit.
        let uninterrupted = try_run_suite(&profiles, &Technique::Base, &sim).unwrap();
        assert_eq!(resumed.all_results().unwrap(), uninterrupted.results);

        // Full success retires the checkpoint.
        assert!(
            !checkpoint_path(&sup, fp).exists(),
            "completed suite must delete its checkpoint"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
