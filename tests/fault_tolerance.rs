//! Fault-tolerance integration: the supervised engine must classify every
//! fault class, retry transient ones, degrade instead of aborting, resume an
//! interrupted suite bit-exactly, and — with the policy disabled — stay
//! bit-identical to the unsupervised path.

use std::path::PathBuf;
use std::sync::{PoisonError, RwLock, RwLockReadGuard};
use std::time::Duration;

use restune::engine::{corpus_base_suite, run_suite_supervised, try_run_suite, SupervisedSuite};
use restune::{
    FailureKind, FaultPlan, FaultSpec, RunPolicy, RunStore, SimConfig, StorageFault,
    SupervisorConfig, Technique,
};
use workloads::{corpus, spec2k};

const APPS: [&str; 3] = ["mcf", "parser", "fma3d"];

/// Suites choose their execution tier, and process workers their shim
/// mode, from environment variables every test in this binary shares.
/// Tests hold this lock shared; the one that arms hanging workers holds it
/// exclusively, so no other test's suite can spawn such a worker.
static WORKER_ENV: RwLock<()> = RwLock::new(());

fn shared_worker_env() -> RwLockReadGuard<'static, ()> {
    WORKER_ENV.read().unwrap_or_else(PoisonError::into_inner)
}

fn profiles() -> Vec<workloads::WorkloadProfile> {
    APPS.iter()
        .map(|n| spec2k::by_name(n).expect("app is in the suite"))
        .collect()
}

fn fast_retries() -> SupervisorConfig {
    SupervisorConfig {
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
        ..SupervisorConfig::default()
    }
}

/// A scratch directory, emptied, and [`fast_retries`] with a run store in
/// it.
fn stored_retries(label: &str) -> (PathBuf, SupervisorConfig) {
    let dir = std::env::temp_dir().join(format!("restune-ft-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sup = SupervisorConfig {
        store: Some(RunStore::open(dir.clone())),
        ..fast_retries()
    };
    (dir, sup)
}

fn replayed(suite: &SupervisedSuite) -> Vec<bool> {
    suite
        .metrics
        .iter()
        .map(|m| m.expect("all apps have metrics").replayed)
        .collect()
}

fn records(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir).map_or(0, |entries| entries.count())
}

#[test]
fn disabled_plan_is_bit_identical_to_the_unsupervised_engine() {
    let _env = shared_worker_env();
    let profiles = profiles();
    let sim = SimConfig::isca04(30_000);

    let unsupervised = try_run_suite(&profiles, &Technique::Base, &sim).expect("suite runs");
    let supervised = run_suite_supervised(
        &profiles,
        &Technique::Base,
        &sim,
        &SupervisorConfig::default(),
        &FaultPlan::none(),
    );

    assert!(supervised.report.is_empty(), "no events without a plan");
    assert_eq!(
        supervised.all_results().expect("every app completes"),
        unsupervised.results,
        "FaultPlan::none() must be bit-exact-neutral"
    );
}

#[test]
fn every_fault_class_is_classified_and_transients_recover() {
    let _env = shared_worker_env();
    let profiles = profiles();
    let sim = SimConfig::isca04(20_000);

    // One fault per class: a transient panic (recovers on retry), a
    // persistent numerical fault (retries cannot help), and a transient
    // stall long enough to trip the watchdog once.
    let plan = FaultPlan::none()
        .with_transient_fault(APPS[0], FaultSpec::WorkerPanic)
        .with_persistent_fault(APPS[1], FaultSpec::NumericNan { at_cycle: 1_000 })
        .with_transient_fault(APPS[2], FaultSpec::WorkerStall { millis: 1_500 });
    let sup = SupervisorConfig {
        timeout: Some(Duration::from_secs(1)),
        ..fast_retries()
    };

    let suite = run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &plan);

    // Degradation: exactly the numerically-poisoned app fails; the other
    // two still deliver results.
    assert_eq!(suite.completed(), 2);
    assert!(suite.outcomes[0].is_ok() && suite.outcomes[2].is_ok());
    let failure = suite.outcomes[1].as_ref().expect_err("NaN app fails");
    assert_eq!(failure.kind, FailureKind::Numerical);
    assert_eq!(failure.attempts, sup.max_retries + 1);

    // Classification: each recovery carries the kind of the attempt that
    // failed, not a generic label.
    let kind_for = |app: &str| {
        suite
            .report
            .recoveries
            .iter()
            .find(|r| r.app == app)
            .unwrap_or_else(|| panic!("{app} must recover"))
            .kind
    };
    assert_eq!(kind_for(APPS[0]), FailureKind::Panic);
    assert_eq!(kind_for(APPS[2]), FailureKind::Timeout);

    // Every injection was recorded with its class label.
    let classes: Vec<_> = suite.report.injections.iter().map(|i| i.class).collect();
    for class in ["worker-panic", "numeric-nan", "worker-stall"] {
        assert!(classes.contains(&class), "missing injection class {class}");
    }

    // Recovered apps must match a clean run bit-for-bit: worker faults
    // never perturb results.
    let clean = try_run_suite(&profiles, &Technique::Base, &sim).expect("clean suite");
    assert_eq!(suite.outcomes[0].as_ref().unwrap(), &clean.results[0]);
    assert_eq!(suite.outcomes[2].as_ref().unwrap(), &clean.results[2]);
}

#[test]
fn sensor_faults_are_injected_deterministically() {
    let _env = shared_worker_env();
    let profiles = profiles();
    let sim = SimConfig::isca04(20_000);
    let technique = Technique::Tuning(restune::TuningConfig::isca04_table1(100));
    let plan = FaultPlan::none().with_persistent_fault(
        APPS[0],
        FaultSpec::SensorNoise {
            sigma: 2.0,
            seed: 7,
        },
    );

    let a = run_suite_supervised(&profiles, &technique, &sim, &fast_retries(), &plan);
    let b = run_suite_supervised(&profiles, &technique, &sim, &fast_retries(), &plan);

    assert_eq!(
        a.all_results(),
        b.all_results(),
        "a seeded sensor fault must reproduce bit-exactly"
    );
    assert!(
        a.report
            .injections
            .iter()
            .any(|i| i.class == "sensor-noise"),
        "the sensor fault must be recorded"
    );
    // Un-faulted apps are untouched by a neighbour's sensor fault.
    let clean = try_run_suite(&profiles, &technique, &sim).expect("clean suite");
    assert_eq!(a.outcomes[1].as_ref().unwrap(), &clean.results[1]);
    assert_eq!(a.outcomes[2].as_ref().unwrap(), &clean.results[2]);
}

#[test]
fn interrupted_suite_resumes_bit_exactly() {
    let _env = shared_worker_env();
    let profiles = profiles();
    let sim = SimConfig::isca04(25_000);
    let (dir, store_sup) = stored_retries("resume");
    let sup = SupervisorConfig {
        max_retries: 0,
        ..store_sup
    };

    // The uninterrupted reference run.
    let reference = try_run_suite(&profiles, &Technique::Base, &sim).expect("suite runs");

    // "Interrupt" the suite: a persistent panic takes one app down, so the
    // run ends degraded with the other two stored.
    let crash_plan = FaultPlan::none().with_persistent_fault(APPS[1], FaultSpec::WorkerPanic);
    let interrupted = run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &crash_plan);
    assert_eq!(interrupted.completed(), 2);
    assert_eq!(records(&dir), 2, "each completed app is stored");

    // Resume without the fault. Worker faults change whether a run
    // completes, never what it computes, so the stored runs are the clean
    // ones: the two completed apps replay, the crashed one is simulated,
    // and the total is bit-identical to the uninterrupted reference.
    let resumed = run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &FaultPlan::none());
    assert_eq!(
        resumed.all_results().expect("resume completes the suite"),
        reference.results
    );
    assert_eq!(
        replayed(&resumed),
        vec![true, false, true],
        "stored apps replay; the crashed one re-simulates"
    );

    // A completed suite keeps its runs: a rerun replays all of them.
    let rerun = run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &FaultPlan::none());
    assert_eq!(replayed(&rerun), vec![true; APPS.len()]);
    assert_eq!(
        rerun.all_results().expect("rerun replays"),
        reference.results
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_resumed_suite_never_replays_a_result_its_fault_plan_would_not_compute() {
    let _env = shared_worker_env();
    let profiles: Vec<_> = ["mcf", "parser"]
        .iter()
        .map(|n| spec2k::by_name(n).expect("app is in the suite"))
        .collect();
    let sim = SimConfig::isca04(20_000);
    let technique = Technique::Tuning(restune::TuningConfig::isca04_table1(100));
    let delay = FaultSpec::SensorDelay { cycles: 12 };
    let (dir, sup) = stored_retries("sensor-retry");

    // Plan A: mcf's first attempt carries a sensor delay and a panic, both
    // transient, so its retry computes the clean result; parser never
    // completes, so the suite ends degraded.
    let plan_a = FaultPlan::none()
        .with_transient_fault("mcf", delay)
        .with_transient_fault("mcf", FaultSpec::WorkerPanic)
        .with_persistent_fault("parser", FaultSpec::WorkerPanic);
    let degraded = run_suite_supervised(&profiles, &technique, &sim, &sup, &plan_a);
    assert_eq!(degraded.completed(), 1);

    // Plan B keeps the same sensor delay on every attempt: every mcf
    // result it computes is delayed, so the clean record must not replay.
    let plan_b = FaultPlan::none()
        .with_persistent_fault("mcf", delay)
        .with_transient_fault("mcf", FaultSpec::WorkerPanic);
    let resumed = run_suite_supervised(&profiles, &technique, &sim, &sup, &plan_b);
    let fresh = run_suite_supervised(&profiles, &technique, &sim, &fast_retries(), &plan_b);
    assert_eq!(replayed(&resumed), vec![false, false]);
    assert_eq!(
        resumed.all_results(),
        fresh.all_results(),
        "the resumed suite computes what plan B computes"
    );
    assert_ne!(
        resumed.outcomes[0], degraded.outcomes[0],
        "the sensor delay moves mcf's result"
    );

    // Each run is stored under the faults of the attempt that produced it:
    // plan B now replays its own delayed result, and plan A's clean one
    // is still there for a clean plan.
    let replay_b = run_suite_supervised(&profiles, &technique, &sim, &sup, &plan_b);
    assert_eq!(replayed(&replay_b), vec![true, true]);
    assert_eq!(replay_b.all_results(), fresh.all_results());
    let clean = run_suite_supervised(&profiles, &technique, &sim, &sup, &FaultPlan::none());
    assert_eq!(replayed(&clean), vec![true, true]);
    assert_eq!(clean.outcomes[0], degraded.outcomes[0]);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_recorded_baselines_are_discarded_not_trusted() {
    let _env = shared_worker_env();
    // The corpus base suite keeps this cheap; its records are damaged the
    // way the fault plane's storage faults damage them.
    let sim = SimConfig::isca04(6_000);
    let apps = corpus::all().len();
    let (dir, supervisor) = stored_retries("corrupt");
    let clean = RunPolicy {
        supervisor,
        ..RunPolicy::none()
    };
    let reference = corpus_base_suite(&sim, &clean);
    assert_eq!(records(&dir), apps);

    for fault in [StorageFault::Truncate, StorageFault::BitFlip] {
        let policy = RunPolicy {
            plan: FaultPlan::none().with_storage_fault(fault),
            ..clean.clone()
        };
        let suite = corpus_base_suite(&sim, &policy);
        let storage = &suite.report.storage;
        assert_eq!(storage.len(), apps, "one incident per damaged record");
        assert!(
            storage.iter().all(|s| s.recovered),
            "{fault:?}: every damaged record is re-simulated: {storage:?}"
        );
        assert_eq!(
            replayed(&suite),
            vec![false; apps],
            "{fault:?}: a damaged record is never trusted"
        );
        assert_eq!(suite.all_results(), reference.all_results());
        assert_eq!(records(&dir), apps, "{fault:?}: the records are put back");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_checkpoints_recover_at_row_granularity() {
    let _env = shared_worker_env();
    // A damaged record loses only its own run: the middle application
    // re-simulates, the other two replay.
    let profiles = profiles();
    let sim = SimConfig::isca04(25_000);
    let (dir, sup) = stored_retries("torn");

    let reference =
        run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &FaultPlan::none());
    let key = restune::run_key(&profiles[1], &Technique::Base, &sim);
    assert!(
        RunStore::open(dir.clone()).get(&key).is_some(),
        "every run was stored"
    );

    // Flip the last CRC digit of the middle record's result row, the way
    // bit rot would.
    let path = dir.join(format!("run-{:016x}.tsv", key.fingerprint));
    let mut text = std::fs::read_to_string(&path).expect("record reads back");
    assert_eq!(text.pop(), Some('\n'));
    let digit = text.pop().expect("row is nonempty");
    text.push(if digit == '0' { '1' } else { '0' });
    text.push('\n');
    std::fs::write(&path, text).expect("damage lands");

    let resumed = run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &FaultPlan::none());
    assert_eq!(
        resumed.all_results().expect("resume completes the suite"),
        reference.all_results().expect("reference completes")
    );
    assert_eq!(
        replayed(&resumed),
        vec![true, false, true],
        "intact records replay; the damaged one re-simulates"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Not a real test: the process-isolation tests below re-exec this test
/// binary with `worker_shim --exact` as its arguments, turning the libtest
/// run into a restune worker. `RESTUNE_WORKER_SHIM=1` serves jobs until
/// stdin closes; `once` serves one job and exits without reading further,
/// a worker that dies while idle; `hang` reads its job and never replies,
/// a non-cooperative hang only the parent's hard kill can end. Without the
/// env gate it is a no-op, so a normal `cargo test` sails through it.
#[test]
fn worker_shim() {
    match std::env::var("RESTUNE_WORKER_SHIM").as_deref() {
        Ok("1") => std::process::exit(restune::isolation::serve_worker(std::io::stdin().lock())),
        Ok("once") => {
            // One frame: magic, version, kind, u32 payload length, payload,
            // CRC32. The worker sees EOF right after it.
            let mut stdin = std::io::stdin().lock();
            let mut frame = vec![0u8; 10];
            let mut read = |buf: &mut [u8]| std::io::Read::read_exact(&mut stdin, buf).is_ok();
            if !read(&mut frame) {
                std::process::exit(3);
            }
            let len = u32::from_le_bytes(frame[6..10].try_into().expect("4 bytes")) as usize;
            frame.resize(10 + len + 4, 0);
            if !read(&mut frame[10..]) {
                std::process::exit(3);
            }
            std::process::exit(restune::isolation::serve_worker(frame.as_slice()));
        }
        Ok("hang") => {
            let _ = std::io::Read::read_to_end(&mut std::io::stdin(), &mut Vec::new());
            std::thread::sleep(Duration::from_secs(60));
            std::process::exit(0);
        }
        _ => {}
    }
}

/// Environment under which the engine spawns `worker_shim` child processes
/// of this very test binary as its process-isolation tier, in shim `mode`;
/// `pool` pins `RESTUNE_WORKERS` (`Some("1")`: one pool thread, so one
/// worker child at a time).
fn with_shim_workers<R>(mode: &str, pool: Option<&str>, f: impl FnOnce() -> R) -> R {
    let mut env = vec![
        ("RESTUNE_ISOLATION", Some("process")),
        ("RESTUNE_WORKER_ARGV", Some("worker_shim --exact")),
        ("RESTUNE_WORKER_SHIM", Some(mode)),
    ];
    if pool.is_some() {
        env.push(("RESTUNE_WORKERS", pool));
    }
    restune::testenv::with_env(&env, f)
}

/// Current value of a process-global counter (0 if never bumped).
fn counter(name: &str) -> u64 {
    restune::obs::snapshot_counters()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| v)
}

/// How many worker children `f` spawned and reused. Callers hold
/// [`WORKER_ENV`] exclusively, so no other test's suite moves the counters.
fn spawned_and_reused<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (spawned, reused) = (
        counter("isolation.workers_spawned"),
        counter("isolation.workers_reused"),
    );
    let out = f();
    (
        out,
        counter("isolation.workers_spawned") - spawned,
        counter("isolation.workers_reused") - reused,
    )
}

/// This process's live or unreaped `worker_shim` children, from `/proc`.
#[cfg(target_os = "linux")]
fn shim_children() -> Vec<u32> {
    let me = std::process::id().to_string();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
            // `pid (comm) state ppid ...`; comm may hold spaces.
            let ppid = stat
                .rsplit(')')
                .next()
                .and_then(|rest| rest.split_whitespace().nth(1));
            let cmdline = std::fs::read(format!("/proc/{pid}/cmdline")).unwrap_or_default();
            ppid == Some(me.as_str()) && String::from_utf8_lossy(&cmdline).contains("worker_shim")
        })
        .collect()
}

#[test]
fn process_isolated_suite_is_bit_exact() {
    let _env = shared_worker_env();
    let profiles = profiles();
    let sim = SimConfig::isca04(20_000);
    let reference = try_run_suite(&profiles, &Technique::Base, &sim).expect("suite runs");

    let sup = SupervisorConfig {
        timeout: Some(Duration::from_secs(120)),
        ..fast_retries()
    };
    let isolated = with_shim_workers("1", None, || {
        run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &FaultPlan::none())
    });

    assert!(isolated.report.is_clean(), "no failures expected");
    assert_eq!(
        isolated.all_results().expect("every worker replies"),
        reference.results,
        "results crossing the wire must be bit-identical to in-process runs"
    );
}

#[test]
fn hard_crashes_are_contained_by_process_isolation() {
    let _env = shared_worker_env();
    let profiles = profiles();
    let sim = SimConfig::isca04(20_000);
    let (dir, store_sup) = stored_retries("crash");
    let sup = SupervisorConfig {
        max_retries: 0,
        timeout: Some(Duration::from_secs(120)),
        ..store_sup
    };

    // One worker aborts, one SIGKILLs itself. In-process either would take
    // the whole suite down; the process tier must contain both to their
    // slots while the remaining app completes.
    let plan = FaultPlan::none()
        .with_persistent_fault(APPS[0], FaultSpec::WorkerAbort)
        .with_persistent_fault(APPS[2], FaultSpec::WorkerKill);
    let crashed = with_shim_workers("1", None, || {
        run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &plan)
    });

    assert_eq!(crashed.completed(), 1, "the un-faulted app still completes");
    assert!(crashed.outcomes[1].is_ok());
    let aborted = crashed.outcomes[0].as_ref().expect_err("abort is fatal");
    assert_eq!(aborted.kind, FailureKind::Crash);
    let killed = crashed.outcomes[2].as_ref().expect_err("SIGKILL is fatal");
    assert_eq!(killed.kind, FailureKind::Crash);
    assert!(
        killed.message.contains("signal"),
        "a killed worker must be classified from its signal, got: {}",
        killed.message
    );

    // The crash never reaches the store: a clean resume replays the
    // completed app, re-runs the crashed ones, and matches an uninterrupted
    // reference bit-for-bit.
    let reference = try_run_suite(&profiles, &Technique::Base, &sim).expect("suite runs");
    let resumed = with_shim_workers("1", None, || {
        run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &FaultPlan::none())
    });
    assert_eq!(
        resumed.all_results().expect("resume completes the suite"),
        reference.results
    );
    assert_eq!(
        replayed(&resumed),
        vec![false, true, false],
        "the completed app replays; the crashed ones re-simulate"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_worker_serves_a_whole_suite_bit_exactly() {
    // A process-tier suite on one pool thread hands every job to the same
    // long-lived worker: one spawn per suite call, reused for the rest.
    let _env = WORKER_ENV.write().unwrap_or_else(PoisonError::into_inner);
    let profiles = profiles();
    let sim = SimConfig::isca04(20_000);
    let sup = SupervisorConfig {
        timeout: Some(Duration::from_secs(120)),
        ..fast_retries()
    };
    for technique in [
        Technique::Base,
        Technique::Tuning(restune::TuningConfig::isca04_table1(100)),
    ] {
        let reference = try_run_suite(&profiles, &technique, &sim).expect("suite runs");
        let (isolated, spawned, reused) = with_shim_workers("1", Some("1"), || {
            spawned_and_reused(|| {
                run_suite_supervised(&profiles, &technique, &sim, &sup, &FaultPlan::none())
            })
        });
        assert!(isolated.report.is_clean(), "{:?}", isolated.report);
        assert_eq!(
            isolated.all_results().expect("every job is served"),
            reference.results,
            "{}: a reused worker must stay bit-identical to the thread tier",
            technique.name()
        );
        assert_eq!((spawned, reused), (1, APPS.len() as u64 - 1));
        #[cfg(target_os = "linux")]
        assert_eq!(
            shim_children(),
            [],
            "the worker retires with its pool thread"
        );
    }
}

#[test]
fn every_failure_retires_its_worker() {
    // Persistent abort, SIGKILL and panic faults each end their attempt
    // with the worker retired (the panic one replies, but only a clean
    // RESULT earns reuse), so every failure but a last one costs a spawn.
    let _env = WORKER_ENV.write().unwrap_or_else(PoisonError::into_inner);
    let names = ["gzip", "mcf", "parser", "fma3d", "swim", "vpr"];
    let profiles: Vec<_> = names
        .iter()
        .map(|n| spec2k::by_name(n).expect("app is in the suite"))
        .collect();
    let sim = SimConfig::isca04(20_000);
    let sup = SupervisorConfig {
        max_retries: 0,
        timeout: Some(Duration::from_secs(120)),
        ..fast_retries()
    };
    let plan = FaultPlan::none()
        .with_persistent_fault("mcf", FaultSpec::WorkerAbort)
        .with_persistent_fault("fma3d", FaultSpec::WorkerKill)
        .with_persistent_fault("swim", FaultSpec::WorkerPanic);
    let reference = try_run_suite(&profiles, &Technique::Base, &sim).expect("suite runs");
    let (suite, spawned, _) = with_shim_workers("1", Some("1"), || {
        spawned_and_reused(|| run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &plan))
    });

    let failed: Vec<_> = suite
        .outcomes
        .iter()
        .filter_map(|o| o.as_ref().err())
        .map(|f| (f.app.as_str(), f.kind))
        .collect();
    assert_eq!(
        failed,
        [
            ("mcf", FailureKind::Crash),
            ("fma3d", FailureKind::Crash),
            ("swim", FailureKind::Panic)
        ]
    );
    assert_eq!(spawned, 1 + failed.len() as u64);
    for (i, outcome) in suite.outcomes.iter().enumerate() {
        if let Ok(result) = outcome {
            assert_eq!(*result, reference.results[i], "{} is bit-exact", names[i]);
        }
    }
}

#[test]
fn a_worker_that_dies_idle_hands_its_job_to_a_fresh_one() {
    // `once` workers exit after one job. Whether the next job's frame
    // reaches the pipe before the exit or hits a closed one, the worker
    // never acknowledges it, so the same frame goes to a fresh spawn:
    // nothing fails, nothing runs twice.
    let _env = WORKER_ENV.write().unwrap_or_else(PoisonError::into_inner);
    let profiles = profiles();
    let sim = SimConfig::isca04(20_000);
    let sup = SupervisorConfig {
        max_retries: 0,
        timeout: Some(Duration::from_secs(120)),
        ..fast_retries()
    };
    let reference = try_run_suite(&profiles, &Technique::Base, &sim).expect("suite runs");
    let failures = counter("engine.attempt_failures");
    let (suite, spawned, reused) = with_shim_workers("once", Some("1"), || {
        spawned_and_reused(|| {
            run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &FaultPlan::none())
        })
    });
    assert!(suite.report.is_clean(), "{:?}", suite.report);
    assert_eq!(counter("engine.attempt_failures"), failures);
    assert_eq!(
        suite.all_results().expect("every job completes"),
        reference.results
    );
    assert_eq!((spawned, reused), (APPS.len() as u64, 0));
}

#[cfg(target_os = "linux")]
#[test]
fn a_server_worker_thread_keeps_one_worker_and_retires_it_on_stop() {
    let _env = WORKER_ENV.write().unwrap_or_else(PoisonError::into_inner);
    let dir = std::env::temp_dir().join(format!("restune-ft-server-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let profiles = profiles();
    let sim = SimConfig::isca04(20_000);
    let reference = try_run_suite(&profiles, &Technique::Base, &sim).expect("suite runs");
    let endpoint = restune::Endpoint::parse(dir.join("s.sock").to_str().expect("utf-8 path"));

    let (children_while_up, children_after, spawned, reused, served) =
        with_shim_workers("1", None, || {
            let server = restune::Server::start(
                endpoint.clone(),
                restune::ServerConfig {
                    workers: 1,
                    cache_dir: Some(dir.join("cache")),
                    ..restune::ServerConfig::from_env()
                },
            )
            .expect("server starts");
            restune::set_connect(&endpoint.to_string()).expect("server is reachable");
            let (suite, spawned, reused) = spawned_and_reused(|| {
                run_suite_supervised(
                    &profiles,
                    &Technique::Base,
                    &sim,
                    &SupervisorConfig::default(),
                    &FaultPlan::none(),
                )
            });
            restune::clear_connect();
            let children_while_up = shim_children().len();
            let stats = server.drain_and_stop();
            assert_eq!(stats.jobs_run, APPS.len() as u64);
            (
                children_while_up,
                shim_children().len(),
                spawned,
                reused,
                suite.all_results(),
            )
        });
    assert_eq!(served.expect("every job is served"), reference.results);
    assert_eq!((spawned, reused), (1, APPS.len() as u64 - 1));
    assert_eq!(children_while_up, 1, "the idle worker waits for work");
    assert_eq!(children_after, 0, "drain_and_stop retires the worker");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_hung_worker_is_hard_killed_at_the_deadline() {
    // The worker ignores the cooperative watchdog its job frame carries, so
    // only the parent's backstop can end the attempt: a kill at the hard
    // deadline, timeout + max(timeout, 2 s) after the spawn.
    let profiles = vec![spec2k::by_name(APPS[0]).expect("app is in the suite")];
    let sim = SimConfig::isca04(20_000);
    let sup = SupervisorConfig {
        max_retries: 0,
        timeout: Some(Duration::from_millis(300)),
        ..fast_retries()
    };
    let _env = WORKER_ENV.write().unwrap_or_else(PoisonError::into_inner);
    let started = std::time::Instant::now();
    let suite = with_shim_workers("hang", None, || {
        run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &FaultPlan::none())
    });
    let elapsed = started.elapsed();

    let failure = suite.outcomes[0]
        .as_ref()
        .expect_err("a hung worker never replies");
    assert_eq!(failure.kind, FailureKind::Timeout, "{failure:?}");
    assert!(
        failure.message.contains("hard wall-clock deadline"),
        "the parent's kill must classify the attempt, got: {}",
        failure.message
    );
    assert!(
        elapsed >= Duration::from_millis(2_300) && elapsed < Duration::from_millis(3_500),
        "the kill lands at 0.3 s + 2 s grace, took {elapsed:?}"
    );
}
