//! Determinism regression: the engine's bounded scheduler, the old serial
//! path, and a replay from the run store must all produce bit-identical
//! `SimResult` rows.

use restune::engine::{
    base_suite, corpus_base_suite, run_suite_supervised, try_run_suite, SupervisedSuite,
};
use restune::{
    run, FaultPlan, FaultSpec, RunPolicy, RunStore, SimConfig, SimResult, SupervisorConfig,
    Technique, TuningConfig,
};
use workloads::{corpus, spec2k};

const APPS: [&str; 3] = ["mcf", "parser", "fma3d"];

fn profiles() -> Vec<workloads::WorkloadProfile> {
    APPS.iter()
        .map(|n| spec2k::by_name(n).expect("app is in the suite"))
        .collect()
}

/// A scratch directory, emptied, and a supervisor whose run store lives
/// in it.
fn scratch_store(label: &str) -> (std::path::PathBuf, SupervisorConfig) {
    let dir = std::env::temp_dir().join(format!(
        "restune-determinism-{label}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let sup = SupervisorConfig {
        store: Some(RunStore::open(dir.clone())),
        ..SupervisorConfig::default()
    };
    (dir, sup)
}

/// The pooled suite's results, panicking with the failing application.
fn run_suite(
    profiles: &[workloads::WorkloadProfile],
    technique: &Technique,
    sim: &SimConfig,
) -> Vec<SimResult> {
    try_run_suite(profiles, technique, sim)
        .expect("suite runs")
        .results
}

fn replayed(suite: &SupervisedSuite) -> Vec<bool> {
    suite
        .metrics
        .iter()
        .map(|m| m.expect("all apps have metrics").replayed)
        .collect()
}

#[test]
fn scheduler_serial_and_replay_agree_bit_for_bit() {
    let profiles = profiles();
    let sim = SimConfig::isca04(30_000);

    // 1. The bounded worker pool.
    let pooled = try_run_suite(&profiles, &Technique::Base, &sim).expect("suite runs");
    // 2. The inert policy every driver runs under (same pool, with the
    //    default supervisor's retries).
    let policy = RunPolicy::none();
    let suite = run_suite_supervised(
        &profiles,
        &Technique::Base,
        &sim,
        &policy.supervisor,
        &policy.plan,
    )
    .all_results()
    .expect("every app completes");
    // 3. A plain serial loop.
    let serial: Vec<_> = profiles
        .iter()
        .map(|p| run(p, &Technique::Base, &sim))
        .collect();
    // 4. A replay from the run store: the first store-backed suite puts
    //    every run, the second serves them all back.
    let (dir, sup) = scratch_store("replay");
    let plan = FaultPlan::none();
    run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &plan);
    let replay = run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &plan);
    assert_eq!(replayed(&replay), vec![true; APPS.len()]);
    let replayed = replay.all_results().expect("every app replays");
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(
        pooled.results, serial,
        "worker pool must match the serial loop"
    );
    assert_eq!(suite, serial, "the inert policy must match the serial loop");
    assert_eq!(replayed, serial, "store replay must be bit-identical");
}

#[test]
fn scheduler_is_deterministic_under_techniques_too() {
    let profiles = profiles();
    let sim = SimConfig::isca04(30_000);
    let technique = Technique::Tuning(TuningConfig::isca04_table1(100));
    let a = run_suite(&profiles, &technique, &sim);
    let b = run_suite(&profiles, &technique, &sim);
    let serial: Vec<_> = profiles.iter().map(|p| run(p, &technique, &sim)).collect();
    assert_eq!(a, b, "repeated pooled runs must agree");
    assert_eq!(a, serial, "pooled tuning runs must match serial");
}

#[test]
fn one_worker_pool_matches_wide_pool() {
    // RESTUNE_WORKERS is read per suite call, so pin it for a narrow run.
    let profiles = profiles();
    let sim = SimConfig::isca04(20_000);
    let wide = run_suite(&profiles, &Technique::Base, &sim);
    let narrow = restune::testenv::with_env(&[("RESTUNE_WORKERS", Some("1"))], || {
        run_suite(&profiles, &Technique::Base, &sim)
    });
    assert_eq!(wide, narrow, "pool width must not affect results");
}

#[test]
fn corpus_pool_serial_and_baseline_replay_agree_bit_for_bit() {
    // The replayed-trace workload class through the same three paths the
    // synthetic suite is pinned on: worker pool, serial loop, and the base
    // suite's records replayed from the run store (whose rows resolve
    // corpus names through the workload registry on parse).
    let profiles = corpus::all();
    let sim = SimConfig::isca04(20_000);

    let pooled = try_run_suite(&profiles, &Technique::Base, &sim).expect("corpus suite runs");
    let serial: Vec<_> = profiles
        .iter()
        .map(|p| run(p, &Technique::Base, &sim))
        .collect();

    let (dir, supervisor) = scratch_store("corpus-baseline");
    let policy = RunPolicy {
        supervisor,
        ..RunPolicy::none()
    };
    let recorded = corpus_base_suite(&sim, &policy);
    let replay = corpus_base_suite(&sim, &policy);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(
        pooled.results, serial,
        "corpus worker pool must match the serial loop"
    );
    assert_eq!(replayed(&recorded), vec![false; profiles.len()]);
    assert_eq!(replayed(&replay), vec![true; profiles.len()]);
    assert_eq!(
        replay.all_results().expect("every corpus app replays"),
        serial,
        "corpus baseline replay must be bit-identical"
    );
}

#[test]
fn corpus_suite_checkpoints_and_resumes_bit_exactly() {
    let profiles: Vec<_> = ["hazards", "quicksort", "resonance"]
        .iter()
        .map(|n| corpus::by_name(n).expect("app is in the corpus"))
        .collect();
    let sim = SimConfig::isca04(15_000);
    let (dir, store_sup) = scratch_store("corpus-resume");
    let sup = SupervisorConfig {
        max_retries: 0,
        ..store_sup
    };

    let reference = try_run_suite(&profiles, &Technique::Base, &sim).expect("corpus suite runs");

    // Crash the middle app: the other two are stored as they complete.
    let crash_plan = FaultPlan::none().with_persistent_fault("quicksort", FaultSpec::WorkerPanic);
    let interrupted = run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &crash_plan);
    assert_eq!(interrupted.completed(), 2);
    let records = || std::fs::read_dir(&dir).map_or(0, |entries| entries.count());
    assert_eq!(records(), 2, "each completed corpus app is stored");

    // Clean resume: stored corpus apps replay, the crashed one
    // re-simulates, and the merged suite matches the uninterrupted run.
    let resumed = run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &FaultPlan::none());
    assert_eq!(
        resumed.all_results().expect("resume completes the suite"),
        reference.results
    );
    assert_eq!(
        replayed(&resumed),
        vec![true, false, true],
        "stored corpus apps replay; the crashed one re-simulates"
    );
    assert_eq!(records(), 3, "the healed app is stored too");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn table_drivers_share_one_base_simulation() {
    // The acceptance check for the memoized engine: run the table3 driver's
    // flow twice in one process and count actual base-suite simulations.
    // The cache directory is this test's own, so the first driver really
    // simulates: default-store records outlive a test run.
    let sim = SimConfig::isca04(12_345);
    let dir = std::env::temp_dir().join(format!(
        "restune-determinism-drivers-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = dir.to_str().expect("utf-8 temp dir");
    restune::testenv::with_env(&[("RESTUNE_CACHE_DIR", Some(cache))], || {
        assert_eq!(restune::engine::base_suite_simulations(&sim), 0);
        let policy = RunPolicy::none();
        for _ in 0..2 {
            let base = base_suite(&sim, &policy);
            let (rows, reports) = restune::experiment::table3(&sim, &[100], &base, &policy);
            assert_eq!(rows.len(), 1);
            assert!(reports.iter().all(|r| r.is_empty()), "{reports:?}");
        }
    });
    assert_eq!(
        restune::engine::base_suite_simulations(&sim),
        1,
        "two table3 drivers in one process must share a single base simulation"
    );
    let stats = restune::engine::base_cache_stats();
    assert!(stats.hits >= 1, "the second driver must hit the cache");
    let _ = std::fs::remove_dir_all(&dir);
}
