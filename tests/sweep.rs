//! Sweep tier: the parameter-grid driver must share every individual run
//! between overlapping sweeps through the content-addressed store, resume
//! an interrupted sweep bit-identically through the checkpoint machinery,
//! and never let a fingerprint collision smuggle a wrong result in.

use restune::engine::CacheKey;
use restune::{
    run, run_key, run_sweep, FaultPlan, FaultSpec, GridSpec, RunPolicy, RunStore, SimConfig,
    SupervisorConfig, Technique,
};
use workloads::spec2k;

fn grid(pairs: &[(&str, &str)], instructions: u64) -> GridSpec {
    let pairs: Vec<(String, String)> = pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    GridSpec::parse(&pairs, instructions).expect("test grid parses")
}

fn scratch(label: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("restune-sweep-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn overlapping_sweeps_share_every_run_and_reproduce_the_frontier() {
    let dir = scratch("overlap");
    let store = RunStore::open(dir.clone());
    let policy = RunPolicy::default();
    // The corpus class keeps the suites small; two technique axes give the
    // frontier real trade-offs to rank.
    let spec = grid(
        &[
            ("workloads", "corpus"),
            ("tuning", "100"),
            ("damping", "1.0"),
        ],
        8_000,
    );

    let first = run_sweep(&spec, &policy, &store).expect("first sweep runs");
    assert!(first.runs > 0);
    assert_eq!(first.store_hits, 0, "a fresh store cannot hit");
    assert_eq!(first.store_misses, first.runs);

    // The identical sweep again: every previously-computed run must be
    // served from the store, and the frontier must replay byte-identically
    // (PartialEq on the points compares every float bit-exactly, since
    // store rows round-trip through to_bits).
    let second = run_sweep(&spec, &policy, &store).expect("second sweep runs");
    assert_eq!(second.store_hits, second.runs, "every run is store-served");
    assert_eq!(second.store_misses, 0);
    assert_eq!(second.points, first.points, "frontier replays bit-exactly");

    // A *widened* sweep shares the overlap and simulates only the new axis
    // value.
    let wider = grid(
        &[
            ("workloads", "corpus"),
            ("tuning", "75,100"),
            ("damping", "1.0"),
        ],
        8_000,
    );
    let third = run_sweep(&wider, &policy, &store).expect("widened sweep runs");
    assert_eq!(third.store_hits, first.runs, "the overlap is store-served");
    assert_eq!(
        third.store_misses,
        third.runs - first.runs,
        "only the new tuning point simulates"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_sweep_resumes_bit_identically() {
    let store_dir = scratch("resume-store");
    let ckpt_dir = scratch("resume-ckpt");
    let store = RunStore::open(store_dir.clone());
    let spec = grid(&[("workloads", "corpus"), ("tuning", "100")], 8_000);
    let supervisor = SupervisorConfig {
        resume: true,
        checkpoint_dir: Some(ckpt_dir.clone()),
        max_retries: 0,
        ..SupervisorConfig::default()
    };

    // The reference outcome, computed with its own store.
    let reference_dir = scratch("resume-reference");
    let reference = run_sweep(
        &spec,
        &RunPolicy::default(),
        &RunStore::open(reference_dir.clone()),
    )
    .expect("reference sweep runs");

    // "Interrupt" the sweep: a persistent worker crash in one corpus app
    // fails every suite that reaches it, leaving the other apps'
    // checkpointed rows behind.
    let crashing = RunPolicy {
        supervisor: supervisor.clone(),
        plan: FaultPlan::none().with_persistent_fault("quicksort", FaultSpec::WorkerPanic),
    };
    let interrupted = run_sweep(&spec, &crashing, &store);
    assert!(
        interrupted.is_err(),
        "a crashed suite must surface an error"
    );
    let checkpoints = std::fs::read_dir(&ckpt_dir)
        .map(|entries| entries.count())
        .unwrap_or(0);
    assert!(checkpoints > 0, "the interrupted suite left its checkpoint");

    // The clean re-run resumes: checkpointed apps replay, the crashed one
    // re-simulates, and the outcome matches the uninterrupted reference
    // bit-for-bit.
    let resuming = RunPolicy {
        supervisor,
        plan: FaultPlan::none(),
    };
    let resumed = run_sweep(&spec, &resuming, &store).expect("resumed sweep completes");
    assert_eq!(resumed.points, reference.points, "resume is bit-identical");

    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let _ = std::fs::remove_dir_all(&reference_dir);
}

#[test]
fn forced_store_collision_is_a_miss_never_a_wrong_result() {
    let dir = scratch("collision");
    let store = RunStore::open(dir.clone());
    let profile = spec2k::by_name("gzip").expect("gzip is in the suite");
    let sim = SimConfig::isca04(4_000);
    let result = run(&profile, &Technique::Base, &sim);
    let key = run_key(&profile, &Technique::Base, &sim);
    store.put(&key, &result).expect("store records the run");

    // Forge a 64-bit fingerprint collision: same fingerprint, different
    // configuration identity. The identity row must catch it — a miss,
    // never the other configuration's result.
    let impostor = CacheKey {
        fingerprint: key.fingerprint,
        identity: format!("{}|other-config", key.identity),
    };
    assert_eq!(store.get(&impostor), None, "collision must read as a miss");
    assert_eq!(
        store.get(&key),
        Some(result),
        "the rightful record survives the collision probe"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_puts_of_one_key_all_land_whole() {
    // Two tenants finishing the same run put the same key at once. Every
    // put must succeed, the surviving record must verify, and no writer's
    // tmp file may be left behind.
    const THREADS: usize = 8;
    const ROUNDS: usize = 200;
    let dir = scratch("concurrent");
    let store = RunStore::open(dir.clone());
    let profile = spec2k::by_name("gzip").expect("gzip is in the suite");
    let sim = SimConfig::isca04(2_000);
    let result = run(&profile, &Technique::Base, &sim);
    let key = run_key(&profile, &Technique::Base, &sim);

    let start = std::sync::Barrier::new(THREADS);
    let failures: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    (0..ROUNDS)
                        .filter_map(|_| store.put(&key, &result).err())
                        .map(|e| e.to_string())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("writer thread finishes"))
            .collect()
    });
    assert!(
        failures.is_empty(),
        "{} of {} puts failed, first: {:?}",
        failures.len(),
        THREADS * ROUNDS,
        failures.first()
    );
    assert_eq!(
        store.get(&key),
        Some(result),
        "the record reads back verified"
    );
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("store dir exists")
        .map(|e| e.expect("dir entry").file_name())
        .filter(|name| name.to_string_lossy().contains(".tmp."))
        .collect();
    assert!(leftovers.is_empty(), "tmp files left behind: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
