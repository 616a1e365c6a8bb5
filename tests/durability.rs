//! Durability of the run store: what a put keeps when its process dies
//! before any barrier, and where the one barrier per suite fires.
//!
//! `store.syncs` is a process-wide counter that every store-writing suite
//! moves, so this binary holds the only test that runs a suite: the deltas
//! it reads are its own.

use std::path::PathBuf;

use restune::engine::run_suite_supervised;
use restune::{run, run_key, FaultPlan, RunStore, SimConfig, SupervisorConfig, Technique};
use workloads::spec2k;

/// Where [`child_puts_then_aborts`] puts its records; unset, it is a no-op.
const CHILD_STORE: &str = "DURABILITY_CHILD_STORE";

/// How many records the aborting child puts.
const RECORDS: usize = 8;

/// Record `i` of the aborting child: a real base run of one application.
fn record(i: usize) -> (restune::store::CacheKey, restune::SimResult) {
    let profile = spec2k::all()[i];
    let sim = SimConfig::isca04(2_000);
    (
        run_key(&profile, &Technique::Base, &sim),
        run(&profile, &Technique::Base, &sim),
    )
}

fn scratch(label: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("restune-durability-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn syncs() -> u64 {
    restune::obs::snapshot_counters()
        .into_iter()
        .find(|(name, _)| name == "store.syncs")
        .map_or(0, |(_, v)| v)
}

/// Not a real test: [`records_survive_an_abort_before_the_barrier`]
/// re-executes this test binary on it with [`CHILD_STORE`] set. It puts
/// [`RECORDS`] records and aborts before any barrier could run.
#[test]
fn child_puts_then_aborts() {
    let Some(dir) = std::env::var_os(CHILD_STORE) else {
        return;
    };
    let store = RunStore::open(PathBuf::from(dir));
    for i in 0..RECORDS {
        let (key, result) = record(i);
        store.put(&key, &result).expect("put succeeds");
    }
    assert_eq!(syncs(), 0, "no barrier ran before the abort");
    std::process::abort();
}

#[cfg(unix)]
#[test]
fn records_survive_an_abort_before_the_barrier() {
    use std::os::unix::process::ExitStatusExt;

    let dir = scratch("abort");
    let child = std::process::Command::new(std::env::current_exe().expect("test binary path"))
        .args(["child_puts_then_aborts", "--exact", "--nocapture"])
        .env(CHILD_STORE, &dir)
        .output()
        .expect("re-execute the test binary");
    assert_eq!(
        child.status.signal(),
        Some(6),
        "the child must die by SIGABRT, not {}; stderr:\n{}",
        child.status,
        String::from_utf8_lossy(&child.stderr)
    );

    let store = RunStore::open(dir.clone());
    for i in 0..RECORDS {
        let (key, result) = record(i);
        assert_eq!(
            store.get(&key),
            Some(result),
            "record {i} reads back bit-exactly"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_suite_syncs_once_only_when_it_put() {
    let dir = scratch("syncs");
    let profiles: Vec<_> = ["gzip", "mcf", "swim"]
        .iter()
        .map(|name| spec2k::by_name(name).expect("app is in the suite"))
        .collect();
    let sim = SimConfig::isca04(3_000);
    let stored = SupervisorConfig {
        store: Some(RunStore::open(dir.clone())),
        ..SupervisorConfig::default()
    };
    let suite = |sup: &SupervisorConfig| {
        let before = syncs();
        let suite =
            run_suite_supervised(&profiles, &Technique::Base, &sim, sup, &FaultPlan::none());
        assert!(suite.report.is_empty(), "{}", suite.report.summary());
        let replayed = suite
            .metrics
            .iter()
            .flatten()
            .filter(|m| m.replayed)
            .count();
        (syncs() - before, replayed)
    };

    assert_eq!(
        suite(&stored),
        (1, 0),
        "a suite that put three runs syncs once"
    );
    assert_eq!(suite(&stored), (0, 3), "an all-hit rerun syncs nothing");
    assert_eq!(
        suite(&SupervisorConfig::default()),
        (0, 0),
        "a store-less suite syncs nothing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
