//! Server/client integration: a suite run through a `restuned` server must
//! be bit-identical to an in-process run, the shared result cache must make
//! reconnects and restarts resume without recomputing, misbehaving clients
//! must be contained to their own connections, and admission control must
//! bound the queue with busy backpressure rather than collapse.

use std::io::{Read, Write};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use restune::engine::{run_suite_supervised, try_run_suite};
use restune::{
    Endpoint, FailureKind, FaultPlan, FaultSpec, NetFaultSpec, Server, ServerConfig, SimConfig,
    SupervisorConfig, Technique,
};
use workloads::spec2k;

const APPS: [&str; 3] = ["mcf", "parser", "fma3d"];

/// The connect route is process-global (one client core per process), so
/// every test in this binary serializes on this lock.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Clears the global connect route even when a test panics, so one failure
/// does not wedge every later test into dialing a dead server.
struct ConnectedGuard;

impl Drop for ConnectedGuard {
    fn drop(&mut self) {
        restune::clear_connect();
    }
}

fn connect(server: &Server) -> ConnectedGuard {
    restune::set_connect(&server.endpoint().to_string()).expect("server is reachable");
    ConnectedGuard
}

fn profiles(names: &[&str]) -> Vec<workloads::WorkloadProfile> {
    names
        .iter()
        .map(|n| spec2k::by_name(n).expect("app is in the suite"))
        .collect()
}

/// A scratch area unique to this test, removed on drop.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(label: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("restune-srv-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::create_dir_all(&dir);
        Scratch(dir)
    }

    fn socket(&self) -> Endpoint {
        Endpoint::parse(self.0.join("restuned.sock").to_str().expect("utf-8 path"))
    }

    fn cfg(&self) -> ServerConfig {
        let mut cfg = ServerConfig::from_env();
        cfg.cache_dir = Some(self.0.join("cache"));
        cfg.workers = 2;
        cfg
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn thin_client_suite_is_bit_exact_and_a_second_run_is_cache_served() {
    let _serial = serial();
    let profiles = profiles(&APPS);
    let sim = SimConfig::isca04(8_000);
    let reference = try_run_suite(&profiles, &Technique::Base, &sim).expect("suite runs");

    let scratch = Scratch::new("bitexact");
    let server = Server::start(scratch.socket(), scratch.cfg()).expect("server starts");
    let _route = connect(&server);
    assert!(restune::connect_active());

    let first = try_run_suite(&profiles, &Technique::Base, &sim).expect("remote suite runs");
    assert_eq!(
        first.results, reference.results,
        "a thin-client suite must be bit-identical to an in-process run"
    );

    let second = try_run_suite(&profiles, &Technique::Base, &sim).expect("remote suite reruns");
    assert_eq!(second.results, reference.results);

    let stats = server.drain_and_stop();
    assert_eq!(stats.jobs_run, 3, "the rerun must not recompute anything");
    assert!(
        stats.cache_hits >= 3,
        "the rerun must be served from the shared result cache, got {stats:?}"
    );
    assert_eq!(stats.job_failures, 0);
}

#[test]
fn corpus_jobs_fingerprint_and_cache_through_a_thin_client() {
    // The replayed-trace workload class over the wire: corpus names must
    // resolve on the server (registry lookup in job decode), fingerprint
    // distinctly, and be served from the shared result cache on a rerun.
    let _serial = serial();
    let profiles: Vec<_> = ["hazards", "quicksort", "resonance"]
        .iter()
        .map(|n| workloads::corpus::by_name(n).expect("app is in the corpus"))
        .collect();
    let sim = SimConfig::isca04(8_000);
    let reference = try_run_suite(&profiles, &Technique::Base, &sim).expect("suite runs");

    let scratch = Scratch::new("corpus");
    let server = Server::start(scratch.socket(), scratch.cfg()).expect("server starts");
    let _route = connect(&server);

    let first = try_run_suite(&profiles, &Technique::Base, &sim).expect("remote suite runs");
    assert_eq!(
        first.results, reference.results,
        "a thin-client corpus suite must be bit-identical to an in-process run"
    );

    let second = try_run_suite(&profiles, &Technique::Base, &sim).expect("remote suite reruns");
    assert_eq!(second.results, reference.results);

    let stats = server.drain_and_stop();
    assert_eq!(stats.jobs_run, 3, "the rerun must not recompute anything");
    assert!(
        stats.cache_hits >= 3,
        "corpus reruns must be served from the shared result cache, got {stats:?}"
    );
    assert_eq!(stats.job_failures, 0);
}

#[test]
fn client_reconnects_through_an_injected_disconnect_bit_exactly() {
    let _serial = serial();
    let profiles = profiles(&APPS);
    let sim = SimConfig::isca04(8_000);
    let reference = try_run_suite(&profiles, &Technique::Base, &sim).expect("suite runs");

    let scratch = Scratch::new("reconnect");
    let server = Server::start(scratch.socket(), scratch.cfg()).expect("server starts");
    // Staged faults arm the *next* connection, so this must land before the
    // eager connect below: the first connection dies after two frames.
    restune::set_net_faults(vec![NetFaultSpec::Disconnect { after_frames: 2 }]);
    let _route = connect(&server);

    let run = try_run_suite(&profiles, &Technique::Base, &sim).expect("remote suite survives");
    assert_eq!(
        run.results, reference.results,
        "a mid-suite disconnect must resume bit-exactly after reconnecting"
    );

    let stats = server.drain_and_stop();
    assert!(
        stats.connections >= 2,
        "the client must have dialed a fresh connection, got {stats:?}"
    );
}

#[test]
fn a_killed_tenants_progress_is_resumed_by_the_next_client() {
    let _serial = serial();
    let all = profiles(&APPS);
    let sim = SimConfig::isca04(8_000);
    let reference = try_run_suite(&all, &Technique::Base, &sim).expect("suite runs");

    let scratch = Scratch::new("killed");
    let server = Server::start(scratch.socket(), scratch.cfg()).expect("server starts");

    // Tenant A completes two of the three applications, then dies (its
    // connection tears down with the suite unfinished).
    {
        let _route = connect(&server);
        let partial = try_run_suite(&all[..2], &Technique::Base, &sim).expect("partial suite runs");
        assert_eq!(partial.results, reference.results[..2]);
    }

    // Tenant B asks for the whole suite: the two finished applications are
    // served from the shared cache (same fingerprint, never recomputed) and
    // only the third simulates.
    let _route = connect(&server);
    let resumed = try_run_suite(&all, &Technique::Base, &sim).expect("resumed suite runs");
    assert_eq!(
        resumed.results, reference.results,
        "the merged suite must be bit-identical to an uninterrupted run"
    );

    let stats = server.drain_and_stop();
    assert_eq!(stats.jobs_run, 3, "finished apps must not re-simulate");
    assert!(stats.cache_hits >= 2, "got {stats:?}");
}

#[test]
fn a_server_restart_resumes_from_the_persisted_cache() {
    let _serial = serial();
    let all = profiles(&APPS);
    let sim = SimConfig::isca04(8_000);
    let reference = try_run_suite(&all, &Technique::Base, &sim).expect("suite runs");

    let scratch = Scratch::new("restart");
    let first = Server::start(scratch.socket(), scratch.cfg()).expect("server starts");
    {
        let _route = connect(&first);
        let partial = try_run_suite(&all[..2], &Technique::Base, &sim).expect("partial suite runs");
        assert_eq!(partial.results, reference.results[..2]);
    }
    let first_stats = first.drain_and_stop();
    assert_eq!(first_stats.jobs_run, 2);

    // A fresh server process over the same cache directory: the drained
    // results were persisted, so the full suite replays them and only the
    // missing application simulates.
    let second = Server::start(scratch.socket(), scratch.cfg()).expect("server restarts");
    let _route = connect(&second);
    let resumed = try_run_suite(&all, &Technique::Base, &sim).expect("resumed suite runs");
    assert_eq!(resumed.results, reference.results);

    let stats = second.drain_and_stop();
    assert_eq!(
        stats.jobs_run, 1,
        "only the app missing from the persisted cache may simulate, got {stats:?}"
    );
    assert!(stats.cache_hits >= 2, "got {stats:?}");
}

#[test]
fn chaos_clients_cannot_perturb_a_healthy_tenant() {
    let _serial = serial();
    let profiles = profiles(&APPS);
    let sim = SimConfig::isca04(8_000);
    let reference = try_run_suite(&profiles, &Technique::Base, &sim).expect("suite runs");

    let scratch = Scratch::new("chaos");
    let mut cfg = scratch.cfg();
    cfg.frame_timeout = Duration::from_millis(300);
    let server = Server::start(scratch.socket(), cfg).expect("server starts");
    let Endpoint::Unix(sock_path) = server.endpoint().clone() else {
        panic!("test server listens on a unix socket");
    };

    // A slow-loris writer: drips a valid frame prefix one byte at a time,
    // never completing it. The server must kill it at the frame timeout
    // even though bytes keep arriving.
    let loris_path = sock_path.clone();
    let loris = std::thread::spawn(move || {
        let mut s =
            std::os::unix::net::UnixStream::connect(&loris_path).expect("slow-loris connects");
        // A well-formed header declaring a modest payload…
        let mut header = Vec::new();
        header.extend_from_slice(b"RSTF");
        header.push(1); // version
        header.push(9); // heartbeat kind
        header.extend_from_slice(&1_000u32.to_le_bytes());
        let _ = s.write_all(&header);
        // …whose payload then drips in one byte at a time, forever. Every
        // drip resets the read, so only a per-iteration age check can
        // catch this connection.
        for _ in 0..40 {
            if s.write_all(&[0]).is_err() {
                break; // killed, as hoped
            }
            std::thread::sleep(Duration::from_millis(40));
        }
    });

    // A torn-frame writer: a structurally valid header whose payload bytes
    // do not match the trailing CRC. The decoder must kill the connection
    // (strict streams never resynchronize past corruption).
    let torn_path = sock_path.clone();
    let torn = std::thread::spawn(move || {
        let mut s =
            std::os::unix::net::UnixStream::connect(&torn_path).expect("torn client connects");
        let mut frame = Vec::new();
        frame.extend_from_slice(b"RSTF"); // magic
        frame.push(1); // version
        frame.push(9); // heartbeat kind
        frame.extend_from_slice(&2u32.to_le_bytes()); // payload length
        frame.extend_from_slice(&[0xAA, 0xBB]); // payload
        frame.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF]); // wrong CRC
        let _ = s.write_all(&frame);
        let _ = s.flush();
        // The server's only valid response is to drop us: read to EOF.
        let mut sink = [0u8; 64];
        while matches!(s.read(&mut sink), Ok(n) if n > 0) {}
    });

    // The healthy tenant's suite runs while both abusers are being killed.
    let _route = connect(&server);
    let run = try_run_suite(&profiles, &Technique::Base, &sim).expect("healthy suite runs");
    assert_eq!(
        run.results, reference.results,
        "chaos neighbours must not perturb a healthy tenant"
    );

    loris.join().expect("slow-loris thread exits");
    torn.join().expect("torn-frame thread exits");
    let stats = server.drain_and_stop();
    assert!(
        stats.protocol_errors >= 1,
        "the torn frame must be counted, got {stats:?}"
    );
    assert!(
        stats.slow_loris_kills >= 1,
        "the slow loris must be killed, got {stats:?}"
    );
    assert_eq!(stats.job_failures, 0);
}

#[test]
fn admission_control_rejects_with_busy_instead_of_collapsing() {
    let _serial = serial();
    let profiles = profiles(&["mcf", "parser", "fma3d", "gzip", "art"]);
    let sim = SimConfig::isca04(20_000);
    let reference = try_run_suite(&profiles, &Technique::Base, &sim).expect("suite runs");

    let scratch = Scratch::new("busy");
    let mut cfg = scratch.cfg();
    cfg.queue_limit = 1;
    cfg.workers = 1;
    cfg.retry_after = Duration::from_millis(20);
    let server = Server::start(scratch.socket(), cfg).expect("server starts");
    let _route = connect(&server);

    // Four engine workers fire requests concurrently at a one-deep queue:
    // some must bounce off admission control, retry on the busy hint, and
    // still land the identical suite.
    let run = restune::testenv::with_env(&[("RESTUNE_WORKERS", Some("4"))], || {
        try_run_suite(&profiles, &Technique::Base, &sim)
    })
    .expect("backpressured suite completes");
    assert_eq!(
        run.results, reference.results,
        "backpressure must delay requests, never change results"
    );

    let stats = server.drain_and_stop();
    assert!(
        stats.busy_rejections > 0,
        "a one-deep queue under four concurrent tenants must reject, got {stats:?}"
    );
    assert_eq!(stats.jobs_run, 5);
}

#[test]
fn request_deadlines_fire_on_the_server_and_spare_healthy_apps() {
    let _serial = serial();
    let profiles = profiles(&APPS);
    let sim = SimConfig::isca04(8_000);
    let reference = try_run_suite(&profiles, &Technique::Base, &sim).expect("suite runs");

    let scratch = Scratch::new("deadline");
    let server = Server::start(scratch.socket(), scratch.cfg()).expect("server starts");
    let _route = connect(&server);

    // One app stalls well past the per-request deadline the client ships
    // with its job; the server's watchdog must classify it as a timeout
    // while its suite-mates complete untouched.
    let plan =
        FaultPlan::none().with_persistent_fault(APPS[0], FaultSpec::WorkerStall { millis: 700 });
    let sup = SupervisorConfig {
        timeout: Some(Duration::from_millis(150)),
        max_retries: 0,
        ..SupervisorConfig::default()
    };
    let suite = run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &plan);

    let failure = suite.outcomes[0]
        .as_ref()
        .expect_err("the stalled app times out");
    assert_eq!(failure.kind, FailureKind::Timeout);
    assert_eq!(suite.outcomes[1].as_ref().unwrap(), &reference.results[1]);
    assert_eq!(suite.outcomes[2].as_ref().unwrap(), &reference.results[2]);

    let stats = server.drain_and_stop();
    assert_eq!(stats.job_failures, 1, "got {stats:?}");
    assert_eq!(
        stats.jobs_run, 3,
        "failures must reach the server, not be simulated locally, got {stats:?}"
    );
}

#[test]
fn a_restarted_server_evicts_its_store_to_the_bound_and_serves_the_rest() {
    let _serial = serial();
    let all = profiles(&APPS);
    let sim = SimConfig::isca04(8_000);
    let reference = try_run_suite(&all, &Technique::Base, &sim).expect("suite runs");

    let scratch = Scratch::new("evict");
    let first = Server::start(scratch.socket(), scratch.cfg()).expect("server starts");
    {
        let _route = connect(&first);
        let run = try_run_suite(&all, &Technique::Base, &sim).expect("remote suite runs");
        assert_eq!(run.results, reference.results);
    }
    assert_eq!(first.drain_and_stop().jobs_run, 3);

    let store = scratch.0.join("cache").join("server").join("store");
    let record_sizes = || -> Vec<u64> {
        std::fs::read_dir(&store)
            .expect("the server store exists")
            .map(|e| e.expect("dir entry").metadata().expect("metadata").len())
            .collect()
    };
    let sizes = record_sizes();
    assert_eq!(sizes.len(), 3, "one record per completed job");
    // Room for two records but not three: a restart must evict one.
    let bound = sizes.iter().sum::<u64>() - sizes.iter().min().expect("records") / 2;
    let second = restune::testenv::with_env(
        &[("RESTUNE_STORE_MAX_BYTES", Some(&bound.to_string()))],
        || Server::start(scratch.socket(), scratch.cfg()),
    )
    .expect("server restarts");
    let kept = record_sizes();
    assert_eq!(kept.len(), 2, "the oldest record is evicted");
    assert!(
        kept.iter().sum::<u64>() <= bound,
        "the store fits its bound"
    );

    let _route = connect(&second);
    let resumed = try_run_suite(&all, &Technique::Base, &sim).expect("resumed suite runs");
    assert_eq!(resumed.results, reference.results);
    let stats = second.drain_and_stop();
    assert_eq!(
        (stats.jobs_run, stats.cache_hits),
        (1, 2),
        "the surviving records are served, only the evicted job simulates"
    );
}
