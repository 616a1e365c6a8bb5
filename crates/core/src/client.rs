//! The thin-client side of the suite server: when a harness runs with
//! `--connect ENDPOINT`, every supervised application attempt is shipped to
//! a [`crate::server`] instance as a request frame instead of executing
//! locally, and the reply (a result or a classified failure) feeds the
//! same supervisor path — so a thin-client report is byte-identical to an
//! in-process run.
//!
//! The client is built to survive a misbehaving *server* (or network):
//!
//! * **reconnect-resume** — a dead connection is re-dialed with bounded
//!   exponential backoff and the request is re-sent; the server's shared
//!   result cache makes the resend idempotent (a suite interrupted
//!   mid-flight resumes bit-exactly from the rows already computed);
//! * **backpressure honoring** — a busy frame sleeps out its retry-after
//!   hint and retries, within a bounded budget (never a hot resend loop);
//! * **bounded patience** — a request that outlives its overall budget
//!   (derived from the job's own deadline) fails as a transport error
//!   rather than hanging the suite;
//! * **graceful interrupt** — SIGINT/SIGTERM in the harness cancels the
//!   outstanding request (best effort) and classifies the attempt as
//!   interrupted, matching the engine's local drain semantics.
//!
//! Client-side network fault injection ([`set_net_faults`], or the
//! `RESTUNE_NET_FAULT` environment variable in the harnesses) arms the
//! *outgoing* frame stream with [`NetFaultSpec`] plans, so tests can tear
//! frames and drop connections from the tenant side too.
//!
//! A comma-separated `--connect` list routes through [`crate::mesh`]
//! instead: this module then provides the per-host machinery (one
//! `Core` per host, probes, severing) while the mesh owns shard
//! routing, circuit breaking, and failover.

use std::collections::HashMap;
use std::io::{self, Read};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use workloads::{registry, WorkloadProfile};

use crate::fault::{FailureKind, FaultSpec, NetFaultRuntime, NetFaultSpec};
use crate::mesh::Mesh;
use crate::server::{Endpoint, FramedConn, Sock};
use crate::sim::{InstrumentedRun, SimConfig, Technique};
use crate::wire;

/// How many consecutive connection failures a single-host client tolerates
/// before a request fails as a transport error. A multi-host mesh uses a
/// smaller per-host budget (failover beats waiting).
pub(crate) const MAX_RECONNECTS: u32 = 7;

/// Total time a request may sleep on busy (admission-rejected) frames.
const BUSY_BUDGET: Duration = Duration::from_secs(60);

/// Patience for a request with no deadline of its own.
pub(crate) const NO_DEADLINE_BUDGET: Duration = Duration::from_secs(3600);

/// Heartbeat cadence on an established connection.
const HEARTBEAT_EVERY: Duration = Duration::from_secs(1);

/// Default cap on the reconnect backoff in milliseconds
/// (`RESTUNE_BACKOFF_CAP_MS` overrides).
const DEFAULT_BACKOFF_CAP_MS: u64 = 1600;

/// What the connection reader hands back to a waiting request.
enum Incoming {
    /// A decoded reply (cache hits are counted at decode time).
    Reply(Result<InstrumentedRun, (FailureKind, String)>),
    /// Admission rejected; retry after the hint.
    Busy(Duration),
    /// A probe acknowledgement carrying the host's generation.
    ProbeAck(u64),
    /// The connection died before a reply arrived.
    Dead,
}

struct Mux {
    conn: Option<Arc<FramedConn>>,
    /// Monotonic connection generation; doubles as the connection id.
    generation: u64,
    /// Outstanding requests: request id → (generation it was sent on,
    /// reply channel). A dying reader completes only its own generation's
    /// entries with [`Incoming::Dead`].
    pending: HashMap<u64, (u64, mpsc::Sender<Incoming>)>,
}

/// The per-host connection core: endpoint, multiplexer, request-id
/// sequence, and the last host generation learned from a hello or
/// probe-ack frame. The mesh keeps one per host.
pub(crate) struct Core {
    endpoint: Endpoint,
    mux: Mutex<Mux>,
    seq: AtomicU64,
    /// Latest generation announced by the host (0 = none seen yet).
    hello_generation: AtomicU64,
}

impl Core {
    /// A fresh, unconnected core for `endpoint`.
    pub(crate) fn new(endpoint: Endpoint) -> Arc<Core> {
        Arc::new(Core {
            endpoint,
            mux: Mutex::new(Mux {
                conn: None,
                generation: 0,
                pending: HashMap::new(),
            }),
            seq: AtomicU64::new(1),
            hello_generation: AtomicU64::new(0),
        })
    }

    /// The last host generation seen on this core's connection (0 until
    /// the first hello or probe-ack arrives).
    pub(crate) fn host_generation(&self) -> u64 {
        self.hello_generation.load(Ordering::Relaxed)
    }
}

fn mesh_slot() -> &'static Mutex<Option<Arc<Mesh>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<Mesh>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// The active mesh route, if one is armed.
pub(crate) fn active_mesh() -> Option<Arc<Mesh>> {
    mesh_slot()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

fn staged_faults() -> &'static Mutex<Vec<NetFaultSpec>> {
    static SLOT: OnceLock<Mutex<Vec<NetFaultSpec>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(Vec::new()))
}

/// Arms client-side network faults on the *next* connection the client
/// establishes (one-shot: reconnections after that run clean, so a fault
/// plan exercises recovery rather than permanently wedging the client).
/// Call before [`set_connect`] to fault the first connection.
pub fn set_net_faults(specs: Vec<NetFaultSpec>) {
    *staged_faults()
        .lock()
        .unwrap_or_else(PoisonError::into_inner) = specs;
}

/// Routes all subsequent supervised suite execution in this process to the
/// suite server(s) at `endpoint` — a unix socket path, `tcp:host:port`, or
/// a comma-separated list of either, which arms the shard-aware
/// [`crate::mesh`] routing layer. Connects eagerly so an unreachable
/// server (every host unreachable, for a list) fails fast, here, rather
/// than mid-suite.
pub fn set_connect(endpoint: &str) -> io::Result<()> {
    let mesh = Arc::new(Mesh::connect(endpoint)?);
    *mesh_slot().lock().unwrap_or_else(PoisonError::into_inner) = Some(mesh);
    Ok(())
}

/// Tears down one host core: outstanding requests receive best-effort
/// cancel frames, the connection closes, and waiters are completed dead.
pub(crate) fn teardown_core(core: &Arc<Core>) {
    let mut mux = core.mux.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(conn) = mux.conn.take() {
        for req_id in mux.pending.keys() {
            let _ = conn.write_frame(wire::KIND_CANCEL, &wire::encode_cancel(*req_id));
        }
        conn.shutdown();
    }
    for (_, (_, tx)) in mux.pending.drain() {
        let _ = tx.send(Incoming::Dead);
    }
}

/// Tears down the connect route: every host's outstanding requests receive
/// best-effort cancel frames, the connections close, and suite execution
/// returns to the local tiers.
pub fn clear_connect() {
    let mesh = mesh_slot()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take();
    let Some(mesh) = mesh else { return };
    mesh.teardown();
}

/// `true` while a `--connect` route is armed: suite runs then go to the
/// server instead of the in-process simulation.
pub fn connect_active() -> bool {
    mesh_slot()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .is_some()
}

/// Returns the live connection, dialing a new one if needed. The caller
/// handles errors with backoff; this function makes exactly one attempt.
pub(crate) fn ensure_connected(core: &Arc<Core>) -> io::Result<Arc<FramedConn>> {
    let mut mux = core.mux.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(conn) = &mux.conn {
        if conn.is_alive() {
            return Ok(conn.clone());
        }
        mux.conn = None;
    }
    let sock = Sock::connect(&core.endpoint)?;
    let reader_sock = sock.try_clone()?;
    let faults = std::mem::take(
        &mut *staged_faults()
            .lock()
            .unwrap_or_else(PoisonError::into_inner),
    );
    mux.generation += 1;
    let generation = mux.generation;
    let conn = Arc::new(FramedConn::new(
        generation,
        sock,
        NetFaultRuntime::new(faults),
    ));
    mux.conn = Some(conn.clone());
    drop(mux);
    crate::obs::counter_add("client.connections", 1);
    {
        let core = core.clone();
        let conn = conn.clone();
        std::thread::spawn(move || reader_loop(&core, &conn, reader_sock, generation));
    }
    {
        let conn = conn.clone();
        std::thread::spawn(move || heartbeat_loop(&conn));
    }
    Ok(conn)
}

fn heartbeat_loop(conn: &Arc<FramedConn>) {
    while conn.is_alive() {
        std::thread::sleep(HEARTBEAT_EVERY);
        if !conn.is_alive() || conn.write_frame(wire::KIND_HEARTBEAT, &[]).is_err() {
            return;
        }
    }
}

fn reader_loop(core: &Arc<Core>, conn: &Arc<FramedConn>, mut sock: Sock, generation: u64) {
    let _ = sock.set_read_timeout(Some(Duration::from_millis(100)));
    let mut decoder = wire::StreamDecoder::new();
    let mut buf = [0u8; 64 * 1024];
    'conn: loop {
        if !conn.is_alive() {
            break;
        }
        match sock.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                decoder.extend(&buf[..n]);
                loop {
                    match decoder.next_frame() {
                        Ok(Some((kind, payload))) => {
                            if !dispatch_frame(core, &kind, &payload) {
                                break 'conn;
                            }
                        }
                        Ok(None) => break,
                        Err(violation) => {
                            crate::obs::warn(
                                "client",
                                &format!("server stream violation: {violation}"),
                            );
                            break 'conn;
                        }
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
    conn.shutdown();
    let mut mux = core.mux.lock().unwrap_or_else(PoisonError::into_inner);
    if mux.generation == generation {
        mux.conn = None;
    }
    // Complete this generation's outstanding requests as dead so their
    // waiters reconnect and resend; newer-generation entries are someone
    // else's responsibility.
    mux.pending.retain(|_, (gen, tx)| {
        if *gen == generation {
            let _ = tx.send(Incoming::Dead);
            false
        } else {
            true
        }
    });
}

/// Routes one server frame; `false` abandons the connection.
fn dispatch_frame(core: &Arc<Core>, kind: &u8, payload: &[u8]) -> bool {
    match *kind {
        wire::KIND_REPLY => {
            let Some((req_id, cached, outcome)) = wire::decode_reply(payload) else {
                return false;
            };
            if cached {
                crate::obs::counter_add("client.cache_hits", 1);
            }
            deliver(core, req_id, Incoming::Reply(outcome));
            true
        }
        wire::KIND_BUSY => {
            let Some((req_id, retry_after)) = wire::decode_busy(payload) else {
                return false;
            };
            deliver(core, req_id, Incoming::Busy(retry_after));
            true
        }
        wire::KIND_OBS => {
            // Streamed observability from the server's worker: absorb into
            // this process's trace sink and counters, exactly as the local
            // process tier absorbs a child's forwarded frame.
            if let Some((counters, lines)) = wire::decode_obs(payload) {
                crate::obs::counter_add("wire.obs_frames", 1);
                crate::obs::absorb_forwarded(&counters, &lines);
            }
            true
        }
        wire::KIND_HELLO => {
            let Some((generation, _peers)) = wire::decode_hello(payload) else {
                return false;
            };
            core.hello_generation.store(generation, Ordering::Relaxed);
            true
        }
        wire::KIND_PROBE_ACK => {
            let Some((nonce, generation)) = wire::decode_probe_ack(payload) else {
                return false;
            };
            core.hello_generation.store(generation, Ordering::Relaxed);
            deliver(core, nonce, Incoming::ProbeAck(generation));
            true
        }
        wire::KIND_HEARTBEAT => true,
        _ => false,
    }
}

fn deliver(core: &Arc<Core>, req_id: u64, incoming: Incoming) {
    let tx = core
        .mux
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .pending
        .remove(&req_id);
    if let Some((_, tx)) = tx {
        let _ = tx.send(incoming);
    }
}

fn register(core: &Arc<Core>, req_id: u64, generation: u64) -> mpsc::Receiver<Incoming> {
    let (tx, rx) = mpsc::channel();
    core.mux
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .pending
        .insert(req_id, (generation, tx));
    rx
}

fn unregister(core: &Arc<Core>, req_id: u64) {
    core.mux
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .pending
        .remove(&req_id);
}

/// Exponential reconnect backoff: 50 ms doubling per failure, capped at
/// `RESTUNE_BACKOFF_CAP_MS` (default 1600 ms) through the shared warn-once
/// parser.
pub(crate) fn backoff(failures: u32) -> Duration {
    let cap = crate::envcfg::positive_usize(
        "RESTUNE_BACKOFF_CAP_MS",
        "client",
        "the default backoff cap (1600 ms)",
    )
    .map(|ms| ms as u64)
    .unwrap_or(DEFAULT_BACKOFF_CAP_MS);
    Duration::from_millis((50u64 << failures.min(20)).min(cap))
}

/// One liveness probe against a host: dial if needed, send a probe frame,
/// and wait up to `timeout` for its acknowledgement. `Some(generation)` on
/// success — the breaker uses the generation to detect a restart — `None`
/// on any failure.
pub(crate) fn probe_host(core: &Arc<Core>, timeout: Duration) -> Option<u64> {
    let Ok(conn) = ensure_connected(core) else {
        return None;
    };
    let nonce = core.seq.fetch_add(1, Ordering::Relaxed);
    let rx = register(core, nonce, conn.id);
    if conn
        .write_frame(wire::KIND_PROBE, &wire::encode_probe(nonce))
        .is_err()
    {
        unregister(core, nonce);
        return None;
    }
    let deadline = Instant::now() + timeout;
    loop {
        match rx.recv_timeout(Duration::from_millis(25)) {
            Ok(Incoming::ProbeAck(generation)) => return Some(generation),
            Ok(_) | Err(mpsc::RecvTimeoutError::Disconnected) => {
                unregister(core, nonce);
                return None;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if Instant::now() >= deadline {
                    unregister(core, nonce);
                    return None;
                }
            }
        }
    }
}

/// Hard-closes the host's current connection (the chaos conductor's
/// partition window): in-flight waiters complete dead and fail over; the
/// next attempt after the window re-dials cleanly.
pub(crate) fn sever(core: &Arc<Core>) {
    let mux = core.mux.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(conn) = &mux.conn {
        conn.shutdown();
    }
}

/// Runs one application attempt on the connected suite server. `None` when
/// no `--connect` route is armed or the job is not wire-encodable (the
/// caller then executes locally); `Some` carries the server's outcome.
pub(crate) fn remote_attempt(
    profile: &WorkloadProfile,
    technique: &Technique,
    sim: &SimConfig,
    specs: &[FaultSpec],
    timeout: Option<Duration>,
) -> Option<Result<InstrumentedRun, (FailureKind, String)>> {
    let mesh = active_mesh()?;
    // The same eligibility gate as the process-isolation tier: the wire
    // codec sends the profile by name and the machine by instruction
    // budget, so only registry profiles on the isca04 preset can cross.
    if registry::by_name(profile.name) != Some(*profile)
        || *sim != SimConfig::isca04(sim.instructions)
    {
        static WARNED: AtomicBool = AtomicBool::new(false);
        if !WARNED.swap(true, Ordering::Relaxed) {
            crate::obs::warn(
                "client",
                "job is not wire-encodable (non-registry profile or non-isca04 machine); \
                 running locally despite --connect",
            );
        }
        return None;
    }
    Some(mesh.request(profile, technique, sim, specs, timeout))
}

/// How one request attempt against one host ended, from the mesh's point
/// of view.
pub(crate) enum HostAttempt {
    /// The host answered (a result, a classified failure, an exhausted
    /// busy budget, an interrupt, or exhausted patience) — terminal for
    /// the request; failing over could only change report bytes.
    Reply(Result<InstrumentedRun, (FailureKind, String)>),
    /// The host is unreachable or its connection kept dying within the
    /// reconnect budget: the mesh should fail over to the next host.
    Down(String),
}

/// Runs one request against one host: connect (within `reconnect_budget`
/// attempts), send, and await the reply — resending on a dead connection,
/// which is idempotent because the server caches completed results by
/// fingerprint. `busy_spent` accumulates across hosts so a mesh-wide busy
/// storm still respects one budget.
#[allow(clippy::too_many_arguments)]
pub(crate) fn host_request(
    core: &Arc<Core>,
    job: &[u8],
    profile_name: &str,
    want_obs: bool,
    reconnect_budget: u32,
    started: Instant,
    patience: Duration,
    busy_spent: &mut Duration,
) -> HostAttempt {
    let mut connect_failures: u32 = 0;
    let interrupted = || {
        HostAttempt::Reply(Err((
            FailureKind::Interrupted,
            "shutdown signal received; remote attempt abandoned".to_string(),
        )))
    };
    let patience_exhausted = || {
        HostAttempt::Reply(Err((
            FailureKind::Transport,
            format!("no server reply within the {patience:?} request budget"),
        )))
    };
    loop {
        if crate::isolation::shutdown_requested() {
            return interrupted();
        }
        if started.elapsed() > patience {
            return patience_exhausted();
        }
        let conn = match ensure_connected(core) {
            Ok(conn) => conn,
            Err(e) => {
                connect_failures += 1;
                if connect_failures > reconnect_budget {
                    return HostAttempt::Down(format!(
                        "server unreachable after {connect_failures} attempts: {e}"
                    ));
                }
                std::thread::sleep(backoff(connect_failures - 1));
                continue;
            }
        };
        let req_id = core.seq.fetch_add(1, Ordering::Relaxed);
        let rx = register(core, req_id, conn.id);
        let request = wire::encode_request(req_id, want_obs, job);
        if conn.write_frame(wire::KIND_REQUEST, &request).is_err() {
            unregister(core, req_id);
            connect_failures += 1;
            if connect_failures > reconnect_budget {
                return HostAttempt::Down(format!(
                    "request write kept failing after {connect_failures} attempts"
                ));
            }
            std::thread::sleep(backoff(connect_failures - 1));
            continue;
        }
        // Await the reply in short slices so shutdown stays responsive.
        loop {
            if crate::isolation::shutdown_requested() {
                let _ = conn.write_frame(wire::KIND_CANCEL, &wire::encode_cancel(req_id));
                unregister(core, req_id);
                return interrupted();
            }
            if started.elapsed() > patience {
                let _ = conn.write_frame(wire::KIND_CANCEL, &wire::encode_cancel(req_id));
                unregister(core, req_id);
                return patience_exhausted();
            }
            match rx.recv_timeout(Duration::from_millis(100)) {
                Ok(Incoming::Reply(outcome)) => {
                    return HostAttempt::Reply(match outcome {
                        Ok(inst) if inst.result.app != profile_name => Err((
                            FailureKind::Transport,
                            format!(
                                "server replied for app '{}' but '{}' was asked",
                                inst.result.app, profile_name
                            ),
                        )),
                        other => other,
                    });
                }
                Ok(Incoming::Busy(retry_after)) => {
                    // Admission rejected: honor the hint, within bounds.
                    // The nap is clamped to the remaining budget, so a
                    // large server retry-after cannot overshoot it by a
                    // whole nap before the check fires. A resend is a
                    // fresh request, so it re-enters this loop.
                    let remaining = BUSY_BUDGET.saturating_sub(*busy_spent);
                    let nap = retry_after
                        .max(Duration::from_millis(10))
                        .min(Duration::from_secs(1))
                        .min(remaining);
                    *busy_spent += nap;
                    if *busy_spent >= BUSY_BUDGET {
                        return HostAttempt::Reply(Err((
                            FailureKind::Transport,
                            format!(
                                "server stayed busy for {busy_spent:?} \
                                 (admission queue never opened)"
                            ),
                        )));
                    }
                    crate::obs::counter_add("client.busy_retries", 1);
                    std::thread::sleep(nap);
                    break;
                }
                Ok(Incoming::ProbeAck(_)) => {
                    // A stray ack (a late probe raced this request id);
                    // keep waiting for the real reply.
                    continue;
                }
                Ok(Incoming::Dead) => {
                    // Reconnect and resend: the server caches completed
                    // results by fingerprint, so the resend is idempotent —
                    // a job that finished before the cut comes back as a
                    // cache hit, bit-exactly.
                    connect_failures += 1;
                    if connect_failures > reconnect_budget {
                        return HostAttempt::Down(format!(
                            "connection kept dying ({connect_failures} attempts)"
                        ));
                    }
                    crate::obs::counter_add("client.reconnects", 1);
                    std::thread::sleep(backoff(connect_failures - 1));
                    break;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    // The reader dropped the sender without a message —
                    // equivalent to a dead connection.
                    unregister(core, req_id);
                    connect_failures += 1;
                    if connect_failures > reconnect_budget {
                        return HostAttempt::Down(format!(
                            "connection kept dying ({connect_failures} attempts)"
                        ));
                    }
                    std::thread::sleep(backoff(connect_failures - 1));
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testenv::with_env;

    #[test]
    fn backoff_doubles_and_caps() {
        with_env(&[("RESTUNE_BACKOFF_CAP_MS", None)], || {
            assert_eq!(backoff(0), Duration::from_millis(50));
            assert_eq!(backoff(1), Duration::from_millis(100));
            assert_eq!(backoff(4), Duration::from_millis(800));
            assert_eq!(backoff(5), Duration::from_millis(1600));
            assert_eq!(backoff(40), Duration::from_millis(1600), "capped");
        });
    }

    #[test]
    fn backoff_cap_reads_its_env_knob() {
        with_env(&[("RESTUNE_BACKOFF_CAP_MS", Some("200"))], || {
            assert_eq!(backoff(0), Duration::from_millis(50));
            assert_eq!(backoff(2), Duration::from_millis(200), "tight cap");
            assert_eq!(backoff(9), Duration::from_millis(200));
        });
        // Invalid values fall back through the shared warn-once parser.
        crate::envcfg::reset_warnings();
        with_env(&[("RESTUNE_BACKOFF_CAP_MS", Some("not-a-number"))], || {
            assert_eq!(backoff(5), Duration::from_millis(1600));
        });
    }

    #[test]
    fn connect_is_inactive_by_default_and_clear_is_idempotent() {
        // Serialized implicitly: no test in this binary arms a route.
        assert!(!connect_active());
        clear_connect();
        assert!(!connect_active());
    }
}
