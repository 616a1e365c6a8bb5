//! The multi-tenant suite server behind the `restuned` binary: a
//! long-running process that accepts suite jobs over a unix socket (or TCP
//! behind the `tcp:` endpoint prefix), schedules them fairly across
//! tenants onto a supervised worker pool, and serves repeated work from a
//! shared content-keyed result cache.
//!
//! The robustness surface is the point of this module:
//!
//! * **bounded admission** — a queue limit enforced at request time; an
//!   over-limit request is rejected with an explicit retry-after frame
//!   ([`crate::wire::KIND_BUSY`]), never buffered without bound;
//! * **per-request deadlines** — a job's own deadline (or the server
//!   default) propagates into the same watchdog the in-process engine
//!   uses, so no tenant can pin a worker forever;
//! * **fair scheduling** — tenants take round-robin turns: one queued job
//!   per turn, so a tenant with a deep queue cannot starve the others;
//! * **per-client fault containment** — a torn frame, a slow-loris write,
//!   or a protocol violation kills *that connection only* (the strict
//!   [`crate::wire::StreamDecoder`] treats any malformed byte as a
//!   violation); every other tenant is unaffected;
//! * **graceful drain** — [`Server::drain_and_stop`] stops admitting,
//!   finishes queued and in-flight jobs (each completed job lands in the
//!   persistent result cache), then closes; a SIGTERM'd `restuned` does
//!   exactly this, so a restarted server resumes from the cache;
//! * **crash-consistent result cache** — every completed job is one
//!   [`RunStore`] record under `server/store/` in the cache directory,
//!   fsync'd and renamed into place before its reply is sent, so the same
//!   job is never simulated twice, across tenants *and* across server
//!   restarts.
//!
//! Seeded *network* fault injection (`ServerConfig::net_fault_seed`,
//! `restuned --faults`) arms a deterministic subset of accepted
//! connections with [`crate::fault::NetFaultSpec`] plans — the server
//! deliberately misbehaves toward those clients (truncated frames,
//! mid-stream disconnects) so reconnect-resume is exercised end to end.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::engine::CacheKey;
use crate::fault::{FailureKind, NetFaultRuntime};
use crate::sweep::RunStore;
use crate::wire;

// ---------------------------------------------------------------------------
// Endpoints and sockets
// ---------------------------------------------------------------------------

/// Where a suite server listens (or a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A unix-domain socket at the given filesystem path.
    Unix(PathBuf),
    /// A TCP `host:port` address (written as `tcp:host:port`).
    Tcp(String),
}

impl Endpoint {
    /// Parses an endpoint string: a `tcp:` prefix selects TCP, anything
    /// else is a unix socket path.
    pub fn parse(raw: &str) -> Endpoint {
        match raw.strip_prefix("tcp:") {
            Some(addr) => Endpoint::Tcp(addr.to_string()),
            None => Endpoint::Unix(PathBuf::from(raw)),
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// One connected stream, unix or TCP, behind a uniform surface.
#[derive(Debug)]
pub(crate) enum Sock {
    /// A unix-domain stream.
    #[cfg(unix)]
    Unix(UnixStream),
    /// A TCP stream.
    Tcp(TcpStream),
}

impl Sock {
    pub(crate) fn connect(endpoint: &Endpoint) -> io::Result<Sock> {
        match endpoint {
            #[cfg(unix)]
            Endpoint::Unix(path) => Ok(Sock::Unix(UnixStream::connect(path)?)),
            #[cfg(not(unix))]
            Endpoint::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix-domain sockets are unavailable on this platform",
            )),
            Endpoint::Tcp(addr) => Ok(Sock::Tcp(TcpStream::connect(addr)?)),
        }
    }

    pub(crate) fn try_clone(&self) -> io::Result<Sock> {
        match self {
            #[cfg(unix)]
            Sock::Unix(s) => Ok(Sock::Unix(s.try_clone()?)),
            Sock::Tcp(s) => Ok(Sock::Tcp(s.try_clone()?)),
        }
    }

    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Sock::Unix(s) => s.set_read_timeout(timeout),
            Sock::Tcp(s) => s.set_read_timeout(timeout),
        }
    }

    /// Hard-closes both directions; a blocked reader on a clone of this
    /// socket wakes with EOF. Errors are ignored — the socket may already
    /// be gone, which is the state this call wants anyway.
    pub(crate) fn shutdown(&self) {
        match self {
            #[cfg(unix)]
            Sock::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            Sock::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for Sock {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Sock::Unix(s) => s.read(buf),
            Sock::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Sock {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Sock::Unix(s) => s.write(buf),
            Sock::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Sock::Unix(s) => s.flush(),
            Sock::Tcp(s) => s.flush(),
        }
    }
}

/// The write half of one framed connection, shared between the threads
/// that may send on it (reader replies, worker replies, heartbeats). All
/// outgoing frames pass through the per-connection [`NetFaultRuntime`], so
/// an armed network fault plan perturbs real traffic.
pub(crate) struct FramedConn {
    pub(crate) id: u64,
    sock: Mutex<Sock>,
    faults: Mutex<NetFaultRuntime>,
    alive: AtomicBool,
}

impl std::fmt::Debug for FramedConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FramedConn(#{}, alive={})", self.id, self.is_alive())
    }
}

impl FramedConn {
    pub(crate) fn new(id: u64, sock: Sock, faults: NetFaultRuntime) -> Self {
        Self {
            id,
            sock: Mutex::new(sock),
            faults: Mutex::new(faults),
            alive: AtomicBool::new(true),
        }
    }

    pub(crate) fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Relaxed)
    }

    /// Marks the connection dead and hard-closes the socket, waking any
    /// blocked reader on a clone with EOF. Idempotent.
    pub(crate) fn shutdown(&self) {
        self.alive.store(false, Ordering::Relaxed);
        self.sock
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .shutdown();
    }

    /// Writes one frame, routed through the connection's network-fault
    /// plan. Any write error (including an injected truncation or drop)
    /// kills the connection.
    pub(crate) fn write_frame(&self, kind: u8, payload: &[u8]) -> io::Result<()> {
        if !self.is_alive() {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "connection is closed",
            ));
        }
        let frame = wire::encode_frame(kind, payload);
        let action = {
            let mut faults = self.faults.lock().unwrap_or_else(PoisonError::into_inner);
            if faults.is_armed() {
                faults.on_frame()
            } else {
                crate::fault::NetAction::Pass
            }
        };
        let mut sock = self.sock.lock().unwrap_or_else(PoisonError::into_inner);
        use crate::fault::NetAction;
        let result = match action {
            NetAction::Pass => sock.write_all(&frame).and_then(|()| sock.flush()),
            NetAction::Stall { millis } => {
                // Slow-loris: the first half lands, then nothing for the
                // stall, then the rest. Holding the sock lock for the
                // duration is deliberate — a real dripping peer blocks
                // everything behind it on this stream too.
                let half = frame.len() / 2;
                sock.write_all(&frame[..half])
                    .and_then(|()| sock.flush())
                    .and_then(|()| {
                        std::thread::sleep(Duration::from_millis(millis));
                        sock.write_all(&frame[half..])
                    })
                    .and_then(|()| sock.flush())
            }
            NetAction::Truncate => {
                let _ = sock.write_all(&frame[..frame.len() / 2]);
                let _ = sock.flush();
                Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "injected frame truncation",
                ))
            }
            NetAction::Drop => Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "injected disconnect",
            )),
        };
        if result.is_err() {
            self.alive.store(false, Ordering::Relaxed);
            sock.shutdown();
        }
        result
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Tunables for a [`Server`]. [`ServerConfig::from_env`] reads the
/// `RESTUNE_SERVER_*` knobs through the shared warn-once env parser.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum queued (admitted but not yet running) jobs across all
    /// tenants; requests beyond it are rejected with a busy frame.
    pub queue_limit: usize,
    /// Maximum simultaneously connected clients; connections beyond it are
    /// refused at accept time.
    pub max_clients: usize,
    /// Watchdog deadline applied to jobs that carry none of their own.
    pub default_deadline: Option<Duration>,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// How long a connection may hold an incomplete frame before it is
    /// killed as a slow-loris writer.
    pub frame_timeout: Duration,
    /// The retry-after hint carried by busy (admission-rejected) frames.
    pub retry_after: Duration,
    /// When set, arms deterministic per-connection network fault plans
    /// (see [`crate::fault::NetFaultSpec`]) on a seeded subset of accepted
    /// connections.
    pub net_fault_seed: Option<u64>,
    /// Cache directory override (the result store lives in its
    /// `server/store/`); defaults to the engine's baseline cache directory.
    pub cache_dir: Option<PathBuf>,
    /// Host generation tag announced in the hello frame on every accepted
    /// connection. `None` derives a fresh tag per [`Server::start`], so a
    /// restarted host is distinguishable from the process it replaced.
    pub generation: Option<u64>,
    /// Mesh-peer endpoints advertised in the hello frame (the `restuned`
    /// `--mesh-peer` flag); informational for clients building a host list.
    pub mesh_peers: Vec<String>,
}

/// Default bound on queued jobs.
const DEFAULT_QUEUE_LIMIT: usize = 256;
/// Default bound on simultaneous clients.
const DEFAULT_MAX_CLIENTS: usize = 64;
/// Default per-request watchdog deadline in seconds.
const DEFAULT_DEADLINE_SECS: f64 = 120.0;

impl ServerConfig {
    /// Builds a configuration from the environment: `RESTUNE_SERVER_QUEUE`
    /// (default 256), `RESTUNE_SERVER_CLIENTS` (default 64),
    /// `RESTUNE_SERVER_DEADLINE` seconds (default 120), and
    /// `RESTUNE_WORKERS` (default: available parallelism) — each through
    /// the shared warn-once parser, so an invalid value warns exactly once
    /// and falls back.
    pub fn from_env() -> Self {
        let queue_limit = crate::envcfg::positive_usize(
            "RESTUNE_SERVER_QUEUE",
            "server",
            "the default queue limit (256)",
        )
        .unwrap_or(DEFAULT_QUEUE_LIMIT);
        let max_clients = crate::envcfg::positive_usize(
            "RESTUNE_SERVER_CLIENTS",
            "server",
            "the default client limit (64)",
        )
        .unwrap_or(DEFAULT_MAX_CLIENTS);
        let deadline = crate::envcfg::positive_f64(
            "RESTUNE_SERVER_DEADLINE",
            "server",
            "the default request deadline (120s)",
        )
        .unwrap_or(DEFAULT_DEADLINE_SECS);
        let workers =
            crate::envcfg::positive_usize("RESTUNE_WORKERS", "server", "available parallelism")
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                });
        Self {
            queue_limit,
            max_clients,
            default_deadline: Some(Duration::from_secs_f64(deadline)),
            workers,
            frame_timeout: Duration::from_secs(5),
            retry_after: Duration::from_millis(100),
            net_fault_seed: None,
            cache_dir: None,
            generation: None,
            mesh_peers: Vec::new(),
        }
    }
}

/// Derives a fresh host generation: wall time mixed with the process id and
/// a process-wide counter, so two starts — across processes *or* within one
/// test process — never collide in practice.
fn fresh_generation() -> u64 {
    static STARTS: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let start = STARTS.fetch_add(1, Ordering::Relaxed);
    crate::engine::fnv1a(format!("gen|{nanos}|{}|{start}", std::process::id()).as_bytes())
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

/// One admitted job waiting for (or holding) a worker.
struct PendingJob {
    conn: Arc<FramedConn>,
    req_id: u64,
    want_obs: bool,
    job: wire::Job,
}

/// Round-robin tenant scheduler state. `rr` holds each tenant with a
/// non-empty queue exactly once; a worker pops the front tenant, takes one
/// job, and re-queues the tenant behind everyone else.
#[derive(Default)]
struct Sched {
    queues: HashMap<u64, VecDeque<PendingJob>>,
    rr: VecDeque<u64>,
    queued: usize,
    in_flight: usize,
    cancelled: HashSet<(u64, u64)>,
}

impl Sched {
    fn push(&mut self, job: PendingJob) {
        let conn_id = job.conn.id;
        let queue = self.queues.entry(conn_id).or_default();
        if queue.is_empty() {
            self.rr.push_back(conn_id);
        }
        queue.push_back(job);
        self.queued += 1;
    }

    fn pop(&mut self) -> Option<PendingJob> {
        while let Some(conn_id) = self.rr.pop_front() {
            let Some(queue) = self.queues.get_mut(&conn_id) else {
                continue; // tenant disconnected since it was queued
            };
            let Some(job) = queue.pop_front() else {
                self.queues.remove(&conn_id);
                continue;
            };
            self.queued -= 1;
            if queue.is_empty() {
                self.queues.remove(&conn_id);
            } else {
                self.rr.push_back(conn_id);
            }
            return Some(job);
        }
        None
    }

    fn drop_tenant(&mut self, conn_id: u64) {
        if let Some(queue) = self.queues.remove(&conn_id) {
            self.queued -= queue.len();
        }
        self.rr.retain(|id| *id != conn_id);
        self.cancelled.retain(|(cid, _)| *cid != conn_id);
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    jobs_run: AtomicU64,
    job_failures: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    busy_rejections: AtomicU64,
    protocol_errors: AtomicU64,
    slow_loris_kills: AtomicU64,
    cancelled: AtomicU64,
    probes: AtomicU64,
}

/// A snapshot of a server's lifetime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted (including ones since closed).
    pub connections: u64,
    /// Jobs executed (cache hits excluded).
    pub jobs_run: u64,
    /// Executed jobs that ended in a classified failure.
    pub job_failures: u64,
    /// Requests served from the shared result cache.
    pub cache_hits: u64,
    /// Requests that had to simulate.
    pub cache_misses: u64,
    /// Requests rejected with a busy frame (admission or drain).
    pub busy_rejections: u64,
    /// Connections killed for protocol violations (torn or malformed
    /// frames, unexpected kinds).
    pub protocol_errors: u64,
    /// Connections killed for holding a partial frame past the frame
    /// timeout.
    pub slow_loris_kills: u64,
    /// Jobs cancelled by their tenant before execution.
    pub cancelled: u64,
    /// Circuit-breaker probe frames answered.
    pub probes: u64,
}

// ---------------------------------------------------------------------------
// Listener
// ---------------------------------------------------------------------------

enum Listener {
    #[cfg(unix)]
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn bind(endpoint: &Endpoint) -> io::Result<Listener> {
        match endpoint {
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                // A stale socket file from a crashed predecessor would make
                // bind fail; remove it. A *live* predecessor is not
                // detected — last binder wins, as with any pidfile-less
                // daemon.
                let _ = std::fs::remove_file(path);
                if let Some(dir) = path.parent() {
                    if !dir.as_os_str().is_empty() {
                        std::fs::create_dir_all(dir)?;
                    }
                }
                let listener = UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                Ok(Listener::Unix(listener))
            }
            #[cfg(not(unix))]
            Endpoint::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix-domain sockets are unavailable on this platform",
            )),
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr)?;
                listener.set_nonblocking(true)?;
                Ok(Listener::Tcp(listener))
            }
        }
    }

    /// Non-blocking accept: `Ok(None)` when no connection is pending.
    fn accept(&self) -> io::Result<Option<Sock>> {
        let result = match self {
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Sock::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Sock::Tcp(s)),
        };
        match result {
            Ok(sock) => Ok(Some(sock)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

struct Shared {
    cfg: ServerConfig,
    sched: Mutex<Sched>,
    work_ready: Condvar,
    draining: AtomicBool,
    stopping: AtomicBool,
    stalled: AtomicBool,
    conns: Mutex<HashMap<u64, Arc<FramedConn>>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
    store: RunStore,
    store_write_warned: AtomicBool,
    counters: Counters,
    next_conn_id: AtomicU64,
    generation: u64,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stopping.load(Ordering::Relaxed)
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    fn stalled(&self) -> bool {
        self.stalled.load(Ordering::Relaxed)
    }

    fn count(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Persists one completed job. A failed write degrades to no caching
    /// (warned once): results stay correct, the job simply re-simulates
    /// when asked again.
    fn persist(&self, key: &CacheKey, payload: &[u8]) {
        if let Err(e) = self.store.put_payload(key, payload) {
            if !self.store_write_warned.swap(true, Ordering::Relaxed) {
                crate::obs::warn(
                    "server",
                    &format!(
                        "{}: result-store write failed ({e}); completed jobs are not cached",
                        self.store.dir().display()
                    ),
                );
            }
        }
    }
}

/// A running suite server. Start one with [`Server::start`], stop it with
/// [`Server::drain_and_stop`]; dropping it without draining performs an
/// abrupt (but non-blocking-safe) stop.
pub struct Server {
    shared: Arc<Shared>,
    endpoint: Endpoint,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    stopped: bool,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Server({})", self.endpoint)
    }
}

impl Server {
    /// Binds `endpoint`, bounds the persistent result store (the sweep
    /// store's `RESTUNE_STORE_MAX_BYTES` / `RESTUNE_STORE_MAX_AGE_SECS`
    /// eviction), and spawns the accept loop and worker pool. Nothing is
    /// loaded: every lookup reads its one record.
    pub fn start(endpoint: Endpoint, cfg: ServerConfig) -> io::Result<Server> {
        let listener = Listener::bind(&endpoint)?;
        let server_dir = cfg
            .cache_dir
            .clone()
            .unwrap_or_else(crate::engine::baseline_cache_dir)
            .join("server");
        let store = RunStore::open(server_dir.join("store"));
        store.evict();
        // The single-file cache of earlier releases: its rows are not
        // migrated (each is one cheap re-simulation), only deleted.
        let legacy = server_dir.join("results.tsv");
        if std::fs::remove_file(&legacy).is_ok() {
            crate::obs::warn(
                "server",
                &format!("removed the legacy result cache {}", legacy.display()),
            );
        }
        let workers_wanted = cfg.workers.max(1);
        let generation = cfg.generation.unwrap_or_else(fresh_generation);
        let shared = Arc::new(Shared {
            cfg,
            sched: Mutex::new(Sched::default()),
            work_ready: Condvar::new(),
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            stalled: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            readers: Mutex::new(Vec::new()),
            store,
            store_write_warned: AtomicBool::new(false),
            counters: Counters::default(),
            next_conn_id: AtomicU64::new(1),
            generation,
        });
        let workers = (0..workers_wanted)
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let accept = {
            let shared = shared.clone();
            std::thread::spawn(move || accept_loop(&shared, listener))
        };
        Ok(Server {
            shared,
            endpoint,
            accept: Some(accept),
            workers,
            stopped: false,
        })
    }

    /// The endpoint this server is listening on.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The host generation tag announced to every connecting client.
    pub fn generation(&self) -> u64 {
        self.shared.generation
    }

    /// Pauses (`true`) or resumes (`false`) the worker pool. A stalled host
    /// keeps accepting and queueing requests but executes nothing — the
    /// chaos conductor uses this to model a wedged-but-connected host.
    /// Admission control still applies, so a long stall degrades into busy
    /// frames rather than unbounded queueing.
    pub fn set_stalled(&self, stalled: bool) {
        self.shared.stalled.store(stalled, Ordering::Relaxed);
        if !stalled {
            self.shared.work_ready.notify_all();
        }
    }

    /// Stalls the worker pool for `window`, then resumes it from a helper
    /// thread. The chaos conductor's bounded-stall primitive: the window
    /// heals by itself even if the conductor is dropped meanwhile.
    pub fn stall_for(&self, window: Duration) {
        self.shared.stalled.store(true, Ordering::Relaxed);
        let shared = self.shared.clone();
        std::thread::spawn(move || {
            std::thread::sleep(window);
            shared.stalled.store(false, Ordering::Relaxed);
            shared.work_ready.notify_all();
        });
    }

    /// Stops admitting new requests: from here on every request is
    /// answered with a busy frame and new connections are refused. Queued
    /// and in-flight jobs keep running.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::Relaxed);
        // A stalled host must still be able to finish its queue and leave.
        self.shared.stalled.store(false, Ordering::Relaxed);
        self.shared.work_ready.notify_all();
    }

    /// A snapshot of the lifetime counters.
    pub fn stats(&self) -> ServerStats {
        let c = &self.shared.counters;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ServerStats {
            connections: get(&c.connections),
            jobs_run: get(&c.jobs_run),
            job_failures: get(&c.job_failures),
            cache_hits: get(&c.cache_hits),
            cache_misses: get(&c.cache_misses),
            busy_rejections: get(&c.busy_rejections),
            protocol_errors: get(&c.protocol_errors),
            slow_loris_kills: get(&c.slow_loris_kills),
            cancelled: get(&c.cancelled),
            probes: get(&c.probes),
        }
    }

    /// Graceful shutdown: drain admissions, let queued and in-flight jobs
    /// finish (every completed job is already persisted in the result
    /// store), then stop every thread, close every connection, and remove
    /// the unix socket file. Returns the final counters.
    pub fn drain_and_stop(mut self) -> ServerStats {
        self.begin_drain();
        loop {
            {
                let sched = self
                    .shared
                    .sched
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                if sched.queued == 0 && sched.in_flight == 0 {
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.stop_threads();
        self.stopped = true;
        self.stats()
    }

    fn stop_threads(&mut self) {
        self.shared.stopping.store(true, Ordering::Relaxed);
        self.shared.draining.store(true, Ordering::Relaxed);
        self.shared.stalled.store(false, Ordering::Relaxed);
        self.shared.work_ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let conns: Vec<_> = self
            .shared
            .conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain()
            .map(|(_, conn)| conn)
            .collect();
        for conn in conns {
            conn.shutdown();
        }
        let readers: Vec<_> = self
            .shared
            .readers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for reader in readers {
            let _ = reader.join();
        }
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.stopped {
            self.stop_threads();
        }
    }
}

// ---------------------------------------------------------------------------
// Accept loop
// ---------------------------------------------------------------------------

fn accept_loop(shared: &Arc<Shared>, listener: Listener) {
    loop {
        if shared.stopping() {
            return;
        }
        let sock = match listener.accept() {
            Ok(Some(sock)) => sock,
            Ok(None) => {
                std::thread::sleep(Duration::from_millis(25));
                continue;
            }
            Err(_) => {
                std::thread::sleep(Duration::from_millis(25));
                continue;
            }
        };
        if shared.draining() {
            // Drain refuses new connections outright: a fast EOF tells the
            // client to fail over (or fail fast) instead of queueing behind
            // a server that is on its way out.
            sock.shutdown();
            continue;
        }
        let over_limit = {
            let conns = shared.conns.lock().unwrap_or_else(PoisonError::into_inner);
            conns.len() >= shared.cfg.max_clients
        };
        if over_limit {
            // Best-effort busy frame (request id 0: no request exists yet),
            // then close. The client treats EOF the same way.
            let mut sock = sock;
            let busy = wire::encode_frame(
                wire::KIND_BUSY,
                &wire::encode_busy(0, shared.cfg.retry_after),
            );
            let _ = sock.write_all(&busy);
            let _ = sock.flush();
            sock.shutdown();
            shared.count(&shared.counters.busy_rejections);
            continue;
        }
        let Ok(reader_sock) = sock.try_clone() else {
            sock.shutdown();
            continue;
        };
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        let faults = match shared.cfg.net_fault_seed {
            Some(seed) => crate::fault::seeded_net_faults(seed, conn_id),
            None => Vec::new(),
        };
        if !faults.is_empty() {
            crate::obs::warn(
                "server",
                &format!(
                    "connection #{conn_id}: armed injected net faults {:?}",
                    faults.iter().map(|f| f.class()).collect::<Vec<_>>()
                ),
            );
        }
        let conn = Arc::new(FramedConn::new(conn_id, sock, NetFaultRuntime::new(faults)));
        shared
            .conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(conn_id, conn.clone());
        shared.count(&shared.counters.connections);
        // First frame on every connection: the host generation (so a mesh
        // client can tell a restart from a reconnect) plus advertised peers.
        // It passes through the net-fault plan like any other frame — a
        // torn hello kills this connection, which is exactly what a client
        // dialing a faulty host should observe.
        let _ = conn.write_frame(
            wire::KIND_HELLO,
            &wire::encode_hello(shared.generation, &shared.cfg.mesh_peers),
        );
        let shared2 = shared.clone();
        let handle = std::thread::spawn(move || reader_loop(&shared2, &conn, reader_sock));
        let mut readers = shared
            .readers
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // Join the readers of connections that have closed: an exited but
        // unjoined thread keeps its stack mapped, and a long-lived server
        // would run out of mappings.
        for finished in readers.extract_if(.., |reader| reader.is_finished()) {
            let _ = finished.join();
        }
        readers.push(handle);
    }
}

// ---------------------------------------------------------------------------
// Per-connection reader
// ---------------------------------------------------------------------------

/// Why a reader gave up on its connection (observability only).
enum ConnDeath {
    Eof,
    IoError,
    Protocol,
    SlowLoris,
    Stopping,
}

fn reader_loop(shared: &Arc<Shared>, conn: &Arc<FramedConn>, mut sock: Sock) {
    let _ = sock.set_read_timeout(Some(Duration::from_millis(100)));
    let mut decoder = wire::StreamDecoder::new();
    let mut partial_since: Option<Instant> = None;
    let mut buf = [0u8; 16 * 1024];
    let death = 'conn: loop {
        if shared.stopping() || !conn.is_alive() {
            break ConnDeath::Stopping;
        }
        // The slow-loris check runs every iteration, not only on a read
        // timeout: a peer dripping one byte per poll interval never *hits*
        // the timeout branch, yet holds a partial frame forever.
        if let Some(since) = partial_since {
            if since.elapsed() > shared.cfg.frame_timeout {
                break ConnDeath::SlowLoris;
            }
        }
        match sock.read(&mut buf) {
            Ok(0) => break ConnDeath::Eof,
            Ok(n) => {
                decoder.extend(&buf[..n]);
                loop {
                    match decoder.next_frame() {
                        Ok(Some((kind, payload))) => {
                            if !handle_frame(shared, conn, kind, &payload) {
                                break 'conn ConnDeath::Protocol;
                            }
                        }
                        Ok(None) => break,
                        Err(violation) => {
                            crate::obs::warn(
                                "server",
                                &format!("connection #{}: {violation}", conn.id),
                            );
                            break 'conn ConnDeath::Protocol;
                        }
                    }
                }
                partial_since = if decoder.has_partial() {
                    partial_since.or_else(|| Some(Instant::now()))
                } else {
                    None
                };
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
            Err(_) => break ConnDeath::IoError,
        }
    };
    match death {
        ConnDeath::Protocol => shared.count(&shared.counters.protocol_errors),
        ConnDeath::SlowLoris => {
            crate::obs::warn(
                "server",
                &format!(
                    "connection #{}: partial frame older than {:?}; killing slow-loris writer",
                    conn.id, shared.cfg.frame_timeout
                ),
            );
            shared.count(&shared.counters.slow_loris_kills);
        }
        ConnDeath::Eof | ConnDeath::IoError | ConnDeath::Stopping => {}
    }
    // Containment boundary: everything this tenant still had queued dies
    // with the connection; in-flight jobs finish (their results are cached
    // for the tenant's reconnect) and their reply writes fail silently.
    conn.shutdown();
    shared
        .conns
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .remove(&conn.id);
    shared
        .sched
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .drop_tenant(conn.id);
}

/// Handles one decoded frame; `false` kills the connection as a protocol
/// violation.
fn handle_frame(shared: &Arc<Shared>, conn: &Arc<FramedConn>, kind: u8, payload: &[u8]) -> bool {
    match kind {
        wire::KIND_HEARTBEAT => true,
        wire::KIND_PROBE => {
            let Some(nonce) = wire::decode_probe(payload) else {
                return false;
            };
            shared.count(&shared.counters.probes);
            // Answered from the reader thread, never queued: a probe's job
            // is to measure liveness, not worker capacity. Answering while
            // draining is deliberate — the host is alive, merely leaving.
            let _ = conn.write_frame(
                wire::KIND_PROBE_ACK,
                &wire::encode_probe_ack(nonce, shared.generation),
            );
            true
        }
        wire::KIND_CANCEL => {
            let Some(req_id) = wire::decode_cancel(payload) else {
                return false;
            };
            shared
                .sched
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .cancelled
                .insert((conn.id, req_id));
            true
        }
        wire::KIND_REQUEST => {
            let Some((req_id, want_obs, job_bytes)) = wire::decode_request(payload) else {
                return false; // the request frame itself is malformed
            };
            let busy = |r: &Arc<FramedConn>| {
                shared.count(&shared.counters.busy_rejections);
                let _ = r.write_frame(
                    wire::KIND_BUSY,
                    &wire::encode_busy(req_id, shared.cfg.retry_after),
                );
            };
            if shared.draining() || shared.stopping() {
                busy(conn);
                return true;
            }
            // A request that decodes as a frame but whose *job* does not
            // decode is this tenant's own malformed content: it gets a
            // classified failure reply, not a connection kill.
            let Some(job) = wire::decode_job(job_bytes) else {
                let reply = wire::encode_reply(
                    req_id,
                    false,
                    &Err((
                        FailureKind::Transport,
                        "job payload failed to decode".to_string(),
                    )),
                );
                let _ = conn.write_frame(wire::KIND_REPLY, &reply);
                return true;
            };
            let key = store_key(&job);
            if key.fingerprint != job.fingerprint {
                let reply = wire::encode_reply(
                    req_id,
                    false,
                    &Err((
                        FailureKind::Transport,
                        format!(
                            "job fingerprint mismatch (frame {:016x}, decoded {:016x}): \
                             wire codec drift",
                            job.fingerprint, key.fingerprint
                        ),
                    )),
                );
                let _ = conn.write_frame(wire::KIND_REPLY, &reply);
                return true;
            }
            // Cache hit: served straight from the reader thread — a cached
            // record costs no worker and no queue slot.
            if let Some(payload) = shared.store.get_payload(&key, "server") {
                shared.count(&shared.counters.cache_hits);
                let reply = wire::encode_reply_from_result_payload(req_id, true, &payload);
                let _ = conn.write_frame(wire::KIND_REPLY, &reply);
                return true;
            }
            let admitted = {
                let mut sched = shared.sched.lock().unwrap_or_else(PoisonError::into_inner);
                if sched.queued >= shared.cfg.queue_limit {
                    false
                } else {
                    sched.push(PendingJob {
                        conn: conn.clone(),
                        req_id,
                        want_obs,
                        job,
                    });
                    true
                }
            };
            if admitted {
                shared.work_ready.notify_one();
            } else {
                busy(conn);
            }
            true
        }
        // A socket peer speaking job/result/failure/obs frames (or any
        // unknown kind) at the server is out of protocol.
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut sched = shared.sched.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if !shared.stalled() {
                    if let Some(job) = sched.pop() {
                        sched.in_flight += 1;
                        break Some(job);
                    }
                }
                if shared.stopping() {
                    break None;
                }
                sched = shared
                    .work_ready
                    .wait_timeout(sched, Duration::from_millis(100))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        };
        let Some(job) = job else { return };
        run_job(shared, &job);
        shared
            .sched
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .in_flight -= 1;
    }
}

fn run_job(shared: &Arc<Shared>, job: &PendingJob) {
    let was_cancelled = shared
        .sched
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .cancelled
        .remove(&(job.conn.id, job.req_id));
    if was_cancelled {
        shared.count(&shared.counters.cancelled);
        let reply = wire::encode_reply(
            job.req_id,
            false,
            &Err((
                FailureKind::Interrupted,
                "cancelled by the client".to_string(),
            )),
        );
        let _ = job.conn.write_frame(wire::KIND_REPLY, &reply);
        return;
    }
    // Re-check the store: another tenant may have computed this job while
    // it sat in the queue.
    let key = store_key(&job.job);
    if let Some(payload) = shared.store.get_payload(&key, "server") {
        shared.count(&shared.counters.cache_hits);
        let reply = wire::encode_reply_from_result_payload(job.req_id, true, &payload);
        let _ = job.conn.write_frame(wire::KIND_REPLY, &reply);
        return;
    }
    shared.count(&shared.counters.cache_misses);
    let deadline = job.job.deadline.or(shared.cfg.default_deadline);
    let outcome = if job.want_obs {
        // Stream the job's observability events home as raw obs frames.
        // The relay only engages on the process tier (a worker child
        // forwards its buffered trace); the in-process tier has no
        // per-job event capture to steal, so the client then simply
        // receives no streamed events.
        let conn = job.conn.clone();
        let forward = move |payload: &[u8]| {
            let _ = conn.write_frame(wire::KIND_OBS, payload);
        };
        crate::engine::execute_attempt(
            &job.job.profile,
            &job.job.technique,
            &job.job.sim,
            &job.job.specs,
            deadline,
            true,
            &crate::isolation::ObsRouting::Relay(&forward),
        )
    } else {
        crate::engine::execute_attempt(
            &job.job.profile,
            &job.job.technique,
            &job.job.sim,
            &job.job.specs,
            deadline,
            true,
            &crate::isolation::ObsRouting::Absorb,
        )
    };
    shared.count(&shared.counters.jobs_run);
    let reply = match &outcome {
        Ok(inst) => {
            // Persisted before the reply leaves: a tenant that has its
            // answer can count on a restarted server having it too.
            let payload = wire::encode_result(inst);
            shared.persist(&key, &payload);
            wire::encode_reply_from_result_payload(job.req_id, false, &payload)
        }
        Err(_) => {
            // Failures are never cached: a timeout under one tenant's
            // deadline must not poison another tenant's retry.
            shared.count(&shared.counters.job_failures);
            wire::encode_reply(job.req_id, false, &outcome)
        }
    };
    let _ = job.conn.write_frame(wire::KIND_REPLY, &reply);
}

/// The result-store key of one job: its wire identity, whose fingerprint
/// is [`wire::job_fingerprint`].
fn store_key(job: &wire::Job) -> CacheKey {
    CacheKey::from_identity(wire::job_identity(
        &job.profile,
        &job.technique,
        &job.sim,
        &job.specs,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testenv::with_env;

    #[test]
    fn endpoint_parses_unix_paths_and_tcp_prefix() {
        assert_eq!(
            Endpoint::parse("/tmp/restuned.sock"),
            Endpoint::Unix(PathBuf::from("/tmp/restuned.sock"))
        );
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:7777"),
            Endpoint::Tcp("127.0.0.1:7777".to_string())
        );
        assert_eq!(Endpoint::parse("tcp:host:1").to_string(), "tcp:host:1");
    }

    #[test]
    fn config_reads_the_server_knobs_through_envcfg() {
        let cfg = with_env(
            &[
                ("RESTUNE_SERVER_QUEUE", Some("7")),
                ("RESTUNE_SERVER_CLIENTS", Some("3")),
                ("RESTUNE_SERVER_DEADLINE", Some("1.5")),
                ("RESTUNE_WORKERS", Some("2")),
            ],
            ServerConfig::from_env,
        );
        assert_eq!(cfg.queue_limit, 7);
        assert_eq!(cfg.max_clients, 3);
        assert_eq!(cfg.default_deadline, Some(Duration::from_secs_f64(1.5)));
        assert_eq!(cfg.workers, 2);

        let cfg = with_env(
            &[
                ("RESTUNE_SERVER_QUEUE", None),
                ("RESTUNE_SERVER_CLIENTS", None),
                ("RESTUNE_SERVER_DEADLINE", None),
            ],
            ServerConfig::from_env,
        );
        assert_eq!(cfg.queue_limit, DEFAULT_QUEUE_LIMIT);
        assert_eq!(cfg.max_clients, DEFAULT_MAX_CLIENTS);
        assert_eq!(
            cfg.default_deadline,
            Some(Duration::from_secs_f64(DEFAULT_DEADLINE_SECS))
        );
    }

    #[test]
    fn round_robin_scheduler_is_fair_and_drops_tenants() {
        let sock_pair = || {
            // The scheduler never touches the socket; a connected pair from
            // a throwaway listener keeps the types honest.
            FramedConn::new(0, fake_sock(), NetFaultRuntime::new(Vec::new()))
        };
        let conn_a = Arc::new(FramedConn {
            id: 1,
            ..sock_pair()
        });
        let conn_b = Arc::new(FramedConn {
            id: 2,
            ..sock_pair()
        });
        let job = |conn: &Arc<FramedConn>, req_id: u64| PendingJob {
            conn: conn.clone(),
            req_id,
            want_obs: false,
            job: wire::decode_job(&wire::encode_job(
                &workloads::spec2k::all()[0],
                &crate::sim::Technique::Base,
                &crate::sim::SimConfig::isca04(100),
                &[],
                None,
                wire::job_fingerprint(
                    &workloads::spec2k::all()[0],
                    &crate::sim::Technique::Base,
                    &crate::sim::SimConfig::isca04(100),
                    &[],
                ),
            ))
            .expect("job round-trips"),
        };
        let mut sched = Sched::default();
        // Tenant A queues three jobs before tenant B queues one: fair
        // round-robin still alternates instead of draining A first.
        sched.push(job(&conn_a, 1));
        sched.push(job(&conn_a, 2));
        sched.push(job(&conn_a, 3));
        sched.push(job(&conn_b, 10));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| sched.pop())
            .map(|j| (j.conn.id, j.req_id))
            .collect();
        assert_eq!(order, vec![(1, 1), (2, 10), (1, 2), (1, 3)]);
        assert_eq!(sched.queued, 0);

        sched.push(job(&conn_a, 4));
        sched.push(job(&conn_b, 11));
        sched.cancelled.insert((1, 4));
        sched.drop_tenant(1);
        assert_eq!(sched.queued, 1);
        assert!(
            sched.cancelled.is_empty(),
            "cancel marks die with the tenant"
        );
        let survivor = sched.pop().expect("tenant B survives");
        assert_eq!((survivor.conn.id, survivor.req_id), (2, 11));
    }

    #[cfg(unix)]
    #[test]
    fn finished_reader_threads_are_joined_on_accept() {
        let dir = std::env::temp_dir().join(format!("restune-readers-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let sock = dir.join("s.sock");
        let cfg = ServerConfig {
            workers: 1,
            cache_dir: Some(dir.join("cache")),
            ..ServerConfig::from_env()
        };
        let server = Server::start(Endpoint::Unix(sock.clone()), cfg).expect("server starts");
        for cycle in 0..50 {
            // Reading the hello proves the server accepted this connection;
            // dropping the stream then ends its reader.
            let mut client = UnixStream::connect(&sock).expect("connect");
            let mut decoder = wire::StreamDecoder::new();
            let mut buf = [0u8; 256];
            while decoder
                .next_frame()
                .expect("server frames are intact")
                .is_none()
            {
                let n = client.read(&mut buf).expect("hello arrives");
                assert!(n > 0, "cycle {cycle}: the server hung up before its hello");
                decoder.extend(&buf[..n]);
            }
            drop(client);
            let gone = Instant::now() + Duration::from_secs(10);
            while !server.shared.conns.lock().unwrap().is_empty() {
                assert!(
                    Instant::now() < gone,
                    "cycle {cycle}: the reader never exited"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let readers = server.shared.readers.lock().unwrap().len();
        assert!(
            readers <= 2,
            "{readers} reader handles kept after 50 closed connections"
        );
        assert_eq!(server.drain_and_stop().connections, 50);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn fake_sock() -> Sock {
        let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral listener");
        let addr = listener.local_addr().expect("bound address");
        Sock::Tcp(TcpStream::connect(addr).expect("loopback connect"))
    }
}
