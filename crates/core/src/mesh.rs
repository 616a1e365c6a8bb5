//! Shard-aware multi-host mesh routing for the thin client, plus the
//! deterministic chaos conductor that torments it in tests.
//!
//! A comma-separated `--connect` list arms a [`Mesh`]: one
//! `client::Core` per `restuned` host, with
//!
//! * **rendezvous sharding** — every job hashes its fingerprint against
//!   each host's *canonicalized endpoint string* ([`rendezvous_order`],
//!   [`shard_keys`]); the highest score is the job's home host, so the
//!   persisted cross-tenant result cache shards with the work and a
//!   resend lands where the cached row lives. Because scores key on the
//!   endpoint itself (not its position in the list), reordering a
//!   `--connect` list never reassigns a shard — cache affinity survives
//!   config edits that merely permute the same hosts;
//! * **circuit breaking** — a per-host closed → open → half-open state
//!   machine: consecutive host-down failures open the breaker, an open
//!   breaker rejects routing until its cooldown elapses, then one probe
//!   frame decides between closing it and re-opening with a doubled
//!   cooldown. Probe acks carry the host's generation tag, so a restarted
//!   host is recognized (and rejoins cleanly) in one round trip;
//! * **failover rerouting** — a request whose home host is down, open, or
//!   partitioned walks the rendezvous order to the next host. The resend
//!   is idempotent: replies are cache-keyed by job fingerprint, so
//!   whichever host runs the job produces bit-identical rows;
//! * **observability** — `mesh.reroutes`, `mesh.breaker_opens`,
//!   `mesh.probe_successes`, `mesh.probe_failures`, `mesh.host_restarts`,
//!   and per-host `mesh.host{i}.jobs` / `mesh.host{i}.failures` counters,
//!   plus `mesh-reroute` / `mesh-breaker` trace events.
//!
//! The [`ChaosConductor`] executes a seeded
//! [`crate::fault::ChaosSchedule`] against real in-process [`Server`]s:
//! kills (abrupt stop), drains (the SIGTERM path), restarts (same endpoint
//! and cache, fresh generation), stalls (worker pool wedged for a window),
//! and partition windows (the mesh routes around a host, then heals). The
//! chaos test tier asserts that every schedule in a seeded family yields
//! suite reports byte-identical to a single healthy in-process run.

use std::io;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use std::sync::Arc;

use workloads::WorkloadProfile;

use crate::client::{self, Core, HostAttempt};
use crate::fault::{ChaosSchedule, ChaosStep, FailureKind, FaultSpec};
use crate::server::{Endpoint, Server, ServerConfig};
use crate::sim::{InstrumentedRun, SimConfig, Technique};
use crate::wire;

/// Consecutive host-down failures that open a host's breaker.
const OPEN_AFTER: u32 = 2;
/// First open-state cooldown; doubles on every failed probe.
const BASE_COOLDOWN: Duration = Duration::from_millis(150);
/// Cooldown growth cap.
const MAX_COOLDOWN: Duration = Duration::from_secs(2);
/// How long a half-open probe waits for its ack.
const PROBE_TIMEOUT: Duration = Duration::from_millis(500);
/// Per-host reconnect budget when the mesh has somewhere else to go;
/// failing over beats a long per-host retry ladder.
const MESH_RECONNECTS: u32 = 2;
/// Full routing passes over the host list before the request gives up.
const MAX_PASSES: u32 = 8;

/// Rendezvous ("highest random weight") order of host indices for one job
/// fingerprint: every host is scored by hashing `(fingerprint, shard
/// key)` — the shard key being the host's canonicalized endpoint string
/// (see [`shard_keys`]) — and the hosts are returned best score first.
/// Deterministic, uniform, and minimally disruptive: removing one host
/// only moves the jobs that lived there, and because the key is the
/// endpoint rather than the list position, permuting the `--connect`
/// list leaves every assignment where it was.
pub fn rendezvous_order(fingerprint: u64, keys: &[String]) -> Vec<usize> {
    let mut scored: Vec<(u64, usize)> = keys
        .iter()
        .enumerate()
        .map(|(index, key)| {
            let mut bytes = Vec::with_capacity(8 + key.len());
            bytes.extend_from_slice(&fingerprint.to_le_bytes());
            bytes.extend_from_slice(key.as_bytes());
            (crate::store::fnv1a(&bytes), index)
        })
        .collect();
    scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    scored.into_iter().map(|(_, index)| index).collect()
}

/// The canonical shard key of every endpoint in a comma-separated
/// `--connect` list: each entry trimmed, then parsed and re-rendered
/// through [`Endpoint`]'s display form — so an endpoint scores the same
/// however it was spelled or positioned in the list. Exposed so tests
/// and tools can predict routing.
pub fn shard_keys(connect: &str) -> Vec<String> {
    connect
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|raw| Endpoint::parse(raw).to_string())
        .collect()
}

/// The shard key the mesh routes on: exactly the job fingerprint that
/// names the job in every result cache. Exposed so tests and tools can
/// predict which host a job prefers.
pub fn job_shard(
    profile: &WorkloadProfile,
    technique: &Technique,
    sim: &SimConfig,
    specs: &[FaultSpec],
) -> u64 {
    wire::job_fingerprint(profile, technique, sim, specs)
}

/// The circuit-breaker state of one host.
#[derive(Debug, Clone, Copy)]
enum Breaker {
    /// Routing normally; `failures` consecutive host-down events so far.
    Closed { failures: u32 },
    /// Rejecting routes until `since + cooldown`, then half-open: the next
    /// route attempt probes instead of sending a job.
    Open { since: Instant, cooldown: Duration },
}

struct HostState {
    breaker: Breaker,
    /// A chaos-conductor partition window: the host is unroutable until
    /// this instant, independent of breaker state.
    partition_until: Option<Instant>,
    /// The last generation observed from this host (0 = none yet).
    last_generation: u64,
}

/// One mesh host: its connection core plus routing state.
struct Host {
    index: usize,
    core: Arc<Core>,
    state: Mutex<HostState>,
}

/// What the router should do with a host right now.
enum Route {
    /// Send the job.
    Go,
    /// Open breaker past its cooldown: probe first.
    Probe,
    /// Unroutable (partitioned, or open and cooling down).
    Skip,
}

impl Host {
    fn new(index: usize, endpoint: Endpoint) -> Host {
        Host {
            index,
            core: Core::new(endpoint),
            state: Mutex::new(HostState {
                breaker: Breaker::Closed { failures: 0 },
                partition_until: None,
                last_generation: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HostState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn route(&self) -> Route {
        let mut state = self.lock();
        if let Some(until) = state.partition_until {
            if Instant::now() < until {
                return Route::Skip;
            }
            state.partition_until = None; // window over: heal
        }
        match state.breaker {
            Breaker::Closed { .. } => Route::Go,
            Breaker::Open { since, cooldown } => {
                if since.elapsed() >= cooldown {
                    Route::Probe
                } else {
                    Route::Skip
                }
            }
        }
    }

    /// Records the generation seen on a successful exchange; counts a
    /// restart when it changed.
    fn observe_generation(&self, state: &mut HostState, generation: u64) {
        if generation == 0 {
            return;
        }
        if state.last_generation != 0 && state.last_generation != generation {
            crate::obs::counter_add("mesh.host_restarts", 1);
            crate::obs::Event::engine("mesh-breaker")
                .u64_field("host", self.index as u64)
                .str_field("state", "rejoined")
                .emit();
        }
        state.last_generation = generation;
    }

    fn on_success(&self) {
        let mut state = self.lock();
        if matches!(state.breaker, Breaker::Open { .. }) {
            crate::obs::Event::engine("mesh-breaker")
                .u64_field("host", self.index as u64)
                .str_field("state", "closed")
                .emit();
        }
        state.breaker = Breaker::Closed { failures: 0 };
        let generation = self.core.host_generation();
        self.observe_generation(&mut state, generation);
    }

    fn on_failure(&self) {
        let mut state = self.lock();
        state.breaker = match state.breaker {
            Breaker::Closed { failures } => {
                let failures = failures + 1;
                if failures >= OPEN_AFTER {
                    crate::obs::counter_add("mesh.breaker_opens", 1);
                    crate::obs::Event::engine("mesh-breaker")
                        .u64_field("host", self.index as u64)
                        .str_field("state", "open")
                        .emit();
                    Breaker::Open {
                        since: Instant::now(),
                        cooldown: BASE_COOLDOWN,
                    }
                } else {
                    Breaker::Closed { failures }
                }
            }
            // A failure while open (a failed half-open job send) re-arms
            // the window with a doubled cooldown.
            Breaker::Open { cooldown, .. } => Breaker::Open {
                since: Instant::now(),
                cooldown: (cooldown * 2).min(MAX_COOLDOWN),
            },
        };
    }

    /// The half-open transition: one probe frame decides. A success closes
    /// the breaker (and notices a restart via the generation in the ack);
    /// a failure re-opens it with a doubled cooldown.
    fn probe(&self) -> bool {
        match client::probe_host(&self.core, PROBE_TIMEOUT) {
            Some(generation) => {
                crate::obs::counter_add("mesh.probe_successes", 1);
                let mut state = self.lock();
                state.breaker = Breaker::Closed { failures: 0 };
                self.observe_generation(&mut state, generation);
                drop(state);
                crate::obs::Event::engine("mesh-breaker")
                    .u64_field("host", self.index as u64)
                    .str_field("state", "closed")
                    .emit();
                true
            }
            None => {
                crate::obs::counter_add("mesh.probe_failures", 1);
                let mut state = self.lock();
                state.breaker = match state.breaker {
                    Breaker::Open { cooldown, .. } => Breaker::Open {
                        since: Instant::now(),
                        cooldown: (cooldown * 2).min(MAX_COOLDOWN),
                    },
                    Breaker::Closed { .. } => Breaker::Open {
                        since: Instant::now(),
                        cooldown: BASE_COOLDOWN,
                    },
                };
                false
            }
        }
    }
}

/// A shard-aware routing layer over N suite-server hosts. Built by
/// [`crate::set_connect`] from a comma-separated endpoint list; a
/// single-endpoint list behaves exactly like the classic thin client
/// (same reconnect budget, same error surface).
pub struct Mesh {
    hosts: Vec<Host>,
    /// Canonical endpoint strings, index-aligned with `hosts` — the HRW
    /// shard keys (see [`shard_keys`]).
    keys: Vec<String>,
}

impl std::fmt::Debug for Mesh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Mesh({} hosts)", self.hosts.len())
    }
}

impl Mesh {
    /// Parses a comma-separated endpoint list and eagerly dials every
    /// host. A single-host mesh propagates its connect error (fail fast,
    /// exactly like the classic client); a multi-host mesh tolerates
    /// unreachable hosts — their breakers start open — as long as at
    /// least one host answers.
    pub(crate) fn connect(raw: &str) -> io::Result<Mesh> {
        let endpoints: Vec<&str> = raw
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        if endpoints.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "empty --connect endpoint list",
            ));
        }
        let hosts: Vec<Host> = endpoints
            .iter()
            .enumerate()
            .map(|(index, raw)| Host::new(index, Endpoint::parse(raw)))
            .collect();
        let keys = shard_keys(raw);
        let mut reachable = 0usize;
        let mut last_err: Option<io::Error> = None;
        for (host, endpoint) in hosts.iter().zip(&endpoints) {
            match client::ensure_connected(&host.core) {
                Ok(_) => {
                    host.on_success();
                    reachable += 1;
                }
                Err(e) => {
                    crate::obs::warn(
                        "mesh",
                        &format!(
                            "host {} ({endpoint}) unreachable at connect: {e}",
                            host.index
                        ),
                    );
                    let mut state = host.lock();
                    state.breaker = Breaker::Open {
                        since: Instant::now(),
                        cooldown: BASE_COOLDOWN,
                    };
                    drop(state);
                    crate::obs::counter_add("mesh.breaker_opens", 1);
                    last_err = Some(e);
                }
            }
        }
        if reachable == 0 {
            return Err(last_err.expect("at least one endpoint was dialed"));
        }
        Ok(Mesh { hosts, keys })
    }

    /// The number of hosts in the mesh (including currently-broken ones).
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Marks `host` unroutable for `window` and severs its current
    /// connection — the chaos conductor's partition primitive. The window
    /// heals by itself; no state survives it (the breaker is untouched).
    pub(crate) fn partition(&self, host: usize, window: Duration) {
        let Some(host) = self.hosts.get(host) else {
            return;
        };
        host.lock().partition_until = Some(Instant::now() + window);
        client::sever(&host.core);
        crate::obs::Event::engine("mesh-breaker")
            .u64_field("host", host.index as u64)
            .str_field("state", "partitioned")
            .emit();
    }

    /// Tears down every host core (see [`crate::clear_connect`]).
    pub(crate) fn teardown(&self) {
        for host in &self.hosts {
            client::teardown_core(&host.core);
        }
    }

    /// Routes one job: rendezvous order, breaker gates, probe-on-half-open,
    /// failover on host-down, bounded passes with backoff in between.
    pub(crate) fn request(
        &self,
        profile: &WorkloadProfile,
        technique: &Technique,
        sim: &SimConfig,
        specs: &[FaultSpec],
        timeout: Option<Duration>,
    ) -> Result<InstrumentedRun, (FailureKind, String)> {
        let fingerprint = wire::job_fingerprint(profile, technique, sim, specs);
        let job = wire::encode_job(profile, technique, sim, specs, timeout, fingerprint);
        let want_obs = crate::obs::trace_enabled();
        // The overall patience budget: generous multiples of the job's own
        // deadline (the server needs time to queue, run, and retry),
        // bounded even when the job has none.
        let patience = timeout
            .map(|t| t * 4 + Duration::from_secs(120))
            .unwrap_or(client::NO_DEADLINE_BUDGET);
        let started = Instant::now();
        let mut busy_spent = Duration::ZERO;
        let order = rendezvous_order(fingerprint, &self.keys);
        let single = self.hosts.len() == 1;
        let budget = if single {
            client::MAX_RECONNECTS
        } else {
            MESH_RECONNECTS
        };
        let mut last_down = String::from("no routable host");
        let mut pass: u32 = 0;
        loop {
            for (rank, &index) in order.iter().enumerate() {
                let host = &self.hosts[index];
                match host.route() {
                    Route::Skip => continue,
                    Route::Probe => {
                        if !host.probe() {
                            continue;
                        }
                    }
                    Route::Go => {}
                }
                if rank > 0 {
                    crate::obs::counter_add("mesh.reroutes", 1);
                    crate::obs::Event::engine("mesh-reroute")
                        .u64_field("host", index as u64)
                        .u64_field("preferred", order[0] as u64)
                        .emit();
                }
                match client::host_request(
                    &host.core,
                    &job,
                    profile.name,
                    want_obs,
                    budget,
                    started,
                    patience,
                    &mut busy_spent,
                ) {
                    HostAttempt::Reply(outcome) => {
                        host.on_success();
                        crate::obs::counter_add(&format!("mesh.host{index}.jobs"), 1);
                        return outcome;
                    }
                    HostAttempt::Down(message) => {
                        host.on_failure();
                        crate::obs::counter_add(&format!("mesh.host{index}.failures"), 1);
                        // The classic single-host client surfaces its
                        // transport error immediately; a mesh keeps
                        // walking the order.
                        if single {
                            return Err((FailureKind::Transport, message));
                        }
                        last_down = message;
                    }
                }
            }
            pass += 1;
            if pass >= MAX_PASSES {
                return Err((
                    FailureKind::Transport,
                    format!(
                        "all {} mesh hosts unavailable after {pass} passes: {last_down}",
                        self.hosts.len()
                    ),
                ));
            }
            if crate::isolation::shutdown_requested() {
                return Err((
                    FailureKind::Interrupted,
                    "shutdown signal received; remote attempt abandoned".to_string(),
                ));
            }
            if started.elapsed() > patience {
                return Err((
                    FailureKind::Transport,
                    format!("no server reply within the {patience:?} request budget"),
                ));
            }
            // Every host skipped or down this pass: wait out the shortest
            // plausible recovery (a breaker cooldown) and try again.
            std::thread::sleep(client::backoff(pass.saturating_sub(1)));
        }
    }
}

/// Marks `host` of the active `--connect` mesh unroutable for `window`
/// (and severs its connection). `false` when no mesh route is armed or
/// the index is out of range. This is the partition-window primitive the
/// chaos conductor — or an external test harness — drives.
pub fn partition_host(host: usize, window: Duration) -> bool {
    let Some(mesh) = client::active_mesh() else {
        return false;
    };
    if host >= mesh.host_count() {
        return false;
    }
    mesh.partition(host, window);
    true
}

// ---------------------------------------------------------------------------
// Chaos conductor
// ---------------------------------------------------------------------------

/// One conducted host: where it listens, how to (re)start it, and the
/// running server when it is up.
struct ChaosHost {
    endpoint: Endpoint,
    cfg: ServerConfig,
    server: Option<Server>,
}

/// Executes a deterministic [`ChaosSchedule`] against a set of in-process
/// [`Server`] hosts. Two drive modes:
///
/// * [`ChaosConductor::step`] applies the next step immediately — the test
///   harness interleaves steps with suite batches, so counter assertions
///   are deterministic;
/// * [`ChaosConductor::run_with_delays`] honors the schedule's seeded
///   delays on the calling thread — spawn it on a worker for wall-clock
///   chaos under live traffic.
pub struct ChaosConductor {
    hosts: Vec<ChaosHost>,
    schedule: ChaosSchedule,
    cursor: usize,
}

impl std::fmt::Debug for ChaosConductor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ChaosConductor({} hosts, step {}/{})",
            self.hosts.len(),
            self.cursor,
            self.schedule.steps.len()
        )
    }
}

impl ChaosConductor {
    /// Starts one server per `(endpoint, config)` pair and arms the
    /// schedule. Hosts are addressed by their index in this list — the
    /// same order the client's `--connect` list must use.
    pub fn start(
        hosts: Vec<(Endpoint, ServerConfig)>,
        schedule: ChaosSchedule,
    ) -> io::Result<ChaosConductor> {
        let hosts = hosts
            .into_iter()
            .map(|(endpoint, cfg)| {
                let server = Server::start(endpoint.clone(), cfg.clone())?;
                Ok(ChaosHost {
                    endpoint,
                    cfg,
                    server: Some(server),
                })
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(ChaosConductor {
            hosts,
            schedule,
            cursor: 0,
        })
    }

    /// Steps remaining in the schedule.
    pub fn remaining(&self) -> usize {
        self.schedule.steps.len() - self.cursor
    }

    /// Applies the next step immediately (ignoring its seeded delay) and
    /// returns it; `None` when the schedule is exhausted.
    pub fn step(&mut self) -> Option<ChaosStep> {
        let (_, step) = self.schedule.steps.get(self.cursor)?.clone();
        self.cursor += 1;
        self.apply(&step);
        Some(step)
    }

    /// Plays the rest of the schedule on the calling thread, sleeping out
    /// each step's seeded delay first.
    pub fn run_with_delays(&mut self) {
        while self.cursor < self.schedule.steps.len() {
            let (delay_ms, step) = self.schedule.steps[self.cursor].clone();
            self.cursor += 1;
            std::thread::sleep(Duration::from_millis(delay_ms));
            self.apply(&step);
        }
    }

    /// Whether `host` currently has a running server.
    pub fn is_up(&self, host: usize) -> bool {
        self.hosts
            .get(host)
            .map(|h| h.server.is_some())
            .unwrap_or(false)
    }

    fn apply(&mut self, step: &ChaosStep) {
        crate::obs::counter_add("mesh.chaos_steps", 1);
        crate::obs::Event::engine("chaos-step")
            .str_field("class", step.class())
            .u64_field("host", step.host() as u64)
            .emit();
        match *step {
            ChaosStep::Kill { host } => {
                if let Some(h) = self.hosts.get_mut(host) {
                    // Dropping without drain is the abrupt-stop path:
                    // connections cut, queue discarded, like SIGKILL
                    // minus the process boundary.
                    drop(h.server.take());
                }
            }
            ChaosStep::Drain { host } => {
                if let Some(h) = self.hosts.get_mut(host) {
                    if let Some(server) = h.server.take() {
                        let _ = server.drain_and_stop();
                    }
                }
            }
            ChaosStep::Restart { host } => {
                if let Some(h) = self.hosts.get_mut(host) {
                    if h.server.is_none() {
                        match Server::start(h.endpoint.clone(), h.cfg.clone()) {
                            Ok(server) => h.server = Some(server),
                            Err(e) => crate::obs::warn(
                                "mesh",
                                &format!("chaos restart of host {host} failed: {e}"),
                            ),
                        }
                    }
                }
            }
            ChaosStep::Stall { host, millis } => {
                if let Some(h) = self.hosts.get_mut(host) {
                    if let Some(server) = &h.server {
                        server.stall_for(Duration::from_millis(millis));
                    }
                }
            }
            ChaosStep::Partition { host, millis } => {
                partition_host(host, Duration::from_millis(millis));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("/tmp/restuned-{i}.sock")).collect()
    }

    #[test]
    fn rendezvous_is_deterministic_and_complete() {
        for fp in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let order = rendezvous_order(fp, &keys(5));
            assert_eq!(order.len(), 5);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4], "a permutation");
            assert_eq!(order, rendezvous_order(fp, &keys(5)), "stable");
        }
        assert_eq!(rendezvous_order(42, &keys(1)), vec![0]);
        assert!(rendezvous_order(42, &keys(0)).is_empty());
    }

    #[test]
    fn rendezvous_spreads_jobs_and_moves_minimally() {
        // Over many fingerprints, every host of 3 gets a meaningful share.
        let hosts = keys(3);
        let mut share = [0usize; 3];
        for fp in 0..600u64 {
            share[rendezvous_order(crate::store::fnv1a(&fp.to_le_bytes()), &hosts)[0]] += 1;
        }
        for (host, n) in share.iter().enumerate() {
            assert!(
                *n > 100,
                "host {host} got {n}/600 jobs; rendezvous should spread"
            );
        }
        // Removing the last host only moves jobs that lived there: every
        // fingerprint whose 3-host winner is 0 or 1 keeps it under 2 hosts.
        for fp in 0..600u64 {
            let fp = crate::store::fnv1a(&fp.to_le_bytes());
            let with3 = rendezvous_order(fp, &hosts)[0];
            if with3 < 2 {
                assert_eq!(
                    rendezvous_order(fp, &hosts[..2])[0],
                    with3,
                    "minimal disruption"
                );
            }
        }
    }

    #[test]
    fn rendezvous_shards_identically_under_list_permutation() {
        // The regression this keying fixed: a permuted `--connect` list
        // must send every fingerprint to the same *endpoint*, because the
        // endpoint string — not the list position — is the shard key.
        let list_a = "/tmp/a.sock, /tmp/b.sock,tcp:127.0.0.1:7070";
        let list_b = "tcp:127.0.0.1:7070,/tmp/a.sock , /tmp/b.sock";
        let keys_a = shard_keys(list_a);
        let keys_b = shard_keys(list_b);
        for fp in 0..500u64 {
            let fp = crate::store::fnv1a(&fp.to_le_bytes());
            let winner_a = &keys_a[rendezvous_order(fp, &keys_a)[0]];
            let winner_b = &keys_b[rendezvous_order(fp, &keys_b)[0]];
            assert_eq!(winner_a, winner_b, "fp {fp:016x} moved under permutation");
            // The whole failover order is permutation-invariant too.
            let order_a: Vec<&String> = rendezvous_order(fp, &keys_a)
                .into_iter()
                .map(|i| &keys_a[i])
                .collect();
            let order_b: Vec<&String> = rendezvous_order(fp, &keys_b)
                .into_iter()
                .map(|i| &keys_b[i])
                .collect();
            assert_eq!(order_a, order_b);
        }
    }

    #[test]
    fn shard_keys_canonicalize_spelling() {
        assert_eq!(
            shard_keys(" /tmp/x.sock ,tcp:h:1,, /tmp/y.sock"),
            vec!["/tmp/x.sock", "tcp:h:1", "/tmp/y.sock"]
        );
    }

    #[test]
    fn seeded_schedules_cover_all_three_templates() {
        let classes = |seed: u64| -> Vec<&'static str> {
            ChaosSchedule::seeded(seed, 3)
                .steps
                .iter()
                .map(|(_, s)| s.class())
                .collect()
        };
        assert_eq!(classes(42), vec!["chaos-kill", "chaos-restart"]);
        assert_eq!(classes(40), vec!["chaos-drain", "chaos-restart"]);
        assert_eq!(classes(41), vec!["chaos-partition", "chaos-stall"]);
        // Deterministic: the same seed always yields the same schedule.
        assert_eq!(ChaosSchedule::seeded(42, 3), ChaosSchedule::seeded(42, 3));
        // Every step targets a real host.
        for seed in 0..30u64 {
            for (_, step) in ChaosSchedule::seeded(seed, 3).steps {
                assert!(step.host() < 3, "seed {seed}: {step:?}");
            }
        }
    }
}
