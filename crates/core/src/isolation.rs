//! The process-isolation tier: run application simulations in child
//! processes so that *nothing* a worker does — `abort()`, SIGKILL, a stack
//! overflow, a non-cooperative infinite loop — can take the suite down.
//!
//! The in-process supervisor (see [`crate::engine`]) contains panics with
//! `catch_unwind` and long runs with a cooperative watchdog, but both only
//! work when the failure unwinds politely. This tier adds the hard
//! boundary: the harness binary re-execs itself (`<exe> worker`) via
//! [`std::env::current_exe`], and that worker serves job after job. Each
//! job crosses the child's stdin as one checksummed [`crate::wire`] frame;
//! the worker acknowledges it, runs it, and writes an optional
//! observability frame and one reply frame to its stdout.
//!
//! Each calling thread — a suite pool thread, a `restuned` worker thread —
//! keeps at most one idle worker in a thread-local slot and hands it the
//! thread's next attempt. A worker is reused only after a clean, fully
//! consumed RESULT reply, and only by an attempt with the same spawn recipe
//! (argv, observability forwarding, and every inherited `RESTUNE_*`
//! variable). Any failure retires it, and so does its thread's exit: stdin
//! closed, child reaped, drain thread joined. A reused worker found dead
//! before it acknowledged a job never saw that job, so the same frame goes
//! to a fresh spawn. The parent enforces a *hard* wall-clock deadline with
//! [`std::process::Child::kill`] and classifies every way a child can die
//! — signal, non-zero exit, corrupt or missing reply frame, deadline
//! overrun — into the [`FailureKind`] taxonomy.
//!
//! Tier selection is `RESTUNE_ISOLATION`:
//!
//! * `thread` (default) — the in-process path; bit-identical to PR 2.
//! * `process` — force child processes; warns and falls back in-process
//!   when no worker entry is installed or a spawn fails.
//! * `auto` — processes when the running binary installed a worker entry
//!   (called [`maybe_run_worker`] at startup), threads otherwise.
//!
//! Children are always spawned with `RESTUNE_ISOLATION=thread` so a worker
//! can never recursively spawn grandchildren.
//!
//! The module also owns graceful shutdown: [`install_signal_handlers`]
//! arms SIGINT/SIGTERM to set a process-wide flag (checked by the engine's
//! worker pool, which stops claiming apps and records `interrupted` slots)
//! and re-arms the default disposition so a second signal force-kills.

use std::cell::RefCell;
use std::ffi::OsString;
use std::io::{Read as _, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use workloads::{registry, WorkloadProfile};

use crate::fault::{FailureKind, FaultSpec};
use crate::sim::{run_supervised, InstrumentedRun, SimConfig, Technique};
use crate::wire;

/// The hidden argv\[1\] that turns any harness binary into a long-lived
/// worker, serving job frames from its stdin until EOF.
pub const WORKER_SUBCOMMAND: &str = "worker";

/// Set once a binary has called [`maybe_run_worker`]; `auto` isolation only
/// spawns children when the child would actually answer as a worker.
static WORKER_INSTALLED: AtomicBool = AtomicBool::new(false);

/// Set by the SIGINT/SIGTERM handler; sticky for the process lifetime.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// One-shot latches for the warnings this module rate-limits.
static WARNED_BAD_MODE: AtomicBool = AtomicBool::new(false);
static WARNED_NO_WORKER: AtomicBool = AtomicBool::new(false);
static WARNED_SPAWN: AtomicBool = AtomicBool::new(false);

/// Which execution tier an attempt runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsolationMode {
    /// In-process: `catch_unwind` + cooperative watchdog (the default).
    Thread,
    /// Child processes: each calling thread hands its attempts to one
    /// long-lived worker, replaced after any failure.
    Process,
}

fn warn_once(latch: &AtomicBool, message: &str) {
    if !latch.swap(true, Ordering::Relaxed) {
        crate::obs::warn("isolation", message);
    }
}

/// `true` when spawning `current_exe() worker ...` would reach a worker
/// entry. `RESTUNE_WORKER_ARGV` (a test hook, see [`spawn_attempt`])
/// counts: the spawned argv is then caller-supplied.
pub(crate) fn worker_available() -> bool {
    WORKER_INSTALLED.load(Ordering::Relaxed) || std::env::var_os("RESTUNE_WORKER_ARGV").is_some()
}

/// Resolves `RESTUNE_ISOLATION` to the tier this attempt should use.
/// Invalid values and `process` without a worker entry warn once per
/// process and fall back to [`IsolationMode::Thread`].
pub fn isolation_mode() -> IsolationMode {
    match std::env::var("RESTUNE_ISOLATION") {
        Err(_) => IsolationMode::Thread,
        Ok(raw) => match raw.trim().to_ascii_lowercase().as_str() {
            "" | "thread" => IsolationMode::Thread,
            "process" => {
                if worker_available() {
                    IsolationMode::Process
                } else {
                    warn_once(
                        &WARNED_NO_WORKER,
                        "RESTUNE_ISOLATION=process but this binary has no worker entry \
                         (harness never called maybe_run_worker); running in-process",
                    );
                    IsolationMode::Thread
                }
            }
            "auto" => {
                if worker_available() {
                    IsolationMode::Process
                } else {
                    IsolationMode::Thread
                }
            }
            other => {
                warn_once(
                    &WARNED_BAD_MODE,
                    &format!(
                        "invalid RESTUNE_ISOLATION='{other}' \
                         (expected process, thread, or auto); running in-process"
                    ),
                );
                IsolationMode::Thread
            }
        },
    }
}

/// `true` once SIGINT or SIGTERM was received; the engine stops claiming
/// new applications and the pollers kill their children.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::Relaxed)
}

#[cfg(test)]
pub(crate) fn set_shutdown_for_test(v: bool) {
    SHUTDOWN.store(v, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Signals (raw glibc, no libc crate: the workspace is offline)
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod sys {
    use std::os::raw::c_int;

    // Minimal glibc surface. `signal` is the historical interface; for a
    // flag-setting handler with re-arm-to-default semantics it is exactly
    // what we need, and it avoids depending on the `libc` crate.
    extern "C" {
        fn signal(signum: c_int, handler: usize) -> usize;
        fn kill(pid: c_int, sig: c_int) -> c_int;
        fn getpid() -> c_int;
    }

    pub(super) const SIGINT: c_int = 2;
    pub(super) const SIGKILL: c_int = 9;
    pub(super) const SIGTERM: c_int = 15;
    const SIG_DFL: usize = 0;

    extern "C" fn on_signal(sig: c_int) {
        super::SHUTDOWN.store(true, std::sync::atomic::Ordering::Relaxed);
        // Restore the default disposition: a second Ctrl-C kills the
        // process outright instead of waiting for a graceful drain.
        unsafe {
            signal(sig, SIG_DFL);
        }
    }

    pub(super) fn install() {
        let handler = on_signal as extern "C" fn(c_int) as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    /// Delivers SIGKILL to the calling process — the injected
    /// `worker-kill` fault, indistinguishable from the OOM killer.
    pub(super) fn kill_self() {
        unsafe {
            kill(getpid(), SIGKILL);
        }
    }
}

/// Arms SIGINT/SIGTERM for graceful shutdown: the first signal sets the
/// [`shutdown_requested`] flag (the suite drains: running children are
/// killed, unclaimed apps become `interrupted` failures, a suite's run
/// store keeps every completed run), the second force-kills. No-op off
/// unix.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    sys::install();
}

/// Kills the calling process with SIGKILL (the `worker-kill` injected
/// fault). Falls back to `abort` off unix.
pub(crate) fn kill_self() {
    #[cfg(unix)]
    sys::kill_self();
    #[allow(unreachable_code)]
    {
        std::process::abort();
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Installs this binary's worker entry and, when invoked as
/// `<exe> worker`, serves jobs until stdin closes and never returns.
/// Harness `main`s call this before argument parsing; under any other argv
/// it only flips the "worker available" latch and returns.
pub fn maybe_run_worker() {
    WORKER_INSTALLED.store(true, Ordering::Relaxed);
    if std::env::args().nth(1).as_deref() == Some(WORKER_SUBCOMMAND) {
        std::process::exit(serve_worker(std::io::stdin().lock()));
    }
}

/// The worker loop: reads job frames from `input` (the worker's stdin)
/// until EOF. For each one it writes an acknowledgement frame, runs the
/// job, then writes the optional observability frame and one reply frame to
/// stdout. Public (but hidden) so the test-suite shim — a libtest test
/// spawned as the child — can serve jobs too.
///
/// Returns 0 at EOF between jobs and 3 when the input ends inside a frame
/// or a pipe fails; the parent then has no reply frame and classifies the
/// exit status.
#[doc(hidden)]
pub fn serve_worker(mut input: impl std::io::Read) -> i32 {
    crate::fault::install_signal_quieting_hook();
    let mut frames = wire::PipeScanner::default();
    let mut buf = [0u8; 16 * 1024];
    loop {
        let job = match frames.next_frame() {
            Some((wire::KIND_JOB, payload)) => payload,
            Some(_) => continue,
            None => match input.read(&mut buf) {
                Ok(0) => return if frames.is_empty() { 0 } else { 3 },
                Ok(n) => {
                    frames.extend(&buf[..n]);
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return 3,
            },
        };
        // Taken: from here on the parent holds this worker to the job.
        if write_stdout(&wire::encode_frame(wire::KIND_ACK, &[])).is_err() {
            return 3;
        }
        let reply = run_job(&job);
        // When the parent asked for observability forwarding (it spawned us
        // with RESTUNE_TRACE=wire), ship this job's trace lines and counters
        // home as an obs frame ahead of the reply, so the process tier's
        // trace matches the thread tier's. Taking them empties the buffers
        // for the next job.
        let mut out = Vec::new();
        if let Some((counters, lines)) = crate::obs::take_forwarded() {
            if !counters.is_empty() || !lines.is_empty() {
                out.extend_from_slice(&wire::encode_frame(
                    wire::KIND_OBS,
                    &wire::encode_obs(&counters, &lines),
                ));
            }
        }
        out.extend_from_slice(&reply);
        if write_stdout(&out).is_err() {
            return 3;
        }
    }
}

/// Writes and flushes `bytes` on stdout. Raw handle writes bypass libtest's
/// output capture, so the shim test can serve frames even when spawned as a
/// captured test process.
fn write_stdout(bytes: &[u8]) -> std::io::Result<()> {
    let mut stdout = std::io::stdout().lock();
    stdout.write_all(bytes)?;
    stdout.flush()
}

/// Runs one job payload and returns its reply frame: a result, or a
/// classified failure when the payload does not decode, fails the
/// fingerprint tripwire, or the run unwinds.
fn run_job(payload: &[u8]) -> Vec<u8> {
    let failure_frame = |kind: FailureKind, message: &str| {
        wire::encode_frame(wire::KIND_FAILURE, &wire::encode_failure(kind, message))
    };
    let Some(job) = wire::decode_job(payload) else {
        return failure_frame(FailureKind::Transport, "job frame failed to decode");
    };
    // The codec-drift tripwire: the fingerprint of the *decoded* values
    // must match what the parent stamped on the frame. Any lossy field
    // fails here, loudly.
    let decoded_fp = wire::job_fingerprint(&job.profile, &job.technique, &job.sim, &job.specs);
    if decoded_fp != job.fingerprint {
        return failure_frame(
            FailureKind::Transport,
            &format!(
                "job fingerprint mismatch (frame {:016x}, decoded {decoded_fp:016x}): \
                 wire codec drift",
                job.fingerprint
            ),
        );
    }
    let deadline = job.deadline.map(|d| Instant::now() + d);
    match catch_unwind(AssertUnwindSafe(|| {
        run_supervised(&job.profile, &job.technique, &job.sim, &job.specs, deadline)
    })) {
        Ok(inst) => wire::encode_frame(wire::KIND_RESULT, &wire::encode_result(&inst)),
        Err(panic_payload) => {
            let (kind, message) = crate::engine::classify_payload(panic_payload);
            failure_frame(kind, &message)
        }
    }
}

// ---------------------------------------------------------------------------
// Parent side
// ---------------------------------------------------------------------------

/// How much wall-clock slack the parent grants beyond the cooperative
/// deadline before hard-killing the child. Generous on purpose: the
/// in-child watchdog should fire first, the hard kill is the backstop for
/// non-cooperative hangs.
fn hard_kill_grace(timeout: Duration) -> Duration {
    timeout.max(Duration::from_secs(2))
}

/// The longest the parent sleeps between checks of the shutdown flag
/// while it waits for a worker's reply.
const REPLY_WAIT_SLICE: Duration = Duration::from_millis(50);

/// Where a child's forwarded observability frames go.
pub(crate) enum ObsRouting<'a> {
    /// Decode the obs frame and absorb it into this process's trace sink
    /// and counter registry (the harness path: the parent owns the trace).
    Absorb,
    /// Hand the raw `KIND_OBS` payload to a callback — the server path,
    /// which re-frames it onto the requesting client's connection without
    /// ever decoding it. Forces the child into wire-forwarding mode even
    /// when this process traces nothing itself.
    Relay(&'a (dyn Fn(&[u8]) + Sync)),
}

impl std::fmt::Debug for ObsRouting<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ObsRouting::Absorb => "ObsRouting::Absorb",
            ObsRouting::Relay(_) => "ObsRouting::Relay(..)",
        })
    }
}

/// Everything a worker is spawned with that could change how it runs a job:
/// its argv, whether it forwards observability, and every `RESTUNE_*`
/// variable it inherits (sorted; the two the spawn sets itself are left
/// out). An idle worker only takes an attempt whose recipe equals its own.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SpawnRecipe {
    argv: Vec<OsString>,
    forward_obs: bool,
    env: Vec<(OsString, OsString)>,
}

impl SpawnRecipe {
    /// The recipe of an attempt made now, or `None` (warned once) when the
    /// running binary cannot be located.
    fn current(forward_obs: bool) -> Option<SpawnRecipe> {
        let Ok(exe) = std::env::current_exe() else {
            warn_once(
                &WARNED_SPAWN,
                "cannot resolve current_exe(); process isolation unavailable, running in-process",
            );
            return None;
        };
        let mut argv = vec![exe.into_os_string()];
        match std::env::var("RESTUNE_WORKER_ARGV") {
            // Test hook: reroute the spawn through arbitrary argv (a libtest
            // filter selecting the worker-shim test).
            Ok(raw) => argv.extend(raw.split_whitespace().map(OsString::from)),
            Err(_) => argv.push(WORKER_SUBCOMMAND.into()),
        }
        let mut env: Vec<_> = std::env::vars_os()
            .filter(|(key, _)| {
                key.to_str().is_some_and(|k| {
                    k.starts_with("RESTUNE_") && k != "RESTUNE_ISOLATION" && k != "RESTUNE_TRACE"
                })
            })
            .collect();
        env.sort();
        Some(SpawnRecipe {
            argv,
            forward_obs,
            env,
        })
    }
}

thread_local! {
    /// This thread's idle worker: the one that served its last attempt
    /// cleanly. Dropping it — the thread exiting, a recipe change — retires
    /// the child.
    static IDLE_WORKER: RefCell<Option<Worker>> = const { RefCell::new(None) };
}

/// A live worker child and the pipes to it.
struct Worker {
    recipe: SpawnRecipe,
    /// Its stdin stays open while the worker lives; closing it (EOF) ends
    /// an idle worker's loop.
    child: Child,
    /// The child's stdout, in chunks, from the drain thread; it disconnects
    /// at EOF.
    stdout: mpsc::Receiver<Vec<u8>>,
    drain: Option<JoinHandle<()>>,
    frames: wire::PipeScanner,
    /// `true` once the worker has served an earlier job.
    reused: bool,
}

/// How one job went on one worker.
enum Exchange {
    /// The worker's stdout closed before it acknowledged the job, so it
    /// never took it; this is its exit classified.
    NotTaken((FailureKind, String)),
    /// The job's outcome.
    Done(Result<InstrumentedRun, (FailureKind, String)>),
}

impl Worker {
    fn spawn(recipe: SpawnRecipe) -> std::io::Result<Worker> {
        let mut cmd = Command::new(&recipe.argv[0]);
        cmd.args(&recipe.argv[1..])
            .env("RESTUNE_ISOLATION", "thread") // children never spawn grandchildren
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if recipe.forward_obs {
            // The child buffers its events and forwards them home in an obs
            // frame per job rather than opening the parent's trace file.
            cmd.env("RESTUNE_TRACE", "wire");
        } else {
            cmd.env_remove("RESTUNE_TRACE");
        }
        let mut child = cmd.spawn()?;
        // Drain the child's stdout on a thread for the worker's whole life.
        // An observability frame can exceed the OS pipe buffer (waveform
        // windows are kilobytes each), so a child must never block in a
        // write the parent is not yet reading. The parent sleeps on the
        // channel, so it wakes the moment a frame arrives or the child
        // exits — no polling delay.
        let mut pipe = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            let mut buf = [0u8; 4096];
            loop {
                match pipe.read(&mut buf) {
                    Ok(0) => return,
                    Ok(n) => {
                        // Keep reading after the parent hangs up, to EOF.
                        let _ = tx.send(buf[..n].to_vec());
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return,
                }
            }
        });
        crate::obs::counter_add("isolation.workers_spawned", 1);
        Ok(Worker {
            recipe,
            child,
            stdout: rx,
            drain: Some(drain),
            frames: wire::PipeScanner::default(),
            reused: false,
        })
    }

    /// Sends one job frame and follows the worker until its reply, its
    /// exit, the hard deadline, or shutdown. Observability frames are
    /// routed as they arrive.
    fn exchange(
        &mut self,
        frame: &[u8],
        app: &str,
        timeout: Option<Duration>,
        hard_deadline: Option<Instant>,
        obs: &ObsRouting<'_>,
    ) -> Exchange {
        // A write error (EPIPE from a dead worker) is not fatal here: the
        // worker's stdout tells the real story.
        if let Some(stdin) = &mut self.child.stdin {
            let _ = stdin.write_all(frame).and_then(|()| stdin.flush());
        }
        let mut taken = false;
        loop {
            while let Some((kind, payload)) = self.frames.next_frame() {
                match kind {
                    wire::KIND_ACK if !taken => {
                        taken = true;
                        if self.reused {
                            crate::obs::counter_add("isolation.workers_reused", 1);
                        }
                    }
                    _ if !taken => {
                        return Exchange::Done(Err((
                            FailureKind::Transport,
                            format!("worker sent frame kind {kind} before acknowledging the job"),
                        )));
                    }
                    wire::KIND_OBS => match obs {
                        ObsRouting::Absorb => {
                            if let Some((counters, lines)) = wire::decode_obs(&payload) {
                                crate::obs::counter_add("wire.obs_frames", 1);
                                crate::obs::absorb_forwarded(&counters, &lines);
                            }
                        }
                        ObsRouting::Relay(forward) => forward(&payload),
                    },
                    wire::KIND_RESULT | wire::KIND_FAILURE => {
                        return Exchange::Done(reply_outcome(kind, &payload, app));
                    }
                    _ => {}
                }
            }
            if shutdown_requested() {
                return Exchange::Done(Err((
                    FailureKind::Interrupted,
                    "shutdown signal received; worker killed".to_string(),
                )));
            }
            let now = Instant::now();
            if hard_deadline.is_some_and(|d| now >= d) {
                return Exchange::Done(Err((
                    FailureKind::Timeout,
                    format!(
                        "worker exceeded the hard wall-clock deadline \
                         ({:?} + grace) and was killed",
                        timeout.unwrap_or_default()
                    ),
                )));
            }
            // Wake at least every slice to honour the shutdown flag, and
            // exactly at the hard deadline.
            let slice = hard_deadline.map_or(REPLY_WAIT_SLICE, |d| (d - now).min(REPLY_WAIT_SLICE));
            match self.stdout.recv_timeout(slice) {
                Ok(chunk) => self.frames.extend(&chunk),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    // EOF without a reply: the child is exiting. Reap it
                    // for its status.
                    let failure = match self.child.wait() {
                        Ok(status) => classify_frameless_exit(&status),
                        Err(e) => (
                            FailureKind::Crash,
                            format!("waiting on the worker failed: {e}"),
                        ),
                    };
                    return if taken {
                        Exchange::Done(Err(failure))
                    } else {
                        Exchange::NotTaken(failure)
                    };
                }
            }
        }
    }
}

impl Drop for Worker {
    /// Retirement: closing stdin ends an idle worker's loop (a failed one
    /// was killed or has exited already), then the child is reaped and its
    /// drain thread joined.
    fn drop(&mut self) {
        drop(self.child.stdin.take());
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// Runs one application attempt in a child process. Returns `None` when
/// the attempt is not eligible for process isolation (mode, non-registry
/// profile, non-`isca04` machine, spawn failure) — the caller then uses the
/// in-process path. `Some(Err)` carries the classified failure.
///
/// The attempt goes to this thread's idle worker when its recipe matches,
/// and to a fresh spawn otherwise; the worker returns to the idle slot only
/// after a clean RESULT reply that left its stdout at a frame boundary.
///
/// `force` bypasses the `RESTUNE_ISOLATION` mode gate (the server always
/// wants the process tier when a worker entry exists); it still requires a
/// worker to actually be reachable. `obs` routes the child's forwarded
/// observability frames (see [`ObsRouting`]).
pub(crate) fn process_attempt(
    profile: &WorkloadProfile,
    technique: &Technique,
    sim: &SimConfig,
    specs: &[FaultSpec],
    timeout: Option<Duration>,
    force: bool,
    obs: &ObsRouting<'_>,
) -> Option<Result<InstrumentedRun, (FailureKind, String)>> {
    if force {
        if !worker_available() {
            return None;
        }
    } else if isolation_mode() != IsolationMode::Process {
        return None;
    }
    // Eligibility: the wire codec sends the profile by *name* and the
    // machine by *instruction budget*, so the child can only reconstruct
    // jobs whose profile is the registry entry and whose SimConfig is the
    // isca04 preset. Anything else runs in-process. The fingerprint check
    // in the worker backstops this gate.
    if registry::by_name(profile.name) != Some(*profile)
        || *sim != SimConfig::isca04(sim.instructions)
    {
        return None;
    }

    let fingerprint = wire::job_fingerprint(profile, technique, sim, specs);
    let payload = wire::encode_job(profile, technique, sim, specs, timeout, fingerprint);
    let frame = wire::encode_frame(wire::KIND_JOB, &payload);
    // A relay route always wants the obs frame, whatever this process
    // traces.
    let forward_obs = matches!(obs, ObsRouting::Relay(_)) || crate::obs::trace_enabled();
    let recipe = SpawnRecipe::current(forward_obs)?;
    let hard_deadline = timeout.map(|t| Instant::now() + t + hard_kill_grace(t));

    // An idle worker spawned from another recipe is retired right here.
    let idle = IDLE_WORKER
        .with_borrow_mut(Option::take)
        .filter(|w| w.recipe == recipe);
    let mut worker = match idle {
        Some(worker) => worker,
        None => spawn_or_warn(recipe)?,
    };
    loop {
        match worker.exchange(&frame, profile.name, timeout, hard_deadline, obs) {
            // A reused worker that died idle never saw this job: the same
            // frame goes to a fresh spawn, so reuse never fails a job and
            // never runs one twice.
            Exchange::NotTaken(_) if worker.reused => {
                let recipe = worker.recipe.clone();
                drop(worker);
                worker = spawn_or_warn(recipe)?;
            }
            Exchange::NotTaken(failure) => return Some(Err(failure)),
            Exchange::Done(outcome) => {
                if outcome.is_ok() && worker.frames.is_empty() {
                    worker.reused = true;
                    IDLE_WORKER.with_borrow_mut(|slot| *slot = Some(worker));
                } else {
                    // Anything but a clean reply retires the worker, which
                    // may still be running the job (deadline, shutdown) or
                    // be in a state no reply explains. Killing it closes
                    // its end of the pipe, so the drain thread reaches EOF
                    // and retirement's reap and join return promptly.
                    let _ = worker.child.kill();
                }
                return Some(outcome);
            }
        }
    }
}

/// Spawns a worker, or warns once and returns `None` (the caller falls
/// back in-process).
fn spawn_or_warn(recipe: SpawnRecipe) -> Option<Worker> {
    Worker::spawn(recipe)
        .map_err(|e| {
            warn_once(
                &WARNED_SPAWN,
                &format!("worker spawn failed ({e}); running in-process"),
            );
        })
        .ok()
}

/// Classifies a reply frame: a RESULT for the app that was asked, or the
/// worker's classified failure.
fn reply_outcome(
    kind: u8,
    payload: &[u8],
    app: &str,
) -> Result<InstrumentedRun, (FailureKind, String)> {
    if kind == wire::KIND_FAILURE {
        return Err(wire::decode_failure(payload).unwrap_or_else(|| {
            (
                FailureKind::Transport,
                "worker failure frame failed to decode".to_string(),
            )
        }));
    }
    match wire::decode_result(payload) {
        Some(inst) if inst.result.app == app => Ok(inst),
        Some(inst) => Err((
            FailureKind::Transport,
            format!(
                "worker replied for app '{}' but '{app}' was asked",
                inst.result.app
            ),
        )),
        None => Err((
            FailureKind::Transport,
            "worker result frame failed to decode".to_string(),
        )),
    }
}

/// Classifies a child that exited without producing an intact reply frame.
fn classify_frameless_exit(status: &std::process::ExitStatus) -> (FailureKind, String) {
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt as _;
        if let Some(sig) = status.signal() {
            let label = match sig {
                sys::SIGKILL => " (SIGKILL)",
                6 => " (SIGABRT)",
                11 => " (SIGSEGV)",
                _ => "",
            };
            return (
                FailureKind::Crash,
                format!("worker killed by signal {sig}{label}"),
            );
        }
    }
    if !status.success() {
        return (FailureKind::Crash, format!("worker exited with {status}"));
    }
    (
        FailureKind::Transport,
        "worker exited cleanly without a reply frame".to_string(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testenv::with_env;

    #[test]
    fn isolation_mode_resolves_and_falls_back() {
        // No worker entry is installed in the unit-test binary unless a
        // test hook says otherwise.
        let cases: [(&str, Option<&str>, IsolationMode); 6] = [
            ("RESTUNE_ISOLATION", None, IsolationMode::Thread),
            ("RESTUNE_ISOLATION", Some("thread"), IsolationMode::Thread),
            ("RESTUNE_ISOLATION", Some("auto"), IsolationMode::Thread),
            ("RESTUNE_ISOLATION", Some("process"), IsolationMode::Thread),
            ("RESTUNE_ISOLATION", Some("Process "), IsolationMode::Thread),
            ("RESTUNE_ISOLATION", Some("bogus"), IsolationMode::Thread),
        ];
        for (key, value, expected) in cases {
            let got = with_env(
                &[(key, value), ("RESTUNE_WORKER_ARGV", None)],
                isolation_mode,
            );
            assert_eq!(got, expected, "RESTUNE_ISOLATION={value:?}");
        }

        // With a worker argv hook, `process` and `auto` resolve to Process.
        for value in ["process", "auto", "PROCESS"] {
            let got = with_env(
                &[
                    ("RESTUNE_ISOLATION", Some(value)),
                    ("RESTUNE_WORKER_ARGV", Some("worker_shim --exact")),
                ],
                isolation_mode,
            );
            assert_eq!(got, IsolationMode::Process, "RESTUNE_ISOLATION={value}");
        }
    }

    #[test]
    fn spawn_recipes_key_on_argv_forwarding_and_inherited_knobs() {
        let recipe = |vars: &[(&str, Option<&str>)]| {
            with_env(vars, || SpawnRecipe::current(false)).expect("current_exe resolves")
        };
        let knob = |value: &str| {
            (
                OsString::from("RESTUNE_RECIPE_PROBE"),
                OsString::from(value),
            )
        };
        let plain = recipe(&[
            ("RESTUNE_RECIPE_PROBE", Some("1")),
            ("RESTUNE_ISOLATION", Some("process")),
            ("RESTUNE_TRACE", Some("wire")),
            ("RECIPE_PROBE_ELSEWHERE", Some("x")),
            ("RESTUNE_WORKER_ARGV", None),
        ]);
        assert_eq!(plain.argv[1..], [OsString::from(WORKER_SUBCOMMAND)]);
        assert!(plain.env.contains(&knob("1")));
        assert!(plain.env.windows(2).all(|w| w[0] <= w[1]), "sorted");
        // The two variables the spawn sets itself, and anything outside
        // the RESTUNE_ namespace, are not part of the key.
        for (key, _) in &plain.env {
            let key = key.to_str().expect("utf-8 key");
            assert!(key.starts_with("RESTUNE_"), "{key}");
            assert!(!["RESTUNE_ISOLATION", "RESTUNE_TRACE"].contains(&key));
        }
        let changed = recipe(&[("RESTUNE_RECIPE_PROBE", Some("2"))]);
        assert!(changed.env.contains(&knob("2")) && !changed.env.contains(&knob("1")));
        let hooked = recipe(&[("RESTUNE_WORKER_ARGV", Some("worker_shim --exact"))]);
        assert_eq!(
            hooked.argv[1..],
            ["worker_shim", "--exact"].map(OsString::from)
        );
        assert!(SpawnRecipe::current(true).is_some_and(|r| r.forward_obs));
    }

    #[test]
    fn hard_kill_grace_is_generous() {
        assert_eq!(
            hard_kill_grace(Duration::from_millis(100)),
            Duration::from_secs(2)
        );
        assert_eq!(
            hard_kill_grace(Duration::from_secs(30)),
            Duration::from_secs(30)
        );
    }

    #[test]
    fn shutdown_flag_round_trips() {
        assert!(!shutdown_requested());
        set_shutdown_for_test(true);
        assert!(shutdown_requested());
        set_shutdown_for_test(false);
        assert!(!shutdown_requested());
    }
}
