//! `fig5_served`: Fig. 5's 182 jobs (5k instructions each) sent through an
//! in-process `Server` on a unix socket, with this process as the thin
//! client (`set_connect`): one connection, two jobs in flight, closed loop
//! — each stream sends its next one-job `run_suite_supervised` call only
//! when the last one returned. The server starts every pass with a fresh
//! cache directory and runs each job in a worker child process (restuned's
//! default isolation). Simulation is a small share of a pass; wire framing,
//! queueing, worker spawn and the server's result cache make up the rest.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use restune::{
    run_suite_supervised, Endpoint, FaultPlan, IsolationMode, Server, ServerConfig, ServerStats,
    SimConfig, SimResult, SupervisorConfig,
};

use crate::host;
use crate::jobs::{self, Job};
use crate::spans::{quantile, Recorder, Span, NONE};
use crate::{Counters, LayerCtx, Layers, PassOut, Workload, WORKERS};

/// The sibling binary that serves on the thread tier: it never installs a
/// worker entry, so its server runs jobs in-process.
const THREAD_TIER_SERVER: &str = "restune-bench-thread-server";

pub struct Fig5Served {
    sim: SimConfig,
    jobs: Vec<Job>,
    tmp: PathBuf,
    server: Option<(Server, PathBuf)>,
    results: Vec<Option<SimResult>>,
    last_stats: ServerStats,
    cache_bytes: u64,
}

/// Sends every job through the armed connect route from [`WORKERS`] closed-
/// loop streams, recording one `name` span per call when traced.
fn send_all(
    jobs: &[Job],
    sim: &SimConfig,
    rec: Option<(&Recorder, u32)>,
    name: &'static str,
) -> Vec<Option<SimResult>> {
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<Option<SimResult>>> = jobs.iter().map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { return };
                let call = || {
                    run_suite_supervised(
                        std::slice::from_ref(&job.profile),
                        &job.technique,
                        sim,
                        &SupervisorConfig::default(),
                        &FaultPlan::none(),
                    )
                };
                let suite = match rec {
                    Some((rec, parent)) => rec.time(name, parent, i as u32, call),
                    None => call(),
                };
                let result = suite.outcomes[0].as_ref().ok().copied();
                slots[i].set(result).expect("each job is sent once");
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every job was sent"))
        .collect()
}

/// A relative socket path: unix socket paths are short (108 bytes), and the
/// checkout's absolute path may not be.
fn socket(tmp: &Path, name: &str) -> String {
    tmp.join(name).to_string_lossy().into_owned()
}

impl Fig5Served {
    pub fn setup(seed: u64, instructions: u64, tmp: &Path) -> Result<Fig5Served, String> {
        if restune::isolation_mode() != IsolationMode::Process {
            return Err(String::from(
                "the server would not isolate jobs in processes",
            ));
        }
        let mut w = Fig5Served {
            sim: SimConfig::isca04(instructions),
            jobs: jobs::fig5_jobs(seed),
            tmp: tmp.to_path_buf(),
            server: None,
            results: Vec::new(),
            last_stats: ServerStats::default(),
            cache_bytes: 0,
        };
        w.start_server()?;
        Ok(w)
    }

    /// Starts a server with a fresh cache directory and connects to it.
    fn start_server(&mut self) -> Result<(), String> {
        let cache = self.tmp.join("server-cache");
        let sock = socket(&self.tmp, "restuned.sock");
        let cfg = ServerConfig {
            cache_dir: Some(cache.clone()),
            ..ServerConfig::from_env()
        };
        let server = Server::start(Endpoint::parse(&sock), cfg)
            .map_err(|e| format!("cannot start the server: {e}"))?;
        restune::set_connect(&sock).map_err(|e| format!("cannot connect to the server: {e}"))?;
        self.server = Some((server, cache));
        Ok(())
    }

    /// Disconnects and drains the server, returning its counters and the
    /// bytes its cache directory held.
    fn stop_server(&mut self) -> Option<(ServerStats, u64)> {
        let (server, cache) = self.server.take()?;
        restune::clear_connect();
        let stats = server.drain_and_stop();
        let bytes = host::tree_bytes(&cache);
        let _ = std::fs::remove_dir_all(&cache);
        Some((stats, bytes))
    }

    /// Sends every job to a thread-tier server in a sibling process.
    fn thread_tier_pass(&self, rec: &Recorder) -> Result<Vec<Option<SimResult>>, String> {
        let exe = std::env::current_exe()
            .map_err(|e| format!("current_exe: {e}"))?
            .with_file_name(THREAD_TIER_SERVER);
        let sock = socket(&self.tmp, "thread-tier.sock");
        let mut child = Command::new(&exe)
            .args([
                sock.as_str(),
                &self.tmp.join("thread-tier-cache").to_string_lossy(),
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let mut ready = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let outcome = BufReader::new(stdout)
            .read_line(&mut ready)
            .map_err(|e| e.to_string())
            .and_then(|_| {
                if ready.trim() != "ready" {
                    return Err(format!("thread-tier server did not start: {ready:?}"));
                }
                restune::set_connect(&sock).map_err(|e| e.to_string())?;
                let results = send_all(
                    &self.jobs,
                    &self.sim,
                    Some((rec, NONE)),
                    "client.job_thread_tier",
                );
                restune::clear_connect();
                Ok(results)
            });
        drop(child.stdin.take()); // end of stdin: the sibling drains and exits
        let status = child.wait().map_err(|e| e.to_string())?;
        let results = outcome?;
        if !status.success() {
            return Err(format!("thread-tier server exited with {status}"));
        }
        Ok(results)
    }
}

impl Workload for Fig5Served {
    fn sim(&self) -> SimConfig {
        self.sim
    }

    fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    fn simulated(&self) -> Vec<usize> {
        (0..self.jobs.len()).collect()
    }

    fn before_pass(&mut self) -> Result<(), String> {
        if self.server.is_none() {
            self.start_server()?;
        }
        Ok(())
    }

    fn pass(&mut self, rec: Option<(&Recorder, u32)>) {
        self.results = send_all(&self.jobs, &self.sim, rec, "client.job");
    }

    fn after_pass(&mut self, counters: &Counters) -> Result<PassOut, String> {
        let (stats, bytes) = self.stop_server().expect("a server ran the pass");
        let reconnects = counters.get("client.reconnects").copied().unwrap_or(0);
        let jobs = self.jobs.len() as u64;
        if stats.jobs_run != jobs
            || stats.cache_hits != 0
            || stats.busy_rejections != 0
            || reconnects != 0
        {
            return Err(format!(
                "served pass ran {} jobs (expected {jobs}) with {} cache hits, {} busy \
                 rejections and {reconnects} reconnects (expected none)",
                stats.jobs_run, stats.cache_hits, stats.busy_rejections
            ));
        }
        self.last_stats = stats;
        self.cache_bytes = bytes;
        Ok(PassOut {
            results: std::mem::take(&mut self.results),
            points: None,
        })
    }

    fn layers(&mut self, ctx: &LayerCtx) -> Result<Layers, String> {
        let thread_tier = self.thread_tier_pass(ctx.rec)?;
        let mut failed = 0;
        for (job, result) in self.jobs.iter().zip(&thread_tier) {
            if !result.is_some_and(|r| ctx.expected.run_ok(job, &r)) {
                failed += 1;
            }
        }
        let rtt_ms = |name: &str| -> Vec<f64> {
            ctx.rec
                .named(name)
                .iter()
                .map(|s: &Span| s.ns() as f64 / 1e6)
                .collect()
        };
        let process = rtt_ms("client.job");
        let thread = rtt_ms("client.job_thread_tier");
        let serial: u64 = ctx.serial_ns.iter().sum();
        let pass_wall: f64 = ctx.traced_walls.iter().sum::<f64>() / ctx.traced_walls.len() as f64;
        let jobs = self.jobs.len() as f64;
        Ok(Layers {
            values: vec![
                ("client.job_rtt_ms_p50", quantile(&process, 0.5)),
                ("client.job_rtt_ms_p90", quantile(&process, 0.9)),
                (
                    "isolation.spawn_ms",
                    quantile(&process, 0.5) - quantile(&thread, 0.5),
                ),
                (
                    "engine.suite_s",
                    process.iter().sum::<f64>() / process.len() as f64 / 1e3,
                ),
                (
                    // The engine's wall is the pass: its two streams overlap.
                    "engine.parallel_efficiency",
                    serial as f64 / 1e9 / (WORKERS as f64 * pass_wall),
                ),
                ("server.cache_bytes_per_job", self.cache_bytes as f64 / jobs),
                ("server.jobs_run", self.last_stats.jobs_run as f64),
                ("server.cache_hits", self.last_stats.cache_hits as f64),
                (
                    "server.busy_rejections",
                    self.last_stats.busy_rejections as f64,
                ),
            ],
            attempted: thread_tier.len() as u64,
            failed,
        })
    }

    fn teardown(&mut self) {
        self.stop_server();
    }
}
