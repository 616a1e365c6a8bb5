//! `restune-bench`: the repository's benchmark. One invocation runs one
//! workload for a fixed time and prints every metric by name and unit, the
//! last line being one JSON object:
//!
//! ```text
//! restune-bench --workload fig5_inproc|sweep_widen|fig5_served
//!               [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--bless]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing traced.
//! `--trace 1` is a separate run for the per-layer metrics: it alternates
//! untraced and traced passes, then re-drives every simulated job through
//! the per-layer calls (see `replay`). Every pass is gated for
//! correctness (see `gate`). `--smoke` shrinks every budget to a few
//! seconds; `--bless` rewrites the committed default-seed digests. See
//! README.md beside this crate for the metrics and why each workload exists.

mod gate;
mod host;
mod inproc;
mod jobs;
mod replay;
mod served;
mod spans;
mod sweep;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use restune::{SimConfig, SimResult, SweepPoint};

use crate::gate::Expected;
use crate::jobs::{Job, DEFAULT_SEED};
use crate::replay::SimWork;
use crate::spans::{median, Recorder, Span, NONE};

const USAGE: &str = "usage: restune-bench --workload fig5_inproc|sweep_widen|fig5_served
                    [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--bless]";

/// Engine workers, server workers and client streams.
pub const WORKERS: usize = 2;

/// Set-up runs per invocation (this process plus fresh child processes);
/// `setup_s` is their median.
const SETUP_SAMPLES: usize = 5;

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload does
/// not exercise reports 0.
const PER_LAYER: [(&str, &str); 37] = [
    ("cpusim.tick_ns", "ns"),
    ("powermodel.current_ns", "ns"),
    ("rlc.flush_ns", "ns"),
    ("rlc.cycles_per_flush", "cycles"),
    ("controller.base_ns", "ns"),
    ("controller.tuning_ns", "ns"),
    ("controller.sensor_ns", "ns"),
    ("controller.damping_ns", "ns"),
    ("cpusim.ipc", "inst/cycle"),
    ("cpusim.issued_per_cycle", "inst/cycle"),
    ("cpusim.rob_occupancy", "entries"),
    ("cpusim.l1d_misses_per_kinst", "1/kinst"),
    ("detector.events_per_mcycle", "1/Mcycle"),
    ("response.restricted_frac", "fraction"),
    ("kernel.setup_us", "us"),
    ("workloads.decode_ms", "ms"),
    ("engine.suite_s", "s"),
    ("engine.parallel_efficiency", "fraction"),
    ("engine.lane_run_frac", "fraction"),
    ("engine.attempt_failures", "count"),
    ("sweep.run_key_us", "us"),
    ("store.get_hit_us", "us"),
    ("store.get_miss_us", "us"),
    ("store.put_us", "us"),
    ("store.evict_ms", "ms"),
    ("store.hit_rate", "fraction"),
    ("client.job_rtt_ms_p50", "ms"),
    ("client.job_rtt_ms_p90", "ms"),
    ("server.cache_bytes_per_job", "B"),
    ("server.jobs_run", "count"),
    ("server.cache_hits", "count"),
    ("server.busy_rejections", "count"),
    ("client.reconnects", "count"),
    ("isolation.spawn_ms", "ms"),
    ("io.written_mb", "MB"),
    ("trace.overhead_frac", "fraction"),
    ("trace.span_ns", "ns"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkloadName {
    Fig5Inproc,
    SweepWiden,
    Fig5Served,
}

impl WorkloadName {
    fn parse(raw: &str) -> Option<WorkloadName> {
        match raw {
            "fig5_inproc" => Some(WorkloadName::Fig5Inproc),
            "sweep_widen" => Some(WorkloadName::SweepWiden),
            "fig5_served" => Some(WorkloadName::Fig5Served),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            WorkloadName::Fig5Inproc => "fig5_inproc",
            WorkloadName::SweepWiden => "sweep_widen",
            WorkloadName::Fig5Served => "fig5_served",
        }
    }

    /// Committed instructions per run.
    fn instructions(self, smoke: bool) -> u64 {
        match (self, smoke) {
            (_, true) => 2_000,
            (WorkloadName::Fig5Inproc, false) => 60_000,
            (WorkloadName::SweepWiden, false) => 10_000,
            (WorkloadName::Fig5Served, false) => 5_000,
        }
    }

    /// The digests committed for the default seed.
    fn committed(self) -> &'static str {
        match self {
            WorkloadName::Fig5Inproc => include_str!("../digests/fig5_inproc.txt"),
            WorkloadName::SweepWiden => include_str!("../digests/sweep_widen.txt"),
            WorkloadName::Fig5Served => include_str!("../digests/fig5_served.txt"),
        }
    }
}

#[derive(Debug, Clone)]
struct Args {
    workload: WorkloadName,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    bless: bool,
    setup_probe: bool,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut args = Args {
            workload: WorkloadName::Fig5Inproc,
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            smoke: false,
            bless: false,
            setup_probe: false,
        };
        while let Some(flag) = raw.next() {
            let mut value = || raw.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload =
                        Some(WorkloadName::parse(&v).ok_or(format!("unknown workload '{v}'"))?);
                }
                "--seed" => {
                    args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?;
                }
                "--seconds" => {
                    args.seconds = value()?
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or("--seconds needs a positive number")?;
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(String::from("--trace needs 0 or 1")),
                    };
                }
                "--smoke" => args.smoke = true,
                "--bless" => args.bless = true,
                "--setup-probe" => args.setup_probe = true,
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        args.workload = workload.ok_or("--workload is required")?;
        if args.bless && (args.seed != DEFAULT_SEED || args.smoke) {
            return Err(String::from(
                "--bless blesses the default seed at full budget",
            ));
        }
        Ok(args)
    }
}

/// What a workload's pass produced, read back after the timed part.
pub struct PassOut {
    /// One slot per job (`Workload::jobs` order); `None` = failed/missing.
    pub results: Vec<Option<SimResult>>,
    /// `sweep_widen`'s evaluated points.
    pub points: Option<Vec<SweepPoint>>,
}

/// Counter deltas (`restune::obs` registry) over one pass.
pub type Counters = BTreeMap<String, u64>;

/// Context for a workload's own per-layer metrics in the traced run.
pub struct LayerCtx<'a> {
    pub rec: &'a Recorder,
    pub expected: &'a Expected,
    /// `restune::run` of every job, aligned with `Workload::jobs`.
    pub reference: &'a [SimResult],
    /// Serial `restune::run` time of every job in ns, same alignment.
    pub serial_ns: &'a [u64],
    /// Walls (s) of the traced passes.
    pub traced_walls: &'a [f64],
}

/// Per-layer values a workload measures itself, plus the operations those
/// measurements attempted and saw fail.
pub struct Layers {
    pub values: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
}

/// One benchmark workload: set up by its constructor, then any number of
/// passes, each `before_pass` (untimed) → `pass` (timed) → `after_pass`
/// (untimed; self-checks fail with `Err`).
pub trait Workload {
    fn sim(&self) -> SimConfig;
    /// Every job a pass must produce, in issue order.
    fn jobs(&self) -> &[Job];
    /// Indices of the jobs a pass simulates (the rest come from a store).
    fn simulated(&self) -> Vec<usize>;
    fn before_pass(&mut self) -> Result<(), String> {
        Ok(())
    }
    fn pass(&mut self, rec: Option<(&Recorder, u32)>);
    fn after_pass(&mut self, counters: &Counters) -> Result<PassOut, String>;
    /// The frontier digest the reference results imply (sweeps only).
    fn reference_frontier(&self, _reference: &[SimResult]) -> Option<u64> {
        None
    }
    /// Per-layer metrics only this workload exercises.
    fn layers(&mut self, ctx: &LayerCtx) -> Result<Layers, String>;
    /// Stops servers and child processes.
    fn teardown(&mut self) {}
}

/// The run's private scratch directory under the working directory: every
/// cache, store, checkpoint and socket lives here (on the checkout's own
/// filesystem — store puts fsync), and it is removed on exit.
struct TempDir(PathBuf);

impl TempDir {
    fn create() -> std::io::Result<TempDir> {
        let dir = PathBuf::from(".bench_tmp").join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// Clears every inherited `RESTUNE_*` knob and sets only what the workload
/// needs, so the caller's environment cannot change what is measured.
fn pin_environment(workload: WorkloadName, tmp: &Path) {
    let inherited: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("RESTUNE_"))
        .collect();
    for key in inherited {
        std::env::remove_var(key);
    }
    std::env::set_var("RESTUNE_WORKERS", WORKERS.to_string());
    std::env::set_var("RESTUNE_CACHE_DIR", tmp.join("cache"));
    if workload == WorkloadName::Fig5Served {
        // restuned's default: process isolation whenever a worker entry exists.
        std::env::set_var("RESTUNE_ISOLATION", "auto");
    }
}

fn counters() -> Counters {
    restune::obs::snapshot_counters().into_iter().collect()
}

fn delta(before: &Counters, after: &Counters) -> Counters {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0)))
        .filter(|(_, v)| *v > 0)
        .collect()
}

struct Pass {
    wall: f64,
    cpu: f64,
    written: u64,
    peak_rss_mb: f64,
    sim_cycles: u64,
    traced: bool,
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn setup(args: &Args, tmp: &Path, rec: Option<&Recorder>) -> Result<Box<dyn Workload>, String> {
    let instructions = args.workload.instructions(args.smoke);
    Ok(match args.workload {
        WorkloadName::Fig5Inproc => {
            Box::new(inproc::Fig5Inproc::setup(args.seed, instructions, rec))
        }
        WorkloadName::SweepWiden => {
            Box::new(sweep::SweepWiden::setup(args.seed, instructions, tmp, rec)?)
        }
        WorkloadName::Fig5Served => {
            Box::new(served::Fig5Served::setup(args.seed, instructions, tmp)?)
        }
    })
}

/// Runs set-up alone in a fresh process and returns its set-up seconds.
fn probe_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        args.workload.name(),
        "--seed",
        &args.seed.to_string(),
        "--setup-probe",
    ]);
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .find_map(|l| l.strip_prefix("setup_s ")?.trim().parse().ok())
        .filter(|_| out.status.success())
        .ok_or_else(|| format!("set-up probe failed ({}): {text}", out.status))
}

/// The expected digests: committed at the default seed, otherwise (and in
/// smoke mode, whose budgets differ) `restune::run` of the same jobs.
fn expected(args: &Args, w: &dyn Workload, reference: Option<&[SimResult]>) -> Expected {
    if args.seed == DEFAULT_SEED && !args.smoke {
        return Expected::parse(args.workload.committed());
    }
    let owned;
    let reference = match reference {
        Some(r) => r,
        None => {
            owned = gate::reference(w.jobs(), &w.sim(), WORKERS);
            &owned
        }
    };
    Expected::from_results(w.jobs(), reference, w.reference_frontier(reference))
}

/// Runs the workload and gathers its report; `Err` is a failed self-check
/// (or an environment failure), reported without numbers.
fn run(args: &Args, tmp: &Path, started: Instant) -> Result<Option<Report>, String> {
    let rec = args.trace.then(Recorder::new);
    let mut w = setup(args, tmp, rec.as_ref())?;
    let own_setup = started.elapsed().as_secs_f64();
    if args.setup_probe {
        w.teardown();
        println!("setup_s {own_setup}");
        return Ok(None);
    }
    if args.bless {
        let reference = gate::reference(w.jobs(), &w.sim(), WORKERS);
        let frontier = w.reference_frontier(&reference);
        let digests = Expected::from_results(w.jobs(), &reference, frontier);
        let path = format!("benchmark/digests/{}.txt", args.workload.name());
        let header = format!(
            "restune-bench digests: {}, seed {}, {} instructions per run",
            args.workload.name(),
            DEFAULT_SEED,
            w.sim().instructions
        );
        std::fs::write(&path, digests.render(&header)).map_err(|e| format!("{path}: {e}"))?;
        w.teardown();
        eprintln!("blessed {} digests into {path}", digests.len());
        return Ok(None);
    }
    let mut setups = vec![own_setup];
    if !args.trace && !args.smoke {
        for _ in 1..SETUP_SAMPLES {
            setups.push(probe_setup(args)?);
        }
    }

    let before_all = counters();
    let mut passes: Vec<Pass> = Vec::new();
    let mut outs: Vec<PassOut> = Vec::new();
    let simulated = w.simulated();
    let loop_start = Instant::now();
    loop {
        // The traced run alternates untraced and traced passes.
        let traced = args.trace && passes.len() % 2 == 1;
        w.before_pass()?;
        host::settle_disk(tmp);
        let span = rec.as_ref().filter(|_| traced).map(|r| (r, r.id()));
        host::reset_peak_rss();
        let (c0, io0, cpu0) = (counters(), host::written_bytes(), host::cpu_seconds());
        let t0 = span.map(|(r, _)| r.now()).unwrap_or(0);
        let start = Instant::now();
        w.pass(span);
        let wall = start.elapsed().as_secs_f64();
        if let Some((r, id)) = span {
            r.push(Span {
                id,
                parent: NONE,
                job: NONE,
                name: "pass",
                start: t0,
                end: r.now(),
                count: w.jobs().len() as u64,
            });
        }
        let cpu = host::cpu_seconds() - cpu0;
        let written = host::written_bytes() - io0;
        let peak_rss_mb = host::peak_rss_mb();
        let pass_counters = delta(&c0, &counters());
        let out = w.after_pass(&pass_counters)?;
        let sim_cycles = simulated
            .iter()
            .filter_map(|&i| out.results[i].map(|r| r.cycles))
            .sum();
        eprintln!(
            "pass {}{}: wall {wall:.3} s, cpu {cpu:.3} s, {:.3} Mcycles simulated, \
             peak rss {peak_rss_mb:.1} MB",
            passes.len() + 1,
            if traced { " (traced)" } else { "" },
            sim_cycles as f64 / 1e6
        );
        passes.push(Pass {
            wall,
            cpu,
            written,
            peak_rss_mb,
            sim_cycles,
            traced,
        });
        outs.push(out);
        let both =
            !args.trace || (passes.iter().any(|p| p.traced) && passes.iter().any(|p| !p.traced));
        if both && (args.smoke || loop_start.elapsed().as_secs_f64() >= args.seconds) {
            break;
        }
    }
    let run_counters = delta(&before_all, &counters());

    // Reference runs: timed one at a time in the traced run (they give the
    // serial side of the engine's parallel efficiency), otherwise only when
    // the seed has no committed digests.
    let mut serial_ns = Vec::new();
    let reference: Option<Vec<SimResult>> = if args.trace {
        let sim = w.sim();
        Some(
            w.jobs()
                .iter()
                .map(|job| {
                    let t = Instant::now();
                    let r = restune::run(&job.profile, &job.technique, &sim);
                    serial_ns.push(t.elapsed().as_nanos() as u64);
                    r
                })
                .collect(),
        )
    } else {
        None
    };
    let expected = expected(args, w.as_ref(), reference.as_deref());

    let mut attempted = 0u64;
    let mut failed = 0u64;
    for out in &outs {
        for (job, result) in w.jobs().iter().zip(&out.results) {
            attempted += 1;
            if !result.is_some_and(|r| expected.run_ok(job, &r)) {
                failed += 1;
            }
        }
        if let Some(points) = &out.points {
            attempted += 1;
            if !expected.frontier_ok(points) {
                failed += 1;
            }
        }
    }

    let metrics = if let (Some(rec), Some(reference)) = (&rec, &reference) {
        let traced_walls: Vec<f64> = passes.iter().filter(|p| p.traced).map(|p| p.wall).collect();
        let untraced_walls: Vec<f64> = passes
            .iter()
            .filter(|p| !p.traced)
            .map(|p| p.wall)
            .collect();
        let sim = w.sim();
        let mut work = SimWork::default();
        for &i in &simulated {
            attempted += 1;
            let replayed = replay::replay(&w.jobs()[i], &sim, rec, i as u32, &mut work);
            if replayed != Some(reference[i]) {
                failed += 1;
                eprintln!(
                    "restune-bench: replay of {} differs from restune::run",
                    w.jobs()[i].key()
                );
            }
        }
        let ctx = LayerCtx {
            rec,
            expected: &expected,
            reference,
            serial_ns: &serial_ns,
            traced_walls: &traced_walls,
        };
        let own = w.layers(&ctx)?;
        attempted += own.attempted;
        failed += own.failed;
        let path = PathBuf::from(".bench_out").join(format!(
            "spans-{}-seed{}.tsv",
            args.workload.name(),
            args.seed
        ));
        let header = format!(
            "restune-bench spans: workload {}, seed {}; per-cycle layer spans sample one cycle in {}",
            args.workload.name(),
            args.seed,
            replay::SAMPLE_EVERY
        );
        rec.write_tsv(&path, &header)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let mut values = layer_metrics(rec, &work, &passes, &run_counters, simulated.len());
        values.insert(
            "trace.overhead_frac",
            median(&traced_walls) / median(&untraced_walls) - 1.0,
        );
        values.extend(own.values);
        if let Some(name) = values
            .keys()
            .find(|k| !PER_LAYER.iter().any(|(n, _)| n == *k))
        {
            panic!("per-layer metric {name} is not in the catalogue");
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        let pick = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        let values = [
            median(&setups),
            pick(|p| p.wall),
            pick(|p| p.sim_cycles as f64 / p.wall / 1e6),
            pick(|p| p.cpu),
            // A long-lived process's resident set can keep growing from pass
            // to pass (the served workload's does, by about 1 MB a pass), so
            // the peak is taken over a fixed amount of work: the first pass.
            passes[0].peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };
    w.teardown();
    Ok(Some(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }))
}

/// Per-layer metrics every workload shares: the replayed simulation layers,
/// set-up decode, engine counters, I/O, and the span-timer cost.
fn layer_metrics(
    rec: &Recorder,
    work: &SimWork,
    passes: &[Pass],
    run_counters: &Counters,
    simulated_jobs: usize,
) -> BTreeMap<&'static str, f64> {
    let per_call = |name: &str| rec.per_call_ns(name);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let counter = |name: &str| run_counters.get(name).copied().unwrap_or(0);
    let runs = simulated_jobs as u64 * passes.len() as u64;
    let decode_ns: u64 = rec.named("workloads.decode").iter().map(Span::ns).sum();
    let written: Vec<f64> = passes.iter().map(|p| p.written as f64 / 1e6).collect();
    BTreeMap::from([
        ("cpusim.tick_ns", per_call("cpusim.tick")),
        ("powermodel.current_ns", per_call("powermodel.current")),
        ("rlc.flush_ns", per_call("rlc.flush")),
        ("rlc.cycles_per_flush", ratio(work.cycles, work.flushes)),
        ("controller.base_ns", per_call("controller.base")),
        ("controller.tuning_ns", per_call("controller.tuning")),
        ("controller.sensor_ns", per_call("controller.sensor")),
        ("controller.damping_ns", per_call("controller.damping")),
        ("cpusim.ipc", ratio(work.committed, work.cycles)),
        ("cpusim.issued_per_cycle", ratio(work.issued, work.cycles)),
        ("cpusim.rob_occupancy", ratio(work.rob_entries, work.cycles)),
        (
            "cpusim.l1d_misses_per_kinst",
            1e3 * ratio(work.l1d_misses, work.committed),
        ),
        (
            "detector.events_per_mcycle",
            1e6 * ratio(work.detector_events, work.tuning_cycles),
        ),
        (
            "response.restricted_frac",
            ratio(work.restricted_cycles, work.cycles),
        ),
        ("kernel.setup_us", per_call("kernel.setup") / 1e3),
        ("workloads.decode_ms", decode_ns as f64 / 1e6),
        (
            "engine.lane_run_frac",
            ratio(counter("engine.lane_runs"), runs),
        ),
        (
            "engine.attempt_failures",
            counter("engine.attempt_failures") as f64,
        ),
        ("client.reconnects", counter("client.reconnects") as f64),
        ("io.written_mb", median(&written)),
        ("trace.span_ns", rec.timer_ns()),
    ])
}

fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a finite number");
    format!("{v:?}")
}

fn main() -> ExitCode {
    let started = Instant::now();
    restune::maybe_run_worker();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tmp = match TempDir::create() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("restune-bench: cannot create the scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    pin_environment(args.workload, &tmp.0);
    let report = match run(&args, &tmp.0, started) {
        Ok(Some(report)) => report,
        Ok(None) => return ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("restune-bench: {}: {msg}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    drop(tmp);

    for (name, value, unit) in &report.metrics {
        println!("{:<30} {value:>16.6} {unit}", name);
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
