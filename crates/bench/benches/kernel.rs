//! Kernel benchmark: the fused batched engine ([`EnginePath::Fused`])
//! against the per-cycle pre-kernel reference loop
//! ([`EnginePath::Reference`]), on three scales:
//!
//! * **hot loop** — one base-machine run, reported as ns/cycle of the
//!   controller → CPU → power → supply chain;
//! * **full app** — one resonance-tuning run, reported as simulated
//!   cycles/second;
//! * **table3 suite** — the Table 3 workload shape (every SPEC2K app under
//!   the base machine and the 100-cycle tuning point), reported as suite
//!   wall time and aggregate cycles/second, with the two paths' passes
//!   *alternated* round-robin rather than timed back-to-back, so slow VM
//!   drift hits both equally instead of biasing whichever ran last.
//!
//! Besides the criterion output, the harness writes a machine-readable
//! `BENCH_kernel.json` (at the repository root, or wherever
//! `RESTUNE_BENCH_OUT` points) with every measurement and the fused-vs-
//! reference suite speedup. Under `--test` the benchmark bodies run once on
//! shrunk workloads and the JSON is still produced from a single timed
//! pass, so CI can validate the schema cheaply.

use std::time::Instant;

use criterion::{black_box, BenchmarkGroup, Criterion, Throughput};
use restune::{run_on_path, EnginePath, SimConfig, Technique, TuningConfig};
use workloads::{spec2k, WorkloadProfile};

/// Instructions per run at full measurement scale.
const FULL_SINGLE: u64 = 40_000;
const FULL_SUITE: u64 = 20_000;
/// Alternating suite passes per path at full measurement scale.
const FULL_ROUNDS: usize = 5;
/// Instructions per run in `--test` (smoke) mode.
const SMOKE_SINGLE: u64 = 2_000;
const SMOKE_SUITE: u64 = 1_000;
/// Apps in the smoke-mode suite (full mode uses all of SPEC2K).
const SMOKE_APPS: usize = 6;

/// One (application, technique) run of a benchmark's workload set.
struct RunSpec {
    profile: WorkloadProfile,
    technique: Technique,
}

/// One benchmark point, fully measured: a workload set on one engine path.
struct Point {
    name: &'static str,
    path: &'static str,
    instructions_per_run: u64,
    runs: usize,
    cycles: u64,
    wall_seconds: f64,
}

impl Point {
    fn cycles_per_second(&self) -> f64 {
        self.cycles as f64 / self.wall_seconds
    }

    fn ns_per_cycle(&self) -> f64 {
        self.wall_seconds * 1e9 / self.cycles as f64
    }
}

fn path_label(path: EnginePath) -> &'static str {
    match path {
        EnginePath::Fused => "fused",
        EnginePath::Reference => "reference",
    }
}

/// Executes every run of a workload set on one path, returning total cycles.
fn run_set(set: &[RunSpec], sim: &SimConfig, path: EnginePath) -> u64 {
    set.iter()
        .map(|r| run_on_path(&r.profile, &r.technique, sim, path).cycles)
        .sum()
}

/// Benchmarks one workload set on one path and captures the measurement.
/// The first pass (outside the timing loop) doubles as warm-up and as the
/// deterministic cycle count.
fn bench_point(
    g: &mut BenchmarkGroup<'_>,
    name: &'static str,
    set: &[RunSpec],
    sim: &SimConfig,
    path: EnginePath,
) -> Point {
    let cycles = run_set(set, sim, path);
    g.throughput(Throughput::Elements(cycles));
    let measured = g.bench_function(path_label(path), |b| {
        b.iter(|| black_box(run_set(set, sim, path)))
    });
    let wall_seconds = match measured {
        Some(m) => m.seconds_per_iter(),
        // --test mode: criterion times nothing, so take one direct pass —
        // the workloads are shrunk, and the JSON schema still gets real
        // numbers.
        None => {
            let t0 = Instant::now();
            black_box(run_set(set, sim, path));
            t0.elapsed().as_secs_f64()
        }
    };
    Point {
        name,
        path: path_label(path),
        instructions_per_run: sim.instructions,
        runs: set.len(),
        cycles,
        wall_seconds,
    }
}

/// Measures several suite runners with round-robin alternation: one warm-up
/// pass per runner (which also fixes the deterministic cycle count), then
/// `rounds` rounds that each time one full pass of every runner in turn.
/// Reported wall time is the per-pass mean.
fn measure_alternating(
    name: &'static str,
    instructions_per_run: u64,
    runs: usize,
    rounds: usize,
    runners: &[(&'static str, &dyn Fn() -> u64)],
) -> Vec<Point> {
    let cycles: Vec<u64> = runners.iter().map(|(_, r)| black_box(r())).collect();
    let mut walls = vec![0.0f64; runners.len()];
    for _ in 0..rounds {
        for (k, (_, r)) in runners.iter().enumerate() {
            let t0 = Instant::now();
            black_box(r());
            walls[k] += t0.elapsed().as_secs_f64();
        }
    }
    runners
        .iter()
        .zip(cycles)
        .zip(walls)
        .map(|(((label, _), cycles), wall)| Point {
            name,
            path: label,
            instructions_per_run,
            runs,
            cycles,
            wall_seconds: wall / rounds as f64,
        })
        .collect()
}

fn single(app: &str, technique: Technique) -> Vec<RunSpec> {
    vec![RunSpec {
        profile: spec2k::by_name(app).expect("app is in the suite"),
        technique,
    }]
}

/// The Table 3 workload shape: every app under the base machine (the
/// denominator of its slowdown columns) and under the paper's default
/// 100-cycle initial-response tuning point.
fn table3_suite(apps: usize) -> Vec<RunSpec> {
    let mut set = Vec::new();
    for profile in spec2k::all().into_iter().take(apps) {
        set.push(RunSpec {
            profile,
            technique: Technique::Base,
        });
        set.push(RunSpec {
            profile,
            technique: Technique::Tuning(TuningConfig::isca04_table1(100)),
        });
    }
    set
}

/// Renders a finite float for JSON (JSON has no NaN/inf literals).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        String::from("null")
    }
}

fn json_point(p: &Point) -> String {
    format!(
        "    {{\"name\": \"{}\", \"path\": \"{}\", \"instructions_per_run\": {}, \
         \"runs\": {}, \"cycles\": {}, \"wall_seconds\": {}, \
         \"ns_per_cycle\": {}, \"cycles_per_second\": {}}}",
        p.name,
        p.path,
        p.instructions_per_run,
        p.runs,
        p.cycles,
        json_f64(p.wall_seconds),
        json_f64(p.ns_per_cycle()),
        json_f64(p.cycles_per_second()),
    )
}

/// The whole `BENCH_kernel.json` document, schema `restune-kernel-bench-v3`.
/// CI validates exactly these keys.
fn json_document(mode: &str, points: &[Point], fused: &Point, reference: &Point) -> String {
    let speedup = fused.cycles_per_second() / reference.cycles_per_second();
    let rows: Vec<String> = points.iter().map(json_point).collect();
    format!(
        "{{\n  \"schema\": \"restune-kernel-bench-v3\",\n  \"mode\": \"{mode}\",\n  \
         \"batch_size\": {batch},\n  \
         \"benchmarks\": [\n{rows}\n  ],\n  \
         \"table3_suite\": {{\n    \"apps\": {apps},\n    \
         \"instructions_per_app\": {instr},\n    \
         \"fused_wall_seconds\": {fw},\n    \
         \"fused_cycles_per_second\": {fc},\n    \
         \"reference_wall_seconds\": {rw},\n    \
         \"reference_cycles_per_second\": {rc},\n    \
         \"speedup_cycles_per_second\": {sp}\n  }}\n}}\n",
        batch = restune::kernel::FLUSH_BATCH,
        rows = rows.join(",\n"),
        apps = fused.runs / 2,
        instr = fused.instructions_per_run,
        fw = json_f64(fused.wall_seconds),
        fc = json_f64(fused.cycles_per_second()),
        rw = json_f64(reference.wall_seconds),
        rc = json_f64(reference.cycles_per_second()),
        sp = json_f64(speedup),
    )
}

fn output_path() -> std::path::PathBuf {
    std::env::var_os("RESTUNE_BENCH_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernel.json")
        })
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let (mode, n_single, n_suite, apps, rounds) = if test_mode {
        ("smoke", SMOKE_SINGLE, SMOKE_SUITE, SMOKE_APPS, 1)
    } else {
        (
            "full",
            FULL_SINGLE,
            FULL_SUITE,
            spec2k::all().len(),
            FULL_ROUNDS,
        )
    };
    let sim_single = SimConfig::isca04(n_single);
    let sim_suite = SimConfig::isca04(n_suite);
    let mut criterion = Criterion::from_args();
    let mut points = Vec::new();

    let hot = single("swim", Technique::Base);
    let mut g = criterion.benchmark_group("kernel_hot_loop");
    g.sample_size(10);
    for path in [EnginePath::Fused, EnginePath::Reference] {
        points.push(bench_point(&mut g, "hot_loop", &hot, &sim_single, path));
    }
    g.finish();

    let app = single("gcc", Technique::Tuning(TuningConfig::isca04_table1(100)));
    let mut g = criterion.benchmark_group("kernel_full_app");
    g.sample_size(10);
    for path in [EnginePath::Fused, EnginePath::Reference] {
        points.push(bench_point(&mut g, "full_app", &app, &sim_single, path));
    }
    g.finish();

    // The suite runs single-threaded in this process on both paths; the
    // engine spreads runs across its worker pool, but that is a scheduling
    // concern this kernel benchmark deliberately excludes.
    let suite = table3_suite(apps);
    let fused_runner = || run_set(&suite, &sim_suite, EnginePath::Fused);
    let reference_runner = || run_set(&suite, &sim_suite, EnginePath::Reference);
    let suite_points = measure_alternating(
        "table3_suite",
        sim_suite.instructions,
        suite.len(),
        rounds,
        &[("fused", &fused_runner), ("reference", &reference_runner)],
    );
    let [fused, reference]: [Point; 2] = suite_points
        .try_into()
        .unwrap_or_else(|_| unreachable!("two suite runners produce two points"));

    let speedup = fused.cycles_per_second() / reference.cycles_per_second();
    let doc = json_document(mode, &points, &fused, &reference);
    points.push(fused);
    points.push(reference);
    let out = output_path();
    std::fs::write(&out, doc).expect("write BENCH_kernel.json");

    println!("\nkernel vs reference ({} runs/path groups):", points.len());
    for p in &points {
        println!(
            "  {:13} {:9}: {:8.1} ns/cycle, {:11.0} cycles/s ({} runs, {:.3} s)",
            p.name,
            p.path,
            p.ns_per_cycle(),
            p.cycles_per_second(),
            p.runs,
            p.wall_seconds,
        );
    }
    println!(
        "table3 suite speedup: fused vs reference {speedup:.2}x — wrote {}",
        out.display()
    );
    if mode == "full" && speedup < 2.0 {
        eprintln!("WARNING: table3 suite fused speedup below the 2x target");
    }
}
