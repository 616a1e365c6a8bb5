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
//!   wall time and aggregate cycles/second;
//! * **setup** — the same runs cut to one instruction each, so a pass is
//!   nearly all per-run fixed cost (building and warming the CPU, power
//!   model, supply and controller); a run's set-up is its pass time over
//!   its `runs`.
//!
//! Every row is measured the same way: one untimed warm-up pass per path
//! (which also fixes the deterministic cycle count), then [`FULL_ROUNDS`]
//! rounds that each time one pass of both paths, fused first on even
//! rounds and reference first on odd ones, so slow host drift hits both
//! paths equally. A row reports the median and the quartiles of its
//! passes, and the suite speedup is the ratio of the two medians: a
//! change to a row reads as real only when it clears the row's spread.
//!
//! The harness writes a machine-readable `BENCH_kernel.json` (at the
//! repository root, or wherever `RESTUNE_BENCH_OUT` points) with every
//! measurement. Under `--test` the rows run [`SMOKE_ROUNDS`] rounds on
//! shrunk workloads and the JSON is still produced, so CI can validate the
//! schema cheaply.

use std::hint::black_box;
use std::time::Instant;

use restune::{run_on_path, EnginePath, SimConfig, Technique, TuningConfig};
use workloads::{spec2k, WorkloadProfile};

/// Instructions per run at full measurement scale.
const FULL_SINGLE: u64 = 40_000;
const FULL_SUITE: u64 = 20_000;
/// Instructions per run of the `setup` row: one, so it times the fixed cost.
const SETUP_INSTRUCTIONS: u64 = 1;
/// Timed passes per path and row at full measurement scale.
const FULL_ROUNDS: usize = 11;
/// Instructions per run in `--test` (smoke) mode.
const SMOKE_SINGLE: u64 = 2_000;
const SMOKE_SUITE: u64 = 1_000;
/// Apps in the smoke-mode suite (full mode uses all of SPEC2K).
const SMOKE_APPS: usize = 6;
/// Timed passes per path and row in `--test` (smoke) mode.
const SMOKE_ROUNDS: usize = 3;

/// One (application, technique) run of a benchmark's workload set.
struct RunSpec {
    profile: WorkloadProfile,
    technique: Technique,
}

/// The median and quartiles of a set of samples.
#[derive(Clone, Copy)]
struct Spread {
    q1: f64,
    median: f64,
    q3: f64,
}

impl Spread {
    /// Quartiles by linear interpolation between order statistics (the
    /// sample at fractional rank `p·(n−1)`).
    fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |p: f64| {
            let rank = p * (sorted.len() - 1) as f64;
            let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        };
        Self {
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        }
    }
}

/// One benchmark row, fully measured: a workload set on one engine path.
struct Point {
    name: &'static str,
    path: &'static str,
    instructions_per_run: u64,
    runs: usize,
    cycles: u64,
    /// Wall time of every timed pass, in seconds.
    walls: Vec<f64>,
}

impl Point {
    fn wall(&self) -> Spread {
        Spread::of(&self.walls)
    }

    fn cycles_per_second(&self) -> Spread {
        let rates: Vec<f64> = self.walls.iter().map(|w| self.cycles as f64 / w).collect();
        Spread::of(&rates)
    }

    fn ns_per_cycle(&self) -> f64 {
        self.wall().median * 1e9 / self.cycles as f64
    }

    /// Median wall time per run, in microseconds.
    fn us_per_run(&self) -> f64 {
        self.wall().median * 1e6 / self.runs as f64
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

/// Measures one row on both paths: an untimed warm-up pass per path, then
/// `rounds` rounds of one timed pass per path, the order swapped every
/// round. Returns the fused point, then the reference point.
fn measure_alternating(
    name: &'static str,
    set: &[RunSpec],
    sim: &SimConfig,
    rounds: usize,
) -> [Point; 2] {
    let paths = [EnginePath::Fused, EnginePath::Reference];
    let cycles = paths.map(|path| black_box(run_set(set, sim, path)));
    let mut walls = [Vec::with_capacity(rounds), Vec::with_capacity(rounds)];
    for round in 0..rounds {
        let order = if round % 2 == 0 { [0, 1] } else { [1, 0] };
        for k in order {
            let t0 = Instant::now();
            black_box(run_set(set, sim, paths[k]));
            walls[k].push(t0.elapsed().as_secs_f64());
        }
    }
    let [fused, reference] = walls;
    let point = |k: usize, walls: Vec<f64>| Point {
        name,
        path: path_label(paths[k]),
        instructions_per_run: sim.instructions,
        runs: set.len(),
        cycles: cycles[k],
        walls,
    };
    [point(0, fused), point(1, reference)]
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
    let (wall, rate) = (p.wall(), p.cycles_per_second());
    format!(
        "    {{\"name\": \"{}\", \"path\": \"{}\", \"instructions_per_run\": {}, \
         \"runs\": {}, \"cycles\": {}, \"passes\": {}, \
         \"wall_seconds\": {}, \"wall_seconds_q1\": {}, \"wall_seconds_q3\": {}, \
         \"ns_per_cycle\": {}, \"cycles_per_second\": {}, \
         \"cycles_per_second_q1\": {}, \"cycles_per_second_q3\": {}}}",
        p.name,
        p.path,
        p.instructions_per_run,
        p.runs,
        p.cycles,
        p.walls.len(),
        json_f64(wall.median),
        json_f64(wall.q1),
        json_f64(wall.q3),
        json_f64(p.ns_per_cycle()),
        json_f64(rate.median),
        json_f64(rate.q1),
        json_f64(rate.q3),
    )
}

/// The whole `BENCH_kernel.json` document, schema `restune-kernel-bench-v4`.
/// CI validates exactly these keys.
fn json_document(mode: &str, points: &[Point], fused: &Point, reference: &Point) -> String {
    let (fw, fc) = (fused.wall(), fused.cycles_per_second());
    let (rw, rc) = (reference.wall(), reference.cycles_per_second());
    let rows: Vec<String> = points.iter().map(json_point).collect();
    format!(
        "{{\n  \"schema\": \"restune-kernel-bench-v4\",\n  \"mode\": \"{mode}\",\n  \
         \"batch_size\": {batch},\n  \
         \"benchmarks\": [\n{rows}\n  ],\n  \
         \"table3_suite\": {{\n    \"apps\": {apps},\n    \
         \"instructions_per_app\": {instr},\n    \
         \"passes\": {passes},\n    \
         \"fused_wall_seconds\": {fw},\n    \
         \"fused_cycles_per_second\": {fc},\n    \
         \"fused_cycles_per_second_q1\": {fc1},\n    \
         \"fused_cycles_per_second_q3\": {fc3},\n    \
         \"reference_wall_seconds\": {rw},\n    \
         \"reference_cycles_per_second\": {rc},\n    \
         \"reference_cycles_per_second_q1\": {rc1},\n    \
         \"reference_cycles_per_second_q3\": {rc3},\n    \
         \"speedup_cycles_per_second\": {sp}\n  }}\n}}\n",
        batch = restune::kernel::FLUSH_BATCH,
        rows = rows.join(",\n"),
        apps = fused.runs / 2,
        instr = fused.instructions_per_run,
        passes = fused.walls.len(),
        fw = json_f64(fw.median),
        fc = json_f64(fc.median),
        fc1 = json_f64(fc.q1),
        fc3 = json_f64(fc.q3),
        rw = json_f64(rw.median),
        rc = json_f64(rc.median),
        rc1 = json_f64(rc.q1),
        rc3 = json_f64(rc.q3),
        sp = json_f64(fc.median / rc.median),
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
        ("smoke", SMOKE_SINGLE, SMOKE_SUITE, SMOKE_APPS, SMOKE_ROUNDS)
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
    let mut points = Vec::new();

    let hot = single("swim", Technique::Base);
    points.extend(measure_alternating("hot_loop", &hot, &sim_single, rounds));
    let app = single("gcc", Technique::Tuning(TuningConfig::isca04_table1(100)));
    points.extend(measure_alternating("full_app", &app, &sim_single, rounds));

    // The suite runs single-threaded in this process on both paths; the
    // engine spreads runs across its worker pool, but that is a scheduling
    // concern this kernel benchmark deliberately excludes.
    let suite = table3_suite(apps);
    let setup = SimConfig::isca04(SETUP_INSTRUCTIONS);
    points.extend(measure_alternating("setup", &suite, &setup, rounds));
    let [fused, reference] = measure_alternating("table3_suite", &suite, &sim_suite, rounds);

    let speedup = fused.cycles_per_second().median / reference.cycles_per_second().median;
    let doc = json_document(mode, &points, &fused, &reference);
    points.push(fused);
    points.push(reference);
    let out = output_path();
    std::fs::write(&out, doc).expect("write BENCH_kernel.json");

    println!("\nkernel vs reference (median [q1, q3] of {rounds} alternated passes):");
    for p in &points {
        let rate = p.cycles_per_second();
        println!(
            "  {:13} {:9}: {:8.1} ns/cycle, {:11.0} cycles/s [{:.0}, {:.0}] \
             ({} runs, {:.3} s, {:.1} us/run)",
            p.name,
            p.path,
            p.ns_per_cycle(),
            rate.median,
            rate.q1,
            rate.q3,
            p.runs,
            p.wall().median,
            p.us_per_run(),
        );
    }
    println!(
        "table3 suite speedup: fused vs reference {speedup:.2}x (medians) — wrote {}",
        out.display()
    );
    if mode == "full" && speedup < 2.0 {
        eprintln!("WARNING: table3 suite fused speedup below the 2x target");
    }
}
