//! `sweep_widen`: the documented widen-one-axis use of `run_sweep`. Before
//! every pass the run store is restored to hold only the narrow grid's 224
//! runs; the pass then sweeps the widened grid's 480 runs, so store reads
//! (224 hits) sit beside writes (256 simulated misses, each an fsync'd
//! put). Runs are short (10k instructions), so per-run set-up, `run_key`
//! and the store carry the share of the pass that `fig5_inproc` hides.

use std::path::{Path, PathBuf};

use restune::{
    run_key, run_suite_supervised, run_sweep, FaultPlan, GridSpec, RunPolicy, RunStore, SimConfig,
    SimResult, SupervisorConfig, SweepOutcome,
};
use workloads::{corpus, spec2k};

use crate::gate;
use crate::host;
use crate::jobs::{self, Job};
use crate::spans::{Recorder, Span, NONE};
use crate::{Counters, LayerCtx, Layers, PassOut, Workload, WORKERS};

/// Runs of the narrow grid the store holds when a pass starts.
const NARROW_RUNS: u64 = 224;
/// Runs of the widened grid.
const WIDE_RUNS: u64 = 480;

pub struct SweepWiden {
    sim: SimConfig,
    spec: GridSpec,
    jobs: Vec<Job>,
    /// Indices of the widened half's jobs: the runs a pass simulates.
    fresh: Vec<usize>,
    /// The store as every pass starts it: the narrow grid's runs.
    seeded: PathBuf,
    /// The store a pass runs against.
    store: PathBuf,
    scratch: PathBuf,
    outcome: Option<Result<SweepOutcome, String>>,
    /// The last pass's store hit rate.
    hit_rate: f64,
}

impl SweepWiden {
    pub fn setup(
        seed: u64,
        instructions: u64,
        tmp: &Path,
        rec: Option<&Recorder>,
    ) -> Result<SweepWiden, String> {
        for (i, p) in corpus::all().iter().enumerate() {
            match rec {
                Some(rec) => {
                    rec.time("workloads.decode", NONE, i as u32, || corpus::trace(p.name));
                }
                None => {
                    corpus::trace(p.name);
                }
            }
        }
        let mut profiles = spec2k::all();
        profiles.extend(corpus::all());
        crate::inproc::decode(&profiles, instructions, rec);

        let narrow = jobs::narrow_grid(instructions);
        let seeded = tmp.join("store-narrow");
        let seeding = run_sweep(&narrow, &RunPolicy::none(), &RunStore::open(seeded.clone()))?;
        if seeding.store_misses != NARROW_RUNS {
            return Err(format!(
                "seeding simulated {} runs, expected {NARROW_RUNS}",
                seeding.store_misses
            ));
        }
        let narrow_labels: Vec<String> =
            narrow.technique_points().into_iter().map(|p| p.0).collect();
        let spec = jobs::wide_grid(seed, instructions);
        let jobs = jobs::grid_jobs(&spec);
        let fresh = (0..jobs.len())
            .filter(|&i| !narrow_labels.contains(&jobs[i].label))
            .collect();
        Ok(SweepWiden {
            sim: SimConfig::isca04(instructions),
            spec,
            jobs,
            fresh,
            seeded,
            store: tmp.join("store"),
            scratch: tmp.join("store-probe"),
            outcome: None,
            hit_rate: 0.0,
        })
    }

    /// A fresh copy of the pass-start store at `dir`.
    fn restore(&self, dir: &Path) -> Result<RunStore, String> {
        let _ = std::fs::remove_dir_all(dir);
        host::copy_flat(&self.seeded, dir).map_err(|e| format!("restoring the store: {e}"))?;
        Ok(RunStore::open(dir.to_path_buf()))
    }
}

impl Workload for SweepWiden {
    fn sim(&self) -> SimConfig {
        self.sim
    }

    fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    fn simulated(&self) -> Vec<usize> {
        self.fresh.clone()
    }

    fn before_pass(&mut self) -> Result<(), String> {
        self.restore(&self.store).map(|_| ())
    }

    fn pass(&mut self, rec: Option<(&Recorder, u32)>) {
        let store = RunStore::open(self.store.clone());
        let run = || run_sweep(&self.spec, &RunPolicy::none(), &store);
        self.outcome = Some(match rec {
            Some((rec, pass)) => rec.time("sweep.run_sweep", pass, NONE, run),
            None => run(),
        });
    }

    fn after_pass(&mut self, _counters: &Counters) -> Result<PassOut, String> {
        let points = match self.outcome.take().expect("a pass ran") {
            Ok(outcome) => {
                let counts = (outcome.runs, outcome.store_hits, outcome.store_misses);
                if counts != (WIDE_RUNS, NARROW_RUNS, WIDE_RUNS - NARROW_RUNS) {
                    return Err(format!(
                        "pass saw (runs, hits, misses) = {counts:?}, expected \
                         ({WIDE_RUNS}, {NARROW_RUNS}, {})",
                        WIDE_RUNS - NARROW_RUNS
                    ));
                }
                self.hit_rate = outcome.hit_rate();
                outcome.points
            }
            Err(e) => {
                eprintln!("restune-bench: sweep pass failed: {e}");
                Vec::new()
            }
        };
        // The pass's results are the store's records of every run it needed.
        let store = RunStore::open(self.store.clone());
        let results = self
            .jobs
            .iter()
            .map(|j| store.get(&run_key(&j.profile, &j.technique, &self.sim)))
            .collect();
        let _ = std::fs::remove_dir_all(&self.store);
        Ok(PassOut {
            results,
            points: Some(points),
        })
    }

    fn reference_frontier(&self, reference: &[SimResult]) -> Option<u64> {
        Some(gate::reference_frontier(&self.jobs, reference))
    }

    fn layers(&mut self, ctx: &LayerCtx) -> Result<Layers, String> {
        let rec = ctx.rec;
        let sim = self.sim;
        let keys: Vec<_> = self
            .jobs
            .iter()
            .enumerate()
            .map(|(i, j)| {
                rec.time("sweep.run_key", NONE, i as u32, || {
                    run_key(&j.profile, &j.technique, &sim)
                })
            })
            .collect();

        // Store operations on the pass's keys, against a copy of the
        // pass-start store: a get per run, a put per miss, one eviction scan.
        let store = self.restore(&self.scratch)?;
        for (i, key) in keys.iter().enumerate() {
            let start = rec.now();
            let hit = store.get(key).is_some();
            let end = rec.now();
            rec.push(Span {
                id: rec.id(),
                parent: NONE,
                job: i as u32,
                name: if hit {
                    "store.get_hit"
                } else {
                    "store.get_miss"
                },
                start,
                end,
                count: 1,
            });
            if !hit {
                rec.time("store.put", NONE, i as u32, || {
                    store.put(key, &ctx.reference[i])
                })
                .map_err(|e| format!("store put: {e}"))?;
            }
        }
        rec.time("store.evict", NONE, NONE, || store.evict());
        let _ = std::fs::remove_dir_all(&self.scratch);

        // The sweep's engine calls happen inside run_sweep; re-drive the
        // ones a pass makes — one suite per new (class, technique) point —
        // to time them from outside.
        let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
        for &i in &self.fresh {
            let group = format!(
                "{}/{}",
                self.jobs[i].label,
                corpus::is_corpus(self.jobs[i].profile.name)
            );
            match groups.iter_mut().find(|(g, _)| *g == group) {
                Some((_, members)) => members.push(i),
                None => groups.push((group, vec![i])),
            }
        }
        let (mut attempted, mut failed) = (0, 0);
        let mut engine_ns = 0u64;
        for (g, (_, members)) in groups.iter().enumerate() {
            let profiles: Vec<_> = members.iter().map(|&i| self.jobs[i].profile).collect();
            let technique = &self.jobs[members[0]].technique;
            let start = rec.now();
            let suite = run_suite_supervised(
                &profiles,
                technique,
                &sim,
                &SupervisorConfig::default(),
                &FaultPlan::none(),
            );
            let end = rec.now();
            engine_ns += end - start;
            rec.push(Span {
                id: rec.id(),
                parent: NONE,
                job: g as u32,
                name: "engine.suite",
                start,
                end,
                count: profiles.len() as u64,
            });
            for (&i, outcome) in members.iter().zip(&suite.outcomes) {
                attempted += 1;
                if !outcome
                    .as_ref()
                    .is_ok_and(|r| ctx.expected.run_ok(&self.jobs[i], r))
                {
                    failed += 1;
                }
            }
        }
        let serial: u64 = self.fresh.iter().map(|&i| ctx.serial_ns[i]).sum();
        let per_call = |name: &str| rec.per_call_ns(name);
        Ok(Layers {
            values: vec![
                ("sweep.run_key_us", per_call("sweep.run_key") / 1e3),
                ("store.get_hit_us", per_call("store.get_hit") / 1e3),
                ("store.get_miss_us", per_call("store.get_miss") / 1e3),
                ("store.put_us", per_call("store.put") / 1e3),
                ("store.evict_ms", per_call("store.evict") / 1e6),
                ("store.hit_rate", self.hit_rate),
                (
                    "engine.suite_s",
                    engine_ns as f64 / groups.len() as f64 / 1e9,
                ),
                (
                    "engine.parallel_efficiency",
                    serial as f64 / (WORKERS as f64 * engine_ns as f64),
                ),
            ],
            attempted,
            failed,
        })
    }
}
