//! `fig5_inproc`: the paper's own evaluation. Fig. 5's seven suites (base
//! plus points A–F) over the 26 SPEC2K profiles, each through
//! `run_suite_supervised` in this process, with no store, recorded baseline
//! or server. Per-cycle simulation is nearly all of a pass, and the two
//! sensor points drive the supply on its batch-of-one path beside the
//! batched path of the other suites.

use restune::{run_suite_supervised, FaultPlan, SimConfig, SimResult, SupervisorConfig, Technique};
use workloads::{shared_stream, spec2k, WorkloadProfile};

use crate::jobs::{self, Job};
use crate::spans::{Recorder, Span};
use crate::{Counters, LayerCtx, Layers, PassOut, Workload, WORKERS};

pub struct Fig5Inproc {
    sim: SimConfig,
    suites: Vec<(Technique, Vec<WorkloadProfile>)>,
    jobs: Vec<Job>,
    results: Vec<Option<SimResult>>,
}

/// Decodes each profile's stream once (the first `shared_stream` call),
/// timing it under a `workloads.decode` span when traced.
pub fn decode(profiles: &[WorkloadProfile], instructions: u64, rec: Option<&Recorder>) {
    for (i, p) in profiles.iter().enumerate() {
        match rec {
            Some(rec) => {
                rec.time("workloads.decode", crate::spans::NONE, i as u32, || {
                    shared_stream(p, instructions)
                });
            }
            None => {
                shared_stream(p, instructions);
            }
        }
    }
}

impl Fig5Inproc {
    pub fn setup(seed: u64, instructions: u64, rec: Option<&Recorder>) -> Fig5Inproc {
        decode(&spec2k::all(), instructions, rec);
        let suites = jobs::fig5_suites(seed);
        let jobs = suites
            .iter()
            .flat_map(|(label, technique, profiles)| {
                profiles.iter().map(|p| Job {
                    label: label.clone(),
                    technique: technique.clone(),
                    profile: *p,
                })
            })
            .collect();
        Fig5Inproc {
            sim: SimConfig::isca04(instructions),
            suites: suites.into_iter().map(|(_, t, p)| (t, p)).collect(),
            jobs,
            results: Vec::new(),
        }
    }
}

impl Workload for Fig5Inproc {
    fn sim(&self) -> SimConfig {
        self.sim
    }

    fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    fn simulated(&self) -> Vec<usize> {
        (0..self.jobs.len()).collect()
    }

    fn pass(&mut self, rec: Option<(&Recorder, u32)>) {
        self.results.clear();
        for (i, (technique, profiles)) in self.suites.iter().enumerate() {
            let run = || {
                run_suite_supervised(
                    profiles,
                    technique,
                    &self.sim,
                    &SupervisorConfig::default(),
                    &FaultPlan::none(),
                )
            };
            let suite = match rec {
                Some((rec, pass)) => rec.time("engine.suite", pass, i as u32, run),
                None => run(),
            };
            self.results
                .extend(suite.outcomes.iter().map(|o| o.as_ref().ok().copied()));
        }
    }

    fn after_pass(&mut self, counters: &Counters) -> Result<PassOut, String> {
        let foreign: Vec<&String> = counters
            .keys()
            .filter(|k| {
                ["store.", "server.", "client.", "mesh."]
                    .iter()
                    .any(|p| k.starts_with(p))
            })
            .collect();
        if !foreign.is_empty() || restune::connect_active() {
            return Err(format!(
                "in-process pass touched a store or server: {foreign:?}"
            ));
        }
        Ok(PassOut {
            results: std::mem::take(&mut self.results),
            points: None,
        })
    }

    fn layers(&mut self, ctx: &LayerCtx) -> Result<Layers, String> {
        let suites = ctx.rec.named("engine.suite");
        let suite_ns = suites.iter().map(Span::ns).sum::<u64>() as f64;
        // The engine's wall per pass: its suites run one after another.
        let engine_wall = suite_ns / ctx.traced_walls.len() as f64;
        let serial: u64 = ctx.serial_ns.iter().sum();
        Ok(Layers {
            values: vec![
                ("engine.suite_s", suite_ns / suites.len() as f64 / 1e9),
                (
                    "engine.parallel_efficiency",
                    serial as f64 / (WORKERS as f64 * engine_wall),
                ),
            ],
            attempted: 0,
            failed: 0,
        })
    }
}
