//! The benchmark's inputs, generated from the workload seed: Fig. 5's
//! design points, the two sweep grids, and the order jobs are issued in.
//!
//! The default seed runs the paper's own design points (Fig. 5: tuning 75
//! and 100, sensor 20:10:5 and 20:15:3, damping 0.5 and 0.25) and the
//! documented widen-one-axis grid. Any other seed redraws the design points
//! within those ranges; profiles always stay registry profiles, because a
//! re-seeded profile would fail the client's wire-eligibility gate and run
//! `fig5_served`'s jobs in-process without notice.

use restune::{
    DampingConfig, GridSpec, SensorConfig, SensorPoint, Technique, TuningConfig, WorkloadClass,
};
use workloads::{spec2k, WorkloadProfile};

/// The seed whose results are pinned by the committed digests.
pub const DEFAULT_SEED: u64 = 0;

/// splitmix64: a tiny, fixed generator so a seed means the same inputs on
/// every commit, whatever the repository's own RNG does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_0000_0000)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn int(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.int(0, i as u64) as usize;
            items.swap(i, j);
        }
    }

    /// `n` distinct values drawn by `draw`, none of them in `taken`.
    fn distinct<T: PartialEq + Copy>(
        &mut self,
        n: usize,
        taken: &[T],
        mut draw: impl FnMut(&mut Rng) -> T,
    ) -> Vec<T> {
        let mut out: Vec<T> = Vec::with_capacity(n);
        while out.len() < n {
            let v = draw(self);
            if !taken.contains(&v) && !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }
}

/// One simulation job: a registry profile under a labeled technique.
#[derive(Debug, Clone)]
pub struct Job {
    pub label: String,
    pub technique: Technique,
    pub profile: WorkloadProfile,
}

impl Job {
    /// The job's identity within a workload (the instruction budget is the
    /// workload's own constant).
    pub fn key(&self) -> String {
        format!("{}/{}", self.label, self.profile.name)
    }
}

/// The labels `GridSpec::technique_points` gives; Fig. 5 uses them too.
fn tuning_label(t: u32) -> String {
    format!("tuning[{t}]")
}

fn sensor_label(s: SensorPoint) -> String {
    format!("sensor[{}:{}:{}]", s.threshold_mv, s.noise_mv, s.delay)
}

fn damping_label(d: f64) -> String {
    format!("damping[{d}]")
}

/// A sensor point within Fig. 5's ranges: threshold 18–22 mV, noise 10–15
/// mV (0.1 mV steps), delay 3–5 cycles.
fn draw_sensor(rng: &mut Rng) -> SensorPoint {
    SensorPoint {
        threshold_mv: rng.int(180, 220) as f64 / 10.0,
        noise_mv: rng.int(100, 150) as f64 / 10.0,
        delay: rng.int(3, 5) as u32,
    }
}

/// δ in `lo..=hi` hundredths.
fn draw_delta(rng: &mut Rng, lo: u64, hi: u64) -> f64 {
    rng.int(lo, hi) as f64 / 100.0
}

/// Fig. 5's seven suites — base plus points A–F — as (label, technique).
pub fn fig5_points(seed: u64) -> Vec<(String, Technique)> {
    let (tuning, sensor, damping) = if seed == DEFAULT_SEED {
        (
            vec![75, 100],
            vec![
                SensorPoint {
                    threshold_mv: 20.0,
                    noise_mv: 10.0,
                    delay: 5,
                },
                SensorPoint {
                    threshold_mv: 20.0,
                    noise_mv: 15.0,
                    delay: 3,
                },
            ],
            vec![0.5, 0.25],
        )
    } else {
        let mut rng = Rng::new(seed);
        (
            rng.distinct(2, &[], |r| r.int(75, 100) as u32),
            rng.distinct(2, &[], draw_sensor),
            rng.distinct(2, &[], |r| draw_delta(r, 25, 50)),
        )
    };
    let mut points = vec![(String::from("base"), Technique::Base)];
    for t in tuning {
        points.push((
            tuning_label(t),
            Technique::Tuning(TuningConfig::isca04_table1(t)),
        ));
    }
    for s in sensor {
        points.push((
            sensor_label(s),
            Technique::Sensor(SensorConfig::table4(s.threshold_mv, s.noise_mv, s.delay)),
        ));
    }
    for d in damping {
        points.push((
            damping_label(d),
            Technique::Damping(DampingConfig::isca04_table5(d)),
        ));
    }
    points
}

/// Fig. 5's jobs in seeded issue order: the suites are shuffled, and each
/// suite's profiles are shuffled (one permutation shared by all suites).
pub fn fig5_suites(seed: u64) -> Vec<(String, Technique, Vec<WorkloadProfile>)> {
    let mut rng = Rng::new(seed.wrapping_add(1));
    let mut points = fig5_points(seed);
    rng.shuffle(&mut points);
    let mut profiles = spec2k::all();
    rng.shuffle(&mut profiles);
    points
        .into_iter()
        .map(|(label, technique)| (label, technique, profiles.clone()))
        .collect()
}

/// Flattens suites into jobs, then shuffles the jobs themselves (the
/// served workload issues them one by one).
pub fn fig5_jobs(seed: u64) -> Vec<Job> {
    let mut jobs: Vec<Job> = fig5_suites(seed)
        .into_iter()
        .flat_map(|(label, technique, profiles)| {
            profiles.into_iter().map(move |profile| Job {
                label: label.clone(),
                technique: technique.clone(),
                profile,
            })
        })
        .collect();
    Rng::new(seed.wrapping_add(2)).shuffle(&mut jobs);
    jobs
}

/// The narrow grid whose 224 runs the store holds at the start of every
/// `sweep_widen` pass: tuning 50/100/150/200, damping 0.5, sensor 20:10:5,
/// over spec2k + corpus at the paper's PDN. Fixed for every seed.
pub fn narrow_grid(instructions: u64) -> GridSpec {
    GridSpec {
        workloads: vec![WorkloadClass::Spec2k, WorkloadClass::Corpus],
        pdn_scales: vec![1.0],
        tuning: vec![50, 100, 150, 200],
        sensor: vec![SensorPoint {
            threshold_mv: 20.0,
            noise_mv: 10.0,
            delay: 5,
        }],
        damping: vec![0.5],
        instructions,
    }
}

/// The widened grid of `sweep_widen` (480 runs): the narrow grid plus a
/// widened half — four more tuning points, three more damping deltas, one
/// more sensor point. The default seed widens to tuning 50..225 step 25,
/// damping 0.25/0.5/0.75/1.0 and sensor 20:15:3; other seeds redraw the
/// widened half (tuning 51–225, δ 0.25–1.0, sensor as in Fig. 5) and the
/// order of every axis.
pub fn wide_grid(seed: u64, instructions: u64) -> GridSpec {
    let narrow = narrow_grid(instructions);
    let (tuning, damping, sensor) = if seed == DEFAULT_SEED {
        (
            vec![75, 125, 175, 225],
            vec![0.25, 0.75, 1.0],
            vec![SensorPoint {
                threshold_mv: 20.0,
                noise_mv: 15.0,
                delay: 3,
            }],
        )
    } else {
        let mut rng = Rng::new(seed);
        (
            rng.distinct(4, &narrow.tuning, |r| r.int(51, 225) as u32),
            rng.distinct(3, &narrow.damping, |r| draw_delta(r, 25, 100)),
            rng.distinct(1, &narrow.sensor, draw_sensor),
        )
    };
    let mut spec = narrow;
    spec.tuning.extend(tuning);
    spec.damping.extend(damping);
    spec.sensor.extend(sensor);
    let mut rng = Rng::new(seed.wrapping_add(1));
    rng.shuffle(&mut spec.workloads);
    rng.shuffle(&mut spec.tuning);
    rng.shuffle(&mut spec.damping);
    rng.shuffle(&mut spec.sensor);
    spec
}

/// Every run a grid requires, in the order `run_sweep` visits them.
pub fn grid_jobs(spec: &GridSpec) -> Vec<Job> {
    let points = spec.technique_points();
    let mut jobs = Vec::new();
    for class in &spec.workloads {
        for (label, technique) in &points {
            for profile in class.profiles() {
                jobs.push(Job {
                    label: label.clone(),
                    technique: technique.clone(),
                    profile,
                });
            }
        }
    }
    jobs
}
