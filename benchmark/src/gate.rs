//! The correctness gate: every pass's `SimResult`s (and `sweep_widen`'s
//! frontier) are digested and compared with the expected digests — the
//! committed ones at the default seed, an untimed `restune::run` of the
//! same jobs at any other seed.

use std::collections::HashMap;
use std::fmt::Write as _;

use restune::{RelativeOutcome, SimConfig, SimResult, Summary, SweepPoint};

use crate::jobs::Job;

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of every field of a result, floats by their bits.
pub fn digest(r: &SimResult) -> u64 {
    let text = format!(
        "{}|{}|{}|{:016x}|{}|{:016x}|{:016x}|{:016x}|{}|{}|{}|{}",
        r.app,
        r.cycles,
        r.committed,
        r.ipc.to_bits(),
        r.violation_cycles,
        r.worst_noise.volts().to_bits(),
        r.energy_joules.to_bits(),
        r.energy_delay.to_bits(),
        r.first_level_cycles,
        r.second_level_cycles,
        r.sensor_response_cycles,
        r.damping_bound_cycles,
    );
    fnv1a(text.as_bytes())
}

/// Digest of a sweep's evaluated points, independent of grid order.
pub fn frontier_digest(points: &[SweepPoint]) -> u64 {
    let mut lines: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{}|{}|{}|{:?}|{}",
                p.class, p.pdn_scale, p.technique, p.summary, p.on_frontier
            )
        })
        .collect();
    lines.sort();
    fnv1a(lines.join("\n").as_bytes())
}

/// What each job of a workload must produce.
pub struct Expected {
    runs: HashMap<String, u64>,
    frontier: Option<u64>,
}

impl Expected {
    /// Parses a committed digest file: `KEY HEX` lines, `#` comments.
    pub fn parse(text: &str) -> Expected {
        let mut runs = HashMap::new();
        let mut frontier = None;
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let (key, hex) = line.rsplit_once(' ').expect("digest line is `KEY HEX`");
            let value = u64::from_str_radix(hex, 16).expect("digest is hex");
            if key == "frontier" {
                frontier = Some(value);
            } else {
                runs.insert(key.to_string(), value);
            }
        }
        Expected { runs, frontier }
    }

    /// Expected digests from reference results aligned with `jobs`.
    pub fn from_results(jobs: &[Job], results: &[SimResult], frontier: Option<u64>) -> Expected {
        let runs = jobs
            .iter()
            .zip(results)
            .map(|(job, r)| (job.key(), digest(r)))
            .collect();
        Expected { runs, frontier }
    }

    /// The committed-file form of these digests, keys sorted.
    pub fn render(&self, header: &str) -> String {
        let mut keys: Vec<&String> = self.runs.keys().collect();
        keys.sort();
        let mut out = format!("# {header}\n");
        for key in keys {
            writeln!(out, "{key} {:016x}", self.runs[key]).expect("write to String");
        }
        if let Some(f) = self.frontier {
            writeln!(out, "frontier {f:016x}").expect("write to String");
        }
        out
    }

    /// `true` when `result` is what `job` must produce.
    pub fn run_ok(&self, job: &Job, result: &SimResult) -> bool {
        self.runs.get(&job.key()) == Some(&digest(result))
    }

    /// `true` when a sweep's points digest to the expected frontier.
    pub fn frontier_ok(&self, points: &[SweepPoint]) -> bool {
        self.frontier == Some(frontier_digest(points))
    }

    /// How many jobs the digests cover.
    pub fn len(&self) -> usize {
        self.runs.len()
    }
}

/// `restune::run` of every job, on `threads` plain threads (no engine, no
/// store, no server): the independent path every pass is checked against.
pub fn reference(jobs: &[Job], sim: &SimConfig, threads: usize) -> Vec<SimResult> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::OnceLock<SimResult>> =
        jobs.iter().map(|_| std::sync::OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { return };
                let r = restune::run(&job.profile, &job.technique, sim);
                slots[i].set(r).expect("each job runs once");
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every job ran"))
        .collect()
}

/// The sweep frontier `run_sweep` must report for `jobs` (a grid's runs in
/// `grid_jobs` order), recomputed from reference results: per-class
/// summaries against the class's base runs, then Pareto dominance over
/// (violation cycles, slowdown, energy-delay), all minimized.
pub fn reference_frontier(jobs: &[Job], results: &[SimResult]) -> u64 {
    let mut groups: Vec<(&'static str, &str, Vec<SimResult>)> = Vec::new();
    for (job, r) in jobs.iter().zip(results) {
        let class = if workloads::corpus::is_corpus(job.profile.name) {
            "corpus"
        } else {
            "spec2k"
        };
        match groups
            .iter_mut()
            .find(|(c, l, _)| *c == class && *l == job.label)
        {
            Some((_, _, rs)) => rs.push(*r),
            None => groups.push((class, &job.label, vec![*r])),
        }
    }
    let mut points = Vec::new();
    for (class, _, _) in groups.iter().filter(|(_, l, _)| *l == "base") {
        let base = &groups
            .iter()
            .find(|(c, l, _)| c == class && *l == "base")
            .expect("base group exists")
            .2;
        let summaries: Vec<(String, Summary)> = groups
            .iter()
            .filter(|(c, _, _)| c == class)
            .map(|(_, label, rs)| {
                let outcomes: Vec<RelativeOutcome> = base
                    .iter()
                    .zip(rs)
                    .map(|(b, r)| RelativeOutcome::new(b, r))
                    .collect();
                (label.to_string(), Summary::from_outcomes(&outcomes))
            })
            .collect();
        for (i, (label, s)) in summaries.iter().enumerate() {
            let on_frontier = summaries
                .iter()
                .enumerate()
                .all(|(j, (_, o))| j == i || !dominates(o, s));
            points.push(SweepPoint {
                class,
                pdn_scale: 1.0,
                technique: label.clone(),
                summary: *s,
                on_frontier,
            });
        }
    }
    frontier_digest(&points)
}

fn dominates(a: &Summary, b: &Summary) -> bool {
    let no_worse = a.total_violation_cycles <= b.total_violation_cycles
        && a.avg_slowdown <= b.avg_slowdown
        && a.avg_energy_delay <= b.avg_energy_delay;
    let better = a.total_violation_cycles < b.total_violation_cycles
        || a.avg_slowdown < b.avg_slowdown
        || a.avg_energy_delay < b.avg_energy_delay;
    no_worse && better
}
