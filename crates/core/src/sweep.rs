//! Declarative parameter-grid sweeps over the technique × PDN × workload
//! space, backed by a content-addressed store of individual run results.
//!
//! A [`GridSpec`] names the axes — workload classes (the synthetic SPEC2K
//! profiles and the RISC-V corpus), PDN inductance scales, tuning response
//! times, sensor thresholds, damping deltas — and expands into one suite
//! per (class, PDN, technique) point. Every *individual application run*
//! inside those suites is keyed by a [`CacheKey`] (64-bit FNV-1a
//! fingerprint plus the full config identity string, verified on read) and
//! persisted in a [`RunStore`] under `store/` in the baseline cache
//! directory, so overlapping sweeps share every common run: a second sweep
//! that widens one axis re-simulates only the new points.
//!
//! Execution routes through [`run_suite_supervised`], so sweeps inherit
//! the whole supervision stack — watchdogs, retries, checkpoint/resume
//! (an interrupted sweep resumes bit-identically), the worker pool, and
//! `--connect` mesh offload — without any sweep-specific scheduling. Each
//! (class, PDN) group finally reports its Pareto frontier over (violation
//! cycles, slowdown, energy-delay); because every execution path is
//! bit-exact, the frontier is byte-identical however the runs were
//! produced.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use rlc::params::SupplyParams;
use rlc::units::Henries;
use workloads::{corpus, spec2k, WorkloadProfile};

use crate::baselines::{DampingConfig, SensorConfig};
use crate::config::{RunPolicy, TuningConfig};
use crate::engine::{
    atomic_write, baseline_cache_dir, crc_line, discard_stale, run_suite_supervised,
    split_crc_line, warn_identity_mismatch, CacheKey,
};
use crate::metrics::{RelativeOutcome, Summary};
use crate::obs;
use crate::sim::{SimConfig, SimResult, Technique};

/// Bumped when the run-store row format or the meaning of a stored run
/// changes; stale files are discarded on read.
const RUN_SCHEMA: u32 = 1;

/// Default size bound of the run store (256 MiB).
const STORE_MAX_BYTES: u64 = 256 * 1024 * 1024;

/// Default age past which an untouched store record is evicted (30 days).
const STORE_MAX_AGE: Duration = Duration::from_secs(30 * 24 * 3600);

/// [`CacheKey`] of one application run: the workload profile, the technique
/// (with its full config), and the machine configuration. The `Debug`
/// representations include every field recursively, so any parameter change
/// yields a new fingerprint.
pub fn run_key(profile: &WorkloadProfile, technique: &Technique, sim: &SimConfig) -> CacheKey {
    CacheKey::from_identity(format!(
        "run-v{RUN_SCHEMA}|{profile:?}|{technique:?}|{sim:?}"
    ))
}

/// What [`RunStore::evict`] removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvictStats {
    /// Records removed.
    pub files: u64,
    /// Bytes reclaimed.
    pub bytes: u64,
}

/// A content-addressed store of individual run results: one small TSV file
/// per (profile, technique, machine) point, named by fingerprint, carrying
/// the full identity string and per-line CRC32s.
///
/// The store generalizes the recorded-baseline cache from whole base
/// suites to *every* run a sweep produces. Its integrity contract matches
/// the other cache planes: a fingerprint hit whose stored identity differs
/// (a 64-bit collision) is a miss with an `obs::warn`, never a silent
/// wrong-result reuse, and the colliding file — valid for its own
/// configuration — is left in place. Torn or damaged records are deleted
/// and re-simulated. Writes are crash-consistent (`atomic_write`).
///
/// `restuned` keeps its result cache in a store of its own, whose records
/// carry a job's encoded wire result bytes in place of the result row, so
/// a cache hit replays exactly the bytes the run produced.
#[derive(Debug, Clone)]
pub struct RunStore {
    dir: PathBuf,
}

impl RunStore {
    /// A store rooted at `dir` (created lazily on first put).
    pub fn open(dir: PathBuf) -> RunStore {
        RunStore { dir }
    }

    /// The default store: `store/` under the baseline cache directory
    /// (`$RESTUNE_CACHE_DIR` or `target/restune-cache`).
    pub fn open_default() -> RunStore {
        RunStore::open(baseline_cache_dir().join("store"))
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("run-{fingerprint:016x}.tsv"))
    }

    fn header(key: &CacheKey) -> String {
        format!("restune-run v{RUN_SCHEMA} fp={:016x}", key.fingerprint)
    }

    /// Looks up the stored result for `key`, verifying the fingerprint,
    /// the full identity string, and the row CRC. Every outcome bumps the
    /// `store.hits` / `store.misses` counters; an identity mismatch also
    /// bumps `store.identity_mismatches`.
    pub fn get(&self, key: &CacheKey) -> Option<SimResult> {
        let result = self.read(key, "store", crate::engine::parse_row);
        let counter = if result.is_some() {
            "store.hits"
        } else {
            "store.misses"
        };
        obs::counter_add(counter, 1);
        result
    }

    /// Records `result` under `key`, crash-consistently.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn put(&self, key: &CacheKey, result: &SimResult) -> io::Result<()> {
        self.write(key, &crate::engine::result_row(result))
    }

    /// Looks up a byte-payload record written by [`RunStore::put_payload`],
    /// with the same fingerprint, identity and CRC checks as
    /// [`RunStore::get`]. It bumps no `store.*` counter — the caller owns
    /// its hit/miss accounting — and an identity mismatch is warned and
    /// counted under `category` (`<category>.identity_mismatches`).
    pub(crate) fn get_payload(&self, key: &CacheKey, category: &'static str) -> Option<Vec<u8>> {
        self.read(key, category, hex_decode)
    }

    /// Records opaque `payload` bytes under `key`, crash-consistently: the
    /// same record layout as [`RunStore::put`], with the bytes hex-encoded
    /// in the data row.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub(crate) fn put_payload(&self, key: &CacheKey, payload: &[u8]) -> io::Result<()> {
        self.write(key, &hex_encode(payload))
    }

    /// Reads the record for `key` and decodes its verified data row. A
    /// record with a foreign identity is a miss left in place (it is valid
    /// for its own configuration); a stale, torn or damaged one — or a data
    /// row `decode` rejects — is deleted.
    fn read<T>(
        &self,
        key: &CacheKey,
        category: &'static str,
        decode: impl FnOnce(&str) -> Option<T>,
    ) -> Option<T> {
        let path = self.path_for(key.fingerprint);
        let text = std::fs::read_to_string(&path).ok()?;
        let mut lines = text.lines();
        if lines.next() != Some(Self::header(key).as_str()) {
            discard_stale(&path, "stale or corrupt run record");
            return None;
        }
        match lines.next().and_then(split_crc_line) {
            Some((core, true)) => match core.strip_prefix("id=") {
                Some(identity) if identity == key.identity => {}
                Some(identity) => {
                    warn_identity_mismatch(category, &path, &key.identity, identity);
                    return None;
                }
                None => {
                    discard_stale(&path, "run record missing its identity row");
                    return None;
                }
            },
            _ => {
                discard_stale(&path, "run record with a torn or damaged identity row");
                return None;
            }
        }
        let row = lines
            .next()
            .and_then(split_crc_line)
            .and_then(|(core, intact)| intact.then(|| decode(core))?);
        if row.is_none() {
            discard_stale(&path, "run record with a torn or damaged result row");
        }
        row
    }

    /// Writes the record for `key`: header, CRC'd identity row, CRC'd
    /// data row.
    fn write(&self, key: &CacheKey, row: &str) -> io::Result<()> {
        let mut body = Self::header(key);
        body.push('\n');
        body.push_str(&crc_line(&format!("id={}", key.identity)));
        body.push('\n');
        body.push_str(&crc_line(row));
        body.push('\n');
        atomic_write(&self.path_for(key.fingerprint), body.as_bytes())
    }

    /// Bounds the store: removes records untouched for longer than
    /// `RESTUNE_STORE_MAX_AGE_SECS` (default 30 days), then — oldest first —
    /// until the store fits in `RESTUNE_STORE_MAX_BYTES` (default 256 MiB).
    /// Evictions are surfaced on the `store.evictions` counter. Called
    /// automatically at the end of every [`run_sweep`]; without a bound,
    /// a long-lived cache directory would accumulate every run any sweep
    /// ever produced.
    pub fn evict(&self) -> EvictStats {
        // An absent store costs one failed directory open, nothing more.
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return EvictStats::default();
        };
        let max_age = crate::envcfg::positive_f64(
            "RESTUNE_STORE_MAX_AGE_SECS",
            "store",
            "the 30-day default store age bound",
        )
        .map(Duration::from_secs_f64)
        .unwrap_or(STORE_MAX_AGE);
        let max_bytes = crate::envcfg::positive_usize(
            "RESTUNE_STORE_MAX_BYTES",
            "store",
            "the 256 MiB default store size bound",
        )
        .map(|b| b as u64)
        .unwrap_or(STORE_MAX_BYTES);

        // (modified, name, path, len) — name breaks mtime ties so the
        // eviction order is deterministic even for records written within
        // one filesystem timestamp granule.
        let mut records = Vec::new();
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str().map(str::to_string) else {
                continue;
            };
            if !(name.starts_with("run-") && name.ends_with(".tsv")) {
                continue;
            }
            let Ok(meta) = entry.metadata() else { continue };
            let Ok(modified) = meta.modified() else {
                continue;
            };
            records.push((modified, name, entry.path(), meta.len()));
        }
        records.sort();

        let mut stats = EvictStats::default();
        let mut total: u64 = records.iter().map(|(_, _, _, len)| len).sum();
        for (modified, _, path, len) in &records {
            let expired = modified.elapsed().is_ok_and(|age| age > max_age);
            if !(expired || total > max_bytes) {
                continue;
            }
            if std::fs::remove_file(path).is_ok() {
                stats.files += 1;
                stats.bytes += len;
                total -= len;
            }
        }
        if stats.files > 0 {
            obs::counter_add("store.evictions", stats.files);
        }
        stats
    }
}

/// Lowercase hex of `bytes`: the text form of a payload record's data row.
fn hex_encode(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(char::from(DIGITS[usize::from(b >> 4)]));
        out.push(char::from(DIGITS[usize::from(b & 0xf)]));
    }
    out
}

/// Inverse of [`hex_encode`]; `None` on odd length or a non-hex digit.
fn hex_decode(text: &str) -> Option<Vec<u8>> {
    let nibble = |c: u8| char::from(c).to_digit(16);
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return None;
    }
    bytes
        .chunks_exact(2)
        .map(|pair| Some((nibble(pair[0])? << 4 | nibble(pair[1])?) as u8))
        .collect()
}

/// A workload class a sweep can cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadClass {
    /// The synthetic SPEC2K profile suite.
    Spec2k,
    /// The RISC-V real-program corpus.
    Corpus,
}

impl WorkloadClass {
    /// The class name used in grid specs and reports.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadClass::Spec2k => "spec2k",
            WorkloadClass::Corpus => "corpus",
        }
    }

    /// Every profile in the class, in suite order.
    pub fn profiles(self) -> Vec<WorkloadProfile> {
        match self {
            WorkloadClass::Spec2k => spec2k::all(),
            WorkloadClass::Corpus => corpus::all(),
        }
    }

    fn parse(raw: &str) -> Result<WorkloadClass, String> {
        match raw {
            "spec2k" => Ok(WorkloadClass::Spec2k),
            "corpus" => Ok(WorkloadClass::Corpus),
            other => Err(format!(
                "unknown workload class '{other}' (expected spec2k or corpus)"
            )),
        }
    }
}

/// One sensor design point: `THRESHOLD_MV:NOISE_MV:DELAY` in a grid spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorPoint {
    /// Detection threshold in millivolts below nominal.
    pub threshold_mv: f64,
    /// Sensor noise floor in millivolts.
    pub noise_mv: f64,
    /// Sensing-to-response delay in cycles.
    pub delay: u32,
}

/// The declarative axes of one sweep. Parsed from repeatable
/// `--grid KEY=VALUE` arguments; every unset axis keeps its default, and
/// the cross product of all axes is the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Workload classes to cover (`workloads=spec2k,corpus`).
    pub workloads: Vec<WorkloadClass>,
    /// PDN inductance scale factors (`pdn=1.0,1.5`); 1.0 is the paper's
    /// Table 1 network, exactly.
    pub pdn_scales: Vec<f64>,
    /// Tuning initial response times in cycles (`tuning=75,100`).
    pub tuning: Vec<u32>,
    /// Sensor design points (`sensor=THR:NOISE:DELAY,..`).
    pub sensor: Vec<SensorPoint>,
    /// Damping deltas relative to Table 5 (`damping=0.5,1.0`).
    pub damping: Vec<f64>,
    /// Committed instructions per run (`instructions=N`).
    pub instructions: u64,
}

impl GridSpec {
    /// Parses `KEY=VALUE` pairs into a spec, starting from the defaults
    /// (spec2k, the paper's PDN, tuning at 100 cycles,
    /// `default_instructions`).
    ///
    /// # Errors
    ///
    /// Returns a one-line description of the first malformed pair — an
    /// unknown key, an unparseable value, a PDN scale that produces an
    /// invalid (non-underdamped) supply network, or a sensor point with
    /// negative noise or a non-positive actual threshold.
    pub fn parse(
        pairs: &[(String, String)],
        default_instructions: u64,
    ) -> Result<GridSpec, String> {
        let mut spec = GridSpec {
            workloads: vec![WorkloadClass::Spec2k],
            pdn_scales: vec![1.0],
            tuning: vec![100],
            sensor: Vec::new(),
            damping: Vec::new(),
            instructions: default_instructions,
        };
        for (key, value) in pairs {
            if value.is_empty() {
                return Err(format!("grid axis '{key}' has an empty value"));
            }
            match key.as_str() {
                "workloads" => {
                    spec.workloads = split_list(value, WorkloadClass::parse)?;
                }
                "pdn" => {
                    spec.pdn_scales = split_list(value, |v| {
                        let scale = parse_positive_f64(v, "PDN scale")?;
                        // Validate eagerly: a scale that breaks the
                        // underdamped invariant should fail at parse time,
                        // not halfway through a sweep.
                        sim_for(scale, spec.instructions)?;
                        Ok(scale)
                    })?;
                }
                "tuning" => {
                    spec.tuning = split_list(value, |v| {
                        v.parse::<u32>()
                            .ok()
                            .filter(|&t| t > 0)
                            .ok_or_else(|| format!("invalid tuning response time '{v}'"))
                    })?;
                }
                "sensor" => {
                    spec.sensor = split_list(value, parse_sensor_point)?;
                }
                "damping" => {
                    spec.damping = split_list(value, |v| parse_positive_f64(v, "damping delta"))?;
                }
                "instructions" => {
                    spec.instructions = value
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("invalid instruction count '{value}'"))?;
                }
                other => {
                    return Err(format!(
                        "unknown grid axis '{other}' (expected workloads, pdn, tuning, \
                         sensor, damping, or instructions)"
                    ));
                }
            }
        }
        Ok(spec)
    }

    /// Every technique point in the spec, labeled: the base machine plus
    /// one point per tuning / sensor / damping configuration.
    pub fn technique_points(&self) -> Vec<(String, Technique)> {
        let mut points = vec![(String::from("base"), Technique::Base)];
        for &t in &self.tuning {
            points.push((
                format!("tuning[{t}]"),
                Technique::Tuning(TuningConfig::isca04_table1(t)),
            ));
        }
        for s in &self.sensor {
            points.push((
                format!("sensor[{}:{}:{}]", s.threshold_mv, s.noise_mv, s.delay),
                Technique::Sensor(SensorConfig::table4(s.threshold_mv, s.noise_mv, s.delay)),
            ));
        }
        for &d in &self.damping {
            points.push((
                format!("damping[{d}]"),
                Technique::Damping(DampingConfig::isca04_table5(d)),
            ));
        }
        points
    }
}

fn split_list<T>(value: &str, parse: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    let items: Vec<T> = value
        .split(',')
        .map(str::trim)
        .filter(|v| !v.is_empty())
        .map(parse)
        .collect::<Result<_, _>>()?;
    if items.is_empty() {
        return Err(String::from("a grid axis needs at least one value"));
    }
    Ok(items)
}

fn parse_positive_f64(raw: &str, what: &str) -> Result<f64, String> {
    raw.parse::<f64>()
        .ok()
        .filter(|v| v.is_finite() && *v > 0.0)
        .ok_or_else(|| format!("invalid {what} '{raw}' (need a positive number)"))
}

fn parse_sensor_point(raw: &str) -> Result<SensorPoint, String> {
    let mut fields = raw.split(':');
    let point = (|| {
        let threshold_mv = fields
            .next()?
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())?;
        let noise_mv = fields
            .next()?
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())?;
        let delay = fields.next()?.parse::<u32>().ok()?;
        fields.next().is_none().then_some(SensorPoint {
            threshold_mv,
            noise_mv,
            delay,
        })
    })()
    .ok_or_else(|| format!("invalid sensor point '{raw}' (expected THR_MV:NOISE_MV:DELAY)"))?;
    // Validate eagerly, like a PDN scale: negative noise has no meaning, and
    // a non-positive actual threshold would make `VoltageSensor::new` panic
    // in every run of the point, after the sweep's other suites have run.
    let actual = SensorConfig::table4(point.threshold_mv, point.noise_mv, point.delay)
        .actual_threshold()
        .volts();
    if point.noise_mv < 0.0 || actual <= 0.0 {
        return Err(format!(
            "invalid sensor point '{raw}' (need NOISE_MV >= 0 and a positive actual \
             threshold THR_MV - NOISE_MV/2)"
        ));
    }
    Ok(point)
}

/// The machine configuration for one PDN scale: scale 1.0 is *exactly*
/// [`SimConfig::isca04`] (so those runs stay wire-encodable and can be
/// served by a `restuned` mesh); other scales multiply the Table 1 loop
/// inductance, moving the resonant frequency by `1/sqrt(scale)`.
///
/// # Errors
///
/// Returns the RLC validation error when the scaled network is no longer
/// underdamped.
pub fn sim_for(pdn_scale: f64, instructions: u64) -> Result<SimConfig, String> {
    let mut sim = SimConfig::isca04(instructions);
    if pdn_scale == 1.0 {
        return Ok(sim);
    }
    let base = sim.supply;
    sim.supply = SupplyParams::new(
        base.resistance(),
        Henries::from_pico(base.inductance().henries() * 1e12 * pdn_scale),
        base.capacitance(),
        base.vdd(),
        base.noise_margin(),
    )
    .map_err(|e| format!("PDN scale {pdn_scale}: {e}"))?;
    Ok(sim)
}

/// One evaluated sweep point: a technique on one (class, PDN) group,
/// summarized relative to that group's base machine.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Workload class name.
    pub class: &'static str,
    /// PDN inductance scale.
    pub pdn_scale: f64,
    /// Technique label (`base`, `tuning[100]`, ...).
    pub technique: String,
    /// Suite summary relative to the group's base machine (the base point
    /// summarizes against itself: slowdown 1.0, its own violations).
    pub summary: Summary,
    /// Whether the point is Pareto-optimal within its (class, PDN) group
    /// over (violation cycles, slowdown, energy-delay), all minimized.
    pub on_frontier: bool,
}

/// The result of one [`run_sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// Every evaluated point, in deterministic grid order.
    pub points: Vec<SweepPoint>,
    /// Individual application runs the grid required.
    pub runs: u64,
    /// Runs served from the store.
    pub store_hits: u64,
    /// Runs that had to simulate.
    pub store_misses: u64,
    /// What the end-of-sweep eviction pass removed.
    pub evicted: EvictStats,
}

impl SweepOutcome {
    /// The Pareto-optimal points, in grid order.
    pub fn frontier(&self) -> Vec<&SweepPoint> {
        self.points.iter().filter(|p| p.on_frontier).collect()
    }

    /// Fraction of runs served from the store (0.0 for an empty sweep).
    pub fn hit_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.store_hits as f64 / self.runs as f64
        }
    }
}

/// Expands `spec` and executes every point, sharing individual runs
/// through `store` and supervising suites with `policy` (so `--resume`
/// checkpointing, watchdogs, fault plans, the worker pool, and `--connect`
/// all apply). Emits `sweep-start` / `sweep-point` / `frontier-point` /
/// `sweep-end` trace events and finishes with a store eviction pass.
///
/// When the policy's fault plan carries result-perturbing faults the store
/// is bypassed entirely — perturbed results must never poison the clean
/// store, and clean records must never mask an injected fault.
///
/// # Errors
///
/// Returns a description of the first suite whose applications exhausted
/// their retries; previously completed suites stay in the store, and the
/// failed suite's completed applications stay in its checkpoint, so a
/// re-run resumes instead of restarting.
pub fn run_sweep(
    spec: &GridSpec,
    policy: &RunPolicy,
    store: &RunStore,
) -> Result<SweepOutcome, String> {
    let techniques = spec.technique_points();
    let groups = spec.workloads.len() * spec.pdn_scales.len();
    obs::Event::engine("sweep-start")
        .u64_field("groups", groups as u64)
        .u64_field("points", (groups * techniques.len()) as u64)
        .u64_field("instructions", spec.instructions)
        .emit();

    let use_store = !policy.plan.has_result_faults();
    let mut outcome = SweepOutcome {
        points: Vec::new(),
        runs: 0,
        store_hits: 0,
        store_misses: 0,
        evicted: EvictStats::default(),
    };

    for &class in &spec.workloads {
        let profiles = class.profiles();
        for &pdn_scale in &spec.pdn_scales {
            let sim = sim_for(pdn_scale, spec.instructions)?;
            let mut group = Vec::with_capacity(techniques.len());
            for (label, technique) in &techniques {
                let results = suite_results(
                    &profiles,
                    technique,
                    &sim,
                    policy,
                    store,
                    use_store,
                    &mut outcome,
                )
                .map_err(|e| format!("{}/pdn={pdn_scale}/{label}: {e}", class.name()))?;
                group.push((label.clone(), results));
            }
            let base = &group[0].1;
            let summaries: Vec<(String, Summary)> = group
                .iter()
                .map(|(label, results)| {
                    let outcomes: Vec<RelativeOutcome> = base
                        .iter()
                        .zip(results)
                        .map(|(b, r)| RelativeOutcome::new(b, r))
                        .collect();
                    (label.clone(), Summary::from_outcomes(&outcomes))
                })
                .collect();
            for (index, (label, summary)) in summaries.iter().enumerate() {
                let on_frontier = summaries
                    .iter()
                    .enumerate()
                    .all(|(other, (_, s))| other == index || !dominates(s, summary));
                let point = SweepPoint {
                    class: class.name(),
                    pdn_scale,
                    technique: label.clone(),
                    summary: *summary,
                    on_frontier,
                };
                emit_point("sweep-point", &point);
                if on_frontier {
                    // A frontier point is still a sweep point: both shapes
                    // are emitted so histograms count every point once.
                    emit_point("frontier-point", &point);
                }
                outcome.points.push(point);
            }
        }
    }

    outcome.evicted = store.evict();
    obs::Event::engine("sweep-end")
        .u64_field("points", outcome.points.len() as u64)
        .u64_field("frontier", outcome.frontier().len() as u64)
        .u64_field("store_hits", outcome.store_hits)
        .u64_field("store_misses", outcome.store_misses)
        .emit();
    Ok(outcome)
}

/// Strict Pareto dominance over (violations, slowdown, energy-delay), all
/// minimized: no worse on every axis, strictly better on at least one.
fn dominates(a: &Summary, b: &Summary) -> bool {
    let no_worse = a.total_violation_cycles <= b.total_violation_cycles
        && a.avg_slowdown <= b.avg_slowdown
        && a.avg_energy_delay <= b.avg_energy_delay;
    let better = a.total_violation_cycles < b.total_violation_cycles
        || a.avg_slowdown < b.avg_slowdown
        || a.avg_energy_delay < b.avg_energy_delay;
    no_worse && better
}

fn emit_point(kind: &str, point: &SweepPoint) {
    obs::Event::engine(kind)
        .str_field("class", point.class)
        .f64_field("pdn", point.pdn_scale)
        .str_field("technique", &point.technique)
        .u64_field("violations", point.summary.total_violation_cycles)
        .f64_field("slowdown", point.summary.avg_slowdown)
        .f64_field("energy_delay", point.summary.avg_energy_delay)
        .emit();
}

/// One suite's results in profile order: store-served where possible, the
/// missing subset simulated through [`run_suite_supervised`] and recorded.
#[allow(clippy::too_many_arguments)]
fn suite_results(
    profiles: &[WorkloadProfile],
    technique: &Technique,
    sim: &SimConfig,
    policy: &RunPolicy,
    store: &RunStore,
    use_store: bool,
    outcome: &mut SweepOutcome,
) -> Result<Vec<SimResult>, String> {
    let keys: Vec<CacheKey> = profiles
        .iter()
        .map(|p| run_key(p, technique, sim))
        .collect();
    outcome.runs += profiles.len() as u64;
    let mut results: Vec<Option<SimResult>> = if use_store {
        keys.iter().map(|k| store.get(k)).collect()
    } else {
        vec![None; profiles.len()]
    };
    if use_store {
        let hits = results.iter().filter(|r| r.is_some()).count() as u64;
        outcome.store_hits += hits;
        outcome.store_misses += profiles.len() as u64 - hits;
    } else {
        outcome.store_misses += profiles.len() as u64;
    }

    let missing: Vec<usize> = (0..profiles.len())
        .filter(|&i| results[i].is_none())
        .collect();
    if missing.is_empty() {
        return Ok(results.into_iter().flatten().collect());
    }
    let subset: Vec<WorkloadProfile> = missing.iter().map(|&i| profiles[i]).collect();
    let suite = run_suite_supervised(&subset, technique, sim, &policy.supervisor, &policy.plan);
    let Some(fresh) = suite.all_results() else {
        let failed: Vec<String> = suite
            .outcomes
            .iter()
            .filter_map(|o| o.as_ref().err())
            .map(|f| f.to_string())
            .collect();
        return Err(failed.join("; "));
    };
    for (&slot, result) in missing.iter().zip(fresh) {
        if use_store {
            if let Err(e) = store.put(&keys[slot], &result) {
                obs::warn(
                    "store",
                    &format!("cannot record run {:016x}: {e}", keys[slot].fingerprint),
                );
            }
        }
        results[slot] = Some(result);
    }
    Ok(results.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testenv::with_env;

    fn pairs(raw: &[(&str, &str)]) -> Vec<(String, String)> {
        raw.iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn grid_parses_every_axis_and_rejects_nonsense() {
        let spec = GridSpec::parse(
            &pairs(&[
                ("workloads", "spec2k, corpus"),
                ("pdn", "1.0,1.5"),
                ("tuning", "75,100"),
                ("sensor", "10:2.5:5"),
                ("damping", "0.5"),
                ("instructions", "9000"),
            ]),
            120_000,
        )
        .expect("spec parses");
        assert_eq!(
            spec.workloads,
            vec![WorkloadClass::Spec2k, WorkloadClass::Corpus]
        );
        assert_eq!(spec.pdn_scales, vec![1.0, 1.5]);
        assert_eq!(spec.tuning, vec![75, 100]);
        assert_eq!(
            spec.sensor,
            vec![SensorPoint {
                threshold_mv: 10.0,
                noise_mv: 2.5,
                delay: 5
            }]
        );
        assert_eq!(spec.damping, vec![0.5]);
        assert_eq!(spec.instructions, 9_000);
        // base + 2 tuning + 1 sensor + 1 damping
        assert_eq!(spec.technique_points().len(), 5);

        for bad in [
            ("workloads", "spec9k"),
            ("pdn", "-1"),
            ("pdn", "0.0001"), // breaks the underdamped invariant
            ("tuning", "0"),
            ("sensor", "10:2.5"),
            ("sensor", "-5:0:0"),  // threshold below zero
            ("sensor", "20:50:0"), // noise swallows the threshold
            ("sensor", "20:-1:0"), // negative noise
            ("instructions", "0"),
            ("orientation", "sideways"),
            ("pdn", ""),
        ] {
            let result = GridSpec::parse(&pairs(&[bad]), 120_000);
            assert!(result.is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn pdn_scale_one_is_exactly_the_paper_machine() {
        let sim = sim_for(1.0, 10_000).expect("scale 1.0 is valid");
        assert_eq!(
            sim,
            SimConfig::isca04(10_000),
            "wire-encodability depends on this"
        );
        let scaled = sim_for(2.0, 10_000).expect("scale 2.0 is valid");
        let ratio = scaled.supply.inductance().henries() / sim.supply.inductance().henries();
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn store_round_trips_and_treats_collisions_as_misses() {
        let dir = std::env::temp_dir().join(format!("restune-sweep-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = RunStore::open(dir.clone());
        let profile = spec2k::by_name("mcf").expect("mcf is in the suite");
        let sim = SimConfig::isca04(4_000);
        let result = crate::sim::run(&profile, &Technique::Base, &sim);
        let key = run_key(&profile, &Technique::Base, &sim);

        assert_eq!(store.get(&key), None, "empty store misses");
        store.put(&key, &result).expect("put succeeds");
        assert_eq!(store.get(&key), Some(result), "round trip is bit-exact");

        // A forced 64-bit collision: same fingerprint, different identity.
        // The impostor must miss (and count the mismatch) without evicting
        // the rightful owner's record.
        let impostor = CacheKey {
            fingerprint: key.fingerprint,
            identity: format!("{}|impostor", key.identity),
        };
        let mismatches_before = counter("store.identity_mismatches");
        assert_eq!(store.get(&impostor), None, "collision is a miss");
        assert_eq!(counter("store.identity_mismatches"), mismatches_before + 1);
        assert_eq!(store.get(&key), Some(result), "owner's record survives");

        // Damage is discarded, not trusted.
        let path = store.path_for(key.fingerprint);
        let body = std::fs::read_to_string(&path).expect("record exists");
        std::fs::write(&path, body.replace("id=", "xx=")).expect("damage lands");
        assert_eq!(store.get(&key), None, "damaged record misses");
        assert!(!path.exists(), "damaged record is deleted");

        // The byte-payload record keeps the same contract. Its bytes cover
        // every value, tabs and newlines included, so the row encoding must
        // not leak them into the line format.
        let payload: Vec<u8> = (0..=255u8).rev().collect();
        let job = CacheKey::from_identity(String::from("job-test|payload-record"));
        assert_eq!(store.get_payload(&job, "server"), None, "empty slot misses");
        store.put_payload(&job, &payload).expect("put succeeds");
        assert_eq!(
            store.get_payload(&job, "server"),
            Some(payload.clone()),
            "payload round trip is byte-exact"
        );
        let impostor = CacheKey {
            fingerprint: job.fingerprint,
            identity: format!("{}|impostor", job.identity),
        };
        let mismatches_before = counter("server.identity_mismatches");
        assert_eq!(store.get_payload(&impostor, "server"), None);
        assert_eq!(counter("server.identity_mismatches"), mismatches_before + 1);
        let path = store.path_for(job.fingerprint);
        assert!(path.exists(), "a colliding record is left in place");
        assert_eq!(store.get_payload(&job, "server"), Some(payload.clone()));

        // A flipped byte in the data row fails its CRC: deleted, a miss.
        let body = std::fs::read_to_string(&path).expect("record exists");
        let data_row = body.lines().nth(2).expect("a data row").to_string();
        let flipped = data_row.replacen("ff", "fe", 1);
        assert_ne!(flipped, data_row);
        std::fs::write(&path, body.replace(&data_row, &flipped)).expect("damage lands");
        assert_eq!(
            store.get_payload(&job, "server"),
            None,
            "flipped byte misses"
        );
        assert!(!path.exists(), "damaged record is deleted");

        // A torn write (the data row cut short, no CRC trailer) misses too.
        store.put_payload(&job, &payload).expect("put succeeds");
        let body = std::fs::read_to_string(&path).expect("record exists");
        std::fs::write(&path, &body[..body.len() - 20]).expect("tear lands");
        assert_eq!(
            store.get_payload(&job, "server"),
            None,
            "torn record misses"
        );
        assert!(!path.exists(), "torn record is deleted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_bounds_the_store_oldest_first() {
        let dir = std::env::temp_dir().join(format!("restune-sweep-evict-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = RunStore::open(dir.clone());
        let profile = spec2k::by_name("mcf").expect("mcf is in the suite");
        let sims: Vec<SimConfig> = (1..=3).map(|i| SimConfig::isca04(1_000 * i)).collect();
        for sim in &sims {
            let result = crate::sim::run(&profile, &Technique::Base, sim);
            store
                .put(&run_key(&profile, &Technique::Base, sim), &result)
                .expect("put succeeds");
        }

        // Generous bounds: nothing to evict.
        let kept = store.evict();
        assert_eq!(kept, EvictStats::default());

        // A one-byte size bound evicts everything, oldest first.
        let evicted = with_env(&[("RESTUNE_STORE_MAX_BYTES", Some("1"))], || store.evict());
        assert_eq!(evicted.files, 3, "all records exceed a 1-byte bound");
        assert!(evicted.bytes > 0);
        for sim in &sims {
            assert_eq!(store.get(&run_key(&profile, &Technique::Base, sim)), None);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn frontier_marks_exactly_the_nondominated_points() {
        let summary = |violations, slowdown, ed| Summary {
            avg_slowdown: slowdown,
            worst_slowdown: slowdown,
            worst_app: "mcf",
            apps_over_15_percent: 0,
            avg_energy_delay: ed,
            avg_first_level_fraction: 0.0,
            avg_second_level_fraction: 0.0,
            avg_sensor_response_fraction: 0.0,
            total_violation_cycles: violations,
        };
        let a = summary(100, 1.0, 1.0); // base: violations, no slowdown
        let b = summary(0, 1.05, 1.1); // clean but slower
        let c = summary(0, 1.08, 1.2); // dominated by b
        assert!(
            !dominates(&a, &b) && !dominates(&b, &a),
            "a and b trade off"
        );
        assert!(dominates(&b, &c));
        assert!(!dominates(&c, &b));
        assert!(!dominates(&b, &b), "a point never dominates itself");
    }

    fn counter(name: &str) -> u64 {
        obs::snapshot_counters()
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }
}
