//! Golden-trace regression tests: snapshot the numeric output of the
//! table 2/3/4/5 and figure 5 experiment pipelines for a two-application
//! subset and fail on *any* numeric drift. The snapshot is rendered through
//! the path every harness takes: [`run_suite_policed`] under the inert
//! policy, paired by [`paired_outcomes`].
//!
//! Every float is recorded as its `f64::to_bits` hex, so the comparison is
//! bit-exact — a change anywhere in the per-cycle chain (cpusim activity →
//! powermodel current → RLC step → detector/controller) shows up here even
//! when it is far below any rounding tolerance.
//!
//! The committed fixture under `tests/golden/` was blessed from the
//! pre-kernel engine; re-bless only for an *intentional* model change:
//!
//! ```text
//! RESTUNE_BLESS=1 cargo test --test golden_tables
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use restune::experiment::{paired_outcomes, run_suite_policed};
use restune::{
    DampingConfig, RelativeOutcome, RunPolicy, SensorConfig, SimConfig, SimResult, Summary,
    Technique, TuningConfig,
};
use workloads::{spec2k, WorkloadProfile};

/// The subset: one paper-violating app (swim) and one quiet app (gzip), so
/// the snapshot exercises both detector-active and detector-idle paths.
const GOLDEN_APPS: [&str; 2] = ["gzip", "swim"];

/// Small enough that the whole snapshot (13 runs) stays in test-suite
/// budget, large enough that every technique engages its response.
const INSTRUCTIONS: u64 = 20_000;

fn golden_profiles() -> Vec<WorkloadProfile> {
    GOLDEN_APPS
        .iter()
        .map(|name| spec2k::by_name(name).expect("golden app exists in the suite"))
        .collect()
}

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn push_result(out: &mut String, section: &str, r: &SimResult) {
    let app = r.app;
    let mut field = |name: &str, value: String| {
        writeln!(out, "{section}/{app}/{name} = {value}").unwrap();
    };
    field("cycles", r.cycles.to_string());
    field("committed", r.committed.to_string());
    field("ipc", hex(r.ipc));
    field("violation_cycles", r.violation_cycles.to_string());
    field("worst_noise_volts", hex(r.worst_noise.volts()));
    field("energy_joules", hex(r.energy_joules));
    field("energy_delay", hex(r.energy_delay));
    field("first_level_cycles", r.first_level_cycles.to_string());
    field("second_level_cycles", r.second_level_cycles.to_string());
    field(
        "sensor_response_cycles",
        r.sensor_response_cycles.to_string(),
    );
    field("damping_bound_cycles", r.damping_bound_cycles.to_string());
}

fn push_outcome(out: &mut String, section: &str, o: &RelativeOutcome) {
    let app = o.app;
    let mut field = |name: &str, value: String| {
        writeln!(out, "{section}/{app}/{name} = {value}").unwrap();
    };
    field("slowdown", hex(o.slowdown));
    field("relative_energy", hex(o.relative_energy));
    field("relative_energy_delay", hex(o.relative_energy_delay));
    field("first_level_fraction", hex(o.first_level_fraction));
    field("second_level_fraction", hex(o.second_level_fraction));
    field("sensor_response_fraction", hex(o.sensor_response_fraction));
    field("violation_cycles", o.violation_cycles.to_string());
}

fn push_summary(out: &mut String, section: &str, s: &Summary) {
    let mut field = |name: &str, value: String| {
        writeln!(out, "{section}/summary/{name} = {value}").unwrap();
    };
    field("avg_slowdown", hex(s.avg_slowdown));
    field("worst_slowdown", hex(s.worst_slowdown));
    field("worst_app", s.worst_app.to_string());
    field("apps_over_15_percent", s.apps_over_15_percent.to_string());
    field("avg_energy_delay", hex(s.avg_energy_delay));
    field("avg_first_level_fraction", hex(s.avg_first_level_fraction));
    field(
        "avg_second_level_fraction",
        hex(s.avg_second_level_fraction),
    );
    field(
        "avg_sensor_response_fraction",
        hex(s.avg_sensor_response_fraction),
    );
    field(
        "total_violation_cycles",
        s.total_violation_cycles.to_string(),
    );
}

/// Renders the whole snapshot: the base subset suite (table 2), then every
/// figure-5 design point — which between them cover the tuning sweep of
/// table 3, the sensor sweep of table 4, and the damping sweep of table 5 —
/// each with its full per-app results, per-app outcomes, and suite summary.
fn render_snapshot() -> String {
    let profiles = golden_profiles();
    let sim = SimConfig::isca04(INSTRUCTIONS);
    let mut out = String::new();
    writeln!(
        out,
        "restune-golden v1 apps={} instructions={INSTRUCTIONS}",
        GOLDEN_APPS.join(",")
    )
    .unwrap();

    let policy = RunPolicy::none();
    let suite = |technique: &Technique, scope: &str| {
        let suite = run_suite_policed(&profiles, technique, &sim, &policy, scope);
        assert!(suite.report.is_empty(), "{:?}", suite.report);
        suite
    };
    let base = suite(&Technique::Base, "base");
    let base_results = base.all_results().expect("every base run completes");
    for (r, p) in base_results.iter().zip(&profiles) {
        push_result(&mut out, "table2/base", r);
        writeln!(
            out,
            "table2/base/{}/violation_fraction = {}",
            r.app,
            hex(r.violation_fraction())
        )
        .unwrap();
        writeln!(
            out,
            "table2/base/{}/paper_violating = {}",
            r.app, p.paper_violating
        )
        .unwrap();
    }

    // Figure 5's six design points: tuning at 75/100 cycles (table 3),
    // the sensor technique at its two table-4 points, damping at δ = 0.5
    // and 0.25 (table 5).
    let points: Vec<(&str, Technique)> = vec![
        (
            "table3/tuning-75",
            Technique::Tuning(TuningConfig::isca04_table1(75)),
        ),
        (
            "table3/tuning-100",
            Technique::Tuning(TuningConfig::isca04_table1(100)),
        ),
        (
            "table4/sensor-20-10-5",
            Technique::Sensor(SensorConfig::table4(20.0, 10.0, 5)),
        ),
        (
            "table4/sensor-20-15-3",
            Technique::Sensor(SensorConfig::table4(20.0, 15.0, 3)),
        ),
        (
            "table5/damping-0.5",
            Technique::Damping(DampingConfig::isca04_table5(0.5)),
        ),
        (
            "table5/damping-0.25",
            Technique::Damping(DampingConfig::isca04_table5(0.25)),
        ),
    ];
    let mut fig5 = String::new();
    for (section, technique) in &points {
        let label = section.rsplit('/').next().unwrap();
        let run = suite(technique, label);
        let outcomes = paired_outcomes(&base, &run);
        assert_eq!(outcomes.len(), profiles.len(), "every pair survives");
        for r in &run.all_results().expect("every technique run completes") {
            push_result(&mut out, section, r);
        }
        for o in &outcomes {
            push_outcome(&mut out, section, o);
        }
        let summary = Summary::from_outcomes(&outcomes);
        push_summary(&mut out, section, &summary);
        writeln!(
            fig5,
            "fig5/{label}/avg_energy_delay = {}",
            hex(summary.avg_energy_delay)
        )
        .unwrap();
        writeln!(
            fig5,
            "fig5/{label}/avg_slowdown = {}",
            hex(summary.avg_slowdown)
        )
        .unwrap();
    }
    out.push_str(&fig5);
    out
}

fn fixture_path() -> PathBuf {
    // The test is registered from `crates/core`, so the repo root is two
    // levels up from the manifest directory.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join("golden_tables_v1.txt")
}

#[test]
fn golden_tables_and_fig5_snapshot() {
    let actual = render_snapshot();
    let path = fixture_path();

    if std::env::var("RESTUNE_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        eprintln!("blessed golden fixture: {}", path.display());
        return;
    }

    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); bless it with \
             RESTUNE_BLESS=1 cargo test --test golden_tables",
            path.display()
        )
    });
    if actual == expected {
        return;
    }

    // Report the first few divergent lines with their keys: a drift report
    // naming `table3/tuning-75/swim/ipc` beats a bare string mismatch.
    let mut diffs = Vec::new();
    let (mut a_lines, mut e_lines) = (actual.lines(), expected.lines());
    let mut line_no = 0usize;
    loop {
        line_no += 1;
        match (a_lines.next(), e_lines.next()) {
            (None, None) => break,
            (a, e) if a == e => continue,
            (a, e) => {
                diffs.push(format!(
                    "  line {line_no}:\n    actual:   {}\n    expected: {}",
                    a.unwrap_or("<missing>"),
                    e.unwrap_or("<missing>")
                ));
                if diffs.len() >= 8 {
                    diffs.push(String::from("  ... (further differences omitted)"));
                    break;
                }
            }
        }
    }
    panic!(
        "golden snapshot drifted from {} ({} shown below). If the model \
         change is intentional, re-bless with RESTUNE_BLESS=1.\n{}",
        path.display(),
        if diffs.len() > 8 {
            "first 8 differences"
        } else {
            "all differences"
        },
        diffs.join("\n")
    );
}

/// The snapshot itself must be deterministic, or drift reports would be
/// noise: rendering twice in one process must give identical bytes.
#[test]
fn golden_snapshot_is_deterministic() {
    assert_eq!(render_snapshot(), render_snapshot());
}
