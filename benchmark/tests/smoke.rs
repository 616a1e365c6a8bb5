//! Smoke test: every workload, untraced and traced, at the smoke budget.
//! Each run must be correct, and must emit exactly the metrics
//! `BENCHMARK.json` names for its mode, each with its declared unit, so no
//! metric can be dropped, renamed or re-united silently.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`.

use std::path::Path;
use std::process::Command;

use restune::obs::{parse_json, JsonValue};

fn field<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
    v.get(key)
        .unwrap_or_else(|| panic!("missing key {key:?} in {v:?}"))
}

fn text<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    field(v, key)
        .as_str()
        .unwrap_or_else(|| panic!("{key:?} is not a string in {v:?}"))
}

fn list<'a>(v: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    match field(v, key) {
        JsonValue::Array(items) => items,
        other => panic!("{key:?} is not a list: {other:?}"),
    }
}

/// Runs one smoke invocation in its own scratch directory and parses the
/// last line of its standard output.
fn run(workload: &str, trace: &str) -> JsonValue {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("create the smoke directory");
    let out = Command::new(env!("CARGO_BIN_EXE_restune-bench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .current_dir(&dir)
        .output()
        .expect("run restune-bench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed ({}):\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    parse_json(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let manifest_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let manifest =
        parse_json(&std::fs::read_to_string(&manifest_path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
    for workload in list(&manifest, "workloads") {
        let workload = text(workload, "name");
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = run(workload, trace);
            let context = format!("{workload} --trace {trace}");
            assert_eq!(
                field(&result, "correct"),
                &JsonValue::Bool(true),
                "{context}"
            );
            assert!(
                field(&result, "attempted").as_f64() >= Some(1.0),
                "{context}"
            );
            assert_eq!(field(&result, "failed").as_f64(), Some(0.0), "{context}");
            let JsonValue::Object(metrics) = field(&result, "metrics") else {
                panic!("{context}: metrics is not an object");
            };
            let declared = list(&manifest, section);
            assert_eq!(
                metrics.len(),
                declared.len(),
                "{context}: emitted {:?}",
                metrics.iter().map(|(k, _)| k).collect::<Vec<_>>()
            );
            for metric in declared {
                let (name, unit) = (text(metric, "name"), text(metric, "unit"));
                let emitted = metrics
                    .iter()
                    .find(|(k, _)| k == name)
                    .map(|(_, v)| v)
                    .unwrap_or_else(|| panic!("{context}: metric {name} missing"));
                assert_eq!(text(emitted, "unit"), unit, "{context}: unit of {name}");
                let value = field(emitted, "value").as_f64();
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{context}: {name} = {value:?}"
                );
            }
        }
    }
}
