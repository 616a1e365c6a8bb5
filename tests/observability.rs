//! Integration tests for the structured observability layer: event-log
//! schema, waveform capture around violations, bit-exactness of traced runs
//! on both worker tiers, and cross-tier event forwarding.

use std::collections::BTreeSet;
use std::time::Duration;

use proptest::prelude::*;
use restune::obs::{self, JsonValue};
use restune::{
    run, run_suite_supervised, run_supervised, DampingConfig, FaultPlan, SensorConfig, SimConfig,
    SupervisorConfig, Technique, TuningConfig,
};
use workloads::spec2k;

/// Runs `f` with the global trace sink pointed at a fresh buffer, returning
/// `f`'s result and the captured lines. Serialized through the env-mutex so
/// concurrent tests never interleave events into each other's buffers, and
/// always leaves the sink disabled and the counter registry drained.
fn with_captured_trace<R>(f: impl FnOnce() -> R) -> (R, Vec<String>) {
    restune::testenv::with_env(&[("RESTUNE_TRACE", None)], || {
        let buffer = obs::TraceBuffer::new();
        buffer.install();
        let _ = obs::take_counters();
        let out = f();
        obs::disable_trace();
        let _ = obs::take_counters();
        (out, buffer.lines())
    })
}

fn kinds_of(lines: &[String]) -> BTreeSet<String> {
    lines
        .iter()
        .map(|l| {
            obs::parse_json(l)
                .expect("trace lines parse")
                .get("kind")
                .and_then(JsonValue::as_str)
                .expect("trace lines carry a kind")
                .to_string()
        })
        .collect()
}

/// Every emitted line must satisfy the documented schema; `trace_report
/// --check` applies the same predicate in CI.
#[test]
fn every_emitted_event_is_schema_valid() {
    let p = spec2k::by_name("parser").unwrap();
    let sim = SimConfig::isca04(30_000);
    let tun = Technique::Tuning(TuningConfig::isca04_table1(100));
    let (_, lines) = with_captured_trace(|| run_supervised(&p, &tun, &sim, &[], None));
    assert!(!lines.is_empty(), "a traced run must emit events");
    for line in &lines {
        obs::validate_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    }
}

/// The acceptance bar of the paper-facing half: a run that violates the
/// noise margin yields at least one captured waveform window, chronological
/// and covering the trigger, and the traced run's result is bit-identical
/// to the untraced one. swim at 150k instructions violates on the base
/// machine (pinned by the simulator test-suite).
#[test]
fn violating_run_captures_waveform_windows_and_stays_bit_exact() {
    let p = spec2k::by_name("swim").unwrap();
    let sim = SimConfig::isca04(150_000);
    let reference = run(&p, &Technique::Base, &sim);
    assert!(
        reference.violation_cycles > 0,
        "swim\u{40}150k must violate"
    );

    let (traced, lines) =
        with_captured_trace(|| run_supervised(&p, &Technique::Base, &sim, &[], None));
    assert_eq!(
        traced.result, reference,
        "tracing must never change simulation results"
    );

    let kinds = kinds_of(&lines);
    for expected in ["run-start", "violation", "waveform", "run-end"] {
        assert!(kinds.contains(expected), "missing {expected}: {kinds:?}");
    }

    let windows: Vec<_> = lines
        .iter()
        .filter(|l| l.contains("\"kind\":\"waveform\""))
        .collect();
    assert!(!windows.is_empty(), "a violation must dump >=1 window");
    for w in windows {
        let event = obs::parse_json(w).unwrap();
        let trigger = event.get("cycle").and_then(JsonValue::as_f64).unwrap();
        let JsonValue::Array(samples) = event.get("samples").unwrap().clone() else {
            panic!("samples must be an array");
        };
        assert!(!samples.is_empty());
        let cycles: Vec<f64> = samples
            .iter()
            .map(|s| match s {
                JsonValue::Array(t) => t[0].as_f64().unwrap(),
                _ => panic!("each sample is a [cycle, amps, volts] triple"),
            })
            .collect();
        assert!(
            cycles.windows(2).all(|w| w[0] < w[1]),
            "samples are chronological"
        );
        assert!(
            cycles.iter().any(|&c| c >= trigger),
            "window covers its trigger cycle"
        );
    }
}

/// Not a real test: the process-isolation tests below re-exec this test
/// binary with `worker_shim --exact` as its arguments, turning the libtest
/// run into a restune worker. Without the env gate it is a no-op.
#[test]
fn worker_shim() {
    if std::env::var("RESTUNE_WORKER_SHIM").as_deref() != Ok("1") {
        return;
    }
    std::process::exit(restune::isolation::serve_worker(std::io::stdin().lock()));
}

/// The cross-tier acceptance bar: with tracing enabled, a process-isolated
/// suite forwards its workers' events home, so the parent's trace carries
/// the same event kinds as a thread-tier run of the same seeded suite —
/// and the results stay bit-identical. One pool thread serves all three
/// profiles through one reused worker, so every job must forward only its
/// own counters and lines.
#[test]
fn process_tier_forwards_the_same_event_kinds_as_thread_tier() {
    let profiles: Vec<_> = ["swim", "mcf", "parser"]
        .iter()
        .map(|n| spec2k::by_name(n).unwrap())
        .collect();
    let sim = SimConfig::isca04(150_000);
    let sup = SupervisorConfig {
        timeout: Some(Duration::from_secs(120)),
        ..SupervisorConfig::default()
    };
    let run_tier = |extra_env: &[(&str, Option<&str>)]| {
        let mut env = vec![("RESTUNE_TRACE", None), ("RESTUNE_WORKERS", Some("1"))];
        env.extend_from_slice(extra_env);
        restune::testenv::with_env(&env, || {
            let buffer = obs::TraceBuffer::new();
            buffer.install();
            let _ = obs::take_counters();
            let suite =
                run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &FaultPlan::none());
            obs::disable_trace();
            let counters = obs::take_counters();
            (suite, buffer.lines(), counters)
        })
    };

    let (suite_thread, lines_thread, counters_thread) =
        run_tier(&[("RESTUNE_ISOLATION", Some("thread"))]);
    let (suite_proc, lines_proc, counters_proc) = run_tier(&[
        ("RESTUNE_ISOLATION", Some("process")),
        ("RESTUNE_WORKER_ARGV", Some("worker_shim --exact")),
        ("RESTUNE_WORKER_SHIM", Some("1")),
    ]);

    assert!(suite_thread.report.is_clean() && suite_proc.report.is_clean());
    assert_eq!(
        suite_proc.all_results().expect("worker replies"),
        suite_thread.all_results().expect("thread tier completes"),
        "traced process-tier results must be bit-identical to thread tier"
    );

    assert_eq!(
        kinds_of(&lines_thread),
        kinds_of(&lines_proc),
        "the process tier must forward the same event kinds home"
    );
    assert!(
        kinds_of(&lines_proc).contains("waveform"),
        "forwarded windows arrive"
    );

    // The worker's counter registry merges into the parent's: the
    // simulation counters (which the parent process never incremented
    // itself on the process tier) match the thread tier's.
    let find =
        |cs: &[(String, u64)], name: &str| cs.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    for name in ["sim.violation_episodes", "sim.waveform_windows"] {
        assert_eq!(
            find(&counters_proc, name),
            find(&counters_thread, name),
            "forwarded counter {name} must match the thread tier"
        );
        assert!(
            find(&counters_proc, name).unwrap_or(0) > 0,
            "{name} is live"
        );
    }
    assert_eq!(
        (
            find(&counters_proc, "isolation.workers_spawned"),
            find(&counters_proc, "isolation.workers_reused")
        ),
        (Some(1), Some(2)),
        "one worker served all three jobs"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property: whatever the workload, budget, and technique, installing a
    /// trace sink never changes the simulated result (thread tier; the
    /// process tier pins the same property on a fixed case above). The
    /// techniques cover every supply-flush shape: batched (base, tuning,
    /// damping) and one-cycle (the sensor). An untraced supervised run,
    /// which attaches no observer and builds no per-cycle records, gives
    /// the same result too.
    #[test]
    fn tracing_leaves_results_bit_exact(
        app_idx in 0usize..4,
        n in 5_000u64..20_000,
    ) {
        let apps = ["gzip", "swim", "mcf", "parser"];
        let p = spec2k::by_name(apps[app_idx]).unwrap();
        let sim = SimConfig::isca04(n);
        for technique in [
            Technique::Base,
            Technique::Tuning(TuningConfig::isca04_table1(100)),
            Technique::Sensor(SensorConfig::table4(20.0, 10.0, 5)),
            Technique::Damping(DampingConfig::isca04_table5(0.5)),
        ] {
            let reference = run(&p, &technique, &sim);
            let (traced, lines) =
                with_captured_trace(|| run_supervised(&p, &technique, &sim, &[], None));
            prop_assert_eq!(traced.result, reference, "{} traced", technique.name());
            prop_assert!(!lines.is_empty(), "the traced run must emit events");
            for line in &lines {
                prop_assert!(obs::validate_line(line).is_ok(), "bad line: {}", line);
            }
            let untraced = restune::testenv::with_env(&[("RESTUNE_TRACE", None)], || {
                assert!(!obs::trace_enabled(), "no sink may be installed");
                run_supervised(&p, &technique, &sim, &[], None)
            });
            prop_assert_eq!(untraced.result, reference, "{} untraced", technique.name());
        }
    }
}
