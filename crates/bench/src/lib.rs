//! Shared plumbing for the experiment harnesses: argument parsing, ASCII
//! plotting, table formatting, and machine-readable reports.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper;
//! see `DESIGN.md` for the index. All binaries accept
//! `--instructions N` to scale run length (default 120 000 per application)
//! and print the same rows/series the paper reports; `--json` switches the
//! output to a machine-readable JSON document instead.

pub mod report;

pub use report::Report;

/// The usage text every harness prints for `--help` and argument errors.
pub const USAGE: &str =
    "usage: <harness> [--instructions N] [--json] [--faults SEED] [--fault APP=KIND]
                 [--timeout SECS] [--resume] [--trace-out PATH]
                 [--connect ENDPOINT[,ENDPOINT..]]
  --instructions N, -n N  committed instructions per application run
                          (default 120000)
  --json                  print results as a JSON document on stdout
                          instead of human-readable tables
  --connect ENDPOINTS     run the suite through restuned server(s) instead
                          of in-process: each comma-separated ENDPOINT is a
                          unix socket path or tcp:HOST:PORT. Reports are
                          byte-identical to local runs. Two or more
                          endpoints arm the shard-aware mesh: jobs shard by
                          rendezvous hashing on their fingerprint, a downed
                          host opens its circuit breaker and jobs fail over
                          to the next host in rendezvous order, and probe
                          frames re-admit it once it answers again.
                          RESTUNE_NET_FAULT=SPEC[,SPEC..] injects
                          client-side network faults (truncate:N,
                          stall:N:MILLIS, disconnect:N) for chaos testing
  --trace-out PATH        write a structured JSON-lines event trace (cycle-
                          stamped sim events, waveform windows around
                          violations, engine events, counters) to PATH;
                          equivalent to RESTUNE_TRACE=PATH. Tracing never
                          changes simulation results.
  --faults SEED           enable deterministic fault injection from SEED
                          (off by default; clean runs are bit-exact)
  --fault APP=KIND        inject a persistent targeted fault into APP; KIND
                          is panic, stall[:MILLIS], abort, or kill
                          (abort/kill need RESTUNE_ISOLATION=process to be
                          contained for real); repeatable
  --timeout SECS          per-application watchdog deadline in seconds
                          (fractions allowed; off by default)
  --resume                store every completed application run in the run
                          store under the cache directory, and replay the
                          stored ones: an interrupted suite resumes
  --help, -h              print this message";

/// Exit code for malformed command-line arguments.
pub const EXIT_USAGE: i32 = 2;

/// Options shared by the suite harnesses.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessArgs {
    /// Committed instructions per application run.
    pub instructions: u64,
    /// Emit machine-readable JSON instead of human tables.
    pub json: bool,
    /// Seed of the deterministic fault plan; `None` disables injection.
    pub faults: Option<u64>,
    /// Explicit `--fault APP=KIND` injections, applied persistently on top
    /// of any seeded plan.
    pub targeted_faults: Vec<(String, restune::FaultSpec)>,
    /// Per-application watchdog deadline in seconds.
    pub timeout_secs: Option<f64>,
    /// Read and write the default run store, so interrupted suites resume.
    pub resume: bool,
    /// Write the structured JSON-lines event trace to this path.
    pub trace_out: Option<std::path::PathBuf>,
    /// Run suites through `restuned` server(s) instead of in-process: a
    /// comma-separated endpoint list (each a unix socket path, or
    /// `tcp:HOST:PORT`). Two or more endpoints arm the shard-aware mesh.
    pub connect: Option<String>,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        Self {
            instructions: 120_000,
            json: false,
            faults: None,
            targeted_faults: Vec::new(),
            timeout_secs: None,
            resume: false,
            trace_out: None,
            connect: None,
        }
    }
}

/// What [`HarnessArgs::try_parse`] found on the command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Parsed {
    /// Options to run with.
    Args(HarnessArgs),
    /// `--help` was requested; print [`USAGE`] and exit 0.
    Help,
}

impl HarnessArgs {
    /// Parses harness options from an argument list (without the program
    /// name).
    ///
    /// # Errors
    ///
    /// Returns a one-line description of the first malformed argument.
    pub fn try_parse<I>(args: I) -> Result<Parsed, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut parsed = Self::default();
        let mut iter = args.into_iter();
        while let Some(a) = iter.next() {
            match a.as_str() {
                "--instructions" | "-n" => {
                    let v = iter.next().ok_or_else(|| format!("{a} requires a value"))?;
                    parsed.instructions = v
                        .parse()
                        .map_err(|_| format!("invalid instruction count: {v}"))?;
                    if parsed.instructions == 0 {
                        return Err(String::from("instruction count must be positive"));
                    }
                }
                "--json" => parsed.json = true,
                "--faults" => {
                    let v = iter.next().ok_or_else(|| format!("{a} requires a value"))?;
                    parsed.faults =
                        Some(v.parse().map_err(|_| format!("invalid fault seed: {v}"))?);
                }
                "--timeout" => {
                    let v = iter.next().ok_or_else(|| format!("{a} requires a value"))?;
                    let secs: f64 = v.parse().map_err(|_| format!("invalid timeout: {v}"))?;
                    if !(secs > 0.0 && secs.is_finite()) {
                        return Err(String::from("timeout must be a positive number of seconds"));
                    }
                    parsed.timeout_secs = Some(secs);
                }
                "--fault" => {
                    let v = iter.next().ok_or_else(|| format!("{a} requires a value"))?;
                    parsed.targeted_faults.push(parse_fault_arg(&v)?);
                }
                "--resume" => parsed.resume = true,
                "--trace-out" => {
                    let v = iter.next().ok_or_else(|| format!("{a} requires a value"))?;
                    if v.is_empty() {
                        return Err(String::from("--trace-out requires a non-empty path"));
                    }
                    parsed.trace_out = Some(std::path::PathBuf::from(v));
                }
                "--connect" => {
                    let v = iter.next().ok_or_else(|| format!("{a} requires a value"))?;
                    if v.is_empty() {
                        return Err(String::from("--connect requires a non-empty endpoint"));
                    }
                    parsed.connect = Some(v);
                }
                "--help" | "-h" => return Ok(Parsed::Help),
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(Parsed::Args(parsed))
    }

    /// Builds the engine [`restune::RunPolicy`] these options describe: the
    /// seeded fault plan (or none), the watchdog timeout, and the run store
    /// (`--resume`). With none of the supervision flags given the policy is
    /// inert: the harness's report sections are the same as under
    /// `--resume`, and it prints no `failures` section.
    pub fn policy(&self) -> restune::RunPolicy {
        let mut plan = self
            .faults
            .map(restune::FaultPlan::seeded)
            .unwrap_or_else(restune::FaultPlan::none);
        for (app, spec) in &self.targeted_faults {
            // Persistent on purpose: a `--fault` must survive retries, so
            // the chaos stage exercises the terminal-failure path.
            plan = plan.with_persistent_fault(app, *spec);
        }
        restune::RunPolicy {
            supervisor: restune::SupervisorConfig {
                timeout: self.timeout_secs.map(std::time::Duration::from_secs_f64),
                store: self.resume.then(restune::RunStore::open_default),
                ..restune::SupervisorConfig::default()
            },
            plan,
        }
    }

    /// Parses `std::env::args`, printing [`USAGE`] and exiting — with code 0
    /// for `--help`, [`EXIT_USAGE`] for malformed arguments — when the
    /// process should not continue.
    pub fn parse() -> Self {
        match Self::try_parse(std::env::args().skip(1)) {
            Ok(Parsed::Args(args)) => args,
            Ok(Parsed::Help) => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            Err(message) => {
                eprintln!("error: {message}\n{USAGE}");
                std::process::exit(EXIT_USAGE);
            }
        }
    }
}

/// Parses one `--fault APP=KIND` argument into its targeted fault spec.
fn parse_fault_arg(value: &str) -> Result<(String, restune::FaultSpec), String> {
    let (app, kind) = value
        .split_once('=')
        .ok_or_else(|| format!("invalid --fault '{value}' (expected APP=KIND)"))?;
    if app.is_empty() {
        return Err(format!(
            "invalid --fault '{value}' (empty application name)"
        ));
    }
    let spec = match kind {
        "panic" => restune::FaultSpec::WorkerPanic,
        "abort" => restune::FaultSpec::WorkerAbort,
        "kill" => restune::FaultSpec::WorkerKill,
        stall if stall == "stall" || stall.starts_with("stall:") => {
            let millis = match stall.strip_prefix("stall:") {
                None => 1500,
                Some(ms) => ms
                    .parse()
                    .map_err(|_| format!("invalid --fault stall duration: {ms}"))?,
            };
            restune::FaultSpec::WorkerStall { millis }
        }
        other => {
            return Err(format!(
                "unknown --fault kind '{other}' (expected panic, stall[:MILLIS], abort, or kill)"
            ))
        }
    };
    Ok((app.to_string(), spec))
}

/// Everything a harness `main` must do before touching its arguments:
/// install this binary's worker entry (so `RESTUNE_ISOLATION=process` can
/// self-exec it) and arm the SIGINT/SIGTERM graceful-shutdown handlers.
/// Bind the returned guard for the whole of `main` — when a shutdown signal
/// arrived during the run, its drop exits 130 after the partial report has
/// been printed.
#[must_use = "bind the guard for the whole of main so the interrupted exit fires"]
pub fn harness_init() -> ShutdownGuard {
    restune::maybe_run_worker();
    restune::install_signal_handlers();
    ShutdownGuard { _priv: () }
}

/// The exit rule of every suite harness, applied once its report is
/// printed: `main` returns this code.
///
/// * A requested shutdown exits 130. The [`ShutdownGuard`] bound in `main`
///   exits with it as it drops, so the other guards drop first and the
///   partial report is already out.
/// * A failed application exits 1, unless a fault plan is enabled: then
///   injected failures are the experiment, not an error.
/// * Anything else exits 0.
pub fn exit_code(
    policy: &restune::RunPolicy,
    reports: &[restune::FailureReport],
) -> std::process::ExitCode {
    std::process::ExitCode::from(exit_status(
        restune::shutdown_requested(),
        policy.plan.is_enabled(),
        reports,
    ))
}

fn exit_status(interrupted: bool, plan_enabled: bool, reports: &[restune::FailureReport]) -> u8 {
    if interrupted {
        130
    } else if !plan_enabled && reports.iter().any(|r| !r.failures.is_empty()) {
        1
    } else {
        0
    }
}

/// See [`harness_init`].
#[derive(Debug)]
pub struct ShutdownGuard {
    _priv: (),
}

impl Drop for ShutdownGuard {
    fn drop(&mut self) {
        if restune::shutdown_requested() {
            eprintln!("restune: interrupted by signal; reported results are partial");
            // 130 = 128 + SIGINT, the conventional interrupted exit.
            std::process::exit(130);
        }
    }
}

/// Arms structured tracing for a harness run when `--trace-out` was given
/// (`RESTUNE_TRACE=PATH` works without any flag and is handled inside the
/// core). Bind the returned guard for the whole of `main`: its drop emits
/// the final counter snapshot and flushes the sink so the trace file is
/// complete even on early returns.
#[must_use = "bind the guard for the whole of main so the trace is flushed"]
pub fn init_trace(args: &HarnessArgs) -> TraceGuard {
    if let Some(path) = &args.trace_out {
        if let Err(e) = restune::obs::trace_to_file(path) {
            eprintln!(
                "error: cannot open trace file {}: {e}\n{USAGE}",
                path.display()
            );
            std::process::exit(EXIT_USAGE);
        }
    }
    TraceGuard { _priv: () }
}

/// See [`init_trace`].
#[derive(Debug)]
pub struct TraceGuard {
    _priv: (),
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        restune::obs::finish_trace();
    }
}

/// Routes suite execution through a `restuned` server when `--connect` was
/// given; a no-op otherwise. `RESTUNE_NET_FAULT` (a `parse_net_faults`
/// spec list) arms client-side network faults on the first connection —
/// exercised by the chaos stages, harmless in normal use. Bind the
/// returned guard for the whole of `main`: its drop tears the connection
/// down so in-flight requests are cancelled on early exits.
///
/// Exits with [`EXIT_USAGE`] on a malformed fault spec and with 1 when the
/// server is unreachable — a thin client that cannot reach its server
/// should fail fast, not silently fall back to a local run.
#[must_use = "bind the guard for the whole of main so the connection is torn down"]
pub fn init_connect(args: &HarnessArgs) -> ConnectGuard {
    let Some(endpoint) = &args.connect else {
        return ConnectGuard { active: false };
    };
    if let Ok(spec) = std::env::var("RESTUNE_NET_FAULT") {
        match restune::parse_net_faults(&spec) {
            Ok(faults) => restune::set_net_faults(faults),
            Err(e) => {
                eprintln!("error: invalid RESTUNE_NET_FAULT: {e}\n{USAGE}");
                std::process::exit(EXIT_USAGE);
            }
        }
    }
    if let Err(e) = restune::set_connect(endpoint) {
        eprintln!("error: cannot connect to restuned at {endpoint}: {e}");
        std::process::exit(1);
    }
    ConnectGuard { active: true }
}

/// See [`init_connect`].
#[derive(Debug)]
pub struct ConnectGuard {
    active: bool,
}

impl Drop for ConnectGuard {
    fn drop(&mut self) {
        if self.active {
            restune::clear_connect();
        }
    }
}

/// Renders a JSON object mapping each named section to its rows — the
/// single document a harness prints under `--json`.
pub fn json_document(sections: &[(&str, report::Report)]) -> String {
    let mut out = String::from("{\n");
    for (i, (name, rows)) in sections.iter().enumerate() {
        out.push_str(&format!(
            "\"{}\": {}",
            report::json_escape(name),
            rows.to_json()
        ));
        out.push_str(if i + 1 < sections.len() { ",\n" } else { "\n" });
    }
    out.push('}');
    out
}

/// Prints a suite harness's `--json` document: `sections`, then a
/// `failures` section of `reports` unless the policy is inert.
pub fn print_json(
    mut sections: Vec<(&str, report::Report)>,
    policy: &restune::RunPolicy,
    reports: &[restune::FailureReport],
) {
    if !policy.is_inert() {
        sections.push(("failures", failure_report_section(reports)));
    }
    println!("{}", json_document(&sections));
}

/// The standard machine-readable rows for per-run engine metrics, shared by
/// every harness's `--json` output.
pub fn run_metrics_report<'a>(
    metrics: impl IntoIterator<Item = &'a restune::RunMetrics>,
) -> report::Report {
    let mut r = report::Report::new(&[
        "app",
        "technique",
        "replayed",
        "wall_seconds",
        "cycles",
        "committed",
        "sim_cycles_per_second",
        "violation_cycles",
        "first_level_fraction",
        "second_level_fraction",
        "sensor_response_fraction",
        "detector_events",
        "base_cache_hits",
        "base_cache_misses",
        "phase_controller_seconds",
        "phase_cpu_seconds",
        "phase_power_seconds",
        "phase_supply_seconds",
    ]);
    for m in metrics {
        r.push(vec![
            m.app.into(),
            m.technique.into(),
            m.replayed.into(),
            m.wall_seconds.into(),
            m.cycles.into(),
            m.committed.into(),
            m.sim_cycles_per_second.into(),
            m.violation_cycles.into(),
            m.first_level_fraction.into(),
            m.second_level_fraction.into(),
            m.sensor_response_fraction.into(),
            m.detector_events.into(),
            m.base_cache_hits.into(),
            m.base_cache_misses.into(),
            m.phase_controller_seconds.into(),
            m.phase_cpu_seconds.into(),
            m.phase_power_seconds.into(),
            m.phase_supply_seconds.into(),
        ]);
    }
    r
}

/// The machine-readable rows of one or more scope-labelled failure
/// reports: every injection, recovery, terminal failure, and storage
/// incident the supervisor observed. Appended as a `failures` section to
/// `--json` output when supervision is active.
pub fn failure_report_section(reports: &[restune::FailureReport]) -> report::Report {
    let mut r = report::Report::new(&["scope", "event", "app", "kind", "attempts", "detail"]);
    for rep in reports {
        for i in &rep.injections {
            r.push(vec![
                rep.scope.as_str().into(),
                "injected".into(),
                i.app.as_str().into(),
                i.class.into(),
                u64::from(i.attempt + 1).into(),
                "".into(),
            ]);
        }
        for rec in &rep.recoveries {
            r.push(vec![
                rep.scope.as_str().into(),
                "recovered".into(),
                rec.app.as_str().into(),
                rec.kind.as_str().into(),
                u64::from(rec.attempts).into(),
                rec.message.as_str().into(),
            ]);
        }
        for f in &rep.failures {
            r.push(vec![
                rep.scope.as_str().into(),
                "failed".into(),
                f.app.as_str().into(),
                f.kind.as_str().into(),
                u64::from(f.attempts).into(),
                f.message.as_str().into(),
            ]);
        }
        for s in &rep.storage {
            r.push(vec![
                rep.scope.as_str().into(),
                if s.recovered {
                    "storage-recovered".into()
                } else {
                    "storage".into()
                },
                s.path.as_str().into(),
                "storage".into(),
                0u64.into(),
                s.detail.as_str().into(),
            ]);
        }
        if rep.store_degraded {
            r.push(vec![
                rep.scope.as_str().into(),
                "store-degraded".into(),
                "".into(),
                "storage".into(),
                0u64.into(),
                "a run-store put failed; a resume would re-run the unstored apps".into(),
            ]);
        }
    }
    r
}

/// Prints the human-readable failure section: one summary line per
/// non-empty report, then each event indented beneath it.
pub fn print_failure_reports(reports: &[restune::FailureReport]) {
    let interesting: Vec<_> = reports.iter().filter(|r| !r.is_empty()).collect();
    if interesting.is_empty() {
        return;
    }
    println!("\n--- supervision report ---");
    for rep in interesting {
        println!("{}", rep.summary());
        for i in &rep.injections {
            println!(
                "  injected  {:10} attempt {} {}",
                i.app,
                i.attempt + 1,
                i.class
            );
        }
        for rec in &rep.recoveries {
            println!(
                "  recovered {:10} after {} attempts ({}: {})",
                rec.app, rec.attempts, rec.kind, rec.message
            );
        }
        for f in &rep.failures {
            println!(
                "  FAILED    {:10} after {} attempts ({}: {})",
                f.app, f.attempts, f.kind, f.message
            );
        }
        for s in &rep.storage {
            println!(
                "  storage   {} — {}{}",
                s.path,
                s.detail,
                if s.recovered { " (recovered)" } else { "" }
            );
        }
        if rep.store_degraded {
            println!("  WARNING   run-store puts failed; this suite will not fully resume");
        }
    }
}

/// An empty per-app outcome report; fill with [`push_outcomes`].
pub fn outcomes_report() -> report::Report {
    report::Report::new(&[
        "design_point",
        "app",
        "slowdown",
        "relative_energy",
        "relative_energy_delay",
        "first_level_fraction",
        "second_level_fraction",
        "sensor_response_fraction",
        "violation_cycles",
    ])
}

/// Appends one design point's per-app outcomes to an [`outcomes_report`].
pub fn push_outcomes(
    r: &mut report::Report,
    design_point: &str,
    outcomes: &[restune::RelativeOutcome],
) {
    for o in outcomes {
        r.push(vec![
            design_point.into(),
            o.app.into(),
            o.slowdown.into(),
            o.relative_energy.into(),
            o.relative_energy_delay.into(),
            o.first_level_fraction.into(),
            o.second_level_fraction.into(),
            o.sensor_response_fraction.into(),
            o.violation_cycles.into(),
        ]);
    }
}

/// Renders a simple ASCII line chart of `series` (y values) with `height`
/// rows, labelling the y-axis with `unit`.
pub fn ascii_chart(series: &[f64], height: usize, unit: &str) -> String {
    if series.is_empty() {
        return String::from("(empty series)\n");
    }
    let max = series.iter().cloned().fold(f64::MIN, f64::max);
    let min = series.iter().cloned().fold(f64::MAX, f64::min);
    let span = (max - min).max(1e-12);
    let mut out = String::new();
    for row in 0..height {
        let level = max - span * row as f64 / (height - 1).max(1) as f64;
        let mark = format!("{level:10.4} {unit} |");
        out.push_str(&mark);
        for &y in series {
            let cell = (max - y) / span * (height - 1) as f64;
            out.push(if (cell.round() as usize) == row {
                '*'
            } else {
                ' '
            });
        }
        out.push('\n');
    }
    out
}

/// Downsamples a series to at most `n` points by taking the extreme value
/// (largest magnitude) in each bucket — keeps violation peaks visible.
pub fn downsample_extreme(series: &[f64], n: usize) -> Vec<f64> {
    if series.len() <= n || n == 0 {
        return series.to_vec();
    }
    let bucket = series.len() as f64 / n as f64;
    (0..n)
        .map(|k| {
            let lo = (k as f64 * bucket) as usize;
            let hi = (((k + 1) as f64 * bucket) as usize).min(series.len());
            series[lo..hi.max(lo + 1)]
                .iter()
                .cloned()
                .max_by(|a, b| a.abs().total_cmp(&b.abs()))
                .expect("bucket non-empty")
        })
        .collect()
}

/// Formats a ruled table: `headers` then rows of equal arity.
///
/// # Panics
///
/// Panics if any row's arity differs from the header's.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row arity mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let rule: String = widths
        .iter()
        .map(|w| format!("+{}", "-".repeat(w + 2)))
        .collect::<String>()
        + "+\n";
    let mut out = rule.clone();
    let fmt_row = |cells: &[String]| -> String {
        let mut line = String::new();
        for (w, cell) in widths.iter().zip(cells) {
            line.push_str(&format!("| {cell:w$} "));
        }
        line.push_str("|\n");
        line
    };
    out.push_str(&fmt_row(
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    ));
    out.push_str(&rule);
    for row in rows {
        out.push_str(&fmt_row(row));
    }
    out.push_str(&rule);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chart_marks_extremes() {
        let chart = ascii_chart(&[0.0, 1.0, 0.5], 3, "V");
        assert!(chart.contains('*'));
        assert_eq!(chart.lines().count(), 3);
    }

    #[test]
    fn chart_handles_empty() {
        assert!(ascii_chart(&[], 5, "V").contains("empty"));
    }

    #[test]
    fn downsample_keeps_peaks() {
        let mut series = vec![0.0; 1000];
        series[537] = -9.0;
        let ds = downsample_extreme(&series, 10);
        assert_eq!(ds.len(), 10);
        assert!(ds.contains(&-9.0), "peak must survive downsampling");
    }

    #[test]
    fn downsample_passthrough_when_small() {
        let series = vec![1.0, 2.0];
        assert_eq!(downsample_extreme(&series, 10), series);
    }

    #[test]
    fn table_is_ruled_and_aligned() {
        let t = format_table(
            &["app", "ipc"],
            &[
                vec!["parser".into(), "1.71".into()],
                vec!["mcf".into(), "0.38".into()],
            ],
        );
        assert!(t.contains("| parser |"));
        assert!(t.starts_with('+'));
        // All lines equal width.
        let mut lens: Vec<usize> = t.lines().map(|l| l.len()).collect();
        lens.dedup();
        assert_eq!(lens.len(), 1, "table must be rectangular:\n{t}");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn ragged_rows_panic() {
        let _ = format_table(&["a", "b"], &[vec!["x".into()]]);
    }

    #[test]
    fn default_args() {
        let args = HarnessArgs::default();
        assert_eq!(args.instructions, 120_000);
        assert!(!args.json);
    }

    fn parse(args: &[&str]) -> Result<Parsed, String> {
        HarnessArgs::try_parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_instructions_and_json() {
        let Ok(Parsed::Args(args)) = parse(&["--instructions", "5000", "--json"]) else {
            panic!("well-formed arguments must parse");
        };
        assert_eq!(args.instructions, 5_000);
        assert!(args.json);
        let Ok(Parsed::Args(short)) = parse(&["-n", "42"]) else {
            panic!("-n must parse");
        };
        assert_eq!(short.instructions, 42);
    }

    #[test]
    fn help_is_not_an_error() {
        assert_eq!(parse(&["--help"]), Ok(Parsed::Help));
        assert_eq!(parse(&["-h"]), Ok(Parsed::Help));
        assert!(USAGE.contains("--json"), "--help must document --json");
        for flag in [
            "--faults",
            "--fault APP=KIND",
            "--timeout",
            "--resume",
            "--trace-out",
            "RESTUNE_TRACE",
            "--connect",
            "RESTUNE_NET_FAULT",
        ] {
            assert!(USAGE.contains(flag), "--help must document {flag}");
        }
    }

    #[test]
    fn parses_targeted_faults() {
        let Ok(Parsed::Args(args)) = parse(&[
            "--fault",
            "mcf=abort",
            "--fault",
            "swim=kill",
            "--fault",
            "gzip=stall:250",
            "--fault",
            "art=panic",
        ]) else {
            panic!("--fault flags must parse");
        };
        assert_eq!(
            args.targeted_faults,
            vec![
                ("mcf".to_string(), restune::FaultSpec::WorkerAbort),
                ("swim".to_string(), restune::FaultSpec::WorkerKill),
                (
                    "gzip".to_string(),
                    restune::FaultSpec::WorkerStall { millis: 250 }
                ),
                ("art".to_string(), restune::FaultSpec::WorkerPanic),
            ]
        );
        let policy = args.policy();
        assert!(policy.plan.is_enabled());
        // Persistent: the fault applies on retries too.
        assert_eq!(
            policy.plan.faults_for("mcf", 2),
            vec![restune::FaultSpec::WorkerAbort]
        );

        for bad in ["mcf", "=abort", "mcf=melt", "mcf=stall:soon"] {
            assert!(
                parse(&["--fault", bad]).is_err(),
                "'{bad}' must be rejected"
            );
        }
        assert!(parse(&["--fault"]).unwrap_err().contains("requires"));
    }

    #[test]
    fn parses_supervision_flags() {
        let Ok(Parsed::Args(args)) = parse(&["--faults", "42", "--timeout", "2.5", "--resume"])
        else {
            panic!("supervision flags must parse");
        };
        assert_eq!(args.faults, Some(42));
        assert_eq!(args.timeout_secs, Some(2.5));
        assert!(args.resume);

        let policy = args.policy();
        assert!(policy.plan.is_enabled());
        assert_eq!(
            policy.supervisor.timeout,
            Some(std::time::Duration::from_secs_f64(2.5))
        );
        assert_eq!(
            policy.supervisor.store,
            Some(restune::RunStore::open_default())
        );
        assert!(!policy.is_inert());
    }

    #[test]
    fn default_policy_is_inert() {
        assert!(HarnessArgs::default().policy().is_inert());
    }

    #[test]
    fn exit_rule_is_interrupted_then_unplanned_failure_then_success() {
        let clean = restune::FailureReport::new("base");
        let mut failed = restune::FailureReport::new("tuning-100");
        failed.failures.push(restune::AppFailure {
            app: "mcf".into(),
            kind: restune::FailureKind::Timeout,
            message: "watchdog deadline exceeded at cycle 0".into(),
            attempts: 3,
        });
        let clean_run = [clean.clone(), clean.clone()];
        let failed_run = [clean, failed];
        assert_eq!(exit_status(false, false, &clean_run), 0);
        assert_eq!(exit_status(false, true, &clean_run), 0);
        assert_eq!(
            exit_status(false, false, &failed_run),
            1,
            "unplanned failure"
        );
        assert_eq!(exit_status(false, true, &failed_run), 0, "injected failure");
        assert_eq!(exit_status(false, false, &[]), 0);
        for plan_enabled in [false, true] {
            for reports in [&clean_run, &failed_run] {
                assert_eq!(exit_status(true, plan_enabled, reports), 130);
            }
        }
        // Outside a signal, the public rule applies the same table.
        assert_eq!(
            exit_code(&restune::RunPolicy::none(), &failed_run),
            std::process::ExitCode::from(1)
        );
    }

    #[test]
    fn parses_trace_out() {
        let Ok(Parsed::Args(args)) = parse(&["--trace-out", "/tmp/trace.jsonl"]) else {
            panic!("--trace-out must parse");
        };
        assert_eq!(
            args.trace_out,
            Some(std::path::PathBuf::from("/tmp/trace.jsonl"))
        );
        // Tracing is an observer: it must not change the run policy.
        assert!(args.policy().is_inert());
        assert!(parse(&["--trace-out"]).unwrap_err().contains("requires"));
        assert!(parse(&["--trace-out", ""]).unwrap_err().contains("path"));
    }

    #[test]
    fn parses_connect() {
        let Ok(Parsed::Args(args)) = parse(&["--connect", "/tmp/restuned.sock"]) else {
            panic!("--connect must parse");
        };
        assert_eq!(args.connect.as_deref(), Some("/tmp/restuned.sock"));
        // Thin-client mode is an execution transport: the run policy stays
        // whatever the other flags say.
        assert!(args.policy().is_inert());

        let Ok(Parsed::Args(tcp)) = parse(&["--connect", "tcp:127.0.0.1:9000"]) else {
            panic!("tcp endpoints must parse");
        };
        assert_eq!(tcp.connect.as_deref(), Some("tcp:127.0.0.1:9000"));

        assert!(parse(&["--connect"]).unwrap_err().contains("requires"));
        assert!(parse(&["--connect", ""]).unwrap_err().contains("endpoint"));
    }

    #[test]
    fn connect_guard_without_connect_is_inert() {
        let args = HarnessArgs::default();
        let guard = init_connect(&args);
        assert!(!restune::connect_active());
        drop(guard);
        assert!(!restune::connect_active());
    }

    #[test]
    fn malformed_supervision_flags_are_reported() {
        assert!(parse(&["--faults"]).unwrap_err().contains("requires"));
        assert!(parse(&["--faults", "xyz"]).unwrap_err().contains("invalid"));
        assert!(parse(&["--timeout", "-1"])
            .unwrap_err()
            .contains("positive"));
        assert!(parse(&["--timeout", "soon"])
            .unwrap_err()
            .contains("invalid"));
    }

    #[test]
    fn failure_section_covers_every_event_class() {
        use restune::{AppFailure, FailureKind, FailureReport, StorageIncident};

        let mut rep = FailureReport::new("tuning-100");
        rep.injections.push(restune::fault::InjectionEvent {
            app: "gzip".into(),
            attempt: 0,
            class: "worker-panic",
        });
        rep.recoveries.push(restune::fault::RecoveryEvent {
            app: "gzip".into(),
            kind: FailureKind::Panic,
            message: "injected worker panic".into(),
            attempts: 2,
        });
        rep.failures.push(AppFailure {
            app: "mcf".into(),
            kind: FailureKind::Timeout,
            message: "watchdog deadline exceeded at cycle 4096".into(),
            attempts: 3,
        });
        rep.storage.push(StorageIncident {
            path: "/tmp/base.tsv".into(),
            detail: "injected storage-truncate — re-simulated".into(),
            recovered: true,
        });
        rep.store_degraded = true;
        let section = failure_report_section(&[rep]);
        assert_eq!(section.len(), 5);
        let json = section.to_json();
        for needle in [
            "\"event\": \"injected\"",
            "\"event\": \"recovered\"",
            "\"event\": \"failed\"",
            "\"event\": \"storage-recovered\"",
            "\"event\": \"store-degraded\"",
            "\"scope\": \"tuning-100\"",
            "\"kind\": \"timeout\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn malformed_arguments_are_reported_not_panicked() {
        assert!(parse(&["--instructions"])
            .unwrap_err()
            .contains("requires a value"));
        assert!(parse(&["--instructions", "many"])
            .unwrap_err()
            .contains("invalid"));
        assert!(parse(&["--instructions", "0"])
            .unwrap_err()
            .contains("positive"));
        assert!(parse(&["--wat"]).unwrap_err().contains("unknown argument"));
    }

    #[test]
    fn json_document_combines_sections() {
        let mut a = report::Report::new(&["x"]);
        a.push(vec![1u64.into()]);
        let b = report::Report::new(&["y"]);
        let doc = json_document(&[("first", a), ("empty", b)]);
        assert!(doc.starts_with('{') && doc.ends_with('}'));
        assert!(doc.contains("\"first\": ["));
        assert!(doc.contains("\"empty\": ["));
        assert!(doc.contains("\"x\": 1"));
    }

    #[test]
    fn metrics_and_outcome_reports_have_aligned_arity() {
        let m = restune::RunMetrics {
            app: "gzip",
            technique: "base",
            wall_seconds: 0.5,
            cycles: 1000,
            committed: 900,
            sim_cycles_per_second: 2000.0,
            violation_cycles: 0,
            first_level_fraction: 0.0,
            second_level_fraction: 0.0,
            sensor_response_fraction: 0.0,
            detector_events: 0,
            base_cache_hits: 0,
            base_cache_misses: 1,
            phase_controller_seconds: 0.1,
            phase_cpu_seconds: 0.2,
            phase_power_seconds: 0.1,
            phase_supply_seconds: 0.1,
            replayed: false,
            attempts: 1,
        };
        let r = run_metrics_report(&[m]);
        assert_eq!(r.len(), 1);
        assert!(r.to_json().contains("\"app\": \"gzip\""));

        let o = restune::RelativeOutcome {
            app: "gzip",
            slowdown: 1.05,
            relative_energy: 1.01,
            relative_energy_delay: 1.06,
            first_level_fraction: 0.1,
            second_level_fraction: 0.0,
            sensor_response_fraction: 0.0,
            violation_cycles: 0,
        };
        let mut rows = outcomes_report();
        push_outcomes(&mut rows, "tuning-100", &[o]);
        assert_eq!(rows.len(), 1);
        assert!(rows.to_json().contains("\"design_point\": \"tuning-100\""));
    }
}
