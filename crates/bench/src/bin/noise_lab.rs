//! `noise-lab` — the circuit-level command-line interface over the
//! library: supply impedance, calibration, guarantee analysis, impedance
//! fitting, and single application runs, with optional CSV/JSON output.
//! The paper's tables have their own harnesses (`table2_classification`,
//! `table3_tuning`, `table4_sensor`, `table5_damping`).
//!
//! ```console
//! $ cargo run --release -p bench --bin noise_lab -- help
//! $ cargo run --release -p bench --bin noise_lab -- calibrate --out calibration.json
//! $ cargo run --release -p bench --bin noise_lab -- impedance --out impedance.csv
//! $ cargo run --release -p bench --bin noise_lab -- run --app swim --technique tuning
//! ```

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

use bench::report::Report;
use restune::{
    analyze, run, DampingConfig, RelativeOutcome, SensorConfig, SimConfig, Technique, TuningConfig,
};
use rlc::units::{Amps, Hertz};
use rlc::{calibrate, fit_supply, ImpedanceSample, ImpedanceSweep, SupplyParams};
use workloads::spec2k;

const USAGE: &str = "\
noise-lab — inductive-noise laboratory (ISCA'04 resonance-tuning reproduction)

usage: noise_lab <command> [options]

commands:
  impedance   sweep supply impedance      [--supply table1|section2] [--lo MHZ] [--hi MHZ] [--points N]
  calibrate   derive tuning parameters    [--supply table1|section2] [--clock GHZ] [--max-variation A]
  analyze     analytic guarantee report   [--max-variation A] [--response-time CY]
  fit         round-trip impedance fit    [--supply table1|section2]
  run         one application, one technique
              --app NAME [--technique base|tuning|sensor|damping] [-n INSTRUCTIONS]

common options:
  --out PATH  impedance and calibrate also write results as CSV (or JSON
              when PATH ends in .json)
  --help      this text

The paper's tables: table2_classification, table3_tuning, table4_sensor,
table5_damping (each with --help).
";

/// Why a command line stopped short of success.
#[derive(Debug)]
enum Stop {
    /// `help`, `--help` or `-h`: usage on stdout, exit 0.
    Help,
    /// An unknown command or a bad argument: usage on stderr, exit 2.
    Usage(String),
    /// A command that ran and failed: exit 1.
    Failed(String),
}

impl From<String> for Stop {
    fn from(message: String) -> Self {
        Stop::Failed(message)
    }
}

#[derive(Debug)]
struct Args {
    command: String,
    options: HashMap<String, String>,
}

fn parse_args() -> Result<Args, Stop> {
    let mut argv = std::env::args().skip(1);
    let command = argv
        .next()
        .ok_or_else(|| Stop::Usage("missing command".into()))?;
    let mut options = HashMap::new();
    while let Some(key) = argv.next() {
        let key = key.trim_start_matches('-').to_string();
        if key == "help" || key == "h" {
            return Err(Stop::Help);
        }
        let value = argv
            .next()
            .ok_or_else(|| Stop::Usage(format!("option --{key} requires a value")))?;
        options.insert(key, value);
    }
    Ok(Args { command, options })
}

impl Args {
    fn get_f64(&self, key: &str, default: f64) -> Result<f64, Stop> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| Stop::Usage(format!("invalid --{key}: {v}"))),
        }
    }

    fn get_u64(&self, key: &str, default: u64) -> Result<u64, Stop> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| Stop::Usage(format!("invalid --{key}: {v}"))),
        }
    }

    /// `--max-variation` in amperes: a peak-to-peak amplitude, so never
    /// negative.
    fn max_variation(&self, default: f64) -> Result<Amps, Stop> {
        match self.get_f64("max-variation", default)? {
            amps if amps >= 0.0 => Ok(Amps::new(amps)),
            amps => Err(Stop::Usage(format!(
                "--max-variation must be non-negative: {amps}"
            ))),
        }
    }

    fn supply(&self) -> Result<SupplyParams, Stop> {
        match self
            .options
            .get("supply")
            .map(String::as_str)
            .unwrap_or("table1")
        {
            "table1" => Ok(SupplyParams::isca04_table1()),
            "section2" => Ok(SupplyParams::isca04_section2_example()),
            other => Err(Stop::Usage(format!(
                "unknown supply: {other} (table1|section2)"
            ))),
        }
    }

    fn out(&self) -> Option<PathBuf> {
        self.options.get("out").map(PathBuf::from)
    }
}

fn emit(report: &Report, args: &Args) -> Result<(), Stop> {
    if let Some(path) = args.out() {
        report
            .write_to(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("(wrote {} rows to {})", report.len(), path.display());
    }
    Ok(())
}

fn cmd_impedance(args: &Args) -> Result<(), Stop> {
    let supply = args.supply()?;
    let lo = args.get_f64("lo", 40.0)?;
    let hi = args.get_f64("hi", 160.0)?;
    let points = args.get_u64("points", 241)? as usize;
    if points < 2 || lo >= hi {
        return Err(Stop::Usage("need --points >= 2 and --lo < --hi".into()));
    }
    let sweep = ImpedanceSweep::linear(&supply, Hertz::from_mega(lo), Hertz::from_mega(hi), points);
    let mut report = Report::new(&["frequency_mhz", "magnitude_mohm", "phase_rad"]);
    for p in sweep.points() {
        report.push(vec![
            (p.frequency.hertz() / 1e6).into(),
            (p.magnitude.ohms() * 1e3).into(),
            p.phase_radians.into(),
        ]);
    }
    let peak = sweep.peak();
    let (b_lo, b_hi) = sweep.half_energy_band();
    println!(
        "peak {:.3} mΩ at {:.1} MHz; half-energy band {:.1}–{:.1} MHz; Q = {:.2}",
        peak.magnitude.ohms() * 1e3,
        peak.frequency.hertz() / 1e6,
        b_lo.hertz() / 1e6,
        b_hi.hertz() / 1e6,
        supply.quality_factor()
    );
    emit(&report, args)
}

fn cmd_calibrate(args: &Args) -> Result<(), Stop> {
    let supply = args.supply()?;
    let clock = Hertz::from_giga(args.get_f64("clock", 10.0)?);
    let max_variation = args.max_variation(70.0)?;
    let cal = calibrate(&supply, clock, max_variation).map_err(|e| e.to_string())?;
    println!(
        "variation threshold   {:.1} A\nband-edge tolerance   {:.1} A\nmax repetition tol    {}\nresonant period       {}\nband periods          {}–{} cycles",
        cal.variation_threshold.amps(),
        cal.band_edge_tolerance.amps(),
        cal.max_repetition_tolerance,
        cal.resonant_period,
        cal.band_periods.0.count(),
        cal.band_periods.1.count(),
    );
    let mut report = Report::new(&[
        "variation_threshold_a",
        "band_edge_tolerance_a",
        "max_repetition_tolerance",
        "resonant_period_cycles",
        "band_min_cycles",
        "band_max_cycles",
    ]);
    report.push(vec![
        cal.variation_threshold.amps().into(),
        cal.band_edge_tolerance.amps().into(),
        u64::from(cal.max_repetition_tolerance).into(),
        cal.resonant_period.count().into(),
        cal.band_periods.0.count().into(),
        cal.band_periods.1.count().into(),
    ]);
    emit(&report, args)
}

fn cmd_analyze(args: &Args) -> Result<(), Stop> {
    let supply = args.supply()?;
    let clock = Hertz::from_giga(args.get_f64("clock", 10.0)?);
    let response_time = args.get_u64("response-time", 100)? as u32;
    let max_variation = args.max_variation(40.0)?;
    let config = TuningConfig::isca04_table1(response_time);
    let r = analyze(&supply, clock, &config, max_variation).map_err(|e| e.to_string())?;
    println!(
        "resonant period        {}\npeak impedance         {:.3} mΩ\nhalf waves to violate  {}\nguaranteed variation   {:.1} A\nresponse budget        {} cycles",
        r.resonant_period,
        r.peak_impedance_ohms * 1e3,
        r.half_waves_to_violation.map_or("never".to_string(), |n| n.to_string()),
        r.guaranteed_variation.amps(),
        r.response_budget_cycles,
    );
    Ok(())
}

fn cmd_fit(args: &Args) -> Result<(), Stop> {
    let truth = args.supply()?;
    let f0 = truth.resonant_frequency().hertz() / 1e6;
    let sweep = ImpedanceSweep::linear(
        &truth,
        Hertz::from_mega(f0 * 0.3),
        Hertz::from_mega(f0 * 2.0),
        120,
    );
    let samples: Vec<ImpedanceSample> = sweep
        .points()
        .iter()
        .map(|p| ImpedanceSample {
            frequency: p.frequency,
            magnitude: p.magnitude,
        })
        .collect();
    let fit = fit_supply(&samples, truth.vdd(), truth.noise_margin()).map_err(|e| e.to_string())?;
    println!(
        "truth:  R = {:.1} µΩ  L = {:.3} pH  C = {:.0} nF  (f₀ {:.1} MHz, Q {:.2})",
        truth.resistance().ohms() * 1e6,
        truth.inductance().henries() * 1e12,
        truth.capacitance().farads() * 1e9,
        truth.resonant_frequency().hertz() / 1e6,
        truth.quality_factor()
    );
    println!(
        "fitted: R = {:.1} µΩ  L = {:.3} pH  C = {:.0} nF  (f₀ {:.1} MHz, Q {:.2}); rms err {:.2}%",
        fit.params.resistance().ohms() * 1e6,
        fit.params.inductance().henries() * 1e12,
        fit.params.capacitance().farads() * 1e9,
        fit.params.resonant_frequency().hertz() / 1e6,
        fit.params.quality_factor(),
        fit.rms_relative_error * 100.0
    );
    Ok(())
}

fn technique_from(args: &Args) -> Result<Technique, Stop> {
    match args
        .options
        .get("technique")
        .map(String::as_str)
        .unwrap_or("tuning")
    {
        "base" => Ok(Technique::Base),
        "tuning" => {
            let t = args.get_u64("response-time", 100)? as u32;
            Ok(Technique::Tuning(TuningConfig::isca04_table1(t)))
        }
        "sensor" => Ok(Technique::Sensor(SensorConfig::table4(
            args.get_f64("threshold-mv", 20.0)?,
            args.get_f64("noise-mv", 10.0)?,
            args.get_u64("delay", 5)? as u32,
        ))),
        "damping" => Ok(Technique::Damping(DampingConfig::isca04_table5(
            args.get_f64("delta", 0.5)?,
        ))),
        other => Err(Stop::Usage(format!("unknown technique: {other}"))),
    }
}

fn cmd_run(args: &Args) -> Result<(), Stop> {
    let app = args
        .options
        .get("app")
        .ok_or_else(|| Stop::Usage("run requires --app NAME".into()))?;
    let profile =
        spec2k::by_name(app).ok_or_else(|| Stop::Usage(format!("unknown application: {app}")))?;
    let sim = SimConfig::isca04(args.get_u64("n", 120_000)?);
    let technique = technique_from(args)?;

    let base = run(&profile, &Technique::Base, &sim);
    let result = run(&profile, &technique, &sim);
    println!(
        "{app} under {}: {} cycles, IPC {:.2}, {} violation cycles (base {})",
        technique.name(),
        result.cycles,
        result.ipc,
        result.violation_cycles,
        base.violation_cycles
    );
    if !matches!(technique, Technique::Base) {
        let o = RelativeOutcome::new(&base, &result);
        println!(
            "slowdown {:.3}, relative energy {:.3}, relative energy-delay {:.3}",
            o.slowdown, o.relative_energy, o.relative_energy_delay
        );
    }
    Ok(())
}

fn dispatch() -> Result<(), Stop> {
    let args = parse_args()?;
    match args.command.as_str() {
        "impedance" => cmd_impedance(&args),
        "calibrate" => cmd_calibrate(&args),
        "analyze" => cmd_analyze(&args),
        "fit" => cmd_fit(&args),
        "run" => cmd_run(&args),
        "help" | "--help" | "-h" => Err(Stop::Help),
        other => Err(Stop::Usage(format!("unknown command: {other}"))),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(()) => ExitCode::SUCCESS,
        Err(Stop::Help) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(Stop::Usage(msg)) => {
            eprintln!("error: {msg}\n{USAGE}");
            ExitCode::from(bench::EXIT_USAGE as u8)
        }
        Err(Stop::Failed(msg)) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
