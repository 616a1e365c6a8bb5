//! Table 4: the voltage-threshold technique of \[10\] swept over detection
//! threshold, sensor noise, and sensing-to-response delay.

use std::process::ExitCode;

use bench::{
    format_table, outcomes_report, print_failure_reports, print_json, push_outcomes,
    run_metrics_report, HarnessArgs, Report,
};
use restune::experiment::table4;
use restune::{base_suite, SensorConfig, SimConfig};

fn main() -> ExitCode {
    let _shutdown = bench::harness_init();
    let args = HarnessArgs::parse();
    let _trace = bench::init_trace(&args);
    let _connect = bench::init_connect(&args);
    let policy = args.policy();
    let sim = SimConfig::isca04(args.instructions);

    // The paper's five rows: (target threshold mV, noise mV p-p, delay).
    let configs = [
        SensorConfig::table4(30.0, 0.0, 0),
        SensorConfig::table4(20.0, 0.0, 0),
        SensorConfig::table4(30.0, 15.0, 0),
        SensorConfig::table4(20.0, 10.0, 5),
        SensorConfig::table4(20.0, 15.0, 3),
    ];
    let base = base_suite(&sim, &policy);
    let (rows, mut reports) = table4(&sim, &configs, &base, &policy);
    reports.insert(0, base.report.clone());

    if args.json {
        let mut table = Report::new(&[
            "target_threshold_mv",
            "sensor_noise_mv",
            "actual_threshold_mv",
            "delay_cycles",
            "avg_sensor_response_fraction",
            "worst_slowdown",
            "worst_app",
            "avg_slowdown",
            "avg_energy_delay",
        ]);
        let mut outcomes = outcomes_report();
        for r in &rows {
            let s = &r.summary;
            let label = format!(
                "sensor-{:.0}mV-{:.0}mV-{}cy",
                r.config.target_threshold.volts() * 1e3,
                r.config.sensor_noise_pp.volts() * 1e3,
                r.config.delay_cycles
            );
            table.push(vec![
                (r.config.target_threshold.volts() * 1e3).into(),
                (r.config.sensor_noise_pp.volts() * 1e3).into(),
                (r.config.actual_threshold().volts() * 1e3).into(),
                u64::from(r.config.delay_cycles).into(),
                s.avg_sensor_response_fraction.into(),
                s.worst_slowdown.into(),
                s.worst_app.into(),
                s.avg_slowdown.into(),
                s.avg_energy_delay.into(),
            ]);
            push_outcomes(&mut outcomes, &label, &r.outcomes);
        }
        let metrics = run_metrics_report(base.metrics.iter().flatten());
        let sections = vec![
            ("table4", table),
            ("outcomes", outcomes),
            ("run_metrics", metrics),
        ];
        print_json(sections, &policy, &reports);
        return bench::exit_code(&policy, &reports);
    }

    println!("=== Table 4: technique of [10] (voltage-threshold sensing) ===");
    println!("({} instructions per application)\n", args.instructions);

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let s = &r.summary;
            vec![
                format!("{:.0}", r.config.target_threshold.volts() * 1e3),
                format!("{:.0}", r.config.sensor_noise_pp.volts() * 1e3),
                format!("{:.0}", r.config.actual_threshold().volts() * 1e3),
                format!("{}", r.config.delay_cycles),
                format!("{:.3}", s.avg_sensor_response_fraction),
                format!("{:.3} ({})", s.worst_slowdown, s.worst_app),
                format!("{:.3}", s.avg_slowdown),
                format!("{:.3}", s.avg_energy_delay),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "target (mV)",
                "noise (mV)",
                "actual (mV)",
                "delay",
                "frac in resp",
                "worst slowdown",
                "avg slowdown",
                "avg E·D"
            ],
            &table
        )
    );
    println!(
        "paper: frac 0.002→0.27, avg slowdown 1.005→1.236, avg energy-delay 1.030→1.460\n\
         (ideal sensors are cheap; realistic noise + delay make [10] expensive)"
    );
    print_failure_reports(&reports);
    bench::exit_code(&policy, &reports)
}
