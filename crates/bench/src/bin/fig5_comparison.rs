//! Figure 5: energy-delay comparison of the three techniques at two design
//! points each — resonance tuning (initial response 75 and 100 cycles), the
//! voltage-sensor technique of \[10\] (20/10/5 and 20/15/3), and pipeline
//! damping \[14\] (δ = 0.5 and 0.25).

use std::process::ExitCode;

use bench::{
    format_table, outcomes_report, print_failure_reports, print_json, push_outcomes,
    run_metrics_report, HarnessArgs, Report,
};
use restune::experiment::{paired_outcomes, run_suite_policed};
use restune::{
    base_suite, DampingConfig, SensorConfig, SimConfig, Summary, Technique, TuningConfig,
};
use workloads::spec2k;

fn main() -> ExitCode {
    let _shutdown = bench::harness_init();
    let args = HarnessArgs::parse();
    let _trace = bench::init_trace(&args);
    let _connect = bench::init_connect(&args);
    let policy = args.policy();
    let sim = SimConfig::isca04(args.instructions);

    let profiles = spec2k::all();
    let base = base_suite(&sim, &policy);

    let points: Vec<(&str, Technique)> = vec![
        (
            "A: tuning, 75-cycle response",
            Technique::Tuning(TuningConfig::isca04_table1(75)),
        ),
        (
            "B: tuning, 100-cycle response",
            Technique::Tuning(TuningConfig::isca04_table1(100)),
        ),
        (
            "C: [10], 20mV/10mV/5cy",
            Technique::Sensor(SensorConfig::table4(20.0, 10.0, 5)),
        ),
        (
            "D: [10], 20mV/15mV/3cy",
            Technique::Sensor(SensorConfig::table4(20.0, 15.0, 3)),
        ),
        (
            "E: damping, δ = 0.5",
            Technique::Damping(DampingConfig::isca04_table5(0.5)),
        ),
        (
            "F: damping, δ = 0.25",
            Technique::Damping(DampingConfig::isca04_table5(0.25)),
        ),
    ];

    let mut rows = Vec::new();
    let mut bars = Vec::new();
    let mut fig5 = Report::new(&["design_point", "avg_energy_delay", "avg_slowdown"]);
    let mut outcome_rows = outcomes_report();
    let mut reports = vec![base.report.clone()];
    for (label, technique) in &points {
        let suite = run_suite_policed(&profiles, technique, &sim, &policy, label);
        let outcomes = paired_outcomes(&base, &suite);
        reports.push(suite.report);
        if outcomes.is_empty() {
            continue; // every pair failed at this design point
        }
        let s = Summary::from_outcomes(&outcomes);
        rows.push(vec![
            label.to_string(),
            format!("{:.3}", s.avg_energy_delay),
            format!("{:.3}", s.avg_slowdown),
        ]);
        bars.push((label.to_string(), s.avg_energy_delay));
        fig5.push(vec![
            (*label).into(),
            s.avg_energy_delay.into(),
            s.avg_slowdown.into(),
        ]);
        push_outcomes(&mut outcome_rows, label, &outcomes);
    }

    if args.json {
        let metrics = run_metrics_report(base.metrics.iter().flatten());
        let sections = vec![
            ("fig5", fig5),
            ("outcomes", outcome_rows),
            ("run_metrics", metrics),
        ];
        print_json(sections, &policy, &reports);
        return bench::exit_code(&policy, &reports);
    }

    println!("=== Figure 5: energy-delay comparison of techniques ===");
    println!("({} instructions per application)\n", args.instructions);

    println!(
        "{}",
        format_table(&["design point", "avg relative E·D", "avg slowdown"], &rows)
    );

    println!("relative energy-delay (bar chart):");
    let max = bars.iter().map(|(_, v)| *v).fold(1.0, f64::max);
    for (label, v) in &bars {
        let width = (((v - 1.0) / (max - 1.0).max(1e-9)) * 60.0).round() as usize;
        println!("{label:32} |{} {v:.3}", "#".repeat(width.max(1)));
    }
    println!(
        "\npaper: tuning 1.052/1.057 < damping 1.17/1.26 < [10] 1.19/1.46\n\
         (resonance tuning outperforms both prior schemes at realistic design points)"
    );
    print_failure_reports(&reports);
    bench::exit_code(&policy, &reports)
}
