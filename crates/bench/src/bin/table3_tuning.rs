//! Table 3: resonance tuning swept over initial response times of 75–200
//! cycles — fractions of cycles in first/second-level response, worst and
//! average slowdowns, apps over 15 % slowdown, and relative energy-delay.

use std::process::ExitCode;

use bench::{
    format_table, outcomes_report, print_failure_reports, print_json, push_outcomes,
    run_metrics_report, HarnessArgs, Report,
};
use restune::experiment::{paired_outcomes, run_suite_policed, table3, Table3Row};
use restune::{base_suite, SimConfig, Summary};

fn summary_report(rows: &[Table3Row]) -> (Report, Report) {
    let mut table = Report::new(&[
        "initial_response_time",
        "avg_first_level_fraction",
        "avg_second_level_fraction",
        "worst_slowdown",
        "worst_app",
        "apps_over_15_percent",
        "avg_slowdown",
        "avg_energy_delay",
        "residual_violation_cycles",
    ]);
    let mut outcomes = outcomes_report();
    for r in rows {
        let s = &r.summary;
        table.push(vec![
            u64::from(r.initial_response_time).into(),
            s.avg_first_level_fraction.into(),
            s.avg_second_level_fraction.into(),
            s.worst_slowdown.into(),
            s.worst_app.into(),
            (s.apps_over_15_percent as u64).into(),
            s.avg_slowdown.into(),
            s.avg_energy_delay.into(),
            s.total_violation_cycles.into(),
        ]);
        push_outcomes(
            &mut outcomes,
            &format!("tuning-{}", r.initial_response_time),
            &r.outcomes,
        );
    }
    (table, outcomes)
}

fn main() -> ExitCode {
    let _shutdown = bench::harness_init();
    let args = HarnessArgs::parse();
    let _trace = bench::init_trace(&args);
    let _connect = bench::init_connect(&args);
    let policy = args.policy();
    let sim = SimConfig::isca04(args.instructions);
    let response_times = [75, 100, 125, 150, 200];
    let delayed_technique = restune::Technique::Tuning(
        restune::TuningConfig::isca04_table1(100).with_response_delay(5),
    );

    let base = base_suite(&sim, &policy);
    let (rows, mut reports) = table3(&sim, &response_times, &base, &policy);
    // The delay-sensitivity experiment of Section 5.2 rides along: 5-cycle
    // response delay at a 100-cycle initial response time.
    let delayed = run_suite_policed(
        &workloads::spec2k::all(),
        &delayed_technique,
        &sim,
        &policy,
        "tuning-100-delay-5",
    );
    let delayed_outcomes = paired_outcomes(&base, &delayed);
    reports.insert(0, base.report.clone());
    reports.push(delayed.report);
    let delayed_summary =
        (!delayed_outcomes.is_empty()).then(|| Summary::from_outcomes(&delayed_outcomes));

    if args.json {
        let (table, mut outcomes) = summary_report(&rows);
        push_outcomes(&mut outcomes, "tuning-100-delay-5", &delayed_outcomes);
        let metrics = run_metrics_report(base.metrics.iter().flatten());
        let sections = vec![
            ("table3", table),
            ("outcomes", outcomes),
            ("run_metrics", metrics),
        ];
        print_json(sections, &policy, &reports);
        return bench::exit_code(&policy, &reports);
    }

    println!("=== Table 3: resonance tuning ===");
    println!("({} instructions per application)\n", args.instructions);

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let s = &r.summary;
            vec![
                format!("{} cycles", r.initial_response_time),
                format!("{:.3}", s.avg_first_level_fraction),
                format!("{:.4}", s.avg_second_level_fraction),
                format!("{:.3} ({})", s.worst_slowdown, s.worst_app),
                format!("{}", s.apps_over_15_percent),
                format!("{:.3}", s.avg_slowdown),
                format!("{:.3}", s.avg_energy_delay),
                format!("{}", s.total_violation_cycles),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "initial response",
                "frac L1 resp",
                "frac L2 resp",
                "worst slowdown",
                ">15%",
                "avg slowdown",
                "avg E·D",
                "resid viol"
            ],
            &table
        )
    );
    println!(
        "paper: L1 frac 0.10→0.20, L2 frac 0.0040→0.0027, avg slowdown 1.043→1.075,\n\
         avg energy-delay 1.052→1.088, worst 1.19–1.35 (wupwise/galgel), zero violations"
    );

    if let Some(delayed_summary) = &delayed_summary {
        println!("\n--- sensing-to-response delay sensitivity (initial response 100) ---");
        println!(
            "delay 5 cycles: avg slowdown {:.3}, avg energy-delay {:.3}, residual violations {}",
            delayed_summary.avg_slowdown,
            delayed_summary.avg_energy_delay,
            delayed_summary.total_violation_cycles
        );
        println!("(paper: 5.8 % slowdown and 6.6 % energy-delay — ~1–2 % above the no-delay case)");
    }
    print_failure_reports(&reports);
    bench::exit_code(&policy, &reports)
}
