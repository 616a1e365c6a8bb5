//! Table 5: pipeline damping \[14\] with δ at 1, 0.5, and 0.25 of the
//! resonant current variation threshold (tightening δ is damping's only way
//! to cover the whole resonance band).

use std::process::ExitCode;

use bench::{
    format_table, outcomes_report, print_failure_reports, print_json, push_outcomes,
    run_metrics_report, HarnessArgs, Report,
};
use restune::experiment::table5;
use restune::{base_suite, SimConfig};

fn main() -> ExitCode {
    let _shutdown = bench::harness_init();
    let args = HarnessArgs::parse();
    let _trace = bench::init_trace(&args);
    let _connect = bench::init_connect(&args);
    let policy = args.policy();
    let sim = SimConfig::isca04(args.instructions);

    let deltas = [1.0, 0.5, 0.25];
    let base = base_suite(&sim, &policy);
    let (rows, mut reports) = table5(&sim, &deltas, &base, &policy);
    reports.insert(0, base.report.clone());

    if args.json {
        let mut table = Report::new(&[
            "delta_relative",
            "worst_slowdown",
            "worst_app",
            "avg_slowdown",
            "avg_energy_delay",
            "residual_violation_cycles",
        ]);
        let mut outcomes = outcomes_report();
        for r in &rows {
            let s = &r.summary;
            table.push(vec![
                r.delta_relative.into(),
                s.worst_slowdown.into(),
                s.worst_app.into(),
                s.avg_slowdown.into(),
                s.avg_energy_delay.into(),
                s.total_violation_cycles.into(),
            ]);
            push_outcomes(
                &mut outcomes,
                &format!("damping-{}", r.delta_relative),
                &r.outcomes,
            );
        }
        let metrics = run_metrics_report(base.metrics.iter().flatten());
        let sections = vec![
            ("table5", table),
            ("outcomes", outcomes),
            ("run_metrics", metrics),
        ];
        print_json(sections, &policy, &reports);
        return bench::exit_code(&policy, &reports);
    }

    println!("=== Table 5: pipeline damping [14] ===");
    println!("({} instructions per application)\n", args.instructions);

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let s = &r.summary;
            vec![
                format!("{}", r.delta_relative),
                format!("{:.3} ({})", s.worst_slowdown, s.worst_app),
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
                "δ / variation threshold",
                "worst slowdown",
                "avg slowdown",
                "avg E·D",
                "resid viol"
            ],
            &table
        )
    );
    println!(
        "paper: avg slowdown 1.10 / 1.15 / 1.24, avg energy-delay 1.12 / 1.17 / 1.26\n\
         (worst: fma3d — high-ILP apps pay most under per-cycle current caps)"
    );
    print_failure_reports(&reports);
    bench::exit_code(&policy, &reports)
}
