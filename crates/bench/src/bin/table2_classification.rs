//! Table 2: classification of the 26 SPEC2K applications by noise-margin
//! violations on the base machine, with IPCs and violation-cycle fractions.

use std::process::ExitCode;

use bench::{
    format_table, print_failure_reports, print_json, run_metrics_report, HarnessArgs, Report,
};
use restune::experiment::table2;
use restune::{base_suite, SimConfig};

fn main() -> ExitCode {
    let _shutdown = bench::harness_init();
    let args = HarnessArgs::parse();
    let _trace = bench::init_trace(&args);
    let _connect = bench::init_connect(&args);
    let policy = args.policy();
    let sim = SimConfig::isca04(args.instructions);
    let base = base_suite(&sim, &policy);
    let rows = table2(&base);
    let reports = std::slice::from_ref(&base.report);

    if args.json {
        let mut table = Report::new(&[
            "app",
            "ipc",
            "violation_fraction",
            "violating",
            "paper_violating",
            "matches_paper",
        ]);
        for r in &rows {
            let violating = r.violation_fraction > 0.0;
            table.push(vec![
                r.app.into(),
                r.ipc.into(),
                r.violation_fraction.into(),
                violating.into(),
                r.paper_violating.into(),
                (violating == r.paper_violating).into(),
            ]);
        }
        let metrics = run_metrics_report(base.metrics.iter().flatten());
        let sections = vec![("table2", table), ("run_metrics", metrics)];
        print_json(sections, &policy, reports);
        return bench::exit_code(&policy, reports);
    }

    println!("=== Table 2: classification of SPEC2K applications ===");
    println!("({} instructions per application)\n", args.instructions);

    let mut violating = Vec::new();
    let mut clean = Vec::new();
    for r in &rows {
        let row = vec![
            r.app.to_string(),
            format!("{:.2}", r.ipc),
            format!("{:.3}", r.violation_fraction * 1e3),
            if r.paper_violating {
                "violating".into()
            } else {
                "clean".into()
            },
            if (r.violation_fraction > 0.0) == r.paper_violating {
                "✓".into()
            } else {
                "✗".into()
            },
        ];
        if r.violation_fraction > 0.0 {
            violating.push(row);
        } else {
            clean.push(row);
        }
    }

    println!(
        "Applications with noise-margin violations ({}):",
        violating.len()
    );
    println!(
        "{}",
        format_table(
            &["app", "IPC", "viol frac ×10⁻³", "paper class", "match"],
            &violating
        )
    );
    println!(
        "Applications without noise-margin violations ({}):",
        clean.len()
    );
    println!(
        "{}",
        format_table(
            &["app", "IPC", "viol frac ×10⁻³", "paper class", "match"],
            &clean
        )
    );

    let matches = rows
        .iter()
        .filter(|r| (r.violation_fraction > 0.0) == r.paper_violating)
        .count();
    println!(
        "classification agreement with the paper: {matches}/{}",
        rows.len()
    );
    println!("(paper: 12 violating / 14 clean; violation fractions 3.2e-8 … 5.6e-3)");
    print_failure_reports(reports);
    bench::exit_code(&policy, reports)
}
