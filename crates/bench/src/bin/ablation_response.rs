//! Ablation: the value of repetition counting and of the two-level
//! response (the design choices of Sections 3.1.2 and 3.2).
//!
//! Variants compared on the violating applications:
//!
//! * **paper**: first level at count ≥ 2, second at ≥ 3 (the default);
//! * **react-on-first**: first level at every detected event (count ≥ 1) —
//!   the magnitude-based philosophy of \[10\] applied to this detector;
//! * **second-level-only**: the first-level response is made a no-op
//!   (issue width and ports unchanged), so only the stall-with-phantoms
//!   backstop protects the margin.

use bench::{format_table, HarnessArgs};
use restune::{try_run_suite, RelativeOutcome, SimConfig, Summary, Technique, TuningConfig};
use workloads::spec2k;

fn main() {
    let args = HarnessArgs::parse();
    let sim = SimConfig::isca04(args.instructions);
    println!("=== Ablation 2: repetition counting and the two-level response ===");
    println!(
        "({} instructions per application, violating apps)\n",
        args.instructions
    );

    let paper = TuningConfig::isca04_table1(100);
    let react_on_first = TuningConfig {
        initial_response_threshold: 1,
        ..paper
    };
    let second_only = TuningConfig {
        first_level_issue_width: 8, // first level becomes a no-op
        first_level_mem_ports: 2,
        ..paper
    };

    let apps = spec2k::violating();
    let run_suite = |technique: &Technique| match try_run_suite(&apps, technique, &sim) {
        Ok(suite) => suite.results,
        Err(e) => panic!("{e}"),
    };
    let base = run_suite(&Technique::Base);
    let base_violations: u64 = base.iter().map(|r| r.violation_cycles).sum();

    let mut rows = Vec::new();
    for (label, config) in [
        ("paper (count ≥ 2, two-level)", paper),
        ("react on first event", react_on_first),
        ("second-level only", second_only),
    ] {
        let results = run_suite(&Technique::Tuning(config));
        let outcomes: Vec<_> = base
            .iter()
            .zip(&results)
            .map(|(b, t)| RelativeOutcome::new(b, t))
            .collect();
        let s = Summary::from_outcomes(&outcomes);
        rows.push(vec![
            label.to_string(),
            format!("{:.3}", s.avg_first_level_fraction),
            format!("{:.4}", s.avg_second_level_fraction),
            format!("{:.3}", s.avg_slowdown),
            format!("{:.3}", s.avg_energy_delay),
            format!("{}", s.total_violation_cycles),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "variant",
                "frac L1",
                "frac L2",
                "avg slowdown",
                "avg E·D",
                "resid viol"
            ],
            &rows
        )
    );
    println!("(base machine violation cycles across these apps: {base_violations})\n");
    println!(
        "Reacting to isolated events multiplies first-level time (and cost) for\n\
         no additional protection; removing the gentle first level shifts the\n\
         entire burden onto expensive full stalls and lets more energy build\n\
         before each one — the two observations the paper's design rests on."
    );
}
