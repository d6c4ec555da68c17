//! Ablations of the design choices DESIGN.md §6 calls out.
//!
//! Each ablation re-runs the triangular evaluation scenario with one knob
//! changed and reports the quality metrics, so the contribution of each
//! choice is visible:
//!
//! * EQF variant — classic (budgets partition the deadline) vs the
//!   paper-literal Eqs. (1)–(2);
//! * required slack `sl` — the paper's 0.2 vs tighter/looser;
//! * shutdown hysteresis (patience) — act-immediately vs patient;
//! * Fig. 5 host choice — least-utilized (paper) vs utilization-blind.

use rtds_arm::config::ArmConfig;
use rtds_arm::eqf::EqfVariant;
use rtds_arm::manager::ResourceManager;
use rtds_arm::predictive::ProcessorChoice;

use super::{base_scenario, FigureOptions, FigureOutput};
use crate::report::{fmt_f, Table};
use crate::scenario::{run_controller, PolicySpec, ScenarioConfig, ScenarioResult};

/// Runs every ablation variant and renders the comparison table.
pub fn ablations(opts: &FigureOptions) -> FigureOutput {
    let mut variants: Vec<(String, ArmConfig)> = Vec::new();
    let base = ArmConfig::paper_predictive();
    variants.push(("baseline (paper predictive)".into(), base));

    let mut v = base;
    v.eqf = EqfVariant::PaperLiteral;
    variants.push(("eqf = paper-literal Eqs.(1)-(2)".into(), v));

    let mut v = base;
    v.eqf = EqfVariant::EqualSlack;
    variants.push(("eqf = equal-slack (KG97 EQS)".into(), v));

    for slack in [0.1f64, 0.4] {
        let mut v = base;
        v.monitor.slack_fraction = slack;
        v.monitor.shutdown_slack_fraction = (slack + 0.4).min(0.9);
        variants.push((format!("slack fraction = {slack}"), v));
    }

    for patience in [1u32, 4] {
        let mut v = base;
        v.monitor.shutdown_patience = patience;
        variants.push((format!("shutdown patience = {patience}"), v));
    }

    for (name, choice) in [
        ("first-available", ProcessorChoice::FirstAvailable),
        ("pseudorandom", ProcessorChoice::Pseudorandom),
    ] {
        let mut v = base;
        v.processor_choice = choice;
        variants.push((format!("host choice = {name}"), v));
    }

    let mut table = Table::new(vec![
        "variant",
        "missed_pct",
        "avg_cpu_pct",
        "avg_net_pct",
        "avg_replicas",
        "placements",
        "combined",
    ]);
    let predictor = opts.predictor();
    let scenario =
        ScenarioConfig { seed: 0xAB1A7E, ..base_scenario(opts, PolicySpec::Predictive, 13_000) };
    for (name, cfg) in variants {
        let manager = Box::new(ResourceManager::new(cfg, predictor.clone()));
        let ScenarioResult { summary: s, breakdown: b, .. } =
            run_controller(&scenario, scenario.cluster_config(), manager);
        table.row(vec![
            name,
            fmt_f(s.missed_deadline_pct),
            fmt_f(s.avg_cpu_util_pct),
            fmt_f(s.avg_net_util_pct),
            fmt_f(s.avg_replicas),
            s.placement_changes.to_string(),
            fmt_f(b.combined),
        ]);
    }
    let text = format!(
        "Ablations of the DESIGN.md design choices (triangular pattern, max 13k tracks)\n\n{}\n",
        table.render()
    );
    FigureOutput {
        id: "ablations",
        title: "Design-choice ablations",
        text,
        tables: vec![("ablations".into(), table)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_cover_every_design_choice() {
        let f = ablations(&FigureOptions::quick_for_tests("abl"));
        assert_eq!(f.tables[0].1.len(), 9, "baseline + 8 variants");
        assert!(f.text.contains("paper-literal"));
        assert!(f.text.contains("slack fraction"));
        assert!(f.text.contains("host choice"));
    }
}
