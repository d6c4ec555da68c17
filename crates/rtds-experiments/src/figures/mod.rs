//! Per-figure experiment runners.
//!
//! One public function per table/figure in the paper's evaluation section.
//! Each returns a [`FigureOutput`] carrying the rendered console text and
//! the tables that back it, and can persist CSVs for external plotting.
//! [`REGISTRY`] names them for the `run_all` binary.

pub mod ablations;
pub mod eval;
pub mod extensions;
pub mod patterns;
pub mod profile;
pub mod tables;

use std::path::{Path, PathBuf};

use crate::cli::{or_exit, RunOptions};
use crate::scenario::{PatternSpec, PolicySpec, ScenarioConfig};

/// One name `run_all` accepts and the figures it emits.
#[derive(Debug)]
pub struct Entry {
    /// The name on the command line.
    pub name: &'static str,
    /// Whether `run_all` with no name runs this entry.
    pub default: bool,
    /// Produces the entry's figures.
    pub run: fn(&RunOptions) -> Vec<FigureOutput>,
}

/// Every `run_all` entry, in the order the default selection runs them.
pub const REGISTRY: &[Entry] = &[
    Entry {
        name: "tables",
        default: true,
        run: |r| {
            let o = &r.options;
            vec![tables::table1(o), tables::table2(o), tables::table3(o)]
        },
    },
    Entry { name: "fig2", default: true, run: |r| vec![profile::fig2(&r.options)] },
    Entry { name: "fig3", default: true, run: |r| vec![profile::fig3(&r.options)] },
    Entry { name: "fig4", default: true, run: |r| vec![profile::fig4(&r.options)] },
    Entry { name: "fig8", default: true, run: |r| vec![patterns::fig8(&r.options)] },
    Entry { name: "fig9", default: true, run: |r| vec![eval::fig9(&r.options)] },
    Entry { name: "fig10", default: true, run: |r| vec![eval::fig10(&r.options)] },
    Entry { name: "fig11", default: true, run: |r| vec![eval::fig11(&r.options)] },
    Entry { name: "fig12", default: true, run: |r| vec![eval::fig12(&r.options)] },
    Entry {
        name: "fig13",
        default: true,
        run: |r| vec![eval::fig13a(&r.options, r.extended), eval::fig13b(&r.options, r.extended)],
    },
    Entry { name: "ablations", default: false, run: |r| vec![ablations::ablations(&r.options)] },
    Entry {
        name: "extensions",
        default: false,
        run: |r| {
            let o = &r.options;
            vec![
                extensions::ext_survivability(o),
                extensions::ext_multitask(o),
                extensions::ext_online_refinement(o),
                extensions::ext_schedulers(o),
                extensions::ext_patterns(o),
                extensions::ext_control_latency(o),
                extensions::ext_seed_sensitivity(o),
                extensions::ext_asynchrony(o),
                extensions::ext_stage_breakdown(o),
                extensions::ext_metric_weights(o),
                extensions::ext_forecast_value(o),
                extensions::ext_decentralized(o),
            ]
        },
    },
    Entry { name: "profile", default: false, run: profile_campaign },
];

/// Runs the full profiling campaign (the paper's §4.2.1 measurement
/// step), fits every Eq. (3)/(5) model, and persists the raw samples plus
/// fitted coefficients to `<out>/profile.json`; the figure text lists the
/// fitted models.
fn profile_campaign(r: &RunOptions) -> Vec<FigureOutput> {
    eprintln!("running the profiling campaign…");
    let data = crate::models::run_campaign();
    let mut lines: Vec<String> = data
        .exec_models
        .iter()
        .map(|(stage, model)| {
            format!(
                "stage {stage}: a = {:?}, b = {:?}, R2 = {:.4} over {} samples",
                model.a, model.b, model.stats.r2, model.stats.n
            )
        })
        .collect();
    if let Some(b) = data.buffer_model {
        lines.push(format!(
            "buffer slope k = {:.4} ms/100 tracks (R2 = {:.4})",
            b.k * 100.0,
            b.stats.r2
        ));
    }
    let dir = &r.options.out_dir;
    let path = dir.join("profile.json");
    or_exit("write profile", std::fs::create_dir_all(dir).and_then(|()| data.save(&path)));
    eprintln!("wrote {}", path.display());
    vec![FigureOutput {
        id: "profile",
        title: "Profiling campaign: fitted Eq. (3)/(5) models",
        text: lines.join("\n"),
        tables: Vec::new(),
    }]
}

/// Options shared by every figure runner.
#[derive(Debug, Clone)]
pub struct FigureOptions {
    /// Reduced grids and shorter runs (CI-friendly).
    pub quick: bool,
    /// Where CSV artifacts go.
    pub out_dir: PathBuf,
    /// Worker threads for sweeps.
    pub threads: usize,
    /// Use the profile-fitted predictor (slow first call) instead of the
    /// analytic one.
    pub fitted_models: bool,
}

impl Default for FigureOptions {
    fn default() -> Self {
        FigureOptions {
            quick: false,
            out_dir: PathBuf::from("results"),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            fitted_models: true,
        }
    }
}

impl FigureOptions {
    /// Quick options writing into a temp directory (tests).
    pub fn quick_for_tests(tag: &str) -> Self {
        FigureOptions {
            quick: true,
            out_dir: std::env::temp_dir().join("rtds-experiments").join(tag),
            threads: 2,
            fitted_models: false,
        }
    }

    /// The predictor implied by `fitted_models`.
    pub fn predictor(&self) -> rtds_arm::predictor::Predictor {
        if self.fitted_models {
            crate::models::fitted_predictor().clone()
        } else {
            crate::models::quick_predictor()
        }
    }
}

/// The triangular scenario the ablations and extensions vary: 40 periods
/// quick, 160 full, seed 0xE87.
pub(crate) fn base_scenario(opts: &FigureOptions, policy: PolicySpec, max: u64) -> ScenarioConfig {
    let n = if opts.quick { 40 } else { 160 };
    let pattern = PatternSpec::Triangular { half_period: n / 8 };
    ScenarioConfig { n_periods: n, seed: 0xE87, ..ScenarioConfig::paper(pattern, policy, max) }
}

/// A rendered figure: console text plus the named tables that produced it.
pub struct FigureOutput {
    /// Figure id, e.g. `"fig9"`.
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Rendered console text (tables + charts + notes).
    pub text: String,
    /// Named tables for CSV export.
    pub tables: Vec<(String, crate::report::Table)>,
}

impl FigureOutput {
    /// Writes every table as `<id>_<name>.csv` and `.json` under `dir`.
    pub fn save_csvs(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        let mut out = Vec::with_capacity(self.tables.len() * 2);
        for (name, t) in &self.tables {
            let stem = format!("{}_{}", self.id, name);
            out.push(t.write_csv(dir, &stem)?);
            out.push(t.write_json(dir, &stem)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Table;

    #[test]
    fn figure_output_saves_all_tables() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1"]);
        let fig = FigureOutput {
            id: "figX",
            title: "test",
            text: String::new(),
            tables: vec![("one".into(), t)],
        };
        let dir = std::env::temp_dir().join("rtds-figout-test");
        let paths = fig.save_csvs(&dir).unwrap();
        assert_eq!(paths.len(), 2);
        assert!(paths[0].ends_with("figX_one.csv"));
        assert!(paths[1].ends_with("figX_one.json"));
        for p in &paths {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn default_options_use_results_dir() {
        let o = FigureOptions::default();
        assert_eq!(o.out_dir, PathBuf::from("results"));
        assert!(!o.quick);
    }

    #[test]
    fn quick_test_options_use_analytic_models() {
        let o = FigureOptions::quick_for_tests("t");
        assert!(!o.fitted_models);
        let p = o.predictor();
        assert_eq!(p.n_stages(), 5);
    }
}
