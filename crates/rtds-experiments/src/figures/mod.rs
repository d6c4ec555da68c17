//! Per-figure experiment runners.
//!
//! One public function per table/figure in the paper's evaluation section.
//! Each returns a [`FigureOutput`] carrying the rendered console text and
//! the tables that back it, and can persist CSVs for external plotting.
//! The binaries in `src/bin/` are thin wrappers over these functions.

pub mod ablations;
pub mod eval;
pub mod extensions;
pub mod patterns;
pub mod profile;
pub mod tables;

use std::path::{Path, PathBuf};

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
