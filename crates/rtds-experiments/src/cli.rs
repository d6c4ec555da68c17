//! Minimal argument parsing and run plumbing shared by the figure binaries.
//!
//! Flags: `--quick` (small grids), `--out <dir>` (CSV directory),
//! `--threads <n>`, `--analytic` (skip profile fitting), `--extended`
//! (fig13's longer workload axis). Kept hand-rolled: the dependency
//! policy (DESIGN.md §5) admits no CLI crate and the needs are trivial.
//!
//! Every binary follows the same life cycle, provided here so none of
//! them hand-roll it:
//!
//! 1. [`RunOptions::from_env`] — parse the command line (exit 2 + usage
//!    on a bad flag);
//! 2. [`RunOptions::init_perfmon`] — honor `--perf` and zero the
//!    process-global perf aggregate;
//! 3. [`RunOptions::emit_figures`] — print each figure and write its
//!    CSVs (exit 1 on I/O error);
//! 4. [`RunOptions::finish`] — print the perf summary and write the
//!    `--trace-out` / `--decisions-out` exports.
//!
//! Single-figure binaries collapse all four into [`run_figure_main`].

use std::path::PathBuf;

use crate::figures::{FigureOptions, FigureOutput};

/// Parsed command line plus the shared run plumbing built on it.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Figure options derived from flags.
    pub options: FigureOptions,
    /// `--extended` was passed.
    pub extended: bool,
    /// `--perf` was passed: instrument every simulation and print an
    /// aggregated performance report at exit.
    pub perf: bool,
    /// `--trace-out FILE`: write a Chrome trace-event JSON export of an
    /// observed probe run (see [`crate::export::write_observed_probe`]).
    pub trace_out: Option<PathBuf>,
    /// `--decisions-out FILE`: write the probe run's decision-audit
    /// stream as JSON Lines.
    pub decisions_out: Option<PathBuf>,
}

/// Parses `args` (excluding argv\[0\]).
///
/// # Errors
/// Returns a usage string on unknown or malformed flags.
pub fn parse(args: &[String]) -> Result<RunOptions, String> {
    let mut options = FigureOptions::default();
    let mut extended = false;
    let mut perf = false;
    let mut trace_out = None;
    let mut decisions_out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => options.quick = true,
            "--analytic" => options.fitted_models = false,
            "--extended" => extended = true,
            "--perf" => perf = true,
            "--out" => {
                let dir = it.next().ok_or("--out needs a directory")?;
                options.out_dir = PathBuf::from(dir);
            }
            "--trace-out" => {
                let f = it.next().ok_or("--trace-out needs a file path")?;
                trace_out = Some(PathBuf::from(f));
            }
            "--decisions-out" => {
                let f = it.next().ok_or("--decisions-out needs a file path")?;
                decisions_out = Some(PathBuf::from(f));
            }
            "--threads" => {
                let n = it
                    .next()
                    .ok_or("--threads needs a count")?
                    .parse::<usize>()
                    .map_err(|e| format!("--threads: {e}"))?;
                if n == 0 {
                    return Err("--threads must be >= 1".into());
                }
                options.threads = n;
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    Ok(RunOptions { options, extended, perf, trace_out, decisions_out })
}

impl RunOptions {
    /// Parses the process command line, printing the usage string and
    /// exiting with status 2 on a bad flag (the conventional
    /// usage-error exit code).
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match parse(&args) {
            Ok(c) => c,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// Honors `--perf` and zeroes the perf aggregate. `alloc_probe`
    /// feeds the report a process-wide allocation count; only `run_all`
    /// has one (a counting global allocator needs `unsafe impl`, which
    /// the library crates forbid).
    ///
    /// The aggregate is process-global, so it is reset unconditionally:
    /// this batch starts from zero rather than folding into whatever a
    /// previous batch left behind.
    pub fn init_perfmon(&self, alloc_probe: Option<fn() -> u64>) {
        if self.perf {
            crate::perfmon::enable(alloc_probe);
        }
        crate::perfmon::reset();
    }

    /// Prints each figure's text to stdout and writes its CSVs under
    /// `--out` (`wrote …` confirmations go to stderr; exit 1 on I/O
    /// error). Returns the concatenated figure text, which `run_all`
    /// persists as `REPORT.txt`.
    pub fn emit_figures(&self, figs: impl IntoIterator<Item = FigureOutput>) -> String {
        let mut report = String::new();
        for fig in figs {
            println!("{}", fig.text);
            report.push_str(&fig.text);
            report.push('\n');
            match fig.save_csvs(&self.options.out_dir) {
                Ok(paths) => {
                    for p in paths {
                        eprintln!("wrote {}", p.display());
                    }
                }
                Err(e) => {
                    eprintln!("failed to write CSVs: {e}");
                    std::process::exit(1);
                }
            }
        }
        report
    }

    /// End-of-run plumbing: prints the aggregated perf summary (if
    /// `--perf` instrumented this run) and writes the `--trace-out` /
    /// `--decisions-out` exports (exit 1 on I/O error; a no-op when
    /// neither flag was passed).
    pub fn finish(&self) {
        if let Some(s) = crate::perfmon::summary() {
            println!("{s}");
        }
        match crate::export::write_observed_probe(
            self.trace_out.as_deref(),
            self.decisions_out.as_deref(),
        ) {
            Ok(paths) => {
                for p in paths {
                    eprintln!("wrote {}", p.display());
                }
            }
            Err(e) => {
                eprintln!("failed to write observability exports: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// The usage string.
pub fn usage() -> String {
    "usage: <figure-bin> [--quick] [--analytic] [--extended] [--perf]\n\
     \x20                [--out DIR] [--threads N] [--trace-out FILE] [--decisions-out FILE]\n\
     --quick     small grids / short runs\n\
     --analytic  use closed-form latency models (skip the profiling campaign)\n\
     --extended  extend the workload axis beyond the paper's range (fig13)\n\
     --perf      instrument simulations; print aggregated perf counters at exit\n\
     --out DIR   CSV output directory (default: results)\n\
     --threads N sweep parallelism\n\
     --trace-out FILE     write a Chrome trace-event JSON (Perfetto-loadable)\n\
     \x20                    from a fully-observed probe run\n\
     --decisions-out FILE write the probe run's decision audit as JSON Lines"
        .into()
}

/// Standard main-body for a single-figure binary: the full
/// [`RunOptions`] life cycle around one figure function.
pub fn run_figure_main<F>(f: F)
where
    F: FnOnce(&RunOptions) -> FigureOutput,
{
    let opts = RunOptions::from_env();
    opts.init_perfmon(None);
    let fig = f(&opts);
    opts.emit_figures([fig]);
    opts.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn default_parse_is_full_run() {
        let c = parse(&[]).unwrap();
        assert!(!c.options.quick);
        assert!(c.options.fitted_models);
        assert!(!c.extended);
    }

    #[test]
    fn flags_are_recognized() {
        let c = parse(&s(&["--quick", "--analytic", "--extended", "--out", "/tmp/x", "--threads", "3"]))
            .unwrap();
        assert!(c.options.quick);
        assert!(!c.options.fitted_models);
        assert!(c.extended);
        assert_eq!(c.options.out_dir, PathBuf::from("/tmp/x"));
        assert_eq!(c.options.threads, 3);
    }

    #[test]
    fn bad_flags_error_with_usage() {
        assert!(parse(&s(&["--bogus"])).unwrap_err().contains("usage"));
        assert!(parse(&s(&["--out"])).is_err());
        assert!(parse(&s(&["--threads", "zero"])).is_err());
        assert!(parse(&s(&["--threads", "0"])).is_err());
        assert!(parse(&s(&["--help"])).is_err());
        // A removed flag fails loudly instead of being silently ignored.
        assert!(parse(&s(&["--no-bg-ff"])).unwrap_err().contains("usage"));
    }

    #[test]
    fn observability_flags_parse_and_default_off() {
        let c = parse(&[]).unwrap();
        assert!(c.trace_out.is_none());
        assert!(c.decisions_out.is_none());
        let c = parse(&s(&["--trace-out", "/tmp/t.json", "--decisions-out", "/tmp/d.jsonl"]))
            .unwrap();
        assert_eq!(c.trace_out, Some(PathBuf::from("/tmp/t.json")));
        assert_eq!(c.decisions_out, Some(PathBuf::from("/tmp/d.jsonl")));
        assert!(parse(&s(&["--trace-out"])).is_err());
        assert!(parse(&s(&["--decisions-out"])).is_err());
        assert!(usage().contains("--trace-out"));
    }

    #[test]
    fn emit_figures_concatenates_the_report() {
        let opts = parse(&s(&["--out", "/tmp/rtds-cli-test"])).unwrap();
        let fig = FigureOutput {
            id: "figtest",
            title: "test",
            text: "line".into(),
            tables: Vec::new(),
        };
        assert_eq!(opts.emit_figures([fig]), "line\n");
    }
}
