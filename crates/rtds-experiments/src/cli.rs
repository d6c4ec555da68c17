//! Argument parsing and the life cycle of the `run_all` binary.
//!
//! `run_all [NAME…] [flags]` runs the named [`REGISTRY`] entries in the
//! order given, or the default set when no name is given. Flags:
//! `--quick` (small grids), `--out <dir>` (CSV directory),
//! `--threads <n>`, `--analytic` (skip profile fitting), `--extended`
//! (fig13's longer workload axis), `--perf`, `--trace-out <file>`,
//! `--decisions-out <file>`. Kept hand-rolled: the dependency policy
//! (DESIGN.md §5) admits no CLI crate and the needs are trivial.
//!
//! [`run`] is the whole life cycle:
//!
//! 1. `RunOptions::from_env` — parse the command line (exit 2 + usage
//!    on a bad flag or name);
//! 2. `RunOptions::init_perfmon` — honor `--perf` and zero the
//!    process-global perf aggregate;
//! 3. [`RunOptions::emit`] — print each figure, write its CSVs and then
//!    `REPORT.txt` (exit 1 on I/O error);
//! 4. `RunOptions::finish` — print the perf summary and write the
//!    `--trace-out` / `--decisions-out` exports.

use std::path::PathBuf;

use crate::figures::{Entry, FigureOptions, FigureOutput, REGISTRY};

/// Parsed command line plus the shared run plumbing built on it.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The registry entries to run, in order.
    pub entries: Vec<&'static Entry>,
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
/// Returns a usage string on unknown or malformed flags and unknown names.
pub fn parse(args: &[String]) -> Result<RunOptions, String> {
    let mut entries = Vec::new();
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
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other}\n{}", usage()))
            }
            name => match REGISTRY.iter().find(|e| e.name == name) {
                Some(e) => entries.push(e),
                None => return Err(format!("unknown name {name}\n{}", usage())),
            },
        }
    }
    if entries.is_empty() {
        entries = REGISTRY.iter().filter(|e| e.default).collect();
    }
    Ok(RunOptions { entries, options, extended, perf, trace_out, decisions_out })
}

impl RunOptions {
    /// Parses the process command line, printing the usage string and
    /// exiting with status 2 on a bad flag or name (the conventional
    /// usage-error exit code).
    fn from_env() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        parse(&args).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2)
        })
    }

    /// Honors `--perf` and zeroes the perf aggregate. `alloc_probe` is a
    /// monotone, process-wide allocation count that the report divides
    /// by control epochs.
    ///
    /// The aggregate is process-global, so it is reset unconditionally:
    /// this batch starts from zero rather than folding into whatever a
    /// previous batch left behind.
    fn init_perfmon(&self, alloc_probe: fn() -> u64) {
        if self.perf {
            crate::perfmon::enable(alloc_probe);
        }
        crate::perfmon::reset();
    }

    /// Runs each selected entry in order, prints and saves its figures,
    /// then writes their concatenated text to `<out>/REPORT.txt` (exit 1
    /// on I/O error).
    pub fn emit(&self) {
        let report = self.emit_figures(self.entries.iter().flat_map(|e| (e.run)(self)));
        let dir = &self.options.out_dir;
        let path = dir.join("REPORT.txt");
        let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, report));
        or_exit("write REPORT.txt", written);
        eprintln!("artifacts in {} (full text: {})", dir.display(), path.display());
    }

    /// Prints each figure's text to stdout and writes its CSVs under
    /// `--out` (`wrote …` confirmations go to stderr; exit 1 on I/O
    /// error). Returns the concatenated figure text.
    fn emit_figures(&self, figs: impl IntoIterator<Item = FigureOutput>) -> String {
        let mut report = String::new();
        for fig in figs {
            println!("{}", fig.text);
            report.push_str(&fig.text);
            report.push('\n');
            for p in or_exit("write CSVs", fig.save_csvs(&self.options.out_dir)) {
                eprintln!("wrote {}", p.display());
            }
        }
        report
    }

    /// End-of-run plumbing: prints the aggregated perf summary (if
    /// `--perf` instrumented this run) and writes the `--trace-out` /
    /// `--decisions-out` exports (exit 1 on I/O error; a no-op when
    /// neither flag was passed). The trace's perf slices are the printed
    /// aggregate, which does not include the probe run itself.
    fn finish(&self) {
        let perf = crate::perfmon::snapshot();
        if let Some(agg) = &perf {
            println!("{}", crate::perfmon::summary(agg));
        }
        let exports = crate::export::write_probe(
            self.trace_out.as_deref(),
            self.decisions_out.as_deref(),
            perf.map(|agg| agg.report).as_ref(),
        );
        for p in or_exit("write observability exports", exports) {
            eprintln!("wrote {}", p.display());
        }
    }
}

/// The `run_all` binary: parse, init perf, emit, finish. `alloc_probe`
/// reads the binary's counting global allocator.
pub fn run(alloc_probe: fn() -> u64) {
    let opts = RunOptions::from_env();
    opts.init_perfmon(alloc_probe);
    opts.emit();
    opts.finish();
}

/// Unwraps `r`, or prints `failed to {what}: {e}` and exits with status 1.
pub(crate) fn or_exit<T>(what: &str, r: std::io::Result<T>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("failed to {what}: {e}");
        std::process::exit(1)
    })
}

/// The usage string; the names come from [`REGISTRY`].
pub fn usage() -> String {
    let names = |default: bool| {
        let names = REGISTRY.iter().filter(|e| e.default == default).map(|e| e.name);
        names.collect::<Vec<_>>().join(" ")
    };
    format!(
        "usage: run_all [NAME...] [--quick] [--analytic] [--extended] [--perf]\n\
         \x20              [--out DIR] [--threads N] [--trace-out FILE] [--decisions-out FILE]\n\
         NAME...     run these entries in the order given; none runs the default set\n\
         \x20           default: {}\n\
         \x20           others:  {}\n\
         --quick     small grids / short runs\n\
         --analytic  use closed-form latency models (skip the profiling campaign)\n\
         --extended  extend the workload axis beyond the paper's range (fig13)\n\
         --perf      instrument simulations; print aggregated perf counters at exit\n\
         --out DIR   CSV output directory (default: results)\n\
         --threads N sweep parallelism\n\
         --trace-out FILE     write a Chrome trace-event JSON (Perfetto-loadable)\n\
         \x20                    from a fully-observed probe run\n\
         --decisions-out FILE write the probe run's decision audit as JSON Lines",
        names(true),
        names(false)
    )
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

    fn names(c: &RunOptions) -> Vec<&'static str> {
        c.entries.iter().map(|e| e.name).collect()
    }

    #[test]
    fn names_parse_in_order_between_flags() {
        let c = parse(&s(&["fig9", "--quick", "tables", "--out", "fig2", "fig9"])).unwrap();
        assert_eq!(names(&c), ["fig9", "tables", "fig9"]);
        assert_eq!(c.options.out_dir, PathBuf::from("fig2"));
    }

    #[test]
    fn no_names_select_the_default_set() {
        let c = parse(&s(&["--quick"])).unwrap();
        assert_eq!(
            names(&c),
            ["tables", "fig2", "fig3", "fig4", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13"]
        );
    }

    #[test]
    fn unknown_names_error_and_usage_lists_every_entry() {
        let err = parse(&s(&["fig9", "fig99"])).unwrap_err();
        assert!(err.starts_with("unknown name fig99\nusage: run_all"), "{err}");
        for e in REGISTRY {
            assert!(usage().contains(e.name), "{} missing from usage", e.name);
        }
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
