//! `perfbench`: the end-to-end and per-layer benchmark of the rtds
//! workspace. See README.md for the workloads, the metrics and how to run
//! it.
//!
//! ```text
//! perfbench --workload <fig9|degraded|ambient-64> [--seed N] [--seconds S]
//!           [--trace 0|1] [--out DIR] [--pin]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod calib;
mod harness;
mod layers;
mod pins;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use harness::{measure, Options, Report};
use layers::Probes;
use spans::Spans;
use workloads::{Workload, WORKLOADS};

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    pin: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--pin]",
        WORKLOADS.join("|")
    )
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".bench_out"),
        pin: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--out" => a.out = PathBuf::from(value()?),
            "--pin" => a.pin = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(a)
}

fn result_json(r: &Report) -> String {
    let mut m = String::new();
    for (i, x) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            x.name, x.value, x.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        r.correct, r.attempted, r.failed
    )
}

/// `--pin`: prints the `pinned.json` entry of one workload — the canary
/// digest, and for the default and held-out seeds the sample digest and
/// the deterministic counters of one traced sample.
fn pin_entry(w: &mut dyn Workload, out: &std::path::Path) -> Result<String, String> {
    let _ = w.setup_once(false);
    let (canary, _) = w.canary(out)?;
    let mut seeds = Vec::new();
    for seed in [w.default_seed(), w.held_out_seed()] {
        let s = w.sample(seed, out)?;
        let mut spans = Spans::new(Instant::now());
        let t = w.traced(seed, &Probes::new(Instant::now(), 0), &mut spans, 0);
        if t.run_digests != s.run_digests {
            return Err(format!("seed {seed}: traced outputs differ from untraced"));
        }
        let counters: Vec<String> = t
            .layers
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        seeds.push(format!(
            "      \"{seed}\": {{\"digest\": \"{:016x}\", \"counters\": {{{}}}}}",
            stats::fold(&s.run_digests),
            counters.join(", ")
        ));
    }
    Ok(format!(
        "  \"{}\": {{\n    \"default_seed\": {},\n    \"held_out_seed\": {},\n    \"canary\": \"{canary:016x}\",\n    \"seeds\": {{\n{}\n    }}\n  }}",
        w.name(),
        w.default_seed(),
        w.held_out_seed(),
        seeds.join(",\n")
    ))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let Some(mut w) = workloads::by_name(&args.workload) else {
        eprintln!("unknown workload {:?}\n{}", args.workload, usage());
        return ExitCode::from(2);
    };
    if args.pin {
        return match pin_entry(w.as_mut(), &args.out) {
            Ok(entry) => {
                println!("{entry}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("pin: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let seed = args.seed.unwrap_or(w.default_seed());
    let opts = Options {
        seed,
        seconds: args.seconds,
        trace: args.trace,
        out: &args.out,
    };
    let pin = pins::load(w.name());
    let mut spans = Spans::new(Instant::now());
    let report = measure(w.as_mut(), &opts, pin.as_ref(), &mut spans);

    let trace_path = args.out.join(format!(
        "{}-seed{seed}-trace{}.json",
        w.name(),
        u8::from(args.trace)
    ));
    if let Err(e) = spans.write_chrome(&trace_path) {
        eprintln!("could not write spans to {}: {e}", trace_path.display());
    }
    for p in &report.problems {
        eprintln!("{p}");
    }
    for m in &report.metrics {
        eprintln!("{:<28} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let secs: Vec<String> = report
        .sample_secs
        .iter()
        .map(|s| format!("{s:.3}"))
        .collect();
    eprintln!(
        "sample seconds (median {:.3}): {}",
        stats::median(&report.sample_secs),
        secs.join(" ")
    );
    let secs: Vec<String> = report
        .setup_secs
        .iter()
        .map(|s| format!("{s:.4}"))
        .collect();
    eprintln!("set-up seconds: {}", secs.join(" "));
    let secs: Vec<String> = report
        .reference_secs
        .iter()
        .map(|s| format!("{s:.4}"))
        .collect();
    eprintln!(
        "reference seconds (median {:.4}): {}",
        stats::median(&report.reference_secs),
        secs.join(" ")
    );
    eprintln!("spans: {}", trace_path.display());
    println!("{}", result_json(&report));
    ExitCode::SUCCESS
}
