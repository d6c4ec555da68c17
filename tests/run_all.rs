//! The `run_all` binary end to end: every selection runs under the
//! counting allocator, and bad input exits with a status, not a panic.

use std::process::{Command, Output};

fn run_all(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(args)
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("spawn run_all")
}

#[test]
fn a_single_figure_reports_allocations_per_epoch() {
    let out = std::env::temp_dir().join("rtds-run-all-perf");
    let o = run_all(&[
        "fig9",
        "--quick",
        "--analytic",
        "--threads",
        "1",
        "--perf",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let stdout = String::from_utf8_lossy(&o.stdout);
    assert!(stdout.contains("allocs/epoch="), "{stdout}");
    assert!(out.join("REPORT.txt").is_file());
}

/// The quick Fig. 9 sweep is 3 units x 2 policies. Each unit's policies
/// run as one group, and `--perf` counts every executed simulation once:
/// units 4 and 16 share one quiet run between both policies, unit 28
/// diverges and re-runs the non-predictive policy. The count was 6 when
/// every (unit, policy) pair ran on its own; it is 4 now.
#[test]
fn perf_counts_a_shared_run_once() {
    let out = std::env::temp_dir().join("rtds-run-all-perf-runs");
    let o = run_all(&[
        "fig9",
        "--quick",
        "--analytic",
        "--threads",
        "1",
        "--perf",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let stdout = String::from_utf8_lossy(&o.stdout);
    assert!(stdout.contains("aggregated over 4 simulation runs"), "{stdout}");
}

#[test]
fn an_unwritable_profile_exits_1_without_a_panic() {
    let o = run_all(&["profile", "--out", "/dev/null/x"]);
    let stderr = String::from_utf8_lossy(&o.stderr);
    assert_eq!(o.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("failed to write profile"), "{stderr}");
    assert!(!stderr.contains("panicked") && !stderr.contains("backtrace"), "{stderr}");
}

#[test]
fn an_unknown_name_exits_2_with_usage() {
    let o = run_all(&["fig99"]);
    let stderr = String::from_utf8_lossy(&o.stderr);
    assert_eq!(o.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown name fig99") && stderr.contains("usage: run_all"), "{stderr}");
}
