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

/// `--perf` counts every simulation of the experiment layer, the ones
/// the ablations and extensions assemble for a controller or cluster a
/// `ScenarioConfig` cannot name included. Before those runs went through
/// the perf hook, `ablations` printed no perf section at all and
/// `extensions` reported 48 of its 70 runs.
#[test]
fn perf_counts_every_ablation_and_extension_run() {
    for (name, runs) in [("ablations", 9), ("extensions", 70)] {
        let out = std::env::temp_dir().join(format!("rtds-run-all-perf-{name}"));
        let o = run_all(&[
            name,
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
        let header = format!("aggregated over {runs} simulation runs");
        assert!(stdout.contains(&header), "{name}: {stdout}");
    }
}

/// The `--trace-out` export's perf slices are the aggregate `--perf`
/// prints, not that aggregate plus the probe run behind the export.
#[test]
fn trace_perf_slices_match_the_printed_summary() {
    let out = std::env::temp_dir().join("rtds-run-all-perf-trace");
    let trace = out.join("trace.json");
    let o = run_all(&[
        "fig9",
        "--quick",
        "--analytic",
        "--threads",
        "1",
        "--perf",
        "--out",
        out.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let stdout = String::from_utf8_lossy(&o.stdout);
    let printed: u64 = stdout
        .lines()
        .find_map(|l| l.trim_start().strip_prefix("period_release"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no period_release row: {stdout}"));
    let doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace).expect("trace file")).expect("JSON");
    let slice = doc["traceEvents"]
        .as_array()
        .expect("traceEvents")
        .iter()
        .find(|e| e["pid"] == 3 && e["name"] == "period_release")
        .expect("a period_release perf slice");
    assert_eq!(slice["args"]["events"].as_u64(), Some(printed), "{slice:?}");
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
