//! Golden-file regression tests: the quick triangular sweep, the
//! manager-feature extension figures and a digest manifest of every quick
//! `run_all` artifact must produce byte-identical output run over run.
//! Guards the entire pipeline (simulator, algorithms, metrics,
//! reporting) against unintended behavioral drift — any change to these
//! files' expectations should be a deliberate, review-worthy event.
//!
//! To regenerate after an intentional change:
//! `UPDATE_GOLDEN=1 cargo test -p rtds --test golden`

use std::path::{Path, PathBuf};

use rtds::experiments::cli;
use rtds::experiments::figures::extensions as ext;
use rtds::experiments::figures::{FigureOptions, FigureOutput};
use rtds::experiments::models::quick_predictor;
use rtds::experiments::report::Table;
use rtds::experiments::scenario::{
    run_scenario, PatternSpec, PolicySpec, ScenarioConfig,
};
use rtds::experiments::sweep::{run_sweep, SweepConfig};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// Compares `actual` with the named golden file, or rewrites the file
/// when `UPDATE_GOLDEN` is set.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("golden file updated: {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test -p rtds --test golden",
            path.display()
        )
    });
    assert_eq!(
        actual, golden,
        "{name} drifted from the golden file; if intentional, \
         regenerate with UPDATE_GOLDEN=1"
    );
}

fn produce_csv() -> String {
    let mut cfg = SweepConfig::quick(PatternSpec::Triangular { half_period: 10 });
    cfg.units = vec![4, 16, 28];
    cfg.n_periods = 40;
    cfg.threads = 1;
    let points = run_sweep(&cfg, &quick_predictor());
    let mut t = Table::new(vec![
        "units",
        "policy",
        "missed_pct",
        "cpu_pct",
        "net_pct",
        "avg_replicas",
        "combined",
    ]);
    for p in &points {
        t.row(vec![
            p.units.to_string(),
            p.policy.name().to_string(),
            format!("{:.6}", p.missed_pct),
            format!("{:.6}", p.cpu_pct),
            format!("{:.6}", p.net_pct),
            format!("{:.6}", p.avg_replicas),
            format!("{:.6}", p.combined),
        ]);
    }
    t.to_csv()
}

#[test]
fn quick_sweep_matches_golden_output() {
    check_golden("fig9_quick.csv", &produce_csv());
}

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every workload pattern family, evaluated over periods `0..600` on two
/// ranges, plus a random walk queried out of order (period 450 first,
/// then sequentially), hashed as little-endian `u64`s. Pins each series
/// exactly; run outcomes only pin the patterns through the simulator.
#[test]
fn every_pattern_series_matches_its_digest() {
    use rtds::experiments::PatternSpec;
    use rtds::workloads::WorkloadRange;

    let specs = [
        PatternSpec::Increasing { ramp_periods: 239 },
        PatternSpec::Decreasing { ramp_periods: 97 },
        PatternSpec::Triangular { half_period: 30 },
        PatternSpec::Step { low: 7, high: 13 },
        PatternSpec::Burst { every: 25, width: 4 },
        PatternSpec::Sinusoid { wavelength: 80 },
        PatternSpec::RandomWalk { max_step: 400, seed: 0x5EED },
    ];
    let mut bytes = Vec::new();
    for range in [WorkloadRange::new(500, 17_500), WorkloadRange::new(100, 1_000)] {
        for spec in specs {
            let mut pattern = spec.build(range);
            for period in 0..600 {
                bytes.extend_from_slice(&pattern.tracks_at(period).to_le_bytes());
            }
        }
        let mut walk = PatternSpec::RandomWalk { max_step: 250, seed: 7 }.build(range);
        bytes.extend_from_slice(&walk.tracks_at(450).to_le_bytes());
        for period in 0..600 {
            bytes.extend_from_slice(&walk.tracks_at(period).to_le_bytes());
        }
    }
    assert_eq!(fnv1a64(&bytes), 0x15c3_0395_7c73_0d85, "a workload pattern's series changed");
}

/// The profiling campaign behind `profile.json`, `tables`, `fig2`–`fig4`
/// and every fitted predictor: single-node probe clusters whose stage
/// jobs share the CPU with fixed-interval background load. Hashes its
/// JSON rendering (raw samples and fitted models).
#[test]
fn profile_campaign_matches_its_digest() {
    let json = rtds::experiments::models::run_campaign().to_json();
    assert_eq!(fnv1a64(json.as_bytes()), 0xba60_c214_6238_313b, "the profiling campaign changed");
}

/// Quick predictive runs under every `SchedulerKind`, each with ambient
/// load on (stage jobs at priority 0 share nodes with background jobs at
/// priority 1), and once more with a lossy bus plus a crash–restart of
/// every node in turn, so that under each kind some crash drains a
/// non-empty ready queue. Hashes the Debug rendering of every run's
/// metrics.
#[test]
fn every_scheduler_run_matches_its_digest() {
    use rtds::experiments::scenario::{CrashFault, FaultPlan};
    use rtds::sim::sched::SchedulerKind;

    let predictor = quick_predictor();
    let schedulers = [
        SchedulerKind::paper_baseline(),
        SchedulerKind::RoundRobin { quantum_us: 5_000 },
        SchedulerKind::Fifo,
        SchedulerKind::StaticPriority { quantum_us: None },
        SchedulerKind::StaticPriority { quantum_us: Some(1_000) },
    ];
    let faulty = FaultPlan {
        drop_prob: 0.10,
        dup_prob: 0.0,
        retx_timeout_us: 20_000,
        jam: None,
        crashes: (0..6)
            .map(|node| CrashFault { node, at_s: 3 + 2 * u64::from(node), restart_after_s: Some(1) })
            .collect(),
    };
    let mut bytes = Vec::new();
    for scheduler in schedulers {
        for faults in [FaultPlan::default(), faulty.clone()] {
            let mut cfg = ScenarioConfig::paper(
                PatternSpec::Triangular { half_period: 5 },
                PolicySpec::Predictive,
                12_000,
            );
            cfg.n_periods = 20;
            cfg.ambient_util = 0.5;
            cfg.scheduler = scheduler;
            cfg.faults = faults;
            let r = run_scenario(&cfg, &predictor);
            bytes.extend_from_slice(format!("{:?}\n", r.metrics).as_bytes());
        }
    }
    assert_eq!(fnv1a64(&bytes), 0x6ea0_b8c7_a572_0bde, "a scheduler's run changed");
}

/// One extension figure per manager-loop feature, plus the decision
/// stream of an observed predictive run with a node failure, so the
/// order in which the loop emits repair, replicate and no-op records is
/// pinned too.
fn produce_manager_report() -> String {
    let opts = FigureOptions {
        quick: true,
        out_dir: std::env::temp_dir().join("rtds-golden-manager"),
        threads: 1,
        fitted_models: false,
    };
    let figures: [fn(&FigureOptions) -> FigureOutput; 6] = [
        ext::ext_decentralized,     // coordination mode
        ext::ext_survivability,     // repair
        ext::ext_online_refinement, // refine
        ext::ext_control_latency,   // act_every
        ext::ext_multitask,         // CompositeManager
        ext::ext_forecast_value,    // incremental policy
    ];
    let mut out = String::new();
    for figure in figures {
        let f = figure(&opts);
        out.push_str(&format!("== {} ==\n{}\n", f.id, f.text));
    }

    let mut cfg = ScenarioConfig::paper(
        PatternSpec::Triangular { half_period: 10 },
        PolicySpec::Predictive,
        12_000,
    );
    cfg.n_periods = 40;
    cfg.failures = vec![(4, 20)];
    cfg.observe = true;
    let r = run_scenario(&cfg, &quick_predictor());
    let jsonl = rtds::experiments::decisions_jsonl(&r.decisions);
    for arm in ["Repair", "Replicate", "NoOp"] {
        assert!(jsonl.contains(&format!("\"arm\":\"{arm}\"")), "no {arm} record");
    }
    out.push_str(&format!(
        "== decisions (predictive, node 4 fails at 20 s) ==\nlines: {}\nfnv1a64: {:016x}\n",
        jsonl.lines().count(),
        fnv1a64(jsonl.as_bytes())
    ));
    out
}

#[test]
fn manager_extensions_match_golden_output() {
    check_golden("manager_extensions_quick.txt", &produce_manager_report());
}

/// One `name length fnv1a64` line per file under `root`, sorted by the
/// `/`-separated path relative to `root`.
fn digest_tree(root: &Path) -> String {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, Vec<u8>)>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).unwrap().to_str().unwrap().replace('\\', "/");
                out.push((rel, std::fs::read(&path).unwrap()));
            }
        }
    }
    let mut files = Vec::new();
    walk(root, root, &mut files);
    files.sort();
    files
        .iter()
        .map(|(name, bytes)| format!("{name} {} {:016x}\n", bytes.len(), fnv1a64(bytes)))
        .collect()
}

/// Every artifact of `run_all --quick --analytic --threads 1` for the
/// default selection, `extensions` and `ablations`, plus the fig9 probe's
/// `--trace-out` and `--decisions-out` exports.
#[test]
fn quick_artifacts_match_digest_manifest() {
    let root = std::env::temp_dir().join("rtds-golden-digests");
    let _ = std::fs::remove_dir_all(&root);
    let selections = [("default", &[][..]), ("extensions", &["extensions"]), ("ablations", &["ablations"])];
    for (dir, names) in selections {
        let mut args: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        let out = root.join(dir).to_str().unwrap().to_string();
        for a in ["--quick", "--analytic", "--threads", "1", "--out", &out] {
            args.push(a.to_string());
        }
        cli::parse(&args).unwrap().emit();
    }

    let probe = root.join("probe");
    rtds::experiments::export::write_observed_probe(
        Some(&probe.join("trace.json")),
        Some(&probe.join("decisions.jsonl")),
    )
    .unwrap();

    check_golden("run_all_quick.digests", &digest_tree(&root));
}
