//! Ablation benches for the design choices DESIGN.md calls out: EQF
//! variant, slack threshold, and processor-choice rule, each timed as a
//! full evaluation run so the cost of the alternative is visible. (Their
//! *quality* impact is reported by `cargo run --release --bin run_all --
//! ablations`.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rtds_arm::config::ArmConfig;
use rtds_arm::eqf::EqfVariant;
use rtds_arm::manager::ResourceManager;
use rtds_bench::bench_predictor;
use rtds_dynbench::app::aaw_task;
use rtds_sim::cluster::{Cluster, ClusterApi, ClusterConfig};
use rtds_sim::time::SimDuration;
use rtds_workloads::{PatternSpec, WorkloadRange};

fn run_with(cfg: ArmConfig) -> f64 {
    let mut cluster = Cluster::new(ClusterConfig::paper_baseline(7, SimDuration::from_secs(30)));
    let mut pattern =
        PatternSpec::Triangular { half_period: 8 }.build(WorkloadRange::new(500, 12_000));
    cluster.add_task(aaw_task(), Box::new(move |i| pattern.tracks_at(i)));
    cluster.set_controller(Box::new(ResourceManager::new(cfg, bench_predictor())));
    let out = cluster.run();
    out.metrics.summarize(&[2, 4]).missed_deadline_pct
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablations");
    g.sample_size(10);

    for (name, eqf) in [("classic", EqfVariant::Classic), ("paper_literal", EqfVariant::PaperLiteral)] {
        let mut cfg = ArmConfig::paper_predictive();
        cfg.eqf = eqf;
        g.bench_with_input(BenchmarkId::new("eqf_variant", name), &cfg, |b, cfg| {
            b.iter(|| run_with(std::hint::black_box(*cfg)))
        });
    }

    for slack in [0.1f64, 0.2, 0.4] {
        let mut cfg = ArmConfig::paper_predictive();
        cfg.monitor.slack_fraction = slack;
        cfg.monitor.shutdown_slack_fraction = (slack + 0.4).min(0.9);
        g.bench_with_input(
            BenchmarkId::new("slack_fraction", format!("{slack}")),
            &cfg,
            |b, cfg| b.iter(|| run_with(std::hint::black_box(*cfg))),
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
