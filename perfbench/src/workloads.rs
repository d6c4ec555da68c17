//! The three workloads, each behind the [`Workload`] interface the
//! harness drives: set-up, a canary at fixed inputs, the untraced timed
//! body, and the traced body.

use std::path::Path;
use std::time::Instant;

use rtds_arm::predictor::Predictor;
use rtds_dynbench::{aaw_task, profile_buffer_delay, profile_execution, ProfileData};
use rtds_experiments::figures::eval::fig9;
use rtds_experiments::figures::FigureOptions;
use rtds_experiments::models;
use rtds_experiments::run_scenario;
use rtds_experiments::scenario::{CrashFault, FaultPlan, PatternSpec, PolicySpec, ScenarioConfig};
use rtds_experiments::sweep::{
    deterministic_csv, run_sweep, SweepConfig, SweepPoint, TRACKS_PER_UNIT,
};
use rtds_sim::cluster::ClusterApi;
use rtds_sim::net::JamWindow;
use rtds_sim::perf::PerfReport;

use crate::layers::{
    ambient_cluster, ambient_digest, scenario_digest, traced_scenario, EpochLog, Layers, LoadLog,
    Probes, TracedRun, AMBIENT_HORIZON_S,
};
use crate::spans::Spans;
use crate::stats::Fnv;

/// One repetition of set-up.
pub struct SetupRep {
    pub secs: f64,
    /// Profiling campaign (`profile_execution` + `profile_buffer_delay`);
    /// measured in traced runs only.
    pub profile_secs: f64,
    /// `ProfileData::fit_all`; measured in traced runs only.
    pub fit_secs: f64,
}

/// One untraced repetition of the timed body.
pub struct Sample {
    /// Host seconds of the whole body.
    pub secs: f64,
    /// Host seconds of its simulation part, comparable with
    /// [`TracedSample::core_secs`].
    pub core_secs: f64,
    /// Digest of each simulation run's deterministic outputs, in order.
    pub run_digests: Vec<u64>,
    /// Host milliseconds of each `run_scenario` call, where the workload
    /// goes through the experiment layer.
    pub point_ms: Vec<f64>,
    /// Figure render plus `save_csvs`, where the workload emits a figure.
    pub emit_secs: Option<f64>,
}

/// One traced repetition of the timed body.
pub struct TracedSample {
    pub core_secs: f64,
    pub run_digests: Vec<u64>,
    pub layers: Layers,
}

/// A workload as the harness sees it.
pub trait Workload {
    fn name(&self) -> &'static str;
    /// Seed used when none is given; its outputs are pinned.
    fn default_seed(&self) -> u64;
    /// A second pinned seed, kept out of tuning, for checking later claims.
    fn held_out_seed(&self) -> u64;
    /// Simulation runs in one sample.
    fn runs_per_sample(&self) -> u64;
    /// Simulated seconds in one sample.
    fn sim_secs_per_sample(&self) -> f64;
    fn setup_once(&mut self, traced: bool) -> SetupRep;
    /// Untimed run at the workload's fixed inputs; returns its digest and
    /// the number of simulation runs it made. It also warms caches.
    fn canary(&mut self, out: &Path) -> Result<(u64, u64), String>;
    fn sample(&mut self, seed: u64, out: &Path) -> Result<Sample, String>;
    fn traced(
        &mut self,
        seed: u64,
        probes: &Probes,
        spans: &mut Spans,
        parent: u64,
    ) -> TracedSample;
}

pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    match name {
        "fig9" => Some(Box::new(Fig9::default())),
        "degraded" => Some(Box::new(Degraded::default())),
        "ambient-64" => Some(Box::new(Ambient64)),
        _ => None,
    }
}

pub const WORKLOADS: [&str; 3] = ["fig9", "degraded", "ambient-64"];

/// Fig. 9's workload pattern at 240 periods.
pub fn fig9_pattern() -> PatternSpec {
    PatternSpec::Triangular {
        half_period: 240 / 8,
    }
}

const UNITS: std::ops::RangeInclusive<u64> = 1..=35;
const POLICIES: [PolicySpec; 2] = [PolicySpec::Predictive, PolicySpec::NonPredictive];
const PERIODS: f64 = 240.0;

/// The `degraded_network` example's fault plan (10 % drop, 2 % dup, 80 ms
/// retransmit timeout, periodic jam) plus two crash–restarts.
pub fn degraded_plan() -> FaultPlan {
    FaultPlan {
        drop_prob: 0.10,
        dup_prob: 0.02,
        retx_timeout_us: 80_000,
        jam: Some(JamWindow {
            start_us: 10_000_000,
            duration_us: 2_000_000,
            bandwidth_factor: 0.25,
            repeat_us: 20_000_000,
        }),
        crashes: vec![
            CrashFault {
                node: 2,
                at_s: 60,
                restart_after_s: Some(10),
            },
            CrashFault {
                node: 4,
                at_s: 150,
                restart_after_s: Some(20),
            },
        ],
    }
}

/// Predictor construction, the set-up of `fig9` and `degraded`. Untraced
/// it is the program's own `run_campaign`; traced, the same steps are
/// called one by one so profiling and fitting are timed apart.
fn build_predictor(traced: bool) -> (Predictor, SetupRep) {
    let t0 = Instant::now();
    if !traced {
        let p = models::predictor_from_profile(&models::run_campaign());
        let secs = t0.elapsed().as_secs_f64();
        return (
            p,
            SetupRep {
                secs,
                profile_secs: 0.0,
                fit_secs: 0.0,
            },
        );
    }
    let mut data = profile_campaign();
    let t1 = Instant::now();
    data.fit_all();
    let t2 = Instant::now();
    let p = models::predictor_from_profile(&data);
    let rep = SetupRep {
        secs: t0.elapsed().as_secs_f64(),
        profile_secs: (t1 - t0).as_secs_f64(),
        fit_secs: (t2 - t1).as_secs_f64(),
    };
    (p, rep)
}

/// The profiling half of `models::run_campaign`, unfitted.
fn profile_campaign() -> ProfileData {
    let task = aaw_task();
    let cfg = models::campaign_config();
    let mut data = ProfileData {
        seed: cfg.seed,
        ..Default::default()
    };
    for (j, stage) in task.stages.iter().enumerate() {
        data.exec_samples
            .insert(j, profile_execution(stage.cost, &cfg));
    }
    data.buffer_samples = profile_buffer_delay(&cfg, 3);
    data
}

fn expect_predictor(p: &Option<Predictor>) -> &Predictor {
    p.as_ref().expect("set-up runs before the timed body")
}

/// Runs one traced scenario under a `run` span, folds it into `layers`
/// and records its controller epochs as child spans.
fn traced_run(
    cfg: &ScenarioConfig,
    predictor: &Predictor,
    probes: &Probes,
    layers: &mut Layers,
    spans: &mut Spans,
    parent: u64,
) -> TracedRun {
    let open = spans.begin(
        format!(
            "run {} units={} seed={}",
            cfg.policy.name(),
            cfg.workload.max / TRACKS_PER_UNIT,
            cfg.seed
        ),
        parent,
    );
    let r = traced_scenario(cfg, predictor, probes);
    layers.absorb(&r.perf, &r.metrics, &r.epochs, r.loads);
    for &(start, dur) in &r.epochs.spans {
        spans.record("epoch", open.id(), start, dur);
    }
    spans.end(open, run_args(&r.perf, &r.epochs, r.loads));
    r
}

fn run_args(perf: &PerfReport, epochs: &EpochLog, loads: LoadLog) -> Vec<(&'static str, f64)> {
    let logical = perf.queue.popped
        + perf.elided_dispatches
        + perf.elided_bg_polls
        + perf.elided_bg_dispatches;
    vec![
        ("logical_events", logical as f64),
        ("popped", perf.queue.popped as f64),
        ("epochs", epochs.durations_ns.len() as f64),
        ("actions", epochs.actions as f64),
        ("arrivals", loads.arrivals as f64),
        ("loop_ms", perf.wall_ns as f64 / 1e6),
    ]
}

/// The Fig. 9 sweep through the traced assembly; `deterministic_csv` of
/// the result must equal that of `run_sweep` at the same seed and units.
pub fn traced_sweep(
    seed: u64,
    units: &[u64],
    predictor: &Predictor,
    probes: &Probes,
    spans: &mut Spans,
    parent: u64,
) -> (Vec<SweepPoint>, Layers) {
    let mut layers = Layers::default();
    let mut points = Vec::with_capacity(units.len() * POLICIES.len());
    for &u in units {
        for policy in POLICIES {
            let cfg = ScenarioConfig {
                seed,
                ..ScenarioConfig::paper(fig9_pattern(), policy, u * TRACKS_PER_UNIT)
            };
            let t0 = Instant::now();
            let r = traced_run(&cfg, predictor, probes, &mut layers, spans, parent);
            points.push(SweepPoint {
                units: u,
                policy,
                missed_pct: r.summary.missed_deadline_pct,
                cpu_pct: r.summary.avg_cpu_util_pct,
                net_pct: r.summary.avg_net_util_pct,
                avg_replicas: r.summary.avg_replicas,
                combined: r.breakdown.combined,
                placement_changes: r.summary.placement_changes,
                wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            });
        }
    }
    (points, layers)
}

/// One digest per sweep point: its `deterministic_csv` row.
fn row_digests(points: &[SweepPoint]) -> Vec<u64> {
    deterministic_csv(points)
        .lines()
        .skip(1)
        .map(|l| Fnv::default().bytes(l.as_bytes()).finish())
        .collect()
}

// ---------------------------------------------------------------------
// fig9
// ---------------------------------------------------------------------

/// `fig9`: the Fig. 9 sweep (35 units × 2 policies × 240 periods,
/// triangular, 10 % ambient, one thread, fitted predictor) plus figure
/// emission through `figures::eval::fig9` and `save_csvs`.
#[derive(Default)]
pub struct Fig9 {
    predictor: Option<Predictor>,
    figure_digest: Option<u64>,
}

impl Fig9 {
    fn figure_options(out: &Path) -> FigureOptions {
        FigureOptions {
            threads: 1,
            out_dir: out.join("fig9"),
            ..FigureOptions::default()
        }
    }

    /// Renders Fig. 9 and writes its CSV/JSON; returns the digest of the
    /// written bytes.
    fn emit(out: &Path) -> Result<u64, String> {
        let opts = Self::figure_options(out);
        let fig = fig9(&opts);
        let files = fig
            .save_csvs(&opts.out_dir)
            .map_err(|e| format!("save_csvs: {e}"))?;
        let mut h = Fnv::default();
        for f in files {
            h.bytes(&std::fs::read(&f).map_err(|e| format!("read {}: {e}", f.display()))?);
        }
        Ok(h.finish())
    }
}

impl Workload for Fig9 {
    fn name(&self) -> &'static str {
        "fig9"
    }

    fn default_seed(&self) -> u64 {
        // `SweepConfig::paper`'s seed: the default run is the paper figure.
        0x5EED
    }

    fn held_out_seed(&self) -> u64 {
        4242
    }

    fn runs_per_sample(&self) -> u64 {
        (UNITS.count() * POLICIES.len()) as u64
    }

    fn sim_secs_per_sample(&self) -> f64 {
        self.runs_per_sample() as f64 * PERIODS
    }

    fn setup_once(&mut self, traced: bool) -> SetupRep {
        let (p, rep) = build_predictor(traced);
        self.predictor = Some(p);
        rep
    }

    /// The figure exactly as the `fig9` binary makes it (at the sweep's
    /// own seed). `fig9` memoizes its sweep per process, so this first
    /// call runs the sweep and every later call in the process renders
    /// from the memo — which is what each sample's emission measures.
    fn canary(&mut self, out: &Path) -> Result<(u64, u64), String> {
        let d = Self::emit(out)?;
        self.figure_digest = Some(d);
        Ok((d, self.runs_per_sample()))
    }

    fn sample(&mut self, seed: u64, out: &Path) -> Result<Sample, String> {
        let cfg = SweepConfig {
            seed,
            threads: 1,
            ..SweepConfig::paper(fig9_pattern())
        };
        let t0 = Instant::now();
        let points = run_sweep(&cfg, expect_predictor(&self.predictor));
        let t1 = Instant::now();
        let figure = Self::emit(out)?;
        let t2 = Instant::now();
        if self.figure_digest.is_some_and(|d| d != figure) {
            return Err("Fig. 9 CSV/JSON bytes differ from the canary's".into());
        }
        Ok(Sample {
            secs: (t2 - t0).as_secs_f64(),
            core_secs: (t1 - t0).as_secs_f64(),
            run_digests: row_digests(&points),
            point_ms: points.iter().map(|p| p.wall_ms).collect(),
            emit_secs: Some((t2 - t1).as_secs_f64()),
        })
    }

    fn traced(
        &mut self,
        seed: u64,
        probes: &Probes,
        spans: &mut Spans,
        parent: u64,
    ) -> TracedSample {
        let units: Vec<u64> = UNITS.collect();
        let t0 = Instant::now();
        let (points, layers) = traced_sweep(
            seed,
            &units,
            expect_predictor(&self.predictor),
            probes,
            spans,
            parent,
        );
        TracedSample {
            core_secs: t0.elapsed().as_secs_f64(),
            run_digests: row_digests(&points),
            layers,
        }
    }
}

// ---------------------------------------------------------------------
// degraded
// ---------------------------------------------------------------------

/// `degraded`: the Fig. 9 grid through `run_scenario` over
/// [`DEGRADED_SEEDS`] seeds, with no ambient load, online refinement on
/// and [`degraded_plan`].
#[derive(Default)]
pub struct Degraded {
    predictor: Option<Predictor>,
}

/// Scenario seeds per sample: `seed * 4 + i` for `i` in `0..4`.
pub const DEGRADED_SEEDS: u64 = 4;

impl Degraded {
    fn configs(seed: u64) -> impl Iterator<Item = ScenarioConfig> {
        (0..DEGRADED_SEEDS).flat_map(move |i| {
            UNITS.flat_map(move |u| {
                POLICIES.into_iter().map(move |policy| ScenarioConfig {
                    seed: seed.wrapping_mul(DEGRADED_SEEDS).wrapping_add(i),
                    ambient_util: 0.0,
                    online_refinement: true,
                    faults: degraded_plan(),
                    ..ScenarioConfig::paper(fig9_pattern(), policy, u * TRACKS_PER_UNIT)
                })
            })
        })
    }
}

impl Workload for Degraded {
    fn name(&self) -> &'static str {
        "degraded"
    }

    fn default_seed(&self) -> u64 {
        42
    }

    fn held_out_seed(&self) -> u64 {
        43
    }

    fn runs_per_sample(&self) -> u64 {
        DEGRADED_SEEDS * (UNITS.count() * POLICIES.len()) as u64
    }

    fn sim_secs_per_sample(&self) -> f64 {
        self.runs_per_sample() as f64 * PERIODS
    }

    fn setup_once(&mut self, traced: bool) -> SetupRep {
        let (p, rep) = build_predictor(traced);
        self.predictor = Some(p);
        rep
    }

    fn canary(&mut self, out: &Path) -> Result<(u64, u64), String> {
        let s = self.sample(self.default_seed(), out)?;
        Ok((crate::stats::fold(&s.run_digests), self.runs_per_sample()))
    }

    fn sample(&mut self, seed: u64, _out: &Path) -> Result<Sample, String> {
        let predictor = expect_predictor(&self.predictor);
        let mut run_digests = Vec::new();
        let mut point_ms = Vec::new();
        let t0 = Instant::now();
        for cfg in Self::configs(seed) {
            let t = Instant::now();
            let r = run_scenario(&cfg, predictor);
            point_ms.push(t.elapsed().as_secs_f64() * 1e3);
            run_digests.push(scenario_digest(&r.summary, &r.metrics));
        }
        let secs = t0.elapsed().as_secs_f64();
        Ok(Sample {
            secs,
            core_secs: secs,
            run_digests,
            point_ms,
            emit_secs: None,
        })
    }

    fn traced(
        &mut self,
        seed: u64,
        probes: &Probes,
        spans: &mut Spans,
        parent: u64,
    ) -> TracedSample {
        let predictor = expect_predictor(&self.predictor);
        let mut layers = Layers::default();
        let mut run_digests = Vec::new();
        let t0 = Instant::now();
        for cfg in Self::configs(seed) {
            let r = traced_run(&cfg, predictor, probes, &mut layers, spans, parent);
            run_digests.push(scenario_digest(&r.summary, &r.metrics));
        }
        TracedSample {
            core_secs: t0.elapsed().as_secs_f64(),
            run_digests,
            layers,
        }
    }
}

// ---------------------------------------------------------------------
// ambient-64
// ---------------------------------------------------------------------

/// `ambient-64`: a bare 64-node cluster under 60 % Poisson load per node
/// for 240 simulated seconds, through `Cluster::run`.
pub struct Ambient64;

/// Clusters built per set-up repetition: one construction takes tens of
/// microseconds, too short to time alone.
const AMBIENT_SETUP_BATCH: u32 = 50;

impl Workload for Ambient64 {
    fn name(&self) -> &'static str {
        "ambient-64"
    }

    fn default_seed(&self) -> u64 {
        64
    }

    fn held_out_seed(&self) -> u64 {
        65
    }

    fn runs_per_sample(&self) -> u64 {
        1
    }

    fn sim_secs_per_sample(&self) -> f64 {
        AMBIENT_HORIZON_S as f64
    }

    fn setup_once(&mut self, _traced: bool) -> SetupRep {
        let t0 = Instant::now();
        for i in 0..AMBIENT_SETUP_BATCH {
            std::hint::black_box(ambient_cluster(u64::from(i), None));
        }
        let secs = t0.elapsed().as_secs_f64() / f64::from(AMBIENT_SETUP_BATCH);
        SetupRep {
            secs,
            profile_secs: 0.0,
            fit_secs: 0.0,
        }
    }

    fn canary(&mut self, out: &Path) -> Result<(u64, u64), String> {
        let s = self.sample(self.default_seed(), out)?;
        Ok((crate::stats::fold(&s.run_digests), 1))
    }

    fn sample(&mut self, seed: u64, _out: &Path) -> Result<Sample, String> {
        let cluster = ambient_cluster(seed, None);
        let t0 = Instant::now();
        let outcome = cluster.run();
        let secs = t0.elapsed().as_secs_f64();
        Ok(Sample {
            secs,
            core_secs: secs,
            run_digests: vec![ambient_digest(&outcome.metrics)],
            point_ms: Vec::new(),
            emit_secs: None,
        })
    }

    fn traced(
        &mut self,
        seed: u64,
        probes: &Probes,
        spans: &mut Spans,
        parent: u64,
    ) -> TracedSample {
        let open = spans.begin(format!("run ambient-64 seed={seed}"), parent);
        let cluster = ambient_cluster(seed, Some(probes));
        let t0 = Instant::now();
        let outcome = cluster.run();
        let core_secs = t0.elapsed().as_secs_f64();
        let (epochs, loads) = probes.take();
        let perf = outcome.perf.expect("perf was enabled");
        let mut layers = Layers::default();
        layers.absorb(&perf, &outcome.metrics, &epochs, loads);
        spans.end(open, run_args(&perf, &epochs, loads));
        TracedSample {
            core_secs,
            run_digests: vec![ambient_digest(&outcome.metrics)],
            layers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_campaign_reproduces_run_campaign() {
        let mut split = profile_campaign();
        split.fit_all();
        assert_eq!(split.to_json(), models::run_campaign().to_json());
    }

    #[test]
    fn degraded_grid_covers_every_seed_unit_and_policy() {
        let cfgs: Vec<_> = Degraded::configs(42).collect();
        assert_eq!(cfgs.len() as u64, Degraded::default().runs_per_sample());
        assert_eq!(cfgs[0].seed, 168);
        assert_eq!(cfgs.last().map(|c| c.seed), Some(171));
        assert!(cfgs
            .iter()
            .all(|c| c.ambient_util == 0.0 && c.online_refinement));
    }
}
