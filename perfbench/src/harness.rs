//! Drives one workload: set-up repetitions, the canary, then untraced (and,
//! with tracing, paired traced) samples until the time budget is spent;
//! checks every output and reduces the samples to named metrics. Each
//! round's set-up and sample are timed next to a run of the reference
//! kernel ([`crate::calib`]), and end-to-end times are reported relative
//! to it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use crate::calib;
use crate::layers::{Layers, Probes};
use crate::pins::Pin;
use crate::spans::Spans;
use crate::stats::{fold, median, peak_rss_mb, quantile};
use crate::workloads::{Sample, SetupRep, TracedSample, Workload};

/// Set-up repetitions before the canary, as warm-up. One more runs before
/// every sample, so the timed repetitions spread over the whole run like
/// the samples do.
const SETUP_REPS: usize = 3;
/// Samples taken even when the budget is already spent.
const MIN_SAMPLES: usize = 3;
/// Runs of the first traced sample that keep a span per controller epoch.
const EPOCH_SPAN_RUNS: usize = 8;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable reasons for every failed check.
    pub problems: Vec<String>,
    /// Host seconds of every untraced sample, in order.
    pub sample_secs: Vec<f64>,
    /// Host seconds of every set-up repetition, in order.
    pub setup_secs: Vec<f64>,
    /// Host seconds of the reference kernel run in each sample's round.
    pub reference_secs: Vec<f64>,
}

pub struct Options<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: &'a Path,
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    nondeterministic: bool,
    problems: Vec<String>,
}

impl Tally {
    fn fail(&mut self, runs: u64, why: String) {
        self.failed += runs;
        self.problems.push(why);
    }
}

fn caught<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".into());
        Err(format!("panic: {msg}"))
    })
}

pub fn measure(
    w: &mut dyn Workload,
    opts: &Options,
    pin: Option<&Pin>,
    spans: &mut Spans,
) -> Report {
    let runs = w.runs_per_sample();
    let mut tally = Tally::default();
    let root = spans.begin(format!("workload {} seed={}", w.name(), opts.seed), 0);

    let setup_span = spans.begin("setup", root.id());
    let mut setup: Vec<SetupRep> = (0..SETUP_REPS).map(|_| w.setup_once(opts.trace)).collect();
    spans.end(setup_span, vec![("reps", SETUP_REPS as f64)]);

    let canary_span = spans.begin("canary", root.id());
    match caught(|| w.canary(opts.out)) {
        Ok((digest, n)) => {
            tally.attempted += n;
            match pin.and_then(|p| p.canary) {
                Some(want) if want != digest => tally.fail(
                    n,
                    format!("canary digest {digest:016x} differs from pinned {want:016x}"),
                ),
                Some(_) => {}
                None => tally.problems.push("note: no pinned canary digest".into()),
            }
        }
        Err(e) => tally.fail(runs, format!("canary: {e}")),
    }
    spans.end(canary_span, Vec::new());

    // The reference every sample must reproduce: the pinned digest at a
    // pinned seed, else the first sample's.
    let mut expected = pin.and_then(|p| p.seed_digest(opts.seed));
    let mut samples: Vec<Sample> = Vec::new();
    // Per sample: the host seconds of its round's set-up repetition and of
    // its round's reference kernel run.
    let mut round_setup: Vec<f64> = Vec::new();
    let mut reference: Vec<f64> = Vec::new();
    let mut traced: Vec<TracedSample> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut round = 0usize;
    while round < MIN_SAMPLES || Instant::now() < deadline {
        round += 1;
        let open = spans.begin("setup", root.id());
        let rep = w.setup_once(opts.trace);
        let setup_secs = rep.secs;
        setup.push(rep);
        spans.end(open, Vec::new());
        let open = spans.begin("reference", root.id());
        let (ref_secs, checksum) = calib::reference();
        spans.end(open, Vec::new());
        tally.attempted += runs;
        if checksum != calib::CHECKSUM {
            let want = calib::CHECKSUM;
            tally.fail(
                runs,
                format!("round {round}: reference checksum {checksum:016x}, expected {want:016x}"),
            );
            continue;
        }
        let open = spans.begin("sample", root.id());
        let sample = caught(|| w.sample(opts.seed, opts.out));
        spans.end(open, Vec::new());
        let sample = match sample {
            Ok(s) => s,
            Err(e) => {
                tally.fail(runs, format!("sample {round}: {e}"));
                continue;
            }
        };
        let digest = fold(&sample.run_digests);
        match expected {
            None => expected = Some(digest),
            Some(want) if want != digest => tally.fail(
                runs,
                format!("sample {round}: digest {digest:016x}, expected {want:016x}"),
            ),
            Some(_) => {}
        }
        if opts.trace {
            tally.attempted += runs;
            let probes = Probes::new(
                spans.origin(),
                if traced.is_empty() {
                    EPOCH_SPAN_RUNS
                } else {
                    0
                },
            );
            let open = spans.begin("traced sample", root.id());
            let id = open.id();
            let t = caught(|| Ok(w.traced(opts.seed, &probes, spans, id)));
            spans.end(open, Vec::new());
            match t {
                Ok(t) => {
                    // Observer effect: the traced assembly must reproduce
                    // the untraced outputs run for run.
                    let differing = t
                        .run_digests
                        .iter()
                        .zip(&sample.run_digests)
                        .filter(|(a, b)| a != b)
                        .count() as u64
                        + t.run_digests.len().abs_diff(sample.run_digests.len()) as u64;
                    if differing > 0 {
                        tally.fail(
                            differing,
                            format!("traced sample {round}: {differing} runs differ from untraced"),
                        );
                    }
                    if traced
                        .first()
                        .is_some_and(|f| f.layers.counts != t.layers.counts)
                    {
                        tally.nondeterministic = true;
                    }
                    traced.push(t);
                }
                Err(e) => tally.fail(runs, format!("traced sample {round}: {e}")),
            }
        }
        samples.push(sample);
        round_setup.push(setup_secs);
        reference.push(ref_secs);
    }
    if tally.nondeterministic {
        let why = "deterministic counters differ between traced samples";
        tally.problems.push(why.into());
    }

    let metrics = if opts.trace {
        let mut m = per_layer(w, &setup, &samples, &traced, pin, opts.seed, &mut tally);
        m.extend(host(&samples, &reference));
        m
    } else {
        end_to_end(w, &round_setup, &samples, &reference)
    };
    spans.end(
        root,
        vec![
            ("samples", samples.len() as f64),
            ("failed", tally.failed as f64),
        ],
    );
    Report {
        correct: tally.failed == 0 && !tally.nondeterministic && !samples.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        problems: tally.problems,
        sample_secs: samples.iter().map(|s| s.secs).collect(),
        setup_secs: setup.iter().map(|s| s.secs).collect(),
        reference_secs: reference,
    }
}

/// The smallest value, or 0 for none.
fn best(xs: impl Iterator<Item = f64>) -> f64 {
    let b = xs.fold(f64::INFINITY, f64::min);
    if b.is_finite() {
        b
    } else {
        0.0
    }
}

/// The timed body's best wall time. Where a sample is a series of
/// simulation runs, each run's best time over the run's samples is summed
/// (plus the best emission); otherwise it is the best sample.
fn best_body_secs(samples: &[Sample]) -> f64 {
    let points = samples.iter().map(|s| s.point_ms.len()).min().unwrap_or(0);
    if points == 0 {
        return best(samples.iter().map(|s| s.secs));
    }
    let runs: f64 = (0..points)
        .map(|i| best(samples.iter().map(|s| s.point_ms[i])))
        .sum();
    runs / 1e3 + best(samples.iter().filter_map(|s| s.emit_secs))
}

/// `REFERENCE_S` times the median over rounds of `secs / reference`.
fn calibrated_median(secs: &[f64], reference: &[f64]) -> f64 {
    let ratios: Vec<f64> = secs
        .iter()
        .zip(reference)
        .map(|(&s, &r)| ratio(s, r))
        .collect();
    calib::REFERENCE_S * median(&ratios)
}

/// End-to-end metrics, in seconds on the reference host (see
/// [`crate::calib`]). `run_s` is the best body time over the reference
/// kernel's best time: when the host lets this process run at full speed
/// at some point of the run, both floors show it, and when it never does,
/// both rise. `setup_s` is the median over rounds of the round's set-up
/// repetition over its reference run. Every raw time is printed on
/// standard error.
fn end_to_end(
    w: &dyn Workload,
    round_setup: &[f64],
    samples: &[Sample],
    reference: &[f64],
) -> Vec<Metric> {
    let run = calib::REFERENCE_S * ratio(best_body_secs(samples), best(reference.iter().copied()));
    vec![
        Metric {
            name: "setup_s",
            value: calibrated_median(round_setup, reference),
            unit: "s",
        },
        Metric {
            name: "run_s",
            value: run,
            unit: "s",
        },
        Metric {
            name: "sim_s_per_s",
            value: ratio(w.sim_secs_per_sample(), run),
            unit: "s/s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MiB",
        },
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per_layer(
    w: &dyn Workload,
    setup: &[SetupRep],
    samples: &[Sample],
    traced: &[TracedSample],
    pin: Option<&Pin>,
    seed: u64,
    tally: &mut Tally,
) -> Vec<Metric> {
    let empty = Layers::default();
    let first = traced.first().map_or(&empty, |t| &t.layers);
    let count = |k: &str| first.count(k) as f64;
    // Median over traced samples of a wall-clock quantity.
    let med = |f: &dyn Fn(&Layers) -> f64| {
        median(&traced.iter().map(|t| f(&t.layers)).collect::<Vec<_>>())
    };
    let epoch_us: Vec<f64> = traced
        .iter()
        .flat_map(|t| t.layers.epoch_ns.iter().map(|&n| n as f64 / 1e3))
        .collect();
    let points: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.point_ms.iter().copied())
        .collect();
    let uses_experiments = !points.is_empty();
    let untraced_core = median(&samples.iter().map(|s| s.core_secs).collect::<Vec<_>>());
    let traced_core = median(&traced.iter().map(|t| t.core_secs).collect::<Vec<_>>());
    let emit: Vec<f64> = samples.iter().filter_map(|s| s.emit_secs).collect();
    let mismatches = match pin.and_then(|p| p.seed_counters(seed)) {
        Some(want) => {
            // Pinned counters that differ or are gone, plus new ones.
            let n = want
                .iter()
                .filter(|(k, v)| first.counts.get(k.as_str()) != Some(v))
                .count()
                + first
                    .counts
                    .keys()
                    .filter(|k| !want.iter().any(|(w, _)| w == *k))
                    .count();
            if n > 0 {
                tally.problems.push(format!(
                    "note: {n} deterministic counters differ from the pins of {} seed {seed}",
                    w.name()
                ));
            }
            n as f64
        }
        None => 0.0,
    };
    let offered = count("net.messages_offered");
    let retx = count("net.retransmits");
    let actions = count("arm.actions");
    vec![
        Metric {
            name: "experiments.sweep_s",
            value: if uses_experiments { untraced_core } else { 0.0 },
            unit: "s",
        },
        Metric {
            name: "experiments.point_p50_ms",
            value: quantile(&points, 0.50),
            unit: "ms",
        },
        Metric {
            name: "experiments.point_p85_ms",
            value: quantile(&points, 0.85),
            unit: "ms",
        },
        Metric {
            name: "experiments.points",
            value: points.len() as f64,
            unit: "count",
        },
        Metric {
            name: "experiments.emit_s",
            value: median(&emit),
            unit: "s",
        },
        Metric {
            name: "dynbench.profile_s",
            value: median(&setup.iter().map(|r| r.profile_secs).collect::<Vec<_>>()),
            unit: "s",
        },
        Metric {
            name: "regression.fit_s",
            value: median(&setup.iter().map(|r| r.fit_secs).collect::<Vec<_>>()),
            unit: "s",
        },
        Metric {
            name: "arm.epochs",
            value: count("arm.epochs"),
            unit: "count",
        },
        Metric {
            name: "arm.busy_s",
            value: med(&|l| l.nanos("arm.busy") as f64 / 1e9),
            unit: "s",
        },
        Metric {
            name: "arm.epoch_p50_us",
            value: quantile(&epoch_us, 0.50),
            unit: "us",
        },
        Metric {
            name: "arm.epoch_p99_us",
            value: quantile(&epoch_us, 0.99),
            unit: "us",
        },
        Metric {
            name: "arm.acting_epochs",
            value: count("arm.acting_epochs"),
            unit: "count",
        },
        Metric {
            name: "arm.actions",
            value: actions,
            unit: "count",
        },
        Metric {
            name: "arm.accepted_ratio",
            value: ratio(actions - count("arm.rejected_actions"), actions),
            unit: "ratio",
        },
        Metric {
            name: "sim.loop_s",
            value: med(&|l| l.nanos("sim.loop") as f64 / 1e9),
            unit: "s",
        },
        Metric {
            name: "sim.attributed_share",
            value: med(&|l| ratio(l.nanos("sim.attributed") as f64, l.nanos("sim.loop") as f64)),
            unit: "ratio",
        },
        Metric {
            name: "sim.logical_events",
            value: count("sim.logical_events"),
            unit: "count",
        },
        Metric {
            name: "sim.ns_per_logical_event",
            value: med(&|l| {
                ratio(
                    l.nanos("sim.loop") as f64,
                    l.count("sim.logical_events") as f64,
                )
            }),
            unit: "ns",
        },
        Metric {
            name: "sim.queue.scheduled",
            value: count("sim.queue.scheduled"),
            unit: "count",
        },
        Metric {
            name: "sim.queue.popped",
            value: count("sim.queue.popped"),
            unit: "count",
        },
        Metric {
            name: "sim.queue.cancelled",
            value: count("sim.queue.cancelled"),
            unit: "count",
        },
        Metric {
            name: "sim.queue.heap_high_water",
            value: count("sim.queue.heap_high_water"),
            unit: "count",
        },
        Metric {
            name: "sim.lane.chain_links",
            value: count("sim.lane.chain_links"),
            unit: "count",
        },
        Metric {
            name: "sim.lane.bg_polls",
            value: count("sim.lane.bg_polls"),
            unit: "count",
        },
        Metric {
            name: "sim.lane.bg_bounds",
            value: count("sim.lane.bg_bounds"),
            unit: "count",
        },
        Metric {
            name: "dispatch.events",
            value: count("dispatch.events"),
            unit: "count",
        },
        Metric {
            name: "dispatch.ns",
            value: med(&|l| l.nanos("dispatch") as f64),
            unit: "ns",
        },
        Metric {
            name: "net.events",
            value: count("net.events"),
            unit: "count",
        },
        Metric {
            name: "net.ns",
            value: med(&|l| l.nanos("net") as f64),
            unit: "ns",
        },
        Metric {
            name: "net.messages_offered",
            value: offered,
            unit: "count",
        },
        Metric {
            name: "net.retx_per_msg",
            value: ratio(retx, offered),
            unit: "ratio",
        },
        Metric {
            name: "net.delivery_ratio",
            value: ratio(offered - retx - count("net.messages_lost"), offered - retx),
            unit: "ratio",
        },
        Metric {
            name: "fault.events",
            value: count("fault.events"),
            unit: "count",
        },
        Metric {
            name: "fault.node_restarts",
            value: count("fault.node_restarts"),
            unit: "count",
        },
        Metric {
            name: "tasks.period_release_ns",
            value: med(&|l| l.nanos("tasks.period_release") as f64),
            unit: "ns",
        },
        Metric {
            name: "load.arrivals",
            value: count("load.arrivals"),
            unit: "count",
        },
        Metric {
            name: "load.arrive_s",
            value: med(&|l| l.nanos("load.arrive") as f64 / 1e9),
            unit: "s",
        },
        Metric {
            name: "trace.run_s",
            value: traced_core,
            unit: "s",
        },
        Metric {
            name: "trace.overhead_s",
            value: traced_core - untraced_core,
            unit: "s",
        },
        Metric {
            name: "pins.counter_mismatches",
            value: mismatches,
            unit: "count",
        },
    ]
}

/// The host's speed during the run and the uncalibrated body time.
fn host(samples: &[Sample], reference: &[f64]) -> [Metric; 2] {
    [
        Metric {
            name: "host.reference_s",
            value: median(reference),
            unit: "s",
        },
        Metric {
            name: "host.run_wall_s",
            value: median(&samples.iter().map(|s| s.secs).collect::<Vec<_>>()),
            unit: "s",
        },
    ]
}
