//! Observability exporters: Chrome trace-event JSON and decision JSONL.
//!
//! Turns the opt-in artifacts of an observed run — the [`TraceEvent`]
//! log in its [`BoundedSink`], the [`DecisionRecord`] audit stream, and
//! (optionally) the aggregated [`PerfReport`] — into files a human can
//! open:
//!
//! * [`chrome_trace`] renders the Chrome *trace-event format*
//!   (<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>),
//!   loadable in Perfetto or `chrome://tracing`. Stage executions become
//!   duration (`"X"`) slices; sheds, failures, placements, and every
//!   manager decision become instant (`"i"`) markers carrying the full
//!   record in `args`.
//! * [`decisions_jsonl`] renders one JSON object per line, for `jq`-style
//!   offline analysis.
//! * [`validate_chrome_trace`] re-parses an exported document and checks
//!   the schema invariants the viewers rely on — used by tests and the CI
//!   smoke step so a malformed export fails loudly, not when a human
//!   finally loads it weeks later.
//!
//! The exporters are pure functions over already-collected data: they run
//! after the simulation and cannot perturb it.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use rtds_arm::audit::DecisionRecord;
use rtds_sim::perf::{PerfReport, PHASE_NAMES};
use rtds_sim::time::SimTime;
use rtds_sim::sink::BoundedSink;
use rtds_sim::trace::TraceEvent;

/// Synthetic process id for simulation-time rows in the exported trace.
const PID_SIM: u32 = 1;
/// Synthetic process id for manager-decision rows.
const PID_DECISIONS: u32 = 2;
/// Synthetic process id for wall-clock perf phases (not simulation time).
const PID_PERF: u32 = 3;

fn event_name(e: &TraceEvent) -> &'static str {
    match e {
        TraceEvent::Release { .. } => "Release",
        TraceEvent::Shed { .. } => "Shed",
        TraceEvent::ReplicaDone { .. } => "ReplicaDone",
        TraceEvent::StageDone { .. } => "StageDone",
        TraceEvent::InstanceDone { .. } => "InstanceDone",
        TraceEvent::Placement { .. } => "Placement",
        TraceEvent::NodeFailed { .. } => "NodeFailed",
        TraceEvent::NodeRestarted { .. } => "NodeRestarted",
        TraceEvent::MessageLost { .. } => "MessageLost",
        TraceEvent::MessageDropped { .. } => "MessageDropped",
        TraceEvent::MessageDuplicated { .. } => "MessageDuplicated",
        TraceEvent::Retransmit { .. } => "Retransmit",
    }
}

/// One pre-rendered trace-event line plus its sort key.
struct Line {
    ts: u64,
    json: String,
}

fn push_instant(out: &mut Vec<Line>, ts: u64, name: &str, pid: u32, tid: u32, args: &str) {
    out.push(Line {
        ts,
        json: format!(
            "{{\"name\":\"{name}\",\"cat\":\"rtds\",\"ph\":\"i\",\"s\":\"t\",\
             \"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\"args\":{args}}}"
        ),
    });
}

fn push_span(out: &mut Vec<Line>, ts: u64, dur: u64, name: &str, pid: u32, tid: u32, args: &str) {
    out.push(Line {
        ts,
        json: format!(
            "{{\"name\":\"{name}\",\"cat\":\"rtds\",\"ph\":\"X\",\
             \"ts\":{ts},\"dur\":{dur},\"pid\":{pid},\"tid\":{tid},\"args\":{args}}}"
        ),
    });
}

/// Renders a Chrome trace-event JSON document from an observed run.
///
/// Timestamps are simulation microseconds (`ts`/`dur` are µs in the
/// trace-event format, so no scaling is needed). `ReplicaDone` and
/// `InstanceDone` carry observed latencies and are rendered as duration
/// slices ending at their completion instant; everything else is an
/// instant marker. `perf`, if given, adds the aggregated per-phase
/// wall-clock breakdown as slices under a separate synthetic process —
/// wall time, not simulation time, which the `args` spell out.
pub fn chrome_trace(
    trace: Option<&BoundedSink<TraceEvent>>,
    decisions: &[(SimTime, DecisionRecord)],
    perf: Option<&PerfReport>,
) -> String {
    let mut lines: Vec<Line> = Vec::new();

    if let Some(sink) = trace {
        for (now, e) in sink.events() {
            let ts = now.as_micros();
            let args = serde_json::to_string(e).unwrap_or_else(|_| "null".into());
            match e {
                TraceEvent::ReplicaDone { stage, latency, .. } => {
                    let dur = latency.as_micros();
                    push_span(
                        &mut lines,
                        ts.saturating_sub(dur),
                        dur,
                        event_name(e),
                        PID_SIM,
                        stage.subtask.0 + 1,
                        &args,
                    );
                }
                TraceEvent::InstanceDone { latency, .. } => {
                    let dur = latency.as_micros();
                    push_span(
                        &mut lines,
                        ts.saturating_sub(dur),
                        dur,
                        event_name(e),
                        PID_SIM,
                        0,
                        &args,
                    );
                }
                TraceEvent::StageDone { stage, .. } | TraceEvent::Placement { stage, .. } => {
                    push_instant(&mut lines, ts, event_name(e), PID_SIM, stage.subtask.0 + 1, &args);
                }
                _ => push_instant(&mut lines, ts, event_name(e), PID_SIM, 0, &args),
            }
        }
    }

    for (now, d) in decisions {
        let name = match d.arm {
            rtds_arm::audit::DecisionArm::Replicate => "ReplicateSubtask",
            rtds_arm::audit::DecisionArm::ShutDown => "ShutDownAReplica",
            rtds_arm::audit::DecisionArm::NoOp => "NoOp",
            rtds_arm::audit::DecisionArm::Repair => "RepairPlacement",
        };
        let args = serde_json::to_string(d).unwrap_or_else(|_| "null".into());
        push_instant(&mut lines, now.as_micros(), name, PID_DECISIONS, d.stage, &args);
    }

    if let Some(p) = perf {
        // Wall-clock phase totals have no simulation-time placement; lay
        // them end to end from t=0 so relative widths read as shares.
        let mut cursor = 0u64;
        for (i, name) in PHASE_NAMES.iter().enumerate() {
            if p.events[i] == 0 {
                continue;
            }
            let dur = (p.ns[i] / 1_000).max(1);
            let args = format!(
                "{{\"events\":{},\"wall_ns\":{},\"note\":\"aggregated wall time, not sim time\"}}",
                p.events[i], p.ns[i]
            );
            push_span(&mut lines, cursor, dur, name, PID_PERF, 0, &args);
            cursor += dur;
        }
    }

    lines.sort_by_key(|l| l.ts);
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, l) in lines.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&l.json);
    }
    out.push_str("\n]}\n");
    out
}

/// Renders the decision stream as JSON Lines: one
/// `{"at_us": <t>, "decision": {...}}` object per line, in emission order.
pub fn decisions_jsonl(decisions: &[(SimTime, DecisionRecord)]) -> String {
    let mut out = String::new();
    for (now, d) in decisions {
        let body = serde_json::to_string(d).unwrap_or_else(|_| "null".into());
        out.push_str(&format!(
            "{{\"at_us\":{},\"decision\":{}}}\n",
            now.as_micros(),
            body
        ));
    }
    out
}

/// Re-parses an exported Chrome trace and checks the invariants the
/// viewers rely on: a `traceEvents` array whose entries all carry string
/// `name`/`ph`, numeric `ts`/`pid`/`tid`, a `dur` on every `"X"` slice,
/// and non-decreasing `ts`. Returns the event count.
///
/// # Errors
/// Describes the first violated invariant.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let doc: serde_json::Value =
        serde_json::from_str(json).map_err(|e| format!("not valid JSON: {e:?}"))?;
    let events = doc["traceEvents"]
        .as_array()
        .ok_or("missing traceEvents array")?;
    let mut last_ts = 0.0f64;
    for (i, e) in events.iter().enumerate() {
        let ph = e["ph"]
            .as_str()
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        if e["name"].as_str().is_none() {
            return Err(format!("event {i}: missing name"));
        }
        let ts = e["ts"]
            .as_f64()
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        if e["pid"].as_u64().is_none() || e["tid"].as_u64().is_none() {
            return Err(format!("event {i}: missing pid/tid"));
        }
        if ph == "X" && e["dur"].as_f64().is_none() {
            return Err(format!("event {i}: X slice without dur"));
        }
        if ts < last_ts {
            return Err(format!("event {i}: ts went backwards ({ts} < {last_ts})"));
        }
        last_ts = ts;
    }
    Ok(events.len())
}

/// Runs one fully-observed probe scenario (quick predictive triangular
/// run at near-saturating workload — enough load that replication,
/// shutdown, and misses all occur) and writes the requested export files.
/// Returns the paths written. The trace carries no perf slices; `run_all
/// --perf` adds the aggregate it prints.
///
/// This backs the `--trace-out` / `--decisions-out` flags: the figure
/// runners themselves keep observability off so their outputs stay
/// byte-identical to the goldens, and the probe run supplies the
/// artifacts instead.
///
/// # Errors
/// Propagates file-creation and write failures.
pub fn write_observed_probe(
    trace_out: Option<&Path>,
    decisions_out: Option<&Path>,
) -> std::io::Result<Vec<PathBuf>> {
    write_probe(trace_out, decisions_out, None)
}

/// [`write_observed_probe`], with `perf` rendered into the trace as
/// wall-clock phase slices.
pub(crate) fn write_probe(
    trace_out: Option<&Path>,
    decisions_out: Option<&Path>,
    perf: Option<&PerfReport>,
) -> std::io::Result<Vec<PathBuf>> {
    if trace_out.is_none() && decisions_out.is_none() {
        return Ok(Vec::new());
    }
    let mut cfg = crate::scenario::ScenarioConfig::paper(
        crate::scenario::PatternSpec::Triangular { half_period: 10 },
        crate::scenario::PolicySpec::Predictive,
        14_000,
    );
    cfg.n_periods = 40;
    cfg.observe = true;
    let result = crate::scenario::run_scenario(&cfg, &crate::models::quick_predictor());

    let mut written = Vec::new();
    if let Some(path) = trace_out {
        let doc = chrome_trace(result.trace.as_ref(), &result.decisions, perf);
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(doc.as_bytes())?;
        written.push(path.to_path_buf());
    }
    if let Some(path) = decisions_out {
        let doc = decisions_jsonl(&result.decisions);
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(doc.as_bytes())?;
        written.push(path.to_path_buf());
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::quick_predictor;
    use crate::scenario::{run_scenario, PatternSpec, PolicySpec, ScenarioConfig};

    fn observed_result() -> crate::scenario::ScenarioResult {
        let mut cfg = ScenarioConfig::paper(
            PatternSpec::Triangular { half_period: 10 },
            PolicySpec::Predictive,
            14_000,
        );
        cfg.n_periods = 30;
        cfg.observe = true;
        run_scenario(&cfg, &quick_predictor())
    }

    #[test]
    fn chrome_trace_is_valid_and_carries_spans_and_decisions() {
        let r = observed_result();
        assert!(r.trace.is_some());
        assert!(!r.decisions.is_empty());
        let doc = chrome_trace(r.trace.as_ref(), &r.decisions, None);
        let n = validate_chrome_trace(&doc).expect("schema holds");
        assert!(n > 0, "trace should not be empty");
        assert!(doc.contains("\"ph\":\"X\""), "stage executions become slices");
        assert!(doc.contains("ReplicateSubtask"), "decisions become markers");
        assert!(doc.contains("\"eex_ms\""), "decision args keep the forecasts");
    }

    #[test]
    fn chrome_trace_includes_perf_phases_when_given() {
        let mut p = rtds_sim::perf::PerfReport::default();
        p.events[1] = 10;
        p.ns[1] = 5_000_000;
        let doc = chrome_trace(None, &[], Some(&p));
        validate_chrome_trace(&doc).expect("schema holds");
        assert!(doc.contains("\"dispatch\""));
        assert!(doc.contains("not sim time"));
    }

    #[test]
    fn decisions_jsonl_is_one_valid_object_per_line() {
        let r = observed_result();
        let doc = decisions_jsonl(&r.decisions);
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines.len(), r.decisions.len());
        for l in &lines {
            let v: serde_json::Value = serde_json::from_str(l).expect("valid JSON line");
            assert!(v["at_us"].as_u64().is_some());
            assert!(v["decision"]["arm"].as_str().is_some());
        }
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(
            validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"x\",\"ts\":1,\"pid\":1,\"tid\":0}]}")
                .unwrap_err()
                .contains("without dur")
        );
        assert_eq!(validate_chrome_trace("{\"traceEvents\":[]}"), Ok(0));
    }

    #[test]
    fn probe_writer_produces_loadable_files() {
        let dir = std::env::temp_dir().join("rtds-export-test");
        let trace = dir.join("trace.json");
        let decisions = dir.join("decisions.jsonl");
        let written = write_observed_probe(Some(&trace), Some(&decisions)).expect("writes ok");
        assert_eq!(written.len(), 2);
        let doc = std::fs::read_to_string(&trace).expect("trace file");
        validate_chrome_trace(&doc).expect("exported file validates");
        let jsonl = std::fs::read_to_string(&decisions).expect("decisions file");
        assert!(jsonl.lines().count() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
