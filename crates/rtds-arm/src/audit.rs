//! Decision-audit records.
//!
//! The paper's contribution is a *decision procedure* (Figs. 5–6):
//! forecast each candidate processor's `eex` + `ecd`, stop when the
//! forecast beats the subtask budget minus slack. A placement change
//! alone does not show whether that procedure worked — the interesting
//! part is which candidates were examined, what their forecasts said,
//! and how the threshold was derived. [`DecisionRecord`] captures one
//! control-cycle decision for one stage, including explicit no-ops, and
//! the manager records it into the shared
//! [`BoundedSink<DecisionRecord>`](rtds_sim::sink::BoundedSink) the
//! embedder attaches with
//! [`set_decision_sink`](crate::manager::ResourceManager::set_decision_sink).
//! Strictly opt-in: with no sink attached nothing is computed beyond what
//! the decision itself needed, and simulation outcomes are identical
//! either way.

use rtds_sim::ids::NodeId;

use crate::monitor::StageHealth;
use crate::predictive::CandidateStep;

/// Which arm of the management loop fired for a stage this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub enum DecisionArm {
    /// `ReplicateSubtask` ran (Fig. 5 predictive, Fig. 7 non-predictive,
    /// or the incremental variant) because the stage needed help.
    Replicate,
    /// `ShutDownAReplica` dropped the most recently added replica
    /// (Fig. 6) after sustained high slack.
    ShutDown,
    /// The stage was healthy and the cycle was an acting one, but no
    /// action was warranted.
    NoOp,
    /// Survivability repair: dead nodes were pruned from the replica set
    /// before the monitor ever looked at health.
    Repair,
}

/// One candidate processor as seen by the decision, with its forecast.
///
/// For forecasting policies the numbers come from the Fig. 5 audit trail
/// ([`CandidateStep`]); utilization-heuristic policies (non-predictive,
/// incremental) never compute `eex`/`ecd`, so those are `None` and only
/// `util_pct`/`accepted` are meaningful.
#[derive(Debug, Clone, PartialEq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct CandidateForecast {
    /// The candidate processor.
    pub node: NodeId,
    /// Its observed utilization at selection time, percent.
    pub util_pct: f64,
    /// Forecast execution latency (Eq. (3)), ms; `None` if the policy
    /// does not forecast.
    pub eex_ms: Option<f64>,
    /// Forecast inbound communication delay (Eqs. (4)–(6)), ms.
    pub ecd_ms: Option<f64>,
    /// Worst replica forecast over the enlarged set at this step, ms.
    pub worst_total_ms: Option<f64>,
    /// Whether the set including this candidate satisfied the stopping
    /// rule (forecast within threshold, or heuristic satisfied).
    pub accepted: bool,
}

impl From<CandidateStep> for CandidateForecast {
    fn from(s: CandidateStep) -> Self {
        CandidateForecast {
            node: s.node,
            util_pct: s.util_pct,
            eex_ms: Some(s.eex_ms),
            ecd_ms: Some(s.ecd_ms),
            worst_total_ms: Some(s.worst_total_ms),
            accepted: s.accepted,
        }
    }
}

/// One control-cycle decision for one stage: what the manager saw, what
/// it considered, and what it did.
#[derive(Debug, Clone, PartialEq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct DecisionRecord {
    /// Owning task index.
    pub task: u32,
    /// Stage index within the pipeline.
    pub stage: u32,
    /// Policy name (`"predictive"`, `"nonpredictive"`, …).
    pub policy: String,
    /// Which arm fired.
    pub arm: DecisionArm,
    /// The latest monitored health of the stage, if an observation had
    /// arrived by this cycle.
    pub health: Option<StageHealth>,
    /// Observed slack of the latest observation: budget minus observed
    /// stage latency, ms (negative when the stage overran its budget).
    /// `None` before the first observation or when deadlines are not yet
    /// assigned.
    pub observed_slack_ms: Option<f64>,
    /// The stage's deadline budget `dl(st)`, ms.
    pub budget_ms: f64,
    /// The stopping threshold `dl(st) − sl` the forecasts were compared
    /// against, ms.
    pub threshold_ms: f64,
    /// Candidate processors examined, in examination order; empty for
    /// no-op, shutdown, and repair decisions.
    pub candidates: Vec<CandidateForecast>,
    /// Replica set before the decision.
    pub before: Vec<NodeId>,
    /// Replica set the decision chose (equals `before` for a no-op).
    pub chosen: Vec<NodeId>,
    /// True if `ReplicateSubtask` ran out of processors and fell back to
    /// the best-effort set.
    pub out_of_processors: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> DecisionRecord {
        DecisionRecord {
            task: 0,
            stage: 2,
            policy: "predictive".into(),
            arm: DecisionArm::Replicate,
            health: Some(StageHealth::LowSlack),
            observed_slack_ms: Some(12.5),
            budget_ms: 200.0,
            threshold_ms: 160.0,
            candidates: vec![CandidateForecast {
                node: NodeId(4),
                util_pct: 5.0,
                eex_ms: Some(70.0),
                ecd_ms: Some(30.0),
                worst_total_ms: Some(110.0),
                accepted: true,
            }],
            before: vec![NodeId(2)],
            chosen: vec![NodeId(2), NodeId(4)],
            out_of_processors: false,
        }
    }

    #[test]
    fn decision_record_roundtrips_through_json() {
        let r = record();
        let js = serde_json::to_string(&r).unwrap();
        assert!(js.contains("\"arm\":\"Replicate\""), "{js}");
        assert!(js.contains("\"threshold_ms\":160.0"), "{js}");
        let back: DecisionRecord = serde_json::from_str(&js).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn candidate_forecast_from_step_preserves_every_field() {
        let s = CandidateStep {
            node: NodeId(1),
            util_pct: 42.0,
            eex_ms: 10.0,
            ecd_ms: 3.0,
            worst_total_ms: 13.0,
            accepted: false,
        };
        let c = CandidateForecast::from(s);
        assert_eq!(c.node, NodeId(1));
        assert_eq!(c.util_pct, 42.0);
        assert_eq!(c.eex_ms, Some(10.0));
        assert_eq!(c.ecd_ms, Some(3.0));
        assert_eq!(c.worst_total_ms, Some(13.0));
        assert!(!c.accepted);
    }
}
