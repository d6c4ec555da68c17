//! Structured run tracing.
//!
//! A lightweight, allocation-conscious event trace the cluster can emit
//! into: one [`TraceEvent`] per interesting state change (release, stage
//! completion, message delivery, placement change, shedding, node
//! failure). Tests assert against traces instead of printf-debugging, and
//! the `aaw_mission` example renders one. Disabled by default — the
//! trace is an opt-in [`BoundedSink`] that retains failure-class events
//! past its capacity ([`TraceEvent::is_failure_class`]).

use crate::ids::{MsgId, NodeId, StageId};
use crate::sink::BoundedSink;
use crate::time::SimDuration;

/// One traced state change.
#[derive(Debug, Clone, PartialEq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub enum TraceEvent {
    /// A period instance was released with this many tracks.
    Release {
        /// Instance number.
        instance: u64,
        /// Data items this period.
        tracks: u64,
    },
    /// A period instance was shed by admission control.
    Shed {
        /// Instance number.
        instance: u64,
    },
    /// One replica of a stage finished its CPU job.
    ReplicaDone {
        /// Stage.
        stage: StageId,
        /// Replica index.
        replica: u32,
        /// Instance number.
        instance: u64,
        /// Observed execution latency.
        latency: SimDuration,
    },
    /// All replicas of a stage finished.
    StageDone {
        /// Stage.
        stage: StageId,
        /// Instance number.
        instance: u64,
    },
    /// An instance completed end-to-end.
    InstanceDone {
        /// Instance number.
        instance: u64,
        /// End-to-end latency.
        latency: SimDuration,
        /// Whether the deadline was missed.
        missed: bool,
    },
    /// A placement change took effect.
    Placement {
        /// Stage whose replica set changed.
        stage: StageId,
        /// New replica nodes.
        nodes: Vec<NodeId>,
    },
    /// A node failed (fault injection).
    NodeFailed {
        /// The failed node.
        node: NodeId,
    },
    /// A crashed node came back online (cold caches, empty queues).
    NodeRestarted {
        /// The restarted node.
        node: NodeId,
    },
    /// A message was lost for good: delivered to a dead node with no
    /// retransmission pending, purged when its sender crashed, or
    /// abandoned after the retransmit budget ran out.
    MessageLost {
        /// Id of the original send.
        msg: MsgId,
        /// Intended destination.
        dst: NodeId,
    },
    /// The lossy bus corrupted a message after it burned its wire time.
    MessageDropped {
        /// Id of the original send.
        msg: MsgId,
    },
    /// The bus delivered a spurious duplicate of a message.
    MessageDuplicated {
        /// Id of the original send.
        msg: MsgId,
    },
    /// A sender timed out waiting for delivery and retransmitted.
    Retransmit {
        /// Id of the original send.
        msg: MsgId,
        /// Retransmission attempt number (1-based).
        attempt: u32,
    },
}

impl TraceEvent {
    /// True for events that witness a failure or a lost deadline: sheds,
    /// missed instances, node failures/restarts, and terminal message
    /// losses. These are what post-mortems and tests care most about, so
    /// the trace keeps them even past its capacity. Failure events are
    /// rare by nature (bounded by fault-plan entries and released
    /// instances, not by simulated time), so the bound stays effective.
    /// `Retransmit` and `MessageDuplicated` are *recovered* anomalies and
    /// deliberately excluded — under a lossy bus they are high-volume and
    /// would defeat the bound.
    pub fn is_failure_class(&self) -> bool {
        matches!(
            self,
            TraceEvent::Shed { .. }
                | TraceEvent::InstanceDone { missed: true, .. }
                | TraceEvent::NodeFailed { .. }
                | TraceEvent::NodeRestarted { .. }
                | TraceEvent::MessageLost { .. }
                | TraceEvent::MessageDropped { .. }
        )
    }
}

impl BoundedSink<TraceEvent> {
    /// Renders the trace as a human-readable log: one line per stored
    /// event, then the dropped count if any event was dropped.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (t, e) in self.events() {
            let _ = match e {
                TraceEvent::Release { instance, tracks } => {
                    writeln!(out, "{t} release   #{instance} tracks={tracks}")
                }
                TraceEvent::Shed { instance } => writeln!(out, "{t} SHED      #{instance}"),
                TraceEvent::ReplicaDone {
                    stage,
                    replica,
                    instance,
                    latency,
                } => writeln!(out, "{t} replica   {stage}[{replica}] #{instance} {latency}"),
                TraceEvent::StageDone { stage, instance } => {
                    writeln!(out, "{t} stage     {stage} #{instance}")
                }
                TraceEvent::InstanceDone {
                    instance,
                    latency,
                    missed,
                } => writeln!(
                    out,
                    "{t} done      #{instance} {latency}{}",
                    if *missed { " MISSED" } else { "" }
                ),
                TraceEvent::Placement { stage, nodes } => {
                    writeln!(out, "{t} placement {stage} -> {nodes:?}")
                }
                TraceEvent::NodeFailed { node } => writeln!(out, "{t} FAILURE   {node}"),
                TraceEvent::NodeRestarted { node } => writeln!(out, "{t} RESTART   {node}"),
                TraceEvent::MessageLost { msg, dst } => {
                    writeln!(out, "{t} MSG-LOST  {msg} -> {dst}")
                }
                TraceEvent::MessageDropped { msg } => writeln!(out, "{t} MSG-DROP  {msg}"),
                TraceEvent::MessageDuplicated { msg } => writeln!(out, "{t} MSG-DUP   {msg}"),
                TraceEvent::Retransmit { msg, attempt } => {
                    writeln!(out, "{t} RETX      {msg} attempt={attempt}")
                }
            };
        }
        if self.dropped() > 0 {
            let _ = writeln!(out, "({} further events dropped)", self.dropped());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{SubtaskIdx, TaskId};
    use crate::time::SimTime;

    fn stage() -> StageId {
        StageId::new(TaskId(0), SubtaskIdx(2))
    }

    #[test]
    fn failure_class_is_failures_not_recovered_anomalies() {
        let failures = [
            TraceEvent::NodeFailed { node: NodeId(3) },
            TraceEvent::NodeRestarted { node: NodeId(3) },
            TraceEvent::Shed { instance: 9 },
            TraceEvent::MessageLost { msg: MsgId(5), dst: NodeId(3) },
            TraceEvent::MessageDropped { msg: MsgId(5) },
            TraceEvent::InstanceDone {
                instance: 9,
                latency: SimDuration::from_millis(999),
                missed: true,
            },
        ];
        let ordinary = [
            TraceEvent::Release { instance: 10, tracks: 1 },
            TraceEvent::Retransmit { msg: MsgId(6), attempt: 1 },
            TraceEvent::MessageDuplicated { msg: MsgId(6) },
            TraceEvent::InstanceDone {
                instance: 10,
                latency: SimDuration::from_millis(500),
                missed: false,
            },
        ];
        assert!(failures.iter().all(TraceEvent::is_failure_class));
        assert!(!ordinary.iter().any(TraceEvent::is_failure_class));
    }

    #[test]
    fn render_is_line_oriented_and_labeled() {
        let mut s = BoundedSink::retaining(2, TraceEvent::is_failure_class);
        s.record(
            SimTime::from_millis(5),
            TraceEvent::InstanceDone {
                instance: 3,
                latency: SimDuration::from_millis(700),
                missed: true,
            },
        );
        s.record(
            SimTime::from_millis(6),
            TraceEvent::Placement {
                stage: stage(),
                nodes: vec![NodeId(2), NodeId(5)],
            },
        );
        for i in 0..3 {
            s.record(SimTime::from_millis(7 + i), TraceEvent::Release { instance: i, tracks: 1 });
        }
        let r = s.render();
        assert!(r.contains("MISSED"));
        assert!(r.contains("placement"));
        assert!(r.ends_with("(3 further events dropped)\n"), "{r}");
        assert_eq!(r.lines().count(), 3);
    }

    #[test]
    fn failure_realism_events_render_distinctly() {
        let mut s = BoundedSink::bounded(8);
        s.record(SimTime::ZERO, TraceEvent::NodeRestarted { node: NodeId(2) });
        s.record(SimTime::ZERO, TraceEvent::MessageLost { msg: MsgId(7), dst: NodeId(1) });
        s.record(SimTime::ZERO, TraceEvent::MessageDropped { msg: MsgId(8) });
        s.record(SimTime::ZERO, TraceEvent::MessageDuplicated { msg: MsgId(9) });
        s.record(SimTime::ZERO, TraceEvent::Retransmit { msg: MsgId(7), attempt: 2 });
        let r = s.render();
        for needle in ["RESTART", "MSG-LOST", "MSG-DROP", "MSG-DUP", "RETX", "attempt=2"] {
            assert!(r.contains(needle), "missing {needle}:\n{r}");
        }
    }
}
