//! Periodic pipeline tasks.
//!
//! A periodic task `T_i = [st_1, m_1, st_2, m_2, …, st_n, m_n]` (paper §3)
//! is a serial chain of subtasks connected by messages: subtask `st_k`
//! (k > 1) cannot execute before message `m_{k-1}` arrives. Subtasks can be
//! **replicated** at run time; the replicas split the period's data stream
//! and run concurrently on different processors (§3, item 6). This module
//! holds the static task description, the per-stage cost model, the current
//! replica placement `PS(st)`, and the in-flight state of period instances.

use std::sync::Arc;

use crate::ids::{MsgId, NodeId, StageId, SubtaskIdx, TaskId};
use crate::time::{SimDuration, SimTime};

/// Intrinsic CPU demand of one stage as a polynomial in the data size.
///
/// `demand_ms = quad·h² + lin·h + constant`, where `h` is the data size in
/// **hundreds of tracks** — the unit Eq. (3) uses. The quadratic term models
/// super-linear work such as pairwise correlation; it is what makes
/// replication effective (splitting a quadratic workload k ways costs each
/// replica 1/k² of the quadratic part).
#[derive(Debug, Clone, Copy, PartialEq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct PolynomialCost {
    /// ms per (hundreds of tracks)².
    pub quad: f64,
    /// ms per hundreds of tracks.
    pub lin: f64,
    /// Fixed ms per activation.
    pub constant: f64,
}

impl PolynomialCost {
    /// Creates a cost model; all coefficients must be finite and the demand
    /// non-negative over the domain (enforced as all-non-negative here).
    pub fn new(quad: f64, lin: f64, constant: f64) -> Self {
        assert!(
            quad >= 0.0 && lin >= 0.0 && constant >= 0.0,
            "cost coefficients must be non-negative"
        );
        assert!(quad.is_finite() && lin.is_finite() && constant.is_finite());
        PolynomialCost { quad, lin, constant }
    }

    /// Purely linear cost.
    pub fn linear(lin: f64, constant: f64) -> Self {
        Self::new(0.0, lin, constant)
    }

    /// CPU demand for processing `tracks` data items.
    pub fn demand(&self, tracks: u64) -> SimDuration {
        let h = tracks as f64 / 100.0;
        SimDuration::from_millis_f64(self.quad * h * h + self.lin * h + self.constant)
    }
}

/// Static description of one pipeline stage (subtask).
#[derive(Debug, Clone)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct StageSpec {
    /// Human-readable name (e.g. "Filter").
    pub name: String,
    /// Intrinsic CPU cost.
    pub cost: PolynomialCost,
    /// Whether the resource manager may replicate this stage (§3 item 6;
    /// Table 1 says 2 of the 5 subtasks are replicable).
    pub replicable: bool,
    /// Original placement of the stage.
    pub home: NodeId,
    /// Bytes of output produced per input track, defining the size of the
    /// message to the next stage.
    pub output_bytes_per_track: f64,
}

/// Static description of a periodic task.
#[derive(Debug, Clone)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct TaskSpec {
    /// Task id; must equal its index in the cluster's task table.
    pub id: TaskId,
    /// Human-readable name.
    pub name: String,
    /// Data arrival period `cy(T_i)` (Table 1: 1 s).
    pub period: SimDuration,
    /// Relative end-to-end deadline `dl(T_i)` (Table 1: 990 ms).
    pub deadline: SimDuration,
    /// Bytes per data item (Table 1: 80 B per track).
    pub track_bytes: u64,
    /// The serial chain of subtasks.
    pub stages: Vec<StageSpec>,
}

impl TaskSpec {
    /// Number of stages.
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }

    /// Indices of replicable stages.
    pub fn replicable_stages(&self) -> Vec<SubtaskIdx> {
        self.stages
            .iter()
            .enumerate()
            .filter(|(_, s)| s.replicable)
            .map(|(i, _)| SubtaskIdx::from_index(i))
            .collect()
    }

    /// Validates internal consistency; returns a description of the first
    /// problem found.
    pub fn validate(&self, n_nodes: usize) -> Result<(), String> {
        if self.stages.is_empty() {
            return Err(format!("task {}: no stages", self.id));
        }
        if self.period.is_zero() {
            return Err(format!("task {}: zero period", self.id));
        }
        if self.deadline.is_zero() {
            return Err(format!("task {}: zero deadline", self.id));
        }
        for (i, s) in self.stages.iter().enumerate() {
            if s.home.index() >= n_nodes {
                return Err(format!(
                    "task {} stage {i}: home node {} out of range (cluster has {n_nodes})",
                    self.id, s.home
                ));
            }
            if !s.output_bytes_per_track.is_finite() || s.output_bytes_per_track < 0.0 {
                return Err(format!("task {} stage {i}: bad output_bytes_per_track", self.id));
            }
        }
        Ok(())
    }
}

/// Splits `tracks` data items as evenly as possible across `k` replicas
/// (paper: each replica processes `1/k` of the total data size).
pub fn split_tracks(tracks: u64, k: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(k);
    split_tracks_into(tracks, k, &mut out);
    out
}

/// Allocation-free variant of [`split_tracks`]: clears `out` and fills it
/// with the per-replica shares, reusing its capacity. The dispatch hot path
/// calls this once per stage start with a scratch buffer.
pub fn split_tracks_into(tracks: u64, k: usize, out: &mut Vec<u64>) {
    assert!(k > 0, "split among zero replicas");
    let k64 = k as u64;
    let base = tracks / k64;
    let rem = (tracks % k64) as usize;
    out.clear();
    out.extend((0..k).map(|r| base + u64::from(r < rem)));
}

/// Progress of one replica of a stage within one period instance.
#[derive(Debug, Clone, Default)]
pub struct ReplicaProgress {
    /// Inbound messages still expected before the replica's job can start
    /// (0 for the first stage — fed by the sensor).
    pub msgs_expected: u32,
    /// Inbound messages received so far.
    pub msgs_received: u32,
    /// Tracks accumulated from received messages (for the first stage, the
    /// share assigned at release).
    pub tracks_in: u64,
    /// Worst observed inbound message delay (buffer + transmission +
    /// propagation).
    pub msg_delay: Option<SimDuration>,
    /// Observed execution latency (job release → completion).
    pub exec_latency: Option<SimDuration>,
    /// Origin ids of messages already counted, for suppressing spurious
    /// duplicates and late retransmissions on a lossy bus. Left empty
    /// (never pushed to) when the cluster runs without failure realism,
    /// so clean runs pay nothing.
    pub seen_origins: Vec<MsgId>,
}

impl ReplicaProgress {
    /// Returns to the freshly created state, keeping `seen_origins`'
    /// capacity.
    fn reset(&mut self) {
        let mut seen = std::mem::take(&mut self.seen_origins);
        seen.clear();
        *self = ReplicaProgress {
            seen_origins: seen,
            ..ReplicaProgress::default()
        };
    }
}

/// Progress of one stage within one period instance.
///
/// Between a predecessor with `k_src` replicas and this stage's `k_dst`
/// replicas, `max(k_src, k_dst)` messages carry the data stream (each
/// source replica ships its share; each destination replica may receive
/// several shares). A destination replica's CPU job is admitted once all
/// of its expected messages have arrived.
#[derive(Debug, Clone)]
pub struct StageProgress {
    /// When the stage's inputs were dispatched (predecessor completion, or
    /// instance release for the first stage).
    pub started: Option<SimTime>,
    /// When all replicas finished executing.
    pub completed: Option<SimTime>,
    /// Per-replica progress, in placement order.
    pub replicas: Vec<ReplicaProgress>,
    /// Replicas whose CPU job has completed.
    pub done_replicas: u32,
}

impl StageProgress {
    fn new(replicas: usize) -> Self {
        let mut p = StageProgress {
            started: None,
            completed: None,
            replicas: Vec::new(),
            done_replicas: 0,
        };
        p.reset(replicas);
        p
    }

    /// Returns to the state of `StageProgress::new(replicas)`, keeping the
    /// capacity of the replica list and of every surviving replica's
    /// `seen_origins`.
    fn reset(&mut self, replicas: usize) {
        self.started = None;
        self.completed = None;
        self.done_replicas = 0;
        self.replicas.truncate(replicas);
        self.replicas.iter_mut().for_each(ReplicaProgress::reset);
        self.replicas.resize_with(replicas, ReplicaProgress::default);
    }

    /// Worst observed inbound message delay across replicas, if all known.
    pub fn max_msg_delay(&self) -> Option<SimDuration> {
        max_known(self.replicas.iter().map(|r| r.msg_delay))
    }

    /// Worst observed execution latency across replicas, if all known.
    pub fn max_exec_latency(&self) -> Option<SimDuration> {
        max_known(self.replicas.iter().map(|r| r.exec_latency))
    }
}

/// The largest value, `None` if any is unknown, `Some(ZERO)` if there are
/// none.
fn max_known(mut values: impl Iterator<Item = Option<SimDuration>>) -> Option<SimDuration> {
    values.try_fold(SimDuration::ZERO, |m, v| Some(m.max(v?)))
}

/// One in-flight activation of a periodic task.
#[derive(Debug, Clone)]
pub struct InstanceState {
    /// Period instance number (0-based).
    pub instance: u64,
    /// Release (data arrival) time.
    pub released: SimTime,
    /// Data items arriving this period: `ds(T_i, c)`.
    pub tracks: u64,
    /// Placement frozen at release: replica nodes per stage. Shared with
    /// the task runtime's current placement (copy-on-write): releasing an
    /// instance clones only the `Arc`, and the runtime's copy diverges
    /// only when the controller actually re-places a stage.
    pub placement: Arc<Vec<Vec<NodeId>>>,
    /// Per-stage progress.
    pub stages: Vec<StageProgress>,
    /// Completion time of the last stage, once known.
    pub completed: Option<SimTime>,
    /// True if admission control shed this instance (released under
    /// overload and never executed; counts as a miss).
    pub shed: bool,
    /// Index of the instance's record in `RunMetrics::periods`, set at
    /// release.
    pub record: usize,
}

impl InstanceState {
    /// Creates a fresh instance with the given frozen placement.
    pub fn new(
        instance: u64,
        released: SimTime,
        tracks: u64,
        placement: Arc<Vec<Vec<NodeId>>>,
    ) -> Self {
        let mut inst = InstanceState {
            instance,
            released,
            tracks,
            placement: Arc::clone(&placement),
            stages: Vec::new(),
            completed: None,
            shed: false,
            record: 0,
        };
        inst.reset(instance, released, tracks, placement);
        inst
    }

    /// Re-initializes a retired instance in place to the state
    /// [`InstanceState::new`] builds from the same arguments, keeping the
    /// capacity of its stage, replica and dedup lists.
    pub fn reset(
        &mut self,
        instance: u64,
        released: SimTime,
        tracks: u64,
        placement: Arc<Vec<Vec<NodeId>>>,
    ) {
        self.instance = instance;
        self.released = released;
        self.tracks = tracks;
        self.completed = None;
        self.shed = false;
        self.stages.truncate(placement.len());
        for (s, p) in self.stages.iter_mut().zip(placement.iter()) {
            s.reset(p.len());
        }
        let have = self.stages.len();
        self.stages
            .extend(placement[have..].iter().map(|p| StageProgress::new(p.len())));
        self.placement = placement;
    }

    /// End-to-end latency, once complete.
    pub fn end_to_end(&self) -> Option<SimDuration> {
        self.completed.map(|c| c.since(self.released))
    }

    /// Whether the instance missed the given relative deadline.
    pub fn missed(&self, deadline: SimDuration) -> bool {
        if self.shed {
            return true;
        }
        match self.end_to_end() {
            Some(l) => l > deadline,
            None => false, // still running; undecided
        }
    }
}

/// Run-time state of a periodic task: spec, current placement, in-flight
/// instances.
pub struct TaskRuntime {
    /// The static description.
    pub spec: TaskSpec,
    /// Current replica placement per stage: `PS(st_j)`, ordered with the
    /// original processor first. Changes take effect at the next release.
    /// Held behind an `Arc` so each release shares it with the new
    /// instance instead of deep-cloning; mutation copies on write.
    pub placement: Arc<Vec<Vec<NodeId>>>,
    /// In-flight instances, at most `ClusterConfig::max_in_flight` of
    /// them, found by a linear search on the instance number.
    pub instances: Vec<InstanceState>,
    /// Most recent workload (`ds` of the latest released instance).
    pub last_tracks: u64,
    /// Completed and failed instances, kept for [`TaskRuntime::release`]
    /// to re-initialize so a steady-state release allocates nothing.
    retired: Vec<InstanceState>,
}

impl TaskRuntime {
    /// Creates the runtime with every stage placed singly on its home node.
    pub fn new(spec: TaskSpec) -> Self {
        let placement = Arc::new(spec.stages.iter().map(|s| vec![s.home]).collect());
        TaskRuntime {
            spec,
            placement,
            instances: Vec::new(),
            last_tracks: 0,
            retired: Vec::new(),
        }
    }

    /// Releases instance `instance` on the current placement, with its
    /// period record at `record`, recycling a retired instance when there
    /// is one.
    pub(crate) fn release(&mut self, instance: u64, released: SimTime, tracks: u64, record: usize) {
        let placement = Arc::clone(&self.placement);
        let mut inst = match self.retired.pop() {
            Some(mut inst) => {
                inst.reset(instance, released, tracks, placement);
                inst
            }
            None => InstanceState::new(instance, released, tracks, placement),
        };
        inst.record = record;
        self.instances.push(inst);
    }

    /// The in-flight instance numbered `instance`.
    pub fn instance(&self, instance: u64) -> Option<&InstanceState> {
        self.instances.iter().find(|i| i.instance == instance)
    }

    /// Mutable access to the in-flight instance numbered `instance`.
    pub fn instance_mut(&mut self, instance: u64) -> Option<&mut InstanceState> {
        self.instances.iter_mut().find(|i| i.instance == instance)
    }

    /// Removes the in-flight instance numbered `instance`.
    pub(crate) fn take_instance(&mut self, instance: u64) -> Option<InstanceState> {
        let i = self.instances.iter().position(|i| i.instance == instance)?;
        Some(self.instances.swap_remove(i))
    }

    /// Hands a completed or failed instance back for reuse by
    /// [`TaskRuntime::release`].
    pub(crate) fn retire(&mut self, inst: InstanceState) {
        self.retired.push(inst);
    }

    /// Replica count per stage under the current placement.
    pub fn replica_counts(&self) -> Vec<u32> {
        self.placement.iter().map(|p| p.len() as u32).collect()
    }

    /// Sets the placement of one stage. Invalid requests are rejected with
    /// a reason (the cluster logs and ignores them, mirroring a resource
    /// manager whose action failed).
    pub fn set_placement(
        &mut self,
        stage: SubtaskIdx,
        nodes: Vec<NodeId>,
        n_cluster_nodes: usize,
    ) -> Result<(), String> {
        let idx = stage.index();
        let Some(spec) = self.spec.stages.get(idx) else {
            return Err(format!("stage {stage} out of range"));
        };
        if nodes.is_empty() {
            return Err(format!("stage {stage}: empty placement"));
        }
        if !spec.replicable && nodes.len() > 1 {
            return Err(format!("stage {stage} ({}) is not replicable", spec.name));
        }
        for (i, n) in nodes.iter().enumerate() {
            if n.index() >= n_cluster_nodes {
                return Err(format!("stage {stage}: node {n} out of range"));
            }
            // Replica lists are tiny (a handful of nodes); a quadratic scan
            // beats allocating a set here.
            if nodes[..i].contains(n) {
                return Err(format!("stage {stage}: duplicate node {n}"));
            }
        }
        // Copy-on-write: in-flight instances sharing this placement keep
        // their frozen copy; only the runtime's view advances.
        Arc::make_mut(&mut self.placement)[idx] = nodes;
        Ok(())
    }

    /// Stage id helper.
    pub fn stage_id(&self, stage: SubtaskIdx) -> StageId {
        StageId::new(self.spec.id, stage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TaskSpec {
        TaskSpec {
            id: TaskId(0),
            name: "t".into(),
            period: SimDuration::from_secs(1),
            deadline: SimDuration::from_millis(990),
            track_bytes: 80,
            stages: vec![
                StageSpec {
                    name: "a".into(),
                    cost: PolynomialCost::linear(1.0, 0.5),
                    replicable: false,
                    home: NodeId(0),
                    output_bytes_per_track: 80.0,
                },
                StageSpec {
                    name: "b".into(),
                    cost: PolynomialCost::new(0.01, 1.0, 0.0),
                    replicable: true,
                    home: NodeId(1),
                    output_bytes_per_track: 40.0,
                },
            ],
        }
    }

    #[test]
    fn polynomial_cost_evaluates_in_hundreds_of_tracks() {
        let c = PolynomialCost::new(2.0, 3.0, 5.0);
        // 250 tracks = 2.5 hundreds: 2*6.25 + 3*2.5 + 5 = 25 ms.
        assert_eq!(c.demand(250), SimDuration::from_millis(25));
        assert_eq!(c.demand(0), SimDuration::from_millis(5));
    }

    #[test]
    fn linear_cost_has_no_quadratic_term() {
        let c = PolynomialCost::linear(2.0, 0.0);
        assert_eq!(c.demand(100), SimDuration::from_millis(2));
        assert_eq!(c.demand(200), SimDuration::from_millis(4));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_coefficients_rejected() {
        let _ = PolynomialCost::new(-1.0, 0.0, 0.0);
    }

    #[test]
    fn split_tracks_is_even_and_exhaustive() {
        assert_eq!(split_tracks(10, 3), vec![4, 3, 3]);
        assert_eq!(split_tracks(9, 3), vec![3, 3, 3]);
        assert_eq!(split_tracks(2, 3), vec![1, 1, 0]);
        assert_eq!(split_tracks(0, 2), vec![0, 0]);
        for (t, k) in [(1000u64, 7usize), (17, 4), (5, 5)] {
            let s = split_tracks(t, k);
            assert_eq!(s.iter().sum::<u64>(), t);
            let max = *s.iter().max().unwrap();
            let min = *s.iter().min().unwrap();
            assert!(max - min <= 1, "shares unbalanced: {s:?}");
        }
    }

    #[test]
    #[should_panic(expected = "zero replicas")]
    fn split_among_zero_replicas_panics() {
        split_tracks(5, 0);
    }

    #[test]
    fn split_tracks_into_overwrites_stale_buffer_contents() {
        let mut buf = vec![9, 9, 9, 9, 9];
        split_tracks_into(10, 3, &mut buf);
        assert_eq!(buf, vec![4, 3, 3]);
        split_tracks_into(7, 2, &mut buf);
        assert_eq!(buf, vec![4, 3]);
    }

    #[test]
    fn validate_catches_bad_specs() {
        let mut s = spec();
        assert!(s.validate(6).is_ok());
        s.stages[1].home = NodeId(9);
        assert!(s.validate(6).unwrap_err().contains("out of range"));
        let mut s2 = spec();
        s2.stages.clear();
        assert!(s2.validate(6).unwrap_err().contains("no stages"));
    }

    #[test]
    fn replicable_stage_listing() {
        assert_eq!(spec().replicable_stages(), vec![SubtaskIdx(1)]);
    }

    #[test]
    fn runtime_starts_with_home_placement() {
        let rt = TaskRuntime::new(spec());
        assert_eq!(*rt.placement, vec![vec![NodeId(0)], vec![NodeId(1)]]);
        assert_eq!(rt.replica_counts(), vec![1, 1]);
    }

    #[test]
    fn set_placement_enforces_replicability_and_validity() {
        let mut rt = TaskRuntime::new(spec());
        // Non-replicable stage cannot get 2 replicas.
        let err = rt
            .set_placement(SubtaskIdx(0), vec![NodeId(0), NodeId(1)], 6)
            .unwrap_err();
        assert!(err.contains("not replicable"));
        // Replicable stage can.
        rt.set_placement(SubtaskIdx(1), vec![NodeId(1), NodeId(3)], 6)
            .unwrap();
        assert_eq!(rt.replica_counts(), vec![1, 2]);
        // Duplicates rejected.
        assert!(rt
            .set_placement(SubtaskIdx(1), vec![NodeId(2), NodeId(2)], 6)
            .is_err());
        // Out-of-range node rejected.
        assert!(rt
            .set_placement(SubtaskIdx(1), vec![NodeId(7)], 6)
            .is_err());
        // Empty rejected.
        assert!(rt.set_placement(SubtaskIdx(1), vec![], 6).is_err());
        // Out-of-range stage rejected.
        assert!(rt.set_placement(SubtaskIdx(5), vec![NodeId(0)], 6).is_err());
    }

    #[test]
    fn set_placement_is_copy_on_write_for_shared_instances() {
        let mut rt = TaskRuntime::new(spec());
        // An in-flight instance shares the runtime's placement Arc.
        let inst = InstanceState::new(0, SimTime::ZERO, 10, Arc::clone(&rt.placement));
        rt.set_placement(SubtaskIdx(1), vec![NodeId(1), NodeId(3)], 6)
            .unwrap();
        // The instance's frozen view is untouched; the runtime diverged.
        assert_eq!(inst.placement[1], vec![NodeId(1)]);
        assert_eq!(rt.placement[1], vec![NodeId(1), NodeId(3)]);
    }

    #[test]
    fn instance_deadline_accounting() {
        let mut inst = InstanceState::new(
            3,
            SimTime::from_secs(3),
            500,
            Arc::new(vec![vec![NodeId(0)], vec![NodeId(1)]]),
        );
        assert!(!inst.missed(SimDuration::from_millis(990)));
        inst.completed = Some(SimTime::from_secs(3) + SimDuration::from_millis(1000));
        assert_eq!(inst.end_to_end(), Some(SimDuration::from_millis(1000)));
        assert!(inst.missed(SimDuration::from_millis(990)));
        assert!(!inst.missed(SimDuration::from_millis(1200)));
    }

    #[test]
    fn shed_instances_always_count_as_missed() {
        let mut inst = InstanceState::new(0, SimTime::ZERO, 10, Arc::new(vec![vec![NodeId(0)]]));
        inst.shed = true;
        assert!(inst.missed(SimDuration::from_secs(10)));
    }

    #[test]
    fn stage_progress_aggregates_worst_replica() {
        let mut p = StageProgress::new(2);
        assert_eq!(p.max_exec_latency(), None);
        p.replicas[0].exec_latency = Some(SimDuration::from_millis(5));
        assert_eq!(p.max_exec_latency(), None, "one replica still unknown");
        p.replicas[1].exec_latency = Some(SimDuration::from_millis(9));
        assert_eq!(p.max_exec_latency(), Some(SimDuration::from_millis(9)));
        p.replicas[0].msg_delay = Some(SimDuration::from_millis(1));
        p.replicas[1].msg_delay = Some(SimDuration::from_millis(3));
        assert_eq!(p.max_msg_delay(), Some(SimDuration::from_millis(3)));
        // No replicas: nothing is unknown, and the worst is zero.
        let empty = StageProgress::new(0);
        assert_eq!(empty.max_exec_latency(), Some(SimDuration::ZERO));
        assert_eq!(empty.max_msg_delay(), Some(SimDuration::ZERO));
    }

    /// An instance that ran with `dirty` placement, with every progress
    /// field touched.
    fn dirty_instance(dirty: Vec<Vec<NodeId>>) -> InstanceState {
        let mut inst = InstanceState::new(7, SimTime::from_secs(7), 900, Arc::new(dirty));
        for (j, stage) in inst.stages.iter_mut().enumerate() {
            stage.started = Some(SimTime::from_secs(7));
            stage.completed = Some(SimTime::from_secs(8));
            stage.done_replicas = stage.replicas.len() as u32;
            for (r, rep) in stage.replicas.iter_mut().enumerate() {
                rep.msgs_expected = 2;
                rep.msgs_received = 2;
                rep.tracks_in = 300;
                rep.msg_delay = Some(SimDuration::from_millis(4));
                rep.exec_latency = Some(SimDuration::from_millis(40));
                rep.seen_origins.extend([MsgId(j as u32), MsgId(r as u32 + 10)]);
            }
        }
        inst.completed = Some(SimTime::from_secs(8));
        inst.shed = true;
        inst
    }

    #[test]
    fn reset_instance_equals_a_new_one() {
        let three = vec![NodeId(0), NodeId(2), NodeId(3)];
        let one = vec![NodeId(1)];
        let wide = vec![vec![NodeId(0)], three.clone(), three.clone()];
        let narrow = vec![vec![NodeId(0)], one.clone(), one];
        // 3 replicas shrink to 1, and 1 grows to 3.
        for (dirty, next) in [(wide.clone(), narrow.clone()), (narrow, wide)] {
            let next = Arc::new(next);
            let mut inst = dirty_instance(dirty);
            inst.reset(12, SimTime::from_secs(12), 450, Arc::clone(&next));
            let fresh = InstanceState::new(12, SimTime::from_secs(12), 450, next);
            assert_eq!(format!("{inst:?}"), format!("{fresh:?}"));
        }
    }

    #[test]
    fn release_recycles_retired_instances() {
        let mut rt = TaskRuntime::new(spec());
        rt.release(0, SimTime::ZERO, 100, 0);
        let mut done = rt.take_instance(0).unwrap();
        assert!(rt.instances.is_empty());
        done.stages[1].replicas[0].seen_origins.push(MsgId(3));
        let stages = done.stages.as_ptr();
        rt.retire(done);
        rt.set_placement(SubtaskIdx(1), vec![NodeId(1), NodeId(3)], 6)
            .unwrap();
        rt.release(1, SimTime::from_secs(1), 200, 5);
        let inst = rt.instance(1).unwrap();
        assert_eq!(inst.stages.as_ptr(), stages, "the retired stage list is reused");
        let mut fresh = InstanceState::new(1, SimTime::from_secs(1), 200, Arc::clone(&rt.placement));
        fresh.record = 5;
        assert_eq!(format!("{inst:?}"), format!("{fresh:?}"));
        assert!(rt.retired.is_empty());
    }
}
