//! CPU jobs.
//!
//! A [`Job`] is one contiguous piece of CPU demand queued at a node: either
//! one replica of one pipeline stage processing its share of the period's
//! data stream, or a slice of synthetic background load. The scheduler
//! interleaves jobs; each job's remaining service time travels with it
//! through the node's ready queue.

use crate::ids::{LoadGenId, NodeId, StageId};
use crate::time::SimTime;

/// What a job is doing, for attribution in metrics and traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// One replica of a pipeline stage for one period instance.
    Stage {
        /// Which stage of which task.
        stage: StageId,
        /// Replica index within the stage's current placement (0 = original).
        replica: u32,
        /// Period instance number this job belongs to.
        instance: u64,
    },
    /// Synthetic background load from a generator.
    Background(LoadGenId),
}

impl JobKind {
    /// True for application (stage) work as opposed to background load.
    pub fn is_stage(&self) -> bool {
        matches!(self, JobKind::Stage { .. })
    }
}

/// One unit of CPU demand on one node: what a completion or the node's
/// death needs to know of it. Its remaining demand and priority travel
/// with it through the node's ready queue ([`crate::sched::Entry`]).
#[derive(Debug, Clone)]
pub struct Job {
    /// Node whose CPU this job consumes.
    pub node: NodeId,
    /// What the job is.
    pub kind: JobKind,
    /// When the job entered the ready queue.
    pub released: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{SubtaskIdx, TaskId};

    #[test]
    fn kind_classification() {
        let stage = JobKind::Stage { stage: StageId::new(TaskId(0), SubtaskIdx(2)), replica: 1, instance: 42 };
        assert!(stage.is_stage());
        assert!(!JobKind::Background(LoadGenId(3)).is_stage());
    }
}
