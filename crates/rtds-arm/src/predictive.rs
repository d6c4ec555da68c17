//! The predictive `ReplicateSubtask` algorithm (paper Fig. 5).
//!
//! Given a candidate subtask with replica set `PS(st)`, the algorithm
//! repeatedly adds the least-utilized processor not yet hosting a replica,
//! then **forecasts** every replica's latency: each replica will process
//! `1/|PS|` of the data stream, its execution latency comes from the
//! Eq. (3) regression at the replica's node utilization, and its inbound
//! message delay from Eqs. (4)–(6) at the current periodic workload. It
//! stops as soon as every replica's forecast total fits within the
//! subtask's deadline minus the required slack (`sl = 0.2 · dl`), and
//! fails if processors run out first.

use rtds_sim::ids::NodeId;
use rtds_sim::time::SimDuration;

use crate::predictor::Predictor;

/// Why `replicate_subtask` could not find a satisfying replica set.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplicateFailure {
    /// Every processor already hosts a replica and the forecast still
    /// exceeds the budget (Fig. 5 step 2.1).
    OutOfProcessors {
        /// The best (complete) replica set reached before giving up.
        best_effort: Vec<NodeId>,
        /// The worst replica forecast with that set, ms.
        worst_forecast_ms: f64,
    },
}

/// Inputs that vary per invocation of Fig. 5.
#[derive(Debug, Clone)]
pub struct ReplicationRequest<'a> {
    /// Current replica set `PS(st)` (ordered, original first).
    pub current: &'a [NodeId],
    /// Observed utilization `ut(p, t)` per node, percent, indexed by node.
    pub node_util_pct: &'a [f64],
    /// Pipeline index of the candidate subtask.
    pub stage: usize,
    /// Data items the subtask must process this period (`ds(T_i, c)`).
    pub tracks: u64,
    /// Total periodic workload `Σ ds` for Eq. (5).
    pub total_periodic_tracks: u64,
    /// The subtask's deadline budget `dl(st)` (here: its combined
    /// message + execution budget, which is what its forecast total is
    /// compared against).
    pub budget: SimDuration,
    /// Required slack `sl` (the paper: `0.2 · dl(st)`).
    pub slack: SimDuration,
}

/// How Fig. 5's step 3 picks the next host — the paper uses the
/// least-utilized processor; the alternatives exist for the DESIGN.md
/// ablation of that choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[derive(serde::Serialize, serde::Deserialize)]
pub enum ProcessorChoice {
    /// The paper's rule: lowest observed utilization, ties to lower id.
    #[default]
    LeastUtilized,
    /// Lowest node id not yet hosting a replica (utilization-blind).
    FirstAvailable,
    /// Deterministic pseudorandom pick (hash of the candidate set size and
    /// the stage), utilization-blind.
    Pseudorandom,
}

impl ProcessorChoice {
    fn pick(self, candidates: &mut dyn Iterator<Item = NodeId>, utils: &[f64], salt: usize) -> Option<NodeId> {
        match self {
            ProcessorChoice::LeastUtilized => candidates.min_by(|a, b| {
                utils[a.index()]
                    .partial_cmp(&utils[b.index()])
                    .expect("utilization is never NaN")
                    .then(a.cmp(b))
            }),
            ProcessorChoice::FirstAvailable => candidates.min(),
            ProcessorChoice::Pseudorandom => {
                let all: Vec<NodeId> = candidates.collect();
                if all.is_empty() {
                    None
                } else {
                    // splitmix-style mix of the salt for a stable pick.
                    let mut z = salt as u64 ^ 0x9E37_79B9_7F4A_7C15;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z ^= z >> 27;
                    Some(all[(z % all.len() as u64) as usize])
                }
            }
        }
    }
}

/// One candidate processor examined by an audited Fig. 5 run: the node,
/// the utilization it was picked at, its own forecast with the enlarged
/// replica set, the worst forecast across that set, and whether the set
/// was accepted (forecast within threshold) at that size.
#[derive(Debug, Clone, PartialEq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct CandidateStep {
    /// The processor added at this step.
    pub node: NodeId,
    /// Its observed utilization at selection time, percent.
    pub util_pct: f64,
    /// Forecast execution latency of this node's replica (Eq. (3)), ms.
    pub eex_ms: f64,
    /// Forecast inbound communication delay (Eqs. (4)–(6)), ms; 0 for
    /// stage 0, which has no inbound message.
    pub ecd_ms: f64,
    /// Worst replica forecast across the whole enlarged set, ms — the
    /// value Fig. 5 compares against the threshold.
    pub worst_total_ms: f64,
    /// Whether the enlarged set satisfied `worst ≤ budget − slack`.
    pub accepted: bool,
}

/// Fig. 5. Returns the satisfying replica set (a strict superset of
/// `current`, in the order `choice` picks hosts) or a failure.
///
/// `choice` is the host-selection rule: the paper's rule is
/// [`ProcessorChoice::LeastUtilized`]; the others are ablations. When
/// `audit` is given, every processor examined is appended to it with its
/// forecast against the threshold. The decision is identical with or
/// without the audit trail — it only records what the algorithm computes
/// anyway (plus the added node's own eex/ecd split, derived from the same
/// predictor calls).
///
/// ```
/// use rtds_arm::predictive::{replicate_subtask, ProcessorChoice, ReplicationRequest};
/// use rtds_arm::predictor::analytic_predictor;
/// use rtds_dynbench::app::aaw_task;
/// use rtds_regression::{BufferDelayModel, CommDelayModel};
/// use rtds_sim::ids::NodeId;
/// use rtds_sim::time::SimDuration;
///
/// let predictor = analytic_predictor(
///     &aaw_task(),
///     CommDelayModel::new(BufferDelayModel::from_slope(0.0005), 100e6),
/// );
/// let current = [NodeId(2)];
/// let utils = [10.0; 6];
/// let budget = SimDuration::from_millis(200);
/// let ps = replicate_subtask(
///     &ReplicationRequest {
///         current: &current,
///         node_util_pct: &utils,
///         stage: 2, // Filter
///         tracks: 10_000,
///         total_periodic_tracks: 10_000,
///         budget,
///         slack: budget.mul_f64(0.2),
///     },
///     &predictor,
///     ProcessorChoice::LeastUtilized,
///     None,
/// )
/// .expect("an idle cluster can absorb this");
/// assert!(ps.len() >= 2 && ps[0] == NodeId(2));
/// ```
pub fn replicate_subtask(
    req: &ReplicationRequest<'_>,
    predictor: &Predictor,
    choice: ProcessorChoice,
    mut audit: Option<&mut Vec<CandidateStep>>,
) -> Result<Vec<NodeId>, ReplicateFailure> {
    let n_nodes = req.node_util_pct.len();
    assert!(!req.current.is_empty(), "replica set can never be empty");
    assert!(req.stage < predictor.n_stages(), "stage out of range");
    let mut ps: Vec<NodeId> = req.current.to_vec();
    let threshold = req.budget.saturating_sub(req.slack).as_millis_f64();

    loop {
        // Step 1-3: find the next processor outside PS per the rule.
        let candidate = choice.pick(
            &mut (0..n_nodes).map(NodeId::from_index).filter(|n| !ps.contains(n)),
            req.node_util_pct,
            req.stage * 31 + ps.len(),
        );
        let Some(p) = candidate else {
            // Step 2.1: no processors left.
            let worst = worst_forecast_ms(&ps, req, predictor);
            return Err(ReplicateFailure::OutOfProcessors {
                best_effort: ps,
                worst_forecast_ms: worst,
            });
        };
        // Steps 4-5: add it.
        ps.push(p);
        // Step 6: forecast every replica with the enlarged set.
        let worst = worst_forecast_ms(&ps, req, predictor);
        let accepted = worst <= threshold;
        if let Some(trail) = audit.as_deref_mut() {
            let (eex_ms, ecd_ms) = replica_forecast_ms(p, ps.len(), req, predictor);
            trail.push(CandidateStep {
                node: p,
                util_pct: req.node_util_pct[p.index()],
                eex_ms,
                ecd_ms,
                worst_total_ms: worst,
                accepted,
            });
        }
        if accepted {
            // Step 7.
            return Ok(ps);
        }
        // Step 6.6.1: need another replica; loop.
    }
}

/// The (eex, ecd) forecast in ms for one replica of the set, at set size
/// `k` — the per-node split behind [`worst_forecast_ms`].
fn replica_forecast_ms(
    q: NodeId,
    k: usize,
    req: &ReplicationRequest<'_>,
    predictor: &Predictor,
) -> (f64, f64) {
    let share = req.tracks.div_ceil(k as u64);
    let eex = predictor.eex(req.stage, share, req.node_util_pct[q.index()]);
    let ecd = if req.stage == 0 {
        SimDuration::ZERO
    } else {
        predictor.ecd(req.stage - 1, share, req.total_periodic_tracks)
    };
    (eex.as_millis_f64(), ecd.as_millis_f64())
}

/// The forecast total (eex + ecd, ms) of the worst-off replica under the
/// given replica set — Fig. 5 steps 6.1–6.5 for every `q ∈ PS(st)`.
pub fn worst_forecast_ms(
    ps: &[NodeId],
    req: &ReplicationRequest<'_>,
    predictor: &Predictor,
) -> f64 {
    let k = ps.len() as u64;
    // Step 6.2: each replica processes 1/|PS| of the data (round up so the
    // forecast covers the largest share).
    let share = req.tracks.div_ceil(k);
    let mut worst = 0.0f64;
    for &q in ps {
        let u = req.node_util_pct[q.index()];
        // Step 6.3.
        let eex = predictor.eex(req.stage, share, u);
        // Step 6.4: the inbound message carries the replica's share; its
        // size is the predecessor's output for that share. Stage 0 has no
        // inbound message.
        let ecd = if req.stage == 0 {
            SimDuration::ZERO
        } else {
            predictor.ecd(req.stage - 1, share, req.total_periodic_tracks)
        };
        // Step 6.5.
        let total = (eex + ecd).as_millis_f64();
        worst = worst.max(total);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use ProcessorChoice::LeastUtilized;
    use crate::predictor::analytic_predictor;
    use rtds_dynbench::app::aaw_task;
    use rtds_regression::buffer::{BufferDelayModel, CommDelayModel};

    fn predictor() -> Predictor {
        analytic_predictor(
            &aaw_task(),
            CommDelayModel::new(BufferDelayModel::from_slope(0.0005), 100e6),
        )
    }

    fn ms(v: f64) -> SimDuration {
        SimDuration::from_millis_f64(v)
    }

    fn req<'a>(
        current: &'a [NodeId],
        utils: &'a [f64],
        tracks: u64,
        budget_ms: f64,
    ) -> ReplicationRequest<'a> {
        ReplicationRequest {
            current,
            node_util_pct: utils,
            stage: 2, // Filter
            tracks,
            total_periodic_tracks: tracks,
            budget: ms(budget_ms),
            slack: ms(0.2 * budget_ms),
        }
    }

    #[test]
    fn adds_exactly_enough_replicas() {
        // Filter at 10_000 tracks: demand = 0.010*100^2 + 0.9*100 = 190 ms
        // at u=0. Budget 200 ms with 40 ms slack -> threshold 160 ms.
        // 1 replica: ~190+ecd -> too slow. 2 replicas (5_000 each):
        // 25+45=70 ms exec + ~30 ms msg -> fits.
        let utils = [5.0; 6];
        let current = [NodeId(2)];
        let r = req(&current, &utils, 10_000, 200.0);
        let ps = replicate_subtask(&r, &predictor(), LeastUtilized, None).unwrap();
        assert_eq!(ps.len(), 2, "one extra replica should suffice: {ps:?}");
        assert_eq!(ps[0], NodeId(2), "original stays first");
    }

    #[test]
    fn always_adds_at_least_one_replica() {
        // Called as a candidate even if the forecast already fits: Fig. 5
        // adds a processor before the first check.
        let utils = [5.0; 6];
        let current = [NodeId(2)];
        let r = req(&current, &utils, 100, 900.0);
        let ps = replicate_subtask(&r, &predictor(), LeastUtilized, None).unwrap();
        assert_eq!(ps.len(), 2);
    }

    #[test]
    fn picks_least_utilized_processors_in_order() {
        let utils = [50.0, 10.0, 0.0, 30.0, 5.0, 90.0];
        let current = [NodeId(2)];
        // Big load, small budget: forces several additions.
        let r = req(&current, &utils, 16_000, 260.0);
        let ps = replicate_subtask(&r, &predictor(), LeastUtilized, None).unwrap();
        // Greedy order after the original (node 2): 4 (5 %), 1 (10 %), ...
        assert_eq!(ps[0], NodeId(2));
        assert_eq!(ps[1], NodeId(4));
        if ps.len() > 2 {
            assert_eq!(ps[2], NodeId(1));
        }
    }

    #[test]
    fn fails_when_processors_run_out() {
        let utils = [95.0; 3]; // tiny, saturated cluster
        let current = [NodeId(0)];
        let mut r = req(&current, &utils, 17_500, 100.0);
        r.node_util_pct = &utils;
        match replicate_subtask(&r, &predictor(), LeastUtilized, None) {
            Err(ReplicateFailure::OutOfProcessors {
                best_effort,
                worst_forecast_ms,
            }) => {
                assert_eq!(best_effort.len(), 3, "all processors used");
                assert!(worst_forecast_ms > 80.0);
            }
            Ok(ps) => panic!("should not satisfy 100 ms budget: {ps:?}"),
        }
    }

    #[test]
    fn higher_budget_needs_fewer_replicas() {
        let utils = [10.0; 6];
        let current = [NodeId(2)];
        let replicas = |budget_ms| {
            let r = req(&current, &utils, 14_000, budget_ms);
            replicate_subtask(&r, &predictor(), LeastUtilized, None).map_or(6, |p| p.len())
        };
        let (tight, loose) = (replicas(250.0), replicas(800.0));
        assert!(loose <= tight, "loose budget {loose} vs tight {tight}");
    }

    #[test]
    fn worst_forecast_decreases_with_more_replicas() {
        let utils = [10.0; 6];
        let current = [NodeId(2)];
        let r = req(&current, &utils, 12_000, 500.0);
        let one = worst_forecast_ms(&[NodeId(2)], &r, &predictor());
        let two = worst_forecast_ms(&[NodeId(2), NodeId(5)], &r, &predictor());
        let three = worst_forecast_ms(&[NodeId(2), NodeId(5), NodeId(0)], &r, &predictor());
        assert!(two < one, "{two} !< {one}");
        assert!(three < two, "{three} !< {two}");
    }

    #[test]
    fn forecast_accounts_for_replica_node_utilization() {
        let busy = [80.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let idle = [0.0; 6];
        let current = [NodeId(0)];
        let r_busy = req(&current, &busy, 8_000, 500.0);
        let r_idle = req(&current, &idle, 8_000, 500.0);
        let p = predictor();
        assert!(
            worst_forecast_ms(&[NodeId(0)], &r_busy, &p)
                > worst_forecast_ms(&[NodeId(0)], &r_idle, &p)
        );
    }

    #[test]
    fn stage_zero_has_no_inbound_message_cost() {
        let utils = [0.0; 6];
        let current = [NodeId(0)];
        let mut r = req(&current, &utils, 8_000, 500.0);
        r.stage = 0;
        let w = worst_forecast_ms(&[NodeId(0)], &r, &predictor());
        // Radar: 0.08 ms per hundred tracks * 80 = 6.4 ms, no ecd.
        assert!((w - 6.4).abs() < 0.5, "{w}");
    }

    #[test]
    fn processor_choice_first_available_ignores_utilization() {
        let utils = [90.0, 0.0, 50.0, 0.0, 0.0, 0.0];
        let current = [NodeId(2)];
        let r = req(&current, &utils, 12_000, 400.0);
        let ps =
            replicate_subtask(&r, &predictor(), ProcessorChoice::FirstAvailable, None).unwrap();
        // FirstAvailable adds node 0 (busiest!) before node 1.
        assert_eq!(ps[1], NodeId(0));
    }

    #[test]
    fn processor_choice_pseudorandom_is_deterministic() {
        let utils = [10.0; 6];
        let current = [NodeId(2)];
        let r = req(&current, &utils, 12_000, 400.0);
        let a = replicate_subtask(&r, &predictor(), ProcessorChoice::Pseudorandom, None).unwrap();
        let b = replicate_subtask(&r, &predictor(), ProcessorChoice::Pseudorandom, None).unwrap();
        assert_eq!(a, b);
        // Still a valid set.
        let mut seen = std::collections::HashSet::new();
        assert!(a.iter().all(|n| seen.insert(*n)));
    }

    #[test]
    fn audited_run_matches_unaudited_and_explains_each_step() {
        let utils = [50.0, 10.0, 0.0, 30.0, 5.0, 90.0];
        let current = [NodeId(2)];
        let r = req(&current, &utils, 16_000, 260.0);
        let p = predictor();
        let plain = replicate_subtask(&r, &p, LeastUtilized, None).unwrap();
        let mut trail = Vec::new();
        let audited =
            replicate_subtask(&r, &p, LeastUtilized, Some(&mut trail)).unwrap();
        assert_eq!(plain, audited, "audit must not change the decision");
        // One step per processor added beyond the original set.
        assert_eq!(trail.len(), audited.len() - current.len());
        // Exactly the last step is accepted; earlier ones were rejected.
        assert!(trail.last().unwrap().accepted);
        assert!(trail[..trail.len() - 1].iter().all(|s| !s.accepted));
        let threshold = r.budget.saturating_sub(r.slack).as_millis_f64();
        for (i, s) in trail.iter().enumerate() {
            assert_eq!(s.node, audited[current.len() + i]);
            assert_eq!(s.util_pct, utils[s.node.index()]);
            assert!(s.eex_ms > 0.0 && s.ecd_ms > 0.0);
            // The worst forecast bounds this replica's own forecast and
            // acceptance means it beat the threshold.
            assert!(s.worst_total_ms >= 0.0);
            assert_eq!(s.accepted, s.worst_total_ms <= threshold);
        }
    }

    #[test]
    fn audited_out_of_processors_keeps_the_rejected_trail() {
        let utils = [95.0; 3];
        let current = [NodeId(0)];
        let r = req(&current, &utils, 17_500, 100.0);
        let mut trail = Vec::new();
        let err = replicate_subtask(&r, &predictor(), LeastUtilized, Some(&mut trail))
            .unwrap_err();
        assert!(matches!(err, ReplicateFailure::OutOfProcessors { .. }));
        assert_eq!(trail.len(), 2, "both extra processors were examined");
        assert!(trail.iter().all(|s| !s.accepted));
    }

    #[test]
    #[should_panic(expected = "never be empty")]
    fn empty_replica_set_panics() {
        let utils = [0.0; 6];
        let r = req(&[], &utils, 100, 100.0);
        let _ = replicate_subtask(&r, &predictor(), LeastUtilized, None);
    }
}
