//! Resource-manager configuration (paper Table 1 and §4 constants).

use crate::eqf::EqfVariant;
use crate::monitor::MonitorConfig;
use crate::predictive::ProcessorChoice;

/// Which step-2 algorithm decides replica counts and processors.
#[derive(Debug, Clone, Copy, PartialEq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub enum Policy {
    /// The paper's contribution (Fig. 5): forecast timeliness via the
    /// regression models and add replicas until the forecast fits.
    Predictive,
    /// The heuristic baseline (Fig. 7): replicate onto every processor
    /// below the utilization threshold.
    NonPredictive {
        /// Table 1's "CPU Utilization Threshold": 20 %.
        utilization_threshold_pct: f64,
    },
    /// Extension baseline: one least-utilized replica per candidate per
    /// round, no forecast (isolates forecasting from incrementality).
    Incremental,
}

impl Policy {
    /// Short policy name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Predictive => "predictive",
            Policy::NonPredictive { .. } => "non-predictive",
            Policy::Incremental => "incremental",
        }
    }
}

/// Full configuration of the adaptive resource manager.
#[derive(Debug, Clone, Copy, PartialEq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct ArmConfig {
    /// Step-2 policy.
    pub policy: Policy,
    /// Step-1 monitoring thresholds (shared by both policies).
    pub monitor: MonitorConfig,
    /// Deadline-assignment variant.
    pub eqf: EqfVariant,
    /// `d_init`: data size assumed for the initial EQF assignment, tracks.
    pub d_init_tracks: u64,
    /// `u_init`: CPU utilization assumed for the initial assignment, %.
    /// Also substituted for a freshly-restarted (cold) node whose EWMA has
    /// not yet seen `Node::COLD_SAMPLES` samples — stale near-zero readings
    /// would otherwise look like spare capacity.
    pub u_init_pct: f64,
    /// How Fig. 5 picks the next replica host (ablation knob; the paper
    /// uses the least-utilized processor).
    pub processor_choice: ProcessorChoice,
    /// Refine the Eq. (3) models online from observed stage latencies
    /// (recursive least squares; extension, see `crate::online`).
    pub online_refinement: bool,
    /// Control latency: the manager issues actions only every this many
    /// period boundaries (monitoring continues every period). 1 = the
    /// idealized zero-latency loop; larger values model the reaction
    /// latency of a distributed resource-management middleware like the
    /// paper's testbed (see EXPERIMENTS.md deviation 1).
    pub act_every: u32,
}

impl ArmConfig {
    /// The paper's predictive configuration.
    pub fn paper_predictive() -> Self {
        ArmConfig {
            policy: Policy::Predictive,
            monitor: MonitorConfig::default(),
            eqf: EqfVariant::Classic,
            d_init_tracks: 1_000,
            u_init_pct: 10.0,
            processor_choice: ProcessorChoice::LeastUtilized,
            online_refinement: false,
            act_every: 1,
        }
    }

    /// The paper's non-predictive configuration (Table 1: UT = 20 %).
    pub fn paper_nonpredictive() -> Self {
        ArmConfig {
            policy: Policy::NonPredictive {
                utilization_threshold_pct: 20.0,
            },
            ..Self::paper_predictive()
        }
    }

    /// The extension incremental baseline.
    pub fn incremental() -> Self {
        ArmConfig {
            policy: Policy::Incremental,
            ..Self::paper_predictive()
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        self.monitor.validate()?;
        if let Policy::NonPredictive {
            utilization_threshold_pct,
        } = self.policy
        {
            if !(0.0..=100.0).contains(&utilization_threshold_pct) {
                return Err(format!(
                    "utilization threshold {utilization_threshold_pct} not a percentage"
                ));
            }
        }
        if !(0.0..=100.0).contains(&self.u_init_pct) {
            return Err(format!("u_init {} not a percentage", self.u_init_pct));
        }
        if self.act_every == 0 {
            return Err("act_every must be >= 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_are_valid() {
        assert!(ArmConfig::paper_predictive().validate().is_ok());
        assert!(ArmConfig::paper_nonpredictive().validate().is_ok());
    }

    #[test]
    fn nonpredictive_uses_table1_threshold() {
        match ArmConfig::paper_nonpredictive().policy {
            Policy::NonPredictive {
                utilization_threshold_pct,
            } => assert_eq!(utilization_threshold_pct, 20.0),
            _ => panic!("wrong policy"),
        }
    }

    #[test]
    fn policy_names() {
        assert_eq!(Policy::Predictive.name(), "predictive");
        assert_eq!(
            Policy::NonPredictive {
                utilization_threshold_pct: 20.0
            }
            .name(),
            "non-predictive"
        );
    }

    #[test]
    fn validation_catches_bad_threshold() {
        let mut c = ArmConfig::paper_nonpredictive();
        c.policy = Policy::NonPredictive {
            utilization_threshold_pct: -5.0,
        };
        assert!(c.validate().is_err());
        let mut c2 = ArmConfig::paper_predictive();
        c2.u_init_pct = 300.0;
        assert!(c2.validate().is_err());
        let mut c3 = ArmConfig::paper_predictive();
        c3.act_every = 0;
        assert!(c3.validate().is_err());
    }
}
