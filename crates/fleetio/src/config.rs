//! FleetIO configuration (Table 3 of the paper).

use fleetio_des::SimDuration;
use fleetio_vssd::engine::EngineConfig;

/// Top-level FleetIO configuration with the paper's defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetIoConfig {
    /// The underlying engine (flash + virtualization) configuration.
    pub engine: EngineConfig,
    /// RL decision interval (Table 3: 2 seconds).
    pub decision_interval: SimDuration,
    /// Multi-agent reward coefficient β (Table 3: 0.6).
    pub beta: f64,
    /// Actor learning rate (Table 3: 1e-4).
    pub learning_rate: f32,
    /// Discount factor γ (Table 3: 0.9).
    pub gamma: f64,
    /// Hidden layer sizes (Table 3: [50, 50]).
    pub hidden_layers: Vec<usize>,
    /// SGD minibatch size (Table 3: 32).
    pub batch_size: usize,
    /// Number of stacked history windows in the observation (§3.3.1: 3).
    pub history_windows: usize,
    /// Target percentage of SLO violations used as the reward baseline
    /// (§3.3.3: 1 %).
    pub slo_violation_guarantee: f64,
    /// Unified reward α for unknown workload types (§3.4: 0.01).
    pub unified_alpha: f64,
    /// Fine-tuned α for the LC-1 cluster (§3.8: 2.5e-2).
    pub alpha_lc1: f64,
    /// Fine-tuned α for the LC-2 cluster (§3.8: 5e-3).
    pub alpha_lc2: f64,
    /// Fine-tuned α for the bandwidth-intensive cluster (§3.8: 0).
    pub alpha_bi: f64,
    /// Maximum channels a single Harvest/Make_Harvestable action can name
    /// (sets the discrete action-head sizes).
    pub max_action_channels: usize,
}

impl Default for FleetIoConfig {
    fn default() -> Self {
        FleetIoConfig {
            engine: EngineConfig::default(),
            decision_interval: SimDuration::from_secs(2),
            beta: 0.6,
            learning_rate: 1e-4,
            gamma: 0.9,
            hidden_layers: vec![50, 50],
            batch_size: 32,
            history_windows: 3,
            slo_violation_guarantee: 0.01,
            unified_alpha: 0.01,
            alpha_lc1: 2.5e-2,
            alpha_lc2: 5e-3,
            alpha_bi: 0.0,
            max_action_channels: 8,
        }
    }
}

impl FleetIoConfig {
    /// Observation length: 11 states per window × history windows
    /// (§3.3.1: 9 Table 1 states + 2 shared states).
    pub fn obs_dim(&self) -> usize {
        crate::states::STATES_PER_WINDOW * self.history_windows
    }

    /// Discrete action-head sizes: harvest level, make-harvestable level
    /// (each `0..=max_action_channels` channels), and 3 priority levels.
    pub fn action_dims(&self) -> Vec<usize> {
        vec![
            self.max_action_channels + 1,
            self.max_action_channels + 1,
            3,
        ]
    }

    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field (including engine
    /// validation).
    pub fn validate(&self) -> Result<(), String> {
        self.engine.validate()?;
        if self.decision_interval.is_zero() {
            return Err("decision_interval must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.beta) {
            return Err("beta must be in [0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.gamma) {
            return Err("gamma must be in [0, 1]".into());
        }
        if self.history_windows == 0 {
            return Err("history_windows must be positive".into());
        }
        for (name, a) in [
            ("unified_alpha", self.unified_alpha),
            ("alpha_lc1", self.alpha_lc1),
            ("alpha_lc2", self.alpha_lc2),
            ("alpha_bi", self.alpha_bi),
        ] {
            if !(0.0..=1.0).contains(&a) {
                return Err(format!("{name} must be in [0, 1]"));
            }
        }
        if self.max_action_channels == 0 {
            return Err("max_action_channels must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_3() {
        let c = FleetIoConfig::default();
        assert_eq!(c.decision_interval, SimDuration::from_secs(2));
        assert!((c.beta - 0.6).abs() < 1e-12);
        assert!((f64::from(c.learning_rate) - 1e-4).abs() < 1e-9);
        assert!((c.gamma - 0.9).abs() < 1e-12);
        assert_eq!(c.hidden_layers, vec![50, 50]);
        assert_eq!(c.batch_size, 32);
        // §3.3.1: 11 states × 3 windows.
        assert_eq!(c.obs_dim(), 33);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn alphas_match_section_3_8() {
        let c = FleetIoConfig::default();
        assert!((c.alpha_lc1 - 2.5e-2).abs() < 1e-12);
        assert!((c.alpha_lc2 - 5e-3).abs() < 1e-12);
        assert_eq!(c.alpha_bi, 0.0);
        assert!((c.unified_alpha - 0.01).abs() < 1e-12);
    }

    #[test]
    fn action_dims_cover_actions_table_2() {
        let c = FleetIoConfig::default();
        // Harvest, Make_Harvestable, Set_Priority.
        assert_eq!(c.action_dims().len(), 3);
        assert_eq!(c.action_dims()[2], 3);
    }

    #[test]
    fn validation_rejects_bad_values() {
        let mut c = FleetIoConfig {
            beta: 2.0,
            ..FleetIoConfig::default()
        };
        assert!(c.validate().is_err());
        c = FleetIoConfig::default();
        c.history_windows = 0;
        assert!(c.validate().is_err());
        c = FleetIoConfig::default();
        c.alpha_lc1 = -0.1;
        assert!(c.validate().is_err());
    }
}
