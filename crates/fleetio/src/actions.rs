//! RL actions (Table 2 of the paper) and their discretization.
//!
//! Each agent emits three decisions per window: how much bandwidth to
//! harvest, how much to make harvestable (both in whole channels of
//! bandwidth, since the gSB manager converts `gsb_bw` to `n_chls` by
//! dividing by the per-channel bandwidth, §3.6), and the I/O priority.

use fleetio_vssd::admission::HarvestAction;
use fleetio_vssd::engine::Engine;
use fleetio_vssd::request::Priority;
use fleetio_vssd::vssd::VssdId;

/// One agent's decision for a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgentAction {
    /// `Harvest(gsb_bw)` target, in channels of bandwidth.
    pub harvest_channels: usize,
    /// `Make_Harvestable(gsb_bw)` target, in channels of bandwidth.
    pub harvestable_channels: usize,
    /// `Set_Priority(level)`.
    pub priority: Priority,
}

impl AgentAction {
    /// Decodes the multi-discrete head indices produced by the policy.
    ///
    /// # Panics
    ///
    /// Panics unless exactly three heads are given and the priority index
    /// is below 3.
    pub fn from_heads(heads: &[usize]) -> Self {
        assert_eq!(
            heads.len(),
            3,
            "expected [harvest, make_harvestable, priority]"
        );
        let priority = match heads[2] {
            0 => Priority::Low,
            1 => Priority::Medium,
            2 => Priority::High,
            other => panic!("priority head out of range: {other}"),
        };
        AgentAction {
            harvest_channels: heads[0],
            harvestable_channels: heads[1],
            priority,
        }
    }

    /// Encodes back into head indices (inverse of
    /// [`AgentAction::from_heads`]).
    pub fn to_heads(self) -> [usize; 3] {
        let p = match self.priority {
            Priority::Low => 0,
            Priority::Medium => 1,
            Priority::High => 2,
        };
        [self.harvest_channels, self.harvestable_channels, p]
    }

    /// The `Harvest` admission action for this decision, with `gsb_bw`
    /// expressed in bytes/second given the per-channel bandwidth.
    pub fn harvest_action(self, vssd: VssdId, channel_bw: f64) -> HarvestAction {
        HarvestAction::Harvest {
            vssd,
            bytes_per_sec: self.harvest_channels as f64 * channel_bw,
        }
    }

    /// The `Make_Harvestable` admission action for this decision.
    pub fn make_harvestable_action(self, vssd: VssdId, channel_bw: f64) -> HarvestAction {
        HarvestAction::MakeHarvestable {
            vssd,
            bytes_per_sec: self.harvestable_channels as f64 * channel_bw,
        }
    }

    /// Applies the decision to `vssd`: the priority takes effect at once,
    /// the two harvest actions go through admission control, denominated
    /// in channels of the engine's per-channel peak bandwidth.
    pub fn apply(self, engine: &mut Engine, vssd: VssdId) {
        let ch_bw = engine.channel_peak_bytes_per_sec();
        engine.set_priority(vssd, self.priority);
        engine.submit_action(self.make_harvestable_action(vssd, ch_bw));
        engine.submit_action(self.harvest_action(vssd, ch_bw));
    }

    /// A no-op action (no harvesting, medium priority).
    pub fn idle() -> Self {
        AgentAction {
            harvest_channels: 0,
            harvestable_channels: 0,
            priority: Priority::Medium,
        }
    }
}

impl Default for AgentAction {
    fn default() -> Self {
        Self::idle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_roundtrip() {
        let a = AgentAction {
            harvest_channels: 3,
            harvestable_channels: 1,
            priority: Priority::High,
        };
        assert_eq!(AgentAction::from_heads(&a.to_heads()), a);
    }

    #[test]
    fn priority_decoding() {
        assert_eq!(AgentAction::from_heads(&[0, 0, 0]).priority, Priority::Low);
        assert_eq!(
            AgentAction::from_heads(&[0, 0, 1]).priority,
            Priority::Medium
        );
        assert_eq!(AgentAction::from_heads(&[0, 0, 2]).priority, Priority::High);
    }

    #[test]
    fn admission_actions_scale_by_channel_bandwidth() {
        let a = AgentAction {
            harvest_channels: 2,
            harvestable_channels: 4,
            priority: Priority::Medium,
        };
        let ch_bw = 64.0 * 1024.0 * 1024.0;
        match a.harvest_action(VssdId(7), ch_bw) {
            HarvestAction::Harvest {
                vssd,
                bytes_per_sec,
            } => {
                assert_eq!(vssd, VssdId(7));
                assert_eq!(bytes_per_sec, 2.0 * ch_bw);
            }
            other => panic!("wrong action {other:?}"),
        }
        match a.make_harvestable_action(VssdId(7), ch_bw) {
            HarvestAction::MakeHarvestable { bytes_per_sec, .. } => {
                assert_eq!(bytes_per_sec, 4.0 * ch_bw);
            }
            other => panic!("wrong action {other:?}"),
        }
    }

    #[test]
    fn idle_is_default() {
        assert_eq!(AgentAction::default(), AgentAction::idle());
        assert_eq!(AgentAction::idle().harvest_channels, 0);
    }

    #[test]
    #[should_panic(expected = "priority head out of range")]
    fn bad_priority_head_panics() {
        let _ = AgentAction::from_heads(&[0, 0, 9]);
    }
}
