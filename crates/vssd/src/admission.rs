//! Admission control for RL actions (§3.5 of the paper).
//!
//! RL agents act independently, but their `Harvest()` and
//! `Make_Harvestable()` actions execute on the shared SSD through an
//! admission-control stage that:
//!
//! 1. batches actions ([`BATCH_INTERVAL`], the paper's 50 ms) and reorders
//!    each batch to run `Make_Harvestable()` before `Harvest()`,
//!    maximizing harvestable supply and avoiding immediate reclamation,
//! 2. when harvest demand exceeds supply, ranks harvesters so vSSDs with
//!    fewer already-harvested resources go first (the paper's default
//!    fairness rule on top of FCFS).
//!
//! The paper's provider-set per-vSSD permissions are not modelled: every
//! tenant may take both actions, so every action is admitted.

use fleetio_des::SimDuration;

use crate::vssd::VssdId;

/// How often a batch of admitted actions executes.
pub const BATCH_INTERVAL: SimDuration = SimDuration::from_millis(50);

/// A harvest-related action submitted by an RL agent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HarvestAction {
    /// Harvest `bytes_per_sec` of bandwidth from collocated vSSDs.
    Harvest {
        /// The acting vSSD.
        vssd: VssdId,
        /// Desired extra bandwidth (read + write combined, §3.3.2).
        bytes_per_sec: f64,
    },
    /// Make `bytes_per_sec` of this vSSD's bandwidth harvestable.
    MakeHarvestable {
        /// The acting vSSD.
        vssd: VssdId,
        /// Bandwidth offered to others; lowering it triggers reclamation.
        bytes_per_sec: f64,
    },
}

impl HarvestAction {
    /// The vSSD issuing the action.
    pub fn vssd(&self) -> VssdId {
        match *self {
            HarvestAction::Harvest { vssd, .. } | HarvestAction::MakeHarvestable { vssd, .. } => {
                vssd
            }
        }
    }

    /// The bandwidth argument.
    pub fn bytes_per_sec(&self) -> f64 {
        match *self {
            HarvestAction::Harvest { bytes_per_sec, .. }
            | HarvestAction::MakeHarvestable { bytes_per_sec, .. } => bytes_per_sec,
        }
    }
}

/// The admission-control stage.
#[derive(Debug, Clone, Default)]
pub struct AdmissionControl {
    pending: Vec<HarvestAction>,
}

impl AdmissionControl {
    /// Creates an admission controller with no pending actions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues an action for the next batch.
    pub fn submit(&mut self, action: HarvestAction) {
        self.pending.push(action);
    }

    /// Drains the current batch in execution order.
    ///
    /// `Make_Harvestable()` actions come first (submission order), then
    /// `Harvest()` actions: in submission order while supply covers
    /// demand, fewest-harvested first (stably) when it does not;
    /// `harvested_holdings` maps each vSSD to its currently harvested
    /// resource count (in gSB channels, sorted by id for binary search;
    /// absent vSSDs count as 0) and `supply_channels` is the total
    /// `n_chls` available in the pool *after* this batch's
    /// `Make_Harvestable()` actions execute (an estimate is fine — ranking
    /// only changes when demand exceeds it).
    pub fn drain_batch(
        &mut self,
        supply_channels: usize,
        harvested_holdings: &[(VssdId, usize)],
        channel_bytes_per_sec: f64,
    ) -> Vec<HarvestAction> {
        let pending = std::mem::take(&mut self.pending);
        let (mut makes, mut harvests): (Vec<_>, Vec<_>) = pending
            .into_iter()
            .partition(|a| matches!(a, HarvestAction::MakeHarvestable { .. }));

        let demand: usize = harvests
            .iter()
            .map(|a| (a.bytes_per_sec() / channel_bytes_per_sec).floor() as usize)
            .sum();
        if demand > supply_channels {
            // Stable sort keeps FCFS order among equal holders.
            harvests.sort_by_key(|a| {
                harvested_holdings
                    .binary_search_by_key(&a.vssd(), |(id, _)| *id)
                    .map_or(0, |pos| harvested_holdings[pos].1)
            });
        }
        makes.append(&mut harvests);
        makes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harvest(v: u32, bw: f64) -> HarvestAction {
        HarvestAction::Harvest {
            vssd: VssdId(v),
            bytes_per_sec: bw,
        }
    }

    fn make(v: u32, bw: f64) -> HarvestAction {
        HarvestAction::MakeHarvestable {
            vssd: VssdId(v),
            bytes_per_sec: bw,
        }
    }

    const CH_BW: f64 = 64.0 * 1024.0 * 1024.0;

    #[test]
    fn batch_reorders_make_harvestable_first() {
        let mut ac = AdmissionControl::new();
        ac.submit(harvest(1, CH_BW));
        ac.submit(make(2, CH_BW));
        ac.submit(harvest(3, CH_BW));
        ac.submit(make(4, CH_BW));
        let batch = ac.drain_batch(10, &[], CH_BW);
        assert_eq!(batch.len(), 4);
        assert!(matches!(
            batch[0],
            HarvestAction::MakeHarvestable {
                vssd: VssdId(2),
                ..
            }
        ));
        assert!(matches!(
            batch[1],
            HarvestAction::MakeHarvestable {
                vssd: VssdId(4),
                ..
            }
        ));
        assert!(matches!(
            batch[2],
            HarvestAction::Harvest {
                vssd: VssdId(1),
                ..
            }
        ));
        assert!(matches!(
            batch[3],
            HarvestAction::Harvest {
                vssd: VssdId(3),
                ..
            }
        ));
        assert!(
            ac.drain_batch(10, &[], CH_BW).is_empty(),
            "a batch drains once"
        );
    }

    #[test]
    fn contention_ranks_fewest_holdings_first() {
        let mut ac = AdmissionControl::new();
        ac.submit(harvest(1, 2.0 * CH_BW));
        ac.submit(harvest(2, 2.0 * CH_BW));
        let holdings = [(VssdId(1), 3), (VssdId(2), 0)];
        // Demand (4 channels) exceeds supply (2): vssd2 (fewer holdings)
        // jumps ahead despite later submission.
        let batch = ac.drain_batch(2, &holdings, CH_BW);
        assert_eq!(batch[0].vssd(), VssdId(2));
        assert_eq!(batch[1].vssd(), VssdId(1));
    }

    #[test]
    fn no_contention_keeps_fcfs() {
        let mut ac = AdmissionControl::new();
        ac.submit(harvest(1, CH_BW));
        ac.submit(harvest(2, CH_BW));
        let holdings = [(VssdId(1), 5)];
        let batch = ac.drain_batch(10, &holdings, CH_BW);
        assert_eq!(batch[0].vssd(), VssdId(1));
    }

    #[test]
    fn batch_interval_is_50ms() {
        assert_eq!(BATCH_INTERVAL, SimDuration::from_millis(50));
    }

    #[test]
    fn action_accessors() {
        assert_eq!(harvest(7, 3.0).vssd(), VssdId(7));
        assert_eq!(make(7, 3.0).bytes_per_sec(), 3.0);
    }
}
