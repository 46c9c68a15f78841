//! Run-scale presets.
//!
//! `Quick` preserves every qualitative result (policy ordering, crossover
//! locations) in minutes; `Full` runs paper-length measurements and a much
//! larger pre-training budget. EXPERIMENTS.md records which scale produced
//! each documented number.

use fleetio::agent::PretrainOptions;
use fleetio::experiment::ExperimentOptions;
use fleetio::FleetIoConfig;

/// How big the runs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI-speed: short measurement spans and a small PPO budget on top of
    /// the behaviour-cloning warm start.
    Quick,
    /// Paper-scale measurement spans and training budget.
    Full,
    /// Minimal: seconds per figure, for smoke tests and CI.
    Tiny,
}

impl Scale {
    /// Experiment options (measurement spans) for this scale.
    pub fn experiment_options(self, cfg: &FleetIoConfig, seed: u64) -> ExperimentOptions {
        let (measure, ramp) = match self {
            Scale::Tiny => (4, 1),
            Scale::Quick => (15, 3),
            Scale::Full => (60, 5),
        };
        ExperimentOptions {
            cfg: cfg.clone(),
            measure_windows: measure,
            ramp_windows: ramp,
            warm_fraction: 0.5,
            seed,
        }
    }

    /// Pre-training budget for this scale.
    pub fn pretrain_options(self) -> PretrainOptions {
        match self {
            Scale::Tiny => PretrainOptions {
                iterations: 0,
                windows_per_rollout: 8,
                warmup_iterations: 0,
                bc_rounds: 2,
                ..Default::default()
            },
            Scale::Quick => PretrainOptions {
                iterations: 8,
                windows_per_rollout: 16,
                warmup_iterations: 2,
                bc_rounds: 6,
                ..Default::default()
            },
            Scale::Full => PretrainOptions {
                iterations: 120,
                windows_per_rollout: 24,
                warmup_iterations: 6,
                bc_rounds: 10,
                ..Default::default()
            },
        }
    }

    /// Solo-run windows used for SLO calibration and profiling.
    pub fn calibration_windows(self) -> usize {
        match self {
            Scale::Tiny => 3,
            Scale::Quick => 6,
            Scale::Full => 20,
        }
    }

    /// Trace windows per workload for the Figure 6 clustering (requests
    /// per window follows, scaled down from the paper's 10 000).
    pub fn clustering(self) -> (usize, usize) {
        // Windows must span whole job cycles for the bandwidth-intensive
        // workloads (the paper's 10 000-request windows do), otherwise
        // k-means splits their read and write phases into separate
        // clusters.
        match self {
            Scale::Tiny => (4, 3_000),
            Scale::Quick => (6, 6_000),
            Scale::Full => (12, 10_000),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        let cfg = FleetIoConfig::default();
        let t = Scale::Tiny.experiment_options(&cfg, 0).measure_windows;
        let q = Scale::Quick.experiment_options(&cfg, 0).measure_windows;
        let f = Scale::Full.experiment_options(&cfg, 0).measure_windows;
        assert!(t < q && q < f);
        assert!(
            Scale::Full.pretrain_options().iterations > Scale::Quick.pretrain_options().iterations
        );
    }
}
