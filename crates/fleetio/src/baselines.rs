//! Comparison policies (§4.1 of the paper).
//!
//! * **Hardware Isolation** — each vSSD owns an equal share of channels;
//!   nothing happens at runtime (strongest isolation, lowest utilization).
//! * **Software Isolation** — every vSSD shares all channels; stride
//!   scheduling prevents starvation; no further runtime action.
//! * **Adaptive** — software-shared channels with per-window bandwidth
//!   re-provisioning proportional to each vSSD's utilization in the prior
//!   window (the eZNS-style baseline (ref. 31 in the paper)).
//! * **SSDKeeper** — a DNN predicts each workload's demanded channel count
//!   from its I/O features; the partition is static hardware isolation.
//! * **FleetIO** — one RL agent per vSSD taking Table 2 actions through
//!   admission control every window, all decided by one batched pass.

use std::collections::BTreeMap;

use fleetio_des::rng::SmallRng;
use fleetio_des::window::WindowSummary;
use fleetio_ml::{Activation, Adam, Mlp, StandardScaler};
use fleetio_vssd::vssd::VssdId;
use fleetio_workloads::WindowFeatures;

use crate::agent::PretrainedModel;
use crate::bank::PolicyBank;
use crate::config::FleetIoConfig;
use crate::driver::Colocation;
use crate::states::{extract_states, StateVector};

/// A runtime policy invoked after every decision window.
pub trait WindowPolicy: std::fmt::Debug {
    /// The policy's display name.
    fn name(&self) -> &'static str;

    /// Reacts to the window that just completed.
    fn on_window(&mut self, coloc: &mut Colocation, summaries: &[(VssdId, WindowSummary)]);
}

/// A policy that never acts (Hardware and Software Isolation).
#[derive(Debug, Clone)]
pub struct StaticPolicy {
    name: &'static str,
}

impl StaticPolicy {
    /// Hardware Isolation (each vSSD on its own channels).
    pub fn hardware() -> Self {
        StaticPolicy {
            name: "hardware-isolation",
        }
    }

    /// Software Isolation (all vSSDs share all channels).
    pub fn software() -> Self {
        StaticPolicy {
            name: "software-isolation",
        }
    }

    /// SSDKeeper at runtime (its DNN decided the static partition up
    /// front; nothing moves afterwards).
    pub fn ssdkeeper() -> Self {
        StaticPolicy { name: "ssdkeeper" }
    }

    /// Mixed Isolation (Figure 16's strongest-isolation baseline).
    pub fn mixed() -> Self {
        StaticPolicy {
            name: "mixed-isolation",
        }
    }
}

impl WindowPolicy for StaticPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn on_window(&mut self, _coloc: &mut Colocation, _summaries: &[(VssdId, WindowSummary)]) {}
}

/// The Adaptive baseline: bandwidth shares re-provisioned each window in
/// proportion to the prior window's measured bandwidth (the paper's
/// channel-proportional reallocation (its ref. 31), via stride shares and rate limits
/// on shared channels, which is the equivalent control knob in this
/// virtualization layer).
#[derive(Debug, Clone)]
pub struct AdaptivePolicy {
    /// Total provisionable bandwidth, bytes/second.
    total_bw: f64,
    /// Exponential smoothing factor for shares.
    smoothing: f64,
    /// Minimum share per vSSD (one channel's worth), fraction.
    min_share: f64,
    shares: BTreeMap<VssdId, f64>,
}

impl AdaptivePolicy {
    /// Creates the policy for a device with `total_bw` bytes/second across
    /// `n_channels` channels.
    ///
    /// # Panics
    ///
    /// Panics unless `total_bw` is positive and `n_channels` nonzero.
    pub fn new(total_bw: f64, n_channels: usize) -> Self {
        assert!(total_bw > 0.0, "total bandwidth must be positive");
        assert!(n_channels > 0, "need at least one channel");
        AdaptivePolicy {
            total_bw,
            smoothing: 0.5,
            // One and a half channels' worth as the floor: eZNS-style
            // reallocation shrinks quiet tenants hard, which is what makes
            // the Adaptive baseline's tail the worst of the five policies.
            min_share: 1.8 / n_channels as f64,
            shares: BTreeMap::new(),
        }
    }
}

impl WindowPolicy for AdaptivePolicy {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn on_window(&mut self, coloc: &mut Colocation, summaries: &[(VssdId, WindowSummary)]) {
        let total: f64 = summaries.iter().map(|(_, w)| w.avg_bandwidth).sum();
        if total <= 0.0 {
            return;
        }
        // Smooth the observed shares, clamp to a small floor, and
        // re-provision: stride tickets proportional to the share (channel
        // reallocation) plus a rate cap with headroom. Both react one
        // window late — the lag that gives the Adaptive baseline the worst
        // tail latency in the paper's Figure 10.
        for (id, w) in summaries {
            let observed = w.avg_bandwidth / total;
            let prev = self
                .shares
                .get(id)
                .copied()
                .unwrap_or(1.0 / summaries.len() as f64);
            let s = (self.smoothing * observed + (1.0 - self.smoothing) * prev).max(self.min_share);
            self.shares.insert(*id, s);
            let engine = coloc.engine_mut();
            engine.set_tickets(*id, ((s * 1000.0) as u32).max(10));
            engine.set_rate_limit(*id, Some(s * self.total_bw * 1.25));
        }
    }
}

/// The SSDKeeper planner: a small DNN mapping workload features to the
/// demanded number of flash channels (trained from offline profiles), used
/// to choose a static hardware partition.
#[derive(Debug, Clone)]
pub struct SsdKeeperPlanner {
    net: Mlp,
    scaler: StandardScaler,
    max_channels: usize,
}

impl SsdKeeperPlanner {
    /// Trains the demand predictor from `(features, demanded_channels)`
    /// profile pairs.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty or `max_channels` is zero.
    pub fn train(profiles: &[(WindowFeatures, usize)], max_channels: usize, seed: u64) -> Self {
        assert!(!profiles.is_empty(), "need profiling data");
        assert!(max_channels > 0, "max_channels must be positive");
        let raw: Vec<Vec<f64>> = profiles.iter().map(|(f, _)| f.to_vec()).collect();
        let scaler = StandardScaler::fit(&raw);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut net = Mlp::new(&[4, 16, 1], Activation::Tanh, Activation::Linear, &mut rng);
        let mut opt = Adam::new(net.n_params(), 5e-3);
        let inputs: Vec<Vec<f32>> = scaler
            .transform_all(&raw)
            .into_iter()
            .map(|v| v.into_iter().map(|x| x as f32).collect())
            .collect();
        let targets: Vec<f32> = profiles
            .iter()
            .map(|(_, d)| *d as f32 / max_channels as f32)
            .collect();
        for _ in 0..1500 {
            let mut grads = net.zero_grads();
            for (x, y) in inputs.iter().zip(&targets) {
                let cache = net.forward_cached(x);
                let err = cache.output()[0] - y;
                net.backward(&cache, &[2.0 * err], &mut grads);
            }
            grads.scale(1.0 / inputs.len() as f32);
            opt.step(&mut net, &grads);
        }
        SsdKeeperPlanner {
            net,
            scaler,
            max_channels,
        }
    }

    /// Predicted channel demand for a workload with these features.
    pub fn predict_demand(&self, features: WindowFeatures) -> usize {
        let x: Vec<f32> = self
            .scaler
            .transform(&features.to_vec())
            .into_iter()
            .map(|v| v as f32)
            .collect();
        let frac = f64::from(self.net.forward(&x)[0]).clamp(0.0, 1.0);
        ((frac * self.max_channels as f64).round() as usize).clamp(1, self.max_channels)
    }

    /// Plans a static partition of `total_channels` for the given per-
    /// tenant features: demands are predicted, then scaled proportionally
    /// to fill the device exactly (every channel is always allocated).
    pub fn plan(&self, tenants: &[WindowFeatures], total_channels: usize) -> Vec<usize> {
        assert!(!tenants.is_empty(), "no tenants to plan for");
        let demands: Vec<f64> = tenants
            .iter()
            .map(|f| self.predict_demand(*f) as f64)
            .collect();
        proportional_split(&demands, total_channels)
    }
}

/// Splits `total` integer units proportionally to `weights`, guaranteeing
/// at least one unit each (largest-remainder method).
pub fn proportional_split(weights: &[f64], total: usize) -> Vec<usize> {
    assert!(!weights.is_empty(), "weights must be non-empty");
    assert!(total >= weights.len(), "need at least one unit per weight");
    let sum: f64 = weights.iter().map(|w| w.max(1e-9)).sum();
    let spendable = total - weights.len();
    let ideal: Vec<f64> = weights
        .iter()
        .map(|w| w.max(1e-9) / sum * spendable as f64)
        .collect();
    let mut alloc: Vec<usize> = ideal.iter().map(|x| 1 + x.floor() as usize).collect();
    let mut rest: Vec<(usize, f64)> = ideal
        .iter()
        .enumerate()
        .map(|(i, x)| (i, x - x.floor()))
        .collect();
    rest.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite remainders"));
    let mut remaining = total - alloc.iter().sum::<usize>();
    for (i, _) in rest {
        if remaining == 0 {
            break;
        }
        alloc[i] += 1;
        remaining -= 1;
    }
    alloc
}

/// The scripted heuristic policy: every vSSD driven directly by
/// [`crate::agent::reference_action`] (no neural network). This is both
/// the behaviour-cloning teacher and a mechanism-level ablation: FleetIO's
/// learned policy should approach it.
#[derive(Debug)]
pub struct HeuristicPolicy {
    /// Per-tenant reference parameters (guarantee, α, β-altruism).
    params: Vec<crate::agent::ReferenceParams>,
}

impl HeuristicPolicy {
    /// Builds the policy for tenants with the given per-tenant channel
    /// counts and workload kinds (α from the paper's per-type values).
    pub fn new(cfg: FleetIoConfig, tenants: &[(usize, fleetio_workloads::WorkloadKind)]) -> Self {
        let params = tenants
            .iter()
            .map(|&(channels, kind)| crate::agent::ReferenceParams::new(&cfg, channels, kind))
            .collect();
        HeuristicPolicy { params }
    }
}

impl WindowPolicy for HeuristicPolicy {
    fn name(&self) -> &'static str {
        "heuristic"
    }

    fn on_window(&mut self, coloc: &mut Colocation, summaries: &[(VssdId, WindowSummary)]) {
        assert_eq!(
            summaries.len(),
            self.params.len(),
            "one param set per tenant"
        );
        let states = extract_states(coloc.engine(), summaries);
        for ((p, (id, _)), state) in self.params.iter().zip(summaries).zip(states) {
            crate::agent::reference_action(&state, p).apply(coloc.engine_mut(), *id);
        }
    }
}

/// The FleetIO runtime policy: one agent per vSSD, greedy inference,
/// harvest actions through admission control. The agents share one copy
/// of the model in one [`PolicyBank`], which decides them all in one
/// batched pass per window.
#[derive(Debug)]
pub struct FleetIoPolicy {
    bank: PolicyBank,
}

impl FleetIoPolicy {
    /// Deploys one agent per tenant from the shared pre-trained model.
    ///
    /// # Panics
    ///
    /// Panics if `n_tenants` is zero.
    pub fn new(cfg: FleetIoConfig, model: &PretrainedModel, n_tenants: usize) -> Self {
        FleetIoPolicy {
            bank: PolicyBank::new(model.clone(), n_tenants, cfg.history_windows),
        }
    }
}

impl WindowPolicy for FleetIoPolicy {
    fn name(&self) -> &'static str {
        "fleetio"
    }

    fn on_window(&mut self, coloc: &mut Colocation, summaries: &[(VssdId, WindowSummary)]) {
        assert_eq!(
            summaries.len(),
            self.bank.n_tenants(),
            "one agent per tenant"
        );
        let states: Vec<(u32, StateVector)> = (0..)
            .zip(extract_states(coloc.engine(), summaries))
            .collect();
        for ((_, action), (id, _)) in self.bank.decide_all(&states).into_iter().zip(summaries) {
            action.apply(coloc.engine_mut(), *id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feat(bw: f64, size: f64) -> WindowFeatures {
        WindowFeatures {
            read_bw: bw,
            write_bw: bw / 4.0,
            lpa_entropy: 6.0,
            avg_io_size: size,
        }
    }

    #[test]
    fn proportional_split_fills_total_with_floors() {
        assert_eq!(proportional_split(&[1.0, 1.0], 16), vec![8, 8]);
        assert_eq!(proportional_split(&[3.0, 1.0], 16), vec![12, 4]);
        let tiny = proportional_split(&[100.0, 0.0001], 16);
        assert_eq!(tiny.iter().sum::<usize>(), 16);
        assert!(tiny[1] >= 1, "floor violated: {tiny:?}");
    }

    #[test]
    fn ssdkeeper_learns_monotone_demand() {
        // Profiles: demand grows with bandwidth.
        let profiles: Vec<(WindowFeatures, usize)> =
            (1..=8).map(|d| (feat(d as f64 * 5e7, 1e6), d)).collect();
        let planner = SsdKeeperPlanner::train(&profiles, 8, 3);
        let low = planner.predict_demand(feat(5e7, 1e6));
        let high = planner.predict_demand(feat(4e8, 1e6));
        assert!(high > low, "demand not monotone: {low} vs {high}");
        // Planning covers the device.
        let plan = planner.plan(&[feat(4e8, 1e6), feat(5e7, 1e6)], 16);
        assert_eq!(plan.iter().sum::<usize>(), 16);
        assert!(plan[0] > plan[1]);
    }

    #[test]
    fn static_policies_have_names() {
        assert_eq!(StaticPolicy::hardware().name(), "hardware-isolation");
        assert_eq!(StaticPolicy::software().name(), "software-isolation");
        assert_eq!(StaticPolicy::ssdkeeper().name(), "ssdkeeper");
        assert_eq!(StaticPolicy::mixed().name(), "mixed-isolation");
    }

    #[test]
    #[should_panic(expected = "need profiling data")]
    fn ssdkeeper_requires_profiles() {
        let _ = SsdKeeperPlanner::train(&[], 8, 0);
    }
}
