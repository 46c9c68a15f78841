//! The RL environment over a collocation.
//!
//! One step = one 2-second decision window: actions are applied (priority
//! immediately, harvest actions through admission control), the window
//! runs, Table 1 states are extracted per agent, and rewards follow
//! Equation 1 mixed by Equation 2.

use fleetio_des::{SimDuration, SimTime};
use fleetio_rl::env::{MultiAgentEnv, StepResult};
use fleetio_rl::reward::mix_rewards;
use fleetio_vssd::engine::EngineConfig;

use crate::actions::AgentAction;
use crate::config::FleetIoConfig;
use crate::driver::{Colocation, TenantSpec};
use crate::reward::RewardParams;
use crate::states::{extract_states, StateHistory, StateVector};

/// A FleetIO training/evaluation environment.
#[derive(Debug)]
pub struct FleetIoEnv {
    cfg: FleetIoConfig,
    tenants: Vec<TenantSpec>,
    warm_fraction: f64,
    horizon_windows: usize,
    /// The device; `None` only while `reset` replaces it, so the old one
    /// is gone before the new one is built and warmed.
    coloc: Option<Colocation>,
    histories: Vec<StateHistory>,
    rewards: Vec<RewardParams>,
    windows_done: usize,
    episode: u64,
    seed: u64,
    /// Keep the engine running across episodes (the storage system is a
    /// continuing task; rebuilding + re-warming per episode is both
    /// unrealistic and expensive). Set false to get fresh devices.
    persistent: bool,
}

impl FleetIoEnv {
    /// Builds an environment over `tenants` with per-tenant reward
    /// parameters (α per workload type), and with it episode 1's device:
    /// the first `reset` adopts that device untouched instead of building
    /// a second one, so devices are built where the environment is, not
    /// on whichever rollout worker resets it first (whose allocator arena
    /// would keep the memory after the worker is gone).
    ///
    /// # Panics
    ///
    /// Panics on invalid configurations or if `rewards` does not match
    /// `tenants`.
    pub fn new(
        cfg: FleetIoConfig,
        tenants: Vec<TenantSpec>,
        rewards: Vec<RewardParams>,
        warm_fraction: f64,
        horizon_windows: usize,
        seed: u64,
    ) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid FleetIO config: {e}");
        }
        assert_eq!(tenants.len(), rewards.len(), "one RewardParams per tenant");
        assert!(horizon_windows > 0, "horizon must be positive");
        let coloc = Self::build(
            &cfg.engine,
            &tenants,
            cfg.decision_interval,
            warm_fraction,
            seed,
            1,
        );
        let histories = tenants
            .iter()
            .map(|_| StateHistory::new(cfg.history_windows))
            .collect();
        FleetIoEnv {
            cfg,
            tenants,
            warm_fraction,
            horizon_windows,
            coloc: Some(coloc),
            histories,
            rewards,
            windows_done: 0,
            episode: 0,
            seed,
            persistent: true,
        }
    }

    /// Makes every `reset` rebuild a fresh, re-warmed device instead of
    /// continuing the running one (builder style).
    pub fn with_fresh_episodes(mut self) -> Self {
        self.persistent = false;
        self
    }

    /// Default reward parameters for a tenant list: α from each workload's
    /// category using the paper's fine-tuned values.
    pub fn default_rewards(cfg: &FleetIoConfig, tenants: &[TenantSpec]) -> Vec<RewardParams> {
        tenants
            .iter()
            .map(|t| {
                let alpha = crate::typing::alpha_for_kind(cfg, t.kind);
                RewardParams::new(
                    alpha.max(0.0),
                    t.config.channels.len(),
                    cfg.engine.flash.channel_peak_bytes_per_sec(),
                    cfg.slo_violation_guarantee,
                )
            })
            .collect()
    }

    fn build(
        engine_cfg: &EngineConfig,
        tenants: &[TenantSpec],
        window: SimDuration,
        warm_fraction: f64,
        seed: u64,
        episode: u64,
    ) -> Colocation {
        let respawned: Vec<TenantSpec> = tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let mut t = t.clone();
                t.seed = fleetio_des::rng::derive_seed_indexed(
                    seed ^ t.seed,
                    "env-tenant",
                    episode * 64 + i as u64,
                );
                t
            })
            .collect();
        let mut coloc = Colocation::new(engine_cfg.clone(), respawned, window);
        if warm_fraction > 0.0 {
            coloc.warm_up(warm_fraction);
        }
        coloc
    }

    /// The underlying collocation (e.g. for metric collection).
    pub fn colocation(&self) -> &Colocation {
        self.coloc.as_ref().expect("a device outside of a rebuild")
    }

    fn colocation_mut(&mut self) -> &mut Colocation {
        self.coloc.as_mut().expect("a device outside of a rebuild")
    }

    /// Applies decoded actions and advances one window, returning the raw
    /// per-agent states alongside the step result (for deployment loops
    /// that need the un-normalized states).
    pub fn step_decoded(&mut self, actions: &[AgentAction]) -> (Vec<StateVector>, StepResult) {
        assert_eq!(actions.len(), self.tenants.len(), "one action per agent");
        let coloc = self.colocation_mut();
        for (id, action) in coloc.tenant_ids().into_iter().zip(actions) {
            action.apply(coloc.engine_mut(), id);
        }
        let summaries = coloc.run_window();
        let states = extract_states(coloc.engine(), &summaries);
        self.windows_done += 1;

        let mut rewards = Vec::with_capacity(states.len());
        for (i, ((_, window), state)) in summaries.iter().zip(&states).enumerate() {
            self.histories[i].push(*state);
            rewards.push(self.rewards[i].reward(window.avg_bandwidth, window.slo_violation_rate));
        }
        let mixed = mix_rewards(&rewards, self.cfg.beta);
        let observations = self
            .histories
            .iter()
            .map(StateHistory::observation)
            .collect();
        let done = self.windows_done >= self.horizon_windows;
        (
            states,
            StepResult {
                observations,
                rewards: mixed,
                done,
            },
        )
    }
}

impl MultiAgentEnv for FleetIoEnv {
    fn n_agents(&self) -> usize {
        self.tenants.len()
    }

    fn obs_dim(&self) -> usize {
        self.cfg.obs_dim()
    }

    fn action_dims(&self) -> Vec<usize> {
        self.cfg.action_dims()
    }

    fn reset(&mut self) -> Vec<Vec<f32>> {
        self.episode += 1;
        // Only a device that has run is replaced; `new` built episode 1's.
        let used = self.colocation().engine().now() > SimTime::ZERO;
        if (!self.persistent || self.episode == 1) && used {
            // Never two warmed devices at once: drop the old one first.
            self.coloc = None;
            self.coloc = Some(Self::build(
                &self.cfg.engine,
                &self.tenants,
                self.cfg.decision_interval,
                self.warm_fraction,
                self.seed,
                self.episode,
            ));
        }
        self.windows_done = 0;
        for h in &mut self.histories {
            h.reset();
        }
        // One throwaway window seeds the history with real traffic.
        let idle: Vec<AgentAction> = self.tenants.iter().map(|_| AgentAction::idle()).collect();
        let (_, step) = self.step_decoded(&idle);
        self.windows_done = 0;
        step.observations
    }

    fn step(&mut self, actions: &[Vec<usize>]) -> StepResult {
        let decoded: Vec<AgentAction> = actions
            .iter()
            .map(|heads| AgentAction::from_heads(heads))
            .collect();
        self.step_decoded(&decoded).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleetio_flash::addr::ChannelId;
    use fleetio_flash::config::FlashConfig;
    use fleetio_vssd::request::Priority;
    use fleetio_vssd::vssd::{VssdConfig, VssdId};
    use fleetio_workloads::WorkloadKind;

    fn tiny_cfg() -> FleetIoConfig {
        let mut cfg = FleetIoConfig::default();
        cfg.engine.flash = FlashConfig::training_test();
        cfg.decision_interval = SimDuration::from_millis(500);
        cfg
    }

    fn tenants() -> Vec<TenantSpec> {
        vec![
            TenantSpec::new(
                VssdConfig::hardware(VssdId(0), vec![ChannelId(0), ChannelId(1)])
                    .with_slo(SimDuration::from_millis(2)),
                WorkloadKind::Ycsb,
                1,
            ),
            TenantSpec::new(
                VssdConfig::hardware(VssdId(1), vec![ChannelId(2), ChannelId(3)]),
                WorkloadKind::TeraSort,
                2,
            ),
        ]
    }

    fn env() -> FleetIoEnv {
        let cfg = tiny_cfg();
        let t = tenants();
        let rewards = FleetIoEnv::default_rewards(&cfg, &t);
        FleetIoEnv::new(cfg, t, rewards, 0.0, 4, 99)
    }

    #[test]
    fn reset_produces_observations() {
        let mut e = env();
        let obs = e.reset();
        assert_eq!(obs.len(), 2);
        assert_eq!(obs[0].len(), 33);
        // The seeded window put real traffic into the newest slice.
        let newest = &obs[0][22..33];
        assert!(newest.iter().any(|v| *v != 0.0), "observation all zero");
    }

    #[test]
    fn first_reset_adopts_an_unused_device_and_replaces_a_used_one() {
        let idle = [AgentAction::idle(), AgentAction::idle()];
        let reset_obs = env().reset();
        // `new` builds episode 1's device: stepping it without a reset
        // runs the very window `reset` opens the episode with.
        let mut stepped = env();
        assert_eq!(stepped.step_decoded(&idle).1.observations, reset_obs);
        // Now used, it is rebuilt, and episode 1 starts afresh.
        assert_eq!(stepped.reset(), reset_obs);
    }

    #[test]
    fn step_applies_priority_and_returns_rewards() {
        let mut e = env();
        e.reset();
        let actions = vec![
            vec![0usize, 0, 2], // YCSB: high priority
            vec![2, 0, 1],      // TeraSort: harvest 2 channels
        ];
        let result = e.step(&actions);
        assert_eq!(result.rewards.len(), 2);
        assert!(!result.done);
        assert_eq!(
            e.colocation().engine().snapshot(VssdId(0)).priority,
            Priority::High
        );
        // Rewards are finite and the BI tenant earns bandwidth reward.
        assert!(result.rewards.iter().all(|r| r.is_finite()));
    }

    #[test]
    fn episode_terminates_at_horizon() {
        let mut e = env();
        e.reset();
        let idle = vec![vec![0usize, 0, 1], vec![0, 0, 1]];
        for i in 0..4 {
            let r = e.step(&idle);
            assert_eq!(r.done, i == 3, "window {i}");
        }
    }

    #[test]
    fn harvest_actions_take_effect_after_admission() {
        let mut e = env();
        e.reset();
        // Tenant 0 offers 2 channels, tenant 1 harvests 2.
        let actions = vec![vec![0usize, 2, 1], vec![2, 0, 1]];
        e.step(&actions);
        // After one 500 ms window the 50 ms admission batch has long run.
        let snap = e.colocation().engine().snapshot(VssdId(1));
        assert_eq!(snap.harvested_channels, 2);
    }

    #[test]
    fn default_rewards_use_category_alphas() {
        let cfg = tiny_cfg();
        let t = tenants();
        let r = FleetIoEnv::default_rewards(&cfg, &t);
        // YCSB is LC-2 → α = 5e-3; TeraSort is BI → α = 0.
        assert!((r[0].alpha - cfg.alpha_lc2).abs() < 1e-12);
        assert_eq!(r[1].alpha, 0.0);
    }
}
