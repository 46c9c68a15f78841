//! Per-vSSD deployment agents and offline pre-training (§3.8).
//!
//! The paper pre-trains one PPO model offline (RLlib + Ray) on a set of
//! workloads disjoint from the evaluation set, then deploys an agent per
//! vSSD. Here [`pretrain`] trains the shared policy over one or more
//! collocation scenarios in one schedule: behaviour cloning of
//! [`reference_action`], then `iterations` PPO updates. The first
//! `warmup_iterations` of those collect from one scenario at a time and
//! feed the running observation normalizer; after them the normalizer
//! freezes and each round collects from every scenario at once on the
//! work queue (the Ray stand-in). [`FleetIoAgent`] is one vSSD's
//! per-window greedy inference over the frozen model: a one-tenant
//! [`PolicyBank`].

use fleetio_des::par;
use fleetio_des::rng::SmallRng;
use fleetio_rl::parallel::collect_parallel_envs;
use fleetio_rl::{MultiAgentEnv, ObsNormalizer, PpoConfig, PpoPolicy, PpoTrainer};
use fleetio_workloads::WorkloadKind;

use crate::actions::AgentAction;
use crate::bank::PolicyBank;
use crate::config::FleetIoConfig;
use crate::driver::TenantSpec;
use crate::env::FleetIoEnv;
use crate::states::StateVector;

/// A pre-trained FleetIO model: policy weights plus frozen observation
/// statistics.
#[derive(Debug, Clone)]
pub struct PretrainedModel {
    /// The PPO actor-critic.
    pub policy: PpoPolicy,
    /// Frozen observation normalizer.
    pub normalizer: ObsNormalizer,
}

impl PretrainedModel {
    /// Approximate serialized size in bytes (the paper's model is 2.2 MB
    /// with ~9 K parameters; ours stores f32 weights plus metadata).
    pub fn approx_size_bytes(&self) -> usize {
        self.policy.n_params() * 4 + self.normalizer.dim() * 16
    }
}

/// PPO hyper-parameters derived from the FleetIO configuration (Table 3).
pub fn ppo_config(cfg: &FleetIoConfig) -> PpoConfig {
    PpoConfig {
        lr: cfg.learning_rate,
        critic_lr: cfg.learning_rate * 10.0,
        gamma: cfg.gamma,
        minibatch: cfg.batch_size,
        ..PpoConfig::default()
    }
}

/// Options for [`pretrain`].
#[derive(Debug, Clone, Copy)]
pub struct PretrainOptions {
    /// Training iterations (the paper uses 2 000; scaled-down runs use
    /// far fewer).
    pub iterations: usize,
    /// Environment windows collected per iteration per worker.
    pub windows_per_rollout: usize,
    /// Leading iterations that each collect from one scenario (in turn)
    /// and feed the observation normalizer; the normalizer freezes after
    /// them, and every later iteration collects from all scenarios.
    pub warmup_iterations: usize,
    /// Run behaviour-cloning collection on one worker per scenario
    /// instead of one worker. BC runs in waves of that many scenarios:
    /// the calling thread builds a wave's environments, the workers run
    /// all their rounds, and the wave is then kept for PPO (when
    /// `iterations > 0`) or dropped before the next wave is built, so
    /// serial BC-only training holds one warmed device at a time. Either
    /// way the trained model is the same. PPO rounds always run one
    /// worker per scenario; with `bc_rounds: 0` their environments are
    /// built just before the first one.
    pub parallel: bool,
    /// Learning-rate override for scaled-down training budgets. The paper
    /// trains 2 000 iterations × batch 256 at 1e-4; shorter budgets need a
    /// proportionally larger step. `None` keeps Table 3's value.
    pub lr_override: Option<f32>,
    /// Behaviour-cloning warm-start rounds before PPO. Each round collects
    /// one rollout per scenario driven by [`reference_action`] (with
    /// ε-greedy exploration) and fits the actor to it by cross-entropy.
    /// The paper's full 2 000-iteration budget learns this from scratch;
    /// scaled-down budgets imitate first, then let PPO fine-tune.
    pub bc_rounds: usize,
    /// Exploration rate during behaviour-cloning collection.
    pub bc_epsilon: f64,
    /// Called after every update with `(iteration, mean_reward)`.
    pub progress: Option<fn(usize, f64)>,
}

impl Default for PretrainOptions {
    fn default() -> Self {
        PretrainOptions {
            iterations: 40,
            windows_per_rollout: 24,
            warmup_iterations: 4,
            parallel: true,
            lr_override: Some(1e-3),
            bc_rounds: 6,
            bc_epsilon: 0.15,
            progress: None,
        }
    }
}

/// Pre-trains the shared FleetIO policy over `scenarios` (each a tenant
/// list forming one collocation). Returns the frozen model.
///
/// # Panics
///
/// Panics if `scenarios` is empty or any configuration is invalid.
pub fn pretrain(
    cfg: &FleetIoConfig,
    scenarios: &[Vec<TenantSpec>],
    warm_fraction: f64,
    opts: PretrainOptions,
    seed: u64,
) -> PretrainedModel {
    let mut trainer = pretrain_trainer(cfg, scenarios, warm_fraction, opts, seed);
    trainer.normalizer.freeze();
    PretrainedModel {
        policy: trainer.policy,
        normalizer: trainer.normalizer,
    }
}

/// Like [`pretrain`] but returns the full trainer (optimizers, RNG,
/// update counter, running normalizer) so training can continue — the
/// input to checkpointing and guarded online fine-tuning in
/// `fleetio-model`. [`pretrain`] is this plus a normalizer freeze.
///
/// # Panics
///
/// Panics if `scenarios` is empty or any configuration is invalid.
pub fn pretrain_trainer(
    cfg: &FleetIoConfig,
    scenarios: &[Vec<TenantSpec>],
    warm_fraction: f64,
    opts: PretrainOptions,
    seed: u64,
) -> PpoTrainer {
    assert!(!scenarios.is_empty(), "need at least one scenario");
    let mut rng = SmallRng::seed_from_u64(seed);
    let policy = PpoPolicy::new(
        cfg.obs_dim(),
        &cfg.action_dims(),
        &cfg.hidden_layers,
        &mut rng,
    );
    let mut ppo_cfg = ppo_config(cfg);
    if let Some(lr) = opts.lr_override {
        ppo_cfg.lr = lr;
        ppo_cfg.critic_lr = lr * 3.0;
    }
    let mut trainer = PpoTrainer::new(policy, cfg.obs_dim(), ppo_cfg, seed ^ 0x5151);

    let horizon = opts.windows_per_rollout;
    let n_envs = scenarios.len();
    // Built on this thread, where the device's memory is freed back to:
    // a worker's allocator arena would keep it (DESIGN.md).
    let build_env = |i: usize| {
        let tenants = &scenarios[i];
        FleetIoEnv::new(
            cfg.clone(),
            tenants.clone(),
            FleetIoEnv::default_rewards(cfg, tenants),
            warm_fraction,
            horizon,
            seed.wrapping_add(i as u64),
        )
    };
    // The environments PPO continues, built when a phase first needs
    // them; empty when there is no PPO.
    let mut envs: Vec<FleetIoEnv> = Vec::new();

    // Behaviour-cloning warm-start: collect reference-policy rollouts
    // (DAgger-style: ε-greedy execution, reference labels at the visited
    // states), then fit the actor by cross-entropy.
    if opts.bc_rounds > 0 {
        use fleetio_des::rng::Rng;
        // `bc_rng` never reads the simulation, so every ε-greedy override
        // is drawn up front, serially, in the (round, env, step, agent,
        // head) order the rollouts consume them. Each environment then
        // owns its draws and can run all its rounds on any worker.
        let mut bc_rng = SmallRng::seed_from_u64(seed ^ 0xBC0);
        let dims = cfg.action_dims();
        let mut overrides: Vec<Vec<Option<usize>>> = vec![Vec::new(); n_envs];
        for _ in 0..opts.bc_rounds {
            for (draws, tenants) in overrides.iter_mut().zip(scenarios) {
                for _ in 0..horizon * tenants.len() {
                    for dim in &dims {
                        let explore = bc_rng.gen_range(0.0..1.0) < opts.bc_epsilon;
                        draws.push(explore.then(|| bc_rng.gen_range(0..*dim)));
                    }
                }
            }
        }
        // Waves of `workers` scenarios: each wave's environments run all
        // their rounds, then stay for PPO or are dropped before the next
        // wave is built, so BC alone holds one warmed device per worker.
        let workers = if opts.parallel { n_envs } else { 1 };
        let mut collected = Vec::with_capacity(n_envs);
        for first in (0..n_envs).step_by(workers) {
            let wave = first..n_envs.min(first + workers);
            let mut wave_envs: Vec<FleetIoEnv> = wave.clone().map(build_env).collect();
            collected.extend(par::map_mut(
                &mut wave_envs,
                workers,
                0..wave.len(),
                |i, env| {
                    let _prof = fleetio_obs::prof::span("rollout.bc");
                    let ei = first + i;
                    let mut draws = overrides[ei].iter().copied();
                    let rounds: Vec<Vec<BcSample>> = (0..opts.bc_rounds)
                        .map(|_| bc_rollout(cfg, &scenarios[ei], env, horizon, &mut draws))
                        .collect();
                    rounds.into_iter()
                },
            ));
            if opts.iterations > 0 {
                envs.append(&mut wave_envs);
            }
        }
        // The running normalizer is order-sensitive: feed it serially in
        // (round, env, step, agent) order, whatever the workers did.
        let mut raw_pairs: Vec<BcSample> = Vec::new();
        for _ in 0..opts.bc_rounds {
            for rounds in &mut collected {
                for (o, l) in rounds.next().expect("one rollout per round") {
                    trainer.normalizer.update(&o);
                    raw_pairs.push((o, l));
                }
            }
        }
        let samples: Vec<BcSample> = raw_pairs
            .iter()
            .map(|(o, l)| (trainer.normalizer.normalize(o), l.clone()))
            .collect();
        trainer
            .policy
            .imitate(&samples, 40, cfg.batch_size, 3e-3, seed ^ 0xBC1);
    }
    if opts.iterations > 0 && envs.is_empty() {
        envs = (0..n_envs).map(build_env).collect();
    }

    // PPO: the first `warmup_iterations` collect serially and feed the
    // running normalizer; then it freezes and every round collects from
    // all scenarios on the work queue.
    for it in 0..opts.iterations {
        let buffer = match it.checked_sub(opts.warmup_iterations) {
            None => trainer.collect_rollout(&mut envs[it % n_envs], horizon),
            Some(round) => {
                trainer.normalizer.freeze();
                collect_parallel_envs(
                    &mut envs,
                    &trainer.policy,
                    &trainer.normalizer,
                    horizon,
                    trainer.config().gamma,
                    seed.wrapping_add(round as u64),
                )
            }
        };
        let stats = trainer.update(buffer);
        if let Some(f) = opts.progress {
            f(it, stats.mean_reward);
        }
    }
    trainer
}

/// One behaviour-cloning sample: an observation and the reference
/// policy's action heads for it.
type BcSample = (Vec<f32>, Vec<usize>);

/// One reference-policy rollout of `env` (whose horizon is `horizon`, so
/// the episode is exactly that many windows): the reference labels every
/// visited state, and the executed action is the label with the next
/// three `overrides` (one per head, `Some` = explore) applied.
fn bc_rollout(
    cfg: &FleetIoConfig,
    tenants: &[TenantSpec],
    env: &mut FleetIoEnv,
    horizon: usize,
    overrides: &mut impl Iterator<Item = Option<usize>>,
) -> Vec<BcSample> {
    let params: Vec<ReferenceParams> = tenants
        .iter()
        .map(|t| ReferenceParams::new(cfg, t.config.channels.len(), t.kind))
        .collect();
    let mut samples = Vec::new();
    let _ = env.reset();
    let mut actions = vec![AgentAction::idle(); tenants.len()];
    for _ in 0..horizon {
        let (states, step) = env.step_decoded(&actions);
        actions.clear();
        for ((state, p), obs) in states.iter().zip(&params).zip(step.observations) {
            let mut heads = reference_action(state, p).to_heads();
            samples.push((obs, heads.to_vec()));
            for head in &mut heads {
                if let Some(explored) = overrides.next().expect("one draw per head") {
                    *head = explored;
                }
            }
            actions.push(AgentAction::from_heads(&heads));
        }
    }
    samples
}

/// Parameters conditioning the scripted reference policy on the paper's
/// reward design: the per-type α (Equation 1) sets how strictly the agent
/// trades bandwidth for isolation, and β < 1 (Equation 2) is what gives an
/// agent any incentive to make its resources harvestable at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReferenceParams {
    /// Guaranteed bandwidth of the vSSD's allocation, bytes/second.
    pub bw_guarantee: f64,
    /// Guaranteed SLO-violation fraction (paper default 1 %).
    pub slo_vio_guarantee: f64,
    /// Maximum channels an action can name.
    pub max_channels: usize,
    /// The agent's reward α (larger → stricter isolation).
    pub alpha: f64,
    /// Whether the reward is mixed across agents (β < 1). A selfish agent
    /// (β = 1) has no incentive to offer resources — exactly the
    /// FleetIO-Customized-Local ablation finding of Figure 15.
    pub altruistic: bool,
}

impl ReferenceParams {
    /// The parameters for a tenant of `kind` holding `channels` channels
    /// under `cfg`: its guaranteed bandwidth, the configured SLO-violation
    /// guarantee and action width, its type's α, and β-altruism.
    pub fn new(cfg: &FleetIoConfig, channels: usize, kind: WorkloadKind) -> Self {
        ReferenceParams {
            bw_guarantee: channels as f64 * cfg.engine.flash.channel_peak_bytes_per_sec(),
            slo_vio_guarantee: cfg.slo_violation_guarantee,
            max_channels: cfg.max_action_channels,
            alpha: crate::typing::alpha_for_kind(cfg, kind),
            altruistic: cfg.beta < 0.999,
        }
    }
}

/// The scripted reference policy used to warm-start PPO (and as the
/// `heuristic` ablation baseline). It encodes the paper's qualitative
/// description of good agent behaviour (§3.3.2): bandwidth-hungry vSSDs
/// harvest, under-utilized vSSDs make resources harvestable (less when
/// collocated agents report high SLO violations or the vSSD is in GC),
/// and vSSDs struggling with violations raise their priority. The
/// bandwidth/isolation knee scales with the reward α, so per-type reward
/// fine-tuning (§3.4) shows up in behaviour.
pub fn reference_action(state: &StateVector, params: &ReferenceParams) -> AgentAction {
    use fleetio_vssd::request::Priority;
    let usage = if params.bw_guarantee > 0.0 {
        state.avg_bw / params.bw_guarantee
    } else {
        0.0
    };
    let avg_io = if state.avg_iops > 1.0 {
        state.avg_bw / state.avg_iops
    } else {
        0.0
    };
    let latency_sensitive = state.avg_iops > 100.0 && avg_io < 128.0 * 1024.0;

    let priority = if latency_sensitive || state.slo_vio > params.slo_vio_guarantee {
        Priority::High
    } else {
        // Bulk traffic yields so collocated latency-sensitive requests and
        // reclamation GC are never stuck behind it.
        Priority::Low
    };
    // Harvest when bandwidth-starved: either using most of the guarantee
    // or queueing heavily (shared-channel tenants can starve well below
    // their nominal guarantee, §2.2).
    let starved = usage > 0.35 || state.qdelay_us > 2_000.0;
    let harvest_channels = if starved && !latency_sensitive {
        params.max_channels
    } else {
        0
    };

    if !params.altruistic {
        // β = 1: nothing in the reward pays for offering resources.
        return AgentAction {
            harvest_channels,
            harvestable_channels: 0,
            priority,
        };
    }
    let mut harvestable_channels = if usage < 0.1 {
        params.max_channels
    } else if usage < 0.3 {
        params.max_channels / 2
    } else {
        0
    };
    // Back off when the vSSD is collecting garbage or the neighbourhood is
    // already violating SLOs (§3.3.2's examples).
    if state.in_gc > 0.5 || state.shared_slo_vio > 4.0 * params.slo_vio_guarantee {
        harvestable_channels = harvestable_channels.saturating_sub(params.max_channels / 2);
    }
    // Regulate the offer against the vSSD's *own* violations: harvesters
    // on loaned channels are the main interference source, so shrinking
    // the offer is the lever that restores the SLO. A smaller reward α
    // (utilization-leaning) tolerates proportionally more violations; the
    // reference point is the LC-1 fine-tuned α = 2.5e-2.
    let strictness = (2.5e-2 / params.alpha.clamp(1e-3, 1.0)).clamp(0.2, 5.0);
    if state.slo_vio > 3.0 * params.slo_vio_guarantee * strictness {
        harvestable_channels = 0;
    } else if state.slo_vio > 1.5 * params.slo_vio_guarantee * strictness {
        harvestable_channels /= 4;
    } else if state.slo_vio > params.slo_vio_guarantee * strictness {
        harvestable_channels /= 2;
    }
    AgentAction {
        harvest_channels,
        harvestable_channels,
        priority,
    }
}

/// A deployed per-vSSD agent: a one-tenant [`PolicyBank`] over a copy
/// of the frozen model.
#[derive(Debug, Clone)]
pub struct FleetIoAgent {
    bank: PolicyBank,
}

impl FleetIoAgent {
    /// Instantiates an agent from a pre-trained model.
    pub fn new(model: &PretrainedModel, history_windows: usize) -> Self {
        FleetIoAgent {
            bank: PolicyBank::new(model.clone(), 1, history_windows),
        }
    }

    /// Feeds the newest window state and returns the greedy action
    /// (deployment inference, §3.8: ~1 ms per window on one core).
    pub fn decide(&mut self, state: StateVector) -> AgentAction {
        self.bank.decide_all(&[(0, state)])[0].1
    }

    /// Clears the agent's window history (workload swap, redeployment).
    pub fn reset(&mut self) {
        self.bank.reset_history(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleetio_des::SimDuration;
    use fleetio_flash::addr::ChannelId;
    use fleetio_flash::config::FlashConfig;
    use fleetio_vssd::vssd::{VssdConfig, VssdId};

    fn tiny_cfg() -> FleetIoConfig {
        let mut cfg = FleetIoConfig::default();
        cfg.engine.flash = FlashConfig::training_test();
        cfg.decision_interval = SimDuration::from_millis(250);
        cfg
    }

    fn scenario() -> Vec<TenantSpec> {
        vec![
            TenantSpec::new(
                VssdConfig::hardware(VssdId(0), vec![ChannelId(0), ChannelId(1)])
                    .with_slo(SimDuration::from_millis(2)),
                WorkloadKind::Tpce,
                1,
            ),
            TenantSpec::new(
                VssdConfig::hardware(VssdId(1), vec![ChannelId(2), ChannelId(3)]),
                WorkloadKind::BatchAnalytics,
                2,
            ),
        ]
    }

    /// FNV-1a of the BC-only trainer state, captured at the parent of the
    /// commit that moved BC collection onto the work queue.
    const GOLDEN_BC_TRAINER: u64 = 0x857a_2b90_a3fc_a950;

    fn quick_opts() -> PretrainOptions {
        PretrainOptions {
            iterations: 3,
            windows_per_rollout: 4,
            warmup_iterations: 1,
            parallel: false,
            lr_override: None,
            bc_rounds: 1,
            bc_epsilon: 0.2,
            progress: None,
        }
    }

    #[test]
    fn pretrain_produces_a_frozen_model() {
        let cfg = tiny_cfg();
        let model = pretrain(&cfg, &[scenario()], 0.0, quick_opts(), 11);
        assert!(model.normalizer.is_frozen());
        // Paper scale: ~9 K parameters.
        assert!((5_000..15_000).contains(&model.policy.n_params()));
        assert!(model.approx_size_bytes() > 20_000);
    }

    #[test]
    fn pretrain_parallel_mode_works() {
        let cfg = tiny_cfg();
        let opts = PretrainOptions {
            parallel: true,
            ..quick_opts()
        };
        let model = pretrain(&cfg, &[scenario(), scenario()], 0.0, opts, 12);
        assert!(model.normalizer.is_frozen());
    }

    /// A second scenario, unlike [`scenario`] in kinds and seeds, so the
    /// two environments' observations cannot be swapped unnoticed.
    fn other_scenario() -> Vec<TenantSpec> {
        vec![
            TenantSpec::new(
                VssdConfig::hardware(VssdId(0), vec![ChannelId(0), ChannelId(1)])
                    .with_slo(SimDuration::from_millis(2)),
                WorkloadKind::VdiWeb,
                3,
            ),
            TenantSpec::new(
                VssdConfig::hardware(VssdId(1), vec![ChannelId(2), ChannelId(3)]),
                WorkloadKind::TeraSort,
                4,
            ),
        ]
    }

    /// Behaviour cloning alone (`iterations: 0`): collecting on workers
    /// must leave the policy, the optimizers and the running normalizer
    /// bit-identical to serial collection — and to the trainer state of
    /// the last commit that drew `bc_rng` inside the rollout loop, so
    /// pre-drawing the ε-greedy overrides is proven not to reorder it.
    /// With a warm-up and frozen PPO rounds after BC, `parallel` still
    /// changes nothing but the BC worker count.
    #[test]
    fn bc_collection_is_bit_identical_parallel_serial_and_golden() {
        let cfg = tiny_cfg();
        let train = |parallel, iterations| {
            let opts = PretrainOptions {
                iterations,
                windows_per_rollout: 3,
                bc_rounds: 2,
                bc_epsilon: 0.3,
                parallel,
                ..quick_opts()
            };
            let scenarios = [scenario(), other_scenario()];
            let trainer = pretrain_trainer(&cfg, &scenarios, 0.0, opts, 15);
            format!("{:?}", trainer.export_state())
        };
        let serial = train(false, 0);
        assert_eq!(serial, train(true, 0), "workers changed BC collection");
        assert_eq!(
            fleetio_des::hash::fnv1a64(serial.as_bytes()),
            GOLDEN_BC_TRAINER,
            "BC collection drifted from the pre-queue trainer state"
        );
        assert_eq!(train(false, 3), train(true, 3), "workers changed PPO");
    }

    /// A third scenario, so one worker runs BC in three waves.
    fn third_scenario() -> Vec<TenantSpec> {
        vec![
            TenantSpec::new(
                VssdConfig::hardware(VssdId(0), vec![ChannelId(0), ChannelId(1)])
                    .with_slo(SimDuration::from_millis(2)),
                WorkloadKind::Ycsb,
                5,
            ),
            TenantSpec::new(
                VssdConfig::hardware(VssdId(1), vec![ChannelId(2), ChannelId(3)]),
                WorkloadKind::BatchAnalytics,
                6,
            ),
        ]
    }

    /// FNV-1a of the trainer states of
    /// `environments_built_per_phase_leave_trainers_bit_identical`, captured
    /// at the parent of the commit that ran BC in waves and built
    /// environments only for the phases that use them: three scenarios
    /// BC-only, the same with two PPO iterations after BC, and two PPO
    /// iterations without BC.
    const GOLDEN_THREE_SCENARIOS_BC: u64 = 0x3ee7_7213_6723_88af;
    const GOLDEN_THREE_SCENARIOS_BC_PPO: u64 = 0x0635_396d_c74c_4af3;
    const GOLDEN_PPO_ONLY: u64 = 0xe0ea_c6ab_96b1_5ad2;

    /// One worker runs BC over three scenarios in three waves, each
    /// dropped after its rounds or kept for PPO; `parallel` runs them in
    /// one wave. Without BC the environments are built just before PPO.
    /// Every trainer state is the one of the parent, which built every
    /// environment before BC.
    #[test]
    fn environments_built_per_phase_leave_trainers_bit_identical() {
        let cfg = tiny_cfg();
        let scenarios = [scenario(), other_scenario(), third_scenario()];
        let train = |parallel, bc_rounds, iterations| {
            let opts = PretrainOptions {
                iterations,
                windows_per_rollout: 3,
                bc_rounds,
                bc_epsilon: 0.3,
                parallel,
                ..quick_opts()
            };
            let trainer = pretrain_trainer(&cfg, &scenarios, 0.0, opts, 16);
            fleetio_des::hash::fnv1a64(format!("{:?}", trainer.export_state()).as_bytes())
        };
        for (bc_rounds, iterations, golden) in [
            (2, 0, GOLDEN_THREE_SCENARIOS_BC),
            (2, 2, GOLDEN_THREE_SCENARIOS_BC_PPO),
            (0, 2, GOLDEN_PPO_ONLY),
        ] {
            for parallel in [false, true] {
                assert_eq!(
                    train(parallel, bc_rounds, iterations),
                    golden,
                    "bc_rounds {bc_rounds}, iterations {iterations}, parallel {parallel}"
                );
            }
        }
    }

    #[test]
    fn agent_decides_deterministically_when_greedy() {
        let cfg = tiny_cfg();
        let model = pretrain(&cfg, &[scenario()], 0.0, quick_opts(), 13);
        let mut a = FleetIoAgent::new(&model, cfg.history_windows);
        let mut b = FleetIoAgent::new(&model, cfg.history_windows);
        let state = StateVector::zero();
        assert_eq!(a.decide(state), b.decide(state));
        // Action heads stay within bounds.
        let act = a.decide(state);
        assert!(act.harvest_channels <= cfg.max_action_channels);
        assert!(act.harvestable_channels <= cfg.max_action_channels);
    }

    #[test]
    fn agent_reset_clears_history() {
        let cfg = tiny_cfg();
        let model = pretrain(&cfg, &[scenario()], 0.0, quick_opts(), 14);
        let mut a = FleetIoAgent::new(&model, cfg.history_windows);
        let mut s = StateVector::zero();
        s.avg_bw = 1e8;
        let _ = a.decide(s);
        a.reset();
        let mut b = FleetIoAgent::new(&model, cfg.history_windows);
        assert_eq!(a.decide(StateVector::zero()), b.decide(StateVector::zero()));
    }

    #[test]
    fn ppo_config_follows_table_3() {
        let cfg = tiny_cfg();
        let p = ppo_config(&cfg);
        assert_eq!(p.lr, cfg.learning_rate);
        assert_eq!(p.gamma, cfg.gamma);
        assert_eq!(p.minibatch, cfg.batch_size);
    }
}
