//! The model bank: the one place a frozen model decides (§3.8's greedy
//! inference per vSSD per window).
//!
//! A bank holds per-tenant state histories over a small set of shared
//! frozen models. Each window, every tenant's newest state goes in and
//! every tenant's greedy action comes out, with one batched normalizer
//! apply and one batched actor pass ([`fleetio_ml::Mlp::forward_batch`])
//! per model. A tenant's action depends only on its own history and
//! model, never on which other tenants share the pass.
//!
//! Every deployment decider is a bank: a fleet's runtime holds one for
//! all its tenants, [`crate::baselines::FleetIoPolicy`] one per
//! colocation, and [`crate::agent::FleetIoAgent`] is a one-tenant bank.

use crate::actions::AgentAction;
use crate::agent::PretrainedModel;
use crate::states::{StateHistory, StateVector};

/// The registry tag a bank files its default model under.
pub const DEFAULT_MODEL_TAG: &str = "default";

/// Per-tenant histories over shared frozen models, batch-inferred.
#[derive(Debug, Clone)]
pub struct PolicyBank {
    models: Vec<(String, PretrainedModel)>,
    /// Tenant index → model index.
    assignment: Vec<usize>,
    histories: Vec<StateHistory>,
    obs_dim: usize,
}

impl PolicyBank {
    /// A bank of `n_tenants` tenants all assigned to `default` (filed
    /// under [`DEFAULT_MODEL_TAG`]), each with a zero-padded
    /// `history_windows`-deep state history. Every model's normalizer is
    /// frozen on entry.
    ///
    /// # Panics
    ///
    /// Panics if `n_tenants` or `history_windows` is zero.
    pub fn new(default: PretrainedModel, n_tenants: usize, history_windows: usize) -> Self {
        assert!(n_tenants > 0, "need at least one tenant");
        let obs_dim = default.normalizer.dim();
        let mut bank = PolicyBank {
            models: Vec::new(),
            assignment: vec![0; n_tenants],
            histories: (0..n_tenants)
                .map(|_| StateHistory::new(history_windows))
                .collect(),
            obs_dim,
        };
        bank.intern(DEFAULT_MODEL_TAG, default);
        bank
    }

    fn intern(&mut self, tag: &str, model: PretrainedModel) -> usize {
        if let Some(i) = self.models.iter().position(|(t, _)| t == tag) {
            return i;
        }
        assert_eq!(
            model.normalizer.dim(),
            self.obs_dim,
            "model {tag:?} has mismatched observation dimension"
        );
        let mut model = model;
        model.normalizer.freeze();
        self.models.push((tag.to_string(), model));
        self.models.len() - 1
    }

    /// Reassigns `tenant` to the model filed under `tag`, interning
    /// `model` if the tag is new, and resets the tenant's history (a
    /// migrated tenant's stacked windows describe the old placement).
    pub fn assign(&mut self, tenant: u32, tag: &str, model: PretrainedModel) {
        let idx = self.intern(tag, model);
        self.assignment[tenant as usize] = idx;
        self.reset_history(tenant);
    }

    /// Clears `tenant`'s stacked windows (workload swap, migration
    /// without a model change).
    pub fn reset_history(&mut self, tenant: u32) {
        self.histories[tenant as usize].reset();
    }

    /// Tenants the bank decides for.
    pub fn n_tenants(&self) -> usize {
        self.histories.len()
    }

    /// Distinct models interned.
    pub fn n_models(&self) -> usize {
        self.models.len()
    }

    /// Feeds each tenant's newest window state and returns every
    /// tenant's greedy action, in ascending tenant order. Tenants are
    /// grouped by model; each group is one batched normalizer apply and
    /// one batched actor pass.
    pub fn decide_all(&mut self, states: &[(u32, StateVector)]) -> Vec<(u32, AgentAction)> {
        for (tenant, state) in states {
            self.histories[*tenant as usize].push(*state);
        }
        let mut out: Vec<(u32, AgentAction)> = Vec::with_capacity(states.len());
        for (mi, (_, model)) in self.models.iter().enumerate() {
            let group: Vec<u32> = states
                .iter()
                .map(|(t, _)| *t)
                .filter(|t| self.assignment[*t as usize] == mi)
                .collect();
            if group.is_empty() {
                continue;
            }
            let mut flat = Vec::with_capacity(group.len() * self.obs_dim);
            for &t in &group {
                flat.extend_from_slice(&self.histories[t as usize].observation());
            }
            let mut norm = Vec::with_capacity(flat.len());
            model.normalizer.normalize_batch(&flat, &mut norm);
            for (heads, &t) in model
                .policy
                .act_greedy_batch(&norm, group.len())
                .iter()
                .zip(&group)
            {
                out.push((t, AgentAction::from_heads(heads)));
            }
        }
        out.sort_by_key(|(t, _)| *t);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::FleetIoAgent;
    use crate::config::FleetIoConfig;
    use fleetio_des::rng::SmallRng;
    use fleetio_rl::{ObsNormalizer, PpoPolicy};

    fn state(i: u32) -> StateVector {
        let mut s = StateVector::zero();
        s.avg_bw = 1e6 * f64::from(i + 1);
        s.avg_iops = 250.0 * f64::from(i + 1);
        s.slo_vio = 0.01 * f64::from(i % 3);
        s
    }

    /// A seeded model with FleetIO's deployment dimensions whose
    /// normalizer has seen a few windows, so decisions go through a real
    /// standardization; the bank freezes it.
    fn model(seed: u64) -> PretrainedModel {
        let cfg = FleetIoConfig::default();
        let mut rng = SmallRng::seed_from_u64(seed);
        let policy = PpoPolicy::new(
            cfg.obs_dim(),
            &cfg.action_dims(),
            &cfg.hidden_layers,
            &mut rng,
        );
        let mut normalizer = ObsNormalizer::new(cfg.obs_dim(), 10.0);
        let mut history = StateHistory::new(cfg.history_windows);
        for i in 0..8 {
            history.push(state(i * 5));
            normalizer.update(&history.observation());
        }
        PretrainedModel { policy, normalizer }
    }

    /// One tenant's actions depend on its own history and model only:
    /// decided alone in a one-tenant bank, among five tenants (one of
    /// them on a second model, so the window runs two groups), and with
    /// the window's states listed in reverse order, they are identical
    /// window after window.
    #[test]
    fn batch_composition_leaves_decisions_unchanged() {
        let m = model(3);
        let mut alone = PolicyBank::new(m.clone(), 1, 3);
        let mut among = PolicyBank::new(m.clone(), 5, 3);
        let mut reversed = PolicyBank::new(m, 5, 3);
        for bank in [&mut among, &mut reversed] {
            bank.assign(4, "bi", model(99));
        }
        let mut seen = Vec::new();
        for round in 0..6 {
            let states: Vec<(u32, StateVector)> =
                (0..5u32).map(|t| (t, state(t * 7 + round))).collect();
            let solo = alone.decide_all(&[(0, states[2].1)])[0].1;
            let batched = among.decide_all(&states);
            let rev: Vec<(u32, StateVector)> = states.iter().rev().copied().collect();
            assert_eq!(batched, reversed.decide_all(&rev), "round {round}");
            assert_eq!(batched[2], (2, solo), "round {round}");
            seen.extend(batched.into_iter().map(|(_, a)| a));
        }
        seen.sort_by_key(|a| a.to_heads());
        seen.dedup();
        assert!(seen.len() > 1, "the states never moved a decision");
    }

    #[test]
    fn assign_interns_by_tag_and_resets_history() {
        let mut bank = PolicyBank::new(model(3), 3, 3);
        assert_eq!(bank.n_models(), 1);
        assert_eq!(bank.models[bank.assignment[1]].0, DEFAULT_MODEL_TAG);
        let _ = bank.decide_all(&[(1, state(40))]);
        let other = model(99);
        bank.assign(1, "bi", other.clone());
        bank.assign(2, "bi", other.clone());
        assert_eq!(bank.n_models(), 2, "same tag interned once");
        assert_eq!(bank.models[bank.assignment[1]].0, "bi");
        // Tenant 1's history restarted: its first post-assign decision
        // matches a fresh agent's first decision.
        let mut fresh = FleetIoAgent::new(&other, 3);
        let states: Vec<(u32, StateVector)> = (0..3u32).map(|t| (t, state(t))).collect();
        let batched = bank.decide_all(&states);
        assert_eq!(batched[1].1, fresh.decide(state(1)));
    }

    #[test]
    fn partial_state_sets_decide_only_those_tenants() {
        let mut bank = PolicyBank::new(model(3), 4, 3);
        let states = vec![(2u32, state(0)), (0u32, state(1))];
        let out = bank.decide_all(&states);
        let tenants: Vec<u32> = out.iter().map(|(t, _)| *t).collect();
        assert_eq!(tenants, vec![0, 2], "ascending tenant order");
    }
}
