//! Guarded online fine-tuning.
//!
//! The paper pre-trains per-workload-type models offline and fine-tunes
//! them online against live traffic (§3.7). Online updates can regress —
//! a burst of unrepresentative windows pushes the policy somewhere worse
//! than the pre-trained baseline — so fine-tuning here is *guarded*:
//!
//! * the trainer autosaves to the registry on a simulated-time cadence,
//!   so a crash loses at most one interval of progress;
//! * a windowed mean of per-update rewards is compared against the best
//!   windowed mean seen so far (the *baseline*); whenever the window
//!   meets the baseline, the current checkpoint is promoted to the
//!   `last_good` slot;
//! * when the window falls below `baseline − regression_threshold`, the
//!   manager rolls the trainer back to `last_good` and keeps training
//!   from there.
//!
//! Every save/load/promote/rollback emits an
//! [`ObsEvent::ModelLifecycle`] into the installed sink, timestamped in
//! simulated time, so lifecycle decisions are visible in the same JSONL
//! stream as the simulator's own events (and equally deterministic).

use std::collections::VecDeque;

use fleetio_des::codec::DecodeError;
use fleetio_des::{SimDuration, SimTime};
use fleetio_obs::sink::{NullSink, ObsSink};
use fleetio_obs::{ModelKind, ObsEvent};
use fleetio_rl::ppo::PpoStats;
use fleetio_rl::PpoTrainer;

use crate::checkpoint::{CheckpointMeta, ModelCheckpoint};
use crate::registry::{ModelRegistry, RegistryError};

/// Knobs for [`FineTuneManager`].
#[derive(Debug, Clone, PartialEq)]
pub struct FineTuneConfig {
    /// Simulated-time cadence between automatic checkpoint saves.
    pub autosave_interval: SimDuration,
    /// Number of recent PPO updates whose mean reward forms the guard
    /// window.
    pub reward_window: usize,
    /// Roll back once the window's mean reward drops more than this far
    /// below the baseline.
    pub regression_threshold: f64,
}

impl Default for FineTuneConfig {
    fn default() -> Self {
        FineTuneConfig {
            autosave_interval: SimDuration::from_secs(30),
            reward_window: 8,
            regression_threshold: 0.2,
        }
    }
}

impl FineTuneConfig {
    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// A message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.autosave_interval == SimDuration::ZERO {
            return Err("autosave_interval must be positive".into());
        }
        if self.reward_window == 0 {
            return Err("reward_window must be positive".into());
        }
        if !(self.regression_threshold.is_finite() && self.regression_threshold > 0.0) {
            return Err("regression_threshold must be positive and finite".into());
        }
        Ok(())
    }
}

/// What [`FineTuneManager::observe`] did this update, in descending
/// priority (at most one action fires per call).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FineTuneAction {
    /// Windowed reward regressed; the trainer was reset to `last_good`.
    RolledBack,
    /// The window met the baseline; current checkpoint promoted to
    /// `last_good` (baseline ratchets up when the window beats it).
    Promoted,
    /// The autosave cadence elapsed; current state saved.
    Autosaved,
    /// Nothing to do.
    None,
}

/// Online fine-tuning with autosave, promote-on-improvement and
/// rollback-on-regression.
#[derive(Debug)]
pub struct FineTuneManager {
    registry: ModelRegistry,
    cfg: FineTuneConfig,
    meta: CheckpointMeta,
    trainer: PpoTrainer,
    window: VecDeque<f64>,
    baseline: Option<f64>,
    last_autosave: SimTime,
    sink: Box<dyn ObsSink>,
}

impl FineTuneManager {
    /// Starts fine-tuning from an in-memory trainer (e.g. fresh from
    /// pre-training), seeding the registry with an initial checkpoint in
    /// both the current and `last_good` slots.
    ///
    /// # Errors
    ///
    /// Invalid config/tag or a registry write failure.
    pub fn from_trainer(
        registry: ModelRegistry,
        meta: CheckpointMeta,
        trainer: PpoTrainer,
        cfg: FineTuneConfig,
        now: SimTime,
    ) -> Result<Self, RegistryError> {
        cfg.validate().map_err(RegistryError::InvalidConfig)?;
        let mut mgr = FineTuneManager {
            registry,
            cfg,
            meta,
            trainer,
            window: VecDeque::new(),
            baseline: None,
            last_autosave: now,
            sink: Box::new(NullSink),
        };
        mgr.save_current()?;
        mgr.registry.promote_last_good(&mgr.meta.tag)?;
        mgr.emit(now, ModelKind::Saved);
        Ok(mgr)
    }

    /// Resumes fine-tuning from the registry's checkpoint for `tag`,
    /// falling back to `last_good` when the current file is missing or
    /// corrupt. Returns the manager plus whether the fallback fired.
    ///
    /// # Errors
    ///
    /// Invalid config/tag, no usable checkpoint, or a checkpoint whose
    /// pieces fail cross-validation in `PpoTrainer::from_state`.
    pub fn resume(
        registry: ModelRegistry,
        tag: &str,
        cfg: FineTuneConfig,
        now: SimTime,
        mut sink: Box<dyn ObsSink>,
    ) -> Result<(Self, bool), RegistryError> {
        cfg.validate().map_err(RegistryError::InvalidConfig)?;
        let (ckpt, fell_back) = registry.load_model_or_last_good(tag)?;
        if fell_back && sink.enabled() {
            sink.record(ObsEvent::ModelLifecycle {
                at: now,
                kind: ModelKind::CorruptDetected,
                tag: tag.to_string(),
                update: 0,
            });
        }
        let trainer = restore(&registry, tag, &ckpt)?;
        let mut mgr = FineTuneManager {
            registry,
            cfg,
            meta: ckpt.meta,
            trainer,
            window: VecDeque::new(),
            baseline: None,
            last_autosave: now,
            sink,
        };
        mgr.emit(now, ModelKind::Loaded);
        Ok((mgr, fell_back))
    }

    /// Installs an observability sink (replacing the current one).
    pub fn set_sink(&mut self, sink: Box<dyn ObsSink>) {
        self.sink = sink;
    }

    /// Removes and returns the sink, leaving a [`NullSink`].
    pub fn take_sink(&mut self) -> Box<dyn ObsSink> {
        std::mem::replace(&mut self.sink, Box::new(NullSink))
    }

    /// The trainer, for running PPO updates between `observe` calls.
    pub fn trainer_mut(&mut self) -> &mut PpoTrainer {
        &mut self.trainer
    }

    /// Read access to the trainer.
    pub fn trainer(&self) -> &PpoTrainer {
        &self.trainer
    }

    /// Checkpoint provenance (seed + tag).
    pub fn meta(&self) -> &CheckpointMeta {
        &self.meta
    }

    /// The current reward baseline, once a full window has formed.
    pub fn baseline(&self) -> Option<f64> {
        self.baseline
    }

    /// Feeds the stats of one PPO update into the guard, applying at
    /// most one lifecycle action (rollback > promote > autosave).
    ///
    /// # Errors
    ///
    /// A registry read/write failure, or a corrupt `last_good` at
    /// rollback time.
    pub fn observe(
        &mut self,
        now: SimTime,
        stats: &PpoStats,
    ) -> Result<FineTuneAction, RegistryError> {
        self.window.push_back(stats.mean_reward);
        while self.window.len() > self.cfg.reward_window {
            self.window.pop_front();
        }
        if self.window.len() == self.cfg.reward_window {
            let mean = self.window.iter().sum::<f64>() / self.window.len() as f64;
            match self.baseline {
                Some(base) if mean < base - self.cfg.regression_threshold => {
                    self.rollback(now)?;
                    return Ok(FineTuneAction::RolledBack);
                }
                Some(base) if mean >= base => {
                    self.baseline = Some(mean);
                    self.save_current()?;
                    self.registry.promote_last_good(&self.meta.tag)?;
                    self.last_autosave = now;
                    self.emit(now, ModelKind::Saved);
                    return Ok(FineTuneAction::Promoted);
                }
                None => {
                    // First full window: establish the baseline and pin
                    // the matching weights as last-good.
                    self.baseline = Some(mean);
                    self.save_current()?;
                    self.registry.promote_last_good(&self.meta.tag)?;
                    self.last_autosave = now;
                    self.emit(now, ModelKind::Saved);
                    return Ok(FineTuneAction::Promoted);
                }
                Some(_) => {}
            }
        }
        if now.saturating_since(self.last_autosave) >= self.cfg.autosave_interval {
            self.save_current()?;
            self.last_autosave = now;
            self.emit(now, ModelKind::Saved);
            return Ok(FineTuneAction::Autosaved);
        }
        Ok(FineTuneAction::None)
    }

    fn save_current(&self) -> Result<(), RegistryError> {
        let ckpt = ModelCheckpoint {
            meta: self.meta.clone(),
            trainer: self.trainer.export_state(),
        };
        self.registry.save_model(&ckpt)?;
        Ok(())
    }

    fn rollback(&mut self, now: SimTime) -> Result<(), RegistryError> {
        let ckpt = self.registry.load_last_good(&self.meta.tag)?;
        self.trainer = restore(&self.registry, &self.meta.tag, &ckpt)?;
        self.meta = ckpt.meta;
        // Also reinstate last-good as the current checkpoint so a crash
        // right now resumes from the rolled-back weights.
        self.save_current()?;
        self.window.clear();
        self.last_autosave = now;
        self.emit(now, ModelKind::RolledBack);
        Ok(())
    }

    fn emit(&mut self, now: SimTime, kind: ModelKind) {
        if self.sink.enabled() {
            self.sink.record(ObsEvent::ModelLifecycle {
                at: now,
                kind,
                tag: self.meta.tag.clone(),
                update: self.trainer.updates(),
            });
        }
    }
}

fn restore(
    registry: &ModelRegistry,
    tag: &str,
    ckpt: &ModelCheckpoint,
) -> Result<PpoTrainer, RegistryError> {
    PpoTrainer::from_state(ckpt.trainer.clone()).map_err(|msg| RegistryError::Corrupt {
        path: registry.model_path(tag),
        error: DecodeError::Malformed(msg),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleetio_des::rng::SmallRng;
    use fleetio_obs::RecordingSink;
    use fleetio_rl::{PpoConfig, PpoPolicy};
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("fleetio-model-finetune")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fresh_trainer(seed: u64) -> PpoTrainer {
        let mut rng = SmallRng::seed_from_u64(seed);
        let policy = PpoPolicy::new(2, &[3], &[4], &mut rng);
        PpoTrainer::new(policy, 2, PpoConfig::default(), seed)
    }

    fn stats(mean_reward: f64) -> PpoStats {
        PpoStats {
            policy_loss: 0.0,
            value_loss: 0.0,
            entropy: 0.0,
            kl: 0.0,
            clip_fraction: 0.0,
            mean_reward,
            samples: 32,
        }
    }

    fn manager(name: &str) -> FineTuneManager {
        let registry = ModelRegistry::open(scratch(name));
        let cfg = FineTuneConfig {
            autosave_interval: SimDuration::from_secs(10),
            reward_window: 2,
            regression_threshold: 0.5,
        };
        FineTuneManager::from_trainer(
            registry,
            CheckpointMeta {
                seed: 5,
                tag: "lc1".to_string(),
            },
            fresh_trainer(5),
            cfg,
            SimTime::ZERO,
        )
        .expect("manager builds")
    }

    #[test]
    fn promotes_then_rolls_back_on_regression() {
        let mut mgr = manager("rollback");
        mgr.set_sink(Box::new(RecordingSink::new()));
        let t = |s| SimTime::ZERO + SimDuration::from_secs(s);
        // Two good windows establish and ratchet the baseline.
        assert_eq!(
            mgr.observe(t(1), &stats(1.0)).expect("observe"),
            FineTuneAction::None
        );
        assert_eq!(
            mgr.observe(t(2), &stats(1.0)).expect("observe"),
            FineTuneAction::Promoted
        );
        assert_eq!(mgr.baseline(), Some(1.0));
        let good_render = format!("{:?}", mgr.trainer().export_state());
        // Simulated divergence: train a bit so current != last_good...
        let snapshot_updates = mgr.trainer().updates();
        // ...then two bad windows breach baseline − threshold.
        assert_eq!(
            mgr.observe(t(3), &stats(0.1)).expect("observe"),
            FineTuneAction::None,
            "window mean 0.55 is within threshold"
        );
        assert_eq!(
            mgr.observe(t(4), &stats(0.1)).expect("observe"),
            FineTuneAction::RolledBack
        );
        // The trainer is bit-identical to the promoted snapshot.
        assert_eq!(format!("{:?}", mgr.trainer().export_state()), good_render);
        assert_eq!(mgr.trainer().updates(), snapshot_updates);
        // The sink saw the rollback.
        let sink = mgr.take_sink();
        let sink = sink
            .into_any()
            .downcast::<RecordingSink>()
            .expect("sink downcasts");
        assert!(sink.events().iter().any(|e| matches!(
            e,
            ObsEvent::ModelLifecycle {
                kind: ModelKind::RolledBack,
                ..
            }
        )));
    }

    #[test]
    fn autosaves_on_cadence() {
        let mut mgr = manager("autosave");
        let t = |s| SimTime::ZERO + SimDuration::from_secs(s);
        // Keep the window from triggering promote/rollback decisions by
        // feeding the baseline value after it forms.
        assert_eq!(
            mgr.observe(t(1), &stats(1.0)).expect("observe"),
            FineTuneAction::None
        );
        assert_eq!(
            mgr.observe(t(2), &stats(1.0)).expect("observe"),
            FineTuneAction::Promoted
        );
        // Window mean 0.9 stays above baseline − 0.5 but below baseline:
        // no promote, no rollback — only the cadence acts.
        assert_eq!(
            mgr.observe(t(5), &stats(0.8)).expect("observe"),
            FineTuneAction::None
        );
        assert_eq!(
            mgr.observe(t(13), &stats(0.8)).expect("observe"),
            FineTuneAction::Autosaved,
            "11s since the promote at t=2 exceeds the 10s cadence"
        );
        assert_eq!(
            mgr.observe(t(14), &stats(0.8)).expect("observe"),
            FineTuneAction::None
        );
    }

    #[test]
    fn resume_falls_back_when_current_corrupt() {
        let name = "resume_fallback";
        let mgr = manager(name);
        let registry = ModelRegistry::open(scratch_keep(name));
        drop(mgr);
        // Corrupt the current checkpoint on disk.
        let path = registry.model_path("lc1");
        let mut bytes = std::fs::read(&path).expect("checkpoint readable");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).expect("corruption plants");
        let (mgr, fell_back) = FineTuneManager::resume(
            registry,
            "lc1",
            FineTuneConfig::default(),
            SimTime::ZERO,
            Box::new(RecordingSink::new()),
        )
        .expect("resume recovers via last-good");
        assert!(fell_back);
        let mut mgr = mgr;
        let sink = mgr.take_sink();
        let sink = sink
            .into_any()
            .downcast::<RecordingSink>()
            .expect("sink downcasts");
        let kinds: Vec<&'static str> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                ObsEvent::ModelLifecycle { kind, .. } => Some(kind.tag()),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, ["corrupt_detected", "loaded"]);
    }

    /// Like `scratch` but without wiping the directory (for reopening).
    fn scratch_keep(name: &str) -> PathBuf {
        std::env::temp_dir()
            .join("fleetio-model-finetune")
            .join(name)
    }

    #[test]
    fn config_validation() {
        let mut cfg = FineTuneConfig::default();
        assert!(cfg.validate().is_ok());
        cfg.reward_window = 0;
        assert!(cfg.validate().is_err());
        let cfg = FineTuneConfig {
            regression_threshold: f64::NAN,
            ..FineTuneConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = FineTuneConfig {
            autosave_interval: SimDuration::ZERO,
            ..FineTuneConfig::default()
        };
        assert!(cfg.validate().is_err());
    }
}
