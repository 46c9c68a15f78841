//! Registry warm-start: model selection at vSSD attach time (§3.7).
//!
//! The paper keeps one pre-trained model per workload type and picks the
//! right one when a vSSD attaches: classify the tenant's recent I/O
//! windows with the §3.4 typing model, then load the checkpoint filed
//! under that type. This module is the glue between `fleetio`'s typing
//! machinery and the `fleetio-model` registry:
//!
//! * [`type_tag`] / [`tag_type`] — the canonical registry tags for the
//!   Figure 6 workload types (`lc1`, `lc2`, `bi`),
//! * [`typing_index`] / [`typing_model_from_index`] — lossless
//!   conversion between a fitted [`TypingModel`] and the serializable
//!   [`TypingIndex`] the registry stores,
//! * [`checkpoint_from_trainer`] — wraps a (pre-)trained `PpoTrainer`
//!   as a tagged [`ModelCheckpoint`],
//! * [`model_from_checkpoint`] — loads a checkpoint (falling back to
//!   `last_good` when the current file is corrupt) as frozen
//!   [`PretrainedModel`] weights, which a caller hands to a
//!   [`PolicyBank`](crate::bank::PolicyBank): a fleet's shared bank, or
//!   the one-tenant bank of a
//!   [`FleetIoAgent`](crate::agent::FleetIoAgent),
//! * [`warm_start_model`] — the full attach path: classify → select tag →
//!   load model; `Ok(None)` means the workload fits no learned cluster
//!   and the caller should fall back to the unified model or train from
//!   scratch.

use fleetio_des::codec::DecodeError;
use fleetio_ml::{KMeans, StandardScaler};
use fleetio_model::{CheckpointMeta, ModelCheckpoint, ModelRegistry, RegistryError, TypingIndex};
use fleetio_rl::PpoTrainer;
use fleetio_workloads::WindowFeatures;

use crate::agent::PretrainedModel;
use crate::typing::{TypingModel, WorkloadType};

/// The registry tag for a workload type.
pub fn type_tag(t: WorkloadType) -> &'static str {
    match t {
        WorkloadType::Lc1 => "lc1",
        WorkloadType::Lc2 => "lc2",
        WorkloadType::Bi => "bi",
    }
}

/// Parses a registry tag back to a workload type.
pub fn tag_type(tag: &str) -> Option<WorkloadType> {
    match tag {
        "lc1" => Some(WorkloadType::Lc1),
        "lc2" => Some(WorkloadType::Lc2),
        "bi" => Some(WorkloadType::Bi),
        _ => None,
    }
}

/// Converts a fitted typing model into the serializable registry index.
pub fn typing_index(model: &TypingModel) -> TypingIndex {
    TypingIndex {
        scaler_mean: model.scaler().mean().to_vec(),
        scaler_std: model.scaler().std().to_vec(),
        centroids: model.kmeans().centroids().to_vec(),
        cluster_tags: model
            .cluster_types()
            .iter()
            .map(|t| type_tag(*t).to_string())
            .collect(),
        unknown_distance: model.unknown_distance(),
    }
}

/// Rebuilds a typing model from a registry index. `test_accuracy` is not
/// part of the index (it describes the original fit, not the model), so
/// the caller supplies it — pass 1.0 when unknown.
///
/// # Errors
///
/// Returns a message when the index carries an unknown cluster tag or
/// structurally inconsistent parts.
pub fn typing_model_from_index(
    index: &TypingIndex,
    test_accuracy: f64,
) -> Result<TypingModel, String> {
    let scaler = StandardScaler::from_params(index.scaler_mean.clone(), index.scaler_std.clone())?;
    let kmeans = KMeans::from_centroids(index.centroids.clone())?;
    let types = index
        .cluster_tags
        .iter()
        .map(|t| tag_type(t).ok_or_else(|| format!("unknown cluster tag {t:?}")))
        .collect::<Result<Vec<_>, _>>()?;
    TypingModel::from_parts(scaler, kmeans, types, test_accuracy, index.unknown_distance)
}

/// Wraps a trainer state as a checkpoint tagged for the registry.
pub fn checkpoint_from_trainer(trainer: &PpoTrainer, seed: u64, tag: &str) -> ModelCheckpoint {
    ModelCheckpoint {
        meta: CheckpointMeta {
            seed,
            tag: tag.to_string(),
        },
        trainer: trainer.export_state(),
    }
}

/// Classifies a feature window with the typing model rebuilt from the
/// registry's stored typing index, returning the tag to warm-start from
/// (`None` = unknown workload).
///
/// # Errors
///
/// Missing or corrupt typing index, or one [`typing_model_from_index`]
/// refuses (an unknown tag, a feature dimension other than
/// [`LOG_FEATURES`](crate::typing::LOG_FEATURES)).
pub fn classify_tag(
    registry: &ModelRegistry,
    features: &WindowFeatures,
) -> Result<Option<String>, RegistryError> {
    let model = typing_model_from_index(&registry.load_typing()?, 1.0).map_err(|msg| {
        RegistryError::Corrupt {
            path: registry.typing_path(),
            error: DecodeError::Malformed(msg),
        }
    })?;
    Ok(model.classify(*features).map(|t| type_tag(t).to_string()))
}

/// Loads the checkpoint for `tag` (with `last_good` fallback) as a
/// frozen [`PretrainedModel`]. The second return is whether the
/// fallback fired. Every deployment decision runs it through a
/// [`PolicyBank`](crate::bank::PolicyBank): a fleet assigns it to its
/// migrated tenants, one vSSD wraps it in
/// `FleetIoAgent::new(&model, history_windows)`.
///
/// # Errors
///
/// No usable checkpoint under `tag`, or a checkpoint whose components
/// fail `PpoTrainer::from_state` cross-validation.
pub fn model_from_checkpoint(
    registry: &ModelRegistry,
    tag: &str,
) -> Result<(PretrainedModel, bool), RegistryError> {
    let (ckpt, fell_back) = registry.load_model_or_last_good(tag)?;
    let trainer = PpoTrainer::from_state(ckpt.trainer).map_err(|msg| RegistryError::Corrupt {
        path: registry.model_path(tag),
        error: DecodeError::Malformed(msg),
    })?;
    let mut normalizer = trainer.normalizer;
    normalizer.freeze();
    Ok((
        PretrainedModel {
            policy: trainer.policy,
            normalizer,
        },
        fell_back,
    ))
}

/// The full vSSD-attach warm-start path: classify `features` via the
/// stored typing index, then load the matching checkpoint as frozen
/// weights via [`model_from_checkpoint`]. Returns `Ok(None)` for unknown
/// workloads (caller falls back to the unified model / from-scratch
/// training) and the tag + model + fallback flag otherwise.
///
/// # Errors
///
/// Missing/corrupt typing index, or a selected tag with no usable
/// checkpoint.
pub fn warm_start_model(
    registry: &ModelRegistry,
    features: &WindowFeatures,
) -> Result<Option<(String, PretrainedModel, bool)>, RegistryError> {
    let Some(tag) = classify_tag(registry, features)? else {
        return Ok(None);
    };
    let (model, fell_back) = model_from_checkpoint(registry, &tag)?;
    Ok(Some((tag, model, fell_back)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::FleetIoAgent;
    use crate::states::StateVector;
    use crate::typing::{log_features, LOG_FEATURES};
    use fleetio_workloads::WorkloadKind;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("fleetio-warmstart").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn feat(read_bw: f64, write_bw: f64, entropy: f64, size: f64) -> WindowFeatures {
        WindowFeatures {
            read_bw,
            write_bw,
            lpa_entropy: entropy,
            avg_io_size: size,
        }
    }

    /// Synthetic feature windows mirroring the typing tests: BI has high
    /// bandwidth and large I/O, LC-2 low entropy, LC-1 the rest.
    fn samples() -> Vec<(WorkloadKind, WindowFeatures)> {
        let mut out = Vec::new();
        for i in 0..20 {
            let j = i as f64;
            out.push((
                WorkloadKind::TeraSort,
                feat(3e8 + j * 1e6, 2e8, 7.5 + 0.01 * j, 1e6),
            ));
            out.push((WorkloadKind::VdiWeb, feat(2e7, 8e6, 6.5 + 0.01 * j, 16e3)));
            out.push((WorkloadKind::Ycsb, feat(2.5e7, 1e6, 2.0 + 0.01 * j, 6e3)));
        }
        out
    }

    #[test]
    fn tags_roundtrip() {
        for t in [WorkloadType::Lc1, WorkloadType::Lc2, WorkloadType::Bi] {
            assert_eq!(tag_type(type_tag(t)), Some(t));
        }
        assert_eq!(tag_type("mystery"), None);
    }

    #[test]
    fn typing_model_survives_index_roundtrip() {
        let model = TypingModel::fit(&samples(), 7);
        let index = typing_index(&model);
        let back =
            typing_model_from_index(&index, model.test_accuracy()).expect("index converts back");
        // Same classifications on representative windows.
        for f in [
            feat(3e8, 2e8, 7.6, 1e6),
            feat(2e7, 8e6, 6.6, 16e3),
            feat(2.5e7, 1e6, 2.1, 6e3),
            feat(9e9, 9e9, 0.0, 64e6), // unknown
        ] {
            assert_eq!(model.classify(f), back.classify(f));
        }
        assert_eq!(back.test_accuracy(), model.test_accuracy());
    }

    #[test]
    fn index_with_bad_tag_rejected() {
        let model = TypingModel::fit(&samples(), 7);
        let mut index = typing_index(&model);
        index.cluster_tags[0] = "nope".to_string();
        assert!(typing_model_from_index(&index, 1.0).is_err());
    }

    /// A hand-made index over raw log-features (zero mean, unit
    /// deviation): a BI-like and a YCSB-like centroid.
    fn two_centroid_index() -> TypingIndex {
        TypingIndex {
            scaler_mean: vec![0.0; LOG_FEATURES],
            scaler_std: vec![1.0; LOG_FEATURES],
            centroids: vec![
                log_features(&feat(3e8, 2e8, 7.6, 1e6)),
                log_features(&feat(2.5e7, 1e6, 2.1, 6e3)),
            ],
            cluster_tags: vec!["bi".to_string(), "lc2".to_string()],
            unknown_distance: 1.0,
        }
    }

    #[test]
    fn classify_tag_picks_the_nearest_centroid_or_none() {
        let registry = ModelRegistry::open(scratch("nearest"));
        assert!(matches!(
            classify_tag(&registry, &feat(3e8, 2e8, 7.6, 1e6)),
            Err(RegistryError::Missing(_))
        ));
        registry
            .save_typing(&two_centroid_index())
            .expect("typing saves");
        let tag = |f| classify_tag(&registry, &f).expect("classify succeeds");
        // Exactly on a centroid, and near one.
        assert_eq!(tag(feat(3e8, 2e8, 7.6, 1e6)).as_deref(), Some("bi"));
        assert_eq!(tag(feat(2.5e7, 1e6, 2.2, 6e3)).as_deref(), Some("lc2"));
        // Far from both in scaled space: unknown.
        assert_eq!(tag(feat(9e9, 9e9, 0.0, 64e6)), None);
    }

    /// An index over another feature dimension never reaches the scaler's
    /// dimension assert: warm-start gets an error and keeps its model.
    #[test]
    fn classify_tag_refuses_an_index_of_another_dimension() {
        let registry = ModelRegistry::open(scratch("dimension"));
        let index = TypingIndex {
            scaler_mean: vec![1.0, 2.0],
            scaler_std: vec![0.5, 1.0],
            centroids: vec![vec![-1.0, 0.0], vec![1.0, 0.0]],
            cluster_tags: vec!["lc1".to_string(), "bi".to_string()],
            unknown_distance: 2.0,
        };
        assert!(typing_model_from_index(&index, 1.0).is_err());
        registry.save_typing(&index).expect("typing saves");
        assert!(matches!(
            classify_tag(&registry, &feat(3e8, 2e8, 7.6, 1e6)),
            Err(RegistryError::Corrupt { .. })
        ));
        assert!(matches!(
            warm_start_model(&registry, &feat(3e8, 2e8, 7.6, 1e6)),
            Err(RegistryError::Corrupt { .. })
        ));
    }

    #[test]
    fn registry_select_agrees_with_typing_model() {
        let model = TypingModel::fit(&samples(), 7);
        let registry = ModelRegistry::open(scratch("select_agrees"));
        registry
            .save_typing(&typing_index(&model))
            .expect("typing saves");
        for f in [
            feat(3e8, 2e8, 7.6, 1e6),
            feat(2.5e7, 1e6, 2.1, 6e3),
            feat(9e9, 9e9, 0.0, 64e6),
        ] {
            let expected = model.classify(f).map(|t| type_tag(t).to_string());
            assert_eq!(
                classify_tag(&registry, &f).expect("classify succeeds"),
                expected
            );
        }
    }

    #[test]
    fn warm_start_loads_matching_agent() {
        use crate::agent::{pretrain_trainer, PretrainOptions};
        use crate::config::FleetIoConfig;
        use crate::driver::TenantSpec;
        use fleetio_des::SimDuration;
        use fleetio_flash::addr::ChannelId;
        use fleetio_flash::config::FlashConfig;
        use fleetio_vssd::vssd::{VssdConfig, VssdId};

        let mut cfg = FleetIoConfig::default();
        cfg.engine.flash = FlashConfig::training_test();
        cfg.decision_interval = SimDuration::from_millis(250);
        let scenario = vec![
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
        ];
        let opts = PretrainOptions {
            iterations: 2,
            windows_per_rollout: 4,
            warmup_iterations: 1,
            parallel: false,
            lr_override: None,
            bc_rounds: 0,
            bc_epsilon: 0.0,
            progress: None,
        };
        let trainer = pretrain_trainer(&cfg, &[scenario], 0.0, opts, 21);

        let registry = ModelRegistry::open(scratch("warm_start"));
        registry
            .save_typing(&typing_index(&TypingModel::fit(&samples(), 7)))
            .expect("typing saves");
        registry
            .save_model(&checkpoint_from_trainer(&trainer, 21, "bi"))
            .expect("model saves");

        // A BI-looking window selects the "bi" model and loads it.
        let (tag, model, fell_back) = warm_start_model(&registry, &feat(3e8, 2e8, 7.6, 1e6))
            .expect("warm start succeeds")
            .expect("window classifies");
        assert_eq!(tag, "bi");
        assert!(!fell_back);
        let mut agent = FleetIoAgent::new(&model, cfg.history_windows);
        // The loaded agent behaves identically to one built directly from
        // the trainer's weights.
        let mut trainer = trainer;
        trainer.normalizer.freeze();
        let direct = PretrainedModel {
            policy: trainer.policy.clone(),
            normalizer: trainer.normalizer.clone(),
        };
        let mut direct_agent = FleetIoAgent::new(&direct, cfg.history_windows);
        let state = StateVector::zero();
        assert_eq!(agent.decide(state), direct_agent.decide(state));

        // An unknown window warm-starts nothing.
        assert!(warm_start_model(&registry, &feat(9e9, 9e9, 0.0, 64e6))
            .expect("warm start succeeds")
            .is_none());
        // A known window whose tag has no checkpoint errors.
        assert!(matches!(
            warm_start_model(&registry, &feat(2.5e7, 1e6, 2.1, 6e3)),
            Err(RegistryError::Missing(_))
        ));
    }
}
