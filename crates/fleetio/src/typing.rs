//! Workload typing: clustering I/O trace windows and fine-tuning α (§3.4).
//!
//! FleetIO collects block traces at runtime, splits them into 10 K-request
//! windows, extracts four features per window (read/write bandwidth, LPA
//! entropy, average I/O size), and clusters the windows with k-means. Each
//! cluster maps to a workload type (LC-1, LC-2, BI in Figure 6) with a
//! fine-tuned reward coefficient α; windows too far from every centroid
//! fall back to the unified reward and are queued for offline tuning.

use fleetio_des::rng::SmallRng;
use fleetio_ml::{KMeans, StandardScaler};
use fleetio_workloads::{WindowFeatures, WorkloadCategory, WorkloadKind};

use crate::config::FleetIoConfig;

/// The workload types of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadType {
    /// Latency-sensitive cluster 1 (VDI-Web, TPC-E, SearchEngine,
    /// LiveMaps).
    Lc1,
    /// Latency-sensitive cluster 2 (YCSB-B: zipfian low-entropy locality).
    Lc2,
    /// Bandwidth-intensive cluster (TeraSort, ML Prep, PageRank, Batch
    /// Analytics).
    Bi,
}

/// Ground-truth type of a named workload, per Figure 6.
pub fn canonical_type(kind: WorkloadKind) -> WorkloadType {
    match kind {
        WorkloadKind::Ycsb => WorkloadType::Lc2,
        k if k.category() == WorkloadCategory::BandwidthIntensive => WorkloadType::Bi,
        _ => WorkloadType::Lc1,
    }
}

/// The fine-tuned α for a known workload type (§3.8 values).
pub fn alpha_for_type(cfg: &FleetIoConfig, t: WorkloadType) -> f64 {
    match t {
        WorkloadType::Lc1 => cfg.alpha_lc1,
        WorkloadType::Lc2 => cfg.alpha_lc2,
        WorkloadType::Bi => cfg.alpha_bi,
    }
}

/// The fine-tuned α for a named workload (via its canonical type).
pub fn alpha_for_kind(cfg: &FleetIoConfig, kind: WorkloadKind) -> f64 {
    alpha_for_type(cfg, canonical_type(kind))
}

/// Feature transform applied before standardization: bandwidths and sizes
/// span orders of magnitude across workload classes, so they enter the
/// clustering in log space (entropy is already a log quantity). Without
/// this, k-means spends its clusters subdividing the high-variance
/// bandwidth-intensive windows instead of separating YCSB's low-entropy
/// cluster.
pub fn log_features(f: &WindowFeatures) -> Vec<f64> {
    let features: [f64; LOG_FEATURES] = [
        (1.0 + f.read_bw).ln(),
        (1.0 + f.write_bw).ln(),
        f.lpa_entropy,
        (1.0 + f.avg_io_size).ln(),
    ];
    features.to_vec()
}

/// Features per window in [`log_features`].
pub const LOG_FEATURES: usize = 4;

/// A fitted workload-typing model.
#[derive(Debug, Clone)]
pub struct TypingModel {
    scaler: StandardScaler,
    kmeans: KMeans,
    cluster_type: Vec<WorkloadType>,
    test_accuracy: f64,
    unknown_distance: f64,
}

impl TypingModel {
    /// Fits the model on labelled feature windows with a 70/30 train/test
    /// split (as §3.4), k = 3 clusters.
    ///
    /// # Panics
    ///
    /// Panics with fewer than 6 samples or fewer than all three types
    /// represented.
    pub fn fit(samples: &[(WorkloadKind, WindowFeatures)], seed: u64) -> TypingModel {
        assert!(samples.len() >= 6, "need at least 6 feature windows");
        let mut rng = SmallRng::seed_from_u64(seed);
        let labels: Vec<WorkloadType> = samples.iter().map(|(k, _)| canonical_type(*k)).collect();
        for t in [WorkloadType::Lc1, WorkloadType::Lc2, WorkloadType::Bi] {
            assert!(labels.contains(&t), "missing samples for {t:?}");
        }
        let raw: Vec<Vec<f64>> = samples.iter().map(|(_, f)| log_features(f)).collect();
        let scaler = StandardScaler::fit(&raw);
        let scaled = scaler.transform_all(&raw);

        let (train_idx, test_idx) =
            fleetio_ml::dataset::train_test_split(scaled.len(), 0.7, &mut rng);
        let train: Vec<Vec<f64>> = train_idx.iter().map(|&i| scaled[i].clone()).collect();
        let kmeans = KMeans::fit_restarts(&train, 3, 100, 10, &mut rng);

        // Assign each cluster the majority ground-truth type of its
        // training members.
        let mut votes = [[0usize; 3]; 3];
        for &i in &train_idx {
            let c = kmeans.predict(&scaled[i]);
            let t = match labels[i] {
                WorkloadType::Lc1 => 0,
                WorkloadType::Lc2 => 1,
                WorkloadType::Bi => 2,
            };
            votes[c][t] += 1;
        }
        let cluster_type: Vec<WorkloadType> = votes
            .iter()
            .map(|v| {
                let best = v
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, n)| **n)
                    .expect("3 types")
                    .0;
                [WorkloadType::Lc1, WorkloadType::Lc2, WorkloadType::Bi][best]
            })
            .collect();

        // Unknown threshold: generous multiple of the worst training
        // distance, so in-distribution windows always classify.
        let max_train_dist = train
            .iter()
            .map(|p| kmeans.distance_to_nearest(p))
            .fold(0.0f64, f64::max);
        let unknown_distance = (max_train_dist * 4.0).max(1e-6);

        // Test accuracy: fraction of held-out windows whose cluster's type
        // matches their ground truth (the paper reports 98.4 %).
        let correct = test_idx
            .iter()
            .filter(|&&i| {
                let c = kmeans.predict(&scaled[i]);
                cluster_type[c] == labels[i]
            })
            .count();
        let test_accuracy = if test_idx.is_empty() {
            1.0
        } else {
            correct as f64 / test_idx.len() as f64
        };

        TypingModel {
            scaler,
            kmeans,
            cluster_type,
            test_accuracy,
            unknown_distance,
        }
    }

    /// Classifies one feature window; `None` means the window does not fit
    /// any learned cluster (→ unified reward + offline tuning queue).
    pub fn classify(&self, features: WindowFeatures) -> Option<WorkloadType> {
        let scaled = self.scaler.transform(&log_features(&features));
        if self.kmeans.distance_to_nearest(&scaled) > self.unknown_distance {
            return None;
        }
        Some(self.cluster_type[self.kmeans.predict(&scaled)])
    }

    /// The α this model selects for a window (unified when unknown).
    pub fn alpha(&self, cfg: &FleetIoConfig, features: WindowFeatures) -> f64 {
        match self.classify(features) {
            Some(t) => alpha_for_type(cfg, t),
            None => cfg.unified_alpha,
        }
    }

    /// Rebuilds a typing model from its serialized parts (registry
    /// warm-start path; see `fleetio-model`'s `TypingIndex`).
    ///
    /// # Errors
    ///
    /// Returns a message when the parts cannot classify a window or are
    /// mutually inconsistent: a scaler not over the [`LOG_FEATURES`]
    /// features of [`log_features`], centroid dimensionality differing
    /// from the scaler's, a cluster-type list of the wrong length, or
    /// out-of-range scalars.
    pub fn from_parts(
        scaler: StandardScaler,
        kmeans: KMeans,
        cluster_type: Vec<WorkloadType>,
        test_accuracy: f64,
        unknown_distance: f64,
    ) -> Result<TypingModel, String> {
        let dim = scaler.mean().len();
        if dim != LOG_FEATURES {
            return Err(format!(
                "scaler over {dim} features, a window has {LOG_FEATURES}"
            ));
        }
        let centroids = kmeans.centroids();
        if centroids.iter().any(|c| c.len() != dim) {
            return Err(format!(
                "centroid dimensionality disagrees with scaler ({dim} features)"
            ));
        }
        if cluster_type.len() != centroids.len() {
            return Err(format!(
                "{} centroids but {} cluster types",
                centroids.len(),
                cluster_type.len()
            ));
        }
        if !(0.0..=1.0).contains(&test_accuracy) {
            return Err(format!("test accuracy {test_accuracy} outside [0, 1]"));
        }
        if !(unknown_distance.is_finite() && unknown_distance > 0.0) {
            return Err("unknown_distance must be positive and finite".to_string());
        }
        Ok(TypingModel {
            scaler,
            kmeans,
            cluster_type,
            test_accuracy,
            unknown_distance,
        })
    }

    /// The fitted feature scaler.
    pub fn scaler(&self) -> &StandardScaler {
        &self.scaler
    }

    /// The fitted k-means model.
    pub fn kmeans(&self) -> &KMeans {
        &self.kmeans
    }

    /// Majority workload type per cluster (same order as
    /// [`TypingModel::centroids`]).
    pub fn cluster_types(&self) -> &[WorkloadType] {
        &self.cluster_type
    }

    /// Distance beyond which a window is declared unknown.
    pub fn unknown_distance(&self) -> f64 {
        self.unknown_distance
    }

    /// Held-out classification accuracy from fitting.
    pub fn test_accuracy(&self) -> f64 {
        self.test_accuracy
    }

    /// The cluster centers in scaled feature space (for Figure 6 PCA
    /// plots).
    pub fn centroids(&self) -> &[Vec<f64>] {
        self.kmeans.centroids()
    }

    /// Projects labelled samples to scaled feature space (for PCA).
    pub fn scaled_features(&self, samples: &[(WorkloadKind, WindowFeatures)]) -> Vec<Vec<f64>> {
        samples
            .iter()
            .map(|(_, f)| self.scaler.transform(&log_features(f)))
            .collect()
    }
}

/// Binary-searches the largest α meeting the SLO-violation ceiling while
/// maximizing bandwidth (§3.4). `evaluate` maps a candidate α to the
/// measured `(violation_fraction, bandwidth)`; violations are assumed to
/// decrease as α grows. Returns the chosen α.
///
/// # Panics
///
/// Panics unless `lo < hi` and `iters > 0`.
pub fn binary_search_alpha(
    lo: f64,
    hi: f64,
    iters: usize,
    threshold: f64,
    mut evaluate: impl FnMut(f64) -> (f64, f64),
) -> f64 {
    assert!(lo < hi, "invalid search range");
    assert!(iters > 0, "need at least one iteration");
    let (mut lo, mut hi) = (lo, hi);
    // Smaller α favours bandwidth; find the smallest α whose violations
    // stay under the threshold.
    let mut best = hi;
    for _ in 0..iters {
        let mid = 0.5 * (lo + hi);
        let (vio, _bw) = evaluate(mid);
        if vio <= threshold {
            best = mid;
            hi = mid; // try smaller α for more bandwidth
        } else {
            lo = mid; // need stronger isolation
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feat(read_bw: f64, write_bw: f64, entropy: f64, size: f64) -> WindowFeatures {
        WindowFeatures {
            read_bw,
            write_bw,
            lpa_entropy: entropy,
            avg_io_size: size,
        }
    }

    /// Synthetic but structurally faithful feature windows: BI has high
    /// bandwidth and large I/O, LC-2 has low entropy, LC-1 is the rest.
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
    fn fit_separates_the_three_types() {
        let model = TypingModel::fit(&samples(), 7);
        assert!(
            model.test_accuracy() > 0.95,
            "accuracy {}",
            model.test_accuracy()
        );
        assert_eq!(
            model.classify(feat(3e8, 2e8, 7.6, 1e6)),
            Some(WorkloadType::Bi)
        );
        assert_eq!(
            model.classify(feat(2e7, 8e6, 6.6, 16e3)),
            Some(WorkloadType::Lc1)
        );
        assert_eq!(
            model.classify(feat(2.5e7, 1e6, 2.1, 6e3)),
            Some(WorkloadType::Lc2)
        );
    }

    #[test]
    fn far_away_windows_are_unknown() {
        let model = TypingModel::fit(&samples(), 7);
        let weird = feat(9e9, 9e9, 0.0, 64e6);
        assert_eq!(model.classify(weird), None);
        let cfg = FleetIoConfig::default();
        assert_eq!(model.alpha(&cfg, weird), cfg.unified_alpha);
    }

    #[test]
    fn alpha_selection_follows_type() {
        let cfg = FleetIoConfig::default();
        let model = TypingModel::fit(&samples(), 7);
        assert_eq!(model.alpha(&cfg, feat(3e8, 2e8, 7.6, 1e6)), cfg.alpha_bi);
        assert_eq!(model.alpha(&cfg, feat(2.5e7, 1e6, 2.1, 6e3)), cfg.alpha_lc2);
    }

    #[test]
    fn canonical_types_match_figure_6() {
        assert_eq!(canonical_type(WorkloadKind::Ycsb), WorkloadType::Lc2);
        assert_eq!(canonical_type(WorkloadKind::VdiWeb), WorkloadType::Lc1);
        assert_eq!(canonical_type(WorkloadKind::Tpce), WorkloadType::Lc1);
        assert_eq!(
            canonical_type(WorkloadKind::SearchEngine),
            WorkloadType::Lc1
        );
        assert_eq!(canonical_type(WorkloadKind::LiveMaps), WorkloadType::Lc1);
        assert_eq!(canonical_type(WorkloadKind::TeraSort), WorkloadType::Bi);
        assert_eq!(canonical_type(WorkloadKind::PageRank), WorkloadType::Bi);
        assert_eq!(canonical_type(WorkloadKind::MlPrep), WorkloadType::Bi);
    }

    #[test]
    fn binary_search_finds_threshold_alpha() {
        // Violations fall linearly with α: vio = 0.10 − α; threshold 5 %.
        let chosen = binary_search_alpha(0.0, 1.0, 20, 0.05, |a| (0.10 - a, 1.0 - a));
        assert!((chosen - 0.05).abs() < 1e-3, "chose {chosen}");
    }

    #[test]
    fn binary_search_with_always_safe_eval_goes_small() {
        let chosen = binary_search_alpha(0.0, 1.0, 20, 0.05, |_| (0.0, 1.0));
        assert!(chosen < 1e-3, "chose {chosen}");
    }

    #[test]
    #[should_panic(expected = "missing samples")]
    fn fit_requires_all_types() {
        let s: Vec<_> = (0..10)
            .map(|_| (WorkloadKind::Ycsb, feat(1e7, 1e6, 2.0, 4e3)))
            .collect();
        let _ = TypingModel::fit(&s, 0);
    }
}
