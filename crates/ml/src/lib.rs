//! Minimal machine-learning substrate for the FleetIO reproduction.
//!
//! The paper builds its RL policy on RLlib/PyTorch and its workload typing
//! on scikit-learn-style k-means + PCA. The models involved are tiny (an
//! MLP with two 50-unit hidden layers, ~9 K parameters; k-means over
//! 4-dimensional I/O features), so this crate implements exactly what is
//! needed, from scratch:
//!
//! * [`mlp`] — dense multi-layer perceptrons with manual backprop,
//! * [`adam`] — the Adam optimizer,
//! * [`kmeans`] — k-means clustering with k-means++ initialization,
//! * [`pca`] — principal component analysis via power iteration (used only
//!   for the 2-D visualization of Figure 6),
//! * [`scaler`] — feature standardization,
//! * [`dataset`] — deterministic train/test splitting.

#![forbid(unsafe_code)]

pub mod adam;
pub mod dataset;
pub mod kmeans;
pub mod mlp;
pub mod pca;
pub mod scaler;

pub use adam::{Adam, AdamState};
pub use kmeans::KMeans;
pub use mlp::{Activation, DenseState, Mlp, MlpGrads, MlpState};
pub use pca::Pca;
pub use scaler::StandardScaler;
