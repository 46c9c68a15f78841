//! Synthetic cloud block-I/O workloads for the FleetIO reproduction.
//!
//! The paper evaluates on real applications (Table 4: TeraSort, ML Prep,
//! PageRank, VDI-Web, YCSB) and pre-trains on a second set (LiveMaps,
//! TPCE, SearchEngine, Batch Analytics). This crate replaces them with
//! synthetic block-level trace generators parameterized to match each
//! application's published I/O characterization — the paper itself only
//! consumes the applications through their block traces and clusters them
//! by four features (read bandwidth, write bandwidth, LPA entropy, average
//! I/O size; §3.4), all of which these generators reproduce.
//!
//! * [`spec`] — the phase-based workload description language,
//! * [`gen`] — the generator turning a spec into a timed request stream,
//! * [`kind`] — the nine named workloads with their Table 4/5 parameters,
//! * [`zipf`] — zipfian address sampling for key-value locality,
//! * [`features`] — per-window feature extraction for workload typing.

#![forbid(unsafe_code)]

pub mod features;
pub mod gen;
pub mod kind;
pub mod spec;
pub mod zipf;

pub use features::{extract_features, WindowFeatures};
pub use gen::{SyntheticWorkload, TraceRecord};
pub use kind::{WorkloadCategory, WorkloadKind};
pub use spec::{AddrPattern, PhaseSpec, SizeDist, WorkloadSpec};
