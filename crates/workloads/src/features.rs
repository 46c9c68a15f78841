//! Per-window I/O feature extraction for workload typing (§3.4).
//!
//! FleetIO divides collected block traces into 10 K-request windows and
//! extracts four features per window: read bandwidth, write bandwidth,
//! logical-page-address (LPA) entropy, and average I/O size. The features
//! feed the k-means clustering that assigns each workload its type.

use crate::gen::TraceRecord;

/// Number of equal address-space bins used for the LPA entropy histogram.
const ENTROPY_BINS: usize = 256;

/// The four §3.4 features of one trace window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowFeatures {
    /// Read bandwidth over the window, bytes/second.
    pub read_bw: f64,
    /// Write bandwidth over the window, bytes/second.
    pub write_bw: f64,
    /// Shannon entropy (bits) of the logical-page-address histogram;
    /// low values mean high locality.
    pub lpa_entropy: f64,
    /// Mean request size in bytes.
    pub avg_io_size: f64,
}

impl WindowFeatures {
    /// The features as a vector for clustering, in a stable order.
    pub fn to_vec(self) -> Vec<f64> {
        vec![
            self.read_bw,
            self.write_bw,
            self.lpa_entropy,
            self.avg_io_size,
        ]
    }
}

/// Extracts the four features from one window of trace records.
///
/// `address_space` bounds the offsets (for entropy binning); records are
/// assumed time-ordered. Returns `None` for windows with fewer than two
/// records or zero duration (no rate can be computed).
pub fn extract_features(records: &[TraceRecord], address_space: u64) -> Option<WindowFeatures> {
    if records.len() < 2 || address_space == 0 {
        return None;
    }
    let span = records
        .last()
        .expect("non-empty")
        .at
        .saturating_since(records[0].at)
        .as_secs_f64();
    if span <= 0.0 {
        return None;
    }
    let mut read_bytes = 0u64;
    let mut write_bytes = 0u64;
    let mut hist = vec![0u64; ENTROPY_BINS];
    let bin_size = (address_space / ENTROPY_BINS as u64).max(1);
    for r in records {
        if r.is_read {
            read_bytes += r.len;
        } else {
            write_bytes += r.len;
        }
        let bin = ((r.offset / bin_size) as usize).min(ENTROPY_BINS - 1);
        hist[bin] += 1;
    }
    let n = records.len() as f64;
    let entropy = hist
        .iter()
        .filter(|c| **c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum();
    Some(WindowFeatures {
        read_bw: read_bytes as f64 / span,
        write_bw: write_bytes as f64 / span,
        lpa_entropy: entropy,
        avg_io_size: (read_bytes + write_bytes) as f64 / n,
    })
}

/// Splits a trace into consecutive windows of `window` requests and
/// extracts features from each complete window.
pub fn windowed_features(
    records: &[TraceRecord],
    address_space: u64,
    window: usize,
) -> Vec<WindowFeatures> {
    assert!(window >= 2, "window must hold at least two requests");
    records
        .chunks_exact(window)
        .filter_map(|w| extract_features(w, address_space))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleetio_des::SimTime;

    fn rec(at_us: u64, is_read: bool, offset: u64, len: u64) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_micros(at_us),
            is_read,
            offset,
            len,
        }
    }

    #[test]
    fn bandwidth_and_size_math() {
        // 2 reads of 1 MB + 2 writes of 1 MB over 1 second.
        let recs = vec![
            rec(0, true, 0, 1 << 20),
            rec(300_000, false, 1 << 20, 1 << 20),
            rec(600_000, true, 2 << 20, 1 << 20),
            rec(1_000_000, false, 3 << 20, 1 << 20),
        ];
        let f = extract_features(&recs, 1 << 30).unwrap();
        assert!((f.read_bw - 2.0 * (1 << 20) as f64).abs() < 1.0);
        assert!((f.write_bw - 2.0 * (1 << 20) as f64).abs() < 1.0);
        assert_eq!(f.avg_io_size, (1 << 20) as f64);
    }

    #[test]
    fn entropy_low_for_single_location_high_for_spread() {
        let hot: Vec<TraceRecord> = (0..1000).map(|i| rec(i * 100, true, 0, 4096)).collect();
        let spread: Vec<TraceRecord> = (0..1000)
            .map(|i| rec(i * 100, true, (i % 256) * (1 << 22), 4096))
            .collect();
        let space = 256u64 << 22;
        let f_hot = extract_features(&hot, space).unwrap();
        let f_spread = extract_features(&spread, space).unwrap();
        assert!(
            f_hot.lpa_entropy < 0.01,
            "hot entropy {}",
            f_hot.lpa_entropy
        );
        assert!(
            f_spread.lpa_entropy > 7.5,
            "spread entropy {}",
            f_spread.lpa_entropy
        );
    }

    #[test]
    fn short_or_instant_windows_return_none() {
        assert!(extract_features(&[], 1 << 20).is_none());
        assert!(extract_features(&[rec(0, true, 0, 4096)], 1 << 20).is_none());
        let same_instant = vec![rec(5, true, 0, 4096), rec(5, true, 0, 4096)];
        assert!(extract_features(&same_instant, 1 << 20).is_none());
    }

    #[test]
    fn windowed_features_chunks_complete_windows() {
        let recs: Vec<TraceRecord> = (0..25)
            .map(|i| rec(i * 1000, true, i * 4096, 4096))
            .collect();
        let feats = windowed_features(&recs, 1 << 20, 10);
        assert_eq!(feats.len(), 2); // 25 / 10 → 2 complete windows
    }

    #[test]
    fn feature_vector_order_is_stable() {
        let f = WindowFeatures {
            read_bw: 1.0,
            write_bw: 2.0,
            lpa_entropy: 3.0,
            avg_io_size: 4.0,
        };
        assert_eq!(f.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }
}
