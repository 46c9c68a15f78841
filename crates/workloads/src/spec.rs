//! The phase-based workload description language.
//!
//! A workload is a repeating cycle of phases; each phase fixes an arrival
//! rate, read fraction, request-size distribution and address pattern.
//! Bursty bandwidth-intensive applications become high-rate phases
//! alternating with idle ones; latency-sensitive services become steady
//! Poisson streams with small requests.

use fleetio_des::SimDuration;

/// Request-size distribution within a phase.
#[derive(Debug, Clone, PartialEq)]
pub enum SizeDist {
    /// Every request has this many bytes.
    Fixed(u64),
    /// Weighted choice among `(bytes, weight)` entries.
    Choice(Vec<(u64, f64)>),
}

impl SizeDist {
    /// Mean request size in bytes.
    ///
    /// # Panics
    ///
    /// Panics on an empty or zero-weight choice list.
    pub fn mean(&self) -> f64 {
        match self {
            SizeDist::Fixed(b) => *b as f64,
            SizeDist::Choice(items) => {
                assert!(!items.is_empty(), "empty size choice");
                let total: f64 = items.iter().map(|(_, w)| w).sum();
                assert!(total > 0.0, "zero total weight");
                items.iter().map(|(b, w)| *b as f64 * w).sum::<f64>() / total
            }
        }
    }
}

/// Address-selection pattern within a phase.
#[derive(Debug, Clone, PartialEq)]
pub enum AddrPattern {
    /// Sequential cursor through region `region` (cursors persist across
    /// phases and wrap around).
    Sequential {
        /// Which of the workload's sequential regions to walk.
        region: usize,
    },
    /// Uniformly random over the whole space.
    UniformRandom,
    /// Scrambled-zipfian over the whole space (YCSB-style locality).
    Zipf {
        /// Skew parameter in `(0, 1)`; YCSB default 0.99.
        theta: f64,
    },
    /// A fraction of accesses hit a small hot region.
    HotSpot {
        /// Fraction of the space that is hot, `(0, 1)`.
        hot_fraction: f64,
        /// Fraction of accesses going to the hot region, `(0, 1]`.
        hot_access: f64,
    },
}

/// One phase of a workload cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Phase length.
    pub duration: SimDuration,
    /// Mean request arrival rate (Poisson), requests/second. Zero makes an
    /// idle phase.
    pub arrival_rate: f64,
    /// Fraction of requests that are reads, `[0, 1]`.
    pub read_fraction: f64,
    /// Request sizes.
    pub size: SizeDist,
    /// Address pattern.
    pub addr: AddrPattern,
    /// Closed-loop concurrency: when positive, the workload keeps this many
    /// requests outstanding during the phase (arrival_rate is ignored) —
    /// how real bandwidth-intensive applications behave. Zero means
    /// open-loop Poisson arrivals at `arrival_rate`.
    pub concurrency: u32,
}

impl PhaseSpec {
    /// Offered load of this phase in bytes/second.
    pub fn offered_bytes_per_sec(&self) -> f64 {
        self.arrival_rate * self.size.mean()
    }
}

impl WorkloadSpec {
    /// Whether any phase runs closed-loop.
    pub fn is_closed_loop(&self) -> bool {
        self.phases.iter().any(|p| p.concurrency > 0)
    }
}

/// A complete workload: a cycle of phases over an address-space fraction.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Stable name for reports.
    pub name: &'static str,
    /// The repeating phase cycle.
    pub phases: Vec<PhaseSpec>,
    /// Fraction of the vSSD's logical space the workload touches, `(0, 1]`.
    pub footprint: f64,
    /// Number of independent sequential regions (for `Sequential` phases).
    pub regions: usize,
}

impl WorkloadSpec {
    /// Rotates the phase cycle left by `k` phases, so the workload
    /// starts mid-job: `k = 1` begins at what was the second phase.
    /// The cycle itself is unchanged — only the position at time zero
    /// moves. `k` is taken modulo the phase count, so any value is
    /// safe.
    pub fn rotate_phases(&mut self, k: usize) {
        if !self.phases.is_empty() {
            let k = k % self.phases.len();
            self.phases.rotate_left(k);
        }
    }

    /// Validates the specification.
    ///
    /// # Errors
    ///
    /// Returns a message naming the problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.phases.is_empty() {
            return Err("workload needs at least one phase".into());
        }
        if !(0.0 < self.footprint && self.footprint <= 1.0) {
            return Err("footprint must be in (0, 1]".into());
        }
        for (i, p) in self.phases.iter().enumerate() {
            if p.duration.is_zero() {
                return Err(format!("phase {i} has zero duration"));
            }
            if !(0.0..=1.0).contains(&p.read_fraction) {
                return Err(format!("phase {i} read fraction out of range"));
            }
            if p.arrival_rate < 0.0 || !p.arrival_rate.is_finite() {
                return Err(format!("phase {i} arrival rate invalid"));
            }
            if let AddrPattern::Sequential { region } = p.addr {
                if region >= self.regions {
                    return Err(format!(
                        "phase {i} references region {region} of {}",
                        self.regions
                    ));
                }
            }
            if let AddrPattern::Zipf { theta } = p.addr {
                if !(0.0 < theta && theta < 1.0) {
                    return Err(format!("phase {i} zipf theta out of range"));
                }
            }
            if let AddrPattern::HotSpot {
                hot_fraction,
                hot_access,
            } = p.addr
            {
                let fraction_ok = 0.0 < hot_fraction && hot_fraction < 1.0;
                let access_ok = 0.0 < hot_access && hot_access <= 1.0;
                if !fraction_ok || !access_ok {
                    return Err(format!("phase {i} hotspot parameters out of range"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(rate: f64, secs: u64) -> PhaseSpec {
        PhaseSpec {
            duration: SimDuration::from_secs(secs),
            arrival_rate: rate,
            read_fraction: 0.5,
            size: SizeDist::Fixed(1000),
            addr: AddrPattern::UniformRandom,
            concurrency: 0,
        }
    }

    #[test]
    fn size_means() {
        assert_eq!(SizeDist::Fixed(4096).mean(), 4096.0);
        let c = SizeDist::Choice(vec![(100, 1.0), (300, 1.0)]);
        assert_eq!(c.mean(), 200.0);
        let w = SizeDist::Choice(vec![(100, 3.0), (300, 1.0)]);
        assert_eq!(w.mean(), 150.0);
    }

    #[test]
    fn offered_load_math() {
        let p = phase(1000.0, 1);
        assert_eq!(p.offered_bytes_per_sec(), 1_000_000.0);
    }

    #[test]
    fn phase_rotation_moves_the_start_not_the_cycle() {
        let mut spec = WorkloadSpec {
            name: "t",
            phases: vec![phase(100.0, 1), phase(200.0, 2), phase(300.0, 3)],
            footprint: 0.5,
            regions: 1,
        };
        let mut expected = spec.phases.clone();
        expected.rotate_left(1);
        spec.rotate_phases(1);
        assert_eq!(spec.phases[0].arrival_rate, 200.0);
        assert_eq!(spec.phases[2].arrival_rate, 100.0);
        // The cycle is unchanged: each phase keeps its own duration.
        assert_eq!(spec.phases, expected);
        // Modulo the phase count: a full-cycle rotation is the identity.
        spec.rotate_phases(3);
        assert_eq!(spec.phases[0].arrival_rate, 200.0);
        spec.rotate_phases(5);
        assert_eq!(spec.phases[0].arrival_rate, 100.0);
    }

    #[test]
    fn validation_catches_errors() {
        let mut spec = WorkloadSpec {
            name: "t",
            phases: vec![phase(100.0, 1)],
            footprint: 0.5,
            regions: 1,
        };
        assert!(spec.validate().is_ok());
        spec.footprint = 0.0;
        assert!(spec.validate().is_err());
        spec.footprint = 0.5;
        spec.phases[0].addr = AddrPattern::Sequential { region: 3 };
        assert!(spec.validate().unwrap_err().contains("region"));
        spec.phases[0].addr = AddrPattern::Zipf { theta: 2.0 };
        assert!(spec.validate().is_err());
        spec.phases.clear();
        assert!(spec.validate().is_err());
    }
}
