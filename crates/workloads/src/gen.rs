//! Turning a [`WorkloadSpec`] into a timed block-I/O request stream.

use fleetio_des::rng::Rng;
use fleetio_des::rng::SmallRng;
use fleetio_des::{SimDuration, SimTime};

use crate::spec::{AddrPattern, PhaseSpec, SizeDist, WorkloadSpec};
use crate::zipf::ZipfSampler;

/// One generated block-I/O request (before it is bound to a vSSD).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Arrival time.
    pub at: SimTime,
    /// Whether the request is a read.
    pub is_read: bool,
    /// Byte offset within the workload's logical space.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

/// An infinite, deterministic request stream for one workload instance.
///
/// # Example
///
/// ```
/// use fleetio_workloads::{SyntheticWorkload, WorkloadKind};
///
/// let mut w = SyntheticWorkload::new(WorkloadKind::Ycsb.spec(), 1 << 30, 42);
/// let first = w.next_request();
/// let second = w.next_request();
/// assert!(second.at >= first.at);
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    spec: WorkloadSpec,
    capacity: u64,
    rng: SmallRng,
    now: SimTime,
    phase_idx: usize,
    phase_end: SimTime,
    seq_cursors: Vec<u64>,
    zipf: Option<(u64, ZipfSampler)>,
    /// Align all addresses to this many bytes (page size by default).
    align: u64,
    /// A generated request `next_until` found to lie past its bound.
    peeked: Option<TraceRecord>,
}

impl SyntheticWorkload {
    /// Creates a stream over a logical space of `capacity_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid or the capacity is smaller than 1 MiB.
    pub fn new(spec: WorkloadSpec, capacity_bytes: u64, seed: u64) -> Self {
        if let Err(e) = spec.validate() {
            panic!("invalid workload spec: {e}");
        }
        assert!(capacity_bytes >= 1 << 20, "capacity too small");
        let footprint = ((capacity_bytes as f64) * spec.footprint) as u64;
        let regions = spec.regions.max(1);
        // Spread sequential cursors across the footprint.
        let seq_cursors = (0..regions)
            .map(|r| footprint / regions as u64 * r as u64)
            .collect();
        let phase_end = SimTime::ZERO + spec.phases[0].duration;
        SyntheticWorkload {
            spec,
            capacity: footprint,
            rng: SmallRng::seed_from_u64(seed),
            now: SimTime::ZERO,
            phase_idx: 0,
            phase_end,
            seq_cursors,
            zipf: None,
            align: 4096,
            peeked: None,
        }
    }

    /// The workload's name.
    pub fn name(&self) -> &'static str {
        self.spec.name
    }

    /// The spec driving this stream.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    fn phase(&self) -> &PhaseSpec {
        &self.spec.phases[self.phase_idx]
    }

    fn advance_phase(&mut self) {
        self.phase_idx = (self.phase_idx + 1) % self.spec.phases.len();
        self.phase_end += self.spec.phases[self.phase_idx].duration;
    }

    /// Generates the next request, advancing simulated arrival time.
    pub fn next_request(&mut self) -> TraceRecord {
        if let Some(r) = self.peeked.take() {
            return r;
        }
        // Skip through idle (rate 0) phases.
        loop {
            let rate = self.phase().arrival_rate;
            if rate > 0.0 {
                // Exponential interarrival at the phase rate.
                let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
                let dt = SimDuration::from_secs_f64(-u.ln() / rate);
                let t = self.now + dt;
                if t <= self.phase_end {
                    self.now = t;
                    break;
                }
            }
            // Jump to the start of the next phase.
            self.now = self.phase_end;
            self.advance_phase();
        }
        let phase = &self.spec.phases[self.phase_idx];
        let len = sample_size(&mut self.rng, &phase.size);
        let is_read = self.rng.gen_range(0.0..1.0) < phase.read_fraction;
        let offset = sample_offset(
            &mut self.rng,
            &mut self.seq_cursors,
            &mut self.zipf,
            self.capacity,
            self.align,
            &phase.addr,
            len,
        );
        TraceRecord {
            at: self.now,
            is_read,
            offset,
            len,
        }
    }

    /// The next request if it arrives at or before `until`; a later one
    /// is held back for the next call. The allocation-free way to drain
    /// a tick: `while let Some(r) = w.next_until(t) { .. }`.
    pub fn next_until(&mut self, until: SimTime) -> Option<TraceRecord> {
        let r = self.next_request();
        if r.at > until {
            self.peeked = Some(r);
            return None;
        }
        Some(r)
    }

    /// Generates every request arriving up to `until` (exclusive of later
    /// ones; the first of those is held back for the next call).
    pub fn requests_until(&mut self, until: SimTime) -> Vec<TraceRecord> {
        std::iter::from_fn(|| self.next_until(until)).collect()
    }
}

/// A closed-loop request source: the driver asks for a new request
/// whenever the outstanding count is below the current phase's
/// concurrency. This models bandwidth-intensive applications (TeraSort,
/// ML Prep, PageRank) that block on I/O — their achieved bandwidth is
/// capacity-limited, which is exactly what makes hardware isolation waste
/// bandwidth in the paper's motivation study.
///
/// # Example
///
/// ```
/// use fleetio_des::SimTime;
/// use fleetio_workloads::gen::ClosedLoopWorkload;
/// use fleetio_workloads::WorkloadKind;
///
/// let mut w = ClosedLoopWorkload::new(WorkloadKind::TeraSort.spec(), 1 << 30, 7);
/// let target = w.concurrency_at(SimTime::ZERO);
/// if target > 0 {
///     let r = w.make_request(SimTime::ZERO);
///     assert_eq!(r.at, SimTime::ZERO);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ClosedLoopWorkload {
    spec: WorkloadSpec,
    capacity: u64,
    rng: SmallRng,
    seq_cursors: Vec<u64>,
    zipf: Option<(u64, ZipfSampler)>,
    align: u64,
    cycle: SimDuration,
}

impl ClosedLoopWorkload {
    /// Creates a closed-loop source over `capacity_bytes` of logical space.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid, not closed-loop, or the capacity is
    /// smaller than 1 MiB.
    pub fn new(spec: WorkloadSpec, capacity_bytes: u64, seed: u64) -> Self {
        if let Err(e) = spec.validate() {
            panic!("invalid workload spec: {e}");
        }
        assert!(spec.is_closed_loop(), "spec has no closed-loop phase");
        assert!(capacity_bytes >= 1 << 20, "capacity too small");
        let footprint = ((capacity_bytes as f64) * spec.footprint) as u64;
        let regions = spec.regions.max(1);
        let seq_cursors = (0..regions)
            .map(|r| footprint / regions as u64 * r as u64)
            .collect();
        let cycle = spec
            .phases
            .iter()
            .fold(SimDuration::ZERO, |acc, p| acc + p.duration);
        ClosedLoopWorkload {
            spec,
            capacity: footprint,
            rng: SmallRng::seed_from_u64(seed),
            seq_cursors,
            zipf: None,
            align: 4096,
            cycle,
        }
    }

    /// The workload's name.
    pub fn name(&self) -> &'static str {
        self.spec.name
    }

    /// The spec driving this source.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Index of the phase active at `now`.
    fn phase_at(&self, now: SimTime) -> usize {
        let mut t = SimDuration::from_nanos(now.as_nanos() % self.cycle.as_nanos().max(1));
        for (i, p) in self.spec.phases.iter().enumerate() {
            if t < p.duration {
                return i;
            }
            t = t.saturating_sub(p.duration);
        }
        self.spec.phases.len() - 1
    }

    /// Target outstanding-request count at `now` (0 = idle phase).
    pub fn concurrency_at(&self, now: SimTime) -> u32 {
        self.spec.phases[self.phase_at(now)].concurrency
    }

    /// Produces the next request for submission at `now`, using the phase
    /// active at that instant.
    pub fn make_request(&mut self, now: SimTime) -> TraceRecord {
        let phase = &self.spec.phases[self.phase_at(now)];
        let len = sample_size(&mut self.rng, &phase.size);
        let is_read = self.rng.gen_range(0.0..1.0) < phase.read_fraction;
        let offset = sample_offset(
            &mut self.rng,
            &mut self.seq_cursors,
            &mut self.zipf,
            self.capacity,
            self.align,
            &phase.addr,
            len,
        );
        TraceRecord {
            at: now,
            is_read,
            offset,
            len,
        }
    }
}

fn sample_size<R: Rng>(rng: &mut R, dist: &SizeDist) -> u64 {
    match dist {
        SizeDist::Fixed(b) => *b,
        SizeDist::Choice(items) => {
            let total: f64 = items.iter().map(|(_, w)| w).sum();
            let mut pick = rng.gen_range(0.0..total);
            for (b, w) in items {
                if pick < *w {
                    return *b;
                }
                pick -= w;
            }
            items.last().expect("non-empty").0
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn sample_offset<R: Rng>(
    rng: &mut R,
    seq_cursors: &mut [u64],
    zipf: &mut Option<(u64, ZipfSampler)>,
    capacity: u64,
    align: u64,
    addr: &AddrPattern,
    len: u64,
) -> u64 {
    let space = capacity.saturating_sub(len).max(align);
    let aligned = |x: u64| (x / align) * align;
    match addr {
        AddrPattern::Sequential { region } => {
            let cur = seq_cursors[*region];
            let next = cur + len;
            seq_cursors[*region] = if next >= space { 0 } else { next };
            aligned(cur.min(space))
        }
        AddrPattern::UniformRandom => aligned(rng.gen_range(0..space)),
        AddrPattern::Zipf { theta } => {
            let items = (capacity / align).max(1);
            let needs_new = match zipf {
                Some((n, _)) => *n != items,
                None => true,
            };
            if needs_new {
                *zipf = Some((items, ZipfSampler::new(items, *theta)));
            }
            let (_, sampler) = zipf.as_ref().expect("sampler built");
            // Ranks map to addresses directly (no scrambling): the hot
            // set occupies a compact region, giving key-value workloads
            // the low LPA entropy that separates YCSB-B in Figure 6.
            let rank = sampler.sample(rng);
            (rank * align).min(space)
        }
        AddrPattern::HotSpot {
            hot_fraction,
            hot_access,
        } => {
            let hot_space = ((space as f64) * hot_fraction) as u64;
            let in_hot = rng.gen_range(0.0..1.0) < *hot_access;
            let off = if in_hot && hot_space > 0 {
                rng.gen_range(0..hot_space.max(1))
            } else {
                rng.gen_range(0..space)
            };
            aligned(off)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;

    fn steady_spec(rate: f64) -> WorkloadSpec {
        WorkloadSpec {
            name: "steady",
            phases: vec![PhaseSpec {
                duration: SimDuration::from_secs(10),
                arrival_rate: rate,
                read_fraction: 1.0,
                size: SizeDist::Fixed(4096),
                addr: AddrPattern::UniformRandom,
                concurrency: 0,
            }],
            footprint: 1.0,
            regions: 1,
        }
    }

    fn bursty_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "bursty",
            phases: vec![
                PhaseSpec {
                    duration: SimDuration::from_secs(1),
                    arrival_rate: 1000.0,
                    read_fraction: 0.0,
                    size: SizeDist::Fixed(65536),
                    addr: AddrPattern::Sequential { region: 0 },
                    concurrency: 0,
                },
                PhaseSpec {
                    duration: SimDuration::from_secs(1),
                    arrival_rate: 0.0,
                    read_fraction: 0.0,
                    size: SizeDist::Fixed(65536),
                    addr: AddrPattern::Sequential { region: 0 },
                    concurrency: 0,
                },
            ],
            footprint: 1.0,
            regions: 1,
        }
    }

    #[test]
    fn arrivals_are_monotone_and_near_rate() {
        let mut w = SyntheticWorkload::new(steady_spec(1000.0), 1 << 30, 1);
        let mut last = SimTime::ZERO;
        let mut count = 0;
        loop {
            let r = w.next_request();
            assert!(r.at >= last);
            last = r.at;
            if r.at > SimTime::from_secs(5) {
                break;
            }
            count += 1;
        }
        // Poisson(1000/s) over 5 s ≈ 5000 ± noise.
        assert!((4500..5500).contains(&count), "count {count}");
    }

    #[test]
    fn idle_phases_produce_no_arrivals() {
        let mut w = SyntheticWorkload::new(bursty_spec(), 1 << 30, 2);
        let recs = w.requests_until(SimTime::from_secs(4));
        // All arrivals fall in [0,1) ∪ [2,3) second windows.
        for r in &recs {
            let s = r.at.as_secs_f64();
            let in_burst = (s % 2.0) < 1.0;
            assert!(in_burst, "arrival at {s}");
        }
        assert!(!recs.is_empty());
    }

    #[test]
    fn sequential_addresses_advance_and_wrap() {
        let mut spec = bursty_spec();
        spec.footprint = 0.001; // tiny space to force wrap
        let mut w = SyntheticWorkload::new(spec, 1 << 30, 3);
        let recs = w.requests_until(SimTime::from_secs(3));
        let mut wrapped = false;
        for pair in recs.windows(2) {
            if pair[1].offset < pair[0].offset {
                wrapped = true;
            } else {
                assert!(pair[1].offset >= pair[0].offset);
            }
        }
        assert!(wrapped, "sequential cursor never wrapped");
    }

    #[test]
    fn requests_until_is_replayable_boundary() {
        let mut w = SyntheticWorkload::new(steady_spec(500.0), 1 << 30, 4);
        let a = w.requests_until(SimTime::from_secs(1));
        let b = w.requests_until(SimTime::from_secs(2));
        // No overlap, no gap: b starts after a ends.
        assert!(a.last().unwrap().at <= SimTime::from_secs(1));
        assert!(b.first().unwrap().at > SimTime::from_secs(1));
        // Deterministic replay from the same seed.
        let mut w2 = SyntheticWorkload::new(steady_spec(500.0), 1 << 30, 4);
        let a2 = w2.requests_until(SimTime::from_secs(1));
        assert_eq!(a, a2);
    }

    #[test]
    fn next_until_drains_ticks_into_the_plain_stream() {
        let mut ticked = SyntheticWorkload::new(bursty_spec(), 1 << 30, 9);
        let mut plain = ticked.clone();
        let mut drained = 0;
        // 1 ms ticks across a burst, an idle phase and a second burst.
        for ms in 1..=3_000u64 {
            let t = SimTime::from_nanos(ms * 1_000_000);
            while let Some(r) = ticked.next_until(t) {
                assert!(r.at <= t, "arrival {:?} past tick {t:?}", r.at);
                assert_eq!(r, plain.next_request());
                drained += 1;
            }
        }
        assert!(drained > 1_500, "drained {drained}");
        assert!(plain.next_request().at > SimTime::from_secs(3));
    }

    #[test]
    fn zipf_pattern_concentrates_accesses() {
        let mut spec = steady_spec(2000.0);
        spec.phases[0].addr = AddrPattern::Zipf { theta: 0.99 };
        let mut w = SyntheticWorkload::new(spec, 1 << 30, 5);
        let recs = w.requests_until(SimTime::from_secs(5));
        let mut counts = std::collections::HashMap::new();
        for r in &recs {
            *counts.entry(r.offset).or_insert(0usize) += 1;
        }
        let mut freqs: Vec<usize> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = freqs.iter().take(10).sum();
        let frac = top10 as f64 / recs.len() as f64;
        // θ=0.99 over ~262 K pages: analytic top-10 share ≈ 0.22; a uniform
        // pattern would put ~0.004 % there.
        assert!(frac > 0.15, "top-10 addresses got {frac}");
    }

    #[test]
    fn offsets_fit_in_footprint() {
        let mut spec = steady_spec(1000.0);
        spec.footprint = 0.25;
        let mut w = SyntheticWorkload::new(spec, 1 << 30, 6);
        let cap = 1 << 28;
        for _ in 0..2000 {
            let r = w.next_request();
            assert!(
                r.offset + r.len <= cap + 4096,
                "offset {} len {}",
                r.offset,
                r.len
            );
        }
    }
}
