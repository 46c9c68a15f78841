//! Per-tenant SLO accounting over decision windows, and the fleet
//! health report folded from its verdicts.
//!
//! A tenant's service-level objective is three numbers — a p95 latency
//! target, a p99 latency target, and a throughput floor — evaluated
//! once per decision window against the window's **exact-bucket**
//! latency histogram ([`fleetio_des::LatencyHistogram`]) and byte
//! count. Everything here is pure arithmetic over simulated-time
//! inputs: no clocks, no allocation after construction, so same-seed
//! runs produce bit-identical verdicts regardless of worker count.
//!
//! The [`SloTracker`] judges each window and keeps a burn-rate-style
//! rolling violation fraction over the last [`BURN_WINDOWS`] windows (a
//! fixed ring — a run of any length costs constant memory). Everything
//! else a report says — attainment, violation streaks, worst windows —
//! is [`health_report`]'s fold over the [`SloWindow`] rows the verdicts
//! are emitted as, so a live run and a store read back offline render
//! the same report.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use fleetio_des::{LatencyHistogram, SimDuration};

use crate::event::{FleetMigration, SloWindow};

/// Rolling horizon (in windows) of the burn-rate ring.
pub const BURN_WINDOWS: usize = 8;

/// A tenant's service-level objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// The window's p95 latency must not exceed this.
    pub p95_target: SimDuration,
    /// The window's p99 latency must not exceed this.
    pub p99_target: SimDuration,
    /// The window's average throughput (bytes/second) must reach this;
    /// zero disables the floor.
    pub throughput_floor: f64,
}

impl SloSpec {
    /// A latency-only objective (no throughput floor).
    pub fn latency(p95_target: SimDuration, p99_target: SimDuration) -> Self {
        SloSpec {
            p95_target,
            p99_target,
            throughput_floor: 0.0,
        }
    }

    /// Adds a throughput floor in bytes/second.
    pub fn with_throughput_floor(mut self, floor: f64) -> Self {
        self.throughput_floor = floor;
        self
    }

    /// Rejects non-finite or negative targets.
    pub fn validate(&self) -> Result<(), String> {
        if self.p95_target.is_zero() || self.p99_target.is_zero() {
            return Err("SLO latency targets must be positive".into());
        }
        if self.p99_target < self.p95_target {
            return Err("p99 target must be at least the p95 target".into());
        }
        if !self.throughput_floor.is_finite() || self.throughput_floor < 0.0 {
            return Err("throughput floor must be finite and non-negative".into());
        }
        Ok(())
    }
}

/// One window's SLO evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowVerdict {
    /// Window index (0-based).
    pub window: u32,
    /// Operations completed this window.
    pub ops: u64,
    /// Exact-bucket p95 latency (zero when the window was idle).
    pub p95: SimDuration,
    /// Exact-bucket p99 latency (zero when the window was idle).
    pub p99: SimDuration,
    /// Average throughput over the window, bytes/second.
    pub throughput: f64,
    /// p95 within target (idle windows attain trivially).
    pub p95_ok: bool,
    /// p99 within target (idle windows attain trivially).
    pub p99_ok: bool,
    /// Throughput at or above the floor.
    pub throughput_ok: bool,
}

impl WindowVerdict {
    /// All three objectives held.
    pub fn attained(&self) -> bool {
        self.p95_ok && self.p99_ok && self.throughput_ok
    }
}

impl SloWindow {
    /// All three objectives held.
    pub fn attained(&self) -> bool {
        self.p95_ok && self.p99_ok && self.throughput_ok
    }
}

/// Running SLO account for one tenant. Feed it one window at a time
/// (in window order) via [`SloTracker::observe`].
#[derive(Debug, Clone)]
pub struct SloTracker {
    spec: SloSpec,
    ring: [bool; BURN_WINDOWS],
    ring_len: usize,
    ring_head: usize,
}

impl SloTracker {
    /// A fresh tracker for `spec`.
    pub fn new(spec: SloSpec) -> Self {
        SloTracker {
            spec,
            ring: [false; BURN_WINDOWS],
            ring_len: 0,
            ring_head: 0,
        }
    }

    /// The objective being tracked.
    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    /// Evaluates one window: `hist` is the window's request-latency
    /// histogram, `bytes` the bytes moved, `len` the window length.
    /// Idle windows (no completed operations) attain trivially — a
    /// tenant between job phases or mid-migration offered no load, so
    /// neither the latency targets nor the throughput floor can say
    /// anything about how it was served.
    pub fn observe(
        &mut self,
        window: u32,
        hist: &LatencyHistogram,
        bytes: u64,
        len: SimDuration,
    ) -> WindowVerdict {
        let p95 = hist.percentile(95.0).unwrap_or(SimDuration::ZERO);
        let p99 = hist.percentile(99.0).unwrap_or(SimDuration::ZERO);
        let secs = len.as_secs_f64();
        let throughput = if secs > 0.0 { bytes as f64 / secs } else { 0.0 };
        let idle = hist.count() == 0;
        let verdict = WindowVerdict {
            window,
            ops: hist.count(),
            p95,
            p99,
            throughput,
            p95_ok: p95 <= self.spec.p95_target,
            p99_ok: p99 <= self.spec.p99_target,
            throughput_ok: idle
                || self.spec.throughput_floor <= 0.0
                || throughput >= self.spec.throughput_floor,
        };
        self.ring[self.ring_head] = !verdict.attained();
        self.ring_head = (self.ring_head + 1) % BURN_WINDOWS;
        self.ring_len = (self.ring_len + 1).min(BURN_WINDOWS);
        verdict
    }

    /// Violating fraction of the last [`BURN_WINDOWS`] windows — the
    /// burn rate an operator would alert on (0.0 before any window).
    pub fn burn_rate(&self) -> f64 {
        if self.ring_len == 0 {
            return 0.0;
        }
        let hot = self.ring[..self.ring_len].iter().filter(|v| **v).count();
        hot as f64 / self.ring_len as f64
    }
}

/// One tenant's `slo_window` rows, folded.
#[derive(Debug, Default)]
struct TenantSlo {
    windows: u64,
    violations: u64,
    longest_streak: u64,
    /// The burn rate after the tenant's last window.
    last_burn: f64,
    /// The violating window with the highest p99, the earliest on ties.
    worst: Option<SloWindow>,
}

impl TenantSlo {
    /// Folds one tenant's rows, which must be in window order.
    fn fold(rows: Vec<SloWindow>) -> Self {
        let mut agg = TenantSlo::default();
        let mut streak = 0;
        for row in rows {
            agg.windows += 1;
            agg.last_burn = row.burn;
            if row.attained() {
                streak = 0;
                continue;
            }
            agg.violations += 1;
            streak += 1;
            agg.longest_streak = agg.longest_streak.max(streak);
            if agg.worst.as_ref().is_none_or(|worst| row.p99 > worst.p99) {
                agg.worst = Some(row);
            }
        }
        agg
    }
}

/// Attained windows as a percentage (100 when there are none).
fn attainment_pct(windows: u64, violations: u64) -> f64 {
    if windows == 0 {
        100.0
    } else {
        (windows - violations) as f64 / windows as f64 * 100.0
    }
}

/// The fleet health report: a header line, one attainment row per
/// tenant, each violating tenant's worst window by p99 (the earliest on
/// ties) and the migration timeline. It is a function of the rows alone,
/// in any order: each tenant's rows are folded in window order, and
/// migrations are listed by (window, tenant, source shard, source slot),
/// so the live run and the per-shard stores it recorded render the same
/// bytes.
pub fn health_report(
    slo_rows: impl IntoIterator<Item = SloWindow>,
    migrations: impl IntoIterator<Item = FleetMigration>,
) -> String {
    let mut by_tenant: BTreeMap<u32, Vec<SloWindow>> = BTreeMap::new();
    for row in slo_rows {
        by_tenant.entry(row.tenant).or_default().push(row);
    }
    let tenants: BTreeMap<u32, TenantSlo> = by_tenant
        .into_iter()
        .map(|(tenant, mut rows)| {
            rows.sort_by_key(|r| r.window);
            (tenant, TenantSlo::fold(rows))
        })
        .collect();
    let mut migrations: Vec<FleetMigration> = migrations.into_iter().collect();
    migrations.sort_by_key(|m| (m.window, m.tenant, m.from_shard, m.from_slot));

    let observed: u64 = tenants.values().map(|t| t.windows).sum();
    let violated: u64 = tenants.values().map(|t| t.violations).sum();
    let mut out = format!(
        "FLEET HEALTH REPORT\n\
         ===================\n\
         tracked tenants: {}  slo windows: {observed}  violations: {violated}  \
         attainment: {:.1}%  migrations: {}\n\
         \nPER-TENANT SLO ATTAINMENT\n\
         {:<8}{:>8}{:>8}{:>8}{:>9}{:>8}\n",
        tenants.len(),
        attainment_pct(observed, violated),
        migrations.len(),
        "tenant",
        "windows",
        "viol",
        "att%",
        "streak",
        "burn"
    );
    for (t, agg) in &tenants {
        let _ = writeln!(
            out,
            "{:<8}{:>8}{:>8}{:>7.1}%{:>9}{:>8.3}",
            format!("t{t}"),
            agg.windows,
            agg.violations,
            attainment_pct(agg.windows, agg.violations),
            agg.longest_streak,
            agg.last_burn
        );
    }
    out += "\nWORST WINDOWS (per tenant, by p99)\n";
    let mut worst = tenants.values().filter_map(|a| a.worst.as_ref()).peekable();
    if worst.peek().is_none() {
        out += "(no violations)\n";
    }
    for w in worst {
        let _ = writeln!(
            out,
            "t{} w{}: p95 {:.3} ms, p99 {:.3} ms, {:.1} MB/s, {} ops \
             [p95_ok={} p99_ok={} tp_ok={}]",
            w.tenant,
            w.window,
            w.p95.as_millis_f64(),
            w.p99.as_millis_f64(),
            w.throughput / 1e6,
            w.ops,
            w.p95_ok,
            w.p99_ok,
            w.throughput_ok
        );
    }
    out += "\nMIGRATION TIMELINE\n";
    if migrations.is_empty() {
        out += "(none)\n";
    }
    for m in &migrations {
        let _ = writeln!(
            out,
            "w{}: t{} {}/{} -> {}/{} cause={} mean={:.3} src {:.3}->{:.3} dst {:.3}->{:.3}",
            m.window,
            m.tenant,
            m.from_shard,
            m.from_slot,
            m.to_shard,
            m.to_slot,
            m.cause.tag(),
            m.mean_util,
            m.src_util,
            m.src_util_after,
            m.dst_util,
            m.dst_util_after
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleetio_des::SimTime;

    fn spec() -> SloSpec {
        SloSpec::latency(SimDuration::from_millis(2), SimDuration::from_millis(5))
            .with_throughput_floor(1000.0)
    }

    fn hist(lat: SimDuration, n: u64) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for _ in 0..n {
            h.record(lat);
        }
        h
    }

    /// Observes one window of `n` requests at `lat` and returns it as
    /// the `slo_window` row the fleet merge emits for `tenant`.
    fn observe_row(t: &mut SloTracker, tenant: u32, window: u32, lat: SimDuration) -> SloWindow {
        let v = t.observe(
            window,
            &hist(lat, 10),
            1_000_000,
            SimDuration::from_millis(500),
        );
        SloWindow {
            at: SimTime::from_millis(500 * u64::from(window + 1)),
            tenant,
            window: v.window,
            ops: v.ops,
            p95: v.p95,
            p99: v.p99,
            throughput: v.throughput,
            p95_ok: v.p95_ok,
            p99_ok: v.p99_ok,
            throughput_ok: v.throughput_ok,
            burn: t.burn_rate(),
        }
    }

    /// Folds rows of one tenant after ordering them as the report does.
    fn fold(mut rows: Vec<SloWindow>) -> TenantSlo {
        rows.sort_by_key(|r| r.window);
        TenantSlo::fold(rows)
    }

    #[test]
    fn attaining_window_counts_as_attained() {
        let mut t = SloTracker::new(spec());
        let row = observe_row(&mut t, 0, 0, SimDuration::from_micros(500));
        assert!(row.p95_ok && row.p99_ok && row.throughput_ok, "{row:?}");
        assert_eq!(t.burn_rate(), 0.0);
        let agg = fold(vec![row]);
        assert_eq!((agg.windows, agg.violations), (1, 0));
        assert_eq!(attainment_pct(agg.windows, agg.violations), 100.0);
        assert!(agg.worst.is_none());
    }

    #[test]
    fn latency_violation_is_folded_with_streaks_and_worst_window() {
        let mut t = SloTracker::new(spec());
        // Two violating windows (the second worse), then recovery.
        let rows = vec![
            observe_row(&mut t, 0, 0, SimDuration::from_millis(10)),
            observe_row(&mut t, 0, 1, SimDuration::from_millis(40)),
            observe_row(&mut t, 0, 2, SimDuration::from_micros(200)),
        ];
        assert!(rows[2].p99_ok && rows[2].p95_ok);
        assert!((t.burn_rate() - 2.0 / 3.0).abs() < 1e-12);
        let agg = fold(rows);
        assert_eq!(agg.windows, 3);
        assert_eq!(agg.violations, 2);
        assert_eq!(agg.longest_streak, 2);
        assert!((attainment_pct(agg.windows, agg.violations) - 100.0 / 3.0).abs() < 1e-12);
        let worst = agg.worst.expect("worst window recorded");
        assert_eq!(worst.window, 1, "later, worse window wins");
        assert_eq!(agg.last_burn.to_bits(), t.burn_rate().to_bits());
    }

    #[test]
    fn earliest_window_wins_an_equal_p99() {
        let mut t = SloTracker::new(spec());
        let lat = SimDuration::from_millis(30);
        let rows = vec![
            observe_row(&mut t, 4, 0, SimDuration::from_micros(100)),
            observe_row(&mut t, 4, 1, lat),
            observe_row(&mut t, 4, 2, SimDuration::from_micros(100)),
            observe_row(&mut t, 4, 3, lat),
        ];
        assert_eq!(rows[1].p99, rows[3].p99);
        let worst = fold(rows.clone()).worst.expect("violations");
        assert_eq!(worst.window, 1);
        // Handed over latest first, the fold still sees window order.
        let worst = fold(rows.into_iter().rev().collect())
            .worst
            .expect("violations");
        assert_eq!(worst.window, 1);
    }

    #[test]
    fn a_tenant_split_across_inputs_is_folded_in_window_order() {
        let mut t = SloTracker::new(spec());
        // Windows 0, 1 and 5 violate: the longest streak is 2 (windows
        // 0-1), never 5-0-1, and the last burn is window 5's.
        let rows: Vec<SloWindow> = (0..6)
            .map(|w| {
                let lat = if [0, 1, 5].contains(&w) {
                    SimDuration::from_millis(20)
                } else {
                    SimDuration::from_micros(100)
                };
                observe_row(&mut t, 5, w, lat)
            })
            .collect();
        // Two shards' stores: windows 3-5 read first, then 0-2.
        let split: Vec<SloWindow> = rows[3..].iter().chain(&rows[..3]).cloned().collect();
        let report = health_report(split, []);
        assert_eq!(report, health_report(rows.clone(), []));
        let row = report
            .lines()
            .find(|l| l.starts_with("t5 "))
            .expect("tenant row");
        assert_eq!(
            row.split_whitespace().collect::<Vec<_>>(),
            ["t5", "6", "3", "50.0%", "2", "0.500"],
            "{report}"
        );
        assert!(report.contains("t5 w0: "), "{report}");
    }

    #[test]
    fn throughput_floor_violates_even_when_latency_is_fine() {
        let mut t = SloTracker::new(spec());
        let v = t.observe(
            0,
            &hist(SimDuration::from_micros(100), 4),
            100, // 200 B/s over a 500 ms window — below the 1000 B/s floor
            SimDuration::from_millis(500),
        );
        assert!(v.p95_ok && v.p99_ok && !v.throughput_ok);
        assert!(!v.attained());
    }

    #[test]
    fn idle_window_attains_trivially_even_with_a_floor() {
        let empty = LatencyHistogram::new();
        let mut with_floor = SloTracker::new(spec());
        let v = with_floor.observe(0, &empty, 0, SimDuration::from_millis(500));
        assert!(
            v.attained(),
            "no offered load says nothing about service: {v:?}"
        );

        // A non-idle window below the floor still violates.
        let v = with_floor.observe(
            1,
            &hist(SimDuration::from_micros(100), 4),
            100,
            SimDuration::from_millis(500),
        );
        assert!(!v.throughput_ok && !v.attained());
    }

    #[test]
    fn burn_rate_forgets_beyond_the_ring() {
        let mut t = SloTracker::new(spec());
        // One violation, then BURN_WINDOWS clean windows push it out.
        let mut rows = vec![observe_row(&mut t, 0, 0, SimDuration::from_millis(50))];
        for w in 1..=(BURN_WINDOWS as u32) {
            rows.push(observe_row(&mut t, 0, w, SimDuration::from_micros(100)));
        }
        assert_eq!(t.burn_rate(), 0.0, "violation aged out of the ring");
        let agg = fold(rows);
        assert_eq!(agg.violations, 1, "lifetime count is unaffected");
        assert_eq!(agg.last_burn, 0.0);
    }

    #[test]
    fn validate_rejects_nonsense() {
        assert!(spec().validate().is_ok());
        let zero = SloSpec::latency(SimDuration::ZERO, SimDuration::from_millis(1));
        assert!(zero.validate().is_err());
        let inverted = SloSpec::latency(SimDuration::from_millis(5), SimDuration::from_millis(2));
        assert!(inverted.validate().is_err());
        let nan = spec().with_throughput_floor(f64::NAN);
        assert!(nan.validate().is_err());
    }

    #[test]
    fn same_inputs_produce_identical_reports() {
        let run = || {
            let mut t = SloTracker::new(spec());
            let rows: Vec<SloWindow> = (0..20u32)
                .map(|w| {
                    observe_row(
                        &mut t,
                        2,
                        w,
                        SimDuration::from_micros(u64::from(w) * 397 + 50),
                    )
                })
                .collect();
            (t.burn_rate().to_bits(), health_report(rows, []))
        };
        let (burn, report) = run();
        assert_eq!((burn, report.clone()), run());
        assert!(
            report.contains("slo windows: 20  violations: 15"),
            "{report}"
        );
    }

    #[test]
    fn migrations_are_listed_by_window_tenant_and_source() {
        let moved = |window, tenant, from_shard| FleetMigration {
            at: SimTime::from_millis(100),
            window,
            tenant,
            from_shard,
            from_slot: 0,
            to_shard: 9,
            to_slot: 1,
            cause: crate::MigrationCause::HotUtil,
            mean_util: 0.5,
            src_util: 0.9,
            dst_util: 0.1,
            src_util_after: 0.6,
            dst_util_after: 0.4,
        };
        // Execution order, as the runtime's log holds it.
        let report = health_report([], [moved(6, 40, 10), moved(6, 32, 8), moved(4, 2, 0)]);
        let timeline: Vec<&str> = report
            .lines()
            .skip_while(|l| *l != "MIGRATION TIMELINE")
            .skip(1)
            .map(|l| l.split(" cause").next().expect("line"))
            .collect();
        assert_eq!(
            timeline,
            [
                "w4: t2 0/0 -> 9/1",
                "w6: t32 8/0 -> 9/1",
                "w6: t40 10/0 -> 9/1"
            ]
        );
        assert!(report.contains(
            "tracked tenants: 0  slo windows: 0  violations: 0  attainment: 100.0%  migrations: 3"
        ));
    }
}
