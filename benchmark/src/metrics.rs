//! The metric catalogue: every name the benchmark emits, with unit,
//! direction and regression bound (end-to-end only). README.md says where
//! each per-layer metric comes from and which end-to-end metric it is
//! predicted to move.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the
//! smoke test asserts the two agree, and later issues cite these names
//! verbatim.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogue entry.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end: share of the baseline median by which the metric may
    /// worsen before it counts as a regression. Per-layer: 0 (no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    e2e(name, unit, better, 0.0)
}

use Better::{Higher, Lower};

/// What an end-to-end metric reads on a workload that does not measure
/// it. The benchmark contract wants every end-to-end metric on every
/// workload and never 0, so "not measured" is the constant 1.
pub const NOT_MEASURED: f64 = 1.0;

/// The workload names, in run order.
pub const WORKLOADS: [&str; 4] = ["coloc-eval", "pretrain", "fleet-hotspot", "store-record"];

/// End-to-end metrics: what a user of the system sees.
pub const END_TO_END: &[MetricDef] = &[
    e2e("wall_s", "s", Lower, 0.25),
    e2e("cpu_s", "s", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
    e2e("util_gain_x", "x", Higher, 0.05),
    e2e("bi_bw_gain_x", "x", Higher, 0.05),
    e2e("lc_p99_norm_x", "x", Lower, 0.05),
    e2e("slo_attainment_pct", "%", Higher, 0.03),
    e2e("store_mb_per_sim_s", "MB/s", Lower, 0.02),
];

/// Per-layer metrics, grouped by layer (crate / module) name.
pub const PER_LAYER: &[MetricDef] = &[
    // des
    layer("des.queue_ns_per_op", "ns", Lower),
    layer("des.hist_record_ns", "ns", Lower),
    // workloads
    layer("workloads.open_gen_ns_per_req", "ns", Lower),
    layer("workloads.closed_gen_ns_per_req", "ns", Lower),
    layer("workloads.reqs_per_sim_s", "1/s", Higher),
    // flash
    layer("flash.read_page_ns", "ns", Lower),
    layer("flash.write_page_ns", "ns", Lower),
    layer("flash.bus_grant_ns", "ns", Lower),
    layer("flash.share_pct", "%", Lower),
    layer("flash.nand_ops_per_sim_s", "1/s", Higher),
    layer("flash.waf", "x", Lower),
    layer("flash.gc_runs", "count", Lower),
    layer("flash.erases", "count", Lower),
    // vssd (engine)
    layer("vssd.events_per_sim_s.hw", "1/s", Lower),
    layer("vssd.events_per_sim_s.fleetio", "1/s", Lower),
    layer("vssd.events_per_sim_s.sw", "1/s", Lower),
    layer("vssd.events_per_sim_s", "1/s", Lower),
    layer("vssd.host_ns_per_sim_event", "ns", Lower),
    layer("vssd.run_until_calls_per_window", "count", Lower),
    layer("vssd.run_until_self_share_pct", "%", Lower),
    layer("vssd.ev_arrival_ns", "ns", Lower),
    layer("vssd.ev_grant_ns", "ns", Lower),
    layer("vssd.ev_page_done_ns", "ns", Lower),
    layer("vssd.ev_admission_tick_ns", "ns", Lower),
    layer("vssd.warm_up_ms", "ms", Lower),
    layer("vssd.finish_window_us", "us", Lower),
    layer("vssd.allocs_per_sim_event", "count", Lower),
    layer("vssd.alloc_bytes_per_window", "B", Lower),
    // driver (fleetio::driver)
    layer("driver.window_ms_p50", "ms", Lower),
    layer("driver.window_ms_p95", "ms", Lower),
    layer("driver.self_ms_per_window", "ms", Lower),
    layer("driver.self_share_pct", "%", Lower),
    // policy (fleetio::agent + fleetio::baselines inference over rl/ml)
    layer("policy.on_window_us", "us", Lower),
    layer("policy.decide_ns_per_agent", "ns", Lower),
    layer("ml.act_batch_ns_per_row", "ns", Lower),
    // rl (PPO / BC training over ml)
    layer("rl.rollout_share_pct", "%", Lower),
    layer("rl.update_share_pct", "%", Lower),
    layer("rl.ppo_update_ms", "ms", Lower),
    layer("rl.ppo_minibatch_us", "us", Lower),
    layer("rl.gae_us", "us", Lower),
    layer("rl.imitate_ms", "ms", Lower),
    layer("rl.env_step_ms", "ms", Lower),
    layer("rl.train_windows_per_s", "1/s", Higher),
    layer("rl.final_mean_reward", "reward", Higher),
    layer("rl.parallel_speedup_w2", "x", Higher),
    // obs
    layer("obs.events_per_sim_s", "1/s", Lower),
    layer("obs.recording_sink_ns_per_event", "ns", Lower),
    layer("obs.wire_encode_ns_per_event", "ns", Lower),
    layer("obs.wire_bytes_per_event", "B", Lower),
    layer("obs.slo_observe_ns", "ns", Lower),
    layer("obs.series_push_ns", "ns", Lower),
    layer("obs.prof_overhead_pct", "%", Lower),
    // store
    layer("store.sink_ns_per_event", "ns", Lower),
    layer("store.record_overhead_x", "x", Lower),
    layer("store.record_ms", "ms", Lower),
    layer("store.readback_ms", "ms", Lower),
    layer("store.verify_ms", "ms", Lower),
    layer("store.query_range_ms", "ms", Lower),
    layer("store.query_tenant_ms", "ms", Lower),
    layer("store.diff_ms", "ms", Lower),
    layer("store.query_segments_read_pct", "%", Lower),
    // fleet
    layer("fleet.window_ms_p50", "ms", Lower),
    layer("fleet.window_ms_p95", "ms", Lower),
    layer("fleet.build_ms", "ms", Lower),
    layer("fleet.advance_share_pct", "%", Lower),
    layer("fleet.merge_share_pct", "%", Lower),
    layer("fleet.merge_us_per_window", "us", Lower),
    layer("fleet.run_until_calls_per_window", "count", Lower),
    layer("fleet.bank_decide_us", "us", Lower),
    layer("fleet.plan_migrations_us", "us", Lower),
    layer("fleet.wall_w1_s", "s", Lower),
    layer("fleet.speedup_w2", "x", Higher),
    layer("fleet.parallel_efficiency_pct", "%", Higher),
    layer("fleet.events_per_window", "count", Lower),
    layer("fleet.migrations", "count", Higher),
];

/// Looks a metric up in both tables.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(find("setup_s").is_some_and(|m| m.unit == "s" && m.better == Lower));
    }
}
