//! One entry point per paper figure (§4 evaluation).
//!
//! Every function returns [`FigureReport`]s whose rows mirror the series
//! the paper plots; `fleetio figures` prints them and EXPERIMENTS.md
//! records paper-vs-measured. Absolute numbers reflect the simulated
//! device, so the comparisons to track are the *ratios and orderings*.

use fleetio::baselines::{AdaptivePolicy, FleetIoPolicy, StaticPolicy, WindowPolicy};
use fleetio::experiment::{
    hardware_layout, mixed_layout, planned_layout, run_collocation, software_layout,
    ExperimentOptions, RunMetrics,
};
use fleetio::mixes::{evaluation_pairs, table5_mixes};
use fleetio::typing::TypingModel;
use fleetio_des::rng::SmallRng;
use fleetio_des::{SimDuration, SimTime};
use fleetio_ml::Pca;
use fleetio_workloads::features::windowed_features;
use fleetio_workloads::{WorkloadCategory, WorkloadKind};

use crate::context::{ModelVariant, SharedContext};
use crate::report::FigureReport;

/// Which policy drives a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicySpec {
    /// Equal hardware-isolated split (§4.1 baseline).
    Hardware,
    /// All channels shared, stride-scheduled (§4.1 baseline).
    Software,
    /// Bandwidth shares re-provisioned per window (§4.1 Adaptive, eZNS-style).
    Adaptive,
    /// DNN-planned static hardware partition (§4.1 SSDKeeper).
    SsdKeeper,
    /// FleetIO with a pre-trained model variant.
    FleetIo(ModelVariant),
    /// The scripted reference policy: the teacher FleetIO's behaviour
    /// cloning imitates, on FleetIO's hardware-isolated layout.
    Heuristic,
}

impl PolicySpec {
    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            PolicySpec::Hardware => "hardware-iso",
            PolicySpec::Software => "software-iso",
            PolicySpec::Adaptive => "adaptive",
            PolicySpec::SsdKeeper => "ssdkeeper",
            PolicySpec::FleetIo(ModelVariant::Full) => "fleetio",
            PolicySpec::FleetIo(ModelVariant::UnifiedGlobal) => "fleetio-unified-global",
            PolicySpec::FleetIo(ModelVariant::CustomizedLocal) => "fleetio-customized-local",
            PolicySpec::Heuristic => "heuristic",
        }
    }

    /// The five §4.2 policies in the paper's legend order.
    pub fn headline() -> [PolicySpec; 5] {
        [
            PolicySpec::Hardware,
            PolicySpec::SsdKeeper,
            PolicySpec::Adaptive,
            PolicySpec::Software,
            PolicySpec::FleetIo(ModelVariant::Full),
        ]
    }

    /// What fig10–14 run: the headline policies, then the teacher, so
    /// that each pair and mix shows whether the learned policy beats the
    /// rules it learned from.
    pub fn plotted() -> [PolicySpec; 6] {
        let [hw, keeper, adaptive, sw, fleetio] = Self::headline();
        [hw, keeper, adaptive, sw, fleetio, PolicySpec::Heuristic]
    }
}

/// Runs one collocation of `workloads` under `spec`. SLOs for
/// latency-sensitive tenants come from the equal-share hardware-isolation
/// calibration regardless of policy (the paper's normalization baseline).
pub fn run_combo(
    ctx: &mut SharedContext,
    spec: PolicySpec,
    workloads: &[WorkloadKind],
    seed_offset: u64,
) -> RunMetrics {
    let total = usize::from(ctx.cfg.engine.flash.channels);
    let share = total / workloads.len();
    let slos: Vec<Option<SimDuration>> = workloads
        .iter()
        .map(|k| (k.category() == WorkloadCategory::LatencySensitive).then(|| ctx.slo(*k, share)))
        .collect();
    let opts: ExperimentOptions = ctx
        .scale
        .experiment_options(&ctx.cfg, ctx.seed.wrapping_add(seed_offset));
    let peak = ctx.device_peak();
    let seed = opts.seed;
    let tenants = match spec {
        PolicySpec::Hardware | PolicySpec::FleetIo(_) | PolicySpec::Heuristic => {
            hardware_layout(&ctx.cfg, workloads, &slos, seed)
        }
        PolicySpec::SsdKeeper => {
            let planner = ctx.ssdkeeper();
            let feats: Vec<_> = workloads.iter().map(|k| ctx.features(*k)).collect();
            let plan = planner.plan(&feats, total);
            planned_layout(&ctx.cfg, workloads, &plan, &slos, seed)
        }
        PolicySpec::Software | PolicySpec::Adaptive => {
            software_layout(&ctx.cfg, workloads, &slos, seed)
        }
    };
    let mut policy: Box<dyn WindowPolicy> = match spec {
        PolicySpec::Hardware => Box::new(StaticPolicy::hardware()),
        PolicySpec::Software => Box::new(StaticPolicy::software()),
        PolicySpec::SsdKeeper => Box::new(StaticPolicy::ssdkeeper()),
        PolicySpec::Adaptive => Box::new(AdaptivePolicy::new(peak, total)),
        PolicySpec::FleetIo(variant) => {
            let model = ctx.model(variant);
            let cfg = variant.apply(&ctx.cfg);
            Box::new(FleetIoPolicy::new(cfg, &model, workloads.len()))
        }
        PolicySpec::Heuristic => {
            let share = usize::from(ctx.cfg.engine.flash.channels) / workloads.len();
            let spec: Vec<(usize, WorkloadKind)> = workloads.iter().map(|k| (share, *k)).collect();
            Box::new(fleetio::baselines::HeuristicPolicy::new(
                ctx.cfg.clone(),
                &spec,
            ))
        }
    };
    run_collocation(policy.as_mut(), tenants, &opts, peak, None)
}

fn pair_label(lc: WorkloadKind, bi: WorkloadKind) -> String {
    format!("{lc}+{bi}")
}

/// Figures 2 and 3: the motivation study — hardware vs software isolation
/// across the six evaluation pairs.
pub fn fig2_3(ctx: &mut SharedContext) -> Vec<FigureReport> {
    let mut fig2 = FigureReport::new(
        "fig2",
        "SSD bandwidth utilization, hardware vs software isolation (avg and P95, %)",
        &["hw_avg", "hw_p95", "sw_avg", "sw_p95"],
    );
    let mut fig3a = FigureReport::new(
        "fig3a",
        "BI workload bandwidth (MB/s) and software/hardware ratio",
        &["hw_mbs", "sw_mbs", "sw_over_hw"],
    );
    let mut fig3b = FigureReport::new(
        "fig3b",
        "LC workload P99 latency (ms) and software/hardware ratio",
        &["hw_ms", "sw_ms", "sw_over_hw"],
    );
    for (i, (lc, bi)) in evaluation_pairs().into_iter().enumerate() {
        let hw = run_combo(ctx, PolicySpec::Hardware, &[lc, bi], i as u64);
        let sw = run_combo(ctx, PolicySpec::Software, &[lc, bi], i as u64);
        fig2.row(
            &pair_label(lc, bi),
            vec![
                hw.avg_utilization * 100.0,
                hw.p95_utilization * 100.0,
                sw.avg_utilization * 100.0,
                sw.p95_utilization * 100.0,
            ],
        );
        let hw_bw = hw.bi_bandwidth().expect("BI tenant present") / 1e6;
        let sw_bw = sw.bi_bandwidth().expect("BI tenant present") / 1e6;
        fig3a.row(&format!("{bi}(+{lc})"), vec![hw_bw, sw_bw, sw_bw / hw_bw]);
        let hw_p99 = hw.lc_p99().expect("LC tenant present").as_millis_f64();
        let sw_p99 = sw.lc_p99().expect("LC tenant present").as_millis_f64();
        fig3b.row(
            &format!("{lc}(+{bi})"),
            vec![hw_p99, sw_p99, sw_p99 / hw_p99],
        );
    }
    fig2.note(
        "paper: software isolation improves average utilization up to 1.52x (1.39x avg)".into(),
    );
    fig3a
        .note("paper: up to 1.84x (1.64x avg) higher BI bandwidth under software isolation".into());
    fig3b.note("paper: up to 2.02x higher LC tail latency under software isolation".into());
    vec![fig2, fig3a, fig3b]
}

/// Figure 6: workload-type clustering — k-means over per-window I/O
/// features with a 70/30 split, plus 2-D PCA coordinates.
pub fn fig6(ctx: &mut SharedContext) -> FigureReport {
    // The eight workloads shown in the paper's Figure 6.
    use WorkloadKind::*;
    let kinds = [
        MlPrep,
        PageRank,
        TeraSort,
        Ycsb,
        LiveMaps,
        SearchEngine,
        Tpce,
        VdiWeb,
    ];
    let (windows, reqs) = ctx.scale.clustering();
    let mut samples = Vec::new();
    for kind in kinds {
        let per = fleetio::experiment::workload_feature_windows(
            &ctx.cfg,
            kind,
            8,
            windows,
            reqs,
            ctx.seed ^ 0xF16,
        );
        for f in per {
            samples.push((kind, f));
        }
    }
    let model = TypingModel::fit(&samples, ctx.seed ^ 0x6);
    let scaled = model.scaled_features(&samples);
    let mut rng = SmallRng::seed_from_u64(ctx.seed ^ 0xFCA);
    let pca = Pca::fit(&scaled, 2, &mut rng);

    let mut report = FigureReport::new(
        "fig6",
        "Workload clustering: PCA centroid per workload + held-out accuracy",
        &["pc1", "pc2", "cluster"],
    );
    for kind in kinds {
        let points: Vec<Vec<f64>> = samples
            .iter()
            .zip(&scaled)
            .filter(|((k, _), _)| *k == kind)
            .map(|(_, s)| pca.transform(s))
            .collect();
        let n = points.len().max(1) as f64;
        let (sx, sy) = points
            .iter()
            .fold((0.0, 0.0), |acc, p| (acc.0 + p[0], acc.1 + p[1]));
        // Majority cluster assignment for the workload.
        let mut votes = [0usize; 3];
        for (k, f) in &samples {
            if *k == kind {
                if let Some(t) = model.classify(*f) {
                    votes[match t {
                        fleetio::typing::WorkloadType::Lc1 => 0,
                        fleetio::typing::WorkloadType::Lc2 => 1,
                        fleetio::typing::WorkloadType::Bi => 2,
                    }] += 1;
                }
            }
        }
        let cluster = votes
            .iter()
            .enumerate()
            .max_by_key(|(_, v)| **v)
            .map(|(i, _)| i as f64)
            .unwrap_or(-1.0);
        report.row(kind.name(), vec![sx / n, sy / n, cluster]);
    }
    report.note(format!(
        "held-out clustering accuracy: {:.1}% (paper: 98.4%); clusters: 0=LC-1, 1=LC-2 (YCSB), 2=BI",
        model.test_accuracy() * 100.0
    ));
    report
}

/// Figures 10–13: the headline comparison — five policies and the
/// teacher across the six evaluation pairs. One run per (pair, policy)
/// feeds all four figures.
pub fn fig10_13(ctx: &mut SharedContext) -> Vec<FigureReport> {
    let mut fig10 = FigureReport::new(
        "fig10",
        "Trade-off: utilization improvement (x over HW) vs normalized LC P99 (x over HW)",
        &["util_impr", "norm_p99"],
    );
    let mut fig11 = FigureReport::new(
        "fig11",
        "Bandwidth utilization (%)",
        &["util_pct", "p95_util_pct"],
    );
    let mut fig12 = FigureReport::new(
        "fig12",
        "Normalized LC P99 latency (x over HW; abs ms in col 2; SLO violations % in col 3)",
        &["norm_p99", "p99_ms", "vio_pct"],
    );
    let mut fig13 = FigureReport::new(
        "fig13",
        "Normalized BI bandwidth (x over HW; abs MB/s in col 2)",
        &["norm_bw", "bw_mbs"],
    );
    for (i, (lc, bi)) in evaluation_pairs().into_iter().enumerate() {
        let mut hw_p99 = 1.0;
        let mut hw_bw = 1.0;
        let mut hw_util = 1.0;
        for spec in PolicySpec::plotted() {
            let m = run_combo(ctx, spec, &[lc, bi], i as u64 * 17);
            let label = format!("{}/{}", pair_label(lc, bi), spec.label());
            let p99 = m.lc_p99().expect("LC tenant").as_millis_f64();
            let bw = m.bi_bandwidth().expect("BI tenant") / 1e6;
            if spec == PolicySpec::Hardware {
                hw_p99 = p99;
                hw_bw = bw;
                hw_util = m.avg_utilization;
            }
            let vio = m
                .tenants
                .iter()
                .find(|t| t.kind == lc)
                .map(|t| t.slo_violation_rate * 100.0)
                .unwrap_or(0.0);
            fig10.row(&label, vec![m.avg_utilization / hw_util, p99 / hw_p99]);
            fig11.row(
                &label,
                vec![m.avg_utilization * 100.0, m.p95_utilization * 100.0],
            );
            fig12.row(&label, vec![p99 / hw_p99, p99, vio]);
            fig13.row(&label, vec![bw / hw_bw, bw]);
        }
    }
    fig10.note(
        "paper: FleetIO ~1.30x util improvement at ~1.1-1.2x P99; SW/AD at ~1.76-2.03x P99".into(),
    );
    fig12.note("paper: FleetIO 1.29-1.89x lower P99 than SW/Adaptive".into());
    fig13.note("paper: FleetIO 1.27-1.61x over HW (1.46x avg), 89% of SW's bandwidth".into());
    vec![fig10, fig11, fig12, fig13]
}

/// Figure 14: scalability over Table 5's mixes (2, 4 and 8 vSSDs).
pub fn fig14(ctx: &mut SharedContext) -> Vec<FigureReport> {
    let mut a = FigureReport::new(
        "fig14a",
        "Scalability: average bandwidth utilization (%) per mix",
        &["util_pct"],
    );
    let mut b = FigureReport::new(
        "fig14b",
        "Scalability: per-LC-tenant P99 normalized to HW",
        &["norm_p99"],
    );
    let mut c = FigureReport::new(
        "fig14c",
        "Scalability: per-BI-tenant bandwidth normalized to HW",
        &["norm_bw"],
    );
    for (mi, mix) in table5_mixes().into_iter().enumerate() {
        let mut per_policy: Vec<(PolicySpec, RunMetrics)> = Vec::new();
        for spec in PolicySpec::plotted() {
            let m = run_combo(ctx, spec, &mix.workloads, 1000 + mi as u64 * 31);
            per_policy.push((spec, m));
        }
        let hw = per_policy
            .iter()
            .find(|(s, _)| *s == PolicySpec::Hardware)
            .map(|(_, m)| m.clone())
            .expect("hardware run present");
        for (spec, m) in &per_policy {
            a.row(
                &format!("{}/{}", mix.label, spec.label()),
                vec![m.avg_utilization * 100.0],
            );
            for (ti, t) in m.tenants.iter().enumerate() {
                let base = &hw.tenants[ti];
                match t.kind.category() {
                    WorkloadCategory::LatencySensitive => {
                        let norm = t.p99.as_millis_f64() / base.p99.as_millis_f64().max(1e-9);
                        b.row(
                            &format!(
                                "{}/{}/{}{}",
                                mix.label,
                                spec.label(),
                                t.kind.short_label(),
                                ti
                            ),
                            vec![norm],
                        );
                    }
                    WorkloadCategory::BandwidthIntensive => {
                        let norm = t.avg_bandwidth / base.avg_bandwidth.max(1.0);
                        c.row(
                            &format!(
                                "{}/{}/{}{}",
                                mix.label,
                                spec.label(),
                                t.kind.short_label(),
                                ti
                            ),
                            vec![norm],
                        );
                    }
                }
            }
        }
    }
    a.note("paper: FleetIO 1.33x (4 vSSDs) and 1.18x (8 vSSDs) over HW, 94-99% of SW".into());
    b.note("paper: FleetIO keeps P99 increase over HW below 10%".into());
    c.note("paper: FleetIO improves each BI vSSD by at least 1.25x (1.45x avg)".into());
    vec![a, b, c]
}

/// Figure 15: the reward-function ablation across the six pairs.
pub fn fig15(ctx: &mut SharedContext) -> Vec<FigureReport> {
    let variants = [
        PolicySpec::Hardware,
        PolicySpec::FleetIo(ModelVariant::CustomizedLocal),
        PolicySpec::FleetIo(ModelVariant::UnifiedGlobal),
        PolicySpec::FleetIo(ModelVariant::Full),
        PolicySpec::Software,
    ];
    let mut a = FigureReport::new(
        "fig15a",
        "Reward ablation: average bandwidth utilization (%)",
        &["util_pct"],
    );
    let mut b = FigureReport::new(
        "fig15b",
        "Reward ablation: LC P99 normalized to HW",
        &["norm_p99"],
    );
    for (i, (lc, bi)) in evaluation_pairs().into_iter().enumerate() {
        let mut hw_p99 = 1.0;
        for spec in variants {
            let m = run_combo(ctx, spec, &[lc, bi], 2000 + i as u64 * 13);
            let p99 = m.lc_p99().expect("LC tenant").as_millis_f64();
            if spec == PolicySpec::Hardware {
                hw_p99 = p99;
            }
            let label = format!("{}/{}", pair_label(lc, bi), spec.label());
            a.row(&label, vec![m.avg_utilization * 100.0]);
            b.row(&label, vec![p99 / hw_p99]);
        }
    }
    a.note("paper: Customized-Local ~= HW (no incentive to offer); Unified-Global effective but inconsistent".into());
    vec![a, b]
}

/// Figure 16: mixed hardware- and software-isolated vSSDs (Table 5 mix3:
/// two VDI-Web on 4-channel HW vSSDs, two TeraSort sharing 8 channels).
pub fn fig16(ctx: &mut SharedContext) -> FigureReport {
    use WorkloadKind::*;
    let hw_tenants = [VdiWeb, VdiWeb];
    let sw_tenants = [TeraSort, TeraSort];
    let slo = ctx.slo(VdiWeb, 4);
    let opts = ctx.scale.experiment_options(&ctx.cfg, ctx.seed ^ 0x16);
    let peak = ctx.device_peak();

    let mut report = FigureReport::new(
        "fig16",
        "Mixed isolation (mix3): utilization (%), VDI P99 (ms), TeraSort bandwidth (MB/s)",
        &["util_pct", "vdi_p99_ms", "tera_mbs"],
    );
    // Mixed Isolation (static), Software Isolation (everything shared),
    // FleetIO on the mixed layout.
    let mk_layout = |ctx: &mut SharedContext| {
        mixed_layout(
            &ctx.cfg,
            &hw_tenants,
            4,
            &sw_tenants,
            &[Some(slo), Some(slo)],
            opts.seed,
        )
    };
    let summarize = |m: &RunMetrics| {
        let vdi: Vec<f64> = m
            .tenants
            .iter()
            .filter(|t| t.kind == VdiWeb)
            .map(|t| t.p99.as_millis_f64())
            .collect();
        let tera: Vec<f64> = m
            .tenants
            .iter()
            .filter(|t| t.kind == TeraSort)
            .map(|t| t.avg_bandwidth / 1e6)
            .collect();
        (
            m.avg_utilization * 100.0,
            vdi.iter().sum::<f64>() / vdi.len().max(1) as f64,
            tera.iter().sum::<f64>() / tera.len().max(1) as f64,
        )
    };

    let tenants = mk_layout(ctx);
    let mut p = StaticPolicy::mixed();
    let m = run_collocation(&mut p, tenants, &opts, peak, None);
    let (u, v, t) = summarize(&m);
    report.row("mixed-isolation", vec![u, v, t]);

    // Same seed basis as the mixed-layout rows so the three compared rows
    // replay the same request streams.
    let sw_tenants = software_layout(
        &ctx.cfg,
        &[VdiWeb, VdiWeb, TeraSort, TeraSort],
        &[Some(slo), Some(slo), None, None],
        opts.seed,
    );
    let mut sw_policy = StaticPolicy::software();
    let sw = run_collocation(&mut sw_policy, sw_tenants, &opts, peak, None);
    let (u, v, t) = summarize(&sw);
    report.row("software-isolation", vec![u, v, t]);

    let tenants = mk_layout(ctx);
    let model = ctx.model(ModelVariant::Full);
    let mut p = FleetIoPolicy::new(ctx.cfg.clone(), &model, 4);
    let m = run_collocation(&mut p, tenants, &opts, peak, None);
    let (u, v, t) = summarize(&m);
    report.row("fleetio", vec![u, v, t]);

    report.note(
        "paper: FleetIO 1.27x utilization over Mixed Isolation, 1.42x TeraSort bandwidth, P99 +1.19x"
            .into(),
    );
    report
}

/// Figure 17: robustness — a model tuned on one collocation evaluated on
/// another (Transfer) vs a model tuned on the evaluated collocation
/// (PreTrained). The paper swaps the collocated workload halfway; here the
/// transfer model simply runs the new combination cold.
pub fn fig17(ctx: &mut SharedContext) -> FigureReport {
    use WorkloadKind::*;
    // (kept workload, tuned partner, evaluated partner); labels follow the
    // paper: "T + (V->Y)" keeps TeraSort, tunes with VDI, evaluates on YCSB.
    let combos = [
        (TeraSort, VdiWeb, Ycsb),
        (MlPrep, VdiWeb, Ycsb),
        (PageRank, VdiWeb, Ycsb),
        (VdiWeb, TeraSort, MlPrep),
        (VdiWeb, MlPrep, PageRank),
        (Ycsb, PageRank, TeraSort),
    ];
    let mut report = FigureReport::new(
        "fig17",
        "Robustness: Transfer vs PreTrained (utilization %, kept-tenant metric ratio T/P)",
        &["transfer_util", "pretrained_util", "metric_ratio"],
    );
    // Tuning = a short behaviour-cloning + PPO pass on the specific combo.
    let tune = |ctx: &mut SharedContext, a: WorkloadKind, b: WorkloadKind| {
        let share = usize::from(ctx.cfg.engine.flash.channels) / 2;
        let slo_a = (a.category() == WorkloadCategory::LatencySensitive).then(|| ctx.slo(a, share));
        let slo_b = (b.category() == WorkloadCategory::LatencySensitive).then(|| ctx.slo(b, share));
        let scenario = hardware_layout(&ctx.cfg, &[a, b], &[slo_a, slo_b], ctx.seed ^ 0x17);
        let mut opts = ctx.scale.pretrain_options();
        opts.iterations = opts.iterations.min(4);
        opts.bc_rounds = opts.bc_rounds.min(3);
        fleetio::agent::pretrain(&ctx.cfg, &[scenario], 0.5, opts, ctx.seed ^ 0x1717)
    };
    for (i, (kept, tuned_with, eval_with)) in combos.into_iter().enumerate() {
        let order = |x: WorkloadKind, y: WorkloadKind| -> Vec<WorkloadKind> {
            // Keep LC first for consistent tenant indexing.
            if x.category() == WorkloadCategory::LatencySensitive {
                vec![x, y]
            } else {
                vec![y, x]
            }
        };
        let eval_combo = order(kept, eval_with);
        let transfer_model = tune(ctx, order(kept, tuned_with)[0], order(kept, tuned_with)[1]);
        let pretrained_model = tune(ctx, eval_combo[0], eval_combo[1]);

        let run_with = |ctx: &mut SharedContext,
                        model: &fleetio::agent::PretrainedModel,
                        seed_off: u64| {
            let share = usize::from(ctx.cfg.engine.flash.channels) / 2;
            let slos: Vec<Option<SimDuration>> = eval_combo
                .iter()
                .map(|k| {
                    (k.category() == WorkloadCategory::LatencySensitive).then(|| ctx.slo(*k, share))
                })
                .collect();
            let opts = ctx
                .scale
                .experiment_options(&ctx.cfg, ctx.seed.wrapping_add(seed_off));
            let peak = ctx.device_peak();
            let tenants = hardware_layout(&ctx.cfg, &eval_combo, &slos, opts.seed);
            let mut p = FleetIoPolicy::new(ctx.cfg.clone(), model, 2);
            run_collocation(&mut p, tenants, &opts, peak, None)
        };
        let t = run_with(ctx, &transfer_model, 3000 + i as u64);
        let p = run_with(ctx, &pretrained_model, 3000 + i as u64);
        // Kept-tenant metric: bandwidth for BI, P99 for LC.
        let metric = |m: &RunMetrics| {
            let tm = m
                .tenants
                .iter()
                .find(|t| t.kind == kept)
                .expect("kept tenant");
            match kept.category() {
                WorkloadCategory::BandwidthIntensive => tm.avg_bandwidth,
                WorkloadCategory::LatencySensitive => tm.p99.as_millis_f64(),
            }
        };
        let label = format!(
            "{} + ({}->{})",
            kept.short_label(),
            tuned_with.short_label(),
            eval_with.short_label()
        );
        report.row(
            &label,
            vec![
                t.avg_utilization * 100.0,
                p.avg_utilization * 100.0,
                metric(&t) / metric(&p).max(1e-9),
            ],
        );
    }
    report.note("paper: Transfer within 5% of PreTrained on every combination".into());
    report
}

/// §4.7: overhead microbenchmarks (gSB creation, admission batches,
/// inference, fine-tuning), measured in wall-clock time on this machine.
pub fn overheads(ctx: &mut SharedContext) -> FigureReport {
    use fleetio::agent::ppo_config;
    use fleetio_rl::{PpoTrainer, RolloutBuffer, Transition};
    use fleetio_vssd::admission::{AdmissionControl, HarvestAction};
    use fleetio_vssd::engine::{Engine, EngineConfig};
    use fleetio_vssd::vssd::{VssdConfig, VssdId};
    use std::time::Instant;

    /// The one timed loop of this figure: runs `f` `ops` times and returns
    /// mean microseconds/op.
    fn per_op_us(ops: u32, mut f: impl FnMut()) -> f64 {
        let t0 = Instant::now();
        for _ in 0..ops {
            f();
        }
        t0.elapsed().as_secs_f64() * 1e6 / f64::from(ops)
    }

    let mut report = FigureReport::new(
        "overheads",
        "§4.7 overheads (measured wall-clock on this host)",
        &["value", "unit_us"],
    );

    // gSB creation: metadata-only (< 1 µs in the paper).
    let cfg: EngineConfig = ctx.cfg.engine.clone();
    let chans: Vec<_> = (0..8u16).map(fleetio_flash::addr::ChannelId).collect();
    let other: Vec<_> = (8..16u16).map(fleetio_flash::addr::ChannelId).collect();
    let mut engine = Engine::new(
        cfg,
        vec![
            VssdConfig::hardware(VssdId(0), chans),
            VssdConfig::hardware(VssdId(1), other),
        ],
    );
    let mut i = 0u32;
    let gsb_us = per_op_us(2000, || {
        engine.set_harvestable_target(VssdId(0), if i.is_multiple_of(2) { 4 } else { 0 });
        i += 1;
    });
    report.row("gsb_create_reclaim_cycle", vec![gsb_us, 1.0]);

    // Admission control: a batch of 1 000 actions (0.8 ms in the paper).
    let mut ac = AdmissionControl::new();
    let ch_bw = ctx.cfg.engine.flash.channel_peak_bytes_per_sec();
    let batch_us = per_op_us(200, || {
        for i in 0..1000u32 {
            let v = VssdId(i % 8);
            if i % 2 == 0 {
                ac.submit(HarvestAction::MakeHarvestable {
                    vssd: v,
                    bytes_per_sec: ch_bw,
                });
            } else {
                ac.submit(HarvestAction::Harvest {
                    vssd: v,
                    bytes_per_sec: ch_bw,
                });
            }
        }
        let _ = ac.drain_batch(8, &[], ch_bw);
    });
    report.row("admission_batch_1000_actions", vec![batch_us, 1.0]);

    // Inference: one greedy decision (1.1 ms per window in the paper).
    let model = ctx.model(ModelVariant::Full);
    let mut agent = fleetio::FleetIoAgent::new(&model, ctx.cfg.history_windows);
    let state = fleetio::StateVector::zero();
    let infer_us = per_op_us(10_000, || {
        let _ = agent.decide(state);
    });
    report.row("inference_per_decision", vec![infer_us, 1.0]);

    // Fine-tuning: one PPO update over ten windows of experience (51.2 ms
    // in the paper).
    let obs_dim = ctx.cfg.obs_dim();
    let mut trainer = PpoTrainer::new(
        model.policy.clone(),
        obs_dim,
        ppo_config(&ctx.cfg),
        ctx.seed,
    );
    let mut windows = RolloutBuffer::new();
    for i in 0..10 {
        windows.push(Transition {
            obs: vec![0.1; obs_dim],
            action: vec![0; ctx.cfg.action_dims().len()],
            logp: -1.0,
            reward: 0.5 + 0.01 * f64::from(i),
            value: 0.4,
            done: i == 9,
            advantage: 0.0,
            ret: 0.0,
        });
    }
    let finetune_us = per_op_us(50, || {
        let _ = trainer.update(windows.clone());
    });
    report.row("finetune_10_windows", vec![finetune_us, 1.0]);

    // Model footprint (2.2 MB / ~9 K parameters in the paper).
    report.row(
        "model_parameters",
        vec![model.policy.n_params() as f64, 0.0],
    );
    report.row("model_bytes", vec![model.approx_size_bytes() as f64, 0.0]);
    report.note("paper: gSB creation <1us, admission 0.8ms/1000 actions, inference 1.1ms, fine-tuning 51.2ms/10 windows, model 2.2MB/9K params".into());
    report
}

/// Validates Table 4/5 and the feature pipeline end-to-end (cheap sanity
/// pass used by the `tables` subcommand).
pub fn tables(ctx: &mut SharedContext) -> FigureReport {
    let mut report = FigureReport::new(
        "tables",
        "Tables 3-5 sanity: config defaults and workload catalogue",
        &["value"],
    );
    report.row(
        "decision_interval_s",
        vec![ctx.cfg.decision_interval.as_secs_f64()],
    );
    report.row("beta", vec![ctx.cfg.beta]);
    report.row("gamma", vec![ctx.cfg.gamma]);
    report.row("batch_size", vec![ctx.cfg.batch_size as f64]);
    report.row("channels", vec![f64::from(ctx.cfg.engine.flash.channels)]);
    report.row(
        "chips_per_channel",
        vec![f64::from(ctx.cfg.engine.flash.chips_per_channel)],
    );
    report.row(
        "page_kb",
        vec![f64::from(ctx.cfg.engine.flash.page_bytes) / 1024.0],
    );
    report.row(
        "overprovisioning",
        vec![ctx.cfg.engine.flash.overprovisioning],
    );
    report.row(
        "eval_workloads",
        vec![WorkloadKind::EVALUATION.len() as f64],
    );
    report.row("mixes", vec![table5_mixes().len() as f64]);
    let _ = SimTime::ZERO;
    report
}

/// One window's worth of the clustering feature pipeline, used by tests.
pub fn clustering_features_smoke(seed: u64) -> usize {
    let spec = WorkloadKind::Ycsb.spec();
    let mut w = fleetio_workloads::SyntheticWorkload::new(spec, 1 << 30, seed);
    let recs = w.requests_until(SimTime::from_secs(3));
    windowed_features(&recs, 1 << 30, 1000).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_labels_are_unique() {
        let mut labels: Vec<&str> = PolicySpec::headline().iter().map(|p| p.label()).collect();
        labels.push(PolicySpec::FleetIo(ModelVariant::UnifiedGlobal).label());
        labels.push(PolicySpec::FleetIo(ModelVariant::CustomizedLocal).label());
        labels.push(PolicySpec::Heuristic.label());
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), labels.len());
    }

    #[test]
    fn headline_has_five_policies_with_hardware_first() {
        let h = PolicySpec::headline();
        assert_eq!(h.len(), 5);
        assert_eq!(h[0], PolicySpec::Hardware);
        assert!(h.contains(&PolicySpec::FleetIo(ModelVariant::Full)));
        let plotted = PolicySpec::plotted();
        assert_eq!(plotted[..5], h, "the plots add the teacher, nothing else");
        assert_eq!(plotted[5], PolicySpec::Heuristic);
    }

    #[test]
    fn feature_pipeline_smoke() {
        assert!(clustering_features_smoke(3) > 3);
    }
}
