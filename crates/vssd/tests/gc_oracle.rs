//! ROADMAP 2(iii): what greedy garbage collection should do under uniform
//! random overwrite of a full device — checks derived from how greedy GC
//! works, not tuned to any paper figure.
//!
//! A `small_test` device is warmed to its whole logical space and then
//! overwritten one random page at a time, at 10, 20 and 30 %
//! over-provisioning. The oracle expects two things:
//!
//! * steady-state write amplification falls as over-provisioning rises;
//! * every greedy victim holds fewer live pages than the device mean.
//!   The mean is over *all* blocks: every logical page is mapped, so it is
//!   the constant `logical pages / blocks`, a lower bound on the mean over
//!   the blocks in use — the stronger check.
//!
//! At the shipped 20 % GC trigger the oracle is refuted on both counts:
//! the trigger is at or above the fraction of blocks over-provisioning
//! leaves spare, so GC never goes idle and collects blocks before they
//! age. DESIGN.md "Known divergences" records the finding. The verdicts
//! are pinned here beside a control run with the trigger below every
//! level's spare fraction, so a GC change that moves either fails this
//! test and updates the record.

use std::any::Any;

use fleetio_des::rng::{Rng, SmallRng};
use fleetio_des::SimDuration;
use fleetio_flash::addr::ChannelId;
use fleetio_flash::config::FlashConfig;
use fleetio_obs::{ObsEvent, ObsSink};
use fleetio_vssd::engine::{Engine, EngineConfig};
use fleetio_vssd::request::{IoOp, IoRequest};
use fleetio_vssd::vssd::{VssdConfig, VssdId};

/// Overwrites before measuring, and measured, in units of the logical
/// capacity.
const WARM_PASSES: u64 = 2;
const MEASURED_PASSES: u64 = 2;
/// Writes kept outstanding.
const QUEUE_DEPTH: usize = 4;
const STEP: SimDuration = SimDuration::from_micros(200);

/// Over-provisioning levels the oracle runs at.
const LEVELS: [f64; 3] = [0.10, 0.20, 0.30];

/// `(GC trigger, WAF falls as over-provisioning rises, each level's
/// victims all below the device mean)`, as measured.
const VERDICTS: [(f64, bool, [bool; 3]); 2] = [
    // The shipped trigger (§4.1): refuted on both counts.
    (0.20, false, [false, false, false]),
    // Below every level's spare fraction: WAF falls and victims are
    // emptier than the mean, except at 10 %, where the one-block GC
    // reserve and the open block leave a 16-block chip no spare block.
    (0.05, true, [false, true, true]),
];

/// Collects the live-page count of every GC victim.
#[derive(Debug, Default)]
struct VictimProbe {
    live_pages: Vec<u32>,
}

impl ObsSink for VictimProbe {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, ev: ObsEvent) {
        if let ObsEvent::GcStart { live_pages, .. } = ev {
            self.live_pages.push(live_pages);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// What one over-provisioning level measured.
#[derive(Debug)]
struct Steady {
    waf: f64,
    device_mean: f64,
    victims: Vec<u32>,
}

impl Steady {
    /// Live pages of the fullest victim.
    fn worst(&self) -> u32 {
        self.victims.iter().copied().max().unwrap_or(0)
    }
}

/// Warms one vSSD over all of `small_test` to full, then keeps
/// [`QUEUE_DEPTH`] single-page writes to uniformly random LPAs
/// outstanding; measures after [`WARM_PASSES`] capacities of overwrites.
fn overwrite(overprovisioning: f64, gc_free_threshold: f64, seed: u64) -> Steady {
    let flash = FlashConfig {
        overprovisioning,
        ..FlashConfig::small_test()
    };
    let blocks = flash.total_blocks();
    let cfg = EngineConfig {
        flash,
        gc_free_threshold,
        ..Default::default()
    };
    let id = VssdId(0);
    let channels = (0..4).map(ChannelId).collect();
    let mut e = Engine::new(cfg, vec![VssdConfig::hardware(id, channels)]);
    e.warm_up(id, 1.0);
    let logical = e.logical_capacity_pages(id);
    assert_eq!(e.snapshot(id).free_capacity_bytes, 0, "warmed to full");
    e.set_obs_sink(Box::new(VictimProbe::default()));
    let page = u64::from(e.config().flash.page_bytes);
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut outstanding, mut written) = (0usize, 0u64);
    let mut done = Vec::new();
    let mut before = None;
    let total = (WARM_PASSES + MEASURED_PASSES) * logical;
    while written < total || outstanding > 0 {
        if written >= WARM_PASSES * logical && before.is_none() {
            let probe = e.take_obs_sink();
            let seen = probe
                .as_any()
                .downcast_ref::<VictimProbe>()
                .expect("probe installed")
                .live_pages
                .len();
            e.set_obs_sink(probe);
            before = Some((e.device().stats(), seen));
        }
        while outstanding < QUEUE_DEPTH && written < total {
            e.submit(IoRequest {
                vssd: id,
                op: IoOp::Write,
                offset: rng.gen_range(0..logical) * page,
                len: page,
                arrival: e.now(),
            });
            outstanding += 1;
            written += 1;
        }
        e.run_until(e.now() + STEP);
        e.drain_completed_into(&mut done);
        outstanding -= done.len();
        done.clear();
    }
    let (start, seen) = before.expect("the measured phase started");
    let end = e.device().stats();
    let probe = e
        .take_obs_sink()
        .into_any()
        .downcast::<VictimProbe>()
        .expect("probe installed");
    Steady {
        waf: (end.flash_write_bytes - start.flash_write_bytes) as f64
            / (end.host_write_bytes - start.host_write_bytes) as f64,
        device_mean: logical as f64 / blocks as f64,
        victims: probe.live_pages[seen..].to_vec(),
    }
}

#[test]
fn uniform_overwrite_gc_oracle() {
    for (threshold, monotone, below_mean) in VERDICTS {
        let runs = LEVELS.map(|op| overwrite(op, threshold, 0x0c_0de ^ (op * 100.0) as u64));
        for (op, s) in LEVELS.iter().zip(&runs) {
            assert!(!s.victims.is_empty(), "GC never ran while measuring");
            assert!(s.waf >= 1.0, "WAF {} below 1", s.waf);
            let mean =
                s.victims.iter().map(|&v| f64::from(v)).sum::<f64>() / s.victims.len() as f64;
            println!(
                "GC trigger {:.0} %, over-provisioning {:.0} %: steady WAF {:.3}, {} victims \
                 holding {mean:.1} live pages on average (worst {}), device mean {:.1}",
                threshold * 100.0,
                op * 100.0,
                s.waf,
                s.victims.len(),
                s.worst(),
                s.device_mean
            );
        }
        let measured = (
            runs.windows(2).all(|w| w[1].waf < w[0].waf),
            runs.each_ref()
                .map(|s| f64::from(s.worst()) < s.device_mean),
        );
        assert_eq!(
            measured,
            (monotone, below_mean),
            "the GC oracle's verdict at a {:.0} % trigger moved: record the new one in \
             DESIGN.md \"Known divergences\" and here",
            threshold * 100.0
        );
    }
}
