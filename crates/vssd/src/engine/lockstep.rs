//! The bus arbiter against the model it replaced, in lockstep.
//!
//! Until PR 21 every step of a time-sliced transfer was an event of its
//! own in the engine's queue. That model survives here only
//! (`Engine::eager_oracle`, `Ev::Grant`, `Engine::process_grant`): two
//! engines — one eager, one on the arbiter — are fed the same requests
//! tick by tick, and every completed request, every window summary, every
//! device counter, every trace record and the event queue's sequence
//! counter itself must be equal. There is no instant at which the two are
//! allowed to differ: the arbiter's steps carry the sequence numbers the
//! eager model's events carry, so even steps and events that share a
//! nanosecond — the suite counts how often that happens — run in one
//! order.

#[cfg(test)]
mod tests {
    use fleetio_des::rng::{Rng, SmallRng};
    use fleetio_des::{SimDuration, SimTime};
    use fleetio_flash::addr::ChannelId;
    use fleetio_flash::config::FlashConfig;
    use fleetio_obs::RecordingSink;

    use crate::engine::{Engine, EngineConfig};
    use crate::request::{IoOp, IoRequest, Priority};
    use crate::vssd::{VssdConfig, VssdId};

    const PAGE: u64 = 16 * 1024;
    const TICK: SimDuration = SimDuration::from_millis(1);
    const TICKS_PER_WINDOW: u64 = 25;
    const WINDOWS: u64 = 12;
    const PRIORITIES: [Priority; 3] = [Priority::Low, Priority::Medium, Priority::High];

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Scenario {
        /// A Low bulk tenant and a High latency-critical one on shared
        /// channels.
        LowBulkHighReads,
        /// A device filled until GC runs: migrations are sliced whatever
        /// their priority.
        GcActive,
        /// The bulk tenant writes through a gSB harvested from the third
        /// tenant's channels.
        Harvesting,
        /// Every tenant's priority redrawn every window.
        PriorityFlapping,
    }

    const SCENARIOS: [Scenario; 4] = [
        Scenario::LowBulkHighReads,
        Scenario::GcActive,
        Scenario::Harvesting,
        Scenario::PriorityFlapping,
    ];

    /// Tenants 0 (bulk) and 1 (latency-critical) share channels 0–1;
    /// tenant 2 owns channels 2–3. Further channels of a larger device
    /// idle.
    fn engine(flash: &FlashConfig, eager: bool) -> Engine {
        let cfg = EngineConfig {
            flash: flash.clone(),
            ..Default::default()
        };
        let shared = vec![ChannelId(0), ChannelId(1)];
        let mut e = Engine::new(
            cfg,
            vec![
                VssdConfig::software(VssdId(0), shared.clone()).with_capacity_share(0.5),
                VssdConfig::software(VssdId(1), shared).with_capacity_share(0.5),
                VssdConfig::hardware(VssdId(2), vec![ChannelId(2), ChannelId(3)]),
            ],
        );
        e.eager_oracle = eager;
        e.set_obs_sink(Box::new(RecordingSink::new()));
        e
    }

    /// What one lockstep run saw.
    #[derive(Debug, Default, Clone, Copy)]
    struct Report {
        completed: u64,
        /// Steps of time-sliced transfers: queue events in the eager
        /// engine, none in the arbiter's.
        grant_steps: u64,
        /// Of those, steps that shared a nanosecond with the event the
        /// eager engine dispatched just before them.
        same_instant: u64,
        arbiter_events: u64,
        gc_runs: u64,
    }

    impl std::ops::AddAssign for Report {
        fn add_assign(&mut self, r: Report) {
            self.completed += r.completed;
            self.grant_steps += r.grant_steps;
            self.same_instant += r.same_instant;
            self.arbiter_events += r.arbiter_events;
            self.gc_runs += r.gc_runs;
        }
    }

    /// The installed sink's trace so far; a fresh sink replaces it.
    fn take_trace(e: &mut Engine) -> String {
        let sink = e
            .set_obs_sink(Box::new(RecordingSink::new()))
            .into_any()
            .downcast::<RecordingSink>()
            .expect("the lockstep engines record");
        assert_eq!(sink.dropped(), 0);
        sink.to_jsonl()
    }

    fn run(flash: &FlashConfig, scenario: Scenario, seed: u64) -> Report {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (mut eager, mut arbiter) = (engine(flash, true), engine(flash, false));
        let ids = [VssdId(0), VssdId(1), VssdId(2)];
        // Pages each tenant reads and overwrites: small enough that GC can
        // always reclaim what the writers consume.
        let working_set = 1_500u64;
        let small = flash.blocks_per_chip < 128;
        for e in [&mut eager, &mut arbiter] {
            match scenario {
                Scenario::LowBulkHighReads => {
                    e.set_priority(ids[0], Priority::Low);
                    e.set_priority(ids[1], Priority::High);
                }
                Scenario::GcActive => {
                    // 0.9 starts GC within the run on the small device;
                    // the 64 GiB one would need seconds of writes first, so it
                    // starts full, at the GC threshold.
                    for id in ids {
                        e.warm_up(id, if small { 0.9 } else { 1.0 });
                    }
                }
                Scenario::Harvesting => {
                    e.set_priority(ids[0], Priority::Low);
                    e.set_priority(ids[2], Priority::High);
                    e.set_harvestable_target(ids[2], 2);
                    e.set_harvest_target(ids[0], 2);
                    assert_eq!(e.snapshot(ids[0]).harvested_channels, 2);
                }
                Scenario::PriorityFlapping => {}
            }
        }
        let mut report = Report::default();
        let (mut done_e, mut done_a) = (Vec::new(), Vec::new());
        for tick in 0..WINDOWS * TICKS_PER_WINDOW {
            let t0 = SimTime::ZERO + TICK * tick;
            if scenario == Scenario::PriorityFlapping && tick % TICKS_PER_WINDOW == 0 {
                for id in ids {
                    let p = PRIORITIES[rng.gen_range(0usize..3)];
                    eager.set_priority(id, p);
                    arbiter.set_priority(id, p);
                }
            }
            // The last two windows only drain.
            let loading = tick < (WINDOWS - 2) * TICKS_PER_WINDOW;
            for (i, id) in ids.iter().enumerate() {
                if !loading {
                    break;
                }
                // Bulk: few large requests, mostly writes. The others:
                // more, smaller, mostly reads.
                let (n, max_pages, write_pct) = if i == 0 { (2, 8, 70) } else { (3, 2, 25) };
                for _ in 0..rng.gen_range(0u32..n + 1) {
                    let pages = rng.gen_range(1u64..max_pages + 1);
                    let write = rng.gen_range(0u32..100) < write_pct;
                    let lpa = rng.gen_range(0..working_set - pages);
                    // Reads may start and end mid-page.
                    let (skip, len) = if write {
                        (0, pages * PAGE)
                    } else {
                        let skip = rng.gen_range(0u64..4) * 4096;
                        (skip, rng.gen_range(1u64..pages * 4 + 1) * 4096)
                    };
                    let req = IoRequest {
                        vssd: *id,
                        op: if write { IoOp::Write } else { IoOp::Read },
                        offset: lpa * PAGE + skip,
                        len,
                        arrival: t0 + SimDuration::from_nanos(rng.gen_range(0..TICK.as_nanos())),
                    };
                    assert_eq!(eager.submit(req), arbiter.submit(req));
                }
            }
            let t1 = t0 + TICK;
            eager.run_until(t1);
            arbiter.run_until(t1);
            let at = format!("{scenario:?} seed {seed} tick {tick}");
            eager.drain_completed_into(&mut done_e);
            arbiter.drain_completed_into(&mut done_a);
            assert_eq!(done_a, done_e, "{at}: completions");
            report.completed += done_e.len() as u64;
            done_e.clear();
            done_a.clear();
            assert_eq!(arbiter.device().stats(), eager.device().stats(), "{at}");
            // Every push and every step drew the same sequence number.
            assert_eq!(
                arbiter.events.reserve_seq(),
                eager.events.reserve_seq(),
                "{at}: sequence counters"
            );
            if (tick + 1) % TICKS_PER_WINDOW == 0 {
                for id in ids {
                    assert_eq!(arbiter.finish_window(id), eager.finish_window(id), "{at}");
                    assert_eq!(arbiter.snapshot(id), eager.snapshot(id), "{at}");
                }
                assert_eq!(
                    arbiter.device().channel_obs(t1),
                    eager.device().channel_obs(t1),
                    "{at}"
                );
                let (a, e) = (take_trace(&mut arbiter), take_trace(&mut eager));
                if let Some((i, (a, e))) = a
                    .lines()
                    .zip(e.lines())
                    .enumerate()
                    .find(|(_, (a, e))| a != e)
                {
                    panic!("{at}: trace record {i}\n arbiter {a}\n eager   {e}");
                }
                assert_eq!(a.len(), e.len(), "{at}: trace length");
            }
        }
        // A device collecting garbage flat out may not have drained.
        assert_eq!(arbiter.reqs.len(), eager.reqs.len());
        assert_eq!(arbiter.sliced.len(), eager.grants.len());
        if scenario == Scenario::Harvesting {
            let loaned = (0..working_set)
                .filter_map(|lpa| arbiter.vssds[0].map.get(lpa))
                .filter(|ppa| ppa.channel().0 >= 2)
                .count();
            assert!(loaned > 0, "no bulk page was ever written through the gSB");
        }
        #[cfg(feature = "audit")]
        arbiter.audit_sweep();
        report.arbiter_events = arbiter.events_processed();
        report.grant_steps = eager.events_processed() - arbiter.events_processed();
        report.same_instant = eager.same_instant_grants;
        report.gc_runs = eager.device().stats().gc_runs;
        report
    }

    /// Runs `seeds` seeds of every scenario on `flash` and checks the runs
    /// were worth comparing; returns the totals.
    fn suite(flash: &FlashConfig, name: &str, seeds: std::ops::Range<u64>) -> Report {
        let mut total = Report::default();
        for scenario in SCENARIOS {
            let mut sum = Report::default();
            for seed in seeds.clone() {
                sum += run(flash, scenario, 0x10c5 ^ (seed << 8));
            }
            println!(
                "lockstep {name} {scenario:?} × {} seeds: {} requests, {} queue events + {} \
                 arbiter steps ({} of them in the same nanosecond as the event before), \
                 {} GC runs: identical",
                seeds.end - seeds.start,
                sum.completed,
                sum.arbiter_events,
                sum.grant_steps,
                sum.same_instant,
                sum.gc_runs,
            );
            assert!(
                sum.grant_steps > 1_000,
                "{scenario:?} sliced almost nothing"
            );
            if scenario == Scenario::GcActive {
                assert!(sum.gc_runs > 0, "GC never ran");
            }
            total += sum;
        }
        total
    }

    #[test]
    fn lockstep_arbiter_equals_eager_slicer() {
        let total = suite(&FlashConfig::training_test(), "training_test", 0..2);
        // Phase-locked transfers make shared nanoseconds routine, which is
        // why nothing less than the queue's own order would do.
        assert!(total.same_instant > 0);
    }

    /// The size CI runs in release: 32 seeds of every scenario on both the
    /// CI-scale and the experiment-scale device.
    #[test]
    #[ignore = "extended size; CI runs it in release"]
    fn lockstep_arbiter_equals_eager_slicer_extended() {
        let mut total = suite(&FlashConfig::training_test(), "training_test", 0..32);
        total += suite(
            &FlashConfig::experiment_default(),
            "experiment_default",
            0..32,
        );
        println!(
            "lockstep extended: {} arbiter steps, {} in a shared nanosecond, no difference",
            total.grant_steps, total.same_instant
        );
    }
}
