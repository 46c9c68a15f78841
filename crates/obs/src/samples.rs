//! The one list of sample events every encoding test in this crate
//! draws from, and the absolute pin on what each variant looks like on
//! the wire and as JSONL.

use fleetio_des::hash::fnv1a64;
use fleetio_des::{SimDuration, SimTime};

use crate::event::{
    FleetMigration, GsbKind, MigrationCause, ModelKind, NandKind, ObsEvent, SloWindow, WindowFlush,
};
use crate::wire::{self, WireFormat};

/// Every [`ObsEvent`] variant at least once, both arms of each
/// `Option` field, every value of the four sub-enums, and a NaN, a
/// `-0.0` and an infinity among the floats.
pub(crate) fn sample_events() -> Vec<ObsEvent> {
    let us = SimTime::from_micros;
    let mut events = vec![
        ObsEvent::RequestSubmit {
            at: us(3),
            req: 7,
            vssd: 1,
            read: true,
            bytes: 4096,
        },
        ObsEvent::RequestAdmit {
            at: us(4),
            req: 7,
            vssd: 1,
            pages: 2,
        },
        ObsEvent::ChipIssue {
            at: us(5),
            req: 7,
            vssd: 1,
            channel: 3,
            chip: 2,
            read: false,
        },
        ObsEvent::RequestComplete {
            at: us(9),
            req: 7,
            vssd: 1,
            read: false,
            bytes: 512,
            arrival: us(3),
            service_start: us(5),
        },
        ObsEvent::GcStart {
            at: SimTime::ZERO,
            job: None,
            vssd: 0,
            channel: 0,
            chip: 0,
            live_pages: 3,
            emergency: true,
        },
        ObsEvent::GcStart {
            at: us(1),
            job: Some(11),
            vssd: 0,
            channel: 0,
            chip: 1,
            live_pages: 9,
            emergency: false,
        },
        ObsEvent::GcEnd {
            at: SimTime::from_millis(1),
            job: 4,
            vssd: 0,
            channel: 0,
            chip: 0,
            busy: SimDuration::from_micros(800),
        },
        ObsEvent::Throttle {
            at: SimTime::ZERO,
            channel: 3,
            until: us(50),
        },
        ObsEvent::WindowFlush(Box::new(WindowFlush {
            at: SimTime::from_secs(2),
            vssd: 1,
            avg_bandwidth: 1.5e8,
            avg_iops: f64::INFINITY,
            p99_latency: SimDuration::from_micros(900),
            slo_violation_rate: -0.0,
            gc_busy_frac: f64::NAN,
            total_bytes: 1 << 30,
            total_ops: 12345,
        })),
        ObsEvent::SloWindow(Box::new(SloWindow {
            at: SimTime::from_secs(4),
            tenant: 17,
            window: 3,
            ops: 900,
            p95: SimDuration::from_micros(850),
            p99: SimDuration::from_millis(3),
            throughput: 2.5e7,
            p95_ok: true,
            p99_ok: false,
            throughput_ok: true,
            burn: 0.25,
        })),
    ];
    let nand = [
        NandKind::Read,
        NandKind::Program,
        NandKind::BusGrant,
        NandKind::ChipOccupy,
    ];
    for (i, kind) in (0u16..).zip(nand) {
        events.push(ObsEvent::NandOp {
            start: us(u64::from(i)),
            end: us(u64::from(i) + 5),
            vssd: 2,
            channel: i,
            chip: 1,
            kind,
            gc: i % 2 == 1,
            bytes: 4096 * u64::from(i),
        });
    }
    let gsb = [
        GsbKind::Created,
        GsbKind::Harvested,
        GsbKind::Released,
        GsbKind::ReclaimRequested,
        GsbKind::Destroyed,
    ];
    for (i, kind) in (0u32..).zip(gsb) {
        events.push(ObsEvent::GsbTransition {
            at: us(u64::from(i)),
            gsb: 1,
            home: 3,
            harvester: (i % 2 == 1).then_some(i),
            kind,
            channels: 2,
        });
    }
    let model = [
        ModelKind::Saved,
        ModelKind::Loaded,
        ModelKind::RolledBack,
        ModelKind::CorruptDetected,
    ];
    for (i, kind) in (0u64..).zip(model) {
        events.push(ObsEvent::ModelLifecycle {
            at: SimTime::from_secs(i),
            kind,
            tag: format!("lc1-v{i}_ok"),
            update: 42 + i,
        });
    }
    for cause in [MigrationCause::HotUtil, MigrationCause::SpreadFactor] {
        events.push(ObsEvent::FleetMigration(Box::new(FleetMigration {
            at: SimTime::from_secs(5),
            window: 4,
            tenant: 17,
            from_shard: 2,
            from_slot: 1,
            to_shard: 7,
            to_slot: 0,
            cause,
            mean_util: 0.22,
            src_util: 0.81,
            dst_util: 0.05,
            src_util_after: 0.44,
            dst_util_after: f64::NEG_INFINITY,
        })));
    }
    events
}

/// The format-1 bytes were captured at the parent of the PR that made
/// [`ObsEvent`] one table (the hand-written encoders produced exactly
/// these bytes) and now come from the format-1 encoder; the format-2
/// bytes were captured when format 2 was introduced.
#[test]
fn every_variant_bytes_and_text_are_pinned() {
    let events = sample_events();
    let mut seen = [false; ObsEvent::KIND_COUNT];
    let mut v1 = Vec::new();
    let mut v2 = Vec::new();
    let mut text = String::new();
    for ev in &events {
        seen[usize::from(ev.kind_index())] = true;
        WireFormat::V1.encode(ev, &mut v1);
        wire::encode_event(ev, &mut v2);
        ev.write_json(&mut text);
        text.push('\n');
    }
    assert_eq!(
        seen,
        [true; ObsEvent::KIND_COUNT],
        "a variant has no sample"
    );
    assert_eq!(
        (v1.len(), fnv1a64(&v1)),
        (907, 0x346f_7cd1_d2c2_4ded),
        "format-1 wire bytes"
    );
    assert_eq!(
        (v2.len(), fnv1a64(&v2)),
        (427, 0x7f23_631d_192f_364b),
        "format-2 wire bytes"
    );
    assert_eq!(
        (text.len(), fnv1a64(text.as_bytes())),
        (2739, 0x64b4_12d0_01f5_c628),
        "JSONL text"
    );
}

/// The `boxed` rows keep every byte and every character they had as
/// struct variants: per sample, the format-1 and format-2 payloads and
/// the JSON line, and for every sample the `Debug` text (`{:?}` and
/// `{:#?}`), all captured before those rows were boxed.
#[test]
fn boxed_rows_keep_their_bytes_and_text() {
    let pin = |bytes: &[u8]| (bytes.len(), fnv1a64(bytes));
    let boxed: Vec<_> = sample_events()
        .into_iter()
        .filter(|ev| matches!(ev.tag(), "window_flush" | "slo_window" | "fleet_migration"))
        .map(|ev| {
            let (mut v1, mut v2) = (Vec::new(), Vec::new());
            WireFormat::V1.encode(&ev, &mut v1);
            wire::encode_event(&ev, &mut v2);
            let json = ev.to_json();
            (pin(&v1), pin(&v2), pin(json.as_bytes()))
        })
        .collect();
    assert_eq!(
        boxed,
        [
            (
                (69, 0xd76d_4b17_cd87_3286),
                (49, 0xd711_5532_7f60_2c17),
                (192, 0x3772_9a72_a283_5292)
            ),
            (
                (60, 0x67d3_551e_3e04_eab3),
                (36, 0x8f76_9e8d_03d1_7da6),
                (181, 0x05d4_b8a5_8e7b_beb8)
            ),
            (
                (74, 0x8278_3aca_bee4_a373),
                (53, 0x1c8b_911b_951b_69e0),
                (228, 0x11dc_b27c_8f8c_621d)
            ),
            (
                (74, 0x634e_da13_4cce_4b80),
                (53, 0x00b3_7866_ebdc_7d53),
                (233, 0x6ae3_af1d_8c61_2e72)
            ),
        ]
    );
    assert_eq!(
        format!("{:?}", sample_events()[8]),
        "WindowFlush { at: SimTime(2000000000), vssd: 1, avg_bandwidth: 150000000.0, \
         avg_iops: inf, p99_latency: SimDuration(900000), slo_violation_rate: -0.0, \
         gc_busy_frac: NaN, total_bytes: 1073741824, total_ops: 12345 }"
    );
    let (mut debug, mut pretty) = (String::new(), String::new());
    for ev in sample_events() {
        debug.push_str(&format!("{ev:?}\n"));
        pretty.push_str(&format!("{ev:#?}\n"));
    }
    assert_eq!(
        pin(debug.as_bytes()),
        (2947, 0xe12c_52fc_eda4_5774),
        "Debug text"
    );
    assert_eq!(
        pin(pretty.as_bytes()),
        (4233, 0xf55e_c194_10bc_f470),
        "pretty Debug text"
    );
}
