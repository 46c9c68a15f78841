//! Seeded fuzzing of every `des::codec` payload the store fuzz does not
//! reach, of single event payloads in both run-store segment formats, and
//! of `obs::json::parse`.
//!
//! Real values — a fleet spec, a run spec, a trained model checkpoint and
//! a typing index, the manifest of the committed store fixture, and events of every integer, `Option`, string and float
//! shape in segment formats 1 and 2 — are encoded, then damaged: bit flips, truncations,
//! appended bytes, stored bytes, cut and repeated ranges, and length
//! fields that lie. Each result is fed to `decode_container` and to the
//! type's own `decode` — bare, and for the three container kinds also
//! inside a container whose CRC was recomputed to match, so the payload
//! decoder sees damage the CRC would otherwise stop; damaged containers
//! go through `decode_container`, the decoder of the kind they name, and
//! `Manifest::from_container`.
//! Mutated and deeply nested JSON goes to `obs::json::parse` and to
//! `ObsEvent::from_json_line`. Oracles:
//!
//! * nothing panics or aborts;
//! * an undamaged value decodes and re-encodes to its exact bytes, bare
//!   and in its container;
//! * an event payload that decodes, damaged or not, re-encodes to its
//!   exact bytes: each format spells each event one way only;
//! * an undamaged event line reads back as the event it was written from;
//! * a line `from_json_line` reads, damaged or not, is one `json::parse`
//!   accepts, and the event's own line reads back as the same event.
//!
//! The seed is fixed and the rounds bounded, so a failure reproduces
//! exactly and the test stays in tier 1.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use fleetio::RunSpec;
use fleetio_des::codec::{decode_container, encode_container, DecodeError, PayloadKind};
use fleetio_des::rng::{Rng, SmallRng};
use fleetio_des::SimTime;
use fleetio_fleet::FleetSpec;
use fleetio_model::{CheckpointMeta, ModelCheckpoint, TypingIndex};
use fleetio_obs::json;
use fleetio_obs::wire::WireFormat;
use fleetio_obs::{
    FleetMigration, GsbKind, MigrationCause, ModelKind, ObsEvent, SloWindow, WindowFlush,
};
use fleetio_rl::{MultiAgentEnv, PpoConfig, PpoPolicy, PpoTrainer, StepResult};
use fleetio_store::Manifest;

/// Damaged inputs per subject.
const ROUNDS: usize = 2000;

/// A decoder under test: the payload back to its encoding, or an error.
type Decode = fn(&[u8]) -> Result<Vec<u8>, DecodeError>;

/// One encoded value and the decoder that reads it.
struct Subject {
    name: &'static str,
    /// The container kind it is framed as, if it has one.
    kind: Option<PayloadKind>,
    payload: Vec<u8>,
    decode: Decode,
}

fn run_spec(p: &[u8]) -> Result<Vec<u8>, DecodeError> {
    RunSpec::decode(p).map(|s| s.encode())
}

fn fleet_spec(p: &[u8]) -> Result<Vec<u8>, DecodeError> {
    FleetSpec::decode(p).map(|s| s.encode())
}

fn checkpoint(p: &[u8]) -> Result<Vec<u8>, DecodeError> {
    ModelCheckpoint::decode(p).map(|c| c.encode())
}

fn typing_index(p: &[u8]) -> Result<Vec<u8>, DecodeError> {
    TypingIndex::decode(p).map(|t| t.encode())
}

/// A framed-only kind: nothing reads the payload.
fn framed(p: &[u8]) -> Result<Vec<u8>, DecodeError> {
    Ok(p.to_vec())
}

/// A manifest, and the run spec it carries when that decodes.
fn manifest(p: &[u8]) -> Result<Vec<u8>, DecodeError> {
    let m = Manifest::decode(p)?;
    let _ = RunSpec::decode(&m.spec);
    Ok(m.encode())
}

/// An event payload in `format` and its re-encoding, which must be the
/// payload itself.
fn event_in(format: WireFormat, p: &[u8]) -> Result<Vec<u8>, DecodeError> {
    let ev = format.decode(p)?;
    let mut out = Vec::new();
    format.encode(&ev, &mut out);
    assert_eq!(out, p, "{format:?}: {ev:?} has a second spelling");
    Ok(out)
}

fn event_v1(p: &[u8]) -> Result<Vec<u8>, DecodeError> {
    event_in(WireFormat::V1, p)
}

fn event_v2(p: &[u8]) -> Result<Vec<u8>, DecodeError> {
    event_in(WireFormat::V2, p)
}

/// Events covering every field shape: wide and narrow integers and
/// times, both arms of an `Option`, a string, non-finite floats, and
/// every row declared `boxed`.
fn sample_events() -> Vec<ObsEvent> {
    vec![
        ObsEvent::RequestComplete {
            at: SimTime::from_nanos(81_234_567_890),
            req: 1 << 40,
            vssd: 3,
            read: true,
            bytes: 131_072,
            arrival: SimTime::from_nanos(81_234_000_000),
            service_start: SimTime::from_nanos(u64::MAX),
        },
        ObsEvent::GcStart {
            at: SimTime::from_nanos(127),
            job: Some(128),
            vssd: u32::MAX,
            channel: u16::MAX,
            chip: 0,
            live_pages: 16_384,
            emergency: false,
        },
        ObsEvent::GsbTransition {
            at: SimTime::ZERO,
            gsb: 0,
            home: 1,
            harvester: None,
            kind: GsbKind::ReclaimRequested,
            channels: 2,
        },
        ObsEvent::ModelLifecycle {
            at: SimTime::from_nanos(5),
            kind: ModelKind::Loaded,
            tag: "lc1-v2_ok".to_string(),
            update: 0,
        },
        ObsEvent::WindowFlush(Box::new(WindowFlush {
            at: SimTime::from_nanos(2_000_000_000),
            vssd: 0,
            avg_bandwidth: f64::NAN,
            avg_iops: f64::NEG_INFINITY,
            p99_latency: fleetio_des::SimDuration::from_nanos(900_000),
            slo_violation_rate: -0.0,
            gc_busy_frac: 0.25,
            total_bytes: 1 << 30,
            total_ops: 12_345,
        })),
        ObsEvent::SloWindow(Box::new(SloWindow {
            at: SimTime::from_nanos(4_000_000_000),
            tenant: 17,
            window: u32::MAX,
            ops: 0,
            p95: fleetio_des::SimDuration::ZERO,
            p99: fleetio_des::SimDuration::from_nanos(u64::MAX),
            throughput: f64::INFINITY,
            p95_ok: true,
            p99_ok: false,
            throughput_ok: true,
            burn: 0.25,
        })),
        ObsEvent::FleetMigration(Box::new(FleetMigration {
            at: SimTime::from_nanos(5_000_000_000),
            window: 4,
            tenant: 1 << 20,
            from_shard: 2,
            from_slot: 1,
            to_shard: u32::MAX,
            to_slot: 0,
            cause: MigrationCause::SpreadFactor,
            mean_util: 0.22,
            src_util: f64::NAN,
            dst_util: -0.0,
            src_util_after: 0.44,
            dst_util_after: f64::MIN_POSITIVE,
        })),
    ]
}

/// The decoder for a container's kind.
fn decoder(kind: PayloadKind) -> Decode {
    match kind {
        PayloadKind::ModelCheckpoint => checkpoint,
        PayloadKind::TypingIndex => typing_index,
        PayloadKind::RunAnchor => framed,
        PayloadKind::StoreManifest => manifest,
    }
}

/// Two agents, one three-way head: enough to train a real trainer whose
/// optimiser and normaliser state are not at their initial values.
struct ToyEnv {
    steps: usize,
}

impl MultiAgentEnv for ToyEnv {
    fn n_agents(&self) -> usize {
        2
    }
    fn obs_dim(&self) -> usize {
        2
    }
    fn action_dims(&self) -> Vec<usize> {
        vec![3]
    }
    fn reset(&mut self) -> Vec<Vec<f32>> {
        self.steps = 0;
        vec![vec![1.0, 0.0], vec![0.0, 1.0]]
    }
    fn step(&mut self, actions: &[Vec<usize>]) -> StepResult {
        self.steps += 1;
        StepResult {
            observations: vec![vec![1.0, 0.0], vec![0.0, 1.0]],
            rewards: actions
                .iter()
                .enumerate()
                .map(|(i, a)| if a[0] == i { 1.0 } else { 0.0 })
                .collect(),
            done: self.steps >= 6,
        }
    }
}

fn trained_checkpoint() -> ModelCheckpoint {
    let mut rng = SmallRng::seed_from_u64(5);
    let policy = PpoPolicy::new(2, &[3], &[8], &mut rng);
    let mut trainer = PpoTrainer::new(policy, 2, PpoConfig::default(), 5);
    trainer.train_iteration(&mut ToyEnv { steps: 0 }, 32);
    ModelCheckpoint {
        meta: CheckpointMeta {
            seed: 5,
            tag: "lc1".to_string(),
        },
        trainer: trainer.export_state(),
    }
}

/// A fixture file's payload, checked to be a container of `kind`.
fn fixture_payload(file: &str, kind: PayloadKind) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("crates/store/tests/fixtures/recorded-by-pr20")
        .join(file);
    let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let (found, payload) = decode_container(&bytes).expect("the fixture is whole");
    assert_eq!(found, kind, "{file}");
    assert_eq!(encode_container(kind, payload), bytes, "{file} re-frames");
    payload.to_vec()
}

fn subjects() -> Vec<Subject> {
    let index = TypingIndex {
        scaler_mean: vec![0.5, -2.0, 7.25],
        scaler_std: vec![1.0, 0.0, 3.5],
        centroids: vec![vec![-1.0, 0.0, 1.0], vec![1.0, 0.5, -0.5]],
        cluster_tags: vec!["lc1".to_string(), "bi".to_string()],
        unknown_distance: 3.0,
    };
    let mut subjects = vec![
        Subject {
            name: "run spec",
            kind: None,
            payload: RunSpec::demo(7, 12, 4).encode(),
            decode: run_spec,
        },
        Subject {
            name: "fleet spec",
            kind: None,
            payload: FleetSpec::hotspot(7).encode(),
            decode: fleet_spec,
        },
        Subject {
            name: "model checkpoint",
            kind: Some(PayloadKind::ModelCheckpoint),
            payload: trained_checkpoint().encode(),
            decode: checkpoint,
        },
        Subject {
            name: "typing index",
            kind: Some(PayloadKind::TypingIndex),
            payload: index.encode(),
            decode: typing_index,
        },
        Subject {
            name: "store manifest",
            kind: Some(PayloadKind::StoreManifest),
            payload: fixture_payload("manifest.fiom", PayloadKind::StoreManifest),
            decode: manifest,
        },
    ];
    for ev in sample_events() {
        for (name, format, decode) in [
            ("format-1 event", WireFormat::V1, event_v1 as Decode),
            ("format-2 event", WireFormat::V2, event_v2),
        ] {
            let mut payload = Vec::new();
            format.encode(&ev, &mut payload);
            subjects.push(Subject {
                name,
                kind: None,
                payload,
                decode,
            });
        }
    }
    subjects
}

/// Values a lying length or count field takes: off by one either way,
/// zero, just past what remains, and absurd.
fn lie(rng: &mut SmallRng, len: usize) -> u64 {
    let len = len as u64;
    match rng.gen_range(0u32..7) {
        0 => 0,
        1 => len.saturating_sub(1),
        2 => len + 1,
        3 => u64::from(u32::MAX),
        4 => u64::from(u32::MAX) + 1,
        5 => u64::MAX,
        _ => rng.next_u64() >> rng.gen_range(0u32..64),
    }
}

/// Applies one to three random kinds of damage to `bytes`.
fn damage(rng: &mut SmallRng, mut bytes: Vec<u8>) -> Vec<u8> {
    for _ in 0..rng.gen_range(1u32..4) {
        let len = bytes.len();
        let at = rng.gen_range(0..len.max(1));
        match rng.gen_range(0u32..7) {
            0 => {
                for _ in 0..rng.gen_range(1u32..5) {
                    if len > 0 {
                        bytes[rng.gen_range(0..len)] ^= 1 << rng.gen_range(0u32..8);
                    }
                }
            }
            1 => bytes.truncate(rng.gen_range(0..len + 1)),
            2 => {
                for _ in 0..rng.gen_range(1u32..17) {
                    bytes.push(rng.next_u32() as u8);
                }
            }
            3 => {
                // Every length and count in the codec is a little-endian
                // u64 or u32; lying at arbitrary offsets hits all of them.
                let value = lie(rng, len);
                let width = if rng.gen_bool(0.5) { 8 } else { 4 };
                for (i, b) in value.to_le_bytes()[..width].iter().enumerate() {
                    if let Some(slot) = bytes.get_mut(at + i) {
                        *slot = *b;
                    }
                }
            }
            4 => {
                if len > 0 {
                    bytes[at] = [0, 0xff, rng.next_u32() as u8][rng.gen_range(0usize..3)];
                }
            }
            5 => {
                let end = rng.gen_range(at..len + 1);
                bytes.drain(at..end);
            }
            _ => {
                let end = rng.gen_range(at..(at + 64).min(len) + 1);
                let copy = bytes[at..end].to_vec();
                bytes.splice(at..at, copy);
            }
        }
    }
    bytes
}

/// Runs `f`, recording `what` in `panics` if it panics.
fn no_panic(panics: &mut Vec<String>, what: impl FnOnce() -> String, f: impl FnOnce()) {
    if catch_unwind(AssertUnwindSafe(f)).is_err() {
        panics.push(what());
    }
}

#[test]
fn decoders_never_panic_on_damaged_payloads_and_containers() {
    let mut rng = SmallRng::seed_from_u64(0x00de_c0de);
    let mut panics = Vec::new();
    for s in subjects() {
        assert_eq!(
            (s.decode)(&s.payload).as_deref(),
            Ok(&s.payload[..]),
            "{}: an undamaged payload round-trips byte for byte",
            s.name
        );
        let container = s.kind.map(|kind| {
            let c = encode_container(kind, &s.payload);
            assert_eq!(
                decode_container(&c),
                Ok((kind, &s.payload[..])),
                "{}",
                s.name
            );
            c
        });
        for round in 0..ROUNDS {
            let payload = damage(&mut rng, s.payload.clone());
            let what = || format!("{} round {round}: payload {payload:02x?}", s.name);
            no_panic(&mut panics, what, || {
                let _ = (s.decode)(&payload);
                let _ = decode_container(&payload);
                // Framed with a matching CRC, the damage reaches the
                // payload decoder through the container.
                if let Some(kind) = s.kind {
                    let framed = encode_container(kind, &payload);
                    let (found, inner) = decode_container(&framed).expect("a fresh frame is whole");
                    assert_eq!((found, inner), (kind, &payload[..]));
                    let _ = decoder(kind)(inner);
                }
            });
            let Some(container) = &container else {
                continue;
            };
            let bytes = damage(&mut rng, container.clone());
            let what = || format!("{} round {round}: container {bytes:02x?}", s.name);
            no_panic(&mut panics, what, || {
                if let Ok((kind, inner)) = decode_container(&bytes) {
                    let _ = decoder(kind)(inner);
                }
                let _ = Manifest::from_container(&bytes);
            });
        }
    }
    assert!(
        panics.is_empty(),
        "{} damaged inputs panicked; the first: {}",
        panics.len(),
        panics[0]
    );
}

/// Real JSON: the workspace's own event rendering, of every field shape
/// [`sample_events`] covers too, plus a document with every value kind,
/// escapes and non-ASCII text.
fn json_documents() -> Vec<String> {
    let at = SimTime::from_nanos(1_234_567);
    let events = [
        ObsEvent::RequestSubmit {
            at,
            req: 7,
            vssd: 2,
            read: true,
            bytes: 4096,
        },
        ObsEvent::RequestComplete {
            at,
            req: 7,
            vssd: 2,
            read: false,
            bytes: 8192,
            arrival: SimTime::from_nanos(1_000),
            service_start: at,
        },
    ];
    let mut docs: Vec<String> = events.iter().map(ObsEvent::to_json).collect();
    docs.push(format!("[{}]", docs.join(",")));
    docs.extend(sample_events().iter().map(ObsEvent::to_json));
    docs.push(
        r#"{"a":[1,2.5,-3e-2,0],"b":{"c":true,"d":null,"e":false},"s":"x\ny\"\\\/é\ud83d","t":"café é 😀","n":[[],{}]}"#
            .to_string(),
    );
    docs
}

/// Tokens an edit splices into a document.
const JSON_TOKENS: [&str; 16] = [
    "{", "}", "[", "]", "\"", "\\", "\\u", "\\ud800", ":", ",", "-", "1e309", "null", "tru", "é",
    "😀",
];

#[test]
fn json_parse_never_panics_on_damaged_documents() {
    let mut rng = SmallRng::seed_from_u64(0x15_0a);
    let mut panics = Vec::new();
    let mut events_read = 0;
    for doc in json_documents() {
        json::parse(&doc).unwrap_or_else(|e| panic!("an undamaged document parses: {doc}: {e}"));
        if let Some(ev) = ObsEvent::from_json_line(&doc) {
            assert_eq!(ev.to_json(), doc, "an event line reads back as itself");
            events_read += 1;
        }
        for round in 0..ROUNDS {
            let mut text =
                String::from_utf8_lossy(&damage(&mut rng, doc.clone().into_bytes())).into_owned();
            // Then token edits at character boundaries.
            for _ in 0..rng.gen_range(0u32..3) {
                let at = text
                    .char_indices()
                    .map(|(i, _)| i)
                    .nth(rng.gen_range(0..text.chars().count() + 1))
                    .unwrap_or(text.len());
                text.insert_str(at, JSON_TOKENS[rng.gen_range(0..JSON_TOKENS.len())]);
            }
            let what = || format!("round {round}: {text:?}");
            let mut read = None;
            no_panic(&mut panics, what, || {
                let parsed = json::parse(&text).is_ok();
                read = Some((ObsEvent::from_json_line(&text), parsed));
            });
            // The in-place reader takes only lines the whole parse reads,
            // and the event it reads writes a line that reads back as it.
            // A float too large for `f64` reads as infinity and is written
            // as `0`, so the two are compared in their written form.
            if let Some((Some(ev), parsed)) = read {
                assert!(parsed, "{}", what());
                let line = ev.to_json();
                let again = ObsEvent::from_json_line(&line);
                assert_eq!(
                    again.as_ref().map(ObsEvent::to_json),
                    Some(line),
                    "{}",
                    what()
                );
            }
        }
    }
    // Every event line but the two holding a time above 2^53, which JSON
    // cannot carry exactly.
    assert_eq!(events_read, 7, "undamaged event lines read back");
    // Nesting far deeper than any document the workspace writes must be
    // refused, not overflow the parser's stack.
    for open in ["[", "{\"k\":"] {
        let deep = open.repeat(200_000);
        no_panic(
            &mut panics,
            || format!("{open} x 200 000"),
            || {
                assert!(json::parse(&deep).is_err());
            },
        );
    }
    assert!(
        panics.is_empty(),
        "{} damaged documents panicked; the first: {}",
        panics.len(),
        panics[0]
    );
}
