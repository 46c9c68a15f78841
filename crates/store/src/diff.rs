//! Same-seed run diff: lockstep byte comparison of two stored streams.
//!
//! Determinism makes equality checkable at the byte level: two runs of
//! the same spec and seed must produce *identical* encoded event
//! streams. The diff walks both stores' payloads in stream order —
//! streaming, one segment of each side in memory — and reports the
//! first index where they disagree, with the decoded event from each
//! side and a ring of the last few shared events for context.
//! Anything weaker (field-by-field tolerance, reordering) would paper
//! over exactly the bugs the store exists to catch. The bytes compared
//! are each event's current-format encoding: a segment in an older
//! format is re-encoded as it is read, so a recording made before a
//! format change still diffs against one made after it.

use fleetio_obs::wire::{self, WireFormat};

use crate::read::{RunStore, StoreError};

/// Shared events kept as context before a divergence.
pub const CONTEXT_EVENTS: usize = 5;

/// Where and how two streams diverged.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Stream index of the first differing event.
    pub index: u64,
    /// The event at `index` on side A, rendered (`None` past A's end).
    pub a_event: Option<String>,
    /// The event at `index` on side B, rendered (`None` past B's end).
    pub b_event: Option<String>,
    /// The last up-to-[`CONTEXT_EVENTS`] events both sides shared,
    /// rendered, oldest first.
    pub context: Vec<String>,
    /// Total events on side A.
    pub a_total: u64,
    /// Total events on side B.
    pub b_total: u64,
}

/// Outcome of [`diff_stores`].
#[derive(Debug, Clone)]
pub enum DiffOutcome {
    /// Streams are byte-identical.
    Identical {
        /// Events compared.
        events: u64,
    },
    /// Streams differ; first divergence reported.
    Diverged(Box<Divergence>),
}

fn render_payload(payload: &[u8]) -> String {
    match wire::decode_event(payload) {
        Ok(ev) => format!("{ev:?}"),
        Err(e) => format!("<undecodable: {e}>"),
    }
}

/// `payload` in [`WireFormat::CURRENT`]: itself, or re-encoded into
/// `scratch` from an older format.
fn current<'a>(
    format: WireFormat,
    payload: &'a [u8],
    scratch: &'a mut Vec<u8>,
) -> Result<&'a [u8], StoreError> {
    if format == WireFormat::CURRENT {
        return Ok(payload);
    }
    let ev = format
        .decode(payload)
        .map_err(|e| StoreError::Corrupt(format!("undecodable {format:?} record: {e}")))?;
    scratch.clear();
    WireFormat::CURRENT.encode(&ev, scratch);
    Ok(scratch)
}

/// The last [`CONTEXT_EVENTS`] shared payloads, overwritten in place.
#[derive(Default)]
struct ContextRing {
    slots: [Vec<u8>; CONTEXT_EVENTS],
    pushed: usize,
}

impl ContextRing {
    fn push(&mut self, payload: &[u8]) {
        let slot = &mut self.slots[self.pushed % CONTEXT_EVENTS];
        slot.clear();
        slot.extend_from_slice(payload);
        self.pushed += 1;
    }

    /// The held events rendered, oldest first.
    fn render(&self) -> Vec<String> {
        (self.pushed.saturating_sub(CONTEXT_EVENTS)..self.pushed)
            .map(|i| render_payload(&self.slots[i % CONTEXT_EVENTS]))
            .collect()
    }
}

/// Compares two stores' event streams byte-for-byte, in stream order,
/// pulling both in lockstep one segment at a time (the stores need not
/// be segmented alike). The bytes are each event's
/// [`WireFormat::CURRENT`] encoding, so a store in an older format diffs
/// against a current one event for event.
///
/// # Errors
///
/// Damage or I/O failure anywhere in either store, also past the first
/// divergence — a diff over corrupt inputs would be meaningless — and a
/// record of an older format that does not decode.
pub fn diff_stores(a: &RunStore, b: &RunStore) -> Result<DiffOutcome, StoreError> {
    let mut ca = a.payload_cursor();
    let mut cb = b.payload_cursor();
    let mut context = ContextRing::default();
    let (mut scratch_a, mut scratch_b) = (Vec::new(), Vec::new());
    let mut index = 0u64;
    loop {
        let pa = match ca.next_payload()? {
            Some((format, payload)) => Some(current(format, payload, &mut scratch_a)?),
            None => None,
        };
        let pb = match cb.next_payload()? {
            Some((format, payload)) => Some(current(format, payload, &mut scratch_b)?),
            None => None,
        };
        match (pa, pb) {
            (None, None) => return Ok(DiffOutcome::Identical { events: index }),
            (Some(pa), Some(pb)) if pa == pb => {
                context.push(pa);
                index += 1;
            }
            (pa, pb) => {
                let (a_event, b_event) = (pa.map(render_payload), pb.map(render_payload));
                return Ok(DiffOutcome::Diverged(Box::new(Divergence {
                    index,
                    a_event,
                    b_event,
                    context: context.render(),
                    a_total: ca.drain()?,
                    b_total: cb.drain()?,
                })));
            }
        }
    }
}
