//! Typed observability events: one table, every encoding.
//!
//! One [`ObsEvent`] is one fact about the simulation, timestamped in
//! simulated time. The set mirrors the paper's moving parts: the request
//! lifecycle (`submit → admit → chip-issue → complete`), NAND operations,
//! GC runs, gSB harvest/lend/reclaim transitions, token-bucket throttles
//! and per-window statistics flushes.
//!
//! Every kind is declared exactly once, as a row of the `obs_events!`
//! table at the bottom of this file: wire tag, variant, JSON `type` tag,
//! the field attributing it to a tenant, and its documented fields. The
//! enum, [`ObsEvent::KIND_TAGS`], [`ObsEvent::kind_index`],
//! [`ObsEvent::at`], [`ObsEvent::tenant`], the JSONL form (written by
//! [`ObsEvent::write_json`], read by [`ObsEvent::from_json_line`]) and the
//! binary form ([`crate::wire`]) are all generated from that row, so they
//! cannot drift apart: fields appear in JSON and on the wire in
//! declaration order under their own names, and how a value looks in
//! either form is a function of its Rust type alone (the private `Field`
//! trait).
//!
//! JSON goes through the workspace's one writer, [`json::object`], and
//! its number rule: integers and `bool`s render exactly, `f64`s use
//! Rust's shortest-roundtrip `Display` with non-finite values as `0`, so a
//! line is always parseable. Reading is as strict as the wire: a line not
//! in exactly the writer's form (its keys in declaration order, compact),
//! an unknown `type`, a missing, extra or mistyped field, and an integer
//! out of its type's range or at or above 2^53 (where `f64` stops being
//! exact) are refused. On the wire integers take the payload's integer form
//! (`wire::IntForm`): fixed-width little-endian in segment format 1,
//! canonical LEB128 in format 2, with times as `u64` nanoseconds. `f64`
//! travels as its IEEE bits, `Option` as a one-byte flag, sub-enums as
//! one tag byte and strings behind a `u32` length, in every format.

use fleetio_des::codec::{Dec, DecodeError, Enc};
use fleetio_des::{SimDuration, SimTime};

use crate::json;
use crate::wire::IntForm;

/// Longest string field [`ObsEvent::decode`] accepts, in bytes.
const STR_CAP: usize = 4096;

/// How one field type of an [`ObsEvent`] looks on the wire and in JSON.
/// The wire methods take the payload's integer form `I`, chosen once per
/// payload from the segment format.
pub(crate) trait Field: Sized {
    /// Appends the wire form.
    fn put<I: IntForm>(&self, e: &mut Enc<'_>);
    /// Reads the wire form back.
    fn get<I: IntForm>(d: &mut Dec<'_>) -> Result<Self, DecodeError>;
    /// Writes the JSON value into its slot.
    fn write_json(&self, v: json::Val<'_>);
    /// Reads the JSON value back; `None` when it is not this type's form.
    fn read_json(v: &json::Value) -> Option<Self>;
}

/// Smallest integer a JSON number no longer holds exactly: `2^53 + 1`
/// parses as `2^53`.
const JSON_INT_LIMIT: u64 = 1 << 53;

/// Integers: written in the payload's integer form, rendered with their
/// `Display`.
macro_rules! int_field {
    ($($t:ident $put:ident $get:ident),+) => {$(
        impl Field for $t {
            fn put<I: IntForm>(&self, e: &mut Enc<'_>) {
                I::$put(e, *self);
            }
            fn get<I: IntForm>(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
                I::$get(d)
            }
            fn write_json(&self, v: json::Val<'_>) {
                v.u64(u64::from(*self));
            }
            fn read_json(v: &json::Value) -> Option<Self> {
                let n = v.as_u64().filter(|n| *n < JSON_INT_LIMIT)?;
                $t::try_from(n).ok()
            }
        }
    )+};
}
int_field!(u16 put_u16 get_u16, u32 put_u32 get_u32, u64 put_u64 get_u64);

impl Field for bool {
    fn put<I: IntForm>(&self, e: &mut Enc<'_>) {
        e.bool(*self);
    }
    fn get<I: IntForm>(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        d.bool()
    }
    fn write_json(&self, v: json::Val<'_>) {
        v.bool(*self);
    }
    fn read_json(v: &json::Value) -> Option<Self> {
        v.as_bool()
    }
}

/// Simulated times and durations: `u64` nanoseconds in both forms.
macro_rules! nanos_field {
    ($($t:ident),+) => {$(
        impl Field for $t {
            fn put<I: IntForm>(&self, e: &mut Enc<'_>) {
                I::put_u64(e, self.as_nanos());
            }
            fn get<I: IntForm>(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
                I::get_u64(d).map($t::from_nanos)
            }
            fn write_json(&self, v: json::Val<'_>) {
                v.u64(self.as_nanos());
            }
            fn read_json(v: &json::Value) -> Option<Self> {
                v.as_u64().filter(|n| *n < JSON_INT_LIMIT).map($t::from_nanos)
            }
        }
    )+};
}
nanos_field!(SimTime, SimDuration);

impl Field for f64 {
    fn put<I: IntForm>(&self, e: &mut Enc<'_>) {
        e.f64(*self);
    }
    fn get<I: IntForm>(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        d.f64()
    }
    fn write_json(&self, v: json::Val<'_>) {
        v.f64(*self);
    }
    fn read_json(v: &json::Value) -> Option<Self> {
        v.as_f64()
    }
}

impl Field for String {
    fn put<I: IntForm>(&self, e: &mut Enc<'_>) {
        e.str32(self);
    }
    fn get<I: IntForm>(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        d.str32(STR_CAP)
    }
    fn write_json(&self, v: json::Val<'_>) {
        v.str(self);
    }
    fn read_json(v: &json::Value) -> Option<Self> {
        v.as_str().map(str::to_owned)
    }
}

impl<T: Field> Field for Option<T> {
    fn put<I: IntForm>(&self, e: &mut Enc<'_>) {
        e.bool(self.is_some());
        if let Some(v) = self {
            v.put::<I>(e);
        }
    }
    fn get<I: IntForm>(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(if d.bool()? {
            Some(T::get::<I>(d)?)
        } else {
            None
        })
    }
    fn write_json(&self, v: json::Val<'_>) {
        match self {
            Some(x) => x.write_json(v),
            None => v.null(),
        }
    }
    fn read_json(v: &json::Value) -> Option<Self> {
        match v {
            json::Value::Null => Some(None),
            v => T::read_json(v).map(Some),
        }
    }
}

/// Declares a field-less enum that travels as one wire byte and is a
/// lowercase tag in JSON: `wire-byte Variant "tag"` per row. Never renumber
/// released wire bytes.
macro_rules! tagged_enum {
    (
        $(#[$doc:meta])*
        $name:ident {
            $( $(#[$vdoc:meta])* $wire:literal $variant:ident $tag:literal, )+
        }
    ) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $( $(#[$vdoc])* $variant, )+
        }

        impl $name {
            /// Stable lowercase tag used in exports.
            pub fn tag(self) -> &'static str {
                match self {
                    $( $name::$variant => $tag, )+
                }
            }
        }

        impl Field for $name {
            fn put<I: IntForm>(&self, e: &mut Enc<'_>) {
                e.u8(match self {
                    $( $name::$variant => $wire, )+
                });
            }
            fn get<I: IntForm>(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
                match d.u8()? {
                    $( $wire => Ok($name::$variant), )+
                    tag => Err(DecodeError::BadTag {
                        what: stringify!($name),
                        tag,
                    }),
                }
            }
            fn write_json(&self, v: json::Val<'_>) {
                v.str(self.tag());
            }
            fn read_json(v: &json::Value) -> Option<Self> {
                match v.as_str()? {
                    $( $tag => Some($name::$variant), )+
                    _ => None,
                }
            }
        }
    };
}

tagged_enum! {
    /// What a [`ObsEvent::NandOp`] span occupied.
    NandKind {
        /// Whole-page read (cell read + bus transfer).
        0 Read "read",
        /// Whole-page program (bus transfer + cell program).
        1 Program "program",
        /// One bus grant of a time-sliced transfer.
        2 BusGrant "bus_grant",
        /// Cell-only occupancy (the chip half of a time-sliced op).
        3 ChipOccupy "chip_occupy",
    }
}

tagged_enum! {
    /// A ghost-superblock lifecycle transition (§3.6 of the paper).
    GsbKind {
        /// `Make_Harvestable` materialized a new gSB into the pool.
        0 Created "created",
        /// A harvester acquired the gSB (`Harvest`).
        1 Harvested "harvested",
        /// The harvester released the gSB back (level decrease).
        2 Released "released",
        /// The home vSSD asked for it back; live data drains through GC.
        3 ReclaimRequested "reclaim_requested",
        /// The gSB's last block was returned; it no longer exists.
        4 Destroyed "destroyed",
    }
}

tagged_enum! {
    /// A model-lifecycle action (checkpoint management in `fleetio-model`).
    ModelKind {
        /// A checkpoint was written (atomic tmp + sync + rename).
        0 Saved "saved",
        /// A checkpoint was decoded and a trainer/agent restored from it.
        1 Loaded "loaded",
        /// The trainer was rolled back to the last-good snapshot after a
        /// reward regression.
        2 RolledBack "rolled_back",
        /// A checkpoint failed verification (bad magic/CRC/truncation).
        3 CorruptDetected "corrupt_detected",
    }
}

tagged_enum! {
    /// Which hotspot rule was the binding constraint when the control
    /// plane planned a migration. A shard qualifies as hot only when it
    /// exceeds **both** the absolute utilization threshold and the
    /// spread-factor multiple of the fleet mean; the cause names the rule
    /// with the smaller margin — the one that would have released the
    /// shard first.
    MigrationCause {
        /// The absolute `hot_util` threshold was the tighter bound.
        0 HotUtil "hot_util",
        /// The `spread_factor × mean` bound was the tighter one.
        1 SpreadFactor "spread_factor",
    }
}

/// The tenant expression of one `obs_events!` row.
macro_rules! tenant_of {
    () => {
        None
    };
    ($field:ident) => {
        Some(*$field)
    };
}

/// The pattern for row `$variant` of [`ObsEvent`]. An inline row binds
/// the listed fields; a `boxed` row binds its box as `$row`, and
/// [`row_fields!`] then binds the same fields from it.
macro_rules! row_pat {
    (boxed $variant:ident $row:ident { $($fields:tt)* }) => {
        ObsEvent::$variant($row)
    };
    ($variant:ident $row:ident { $($fields:tt)* }) => {
        ObsEvent::$variant { $($fields)* }
    };
}

/// Binds a `boxed` row's fields by reference, as [`row_pat!`] binds an
/// inline row's; nothing for an inline row.
macro_rules! row_fields {
    (boxed $variant:ident $row:ident { $($fields:tt)* }) => {
        let $variant { $($fields)* } = &**$row;
    };
    ($variant:ident $row:ident { $($fields:tt)* }) => {};
}

/// Builds row `$variant` of [`ObsEvent`] from its field initialisers.
macro_rules! row_new {
    (boxed $variant:ident { $($init:tt)* }) => {
        ObsEvent::$variant(Box::new($variant { $($init)* }))
    };
    ($variant:ident { $($init:tt)* }) => {
        ObsEvent::$variant { $($init)* }
    };
}

/// Declares the struct behind a `boxed` row; nothing for an inline row.
/// It carries the variant's name, so its derived `Debug` text is the
/// variant's.
macro_rules! row_struct {
    (boxed $(#[$vdoc:meta])* $variant:ident { $($body:tt)* }) => {
        $(#[$vdoc])*
        ///
        #[doc = concat!("The fields of [`ObsEvent::", stringify!($variant), "`], boxed so that")]
        /// every [`ObsEvent`] stays 48 bytes.
        #[derive(Debug, Clone, PartialEq)]
        pub struct $variant { $($body)* }
    };
    ($(#[$vdoc:meta])* $variant:ident { $($body:tt)* }) => {};
}

/// Accumulates [`ObsEvent`]'s variants row by row, then declares it: an
/// inline row is a struct variant, a `boxed` row a variant holding its
/// struct.
macro_rules! obs_enum {
    ([$($done:tt)*]) => {
        /// One structured observability record. All timestamps are
        /// simulated time.
        #[derive(Clone, PartialEq)]
        pub enum ObsEvent { $($done)* }
    };
    ([$($done:tt)*] [$(#[$vdoc:meta])*] $variant:ident boxed { $($body:tt)* } $($rest:tt)*) => {
        obs_enum!([$($done)* $(#[$vdoc])* $variant(Box<$variant>),] $($rest)*);
    };
    ([$($done:tt)*] [$(#[$vdoc:meta])*] $variant:ident { $($body:tt)* } $($rest:tt)*) => {
        obs_enum!([$($done)* $(#[$vdoc])* $variant { $($body)* },] $($rest)*);
    };
}

/// Declares [`ObsEvent`] and everything derived from its shape. One row
/// per kind:
///
/// ```text
/// /// docs
/// wire-tag Variant "type_tag" tenant(field-or-nothing) [boxed] {
///     /// docs
///     timestamp: SimTime,
///     /// docs
///     field: Type,
/// }
/// ```
///
/// The wire tag is also the kind index and the run store's kind-bitmap
/// bit, so rows are dense, in order, and only ever appended. The first
/// field is the event's primary timestamp; `tenant(f)` names the `u32`
/// field holding the vSSD the event is attributed to, `tenant()` says
/// there is none. Every other field type needs a `Field` impl.
///
/// A row whose fields take more than 48 bytes is declared `boxed`: its
/// variant holds a `Box` of a struct of the same name and fields, so
/// that the many small events are not padded to the few large ones.
/// Nothing else sees the difference: wire bytes, JSON, `Debug` text,
/// `at()` and `tenant()` are generated from the row either way
/// (`event_is_48_bytes` holds every row to this).
macro_rules! obs_events {
    ($(
        $(#[$vdoc:meta])*
        $wire:literal $variant:ident $tag:literal tenant($($tenant:ident)?) $($boxed:ident)? {
            $(#[$atdoc:meta])*
            $at:ident: SimTime,
            $( $(#[$fdoc:meta])* $field:ident: $ty:ty, )*
        }
    )+) => {
        obs_enum!([] $(
            [$(#[$vdoc])*] $variant $($boxed)? {
                $(#[$atdoc])*
                $at: SimTime,
                $( $(#[$fdoc])* $field: $ty, )*
            }
        )+);

        $(
            row_struct!($($boxed)? $(#[$vdoc])* $variant {
                $(#[$atdoc])*
                pub $at: SimTime,
                $( $(#[$fdoc])* pub $field: $ty, )*
            });
        )+

        impl std::fmt::Debug for ObsEvent {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                match self {
                    $( row_pat!($($boxed)? $variant row { $at, $($field,)* }) => {
                        row_fields!($($boxed)? $variant row { $at, $($field,)* });
                        f.debug_struct(stringify!($variant))
                            .field(stringify!($at), $at)
                            $( .field(stringify!($field), $field) )*
                            .finish()
                    } )+
                }
            }
        }

        impl ObsEvent {
            /// Number of distinct event kinds ([`ObsEvent::kind_index`]
            /// range).
            pub const KIND_COUNT: usize = [$($wire),+].len();

            /// Stable `type` tags indexed by [`ObsEvent::kind_index`].
            pub const KIND_TAGS: [&'static str; Self::KIND_COUNT] = [$($tag),+];

            /// Stable dense index of the event's kind, `0..KIND_COUNT`.
            /// Doubles as the binary wire tag ([`crate::wire`]) and the
            /// bit position in the run store's per-segment kind bitmap —
            /// never renumber released values; append new kinds at the
            /// end.
            pub fn kind_index(&self) -> u8 {
                match self {
                    $( ObsEvent::$variant { .. } => $wire, )+
                }
            }

            /// The event's primary timestamp (span events use their
            /// start).
            pub fn at(&self) -> SimTime {
                match self {
                    $( row_pat!($($boxed)? $variant row { $at, .. }) => {
                        row_fields!($($boxed)? $variant row { $at, .. });
                        *$at
                    } )+
                }
            }

            /// The vSSD the event is attributed to, if it names one. The
            /// run store's tenant bitmap and its query filter both ask
            /// here, so skip decisions and match decisions can never
            /// disagree.
            pub fn tenant(&self) -> Option<u32> {
                match self {
                    $( row_pat!($($boxed)? $variant row { $($tenant,)? .. }) => {
                        row_fields!($($boxed)? $variant row { $($tenant,)? .. });
                        tenant_of!($($tenant)?)
                    } )+
                }
            }

            /// Appends the event's one-line JSON encoding (no trailing
            /// newline): `type`, then every field under its own name in
            /// declaration order.
            pub fn write_json(&self, out: &mut String) {
                json::object(out, |o| {
                    o.key("type").str(self.tag());
                    match self {
                        $( row_pat!($($boxed)? $variant row { $at, $($field,)* }) => {
                            row_fields!($($boxed)? $variant row { $at, $($field,)* });
                            $at.write_json(o.key(stringify!($at)));
                            $( $field.write_json(o.key(stringify!($field))); )*
                        } )+
                    }
                });
            }

            /// Reads one JSONL line in exactly the form
            /// [`ObsEvent::write_json`] writes it — `type` first, then
            /// every field in declaration order under its own name, each
            /// in its type's JSON form, compact — matching each expected
            /// key in place (`json::InOrder`), so no map and no owned key
            /// is built. `None` for every other line. A non-finite `f64`
            /// was written as `0` and reads back as `0`.
            pub fn from_json_line(line: &str) -> Option<Self> {
                let mut obj = json::InOrder::new(line)?;
                // Struct-literal fields are read in the order written,
                // which is the row's order.
                let ev = match obj.str("type")? {
                    $( $tag => row_new!($($boxed)? $variant {
                        $at: Field::read_json(&obj.value(stringify!($at))?)?,
                        $( $field: Field::read_json(&obj.value(stringify!($field))?)?, )*
                    }), )+
                    _ => return None,
                };
                obj.finish()?;
                Some(ev)
            }

            /// Appends the binary payload in integer form `I`
            /// ([`crate::wire::WireFormat::encode`]): the kind byte, then
            /// every field in declaration order.
            pub(crate) fn encode<I: IntForm>(&self, out: &mut Vec<u8>) {
                let e = &mut Enc::new(out);
                e.u8(self.kind_index());
                match self {
                    $( row_pat!($($boxed)? $variant row { $at, $($field,)* }) => {
                        row_fields!($($boxed)? $variant row { $at, $($field,)* });
                        $at.put::<I>(e);
                        $( $field.put::<I>(e); )*
                    } )+
                }
            }

            /// Reads back one whole payload written by
            /// [`ObsEvent::encode`] in the same integer form
            /// ([`crate::wire::WireFormat::decode`]).
            pub(crate) fn decode<I: IntForm>(payload: &[u8]) -> Result<Self, DecodeError> {
                let mut d = Dec::new(payload);
                let ev = match d.u8()? {
                    $( $wire => row_new!($($boxed)? $variant {
                        $at: Field::get::<I>(&mut d)?,
                        $( $field: Field::get::<I>(&mut d)?, )*
                    }), )+
                    t => return Err(DecodeError::BadKind(t)),
                };
                d.finish()?;
                Ok(ev)
            }
        }

        // Wire tags index `KIND_TAGS` and the store's kind bitmap.
        const _: () = {
            let wire: [u8; ObsEvent::KIND_COUNT] = [$($wire),+];
            let mut i = 0;
            while i < wire.len() {
                assert!(wire[i] as usize == i, "obs_events! rows must carry dense, ordered wire tags");
                i += 1;
            }
        };
    };
}

impl ObsEvent {
    /// Looks up a kind index by its stable `type` tag (CLI filters).
    pub fn kind_index_of_tag(tag: &str) -> Option<u8> {
        Self::KIND_TAGS
            .iter()
            .position(|t| *t == tag)
            .map(|i| i as u8)
    }

    /// Stable `type` tag of the event's JSONL encoding.
    pub fn tag(&self) -> &'static str {
        Self::KIND_TAGS[usize::from(self.kind_index())]
    }

    /// The event's one-line JSON encoding.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        self.write_json(&mut s);
        s
    }
}

obs_events! {
    /// A host request entered the engine (`Engine::submit`).
    0 RequestSubmit "request_submit" tenant(vssd) {
        /// Arrival time the request was stamped with.
        at: SimTime,
        /// Engine-assigned request id.
        req: u64,
        /// Owning vSSD.
        vssd: u32,
        /// Read (`true`) or write.
        read: bool,
        /// Request length in bytes.
        bytes: u64,
    }
    /// The request's arrival was processed and its page ops were queued.
    1 RequestAdmit "request_admit" tenant(vssd) {
        /// Admission time.
        at: SimTime,
        /// Engine-assigned request id.
        req: u64,
        /// Owning vSSD.
        vssd: u32,
        /// Page operations the request fanned out into.
        pages: u32,
    }
    /// One of the request's page ops was issued to a chip.
    2 ChipIssue "chip_issue" tenant(vssd) {
        /// Issue time.
        at: SimTime,
        /// Engine-assigned request id.
        req: u64,
        /// Owning vSSD.
        vssd: u32,
        /// Flash channel the op was issued on.
        channel: u16,
        /// Chip behind that channel.
        chip: u16,
        /// Read (`true`) or program.
        read: bool,
    }
    /// The request's last page op finished.
    3 RequestComplete "request_complete" tenant(vssd) {
        /// Completion time.
        at: SimTime,
        /// Engine-assigned request id.
        req: u64,
        /// Owning vSSD.
        vssd: u32,
        /// Read (`true`) or write.
        read: bool,
        /// Request length in bytes.
        bytes: u64,
        /// Original arrival time (latency = `at - arrival`).
        arrival: SimTime,
        /// First time any of its ops touched hardware.
        service_start: SimTime,
    }
    /// A NAND-level occupancy span (device timing on one channel/chip).
    4 NandOp "nand_op" tenant(vssd) {
        /// When the op began occupying its first resource.
        start: SimTime,
        /// When it released its last resource.
        end: SimTime,
        /// vSSD the op was issued for.
        vssd: u32,
        /// Flash channel.
        channel: u16,
        /// Chip behind that channel.
        chip: u16,
        /// What the span occupied.
        kind: NandKind,
        /// Whether this was internal GC traffic.
        gc: bool,
        /// Bytes moved (0 for cell-only occupancy).
        bytes: u64,
    }
    /// A garbage-collection job started on `(channel, chip)`.
    5 GcStart "gc_start" tenant(vssd) {
        /// Start time.
        at: SimTime,
        /// Job id, or `None` for the synchronous emergency path.
        job: Option<u64>,
        /// vSSD owning the victim block's resources.
        vssd: u32,
        /// Victim channel.
        channel: u16,
        /// Victim chip.
        chip: u16,
        /// Live pages that must migrate.
        live_pages: u32,
        /// Whether this was an out-of-space emergency collection.
        emergency: bool,
    }
    /// A garbage-collection job finished (victim erased and released).
    6 GcEnd "gc_end" tenant(vssd) {
        /// Completion time.
        at: SimTime,
        /// Job id.
        job: u64,
        /// vSSD owning the victim block's resources.
        vssd: u32,
        /// Victim channel.
        channel: u16,
        /// Victim chip.
        chip: u16,
        /// Wall-to-wall busy time of the job.
        busy: SimDuration,
    }
    /// A ghost-superblock transition.
    7 GsbTransition "gsb" tenant(home) {
        /// Transition time.
        at: SimTime,
        /// gSB id.
        gsb: u64,
        /// Home vSSD (resource owner).
        home: u32,
        /// Harvester, when one is attached.
        harvester: Option<u32>,
        /// Which transition.
        kind: GsbKind,
        /// Channels the gSB spans.
        channels: u16,
    }
    /// Every runnable op on a channel was token-bucket blocked; a retry
    /// was scheduled.
    8 Throttle "throttle" tenant() {
        /// When the dispatcher gave up.
        at: SimTime,
        /// The starved channel.
        channel: u16,
        /// Earliest token-availability time (the retry time).
        until: SimTime,
    }
    /// A per-vSSD statistics window was frozen (`Engine::finish_window`).
    9 WindowFlush "window_flush" tenant(vssd) boxed {
        /// Window end time.
        at: SimTime,
        /// vSSD the window belongs to.
        vssd: u32,
        /// Average bandwidth over the window, bytes/s.
        avg_bandwidth: f64,
        /// Average operations per second.
        avg_iops: f64,
        /// P99 request latency.
        p99_latency: SimDuration,
        /// Fraction of requests violating the SLO.
        slo_violation_rate: f64,
        /// Fraction of the window with GC active.
        gc_busy_frac: f64,
        /// Bytes moved in the window.
        total_bytes: u64,
        /// Operations completed in the window.
        total_ops: u64,
    }
    /// A model checkpoint was saved, loaded or rolled back
    /// (`fleetio-model`). Timestamped in simulated time because autosaves
    /// ride the sim-time cadence of online fine-tuning.
    10 ModelLifecycle "model" tenant() {
        /// When the lifecycle action happened (sim time of the driving
        /// training loop; [`SimTime::ZERO`] for offline tooling).
        at: SimTime,
        /// Which action.
        kind: ModelKind,
        /// Registry tag of the checkpoint: `[a-z0-9_-]` when it comes
        /// from `fleetio-model`, but any string up to 4 096 bytes is
        /// legal here and is escaped in JSON.
        tag: String,
        /// Trainer update counter at the time of the action.
        update: u64,
    }
    /// A per-tenant SLO verdict for one decision window, emitted at the
    /// fleet's serial window merge.
    11 SloWindow "slo_window" tenant(tenant) boxed {
        /// Window end time on the tenant's resident shard.
        at: SimTime,
        /// Fleet-wide tenant index.
        tenant: u32,
        /// Window index (0-based).
        window: u32,
        /// Operations completed this window.
        ops: u64,
        /// Exact-bucket p95 latency (zero when idle).
        p95: SimDuration,
        /// Exact-bucket p99 latency (zero when idle).
        p99: SimDuration,
        /// Average throughput over the window, bytes/s.
        throughput: f64,
        /// p95 within target.
        p95_ok: bool,
        /// p99 within target.
        p99_ok: bool,
        /// Throughput at or above the floor.
        throughput_ok: bool,
        /// Rolling violation fraction after this window (burn rate).
        burn: f64,
    }
    /// A tenant migration executed at a window boundary, with the
    /// hotspot-rule cause and the utilizations the planner saw.
    12 FleetMigration "fleet_migration" tenant(tenant) boxed {
        /// Execution time (the boundary entering the next window).
        at: SimTime,
        /// Window whose statistics planned the move.
        window: u32,
        /// The migrated tenant.
        tenant: u32,
        /// Source shard index.
        from_shard: u32,
        /// Source slot within the shard.
        from_slot: u32,
        /// Destination shard index.
        to_shard: u32,
        /// Destination slot within the shard.
        to_slot: u32,
        /// Which hotspot rule was the binding constraint.
        cause: MigrationCause,
        /// Fleet mean utilization when the move was planned.
        mean_util: f64,
        /// Source-shard utilization before the move.
        src_util: f64,
        /// Destination-shard utilization before the move.
        dst_util: f64,
        /// Projected source utilization after the move.
        src_util_after: f64,
        /// Projected destination utilization after the move.
        dst_util_after: f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples::sample_events;

    #[test]
    fn submit_encodes_all_fields() {
        let ev = ObsEvent::RequestSubmit {
            at: SimTime::from_micros(3),
            req: 7,
            vssd: 1,
            read: true,
            bytes: 4096,
        };
        assert_eq!(
            ev.to_json(),
            "{\"type\":\"request_submit\",\"at\":3000,\"req\":7,\"vssd\":1,\
             \"read\":true,\"bytes\":4096}"
        );
        assert_eq!(ev.at(), SimTime::from_micros(3));
    }

    /// `ev` with every non-finite `f64` as the `0` JSON writes for it.
    fn finite(mut ev: ObsEvent) -> ObsEvent {
        let floats = match &mut ev {
            ObsEvent::WindowFlush(w) => vec![
                &mut w.avg_bandwidth,
                &mut w.avg_iops,
                &mut w.slo_violation_rate,
                &mut w.gc_busy_frac,
            ],
            ObsEvent::SloWindow(s) => vec![&mut s.throughput, &mut s.burn],
            ObsEvent::FleetMigration(m) => vec![
                &mut m.mean_util,
                &mut m.src_util,
                &mut m.dst_util,
                &mut m.src_util_after,
                &mut m.dst_util_after,
            ],
            _ => Vec::new(),
        };
        for x in floats.into_iter().filter(|x| !x.is_finite()) {
            *x = 0.0;
        }
        ev
    }

    #[test]
    fn every_event_parses_as_json() {
        for ev in sample_events() {
            let line = ev.to_json();
            let v = json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            let obj = v.as_object().expect("event encodes as a JSON object");
            assert_eq!(
                obj.get("type").and_then(|t| t.as_str()),
                Some(ev.tag()),
                "{line}"
            );
            let idx = usize::from(ev.kind_index());
            assert_eq!(ObsEvent::KIND_TAGS[idx], ev.tag());
            assert_eq!(ObsEvent::kind_index_of_tag(ev.tag()), Some(idx as u8));
            let back = ObsEvent::from_json_line(&line).unwrap_or_else(|| panic!("{line}"));
            assert_eq!(back, finite(ev), "{line}");
        }
    }

    /// A line is an event only when it is exactly one row's shape, in the
    /// writer's form.
    #[test]
    fn from_json_line_refuses_what_is_not_an_event() {
        let throttle = r#""type":"throttle","at":5,"channel":3"#;
        for line in [
            // Not an object, or no `type`.
            "[1]".to_string(),
            "{}".to_string(),
            // An unknown `type`.
            r#"{"type":"bogus","at":5}"#.to_string(),
            // A missing or an extra field.
            format!("{{{throttle}}}"),
            format!("{{{throttle},\"until\":9,\"x\":1}}"),
            // A mistyped field, or an integer out of its type's range or
            // at 2^53.
            format!("{{{throttle},\"until\":\"9\"}}"),
            format!("{{{throttle},\"until\":-1}}"),
            format!("{{{throttle},\"until\":1.5}}"),
            format!("{{{throttle},\"until\":9007199254740992}}"),
            r#"{"type":"throttle","at":5,"channel":70000,"until":9}"#.to_string(),
            r#"{"type":"model","at":0,"kind":"eaten","tag":"t","update":1}"#.to_string(),
            // The event's keys and values in another form: another order,
            // spacing, an escaped or a repeated key.
            format!("{{\"until\":7,{throttle}}}"),
            format!("{{ {throttle},\"until\":7}}"),
            format!("{{{throttle},\"until\": 7}}"),
            format!("{{{throttle},\"until\": 7 }}"),
            format!("{{{throttle},\"unt\\u0069l\":7}}"),
            format!("{{{throttle},\"until\":9,\"until\":7}}"),
        ] {
            json::parse(&line).expect("JSON");
            assert_eq!(ObsEvent::from_json_line(&line), None, "{line}");
        }
        let want = ObsEvent::Throttle {
            at: SimTime::from_nanos(5),
            channel: 3,
            until: SimTime::from_nanos(7),
        };
        let written = format!("{{{throttle},\"until\":7}}");
        assert_eq!(ObsEvent::from_json_line(&written), Some(want));
        assert_eq!(ObsEvent::from_json_line(&format!("{written} ")), None);
        let max = ObsEvent::from_json_line(&format!("{{{throttle},\"until\":9007199254740991}}"))
            .expect("2^53 - 1");
        assert_eq!(
            max.to_json(),
            format!("{{{throttle},\"until\":9007199254740991}}")
        );
    }

    /// `ObsEvent` is publicly constructible and the wire accepts any
    /// UTF-8, so a string field can hold what JSON must escape.
    #[test]
    fn hostile_string_fields_survive_json() {
        let tag = "a\"b\\c\nd\u{1}".to_string();
        let ev = ObsEvent::ModelLifecycle {
            at: SimTime::ZERO,
            kind: ModelKind::Saved,
            tag: tag.clone(),
            update: 1,
        };
        let line = ev.to_json();
        assert!(!line.contains('\n'), "{line}");
        let v = json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        let obj = v.as_object().expect("object");
        assert_eq!(obj.get("tag").and_then(|t| t.as_str()), Some(tag.as_str()));
        assert_eq!(obj.get("update").and_then(|u| u.as_u64()), Some(1));
        assert_eq!(ObsEvent::from_json_line(&line), Some(ev), "{line}");
    }

    /// A recorder or a query result holds one `ObsEvent` per event, so a
    /// wide row would pad every event to its width.
    #[test]
    fn event_is_48_bytes() {
        let size = std::mem::size_of::<ObsEvent>();
        assert!(
            size <= 48,
            "ObsEvent is {size} B: a row whose fields take more than 48 B must be declared `boxed`"
        );
    }

    #[test]
    fn tenant_names_the_attributed_vssd() {
        for ev in sample_events() {
            let want = match ev.tag() {
                "throttle" | "model" => None,
                "gc_start" | "gc_end" => Some(0),
                "nand_op" => Some(2),
                "gsb" => Some(3),
                "slo_window" | "fleet_migration" => Some(17),
                _ => Some(1),
            };
            assert_eq!(ev.tenant(), want, "{}", ev.tag());
        }
    }
}
