//! # msync-trace — first-party tracing and metrics
//!
//! The paper's evaluation is stated in bytes per direction per phase,
//! and the workspace accounts those exactly (`TrafficStats`). This
//! crate adds the *time and behavior* axis — per-round latency,
//! retransmit timelines, pipeline window occupancy, fault timelines —
//! without taking any dependency: the build is hermetically offline,
//! so `tracing`/`metrics` from crates.io are not options.
//!
//! Four pieces, all deliberately small:
//!
//! * [`clock`] — a [`Clock`] trait with a monotonic [`SystemClock`] and
//!   a deterministic [`ManualClock`] for golden tests. This crate is
//!   the **only** place in the workspace allowed to touch
//!   `std::time::Instant` (enforced by the `clock-discipline` xtask
//!   rule); everything else reads time through a [`Recorder`].
//! * [`event`] — the typed span-event taxonomy ([`EventKind`]): session
//!   start/end, map rounds, verification batches, delta phases, frame
//!   sends/receives with phase attribution, retransmits, backoffs,
//!   injected faults, handshakes, pipeline window advances.
//! * [`hist`] — fixed-bucket log2 [`Histogram`]s (frame RTT, round
//!   duration, session duration, bytes per round). Log2 buckets cover
//!   nine decades in 64 counters with zero allocation, which is the
//!   right trade for latencies spanning loopback to dial-up.
//! * Two sinks: a schema-versioned JSONL [`journal`] (one
//!   self-describing event per line) and a [`MetricsSnapshot`] of
//!   process-wide counters/histograms rendered as Prometheus-style
//!   text for `msync serve --metrics-out`.
//!
//! The live-introspection layer builds on the same event stream:
//! [`status`] derives per-session live state ([`StatusBoard`]) from
//! events already recorded, [`rates`] turns periodic snapshot samples
//! into windowed bytes/sec-style gauges, and [`chrome`] re-renders a
//! journal as Chrome `trace_event` JSON for flamegraph viewers.
//!
//! The [`Recorder`] is the only handle the instrumented crates see. A
//! disabled recorder (`Recorder::off()`, the `Default`) is a `None`
//! inside and every call is a cheap no-op, so untraced runs pay
//! nothing and stay byte-identical to pre-tracing behavior.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod chrome;
pub mod clock;
pub mod event;
pub mod hist;
pub mod journal;
pub mod metrics;
pub mod rates;
pub mod recorder;
pub mod status;

pub use chrome::render_chrome_trace;
pub use clock::{Clock, ManualClock, SystemClock};
pub use event::{DirTag, EventKind, FaultKind, PhaseTag, TraceEvent};
pub use hist::{HistKind, Histogram};
pub use journal::{
    parse_flat_object, parse_line, render_journal, render_line, FieldValue, JournalLine,
    SCHEMA_VERSION,
};
pub use metrics::MetricsSnapshot;
pub use rates::{RateWindows, WindowRates};
pub use recorder::Recorder;
pub use status::{render_sessions, SessionStatus, StatusBoard, StatusHandle};
