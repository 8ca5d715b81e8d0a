//! The JSONL journal sink: schema v6.
//!
//! One event per line, each line a flat JSON object that is fully
//! self-describing: `{"v":3,"t_us":<clock>,"kind":"<token>",...}` with
//! the kind-specific fields flattened alongside. Field values are only
//! unsigned integers, booleans, and fixed enum tokens — never free
//! text — so the first-party parser below is complete for everything
//! the renderer can emit, and `scripts/ci.sh` can verify journals
//! without `jq`.
//!
//! Schema stability contract: any change to field names, field order,
//! kind tokens, or value types bumps [`SCHEMA_VERSION`].

use crate::event::{EventKind, TraceEvent};
use std::fmt::Write as _;

/// Version stamped into every line's `"v"` field. v2 added the resume
/// kind tokens (`resume_offer`/`resume_accept`/`resume_reject`/
/// `cache_hit`); v3 added the server hash-cache tokens
/// (`hash_cache_hit`/`hash_cache_miss`); v4 added the watchdog token
/// (`slow_session`); v5 added the sibling-decomposition token
/// (`hash_cache_derived`); v6 added `in_flight_bytes` to
/// `window_advance`.
pub const SCHEMA_VERSION: u32 = 6;

/// Render one event as its JSONL line (no trailing newline).
#[must_use]
pub fn render_line(ev: &TraceEvent) -> String {
    let mut s = String::with_capacity(96);
    let _ =
        write!(s, "{{\"v\":{SCHEMA_VERSION},\"t_us\":{},\"kind\":\"{}\"", ev.t_us, ev.kind.name());
    match ev.kind {
        EventKind::SessionStart { file_id } => {
            let _ = write!(s, ",\"file_id\":{file_id}");
        }
        EventKind::SessionEnd { file_id, ok, fell_back } => {
            let _ = write!(s, ",\"file_id\":{file_id},\"ok\":{ok},\"fell_back\":{fell_back}");
        }
        EventKind::MapRound { file_id, block_size, items, candidates } => {
            let _ = write!(
                s,
                ",\"file_id\":{file_id},\"block_size\":{block_size},\"items\":{items},\"candidates\":{candidates}"
            );
        }
        EventKind::VerifyBatch { file_id, candidates, confirmed } => {
            let _ = write!(
                s,
                ",\"file_id\":{file_id},\"candidates\":{candidates},\"confirmed\":{confirmed}"
            );
        }
        EventKind::DeltaPhase { file_id, delta_bytes } => {
            let _ = write!(s, ",\"file_id\":{file_id},\"delta_bytes\":{delta_bytes}");
        }
        EventKind::FrameSend { dir, phase, bytes } | EventKind::FrameRecv { dir, phase, bytes } => {
            let _ = write!(
                s,
                ",\"dir\":\"{}\",\"phase\":\"{}\",\"bytes\":{bytes}",
                dir.as_str(),
                phase.as_str()
            );
        }
        EventKind::Retransmit { frames } => {
            let _ = write!(s, ",\"frames\":{frames}");
        }
        EventKind::Backoff { attempt, timeout_us } => {
            let _ = write!(s, ",\"attempt\":{attempt},\"timeout_us\":{timeout_us}");
        }
        EventKind::FaultInjected { dir, kind, seq } => {
            let _ = write!(
                s,
                ",\"dir\":\"{}\",\"fault\":\"{}\",\"seq\":{seq}",
                dir.as_str(),
                kind.as_str()
            );
        }
        EventKind::Handshake { ok } => {
            let _ = write!(s, ",\"ok\":{ok}");
        }
        EventKind::WindowAdvance { in_flight, in_flight_bytes, admitted, done } => {
            let _ = write!(
                s,
                ",\"in_flight\":{in_flight},\"in_flight_bytes\":{in_flight_bytes},\
                 \"admitted\":{admitted},\"done\":{done}"
            );
        }
        EventKind::ResumeOffer { files } => {
            let _ = write!(s, ",\"files\":{files}");
        }
        EventKind::ResumeAccept { accepted, declined } => {
            let _ = write!(s, ",\"accepted\":{accepted},\"declined\":{declined}");
        }
        EventKind::ResumeReject { reason } => {
            let _ = write!(s, ",\"reason\":\"{}\"", reason.as_str());
        }
        EventKind::CacheHit { file_id } => {
            let _ = write!(s, ",\"file_id\":{file_id}");
        }
        EventKind::HashCacheHit { bytes }
        | EventKind::HashCacheMiss { bytes }
        | EventKind::HashCacheDerived { bytes } => {
            let _ = write!(s, ",\"bytes\":{bytes}");
        }
        EventKind::SlowSession { phase, waited_us } => {
            let _ = write!(s, ",\"phase\":\"{}\",\"waited_us\":{waited_us}", phase.as_str());
        }
    }
    s.push('}');
    s
}

/// Render a whole journal: one line per event, trailing newline.
#[must_use]
pub fn render_journal(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&render_line(ev));
        out.push('\n');
    }
    out
}

/// A parsed journal field value. The schema only ever emits these
/// three shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    /// An unsigned integer.
    U64(u64),
    /// A boolean.
    Bool(bool),
    /// A fixed enum token (dir, phase, kind, fault).
    Str(String),
}

/// One parsed journal line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalLine {
    /// Schema version (`"v"`).
    pub v: u64,
    /// Timestamp (`"t_us"`).
    pub t_us: u64,
    /// Event kind token (`"kind"`).
    pub kind: String,
    /// Remaining fields, in line order.
    pub fields: Vec<(String, FieldValue)>,
}

impl JournalLine {
    /// Look up an integer field by name.
    #[must_use]
    pub fn u64_field(&self, name: &str) -> Option<u64> {
        self.fields.iter().find(|(k, _)| k == name).and_then(|(_, v)| match v {
            FieldValue::U64(n) => Some(*n),
            _ => None,
        })
    }

    /// Look up a string field by name.
    #[must_use]
    pub fn str_field(&self, name: &str) -> Option<&str> {
        self.fields.iter().find(|(k, _)| k == name).and_then(|(_, v)| match v {
            FieldValue::Str(s) => Some(s.as_str()),
            _ => None,
        })
    }

    /// Look up a boolean field by name.
    #[must_use]
    pub fn bool_field(&self, name: &str) -> Option<bool> {
        self.fields.iter().find(|(k, _)| k == name).and_then(|(_, v)| match v {
            FieldValue::Bool(b) => Some(*b),
            _ => None,
        })
    }
}

/// Parse one flat JSON object into its `(key, value)` fields, in line
/// order. Accepts exactly the subset the journal renderer emits —
/// string/integer/boolean values, no nesting, no floats, no escapes —
/// which also makes it the shared line parser for the other JSONL
/// state files in the workspace (metadata cache, checkpoints).
///
/// # Errors
/// A human-readable description of the first malformation found.
pub fn parse_flat_object(line: &str) -> Result<Vec<(String, FieldValue)>, String> {
    let mut p = Parser { bytes: line.trim().as_bytes(), pos: 0 };
    p.expect(b'{')?;
    let mut fields = Vec::new();
    loop {
        let key = p.string()?;
        p.expect(b':')?;
        let value = p.value()?;
        fields.push((key, value));
        match p.next_byte()? {
            b',' => continue,
            b'}' => break,
            other => return Err(format!("expected `,` or `}}`, found `{}`", other as char)),
        }
    }
    if p.pos != p.bytes.len() {
        return Err("trailing bytes after the closing brace".to_owned());
    }
    Ok(fields)
}

/// Parse one journal line. Accepts exactly the flat-object subset of
/// JSON the renderer emits; anything else (nesting, floats, escapes,
/// missing `v`/`t_us`/`kind`) is an error.
///
/// # Errors
/// A human-readable description of the first malformation found.
pub fn parse_line(line: &str) -> Result<JournalLine, String> {
    let parsed = parse_flat_object(line)?;
    let mut v: Option<u64> = None;
    let mut t_us: Option<u64> = None;
    let mut kind: Option<String> = None;
    let mut fields = Vec::new();
    for (key, value) in parsed {
        match (key.as_str(), &value) {
            ("v", FieldValue::U64(n)) => v = Some(*n),
            ("t_us", FieldValue::U64(n)) => t_us = Some(*n),
            ("kind", FieldValue::Str(s)) => kind = Some(s.clone()),
            ("v" | "t_us" | "kind", _) => {
                return Err(format!("field `{key}` has the wrong type"));
            }
            _ => fields.push((key, value)),
        }
    }
    Ok(JournalLine {
        v: v.ok_or("missing `v` field")?,
        t_us: t_us.ok_or("missing `t_us` field")?,
        kind: kind.ok_or("missing `kind` field")?,
        fields,
    })
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn next_byte(&mut self) -> Result<u8, String> {
        let b = self.bytes.get(self.pos).copied().ok_or("unexpected end of line")?;
        self.pos += 1;
        Ok(b)
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        let got = self.next_byte()?;
        if got == want {
            Ok(())
        } else {
            Err(format!("expected `{}`, found `{}`", want as char, got as char))
        }
    }

    /// A `"token"` string; escapes are out of schema and rejected.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        loop {
            match self.next_byte()? {
                b'"' => {
                    return Ok(
                        String::from_utf8_lossy(&self.bytes[start..self.pos - 1]).into_owned()
                    )
                }
                b'\\' => return Err("escape sequences are not in the journal schema".to_owned()),
                _ => {}
            }
        }
    }

    fn value(&mut self) -> Result<FieldValue, String> {
        match self.bytes.get(self.pos).copied().ok_or("unexpected end of line")? {
            b'"' => Ok(FieldValue::Str(self.string()?)),
            b't' => self.literal(b"true").map(|()| FieldValue::Bool(true)),
            b'f' => self.literal(b"false").map(|()| FieldValue::Bool(false)),
            b'0'..=b'9' => {
                let start = self.pos;
                while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "non-UTF-8 number".to_owned())?;
                text.parse::<u64>()
                    .map(FieldValue::U64)
                    .map_err(|e| format!("bad integer `{text}`: {e}"))
            }
            other => Err(format!("unexpected value start `{}`", other as char)),
        }
    }

    fn literal(&mut self, word: &[u8]) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("expected `{}`", String::from_utf8_lossy(word)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DirTag, FaultKind, PhaseTag, ResumeRejectTag};

    #[test]
    fn every_kind_roundtrips_through_the_parser() {
        let events = [
            EventKind::SessionStart { file_id: 3 },
            EventKind::SessionEnd { file_id: 3, ok: true, fell_back: false },
            EventKind::MapRound { file_id: 0, block_size: 32768, items: 9, candidates: 4 },
            EventKind::VerifyBatch { file_id: 0, candidates: 4, confirmed: 4 },
            EventKind::DeltaPhase { file_id: 0, delta_bytes: 120 },
            EventKind::FrameSend { dir: DirTag::C2s, phase: PhaseTag::Map, bytes: 105 },
            EventKind::FrameRecv { dir: DirTag::S2c, phase: PhaseTag::Delta, bytes: 33 },
            EventKind::Retransmit { frames: 2 },
            EventKind::Backoff { attempt: 1, timeout_us: 500_000 },
            EventKind::FaultInjected { dir: DirTag::S2c, kind: FaultKind::Corrupt, seq: 17 },
            EventKind::Handshake { ok: false },
            EventKind::WindowAdvance {
                in_flight: 32,
                in_flight_bytes: 65_536,
                admitted: 40,
                done: 8,
            },
            EventKind::ResumeOffer { files: 12 },
            EventKind::ResumeAccept { accepted: 10, declined: 2 },
            EventKind::ResumeReject { reason: ResumeRejectTag::ConfigMismatch },
            EventKind::CacheHit { file_id: 7 },
            EventKind::HashCacheHit { bytes: 16384 },
            EventKind::HashCacheMiss { bytes: 512 },
            EventKind::HashCacheDerived { bytes: 2048 },
            EventKind::SlowSession { phase: PhaseTag::Delta, waited_us: 2_000_000 },
        ];
        for (i, kind) in events.into_iter().enumerate() {
            let ev = TraceEvent { t_us: i as u64 * 10, kind };
            let line = render_line(&ev);
            let parsed = parse_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(parsed.v, u64::from(SCHEMA_VERSION), "{line}");
            assert_eq!(parsed.t_us, ev.t_us, "{line}");
            assert_eq!(parsed.kind, kind.name(), "{line}");
        }
    }

    #[test]
    fn field_accessors_find_values() {
        let ev = TraceEvent {
            t_us: 5,
            kind: EventKind::FaultInjected { dir: DirTag::C2s, kind: FaultKind::Drop, seq: 9 },
        };
        let parsed = parse_line(&render_line(&ev)).unwrap();
        assert_eq!(parsed.str_field("dir"), Some("c2s"));
        assert_eq!(parsed.str_field("fault"), Some("drop"));
        assert_eq!(parsed.u64_field("seq"), Some(9));
        assert_eq!(parsed.bool_field("seq"), None);
        assert_eq!(parsed.u64_field("missing"), None);
    }

    #[test]
    fn malformed_lines_are_rejected_with_reasons() {
        for bad in [
            "",
            "{}",
            "not json",
            "{\"v\":1,\"t_us\":2}",                         // missing kind
            "{\"t_us\":2,\"kind\":\"handshake\"}",          // missing v
            "{\"v\":1,\"t_us\":2,\"kind\":\"x\"} trailing", // trailing bytes
            "{\"v\":\"1\",\"t_us\":2,\"kind\":\"x\"}",      // v wrong type
            "{\"v\":1,\"t_us\":2,\"kind\":\"x\",\"s\":\"a\\\"b\"}", // escape
            "{\"v\":1,\"t_us\":2,\"kind\":\"x\",\"n\":-3}", // negative
            "{\"v\":1,\"t_us\":2,\"kind\":\"x\",\"o\":{}}", // nesting
        ] {
            assert!(parse_line(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn journal_is_one_line_per_event() {
        let evs = [
            TraceEvent { t_us: 0, kind: EventKind::SessionStart { file_id: 0 } },
            TraceEvent {
                t_us: 1,
                kind: EventKind::SessionEnd { file_id: 0, ok: true, fell_back: false },
            },
        ];
        let text = render_journal(&evs);
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
        for line in text.lines() {
            parse_line(line).unwrap();
        }
    }
}
