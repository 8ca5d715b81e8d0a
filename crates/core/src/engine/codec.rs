//! Every byte format above the ARQ frame, and the wire schedule they
//! serve.
//!
//! The paper's observation (§1) is that roundtrip latencies need not be
//! paid per file "since many files can be processed simultaneously".
//! The schedule realizes that: each ARQ exchange carries **one batch
//! frame per direction** holding the current round message of every
//! file in the client's window, and the window is a byte budget
//! ([`WINDOW_BUDGET_BYTES`](crate::WINDOW_BUDGET_BYTES)), not a file
//! count. A collection that fits it runs every file's round *k* in the
//! same exchange and pays the roundtrips of its longest session, however
//! many files it has; a larger one pays that once per budget's worth of
//! content.
//!
//! 1. Client opens with one empty `Setup` part.
//! 2. Server replies with its roster ([`encode_roster`]): every file in
//!    sorted-name order, front-coded against the previous name, with its
//!    length and the first [`weak_fp_bytes`] of its 16-byte fingerprint,
//!    about log2(files) bits plus an 8-bit margin. A file's position in
//!    the roster is the file id every later batch uses.
//! 3. The client settles what it can at once, provisionally
//!    ([`settle`]): a local copy of the served length whose fingerprint
//!    starts with the roster's weak bytes is probably unchanged; a local
//!    name missing from the roster is deleted. Only the other files
//!    enter the window.
//! 4. Repeat until the client has no in-flight files: the client packs
//!    one message per in-flight file into a batch frame
//!    ([`encode_batch`]) — a file's first message is just its local
//!    length — and the server answers each file's message in the mirror
//!    batch. A session's first reply leads with the rest of the file's
//!    fingerprint ([`join_remainder`]), so a changed file still gets all
//!    16 bytes to check its reconstruction against. Files finish at their
//!    own pace; freed budget admits the next changed files in roster
//!    order.
//! 5. The group check (the paper's technique (b) applied to the roster,
//!    [`GroupCheck`]): the client's first batch also carries a bitmap of
//!    the provisionally settled files and one MD5 over their full local
//!    fingerprints, and the server's first reply one verdict. A pass
//!    completes them all as unchanged; a fail carries the rest of each
//!    one's fingerprint, and the client opens a session for every file
//!    that then differs. No file is complete before its verdict. With
//!    nothing provisional there is no group; with nothing else to open
//!    the verdict costs one roundtrip of its own.
//! 6. The client hangs up; the server treats the peer-gone condition as
//!    the normal end of service and lingers briefly for stragglers.
//!
//! The fingerprints cross once, server to client, as in the paper's "up
//! front" filter. Renames are not detected: a renamed file costs a
//! create plus a delete.
//!
//! Every byte is charged where it crosses: a batch frame's bytes go to
//! the phases of the parts inside it, and its framing to the largest of
//! those shares ([`split_of`]). The group check and its verdict are
//! setup; a fingerprint remainder is charged with the session part it
//! heads.

use std::collections::HashMap;

use msync_hash::{file_fingerprint, BitReader, BitWriter, Fingerprint, Md5};
use msync_protocol::{frame_wire_size, FrameBuf, Phase, PhaseSplit};

use super::arq::encode_arq_frame;
use super::SyncError;
use crate::collection::FileRef;

/// One logical message part with its accounting phase. The payload is
/// a refcounted [`FrameBuf`]: freshly composed parts own their bytes,
/// parts parsed from a received frame are zero-copy views of it.
#[derive(Debug)]
pub(crate) struct Part {
    pub(crate) phase: Phase,
    pub(crate) payload: FrameBuf,
}

/// Parts per message are small (bitmap + batch + round hashes); a
/// larger index in an ARQ header, or count in a batch, is corruption
/// that slipped past the CRC, not a real frame.
pub(crate) const MAX_PARTS_PER_MESSAGE: usize = 256;

/// Upper bound on files in one collection roster. A count above this in
/// a decoded roster or batch is treated as a desync, not an allocation
/// request.
const MAX_COLLECTION_FILES: u64 = 1 << 20;

/// Upper bound on a single file name in a roster.
const MAX_NAME_BYTES: u64 = 4096;

/// Decoded name bytes a roster may spell per byte of its payload.
/// Front coding lets an entry of about 10 wire bytes (a shared prefix of
/// 4 094 bytes, a two-byte suffix, the length, the weak fingerprint)
/// stand for a name of [`MAX_NAME_BYTES`], so with no bound a 10 MB
/// roster of 2^20 such entries decodes into 4 GiB of names. The corpora
/// here decode at 1.4 name bytes per payload byte; a deep real tree, where
/// a 165-byte path differs from the one before it in a six-byte suffix,
/// at about 12. 32 leaves room for paths three times as deep, and holds a
/// lying server to 32 bytes of names for every byte it sent.
const MAX_NAME_EXPANSION: u64 = 32;

/// Margin, in bits, that the roster's weak fingerprints keep above
/// log2 of the roster size: a changed file of unchanged length passes
/// for unchanged with probability 2^-(log2 n + margin), so a roster's
/// group check fails in about one sync of 2^margin.
const WEAK_MARGIN_BITS: u32 = 8;

/// Bytes of the group hash that confirms the provisionally settled
/// files: one MD5.
const GROUP_DIGEST_BYTES: usize = 16;

/// The part header byte: bit 0 = more parts follow in this logical
/// message, bits 1..3 = phase tag.
pub(crate) fn part_header(phase: Phase, more: bool) -> u8 {
    let tag = match phase {
        Phase::Setup => 0u8,
        Phase::Map => 1,
        Phase::Delta => 2,
        Phase::Resume => 3,
    };
    (tag << 1) | u8::from(more)
}

/// Inverse of [`part_header`]; `None` for an unknown phase tag.
pub(crate) fn parse_part_header(b: u8) -> Option<(Phase, bool)> {
    let phase = match b >> 1 {
        0 => Phase::Setup,
        1 => Phase::Map,
        2 => Phase::Delta,
        3 => Phase::Resume,
        _ => return None,
    };
    Some((phase, b & 1 == 1))
}

#[cfg(test)]
thread_local! {
    /// Overrides [`weak_fp_bytes`] for every roster this thread
    /// encodes or decodes: 0 makes every local copy of the served
    /// length settle provisionally, so a changed one fails the group
    /// check and is salvaged.
    pub(crate) static FORCED_WEAK_BYTES: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

/// Fingerprint bytes a roster of `files` entries carries per file:
/// ceil(log2 files) + [`WEAK_MARGIN_BITS`] bits, rounded up to whole
/// bytes — 2 at 200 files, 3 at 10 000. A session's first reply carries
/// the other bytes.
fn weak_fp_bytes(files: usize) -> usize {
    #[cfg(test)]
    if let Some(forced) = FORCED_WEAK_BYTES.with(std::cell::Cell::get) {
        return forced;
    }
    let bits = usize::BITS - files.saturating_sub(1).leading_zeros() + WEAK_MARGIN_BITS;
    // At most 9 bytes for any roster size: never a whole fingerprint.
    usize::try_from(bits.div_ceil(8)).unwrap_or(Fingerprint::WIRE_LEN)
}

/// One served file as the roster lists it: everything a client needs to
/// settle an unchanged file provisionally, and to size a changed one,
/// before any session opens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RosterEntry {
    pub(crate) name: String,
    pub(crate) len: u64,
    /// The fingerprint's first `weak` bytes; the rest are zero until
    /// the session's first reply or a salvage brings them.
    pub(crate) fp: Fingerprint,
}

/// A decoded roster, and the fingerprint bytes it carried per file.
#[derive(Debug)]
pub(crate) struct Roster {
    pub(crate) files: Vec<RosterEntry>,
    pub(crate) weak: usize,
}

/// Roster payload: `varint n`, then per file in strictly increasing name
/// order the name front-coded against the previous one (`varint shared`
/// prefix bytes, `varint suffix_len`, the suffix bytes), `varint len`
/// and the first [`weak_fp_bytes`]`(n)` fingerprint bytes. Returns the
/// payload and that width.
pub(crate) fn encode_roster(files: &[(&str, u64, Fingerprint)]) -> (Vec<u8>, usize) {
    let weak = weak_fp_bytes(files.len());
    let mut w = BitWriter::new();
    w.write_varint(files.len() as u64);
    let mut prev: &[u8] = &[];
    for &(name, len, fp) in files {
        let name = name.as_bytes();
        let shared = prev.iter().zip(name).take_while(|(a, b)| a == b).count();
        w.write_varint(shared as u64);
        w.write_varint((name.len() - shared) as u64);
        w.write_bytes(&name[shared..]);
        w.write_varint(len);
        w.write_bytes(&fp.0[..weak]);
        prev = name;
    }
    (w.into_bytes(), weak)
}

/// Decode a roster. A lying server gets a typed [`SyncError::Desync`]
/// for every way it could make one name stand for two files or size a
/// file no stream can carry: names out of order or repeated, a prefix
/// longer than the name it extends, a length above
/// [`MAX_STREAM_LEN`](msync_compress::MAX_STREAM_LEN), a truncated
/// fingerprint, a count above the collection cap. Names that would
/// decode past [`MAX_NAME_EXPANSION`] times the payload are refused too,
/// before they are built.
pub(crate) fn decode_roster(payload: &[u8]) -> Result<Roster, SyncError> {
    let mut name_budget = (payload.len() as u64).saturating_mul(MAX_NAME_EXPANSION);
    let mut r = BitReader::new(payload);
    let count = r.read_varint().map_err(|_| SyncError::Desync("roster count"))?;
    if count > MAX_COLLECTION_FILES {
        return Err(SyncError::Desync("roster count exceeds cap"));
    }
    let count = usize::try_from(count).map_err(|_| SyncError::Desync("roster count"))?;
    let weak = weak_fp_bytes(count);
    let mut files: Vec<RosterEntry> = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let prev = files.last().map_or(&[][..], |f| f.name.as_bytes());
        let shared = r.read_varint().map_err(|_| SyncError::Desync("roster name prefix"))?;
        let shared = usize::try_from(shared)
            .ok()
            .filter(|&shared| shared <= prev.len())
            .ok_or(SyncError::Desync("roster prefix longer than the previous name"))?;
        let suffix = r.read_varint().map_err(|_| SyncError::Desync("roster name len"))?;
        if suffix > MAX_NAME_BYTES - shared as u64 {
            return Err(SyncError::Desync("roster name too long"));
        }
        name_budget = name_budget
            .checked_sub(shared as u64 + suffix)
            .ok_or(SyncError::Desync("roster names exceed the payload bound"))?;
        let suffix = usize::try_from(suffix).map_err(|_| SyncError::Desync("roster name len"))?;
        let mut name = prev[..shared].to_vec();
        name.extend(r.read_bytes(suffix).map_err(|_| SyncError::Desync("roster name truncated"))?);
        if !files.is_empty() && name.as_slice() <= prev {
            return Err(SyncError::Desync("roster names not strictly increasing"));
        }
        let len = r.read_varint().map_err(|_| SyncError::Desync("roster file len"))?;
        // No stream could deliver a longer file, and the map rounds
        // would enumerate items over all of it.
        if len > msync_compress::MAX_STREAM_LEN {
            return Err(SyncError::Desync("roster file len beyond the stream limit"));
        }
        let mut fp = Fingerprint([0; Fingerprint::WIRE_LEN]);
        let weak_bytes =
            r.read_bytes(weak).map_err(|_| SyncError::Desync("roster fingerprint truncated"))?;
        fp.0[..weak].copy_from_slice(&weak_bytes);
        let name =
            String::from_utf8(name).map_err(|_| SyncError::Desync("roster name not UTF-8"))?;
        files.push(RosterEntry { name, len, fp });
    }
    Ok(Roster { files, weak })
}

/// `payload` headed by `fp`'s remainder: the bytes past the roster's
/// first `weak`. A session's first reply carries it.
pub(crate) fn join_remainder(fp: &Fingerprint, weak: usize, payload: &[u8]) -> FrameBuf {
    [&fp.0[weak..], payload].concat().into()
}

/// The inverse of [`join_remainder`]: complete `fp` from the remainder
/// at the head of `payload` and return what follows it, or `None` when
/// `payload` is shorter than a remainder.
pub(crate) fn split_remainder(
    fp: &mut Fingerprint,
    weak: usize,
    payload: &FrameBuf,
) -> Option<FrameBuf> {
    let rest = Fingerprint::WIRE_LEN - weak;
    fp.0[weak..].copy_from_slice(payload.get(..rest)?);
    Some(payload.slice(rest, payload.len()))
}

/// The client's provisional settle. `files` pairs each roster entry's
/// fingerprint, in roster order, with the full fingerprint of the
/// client's copy of the same length (`None` without one); a copy that
/// matches the roster's first `weak` bytes settles. Returns the settled
/// files, ascending, with their local fingerprints.
pub(crate) fn settle<'f>(
    files: impl IntoIterator<Item = (&'f Fingerprint, Option<Fingerprint>)>,
    weak: usize,
) -> Vec<(usize, Fingerprint)> {
    files
        .into_iter()
        .enumerate()
        .filter_map(|(id, (served, local))| {
            local.filter(|fp| fp.0[..weak] == served.0[..weak]).map(|fp| (id, fp))
        })
        .collect()
}

/// The group check that confirms every provisionally settled file at
/// once: the settled roster ids, ascending, and one MD5 over their full
/// fingerprints in that order.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct GroupCheck {
    pub(crate) settled: Vec<usize>,
    digest: [u8; GROUP_DIGEST_BYTES],
}

impl GroupCheck {
    /// The check over what [`settle`] returned; `None` when nothing
    /// settled, and the first batch then carries no check.
    pub(crate) fn over(provisional: &[(usize, Fingerprint)]) -> Option<Self> {
        if provisional.is_empty() {
            return None;
        }
        let mut md5 = Md5::new();
        provisional.iter().for_each(|(_, fp)| md5.update(&fp.0));
        Some(Self {
            settled: provisional.iter().map(|&(id, _)| id).collect(),
            digest: md5.finish(),
        })
    }

    /// The check on a roster of `roster_len` files: a bitmap with bit
    /// `id` set for each settled file, then the digest.
    pub(crate) fn encode(&self, roster_len: usize) -> Vec<u8> {
        let mut w = BitWriter::new();
        let mut settled = self.settled.iter().peekable();
        for id in 0..roster_len {
            w.write_bit(settled.next_if_eq(&&id).is_some());
        }
        let mut payload = w.into_bytes();
        payload.extend_from_slice(&self.digest);
        payload
    }

    /// Decode a check against a roster of `roster_len` files. A bitmap
    /// that runs past the roster (a longer payload, or a padding bit
    /// set) or settles nothing is a [`SyncError::Desync`].
    pub(crate) fn decode(payload: &[u8], roster_len: usize) -> Result<Self, SyncError> {
        let map_len = roster_len.div_ceil(8);
        let longer = SyncError::Desync("settled bitmap longer than the roster");
        let (map, digest) = match payload.len().checked_sub(map_len + GROUP_DIGEST_BYTES) {
            Some(0) => payload.split_at(map_len),
            Some(_) => return Err(longer),
            None => return Err(SyncError::Desync("group check truncated")),
        };
        let mut r = BitReader::new(map);
        let mut settled = Vec::new();
        for id in 0..map_len * 8 {
            if r.read_bit().map_err(|_| SyncError::Desync("group check truncated"))? {
                if id >= roster_len {
                    return Err(longer);
                }
                settled.push(id);
            }
        }
        if settled.is_empty() {
            return Err(SyncError::Desync("group check settles no file"));
        }
        let digest = digest.try_into().map_err(|_| SyncError::Desync("group check truncated"))?;
        Ok(Self { settled, digest })
    }

    /// The server's judgement against its own full fingerprints `fps`,
    /// in roster order, of which the roster carried the first `weak`
    /// bytes: whether every settled file passes, and the verdict — `1`
    /// on a pass; on a fail `0`, then the remainder of each settled
    /// file's fingerprint, in roster order.
    pub(crate) fn judge(&self, fps: &[Fingerprint], weak: usize) -> (bool, Vec<u8>) {
        let mut md5 = Md5::new();
        self.settled.iter().for_each(|&id| md5.update(&fps[id].0));
        let pass = md5.finish() == self.digest;
        let mut verdict = vec![u8::from(pass)];
        if !pass {
            self.settled.iter().for_each(|&id| verdict.extend_from_slice(&fps[id].0[weak..]));
        }
        (pass, verdict)
    }
}

/// Decode a verdict on `settled` files whose roster carried `weak`
/// fingerprint bytes each: `None` on a pass; on a fail the remainders
/// back to back, for [`split_remainder`] to take one by one.
pub(crate) fn decode_verdict(
    payload: &FrameBuf,
    settled: usize,
    weak: usize,
) -> Result<Option<FrameBuf>, SyncError> {
    let rest = Fingerprint::WIRE_LEN - weak;
    match payload.first() {
        Some(1) if payload.len() == 1 => Ok(None),
        Some(0) if payload.len() - 1 == settled * rest => Ok(Some(payload.slice(1, payload.len()))),
        Some(0) => Err(SyncError::Desync("salvage list does not match the settled set")),
        _ => Err(SyncError::Desync("group verdict")),
    }
}

/// A batch as decoded: one message per file, and the roster's group
/// check (client) or its verdict (server), which only the first batch
/// of each direction carries.
#[derive(Debug, Default)]
pub(crate) struct Batch {
    pub(crate) files: Vec<(usize, Vec<Part>)>,
    pub(crate) check: Option<Part>,
}

/// Pack one round message per in-flight file into a single frame
/// payload: `varint n, then per file (varint id, varint n_parts, parts)`,
/// then the optional `check` part. A part is `1 phase byte, varint len,
/// payload bytes`.
pub(crate) fn encode_batch(entries: &[(usize, Vec<Part>)], check: Option<&Part>) -> Vec<u8> {
    let mut w = BitWriter::new();
    w.write_varint(entries.len() as u64);
    for (id, parts) in entries {
        w.write_varint(*id as u64);
        w.write_varint(parts.len() as u64);
        parts.iter().for_each(|part| write_part(&mut w, part));
    }
    if let Some(part) = check {
        write_part(&mut w, part);
    }
    w.into_bytes()
}

fn write_part(w: &mut BitWriter, part: &Part) {
    w.write_bits(u64::from(part_header(part.phase, false)), 8);
    w.write_varint(part.payload.len() as u64);
    w.write_bytes(&part.payload);
}

/// Decode a batch into its files' messages and its check part; every
/// part is a zero-copy view of `payload`.
pub(crate) fn decode_batch(payload: &FrameBuf) -> Result<Batch, SyncError> {
    let mut r = BitReader::new(payload);
    let count = r.read_varint().map_err(|_| SyncError::Desync("batch count"))?;
    if count > MAX_COLLECTION_FILES {
        return Err(SyncError::Desync("batch count exceeds cap"));
    }
    let count = usize::try_from(count).map_err(|_| SyncError::Desync("batch count"))?;
    let mut files = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let id = r.read_varint().map_err(|_| SyncError::Desync("batch file id"))?;
        if id >= MAX_COLLECTION_FILES {
            return Err(SyncError::Desync("batch file id exceeds cap"));
        }
        let id = usize::try_from(id).map_err(|_| SyncError::Desync("batch file id"))?;
        let n_parts = r.read_varint().map_err(|_| SyncError::Desync("batch part count"))?;
        if n_parts == 0 || n_parts > MAX_PARTS_PER_MESSAGE as u64 {
            return Err(SyncError::Desync("batch part count out of range"));
        }
        let n_parts = usize::try_from(n_parts).map_err(|_| SyncError::Desync("batch parts"))?;
        let parts = (0..n_parts).map(|_| read_part(&mut r, payload)).collect::<Result<_, _>>()?;
        files.push((id, parts));
    }
    let check = match r.remaining_bits() {
        0 => None,
        _ => Some(read_part(&mut r, payload)?),
    };
    if r.remaining_bits() > 0 {
        return Err(SyncError::Desync("batch trailing bytes"));
    }
    if check.as_ref().is_some_and(|part| part.phase != Phase::Setup) {
        return Err(SyncError::Desync("batch check part is not setup"));
    }
    Ok(Batch { files, check })
}

fn read_part(r: &mut BitReader<'_>, payload: &FrameBuf) -> Result<Part, SyncError> {
    let header = r.read_bits(8).map_err(|_| SyncError::Desync("batch part header"))?;
    let header = u8::try_from(header).map_err(|_| SyncError::Desync("batch header"))?;
    let (phase, _more) = parse_part_header(header).ok_or(SyncError::Desync("batch phase tag"))?;
    let len = r.read_varint().map_err(|_| SyncError::Desync("batch part len"))?;
    let len = usize::try_from(len).map_err(|_| SyncError::Desync("batch part len"))?;
    // Every field before a payload is whole bytes: it starts aligned.
    let start = payload.len() - r.remaining_bits() / 8;
    r.skip_bytes(len).map_err(|_| SyncError::Desync("batch part truncated"))?;
    Ok(Part { phase, payload: payload.slice(start, start + len) })
}

/// How the frame of a message part divides across phases. Every
/// map-phase message of the collection protocol is one batch frame: its
/// bytes go to the phases of the parts inside it, and its own headers
/// are framing. A batch that does not parse is all map phase.
pub(crate) fn split_of(part: &Part) -> PhaseSplit {
    let mut split = PhaseSplit::from(part.phase);
    if part.phase == Phase::Map {
        let batch = decode_batch(&part.payload).unwrap_or_default();
        for part in batch.files.iter().flat_map(|(_, parts)| parts).chain(&batch.check) {
            split.add(part.phase, part.payload.len() as u64);
        }
    }
    split
}

/// Wire bytes of the roster exchange for serving `new` to a client that
/// holds `old`: the roster frame, plus — when a local copy passes for
/// unchanged on its weak fingerprint bytes — the group check and the
/// verdict, as the parts the first batch and its reply carry, decided by
/// the same `settle` and `GroupCheck` the machines run. It is what a
/// collection sync pays, once, to tell the client which files the server
/// holds, how long they are and which of its own copies are current. The
/// paper harness charges the per-file baselines the same bytes.
pub fn roster_frame_bytes(old: &[FileRef<'_>], new: &[FileRef<'_>]) -> u64 {
    let mut listed: Vec<(&str, u64, Fingerprint)> =
        new.iter().map(|f| (f.name, f.data.len() as u64, file_fingerprint(f.data))).collect();
    listed.sort_unstable_by(|a, b| a.0.cmp(b.0));
    let (payload, weak) = encode_roster(&listed);
    let roster = Part { phase: Phase::Setup, payload: payload.into() };
    let roster = frame_wire_size(encode_arq_frame(Vec::new(), 1, 0, false, &roster).len());

    let local: HashMap<&str, &[u8]> = old.iter().map(|f| (f.name, f.data)).collect();
    let fps: Vec<Fingerprint> = listed.iter().map(|&(_, _, fp)| fp).collect();
    let mine = listed.iter().map(|&(name, len, _)| {
        local.get(name).filter(|data| data.len() as u64 == len).map(|data| file_fingerprint(data))
    });
    let Some(check) = GroupCheck::over(&settle(fps.iter().zip(mine), weak)) else {
        return roster;
    };
    let (_, verdict) = check.judge(&fps, weak);
    let in_batch = |payload: Vec<u8>| {
        let mut w = BitWriter::new();
        write_part(&mut w, &Part { phase: Phase::Setup, payload: payload.into() });
        w.into_bytes().len() as u64
    };
    roster + in_batch(check.encode(fps.len())) + in_batch(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::FileEntry;
    use crate::config::ProtocolConfig;
    use msync_protocol::{Direction, WireMeter};

    #[test]
    fn roster_roundtrips() {
        let files = [
            ("", 0, file_fingerprint(b"")),
            ("a.txt", 5, file_fingerprint(b"alpha")),
            ("a.txt~", 1 << 30, file_fingerprint(b"x")),
            ("dir/b.txt", 3, file_fingerprint(b"bee")),
            ("z", 1, file_fingerprint(b"z")),
        ];
        // Five files: 3 + 8 bits of weak fingerprint, two bytes.
        let weak = weak_fp_bytes(files.len());
        assert_eq!(weak, 2);
        let decoded = decode_roster(&encode_roster(&files).0).unwrap();
        assert_eq!(decoded.weak, weak);
        let decoded = decoded.files;
        let back: Vec<(&str, u64)> = decoded.iter().map(|f| (f.name.as_str(), f.len)).collect();
        assert_eq!(back, files.map(|(name, len, _)| (name, len)));
        for (got, (_, _, fp)) in decoded.iter().zip(files) {
            assert_eq!(got.fp.0[..weak], fp.0[..weak]);
            assert!(got.fp.0[weak..].iter().all(|&b| b == 0), "only the weak bytes cross");
        }
        assert!(decode_roster(&[0xff; 3]).is_err());
        // Front coding: `a.txt~` after `a.txt` spells one byte of name
        // (two and three files are both two weak bytes wide).
        assert_eq!(weak_fp_bytes(2), weak_fp_bytes(3));
        let two = encode_roster(&files[0..2]).0.len();
        let three = encode_roster(&files[0..3]).0.len();
        assert_eq!(three - two, 1 + 1 + 1 + 5 + weak_fp_bytes(3));
    }

    #[test]
    fn a_full_size_crawl_roster_decodes() {
        // The paper's crawl at full scale: 10 000 pages, well inside the
        // name bound.
        let crawl = msync_corpus::web_collection(&msync_corpus::web_params(1.0), 0);
        let files: Vec<(&str, u64, Fingerprint)> = crawl.versions[0]
            .files()
            .iter()
            .map(|f| (f.name.as_str(), f.data.len() as u64, file_fingerprint(f.name.as_bytes())))
            .collect();
        assert_eq!(files.len(), 10_000);
        let decoded = decode_roster(&encode_roster(&files).0).expect("a real roster decodes").files;
        assert!(decoded
            .iter()
            .zip(&files)
            .all(|(got, want)| got.name == want.0 && got.len == want.1));
    }

    #[test]
    fn weak_width_grows_with_the_roster() {
        let widths = [1, 2, 200, 256, 257, 1_000, 10_000, 1 << 20].map(weak_fp_bytes);
        assert_eq!(widths, [1, 2, 2, 2, 3, 3, 3, 4]);
    }

    #[test]
    fn batch_roundtrips() {
        let entries = vec![
            (0usize, vec![Part { phase: Phase::Setup, payload: vec![1, 2, 3].into() }]),
            (
                7usize,
                vec![
                    Part { phase: Phase::Map, payload: vec![].into() },
                    Part { phase: Phase::Delta, payload: vec![9; 40].into() },
                ],
            ),
        ];
        let decoded = decode_batch(&encode_batch(&entries, None).into()).unwrap();
        assert!(decoded.check.is_none());
        let decoded = decoded.files;
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0].0, 0);
        assert_eq!(decoded[0].1[0].payload, vec![1, 2, 3]);
        assert_eq!(decoded[1].0, 7);
        assert_eq!(decoded[1].1[1].phase, Phase::Delta);
        assert_eq!(decoded[1].1[1].payload, vec![9; 40]);
        assert!(decode_batch(&vec![0xff; 2].into()).is_err());

        // A check part rides after the files, and is charged as setup.
        let check = Part { phase: Phase::Setup, payload: vec![5; 20].into() };
        let bytes = encode_batch(&entries, Some(&check));
        let decoded = decode_batch(&bytes.clone().into()).unwrap();
        assert_eq!(decoded.files.len(), 2);
        assert_eq!(decoded.check.unwrap().payload, vec![5; 20]);
        let mut meter = WireMeter::default();
        let frame = Part { phase: Phase::Map, payload: bytes.clone().into() };
        meter.sent(Direction::ClientToServer, split_of(&frame), bytes.len());
        assert_eq!(meter.stats().c2s(Phase::Setup), 3 + 20, "the framing goes to the delta");
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(
            decode_batch(&longer.into()).err(),
            Some(SyncError::Desync("batch trailing bytes"))
        );
        let map = Part { phase: Phase::Map, payload: vec![5; 20].into() };
        assert_eq!(
            decode_batch(&encode_batch(&entries, Some(&map)).into()).err(),
            Some(SyncError::Desync("batch check part is not setup"))
        );
    }

    #[test]
    fn group_check_and_verdict_roundtrip() {
        let fps: Vec<Fingerprint> = (0..11u8).map(|i| file_fingerprint(&[i])).collect();
        let mut mine: Vec<Option<Fingerprint>> = vec![None; 11];
        for id in [0, 3, 10] {
            mine[id] = Some(fps[id]);
        }
        let provisional = settle(fps.iter().zip(mine.iter().copied()), 2);
        assert_eq!(provisional, [(0, fps[0]), (3, fps[3]), (10, fps[10])]);
        let check = GroupCheck::over(&provisional).unwrap();
        let payload = check.encode(11);
        assert_eq!(payload.len(), 2 + 16, "11 bits of bitmap, then the digest");
        assert_eq!(GroupCheck::decode(&payload, 11).as_ref(), Ok(&check));
        // The same bytes against a shorter roster set a bit past it.
        assert_eq!(
            GroupCheck::decode(&payload, 10),
            Err(SyncError::Desync("settled bitmap longer than the roster"))
        );
        assert_eq!(
            GroupCheck::decode(&payload[1..], 11),
            Err(SyncError::Desync("group check truncated"))
        );
        let none = GroupCheck { settled: Vec::new(), ..check };
        assert_eq!(
            GroupCheck::decode(&none.encode(11), 11),
            Err(SyncError::Desync("group check settles no file"))
        );
        assert_eq!(GroupCheck::over(&[]), None);

        let (pass, verdict) = GroupCheck::over(&provisional).unwrap().judge(&fps, 2);
        assert!(pass);
        assert_eq!(decode_verdict(&verdict.into(), 3, 2), Ok(None));
        // A local copy of file 3 that only shares the weak bytes fails
        // the group: the verdict carries every settled file's remainder.
        let mut wrong = fps[3];
        wrong.0[15] ^= 1;
        let (pass, verdict) =
            GroupCheck::over(&[(0, fps[0]), (3, wrong), (10, fps[10])]).unwrap().judge(&fps, 2);
        assert!(!pass);
        let salvage = decode_verdict(&verdict.clone().into(), 3, 2).unwrap().unwrap();
        let rest: Vec<u8> = [0, 3, 10].iter().flat_map(|&id| fps[id].0[2..].to_vec()).collect();
        assert_eq!(salvage.to_vec(), rest);
        assert_eq!(
            decode_verdict(&verdict.into(), 2, 2),
            Err(SyncError::Desync("salvage list does not match the settled set"))
        );
        assert_eq!(decode_verdict(&vec![2].into(), 2, 2), Err(SyncError::Desync("group verdict")));
    }

    /// [`roster_frame_bytes`] prices the setup the machines charge. The
    /// pump charges to setup the opener and roster frames, every setup
    /// part's payload (opened files' first messages, check, verdict) and
    /// the framing of each batch frame whose largest share is setup;
    /// `roster_frame_bytes` counts the roster frame and the check and
    /// verdict parts with their part headers. So setup = opener +
    /// `roster_frame_bytes` + first messages + the setup-led batches'
    /// framing beyond their check or verdict part − the part header of a
    /// verdict on a map-led reply. With nothing changed the check-only
    /// batch and the verdict-only reply are setup-led; with some files
    /// changed their first messages share the check's setup-led batch and
    /// the verdict rides a map-led reply; with all changed there is no
    /// check or verdict, and the first batch is setup-led.
    #[test]
    fn roster_frame_bytes_prices_what_the_machines_charge() {
        // Every frame here is under 128 bytes. A frame costs a length byte
        // and a CRC, an ARQ header a sequence, a part index and a part
        // header byte, and a batch one byte counting its files. Each file
        // entry adds an id and a part count, and its part a phase and a
        // length byte.
        const BATCH: u64 = 1 + 4 + 3 + 1;
        const ENTRY: u64 = 2 + 2;
        const PART: u64 = 2;
        let old: Vec<FileEntry> = (0..3)
            .map(|i| FileEntry::new(format!("f{i}"), crate::engine::tests::blob(2_000, i)))
            .collect();
        let opener = frame_wire_size(3);
        let framing = |n: u64| match n {
            0 => 2 * BATCH,
            1 | 2 => BATCH + n * ENTRY - PART,
            n => BATCH + n * ENTRY,
        };
        fn refs(files: &[FileEntry]) -> Vec<FileRef<'_>> {
            files.iter().map(FileRef::from).collect()
        }
        for n in 0..=3 {
            let mut new = old.clone();
            new[..n].iter_mut().for_each(|f| f.data.extend_from_slice(b"a longer tail"));
            let out = crate::sync_collection(&old, &new, &ProtocolConfig::default()).unwrap();
            assert_eq!(out.files, new);
            let setup = out.traffic.c2s(Phase::Setup) + out.traffic.s2c(Phase::Setup);
            let requests: u64 = out.per_file.iter().map(|(_, s)| s.traffic.c2s(Phase::Setup)).sum();
            assert_eq!(requests, 2 * n as u64, "{n} changed: a 2-byte length each");
            let priced = roster_frame_bytes(&refs(&old), &refs(&new));
            assert_eq!(setup, opener + priced + requests + framing(n as u64), "{n} changed");
        }
    }
}
