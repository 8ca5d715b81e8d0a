//! Version/config handshake and the crate's error type.
//!
//! Before any collection traffic, the connecting client sends one frame:
//!
//! ```text
//! msync-net 6 [<collection>]\n
//! <parameter file, as rendered by msync_core::params::render>
//! ```
//!
//! The daemon parses and validates the proposed configuration and
//! answers either `ok\n<canonical render>` — the client adopts the
//! echoed canonical form, so both sessions run the byte-identical
//! config — or `err <reason>` and closes. An unknown version or an
//! unparseable parameter file is a rejection, never a guess: the
//! multi-round protocol desynchronizes silently if the two sides
//! disagree on any knob, so the handshake is the one place that is
//! allowed to be pedantic.
//!
//! The optional `<collection>` token names which of the daemon's
//! registered collections this session syncs; a hello without it means
//! the registry's default collection. A name the daemon does not serve gets
//! the typed `err unknown-collection <name>` refusal, which the
//! client surfaces as [`NetError::UnknownCollection`] rather than a
//! generic handshake failure.
//!
//! Handshake frames ride the normal transport and are charged to
//! [`Phase::Setup`], so they show up honestly in `TrafficStats`.

use std::time::Duration;

use msync_core::{params, ProtocolConfig, SyncError};
use msync_protocol::{ChannelError, FrameBuf, Phase, Transport};
use msync_trace::EventKind;

use crate::registry::validate_collection_name;

/// Version of the wire protocol spoken by this crate. Bumped on any
/// change to the frame codec, the handshake, or the batch schedule.
/// v2 added the resume offer/verdict parts to the roster exchange;
/// v3 added the optional collection-name token to the hello line;
/// v4 dropped four parameter-file keys and numbers map rounds by level;
/// v5 replaced the two rosters, the per-file setup and the resume
/// offer with one empty opener and one fingerprinted server roster;
/// v6 cut the roster's fingerprints to their first few bytes, settled
/// by one group check in the first batch, with the rest of a changed
/// file's fingerprint in its session's first reply.
pub const PROTOCOL_VERSION: u32 = 6;

/// Oldest client version this daemon still accepts. An older client
/// expects whole fingerprints in the roster and no group check, so it
/// gets the typed `unsupported version` refusal instead of a session
/// that desyncs midway.
pub const MIN_PROTOCOL_VERSION: u32 = 6;

/// Magic line opening every client hello.
const MAGIC: &str = "msync-net";

/// Reason token opening an unknown-collection refusal line.
const UNKNOWN_COLLECTION: &str = "unknown-collection";

/// Cap on a handshake frame; a parameter file is a few hundred bytes.
const MAX_HELLO: usize = 64 * 1024;

/// Any failure establishing or running a remote sync.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure (connect, accept, socket options).
    Io(std::io::Error),
    /// The peer spoke, but not this protocol — or refused ours.
    Handshake(String),
    /// The daemon does not serve the requested collection. Typed so a
    /// caller can degrade gracefully (fall back to the default
    /// collection, list alternatives, retry later) instead of treating
    /// it as protocol gibberish.
    UnknownCollection(String),
    /// Transport failure during the handshake exchange.
    Channel(ChannelError),
    /// The sync protocol itself failed after the handshake.
    Sync(SyncError),
    /// The daemon shut down while the session's peer was silent for a
    /// whole retry timeout.
    Shutdown,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "socket error: {e}"),
            Self::Handshake(why) => write!(f, "handshake failed: {why}"),
            Self::UnknownCollection(name) => {
                write!(f, "daemon does not serve collection {name:?}")
            }
            Self::Channel(e) => write!(f, "handshake transport error: {e:?}"),
            Self::Sync(e) => write!(f, "sync failed: {e}"),
            Self::Shutdown => write!(f, "daemon shut down while the session's peer was silent"),
        }
    }
}

impl std::error::Error for NetError {}

/// Client half: propose `cfg` for the daemon's default collection and
/// adopt the server's canonical echo.
///
/// # Errors
/// [`NetError::Channel`] if the wire fails, [`NetError::Handshake`] if
/// the server rejects the proposal or answers gibberish.
pub fn client_hello(
    t: &mut dyn Transport,
    cfg: &ProtocolConfig,
    timeout: Duration,
) -> Result<ProtocolConfig, NetError> {
    client_hello_as(t, cfg, None, timeout)
}

/// [`client_hello`] naming a collection: `Some(name)` asks the daemon
/// for that registry entry; `None` means its default collection.
///
/// # Errors
/// As [`client_hello`], plus [`NetError::UnknownCollection`] when the
/// daemon answers the typed `err unknown-collection` refusal.
pub fn client_hello_as(
    t: &mut dyn Transport,
    cfg: &ProtocolConfig,
    collection: Option<&str>,
    timeout: Duration,
) -> Result<ProtocolConfig, NetError> {
    let rec = t.recorder();
    let result = client_hello_inner(t, cfg, collection, timeout);
    rec.record(EventKind::Handshake { ok: result.is_ok() });
    result
}

fn client_hello_inner(
    t: &mut dyn Transport,
    cfg: &ProtocolConfig,
    collection: Option<&str>,
    timeout: Duration,
) -> Result<ProtocolConfig, NetError> {
    let hello = match collection {
        Some(name) => format!("{MAGIC} {PROTOCOL_VERSION} {name}\n{}", params::render(cfg)),
        None => format!("{MAGIC} {PROTOCOL_VERSION}\n{}", params::render(cfg)),
    };
    t.send(&FrameBuf::from(hello.into_bytes()), Phase::Setup.into()).map_err(NetError::Channel)?;
    let reply = t.recv_timeout(timeout).map_err(NetError::Channel)?;
    t.attribute_inbound(Phase::Setup.into());
    let text = text_of(&reply)?;
    if let Some(reason) = text.strip_prefix("err ") {
        if let Some(name) = reason.trim().strip_prefix(UNKNOWN_COLLECTION) {
            return Err(NetError::UnknownCollection(name.trim().to_owned()));
        }
        return Err(NetError::Handshake(format!("server refused: {}", reason.trim())));
    }
    let Some(rendered) = text.strip_prefix("ok\n") else {
        return Err(NetError::Handshake("server reply is neither ok nor err".to_owned()));
    };
    let agreed = params::parse(rendered)
        .map_err(|e| NetError::Handshake(format!("server echoed a bad config: {e}")))?;
    Ok(agreed)
}

/// The server's verdict on one client hello frame, pure of any I/O.
///
/// The multiplexer evaluates every hello through [`eval_hello`], the
/// one place acceptance rules and refusal wording live.
pub(crate) enum HelloOutcome {
    /// The proposal parsed and validated: send `reply` (the canonical
    /// `ok` echo) and run the session under `cfg`.
    Accept {
        /// The agreed configuration (canonical form of the proposal).
        cfg: ProtocolConfig,
        /// The collection the client asked for; `None` (a hello
        /// without the token) means the registry's default. The
        /// daemon must still resolve this against its registry and
        /// answer [`unknown_collection_reject`] on a miss — *this*
        /// reply is only correct once the name resolves.
        collection: Option<String>,
        /// The `ok\n<render>` frame to send back.
        reply: Vec<u8>,
    },
    /// The hello is not this protocol or proposes an invalid config:
    /// best-effort send `reply` (a typed `err` line), then fail the
    /// session with `error`.
    Reject {
        /// The `err <reason>` frame to send back.
        reply: Vec<u8>,
        /// The error the session ends with.
        error: NetError,
    },
}

/// The typed refusal for a syntactically fine collection name the
/// registry does not hold: the `err` frame to send and the error the
/// session ends with, so the wire token and the error type are
/// spelled in one place.
pub(crate) fn unknown_collection_reject(name: &str) -> (Vec<u8>, NetError) {
    (
        format!("err {UNKNOWN_COLLECTION} {name}").into_bytes(),
        NetError::UnknownCollection(name.to_owned()),
    )
}

/// Evaluate one client hello payload. Pure: no transport access, no
/// registry access (the requested collection comes back unresolved).
pub(crate) fn eval_hello(hello: &[u8]) -> HelloOutcome {
    let reject = |reason: &str, error: NetError| HelloOutcome::Reject {
        reply: format!("err {reason}").into_bytes(),
        error,
    };
    let text = match text_of(hello) {
        Ok(text) => text,
        Err(e) => return reject("hello is not text", e),
    };
    let (magic_line, params_text) = text.split_once('\n').unwrap_or((text, ""));
    let mut words = magic_line.split_whitespace();
    if words.next() != Some(MAGIC) {
        return reject(
            "unknown magic",
            NetError::Handshake("client hello has unknown magic".to_owned()),
        );
    }
    let version = words.next().and_then(|v| v.parse::<u32>().ok());
    if !version.is_some_and(|v| (MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&v)) {
        return reject(
            "unsupported version",
            NetError::Handshake(format!(
                "client speaks version {version:?}, this daemon speaks \
                 {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION}"
            )),
        );
    }
    let token = words.next();
    // The grammar allows at most one token after the version; anything
    // beyond it is a name with whitespace in it.
    let why = match token {
        Some(_) if words.next().is_some() => Some("contains whitespace"),
        Some(name) => validate_collection_name(name).err(),
        None => None,
    };
    if let Some(why) = why {
        return reject(
            &format!("bad collection name: {why}"),
            NetError::Handshake(format!("client requested an invalid collection name: {why}")),
        );
    }
    let collection = token.map(str::to_owned);
    let cfg = match params::parse(params_text).and_then(|c| c.validate().map(|()| c)) {
        Ok(cfg) => cfg,
        Err(e) => {
            return reject(
                &format!("bad config: {e}"),
                NetError::Handshake(format!("client proposed a bad config: {e}")),
            );
        }
    };
    let reply = format!("ok\n{}", params::render(&cfg)).into_bytes();
    HelloOutcome::Accept { cfg, collection, reply }
}

fn text_of(payload: &[u8]) -> Result<&str, NetError> {
    if payload.len() > MAX_HELLO {
        return Err(NetError::Handshake("hello frame too large".to_owned()));
    }
    std::str::from_utf8(payload).map_err(|_| NetError::Handshake("hello is not UTF-8".to_owned()))
}

/// Magic opening an admin frame. Admin commands ride the same
/// first-frame slot as a client hello; the daemon dispatches on the
/// magic word.
pub(crate) const ADMIN_MAGIC: &str = "msync-admin";

/// A parsed admin command.
#[derive(Debug)]
pub(crate) enum AdminCmd {
    /// `msync-admin reload <collection>`: re-read the named
    /// collection's source directory and swap the snapshot in.
    Reload(String),
    /// `msync-admin stats [json]`: the daemon-wide metrics exposition
    /// (Prometheus text plus windowed rate gauges, or the flat JSON
    /// rendering with the `json` token).
    Stats {
        /// Whether the reply is the flat JSON rendering instead of
        /// Prometheus text.
        json: bool,
    },
    /// `msync-admin sessions`: the live session table, one
    /// `key=value` line per in-flight session.
    Sessions,
    /// `msync-admin health`: daemon vitals — uptime, worker occupancy,
    /// admission headroom, drop/watchdog counters, reload stamps.
    Health,
}

/// Classify a first frame as an admin command. `None` means the frame
/// is not admin-shaped at all (evaluate it as a hello instead);
/// `Some(Err(reason))` is a malformed admin frame, answered with
/// `err <reason>`.
pub(crate) fn parse_admin(frame: &[u8]) -> Option<Result<AdminCmd, String>> {
    let text = std::str::from_utf8(frame).ok()?;
    let mut words = text.split_whitespace();
    if words.next() != Some(ADMIN_MAGIC) {
        return None;
    }
    let cmd = match words.next() {
        Some("reload") => match words.next() {
            Some(name) => match validate_collection_name(name) {
                Ok(()) => Ok(AdminCmd::Reload(name.to_owned())),
                Err(why) => Err(format!("bad collection name: {why}")),
            },
            None => Err("reload needs a collection name".to_owned()),
        },
        Some("stats") => match words.next() {
            None => Ok(AdminCmd::Stats { json: false }),
            Some("json") => Ok(AdminCmd::Stats { json: true }),
            Some(other) => Err(format!("stats takes only `json`, not {other}")),
        },
        Some("sessions") => Ok(AdminCmd::Sessions),
        Some("health") => Ok(AdminCmd::Health),
        Some(other) => Err(format!("unknown admin verb {other}")),
        None => Err("empty admin command".to_owned()),
    };
    // Every verb's argument list is closed above; trailing tokens are
    // a malformed command, not an extension point.
    Some(match cmd {
        Ok(cmd) if words.next().is_some() => {
            Err(format!("trailing tokens after admin verb {}", cmd.verb()))
        }
        other => other,
    })
}

impl AdminCmd {
    /// The wire verb this command was parsed from.
    pub(crate) fn verb(&self) -> &'static str {
        match self {
            AdminCmd::Reload(_) => "reload",
            AdminCmd::Stats { .. } => "stats",
            AdminCmd::Sessions => "sessions",
            AdminCmd::Health => "health",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msync_protocol::Endpoint;
    use std::thread;

    const T: Duration = Duration::from_secs(5);

    /// The daemon's side of a handshake, minus the registry lookup:
    /// take the first frame, evaluate it, send the verdict's reply.
    fn answer_hello(s: &mut Endpoint) -> Result<ProtocolConfig, NetError> {
        let hello = Transport::recv_timeout(s, T).unwrap();
        let (reply, verdict) = match eval_hello(&hello) {
            HelloOutcome::Accept { cfg, reply, .. } => (reply, Ok(cfg)),
            HelloOutcome::Reject { reply, error } => (reply, Err(error)),
        };
        Transport::send(s, &FrameBuf::from(reply), Phase::Setup.into()).unwrap();
        verdict
    }

    #[test]
    fn agreeing_sides_converge_on_one_config() {
        let (mut c, mut s) = Endpoint::pair();
        let cfg = ProtocolConfig { start_block: 1 << 13, ..Default::default() };
        let want = cfg.clone();
        let client = thread::spawn(move || client_hello(&mut c, &cfg, T).unwrap());
        let served = answer_hello(&mut s).unwrap();
        let got = client.join().unwrap();
        assert_eq!(got, want);
        assert_eq!(served, want);
    }

    #[test]
    fn wrong_magic_is_refused_with_a_reason() {
        let (mut c, mut s) = Endpoint::pair();
        c.send(b"rsync 31".to_vec());
        assert!(matches!(answer_hello(&mut s), Err(NetError::Handshake(_))));
        let reply = Transport::recv_timeout(&mut c, T).unwrap();
        assert!(reply.starts_with(b"err "), "{reply:?}");
    }

    #[test]
    fn version_mismatch_is_refused() {
        let (mut c, mut s) = Endpoint::pair();
        let hello = format!("{MAGIC} 999\n");
        Transport::send(&mut c, &FrameBuf::from(hello.into_bytes()), Phase::Setup.into()).unwrap();
        assert!(matches!(answer_hello(&mut s), Err(NetError::Handshake(_))));
        let reply = Transport::recv_timeout(&mut c, T).unwrap();
        assert_eq!(&reply[..3], b"err");
    }

    #[test]
    fn bad_config_is_refused() {
        let (mut c, mut s) = Endpoint::pair();
        let hello = format!("{MAGIC} {PROTOCOL_VERSION}\nstart_block = nope");
        Transport::send(&mut c, &FrameBuf::from(hello.into_bytes()), Phase::Setup.into()).unwrap();
        assert!(matches!(answer_hello(&mut s), Err(NetError::Handshake(_))));
        let reply = Transport::recv_timeout(&mut c, T).unwrap();
        assert!(reply.starts_with(b"err "), "{reply:?}");
    }

    #[test]
    fn v2_and_v3_hellos_are_refused_as_unsupported_versions() {
        // An older client numbers its rounds differently, so even a
        // parameter file this daemon parses must be refused by version,
        // up front, rather than run and desynced midway.
        let render = params::render(&ProtocolConfig::default());
        for hello in [format!("{MAGIC} 2\n{render}"), format!("{MAGIC} 3 photos\n{render}")] {
            match eval_hello(hello.as_bytes()) {
                HelloOutcome::Reject { reply, error } => {
                    assert_eq!(String::from_utf8(reply).unwrap(), "err unsupported version");
                    assert!(matches!(error, NetError::Handshake(_)), "{error}");
                }
                HelloOutcome::Accept { .. } => panic!("accepted {hello:?}"),
            }
        }
    }

    #[test]
    fn v3_hello_carries_the_collection_name() {
        let cfg = ProtocolConfig::default();
        let hello = format!("{MAGIC} {PROTOCOL_VERSION} photos\n{}", params::render(&cfg));
        match eval_hello(hello.as_bytes()) {
            HelloOutcome::Accept { collection, .. } => {
                assert_eq!(collection.as_deref(), Some("photos"));
            }
            HelloOutcome::Reject { error, .. } => panic!("hello rejected: {error}"),
        }
    }

    #[test]
    fn v3_hello_without_a_token_means_default() {
        let cfg = ProtocolConfig::default();
        let hello = format!("{MAGIC} {PROTOCOL_VERSION}\n{}", params::render(&cfg));
        match eval_hello(hello.as_bytes()) {
            HelloOutcome::Accept { collection, .. } => assert_eq!(collection, None),
            HelloOutcome::Reject { error, .. } => panic!("bare hello rejected: {error}"),
        }
    }

    #[test]
    fn traversal_and_garbage_collection_names_are_refused() {
        let cfg = ProtocolConfig::default();
        for bad in ["../etc", "a/b", "a\\b", "..", ".", "has space"] {
            let hello = format!("{MAGIC} {PROTOCOL_VERSION} {bad}\n{}", params::render(&cfg));
            match eval_hello(hello.as_bytes()) {
                HelloOutcome::Reject { reply, .. } => {
                    let text = String::from_utf8(reply).unwrap();
                    assert!(text.starts_with("err bad collection name"), "{bad}: {text}");
                }
                HelloOutcome::Accept { .. } => panic!("accepted bad name {bad:?}"),
            }
        }
    }

    #[test]
    fn unknown_collection_reply_parses_into_the_typed_error() {
        let (mut c, mut s) = Endpoint::pair();
        let client = thread::spawn(move || {
            client_hello_as(&mut c, &ProtocolConfig::default(), Some("ghost"), T)
        });
        let hello = Transport::recv_timeout(&mut s, T).unwrap();
        match eval_hello(&hello) {
            HelloOutcome::Accept { collection, .. } => {
                assert_eq!(collection.as_deref(), Some("ghost"));
            }
            HelloOutcome::Reject { error, .. } => panic!("{error}"),
        }
        let (reply, _) = unknown_collection_reject("ghost");
        Transport::send(&mut s, &FrameBuf::from(reply), Phase::Setup.into()).unwrap();
        match client.join().unwrap() {
            Err(NetError::UnknownCollection(name)) => assert_eq!(name, "ghost"),
            other => panic!("expected UnknownCollection, got {other:?}"),
        }
    }

    #[test]
    fn admin_frames_parse_and_non_admin_frames_pass_through() {
        assert!(parse_admin(b"msync-net 4 x\n").is_none());
        assert!(parse_admin(b"").is_none());
        match parse_admin(b"msync-admin reload photos") {
            Some(Ok(AdminCmd::Reload(name))) => assert_eq!(name, "photos"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(parse_admin(b"msync-admin reload ../x"), Some(Err(_))));
        assert!(matches!(parse_admin(b"msync-admin reload"), Some(Err(_))));
        assert!(matches!(parse_admin(b"msync-admin explode y"), Some(Err(_))));
    }

    #[test]
    fn introspection_verbs_parse_and_refuse_trailing_tokens() {
        assert!(matches!(
            parse_admin(b"msync-admin stats"),
            Some(Ok(AdminCmd::Stats { json: false }))
        ));
        assert!(matches!(
            parse_admin(b"msync-admin stats json"),
            Some(Ok(AdminCmd::Stats { json: true }))
        ));
        assert!(matches!(parse_admin(b"msync-admin sessions"), Some(Ok(AdminCmd::Sessions))));
        assert!(matches!(parse_admin(b"msync-admin health"), Some(Ok(AdminCmd::Health))));
        for bad in [
            b"msync-admin stats yaml".as_slice(),
            b"msync-admin stats json extra",
            b"msync-admin sessions now",
            b"msync-admin health check",
            b"msync-admin reload photos twice",
        ] {
            assert!(matches!(parse_admin(bad), Some(Err(_))), "{:?}", bad);
        }
    }
}
