//! The `msync sync --remote` client.
//!
//! Connect, handshake, then run the pipelined collection scheduler
//! ([`msync_core::sync_collection_client`]) over the socket.
//! The whole sync is the same code path as the in-memory tests; only
//! the transport differs — including, optionally, the fault injector
//! wrapped *around the real socket*, which is how the soak profiles are
//! exercised against genuine TCP timing.

use std::net::TcpStream;
use std::time::Duration;

use msync_core::{
    sync_collection_client_with, CollectionOutcome, CompletedFile, FileEntry, PipelineOptions,
    ProtocolConfig,
};
use msync_protocol::{FaultPlan, FaultTransport, FrameBuf, Phase, Transport};
use msync_trace::Recorder;

use crate::handshake::{client_hello_as, NetError};
use crate::tcp::TcpTransport;

/// Client-side knobs for a remote sync.
#[derive(Debug, Clone)]
pub struct RemoteOptions {
    /// Protocol configuration proposed to (and confirmed by) the daemon.
    pub cfg: ProtocolConfig,
    /// Optional cap on files in flight (default: none, the byte-budget
    /// window alone) and the ARQ retry policy.
    pub pipeline: PipelineOptions,
    /// How long to wait for the daemon's handshake reply.
    pub handshake_timeout: Duration,
    /// Wrap the socket in the deterministic fault injector
    /// (plan, seed). The handshake runs on the clean socket; only the
    /// collection traffic is subjected to faults, mirroring how the
    /// in-memory soak suite treats setup.
    pub fault_wrap: Option<(FaultPlan, u64)>,
    /// Trace recorder attached to the socket transport before the
    /// handshake; off by default. Every charged wire byte, injected
    /// fault, and session milestone lands in it.
    pub recorder: Recorder,
    /// Which of the daemon's collections to sync (`msync sync
    /// --collection NAME`). `None` means the daemon's default
    /// collection. An unknown name surfaces as the typed
    /// [`NetError::UnknownCollection`].
    pub collection: Option<String>,
}

impl Default for RemoteOptions {
    fn default() -> Self {
        Self {
            cfg: ProtocolConfig::default(),
            pipeline: PipelineOptions::default(),
            handshake_timeout: Duration::from_secs(10),
            fault_wrap: None,
            recorder: Recorder::off(),
            collection: None,
        }
    }
}

/// A finished remote sync, with the socket's own byte counters so
/// callers can cross-check accounting against wire reality.
#[derive(Debug)]
pub struct RemoteOutcome {
    /// The collection outcome, exactly as the in-memory path reports it.
    pub outcome: CollectionOutcome,
    /// Raw bytes this client wrote to the socket.
    pub socket_sent: u64,
    /// Raw bytes this client read from the socket.
    pub socket_received: u64,
}

/// Sync the local `old` collection against the daemon at `addr`.
///
/// # Errors
/// [`NetError::Io`] if the connection fails, [`NetError::Handshake`] /
/// [`NetError::Channel`] if the daemon refuses or the wire dies during
/// the hello, [`NetError::Sync`] if the protocol fails afterwards.
pub fn sync_remote(
    addr: &str,
    old: &[FileEntry],
    opts: &RemoteOptions,
) -> Result<RemoteOutcome, NetError> {
    sync_remote_with(addr, old, opts, &mut |_| Ok(()))
}

/// [`sync_remote`] with a durability sink: `on_complete` fires for
/// every file the moment the scheduler finishes it (including files the
/// roster settled unchanged), so the caller can apply it atomically
/// before the session moves on. The sink
/// borrows the bytes the outcome will own ([`CompletedFile::data`] is a
/// shared handle, not a copy); a sink that keeps the handle past the
/// call costs one copy of that file when the outcome is assembled. A
/// sink error aborts the sync as [`NetError::Sync`].
///
/// # Errors
/// As [`sync_remote`].
pub fn sync_remote_with(
    addr: &str,
    old: &[FileEntry],
    opts: &RemoteOptions,
    on_complete: &mut dyn FnMut(&CompletedFile) -> Result<(), String>,
) -> Result<RemoteOutcome, NetError> {
    let stream = TcpStream::connect(addr).map_err(NetError::Io)?;
    let mut t = TcpTransport::client(stream).map_err(NetError::Io)?;
    t.set_recorder(opts.recorder.clone());
    let cfg =
        client_hello_as(&mut t, &opts.cfg, opts.collection.as_deref(), opts.handshake_timeout)?;
    match opts.fault_wrap {
        None => {
            let outcome =
                sync_collection_client_with(&mut t, old, &cfg, &opts.pipeline, on_complete)
                    .map_err(NetError::Sync)?;
            Ok(RemoteOutcome {
                outcome,
                socket_sent: t.socket_sent(),
                socket_received: t.socket_received(),
            })
        }
        Some((plan, seed)) => {
            let mut faulted = FaultTransport::client(t, &plan, seed);
            let result =
                sync_collection_client_with(&mut faulted, old, &cfg, &opts.pipeline, on_complete);
            let inner = faulted.into_inner();
            let outcome = result.map_err(NetError::Sync)?;
            Ok(RemoteOutcome {
                outcome,
                socket_sent: inner.socket_sent(),
                socket_received: inner.socket_received(),
            })
        }
    }
}

/// Ask the daemon at `addr` to reload the named collection from its
/// source directory (the `reload` admin verb). Returns the file count
/// of the freshly loaded snapshot. The swap is atomic under live
/// traffic: sessions in flight finish against the snapshot they bound
/// at handshake; sessions handshaking after the reload get the new one.
///
/// # Errors
/// [`NetError::Io`] / [`NetError::Channel`] for connection failures,
/// [`NetError::Handshake`] when the daemon answers `err` (unknown
/// name, no source directory, loader failure) or gibberish.
pub fn admin_reload(addr: &str, collection: &str, timeout: Duration) -> Result<usize, NetError> {
    let payload = admin_exchange(addr, &format!("reload {collection}"), timeout)?;
    payload
        .trim()
        .parse::<usize>()
        .map_err(|_| NetError::Handshake("reload reply is not a file count".to_owned()))
}

/// Fetch the daemon's metrics exposition (the `stats` admin verb):
/// Prometheus text plus windowed rate gauges, or — with `json` — the
/// flat JSON rendering of the aggregate counters.
///
/// # Errors
/// As [`admin_reload`].
pub fn admin_stats(addr: &str, json: bool, timeout: Duration) -> Result<String, NetError> {
    admin_exchange(addr, if json { "stats json" } else { "stats" }, timeout)
}

/// Fetch the daemon's live session table (the `sessions` admin verb):
/// one `key=value` line per in-flight session.
///
/// # Errors
/// As [`admin_reload`].
pub fn admin_sessions(addr: &str, timeout: Duration) -> Result<String, NetError> {
    admin_exchange(addr, "sessions", timeout)
}

/// Fetch the daemon's vitals (the `health` admin verb): uptime, worker
/// occupancy, admission headroom, drop and watchdog counters, reload
/// stamps — as `key=value` lines.
///
/// # Errors
/// As [`admin_reload`].
pub fn admin_health(addr: &str, timeout: Duration) -> Result<String, NetError> {
    admin_exchange(addr, "health", timeout)
}

/// One-shot admin exchange: connect, send `msync-admin <verb …>`,
/// return the payload after the `ok` acknowledgement.
fn admin_exchange(addr: &str, verb: &str, timeout: Duration) -> Result<String, NetError> {
    let stream = TcpStream::connect(addr).map_err(NetError::Io)?;
    let mut t = TcpTransport::client(stream).map_err(NetError::Io)?;
    let cmd = format!("msync-admin {verb}");
    t.send(&FrameBuf::from(cmd.into_bytes()), Phase::Setup.into()).map_err(NetError::Channel)?;
    let reply = t.recv_timeout(timeout).map_err(NetError::Channel)?;
    t.attribute_inbound(Phase::Setup.into());
    let text = std::str::from_utf8(&reply)
        .map_err(|_| NetError::Handshake("admin reply is not UTF-8".to_owned()))?;
    if let Some(reason) = text.strip_prefix("err ") {
        return Err(NetError::Handshake(format!("daemon refused {verb}: {}", reason.trim())));
    }
    // `ok <inline>` (reload) or `ok\n<payload>` (introspection verbs).
    text.strip_prefix("ok")
        .map(|rest| rest.strip_prefix(|c| c == '\n' || c == ' ').unwrap_or(rest).to_owned())
        .ok_or_else(|| NetError::Handshake("admin reply is neither ok nor err".to_owned()))
}

/// Convenience: `Transport::stats` of a finished transport would also
/// carry the accounting, but a faulted run consumes the wrapper, so the
/// outcome snapshots the counters instead.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{Daemon, DaemonOptions};

    #[test]
    fn remote_sync_against_a_live_daemon() {
        let new = vec![
            FileEntry::new("a.txt", b"server copy of a".to_vec()),
            FileEntry::new("b.txt", b"server copy of b".repeat(100)),
        ];
        let daemon =
            Daemon::spawn("127.0.0.1:0", new.clone(), DaemonOptions::default(), |_| {}).unwrap();
        let addr = daemon.local_addr().to_string();
        let old = vec![FileEntry::new("a.txt", b"client copy of a".to_vec())];
        let got = sync_remote(&addr, &old, &RemoteOptions::default()).unwrap();
        daemon.shutdown();
        assert_eq!(got.outcome.files.len(), 2);
        assert_eq!(got.outcome.files[0].data, new[0].data);
        assert_eq!(got.outcome.files[1].data, new[1].data);
        assert_eq!(got.outcome.created, 1);
        assert!(got.socket_sent > 0 && got.socket_received > 0);
    }

    #[test]
    fn unchanged_files_settle_against_a_live_daemon() {
        let shared = b"already synced last run ".repeat(200);
        let new = vec![
            FileEntry::new("done.bin", shared.clone()),
            FileEntry::new("todo.bin", b"still to transfer".repeat(50)),
        ];
        let daemon =
            Daemon::spawn("127.0.0.1:0", new.clone(), DaemonOptions::default(), |_| {}).unwrap();
        let addr = daemon.local_addr().to_string();
        let old = vec![FileEntry::new("done.bin", shared.clone())];

        let mut completed = Vec::new();
        let got = sync_remote_with(&addr, &old, &RemoteOptions::default(), &mut |f| {
            completed.push((f.name.clone(), f.unchanged));
            Ok(())
        })
        .unwrap();
        daemon.shutdown();
        assert_eq!(got.outcome.unchanged, 1);
        assert_eq!(got.outcome.files.len(), 2);
        assert_eq!(got.outcome.files[0].data, new[0].data);
        assert_eq!(got.outcome.files[1].data, new[1].data);
        assert!(completed.contains(&("done.bin".to_string(), true)));
        assert!(completed.contains(&("todo.bin".to_string(), false)));
    }

    #[test]
    fn refused_handshake_reports_the_reason() {
        let daemon =
            Daemon::spawn("127.0.0.1:0", Vec::new(), DaemonOptions::default(), |_| {}).unwrap();
        let addr = daemon.local_addr().to_string();
        let mut opts = RemoteOptions::default();
        opts.cfg.start_block = 0; // invalid: rejected by validate()
        let err = sync_remote(&addr, &[], &opts);
        daemon.shutdown();
        assert!(matches!(err, Err(NetError::Handshake(_))), "{err:?}");
    }
}
