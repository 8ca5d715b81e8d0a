//! The `msync serve` daemon: accept, handshake, serve, repeat.
//!
//! The daemon is an event-driven multiplexer: one acceptor thread
//! blocks in `accept` and hands each connection to one of a fixed pool
//! of worker threads (default: one per core, `--workers N`), which run
//! nonblocking poll loops over per-session sans-IO machines
//! ([`msync_core::CollectionServeMachine`]). A slow client on a slow
//! link never holds a thread — it holds a few kilobytes of state (the
//! 64 KiB read buffer belongs to the worker, not the connection). An
//! idle worker waits on its handoff channel, or, when its one session
//! awaits its client, on that socket, and serves the next stream or
//! frame the moment it lands instead of finding it on a later poll;
//! see the `mux` module for the rule.
//!
//! Admission control: `--max-sessions N` caps concurrently admitted
//! sessions. An over-capacity connection is not dropped silently — the
//! daemon waits for its hello and answers with a typed
//! `err server at capacity` refusal, so the client reports *why* it was
//! turned away, and the refusal lands in the daemon's metrics as a
//! failed handshake.
//!
//! Failure semantics per connection: a client that never completes the
//! handshake, violates the protocol, or vanishes mid-sync costs only
//! its own session's state — the error is reported through the
//! daemon's log callback and the listener keeps accepting.

use std::collections::BTreeMap;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

use msync_core::{FileEntry, ServeOutcome};
use msync_protocol::{BufferPool, RetryPolicy};
use msync_trace::MetricsSnapshot;

use crate::handshake::NetError;
use crate::mux::{accept_loop, worker_loop, Introspect, Shared, WorkerLoad};
use crate::registry::CollectionRegistry;

/// Reason string sent on the wire (as `err <reason>`) when admission
/// control turns a connection away.
pub(crate) const REFUSAL_REASON: &str = "server at capacity";

/// Idle buffers the daemon's frame pool retains. The working set is
/// (frames in flight per session) x (active sessions), but almost all
/// of it is *outstanding*, not idle; the idle list only absorbs the
/// churn between session teardowns and the next admissions.
const POOL_MAX_IDLE: usize = 256;

/// Bound on [`Daemon::shutdown`]'s wake-up connection to its own
/// listener.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Daemon-side knobs. The protocol configuration is *not* one of them:
/// the client proposes it in the handshake and the daemon adopts any
/// proposal its own parser validates, so one daemon can serve clients
/// running different experiments.
#[derive(Debug, Clone)]
pub struct DaemonOptions {
    /// ARQ retry policy for every session.
    pub retry: RetryPolicy,
    /// How long a fresh connection may take to say hello.
    pub handshake_timeout: Duration,
    /// If set, the daemon rewrites this file with a Prometheus-style
    /// rendering of its aggregate metrics after every finished session
    /// (`msync serve --metrics-out FILE`). Best-effort: an unwritable
    /// path never fails a session.
    pub metrics_out: Option<PathBuf>,
    /// Worker threads (`--workers N`). `0` means one per available
    /// core.
    pub workers: usize,
    /// Cap on concurrently admitted sessions (`--max-sessions N`).
    /// `None` means unlimited. Excess connections receive a typed
    /// `err server at capacity` handshake refusal.
    pub max_sessions: Option<usize>,
    /// Slow-session watchdog threshold (`--slow-session-ms N`): a
    /// session stuck in one protocol phase longer than this gets one
    /// `slow_session` trace event and one WARN line per stall. `None`
    /// disables the watchdog.
    pub slow_session: Option<Duration>,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        Self {
            retry: RetryPolicy::default(),
            handshake_timeout: Duration::from_secs(10),
            metrics_out: None,
            workers: 0,
            max_sessions: None,
            slow_session: None,
        }
    }
}

/// What one connection amounted to, delivered to the log callback.
#[derive(Debug)]
pub struct SessionReport {
    /// Peer address, if the socket could name it.
    pub peer: Option<SocketAddr>,
    /// How the session ended.
    pub result: Result<ServeOutcome, NetError>,
    /// This session's trace metrics (byte grid, handshake and frame
    /// counters, latency histograms), snapshotted at session end.
    pub metrics: MetricsSnapshot,
    /// Canonical name of the collection the session was bound to;
    /// `None` when it never got that far (refusals, failed
    /// handshakes) or was an admin exchange.
    pub collection: Option<String>,
}

/// A running serve daemon. Dropping the handle does **not** stop the
/// listener; call [`Daemon::shutdown`].
pub struct Daemon {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<thread::JoinHandle<()>>,
    metrics: Arc<Mutex<MetricsSnapshot>>,
    per_collection: Arc<Mutex<BTreeMap<String, MetricsSnapshot>>>,
    registry: Arc<CollectionRegistry>,
}

impl Daemon {
    /// Bind `listen` (e.g. `127.0.0.1:0`) and start accepting, serving
    /// `files` as the single default collection.
    ///
    /// `log` receives one [`SessionReport`] per finished connection —
    /// refused ones included.
    ///
    /// # Errors
    /// Binding or inspecting the listener socket.
    pub fn spawn<F>(
        listen: &str,
        files: Vec<FileEntry>,
        opts: DaemonOptions,
        log: F,
    ) -> std::io::Result<Daemon>
    where
        F: Fn(SessionReport) + Send + Sync + 'static,
    {
        Self::spawn_registry(listen, Arc::new(CollectionRegistry::single(files)), opts, log)
    }

    /// [`Daemon::spawn`] over a full [`CollectionRegistry`]: many named
    /// collections, each an atomically swappable snapshot. Keep a clone
    /// of the `Arc` to call [`CollectionRegistry::swap`] /
    /// [`CollectionRegistry::reload`] while the daemon serves.
    ///
    /// # Errors
    /// Binding or inspecting the listener socket.
    pub fn spawn_registry<F>(
        listen: &str,
        registry: Arc<CollectionRegistry>,
        opts: DaemonOptions,
        log: F,
    ) -> std::io::Result<Daemon>
    where
        F: Fn(SessionReport) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(Mutex::new(MetricsSnapshot::new()));
        let per_collection = Arc::new(Mutex::new(BTreeMap::new()));
        let workers = worker_count(opts.workers);
        let intro = Arc::new(Introspect::new(workers, opts.slow_session));
        let shared = Arc::new(Shared {
            registry: Arc::clone(&registry),
            opts,
            log,
            metrics: Arc::clone(&metrics),
            per_collection: Arc::clone(&per_collection),
            active: AtomicUsize::new(0),
            loads: (0..workers).map(|_| WorkerLoad::default()).collect(),
            stop: Arc::clone(&stop),
            intro,
            pool: BufferPool::new(POOL_MAX_IDLE),
        });
        let (inboxes, receivers): (Vec<_>, Vec<_>) = (0..workers).map(|_| mpsc::channel()).unzip();
        let mut threads = Vec::with_capacity(workers + 1);
        for (id, inbox) in receivers.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            threads.push(thread::spawn(move || worker_loop(id, &inbox, &shared)));
        }
        threads.push(thread::spawn(move || accept_loop(&listener, &inboxes, &shared)));
        Ok(Daemon { addr, stop, threads, metrics, per_collection, registry })
    }

    /// The bound address (resolves port 0 to the real port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Aggregate metrics over every finished session so far: exactly
    /// the merge of each [`SessionReport::metrics`] delivered to the
    /// log callback. Sessions still in flight are not included.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// The same finished-session metrics, bucketed by bound collection.
    /// Sessions that never bound one (refusals, failed handshakes,
    /// admin exchanges) are only in the aggregate, so the buckets sum
    /// to [`Daemon::metrics`] exactly when every session bound.
    #[must_use]
    pub fn metrics_by_collection(&self) -> BTreeMap<String, MetricsSnapshot> {
        self.per_collection.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// The registry this daemon serves — the handle for live
    /// [`CollectionRegistry::swap`] / [`CollectionRegistry::reload`].
    #[must_use]
    pub fn registry(&self) -> &Arc<CollectionRegistry> {
        &self.registry
    }

    /// Foreground mode: block on the service threads (which normally
    /// never exit). The CLI `serve` command lives here.
    pub fn wait(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Stop accepting and join the service threads. One connection to
    /// the daemon's own address wakes the acceptor blocked in `accept`;
    /// it sees the stop flag and leaves. The workers drain their
    /// in-flight sessions, end every one whose peer has been silent for
    /// one retry timeout (500 ms by default), reported as
    /// [`NetError::Shutdown`], and exit.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&wake_addr(self.addr), WAKE_TIMEOUT);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Where [`Daemon::shutdown`] connects to wake the acceptor: the bound
/// address, with an unspecified IP (`0.0.0.0`, `::`) replaced by the
/// loopback address of its family.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut wake = bound;
    if bound.ip().is_unspecified() {
        wake.set_ip(match bound {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    wake
}

/// Resolve the configured worker count: `0` means one per core.
fn worker_count(configured: usize) -> usize {
    if configured > 0 {
        configured
    } else {
        thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(4)
    }
}
