//! Nonblocking session multiplexer: the event-driven half of the serve
//! daemon.
//!
//! One worker thread owns many connections. Each connection is a small
//! state holder — a [`FrameBuffer`] reassembling inbound frames, an
//! outbound byte queue, and (once the handshake passes) a sans-IO
//! [`CollectionServeMachine`] — and the worker's poll loop pumps all of
//! them: read whatever the sockets have, feed complete frames to the
//! machines, drain the machines' queued transmissions, and service
//! per-session deadlines from the machines' own timer requests. No
//! thread ever blocks on one peer for longer than one idle wait, so a
//! fixed worker pool (default: one per core) serves an arbitrary number
//! of concurrent sessions.
//!
//! Accepting: one acceptor thread ([`accept_loop`]) blocks in `accept`
//! and hands each stream over a per-worker channel (the worker's inbox)
//! to the worker [`choose_worker`] picks. No worker touches the
//! listener.
//!
//! Idle waits: a pass that moved nothing ends in a wait on the inbox or
//! on a socket, never a blind sleep. A worker holding no connection
//! blocks on its inbox and wakes the instant a stream lands. A worker
//! holding exactly one connection, whose next need is its peer's next
//! frame, parks on that socket and is woken the moment the frame lands.
//! Any other idle worker waits on its inbox for at most [`IDLE_SLEEP`].
//!
//! Accounting parity: every connection charges its bytes through the
//! same [`WireMeter`] as the blocking
//! [`TcpTransport`](crate::tcp::TcpTransport) the client runs on — sends
//! charged when queued, inbound bytes pooled until the machine names
//! their phase — so the two ends of a session report mirror-image
//! `TrafficStats`.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::io::{self, ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use msync_core::{
    CollectionServeMachine, CollectionSnapshot, Machine, Output, ServeOutcome, SyncError,
};
use msync_protocol::{
    frame_header, BufferPool, ChannelError, Direction, FrameBuf, Phase, PhaseSplit, WireMeter,
};
use msync_trace::{
    render_sessions, Clock, EventKind, MetricsSnapshot, PhaseTag, RateWindows, Recorder,
    StatusBoard, StatusHandle, SystemClock,
};

use crate::daemon::{DaemonOptions, SessionReport, REFUSAL_REASON};
use crate::handshake::{
    eval_hello, parse_admin, unknown_collection_reject, AdminCmd, HelloOutcome, NetError,
};
use crate::registry::CollectionRegistry;
use crate::tcp::FrameBuffer;

/// The longest an idle worker that holds a connection waits before its
/// next poll: a wait on its inbox that ends early when the acceptor
/// hands it a stream, or a wait on its one connection that ends early
/// when that peer's next frame (or hang-up) arrives. The kernel rounds
/// a socket wait up to its timer tick (milliseconds), which is why only
/// a worker with nothing else to serve may wait on a socket. Either is
/// far below the ARQ retry timeout (500 ms default), so machine
/// deadlines are observed with negligible slack.
const IDLE_SLEEP: Duration = Duration::from_micros(200);

/// How long the acceptor pauses after a failed `accept` (out of file
/// descriptors, say) before it tries again, instead of spinning on the
/// error.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Bytes requested from a socket per nonblocking read: the size of the
/// one read buffer each worker lends to every connection it ticks.
const READ_CHUNK: usize = 64 * 1024;

/// Upper bound on an outbound write stall before the peer is declared
/// gone — the multiplexer's equivalent of the blocking transport's
/// write timeout.
const WRITE_STALL: Duration = Duration::from_secs(30);

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// How often each worker samples the aggregate into the rate windows.
/// Several workers sample independently; [`RateWindows`] drops
/// submissions closer than its own minimum spacing.
const RATE_SAMPLE_US: u64 = 1_000_000;

/// The daemon's live-introspection state: one clock for every session
/// recorder (so ages, rates, and uptime share a single epoch — the
/// daemon's start), the live session board, the windowed rate
/// estimator, and the reload timestamps the `health` verb reports.
pub(crate) struct Introspect {
    /// The one clock every recorder, board registration, and worker
    /// loop reads. Its epoch is daemon start, so `now_micros()` *is*
    /// the uptime.
    clock: Arc<SystemClock>,
    /// Live per-session status registry (weak slots; sessions vanish
    /// when their connection drops).
    board: StatusBoard,
    /// Cumulative-sample ring behind the `stats` rate gauges.
    rates: Mutex<RateWindows>,
    /// Clock reading of the last successful `reload`, per collection.
    reloads: Mutex<BTreeMap<String, u64>>,
    /// Worker-pool size.
    workers: usize,
    /// Slow-session watchdog threshold; `None` disables the watchdog.
    slow_session_us: Option<u64>,
    /// Mux self-metrics, summed over the workers and the acceptor.
    mux: MuxCounters,
}

/// The mux threads' self-metrics: loop passes, connections ticked,
/// idle waits, how the waits on a connection ended, and the handoffs
/// that found their worker parked. One field set serves the per-thread
/// tallies (plain counts) and the daemon-wide totals (atomics).
#[derive(Default)]
struct MuxTally<T> {
    passes: T,
    conns_ticked: T,
    /// Every idle wait: waits on the inbox and waits on a connection.
    idle_waits: T,
    /// Waits on a connection ended by that peer's frame or hang-up.
    waits_woken: T,
    /// Waits on a connection that ran to their bound.
    waits_timed_out: T,
    /// Streams the acceptor handed to a worker parked on a connection:
    /// each waits until that wait ends. Only the acceptor counts these.
    handoffs_parked: T,
}

type MuxCounters = MuxTally<AtomicU64>;

impl MuxTally<u64> {
    /// Add this thread's counts to the daemon totals and start over.
    /// A worker calls it as each idle wait ends, so a busy pass never
    /// writes shared memory and a wait's outcome is visible at once.
    fn publish(&mut self, to: &MuxCounters) {
        for (local, shared) in [
            (&mut self.passes, &to.passes),
            (&mut self.conns_ticked, &to.conns_ticked),
            (&mut self.idle_waits, &to.idle_waits),
            (&mut self.waits_woken, &to.waits_woken),
            (&mut self.waits_timed_out, &to.waits_timed_out),
            (&mut self.handoffs_parked, &to.handoffs_parked),
        ] {
            shared.fetch_add(std::mem::take(local), Ordering::Relaxed);
        }
    }
}

impl MuxCounters {
    /// `(name, total)` per counter, for the `stats` and `health` renderings.
    fn totals(&self) -> [(&'static str, u64); 6] {
        [
            ("passes", &self.passes),
            ("conns_ticked", &self.conns_ticked),
            ("idle_waits", &self.idle_waits),
            ("waits_woken", &self.waits_woken),
            ("waits_timed_out", &self.waits_timed_out),
            ("handoffs_parked", &self.handoffs_parked),
        ]
        .map(|(name, n)| (name, n.load(Ordering::Relaxed)))
    }
}

impl Introspect {
    pub(crate) fn new(workers: usize, slow_session: Option<Duration>) -> Self {
        let clock = Arc::new(SystemClock::new());
        Introspect {
            board: StatusBoard::new(clock.clone()),
            rates: Mutex::new(RateWindows::new()),
            reloads: Mutex::new(BTreeMap::new()),
            workers,
            slow_session_us: slow_session.map(micros),
            mux: MuxCounters::default(),
            clock,
        }
    }

    /// Stamp a successful reload of `name` for the `health` report.
    fn note_reload(&self, name: &str) {
        let t_us = self.clock.now_micros();
        self.reloads.lock().unwrap_or_else(PoisonError::into_inner).insert(name.to_owned(), t_us);
    }
}

/// The one-line WARN the watchdog emits alongside the
/// [`EventKind::SlowSession`] trace event. Split out so the format is
/// unit-testable without a live socket.
fn slow_session_warning(
    id: u64,
    peer: Option<SocketAddr>,
    phase: PhaseTag,
    waited_us: u64,
) -> String {
    let peer = peer.map_or_else(|| "-".to_owned(), |p| p.to_string());
    format!("WARN slow-session id={id} peer={peer} phase={} waited_us={waited_us}", phase.as_str())
}

/// State shared by every worker thread of one daemon: the collection
/// registry, the options, the admission counter, the stop flag, and the
/// metrics aggregate + log-callback sink every finished session reports
/// to.
pub(crate) struct Shared<F> {
    /// The served collections. Entry contents swap at runtime
    /// (`reload`); the name set is fixed for the daemon's lifetime.
    pub(crate) registry: Arc<CollectionRegistry>,
    /// Daemon knobs (retry policy, timeouts, admission cap).
    pub(crate) opts: DaemonOptions,
    /// Per-session report callback.
    pub(crate) log: F,
    /// Aggregate of every finished session's metrics snapshot.
    pub(crate) metrics: Arc<Mutex<MetricsSnapshot>>,
    /// The same finished-session metrics, bucketed by the collection
    /// the session was bound to. Every bucketed snapshot is also in
    /// the aggregate, so the buckets sum to it.
    pub(crate) per_collection: Arc<Mutex<BTreeMap<String, MetricsSnapshot>>>,
    /// Sessions currently admitted (handshaking or serving).
    pub(crate) active: AtomicUsize,
    /// Per worker, by index: what the acceptor weighs when it picks the
    /// worker for the next stream.
    pub(crate) loads: Vec<WorkerLoad>,
    /// Set by [`Daemon::shutdown`](crate::daemon::Daemon::shutdown).
    pub(crate) stop: Arc<AtomicBool>,
    /// Live-introspection state behind the `stats`/`sessions`/`health`
    /// admin verbs and the slow-session watchdog.
    pub(crate) intro: Arc<Introspect>,
    /// Frame-buffer pool shared by every session this daemon serves:
    /// encoded ARQ frames and reassembled inbound payloads draw their
    /// allocations here and return them on last drop.
    pub(crate) pool: BufferPool,
}

impl<F> Shared<F>
where
    F: Fn(SessionReport) + Send + Sync + 'static,
{
    /// Try to claim an admission slot. `false` means the connection
    /// must be refused with the typed capacity reason.
    fn try_admit(&self) -> bool {
        let Some(max) = self.opts.max_sessions else {
            self.active.fetch_add(1, Ordering::SeqCst);
            return true;
        };
        loop {
            let cur = self.active.load(Ordering::SeqCst);
            if cur >= max {
                return false;
            }
            if self
                .active
                .compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return true;
            }
        }
    }

    /// Release an admission slot claimed by [`Shared::try_admit`].
    fn release(&self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
    }

    /// Take over a stream the acceptor handed this worker: claim an
    /// admission slot (or mark the connection for the typed refusal)
    /// and put the socket in the poll loop's posture. `None` means the
    /// socket options failed; the stream is dropped.
    fn adopt(&self, stream: TcpStream) -> Option<MuxConn> {
        let admitted = self.try_admit();
        let now_us = self.intro.clock.now_micros();
        match MuxConn::new(stream, admitted, now_us, self.opts.handshake_timeout, &self.intro) {
            Ok(mut conn) => {
                conn.inbuf.set_pool(self.pool.clone());
                Some(conn)
            }
            Err(_) => {
                if admitted {
                    self.release();
                }
                None
            }
        }
    }

    /// Merge a finished session into the aggregate (and, when the
    /// session was bound to a collection, into that collection's
    /// bucket), rewrite the metrics file if configured, and deliver
    /// the report. The admission slot is released *before* this runs,
    /// so a report's delivery is proof the slot is free again.
    fn deliver(&self, report: SessionReport) {
        let aggregate = {
            let mut agg = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
            agg.merge(&report.metrics);
            agg.clone()
        };
        if let Some(name) = &report.collection {
            let mut per = self.per_collection.lock().unwrap_or_else(PoisonError::into_inner);
            per.entry(name.clone()).or_insert_with(MetricsSnapshot::new).merge(&report.metrics);
        }
        if let Some(path) = &self.opts.metrics_out {
            // Best-effort: metrics must never fail a session. Atomic so
            // a concurrent scrape never reads a torn rendering.
            let _ = msync_core::atomic_write_file(path, self.render_metrics(&aggregate).as_bytes());
        }
        (self.log)(report);
    }

    /// The daemon's full Prometheus dump: the aggregate (typed, with
    /// histograms) followed by one `collection`-labeled counter block
    /// per served collection.
    fn render_metrics(&self, aggregate: &MetricsSnapshot) -> String {
        let mut text = aggregate.render_prometheus();
        let per = self.per_collection.lock().unwrap_or_else(PoisonError::into_inner);
        for (name, snap) in per.iter() {
            text.push_str(&snap.render_prometheus_collection(name));
        }
        let p = self.pool.stats();
        for (name, value) in [
            ("msync_frame_pool_allocated_total", p.allocated_total),
            ("msync_frame_pool_reused_total", p.reused_total),
            ("msync_frame_pool_returned_total", p.returned_total),
        ] {
            let _ = writeln!(text, "# TYPE {name} counter");
            let _ = writeln!(text, "{name} {value}");
        }
        for (name, value) in [
            ("msync_frame_pool_outstanding", p.outstanding),
            ("msync_frame_pool_high_water", p.high_water),
            ("msync_frame_pool_idle", p.idle),
        ] {
            let _ = writeln!(text, "# TYPE {name} gauge");
            let _ = writeln!(text, "{name} {value}");
        }
        let c = msync_core::codec_scratch_stats();
        for (name, kind, value) in [
            ("msync_codec_heads_allocated_total", "counter", c.heads_allocated_total),
            ("msync_codec_heads_reused_total", "counter", c.heads_reused_total),
            ("msync_codec_scratch_retained_bytes", "gauge", c.retained_bytes),
        ] {
            let _ = writeln!(text, "# TYPE {name} {kind}");
            let _ = writeln!(text, "{name} {value}");
        }
        for (name, value) in self.intro.mux.totals() {
            let _ = writeln!(text, "# TYPE msync_mux_{name}_total counter");
            let _ = writeln!(text, "msync_mux_{name}_total {value}");
        }
        text
    }

    /// Copy of the finished-session aggregate. Live sessions merge in
    /// when they finish; the `sessions` verb is the live view.
    fn aggregate_now(&self) -> MetricsSnapshot {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// The `stats` verb's payload: the Prometheus dump plus the
    /// windowed rate gauges, or the flat JSON rendering. Scraping also
    /// feeds the rate estimator, so a lone scraper still gets rates.
    fn stats_payload(&self, json: bool) -> String {
        let aggregate = self.aggregate_now();
        let now_us = self.intro.clock.now_micros();
        let mut rates = self.intro.rates.lock().unwrap_or_else(PoisonError::into_inner);
        rates.sample(now_us, &aggregate);
        if json {
            aggregate.render_json()
        } else {
            let mut text = self.render_metrics(&aggregate);
            text.push_str(&rates.render_gauges(now_us));
            text
        }
    }

    /// The `sessions` verb's payload: the live session table.
    fn sessions_payload(&self) -> String {
        render_sessions(&self.intro.board.snapshot(), self.intro.clock.now_micros())
    }

    /// The `health` verb's payload: daemon vitals as `key=value` lines.
    fn health_payload(&self) -> String {
        let aggregate = self.aggregate_now();
        let sessions = self.intro.board.snapshot();
        let active = self.active.load(Ordering::SeqCst);
        let mut out = String::new();
        let _ = writeln!(out, "uptime_us={}", self.intro.clock.now_micros());
        let _ = writeln!(out, "workers={}", self.intro.workers);
        let _ = writeln!(out, "active_conns={active}");
        let _ = writeln!(out, "live_sessions={}", sessions.len());
        let _ = writeln!(
            out,
            "live_slow_sessions={}",
            sessions.iter().filter(|s| s.slow_flagged).count()
        );
        match self.opts.max_sessions {
            Some(max) => {
                let _ = writeln!(out, "max_sessions={max}");
                let _ = writeln!(out, "admission_headroom={}", max.saturating_sub(active));
            }
            None => {
                let _ = writeln!(out, "max_sessions=unlimited");
            }
        }
        let _ = writeln!(out, "watchdog_threshold_us={}", self.intro.slow_session_us.unwrap_or(0));
        let _ = writeln!(out, "trace_events_dropped={}", aggregate.events_dropped);
        let _ = writeln!(out, "slow_sessions_total={}", aggregate.slow_sessions);
        let reloads = self.intro.reloads.lock().unwrap_or_else(PoisonError::into_inner);
        for (name, t_us) in reloads.iter() {
            let _ = writeln!(out, "last_reload_us.{name}={t_us}");
        }
        for (name, value) in self.intro.mux.totals() {
            let _ = writeln!(out, "mux_{name}={value}");
        }
        out
    }

    /// Execute one admin command: the full `ok …` reply plus the
    /// reload file count for the session outcome, or the `err` reason.
    fn execute_admin(&self, cmd: AdminCmd) -> Result<(String, usize), String> {
        match cmd {
            AdminCmd::Reload(name) => self.registry.reload(&name).map(|files| {
                self.intro.note_reload(&name);
                (format!("ok {files}"), files)
            }),
            AdminCmd::Stats { json } => Ok((format!("ok\n{}", self.stats_payload(json)), 0)),
            AdminCmd::Sessions => Ok((format!("ok\n{}", self.sessions_payload()), 0)),
            AdminCmd::Health => Ok((format!("ok\n{}", self.health_payload()), 0)),
        }
    }
}

/// What the acceptor knows of one worker.
#[derive(Default)]
pub(crate) struct WorkerLoad {
    /// Streams handed to the worker and not yet finished: the acceptor
    /// adds one per handoff, the worker takes one off per connection it
    /// finishes or fails to adopt.
    conns: AtomicUsize,
    /// The worker is parked on its one connection's socket, so a stream
    /// handed to it waits until that wait ends.
    parked: AtomicBool,
}

/// The worker the acceptor hands its next stream: the one with the
/// fewest connections, an unparked one on a tie (a parked worker sees
/// the stream only when its socket wait ends), the lowest index after
/// that.
fn choose_worker(loads: &[WorkerLoad]) -> usize {
    loads
        .iter()
        .enumerate()
        .min_by_key(|(_, l)| (l.conns.load(Ordering::SeqCst), l.parked.load(Ordering::SeqCst)))
        .map_or(0, |(i, _)| i)
}

/// Where one multiplexed connection is in its life.
enum ConnPhase {
    /// Admitted; waiting for the client hello.
    Hello,
    /// Over capacity; waiting for the hello so the typed refusal can be
    /// delivered in reply (an unsolicited close would race the
    /// client's own send and surface as a bare disconnect).
    Refused,
    /// Handshake agreed; the collection-serve machine is running.
    Serving,
    /// Session decided; flushing queued output, then closing.
    Drain,
}

/// One multiplexed connection.
struct MuxConn {
    stream: TcpStream,
    peer: Option<SocketAddr>,
    admitted: bool,
    phase: ConnPhase,
    machine: Option<CollectionServeMachine>,
    /// The snapshot this session was bound to at handshake time. A
    /// registry swap replaces the entry's `Arc`, never this one: the
    /// session finishes against the collection it started with.
    snapshot: Option<Arc<CollectionSnapshot>>,
    /// Canonical name of the bound collection, for per-collection
    /// metrics bucketing.
    collection: Option<String>,
    /// Hello deadline while in `Hello` / `Refused`.
    deadline_us: u64,
    result: Option<Result<ServeOutcome, NetError>>,
    inbuf: FrameBuffer,
    /// Outbound frames awaiting the socket, each a framing header plus
    /// a refcounted payload share — never a flattened byte copy. The
    /// whole queue flushes through one vectored write per pump.
    outq: VecDeque<(Vec<u8>, FrameBuf)>,
    /// Bytes of the queue's front frames already written.
    out_pos: usize,
    /// When the current outbound stall began, if one is in progress.
    stall_since_us: Option<u64>,
    /// When the peer last sent a byte (adoption, until it first does).
    heard_us: u64,
    eof: bool,
    /// A corrupt frame poisoned the inbound stream (the reassembler
    /// cannot advance past a bad length word); stop reading and let the
    /// machine's retry budget conclude the session.
    poisoned: bool,
    meter: WireMeter,
    recorder: Recorder,
    /// Live status slot on the daemon's board; `None` for refused
    /// connections and for admin exchanges (which de-list themselves).
    status: Option<StatusHandle>,
}

impl MuxConn {
    fn new(
        stream: TcpStream,
        admitted: bool,
        now_us: u64,
        handshake_timeout: Duration,
        intro: &Introspect,
    ) -> std::io::Result<Self> {
        let peer = stream.peer_addr().ok();
        // Same socket posture as the blocking transport: no Nagle (the
        // protocol is request/response), plus a defensive read deadline
        // — nonblocking reads return immediately regardless, but no
        // code path may ever issue an undeadlined blocking read.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(WRITE_STALL))?;
        stream.set_nonblocking(true)?;
        // Every recorder shares the daemon clock, so the board's ages
        // and the watchdog's waits are in one epoch.
        let recorder = Recorder::with_clock(intro.clock.clone());
        let status = admitted.then(|| {
            let label = peer.map_or_else(|| "-".to_owned(), |p| p.to_string());
            intro.board.register(&label)
        });
        if let Some(handle) = &status {
            recorder.set_status(handle.clone());
        }
        let mut meter = WireMeter::default();
        meter.set_recorder(recorder.clone());
        Ok(Self {
            stream,
            peer,
            admitted,
            phase: if admitted { ConnPhase::Hello } else { ConnPhase::Refused },
            machine: None,
            snapshot: None,
            collection: None,
            deadline_us: now_us.saturating_add(micros(handshake_timeout)),
            result: None,
            inbuf: FrameBuffer::default(),
            outq: VecDeque::new(),
            out_pos: 0,
            stall_since_us: None,
            heard_us: now_us,
            eof: false,
            poisoned: false,
            meter,
            recorder,
            status,
        })
    }

    /// Queue one frame for sending, charged to `phase` when queued.
    fn queue_send(&mut self, payload: &FrameBuf, split: PhaseSplit, retransmit: bool) {
        self.outq.push_back((frame_header(payload), payload.share()));
        self.meter.sent(Direction::ServerToClient, split, payload.len());
        if retransmit {
            self.meter.note_retransmits(1);
        }
    }

    /// End the session with `error` (unless a verdict already landed)
    /// and move to the drain phase.
    fn fail(&mut self, error: NetError) {
        if self.result.is_none() {
            self.result = Some(Err(error));
        }
        self.phase = ConnPhase::Drain;
    }

    /// Drain the machine's queued effects. Returns whether anything
    /// observable happened (a transmission or the session finishing).
    fn pump_machine(&mut self, now_us: u64) -> bool {
        let Some(mut m) = self.machine.take() else {
            return false;
        };
        let files = self.snapshot.as_ref().map_or(0, |s| s.files().len());
        let mut progressed = false;
        loop {
            match m.poll_output(now_us) {
                Ok(Output::Transmit { frame, split, retransmit }) => {
                    self.queue_send(&frame, split, retransmit);
                    progressed = true;
                }
                Ok(Output::Attribute { split }) => self.meter.attribute(split),
                Ok(Output::Wait { .. }) => break,
                Ok(Output::Done) => {
                    let outcome = m.outcome(files, self.meter.stats());
                    self.result = Some(Ok(outcome));
                    self.phase = ConnPhase::Drain;
                    progressed = true;
                    break;
                }
                Err(e) => {
                    self.fail(NetError::Sync(e));
                    progressed = true;
                    break;
                }
            }
        }
        self.machine = Some(m);
        progressed
    }

    /// The first frame arrived on an admitted connection: an admin
    /// command is executed and answered; a client hello is evaluated,
    /// resolved against the registry, and — if everything holds — the
    /// serve machine starts, bound to the resolved snapshot for the
    /// life of the session.
    fn on_hello<F>(&mut self, payload: &[u8], shared: &Shared<F>, now_us: u64)
    where
        F: Fn(SessionReport) + Send + Sync + 'static,
    {
        let retry = shared.opts.retry;
        self.meter.attribute(Phase::Setup.into());
        if let Some(cmd) = parse_admin(payload) {
            self.on_admin(cmd, shared);
            return;
        }
        let outcome = match eval_hello(payload) {
            HelloOutcome::Accept { cfg, collection, reply } => {
                match shared.registry.resolve(collection.as_deref()) {
                    Some((name, snap)) => {
                        self.snapshot = Some(snap);
                        if let Some(status) = &self.status {
                            status.set_collection(&name);
                        }
                        self.collection = Some(name);
                        HelloOutcome::Accept { cfg, collection, reply }
                    }
                    // `collection` is Some here: a `None` request
                    // resolves to the default entry, which always
                    // exists.
                    None => {
                        let (reply, error) =
                            unknown_collection_reject(collection.as_deref().unwrap_or_default());
                        HelloOutcome::Reject { reply, error }
                    }
                }
            }
            reject => reject,
        };
        match outcome {
            HelloOutcome::Accept { cfg, reply, .. } => {
                self.queue_send(&FrameBuf::from(reply), Phase::Setup.into(), false);
                self.recorder.record(EventKind::Handshake { ok: true });
                match CollectionServeMachine::new(&cfg, retry, self.recorder.clone(), now_us) {
                    Ok(mut m) => {
                        m.set_pool(shared.pool.clone());
                        self.machine = Some(m);
                        self.phase = ConnPhase::Serving;
                    }
                    Err(e) => self.fail(NetError::Sync(e)),
                }
            }
            HelloOutcome::Reject { reply, error } => {
                self.queue_send(&FrameBuf::from(reply), Phase::Setup.into(), false);
                self.recorder.record(EventKind::Handshake { ok: false });
                self.fail(error);
            }
        }
    }

    /// Execute one admin command and answer `ok …` / `err …`. The
    /// connection then drains: admin exchanges are one-shot.
    fn on_admin<F>(&mut self, cmd: Result<AdminCmd, String>, shared: &Shared<F>)
    where
        F: Fn(SessionReport) + Send + Sync + 'static,
    {
        // An admin exchange is not a sync session: de-list it before
        // rendering, so `sessions` never shows the scrape itself.
        self.recorder.clear_status();
        self.status = None;
        match cmd.and_then(|cmd| shared.execute_admin(cmd)) {
            Ok((reply, files)) => {
                self.queue_send(&FrameBuf::from(reply.into_bytes()), Phase::Setup.into(), false);
                self.recorder.record(EventKind::Handshake { ok: true });
                self.result =
                    Some(Ok(ServeOutcome { files, sessions: 0, traffic: self.meter.stats() }));
                self.phase = ConnPhase::Drain;
            }
            Err(reason) => {
                let reply = format!("err {reason}").into_bytes();
                self.queue_send(&FrameBuf::from(reply), Phase::Setup.into(), false);
                self.recorder.record(EventKind::Handshake { ok: false });
                self.fail(NetError::Handshake(format!("admin command failed: {reason}")));
            }
        }
    }

    /// The hello of an over-capacity connection arrived: answer with
    /// the typed refusal and drain.
    fn on_refused_hello(&mut self) {
        self.meter.attribute(Phase::Setup.into());
        let reply = format!("err {REFUSAL_REASON}").into_bytes();
        self.queue_send(&FrameBuf::from(reply), Phase::Setup.into(), false);
        self.recorder.record(EventKind::Handshake { ok: false });
        self.fail(NetError::Handshake(format!("refused client: {REFUSAL_REASON}")));
    }

    /// One poll-loop visit: read (through the worker's `scratch`
    /// buffer), dispatch frames, service deadlines, run the watchdog,
    /// flush. Returns whether the connection made observable progress.
    fn tick<F>(&mut self, shared: &Shared<F>, scratch: &mut [u8]) -> bool
    where
        F: Fn(SessionReport) + Send + Sync + 'static,
    {
        let now_us = shared.intro.clock.now_micros();
        let mut progressed = false;

        // Read whatever the socket has. Drain mode stops reading: the
        // verdict is in, and any unread bytes belong to no session.
        if !self.eof && !self.poisoned && !matches!(self.phase, ConnPhase::Drain) {
            loop {
                match self.stream.read(scratch) {
                    Ok(0) => {
                        self.eof = true;
                        progressed = true;
                        break;
                    }
                    Ok(n) => {
                        self.inbuf.extend(&scratch[..n]);
                        self.heard_us = now_us;
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        self.eof = true;
                        progressed = true;
                        break;
                    }
                }
            }
        }

        // Dispatch complete frames. The machine is pumped after every
        // frame so attribution pools exactly one frame's bytes, the
        // same interleaving the blocking pump produces.
        loop {
            if self.poisoned || matches!(self.phase, ConnPhase::Drain) {
                break;
            }
            match self.inbuf.take_frame() {
                Ok(Some((payload, wire))) => {
                    progressed = true;
                    self.meter.received(Direction::ClientToServer, wire);
                    match self.phase {
                        ConnPhase::Hello => {
                            self.on_hello(&payload, shared, now_us);
                            self.pump_machine(now_us);
                        }
                        ConnPhase::Refused => self.on_refused_hello(),
                        ConnPhase::Serving => {
                            if let Some(mut m) = self.machine.take() {
                                // Serving implies a bound snapshot; the
                                // machine always sees the one Arc this
                                // session bound at handshake time.
                                let snap = self.snapshot.clone();
                                let fed = match &snap {
                                    Some(snap) => m.on_frame(snap, &payload, now_us),
                                    None => Err(SyncError::Desync("serving without a snapshot")),
                                };
                                self.machine = Some(m);
                                if let Err(e) = fed {
                                    self.fail(NetError::Sync(e));
                                } else {
                                    self.pump_machine(now_us);
                                }
                            }
                        }
                        ConnPhase::Drain => {}
                    }
                }
                Ok(None) => break,
                Err(err) => {
                    progressed = true;
                    self.poisoned = true;
                    match self.phase {
                        ConnPhase::Hello | ConnPhase::Refused => {
                            self.recorder.record(EventKind::Handshake { ok: false });
                            self.fail(NetError::Channel(err));
                        }
                        ConnPhase::Serving => {
                            if let Some(mut m) = self.machine.take() {
                                let fed = m.on_corrupt_frame(now_us);
                                self.machine = Some(m);
                                if let Err(e) = fed {
                                    self.fail(NetError::Sync(e));
                                }
                            }
                        }
                        ConnPhase::Drain => {}
                    }
                    break;
                }
            }
        }

        // Peer hung up: during the handshake that is a failed session;
        // in service it is the normal end (the client owns the verdict
        // and disconnecting is how it signals completion).
        if self.eof {
            match self.phase {
                ConnPhase::Hello | ConnPhase::Refused => {
                    self.recorder.record(EventKind::Handshake { ok: false });
                    self.fail(NetError::Channel(ChannelError::Disconnected));
                }
                ConnPhase::Serving => {
                    if let Some(mut m) = self.machine.take() {
                        let fed = m.on_disconnect();
                        self.machine = Some(m);
                        if let Err(e) = fed {
                            self.fail(NetError::Sync(e));
                        }
                    }
                }
                ConnPhase::Drain => {}
            }
        }

        // Deadlines: the hello has its own; a serving machine observes
        // expiry itself when polled with the current time.
        match self.phase {
            ConnPhase::Hello | ConnPhase::Refused => {
                if now_us >= self.deadline_us {
                    self.recorder.record(EventKind::Handshake { ok: false });
                    self.fail(NetError::Channel(ChannelError::Timeout));
                    progressed = true;
                }
            }
            ConnPhase::Serving => progressed |= self.pump_machine(now_us),
            ConnPhase::Drain => {}
        }

        // Slow-session watchdog: a session sitting in one protocol
        // phase past the threshold gets one trace event and one WARN
        // line per stall (the flag rearms on phase change).
        if !matches!(self.phase, ConnPhase::Drain) {
            if let (Some(threshold_us), Some(status)) = (shared.intro.slow_session_us, &self.status)
            {
                if let Some((phase, waited_us)) = status.check_slow(now_us, threshold_us) {
                    self.recorder.record(EventKind::SlowSession { phase, waited_us });
                    let id = status.snapshot().id;
                    eprintln!("{}", slow_session_warning(id, self.peer, phase, waited_us));
                    progressed = true;
                }
            }
        }

        progressed |= self.flush(now_us);
        progressed
    }

    /// Write as much queued output as the socket accepts. A stall
    /// longer than [`WRITE_STALL`] or a hard write error declares the
    /// peer gone, exactly as the blocking transport's write timeout
    /// would.
    fn flush(&mut self, now_us: u64) -> bool {
        let mut progressed = false;
        while !self.outq.is_empty() {
            // Gather the queue into one vectored write: each frame
            // contributes its header slice and its payload slice (the
            // shared allocation), with already-written bytes skipped.
            let wrote = {
                let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(self.outq.len() * 2);
                let mut skip = self.out_pos;
                for (header, payload) in &self.outq {
                    for part in [&header[..], &payload[..]] {
                        if skip >= part.len() {
                            skip -= part.len();
                        } else {
                            slices.push(IoSlice::new(&part[skip..]));
                            skip = 0;
                        }
                    }
                }
                self.stream.write_vectored(&slices)
            };
            match wrote {
                Ok(0) => {
                    self.give_up_output(NetError::Sync(SyncError::PeerGone));
                    break;
                }
                Ok(n) => {
                    self.out_pos += n;
                    self.stall_since_us = None;
                    progressed = true;
                    // Retire fully written frames; their payload shares
                    // drop here and pooled buffers go home.
                    while let Some((header, payload)) = self.outq.front() {
                        let frame_len = header.len() + payload.len();
                        if self.out_pos < frame_len {
                            break;
                        }
                        self.out_pos -= frame_len;
                        self.outq.pop_front();
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    let since = *self.stall_since_us.get_or_insert(now_us);
                    if now_us.saturating_sub(since) >= micros(WRITE_STALL) {
                        self.give_up_output(NetError::Sync(SyncError::Timeout));
                    }
                    break;
                }
                Err(_) => {
                    self.give_up_output(NetError::Sync(SyncError::PeerGone));
                    break;
                }
            }
        }
        progressed
    }

    /// The peer stopped draining our output: discard it and end the
    /// session (keeping any verdict that already landed).
    fn give_up_output(&mut self, error: NetError) {
        self.outq.clear();
        self.out_pos = 0;
        self.eof = true;
        if self.result.is_none() {
            self.result = Some(Err(error));
        }
        self.phase = ConnPhase::Drain;
    }

    /// Whether the session is over and fully flushed (or unflushable).
    fn is_done(&self) -> bool {
        matches!(self.phase, ConnPhase::Drain) && (self.outq.is_empty() || self.eof)
    }

    /// Whether an idle worker may wait on this connection's socket: the
    /// next thing it needs is the peer's next frame. A draining, hung-up
    /// or poisoned connection reads nothing more, and queued output
    /// needs the socket to drain, not the peer to speak.
    fn waitable(&self) -> bool {
        !matches!(self.phase, ConnPhase::Drain)
            && !self.eof
            && !self.poisoned
            && self.outq.is_empty()
    }

    /// Whether the connection waits on a peer that has been silent for a
    /// whole retry `timeout` at `now_us`. A session in progress answers
    /// well within one; a quiet one would hold a shutdown for its whole
    /// retry budget.
    fn quiet(&self, now_us: u64, timeout: Duration) -> bool {
        self.waitable() && now_us.saturating_sub(self.heard_us) >= micros(timeout)
    }

    /// Consume the connection into its report.
    fn finish(self) -> SessionReport {
        let result = self.result.unwrap_or(Err(NetError::Handshake(
            "session ended before reaching a verdict".to_owned(),
        )));
        SessionReport {
            peer: self.peer,
            result,
            metrics: self.recorder.snapshot(),
            collection: self.collection,
        }
    }
}

/// Block until `stream` has a byte to read or its peer hangs up, for at
/// most `bound`, then restore the poll loop's socket posture
/// (nonblocking, [`WRITE_STALL`] read deadline). `Ok(true)` means the
/// peer woke the wait, `Ok(false)` that the bound ran out. An error
/// means the posture may not be restored: the caller must fail the
/// session rather than tick a socket that might block.
fn wait_readable(stream: &TcpStream, bound: Duration) -> io::Result<bool> {
    stream.set_nonblocking(false)?;
    let waited = stream.set_read_timeout(Some(bound)).map(|()| {
        let mut byte = [0u8; 1];
        match stream.peek(&mut byte) {
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                false
            }
            // A frame, a hang-up (`Ok(0)`) or a pending socket error:
            // the next tick's read reports each.
            _ => true,
        }
    });
    stream.set_nonblocking(true)?;
    stream.set_read_timeout(Some(WRITE_STALL))?;
    waited
}

/// The daemon's acceptor thread: block in `accept`, hand each stream to
/// the worker [`choose_worker`] picks, and back off [`ACCEPT_BACKOFF`]
/// when `accept` fails. [`Daemon::shutdown`](crate::daemon::Daemon::shutdown)
/// sets the stop flag and then connects once to wake this thread; it
/// drops that stream (and any other accepted after the flag went up)
/// and returns, closing the listener and every inbox, which wakes the
/// idle workers so they drain and exit.
pub(crate) fn accept_loop<F>(
    listener: &TcpListener,
    inboxes: &[Sender<TcpStream>],
    shared: &Shared<F>,
) where
    F: Fn(SessionReport) + Send + Sync + 'static,
{
    let mut tally = MuxTally::<u64>::default();
    while !shared.stop.load(Ordering::SeqCst) {
        let Ok((stream, _)) = listener.accept() else {
            std::thread::sleep(ACCEPT_BACKOFF);
            continue;
        };
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let w = choose_worker(&shared.loads);
        let load = &shared.loads[w];
        load.conns.fetch_add(1, Ordering::SeqCst);
        if load.parked.load(Ordering::SeqCst) {
            tally.handoffs_parked += 1;
            tally.publish(&shared.intro.mux);
        }
        // A worker only drops its inbox once it has exited at shutdown.
        if inboxes[w].send(stream).is_err() {
            load.conns.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// One worker thread's poll loop: adopt the streams the acceptor hands
/// over `inbox`, tick every owned connection, deliver finished
/// sessions, wait when fully idle. On shutdown the worker drains its
/// in-flight sessions, ends each one whose peer has been silent for a
/// retry timeout ([`MuxConn::quiet`]) with [`NetError::Shutdown`], and
/// returns.
///
/// The idle wait, by what the worker holds:
/// * no connection: block on the inbox (for at most [`RATE_SAMPLE_US`],
///   so the rate windows keep their samples), woken by the next
///   handoff;
/// * exactly one connection waiting on its peer: park on that socket
///   ([`wait_readable`]), so the peer's next frame is served the moment
///   it lands — after one last look at the inbox, since a stream handed
///   over during the wait waits for it to end;
/// * anything else: wait on the inbox for at most [`IDLE_SLEEP`].
pub(crate) fn worker_loop<F>(id: usize, inbox: &Receiver<TcpStream>, shared: &Shared<F>)
where
    F: Fn(SessionReport) + Send + Sync + 'static,
{
    let clock = Arc::clone(&shared.intro.clock);
    let load = &shared.loads[id];
    let mut conns: Vec<MuxConn> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut tally = MuxTally::<u64>::default();
    let mut last_sample_us = 0u64;
    // A stream the last idle wait received.
    let mut handed: Option<TcpStream> = None;
    loop {
        tally.passes += 1;
        let stopping = shared.stop.load(Ordering::SeqCst);
        let mut progressed = false;
        // Feed the rate estimator about once a second per worker; the
        // estimator itself drops submissions that land too close.
        let now_us = clock.now_micros();
        if now_us >= last_sample_us.saturating_add(RATE_SAMPLE_US) {
            last_sample_us = now_us;
            let aggregate = shared.metrics.lock().unwrap_or_else(PoisonError::into_inner).clone();
            shared
                .intro
                .rates
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .sample(now_us, &aggregate);
        }
        for stream in handed.take().into_iter().chain(inbox.try_iter()) {
            progressed = true;
            match shared.adopt(stream) {
                Some(conn) => conns.push(conn),
                None => {
                    load.conns.fetch_sub(1, Ordering::SeqCst);
                }
            }
        }
        tally.conns_ticked += conns.len() as u64;
        let mut i = 0;
        while i < conns.len() {
            progressed |= conns[i].tick(shared, &mut scratch);
            if stopping && conns[i].quiet(clock.now_micros(), shared.opts.retry.timeout) {
                conns[i].fail(NetError::Shutdown);
            }
            if conns[i].is_done() {
                let conn = conns.swap_remove(i);
                if conn.admitted {
                    shared.release();
                }
                load.conns.fetch_sub(1, Ordering::SeqCst);
                shared.deliver(conn.finish());
                progressed = true;
            } else {
                i += 1;
            }
        }
        if stopping && conns.is_empty() {
            return;
        }
        if !progressed {
            tally.idle_waits += 1;
            handed = match conns.as_mut_slice() {
                // A closed inbox means shutdown: the next pass returns.
                [] => inbox.recv_timeout(Duration::from_micros(RATE_SAMPLE_US)).ok(),
                [conn] if conn.waitable() => {
                    load.parked.store(true, Ordering::SeqCst);
                    let handed = inbox.try_recv().ok();
                    if handed.is_none() {
                        match wait_readable(&conn.stream, IDLE_SLEEP) {
                            Ok(true) => tally.waits_woken += 1,
                            Ok(false) => tally.waits_timed_out += 1,
                            Err(e) => conn.fail(NetError::Io(e)),
                        }
                    }
                    load.parked.store(false, Ordering::SeqCst);
                    handed
                }
                _ => match inbox.recv_timeout(IDLE_SLEEP) {
                    Ok(stream) => Some(stream),
                    Err(RecvTimeoutError::Timeout) => None,
                    // The acceptor has left (shutdown): pace the drain
                    // of the last sessions instead of spinning.
                    Err(RecvTimeoutError::Disconnected) => {
                        std::thread::sleep(IDLE_SLEEP);
                        None
                    }
                },
            };
            tally.publish(&shared.intro.mux);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A connected loopback pair: the daemon's end in the poll loop's
    /// socket posture, and the peer's end.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (ours, _) = listener.accept().unwrap();
        ours.set_read_timeout(Some(WRITE_STALL)).unwrap();
        ours.set_nonblocking(true).unwrap();
        (ours, peer)
    }

    /// The wait handed the socket back in the poll loop's posture: the
    /// write-stall deadline is in place and a read with nothing queued
    /// returns `WouldBlock` at once (a blocking read would return it too,
    /// but only after the whole deadline).
    fn assert_restored(ours: &mut TcpStream) {
        assert_eq!(ours.read_timeout().unwrap(), Some(WRITE_STALL));
        let start = std::time::Instant::now();
        let err = ours.read(&mut [0u8; 16]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WouldBlock);
        assert!(start.elapsed() < Duration::from_secs(1), "the read blocked");
    }

    // The woken cases wait with a bound far beyond the test's runtime,
    // so `true` can only mean the peer ended the wait.
    const LONG: Duration = Duration::from_secs(20);

    #[test]
    fn wait_wakes_on_bytes_already_sent() {
        let (mut ours, mut peer) = pair();
        peer.write_all(b"frame").unwrap();
        assert!(wait_readable(&ours, LONG).unwrap());
        // The wait only peeked: the bytes are all still there.
        let mut buf = [0u8; 16];
        assert_eq!(ours.read(&mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"frame");
        assert_restored(&mut ours);
    }

    #[test]
    fn wait_times_out_on_silence() {
        let (mut ours, _peer) = pair();
        assert!(!wait_readable(&ours, IDLE_SLEEP).unwrap());
        assert_restored(&mut ours);
    }

    #[test]
    fn wait_wakes_on_hang_up() {
        let (mut ours, peer) = pair();
        drop(peer);
        assert!(wait_readable(&ours, LONG).unwrap());
        // End of stream reads as `Ok(0)` in either mode, so only the
        // deadline is observable here; the other two cases show the
        // mode comes back.
        assert_eq!(ours.read(&mut [0u8; 16]).unwrap(), 0);
        assert_eq!(ours.read_timeout().unwrap(), Some(WRITE_STALL));
    }

    #[test]
    fn tally_publishes_and_starts_over() {
        let totals = MuxCounters::default();
        let mut tally = MuxTally {
            passes: 3,
            conns_ticked: 5,
            idle_waits: 2,
            waits_woken: 1,
            waits_timed_out: 0,
            handoffs_parked: 6,
        };
        tally.publish(&totals);
        // The locals started over: a second publish adds only the new pass.
        tally.passes += 1;
        tally.publish(&totals);
        assert_eq!(
            totals.totals(),
            [
                ("passes", 4),
                ("conns_ticked", 5),
                ("idle_waits", 2),
                ("waits_woken", 1),
                ("waits_timed_out", 0),
                ("handoffs_parked", 6)
            ]
        );
    }

    #[test]
    fn acceptor_picks_the_least_loaded_worker() {
        let loads = |state: &[(usize, bool)]| -> Vec<WorkerLoad> {
            state
                .iter()
                .map(|&(conns, parked)| WorkerLoad {
                    conns: AtomicUsize::new(conns),
                    parked: AtomicBool::new(parked),
                })
                .collect()
        };
        // Fewest connections wins, parked or not.
        assert_eq!(choose_worker(&loads(&[(2, false), (1, true), (3, false)])), 1);
        // On a tie, the unparked worker wins, wherever it sits.
        assert_eq!(choose_worker(&loads(&[(1, true), (1, false)])), 1);
        assert_eq!(choose_worker(&loads(&[(1, false), (1, true)])), 0);
        // A full tie goes to the lowest index.
        assert_eq!(choose_worker(&loads(&[(0, false), (0, false)])), 0);
        assert_eq!(choose_worker(&loads(&[(1, true), (1, true)])), 0);
    }
}
