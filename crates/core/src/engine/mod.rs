//! Sans-IO session engine.
//!
//! The wire protocol of this crate — the stop-and-wait ARQ recovery
//! layer and the pipelined collection schedule above it — is expressed
//! here as pure state machines. A machine never touches a socket, a
//! channel, a thread, or a clock: the caller feeds it received frames
//! ([`Machine::on_frame`]) and drains its effects
//! ([`Machine::poll_output`]), supplying the current time on every call.
//! What to do with those effects is the caller's business:
//!
//! * the blocking drivers in [`crate::pipeline`] pump a machine over a
//!   [`Transport`](msync_protocol::Transport), sleeping in
//!   `recv_timeout` until the machine's deadline;
//! * the `msync-net` daemon multiplexes many machines over nonblocking
//!   sockets on a fixed worker pool, servicing deadlines from a poll
//!   loop.
//!
//! Because machines are deterministic functions of (frames, clock
//! readings), a recorded frame sequence replayed under a
//! [`ManualClock`](msync_trace::ManualClock) reproduces the exact same
//! output frames — the engine unit tests assert this.
//!
//! The module is I/O-free by construction and by lint: the xtask
//! `machine-discipline` rule bans `spawn`, `sleep` and blocking
//! `recv`/`read`-family calls anywhere under `crates/core/src/engine/`.
//!
//! A batch's per-file session work, and the fingerprinting behind the
//! roster, are the one place a machine leaves a choice to its driver:
//! each file's step is an independent [`Job`], and the machine hands
//! a batch's jobs to an installed [`Runner`] before committing their
//! results in wire order. The default,
//! [`run_in_order`], runs them one after another on the caller's
//! thread; the in-process pump installs one that spreads them over the
//! cores.

pub mod arq;
pub mod collection;

pub use collection::{CollectionClientMachine, CollectionServeMachine, CompletedFile};

use crate::session::SyncError;
use msync_protocol::{FrameBuf, PhaseSplit};

/// One file's share of a batch: its session's step over the message the
/// batch carried for it. The jobs of one batch touch disjoint state, so
/// a [`Runner`] may run them in any order and on any thread.
pub(crate) trait Job: Send {
    /// Run the step and keep its result for the machine's commit;
    /// `false` when it failed, after which the batch is lost and its
    /// later jobs need not run.
    fn run(&mut self) -> bool;
}

/// Work that cannot fail, as a [`Job`]: the closure writes its result
/// wherever it borrowed a place for it.
pub(crate) struct FnJob<F>(pub(crate) F);

impl<F: FnMut() + Send> Job for FnJob<F> {
    fn run(&mut self) -> bool {
        (self.0)();
        true
    }
}

/// Runs one batch's jobs, each at most once. A job that never ran (or
/// whose thread panicked) keeps an error result, which the machine's
/// commit reports unless an earlier job in wire order failed first.
pub(crate) type Runner = fn(&mut [&mut dyn Job]);

/// The default [`Runner`]: every job in wire order on the caller's
/// thread, stopping at the first failure — exactly the order in which a
/// recorder sees the sessions' events.
pub(crate) fn run_in_order(jobs: &mut [&mut dyn Job]) {
    for job in jobs {
        if !job.run() {
            return;
        }
    }
}

/// Hand `jobs` to `runner`.
pub(crate) fn run_jobs<J: Job>(runner: Runner, jobs: &mut [J]) {
    let mut jobs: Vec<&mut dyn Job> = jobs.iter_mut().map(|job| job as &mut dyn Job).collect();
    runner(&mut jobs);
}

/// One effect requested by a machine, drained via
/// [`Machine::poll_output`]. Effects must be executed in the order they
/// are returned; `Wait` and `Done` are always the last effect of a
/// drain.
#[derive(Debug)]
pub enum Output {
    /// Put this encoded ARQ frame on the wire, charged across `split`.
    /// `retransmit` marks recovery traffic so the transport's
    /// retransmission counter stays honest.
    Transmit {
        /// Encoded frame (ARQ header + payload), ready to send. A
        /// refcounted [`FrameBuf`]: retransmissions of the same frame
        /// carry shares of one allocation, and transports that queue
        /// output keep shares instead of copies.
        frame: FrameBuf,
        /// How the frame's bytes divide across accounting phases.
        split: PhaseSplit,
        /// Whether this is a retransmission of an earlier frame.
        retransmit: bool,
    },
    /// Attribute the most recently received frame's wire bytes across
    /// `split` (the transport pools inbound bytes until the frame has
    /// been parsed — which only the machine can do).
    Attribute {
        /// Accounting split parsed from the frame.
        split: PhaseSplit,
    },
    /// Nothing to do until a frame arrives or `deadline_us` passes
    /// (on the same clock the caller supplies as `now_us`).
    Wait {
        /// Absolute deadline in microseconds.
        deadline_us: u64,
    },
    /// The machine has finished; it will emit no further effects.
    Done,
}

/// The uniform driving surface of a session machine.
///
/// The contract, identical for every implementation:
///
/// 1. call [`poll_output`](Machine::poll_output) repeatedly, executing
///    effects, until it returns `Wait` or `Done`;
/// 2. on `Wait`, sleep (or poll) until a frame arrives or the deadline
///    passes, then call [`on_frame`](Machine::on_frame) /
///    [`on_corrupt_frame`](Machine::on_corrupt_frame) /
///    [`on_disconnect`](Machine::on_disconnect) as appropriate — a bare
///    deadline expiry needs no call at all, the next `poll_output`
///    observes it;
/// 3. repeat from 1 until `Done` or an error.
///
/// `Ctx` is whatever per-call context the machine needs but must not
/// own — the served [`CollectionSnapshot`](crate::CollectionSnapshot)
/// for the server, or `()` for the client, which borrows its inputs at
/// construction.
pub trait Machine {
    /// Caller-supplied context passed to every `on_frame` call.
    type Ctx: ?Sized;

    /// Feed one received frame payload to the machine. The frame is a
    /// refcounted [`FrameBuf`] so the machine can keep zero-copy views
    /// of it (message parts slice the frame's allocation).
    ///
    /// # Errors
    /// Any [`SyncError`] the frame provokes (desync, retry exhaustion).
    fn on_frame(&mut self, ctx: &Self::Ctx, bytes: &FrameBuf, now_us: u64)
        -> Result<(), SyncError>;

    /// Report a frame that failed the transport's integrity checks.
    ///
    /// # Errors
    /// [`SyncError::Desync`] if the link floods garbage past the cap.
    fn on_corrupt_frame(&mut self, now_us: u64) -> Result<(), SyncError>;

    /// Report that the peer disconnected.
    ///
    /// # Errors
    /// [`SyncError::PeerGone`] on the client side; server machines treat
    /// a hang-up as the normal end of service and return `Ok`.
    fn on_disconnect(&mut self) -> Result<(), SyncError>;

    /// Drain the machine's next effect.
    ///
    /// # Errors
    /// Any [`SyncError`] raised by an expired retry budget.
    fn poll_output(&mut self, now_us: u64) -> Result<Output, SyncError>;
}
