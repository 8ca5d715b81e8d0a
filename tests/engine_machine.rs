//! Machine-level tests of the sans-IO engine: drive
//! `CollectionClientMachine` / `CollectionServeMachine` — the pair the
//! daemon and every client run — by hand, with no transport, no threads
//! and no real clock, and assert the protocol is a deterministic
//! function of its inputs: the same collections and the same frame
//! schedule produce byte-identical output frames, and a dropped frame
//! plus a clock advance produces the same retransmission every run.

use msync::core::{
    CollectionClientMachine, CollectionServeMachine, CollectionSnapshot, FileEntry, Machine,
    Output, ProtocolConfig,
};
use msync::protocol::{BufferPool, FrameBuf, RetryPolicy, TrafficStats};
use msync::trace::{Clock, ManualClock, Recorder};

/// Fewer window slots than files, so admission order is part of what
/// must replay identically.
const DEPTH: usize = 2;

/// Three files, in roster (name) order on the server: an 80 KB one
/// with a mid-file edit (enough content for a multi-round map descent
/// without making the test slow), one that only the server has, and
/// one that did not change.
fn corpus() -> (Vec<FileEntry>, Vec<FileEntry>) {
    let text: Vec<u8> = b"the quick brown fox jumps over the lazy dog; "
        .iter()
        .copied()
        .cycle()
        .take(80_000)
        .collect();
    let mut edited = text.clone();
    edited.splice(40_000..40_100, b"EDITED SEGMENT ".iter().copied().cycle().take(250));
    let same = FileEntry::new("same.txt", &text[..9_000]);
    let old = vec![FileEntry::new("edited.txt", text), same.clone()];
    let new = vec![
        FileEntry::new("edited.txt", edited),
        FileEntry::new("fresh.txt", b"only the server has this one".repeat(40)),
        same,
    ];
    (old, new)
}

fn cfg() -> ProtocolConfig {
    ProtocolConfig { start_block: 1024, ..ProtocolConfig::default() }
}

fn new_client<'a>(
    old: &'a [FileEntry],
    config: &'a ProtocolConfig,
    now_us: u64,
) -> CollectionClientMachine<'a> {
    let retry = RetryPolicy::default();
    CollectionClientMachine::new(old, config, DEPTH, retry, Recorder::off(), now_us)
        .expect("client machine")
}

fn new_server(config: &ProtocolConfig, now_us: u64) -> CollectionServeMachine {
    CollectionServeMachine::new(config, RetryPolicy::default(), Recorder::off(), now_us)
        .expect("server machine")
}

/// What the client reconstructed, in roster order.
fn finish(client: CollectionClientMachine<'_>) -> Vec<FileEntry> {
    client.finish(TrafficStats::new()).expect("finished client yields a result").files
}

/// Drain one machine's queued effects, collecting transmissions.
/// Returns `(done, frames)`; stops at `Wait` or `Done`.
fn drain<M: Machine>(m: &mut M, now_us: u64) -> (bool, Vec<(FrameBuf, bool)>) {
    let mut frames = Vec::new();
    loop {
        match m.poll_output(now_us).expect("machine healthy") {
            Output::Transmit { frame, retransmit, .. } => frames.push((frame, retransmit)),
            Output::Attribute { .. } => {}
            Output::Wait { .. } => return (false, frames),
            Output::Done => return (true, frames),
        }
    }
}

/// Run one full client↔server session over a lossless in-test shuttle,
/// returning every frame in wire order plus the client's reconstruction.
/// With a pool, both machines draw their encoded frames from it.
fn run_session_with(
    old: &[FileEntry],
    new: &[FileEntry],
    pool: Option<&BufferPool>,
) -> (Vec<FrameBuf>, Vec<FileEntry>) {
    let clock = ManualClock::fixed(0);
    let config = cfg();
    let snap = CollectionSnapshot::new(new.to_vec());
    let mut client = new_client(old, &config, clock.now_micros());
    let mut server = new_server(&config, clock.now_micros());
    if let Some(pool) = pool {
        client.set_pool(pool.clone());
        server.set_pool(pool.clone());
    }
    let mut wire: Vec<FrameBuf> = Vec::new();

    for _ in 0..10_000 {
        let now = clock.now_micros();
        let (client_done, to_server) = drain(&mut client, now);
        for (frame, _) in to_server {
            server.on_frame(&snap, &frame, now).expect("server accepts frame");
            wire.push(frame);
        }
        if client_done {
            // The server saw the hang-up in the real deployment; here
            // the shuttle just stops driving it.
            server.on_disconnect().expect("server ends cleanly");
            return (wire, finish(client));
        }
        let (_, to_client) = drain(&mut server, now);
        for (frame, _) in to_client {
            client.on_frame(&(), &frame, now).expect("client accepts frame");
            wire.push(frame);
        }
    }
    panic!("session did not converge within the frame budget");
}

/// Replaying the identical inputs through fresh machines yields the
/// byte-identical frame sequence — the protocol has no hidden state,
/// no ambient clock, no RNG.
#[test]
fn recorded_frame_sequence_replays_identically() {
    let (old, new) = corpus();
    let (wire_a, files_a) = run_session_with(&old, &new, None);
    let (wire_b, files_b) = run_session_with(&old, &new, None);
    assert_eq!(files_a, new, "client must reconstruct the new collection exactly");
    assert_eq!(files_b, files_a);
    assert!(wire_a.len() >= 6, "a multi-round session crosses several frames: {}", wire_a.len());
    assert_eq!(wire_a.len(), wire_b.len(), "frame counts must match across runs");
    for (i, (a, b)) in wire_a.iter().zip(&wire_b).enumerate() {
        assert_eq!(a, b, "frame {i} differs between identical runs");
    }
}

/// Drop the opening roster, advance the manual clock past the retry
/// deadline, and the client retransmits the byte-identical frame with
/// the retransmit flag set — deterministically, run after run.
#[test]
fn dropped_frame_retransmits_deterministically_under_manual_clock() {
    let (old, new) = corpus();
    let config = cfg();
    let snap = CollectionSnapshot::new(new.clone());
    let timeout_us =
        u64::try_from(RetryPolicy::default().timeout.as_micros()).expect("sane timeout");

    let mut retransmits: Vec<FrameBuf> = Vec::new();
    for _ in 0..2 {
        let clock = ManualClock::fixed(0);
        let mut client = new_client(&old, &config, clock.now_micros());
        let mut server = new_server(&config, clock.now_micros());

        // The roster is generated... and lost on the wire.
        let (_, lost) = drain(&mut client, clock.now_micros());
        assert_eq!(lost.len(), 1, "the opening roster is one frame");
        assert!(!lost[0].1, "the first transmission is not a retransmit");

        // Nothing arrives; the deadline passes; the client retransmits.
        clock.advance(timeout_us + 1);
        let (_, resent) = drain(&mut client, clock.now_micros());
        assert_eq!(resent.len(), 1, "one retransmission after one deadline");
        assert!(resent[0].1, "the resend must be flagged as a retransmit");
        assert_eq!(resent[0].0, lost[0].0, "the resend is byte-identical to the lost frame");

        // Recovery completes: deliver the resend and run to the end.
        let now = clock.now_micros();
        server.on_frame(&snap, &resent[0].0, now).expect("server accepts the resend");
        let mut done = false;
        for _ in 0..10_000 {
            let now = clock.now_micros();
            let (_, to_client) = drain(&mut server, now);
            for (frame, _) in to_client {
                client.on_frame(&(), &frame, now).expect("client accepts frame");
            }
            let (client_done, to_server) = drain(&mut client, now);
            for (frame, _) in to_server {
                server.on_frame(&snap, &frame, now).expect("server accepts frame");
            }
            if client_done {
                done = true;
                break;
            }
        }
        assert!(done, "session completes after the retransmission");
        assert_eq!(finish(client), new, "reconstruction survives the lost frame");
        retransmits.push(resent[0].0.clone());
    }
    assert_eq!(retransmits[0], retransmits[1], "retransmission is deterministic across runs");
}

/// The ARQ resend path is a refcount bump, never a re-encode: the
/// retransmitted frame is pointer-identical (`FrameBuf::ptr_eq`) to the
/// allocation transmitted the first time, on every expiry.
#[test]
fn retransmission_shares_the_original_allocation() {
    let (old, _new) = corpus();
    let config = cfg();
    let timeout_us =
        u64::try_from(RetryPolicy::default().timeout.as_micros()).expect("sane timeout");

    let clock = ManualClock::fixed(0);
    let mut client = new_client(&old, &config, clock.now_micros());
    let (_, lost) = drain(&mut client, clock.now_micros());
    assert_eq!(lost.len(), 1, "the opening roster is one frame");

    for round in 1..=2u64 {
        // Deadlines back off; a generous advance always crosses the next.
        clock.advance(round * 8 * (timeout_us + 1));
        let (_, resent) = drain(&mut client, clock.now_micros());
        assert_eq!(resent.len(), 1, "round {round}: one retransmission per expiry");
        assert!(
            FrameBuf::ptr_eq(&resent[0].0, &lost[0].0),
            "round {round}: the resend must share the original allocation, not re-encode"
        );
    }
}

/// Pooled frame buffers return to the pool at session teardown, and the
/// pool's working set (high-water mark of concurrently outstanding
/// buffers) stays flat across repeated sessions: steady-state service
/// recycles allocations instead of growing.
#[test]
fn pooled_buffers_return_and_high_water_stays_flat() {
    let (old, new) = corpus();
    let pool = BufferPool::new(64);
    let mut marks = Vec::new();
    for i in 0..4 {
        let (wire, files) = run_session_with(&old, &new, Some(&pool));
        drop(wire);
        assert_eq!(files, new, "session {i} reconstructs exactly");
        let s = pool.stats();
        assert_eq!(s.outstanding, 0, "session {i}: every pooled frame must return at teardown");
        marks.push(s.high_water);
    }
    let s = pool.stats();
    assert!(s.returned_total > 0, "pooled buffers must come back: {s:?}");
    assert!(s.reused_total > 0, "later sessions must reuse returned buffers: {s:?}");
    assert_eq!(
        marks[1], marks[3],
        "steady-state sessions must not grow the pool working set: {marks:?}"
    );
}
