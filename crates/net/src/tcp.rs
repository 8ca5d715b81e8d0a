//! TCP-backed [`Transport`].
//!
//! The wire format is exactly the in-memory channel's: each frame is a
//! LEB128 payload length, a CRC32 over the payload, then the payload
//! ([`msync_protocol::encode_frame`]/[`decode_frame`]). A stream socket adds only the
//! need to reassemble frames from arbitrary read boundaries.
//!
//! Discipline (enforced by the xtask `channel-discipline` gate):
//!
//! * every socket read is preceded by `set_read_timeout`, so a dead or
//!   silent peer surfaces as [`ChannelError::Timeout`] within the ARQ
//!   retry budget instead of hanging the session forever;
//! * every io error maps to a typed [`ChannelError`] — timeouts to
//!   `Timeout`, connection teardown to `Disconnected`, and an inflated
//!   length word to `Corrupt` before any allocation happens.
//!
//! Accounting goes through the shared [`WireMeter`]: sends are charged
//! to the caller's phase at full wire size, like the in-memory channel,
//! and inbound bytes pool unattributed until the session layer parses
//! the frame header and calls [`Transport::attribute_inbound`] with the
//! real phase. The raw [`TcpTransport::socket_sent`] / [`TcpTransport::socket_received`]
//! counters are kept separately so tests can assert that the accounting
//! and the socket agree to the byte.

use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use msync_protocol::{
    decode_frame, frame_header, BufferPool, ChannelError, Direction, FrameBuf, FrameError,
    PhaseSplit, TrafficStats, Transport, WireMeter, MAX_FRAME_PAYLOAD,
};
use msync_trace::Recorder;

/// Bytes requested from the socket per read call.
const READ_CHUNK: usize = 64 * 1024;

/// Upper bound on a blocking write before the peer is declared gone.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Incremental frame reassembly over a byte stream.
///
/// A stream socket delivers bytes at arbitrary boundaries; this buffer
/// accumulates them ([`FrameBuffer::extend`]) and splits complete
/// frames off the front ([`FrameBuffer::take_frame`]). It is the one
/// implementation of the wire framing shared by the blocking
/// [`TcpTransport`] and the nonblocking daemon multiplexer, so the two
/// cannot drift.
#[derive(Debug, Default)]
pub(crate) struct FrameBuffer {
    buf: Vec<u8>,
    /// When set, extracted payloads are sealed into pooled buffers that
    /// return to `pool` on last drop.
    pool: Option<BufferPool>,
}

impl FrameBuffer {
    /// Draw payload buffers from `pool` from now on.
    pub(crate) fn set_pool(&mut self, pool: BufferPool) {
        self.pool = Some(pool);
    }

    /// Append raw bytes read from the stream.
    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Split one complete frame off the front, if present, returning
    /// the decoded payload and the frame's wire size. `Ok(None)` means
    /// more bytes are needed.
    ///
    /// # Errors
    /// [`ChannelError::Corrupt`] on an impossible length word (the
    /// buffer cannot advance past it) or a failed CRC (the frame's
    /// bytes are consumed, later frames remain readable) — the same
    /// contract the blocking transport has always had.
    pub(crate) fn take_frame(&mut self) -> Result<Option<(FrameBuf, u64)>, ChannelError> {
        let mut len = 0u64;
        let mut shift = 0u32;
        let mut pos = 0usize;
        loop {
            let Some(&b) = self.buf.get(pos) else {
                return Ok(None);
            };
            pos += 1;
            if shift >= 64 {
                return Err(ChannelError::Corrupt(FrameError::Length));
            }
            len |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                break;
            }
            shift += 7;
        }
        if len > MAX_FRAME_PAYLOAD {
            return Err(ChannelError::Corrupt(FrameError::Length));
        }
        let len = usize::try_from(len).map_err(|_| ChannelError::Corrupt(FrameError::Length))?;
        let total = pos
            .checked_add(4)
            .and_then(|t| t.checked_add(len))
            .ok_or(ChannelError::Corrupt(FrameError::Length))?;
        if self.buf.len() < total {
            return Ok(None);
        }
        // Validate in place, then copy the payload region once — out of
        // the reassembly window into a (pooled) allocation of its own.
        // The framing bytes are dropped where they lie; this is the only
        // copy a received frame's payload undergoes in the daemon.
        let payload_len = match decode_frame(&self.buf[..total]) {
            Ok(payload) => payload.len(),
            Err(e) => {
                self.buf.drain(..total);
                return Err(ChannelError::Corrupt(e));
            }
        };
        msync_protocol::note_frame_copy(payload_len);
        let start = total - payload_len;
        let mut out = match &self.pool {
            Some(pool) => pool.checkout(),
            None => Vec::with_capacity(payload_len),
        };
        out.extend_from_slice(&self.buf[start..total]);
        self.buf.drain(..total);
        let payload = match &self.pool {
            Some(pool) => pool.seal(out),
            None => FrameBuf::from(out),
        };
        Ok(Some((payload, total as u64)))
    }
}

/// A [`Transport`] over one TCP stream: the connecting side of a
/// session (the accepting side is the daemon's multiplexer, which
/// frames and meters by the same two types). Sends are charged as
/// client→server, receives as server→client, so a client's and a
/// server's `TrafficStats` describe the same wire the same way the
/// shared in-memory channel does.
pub struct TcpTransport {
    stream: TcpStream,
    /// Received-but-not-yet-framed bytes.
    inbound: FrameBuffer,
    /// Reusable read buffer.
    scratch: Vec<u8>,
    meter: WireMeter,
    socket_sent: u64,
    socket_received: u64,
}

impl TcpTransport {
    /// Wrap the connecting side of a stream (sends are client→server).
    ///
    /// # Errors
    /// Any socket-option error (the stream is unusable).
    pub fn client(stream: TcpStream) -> std::io::Result<Self> {
        // The protocol is request/response with small frames; Nagle
        // would add an RTT of latency to every flush.
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        Ok(Self {
            stream,
            inbound: FrameBuffer::default(),
            scratch: vec![0u8; READ_CHUNK],
            meter: WireMeter::default(),
            socket_sent: 0,
            socket_received: 0,
        })
    }

    /// Attach a trace recorder. Every byte subsequently charged to
    /// `TrafficStats` is mirrored by exactly one `frame_send` /
    /// `frame_recv` event (sends at charge time, receives when the
    /// session layer attributes them to a phase).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.meter.set_recorder(recorder);
    }

    /// Raw bytes written to the socket, frames and framing included.
    #[must_use]
    pub fn socket_sent(&self) -> u64 {
        self.socket_sent
    }

    /// Raw bytes read from the socket.
    #[must_use]
    pub fn socket_received(&self) -> u64 {
        self.socket_received
    }

    /// Split one complete frame off the inbound buffer, if present.
    /// `Ok(None)` means more bytes are needed.
    fn take_frame(&mut self) -> Result<Option<FrameBuf>, ChannelError> {
        let Some((payload, wire)) = self.inbound.take_frame()? else {
            return Ok(None);
        };
        self.meter.received(Direction::ServerToClient, wire);
        Ok(Some(payload))
    }
}

fn map_io_error(e: &std::io::Error) -> ChannelError {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => ChannelError::Timeout,
        _ => ChannelError::Disconnected,
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, payload: &FrameBuf, split: PhaseSplit) -> Result<(), ChannelError> {
        // Vectored write of [header, payload]: the payload bytes go to
        // the socket straight from the shared allocation, never copied
        // into a contiguous frame image.
        let header = frame_header(payload);
        let total = header.len() + payload.len();
        let mut written = 0usize;
        while written < total {
            let bufs: [IoSlice<'_>; 2] = if written < header.len() {
                [IoSlice::new(&header[written..]), IoSlice::new(payload)]
            } else {
                [IoSlice::new(&payload[written - header.len()..]), IoSlice::new(&[])]
            };
            match self.stream.write_vectored(&bufs) {
                Ok(0) => return Err(ChannelError::Disconnected),
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(map_io_error(&e)),
            }
        }
        self.socket_sent += total as u64;
        self.meter.sent(Direction::ClientToServer, split, payload.len());
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<FrameBuf, ChannelError> {
        // `set_read_timeout` rejects a zero duration; a 1 ms floor keeps
        // degenerate retry configs bounded instead of erroring.
        let timeout = timeout.max(Duration::from_millis(1));
        loop {
            if let Some(payload) = self.take_frame()? {
                return Ok(payload);
            }
            // Each read is individually bounded by the deadline; a peer
            // trickling bytes restarts the clock, a silent one times
            // out after exactly one deadline.
            self.stream.set_read_timeout(Some(timeout)).map_err(|_| ChannelError::Disconnected)?;
            match self.stream.read(&mut self.scratch) {
                Ok(0) => return Err(ChannelError::Disconnected),
                Ok(n) => {
                    self.socket_received += n as u64;
                    self.inbound.extend(&self.scratch[..n]);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(map_io_error(&e)),
            }
        }
    }

    fn attribute_inbound(&mut self, split: PhaseSplit) {
        self.meter.attribute(split);
    }

    fn note_retransmits(&mut self, frames: u64) {
        self.meter.note_retransmits(frames);
    }

    fn recorder(&self) -> Recorder {
        self.meter.recorder().clone()
    }

    fn stats(&self) -> TrafficStats {
        self.meter.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msync_protocol::Phase;
    use std::net::TcpListener;
    use std::thread;

    fn fb(bytes: &[u8]) -> FrameBuf {
        FrameBuf::copy_from_slice(bytes)
    }

    /// The accepting side as the daemon's multiplexer builds it: the
    /// raw stream, a [`FrameBuffer`] reassembling what it reads and a
    /// [`WireMeter`] charging it, each frame written as its header and
    /// payload.
    struct Accepted {
        stream: TcpStream,
        inbound: FrameBuffer,
        meter: WireMeter,
        socket_received: u64,
    }

    impl Accepted {
        /// The next whole frame, each read bounded by 10 s.
        fn recv(&mut self) -> FrameBuf {
            let mut scratch = vec![0u8; READ_CHUNK];
            self.stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            loop {
                if let Some((payload, wire)) = self.inbound.take_frame().unwrap() {
                    self.meter.received(Direction::ClientToServer, wire);
                    return payload;
                }
                let n = self.stream.read(&mut scratch).unwrap();
                assert!(n > 0, "the peer hung up");
                self.socket_received += n as u64;
                self.inbound.extend(&scratch[..n]);
            }
        }

        fn send(&mut self, payload: &FrameBuf, phase: Phase) {
            self.stream.write_all(&frame_header(payload)).unwrap();
            self.stream.write_all(payload).unwrap();
            self.meter.sent(Direction::ServerToClient, phase.into(), payload.len());
        }
    }

    fn pair() -> (TcpTransport, Accepted) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = thread::spawn(move || listener.accept().unwrap().0);
        let client = TcpStream::connect(addr).unwrap();
        let stream = join.join().unwrap();
        let accepted = Accepted {
            stream,
            inbound: FrameBuffer::default(),
            meter: WireMeter::default(),
            socket_received: 0,
        };
        (TcpTransport::client(client).unwrap(), accepted)
    }

    #[test]
    fn frames_cross_the_socket_byte_exact() {
        let (mut c, mut s) = pair();
        c.send(&fb(b"hello over tcp"), Phase::Setup.into()).unwrap();
        let got = s.recv();
        assert_eq!(&got[..], b"hello over tcp");
        s.meter.attribute(Phase::Setup.into());
        // Both sides agree on the wire size of what crossed.
        assert_eq!(c.socket_sent(), s.socket_received);
        assert_eq!(c.stats().c2s(Phase::Setup), s.meter.stats().c2s(Phase::Setup));
        assert_eq!(c.stats().total_bytes(), c.socket_sent());
    }

    #[test]
    fn large_frames_reassemble_across_reads() {
        let (c, mut s) = pair();
        let big = vec![0xA5u8; 300_000];
        let big2 = big.clone();
        let join = thread::spawn(move || {
            let mut c = c;
            c.send(&fb(&big2), Phase::Delta.into()).unwrap();
            c.send(&fb(b"tail"), Phase::Delta.into()).unwrap();
            c
        });
        assert_eq!(s.recv(), big);
        assert_eq!(&s.recv()[..], b"tail");
        join.join().unwrap();
    }

    #[test]
    fn silence_times_out_and_hangup_disconnects() {
        let (mut c, s) = pair();
        assert_eq!(c.recv_timeout(Duration::from_millis(50)), Err(ChannelError::Timeout));
        drop(s);
        // After the peer hangs up the read sees EOF.
        assert_eq!(c.recv_timeout(Duration::from_secs(5)), Err(ChannelError::Disconnected));
    }

    #[test]
    fn corrupt_length_word_is_typed_not_oom() {
        let (mut c, mut s) = pair();
        // 0xFF continuation bytes forever: an impossible length word.
        s.stream.write_all(&[0xFF; 12]).unwrap();
        let err = c.recv_timeout(Duration::from_secs(5));
        assert!(matches!(err, Err(ChannelError::Corrupt(_))), "{err:?}");
    }

    #[test]
    fn length_word_one_past_the_shared_cap_is_rejected() {
        // LEB128 of 2^30 + 1, one over the cap: rejected as a length
        // error before a byte of payload is awaited or buffered.
        assert_eq!(MAX_FRAME_PAYLOAD, 1 << 30);
        let mut inbound = FrameBuffer::default();
        inbound.extend(&[0x81, 0x80, 0x80, 0x80, 0x04]);
        assert_eq!(inbound.take_frame(), Err(ChannelError::Corrupt(FrameError::Length)));
    }

    #[test]
    fn roundtrips_count_direction_reversals() {
        let (mut c, mut s) = pair();
        for _ in 0..3 {
            c.send(&fb(b"ping"), Phase::Map.into()).unwrap();
            s.recv();
            s.meter.attribute(Phase::Map.into());
            s.send(&fb(b"pong"), Phase::Map);
            c.recv_timeout(Duration::from_secs(5)).unwrap();
            c.attribute_inbound(Phase::Map.into());
        }
        assert_eq!(c.stats().roundtrips, 3);
        assert_eq!(s.meter.stats().roundtrips, 3);
    }
}
