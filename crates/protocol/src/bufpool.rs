//! Refcounted, pool-backed frame buffers.
//!
//! Every layer that moves frames — the ARQ engine, the in-memory
//! channel, the fault injector, the TCP transport, and the daemon
//! multiplexer — shares one ownership story:
//!
//! * a frame's bytes are encoded **once** into a [`FrameBuf`] (ideally
//!   a buffer checked out of a [`BufferPool`]);
//! * everything downstream passes the same allocation around by
//!   refcount bump ([`FrameBuf::share`]) or borrows it as `&[u8]`
//!   (`Deref`);
//! * retransmissions, duplicate-fault deliveries, and delay holds are
//!   all shares of the original allocation — the resend path never
//!   re-encodes;
//! * the only sanctioned copy of live frame bytes is the fault
//!   injector's copy-on-mutate path
//!   ([`crate::fault::copy_for_mutation`]), because a
//!   corrupted frame must not damage the sender's retransmit cache.
//!
//! When the last reference drops, a pooled buffer returns to its pool
//! for the next session instead of hitting the allocator. The xtask
//! `alloc-discipline` pass bans ad-hoc `.to_vec()` / `.clone()` on
//! frame values inside the wire modules so this discipline holds by
//! construction.
//!
//! Frame-byte copies that *do* happen (encode, reassembly extraction,
//! fault mutation) are metered through [`note_frame_copy`] into one
//! process-global counter; the daemon soak bench reads it before and
//! after a burst to ratchet `bytes_copied_per_session`.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Process-global count of frame bytes copied through the wire path.
static COPIED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Meter `bytes` frame bytes that were physically copied (memcpy'd)
/// somewhere on the wire path. Every copy site in the workspace calls
/// this, so `frame_copy_bytes` deltas are an allocator-traffic profile.
pub fn note_frame_copy(bytes: usize) {
    COPIED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Total frame bytes copied process-wide since start. Monotone; bench
/// code snapshots it around a burst and divides by sessions.
#[must_use]
pub fn frame_copy_bytes() -> u64 {
    COPIED_BYTES.load(Ordering::Relaxed)
}

/// The shared allocation behind one or more [`FrameBuf`] views. The
/// byte content is immutable once sealed; on last drop a pooled
/// allocation returns to its pool.
struct Inner {
    data: Vec<u8>,
    pool: Option<Arc<PoolCore>>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.put(std::mem::take(&mut self.data));
        }
    }
}

/// An immutable, refcounted view of encoded frame bytes.
///
/// Cheap to share (`share` / `Clone` bump a refcount), cheap to narrow
/// ([`FrameBuf::slice`] is a view into the same allocation), and
/// `Deref<Target = [u8]>` so read paths take `&[u8]` unchanged.
/// Equality compares bytes; [`FrameBuf::ptr_eq`] checks identity — the
/// retransmit tests use it to prove the resend path never re-encodes.
pub struct FrameBuf {
    inner: Arc<Inner>,
    off: usize,
    len: usize,
}

impl FrameBuf {
    /// Wrap an owned, already-filled buffer without copying. The buffer
    /// is not pool-backed; it is freed normally on last drop.
    #[must_use]
    pub fn from_vec(data: Vec<u8>) -> Self {
        let len = data.len();
        Self { inner: Arc::new(Inner { data, pool: None }), off: 0, len }
    }

    /// Copy `bytes` into a fresh unpooled buffer. This is a real copy
    /// and is metered as one; use it only where the source is borrowed
    /// (handshake strings, test literals).
    #[must_use]
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        note_frame_copy(bytes.len());
        Self::from_vec(bytes.into())
    }

    /// Share the allocation: a refcount bump, never a byte copy. The
    /// named form (rather than `.clone()`) keeps wire-path call sites
    /// legible to the `alloc-discipline` lint.
    #[must_use]
    pub fn share(&self) -> Self {
        Self { inner: Arc::clone(&self.inner), off: self.off, len: self.len }
    }

    /// A narrowed view of the same allocation (`start..end` relative to
    /// this view, clamped to its bounds). No bytes move — this is how
    /// the ARQ parser hands a frame's payload to the session layer
    /// without copying it out.
    #[must_use]
    pub fn slice(&self, start: usize, end: usize) -> Self {
        let start = start.min(self.len);
        let end = end.clamp(start, self.len);
        Self { inner: Arc::clone(&self.inner), off: self.off + start, len: end - start }
    }

    /// Length of this view in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether this view is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The viewed bytes.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.inner.data[self.off..self.off + self.len]
    }

    /// Whether two views are the *same allocation and range* — frame
    /// identity, not equality. Retransmit tests assert this to prove a
    /// resend is a refcount bump.
    #[must_use]
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.inner, &b.inner) && a.off == b.off && a.len == b.len
    }
}

impl Deref for FrameBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for FrameBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Clone for FrameBuf {
    fn clone(&self) -> Self {
        self.share()
    }
}

impl PartialEq for FrameBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for FrameBuf {}

impl PartialEq<[u8]> for FrameBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for FrameBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for FrameBuf {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl std::fmt::Debug for FrameBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("FrameBuf").field(&self.as_slice()).finish()
    }
}

impl From<Vec<u8>> for FrameBuf {
    fn from(data: Vec<u8>) -> Self {
        Self::from_vec(data)
    }
}

impl Default for FrameBuf {
    fn default() -> Self {
        Self::from_vec(Vec::new())
    }
}

/// Buffers above this capacity are dropped on return instead of pooled:
/// one giant delta frame must not pin its allocation for the daemon's
/// lifetime.
const MAX_POOLED_CAPACITY: usize = 256 * 1024;

struct PoolCore {
    free: Mutex<Vec<Vec<u8>>>,
    max_idle: usize,
    allocated: AtomicU64,
    reused: AtomicU64,
    returned: AtomicU64,
    outstanding: AtomicUsize,
    high_water: AtomicUsize,
}

impl PoolCore {
    fn put(&self, mut data: Vec<u8>) {
        self.outstanding.fetch_sub(1, Ordering::Relaxed);
        if data.capacity() == 0 || data.capacity() > MAX_POOLED_CAPACITY {
            return;
        }
        let mut free = self.free.lock().unwrap_or_else(PoisonError::into_inner);
        if free.len() < self.max_idle {
            data.clear();
            free.push(data);
            self.returned.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Counters describing a [`BufferPool`]'s lifetime behaviour; rendered
/// as the `msync_frame_pool_*` Prometheus family by the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers created fresh because the free list was empty.
    pub allocated_total: u64,
    /// Checkouts served from the free list (allocator traffic avoided).
    pub reused_total: u64,
    /// Buffers accepted back into the free list on drop.
    pub returned_total: u64,
    /// Buffers currently checked out (sealed frames still alive).
    pub outstanding: usize,
    /// Maximum `outstanding` ever observed — the pool's working set.
    pub high_water: usize,
    /// Buffers sitting in the free list right now.
    pub idle: usize,
}

/// A shared free-list of frame buffers. Clones share the same pool.
///
/// `checkout` hands out an empty `Vec<u8>` (reusing a returned one when
/// available); `seal` freezes the filled buffer into a [`FrameBuf`]
/// that flows through the whole stack by refcount and returns its
/// allocation here when the last reference drops.
#[derive(Clone)]
pub struct BufferPool {
    core: Arc<PoolCore>,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool").field("stats", &self.stats()).finish()
    }
}

impl BufferPool {
    /// A pool retaining at most `max_idle` free buffers. Sizing: the
    /// daemon's working set is (frames queued per pump) × (active
    /// sessions); idle capacity beyond that is pure memory, so the
    /// daemon uses a small multiple of its session cap.
    #[must_use]
    pub fn new(max_idle: usize) -> Self {
        Self {
            core: Arc::new(PoolCore {
                free: Mutex::new(Vec::new()),
                max_idle,
                allocated: AtomicU64::new(0),
                reused: AtomicU64::new(0),
                returned: AtomicU64::new(0),
                outstanding: AtomicUsize::new(0),
                high_water: AtomicUsize::new(0),
            }),
        }
    }

    /// Check out an empty buffer to encode one frame into. Reuses a
    /// returned buffer when one is idle.
    #[must_use]
    pub fn checkout(&self) -> Vec<u8> {
        let reused = self.core.free.lock().unwrap_or_else(PoisonError::into_inner).pop();
        let out = self.core.outstanding.fetch_add(1, Ordering::Relaxed) + 1;
        self.core.high_water.fetch_max(out, Ordering::Relaxed);
        match reused {
            Some(buf) => {
                self.core.reused.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.core.allocated.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        }
    }

    /// Freeze a filled checkout into an immutable [`FrameBuf`]. The
    /// allocation returns to this pool when the last share drops.
    #[must_use]
    pub fn seal(&self, data: Vec<u8>) -> FrameBuf {
        let len = data.len();
        FrameBuf {
            inner: Arc::new(Inner { data, pool: Some(Arc::clone(&self.core)) }),
            off: 0,
            len,
        }
    }

    /// Snapshot the pool's counters.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            allocated_total: self.core.allocated.load(Ordering::Relaxed),
            reused_total: self.core.reused.load(Ordering::Relaxed),
            returned_total: self.core.returned.load(Ordering::Relaxed),
            outstanding: self.core.outstanding.load(Ordering::Relaxed),
            high_water: self.core.high_water.load(Ordering::Relaxed),
            idle: self.core.free.lock().unwrap_or_else(PoisonError::into_inner).len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_is_identity_not_copy() {
        let a = FrameBuf::from_vec(vec![1, 2, 3]);
        let b = a.share();
        assert!(FrameBuf::ptr_eq(&a, &b));
        assert_eq!(a, b);
        // A byte-equal but distinct allocation is equal, not identical.
        let c = FrameBuf::from_vec(vec![1, 2, 3]);
        assert_eq!(a, c);
        assert!(!FrameBuf::ptr_eq(&a, &c));
    }

    #[test]
    fn slice_views_same_allocation() {
        let a = FrameBuf::from_vec(vec![9, 8, 7, 6, 5]);
        let s = a.slice(1, 4);
        assert_eq!(&s[..], &[8, 7, 6]);
        let s2 = s.slice(1, 3);
        assert_eq!(&s2[..], &[7, 6]);
        // Out-of-range requests clamp instead of panicking.
        assert_eq!(a.slice(4, 99).len(), 1);
        assert_eq!(a.slice(99, 4).len(), 0);
    }

    #[test]
    fn pooled_buffer_returns_on_last_drop() {
        let pool = BufferPool::new(8);
        let mut buf = pool.checkout();
        buf.extend_from_slice(b"frame");
        let sealed = pool.seal(buf);
        let kept = sealed.share();
        drop(sealed);
        // Still alive through `kept`: not yet returned.
        assert_eq!(pool.stats().returned_total, 0);
        assert_eq!(pool.stats().outstanding, 1);
        drop(kept);
        let s = pool.stats();
        assert_eq!((s.returned_total, s.outstanding, s.idle), (1, 0, 1));
        // The next checkout reuses it, cleared.
        let again = pool.checkout();
        assert!(again.is_empty() && again.capacity() >= 5);
        assert_eq!(pool.stats().reused_total, 1);
    }

    #[test]
    fn high_water_tracks_peak_outstanding() {
        let pool = BufferPool::new(8);
        let frames: Vec<FrameBuf> = (0..5).map(|_| pool.seal(pool.checkout())).collect();
        assert_eq!(pool.stats().high_water, 5);
        drop(frames);
        assert_eq!(pool.stats().high_water, 5);
        assert_eq!(pool.stats().outstanding, 0);
        // Steady-state reuse never raises the mark.
        for _ in 0..20 {
            let f = pool.seal(pool.checkout());
            drop(f);
        }
        assert_eq!(pool.stats().high_water, 5);
    }

    #[test]
    fn idle_list_is_bounded() {
        let pool = BufferPool::new(2);
        let frames: Vec<FrameBuf> = (0..6)
            .map(|_| {
                let mut b = pool.checkout();
                b.push(0);
                pool.seal(b)
            })
            .collect();
        drop(frames);
        assert_eq!(pool.stats().idle, 2);
    }

    #[test]
    fn copy_counter_meters_explicit_copies() {
        let before = frame_copy_bytes();
        let _ = FrameBuf::copy_from_slice(&[0; 64]);
        assert_eq!(frame_copy_bytes() - before, 64);
        let a = FrameBuf::from_vec(vec![0; 1024]);
        let mid = frame_copy_bytes();
        let _shares: Vec<FrameBuf> = (0..100).map(|_| a.share()).collect();
        assert_eq!(frame_copy_bytes(), mid, "sharing must not copy");
    }
}
