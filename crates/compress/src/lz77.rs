//! LZ77 matching machinery shared by the stream compressor, the delta
//! coder, and the vcdiff-like coder.
//!
//! Matches are found through hash chains over 4-byte keys, as in zlib and
//! zdelta: a head table maps each key to the most recent position, and a
//! prev table chains earlier positions with the same key.
//!
//! # Head-table reuse
//!
//! The head table has a fixed `HASH_SIZE` entries (256 KiB) whatever
//! the buffer's length, while the prev table is sized to the buffer. A
//! delta of a 600-byte file builds two indexes, so allocating and filling
//! two fresh head tables would cost more than the match search itself.
//! Each thread therefore keeps up to `MAX_SPARE_HEADS` (2) spare head
//! tables in a thread-local pool: dropping a `HashChains` hands its table
//! back, and [`HashChains::new`] takes a spare when one is there. The
//! drop resets the table to all-NIL first: when at most
//! `SPARSE_RESET_MAX` (2 048) positions were indexed it clears just their
//! buckets, one scattered store per position, which is cheaper than a
//! 256 KiB fill; otherwise it fills the whole table. Either way the reset
//! is exact: every non-NIL entry was written by indexing one of those
//! positions, so a reused table is indistinguishable from a fresh one —
//! same hash, same chain order, same matches, same output bytes.
//!
//! The pool holds at most `MAX_SPARE_HEADS × 256 KiB` = 512 KiB per
//! thread that has built an index, and is freed with the thread. It never
//! panics: a drop during thread teardown, or while the pool is borrowed,
//! frees the table instead of keeping it. [`scratch_stats`] reports the
//! process-wide allocations, reuses and retained bytes.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Minimum match length worth encoding.
pub const MIN_MATCH: usize = 4;
/// Cap on match length (keeps length bins small; long repeats simply emit
/// several copies).
pub const MAX_MATCH: usize = 1 << 16;

const HASH_BITS: u32 = 16;
/// Entries in a head table: one per 16-bit key hash.
const HASH_SIZE: usize = 1 << HASH_BITS;
/// Spare head tables kept per thread: enough for the two indexes a delta
/// encode holds at once.
const MAX_SPARE_HEADS: usize = 2;
/// Largest count of indexed positions whose buckets a drop clears one by
/// one; above it, the whole table is filled.
const SPARSE_RESET_MAX: usize = HASH_SIZE / 32;
/// Bytes of one head table.
const HEAD_BYTES: u64 = (HASH_SIZE * std::mem::size_of::<u32>()) as u64;

/// Hash of the 4 bytes starting at `pos` (caller guarantees availability).
#[inline]
pub fn key4(data: &[u8], pos: usize) -> u32 {
    let k = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes"));
    (k.wrapping_mul(0x9E37_79B1)) >> (32 - HASH_BITS)
}

/// Hash-chain index over one buffer.
#[derive(Debug)]
pub struct HashChains<'a> {
    data: &'a [u8],
    head: Vec<u32>,
    prev: Vec<u32>,
    /// Positions `< indexed_to` are in the index.
    indexed_to: usize,
}

const NIL: u32 = u32::MAX;

/// Head tables allocated fresh (the thread's pool was empty).
static HEADS_ALLOCATED: AtomicU64 = AtomicU64::new(0);
/// Head tables taken from a thread's pool.
static HEADS_REUSED: AtomicU64 = AtomicU64::new(0);
/// Bytes of head tables sitting in every thread's pool right now.
static RETAINED_BYTES: AtomicU64 = AtomicU64::new(0);

/// One thread's spare head tables, each all-NIL. Dropped with the
/// thread, which takes its tables out of the retained-bytes gauge.
struct SpareHeads(Vec<Vec<u32>>);

impl Drop for SpareHeads {
    fn drop(&mut self) {
        RETAINED_BYTES.fetch_sub(self.0.len() as u64 * HEAD_BYTES, Ordering::Relaxed);
    }
}

thread_local! {
    static SPARE_HEADS: RefCell<SpareHeads> = const { RefCell::new(SpareHeads(Vec::new())) };
}

/// An all-NIL head table: a spare from this thread's pool when there is
/// one, else a fresh allocation.
fn take_head() -> Vec<u32> {
    let spare = SPARE_HEADS
        .try_with(|pool| pool.try_borrow_mut().ok().and_then(|mut pool| pool.0.pop()))
        .ok()
        .flatten();
    match spare {
        Some(head) => {
            RETAINED_BYTES.fetch_sub(HEAD_BYTES, Ordering::Relaxed);
            HEADS_REUSED.fetch_add(1, Ordering::Relaxed);
            debug_assert!(head.iter().all(|&h| h == NIL), "spare head table not reset");
            head
        }
        None => {
            HEADS_ALLOCATED.fetch_add(1, Ordering::Relaxed);
            vec![NIL; HASH_SIZE]
        }
    }
}

/// Process-wide counters of the head-table pool, rendered by the daemon
/// as the `msync_codec_*` Prometheus family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScratchStats {
    /// Head tables allocated because the thread's pool was empty.
    pub heads_allocated_total: u64,
    /// Head tables served from a thread's pool.
    pub heads_reused_total: u64,
    /// Bytes of spare head tables held by all threads' pools right now:
    /// at most 512 KiB per thread that has built an index.
    pub retained_bytes: u64,
}

/// A snapshot of the head-table pool's counters.
pub fn scratch_stats() -> ScratchStats {
    ScratchStats {
        heads_allocated_total: HEADS_ALLOCATED.load(Ordering::Relaxed),
        heads_reused_total: HEADS_REUSED.load(Ordering::Relaxed),
        retained_bytes: RETAINED_BYTES.load(Ordering::Relaxed),
    }
}

impl Drop for HashChains<'_> {
    /// Reset the head table and return it to this thread's pool, unless
    /// the pool is full, borrowed, or already torn down.
    fn drop(&mut self) {
        let mut head = std::mem::take(&mut self.head);
        let _ = SPARE_HEADS.try_with(|pool| {
            let Ok(mut pool) = pool.try_borrow_mut() else { return };
            if pool.0.len() >= MAX_SPARE_HEADS {
                return;
            }
            if self.indexed_to <= SPARSE_RESET_MAX {
                for pos in 0..self.indexed_to {
                    head[key4(self.data, pos) as usize] = NIL;
                }
            } else {
                head.fill(NIL);
            }
            pool.0.push(head);
            RETAINED_BYTES.fetch_add(HEAD_BYTES, Ordering::Relaxed);
        });
    }
}

impl<'a> HashChains<'a> {
    /// Create an empty index over `data`; call [`Self::index_to`] to fill.
    pub fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            head: take_head(),
            prev: vec![NIL; data.len().saturating_sub(MIN_MATCH - 1)],
            indexed_to: 0,
        }
    }

    /// Index all positions of the buffer at once.
    pub fn new_full(data: &'a [u8]) -> Self {
        let mut s = Self::new(data);
        s.index_to(data.len());
        s
    }

    /// The underlying buffer.
    pub fn data(&self) -> &'a [u8] {
        self.data
    }

    /// Extend the index so every match start `< upto` is findable.
    pub fn index_to(&mut self, upto: usize) {
        let limit = upto.min(self.prev.len());
        while self.indexed_to < limit {
            let h = key4(self.data, self.indexed_to) as usize;
            self.prev[self.indexed_to] = self.head[h];
            self.head[h] = self.indexed_to as u32;
            self.indexed_to += 1;
        }
    }

    /// Longest match between `needle[npos..]` and this buffer, restricted
    /// to match starts `< window_end`, walking at most `max_chain` chain
    /// links. Returns `(buffer_pos, len)` of the best match with
    /// `len >= MIN_MATCH`, or `None`.
    pub fn longest_match(
        &self,
        needle: &[u8],
        npos: usize,
        window_end: usize,
        max_chain: u32,
    ) -> Option<(usize, usize)> {
        if npos + MIN_MATCH > needle.len() {
            return None;
        }
        let h = key4(needle, npos) as usize;
        let mut cand = self.head[h];
        let max_len = (needle.len() - npos).min(MAX_MATCH);
        let mut best: Option<(usize, usize)> = None;
        let mut chain = max_chain;
        while cand != NIL && chain > 0 {
            let cpos = cand as usize;
            if cpos < window_end {
                let len = common_prefix(&self.data[cpos..], &needle[npos..], max_len);
                if len >= MIN_MATCH && best.is_none_or(|(_, bl)| len > bl) {
                    best = Some((cpos, len));
                    if len == max_len {
                        break;
                    }
                }
            }
            cand = self.prev[cpos_index(cand)];
            chain -= 1;
        }
        best
    }
}

#[inline]
fn cpos_index(cand: u32) -> usize {
    cand as usize
}

/// Length of the common prefix of `a` and `b`, capped at `max`.
#[inline]
pub fn common_prefix(a: &[u8], b: &[u8], max: usize) -> usize {
    let n = a.len().min(b.len()).min(max);
    // Compare 8 bytes at a time.
    let mut i = 0;
    while i + 8 <= n {
        let x = u64::from_le_bytes(a[i..i + 8].try_into().expect("8 bytes"));
        let y = u64::from_le_bytes(b[i..i + 8].try_into().expect("8 bytes"));
        if x != y {
            return i + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// A token of the LZ77 parse of a buffer against itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A single literal byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes starting `dist` bytes back.
    Match {
        /// Distance back from the current position (≥ 1).
        dist: u32,
        /// Match length (`MIN_MATCH..=MAX_MATCH`).
        len: u32,
    },
}

/// Greedy-with-lazy LZ77 parse of `data` against itself (zlib-style
/// one-step lazy matching), window capped at `max_dist`.
pub fn parse(data: &[u8], max_dist: usize, max_chain: u32) -> Vec<Token> {
    let mut tokens = Vec::with_capacity(data.len() / 4 + 16);
    let mut chains = HashChains::new(data);
    let mut pos = 0usize;
    let mut pending: Option<(usize, usize)> = None; // match found at pos-1
    while pos < data.len() {
        chains.index_to(pos);
        let window_start = pos.saturating_sub(max_dist);
        let found = chains
            .longest_match(data, pos, pos, max_chain)
            .filter(|&(mpos, _)| mpos >= window_start);
        match (pending.take(), found) {
            (Some((ppos, plen)), Some((mpos, mlen))) if mlen > plen => {
                // The lazy probe won: emit the previous byte as a literal
                // and hold the new match as pending.
                tokens.push(Token::Literal(data[pos - 1]));
                pending = Some((mpos, mlen));
                let _ = ppos;
                pos += 1;
            }
            (Some((ppos, plen)), _) => {
                // Previous match stands; it starts at pos-1.
                tokens.push(Token::Match { dist: ((pos - 1) - ppos) as u32, len: plen as u32 });
                pos = pos - 1 + plen;
            }
            (None, Some((mpos, mlen))) => {
                if pos + 1 < data.len() && mlen < 64 {
                    // Defer: maybe the match starting at pos+1 is longer.
                    pending = Some((mpos, mlen));
                    pos += 1;
                } else {
                    tokens.push(Token::Match { dist: (pos - mpos) as u32, len: mlen as u32 });
                    pos += mlen;
                }
            }
            (None, None) => {
                tokens.push(Token::Literal(data[pos]));
                pos += 1;
            }
        }
    }
    if let Some((ppos, plen)) = pending {
        // Pending match at the final position.
        let start = data.len() - 1;
        let plen = plen.min(data.len() - start);
        if plen >= MIN_MATCH {
            tokens.push(Token::Match { dist: (start - ppos) as u32, len: plen as u32 });
        } else {
            tokens.push(Token::Literal(data[start]));
        }
    }
    tokens
}

/// Expand a token stream back into bytes (for tests and the decompressor).
pub fn expand(tokens: &[Token]) -> Vec<u8> {
    let mut out = Vec::new();
    for t in tokens {
        match *t {
            Token::Literal(b) => out.push(b),
            Token::Match { dist, len } => {
                let start = out.len() - dist as usize;
                for i in 0..len as usize {
                    out.push(out[start + i]);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_expand_roundtrip() {
        let data = b"abcabcabcabcXabcabcabc the quick brown fox the quick brown fox".to_vec();
        let tokens = parse(&data, 1 << 15, 64);
        assert_eq!(expand(&tokens), data);
        assert!(tokens.iter().any(|t| matches!(t, Token::Match { .. })));
    }

    #[test]
    fn parse_incompressible() {
        let data: Vec<u8> = (0..=255u8).collect();
        let tokens = parse(&data, 1 << 15, 64);
        assert_eq!(expand(&tokens), data);
        assert!(tokens.iter().all(|t| matches!(t, Token::Literal(_))));
    }

    #[test]
    fn parse_empty_and_tiny() {
        assert!(parse(b"", 1 << 15, 64).is_empty());
        let tokens = parse(b"abc", 1 << 15, 64);
        assert_eq!(expand(&tokens), b"abc");
    }

    #[test]
    fn parse_overlapping_run() {
        // Classic RLE-via-LZ: dist 1, long len.
        let data = vec![b'x'; 300];
        let tokens = parse(&data, 1 << 15, 64);
        assert_eq!(expand(&tokens), data);
        assert!(tokens.len() < 10);
    }

    #[test]
    fn window_limit_respected() {
        let mut data = b"HEADER-pattern-pattern".to_vec();
        data.extend(std::iter::repeat_n(0u8, 100));
        data.extend_from_slice(b"HEADER-pattern-pattern");
        let tokens = parse(&data, 16, 64);
        assert_eq!(expand(&tokens), data);
        for t in &tokens {
            if let Token::Match { dist, .. } = t {
                assert!(*dist <= 16);
            }
        }
    }

    #[test]
    fn common_prefix_cases() {
        assert_eq!(common_prefix(b"abcdef", b"abcxef", 10), 3);
        assert_eq!(common_prefix(b"same", b"same", 10), 4);
        assert_eq!(common_prefix(b"", b"x", 10), 0);
        assert_eq!(common_prefix(b"aaaaaaaaaaaa", b"aaaaaaaaaaaa", 5), 5);
        // 8-byte fast path divergence in second word
        assert_eq!(common_prefix(b"0123456789abXdef", b"0123456789abYdef", 16), 12);
    }

    /// Run `body` on a fresh thread, so it starts with an empty pool.
    fn on_fresh_thread(body: impl FnOnce() + Send + 'static) {
        std::thread::spawn(body).join().expect("test thread panicked");
    }

    fn spare_count() -> usize {
        SPARE_HEADS.with(|pool| pool.borrow().0.len())
    }

    fn sample(len: usize) -> Vec<u8> {
        (0..len as u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect()
    }

    #[test]
    fn second_index_on_a_thread_reuses_the_head_table() {
        on_fresh_thread(|| {
            let data = sample(600);
            let first = HashChains::new_full(&data).head.as_ptr();
            assert_eq!(spare_count(), 1);
            let second = HashChains::new_full(&data);
            assert_eq!(second.head.as_ptr(), first);
            assert_eq!(spare_count(), 0);
        });
    }

    #[test]
    fn pool_keeps_at_most_two_spares() {
        on_fresh_thread(|| {
            let data = sample(100);
            let live: Vec<_> = (0..3).map(|_| HashChains::new_full(&data)).collect();
            drop(live);
            assert_eq!(spare_count(), MAX_SPARE_HEADS);
            let before = scratch_stats();
            let again: Vec<_> = (0..3).map(|_| HashChains::new(&data)).collect();
            let after = scratch_stats();
            // Counters are process-wide: other tests only add to them.
            assert!(after.heads_reused_total >= before.heads_reused_total + 2);
            assert!(after.heads_allocated_total > before.heads_allocated_total);
            assert_eq!(spare_count(), 0);
            drop(again);
            assert_eq!(spare_count(), MAX_SPARE_HEADS);
        });
    }

    #[test]
    fn handed_out_table_is_all_nil_on_both_sides_of_the_reset_threshold() {
        on_fresh_thread(|| {
            // Positions indexed = len - 3 when fully indexed.
            for len in [0, 3, 4, SPARSE_RESET_MAX + 3, SPARSE_RESET_MAX + 4, 70_000] {
                let data = sample(len);
                drop(HashChains::new_full(&data));
                let mut partial = HashChains::new(&data);
                partial.index_to(len / 2);
                drop(partial);
                let handed: Vec<_> = (0..MAX_SPARE_HEADS).map(|_| HashChains::new(&data)).collect();
                for chains in &handed {
                    assert!(chains.head.iter().all(|&h| h == NIL), "len {len}");
                }
            }
        });
    }

    #[test]
    fn drop_while_the_pool_is_borrowed_skips_reuse() {
        on_fresh_thread(|| {
            let data = sample(64);
            drop(HashChains::new_full(&data));
            SPARE_HEADS.with(|pool| {
                let held = pool.borrow_mut();
                // `new` cannot take the spare and `drop` cannot return it.
                drop(HashChains::new_full(&data));
                assert_eq!(held.0.len(), 1);
            });
            assert_eq!(spare_count(), 1);
        });
    }

    #[test]
    fn drop_during_thread_teardown_never_panics() {
        thread_local! {
            static BEFORE: RefCell<Option<HashChains<'static>>> = const { RefCell::new(None) };
            static AFTER: RefCell<Option<HashChains<'static>>> = const { RefCell::new(None) };
        }
        let data: &'static [u8] = sample(256).leak();
        on_fresh_thread(move || {
            // Registered before the pool: its destructor runs after the
            // pool is gone. `AFTER`'s runs while the pool still lives.
            BEFORE.with(|slot| *slot.borrow_mut() = Some(HashChains::new_full(data)));
            drop(HashChains::new_full(data));
            AFTER.with(|slot| *slot.borrow_mut() = Some(HashChains::new_full(data)));
        });
    }

    #[test]
    fn longest_match_finds_best() {
        let hay = b"xxx needle-short needle-long-version xxx";
        let chains = HashChains::new_full(hay);
        let needle = b"needle-long-ver";
        let (pos, len) = chains.longest_match(needle, 0, hay.len(), 64).unwrap();
        assert_eq!(&hay[pos..pos + len], &needle[..len]);
        assert!(len >= 12);
    }
}
