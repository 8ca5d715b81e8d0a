//! The client's *map* of the server's file (paper §5.1).
//!
//! During map construction the client learns, region by region, that
//! certain byte ranges of the current file `f_new` are identical to
//! ranges it already holds in `f_old`. The map is conceptually a string
//! over `Σ ∪ {?}`: identical to `f_new` in *known areas* and `?`
//! elsewhere. We represent it as a sorted list of non-overlapping
//! segments, each tying a range of `f_new` to a range of `f_old`.
//!
//! Both endpoints maintain structurally identical maps (the server knows
//! *which* of its regions the client has, though not where they live in
//! `f_old`), which is what lets the delta phase build the same reference
//! string on both sides.

/// One known area: `f_new[new_off .. new_off+len] == f_old[old_off .. old_off+len]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Start of the known area in the *current* (server) file.
    pub new_off: u64,
    /// Start of the identical bytes in the *outdated* (client) file.
    /// The server side carries 0 here — it never learns client offsets
    /// and never needs them.
    pub old_off: u64,
    /// Length in bytes.
    pub len: u64,
}

impl Segment {
    /// End offset (exclusive) in the new file.
    pub fn new_end(&self) -> u64 {
        self.new_off + self.len
    }
}

/// The map: known areas of `f_new`, sorted by `new_off`, non-overlapping.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileMap {
    segments: Vec<Segment>,
}

impl FileMap {
    /// An empty map (everything unknown).
    pub fn new() -> Self {
        Self::default()
    }

    /// The known segments, sorted by new-file offset.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Total number of known bytes.
    pub fn known_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.len).sum()
    }

    /// Insert a confirmed match. Adjacent segments that also agree on the
    /// old-file side are merged so continuation extension yields one long
    /// anchor instead of a chain of block-sized stubs.
    ///
    /// # Panics
    ///
    /// Debug-panics if the new-file range overlaps an existing segment —
    /// the protocol only confirms matches for uncovered regions.
    pub fn insert(&mut self, seg: Segment) {
        if seg.len == 0 {
            return;
        }
        let idx = self.segments.partition_point(|s| s.new_off < seg.new_off);
        debug_assert!(
            idx == 0 || self.segments[idx - 1].new_end() <= seg.new_off,
            "segment overlaps predecessor"
        );
        debug_assert!(
            idx == self.segments.len() || seg.new_end() <= self.segments[idx].new_off,
            "segment overlaps successor"
        );
        self.segments.insert(idx, seg);
        // Try merging with neighbours (both files contiguous).
        if idx + 1 < self.segments.len() {
            let (a, b) = (self.segments[idx], self.segments[idx + 1]);
            if a.new_end() == b.new_off && a.old_off + a.len == b.old_off {
                self.segments[idx].len += b.len;
                self.segments.remove(idx + 1);
            }
        }
        if idx > 0 {
            let (a, b) = (self.segments[idx - 1], self.segments[idx]);
            if a.new_end() == b.new_off && a.old_off + a.len == b.old_off {
                self.segments[idx - 1].len += b.len;
                self.segments.remove(idx);
            }
        }
    }

    /// Is the new-file range `[off, off+len)` completely unknown (no
    /// overlap with any known segment)?
    pub fn is_unknown(&self, off: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        let end = off + len;
        let idx = self.segments.partition_point(|s| s.new_end() <= off);
        match self.segments.get(idx) {
            Some(s) => s.new_off >= end,
            None => true,
        }
    }

    /// The segment covering new-file offset `off`, if any.
    pub fn segment_at(&self, off: u64) -> Option<&Segment> {
        let idx = self.segments.partition_point(|s| s.new_end() <= off);
        self.segments.get(idx).filter(|s| s.new_off <= off)
    }

    /// Reconstruct the bytes of a fully-known new-file range from the
    /// old file (used to compute hashes of covered siblings for
    /// decomposition). Returns `None` if any byte of the range is
    /// unknown.
    pub fn bytes_for_new_range(&self, old: &[u8], new_off: u64, len: u64) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(len as usize);
        let mut pos = new_off;
        let end = new_off + len;
        while pos < end {
            let seg = self.segment_at(pos)?;
            let take = (seg.new_end() - pos).min(end - pos);
            let old_start = seg.old_off + (pos - seg.new_off);
            out.extend_from_slice(&old[old_start as usize..(old_start + take) as usize]);
            pos += take;
        }
        Some(out)
    }

    /// Build the reference string for the delta phase from the *old*
    /// file: the concatenation of the known areas in new-file order.
    /// This is the client's construction.
    pub fn reference_from_old(&self, old: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.known_bytes() as usize);
        for s in &self.segments {
            out.extend_from_slice(&old[s.old_off as usize..(s.old_off + s.len) as usize]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_query() {
        let mut m = FileMap::new();
        m.insert(Segment { new_off: 100, old_off: 50, len: 10 });
        m.insert(Segment { new_off: 300, old_off: 200, len: 20 });
        assert_eq!(m.known_bytes(), 30);
        assert!(m.is_unknown(0, 100));
        assert!(!m.is_unknown(95, 10));
        assert!(!m.is_unknown(105, 1));
        assert!(m.is_unknown(110, 190));
        assert!(!m.is_unknown(290, 20));
        assert!(m.is_unknown(320, 1000));
    }

    #[test]
    fn merge_contiguous_both_sides() {
        let mut m = FileMap::new();
        m.insert(Segment { new_off: 0, old_off: 0, len: 10 });
        m.insert(Segment { new_off: 10, old_off: 10, len: 10 });
        assert_eq!(m.segments().len(), 1);
        assert_eq!(m.segments()[0], Segment { new_off: 0, old_off: 0, len: 20 });
        // Contiguous in new but not old: no merge.
        m.insert(Segment { new_off: 20, old_off: 100, len: 5 });
        assert_eq!(m.segments().len(), 2);
    }

    #[test]
    fn merge_via_middle_insert() {
        let mut m = FileMap::new();
        m.insert(Segment { new_off: 0, old_off: 0, len: 8 });
        m.insert(Segment { new_off: 16, old_off: 16, len: 8 });
        m.insert(Segment { new_off: 8, old_off: 8, len: 8 });
        assert_eq!(m.segments().len(), 1);
        assert_eq!(m.segments()[0].len, 24);
    }

    #[test]
    fn reference_construction_agrees() {
        let old = b"AAAABBBBCCCCDDDD".to_vec();
        //          0   4   8   12
        let new = b"xxBBBBxxxxDDDDxx".to_vec();
        let mut m = FileMap::new();
        m.insert(Segment { new_off: 2, old_off: 4, len: 4 });
        m.insert(Segment { new_off: 10, old_off: 12, len: 4 });
        // The client's reference is exactly the mapped bytes of the new
        // file, in new-file order.
        let from_old = m.reference_from_old(&old);
        assert_eq!(from_old, b"BBBBDDDD");
        assert_eq!(from_old, [&new[2..6], &new[10..14]].concat());
    }

    #[test]
    fn segment_at_lookup() {
        let mut m = FileMap::new();
        m.insert(Segment { new_off: 10, old_off: 0, len: 5 });
        assert!(m.segment_at(9).is_none());
        assert_eq!(m.segment_at(10).unwrap().old_off, 0);
        assert_eq!(m.segment_at(14).unwrap().old_off, 0);
        assert!(m.segment_at(15).is_none());
    }

    #[test]
    fn bytes_for_new_range_walks_segments() {
        let old = b"AAAABBBBCCCC".to_vec();
        let mut m = FileMap::new();
        // new [0,4) = old [4,8); new [4,8) = old [0,4)  (swapped blocks)
        m.insert(Segment { new_off: 0, old_off: 4, len: 4 });
        m.insert(Segment { new_off: 4, old_off: 0, len: 4 });
        assert_eq!(m.bytes_for_new_range(&old, 0, 8).unwrap(), b"BBBBAAAA");
        assert_eq!(m.bytes_for_new_range(&old, 2, 4).unwrap(), b"BBAA");
        // Range extending past coverage: None.
        assert!(m.bytes_for_new_range(&old, 6, 4).is_none());
        assert!(m.bytes_for_new_range(&old, 100, 1).is_none());
        // Empty range always works.
        assert_eq!(m.bytes_for_new_range(&old, 3, 0).unwrap(), b"");
    }

    #[test]
    fn zero_len_ignored() {
        let mut m = FileMap::new();
        m.insert(Segment { new_off: 5, old_off: 5, len: 0 });
        assert!(m.segments().is_empty());
        assert!(m.is_unknown(0, 0));
    }
}
