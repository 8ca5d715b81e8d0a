//! Shared coverage of the new file — the interval structure both
//! endpoints keep in lockstep.
//!
//! The client's [`crate::map::FileMap`] carries *where in the old file*
//! each known area lives, which the server never learns. But both sides
//! must agree exactly on *which new-file ranges are known*, because the
//! set of active blocks, continuation probes, and hash suppressions in
//! each round is derived from it. `Coverage` is that shared view: a
//! sorted set of disjoint, maximally-merged intervals.

/// Sorted, disjoint, adjacency-merged intervals over `[0, file_len)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Coverage {
    /// `(start, end)` pairs, end exclusive, sorted, non-touching.
    ivals: Vec<(u64, u64)>,
}

impl Coverage {
    /// Empty coverage.
    pub fn new() -> Self {
        Self::default()
    }

    /// The merged intervals.
    pub fn intervals(&self) -> &[(u64, u64)] {
        &self.ivals
    }

    /// Total covered bytes.
    pub fn covered_bytes(&self) -> u64 {
        self.ivals.iter().map(|(s, e)| e - s).sum()
    }

    /// Mark `[start, start+len)` covered. The range must not overlap any
    /// existing interval (the protocol never confirms a region twice);
    /// touching ranges are merged.
    pub fn insert(&mut self, start: u64, len: u64) {
        if len == 0 {
            return;
        }
        let end = start + len;
        let idx = self.ivals.partition_point(|&(s, _)| s < start);
        debug_assert!(idx == 0 || self.ivals[idx - 1].1 <= start, "overlap with predecessor");
        debug_assert!(
            idx == self.ivals.len() || end <= self.ivals[idx].0,
            "overlap with successor"
        );
        // Merge with neighbours that touch.
        let merge_prev = idx > 0 && self.ivals[idx - 1].1 == start;
        let merge_next = idx < self.ivals.len() && self.ivals[idx].0 == end;
        match (merge_prev, merge_next) {
            (true, true) => {
                self.ivals[idx - 1].1 = self.ivals[idx].1;
                self.ivals.remove(idx);
            }
            (true, false) => self.ivals[idx - 1].1 = end,
            (false, true) => self.ivals[idx].0 = start,
            (false, false) => self.ivals.insert(idx, (start, end)),
        }
    }

    /// Does `[start, start+len)` overlap nothing (fully unknown)?
    pub fn is_free(&self, start: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        let end = start + len;
        let idx = self.ivals.partition_point(|&(_, e)| e <= start);
        match self.ivals.get(idx) {
            Some(&(s, _)) => s >= end,
            None => true,
        }
    }

    /// Is `[start, start+len)` fully covered?
    pub fn contains(&self, start: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        let idx = self.ivals.partition_point(|&(_, e)| e <= start);
        match self.ivals.get(idx) {
            Some(&(s, e)) => s <= start && start + len <= e,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_merge_and_queries() {
        let mut c = Coverage::new();
        c.insert(10, 10);
        c.insert(30, 10);
        assert_eq!(c.intervals(), &[(10, 20), (30, 40)]);
        c.insert(20, 10); // bridges the gap
        assert_eq!(c.intervals(), &[(10, 40)]);
        assert_eq!(c.covered_bytes(), 30);
        assert!(c.is_free(0, 10));
        assert!(!c.is_free(0, 11));
        assert!(!c.is_free(39, 5));
        assert!(c.is_free(40, 100));
        assert!(c.contains(10, 30));
        assert!(c.contains(15, 5));
        assert!(!c.contains(5, 10));
        assert!(!c.contains(35, 10));
    }

    #[test]
    fn merge_prev_only_and_next_only() {
        let mut c = Coverage::new();
        c.insert(0, 5);
        c.insert(5, 5);
        assert_eq!(c.intervals(), &[(0, 10)]);
        let mut c = Coverage::new();
        c.insert(5, 5);
        c.insert(0, 5);
        assert_eq!(c.intervals(), &[(0, 10)]);
    }

    #[test]
    fn zero_len_noop() {
        let mut c = Coverage::new();
        c.insert(5, 0);
        assert!(c.intervals().is_empty());
        assert!(c.contains(7, 0));
        assert!(c.is_free(7, 0));
    }

    #[test]
    fn dense_random_inserts_stay_consistent() {
        // Insert many disjoint blocks in shuffled order; final state must
        // be one merged interval.
        let order = [7usize, 2, 9, 0, 4, 1, 8, 3, 6, 5];
        let mut c = Coverage::new();
        for &i in &order {
            c.insert(i as u64 * 16, 16);
        }
        assert_eq!(c.intervals(), &[(0, 160)]);
    }
}
