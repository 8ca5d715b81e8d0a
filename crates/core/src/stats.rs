//! Per-session statistics beyond raw traffic: what each round did.
//!
//! These power the paper's analysis quantities — e.g. the "harvest rate"
//! (fraction of sent hashes that end in confirmed matches, §6.2) that
//! explains why continuation hashes can profitably run at much smaller
//! block sizes than global hashes.

use msync_protocol::TrafficStats;

/// What happened in one protocol round (one block size).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Block size of the round.
    pub block_size: usize,
    /// Items hashed (probes + active blocks).
    pub items: usize,
    /// Of which continuation probes.
    pub cont_items: usize,
    /// Always 0: local hashes were measured to cost more than the
    /// global hashes they replace and were removed from the protocol.
    /// The field stays because external per-layer reports still read
    /// it.
    pub local_items: usize,
    /// Global hashes suppressed via decomposability.
    pub suppressed: usize,
    /// Items whose hash found a candidate position in the old file.
    pub candidates: usize,
    /// Candidates confirmed by verification.
    pub confirmed: usize,
    /// Wall-clock duration of the round in microseconds (0 when the
    /// session ran without a trace recorder).
    pub wall_us: u64,
}

impl LevelStats {
    /// Fraction of hashed items that ended in a confirmed match — the
    /// paper's *harvest rate*.
    pub fn harvest_rate(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.confirmed as f64 / self.items as f64
        }
    }
}

/// Full statistics of one synchronization session.
#[derive(Debug, Clone, Default)]
pub struct SyncStats {
    /// Bytes per direction and phase, plus roundtrips.
    pub traffic: TrafficStats,
    /// One entry per executed round, outermost block size first.
    pub levels: Vec<LevelStats>,
    /// Bytes of the new file covered by confirmed matches when the map
    /// phase ended.
    pub known_bytes: u64,
    /// Size of the delta the server sent in the final phase.
    pub delta_bytes: u64,
}

impl SyncStats {
    /// Total bytes on the wire — the headline number of every figure.
    pub fn total_bytes(&self) -> u64 {
        self.traffic.total_bytes()
    }

    /// Total confirmed matches across rounds.
    pub fn confirmed_matches(&self) -> usize {
        self.levels.iter().map(|l| l.confirmed).sum()
    }

    /// Total candidates that failed verification (false candidates).
    pub fn false_candidates(&self) -> usize {
        let candidates: usize = self.levels.iter().map(|l| l.candidates).sum();
        candidates.saturating_sub(self.confirmed_matches())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harvest_rate() {
        let l = LevelStats { items: 10, confirmed: 4, ..Default::default() };
        assert!((l.harvest_rate() - 0.4).abs() < 1e-12);
        assert_eq!(LevelStats::default().harvest_rate(), 0.0);
    }

    #[test]
    fn aggregates() {
        let stats = SyncStats {
            levels: vec![
                LevelStats { items: 8, candidates: 5, confirmed: 4, ..Default::default() },
                LevelStats { items: 4, candidates: 3, confirmed: 3, ..Default::default() },
            ],
            ..Default::default()
        };
        assert_eq!(stats.confirmed_matches(), 7);
        assert_eq!(stats.false_candidates(), 1);
    }
}
