//! Protocol configuration (the paper's "simple parameter file ... used to
//! specify all the options and techniques that should be used in each
//! round").
//!
//! Every technique of §5 is individually switchable so the experiments
//! can reproduce each figure's ablation: recursive splitting depth, hash
//! bit budgets, decomposable-hash suppression, continuation hashes,
//! sibling skipping, and the verification strategy.

/// How candidate matches are verified (paper §5.3, Figure 6.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyStrategy {
    /// One hash per candidate, `bits` wide, single batch. With
    /// `bits = 32` this is the "trivial verification" bar of Figure 6.4.
    PerCandidate {
        /// Verification hash width per candidate.
        bits: u32,
    },
    /// Group testing: a sequence of batches, each one verification
    /// roundtrip. Batch *k* covers the candidates that are still
    /// unresolved (members of failed groups), grouped `group_size` at a
    /// time with one `bits`-wide hash per group. Candidates still in
    /// failed groups after the last batch are dropped (treated as
    /// non-matches) — the safe direction.
    GroupTesting {
        /// One entry per verification batch/roundtrip.
        batches: Vec<BatchConfig>,
    },
}

/// One verification batch of the group-testing strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Candidates per verification group (1 = individual hashes).
    pub group_size: usize,
    /// Hash bits per group.
    pub bits: u32,
}

/// Full protocol configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolConfig {
    /// Starting (largest) block size; a power of two (paper: 2^15).
    pub start_block: usize,
    /// Smallest block size for which *global* hashes are sent; the
    /// recursion on global hashes stops here (Figures 6.1/6.2 sweep this).
    pub min_block_global: usize,
    /// Smallest block size for which *continuation* hashes are sent.
    /// Setting it equal to or above `min_block_global` disables the
    /// deeper continuation-only levels; it may be far smaller (down to
    /// 8–16 bytes) because continuation hashes are nearly free.
    pub min_block_cont: usize,
    /// Extra bits added to `log2(old_len)` for global candidate hashes
    /// (the paper sends "log n + extra"-bit hashes so the expected number
    /// of false candidates per block is `2^-extra`).
    pub global_extra_bits: u32,
    /// Bits per continuation hash (paper: "even a very small number of
    /// bits (say, 3 or 4 per hash)").
    pub cont_bits: u32,
    /// Enable continuation hashes at all.
    pub use_continuation: bool,
    /// Suppress every derivable sibling hash (decomposable hashes, §5.5).
    pub use_decomposable: bool,
    /// Skip the global hash of a block whose sibling is already fully
    /// known (§5.4: its content would usually have been found with the
    /// parent).
    pub skip_sibling_of_matched: bool,
    /// Verification strategy.
    pub verify: VerifyStrategy,
    /// Ignored by the sync, which takes the lowest matching position of
    /// each hash and never looked past it; retained for the benchmark's
    /// `core.index.*` replay (`PositionIndex::build`) and for existing
    /// parameter files; scheduled for removal.
    pub max_positions_per_hash: usize,
}

impl Default for ProtocolConfig {
    /// The paper's best all-techniques configuration (Table 6.1 column
    /// "our protocol, all techniques", minus the >20-roundtrip extremes
    /// it itself calls impractical).
    fn default() -> Self {
        Self {
            start_block: 1 << 15,
            min_block_global: 128,
            min_block_cont: 16,
            global_extra_bits: 8,
            cont_bits: 4,
            use_continuation: true,
            use_decomposable: true,
            skip_sibling_of_matched: true,
            verify: VerifyStrategy::GroupTesting {
                batches: vec![
                    BatchConfig { group_size: 4, bits: 20 },
                    BatchConfig { group_size: 1, bits: 20 },
                ],
            },
            max_positions_per_hash: 4,
        }
    }
}

impl ProtocolConfig {
    /// The *basic protocol* of Figures 6.1/6.2: recursive halving +
    /// decomposable hashes + one verification hash per candidate, no
    /// continuation hashes.
    pub fn basic(min_block: usize) -> Self {
        Self {
            min_block_global: min_block,
            min_block_cont: min_block,
            use_continuation: false,
            skip_sibling_of_matched: false,
            verify: VerifyStrategy::PerCandidate { bits: 16 },
            ..Self::default()
        }
    }

    /// Trivial verification (leftmost bar of Figure 6.4): 32-bit
    /// per-candidate hashes.
    pub fn trivial_verify(mut self) -> Self {
        self.verify = VerifyStrategy::PerCandidate { bits: 32 };
        self
    }

    /// All-techniques preset used for Table 6.1/6.2 (same as `default`).
    pub fn all_techniques() -> Self {
        Self::default()
    }

    /// Roundtrip-restricted preset (paper §7: "we are also studying how
    /// to improve file synchronization if we are restricted to just one
    /// or two round-trips"): run only `levels` rounds of the recursion,
    /// one verification batch, no continuation levels. The delta phase
    /// absorbs whatever the coarse map missed; with `levels = 1` this is
    /// in the same regime as rsync (one map roundtrip) and, as the paper
    /// expects, does not beat it by much.
    pub fn restricted(levels: u32) -> Self {
        let levels = levels.max(1);
        let start = 1usize << 15;
        let min_block = (start >> (levels - 1)).max(64);
        Self {
            start_block: start,
            min_block_global: min_block,
            min_block_cont: min_block,
            use_continuation: levels > 2,
            verify: VerifyStrategy::PerCandidate { bits: 20 },
            ..Self::default()
        }
    }

    /// Number of rounds (levels) the global-hash recursion runs.
    pub fn global_levels(&self) -> u32 {
        levels_between(self.start_block, self.min_block_global)
    }

    /// Number of rounds including continuation-only levels.
    pub fn total_levels(&self) -> u32 {
        let floor = if self.use_continuation {
            self.min_block_cont.min(self.min_block_global)
        } else {
            self.min_block_global
        };
        levels_between(self.start_block, floor)
    }

    /// Block size at level `level` (level 0 = `start_block`).
    pub fn block_size_at(&self, level: u32) -> usize {
        (self.start_block >> level).max(1)
    }

    /// Validate invariants; returns a human-readable complaint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.start_block.is_power_of_two() {
            return Err(format!("start_block {} is not a power of two", self.start_block));
        }
        if self.min_block_global < 2 {
            return Err("min_block_global must be at least 2".into());
        }
        if self.min_block_global > self.start_block {
            return Err("min_block_global exceeds start_block".into());
        }
        if self.use_continuation && self.min_block_cont < 2 {
            return Err("min_block_cont must be at least 2".into());
        }
        if self.cont_bits == 0 || self.cont_bits > 32 {
            return Err("cont_bits must be in 1..=32".into());
        }
        if self.global_extra_bits > 32 {
            return Err("global_extra_bits must be at most 32".into());
        }
        match &self.verify {
            VerifyStrategy::PerCandidate { bits } if *bits == 0 || *bits > 64 => {
                return Err("per-candidate verify bits must be in 1..=64".into());
            }
            VerifyStrategy::GroupTesting { batches } => {
                if batches.is_empty() {
                    return Err("group testing needs at least one batch".into());
                }
                for b in batches {
                    if b.group_size == 0 || b.bits == 0 || b.bits > 64 {
                        return Err("batch group_size and bits must be positive (bits ≤ 64)".into());
                    }
                }
            }
            _ => {}
        }
        if self.max_positions_per_hash == 0 {
            return Err("max_positions_per_hash must be positive".into());
        }
        Ok(())
    }
}

/// Link options for [`crate::sync_collection_channel`]: the
/// timeout/retry policy the session applies to every receive, and an
/// optional deterministic fault plan for the link (used by the soak
/// tests and the CLI's `--fault-profile` flag to exercise recovery).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChannelOptions {
    /// Receive deadline, retry budget, and backoff for the session.
    pub retry: msync_protocol::RetryPolicy,
    /// Faults to inject into the channel; `None` for a clean link.
    pub fault_plan: Option<msync_protocol::FaultPlan>,
    /// Seed for the fault injector's PRNG (ignored for a clean link).
    /// Together with `fault_plan` it reproduces a run exactly.
    pub fault_seed: u64,
}

/// Number of halvings from `from` down to (and including) blocks of size
/// `to`: e.g. 32768 → 128 is 9 levels (32768, 16384, …, 128).
pub fn levels_between(from: usize, to: usize) -> u32 {
    if to >= from {
        return 1;
    }
    let mut levels = 1;
    let mut size = from;
    while size / 2 >= to {
        size /= 2;
        levels += 1;
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        ProtocolConfig::default().validate().unwrap();
        ProtocolConfig::basic(32).validate().unwrap();
        ProtocolConfig::all_techniques().trivial_verify().validate().unwrap();
    }

    #[test]
    fn levels_arithmetic() {
        assert_eq!(levels_between(32768, 32768), 1);
        assert_eq!(levels_between(32768, 16384), 2);
        assert_eq!(levels_between(32768, 128), 9);
        assert_eq!(levels_between(128, 256), 1);
        let cfg = ProtocolConfig::basic(128);
        assert_eq!(cfg.block_size_at(0), 32768);
        assert_eq!(cfg.block_size_at(cfg.global_levels() - 1), 128);
    }

    #[test]
    fn continuation_extends_levels() {
        let cfg =
            ProtocolConfig { min_block_global: 128, min_block_cont: 16, ..Default::default() };
        assert!(cfg.total_levels() > cfg.global_levels());
        assert_eq!(cfg.total_levels(), levels_between(1 << 15, 16));
    }

    #[test]
    fn invalid_configs_rejected() {
        let cfg = ProtocolConfig { start_block: 1000, ..Default::default() };
        assert!(cfg.validate().is_err());

        let cfg = ProtocolConfig { min_block_global: 1 << 20, ..Default::default() };
        assert!(cfg.validate().is_err());

        let cfg = ProtocolConfig {
            verify: VerifyStrategy::GroupTesting { batches: vec![] },
            ..Default::default()
        };
        assert!(cfg.validate().is_err());

        let cfg = ProtocolConfig {
            verify: VerifyStrategy::PerCandidate { bits: 0 },
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }
}
