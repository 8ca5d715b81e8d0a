//! Deterministic link-fault injection.
//!
//! The paper's deployment story is synchronization over slow, real-world
//! links, where frames get dropped, corrupted, truncated, duplicated,
//! reordered, and connections die mid-round. This module models that
//! adversary as a [`FaultPlan`]: per-direction rates for six fault
//! classes, driven by the vendored xoshiro PRNG from `msync-corpus`
//! under an explicit seed, so every failing run is reproducible from
//! `(plan, seed)` alone and the build stays offline.
//!
//! The PRNG drives the *simulated network*, never the protocol itself:
//! both endpoints remain fully deterministic given the bytes they
//! receive (the `xtask lint` determinism rule still applies to protocol
//! logic).

use msync_corpus::Rng;

/// Per-direction fault probabilities. All rates are per-frame Bernoulli
/// draws in `[0, 1]`; classes compose (a frame can be both corrupted and
/// duplicated).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability a frame is silently lost.
    pub drop: f64,
    /// Probability a random bit of the frame is flipped.
    pub corrupt: f64,
    /// Probability the frame is cut to a random proper prefix.
    pub truncate: f64,
    /// Probability the frame is delivered twice.
    pub duplicate: f64,
    /// Probability the frame is held back and delivered after the next
    /// frame sent in the same direction (deterministic reordering — the
    /// simulator has no wall clock).
    pub delay: f64,
    /// Cut the connection after this many frames have entered this
    /// direction: the triggering frame and everything after it (both
    /// directions) is lost, and both sides see a disconnect.
    pub disconnect_after: Option<u64>,
}

impl FaultRates {
    /// A perfectly clean direction.
    #[must_use]
    pub const fn none() -> Self {
        FaultRates {
            drop: 0.0,
            corrupt: 0.0,
            truncate: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            disconnect_after: None,
        }
    }

    /// True when every rate is zero and no disconnect is scheduled.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.drop == 0.0
            && self.corrupt == 0.0
            && self.truncate == 0.0
            && self.duplicate == 0.0
            && self.delay == 0.0
            && self.disconnect_after.is_none()
    }
}

impl Default for FaultRates {
    fn default() -> Self {
        Self::none()
    }
}

/// Fault rates for both directions of a duplex channel.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Faults applied to client→server frames.
    pub c2s: FaultRates,
    /// Faults applied to server→client frames.
    pub s2c: FaultRates,
}

/// Names accepted by [`FaultPlan::profile`], for CLI help text.
pub const PROFILE_NAMES: &[&str] =
    &["none", "drop", "corrupt", "truncate", "duplicate", "delay", "disconnect", "lossy", "evil"];

impl FaultPlan {
    /// A clean link.
    #[must_use]
    pub const fn none() -> Self {
        FaultPlan { c2s: FaultRates::none(), s2c: FaultRates::none() }
    }

    /// The same rates in both directions.
    #[must_use]
    pub const fn symmetric(rates: FaultRates) -> Self {
        FaultPlan { c2s: rates, s2c: rates }
    }

    /// Named presets used by the CLI (`--fault-profile`) and the soak
    /// tests: one profile per single fault class, plus mixed profiles.
    /// Returns `None` for unknown names (see [`PROFILE_NAMES`]).
    #[must_use]
    pub fn profile(name: &str) -> Option<FaultPlan> {
        let single = |f: fn(&mut FaultRates)| {
            let mut r = FaultRates::none();
            f(&mut r);
            Some(FaultPlan::symmetric(r))
        };
        match name {
            "none" => Some(FaultPlan::none()),
            "drop" => single(|r| r.drop = 0.05),
            "corrupt" => single(|r| r.corrupt = 0.05),
            "truncate" => single(|r| r.truncate = 0.05),
            "duplicate" => single(|r| r.duplicate = 0.08),
            "delay" => single(|r| r.delay = 0.15),
            "disconnect" => {
                let mut plan = FaultPlan::none();
                plan.s2c.disconnect_after = Some(20);
                Some(plan)
            }
            "lossy" => single(|r| {
                r.drop = 0.03;
                r.duplicate = 0.03;
                r.delay = 0.05;
            }),
            "evil" => single(|r| {
                r.drop = 0.04;
                r.corrupt = 0.04;
                r.truncate = 0.02;
                r.duplicate = 0.04;
                r.delay = 0.08;
            }),
            _ => None,
        }
    }

    /// True when both directions are clean (the injector is a no-op and
    /// byte accounting matches a faultless link exactly).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.c2s.is_clean() && self.s2c.is_clean()
    }
}

/// The fate the injector assigns to one frame. Classes compose; `drop`
/// and `disconnect` make the rest moot.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrameFate {
    /// The link is cut starting with this frame.
    pub disconnect: bool,
    /// Frame lost in transit.
    pub drop: bool,
    /// One random bit flipped.
    pub corrupt: bool,
    /// Cut to a random proper prefix.
    pub truncate: bool,
    /// Delivered twice.
    pub duplicate: bool,
    /// Held back past the next same-direction frame.
    pub delay: bool,
}

/// Per-direction injector state: the rates, the seeded PRNG, and the
/// count of frames seen (for `disconnect_after`).
#[derive(Debug)]
pub struct FaultInjector {
    rates: FaultRates,
    rng: Rng,
    sent: u64,
}

impl FaultInjector {
    /// Build an injector for one direction. Distinct directions of the
    /// same plan must use distinct seeds (the virtual link derives them
    /// from the caller's seed).
    #[must_use]
    pub fn new(rates: FaultRates, seed: u64) -> Self {
        FaultInjector { rates, rng: Rng::seed_from_u64(seed), sent: 0 }
    }

    /// Decide the fate of the next frame. Draws happen in a fixed order
    /// (drop, corrupt, truncate, duplicate, delay) so a run is a pure
    /// function of `(rates, seed, frame index)`.
    pub fn next_fate(&mut self) -> FrameFate {
        self.sent += 1;
        let mut fate = FrameFate {
            disconnect: self.rates.disconnect_after.is_some_and(|n| self.sent > n),
            ..FrameFate::default()
        };
        fate.drop = self.rng.gen_bool(self.rates.drop);
        fate.corrupt = self.rng.gen_bool(self.rates.corrupt);
        fate.truncate = self.rng.gen_bool(self.rates.truncate);
        fate.duplicate = self.rng.gen_bool(self.rates.duplicate);
        fate.delay = self.rng.gen_bool(self.rates.delay);
        fate
    }

    /// Flip one uniformly chosen bit of `bytes` (no-op on empty frames).
    pub fn corrupt_frame(&mut self, bytes: &mut [u8]) {
        if bytes.is_empty() {
            return;
        }
        let bit = self.rng.gen_range(0..bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
    }

    /// Frames this injector has assigned fates to so far. Fault trace
    /// events use this as the 1-based per-direction frame sequence
    /// number, so a replay with the same `(rates, seed)` can line its
    /// fates up against a recorded journal.
    #[must_use]
    pub fn frames_seen(&self) -> u64 {
        self.sent
    }

    /// Truncate `bytes` to a uniformly chosen proper prefix.
    pub fn truncate_frame(&mut self, bytes: &mut Vec<u8>) {
        if bytes.is_empty() {
            return;
        }
        let keep = self.rng.gen_range(0..bytes.len());
        bytes.truncate(keep);
    }
}

/// Materialize the injector's private wire image `header ++ payload` so
/// a corruption/truncation fault can damage it without touching the
/// sender's shared (possibly cached-for-retransmit) payload allocation.
///
/// This is the **only sanctioned copy of live frame bytes** in the wire
/// modules — the xtask `alloc-discipline` pass allowlists exactly this
/// function; every other path must share [`crate::FrameBuf`]s by
/// refcount. Clean frames are never encoded on the virtual link at
/// all, so this copy is paid exactly when a fault actually mutates a
/// frame, and it is metered like any other.
#[must_use]
pub fn copy_for_mutation(header: &[u8], payload: &[u8]) -> Vec<u8> {
    crate::bufpool::note_frame_copy(header.len() + payload.len());
    let mut image = Vec::with_capacity(header.len() + payload.len());
    image.extend_from_slice(header);
    image.extend_from_slice(payload);
    image
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fates_are_deterministic_per_seed() {
        let rates = FaultRates { drop: 0.3, corrupt: 0.3, ..FaultRates::none() };
        let mut a = FaultInjector::new(rates, 7);
        let mut b = FaultInjector::new(rates, 7);
        for _ in 0..200 {
            let (fa, fb) = (a.next_fate(), b.next_fate());
            assert_eq!(fa.drop, fb.drop);
            assert_eq!(fa.corrupt, fb.corrupt);
        }
    }

    #[test]
    fn clean_rates_never_fault() {
        let mut inj = FaultInjector::new(FaultRates::none(), 99);
        for _ in 0..500 {
            let f = inj.next_fate();
            assert!(!f.disconnect && !f.drop && !f.corrupt && !f.truncate);
            assert!(!f.duplicate && !f.delay);
        }
    }

    #[test]
    fn disconnect_after_triggers_exactly() {
        let rates = FaultRates { disconnect_after: Some(3), ..FaultRates::none() };
        let mut inj = FaultInjector::new(rates, 1);
        assert!(!inj.next_fate().disconnect);
        assert!(!inj.next_fate().disconnect);
        assert!(!inj.next_fate().disconnect);
        assert!(inj.next_fate().disconnect);
    }

    #[test]
    fn profiles_resolve() {
        for name in PROFILE_NAMES {
            assert!(FaultPlan::profile(name).is_some(), "profile {name} missing");
        }
        assert!(FaultPlan::profile("bogus").is_none());
        assert!(FaultPlan::profile("none").is_some_and(|p| p.is_clean()));
        assert!(FaultPlan::profile("evil").is_some_and(|p| !p.is_clean()));
    }

    #[test]
    fn corrupt_flips_exactly_one_bit() {
        let mut inj = FaultInjector::new(FaultRates::none(), 5);
        let original = vec![0u8; 32];
        let mut frame = original.clone();
        inj.corrupt_frame(&mut frame);
        let flipped: u32 = frame.iter().zip(&original).map(|(a, b)| (a ^ b).count_ones()).sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn truncate_shortens() {
        let mut inj = FaultInjector::new(FaultRates::none(), 6);
        let mut frame = vec![1u8; 40];
        inj.truncate_frame(&mut frame);
        assert!(frame.len() < 40);
    }
}
