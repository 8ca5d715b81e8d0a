//! The benchmark's only clock. Every wall-clock reading in this crate
//! goes through here, so there is one place to audit.

use std::time::{Duration, Instant};

/// A running wall-clock measurement.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    pub fn start() -> Self {
        Self(Instant::now())
    }

    pub fn seconds(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    pub fn micros(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// Wall seconds `f` took, with its result.
pub fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let sw = Stopwatch::start();
    let out = f();
    (sw.seconds(), out)
}

/// The end of a measured section.
#[derive(Debug, Clone, Copy)]
pub struct Deadline(Instant);

impl Deadline {
    pub fn after(seconds: f64) -> Self {
        Self(Instant::now() + Duration::from_secs_f64(seconds.max(0.0)))
    }

    pub fn passed(&self) -> bool {
        Instant::now() >= self.0
    }
}
