//! Experiment harness: the code that regenerates every table and figure
//! of the paper's evaluation (§6).
//!
//! [`cost`] measures the wire cost of each synchronization method on a
//! collection pair; [`experiments`] drives the parameter sweeps of
//! Figures 6.1–6.4 and Tables 6.1–6.2 and renders them as the same rows
//! and series the paper reports. Run them via the `exp` binary:
//!
//! ```text
//! cargo run --release -p msync-bench --bin exp -- fig6-1
//! cargo run --release -p msync-bench --bin exp -- all --scale 0.1
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cost;
pub mod experiments;

pub use cost::{measure, Cost, Method};
