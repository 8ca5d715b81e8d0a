//! First-party static-analysis gate for the msync workspace.
//!
//! The paper's multi-round map-construction protocol only works if the
//! client and server compute byte-identical weak hashes, block
//! partitions, and group-testing batches in every round. Several
//! classes of source-level defect silently break that symmetry:
//!
//! 1. a panic on one endpoint mid-round (the peer blocks forever),
//! 2. a lossy `as` narrowing cast in a wire-format encoder/decoder
//!    (bytes differ between the sides),
//! 3. hidden nondeterminism — ambient clocks or RNG — inside protocol
//!    logic (the two sides no longer compute the same partitions),
//! 4. an unbounded blocking `recv()` (a dead peer turns a lost frame
//!    into a session that hangs forever instead of a typed error), and
//! 5. *cross-file asymmetry*: a frame-tag match arm present on the
//!    encode side but not the decode side, a socket write whose bytes
//!    are charged to `TrafficStats` but never journaled (or vice
//!    versa), a drive loop that silently drops an `Output` variant.
//!
//! `xtask` enforces the corresponding invariants plus crate hygiene
//! (`#![forbid(unsafe_code)]`, `#![deny(missing_docs)]`) and build
//! hermeticity (first-party path dependencies only) with a
//! dependency-free, token-aware engine: [`tokens`] lexes each file with
//! exact spans, [`model`] resolves imports / function boundaries /
//! match arms per file, [`rules`] runs the per-file rule classes over
//! those models, [`passes`] runs the cross-file protocol passes
//! (wire-schema, charge-point, machine-discipline,
//! apply-discipline), and [`baseline`]
//! tracks pre-existing debt so the gate ratchets down instead of
//! blocking on history.
//!
//! Run it as `cargo run -p xtask -- lint`; the root integration test
//! `tests/lint_gate.rs` runs the same [`gate`] entry point so plain
//! `cargo test` enforces the invariants too.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod baseline;
pub mod metrics;
pub mod model;
pub mod passes;
pub mod report;
pub mod rules;
pub mod tokens;

pub use baseline::{Baseline, BaselineOutcome};
pub use rules::{analyze, lint_workspace, Analysis, Finding, LintConfig, Rule};

use std::io;
use std::path::Path;

/// Run the full gate: lint `root`, filter through the baseline file at
/// `root/lint-baseline.toml` (treated as empty if absent), and return
/// the outcome (including the informational deprecation-debt count).
/// The gate passes iff `outcome.active.is_empty()`.
///
/// # Errors
/// Returns any I/O error encountered while reading the tree.
pub fn gate(root: &Path, cfg: &LintConfig) -> io::Result<BaselineOutcome> {
    let analysis = analyze(root, cfg)?;
    let baseline_path = root.join("lint-baseline.toml");
    let baseline = if baseline_path.is_file() {
        Baseline::parse(&std::fs::read_to_string(&baseline_path)?)
    } else {
        Baseline::default()
    };
    let mut outcome = baseline.apply(analysis.findings);
    outcome.deprecation_debt = analysis.deprecation_debt;
    Ok(outcome)
}

/// Locate the workspace root by walking up from `start` until a
/// `Cargo.toml` containing a `[workspace]` table is found.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<std::path::PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.lines().any(|l| l.trim() == "[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
