//! The msync-specific invariant rules.
//!
//! Each rule exists because a violation can silently desynchronize the
//! two protocol endpoints (see DESIGN.md, "The static-analysis gate"):
//!
//! * `crate-headers` — every lib crate must carry
//!   `#![forbid(unsafe_code)]` and `#![deny(missing_docs)]`.
//! * `panic-freedom` — no `unwrap()` / `expect(` / `panic!` / `todo!` /
//!   `unimplemented!` in non-test code of the protocol-critical crates;
//!   a panic mid-round kills one endpoint while the other waits forever.
//! * `lossy-cast` — no narrowing `as` casts in the wire-format modules;
//!   a silent truncation changes encoded bytes on one side only.
//! * `determinism` — no ambient time or RNG inside protocol logic; both
//!   endpoints must compute byte-identical hashes and partitions. The
//!   token-aware scan also resolves `use ... as` aliases, so
//!   `use std::time::Instant as I; I::now()` fires too.
//! * `hermeticity` — workspace crates may only use first-party path
//!   dependencies, so the build never needs the network.
//! * `channel-discipline` — no bare `recv()` in protocol-critical
//!   crates; an unbounded receive hangs forever when the peer dies, so
//!   every wait must go through `recv_timeout` (or a non-blocking
//!   `try_recv`). In the socket crates the same rule additionally bans
//!   blocking socket reads without a deadline: any `read`-family call
//!   (or `peek`) must be preceded (in the same file) by a
//!   `set_read_timeout`, so a dead TCP peer surfaces as a typed timeout
//!   instead of a hung session. Filesystem reads (`fs::`-qualified) are
//!   exempt.
//! * `clock-discipline` — no `Instant::now` / `SystemTime::now` in any
//!   workspace crate except `crates/trace`: all timing flows through
//!   the `msync_trace::Clock` trait, so a traced run can be replayed
//!   byte-identically under a manual clock. Alias-aware like
//!   `determinism`. (The `determinism` rule already bans the *words* in
//!   protocol-critical crates; this one closes the gap for the rest of
//!   the workspace.)
//!
//! Five cross-file passes live in [`crate::passes`] and run over the
//! same per-file models:
//!
//! * `wire-schema` — single registry per tag vocabulary (frame tags
//!   `Phase`, admin verbs `AdminCmd`), symmetric match arms.
//! * `charge-point` — `TrafficStats` charge and trace frame event are
//!   paired within every transport function.
//! * `machine-discipline` — drive loops handle every `Output` variant
//!   and the sans-IO engine modules stay effect-pure (subsumes the
//!   retired word-grep `io-discipline` rule).
//! * `apply-discipline` — no bare `fs::write(` / `File::create(` on the
//!   sync-apply paths; every materialized file goes through the atomic
//!   applier (`msync_core::AtomicApplier` / `atomic_write_file`) so a
//!   crash mid-write never leaves a torn replica.
//! * `alloc-discipline` — no `.to_vec()` / `.clone()` on frame or
//!   payload values inside the wire modules; frames move as refcounted
//!   `FrameBuf` shares, and the only sanctioned wire-path copy is the
//!   allowlisted `fault::copy_for_mutation` (an injected fault must
//!   never mutate the ARQ resend cache's pristine image in place).

use crate::model::FileModel;
use crate::passes;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Identifier of a rule class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Required crate-level attributes in every lib crate.
    CrateHeaders,
    /// Panicking constructs in protocol-critical non-test code.
    PanicFreedom,
    /// Narrowing `as` casts in wire-format modules.
    LossyCast,
    /// Ambient time / RNG in protocol logic.
    Determinism,
    /// Non-path dependencies in workspace crates.
    Hermeticity,
    /// Unbounded blocking receives in protocol-critical code.
    ChannelDiscipline,
    /// Ambient `::now` clock reads outside the trace crate.
    ClockDiscipline,
    /// One-sided frame-tag match arms or duplicate tag registries.
    WireSchema,
    /// Unpaired traffic charge / trace frame event in transport code.
    ChargePoint,
    /// Incomplete drive loops or effectful sans-IO engine modules.
    MachineDiscipline,
    /// Bare file writes on sync-apply paths outside the atomic applier.
    ApplyDiscipline,
    /// Ad-hoc frame/payload copies on the wire paths outside the
    /// sanctioned copy sites.
    AllocDiscipline,
}

impl Rule {
    /// Stable string key used in baselines and JSON output.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            Rule::CrateHeaders => "crate-headers",
            Rule::PanicFreedom => "panic-freedom",
            Rule::LossyCast => "lossy-cast",
            Rule::Determinism => "determinism",
            Rule::Hermeticity => "hermeticity",
            Rule::ChannelDiscipline => "channel-discipline",
            Rule::ClockDiscipline => "clock-discipline",
            Rule::WireSchema => "wire-schema",
            Rule::ChargePoint => "charge-point",
            Rule::MachineDiscipline => "machine-discipline",
            Rule::ApplyDiscipline => "apply-discipline",
            Rule::AllocDiscipline => "alloc-discipline",
        }
    }

    /// Parse a baseline key back into a rule.
    #[must_use]
    pub fn from_key(key: &str) -> Option<Rule> {
        [
            Rule::CrateHeaders,
            Rule::PanicFreedom,
            Rule::LossyCast,
            Rule::Determinism,
            Rule::Hermeticity,
            Rule::ChannelDiscipline,
            Rule::ClockDiscipline,
            Rule::WireSchema,
            Rule::ChargePoint,
            Rule::MachineDiscipline,
            Rule::ApplyDiscipline,
            Rule::AllocDiscipline,
        ]
        .into_iter()
        .find(|r| r.key() == key)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// One diagnostic produced by the gate, with a token-accurate span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// 1-based column one past the offending token.
    pub end_col: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// A finding anchored at code token `i` of `m`.
    #[must_use]
    pub fn at(rule: Rule, file: &str, m: &FileModel, i: usize, message: String) -> Finding {
        let t = m.tok(i);
        let width = u32::try_from(t.end - t.start).unwrap_or(1);
        Finding {
            rule,
            file: file.to_owned(),
            line: t.line,
            col: t.col,
            end_col: t.col + width,
            message,
        }
    }

    /// A finding about a whole file (missing file, missing declaration).
    #[must_use]
    pub fn file_level(rule: Rule, file: &str, message: String) -> Finding {
        Finding { rule, file: file.to_owned(), line: 1, col: 1, end_col: 1, message }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}: [{}] {}", self.file, self.line, self.col, self.rule, self.message)
    }
}

/// One wire-schema registry: an enum whose variants are the frame-tag
/// vocabulary, declared in exactly one module, with every dispatching
/// `match` in the scoped paths covering the full variant set.
#[derive(Debug, Clone)]
pub struct WireSchema {
    /// The registry enum's name (e.g. `Phase`).
    pub enum_name: String,
    /// Workspace-relative path of the one module allowed to declare it.
    pub registry: String,
    /// Workspace-relative path prefixes whose matches must be symmetric.
    pub scopes: Vec<String>,
}

/// The sans-IO machine contract checked by `machine-discipline`.
#[derive(Debug, Clone)]
pub struct MachineSpec {
    /// The machine output enum's name (e.g. `Output`).
    pub output_enum: String,
    /// Workspace-relative path of the module declaring the output enum.
    pub registry: String,
    /// The polling method every drive loop calls (e.g. `poll_output`).
    pub poll_fn: String,
}

/// What to check and where. [`LintConfig::msync`] is the configuration
/// for this workspace; tests build ad-hoc configs over temp trees.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Crate directory names (under `crates/`) whose non-test code must
    /// be panic-free and deterministic.
    pub protocol_critical: Vec<String>,
    /// Workspace-relative files holding wire formats: no narrowing casts.
    pub wire_modules: Vec<String>,
    /// Crate directory names doing raw socket I/O: every `read`-family
    /// call must have a `set_read_timeout` earlier in the same file.
    pub socket_crates: Vec<String>,
    /// Crate directory names allowed to read the ambient clock
    /// (`Instant::now` / `SystemTime::now`). Everyone else must take
    /// time from a `msync_trace::Clock`.
    pub clock_exempt: Vec<String>,
    /// Workspace-relative path prefixes of the sans-IO engine modules:
    /// no threads, no blocking I/O, no sleeps inside.
    pub engine_modules: Vec<String>,
    /// Frame-tag registries checked by the `wire-schema` pass.
    pub wire_schemas: Vec<WireSchema>,
    /// Crate directory names whose functions must pair `TrafficStats`
    /// charges with trace frame events (`charge-point` pass).
    pub charge_crates: Vec<String>,
    /// The machine output contract for the `machine-discipline` pass.
    pub machine: Option<MachineSpec>,
    /// Workspace-relative path prefixes of the sync-apply code: file
    /// writes there must go through the atomic applier, never bare
    /// `fs::write` / `File::create` (`apply-discipline` pass).
    pub apply_scopes: Vec<String>,
    /// Workspace-relative path prefixes of the wire-path code: no
    /// `.to_vec()` / `.clone()` on frame or payload values there
    /// (`alloc-discipline` pass); frames move as `FrameBuf` shares.
    pub alloc_scopes: Vec<String>,
    /// `(file, function)` pairs exempt from `alloc-discipline`: the
    /// sanctioned copy sites, each of which meters its copy through
    /// `note_frame_copy`.
    pub alloc_allowed: Vec<(String, String)>,
}

impl LintConfig {
    /// The configuration for the msync workspace.
    #[must_use]
    pub fn msync() -> Self {
        LintConfig {
            protocol_critical: ["hashes", "protocol", "rsync", "core", "net"]
                .map(str::to_owned)
                .to_vec(),
            wire_modules: [
                "crates/hashes/src/bitio.rs",
                "crates/protocol/src/channel.rs",
                "crates/protocol/src/crc.rs",
                "crates/compress/src/vcdiff.rs",
                "crates/core/src/engine/codec.rs",
                "crates/core/src/pipeline.rs",
                "crates/net/src/tcp.rs",
            ]
            .map(str::to_owned)
            .to_vec(),
            socket_crates: vec!["net".to_owned()],
            clock_exempt: vec!["trace".to_owned()],
            engine_modules: vec!["crates/core/src/engine/".to_owned()],
            wire_schemas: vec![
                WireSchema {
                    enum_name: "Phase".to_owned(),
                    registry: "crates/protocol/src/stats.rs".to_owned(),
                    scopes: ["crates/protocol/src/", "crates/core/src/engine/", "crates/net/src/"]
                        .map(str::to_owned)
                        .to_vec(),
                },
                // The admin verb vocabulary is a wire schema too: a verb
                // the parser accepts but the executor does not dispatch
                // (or vice versa) is the same one-sided desync as a
                // missing frame-tag arm.
                WireSchema {
                    enum_name: "AdminCmd".to_owned(),
                    registry: "crates/net/src/handshake.rs".to_owned(),
                    scopes: vec!["crates/net/src/".to_owned()],
                },
            ],
            charge_crates: vec!["net".to_owned(), "protocol".to_owned()],
            machine: Some(MachineSpec {
                output_enum: "Output".to_owned(),
                registry: "crates/core/src/engine/mod.rs".to_owned(),
                poll_fn: "poll_output".to_owned(),
            }),
            apply_scopes: ["crates/cli/src/", "crates/net/src/"].map(str::to_owned).to_vec(),
            alloc_scopes: ["crates/protocol/src/", "crates/net/src/", "crates/core/src/engine/"]
                .map(str::to_owned)
                .to_vec(),
            alloc_allowed: vec![(
                "crates/protocol/src/fault.rs".to_owned(),
                "copy_for_mutation".to_owned(),
            )],
        }
    }
}

/// Everything one scan produces: the findings plus informational
/// counters reported alongside them.
#[derive(Debug)]
pub struct Analysis {
    /// All findings, sorted by `(file, line, col, rule)`.
    pub findings: Vec<Finding>,
    /// Count of `#[deprecated]` attributes in non-test workspace code.
    pub deprecation_debt: usize,
}

/// Run every rule over the workspace rooted at `root` and return the
/// findings only. See [`analyze`] for the full result.
///
/// # Errors
/// Returns any I/O error encountered while reading the tree.
pub fn lint_workspace(root: &Path, cfg: &LintConfig) -> io::Result<Vec<Finding>> {
    analyze(root, cfg).map(|a| a.findings)
}

/// Model every source file, run the per-file rules and the cross-file
/// passes, and return findings plus the deprecation-debt count.
///
/// # Errors
/// Returns any I/O error encountered while reading the tree.
pub fn analyze(root: &Path, cfg: &LintConfig) -> io::Result<Analysis> {
    let mut findings = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let path = entry?.path();
            if path.is_dir() && path.join("Cargo.toml").is_file() {
                crate_dirs.push(path);
            }
        }
    }
    crate_dirs.sort();

    // Model every source file once; rules and passes share the models.
    let mut models: BTreeMap<String, FileModel> = BTreeMap::new();
    for dir in &crate_dirs {
        check_manifest(root, &dir.join("Cargo.toml"), false, &mut findings)?;
        for file in rust_sources(&dir.join("src"))? {
            let rel = rel_path(root, &file);
            models.insert(rel, FileModel::parse(&fs::read_to_string(&file)?));
        }
    }
    check_manifest(root, &root.join("Cargo.toml"), true, &mut findings)?;
    for file in rust_sources(&root.join("src"))? {
        let rel = rel_path(root, &file);
        models.insert(rel, FileModel::parse(&fs::read_to_string(&file)?));
    }

    for (rel, m) in &models {
        if rel.ends_with("/lib.rs") && rel.matches('/').count() <= 3 {
            check_crate_headers(rel, m, &mut findings);
        }
        let crate_name = rel.strip_prefix("crates/").and_then(|r| r.split('/').next());
        let critical = crate_name.is_some_and(|n| cfg.protocol_critical.iter().any(|c| c == n));
        let socket = crate_name.is_some_and(|n| cfg.socket_crates.iter().any(|c| c == n));
        let clock_ok = crate_name.is_some_and(|n| cfg.clock_exempt.iter().any(|c| c == n));
        if critical {
            check_panic_freedom(rel, m, &mut findings);
            check_determinism(rel, m, &mut findings);
            check_channel_discipline(rel, m, &mut findings);
        }
        if socket {
            check_socket_discipline(rel, m, &mut findings);
        }
        if !clock_ok {
            check_clock_discipline(rel, m, &mut findings);
        }
    }

    for rel in &cfg.wire_modules {
        match models.get(rel) {
            Some(m) => check_lossy_casts(rel, m, &mut findings),
            None => findings.push(Finding::file_level(
                Rule::LossyCast,
                rel,
                "configured wire module does not exist (update LintConfig)".to_owned(),
            )),
        }
    }

    passes::run(&models, cfg, &mut findings);
    let deprecation_debt = passes::deprecation_debt(&models);

    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(Analysis { findings, deprecation_debt })
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/")
}

/// Recursively collect `.rs` files under `dir`, sorted for determinism.
fn rust_sources(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    if !dir.is_dir() {
        return Ok(out);
    }
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Rule `crate-headers`.
fn check_crate_headers(rel: &str, m: &FileModel, findings: &mut Vec<Finding>) {
    for (seq, attr, why) in [
        (
            ["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"],
            "#![forbid(unsafe_code)]",
            "unsafe code is banned workspace-wide",
        ),
        (
            ["#", "!", "[", "deny", "(", "missing_docs", ")", "]"],
            "#![deny(missing_docs)]",
            "every public item must document its protocol role",
        ),
    ] {
        if m.is_empty() || m.find_seq(0, &seq).is_none() {
            findings.push(Finding::file_level(
                Rule::CrateHeaders,
                rel,
                format!("missing crate attribute `{attr}` ({why})"),
            ));
        }
    }
}

/// Rule `panic-freedom`.
fn check_panic_freedom(rel: &str, m: &FileModel, findings: &mut Vec<Finding>) {
    for (word, follow, label) in [
        ("unwrap", '(', "unwrap() can panic; return a Result instead"),
        ("expect", '(', "expect() can panic; return a Result instead"),
        ("panic", '!', "panic! aborts one endpoint mid-round"),
        ("todo", '!', "todo! is a guaranteed panic"),
        ("unimplemented", '!', "unimplemented! is a guaranteed panic"),
    ] {
        for i in m.idents(word) {
            if i + 1 < m.len() && m.is_punct(i + 1, follow) {
                findings.push(Finding::at(
                    Rule::PanicFreedom,
                    rel,
                    m,
                    i,
                    format!("`{word}` in protocol-critical code: {label}"),
                ));
            }
        }
    }
}

const BANNED_NONDETERMINISM: &[(&str, &str)] = &[
    ("Instant", "ambient clock; protocol decisions must not depend on wall time"),
    ("SystemTime", "ambient clock; protocol decisions must not depend on wall time"),
    ("thread_rng", "ambient RNG; both endpoints must compute identical bytes"),
    ("from_entropy", "ambient RNG; both endpoints must compute identical bytes"),
    ("RandomState", "randomly-seeded hasher; iteration order leaks into the protocol"),
    ("rand", "RNG crate use inside protocol logic"),
];

/// Rule `determinism`: the banned words directly, plus any local name a
/// `use` declaration resolves to a banned path segment — so
/// `use std::time::Instant as I` does not launder the ambient clock.
fn check_determinism(rel: &str, m: &FileModel, findings: &mut Vec<Finding>) {
    for (word, label) in BANNED_NONDETERMINISM {
        for i in m.idents(word) {
            findings.push(Finding::at(
                Rule::Determinism,
                rel,
                m,
                i,
                format!("`{word}` in protocol logic: {label}"),
            ));
        }
    }
    for (name, path) in &m.imports {
        if BANNED_NONDETERMINISM.iter().any(|(w, _)| w == name) {
            continue; // direct scan above already covers this name
        }
        let Some((word, label)) =
            BANNED_NONDETERMINISM.iter().find(|(w, _)| path.iter().any(|seg| seg == w))
        else {
            continue;
        };
        for i in m.idents(name) {
            if !m.is_use(i) {
                findings.push(Finding::at(
                    Rule::Determinism,
                    rel,
                    m,
                    i,
                    format!(
                        "`{name}` resolves to `{}` (`{word}` in protocol logic: {label})",
                        path.join("::")
                    ),
                ));
            }
        }
    }
}

/// Rule `channel-discipline`: a bare `recv()` blocks forever if the
/// peer died, turning a lost frame into a hung session. `recv_timeout`
/// and `try_recv` are distinct identifiers and do not fire.
fn check_channel_discipline(rel: &str, m: &FileModel, findings: &mut Vec<Finding>) {
    for i in m.idents("recv") {
        if i + 1 < m.len() && m.is_punct(i + 1, '(') {
            findings.push(Finding::at(
                Rule::ChannelDiscipline,
                rel,
                m,
                i,
                "bare `recv()` can hang forever on a dead peer; use `recv_timeout` with a retry budget (or `try_recv`)".to_owned(),
            ));
        }
    }
}

/// Rule `channel-discipline`, socket-crate extension: a blocking
/// socket read with no deadline hangs forever on a dead peer, exactly
/// like a bare `recv()`. Every `read`-family call (`peek` included: on a
/// blocking socket it waits just like `read`) must therefore be
/// preceded — earlier in the same file — by a `set_read_timeout`
/// call establishing the deadline. `fs::`-qualified reads are
/// filesystem I/O, not socket I/O, and are exempt.
fn check_socket_discipline(rel: &str, m: &FileModel, findings: &mut Vec<Finding>) {
    let deadline: Option<usize> = m.idents("set_read_timeout").next();
    for word in ["read", "read_exact", "read_to_end", "read_to_string", "peek"] {
        for i in m.idents(word) {
            if i + 1 >= m.len() || !m.is_punct(i + 1, '(') {
                continue;
            }
            if i >= 3 && m.is_path_sep(i - 2) && m.is_ident(i - 3, "fs") {
                continue;
            }
            if deadline.is_some_and(|d| d < i) {
                continue;
            }
            findings.push(Finding::at(
                Rule::ChannelDiscipline,
                rel,
                m,
                i,
                format!(
                    "blocking `{word}(` with no preceding `set_read_timeout` in this file; an undeadlined socket read hangs forever on a dead peer"
                ),
            ));
        }
    }
}

/// Rule `clock-discipline`: an ambient `Instant::now()` /
/// `SystemTime::now()` timestamps events with wall time nothing can
/// replay. Outside the exempt trace crate (whose `SystemClock` is the
/// one sanctioned caller), time must come from a `msync_trace::Clock`
/// handle, so golden-journal tests can substitute a manual clock.
/// Other members (`Instant::checked_add`, `SystemTime::UNIX_EPOCH`, a
/// bare `Duration`) are untimed and allowed. Aliased imports
/// (`use std::time::Instant as I; I::now()`) fire too.
fn check_clock_discipline(rel: &str, m: &FileModel, findings: &mut Vec<Finding>) {
    let clock_types = ["Instant", "SystemTime"];
    let fire = |m: &FileModel, i: usize| -> bool {
        i + 3 < m.len() && m.is_path_sep(i + 1) && m.is_ident(i + 3, "now")
    };
    for word in clock_types {
        for i in m.idents(word) {
            if fire(m, i) {
                findings.push(Finding::at(
                    Rule::ClockDiscipline,
                    rel,
                    m,
                    i,
                    format!(
                        "`{word}::now` outside crates/trace; take time from a `msync_trace::Clock` so traced runs replay deterministically"
                    ),
                ));
            }
        }
    }
    for (name, path) in &m.imports {
        if clock_types.contains(&name.as_str()) {
            continue; // direct scan above already covers this name
        }
        let Some(word) = path.last().map(String::as_str).filter(|last| clock_types.contains(last))
        else {
            continue;
        };
        for i in m.idents(name) {
            if !m.is_use(i) && fire(m, i) {
                findings.push(Finding::at(
                    Rule::ClockDiscipline,
                    rel,
                    m,
                    i,
                    format!(
                        "`{name}::now` (alias of `{word}`) outside crates/trace; take time from a `msync_trace::Clock` so traced runs replay deterministically"
                    ),
                ));
            }
        }
    }
}

const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "usize", "isize"];

/// Rule `lossy-cast`.
fn check_lossy_casts(rel: &str, m: &FileModel, findings: &mut Vec<Finding>) {
    for i in m.idents("as") {
        if m.is_use(i) || i + 1 >= m.len() {
            continue;
        }
        let target = m.text(i + 1);
        if NARROW_TARGETS.contains(&target) {
            findings.push(Finding::at(
                Rule::LossyCast,
                rel,
                m,
                i,
                format!(
                    "narrowing `as {target}` in a wire-format module; use `{target}::try_from` so truncation is an error, not silent corruption"
                ),
            ));
        }
    }
}

/// Rule `hermeticity`: every dependency of a workspace crate must be a
/// first-party path dependency (`path = ...` or `workspace = true`
/// pointing at a path entry).
fn check_manifest(
    root: &Path,
    manifest: &Path,
    is_root: bool,
    findings: &mut Vec<Finding>,
) -> io::Result<()> {
    if !manifest.is_file() {
        return Ok(());
    }
    let rel = rel_path(root, manifest);
    let text = fs::read_to_string(manifest)?;
    let mut section = String::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = u32::try_from(idx + 1).unwrap_or(u32::MAX);
        if line.starts_with('[') {
            section = line.trim_matches(|c| c == '[' || c == ']').to_owned();
            continue;
        }
        if line.is_empty() || line.starts_with('#') || !line.contains('=') {
            continue;
        }
        let dep_section =
            matches!(section.as_str(), "dependencies" | "dev-dependencies" | "build-dependencies");
        let ws_dep_section = is_root && section == "workspace.dependencies";
        if !dep_section && !ws_dep_section {
            continue;
        }
        let ok = if ws_dep_section {
            // The shared table itself must hold path deps only.
            line.contains("path =") || line.contains("path=")
        } else {
            line.contains("workspace = true")
                || line.contains("workspace=true")
                || line.contains("path =")
                || line.contains("path=")
        };
        if !ok {
            let name = line.split(['=', '.']).next().unwrap_or(line).trim();
            findings.push(Finding {
                rule: Rule::Hermeticity,
                file: rel.clone(),
                line: lineno,
                col: 1,
                end_col: 1,
                message: format!(
                    "dependency `{name}` is not a first-party path dependency; registry dependencies are not allowed: the workspace must build offline"
                ),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        FileModel::parse(src)
    }

    #[test]
    fn panic_tokens_found_with_lines_and_cols() {
        let m = model("fn f() {\n    x.unwrap();\n    y.expect(\"m\");\n    panic!(\"no\");\n}\n");
        let mut fs = Vec::new();
        check_panic_freedom("f.rs", &m, &mut fs);
        let lines: Vec<u32> = fs.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 3, 4]);
        assert_eq!(fs[0].col, 7, "column points at the `unwrap` token");
        assert_eq!(fs[0].end_col, 13);
    }

    #[test]
    fn unwrap_or_variants_not_flagged() {
        let m = model(
            "fn f() { let a = x.unwrap_or(0); let b = y.unwrap_or_else(id); let c = z.unwrap_or_default(); }",
        );
        let mut fs = Vec::new();
        check_panic_freedom("f.rs", &m, &mut fs);
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn multi_line_calls_no_longer_blind() {
        // The old masked-grep scan required `(` on the same lexical run;
        // token streams see through arbitrary whitespace and comments.
        let m = model("fn f() { x.unwrap\n        /* why */ ();\n}");
        let mut fs = Vec::new();
        check_panic_freedom("f.rs", &m, &mut fs);
        assert_eq!(fs.len(), 1, "{fs:?}");
    }

    #[test]
    fn narrowing_casts_flagged_widening_allowed() {
        let m = model(
            "fn f() { let a = x as u8; let b = y as u64; let c = z as usize; let d = w as f64; }",
        );
        let mut fs = Vec::new();
        check_lossy_casts("w.rs", &m, &mut fs);
        assert_eq!(fs.len(), 2, "{fs:?}");
    }

    #[test]
    fn bare_recv_flagged_bounded_receives_allowed() {
        let m = model(
            "fn f() { let a = rx.recv(); let b = rx.recv_timeout(d); let c = rx.try_recv(); }\n\
             fn recv_message() {}\nfn g() { let d = self.recv (); }",
        );
        let mut fs = Vec::new();
        check_channel_discipline("c.rs", &m, &mut fs);
        assert_eq!(fs.len(), 2, "{fs:?}");
        assert!(fs.iter().all(|f| f.rule == Rule::ChannelDiscipline));
    }

    #[test]
    fn undeadlined_socket_reads_flagged() {
        // No set_read_timeout anywhere: every socket read fires, but
        // fs-qualified reads are exempt.
        let m = model(
            "fn f() { stream.read(&mut buf); stream.read_exact(&mut b); stream.peek(&mut b); fs::read(&p); std::fs::read(&p); }",
        );
        let mut fs = Vec::new();
        check_socket_discipline("t.rs", &m, &mut fs);
        assert_eq!(fs.len(), 3, "{fs:?}");
        assert!(fs.iter().all(|f| f.rule == Rule::ChannelDiscipline));
    }

    #[test]
    fn deadlined_socket_reads_allowed() {
        let m = model("fn f() { s.set_read_timeout(Some(t))?;\nlet n = s.read(&mut buf)?; }");
        let mut fs = Vec::new();
        check_socket_discipline("t.rs", &m, &mut fs);
        assert!(fs.is_empty(), "{fs:?}");
        // ...but a read *before* the first deadline still fires.
        let early = model("fn f() { s.read(&mut buf)?;\ns.set_read_timeout(Some(t))?; }");
        check_socket_discipline("t.rs", &early, &mut fs);
        assert_eq!(fs.len(), 1, "{fs:?}");
    }

    #[test]
    fn determinism_tokens_flagged() {
        let m = model("fn f() { let t = Instant::now(); let r = rand::random(); let h = RandomState::new(); }");
        let mut fs = Vec::new();
        check_determinism("d.rs", &m, &mut fs);
        assert_eq!(fs.len(), 3, "{fs:?}");
    }

    #[test]
    fn aliased_imports_no_longer_blind() {
        // `use std::time::Instant as I` fires once at the use site
        // (direct word) and at each later `I` usage (via resolution).
        let m = model("use std::time::Instant as I;\nfn f() -> I { I::now() }\n");
        let mut det = Vec::new();
        check_determinism("d.rs", &m, &mut det);
        assert_eq!(det.len(), 3, "use-site + two alias usages: {det:?}");
        assert!(det.iter().any(|f| f.message.contains("resolves to `std::time::Instant`")));
        let mut clock = Vec::new();
        check_clock_discipline("d.rs", &m, &mut clock);
        assert_eq!(clock.len(), 1, "only `I::now` is a clock read: {clock:?}");
        assert!(clock[0].message.contains("alias of `Instant`"));
    }

    #[test]
    fn ambient_clock_reads_flagged() {
        let m = model(
            "fn f() { let a = Instant::now(); let b = SystemTime::now();\n\
             let c = std::time::Instant :: now(); }",
        );
        let mut fs = Vec::new();
        check_clock_discipline("c.rs", &m, &mut fs);
        assert_eq!(fs.len(), 3, "{fs:?}");
        assert!(fs.iter().all(|f| f.rule == Rule::ClockDiscipline));
    }

    #[test]
    fn untimed_clock_members_allowed() {
        let m = model(
            "fn f() { let e = SystemTime::UNIX_EPOCH; let d = Duration::from_secs(1);\n\
             let s = earlier.checked_add(d); let n = clock.now_micros(); }\nfn now_micros() -> u64 { 0 }",
        );
        let mut fs = Vec::new();
        check_clock_discipline("c.rs", &m, &mut fs);
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn strings_comments_and_tests_never_fire() {
        let m = model(
            "// x.unwrap()\nfn f() { let s = \"panic!( as u8 Instant\"; } /* SystemTime */\n\
             #[cfg(test)]\nmod tests {\n    fn t() { None::<u32>.unwrap(); panic!(\"boom\"); }\n}\n",
        );
        let mut fs = Vec::new();
        check_panic_freedom("f.rs", &m, &mut fs);
        check_determinism("f.rs", &m, &mut fs);
        check_lossy_casts("f.rs", &m, &mut fs);
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn crate_headers_found_by_token_sequence() {
        let ok = model("#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n//! Docs.\n");
        let mut fs = Vec::new();
        check_crate_headers("l.rs", &ok, &mut fs);
        assert!(fs.is_empty(), "{fs:?}");
        let bad = model("//! Docs but no headers.\npub fn f() {}\n");
        check_crate_headers("l.rs", &bad, &mut fs);
        assert_eq!(fs.len(), 2, "{fs:?}");
    }
}
