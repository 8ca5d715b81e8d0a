//! The static-analysis gate, wired into `cargo test`.
//!
//! Two halves: (1) the shipped tree must pass the gate with the
//! checked-in `lint-baseline.toml`, so any new violation fails plain
//! `cargo test` as well as `cargo run -p xtask -- lint`; (2) synthetic
//! mini-workspaces seeded with one violation per rule class must make
//! the corresponding rule fire, so the gate itself cannot silently rot.

use std::fs;
use std::path::{Path, PathBuf};

use xtask::rules::Rule;
use xtask::{gate, lint_workspace, LintConfig};

fn workspace_root() -> PathBuf {
    xtask::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("test runs inside the msync workspace")
}

#[test]
fn shipped_tree_passes_the_gate() {
    let root = workspace_root();
    let outcome = gate(&root, &LintConfig::msync()).expect("lint scan");
    assert!(
        outcome.active.is_empty(),
        "lint gate failed on the shipped tree:\n{}",
        outcome.active.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn baseline_is_not_stale() {
    // Entries that over-allow are a silent hole the gate should not ship
    // with: regenerate with `cargo run -p xtask -- lint --update-baseline`.
    let root = workspace_root();
    let outcome = gate(&root, &LintConfig::msync()).expect("lint scan");
    assert!(
        outcome.stale.is_empty(),
        "lint-baseline.toml over-allows; ratchet it down: {:?}",
        outcome.stale
    );
}

/// A scratch workspace with one crate whose lib.rs is `body`, laid out
/// the way [`LintConfig::msync`] expects (`crates/<name>/src/lib.rs`).
struct MiniWorkspace {
    dir: PathBuf,
}

impl MiniWorkspace {
    fn new(tag: &str, crate_name: &str, body: &str) -> MiniWorkspace {
        Self::with_manifest(
            tag,
            crate_name,
            body,
            "[package]\nname = \"x\"\nversion = \"0.0.0\"\n\n[dependencies]\n",
        )
    }

    fn with_manifest(tag: &str, crate_name: &str, body: &str, manifest: &str) -> MiniWorkspace {
        let dir =
            std::env::temp_dir().join(format!("msync-lint-gate-{tag}-{}", std::process::id()));
        let crate_dir = dir.join("crates").join(crate_name).join("src");
        fs::create_dir_all(&crate_dir).expect("scratch dir");
        fs::write(dir.join("Cargo.toml"), "[workspace]\nmembers = [\"crates/*\"]\n")
            .expect("workspace manifest");
        fs::write(dir.join("crates").join(crate_name).join("Cargo.toml"), manifest)
            .expect("crate manifest");
        fs::write(crate_dir.join("lib.rs"), body).expect("lib.rs");
        MiniWorkspace { dir }
    }

    fn findings_for(&self, rule: Rule) -> Vec<xtask::Finding> {
        let findings = lint_workspace(&self.dir, &LintConfig::msync()).expect("scan scratch tree");
        findings.into_iter().filter(|f| f.rule == rule).collect()
    }
}

impl Drop for MiniWorkspace {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

const CLEAN_HEADER: &str = "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n//! Docs.\n";

#[test]
fn detects_missing_crate_headers() {
    let ws = MiniWorkspace::new("headers", "hashes", "//! Docs but no lint headers.\n");
    let hits = ws.findings_for(Rule::CrateHeaders);
    assert!(!hits.is_empty(), "missing #![forbid(unsafe_code)] must fire");
}

#[test]
fn detects_panic_in_protocol_critical_code() {
    let body = format!(
        "{CLEAN_HEADER}\n/// Doc.\npub fn f(v: Option<u32>) -> u32 {{\n    v.unwrap()\n}}\n"
    );
    let ws = MiniWorkspace::new("panic", "protocol", &body);
    let hits = ws.findings_for(Rule::PanicFreedom);
    assert_eq!(hits.len(), 1, "unwrap() in a protocol-critical crate must fire");
    assert!(hits[0].line >= 4, "finding should carry the real line, got {}", hits[0].line);
}

#[test]
fn ignores_panics_in_test_code_and_strings() {
    let body = format!(
        "{CLEAN_HEADER}\n/// Doc.\npub const S: &str = \"call unwrap() here\";\n\
         #[cfg(test)]\nmod tests {{\n    #[test]\n    fn t() {{\n        None::<u32>.unwrap();\n        panic!(\"boom\");\n    }}\n}}\n"
    );
    let ws = MiniWorkspace::new("panic-masked", "protocol", &body);
    let hits = ws.findings_for(Rule::PanicFreedom);
    assert!(hits.is_empty(), "test blocks and string literals must be masked: {hits:?}");
}

#[test]
fn detects_lossy_cast_in_wire_module() {
    let dir = std::env::temp_dir().join(format!("msync-lint-gate-cast-{}", std::process::id()));
    let src = dir.join("crates").join("hashes").join("src");
    fs::create_dir_all(&src).expect("scratch dir");
    fs::write(dir.join("Cargo.toml"), "[workspace]\nmembers = [\"crates/*\"]\n").expect("manifest");
    fs::write(
        dir.join("crates").join("hashes").join("Cargo.toml"),
        "[package]\nname = \"hashes\"\nversion = \"0.0.0\"\n",
    )
    .expect("crate manifest");
    fs::write(src.join("lib.rs"), format!("{CLEAN_HEADER}\npub mod bitio;\n")).expect("lib.rs");
    fs::write(
        src.join("bitio.rs"),
        "//! Wire module.\n/// Doc.\npub fn narrow(v: u64) -> u8 {\n    v as u8\n}\n",
    )
    .expect("bitio.rs");
    let findings = lint_workspace(&dir, &LintConfig::msync()).expect("scan");
    // The other configured wire modules don't exist in the scratch tree;
    // the lint flags those too (self-checking), so filter to the cast.
    let hits: Vec<_> = findings
        .into_iter()
        .filter(|f| f.rule == Rule::LossyCast && f.message.contains("narrowing"))
        .collect();
    fs::remove_dir_all(&dir).ok();
    assert_eq!(hits.len(), 1, "narrowing `as` in a wire module must fire: {hits:?}");
    assert_eq!(hits[0].file, "crates/hashes/src/bitio.rs");
}

#[test]
fn detects_ambient_time_and_rng_in_protocol_logic() {
    let body = format!(
        "{CLEAN_HEADER}\nuse std::time::Instant;\n\n/// Doc.\npub fn now_ms() -> u128 {{\n    Instant::now().elapsed().as_millis()\n}}\n"
    );
    let ws = MiniWorkspace::new("determinism", "core", &body);
    let hits = ws.findings_for(Rule::Determinism);
    assert!(!hits.is_empty(), "Instant in protocol logic must fire");
}

#[test]
fn detects_non_workspace_dependency() {
    let manifest =
        "[package]\nname = \"x\"\nversion = \"0.0.0\"\n\n[dependencies]\nserde = \"1\"\n";
    let ws = MiniWorkspace::with_manifest("hermetic", "core", CLEAN_HEADER, manifest);
    let hits = ws.findings_for(Rule::Hermeticity);
    assert!(!hits.is_empty(), "registry dependency must fire the hermeticity rule");
}

#[test]
fn detects_bare_recv_in_protocol_critical_code() {
    let body = format!(
        "{CLEAN_HEADER}\n/// Doc.\npub fn wait(rx: &std::sync::mpsc::Receiver<u8>) {{\n    let _ = rx.recv();\n}}\n"
    );
    let ws = MiniWorkspace::new("channel", "core", &body);
    let hits = ws.findings_for(Rule::ChannelDiscipline);
    assert_eq!(hits.len(), 1, "bare recv() in a protocol-critical crate must fire: {hits:?}");

    let bounded = format!(
        "{CLEAN_HEADER}\n/// Doc.\npub fn wait(rx: &std::sync::mpsc::Receiver<u8>, d: std::time::Duration) {{\n    let _ = rx.recv_timeout(d);\n    let _ = rx.try_recv();\n}}\n"
    );
    let ws = MiniWorkspace::new("channel-ok", "core", &bounded);
    let hits = ws.findings_for(Rule::ChannelDiscipline);
    assert!(hits.is_empty(), "recv_timeout/try_recv must not fire: {hits:?}");
}

#[test]
fn detects_ambient_clock_outside_trace_crate() {
    // clock-discipline covers every crate, not just protocol-critical
    // ones: a non-critical crate reading the ambient clock must fire.
    let body = format!(
        "{CLEAN_HEADER}\n/// Doc.\npub fn stamp() -> std::time::SystemTime {{\n    std::time::SystemTime::now()\n}}\n"
    );
    let ws = MiniWorkspace::new("clock", "corpus", &body);
    let hits = ws.findings_for(Rule::ClockDiscipline);
    assert_eq!(hits.len(), 1, "SystemTime::now outside crates/trace must fire: {hits:?}");

    let ws = MiniWorkspace::new("clock-exempt", "trace", &body);
    let hits = ws.findings_for(Rule::ClockDiscipline);
    assert!(hits.is_empty(), "crates/trace owns the ambient clock: {hits:?}");
}

/// The `Output` registry declaration the machine-discipline pass
/// expects at `crates/core/src/engine/mod.rs` in scratch trees.
const OUTPUT_REGISTRY: &str = "//! Engine module.\n/// Doc.\npub enum Output {\n    /// T.\n    Transmit,\n    /// A.\n    Attribute,\n    /// W.\n    Wait,\n    /// D.\n    Done,\n}\n";

/// The `Phase` frame-tag registry the wire-schema pass expects at
/// `crates/protocol/src/stats.rs` in scratch trees.
const PHASE_REGISTRY: &str = "//! Stats module.\n/// Doc.\npub enum Phase {\n    /// S.\n    Setup,\n    /// M.\n    Map,\n    /// D.\n    Delta,\n}\n";

/// A scratch tree shaped like the real workspace: several crates, each
/// with a lib.rs plus optional extra modules at arbitrary `src/`-relative
/// paths. [`MiniWorkspace`] is the single-crate special case.
struct MultiCrateWorkspace {
    dir: PathBuf,
}

impl MultiCrateWorkspace {
    /// `files` maps `crates/<name>/src/<path>` (given as
    /// `(crate, src_relative_path, contents)`) into the scratch tree.
    fn new(tag: &str, files: &[(&str, &str, &str)]) -> MultiCrateWorkspace {
        let dir =
            std::env::temp_dir().join(format!("msync-lint-gate-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        fs::write(dir.join("Cargo.toml"), "[workspace]\nmembers = [\"crates/*\"]\n")
            .expect("workspace manifest");
        for (krate, rel, contents) in files {
            let crate_dir = dir.join("crates").join(krate);
            let manifest = crate_dir.join("Cargo.toml");
            if !manifest.is_file() {
                fs::create_dir_all(&crate_dir).expect("crate dir");
                fs::write(
                    &manifest,
                    format!("[package]\nname = \"{krate}\"\nversion = \"0.0.0\"\n"),
                )
                .expect("crate manifest");
            }
            let path = crate_dir.join("src").join(rel);
            fs::create_dir_all(path.parent().expect("src parent")).expect("module dir");
            fs::write(&path, contents).expect("module file");
        }
        MultiCrateWorkspace { dir }
    }

    fn findings_for(&self, rule: Rule) -> Vec<xtask::Finding> {
        let findings = lint_workspace(&self.dir, &LintConfig::msync()).expect("scan scratch tree");
        findings.into_iter().filter(|f| f.rule == rule).collect()
    }
}

impl Drop for MultiCrateWorkspace {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn wire_schema_detects_one_sided_decode_arm() {
    // The decode side dispatches on registry variants in arm bodies but
    // never produces `Phase::Delta`: the classic desynchronized decoder.
    let decoder = format!(
        "{CLEAN_HEADER}\n/// Doc.\npub fn decode(b: u8) -> Option<msync_protocol::Phase> {{\n    match b {{\n        0 => Some(msync_protocol::Phase::Setup),\n        1 => Some(msync_protocol::Phase::Map),\n        _ => None,\n    }}\n}}\n"
    );
    let ws = MultiCrateWorkspace::new(
        "wire-decode",
        &[("protocol", "stats.rs", PHASE_REGISTRY), ("net", "lib.rs", &decoder)],
    );
    let hits = ws.findings_for(Rule::WireSchema);
    let hit = hits
        .iter()
        .find(|f| f.file == "crates/net/src/lib.rs")
        .unwrap_or_else(|| panic!("one-sided decode arm must fire wire-schema: {hits:?}"));
    assert!(hit.message.contains("Delta"), "names the missing variant: {}", hit.message);
    assert!(hit.line > 1 && hit.col >= 1, "spanned diagnostic expected: {hit:?}");
}

#[test]
fn wire_schema_accepts_symmetric_encode_and_decode() {
    let encoder = format!(
        "{CLEAN_HEADER}\n/// Doc.\npub fn encode(p: Phase) -> u8 {{\n    match p {{\n        Phase::Setup => 0,\n        Phase::Map => 1,\n        Phase::Delta => 2,\n    }}\n}}\n/// Doc.\npub fn decode(b: u8) -> Option<Phase> {{\n    match b {{\n        0 => Some(Phase::Setup),\n        1 => Some(Phase::Map),\n        2 => Some(Phase::Delta),\n        _ => None,\n    }}\n}}\n"
    );
    let ws = MultiCrateWorkspace::new(
        "wire-symmetric",
        &[("protocol", "stats.rs", PHASE_REGISTRY), ("net", "lib.rs", &encoder)],
    );
    let hits = ws.findings_for(Rule::WireSchema);
    assert!(
        hits.iter().all(|f| f.file != "crates/net/src/lib.rs"),
        "complete matches must not fire: {hits:?}"
    );
}

#[test]
fn charge_point_detects_unattributed_socket_write() {
    // A send path that charges TrafficStats but never journals the
    // frame (the acceptance scenario: the trace event line deleted).
    let unpaired = format!(
        "{CLEAN_HEADER}\n/// Doc.\npub struct S {{\n    /// Doc.\n    pub stats: u8,\n}}\nimpl S {{\n    /// Doc.\n    pub fn send(&mut self, n: u64) {{\n        self.stats.record(n);\n    }}\n}}\n"
    );
    let ws = MultiCrateWorkspace::new("charge-unpaired", &[("net", "lib.rs", &unpaired)]);
    let hits = ws.findings_for(Rule::ChargePoint);
    assert_eq!(hits.len(), 1, "charge without trace event must fire: {hits:?}");
    assert!(hits[0].message.contains("send"), "names the function: {}", hits[0].message);
    assert!(hits[0].line > 1 && hits[0].col >= 1, "spanned diagnostic expected: {:?}", hits[0]);

    // The paired shape — charge plus FrameSend journal in the same
    // function — is the sanctioned idiom and must stay quiet.
    let paired = format!(
        "{CLEAN_HEADER}\n/// Doc.\npub struct S {{\n    /// Doc.\n    pub stats: u8,\n}}\nimpl S {{\n    /// Doc.\n    pub fn send(&mut self, n: u64) {{\n        self.stats.record(n);\n        self.rec.record(EventKind::FrameSend {{ bytes: n }});\n    }}\n}}\n"
    );
    let ws = MultiCrateWorkspace::new("charge-paired", &[("net", "lib.rs", &paired)]);
    let hits = ws.findings_for(Rule::ChargePoint);
    assert!(hits.is_empty(), "paired charge + frame event must not fire: {hits:?}");
}

#[test]
fn charge_point_is_scoped_to_io_crates() {
    // The same unpaired charge in a non-I/O crate is out of scope.
    let unpaired = format!(
        "{CLEAN_HEADER}\n/// Doc.\npub fn tally(stats: &mut Vec<u64>, n: u64) {{\n    stats.record(n);\n}}\n"
    );
    let ws = MultiCrateWorkspace::new("charge-scope", &[("hashes", "lib.rs", &unpaired)]);
    let hits = ws.findings_for(Rule::ChargePoint);
    assert!(hits.is_empty(), "charge-point only covers crates/net and crates/protocol: {hits:?}");
}

#[test]
fn machine_discipline_detects_unhandled_output_wait() {
    // A drive loop that polls the machine but never handles
    // `Output::Wait` silently spins instead of arming a deadline.
    let loop_body = format!(
        "{CLEAN_HEADER}\n/// Doc.\npub fn pump(m: &mut Machine) {{\n    loop {{\n        match m.poll_output() {{\n            Output::Transmit => {{}}\n            Output::Attribute => {{}}\n            Output::Done => return,\n        }}\n    }}\n}}\n"
    );
    let ws = MultiCrateWorkspace::new(
        "machine-wait",
        &[("core", "engine/mod.rs", OUTPUT_REGISTRY), ("net", "lib.rs", &loop_body)],
    );
    let hits = ws.findings_for(Rule::MachineDiscipline);
    let hit = hits
        .iter()
        .find(|f| f.file == "crates/net/src/lib.rs")
        .unwrap_or_else(|| panic!("unhandled Output::Wait must fire: {hits:?}"));
    assert!(hit.message.contains("Wait"), "names the missing variant: {}", hit.message);
    assert!(hit.line > 1 && hit.col >= 1, "spanned diagnostic expected: {hit:?}");

    // Handling all four variants satisfies the pass.
    let complete = format!(
        "{CLEAN_HEADER}\n/// Doc.\npub fn pump(m: &mut Machine) {{\n    loop {{\n        match m.poll_output() {{\n            Output::Transmit => {{}}\n            Output::Attribute => {{}}\n            Output::Wait => break,\n            Output::Done => return,\n        }}\n    }}\n}}\n"
    );
    let ws = MultiCrateWorkspace::new(
        "machine-complete",
        &[("core", "engine/mod.rs", OUTPUT_REGISTRY), ("net", "lib.rs", &complete)],
    );
    let hits = ws.findings_for(Rule::MachineDiscipline);
    assert!(
        hits.iter().all(|f| f.file != "crates/net/src/lib.rs"),
        "complete drive loop must not fire: {hits:?}"
    );
}

#[test]
fn machine_discipline_keeps_engine_modules_effect_pure() {
    // The sans-IO rule is path-scoped: the same code is legal in a
    // driver module but must fire inside crates/core/src/engine/.
    let offending = format!(
        "{OUTPUT_REGISTRY}/// Doc.\npub fn bad(rx: &std::sync::mpsc::Receiver<u8>, d: std::time::Duration) {{\n    std::thread::spawn(|| {{}});\n    let _ = rx.recv_timeout(d);\n}}\n"
    );
    let lib = format!("{CLEAN_HEADER}\npub mod engine;\npub mod driver;\n");
    let driver = format!(
        "{CLEAN_HEADER}\n/// Doc.\npub fn ok(rx: &std::sync::mpsc::Receiver<u8>, d: std::time::Duration) {{\n    std::thread::spawn(|| {{}});\n    let _ = rx.recv_timeout(d);\n}}\n"
    );
    let ws = MultiCrateWorkspace::new(
        "machine-purity",
        &[
            ("core", "lib.rs", &lib),
            ("core", "engine/mod.rs", &offending),
            ("core", "driver.rs", &driver),
        ],
    );
    let hits: Vec<_> = ws
        .findings_for(Rule::MachineDiscipline)
        .into_iter()
        .filter(|f| f.message.contains("sans-IO"))
        .collect();
    assert_eq!(hits.len(), 2, "spawn + recv_timeout inside engine/ must fire: {hits:?}");
    assert!(hits.iter().all(|f| f.file == "crates/core/src/engine/mod.rs"), "{hits:?}");
}

#[test]
fn apply_discipline_detects_bare_write_on_apply_paths() {
    // A bare write in an apply-scoped crate (cli) must fire; the same
    // code in an out-of-scope crate (core owns the applier) must not.
    let body = format!(
        "{CLEAN_HEADER}\n/// Doc.\npub fn apply(path: &std::path::Path, data: &[u8]) {{\n    let _ = std::fs::write(path, data);\n    let _ = std::fs::File::create(path);\n}}\n"
    );
    let ws = MiniWorkspace::new("apply", "cli", &body);
    let hits = ws.findings_for(Rule::ApplyDiscipline);
    assert_eq!(hits.len(), 2, "bare fs::write + File::create in crates/cli must fire: {hits:?}");
    assert!(hits[0].message.contains("AtomicApplier"), "{}", hits[0].message);
    assert!(hits[0].line > 1 && hits[0].col >= 1, "spanned diagnostic expected: {:?}", hits[0]);

    let ws = MiniWorkspace::new("apply-scope", "core", &body);
    let hits = ws.findings_for(Rule::ApplyDiscipline);
    assert!(hits.is_empty(), "apply-discipline is scoped to the apply paths: {hits:?}");
}

#[test]
fn alloc_discipline_detects_frame_copies_outside_the_allowlist() {
    // A frame/payload copy in a wire module must fire; the sanctioned
    // copy site (fault.rs copy_for_mutation) must not; a frame copy in
    // a non-wire module is out of scope.
    let offender = format!(
        "{CLEAN_HEADER}\n/// Doc.\npub fn cache(frame: &[u8], payload: &[u8]) -> (Vec<u8>, Vec<u8>) {{\n    (frame.to_vec(), payload.to_vec())\n}}\n"
    );
    let sanctioned = format!(
        "{CLEAN_HEADER}\n/// Doc.\npub fn copy_for_mutation(payload: &[u8]) -> Vec<u8> {{\n    payload.to_vec()\n}}\n"
    );
    let ws = MultiCrateWorkspace::new(
        "alloc",
        &[
            ("protocol", "channel.rs", &offender),
            ("protocol", "fault.rs", &sanctioned),
            ("core", "engine/codec.rs", "//! Codec.\n"),
            ("core", "pipeline.rs", &offender),
        ],
    );
    let hits = ws.findings_for(Rule::AllocDiscipline);
    assert_eq!(hits.len(), 2, "both copies in the wire module must fire, nothing else: {hits:?}");
    assert!(hits.iter().all(|f| f.file == "crates/protocol/src/channel.rs"), "{hits:?}");
    assert!(hits[0].message.contains("FrameBuf"), "{}", hits[0].message);
    assert!(hits[0].line > 1 && hits[0].col >= 1, "spanned diagnostic expected: {:?}", hits[0]);
}

/// Every `.rs` file in the workspace (crate sources, root `src/`, and
/// this test directory), for corpus-wide lexer properties.
fn workspace_rust_sources() -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                let name = entry.file_name();
                if name != "target" && name != ".git" {
                    walk(&path, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let root = workspace_root();
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("src"), &mut files);
    walk(&root.join("tests"), &mut files);
    files.sort();
    assert!(files.len() > 20, "workspace corpus unexpectedly small: {}", files.len());
    files
}

#[test]
fn lexer_tiles_every_workspace_source_exactly() {
    // Property: for any real source file the token stream covers the
    // input with no gaps, no overlaps, and consistent line counters —
    // the invariant every rule's span reporting depends on.
    for path in workspace_rust_sources() {
        let src = fs::read_to_string(&path).expect("read source");
        let tokens = xtask::tokens::lex(&src);
        let mut pos = 0usize;
        let mut line = 1u32;
        for t in &tokens {
            assert_eq!(t.start, pos, "gap/overlap at byte {pos} of {}", path.display());
            assert!(t.end > t.start, "empty token at byte {pos} of {}", path.display());
            assert_eq!(t.line, line, "line counter drift at byte {pos} of {}", path.display());
            line += u32::try_from(src[t.start..t.end].matches('\n').count()).expect("line count");
            pos = t.end;
        }
        assert_eq!(pos, src.len(), "lexer stopped early in {}", path.display());
    }
}

#[test]
fn non_critical_crate_may_panic() {
    let body = format!(
        "{CLEAN_HEADER}\n/// Doc.\npub fn f(v: Option<u32>) -> u32 {{\n    v.unwrap()\n}}\n"
    );
    let ws = MiniWorkspace::new("non-critical", "corpus", &body);
    let hits = ws.findings_for(Rule::PanicFreedom);
    assert!(hits.is_empty(), "panic-freedom only applies to protocol-critical crates");
}
