//! Cross-file protocol-semantic passes.
//!
//! The per-file rules in [`crate::rules`] catch local defects; the
//! passes here check invariants that span files — the properties whose
//! violation desynchronizes the two protocol endpoints at runtime:
//!
//! * **wire-schema** — every frame tag / message discriminant is
//!   declared in exactly one registry module, and every encode-side or
//!   decode-side `match` over the registry enum covers the identical
//!   variant set. A one-sided arm is a lint error here instead of a
//!   runtime desync on the slow link.
//! * **charge-point** — within any function in the transport crates, a
//!   `TrafficStats` charge and the paired `FrameSend`/`FrameRecv` trace
//!   event appear together or not at all, so a trace journal's
//!   per-(direction, phase) byte sums equal the run's `TrafficStats`
//!   by construction (the journal==stats invariant as a compile gate).
//!   The same pass guards the handshake reject path: a function that
//!   turns a `HelloOutcome::Reject` into wire bytes (it mentions the
//!   variant *and* sends) must record `EventKind::Handshake` in the
//!   same function, so refused hellos — capacity, bad config,
//!   unknown collection — never vanish from the metrics. Pure
//!   verdict-builders like `eval_hello` (no send) are exempt.
//! * **machine-discipline** — every drive loop that polls a sans-IO
//!   machine handles all four `Output` variants, and the engine modules
//!   stay effect-pure (no threads, blocking receives, stream reads, or
//!   sleeps). Replaces the word-grep `io-discipline` rule.
//! * **apply-discipline** — the sync-apply paths (the code that
//!   materializes transferred file contents on disk) contain no bare
//!   `fs::write(` or `File::create(`; every write goes through the
//!   atomic applier so a crash mid-write leaves a temp file for the
//!   orphan sweep, never a torn replica.
//! * **alloc-discipline** — the wire modules (protocol, net, the
//!   sans-IO engine) never call `.to_vec()` / `.clone()` on a frame or
//!   payload value. Frames are refcounted `FrameBuf`s: retransmission,
//!   queueing, and fan-out all move shares of one allocation, so an
//!   ad-hoc copy silently reintroduces the per-frame allocation the
//!   zero-copy refactor removed — and dodges the `note_frame_copy`
//!   meter the soak bench gates on. The allowlisted sites (the fault
//!   injector's `copy_for_mutation`) are the only sanctioned copies.
//!
//! Classification notes for wire-schema: a `match` is *about* the
//! registry enum when variants appear in its arm **patterns**
//! (encode-side: `Phase::Setup => 0`), or when two or more distinct
//! variants appear in its arm **bodies** (decode-side:
//! `0 => Phase::Setup, 1 => Phase::Map`). A match that merely mentions
//! a single variant in one body (`HelloOutcome::Accept { .. } =>
//! t.send(&reply, Phase::Setup)`) is using the enum as a value, not
//! dispatching over the wire vocabulary, and is exempt.

use crate::model::FileModel;
use crate::rules::{Finding, LintConfig, Rule};
use std::collections::{BTreeMap, BTreeSet};

/// Run all cross-file passes over the modeled workspace.
pub fn run(models: &BTreeMap<String, FileModel>, cfg: &LintConfig, findings: &mut Vec<Finding>) {
    for schema in &cfg.wire_schemas {
        stale_scopes(models, Rule::WireSchema, &schema.scopes, findings);
        wire_schema(models, schema, findings);
    }
    stale_scopes(models, Rule::MachineDiscipline, &cfg.engine_modules, findings);
    stale_scopes(models, Rule::ApplyDiscipline, &cfg.apply_scopes, findings);
    stale_scopes(models, Rule::AllocDiscipline, &cfg.alloc_scopes, findings);
    charge_point(models, cfg, findings);
    machine_discipline(models, cfg, findings);
    apply_discipline(models, cfg, findings);
    alloc_discipline(models, cfg, findings);
}

/// Count `#[deprecated]` attributes in non-test code across the
/// modeled workspace: the deprecation debt reported alongside findings.
#[must_use]
pub fn deprecation_debt(models: &BTreeMap<String, FileModel>) -> usize {
    let mut debt = 0usize;
    for m in models.values() {
        let mut from = 0usize;
        while let Some(i) = m.find_seq(from, &["#", "[", "deprecated"]) {
            debt += 1;
            from = i + 3;
        }
    }
    debt
}

/// Parse the variant names of `enum <name> { ... }` in `m`, if declared.
fn enum_variants(m: &FileModel, name: &str) -> Option<(usize, Vec<String>)> {
    let decl = m.find_seq(0, &["enum", name])?;
    let open = (decl + 2..m.len()).find(|&j| m.is_punct(j, '{'))?;
    let close = m.matching_brace(open)?;
    let mut variants = Vec::new();
    let mut expecting = true;
    let mut i = open + 1;
    while i < close {
        if m.is_punct(i, '#') {
            // Attribute on a variant: skip the bracketed group.
            let mut j = i + 1;
            let mut depth = 0usize;
            while j <= close {
                if m.is_punct(j, '[') {
                    depth += 1;
                } else if m.is_punct(j, ']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }
        if expecting && m.tok(i).kind == crate::tokens::TokenKind::Ident {
            variants.push(m.text(i).to_owned());
            expecting = false;
            i += 1;
            continue;
        }
        // Skip payloads / discriminants to the variant separator.
        if m.is_punct(i, '(') || m.is_punct(i, '{') || m.is_punct(i, '[') {
            let closer = match m.text(i) {
                "(" => ")",
                "{" => "}",
                _ => "]",
            };
            let mut depth = 0usize;
            let mut j = i;
            while j <= close {
                let t = m.text(j);
                if t == m.text(i) {
                    depth += 1;
                } else if t == closer {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }
        if m.is_punct(i, ',') {
            expecting = true;
        }
        i += 1;
    }
    Some((decl, variants))
}

/// Whether `rel` falls under any of the configured scope prefixes.
fn in_scopes(rel: &str, scopes: &[String]) -> bool {
    scopes.iter().any(|s| rel.starts_with(s.as_str()))
}

/// A finding for each of `rule`'s scope prefixes under which no file
/// lies, in a crate that has files: the files it named have moved, and
/// the rule silently stopped covering them. A scope in a crate the tree
/// lacks is left alone, as the crate lists are.
fn stale_scopes(
    models: &BTreeMap<String, FileModel>,
    rule: Rule,
    scopes: &[String],
    findings: &mut Vec<Finding>,
) {
    let holds = |prefix: &str| models.keys().any(|rel| rel.starts_with(prefix));
    for scope in scopes {
        // `crates/<name>/`: the prefix up to its second slash.
        let krate = scope.match_indices('/').nth(1).map_or(scope.as_str(), |(i, _)| &scope[..=i]);
        if holds(krate) && !holds(scope) {
            findings.push(Finding::file_level(
                rule,
                scope,
                "configured scope matches no file (update LintConfig)".to_owned(),
            ));
        }
    }
}

/// Rule `wire-schema` for one registry enum.
fn wire_schema(
    models: &BTreeMap<String, FileModel>,
    schema: &crate::rules::WireSchema,
    findings: &mut Vec<Finding>,
) {
    let Some(registry) = models.get(&schema.registry) else {
        findings.push(Finding::file_level(
            Rule::WireSchema,
            &schema.registry,
            format!(
                "configured wire-schema registry for `{}` does not exist (update LintConfig)",
                schema.enum_name
            ),
        ));
        return;
    };
    let Some((_, variants)) = enum_variants(registry, &schema.enum_name) else {
        findings.push(Finding::file_level(
            Rule::WireSchema,
            &schema.registry,
            format!(
                "registry module must declare `enum {}` (the single frame-tag vocabulary)",
                schema.enum_name
            ),
        ));
        return;
    };
    let canonical: BTreeSet<&str> = variants.iter().map(String::as_str).collect();

    for (rel, m) in models {
        let scoped = rel == &schema.registry || in_scopes(rel, &schema.scopes);
        if !scoped || m.is_empty() {
            continue;
        }
        // Exactly one declaration: a second `enum Phase` forks the
        // vocabulary even if its variants currently agree.
        if rel != &schema.registry {
            if let Some((decl, _)) = enum_variants(m, &schema.enum_name) {
                findings.push(Finding::at(
                    Rule::WireSchema,
                    rel,
                    m,
                    decl,
                    format!(
                        "`enum {}` declared outside the registry module {}; frame tags must have exactly one declaration",
                        schema.enum_name, schema.registry
                    ),
                ));
            }
        }
        for mi in m.matches_in((0, m.len() - 1)) {
            let mut in_patterns: BTreeSet<&str> = BTreeSet::new();
            let mut in_bodies: BTreeSet<&str> = BTreeSet::new();
            for &((ps, pe), (bs, be)) in &mi.arms {
                for (_, v) in m.variant_mentions(&schema.enum_name, (ps, pe)) {
                    if let Some(known) = canonical.iter().find(|k| **k == v) {
                        in_patterns.insert(known);
                    }
                }
                for (_, v) in m.variant_mentions(&schema.enum_name, (bs, be)) {
                    if let Some(known) = canonical.iter().find(|k| **k == v) {
                        in_bodies.insert(known);
                    }
                }
            }
            // Encode-side (variants in patterns) or decode-side (a
            // table of >= 2 variants in bodies) matches must cover the
            // whole registry; incidental single-variant value uses are
            // exempt (see module docs).
            let covered: &BTreeSet<&str> =
                if in_patterns.is_empty() { &in_bodies } else { &in_patterns };
            let dispatching = !in_patterns.is_empty() || in_bodies.len() >= 2;
            if dispatching && covered != &canonical {
                let missing: Vec<&str> = canonical.difference(covered).copied().collect();
                findings.push(Finding::at(
                    Rule::WireSchema,
                    rel,
                    m,
                    mi.kw_idx,
                    format!(
                        "match over frame-tag registry `{}` misses {{{}}}; a one-sided arm desynchronizes encode/decode between the endpoints",
                        schema.enum_name,
                        missing.join(", ")
                    ),
                ));
            }
        }
    }
}

/// Rule `charge-point`: see module docs.
fn charge_point(
    models: &BTreeMap<String, FileModel>,
    cfg: &LintConfig,
    findings: &mut Vec<Finding>,
) {
    let scopes: Vec<String> =
        cfg.charge_crates.iter().map(|c| format!("crates/{c}/src/")).collect();
    for (rel, m) in models {
        if !in_scopes(rel, &scopes) {
            continue;
        }
        for f in &m.fns {
            let Some(body) = f.body else { continue };
            if m.is_test(f.name_idx) {
                continue;
            }
            let mut charges: Vec<usize> = Vec::new();
            let mut frame_events: Vec<usize> = Vec::new();
            for i in body.0..=body.1 {
                if !(m.is_ident(i, "record") && i > 0 && m.is_punct(i - 1, '.')) {
                    continue;
                }
                if i + 1 > body.1 || !m.is_punct(i + 1, '(') {
                    continue;
                }
                let close = matching_paren(m, i + 1, body.1);
                let args = (i + 2, close.saturating_sub(1).max(i + 1));
                let event_kinds = m.variant_mentions("EventKind", args);
                if event_kinds.is_empty() {
                    // TrafficStats charge — unless the receiver is a
                    // local snapshot (`let mut out = self.stats...`),
                    // which aggregates without touching the wire.
                    if !receiver_is_local(m, body, i) {
                        charges.push(i);
                    }
                } else if event_kinds.iter().any(|(_, v)| v == "FrameSend" || v == "FrameRecv") {
                    frame_events.push(i);
                }
            }
            if !charges.is_empty() && frame_events.is_empty() {
                findings.push(Finding::at(
                    Rule::ChargePoint,
                    rel,
                    m,
                    charges[0],
                    format!(
                        "`{}` charges TrafficStats without emitting the paired FrameSend/FrameRecv trace event in the same function; the journal no longer equals the stats",
                        f.name
                    ),
                ));
            }
            if charges.is_empty() && !frame_events.is_empty() {
                findings.push(Finding::at(
                    Rule::ChargePoint,
                    rel,
                    m,
                    frame_events[0],
                    format!(
                        "`{}` emits a FrameSend/FrameRecv trace event without charging TrafficStats in the same function; the stats no longer equal the journal",
                        f.name
                    ),
                ));
            }
            // Handshake-reject metering: a function that sends a
            // rejection must also meter it. "Sends" is any `send(` /
            // `queue_send(` call in the body; functions that merely
            // build or pattern-match the verdict without touching the
            // wire are exempt.
            let rejects = m.variant_mentions("HelloOutcome", body);
            if let Some(&(reject_idx, _)) = rejects.iter().find(|(_, v)| v == "Reject") {
                let sends = (body.0..=body.1).any(|i| {
                    (m.is_ident(i, "send") || m.is_ident(i, "queue_send"))
                        && i + 1 <= body.1
                        && m.is_punct(i + 1, '(')
                });
                let metered =
                    m.variant_mentions("EventKind", body).iter().any(|(_, v)| v == "Handshake");
                if sends && !metered {
                    findings.push(Finding::at(
                        Rule::ChargePoint,
                        rel,
                        m,
                        reject_idx,
                        format!(
                            "`{}` sends a handshake rejection (`HelloOutcome::Reject`) without recording EventKind::Handshake in the same function; refused hellos vanish from the metrics",
                            f.name
                        ),
                    ));
                }
            }
        }
    }
}

/// Close index of the paren opened at `open` (bounded by `hi`).
fn matching_paren(m: &FileModel, open: usize, hi: usize) -> usize {
    let mut depth = 0i32;
    for j in open..=hi {
        if m.is_punct(j, '(') {
            depth += 1;
        } else if m.is_punct(j, ')') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    hi
}

/// Whether the receiver of `<recv> . record (` at code index `record_i`
/// is a binding introduced by `let` in the same body.
fn receiver_is_local(m: &FileModel, body: (usize, usize), record_i: usize) -> bool {
    if record_i < 2 {
        return false;
    }
    let recv = record_i - 2;
    if m.tok(recv).kind != crate::tokens::TokenKind::Ident {
        return false;
    }
    // `self.stats.record(...)`: the receiver chain starts at a field
    // access, not a local.
    if recv >= 2 && m.is_punct(recv - 1, '.') {
        return false;
    }
    let name = m.text(recv);
    (body.0..record_i).any(|j| {
        m.is_ident(j, "let")
            && ((m.is_ident(j + 1, "mut") && m.is_ident(j + 2, name)) || m.is_ident(j + 1, name))
    })
}

/// Rule `machine-discipline`: drive-loop completeness plus engine
/// effect-purity.
fn machine_discipline(
    models: &BTreeMap<String, FileModel>,
    cfg: &LintConfig,
    findings: &mut Vec<Finding>,
) {
    // Variant vocabulary from the Output registry declaration.
    let mut output_variants: Option<Vec<String>> = None;
    if let Some(spec) = &cfg.machine {
        match models.get(&spec.registry).and_then(|m| enum_variants(m, &spec.output_enum)) {
            Some((_, variants)) => output_variants = Some(variants),
            None => findings.push(Finding::file_level(
                Rule::MachineDiscipline,
                &spec.registry,
                format!(
                    "configured machine registry must declare `enum {}` (update LintConfig)",
                    spec.output_enum
                ),
            )),
        }
    }

    for (rel, m) in models {
        // (a) Drive loops: any function calling `.poll_output(` must
        // handle every Output variant; a swallowed `Wait` spins, a
        // swallowed `Attribute` silently drops inbound byte accounting.
        if let (Some(spec), Some(variants)) = (&cfg.machine, &output_variants) {
            for f in &m.fns {
                let Some(body) = f.body else { continue };
                if m.is_test(f.name_idx) || f.name == spec.poll_fn {
                    continue;
                }
                let calls_poll = (body.0..body.1).any(|i| {
                    m.is_ident(i, &spec.poll_fn)
                        && i > 0
                        && m.is_punct(i - 1, '.')
                        && i + 1 <= body.1
                        && m.is_punct(i + 1, '(')
                });
                if !calls_poll {
                    continue;
                }
                let mentioned: BTreeSet<String> = m
                    .variant_mentions(&spec.output_enum, body)
                    .into_iter()
                    .map(|(_, v)| v)
                    .collect();
                let missing: Vec<&str> = variants
                    .iter()
                    .map(String::as_str)
                    .filter(|v| !mentioned.contains(*v))
                    .collect();
                if !missing.is_empty() {
                    findings.push(Finding::at(
                        Rule::MachineDiscipline,
                        rel,
                        m,
                        f.name_idx,
                        format!(
                            "drive loop `{}` polls `{}` but does not handle {}::{{{}}}; every variant must be handled explicitly",
                            f.name,
                            spec.poll_fn,
                            spec.output_enum,
                            missing.join(", ")
                        ),
                    ));
                }
            }
        }

        // (b) Effect-purity of the engine modules: machines emit frames
        // and timer requests; drivers own all I/O and concurrency.
        if !cfg.engine_modules.iter().any(|p| rel.starts_with(p.as_str())) {
            continue;
        }
        for (word, label) in [
            ("spawn", "engine machines must not create threads; drivers own all concurrency"),
            ("recv", "engine machines must not receive; frames arrive via `on_frame`"),
            ("recv_timeout", "engine machines must not block; deadlines are timer requests"),
            ("try_recv", "engine machines must not poll channels; frames arrive via `on_frame`"),
            ("read", "engine machines must not read streams; bytes arrive via `on_frame`"),
            ("read_exact", "engine machines must not read streams; bytes arrive via `on_frame`"),
            ("read_to_end", "engine machines must not read streams; bytes arrive via `on_frame`"),
            (
                "read_to_string",
                "engine machines must not read streams; bytes arrive via `on_frame`",
            ),
            ("sleep", "engine machines must not sleep; waits are `Output::Wait` deadlines"),
        ] {
            for i in m.idents(word) {
                if i + 1 < m.len() && m.is_punct(i + 1, '(') {
                    findings.push(Finding::at(
                        Rule::MachineDiscipline,
                        rel,
                        m,
                        i,
                        format!("`{word}(` inside a sans-IO engine module: {label}"),
                    ));
                }
            }
        }
    }
}

/// Rule `apply-discipline`: see module docs.
fn apply_discipline(
    models: &BTreeMap<String, FileModel>,
    cfg: &LintConfig,
    findings: &mut Vec<Finding>,
) {
    for (rel, m) in models {
        if !in_scopes(rel, &cfg.apply_scopes) {
            continue;
        }
        for (module, func) in [("fs", "write"), ("File", "create")] {
            for i in m.idents(func) {
                let qualified_call = i >= 3
                    && m.is_ident(i - 3, module)
                    && m.is_path_sep(i - 2)
                    && i + 1 < m.len()
                    && m.is_punct(i + 1, '(');
                if qualified_call && !m.is_use(i) {
                    findings.push(Finding::at(
                        Rule::ApplyDiscipline,
                        rel,
                        m,
                        i,
                        format!(
                            "bare `{module}::{func}(` on a sync-apply path; write through `msync_core::AtomicApplier` / `atomic_write_file` so a crash never leaves a torn replica"
                        ),
                    ));
                }
            }
        }
    }
}

/// Whether `name` names a frame or payload allocation — the values the
/// zero-copy wire paths move as `FrameBuf` shares.
fn frame_like(name: &str) -> bool {
    name.contains("frame") || name.contains("payload") || name == "bytes"
}

/// Base identifier of the receiver of `<recv>.method(` where `method_i`
/// is the method-name token, walking back over index/call suffixes so
/// `frames[0].clone()` and `encode_frame(p).to_vec()` resolve to
/// `frames` / `encode_frame`.
fn receiver_ident(m: &FileModel, method_i: usize) -> Option<String> {
    if method_i < 2 {
        return None;
    }
    let mut j = method_i - 2;
    loop {
        let (open, close) = if m.is_punct(j, ']') {
            ('[', ']')
        } else if m.is_punct(j, ')') {
            ('(', ')')
        } else {
            break;
        };
        let mut depth = 0usize;
        loop {
            if m.is_punct(j, close) {
                depth += 1;
            } else if m.is_punct(j, open) {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j = j.checked_sub(1)?;
        }
        j = j.checked_sub(1)?;
    }
    (m.tok(j).kind == crate::tokens::TokenKind::Ident).then(|| m.text(j).to_owned())
}

/// Rule `alloc-discipline`: see module docs.
fn alloc_discipline(
    models: &BTreeMap<String, FileModel>,
    cfg: &LintConfig,
    findings: &mut Vec<Finding>,
) {
    for (rel, m) in models {
        if !in_scopes(rel, &cfg.alloc_scopes) {
            continue;
        }
        for method in ["to_vec", "clone"] {
            for i in m.idents(method) {
                if i + 1 >= m.len() || !m.is_punct(i + 1, '(') || i == 0 || !m.is_punct(i - 1, '.')
                {
                    continue;
                }
                let Some(recv) = receiver_ident(m, i) else { continue };
                if !frame_like(&recv) {
                    continue;
                }
                // Sanctioned copy sites are exempt by (file, function);
                // the innermost enclosing fn decides.
                let enclosing =
                    m.fns.iter().filter(|f| f.body.is_some_and(|(s, e)| s <= i && i <= e)).last();
                if enclosing.is_some_and(|f| {
                    cfg.alloc_allowed.iter().any(|(af, an)| af == rel && *an == f.name)
                }) {
                    continue;
                }
                findings.push(Finding::at(
                    Rule::AllocDiscipline,
                    rel,
                    m,
                    i,
                    format!(
                        "`{recv}.{method}()` copies a frame/payload allocation in a wire module; move a `FrameBuf` share (`share()` / `slice()`) instead, or route a genuinely needed copy through the sanctioned `copy_for_mutation`"
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{LintConfig, WireSchema as WireSchemaSpec};

    const REGISTRY: &str = "crates/protocol/src/stats.rs";
    const MACHINE_REGISTRY: &str = "crates/core/src/engine/mod.rs";

    fn models(files: &[(&str, &str)]) -> BTreeMap<String, FileModel> {
        files.iter().map(|(rel, src)| ((*rel).to_owned(), FileModel::parse(src))).collect()
    }

    fn cfg() -> LintConfig {
        LintConfig::msync()
    }

    fn schema() -> WireSchemaSpec {
        cfg().wire_schemas.remove(0)
    }

    const PHASE_DECL: &str = "/// Tags.\npub enum Phase {\n    Setup,\n    Map,\n    Delta,\n}\n";
    const OUTPUT_DECL: &str =
        "pub enum Output {\n    Transmit { frame: u8 },\n    Attribute { phase: u8 },\n    Wait { deadline_us: u64 },\n    Done,\n}\n";

    #[test]
    fn wire_schema_flags_one_sided_encode_arm() {
        let m = models(&[
            (REGISTRY, PHASE_DECL),
            (
                "crates/net/src/tcp.rs",
                "fn tag(p: Phase) -> u8 { match p { Phase::Setup => 0, Phase::Map => 1 } }",
            ),
        ]);
        let mut fs = Vec::new();
        wire_schema(&m, &schema(), &mut fs);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("misses {Delta}"), "{}", fs[0].message);
        assert_eq!(fs[0].file, "crates/net/src/tcp.rs");
        assert!(fs[0].line >= 1 && fs[0].col > 1, "span points at the match keyword");
    }

    #[test]
    fn wire_schema_flags_one_sided_decode_arm() {
        let m = models(&[
            (REGISTRY, PHASE_DECL),
            (
                "crates/protocol/src/arq.rs",
                "fn parse(b: u8) -> Option<Phase> { match b { 0 => Some(Phase::Setup), 1 => Some(Phase::Map), _ => None } }",
            ),
        ]);
        let mut fs = Vec::new();
        wire_schema(&m, &schema(), &mut fs);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("misses {Delta}"), "{}", fs[0].message);
    }

    fn admin_schema() -> WireSchemaSpec {
        cfg()
            .wire_schemas
            .into_iter()
            .find(|s| s.enum_name == "AdminCmd")
            .expect("AdminCmd schema is registered")
    }

    const ADMIN_DECL: &str = "/// Verbs.\npub(crate) enum AdminCmd {\n    Reload(String),\n    Stats { json: bool },\n    Sessions,\n    Health,\n}\n";

    #[test]
    fn wire_schema_covers_admin_verb_dispatch() {
        // An executor missing one verb arm is the admin-plane version of
        // a one-sided frame tag: the parser accepts `health`, the
        // dispatcher cannot answer it.
        let m = models(&[
            ("crates/net/src/handshake.rs", ADMIN_DECL),
            (
                "crates/net/src/mux.rs",
                "fn execute(cmd: AdminCmd) -> String { match cmd { AdminCmd::Reload(n) => reload(n), AdminCmd::Stats { json } => stats(json), AdminCmd::Sessions => sessions() } }",
            ),
        ]);
        let mut fs = Vec::new();
        wire_schema(&m, &admin_schema(), &mut fs);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("misses {Health}"), "{}", fs[0].message);
        assert_eq!(fs[0].file, "crates/net/src/mux.rs");

        // The full verb set dispatches cleanly.
        let ok = models(&[
            ("crates/net/src/handshake.rs", ADMIN_DECL),
            (
                "crates/net/src/mux.rs",
                "fn execute(cmd: AdminCmd) -> String { match cmd { AdminCmd::Reload(n) => reload(n), AdminCmd::Stats { json } => stats(json), AdminCmd::Sessions => sessions(), AdminCmd::Health => health() } }",
            ),
        ]);
        let mut fs = Vec::new();
        wire_schema(&ok, &admin_schema(), &mut fs);
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn wire_schema_accepts_complete_matches_and_value_uses() {
        let m = models(&[
            (REGISTRY, PHASE_DECL),
            (
                "crates/net/src/handshake.rs",
                "fn tag(p: Phase) -> u8 { match p { Phase::Setup => 0, Phase::Map => 1, Phase::Delta => 2 } }\n\
                 fn parse(b: u8) -> Option<Phase> { match b { 0 => Some(Phase::Setup), 1 => Some(Phase::Map), 2 => Some(Phase::Delta), _ => None } }\n\
                 fn hello(r: Result<u8, u8>) { match r { Ok(v) => send(v, Phase::Setup), Err(_) => reject(Phase::Setup) } }",
            ),
        ]);
        let mut fs = Vec::new();
        wire_schema(&m, &schema(), &mut fs);
        assert!(fs.is_empty(), "complete matches and single-variant value uses are clean: {fs:?}");
    }

    #[test]
    fn wire_schema_flags_duplicate_registry_and_missing_enum() {
        let m = models(&[
            (REGISTRY, PHASE_DECL),
            ("crates/net/src/mux.rs", "pub enum Phase { Setup, Map, Delta }"),
        ]);
        let mut fs = Vec::new();
        wire_schema(&m, &schema(), &mut fs);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("exactly one declaration"), "{}", fs[0].message);

        let empty = models(&[(REGISTRY, "// no enum here\n")]);
        let mut fs = Vec::new();
        wire_schema(&empty, &schema(), &mut fs);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("must declare `enum Phase`"), "{}", fs[0].message);
    }

    #[test]
    fn charge_point_requires_pairing() {
        let m = models(&[(
            "crates/net/src/tcp.rs",
            "fn good(&mut self) {\n    self.stats.record(Direction::Sent, self.phase, n);\n    self.recorder.record(self.clock.now_micros(), EventKind::FrameSend { seq: 0 }, n);\n}\n\
             fn uncharged(&mut self) {\n    self.recorder.record(t, EventKind::FrameSend { seq: 0 }, n);\n}\n\
             fn unjournaled(&mut self) {\n    self.stats.record(Direction::Received, phase, n);\n}\n\
             fn neutral(&mut self) {\n    self.recorder.record(t, EventKind::Handshake { ok: true }, 0);\n}\n\
             fn snapshot(&self) -> TrafficStats {\n    let mut out = self.stats.clone();\n    out.record(Direction::Sent, phase, pending);\n    out\n}\n",
        )]);
        let mut fs = Vec::new();
        charge_point(&m, &cfg(), &mut fs);
        assert_eq!(fs.len(), 2, "{fs:?}");
        assert!(fs[0].message.contains("`uncharged`"), "{}", fs[0].message);
        assert!(fs[1].message.contains("`unjournaled`"), "{}", fs[1].message);
    }

    #[test]
    fn charge_point_reject_path_must_be_metered() {
        // Sends the rejection without metering it: flagged.
        let m = models(&[(
            "crates/net/src/handshake.rs",
            "fn refuse(&mut self, o: HelloOutcome) {\n    if let HelloOutcome::Reject { reply, error } = o {\n        self.t.send(&reply, Phase::Setup);\n    }\n}\n",
        )]);
        let mut fs = Vec::new();
        charge_point(&m, &cfg(), &mut fs);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("`refuse`"), "{}", fs[0].message);
        assert!(fs[0].message.contains("Handshake"), "{}", fs[0].message);

        // Same shape with the metering present: clean. (queue_send is
        // the multiplexer's transmit spelling.)
        let m = models(&[(
            "crates/net/src/mux.rs",
            "fn refuse(&mut self, o: HelloOutcome) {\n    if let HelloOutcome::Reject { reply, error } = o {\n        self.queue_send(&reply, Phase::Setup, false);\n        self.recorder.record(t, EventKind::Handshake { ok: false }, 0);\n    }\n}\n",
        )]);
        let mut fs = Vec::new();
        charge_point(&m, &cfg(), &mut fs);
        assert!(fs.is_empty(), "metered reject path is clean: {fs:?}");

        // A pure verdict-builder never touches the wire: exempt.
        let m = models(&[(
            "crates/net/src/handshake.rs",
            "fn eval(text: &str) -> HelloOutcome {\n    HelloOutcome::Reject { reply: Vec::new(), error: NetError::Handshake(text.into()) }\n}\n",
        )]);
        let mut fs = Vec::new();
        charge_point(&m, &cfg(), &mut fs);
        assert!(fs.is_empty(), "pure reject builders are exempt: {fs:?}");
    }

    #[test]
    fn charge_point_ignores_out_of_scope_crates_and_tests() {
        let src = "fn unjournaled(&mut self) { self.stats.record(d, p, n); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t(&mut self) { self.stats.record(d, p, n); }\n}\n";
        let m = models(&[("crates/core/src/session.rs", src)]);
        let mut fs = Vec::new();
        charge_point(&m, &cfg(), &mut fs);
        assert!(fs.is_empty(), "core is not a charge crate: {fs:?}");
        let m = models(&[(
            "crates/net/src/tcp.rs",
            "#[cfg(test)]\nmod tests {\n    fn t(&mut self) { self.stats.record(d, p, n); }\n}\n",
        )]);
        let mut fs = Vec::new();
        charge_point(&m, &cfg(), &mut fs);
        assert!(fs.is_empty(), "test code is exempt: {fs:?}");
    }

    #[test]
    fn machine_discipline_flags_incomplete_drive_loop() {
        let m = models(&[
            (MACHINE_REGISTRY, OUTPUT_DECL),
            (
                "crates/net/src/mux.rs",
                "fn pump(&mut self) {\n    loop {\n        match self.machine.poll_output(now) {\n            Ok(Output::Transmit { frame }) => send(frame),\n            Ok(Output::Attribute { phase }) => charge(phase),\n            Ok(Output::Done) => break,\n            Err(e) => fail(e),\n        }\n    }\n}\n",
            ),
        ]);
        let mut fs = Vec::new();
        machine_discipline(&m, &cfg(), &mut fs);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("Output::{Wait}"), "{}", fs[0].message);
        assert!(fs[0].message.contains("`pump`"), "{}", fs[0].message);
    }

    #[test]
    fn machine_discipline_accepts_complete_drive_loop_and_poll_impl() {
        let m = models(&[
            (MACHINE_REGISTRY, OUTPUT_DECL),
            (
                "crates/net/src/mux.rs",
                "fn pump(&mut self) {\n    match self.machine.poll_output(now) {\n        Ok(Output::Transmit { frame }) => send(frame),\n        Ok(Output::Attribute { phase }) => charge(phase),\n        Ok(Output::Wait { deadline_us }) => arm(deadline_us),\n        Ok(Output::Done) => finish(),\n        Err(e) => fail(e),\n    }\n}\n\
                 fn poll_output(&mut self) -> Output { self.inner.poll_output(now) }\n",
            ),
        ]);
        let mut fs = Vec::new();
        machine_discipline(&m, &cfg(), &mut fs);
        assert!(fs.is_empty(), "complete loops and poll_output impls are clean: {fs:?}");
    }

    #[test]
    fn machine_discipline_flags_effectful_engine_code() {
        let m = models(&[
            (MACHINE_REGISTRY, OUTPUT_DECL),
            (
                "crates/core/src/engine/arq.rs",
                "fn bad(&mut self) { thread::spawn(|| {}); rx.recv_timeout(d); s.read(&mut b);\n    thread::sleep(d); let x = self.read_pos; read_varint(&b); }\n",
            ),
        ]);
        let mut fs = Vec::new();
        machine_discipline(&m, &cfg(), &mut fs);
        // spawn, recv_timeout, read, sleep fire; `read_pos` (field) and
        // `read_varint` (distinct identifier) do not.
        let purity: Vec<_> = fs.iter().filter(|f| f.message.contains("sans-IO")).collect();
        assert_eq!(purity.len(), 4, "{fs:?}");
        assert!(purity.iter().all(|f| f.file == "crates/core/src/engine/arq.rs"));
    }

    #[test]
    fn machine_discipline_reports_missing_output_registry() {
        let m = models(&[("crates/net/src/mux.rs", "fn f() {}")]);
        let mut fs = Vec::new();
        machine_discipline(&m, &cfg(), &mut fs);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("must declare `enum Output`"), "{}", fs[0].message);
    }

    #[test]
    fn apply_discipline_flags_bare_writes_on_apply_paths() {
        let m = models(&[
            (
                "crates/cli/src/commands.rs",
                "fn apply(&self) {\n    fs::write(&path, &data)?;\n    std::fs::write(other, bytes)?;\n}\n\
                 fn open(&self) -> io::Result<File> { File::create(&path) }\n\
                 #[cfg(test)]\nmod tests {\n    fn t() { fs::write(p, d).unwrap(); let _ = File::create(p); }\n}\n",
            ),
            // Out of scope: the applier itself lives in core.
            ("crates/core/src/apply.rs", "fn raw(&self) { fs::write(&tmp, data)?; }\n"),
        ]);
        let mut fs = Vec::new();
        apply_discipline(&m, &cfg(), &mut fs);
        assert_eq!(fs.len(), 3, "{fs:?}");
        assert!(fs.iter().all(|f| f.file == "crates/cli/src/commands.rs"), "{fs:?}");
        assert!(fs[0].message.contains("`fs::write(`"), "{}", fs[0].message);
        assert!(fs[2].message.contains("`File::create(`"), "{}", fs[2].message);
    }

    #[test]
    fn apply_discipline_accepts_applier_calls_and_unqualified_names() {
        let m = models(&[(
            "crates/net/src/mux.rs",
            "fn metrics(&self) { let _ = msync_core::atomic_write_file(path, text.as_bytes()); }\n\
             fn apply(&self) { self.applier.apply(&name, &data)?; }\n\
             fn other(&self) { self.journal.write(entry); create(thing); }\n\
             use std::fs::File;\n",
        )]);
        let mut fs = Vec::new();
        apply_discipline(&m, &cfg(), &mut fs);
        assert!(fs.is_empty(), "applier calls and unqualified names are clean: {fs:?}");
    }

    #[test]
    fn deprecation_debt_counts_attributes() {
        let m = models(&[(
            "crates/core/src/lib.rs",
            "#[deprecated(since = \"0.5.0\", note = \"use sync_file_with\")]\npub fn old() {}\n\
             #[deprecated]\npub fn older() {}\n\
             #[cfg(test)]\nmod tests {\n    #[deprecated]\n    fn t() {}\n}\n",
        )]);
        assert_eq!(deprecation_debt(&m), 2, "test-gated attributes do not count");
    }

    #[test]
    fn alloc_discipline_flags_frame_copies_in_wire_modules() {
        let m = models(&[(
            "crates/core/src/engine/arq.rs",
            "fn resend(&mut self) {\n    let a = frame.clone();\n    let b = self.payload.to_vec();\n    let c = frames[0].clone();\n    let d = encode_frame(&p).to_vec();\n    let ok = pool.clone();\n    let ok2 = name.to_vec();\n}\n",
        )]);
        let mut fs = Vec::new();
        alloc_discipline(&m, &cfg(), &mut fs);
        assert_eq!(fs.len(), 4, "frame/payload receivers fire, pool/name do not: {fs:?}");
        assert!(fs.iter().all(|f| f.rule == Rule::AllocDiscipline));
        assert!(fs.iter().any(|f| f.message.contains("`frame.clone()`")), "{fs:?}");
        assert!(fs.iter().any(|f| f.message.contains("`payload.to_vec()`")), "{fs:?}");
        assert!(fs.iter().any(|f| f.message.contains("`frames.clone()`")), "{fs:?}");
        assert!(fs.iter().any(|f| f.message.contains("`encode_frame.to_vec()`")), "{fs:?}");
    }

    #[test]
    fn alloc_discipline_exempts_allowlisted_sites_tests_and_other_scopes() {
        // The sanctioned copy site is exempt; the identical copy under
        // any other function name in the same file still fires.
        let m = models(&[(
            "crates/protocol/src/fault.rs",
            "fn copy_for_mutation(payload: &[u8]) -> Vec<u8> {\n    payload.to_vec()\n}\nfn sneaky(payload: &[u8]) -> Vec<u8> {\n    payload.to_vec()\n}\n",
        )]);
        let mut fs = Vec::new();
        alloc_discipline(&m, &cfg(), &mut fs);
        assert_eq!(fs.len(), 1, "only the unsanctioned copy fires: {fs:?}");
        assert!(fs[0].message.contains("`payload.to_vec()`"), "{}", fs[0].message);

        // Test code and out-of-scope modules never fire.
        let m = models(&[
            (
                "crates/protocol/src/channel.rs",
                "#[cfg(test)]\nmod tests {\n    fn t() { let x = frame.clone(); }\n}\n",
            ),
            ("crates/core/src/session.rs", "fn f() { let x = frame.clone(); }\n"),
        ]);
        let mut fs = Vec::new();
        alloc_discipline(&m, &cfg(), &mut fs);
        assert!(fs.is_empty(), "tests and non-wire modules are out of scope: {fs:?}");
    }

    #[test]
    fn a_scope_that_matches_no_file_is_a_finding() {
        let m = models(&[
            (MACHINE_REGISTRY, OUTPUT_DECL),
            ("crates/core/src/pipeline.rs", "fn drive() {}\n"),
        ]);
        let mut c = cfg();
        // A live scope, a stale one in a crate the tree has, and one in
        // a crate it lacks.
        c.alloc_scopes =
            ["crates/core/src/engine/", "crates/core/src/machines/", "crates/gone/src/"]
                .map(str::to_owned)
                .to_vec();
        let mut fs = Vec::new();
        run(&m, &c, &mut fs);
        let stale: Vec<_> = fs.iter().filter(|f| f.message.contains("matches no file")).collect();
        let stale: Vec<_> = stale.iter().map(|f| (f.rule, f.file.as_str())).collect();
        assert_eq!(stale, [(Rule::AllocDiscipline, "crates/core/src/machines/")], "{fs:?}");
    }

    #[test]
    fn machine_spec_can_be_disabled() {
        let mut c = cfg();
        c.machine = None;
        let m = models(&[(
            "crates/net/src/mux.rs",
            "fn pump(&mut self) { let _ = self.m.poll_output(now); }",
        )]);
        let mut fs = Vec::new();
        machine_discipline(&m, &c, &mut fs);
        assert!(fs.is_empty(), "no machine spec, no drive-loop checks: {fs:?}");
    }
}
