//! `cargo run -p xtask -- lint` — the workspace static-analysis gate —
//! plus the offline validators: `check-journal FILE` for trace
//! journals, `check-metrics FILE` for Prometheus expositions, and
//! `check-lint-report FILE` for the JSON lint report CI archives.
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;
use xtask::{find_workspace_root, gate, lint_workspace, Baseline, LintConfig};

const USAGE: &str = "\
usage: cargo run -p xtask -- lint [options]
       cargo run -p xtask -- check-journal <FILE>
       cargo run -p xtask -- check-metrics <FILE> [--require <prefix>]...
       cargo run -p xtask -- check-lint-report <FILE>

Static-analysis gate for the msync workspace: a token-aware engine
(lexer + import/function/match model) runs per-file rules and
cross-file protocol passes. Enforces:
  crate-headers    #![forbid(unsafe_code)] + #![deny(missing_docs)] in lib crates
  panic-freedom    no unwrap()/expect(/panic!/todo!/unimplemented! in
                   protocol-critical non-test code (hashes, protocol,
                   rsync, core, net)
  lossy-cast       no narrowing `as` casts in wire-format modules
  determinism      no ambient clock/RNG inside protocol logic, including
                   through `use ... as` aliases
  hermeticity      workspace crates use first-party path deps only
  channel-discipline
                   no bare recv() in protocol-critical code; receives
                   must be bounded (recv_timeout / try_recv); in socket
                   crates (net) every read-family call additionally
                   requires a preceding set_read_timeout deadline
  clock-discipline no Instant::now / SystemTime::now outside crates/trace
                   (alias-aware); time flows through msync_trace::Clock
                   so traced runs replay deterministically
  wire-schema      frame tags (enum Phase) are declared once, in the
                   registry module, and every encode/decode match over
                   them covers the identical variant set — a one-sided
                   arm is a lint error, not a runtime desync
  charge-point     every transport function (crates/net, crates/protocol)
                   pairs its TrafficStats charge with the FrameSend/
                   FrameRecv trace event, so journal == stats by
                   construction
  machine-discipline
                   every drive loop polling a sans-IO machine handles
                   all Output::{Transmit,Attribute,Wait,Done} variants,
                   and the engine modules (crates/core/src/engine/) stay
                   effect-pure: no thread::spawn / blocking recv /
                   read-family calls / sleep
  apply-discipline no bare fs::write( / File::create( on the sync-apply
                   paths (crates/cli, crates/net); materialized files go
                   through msync_core::AtomicApplier / atomic_write_file
                   so a crash never leaves a torn replica
  alloc-discipline no .to_vec()/.clone() on frame/payload values in the
                   wire modules (crates/protocol, crates/net,
                   crates/core/src/engine); frames move as refcounted
                   FrameBuf shares, and the only sanctioned copy is the
                   allowlisted fault::copy_for_mutation

options:
  --format <human|json>  output format (default: human; json is the
                         SARIF-lite report ci.sh archives as LINT_REPORT.json)
  --json                 shorthand for --format json
  --update-baseline      rewrite lint-baseline.toml to cover current findings
  --root <dir>           workspace root (default: discovered from cwd)

check-journal validates a --trace-out JSONL journal offline (no jq
needed): every line must parse under the current schema with monotone t_us.
check-metrics validates a Prometheus text exposition (a `msync stats`
scrape or --metrics-out file) offline, no promtool needed: well-formed
`# TYPE` lines declared once and before their samples, valid metric and
label syntax, numeric values, and no duplicate series. Each
`--require <prefix>` additionally demands at least one declared family
whose name starts with the prefix (CI gates the live scrape on
`msync_frame_pool_` this way), failing otherwise.
check-lint-report validates a `lint --format json` report: valid JSON
with the msync-lint/1 shape (findings with rule/file/line/col spans).
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(err) => {
            eprintln!("xtask: {err}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        eprint!("{USAGE}");
        return Ok(ExitCode::from(2));
    };
    if cmd == "check-journal" {
        let path = it.next().ok_or("check-journal needs a journal file path")?;
        if it.next().is_some() {
            return Err(format!("check-journal takes exactly one argument\n\n{USAGE}"));
        }
        return check_journal(std::path::Path::new(path));
    }
    if cmd == "check-metrics" {
        let mut path: Option<&String> = None;
        let mut required: Vec<String> = Vec::new();
        while let Some(arg) = it.next() {
            if arg == "--require" {
                required.push(it.next().ok_or("--require needs a metric-name prefix")?.clone());
            } else if path.is_none() {
                path = Some(arg);
            } else {
                return Err(format!(
                    "check-metrics takes one file plus --require options\n\n{USAGE}"
                ));
            }
        }
        let path = path.ok_or("check-metrics needs an exposition file path")?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        return match xtask::metrics::validate_metrics(&text) {
            Ok(summary) => {
                let missing: Vec<&String> = required
                    .iter()
                    .filter(|p| xtask::metrics::families_with_prefix(&text, p) == 0)
                    .collect();
                if missing.is_empty() {
                    println!(
                        "{path}: {} series in {} families OK",
                        summary.series, summary.families
                    );
                    Ok(ExitCode::SUCCESS)
                } else {
                    for prefix in &missing {
                        eprintln!("{path}: no metric family matches required prefix `{prefix}`");
                    }
                    eprintln!("{path}: {} missing required famil(y/ies)", missing.len());
                    Ok(ExitCode::FAILURE)
                }
            }
            Err(errors) => {
                for err in &errors {
                    eprintln!("{path}: {err}");
                }
                eprintln!("{path}: {} violation(s)", errors.len());
                Ok(ExitCode::FAILURE)
            }
        };
    }
    if cmd == "check-lint-report" {
        let path = it.next().ok_or("check-lint-report needs a report file path")?;
        if it.next().is_some() {
            return Err(format!("check-lint-report takes exactly one argument\n\n{USAGE}"));
        }
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        return match xtask::report::validate_report(&text) {
            Ok(()) => {
                println!("{path}: valid {} report", xtask::report::REPORT_VERSION);
                Ok(ExitCode::SUCCESS)
            }
            Err(err) => {
                eprintln!("{path}: {err}");
                Ok(ExitCode::FAILURE)
            }
        };
    }
    if cmd != "lint" {
        eprint!("unknown command `{cmd}`\n\n{USAGE}");
        return Ok(ExitCode::from(2));
    }
    let mut json = false;
    let mut update_baseline = false;
    let mut root: Option<PathBuf> = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--format" => match it.next().map(String::as_str) {
                Some("json") => json = true,
                Some("human") => json = false,
                Some(other) => {
                    return Err(format!("unknown format `{other}` (expected human or json)"))
                }
                None => return Err("--format needs a value (human or json)".to_owned()),
            },
            "--update-baseline" => update_baseline = true,
            "--root" => {
                root = Some(PathBuf::from(it.next().ok_or("--root needs a value")?));
            }
            other => return Err(format!("unknown option `{other}`\n\n{USAGE}")),
        }
    }
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let root = match root {
        Some(r) => r,
        None => find_workspace_root(&cwd)
            .ok_or("no workspace root found above the current directory")?,
    };
    let cfg = LintConfig::msync();

    if update_baseline {
        let findings = lint_workspace(&root, &cfg).map_err(|e| e.to_string())?;
        let baseline = Baseline::covering(&findings);
        let path = root.join("lint-baseline.toml");
        std::fs::write(&path, baseline.serialize()).map_err(|e| e.to_string())?;
        eprintln!(
            "wrote {} covering {} finding(s) in {} (rule, file) group(s)",
            path.display(),
            findings.len(),
            baseline.allowed.len()
        );
        return Ok(ExitCode::SUCCESS);
    }

    let outcome = gate(&root, &cfg).map_err(|e| e.to_string())?;
    if json {
        println!("{}", xtask::report::json(&outcome));
    } else {
        print!("{}", xtask::report::human(&outcome));
    }
    Ok(if outcome.active.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Validate a `--trace-out` JSONL journal: every non-empty line must parse
/// under the current schema, declare the matching `v`, and carry a
/// non-decreasing `t_us`.
fn check_journal(path: &std::path::Path) -> Result<ExitCode, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut lines = 0usize;
    let mut bad = 0usize;
    let mut last_t_us = 0u64;
    for (idx, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        lines += 1;
        match msync_trace::parse_line(line) {
            Ok(parsed) => {
                if parsed.v != u64::from(msync_trace::SCHEMA_VERSION) {
                    eprintln!(
                        "{}:{}: schema version {} (expected {})",
                        path.display(),
                        idx + 1,
                        parsed.v,
                        msync_trace::SCHEMA_VERSION
                    );
                    bad += 1;
                } else if parsed.t_us < last_t_us {
                    eprintln!(
                        "{}:{}: t_us {} goes backwards (previous {last_t_us})",
                        path.display(),
                        idx + 1,
                        parsed.t_us
                    );
                    bad += 1;
                } else {
                    last_t_us = parsed.t_us;
                }
            }
            Err(err) => {
                eprintln!("{}:{}: {err}", path.display(), idx + 1);
                bad += 1;
            }
        }
    }
    if bad == 0 {
        println!("{}: {lines} journal line(s) OK", path.display());
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("{}: {bad} of {lines} line(s) invalid", path.display());
        Ok(ExitCode::FAILURE)
    }
}
