//! Argument parsing (hand-rolled; the dependency set is fixed).

use std::path::PathBuf;

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The subcommand to run.
    pub command: Command,
}

/// The tool's subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Synchronize `old` to `new`, reporting wire costs.
    Sync {
        /// Outdated file or directory (the client side).
        old: PathBuf,
        /// Current file or directory (the server side). `None` when the
        /// server side is a remote daemon (`--remote`).
        new: Option<PathBuf>,
        /// Configuration source.
        config: ConfigSource,
        /// Also run rsync / CDC / zdelta for comparison.
        compare: bool,
        /// Write the reconstructed files under this directory.
        write: Option<PathBuf>,
        /// Run over a deterministically faulty channel with this
        /// profile (see `msync_protocol::fault::PROFILE_NAMES`).
        fault_profile: Option<String>,
        /// Seed for the fault injector (reproduces a faulty run).
        fault_seed: u64,
        /// Address of an `msync serve` daemon to sync against.
        remote: Option<String>,
        /// Cap on files in flight per batched flush when syncing
        /// remotely; `None` leaves the window to the byte budget.
        pipeline_depth: Option<usize>,
        /// Explicit opt-in to wrapping the *real socket* in the fault
        /// injector; required to combine `--remote` with
        /// `--fault-profile`.
        fault_wrap: bool,
        /// Write a JSONL trace journal of the run to this file.
        trace_out: Option<PathBuf>,
        /// Keep durable session state (checkpoint journal + metadata
        /// cache) in this directory across remote syncs.
        state_dir: Option<PathBuf>,
        /// Offer the last interrupted run's checkpoint to the daemon
        /// so confirmed files skip their sessions.
        resume: bool,
        /// Ignore the metadata cache when building the resume offer.
        no_cache: bool,
        /// Which of the daemon's collections to sync (remote only);
        /// `None` means the daemon's default collection.
        collection: Option<String>,
    },
    /// Serve one or more directories to remote sync clients over TCP.
    Serve {
        /// Directory served as the default collection. Optional when
        /// `--collection` or `--registry-dir` names the collections.
        root: Option<PathBuf>,
        /// Listen address (e.g. `127.0.0.1:9631`, port 0 for ephemeral).
        listen: String,
        /// Rewrite this file with Prometheus-style aggregate metrics
        /// after every finished session.
        metrics_out: Option<PathBuf>,
        /// Multiplexer worker threads (0 = one per core).
        workers: usize,
        /// Cap on concurrently admitted sessions; excess connections
        /// get a typed capacity refusal.
        max_sessions: Option<usize>,
        /// Named collections (`--collection name=path`, repeatable).
        /// Names are validated and deduplicated at parse time.
        collections: Vec<(String, PathBuf)>,
        /// Directory whose immediate subdirectories each become a
        /// collection named after the subdirectory.
        registry_dir: Option<PathBuf>,
        /// Slow-session watchdog threshold in milliseconds; a session
        /// stuck in one protocol phase longer than this gets one trace
        /// event and one WARN line per stall. `None` disables it.
        slow_session_ms: Option<u64>,
    },
    /// Ask a running daemon to atomically reload one collection from
    /// its source tree.
    Reload {
        /// Name of the collection to reload.
        name: String,
        /// Address of the `msync serve` daemon.
        remote: String,
    },
    /// Fetch a running daemon's metrics exposition (the `stats` admin
    /// verb).
    Stats {
        /// Address of the `msync serve` daemon.
        remote: String,
        /// Print the flat JSON rendering instead of Prometheus text.
        json: bool,
    },
    /// Live session/health view of a running daemon, refreshed until
    /// interrupted (the `sessions` + `health` admin verbs).
    Top {
        /// Address of the `msync serve` daemon.
        remote: String,
        /// Refresh interval in milliseconds.
        interval_ms: u64,
    },
    /// Re-render a JSONL trace journal as Chrome `trace_event` JSON.
    TraceExport {
        /// The journal file (from `msync sync --trace-out`).
        input: PathBuf,
        /// Where to write the trace JSON; stdout when omitted.
        output: Option<PathBuf>,
    },
    /// Per-round protocol trace for one file pair.
    Inspect {
        /// Outdated file.
        old: PathBuf,
        /// Current file.
        new: PathBuf,
        /// Configuration source.
        config: ConfigSource,
    },
    /// Show the content-defined chunking of a file.
    Chunks {
        /// File to chunk.
        file: PathBuf,
        /// Average chunk size (power of two).
        avg: usize,
    },
    /// Print a parameter file for a preset.
    Params {
        /// Preset name.
        preset: String,
    },
    /// Print usage.
    Help,
}

/// Where the protocol configuration comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigSource {
    /// A named preset: `default`, `basic`, or `restricted:<levels>`.
    Preset(String),
    /// A parameter file on disk (the paper's configuration mechanism).
    File(PathBuf),
}

impl Default for ConfigSource {
    fn default() -> Self {
        ConfigSource::Preset("default".into())
    }
}

/// Usage text.
pub const USAGE: &str = "\
msync — multi-round file synchronization over slow links

USAGE:
    msync sync <OLD> <NEW> [--config FILE | --preset NAME] [--compare] [--write DIR]
               [--fault-profile NAME] [--fault-seed N] [--trace-out FILE]
    msync sync <OLD> --remote ADDR [--collection NAME]
               [--config FILE | --preset NAME] [--write DIR]
               [--pipeline-depth N] [--fault-profile NAME --fault-wrap] [--fault-seed N]
               [--trace-out FILE] [--state-dir DIR [--resume] [--no-cache]]
    msync serve [ROOT] [--collection NAME=PATH]... [--registry-dir DIR]
                [--listen ADDR] [--metrics-out FILE] [--workers N]
                [--max-sessions N] [--slow-session-ms N]
    msync reload <NAME> --remote ADDR
    msync stats --remote ADDR [--json]
    msync top --remote ADDR [--interval MS]
    msync trace-export <JOURNAL> [--out FILE]
    msync inspect <OLD> <NEW> [--config FILE | --preset NAME]
    msync chunks <FILE> [--avg BYTES]
    msync params [--preset NAME]
    msync help

OLD/NEW may both be files or both be directories.
Presets: default, basic, restricted:<levels> (e.g. restricted:3).
--config takes a parameter file (see `msync params` for the syntax).
--fault-profile runs the sync over a deterministically faulty channel
(profiles: none, drop, corrupt, truncate, duplicate, delay, disconnect,
lossy, evil); --fault-seed reproduces a specific run.

Remote mode: `msync serve <ROOT> --listen ADDR` starts a daemon serving
<ROOT> (default 127.0.0.1:9631; sessions multiplexed over --workers
event-loop threads, default available parallelism; --max-sessions N
refuses clients over the cap with a typed capacity error), and `msync
sync <OLD> --remote ADDR` updates the local directory against it over
real TCP, batching every file's message of a round into one frame per
direction: all files within a 16 MiB window of content by default, at
most N of them under --pipeline-depth N (1 = one file at a time).
--compare needs both sides locally and cannot combine with --remote.
Injecting faults into a real socket is opt-in: --remote with
--fault-profile additionally requires --fault-wrap.

Collections: one daemon serves many named trees. A bare <ROOT> is the
collection `default`; `--collection name=path` (repeatable) adds named
trees, and `--registry-dir DIR` registers every immediate subdirectory
of DIR under its own name. Repeated or invalid names are refused when
the command line is parsed, not silently last-one-wins. Clients pick a
tree with `msync sync <OLD> --remote ADDR --collection NAME`; clients
that name nothing get the default collection, and an unknown name gets
a typed unknown-collection refusal. `msync reload NAME --remote ADDR` asks a running daemon to
re-read that collection's source tree from disk and swap it in
atomically: in-flight sessions finish against the snapshot they
started with, new sessions see the new tree.

Durability: --state-dir DIR (remote syncs with --write) keeps a
checkpoint journal and a file-metadata cache in DIR. Every completed
file is applied atomically (temp + fsync + rename) and checkpointed
before the session moves on; after a crash, rerun with --resume to
offer the checkpoint to the daemon — confirmed files skip their
sessions entirely. The metadata cache makes repeat syncs of an
unchanged tree exchange only the roster; --no-cache disables it for
one run.

Observability: `msync sync ... --trace-out run.jsonl` writes one JSON
object per trace event (frame charges, map rounds, faults, sessions —
validate with `cargo run -p xtask -- check-journal`), and `msync serve
... --metrics-out metrics.prom` keeps a Prometheus-style rendering of
the daemon's aggregate counters and latency histograms fresh after
every session.

Introspection: a running daemon answers admin verbs without disturbing
live sessions. `msync stats --remote ADDR` fetches the full metrics
exposition (Prometheus text plus 10s/60s windowed rate gauges; --json
for the flat JSON rendering), `msync top --remote ADDR` refreshes a
live table of in-flight sessions plus daemon vitals every --interval
(default 1000 ms, Ctrl-C to quit). `msync serve ... --slow-session-ms
N` arms a watchdog: a session stuck in one protocol phase longer than
N ms gets a slow_session trace event and a WARN line, once per phase.
`msync trace-export run.jsonl --out run.trace.json` re-renders a trace
journal as Chrome trace_event JSON (load in chrome://tracing or
Perfetto).
";

/// Parse `argv[1..]`.
pub fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut it = args.iter().peekable();
    let sub = it.next().map(String::as_str).unwrap_or("help");
    let command = match sub {
        "help" | "--help" | "-h" => Command::Help,
        "sync" | "inspect" => {
            let old = PathBuf::from(it.next().ok_or("missing <OLD> path")?);
            // NEW is optional for `sync` (a remote daemon can stand in
            // for it); anything that looks like a flag is not a path.
            let new = match it.peek() {
                Some(word) if !word.starts_with("--") => it.next().map(PathBuf::from),
                _ => None,
            };
            let mut config = ConfigSource::default();
            let mut compare = false;
            let mut write = None;
            let mut fault_profile = None;
            let mut fault_seed = 0u64;
            let mut remote: Option<String> = None;
            let mut pipeline_depth: Option<usize> = None;
            let mut fault_wrap = false;
            let mut trace_out: Option<PathBuf> = None;
            let mut state_dir: Option<PathBuf> = None;
            let mut resume = false;
            let mut no_cache = false;
            let mut collection: Option<String> = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--config" => {
                        config = ConfigSource::File(PathBuf::from(
                            it.next().ok_or("--config needs a file path")?,
                        ))
                    }
                    "--preset" => {
                        config =
                            ConfigSource::Preset(it.next().ok_or("--preset needs a name")?.clone())
                    }
                    "--compare" if sub == "sync" => compare = true,
                    "--write" if sub == "sync" => {
                        write = Some(PathBuf::from(it.next().ok_or("--write needs a directory")?))
                    }
                    "--fault-profile" if sub == "sync" => {
                        fault_profile =
                            Some(it.next().ok_or("--fault-profile needs a name")?.clone())
                    }
                    "--fault-seed" if sub == "sync" => {
                        fault_seed = it
                            .next()
                            .ok_or("--fault-seed needs an integer")?
                            .parse()
                            .map_err(|_| "--fault-seed needs an integer".to_string())?
                    }
                    "--remote" if sub == "sync" => {
                        remote = Some(it.next().ok_or("--remote needs an address")?.clone())
                    }
                    "--pipeline-depth" if sub == "sync" => {
                        let depth: usize = it
                            .next()
                            .ok_or("--pipeline-depth needs an integer")?
                            .parse()
                            .map_err(|_| "--pipeline-depth needs an integer".to_string())?;
                        if depth == 0 {
                            return Err("--pipeline-depth must be at least 1".into());
                        }
                        pipeline_depth = Some(depth);
                    }
                    "--fault-wrap" if sub == "sync" => fault_wrap = true,
                    "--trace-out" if sub == "sync" => {
                        trace_out =
                            Some(PathBuf::from(it.next().ok_or("--trace-out needs a file path")?))
                    }
                    "--state-dir" if sub == "sync" => {
                        state_dir =
                            Some(PathBuf::from(it.next().ok_or("--state-dir needs a directory")?))
                    }
                    "--resume" if sub == "sync" => resume = true,
                    "--no-cache" if sub == "sync" => no_cache = true,
                    "--collection" if sub == "sync" => {
                        let name = it.next().ok_or("--collection needs a name")?.clone();
                        msync_net::validate_collection_name(&name).map_err(|reason| {
                            msync_net::RegistryError::InvalidName { name: name.clone(), reason }
                                .to_string()
                        })?;
                        collection = Some(name);
                    }
                    other => return Err(format!("unknown flag `{other}` for `{sub}`")),
                }
            }
            if sub == "sync" {
                match (&new, &remote) {
                    (Some(_), Some(_)) => {
                        return Err("give either <NEW> or --remote ADDR, not both".into())
                    }
                    (None, None) => return Err("missing <NEW> path (or --remote ADDR)".into()),
                    _ => {}
                }
                if remote.is_none() {
                    if pipeline_depth.is_some() {
                        return Err("--pipeline-depth only applies to --remote syncs".into());
                    }
                    if fault_wrap {
                        return Err("--fault-wrap only applies to --remote syncs".into());
                    }
                    if collection.is_some() {
                        return Err("--collection names a daemon collection; it only \
                                    applies to --remote syncs"
                            .into());
                    }
                } else {
                    if compare {
                        return Err(
                            "--compare needs both sides locally; it cannot combine with --remote"
                                .into(),
                        );
                    }
                    if fault_profile.is_some() && !fault_wrap {
                        return Err("--fault-profile on a real socket is opt-in: \
                                    add --fault-wrap to inject faults into the --remote link"
                            .into());
                    }
                }
                if fault_wrap && fault_profile.is_none() {
                    return Err("--fault-wrap needs a --fault-profile to wrap".into());
                }
                if state_dir.is_some() {
                    if remote.is_none() {
                        return Err("--state-dir only applies to --remote syncs".into());
                    }
                    if write.is_none() {
                        return Err("--state-dir needs --write DIR: durable state \
                                    checkpoints files applied to disk"
                            .into());
                    }
                } else {
                    if resume {
                        return Err(
                            "--resume needs --state-dir DIR to read the checkpoint from".into()
                        );
                    }
                    if no_cache {
                        return Err("--no-cache only matters with --state-dir DIR".into());
                    }
                }
                Command::Sync {
                    old,
                    new,
                    config,
                    compare,
                    write,
                    fault_profile,
                    fault_seed,
                    remote,
                    pipeline_depth,
                    fault_wrap,
                    trace_out,
                    state_dir,
                    resume,
                    no_cache,
                    collection,
                }
            } else {
                let new = new.ok_or("missing <NEW> path")?;
                Command::Inspect { old, new, config }
            }
        }
        "serve" => {
            // ROOT is optional: --collection / --registry-dir can name
            // every served tree. Anything flag-shaped is not a path.
            let root = match it.peek() {
                Some(word) if !word.starts_with("--") => it.next().map(PathBuf::from),
                _ => None,
            };
            let mut listen = "127.0.0.1:9631".to_string();
            let mut metrics_out: Option<PathBuf> = None;
            let mut workers = 0usize;
            let mut max_sessions: Option<usize> = None;
            let mut collections: Vec<(String, PathBuf)> = Vec::new();
            let mut registry_dir: Option<PathBuf> = None;
            let mut slow_session_ms: Option<u64> = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--listen" => listen = it.next().ok_or("--listen needs an address")?.clone(),
                    "--metrics-out" => {
                        metrics_out =
                            Some(PathBuf::from(it.next().ok_or("--metrics-out needs a file path")?))
                    }
                    "--workers" => {
                        workers = it
                            .next()
                            .ok_or("--workers needs a thread count")?
                            .parse()
                            .map_err(|_| "--workers needs an integer".to_string())?
                    }
                    "--max-sessions" => {
                        max_sessions = Some(
                            it.next()
                                .ok_or("--max-sessions needs a session count")?
                                .parse()
                                .map_err(|_| "--max-sessions needs an integer".to_string())?,
                        )
                    }
                    "--collection" => {
                        let spec = it.next().ok_or("--collection needs NAME=PATH")?;
                        let (name, path) = spec
                            .split_once('=')
                            .ok_or_else(|| format!("--collection `{spec}`: expected NAME=PATH"))?;
                        if path.is_empty() {
                            return Err(format!("--collection `{spec}`: empty PATH"));
                        }
                        msync_net::validate_collection_name(name).map_err(|reason| {
                            msync_net::RegistryError::InvalidName { name: name.to_owned(), reason }
                                .to_string()
                        })?;
                        // Repeated names are a conflict, never
                        // last-one-wins — each name maps to one tree.
                        if collections.iter().any(|(n, _)| n == name) {
                            return Err(
                                msync_net::RegistryError::Duplicate(name.to_owned()).to_string()
                            );
                        }
                        collections.push((name.to_owned(), PathBuf::from(path)));
                    }
                    "--registry-dir" => {
                        registry_dir = Some(PathBuf::from(
                            it.next().ok_or("--registry-dir needs a directory")?,
                        ))
                    }
                    "--slow-session-ms" => {
                        let ms: u64 = it
                            .next()
                            .ok_or("--slow-session-ms needs a threshold in milliseconds")?
                            .parse()
                            .map_err(|_| "--slow-session-ms needs an integer".to_string())?;
                        if ms == 0 {
                            return Err("--slow-session-ms must be at least 1".into());
                        }
                        slow_session_ms = Some(ms);
                    }
                    other => return Err(format!("unknown flag `{other}` for `serve`")),
                }
            }
            if root.is_none() && collections.is_empty() && registry_dir.is_none() {
                return Err("serve needs something to serve: a ROOT directory, \
                            --collection NAME=PATH, or --registry-dir DIR"
                    .into());
            }
            // A bare ROOT is registered as the default collection, so a
            // --collection entry under that name would collide with it.
            if root.is_some() && collections.iter().any(|(n, _)| n == msync_net::DEFAULT_COLLECTION)
            {
                return Err(format!(
                    "{} (ROOT already serves as the default collection)",
                    msync_net::RegistryError::Duplicate(msync_net::DEFAULT_COLLECTION.to_owned())
                ));
            }
            Command::Serve {
                root,
                listen,
                metrics_out,
                workers,
                max_sessions,
                collections,
                registry_dir,
                slow_session_ms,
            }
        }
        "reload" => {
            let name = it.next().ok_or("missing collection NAME")?.clone();
            msync_net::validate_collection_name(&name).map_err(|reason| {
                msync_net::RegistryError::InvalidName { name: name.clone(), reason }.to_string()
            })?;
            let mut remote: Option<String> = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--remote" => {
                        remote = Some(it.next().ok_or("--remote needs an address")?.clone())
                    }
                    other => return Err(format!("unknown flag `{other}` for `reload`")),
                }
            }
            let remote = remote.ok_or("reload needs --remote ADDR (the daemon to ask)")?;
            Command::Reload { name, remote }
        }
        "stats" => {
            let mut remote: Option<String> = None;
            let mut json = false;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--remote" => {
                        remote = Some(it.next().ok_or("--remote needs an address")?.clone())
                    }
                    "--json" => json = true,
                    other => return Err(format!("unknown flag `{other}` for `stats`")),
                }
            }
            let remote = remote.ok_or("stats needs --remote ADDR (the daemon to scrape)")?;
            Command::Stats { remote, json }
        }
        "top" => {
            let mut remote: Option<String> = None;
            let mut interval_ms = 1000u64;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--remote" => {
                        remote = Some(it.next().ok_or("--remote needs an address")?.clone())
                    }
                    "--interval" => {
                        interval_ms = it
                            .next()
                            .ok_or("--interval needs milliseconds")?
                            .parse()
                            .map_err(|_| "--interval needs an integer".to_string())?;
                        if interval_ms == 0 {
                            return Err("--interval must be at least 1".into());
                        }
                    }
                    other => return Err(format!("unknown flag `{other}` for `top`")),
                }
            }
            let remote = remote.ok_or("top needs --remote ADDR (the daemon to watch)")?;
            Command::Top { remote, interval_ms }
        }
        "trace-export" => {
            let input = PathBuf::from(it.next().ok_or("missing <JOURNAL> path")?);
            let mut output: Option<PathBuf> = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--out" => {
                        output = Some(PathBuf::from(it.next().ok_or("--out needs a file path")?))
                    }
                    other => return Err(format!("unknown flag `{other}` for `trace-export`")),
                }
            }
            Command::TraceExport { input, output }
        }
        "chunks" => {
            let file = PathBuf::from(it.next().ok_or("missing <FILE> path")?);
            let mut avg = 2048usize;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--avg" => {
                        avg = it
                            .next()
                            .ok_or("--avg needs a byte count")?
                            .parse()
                            .map_err(|_| "--avg needs an integer".to_string())?
                    }
                    other => return Err(format!("unknown flag `{other}` for `chunks`")),
                }
            }
            if !avg.is_power_of_two() || avg < 64 {
                return Err("--avg must be a power of two ≥ 64".into());
            }
            Command::Chunks { file, avg }
        }
        "params" => {
            let mut preset = "default".to_string();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--preset" => preset = it.next().ok_or("--preset needs a name")?.clone(),
                    other => return Err(format!("unknown flag `{other}` for `params`")),
                }
            }
            Command::Params { preset }
        }
        other => return Err(format!("unknown subcommand `{other}`")),
    };
    Ok(Cli { command })
}

/// Resolve a preset name into a configuration.
pub fn preset_config(name: &str) -> Result<msync_core::ProtocolConfig, String> {
    if let Some(levels) = name.strip_prefix("restricted:") {
        let levels: u32 = levels.parse().map_err(|_| "restricted:<levels> needs an integer")?;
        return Ok(msync_core::ProtocolConfig::restricted(levels));
    }
    match name {
        "default" | "all" => Ok(msync_core::ProtocolConfig::default()),
        "basic" => Ok(msync_core::ProtocolConfig::basic(64)),
        other => {
            Err(format!("unknown preset `{other}` (try: default, basic, restricted:<levels>)"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Cli, String> {
        let v: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        parse_args(&v)
    }

    #[test]
    fn sync_with_flags() {
        let cli = parse(&["sync", "a", "b", "--preset", "basic", "--compare"]).unwrap();
        match cli.command {
            Command::Sync {
                old,
                new,
                config,
                compare,
                write,
                fault_profile,
                fault_seed,
                remote,
                pipeline_depth,
                fault_wrap,
                trace_out,
                state_dir,
                resume,
                no_cache,
                collection,
            } => {
                assert_eq!(old, PathBuf::from("a"));
                assert_eq!(new, Some(PathBuf::from("b")));
                assert_eq!(config, ConfigSource::Preset("basic".into()));
                assert!(compare);
                assert!(write.is_none());
                assert!(fault_profile.is_none());
                assert_eq!(fault_seed, 0);
                assert!(remote.is_none());
                assert_eq!(pipeline_depth, None);
                assert!(!fault_wrap);
                assert!(trace_out.is_none());
                assert!(state_dir.is_none());
                assert!(!resume);
                assert!(!no_cache);
                assert!(collection.is_none());
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn durability_flags_parse_and_validate() {
        let cli = parse(&[
            "sync",
            "m",
            "--remote",
            "h:1",
            "--write",
            "out",
            "--state-dir",
            ".msync",
            "--resume",
            "--no-cache",
        ])
        .unwrap();
        match cli.command {
            Command::Sync { state_dir, resume, no_cache, .. } => {
                assert_eq!(state_dir, Some(PathBuf::from(".msync")));
                assert!(resume);
                assert!(no_cache);
            }
            other => panic!("wrong command {other:?}"),
        }
        // Durable state is a remote-sync feature and needs a write dir.
        assert!(parse(&["sync", "a", "b", "--state-dir", "s"]).unwrap_err().contains("--remote"));
        assert!(parse(&["sync", "m", "--remote", "h:1", "--state-dir", "s"])
            .unwrap_err()
            .contains("--write"));
        // --resume / --no-cache without state are meaningless.
        assert!(parse(&["sync", "m", "--remote", "h:1", "--resume"])
            .unwrap_err()
            .contains("--state-dir"));
        assert!(parse(&["sync", "m", "--remote", "h:1", "--no-cache"])
            .unwrap_err()
            .contains("--state-dir"));
        assert!(parse(&["inspect", "a", "b", "--resume"]).is_err());
    }

    #[test]
    fn serve_parses_with_default_and_explicit_listen() {
        let cli = parse(&["serve", "/srv/tree"]).unwrap();
        assert_eq!(
            cli.command,
            Command::Serve {
                root: Some(PathBuf::from("/srv/tree")),
                listen: "127.0.0.1:9631".into(),
                metrics_out: None,
                workers: 0,
                max_sessions: None,
                collections: Vec::new(),
                registry_dir: None,
                slow_session_ms: None,
            }
        );
        let cli = parse(&["serve", "/srv/tree", "--listen", "0.0.0.0:7777"]).unwrap();
        match cli.command {
            Command::Serve { listen, .. } => assert_eq!(listen, "0.0.0.0:7777"),
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&["serve"]).unwrap_err().contains("ROOT"));
        assert!(parse(&["serve", "/srv", "--compare"]).is_err());
    }

    #[test]
    fn serve_collections_parse_and_conflicts_are_refused_at_parse_time() {
        let cli = parse(&[
            "serve",
            "--collection",
            "photos=/srv/photos",
            "--collection",
            "docs=/srv/docs",
        ])
        .unwrap();
        match cli.command {
            Command::Serve { root, collections, .. } => {
                assert!(root.is_none());
                assert_eq!(
                    collections,
                    vec![
                        ("photos".to_string(), PathBuf::from("/srv/photos")),
                        ("docs".to_string(), PathBuf::from("/srv/docs")),
                    ]
                );
            }
            other => panic!("wrong command {other:?}"),
        }
        // The same name twice is a conflict, not last-one-wins.
        let err = parse(&["serve", "--collection", "a=/x", "--collection", "a=/y"]).unwrap_err();
        assert!(err.contains("registered more than once"), "{err}");
        // ROOT already occupies the default collection's name.
        let err = parse(&["serve", "/srv", "--collection", "default=/other"]).unwrap_err();
        assert!(err.contains("registered more than once"), "{err}");
        // Bad names are caught before the daemon ever starts.
        for bad in ["../etc=/x", "a/b=/x", "=/x", "..=/x"] {
            assert!(parse(&["serve", "--collection", bad]).is_err(), "{bad}");
        }
        assert!(parse(&["serve", "--collection", "noequals"]).unwrap_err().contains("NAME=PATH"));
        assert!(parse(&["serve", "--collection", "a="]).unwrap_err().contains("empty PATH"));
    }

    #[test]
    fn serve_registry_dir_parses() {
        let cli = parse(&["serve", "--registry-dir", "/srv/registry"]).unwrap();
        match cli.command {
            Command::Serve { root, registry_dir, .. } => {
                assert!(root.is_none());
                assert_eq!(registry_dir, Some(PathBuf::from("/srv/registry")));
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&["serve", "--registry-dir"]).unwrap_err().contains("directory"));
    }

    #[test]
    fn sync_collection_flag_is_remote_only_and_validated() {
        let cli = parse(&["sync", "m", "--remote", "h:1", "--collection", "photos"]).unwrap();
        match cli.command {
            Command::Sync { collection, .. } => assert_eq!(collection.as_deref(), Some("photos")),
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&["sync", "a", "b", "--collection", "x"]).unwrap_err().contains("--remote"));
        assert!(parse(&["sync", "m", "--remote", "h:1", "--collection", "../up"]).is_err());
        assert!(parse(&["sync", "m", "--remote", "h:1", "--collection"]).is_err());
    }

    #[test]
    fn reload_parses_and_validates() {
        let cli = parse(&["reload", "crawl", "--remote", "h:1"]).unwrap();
        assert_eq!(cli.command, Command::Reload { name: "crawl".into(), remote: "h:1".into() });
        assert!(parse(&["reload", "crawl"]).unwrap_err().contains("--remote"));
        assert!(parse(&["reload"]).unwrap_err().contains("NAME"));
        assert!(parse(&["reload", "../up", "--remote", "h:1"]).is_err());
    }

    #[test]
    fn serve_slow_session_flag_parses_and_validates() {
        let cli = parse(&["serve", "/srv", "--slow-session-ms", "2500"]).unwrap();
        match cli.command {
            Command::Serve { slow_session_ms, .. } => assert_eq!(slow_session_ms, Some(2500)),
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&["serve", "/srv", "--slow-session-ms", "0"])
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&["serve", "/srv", "--slow-session-ms", "soon"]).is_err());
        assert!(parse(&["serve", "/srv", "--slow-session-ms"]).is_err());
    }

    #[test]
    fn stats_and_top_parse_and_require_remote() {
        let cli = parse(&["stats", "--remote", "h:1"]).unwrap();
        assert_eq!(cli.command, Command::Stats { remote: "h:1".into(), json: false });
        let cli = parse(&["stats", "--remote", "h:1", "--json"]).unwrap();
        assert_eq!(cli.command, Command::Stats { remote: "h:1".into(), json: true });
        assert!(parse(&["stats"]).unwrap_err().contains("--remote"));
        assert!(parse(&["stats", "--remote", "h:1", "--yaml"]).is_err());

        let cli = parse(&["top", "--remote", "h:1"]).unwrap();
        assert_eq!(cli.command, Command::Top { remote: "h:1".into(), interval_ms: 1000 });
        let cli = parse(&["top", "--remote", "h:1", "--interval", "250"]).unwrap();
        assert_eq!(cli.command, Command::Top { remote: "h:1".into(), interval_ms: 250 });
        assert!(parse(&["top"]).unwrap_err().contains("--remote"));
        assert!(parse(&["top", "--remote", "h:1", "--interval", "0"])
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&["top", "--remote", "h:1", "--interval", "x"]).is_err());
    }

    #[test]
    fn trace_export_parses() {
        let cli = parse(&["trace-export", "run.jsonl"]).unwrap();
        assert_eq!(
            cli.command,
            Command::TraceExport { input: PathBuf::from("run.jsonl"), output: None }
        );
        let cli = parse(&["trace-export", "run.jsonl", "--out", "run.trace.json"]).unwrap();
        assert_eq!(
            cli.command,
            Command::TraceExport {
                input: PathBuf::from("run.jsonl"),
                output: Some(PathBuf::from("run.trace.json")),
            }
        );
        assert!(parse(&["trace-export"]).unwrap_err().contains("JOURNAL"));
        assert!(parse(&["trace-export", "run.jsonl", "--out"]).unwrap_err().contains("file path"));
        assert!(parse(&["trace-export", "run.jsonl", "--format", "x"]).is_err());
    }

    #[test]
    fn serve_concurrency_flags_parse() {
        let cli = parse(&["serve", "/srv", "--workers", "4", "--max-sessions", "64"]).unwrap();
        match cli.command {
            Command::Serve { workers, max_sessions, .. } => {
                assert_eq!(workers, 4);
                assert_eq!(max_sessions, Some(64));
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&["serve", "/srv", "--workers"]).unwrap_err().contains("thread count"));
        assert!(parse(&["serve", "/srv", "--workers", "x"]).unwrap_err().contains("integer"));
        assert!(parse(&["serve", "/srv", "--max-sessions", "no"]).is_err());
    }

    #[test]
    fn observability_flags_parse() {
        let cli = parse(&["sync", "a", "b", "--trace-out", "run.jsonl"]).unwrap();
        match cli.command {
            Command::Sync { trace_out, .. } => {
                assert_eq!(trace_out, Some(PathBuf::from("run.jsonl")));
            }
            other => panic!("wrong command {other:?}"),
        }
        // Remote syncs trace too.
        let cli = parse(&["sync", "a", "--remote", "h:1", "--trace-out", "t.jsonl"]).unwrap();
        match cli.command {
            Command::Sync { trace_out, .. } => assert!(trace_out.is_some()),
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&["sync", "a", "b", "--trace-out"]).unwrap_err().contains("file path"));
        assert!(parse(&["inspect", "a", "b", "--trace-out", "x"]).is_err());

        let cli = parse(&["serve", "/srv", "--metrics-out", "m.prom"]).unwrap();
        match cli.command {
            Command::Serve { metrics_out, .. } => {
                assert_eq!(metrics_out, Some(PathBuf::from("m.prom")));
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&["serve", "/srv", "--metrics-out"]).unwrap_err().contains("file path"));
    }

    #[test]
    fn remote_replaces_the_new_path() {
        let cli =
            parse(&["sync", "mirror", "--remote", "host:9631", "--pipeline-depth", "64"]).unwrap();
        match cli.command {
            Command::Sync { old, new, remote, pipeline_depth, .. } => {
                assert_eq!(old, PathBuf::from("mirror"));
                assert!(new.is_none());
                assert_eq!(remote.as_deref(), Some("host:9631"));
                assert_eq!(pipeline_depth, Some(64));
            }
            other => panic!("wrong command {other:?}"),
        }
        // Both NEW and --remote, or neither, is a contradiction.
        assert!(parse(&["sync", "a", "b", "--remote", "h:1"]).unwrap_err().contains("not both"));
        assert!(parse(&["sync", "a"]).unwrap_err().contains("--remote"));
    }

    #[test]
    fn pipeline_depth_validation() {
        assert!(parse(&["sync", "a", "--remote", "h:1", "--pipeline-depth", "0"])
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&["sync", "a", "--remote", "h:1", "--pipeline-depth", "x"]).is_err());
        // Depth is meaningless without a remote link.
        assert!(parse(&["sync", "a", "b", "--pipeline-depth", "8"])
            .unwrap_err()
            .contains("--remote"));
    }

    #[test]
    fn remote_conflicts_rejected() {
        // Comparison baselines need the server's files locally.
        assert!(parse(&["sync", "a", "--remote", "h:1", "--compare"])
            .unwrap_err()
            .contains("--compare"));
        // Faults on a real socket require the explicit wrap opt-in...
        assert!(parse(&["sync", "a", "--remote", "h:1", "--fault-profile", "lossy"])
            .unwrap_err()
            .contains("--fault-wrap"));
        // ...and with it, the combination parses.
        let cli =
            parse(&["sync", "a", "--remote", "h:1", "--fault-profile", "lossy", "--fault-wrap"])
                .unwrap();
        match cli.command {
            Command::Sync { fault_profile, fault_wrap, .. } => {
                assert_eq!(fault_profile.as_deref(), Some("lossy"));
                assert!(fault_wrap);
            }
            other => panic!("wrong command {other:?}"),
        }
        // --fault-wrap alone wraps nothing.
        assert!(parse(&["sync", "a", "--remote", "h:1", "--fault-wrap"])
            .unwrap_err()
            .contains("--fault-profile"));
        // Local syncs have no socket to wrap.
        assert!(parse(&["sync", "a", "b", "--fault-wrap", "--fault-profile", "lossy"])
            .unwrap_err()
            .contains("--remote"));
    }

    #[test]
    fn sync_fault_flags() {
        let cli =
            parse(&["sync", "a", "b", "--fault-profile", "lossy", "--fault-seed", "42"]).unwrap();
        match cli.command {
            Command::Sync { fault_profile, fault_seed, .. } => {
                assert_eq!(fault_profile.as_deref(), Some("lossy"));
                assert_eq!(fault_seed, 42);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&["sync", "a", "b", "--fault-seed", "x"]).is_err());
        assert!(parse(&["inspect", "a", "b", "--fault-profile", "lossy"]).is_err());
    }

    #[test]
    fn inspect_rejects_sync_only_flags() {
        assert!(parse(&["inspect", "a", "b", "--compare"]).is_err());
    }

    #[test]
    fn chunks_validation() {
        assert!(parse(&["chunks", "f", "--avg", "1000"]).is_err()); // not pow2
        assert!(parse(&["chunks", "f", "--avg", "32"]).is_err()); // too small
        let cli = parse(&["chunks", "f", "--avg", "4096"]).unwrap();
        assert_eq!(cli.command, Command::Chunks { file: PathBuf::from("f"), avg: 4096 });
    }

    #[test]
    fn missing_args_reported() {
        assert!(parse(&["sync"]).unwrap_err().contains("OLD"));
        assert!(parse(&["sync", "a"]).unwrap_err().contains("NEW"));
        assert!(parse(&["bogus"]).unwrap_err().contains("unknown subcommand"));
        assert!(parse(&[]).is_ok()); // → help
    }

    #[test]
    fn presets_resolve() {
        assert!(preset_config("default").is_ok());
        assert!(preset_config("basic").is_ok());
        let r = preset_config("restricted:3").unwrap();
        assert_eq!(r.global_levels(), 3);
        assert!(preset_config("nope").is_err());
        assert!(preset_config("restricted:x").is_err());
    }
}
