//! Command implementations. Everything returns its report as a `String`
//! so the logic is unit-testable without capturing stdout.

use crate::args::{preset_config, Cli, Command, ConfigSource, USAGE};
use msync_core::{
    atomic_write_file, sync_collection_on_link, sync_collection_traced, sync_file, AtomicApplier,
    FileEntry, ProtocolConfig, WINDOW_BUDGET_BYTES,
};
use msync_corpus::fsload::load_dir;
use msync_corpus::Collection;
use msync_protocol::LinkModel;
use msync_trace::{render_chrome_trace, render_journal, Recorder};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Run a parsed invocation; returns the text to print.
pub fn run(cli: &Cli) -> Result<String, String> {
    match &cli.command {
        Command::Help => Ok(USAGE.to_string()),
        Command::Params { preset } => {
            let cfg = preset_config(preset)?;
            Ok(msync_core::params::render(&cfg))
        }
        Command::Chunks { file, avg } => chunks(file, *avg),
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
            collection,
        } => match (new, remote) {
            (_, Some(addr)) => {
                let faults = if *fault_wrap { fault_profile.as_deref() } else { None };
                remote_sync_cmd(
                    old,
                    addr,
                    config,
                    *pipeline_depth,
                    faults,
                    *fault_seed,
                    write.as_deref(),
                    trace_out.as_deref(),
                    collection.as_deref(),
                )
            }
            (Some(new), None) => match fault_profile {
                Some(profile) => {
                    faulty_sync_cmd(old, new, config, profile, *fault_seed, trace_out.as_deref())
                }
                None => {
                    sync_cmd(old, new, config, *compare, write.as_deref(), trace_out.as_deref())
                }
            },
            // parse_args guarantees one of the two is present.
            (None, None) => Err("missing <NEW> path (or --remote ADDR)".into()),
        },
        Command::Serve {
            root,
            listen,
            metrics_out,
            workers,
            max_sessions,
            collections,
            registry_dir,
            slow_session_ms,
        } => serve_cmd(
            root.as_deref(),
            listen,
            metrics_out.as_deref(),
            *workers,
            *max_sessions,
            collections,
            registry_dir.as_deref(),
            *slow_session_ms,
        ),
        Command::Reload { name, remote } => reload_cmd(name, remote),
        Command::Stats { remote, json } => stats_cmd(remote, *json),
        Command::Top { remote, interval_ms } => top_cmd(remote, *interval_ms),
        Command::TraceExport { input, output } => trace_export_cmd(input, output.as_deref()),
        Command::Inspect { old, new, config } => inspect(old, new, config),
    }
}

/// `msync reload NAME --remote ADDR`: ask the daemon to re-read one
/// collection's source tree and swap it in atomically.
fn reload_cmd(name: &str, remote: &str) -> Result<String, String> {
    let timeout = std::time::Duration::from_secs(10);
    let nfiles = msync_net::admin_reload(remote, name, timeout)
        .map_err(|e| format!("reload failed: {e}"))?;
    Ok(format!("reloaded collection `{name}` on {remote}: {nfiles} files\n"))
}

/// `msync stats --remote ADDR`: one scrape of the daemon's metrics
/// exposition, printed verbatim.
fn stats_cmd(remote: &str, json: bool) -> Result<String, String> {
    let timeout = std::time::Duration::from_secs(10);
    msync_net::admin_stats(remote, json, timeout).map_err(|e| format!("stats failed: {e}"))
}

/// One `msync top` frame. Pure so the layout is unit-testable; the
/// live loop only adds the fetch and the screen clear.
fn render_top(remote: &str, sessions: &str, health: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "msync top — {remote}");
    let _ = writeln!(out, "\nsessions:");
    if sessions.trim().is_empty() {
        let _ = writeln!(out, "  (none in flight)");
    } else {
        for line in sessions.lines() {
            let _ = writeln!(out, "  {line}");
        }
    }
    let _ = writeln!(out, "\nhealth:");
    for line in health.lines() {
        let _ = writeln!(out, "  {line}");
    }
    out
}

/// One refresh against a live daemon: the `sessions` and `health`
/// admin verbs, rendered as a `top` frame.
fn fetch_top(remote: &str) -> Result<String, String> {
    let timeout = std::time::Duration::from_secs(10);
    let sessions =
        msync_net::admin_sessions(remote, timeout).map_err(|e| format!("top failed: {e}"))?;
    let health =
        msync_net::admin_health(remote, timeout).map_err(|e| format!("top failed: {e}"))?;
    Ok(render_top(remote, &sessions, &health))
}

/// `msync top --remote ADDR`: refresh the live view until interrupted
/// (ctrl-c) or the daemon goes away.
fn top_cmd(remote: &str, interval_ms: u64) -> Result<String, String> {
    loop {
        let frame = fetch_top(remote)?;
        // Home + clear-to-end keeps refreshes from scrolling the
        // terminal while leaving scrollback alone.
        print!("\x1b[H\x1b[J{frame}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// `msync trace-export`: re-render a JSONL trace journal as Chrome
/// `trace_event` JSON (chrome://tracing, Perfetto).
fn trace_export_cmd(input: &Path, output: Option<&Path>) -> Result<String, String> {
    let journal =
        fs::read_to_string(input).map_err(|e| format!("cannot read {}: {e}", input.display()))?;
    let trace = render_chrome_trace(&journal).map_err(|e| format!("{}: {e}", input.display()))?;
    match output {
        Some(path) => {
            atomic_write_file(path, trace.as_bytes())?;
            // The array renders one span per line between `[` and `]`.
            let spans = trace.lines().count().saturating_sub(2);
            Ok(format!("chrome trace: {spans} span(s) → {}\n", path.display()))
        }
        None => Ok(trace),
    }
}

/// Load one directory into registry-ready entries.
fn load_collection_dir(dir: &Path) -> Result<Vec<FileEntry>, String> {
    if !dir.is_dir() {
        return Err(format!("{} is not a directory", dir.display()));
    }
    let col = load_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    Ok(entries(&col))
}

/// Build the daemon's collection registry from the three CLI sources:
/// a bare ROOT (the default collection), repeated `--collection
/// name=path` flags, and a `--registry-dir` whose immediate
/// subdirectories each become a collection named after the
/// subdirectory. Name collisions across sources are typed
/// [`msync_net::RegistryError`]s, and every entry remembers its source
/// directory so the `reload` admin verb can re-read it.
fn build_registry(
    root: Option<&Path>,
    collections: &[(String, std::path::PathBuf)],
    registry_dir: Option<&Path>,
) -> Result<msync_net::CollectionRegistry, String> {
    let mut builder = msync_net::RegistryBuilder::new();
    builder.loader(load_collection_dir);
    if let Some(root) = root {
        let files = load_collection_dir(root)?;
        builder
            .add(msync_net::DEFAULT_COLLECTION, files, Some(root.to_path_buf()))
            .map_err(|e| e.to_string())?;
    }
    for (name, path) in collections {
        let files = load_collection_dir(path)?;
        builder.add(name, files, Some(path.clone())).map_err(|e| e.to_string())?;
    }
    if let Some(dir) = registry_dir {
        if !dir.is_dir() {
            return Err(format!("{} is not a directory", dir.display()));
        }
        let mut subdirs: Vec<std::path::PathBuf> = fs::read_dir(dir)
            .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|p| p.is_dir())
            .collect();
        subdirs.sort();
        for sub in subdirs {
            let Some(name) = sub.file_name().and_then(|n| n.to_str()) else {
                return Err(format!("{}: subdirectory name is not UTF-8", sub.display()));
            };
            let files = load_collection_dir(&sub)?;
            builder.add(name, files, Some(sub.clone())).map_err(|e| e.to_string())?;
        }
    }
    Ok(builder.build())
}

/// `serve`: load every collection once, then serve them to every
/// connection until killed. Never returns on success.
#[allow(clippy::too_many_arguments)]
fn serve_cmd(
    root: Option<&Path>,
    listen: &str,
    metrics_out: Option<&Path>,
    workers: usize,
    max_sessions: Option<usize>,
    collections: &[(String, std::path::PathBuf)],
    registry_dir: Option<&Path>,
    slow_session_ms: Option<u64>,
) -> Result<String, String> {
    let registry = std::sync::Arc::new(build_registry(root, collections, registry_dir)?);
    let mut summary = String::new();
    for name in registry.names() {
        let snap = registry.snapshot(name).expect("listed name resolves");
        let bytes: u64 = snap.files().iter().map(|f| f.data.len() as u64).sum();
        let _ = writeln!(
            summary,
            "serving collection {name}{}: {} file(s), {}",
            if name == registry.default_name() { " (default)" } else { "" },
            snap.files().len(),
            human(bytes)
        );
    }
    let opts = msync_net::DaemonOptions {
        metrics_out: metrics_out.map(Path::to_path_buf),
        workers,
        max_sessions,
        slow_session: slow_session_ms.map(std::time::Duration::from_millis),
        ..Default::default()
    };
    let daemon = msync_net::Daemon::spawn_registry(
        listen,
        registry,
        opts,
        |report: msync_net::daemon::SessionReport| {
            let peer =
                report.peer.map_or_else(|| "<unknown peer>".to_string(), |addr| addr.to_string());
            let coll = report.collection.as_deref().unwrap_or("-");
            match report.result {
                Ok(outcome) => println!(
                    "session {peer} [{coll}]: {} of {} file(s) engaged, {}",
                    outcome.sessions, outcome.files, outcome.traffic,
                ),
                Err(e) => println!("session {peer} [{coll}]: failed: {e}"),
            }
        },
    )
    .map_err(|e| format!("cannot listen on {listen}: {e}"))?;
    print!("{summary}");
    if let Some(path) = metrics_out {
        println!("metrics → {} (rewritten after every session)", path.display());
    }
    if let Some(ms) = slow_session_ms {
        println!("slow-session watchdog armed at {ms} ms per protocol phase");
    }
    println!("listening on {} (ctrl-c to stop)", daemon.local_addr());
    daemon.wait();
    Ok(String::new())
}

/// A live recorder when `--trace-out` was given, otherwise off (so the
/// untraced path pays nothing).
fn trace_recorder(trace_out: Option<&Path>) -> Recorder {
    if trace_out.is_some() {
        Recorder::system()
    } else {
        Recorder::off()
    }
}

/// Drain a recorder into its JSONL journal file, if one was requested.
fn write_journal(
    report: &mut String,
    recorder: &Recorder,
    path: Option<&Path>,
) -> Result<(), String> {
    let Some(path) = path else { return Ok(()) };
    let events = recorder.drain_events();
    let dropped = recorder.snapshot().events_dropped;
    atomic_write_file(path, render_journal(&events).as_bytes())?;
    let _ = writeln!(report, "trace journal: {} event(s) → {}", events.len(), path.display());
    if dropped > 0 {
        let _ = writeln!(
            report,
            "warning: trace ring dropped {dropped} event(s); the journal is incomplete"
        );
    }
    Ok(())
}

/// `sync --remote`: pipelined collection sync against a live daemon.
#[allow(clippy::too_many_arguments)]
fn remote_sync_cmd(
    old: &Path,
    addr: &str,
    config: &ConfigSource,
    pipeline_depth: Option<usize>,
    fault_profile: Option<&str>,
    fault_seed: u64,
    write: Option<&Path>,
    trace_out: Option<&Path>,
    collection: Option<&str>,
) -> Result<String, String> {
    let cfg = load_config(config)?;
    // Every completed file is applied atomically the moment it
    // completes, after sweeping the temp files a crashed run left (before
    // OLD is read, which may be the same tree). A file the roster found
    // unchanged is already in place when --write is OLD.
    let applier = write.map(AtomicApplier::new);
    let orphans = applier.as_ref().map_or(Ok(0), AtomicApplier::clean_orphans)?;
    let in_place = write.is_some_and(|dir| same_dir(dir, old));
    let old_entries: Vec<FileEntry> = if old.exists() {
        if !old.is_dir() {
            return Err("--remote syncs directories; OLD must be a directory".into());
        }
        entries(&load_dir(old).map_err(|e| format!("cannot read {}: {e}", old.display()))?)
    } else {
        // A missing OLD is an empty mirror: everything transfers.
        Vec::new()
    };

    let recorder = trace_recorder(trace_out);
    let mut opts = msync_net::RemoteOptions { cfg, ..Default::default() };
    if let Some(depth) = pipeline_depth {
        opts.pipeline.depth = depth;
    }
    opts.recorder = recorder.clone();
    opts.collection = collection.map(str::to_owned);
    if let Some(profile) = fault_profile {
        let plan = msync_protocol::FaultPlan::profile(profile).ok_or_else(|| {
            format!(
                "unknown fault profile `{profile}` (try: {})",
                msync_protocol::fault::PROFILE_NAMES.join(", ")
            )
        })?;
        opts.fault_wrap = Some((plan, fault_seed));
    }

    let mut report = String::new();
    let mut applied = 0usize;
    let got = msync_net::sync_remote_with(addr, &old_entries, &opts, &mut |f| match &applier {
        Some(applier) if !(f.unchanged && in_place) => {
            applied += 1;
            applier.apply(&f.name, &f.data).map(drop)
        }
        _ => Ok(()),
    })
    .map_err(|e| e.to_string())?;
    let out = &got.outcome;
    let t = &out.traffic;
    let raw: u64 = out.files.iter().map(|f| f.data.len() as u64).sum();

    let window = pipeline_depth.map_or("all files".to_owned(), |depth| format!("{depth} file(s)"));
    let _ = writeln!(
        report,
        "synchronized {} file(s), {} total, against {addr} (pipeline window: {window} within {} MiB)",
        out.files.len(),
        human(raw),
        WINDOW_BUDGET_BYTES >> 20,
    );
    let changed = out.files.len().saturating_sub(out.unchanged + out.created);
    let _ = writeln!(
        report,
        "  unchanged {} · changed {} · created {} · deleted {}",
        out.unchanged, changed, out.created, out.deleted
    );
    let _ = writeln!(
        report,
        "wire: {} total ({:.2}% of raw), {} roundtrips, {} retransmitted frame(s)",
        human(t.total_bytes()),
        100.0 * t.total_bytes() as f64 / raw.max(1) as f64,
        t.roundtrips,
        t.retransmits,
    );
    let _ = writeln!(
        report,
        "socket: {} sent + {} received = {} ({} accounted)",
        human(got.socket_sent),
        human(got.socket_received),
        human(got.socket_sent + got.socket_received),
        human(t.total_bytes()),
    );
    let _ = writeln!(report, "estimated transfer time:");
    for (name, link) in [
        ("dial-up", LinkModel::dialup()),
        ("dsl    ", LinkModel::dsl()),
        ("cable  ", LinkModel::cable()),
    ] {
        let _ = writeln!(report, "  {name}  {:.1?}", link.estimate(t));
    }

    if let Some(dir) = write {
        let _ = writeln!(
            report,
            "\nwrote {applied} file(s) under {}{}",
            dir.display(),
            if orphans > 0 {
                format!(" ({orphans} orphaned temp file(s) removed)")
            } else {
                String::new()
            },
        );
    }
    write_journal(&mut report, &recorder, trace_out)?;
    Ok(report)
}

/// Whether `a` and `b` name the same existing directory.
fn same_dir(a: &Path, b: &Path) -> bool {
    matches!((fs::canonicalize(a), fs::canonicalize(b)), (Ok(a), Ok(b)) if a == b)
}

fn load_config(source: &ConfigSource) -> Result<ProtocolConfig, String> {
    match source {
        ConfigSource::Preset(name) => preset_config(name),
        ConfigSource::File(path) => {
            let text = fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            msync_core::params::parse(&text)
        }
    }
}

/// Load OLD/NEW as collections: both files or both directories.
fn load_pair(old: &Path, new: &Path) -> Result<(Collection, Collection), String> {
    let err = |p: &Path, e: std::io::Error| format!("cannot read {}: {e}", p.display());
    let old_is_dir = old.is_dir();
    let new_is_dir = new.is_dir();
    if old_is_dir != new_is_dir {
        return Err("OLD and NEW must both be files or both be directories".into());
    }
    if old_is_dir {
        Ok((load_dir(old).map_err(|e| err(old, e))?, load_dir(new).map_err(|e| err(new, e))?))
    } else {
        let mut a = Collection::new();
        a.push("file", fs::read(old).map_err(|e| err(old, e))?);
        let mut b = Collection::new();
        b.push("file", fs::read(new).map_err(|e| err(new, e))?);
        Ok((a, b))
    }
}

fn entries(c: &Collection) -> Vec<FileEntry> {
    c.files().iter().map(|f| FileEntry::new(f.name.clone(), f.data.clone())).collect()
}

fn human(bytes: u64) -> String {
    if bytes < 4 * 1024 {
        format!("{bytes} B")
    } else if bytes < 4 * 1024 * 1024 {
        format!("{:.1} KiB", bytes as f64 / 1024.0)
    } else {
        format!("{:.1} MiB", bytes as f64 / (1024.0 * 1024.0))
    }
}

fn sync_cmd(
    old: &Path,
    new: &Path,
    config: &ConfigSource,
    compare: bool,
    write: Option<&Path>,
    trace_out: Option<&Path>,
) -> Result<String, String> {
    let cfg = load_config(config)?;
    let (old_col, new_col) = load_pair(old, new)?;
    let recorder = trace_recorder(trace_out);
    let out = sync_collection_traced(&entries(&old_col), &entries(&new_col), &cfg, &recorder)
        .map_err(|e| e.to_string())?;

    let mut report = String::new();
    let raw = new_col.total_bytes();
    let t = &out.traffic;
    let _ = writeln!(report, "synchronized {} file(s), {} total", out.files.len(), human(raw));
    let changed = out.files.len().saturating_sub(out.unchanged + out.created);
    let _ = writeln!(
        report,
        "  unchanged {} · changed {} · created {} · deleted {}",
        out.unchanged, changed, out.created, out.deleted
    );
    let _ = writeln!(
        report,
        "wire: {} total ({:.2}% of raw), {} roundtrips",
        human(t.total_bytes()),
        100.0 * t.total_bytes() as f64 / raw.max(1) as f64,
        t.roundtrips
    );
    report.push_str(&t.render_table());
    let _ = writeln!(report, "estimated transfer time:");
    for (name, link) in [
        ("dial-up", LinkModel::dialup()),
        ("dsl    ", LinkModel::dsl()),
        ("cable  ", LinkModel::cable()),
    ] {
        let _ = writeln!(report, "  {name}  {:.1?}", link.estimate(t));
    }

    if compare {
        let _ = writeln!(report, "\nbaselines:");
        let mut rsync_total = 0u64;
        let mut cdc_total = 0u64;
        let mut zdelta_total = 0u64;
        for nf in new_col.files() {
            let old_data = old_col.get(&nf.name).map(|f| f.data.clone()).unwrap_or_default();
            rsync_total += msync_rsync::sync(&old_data, &nf.data, msync_rsync::DEFAULT_BLOCK_SIZE)
                .stats
                .total_bytes();
            cdc_total += msync_cdc::sync(&old_data, &nf.data, &msync_cdc::ChunkParams::default())
                .stats
                .total_bytes();
            if old_data != nf.data {
                zdelta_total += msync_compress::delta_encode(&old_data, &nf.data).len() as u64 + 17;
            } else {
                zdelta_total += 17;
            }
        }
        let _ = writeln!(report, "  rsync (700B)     {}", human(rsync_total));
        let _ = writeln!(report, "  cdc (lbfs-style) {}", human(cdc_total));
        let _ = writeln!(report, "  zdelta (bound)   {}", human(zdelta_total));
        let _ = writeln!(report, "  msync            {}", human(t.total_bytes()));
    }

    if let Some(dir) = write {
        let applier = AtomicApplier::new(dir);
        for f in &out.files {
            applier.apply(&f.name, &f.data)?;
        }
        let _ = writeln!(report, "\nwrote {} file(s) under {}", out.files.len(), dir.display());
    }
    write_journal(&mut report, &recorder, trace_out)?;
    Ok(report)
}

/// `sync --fault-profile`: run the pair as one collection session over
/// a deterministically faulty in-process link, on a virtual clock, and
/// report what the recovery machinery did — the operational view of the
/// soak tests.
fn faulty_sync_cmd(
    old: &Path,
    new: &Path,
    config: &ConfigSource,
    profile: &str,
    seed: u64,
    trace_out: Option<&Path>,
) -> Result<String, String> {
    let cfg = load_config(config)?;
    let plan = msync_protocol::FaultPlan::profile(profile).ok_or_else(|| {
        format!(
            "unknown fault profile `{profile}` (try: {})",
            msync_protocol::fault::PROFILE_NAMES.join(", ")
        )
    })?;
    let (old_col, new_col) = load_pair(old, new)?;

    let mut report = String::new();
    let _ = writeln!(report, "fault profile `{profile}`, seed {seed}:");
    let recorder = trace_recorder(trace_out);
    let opts = msync_core::ChannelOptions {
        fault_plan: Some(plan),
        fault_seed: seed,
        ..Default::default()
    };
    let synced =
        sync_collection_on_link(&entries(&old_col), &entries(&new_col), &cfg, &opts, &recorder);
    let (failed, fell_back, traffic) = match synced {
        Ok(out) => {
            let wrong =
                |f: &&FileEntry| new_col.get(&f.name).is_none_or(|want| want.data != f.data);
            (out.files.iter().filter(wrong).count(), out.fell_back, out.traffic)
        }
        Err(e) => {
            let _ = writeln!(report, "  FAILED: {e}");
            (new_col.len(), 0, msync_protocol::TrafficStats::new())
        }
    };
    let _ = writeln!(
        report,
        "{} file(s): {failed} failed, {fell_back} fell back; {} on the wire, {} roundtrips, \
         {} retransmitted frame(s)",
        new_col.len(),
        human(traffic.total_bytes()),
        traffic.roundtrips,
        traffic.retransmits,
    );
    write_journal(&mut report, &recorder, trace_out)?;
    Ok(report)
}

fn inspect(old: &Path, new: &Path, config: &ConfigSource) -> Result<String, String> {
    let cfg = load_config(config)?;
    let (old_col, new_col) = load_pair(old, new)?;
    if old_col.len() != 1 || new_col.len() != 1 {
        return Err("inspect works on single files, not directories".into());
    }
    let out = sync_file(&old_col.files()[0].data, &new_col.files()[0].data, &cfg)
        .map_err(|e| e.to_string())?;

    let mut report = String::new();
    let stats = &out.stats;
    let _ = writeln!(
        report,
        "{} → {} : {} on the wire, {} roundtrips{}",
        human(old_col.total_bytes()),
        human(new_col.total_bytes()),
        human(stats.total_bytes()),
        stats.traffic.roundtrips,
        if out.fell_back { " (FELL BACK to full transfer)" } else { "" },
    );
    let _ = writeln!(
        report,
        "map covered {} of {} bytes; final delta {}",
        stats.known_bytes,
        new_col.total_bytes(),
        human(stats.delta_bytes)
    );
    let _ = writeln!(
        report,
        "\n{:>9}  {:>5} {:>5} {:>5} {:>5} {:>5} {:>8}",
        "block", "items", "cont", "suppr", "cand", "conf", "harvest"
    );
    for l in &stats.levels {
        let _ = writeln!(
            report,
            "{:>9}  {:>5} {:>5} {:>5} {:>5} {:>5} {:>7.1}%",
            l.block_size,
            l.items,
            l.cont_items,
            l.suppressed,
            l.candidates,
            l.confirmed,
            100.0 * l.harvest_rate(),
        );
    }
    Ok(report)
}

fn chunks(file: &Path, avg: usize) -> Result<String, String> {
    let data = fs::read(file).map_err(|e| format!("cannot read {}: {e}", file.display()))?;
    let params =
        msync_cdc::ChunkParams { avg_size: avg, min_size: (avg / 8).max(64), max_size: avg * 8 };
    let chunks = msync_cdc::chunk(&data, &params);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "{}: {} bytes in {} chunk(s), average {}",
        file.display(),
        data.len(),
        chunks.len(),
        human(if chunks.is_empty() { 0 } else { (data.len() / chunks.len()) as u64 })
    );
    for (i, c) in chunks.iter().enumerate() {
        let digest = msync_hash::Md5::digest(&data[c.offset..c.offset + c.len]);
        let hex: String = digest[..8].iter().map(|b| format!("{b:02x}")).collect();
        let _ = writeln!(report, "  #{i:<4} offset {:>9}  len {:>7}  {hex}", c.offset, c.len);
        if i >= 63 && chunks.len() > 65 {
            let _ = writeln!(report, "  … {} more chunks", chunks.len() - i - 1);
            break;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("msync-cli-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn run_words(words: &[&str]) -> Result<String, String> {
        let v: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        run(&parse_args(&v)?)
    }

    #[test]
    fn sync_files_end_to_end() {
        let d = tmpdir("sync");
        let old = d.join("old.txt");
        let new = d.join("new.txt");
        fs::write(&old, b"hello world ".repeat(2000)).unwrap();
        fs::write(
            &new,
            b"hello world ".repeat(2000).iter().chain(b"tail").copied().collect::<Vec<u8>>(),
        )
        .unwrap();
        let report =
            run_words(&["sync", old.to_str().unwrap(), new.to_str().unwrap(), "--compare"])
                .unwrap();
        assert!(report.contains("synchronized 1 file(s)"));
        assert!(report.contains("baselines:"));
        assert!(report.contains("rsync (700B)"));
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn sync_directories_with_write() {
        let d = tmpdir("dirs");
        let old_dir = d.join("v1");
        let new_dir = d.join("v2");
        let out_dir = d.join("out");
        fs::create_dir_all(old_dir.join("sub")).unwrap();
        fs::create_dir_all(new_dir.join("sub")).unwrap();
        fs::write(old_dir.join("a.txt"), b"alpha version one").unwrap();
        fs::write(new_dir.join("a.txt"), b"alpha version two").unwrap();
        fs::write(new_dir.join("sub/b.txt"), b"brand new").unwrap();
        let report = run_words(&[
            "sync",
            old_dir.to_str().unwrap(),
            new_dir.to_str().unwrap(),
            "--write",
            out_dir.to_str().unwrap(),
        ])
        .unwrap();
        assert!(report.contains("synchronized 2 file(s)"), "{report}");
        assert_eq!(fs::read(out_dir.join("a.txt")).unwrap(), b"alpha version two");
        assert_eq!(fs::read(out_dir.join("sub/b.txt")).unwrap(), b"brand new");
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn inspect_prints_rounds() {
        let d = tmpdir("inspect");
        let old = d.join("o");
        let new = d.join("n");
        fs::write(&old, b"abcdefgh".repeat(4000)).unwrap();
        let mut edited = b"abcdefgh".repeat(4000);
        edited[9000] = b'X';
        fs::write(&new, edited).unwrap();
        let report = run_words(&["inspect", old.to_str().unwrap(), new.to_str().unwrap()]).unwrap();
        assert!(report.contains("harvest"), "{report}");
        assert!(report.contains("32768"), "{report}");
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn chunks_lists_chunks() {
        let d = tmpdir("chunks");
        let f = d.join("data.bin");
        let data: Vec<u8> =
            (0..40_000u32).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect();
        fs::write(&f, &data).unwrap();
        let report = run_words(&["chunks", f.to_str().unwrap(), "--avg", "1024"]).unwrap();
        assert!(report.contains("chunk(s)"));
        assert!(report.contains("#0"));
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn params_roundtrip_through_config_file() {
        let d = tmpdir("params");
        let text = run_words(&["params", "--preset", "basic"]).unwrap();
        let cfg_file = d.join("msync.conf");
        fs::write(&cfg_file, &text).unwrap();
        // Use the emitted file as --config for a sync.
        let old = d.join("o");
        let new = d.join("n");
        fs::write(&old, b"text ".repeat(1000)).unwrap();
        fs::write(&new, b"text ".repeat(1001)).unwrap();
        let report = run_words(&[
            "sync",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            "--config",
            cfg_file.to_str().unwrap(),
        ])
        .unwrap();
        assert!(report.contains("wire:"));
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn sync_over_faulty_channel_reports_recovery() {
        let d = tmpdir("fault");
        let old = d.join("old.txt");
        let new = d.join("new.txt");
        fs::write(&old, b"payload ".repeat(3000)).unwrap();
        fs::write(
            &new,
            b"payload ".repeat(3000).iter().chain(b"suffix").copied().collect::<Vec<u8>>(),
        )
        .unwrap();
        let report = run_words(&[
            "sync",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            "--fault-profile",
            "lossy",
            "--fault-seed",
            "7",
        ])
        .unwrap();
        assert!(report.contains("fault profile `lossy`, seed 7"), "{report}");
        assert!(report.contains("retransmitted frame(s)"), "{report}");
        assert!(report.contains("0 failed"), "{report}");
        assert!(!report.contains("MISMATCH"), "{report}");
        // Unknown profiles are a parse-time error with the menu.
        let err = run_words(&[
            "sync",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            "--fault-profile",
            "gremlins",
        ])
        .unwrap_err();
        assert!(err.contains("unknown fault profile"), "{err}");
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn in_place_remote_write_leaves_unchanged_files_alone() {
        let d = tmpdir("inplace");
        let server_dir = d.join("srv");
        let mirror = d.join("mirror");
        let copy = d.join("copy");
        fs::create_dir_all(&server_dir).unwrap();
        fs::create_dir_all(&mirror).unwrap();
        fs::write(server_dir.join("a.txt"), b"alpha server body ".repeat(200)).unwrap();
        fs::write(server_dir.join("b.txt"), b"beta server body ".repeat(300)).unwrap();
        fs::write(mirror.join("a.txt"), b"alpha server body ".repeat(200)).unwrap();
        fs::write(mirror.join("b.txt"), b"beta stale body ".repeat(300)).unwrap();
        // A stale temp file from a crashed earlier apply.
        fs::write(mirror.join("a.txt.msync-tmp"), b"torn").unwrap();
        // An mtime no rewrite could leave behind.
        let stamp = std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1 << 30);
        fs::File::options()
            .write(true)
            .open(mirror.join("a.txt"))
            .unwrap()
            .set_modified(stamp)
            .unwrap();

        let files = entries(&load_dir(&server_dir).unwrap());
        let daemon = msync_net::Daemon::spawn(
            "127.0.0.1:0",
            files,
            msync_net::DaemonOptions::default(),
            |_| {},
        )
        .unwrap();
        let addr = daemon.local_addr().to_string();
        let sync_into = |dir: &Path| {
            let words = ["sync", mirror.to_str().unwrap(), "--remote", &addr, "--write"];
            let mut words = words.to_vec();
            words.push(dir.to_str().unwrap());
            run_words(&words).unwrap()
        };

        // In place: only the changed file is written, the orphan swept.
        let report = sync_into(&mirror);
        assert!(report.contains("unchanged 1 · changed 1"), "{report}");
        assert!(report.contains("wrote 1 file(s)"), "{report}");
        assert!(report.contains("1 orphaned temp file(s) removed"), "{report}");
        assert!(!mirror.join("a.txt.msync-tmp").exists());
        assert_eq!(fs::read(mirror.join("b.txt")).unwrap(), b"beta server body ".repeat(300));
        let mtime = fs::metadata(mirror.join("a.txt")).unwrap().modified().unwrap();
        assert_eq!(mtime, stamp, "the unchanged file was rewritten");

        // Now everything is unchanged: the rerun writes nothing in place,
        // and elsewhere it writes the whole tree.
        let report = sync_into(&mirror);
        assert!(report.contains("unchanged 2 · changed 0"), "{report}");
        assert!(report.contains("wrote 0 file(s)"), "{report}");
        let report = sync_into(&copy);
        assert!(report.contains("wrote 2 file(s)"), "{report}");
        assert_eq!(fs::read(copy.join("a.txt")).unwrap(), b"alpha server body ".repeat(200));
        daemon.shutdown();
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn error_paths() {
        assert!(run_words(&["sync", "/no/such/file", "/other/missing"]).is_err());
        assert!(run_words(&["params", "--preset", "bogus"]).is_err());
        let d = tmpdir("mixed");
        let f = d.join("f");
        fs::write(&f, b"x").unwrap();
        let e = run_words(&["sync", f.to_str().unwrap(), d.to_str().unwrap()]).unwrap_err();
        assert!(e.contains("both"), "{e}");
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn help_is_usage() {
        let report = run_words(&["help"]).unwrap();
        assert!(report.contains("USAGE"));
    }

    #[test]
    fn stats_and_top_scrape_a_live_daemon() {
        let files = vec![FileEntry::new("a.txt", b"served body ".repeat(100))];
        let daemon = msync_net::Daemon::spawn(
            "127.0.0.1:0",
            files,
            msync_net::DaemonOptions::default(),
            |_| {},
        )
        .unwrap();
        let addr = daemon.local_addr().to_string();

        let prom = run_words(&["stats", "--remote", &addr]).unwrap();
        assert!(prom.contains("# TYPE msync_"), "{prom}");
        assert!(prom.contains("msync_rate_bytes_per_sec"), "{prom}");
        let json = run_words(&["stats", "--remote", &addr, "--json"]).unwrap();
        assert!(json.trim_start().starts_with('{'), "{json}");

        let frame = fetch_top(&addr).unwrap();
        assert!(frame.contains(&format!("msync top — {addr}")), "{frame}");
        assert!(frame.contains("(none in flight)"), "{frame}");
        assert!(frame.contains("uptime_us="), "{frame}");
        assert!(frame.contains("workers="), "{frame}");
        daemon.shutdown();

        // A dead daemon is a typed failure, not a hang or a panic.
        assert!(run_words(&["stats", "--remote", &addr]).unwrap_err().contains("stats failed"));
    }

    #[test]
    fn render_top_formats_sessions_and_health() {
        let frame = render_top("h:1", "id=1 phase=map\nid=2 phase=delta\n", "uptime_us=5\n");
        assert!(frame.contains("msync top — h:1"), "{frame}");
        assert!(frame.contains("  id=1 phase=map"), "{frame}");
        assert!(frame.contains("  id=2 phase=delta"), "{frame}");
        assert!(frame.contains("  uptime_us=5"), "{frame}");
        assert!(render_top("h:1", "", "uptime_us=5\n").contains("(none in flight)"));
    }

    #[test]
    fn trace_export_renders_chrome_json() {
        let d = tmpdir("chrome");
        let old = d.join("old.txt");
        let new = d.join("new.txt");
        fs::write(&old, b"spanful body ".repeat(2000)).unwrap();
        fs::write(
            &new,
            b"spanful body ".repeat(2000).iter().chain(b"tail").copied().collect::<Vec<u8>>(),
        )
        .unwrap();
        let journal = d.join("run.jsonl");
        run_words(&[
            "sync",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            "--trace-out",
            journal.to_str().unwrap(),
        ])
        .unwrap();

        // Stdout mode returns the array itself.
        let text = run_words(&["trace-export", journal.to_str().unwrap()]).unwrap();
        assert!(text.starts_with("[\n") && text.ends_with("]\n"), "{text}");
        assert!(text.contains("\"ph\":\"X\""), "{text}");

        // --out writes the file and reports the span count.
        let out = d.join("run.trace.json");
        let report =
            run_words(&["trace-export", journal.to_str().unwrap(), "--out", out.to_str().unwrap()])
                .unwrap();
        assert!(report.contains("span(s)"), "{report}");
        assert_eq!(fs::read_to_string(&out).unwrap(), text);

        // A journal that is not a journal names the offending line.
        let bad = d.join("bad.jsonl");
        fs::write(&bad, "nonsense\n").unwrap();
        assert!(run_words(&["trace-export", bad.to_str().unwrap()]).is_err());
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn write_journal_warns_when_the_ring_dropped_events() {
        use msync_trace::{DirTag, EventKind, PhaseTag};
        let d = tmpdir("dropwarn");
        let rec = Recorder::system();
        // Overfill the ring so the tail falls off.
        for _ in 0..70_000 {
            rec.record(EventKind::FrameSend { dir: DirTag::C2s, phase: PhaseTag::Map, bytes: 1 });
        }
        let mut report = String::new();
        write_journal(&mut report, &rec, Some(&d.join("j.jsonl"))).unwrap();
        assert!(report.contains("dropped"), "{report}");
        assert!(report.contains("incomplete"), "{report}");
        fs::remove_dir_all(&d).unwrap();
    }
}
