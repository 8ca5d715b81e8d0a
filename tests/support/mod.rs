//! Helpers shared by the root integration tests (`mod support;` in
//! each): the loopback daemon tests' corpus and config, and the memory
//! and CPU readings the ceiling gates take.

// Each test binary compiles its own copy and uses only some helpers.
#![allow(dead_code)]

use msync::core::{FileEntry, ProtocolConfig};
use msync::corpus::{web_collection, WebParams};

/// A two-day web corpus: the daemon serves day 1, the client holds
/// day 0. At least 100 files, so a depth-1 sync spans many observable
/// roundtrips and a pipelined one shows its schedule difference.
pub(crate) fn corpus() -> (Vec<FileEntry>, Vec<FileEntry>) {
    let params = WebParams {
        pages: 120,
        median_size: 1_500,
        daily_change_prob: 0.35,
        rewrite_prob: 0.05,
        seed: 0x10_0b_ac_c5,
    };
    let versioned = web_collection(&params, 1);
    let (day0, day1) = versioned.pair(0, 1);
    let to_entries = |c: &msync::corpus::Collection| {
        c.files().iter().map(|f| FileEntry::new(f.name.clone(), f.data.clone())).collect()
    };
    (to_entries(day0), to_entries(day1))
}

/// Small blocks keep per-file rounds cheap on a 1.5 KB median corpus.
pub(crate) fn small_cfg() -> ProtocolConfig {
    ProtocolConfig { start_block: 1024, ..ProtocolConfig::default() }
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// /proc/self/status). Returns 0 where procfs is unavailable, which
/// trivially passes any ceiling — the gates are meaningful on the Linux
/// CI boxes they run on.
pub(crate) fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// CPU time this process's live threads have used: the run time, in
/// nanoseconds, of every `/proc/self/task/*/schedstat`, summed. A thread
/// that exits takes its time with it, so subtract two readings with
/// `saturating_sub`; the difference covers the threads alive at both.
/// Returns zero where procfs is unavailable, which trivially passes any
/// ceiling.
pub(crate) fn process_cpu_time() -> std::time::Duration {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return std::time::Duration::ZERO;
    };
    let run_ns: u64 = tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok())
        .filter_map(|stat| stat.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    std::time::Duration::from_nanos(run_ns)
}
