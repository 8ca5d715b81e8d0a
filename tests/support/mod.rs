//! Helpers shared by the root integration tests that gate a memory or
//! CPU ceiling (`mod support;` in each).

// Each test binary compiles its own copy and uses only some helpers.
#![allow(dead_code)]

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
