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

/// CPU time this process has used, all threads: `utime + stime` from
/// /proc/self/stat, in clock ticks of `USER_HZ` (100 on Linux). Returns
/// zero where procfs is unavailable, which trivially passes any
/// ceiling.
pub(crate) fn process_cpu_time() -> std::time::Duration {
    const USER_HZ: u64 = 100;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return std::time::Duration::ZERO;
    };
    // Fields after the parenthesised command name, which may itself
    // hold spaces: state is field 3, utime 14 and stime 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return std::time::Duration::ZERO;
    };
    let ticks: u64 =
        rest.split_whitespace().skip(11).take(2).map(|f| f.parse::<u64>().unwrap_or(0)).sum();
    std::time::Duration::from_millis(ticks * 1000 / USER_HZ)
}
