//! Helpers shared by the root integration tests that gate a memory
//! ceiling (`mod support;` in each).

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
