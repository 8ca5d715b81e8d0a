//! CPU time and peak memory of this process, from Linux procfs.

/// Kernel clock ticks per second in `/proc/<pid>/stat`. Linux reports
/// these fields in `USER_HZ`, which is 100 on every supported platform.
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may hold spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in KiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// User plus system CPU seconds this process (all threads) has used.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    let ticks = parse_stat_cpu_ticks(&stat).ok_or("/proc/self/stat: cannot find utime/stime")?;
    Ok(ticks as f64 / TICKS_PER_SECOND)
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib = parse_vm_hwm_kib(&status).ok_or("/proc/self/status: cannot find VmHWM")?;
    Ok(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_a_hostile_command_name() {
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 120 0 0 0 \
                    371 29 0 0 20 0 3 0 12345 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(400));
        assert_eq!(parse_stat_cpu_ticks("no parenthesis"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2 3"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tbench\nVmPeak:\t  900 kB\nVmHWM:\t   14336 kB\nVmRSS:\t  100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(14336));
        assert_eq!(parse_vm_hwm_kib("Name:\tbench\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn this_process_has_cpu_time_and_memory() {
        assert!(cpu_seconds().expect("procfs") >= 0.0);
        assert!(peak_rss_mib().expect("procfs") > 0.0);
    }
}
