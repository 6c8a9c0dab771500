//! Peak resident memory and host steal, read from Linux `/proc`.

use std::io;

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}

/// Host-wide CPU ticks `(steal, total)` from the aggregate line of
/// `/proc/stat`.
pub fn host_ticks() -> io::Result<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    parse_host_ticks(&stat).ok_or_else(|| io::Error::other("unparsable /proc/stat"))
}

fn parse_host_ticks(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user/nice.
    let total = ticks.iter().take(8).sum();
    Some((*ticks.get(7)?, total))
}

/// Share of host CPU time stolen by the hypervisor between two
/// [`host_ticks`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_a_share_of_all_host_ticks() {
        let before = parse_host_ticks("cpu  10 0 10 70 0 0 0 10 0 0\ncpu0 1 2").unwrap();
        assert_eq!(before, (10, 100));
        let after = parse_host_ticks("cpu  20 0 20 140 0 0 0 20 5 0\n").unwrap();
        assert_eq!(steal_share(before, after), 0.1);
    }
}
