//! Process resident-set probes.
//!
//! Linux-only (`/proc/self/status`); every probe returns `None` on
//! other platforms so callers can export an honest `null` instead of
//! a fake zero.

/// Peak resident set size of this process in KiB, or `None` when the
/// platform does not expose it. The kernel value is a process-wide
/// high-water mark: it never decreases, so per-cell readings in a
/// multi-cell run are "peak so far", not per-cell footprints.
pub fn peak_rss_kb() -> Option<u64> {
    parse_peak_kb(&read_status()?)
}

/// Current resident set size in KiB (`VmRSS`), or `None` when
/// unavailable.
pub fn current_rss_kb() -> Option<u64> {
    parse_status_kb(&read_status()?, "VmRSS:")
}

#[cfg(target_os = "linux")]
fn read_status() -> Option<String> {
    std::fs::read_to_string("/proc/self/status").ok()
}

#[cfg(not(target_os = "linux"))]
fn read_status() -> Option<String> {
    None
}

/// The peak from one status snapshot: `max(VmHWM, VmRSS)`. A peak can
/// never be below the current value, so the probe does not rely on
/// every kernel (or emulation layer) reporting a consistent pair.
fn parse_peak_kb(status: &str) -> Option<u64> {
    let hwm = parse_status_kb(status, "VmHWM:")?;
    Some(hwm.max(parse_status_kb(status, "VmRSS:").unwrap_or(0)))
}

/// Parses a `Vm*:   12345 kB` line out of `/proc/self/status` text.
fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_field() {
        let status = "Name:\tcargo\nVmRSS:\t  1234 kB\nVmHWM:\t  5678 kB\n";
        assert_eq!(parse_status_kb(status, "VmRSS:"), Some(1234));
        assert_eq!(parse_status_kb(status, "VmHWM:"), Some(5678));
        assert_eq!(parse_status_kb(status, "VmSwap:"), None);
    }

    #[test]
    fn peak_is_never_below_the_current_rss() {
        let lagging = "VmHWM:\t  1000 kB\nVmRSS:\t  1200 kB\n";
        assert_eq!(parse_peak_kb(lagging), Some(1200));
        let normal = "VmHWM:\t  5678 kB\nVmRSS:\t  1234 kB\n";
        assert_eq!(parse_peak_kb(normal), Some(5678));
        assert_eq!(parse_peak_kb("VmRSS:\t  1234 kB\n"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn linux_reports_positive_peak() {
        // Current first: a peak read afterwards can never be below it,
        // whereas a current value read after the peak also counts pages
        // touched in between (by this read, or by other test threads).
        let current = current_rss_kb().unwrap_or(0);
        let peak = peak_rss_kb().expect("VmHWM present on Linux");
        assert!(peak > 0);
        assert!(peak >= current);
    }
}
