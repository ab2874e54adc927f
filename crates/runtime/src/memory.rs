//! Process memory audit via `/proc/self/status`.
//!
//! Large pipeline runs are memory-bound long before they are CPU-bound
//! if sharding ever regresses to materializing the whole corpus'
//! prepared artifacts at once, so the kernel's own high-water mark
//! (`VmHWM`, peak resident set) and the current resident set (`VmRSS`)
//! are sampled here. The benchmark reports the high-water mark as
//! `peak_rss_mib`, an end-to-end metric with a bound. Std-only: the numbers come from parsing the procfs status file, which
//! exists on every Linux the project targets; other platforms get `None`
//! and the callers report the sample as unavailable rather than lying.

/// Peak resident set size of the current process in bytes (`VmHWM`), or
/// `None` when the platform has no procfs.
pub fn peak_rss_bytes() -> Option<u64> {
    proc_status_kb("VmHWM:").map(|kb| kb * 1024)
}

/// Current resident set size of the current process in bytes (`VmRSS`),
/// or `None` when the platform has no procfs.
pub fn current_rss_bytes() -> Option<u64> {
    proc_status_kb("VmRSS:").map(|kb| kb * 1024)
}

/// Read one `kB`-denominated field out of `/proc/self/status`.
fn proc_status_kb(key: &str) -> Option<u64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(key) {
            let number = rest.trim().trim_end_matches("kB").trim();
            return number.parse::<u64>().ok();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn rss_samples_are_positive_and_ordered() {
        // Sample RSS before the high-water mark: the two values come from
        // separate reads of /proc/self/status, and pages faulted in
        // between them would lift RSS above an HWM read first.
        let current = current_rss_bytes().expect("VmRSS readable on linux");
        let peak = peak_rss_bytes().expect("VmHWM readable on linux");
        assert!(current > 0);
        assert!(
            peak >= current,
            "high-water mark {peak} below current RSS {current}"
        );
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_tracks_allocation_growth() {
        let before = peak_rss_bytes().unwrap();
        // 64 MiB touched page by page: VmHWM must move if it was near
        // the current RSS, and can never move backwards.
        let mut buf = vec![0u8; 64 << 20];
        for i in (0..buf.len()).step_by(4096) {
            buf[i] = 1;
        }
        let after = peak_rss_bytes().unwrap();
        assert!(
            after >= before,
            "VmHWM moved backwards: {before} -> {after}"
        );
        // Keep the buffer alive past the second sample.
        assert_eq!(buf[0], 1);
    }
}
