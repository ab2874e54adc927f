//! Process probes and trace output: peak RSS per stage, span totals from
//! a telemetry snapshot, and the Chrome trace file.

use qi_runtime::{MetricsSnapshot, Telemetry};
use std::time::{Duration, Instant};

/// Where traces and scratch files go: `out/` beside the benchmark's
/// manifest.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Reset the kernel's peak-RSS mark to the current RSS by writing `5`
/// to `/proc/self/clear_refs`. False when the kernel refuses.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak RSS (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    qi_runtime::peak_rss_bytes().map(|b| b as f64 / (1u64 << 20) as f64)
}

/// Peak RSS of `stage` alone, or `None` when the mark cannot be reset.
pub fn stage_peak_rss_mib<T>(stage: impl FnOnce() -> T) -> (T, Option<f64>) {
    let reset = reset_peak_rss();
    let value = stage();
    let peak = if reset { peak_rss_mib() } else { None };
    (value, peak)
}

/// Run `f` and return its result with the elapsed time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Total milliseconds recorded under span `name`.
pub fn span_ms(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    snapshot
        .spans
        .get(name)
        .map_or(0.0, |s| s.total_ns as f64 / 1e6)
}

/// A counter's value, 0 when never touched.
pub fn counter(snapshot: &MetricsSnapshot, name: &str) -> u64 {
    snapshot.counters.get(name).copied().unwrap_or(0)
}

/// Percentile `q` (0–1) of a recorded histogram, in microseconds.
pub fn histogram_us(snapshot: &MetricsSnapshot, name: &str, q: f64) -> f64 {
    snapshot
        .histograms
        .get(name)
        .map_or(0.0, |h| h.quantile(q) as f64 / 1e3)
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Write the registry's spans as a Chrome trace to
/// `out/trace-<workload>.json`; returns the path written.
pub fn write_chrome_trace(workload: &str, telemetry: &Telemetry) -> std::io::Result<String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, qi_runtime::chrome_trace(&telemetry.snapshot()))?;
    Ok(path.display().to_string())
}
