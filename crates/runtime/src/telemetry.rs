//! Zero-dependency pipeline telemetry: named counters, gauges and
//! hierarchical scoped span timers, aggregated per run and emitted as a
//! stable JSON document.
//!
//! The registry is a cheap cloneable handle ([`Telemetry`]) wrapping an
//! `Option<Arc<_>>`. The disabled handle ([`Telemetry::off`]) carries
//! `None`, so every instrument call on a cold pipeline reduces to one
//! pointer check — no allocation, no lock, no clock read. Hot paths are
//! expected to accumulate into plain local structs and record once per
//! stage; an enabled counter update is one name lookup under a read
//! lock plus one relaxed `fetch_add`.
//!
//! Span names are hierarchical by dotted path (`label.phase1.groups` is
//! a child of `label.phase1`, which is a child of `label`); the snapshot
//! keeps them in a sorted map so nesting invariants (child time ≤ parent
//! time) are checkable and the JSON key order is stable.
//!
//! Two clocks are provided. [`TelemetryMode::Wall`] reads
//! `std::time::Instant`; [`TelemetryMode::Deterministic`] uses a virtual
//! clock that advances a fixed step per reading, so a single-threaded
//! run emits *byte-identical* metrics documents across invocations —
//! the property the integration suite asserts and the `--metrics`
//! acceptance check relies on.

use crate::events::{Category, EventRecorder, FieldValue, Severity};
use crate::histogram::{Histogram, HistogramData};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// How (and whether) a pipeline run collects telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryMode {
    /// No registry: every instrument call is a pointer check.
    #[default]
    Off,
    /// Real wall-clock span timings (`std::time::Instant`).
    Wall,
    /// Virtual clock advancing [`FAKE_CLOCK_STEP_NS`] per reading —
    /// byte-stable output for determinism tests and golden files.
    Deterministic,
}

/// Step of the deterministic virtual clock, per clock reading.
pub const FAKE_CLOCK_STEP_NS: u64 = 1_000;

impl TelemetryMode {
    /// Build a registry handle for this mode.
    pub fn build(self) -> Telemetry {
        match self {
            TelemetryMode::Off => Telemetry::off(),
            TelemetryMode::Wall => Telemetry::new(),
            TelemetryMode::Deterministic => Telemetry::deterministic(),
        }
    }
}

enum Clock {
    Wall(Instant),
    Fake(AtomicU64),
}

impl Clock {
    fn now_ns(&self) -> u64 {
        match self {
            Clock::Wall(epoch) => epoch.elapsed().as_nanos() as u64,
            Clock::Fake(ticks) => ticks
                .fetch_add(1, Ordering::Relaxed)
                .wrapping_add(1)
                .wrapping_mul(FAKE_CLOCK_STEP_NS),
        }
    }
}

/// Accumulated time of one named span: total nanoseconds and the number
/// of times the span was entered.
#[derive(Debug, Default)]
struct SpanAccum {
    total_ns: AtomicU64,
    count: AtomicU64,
}

struct Inner {
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    spans: RwLock<BTreeMap<String, Arc<SpanAccum>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    /// Optional flight recorder (see [`crate::events`]). Disabled by
    /// default; [`Telemetry::attach_events`] installs one so existing
    /// call sites can emit events without new plumbing.
    events: RwLock<EventRecorder>,
    clock: Clock,
}

impl Inner {
    fn entry<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
        if let Some(hit) = map.read().expect("telemetry map poisoned").get(name) {
            return Arc::clone(hit);
        }
        let mut write = map.write().expect("telemetry map poisoned");
        Arc::clone(
            write
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(T::default())),
        )
    }
}

/// A handle on a metrics registry (or on nothing, when disabled).
///
/// Clones share the registry. `Telemetry` is `Send + Sync`; one handle
/// can serve a whole parallel stage.
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::off()
    }
}

impl Telemetry {
    /// The disabled registry: every call is a pointer check and
    /// [`Telemetry::snapshot`] is empty.
    pub fn off() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled registry on the wall clock.
    pub fn new() -> Self {
        Telemetry::with_clock(Clock::Wall(Instant::now()))
    }

    /// An enabled registry on the deterministic virtual clock (fixed
    /// step per reading; see [`FAKE_CLOCK_STEP_NS`]).
    pub fn deterministic() -> Self {
        Telemetry::with_clock(Clock::Fake(AtomicU64::new(0)))
    }

    /// A fresh, empty registry sharing this one's wall-clock baseline,
    /// so timestamps recorded through both line up (request-local
    /// slow-tracing registries absorb into the global one; their event
    /// and span times must be on the same axis). A deterministic parent
    /// yields a fresh deterministic registry; a disabled parent yields
    /// a fresh wall-clock registry.
    pub fn sibling(&self) -> Self {
        match self.inner.as_ref().map(|inner| &inner.clock) {
            Some(Clock::Wall(epoch)) => Telemetry::with_clock(Clock::Wall(*epoch)),
            Some(Clock::Fake(_)) => Telemetry::deterministic(),
            None => Telemetry::new(),
        }
    }

    fn with_clock(clock: Clock) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                counters: RwLock::new(BTreeMap::new()),
                gauges: RwLock::new(BTreeMap::new()),
                spans: RwLock::new(BTreeMap::new()),
                histograms: RwLock::new(BTreeMap::new()),
                events: RwLock::new(EventRecorder::off()),
                clock,
            })),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Current clock reading in nanoseconds (0 when disabled). On the
    /// deterministic clock every reading advances the virtual time by
    /// [`FAKE_CLOCK_STEP_NS`].
    pub fn now_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| inner.clock.now_ns())
    }

    /// Install a flight recorder; subsequent [`Telemetry::event`]
    /// calls on this registry (and its clones) record into it.
    /// Builder-style so construction reads
    /// `Telemetry::new().attach_events(recorder)`.
    pub fn attach_events(self, recorder: EventRecorder) -> Self {
        if let Some(inner) = &self.inner {
            *inner.events.write().expect("telemetry events poisoned") = recorder;
        }
        self
    }

    /// The attached flight recorder (the disabled recorder when none
    /// was attached or the registry is off). Cheap clone of an
    /// `Option<Arc<_>>`.
    pub fn events(&self) -> EventRecorder {
        self.inner
            .as_ref()
            .map_or_else(EventRecorder::off, |inner| {
                inner
                    .events
                    .read()
                    .expect("telemetry events poisoned")
                    .clone()
            })
    }

    /// Record a structured event into the attached flight recorder,
    /// counting the outcome under `events.emitted` / `events.dropped`.
    /// With no recorder attached (or a disabled registry) the call
    /// reduces to a pointer check plus one read-lock probe, and
    /// `fields` never runs.
    pub fn event(
        &self,
        severity: Severity,
        category: Category,
        key: &'static str,
        fields: impl FnOnce() -> Vec<(&'static str, FieldValue)>,
    ) {
        let Some(inner) = &self.inner else {
            return;
        };
        let recorder = inner
            .events
            .read()
            .expect("telemetry events poisoned")
            .clone();
        if !recorder.is_enabled() {
            return;
        }
        let outcome = recorder.emit(inner.clock.now_ns(), severity, category, key, fields);
        self.incr("events.emitted");
        if outcome.dropped > 0 {
            self.add("events.dropped", outcome.dropped);
        }
    }

    /// Add `n` to a named monotonic counter.
    pub fn add(&self, name: &str, n: u64) {
        if let Some(inner) = &self.inner {
            Inner::entry(&inner.counters, name).fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increment a named monotonic counter by one.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Set a named gauge (last write wins).
    pub fn gauge(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            Inner::entry(&inner.gauges, name).store(value, Ordering::Relaxed);
        }
    }

    /// Set a named gauge to `value` if it exceeds the current reading
    /// (a high-watermark gauge, e.g. max postings bucket size).
    pub fn gauge_max(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            Inner::entry(&inner.gauges, name).fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Open a scoped stage timer; the elapsed time is recorded under
    /// `name` when the guard drops. Disabled handles never read the
    /// clock.
    pub fn span(&self, name: &str) -> SpanGuard {
        SpanGuard {
            active: self.inner.as_ref().map(|inner| {
                let accum = Inner::entry(&inner.spans, name);
                (Arc::clone(inner), accum, inner.clock.now_ns())
            }),
        }
    }

    /// Record one observation into a named histogram (log-linear
    /// buckets; see [`crate::histogram`]).
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            Inner::entry(&inner.histograms, name).record(value);
        }
    }

    /// Open a combined timer: one clock-read pair feeds both the span
    /// accumulator *and* a same-named latency histogram, so the
    /// hierarchical breakdown and the distribution stay consistent.
    pub fn timed(&self, name: &str) -> TimedGuard {
        TimedGuard {
            active: self.inner.as_ref().map(|inner| TimedActive {
                accum: Inner::entry(&inner.spans, name),
                histogram: Inner::entry(&inner.histograms, name),
                start: inner.clock.now_ns(),
                inner: Arc::clone(inner),
            }),
        }
    }

    /// Merge a frozen snapshot into this live registry: counters and
    /// span totals add, histograms merge bucket-wise, gauges take the
    /// incoming value. Used to fold per-request registries back into
    /// the server's global one.
    pub fn absorb(&self, snapshot: &MetricsSnapshot) {
        if self.inner.is_none() {
            return;
        }
        for (name, value) in &snapshot.counters {
            self.add(name, *value);
        }
        for (name, value) in &snapshot.gauges {
            self.gauge(name, *value);
        }
        for (name, data) in &snapshot.spans {
            if data.count > 0 || data.total_ns > 0 {
                if let Some(inner) = &self.inner {
                    let accum = Inner::entry(&inner.spans, name);
                    accum.total_ns.fetch_add(data.total_ns, Ordering::Relaxed);
                    accum.count.fetch_add(data.count, Ordering::Relaxed);
                }
            }
        }
        for (name, data) in &snapshot.histograms {
            if let Some(inner) = &self.inner {
                Inner::entry(&inner.histograms, name).absorb(data);
            }
        }
    }

    /// Record a cache's counter snapshot under `cache.<name>.*`:
    /// `hits`, `misses` and the derived `lookups` as counters, current
    /// `entries` as a gauge. Registering a *snapshot* (not a live feed)
    /// keeps the cache hot path free of telemetry branches.
    pub fn record_cache(&self, name: &str, stats: &crate::CacheStats) {
        if self.inner.is_none() {
            return;
        }
        self.add(&format!("cache.{name}.hits"), stats.hits);
        self.add(&format!("cache.{name}.misses"), stats.misses);
        self.add(&format!("cache.{name}.lookups"), stats.hits + stats.misses);
        self.gauge(&format!("cache.{name}.entries"), stats.entries as u64);
    }

    /// Materialize the registry into a plain, mergeable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.inner else {
            return MetricsSnapshot::default();
        };
        let counters = inner
            .counters
            .read()
            .expect("telemetry map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = inner
            .gauges
            .read()
            .expect("telemetry map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let spans = inner
            .spans
            .read()
            .expect("telemetry map poisoned")
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    SpanData {
                        total_ns: v.total_ns.load(Ordering::Relaxed),
                        count: v.count.load(Ordering::Relaxed),
                    },
                )
            })
            .collect();
        let histograms = inner
            .histograms
            .read()
            .expect("telemetry map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.data()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            spans,
            histograms,
        }
    }
}

/// Scope guard of [`Telemetry::span`]; records elapsed time on drop.
#[must_use = "dropping the guard immediately records a zero-length span"]
pub struct SpanGuard {
    active: Option<(Arc<Inner>, Arc<SpanAccum>, u64)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((inner, accum, start)) = self.active.take() {
            let elapsed = inner.clock.now_ns().saturating_sub(start);
            accum.total_ns.fetch_add(elapsed, Ordering::Relaxed);
            accum.count.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Live half of a [`TimedGuard`]: the registry plus the two cells the
/// single elapsed reading lands in.
struct TimedActive {
    inner: Arc<Inner>,
    accum: Arc<SpanAccum>,
    histogram: Arc<Histogram>,
    start: u64,
}

/// Scope guard of [`Telemetry::timed`]; one elapsed reading feeds both
/// the span accumulator and the same-named histogram on drop.
#[must_use = "dropping the guard immediately records a zero-length interval"]
pub struct TimedGuard {
    active: Option<TimedActive>,
}

impl Drop for TimedGuard {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            let elapsed = active.inner.clock.now_ns().saturating_sub(active.start);
            active.accum.total_ns.fetch_add(elapsed, Ordering::Relaxed);
            active.accum.count.fetch_add(1, Ordering::Relaxed);
            active.histogram.record(elapsed);
        }
    }
}

/// Accumulated data of one span in a snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanData {
    /// Total nanoseconds spent inside the span.
    pub total_ns: u64,
    /// Times the span was entered.
    pub count: u64,
}

/// A frozen, mergeable view of a registry: plain sorted maps, no locks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name (merge keeps the larger value: a gauge is a level,
    /// such as a cache's entries or an index's bucket count, and two runs
    /// that each hold 1,024 entries do not hold 2,048).
    pub gauges: BTreeMap<String, u64>,
    /// Span accumulators by dotted hierarchical name.
    pub spans: BTreeMap<String, SpanData>,
    /// Latency histograms by name (log-linear buckets; see
    /// [`crate::histogram`]).
    pub histograms: BTreeMap<String, HistogramData>,
}

impl MetricsSnapshot {
    /// True when nothing was recorded (the disabled registry's
    /// snapshot).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.spans.is_empty()
            && self.histograms.is_empty()
    }

    /// Merge another snapshot into this one: counters and span
    /// totals/counts add per name, gauges keep the larger value, and
    /// histograms merge bucket-wise.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.gauges {
            let gauge = self.gauges.entry(k.clone()).or_insert(0);
            *gauge = (*gauge).max(v);
        }
        for (k, v) in &other.spans {
            let slot = self.spans.entry(k.clone()).or_default();
            slot.total_ns += v.total_ns;
            slot.count += v.count;
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
    }

    /// What changed between a previous cumulative snapshot and this
    /// one — the windowing primitive behind
    /// [`crate::timeseries::TimeSeries`]. Counters and span
    /// accumulators subtract (saturating, zero entries dropped, so a
    /// quiet window stays small); gauges keep their current
    /// instantaneous value (a gauge has no meaningful increment);
    /// histograms subtract bucket-wise (see
    /// [`HistogramData::delta`]). `prev` must be an earlier snapshot
    /// of the *same* registry — counters that disappeared are treated
    /// as unchanged.
    pub fn delta(&self, prev: &MetricsSnapshot) -> MetricsSnapshot {
        let diff_map = |now: &BTreeMap<String, u64>, was: &BTreeMap<String, u64>| {
            now.iter()
                .filter_map(|(k, &v)| {
                    let d = v.saturating_sub(was.get(k).copied().unwrap_or(0));
                    (d > 0).then(|| (k.clone(), d))
                })
                .collect()
        };
        let spans = self
            .spans
            .iter()
            .filter_map(|(k, v)| {
                let was = prev.spans.get(k).copied().unwrap_or_default();
                let d = SpanData {
                    total_ns: v.total_ns.saturating_sub(was.total_ns),
                    count: v.count.saturating_sub(was.count),
                };
                (d.count > 0 || d.total_ns > 0).then(|| (k.clone(), d))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .filter_map(|(k, v)| {
                let d = match prev.histograms.get(k) {
                    Some(was) => v.delta(was),
                    None => v.clone(),
                };
                (!d.buckets.is_empty()).then(|| (k.clone(), d))
            })
            .collect();
        MetricsSnapshot {
            counters: diff_map(&self.counters, &prev.counters),
            gauges: self.gauges.clone(),
            spans,
            histograms,
        }
    }

    /// Return a copy with every name prefixed (`prefix` + the original
    /// name) — used to namespace per-domain snapshots inside a corpus
    /// document.
    pub fn prefixed(&self, prefix: &str) -> MetricsSnapshot {
        let rename = |map: &BTreeMap<String, u64>| {
            map.iter()
                .map(|(k, v)| (format!("{prefix}{k}"), *v))
                .collect()
        };
        MetricsSnapshot {
            counters: rename(&self.counters),
            gauges: rename(&self.gauges),
            spans: self
                .spans
                .iter()
                .map(|(k, v)| (format!("{prefix}{k}"), *v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| (format!("{prefix}{k}"), v.clone()))
                .collect(),
        }
    }

    /// Render the snapshot as one stable JSON document: keys sorted
    /// (`BTreeMap` order), all values integers — two identical
    /// snapshots serialize to identical bytes.
    pub fn to_json(&self) -> String {
        let scalar_map = |map: &BTreeMap<String, u64>| {
            let mut obj = crate::json::Obj::new();
            for (k, v) in map {
                obj.u64(k, *v);
            }
            obj.finish()
        };
        let mut spans = crate::json::Obj::new();
        for (k, v) in &self.spans {
            spans.raw(
                k,
                crate::json::Obj::new()
                    .u64("count", v.count)
                    .u64("total_ns", v.total_ns)
                    .finish(),
            );
        }
        let mut histograms = crate::json::Obj::new();
        for (k, v) in &self.histograms {
            histograms.raw(k, v.to_json());
        }
        crate::json::Obj::new()
            .raw("counters", scalar_map(&self.counters))
            .raw("gauges", scalar_map(&self.gauges))
            .raw("histograms", histograms.finish())
            .raw("spans", spans.finish())
            .finish()
    }

    /// The document's *schema*: one `path kind` line per emitted key,
    /// sorted — the golden-snapshot surface for catching accidental
    /// field renames without pinning values.
    pub fn schema(&self) -> String {
        let mut lines: Vec<String> = Vec::new();
        for key in self.counters.keys() {
            lines.push(format!("counters.{key} u64"));
        }
        for key in self.gauges.keys() {
            lines.push(format!("gauges.{key} u64"));
        }
        for key in self.spans.keys() {
            lines.push(format!("spans.{key}.count u64"));
            lines.push(format!("spans.{key}.total_ns u64"));
        }
        for key in self.histograms.keys() {
            // Bucket keys depend on the observed values, so the schema
            // treats the bucket map as one opaque object.
            lines.push(format!("histograms.{key}.buckets obj"));
            for field in ["count", "max", "p50", "p90", "p99", "sum"] {
                lines.push(format!("histograms.{key}.{field} u64"));
            }
        }
        lines.sort();
        let mut out = lines.join("\n");
        out.push('\n');
        out
    }

    /// Direct parent span of a dotted name, if recorded: the longest
    /// proper dotted prefix present in the snapshot.
    pub fn parent_span<'a>(&self, name: &'a str) -> Option<&'a str> {
        let mut prefix = name;
        while let Some(dot) = prefix.rfind('.') {
            prefix = &prefix[..dot];
            if self.spans.contains_key(prefix) {
                return Some(prefix);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let tel = Telemetry::off();
        assert!(!tel.is_enabled());
        tel.incr("a");
        tel.add("b", 9);
        tel.gauge("g", 4);
        tel.gauge_max("g", 9);
        tel.observe("h", 42);
        drop(tel.span("span"));
        drop(tel.timed("span"));
        tel.absorb(&Telemetry::deterministic().snapshot());
        let snapshot = tel.snapshot();
        assert!(snapshot.is_empty());
        assert_eq!(
            snapshot.to_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{},\"spans\":{}}"
        );
    }

    #[test]
    fn counters_gauges_and_spans_accumulate() {
        let tel = Telemetry::deterministic();
        tel.incr("pairs");
        tel.add("pairs", 2);
        tel.add("pairs", 4);
        tel.gauge("buckets", 7);
        tel.gauge("buckets", 5); // last write wins
        tel.gauge_max("peak", 3);
        tel.gauge_max("peak", 9);
        tel.gauge_max("peak", 4);
        {
            let _outer = tel.span("stage");
            let _inner = tel.span("stage.sub");
        }
        drop(tel.span("stage.sub"));
        let snapshot = tel.snapshot();
        assert_eq!(snapshot.counters["pairs"], 7);
        assert_eq!(snapshot.gauges["buckets"], 5);
        assert_eq!(snapshot.gauges["peak"], 9);
        assert_eq!(snapshot.spans["stage"].count, 1);
        assert_eq!(snapshot.spans["stage.sub"].count, 2);
        // Fake clock: the nested entry's measured time is strictly
        // inside the outer span's; the later one took one clock step.
        let outer = snapshot.spans["stage"];
        let inner = snapshot.spans["stage.sub"];
        assert!(
            inner.total_ns - FAKE_CLOCK_STEP_NS < outer.total_ns,
            "{inner:?} vs {outer:?}"
        );
        assert_eq!(snapshot.parent_span("stage.sub"), Some("stage"));
        assert_eq!(snapshot.parent_span("stage"), None);
        assert_eq!(snapshot.parent_span("other.thing"), None);
    }

    #[test]
    fn deterministic_clock_is_byte_stable() {
        let run = || {
            let tel = Telemetry::deterministic();
            for _ in 0..3 {
                let _g = tel.span("a.b");
                tel.incr("n");
            }
            let _g = tel.span("a");
            drop(_g);
            tel.snapshot().to_json()
        };
        let first = run();
        assert_eq!(first, run());
        assert!(first.contains("\"total_ns\""));
    }

    #[test]
    fn merge_and_prefix() {
        let tel = Telemetry::deterministic();
        tel.add("x", 1);
        tel.gauge("g", 2);
        drop(tel.span("s"));
        let a = tel.snapshot();
        let mut merged = a.clone();
        merged.merge(&a);
        assert_eq!(merged.counters["x"], 2);
        assert_eq!(merged.spans["s"].total_ns, 2 * FAKE_CLOCK_STEP_NS);
        assert_eq!(merged.spans["s"].count, 2);
        let prefixed = a.prefixed("domain.0.");
        assert_eq!(prefixed.counters["domain.0.x"], 1);
        assert_eq!(prefixed.spans["domain.0.s"].count, 1);
        // A gauge is a level: merging keeps the larger value.
        assert_eq!(merged.gauges["g"], 2);
        tel.gauge("g", 5);
        merged.merge(&tel.snapshot());
        merged.merge(&a);
        assert_eq!(merged.gauges["g"], 5);
    }

    #[test]
    fn record_cache_emits_consistent_counters() {
        let tel = Telemetry::new();
        let stats = crate::CacheStats {
            hits: 10,
            misses: 4,
            entries: 4,
        };
        tel.record_cache("lexicon.resolve", &stats);
        let snapshot = tel.snapshot();
        assert_eq!(snapshot.counters["cache.lexicon.resolve.hits"], 10);
        assert_eq!(snapshot.counters["cache.lexicon.resolve.misses"], 4);
        assert_eq!(snapshot.counters["cache.lexicon.resolve.lookups"], 14);
        assert_eq!(snapshot.gauges["cache.lexicon.resolve.entries"], 4);
    }

    #[test]
    fn schema_lists_every_key_sorted() {
        let tel = Telemetry::deterministic();
        tel.incr("b");
        tel.incr("a");
        tel.gauge("g", 1);
        drop(tel.span("s"));
        tel.observe("h", 7);
        let schema = tel.snapshot().schema();
        assert_eq!(
            schema,
            "counters.a u64\ncounters.b u64\ngauges.g u64\n\
             histograms.h.buckets obj\nhistograms.h.count u64\nhistograms.h.max u64\n\
             histograms.h.p50 u64\nhistograms.h.p90 u64\nhistograms.h.p99 u64\n\
             histograms.h.sum u64\nspans.s.count u64\nspans.s.total_ns u64\n"
        );
    }

    #[test]
    fn timed_guard_feeds_span_and_histogram_consistently() {
        let tel = Telemetry::deterministic();
        for _ in 0..3 {
            drop(tel.timed("stage"));
        }
        let snapshot = tel.snapshot();
        let span = snapshot.spans["stage"];
        let hist = &snapshot.histograms["stage"];
        assert_eq!(span.count, 3);
        assert_eq!(hist.count(), 3);
        // One clock pair feeds both: the histogram's sum is exactly the
        // span's accumulated total.
        assert_eq!(hist.sum, span.total_ns);
        assert_eq!(hist.max, FAKE_CLOCK_STEP_NS);
    }

    #[test]
    fn absorb_folds_a_snapshot_into_a_live_registry() {
        let local = Telemetry::deterministic();
        local.add("req", 2);
        local.gauge("depth", 5);
        drop(local.span("stage"));
        local.observe("lat", 1_000);
        let global = Telemetry::deterministic();
        global.add("req", 1);
        global.observe("lat", 9);
        global.absorb(&local.snapshot());
        let merged = global.snapshot();
        assert_eq!(merged.counters["req"], 3);
        assert_eq!(merged.gauges["depth"], 5);
        assert_eq!(merged.spans["stage"].total_ns, FAKE_CLOCK_STEP_NS);
        assert_eq!(merged.histograms["lat"].count(), 2);
        assert_eq!(merged.histograms["lat"].max, 1_000);
    }

    #[test]
    fn delta_reports_what_changed_and_drops_the_quiet() {
        let tel = Telemetry::deterministic();
        tel.add("req", 3);
        tel.add("steady", 5);
        tel.gauge("depth", 2);
        drop(tel.span("stage"));
        tel.observe("lat", 40);
        let before = tel.snapshot();
        tel.add("req", 4);
        tel.gauge("depth", 9);
        tel.observe("lat", 80);
        tel.incr("fresh");
        let delta = tel.snapshot().delta(&before);
        assert_eq!(delta.counters["req"], 4);
        assert_eq!(delta.counters["fresh"], 1);
        assert!(
            !delta.counters.contains_key("steady"),
            "unchanged counters are dropped"
        );
        assert_eq!(delta.gauges["depth"], 9, "gauges stay instantaneous");
        assert!(!delta.spans.contains_key("stage"), "quiet spans dropped");
        let lat = &delta.histograms["lat"];
        assert_eq!(lat.count(), 1);
        assert_eq!(lat.sum, 80);
        // Identical snapshots produce an empty delta (gauges aside).
        let now = tel.snapshot();
        let idle = now.delta(&now);
        assert!(idle.counters.is_empty());
        assert!(idle.spans.is_empty());
        assert!(idle.histograms.is_empty());
    }

    #[test]
    fn attached_recorder_captures_events_and_counts_outcomes() {
        let tel = Telemetry::deterministic().attach_events(crate::events::EventRecorder::new(2));
        tel.event(Severity::Warn, Category::Shed, "shed.queue_full", || {
            vec![("depth", FieldValue::U64(64))]
        });
        tel.event(Severity::Warn, Category::Slow, "slow", Vec::new);
        tel.event(Severity::Info, Category::Reload, "reload", Vec::new); // evicts seq 1
        let snapshot = tel.snapshot();
        assert_eq!(snapshot.counters["events.emitted"], 3);
        assert_eq!(snapshot.counters["events.dropped"], 1);
        let page = tel.events().events_since(0, None, 10);
        assert_eq!(page.events.len(), 2);
        assert_eq!(page.dropped_watermark, 1);
    }

    #[test]
    fn event_without_recorder_is_a_noop() {
        let tel = Telemetry::deterministic();
        tel.event(Severity::Error, Category::Panic, "boom", || {
            panic!("fields must not be built without a recorder")
        });
        assert!(tel.snapshot().is_empty());
        let off = Telemetry::off();
        off.event(Severity::Error, Category::Panic, "boom", Vec::new);
        assert!(!off.events().is_enabled());
    }

    #[test]
    fn clones_share_the_attached_recorder() {
        let tel = Telemetry::new().attach_events(crate::events::EventRecorder::new(8));
        let clone = tel.clone();
        clone.event(Severity::Info, Category::Ingest, "ingest.delta", Vec::new);
        assert_eq!(tel.events().last_seq(), 1);
    }

    #[test]
    fn json_escapes_names() {
        let tel = Telemetry::new();
        tel.incr("we\"ird\\name");
        let json = tel.snapshot().to_json();
        assert!(json.contains("we\\\"ird\\\\name"));
    }

    #[test]
    fn wall_clock_spans_measure_time() {
        let tel = Telemetry::new();
        {
            let _g = tel.span("sleepy");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snapshot = tel.snapshot();
        assert!(snapshot.spans["sleepy"].total_ns >= 1_000_000);
    }

    #[test]
    fn telemetry_is_shareable_across_threads() {
        let tel = Telemetry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let tel = tel.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        tel.incr("named");
                    }
                });
            }
        });
        let snapshot = tel.snapshot();
        assert_eq!(snapshot.counters["named"], 400);
    }
}
