//! Bounded ring-buffer flight recorder of structured runtime events.
//!
//! Telemetry counters answer "how many"; the flight recorder answers
//! "which ones, when, and why" for the *rare* decision points of a
//! serving process — delta-ingest fallbacks, shed 503s, slow requests,
//! stale cursors, reload swaps, worker panics. Every event carries a
//! monotonic sequence number, a severity, a category, a static key and
//! a small set of typed fields.
//!
//! The design constraints mirror the rest of [`crate::telemetry`]:
//!
//! * **Disabled is free.** [`EventRecorder`] wraps an
//!   `Option<Arc<_>>`; the disabled handle carries `None`, so an emit
//!   on a cold path is one pointer check. Field construction is
//!   deferred behind a closure that only runs once an event is going
//!   to be kept.
//! * **Bounded and lock-minimal.** The ring is a fixed-capacity
//!   `VecDeque` behind one mutex held only for a push/pop or a clone
//!   out; there is no allocation growth, no blocking hand-off, and a
//!   full ring evicts the oldest event instead of stalling the
//!   emitter. Evictions advance an explicit *drop watermark* (the
//!   highest evicted sequence number) so readers can tell silence from
//!   loss.
//! * **Sampled per category.** High-frequency categories can be
//!   downsampled (keep one in N, counted per category with a relaxed
//!   atomic); sampled-out events consume no sequence number, so the
//!   retained ring stays seq-contiguous and cursor resume via
//!   [`EventRecorder::events_since`] is gap-free above the watermark.
//!
//! Sequence numbers start at 1; `since=0` therefore reads from the
//! beginning. Timestamps are supplied by the caller (the telemetry
//! clock), so deterministic-clock runs produce byte-stable event
//! streams.

use crate::json::Obj;
use crate::sync;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How loud an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Diagnostic detail (sampled aggressively in production).
    Debug,
    /// Expected-but-notable state changes (reloads, ingests).
    Info,
    /// Degraded service decisions (sheds, fallbacks, slow requests).
    Warn,
    /// Faults (worker panics).
    Error,
}

impl Severity {
    /// Stable lowercase name (the JSON encoding).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// Which subsystem decision produced the event. The set enumerates the
/// decision points wired today; extending it is a source change, which
/// keeps category names static (no allocation on emit) and the
/// sampling table a fixed array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Delta-ingest fallbacks to the full rebuild path.
    Ingest,
    /// Rendered-response cache invalidations.
    Cache,
    /// Load-shedding 503s (queue full, connection limit).
    Shed,
    /// Requests slower than the `--slow-ms` threshold.
    Slow,
    /// Stale-cursor 410s on paginated reads.
    Cursor,
    /// Query traversal budget exhaustion (422s).
    Budget,
    /// Snapshot `/admin/reload` swaps.
    Reload,
    /// Worker panics converted to 500s.
    Panic,
    /// Malformed/oversized requests answered by the reactor's
    /// synthesized error path (400/408/413/431).
    Http,
}

/// Number of categories (size of the sampling table).
pub const CATEGORY_COUNT: usize = 9;

/// Every category, in stable order (index == `as_index`).
pub const CATEGORIES: [Category; CATEGORY_COUNT] = [
    Category::Ingest,
    Category::Cache,
    Category::Shed,
    Category::Slow,
    Category::Cursor,
    Category::Budget,
    Category::Reload,
    Category::Panic,
    Category::Http,
];

impl Category {
    /// Stable lowercase name (the JSON encoding and the
    /// `?category=` filter value).
    pub fn as_str(self) -> &'static str {
        match self {
            Category::Ingest => "ingest",
            Category::Cache => "cache",
            Category::Shed => "shed",
            Category::Slow => "slow",
            Category::Cursor => "cursor",
            Category::Budget => "budget",
            Category::Reload => "reload",
            Category::Panic => "panic",
            Category::Http => "http",
        }
    }

    /// Dense index into the per-category sampling table.
    pub fn as_index(self) -> usize {
        match self {
            Category::Ingest => 0,
            Category::Cache => 1,
            Category::Shed => 2,
            Category::Slow => 3,
            Category::Cursor => 4,
            Category::Budget => 5,
            Category::Reload => 6,
            Category::Panic => 7,
            Category::Http => 8,
        }
    }

    /// Parse a lowercase category name (the `?category=` filter).
    pub fn parse(name: &str) -> Option<Category> {
        CATEGORIES.iter().copied().find(|c| c.as_str() == name)
    }
}

/// One typed event field value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    /// An unsigned integer (ids, counts, durations).
    U64(u64),
    /// A short string (domain slugs, reasons, paths).
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(value: u64) -> Self {
        FieldValue::U64(value)
    }
}

impl From<String> for FieldValue {
    fn from(value: String) -> Self {
        FieldValue::Str(value)
    }
}

impl From<&str> for FieldValue {
    fn from(value: &str) -> Self {
        FieldValue::Str(value.to_string())
    }
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Monotonic sequence number (1-based, recorder-wide).
    pub seq: u64,
    /// Timestamp in nanoseconds on the emitting registry's clock.
    pub at_ns: u64,
    /// Severity.
    pub severity: Severity,
    /// Subsystem category.
    pub category: Category,
    /// Static event key (e.g. `ingest.fallback`).
    pub key: &'static str,
    /// Small set of typed fields.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// Render as one stable JSON object.
    pub fn to_json(&self) -> String {
        let mut fields = Obj::new();
        for (name, value) in &self.fields {
            match value {
                FieldValue::U64(v) => fields.u64(name, *v),
                FieldValue::Str(v) => fields.str(name, v),
            };
        }
        Obj::new()
            .u64("seq", self.seq)
            .u64("at_ns", self.at_ns)
            .str("severity", self.severity.as_str())
            .str("category", self.category.as_str())
            .str("key", self.key)
            .raw("fields", fields.finish())
            .finish()
    }
}

/// Outcome of one emit attempt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EmitOutcome {
    /// Sequence number assigned, `None` when sampled out.
    pub seq: Option<u64>,
    /// Events evicted from the ring by this emit (0 or 1).
    pub dropped: u64,
}

/// One page of [`EventRecorder::events_since`].
#[derive(Debug, Clone, Default)]
pub struct EventsPage {
    /// Matching events in sequence order.
    pub events: Vec<Event>,
    /// Resume cursor: pass as `since` to continue after this page.
    /// Equals the request's `since` when nothing matched.
    pub next_seq: u64,
    /// Highest sequence number ever evicted from the ring (0 when
    /// nothing was dropped). A reader whose `since` is below this
    /// watermark has lost events.
    pub dropped_watermark: u64,
    /// Total events evicted from the ring so far.
    pub dropped: u64,
}

struct Ring {
    buf: VecDeque<Event>,
    next_seq: u64,
    dropped_watermark: u64,
    dropped: u64,
}

struct RecorderInner {
    capacity: usize,
    ring: Mutex<Ring>,
    /// Keep one event in N per category (1 = keep all). Atomic so the
    /// builder can configure a handle without unsharing the `Arc`;
    /// reads on the emit path are relaxed.
    sample_every: [AtomicU64; CATEGORY_COUNT],
    /// Per-category emit attempts, for the sampling decision.
    sample_seen: [AtomicU64; CATEGORY_COUNT],
}

/// A handle on a flight recorder (or on nothing, when disabled).
/// Clones share the ring; the handle is `Send + Sync`.
#[derive(Clone, Default)]
pub struct EventRecorder {
    inner: Option<Arc<RecorderInner>>,
}

impl std::fmt::Debug for EventRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRecorder")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl EventRecorder {
    /// The disabled recorder: every emit is a pointer check.
    pub fn off() -> Self {
        EventRecorder { inner: None }
    }

    /// An enabled recorder retaining the most recent `capacity`
    /// events (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        EventRecorder {
            inner: Some(Arc::new(RecorderInner {
                capacity: capacity.max(1),
                ring: Mutex::new(Ring {
                    buf: VecDeque::new(),
                    next_seq: 1,
                    dropped_watermark: 0,
                    dropped: 0,
                }),
                sample_every: std::array::from_fn(|_| AtomicU64::new(1)),
                sample_seen: Default::default(),
            })),
        }
    }

    /// Keep one in `every` events of `category` (0 and 1 both mean
    /// keep all). Builder-style: configure before traffic flows.
    pub fn with_sample(self, category: Category, every: u64) -> Self {
        if let Some(inner) = &self.inner {
            inner.sample_every[category.as_index()].store(every.max(1), Ordering::Relaxed);
        }
        self
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Ring capacity (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.inner.as_ref().map_or(0, |inner| inner.capacity)
    }

    /// Record one event. `fields` is only invoked once the event has
    /// passed sampling — a sampled-out or disabled emit never builds
    /// its payload.
    pub fn emit(
        &self,
        at_ns: u64,
        severity: Severity,
        category: Category,
        key: &'static str,
        fields: impl FnOnce() -> Vec<(&'static str, FieldValue)>,
    ) -> EmitOutcome {
        let Some(inner) = &self.inner else {
            return EmitOutcome::default();
        };
        let every = inner.sample_every[category.as_index()].load(Ordering::Relaxed);
        if every > 1 {
            let seen = inner.sample_seen[category.as_index()].fetch_add(1, Ordering::Relaxed);
            if seen % every != 0 {
                return EmitOutcome::default();
            }
        }
        let fields = fields();
        let mut ring = sync::lock(&inner.ring);
        let seq = ring.next_seq;
        ring.next_seq += 1;
        ring.buf.push_back(Event {
            seq,
            at_ns,
            severity,
            category,
            key,
            fields,
        });
        let mut dropped = 0;
        if ring.buf.len() > inner.capacity {
            if let Some(evicted) = ring.buf.pop_front() {
                ring.dropped_watermark = evicted.seq;
                ring.dropped += 1;
                dropped = 1;
            }
        }
        EmitOutcome {
            seq: Some(seq),
            dropped,
        }
    }

    /// Events with `seq > since`, optionally restricted to one
    /// category, capped at `limit`. `since=0` reads from the oldest
    /// retained event. The page's `next_seq` is the highest sequence
    /// number *scanned* (not just matched), so a category-filtered
    /// cursor still advances past non-matching events.
    pub fn events_since(&self, since: u64, category: Option<Category>, limit: usize) -> EventsPage {
        let Some(inner) = &self.inner else {
            return EventsPage::default();
        };
        let ring = sync::lock(&inner.ring);
        let mut page = EventsPage {
            events: Vec::new(),
            next_seq: since,
            dropped_watermark: ring.dropped_watermark,
            dropped: ring.dropped,
        };
        for event in &ring.buf {
            if event.seq <= since {
                continue;
            }
            if page.events.len() >= limit.max(1) {
                break;
            }
            page.next_seq = event.seq;
            if category.is_none_or(|want| want == event.category) {
                page.events.push(event.clone());
            }
        }
        page
    }

    /// Highest sequence number assigned so far (0 when none).
    pub fn last_seq(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| sync::lock(&inner.ring).next_seq - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emit_n(rec: &EventRecorder, n: u64) {
        for i in 0..n {
            rec.emit(i, Severity::Info, Category::Ingest, "test.event", || {
                vec![("i", FieldValue::U64(i))]
            });
        }
    }

    /// The recorder must keep recording after a panic poisons its ring
    /// (the panic event itself is one of the things it records).
    #[test]
    fn recorder_survives_a_poisoned_ring() {
        let rec = EventRecorder::new(8);
        emit_n(&rec, 2);
        let inner = rec.inner.as_ref().expect("enabled recorder");
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _ring = inner.ring.lock().unwrap();
                panic!("holder panics with the ring locked");
            });
            assert!(holder.join().is_err());
        });
        assert!(inner.ring.is_poisoned());
        emit_n(&rec, 3);
        assert_eq!(rec.last_seq(), 5);
        assert_eq!(rec.events_since(0, None, 100).events.len(), 5);
    }

    #[test]
    fn disabled_recorder_is_inert_and_lazy() {
        let rec = EventRecorder::off();
        assert!(!rec.is_enabled());
        let outcome = rec.emit(0, Severity::Error, Category::Panic, "boom", || {
            panic!("fields must not be built on a disabled recorder")
        });
        assert_eq!(outcome, EmitOutcome::default());
        assert!(rec.events_since(0, None, 100).events.is_empty());
        assert_eq!(rec.last_seq(), 0);
    }

    #[test]
    fn sequence_numbers_are_contiguous_and_one_based() {
        let rec = EventRecorder::new(16);
        emit_n(&rec, 5);
        let page = rec.events_since(0, None, 100);
        let seqs: Vec<u64> = page.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
        assert_eq!(page.next_seq, 5);
        assert_eq!(page.dropped, 0);
        assert_eq!(rec.last_seq(), 5);
    }

    #[test]
    fn full_ring_evicts_oldest_and_advances_the_watermark() {
        let rec = EventRecorder::new(3);
        emit_n(&rec, 5);
        let page = rec.events_since(0, None, 100);
        let seqs: Vec<u64> = page.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5]);
        assert_eq!(page.dropped_watermark, 2);
        assert_eq!(page.dropped, 2);
    }

    #[test]
    fn cursor_resume_sees_every_event_above_the_watermark() {
        let rec = EventRecorder::new(8);
        emit_n(&rec, 4);
        let first = rec.events_since(0, None, 2);
        assert_eq!(first.events.len(), 2);
        assert_eq!(first.next_seq, 2);
        emit_n(&rec, 3);
        let second = rec.events_since(first.next_seq, None, 100);
        let seqs: Vec<u64> = second.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5, 6, 7]);
    }

    #[test]
    fn category_filter_still_advances_the_cursor() {
        let rec = EventRecorder::new(8);
        rec.emit(0, Severity::Warn, Category::Shed, "shed", Vec::new);
        rec.emit(1, Severity::Info, Category::Reload, "reload", Vec::new);
        rec.emit(2, Severity::Warn, Category::Shed, "shed", Vec::new);
        let page = rec.events_since(0, Some(Category::Shed), 100);
        assert_eq!(page.events.len(), 2);
        // The cursor covers the scanned (not just matched) range.
        assert_eq!(page.next_seq, 3);
        let resumed = rec.events_since(page.next_seq, Some(Category::Shed), 100);
        assert!(resumed.events.is_empty());
    }

    #[test]
    fn sampling_keeps_one_in_n_without_consuming_seqs() {
        let rec = EventRecorder::new(32).with_sample(Category::Slow, 3);
        for i in 0..9u64 {
            rec.emit(i, Severity::Warn, Category::Slow, "slow", Vec::new);
        }
        // Unsampled category is unaffected.
        rec.emit(9, Severity::Info, Category::Reload, "reload", Vec::new);
        let page = rec.events_since(0, None, 100);
        assert_eq!(page.events.len(), 4); // 3 kept slow + 1 reload
        let seqs: Vec<u64> = page.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4], "kept events stay seq-contiguous");
    }

    #[test]
    fn event_json_is_stable_and_typed() {
        let rec = EventRecorder::new(4);
        rec.emit(
            7,
            Severity::Warn,
            Category::Ingest,
            "ingest.fallback",
            || {
                vec![
                    ("domain", FieldValue::from("auto")),
                    ("reason", FieldValue::from("base_mismatch")),
                    ("interfaces", FieldValue::U64(20)),
                ]
            },
        );
        let page = rec.events_since(0, None, 1);
        assert_eq!(
            page.events[0].to_json(),
            "{\"seq\":1,\"at_ns\":7,\"severity\":\"warn\",\"category\":\"ingest\",\
             \"key\":\"ingest.fallback\",\"fields\":{\"domain\":\"auto\",\
             \"reason\":\"base_mismatch\",\"interfaces\":20}}"
        );
    }

    #[test]
    fn category_names_round_trip() {
        for category in CATEGORIES {
            assert_eq!(Category::parse(category.as_str()), Some(category));
        }
        assert_eq!(Category::parse("nope"), None);
    }

    #[test]
    fn concurrent_emitters_never_duplicate_or_skip_retained_seqs() {
        let rec = EventRecorder::new(64);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let rec = rec.clone();
                scope.spawn(move || {
                    for i in 0..100u64 {
                        rec.emit(i, Severity::Info, Category::Http, "req", Vec::new);
                    }
                });
            }
        });
        let page = rec.events_since(0, None, 1_000);
        assert_eq!(rec.last_seq(), 400);
        assert_eq!(page.dropped, 400 - 64);
        let seqs: Vec<u64> = page.events.iter().map(|e| e.seq).collect();
        let expected: Vec<u64> = ((400 - 64 + 1)..=400).collect();
        assert_eq!(seqs, expected, "retained ring is seq-contiguous");
        assert_eq!(page.dropped_watermark, 400 - 64);
    }
}
