//! Zero-dependency parallel runtime for the labeling pipeline.
//!
//! The paper's pipeline is dominated by repeated lexical queries —
//! normalization, Porter stemming, WordNet base-form lookup and transitive
//! hypernymy tests (Definition 1) — executed once per token per cluster
//! per domain. This crate supplies the concurrency substrate those hot
//! paths run through, built exclusively on `std`:
//!
//! * [`ShardedCache`] — an N-way lock-striped concurrent memo-cache with
//!   hit/miss counters;
//! * [`Interner`] — an append-only string arena mapping labels to dense
//!   [`Symbol`]s, with `Arc<str>` leases for the public API, turning label
//!   equality into integer equality;
//! * [`pool`] — a bounded scoped thread pool (`std::thread::scope`,
//!   worker count clamped to [`pool::max_threads`]) with ordered results
//!   and per-item panic isolation;
//! * [`SplitMix64`] — a tiny deterministic PRNG for synthetic-domain
//!   generation (replaces the external `rand` crate);
//! * [`telemetry`] — a thread-safe registry of named counters, gauges and
//!   hierarchical span timers with a pointer-check disabled mode and
//!   stable-JSON emission;
//! * [`json`] — the shared stable-JSON writer (escaping, fixed-decimal
//!   numbers, object/array builders) behind every JSON document the
//!   workspace emits;
//! * [`events`] — a bounded ring-buffer flight recorder of structured
//!   runtime events with per-category sampling and an explicit drop
//!   watermark;
//! * [`timeseries`] — a fixed-capacity ring of per-interval
//!   [`MetricsSnapshot`] deltas (windowed rates and quantiles over the
//!   cumulative registry);
//! * [`JobQueue`] — a bounded close-aware job queue for long-lived
//!   worker pools (the HTTP server's reactor/worker handoff);
//! * [`sync`] — poison-recovering `Mutex`/`RwLock` guards, so a
//!   panicking holder cannot disable a lock for the life of a process;
//! * [`netpoll`] — level-triggered `poll(2)` readiness polling and a
//!   self-wake channel (the HTTP reactor's only platform primitive).

pub mod cache;
pub mod events;
pub mod export;
pub mod histogram;
pub mod intern;
pub mod json;
pub mod memory;
#[cfg(unix)]
pub mod netpoll;
pub mod pool;
pub mod rng;
pub mod sync;
pub mod telemetry;
pub mod timeseries;

pub use cache::{CacheStats, ShardedCache};
pub use events::{Category, Event, EventRecorder, EventsPage, FieldValue, Severity};
pub use export::{chrome_trace, prometheus_text};
pub use histogram::{Histogram, HistogramData};
pub use intern::{Interner, Symbol};
pub use memory::{current_rss_bytes, peak_rss_bytes};
pub use pool::{parallel_map, parallel_try_map, resolve_threads, JobQueue};
pub use rng::SplitMix64;
pub use telemetry::{Counter, MetricsSnapshot, SpanData, Telemetry, TelemetryMode};
pub use timeseries::{TimeSeries, Window};
