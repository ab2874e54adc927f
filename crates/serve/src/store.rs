//! The live artifact store: copy-on-write per-domain state.
//!
//! Readers take a brief read lock, clone one `Arc`, and serve from the
//! immutable artifact — they never observe a half-rebuilt domain and
//! never stall behind an ingest. Writers rebuild the affected domain
//! *outside* any lock, then swap the new `Arc` in under a short write
//! lock. Concurrent ingests into the same store are serialized by a
//! dedicated mutex so two `POST`s cannot both rebuild from the same
//! base and lose one interface.

//!
//! # Rendered-response cache
//!
//! The store also holds a cache of fully rendered response bodies,
//! keyed by `(domain slug, endpoint)` and versioned: each entry
//! remembers the [`DomainArtifact::version`] (or, for the corpus-wide
//! `/domains` listing, the store [`Store::generation`]) it was rendered
//! from, and [`Store::cached`] only returns an entry whose recorded
//! version equals the caller's *current* version. Staleness is
//! therefore impossible by construction — a reader that raced an
//! ingest either sees the new artifact (and misses, re-rendering from
//! it) or the old artifact Arc it already cloned (a consistent, merely
//! old view, exactly as without the cache). Bodies are immutable
//! `Arc<Vec<u8>>`, so a hit costs one pointer clone and zero
//! serialization work.

use crate::artifact::{ingest_interface, slug_of, DomainArtifact};
use crate::snapshot::{fnv1a, Snapshot};
use qi_core::NamingPolicy;
use qi_lexicon::Lexicon;
// Every critical section below is one whole-value update (an insert, a
// swap, a retain or a clear), so a lock poisoned by a panicking holder
// still guards valid data and its guard is recovered.
use qi_runtime::sync::{lock, read, write};
use qi_runtime::{Category, Severity, Telemetry};
use qi_schema::SchemaTree;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// One immutable rendered response, pinned to the artifact version it
/// was rendered from.
pub struct CacheEntry {
    /// The [`DomainArtifact::version`] (or store generation) the body
    /// reflects; entries with a non-current version never hit.
    pub version: u64,
    /// Strong validator: `"{version}-{fnv1a(body):x}"`, quoted.
    pub etag: String,
    /// `Content-Type` of the rendered body.
    pub content_type: &'static str,
    /// The rendered bytes, shared with every response served from them.
    pub body: Arc<Vec<u8>>,
}

impl CacheEntry {
    /// Capture a freshly rendered response at a known version.
    pub fn of(version: u64, response: &crate::http::Response) -> CacheEntry {
        CacheEntry {
            version,
            etag: format!("\"{version}-{:x}\"", fnv1a(&response.body)),
            content_type: response.content_type,
            body: Arc::clone(&response.body),
        }
    }
}

/// Thread-safe map of domain slug → current artifact.
pub struct Store {
    domains: RwLock<BTreeMap<String, Arc<DomainArtifact>>>,
    /// Rendered-response cache; see the module docs. The corpus-wide
    /// `/domains` listing caches under the empty slug.
    cache: RwLock<HashMap<(String, &'static str), Arc<CacheEntry>>>,
    /// Bumped after every successful ingest swap; versions responses
    /// derived from the whole domain map rather than one artifact.
    generation: AtomicU64,
    /// Serializes ingests and reloads. It guards no data, and the domain
    /// map is swapped only after a rebuild completes, so a rebuild that
    /// panicked left nothing half-written: the lock is taken through
    /// poisoning rather than failing every later write.
    ingest_lock: Mutex<()>,
    lexicon: Lexicon,
    /// Behind a lock because a hot reload may install a snapshot built
    /// under a different policy.
    policy: RwLock<NamingPolicy>,
    telemetry: Telemetry,
}

impl Store {
    /// Build a store over already-constructed artifacts.
    pub fn new(
        artifacts: Vec<DomainArtifact>,
        lexicon: Lexicon,
        policy: NamingPolicy,
        telemetry: Telemetry,
    ) -> Self {
        let domains = artifacts
            .into_iter()
            .map(|a| (a.slug(), Arc::new(a)))
            .collect();
        Store {
            domains: RwLock::new(domains),
            cache: RwLock::new(HashMap::new()),
            generation: AtomicU64::new(0),
            ingest_lock: Mutex::new(()),
            lexicon,
            policy: RwLock::new(policy),
            telemetry,
        }
    }

    /// Build a store from a loaded snapshot (the cold-start path — no
    /// pipeline work at all).
    pub fn from_snapshot(snapshot: Snapshot, lexicon: Lexicon, telemetry: Telemetry) -> Self {
        let policy = snapshot.policy;
        Store::new(snapshot.domains, lexicon, policy, telemetry)
    }

    /// The naming policy every artifact was (and will be) built under.
    pub fn policy(&self) -> NamingPolicy {
        *read(&self.policy)
    }

    /// The lexicon the artifacts were normalized against — query
    /// execution resolves `synonym-of`-style predicates through it.
    pub fn lexicon(&self) -> &Lexicon {
        &self.lexicon
    }

    /// Slugs of all served domains, sorted.
    pub fn slugs(&self) -> Vec<String> {
        read(&self.domains).keys().cloned().collect()
    }

    /// The current artifact of a domain, by slug or display name.
    pub fn get(&self, domain: &str) -> Option<Arc<DomainArtifact>> {
        read(&self.domains).get(&slug_of(domain)).cloned()
    }

    /// Number of served domains.
    pub fn len(&self) -> usize {
        read(&self.domains).len()
    }

    /// True when no domain is served.
    pub fn is_empty(&self) -> bool {
        read(&self.domains).is_empty()
    }

    /// The corpus-wide version: bumped after every successful ingest.
    /// Responses rendered from the whole domain map (the `/domains`
    /// listing) are cache-validated against it.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The cached rendered response of `(slug, endpoint)`, if one
    /// exists *and* was rendered from exactly `version`. Callers count
    /// hits and misses into their own telemetry registry.
    pub fn cached(
        &self,
        slug: &str,
        endpoint: &'static str,
        version: u64,
    ) -> Option<Arc<CacheEntry>> {
        read(&self.cache)
            .get(&(slug.to_string(), endpoint))
            .filter(|entry| entry.version == version)
            .cloned()
    }

    /// Insert a freshly rendered response and return the shared entry.
    /// A concurrent insert for the same key simply overwrites — both
    /// entries are correct for their recorded version.
    pub fn insert_cached(
        &self,
        slug: String,
        endpoint: &'static str,
        entry: CacheEntry,
    ) -> Arc<CacheEntry> {
        let entry = Arc::new(entry);
        write(&self.cache).insert((slug, endpoint), Arc::clone(&entry));
        entry
    }

    /// Drop every cached entry for `endpoint` whose recorded version is
    /// not `current`. The per-slug eviction in [`Store::ingest_with`]
    /// cannot see `/query` entries (their slug slot carries a query
    /// hash, not a domain), so the query handler calls this with the
    /// store generation before inserting — stale generations never hit
    /// anyway (version validation), this just stops them accumulating.
    pub fn prune_cached(&self, endpoint: &'static str, current: u64) {
        write(&self.cache).retain(|(_, e), entry| *e != endpoint || entry.version == current);
    }

    /// Add an interface to a domain: re-cluster, re-merge and re-label
    /// only that domain, then atomically swap the rebuilt artifact in.
    /// Returns the new artifact, or `None` for an unknown domain.
    pub fn ingest(&self, domain: &str, interface: SchemaTree) -> Option<Arc<DomainArtifact>> {
        let telemetry = self.telemetry.clone();
        self.ingest_with(domain, interface, &telemetry)
    }

    /// [`Store::ingest`] recording its pipeline spans into an explicit
    /// registry — lets the server attribute rebuild time to one request.
    pub fn ingest_with(
        &self,
        domain: &str,
        interface: SchemaTree,
        telemetry: &Telemetry,
    ) -> Option<Arc<DomainArtifact>> {
        let _serialized = lock(&self.ingest_lock);
        let slug = slug_of(domain);
        // Clone the current base under a brief read lock; the expensive
        // rebuild below runs with no lock held, so readers keep going.
        let base = read(&self.domains).get(&slug)?.clone();
        let policy = self.policy();
        let rebuilt = Arc::new(ingest_interface(
            &base,
            interface,
            &self.lexicon,
            policy,
            telemetry,
        ));
        write(&self.domains).insert(slug.clone(), Arc::clone(&rebuilt));
        // The bump must happen after the swap: a reader that sees the
        // new generation is then guaranteed to also see the new map.
        self.generation.fetch_add(1, Ordering::AcqRel);
        // Drop the touched domain's rendered responses — and only
        // those; other domains' entries stay valid. The corpus-level
        // `/domains` entry is keyed by generation, so the bump above
        // already retired it without an explicit eviction.
        let mut cache = write(&self.cache);
        let before = cache.len();
        cache.retain(|(s, _), _| *s != slug);
        let dropped = (before - cache.len()) as u64;
        drop(cache);
        if dropped > 0 {
            telemetry.add("serve.cache.invalidations", dropped);
            telemetry.event(Severity::Info, Category::Cache, "cache.invalidate", || {
                vec![("slug", slug.as_str().into()), ("entries", dropped.into())]
            });
        }
        Some(rebuilt)
    }

    /// Replace the whole served corpus with a loaded snapshot — the hot
    /// path behind `POST /admin/reload`. Serialized against ingests by
    /// the same lock, swapped in under one brief write lock, so live
    /// readers either keep the artifact `Arc` they already cloned or
    /// see the complete new map; nothing in between. Returns the number
    /// of domains now served.
    ///
    /// Snapshot files deliberately do not persist artifact versions
    /// (every loaded artifact carries version 0), so reload assigns
    /// every incoming artifact a version strictly above anything the
    /// rendered-response cache may have recorded — a cached body can
    /// never validate against a post-reload artifact it was not
    /// rendered from.
    pub fn reload(&self, snapshot: Snapshot, telemetry: &Telemetry) -> usize {
        let _serialized = lock(&self.ingest_lock);
        let Snapshot { policy, domains } = snapshot;
        let floor = read(&self.domains)
            .values()
            .map(|a| a.version)
            .max()
            .unwrap_or(0);
        let count = domains.len();
        let map: BTreeMap<String, Arc<DomainArtifact>> = domains
            .into_iter()
            .map(|mut artifact| {
                artifact.version = floor + 1;
                (artifact.slug(), Arc::new(artifact))
            })
            .collect();
        *write(&self.policy) = policy;
        *write(&self.domains) = map;
        // Bump after the swap, as in ingest: a reader that observes the
        // new generation is guaranteed to also observe the new map.
        self.generation.fetch_add(1, Ordering::AcqRel);
        let mut cache = write(&self.cache);
        let dropped = cache.len() as u64;
        cache.clear();
        drop(cache);
        if dropped > 0 {
            telemetry.add("serve.cache.invalidations", dropped);
            telemetry.event(Severity::Info, Category::Cache, "cache.clear", || {
                vec![("entries", dropped.into())]
            });
        }
        count
    }

    /// Capture the current state as a snapshot value (for persistence).
    pub fn snapshot(&self) -> Snapshot {
        let domains = read(&self.domains)
            .values()
            .map(|a| (**a).clone())
            .collect();
        Snapshot {
            policy: self.policy(),
            domains,
        }
    }
}

#[cfg(test)]
impl Store {
    /// Fault injection: poison every lock of the store from a thread that
    /// panics while holding them all.
    pub(crate) fn poison_locks(&self) {
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _ingest = lock(&self.ingest_lock);
                let _policy = write(&self.policy);
                let _domains = write(&self.domains);
                let _cache = write(&self.cache);
                panic!("injected fault: a store lock holder panics");
            });
            assert!(holder.join().is_err());
        });
        assert!(self.ingest_lock.is_poisoned() && self.domains.is_poisoned());
        assert!(self.policy.is_poisoned() && self.cache.is_poisoned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::build_artifact;

    fn auto_store() -> Store {
        let lexicon = Lexicon::builtin();
        let telemetry = Telemetry::off();
        let artifact = build_artifact(
            &qi_datasets::auto::domain(),
            &lexicon,
            NamingPolicy::default(),
            &telemetry,
        );
        Store::new(vec![artifact], lexicon, NamingPolicy::default(), telemetry)
    }

    #[test]
    fn lookup_accepts_slug_and_display_name() {
        let store = auto_store();
        assert_eq!(store.len(), 1);
        assert!(store.get("auto").is_some());
        assert!(store.get("Auto").is_some());
        assert!(store.get("nope").is_none());
        assert_eq!(store.slugs(), vec!["auto".to_string()]);
    }

    #[test]
    fn ingest_and_reload_recover_poisoned_locks() {
        let store = auto_store();
        store.poison_locks();
        let before = store.get("auto").unwrap().interfaces();
        let extra = qi_schema::text_format::parse("interface extra\n- Make\n").unwrap();
        let after = store
            .ingest("auto", extra)
            .expect("ingest after a poisoning panic");
        assert_eq!(after.interfaces(), before + 1);
        let snapshot = store.snapshot();
        assert_eq!(store.reload(snapshot, &Telemetry::off()), 1);
        assert_eq!(store.get("auto").unwrap().interfaces(), before + 1);
    }

    #[test]
    fn ingest_swaps_only_the_target_domain() {
        let store = auto_store();
        let before = store.get("auto").unwrap();
        let extra = qi_schema::text_format::parse("interface extra\n- Make\n- Model\n").unwrap();
        let after = store.ingest("auto", extra).unwrap();
        assert_eq!(after.interfaces(), before.interfaces() + 1);
        // The old Arc is still fully readable (copy-on-write).
        assert_eq!(
            before.interfaces() + 1,
            store.get("auto").unwrap().interfaces()
        );
        assert!(store.ingest("missing", before.schemas[0].clone()).is_none());
    }

    #[test]
    fn ingest_invalidates_only_the_touched_domains_cache() {
        let lexicon = Lexicon::builtin();
        let telemetry = Telemetry::off();
        let policy = NamingPolicy::default();
        let auto = build_artifact(&qi_datasets::auto::domain(), &lexicon, policy, &telemetry);
        let book = build_artifact(&qi_datasets::book::domain(), &lexicon, policy, &telemetry);
        let store = Store::new(vec![auto, book], lexicon, policy, telemetry);

        let rendered = crate::http::Response::json(200, "{}".to_string());
        store.insert_cached("auto".to_string(), "labels", CacheEntry::of(0, &rendered));
        store.insert_cached("book".to_string(), "labels", CacheEntry::of(0, &rendered));
        assert!(store.cached("auto", "labels", 0).is_some());
        assert!(store.cached("book", "labels", 0).is_some());

        let generation = store.generation();
        let extra = qi_schema::text_format::parse("interface extra\n- Make\n").unwrap();
        store.ingest("auto", extra).unwrap();
        assert_eq!(
            store.generation(),
            generation + 1,
            "ingest bumps generation"
        );
        assert!(
            store.cached("auto", "labels", 0).is_none(),
            "touched domain must be evicted"
        );
        assert!(
            store.cached("book", "labels", 0).is_some(),
            "untouched domain keeps its rendered responses"
        );
        // Version validation alone also rejects a non-current entry.
        assert!(store.cached("book", "labels", 99).is_none());
    }

    #[test]
    fn reload_swaps_the_corpus_and_defeats_stale_cache_entries() {
        let lexicon = Lexicon::builtin();
        let telemetry = Telemetry::off();
        let policy = NamingPolicy::default();
        let auto = build_artifact(&qi_datasets::auto::domain(), &lexicon, policy, &telemetry);
        let book = build_artifact(&qi_datasets::book::domain(), &lexicon, policy, &telemetry);
        let store = Store::new(vec![auto], lexicon, policy, telemetry.clone());

        // Grow the live corpus past the snapshot we will reload.
        let extra = qi_schema::text_format::parse("interface extra\n- Make\n").unwrap();
        store.ingest("auto", extra).unwrap();
        let grown = store.get("auto").unwrap();
        let old_reader = Arc::clone(&grown); // a request mid-flight
        let rendered = crate::http::Response::json(200, "{}".to_string());
        store.insert_cached(
            "auto".to_string(),
            "labels",
            CacheEntry::of(grown.version, &rendered),
        );
        let generation = store.generation();

        // Reload a two-domain snapshot whose `auto` lacks the ingest.
        let lexicon = Lexicon::builtin();
        let snap_auto = build_artifact(&qi_datasets::auto::domain(), &lexicon, policy, &telemetry);
        let snapshot = Snapshot {
            policy,
            domains: vec![snap_auto, book],
        };
        assert_eq!(store.reload(snapshot, &telemetry), 2);

        assert_eq!(store.len(), 2);
        assert!(store.get("book").is_some());
        let reloaded = store.get("auto").unwrap();
        assert_eq!(reloaded.interfaces(), grown.interfaces() - 1);
        assert!(
            reloaded.version > grown.version,
            "reloaded artifacts must out-version every pre-reload one \
             ({} vs {})",
            reloaded.version,
            grown.version
        );
        assert_eq!(store.generation(), generation + 1);
        assert!(
            store.cached("auto", "labels", reloaded.version).is_none(),
            "pre-reload rendered bodies must not validate"
        );
        // The in-flight reader's Arc is still fully usable.
        assert_eq!(old_reader.interfaces(), grown.interfaces());
    }

    #[test]
    fn snapshot_captures_current_state() {
        let store = auto_store();
        let extra = qi_schema::text_format::parse("interface extra\n- Make\n").unwrap();
        store.ingest("auto", extra).unwrap();
        let snapshot = store.snapshot();
        assert_eq!(snapshot.domains.len(), 1);
        assert_eq!(
            snapshot.domains[0].interfaces(),
            store.get("auto").unwrap().interfaces()
        );
    }
}
