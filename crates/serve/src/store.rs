//! The live artifact store: one immutable `Corpus` value, swapped
//! whole.
//!
//! Readers take a read lock just long enough to clone the current
//! `Arc<Corpus>`, then serve from that value alone: they never observe
//! a half-rebuilt domain and never stall behind an ingest. An ingest
//! rebuilds the affected domain *outside* any lock, builds the next
//! corpus around it and swaps it in with one write; a reload does the
//! same with a whole snapshot. Ingests and reloads are serialized by a
//! dedicated mutex so two `POST`s cannot both rebuild from the same
//! base and lose one interface.
//!
//! # Rendered responses
//!
//! A rendered response body lives on the value it was rendered from.
//! Each `Served` domain holds one `OnceLock` per endpoint (labels,
//! tree, explain); the corpus holds one for the `/domains` listing and
//! a bounded map of cursorless `/query` pages (`QUERY_PAGE_CAP`). The
//! next corpus carries every untouched domain's `Arc<Served>` over, so
//! their bodies survive an ingest; the touched domain's bodies go with
//! its old `Served`, and a reload starts from empty cells. A reader
//! that raced a swap renders into, and hits, the cells of the corpus
//! it cloned, which describe exactly what it reads. Stale hits are
//! therefore impossible by construction, with no version check. Bodies
//! are immutable `Arc<Vec<u8>>`, so a hit costs one pointer clone and
//! zero serialization work.

use crate::artifact::{ingest_interface, slug_of, DomainArtifact};
use crate::http::Response;
use crate::snapshot::{fnv1a, Snapshot};
use qi_core::NamingPolicy;
use qi_lexicon::Lexicon;
// Both critical sections below are one whole-value update (a clone out
// or a swap), so a lock poisoned by a panicking holder still guards a
// valid corpus and its guard is recovered.
use qi_runtime::sync::{lock, read, write};
use qi_runtime::{Category, Severity, ShardedCache, Telemetry};
use qi_schema::SchemaTree;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Most cursorless `/query` pages one corpus keeps. A dashboard repeats
/// a handful of queries; the cap keeps a stream of distinct ones from
/// growing the map for the life of the process.
pub(crate) const QUERY_PAGE_CAP: usize = 64;

/// One immutable rendered response.
pub(crate) struct Rendered {
    /// Strong validator: `"{version}-{fnv1a(body):x}"`, quoted. The
    /// version is the artifact's, or the corpus generation for bodies
    /// rendered from the whole corpus.
    pub(crate) etag: String,
    /// `Content-Type` of the rendered body.
    pub(crate) content_type: &'static str,
    /// The rendered bytes, shared with every response served from them.
    pub(crate) body: Arc<Vec<u8>>,
}

impl Rendered {
    /// Capture a freshly rendered response at a known version.
    pub(crate) fn of(version: u64, response: &Response) -> Rendered {
        Rendered {
            etag: format!("\"{version}-{:x}\"", fnv1a(&response.body)),
            content_type: response.content_type,
            body: Arc::clone(&response.body),
        }
    }
}

/// One served domain: its artifact and the bodies rendered from it.
pub(crate) struct Served {
    /// The domain's current artifact.
    pub(crate) artifact: Arc<DomainArtifact>,
    /// `GET /domains/{d}/labels`.
    pub(crate) labels: OnceLock<Rendered>,
    /// `GET /domains/{d}/tree`.
    pub(crate) tree: OnceLock<Rendered>,
    /// `GET /domains/{d}/explain` without pagination parameters.
    pub(crate) explain: OnceLock<Rendered>,
}

impl Served {
    fn new(artifact: Arc<DomainArtifact>) -> Served {
        Served {
            artifact,
            labels: OnceLock::new(),
            tree: OnceLock::new(),
            explain: OnceLock::new(),
        }
    }

    /// Bodies rendered so far.
    fn rendered(&self) -> u64 {
        [&self.labels, &self.tree, &self.explain]
            .into_iter()
            .filter(|cell| cell.get().is_some())
            .count() as u64
    }
}

/// One immutable state of the served corpus.
pub(crate) struct Corpus {
    /// Starts at 0 and grows by one with every ingest and reload;
    /// versions the bodies rendered from the whole corpus.
    pub(crate) generation: u64,
    /// The naming policy every artifact was (and will be) built under.
    pub(crate) policy: NamingPolicy,
    /// Slug → served domain, sorted (the query stream's order).
    pub(crate) domains: BTreeMap<String, Arc<Served>>,
    /// `GET /domains`.
    pub(crate) listing: OnceLock<Rendered>,
    /// Cursorless `GET /query` pages by canonical query text, limit
    /// and budget; at most [`QUERY_PAGE_CAP`].
    pub(crate) queries: ShardedCache<(String, u64, u64), Arc<Rendered>>,
}

impl Corpus {
    fn new(
        generation: u64,
        policy: NamingPolicy,
        domains: BTreeMap<String, Arc<Served>>,
    ) -> Corpus {
        Corpus {
            generation,
            policy,
            domains,
            listing: OnceLock::new(),
            queries: ShardedCache::bounded(QUERY_PAGE_CAP),
        }
    }

    /// A served domain, by slug or display name.
    pub(crate) fn get(&self, domain: &str) -> Option<&Arc<Served>> {
        self.domains.get(&slug_of(domain))
    }

    /// Bodies rendered so far, on the corpus and on every domain.
    fn rendered(&self) -> u64 {
        let domains: u64 = self.domains.values().map(|served| served.rendered()).sum();
        domains + u64::from(self.listing.get().is_some()) + self.queries.stats().entries as u64
    }
}

/// Fresh artifacts by slug, with no rendered bodies yet.
fn served(artifacts: impl IntoIterator<Item = DomainArtifact>) -> BTreeMap<String, Arc<Served>> {
    artifacts
        .into_iter()
        .map(|artifact| (artifact.slug(), Arc::new(Served::new(Arc::new(artifact)))))
        .collect()
}

/// Thread-safe handle on the current `Corpus`.
pub struct Store {
    corpus: RwLock<Arc<Corpus>>,
    /// Serializes ingests and reloads. It guards no data, and the
    /// corpus is swapped only after a rebuild completes, so a rebuild
    /// that panicked left nothing half-written: the lock is taken
    /// through poisoning rather than failing every later write.
    ingest_lock: Mutex<()>,
    lexicon: Lexicon,
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
        Store {
            corpus: RwLock::new(Arc::new(Corpus::new(0, policy, served(artifacts)))),
            ingest_lock: Mutex::new(()),
            lexicon,
            telemetry,
        }
    }

    /// Build a store from a loaded snapshot (the cold-start path — no
    /// pipeline work at all).
    pub fn from_snapshot(snapshot: Snapshot, lexicon: Lexicon, telemetry: Telemetry) -> Self {
        let policy = snapshot.policy;
        Store::new(snapshot.domains, lexicon, policy, telemetry)
    }

    /// The current corpus. Serve one request from one such value.
    pub(crate) fn corpus(&self) -> Arc<Corpus> {
        Arc::clone(&read(&self.corpus))
    }

    /// The lexicon the artifacts were normalized against — query
    /// execution resolves `synonym-of`-style predicates through it.
    pub fn lexicon(&self) -> &Lexicon {
        &self.lexicon
    }

    /// Slugs of all served domains, sorted.
    pub fn slugs(&self) -> Vec<String> {
        read(&self.corpus).domains.keys().cloned().collect()
    }

    /// The current artifact of a domain, by slug or display name.
    pub fn get(&self, domain: &str) -> Option<Arc<DomainArtifact>> {
        read(&self.corpus)
            .get(domain)
            .map(|served| Arc::clone(&served.artifact))
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
        // Only ingests and reloads swap the corpus, and they hold the
        // lock above, so `current` stays current until the swap below.
        let current = self.corpus();
        let slug = slug_of(domain);
        let base = Arc::clone(&current.domains.get(&slug)?.artifact);
        // The expensive rebuild runs with no lock held, so readers keep
        // going.
        let rebuilt = Arc::new(ingest_interface(
            &base,
            interface,
            &self.lexicon,
            current.policy,
            telemetry,
        ));
        let mut domains = current.domains.clone();
        let old = domains.insert(slug.clone(), Arc::new(Served::new(Arc::clone(&rebuilt))));
        *write(&self.corpus) =
            Arc::new(Corpus::new(current.generation + 1, current.policy, domains));
        // The touched domain's bodies went with its old `Served`; every
        // other domain's carried over.
        let dropped = old.map_or(0, |served| served.rendered());
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
    /// the same lock and swapped in with one write, so live readers
    /// either keep the corpus they already cloned or see the complete
    /// new one; nothing in between. Returns the number of domains now
    /// served.
    ///
    /// Snapshot files deliberately do not persist artifact versions
    /// (every loaded artifact carries version 0), so reload assigns
    /// every incoming artifact a version strictly above any served
    /// before: no ETag or cursor issued before the reload validates
    /// against an artifact it was not cut from.
    pub fn reload(&self, snapshot: Snapshot, telemetry: &Telemetry) -> usize {
        let _serialized = lock(&self.ingest_lock);
        let current = self.corpus();
        let Snapshot { policy, domains } = snapshot;
        let floor = current
            .domains
            .values()
            .map(|served| served.artifact.version)
            .max()
            .unwrap_or(0);
        let count = domains.len();
        let domains = served(domains.into_iter().map(|mut artifact| {
            artifact.version = floor + 1;
            artifact
        }));
        *write(&self.corpus) = Arc::new(Corpus::new(current.generation + 1, policy, domains));
        let dropped = current.rendered();
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
        let corpus = self.corpus();
        Snapshot {
            policy: corpus.policy,
            domains: corpus
                .domains
                .values()
                .map(|served| (*served.artifact).clone())
                .collect(),
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
                let _corpus = write(&self.corpus);
                panic!("injected fault: a store lock holder panics");
            });
            assert!(holder.join().is_err());
        });
        assert!(self.ingest_lock.is_poisoned() && self.corpus.is_poisoned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::build_artifact;
    use qi_runtime::{EventRecorder, FieldValue};

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

    /// Render a placeholder body into `cell` at `version`.
    fn fill(cell: &OnceLock<Rendered>, version: u64) {
        let rendered = Response::json(200, "{}".to_string());
        cell.get_or_init(|| Rendered::of(version, &rendered));
    }

    fn recording() -> Telemetry {
        Telemetry::deterministic().attach_events(EventRecorder::new(16))
    }

    /// The key and fields of every cache event recorded so far.
    fn cache_events(telemetry: &Telemetry) -> Vec<(&'static str, Vec<(&'static str, FieldValue)>)> {
        let page = telemetry
            .events()
            .events_since(0, Some(Category::Cache), 16);
        page.events
            .into_iter()
            .map(|event| (event.key, event.fields))
            .collect()
    }

    #[test]
    fn lookup_accepts_slug_and_display_name() {
        let store = auto_store();
        assert!(store.get("auto").is_some());
        assert!(store.get("Auto").is_some());
        assert!(store.get("nope").is_none());
        assert_eq!(store.slugs(), vec!["auto".to_string()]);
        assert!(store.corpus().get("Auto").is_some());
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
        let off = Telemetry::off();
        let policy = NamingPolicy::default();
        let auto = build_artifact(&qi_datasets::auto::domain(), &lexicon, policy, &off);
        let book = build_artifact(&qi_datasets::book::domain(), &lexicon, policy, &off);
        let store = Store::new(vec![auto, book], lexicon, policy, off);

        let before = store.corpus();
        let (auto, book) = (&before.domains["auto"], &before.domains["book"]);
        fill(&auto.labels, auto.artifact.version);
        fill(&auto.tree, auto.artifact.version);
        fill(&book.labels, book.artifact.version);
        fill(&before.listing, before.generation);

        let telemetry = recording();
        let extra = qi_schema::text_format::parse("interface extra\n- Make\n").unwrap();
        store.ingest_with("auto", extra, &telemetry).unwrap();
        let after = store.corpus();
        assert_eq!(
            after.generation,
            before.generation + 1,
            "ingest bumps generation"
        );
        let touched = &after.domains["auto"];
        assert!(
            touched.labels.get().is_none() && touched.tree.get().is_none(),
            "touched domain must start from empty cells"
        );
        assert!(
            Arc::ptr_eq(&after.domains["book"], book),
            "untouched domain keeps its rendered responses"
        );
        assert!(after.domains["book"].labels.get().is_some());
        assert!(after.listing.get().is_none(), "the listing is per corpus");
        // A reader still holding the old corpus keeps a consistent view.
        assert!(auto.labels.get().is_some());
        assert_eq!(auto.artifact.version + 1, touched.artifact.version);

        assert_eq!(
            telemetry.snapshot().counters["serve.cache.invalidations"],
            2,
            "the touched domain held two bodies"
        );
        assert_eq!(
            cache_events(&telemetry),
            vec![(
                "cache.invalidate",
                vec![("slug", "auto".into()), ("entries", FieldValue::U64(2))]
            )]
        );
    }

    #[test]
    fn reload_swaps_the_corpus_and_defeats_stale_cache_entries() {
        let lexicon = Lexicon::builtin();
        let off = Telemetry::off();
        let policy = NamingPolicy::default();
        let auto = build_artifact(&qi_datasets::auto::domain(), &lexicon, policy, &off);
        let book = build_artifact(&qi_datasets::book::domain(), &lexicon, policy, &off);
        let store = Store::new(vec![auto], lexicon, policy, off.clone());

        // Grow the live corpus past the snapshot we will reload.
        let extra = qi_schema::text_format::parse("interface extra\n- Make\n").unwrap();
        store.ingest("auto", extra).unwrap();
        let before = store.corpus(); // a request mid-flight
        let grown = &before.domains["auto"];
        fill(&grown.labels, grown.artifact.version);
        fill(&before.listing, before.generation);
        let page = Response::json(200, "{}".to_string());
        before.queries.insert(
            ("find fields".to_string(), 1, 1),
            Arc::new(Rendered::of(before.generation, &page)),
        );

        // Reload a two-domain snapshot whose `auto` lacks the ingest.
        let lexicon = Lexicon::builtin();
        let snap_auto = build_artifact(&qi_datasets::auto::domain(), &lexicon, policy, &off);
        let snapshot = Snapshot {
            policy,
            domains: vec![snap_auto, book],
        };
        let telemetry = recording();
        assert_eq!(store.reload(snapshot, &telemetry), 2);

        let after = store.corpus();
        assert_eq!(store.slugs(), vec!["auto".to_string(), "book".to_string()]);
        let reloaded = &after.domains["auto"];
        assert_eq!(
            reloaded.artifact.interfaces(),
            grown.artifact.interfaces() - 1
        );
        assert!(
            reloaded.artifact.version > grown.artifact.version,
            "reloaded artifacts must out-version every pre-reload one \
             ({} vs {})",
            reloaded.artifact.version,
            grown.artifact.version
        );
        assert_eq!(after.generation, before.generation + 1);
        assert!(
            reloaded.labels.get().is_none()
                && after.listing.get().is_none()
                && after.queries.stats().entries == 0,
            "pre-reload rendered bodies must not carry over"
        );
        assert_eq!(
            telemetry.snapshot().counters["serve.cache.invalidations"],
            3
        );
        assert_eq!(
            cache_events(&telemetry),
            vec![("cache.clear", vec![("entries", FieldValue::U64(3))])]
        );
        // The in-flight reader's corpus is still fully usable.
        assert_eq!(
            before.domains["auto"].artifact.interfaces(),
            grown.artifact.interfaces()
        );
        assert!(before.domains["auto"].labels.get().is_some());
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
