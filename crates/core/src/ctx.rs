//! The naming context: label interning, normalization and relation
//! memoization.
//!
//! Group relations compare the same labels over and over (every pair of
//! tuples, at every consistency level, in every group). A labeling run
//! interns each source label once into a dense [`Symbol`]
//! ([`crate::kernel::LabelSymbols`]) and from then on the naming layer
//! speaks only symbols: `NamingCtx` normalizes each symbol's label once
//! and memoizes every pairwise relation keyed by `(Symbol, Symbol)`, so
//! the steady-state cost of a comparison is one integer-pair cache
//! probe, with no `String` clones or hashes of raw label text. Every
//! predicate takes symbols; spellings come back ([`NamingCtx::spelling`],
//! [`NamingCtx::spellings`]) only to break ties and to write the labeled
//! tree and the report. All state is lock-striped
//! ([`qi_runtime::ShardedCache`]) and the context is `Sync`: one context
//! serves a whole domain run, including phase-1 group naming fanned out
//! across threads.

use crate::relations::{relate, LabelRelation};
use qi_lexicon::Lexicon;
use qi_runtime::{CacheStats, Interner, ShardedCache, Symbol};
use qi_text::LabelText;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The carryable memo state of a naming context: the label interner plus
/// the normalized-text and pairwise-relation caches.
///
/// Every entry is a pure function of the lexicon and the label strings —
/// normalization never depends on run order — so a memo warmed by one
/// run can seed the next without changing any output. Symbols are only
/// ever compared for *equality* (dedup sets, ancestor-label checks);
/// every ranking tie-break in the pipeline orders by spelling, so the
/// numeric symbol ids a carried interner hands out are output-neutral.
/// The incremental ingest path carries one memo per domain from each
/// labeling run into the next ([`crate::Labeler::with_memo`]), which is
/// where most of a small append's cost would otherwise go: re-stemming
/// and re-relating the same few hundred domain labels from scratch.
#[derive(Default)]
pub struct NamingMemo {
    interner: Interner,
    texts: ShardedCache<Symbol, Arc<LabelText>>,
    relations: ShardedCache<(Symbol, Symbol), LabelRelation>,
}

impl std::fmt::Debug for NamingMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NamingMemo")
            .field("labels", &self.texts.stats().entries)
            .finish()
    }
}

/// Shared state for one naming run (one domain).
pub struct NamingCtx<'a> {
    lexicon: &'a Lexicon,
    memo: Arc<NamingMemo>,
    /// The memo's `(relations, texts)` counters when this context was
    /// created, so the reported hit/miss counts are this run's alone.
    start: [CacheStats; 2],
    /// `Combine*` states explored by this run.
    combine_states: AtomicU64,
    /// `Combine*` enumerations of this run that reached the state cap.
    combine_capped: AtomicU64,
}

impl<'a> NamingCtx<'a> {
    /// Create a context over a lexicon.
    pub fn new(lexicon: &'a Lexicon) -> Self {
        NamingCtx::with_memo(lexicon, Arc::new(NamingMemo::default()))
    }

    /// Create a context sharing an existing (possibly pre-warmed) memo.
    /// New labels seen by this run are added to the shared memo.
    pub fn with_memo(lexicon: &'a Lexicon, memo: Arc<NamingMemo>) -> Self {
        NamingCtx {
            lexicon,
            start: [memo.relations.stats(), memo.texts.stats()],
            memo,
            combine_states: AtomicU64::new(0),
            combine_capped: AtomicU64::new(0),
        }
    }

    /// The lexicon in use.
    pub fn lexicon(&self) -> &'a Lexicon {
        self.lexicon
    }

    /// Intern a raw label.
    pub fn sym(&self, raw: &str) -> Symbol {
        self.memo.interner.intern(raw)
    }

    /// A shared lease on the canonical spelling of an interned label.
    pub fn spelling(&self, sym: Symbol) -> Arc<str> {
        self.memo.interner.resolve(sym)
    }

    /// A row of interned labels as owned strings, for the labeled tree
    /// and the report.
    pub fn spellings(&self, labels: &[Option<Symbol>]) -> Vec<Option<String>> {
        labels
            .iter()
            .map(|l| l.map(|sym| self.spelling(sym).to_string()))
            .collect()
    }

    /// Normalized form of an interned label (memoized). A miss takes the
    /// text from the lexicon's memo ([`Lexicon::label_text`]), where the
    /// matcher usually left it.
    pub fn text_sym(&self, sym: Symbol) -> Arc<LabelText> {
        if let Some(t) = self.memo.texts.get(&sym) {
            return t;
        }
        let t = self.lexicon.label_text(&self.memo.interner.resolve(sym));
        self.memo.texts.insert(sym, Arc::clone(&t));
        t
    }

    /// Definition 1 relation between two interned labels (memoized,
    /// symmetric up to [`LabelRelation::flip`]).
    pub fn relate_sym(&self, a: Symbol, b: Symbol) -> LabelRelation {
        if let Some(r) = self.memo.relations.get(&(a, b)) {
            return r;
        }
        let ta = self.text_sym(a);
        let tb = self.text_sym(b);
        let r = relate(&ta, &tb, self.lexicon);
        self.memo.relations.insert((a, b), r);
        self.memo.relations.insert((b, a), r.flip());
        r
    }

    /// `a equal b` or stronger, on interned labels. Identical symbols
    /// short-circuit to `true` without touching the relation cache.
    pub fn equal_sym(&self, a: Symbol, b: Symbol) -> bool {
        a == b
            || matches!(
                self.relate_sym(a, b),
                LabelRelation::StringEqual | LabelRelation::Equal
            )
    }

    /// `a` is a strict hypernym of `b`, on interned labels.
    pub fn hypernym_sym(&self, a: Symbol, b: Symbol) -> bool {
        a != b && self.relate_sym(a, b) == LabelRelation::Hypernym
    }

    /// Expressiveness (content-word count) of an interned label
    /// (§4.2.1).
    pub fn expressiveness_sym(&self, sym: Symbol) -> usize {
        self.text_sym(sym).expressiveness()
    }

    /// Number of labels normalized so far (diagnostics).
    pub fn cached_labels(&self) -> usize {
        self.memo.texts.stats().entries
    }

    /// Aggregated hit/miss counters of the context's memo-caches
    /// (normalized texts + pairwise relations).
    pub fn cache_stats(&self) -> CacheStats {
        let [relations, texts] = self.named_cache_stats();
        texts.1.merge(&relations.1)
    }

    /// Per-cache hit/miss counters since this context was created, keyed
    /// by stable cache names (`naming.texts`, `naming.relations`) for the
    /// telemetry registry. `entries` is the memo's current size, carried
    /// entries included.
    pub fn named_cache_stats(&self) -> [(&'static str, CacheStats); 2] {
        [
            (
                "naming.relations",
                self.memo.relations.stats().delta_since(&self.start[0]),
            ),
            (
                "naming.texts",
                self.memo.texts.stats().delta_since(&self.start[1]),
            ),
        ]
    }

    /// Count one `Combine*` enumeration of `states` states, `capped` when
    /// it stopped at [`crate::combine::MAX_STATES`].
    pub(crate) fn record_combine(&self, states: usize, capped: bool) {
        self.combine_states
            .fetch_add(states as u64, Ordering::Relaxed);
        self.combine_capped
            .fetch_add(u64::from(capped), Ordering::Relaxed);
    }

    /// `(states explored, enumerations capped)` by `Combine*` in this run.
    pub fn combine_stats(&self) -> (u64, u64) {
        (
            self.combine_states.load(Ordering::Relaxed),
            self.combine_capped.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoization_returns_same_arc() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let a = ctx.text_sym(ctx.sym("Zip Code"));
        let b = ctx.text_sym(ctx.sym("Zip Code"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(ctx.cached_labels(), 1);
    }

    #[test]
    fn interning_is_stable_and_dense() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let a = ctx.sym("Departure City");
        let b = ctx.sym("Departure City");
        assert_eq!(a, b);
        assert_eq!(&*ctx.spelling(a), "Departure City");
        assert_ne!(ctx.sym("Arrival City"), a);
    }

    #[test]
    fn relate_is_cached_symmetrically() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let (class, tickets) = (ctx.sym("Class"), ctx.sym("Class of Tickets"));
        assert_eq!(ctx.relate_sym(class, tickets), LabelRelation::Hypernym);
        // The flipped direction is answered from cache.
        let before = ctx.cache_stats().hits;
        assert_eq!(ctx.relate_sym(tickets, class), LabelRelation::Hyponym);
        assert_eq!(ctx.cache_stats().hits, before + 1);
    }

    #[test]
    fn predicate_helpers() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let s = |label: &str| ctx.sym(label);
        assert_eq!(
            ctx.relate_sym(s("From"), s("from")),
            LabelRelation::StringEqual
        );
        assert!(ctx.equal_sym(s("Job Type"), s("Type of Job")));
        assert!(!ctx.equal_sym(s("Job Type"), s("Employment Type")));
        assert!(ctx.hypernym_sym(s("Location"), s("Property Location")));
        assert!(!ctx.hypernym_sym(s("Location"), s("Location")));
        assert_eq!(ctx.expressiveness_sym(s("Max. Number of Stops")), 3);
    }

    #[test]
    fn spellings_make_owned_strings() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let beta = ctx.sym("Beta");
        assert_eq!(
            ctx.spellings(&[Some(beta), None]),
            vec![Some("Beta".to_string()), None]
        );
    }

    /// A context over a carried memo counts only its own lookups: the
    /// labels the first run normalized are hits for the second.
    #[test]
    fn carried_memo_stats_count_this_run_only() {
        let lex = Lexicon::builtin();
        let memo = Arc::new(NamingMemo::default());
        let first = NamingCtx::with_memo(&lex, Arc::clone(&memo));
        first.text_sym(first.sym("Zip Code"));
        first.text_sym(first.sym("City"));
        let second = NamingCtx::with_memo(&lex, memo);
        second.text_sym(second.sym("Zip Code"));
        second.text_sym(second.sym("State"));
        let [_, (_, texts)] = second.named_cache_stats();
        assert_eq!((texts.hits, texts.misses, texts.entries), (1, 1, 3));
    }

    #[test]
    fn context_is_shareable_across_threads() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let ctx = &ctx;
                scope.spawn(move || {
                    assert!(ctx.equal_sym(ctx.sym("Job Type"), ctx.sym("Type of Job")));
                    assert!(ctx.hypernym_sym(ctx.sym("Location"), ctx.sym("Property Location")));
                });
            }
        });
        let stats = ctx.cache_stats();
        assert!(stats.hits + stats.misses > 0);
    }
}
