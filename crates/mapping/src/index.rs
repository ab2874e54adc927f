//! Indexed candidate generation for the label-similarity matcher.
//!
//! The naive matcher compares every cross-schema field pair and rescans
//! all fields on each merge to enforce the same-schema invariant —
//! O(n²) comparisons with an O(n) scan per union, effectively cubic.
//! This module replaces both bottlenecks while producing the *identical*
//! [`crate::Mapping`]:
//!
//! 1. **Distinct labels** — fields are grouped by *label key*, the
//!    ASCII-lowercased display form. `string_equal` is
//!    `eq_ignore_ascii_case` on the display, and the content words are
//!    tokenized from the display after lowercasing, so every input of
//!    the match predicate is a function of the key: fields sharing a key
//!    get the same verdict against any other label, and accept each
//!    other as [`MatchTier::String`] without being scored. Drifted
//!    corpora repeat labels heavily, so the work below runs over far
//!    fewer labels than fields.
//! 2. **Word relation** — Definition 1 decides a label pair through its
//!    content words' pairwise relations, so each distinct word (keyed by
//!    lemma) is prepared once — its interned stem key, its sorted synset
//!    ids (one lexicon `resolve` per word), its lemma and stem — and each
//!    *word pair* is decided once. Every word keeps a sorted list of
//!    partner words, each with its weakest sufficient relation: key
//!    (equal stems), then synonym (intersecting synsets), then, under the
//!    fuzzy tier, fuzzy ([`fuzzy_token_match`]). The relation is
//!    symmetric and every word is its own key partner. It is built from
//!    word-level postings (stem keys, synset ids and, under the fuzzy
//!    tier, signature characters): a new word is related only to the
//!    words it shares a posting with ([`Prepared::extend`]).
//! 3. **Candidate generation** — orientation `(a, b)` is a candidate
//!    exactly when every word of `a` has a partner in `b`, the
//!    predicate's per-word condition. A word's *reach* is the set of
//!    labels holding any of its partners, as a bitset; a label's
//!    candidates are the AND of its words' bitsets.
//! 4. **Scoring** — [`Prepared::tier`] is the label-key check, the
//!    word-count check and partner lookups, with no string compared and
//!    no allocation per pair. A candidate is rejected only by the
//!    word-count check.
//! 5. **Schema-aware union-find** — each root carries a schema bitset
//!    (`words × u64`); the clash check becomes a bitwise AND over
//!    `words` machine words and unions OR the bitsets together.
//! 6. **Deterministic merge** — accepted label pairs are expanded to
//!    their cross-schema field pairs and merged *in ascending `(i, j)`
//!    order*, exactly the order the naive double loop visits matching
//!    pairs. The union-find therefore evolves through the same state
//!    sequence and the output clusters are equal to the naive path's,
//!    regardless of worker count. On request the run records that
//!    sequence (the *pair log*), which [`crate::delta`] replays.
//!
//! The predicate is not symmetric: `match_tier_with(a, b)` asks whether
//! every word of `a` finds a partner in `b`, and the naive loop judges
//! field pair `(i, j)`, `i < j`, as `(label(i), label(j))`. A label pair
//! is therefore scored in each orientation some field pair needs (see
//! [`Groups::needs`]).
//!
//! # Why the candidate set is exact
//!
//! [`crate::matcher::labels_match_with`] accepts a pair only if (a) the
//! display strings are ASCII-case-equal, (b) the content-word key sets
//! are equal, or (c) word counts agree and every word of `a` has a key,
//! synonym or fuzzy partner among the words of `b`. Case (a) is the
//! shared label key. In case (b) every word of `a` has a key partner in
//! `b`, so every accepted orientation of two distinct labels is a
//! candidate, and a candidate whose word counts agree is accepted. A
//! non-empty label has at least one content word, so the rule is never
//! vacuous.
//!
//! The relation holds every related word pair. Stem-equal words share a
//! key posting and synonymous words share a synset posting. Under the
//! fuzzy tier each word is also posted under the first **and** second
//! characters of its stem and lemma. Abbreviations preserve the first
//! character, so abbreviation pairs share a first-character posting.
//! For the Levenshtein predicate the blocking is sound whenever every
//! accepted pair is within edit distance 1: a distance-1 pair either
//! keeps its first character (shared first posting) or edits position
//! 0, in which case the second characters align with the other string's
//! first or second character (shared posting either way). Whether a
//! distance-2 pair can be accepted is decided with the *same*
//! floating-point expression the similarity DP uses (see
//! [`blocking_sound`]), so rounding can never make the DP accept a pair
//! the blocking argument classified as rejected. Outside the sound
//! regime a new word is evaluated against every word — still exact, and
//! quadratic in distinct words rather than in labels or fields.

use crate::cluster::FieldRef;
use crate::matcher::{char_len, fuzzy_token_match, MatchStats, MatchTier, MatcherConfig};
use qi_lexicon::{Lexicon, SynsetId};
use qi_runtime::{parallel_map, resolve_threads};
use qi_text::LabelText;
use std::collections::HashMap;
use std::sync::Arc;

/// Fuzzy word-pair evaluations below this count run sequentially — the
/// corpus is small enough that spawning workers costs more than the
/// evaluations.
const PARALLEL_FUZZY_THRESHOLD: usize = 4096;

/// Word pairs handed to a pool worker per claim.
const FUZZY_CHUNK: usize = 1024;

/// Candidate labels per column block of [`candidate_label_pairs`]; caps
/// each word's reach bitset at 512 bytes.
const BLOCK_LABELS: usize = 4096;

/// Label id of a field without a non-empty label.
pub(crate) const NO_LABEL: u32 = u32::MAX;

/// A field with its normalized label, shared with the lexicon's
/// label-text memo.
pub(crate) type Field = (FieldRef, Option<Arc<LabelText>>);

pub(crate) fn pack(i: u32, j: u32) -> u64 {
    ((i as u64) << 32) | j as u64
}

pub(crate) fn unpack(packed: u64) -> (usize, usize) {
    ((packed >> 32) as usize, (packed & 0xFFFF_FFFF) as usize)
}

/// What one indexed run computed, for callers that keep its state
/// (the delta matcher's carry).
pub(crate) struct IndexedRun {
    /// Union-find root of every field.
    pub roots: Vec<usize>,
    /// Each field's distinct label id, or [`NO_LABEL`].
    pub label_of: Vec<u32>,
    /// Label key → distinct label id.
    pub by_key: HashMap<String, u32>,
    /// The distinct labels in scoring form.
    pub prepared: Prepared,
    /// Every accepted field pair `(i, j)`, `i < j`, packed, in merge
    /// order; empty unless requested.
    pub log: Vec<u64>,
}

/// Compute the connected components of the match graph without
/// materializing it: group fields by label key, prepare the distinct
/// labels and relate their words, take the candidate label pairs from
/// partner reach, score them, and merge the accepted field pairs in
/// deterministic order. `fields` must be in schema order, as
/// [`crate::matcher::collect_fields`] emits them. Pair volumes and index
/// shape are accumulated into `stats` (plain local counters — no
/// telemetry calls on this path). The run's state is returned for
/// callers that keep it; with `record`, that includes the pair log.
pub(crate) fn indexed_run(
    fields: &[Field],
    lexicon: &Lexicon,
    config: MatcherConfig,
    stats: &mut MatchStats,
    record: bool,
) -> IndexedRun {
    debug_assert!(fields.windows(2).all(|w| w[0].0.schema <= w[1].0.schema));
    let groups = Groups::new(fields);
    let prepared = Prepared::new(&groups.labels, lexicon, config);
    prepared.record_shape(stats);
    // Same-key field pairs are decided without scoring.
    let same_key: u64 = (0..groups.len()).map(|g| groups.self_pairs(g)).sum();
    stats.pairs_scored += same_key;
    let candidates = candidate_label_pairs(&groups, &prepared, stats);
    stats.label_pairs_scored += candidates.len() as u64;
    let accepted = candidates
        .into_iter()
        .filter_map(|packed| {
            let (a, b) = unpack(packed);
            let tier = prepared.tier(a as u32, b as u32)?;
            Some((packed, tier))
        })
        .collect();
    let schema_count = fields.iter().map(|(f, _)| f.schema + 1).max().unwrap_or(0);
    let mut uf = SchemaUnionFind::new(fields.iter().map(|(f, _)| f.schema), schema_count);
    let mut log = Vec::new();
    merge_accepted(
        fields,
        &groups,
        accepted,
        &mut uf,
        stats,
        record.then_some(&mut log),
    );
    IndexedRun {
        roots: (0..fields.len()).map(|i| uf.find(i)).collect(),
        label_of: groups.of_field,
        by_key: groups.by_key,
        prepared,
        log,
    }
}
/// Fields grouped by label key (the ASCII-lowercased display form).
/// Groups are numbered in order of their first field.
struct Groups<'a> {
    /// Each group's representative label (its first field's).
    labels: Vec<&'a LabelText>,
    /// Each group's fields, ascending.
    members: Vec<Vec<u32>>,
    /// Each group's fields per schema as `(schema, count)`, ascending.
    schemas: Vec<Vec<(u32, u32)>>,
    /// Each field's group, or [`NO_LABEL`].
    of_field: Vec<u32>,
    /// Label key → group.
    by_key: HashMap<String, u32>,
}

impl<'a> Groups<'a> {
    fn new(fields: &'a [Field]) -> Self {
        let mut groups = Groups {
            labels: Vec::new(),
            members: Vec::new(),
            schemas: Vec::new(),
            of_field: Vec::with_capacity(fields.len()),
            by_key: HashMap::new(),
        };
        for (i, (field, label)) in fields.iter().enumerate() {
            let Some(label) = label.as_deref().filter(|l| !l.is_empty()) else {
                groups.of_field.push(NO_LABEL);
                continue;
            };
            let next = groups.labels.len() as u32;
            let g = *groups.by_key.entry(label_key(label)).or_insert(next);
            if g == next {
                groups.labels.push(label);
                groups.members.push(Vec::new());
                groups.schemas.push(Vec::new());
            }
            groups.members[g as usize].push(i as u32);
            let schema = field.schema as u32;
            match groups.schemas[g as usize].last_mut() {
                Some((last, count)) if *last == schema => *count += 1,
                _ => groups.schemas[g as usize].push((schema, 1)),
            }
            groups.of_field.push(g);
        }
        groups
    }

    fn len(&self) -> usize {
        self.labels.len()
    }

    /// Cross-schema field pairs inside group `g`.
    fn self_pairs(&self, g: usize) -> u64 {
        let n = self.members[g].len() as u64;
        let same: u64 = self.schemas[g]
            .iter()
            .map(|&(_, c)| c as u64 * c as u64)
            .sum();
        (n * n - same) / 2
    }

    /// Field pairs `(i, j)`, `i < j`, of different schemas with `i` in
    /// group `a` and `j` in group `b`: the field pairs whose verdict is
    /// the orientation `(a, b)`'s. Fields are in schema order, so these
    /// are the pairs whose `i` has the smaller schema.
    fn directed_pairs(&self, a: usize, b: usize) -> u64 {
        let ha = &self.schemas[a];
        let (mut x, mut before, mut total) = (0, 0u64, 0u64);
        for &(schema, count) in &self.schemas[b] {
            while x < ha.len() && ha[x].0 < schema {
                before += ha[x].1 as u64;
                x += 1;
            }
            total += before * count as u64;
        }
        total
    }

    /// Whether some field pair `(i, j)`, `i < j`, of different schemas
    /// has `i` in group `a` and `j` in group `b` — i.e. whether the naive
    /// loop ever judges the orientation `(a, b)`. Fields are in schema
    /// order, so this holds exactly when `a` has a field in a schema
    /// before one of `b`'s.
    fn needs(&self, a: usize, b: usize) -> bool {
        let last_b = &self.schemas[b][self.schemas[b].len() - 1];
        self.schemas[a][0].0 < last_b.0
    }
}

/// The grouping key of a non-empty label: its ASCII-lowercased display.
pub(crate) fn label_key(label: &LabelText) -> String {
    label.display.to_ascii_lowercase()
}

/// Distinct labels in scoring form, with the relation of their words.
/// Words are identified by lemma: a word's stem, synsets and fuzzy
/// verdicts are all functions of it.
///
/// A table only grows: [`Prepared::extend`] appends labels after the
/// ones it holds, so ids stay valid. The batch engine prepares its labels
/// in one call; the delta matcher's carry extends its table per append.
/// Rows are flat where they only grow at the end, and strings sit behind
/// `Arc`s, so a copy of a table copies no string.
#[derive(Debug, Clone, Default)]
pub(crate) struct Prepared {
    /// Per word: its lemma and stem.
    word: Vec<(Arc<str>, Arc<str>)>,
    /// Per word: its interned stem (the content-word key).
    word_key: Vec<u32>,
    /// Per word: its sorted, deduplicated synset ids.
    word_synsets: Rows<SynsetId>,
    /// Per word: its partners other than itself with their relations,
    /// ascending ([`Rel::pack`]).
    partners: Vec<Vec<u32>>,
    /// Per key id: its first word. The key's other words are that word's
    /// key partners.
    key_first: Vec<u32>,
    /// The words posted under each synset id and signature character.
    postings: WordPostings,
    /// The longest stem, in characters.
    max_stem_chars: usize,
    /// Per label: its word ids, in label order.
    label_words: Rows<u32>,
    /// Per label: its sorted, deduplicated key ids.
    label_keys: Rows<u32>,
    /// Stem → key id.
    stems: HashMap<Arc<str>, u32>,
    /// Lemma → word id.
    lemmas: HashMap<Arc<str>, u32>,
    config: MatcherConfig,
}

/// Variable-length rows stored back to back: row `i` ends at `ends[i]`
/// and starts where row `i - 1` ends.
#[derive(Debug, Clone, Default)]
struct Rows<T> {
    items: Vec<T>,
    ends: Vec<u32>,
}

impl<T: Copy> Rows<T> {
    fn push(&mut self, row: &[T]) {
        self.items.extend_from_slice(row);
        self.ends.push(self.items.len() as u32);
    }

    fn get(&self, i: u32) -> &[T] {
        let start = (i as usize).checked_sub(1).map_or(0, |p| self.ends[p]);
        &self.items[start as usize..self.ends[i as usize] as usize]
    }

    fn len(&self) -> usize {
        self.ends.len()
    }
}

/// Word-level postings: the words holding each synset id and, under the
/// fuzzy tier while signature blocking is sound, each signature character
/// ([`signature_chars`]).
#[derive(Debug, Clone, Default)]
struct WordPostings {
    synsets: HashMap<SynsetId, Vec<u32>>,
    chars: HashMap<char, Vec<u32>>,
}

/// How two words are related, by the weakest evidence that suffices, in
/// the order the match predicate probes the evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Rel {
    /// Equal stems.
    Key,
    /// Intersecting synsets.
    Synonym,
    /// The fuzzy tier ([`fuzzy_token_match`]).
    Fuzzy,
}

impl Rel {
    /// Partner `word` with this relation in one `u32`; packed partners
    /// sort by word.
    fn pack(self, word: u32) -> u32 {
        debug_assert!(word < 1 << 30);
        (word << 2) | self as u32
    }

    fn unpack(packed: u32) -> (u32, Rel) {
        let rel = match packed & 3 {
            0 => Rel::Key,
            1 => Rel::Synonym,
            _ => Rel::Fuzzy,
        };
        (packed >> 2, rel)
    }
}

impl Prepared {
    pub(crate) fn new(labels: &[&LabelText], lexicon: &Lexicon, config: MatcherConfig) -> Self {
        let mut prepared = Prepared {
            config,
            ..Prepared::default()
        };
        prepared.extend(labels, lexicon);
        prepared
    }

    /// Prepare `labels` (non-empty, with keys this table does not hold
    /// yet) as the labels following this table's, and relate their new
    /// words.
    pub(crate) fn extend(&mut self, labels: &[&LabelText], lexicon: &Lexicon) {
        let first_word = self.word.len() as u32;
        let (mut words, mut keys) = (Vec::new(), Vec::new());
        for label in labels {
            words.clear();
            keys.clear();
            for cw in &label.words {
                let w = match self.lemmas.get(&*cw.lemma) {
                    Some(&w) => w,
                    None => self.add_word(&cw.lemma, cw.key(), lexicon),
                };
                words.push(w);
                keys.push(self.word_key[w as usize]);
            }
            keys.sort_unstable();
            keys.dedup();
            self.label_words.push(&words);
            self.label_keys.push(&keys);
        }
        self.relate(first_word);
    }

    /// Add the word of `lemma`, which this table does not hold yet, and
    /// return its id. The word is related and posted by
    /// [`Prepared::relate`].
    fn add_word(&mut self, lemma: &str, stem: &str, lexicon: &Lexicon) -> u32 {
        let w = self.word.len() as u32;
        let lemma: Arc<str> = Arc::from(lemma);
        let (stem, key) = match self.stems.get_key_value(stem) {
            Some((stem, &key)) => (Arc::clone(stem), key),
            None => {
                let (stem, key) = (Arc::<str>::from(stem), self.stems.len() as u32);
                self.stems.insert(Arc::clone(&stem), key);
                self.key_first.push(w);
                (stem, key)
            }
        };
        let mut synsets = lexicon.resolve(&lemma);
        synsets.sort_unstable();
        synsets.dedup();
        self.word_synsets.push(&synsets);
        self.word_key.push(key);
        self.max_stem_chars = self.max_stem_chars.max(char_len(&stem));
        self.partners.push(Vec::new());
        self.lemmas.insert(Arc::clone(&lemma), w);
        self.word.push((lemma, stem));
        w
    }

    /// Relate words `first..` to every word before them and to each
    /// other, evaluating each pair once, and post them. A word's
    /// candidates are the words sharing its stem key (the key's first
    /// word and that word's key partners) or a posting, or every earlier
    /// word when signature blocking cannot find fuzzy partners
    /// ([`Prepared::all_pairs`]). Key and synonym partners are linked at
    /// once, so a later word of the same key finds them.
    fn relate(&mut self, first: u32) {
        let count = self.word.len() as u32;
        let (fuzzy, all_pairs) = (self.config.fuzzy, self.all_pairs());
        // `seen[y] == x` once pair (x, y) is related or queued.
        let mut seen = vec![u32::MAX; count as usize];
        let (mut found, mut unclassified, mut touched) = (Vec::new(), Vec::new(), Vec::new());
        for x in first..count {
            seen[x as usize] = x;
            found.clear();
            let key_first = self.key_first[self.word_key(x) as usize];
            if key_first != x {
                found.push((key_first, Rel::Key));
                found.extend(self.partners(key_first).filter(|&(_, rel)| rel == Rel::Key));
            }
            for sid in self.word_synsets(x) {
                let posted = self.postings.synsets.get(sid).into_iter().flatten();
                found.extend(posted.map(|&y| (y, Rel::Synonym)));
            }
            for &(y, rel) in &found {
                if seen[y as usize] != x {
                    seen[y as usize] = x;
                    self.link(x, y, rel, first, &mut touched);
                }
            }
            let mut queue = |y: u32| {
                if seen[y as usize] != x {
                    seen[y as usize] = x;
                    unclassified.push((x, y));
                }
            };
            if all_pairs {
                (0..x).for_each(queue);
            } else if fuzzy {
                for c in self.signature(x) {
                    let posted = self.postings.chars.get(&c);
                    posted.into_iter().flatten().for_each(|&y| queue(y));
                }
            }
            self.post(x, fuzzy && !all_pairs);
        }
        for (x, y) in self.fuzzy_partners(unclassified) {
            self.link(x, y, Rel::Fuzzy, first, &mut touched);
        }
        touched.sort_unstable();
        touched.dedup();
        for w in (first..count).chain(touched) {
            self.partners[w as usize].sort_unstable();
        }
    }

    /// Record `x` and `y` as partners with `rel`, noting `y` in `touched`
    /// if it is older than `first`, so its list is re-sorted.
    fn link(&mut self, x: u32, y: u32, rel: Rel, first: u32, touched: &mut Vec<u32>) {
        self.partners[x as usize].push(rel.pack(y));
        self.partners[y as usize].push(rel.pack(x));
        if y < first {
            touched.push(y);
        }
    }

    /// The queued word pairs the fuzzy tier accepts, in queue order. The
    /// verdicts are pure, so a large queue fans out on the bounded pool.
    fn fuzzy_partners(&self, queue: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
        let accept =
            |&(x, y): &(u32, u32)| fuzzy_token_match(self.word(x), self.word(y), self.config);
        if queue.len() < PARALLEL_FUZZY_THRESHOLD || resolve_threads(self.config.threads) <= 1 {
            return queue.into_iter().filter(accept).collect();
        }
        let chunks: Vec<&[(u32, u32)]> = queue.chunks(FUZZY_CHUNK).collect();
        parallel_map(&chunks, self.config.threads, |_, chunk| {
            chunk.iter().copied().filter(accept).collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Post word `w` under its synsets and, with `signature`, its
    /// signature characters.
    fn post(&mut self, w: u32, signature: bool) {
        let postings = &mut self.postings;
        for &sid in self.word_synsets.get(w) {
            postings.synsets.entry(sid).or_default().push(w);
        }
        if signature {
            let (lemma, stem) = &self.word[w as usize];
            for c in signature_chars(stem, lemma) {
                postings.chars.entry(c).or_default().push(w);
            }
        }
    }

    /// Whether fuzzy partners are sought among all word pairs, because
    /// signature postings cannot find them at this table's longest stem
    /// ([`blocking_sound`]). Stems only grow longer as the table grows,
    /// so once set this stays set.
    pub(crate) fn all_pairs(&self) -> bool {
        self.config.fuzzy && !blocking_sound(self.max_stem_chars, self.config)
    }

    /// Copy the shape of the word postings into `stats`.
    fn record_shape(&self, stats: &mut MatchStats) {
        let postings = &self.postings;
        let key_words = (self.key_first.iter())
            .map(|&w| 1 + self.partners(w).filter(|&(_, rel)| rel == Rel::Key).count());
        stats.stem_buckets = self.key_first.len() as u64;
        stats.synset_buckets = postings.synsets.len() as u64;
        stats.fuzzy_buckets = postings.chars.len() as u64;
        stats.max_bucket_size = (postings.synsets.values())
            .chain(postings.chars.values())
            .map(Vec::len)
            .chain(key_words)
            .max()
            .unwrap_or(0) as u64;
        stats.streaming_fallback = self.all_pairs();
    }

    /// The number of labels; label ids are `0..label_count()`.
    pub(crate) fn label_count(&self) -> u32 {
        self.label_words.len() as u32
    }

    fn word_key(&self, w: u32) -> u32 {
        self.word_key[w as usize]
    }

    fn word_synsets(&self, w: u32) -> &[SynsetId] {
        self.word_synsets.get(w)
    }

    /// Word `w` as `(lemma, stem)`.
    fn word(&self, w: u32) -> (&str, &str) {
        let (lemma, stem) = &self.word[w as usize];
        (lemma, stem)
    }

    /// The fuzzy signature characters of word `w`.
    fn signature(&self, w: u32) -> impl Iterator<Item = char> {
        let (lemma, stem) = self.word(w);
        signature_chars(stem, lemma)
    }

    fn label_words(&self, l: u32) -> &[u32] {
        self.label_words.get(l)
    }

    /// The partners of word `w` other than itself, with their relations.
    fn partners(&self, w: u32) -> impl Iterator<Item = (u32, Rel)> + '_ {
        self.partners[w as usize].iter().map(|&p| Rel::unpack(p))
    }

    /// Word `w` and its partners: the words a label holding `w` matches.
    fn reach(&self, w: u32) -> impl Iterator<Item = u32> + '_ {
        std::iter::once(w).chain(self.partners(w).map(|(y, _)| y))
    }

    /// The relation of words `x` and `y`, if they are partners.
    fn rel(&self, x: u32, y: u32) -> Option<Rel> {
        if x == y {
            return Some(Rel::Key);
        }
        let list = &self.partners[x as usize];
        let i = list.binary_search_by_key(&y, |&p| p >> 2).ok()?;
        Some(Rel::unpack(list[i]).1)
    }

    /// The labels below `below`, other than `p`, every word of which has
    /// a partner in label `p`: the candidate rule in the orientation
    /// `(a, p)`. Ascending, into `hits`.
    pub(crate) fn covered_by(&self, p: u32, below: u32, hits: &mut Vec<u32>) {
        let mut reach = vec![false; self.word.len()];
        for &w in self.label_words(p) {
            self.reach(w).for_each(|y| reach[y as usize] = true);
        }
        hits.clear();
        hits.extend(
            (0..below)
                .filter(|&a| a != p && (self.label_words(a).iter()).all(|&w| reach[w as usize])),
        );
    }

    /// [`crate::matcher::match_tier_with`] on the representatives of
    /// distinct labels `a` and `b` (whose keys differ, so they are never
    /// string-equal), evaluated on the prepared form: the same checks in
    /// the same order, so the same verdict and tier. A word's tier is its
    /// weakest relation to a word of `b`; the pair's is the strongest
    /// over the words of `a`.
    pub(crate) fn tier(&self, a: u32, b: u32) -> Option<MatchTier> {
        if self.label_keys.get(a) == self.label_keys.get(b) {
            return Some(MatchTier::WordSet);
        }
        let (words_a, words_b) = (self.label_words(a), self.label_words(b));
        if words_a.len() != words_b.len() {
            return None;
        }
        let mut needed = Rel::Key;
        for &x in words_a {
            let rel = words_b.iter().filter_map(|&y| self.rel(x, y)).min()?;
            needed = needed.max(rel);
        }
        Some(match needed {
            Rel::Key => MatchTier::WordSet,
            Rel::Synonym => MatchTier::Synonym,
            Rel::Fuzzy => MatchTier::Fuzzy,
        })
    }
}

/// Emit the directed candidates `(a, b)`: [`Groups::needs`] holds and
/// every word of `a` has a partner in `b`. Per word, the labels holding
/// any of its partners form its reach bitset (filled from each label's
/// words' partners, the relation being symmetric); a label's candidates
/// are the AND of its words' bitsets. Columns are taken [`BLOCK_LABELS`]
/// at a time, so the bitsets cost at most `words × BLOCK_LABELS / 8`
/// bytes. Word counts are not compared here: that check is the scorer's.
fn candidate_label_pairs(groups: &Groups, prepared: &Prepared, stats: &mut MatchStats) -> Vec<u64> {
    let labels = groups.len();
    let row = labels.min(BLOCK_LABELS).div_ceil(64);
    let mut reach = vec![0u64; prepared.word.len() * row];
    let mut both = vec![0u64; row];
    let mut directed = Vec::new();
    for start in (0..labels).step_by(BLOCK_LABELS) {
        let end = (start + BLOCK_LABELS).min(labels);
        reach.fill(0);
        for l in start..end {
            let (col, bit) = ((l - start) / 64, 1 << ((l - start) % 64));
            for &w in prepared.label_words(l as u32) {
                prepared
                    .reach(w)
                    .for_each(|y| reach[y as usize * row + col] |= bit);
            }
        }
        for a in 0..labels {
            // A non-empty label has at least one content word.
            let Some((&first, rest)) = prepared.label_words(a as u32).split_first() else {
                continue;
            };
            both.copy_from_slice(&reach[first as usize * row..][..row]);
            for &w in rest {
                let bits = &reach[w as usize * row..][..row];
                both.iter_mut().zip(bits).for_each(|(x, y)| *x &= y);
            }
            for (k, mut bits) in both.iter().copied().enumerate() {
                while bits != 0 {
                    let b = start + k * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if b != a && groups.needs(a, b) {
                        stats.pairs_scored += groups.directed_pairs(a, b);
                        directed.push(pack(a as u32, b as u32));
                    }
                }
            }
        }
    }
    directed
}

/// Expand accepted label pairs (plus every group with itself, as
/// [`MatchTier::String`]) to their cross-schema field pairs `(i, j)`,
/// `i < j`, and merge them in ascending `(i, j)` order — the naive
/// loop's order — counting each accept under its pair's tier, and
/// appending each pair to `log` when one is given.
fn merge_accepted(
    fields: &[Field],
    groups: &Groups,
    mut accepted: Vec<(u64, MatchTier)>,
    uf: &mut SchemaUnionFind,
    stats: &mut MatchStats,
    mut log: Option<&mut Vec<u64>>,
) {
    accepted.sort_unstable_by_key(|&(packed, _)| packed);
    let mut row: Vec<(u32, MatchTier)> = Vec::new();
    for (i, &a) in groups.of_field.iter().enumerate() {
        if a == NO_LABEL {
            continue;
        }
        let schema = fields[i].0.schema;
        let lo = accepted.partition_point(|&(p, _)| p < pack(a, 0));
        let hi = accepted.partition_point(|&(p, _)| p < pack(a + 1, 0));
        let partners = std::iter::once((a as usize, MatchTier::String)).chain(
            accepted[lo..hi]
                .iter()
                .map(|&(p, tier)| (unpack(p).1, tier)),
        );
        row.clear();
        for (b, tier) in partners {
            let members = &groups.members[b];
            let after = members.partition_point(|&j| j as usize <= i);
            row.extend(
                members[after..]
                    .iter()
                    .filter(|&&j| fields[j as usize].0.schema != schema)
                    .map(|&j| (j, tier)),
            );
        }
        row.sort_unstable_by_key(|&(j, _)| j);
        if let Some(log) = log.as_deref_mut() {
            log.extend(row.iter().map(|&(j, _)| pack(i as u32, j)));
        }
        for &(j, tier) in &row {
            stats.count_accept(tier);
            if uf.merge(i, j as usize) {
                stats.clusters_merged += 1;
            }
        }
    }
}

/// True when first/second-character buckets are an exhaustive blocking
/// for the fuzzy Levenshtein predicate on stems of at most
/// `max_stem_chars` characters: threshold positive and every acceptable
/// pair within edit distance 1.
///
/// Whether a distance-2 pair can be accepted is decided with the *same*
/// floating-point expression `normalized_levenshtein` acceptance uses —
/// `1.0 - distance / length >= min_similarity` — never an algebraic
/// rearrangement of it. E.g. at `min_similarity = 0.8` with 10-char
/// stems, `1.0 - 2.0 / 10.0` rounds to exactly `0.8` (accepted by the
/// DP) while the rearranged `(1 - 0.8) * 10` rounds to
/// `1.9999999999999996 < 2` — deciding with the latter would declare
/// blocking sound and silently drop the match. Division is monotone, so
/// if no stem length admits an accepted distance-2 pair, no distance ≥ 2
/// pair is accepted at all.
pub(crate) fn blocking_sound(max_stem_chars: usize, config: MatcherConfig) -> bool {
    if config.min_similarity <= 0.0 {
        // Distance-1 substitutions between single-character stems score
        // 0.0 and share no signature character, so a non-positive
        // threshold is never blockable.
        return false;
    }
    !(2..=max_stem_chars).any(|len| 1.0 - 2.0 / (len as f64) >= config.min_similarity)
}

/// The signature characters of one content word: first and second
/// characters of its stem and of its lemma (deduplicated).
pub(crate) fn signature_chars(stem: &str, lemma: &str) -> impl Iterator<Item = char> {
    let mut out: [Option<char>; 4] = [None; 4];
    let mut n = 0;
    for c in stem.chars().take(2).chain(lemma.chars().take(2)) {
        if !out[..n].contains(&Some(c)) {
            out[n] = Some(c);
            n += 1;
        }
    }
    out.into_iter().flatten()
}

/// Union-find whose roots carry a schema bitset, turning the
/// same-schema clash check from an O(n) membership scan into an
/// O(words) bitwise AND.
pub(crate) struct SchemaUnionFind {
    parent: Vec<u32>,
    /// Row-major `n × words` bitset storage; only root rows are kept
    /// current.
    bits: Vec<u64>,
    words: usize,
}

impl SchemaUnionFind {
    /// One singleton per element of `schemas` (each element's schema
    /// index, below `schema_count`).
    pub(crate) fn new(schemas: impl Iterator<Item = usize>, schema_count: usize) -> Self {
        let words = schema_count.div_ceil(64).max(1);
        let mut bits = Vec::with_capacity(schemas.size_hint().0 * words);
        for schema in schemas {
            let row = bits.len();
            bits.resize(row + words, 0u64);
            bits[row + schema / 64] |= 1u64 << (schema % 64);
        }
        SchemaUnionFind {
            parent: (0..(bits.len() / words) as u32).collect(),
            bits,
            words,
        }
    }

    pub(crate) fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] as usize != cur {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root
    }

    /// Union the components of `i` and `j` unless they share a schema.
    /// Mirrors the naive merge exactly: same no-op on equal roots, same
    /// clash predicate, same root orientation (`root(i) → root(j)`).
    /// Returns whether two components were actually united.
    pub(crate) fn merge(&mut self, i: usize, j: usize) -> bool {
        let ri = self.find(i);
        let rj = self.find(j);
        if ri == rj {
            return false;
        }
        let clash = (0..self.words)
            .any(|w| self.bits[ri * self.words + w] & self.bits[rj * self.words + w] != 0);
        if clash {
            return false;
        }
        self.parent[ri] = rj as u32;
        for w in 0..self.words {
            let from = self.bits[ri * self.words + w];
            self.bits[rj * self.words + w] |= from;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::{collect_fields, match_tier_with};
    use qi_datasets::{generate_drift_corpus, DriftConfig};

    #[test]
    fn pack_unpack_roundtrip() {
        for (i, j) in [(0u32, 1u32), (7, 4_000_000), (u32::MAX - 1, u32::MAX)] {
            assert_eq!(unpack(pack(i, j)), (i as usize, j as usize));
        }
        // Packed order is (i, j) lexicographic order.
        assert!(pack(1, 9) < pack(2, 3));
        assert!(pack(2, 3) < pack(2, 4));
        for (w, rel) in [
            (0, Rel::Key),
            (5, Rel::Synonym),
            ((1 << 30) - 1, Rel::Fuzzy),
        ] {
            assert_eq!(Rel::unpack(rel.pack(w)), (w, rel));
        }
        assert!(Rel::Fuzzy.pack(4) < Rel::Key.pack(5));
    }

    #[test]
    fn signature_chars_dedup() {
        let sig: Vec<char> = signature_chars("aa", "ab").collect();
        assert_eq!(sig, vec!['a', 'b']);
        let sig: Vec<char> = signature_chars("qty", "quantity").collect();
        assert_eq!(sig, vec!['q', 't', 'u']);
        let sig: Vec<char> = signature_chars("x", "x").collect();
        assert_eq!(sig, vec!['x']);
    }

    #[test]
    fn prefix_blocking_soundness_uses_dp_expression() {
        let lex = Lexicon::builtin();
        let all_pairs = |raw: &str, min_similarity: f64| {
            let config = MatcherConfig {
                fuzzy: true,
                min_similarity,
                ..MatcherConfig::default()
            };
            Prepared::new(&[&lex.label_text(raw)], &lex, config).all_pairs()
        };
        // 10-char stem at min_similarity = 0.8: 1 - 2/10 rounds to
        // exactly 0.8, so the DP accepts a distance-2 pair and blocking
        // must be declared unsound. The rearranged (1 - 0.8)*10 < 2
        // check got this wrong.
        assert!(all_pairs("abcdefghij", 0.8));
        // Nudged above the boundary, distance-2 pairs are rejected again.
        assert!(!all_pairs("abcdefghij", 0.8 + 1e-9));
        // Other round thresholds that tripped the rearranged check.
        assert!(all_pairs("abcdefghijklmnopqrst", 0.9));
        assert!(all_pairs("abcdef", 2.0 / 3.0));
        // Short stems stay sound at a strict threshold.
        assert!(!all_pairs("abc", 0.8));
    }

    #[test]
    fn groups_key_on_lowercased_display_and_count_cross_pairs() {
        let lex = Lexicon::builtin();
        let field = |schema: usize, raw: Option<&str>| {
            (
                FieldRef::new(schema, qi_schema::NodeId::ROOT),
                raw.map(|r| lex.label_text(r)),
            )
        };
        let fields = vec![
            field(0, Some("Zip Code")),
            field(0, Some("zip-code")),
            field(1, Some("ZIP code:")),
            field(1, None),
            field(1, Some("(none)")),
            field(2, Some("City")),
            field(2, Some("zip code")),
        ];
        let groups = Groups::new(&fields);
        assert_eq!(groups.len(), 2, "{:?}", groups.members);
        assert_eq!(groups.members, vec![vec![0, 1, 2, 6], vec![5]]);
        assert_eq!(groups.of_field[3], NO_LABEL);
        assert_eq!(groups.of_field[4], NO_LABEL, "empty display is unlabeled");
        // Zip group: schemas {0: 2, 1: 1, 2: 1} -> 2 + 2 + 1 cross pairs.
        assert_eq!(groups.self_pairs(0), 5);
        assert_eq!(groups.directed_pairs(0, 1), 3);
        assert_eq!(groups.directed_pairs(1, 0), 0);
        // City (schema 2) never precedes a zip field of another schema.
        assert!(groups.needs(0, 1));
        assert!(!groups.needs(1, 0));
    }

    /// The drift corpus both relation tests sweep.
    fn drift_domains(seed: u64, domains: usize, lexicon: &Lexicon) -> Vec<qi_datasets::Domain> {
        generate_drift_corpus(
            &DriftConfig {
                seed,
                domains,
                interfaces: 10,
                ..DriftConfig::default()
            },
            lexicon,
        )
    }

    /// A label whose 20-character stem makes signature blocking unsound
    /// at every threshold the sweeps use (drift corpora are already
    /// unsound at 0.8, and sound at 0.85).
    const LONG_STEM: &str = "Qxzvbnmlkjhgfdsapoiu";

    /// Typos of one word at position 0 (a substitution and an
    /// insertion): fuzzy partners at 0.85 that share no first character,
    /// only a second one.
    const POSITION_ZERO: [&str; 3] = ["Departure", "Xeparture", "Ydeparture"];

    /// The sweeps' configurations, each in both blocking regimes: the
    /// unsound one is forced by appending [`LONG_STEM`] to the labels.
    fn sweep() -> impl Iterator<Item = (MatcherConfig, bool)> {
        [0.85, 0.8].into_iter().flat_map(|min_similarity| {
            [false, true].into_iter().flat_map(move |fuzzy| {
                let config = MatcherConfig {
                    fuzzy,
                    min_similarity,
                    ..MatcherConfig::default()
                };
                [(config, false), (config, true)]
            })
        })
    }

    /// Pairwise classification of words `x` and `y` straight from their
    /// stem keys, synsets and forms: the relation the table must hold.
    fn classify(prepared: &Prepared, x: u32, y: u32) -> Option<Rel> {
        let (sx, sy) = (prepared.word_synsets(x), prepared.word_synsets(y));
        if prepared.word_key(x) == prepared.word_key(y) {
            Some(Rel::Key)
        } else if sx.iter().any(|s| sy.contains(s)) {
            Some(Rel::Synonym)
        } else if prepared.config.fuzzy
            && fuzzy_token_match(prepared.word(x), prepared.word(y), prepared.config)
        {
            Some(Rel::Fuzzy)
        } else {
            None
        }
    }

    /// The word relation is the pairwise classification: on drift
    /// corpora at both fuzzy thresholds, with the fuzzy tier on and off
    /// and in both blocking regimes, every ordered word pair's relation
    /// equals the one `classify` derives from `word_key`, `word_synsets`
    /// and `fuzzy_token_match`, whether the table was prepared in one
    /// call or extended in two (the delta carry's path).
    #[test]
    fn word_relation_equals_pairwise_classification() {
        let lexicon = Lexicon::builtin();
        let long = lexicon.label_text(LONG_STEM);
        let typos = POSITION_ZERO.map(|raw| lexicon.label_text(raw));
        let mut rels = [0usize; 3];
        let mut regimes = [0usize; 2];
        for domain in &drift_domains(0x5EED_0024, 2, &lexicon) {
            let fields = collect_fields(&domain.schemas, &lexicon);
            let mut labels = Groups::new(&fields).labels;
            labels.extend(typos.iter().map(|label| &**label));
            let mut with_long = labels.clone();
            with_long.push(&long);
            let half = labels.len() / 2;
            for (config, unsound) in sweep() {
                let labels = if unsound { &with_long } else { &labels };
                let whole = Prepared::new(labels, &lexicon, config);
                let mut split = Prepared::new(&labels[..half], &lexicon, config);
                split.extend(&labels[half..], &lexicon);
                for prepared in [&whole, &split] {
                    if unsound {
                        assert_eq!(prepared.all_pairs(), config.fuzzy, "{config:?}");
                    }
                    regimes[prepared.all_pairs() as usize] += config.fuzzy as usize;
                    let words = prepared.word.len() as u32;
                    for x in 0..words {
                        let list = &prepared.partners[x as usize];
                        assert!(list.windows(2).all(|p| p[0] >> 2 < p[1] >> 2));
                        for y in 0..words {
                            let expected = classify(prepared, x, y);
                            assert_eq!(
                                prepared.rel(x, y),
                                expected,
                                "{:?} ~ {:?} at {config:?}, unsound {unsound}",
                                prepared.word(x),
                                prepared.word(y)
                            );
                            if let Some(rel) = expected.filter(|_| x != y) {
                                rels[rel as usize] += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(rels.iter().all(|&n| n > 0), "relation counts {rels:?}");
        assert!(regimes.iter().all(|&n| n > 0), "fuzzy regimes {regimes:?}");
    }

    /// The prepared scorer is the match predicate: on every ordered pair
    /// of distinct labels of a drift corpus, at both fuzzy thresholds the
    /// drift tests use and with the fuzzy tier on and off, it returns the
    /// same verdict and tier as `match_tier_with`.
    #[test]
    fn prepared_scorer_agrees_with_predicate_on_drift_labels() {
        let lexicon = Lexicon::builtin();
        let mut tiers = [0usize; 4];
        for domain in &drift_domains(0x5EED_0013, 2, &lexicon) {
            let fields = collect_fields(&domain.schemas, &lexicon);
            let groups = Groups::new(&fields);
            for min_similarity in [0.85, 0.8] {
                for fuzzy in [false, true] {
                    let config = MatcherConfig {
                        fuzzy,
                        min_similarity,
                        ..MatcherConfig::default()
                    };
                    let prepared = Prepared::new(&groups.labels, &lexicon, config);
                    for a in 0..groups.len() {
                        for b in (0..groups.len()).filter(|&b| b != a) {
                            let (la, lb) = (groups.labels[a], groups.labels[b]);
                            let expected = match_tier_with(la, lb, &lexicon, config);
                            assert_eq!(
                                prepared.tier(a as u32, b as u32),
                                expected,
                                "{:?} vs {:?} at {config:?}",
                                la.raw,
                                lb.raw
                            );
                            if let Some(tier) = expected {
                                tiers[tier as usize] += 1;
                            }
                        }
                    }
                }
            }
        }
        // Every tier but String (distinct labels never share a key) is
        // exercised, or the corpus degenerated.
        assert!(tiers[1..].iter().all(|&n| n > 0), "tier counts {tiers:?}");
    }

    /// The candidate list is exact: on drift corpora, at both fuzzy
    /// thresholds, with the fuzzy tier on and off and in both blocking
    /// regimes, the candidates are exactly the needed orientations in
    /// which every word has a partner by `classify`; every accepted
    /// orientation is among them, and a candidate is rejected only for
    /// unequal word counts.
    #[test]
    fn conjunctive_candidates_cover_every_accepted_pair() {
        let lexicon = Lexicon::builtin();
        let (mut accepted, mut by_count, mut regimes) = (0, 0, [0usize; 2]);
        for domain in &drift_domains(0x5EED_0020, 4, &lexicon) {
            let mut sound = collect_fields(&domain.schemas, &lexicon);
            // One more schema: a superset of the first label, which only
            // the word-count check rejects against it.
            let schema = sound.last().map_or(0, |(f, _)| f.schema + 1);
            let first = Groups::new(&sound).labels[0].display.clone();
            let extra = |raw: &str| {
                let field = FieldRef::new(schema, qi_schema::NodeId::ROOT);
                (field, Some(lexicon.label_text(raw)))
            };
            sound.push(extra(&format!("{first} Qqqq")));
            sound.extend(POSITION_ZERO.map(extra));
            let mut unsound_fields = sound.clone();
            unsound_fields.push(extra(LONG_STEM));
            for (config, unsound) in sweep() {
                let groups = Groups::new(if unsound { &unsound_fields } else { &sound });
                let prepared = Prepared::new(&groups.labels, &lexicon, config);
                regimes[prepared.all_pairs() as usize] += config.fuzzy as usize;
                let candidates =
                    candidate_label_pairs(&groups, &prepared, &mut MatchStats::default());
                let mut sorted = candidates.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), candidates.len(), "duplicate candidates");
                let mut expected = Vec::new();
                for a in 0..groups.len() {
                    for b in (0..groups.len()).filter(|&b| b != a && groups.needs(a, b)) {
                        let (words_a, words_b) = (
                            prepared.label_words(a as u32),
                            prepared.label_words(b as u32),
                        );
                        if words_a
                            .iter()
                            .all(|&x| words_b.iter().any(|&y| classify(&prepared, x, y).is_some()))
                        {
                            expected.push(pack(a as u32, b as u32));
                        }
                        match prepared.tier(a as u32, b as u32) {
                            Some(_) => accepted += 1,
                            None => continue,
                        }
                        assert!(
                            sorted.binary_search(&pack(a as u32, b as u32)).is_ok(),
                            "{:?} -> {:?} accepted but not a candidate at {config:?}",
                            groups.labels[a].raw,
                            groups.labels[b].raw
                        );
                    }
                }
                assert_eq!(
                    sorted, expected,
                    "candidate set at {config:?}, unsound {unsound}"
                );
                for &packed in &sorted {
                    let (a, b) = unpack(packed);
                    if prepared.tier(a as u32, b as u32).is_none() {
                        by_count += 1;
                        assert_ne!(
                            prepared.label_words(a as u32).len(),
                            prepared.label_words(b as u32).len(),
                            "{:?} -> {:?} is a candidate the word relation rejects",
                            groups.labels[a].raw,
                            groups.labels[b].raw
                        );
                    }
                }
            }
        }
        assert!(accepted > 0 && by_count > 0, "{accepted} {by_count}");
        assert!(regimes.iter().all(|&n| n > 0), "fuzzy regimes {regimes:?}");
    }

    #[test]
    fn bitset_union_find_enforces_schema_invariant() {
        // Three fields: schemas 0, 1, 0. (0,1) may merge; (1,2) then
        // clashes because the component already contains schema 0.
        let fields: Vec<Field> = vec![
            (FieldRef::new(0, qi_schema::NodeId::ROOT), None),
            (FieldRef::new(1, qi_schema::NodeId::ROOT), None),
            (FieldRef::new(0, qi_schema::NodeId::ROOT), None),
        ];
        let mut uf = SchemaUnionFind::new(fields.iter().map(|(f, _)| f.schema), 2);
        uf.merge(0, 1);
        assert_eq!(uf.find(0), uf.find(1));
        uf.merge(1, 2);
        assert_ne!(uf.find(1), uf.find(2), "clash must block the merge");
        // Merging inside one component is a no-op, not a clash panic.
        uf.merge(0, 1);
        assert_eq!(uf.find(0), uf.find(1));
    }

    #[test]
    fn bitset_union_find_spans_many_words() {
        // 130 schemas forces a 3-word bitset; chain unions across words.
        let fields: Vec<Field> = (0..130)
            .map(|s| (FieldRef::new(s, qi_schema::NodeId::ROOT), None))
            .collect();
        let mut uf = SchemaUnionFind::new(fields.iter().map(|(f, _)| f.schema), 130);
        for i in 1..130 {
            uf.merge(0, i);
        }
        let root = uf.find(0);
        assert!((0..130).all(|i| uf.find(i) == root));
    }
}
