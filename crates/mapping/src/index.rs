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
//! 2. **Prepared labels** — each distinct label is prepared once: its
//!    sorted interned key ids, and per distinct word its key id, its
//!    sorted synset ids (one lexicon `resolve` per word) and its lemma
//!    and stem. A label pair is then scored by id comparison and
//!    sorted-slice intersection, plus a per-run memo of word-pair fuzzy
//!    verdicts, with no allocation per pair ([`Prepared::tier`]).
//! 3. **Candidate generation** — inverted postings over the distinct
//!    labels: interned stem keys, lexicon synset ids (so synonym pairs
//!    land in the same posting list without pairwise `are_synonyms`
//!    probes), and, under the fuzzy tier, first/second character
//!    signature buckets covering the abbreviation and
//!    bounded-Levenshtein predicates. The rule is conjunctive and
//!    directed: orientation `(a, b)` is scored only when *every* word of
//!    `a` shares a posting with some word of `b`. Per word, the labels
//!    its postings reach form a bitset; a label's candidates are the AND
//!    of its words' bitsets.
//! 4. **Schema-aware union-find** — each root carries a schema bitset
//!    (`words × u64`); the clash check becomes a bitwise AND over
//!    `words` machine words and unions OR the bitsets together.
//! 5. **Deterministic merge** — accepted label pairs are expanded to
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
//! # Why the candidate set is exhaustive
//!
//! [`crate::matcher::labels_match_with`] accepts a pair only if (a) the
//! display strings are ASCII-case-equal, (b) the content-word key sets
//! are equal, or (c) word counts agree and every word of `a` matches a
//! word of `b` via stem equality, synonymy, or the fuzzy tier. Case (a)
//! is the shared label key. In case (b) every word of `a` has a word of
//! `b` with its key; in case (c) every word of `a` has a key, synonym or
//! fuzzy partner in `b`. Each such partner shares a posting with it:
//! stem-equal words share a stem posting; synonymous words resolve to
//! intersecting synset id sets and share a synset posting; fuzzy
//! partners share a signature bucket (see below). So in every accepted
//! orientation `(a, b)`, every word of `a` shares a posting with some
//! word of `b`, which is the candidate rule. A non-empty label has at
//! least one content word, so the rule is never vacuous.
//!
//! The fuzzy signature posts each content word under the first **and**
//! second characters of its stem and lemma. Abbreviations preserve the
//! first character, so abbreviation pairs share a first-character
//! bucket. For the Levenshtein predicate the blocking is sound whenever
//! every accepted pair is within edit distance 1: a distance-1 pair
//! either keeps its first character (shared first bucket) or edits
//! position 0, in which case the second characters align with the other
//! string's first or second character (shared bucket either way).
//! Whether a distance-2 pair can be accepted is decided with the *same*
//! floating-point expression the similarity DP uses (see
//! [`prefix_blocking_sound`]), so rounding can never make the DP accept
//! a pair the blocking argument classified as rejected. Outside the
//! sound regime every pair of distinct labels with a cross-schema field
//! pair is a candidate; those pairs are streamed through fixed-size
//! blocks — still exact, no longer sub-quadratic in time, but O(block)
//! rather than O(labels²) candidate memory.

use crate::cluster::FieldRef;
use crate::matcher::{fuzzy_token_match, MatchStats, MatchTier, MatcherConfig};
use qi_lexicon::{Lexicon, SynsetId};
use qi_runtime::{parallel_map, resolve_threads};
use qi_text::LabelText;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Candidate counts below this are scored sequentially — the corpus is
/// small enough that spawning workers costs more than the scoring.
const PARALLEL_SCORING_THRESHOLD: usize = 4096;

/// Candidates handed to a pool worker per claim; each chunk keeps its
/// own fuzzy memo.
const SCORING_CHUNK: usize = 1024;

/// Directed label pairs buffered per scoring block in the universal-fuzzy
/// regime; caps peak candidate memory at `BLOCK_PAIRS × 8` bytes while
/// keeping blocks large enough to fan out on the pool.
const BLOCK_PAIRS: usize = 1 << 16;

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
/// labels, generate candidate label pairs from postings, score them (in
/// parallel when worthwhile), and merge the accepted field pairs in
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
    // Same-key field pairs are decided without scoring.
    let same_key: u64 = (0..groups.len()).map(|g| groups.self_pairs(g)).sum();
    stats.pairs_scored += same_key;
    let accepted = if config.fuzzy && !prefix_blocking_sound(fields, config) {
        stats.streaming_fallback = true;
        score_all_label_pairs_streaming(&groups, &prepared, config, stats)
    } else {
        let directed = candidate_label_pairs(&groups, &prepared, stats);
        score_directed(&prepared, &directed, config, stats)
    };
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

/// Distinct labels in scoring form. Words are identified by lemma: a
/// word's stem, synsets and fuzzy verdicts are all functions of it.
///
/// A table only grows: [`Prepared::extend`] appends labels after the
/// ones it holds, so ids stay valid. The batch engine prepares its labels
/// in one call; the delta matcher's carry extends its table per append.
/// Rows are stored flat and strings behind `Arc`s, so a copy of a table
/// makes a few allocations and copies no string.
#[derive(Debug, Clone, Default)]
pub(crate) struct Prepared {
    /// Per word: its lemma and stem.
    word: Vec<(Arc<str>, Arc<str>)>,
    /// Per word: its interned stem (the content-word key).
    word_key: Vec<u32>,
    /// Per word: its sorted, deduplicated synset ids.
    word_synsets: Rows<SynsetId>,
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
    /// yet) as the labels following this table's.
    pub(crate) fn extend(&mut self, labels: &[&LabelText], lexicon: &Lexicon) {
        let (mut words, mut keys) = (Vec::new(), Vec::new());
        for label in labels {
            words.clear();
            keys.clear();
            for cw in &label.words {
                let w = match self.lemmas.get(cw.lemma.as_str()) {
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
    }

    /// Add the word of `lemma`, which this table does not hold yet, and
    /// return its id.
    fn add_word(&mut self, lemma: &str, stem: &str, lexicon: &Lexicon) -> u32 {
        let w = self.word.len() as u32;
        let lemma: Arc<str> = Arc::from(lemma);
        let (stem, key) = match self.stems.get_key_value(stem) {
            Some((stem, &key)) => (Arc::clone(stem), key),
            None => {
                let (stem, key) = (Arc::<str>::from(stem), self.stems.len() as u32);
                self.stems.insert(Arc::clone(&stem), key);
                (stem, key)
            }
        };
        let mut synsets = lexicon.resolve(&lemma);
        synsets.sort_unstable();
        synsets.dedup();
        self.word_synsets.push(&synsets);
        self.word_key.push(key);
        self.lemmas.insert(Arc::clone(&lemma), w);
        self.word.push((lemma, stem));
        w
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

    /// [`crate::matcher::match_tier_with`] on the representatives of
    /// distinct labels `a` and `b` (whose keys differ, so they are never
    /// string-equal), evaluated on the prepared form: the same checks in
    /// the same order, so the same verdict and tier.
    pub(crate) fn tier(&self, a: u32, b: u32, memo: &mut FuzzyMemo) -> Option<MatchTier> {
        if self.label_keys.get(a) == self.label_keys.get(b) {
            return Some(MatchTier::WordSet);
        }
        let (words_a, words_b) = (self.label_words(a), self.label_words(b));
        if words_a.len() != words_b.len() {
            return None;
        }
        let mut needed_synonym = false;
        let mut needed_fuzzy = false;
        for &x in words_a {
            let key = self.word_key(x);
            if words_b.iter().any(|&y| self.word_key(y) == key) {
                continue;
            }
            let synsets = self.word_synsets(x);
            if !synsets.is_empty()
                && words_b
                    .iter()
                    .any(|&y| intersects(synsets, self.word_synsets(y)))
            {
                needed_synonym = true;
                continue;
            }
            if self.config.fuzzy
                && words_b.iter().any(|&y| {
                    memo.fuzzy(x, y, || {
                        fuzzy_token_match(self.word(x), self.word(y), self.config)
                    })
                })
            {
                needed_fuzzy = true;
                continue;
            }
            return None;
        }
        if needed_fuzzy {
            Some(MatchTier::Fuzzy)
        } else if needed_synonym {
            Some(MatchTier::Synonym)
        } else {
            Some(MatchTier::WordSet)
        }
    }
}

/// Word-pair fuzzy verdicts of one scoring run. The fuzzy tier is
/// symmetric (abbreviation is tried both ways, edit distance is
/// symmetric), so a pair is keyed by its unordered word ids.
#[derive(Default)]
pub(crate) struct FuzzyMemo {
    verdicts: HashMap<u64, bool>,
}

impl FuzzyMemo {
    fn fuzzy(&mut self, x: u32, y: u32, verdict: impl FnOnce() -> bool) -> bool {
        *self
            .verdicts
            .entry(pack(x.min(y), x.max(y)))
            .or_insert_with(verdict)
    }
}

/// Whether two sorted slices share an element.
fn intersects(a: &[SynsetId], b: &[SynsetId]) -> bool {
    let (mut x, mut y) = (0, 0);
    while x < a.len() && y < b.len() {
        match a[x].cmp(&b[y]) {
            Ordering::Less => x += 1,
            Ordering::Greater => y += 1,
            Ordering::Equal => return true,
        }
    }
    false
}

/// Inverted postings over the labels of a [`Prepared`] table: interned
/// stem keys, synset ids and, under the fuzzy tier, signature
/// characters. Every matching pair of distinct labels shares a posting
/// (see the module docs), so probing is exhaustive wherever
/// [`blocking_sound`] holds.
#[derive(Debug, Clone, Default)]
pub(crate) struct Postings {
    stems: HashMap<u32, Vec<u32>>,
    synsets: HashMap<SynsetId, Vec<u32>>,
    fuzzy: HashMap<char, Vec<u32>>,
}

impl Postings {
    pub(crate) fn new(prepared: &Prepared) -> Self {
        let mut postings = Postings::default();
        postings.add(prepared, 0..prepared.label_count());
        postings
    }

    /// Post `labels`, which must follow every label posted so far.
    pub(crate) fn add(&mut self, prepared: &Prepared, labels: Range<u32>) {
        let push_unique = |list: &mut Vec<u32>, l: u32| {
            // Labels are posted in id order, so duplicates from one
            // label's words are always adjacent.
            if list.last() != Some(&l) {
                list.push(l);
            }
        };
        for l in labels {
            for &w in prepared.label_words(l) {
                push_unique(self.stems.entry(prepared.word_key(w)).or_default(), l);
                for &sid in prepared.word_synsets(w) {
                    push_unique(self.synsets.entry(sid).or_default(), l);
                }
                if prepared.config.fuzzy {
                    for c in prepared.signature(w) {
                        push_unique(self.fuzzy.entry(c).or_default(), l);
                    }
                }
            }
        }
    }

    fn lists(&self) -> impl Iterator<Item = &Vec<u32>> {
        self.stems
            .values()
            .chain(self.synsets.values())
            .chain(self.fuzzy.values())
    }

    /// The posting lists word `w` of `prepared` is posted in: its stem
    /// key's, its synsets' and, under the fuzzy tier, its signature
    /// characters'.
    fn word_lists<'s>(
        &'s self,
        prepared: &'s Prepared,
        w: u32,
    ) -> impl Iterator<Item = &'s Vec<u32>> + 's {
        let fuzzy = prepared.config.fuzzy;
        let signature = prepared.signature(w).filter(move |_| fuzzy);
        self.stems
            .get(&prepared.word_key(w))
            .into_iter()
            .chain(
                prepared
                    .word_synsets(w)
                    .iter()
                    .filter_map(|sid| self.synsets.get(sid)),
            )
            .chain(signature.filter_map(|c| self.fuzzy.get(&c)))
    }

    /// Push every posted label sharing a posting with label `l` of
    /// `prepared` (with repeats).
    pub(crate) fn probe(&self, prepared: &Prepared, l: u32, hits: &mut Vec<u32>) {
        for &w in prepared.label_words(l) {
            for list in self.word_lists(prepared, w) {
                hits.extend_from_slice(list);
            }
        }
    }
}

/// The posting keys of one label's words: stem keys, synset ids and,
/// under the fuzzy tier, signature characters. A word shares a posting
/// with some word of the label exactly when it has one of these keys,
/// which lets the delta matcher apply the conjunctive candidate rule to
/// one new label at a time.
pub(crate) struct PostingKeys {
    keys: Vec<u32>,
    synsets: Vec<SynsetId>,
    chars: Vec<char>,
}

impl PostingKeys {
    pub(crate) fn of(prepared: &Prepared, l: u32) -> Self {
        let mut keys = PostingKeys {
            keys: Vec::new(),
            synsets: Vec::new(),
            chars: Vec::new(),
        };
        for &w in prepared.label_words(l) {
            keys.keys.push(prepared.word_key(w));
            keys.synsets.extend_from_slice(prepared.word_synsets(w));
            if prepared.config.fuzzy {
                keys.chars.extend(prepared.signature(w));
            }
        }
        keys.synsets.sort_unstable();
        keys.synsets.dedup();
        keys
    }

    /// Whether every word of label `l` shares a posting with some word
    /// of this label.
    pub(crate) fn cover(&self, prepared: &Prepared, l: u32) -> bool {
        prepared.label_words(l).iter().all(|&w| {
            self.keys.contains(&prepared.word_key(w))
                || intersects(prepared.word_synsets(w), &self.synsets)
                || prepared.signature(w).any(|c| self.chars.contains(&c))
        })
    }
}

/// Build the inverted postings over distinct labels and emit the
/// directed candidates `(a, b)`: [`Groups::needs`] holds and every word
/// of `a` shares a posting with some word of `b`. Per word, the labels it
/// reaches through its postings form a bitset; a label's candidates are
/// the AND of its words' bitsets. Columns are taken [`BLOCK_LABELS`] at a
/// time, so the bitsets cost at most `words × BLOCK_LABELS / 8` bytes.
/// Callers must have established that signature blocking is exhaustive
/// ([`prefix_blocking_sound`]) before relying on this under
/// `config.fuzzy`; the universal regime goes through
/// [`score_all_label_pairs_streaming`] instead.
fn candidate_label_pairs(groups: &Groups, prepared: &Prepared, stats: &mut MatchStats) -> Vec<u64> {
    let postings = Postings::new(prepared);
    stats.stem_buckets = postings.stems.len() as u64;
    stats.synset_buckets = postings.synsets.len() as u64;
    stats.fuzzy_buckets = postings.fuzzy.len() as u64;
    stats.max_bucket_size = postings
        .lists()
        .map(|list| list.len() as u64)
        .max()
        .unwrap_or(0);

    let labels = groups.len();
    let row = labels.min(BLOCK_LABELS).div_ceil(64);
    let mut reach = vec![0u64; prepared.word.len() * row];
    let mut both = vec![0u64; row];
    let mut directed = Vec::new();
    for start in (0..labels).step_by(BLOCK_LABELS) {
        let end = (start + BLOCK_LABELS).min(labels);
        reach.fill(0);
        for (w, bits) in reach.chunks_exact_mut(row).enumerate() {
            for list in postings.word_lists(prepared, w as u32) {
                let from = list.partition_point(|&l| (l as usize) < start);
                for &l in list[from..].iter().take_while(|&&l| (l as usize) < end) {
                    let col = l as usize - start;
                    bits[col / 64] |= 1 << (col % 64);
                }
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
                    if b != a {
                        push_directed(groups, a, b, &mut directed, stats);
                    }
                }
            }
        }
    }
    directed
}

/// Push the directed label pair `(a, b)` if some field pair needs it,
/// counting the cross-schema field pairs whose verdict it decides.
fn push_directed(groups: &Groups, a: usize, b: usize, out: &mut Vec<u64>, stats: &mut MatchStats) {
    if groups.needs(a, b) {
        stats.pairs_scored += groups.directed_pairs(a, b);
        out.push(pack(a as u32, b as u32));
    }
}

/// Universal-fuzzy regime: signature buckets cannot block the
/// Levenshtein tier, so every pair of distinct labels with a
/// cross-schema field pair is a candidate. Rather than materializing the
/// O(labels²) candidate list, the pairs are streamed through a
/// fixed-size block; only accepted pairs are kept.
fn score_all_label_pairs_streaming(
    groups: &Groups,
    prepared: &Prepared,
    config: MatcherConfig,
    stats: &mut MatchStats,
) -> Vec<(u64, MatchTier)> {
    let mut accepted = Vec::new();
    let mut block: Vec<u64> = Vec::with_capacity(BLOCK_PAIRS + 1);
    for a in 0..groups.len() {
        for b in (0..groups.len()).filter(|&b| b != a) {
            push_directed(groups, a, b, &mut block, stats);
            if block.len() >= BLOCK_PAIRS {
                stats.streaming_blocks += 1;
                accepted.extend(score_directed(prepared, &block, config, stats));
                block.clear();
            }
        }
    }
    if !block.is_empty() {
        stats.streaming_blocks += 1;
        accepted.extend(score_directed(prepared, &block, config, stats));
    }
    accepted
}

/// Score directed label pairs with the prepared predicate and keep the
/// accepted ones with their tier. The predicate is pure, so large sets
/// fan out on the bounded pool in chunks, each with its own fuzzy memo;
/// the output is in input order either way.
fn score_directed(
    prepared: &Prepared,
    directed: &[u64],
    config: MatcherConfig,
    stats: &mut MatchStats,
) -> Vec<(u64, MatchTier)> {
    stats.label_pairs_scored += directed.len() as u64;
    let score = |chunk: &[u64]| {
        let mut memo = FuzzyMemo::default();
        chunk
            .iter()
            .filter_map(|&packed| {
                let (a, b) = unpack(packed);
                prepared
                    .tier(a as u32, b as u32, &mut memo)
                    .map(|tier| (packed, tier))
            })
            .collect::<Vec<_>>()
    };
    if directed.len() < PARALLEL_SCORING_THRESHOLD || resolve_threads(config.threads) <= 1 {
        return score(directed);
    }
    let chunks: Vec<&[u64]> = directed.chunks(SCORING_CHUNK).collect();
    parallel_map(&chunks, config.threads, |_, chunk| score(chunk))
        .into_iter()
        .flatten()
        .collect()
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
/// for the fuzzy Levenshtein predicate over `fields` (see
/// [`blocking_sound`]).
pub(crate) fn prefix_blocking_sound(fields: &[Field], config: MatcherConfig) -> bool {
    blocking_sound(
        max_stem_chars(fields.iter().filter_map(|(_, l)| l.as_deref())),
        config,
    )
}

/// The longest content-word stem of `labels`, in characters.
pub(crate) fn max_stem_chars<'l>(labels: impl IntoIterator<Item = &'l LabelText>) -> usize {
    labels
        .into_iter()
        .flat_map(|l| l.words.iter())
        .map(|w| {
            if w.stem.is_ascii() {
                w.stem.len()
            } else {
                w.stem.chars().count()
            }
        })
        .max()
        .unwrap_or(0)
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
        // 0.0 and share no signature bucket, so a non-positive threshold
        // is never bucket-blockable.
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
        let field = |raw: &str| {
            (
                FieldRef::new(0, qi_schema::NodeId::ROOT),
                Some(lex.label_text(raw)),
            )
        };
        let config = |min_similarity: f64| MatcherConfig {
            fuzzy: true,
            min_similarity,
            ..MatcherConfig::default()
        };
        // 10-char stem at min_similarity = 0.8: 1 - 2/10 rounds to
        // exactly 0.8, so the DP accepts a distance-2 pair and blocking
        // must be declared unsound. The rearranged (1 - 0.8)*10 < 2
        // check got this wrong.
        let ten = vec![field("abcdefghij")];
        assert!(!prefix_blocking_sound(&ten, config(0.8)));
        // Nudged above the boundary, distance-2 pairs are rejected again.
        assert!(prefix_blocking_sound(&ten, config(0.8 + 1e-9)));
        // Other round thresholds that tripped the rearranged check.
        let twenty = vec![field("abcdefghijklmnopqrst")];
        assert!(!prefix_blocking_sound(&twenty, config(0.9)));
        let six = vec![field("abcdef")];
        assert!(!prefix_blocking_sound(&six, config(2.0 / 3.0)));
        // Short stems stay sound at a strict threshold.
        let three = vec![field("abc")];
        assert!(prefix_blocking_sound(&three, config(0.8)));
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

    /// The prepared scorer is the match predicate: on every ordered pair
    /// of distinct labels of a drift corpus, at both fuzzy thresholds the
    /// drift tests use and with the fuzzy tier on and off, it returns the
    /// same verdict and tier as `match_tier_with`.
    #[test]
    fn prepared_scorer_agrees_with_predicate_on_drift_labels() {
        let lexicon = Lexicon::builtin();
        let corpus = generate_drift_corpus(
            &DriftConfig {
                seed: 0x5EED_0013,
                domains: 2,
                interfaces: 10,
                ..DriftConfig::default()
            },
            &lexicon,
        );
        let mut tiers = [0usize; 4];
        for domain in &corpus {
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
                    let mut memo = FuzzyMemo::default();
                    for a in 0..groups.len() {
                        for b in (0..groups.len()).filter(|&b| b != a) {
                            let (la, lb) = (groups.labels[a], groups.labels[b]);
                            let expected = match_tier_with(la, lb, &lexicon, config);
                            assert_eq!(
                                prepared.tier(a as u32, b as u32, &mut memo),
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

    /// The conjunctive candidate list is exhaustive: on drift corpora,
    /// wherever signature blocking is sound, every ordered pair of
    /// distinct labels that `Prepared::tier` accepts and some field pair
    /// needs is a candidate. It is also a subset of the disjunctive list
    /// (label pairs sharing any posting).
    #[test]
    fn conjunctive_candidates_cover_every_accepted_pair() {
        let lexicon = Lexicon::builtin();
        let corpus = generate_drift_corpus(
            &DriftConfig {
                seed: 0x5EED_0020,
                domains: 4,
                interfaces: 10,
                ..DriftConfig::default()
            },
            &lexicon,
        );
        let (mut accepted, mut fuzzy_runs) = (0, 0);
        for domain in &corpus {
            let fields = collect_fields(&domain.schemas, &lexicon);
            let groups = Groups::new(&fields);
            for min_similarity in [0.85, 0.8] {
                for fuzzy in [false, true] {
                    let config = MatcherConfig {
                        fuzzy,
                        min_similarity,
                        ..MatcherConfig::default()
                    };
                    if fuzzy && !prefix_blocking_sound(&fields, config) {
                        continue;
                    }
                    fuzzy_runs += fuzzy as usize;
                    let prepared = Prepared::new(&groups.labels, &lexicon, config);
                    let mut stats = MatchStats::default();
                    let candidates = candidate_label_pairs(&groups, &prepared, &mut stats);
                    let postings = Postings::new(&prepared);
                    let mut disjunctive = Vec::new();
                    let mut hits = Vec::new();
                    for a in 0..groups.len() {
                        hits.clear();
                        postings.probe(&prepared, a as u32, &mut hits);
                        for &b in &hits {
                            if b as usize != a && groups.needs(a, b as usize) {
                                disjunctive.push(pack(a as u32, b));
                            }
                        }
                    }
                    disjunctive.sort_unstable();
                    disjunctive.dedup();
                    let mut sorted = candidates.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    assert_eq!(sorted.len(), candidates.len(), "duplicate candidates");
                    assert!(candidates.len() <= disjunctive.len());
                    assert!(
                        sorted.iter().all(|p| disjunctive.binary_search(p).is_ok()),
                        "a candidate shares no posting at {config:?}"
                    );
                    let mut memo = FuzzyMemo::default();
                    for a in 0..groups.len() {
                        for b in (0..groups.len()).filter(|&b| b != a && groups.needs(a, b)) {
                            if prepared.tier(a as u32, b as u32, &mut memo).is_some() {
                                accepted += 1;
                                assert!(
                                    sorted.binary_search(&pack(a as u32, b as u32)).is_ok(),
                                    "{:?} -> {:?} accepted but not a candidate at {config:?}",
                                    groups.labels[a].raw,
                                    groups.labels[b].raw
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(accepted > 0 && fuzzy_runs > 0, "{accepted} {fuzzy_runs}");
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
