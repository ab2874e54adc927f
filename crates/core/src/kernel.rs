//! The interned naming kernel: a group relation as rows of label ids.
//!
//! A labeling run interns each source label once ([`LabelSymbols`]), so
//! a [`GroupRelation`] is built from [`Symbol`]s and every later stage —
//! `Combine*`, the solutions, conflict repair, the isolated and internal
//! elections — compares labels as integers. Strings are made again only
//! where the labeled tree and the report are written.
//!
//! `name_group` compares the same few labels over and over — every pair
//! of tuples at every consistency level, and every `Combine*` state
//! against every member tuple. [`InternedRelation`] indexes the relation
//! once per group so that all of that work is bitmask and integer work:
//!
//! * every label becomes a column-local `u32` id built from its symbol
//!   (`0` = null), so Definition 3's `Combine` and row equality compare
//!   ids, and `Adults`/`adults` stay distinct;
//! * each label's normalized text is fetched once, when the relation is
//!   indexed; its spelling is the text's `raw` field;
//! * Definition 2 consistency becomes bitmask algebra. For a level, a
//!   column and a label id, the *admit mask* holds the tuples whose label
//!   in that column relates to the id's label at that level; the tuples
//!   consistent with a row are the OR of the admit masks of its non-null
//!   labels. At the string and equality levels relatedness is an
//!   equivalence on non-empty labels (same lowercased display; same stem
//!   set, which string equality implies), so on first use a column's
//!   masks are filled from its classes: a label admits the carriers of
//!   its class, and an empty label admits nothing. At the synonymy level
//!   a mask is filled on first use from [`NamingCtx::relate_sym`], once
//!   per distinct label pair of the column;
//! * one table counts how often each distinct row occurs in the relation
//!   (§4.2.1's *frequency*), and each label's content-word stems are
//!   interned once for *expressiveness*.
//!
//! Symbol ids are handed out in first-seen order, and a memo carried
//! across runs sees labels in another order than a fresh one. So every
//! tie-break that orders labels compares spellings, never symbols.

use crate::consistency::ConsistencyLevel;
use crate::ctx::NamingCtx;
use qi_mapping::{ClusterId, Mapping};
use qi_runtime::Symbol;
use qi_schema::{NodeId, SchemaTree};
use qi_text::LabelText;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// The source labels of one labeling run, each interned once: the
/// symbol of every node of every source schema (`None` = unlabeled).
pub struct LabelSymbols(Vec<Vec<Option<Symbol>>>);

impl LabelSymbols {
    /// Intern every node label of `schemas` against `ctx`.
    pub fn new(schemas: &[SchemaTree], ctx: &NamingCtx<'_>) -> Self {
        LabelSymbols(
            schemas
                .iter()
                .map(|schema| {
                    schema
                        .nodes()
                        .map(|node| node.label.as_deref().map(|l| ctx.sym(l)))
                        .collect()
                })
                .collect(),
        )
    }

    /// The label of `node` in schema `schema`.
    pub fn get(&self, schema: usize, node: NodeId) -> Option<Symbol> {
        self.0[schema][node.index()]
    }
}

/// One tuple of a group relation: the labels one interface supplies for
/// the clusters of the group (`None` = the paper's null entry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupTuple {
    /// Source schema index.
    pub schema: usize,
    /// Labels, parallel to [`GroupRelation::clusters`].
    pub labels: Vec<Option<Symbol>>,
}

/// The paper's (n+1)-ary *group relation* (§4, Tables 2–4): one column
/// per cluster of a group, one tuple per source interface that labels at
/// least one of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupRelation {
    /// The group's clusters (column order).
    pub clusters: Vec<ClusterId>,
    /// Tuples, one per interface that labels at least one cluster.
    pub tuples: Vec<GroupTuple>,
}

impl GroupRelation {
    /// Build the group relation for `clusters`: schema `s`'s entry for
    /// cluster `C` is the label of its member field in `C`, or null when
    /// it has no member or the member is unlabeled. Schemas contributing
    /// only nulls are omitted.
    pub fn build(clusters: &[ClusterId], mapping: &Mapping, symbols: &LabelSymbols) -> Self {
        let tuples = (0..symbols.0.len())
            .filter_map(|schema| {
                let labels: Vec<Option<Symbol>> = clusters
                    .iter()
                    .map(|&cid| {
                        let field = mapping.cluster(cid).member_of(schema)?;
                        symbols.get(schema, field.node)
                    })
                    .collect();
                labels
                    .iter()
                    .any(Option::is_some)
                    .then_some(GroupTuple { schema, labels })
            })
            .collect();
        GroupRelation {
            clusters: clusters.to_vec(),
            tuples,
        }
    }

    /// A relation from rows of optional label strings, interned against
    /// `ctx`. Tuples are attributed to schemas `0..rows.len()` in order;
    /// all-null rows are dropped. Tests mirror the paper's tables with it.
    pub fn from_rows(
        clusters: &[ClusterId],
        rows: &[Vec<Option<&str>>],
        ctx: &NamingCtx<'_>,
    ) -> Self {
        let tuples = rows
            .iter()
            .enumerate()
            .filter(|(_, row)| row.iter().any(Option::is_some))
            .map(|(schema, row)| {
                assert_eq!(row.len(), clusters.len(), "row arity mismatch");
                GroupTuple {
                    schema,
                    labels: row.iter().map(|l| l.map(|l| ctx.sym(l))).collect(),
                }
            })
            .collect();
        GroupRelation {
            clusters: clusters.to_vec(),
            tuples,
        }
    }

    /// Number of clusters (columns).
    pub fn width(&self) -> usize {
        self.clusters.len()
    }
}

/// Iterate the set bits of a bitmask, ascending.
pub(crate) fn bits(mask: &[u64]) -> impl Iterator<Item = usize> + '_ {
    mask.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let bit = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            Some(w * 64 + bit)
        })
    })
}

fn or_into(into: &mut [u64], mask: &[u64]) {
    for (a, b) in into.iter_mut().zip(mask) {
        *a |= b;
    }
}

fn hash_row(row: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &id in row {
        h = (h.rotate_left(5) ^ u64::from(id)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    h
}

/// Passes a precomputed row hash through unchanged.
#[derive(Default)]
struct RowHash(u64);

impl Hasher for RowHash {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("row hashes are written as u64")
    }
    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// Class ids of `texts` under the equivalence `key`, numbered in
/// first-seen order; `None` for an empty label, which is in no class.
fn classes<'a, K: Hash + Eq>(
    texts: &'a [Arc<LabelText>],
    key: impl Fn(&'a LabelText) -> K,
) -> Vec<Option<usize>> {
    let mut ids: HashMap<K, usize> = HashMap::new();
    texts
        .iter()
        .map(|text| {
            (!text.is_empty()).then(|| {
                let next = ids.len();
                *ids.entry(key(text)).or_insert(next)
            })
        })
        .collect()
}

/// A hash index over the rows of an arena of `width`-id rows, for
/// dedup and lookup without a per-row allocation. Row `i` of the arena
/// is `arena[i * width..(i + 1) * width]`; every row is registered in
/// arena order.
#[derive(Debug, Default)]
pub(crate) struct RowIndex {
    heads: HashMap<u64, u32, BuildHasherDefault<RowHash>>,
    /// Next arena row with the same hash (`u32::MAX` ends the chain).
    next: Vec<u32>,
}

impl RowIndex {
    /// The arena index of a row equal to `row`, if registered.
    pub(crate) fn find(&self, arena: &[u32], width: usize, row: &[u32]) -> Option<usize> {
        self.find_hashed(arena, width, row, hash_row(row))
    }

    fn find_hashed(&self, arena: &[u32], width: usize, row: &[u32], hash: u64) -> Option<usize> {
        let mut at = *self.heads.get(&hash)?;
        while at != u32::MAX {
            let i = at as usize;
            if &arena[i * width..(i + 1) * width] == row {
                return Some(i);
            }
            at = self.next[i];
        }
        None
    }

    /// Append `row` to the arena and register it, unless an equal row is
    /// already there. Returns the new row's index when it was added.
    pub(crate) fn insert(
        &mut self,
        arena: &mut Vec<u32>,
        width: usize,
        row: &[u32],
    ) -> Option<usize> {
        let hash = hash_row(row);
        if self.find_hashed(arena, width, row, hash).is_some() {
            return None;
        }
        let i = self.next.len();
        let head = self.heads.entry(hash).or_insert(u32::MAX);
        self.next.push(*head);
        *head = i as u32;
        arena.extend_from_slice(row);
        Some(i)
    }
}

/// A group relation indexed for one naming run (see the module docs).
pub struct InternedRelation {
    n: usize,
    width: usize,
    /// Bitmask length in 64-bit words (one bit per relation tuple).
    words: usize,
    /// Row-major label ids, `n × width`.
    rows: Vec<u32>,
    /// Column `c`'s ids `1..` occupy slots `slot_base[c]..slot_base[c + 1]`.
    slot_base: Vec<usize>,
    /// Per slot: the label's symbol in the naming context.
    syms: Vec<Symbol>,
    /// Per slot: the label's normalized text.
    texts: Vec<Arc<LabelText>>,
    /// Per slot: the tuples carrying the label (bitmask).
    carriers: Vec<u64>,
    /// Per column: the tuples with a non-null label (bitmask).
    nonnull: Vec<u64>,
    /// Distinct rows (an arena indexed by `distinct_index`) and how often
    /// each occurs in the relation.
    distinct: Vec<u32>,
    distinct_index: RowIndex,
    counts: Vec<usize>,
    /// Per consistency level: admit masks per slot, and which are filled.
    admit: [Vec<u64>; 3],
    filled: [Vec<bool>; 3],
    /// Per slot: relation-local ids of the label's content-word stems.
    stems: Vec<Option<Box<[u32]>>>,
    stem_ids: HashMap<Arc<str>, u32>,
    /// Scratch for collecting a row's stem ids.
    stem_scratch: Vec<u32>,
}

impl InternedRelation {
    /// Index `relation`'s labels, fetching their texts from `ctx`.
    pub fn new(relation: &GroupRelation, ctx: &NamingCtx<'_>) -> Self {
        let n = relation.tuples.len();
        let width = relation.width();
        let words = n.div_ceil(64);
        let mut rows = vec![0u32; n * width];
        let mut slot_base = Vec::with_capacity(width + 1);
        let mut syms: Vec<Symbol> = Vec::new();
        let mut column_ids: HashMap<Symbol, u32> = HashMap::new();
        for c in 0..width {
            slot_base.push(syms.len());
            column_ids.clear();
            for (t, tuple) in relation.tuples.iter().enumerate() {
                if let Some(sym) = tuple.labels[c] {
                    let next = column_ids.len() as u32 + 1;
                    let id = *column_ids.entry(sym).or_insert_with(|| {
                        syms.push(sym);
                        next
                    });
                    rows[t * width + c] = id;
                }
            }
        }
        slot_base.push(syms.len());
        let slots = syms.len();
        let texts = syms.iter().map(|&sym| ctx.text_sym(sym)).collect();
        let mut carriers = vec![0u64; slots * words];
        let mut nonnull = vec![0u64; width * words];
        for t in 0..n {
            for c in 0..width {
                let id = rows[t * width + c];
                if id != 0 {
                    let slot = slot_base[c] + id as usize - 1;
                    carriers[slot * words + t / 64] |= 1 << (t % 64);
                    nonnull[c * words + t / 64] |= 1 << (t % 64);
                }
            }
        }
        let mut distinct = Vec::new();
        let mut distinct_index = RowIndex::default();
        let mut counts: Vec<usize> = Vec::new();
        for t in 0..n {
            let row = &rows[t * width..(t + 1) * width];
            match distinct_index.find(&distinct, width, row) {
                Some(i) => counts[i] += 1,
                None => {
                    distinct_index.insert(&mut distinct, width, row);
                    counts.push(1);
                }
            }
        }
        InternedRelation {
            n,
            width,
            words,
            rows,
            slot_base,
            syms,
            texts,
            carriers,
            nonnull,
            distinct,
            distinct_index,
            counts,
            admit: Default::default(),
            filled: Default::default(),
            stems: vec![None; slots],
            stem_ids: HashMap::new(),
            stem_scratch: Vec::new(),
        }
    }

    /// Number of tuples.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// Number of columns.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Bitmask length in words.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// Tuple `t`'s label ids.
    pub fn row(&self, t: usize) -> &[u32] {
        &self.rows[t * self.width..(t + 1) * self.width]
    }

    /// The symbol of label `id` in column `c` (`None` for null).
    pub(crate) fn sym(&self, c: usize, id: u32) -> Option<Symbol> {
        (id != 0).then(|| self.syms[self.slot_base[c] + id as usize - 1])
    }

    /// The spelling of label `id` in column `c` (`None` for null).
    fn spelling(&self, c: usize, id: u32) -> Option<&str> {
        (id != 0).then(|| &*self.texts[self.slot_base[c] + id as usize - 1].raw)
    }

    /// OR into `into` the tuples with a non-null label in column `c`.
    pub(crate) fn or_nonnull(&self, c: usize, into: &mut [u64]) {
        or_into(into, &self.nonnull[c * self.words..(c + 1) * self.words]);
    }

    /// OR into `into` the tuples whose column-`c` label relates to label
    /// `id` at `level` (the admit mask, filled on first use).
    pub(crate) fn or_admit(
        &mut self,
        level: ConsistencyLevel,
        c: usize,
        id: u32,
        ctx: &NamingCtx<'_>,
        into: &mut [u64],
    ) {
        let words = self.words;
        let slot = self.slot_base[c] + id as usize - 1;
        let l = level as usize;
        if self.filled[l].is_empty() {
            self.filled[l] = vec![false; self.syms.len()];
            self.admit[l] = vec![0; self.syms.len() * words];
        }
        if !self.filled[l][slot] {
            match level {
                ConsistencyLevel::Synonymy => self.fill_pairwise(level, c, slot, ctx),
                _ => self.fill_classes(level, c),
            }
        }
        or_into(into, &self.admit[l][slot * words..(slot + 1) * words]);
    }

    /// Fill the admit masks of every label of column `c` at the string
    /// or equality level from the column's classes (see the module docs).
    fn fill_classes(&mut self, level: ConsistencyLevel, c: usize) {
        let (words, l) = (self.words, level as usize);
        let (base, end) = (self.slot_base[c], self.slot_base[c + 1]);
        let texts = &self.texts[base..end];
        let class = if level == ConsistencyLevel::String {
            classes(texts, |text| text.display.to_ascii_lowercase())
        } else {
            classes(texts, |text| {
                let mut stems: Vec<&str> = text.words.iter().map(|w| w.key()).collect();
                stems.sort_unstable();
                stems
            })
        };
        let count = class.iter().flatten().max().map_or(0, |&k| k + 1);
        let mut masks = vec![0u64; count * words];
        for (i, k) in class.iter().enumerate() {
            if let Some(k) = k {
                let slot = base + i;
                or_into(
                    &mut masks[k * words..(k + 1) * words],
                    &self.carriers[slot * words..(slot + 1) * words],
                );
            }
        }
        for (i, k) in class.iter().enumerate() {
            let slot = base + i;
            if let Some(k) = k {
                self.admit[l][slot * words..(slot + 1) * words]
                    .copy_from_slice(&masks[k * words..(k + 1) * words]);
            }
            self.filled[l][slot] = true;
        }
    }

    /// Fill `slot`'s admit mask at `level` by relating its label to each
    /// label of column `c`. A label relates to itself unless it is empty.
    fn fill_pairwise(
        &mut self,
        level: ConsistencyLevel,
        c: usize,
        slot: usize,
        ctx: &NamingCtx<'_>,
    ) {
        let (words, l) = (self.words, level as usize);
        if !self.texts[slot].is_empty() {
            for other in self.slot_base[c]..self.slot_base[c + 1] {
                let related = other == slot
                    || (!self.texts[other].is_empty()
                        && level.admits(ctx.relate_sym(self.syms[slot], self.syms[other])));
                if related {
                    let (mask, carriers) = (&mut self.admit[l], &self.carriers);
                    or_into(
                        &mut mask[slot * words..(slot + 1) * words],
                        &carriers[other * words..(other + 1) * words],
                    );
                }
            }
        }
        self.filled[l][slot] = true;
    }

    /// OR into `into` the tuples consistent with `row` at `level`
    /// (Definition 2: some column where both are non-null and related).
    pub(crate) fn or_consistent(
        &mut self,
        level: ConsistencyLevel,
        row: &[u32],
        ctx: &NamingCtx<'_>,
        into: &mut [u64],
    ) {
        for (c, &id) in row.iter().enumerate() {
            if id != 0 {
                self.or_admit(level, c, id, ctx, into);
            }
        }
    }

    /// Definition 2: are tuples `a` and `b` consistent at `level`?
    #[cfg(test)]
    pub(crate) fn consistent(
        &mut self,
        a: usize,
        b: usize,
        level: ConsistencyLevel,
        ctx: &NamingCtx<'_>,
    ) -> bool {
        let mut mask = vec![0u64; self.words];
        let row = self.row(a).to_vec();
        self.or_consistent(level, &row, ctx, &mut mask);
        mask[b / 64] & (1 << (b % 64)) != 0
    }

    /// How many tuples of the relation equal `row` verbatim.
    pub fn frequency(&self, row: &[u32]) -> usize {
        self.distinct_index
            .find(&self.distinct, self.width, row)
            .map_or(0, |i| self.counts[i])
    }

    /// Distinct content words across the non-null labels of `row`
    /// (§4.2.1's expressiveness).
    pub(crate) fn expressiveness(&mut self, row: &[u32]) -> usize {
        let mut ids = std::mem::take(&mut self.stem_scratch);
        ids.clear();
        for (c, &id) in row.iter().enumerate() {
            if id == 0 {
                continue;
            }
            let slot = self.slot_base[c] + id as usize - 1;
            if self.stems[slot].is_none() {
                let stems = self.texts[slot]
                    .words
                    .iter()
                    .map(|w| {
                        let next = self.stem_ids.len() as u32;
                        *self.stem_ids.entry(Arc::clone(&w.stem)).or_insert(next)
                    })
                    .collect();
                self.stems[slot] = Some(stems);
            }
            ids.extend_from_slice(self.stems[slot].as_deref().unwrap_or_default());
        }
        ids.sort_unstable();
        ids.dedup();
        let distinct = ids.len();
        self.stem_scratch = ids;
        distinct
    }

    /// Order two rows as their label spellings would order: column by
    /// column, null first, then by spelling.
    pub(crate) fn cmp_rows(&self, a: &[u32], b: &[u32]) -> Ordering {
        for (c, (&x, &y)) in a.iter().zip(b).enumerate() {
            if x != y {
                return self.spelling(c, x).cmp(&self.spelling(c, y));
            }
        }
        Ordering::Equal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qi_lexicon::Lexicon;

    fn relation(rows: &[Vec<Option<&str>>], ctx: &NamingCtx<'_>) -> GroupRelation {
        let width = rows.first().map_or(0, Vec::len) as u32;
        let clusters: Vec<ClusterId> = (0..width).map(ClusterId).collect();
        GroupRelation::from_rows(&clusters, rows, ctx)
    }

    #[test]
    fn ids_are_column_local_and_case_exact() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let r = relation(
            &[
                vec![Some("Adults"), Some("Adults")],
                vec![Some("adults"), None],
                vec![Some("Adults"), Some("Children")],
            ],
            &ctx,
        );
        let rel = InternedRelation::new(&r, &ctx);
        assert_eq!(rel.row(0), &[1, 1]);
        assert_eq!(rel.row(1), &[2, 0]);
        assert_eq!(rel.row(2), &[1, 2]);
        assert_eq!(rel.sym(0, 2), Some(ctx.sym("adults")));
        assert_eq!(rel.spelling(0, 2), Some("adults"));
        assert_eq!(rel.sym(1, 0), None);
        assert_eq!(rel.frequency(&[1, 1]), 1);
        assert_eq!(rel.frequency(&[1, 0]), 0);
    }

    #[test]
    fn masks_span_several_words() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let rows: Vec<Vec<Option<&str>>> = (0..150)
            .map(|i| {
                if i % 3 == 0 {
                    vec![Some("Make"), None]
                } else {
                    vec![None, Some("Model")]
                }
            })
            .collect();
        let r = relation(&rows, &ctx);
        let mut rel = InternedRelation::new(&r, &ctx);
        assert_eq!(rel.words(), 3);
        let mut mask = vec![0u64; rel.words()];
        rel.or_admit(ConsistencyLevel::String, 0, 1, &ctx, &mut mask);
        let members: Vec<usize> = bits(&mask).collect();
        assert_eq!(members, (0..150).filter(|i| i % 3 == 0).collect::<Vec<_>>());
        assert!(rel.consistent(0, 147, ConsistencyLevel::String, &ctx));
        assert!(!rel.consistent(0, 148, ConsistencyLevel::Synonymy, &ctx));
    }

    /// The class-filled admit masks equal Definition 1 decided pair by
    /// pair, at every level, on case and punctuation variants, word-order
    /// variants and labels that normalize to nothing.
    #[test]
    fn admit_masks_agree_with_relate_at_every_level() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let labels = [
            "Adults",
            "adults",
            "Adult",
            "Zip Code:",
            "ZIP-code",
            "Zipcode",
            "Type of Job",
            "Job Type",
            "Employment Type",
            "Area of Study",
            "Field of Work",
            "Class",
            "Class of Ticket",
            "of",
            "?",
            "(18-64)",
        ];
        let rows: Vec<Vec<Option<&str>>> = labels.iter().map(|&l| vec![Some(l)]).collect();
        let r = relation(&rows, &ctx);
        let mut rel = InternedRelation::new(&r, &ctx);
        for level in ConsistencyLevel::LADDER {
            for (a, &la) in labels.iter().enumerate() {
                let mut mask = vec![0u64; rel.words()];
                rel.or_admit(level, 0, a as u32 + 1, &ctx, &mut mask);
                for (b, &lb) in labels.iter().enumerate() {
                    let expected = level.admits(ctx.relate_sym(ctx.sym(la), ctx.sym(lb)));
                    let got = mask[b / 64] & (1 << (b % 64)) != 0;
                    assert_eq!(got, expected, "{la:?} vs {lb:?} at {level}");
                }
            }
        }
    }

    /// A schema's entry is its member's label, null for an unlabeled or
    /// missing member; a schema that labels none of the clusters
    /// contributes no tuple.
    #[test]
    fn build_reads_each_member_label_from_the_symbol_table() {
        use qi_mapping::FieldRef;
        use qi_schema::spec::{leaf, unlabeled_leaf};
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let a = SchemaTree::build("a", vec![unlabeled_leaf(), leaf("B")]).unwrap();
        let c = SchemaTree::build("c", vec![unlabeled_leaf()]).unwrap();
        let (al, cl) = (
            a.descendant_leaves(NodeId::ROOT),
            c.descendant_leaves(NodeId::ROOT),
        );
        let mapping = Mapping::from_clusters(vec![
            (
                "c_0".to_string(),
                vec![FieldRef::new(0, al[0]), FieldRef::new(1, cl[0])],
            ),
            ("c_1".to_string(), vec![FieldRef::new(0, al[1])]),
        ]);
        let schemas = vec![a, c];
        let symbols = LabelSymbols::new(&schemas, &ctx);
        let r = GroupRelation::build(&[ClusterId(0), ClusterId(1)], &mapping, &symbols);
        assert_eq!(r.tuples.len(), 1, "schema c labels nothing");
        assert_eq!(r.tuples[0].schema, 0);
        assert_eq!(r.tuples[0].labels, vec![None, Some(ctx.sym("B"))]);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn from_rows_checks_arity() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        GroupRelation::from_rows(&[ClusterId(0), ClusterId(1)], &[vec![Some("A")]], &ctx);
    }

    #[test]
    fn rows_order_like_label_vectors() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        // Interned in reverse spelling order: symbol order is not
        // spelling order either.
        ctx.sym("x");
        ctx.sym("b");
        let r = relation(&[vec![Some("b"), Some("x")], vec![Some("a"), None]], &ctx);
        let rel = InternedRelation::new(&r, &ctx);
        // Id order is first-seen order, not spelling order.
        assert_eq!(rel.cmp_rows(rel.row(0), rel.row(1)), Ordering::Greater);
        assert_eq!(rel.cmp_rows(&[1, 0], &[1, 1]), Ordering::Less);
        assert_eq!(rel.cmp_rows(rel.row(0), rel.row(0)), Ordering::Equal);
    }
}
