//! Per-tree inverted indexes, built in linear passes with no sort and no
//! traversal.
//!
//! A [`TreeIndex`] holds, for one frozen [`Tree`]:
//!
//! * the document-order interval encoding ([`DocIntervals`]), whose
//!   pre-order `end` and parent columns let every axis expansion run
//!   without touching the tree;
//! * label postings: one [`NodeSet`] per element symbol;
//! * value postings: per attribute column, one pre-order list sorted by
//!   `(value, pre)` and cut into value-sorted groups, plus the set of
//!   nodes where the column is non-`⊥`;
//! * structural postings (leaves, first children, last children);
//! * [`IndexStats`] feeding the cost model.
//!
//! Labels, attribute presence and shape come from the finite `Σ` and `A`,
//! so they are bitsets, one word per 64 nodes each. Values come from the
//! infinite `D` — unique ids are the paper's §7 setting — so a value group
//! is a sorted list of its members, and a column takes O(n) words however
//! many values it holds.
//!
//! **All postings live in pre-order space**: bit (or entry) `j` of a
//! posting refers to the node at pre-order position `j`, not to arena id
//! `j`. The two orders differ for randomly grown trees, and pre-order is
//! the one under which a subtree is a contiguous bit range.
//! [`crate::eval_plan_from`] converts at the boundary.
//!
//! The build reads the arena in sequence. [`DocIntervals::build`] ranks
//! the nodes in two arena passes. One pass over its pre-order columns then
//! sets the label bits and builds the shape postings a word at a time: the
//! node at `j` is a leaf when `end_of_pre[j] == j`, a first child when its
//! parent is at `j - 1`, and a last child when its subtree ends where its
//! parent's does. Each attribute column takes one more pass that pushes
//! its keys in pre-order, and a stable radix sort on the value half
//! groups them. On a parsed tree, whose arena is in pre-order, every one of
//! these passes reads and writes in sequence.

use twq_exec::Pool;
use twq_tree::{AttrId, DocIntervals, Label, NodeSet, SymId, Tree, Value};

/// Summary statistics recorded at build time, consumed by the cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexStats {
    /// Nodes in the indexed tree.
    pub nodes: usize,
    /// Deepest node's depth (root = 0).
    pub max_depth: usize,
    /// Mean node depth; `avg_depth + 1` is also the mean subtree size
    /// (both count `Σ_u (depth(u)+1) = Σ_u |subtree(u)|`).
    pub avg_depth: f64,
    /// Leaf count (so `nodes - leaves` is the internal-node count).
    pub leaves: usize,
    /// Element symbols with at least one occurrence.
    pub distinct_labels: usize,
    /// The root's element label (`None` for a delimiter): root-anchored
    /// queries name it, so the walk model tests it exactly.
    pub root_label: Option<SymId>,
    /// Distinct `(attribute, value)` groups across all columns.
    pub distinct_values: usize,
    /// Heap bytes held by all postings: 8 per bitset word, plus, per
    /// attribute column, 4 per valued node and 8 per value group.
    pub postings_bytes: usize,
}

impl IndexStats {
    /// Mean children per internal node (1.0 for the single-node tree).
    pub fn fanout(&self) -> f64 {
        let internal = (self.nodes - self.leaves).max(1);
        (self.nodes.saturating_sub(1)).max(1) as f64 / internal as f64
    }

    /// Mean subtree size, by the depth-sum identity.
    pub fn avg_subtree(&self) -> f64 {
        self.avg_depth + 1.0
    }
}

/// Reusable working memory for [`TreeIndex::build_in`]: an attribute
/// column's packed `(value << 32) | pre` keys, and the second buffer of
/// the radix sort that orders them. A worker threading one scratch through
/// a batch ([`build_indexes`]) allocates both once.
#[derive(Debug, Default)]
pub struct IndexScratch {
    keys: Vec<u64>,
    spare: Vec<u64>,
}

/// Bits of the value half sorted per radix pass.
const DIGIT: u32 = 11;
const RADIX: usize = 1 << DIGIT;

impl IndexScratch {
    /// Sort `keys` by their value half, keeping the pre-order they were
    /// pushed in within each value: a stable LSD radix sort on `DIGIT`-bit
    /// digits, with as many passes (1, 2 or 3) as `max_value`, the largest
    /// value among the keys, has digits. Values carry equality only, so any
    /// fixed group order would do; interned-id order is the one a linear
    /// sort gives.
    fn sort_by_value(&mut self, max_value: u32) {
        let passes = (u32::BITS - max_value.leading_zeros()).div_ceil(DIGIT) as usize;
        let digit = |key: u64, pass: usize| (key >> (32 + DIGIT as usize * pass)) as usize % RADIX;
        let mut counts = [[0u32; RADIX]; u32::BITS.div_ceil(DIGIT) as usize];
        for &key in &self.keys {
            for (pass, count) in counts[..passes].iter_mut().enumerate() {
                count[digit(key, pass)] += 1;
            }
        }
        self.spare.resize(self.keys.len(), 0);
        for (pass, count) in counts[..passes].iter_mut().enumerate() {
            // Each bucket's first slot, then scatter front to back.
            let mut next = 0;
            for c in count.iter_mut() {
                (*c, next) = (next, next + *c);
            }
            for &key in &self.keys {
                let slot = &mut count[digit(key, pass)];
                self.spare[*slot as usize] = key;
                *slot += 1;
            }
            std::mem::swap(&mut self.keys, &mut self.spare);
        }
    }
}

/// One attribute column's value postings: group `g` holds value
/// `values[g]` and its nodes' ascending pre-order positions
/// `pres[offsets[g]..offsets[g + 1]]`. Groups ascend by value.
#[derive(Debug, Clone, Default)]
pub struct ValueColumn {
    values: Vec<Value>,
    offsets: Vec<u32>,
    pres: Vec<u32>,
}

impl ValueColumn {
    /// The groups' values, ascending: group `g` holds `values()[g]`.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Group `g`'s members, as ascending pre-order positions.
    pub fn group(&self, g: usize) -> &[u32] {
        &self.pres[self.offsets[g] as usize..self.offsets[g + 1] as usize]
    }
}

/// The column of an attribute the tree never materialized.
static NO_VALUES: ValueColumn = ValueColumn {
    values: Vec::new(),
    offsets: Vec::new(),
    pres: Vec::new(),
};

/// The per-tree index. Build once per frozen tree, query many times.
#[derive(Debug, Clone)]
pub struct TreeIndex {
    intervals: DocIntervals,
    /// Label postings by `SymId` index (missing tail ⇒ empty postings).
    label_postings: Vec<NodeSet>,
    /// Per attribute column: value-sorted postings groups.
    value_postings: Vec<ValueColumn>,
    /// Per attribute column: nodes with a non-`⊥` value.
    has_attr: Vec<NodeSet>,
    leaves: NodeSet,
    firsts: NodeSet,
    lasts: NodeSet,
    stats: IndexStats,
}

impl TreeIndex {
    /// Build with fresh scratch.
    pub fn build(tree: &Tree) -> TreeIndex {
        TreeIndex::build_in(tree, &mut IndexScratch::default())
    }

    /// Build reusing `scratch`'s allocations (the batch entry point).
    pub fn build_in(tree: &Tree, scratch: &mut IndexScratch) -> TreeIndex {
        let n = tree.len();
        let intervals = DocIntervals::build(tree);
        let words = n.div_ceil(64);
        // Bit `j % 64` of word `j / 64` is pre-order position `j`, for `j`
        // in word `w`'s positions.
        let word_positions = |w: usize| (w * 64) as u32..((w + 1) * 64).min(n) as u32;

        // Labels, shape and depth in one pass over the pre-order columns.
        // A shape posting's word is built in a register and stored once; a
        // label bit goes into its posting's words, which grow at least
        // twofold when a member lands past them, so that a posting is
        // resized a logarithmic number of times, not once per word.
        let mut labels: Vec<Vec<u64>> = Vec::new();
        let (mut leaves, mut firsts, mut lasts) =
            (vec![0u64; words], vec![0u64; words], vec![0u64; words]);
        let mut depth = vec![0u32; n];
        let (mut max_depth, mut depth_sum) = (0u32, 0u64);
        for w in 0..words {
            let (mut leaf, mut first, mut last) = (0u64, 0u64, 0u64);
            for j in word_positions(w) {
                let bit = j % 64;
                let end = intervals.end_of_pre(j);
                leaf |= u64::from(end == j) << bit;
                match intervals.parent_of_pre(j) {
                    // The root is both a first and a last child.
                    None => (first, last) = (1, 1),
                    Some(p) => {
                        first |= u64::from(p + 1 == j) << bit;
                        last |= u64::from(end == intervals.end_of_pre(p)) << bit;
                        let d = depth[p as usize] + 1;
                        depth[j as usize] = d;
                        max_depth = max_depth.max(d);
                        depth_sum += u64::from(d);
                    }
                }
                if let Label::Sym(s) = tree.label(intervals.node_at(j)) {
                    let slot = s.0 as usize;
                    if slot >= labels.len() {
                        labels.resize_with(slot + 1, Vec::new);
                    }
                    let posting = &mut labels[slot];
                    if w >= posting.len() {
                        posting.resize((w + 1).max(2 * posting.len()).min(words), 0);
                    }
                    posting[w] |= 1 << bit;
                }
            }
            (leaves[w], firsts[w], lasts[w]) = (leaf, first, last);
        }
        // Trim each label posting to its last member's word, the length
        // `NodeSet::insert` would have grown it to.
        let label_postings: Vec<NodeSet> = labels
            .into_iter()
            .map(|mut posting| {
                posting.truncate(posting.iter().rposition(|&w| w != 0).map_or(0, |w| w + 1));
                NodeSet::from_words(posting)
            })
            .collect();
        let (leaves, firsts, lasts) = (
            NodeSet::from_words(leaves),
            NodeSet::from_words(firsts),
            NodeSet::from_words(lasts),
        );

        // Value postings: per column, packed `(value << 32) | pre` keys
        // pushed in pre-order, then sorted by value alone by a stable radix
        // sort, so each group lists its pre positions in ascending order and
        // groups come out value-sorted for binary search.
        let mut value_postings: Vec<ValueColumn> = Vec::with_capacity(tree.attr_columns());
        let mut has_attr: Vec<NodeSet> = Vec::with_capacity(tree.attr_columns());
        for col in 0..tree.attr_columns() {
            let a = AttrId(col as u16);
            let mut has = vec![0u64; words];
            let mut max_value = 0;
            scratch.keys.clear();
            for (w, word) in has.iter_mut().enumerate() {
                for j in word_positions(w) {
                    let v = tree.attr(intervals.node_at(j), a);
                    if !v.is_bot() {
                        scratch.keys.push((u64::from(v.0) << 32) | u64::from(j));
                        *word |= 1 << (j % 64);
                        max_value = max_value.max(v.0);
                    }
                }
            }
            scratch.sort_by_value(max_value);
            let mut column = ValueColumn {
                pres: scratch.keys.iter().map(|&key| key as u32).collect(),
                ..ValueColumn::default()
            };
            // No key holds `⊥`, so it stands for "no group yet".
            let mut prev = Value::BOT;
            for (i, &key) in scratch.keys.iter().enumerate() {
                let v = Value((key >> 32) as u32);
                if v != prev {
                    column.values.push(v);
                    column.offsets.push(i as u32);
                    prev = v;
                }
            }
            column.offsets.push(column.pres.len() as u32);
            value_postings.push(column);
            has_attr.push(NodeSet::from_words(has));
        }

        let postings_bytes = 8 * label_postings
            .iter()
            .chain(has_attr.iter())
            .chain([&leaves, &firsts, &lasts])
            .map(NodeSet::word_count)
            .sum::<usize>()
            + value_postings
                .iter()
                .map(|col| 4 * col.pres.len() + 8 * col.values.len())
                .sum::<usize>();

        let stats = IndexStats {
            nodes: n,
            max_depth: max_depth as usize,
            avg_depth: depth_sum as f64 / n as f64,
            leaves: leaves.len(),
            distinct_labels: label_postings.iter().filter(|s| !s.is_empty()).count(),
            root_label: tree.label(tree.root()).sym(),
            distinct_values: value_postings.iter().map(|col| col.values.len()).sum(),
            postings_bytes,
        };

        TreeIndex {
            intervals,
            label_postings,
            value_postings,
            has_attr,
            leaves,
            firsts,
            lasts,
            stats,
        }
    }

    /// Nodes in the indexed tree.
    pub fn len(&self) -> usize {
        self.stats.nodes
    }

    /// Never true: every tree has a root.
    pub fn is_empty(&self) -> bool {
        self.stats.nodes == 0
    }

    /// The interval encoding.
    pub fn intervals(&self) -> &DocIntervals {
        &self.intervals
    }

    /// Label postings for `s` (`None` ⇔ empty).
    pub fn label_posting(&self, s: SymId) -> Option<&NodeSet> {
        self.label_postings
            .get(s.0 as usize)
            .filter(|p| !p.is_empty())
    }

    /// Value postings group for `(a, v)`: the ascending pre-order
    /// positions of its nodes (`None` ⇔ empty). `v` must be a domain
    /// value; `⊥` has no postings by construction.
    pub fn value_posting(&self, a: AttrId, v: Value) -> Option<&[u32]> {
        let col = self.value_postings.get(a.0 as usize)?;
        let g = col.values.binary_search(&v).ok()?;
        Some(col.group(g))
    }

    /// All value groups of column `a` (none if the column does not
    /// exist).
    pub fn value_groups(&self, a: AttrId) -> &ValueColumn {
        self.value_postings.get(a.0 as usize).unwrap_or(&NO_VALUES)
    }

    /// Nodes with a non-`⊥` value in column `a` (`None` ⇔ none).
    pub fn has_attr(&self, a: AttrId) -> Option<&NodeSet> {
        self.has_attr.get(a.0 as usize).filter(|p| !p.is_empty())
    }

    /// Leaf postings.
    pub fn leaves(&self) -> &NodeSet {
        &self.leaves
    }

    /// First-child postings (root included).
    pub fn firsts(&self) -> &NodeSet {
        &self.firsts
    }

    /// Last-child postings (root included).
    pub fn lasts(&self) -> &NodeSet {
        &self.lasts
    }

    /// Build-time statistics.
    pub fn stats(&self) -> &IndexStats {
        &self.stats
    }
}

/// Build one index per tree across the pool, reusing one
/// [`IndexScratch`] per worker ([`Pool::scoped_scratch`]). Results are in
/// input order; the serial pool builds inline with a single scratch.
pub fn build_indexes(trees: &[Tree], pool: &Pool) -> Vec<TreeIndex> {
    pool.scoped_scratch(trees.len(), IndexScratch::default, |scratch, i| {
        TreeIndex::build_in(&trees[i], scratch)
    })
}
