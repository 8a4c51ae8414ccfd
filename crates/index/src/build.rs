//! Per-tree inverted indexes, built in one pre-order pass.
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

use twq_exec::Pool;
use twq_tree::{AttrId, DocIntervals, Label, NodeId, NodeSet, SymId, Tree, Value};

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

/// Reusable working memory for [`TreeIndex::build_in`] — one sort buffer
/// for an attribute column's packed `(value << 32) | pre` keys. A worker
/// threading one scratch through a batch ([`build_indexes`]) allocates it
/// once.
#[derive(Debug, Default)]
pub struct IndexScratch {
    keys: Vec<u64>,
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

        let mut label_postings: Vec<NodeSet> = Vec::new();
        let mut leaves = NodeSet::with_capacity(n);
        let mut firsts = NodeSet::with_capacity(n);
        let mut lasts = NodeSet::with_capacity(n);
        for pre in 0..n as u32 {
            let u = intervals.node_at(pre);
            let p = NodeId(pre);
            if let Label::Sym(s) = tree.label(u) {
                let slot = s.0 as usize;
                if slot >= label_postings.len() {
                    label_postings.resize_with(slot + 1, NodeSet::new);
                }
                label_postings[slot].insert(p);
            }
            if tree.is_leaf(u) {
                leaves.insert(p);
            }
            if tree.is_first(u) {
                firsts.insert(p);
            }
            if tree.is_last(u) {
                lasts.insert(p);
            }
        }

        // Value postings: one sort of packed `(value << 32) | pre` keys per
        // column. Groups come out value-sorted for binary search, each one
        // listing its pre positions in ascending order.
        let mut value_postings: Vec<ValueColumn> = Vec::with_capacity(tree.attr_columns());
        let mut has_attr: Vec<NodeSet> = Vec::with_capacity(tree.attr_columns());
        for col in 0..tree.attr_columns() {
            let a = AttrId(col as u16);
            let mut has = NodeSet::with_capacity(n);
            scratch.keys.clear();
            for pre in 0..n as u32 {
                let v = tree.attr(intervals.node_at(pre), a);
                if !v.is_bot() {
                    scratch.keys.push((u64::from(v.0) << 32) | u64::from(pre));
                    has.insert(NodeId(pre));
                }
            }
            scratch.keys.sort_unstable();
            let mut column = ValueColumn {
                pres: Vec::with_capacity(scratch.keys.len()),
                ..ValueColumn::default()
            };
            for (i, &key) in scratch.keys.iter().enumerate() {
                let v = Value((key >> 32) as u32);
                if column.values.last() != Some(&v) {
                    column.values.push(v);
                    column.offsets.push(i as u32);
                }
                column.pres.push(key as u32);
            }
            column.offsets.push(column.pres.len() as u32);
            value_postings.push(column);
            has_attr.push(has);
        }

        // Depths in arena order: the arena appends children after their
        // parent, so one forward pass settles every depth.
        let mut depth = vec![0u32; n];
        let (mut max_depth, mut depth_sum) = (0u32, 0u64);
        for u in tree.node_ids() {
            let i = u.0 as usize;
            if let Some(p) = tree.parent(u) {
                depth[i] = depth[p.0 as usize] + 1;
            }
            max_depth = max_depth.max(depth[i]);
            depth_sum += depth[i] as u64;
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
