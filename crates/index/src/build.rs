//! Per-tree inverted indexes, built in one pre-order pass.
//!
//! A [`TreeIndex`] holds, for one frozen [`Tree`]:
//!
//! * the document-order interval encoding ([`DocIntervals`]), plus an
//!   `end`-by-pre-order table so descendant expansion never touches the
//!   tree;
//! * label postings: one [`NodeSet`] per element symbol;
//! * value postings: per attribute column, a value-sorted list of
//!   `(Value, NodeSet)` groups, plus the set of nodes where the column is
//!   non-`⊥`;
//! * structural postings (leaves, first children, last children);
//! * [`IndexStats`] feeding the cost model.
//!
//! **All postings live in pre-order space**: bit `j` of a posting refers to
//! the node at pre-order position `j`, not to arena id `j`. The two orders
//! differ for randomly grown trees, and pre-order is the one under which a
//! subtree is a contiguous bit range. [`crate::eval_plan_from`] converts at
//! the boundary.

use std::time::Instant;

use twq_exec::Pool;
use twq_obs::{Collector, NullCollector};
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
    /// Heap bytes held by all postings bitsets.
    pub postings_bytes: usize,
    /// Wall-clock build time in nanoseconds.
    pub build_ns: u64,
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
/// for the `(value, pre)` pairs of an attribute column. A worker threading
/// one scratch through a batch ([`build_indexes`]) allocates it once.
#[derive(Debug, Default)]
pub struct IndexScratch {
    pairs: Vec<(Value, u32)>,
}

/// The per-tree index. Build once per frozen tree, query many times.
#[derive(Debug, Clone)]
pub struct TreeIndex {
    intervals: DocIntervals,
    /// `end_of_pre[j] = end(node at pre-order position j)` — the subtree
    /// range bound, pre-permuted for the descendant expansion loop.
    end_of_pre: Vec<u32>,
    /// Label postings by `SymId` index (missing tail ⇒ empty postings).
    label_postings: Vec<NodeSet>,
    /// Per attribute column: value-sorted postings groups.
    value_postings: Vec<Vec<(Value, NodeSet)>>,
    /// Per attribute column: nodes with a non-`⊥` value.
    has_attr: Vec<NodeSet>,
    leaves: NodeSet,
    firsts: NodeSet,
    lasts: NodeSet,
    stats: IndexStats,
}

impl TreeIndex {
    /// Build with no instrumentation and fresh scratch.
    pub fn build(tree: &Tree) -> TreeIndex {
        TreeIndex::build_with(tree, &mut NullCollector)
    }

    /// Build with instrumentation: reports `phase("index/build")` and the
    /// `index/postings_bytes` / `index/built` counters through `c`.
    pub fn build_with<C: Collector>(tree: &Tree, c: &mut C) -> TreeIndex {
        TreeIndex::build_in(tree, &mut IndexScratch::default(), c)
    }

    /// Build reusing `scratch`'s allocations (the batch entry point).
    pub fn build_in<C: Collector>(tree: &Tree, scratch: &mut IndexScratch, c: &mut C) -> TreeIndex {
        let t0 = Instant::now();
        let n = tree.len();
        let intervals = DocIntervals::build(tree);

        let mut end_of_pre = vec![0u32; n];
        let mut label_postings: Vec<NodeSet> = Vec::new();
        let mut leaves = NodeSet::with_capacity(n);
        let mut firsts = NodeSet::with_capacity(n);
        let mut lasts = NodeSet::with_capacity(n);
        for pre in 0..n as u32 {
            let u = intervals.node_at(pre);
            end_of_pre[pre as usize] = intervals.end(u);
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

        // Value postings: sort (value, pre) pairs per column, then group.
        // Groups come out value-sorted for binary search; within a group
        // the pre positions ascend, so inserts never backtrack.
        let mut value_postings: Vec<Vec<(Value, NodeSet)>> = Vec::new();
        let mut has_attr: Vec<NodeSet> = Vec::new();
        let mut distinct_values = 0usize;
        for col in 0..tree.attr_columns() {
            let a = AttrId(col as u16);
            let mut has = NodeSet::with_capacity(n);
            scratch.pairs.clear();
            for pre in 0..n as u32 {
                let v = tree.attr(intervals.node_at(pre), a);
                if !v.is_bot() {
                    scratch.pairs.push((v, pre));
                    has.insert(NodeId(pre));
                }
            }
            scratch.pairs.sort_unstable();
            let mut groups: Vec<(Value, NodeSet)> = Vec::new();
            for &(v, pre) in &scratch.pairs {
                match groups.last_mut() {
                    Some((gv, set)) if *gv == v => {
                        set.insert(NodeId(pre));
                    }
                    _ => {
                        let mut set = NodeSet::new();
                        set.insert(NodeId(pre));
                        groups.push((v, set));
                    }
                }
            }
            distinct_values += groups.len();
            value_postings.push(groups);
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

        let postings_bytes = 8
            * (label_postings
                .iter()
                .chain(has_attr.iter())
                .chain([&leaves, &firsts, &lasts])
                .map(NodeSet::word_count)
                .sum::<usize>()
                + value_postings
                    .iter()
                    .flatten()
                    .map(|(_, s)| s.word_count())
                    .sum::<usize>());

        let stats = IndexStats {
            nodes: n,
            max_depth: max_depth as usize,
            avg_depth: depth_sum as f64 / n as f64,
            leaves: leaves.len(),
            distinct_labels: label_postings.iter().filter(|s| !s.is_empty()).count(),
            root_label: tree.label(tree.root()).sym(),
            distinct_values,
            postings_bytes,
            build_ns: t0.elapsed().as_nanos() as u64,
        };

        if C::ENABLED {
            c.phase("index/build", stats.build_ns);
            c.counter("index/built", 1);
            c.counter("index/postings_bytes", postings_bytes as u64);
        }

        TreeIndex {
            intervals,
            end_of_pre,
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

    /// `end` of the node at pre-order position `pre`.
    #[inline]
    pub fn end_of_pre(&self, pre: u32) -> u32 {
        self.end_of_pre[pre as usize]
    }

    /// Label postings for `s` (`None` ⇔ empty).
    pub fn label_posting(&self, s: SymId) -> Option<&NodeSet> {
        self.label_postings
            .get(s.0 as usize)
            .filter(|p| !p.is_empty())
    }

    /// Value postings group for `(a, v)` (`None` ⇔ empty). `v` must be a
    /// domain value; `⊥` has no postings by construction.
    pub fn value_posting(&self, a: AttrId, v: Value) -> Option<&NodeSet> {
        let groups = self.value_postings.get(a.0 as usize)?;
        let i = groups.binary_search_by_key(&v, |&(gv, _)| gv).ok()?;
        Some(&groups[i].1)
    }

    /// All value groups of column `a`, value-sorted (empty if the column
    /// does not exist).
    pub fn value_groups(&self, a: AttrId) -> &[(Value, NodeSet)] {
        self.value_postings
            .get(a.0 as usize)
            .map_or(&[], Vec::as_slice)
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
        TreeIndex::build_in(&trees[i], scratch, &mut NullCollector)
    })
}
