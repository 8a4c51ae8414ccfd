//! Canonical total order over `Dom(t)` and walkable successor functions.
//!
//! The Theorem 7.1 constructions number nodes by a canonical traversal order
//! ("we consider the nodes in in-order", Section 7). For unranked trees we
//! fix *document order* (pre-order) as the canonical order: it is total, the
//! root is position 0, and — crucially for the pebble constructions — the
//! successor and predecessor of a node are computable by a constant-state
//! walker using only local moves, so a register automaton can slide a pebble
//! along the order without auxiliary storage. Any FO-definable walkable
//! total order works for the proofs; the choice is immaterial.

use crate::tree::{NodeId, Tree};

/// The document-order successor of `u`: first child if any, otherwise the
/// next sibling of the nearest ancestor-or-self that has one.
pub fn doc_successor(tree: &Tree, u: NodeId) -> Option<NodeId> {
    if let Some(c) = tree.first_child(u) {
        return Some(c);
    }
    let mut cur = u;
    loop {
        if let Some(s) = tree.next_sibling(cur) {
            return Some(s);
        }
        cur = tree.parent(cur)?;
    }
}

/// The document-order predecessor of `u`: if `u` has a previous sibling,
/// that sibling's last descendant; otherwise the parent.
pub fn doc_predecessor(tree: &Tree, u: NodeId) -> Option<NodeId> {
    match tree.prev_sibling(u) {
        Some(mut s) => {
            while let Some(l) = tree.last_child(s) {
                s = l;
            }
            Some(s)
        }
        None => tree.parent(u),
    }
}

/// Document order of all nodes, root first.
pub fn doc_order(tree: &Tree) -> Vec<NodeId> {
    tree.nodes().collect()
}

/// Position of every node in document order: `index[u] = j` iff `u` is the
/// `(j+1)`-th node (root is 0). Indexed by `NodeId`.
pub fn doc_index(tree: &Tree) -> Vec<usize> {
    let mut index = vec![0usize; tree.len()];
    for (j, u) in tree.nodes().enumerate() {
        index[u.idx()] = j;
    }
    index
}

/// The node at document-order position `j`, if `j < |t|`.
pub fn node_at_doc_index(tree: &Tree, j: usize) -> Option<NodeId> {
    tree.nodes().nth(j)
}

/// Document-order interval encoding of a tree.
///
/// `begin(u)` is the pre-order position of `u`, and for every pre-order
/// position `j` the encoding keeps the node there ([`node_at`]), its
/// subtree's last position ([`end_of_pre`]) and its parent's position
/// ([`parent_of_pre`]). So the invariants the index layer relies on are:
///
/// * the strict descendants of the node at `j` are exactly the contiguous
///   pre-order range `j+1 ..= end_of_pre(j)`;
/// * its children are the positions reached by sibling hops: `j + 1`,
///   then `c = end_of_pre(c) + 1` while `c <= end_of_pre(j)`;
/// * its ancestors are the positions climbed through `parent_of_pre`.
///
/// The first invariant turns a descendant axis step over a word-packed
/// [`NodeSet`](crate::NodeSet) in pre-order space into a range fill; the
/// other two make child, parent and ancestor steps without reading the
/// tree's arena.
///
/// Built in two passes over the arena, with no traversal. They rely on
/// its append-only order (see [`Tree`]): a node's parent and previous
/// sibling have smaller ids than the node. A reverse pass sums subtree
/// sizes into parents. A forward pass then ranks each node right after
/// its previous sibling's subtree, or right after its parent when it is a
/// first child, and in the same step writes the node's entries of the
/// pre-order columns. It reads only parent links: each node keeps the
/// next free rank among its children. On a tree whose arena is in
/// pre-order, every write of that pass is sequential.
///
/// The build also records whether every arena id equals its pre-order
/// position ([`arena_is_preorder`]). It does for every tree `parse_xml`
/// reads, which appends each element as it opens; it does not for a
/// randomly grown tree of more than a few nodes.
///
/// [`node_at`]: DocIntervals::node_at
/// [`end_of_pre`]: DocIntervals::end_of_pre
/// [`parent_of_pre`]: DocIntervals::parent_of_pre
/// [`arena_is_preorder`]: DocIntervals::arena_is_preorder
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocIntervals {
    begin: Vec<u32>,
    node_of_pre: Vec<NodeId>,
    /// The parent's pre-order position; the root's entry (position 0) is
    /// unused.
    parent_of_pre: Vec<u32>,
    end_of_pre: Vec<u32>,
    /// `node_of_pre[j] == NodeId(j)` for every `j`.
    arena_is_preorder: bool,
}

impl DocIntervals {
    /// Compute the encoding for `tree`.
    pub fn build(tree: &Tree) -> DocIntervals {
        let n = tree.len();
        let parent = |u: usize| tree.parent(NodeId(u as u32)).map_or(0, NodeId::idx);
        // Reverse arena order meets every node before its parent.
        let mut size = vec![1u32; n];
        for u in (1..n).rev() {
            size[parent(u)] += size[u];
        }
        // Forward arena order meets a node after its parent and its previous
        // siblings, so its rank is its parent's next free rank: `begin[p] +
        // 1` for a first child, else the previous sibling's `begin + size`.
        // Once `u` is ranked, its own `size` slot becomes that cursor.
        let mut next = size;
        let mut begin = vec![0u32; n];
        let mut node_of_pre = vec![NodeId(0); n];
        let mut parent_of_pre = vec![0u32; n];
        let mut end_of_pre = vec![0u32; n];
        end_of_pre[0] = next[0] - 1;
        next[0] = 1;
        let mut arena_is_preorder = true;
        for u in 1..n {
            let p = parent(u);
            let (pre, size) = (next[p], next[u]);
            (next[p], next[u]) = (pre + size, pre + 1);
            begin[u] = pre;
            let j = pre as usize;
            node_of_pre[j] = NodeId(u as u32);
            parent_of_pre[j] = begin[p];
            end_of_pre[j] = pre + size - 1;
            arena_is_preorder &= j == u;
        }
        DocIntervals {
            begin,
            node_of_pre,
            parent_of_pre,
            end_of_pre,
            arena_is_preorder,
        }
    }

    /// Number of nodes covered (`tree.len()` at build time).
    pub fn len(&self) -> usize {
        self.begin.len()
    }

    /// Whether the encoding covers no nodes (never true for a built tree,
    /// which always has a root).
    pub fn is_empty(&self) -> bool {
        self.begin.is_empty()
    }

    /// Pre-order position of `u` (root is 0).
    #[inline]
    pub fn begin(&self, u: NodeId) -> u32 {
        self.begin[u.idx()]
    }

    /// The node at pre-order position `pre`.
    #[inline]
    pub fn node_at(&self, pre: u32) -> NodeId {
        self.node_of_pre[pre as usize]
    }

    /// Largest pre-order position inside the subtree of the node at
    /// position `pre`; equals `pre` exactly when that node is a leaf.
    #[inline]
    pub fn end_of_pre(&self, pre: u32) -> u32 {
        self.end_of_pre[pre as usize]
    }

    /// Pre-order position of the parent of the node at position `pre`
    /// (`None` for the root, position 0).
    #[inline]
    pub fn parent_of_pre(&self, pre: u32) -> Option<u32> {
        (pre != 0).then(|| self.parent_of_pre[pre as usize])
    }

    /// Whether every node's arena id is its pre-order position, so that
    /// `begin` and `node_at` are both the identity and a set over one
    /// space is the same set over the other.
    #[inline]
    pub fn arena_is_preorder(&self) -> bool {
        self.arena_is_preorder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::Vocab;

    fn sample() -> Tree {
        // a(b(c, d), e(f), g)
        let mut v = Vocab::new();
        let s = v.sym("s");
        let mut t = Tree::leaf(s);
        let r = t.root();
        let b = t.add_sym_child(r, s);
        t.add_sym_child(b, s);
        t.add_sym_child(b, s);
        let e = t.add_sym_child(r, s);
        t.add_sym_child(e, s);
        t.add_sym_child(r, s);
        t
    }

    #[test]
    fn successor_chain_covers_tree() {
        let t = sample();
        let mut seen = vec![t.root()];
        let mut cur = t.root();
        while let Some(next) = doc_successor(&t, cur) {
            seen.push(next);
            cur = next;
        }
        assert_eq!(seen.len(), t.len());
        assert_eq!(seen, doc_order(&t));
    }

    #[test]
    fn predecessor_inverts_successor() {
        let t = sample();
        for u in t.node_ids() {
            if let Some(s) = doc_successor(&t, u) {
                assert_eq!(doc_predecessor(&t, s), Some(u));
            }
            if let Some(p) = doc_predecessor(&t, u) {
                assert_eq!(doc_successor(&t, p), Some(u));
            }
        }
        assert_eq!(doc_predecessor(&t, t.root()), None);
    }

    #[test]
    fn intervals_agree_with_climbing() {
        let t = sample();
        let iv = DocIntervals::build(&t);
        assert_eq!(iv.len(), t.len());
        assert!(!iv.is_empty());
        assert_eq!(iv.begin(t.root()), 0);
        assert_eq!(iv.end_of_pre(0) as usize, t.len() - 1);
        // begin is the doc_index permutation, node_at its inverse.
        let idx = doc_index(&t);
        for u in t.node_ids() {
            let b = iv.begin(u);
            assert_eq!(b as usize, idx[u.idx()]);
            assert_eq!(iv.node_at(b), u);
            // Interval containment matches the climbing ancestor test for
            // every pair, leaves included (the range is `b..=b` on leaves).
            for v in t.node_ids() {
                let walked = u == v || t.is_strict_ancestor(u, v);
                let inside = (b..=iv.end_of_pre(b)).contains(&iv.begin(v));
                assert_eq!(inside, walked, "{u:?} {v:?}");
            }
        }
    }

    /// Every pre-order column entry against the tree's own links: the
    /// parent column against `parent`, the end column against the subtree's
    /// last node (last children down to a leaf), and sibling hops against
    /// `children`, in order.
    fn assert_columns_follow_links(t: &Tree) {
        let iv = DocIntervals::build(t);
        for pre in 0..t.len() as u32 {
            let u = iv.node_at(pre);
            assert_eq!(iv.begin(u), pre);
            assert_eq!(
                iv.parent_of_pre(pre),
                t.parent(u).map(|p| iv.begin(p)),
                "parent at {pre}"
            );
            let mut last = u;
            while let Some(c) = t.last_child(last) {
                last = c;
            }
            assert_eq!(iv.end_of_pre(pre), iv.begin(last), "end at {pre}");
            let mut hops = Vec::new();
            let mut c = pre + 1;
            while c <= iv.end_of_pre(pre) {
                hops.push(iv.node_at(c));
                c = iv.end_of_pre(c) + 1;
            }
            assert_eq!(hops, t.children(u).collect::<Vec<_>>(), "children at {pre}");
        }
    }

    #[test]
    fn columns_follow_links_when_arena_order_is_not_preorder() {
        let mut v = Vocab::new();
        let symbols = vec![v.sym("a"), v.sym("b")];
        let mut permuted = 0;
        for (nodes, max_children) in [(1, 2), (2, 1), (40, 2), (200, 4), (700, 8)] {
            let cfg = crate::generate::TreeGenConfig {
                nodes,
                max_children,
                symbols: symbols.clone(),
                attributes: vec![],
                collision_pool: None,
            };
            for seed in 0..4 {
                let t = crate::generate::random_tree(&cfg, seed);
                let preorder = t.nodes().eq(t.node_ids());
                assert_eq!(DocIntervals::build(&t).arena_is_preorder(), preorder);
                permuted += usize::from(!preorder);
                assert_columns_follow_links(&t);
            }
        }
        assert!(
            permuted > 0,
            "no generated tree had arena order ≠ pre-order"
        );
    }

    #[test]
    fn columns_follow_links_on_a_parsed_tree() {
        let mut v = Vocab::new();
        let t = crate::parse_xml(
            "<r><a><b/><c><d/><e/></c></a><f/><g><h><i/></h></g></r>",
            &mut v,
        )
        .unwrap();
        assert!(
            t.nodes().eq(t.node_ids()),
            "parsed arena order is pre-order"
        );
        assert!(DocIntervals::build(&t).arena_is_preorder());
        assert_columns_follow_links(&t);
        assert_columns_follow_links(&sample());
    }

    #[test]
    fn doc_index_round_trip() {
        let t = sample();
        let idx = doc_index(&t);
        for u in t.node_ids() {
            assert_eq!(node_at_doc_index(&t, idx[u.idx()]), Some(u));
        }
        assert_eq!(idx[t.root().idx()], 0);
        assert_eq!(node_at_doc_index(&t, t.len()), None);
    }
}
