//! Attributed unranked Σ-trees (Section 2.1 of the paper).
//!
//! A tree is stored as an arena of nodes with parent / first-child /
//! last-child / previous-sibling / next-sibling links, so every move a
//! tree-walking automaton can make (Section 3: `·, ←, →, ↑, ↓`) is O(1).
//! Attribute values are stored column-major — one dense `Vec<Value>` per
//! attribute — mirroring how a database engine would store them.

use std::fmt;

use crate::nodeset::NodeSet;
use crate::vocab::{AttrId, SymId, Value, Vocab};

/// A node identifier within one [`Tree`]'s arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    #[inline]
    pub(crate) fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A node label: either a proper element symbol `σ ∈ Σ` or one of the four
/// delimiter symbols added by `delim(t)` (Section 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Label {
    /// A proper element symbol from `Σ`.
    Sym(SymId),
    /// `▽` — the super-root of a delimited tree.
    DelimRoot,
    /// `⊳` — opens a child list.
    DelimOpen,
    /// `⊲` — closes a child list.
    DelimClose,
    /// `△` — the child marking an original leaf.
    DelimLeaf,
}

impl Label {
    /// Whether this is one of the four delimiter symbols.
    #[inline]
    pub fn is_delim(self) -> bool {
        !matches!(self, Label::Sym(_))
    }

    /// The underlying element symbol, if any.
    #[inline]
    pub fn sym(self) -> Option<SymId> {
        match self {
            Label::Sym(s) => Some(s),
            _ => None,
        }
    }

    /// Render with the given vocabulary.
    pub fn display(self, vocab: &Vocab) -> String {
        match self {
            Label::Sym(s) => vocab.sym_name(s).to_owned(),
            Label::DelimRoot => "▽".to_owned(),
            Label::DelimOpen => "⊳".to_owned(),
            Label::DelimClose => "⊲".to_owned(),
            Label::DelimLeaf => "△".to_owned(),
        }
    }
}

#[derive(Debug, Clone)]
struct NodeData {
    label: Label,
    parent: Option<NodeId>,
    first_child: Option<NodeId>,
    last_child: Option<NodeId>,
    prev_sibling: Option<NodeId>,
    next_sibling: Option<NodeId>,
    child_count: u32,
}

/// An attributed unranked tree over `Σ` with attribute set `A`
/// (Definition 2.1: a pair `(t, (λ_a)_{a∈A})`).
///
/// Every attribute of every node has a value; nodes for which no value was
/// set carry [`Value::BOT`]. (The paper notes that giving all element types
/// the same attribute set "is just a convenience and not a restriction".)
///
/// The arena is append-only: [`add_child`](Tree::add_child) is the only
/// structural mutator, and it appends. So the root is id 0, and every
/// other node's parent and previous sibling have smaller ids than the
/// node itself. [`check_consistency`](Tree::check_consistency) asserts it,
/// and [`DocIntervals::build`](crate::DocIntervals::build) relies on it.
#[derive(Debug, Clone)]
pub struct Tree {
    nodes: Vec<NodeData>,
    root: NodeId,
    /// Column-major attribute storage: `attrs[a][u]` is `λ_a(u)`.
    attrs: Vec<Vec<Value>>,
}

impl Tree {
    /// Create a single-node tree with the given root label.
    pub fn new(root_label: Label) -> Self {
        Tree::with_capacity(root_label, 1)
    }

    /// [`Tree::new`] with room for `nodes` nodes in the arena.
    pub(crate) fn with_capacity(root_label: Label, nodes: usize) -> Self {
        let mut arena = Vec::with_capacity(nodes.max(1));
        arena.push(NodeData {
            label: root_label,
            parent: None,
            first_child: None,
            last_child: None,
            prev_sibling: None,
            next_sibling: None,
            child_count: 0,
        });
        Tree {
            nodes: arena,
            root: NodeId(0),
            attrs: Vec::new(),
        }
    }

    /// Create a single-node tree labeled by an element symbol.
    pub fn leaf(sym: SymId) -> Self {
        Tree::new(Label::Sym(sym))
    }

    /// The root node (`ε` in the paper's `Dom(t)` notation).
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes (`|Dom(t)|`, the paper's input-size measure).
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree has exactly one node. Trees are never empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Append a new last child under `parent` and return it.
    pub fn add_child(&mut self, parent: NodeId, label: Label) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("tree too large"));
        let prev = self.nodes[parent.idx()].last_child;
        self.nodes.push(NodeData {
            label,
            parent: Some(parent),
            first_child: None,
            last_child: None,
            prev_sibling: prev,
            next_sibling: None,
            child_count: 0,
        });
        match prev {
            Some(p) => self.nodes[p.idx()].next_sibling = Some(id),
            None => self.nodes[parent.idx()].first_child = Some(id),
        }
        self.nodes[parent.idx()].last_child = Some(id);
        self.nodes[parent.idx()].child_count += 1;
        for col in &mut self.attrs {
            col.push(Value::BOT);
        }
        id
    }

    /// Append a new last child labeled by an element symbol.
    pub fn add_sym_child(&mut self, parent: NodeId, sym: SymId) -> NodeId {
        self.add_child(parent, Label::Sym(sym))
    }

    /// The label of a node.
    #[inline]
    pub fn label(&self, u: NodeId) -> Label {
        self.nodes[u.idx()].label
    }

    /// Parent (`m_↑`), if `u` is not the root.
    #[inline]
    pub fn parent(&self, u: NodeId) -> Option<NodeId> {
        self.nodes[u.idx()].parent
    }

    /// First child (`m_↓`), if any.
    #[inline]
    pub fn first_child(&self, u: NodeId) -> Option<NodeId> {
        self.nodes[u.idx()].first_child
    }

    /// Last child, if any.
    #[inline]
    pub fn last_child(&self, u: NodeId) -> Option<NodeId> {
        self.nodes[u.idx()].last_child
    }

    /// Previous sibling (`m_←`), if any.
    #[inline]
    pub fn prev_sibling(&self, u: NodeId) -> Option<NodeId> {
        self.nodes[u.idx()].prev_sibling
    }

    /// Next sibling (`m_→`), if any.
    #[inline]
    pub fn next_sibling(&self, u: NodeId) -> Option<NodeId> {
        self.nodes[u.idx()].next_sibling
    }

    /// Number of children of `u`.
    #[inline]
    pub fn child_count(&self, u: NodeId) -> usize {
        self.nodes[u.idx()].child_count as usize
    }

    /// Whether `u` is the root.
    #[inline]
    pub fn is_root(&self, u: NodeId) -> bool {
        self.nodes[u.idx()].parent.is_none()
    }

    /// Whether `u` is a leaf.
    #[inline]
    pub fn is_leaf(&self, u: NodeId) -> bool {
        self.nodes[u.idx()].first_child.is_none()
    }

    /// Whether `u` is a first child (or the root).
    #[inline]
    pub fn is_first(&self, u: NodeId) -> bool {
        self.nodes[u.idx()].prev_sibling.is_none()
    }

    /// Whether `u` is a last child (or the root).
    #[inline]
    pub fn is_last(&self, u: NodeId) -> bool {
        self.nodes[u.idx()].next_sibling.is_none()
    }

    /// Iterate over the children of `u`, left to right.
    pub fn children(&self, u: NodeId) -> Children<'_> {
        Children {
            tree: self,
            next: self.nodes[u.idx()].first_child,
        }
    }

    /// Iterate over all nodes in document (pre-)order starting at the root.
    pub fn nodes(&self) -> PreOrder<'_> {
        PreOrder {
            tree: self,
            next: Some(self.root),
        }
    }

    /// Iterate over all node ids in arena order (a permutation of `Dom(t)`;
    /// arena order coincides with insertion order, not document order).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Whether `anc` is a strict ancestor of `v` (the paper's `anc ≺ v`).
    pub fn is_strict_ancestor(&self, anc: NodeId, v: NodeId) -> bool {
        let mut cur = self.parent(v);
        while let Some(u) = cur {
            if u == anc {
                return true;
            }
            cur = self.parent(u);
        }
        false
    }

    /// Every strict descendant of every member of `from`. A member already
    /// reached lies inside a subtree walked before it (a parent's arena id
    /// is below its children's), so its own subtree is skipped, and the
    /// whole walk touches each node once.
    pub fn descendants_of(&self, from: &NodeSet) -> NodeSet {
        let mut out = NodeSet::with_capacity(self.len());
        for u in from {
            if out.contains(u) {
                continue;
            }
            if u == self.root() {
                // The root is id 0 and its subtree every id: one range
                // fill covers every member.
                let last = NodeId(self.len() as u32 - 1);
                out.insert_range(NodeId(1), last);
                break;
            }
            let Some(mut cur) = self.first_child(u) else {
                continue;
            };
            'walk: loop {
                out.insert(cur);
                if let Some(c) = self.first_child(cur) {
                    cur = c;
                    continue;
                }
                loop {
                    if let Some(s) = self.next_sibling(cur) {
                        cur = s;
                        break;
                    }
                    cur = self.parent(cur).expect("a walked node lies below `u`");
                    if cur == u {
                        break 'walk;
                    }
                }
            }
        }
        out
    }

    /// Depth of `u` (root has depth 0).
    pub fn depth(&self, u: NodeId) -> usize {
        let mut d = 0;
        let mut cur = self.parent(u);
        while let Some(p) = cur {
            d += 1;
            cur = self.parent(p);
        }
        d
    }

    /// The paper's `Dom(t)` path address of `u`: `ε` is the empty vector,
    /// `u·i` appends the (1-based) child index `i`.
    pub fn path(&self, u: NodeId) -> Vec<u32> {
        let mut rev = Vec::new();
        let mut cur = u;
        while let Some(p) = self.parent(cur) {
            let mut idx = 1u32;
            let mut s = cur;
            while let Some(prev) = self.prev_sibling(s) {
                idx += 1;
                s = prev;
            }
            rev.push(idx);
            cur = p;
        }
        rev.reverse();
        rev
    }

    /// Resolve a `Dom(t)` path address back to a node, if it exists.
    pub fn node_at_path(&self, path: &[u32]) -> Option<NodeId> {
        let mut cur = self.root;
        for &i in path {
            if i == 0 {
                return None;
            }
            let mut child = self.first_child(cur)?;
            for _ in 1..i {
                child = self.next_sibling(child)?;
            }
            cur = child;
        }
        Some(cur)
    }

    // ----- attributes ---------------------------------------------------

    fn ensure_attr(&mut self, a: AttrId) {
        let need = a.0 as usize + 1;
        while self.attrs.len() < need {
            self.attrs.push(vec![Value::BOT; self.nodes.len()]);
        }
    }

    /// Column `a`, materialized (all `⊥`) if it was not yet.
    pub(crate) fn attr_column_mut(&mut self, a: AttrId) -> &mut [Value] {
        self.ensure_attr(a);
        &mut self.attrs[a.0 as usize]
    }

    /// Set `λ_a(u) = v`.
    pub fn set_attr(&mut self, u: NodeId, a: AttrId, v: Value) {
        self.ensure_attr(a);
        self.attrs[a.0 as usize][u.idx()] = v;
    }

    /// Read `λ_a(u)`; unset attributes read as `⊥`.
    #[inline]
    pub fn attr(&self, u: NodeId, a: AttrId) -> Value {
        self.attrs
            .get(a.0 as usize)
            .map_or(Value::BOT, |col| col[u.idx()])
    }

    /// Number of attribute columns materialized so far (an upper bound on
    /// the attribute ids carrying a non-`⊥` value anywhere in this tree).
    #[inline]
    pub fn attr_columns(&self) -> usize {
        self.attrs.len()
    }

    /// All attribute values occurring in the tree, deduplicated and sorted —
    /// the tree's contribution to the active domain `D_active` (Section 3).
    pub fn active_values(&self) -> Vec<Value> {
        let mut vals: Vec<Value> = self
            .attrs
            .iter()
            .flat_map(|col| col.iter().copied())
            .filter(|v| !v.is_bot())
            .collect();
        vals.sort_unstable();
        vals.dedup();
        vals
    }

    /// Assign a fresh, globally unique value of attribute `a` to every node
    /// (the unique-ID assumption of Section 7).
    pub fn assign_unique_ids(&mut self, a: AttrId, vocab: &mut Vocab) {
        let ids: Vec<NodeId> = self.node_ids().collect();
        for u in ids {
            let v = vocab.fresh_value();
            self.set_attr(u, a, v);
        }
    }

    /// Check the Section 7 uniqueness condition for attribute `a`: no two
    /// distinct nodes share a value.
    pub fn ids_are_unique(&self, a: AttrId) -> bool {
        let mut seen: Vec<Value> = self.node_ids().map(|u| self.attr(u, a)).collect();
        let n = seen.len();
        seen.sort_unstable();
        seen.dedup();
        seen.len() == n
    }

    /// Find the node carrying value `v` for attribute `a`, if unique IDs are
    /// in force. Linear scan — used by tests and diagnostics only.
    pub fn node_with_id(&self, a: AttrId, v: Value) -> Option<NodeId> {
        self.node_ids().find(|&u| self.attr(u, a) == v)
    }

    /// Validate internal link consistency and the append-only arena order
    /// (used by tests and after tree-building code paths).
    pub fn check_consistency(&self) -> Result<(), String> {
        if self.root != NodeId(0) || self.nodes.is_empty() {
            return Err("root is not id 0".into());
        }
        if self.nodes[0].parent.is_some() {
            return Err("root has a parent".into());
        }
        for u in self.node_ids() {
            let d = &self.nodes[u.idx()];
            if u != self.root && d.parent.is_none_or(|p| p >= u) {
                return Err(format!("{u} has no parent before it in the arena"));
            }
            if d.prev_sibling.is_some_and(|s| s >= u) {
                return Err(format!("{u} has a previous sibling after it in the arena"));
            }
            let mut count = 0u32;
            let mut prev: Option<NodeId> = None;
            let mut cur = d.first_child;
            while let Some(c) = cur {
                let cd = &self.nodes[c.idx()];
                if cd.parent != Some(u) {
                    return Err(format!("{c} has wrong parent"));
                }
                if cd.prev_sibling != prev {
                    return Err(format!("{c} has wrong prev_sibling"));
                }
                prev = Some(c);
                count += 1;
                cur = cd.next_sibling;
            }
            if d.last_child != prev {
                return Err(format!("{u} has wrong last_child"));
            }
            if d.child_count != count {
                return Err(format!("{u} has wrong child_count"));
            }
        }
        // Every non-root node must be reachable from the root.
        let reachable = self.nodes().count();
        if reachable != self.len() {
            return Err(format!(
                "only {reachable} of {} nodes reachable from root",
                self.len()
            ));
        }
        for col in &self.attrs {
            if col.len() != self.nodes.len() {
                return Err("attribute column length mismatch".into());
            }
        }
        Ok(())
    }
}

/// Iterator over the children of a node, left to right.
pub struct Children<'t> {
    tree: &'t Tree,
    next: Option<NodeId>,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.tree.next_sibling(cur);
        Some(cur)
    }
}

/// Document-order (pre-order) traversal of all nodes.
pub struct PreOrder<'t> {
    tree: &'t Tree,
    next: Option<NodeId>,
}

impl Iterator for PreOrder<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = crate::order::doc_successor(self.tree, cur);
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc_tree() -> (Vocab, Tree) {
        // a(b, c(d, e))
        let mut v = Vocab::new();
        let a = v.sym("a");
        let b = v.sym("b");
        let c = v.sym("c");
        let d = v.sym("d");
        let e = v.sym("e");
        let mut t = Tree::leaf(a);
        let r = t.root();
        t.add_sym_child(r, b);
        let nc = t.add_sym_child(r, c);
        t.add_sym_child(nc, d);
        t.add_sym_child(nc, e);
        (v, t)
    }

    #[test]
    fn navigation_links() {
        let (_, t) = abc_tree();
        let r = t.root();
        assert!(t.is_root(r));
        assert!(!t.is_leaf(r));
        let b = t.first_child(r).unwrap();
        let c = t.next_sibling(b).unwrap();
        assert_eq!(t.prev_sibling(c), Some(b));
        assert_eq!(t.last_child(r), Some(c));
        assert_eq!(t.parent(b), Some(r));
        assert!(t.is_leaf(b));
        assert!(t.is_first(b));
        assert!(!t.is_last(b));
        assert!(t.is_last(c));
        assert_eq!(t.child_count(r), 2);
        assert_eq!(t.child_count(c), 2);
        assert_eq!(t.len(), 5);
        t.check_consistency().unwrap();
    }

    #[test]
    fn paths_round_trip() {
        let (_, t) = abc_tree();
        for u in t.node_ids() {
            let p = t.path(u);
            assert_eq!(t.node_at_path(&p), Some(u));
        }
        assert_eq!(t.path(t.root()), Vec::<u32>::new());
        // c = second child of root, d = its first child.
        let c = t.node_at_path(&[2]).unwrap();
        let d = t.node_at_path(&[2, 1]).unwrap();
        assert_eq!(t.parent(d), Some(c));
        assert_eq!(t.node_at_path(&[3]), None);
        assert_eq!(t.node_at_path(&[2, 0]), None);
    }

    #[test]
    fn ancestors_and_depth() {
        let (_, t) = abc_tree();
        let r = t.root();
        let c = t.node_at_path(&[2]).unwrap();
        let e = t.node_at_path(&[2, 2]).unwrap();
        assert!(t.is_strict_ancestor(r, e));
        assert!(t.is_strict_ancestor(c, e));
        assert!(!t.is_strict_ancestor(e, c));
        assert!(!t.is_strict_ancestor(r, r));
        assert_eq!(t.depth(r), 0);
        assert_eq!(t.depth(e), 2);
    }

    #[test]
    fn attributes_default_to_bot() {
        let (mut v, mut t) = abc_tree();
        let at = v.attr("x");
        let val = v.val_int(7);
        let b = t.node_at_path(&[1]).unwrap();
        assert!(t.attr(b, at).is_bot());
        t.set_attr(b, at, val);
        assert_eq!(t.attr(b, at), val);
        assert!(t.attr(t.root(), at).is_bot());
        assert_eq!(t.active_values(), vec![val]);
    }

    #[test]
    fn attr_columns_grow_with_nodes() {
        let mut v = Vocab::new();
        let a = v.sym("a");
        let at = v.attr("k");
        let val = v.val_int(1);
        let mut t = Tree::leaf(a);
        t.set_attr(t.root(), at, val);
        let u = t.add_sym_child(t.root(), a);
        assert!(t.attr(u, at).is_bot());
        t.check_consistency().unwrap();
    }

    #[test]
    fn unique_ids() {
        let (mut v, mut t) = abc_tree();
        let id = v.attr("id");
        assert!(!t.ids_are_unique(id)); // all ⊥
        t.assign_unique_ids(id, &mut v);
        assert!(t.ids_are_unique(id));
        let r_id = t.attr(t.root(), id);
        assert_eq!(t.node_with_id(id, r_id), Some(t.root()));
    }

    #[test]
    fn preorder_visits_everything_once() {
        let (_, t) = abc_tree();
        let order: Vec<NodeId> = t.nodes().collect();
        assert_eq!(order.len(), t.len());
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), t.len());
        // Pre-order of a(b, c(d, e)): a, b, c, d, e by construction order.
        assert_eq!(order[0], t.root());
    }

    #[test]
    fn children_iterator() {
        let (_, t) = abc_tree();
        let kids: Vec<NodeId> = t.children(t.root()).collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(t.children(kids[0]).count(), 0);
    }

    #[test]
    fn delim_labels() {
        assert!(Label::DelimRoot.is_delim());
        assert!(Label::DelimOpen.is_delim());
        assert!(Label::DelimClose.is_delim());
        assert!(Label::DelimLeaf.is_delim());
        assert!(!Label::Sym(SymId(0)).is_delim());
        assert_eq!(Label::Sym(SymId(0)).sym(), Some(SymId(0)));
        assert_eq!(Label::DelimLeaf.sym(), None);
    }
}
