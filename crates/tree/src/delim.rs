//! Delimited trees: `delim(t)` (Section 3).
//!
//! Tree-walking automata run on the delimited version of the input so that a
//! constant-state walker can detect the boundary of the tree the same way a
//! two-way string automaton uses end markers. Following the paper's example
//! (`delim(a(bcd))`):
//!
//! * a new super-root `▽` is added whose children are `⊳ t ⊲`;
//! * each original node's child list is wrapped as `⊳ c₁ … cₙ ⊲`;
//! * each original *leaf* receives a single child `△`;
//! * every attribute of every delimiter node is `⊥ ∉ D`.
//!
//! Consequently, in `delim(t)` the original leaves are exactly the parents
//! of `△`-nodes — the paper leans on this in Example 3.2 ("by
//! leaf-descendants we do not mean nodes labeled with △ but the parents of
//! those nodes").
//!
//! [`DelimTree::build`] knows the size of `delim(t)` before it starts:
//! `n + 2·internal + leaves + 3` nodes for `n` nodes, of which `internal`
//! have children. It allocates the arena once at that size and fills it in
//! one pass over `t` in document order, appending each node's delimited
//! child list under its image; attribute columns are then copied whole.

use crate::tree::{Label, NodeId, Tree};
use crate::vocab::AttrId;

/// A delimited tree together with the two-way node correspondence to the
/// original tree it was built from.
#[derive(Debug, Clone)]
pub struct DelimTree {
    tree: Tree,
    /// For each node of the delimited tree: the original node it images, or
    /// `None` for delimiter nodes.
    orig_of: Vec<Option<NodeId>>,
    /// For each original node: its image in the delimited tree.
    image_of: Vec<NodeId>,
}

impl DelimTree {
    /// Build `delim(t)`. Attribute values of original nodes are copied;
    /// delimiter nodes keep the default `⊥` for every attribute.
    ///
    /// One pass over `t` in document order emits each node's delimited
    /// child list — `⊳ c₁ … cₖ ⊲`, or `△` under a leaf — into an arena
    /// allocated once at its final size, `n + 2·internal + leaves + 3`.
    pub fn build(orig: &Tree) -> DelimTree {
        let n = orig.len();
        let leaves = orig.node_ids().filter(|&u| orig.is_leaf(u)).count();
        let size = n + 2 * (n - leaves) + leaves + 3;
        let mut dt = DelimTree {
            tree: Tree::with_capacity(Label::DelimRoot, size),
            orig_of: Vec::with_capacity(size),
            image_of: vec![NodeId(0); n],
        };
        dt.orig_of.push(None);

        // Wrap the original root: ▽(⊳, image(root), ⊲).
        let sup = dt.tree.root();
        dt.add(sup, Label::DelimOpen, None);
        dt.add(sup, orig.label(orig.root()), Some(orig.root()));
        dt.add(sup, Label::DelimClose, None);
        // Every node's image exists before the node is reached: its
        // parent's child list was emitted first.
        for u in orig.nodes() {
            let img = dt.image_of[u.idx()];
            if orig.is_leaf(u) {
                dt.add(img, Label::DelimLeaf, None);
                continue;
            }
            dt.add(img, Label::DelimOpen, None);
            for c in orig.children(u) {
                dt.add(img, orig.label(c), Some(c));
            }
            dt.add(img, Label::DelimClose, None);
        }
        debug_assert_eq!(dt.tree.len(), size);

        // Copy attribute values onto the images, one column at a time, up
        // to the last column holding a value.
        let cols = (0..orig.attr_columns() as u16)
            .rev()
            .find(|&a| orig.node_ids().any(|u| !orig.attr(u, AttrId(a)).is_bot()))
            .map_or(0, |a| a + 1);
        for a in (0..cols).map(AttrId) {
            let col = dt.tree.attr_column_mut(a);
            for (u, img) in orig.node_ids().zip(&dt.image_of) {
                col[img.idx()] = orig.attr(u, a);
            }
        }
        dt
    }

    /// Append a last child of `parent`, the image of `of` if any.
    fn add(&mut self, parent: NodeId, label: Label, of: Option<NodeId>) {
        let v = self.tree.add_child(parent, label);
        self.orig_of.push(of);
        if let Some(u) = of {
            self.image_of[u.idx()] = v;
        }
    }

    /// The underlying delimited tree.
    #[inline]
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Assign fresh unique IDs (attribute `a`) to **every** node of the
    /// delimited tree — delimiters included. The Theorem 7.1 pebble
    /// constructions place pebbles on arbitrary delimited-tree nodes, so
    /// delimiters need IDs too (the paper's unique-ID assumption concerns
    /// the input; extending it to the materialized delimiters is purely an
    /// implementation device and invisible to the source machine).
    pub fn assign_unique_ids(&mut self, a: crate::vocab::AttrId, vocab: &mut crate::vocab::Vocab) {
        self.tree.assign_unique_ids(a, vocab);
    }

    /// The original node imaged by delimited-tree node `u`, or `None` if `u`
    /// is a delimiter.
    #[inline]
    pub fn original(&self, u: NodeId) -> Option<NodeId> {
        self.orig_of[u.idx()]
    }

    /// The image of original node `u` in the delimited tree.
    #[inline]
    pub fn image(&self, u: NodeId) -> NodeId {
        self.image_of[u.idx()]
    }

    /// Reconstruct the original tree (inverse of [`DelimTree::build`]),
    /// used by round-trip tests.
    pub fn strip(&self) -> Tree {
        // Rebuild by walking images in the same child order.
        let old_root_img = self.image_root();
        let mut out = Tree::new(self.tree.label(old_root_img));
        let mut stack: Vec<(NodeId, NodeId)> = vec![(old_root_img, out.root())];
        // Copy attributes of the root.
        self.copy_attrs(old_root_img, out.root(), &mut out);
        while let Some((img, new_u)) = stack.pop() {
            let kids: Vec<NodeId> = self
                .tree
                .children(img)
                .filter(|&c| !self.tree.label(c).is_delim())
                .collect();
            let mut pairs = Vec::with_capacity(kids.len());
            for &c in &kids {
                let nc = out.add_child(new_u, self.tree.label(c));
                self.copy_attrs(c, nc, &mut out);
                pairs.push((c, nc));
            }
            for pr in pairs.into_iter().rev() {
                stack.push(pr);
            }
        }
        out
    }

    fn image_root(&self) -> NodeId {
        // The image of the original root is the unique non-delimiter child
        // of the super-root.
        self.tree
            .children(self.tree.root())
            .find(|&c| !self.tree.label(c).is_delim())
            .expect("super-root always has the original root as a child")
    }

    fn copy_attrs(&self, from_img: NodeId, to: NodeId, out: &mut Tree) {
        for a in 0..self.tree.attr_columns() as u16 {
            let a = crate::vocab::AttrId(a);
            let v = self.tree.attr(from_img, a);
            if !v.is_bot() {
                out.set_attr(to, a, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::Vocab;

    /// The paper's running example: `delim(a(bcd))`.
    fn paper_example() -> (Vocab, Tree) {
        let mut v = Vocab::new();
        let a = v.sym("a");
        let b = v.sym("b");
        let c = v.sym("c");
        let d = v.sym("d");
        let mut t = Tree::leaf(a);
        let r = t.root();
        t.add_sym_child(r, b);
        t.add_sym_child(r, c);
        t.add_sym_child(r, d);
        (v, t)
    }

    #[test]
    fn paper_figure_shape() {
        let (_, t) = paper_example();
        let dt = DelimTree::build(&t);
        let d = dt.tree();
        d.check_consistency().unwrap();
        // ▽ with children ⊳ a ⊲.
        assert_eq!(d.label(d.root()), Label::DelimRoot);
        let top: Vec<Label> = d.children(d.root()).map(|u| d.label(u)).collect();
        assert_eq!(top, vec![Label::DelimOpen, t_label(&t), Label::DelimClose,]);
        // a with children ⊳ b c d ⊲.
        let a_img = dt.image(t.root());
        let kids: Vec<Label> = d.children(a_img).map(|u| d.label(u)).collect();
        assert_eq!(kids.len(), 5);
        assert_eq!(kids[0], Label::DelimOpen);
        assert_eq!(kids[4], Label::DelimClose);
        assert!(kids[1..4].iter().all(|l| !l.is_delim()));
        // Each of b, c, d has a single △ child.
        for c in t.children(t.root()) {
            let img = dt.image(c);
            let leaves: Vec<Label> = d.children(img).map(|u| d.label(u)).collect();
            assert_eq!(leaves, vec![Label::DelimLeaf]);
        }
        // Size: 4 original + ▽ + 2 top delims + 2 child-list delims + 3 △.
        assert_eq!(d.len(), 4 + 1 + 2 + 2 + 3);
    }

    fn t_label(t: &Tree) -> Label {
        t.label(t.root())
    }

    #[test]
    fn original_and_image_are_inverse() {
        let (_, t) = paper_example();
        let dt = DelimTree::build(&t);
        for u in t.node_ids() {
            assert_eq!(dt.original(dt.image(u)), Some(u));
        }
        let mut images = 0;
        for u in dt.tree().node_ids() {
            match dt.original(u) {
                Some(o) => {
                    assert_eq!(dt.image(o), u);
                    images += 1;
                }
                None => assert!(dt.tree().label(u).is_delim()),
            }
        }
        assert_eq!(images, t.len());
    }

    #[test]
    fn attributes_copied_delims_bot() {
        let (mut v, mut t) = paper_example();
        let at = v.attr("x");
        let val = v.val_str("hello");
        let b = t.node_at_path(&[1]).unwrap();
        t.set_attr(b, at, val);
        let dt = DelimTree::build(&t);
        assert_eq!(dt.tree().attr(dt.image(b), at), val);
        for u in dt.tree().node_ids() {
            if dt.tree().label(u).is_delim() {
                assert!(dt.tree().attr(u, at).is_bot());
            }
        }
    }

    #[test]
    fn strip_round_trips() {
        let (mut v, mut t) = paper_example();
        let at = v.attr("k");
        let val = v.val_int(9);
        t.set_attr(t.node_at_path(&[3]).unwrap(), at, val);
        let dt = DelimTree::build(&t);
        let back = dt.strip();
        assert_eq!(back.len(), t.len());
        for u in t.node_ids() {
            let p = t.path(u);
            let bu = back.node_at_path(&p).unwrap();
            assert_eq!(back.label(bu), t.label(u));
            assert_eq!(back.attr(bu, at), t.attr(u, at));
        }
    }

    #[test]
    fn single_node_tree() {
        let mut v = Vocab::new();
        let a = v.sym("a");
        let t = Tree::leaf(a);
        let dt = DelimTree::build(&t);
        // ▽(⊳, a(△), ⊲)
        assert_eq!(dt.tree().len(), 5);
        let img = dt.image(t.root());
        assert_eq!(dt.tree().child_count(img), 1);
        assert_eq!(
            dt.tree().label(dt.tree().first_child(img).unwrap()),
            Label::DelimLeaf
        );
        let back = dt.strip();
        assert_eq!(back.len(), 1);
    }
}
