//! Word-packed node sets.
//!
//! [`NodeId`]s are dense arena indices (`0..tree.len()`), so a set of
//! nodes packs into one bit per node: 64 membership tests, unions or
//! intersections per machine word. The evaluators use [`NodeSet`] where
//! they previously kept `BTreeSet<NodeId>`/`Vec<NodeId>` — same observable
//! contents (iteration is ascending, i.e. arena/document order), a word of
//! memory per 64 nodes, and set algebra that touches whole words.

use crate::tree::NodeId;

const BITS: usize = u64::BITS as usize;

/// A set of [`NodeId`]s stored one bit per node.
///
/// Iteration order is ascending node id — the arena order every evaluator
/// already produced, so swapping a sorted `Vec` or `BTreeSet` for a
/// `NodeSet` does not reorder results. The set grows automatically on
/// [`insert`](NodeSet::insert); sizing it up front with
/// [`with_capacity`](NodeSet::with_capacity) avoids reallocation in hot
/// loops.
#[derive(Debug, Clone, Default)]
pub struct NodeSet {
    words: Vec<u64>,
    len: usize,
}

/// Equality is over members only — trailing zero words from a larger
/// [`with_capacity`](NodeSet::with_capacity) do not distinguish sets.
impl PartialEq for NodeSet {
    fn eq(&self, other: &NodeSet) -> bool {
        if self.len != other.len {
            return false;
        }
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        short.iter().zip(long.iter()).all(|(a, b)| a == b)
            && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for NodeSet {}

impl NodeSet {
    /// An empty set.
    pub fn new() -> Self {
        NodeSet::default()
    }

    /// An empty set pre-sized for node ids `0..n`.
    pub fn with_capacity(n: usize) -> Self {
        NodeSet {
            words: vec![0; n.div_ceil(BITS)],
            len: 0,
        }
    }

    /// Number of nodes in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Number of 64-bit words currently allocated (8 bytes each) — the
    /// index layer's postings-memory accounting.
    #[inline]
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        let i = v.idx();
        match self.words.get(i / BITS) {
            Some(w) => w & (1u64 << (i % BITS)) != 0,
            None => false,
        }
    }

    /// Insert `v`; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, v: NodeId) -> bool {
        let i = v.idx();
        let w = i / BITS;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let mask = 1u64 << (i % BITS);
        let fresh = self.words[w] & mask == 0;
        self.words[w] |= mask;
        self.len += fresh as usize;
        fresh
    }

    /// Insert every id in `lo..=hi`, whole words at a time: the boundary
    /// words get masked fills, everything strictly between is set to `!0`.
    /// This is what makes a document-order descendant step a range fill
    /// rather than a per-node loop. The count grows by the bits each
    /// touched word gains, so a fill costs O(1 + (hi − lo)/64) however
    /// large the set is.
    pub fn insert_range(&mut self, lo: NodeId, hi: NodeId) {
        let (lo, hi) = (lo.idx(), hi.idx());
        if lo > hi {
            return;
        }
        let (wl, wh) = (lo / BITS, hi / BITS);
        if wh >= self.words.len() {
            self.words.resize(wh + 1, 0);
        }
        let mask_lo = !0u64 << (lo % BITS);
        let mask_hi = !0u64 >> (BITS - 1 - hi % BITS);
        let mut added = 0;
        let mut fill = |w: &mut u64, mask: u64| {
            added += (mask & !*w).count_ones() as usize;
            *w |= mask;
        };
        if wl == wh {
            fill(&mut self.words[wl], mask_lo & mask_hi);
        } else {
            fill(&mut self.words[wl], mask_lo);
            self.words[wl + 1..wh].iter_mut().for_each(|w| fill(w, !0));
            fill(&mut self.words[wh], mask_hi);
        }
        self.len += added;
    }

    /// Remove `v`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, v: NodeId) -> bool {
        let i = v.idx();
        let Some(w) = self.words.get_mut(i / BITS) else {
            return false;
        };
        let mask = 1u64 << (i % BITS);
        let had = *w & mask != 0;
        *w &= !mask;
        self.len -= had as usize;
        had
    }

    /// `self ∪= other`, whole words at a time.
    pub fn union_with(&mut self, other: &NodeSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        self.combine(other, |a, b| a | b);
    }

    /// `self ∩= other`, whole words at a time.
    pub fn intersect_with(&mut self, other: &NodeSet) {
        let common = self.words.len().min(other.words.len());
        self.words[common..].fill(0);
        self.combine(other, |a, b| a & b);
    }

    /// Remove every node of `other` from `self`.
    pub fn difference_with(&mut self, other: &NodeSet) {
        self.combine(other, |a, b| a & !b);
    }

    /// Replace each word `a` that `other` also has with `op(a, b)` and
    /// recount in the same pass; words past `other`'s end are kept.
    fn combine(&mut self, other: &NodeSet, op: impl Fn(u64, u64) -> u64) {
        let common = self.words.len().min(other.words.len());
        let (head, tail) = self.words.split_at_mut(common);
        let mut len = 0;
        for (a, &b) in head.iter_mut().zip(&other.words[..common]) {
            *a = op(*a, b);
            len += a.count_ones() as usize;
        }
        self.len = len + tail.iter().map(|w| w.count_ones() as usize).sum::<usize>();
    }

    /// Keep only the members for which `keep` holds, visiting them in
    /// ascending id order.
    pub fn retain(&mut self, mut keep: impl FnMut(NodeId) -> bool) {
        for (i, w) in self.words.iter_mut().enumerate() {
            let mut bits = *w;
            while bits != 0 {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                if !keep(NodeId((i * BITS) as u32 + b)) {
                    *w &= !(1u64 << b);
                    self.len -= 1;
                }
            }
        }
    }

    /// The members in ascending id order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: &self.words,
            word: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The smallest member, if any.
    pub fn first(&self) -> Option<NodeId> {
        self.iter().next()
    }

    /// The members as a sorted `Vec` (for display and test assertions).
    pub fn to_vec(&self) -> Vec<NodeId> {
        self.iter().collect()
    }

    /// Drop all members, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.len = 0;
    }
}

/// Ascending-id iterator over a [`NodeSet`], one trailing-zeros scan per
/// member.
pub struct Iter<'a> {
    words: &'a [u64],
    word: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        while self.bits == 0 {
            self.word += 1;
            self.bits = *self.words.get(self.word)?;
        }
        let b = self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        Some(NodeId((self.word * BITS) as u32 + b))
    }
}

impl<'a> IntoIterator for &'a NodeSet {
    type Item = NodeId;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl IntoIterator for NodeSet {
    type Item = NodeId;
    type IntoIter = std::vec::IntoIter<NodeId>;
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut s = NodeSet::new();
        for v in iter {
            s.insert(v);
        }
        s
    }
}

impl Extend<NodeId> for NodeSet {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl<const N: usize> From<[NodeId; N]> for NodeSet {
    fn from(items: [NodeId; N]) -> Self {
        items.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn ids(xs: &[u32]) -> Vec<NodeId> {
        xs.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn insert_contains_len() {
        let mut s = NodeSet::with_capacity(10);
        assert!(s.is_empty());
        assert!(s.insert(NodeId(3)));
        assert!(!s.insert(NodeId(3)));
        assert!(s.insert(NodeId(64))); // forces growth past capacity
        assert_eq!(s.len(), 2);
        assert!(s.contains(NodeId(3)));
        assert!(!s.contains(NodeId(4)));
        assert!(s.contains(NodeId(64)));
        assert!(!s.contains(NodeId(1000)));
    }

    #[test]
    fn iteration_is_ascending() {
        let s: NodeSet = ids(&[130, 0, 63, 64, 7]).into_iter().collect();
        assert_eq!(s.to_vec(), ids(&[0, 7, 63, 64, 130]));
        assert_eq!(s.first(), Some(NodeId(0)));
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn set_algebra() {
        let mut a: NodeSet = ids(&[1, 2, 3, 100]).into_iter().collect();
        let b: NodeSet = ids(&[2, 3, 4]).into_iter().collect();
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.to_vec(), ids(&[1, 2, 3, 4, 100]));
        a.intersect_with(&b);
        assert_eq!(a.to_vec(), ids(&[2, 3]));
        let mut d = u.clone();
        d.difference_with(&b);
        assert_eq!(d.to_vec(), ids(&[1, 100]));
        // Each count includes the words past the shorter operand's end.
        assert_eq!((u.len(), a.len(), d.len()), (5, 2, 2));
    }

    #[test]
    fn unequal_word_lengths_compare_and_combine() {
        // Shorter-words set vs longer: union must grow, intersect must not
        // read out of bounds.
        let small: NodeSet = ids(&[1]).into_iter().collect();
        let mut big: NodeSet = ids(&[1, 500]).into_iter().collect();
        big.intersect_with(&small);
        assert_eq!((big.to_vec(), big.len()), (ids(&[1]), 1));
        let mut grown = small.clone();
        grown.union_with(&ids(&[500]).into_iter().collect());
        assert_eq!((grown.to_vec(), grown.len()), (ids(&[1, 500]), 2));
    }

    #[test]
    fn insert_range_matches_per_node_inserts() {
        // Word boundaries are where the masked fill can go wrong: check
        // ranges that start/end at 0, 63, 64, 65, 127, 128, 129.
        let edges = [0u32, 1, 62, 63, 64, 65, 126, 127, 128, 129, 200];
        for &lo in &edges {
            for &hi in &edges {
                let mut fast = NodeSet::new();
                fast.insert_range(NodeId(lo), NodeId(hi));
                let slow: NodeSet = (lo..=hi).map(NodeId).collect();
                assert_eq!(fast, slow, "range {lo}..={hi}");
                assert_eq!(fast.len(), slow.len(), "range {lo}..={hi}");
            }
        }
        // Empty range (lo > hi) is a no-op, not a panic.
        let mut s: NodeSet = ids(&[5]).into_iter().collect();
        s.insert_range(NodeId(9), NodeId(3));
        assert_eq!(s.to_vec(), ids(&[5]));
    }

    #[test]
    fn insert_range_merges_with_existing_members() {
        let mut s: NodeSet = ids(&[2, 70, 300]).into_iter().collect();
        s.insert_range(NodeId(60), NodeId(130));
        let mut want: NodeSet = (60..=130).map(NodeId).collect();
        want.insert(NodeId(2));
        want.insert(NodeId(300));
        assert_eq!(s, want);
    }

    #[test]
    fn remove_and_clear() {
        let mut s: NodeSet = ids(&[5, 6]).into_iter().collect();
        assert!(s.remove(NodeId(5)));
        assert!(!s.remove(NodeId(5)));
        assert!(!s.remove(NodeId(99)));
        assert_eq!(s.to_vec(), ids(&[6]));
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(NodeId(6)));
    }

    #[test]
    fn retain_keeps_members_in_order() {
        let mut s: NodeSet = ids(&[1, 63, 64, 65, 200]).into_iter().collect();
        let mut seen = Vec::new();
        s.retain(|v| {
            seen.push(v);
            v.0 % 2 == 1
        });
        assert_eq!(seen, ids(&[1, 63, 64, 65, 200]));
        assert_eq!(s.to_vec(), ids(&[1, 63, 65]));
        assert_eq!(s.len(), 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random sequences of `insert`, `insert_range`, `remove` and
        /// `union_with` over four words keep `len()` and membership equal
        /// to a `BTreeSet` model's: the running count never drifts from
        /// the bits.
        #[test]
        fn running_count_matches_a_model(seed in 0u64..u64::MAX, ops in 1usize..40) {
            const SPAN: u32 = 4 * BITS as u32;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut set = NodeSet::new();
            let mut model = BTreeSet::new();
            for _ in 0..ops {
                match rng.gen_range(0..4) {
                    0 => {
                        let v = rng.gen_range(0..SPAN);
                        prop_assert_eq!(set.insert(NodeId(v)), model.insert(v));
                    }
                    1 => {
                        let (lo, hi) = (rng.gen_range(0..SPAN), rng.gen_range(0..SPAN));
                        set.insert_range(NodeId(lo), NodeId(hi));
                        model.extend(lo..=hi);
                    }
                    2 => {
                        let v = rng.gen_range(0..SPAN);
                        prop_assert_eq!(set.remove(NodeId(v)), model.remove(&v));
                    }
                    _ => {
                        let (lo, len) = (rng.gen_range(0..SPAN), rng.gen_range(0..BITS as u32));
                        let mut other: NodeSet = (0..rng.gen_range(0..4))
                            .map(|_| NodeId(rng.gen_range(0..SPAN)))
                            .collect();
                        other.insert_range(NodeId(lo), NodeId(lo + len));
                        model.extend(other.iter().map(|v| v.0));
                        set.union_with(&other);
                    }
                }
                prop_assert_eq!(set.len(), model.len());
                prop_assert_eq!(
                    set.iter().map(|v| v.0).collect::<Vec<_>>(),
                    model.iter().copied().collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn equality_ignores_trailing_zero_words() {
        // Two sets with the same members must compare equal even when one
        // allocated more words — keep capacity out of Eq by construction.
        let a: NodeSet = ids(&[3]).into_iter().collect();
        let mut b = NodeSet::with_capacity(1000);
        b.insert(NodeId(3));
        assert_eq!(a, b);
        b.insert(NodeId(900));
        assert_ne!(a, b);
    }
}
