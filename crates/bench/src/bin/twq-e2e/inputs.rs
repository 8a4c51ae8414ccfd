//! Seeded input generation. Everything the program under test receives —
//! XML text, query text, batches of trees — is derived from the workload
//! seed here, so one seed always yields byte-identical inputs.

use twq_tree::generate::{random_tree, TreeGenConfig};
use twq_tree::{AttrId, SymId, Tree, Value, Vocab};

/// splitmix64: a small, fixed, seedable generator, so the inputs do not
/// depend on any library's choice of random number generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Element symbols `s0 … s{n-1}` and the attributes `a`, `b` of the
/// XPath workloads, interned into one vocabulary that generator, parser
/// and query parser all share.
pub struct Alphabet {
    pub labels: Vec<SymId>,
    pub a: AttrId,
    pub b: AttrId,
}

impl Alphabet {
    pub fn new(vocab: &mut Vocab, labels: usize) -> Alphabet {
        Alphabet {
            labels: (0..labels).map(|i| vocab.sym(&format!("s{i}"))).collect(),
            a: vocab.attr("a"),
            b: vocab.attr("b"),
        }
    }

    /// A random label name, as query text.
    pub fn label(&self, rng: &mut Rng) -> String {
        format!("s{}", rng.below(self.labels.len()))
    }
}

/// Integer values `0..size`, interned.
pub fn value_pool(vocab: &mut Vocab, size: usize) -> Vec<Value> {
    (0..size as i64).map(|i| vocab.val_int(i)).collect()
}

/// A random document over `alpha` with both attributes drawing from
/// `pool`.
pub fn document(
    alpha: &Alphabet,
    nodes: usize,
    max_children: usize,
    pool: &[Value],
    seed: u64,
) -> Tree {
    let cfg = TreeGenConfig {
        nodes,
        max_children,
        symbols: alpha.labels.clone(),
        attributes: vec![(alpha.a, pool.to_vec()), (alpha.b, pool.to_vec())],
        collision_pool: None,
    };
    random_tree(&cfg, seed)
}

/// The root element's name, for root-anchored queries.
pub fn root_name(tree: &Tree, vocab: &Vocab) -> String {
    let sym = tree
        .label(tree.root())
        .sym()
        .expect("generated roots are elements");
    vocab.sym_name(sym).to_owned()
}

/// `k` sizes spread evenly over `lo..=hi`, in seeded order. Every seed
/// gets the same multiset of sizes, so the total work of a workload does
/// not drift with the seed.
pub fn spread_sizes(rng: &mut Rng, k: usize, lo: usize, hi: usize) -> Vec<usize> {
    let mut sizes: Vec<usize> = (0..k)
        .map(|i| lo + (hi - lo) * i / (k - 1).max(1))
        .collect();
    rng.shuffle(&mut sizes);
    sizes
}
