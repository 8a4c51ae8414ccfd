//! Serial ≡ parallel equivalence for the execution layer.
//!
//! The exec crate's contract is that fanning work across a pool changes
//! wall-clock only: batch runs, batch selections, and memoized/parallel
//! FO evaluation must produce results — and, under fuel exhaustion,
//! errors — identical to the plain serial evaluators, for every worker
//! count. Each property below pins one entry point against its serial
//! reference on randomized programs, formulas, and trees.

use proptest::prelude::*;

use twq::automata::{examples, run_batch, run_in, run_on_tree, Limits};
use twq::exec::Pool;
use twq::guard::ResourceGuard;
use twq::logic::eval::{select, select_in};
use twq::logic::fo::build::exists;
use twq::logic::select_batch;
use twq::logic::{eval_sentence, eval_sentence_memo, eval_sentence_par, ExistsFormula};
use twq::obs::NullCollector;
use twq::tree::generate::{random_tree, TreeGenConfig};
use twq::tree::{DelimTree, NodeId, Tree, Vocab};
use twq::xpath::{compile, random_xpath, XPathGenConfig};

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// A batch of random Example 3.2 documents sharing one vocabulary.
fn tree_batch(vocab: &mut Vocab, count: usize, nodes: usize, seed: u64) -> Vec<Tree> {
    let cfg = TreeGenConfig::example32(vocab, nodes, &[1, 2]);
    (0..count)
        .map(|i| {
            random_tree(
                &TreeGenConfig {
                    nodes: 1 + (nodes + i) % nodes.max(2),
                    ..cfg.clone()
                },
                seed.wrapping_add(i as u64),
            )
        })
        .collect()
}

/// A random XPath-compiled binary formula, small enough for the naive
/// evaluator.
fn small_formula(vocab: &mut Vocab, path_seed: u64) -> Option<ExistsFormula> {
    let cfg = TreeGenConfig::example32(vocab, 4, &[1]);
    let a = vocab.attr_opt("a").unwrap();
    let one = vocab.val_int_opt(1).unwrap();
    let xcfg = XPathGenConfig {
        symbols: cfg.symbols,
        attrs: vec![a],
        values: vec![one],
        max_depth: 2,
    };
    let phi = compile(&random_xpath(&xcfg, path_seed));
    (phi.quantified().len() <= 4).then_some(phi)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `run_batch` returns exactly what a serial `run_on_tree` loop
    /// returns, in input order, for every worker count.
    #[test]
    fn run_batch_equals_serial(
        seed in 0u64..10_000,
        count in 1usize..6,
        nodes in 1usize..20,
    ) {
        let mut vocab = Vocab::new();
        let ex = examples::example_32(&mut vocab);
        let trees = tree_batch(&mut vocab, count, nodes, seed);
        let serial: Vec<_> = trees
            .iter()
            .map(|t| run_on_tree(&ex.program, t, Limits::default()))
            .collect();
        for workers in WORKER_COUNTS {
            let pool = Pool::new(workers);
            let batch = run_batch(&ex.program, &trees, Limits::default(), &pool);
            prop_assert_eq!(&batch, &serial, "workers={}", workers);
        }
    }

    /// Guarded batch runs — `run_in` under a fresh guard per item, fanned
    /// across the pool — reproduce the serial verdicts *and* the serial
    /// guard errors: a fuel budget that exhausts mid-batch trips the
    /// same items with the same reasons regardless of worker count.
    #[test]
    fn run_batch_guarded_trips_like_serial(
        seed in 0u64..10_000,
        count in 1usize..6,
        nodes in 1usize..20,
        fuel in 0u64..60,
    ) {
        let mut vocab = Vocab::new();
        let ex = examples::example_32(&mut vocab);
        let trees = tree_batch(&mut vocab, count, nodes, seed);
        let governed = |t: &Tree| {
            let mut g = ResourceGuard::unlimited().with_budget(fuel);
            let dt = DelimTree::build(t);
            run_in(&ex.program, &dt, Limits::default(), &mut NullCollector, &mut g)
        };
        let serial: Vec<_> = trees.iter().map(governed).collect();
        for workers in WORKER_COUNTS {
            let batch = Pool::new(workers).scoped(trees.len(), |i| governed(&trees[i]));
            prop_assert_eq!(batch.len(), serial.len());
            for (i, (b, s)) in batch.iter().zip(&serial).enumerate() {
                match (b, s) {
                    (Ok(x), Ok(y)) => prop_assert_eq!(x, y, "workers={} item {}", workers, i),
                    (Err(x), Err(y)) => prop_assert_eq!(
                        &x.guard().unwrap().reason,
                        &y.guard().unwrap().reason,
                        "workers={} item {}", workers, i
                    ),
                    _ => prop_assert!(
                        false,
                        "workers={} item {}: Ok/Err disagree with serial", workers, i
                    ),
                }
            }
        }
    }

    /// `select_batch` (memoized, pooled) agrees with a serial loop of the
    /// plain `select` over every context node.
    #[test]
    fn select_batch_equals_serial_select(
        tree_seed in 0u64..10_000,
        path_seed in 0u64..10_000,
        nodes in 2usize..10,
    ) {
        let mut vocab = Vocab::new();
        let Some(phi) = small_formula(&mut vocab, path_seed) else {
            return Ok(());
        };
        let cfg = TreeGenConfig::example32(&mut vocab, nodes, &[1, 2]);
        let t = random_tree(&cfg, tree_seed);
        let formula = phi.to_formula();
        let us: Vec<NodeId> = t.node_ids().collect();
        let serial: Vec<_> = us
            .iter()
            .map(|&u| select(&t, &formula, phi.x(), u, phi.y()).unwrap())
            .collect();
        for workers in WORKER_COUNTS {
            let pool = Pool::new(workers);
            let batch = select_batch(&t, &formula, phi.x(), &us, phi.y(), &pool).unwrap();
            prop_assert_eq!(&batch, &serial, "workers={}", workers);
        }
    }

    /// Guarded batch selection — `select_in` under a fresh guard per
    /// context, fanned across the pool — reproduces serial verdicts and
    /// serial trip reasons under a fuel budget that exhausts on some
    /// contexts.
    #[test]
    fn select_batch_guarded_trips_like_serial(
        tree_seed in 0u64..10_000,
        path_seed in 0u64..10_000,
        nodes in 2usize..10,
        fuel in 0u64..80,
    ) {
        let mut vocab = Vocab::new();
        let Some(phi) = small_formula(&mut vocab, path_seed) else {
            return Ok(());
        };
        let cfg = TreeGenConfig::example32(&mut vocab, nodes, &[1, 2]);
        let t = random_tree(&cfg, tree_seed);
        let formula = phi.to_formula();
        let us: Vec<NodeId> = t.node_ids().collect();
        let governed = |u: NodeId| {
            let mut g = ResourceGuard::unlimited().with_budget(fuel);
            select_in(&t, &formula, phi.x(), u, phi.y(), &mut NullCollector, &mut g)
        };
        let serial: Vec<_> = us.iter().map(|&u| governed(u)).collect();
        for workers in WORKER_COUNTS {
            let batch = Pool::new(workers).scoped(us.len(), |i| governed(us[i]));
            prop_assert_eq!(batch.len(), serial.len());
            for (i, (b, s)) in batch.iter().zip(&serial).enumerate() {
                match (b, s) {
                    (Ok(x), Ok(y)) => prop_assert_eq!(x, y, "workers={} node {}", workers, i),
                    (Err(x), Err(y)) => prop_assert_eq!(
                        &x.guard().unwrap().reason,
                        &y.guard().unwrap().reason,
                        "workers={} node {}", workers, i
                    ),
                    _ => prop_assert!(
                        false,
                        "workers={} node {}: Ok/Err disagree with serial", workers, i
                    ),
                }
            }
        }
    }

    /// Memoized and pool-parallel sentence evaluation agree with the
    /// naive evaluator on existentially closed random formulas.
    #[test]
    fn memo_and_par_sentences_equal_naive(
        tree_seed in 0u64..10_000,
        path_seed in 0u64..10_000,
        nodes in 2usize..10,
    ) {
        let mut vocab = Vocab::new();
        let Some(phi) = small_formula(&mut vocab, path_seed) else {
            return Ok(());
        };
        let cfg = TreeGenConfig::example32(&mut vocab, nodes, &[1, 2]);
        let t = random_tree(&cfg, tree_seed);
        let sentence = exists(phi.x(), exists(phi.y(), phi.to_formula()));
        let naive = eval_sentence(&t, &sentence).unwrap();
        prop_assert_eq!(eval_sentence_memo(&t, &sentence).unwrap(), naive);
        for workers in WORKER_COUNTS {
            let pool = Pool::new(workers);
            prop_assert_eq!(
                eval_sentence_par(&t, &sentence, &pool).unwrap(),
                naive,
                "workers={}", workers
            );
        }
    }
}
