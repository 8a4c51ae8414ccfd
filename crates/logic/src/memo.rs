//! Memoized FO evaluation and the parallel batch entry points.
//!
//! The naive evaluator re-enumerates quantifier domains from scratch every
//! time a subformula is reached — `∃x∃y (A(x) ∧ B(y))` costs `O(n²)` atom
//! work even though `A` and `B` each only have `n` distinct inputs. The
//! fix is the textbook one: cache subformula verdicts keyed by
//! *(subformula identity, the assignment restricted to its free-variable
//! support)*. A cached verdict is sound because a formula's value depends
//! only on the bindings of its free variables (the coincidence lemma), so
//! the support-restricted assignment *is* the full input.
//!
//! Only subformulas that contain a quantifier and have support ≤ 1 are
//! cached: closed subformulas get a single slot, single-free-variable
//! subformulas get one slot per tree node. Quantifier-free subformulas are
//! cheaper to re-evaluate than to key, and support ≥ 2 would need `n²`
//! slots — both are simply evaluated in place. The cache is valid for one
//! `(tree, formula)` pair; there is no invalidation protocol because both
//! are immutable during evaluation — a new tree means a new cache
//! ([`MemoFormula::fresh_cache`]).
//!
//! On top of the cache sit the parallel entry points:
//! [`eval_sentence_par`] fans a top-level quantifier's domain across a
//! [`Pool`], and [`select_batch`] runs many `select` contexts at once.
//! Every worker owns a private cache, so no locks sit on the hot path and
//! results are bit-identical to the serial evaluator's.

use std::collections::HashMap;

use twq_exec::Pool;
use twq_guard::{Guard, NullGuard, TwqError};
use twq_obs::{Collector, FoEval, NullCollector};
use twq_tree::{NodeId, NodeSet, Tree};

use crate::eval::Assignment;
use crate::fo::{Formula, Var};

/// How a memoizable subformula is keyed.
#[derive(Debug, Clone, Copy)]
enum SlotSpec {
    /// No free variables: one verdict per tree.
    Closed,
    /// One free variable: one verdict per binding of it.
    Unary(Var),
}

/// A formula analyzed for memoization: every subformula that contains a
/// quantifier and has at most one free variable is assigned a cache slot.
///
/// Subformula identity is by position in the AST (two structurally equal
/// subformulas at different positions get distinct slots — collapsing them
/// would be sound but is not worth hashing formulas for).
#[derive(Debug)]
pub struct MemoFormula<'f> {
    root: &'f Formula,
    /// Position-identity map: AST node address → slot index. Addresses are
    /// stored as `usize` so the map (and thus the whole struct) stays
    /// `Send + Sync` for the pool fan-out; they are never dereferenced.
    ids: HashMap<usize, usize>,
    specs: Vec<SlotSpec>,
}

/// The verdict cache for one `(tree, MemoFormula)` pair.
///
/// Unary slots store three-valued bytes (unknown / false / true) indexed
/// by the bound node's arena id.
#[derive(Debug, Clone)]
pub struct MemoCache {
    slots: Vec<SlotState>,
}

#[derive(Debug, Clone)]
enum SlotState {
    Closed(Option<bool>),
    Unary(Vec<u8>),
}

const UNKNOWN: u8 = 0;
const FALSE: u8 = 1;
const TRUE: u8 = 2;

impl<'f> MemoFormula<'f> {
    /// Analyze `formula`, assigning cache slots to every memoizable
    /// subformula.
    pub fn new(formula: &'f Formula) -> Self {
        let mut mf = MemoFormula {
            root: formula,
            ids: HashMap::new(),
            specs: Vec::new(),
        };
        mf.index(formula);
        mf
    }

    fn index(&mut self, f: &'f Formula) {
        if !f.is_quantifier_free() {
            let free = f.free_vars();
            let spec = match free.as_slice() {
                [] => Some(SlotSpec::Closed),
                [v] => Some(SlotSpec::Unary(*v)),
                _ => None,
            };
            if let Some(spec) = spec {
                self.ids
                    .insert(f as *const Formula as usize, self.specs.len());
                self.specs.push(spec);
            }
        }
        match f {
            Formula::True | Formula::False | Formula::Atom(_) => {}
            Formula::Not(g) | Formula::Exists(_, g) | Formula::Forall(_, g) => self.index(g),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|g| self.index(g)),
        }
    }

    /// The analyzed formula.
    pub fn formula(&self) -> &'f Formula {
        self.root
    }

    /// Number of memoizable subformulas found.
    pub fn slot_count(&self) -> usize {
        self.specs.len()
    }

    /// An empty cache sized for `tree`.
    pub fn fresh_cache(&self, tree: &Tree) -> MemoCache {
        MemoCache {
            slots: self
                .specs
                .iter()
                .map(|spec| match spec {
                    SlotSpec::Closed => SlotState::Closed(None),
                    SlotSpec::Unary(_) => SlotState::Unary(vec![UNKNOWN; tree.len()]),
                })
                .collect(),
        }
    }
}

/// Memoized counterpart of the naive recursive evaluator. Identical
/// verdicts; the only observable differences are cost-side (fewer atom
/// evaluations reported to the collector, less fuel charged to the guard
/// on cache hits).
fn eval_memo_inner<C: Collector, G: Guard>(
    tree: &Tree,
    mf: &MemoFormula<'_>,
    f: &Formula,
    asg: &mut Assignment,
    cache: &mut MemoCache,
    c: &mut C,
    g: &mut G,
) -> Result<bool, TwqError> {
    if let Some(&id) = mf.ids.get(&(f as *const Formula as usize)) {
        // Read the slot, drop the borrow, compute on a miss, write back.
        let key = match cache.slots[id] {
            SlotState::Closed(Some(b)) => return Ok(b),
            SlotState::Closed(None) => None,
            SlotState::Unary(ref tab) => {
                let SlotSpec::Unary(v) = mf.specs[id] else {
                    unreachable!("spec and state are built together")
                };
                let u = asg.get(v).ok_or_else(|| {
                    TwqError::invalid("logic::eval_memo", format!("unbound variable {v}"))
                })?;
                match tab[u.0 as usize] {
                    TRUE => return Ok(true),
                    FALSE => return Ok(false),
                    _ => Some(u),
                }
            }
        };
        let b = eval_memo_cases(tree, mf, f, asg, cache, c, g)?;
        match (&mut cache.slots[id], key) {
            (SlotState::Closed(slot), None) => *slot = Some(b),
            (SlotState::Unary(tab), Some(u)) => tab[u.0 as usize] = if b { TRUE } else { FALSE },
            _ => unreachable!("slot shape cannot change"),
        }
        return Ok(b);
    }
    eval_memo_cases(tree, mf, f, asg, cache, c, g)
}

/// The structural recursion, mirroring `eval_inner` case for case but
/// recursing through the memo layer.
fn eval_memo_cases<C: Collector, G: Guard>(
    tree: &Tree,
    mf: &MemoFormula<'_>,
    f: &Formula,
    asg: &mut Assignment,
    cache: &mut MemoCache,
    c: &mut C,
    g: &mut G,
) -> Result<bool, TwqError> {
    use twq_guard::DepthKind;
    match f {
        Formula::True => Ok(true),
        Formula::False => Ok(false),
        Formula::Atom(a) => {
            c.fo_eval(FoEval::Atom);
            if G::ENABLED {
                g.tick()?;
            }
            crate::eval::eval_atom(tree, a, asg)
        }
        Formula::Not(h) => Ok(!eval_memo_inner(tree, mf, h, asg, cache, c, g)?),
        Formula::And(fs) => {
            for h in fs {
                if !eval_memo_inner(tree, mf, h, asg, cache, c, g)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Formula::Or(fs) => {
            for h in fs {
                if eval_memo_inner(tree, mf, h, asg, cache, c, g)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Formula::Exists(v, h) | Formula::Forall(v, h) => {
            let exists = matches!(f, Formula::Exists(_, _));
            if G::ENABLED {
                g.enter(DepthKind::Quantifier)?;
            }
            let saved = asg.get(*v);
            let mut out = Ok(!exists);
            for u in tree.node_ids() {
                if G::ENABLED {
                    if let Err(e) = g.tick() {
                        out = Err(e.into());
                        break;
                    }
                }
                asg.set(*v, u);
                match eval_memo_inner(tree, mf, h, asg, cache, c, g) {
                    Ok(b) if b == exists => {
                        out = Ok(exists);
                        break;
                    }
                    Ok(_) => {}
                    Err(e) => {
                        out = Err(e);
                        break;
                    }
                }
            }
            match saved {
                Some(u) => asg.set(*v, u),
                None => asg.unset(*v),
            }
            if G::ENABLED {
                g.exit(DepthKind::Quantifier);
            }
            out
        }
    }
}

/// [`eval_sentence`](crate::eval::eval_sentence) with subformula
/// memoization: closed and single-free-variable subformulas are evaluated
/// at most once per (binding, tree).
///
/// # Errors
/// [`TwqError::Invalid`] if the formula has free variables.
pub fn eval_sentence_memo(tree: &Tree, formula: &Formula) -> Result<bool, TwqError> {
    eval_sentence_memo_in(tree, formula, &mut NullCollector, &mut NullGuard)
}

/// [`eval_sentence_memo`] with a collector and a resource guard.
///
/// The collector sees what
/// [`eval_sentence_in`](crate::eval::eval_sentence_in) reports, minus
/// the work cache hits skip: fewer atom evaluations and quantifier spans.
/// Cache hits charge no fuel either, so a memoized run spends *at most*
/// what the naive run spends — budgets sized for the naive evaluator
/// remain sufficient.
///
/// # Errors
/// [`TwqError::Invalid`] if the formula has free variables;
/// [`TwqError::Guard`] when the guard trips.
pub fn eval_sentence_memo_in<C: Collector, G: Guard>(
    tree: &Tree,
    formula: &Formula,
    c: &mut C,
    g: &mut G,
) -> Result<bool, TwqError> {
    let free = formula.free_vars();
    if !free.is_empty() {
        return Err(TwqError::invalid(
            "logic::eval_sentence_memo",
            format!("requires a sentence; free vars: {free:?}"),
        ));
    }
    let mf = MemoFormula::new(formula);
    let mut cache = mf.fresh_cache(tree);
    let mut asg = Assignment::with_capacity(formula.max_var());
    c.fo_eval(FoEval::Sentence);
    eval_memo_inner(tree, &mf, formula, &mut asg, &mut cache, c, g)
}

/// [`select`](crate::eval::select) with subformula memoization: one cache
/// shared across the whole `y`-enumeration, so subformulas independent of
/// `y` (closed, or depending only on `x`) are evaluated once instead of
/// once per candidate node.
///
/// # Errors
/// As for [`select`](crate::eval::select).
pub fn select_memo(
    tree: &Tree,
    formula: &Formula,
    x: Var,
    u: NodeId,
    y: Var,
) -> Result<NodeSet, TwqError> {
    select_memo_in(tree, formula, x, u, y, &mut NullCollector, &mut NullGuard)
}

/// [`select_memo`] with a collector and a resource guard. The collector
/// sees one [`FoEval::Select`] per call plus the atom and quantifier
/// events of every matrix evaluation the cache does not answer; the guard
/// is charged one fuel unit per candidate node plus the matrix's own
/// charges, and cache hits charge no fuel.
///
/// # Errors
/// As for [`select`](crate::eval::select); [`TwqError::Guard`] when the
/// guard trips.
pub fn select_memo_in<C: Collector, G: Guard>(
    tree: &Tree,
    formula: &Formula,
    x: Var,
    u: NodeId,
    y: Var,
    c: &mut C,
    g: &mut G,
) -> Result<NodeSet, TwqError> {
    let mf = MemoFormula::new(formula);
    let mut cache = mf.fresh_cache(tree);
    let mut asg = Assignment::with_capacity(
        formula
            .max_var()
            .map_or(Some(x.max(y)), |m| Some(m.max(x).max(y))),
    );
    asg.set(x, u);
    c.fo_eval(FoEval::Select);
    let mut out = NodeSet::with_capacity(tree.len());
    for v in tree.node_ids() {
        if G::ENABLED {
            g.tick()?;
        }
        asg.set(y, v);
        if eval_memo_inner(tree, &mf, formula, &mut asg, &mut cache, c, g)? {
            out.insert(v);
        }
    }
    Ok(out)
}

/// [`eval_sentence_memo`] with the top-level quantifier's domain fanned
/// across `pool`. Each worker takes a contiguous chunk of the domain and
/// its own memo cache; the chunk verdicts combine by OR (`∃`) / AND (`∀`).
/// Sentences not starting with a quantifier fall back to the serial
/// memoized evaluator.
///
/// Unlike the serial evaluator, the fan-out does not short-circuit across
/// chunks — it trades wasted work on witnesses found early for wall-clock
/// on the witness-less majority of bindings.
///
/// # Errors
/// [`TwqError::Invalid`] if the formula has free variables.
pub fn eval_sentence_par(tree: &Tree, formula: &Formula, pool: &Pool) -> Result<bool, TwqError> {
    let free = formula.free_vars();
    if !free.is_empty() {
        return Err(TwqError::invalid(
            "logic::eval_sentence_par",
            format!("requires a sentence; free vars: {free:?}"),
        ));
    }
    let (v, body, exists) = match formula {
        Formula::Exists(v, body) => (*v, body.as_ref(), true),
        Formula::Forall(v, body) => (*v, body.as_ref(), false),
        _ => return eval_sentence_memo(tree, formula),
    };
    let n = tree.len();
    let workers = pool.workers().min(n.max(1));
    let chunk = n.div_ceil(workers.max(1)).max(1);
    let mf = MemoFormula::new(formula);
    let verdicts = pool.scoped(workers, |k| -> Result<bool, TwqError> {
        let lo = k * chunk;
        let hi = ((k + 1) * chunk).min(n);
        let mut cache = mf.fresh_cache(tree);
        let mut asg = Assignment::with_capacity(formula.max_var());
        let mut c = NullCollector;
        for i in lo..hi {
            asg.set(v, NodeId(i as u32));
            let b = eval_memo_inner(
                tree,
                &mf,
                body,
                &mut asg,
                &mut cache,
                &mut c,
                &mut NullGuard,
            )?;
            if b == exists {
                return Ok(exists);
            }
        }
        Ok(!exists)
    });
    let mut out = !exists;
    for verdict in verdicts {
        let b = verdict?;
        if b == exists {
            out = exists;
        }
    }
    Ok(out)
}

/// Batch [`select`](crate::eval::select): one memoized selection per
/// context node in `us`, fanned across `pool`, results in `us` order.
/// Equivalent to mapping [`select_memo`] over `us` serially — and with a
/// 1-worker pool it *is* that loop.
///
/// # Errors
/// As for [`select`](crate::eval::select); the first failing context (in
/// `us` order) determines the error.
pub fn select_batch(
    tree: &Tree,
    formula: &Formula,
    x: Var,
    us: &[NodeId],
    y: Var,
    pool: &Pool,
) -> Result<Vec<NodeSet>, TwqError> {
    pool.scoped(us.len(), |i| select_memo(tree, formula, x, us[i], y))
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_sentence, select};
    use crate::fo::build::*;
    use twq_tree::{parse_tree, Vocab};

    fn sample() -> Tree {
        let mut v = Vocab::new();
        parse_tree("a(b(c,d),e(f,g(h)),i)", &mut v).unwrap()
    }

    /// Sentences whose naive and memoized verdicts must coincide.
    fn sentences() -> Vec<Formula> {
        let (x, y, z) = (var(0), var(1), var(2));
        vec![
            exists(x, leaf(x)),
            forall(x, implies(leaf(x), exists(y, edge(y, x)))),
            // Closed subformula under a quantifier: ∃y root(y) is
            // re-entered once per x binding naively, once in total memoized.
            forall(x, exists(y, root(y))),
            exists_many([x, y], and([edge(x, y), exists(z, desc(y, z))])),
            not(exists(x, and([root(x), leaf(x)]))),
            or([exists(x, first(x)), exists(x, last(x))]),
        ]
    }

    #[test]
    fn memo_agrees_with_naive_on_sentences() {
        let t = sample();
        for f in sentences() {
            let naive = eval_sentence(&t, &f).unwrap();
            let memo = eval_sentence_memo(&t, &f).unwrap();
            assert_eq!(naive, memo, "{f:?}");
        }
    }

    #[test]
    fn par_agrees_with_naive_for_any_worker_count() {
        let t = sample();
        for workers in [1, 2, 4] {
            let pool = Pool::new(workers);
            for f in sentences() {
                let naive = eval_sentence(&t, &f).unwrap();
                let par = eval_sentence_par(&t, &f, &pool).unwrap();
                assert_eq!(naive, par, "workers={workers} {f:?}");
            }
        }
    }

    #[test]
    fn select_memo_agrees_with_select() {
        let t = sample();
        let (x, y, z) = (var(0), var(1), var(2));
        let phis = [
            and([desc(x, y), leaf(y)]),
            and([edge(x, y), exists(z, desc(y, z))]),
            or([
                eq(x, y),
                and([desc(x, y), exists(z, and([leaf(z), desc(y, z)]))]),
            ]),
        ];
        for phi in &phis {
            for u in t.node_ids() {
                let naive = select(&t, phi, x, u, y).unwrap();
                let memo = select_memo(&t, phi, x, u, y).unwrap();
                assert_eq!(naive, memo, "u={u:?} {phi:?}");
            }
        }
    }

    #[test]
    fn select_batch_matches_serial_order_and_contents() {
        let t = sample();
        let (x, y) = (var(0), var(1));
        let phi = and([desc(x, y), leaf(y)]);
        let us: Vec<NodeId> = t.node_ids().collect();
        for workers in [1, 3] {
            let batch = select_batch(&t, &phi, x, &us, y, &Pool::new(workers)).unwrap();
            assert_eq!(batch.len(), us.len());
            for (i, &u) in us.iter().enumerate() {
                assert_eq!(batch[i], select(&t, &phi, x, u, y).unwrap());
            }
        }
    }

    #[test]
    fn memo_slots_cover_quantified_small_support_only() {
        let (x, y) = (var(0), var(1));
        // ∃y root(y) (closed) and ∃y edge(x,y) (support {x}) are slots;
        // the quantifier-free atoms are not.
        let f = and([exists(y, root(y)), exists(y, edge(x, y)), leaf(x)]);
        let mf = MemoFormula::new(&f);
        // The And itself has support {x} and contains quantifiers: slot.
        assert_eq!(mf.slot_count(), 3);
    }

    #[test]
    fn guarded_memo_never_spends_more_fuel_than_naive() {
        use twq_guard::ResourceGuard;
        let t = sample();
        for f in sentences() {
            let mut naive = ResourceGuard::unlimited();
            crate::eval::eval_sentence_in(&t, &f, &mut NullCollector, &mut naive).unwrap();
            let mut memo = ResourceGuard::unlimited();
            eval_sentence_memo_in(&t, &f, &mut NullCollector, &mut memo).unwrap();
            assert!(
                memo.fuel_spent() <= naive.fuel_spent(),
                "memo {} > naive {} on {f:?}",
                memo.fuel_spent(),
                naive.fuel_spent()
            );
        }
    }
}
