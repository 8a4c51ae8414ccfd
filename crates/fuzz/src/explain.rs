//! Turn repros and traces into human-readable explanations.
//!
//! The fuzz oracle embeds a machine-readable [`Divergence`](twq_obs::Divergence) in every
//! mismatch repro; this module re-runs the repro's base engine under a
//! trace collector and renders the result as an indented walk transcript
//! with the repro's own vocabulary — program state names, tree labels —
//! so "why did these evaluators disagree" is answerable from the repro
//! file alone (`fuzz --replay … --explain`, `explain --replay …`).

use std::fmt::Write as _;

use twq_automata::{State, TwProgram};
use twq_guard::NullGuard;
use twq_obs::{explain_verdict, Namer, Trace};
use twq_tree::{DelimTree, NodeId, Vocab};

use crate::oracle::traced;
use crate::repro::Repro;

/// Explain one repro: header (pair, detail, injected bug), the embedded
/// first-divergence report, then the base engine's traced walk transcript
/// with witness-backed verdict evidence.
pub fn explain_repro(repro: &Repro) -> String {
    let delim = DelimTree::build(&repro.case.tree);
    let (_, trace) = traced(&repro.case.program, &delim, "run", &mut NullGuard);
    let mut out = String::new();
    let _ = writeln!(out, "pair: {}", repro.pair);
    let _ = writeln!(out, "detail: {}", repro.detail);
    if let Some(b) = repro.inject {
        let _ = writeln!(out, "injected bug: {}", b.name());
    }
    match &repro.divergence {
        Some(d) => {
            let _ = writeln!(out, "{d}");
        }
        None => {
            let _ = writeln!(out, "no divergence report embedded (pre-trace repro)");
        }
    }
    out.push('\n');
    out.push_str(&explain_with_names(
        &trace,
        &repro.case.program,
        &delim,
        &repro.vocab,
    ));
    out
}

/// Verdict evidence plus the full transcript, with program state names
/// and delimited-tree labels in place of raw ids.
pub fn explain_with_names(
    trace: &Trace,
    prog: &TwProgram,
    delim: &DelimTree,
    vocab: &Vocab,
) -> String {
    let state = |q: u32| prog.state_name(State(q as u16)).to_owned();
    let tree = delim.tree();
    let node = |n: u64| {
        if (n as usize) < tree.len() {
            format!("n{n}:{}", tree.label(NodeId(n as u32)).display(vocab))
        } else {
            format!("n{n}")
        }
    };
    let namer = Namer {
        state: &state,
        node: &node,
    };
    let mut out = explain_verdict(trace, &namer);
    out.push('\n');
    out.push_str(&trace.render_with(&namer));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{gen_program_case, Universe};
    use crate::oracle::{check_program_case, InjectedBug};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use twq_exec::Pool;

    #[test]
    fn explanations_carry_names_and_divergence() {
        let uni = Universe::standard();
        let pool = Pool::new(2);
        for seed in 0..60 {
            let mut rng = StdRng::seed_from_u64(seed);
            let case = gen_program_case(&mut rng, &uni);
            let Some(d) = check_program_case(&case, &pool, Some(InjectedBug::RoutedFlip)) else {
                continue;
            };
            let repro = Repro {
                vocab: uni.vocab.clone(),
                case,
                inject: Some(InjectedBug::RoutedFlip),
                pair: d.pair.clone(),
                detail: d.detail.clone(),
                divergence: d.divergence.clone(),
            };
            let text = explain_repro(&repro);
            assert!(text.contains("pair: run vs run_routed"), "{text}");
            assert!(text.contains("first divergence at r:"), "{text}");
            // Named transcript: state names come from the program, node
            // names carry their delimited-tree label.
            assert!(text.contains("trace run"), "{text}");
            assert!(text.contains("n0:"), "{text}");
            return;
        }
        panic!("flip never observable in 60 cases");
    }
}
