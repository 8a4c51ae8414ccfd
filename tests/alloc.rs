//! Heap allocations of the walking engine, counted by a global allocator.
//!
//! A transition of a program whose guards are `true`, quantifier-free, or
//! quantified over a register costs a table lookup, a guard evaluation and
//! a move: no allocation. The runs below therefore allocate the same
//! number of times on a 512-node tree as on a 2 048-node one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use twq::automata::examples::{all_leaves_equal_program, even_leaves_program};
use twq::automata::{run, Limits, RunReport, TwProgram};
use twq::tree::generate::{random_tree, TreeGenConfig};
use twq::tree::{DelimTree, Vocab};

/// Counts the allocations of the calling thread, so harness threads add
/// nothing.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The report of `run` and the allocations made inside it.
fn counted_run(prog: &TwProgram, delim: &DelimTree) -> (RunReport, u64) {
    let before = ALLOCS.with(Cell::get);
    let report = run(prog, delim, Limits::default());
    (report, ALLOCS.with(Cell::get) - before)
}

#[test]
fn runs_allocate_independently_of_tree_size() {
    let mut vocab = Vocab::new();
    let alphabet = [vocab.sym("sigma"), vocab.sym("delta")];
    let a = vocab.attr("a");
    let one = vocab.val_int(1);
    let programs = [
        ("even_leaves", even_leaves_program(&alphabet)),
        // One value everywhere: every leaf is compared with the first.
        ("all_leaves_equal", all_leaves_equal_program(&alphabet, a)),
    ];
    let mut growing = Vec::new();
    for (name, prog) in &programs {
        let mut seen = Vec::new();
        for nodes in [512, 2048] {
            let cfg = TreeGenConfig {
                nodes,
                max_children: 4,
                symbols: alphabet.to_vec(),
                attributes: vec![(a, vec![one])],
                collision_pool: None,
            };
            let delim = DelimTree::build(&random_tree(&cfg, 3));
            let (report, allocs) = counted_run(prog, &delim);
            assert!(report.steps > nodes as u64, "{name}/{nodes}: {report:?}");
            seen.push((report, allocs));
        }
        let (small, large) = (&seen[0], &seen[1]);
        if *name == "all_leaves_equal" {
            assert!(small.0.accepted() && large.0.accepted(), "{name}: {seen:?}");
        }
        if small.1 != large.1 {
            growing.push(format!(
                "{name}: {} allocations in {} steps, {} in {}",
                small.1, small.0.steps, large.1, large.0.steps
            ));
        }
    }
    assert!(growing.is_empty(), "{}", growing.join("; "));
}
