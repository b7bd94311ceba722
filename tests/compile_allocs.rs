//! The compile step's allocator calls, counted. `Optimizer::run` on
//! `multi_block(3, 160)` takes the same path through the same code on
//! every run, so the count is the same but for the few calls with which
//! the process-wide interner grows for the names a run mints; a bound on
//! it cannot flake the way a timing can. It catches a matcher that clones
//! its substitution per candidate again, or a verification step that
//! rebuilds its sets per match. The CLI's whole compile path — text to
//! printed plan — is counted too, so that a copy of the input, in the
//! optimizer or on the way to it, shows.
//!
//! The front end's calls are counted the same way: parsing a fact
//! bundle and loading its relations must cost a constant number of calls
//! however many facts it holds, since facts are encoded into flat word
//! rows and each relation is built at its final size.
//!
//! A maintained query counts the same way: on the caller's judgment it
//! compiles each sound program once and materializes the pick from the
//! plans it priced, so one more compile, or one more judgment, shows.
//! So does pricing a goal's alternatives, which judges none of them, and
//! rewriting toward the goal, which reads the rules it rewrites.
//!
//! This file is its own test binary because it replaces the global
//! allocator. The count is kept per thread, so that only the calls of the
//! thread that runs the optimizer are read.

use semrec::core::maintain::MaintainedQuery;
use semrec::core::optimizer::{Optimizer, OptimizerConfig};
use semrec::core::route_alternatives;
use semrec::datalog::analysis::check;
use semrec::datalog::parser::{parse_atom, parse_unit};
use semrec::datalog::{Facts, Program};
use semrec::engine::{CostMemo, Database, EdbStats, Prepared};
use semrec::gen::programs::{multi_block, multi_block_small};
use semrec::gen::{export, fanout, org, parse_scenario};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System`, counting every allocation and reallocation of the calling
/// thread.
struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when the count is no longer readable.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose `GlobalAlloc` contract is the one these methods promise; the
// count they bump is a thread-local that allocates nothing itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller passes a block of this allocator (that is,
        // of `System`) with its layout, and a valid new size.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block of this allocator (that is,
        // of `System`) with its layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

/// Allocator calls of one `Optimizer::run` on `multi_block(3, blocks)`,
/// and the number of constraints it compiled. Parsing is outside the
/// count. The run counted is the second: the first interns every name
/// the compile step mints, on whichever thread gets there first.
fn optimize_calls(blocks: u32) -> (u64, usize) {
    let unit = parse_unit(&multi_block(3, blocks)).expect("generated source parses");
    let program = unit.program();
    let mut config = OptimizerConfig::default();
    config.small_relations.extend(multi_block_small(blocks));
    let optimizer = || {
        Optimizer::new(&program)
            .with_constraints(&unit.constraints)
            .with_config(config.clone())
    };
    optimizer().run().expect("generated source optimizes");
    let optimizer = optimizer();
    let before = calls();
    let plan = optimizer.run();
    let spent = calls() - before;
    drop(plan);
    (spent, unit.constraints.len())
}

/// Allocator calls per constraint on this input, as this test measured
/// them before substitutions were flat and bound in place: a `BTreeMap`
/// substitution cloned per candidate target, fresh sets per match.
const BEFORE_PER_IC: u64 = 351;

/// The count as last measured: 49 298 calls for 440 constraints. Counted
/// once by phase: the judgment 2 630, the 800 unfolding contexts 11 160,
/// the 2 280 residues with their order keys 9 018, the sorts 402, and
/// the rest (SD-graphs, pushes, cleanup) 26 088. Before the contexts were
/// looked up without a key, unfolded through reused buffers and kept
/// their sets in one buffer, before detection's buffers outlived a block
/// and before pushing built no set or rule it only read, it was 66 924:
/// contexts 17 640, residues 11 680, sorts 440, the rest 34 534. A change
/// that lowers the count lowers this; none raises it.
const CEILING_PER_IC: u64 = 112;

#[test]
fn compile_step_allocates_at_most_half_of_the_cloning_matcher() {
    let (spent, ics) = optimize_calls(160);
    let per_ic = spent / ics as u64;
    eprintln!("compile_allocs: {spent} allocator calls for {ics} ICs ({per_ic} per IC)");
    assert!(
        per_ic <= BEFORE_PER_IC / 2,
        "{per_ic} allocator calls per IC, over half of {BEFORE_PER_IC}"
    );
    assert!(
        per_ic <= CEILING_PER_IC,
        "{per_ic} allocator calls per IC, over the last measured {CEILING_PER_IC}"
    );
}

/// Allocator calls of the CLI's compile path on `text`, as `semrec
/// optimize` takes it: parse, the rules moved into the program, `check`,
/// `Optimizer::run` reading that judgment, the plan rendered. The run
/// counted is the second, as for the compile step alone.
fn cli_compile_calls(text: &str) -> u64 {
    let compile = || {
        let unit = parse_unit(text).expect("generated source parses");
        let program = Program::new(unit.rules);
        let checked = check(&program, &unit.constraints, &unit.facts).expect("evaluable");
        let plan = Optimizer::new(&program)
            .with_constraints(&unit.constraints)
            .with_checked(&checked)
            .run()
            .expect("generated source optimizes");
        plan.to_string()
    };
    drop(compile());
    let before = calls();
    let printed = compile();
    let spent = calls() - before;
    drop(printed);
    spent
}

/// The CLI's compile path as last measured on `multi_block(3, 160)`:
/// 52 554 calls, of which the one judgment (`check`, and the class's
/// blocks handed over) is 2 630, the contexts 11 160, the residues 9 018
/// and the sorts 402 — far below one copy of its rules (1 601 calls)
/// over it. When the optimizer judged the program again it read 72 209
/// (judgment 4 939, contexts 17 640, residues 11 680, sorts 440); copying
/// the rules twice on the way to the optimizer and once more inside it,
/// and the constraints too, read 82 152. A change that lowers the count
/// lowers this; none raises it.
const CLI_CEILING: u64 = 52_554;

#[test]
fn the_cli_compile_path_copies_no_input() {
    let text = multi_block(3, 160);
    let spent = cli_compile_calls(&text);
    let unit = parse_unit(&text).expect("generated source parses");
    let before = calls();
    let copy = unit.program();
    let one_copy = calls() - before;
    drop(copy);
    eprintln!("cli compile path: {spent} allocator calls; one copy of the rules: {one_copy}");
    assert!(
        spent <= CLI_CEILING,
        "{spent} allocator calls, over the last measured {CLI_CEILING}"
    );
    assert!(
        CLI_CEILING < spent + one_copy,
        "the ceiling would let one copy of the rules ({one_copy} calls) through"
    );
}

/// The fanout bundle `fanout(nodes, extra_edges, 64)` as `semrec gen`
/// exports it, facts inline.
fn fanout_bundle(nodes: usize, extra_edges: usize) -> String {
    let db = fanout::generate(&fanout::FanoutParams {
        nodes,
        extra_edges,
        fanout: 64,
        seed: 1,
    });
    export::to_dl(&parse_scenario(fanout::PROGRAM), Some(&db))
}

/// Allocator calls of one `parse_unit` + `Database::from_facts` of
/// `text`, and its fact count. The run counted is the second, as for the
/// compile step: the first interns the bundle's names.
fn front_end_calls(text: &str) -> (u64, usize) {
    let load = || {
        let unit = parse_unit(text).expect("exported bundle parses");
        let db = Database::from_facts(&unit.facts);
        (unit, db)
    };
    drop(load());
    let before = calls();
    let (unit, db) = load();
    let spent = calls() - before;
    assert_eq!(
        db.total_tuples(),
        unit.facts.len(),
        "the bundle repeats no fact"
    );
    (spent, unit.facts.len())
}

/// The front end's calls on the 300/160/64 bundle (19 659 facts) as last
/// measured. One call or more per fact, as when each fact was an `Atom`
/// with its own argument vector, reads tens of thousands.
const FRONT_END_CEILING: u64 = 54;

/// What doubling the facts may add: one more doubling of each fact
/// group's row buffer (the bundle has two groups; 2 measured).
const FRONT_END_PER_DOUBLING: u64 = 4;

#[test]
fn the_front_end_allocates_a_constant_number_of_times_per_bundle() {
    let (small, facts) = front_end_calls(&fanout_bundle(300, 160));
    let (large, twice) = front_end_calls(&fanout_bundle(600, 320));
    eprintln!("front end: {small} allocator calls for {facts} facts, {large} for {twice}");
    assert!(
        twice >= 2 * facts - 2,
        "{twice} facts do not double {facts}"
    );
    assert!(
        small <= FRONT_END_CEILING,
        "{small} allocator calls for {facts} facts, over the last measured {FRONT_END_CEILING}"
    );
    assert!(
        large <= small + FRONT_END_PER_DOUBLING,
        "{large} calls for {twice} facts against {small} for {facts}: the count grows with the facts"
    );
}

/// The org bundle as `semrec gen org` writes it, facts inline, for
/// `employees` employees: rows of symbolic constants
/// (`boss(1, 0, manager).`), each interned by name. With `quoted`, every
/// rank is written as a string literal instead, which reads as the same
/// value.
fn org_bundle(employees: usize, quoted: bool) -> String {
    let params = org::OrgParams {
        employees,
        ..org::OrgParams::default()
    };
    let text = export::to_dl(&parse_scenario(org::PROGRAM), Some(&org::generate(&params)));
    if quoted {
        text.replace("manager", "'manager'")
            .replace("executive", "\"executive\"")
    } else {
        text
    }
}

/// The front end's calls on the default org bundle (302 facts) as last
/// measured, ranks symbolic or quoted.
const ORG_FRONT_END_CEILING: u64 = 57;

/// What doubling the org facts may add: one more doubling of each of
/// the bundle's three fact groups' row buffers (2 measured).
const ORG_PER_DOUBLING: u64 = 6;

#[test]
fn symbolic_and_quoted_facts_allocate_a_constant_number_of_times_too() {
    for quoted in [false, true] {
        let (small, facts) = front_end_calls(&org_bundle(200, quoted));
        let (large, more) = front_end_calls(&org_bundle(400, quoted));
        eprintln!(
            "front end, quoted={quoted}: {small} allocator calls for {facts} org facts, {large} for {more}"
        );
        assert!(
            small <= ORG_FRONT_END_CEILING,
            "{small} allocator calls for {facts} org facts, over the last measured {ORG_FRONT_END_CEILING}"
        );
        assert!(
            large <= small + ORG_PER_DOUBLING,
            "{large} calls for {more} facts against {small} for {facts}: the count grows with the facts"
        );
    }
}

/// An escaped string literal is unescaped into a buffer the parser
/// reuses, then interned: the org bundle with every rank written
/// `"manag\u{65}r"` costs what the symbolic one does plus that buffer's
/// one allocation, however many facts it holds (an owned copy per escaped
/// literal read 184 calls against 57).
#[test]
fn escaped_literals_allocate_what_plain_ones_do() {
    let escape = |text: String| text.replace("manager", r#""manag\u{65}r""#);
    let (spent, facts) = front_end_calls(&org_bundle(200, false));
    let (escaped, same) = front_end_calls(&escape(org_bundle(200, false)));
    let (more, _) = front_end_calls(&escape(org_bundle(400, false)));
    eprintln!(
        "front end, escaped: {escaped} allocator calls for {same} org facts, {more} for twice"
    );
    assert_eq!(facts, same);
    assert_eq!(
        escaped,
        spent + 1,
        "escaped literals cost {escaped} allocator calls, the same facts written plain {spent}"
    );
    assert!(
        more <= escaped + ORG_PER_DOUBLING,
        "{more} calls against {escaped}: the count grows with the escaped facts"
    );
}

/// Allocator calls of the maintained query `semrec update --optimize`
/// and `semrec serve` build on the default fanout bundle — optimize on
/// the judgment `load` made, then `MaintainedQuery::from_plan`: compile
/// the IC monitor, compile and price the two sound programs, materialize
/// the pick — and of one
/// `Prepared::compile` of its residue-pushed program. Building the
/// database and the judgment is outside the count; the run counted is
/// the second, as for the compile step.
fn maintained_calls() -> (u64, u64) {
    let s = parse_scenario(fanout::PROGRAM);
    let db = fanout::generate(&fanout::FanoutParams::default());
    let checked = check(&s.program, &s.constraints, &Facts::new()).expect("judged");
    let config = OptimizerConfig::default();
    let new = |db| {
        let optimizer = Optimizer::new(&s.program).with_constraints(&s.constraints);
        let plan = optimizer
            .with_checked(&checked)
            .with_config(config.clone())
            .run();
        MaintainedQuery::from_plan(db, plan.expect("plan"))
    };
    drop(new(db.clone()).expect("maintained"));
    let db = db.clone();
    let before = calls();
    let q = new(db).expect("maintained");
    let spent = calls() - before;
    let before = calls();
    let plans = Prepared::compile(q.db(), &q.plan().program, &[], &Default::default());
    let one_compile = calls() - before;
    drop(plans.expect("compiles"));
    (spent, one_compile)
}

/// The maintained query's calls on the default fanout bundle as last
/// measured: 2 056, a compile of the residue-pushed program being 64.
/// When it judged the program again (`MaintainedQuery::new`) and every
/// compile — sound programs, DRed, IC monitor — judged its program, it
/// read 2 206, a compile 86; when it priced batch compiles of both sound
/// programs, then compiled the pick twice more to materialize it, 2 301.
/// A change that lowers the count lowers this; none raises it.
const MAINTAINED_CEILING: u64 = 2_056;

#[test]
fn a_maintained_query_compiles_each_sound_program_once() {
    let (spent, one_compile) = maintained_calls();
    eprintln!(
        "maintained query: {spent} allocator calls; one compile of its program: {one_compile}"
    );
    assert!(
        spent <= MAINTAINED_CEILING,
        "{spent} allocator calls, over the last measured {MAINTAINED_CEILING}"
    );
    assert!(
        MAINTAINED_CEILING < spent + one_compile,
        "the ceiling would let one more compile ({one_compile} calls) through"
    );
}

/// Allocator calls of pricing the alternatives `semrec run --optimize
/// --query 'reach(0, Y)'` routes among on the default fanout bundle:
/// `CostMemo::build` over what `route_alternatives` returns, compiling
/// each once. And the calls of one judgment of the program as written,
/// the cheapest judgment of an alternative. The run counted is the
/// second, as for the compile step.
fn routed_goal_calls() -> (u64, u64) {
    let s = parse_scenario(fanout::PROGRAM);
    let db = fanout::generate(&fanout::FanoutParams::default());
    let plan = (Optimizer::new(&s.program)
        .with_constraints(&s.constraints)
        .run())
    .expect("plan");
    let goal = parse_atom("reach(0, Y)").expect("goal parses");
    let price = || {
        let (alternatives, _) = route_alternatives(&s.program, &plan, Some(&goal));
        let before = calls();
        let memo = CostMemo::build(&db, &mut EdbStats::new(), alternatives).expect("prices");
        (calls() - before, memo)
    };
    drop(price());
    let (spent, memo) = price();
    assert_eq!(memo.alternatives.len(), 6, "every alternative priced");
    let before = calls();
    let judged = check(&s.program, &[], &Facts::new()).expect("judged");
    let one_judgment = calls() - before;
    drop((memo, judged));
    (spent, one_judgment)
}

/// Pricing the goal's six alternatives as last measured: 1 762 calls.
/// When each compile judged its alternative (arities, safety, a
/// dependency graph, strata) it read 1 919. A change that lowers the
/// count lowers this; none raises it.
const ROUTED_GOAL_CEILING: u64 = 1_762;

#[test]
fn pricing_a_goals_alternatives_judges_none_of_them() {
    let (spent, one_judgment) = routed_goal_calls();
    eprintln!("routed goal: {spent} allocator calls; one judgment: {one_judgment}");
    assert!(
        spent <= ROUTED_GOAL_CEILING,
        "{spent} allocator calls, over the last measured {ROUTED_GOAL_CEILING}"
    );
    assert!(
        ROUTED_GOAL_CEILING < spent + one_judgment,
        "the ceiling would let one judgment ({one_judgment} calls) through"
    );
}

/// Allocator calls of `route_alternatives` for the goal `reach(0, Y)` on
/// the default fanout bundle: magic sets and factoring of the written
/// and of the pushed program, read off their rules. And the calls of one
/// judgment of the program as written, which factoring once ran on each
/// program it rewrote. The run counted is the second, as above.
fn goal_rewrite_calls() -> (u64, u64) {
    let s = parse_scenario(fanout::PROGRAM);
    let plan = (Optimizer::new(&s.program)
        .with_constraints(&s.constraints)
        .run())
    .expect("plan");
    let goal = parse_atom("reach(0, Y)").expect("goal parses");
    let rewrite = || {
        let before = calls();
        let (alternatives, answer) = route_alternatives(&s.program, &plan, Some(&goal));
        (calls() - before, alternatives, answer)
    };
    drop(rewrite());
    let (spent, alternatives, answer) = rewrite();
    assert_eq!(
        alternatives.len(),
        6,
        "both bases, each rewritten both ways"
    );
    assert!(answer.is_some());
    let before = calls();
    let judged = check(&s.program, &[], &Facts::new()).expect("judged");
    let one_judgment = calls() - before;
    drop((alternatives, judged));
    (spent, one_judgment)
}

/// The goal rewrites as last measured: 200 calls. When factoring judged
/// each program it rewrote (`classify_linear`, a full `check` of the
/// rules the goal reads, 27 calls) and the magic rewrite rebuilt each
/// subgoal's bound set, they took 291.
const GOAL_REWRITES_CEILING: u64 = 200;
const GOAL_REWRITES_JUDGING: u64 = 291;

#[test]
fn goal_rewrites_judge_nothing() {
    let (spent, one_judgment) = goal_rewrite_calls();
    eprintln!("goal rewrites: {spent} allocator calls; one judgment: {one_judgment}");
    assert!(
        spent <= GOAL_REWRITES_CEILING,
        "{spent} allocator calls, over the last measured {GOAL_REWRITES_CEILING}"
    );
    assert!(
        GOAL_REWRITES_CEILING + one_judgment < GOAL_REWRITES_JUDGING,
        "the ceiling would let one judgment ({one_judgment} calls) back in"
    );
}
