//! The route matrix. A [`Case`] is a program, its constraints, an EDB and
//! a transaction stream; [`check`] answers it by every route the system
//! has and compares each answer with the naive oracle:
//!
//! - the original, rectified and residue-pushed programs, the α/β/γ
//!   isolation of expansion sequences and the pusher's commitment
//!   structure around them (Theorem 4.1), and `evaluate_routed`, every
//!   materialization passing `Relation::check_invariant`;
//! - for every binding pattern of every IDB predicate, each
//!   goal-directed alternative `route_alternatives` enumerates and
//!   `evaluate_routed`'s choice, and on acyclic cases the tabled top-down
//!   and SLD fixtures of `semrec_bench`;
//! - the maintained query after every transaction: its IDB, its scan
//!   answer to every goal of every predicate, the violations the database
//!   reports, the delta re-check of every constraint that held before it,
//!   and DRed's over-deleted and re-derived counts;
//! - a server logging to a WAL: every goal's wire bytes after every commit
//!   (read twice) and at every retained epoch, then after a restart that
//!   replays the log.
//!
//! [`check_each`] spreads cases, and then every case's binding patterns,
//! over one thread per core.
//!
//! The paper's theorem decides what must agree where. Isolation and
//! rectification agree on every database. What assumed a constraint — the
//! residue-pushed program, its rewrites, the router that may pick them —
//! is compared only on an EDB where every constraint holds. On a state
//! that violates a monitored constraint the maintained and served routes
//! must report that they degraded, stop answering through the residues,
//! and still agree.

use super::naive::{self, Facts};
use super::{frame, wire};
use semrec::core::push::{replace_blocks, Pusher};
use semrec::core::sequence::{enumerate_sequences, unfold};
use semrec::core::{evaluate_routed, route_alternatives, GovernedOutcome, MaintainedQuery};
use semrec::core::{Optimizer, OptimizerConfig, Plan};
use semrec::datalog::analysis::{self, classify_linear};
use semrec::datalog::{parse_unit, Atom, Constraint, Pred, Program, Term, Unit, Value};
use semrec::engine::incr::IcCheck;
use semrec::engine::{evaluate, scan_goal, Budget, CancelToken, Database, EvalResult};
use semrec::engine::{Materialized, Relation, Route, Stats, Strategy, Tuple, Tx, UpdateStats};
use semrec::serve::{QueryReply, ServeConfig, Server};
use semrec_bench::fixtures::isolate::isolate;
use semrec_bench::fixtures::sld::{query_sld, Completeness, SldConfig};
use semrec_bench::fixtures::topdown::query_topdown;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One input to the matrix.
pub struct Case {
    pub name: String,
    pub program: Program,
    pub ics: Vec<Constraint>,
    pub config: OptimizerConfig,
    pub edb: Database,
    /// Applied in order by the maintained and served routes; none empty.
    pub txs: Vec<Tx>,
    /// The EDB has no cycles, so the top-down fixtures terminate.
    pub acyclic: bool,
    pub depth: Depth,
}

/// How many of the routes a check runs. The goal-directed ones take most
/// of a check's time on a generated workload, the maintained and served
/// ones most of the rest, so a suite may leave them out of its seeds
/// past the first few.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Depth {
    /// The original, rectified, residue-pushed and isolated programs,
    /// and the router without a goal.
    Static,
    /// Also the maintained and served routes, over the transactions.
    Maintained,
    /// Also every goal-directed route: all of them.
    Full,
}

impl Case {
    /// `program` with no constraints over `edb`.
    pub fn of(name: impl Into<String>, program: Program, edb: Database) -> Case {
        Case {
            name: name.into(),
            program,
            ics: Vec::new(),
            config: OptimizerConfig::default(),
            edb,
            txs: Vec::new(),
            acyclic: false,
            depth: Depth::Full,
        }
    }

    /// The rules and constraints of `src`, over `edb` plus `src`'s facts.
    pub fn new(name: impl Into<String>, src: &str, mut edb: Database) -> Case {
        let unit = parse_unit(src).unwrap_or_else(|e| panic!("{src}: {e}"));
        for fact in unit.facts.atoms() {
            edb.insert_atom(&fact);
        }
        Case {
            ics: unit.constraints.clone(),
            ..Case::of(name, unit.program(), edb)
        }
    }

    /// Declares `preds` small, so the optimizer may introduce them.
    pub fn small(mut self, preds: &[&str]) -> Case {
        let small = preds.iter().map(|p| Pred::new(p));
        self.config.small_relations.extend(small);
        self
    }

    pub fn with_txs(mut self, txs: Vec<Tx>) -> Case {
        self.txs = txs.into_iter().filter(|tx| !tx.is_empty()).collect();
        self
    }

    /// Leaves the goal-directed routes out.
    pub fn without_goals(self) -> Case {
        Case {
            depth: Depth::Maintained,
            ..self
        }
    }

    /// Runs only the [`Depth::Static`] routes.
    pub fn static_only(self) -> Case {
        Case {
            depth: Depth::Static,
            ..self
        }
    }
}

/// What [`check`] counted, by name: goals answered per goal-directed
/// alternative (under the alternative's name), and the `COUNTED` events.
pub type Counts = BTreeMap<&'static str, u64>;

/// Counted by every check, from zero: expansion sequences `isolated`,
/// states `degraded` by a broken monitored constraint, relations
/// compacted in place (`compactions`, not rebuilt by a switch of
/// program), DRed's rows `over_deleted` and `rederived` where they were
/// compared, and constraints a transaction's delta `broke`.
const COUNTED: [&str; 6] = [
    "isolated",
    "degraded",
    "compactions",
    "over_deleted",
    "rederived",
    "broke",
];

/// What [`check`] saw, for the suites' coverage and counter asserts.
#[derive(Default)]
pub struct Report {
    /// The oracle's IDB at every state: on the case's EDB, then after
    /// each transaction.
    pub states: Vec<Facts>,
    /// The original program's work counters on the case's EDB.
    pub stats: Stats,
    pub counts: Counts,
}

impl Report {
    fn count(&mut self, what: &'static str, n: u64) {
        *self.counts.entry(what).or_default() += n;
    }
}

/// Asserts each goal-directed alternative in `kinds` answered a goal.
pub fn assert_reached(counts: &Counts, kinds: &[&str]) {
    for k in kinds {
        assert!(counts.contains_key(k), "{k} never answered: {counts:?}");
    }
}

/// `f` of every item, in order, computed on as many threads as the
/// machine runs at once.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let work = || {
        let mut out = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break out };
            out.push((i, f(item)));
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut out = std::thread::scope(|s| {
        let workers: Vec<_> = (1..threads).map(|_| s.spawn(work)).collect();
        let mut out = work();
        for w in workers {
            out.extend(w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        out
    });
    out.sort_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// [`check`]s every case: first every route but the goal-directed ones,
/// case by case, then the goal-directed ones, binding pattern by binding
/// pattern, each on as many threads as the machine runs at once. Returns
/// each case's name and report.
pub fn check_each(cases: impl IntoIterator<Item = Case>) -> Vec<(String, Report)> {
    let cases: Vec<Case> = cases.into_iter().collect();
    let mut checked = par_map(&cases, check_routes);
    let mut jobs = Vec::new();
    for (i, (_, goals)) in checked.iter().enumerate() {
        jobs.extend(goals.iter().flat_map(|g| &g.patterns).map(|p| (i, p)));
    }
    let counts = par_map(&jobs, |&(i, pattern)| {
        let (report, goals) = &checked[i];
        let goals = goals.as_ref().expect("patterns of a case with goals");
        let mut counts = Counts::new();
        pattern_routes(&cases[i], goals, &report.states[0], pattern, &mut counts);
        counts
    });
    let owners: Vec<usize> = jobs.iter().map(|&(i, _)| i).collect();
    for (i, counts) in owners.into_iter().zip(counts) {
        for (what, n) in counts {
            checked[i].0.count(what, n);
        }
    }
    let named = cases.iter().zip(checked);
    named
        .map(|(case, (report, _))| (case.name.clone(), report))
        .collect()
}

/// [`check_each`], summing the cases' counts.
pub fn check_all(cases: impl IntoIterator<Item = Case>) -> Counts {
    let mut total = Counts::new();
    for (what, n) in check_each(cases).into_iter().flat_map(|(_, r)| r.counts) {
        *total.entry(what).or_default() += n;
    }
    total
}

/// Runs `case` through every route and asserts each agrees with the
/// oracle, where the module docs say it must.
pub fn check(case: &Case) -> Report {
    let (mut report, goals) = check_routes(case);
    if let Some(g) = goals {
        for pattern in &g.patterns {
            pattern_routes(case, &g, &report.states[0], pattern, &mut report.counts);
        }
    }
    report
}

/// The goal-directed routes a case has left to check: the optimizer's
/// plan, whether the case's EDB satisfies its constraints, and one
/// group of goals per binding pattern of every IDB predicate.
struct Goals {
    plan: Plan,
    consistent: bool,
    patterns: Vec<Vec<Atom>>,
}

/// Every route of `case` but the goal-directed ones, which it returns
/// to check unless the optimizer refused the program or the case leaves
/// them out.
fn check_routes(case: &Case) -> (Report, Option<Goals>) {
    let (name, db) = (case.name.as_str(), &case.edb);
    let oracle = naive::naive_idb(db, &case.program);
    let consistent = ics_agree(db, &case.ics, name);
    let stats = run(db, &case.program, &oracle, &format!("{name}: original")).stats;
    assert_eq!(stats.kernel_firings, stats.rule_firings, "{name}: kernels");
    let mut report = Report {
        stats,
        counts: Counts::from(COUNTED.map(|what| (what, 0))),
        ..Report::default()
    };
    let plan = Optimizer::new(&case.program)
        .with_constraints(&case.ics)
        .with_config(case.config.clone())
        .run();
    if let Ok(plan) = &plan {
        run(db, &plan.rectified, &oracle, &format!("{name}: rectified"));
        if consistent {
            run(db, &plan.program, &oracle, &format!("{name}: pushed"));
        }
        report.count("isolated", isolated(case, plan, &oracle));
    }
    // Outside the paper's class the optimizer refuses the program and
    // the router answers by the rectified fallback. A constraint that
    // breaks an evaluation rule (an atom at the wrong arity) is refused
    // by `check` before routing, as `load` refuses its file.
    match routed(case, None) {
        Some(routed) => {
            assert_eq!(routed.degraded.is_some(), plan.is_err(), "{name}: routed");
            if consistent || plan.is_err() {
                assert_agrees(&oracle, &routed.result.idb, &format!("{name}: routed"));
            }
        }
        None => assert!(
            plan.is_err(),
            "{name}: check refused what the optimizer took"
        ),
    }
    if case.depth == Depth::Static {
        report.states.push(oracle);
    } else {
        let epochs = maintained(case, plan.is_ok(), oracle, &mut report);
        if plan.is_ok() {
            served(case, &epochs);
        }
    }
    let goals = plan.ok().filter(|_| case.depth == Depth::Full).map(|plan| {
        let oracle = &report.states[0];
        let arities = case.program.arities().expect("checked");
        let idb = case.program.idb_preds().into_iter();
        let patterns = idb.flat_map(|p| goals(p, arities[&p], &oracle[&p]));
        Goals {
            plan,
            consistent,
            patterns: patterns.collect(),
        }
    });
    (report, goals)
}

/// Evaluates `program` and asserts its IDB agrees with `oracle`.
fn run(db: &Database, program: &Program, oracle: &Facts, ctx: &str) -> EvalResult {
    let res = evaluate(db, program, Strategy::SemiNaive);
    let res = res.unwrap_or_else(|e| panic!("{ctx}: {e}"));
    assert_agrees(oracle, &res.idb, ctx);
    res
}

/// `evaluate_routed` without a budget, on the case's one judgment;
/// `None` when `check` refuses the case.
fn routed(case: &Case, goal: Option<&Atom>) -> Option<GovernedOutcome> {
    let checked = analysis::check(&case.program, &case.ics, &semrec::datalog::Facts::new());
    let checked = checked.ok()?;
    let routed = evaluate_routed(
        &case.edb,
        &case.program,
        &case.ics,
        &checked,
        case.config.clone(),
        Budget::unlimited(),
        CancelToken::new(),
        goal,
    );
    Some(routed.unwrap_or_else(|e| panic!("{}: routed: {e}", case.name)))
}

fn assert_sound<'a, P: Display>(rels: impl IntoIterator<Item = (P, &'a Relation)>, ctx: &str) {
    for (p, rel) in rels {
        rel.check_invariant()
            .unwrap_or_else(|e| panic!("{ctx}: {p}: {e}"));
    }
}

/// Asserts every relation of `idb` is sound storage and every predicate
/// of `oracle` holds the oracle's tuples in it (a missing one none).
fn assert_agrees(oracle: &Facts, idb: &BTreeMap<Pred, Relation>, ctx: &str) {
    assert_sound(idb, ctx);
    for (p, want) in oracle {
        let got: BTreeSet<Tuple> = idb.get(p).into_iter().flat_map(Relation::tuples).collect();
        assert_eq!(&got, want, "{ctx}: {p} diverged from the oracle");
    }
}

/// Asserts `db.violations` and `db.satisfies` agree with the oracle for
/// every constraint; true when all of them hold.
fn ics_agree(db: &Database, ics: &[Constraint], ctx: &str) -> bool {
    let facts = naive::facts_of(db);
    let ground = |(v, t): (_, Term)| (v, t.as_const().expect("violations are ground"));
    let mut all = true;
    for ic in ics {
        let want = naive::ic_violations(&facts, ic);
        let got: BTreeSet<naive::Env> = db
            .violations(ic)
            .iter()
            .map(|s| s.iter().map(ground).collect())
            .collect();
        assert_eq!(got, want, "{ctx}: violations of {ic}");
        assert_eq!(db.satisfies(ic), want.is_empty(), "{ctx}: satisfies {ic}");
        all &= want.is_empty();
    }
    all
}

fn vars(n: usize) -> Vec<Term> {
    (0..n).map(|i| Term::var(&format!("V{i}"))).collect()
}

/// Every binding pattern of `p`, one group of goals each: all free once,
/// then for each pattern with a bound position the constants of two of
/// `rows` (the first and the middle one) and of a value no input holds.
fn goals(p: Pred, arity: usize, rows: &BTreeSet<Tuple>) -> Vec<Vec<Atom>> {
    let absent = vec![Value::Int(-987_654_321); arity];
    let mut picks: Vec<&Tuple> = rows.iter().take(1).collect();
    picks.extend(rows.iter().nth(rows.len() / 2));
    picks.push(&absent);
    let mut out = Vec::new();
    for mask in 0..1u32 << arity {
        let mut pattern: Vec<Atom> = Vec::new();
        for row in if mask == 0 { &picks[..1] } else { &picks[..] } {
            let mut args = vars(arity);
            for i in (0..arity).filter(|i| mask >> i & 1 == 1) {
                args[i] = Term::Const(row[i]);
            }
            let goal = Atom::new(p, args);
            if !pattern.contains(&goal) {
                pattern.push(goal); // small domains repeat constants
            }
        }
        out.push(pattern);
    }
    out
}

/// Theorem 4.1: isolating an expansion sequence — and the pusher's
/// commitment structure around it, before any residue is pushed —
/// preserves the IDB on every database. Evaluates the first and the
/// last sequence of two or three steps of each recursive predicate.
fn isolated(case: &Case, plan: &Plan, oracle: &Facts) -> u64 {
    let rect = &plan.rectified;
    let mut n = 0;
    for info in classify_linear(rect).expect("linear") {
        let seqs = enumerate_sequences(&info, 3)
            .into_iter()
            .filter(|s| s.len() > 1);
        let seqs: Vec<Vec<usize>> = seqs.collect();
        for seq in [&seqs[0], &seqs[seqs.len() - 1]] {
            let ctx = format!("{}: isolating {seq:?} of {}", case.name, info.pred);
            let u = unfold(rect, &info, seq).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            run(&case.edb, &isolate(rect, &info, &u).program, oracle, &ctx);
            let block = BTreeMap::from([(info.pred, Pusher::new(rect, &info, &u).finish().rules)]);
            run(
                &case.edb,
                &replace_blocks(rect, block),
                oracle,
                &format!("{ctx}, committed"),
            );
            n += 1;
        }
    }
    n
}

/// The goal-directed routes on the case's EDB for the goals of one
/// binding pattern: every alternative `route_alternatives` enumerates,
/// the router, and on acyclic cases tabled top-down and SLD. Counts the
/// goals each alternative answered.
fn pattern_routes(case: &Case, g: &Goals, oracle: &Facts, goals: &[Atom], counts: &mut Counts) {
    let (db, program, consistent) = (&case.edb, &case.program, g.consistent);
    let sorted = |mut got: Vec<Tuple>| {
        got.sort();
        got
    };
    for (i, goal) in goals.iter().enumerate() {
        let ctx = format!("{}: goal {goal}", case.name);
        let want = naive::goal_answers(oracle, goal);
        let (alts, answer) = route_alternatives(program, &g.plan, Some(goal));
        for (kind, alt) in alts.iter().filter(|(k, _)| k.is_goal_directed()) {
            if kind.route() == Route::Optimized && !consistent {
                continue;
            }
            *counts.entry(kind.name()).or_default() += 1;
            let res = evaluate(db, alt, Strategy::SemiNaive);
            let res = res.unwrap_or_else(|e| panic!("{ctx}: {kind}: {e}"));
            assert_sound(&res.idb, &format!("{ctx}: {kind}"));
            let rel = answer.and_then(|a| res.relation(a));
            let got = rel.map_or_else(Vec::new, |rel| scan_goal(rel, goal));
            assert_eq!(sorted(got), want, "{ctx}: {kind} over\n{alt}");
        }
        // The router prices the pattern once, for its first constants:
        // pricing dominates the matrix's run time.
        if consistent && i == 0 {
            let routed = routed(case, Some(goal)).expect("the optimizer took it, so check does");
            assert!(routed.degraded.is_none(), "{ctx}: {:?}", routed.degraded);
            assert_sound(&routed.result.idb, &format!("{ctx}: routed"));
            let chosen = routed.result.choice.as_ref().map(|c| c.chosen.name());
            let got = sorted(routed.result.answers(goal));
            assert_eq!(got, want, "{ctx}: routed through {chosen:?}");
        }
        if case.acyclic {
            let got = query_topdown(db, program, goal).map(|(got, _)| sorted(got));
            assert_eq!(got.expect("top-down"), want, "{ctx}: tabled top-down");
            let budget = SldConfig {
                max_depth: 24,
                max_expansions: 2_000_000,
            };
            let (got, _, complete) = query_sld(db, program, goal, budget).expect("SLD");
            assert_eq!(complete, Completeness::Complete, "{ctx}: SLD");
            assert_eq!(sorted(got), want, "{ctx}: SLD");
        }
    }
}

/// The maintained route: `MaintainedQuery` when the optimizer accepts the
/// program, with whether the residue-pushed program is the one
/// materialized (its route says so only until the first transaction;
/// after that only a switch of program, `rebuilt`, changes it); else the
/// program as written, kept by a bare `Materialized`.
enum Maintained {
    Query(Box<MaintainedQuery>, bool),
    Bare(Box<Materialized>, Database),
}

impl Maintained {
    fn db(&self) -> &Database {
        match self {
            Maintained::Query(q, _) => q.db(),
            Maintained::Bare(_, db) => db,
        }
    }

    fn idb(&self) -> &BTreeMap<Pred, Relation> {
        match self {
            Maintained::Query(q, _) => q.idb(),
            Maintained::Bare(m, _) => m.idb(),
        }
    }

    /// The program whose fixpoint is materialized right now.
    fn active(&self) -> &Program {
        match self {
            Maintained::Query(q, true) => &q.plan().program,
            Maintained::Query(q, false) => &q.plan().rectified,
            Maintained::Bare(m, _) => m.program(),
        }
    }

    /// Applies `tx`; true when a switch of program rebuilt the
    /// materialization rather than maintaining it.
    fn apply(&mut self, tx: &Tx) -> (UpdateStats, bool) {
        let unlimited = Budget::unlimited();
        match self {
            Maintained::Query(q, pushed) => {
                let out = q.apply(tx, unlimited, None).expect("maintained apply");
                *pushed ^= out.rebuilt;
                (out.stats, out.rebuilt)
            }
            Maintained::Bare(m, db) => (m.apply(db, tx, unlimited, None).expect("apply"), false),
        }
    }

    /// Every relation's storage incarnation.
    fn incarnations(&self) -> BTreeMap<(bool, Pred), u64> {
        let edb = self.db().iter().map(|(p, r)| ((false, p), r.stamp().0));
        edb.chain(self.idb().iter().map(|(&p, r)| ((true, p), r.stamp().0)))
            .collect()
    }
}

/// What a served session must read at one epoch: the oracle's answer to
/// each goal, under the maintained route's route.
struct Epoch {
    route: Route,
    goals: Vec<Atom>,
    answers: Vec<Vec<Tuple>>,
}

impl Epoch {
    fn requests(&self, verb: &str) -> String {
        self.goals
            .iter()
            .map(|g| format!("{verb} {g}.\n"))
            .collect()
    }

    fn replies(&self, epoch: usize) -> String {
        let framed = self.goals.iter().zip(&self.answers).map(|(g, tuples)| {
            let reply = QueryReply {
                epoch: epoch as u64,
                route: self.route,
                tuples: tuples.clone(),
            };
            frame(g.pred, &reply)
        });
        framed.collect()
    }
}

/// Runs the maintained route over the case's transactions, checking
/// every state; returns what the served route must read at each epoch.
fn maintained(case: &Case, optimizable: bool, oracle: Facts, report: &mut Report) -> Vec<Epoch> {
    let (name, edb) = (&case.name, case.edb.clone());
    let mut m = match optimizable {
        true => {
            let q = MaintainedQuery::new(edb, &case.program, &case.ics, case.config.clone(), 1);
            let q = q.unwrap_or_else(|e| panic!("{name}: maintained: {e}"));
            let pushed = q.route() == Route::Optimized;
            Maintained::Query(Box::new(q), pushed)
        }
        false => {
            let m = Materialized::new(&edb, &case.program).expect("materialize");
            Maintained::Bare(Box::new(m), edb)
        }
    };
    let mut arities = case.program.arities().expect("arities");
    let mut edbs = vec![naive::facts_of(m.db())];
    let mut epochs = vec![state(&m, case, oracle, &mut arities, report, "initial")];
    for (i, tx) in case.txs.iter().enumerate() {
        let ctx = format!("tx {i}");
        let broke = delta_rechecks(m.db(), tx, &case.ics, &format!("{name}: {ctx}"));
        report.count("broke", broke);
        // DRed's counts are over the program materialized before `tx`.
        let deleted = tx
            .deletes()
            .iter()
            .map(|(&p, ts)| (p, ts.iter().cloned().collect()));
        let deleted: Facts = deleted.collect();
        let expect = (!deleted.is_empty()).then(|| {
            // What DRed deletes from is the materialization, just found
            // equal to the oracle on every predicate the program defines.
            let active = m.active().clone();
            let heads = |p: &Program| p.rules.iter().map(|r| r.head.pred).collect::<BTreeSet<_>>();
            let pre = match heads(&active) == heads(&case.program) {
                true => report.states[i].clone(),
                false => naive::naive_idb(m.db(), &active),
            };
            let doomed = naive::over_deleted(m.db(), &active, &pre, &deleted);
            (active, pre, doomed)
        });
        let before = m.incarnations();
        let (stats, rebuilt) = m.apply(tx);
        let after = m.incarnations();
        let moved = |(k, v): &(&(bool, Pred), &u64)| {
            !(rebuilt && k.0) && after.get(k).is_some_and(|w| w != *v)
        };
        report.count("compactions", before.iter().filter(moved).count() as u64);
        if !stats.from_scratch {
            let (over, back) = expect.map_or((0, 0), |(active, pre, doomed)| {
                let over = doomed.values().map(BTreeSet::len).sum::<usize>();
                let back = naive::rederived(m.db(), &active, &pre, &doomed);
                (over as u64, back as u64)
            });
            let counts = (stats.over_deleted, stats.rederived);
            assert_eq!(counts, (over, back), "{name}: {ctx}: DRed");
            report.count("over_deleted", over);
            report.count("rederived", back);
        }
        // The oracle is a function of the EDB, and a transaction that
        // puts back what an earlier one took returns to a known one.
        let edb = naive::facts_of(m.db());
        let oracle = match edbs.iter().position(|e| *e == edb) {
            Some(known) => report.states[known].clone(),
            None => naive::naive_idb(m.db(), &case.program),
        };
        edbs.push(edb);
        epochs.push(state(&m, case, oracle, &mut arities, report, &ctx));
    }
    epochs
}

/// The delta re-check: every constraint that holds on `db` is checked
/// again after `tx` from `tx`'s delta alone (`IcCheck::holds`), which
/// must agree with the oracle. Returns how many constraints `tx` broke.
fn delta_rechecks(db: &Database, tx: &Tx, ics: &[Constraint], ctx: &str) -> u64 {
    let held: Vec<&Constraint> = ics.iter().filter(|ic| db.satisfies(ic)).collect();
    if held.is_empty() {
        return 0;
    }
    let mut after = db.clone();
    let delta = after.apply(tx);
    let facts = naive::facts_of(&after);
    let mut broke = 0;
    for ic in held {
        let check = IcCheck::new(&after, ic);
        let run = check.holds(&after, Some(&delta), &Budget::unlimited(), None);
        let holds = run.expect("delta re-check").0;
        let want = naive::ic_violations(&facts, ic).is_empty();
        assert_eq!(holds, want, "{ctx}: delta re-check of {ic}");
        broke += u64::from(!holds);
    }
    broke
}

/// Checks one state of the maintained route against `oracle`, the IDB
/// there, and its answer to every goal of every predicate: the binding
/// patterns, a repeated variable, the wrong arity, and a predicate
/// nobody defines. Records `oracle` as the state's; returns what the
/// served route must read.
fn state(
    m: &Maintained,
    case: &Case,
    oracle: Facts,
    arities: &mut BTreeMap<Pred, usize>,
    report: &mut Report,
    ctx: &str,
) -> Epoch {
    let ctx = format!("{}: {ctx}", case.name);
    assert_agrees(&oracle, m.idb(), &format!("{ctx}: maintained"));
    assert_sound(m.db().iter(), &ctx);
    arities.extend(m.db().iter().map(|(p, rel)| (p, rel.arity())));
    ics_agree(m.db(), &case.ics, &ctx);
    let mut facts = naive::facts_of(m.db());
    let route = match m {
        Maintained::Query(q, pushed) => {
            let broken =
                |(_, ic): &(usize, &Constraint)| !naive::ic_violations(&facts, ic).is_empty();
            let monitored = q.monitored().iter().enumerate();
            let violated: Vec<usize> = monitored.filter(broken).map(|e| e.0).collect();
            assert_eq!(q.violated(), violated, "{ctx}: monitored constraints");
            if !violated.is_empty() {
                report.count("degraded", 1);
                let ctx = format!("{ctx}: the residue-pushed program answers");
                assert!(!pushed, "{ctx} under a violation");
            }
            q.route()
        }
        Maintained::Bare(..) => Route::Direct,
    };
    facts.extend(oracle.iter().map(|(&p, set)| (p, set.clone())));
    let mut goals = vec![Atom::new(Pred::new("no_such_pred"), vars(2))];
    // The query syntax has no nullary atoms.
    for (&p, rows) in facts.iter().filter(|(p, _)| arities[p] > 0) {
        let n = arities[&p];
        goals.extend(self::goals(p, n, rows).into_iter().flatten());
        let mut args = vars(n);
        args[n - 1] = args[0];
        goals.extend([Atom::new(p, args), Atom::new(p, vars(n + 1))]);
    }
    let mut answers = Vec::with_capacity(goals.len());
    for goal in &goals {
        let want = naive::goal_answers(&facts, goal);
        if oracle.contains_key(&goal.pred) {
            let rel = m.idb().get(&goal.pred);
            let mut got = rel.map_or_else(Vec::new, |rel| scan_goal(rel, goal));
            got.sort();
            assert_eq!(got, want, "{ctx}: maintained answer to {goal}");
        }
        answers.push(want);
    }
    report.states.push(oracle);
    Epoch {
        route,
        goals,
        answers,
    }
}

/// Names the served route's WAL directories apart, one per case.
static NEXT_WAL: AtomicUsize = AtomicUsize::new(0);

/// The served route: a server logging to a WAL commits the case's
/// transactions; after each commit every goal's wire bytes must be the
/// oracle's framed answer, read twice — the second time over the index
/// lineage the first read extended — and afterwards at every retained
/// epoch, newest first, so the older snapshots read behind indexes the
/// newer readers extended. Reopened, the server replays the log and
/// must read the last epoch's bytes once more.
fn served(case: &Case, epochs: &[Epoch]) {
    let name = &case.name;
    let id = NEXT_WAL.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("semrec-routes-{}-{id}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("WAL directory");
    let wal = dir.join("serve.wal");
    let fact = |p, row: Tuple| Atom::new(p, row.into_iter().map(Term::Const).collect());
    let facts = case
        .edb
        .iter()
        .flat_map(|(p, rel)| rel.tuples().map(move |row| fact(p, row)));
    let unit = Unit {
        rules: case.program.rules.clone(),
        facts: facts.collect(),
        constraints: case.ics.clone(),
    };
    let cfg = ServeConfig {
        optimizer: case.config.clone(),
        retain_epochs: epochs.len(),
        ..ServeConfig::default()
    };
    let (server, _) = Server::open(&unit, cfg.clone(), Some(&wal)).expect("open");
    for (e, epoch) in epochs.iter().enumerate() {
        if e > 0 {
            let reply = server.commit(&case.txs[e - 1]).expect("commit");
            assert_eq!(reply.epoch, e as u64, "{name}");
        }
        let (requests, want) = (epoch.requests("query"), epoch.replies(e));
        assert_eq!(
            wire(&server, &requests),
            want,
            "{name}: served at epoch {e}"
        );
        assert_eq!(
            wire(&server, &requests),
            want,
            "{name}: read again at epoch {e}"
        );
    }
    let pinned = epochs.iter().enumerate().rev();
    let (at, want): (String, String) = pinned
        .map(|(e, epoch)| (epoch.requests(&format!("query@{e}")), epoch.replies(e)))
        .unzip();
    assert_eq!(wire(&server, &at), want, "{name}: served at pinned epochs");
    drop(server);

    let (server, recovered) = Server::open(&unit, cfg, Some(&wal)).expect("reopen");
    assert_eq!(recovered.replayed_commits, case.txs.len(), "{name}: replay");
    let (last, epoch) = (epochs.len() - 1, &epochs[epochs.len() - 1]);
    let sent = wire(&server, &epoch.requests("query"));
    assert_eq!(sent, epoch.replies(last), "{name}: served after replay");
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
