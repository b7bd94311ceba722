//! Top-down evaluation with tabling (a QSQR-flavoured memoized resolution
//! loop).
//!
//! The paper's optimization story is proof-tree-shaped: residues prune or
//! shrink *derivation attempts*. Bottom-up engines never attempt the work
//! the ICs forbid on consistent data (see experiment E3), so this engine
//! provides the goal-directed counterpart: subgoals are tabled by their
//! canonical form, rules are expanded on demand, and recursive calls read
//! the tables, repeating passes until the tables stabilize.
//!
//! Supported class: positive programs with evaluable comparisons (negated
//! subgoals are rejected — combining tabling with stratified negation is
//! out of scope here). Subgoal canonicalization renames variables by first
//! occurrence, so `t(X, 5, Y)` and `t(A, 5, B)` share a table.

use semrec_datalog::atom::{Atom, Pred};
use semrec_datalog::literal::Literal;
use semrec_datalog::program::Program;
use semrec_datalog::subst::Subst;
use semrec_datalog::symbol::Symbol;
use semrec_datalog::term::{Term, Value};
use semrec_engine::database::Database;
use semrec_engine::error::EngineError;
use semrec_engine::relation::Tuple;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Work counters for a top-down run: the "speculative exploration" the
/// bottom-up engine never performs.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct TdStats {
    /// Distinct tabled subgoals created.
    pub subgoals: u64,
    /// Rule expansion attempts (head unifications that succeeded).
    pub expansions: u64,
    /// Body-literal resolution steps.
    pub resolutions: u64,
    /// Stabilization passes over the subgoal graph.
    pub passes: u64,
    /// Answers recorded across all tables (with duplicates filtered).
    pub answers: u64,
}

impl fmt::Display for TdStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "subgoals={} expansions={} resolutions={} passes={} answers={}",
            self.subgoals, self.expansions, self.resolutions, self.passes, self.answers
        )
    }
}

/// A canonicalized subgoal: variables renamed `$0, $1, …` by first
/// occurrence (repeats preserved).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct CanonGoal {
    pred: Pred,
    args: Vec<CanonArg>,
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum CanonArg {
    Const(Value),
    Var(usize),
}

fn canonicalize(goal: &Atom) -> CanonGoal {
    let mut seen: BTreeMap<Symbol, usize> = BTreeMap::new();
    let args = goal
        .args
        .iter()
        .map(|t| match t {
            Term::Const(c) => CanonArg::Const(*c),
            Term::Var(v) => {
                let n = seen.len();
                CanonArg::Var(*seen.entry(*v).or_insert(n))
            }
        })
        .collect();
    CanonGoal {
        pred: goal.pred,
        args,
    }
}

/// True if `row` instantiates the canonical goal (constants equal,
/// repeated variables equal).
fn canon_matches(goal: &CanonGoal, row: &[Value]) -> bool {
    let mut bind: BTreeMap<usize, Value> = BTreeMap::new();
    for (a, &v) in goal.args.iter().zip(row) {
        match a {
            CanonArg::Const(c) => {
                if *c != v {
                    return false;
                }
            }
            CanonArg::Var(i) => match bind.get(i) {
                Some(&prev) if prev != v => return false,
                Some(_) => {}
                None => {
                    bind.insert(*i, v);
                }
            },
        }
    }
    true
}

/// The tabled top-down engine.
pub struct TopDown<'db> {
    db: &'db Database,
    program: Program,
    idb: BTreeSet<Pred>,
    tables: BTreeMap<CanonGoal, BTreeSet<Tuple>>,
    stats: TdStats,
    fresh: u64,
    changed: bool,
}

impl<'db> TopDown<'db> {
    /// Creates a top-down engine for the program.
    pub fn new(db: &'db Database, program: &Program) -> Result<TopDown<'db>, EngineError> {
        if program
            .rules
            .iter()
            .any(|r| r.body.iter().any(|l| l.as_neg().is_some()))
        {
            return Err(EngineError::Invalid(semrec_datalog::Error::NotStratified(
                "the top-down engine does not support negation".into(),
            )));
        }
        program.arities().map_err(EngineError::ArityMismatch)?;
        Ok(TopDown {
            db,
            program: program.clone(),
            idb: program.idb_preds(),
            tables: BTreeMap::new(),
            stats: TdStats::default(),
            fresh: 0,
            changed: false,
        })
    }

    /// Solves `goal`, returning the matching tuples (full-arity) sorted.
    pub fn query(&mut self, goal: &Atom) -> Vec<Tuple> {
        let canon = canonicalize(goal);
        loop {
            self.stats.passes += 1;
            self.changed = false;
            let mut in_pass: BTreeSet<CanonGoal> = BTreeSet::new();
            self.solve(&canon, &mut in_pass);
            if !self.changed {
                break;
            }
        }
        let mut out: Vec<Tuple> = self
            .tables
            .get(&canon)
            .map(|t| t.iter().cloned().collect())
            .unwrap_or_default();
        out.sort();
        out
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> TdStats {
        self.stats
    }

    /// One pass over a subgoal: expand its rules against the current
    /// tables, recording any new answers.
    fn solve(&mut self, goal: &CanonGoal, in_pass: &mut BTreeSet<CanonGoal>) {
        if !in_pass.insert(goal.clone()) {
            return; // already processed this pass (or in progress — cycle)
        }
        if !self.tables.contains_key(goal) {
            self.tables.insert(goal.clone(), BTreeSet::new());
            self.stats.subgoals += 1;
        }
        if !self.idb.contains(&goal.pred) {
            // EDB subgoal: answers come straight from the database.
            if let Some(rel) = self.db.get(goal.pred) {
                let rows: Vec<Tuple> = rel.tuples().filter(|r| canon_matches(goal, r)).collect();
                self.add_answers(goal, rows);
            }
            return;
        }
        // Re-materialize the goal atom with fresh variables.
        let goal_atom = self.decanonicalize(goal);
        for ri in self.program.rules_for(goal.pred) {
            let rule = self.program.rules[ri].clone();
            let renamed = self.freshen(&rule);
            let Some(mgu) = semrec_datalog::unify::unify_atoms(&renamed.head, &goal_atom) else {
                continue;
            };
            self.stats.expansions += 1;
            let body: Vec<Literal> = renamed.body.iter().map(|l| mgu.apply_literal(l)).collect();
            let head = mgu.apply_atom(&renamed.head);
            let mut answers: Vec<Tuple> = Vec::new();
            self.resolve_body(&body, &Subst::new(), &head, &mut answers, in_pass);
            self.add_answers(goal, answers);
        }
    }

    /// Bound-first resolution of the body against the tables: at each step
    /// the next literal is a runnable comparison if any, otherwise the atom
    /// with the most bound argument positions under the current bindings —
    /// the tuple-at-a-time analogue of the bottom-up planner's heuristic,
    /// which is what makes bound goals genuinely goal-directed.
    fn resolve_body(
        &mut self,
        remaining: &[Literal],
        theta: &Subst,
        head: &Atom,
        answers: &mut Vec<Tuple>,
        in_pass: &mut BTreeSet<CanonGoal>,
    ) {
        if remaining.is_empty() {
            let ground = theta.apply_atom(head);
            if let Some(tuple) = atom_tuple(&ground) {
                answers.push(tuple);
            }
            return;
        }
        // Pick a runnable comparison first.
        for (i, lit) in remaining.iter().enumerate() {
            if let Literal::Cmp(c) = lit {
                let g = theta.apply_cmp(c);
                if let Some(truth) = g.eval_ground() {
                    self.stats.resolutions += 1;
                    if truth {
                        let rest: Vec<Literal> = remaining
                            .iter()
                            .enumerate()
                            .filter(|(j, _)| *j != i)
                            .map(|(_, l)| l.clone())
                            .collect();
                        self.resolve_body(&rest, theta, head, answers, in_pass);
                    }
                    return;
                }
            }
        }
        // Otherwise the atom with the most bound argument positions.
        let best = remaining
            .iter()
            .enumerate()
            .filter(|(_, l)| matches!(l, Literal::Atom(_)))
            .max_by_key(|(i, l)| {
                let Literal::Atom(a) = l else { unreachable!() };
                let bound = a
                    .args
                    .iter()
                    .filter(|t| matches!(theta.apply_term(**t), Term::Const(_)))
                    .count();
                // An unready builtin (needs ≥2 bound args) must wait for
                // other literals to bind its inputs.
                let ready = semrec_engine::builtins::BuiltinOp::of(a.pred).is_none() || bound >= 2;
                (ready, bound, usize::MAX - i)
            });
        let Some((bi, Literal::Atom(a))) = best else {
            // Only unbound comparisons left: the rule is unsafe for this
            // binding — no answers.
            return;
        };
        self.stats.resolutions += 1;
        let subgoal = theta.apply_atom(a);
        // Arithmetic builtins are computed, not tabled.
        if let Some(op) = semrec_engine::builtins::BuiltinOp::of(subgoal.pred) {
            if subgoal.arity() == semrec_engine::builtins::BuiltinOp::ARITY {
                let rest: Vec<Literal> = remaining
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != bi)
                    .map(|(_, l)| l.clone())
                    .collect();
                let vals: Vec<Option<semrec_datalog::term::Value>> =
                    subgoal.args.iter().map(|t| t.as_const()).collect();
                let bound = vals.iter().filter(|v| v.is_some()).count();
                if bound == 3 {
                    if op.check(vals[0].unwrap(), vals[1].unwrap(), vals[2].unwrap()) {
                        self.resolve_body(&rest, theta, head, answers, in_pass);
                    }
                } else if bound == 2 {
                    let pos = vals.iter().position(Option::is_none).unwrap();
                    if let Some(v) = op.solve([vals[0], vals[1], vals[2]]) {
                        let Term::Var(x) = subgoal.args[pos] else {
                            unreachable!()
                        };
                        let mut t2 = theta.clone();
                        t2.insert(x, Term::Const(v));
                        self.resolve_body(&rest, &t2, head, answers, in_pass);
                    }
                }
                // Fewer than two bound: flounder — no answers this branch.
                return;
            }
        }
        let canon = canonicalize(&subgoal);
        // Ensure the subgoal's table exists/gets a pass.
        self.solve(&canon, in_pass);
        let rows: Vec<Tuple> = self
            .tables
            .get(&canon)
            .map(|t| t.iter().cloned().collect())
            .unwrap_or_default();
        let rest: Vec<Literal> = remaining
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != bi)
            .map(|(_, l)| l.clone())
            .collect();
        for row in rows {
            let mut t2 = theta.clone();
            let mut ok = true;
            for (arg, v) in subgoal.args.iter().zip(&row) {
                match t2.apply_term(*arg) {
                    Term::Const(c) => {
                        if c != *v {
                            ok = false;
                            break;
                        }
                    }
                    Term::Var(x) => {
                        t2.insert(x, Term::Const(*v));
                    }
                }
            }
            if ok {
                self.resolve_body(&rest, &t2, head, answers, in_pass);
            }
        }
    }

    fn add_answers(&mut self, goal: &CanonGoal, rows: Vec<Tuple>) {
        let table = self.tables.get_mut(goal).expect("table created in solve");
        for r in rows {
            if table.insert(r) {
                self.stats.answers += 1;
                self.changed = true;
            }
        }
    }

    fn decanonicalize(&mut self, goal: &CanonGoal) -> Atom {
        let args = goal
            .args
            .iter()
            .map(|a| match a {
                CanonArg::Const(c) => Term::Const(*c),
                CanonArg::Var(i) => Term::Var(Symbol::intern(&format!("G`{i}"))),
            })
            .collect();
        Atom::new(goal.pred, args)
    }

    fn freshen(&mut self, rule: &semrec_datalog::rule::Rule) -> semrec_datalog::rule::Rule {
        self.fresh += 1;
        let tag = self.fresh;
        let sub: Subst = rule
            .vars()
            .into_iter()
            .map(|v| (v, Term::Var(Symbol::intern(&format!("{v}`t{tag}")))))
            .collect();
        sub.apply_rule(rule)
    }
}

fn atom_tuple(a: &Atom) -> Option<Tuple> {
    a.args.iter().map(|t| t.as_const()).collect()
}

/// One-shot convenience: top-down query answering.
pub fn query_topdown(
    db: &Database,
    program: &Program,
    goal: &Atom,
) -> Result<(Vec<Tuple>, TdStats), EngineError> {
    let mut td = TopDown::new(db, program)?;
    let answers = td.query(goal);
    Ok((answers, td.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_datalog::parser::parse_atom;
    use semrec_engine::database::int_tuple;
    use semrec_engine::eval::{evaluate, Strategy};

    fn chain_db(n: i64) -> Database {
        let mut db = Database::new();
        for i in 0..n {
            db.insert("e", int_tuple(&[i, i + 1]));
        }
        db
    }

    fn tc() -> Program {
        "t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), t(Z,Y)."
            .parse()
            .unwrap()
    }

    #[test]
    fn matches_bottom_up_on_full_goal() {
        let db = chain_db(8);
        let (mut answers, _) = query_topdown(&db, &tc(), &parse_atom("t(X, Y)").unwrap()).unwrap();
        answers.sort();
        let full = evaluate(&db, &tc(), Strategy::SemiNaive).unwrap();
        assert_eq!(answers, full.relation("t").unwrap().sorted_tuples());
    }

    #[test]
    fn bound_goal_is_goal_directed() {
        let db = chain_db(30);
        let (answers, stats) = query_topdown(&db, &tc(), &parse_atom("t(25, Y)").unwrap()).unwrap();
        assert_eq!(answers.len(), 5);
        // Only the suffix subgoals get tabled: far fewer than 30 nodes'
        // worth of full exploration.
        assert!(stats.subgoals < 20, "{stats}");
    }

    #[test]
    fn cyclic_data_terminates() {
        let mut db = Database::new();
        for i in 0..5 {
            db.insert("e", int_tuple(&[i, (i + 1) % 5]));
        }
        let (answers, _) = query_topdown(&db, &tc(), &parse_atom("t(0, Y)").unwrap()).unwrap();
        assert_eq!(answers.len(), 5);
    }

    #[test]
    fn right_linear_and_comparisons() {
        let db = chain_db(10);
        let p: Program = "big(X, Y) :- t(X, Y), Y >= 8.
                          t(X,Y) :- t(X,Z), e(Z,Y). t(X,Y) :- e(X,Y)."
            .parse()
            .unwrap();
        let (answers, _) = query_topdown(&db, &p, &parse_atom("big(0, Y)").unwrap()).unwrap();
        assert_eq!(answers.len(), 3);
    }

    #[test]
    fn repeated_variable_goals() {
        let mut db = chain_db(5);
        db.insert("e", int_tuple(&[3, 3]));
        let (answers, _) = query_topdown(&db, &tc(), &parse_atom("t(X, X)").unwrap()).unwrap();
        assert_eq!(answers, vec![int_tuple(&[3, 3])]);
    }

    #[test]
    fn negation_is_rejected() {
        let db = chain_db(3);
        let p: Program = "a(X) :- e(X, Y), !b(X). b(X) :- e(X, X).".parse().unwrap();
        assert!(TopDown::new(&db, &p).is_err());
    }

    #[test]
    fn ground_goal() {
        let db = chain_db(6);
        let (answers, _) = query_topdown(&db, &tc(), &parse_atom("t(1, 4)").unwrap()).unwrap();
        assert_eq!(answers, vec![int_tuple(&[1, 4])]);
        let (answers, _) = query_topdown(&db, &tc(), &parse_atom("t(4, 1)").unwrap()).unwrap();
        assert!(answers.is_empty());
    }
}

#[cfg(test)]
mod builtin_tests {
    use super::*;
    use semrec_datalog::parser::parse_atom;
    use semrec_engine::database::int_tuple;

    #[test]
    fn arithmetic_in_topdown() {
        let mut db = Database::new();
        for i in 0..4 {
            db.insert("e", int_tuple(&[i, i + 1]));
        }
        let p: Program = "
            dist(X, Y, 1) :- e(X, Y).
            dist(X, Y, N) :- dist(X, Z, M), e(Z, Y), plus(M, 1, N).
        "
        .parse()
        .unwrap();
        let (answers, _) = query_topdown(&db, &p, &parse_atom("dist(0, Y, N)").unwrap()).unwrap();
        assert!(answers.contains(&int_tuple(&[0, 4, 4])));
        assert_eq!(answers.len(), 4);
    }
}
