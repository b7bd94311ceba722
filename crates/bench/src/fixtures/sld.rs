//! Depth-bounded SLD resolution (Prolog-style, no tabling).
//!
//! This is the 1995-era evaluation model the paper's pruning argument
//! actually targets: a tuple-at-a-time prover that *speculatively*
//! explores rule expansions. Unlike the tabled engine
//! ([`super::topdown`]), repeated subgoals are re-proved and recursive
//! expansion is only stopped by the depth bound — so a residue pushed into
//! the program (e.g. a `Ya > 50` guard on the committed chain) cuts whole
//! search subtrees *before* they touch the database.
//!
//! Literal selection is leftmost-atom, except that ground comparisons are
//! evaluated eagerly the moment their operands are bound — without this,
//! guards behind recursive subgoals would never fire early and the
//! comparison literals the optimizer introduces would be useless to a
//! top-down prover.
//!
//! On cyclic data the depth bound truncates the search; the result then
//! reports [`Completeness::DepthCutoff`] and the answer set may be
//! incomplete. (That is faithful to the model: Prolog loops, we cut.)

use semrec_datalog::atom::{Atom, Pred};
use semrec_datalog::literal::Literal;
use semrec_datalog::program::Program;
use semrec_datalog::subst::Subst;
use semrec_datalog::symbol::Symbol;
use semrec_datalog::term::{Term, Value};
use semrec_engine::database::Database;
use semrec_engine::error::EngineError;
use semrec_engine::relation::Tuple;
use std::collections::BTreeSet;
use std::fmt;

/// Work counters for an SLD run.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct SldStats {
    /// Rule expansions attempted (successful head unifications).
    pub expansions: u64,
    /// EDB fact matches attempted.
    pub fact_probes: u64,
    /// Comparison evaluations.
    pub cmp_evals: u64,
    /// Branches cut by the depth bound.
    pub depth_cuts: u64,
}

impl fmt::Display for SldStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "expansions={} fact_probes={} cmps={} depth_cuts={}",
            self.expansions, self.fact_probes, self.cmp_evals, self.depth_cuts
        )
    }
}

/// Whether the search space was fully explored.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Completeness {
    /// Every branch terminated naturally: the answers are complete.
    Complete,
    /// Some branch hit the depth bound: answers may be missing.
    DepthCutoff,
}

/// Configuration for [`query_sld`].
#[derive(Clone, Copy, Debug)]
pub struct SldConfig {
    /// Maximum IDB expansion depth per branch.
    pub max_depth: usize,
    /// Hard budget on total expansions (guards against exponential blowup).
    pub max_expansions: u64,
}

impl Default for SldConfig {
    fn default() -> Self {
        SldConfig {
            max_depth: 24,
            max_expansions: 5_000_000,
        }
    }
}

struct Sld<'db> {
    db: &'db Database,
    program: Program,
    idb: BTreeSet<Pred>,
    config: SldConfig,
    stats: SldStats,
    cutoff: bool,
    budget_exhausted: bool,
    fresh: u64,
    answers: BTreeSet<Tuple>,
}

/// Runs a depth-bounded SLD query. Returns the (sorted, deduplicated)
/// answers, the work counters, and whether the search was complete.
pub fn query_sld(
    db: &Database,
    program: &Program,
    goal: &Atom,
    config: SldConfig,
) -> Result<(Vec<Tuple>, SldStats, Completeness), EngineError> {
    if program
        .rules
        .iter()
        .any(|r| r.body.iter().any(|l| l.as_neg().is_some()))
    {
        return Err(EngineError::Invalid(semrec_datalog::Error::NotStratified(
            "the SLD engine does not support negation".into(),
        )));
    }
    program.arities().map_err(EngineError::ArityMismatch)?;
    let mut sld = Sld {
        db,
        program: program.clone(),
        idb: program.idb_preds(),
        config,
        stats: SldStats::default(),
        cutoff: false,
        budget_exhausted: false,
        fresh: 0,
        answers: BTreeSet::new(),
    };
    let goal_vars: Vec<Symbol> = {
        // The answer tuple is the goal's arguments under the final bindings.
        let mut seen = BTreeSet::new();
        goal.args
            .iter()
            .filter_map(|t| t.as_var())
            .filter(|v| seen.insert(*v))
            .collect()
    };
    let _ = goal_vars; // answers are read off the instantiated goal atom
    sld.prove(&[Literal::Atom(goal.clone())], &Subst::new(), goal, 0);
    let completeness = if sld.cutoff || sld.budget_exhausted {
        Completeness::DepthCutoff
    } else {
        Completeness::Complete
    };
    let answers: Vec<Tuple> = sld.answers.into_iter().collect();
    Ok((answers, sld.stats, completeness))
}

impl<'db> Sld<'db> {
    fn prove(&mut self, goals: &[Literal], theta: &Subst, root: &Atom, depth: usize) {
        if self.budget_exhausted {
            return;
        }
        if goals.is_empty() {
            let ground = theta.apply_atom(root);
            if let Some(t) = ground
                .args
                .iter()
                .map(|t| t.as_const())
                .collect::<Option<Tuple>>()
            {
                self.answers.insert(t);
            }
            return;
        }
        // Eager ground comparisons anywhere in the conjunction.
        for (i, lit) in goals.iter().enumerate() {
            if let Literal::Cmp(c) = lit {
                let g = theta.apply_cmp(c);
                if let Some(truth) = g.eval_ground() {
                    self.stats.cmp_evals += 1;
                    if truth {
                        let rest = without(goals, i);
                        self.prove(&rest, theta, root, depth);
                    }
                    return;
                }
            }
        }
        // Leftmost atom.
        let Some((i, Literal::Atom(a))) = goals
            .iter()
            .enumerate()
            .find(|(_, l)| matches!(l, Literal::Atom(_)))
        else {
            // Only non-ground comparisons remain: flounder (no answers down
            // this branch).
            return;
        };
        let atom = theta.apply_atom(a);
        let rest = without(goals, i);

        // Arithmetic builtins compute instead of matching facts.
        if let Some(op) = semrec_engine::builtins::BuiltinOp::of(atom.pred) {
            if atom.arity() == semrec_engine::builtins::BuiltinOp::ARITY {
                self.stats.cmp_evals += 1;
                let vals: Vec<Option<semrec_datalog::term::Value>> =
                    atom.args.iter().map(|t| t.as_const()).collect();
                let bound = vals.iter().filter(|v| v.is_some()).count();
                if bound == 3 {
                    if op.check(vals[0].unwrap(), vals[1].unwrap(), vals[2].unwrap()) {
                        self.prove(&rest, theta, root, depth);
                    }
                } else if bound == 2 {
                    let pos = vals.iter().position(Option::is_none).unwrap();
                    if let Some(v) = op.solve([vals[0], vals[1], vals[2]]) {
                        let Term::Var(x) = atom.args[pos] else {
                            unreachable!()
                        };
                        let mut t2 = theta.clone();
                        t2.insert(x, Term::Const(v));
                        self.prove(&rest, &t2, root, depth);
                    }
                } else if !rest.is_empty() {
                    // Defer: move the builtin behind the rest.
                    let mut deferred = rest.clone();
                    deferred.push(Literal::Atom(a.clone()));
                    self.prove(&deferred, theta, root, depth);
                }
                return;
            }
        }
        if !self.idb.contains(&atom.pred) {
            // EDB: match against facts.
            if let Some(rel) = self.db.get(atom.pred) {
                for row in rel.tuples() {
                    self.stats.fact_probes += 1;
                    let mut t2 = theta.clone();
                    if bind_row(&mut t2, &atom, &row) {
                        self.prove(&rest, &t2, root, depth);
                        if self.budget_exhausted {
                            return;
                        }
                    }
                }
            }
            return;
        }
        // IDB: expand rules, one level deeper.
        if depth >= self.config.max_depth {
            self.stats.depth_cuts += 1;
            self.cutoff = true;
            return;
        }
        for ri in self.program.rules_for(atom.pred) {
            let rule = self.program.rules[ri].clone();
            let renamed = self.freshen(&rule);
            let Some(mgu) = semrec_datalog::unify::unify_atoms(&renamed.head, &atom) else {
                continue;
            };
            self.stats.expansions += 1;
            if self.stats.expansions >= self.config.max_expansions {
                self.budget_exhausted = true;
                return;
            }
            let mut next: Vec<Literal> =
                renamed.body.iter().map(|l| mgu.apply_literal(l)).collect();
            for l in &rest {
                next.push(mgu.apply_literal(l));
            }
            let t2 = theta.compose(&mgu);
            self.prove(&next, &t2, root, depth + 1);
            if self.budget_exhausted {
                return;
            }
        }
    }

    fn freshen(&mut self, rule: &semrec_datalog::rule::Rule) -> semrec_datalog::rule::Rule {
        self.fresh += 1;
        let tag = self.fresh;
        let sub: Subst = rule
            .vars()
            .into_iter()
            .map(|v| (v, Term::Var(Symbol::intern(&format!("{v}`s{tag}")))))
            .collect();
        sub.apply_rule(rule)
    }
}

fn without(goals: &[Literal], i: usize) -> Vec<Literal> {
    goals
        .iter()
        .enumerate()
        .filter(|(j, _)| *j != i)
        .map(|(_, l)| l.clone())
        .collect()
}

fn bind_row(theta: &mut Subst, atom: &Atom, row: &[Value]) -> bool {
    for (arg, v) in atom.args.iter().zip(row) {
        match theta.apply_term(*arg) {
            Term::Const(c) => {
                if c != *v {
                    return false;
                }
            }
            Term::Var(x) => {
                theta.insert(x, Term::Const(*v));
            }
        }
    }
    true
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
    fn complete_on_acyclic_data() {
        let db = chain_db(8);
        let (answers, _, compl) = query_sld(
            &db,
            &tc(),
            &parse_atom("t(X, Y)").unwrap(),
            SldConfig::default(),
        )
        .unwrap();
        assert_eq!(compl, Completeness::Complete);
        let full = evaluate(&db, &tc(), Strategy::SemiNaive).unwrap();
        assert_eq!(answers, full.relation("t").unwrap().sorted_tuples());
    }

    #[test]
    fn ground_goal_and_failure() {
        let db = chain_db(6);
        let (answers, _, _) = query_sld(
            &db,
            &tc(),
            &parse_atom("t(1, 4)").unwrap(),
            SldConfig::default(),
        )
        .unwrap();
        assert_eq!(answers, vec![int_tuple(&[1, 4])]);
        let (answers, _, _) = query_sld(
            &db,
            &tc(),
            &parse_atom("t(4, 1)").unwrap(),
            SldConfig::default(),
        )
        .unwrap();
        assert!(answers.is_empty());
    }

    #[test]
    fn cyclic_data_reports_cutoff() {
        let mut db = Database::new();
        for i in 0..4 {
            db.insert("e", int_tuple(&[i, (i + 1) % 4]));
        }
        let (answers, stats, compl) = query_sld(
            &db,
            &tc(),
            &parse_atom("t(0, Y)").unwrap(),
            SldConfig {
                max_depth: 12,
                ..SldConfig::default()
            },
        )
        .unwrap();
        assert_eq!(compl, Completeness::DepthCutoff);
        assert!(stats.depth_cuts > 0);
        // All four targets are found well before the cutoff.
        assert_eq!(answers.len(), 4);
    }

    #[test]
    fn eager_ground_comparisons_prune_early() {
        // A guard that becomes ground at rule entry must cut before the
        // recursive subgoal explodes.
        let db = chain_db(10);
        let p: Program = "
            g(X, Y, C) :- e(X, Y), C > 5.
            g(X, Y, C) :- e(X, Z), g(Z, Y, C).
        "
        .parse()
        .unwrap();
        let (hits, cheap, _) = query_sld(
            &db,
            &p,
            &parse_atom("g(0, Y, 1)").unwrap(),
            SldConfig::default(),
        )
        .unwrap();
        assert!(hits.is_empty());
        // Without eager comparison evaluation this would be ~10 levels of
        // expansion; the guard only lives in the exit rule here, so the
        // recursion still walks — compare against a program with the guard
        // in the recursive rule as well.
        let p2: Program = "
            g(X, Y, C) :- e(X, Y), C > 5.
            g(X, Y, C) :- C > 5, e(X, Z), g(Z, Y, C).
        "
        .parse()
        .unwrap();
        let (hits2, guarded, _) = query_sld(
            &db,
            &p2,
            &parse_atom("g(0, Y, 1)").unwrap(),
            SldConfig::default(),
        )
        .unwrap();
        assert!(hits2.is_empty());
        assert!(
            guarded.expansions < cheap.expansions,
            "guarded {guarded} vs unguarded {cheap}"
        );
    }

    #[test]
    fn expansion_budget_is_enforced() {
        let mut db = Database::new();
        for i in 0..6 {
            for j in 0..6 {
                if i != j {
                    db.insert("e", int_tuple(&[i, j]));
                }
            }
        }
        let (_, stats, compl) = query_sld(
            &db,
            &tc(),
            &parse_atom("t(X, Y)").unwrap(),
            SldConfig {
                max_depth: 30,
                max_expansions: 2_000,
            },
        )
        .unwrap();
        assert_eq!(compl, Completeness::DepthCutoff);
        assert!(stats.expansions <= 2_000);
    }

    #[test]
    fn negation_is_rejected() {
        let db = chain_db(2);
        let p: Program = "a(X) :- e(X, Y), !b(X). b(X) :- e(X, X).".parse().unwrap();
        assert!(query_sld(&db, &p, &parse_atom("a(X)").unwrap(), SldConfig::default()).is_err());
    }
}

#[cfg(test)]
mod builtin_tests {
    use super::*;
    use semrec_datalog::parser::parse_atom;
    use semrec_engine::database::int_tuple;

    #[test]
    fn arithmetic_in_sld() {
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
        let (answers, _, compl) = query_sld(
            &db,
            &p,
            &parse_atom("dist(0, Y, N)").unwrap(),
            SldConfig::default(),
        )
        .unwrap();
        // The left-recursive expansion of the unbound dist subgoal hits
        // the depth bound (SLD is structurally, not data-, bounded) — but
        // all real answers are found well before it.
        assert_eq!(compl, Completeness::DepthCutoff);
        assert!(answers.contains(&int_tuple(&[0, 4, 4])));
        assert_eq!(answers.len(), 4);
    }
}
