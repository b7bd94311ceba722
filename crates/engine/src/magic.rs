//! Magic-sets rewriting for goal-directed bottom-up evaluation.
//!
//! The paper positions its transformation as the semantic analogue of magic
//! sets ("just as the magic sets method pushes the goal selectivity of
//! queries inside recursion, our approach tries to push the semantics (in
//! ICs) inside the recursion", §6). Experiment E7 composes the two: a
//! semantically optimized program can be magic-rewritten afterwards, since
//! both are source-to-source transformations.
//!
//! This is the classic generalized-magic-sets construction with a
//! left-to-right sideways-information-passing strategy over the source
//! literal order. Comparisons participate in binding propagation (an `=`
//! with one bound side binds the other); comparisons whose variables are
//! not bound at a magic-rule cut point are dropped from the magic rule
//! (sound: magic predicates may over-approximate relevance).

use crate::database::Database;
use crate::error::EngineError;
use crate::eval::{answer_goal, evaluate, EvalResult, Strategy};
use crate::relation::Tuple;
use semrec_datalog::atom::{Atom, Pred};
use semrec_datalog::literal::{CmpOp, Literal};
use semrec_datalog::program::Program;
use semrec_datalog::rule::Rule;
use semrec_datalog::symbol::Symbol;
use semrec_datalog::term::Term;
use std::collections::{BTreeSet, VecDeque};

/// A binding-pattern adornment: one entry per argument position.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Adornment(pub Vec<bool>);

impl Adornment {
    /// Renders as the usual `bf…` string.
    pub fn as_string(&self) -> String {
        self.0.iter().map(|&b| if b { 'b' } else { 'f' }).collect()
    }

    /// The adornment of `atom` given a set of bound variables.
    pub fn of(atom: &Atom, bound: &BTreeSet<Symbol>) -> Adornment {
        Adornment(
            atom.args
                .iter()
                .map(|t| match t {
                    Term::Const(_) => true,
                    Term::Var(v) => bound.contains(v),
                })
                .collect(),
        )
    }

    /// True if no argument is bound.
    pub fn all_free(&self) -> bool {
        self.0.iter().all(|&b| !b)
    }
}

/// The output of the rewriting.
#[derive(Clone, Debug)]
pub struct MagicProgram {
    /// The rewritten program (adorned rules + magic rules + seed fact).
    pub program: Program,
    /// The adorned predicate holding the query's answers.
    pub answer_pred: Pred,
}

fn adorned_pred(p: Pred, a: &Adornment) -> Pred {
    Pred::new(&format!("{}@{}", p.name(), a.as_string()))
}

fn magic_pred(p: Pred, a: &Adornment) -> Pred {
    Pred::new(&format!("m@{}@{}", p.name(), a.as_string()))
}

/// The magic atom for `atom` under adornment `a`: the bound-position
/// arguments only.
fn magic_atom(atom: &Atom, a: &Adornment) -> Atom {
    let args: Vec<Term> = atom
        .args
        .iter()
        .zip(&a.0)
        .filter(|(_, &b)| b)
        .map(|(&t, _)| t)
        .collect();
    Atom::new(magic_pred(atom.pred, a), args)
}

/// Rewrites `program` for the goal atom `goal` (constants mark bound
/// positions). Returns the rewritten program; evaluate it and read
/// [`MagicProgram::answer_pred`].
pub fn magic_rewrite(program: &Program, goal: &Atom) -> Result<MagicProgram, EngineError> {
    let idb = program.idb_preds();
    if program
        .rules
        .iter()
        .any(|r| r.body.iter().any(|l| l.as_neg().is_some()))
    {
        return Err(EngineError::ArityMismatch(
            "magic-sets rewriting does not support negated subgoals".into(),
        ));
    }
    if !idb.contains(&goal.pred) {
        return Err(EngineError::ArityMismatch(format!(
            "query predicate {} is not defined by the program",
            goal.pred
        )));
    }

    let goal_adornment = Adornment(
        goal.args
            .iter()
            .map(|t| matches!(t, Term::Const(_)))
            .collect(),
    );

    let mut out_rules: Vec<Rule> = Vec::new();

    // Seed: magic fact for the query's bound constants. An all-free goal
    // still gets a zero-arity magic seed so adorned rules are guarded
    // uniformly.
    let seed_args: Vec<Term> = goal
        .args
        .iter()
        .zip(&goal_adornment.0)
        .filter(|(_, &b)| b)
        .map(|(&t, _)| t)
        .collect();
    out_rules.push(Rule::fact(Atom::new(
        magic_pred(goal.pred, &goal_adornment),
        seed_args,
    )));

    let mut seen: BTreeSet<(Pred, Adornment)> = BTreeSet::new();
    let mut queue: VecDeque<(Pred, Adornment)> = VecDeque::new();
    seen.insert((goal.pred, goal_adornment.clone()));
    queue.push_back((goal.pred, goal_adornment.clone()));

    while let Some((p, adornment)) = queue.pop_front() {
        for ri in program.rules_for(p) {
            let rule = &program.rules[ri];
            let mut bound: BTreeSet<Symbol> = rule
                .head
                .args
                .iter()
                .zip(&adornment.0)
                .filter(|(_, &b)| b)
                .filter_map(|(t, _)| t.as_var())
                .collect();

            let guard = magic_atom(&rule.head, &adornment);
            let mut new_body: Vec<Literal> = vec![Literal::Atom(guard)];

            for lit in &sips_order(rule, &bound) {
                match lit {
                    Literal::Neg(_) => unreachable!("negation rejected upfront"),
                    Literal::Cmp(c) => {
                        new_body.push(lit.clone());
                        // `=` propagates bindings.
                        if c.op == CmpOp::Eq {
                            let lb = match c.lhs {
                                Term::Const(_) => true,
                                Term::Var(v) => bound.contains(&v),
                            };
                            let rb = match c.rhs {
                                Term::Const(_) => true,
                                Term::Var(v) => bound.contains(&v),
                            };
                            if lb {
                                if let Term::Var(v) = c.rhs {
                                    bound.insert(v);
                                }
                            }
                            if rb {
                                if let Term::Var(v) = c.lhs {
                                    bound.insert(v);
                                }
                            }
                        }
                    }
                    Literal::Atom(a) if !idb.contains(&a.pred) => {
                        new_body.push(lit.clone());
                        bound.extend(a.vars());
                    }
                    Literal::Atom(a) => {
                        let sub_adornment = Adornment::of(a, &bound);
                        // Magic rule: relevance of the subgoal's bindings.
                        let m_head = magic_atom(a, &sub_adornment);
                        let prefix = safe_prefix(&new_body, &bound);
                        out_rules.push(Rule::new(m_head, prefix));
                        if seen.insert((a.pred, sub_adornment.clone())) {
                            queue.push_back((a.pred, sub_adornment.clone()));
                        }
                        // Replace the subgoal by its adorned version.
                        let mut renamed = a.clone();
                        renamed.pred = adorned_pred(a.pred, &sub_adornment);
                        new_body.push(Literal::Atom(renamed));
                        bound.extend(a.vars());
                    }
                }
            }

            let mut new_head = rule.head.clone();
            new_head.pred = adorned_pred(p, &adornment);
            out_rules.push(Rule::new(new_head, new_body));
        }
    }

    Ok(MagicProgram {
        program: Program::new(out_rules),
        answer_pred: adorned_pred(goal.pred, &goal_adornment),
    })
}

/// Bound-first sideways information passing: orders a rule's body so that
/// comparisons run as soon as their variables are bound and the next atom
/// to process is the one with the most bound argument positions (ties by
/// source order). This is what makes binding propagation effective for
/// rules whose recursive subgoal precedes the binding-producing atoms
/// (e.g. left-linear `anc` queried with the ancestor bound).
fn sips_order(rule: &Rule, head_bound: &BTreeSet<Symbol>) -> Vec<Literal> {
    let mut bound = head_bound.clone();
    let mut remaining: Vec<usize> = (0..rule.body.len()).collect();
    let mut out = Vec::with_capacity(rule.body.len());
    while !remaining.is_empty() {
        // Drain runnable comparisons first.
        let mut progressed = true;
        while progressed {
            progressed = false;
            remaining.retain(|&i| {
                let Literal::Cmp(c) = &rule.body[i] else {
                    return true;
                };
                let lb = match c.lhs {
                    Term::Const(_) => true,
                    Term::Var(v) => bound.contains(&v),
                };
                let rb = match c.rhs {
                    Term::Const(_) => true,
                    Term::Var(v) => bound.contains(&v),
                };
                let runnable = (lb && rb) || (c.op == CmpOp::Eq && (lb || rb));
                if runnable {
                    if let Term::Var(v) = c.lhs {
                        bound.insert(v);
                    }
                    if let Term::Var(v) = c.rhs {
                        bound.insert(v);
                    }
                    out.push(rule.body[i].clone());
                    progressed = true;
                    false
                } else {
                    true
                }
            });
        }
        // Pick the atom with the most bound argument positions.
        let best = remaining
            .iter()
            .filter(|&&i| rule.body[i].as_atom().is_some())
            .max_by_key(|&&i| {
                let a = rule.body[i].as_atom().unwrap();
                let n = a
                    .args
                    .iter()
                    .filter(|t| match t {
                        Term::Const(_) => true,
                        Term::Var(v) => bound.contains(v),
                    })
                    .count();
                (n, usize::MAX - i)
            })
            .copied();
        match best {
            Some(i) => {
                let a = rule.body[i].as_atom().unwrap();
                bound.extend(a.vars());
                out.push(rule.body[i].clone());
                remaining.retain(|&j| j != i);
            }
            None => {
                // Only unrunnable comparisons remain; emit them verbatim.
                for &i in &remaining {
                    out.push(rule.body[i].clone());
                }
                break;
            }
        }
    }
    out
}

/// Filters a magic-rule body prefix down to literals whose variables are
/// all bound (atoms always qualify — their scan binds their variables;
/// comparisons with unbound variables are dropped).
fn safe_prefix(body: &[Literal], _bound: &BTreeSet<Symbol>) -> Vec<Literal> {
    let mut have: BTreeSet<Symbol> = BTreeSet::new();
    let mut out = Vec::new();
    for lit in body {
        match lit {
            Literal::Neg(_) => unreachable!("negation rejected upfront"),
            Literal::Atom(a) => {
                have.extend(a.vars());
                out.push(lit.clone());
            }
            Literal::Cmp(c) => {
                let ok = c.vars().all(|v| have.contains(&v));
                if ok {
                    out.push(lit.clone());
                } else if c.op == CmpOp::Eq {
                    // Keep binding equalities (one side bound).
                    let lb = match c.lhs {
                        Term::Const(_) => true,
                        Term::Var(v) => have.contains(&v),
                    };
                    let rb = match c.rhs {
                        Term::Const(_) => true,
                        Term::Var(v) => have.contains(&v),
                    };
                    if lb || rb {
                        if let Term::Var(v) = c.lhs {
                            have.insert(v);
                        }
                        if let Term::Var(v) = c.rhs {
                            have.insert(v);
                        }
                        out.push(lit.clone());
                    }
                }
            }
        }
    }
    out
}

/// Rewrites, evaluates, and extracts the answers to `goal`.
pub fn evaluate_query(
    db: &Database,
    program: &Program,
    goal: &Atom,
) -> Result<(Vec<Tuple>, EvalResult), EngineError> {
    let magic = magic_rewrite(program, goal)?;
    let result = evaluate(db, &magic.program, Strategy::SemiNaive)?;
    let mut answers: Vec<Tuple> = result
        .relation(magic.answer_pred)
        .map(|rel| answer_goal(&rel.snapshot(), goal))
        .unwrap_or_default();
    answers.sort();
    answers.dedup();
    Ok((answers, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::int_tuple;
    use semrec_datalog::parser::parse_atom;

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
    fn bound_first_argument() {
        let db = chain_db(20);
        // Binding the start to a late chain node makes only the suffix
        // relevant; magic evaluation must materialize far fewer tuples than
        // the full closure (20·21/2 = 210).
        let goal = parse_atom("t(15, Y)").unwrap();
        let (answers, res) = evaluate_query(&db, &tc(), &goal).unwrap();
        assert_eq!(answers.len(), 5);
        let full = evaluate(&db, &tc(), Strategy::SemiNaive).unwrap();
        let magic_tuples: usize = res.idb.values().map(|r| r.len()).sum();
        assert!(magic_tuples < full.relation("t").unwrap().len() / 4);
    }

    #[test]
    fn fully_bound_goal() {
        let db = chain_db(10);
        let goal = parse_atom("t(2, 7)").unwrap();
        let (answers, _) = evaluate_query(&db, &tc(), &goal).unwrap();
        assert_eq!(answers, vec![int_tuple(&[2, 7])]);
        let goal = parse_atom("t(7, 2)").unwrap();
        let (answers, _) = evaluate_query(&db, &tc(), &goal).unwrap();
        assert!(answers.is_empty());
    }

    #[test]
    fn all_free_goal_equals_full_evaluation() {
        let db = chain_db(8);
        let goal = parse_atom("t(X, Y)").unwrap();
        let (mut answers, _) = evaluate_query(&db, &tc(), &goal).unwrap();
        answers.sort();
        let full = evaluate(&db, &tc(), Strategy::SemiNaive).unwrap();
        assert_eq!(answers, full.relation("t").unwrap().sorted_tuples());
    }

    #[test]
    fn right_linear_bound_head() {
        let db = chain_db(12);
        let p: Program = "t(X,Y) :- e(X,Y). t(X,Y) :- t(X,Z), e(Z,Y)."
            .parse()
            .unwrap();
        let goal = parse_atom("t(3, Y)").unwrap();
        let (answers, _) = evaluate_query(&db, &p, &goal).unwrap();
        assert_eq!(answers.len(), 9);
    }

    #[test]
    fn comparisons_pass_bindings() {
        let db = chain_db(10);
        let p: Program =
            "big(X, Y) :- t(X, Y), Y >= 8. t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), t(Z,Y)."
                .parse()
                .unwrap();
        let goal = parse_atom("big(0, Y)").unwrap();
        let (answers, _) = evaluate_query(&db, &p, &goal).unwrap();
        assert_eq!(answers.len(), 3); // 8, 9, 10
    }

    #[test]
    fn non_idb_goal_is_rejected() {
        let db = chain_db(3);
        let goal = parse_atom("e(0, Y)").unwrap();
        assert!(evaluate_query(&db, &tc(), &goal).is_err());
    }

    #[test]
    fn bound_first_sips_helps_left_linear_queries() {
        // Left-linear closure queried with the *second* argument bound:
        // left-to-right SIPS would adorn the recursive subgoal ff and
        // explore everything; bound-first processes e(Z, Y) first and
        // propagates the binding into the recursion.
        let db = chain_db(40);
        let p: Program = "t(X,Y) :- e(X,Y). t(X,Y) :- t(X,Z), e(Z,Y)."
            .parse()
            .unwrap();
        let goal = parse_atom("t(X, 5)").unwrap();
        let (answers, res) = evaluate_query(&db, &p, &goal).unwrap();
        assert_eq!(answers.len(), 5);
        let full = evaluate(&db, &p, Strategy::SemiNaive).unwrap();
        let magic_tuples: usize = res.idb.values().map(|r| r.len()).sum();
        assert!(
            magic_tuples < full.relation("t").unwrap().len() / 10,
            "magic explored {magic_tuples} tuples"
        );
    }

    #[test]
    fn repeated_var_goal_filters() {
        let mut db = chain_db(5);
        db.insert("e", int_tuple(&[3, 3]));
        let goal = parse_atom("t(X, X)").unwrap();
        let (answers, _) = evaluate_query(&db, &tc(), &goal).unwrap();
        assert_eq!(answers, vec![int_tuple(&[3, 3])]);
    }
}
