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
//!
//! [`factor_rewrite`] is the second goal-directed rewrite: argument
//! reduction by factoring (Naughton, Ramakrishnan, Sagiv & Ullman, VLDB
//! 1989) for the linear recursions whose magic set is the whole closure
//! — right-linear queried `bf`, left-linear queried `fb`.

use crate::database::Database;
use crate::error::EngineError;
use crate::eval::{evaluate, scan_goal, EvalResult, Strategy};
use crate::relation::Tuple;
use semrec_datalog::analysis::{classify_linear, unsafe_detail};
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

    /// The goal's adornment: its constants are the bound positions.
    pub fn of_goal(goal: &Atom) -> Adornment {
        Adornment(goal.args.iter().map(|t| t.as_const().is_some()).collect())
    }

    /// The arguments at the bound positions.
    fn bound_args(&self, args: &[Term]) -> Vec<Term> {
        args.iter()
            .zip(&self.0)
            .filter(|(_, &b)| b)
            .map(|(&t, _)| t)
            .collect()
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
    Atom::new(magic_pred(atom.pred, a), a.bound_args(&atom.args))
}

/// Rewrites `program` for the goal atom `goal` (constants mark bound
/// positions). Returns the rewritten program; evaluate it and read
/// [`MagicProgram::answer_pred`]. `program` is one
/// `semrec_datalog::analysis::check` accepts: adorning renames every
/// head, so a rule defining a builtin would shadow its arithmetic.
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

    let goal_adornment = Adornment::of_goal(goal);

    // Seed: magic fact for the query's bound constants. An all-free goal
    // still gets a zero-arity magic seed so adorned rules are guarded
    // uniformly.
    let mut out_rules: Vec<Rule> = vec![Rule::fact(magic_atom(goal, &goal_adornment))];

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

/// Rewrites `program` for `goal` by factoring, or `None` where that is
/// not sound. Evaluate the result and read [`MagicProgram::answer_pred`],
/// as for [`magic_rewrite`].
///
/// With `p` the goal's predicate, `B` its bound (constant) positions and
/// `F` its free ones, factoring applies when
/// - the goal has both bound and free positions;
/// - `p` is recursive under [`classify_linear`] (over the rules `p`
///   depends on);
/// - every head of `p` is distinct variables;
/// - in every recursive rule, each free position `i` carries the head's
///   variable unchanged into the recursive atom at `i`, and that variable
///   occurs nowhere else in the rule.
///
/// A recursive step then relates bound arguments only and passes the free
/// ones through, so `p(c̄, ȳ)` holds iff an exit rule derives `p(ā, ȳ)`
/// for some `ā` the steps reach from `c̄` (DESIGN.md §15.3 has the
/// induction). The rewrite computes that reachable set as `m@p@<ad>` and
/// the answers from it:
///
/// ```text
/// m@p@<ad>(c̄).
/// m@p@<ad>(Z̄_B) :- m@p@<ad>(X̄_B), body.        one per recursive rule
/// p@<ad>(c̄, Ȳ)  :- m@p@<ad>(X̄_B), exit_body.   one per exit rule
/// ```
///
/// plus the rules of every lower predicate those rules read.
pub fn factor_rewrite(program: &Program, goal: &Atom) -> Option<MagicProgram> {
    let p = goal.pred;
    let adornment = Adornment::of_goal(goal);
    if adornment.all_free() || adornment.0.iter().all(|&b| b) {
        return None;
    }
    let mine = reads(program, [p]);
    let sub = Program::new(
        program
            .rules
            .iter()
            .filter(|r| mine.contains(&r.head.pred))
            .cloned()
            .collect(),
    );
    let info = classify_linear(&sub)
        .ok()?
        .into_iter()
        .find(|i| i.pred == p)?;
    if info.arity != goal.arity()
        || !info
            .all_rules()
            .iter()
            .all(|&i| distinct_vars(&sub.rules[i].head))
    {
        return None;
    }

    let m = magic_pred(p, &adornment);
    let guard = |head: &Atom| Literal::Atom(Atom::new(m, adornment.bound_args(&head.args)));
    let mut rules = vec![Rule::fact(magic_atom(goal, &adornment))];
    for &ri in &info.recursive_rules {
        let rule = &sub.rules[ri];
        let at = rule.positions_of(p)[0];
        let rec = rule.body[at].as_atom().expect("a recursive subgoal");
        let mut body = vec![guard(&rule.head)];
        body.extend(
            (rule.body.iter().enumerate())
                .filter(|&(j, _)| j != at)
                .map(|(_, l)| l.clone()),
        );
        let passed_through = adornment.0.iter().enumerate().all(|(i, &b)| {
            let x = rule.head.args[i];
            let v = x.as_var().expect("distinct variables");
            b || (rec.args[i] == x
                && rec.args.iter().filter(|&&t| t == x).count() == 1
                && body.iter().all(|l| !l.vars().contains(&v)))
        });
        let step = Rule::new(Atom::new(m, adornment.bound_args(&rec.args)), body);
        if !passed_through || unsafe_detail(&step).is_some() {
            return None;
        }
        rules.push(step);
    }
    let answer_pred = adorned_pred(p, &adornment);
    for &ri in &info.exit_rules {
        let rule = &sub.rules[ri];
        let args = (rule.head.args.iter().zip(&goal.args).zip(&adornment.0))
            .map(|((&h, &g), &b)| if b { g } else { h })
            .collect();
        let mut body = vec![guard(&rule.head)];
        body.extend(rule.body.iter().cloned());
        rules.push(Rule::new(Atom::new(answer_pred, args), body));
    }

    let lower = reads(
        &sub,
        rules
            .iter()
            .flat_map(|r| r.body.iter().filter_map(read_pred))
            .filter(|&q| q != m),
    );
    if lower.contains(&p) {
        return None;
    }
    rules.extend(
        (sub.rules.iter())
            .filter(|r| lower.contains(&r.head.pred))
            .cloned(),
    );
    Some(MagicProgram {
        program: Program::new(rules),
        answer_pred,
    })
}

/// The predicate a body literal reads, positively or under negation.
fn read_pred(l: &Literal) -> Option<Pred> {
    l.as_atom().or(l.as_neg()).map(|a| a.pred)
}

/// `roots` and every predicate the rules for them read, transitively —
/// negated subgoals included, which `analysis::reachable_preds` skips.
fn reads(program: &Program, roots: impl IntoIterator<Item = Pred>) -> BTreeSet<Pred> {
    let mut seen: BTreeSet<Pred> = roots.into_iter().collect();
    loop {
        let before = seen.len();
        for r in &program.rules {
            if seen.contains(&r.head.pred) {
                seen.extend(r.body.iter().filter_map(read_pred));
            }
        }
        if seen.len() == before {
            return seen;
        }
    }
}

fn distinct_vars(atom: &Atom) -> bool {
    let mut seen = BTreeSet::new();
    atom.args
        .iter()
        .all(|t| t.as_var().is_some_and(|v| seen.insert(v)))
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
        .map(|rel| scan_goal(rel, goal))
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

    /// Answers to `goal` from the factored program, checked against the
    /// full fixpoint filtered by the goal; returns the rows the factored
    /// evaluation inserted.
    fn factored_agrees(db: &Database, p: &Program, goal: &str) -> u64 {
        let goal = parse_atom(goal).unwrap();
        let f = factor_rewrite(p, &goal).expect("factoring applies");
        let res = evaluate(db, &f.program, Strategy::SemiNaive).unwrap();
        let mut got = scan_goal(res.relation(f.answer_pred).unwrap(), &goal);
        got.sort();
        let full = evaluate(db, p, Strategy::SemiNaive).unwrap();
        let mut want = scan_goal(full.relation(goal.pred).unwrap(), &goal);
        want.sort();
        assert_eq!(got, want, "{goal} over\n{}", f.program);
        res.stats.inserted
    }

    fn refused(src: &str, goal: &str) -> bool {
        let p: Program = src.parse().unwrap();
        factor_rewrite(&p, &parse_atom(goal).unwrap()).is_none()
    }

    #[test]
    fn factoring_applies_to_right_linear_bound_first() {
        let db = chain_db(30);
        // The magic set of `t(3, Y)` is every node after 3, and so is
        // `t^bf`'s: 27·28/2 rows. Factoring keeps two unary sets instead.
        let rows = factored_agrees(&db, &tc(), "t(3, Y)");
        assert!(rows <= 2 * 28 + 1, "{rows} rows");
        let f = factor_rewrite(&tc(), &parse_atom("t(3, Y)").unwrap()).unwrap();
        assert_eq!(
            f.program.to_string(),
            "m@t@bf(3).\n\
             m@t@bf(Z) :- m@t@bf(X), e(X, Z).\n\
             t@bf(3, Y) :- m@t@bf(X), e(X, Y).\n"
        );
        assert_eq!(f.answer_pred, Pred::new("t@bf"));
        // An absent constant answers nothing.
        factored_agrees(&db, &tc(), "t(99, Y)");
    }

    #[test]
    fn factoring_applies_to_left_linear_bound_last() {
        let p: Program = "t(X,Y) :- e(X,Y). t(X,Y) :- t(X,Z), e(Z,Y)."
            .parse()
            .unwrap();
        let rows = factored_agrees(&chain_db(30), &p, "t(X, 20)");
        assert!(rows <= 2 * 20 + 1, "{rows} rows");
    }

    #[test]
    fn factoring_is_refused_where_unsound() {
        // Right-linear queried `fb`: the free first argument changes in
        // the recursion.
        let tc = "t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), t(Z,Y).";
        assert!(refused(tc, "t(X, 5)"));
        // The free variable is reused in the body.
        assert!(refused(
            "t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), f(Y), t(Z,Y).",
            "t(0, Y)"
        ));
        // A residue guard on the free variable.
        assert!(refused(
            "t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), t(Z,Y), Y > 3.",
            "t(0, Y)"
        ));
        // Nothing to factor: all free, all bound, non-recursive, EDB.
        assert!(refused(tc, "t(X, Y)"));
        assert!(refused(tc, "t(0, 5)"));
        assert!(refused("s(X, Y) :- e(X, Y).", "s(0, Y)"));
        assert!(refused(tc, "e(0, Y)"));
    }

    #[test]
    fn factoring_needs_distinct_head_variables() {
        // A constant in a free position of an exit head: the program as
        // written is refused, its rectified form (`Y = 0` in the body)
        // factors and answers the same.
        let src = "t(X, 0) :- root(X). t(X, Y) :- e(X, Z), t(Z, Y).";
        assert!(refused(src, "t(5, Y)"));
        let (rect, _) = semrec_datalog::analysis::rectify(&src.parse().unwrap());
        let mut db = chain_db(10);
        db.insert("root", int_tuple(&[8]));
        factored_agrees(&db, &rect, "t(5, Y)");
        factored_agrees(&db, &rect, "t(9, Y)");
    }

    #[test]
    fn factoring_takes_one_step_per_recursive_rule() {
        let p: Program = "t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), t(Z,Y). t(X,Y) :- f(X,Z), t(Z,Y)."
            .parse()
            .unwrap();
        let mut db = chain_db(12);
        db.insert("f", int_tuple(&[0, 20]));
        db.insert("e", int_tuple(&[20, 21]));
        db.insert("f", int_tuple(&[21, 5]));
        factored_agrees(&db, &p, "t(0, Y)");
        factored_agrees(&db, &p, "t(20, Y)");
    }

    #[test]
    fn factoring_keeps_the_lower_predicates_it_reads() {
        // The residue push leaves `@` auxiliaries (and negation below the
        // recursion is fine): their rules come along. The parser takes no
        // `@`, so `aux` is renamed the way the push names it.
        let mut p: Program = "reach(X, Y) :- edge(X, Y).
             reach(X, Y) :- edge(X, Z), aux(Z), reach(Z, Y).
             aux(Z) :- witness(Z, W), !blocked(Z).
             blocked(Z) :- ban(Z, Z)."
            .parse()
            .unwrap();
        let aux = |a: &mut Atom| {
            if a.pred == Pred::new("aux") {
                a.pred = Pred::new("reach@d1");
            }
        };
        for r in &mut p.rules {
            aux(&mut r.head);
            r.body.iter_mut().for_each(|l| {
                if let Literal::Atom(a) = l {
                    aux(a)
                }
            });
        }
        let mut db = Database::new();
        for i in 0..10 {
            db.insert("edge", int_tuple(&[i, i + 1]));
            db.insert("witness", int_tuple(&[i + 1, 0]));
        }
        db.insert("ban", int_tuple(&[6, 6]));
        let goal = parse_atom("reach(2, Y)").unwrap();
        let f = factor_rewrite(&p, &goal).unwrap();
        let heads: BTreeSet<Pred> = f.program.rules.iter().map(|r| r.head.pred).collect();
        assert!(heads.contains(&Pred::new("reach@d1")) && heads.contains(&Pred::new("blocked")));
        assert!(!heads.contains(&Pred::new("reach")));
        factored_agrees(&db, &p, "reach(2, Y)");
        factored_agrees(&db, &p, "reach(7, Y)");
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
