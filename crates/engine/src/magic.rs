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
//! bound-first sideways-information-passing strategy. One pass over each
//! rule orders its body, adorns its IDB subgoals and cuts their magic
//! rules: comparisons and builtins run as soon as their inputs are bound
//! (an `=` with one bound side binds the other, a builtin with two its
//! third), then the subgoal with the most bound arguments, so the body
//! walked so far is the magic rule's body; what never runs goes last.
//!
//! [`factor_rewrite`] is the second goal-directed rewrite: argument
//! reduction by factoring (Naughton, Ramakrishnan, Sagiv & Ullman, VLDB
//! 1989) for the linear recursions whose magic set is the whole closure
//! — right-linear queried `bf`, left-linear queried `fb`. Neither rewrite
//! judges its input: it reads the rules of a program `check` accepted, or
//! of one the system wrote from such a program.

use crate::database::Database;
use crate::error::EngineError;
use crate::eval::{evaluate, scan_goal, EvalResult, Strategy};
use crate::relation::Tuple;
use semrec_datalog::analysis::{is_builtin, unsafe_detail};
use semrec_datalog::atom::{Atom, Pred};
use semrec_datalog::literal::{CmpOp, Literal};
use semrec_datalog::program::Program;
use semrec_datalog::rule::Rule;
use semrec_datalog::symbol::Symbol;
use semrec_datalog::term::Term;
use std::cmp::Reverse;
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
        Adornment(atom.args.iter().map(|&t| is_bound(t, bound)).collect())
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

/// True for a constant or a variable in `bound`.
fn is_bound(t: Term, bound: &BTreeSet<Symbol>) -> bool {
    match t {
        Term::Const(_) => true,
        Term::Var(v) => bound.contains(&v),
    }
}

/// True when `l` computes rather than scans and runs with `bound` bound,
/// which it then extends: a builtin once two arguments are bound, a
/// comparison once both sides are, or an `=` once one side is, binding
/// the other.
fn runs(l: &Literal, bound: &mut BTreeSet<Symbol>) -> bool {
    let ready = match l {
        Literal::Cmp(c) => {
            let (lb, rb) = (is_bound(c.lhs, bound), is_bound(c.rhs, bound));
            (lb && rb) || (c.op == CmpOp::Eq && (lb || rb))
        }
        Literal::Atom(a) if is_builtin(a.pred) => {
            a.args.iter().filter(|&&t| is_bound(t, bound)).count() >= 2
        }
        _ => false,
    };
    if ready {
        bound.extend(l.var_iter());
    }
    ready
}

/// Rewrites `program` for the goal atom `goal` (constants mark bound
/// positions); `None` when a rule negates a subgoal or no rule defines
/// the goal's predicate. Evaluate the result and read
/// [`MagicProgram::answer_pred`]. `program` is one
/// `semrec_datalog::analysis::check` accepts: adorning renames every
/// head, so a rule defining a builtin would shadow its arithmetic.
pub fn magic_rewrite(program: &Program, goal: &Atom) -> Option<MagicProgram> {
    let idb = program.idb_preds();
    let negates = |r: &Rule| r.body.iter().any(|l| l.as_neg().is_some());
    if !idb.contains(&goal.pred) || program.rules.iter().any(negates) {
        return None;
    }
    let goal_adornment = Adornment::of_goal(goal);
    // Seed: magic fact for the query's bound constants. An all-free goal
    // still gets a zero-arity magic seed so adorned rules are guarded
    // uniformly.
    let mut out_rules: Vec<Rule> = vec![Rule::fact(magic_atom(goal, &goal_adornment))];
    let mut seen = BTreeSet::from([(goal.pred, goal_adornment.clone())]);
    let mut queue = VecDeque::from([(goal.pred, goal_adornment.clone())]);
    while let Some((p, adornment)) = queue.pop_front() {
        for rule in program.rules.iter().filter(|r| r.head.pred == p) {
            let mut bound: BTreeSet<Symbol> = (rule.head.args.iter().zip(&adornment.0))
                .filter(|(_, &b)| b)
                .filter_map(|(t, _)| t.as_var())
                .collect();
            let mut body = vec![Literal::Atom(magic_atom(&rule.head, &adornment))];
            let mut remaining: Vec<&Literal> = rule.body.iter().collect();
            loop {
                // Every comparison and builtin that runs, until none does.
                let mut progressed = true;
                while progressed {
                    progressed = false;
                    remaining.retain(|&l| {
                        let run = runs(l, &mut bound);
                        if run {
                            body.push(l.clone());
                            progressed = true;
                        }
                        !run
                    });
                }
                // Then the subgoal with the most bound arguments, the
                // first on a tie.
                let next = (remaining.iter().enumerate())
                    .filter_map(|(k, l)| Some((k, l.as_atom()?)))
                    .filter(|(_, a)| !is_builtin(a.pred))
                    .max_by_key(|&(k, a)| {
                        let n = a.args.iter().filter(|&&t| is_bound(t, &bound)).count();
                        (n, Reverse(k))
                    });
                let Some((k, a)) = next else {
                    // Only what never runs remains.
                    body.extend(remaining.into_iter().cloned());
                    break;
                };
                let mut lit = Literal::Atom(a.clone());
                if idb.contains(&a.pred) {
                    // The magic rule: the subgoal's bindings are relevant
                    // wherever the body so far holds.
                    let sub = Adornment::of(a, &bound);
                    out_rules.push(Rule::new(magic_atom(a, &sub), body.clone()));
                    lit = Literal::Atom(Atom::new(adorned_pred(a.pred, &sub), a.args.clone()));
                    if seen.insert((a.pred, sub.clone())) {
                        queue.push_back((a.pred, sub));
                    }
                }
                bound.extend(a.vars());
                body.push(lit);
                remaining.remove(k);
            }
            let head = Atom::new(adorned_pred(p, &adornment), rule.head.args.clone());
            out_rules.push(Rule::new(head, body));
        }
    }
    Some(MagicProgram {
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
/// - `p` has an exit rule and a recursive one, each body reading `p` at
///   most once and no lower predicate reading it back;
/// - every head of `p` is distinct variables, as many as the goal's;
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
    let (mut exits, mut steps) = (Vec::new(), Vec::new());
    for rule in program.rules.iter().filter(|r| r.head.pred == p) {
        if rule.head.arity() != goal.arity() || !distinct_vars(&rule.head) {
            return None;
        }
        match rule.body_atoms().filter(|a| a.pred == p).count() {
            0 => exits.push(rule),
            1 => steps.push(rule),
            _ => return None,
        }
    }
    if exits.is_empty() || steps.is_empty() {
        return None;
    }

    let m = magic_pred(p, &adornment);
    let guard = |head: &Atom| Literal::Atom(Atom::new(m, adornment.bound_args(&head.args)));
    let mut rules = vec![Rule::fact(magic_atom(goal, &adornment))];
    for rule in steps {
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
    for rule in exits {
        let args = (rule.head.args.iter().zip(&goal.args).zip(&adornment.0))
            .map(|((&h, &g), &b)| if b { g } else { h })
            .collect();
        let mut body = vec![guard(&rule.head)];
        body.extend(rule.body.iter().cloned());
        rules.push(Rule::new(Atom::new(answer_pred, args), body));
    }

    // What the rewritten rules read, transitively; reading `p` back is
    // recursion through another predicate, which factoring does not cover.
    let lower = reads(
        program,
        rules
            .iter()
            .flat_map(|r| r.body.iter().filter_map(read_pred))
            .filter(|&q| q != m),
    );
    if lower.contains(&p) {
        return None;
    }
    rules.extend(
        (program.rules.iter())
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

/// Rewrites, evaluates, and extracts the answers to `goal`; `None` where
/// [`magic_rewrite`] does not apply.
pub fn evaluate_query(
    db: &Database,
    program: &Program,
    goal: &Atom,
) -> Option<Result<(Vec<Tuple>, EvalResult), EngineError>> {
    let magic = magic_rewrite(program, goal)?;
    Some(
        evaluate(db, &magic.program, Strategy::SemiNaive).map(|result| {
            let mut answers: Vec<Tuple> = result
                .relation(magic.answer_pred)
                .map(|rel| scan_goal(rel, goal))
                .unwrap_or_default();
            answers.sort();
            answers.dedup();
            (answers, result)
        }),
    )
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
        let (answers, res) = evaluate_query(&db, &tc(), &goal).unwrap().unwrap();
        assert_eq!(answers.len(), 5);
        let full = evaluate(&db, &tc(), Strategy::SemiNaive).unwrap();
        let magic_tuples: usize = res.idb.values().map(|r| r.len()).sum();
        assert!(magic_tuples < full.relation("t").unwrap().len() / 4);
    }

    #[test]
    fn fully_bound_goal() {
        let db = chain_db(10);
        let goal = parse_atom("t(2, 7)").unwrap();
        let (answers, _) = evaluate_query(&db, &tc(), &goal).unwrap().unwrap();
        assert_eq!(answers, vec![int_tuple(&[2, 7])]);
        let goal = parse_atom("t(7, 2)").unwrap();
        let (answers, _) = evaluate_query(&db, &tc(), &goal).unwrap().unwrap();
        assert!(answers.is_empty());
    }

    #[test]
    fn all_free_goal_equals_full_evaluation() {
        let db = chain_db(8);
        let goal = parse_atom("t(X, Y)").unwrap();
        let (mut answers, _) = evaluate_query(&db, &tc(), &goal).unwrap().unwrap();
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
        let (answers, _) = evaluate_query(&db, &p, &goal).unwrap().unwrap();
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
        let (answers, _) = evaluate_query(&db, &p, &goal).unwrap().unwrap();
        assert_eq!(answers.len(), 3); // 8, 9, 10
    }

    #[test]
    fn non_idb_goal_is_rejected() {
        let db = chain_db(3);
        let goal = parse_atom("e(0, Y)").unwrap();
        assert!(evaluate_query(&db, &tc(), &goal).is_none());
        // Nor is a program that negates a subgoal.
        let p: Program = "t(X,Y) :- e(X,Y), !b(X). b(X) :- f(X).".parse().unwrap();
        assert!(magic_rewrite(&p, &parse_atom("t(0, Y)").unwrap()).is_none());
    }

    #[test]
    fn equalities_and_builtins_bind_once_their_inputs_are_bound() {
        let p: Program = "t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), t(Z,Y).
             p(X, Y) :- Z = X, t(Z, Y).
             succ_t(X, Z) :- t(X, Y), plus(Y, 1, Z)."
            .parse()
            .unwrap();
        // `Z = X` binds `Z` from its right side, so `t` is asked `bf`.
        let m = magic_rewrite(&p, &parse_atom("p(1, Y)").unwrap()).unwrap();
        assert_eq!(
            m.program.to_string(),
            "m@p@bf(1).\n\
             m@t@bf(Z) :- m@p@bf(X), Z = X.\n\
             p@bf(X, Y) :- m@p@bf(X), Z = X, t@bf(Z, Y).\n\
             t@bf(X, Y) :- m@t@bf(X), e(X, Y).\n\
             m@t@bf(Z) :- m@t@bf(X), e(X, Z).\n\
             t@bf(X, Y) :- m@t@bf(X), e(X, Z), t@bf(Z, Y).\n"
        );
        // `plus(Y, 1, Z)` waits for `t` to bind `Y`: scanned first, its
        // magic rule would read an unbound `Y`.
        let db = chain_db(6);
        let full = evaluate(&db, &p, Strategy::SemiNaive).unwrap();
        for goal in [
            "p(1, Y)",
            "succ_t(V0, V1)",
            "succ_t(2, V1)",
            "succ_t(V0, 5)",
        ] {
            let goal = parse_atom(goal).unwrap();
            let (answers, _) = evaluate_query(&db, &p, &goal).unwrap().unwrap();
            let mut want = scan_goal(full.relation(goal.pred).unwrap(), &goal);
            want.sort();
            assert_eq!(answers, want, "{goal}");
        }
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
        let (answers, res) = evaluate_query(&db, &p, &goal).unwrap().unwrap();
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
        let (answers, _) = evaluate_query(&db, &tc(), &goal).unwrap().unwrap();
        assert_eq!(answers, vec![int_tuple(&[3, 3])]);
    }
}
