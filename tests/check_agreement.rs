//! `check` is the one judgment of a program, so the engine's compiler must
//! agree with its evaluation rules: `check` accepts a program exactly when
//! every rule compiles, and the compiler refuses in `check`'s words. The programs are `common::cases`' random
//! programs and kernel shapes, each also with one rule edited by a seeded
//! literal — a builtin, a comparison or a negated subgoal over variables
//! the rule may or may not bind, or a head term it never binds — and the
//! shapes `tests/cli.rs` refuses. Then `check`'s verdicts, shape by shape.

mod common;

use common::cases::{kernel_shapes, random_programs};
use common::naive;
use semrec::datalog::analysis::{check, validate, Checked};
use semrec::datalog::{
    parse_unit, Atom, Cmp, CmpOp, Error, Facts, Literal, Pred, Program, Rule, Term,
};
use semrec::engine::plan::compile_rule;
use semrec::engine::{Database, EngineError, Evaluator, Prepared};
use semrec::gen::rng::Rng;
use std::collections::BTreeMap;

/// `check`'s verdict on `program` against compiling each rule, rule by
/// rule and as a whole; returns whether it was accepted.
fn agree(name: &str, program: &Program) -> bool {
    let judged = check(program, &[], &Facts::new());
    for rule in &program.rules {
        let alone = Program::new(vec![rule.clone()]);
        let judged = check(&alone, &[], &Facts::new()).map(|_| ());
        let compiled = compile_rule(rule, &BTreeMap::new(), None, &BTreeMap::new()).map(|_| ());
        assert_eq!(
            judged.map_err(EngineError::from),
            compiled,
            "{name}: {rule}"
        );
    }
    let compiles = (program.rules.iter())
        .all(|r| compile_rule(r, &BTreeMap::new(), None, &BTreeMap::new()).is_ok());
    assert_eq!(judged.is_ok(), compiles, "{name}:\n{program}");
    let strata = judged
        .as_ref()
        .map(|c| c.strata.clone())
        .unwrap_or_default();
    let prepared = Prepared::compile(&Database::new(), program, &[], &strata);
    assert_eq!(prepared.is_ok(), compiles, "{name}:\n{program}");
    compiles
}

/// `rule` with one seeded edit. New literals read predicates no program
/// defines, at one arity each, so only safety can refuse them.
fn edited(rule: &Rule, rng: &mut Rng) -> Rule {
    let vars: Vec<Term> = rule.vars().into_iter().map(Term::Var).collect();
    let term = |rng: &mut Rng| match rng.gen_range(0..6usize) {
        0 => Term::var("Fresh"),
        1 => Term::var("Gen$0"),
        2 => Term::int(rng.gen_range(0..3i64)),
        _ if vars.is_empty() => Term::int(1),
        _ => vars[rng.gen_range(0..vars.len())],
    };
    let mut rule = rule.clone();
    let lit = match rng.gen_range(0..6usize) {
        0 | 1 => {
            let op = ["plus", "times"][rng.gen_range(0..2usize)];
            let args = vec![term(rng), term(rng), term(rng)];
            let atom = Atom::new(op, args);
            match rng.gen_range(0..4usize) {
                0 => Literal::Neg(atom),
                _ => Literal::Atom(atom),
            }
        }
        2 | 3 => {
            let ops = [CmpOp::Eq, CmpOp::Eq, CmpOp::Lt, CmpOp::Ne];
            let op = ops[rng.gen_range(0..ops.len())];
            Literal::Cmp(Cmp::new(term(rng), op, term(rng)))
        }
        4 => Literal::Neg(Atom::new("absent", vec![term(rng), term(rng)])),
        _ => {
            if let Some(arg) = rule.head.args.first_mut() {
                *arg = Term::var("Fresh");
            }
            return rule;
        }
    };
    let at = rng.gen_range(0..=rule.body.len());
    rule.body.insert(at, lit);
    rule
}

#[test]
fn check_accepts_exactly_what_compiles() {
    let mut programs: Vec<(String, Program)> = Vec::new();
    let cases = random_programs("random linear", 0..48).into_iter();
    for case in cases.chain(kernel_shapes(0..2)) {
        programs.push((case.name, case.program));
    }
    let mut rng = Rng::seed_from_u64(0xc4ec);
    let mut variants = Vec::new();
    for (name, program) in &programs {
        for k in 0..6 {
            let mut edit = program.clone();
            let i = rng.gen_range(0..edit.rules.len());
            edit.rules[i] = edited(&edit.rules[i], &mut rng);
            variants.push((format!("{name}, edit {k} of rule {i}"), edit));
        }
    }
    programs.extend(variants);
    for src in [
        "p(X, Y) :- e(X).",
        "p(X, Z) :- e(X), plus(X, Y, Z).",
        "p(X) :- e(X), !plus(X, 1, 2).",
        "p(X, Z) :- e(X), plus(X, 1, Z).",
        "p(X) :- e(X), !f(X, Y).",
        "p(X, Y) :- e(X), Y = Z, Z = X.",
    ] {
        programs.push((src.to_owned(), parse_unit(src).unwrap().program()));
    }
    let accepted = (programs.iter()).filter(|(name, p)| agree(name, p)).count();
    let refused = programs.len() - accepted;
    assert!(
        accepted >= 100 && refused >= 100,
        "{accepted} accepted, {refused} refused"
    );
}

/// `check` of a source unit.
fn checked(src: &str) -> Result<Checked, Error> {
    let unit = parse_unit(src).unwrap();
    check(&unit.program(), &unit.constraints, &unit.facts)
}

/// The paper's class is a verdict apart: Example 3.2 is in it; an IDB
/// atom or a builtin in a constraint, a constraint that is not a chain
/// and (stratified) negation are not, though evaluation accepts them.
#[test]
fn the_paper_class_is_judged_apart() {
    let example = "eval(P, S, T) :- super(P, S, T).
        eval(P, S, T) :- works_with(P, P1), eval(P1, S, T), expert(P, F), field(T, F).
        ic ic1: works_with(P2, P1), expert(P1, F1) -> expert(P2, F1).";
    let unit = parse_unit(example).unwrap();
    assert_eq!(
        validate(&unit.program(), &unit.constraints).unwrap().len(),
        1
    );
    for (src, says) in [
        ("p(X) :- e(X). ic: p(X) -> .", "IDB"),
        ("p(X) :- e(X). ic: a(X,Y), b(Y,Z), c(Z,X) -> .", "chain"),
        (
            "p(X, Y) :- e(X, Y), plus(X, 1, Y). ic n: e(X, Y), plus(X, 1, Y) -> .",
            "builtin plus",
        ),
        ("p(X) :- e(X, Y), !bad(X). bad(X) :- f(X).", "negation"),
    ] {
        let err = checked(src).unwrap().paper_class().unwrap_err();
        assert!(err.to_string().contains(says), "{src}: {err}");
    }
    let c = checked("p(X) :- e(X, Y), !bad(X). bad(X) :- f(X).").unwrap();
    assert_eq!(c.strata[&Pred::new("p")], 1);
    assert_eq!(c.strata[&Pred::new("bad")], 0);
}

/// The evaluation rules refuse, in the text `run` prints: an unsafe
/// rule, negation inside recursion, a builtin defined, of another arity,
/// bound too little or negated.
#[test]
fn the_evaluation_rules_refuse_in_runs_words() {
    for (src, says) in [
        (
            "p(X, Y) :- e(X).",
            "unsafe rule `p(X, Y) :- e(X).`: head term `Y` is not bound by the body",
        ),
        (
            "p(X) :- e(X), !q(X). q(X) :- e(X), !p(X).",
            "not stratified: negation occurs inside a recursive cycle",
        ),
        (
            "plus(5, 5, 5). p(X) :- e(Y), plus(X, Y, 5).",
            "a fact defines `plus`, which is a builtin predicate",
        ),
        (
            "times(X, Y, Z) :- e(X, Y, Z).",
            "a rule defines `times`, which is a builtin predicate",
        ),
        (
            "p(X, Z) :- e(X), plus(X, 1, Y, Z).",
            "analysis error: builtin plus has arity 3, but is used with arity 4",
        ),
        (
            "p(X, Z) :- e(X), plus(X, Y, Z).",
            "unsafe rule `p(X, Z) :- e(X), plus(X, Y, Z).`: builtin `plus(X, Y, Z)` \
             needs at least two bound arguments",
        ),
        (
            "p(X) :- e(X), !plus(X, 1, 2).",
            "unsafe rule `p(X) :- e(X), !plus(X, 1, 2).`: builtin `plus(X, 1, 2)` \
             cannot be negated",
        ),
    ] {
        assert_eq!(checked(src).unwrap_err().to_string(), says, "{src}");
    }
    for safe in [
        "p(X, Z) :- e(X), plus(X, 1, Z).",
        "p(X, Y) :- e(X), plus(X, Y, 5).",
    ] {
        assert!(checked(safe).is_ok(), "{safe}");
    }
}

/// The compiler takes strata and judges nothing, yet never runs wrong
/// strata as one: `cut` negates the recursive `reach`, so compiled with
/// no strata it is refused with the typed error; in `check`'s strata it
/// runs, and agrees with the naive oracle.
#[test]
fn the_compiler_refuses_negation_without_a_lower_stratum() {
    let unit = parse_unit(
        "reach(X,Y) :- edge(X,Y). reach(X,Y) :- reach(X,Z), edge(Z,Y).
         cut(X,Y) :- node(X), node(Y), !reach(X,Y).
         edge(0, 1). edge(1, 2). edge(2, 0). edge(3, 3). node(0). node(1). node(2). node(3).",
    )
    .unwrap();
    let (program, db) = (unit.program(), Database::from_facts(&unit.facts));
    for compiled in [
        Prepared::compile(&db, &program, &[], &BTreeMap::new()).err(),
        Prepared::batch(&db, program.clone(), &BTreeMap::new()).err(),
    ] {
        let refused = matches!(
            compiled,
            Some(EngineError::Invalid(Error::NotStratified(_)))
        );
        assert!(refused, "{compiled:?}");
    }
    let strata = check(&program, &[], &unit.facts).unwrap().strata;
    let plans = Prepared::batch(&db, program.clone(), &strata).expect("compiles");
    let mut ev = Evaluator::from_prepared_batch(&db, &plans, None);
    ev.run().expect("runs");
    let got: naive::Facts = (ev.finish().idb.iter())
        .map(|(&p, rel)| (p, rel.tuples().collect()))
        .collect();
    let want = naive::naive_idb(&db, &program);
    assert_eq!(got, want);
    assert_eq!(want[&Pred::new("cut")].len(), 6, "{want:?}");
}
