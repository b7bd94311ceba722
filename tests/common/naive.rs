//! The reference the agreement suites compare the engine against:
//! stratified *naive* evaluation over plain sets of tuples. Every rule
//! of a stratum is re-run against everything known until a pass adds
//! nothing; a body is matched by nested-loop substitution, one literal
//! at a time. It shares nothing with the engine's planner, executor or
//! row store — only the two arithmetic builtins — so agreeing with it
//! is evidence, not a tautology.

use semrec::datalog::{Atom, CmpOp, Literal, Pred, Program, Symbol, Term, Value};
use semrec::engine::builtins::BuiltinOp;
use semrec::engine::Database;
use std::collections::{BTreeMap, BTreeSet};

/// Tuples per predicate.
pub type Facts = BTreeMap<Pred, BTreeSet<Vec<Value>>>;
type Env = BTreeMap<Symbol, Value>;

/// The IDB of `program` over `db`: one entry per head predicate.
pub fn naive_idb(db: &Database, program: &Program) -> Facts {
    let mut facts: Facts = db
        .iter()
        .map(|(p, rel)| (p, rel.iter().map(<[Value]>::to_vec).collect()))
        .collect();
    let heads: BTreeSet<Pred> = program.rules.iter().map(|r| r.head.pred).collect();
    for &h in &heads {
        facts.entry(h).or_default();
    }
    // Strata: a head sits at least as high as its positive IDB
    // subgoals and strictly above its negated ones.
    let mut stratum: BTreeMap<Pred, usize> = heads.iter().map(|&h| (h, 0)).collect();
    for pass in 0.. {
        assert!(pass <= heads.len(), "negation inside a recursive cycle");
        let mut changed = false;
        for r in &program.rules {
            let mut need = stratum[&r.head.pred];
            for l in &r.body {
                match l {
                    Literal::Atom(a) => need = need.max(*stratum.get(&a.pred).unwrap_or(&0)),
                    Literal::Neg(a) => need = need.max(stratum.get(&a.pred).map_or(0, |s| s + 1)),
                    Literal::Cmp(_) => {}
                }
            }
            changed |= need > stratum.insert(r.head.pred, need).unwrap();
        }
        if !changed {
            break;
        }
    }
    for s in 0..=stratum.values().copied().max().unwrap_or(0) {
        loop {
            let mut derived = Vec::new();
            for r in program.rules.iter().filter(|r| stratum[&r.head.pred] == s) {
                let body: Vec<&Literal> = r.body.iter().collect();
                solve(&facts, &body, &mut Env::new(), &mut |env| {
                    let t = r
                        .head
                        .args
                        .iter()
                        .map(|&t| value(env, t).expect("safe head"));
                    derived.push((r.head.pred, t.collect::<Vec<Value>>()));
                });
            }
            let mut grew = false;
            for (p, t) in derived {
                grew |= facts.get_mut(&p).expect("head entry").insert(t);
            }
            if !grew {
                break;
            }
        }
    }
    facts.retain(|p, _| heads.contains(p));
    facts
}

fn value(env: &Env, t: Term) -> Option<Value> {
    match t {
        Term::Const(c) => Some(c),
        Term::Var(v) => env.get(&v).copied(),
    }
}

/// Calls `emit` once per extension of `env` satisfying every literal of
/// `rest`. A comparison, builtin or negated subgoal is taken as soon as
/// enough of its variables are bound; otherwise the first remaining
/// positive subgoal is matched against every known tuple that agrees
/// with its bound leading arguments.
fn solve(facts: &Facts, rest: &[&Literal], env: &mut Env, emit: &mut dyn FnMut(&Env)) {
    if rest.is_empty() {
        return emit(env);
    }
    let bound = |t: &Term| value(env, *t).is_some();
    let builtin = |a: &Atom| BuiltinOp::of(a.pred).filter(|_| a.args.len() == 3);
    let ready = |l: &&Literal| match l {
        Literal::Cmp(c) => {
            let n = [c.lhs, c.rhs].iter().filter(|t| bound(t)).count();
            n == 2 || (n == 1 && c.op == CmpOp::Eq)
        }
        Literal::Neg(a) => a.args.iter().all(bound),
        Literal::Atom(a) => builtin(a).is_some() && a.args.iter().filter(|t| bound(t)).count() >= 2,
    };
    let is_scan = |l: &&Literal| matches!(l, Literal::Atom(a) if builtin(a).is_none());
    let at = rest
        .iter()
        .position(ready)
        .or_else(|| rest.iter().position(is_scan));
    let at = at.expect("unsafe rule: nothing left can be evaluated");
    let mut others = rest.to_vec();
    let lit = others.remove(at);
    // Binds `var := v` for the rest of the body, then restores `env`.
    let mut with = |env: &mut Env, t: Term, v: Value| match t {
        Term::Var(x) if !env.contains_key(&x) => {
            env.insert(x, v);
            solve(facts, &others, env, emit);
            env.remove(&x);
        }
        t if value(env, t) == Some(v) => solve(facts, &others, env, emit),
        _ => {}
    };
    match lit {
        Literal::Cmp(c) => match (value(env, c.lhs), value(env, c.rhs)) {
            (Some(a), Some(b)) if c.op.eval(&a, &b) => solve(facts, &others, env, emit),
            (Some(_), Some(_)) => {}
            (Some(a), None) => with(env, c.rhs, a),
            (None, Some(b)) => with(env, c.lhs, b),
            (None, None) => unreachable!("ready comparison has a bound side"),
        },
        Literal::Neg(a) => {
            let t: Vec<Value> = a.args.iter().map(|&t| value(env, t).unwrap()).collect();
            if !facts.get(&a.pred).is_some_and(|s| s.contains(&t)) {
                solve(facts, &others, env, emit);
            }
        }
        Literal::Atom(a) => match builtin(a) {
            Some(op) => {
                let vals = [0, 1, 2].map(|i| value(env, a.args[i]));
                match vals.iter().position(Option::is_none) {
                    Some(i) => {
                        if let Some(v) = op.solve(vals) {
                            with(env, a.args[i], v);
                        }
                    }
                    None if op.check(vals[0].unwrap(), vals[1].unwrap(), vals[2].unwrap()) => {
                        solve(facts, &others, env, emit);
                    }
                    None => {}
                }
            }
            None => {
                // The set is sorted, so the tuples agreeing with the
                // bound leading arguments are one contiguous run.
                let prefix: Vec<Value> = a.args.iter().map_while(|&t| value(env, t)).collect();
                let Some(set) = facts.get(&a.pred) else {
                    return;
                };
                for row in set
                    .range(prefix.clone()..)
                    .take_while(|r| r.starts_with(&prefix))
                {
                    unify(&a.args, row, env, &mut |env| {
                        solve(facts, &others, env, emit)
                    });
                }
            }
        },
    }
}

/// Extends `env` so that `args` equals `row`, calls `then`, and undoes
/// the extension; a mismatch (constant, bound variable, width) skips.
fn unify(args: &[Term], row: &[Value], env: &mut Env, then: &mut dyn FnMut(&mut Env)) {
    if args.len() != row.len() {
        return;
    }
    let mut added = Vec::new();
    let ok = args.iter().zip(row).all(|(&t, &v)| match t {
        Term::Var(x) if !env.contains_key(&x) => {
            env.insert(x, v);
            added.push(x);
            true
        }
        t => value(env, t) == Some(v),
    });
    if ok {
        then(env);
    }
    for x in added {
        env.remove(&x);
    }
}
