//! The reference the agreement suites compare the engine against:
//! stratified *naive* evaluation over plain sets of tuples. Every rule
//! of a stratum is re-run against everything known until a pass adds
//! nothing; a body is matched by nested-loop substitution, one literal
//! at a time. It shares nothing with the engine's planner, executor or
//! row store — only the two arithmetic builtins — so agreeing with it
//! is evidence, not a tautology. The same matcher checks integrity
//! constraints and computes what DRed over-deletes and re-derives.

use semrec::datalog::{
    Atom, CmpOp, Constraint, IcHead, Literal, Pred, Program, Symbol, Term, Value,
};
use semrec::engine::builtins::BuiltinOp;
use semrec::engine::Database;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

/// Tuples per predicate.
pub type Facts = BTreeMap<Pred, BTreeSet<Vec<Value>>>;
/// A variable binding.
pub type Env = BTreeMap<Symbol, Value>;
/// The bindings made so far, innermost last: a match binds by pushing
/// and undoes by truncating.
type Stack = Vec<(Symbol, Value)>;

/// The live tuples of `db`.
pub fn facts_of(db: &Database) -> Facts {
    db.iter()
        .map(|(p, rel)| (p, rel.tuples().collect()))
        .collect()
}

/// The IDB of `program` over `db`: one entry per head predicate.
pub fn naive_idb(db: &Database, program: &Program) -> Facts {
    let mut facts = facts_of(db);
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
                solve(&facts, &r.body, 0, &mut Stack::new(), &mut |env| {
                    derived.push((r.head.pred, head_tuple(&r.head, env)));
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

/// The tuples of `facts` that `goal` selects — constants equal, a
/// repeated variable one value — in sorted order.
pub fn goal_answers(facts: &Facts, goal: &Atom) -> Vec<Vec<Value>> {
    let rows = facts.get(&goal.pred).into_iter().flatten();
    rows.filter(|row| {
        let mut hit = false;
        unify(&goal.args, row, &mut Stack::new(), &mut |_| hit = true);
        hit
    })
    .cloned()
    .collect()
}

/// Every binding of `ic`'s body variables under which its body holds in
/// `facts` and its head does not: the constraint is satisfied iff the
/// set is empty. A head variable the body leaves free is existential.
pub fn ic_violations(facts: &Facts, ic: &Constraint) -> BTreeSet<Env> {
    let atoms = ic.body_atoms.iter().cloned().map(Literal::Atom);
    let body: Vec<Literal> = atoms
        .chain(ic.body_cmps.iter().map(|&c| Literal::Cmp(c)))
        .collect();
    let mut out = BTreeSet::new();
    solve(facts, &body, 0, &mut Stack::new(), &mut |env| {
        let holds = match &ic.head {
            IcHead::None => false,
            IcHead::Cmp(c) => matches!(
                (value(env, c.lhs), value(env, c.rhs)),
                (Some(a), Some(b)) if c.op.eval(&a, &b)
            ),
            IcHead::Atom(h) => facts.get(&h.pred).is_some_and(|set| {
                set.iter().any(|row| {
                    let mut hit = false;
                    unify(&h.args, row, &mut env.clone(), &mut |_| hit = true);
                    hit
                })
            }),
        };
        if !holds {
            out.insert(env.iter().copied().collect());
        }
    });
    out
}

/// The IDB tuples DRed over-deletes when the `deleted` EDB tuples leave
/// `db`, per head predicate: the closure of every derivation, over the
/// pre-deletion EDB and IDB (`idb`, the program's fixpoint on `db`), that
/// uses a deleted or over-deleted tuple.
pub fn over_deleted(db: &Database, program: &Program, idb: &Facts, deleted: &Facts) -> Facts {
    let gone = |p: Pred| Pred::new(&format!("gone {p}"));
    let mut facts = facts_of(db);
    let edb = facts.clone();
    facts.extend(idb.iter().map(|(&p, set)| (p, set.clone())));
    for (&p, ts) in deleted {
        let present = ts
            .iter()
            .filter(|t| edb.get(&p).is_some_and(|s| s.contains(*t)));
        facts.insert(gone(p), present.cloned().collect());
    }
    loop {
        let mut found = Vec::new();
        for r in &program.rules {
            for (i, lit) in r.body.iter().enumerate() {
                let Literal::Atom(a) = lit else { continue };
                let mut body: Vec<Literal> = r.body.clone();
                body[i] = Literal::Atom(Atom::new(gone(a.pred), a.args.clone()));
                solve(&facts, &body, 0, &mut Stack::new(), &mut |env| {
                    found.push((gone(r.head.pred), head_tuple(&r.head, env)));
                });
            }
        }
        let mut grew = false;
        for (p, t) in found {
            grew |= facts.entry(p).or_default().insert(t);
        }
        if !grew {
            break;
        }
    }
    let heads: BTreeSet<Pred> = program.rules.iter().map(|r| r.head.pred).collect();
    heads
        .into_iter()
        .map(|h| (h, facts.remove(&gone(h)).unwrap_or_default()))
        .collect()
}

/// How many `doomed` tuples DRed re-derives in one step: those with a
/// derivation over the post-transaction EDB `post` and the `pre` IDB
/// without the doomed tuples.
pub fn rederived(post: &Database, program: &Program, pre: &Facts, doomed: &Facts) -> usize {
    let mut facts = facts_of(post);
    for (h, set) in pre {
        let dead = doomed.get(h);
        let kept = set.iter().filter(|t| !dead.is_some_and(|d| d.contains(*t)));
        facts.insert(*h, kept.cloned().collect());
    }
    let mut back = BTreeSet::new();
    for r in &program.rules {
        solve(&facts, &r.body, 0, &mut Stack::new(), &mut |env| {
            let t = head_tuple(&r.head, env);
            if doomed.get(&r.head.pred).is_some_and(|d| d.contains(&t)) {
                back.insert((r.head.pred, t));
            }
        });
    }
    back.len()
}

fn head_tuple(head: &Atom, env: &Stack) -> Vec<Value> {
    let vals = head.args.iter().map(|&t| value(env, t).expect("safe head"));
    vals.collect()
}

fn value(env: &Stack, t: Term) -> Option<Value> {
    match t {
        Term::Const(c) => Some(c),
        Term::Var(v) => env.iter().rev().find(|b| b.0 == v).map(|b| b.1),
    }
}

/// Calls `emit` once per extension of `env` satisfying every literal of
/// `body` (at most 64) not in the `done` bit set. A comparison, builtin or negated
/// subgoal is taken as soon as enough of its variables are bound;
/// otherwise the first remaining positive subgoal is matched against
/// every known tuple that agrees with its bound leading arguments.
fn solve(
    facts: &Facts,
    body: &[Literal],
    done: u64,
    env: &mut Stack,
    emit: &mut dyn FnMut(&Stack),
) {
    let rest = || (0..body.len()).filter(|i| done >> i & 1 == 0);
    if rest().next().is_none() {
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
    let at = rest()
        .find(|&i| ready(&&body[i]))
        .or_else(|| rest().find(|&i| is_scan(&&body[i])));
    let at = at.expect("unsafe rule: nothing left can be evaluated");
    let (lit, done) = (&body[at], done | 1 << at);
    // Binds `var := v` for the rest of the body, then restores `env`.
    let mut with = |env: &mut Stack, t: Term, v: Value| match value(env, t) {
        None => {
            env.push((t.as_var().expect("a free term is a variable"), v));
            solve(facts, body, done, env, emit);
            env.pop();
        }
        Some(w) if w == v => solve(facts, body, done, env, emit),
        _ => {}
    };
    match lit {
        Literal::Cmp(c) => match (value(env, c.lhs), value(env, c.rhs)) {
            (Some(a), Some(b)) if c.op.eval(&a, &b) => solve(facts, body, done, env, emit),
            (Some(_), Some(_)) => {}
            (Some(a), None) => with(env, c.rhs, a),
            (None, Some(b)) => with(env, c.lhs, b),
            (None, None) => unreachable!("ready comparison has a bound side"),
        },
        Literal::Neg(a) => {
            let t: Vec<Value> = a.args.iter().map(|&t| value(env, t).unwrap()).collect();
            if !facts.get(&a.pred).is_some_and(|s| s.contains(&t)) {
                solve(facts, body, done, env, emit);
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
                        solve(facts, body, done, env, emit);
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
                let from = (Bound::Included(&prefix[..]), Bound::Unbounded);
                for row in set.range::<[Value], _>(from) {
                    if !row.starts_with(&prefix) {
                        break;
                    }
                    unify(&a.args, row, env, &mut |env| {
                        solve(facts, body, done, env, emit)
                    });
                }
            }
        },
    }
}

/// Extends `env` so that `args` equals `row`, calls `then`, and undoes
/// the extension; a mismatch (constant, bound variable, width) skips.
fn unify(args: &[Term], row: &[Value], env: &mut Stack, then: &mut dyn FnMut(&mut Stack)) {
    if args.len() != row.len() {
        return;
    }
    let mark = env.len();
    let ok = args.iter().zip(row).all(|(&t, &v)| match value(env, t) {
        None => {
            env.push((t.as_var().expect("a free term is a variable"), v));
            true
        }
        Some(w) => w == v,
    });
    if ok {
        then(env);
    }
    env.truncate(mark);
}
