//! The maintenance layer's integrity checks and DRed counts against the
//! naive oracle of `tests/common/naive.rs`, on random inputs:
//!
//! - random constraints over a small EDB — atom heads with existential
//!   (and repeated existential) variables, comparison heads, denials,
//!   repeated variables and constants in bodies and heads, and now and
//!   then an atom at the wrong arity (a body no binding matches, a head
//!   that never holds);
//! - random EDBs over a small value domain, so joins and collisions are
//!   common;
//! - random transaction streams with deletes (of live tuples, of tuples
//!   that were never there, of a tuple re-inserted in the same
//!   transaction) run through `Materialized` over a handful of program
//!   shapes.
//!
//! After every transaction: `Database::violations` equals the oracle's
//! violating bindings as a set, `satisfies` agrees, the delta re-check
//! `IcCheck::holds` agrees for every constraint that held before the
//! transaction, DRed's `over_deleted` and `rederived` equal the oracle's
//! counts, and the materialization equals the naive fixpoint. Seeds are
//! fixed; the `#[ignore]`d variant runs ten times the budget
//! (`cargo test --test maintenance_oracle -- --ignored`).

#[path = "common/naive.rs"]
mod naive;

use semrec::datalog::{
    parse_unit, Atom, Cmp, CmpOp, Constraint, IcHead, Pred, Program, Symbol, Term, Value,
};
use semrec::engine::incr::{IcCheck, Materialized, Tx};
use semrec::engine::{Budget, Database, Tuple};
use semrec::gen::rng::Rng;
use std::collections::{BTreeMap, BTreeSet};

/// The EDB: two binary predicates and a unary one.
const EDB: [(&str, usize); 3] = [("a", 2), ("b", 2), ("c", 1)];

/// Program shapes over the EDB: linear and non-linear recursion,
/// repeated variables, constants in heads and bodies, comparisons, a
/// fact, and IDB predicates feeding each other.
const PROGRAMS: [&str; 4] = [
    "t(X, Y) :- a(X, Y). t(X, Y) :- a(X, Z), t(Z, Y).",
    "t(X, Y) :- a(X, Y). t(X, Y) :- t(X, Z), t(Z, Y). u(X) :- t(X, X), c(X).",
    "p(X) :- c(X). p(Y) :- p(X), b(X, Y), Y > X. q(X, X) :- p(X), a(X, X). \
     q(X, 3) :- b(X, 3), c(X).",
    "s(X, Y) :- a(X, Y), b(Y, W). s(X, Y) :- a(X, Z), a(Z, Y). r(X) :- s(X, Y), c(Y). r(2). \
     r(X) :- s(X, X).",
];

const DOMAIN: i64 = 6;

fn random_tuple(rng: &mut Rng, arity: usize) -> Tuple {
    (0..arity)
        .map(|_| Value::Int(rng.gen_range(0..DOMAIN)))
        .collect()
}

fn random_db(rng: &mut Rng) -> Database {
    let mut db = Database::new();
    for (p, n) in EDB {
        for _ in 0..rng.gen_range(4..14usize) {
            db.insert(p, random_tuple(rng, n));
        }
    }
    db
}

/// A variable from a small pool, so repeats are common.
fn var(rng: &mut Rng, pool: &[&str]) -> Term {
    Term::var(pool[rng.gen_range(0..pool.len())])
}

/// A predicate of the EDB, now and then at the other arity: a body atom
/// no row can match, a head that never holds.
fn random_pred(rng: &mut Rng) -> (&'static str, usize) {
    let (p, n) = EDB[rng.gen_range(0..EDB.len())];
    (p, if rng.gen_bool(0.08) { 3 - n } else { n })
}

fn random_ic(rng: &mut Rng) -> Constraint {
    let mut atoms: Vec<Atom> = Vec::new();
    for _ in 0..rng.gen_range(1..4usize) {
        let (p, n) = random_pred(rng);
        let args = (0..n)
            .map(|_| {
                if rng.gen_bool(0.15) {
                    Term::int(rng.gen_range(0..DOMAIN))
                } else {
                    var(rng, &["X", "Y", "Z", "U"])
                }
            })
            .collect();
        atoms.push(Atom::new(p, args));
    }
    let bound: Vec<Symbol> = {
        let mut seen = BTreeSet::new();
        let vars = atoms.iter().flat_map(Atom::vars);
        vars.filter(|v| seen.insert(*v)).collect()
    };
    let ops = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    // A comparison over bound variables and constants (the monitor's
    // input class: every comparison variable is bound by an atom).
    let cmp = |rng: &mut Rng| -> Option<Cmp> {
        let side = |rng: &mut Rng| match bound.len() {
            0 => Term::int(rng.gen_range(0..DOMAIN)),
            n if rng.gen_bool(0.7) => Term::Var(bound[rng.gen_range(0..n)]),
            _ => Term::int(rng.gen_range(0..DOMAIN)),
        };
        let (l, r) = (side(rng), side(rng));
        (!bound.is_empty()).then(|| Cmp::new(l, ops[rng.gen_range(0..ops.len())], r))
    };
    let cmps: Vec<Cmp> = (0..rng.gen_range(0..2usize))
        .filter_map(|_| cmp(rng))
        .collect();
    let head = match rng.gen_range(0..5usize) {
        0 => IcHead::None,
        1 => cmp(rng).map_or(IcHead::None, IcHead::Cmp),
        _ => {
            let (p, n) = random_pred(rng);
            let args = (0..n)
                .map(|_| match rng.gen_range(0..6usize) {
                    0 => Term::int(rng.gen_range(0..DOMAIN)),
                    // Existential, sometimes repeated.
                    1 | 2 => var(rng, &["E", "F"]),
                    _ if bound.is_empty() => var(rng, &["E"]),
                    _ => Term::Var(bound[rng.gen_range(0..bound.len())]),
                })
                .collect();
            IcHead::Atom(Atom::new(p, args))
        }
    };
    Constraint::new(atoms, cmps, head)
}

/// A transaction over the EDB: deletes of live tuples and of random
/// (possibly absent) ones, inserts, and sometimes a tuple deleted and
/// re-inserted in the same transaction.
fn random_tx(rng: &mut Rng, db: &Database) -> Tx {
    let mut tx = Tx::new();
    for _ in 0..rng.gen_range(0..4usize) {
        let (p, n) = EDB[rng.gen_range(0..EDB.len())];
        let live = db
            .get(Pred::new(p))
            .map(|r| r.sorted_tuples())
            .unwrap_or_default();
        if !live.is_empty() && rng.gen_bool(0.8) {
            let t = live[rng.gen_range(0..live.len())].clone();
            if rng.gen_bool(0.15) {
                tx.insert(p, t.clone());
            }
            tx.delete(p, t);
        } else {
            tx.delete(p, random_tuple(rng, n));
        }
    }
    for _ in 0..rng.gen_range(0..4usize) {
        let (p, n) = EDB[rng.gen_range(0..EDB.len())];
        tx.insert(p, random_tuple(rng, n));
    }
    tx
}

/// A violating binding as the oracle writes it.
fn binding(s: &semrec::datalog::Subst) -> naive::Env {
    s.iter()
        .map(|(v, t)| (v, t.as_const().expect("violations are ground")))
        .collect()
}

fn check_ics(db: &Database, ics: &[Constraint], ctx: &str) -> Vec<bool> {
    let facts = naive::facts_of(db);
    ics.iter()
        .map(|ic| {
            let want = naive::ic_violations(&facts, ic);
            let got: BTreeSet<naive::Env> = db.violations(ic).iter().map(binding).collect();
            assert_eq!(got, want, "{ctx}: violations of {ic}");
            assert_eq!(db.satisfies(ic), want.is_empty(), "{ctx}: satisfies {ic}");
            want.is_empty()
        })
        .collect()
}

/// What one seed's stream exercised: rows over-deleted and re-derived,
/// and constraints a transaction broke.
#[derive(Default)]
struct Coverage {
    over: u64,
    back: u64,
    broke: u32,
}

fn run_seed(seed: u64, cov: &mut Coverage) {
    let mut rng = Rng::seed_from_u64(seed);
    let program: Program = parse_unit(PROGRAMS[seed as usize % PROGRAMS.len()])
        .expect("program parses")
        .program();
    let mut db = random_db(&mut rng);
    let ics: Vec<Constraint> = (0..4).map(|_| random_ic(&mut rng)).collect();
    let mut m = Materialized::new(&db, &program).expect("materialization");
    assert!(m.is_incremental());
    let mut held = check_ics(&db, &ics, &format!("seed {seed} initial"));
    for step in 0..6 {
        let ctx = format!("seed {seed} step {step}");
        let tx = random_tx(&mut rng, &db);
        let pre_idb = naive::naive_idb(&db, &program);
        let deleted: naive::Facts = tx
            .deletes()
            .iter()
            .map(|(&p, ts)| (p, ts.iter().cloned().collect()))
            .collect();
        let doomed = naive::over_deleted(&db, &program, &deleted);

        let d = m
            .over_delete(&db, &tx, Budget::unlimited(), None)
            .expect("over-delete");
        let delta = db.apply(&tx);
        let stats = m
            .apply_delta(&db, &delta, d, Budget::unlimited(), None)
            .expect("apply");
        let over: usize = doomed.values().map(BTreeSet::len).sum();
        let back = naive::rederived(&db, &program, &pre_idb, &doomed);
        assert_eq!(stats.over_deleted, over as u64, "{ctx}: over_deleted");
        assert_eq!(stats.rederived, back as u64, "{ctx}: rederived");
        cov.over += stats.over_deleted;
        cov.back += stats.rederived;
        let got: naive::Facts = m
            .idb()
            .iter()
            .map(|(&p, r)| (p, r.iter().map(<[Value]>::to_vec).collect()))
            .collect();
        assert_eq!(
            got,
            naive::naive_idb(&db, &program),
            "{ctx}: materialization"
        );

        let now = check_ics(&db, &ics, &ctx);
        for ((ic, was), is) in ics.iter().zip(&held).zip(&now) {
            if *was {
                let check = IcCheck::new(&db, ic);
                let run = check.holds(&db, Some(&delta), &Budget::unlimited(), None);
                let still = run.expect("delta check").0;
                assert_eq!(still, *is, "{ctx}: delta re-check of {ic}");
                cov.broke += u32::from(!still);
            }
        }
        held = now;
        db.compact_sparse();
    }
}

/// The fixed tier-1 budget; the stream must actually exercise what it
/// claims to: deletes that over-delete and re-derive, and constraints a
/// delta breaks.
#[test]
fn ic_checks_and_dred_counts_agree_with_the_oracle() {
    let mut cov = Coverage::default();
    for seed in 0..48 {
        run_seed(seed, &mut cov);
    }
    let Coverage { over, back, broke } = cov;
    assert!(
        over > 100 && back > 10 && broke > 10,
        "{over} {back} {broke}"
    );
}

#[test]
#[ignore = "ten times the tier-1 seed budget; scripts/check.sh runs it"]
fn ic_checks_and_dred_counts_agree_with_the_oracle_long() {
    for seed in 48..528 {
        run_seed(seed, &mut Coverage::default());
    }
}

/// Keeps the generator's vocabulary honest: every constraint shape the
/// module docs list shows up in the tier-1 seeds.
#[test]
fn the_random_constraints_cover_every_head_shape() {
    let mut shapes = BTreeMap::new();
    for seed in 0..48u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let _ = random_db(&mut rng);
        for _ in 0..4 {
            let ic = random_ic(&mut rng);
            let body: BTreeSet<Symbol> = ic.body_atoms.iter().flat_map(Atom::vars).collect();
            let shape = match &ic.head {
                IcHead::None => "denial",
                IcHead::Cmp(_) => "comparison",
                IcHead::Atom(h) if h.vars().any(|v| !body.contains(&v)) => "existential",
                IcHead::Atom(_) => "atom",
            };
            *shapes.entry(shape).or_insert(0) += 1;
        }
    }
    assert_eq!(shapes.len(), 4, "{shapes:?}");
}
