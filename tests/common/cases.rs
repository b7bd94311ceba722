//! The route matrix's inputs: each generator turns seeds into
//! [`Case`]s, so a suite runs a fixed seed range and the long run in
//! `tests/matrix.rs` ten times as many. Every draw is reproducible from
//! the case's name.

use super::compile::FAMILIES;
use super::routes::Case;
use semrec::datalog::{parse_unit, Atom, Cmp, CmpOp, Constraint, IcHead, Literal};
use semrec::datalog::{Pred, Rule, Symbol, Term, Value};
use semrec::engine::incr::parse_txs;
use semrec::engine::{int_tuple, Database, Tuple, Tx};
use semrec::gen::programs::{random_linear, RandomLinearParams};
use semrec::gen::repair::{repair, RepairOutcome};
use semrec::gen::rng::Rng;
use semrec::gen::{fanout, flights, genealogy, graphs, org, university};
use std::collections::BTreeSet;
use std::ops::Range;

/// The paper's Example 2.1: a six-column recursion whose first column is
/// passed through unchanged but also read by `a` — factoring must
/// refuse the goals that leave it free — and whose useful residue needs
/// padding.
pub const EXAMPLE_2_1: &str = "p(X1, X2, X3, X4, X5, X6) :- e(X1, X2, X3, X4, X5, X6).
     p(X1, X2, X3, X4, X5, X6) :- a(X1, X2, X4), b(W2, X3), c(W3, W4, X5),
         d(W5, X6), p(X1, W2, W3, W4, W5, W6).
     ic: a(V1, V2, V3), b(V2, V4), c(V4, V5, V6) -> d(V6, V7).";

fn int(v: i64) -> Value {
    Value::Int(v)
}

/// `cases`, the first `full` of them through every route, the rest
/// through the static ones: a suite's seeds past its first few.
pub fn tiered(cases: impl IntoIterator<Item = Case>, full: usize) -> Vec<Case> {
    let cases = cases.into_iter().enumerate();
    let tier = |(i, case): (usize, Case)| if i < full { case } else { case.static_only() };
    cases.map(tier).collect()
}

/// A live tuple of `pred` drawn at random, if it has one.
fn live(db: &Database, pred: &str, rng: &mut Rng) -> Option<Tuple> {
    let rows = db.get(Pred::new(pred))?.sorted_tuples();
    (!rows.is_empty()).then(|| rows[rng.gen_range(0..rows.len())].clone())
}

/// Builds `steps` transactions with `next`, each drawn against the
/// database the earlier ones leave.
fn stream(edb: &Database, steps: usize, mut next: impl FnMut(usize, &Database) -> Tx) -> Vec<Tx> {
    let mut db = edb.clone();
    let mut txs = Vec::new();
    for step in 0..steps {
        let tx = next(step, &db);
        db.apply(&tx);
        db.compact_sparse();
        txs.push(tx);
    }
    txs
}

/// The three sample files with their facts, and Example 2.1 on one
/// chase-repaired random EDB per seed.
pub fn samples(seeds: Range<u64>) -> Vec<Case> {
    let mut cases = Vec::new();
    for name in ["genealogy.dl", "university.dl", "honors.dl"] {
        let path = format!("{}/samples/{name}", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(path).expect("sample");
        cases.push(Case::new(name, &src, Database::new()));
    }
    let ics = parse_unit(EXAMPLE_2_1).expect("example").constraints;
    for seed in seeds {
        let mut rng = Rng::seed_from_u64(0x21 + seed);
        let mut db = Database::new();
        for _ in 0..40 {
            for (p, n) in [("a", 3), ("b", 2), ("c", 3), ("d", 2), ("e", 6)] {
                if rng.gen_range(0..3usize) == 0 {
                    db.insert(p, (0..n).map(|_| int(rng.gen_range(0..4i64))).collect());
                }
            }
        }
        assert_eq!(repair(&mut db, &ics, 64), RepairOutcome::Satisfied);
        cases.push(Case::new(
            format!("example 2.1 seed {seed}"),
            EXAMPLE_2_1,
            db,
        ));
    }
    cases
}

/// The regression corpus: each `tests/regressions/NAME.dl` with the
/// transactions of its `NAME.tx`, if it has one, in name order.
pub fn regressions() -> Vec<Case> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/regressions");
    let mut units: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/regressions")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "dl"))
        .collect();
    units.sort();
    let case = |unit: std::path::PathBuf| {
        let name = unit.file_stem().expect("stem").to_string_lossy();
        let src = std::fs::read_to_string(&unit).expect("unit");
        let txs = match std::fs::read_to_string(unit.with_extension("tx")) {
            Ok(stream) => parse_txs(&stream).unwrap_or_else(|e| panic!("{name}.tx: {e}")),
            Err(_) => Vec::new(),
        };
        Case::new(name.into_owned(), &src, Database::new()).with_txs(txs)
    };
    units.into_iter().map(case).collect()
}

/// The soundness families of `common/compile.rs`, in turn: random edges
/// over `0..9` chase-repaired to the constraints (a seed whose chase
/// diverges is skipped), then three transactions of random inserts and
/// deletes that may break a constraint again.
pub fn families(seeds: Range<u64>) -> Vec<Case> {
    let mut cases = Vec::new();
    for seed in seeds {
        let mut rng = Rng::seed_from_u64(0x5047 + seed);
        let (name, src, edb, small) = FAMILIES[seed as usize % FAMILIES.len()];
        let edge = |rng: &mut Rng| vec![int(rng.gen_range(0..9i64)), int(rng.gen_range(0..9i64))];
        let mut db = Database::new();
        for i in 0..rng.gen_range(1..25usize) {
            db.insert(edb[i % edb.len()], edge(&mut rng));
        }
        let case = Case::new(format!("{name} seed {seed}"), src, Database::new()).small(small);
        if repair(&mut db, &case.ics, 64) != RepairOutcome::Satisfied {
            continue;
        }
        let txs = stream(&db, 3, |_, db| {
            let mut tx = Tx::new();
            for &p in edb {
                tx.insert(p, edge(&mut rng));
                if let Some(t) = live(db, p, &mut rng) {
                    tx.delete(p, t);
                }
            }
            tx
        });
        cases.push(Case { edb: db, ..case }.with_txs(txs));
    }
    cases
}

/// The five generated workloads at test size.
const WORKLOADS: [&str; 5] = ["fanout", "org", "university", "genealogy", "flights"];

/// One generated workload, its size parameters drawn from `seed`, with
/// two transactions on its largest EDB relation: the first deletes every
/// fifth row, the second inserts every other one of them back.
pub fn workload(kind: &str, seed: u64) -> Case {
    let mut rng = Rng::seed_from_u64(0x352 + seed);
    let name = format!("{kind} seed {seed}");
    let seed = rng.gen_range(0..500usize) as u64;
    let db = match kind {
        "fanout" => fanout::generate(&fanout::FanoutParams {
            nodes: 30,
            extra_edges: 20,
            fanout: rng.gen_range(1..6usize),
            seed,
        }),
        "org" => org::generate(&org::OrgParams {
            employees: 60,
            executive_frac: rng.gen_range(0..1000usize) as f64 / 1000.0,
            seed,
            ..org::OrgParams::default()
        }),
        "university" => university::generate(&university::UniversityParams {
            professors: 24,
            students: 40,
            chain_len: rng.gen_range(2..6usize),
            seed,
            ..university::UniversityParams::default()
        }),
        "genealogy" => genealogy::generate(&genealogy::GenealogyParams {
            families: 2,
            depth: rng.gen_range(1..5usize),
            branching: 2,
            seed,
        }),
        "flights" => flights::generate(&flights::FlightsParams {
            seed,
            ..flights::FlightsParams::default()
        }),
        _ => unreachable!("no workload {kind}"),
    };
    let (pred, rel) = db.iter().max_by_key(|(_, r)| r.len()).expect("facts");
    let gone: Vec<Tuple> = rel.sorted_tuples().into_iter().step_by(5).collect();
    let (mut cut, mut mend) = (Tx::new(), Tx::new());
    for (i, t) in gone.into_iter().enumerate() {
        if i % 2 == 0 {
            mend.insert(pred, t.clone());
        }
        cut.delete(pred, t);
    }
    generated(name, kind, db).with_txs(vec![cut, mend])
}

/// The generated workloads at the executor suite's larger sizes, the
/// witness guard at fanout 16 among them, each with a first fact taken
/// out and put back.
pub fn large_workloads() -> Vec<Case> {
    let dbs = [
        (
            "org",
            org::generate(&org::OrgParams {
                employees: 120,
                seed: 21,
                ..org::OrgParams::default()
            }),
        ),
        (
            "university",
            university::generate(&university::UniversityParams {
                professors: 30,
                students: 80,
                chain_len: 4,
                seed: 22,
                ..university::UniversityParams::default()
            }),
        ),
        (
            "genealogy",
            genealogy::generate(&genealogy::GenealogyParams {
                families: 3,
                depth: 4,
                branching: 3,
                seed: 23,
            }),
        ),
        (
            "fanout",
            fanout::generate(&fanout::FanoutParams {
                nodes: 48,
                extra_edges: 32,
                fanout: 16,
                seed: 24,
            }),
        ),
    ];
    let large = |(kind, db)| out_and_back(generated(format!("large {kind}"), kind, db));
    dbs.into_iter().map(large).collect()
}

/// Workload `kind`'s program over `db`.
fn generated(name: String, kind: &str, db: Database) -> Case {
    let src = match kind {
        "fanout" => fanout::PROGRAM,
        "org" => org::PROGRAM,
        "university" => university::PROGRAM,
        "genealogy" => genealogy::PROGRAM,
        _ => flights::PROGRAM,
    };
    let case = Case::new(name, src, db);
    match kind {
        "university" => case.small(&["doctoral"]),
        _ => case,
    }
}

/// Every generated workload for every seed.
pub fn workloads(seeds: Range<u64>) -> Vec<Case> {
    let each = |seed| WORKLOADS.map(|kind| workload(kind, seed));
    seeds.flat_map(each).collect()
}

/// Handwritten programs covering every plan feature the executor runs:
/// stratified negation, value-binding builtins before and after probes,
/// comparison filters and pure builtin checks, constants and computed
/// values in seed and probe keys, cross products, bodyless and nullary
/// rules, bodies wider than any fixed depth, multi-recursive rules.
const SHAPES: [(&str, &str); 9] = [
    ("closure", "t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), t(Z,Y)."),
    (
        "multi_recursive",
        "t(X,Y) :- e(X,Y). t(X,Z) :- t(X,Y), t(Y,Z).",
    ),
    (
        "negation",
        "reach(X,Y) :- edge(X,Y). reach(X,Y) :- reach(X,Z), edge(Z,Y).
         cut(X,Y) :- node(X), node(Y), !reach(X,Y).",
    ),
    (
        "builtins",
        "t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), t(Z,Y). big(X,Y) :- t(X,Y), Y > 50.
         succ_t(X,Z) :- t(X,Y), plus(Y, 1, Z). incr(X,Y) :- t(X,Y), plus(X, 1, Y).",
    ),
    (
        "const_keys",
        "from3(X) :- e(3, X). hop3(X,Y) :- e(X,Z), e(Z,Y), e(3, Z).
         t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), t(Z,Y). e(3, 7). e(3, 4). e(4, 5).",
    ),
    (
        "late_bind_neg_wide",
        "late_bind(X) :- e(X,Y), f(Y,W), plus(W, 1, Z), g(Z).
         unlinked(X,Z) :- e(X,Y), f(Y,Z), !e(X,Z).
         reach(X) :- e(0, X). reach(Y) :- reach(X), e(X, Y).
         node(X) :- e(X, Y). unreach(X) :- node(X), !reach(X), X != 0.
         walk7(A,H) :- e(A,B), e(B,C), e(C,D), e(D,E), e(E,F), e(F,G), e(G,H).",
    ),
    (
        "filter_and_builtin_tails",
        "big(X,Y) :- e(X,Z), Z > 2, e(Z,Y). incr(X,Y) :- e(X,Y), plus(X, 1, Y).
         succ(X,Z) :- e(X,Y), plus(Y, 1, Z). e(3, 7). e(3, 4). e(4, 5).",
    ),
    (
        "chain_and_islands",
        "t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), t(Z,Y). island(X) :- node(X), !reach(X).
         reach(X) :- e(0, X). reach(Y) :- reach(X), e(X, Y).
         node(X) :- e(X, Y). node(Y) :- e(X, Y).",
    ),
    (
        "unit_seed",
        "start(1, 2). gated(X,Y) :- e(X,Y). pairs(X,Y) :- small(X), small(Y).
         three(Y) :- plus(1, 2, Y), q(Y). from_start(Z) :- start(X, Y), plus(X, Y, Z), q(Z).",
    ),
];

/// [`SHAPES`] over random digraphs drawn from `seed`, each with a first
/// fact taken out and put back.
pub fn kernel_shapes(seeds: Range<u64>) -> Vec<Case> {
    let mut cases = Vec::new();
    for seed in seeds {
        for (name, src) in SHAPES {
            // Random digraphs (predicate, nodes, edges, seed) and unary
            // relations `0..n`.
            type Digraphs = &'static [(&'static str, usize, usize, u64)];
            let (digraphs, unary): (Digraphs, &[(&str, i64)]) = match name {
                "closure" => (&[("e", 120, 400, 25)], &[]),
                "multi_recursive" => (&[("e", 40, 90, 29)], &[]),
                "negation" => (&[("edge", 40, 80, 26)], &[("node", 40)]),
                "builtins" => (&[("e", 80, 200, 27)], &[]),
                "const_keys" => (&[("e", 60, 200, 28)], &[]),
                "late_bind_neg_wide" => (&[("e", 24, 40, 35), ("f", 24, 40, 36)], &[("g", 24)]),
                "filter_and_builtin_tails" => (&[("e", 30, 60, 31)], &[]),
                "unit_seed" => (&[("e", 12, 20, 38)], &[("small", 6), ("q", 6)]),
                _ => (&[], &[]),
            };
            let mut db = Database::new();
            for &(p, n, m, s) in digraphs {
                let g = graphs::random_digraph(p, n, m, s + seed);
                for row in g.get(Pred::new(p)).into_iter().flat_map(|r| r.tuples()) {
                    db.insert(p, row);
                }
            }
            for &(p, n) in unary {
                for i in 0..n {
                    db.insert(p, vec![int(i)]);
                }
            }
            if name == "chain_and_islands" {
                for i in (0..30i64).filter(|i| i % 7 != 6) {
                    db.insert("e", int_tuple(&[i, i + 1]));
                }
            }
            let mut case = Case::new(format!("{name} seed {seed}"), src, db);
            if name == "unit_seed" {
                // Bodyless rules, not facts; and a nullary gate, the shape
                // magic sets emits for an all-free goal, which the parser
                // cannot spell.
                case.program = src.parse().expect("program");
                let on = Atom::new("on", Vec::new());
                let gated = case
                    .program
                    .rules
                    .iter_mut()
                    .find(|r| r.head.pred.name() == "gated");
                gated
                    .expect("gated")
                    .body
                    .insert(0, Literal::Atom(on.clone()));
                case.program.rules.push(Rule::fact(on));
            }
            cases.push(out_and_back(case));
        }
    }
    cases
}

/// `case` with a transaction deleting the first fact of its first
/// non-empty relation and one inserting it back.
fn out_and_back(case: Case) -> Case {
    let (p, rel) = case.edb.iter().find(|(_, r)| !r.is_empty()).expect("facts");
    let first = rel.sorted_tuples().swap_remove(0);
    let (mut out, mut back) = (Tx::new(), Tx::new());
    out.delete(p, first.clone());
    back.insert(p, first);
    case.with_txs(vec![out, back])
}

/// Five rounds that derive every row four times, then one round that
/// derives 20 000 unique rows, 100x the relation's previous round: the
/// drain's membership table grows mid-insert.
pub fn duplicate_burst() -> Case {
    let mut db = Database::new();
    let node = |stage: i64, i: i64| int(stage * 100_000 + i);
    for i in 0..200i64 {
        db.insert("s0", vec![node(0, i)]);
    }
    for stage in 0..5i64 {
        for i in 0..200i64 {
            for j in 0..4i64 {
                db.insert(
                    "hop",
                    vec![node(stage, (i + 53 * j) % 200), node(stage + 1, i)],
                );
            }
        }
    }
    for i in 0..200i64 {
        for j in 0..100i64 {
            db.insert("hop", vec![node(5, i), node(6, i * 100 + j)]);
        }
    }
    let program = "p(Y) :- s0(Y). p(Z) :- p(Y), hop(Y, Z)."
        .parse()
        .expect("program");
    Case::of("duplicate burst", program, db)
}

/// Random graphs under the closures, by `kind`: `anc` left-linear and
/// `closure` right-linear over any edges, `acyclic` the closure over
/// forward edges only (so the top-down fixtures run too), and `random
/// linear` a program of `gen::programs::random_linear` with every EDB
/// predicate filled.
pub fn random_programs(kind: &str, seeds: Range<u64>) -> Vec<Case> {
    let graph = |pred: &str, edges: &[(i64, i64)]| {
        let mut db = Database::new();
        for &(a, b) in edges {
            db.insert(pred, int_tuple(&[a, b]));
        }
        db
    };
    let closure = "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, Z), t(Z, Y).";
    let mut cases = Vec::new();
    for seed in seeds {
        let mut rng = Rng::seed_from_u64(0x150 + seed);
        let m = rng.gen_range(1..40usize);
        let mut edges: Vec<(i64, i64)> = (0..m)
            .map(|_| (rng.gen_range(0..12i64), rng.gen_range(0..12i64)))
            .collect();
        let name = format!("{kind} seed {seed}");
        cases.push(match kind {
            "anc" => Case::new(
                name,
                "anc(X, Y) :- par(X, Y). anc(X, Y) :- anc(X, Z), par(Z, Y).",
                graph("par", &edges),
            ),
            "closure" => Case::new(name, closure, graph("e", &edges)),
            "acyclic" => {
                for (a, b) in &mut edges {
                    (*a, *b) = if a < b { (*a, *b) } else { (*b, *a + 12) };
                }
                let case = Case::new(name, closure, graph("e", &edges));
                Case {
                    acyclic: true,
                    ..case
                }
            }
            "random linear" => {
                let arity = rng.gen_range(1..4usize);
                let program = random_linear(&RandomLinearParams {
                    arity,
                    recursive_rules: rng.gen_range(1..3usize),
                    locals: rng.gen_range(0..3usize),
                    seed,
                });
                let mut db = Database::new();
                for &(a, b) in &edges {
                    let row = (0..arity).map(|i| int(if i % 2 == 0 { a } else { b }));
                    db.insert("e0", row.collect());
                }
                for pred in program.edb_preds() {
                    if pred.name().starts_with('b') {
                        for &(a, b) in &edges {
                            db.insert(pred, int_tuple(&[a, b]));
                        }
                    }
                }
                Case::of(name, program, db)
            }
            _ => unreachable!("no random program kind {kind}"),
        });
    }
    cases
}

/// A random tuple of a stream workload's predicate, from small domains
/// so re-inserts of live tuples and deletes of dead ones are common.
fn stream_tuple(pred: &str, rng: &mut Rng) -> Tuple {
    let mut r = |range: Range<i64>| int(rng.gen_range(range));
    match pred {
        "edge" => vec![r(0..45), r(0..45)],
        "witness" => {
            let v = rng.gen_range(0..45i64);
            vec![int(v), int(v * 1000 + rng.gen_range(0..4i64))]
        }
        "par" => vec![r(0..30), r(10..120), r(0..30), r(10..120)],
        _ => unreachable!("no stream predicate {pred}"),
    }
}

/// Adversarial transaction streams on the `fanout` or the `genealogy`
/// workload: phases of eight transactions alternate between deleting
/// live tuples (cascading through the recursion) and re-inserting what
/// earlier ones deleted, so tombstones pile up until relations compact;
/// also deletes of tuples that were never there, a tuple deleted and
/// re-inserted in one transaction, and an edge deleted together with
/// every witness of its target.
pub fn tx_streams(kind: &str, seeds: Range<u64>) -> Vec<Case> {
    let mut cases = Vec::new();
    for seed in seeds {
        let fanout = kind == "fanout";
        let (src, preds, db, steps): (_, &[&str], _, _) = if fanout {
            let db = fanout::generate(&fanout::FanoutParams {
                nodes: 24,
                extra_edges: 12,
                fanout: 2,
                seed,
            });
            (fanout::PROGRAM, &["edge", "witness"], db, 48)
        } else {
            let db = genealogy::generate(&genealogy::GenealogyParams {
                families: 2,
                depth: 4,
                branching: 2,
                seed,
            });
            (genealogy::PROGRAM, &["par"], db, 40)
        };
        let mut rng = Rng::seed_from_u64(seed);
        let mut graveyard: Vec<(&str, Tuple)> = Vec::new();
        let txs = stream(&db, steps, |step, db| {
            let pick = |rng: &mut Rng| preds[rng.gen_range(0..preds.len())];
            let (inserts, deletes) = match (step / 8) % 2 {
                0 => (0..2usize, 1..5usize),
                _ => (2..5, 0..2),
            };
            let mut tx = Tx::new();
            for _ in 0..rng.gen_range(inserts) {
                if !graveyard.is_empty() && rng.gen_bool(0.8) {
                    let (p, t) = graveyard.swap_remove(rng.gen_range(0..graveyard.len()));
                    tx.insert(p, t);
                } else {
                    let p = pick(&mut rng);
                    tx.insert(p, stream_tuple(p, &mut rng));
                }
            }
            for _ in 0..rng.gen_range(deletes) {
                let p = pick(&mut rng);
                let t = match rng.gen_bool(0.8) {
                    true => live(db, p, &mut rng),
                    false => Some(stream_tuple(p, &mut rng)),
                };
                if let Some(t) = t {
                    graveyard.push((p, t.clone()));
                    tx.delete(p, t);
                }
            }
            if rng.gen_bool(0.3) {
                let p = pick(&mut rng);
                if let Some(t) = live(db, p, &mut rng) {
                    tx.delete(p, t.clone());
                    tx.insert(p, t);
                }
            }
            if fanout && rng.gen_bool(0.2) {
                if let Some(e) = live(db, "edge", &mut rng) {
                    let witnesses = db.get(Pred::new("witness")).expect("witness");
                    for w in witnesses.tuples().filter(|w| w[0] == e[1]) {
                        graveyard.push(("witness", w.clone()));
                        tx.delete("witness", w);
                    }
                    graveyard.push(("edge", e.clone()));
                    tx.delete("edge", e);
                }
            }
            tx
        });
        cases.push(Case::new(format!("{kind} stream seed {seed}"), src, db).with_txs(txs));
    }
    cases
}

/// The EDB of the random-constraint cases: two binary predicates and a
/// unary one, over a domain small enough that joins and collisions are
/// common.
const EDB: [(&str, usize); 3] = [("a", 2), ("b", 2), ("c", 1)];
const DOMAIN: i64 = 6;

/// Program shapes over that EDB: linear and non-linear recursion,
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

fn domain_tuple(rng: &mut Rng, arity: usize) -> Tuple {
    (0..arity).map(|_| int(rng.gen_range(0..DOMAIN))).collect()
}

/// A predicate of the EDB at its arity, so `check` accepts every case
/// and none skips the router's leg of the matrix (arity clashes are
/// `check_agreement`'s and `cli`'s).
fn random_pred(rng: &mut Rng) -> (&'static str, usize) {
    EDB[rng.gen_range(0..EDB.len())]
}

/// A random constraint: one to three body atoms with repeated variables
/// and constants, up to one comparison over bound variables, and a
/// denial, comparison or atom head — the atom's variables bound,
/// constant, or existential (now and then repeated).
pub fn random_ic(rng: &mut Rng) -> Constraint {
    let var = |rng: &mut Rng, pool: &[&str]| Term::var(pool[rng.gen_range(0..pool.len())]);
    let mut atoms: Vec<Atom> = Vec::new();
    for _ in 0..rng.gen_range(1..4usize) {
        let (p, n) = random_pred(rng);
        let args = (0..n)
            .map(|_| match rng.gen_bool(0.15) {
                true => Term::int(rng.gen_range(0..DOMAIN)),
                false => var(rng, &["X", "Y", "Z", "U"]),
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

/// Random constraints over random EDBs: per seed one of the program
/// shapes, four random constraints, and six transactions that delete
/// live tuples, absent ones and a tuple re-inserted in the same
/// transaction, and insert random ones.
pub fn random_constraints(seeds: Range<u64>) -> Vec<Case> {
    let mut cases = Vec::new();
    for seed in seeds {
        let mut rng = Rng::seed_from_u64(seed);
        let mut db = Database::new();
        for (p, n) in EDB {
            for _ in 0..rng.gen_range(4..14usize) {
                db.insert(p, domain_tuple(&mut rng, n));
            }
        }
        let src = PROGRAMS[seed as usize % PROGRAMS.len()];
        let mut case = Case::new(
            format!("random constraints seed {seed}"),
            src,
            Database::new(),
        );
        case.ics = (0..4).map(|_| random_ic(&mut rng)).collect();
        let txs = stream(&db, 6, |_, db| {
            let mut tx = Tx::new();
            for _ in 0..rng.gen_range(0..4usize) {
                let (p, n) = EDB[rng.gen_range(0..EDB.len())];
                match live(db, p, &mut rng).filter(|_| rng.gen_bool(0.8)) {
                    Some(t) => {
                        if rng.gen_bool(0.15) {
                            tx.insert(p, t.clone());
                        }
                        tx.delete(p, t);
                    }
                    None => tx.delete(p, domain_tuple(&mut rng, n)),
                }
            }
            for _ in 0..rng.gen_range(0..4usize) {
                let (p, n) = EDB[rng.gen_range(0..EDB.len())];
                tx.insert(p, domain_tuple(&mut rng, n));
            }
            tx
        });
        cases.push(Case { edb: db, ..case }.with_txs(txs));
    }
    cases
}

/// The serving suite's program: guarded reachability, whose constraint
/// lets the optimizer drop the `witness` subgoal.
pub const GUARDED_REACH: &str = "reach(X, Y) :- edge(X, Y).
    reach(X, Y) :- edge(X, Z), witness(Z, W), reach(Z, Y).
    ic ic1: edge(X, Z) -> witness(Z, W).
    edge(1, 2). edge(2, 3).
    witness(1, 100). witness(2, 200). witness(3, 300).";

/// Commits per [`serve_txs`] sequence.
pub const COMMITS: usize = 8;

/// Witnessed chain growth over [`GUARDED_REACH`] with one violation and
/// its repair (commits 3 and 5), so a sequence crosses a route
/// invalidation and a recovery.
pub fn serve_txs(seed: u64) -> Vec<Tx> {
    let mut rng = Rng::seed_from_u64(0xA9EE + seed);
    let mut next = 4i64;
    let mut txs = Vec::new();
    for i in 0..COMMITS {
        let mut tx = Tx::new();
        match i {
            3 => tx.insert("edge", int_tuple(&[2, 666])),
            5 => tx.delete("edge", int_tuple(&[2, 666])),
            _ => {
                tx.insert("edge", int_tuple(&[rng.gen_range(1..next), next]));
                tx.insert("witness", int_tuple(&[next, next * 1000]));
                next += 1;
            }
        }
        txs.push(tx);
    }
    txs
}
