//! Goal-directed routing agrees with the naive oracle. For every input —
//! the samples, the paper's Example 2.1, the soundness families on
//! repaired random data and the five generated workloads — every binding
//! pattern of every recursive predicate is asked, with constants from
//! the predicate's own tuples and one constant no input holds. Each goal
//! is answered by every goal-directed alternative `route_alternatives`
//! enumerates (magic sets and factoring, of the program as written and of
//! the residue-pushed one) and by `evaluate_routed`, and each answer must
//! be `tests/common/naive.rs`'s fixpoint filtered by the goal.

#[path = "common/compile.rs"]
mod compile;
#[path = "common/naive.rs"]
mod naive;

use semrec::core::optimizer::{evaluate_routed, route_alternatives, Optimizer, OptimizerConfig};
use semrec::datalog::analysis::classify_linear;
use semrec::datalog::parser::parse_unit;
use semrec::datalog::{Atom, Constraint, Pred, Program, Term, Value};
use semrec::engine::{evaluate, scan_goal, Budget, CancelToken, Database, Strategy};
use semrec::gen::repair::{repair, RepairOutcome};
use semrec::gen::rng::Rng;
use semrec::gen::{fanout, flights, genealogy, org, parse_scenario, university};
use std::collections::BTreeMap;

struct Case {
    name: String,
    program: Program,
    ics: Vec<Constraint>,
    config: OptimizerConfig,
    db: Database,
}

impl Case {
    fn new(name: &str, src: &str, db: Database) -> Case {
        let unit = parse_unit(src).unwrap();
        Case {
            name: name.to_owned(),
            program: unit.program(),
            ics: unit.constraints,
            config: OptimizerConfig::default(),
            db,
        }
    }
}

/// Goals per goal-directed alternative kind, across one suite.
type Enumerated = BTreeMap<&'static str, usize>;

/// Every binding pattern of `p`: all free once, then for each pattern
/// with a bound position the constants of two of `p`'s tuples and of an
/// absent value.
fn goals(p: Pred, arity: usize, rows: &[Vec<Value>]) -> Vec<Atom> {
    let absent = vec![Value::Int(-987_654_321); arity];
    let mut picks: Vec<&Vec<Value>> = rows.iter().take(1).collect();
    picks.extend(rows.get(rows.len() / 2));
    picks.push(&absent);
    let mut out = Vec::new();
    for mask in 0..1u32 << arity {
        for row in if mask == 0 { &picks[..1] } else { &picks[..] } {
            let args = (0..arity)
                .map(|i| match mask >> i & 1 {
                    1 => Term::Const(row[i]),
                    _ => Term::var(&format!("V{i}")),
                })
                .collect();
            out.push(Atom::new(p, args));
        }
    }
    out
}

fn check(case: &Case, seen: &mut Enumerated) {
    let plan = Optimizer::new(&case.program)
        .with_constraints(&case.ics)
        .with_config(case.config.clone())
        .run()
        .unwrap_or_else(|e| panic!("{}: optimize: {e}", case.name));
    let oracle = naive::naive_idb(&case.db, &case.program);
    for info in classify_linear(&case.program).unwrap() {
        let rows: Vec<Vec<Value>> = oracle[&info.pred].iter().cloned().collect();
        for goal in goals(info.pred, info.arity, &rows) {
            let ctx = format!("{}: goal {goal}", case.name);
            let want = naive::goal_answers(&oracle, &goal);
            let (alts, answer) = route_alternatives(&case.program, &plan, Some(&goal));
            for (kind, program) in alts.iter().filter(|(k, _)| k.is_goal_directed()) {
                *seen.entry(kind.name()).or_default() += 1;
                let res = evaluate(&case.db, program, Strategy::SemiNaive)
                    .unwrap_or_else(|e| panic!("{ctx}: {kind}: {e}"));
                let answers = answer.and_then(|a| res.relation(a));
                let mut got = answers.map_or_else(Vec::new, |rel| scan_goal(rel, &goal));
                got.sort();
                assert_eq!(got, want, "{ctx}: {kind} over\n{program}");
            }
            let routed = evaluate_routed(
                &case.db,
                &case.program,
                &case.ics,
                case.config.clone(),
                Budget::unlimited(),
                CancelToken::new(),
                Some(&goal),
            )
            .unwrap_or_else(|e| panic!("{ctx}: routed: {e}"));
            assert!(routed.degraded.is_none(), "{ctx}: {:?}", routed.degraded);
            let mut got = routed.result.answers(&goal);
            got.sort();
            let chosen = routed.result.choice.as_ref().map(|c| c.chosen.name());
            assert_eq!(got, want, "{ctx}: routed through {chosen:?}");
        }
    }
}

/// Edges over `0..9` for each EDB predicate in turn, chase-repaired to
/// the constraints; `None` when the chase diverges.
fn repaired(edb: &[&str], ics: &[Constraint], rng: &mut Rng) -> Option<Database> {
    let mut db = Database::new();
    for i in 0..rng.gen_range(4..24usize) {
        let (a, b) = (rng.gen_range(0..9i64), rng.gen_range(0..9i64));
        db.insert(edb[i % edb.len()], vec![Value::Int(a), Value::Int(b)]);
    }
    (repair(&mut db, ics, 64) == RepairOutcome::Satisfied).then_some(db)
}

fn assert_enumerated(seen: &Enumerated, kinds: &[&str]) {
    eprintln!("goal-directed alternatives enumerated: {seen:?}");
    for k in kinds {
        assert!(seen.contains_key(k), "{k} never enumerated: {seen:?}");
    }
}

#[test]
fn samples_and_paper_examples_agree() {
    let mut seen = Enumerated::new();
    for name in ["genealogy.dl", "university.dl", "honors.dl"] {
        let path = format!("{}/samples/{name}", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(path).unwrap();
        let db = Database::from_facts(&parse_unit(&src).unwrap().facts);
        check(&Case::new(name, &src, db), &mut seen);
    }
    // Example 2.1: a six-column recursion whose first column is passed
    // through unchanged but also read by `a` — factoring must refuse the
    // goals that leave it free.
    let src = "p(X1, X2, X3, X4, X5, X6) :- e(X1, X2, X3, X4, X5, X6).
         p(X1, X2, X3, X4, X5, X6) :- a(X1, X2, X4), b(W2, X3), c(W3, W4, X5),
             d(W5, X6), p(X1, W2, W3, W4, W5, W6).
         ic: a(V1, V2, V3), b(V2, V4), c(V4, V5, V6) -> d(V6, V7).";
    let ics = parse_unit(src).unwrap().constraints;
    let mut rng = Rng::seed_from_u64(0x2_1);
    let mut db = Database::new();
    for _ in 0..40 {
        let v = |rng: &mut Rng| Value::Int(rng.gen_range(0..4i64));
        for (p, n) in [("a", 3), ("b", 2), ("c", 3), ("d", 2), ("e", 6)] {
            if rng.gen_range(0..3usize) == 0 {
                db.insert(p, (0..n).map(|_| v(&mut rng)).collect());
            }
        }
    }
    assert_eq!(repair(&mut db, &ics, 64), RepairOutcome::Satisfied);
    check(&Case::new("example 2.1", src, db), &mut seen);
    assert_enumerated(&seen, &["magic", "pushed_magic", "factored"]);
}

#[test]
fn soundness_families_agree_on_repaired_random_data() {
    let mut seen = Enumerated::new();
    for (name, src, edb, small) in compile::FAMILIES {
        let mut case = Case::new(name, src, Database::new());
        for s in *small {
            case.config.policy.small_relations.insert(Pred::new(s));
        }
        let mut rng = Rng::seed_from_u64(0x60A1_D1EC);
        let mut drawn = 0;
        while drawn < 3 {
            if let Some(db) = repaired(edb, &case.ics, &mut rng) {
                case.db = db;
                check(&case, &mut seen);
                drawn += 1;
            }
        }
    }
    assert_enumerated(
        &seen,
        &["magic", "pushed_magic", "factored", "pushed_factored"],
    );
}

#[test]
fn generated_workloads_agree() {
    let workloads = [
        (
            "fanout",
            fanout::PROGRAM,
            fanout::generate(&fanout::FanoutParams {
                nodes: 40,
                extra_edges: 20,
                fanout: 3,
                seed: 31,
            }),
        ),
        (
            "org",
            org::PROGRAM,
            org::generate(&org::OrgParams {
                employees: 60,
                seed: 32,
                ..org::OrgParams::default()
            }),
        ),
        (
            "university",
            university::PROGRAM,
            university::generate(&university::UniversityParams {
                professors: 12,
                students: 30,
                seed: 33,
                ..university::UniversityParams::default()
            }),
        ),
        (
            "genealogy",
            genealogy::PROGRAM,
            genealogy::generate(&genealogy::GenealogyParams {
                families: 2,
                depth: 4,
                branching: 2,
                seed: 34,
            }),
        ),
        (
            "flights",
            flights::PROGRAM,
            flights::generate(&flights::FlightsParams {
                seed: 35,
                ..flights::FlightsParams::default()
            }),
        ),
    ];
    let mut seen = Enumerated::new();
    for (name, src, db) in workloads {
        let s = parse_scenario(src);
        let case = Case {
            name: name.to_owned(),
            program: s.program,
            ics: s.constraints,
            config: OptimizerConfig::default(),
            db,
        };
        check(&case, &mut seen);
    }
    assert_enumerated(
        &seen,
        &["magic", "pushed_magic", "factored", "pushed_factored"],
    );
}
