//! Randomized equivalence tests: the paper's Theorem 4.1 (isolation
//! preserves semantics on *all* databases) and the soundness of pushing
//! (the optimized program agrees on every *IC-satisfying* database).
//!
//! Formerly a `proptest` suite; rewritten as seeded loops over the
//! workspace's own SplitMix64 PRNG so plain `cargo test -q` needs no
//! registry access (offline-build policy). Coverage is equivalent: each
//! test draws the same parameter ranges across a fixed number of cases,
//! and every case is reproducible from the printed seed.

#[path = "common/naive.rs"]
mod naive;

use semrec::core::isolate::isolate;
use semrec::core::optimizer::{Optimizer, OptimizerConfig};
use semrec::core::sequence::unfold;
use semrec::datalog::analysis::{classify_linear_pred, rectify};
use semrec::datalog::parser::parse_unit;
use semrec::datalog::{Pred, Value};
use semrec::engine::{evaluate, Database, Strategy};
use semrec::gen::rng::Rng;
use semrec::gen::{fanout, genealogy, org, parse_scenario, university};

fn random_graph_db(pred: &str, edges: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    for &(a, b) in edges {
        db.insert(pred, vec![Value::Int(a), Value::Int(b)]);
    }
    db
}

fn random_edges(rng: &mut Rng, nodes: i64, max_edges: usize) -> Vec<(i64, i64)> {
    let m = rng.gen_range(1..max_edges.max(2));
    (0..m)
        .map(|_| (rng.gen_range(0..nodes), rng.gen_range(0..nodes)))
        .collect()
}

/// Theorem 4.1: the α/β/γ isolation of any expansion sequence computes
/// the same IDB as the original program, on arbitrary databases (no IC
/// involvement at all).
#[test]
fn isolation_preserves_semantics() {
    for case in 0u64..48 {
        let mut rng = Rng::seed_from_u64(0x150 + case);
        let edges = random_edges(&mut rng, 14, 40);
        let seq_len = rng.gen_range(1..4usize);

        let unit =
            parse_unit("anc(X, Y) :- par(X, Y). anc(X, Y) :- anc(X, Z), par(Z, Y).").unwrap();
        let (prog, _) = rectify(&unit.program());
        let info = classify_linear_pred(&prog, Pred::new("anc")).unwrap();
        // Sequence: recursive rules, with an optional exit-rule ending.
        let mut seq: Vec<usize> = vec![1; seq_len];
        if rng.gen_bool(0.5) {
            seq.push(0);
        }
        let u = unfold(&prog, &info, &seq).unwrap();
        let iso = isolate(&prog, &info, &u);

        let db = random_graph_db("par", &edges);
        let base = evaluate(&db, &prog, Strategy::SemiNaive).unwrap();
        let isod = evaluate(&db, &iso.program, Strategy::SemiNaive).unwrap();
        assert_eq!(
            base.relation("anc").unwrap().sorted_tuples(),
            isod.relation("anc").unwrap().sorted_tuples(),
            "case {case}"
        );
    }
}

/// The naive oracle and semi-naive evaluation agree on random graphs.
#[test]
fn naive_equals_seminaive() {
    for case in 0u64..48 {
        let mut rng = Rng::seed_from_u64(0x251 + case);
        let edges = random_edges(&mut rng, 12, 50);
        let prog = parse_unit("t(X, Y) :- e(X, Y). t(X, Y) :- e(X, Z), t(Z, Y).")
            .unwrap()
            .program();
        let db = random_graph_db("e", &edges);
        let a = naive::naive_idb(&db, &prog);
        let b = evaluate(&db, &prog, Strategy::SemiNaive).unwrap();
        assert_eq!(
            a[&Pred::new("t")].iter().cloned().collect::<Vec<_>>(),
            b.relation("t").unwrap().sorted_tuples(),
            "case {case}"
        );
    }
}

/// The fully optimized org program agrees with the original on every
/// generated IC-consistent database.
#[test]
fn org_optimization_sound() {
    let s = parse_scenario(org::PROGRAM);
    let plan = Optimizer::new(&s.program)
        .with_constraints(&s.constraints)
        .run()
        .unwrap();
    for case in 0u64..48 {
        let mut rng = Rng::seed_from_u64(0x352 + case);
        let seed = rng.gen_range(0..500usize) as u64;
        let frac = rng.gen_range(0..1000usize) as f64 / 1000.0;
        let db = org::generate(&org::OrgParams {
            employees: 60,
            executive_frac: frac,
            seed,
            ..org::OrgParams::default()
        });
        for ic in &s.constraints {
            assert!(db.satisfies(ic), "case {case}");
        }
        let base = evaluate(&db, &plan.rectified, Strategy::SemiNaive).unwrap();
        let opt = evaluate(&db, &plan.program, Strategy::SemiNaive).unwrap();
        assert_eq!(
            base.relation("triple").unwrap().sorted_tuples(),
            opt.relation("triple").unwrap().sorted_tuples(),
            "case {case} seed {seed}"
        );
    }
}

/// Same for the university program (elimination + introduction).
#[test]
fn university_optimization_sound() {
    let s = parse_scenario(university::PROGRAM);
    let mut config = OptimizerConfig::default();
    config.policy.small_relations.insert(Pred::new("doctoral"));
    let plan = Optimizer::new(&s.program)
        .with_constraints(&s.constraints)
        .with_config(config)
        .run()
        .unwrap();
    for case in 0u64..24 {
        let mut rng = Rng::seed_from_u64(0x453 + case);
        let seed = rng.gen_range(0..500usize) as u64;
        let chain = rng.gen_range(2..6usize);
        let db = university::generate(&university::UniversityParams {
            professors: 24,
            students: 40,
            chain_len: chain,
            seed,
            ..university::UniversityParams::default()
        });
        let base = evaluate(&db, &plan.rectified, Strategy::SemiNaive).unwrap();
        let opt = evaluate(&db, &plan.program, Strategy::SemiNaive).unwrap();
        for p in ["eval", "eval_support"] {
            assert_eq!(
                base.relation(p).unwrap().sorted_tuples(),
                opt.relation(p).unwrap().sorted_tuples(),
                "case {case} seed {seed} pred {p}"
            );
        }
    }
}

/// Same for the genealogy program (conditional pruning).
#[test]
fn genealogy_optimization_sound() {
    let s = parse_scenario(genealogy::PROGRAM);
    let plan = Optimizer::new(&s.program)
        .with_constraints(&s.constraints)
        .run()
        .unwrap();
    for case in 0u64..24 {
        let mut rng = Rng::seed_from_u64(0x554 + case);
        let seed = rng.gen_range(0..500usize) as u64;
        let depth = rng.gen_range(1..5usize);
        let db = genealogy::generate(&genealogy::GenealogyParams {
            families: 2,
            depth,
            branching: 2,
            seed,
        });
        for ic in &s.constraints {
            assert!(db.satisfies(ic), "case {case}");
        }
        let base = evaluate(&db, &plan.rectified, Strategy::SemiNaive).unwrap();
        let opt = evaluate(&db, &plan.program, Strategy::SemiNaive).unwrap();
        assert_eq!(
            base.relation("anc").unwrap().sorted_tuples(),
            opt.relation("anc").unwrap().sorted_tuples(),
            "case {case} seed {seed}"
        );
    }
}

/// Same for the guarded-reachability program (k = 1 elimination).
#[test]
fn fanout_optimization_sound() {
    let s = parse_scenario(fanout::PROGRAM);
    let plan = Optimizer::new(&s.program)
        .with_constraints(&s.constraints)
        .run()
        .unwrap();
    for case in 0u64..24 {
        let mut rng = Rng::seed_from_u64(0x655 + case);
        let seed = rng.gen_range(0..500usize) as u64;
        let fo = rng.gen_range(1..6usize);
        let db = fanout::generate(&fanout::FanoutParams {
            nodes: 30,
            extra_edges: 20,
            fanout: fo,
            seed,
        });
        let base = evaluate(&db, &plan.rectified, Strategy::SemiNaive).unwrap();
        let opt = evaluate(&db, &plan.program, Strategy::SemiNaive).unwrap();
        assert_eq!(
            base.relation("reach").unwrap().sorted_tuples(),
            opt.relation("reach").unwrap().sorted_tuples(),
            "case {case} seed {seed}"
        );
    }
}

/// Magic-sets evaluation is sound and complete w.r.t. full evaluation,
/// for random goal bindings.
#[test]
fn magic_query_complete() {
    let prog = parse_unit("t(X, Y) :- e(X, Y). t(X, Y) :- e(X, Z), t(Z, Y).")
        .unwrap()
        .program();
    for case in 0u64..48 {
        let mut rng = Rng::seed_from_u64(0x756 + case);
        let edges = random_edges(&mut rng, 12, 40);
        let bind_first = rng.gen_bool(0.5);
        let value = rng.gen_range(0..12i64);
        let db = random_graph_db("e", &edges);
        let goal = if bind_first {
            semrec::datalog::parser::parse_atom(&format!("t({value}, Y)")).unwrap()
        } else {
            semrec::datalog::parser::parse_atom(&format!("t(X, {value})")).unwrap()
        };
        let (mut answers, _) = semrec::engine::magic::evaluate_query(&db, &prog, &goal).unwrap();
        answers.sort();
        let full = evaluate(&db, &prog, Strategy::SemiNaive).unwrap();
        let mut expected = full.answers(&goal);
        expected.sort();
        expected.dedup();
        assert_eq!(answers, expected, "case {case}");
    }
}

/// Theorem 4.1 on *random* linear programs: isolation of a random
/// sequence preserves the IDB on random databases.
#[test]
fn isolation_preserves_semantics_on_random_programs() {
    use semrec::gen::programs::{random_linear, RandomLinearParams};
    for case in 0u64..32 {
        let mut rng = Rng::seed_from_u64(0x857 + case);
        let seed = rng.gen_range(0..300usize) as u64;
        let arity = rng.gen_range(1..4usize);
        let nrules = rng.gen_range(1..3usize);
        let locals = rng.gen_range(0..3usize);
        let seq_len = rng.gen_range(1..4usize);
        let close_with_exit = rng.gen_bool(0.5);
        let edges = random_edges(&mut rng, 6, 20);

        let program = random_linear(&RandomLinearParams {
            arity,
            recursive_rules: nrules,
            locals,
            seed,
        });
        let (prog, _) = rectify(&program);
        let info = classify_linear_pred(&prog, Pred::new("p")).unwrap();

        // A random sequence over the recursive rules, optionally closed by
        // the exit rule.
        let mut seq: Vec<usize> = (0..seq_len)
            .map(|i| info.recursive_rules[(seed as usize + i) % info.recursive_rules.len()])
            .collect();
        if close_with_exit {
            seq.push(info.exit_rules[0]);
        }
        let u = unfold(&prog, &info, &seq).unwrap();
        let iso = isolate(&prog, &info, &u);

        // Fill every EDB predicate with the same random binary data; the
        // exit relation gets `arity`-wide tuples.
        let mut db = Database::new();
        for (a, b) in &edges {
            let tuple: Vec<Value> = (0..arity)
                .map(|i| Value::Int(if i % 2 == 0 { *a } else { *b }))
                .collect();
            db.insert("e0", tuple);
        }
        for pred in prog.edb_preds() {
            if pred.name().starts_with('b') {
                for (a, b) in &edges {
                    db.insert(pred, vec![Value::Int(*a), Value::Int(*b)]);
                }
            }
        }

        let base = evaluate(&db, &prog, Strategy::SemiNaive).unwrap();
        let isod = evaluate(&db, &iso.program, Strategy::SemiNaive).unwrap();
        assert_eq!(
            base.relation("p").unwrap().sorted_tuples(),
            isod.relation("p").unwrap().sorted_tuples(),
            "case {case} seed {seed} seq {seq:?} program:\n{prog}"
        );

        // The full-commitment structure used by the pusher must also be
        // equivalence-preserving when no optimization is applied.
        let pusher = semrec::core::push::Pusher::new(&prog, &info, &u);
        let committed = semrec::core::push::replace_blocks(
            &prog,
            std::collections::BTreeMap::from([(info.pred, pusher.finish().rules)]),
        );
        let com = evaluate(&db, &committed, Strategy::SemiNaive).unwrap();
        assert_eq!(
            base.relation("p").unwrap().sorted_tuples(),
            com.relation("p").unwrap().sorted_tuples(),
            "commitment structure diverged for case {case} seed {seed} seq {seq:?}"
        );
    }
}
