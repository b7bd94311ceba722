//! Cross-cutting integration tests: the evaluation-based baseline agrees
//! with plain evaluation, Algorithm 3.1 agrees with exhaustive
//! enumeration, and magic sets composes with the optimized programs.

use semrec::core::detect::{detect, DetectionMethod};
use semrec::core::optimizer::Optimizer;
use semrec::datalog::analysis::{classify_linear_pred, rectify};
use semrec::datalog::parser::parse_atom;
use semrec::datalog::Pred;
use semrec::engine::magic::evaluate_query;
use semrec::engine::{evaluate, Strategy};
use semrec::gen::{genealogy, org, parse_scenario, university};
use semrec_bench::fixtures::runtime_baseline::evaluate_with_runtime_semantics;

#[test]
fn runtime_baseline_agrees_on_all_scenarios() {
    for (src, gen_db, preds) in [
        (
            org::PROGRAM,
            org::generate(&org::OrgParams {
                employees: 80,
                ..org::OrgParams::default()
            }),
            vec!["triple"],
        ),
        (
            university::PROGRAM,
            university::generate(&university::UniversityParams {
                professors: 24,
                students: 40,
                ..university::UniversityParams::default()
            }),
            vec!["eval", "eval_support"],
        ),
        (
            genealogy::PROGRAM,
            genealogy::generate(&genealogy::GenealogyParams {
                families: 2,
                depth: 4,
                ..genealogy::GenealogyParams::default()
            }),
            vec!["anc"],
        ),
    ] {
        let s = parse_scenario(src);
        let base = evaluate(&gen_db, &s.program, Strategy::SemiNaive).unwrap();
        let rt = evaluate_with_runtime_semantics(&gen_db, &s.program, &s.constraints).unwrap();
        for p in preds {
            assert_eq!(
                base.relation(p).unwrap().sorted_tuples(),
                rt.result.relation(p).unwrap().sorted_tuples(),
                "baseline mismatch on {p}"
            );
        }
        // The run-time overhead is per-iteration: residue computations grow
        // with rounds.
        assert!(rt.residue_computations >= rt.rounds);
    }
}

#[test]
fn sdgraph_detections_are_a_subset_of_exhaustive() {
    for (src, pred) in [
        (org::PROGRAM, "triple"),
        (university::PROGRAM, "eval"),
        (genealogy::PROGRAM, "anc"),
    ] {
        let s = parse_scenario(src);
        let (prog, _) = rectify(&s.program);
        let info = classify_linear_pred(&prog, Pred::new(pred)).unwrap();
        for ic in &s.constraints {
            let sd = detect(&prog, &info, ic, DetectionMethod::SdGraph, 2).unwrap();
            let ex = detect(
                &prog,
                &info,
                ic,
                DetectionMethod::Exhaustive { max_len: 6 },
                2,
            )
            .unwrap();
            for d in &sd {
                if d.seq.len() <= 6 {
                    assert!(
                        ex.iter()
                            .any(|e| e.seq == d.seq && e.head == d.head && e.body == d.body),
                        "SD-graph residue {} on {:?} missing from exhaustive",
                        d,
                        d.seq
                    );
                }
            }
        }
    }
}

#[test]
fn magic_composes_with_optimized_programs() {
    let s = parse_scenario(genealogy::PROGRAM);
    let plan = Optimizer::new(&s.program)
        .with_constraints(&s.constraints)
        .run()
        .unwrap();
    let db = genealogy::generate(&genealogy::GenealogyParams::default());

    // Bind the descendant (first argument) and compare the three ways.
    let goal = parse_atom("anc(7, Xa, Y, Ya)").unwrap();
    let (a_orig, _) = evaluate_query(&db, &plan.rectified, &goal)
        .expect("magic sets apply")
        .unwrap();
    let (a_opt, _) = evaluate_query(&db, &plan.program, &goal)
        .expect("magic sets apply")
        .unwrap();
    let full = evaluate(&db, &plan.rectified, Strategy::SemiNaive).unwrap();
    let mut expected = full.answers(&goal);
    expected.sort();
    expected.dedup();
    assert_eq!(a_orig, expected);
    assert_eq!(a_opt, expected);
}

#[test]
fn optimizer_is_idempotent_enough_to_rerun_unchanged_inputs() {
    // Determinism: two runs produce the same program text.
    let s = parse_scenario(org::PROGRAM);
    let p1 = Optimizer::new(&s.program)
        .with_constraints(&s.constraints)
        .run()
        .unwrap();
    let p2 = Optimizer::new(&s.program)
        .with_constraints(&s.constraints)
        .run()
        .unwrap();
    assert_eq!(p1.program.to_string(), p2.program.to_string());
}

/// Two recursive predicates, each with its own IC, optimized in one pass —
/// exercises the optimizer's per-predicate merge.
#[test]
fn two_recursive_predicates_optimized_together() {
    use semrec::datalog::Value;
    use semrec::engine::Database;
    let unit = semrec::datalog::parser::parse_unit(
        "reach(X, Y) :- edge(X, Y).
         reach(X, Y) :- edge(X, Z), witness(Z, W), reach(Z, Y).
         ship(X, Y) :- lane(X, Y).
         ship(X, Y) :- lane(X, Z), port(Z), ship(Z, Y).
         ic ic1: edge(X, Z) -> witness(Z, W).
         ic ic2: lane(X, Z) -> port(Z).",
    )
    .unwrap();
    let plan = Optimizer::new(&unit.program())
        .with_constraints(&unit.constraints)
        .run()
        .unwrap();
    // Both predicates got their elimination.
    assert!(plan.chosen.contains_key(&Pred::new("reach")));
    assert!(plan.chosen.contains_key(&Pred::new("ship")));
    assert_eq!(plan.applied.len(), 2);

    // IC-consistent data for both closures.
    let mut db = Database::new();
    for (a, b) in [(0i64, 1i64), (1, 2), (2, 3)] {
        db.insert("edge", vec![Value::Int(a), Value::Int(b)]);
        db.insert("witness", vec![Value::Int(b), Value::Int(100 + b)]);
        db.insert("lane", vec![Value::Int(10 + a), Value::Int(10 + b)]);
        db.insert("port", vec![Value::Int(10 + b)]);
    }
    for ic in &unit.constraints {
        assert!(db.satisfies(ic));
    }
    let base = evaluate(&db, &plan.rectified, Strategy::SemiNaive).unwrap();
    let opt = evaluate(&db, &plan.program, Strategy::SemiNaive).unwrap();
    for p in ["reach", "ship"] {
        assert_eq!(
            base.relation(p).unwrap().sorted_tuples(),
            opt.relation(p).unwrap().sorted_tuples()
        );
    }
}

/// Two ICs producing residues on the same sequence are pushed together.
#[test]
fn multiple_residues_on_one_sequence() {
    use semrec::datalog::Value;
    use semrec::engine::Database;
    let unit = semrec::datalog::parser::parse_unit(
        "reach(X, Y) :- edge(X, Y).
         reach(X, Y) :- edge(X, Z), witness(Z, W), guard(Z, G), reach(Z, Y).
         ic ic1: edge(X, Z) -> witness(Z, W).
         ic ic2: edge(X, Z) -> guard(Z, G).",
    )
    .unwrap();
    let plan = Optimizer::new(&unit.program())
        .with_constraints(&unit.constraints)
        .run()
        .unwrap();
    assert_eq!(plan.applied.len(), 2, "{plan}");
    // Both witness and guard vanish from the optimized recursive rule.
    let recursive = plan
        .program
        .rules
        .iter()
        .find(|r| {
            r.head.pred == Pred::new("reach")
                && r.body_atoms().any(|a| a.pred == Pred::new("reach"))
        })
        .expect("recursive rule");
    assert!(!recursive
        .body_atoms()
        .any(|a| a.pred == Pred::new("witness")));
    assert!(!recursive.body_atoms().any(|a| a.pred == Pred::new("guard")));

    let mut db = Database::new();
    for (a, b) in [(0i64, 1i64), (1, 2), (2, 3), (0, 3)] {
        db.insert("edge", vec![Value::Int(a), Value::Int(b)]);
        db.insert("witness", vec![Value::Int(b), Value::Int(7)]);
        db.insert("guard", vec![Value::Int(b), Value::Int(8)]);
    }
    let base = evaluate(&db, &plan.rectified, Strategy::SemiNaive).unwrap();
    let opt = evaluate(&db, &plan.program, Strategy::SemiNaive).unwrap();
    assert_eq!(
        base.relation("reach").unwrap().sorted_tuples(),
        opt.relation("reach").unwrap().sorted_tuples()
    );
}
