//! End-to-end reproduction of every worked example in the paper.

use semrec::core::detect::{detect, DetectionMethod};
use semrec::core::optimizer::{Optimizer, OptimizerConfig};
use semrec::core::push::OptKind;
use semrec::core::residue::ResidueHead;
use semrec::datalog::analysis::{classify_linear_pred, rectify};
use semrec::datalog::parser::parse_unit;
use semrec::datalog::Pred;
use semrec::engine::{evaluate, Strategy};
use semrec::gen::{fanout, genealogy, org, parse_scenario, university};
use semrec::iqa::{answer, parse_describe, TreeVerdict};
use semrec_bench::fixtures::expand::rule_residues;

/// Example 2.1: expanded-form (CGM) residue vs free residues for the
/// 6-column chain program.
#[test]
fn example_2_1_expanded_vs_free_residues() {
    let unit = parse_unit(
        "p(X1, X2, X3, X4, X5, X6) :- e(X1, X2, X3, X4, X5, X6).
         p(X1, X2, X3, X4, X5, X6) :- a(X1, X2, X4), b(W2, X3), c(W3, W4, X5),
             d(W5, X6), p(X1, W2, W3, W4, W5, W6).
         ic: a(V1, V2, V3), b(V2, V4), c(V4, V5, V6) -> d(V6, V7).",
    )
    .unwrap();
    let ic = &unit.constraints[0];
    let r0 = &unit.program().rules[1];

    // The classical residue carries the introduced equalities
    // (X2' = X2, X3' = X3 -> d(X5, _)).
    let std = rule_residues(ic, r0);
    let full = std.iter().find(|r| r.matched == 3).expect("full match");
    assert_eq!(full.body_cmps.len(), 2);
    assert!(!full.directly_usable());

    // Free partial subsumption (no expansion, no introduced equalities)
    // cannot match all three atoms against a single rule body — the shared
    // variables clash — so its maximal matches cover proper subsets, e.g.
    // {a, c} leaving b(X2, W3) in the residue body (the paper's
    // "b(X2, X3') -> d(X5, V7)").
    let targets: Vec<&semrec::datalog::Atom> = r0
        .body_atoms()
        .filter(|a| a.pred != Pred::new("p"))
        .collect();
    let free = semrec::core::subsume::maximal_partial_matches(&ic.body_atoms, &targets, 1);
    assert!(!free.is_empty());
    assert!(free.iter().all(|m| m.matched_count() < 3));
    assert!(free.iter().any(|m| m.matched_count() == 2));
}

/// Example 3.1/3.2: maximal subsumption detection on both programs.
#[test]
fn example_3_1_and_3_2_detection() {
    // 3.2: the eval program; ic1 maximally subsumes r1·r1 with residue
    // -> expert(...), useful for the sequence.
    let unit = parse_unit(
        "eval(P, S, T) :- super(P, S, T).
         eval(P, S, T) :- works_with(P, P1), eval(P1, S, T), expert(P, F), field(T, F).
         ic ic1: works_with(P2, P1), expert(P1, F1) -> expert(P2, F1).",
    )
    .unwrap();
    let (prog, _) = rectify(&unit.program());
    let info = classify_linear_pred(&prog, Pred::new("eval")).unwrap();
    let ds = detect(
        &prog,
        &info,
        &unit.constraints[0],
        DetectionMethod::SdGraph,
        2,
    )
    .unwrap();
    let r = ds
        .iter()
        .find(|r| r.seq == vec![1, 1] && r.is_useful())
        .expect("the r1 r1 residue");
    assert!(r.is_fact() && !r.is_conditional());
    let ResidueHead::Atom(a) = &r.head else {
        panic!()
    };
    assert_eq!(a.pred, Pred::new("expert"));
}

/// Example 4.1: atom elimination on the organizational program — the only
/// useful sequence is r2·r2·r2·r2 and the residue is
/// `R = executive -> experienced(U)`.
#[test]
fn example_4_1_atom_elimination() {
    let s = parse_scenario(org::PROGRAM);
    let plan = Optimizer::new(&s.program)
        .with_constraints(&s.constraints)
        .run()
        .unwrap();
    assert_eq!(plan.chosen[&Pred::new("triple")], vec![1, 1, 1, 1]);
    let elim: Vec<_> = plan
        .applied
        .iter()
        .filter(|a| a.kind == OptKind::AtomElimination)
        .collect();
    assert_eq!(elim.len(), 1);
    assert!(elim[0].residue.is_conditional());
    assert!(elim[0].residue.body[0].to_string().contains("executive"));

    // Equivalence on generated IC-consistent data.
    let db = org::generate(&org::OrgParams::default());
    let base = evaluate(&db, &plan.rectified, Strategy::SemiNaive).unwrap();
    let opt = evaluate(&db, &plan.program, Strategy::SemiNaive).unwrap();
    assert_eq!(
        base.relation("triple").unwrap().sorted_tuples(),
        opt.relation("triple").unwrap().sorted_tuples()
    );
}

/// Example 4.2: conditional introduction of doctoral(S) into eval_support.
#[test]
fn example_4_2_atom_introduction() {
    let s = parse_scenario(university::PROGRAM);
    let mut config = OptimizerConfig::default();
    config.small_relations.insert(Pred::new("doctoral"));
    let plan = Optimizer::new(&s.program)
        .with_constraints(&s.constraints)
        .with_config(config)
        .run()
        .unwrap();
    // The non-recursive eval_support rule is a one-rule block: ic2's
    // free residue M > 10000 -> doctoral(S) is introduced into it,
    // attributed to ic2.
    let intro: Vec<_> = plan
        .applied
        .iter()
        .filter(|a| a.kind == OptKind::AtomIntroduction)
        .collect();
    assert_eq!(intro.len(), 1, "doctoral introduction applied");
    assert_eq!(intro[0].residue.ic.name.unwrap().as_str(), "ic2");
    assert_eq!(intro[0].residue.seq, [2]);
    let es: Vec<String> = plan
        .program
        .rules
        .iter()
        .filter(|r| r.head.pred == Pred::new("eval_support"))
        .map(ToString::to_string)
        .collect();
    assert!(es
        .iter()
        .any(|r| r.contains("doctoral") && r.contains("M > 10000")));
    assert!(es.iter().any(|r| r.contains("M <= 10000")));

    let db = university::generate(&university::UniversityParams::default());
    let base = evaluate(&db, &plan.rectified, Strategy::SemiNaive).unwrap();
    let opt = evaluate(&db, &plan.program, Strategy::SemiNaive).unwrap();
    for p in ["eval", "eval_support"] {
        assert_eq!(
            base.relation(p).unwrap().sorted_tuples(),
            opt.relation(p).unwrap().sorted_tuples()
        );
    }
}

/// Example 4.3: conditional subtree pruning on the genealogy program.
#[test]
fn example_4_3_subtree_pruning() {
    let s = parse_scenario(genealogy::PROGRAM);
    let plan = Optimizer::new(&s.program)
        .with_constraints(&s.constraints)
        .run()
        .unwrap();
    assert_eq!(plan.chosen[&Pred::new("anc")], vec![1, 1, 1]);
    assert!(plan
        .applied
        .iter()
        .any(|a| a.kind == OptKind::SubtreePruning));

    let db = genealogy::generate(&genealogy::GenealogyParams::default());
    let base = evaluate(&db, &plan.rectified, Strategy::SemiNaive).unwrap();
    let opt = evaluate(&db, &plan.program, Strategy::SemiNaive).unwrap();
    assert_eq!(
        base.relation("anc").unwrap().sorted_tuples(),
        opt.relation("anc").unwrap().sorted_tuples()
    );
}

/// The guarded-reachability scenario: a rule-level (k = 1) elimination
/// whose saved work scales with fan-out.
#[test]
fn fanout_elimination_wins() {
    let s = parse_scenario(fanout::PROGRAM);
    let plan = Optimizer::new(&s.program)
        .with_constraints(&s.constraints)
        .run()
        .unwrap();
    assert_eq!(plan.chosen[&Pred::new("reach")], vec![1]);
    // No auxiliary predicates needed at k = 1.
    assert!(plan
        .program
        .rules
        .iter()
        .all(|r| !r.head.pred.name().contains('@')));

    let db = fanout::generate(&fanout::FanoutParams {
        nodes: 60,
        extra_edges: 30,
        fanout: 16,
        seed: 5,
    });
    let base = evaluate(&db, &plan.rectified, Strategy::SemiNaive).unwrap();
    let opt = evaluate(&db, &plan.program, Strategy::SemiNaive).unwrap();
    assert_eq!(
        base.relation("reach").unwrap().sorted_tuples(),
        opt.relation("reach").unwrap().sorted_tuples()
    );
    // The static elimination removes the witness atom outright, halving
    // the number of index probes; the engine's existential-probe
    // short-circuit narrows the rows-scanned gap at runtime (it stops a
    // witness probe at its first hit) but still pays one probe and one
    // scanned row per existence check that the rewrite avoids entirely.
    assert!(opt.stats.probes * 2 < base.stats.probes);
    assert!(opt.stats.rows_scanned < base.stats.rows_scanned);
}

/// Example 5.1: intelligent query answering.
#[test]
fn example_5_1_intelligent_answering() {
    let program = parse_unit(
        "honors(Stud) :- transcript(Stud, Major, Cred, Gpa), Cred >= 30, Gpa >= 38.
         honors(Stud) :- transcript(Stud, Major, Cred, Gpa), Gpa >= 38, exceptional(Stud).
         exceptional(Stud) :- publication(Stud, P), appears(P, Jl), reputed(Jl).
         honors(Stud) :- graduated(Stud, College), topten(College).",
    )
    .unwrap()
    .program();
    let q = parse_describe(
        "describe honors(Stud) where major(Stud, cs), graduated(Stud, College), \
         topten(College), hobby(Stud, chess).",
    )
    .unwrap();
    let a = answer(&program, &q, 4);
    assert_eq!(a.irrelevant.len(), 2, "major and hobby discarded");
    assert!(a.fully_qualified(), "the graduated/topten tree qualifies");
    assert_eq!(a.trees.len(), 3);
    assert_eq!(
        a.trees
            .iter()
            .filter(|t| t.verdict == TreeVerdict::Qualified)
            .count(),
        1
    );
}

/// The flight-routing scenario: a *conditional* rule-level elimination —
/// the optimizer splits the recursive rule on K = intl / K != intl and
/// drops the hub probe from the international branch.
#[test]
fn flights_conditional_elimination() {
    use semrec::gen::flights;
    let s = parse_scenario(flights::PROGRAM);
    let plan = Optimizer::new(&s.program)
        .with_constraints(&s.constraints)
        .run()
        .unwrap();
    assert_eq!(plan.chosen[&Pred::new("route")], vec![1]);
    let elim: Vec<_> = plan
        .applied
        .iter()
        .filter(|a| a.kind == OptKind::AtomElimination)
        .collect();
    assert_eq!(elim.len(), 1);
    assert!(elim[0].residue.is_conditional());
    // One route-rule variant has the condition and no hub atom; another
    // carries the negated condition and keeps it.
    let route_rules: Vec<String> = plan
        .program
        .rules
        .iter()
        .filter(|r| r.head.pred == Pred::new("route"))
        .map(ToString::to_string)
        .collect();
    assert!(route_rules
        .iter()
        .any(|r| r.contains("= intl") && !r.contains("hub(")));
    assert!(route_rules
        .iter()
        .any(|r| r.contains("!= intl") && r.contains("hub(")));

    let db = flights::generate(&flights::FlightsParams::default());
    let base = evaluate(&db, &plan.rectified, Strategy::SemiNaive).unwrap();
    let opt = evaluate(&db, &plan.program, Strategy::SemiNaive).unwrap();
    assert_eq!(
        base.relation("route").unwrap().sorted_tuples(),
        opt.relation("route").unwrap().sorted_tuples()
    );
}
