//! Agreement tests for the cost-based route planner: the size-bound
//! cardinality estimates must stay within an order of magnitude of the
//! true materialization on every generator workload, the cost-chosen
//! route must never run meaningfully slower than the fixed rewrite
//! ladder, and the statistics cache must be re-consulted (not reused
//! stale) when transactions invalidate it.

use semrec::core::optimizer::Optimizer;
use semrec::core::route_alternatives;
use semrec::datalog::Value::Int;
use semrec::engine::{evaluate, AlternativeKind, CostMemo, EdbStats, Strategy, Tx};
use semrec::gen::{fanout, flights, genealogy, org, parse_scenario, university};
use std::time::Instant;

/// Every gen workload at its default size, as (name, database, program
/// source) triples.
fn workloads() -> Vec<(&'static str, semrec::engine::Database, &'static str)> {
    vec![
        (
            "fanout",
            fanout::generate(&fanout::FanoutParams::default()),
            fanout::PROGRAM,
        ),
        (
            "flights",
            flights::generate(&flights::FlightsParams::default()),
            flights::PROGRAM,
        ),
        (
            "genealogy",
            genealogy::generate(&genealogy::GenealogyParams::default()),
            genealogy::PROGRAM,
        ),
        (
            "org",
            org::generate(&org::OrgParams::default()),
            org::PROGRAM,
        ),
        (
            "university",
            university::generate(&university::UniversityParams::default()),
            university::PROGRAM,
        ),
    ]
}

/// The planner's row estimate for the chosen route stays within 10x of
/// the actual materialized cardinality on every generator workload —
/// the bound the routing bench gate (`--assert-routing`) enforces on
/// the bench sizes, checked here at the default sizes.
#[test]
fn estimates_within_10x_of_actual_on_every_gen_workload() {
    for (name, db, src) in workloads() {
        let s = parse_scenario(src);
        let plan = Optimizer::new(&s.program)
            .with_constraints(&s.constraints)
            .run()
            .unwrap_or_else(|e| panic!("{name}: optimize failed: {e}"));
        let (alts, _) = route_alternatives(&s.program, &plan, None);
        let memo = CostMemo::build(&db, &mut EdbStats::new(), alts)
            .unwrap_or_else(|e| panic!("{name}: pricing failed: {e}"));
        let choice = memo.choice();
        let res = evaluate(&db, &memo.best().program, Strategy::SemiNaive)
            .unwrap_or_else(|e| panic!("{name}: eval failed: {e}"));
        let actual: u64 = res.idb.values().map(|r| r.len() as u64).sum();
        let ratio = choice.misprediction(actual);
        assert!(
            ratio.is_finite() && ratio <= 10.0,
            "{name}: chose {} predicting {} rows, actual {actual} — {ratio:.2}x off",
            choice.chosen.name(),
            choice.predicted_rows,
        );
    }
}

/// The cost-chosen route is never slower than the fixed rewrite ladder
/// beyond noise: interleaved timed medians, with a generous tolerance
/// because CI machines drift (the routing bench enforces the tight
/// bound; this is the correctness-level backstop).
#[test]
fn cost_chosen_route_is_not_slower_than_the_ladder() {
    let s = parse_scenario(fanout::PROGRAM);
    let db = fanout::generate(&fanout::FanoutParams {
        nodes: 150,
        extra_edges: 80,
        fanout: 32,
        seed: 7,
    });
    let plan = Optimizer::new(&s.program)
        .with_constraints(&s.constraints)
        .run()
        .expect("optimize");
    let (alts, _) = route_alternatives(&s.program, &plan, None);
    let memo = CostMemo::build(&db, &mut EdbStats::new(), alts).expect("price");
    // On the witness-saturated fanout workload the residue-pushed
    // program strictly dominates; the planner must find that.
    assert_eq!(memo.best().kind, AlternativeKind::ResiduePushed);
    let routed = memo.best().program.clone();
    let ladder = plan.program.clone();
    evaluate(&db, &routed, Strategy::SemiNaive).expect("warm routed");
    evaluate(&db, &ladder, Strategy::SemiNaive).expect("warm ladder");
    let (mut r_ms, mut l_ms) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t = Instant::now();
        evaluate(&db, &routed, Strategy::SemiNaive).expect("routed");
        r_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        evaluate(&db, &ladder, Strategy::SemiNaive).expect("ladder");
        l_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    r_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    l_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let (routed_med, ladder_med) = (r_ms[r_ms.len() / 2], l_ms[l_ms.len() / 2]);
    assert!(
        routed_med <= ladder_med * 1.5 + 5.0,
        "cost-chosen route {routed_med:.2} ms vs ladder {ladder_med:.2} ms"
    );
}

/// Statistics invalidation under transactions: the maintained query
/// re-consults the planner when the EDB drifts past the 2x threshold
/// and when an IC violation degrades (then clears) the route — each
/// consultation reads fresh generation-keyed statistics, so the row
/// estimate tracks the grown database instead of the one priced at
/// materialization time.
#[test]
fn stats_invalidated_and_replanned_under_transactions() {
    let s = parse_scenario(fanout::PROGRAM);
    let db = fanout::generate(&fanout::FanoutParams {
        nodes: 30,
        extra_edges: 15,
        fanout: 3,
        seed: 11,
    });
    let mut q = semrec::core::maintain::MaintainedQuery::new(
        db,
        &s.program,
        &s.constraints,
        semrec::core::optimizer::OptimizerConfig::default(),
        1,
    )
    .expect("maintain");
    assert_eq!(q.replans(), 1, "materialization consults the planner once");
    let first = q.route_choice().expect("initial choice").clone();
    assert!(q.edb_stats().cached_entries() > 0, "stats cache primed");

    // Grow the EDB well past 2x in IC-respecting pairs (every new edge
    // target gets a witness, so ic1 keeps holding and the only replan
    // trigger is drift).
    let base_rows: u64 = ["edge", "witness"]
        .iter()
        .map(|p| q.db().get((*p).into()).map_or(0, |r| r.len() as u64))
        .sum();
    let mut tx = Tx::new();
    for i in 0..(base_rows as i64 + 10) {
        let v = 10_000 + i;
        tx.insert("edge", vec![Int(i % 30), Int(v)]);
        tx.insert("witness", vec![Int(v), Int(v * 10)]);
    }
    let out = q
        .apply(&tx, semrec::engine::Budget::unlimited(), None)
        .expect("grow tx");
    assert!(out.replanned, "2x drift re-consults the planner");
    assert_eq!(q.replans(), 2);
    let drifted = q.route_choice().expect("drift choice").clone();
    assert!(
        drifted.predicted_rows > first.predicted_rows,
        "fresh stats see the grown EDB: {} -> {}",
        first.predicted_rows,
        drifted.predicted_rows
    );

    // Break ic1 (an edge whose target has no witness): the route
    // degrades to rectified and the planner is consulted again for
    // post-degradation estimates.
    let mut bad = Tx::new();
    bad.insert("edge", vec![Int(0), Int(99_999)]);
    let out = q
        .apply(&bad, semrec::engine::Budget::unlimited(), None)
        .expect("violating tx");
    assert!(out.replanned, "degradation re-consults the planner");
    assert!(!out.violated.is_empty());
    assert!(!q.on_optimized_route());
    let degraded_replans = q.replans();
    assert!(degraded_replans >= 3);

    // Repair the violation: the residue-pushed program is sound again
    // and the planner is re-consulted among the full sound set.
    let mut fix = Tx::new();
    fix.insert("witness", vec![Int(99_999), Int(1)]);
    let out = q
        .apply(&fix, semrec::engine::Budget::unlimited(), None)
        .expect("repair tx");
    assert!(out.replanned, "violation clearing re-consults the planner");
    assert!(out.violated.is_empty());
    assert!(q.on_optimized_route());
    assert_eq!(q.replans(), degraded_replans + 1);
}
