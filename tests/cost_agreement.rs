//! Agreement tests for the cost-based route planner: the size-bound
//! cardinality estimates must stay within an order of magnitude of the
//! true materialization on every generator workload, the cost-chosen
//! route must never do more work than the program as written, and the
//! statistics cache must be re-consulted (not reused stale) when
//! transactions invalidate it. And what the router prices is compiled
//! without strata, because no program the system writes needs them.

mod common;

use common::cases;
use semrec::core::optimizer::Optimizer;
use semrec::core::route_alternatives;
use semrec::datalog::analysis::{check, classify_linear, rectify};
use semrec::datalog::Value::Int;
use semrec::datalog::{parse_atom, Atom, Facts, Pred, Program, Term};
use semrec::engine::incr::IcCheck;
use semrec::engine::{evaluate, AlternativeKind, CostMemo, EdbStats, EvalResult, Evaluator};
use semrec::engine::{Database, Materialized, Prepared, Strategy, Tuple, Tx};
use semrec::gen::{fanout, flights, genealogy, org, parse_scenario, university};
use std::collections::BTreeMap;
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

/// Goal-directed routing under bound goals — each recursive predicate
/// with one argument at a time bound to a value of its first tuple, on
/// every generator workload: every factored alternative's estimate is
/// within the same 10x of what it materializes, and the route chosen for
/// the goal never materializes more rows than the route chosen without
/// it. Magic-sets estimates are not held to 10x: the estimator cannot see
/// where a chain of bindings ends (genealogy's ancestor chains stop at
/// the family roots), and reads 9-60x off on org, genealogy and
/// university; the second assertion is what keeps such an estimate from
/// costing a query more than routing without its goal.
#[test]
fn goal_directed_routes_price_and_choose_soundly_on_every_gen_workload() {
    fn rows_of(db: &semrec::engine::Database, program: &semrec::datalog::Program) -> u64 {
        let res = evaluate(db, program, Strategy::SemiNaive).expect("eval");
        res.idb.values().map(|r| r.len() as u64).sum()
    }
    let mut factored = 0;
    for (name, db, src) in workloads() {
        let s = parse_scenario(src);
        let plan = Optimizer::new(&s.program)
            .with_constraints(&s.constraints)
            .run()
            .unwrap_or_else(|e| panic!("{name}: optimize failed: {e}"));
        let (alts, _) = route_alternatives(&s.program, &plan, None);
        let memo = CostMemo::build(&db, &mut EdbStats::new(), alts).expect("price");
        let unrouted = rows_of(&db, &memo.best().program);
        let full = evaluate(&db, &s.program, Strategy::SemiNaive).expect("fixpoint");
        for info in classify_linear(&s.program).unwrap() {
            let row = full.relation(info.pred).unwrap().sorted_tuples()[0].clone();
            for i in 0..info.arity {
                let args = (0..info.arity)
                    .map(|j| match j == i {
                        true => Term::Const(row[j]),
                        false => Term::var(&format!("V{j}")),
                    })
                    .collect();
                let goal = Atom::new(info.pred, args);
                let (alts, _) = route_alternatives(&s.program, &plan, Some(&goal));
                let memo = CostMemo::build(&db, &mut EdbStats::new(), alts).expect("price");
                let best = memo.best();
                let routed = rows_of(&db, &best.program);
                assert!(
                    routed <= unrouted,
                    "{name}: {} for {goal} materializes {routed} rows, {unrouted} without the goal",
                    best.kind,
                );
                let factorings = (memo.alternatives.iter())
                    .filter(|a| matches!(a.kind, AlternativeKind::Factored { .. }));
                for alt in factorings {
                    let actual = rows_of(&db, &alt.program) as f64;
                    let p = alt.estimate.rows;
                    let ratio = p.max(actual) / p.min(actual).max(f64::MIN_POSITIVE);
                    assert!(
                        ratio <= 10.0,
                        "{name}: {} for {goal} predicts {p:.0} rows, actual {actual} — {ratio:.2}x off",
                        alt.kind,
                    );
                    factored += 1;
                }
            }
        }
    }
    assert!(factored >= 4, "{factored} factored alternatives priced");
}

/// The cost-chosen route never does more work than the program as
/// written: on the witness-saturated fanout workload the planner picks
/// the residue-pushed program, whose run probes, scans and derives at
/// most what the original alternative's does, for the same IDB. Work
/// counters repeat run to run, so this cannot flake as a clock can.
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
    let original = (memo.alternatives.iter())
        .find(|a| a.kind == AlternativeKind::Original)
        .expect("the original is priced");
    let run = |plans| {
        let mut ev = Evaluator::from_prepared_batch(&db, plans, None);
        ev.run().expect("runs");
        ev.finish()
    };
    let (routed, original) = (run(&memo.best().plans), run(&original.plans));
    let (r, o) = (routed.stats, original.stats);
    for (what, routed, original) in [
        ("probes", r.probes, o.probes),
        ("rows scanned", r.rows_scanned, o.rows_scanned),
        ("rows derived", r.derived, o.derived),
    ] {
        assert!(
            routed <= original,
            "{what}: routed {routed}, original {original}"
        );
    }
    let idb = |res: &EvalResult| -> BTreeMap<Pred, Vec<Tuple>> {
        (res.idb.iter())
            .map(|(&p, rel)| (p, rel.sorted_tuples()))
            .collect()
    };
    assert_eq!(idb(&routed), idb(&original), "the routed IDB");
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

/// The route census: per gen workload, a goal (`None`: none) and the
/// alternative the router chooses for it.
const CENSUS: [(&str, Option<&str>, &str); 15] = [
    ("fanout", None, "residue_pushed"),
    ("fanout", Some("reach(0, Y)"), "pushed_factored"),
    ("fanout", Some("reach(X, 5)"), "pushed_magic"),
    ("fanout", Some("reach(0, 5)"), "pushed_magic"),
    ("flights", None, "original"),
    ("flights", Some("route(0, Y)"), "factored"),
    ("flights", Some("route(X, 6)"), "magic"),
    ("genealogy", None, "original"),
    ("genealogy", Some("anc(1, Xa, Y, Ya)"), "magic"),
    ("genealogy", Some("anc(X, Xa, 0, Ya)"), "magic"),
    ("org", None, "original"),
    ("org", Some("triple(2, E2, E3)"), "original"),
    ("university", None, "original"),
    ("university", Some("eval(prof0, S, T)"), "original"),
    ("university", Some("eval(P, stud79, T)"), "magic"),
];

/// The route census per binding pattern: on every gen workload at its
/// default size, the alternative the router chooses without a goal and
/// for each goal below. Each goal-directed kind wins somewhere, so none
/// can be deleted yet (EXPERIMENTS.md, "Route census"); a changed
/// choice here is a changed planner.
#[test]
fn route_choices_per_binding_pattern() {
    let mut priced = 0;
    for (name, db, src) in workloads() {
        let s = parse_scenario(src);
        let plan = Optimizer::new(&s.program)
            .with_constraints(&s.constraints)
            .run()
            .unwrap_or_else(|e| panic!("{name}: optimize failed: {e}"));
        for &(_, goal, want) in CENSUS.iter().filter(|(bundle, ..)| *bundle == name) {
            let goal = goal.map(|g| semrec::datalog::parse_atom(g).expect("goal parses"));
            let (alts, _) = route_alternatives(&s.program, &plan, goal.as_ref());
            let memo = CostMemo::build(&db, &mut EdbStats::new(), alts).expect("price");
            let chosen = memo.best().kind.name();
            let goal = goal.map_or("none".to_owned(), |g| g.to_string());
            assert_eq!(chosen, want, "{name}: goal {goal}");
            priced += 1;
        }
    }
    assert_eq!(priced, CENSUS.len(), "every census row names a workload");
}

/// The router does not price the rectified program: rectifying only
/// moves head constants and repeated head variables into body
/// equalities, so the copy never prices below the program as written and
/// loses the tie. On the samples, the regression corpus and the gen
/// bundles, pricing the two picks the original.
#[test]
fn a_rectified_copy_never_prices_below_the_original() {
    let corpus = (cases::samples(0..1).into_iter())
        .chain(cases::regressions())
        .map(|c| (c.name, c.edb, c.program));
    let bundles = workloads().into_iter().map(|(name, db, src)| {
        let s = parse_scenario(src);
        (name.to_owned(), db, s.program)
    });
    let (mut priced, mut rectified) = (0, 0);
    for (name, db, program) in corpus.chain(bundles) {
        let (copy, _) = rectify(&program);
        rectified += usize::from(copy != program);
        let alts = vec![
            (AlternativeKind::Original, program),
            (AlternativeKind::Rectified, copy),
        ];
        let memo = CostMemo::build(&db, &mut EdbStats::new(), alts).expect("price");
        assert_eq!(memo.alternatives.len(), 2, "{name}: both compile");
        let [original, copy] = [0, 1].map(|i| memo.alternatives[i].estimate.work);
        assert_eq!(
            memo.best().kind,
            AlternativeKind::Original,
            "{name}: {original} vs {copy}"
        );
        priced += 1;
    }
    assert!(
        priced >= 13 && rectified >= 1,
        "{priced} priced, {rectified} rectified"
    );
}

/// The maintenance tier prices plans compiled in incremental mode, the
/// one-shot routes batch plans; the two price alike, so either tier
/// picks the same route: on every gen workload, every alternative
/// `route_alternatives` enumerates, without a goal and for each census
/// goal, has equal estimates either way, field by field.
#[test]
fn incremental_and_batch_plans_price_alike() {
    let mut priced = 0;
    for (name, db, src) in workloads() {
        let s = parse_scenario(src);
        let plan = Optimizer::new(&s.program)
            .with_constraints(&s.constraints)
            .run()
            .unwrap_or_else(|e| panic!("{name}: optimize failed: {e}"));
        for &(_, goal, _) in CENSUS.iter().filter(|(bundle, ..)| *bundle == name) {
            let goal = goal.map(|g| semrec::datalog::parse_atom(g).expect("goal parses"));
            let (alts, _) = route_alternatives(&s.program, &plan, goal.as_ref());
            let compiled = (alts.iter())
                .map(|(kind, p)| (*kind, Prepared::compile(&db, p, &[], &BTreeMap::new())))
                .map(|(kind, plans)| (kind, plans.expect("compiles")))
                .collect();
            let batch = CostMemo::build(&db, &mut EdbStats::new(), alts).expect("price");
            let incremental = CostMemo::price(&db, &mut EdbStats::new(), compiled, Instant::now());
            let incremental = incremental.expect("price");
            let pairs = batch.alternatives.iter().zip(&incremental.alternatives);
            assert_eq!(batch.alternatives.len(), incremental.alternatives.len());
            for (b, i) in pairs {
                let ctx = format!("{name} {goal:?} {}", b.kind);
                let (b, i) = (&b.estimate, &i.estimate);
                assert_eq!(b.rows, i.rows, "{ctx}: rows");
                assert_eq!(b.bytes, i.bytes, "{ctx}: bytes");
                assert_eq!(b.work, i.work, "{ctx}: work");
                assert_eq!(b.rounds, i.rounds, "{ctx}: rounds");
                assert_eq!(b.capped, i.capped, "{ctx}: capped");
                assert_eq!(b.per_pred, i.per_pred, "{ctx}: per predicate");
                priced += 1;
            }
        }
    }
    assert!(priced >= 40, "{priced} alternatives priced");
}

/// Every stratum of `program` by `check`, which must accept it.
fn strata(program: &Program, ctx: &str) -> BTreeMap<Pred, usize> {
    let judged = check(program, &[], &Facts::new());
    judged
        .unwrap_or_else(|e| panic!("{ctx}: {e}\n{program}"))
        .strata
}

/// Asserts `check` puts every predicate of `program` in stratum 0.
fn one_stratum(program: &Program, ctx: &str) {
    let strata = strata(program, ctx);
    assert!(
        strata.values().all(|&s| s == 0),
        "{ctx}: {strata:?}\n{program}"
    );
}

/// A goal per binding pattern of every recursive predicate of
/// `program`, its bound arguments 0.
fn binding_patterns(program: &Program) -> Vec<Atom> {
    let mut goals = Vec::new();
    for info in classify_linear(program).expect("linear") {
        for mask in 0..1u32 << info.arity {
            let arg = |j: usize| match mask >> j & 1 {
                1 => Term::Const(Int(0)),
                _ => Term::var(&format!("V{j}")),
            };
            goals.push(Atom::new(info.pred, (0..info.arity).map(arg).collect()));
        }
    }
    goals
}

/// No program the system writes from a judged one needs strata, so each
/// compiles with none: on the route matrix's programs (the samples, the
/// families, the kernel shapes, the gen bundles) and on the census's,
/// every alternative `route_alternatives` returns — without a goal, for
/// every binding pattern of every recursive predicate and for each
/// census goal — and every DRed and IC monitor program `check`s with
/// every stratum 0. Rectifying keeps the strata, so the router's
/// fallback runs the rectified program in the written one's.
#[test]
fn what_the_system_writes_is_in_one_stratum() {
    let matrix = (cases::samples(0..2).into_iter())
        .chain(cases::families(0..12))
        .chain(cases::kernel_shapes(0..1))
        .chain(cases::workloads(0..1))
        .map(|c| (c.name, c.program, c.ics, None));
    let census = workloads().into_iter().map(|(name, _, src)| {
        let s = parse_scenario(src);
        let goals = CENSUS.iter().filter(|(bundle, ..)| *bundle == name);
        let goals = goals.filter_map(|(_, goal, _)| Some(parse_atom((*goal)?).expect("goal")));
        (
            name.to_owned(),
            s.program,
            s.constraints,
            Some(goals.collect()),
        )
    });
    let (mut alternatives, mut derived) = (0, 0);
    for (name, program, ics, census) in matrix.chain(census) {
        let written = strata(&program, &name);
        let rectified = strata(&rectify(&program).0, &name);
        assert_eq!(rectified, written, "{name}: rectified");
        let edb = Database::new();
        let maintained = Materialized::new(&edb, &program).expect("materializes");
        let monitors: Vec<IcCheck> = ics.iter().map(|ic| IcCheck::new(&edb, ic)).collect();
        let dred = maintained.dred_programs().into_iter().flatten();
        for written in dred.chain(monitors.iter().filter_map(IcCheck::program)) {
            one_stratum(written, &format!("{name}: DRed or IC monitor"));
            derived += 1;
        }
        let Ok(plan) = Optimizer::new(&program).with_constraints(&ics).run() else {
            continue;
        };
        let goals: Vec<Atom> = census.unwrap_or_else(|| binding_patterns(&program));
        for goal in std::iter::once(None).chain(goals.iter().map(Some)) {
            for (kind, alt) in route_alternatives(&program, &plan, goal).0 {
                one_stratum(&alt, &format!("{name}: {kind} for {goal:?}"));
                alternatives += 1;
            }
        }
    }
    let counted = format!("{alternatives} alternatives, {derived} derived programs");
    assert!(alternatives >= 700 && derived >= 80, "{counted}");
}
