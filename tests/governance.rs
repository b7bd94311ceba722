//! Resource-governance behavior: budgets and cancellation must stop an
//! evaluation with a typed error — mid-round for deadline/cancel — while
//! leaving every committed relation structurally intact (partial rounds
//! discarded wholesale), and a generous budget must change nothing.

use semrec::datalog::{Pred, Program};
use semrec::engine::{
    Budget, CancelToken, Database, EngineError, Evaluator, Route, Strategy, Tuple,
};
use semrec::gen::{fanout, parse_scenario};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// E1's fanout workload at a size where evaluation takes well over the
/// deadlines used below (reach is a near-transitive-closure).
fn heavy_fanout() -> (Program, Database) {
    let s = parse_scenario(fanout::PROGRAM);
    let db = fanout::generate(&fanout::FanoutParams {
        nodes: 1000,
        extra_edges: 800,
        fanout: 64,
        seed: 7,
    });
    (s.program, db)
}

fn tc_chain(n: i64) -> (Program, Database) {
    let prog: Program = "t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), t(Z,Y)."
        .parse()
        .unwrap();
    let mut db = Database::new();
    for i in 0..n {
        db.insert("e", semrec::engine::int_tuple(&[i, i + 1]));
    }
    (prog, db)
}

fn idb_map(ev: &semrec::engine::EvalResult) -> BTreeMap<Pred, Vec<Tuple>> {
    ev.idb
        .iter()
        .map(|(p, r)| (*p, r.sorted_tuples()))
        .collect()
}

#[test]
fn deadline_interrupts_mid_round_within_2x() {
    let (prog, db) = heavy_fanout();
    // Sanity: ungoverned evaluation takes much longer than the deadline,
    // so the trip must happen inside a round, not between rounds.
    let deadline = Duration::from_millis(150);
    let mut ev = Evaluator::new(&db, &prog, Strategy::SemiNaive)
        .unwrap()
        .with_budget(Budget::unlimited().with_deadline(deadline));
    let start = Instant::now();
    let err = ev.run().expect_err("deadline must trip");
    let elapsed = start.elapsed();
    match err {
        EngineError::DeadlineExceeded { elapsed_ms } => {
            assert!(
                elapsed_ms as u128 <= 2 * deadline.as_millis(),
                "tripped at {elapsed_ms} ms for a {deadline:?} deadline"
            );
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(
        elapsed <= 2 * deadline,
        "cooperative checks must interrupt the round in flight: took {elapsed:?}"
    );
    // The aborted round's partial derivations were discarded: every
    // committed relation still satisfies the flat-storage invariant.
    ev.check_invariants().expect("IDB invariants after abort");
}

#[test]
fn cancel_token_stops_evaluation_from_another_thread() {
    let (prog, db) = heavy_fanout();
    let token = CancelToken::new();
    let canceller = token.clone();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        canceller.cancel();
    });
    let mut ev = Evaluator::new(&db, &prog, Strategy::SemiNaive)
        .unwrap()
        .with_cancel_token(token);
    let err = ev.run().expect_err("cancel must stop evaluation");
    assert_eq!(err, EngineError::Cancelled);
    ev.check_invariants().expect("IDB invariants after cancel");
    killer.join().unwrap();
}

#[test]
fn pre_cancelled_token_stops_before_any_round() {
    let (prog, db) = tc_chain(20);
    let token = CancelToken::new();
    token.cancel();
    let mut ev = Evaluator::new(&db, &prog, Strategy::SemiNaive)
        .unwrap()
        .with_cancel_token(token);
    assert_eq!(ev.run(), Err(EngineError::Cancelled));
    assert_eq!(ev.rounds(), 0, "no round may start after cancellation");
}

#[test]
fn row_budget_trips_with_partial_sound_idb() {
    let (prog, db) = tc_chain(60);
    let reference = {
        let mut ev = Evaluator::new(&db, &prog, Strategy::SemiNaive).unwrap();
        ev.run().unwrap();
        ev.finish()
    };
    let full: std::collections::BTreeSet<Tuple> = reference
        .relation("t")
        .unwrap()
        .sorted_tuples()
        .into_iter()
        .collect();
    let mut ev = Evaluator::new(&db, &prog, Strategy::SemiNaive)
        .unwrap()
        .with_budget(Budget::unlimited().with_max_idb_rows(200));
    let err = ev.run().expect_err("row budget must trip");
    match err {
        EngineError::BudgetExceeded {
            resource,
            limit,
            used,
        } => {
            assert_eq!(resource, "idb_rows");
            assert_eq!(limit, 200);
            assert!(used > limit, "{used} must exceed {limit}");
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    ev.check_invariants().expect("IDB invariants after trip");
    // Round-boundary enforcement keeps whole rounds: everything
    // committed is a sound subset of the fixpoint.
    let partial = ev.idb_relation(Pred::new("t")).unwrap().sorted_tuples();
    assert!(!partial.is_empty(), "at least one round committed");
    for t in partial {
        assert!(full.contains(&t), "unsound tuple {t:?}");
    }
}

#[test]
fn byte_budget_trips() {
    let (prog, db) = tc_chain(60);
    let mut ev = Evaluator::new(&db, &prog, Strategy::SemiNaive)
        .unwrap()
        .with_budget(Budget::unlimited().with_max_resident_bytes(4096));
    let err = ev.run().expect_err("byte budget must trip");
    assert!(
        matches!(
            err,
            EngineError::BudgetExceeded {
                resource: "resident_bytes",
                ..
            }
        ),
        "got {err:?}"
    );
    ev.check_invariants().expect("IDB invariants after trip");
}

#[test]
fn budget_iteration_cap_matches_legacy_path() {
    let (prog, db) = tc_chain(50);
    let mut ev = Evaluator::new(&db, &prog, Strategy::SemiNaive)
        .unwrap()
        .with_budget(Budget::unlimited().with_max_iterations(3));
    assert_eq!(ev.run(), Err(EngineError::IterationLimit(3)));
}

#[test]
fn generous_budget_changes_nothing() {
    let s = parse_scenario(fanout::PROGRAM);
    let prog = s.program;
    let db = fanout::generate(&fanout::FanoutParams {
        nodes: 150,
        extra_edges: 80,
        fanout: 8,
        seed: 11,
    });
    let mut plain = Evaluator::new(&db, &prog, Strategy::SemiNaive).unwrap();
    plain.run().unwrap();
    let plain = plain.finish();
    let mut governed = Evaluator::new(&db, &prog, Strategy::SemiNaive)
        .unwrap()
        .with_budget(
            Budget::unlimited()
                .with_deadline(Duration::from_secs(3600))
                .with_max_idb_rows(u64::MAX)
                .with_max_resident_bytes(u64::MAX),
        )
        .with_cancel_token(CancelToken::new());
    governed.run().unwrap();
    let governed = governed.finish();
    assert_eq!(governed.route, Route::Direct);
    assert_eq!(idb_map(&plain), idb_map(&governed));
    assert_eq!(plain.stats.derived, governed.stats.derived);
    assert_eq!(plain.stats.inserted, governed.stats.inserted);
}

#[test]
fn governed_optimize_answers_like_rectified() {
    // The full degradation entry point on the fanout scenario: a
    // generous budget lets the optimized route answer, and its answer
    // must match the rectified reference exactly.
    let s = parse_scenario(fanout::PROGRAM);
    let db = fanout::generate(&fanout::FanoutParams {
        nodes: 60,
        extra_edges: 30,
        fanout: 4,
        seed: 3,
    });
    let reference = {
        let (rect, _) = semrec::datalog::analysis::rectify(&s.program);
        let mut ev = Evaluator::new(&db, &rect, Strategy::SemiNaive).unwrap();
        ev.run().unwrap();
        ev.finish()
    };
    let outcome = semrec::core::evaluate_governed(
        &db,
        &s.program,
        &s.constraints,
        semrec::core::OptimizerConfig::default(),
        Budget::unlimited().with_deadline(Duration::from_secs(600)),
        CancelToken::new(),
    )
    .expect("governed evaluation answers");
    assert!(outcome.degraded.is_none(), "{:?}", outcome.degraded);
    assert_eq!(outcome.result.route, Route::Optimized);
    assert_eq!(
        reference.relation("reach").unwrap().sorted_tuples(),
        outcome.result.relation("reach").unwrap().sorted_tuples()
    );
}

#[test]
fn governed_cancel_is_not_degraded_around() {
    let s = parse_scenario(fanout::PROGRAM);
    let db = fanout::generate(&fanout::FanoutParams::default());
    let token = CancelToken::new();
    token.cancel();
    let err = semrec::core::evaluate_governed(
        &db,
        &s.program,
        &s.constraints,
        semrec::core::OptimizerConfig::default(),
        Budget::unlimited(),
        token,
    )
    .expect_err("pre-cancelled token must stop both routes");
    assert_eq!(err, EngineError::Cancelled);
}
