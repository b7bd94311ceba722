//! Fault-injected agreement suite (`cargo test --features failpoints`).
//!
//! Every run below drives the whole pipeline — CSV load, the optimizer,
//! governed evaluation — through a seed-derived random failpoint
//! schedule and must end in exactly one of two ways: the *exact*
//! serial-reference answer, or a typed [`EngineError`]. Never a wrong
//! answer, never a hang (a test-side watchdog bounds every run), and
//! never a corrupted database (the flat-storage invariant is checked
//! after both outcomes).

#![cfg(feature = "failpoints")]

use semrec::core::optimizer::{evaluate_governed, GovernedOutcome, OptimizerConfig};
use semrec::engine::failpoint::{self, FailAction};
use semrec::engine::{
    Budget, CancelToken, Database, EngineError, Evaluator, Route, Strategy, Tuple,
};
use semrec::gen::rng::Rng;
use semrec::gen::{fanout, genealogy, parse_scenario, Scenario};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Failpoint schedules are process-global: every test serializes here
/// and clears the registry on both sides of its run.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const WATCHDOG: Duration = Duration::from_secs(120);

#[derive(Clone, Copy)]
enum Workload {
    Fanout,
    Genealogy,
}

impl Workload {
    /// The predicate whose tuples the runs compare.
    fn query(self) -> &'static str {
        match self {
            Workload::Fanout => "reach",
            Workload::Genealogy => "anc",
        }
    }

    fn build(self) -> (Scenario, Database) {
        match self {
            Workload::Fanout => {
                let s = parse_scenario(fanout::PROGRAM);
                let db = fanout::generate(&fanout::FanoutParams {
                    nodes: 120,
                    extra_edges: 60,
                    fanout: 6,
                    seed: 13,
                });
                (s, db)
            }
            Workload::Genealogy => {
                let s = parse_scenario(genealogy::PROGRAM);
                let db = genealogy::generate(&genealogy::GenealogyParams {
                    families: 3,
                    depth: 4,
                    branching: 2,
                    seed: 13,
                });
                (s, db)
            }
        }
    }

    /// Serial semi-naive reference answer for the query predicate.
    fn reference(self) -> Vec<Tuple> {
        let (s, db) = self.build();
        let mut ev = Evaluator::new(&db, &s.program, Strategy::SemiNaive).unwrap();
        ev.run().unwrap();
        ev.finish().relation(self.query()).unwrap().sorted_tuples()
    }

    /// Writes the workload's EDB as CSV files (unarmed) so every run can
    /// load it through the `io.load` site.
    fn export(self, tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("semrec_fault_injection_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        semrec::engine::io::save_dir(&self.build().1, &dir).unwrap();
        dir
    }
}

/// What a watchdogged run reported back.
struct RunReport {
    outcome: Result<GovernedOutcome, EngineError>,
    invariants: Result<(), String>,
}

impl RunReport {
    /// The query predicate's tuples, or the typed error.
    fn answer(&self, query: &str) -> Result<Vec<Tuple>, &EngineError> {
        self.outcome
            .as_ref()
            .map(|o| o.result.relation(query).unwrap().sorted_tuples())
    }

    fn expect_invariants(&self, ctx: &str) {
        if let Err(e) = &self.invariants {
            panic!("{ctx}: {e}");
        }
    }
}

/// Runs `workload` end to end on its own thread — load the CSV export
/// in `dir` (`io.load`), optimize (`optimizer.push`), evaluate under
/// the degradation policy (`eval.round`) — and waits at most
/// [`WATCHDOG`]; a timeout or an escaping panic is a test failure in
/// its own words, never a hang. Invariants cover the loaded database
/// and, when a route answered, every relation it materialized.
fn run_with_watchdog(workload: Workload, dir: &Path) -> RunReport {
    let (tx, rx) = mpsc::channel();
    let dir = dir.to_owned();
    std::thread::spawn(move || {
        let (s, _) = workload.build();
        let mut db = Database::new();
        let outcome = semrec::engine::io::load_dir(&mut db, &dir).and_then(|_| {
            evaluate_governed(
                &db,
                &s.program,
                &s.constraints,
                OptimizerConfig::default(),
                Budget::unlimited().with_deadline(Duration::from_secs(60)),
                CancelToken::new(),
            )
        });
        let answered = outcome.iter().flat_map(|o| o.result.idb.iter());
        let invariants = db
            .iter()
            .chain(answered.map(|(&p, r)| (p, r)))
            .try_for_each(|(p, rel)| rel.check_invariant().map_err(|e| format!("{p:?}: {e}")));
        // A dropped receiver (watchdog already fired) is not our problem.
        let _ = tx.send(RunReport {
            outcome,
            invariants,
        });
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(report) => report,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("fault-injected evaluation hung past {WATCHDOG:?}")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            panic!("evaluation panicked instead of returning a typed error")
        }
    }
}

/// Draws one schedule entry from the seed stream. `io.load` has no
/// `catch_unwind` above it by design, so its drawn actions are limited
/// to the site's error channel and delays; the optimizer and the
/// evaluator run under the governed entry point, which contains panics.
fn draw_schedule(rng: &mut Rng) -> (&'static str, u64, FailAction) {
    let site = ["eval.round", "optimizer.push", "io.load"][rng.gen_range(0..3usize)];
    // The optimizer runs once and a workload may be a single CSV file,
    // so only the round site has later visits to schedule.
    let fire_at = match site {
        "eval.round" => rng.gen_range(0..6usize) as u64,
        _ => 0,
    };
    let action = match (site, rng.gen_range(0..3usize)) {
        ("io.load", 0) => FailAction::DelayMs(rng.gen_range(1..20usize) as u64),
        (_, 0) => FailAction::Panic,
        (_, 1) => FailAction::DelayMs(rng.gen_range(1..20usize) as u64),
        (_, _) => FailAction::Err,
    };
    (site, fire_at, action)
}

fn typed(err: &EngineError) -> bool {
    matches!(
        err,
        EngineError::WorkerPanicked { .. }
            | EngineError::Io(_)
            | EngineError::Cancelled
            | EngineError::DeadlineExceeded { .. }
            | EngineError::BudgetExceeded { .. }
    )
}

/// The core agreement property: across ≥ 32 seeds and two workloads,
/// every fault-injected run either reproduces the serial reference
/// exactly or fails with a typed error — and the database passes its
/// invariant check either way.
#[test]
fn fault_injected_runs_agree_or_fail_typed() {
    let _g = serial();
    let workloads = [Workload::Fanout, Workload::Genealogy];
    let references = workloads.map(Workload::reference);
    let dirs = [
        Workload::Fanout.export("sweep_fanout"),
        Workload::Genealogy.export("sweep_genealogy"),
    ];
    let mut completed = 0u32;
    let mut failed = 0u32;
    for seed in 0..36u64 {
        let i = (seed % 2) as usize;
        let mut rng = Rng::seed_from_u64(seed);
        let (site, fire_at, action) = draw_schedule(&mut rng);

        failpoint::clear();
        failpoint::arm(site, fire_at, action);
        let report = run_with_watchdog(workloads[i], &dirs[i]);
        failpoint::clear();

        report.expect_invariants(&format!("seed {seed} ({site} {action:?}@{fire_at})"));
        match report.answer(workloads[i].query()) {
            Ok(tuples) => {
                completed += 1;
                assert_eq!(
                    tuples, references[i],
                    "seed {seed} ({site} {action:?}@{fire_at}): wrong answer"
                );
            }
            Err(err) => {
                failed += 1;
                assert!(
                    typed(err),
                    "seed {seed} ({site} {action:?}@{fire_at}): untyped error {err:?}"
                );
            }
        }
    }
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    // The schedule mix must actually exercise both outcomes; an
    // all-success (or all-failure) sweep means the sites went dead.
    assert!(completed > 0, "no fault-injected run completed");
    assert!(failed > 0, "no fault-injected run tripped a failure");
}

/// A panic *during evaluation* (injected at the round boundary) is
/// contained by the governed entry point: the chosen route reports
/// `WorkerPanicked { job: "eval" }`, which surfaces as the degradation
/// reason while the rectified program answers — the one-shot failpoint
/// has fired by fallback time — and the disarmed rerun is clean.
#[test]
fn worker_panic_is_typed_and_recoverable() {
    let _g = serial();
    let dir = Workload::Fanout.export("panic");
    failpoint::clear();
    failpoint::arm("eval.round", 1, FailAction::Panic);
    let report = run_with_watchdog(Workload::Fanout, &dir);
    failpoint::clear();
    report.expect_invariants("after evaluator panic");
    match &report.outcome {
        Ok(outcome) => {
            assert_eq!(outcome.result.route, Route::RectifiedFallback);
            let why = outcome.degraded.as_deref().expect("degradation reported");
            assert!(why.contains("worker panicked in eval"), "{why}");
            assert!(why.contains("injected panic"), "{why}");
        }
        Err(EngineError::WorkerPanicked { job, payload }) => {
            assert_eq!(job, "eval");
            assert!(payload.contains("injected panic"), "payload: {payload}");
        }
        Err(other) => panic!("expected the fallback or WorkerPanicked, got {other:?}"),
    }
    if let Ok(tuples) = report.answer("reach") {
        assert_eq!(tuples, Workload::Fanout.reference());
    }
    // Disarmed registry: the same workload now runs the chosen route to
    // the exact reference answer.
    let clean = run_with_watchdog(Workload::Fanout, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    clean.expect_invariants("after clean rerun");
    let outcome = clean.outcome.as_ref().expect("clean rerun completes");
    assert!(outcome.degraded.is_none(), "{:?}", outcome.degraded);
    assert_eq!(
        clean.answer("reach").expect("clean rerun completes"),
        Workload::Fanout.reference()
    );
}

/// An injected error at the round boundary comes back as `Io` with the
/// injection message, with all previously committed rounds intact.
#[test]
fn round_boundary_error_is_typed() {
    let _g = serial();
    let (s, db) = Workload::Genealogy.build();
    let mut ev = Evaluator::new(&db, &s.program, Strategy::SemiNaive).unwrap();
    failpoint::clear();
    failpoint::arm("eval.round", 2, FailAction::Err);
    let run = ev.run();
    failpoint::clear();
    ev.check_invariants().expect("invariants after round error");
    match run {
        Err(EngineError::Io(msg)) => assert!(msg.contains("injected error"), "{msg}"),
        other => panic!("expected Io, got {other:?}"),
    }
    assert_eq!(ev.rounds(), 2, "two rounds committed before the fault");
}

/// The degradation policy end to end: when the optimizer's push stage
/// fails (error or panic), `evaluate_governed` falls back to the
/// rectified program and answers *identically* to the rectified
/// serial reference.
#[test]
fn optimizer_failure_degrades_to_rectified_with_identical_answers() {
    let _g = serial();
    let s = parse_scenario(fanout::PROGRAM);
    let db = fanout::generate(&fanout::FanoutParams {
        nodes: 80,
        extra_edges: 40,
        fanout: 5,
        seed: 21,
    });
    let reference = {
        let (rect, _) = semrec::datalog::analysis::rectify(&s.program);
        let mut ev = Evaluator::new(&db, &rect, Strategy::SemiNaive).unwrap();
        ev.run().unwrap();
        ev.finish().relation("reach").unwrap().sorted_tuples()
    };
    for action in [FailAction::Err, FailAction::Panic] {
        failpoint::clear();
        failpoint::arm("optimizer.push", 0, action);
        let outcome = evaluate_governed(
            &db,
            &s.program,
            &s.constraints,
            OptimizerConfig::default(),
            Budget::unlimited().with_deadline(Duration::from_secs(60)),
            CancelToken::new(),
        );
        failpoint::clear();
        let outcome = outcome.unwrap_or_else(|e| panic!("{action:?}: fallback must answer: {e}"));
        assert_eq!(outcome.result.route, Route::RectifiedFallback, "{action:?}");
        let why = outcome
            .degraded
            .unwrap_or_else(|| panic!("{action:?}: degradation must be reported"));
        assert!(!why.is_empty());
        assert_eq!(
            outcome.result.relation("reach").unwrap().sorted_tuples(),
            reference,
            "{action:?}: fallback answer diverges from rectified reference"
        );
    }
}

/// The `io.load` site surfaces the injected failure as a typed I/O
/// error from CSV loading.
#[test]
fn io_load_failure_is_typed() {
    let _g = serial();
    let dir = std::env::temp_dir().join("semrec_fault_injection_io");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("edge.csv");
    std::fs::write(&path, "1,2\n2,3\n").unwrap();

    failpoint::clear();
    failpoint::arm("io.load", 0, FailAction::Err);
    let mut db = Database::new();
    let err =
        semrec::engine::io::load_file(&mut db, "edge", &path).expect_err("armed io.load must fail");
    failpoint::clear();
    match err {
        EngineError::Io(msg) => assert!(msg.contains("injected error"), "{msg}"),
        other => panic!("expected Io, got {other:?}"),
    }
    // Disarmed, the same file loads.
    assert_eq!(
        semrec::engine::io::load_file(&mut db, "edge", &path).unwrap(),
        2
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshot of everything an incremental transaction may touch: the
/// EDB relations, the maintained IDB, and (for the maintained-query
/// tests) the active route.
fn edb_snapshot(db: &Database, preds: &[&str]) -> Vec<(String, Vec<Tuple>)> {
    preds
        .iter()
        .map(|p| {
            let t = db
                .get((*p).into())
                .map(|r| r.sorted_tuples())
                .unwrap_or_default();
            ((*p).to_string(), t)
        })
        .collect()
}

fn idb_snapshot(
    idb: &std::collections::BTreeMap<semrec::datalog::Pred, semrec::engine::Relation>,
) -> Vec<(String, Vec<Tuple>)> {
    idb.iter()
        .map(|(p, r)| (p.to_string(), r.sorted_tuples()))
        .collect()
}

/// A seeded schedule over the `incr.delete` site: every transaction
/// with deletes either commits exactly (maintained IDB == from-scratch
/// evaluation of the post-tx database) or rolls back fully (database,
/// IDB, and invariants untouched). The schedule varies the fire round,
/// so some applies survive (the site stays unfired) and some abort.
#[test]
fn incr_delete_fault_commits_exactly_or_rolls_back() {
    let _g = serial();
    let s = parse_scenario(fanout::PROGRAM);
    let mut db = fanout::generate(&fanout::FanoutParams {
        nodes: 30,
        extra_edges: 15,
        fanout: 3,
        seed: 5,
    });
    let mut m = semrec::engine::incr::Materialized::new(&db, &s.program).unwrap();
    let mut committed = 0u32;
    let mut rolled_back = 0u32;
    for seed in 0..10u64 {
        let mut rng = Rng::seed_from_u64(0xD0 + seed);
        // fire_at 0 hits this apply's single site visit; 1 never fires.
        let fire_at = rng.gen_range(0..2usize) as u64;
        let action = if rng.gen_bool(0.5) {
            FailAction::Err
        } else {
            FailAction::DelayMs(rng.gen_range(1..10usize) as u64)
        };
        let victim = db
            .get("edge".into())
            .unwrap()
            .sorted_tuples()
            .swap_remove(rng.gen_range(0..db.get("edge".into()).unwrap().len()));
        let mut tx = semrec::engine::Tx::new();
        tx.delete("edge", victim);
        tx.insert(
            "edge",
            vec![
                semrec::datalog::Value::Int(rng.gen_range(0..30i64)),
                semrec::datalog::Value::Int(rng.gen_range(0..30i64)),
            ],
        );
        let pre_edb = edb_snapshot(&db, &["edge", "witness"]);
        let pre_idb = idb_snapshot(m.idb());

        failpoint::clear();
        failpoint::arm("incr.delete", fire_at, action);
        let result = m.apply(&mut db, &tx, Budget::unlimited(), None);
        failpoint::clear();

        match result {
            Ok(_) => {
                committed += 1;
                let scratch = semrec::engine::evaluate(&db, &s.program, Strategy::SemiNaive)
                    .unwrap()
                    .relation("reach")
                    .unwrap()
                    .sorted_tuples();
                assert_eq!(
                    m.idb()[&"reach".into()].sorted_tuples(),
                    scratch,
                    "seed {seed}: committed tx diverged from scratch"
                );
            }
            Err(EngineError::Io(msg)) => {
                rolled_back += 1;
                assert!(msg.contains("injected error"), "seed {seed}: {msg}");
                assert_eq!(
                    edb_snapshot(&db, &["edge", "witness"]),
                    pre_edb,
                    "seed {seed}: EDB changed on rollback"
                );
                assert_eq!(
                    idb_snapshot(m.idb()),
                    pre_idb,
                    "seed {seed}: IDB changed on rollback"
                );
            }
            Err(other) => panic!("seed {seed}: unexpected error {other:?}"),
        }
        for rel in m.idb().values() {
            rel.check_invariant().expect("maintained IDB invariant");
        }
    }
    assert!(committed > 0, "no incr.delete schedule committed");
    assert!(rolled_back > 0, "no incr.delete schedule rolled back");
}

/// A seeded schedule over the `incr.icheck` site, driven through the
/// residue-guarded maintenance layer: a fault inside the delta IC
/// monitor must leave the maintained query — database, route, answers —
/// exactly as before the transaction.
#[test]
fn incr_icheck_fault_commits_exactly_or_rolls_back() {
    let _g = serial();
    let s = parse_scenario(fanout::PROGRAM);
    let db = fanout::generate(&fanout::FanoutParams {
        nodes: 30,
        extra_edges: 15,
        fanout: 3,
        seed: 6,
    });
    let mut q = semrec::core::maintain::MaintainedQuery::new(
        db,
        &s.program,
        &s.constraints,
        OptimizerConfig::default(),
        1,
    )
    .unwrap();
    assert_eq!(q.route(), Route::Optimized);
    let mut committed = 0u32;
    let mut rolled_back = 0u32;
    for seed in 0..10u64 {
        let mut rng = Rng::seed_from_u64(0x1C + seed);
        let fire_at = rng.gen_range(0..2usize) as u64;
        let action = if rng.gen_bool(0.5) {
            FailAction::Err
        } else {
            FailAction::DelayMs(rng.gen_range(1..10usize) as u64)
        };
        // A fresh witnessed node keeps ic1 holding, so a surviving
        // apply stays on the incremental optimized route.
        let v = 1000 + seed as i64;
        let mut tx = semrec::engine::Tx::new();
        tx.insert(
            "edge",
            vec![
                semrec::datalog::Value::Int(rng.gen_range(0..30i64)),
                semrec::datalog::Value::Int(v),
            ],
        );
        tx.insert(
            "witness",
            vec![
                semrec::datalog::Value::Int(v),
                semrec::datalog::Value::Int(v * 1000),
            ],
        );
        let pre_edb = edb_snapshot(q.db(), &["edge", "witness"]);
        let pre_idb = idb_snapshot(q.idb());
        let pre_route = q.route();

        failpoint::clear();
        failpoint::arm("incr.icheck", fire_at, action);
        let result = q.apply(&tx, Budget::unlimited(), None);
        failpoint::clear();

        match result {
            Ok(out) => {
                committed += 1;
                assert_eq!(out.route, Route::IncrementalOptimized, "seed {seed}");
                let scratch =
                    semrec::engine::evaluate(q.db(), &q.plan().rectified, Strategy::SemiNaive)
                        .unwrap()
                        .relation("reach")
                        .unwrap()
                        .sorted_tuples();
                assert_eq!(
                    q.idb()[&"reach".into()].sorted_tuples(),
                    scratch,
                    "seed {seed}: committed tx diverged from scratch"
                );
            }
            Err(EngineError::Io(msg)) => {
                rolled_back += 1;
                assert!(msg.contains("injected error"), "seed {seed}: {msg}");
                // The inserted node is rolled back with everything else,
                // so the next iteration can reuse nothing stale.
                assert_eq!(
                    edb_snapshot(q.db(), &["edge", "witness"]),
                    pre_edb,
                    "seed {seed}: EDB changed on rollback"
                );
                assert_eq!(
                    idb_snapshot(q.idb()),
                    pre_idb,
                    "seed {seed}: IDB changed on rollback"
                );
                assert_eq!(
                    q.route(),
                    pre_route,
                    "seed {seed}: route changed on rollback"
                );
            }
            Err(other) => panic!("seed {seed}: unexpected error {other:?}"),
        }
        for rel in q.idb().values() {
            rel.check_invariant().expect("maintained IDB invariant");
        }
    }
    assert!(committed > 0, "no incr.icheck schedule committed");
    assert!(rolled_back > 0, "no incr.icheck schedule rolled back");
}
