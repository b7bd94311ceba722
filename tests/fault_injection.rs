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

use semrec::core::optimizer::{evaluate_routed, GovernedOutcome, OptimizerConfig};
use semrec::datalog::Value::Int;
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
            evaluate_routed(
                &db,
                &s.program,
                &s.constraints,
                OptimizerConfig::default(),
                Budget::unlimited().with_deadline(Duration::from_secs(60)),
                CancelToken::new(),
                None,
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

/// A panic inside a goal-directed route degrades like any other: the
/// router factors the pushed program toward `reach(3, Y)`, the injected
/// round panic abandons it, and the rectified program — which computes
/// the whole closure — still answers exactly the goal's tuples.
#[test]
fn goal_directed_route_panic_degrades_to_rectified() {
    let _g = serial();
    let (s, db) = Workload::Fanout.build();
    let goal = semrec::datalog::parse_atom("reach(3, Y)").unwrap();
    let expected: Vec<Tuple> = (Workload::Fanout.reference().into_iter())
        .filter(|t| t[0] == Int(3))
        .collect();
    let routed = |armed: bool| {
        failpoint::clear();
        if armed {
            failpoint::arm("eval.round", 1, FailAction::Panic);
        }
        let outcome = evaluate_routed(
            &db,
            &s.program,
            &s.constraints,
            OptimizerConfig::default(),
            Budget::unlimited(),
            CancelToken::new(),
            Some(&goal),
        );
        failpoint::clear();
        let outcome = outcome.expect("a route answers");
        let mut answers = outcome.result.answers(&goal);
        answers.sort();
        assert_eq!(answers, expected, "armed: {armed}");
        outcome
    };
    let clean = routed(false);
    let chosen = clean.result.choice.as_ref().expect("priced").chosen;
    assert_eq!(chosen.name(), "pushed_factored");
    assert_eq!(clean.result.route, Route::Optimized);
    assert!(clean.degraded.is_none());

    let hit = routed(true);
    assert_eq!(hit.result.route, Route::RectifiedFallback);
    let why = hit.degraded.as_deref().expect("degradation reported");
    assert!(why.starts_with("pushed_factored route:"), "{why}");
    assert!(why.contains("injected panic"), "{why}");
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
/// fails (error or panic), `evaluate_routed` falls back to the
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
        let outcome = evaluate_routed(
            &db,
            &s.program,
            &s.constraints,
            OptimizerConfig::default(),
            Budget::unlimited().with_deadline(Duration::from_secs(60)),
            CancelToken::new(),
            None,
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

type Idb = std::collections::BTreeMap<semrec::datalog::Pred, semrec::engine::Relation>;

fn idb_snapshot(idb: &Idb) -> Vec<(String, Vec<Tuple>)> {
    idb.iter()
        .map(|(p, r)| (p.to_string(), r.sorted_tuples()))
        .collect()
}

fn expect_invariants(db: &Database, idb: &Idb, ctx: &str) {
    for (p, rel) in db.iter().chain(idb.iter().map(|(&p, r)| (p, r))) {
        rel.check_invariant()
            .unwrap_or_else(|e| panic!("{ctx}: {p}: {e}"));
    }
}

fn scratch_reach(db: &Database, program: &semrec::datalog::Program) -> Vec<Tuple> {
    semrec::engine::evaluate(db, program, Strategy::SemiNaive)
        .unwrap()
        .relation("reach")
        .unwrap()
        .sorted_tuples()
}

/// The schedule of the `seed`-th transaction of a sweep over `sites`,
/// each visited once per transaction: the site, whether the visit fires
/// (`fire_at` 0) or never does (1), and an error or a drawn delay — the
/// three cycle at different periods, so 12 seeds cover every combination.
fn incr_schedule(
    seed: u64,
    rng: &mut Rng,
    sites: [&'static str; 3],
) -> (&'static str, u64, FailAction) {
    let action = if (seed / 6).is_multiple_of(2) {
        FailAction::Err
    } else {
        FailAction::DelayMs(rng.gen_range(1..10usize) as u64)
    };
    (sites[(seed % 3) as usize], (seed / 3) % 2, action)
}

/// A random live `edge` tuple.
fn random_edge(db: &Database, rng: &mut Rng) -> Tuple {
    let mut edges = db.get("edge".into()).unwrap().sorted_tuples();
    edges.swap_remove(rng.gen_range(0..edges.len()))
}

/// Which sites of a seeded sweep rolled a transaction back.
#[derive(Default)]
struct Sweep {
    committed: u32,
    rolled_back: std::collections::BTreeSet<&'static str>,
}

impl Sweep {
    fn expect_both_outcomes(&self, sites: [&'static str; 3]) {
        assert!(self.committed > 0, "no schedule committed");
        for site in sites {
            assert!(
                self.rolled_back.contains(site),
                "no {site} schedule rolled back"
            );
        }
    }
}

/// A seeded schedule over the incremental update's sites — before
/// anything is mutated (`incr.delete`), with the transaction applied and
/// the doomed rows tombstoned (`incr.rederive`), with the re-derived
/// rows appended too (`incr.propagate`): every transaction with deletes
/// either commits exactly (maintained IDB == from-scratch evaluation of
/// the post-tx database) or is undone in place (database and IDB hold
/// their pre-tx tuples, every relation passes its invariant, and the
/// same transaction then commits and agrees with scratch).
#[test]
fn incr_delete_fault_commits_exactly_or_rolls_back() {
    let _g = serial();
    let sites = ["incr.delete", "incr.rederive", "incr.propagate"];
    let s = parse_scenario(fanout::PROGRAM);
    let mut db = fanout::generate(&fanout::FanoutParams {
        nodes: 30,
        extra_edges: 15,
        fanout: 3,
        seed: 5,
    });
    let mut m = semrec::engine::incr::Materialized::new(&db, &s.program).unwrap();
    let mut sweep = Sweep::default();
    for seed in 0..24u64 {
        let mut rng = Rng::seed_from_u64(0xD0 + seed);
        let (site, fire_at, action) = incr_schedule(seed, &mut rng, sites);
        let victim = random_edge(&db, &mut rng);
        let mut tx = semrec::engine::Tx::new();
        tx.delete("edge", victim.clone());
        tx.insert(
            "edge",
            vec![
                semrec::datalog::Value::Int(rng.gen_range(0..30i64)),
                semrec::datalog::Value::Int(rng.gen_range(0..30i64)),
            ],
        );
        if rng.gen_bool(0.3) {
            // Deleted and re-inserted: undo must cut the fresh row
            // before it revives the old one.
            tx.insert("edge", victim);
        }
        let pre_edb = edb_snapshot(&db, &["edge", "witness"]);
        let pre_idb = idb_snapshot(m.idb());

        failpoint::clear();
        failpoint::arm(site, fire_at, action);
        let result = m.apply(&mut db, &tx, Budget::unlimited(), None);
        failpoint::clear();

        let ctx = format!("seed {seed} ({site} {action:?}@{fire_at})");
        expect_invariants(&db, m.idb(), &ctx);
        match result {
            Ok(_) => sweep.committed += 1,
            Err(EngineError::Io(msg)) => {
                sweep.rolled_back.insert(site);
                assert!(msg.contains("injected error"), "{ctx}: {msg}");
                assert_eq!(edb_snapshot(&db, &["edge", "witness"]), pre_edb, "{ctx}");
                assert_eq!(idb_snapshot(m.idb()), pre_idb, "{ctx}");
                m.apply(&mut db, &tx, Budget::unlimited(), None)
                    .unwrap_or_else(|e| panic!("{ctx}: disarmed retry: {e}"));
                expect_invariants(&db, m.idb(), &ctx);
            }
            Err(other) => panic!("{ctx}: unexpected error {other:?}"),
        }
        assert_eq!(
            m.idb()[&"reach".into()].sorted_tuples(),
            scratch_reach(&db, &s.program),
            "{ctx}: committed tx diverged from scratch"
        );
    }
    sweep.expect_both_outcomes(sites);
}

/// A cancel token fired while DRed over-deletion runs: deleting a
/// chain's last edge over-deletes one row per link, one round each. The
/// sixth round is held at its boundary; another thread waits until it
/// is, fires the token, and the next round's check trips. The
/// transaction fails as a typed `Cancelled`, database and
/// materialization are tuple-equal to before, and the same transaction
/// then commits.
#[test]
fn a_cancel_mid_over_deletion_rolls_back() {
    let _g = serial();
    let s = parse_scenario(fanout::PROGRAM);
    let mut db = Database::new();
    for i in 0..30i64 {
        db.insert("edge", vec![Int(i), Int(i + 1)]);
        db.insert("witness", vec![Int(i + 1), Int(0)]);
    }
    let mut m = semrec::engine::incr::Materialized::new(&db, &s.program).unwrap();
    let pre = (
        edb_snapshot(&db, &["edge", "witness"]),
        idb_snapshot(m.idb()),
    );
    let mut tx = semrec::engine::Tx::new();
    tx.delete("edge", vec![Int(29), Int(30)]);
    let token = CancelToken::new();
    let fire = token.clone();
    failpoint::clear();
    failpoint::arm("eval.round", 5, FailAction::DelayMs(500));
    let canceller = std::thread::spawn(move || {
        while failpoint::hits("eval.round") < 6 {
            std::thread::yield_now();
        }
        fire.cancel();
    });
    let result = m.apply(&mut db, &tx, Budget::unlimited(), Some(token));
    canceller.join().unwrap();
    failpoint::clear();
    assert_eq!(result.unwrap_err(), EngineError::Cancelled);
    expect_invariants(&db, m.idb(), "after the cancelled over-deletion");
    let post = (
        edb_snapshot(&db, &["edge", "witness"]),
        idb_snapshot(m.idb()),
    );
    assert_eq!(post, pre);
    let stats = m.apply(&mut db, &tx, Budget::unlimited(), None).unwrap();
    assert_eq!(stats.over_deleted, 30);
    assert_eq!(
        m.idb()[&"reach".into()].sorted_tuples(),
        scratch_reach(&db, &s.program)
    );
}

/// The same schedule one layer up, with the delta IC monitor's site in
/// it, driven through the residue-guarded maintenance layer: a fault
/// between the in-place EDB update and the end of propagation must
/// leave the maintained query — database, route, answers — exactly as
/// before the transaction, and ready for the next one.
#[test]
fn incr_icheck_fault_commits_exactly_or_rolls_back() {
    let _g = serial();
    let sites = ["incr.icheck", "incr.rederive", "incr.propagate"];
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
    let mut sweep = Sweep::default();
    for seed in 0..24u64 {
        let mut rng = Rng::seed_from_u64(0x1C + seed);
        let (site, fire_at, action) = incr_schedule(seed, &mut rng, sites);
        // A fresh witnessed node keeps ic1 holding, and losing an edge
        // cannot break it, so a surviving apply stays on the
        // incremental optimized route.
        let v = 1000 + seed as i64;
        let mut tx = semrec::engine::Tx::new();
        tx.delete("edge", random_edge(q.db(), &mut rng));
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
        failpoint::arm(site, fire_at, action);
        let result = q.apply(&tx, Budget::unlimited(), None);
        failpoint::clear();

        let ctx = format!("seed {seed} ({site} {action:?}@{fire_at})");
        expect_invariants(q.db(), q.idb(), &ctx);
        let out = match result {
            Ok(out) => {
                sweep.committed += 1;
                out
            }
            Err(EngineError::Io(msg)) => {
                sweep.rolled_back.insert(site);
                assert!(msg.contains("injected error"), "{ctx}: {msg}");
                assert_eq!(edb_snapshot(q.db(), &["edge", "witness"]), pre_edb, "{ctx}");
                assert_eq!(idb_snapshot(q.idb()), pre_idb, "{ctx}");
                assert_eq!(q.route(), pre_route, "{ctx}: route changed on rollback");
                assert!(q.violated().is_empty(), "{ctx}");
                let out = q
                    .apply(&tx, Budget::unlimited(), None)
                    .unwrap_or_else(|e| panic!("{ctx}: disarmed retry: {e}"));
                expect_invariants(q.db(), q.idb(), &ctx);
                out
            }
            Err(other) => panic!("{ctx}: unexpected error {other:?}"),
        };
        assert_eq!(out.route, Route::IncrementalOptimized, "{ctx}");
        assert_eq!(
            q.idb()[&"reach".into()].sorted_tuples(),
            scratch_reach(q.db(), &q.plan().rectified),
            "{ctx}: committed tx diverged from scratch"
        );
    }
    sweep.expect_both_outcomes(sites);
}
