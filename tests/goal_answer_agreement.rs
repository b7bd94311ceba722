//! Indexed goal answering agrees with the full-relation scan: on every
//! generated workload and binding pattern, `answer_goal` (dictionary
//! probes for bound columns, probe + row comparison for all-bound
//! goals, residual filtering for the rest) must select exactly the
//! tuples a `goal_matches` scan selects — also on a snapshot that reads
//! through an index a later snapshot already extended past its
//! watermark — and the serving daemon, which answers the same goals as
//! row ids and renders them straight off the pinned snapshot, must put
//! exactly those tuples on the wire.

mod common;

use common::{frame, wire};
use semrec::datalog::parser::Unit;
use semrec::datalog::{Atom, Pred, Term, Value};
use semrec::engine::eval::{answer_goal, goal_matches};
use semrec::engine::{evaluate, Database, Relation, Snapshot, Strategy, Tuple};
use semrec::gen::rng::Rng;
use semrec::gen::{fanout, flights, genealogy, org, parse_scenario, university};
use semrec::serve::{ServeConfig, Server};

/// The reference: filter every snapshot tuple through `goal_matches`.
fn scan(rel: &Snapshot, goal: &Atom) -> Vec<Tuple> {
    rel.sorted_tuples()
        .into_iter()
        .filter(|t| goal_matches(goal, t))
        .collect()
}

fn check(rel: &Snapshot, goal: &Atom, ctx: &str) {
    let mut probed = answer_goal(rel, goal);
    probed.sort();
    assert_eq!(probed, scan(rel, goal), "{ctx}: goal `{goal}` diverged");
}

fn free_vars(arity: usize) -> Vec<Term> {
    (0..arity).map(|i| Term::var(&format!("X{i}"))).collect()
}

/// Every binding pattern the serve read path routes differently:
/// all-free (scan), one bound column at each position (probe), all
/// bound (probe + compare), repeated variables (scan + residual), a
/// bound constant that matches nothing, and arity mismatch.
fn all_patterns(rel: &Snapshot, pred: &str, rng: &mut Rng) -> Vec<Atom> {
    let rows = rel.sorted_tuples();
    let arity = match rows.first() {
        Some(r) => r.len(),
        None => return Vec::new(),
    };
    let p = Pred::new(pred);
    let mut goals = vec![Atom::new(p, free_vars(arity))];
    if arity >= 2 {
        let mut args = free_vars(arity);
        args[1] = args[0];
        goals.push(Atom::new(p, args));
    }

    for _ in 0..3 {
        let row = &rows[rng.gen_range(0..rows.len())];
        for i in 0..arity {
            let mut args = free_vars(arity);
            args[i] = Term::Const(row[i]);
            goals.push(Atom::new(p, args));
        }
        if arity >= 2 {
            let mut args = free_vars(arity);
            args[0] = Term::Const(row[0]);
            args[arity - 1] = Term::Const(row[arity - 1]);
            goals.push(Atom::new(p, args));
        }
        let bound: Vec<Term> = row.iter().map(|v| Term::Const(*v)).collect();
        goals.push(Atom::new(p, bound));
    }

    // A constant no generator emits: the probe must agree that the
    // answer is empty, at every position and fully bound.
    let absent = Value::Int(-987_654_321);
    for i in 0..arity {
        let mut args = free_vars(arity);
        args[i] = Term::Const(absent);
        goals.push(Atom::new(p, args));
    }
    goals.push(Atom::new(p, vec![Term::Const(absent); arity]));

    // Arity mismatch answers empty on both paths.
    goals.push(Atom::new(p, free_vars(arity + 1)));
    goals
}

/// The five generated workloads at test size: name, EDB, program
/// source, and the predicates (IDB and EDB) to interrogate.
fn workloads() -> Vec<(&'static str, Database, &'static str, Vec<&'static str>)> {
    vec![
        (
            "fanout",
            fanout::generate(&fanout::FanoutParams {
                nodes: 60,
                extra_edges: 30,
                fanout: 4,
                seed: 11,
            }),
            fanout::PROGRAM,
            vec!["reach", "edge", "witness"],
        ),
        (
            "org",
            org::generate(&org::OrgParams {
                employees: 80,
                seed: 12,
                ..org::OrgParams::default()
            }),
            org::PROGRAM,
            vec!["triple", "boss", "experienced"],
        ),
        (
            "university",
            university::generate(&university::UniversityParams {
                professors: 12,
                students: 40,
                seed: 13,
                ..university::UniversityParams::default()
            }),
            university::PROGRAM,
            vec!["eval", "eval_support", "works_with", "pays"],
        ),
        (
            "genealogy",
            genealogy::generate(&genealogy::GenealogyParams {
                families: 2,
                depth: 4,
                branching: 2,
                seed: 14,
            }),
            genealogy::PROGRAM,
            vec!["anc", "par"],
        ),
        (
            "flights",
            flights::generate(&flights::FlightsParams {
                seed: 15,
                ..flights::FlightsParams::default()
            }),
            flights::PROGRAM,
            vec!["route", "flight", "hub"],
        ),
    ]
}

#[test]
fn indexed_answers_agree_with_scans_on_generated_workloads() {
    for (name, db, src, preds) in workloads() {
        let s = parse_scenario(src);
        let fixed = evaluate(&db, &s.program, Strategy::SemiNaive).expect("fixpoint");
        let mut rng = Rng::seed_from_u64(0x60A1);
        for pred in preds {
            let rel = fixed
                .relation(Pred::new(pred))
                .or_else(|| db.get(Pred::new(pred)))
                .unwrap_or_else(|| panic!("{name}: no relation `{pred}`"))
                .snapshot();
            for goal in all_patterns(&rel, pred, &mut rng) {
                check(&rel, &goal, &format!("{name}/{pred}"));
            }
        }
    }
}

/// A published snapshot reads through its lineage's shared indexes,
/// which a reader of a *later* snapshot may already have extended past
/// this one's watermark (and which know nothing of its tombstones).
/// Every binding pattern — all-bound included, which on a snapshot is
/// an index probe plus a row comparison — must still select exactly the
/// older snapshot's tuples.
#[test]
fn snapshots_behind_their_lineage_index_agree_with_scans() {
    for (name, db, src, preds) in workloads() {
        let s = parse_scenario(src);
        let fixed = evaluate(&db, &s.program, Strategy::SemiNaive).expect("fixpoint");
        let mut rng = Rng::seed_from_u64(0x60A2);
        for pred in preds {
            let full = fixed
                .relation(Pred::new(pred))
                .or_else(|| db.get(Pred::new(pred)))
                .unwrap_or_else(|| panic!("{name}: no relation `{pred}`"));
            let rows = full.sorted_tuples();
            let ctx = format!("{name}/{pred}");
            // Grow one relation in three publications: half the rows; a
            // delete among them plus a quarter more; the rest.
            let meter = std::sync::Arc::default();
            let (half, three_q) = (rows.len() / 2, rows.len() * 3 / 4);
            let mut rel = Relation::new(full.arity());
            for row in &rows[..half] {
                rel.insert(row);
            }
            let early = rel.snapshot_after(None, &meter);
            if half > 0 {
                rel.delete(&rows[half / 2]);
            }
            for row in &rows[half..three_q] {
                rel.insert(row);
            }
            let middle = rel.snapshot_after(Some(&early), &meter);
            for row in &rows[three_q..] {
                rel.insert(row);
            }
            let late = rel.snapshot_after(Some(&middle), &meter);
            assert!(late.shares_indexes_with(&early), "{ctx}: one lineage");
            // Reading the newest first builds every index over all rows…
            let goals = all_patterns(&late, pred, &mut rng);
            for goal in &goals {
                check(&late, goal, &ctx);
            }
            let indexed = late.indexed_rows();
            // …so the older two now sit behind the indexes they probe.
            for goal in goals.iter().chain(&all_patterns(&early, pred, &mut rng)) {
                check(&middle, goal, &format!("{ctx} (middle)"));
                check(&early, goal, &format!("{ctx} (early)"));
            }
            assert_eq!(early.len(), half, "{ctx}: the delete came later");
            assert!(
                late.indexed_rows() >= indexed,
                "{ctx}: an older reader never shrinks an index"
            );
        }
    }
}

/// The wire agrees with the tuples, and the tuples with the scan: for
/// every workload and binding pattern (string constants, a missing
/// predicate and arity mismatches among them) a session's bytes are the
/// header, `render_fact` over `Server::query(..).tuples`, and `end` —
/// whether the answer was computed, came out of the row-id cache, or
/// the daemon has no cache at all.
#[test]
fn wire_bytes_agree_with_tuples_on_generated_workloads() {
    for (name, db, src, preds) in workloads() {
        let s = parse_scenario(src);
        let unit = Unit {
            rules: s.program.rules.clone(),
            facts: db
                .iter()
                .flat_map(|(p, rel)| {
                    rel.iter()
                        .map(move |row| Atom::new(p, row.iter().map(|v| Term::Const(*v)).collect()))
                })
                .collect(),
            constraints: s.constraints.clone(),
        };
        let open = |cfg| Server::open(&unit, cfg, None).expect("open").0;
        let cached = open(ServeConfig::default());
        let uncached = open(ServeConfig {
            cache_capacity: 0,
            ..ServeConfig::default()
        });
        let state = cached.registry().pin(None).expect("pin latest");
        let mut rng = Rng::seed_from_u64(0x60A1);
        let mut goals = vec![Atom::new(Pred::new("no_such_pred"), free_vars(2))];
        for pred in preds {
            let rel = state
                .relation(Pred::new(pred))
                .unwrap_or_else(|| panic!("{name}: `{pred}` is not published"));
            goals.extend(all_patterns(rel, pred, &mut rng));
        }
        for goal in &goals {
            let ctx = format!("{name}: goal `{goal}`");
            let reply = cached.query(goal, None, None).expect("query");
            let reference = match state.relation(goal.pred) {
                Some(rel) => scan(rel, goal),
                None => Vec::new(),
            };
            assert_eq!(
                reply.tuples, reference,
                "{ctx}: tuples diverged from the scan"
            );
            let expect = frame(goal.pred, &reply);
            let request = format!("query {goal}.\n");
            // The query above warmed the cache: this is a hit.
            assert_eq!(wire(&cached, &request), expect, "{ctx}: cached wire");
            assert_eq!(wire(&uncached, &request), expect, "{ctx}: uncached wire");
        }
        // Every wire read of the cached daemon was a hit (sampled goals
        // may repeat, so some of the warming queries were hits too).
        let stats = cached.stats();
        assert!(
            stats.cache_hits as usize >= goals.len(),
            "{name}: {stats:?}"
        );
        assert_eq!(
            (stats.cache_hits + stats.cache_misses) as usize,
            2 * goals.len()
        );
        assert_eq!(
            uncached.stats().cache_hits + uncached.stats().cache_misses,
            0
        );
    }
}

/// String-valued constants route through the same probe path as
/// integers — the dictionary index is value-typed, not int-only.
#[test]
fn string_constants_probe_correctly() {
    let db = org::generate(&org::OrgParams {
        employees: 60,
        seed: 21,
        ..org::OrgParams::default()
    });
    let rel = db.get(Pred::new("boss")).expect("boss relation").snapshot();
    let rows = rel.sorted_tuples();
    let rank = rows
        .iter()
        .map(|r| r[2])
        .find(|v| matches!(v, Value::Str(_)))
        .expect("boss carries a string rank column");
    let goal = Atom::new(
        Pred::new("boss"),
        vec![Term::var("E"), Term::var("B"), Term::Const(rank)],
    );
    check(&rel, &goal, "org/boss string rank");
}
