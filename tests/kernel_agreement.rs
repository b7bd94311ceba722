//! The batch executor's physical contract, and its agreement with the
//! naive oracle. Agreement is the route matrix's (`common/routes.rs`):
//! handwritten programs covering every plan feature the executor runs
//! (`common::cases::kernel_shapes`), the generated workloads at larger
//! sizes, and a burst that grows the drain's membership table mid-insert
//! go through it. What stays here
//! is about something other than answers: a seeded chunk-boundary test
//! pins the gather/group pipeline at delta sizes straddling the chunk
//! constant; the code-grouping tests check singleton, repeated, absent
//! and colliding depth-0 codes against the directly computed join with
//! per-tuple logical counters, and pin one group per present key per
//! round and no sort where no code repeats; incremental EDB deltas
//! agree with a from-scratch run; and the task scratch high-water
//! mark stays bounded by a constant (the chunk buffer and the repeat
//! filter) no matter how many rows a workload derives or how many keys
//! its dictionary holds.

mod common;

use common::cases::{self, duplicate_burst, kernel_shapes, large_workloads};
use common::routes::{check, check_all, check_each, Case};
use semrec::datalog::analysis;
use semrec::datalog::{Facts, Pred, Program, Value};
use semrec::engine::eval::KERNEL_CHUNK;
use semrec::engine::{
    Budget, Database, Evaluator, Materialized, Prepared, Stats, Strategy, Tuple, Tx,
};
use semrec::gen::{fanout, parse_scenario};
use std::collections::{BTreeMap, BTreeSet};

type Idb = BTreeMap<Pred, Vec<Tuple>>;

/// Evaluates and normalizes the full IDB.
fn idb_map(db: &Database, prog: &Program) -> (Idb, Stats) {
    let mut ev = Evaluator::new(db, prog, Strategy::SemiNaive).unwrap();
    ev.run().unwrap();
    let res = ev.finish();
    let idb = res.idb.iter().map(|(&p, rel)| (p, rel.sorted_tuples()));
    (idb.collect(), res.stats)
}

/// Every shape derives something, through the kernel.
#[test]
fn executor_agrees_with_oracle_on_all_workloads() {
    for (name, report) in check_each(kernel_shapes(0..1)) {
        for (p, rows) in &report.states[0] {
            assert!(!rows.is_empty(), "{name}: {p} derived nothing — vacuous");
        }
    }
}

/// The generated workloads at sizes where rounds carry many rows per key
/// (the witness guard at fanout 16 among them), through every route but
/// the goal-directed ones.
#[test]
fn executor_agrees_with_oracle_on_large_generated_workloads() {
    check_all(large_workloads().into_iter().map(Case::without_goals));
}

/// The multi-recursive, constant-key, filter-guard, builtin-check and
/// binding-builtin shapes over other random graphs, through the static
/// routes: every rule fires through the kernel (the matrix asserts
/// `kernel_firings == rule_firings`).
#[test]
fn widened_shapes_fire_kernels_not_interpreter() {
    let widened = ["multi_recursive", "const_keys", "filter_and_builtin_tails"];
    let cases = kernel_shapes(1..2).into_iter().map(Case::static_only);
    let cases = cases.filter(|c| widened.iter().any(|w| c.name.starts_with(w)));
    for (name, report) in check_each(cases) {
        assert!(
            report.stats.kernel_firings > 0,
            "{name}: kernel never fired"
        );
    }
}

/// Five duplicate-heavy rounds, then a burst of 20 000 unique rows into
/// the drain's membership table, which must grow through it mid-insert
/// without losing or duplicating a tuple: `p` is exactly the nodes.
#[test]
fn duplicate_heavy_rounds_then_a_unique_burst_agree_with_oracle() {
    let report = check(&duplicate_burst());
    assert_eq!(report.states[0][&Pred::new("p")].len(), 6 * 200 + 20_000);
    assert!(
        report.stats.derived > report.stats.inserted,
        "no duplicate-heavy round"
    );
}

/// EDB deltas through the incremental path: a materialized fanout
/// fixpoint takes two insert transactions, so each propagation run
/// probes EDB dictionaries that grew since the previous run. The
/// maintained IDB must stay tuple-for-tuple equal to a from-scratch
/// evaluation of the post-transaction database. (The matrix compares
/// both with the oracle on the generated fanout workloads.)
#[test]
fn incremental_edb_deltas_agree_with_scratch() {
    let s = parse_scenario(fanout::PROGRAM);
    let mut db = fanout::generate(&fanout::FanoutParams {
        nodes: 60,
        extra_edges: 0,
        fanout: 8,
        seed: 33,
    });
    let mut m = Materialized::new(&db, &s.program).unwrap();
    assert!(m.is_incremental(), "fanout program is in the fragment");
    // Each tx adds two back edges (the chain runs 0→1→…→59, so late
    // nodes gain reach to the early chain): the new facts cascade
    // backward through the predecessor chain, and the two fronts reach
    // shared mid-chain nodes in different rounds — so the propagation
    // run re-resolves the same witness/edge keys across rounds.
    for [(a1, b1), (a2, b2)] in [[(56i64, 4i64), (40i64, 12i64)], [(48, 1), (32, 16)]] {
        let mut tx = Tx::new();
        tx.insert("edge", vec![Value::Int(a1), Value::Int(b1)]);
        tx.insert("edge", vec![Value::Int(a2), Value::Int(b2)]);
        let st = m.apply(&mut db, &tx, Budget::unlimited(), None).unwrap();
        assert!(!st.from_scratch, "insert-only tx takes the delta path");
        let got: Idb = m
            .idb()
            .iter()
            .map(|(&p, r)| (p, r.sorted_tuples()))
            .collect();
        assert_eq!(
            got,
            idb_map(&db, &s.program).0,
            "maintained IDB diverged from scratch after edge({a1},{b1}), edge({a2},{b2})"
        );
    }
}

/// Maintenance compiles a program once, in incremental mode — every
/// EDB subgoal delta-capable — and runs its first fixpoint and every
/// re-evaluation from those plans in batch: with no transaction the
/// variants reading an EDB predicate's Delta are idle, and skipped. Such
/// a run does exactly the work of `Evaluator::new`'s batch plans — the
/// same IDB and every `Stats` counter equal — on the samples, the
/// regression corpus, the gen bundles and the route matrix's programs.
#[test]
fn batch_runs_of_incremental_plans_do_a_batch_runs_work() {
    let random = ["anc", "closure", "acyclic", "random linear"];
    let cases = (cases::samples(0..2).into_iter())
        .chain(cases::regressions())
        .chain(cases::workloads(0..2))
        .chain(kernel_shapes(0..2))
        .chain(cases::families(0..12))
        .chain(
            random
                .into_iter()
                .flat_map(|k| cases::random_programs(k, 0..4)),
        )
        .chain(cases::random_constraints(0..8));
    let mut seen = 0;
    for case in cases {
        let (db, name) = (&case.edb, &case.name);
        let (want, want_stats) = idb_map(db, &case.program);
        let strata = analysis::check(&case.program, &[], &Facts::new())
            .expect("judged")
            .strata;
        let plans = Prepared::compile(db, &case.program, &[], &strata).expect("compiles");
        let mut ev = Evaluator::from_prepared_batch(db, &plans, None);
        ev.run().unwrap_or_else(|e| panic!("{name}: {e}"));
        let res = ev.finish();
        let got: Idb = (res.idb.iter())
            .map(|(&p, r)| (p, r.sorted_tuples()))
            .collect();
        assert_eq!(got, want, "{name}: IDB");
        assert_eq!(res.stats, want_stats, "{name}: work counters");
        seen += 1;
    }
    assert!(seen >= 70, "{seen} programs");
}

/// Chunk-boundary pinning: the batch pipeline gathers seed rows in
/// [`KERNEL_CHUNK`]-row chunks, so off-by-one bugs live exactly at delta
/// sizes of 1, chunk−1, chunk, chunk+1 and two whole chunks plus one.
/// Build a seed relation of each size (keys from a seeded xorshift so
/// groups straddle chunk edges), join it through a probe, and require
/// tuple-for-tuple agreement with the join computed directly (the naive
/// oracle's nested loop is quadratic at these sizes).
#[test]
fn chunk_boundary_sizes_agree() {
    const C: usize = KERNEL_CHUNK;
    let mut w: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
    for j in 0..97i64 {
        w.entry(j).or_default().push(j + 1);
        if j % 3 == 0 {
            w.entry(j).or_default().push(j + 2);
        }
    }
    let prog: Program = "out(X,Z) :- e(X,Y), w(Y,Z).".parse().unwrap();
    for n in [1, C - 1, C, C + 1, 2 * C + 1] {
        let mut db = Database::default();
        let mut want = Vec::new();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for i in 0..n as i64 {
            // xorshift64*: deterministic, scattered keys with repeats.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let key = (state % 97) as i64;
            db.insert("e", vec![Value::Int(i), Value::Int(key)]);
            want.extend(w[&key].iter().map(|&z| vec![Value::Int(i), Value::Int(z)]));
        }
        for (&y, zs) in &w {
            for &z in zs {
                db.insert("w", vec![Value::Int(y), Value::Int(z)]);
            }
        }
        want.sort();
        let (idb, stats) = idb_map(&db, &prog);
        assert_eq!(idb[&Pred::new("out")], want, "n={n}: IDB diverged");
        assert!(stats.kernel_firings > 0, "n={n}: kernel never fired");
    }
}

/// Each key pays for its probes once per round: 4 096 delta rows over 8
/// keys, each key's rows spread across the whole delta (far past a
/// 1 024-row unit), form exactly one group per key present in the
/// depth-0 dictionary per round, and every gathered row resolves its
/// depth-0 key once, at gather.
#[test]
fn a_rounds_delta_groups_once_per_distinct_key() {
    const KEYS: i64 = 8;
    let mut db = Database::default();
    for i in 0..4096i64 {
        db.insert("e", vec![Value::Int(i), Value::Int(i % KEYS)]);
    }
    for k in 0..KEYS {
        db.insert("w", vec![Value::Int(k), Value::Int(100 + k)]);
    }
    // Round 2 joins the 4 096-row delta `p(X, k)` with `w`; round 3's
    // delta `p(X, 100 + k)` has another 8 keys, none of which `w` holds,
    // so its rows drop at gather and form no group.
    let prog: Program = "p(X,Y) :- e(X,Y). p(X,Z) :- p(X,Y), w(Y,Z)."
        .parse()
        .unwrap();
    let (idb, stats) = idb_map(&db, &prog);
    assert_eq!(idb[&Pred::new("p")].len(), 2 * 4096);
    assert_eq!(
        stats.groups, KEYS as u64,
        "one group per present key per round"
    );
    assert_eq!(
        stats.dict_probes,
        2 * 4096,
        "one resolution per gathered row"
    );
    assert_eq!(
        stats.sorted_chunks, 1,
        "only round 2's chunk repeats a code"
    );
}

/// `s(X,Y) :- e(X,Y). out(X,Z) :- s(X,Y), w(Y,Z).` over the given `e`
/// and `w` rows (each list duplicate-free). The seed `s` is an IDB
/// predicate, so the planner keeps source order: round 2 gathers all of
/// `e` as `s`'s delta and probes `w` at depth 0. Checks `out` against
/// the join computed directly and the logical counters against
/// tuple-at-a-time execution (one probe per seed row, one hit, one
/// scanned row and one derivation per join pair), and returns the stats
/// for the caller's physical assertions.
fn join_agrees(name: &str, e: &[(i64, i64)], w: &[(i64, i64)]) -> Stats {
    let mut db = Database::default();
    let mut by_key: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
    for &(y, z) in w {
        db.insert("w", vec![Value::Int(y), Value::Int(z)]);
        by_key.entry(y).or_default().push(z);
    }
    let mut want = BTreeSet::new();
    let mut pairs = 0u64;
    for &(x, y) in e {
        db.insert("e", vec![Value::Int(x), Value::Int(y)]);
        for &z in by_key.get(&y).into_iter().flatten() {
            pairs += 1;
            want.insert(vec![Value::Int(x), Value::Int(z)]);
        }
    }
    let prog: Program = "s(X,Y) :- e(X,Y). out(X,Z) :- s(X,Y), w(Y,Z)."
        .parse()
        .unwrap();
    let (idb, stats) = idb_map(&db, &prog);
    let got = idb.get(&Pred::new("out")).cloned().unwrap_or_default();
    assert_eq!(
        got,
        Vec::from_iter(want.iter().cloned()),
        "{name}: IDB diverged"
    );
    let n = e.len() as u64;
    assert_eq!(stats.probes, n, "{name}: probes");
    assert_eq!(stats.probe_hits, pairs, "{name}: hits");
    assert_eq!(stats.rows_scanned, 2 * n + pairs, "{name}: rows");
    assert_eq!(stats.derived, n + pairs, "{name}: derived");
    assert_eq!(stats.inserted, n + want.len() as u64, "{name}: inserted");
    assert_eq!(stats.cmp_evals, 0, "{name}: cmps");
    stats
}

/// Code grouping at gather: a chunk is sorted only when a depth-0 code
/// repeats in it (by the repeat filter's low bits), a key absent from
/// the dictionary drops its row before grouping, and every case derives
/// the direct join with the counters of per-tuple execution.
#[test]
fn code_grouping_agrees_with_the_direct_join() {
    const C: i64 = KERNEL_CHUNK as i64;
    // Singleton groups only: every seed row has its own key.
    let e: Vec<_> = (0..5000i64).map(|i| (i, 3 * i)).collect();
    let w: Vec<_> = (0..5000i64).map(|i| (3 * i, i + 1)).collect();
    let st = join_agrees("singletons", &e, &w);
    assert_eq!((st.groups, st.sorted_chunks), (5000, 0), "singletons");

    // Singleton and repeated keys mixed in one chunk.
    let key = |i: i64| if i % 4 == 0 { 1000 + i } else { i % 7 };
    let e: Vec<_> = (0..4000i64).map(|i| (i, key(i))).collect();
    let mut w: Vec<_> = (0..7i64).flat_map(|k| [(k, -k), (k, -k - 100)]).collect();
    w.extend((0..4000i64).step_by(4).map(|i| (1000 + i, i)));
    let st = join_agrees("mixed", &e, &w);
    assert_eq!((st.groups, st.sorted_chunks), (7 + 1000, 1), "mixed");

    // Seed keys absent from the depth-0 dictionary: odd keys never form
    // a group, yet each of their rows still counts its probe.
    let e: Vec<_> = (0..3000i64).map(|i| (i, i % 20)).collect();
    let w: Vec<_> = (0..20i64).step_by(2).map(|k| (k, k * k)).collect();
    let st = join_agrees("absent", &e, &w);
    assert_eq!((st.groups, st.sorted_chunks), (10, 1), "absent");
    let e: Vec<_> = (0..3000i64).map(|i| (i, 2 * i + 1)).collect();
    let st = join_agrees("all absent", &e, &w);
    assert_eq!((st.groups, st.sorted_chunks), (0, 0), "all absent");

    // A depth-0 dictionary of more than 64 Ki keys: distinct seed keys
    // whose codes share low 16 bits send the chunk through the sort,
    // which still leaves every group a singleton.
    let w: Vec<_> = (0..100_000i64).map(|y| (y, y + 1)).collect();
    let e: Vec<_> = (0..60_000i64).map(|i| (i, i * 7919 % 100_000)).collect();
    let st = join_agrees("wide dictionary", &e, &w);
    assert_eq!(
        (st.groups, st.sorted_chunks),
        (60_000, 1),
        "wide dictionary"
    );

    // A delta that crosses the chunk: each chunk groups (and sorts) its
    // own rows, so each key forms one group per chunk.
    let e: Vec<_> = (0..C + 5000).map(|i| (i, i % 97)).collect();
    let w: Vec<_> = (0..97i64).map(|k| (k, k + 1)).collect();
    let st = join_agrees("crosses the chunk", &e, &w);
    assert_eq!(
        (st.groups, st.sorted_chunks),
        (2 * 97, 2),
        "crosses the chunk"
    );
}

/// The serve boot's shape: a chain closure, whose every delta holds one
/// row per key, so no round sorts and every gathered row with a code is
/// its own group. The IDB and the logical counters equal per-tuple
/// execution's closed forms.
#[test]
fn a_chain_closure_groups_singletons_and_never_sorts() {
    const N: i64 = 300;
    let mut db = Database::default();
    for i in 0..N {
        db.insert("e", vec![Value::Int(i), Value::Int(i + 1)]);
    }
    let prog: Program = "t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), t(Z,Y)."
        .parse()
        .unwrap();
    let (idb, stats) = idb_map(&db, &prog);
    let want: Vec<Tuple> = (0..N)
        .flat_map(|i| (i + 1..=N).map(move |j| vec![Value::Int(i), Value::Int(j)]))
        .collect();
    assert_eq!(idb[&Pred::new("t")], want, "IDB diverged");
    let (n, rows) = (N as u64, (N * (N + 1) / 2) as u64);
    // Every `t` row probes `e` once; all but the N rows starting at node
    // 0 find their one predecessor edge.
    assert_eq!(stats.iterations, n + 1);
    assert_eq!(stats.probes, rows);
    assert_eq!(stats.probe_hits, rows - n);
    assert_eq!(stats.rows_scanned, n + rows + (rows - n));
    assert_eq!((stats.derived, stats.inserted), (rows, rows));
    assert_eq!(
        stats.groups,
        rows - n,
        "one group per gathered row with a code"
    );
    assert_eq!(stats.sorted_chunks, 0, "a chain never repeats a code");
}

/// The allocation discipline the kernels claim: task execution does
/// zero per-derived-row heap allocation, and the two buffers that grow
/// with a seed scan, the gather chunk of packed `u64` words and the
/// partition's spill, stop at [`KERNEL_CHUNK`] entries; the repeat filter is [`KERNEL_CHUNK`] bits
/// however many keys the depth-0 dictionary holds. So two witness-join
/// workloads whose deltas both exceed the chunk report the same
/// high-water mark, and they and a join over a dictionary of more than
/// 64 Ki keys stay within those constants plus the plan's small
/// per-depth state, however many rows they derive. Each runs on a fresh
/// thread, so no earlier workload's thread-local scratch can hide
/// growth.
#[test]
fn scratch_high_water_is_bounded_by_plan_shape_not_data() {
    let s = parse_scenario(fanout::PROGRAM);
    // Every source has an edge into one hub, and the hub one into a
    // sink: round 2's delta is all `sources + 1` edges.
    let hub = |sources: i64| {
        let mut db = Database::default();
        let (hub, sink) = (sources, sources + 1);
        for v in 0..sources {
            db.insert("edge", vec![Value::Int(v), Value::Int(hub)]);
        }
        db.insert("edge", vec![Value::Int(hub), Value::Int(sink)]);
        for v in 0..=sink {
            db.insert("witness", vec![Value::Int(v), Value::Int(0)]);
        }
        db
    };
    let on_fresh_thread = |db: Database, prog: Program| {
        std::thread::spawn(move || idb_map(&db, &prog))
            .join()
            .unwrap()
    };
    let mut high_water = Vec::new();
    for sources in [KERNEL_CHUNK + 1, 2 * KERNEL_CHUNK + 1] {
        let (idb, stats) = on_fresh_thread(hub(sources as i64), s.program.clone());
        assert_eq!(idb[&Pred::new("reach")].len(), 2 * sources + 1);
        high_water.push(stats.scratch_hw_bytes);
    }
    // Two chunks' worth of seed rows over a 100 000-key depth-0
    // dictionary.
    let mut db = Database::default();
    let keys = 100_000;
    for y in 0..keys {
        db.insert("w", vec![Value::Int(y), Value::Int(y + 1)]);
    }
    for i in 0..2 * KERNEL_CHUNK as i64 {
        db.insert("e", vec![Value::Int(i), Value::Int(i * 7919 % keys)]);
    }
    let prog: Program = "s(X,Y) :- e(X,Y). out(X,Z) :- s(X,Y), w(Y,Z)."
        .parse()
        .unwrap();
    let (idb, stats) = on_fresh_thread(db, prog);
    assert_eq!(idb[&Pred::new("out")].len(), 2 * KERNEL_CHUNK);
    assert!(
        stats.sorted_chunks > 0,
        "the wide dictionary never collided"
    );
    high_water.push(stats.scratch_hw_bytes);
    assert_eq!(
        high_water[0], high_water[1],
        "scratch high-water grew with data"
    );
    let fixed = (2 * KERNEL_CHUNK * std::mem::size_of::<u64>() + KERNEL_CHUNK / 8) as u64;
    for hw in high_water {
        assert!(
            (fixed..=fixed + 4096).contains(&hw),
            "scratch high-water {hw}B is not the {fixed}B chunk, spill and filter plus per-depth state",
        );
    }
}
