//! Executor-vs-oracle agreement: for every `gen` workload generator
//! plus hand-built shapes that exercise negation, builtins at every
//! depth, filters, constants and computed values in index keys, cross
//! products, bodyless and wide rules, and multi-recursive rules, the
//! batch executor must produce the identical IDB (tuple for tuple) as
//! the naive oracle of `tests/common/naive.rs`, from scratch and under
//! `Materialized` maintenance. A seeded chunk-boundary test pins the
//! gather/group pipeline at delta sizes straddling the chunk constant;
//! the code-grouping tests check singleton, repeated, absent and
//! colliding depth-0 codes against the directly computed join with
//! per-tuple logical counters, and pin one group per present key per
//! round and no sort where no code repeats. Also pins the allocation
//! discipline: the task scratch high-water mark stays bounded by a
//! constant (the chunk buffer and the repeat filter) no matter how many
//! rows a workload derives or how many keys its dictionary holds.

#[path = "common/naive.rs"]
mod naive;

use semrec::datalog::{Atom, Literal, Pred, Program, Rule, Value};
use semrec::engine::eval::KERNEL_CHUNK;
use semrec::engine::{
    Budget, Database, Evaluator, Materialized, Relation, Stats, Strategy, Tuple, Tx,
};
use semrec::gen::{fanout, genealogy, graphs, org, parse_scenario, university};
use std::collections::BTreeMap;

type Idb = BTreeMap<Pred, Vec<Tuple>>;

/// Normalizes materialized relations into a deterministic map.
fn normal<'a>(idb: impl IntoIterator<Item = (&'a Pred, &'a Relation)>) -> Idb {
    let sorted = |(&p, rel): (&Pred, &Relation)| (p, rel.sorted_tuples());
    idb.into_iter().map(sorted).collect()
}

/// Evaluates and normalizes the full IDB.
fn idb_map(db: &Database, prog: &Program) -> (Idb, Stats) {
    let mut ev = Evaluator::new(db, prog, Strategy::SemiNaive).unwrap();
    ev.run().unwrap();
    let res = ev.finish();
    (normal(&res.idb), res.stats)
}

/// The oracle's IDB in the same normal form.
fn oracle_map(db: &Database, prog: &Program) -> Idb {
    let facts = naive::naive_idb(db, prog);
    let sorted = |(p, set): (Pred, std::collections::BTreeSet<Tuple>)| (p, Vec::from_iter(set));
    facts.into_iter().map(sorted).collect()
}

/// The generator workloads plus handwritten programs covering every
/// plan feature the executor runs: stratified negation, value-binding
/// builtins before and after probes, comparison filters and pure
/// builtin checks, constants and computed values in seed and probe
/// index keys, cross products, bodyless rules, bodies wider than any
/// fixed depth, and multi-recursive rules — alongside the pure
/// seed-plus-probe-chain shapes.
fn workloads() -> Vec<(&'static str, Program, Database)> {
    let mut w = Vec::new();
    {
        let s = parse_scenario(org::PROGRAM);
        let db = org::generate(&org::OrgParams {
            employees: 120,
            seed: 21,
            ..org::OrgParams::default()
        });
        w.push(("org", s.program, db));
    }
    {
        let s = parse_scenario(university::PROGRAM);
        let db = university::generate(&university::UniversityParams {
            professors: 30,
            students: 80,
            chain_len: 4,
            seed: 22,
            ..university::UniversityParams::default()
        });
        w.push(("university", s.program, db));
    }
    {
        let s = parse_scenario(genealogy::PROGRAM);
        let db = genealogy::generate(&genealogy::GenealogyParams {
            families: 3,
            depth: 4,
            branching: 3,
            seed: 23,
        });
        w.push(("genealogy", s.program, db));
    }
    {
        // The witness-guard shape: the kernel's existential short-circuit
        // (group-level in batch execution) must not change the fixpoint,
        // only skip duplicate derivations. (A chain: the oracle needs
        // as many passes as it has nodes, hence the size.)
        let s = parse_scenario(fanout::PROGRAM);
        let db = fanout::generate(&fanout::FanoutParams {
            nodes: 48,
            extra_edges: 32,
            fanout: 16,
            seed: 24,
        });
        w.push(("fanout", s.program, db));
    }
    {
        let prog: Program = "t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), t(Z,Y)."
            .parse()
            .unwrap();
        let db = graphs::random_digraph("e", 120, 400, 25);
        w.push(("random_digraph", prog, db));
    }
    {
        // Multi-recursive closure: two IDB occurrences in one rule, so
        // semi-naive differentiation yields delta variants whose probe
        // depth is itself the recursive predicate — newly kernel-eligible.
        let prog: Program = "t(X,Y) :- e(X,Y). t(X,Z) :- t(X,Y), t(Y,Z)."
            .parse()
            .unwrap();
        let db = graphs::random_digraph("e", 40, 90, 29);
        w.push(("multi_recursive", prog, db));
    }
    {
        // Stratified negation after a cross product.
        let prog: Program = "reach(X,Y) :- edge(X,Y).
             reach(X,Y) :- reach(X,Z), edge(Z,Y).
             cut(X,Y) :- node(X), node(Y), !reach(X,Y)."
            .parse()
            .unwrap();
        let mut db = graphs::random_digraph("edge", 40, 80, 26);
        for n in 0..40i64 {
            db.insert("node", vec![Value::Int(n)]);
        }
        w.push(("negation", prog, db));
    }
    {
        // Builtin compute vs builtin check: the value-*binding* form
        // (`plus` solving for Z) and the comparison filter and
        // pure-check forms, all guards of one mixed program.
        let prog: Program = "t(X,Y) :- e(X,Y).
             t(X,Y) :- e(X,Z), t(Z,Y).
             succ_t(X,Z) :- t(X,Y), plus(Y, 1, Z).
             big(X,Y) :- t(X,Y), Y > 50.
             incr(X,Y) :- t(X,Y), plus(X, 1, Y)."
            .parse()
            .unwrap();
        let db = graphs::random_digraph("e", 80, 200, 27);
        w.push(("builtins", prog, db));
    }
    {
        // Constants in index keys: a constant seed column makes the seed
        // scan keyed — the batch kernel enumerates one dictionary group —
        // and a constant probe column rides the probe key of a chain.
        let prog: Program = "from3(X) :- e(3, X).
             hop3(X,Y) :- e(X,Z), e(Z,Y), e(3, Z).
             t(X,Y) :- e(X,Y).
             t(X,Y) :- e(X,Z), t(Z,Y)."
            .parse()
            .unwrap();
        let db = graphs::random_digraph("e", 60, 200, 28);
        w.push(("const_keys", prog, db));
    }
    {
        // The programs of the engine's former naive-vs-semi-naive unit
        // tests: a chain closure, and negation over a lower stratum.
        let prog: Program = "t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), t(Z,Y).
             reach(X) :- e(0, X).
             reach(Y) :- reach(X), e(X, Y).
             node(X) :- e(X, Y).
             node(Y) :- e(X, Y).
             island(X) :- node(X), !reach(X)."
            .parse()
            .unwrap();
        let mut db = Database::default();
        for i in (0..30i64).filter(|i| i % 7 != 6) {
            db.insert("e", vec![Value::Int(i), Value::Int(i + 1)]);
        }
        w.push(("chain_and_islands", prog, db));
    }
    {
        // Shapes no test reached before the step machine went: a
        // binding builtin after two probes keying a third; negation
        // after two probes; negation with a filter over a lower
        // stratum; a body of seven atoms.
        let prog: Program = "late_bind(X) :- e(X,Y), f(Y,W), plus(W, 1, Z), g(Z).
             unlinked(X,Z) :- e(X,Y), f(Y,Z), !e(X,Z).
             reach(X) :- e(0, X).
             reach(Y) :- reach(X), e(X, Y).
             node(X) :- e(X, Y).
             unreach(X) :- node(X), !reach(X), X != 0.
             walk7(A,H) :- e(A,B), e(B,C), e(C,D), e(D,E), e(E,F), e(F,G), e(G,H)."
            .parse()
            .unwrap();
        let mut db = graphs::random_digraph("e", 24, 40, 35);
        let f = graphs::random_digraph("f", 24, 40, 36);
        for row in f.get(Pred::new("f")).unwrap().iter() {
            db.insert("f", row.to_vec());
        }
        for i in 0..24i64 {
            db.insert("g", vec![Value::Int(i)]);
        }
        w.push(("late_bind_neg_wide", prog, db));
    }
    {
        // Rules with nothing to scan first: bodyless constant rules, a
        // nullary predicate crossed with a relation (the shape magic
        // sets emits for an all-free goal), a plain cross product, and
        // a seed keyed by a computed value.
        let mut prog: Program = "start(1, 2).
             gated(X,Y) :- e(X,Y).
             pairs(X,Y) :- small(X), small(Y).
             three(Y) :- plus(1, 2, Y), q(Y).
             from_start(Z) :- start(X, Y), plus(X, Y, Z), q(Z)."
            .parse()
            .unwrap();
        // The parser has no nullary atoms; magic sets builds them.
        let on = Atom::new("on", Vec::new());
        let gated = prog
            .rules
            .iter_mut()
            .find(|r| r.head.pred == Pred::new("gated"));
        gated.unwrap().body.insert(0, Literal::Atom(on.clone()));
        prog.rules.push(Rule::fact(on));
        let mut db = graphs::random_digraph("e", 12, 20, 38);
        for i in 0..6i64 {
            db.insert("small", vec![Value::Int(i)]);
            db.insert("q", vec![Value::Int(i)]);
        }
        w.push(("unit_seed", prog, db));
    }
    w
}

#[test]
fn executor_agrees_with_oracle_on_all_workloads() {
    for (name, prog, mut db) in workloads() {
        let base = oracle_map(&db, &prog);
        assert!(
            base.values().all(|rows| !rows.is_empty()),
            "{name}: some predicate derived nothing — test is vacuous"
        );
        let (idb, stats) = idb_map(&db, &prog);
        assert_eq!(base, idb, "{name}: IDB diverged from the oracle");
        assert_eq!(stats.kernel_firings, stats.rule_firings, "{name}");
        // The same program kept materialized across an insert and a
        // delete (DRed, or re-evaluation outside its fragment).
        let mut m = Materialized::new(&db, &prog).unwrap();
        assert_eq!(base, normal(m.idb()), "{name}: initial materialization");
        let (pred, row) = first_fact(&db);
        for insert in [false, true] {
            let mut tx = Tx::new();
            if insert {
                tx.insert(pred, row.clone());
            } else {
                tx.delete(pred, row.clone());
            }
            m.apply(&mut db, &tx, Budget::unlimited(), None).unwrap();
            let base = oracle_map(&db, &prog);
            assert_eq!(base, normal(m.idb()), "{name}: insert={insert}");
        }
    }
}

/// Some fact of the database's first non-empty relation.
fn first_fact(db: &Database) -> (Pred, Tuple) {
    let (p, rel) = db.iter().find(|(_, r)| !r.is_empty()).expect("facts");
    (p, rel.iter().next().expect("non-empty").to_vec())
}

/// Every shape derives through the executor: multi-recursive,
/// constant-key, filter-guard, builtin-check and binding-builtin
/// programs each fire and agree with the oracle.
#[test]
fn widened_shapes_fire_kernels_not_interpreter() {
    let shapes: [(&str, &str); 5] = [
        (
            "multi_recursive",
            "t(X,Y) :- e(X,Y). t(X,Z) :- t(X,Y), t(Y,Z).",
        ),
        ("const_seed_key", "from3(X) :- e(3, X)."),
        ("filter_guard", "big(X,Y) :- e(X,Z), Z > 2, e(Z,Y)."),
        ("builtin_check_tail", "incr(X,Y) :- e(X,Y), plus(X, 1, Y)."),
        (
            "binding_builtin_tail",
            "succ(X,Z) :- e(X,Y), plus(Y, 1, Z).",
        ),
    ];
    for (name, src) in shapes {
        let prog: Program = src.parse().unwrap();
        let mut db = graphs::random_digraph("e", 30, 60, 31);
        // The random graph may miss node 3's out-edges; the constant-key
        // shape needs them to derive anything.
        db.insert("e", vec![Value::Int(3), Value::Int(7)]);
        db.insert("e", vec![Value::Int(3), Value::Int(4)]);
        let (idb, stats) = idb_map(&db, &prog);
        assert!(
            idb.values().any(|rows| !rows.is_empty()),
            "{name}: derived nothing — test is vacuous"
        );
        assert_eq!(idb, oracle_map(&db, &prog), "{name}");
        assert!(stats.kernel_firings > 0, "{name}: kernel never fired");
        assert_eq!(stats.interp_firings, 0, "{name}");
    }
}

/// Memo invalidation across EDB deltas: a materialized fanout fixpoint
/// takes two insert transactions through the incremental path, so each
/// propagation run evaluates over an EDB whose physical rows changed
/// since the previous run built (and warmed) its key→code memos. The
/// maintained IDB must stay tuple-for-tuple equal to the oracle's
/// from-scratch evaluation of the post-transaction database, and the
/// propagation runs must actually exercise the memo path
/// (`dict_memo_hits > 0`) — stale codes surviving a delta would diverge
/// the answer, not just the counters.
#[test]
fn incremental_edb_deltas_agree_and_memos_stay_sound() {
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
    // run re-resolves the same witness/edge keys across rounds, the
    // case the EDB-stable memo exists for.
    for [(a1, b1), (a2, b2)] in [[(56i64, 4i64), (40i64, 12i64)], [(48, 1), (32, 16)]] {
        let mut tx = Tx::new();
        tx.insert("edge", vec![Value::Int(a1), Value::Int(b1)]);
        tx.insert("edge", vec![Value::Int(a2), Value::Int(b2)]);
        let st = m.apply(&mut db, &tx, Budget::unlimited(), None).unwrap();
        assert!(!st.from_scratch, "insert-only tx takes the delta path");
        assert!(
            st.stats.dict_memo_hits > 0,
            "propagation run never hit the EDB-stable memo (dict={}, rounds={})",
            st.stats.dict_probes,
            st.rounds
        );
        assert_eq!(
            oracle_map(&db, &s.program),
            normal(m.idb()),
            "maintained IDB diverged from scratch after edge({a1},{b1}), edge({a2},{b2})"
        );
    }
}

/// Duplicate-heavy rounds, then a burst: five rounds derive every row
/// four times, then one round derives 20 000 all-unique rows — 100× the
/// relation's previous round — into the drain's membership table, which
/// must grow through it mid-insert without losing or duplicating a
/// tuple: the IDB equals the oracle's, and `p` is exactly the set of
/// nodes.
#[test]
fn duplicate_heavy_rounds_then_a_unique_burst_agree_with_oracle() {
    let mut db = Database::default();
    // Stage 0 seeds; stages 1..=5 are duplicate-heavy (each of the 200
    // stage-k+1 nodes is re-derived from 4 distinct stage-k nodes);
    // stage 6 explodes into 100 fresh unique nodes per source.
    let node = |stage: i64, i: i64| Value::Int(stage * 100_000 + i);
    for i in 0..200i64 {
        db.insert("s0", vec![node(0, i)]);
    }
    for stage in 0..5i64 {
        for i in 0..200i64 {
            for j in 0..4i64 {
                // In-degree 4 per target: derived = 800, inserted = 200.
                db.insert(
                    "hop",
                    vec![node(stage, (i + 53 * j) % 200), node(stage + 1, i)],
                );
            }
        }
    }
    for i in 0..200i64 {
        for j in 0..100i64 {
            db.insert("hop", vec![node(5, i), node(6, i * 100 + j)]);
        }
    }
    let prog: Program = "p(Y) :- s0(Y). p(Z) :- p(Y), hop(Y, Z).".parse().unwrap();
    let mut nodes: Vec<Tuple> = (0..6)
        .flat_map(|stage| (0..200).map(move |i| vec![node(stage, i)]))
        .chain((0..20_000).map(|i| vec![node(6, i)]))
        .collect();
    nodes.sort();
    let (idb, stats) = idb_map(&db, &prog);
    assert_eq!(idb, oracle_map(&db, &prog), "IDB diverged from the oracle");
    assert_eq!(idb[&Pred::new("p")], nodes, "IDB diverged");
    assert!(stats.kernel_firings > 0, "kernel never fired");
    assert!(stats.derived > stats.inserted, "no duplicate-heavy round");
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
    assert_eq!(stats.dict_memo_hits, 0, "depth 0 is never memoized");
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
    let mut want = std::collections::BTreeSet::new();
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
/// zero per-derived-row heap allocation, and the one buffer that grows
/// with a seed scan, the gather chunk of packed `u64` words, stops at
/// [`KERNEL_CHUNK`] entries; the repeat filter is [`KERNEL_CHUNK`] bits
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
    let fixed = (KERNEL_CHUNK * std::mem::size_of::<u64>() + KERNEL_CHUNK / 8) as u64;
    for hw in high_water {
        assert!(
            (fixed..=fixed + 4096).contains(&hw),
            "scratch high-water {hw}B is not the {fixed}B chunk and filter plus per-depth state",
        );
    }
}
