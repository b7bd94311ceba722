//! Executor-vs-oracle agreement: for every `gen` workload generator
//! plus hand-built shapes that exercise negation, builtins at every
//! depth, filters, constants and computed values in index keys, cross
//! products, bodyless and wide rules, and multi-recursive rules, the
//! batch executor must produce the identical IDB (tuple for tuple) as
//! the naive oracle of `tests/common/naive.rs`, from scratch and under
//! `Materialized` maintenance. A seeded chunk-boundary test pins the
//! gather/sort/group pipeline at delta sizes straddling the chunk
//! constant. Also pins the allocation discipline: the task scratch
//! high-water mark stays bounded by a small constant (the chunk
//! buffers) no matter how many rows a workload derives.

#[path = "common/naive.rs"]
mod naive;

use semrec::datalog::{Atom, Literal, Pred, Program, Rule, Value};
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

/// Dedup pre-size underestimate: rounds of duplicate-heavy derivation
/// teach the drain's unique-fraction EWMA a low estimate, then one
/// round derives a burst of all-unique rows far past the reserved
/// headroom — the dedup table must fall back to its natural mid-insert
/// grow schedule (observable as `dedup_regrows > 0`) without losing or
/// duplicating a tuple: `p` is exactly the set of nodes.
#[test]
fn dedup_presize_underestimate_agrees_and_regrows() {
    let mut db = Database::default();
    // Stage 0 seeds; stages 1..=5 are duplicate-heavy (each of the 200
    // stage-k+1 nodes is re-derived from 4 distinct stage-k nodes);
    // stage 6 explodes into 100 fresh unique nodes per source — far
    // past both the learned estimate and the one sized jump a consumed
    // reservation buys, so the drain must fall back to natural grows.
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
    assert_eq!(idb[&Pred::new("p")], nodes, "IDB diverged");
    assert!(stats.kernel_firings > 0, "kernel never fired");
    assert!(
        stats.dedup_regrows > 0,
        "the all-unique burst should outrun the EWMA reservation \
         (derived={}, inserted={})",
        stats.derived,
        stats.inserted
    );
}

/// Chunk-boundary pinning: the batch pipeline gathers seed rows in
/// fixed-size chunks, so off-by-one bugs live exactly at delta sizes of
/// 1, chunk−1, chunk, chunk+1 and a few whole chunks. Build a seed
/// relation of each size (keys from a seeded LCG so groups straddle
/// chunk edges), join it through a probe, and require tuple-for-tuple
/// agreement with the oracle.
#[test]
fn chunk_boundary_sizes_agree() {
    const CHUNK: usize = 1024; // mirrors the executor's KERNEL_CHUNK
    for n in [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK] {
        let mut db = Database::default();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for i in 0..n {
            // xorshift64*: deterministic, scattered keys with repeats.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let key = (state % 97) as i64;
            db.insert("e", vec![Value::Int(i as i64), Value::Int(key)]);
        }
        for j in 0..97i64 {
            db.insert("w", vec![Value::Int(j), Value::Int(j + 1)]);
            if j % 3 == 0 {
                db.insert("w", vec![Value::Int(j), Value::Int(j + 2)]);
            }
        }
        let prog: Program = "out(X,Z) :- e(X,Y), w(Y,Z).".parse().unwrap();
        let base = oracle_map(&db, &prog);
        assert!(
            base.values().any(|rows| !rows.is_empty()),
            "n={n}: derived nothing — test is vacuous"
        );
        let (idb, stats) = idb_map(&db, &prog);
        assert_eq!(base, idb, "n={n}: IDB diverged");
        assert!(stats.kernel_firings > 0, "n={n}: kernel never fired");
    }
}

/// The allocation discipline the kernels claim: task execution does
/// zero per-derived-row heap allocation, so the task scratch
/// high-water mark is a function of plan shape and the fixed chunk
/// constant (the gather buffer is KERNEL_CHUNK entries), never of data
/// size. Deriving ~100k rows must leave the high-water mark under the
/// chunk budget.
#[test]
fn scratch_high_water_is_bounded_by_plan_shape_not_data() {
    let s = parse_scenario(fanout::PROGRAM);
    let db = fanout::generate(&fanout::FanoutParams {
        nodes: 300,
        extra_edges: 160,
        fanout: 8,
        seed: 42,
    });
    let (idb, stats) = idb_map(&db, &s.program);
    let rows: usize = idb.values().map(Vec::len).sum();
    assert!(rows > 80_000, "expected a large IDB, got {rows} rows");
    assert!(
        stats.scratch_hw_bytes > 0,
        "scratch telemetry never reported"
    );
    // 1024-entry chunk of packed u64 hash/row-id words = 8 KiB, plus
    // the key arena and per-depth state; 32 KiB bounds it with headroom
    // while still failing fast if any buffer ever scales with data.
    assert!(
        stats.scratch_hw_bytes <= 32 * 1024,
        "scratch high-water {}B grew with data",
        stats.scratch_hw_bytes
    );
}
