//! Kernel-vs-machine agreement: for every `gen` workload generator plus
//! hand-built shapes that exercise negation, builtins, filters,
//! constants in index keys, and multi-recursive rules, evaluation with
//! the batch kernels enabled must produce the identical IDB (tuple for
//! tuple) as the general step machine. A seeded chunk-boundary test
//! pins the gather/sort/group pipeline at delta sizes straddling the
//! chunk constant. Also pins the allocation discipline: the task
//! scratch high-water mark stays bounded by a small constant (the chunk
//! buffers) no matter how many rows a workload derives.

use semrec::datalog::{Pred, Program, Value};
use semrec::engine::{Budget, Database, Evaluator, Materialized, Stats, Strategy, Tuple, Tx};
use semrec::gen::{fanout, genealogy, graphs, org, parse_scenario, university};
use std::collections::BTreeMap;

/// Evaluates with the kernels on or off and normalizes the full IDB
/// into a deterministic map.
fn idb_map(db: &Database, prog: &Program, kernels: bool) -> (BTreeMap<Pred, Vec<Tuple>>, Stats) {
    let mut ev = Evaluator::new(db, prog, Strategy::SemiNaive)
        .unwrap()
        .with_kernels(kernels);
    ev.run().unwrap();
    let res = ev.finish();
    let map = res
        .idb
        .iter()
        .map(|(&p, rel)| (p, rel.sorted_tuples()))
        .collect();
    (map, res.stats)
}

/// The generator workloads plus handwritten programs covering the plan
/// features batch kernels must *not* mishandle: stratified negation and
/// value-binding builtins (which fall back to the step machine), and the
/// widened kernel-eligible shapes — comparison filters and pure builtin
/// checks compiled to guards, constants in seed and probe index keys,
/// and multi-recursive rules — alongside the pure seed-plus-probe-chain
/// shapes.
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
        // only skip duplicate derivations.
        let s = parse_scenario(fanout::PROGRAM);
        let db = fanout::generate(&fanout::FanoutParams {
            nodes: 120,
            extra_edges: 80,
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
        // Stratified negation: the Neg step only runs in the machine.
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
        // (`plus` solving for Z) is hoisted into the kernel seed phase
        // when no probe precedes it, while the comparison filter and
        // the pure-check form compile to guards — all routes must agree
        // inside one mixed program.
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
    w
}

#[test]
fn kernels_agree_with_machine_on_all_workloads() {
    for (name, prog, db) in workloads() {
        let (base, _) = idb_map(&db, &prog, false);
        assert!(
            base.values().any(|rows| !rows.is_empty()),
            "{name}: workload derived nothing — test is vacuous"
        );
        let (idb, _) = idb_map(&db, &prog, true);
        assert_eq!(base, idb, "{name}: IDB diverged with kernels on");
    }
}

/// The eligibility widening is real, not just permitted: programs made
/// only of multi-recursive, constant-key, filter-guard, builtin-check
/// and seed-bound binding-builtin shapes execute entirely through
/// kernels (no interpreter firings).
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
        let (idb, stats) = idb_map(&db, &prog, true);
        assert!(
            idb.values().any(|rows| !rows.is_empty()),
            "{name}: derived nothing — test is vacuous"
        );
        assert!(stats.kernel_firings > 0, "{name}: kernel never fired");
        assert_eq!(
            stats.interp_firings, 0,
            "{name}: fell back to the interpreter"
        );
    }
}

/// Memo invalidation across EDB deltas: a materialized fanout fixpoint
/// takes two insert transactions through the incremental path, so each
/// propagation run evaluates over an EDB whose physical rows changed
/// since the previous run built (and warmed) its key→code memos. The
/// maintained IDB must stay tuple-for-tuple equal to a kernels-off
/// from-scratch evaluation of the post-transaction database, and the
/// propagation runs must actually exercise the memo path
/// (`dict_memo_hits > 0`) — stale codes surviving a delta would diverge
/// the answer, not just the counters.
#[test]
fn incremental_edb_deltas_agree_and_memos_stay_sound() {
    let s = parse_scenario(fanout::PROGRAM);
    let mut db = fanout::generate(&fanout::FanoutParams {
        nodes: 150,
        extra_edges: 0,
        fanout: 8,
        seed: 33,
    });
    let mut m = Materialized::new(&db, &s.program).unwrap();
    assert!(m.is_incremental(), "fanout program is in the fragment");
    // Each tx adds two back edges (the chain runs 0→1→…→149, so late
    // nodes gain reach to the early chain): the new facts cascade
    // backward through the predecessor chain, and the two fronts reach
    // shared mid-chain nodes in different rounds — so the propagation
    // run re-resolves the same witness/edge keys across rounds, the
    // case the EDB-stable memo exists for.
    for [(a1, b1), (a2, b2)] in [[(140i64, 10i64), (100i64, 30i64)], [(120, 2), (80, 40)]] {
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
        let (base, _) = idb_map(&db, &s.program, false);
        let maintained: BTreeMap<Pred, Vec<Tuple>> = m
            .idb()
            .iter()
            .map(|(&p, rel)| (p, rel.sorted_tuples()))
            .collect();
        assert_eq!(
            base, maintained,
            "maintained IDB diverged from scratch after edge({a1},{b1}), edge({a2},{b2})"
        );
    }
}

/// Dedup pre-size underestimate: rounds of duplicate-heavy derivation
/// teach the drain's unique-fraction EWMA a low estimate, then one
/// round derives a burst of all-unique rows far past the reserved
/// headroom — the dedup table must fall back to its natural mid-insert
/// grow schedule (observable as `dedup_regrows > 0`) without losing or
/// duplicating a tuple versus the step machine.
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
    let (base, _) = idb_map(&db, &prog, false);
    let rows: usize = base.values().map(Vec::len).sum();
    assert_eq!(
        rows,
        6 * 200 + 20_000,
        "stages 0..=5 contribute 200 each, stage 6 its 20k"
    );
    let (idb, stats) = idb_map(&db, &prog, true);
    assert_eq!(base, idb, "IDB diverged under the underestimate");
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
/// agreement with the step machine.
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
        let (base, _) = idb_map(&db, &prog, false);
        assert!(
            base.values().any(|rows| !rows.is_empty()),
            "n={n}: derived nothing — test is vacuous"
        );
        let (idb, stats) = idb_map(&db, &prog, true);
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
    for kernels in [true, false] {
        let (idb, stats) = idb_map(&db, &s.program, kernels);
        let rows: usize = idb.values().map(Vec::len).sum();
        assert!(rows > 80_000, "expected a large IDB, got {rows} rows");
        assert!(
            stats.scratch_hw_bytes > 0,
            "scratch telemetry never reported (kernels={kernels})"
        );
        // 1024-entry chunk of packed u64 hash/row-id words = 8 KiB,
        // plus the key arena and frames; 32 KiB bounds it with headroom
        // while still failing fast if any buffer ever scales with data.
        assert!(
            stats.scratch_hw_bytes <= 32 * 1024,
            "scratch high-water {}B grew with data (kernels={kernels})",
            stats.scratch_hw_bytes
        );
    }
}
