//! Randomized whole-pipeline soundness: arbitrary data is *repaired* (a
//! bounded chase) to satisfy the ICs, and the optimized program must then
//! agree with the original on every IDB relation.
//!
//! Seeded-loop rewrite of a former `proptest` suite (offline-build
//! policy: no registry deps for `cargo test -q`).

#[path = "common/compile.rs"]
mod compile;

use compile::FAMILIES;
use semrec::core::optimizer::{Optimizer, OptimizerConfig};
use semrec::datalog::parser::parse_unit;
use semrec::datalog::{Pred, Value};
use semrec::engine::{evaluate, Database, Strategy};
use semrec::gen::repair::{repair, RepairOutcome};
use semrec::gen::rng::Rng;

#[test]
fn optimizer_sound_on_repaired_random_data() {
    for case in 0u64..40 {
        let mut rng = Rng::seed_from_u64(0x5047 + case);
        let family = rng.gen_range(0..FAMILIES.len());
        let m = rng.gen_range(1..25usize);
        let edges: Vec<(i64, i64)> = (0..m)
            .map(|_| (rng.gen_range(0..9i64), rng.gen_range(0..9i64)))
            .collect();

        let (name, src, edb, small) = FAMILIES[family];
        let unit = parse_unit(src).unwrap();
        let program = unit.program();

        let mut config = OptimizerConfig::default();
        for s in small {
            config.policy.small_relations.insert(Pred::new(s));
        }
        let plan = Optimizer::new(&program)
            .with_constraints(&unit.constraints)
            .with_config(config)
            .run()
            .unwrap();

        // Random data for each EDB predicate, then chase-repair.
        let mut db = Database::new();
        for (i, &(a, b)) in edges.iter().enumerate() {
            let pred = edb[i % edb.len()];
            db.insert(pred, vec![Value::Int(a), Value::Int(b)]);
        }
        if repair(&mut db, &unit.constraints, 64) != RepairOutcome::Satisfied {
            // Diverging chase for this draw — nothing to test.
            continue;
        }
        for ic in &unit.constraints {
            assert!(db.satisfies(ic), "case {case}");
        }

        let base = evaluate(&db, &plan.rectified, Strategy::SemiNaive).unwrap();
        let opt = evaluate(&db, &plan.program, Strategy::SemiNaive).unwrap();
        for p in program.idb_preds() {
            let b = base
                .relation(p)
                .map(|r| r.sorted_tuples())
                .unwrap_or_default();
            let o = opt
                .relation(p)
                .map(|r| r.sorted_tuples())
                .unwrap_or_default();
            assert_eq!(b, o, "case {case}: family {name} diverged on {p}");
        }
    }
}
