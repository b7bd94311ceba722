//! The bottom-up executor and the experiments' two top-down models
//! (tabled top-down, depth-bounded SLD; `semrec_bench::fixtures`) agree
//! on answers for random acyclic data.
//!
//! Seeded-loop rewrite of a former `proptest` suite (offline-build
//! policy: no registry deps for `cargo test -q`).

use semrec::datalog::parser::parse_atom;
use semrec::datalog::{Program, Value};
use semrec::engine::{evaluate, Database, Strategy};
use semrec::gen::rng::Rng;
use semrec_bench::fixtures::sld::{query_sld, Completeness, SldConfig};
use semrec_bench::fixtures::topdown::query_topdown;

#[test]
fn three_engines_agree() {
    let prog: Program = "t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), t(Z,Y)."
        .parse()
        .unwrap();
    for case in 0u64..48 {
        let mut rng = Rng::seed_from_u64(0xE4A + case);
        let m = rng.gen_range(1..25usize);
        let bind = rng.gen_range(0..9i64);
        let bound_goal = rng.gen_bool(0.5);

        let mut db = Database::new();
        for _ in 0..m {
            // Acyclic: only forward edges.
            let a = rng.gen_range(0..9i64);
            let b = rng.gen_range(0..9i64);
            let (lo, hi) = if a < b { (a, b) } else { (b, a + 10) };
            db.insert("e", vec![Value::Int(lo), Value::Int(hi)]);
        }
        let goal = if bound_goal {
            parse_atom(&format!("t({bind}, Y)")).unwrap()
        } else {
            parse_atom("t(X, Y)").unwrap()
        };

        let full = evaluate(&db, &prog, Strategy::SemiNaive).unwrap();
        let mut expected = full.answers(&goal);
        expected.sort();
        expected.dedup();

        let (mut td, _) = query_topdown(&db, &prog, &goal).unwrap();
        td.sort();
        assert_eq!(td, expected, "topdown diverged on case {case}");

        let (sld, _, compl) = query_sld(
            &db,
            &prog,
            &goal,
            SldConfig {
                max_depth: 24,
                max_expansions: 2_000_000,
            },
        )
        .unwrap();
        assert_eq!(compl, Completeness::Complete, "case {case}");
        assert_eq!(sld, expected, "sld diverged on case {case}");
    }
}
