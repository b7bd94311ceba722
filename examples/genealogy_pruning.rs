//! Example 4.3: subtree pruning, and its composition with magic sets.
//!
//! On full bottom-up evaluation of an IC-consistent database, conditional
//! pruning cannot reject anything (the IC guarantees the pruned pattern
//! never materializes) — the win appears when the *query* binds the
//! pruning condition: asking for the descendants of a person aged ≤ 50
//! makes the committed (≥ 3 level) chain statically dead, so goal-directed
//! evaluation explores a bounded neighbourhood. This mirrors the paper's
//! §6 remark that pushing semantics inside recursion is the semantic
//! analogue of magic sets — and the two compose.
//!
//! ```sh
//! cargo run --example genealogy_pruning
//! ```

use semrec::core::optimizer::Optimizer;
use semrec::datalog::parser::parse_atom;
use semrec::datalog::{Term, Value};
use semrec::engine::magic::evaluate_query;
use semrec::engine::{evaluate, Strategy};
use semrec::gen::{genealogy, parse_scenario};

fn main() {
    let scenario = parse_scenario(genealogy::PROGRAM);
    println!("=== program ===\n{}", scenario.program);
    for ic in &scenario.constraints {
        println!("{ic}\n");
    }

    let plan = Optimizer::new(&scenario.program)
        .with_constraints(&scenario.constraints)
        .run()
        .expect("optimizes");
    for a in &plan.applied {
        println!("applied {}: {} [{}]", a.kind, a.residue, a.note);
    }

    let db = genealogy::generate(&genealogy::GenealogyParams {
        families: 6,
        depth: 6,
        branching: 2,
        seed: 7,
    });
    for ic in &scenario.constraints {
        assert!(db.satisfies(ic));
    }
    println!("\npar facts: {}", db.count("par"));

    // Full evaluation: equivalent answers (pruning is a no-op here because
    // the data already satisfies the IC — the honest negative result).
    let base = evaluate(&db, &plan.rectified, Strategy::SemiNaive).unwrap();
    let opt = evaluate(&db, &plan.program, Strategy::SemiNaive).unwrap();
    assert_eq!(
        base.relation("anc").unwrap().sorted_tuples(),
        opt.relation("anc").unwrap().sorted_tuples()
    );
    println!(
        "full evaluation:  anc = {} tuples both ways (original rows {} / optimized rows {})",
        base.relation("anc").unwrap().len(),
        base.stats.rows_scanned,
        opt.stats.rows_scanned,
    );

    // Goal-directed evaluation with the ancestor's age bound: a young
    // ancestor (≤ 50) makes the pruned chain dead.
    println!(
        "\n{:>12} {:>14} {:>14} {:>16}",
        "bound age", "orig rows", "pruned rows", "answers"
    );
    let ages: Vec<i64> = {
        // Pick one young and one old parent age present in the data.
        let rel = db.get(semrec::datalog::Pred::new("par")).unwrap();
        let mut young = None;
        let mut old = None;
        for t in rel.iter() {
            if let Value::Int(a) = t[3].value() {
                if a <= 50 && young.is_none() {
                    young = Some(a);
                }
                if a > 100 && old.is_none() {
                    old = Some(a);
                }
            }
        }
        vec![young.expect("young parent"), old.expect("old ancestor")]
    };
    for age in ages {
        let mut goal = parse_atom("anc(X, Xa, Y, Ya)").unwrap();
        goal.args[3] = Term::Const(Value::Int(age));
        let (a1, r1) = evaluate_query(&db, &plan.rectified, &goal)
            .expect("magic sets apply")
            .unwrap();
        let (a2, r2) = evaluate_query(&db, &plan.program, &goal)
            .expect("magic sets apply")
            .unwrap();
        assert_eq!(a1, a2, "magic answers equal at age {age}");
        println!(
            "{:>12} {:>14} {:>14} {:>16}",
            age,
            r1.stats.rows_scanned,
            r2.stats.rows_scanned,
            a1.len()
        );
    }
    println!("\n(answers equal at every setting ✓)");
}
