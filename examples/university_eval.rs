//! Examples 3.2 and 4.2: atom elimination and atom introduction on the
//! university database, plus the §2 comparison of free residues against
//! the classical Chakravarthy–Grant–Minker expanded-form residues.
//!
//! ```sh
//! cargo run --example university_eval
//! ```

use semrec::core::optimizer::{Optimizer, OptimizerConfig};
use semrec::datalog::Pred;
use semrec::engine::{evaluate, Strategy};
use semrec::gen::{parse_scenario, university};
use semrec_bench::fixtures::expand::rule_residues;

fn main() {
    let scenario = parse_scenario(university::PROGRAM);
    println!("=== program ===\n{}", scenario.program);
    for ic in &scenario.constraints {
        println!("{ic}");
    }

    // §2: the CGM residue of ic1 w.r.t. the recursive rule is trivial in
    // context (Example 3.2) — show it next to the free sequence residue.
    println!("\n--- CGM (expanded-form) residues of ic1 w.r.t. rule r1 ---");
    let r1 = &scenario.program.rules[1];
    for residue in rule_residues(&scenario.constraints[0], r1) {
        println!(
            "  {residue}   (directly usable: {})",
            residue.directly_usable()
        );
    }

    // The optimizer: ic1 drives elimination of the expert atom on the
    // sequence r1·r1; ic2 introduces the small doctoral relation into the
    // non-recursive eval_support rule.
    let mut config = OptimizerConfig::default();
    config.small_relations.insert(Pred::new("doctoral"));
    let plan = Optimizer::new(&scenario.program)
        .with_constraints(&scenario.constraints)
        .with_config(config)
        .run()
        .expect("optimizes");

    println!("\n--- applied optimizations ---");
    for a in &plan.applied {
        println!("  {}: {} [{}]", a.kind, a.residue, a.note);
    }
    // The k = 1 entries: residues of a one-rule block, whose sequence is
    // one non-recursive rule.
    let support = Pred::new("eval_support");
    let one_rule = (plan.applied.iter())
        .filter(|a| plan.rectified.rules[a.residue.seq[0]].head.pred == support);
    println!(
        "  of them on the non-recursive eval_support rule: {}",
        one_rule.count()
    );

    println!("\n--- optimized eval_support rules (Example 4.2) ---");
    for r in &plan.program.rules {
        if r.head.pred == Pred::new("eval_support") {
            println!("  {r}");
        }
    }

    // Evaluate both programs while growing the expertise fan-out (longer
    // collaboration chains inherit more expertise, making the eliminated
    // expert-join more expensive).
    println!(
        "\n{:>10} {:>12} {:>14} {:>14} {:>14}",
        "chain_len", "expert size", "orig rows", "opt rows", "saved rows"
    );
    for &chain in &[2usize, 4, 8, 12] {
        let db = university::generate(&university::UniversityParams {
            professors: 96,
            students: 200,
            chain_len: chain,
            ..university::UniversityParams::default()
        });
        for ic in &scenario.constraints {
            assert!(db.satisfies(ic));
        }
        let base = evaluate(&db, &plan.rectified, Strategy::SemiNaive).unwrap();
        let opt = evaluate(&db, &plan.program, Strategy::SemiNaive).unwrap();
        for p in ["eval", "eval_support"] {
            assert_eq!(
                base.relation(p).unwrap().sorted_tuples(),
                opt.relation(p).unwrap().sorted_tuples(),
                "equivalence for {p} at chain_len {chain}"
            );
        }
        println!(
            "{:>10} {:>12} {:>14} {:>14} {:>14}",
            chain,
            db.count("expert"),
            base.stats.rows_scanned,
            opt.stats.rows_scanned,
            base.stats.rows_scanned as i64 - opt.stats.rows_scanned as i64
        );
    }
    println!("\n(answers equal at every setting ✓)");
}
