//! The compile step against the loop it replaced. `Optimizer::run` forms
//! only the (predicate, constraint) pairs the occurrence index proposes,
//! builds one SD-graph per predicate and cleans each pushed block on its
//! own; the all-pairs reference in `common/compile.rs` does none of that.
//! Their plans must be equal, field for field and byte for byte — and
//! the work counters must show linear growth on one side and the
//! quadratic on the other.

#[path = "common/compile.rs"]
mod compile;

use compile::{multi_block, multi_block_small, reference_plan, FAMILIES};
use semrec::core::detect::DetectionMethod;
use semrec::core::expand::rule_residues;
use semrec::core::occurs::may_match;
use semrec::core::optimizer::{Optimizer, OptimizerConfig, Plan};
use semrec::datalog::parser::parse_unit;
use semrec::datalog::Pred;
use semrec::gen::{fanout, flights, genealogy, org, university};

const METHODS: [DetectionMethod; 2] = [
    DetectionMethod::SdGraph,
    DetectionMethod::Exhaustive { max_len: 3 },
];

fn config(method: DetectionMethod, small: impl IntoIterator<Item = Pred>) -> OptimizerConfig {
    let mut config = OptimizerConfig {
        method,
        ..OptimizerConfig::default()
    };
    config.policy.small_relations.extend(small);
    config
}

fn assert_same_plan(what: &str, product: &Plan, reference: &Plan) {
    assert_eq!(product.detections, reference.detections, "{what}");
    assert_eq!(product.chosen, reference.chosen, "{what}: chosen");
    let applied = |p: &Plan| -> Vec<_> {
        p.applied
            .iter()
            .map(|a| (a.kind, a.residue.clone(), a.note.clone()))
            .collect()
    };
    assert_eq!(applied(product), applied(reference), "{what}: applied");
    let skipped = |p: &Plan| -> Vec<_> {
        p.skipped
            .iter()
            .map(|s| (s.residue.clone(), s.reason.clone()))
            .collect()
    };
    assert_eq!(skipped(product), skipped(reference), "{what}: skipped");
    assert_eq!(product.rule_level, reference.rule_level, "{what}");
    assert_eq!(product.rectified, reference.rectified, "{what}");
    assert_eq!(product.to_string(), reference.to_string(), "{what}");
}

/// Runs both on `src` under `config` and compares; returns the plans.
fn agree(what: &str, src: &str, config: &OptimizerConfig) -> (Plan, Plan) {
    let unit = parse_unit(src).unwrap_or_else(|e| panic!("{what}: {e}"));
    let product = Optimizer::new(&unit.program())
        .with_constraints(&unit.constraints)
        .with_config(config.clone())
        .run()
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    let reference = reference_plan(&unit.program(), &unit.constraints, config);
    assert_same_plan(what, &product, &reference);
    (product, reference)
}

#[test]
fn samples_paper_examples_and_soundness_families_agree() {
    let small = || ["doctoral", "marked"].map(Pred::new);
    let mut sources: Vec<(String, String)> = Vec::new();
    for name in ["genealogy", "university", "honors"] {
        let path = format!("{}/samples/{name}.dl", env!("CARGO_MANIFEST_DIR"));
        sources.push((name.to_owned(), std::fs::read_to_string(path).unwrap()));
    }
    for (name, src) in [
        ("org", org::PROGRAM),
        ("university", university::PROGRAM),
        ("genealogy", genealogy::PROGRAM),
        ("fanout", fanout::PROGRAM),
        ("flights", flights::PROGRAM),
        // Examples 2.1 / 3.1: the useful residue needs padding.
        (
            "chain",
            "p(X1, X2, X3, X4, X5, X6) :- e(X1, X2, X3, X4, X5, X6).
             p(X1, X2, X3, X4, X5, X6) :- a(X1, X2, X4), b(W2, X3), c(W3, W4, X5),
                 d(W5, X6), p(X1, W2, W3, W4, W5, W6).
             ic: a(V1, V2, V3), b(V2, V4), c(V4, V5, V6) -> d(V6, V7).",
        ),
    ] {
        sources.push((format!("paper {name}"), src.to_owned()));
    }
    for (name, src, _, _) in FAMILIES {
        sources.push((format!("family {name}"), (*src).to_owned()));
    }
    for (name, src) in &sources {
        for method in METHODS {
            agree(&format!("{name} {method:?}"), src, &config(method, []));
            agree(
                &format!("{name} {method:?} small"),
                src,
                &config(method, small()),
            );
        }
    }
}

#[test]
fn generated_multi_block_programs_agree() {
    for seed in 0..4u64 {
        let blocks = 12 + 4 * (seed as u32 % 2);
        let src = multi_block(seed, blocks);
        for method in METHODS {
            let what = format!("seed {seed} {method:?}");
            let (plain, _) = agree(&what, &src, &config(method, []));
            let (small, _) = agree(&what, &src, &config(method, multi_block_small(blocks)));

            // The generator really covers what it says it does.
            let shapes = blocks as usize / 4;
            let has = |p: &Plan, kind| p.applied.iter().filter(|a| a.kind == kind).count();
            use semrec::core::push::OptKind::*;
            assert!(has(&plain, AtomElimination) >= 2 * shapes, "{what}");
            assert!(has(&plain, SubtreePruning) >= shapes, "{what}");
            assert!(has(&small, AtomIntroduction) > has(&plain, AtomIntroduction));
            assert!(plain.rule_level >= shapes, "{what}: one view per group");
            assert!(plain.program.to_string().contains("@d1("), "{what}");
            // Shape 3 is applied and then dies whole: chosen, no rules left.
            for i in (3..blocks).step_by(4) {
                let p = Pred::new(&format!("p{i}"));
                assert!(plain.chosen.contains_key(&p), "{what}: {p}");
                assert!(plain.rectified.rules.iter().any(|r| r.head.pred == p));
                assert!(!plain.program.rules.iter().any(|r| r.head.pred == p));
            }
        }
    }
}

/// The rule-level rewrite tries only the constraints the index proposes
/// for a rule. Its oracle is the definition: a pair the index skips has
/// no residue the rewrite could have used.
#[test]
fn rule_level_pairs_the_index_skips_have_no_usable_residue() {
    let mut sources: Vec<String> = FAMILIES.iter().map(|f| f.1.to_owned()).collect();
    sources.extend([org::PROGRAM, university::PROGRAM, genealogy::PROGRAM].map(str::to_owned));
    sources.push(multi_block(9, 16));
    for src in &sources {
        let unit = parse_unit(src).unwrap();
        let (mut skipped, mut tried) = (0, 0);
        for rule in &unit.rules {
            let body = rule.body_atoms().map(|a| a.pred).collect();
            for ic in &unit.constraints {
                if may_match(ic, &body) {
                    tried += 1;
                    continue;
                }
                skipped += 1;
                let usable: Vec<String> = rule_residues(ic, rule)
                    .iter()
                    .filter(|r| r.directly_usable() && !r.is_trivial())
                    .map(ToString::to_string)
                    .collect();
                assert!(usable.is_empty(), "{ic} vs {rule}: {usable:?}");
            }
        }
        assert!(tried > 0 && (skipped > 0 || unit.constraints.len() == 1));
    }
}

/// Scaling, on counters: they are exact, so doubling the input must
/// double the work — a clock on a shared machine could not say that.
#[test]
fn detection_work_is_linear_in_blocks() {
    let run = |blocks: u32| {
        let unit = parse_unit(&multi_block(3, blocks)).unwrap();
        let config = OptimizerConfig::default();
        let plan = Optimizer::new(&unit.program())
            .with_constraints(&unit.constraints)
            .run()
            .unwrap();
        let reference = reference_plan(&unit.program(), &unit.constraints, &config);
        assert_same_plan(&format!("{blocks} blocks"), &plan, &reference);
        (plan.detect_stats, reference.detect_stats)
    };
    let mut previous = None;
    for blocks in [20u32, 40, 80] {
        let (s, reference) = run(blocks);
        assert_eq!(s.ics, reference.ics);
        assert_eq!(s.residues, reference.residues);
        assert!(s.graphs_built <= blocks as usize, "{s:?}");
        assert!(s.candidate_pairs <= 3 * s.ics, "{s:?}");
        // Per group of four blocks 2 + 1 + 4 + 1 constraints have all
        // their body predicates in a block; the partial overlaps never do.
        assert_eq!(s.candidate_pairs, 2 * blocks as usize, "{s:?}");
        assert!(s.sequences_verified > 0 && s.residues > 0, "{s:?}");
        // The loop it replaced formed every pair.
        assert_eq!(reference.candidate_pairs, blocks as usize * s.ics);
        if let Some((p, p_ref)) = previous.replace((s, reference)) {
            let ratio = s.sequences_verified as f64 / p.sequences_verified as f64;
            assert!((1.8..=2.2).contains(&ratio), "{p:?} -> {s:?}");
            assert_eq!(reference.candidate_pairs, 4 * p_ref.candidate_pairs);
        }
    }
}
