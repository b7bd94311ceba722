//! The compile step against the loop it replaced. `Optimizer::run` forms
//! only the (predicate, constraint) pairs the occurrence index proposes,
//! builds one SD-graph per predicate and cleans each pushed block on its
//! own; the all-pairs reference in `common/compile.rs` does none of that.
//! Their plans must be equal, field for field and byte for byte — and
//! the work counters must show linear growth on one side and the
//! quadratic on the other.

mod common;

use common::cases::EXAMPLE_2_1;
use common::compile::{oracle_residues, reference_plan, FAMILIES};
use semrec::core::detect::{
    blocks, detect, subgoal_preds, DetectWork, DetectionMethod, Detector, PAD,
};
use semrec::core::occurs::may_match;
use semrec::core::optimizer::{Optimizer, OptimizerConfig, Plan};
use semrec::core::push::{Applied, OptKind};
use semrec::core::sequence::enumerate_sequences;
use semrec::core::Residue;
use semrec::datalog::analysis::{rectify, validate};
use semrec::datalog::parser::parse_unit;
use semrec::datalog::Pred;
use semrec::gen::programs::{multi_block, multi_block_small};
use semrec::gen::{fanout, flights, genealogy, org, university};
use semrec_bench::fixtures::rule_level::rule_level_rewrite_with;
use std::sync::Arc;

const METHODS: [DetectionMethod; 2] = [
    DetectionMethod::SdGraph,
    DetectionMethod::Exhaustive { max_len: 3 },
];

fn config(method: DetectionMethod, small: impl IntoIterator<Item = Pred>) -> OptimizerConfig {
    let mut config = OptimizerConfig {
        method,
        ..OptimizerConfig::default()
    };
    config.small_relations.extend(small);
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

/// The samples, the paper's examples and the soundness families.
fn sources() -> Vec<(String, String)> {
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
        ("chain", EXAMPLE_2_1),
    ] {
        sources.push((format!("paper {name}"), src.to_owned()));
    }
    for (name, src, _, _) in FAMILIES {
        sources.push((format!("family {name}"), (*src).to_owned()));
    }
    sources
}

#[test]
fn samples_paper_examples_and_soundness_families_agree() {
    let small = || ["doctoral", "marked"].map(Pred::new);
    for (name, src) in &sources() {
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

/// `Detector::detect`'s documented order, held against `Display` itself
/// rather than against the key detection sorts by: each result is sorted
/// by (sequence, text), and residues of one key are pairwise unequal.
/// Distinct residues can print alike — two matches of one denial on one
/// sequence both read ` -> false` — so keys may repeat; residues may not.
/// Over the samples, the paper's examples, the soundness families, the
/// gen scenarios and `multi_block` seeds 0–3, by both methods, padded as
/// the optimizer pads.
#[test]
fn detections_are_ordered_by_sequence_then_text() {
    let mut sources = sources();
    for seed in 0..4u64 {
        let blocks = 12 + 4 * (seed as u32 % 2);
        sources.push((format!("multi_block {seed}"), multi_block(seed, blocks)));
    }
    let mut neighbours = 0;
    for (name, src) in &sources {
        let unit = parse_unit(src).unwrap();
        let infos = validate(&unit.program(), &unit.constraints).unwrap();
        let (program, _) = rectify(&unit.program());
        for method in METHODS {
            let mut work = DetectWork::default();
            for info in &blocks(&program, infos.clone()) {
                let preds = subgoal_preds(&program, info);
                let mut detector = Detector::new(&program, info, method, PAD, &mut work);
                for ic in unit.constraints.iter().filter(|ic| may_match(ic, &preds)) {
                    let found = detector.detect(&Arc::new(ic.clone())).unwrap();
                    let key = |r: &Residue| (r.seq.clone(), r.to_string());
                    let on = info.pred;
                    for (i, r) in found.iter().enumerate().skip(1) {
                        let (before, now) = (key(&found[i - 1]), key(r));
                        assert!(
                            before <= now,
                            "{name} {method:?}: {ic} on {on}: {before:?}, {now:?}"
                        );
                        let mut same_key = found[..i].iter().rev().take_while(|q| key(q) == now);
                        assert!(
                            same_key.all(|q| q != r),
                            "{name} {method:?}: {ic} on {on}: {now:?} twice"
                        );
                    }
                    neighbours += found.len().saturating_sub(1);
                }
            }
        }
    }
    assert!(
        neighbours > 2000,
        "{neighbours} neighbouring residues compared"
    );
}

/// Non-recursive rules the CGM rule-level rewrite changes that the free
/// k = 1 path leaves alone, by (source, rule, kind); EXPERIMENTS.md lists
/// each with its §2 reason.
const CGM_ONLY: &[(&str, &str, OptKind)] = &[(
    "ic constant",
    "exec(E) :- boss(E, B, R), R = executive, experienced(B).",
    OptKind::AtomElimination,
)];

/// An IC constant against a rule variable: only the expanded form turns
/// `boss(E, B, executive)` into `boss(V0, V1, V2), V2 = executive`.
const IC_CONSTANT: &str = "exec(E) :- boss(E, B, R), R = executive, experienced(B).
    ic: boss(E, B, executive) -> experienced(B).";

/// The free k = 1 path against the CGM rule-level rewrite it replaced
/// (moved to `semrec_bench::fixtures::rule_level`): every non-recursive
/// rule the rewrite changes, the optimizer changes too, by at least one
/// residue of each kind the rewrite applied — or the case is listed in
/// `CGM_ONLY`.
#[test]
fn one_rule_blocks_apply_what_the_cgm_rewrite_applied() {
    let mut sources = sources();
    for seed in 0..4u64 {
        sources.push((format!("multi_block {seed}"), multi_block(seed, 16)));
    }
    sources.push(("ic constant".to_owned(), IC_CONSTANT.to_owned()));
    let small = || {
        ["doctoral", "marked"]
            .map(Pred::new)
            .into_iter()
            .chain(multi_block_small(16))
    };
    let (mut rewritten, mut exceptions) = (0, Vec::new());
    for (name, src) in &sources {
        let unit = parse_unit(src).unwrap();
        for config in [
            config(DetectionMethod::SdGraph, []),
            config(DetectionMethod::SdGraph, small()),
        ] {
            let plan = Optimizer::new(&unit.program())
                .with_constraints(&unit.constraints)
                .with_config(config.clone())
                .run()
                .unwrap();
            let program = &plan.rectified;
            let (_, _, kinds) =
                rule_level_rewrite_with(program, &unit.constraints, &config.small_relations);
            let infos = validate(program, &unit.constraints).unwrap();
            for block in blocks(program, infos)
                .iter()
                .filter(|b| b.recursive_rules.is_empty())
            {
                let i = block.exit_rules[0];
                rewritten += usize::from(!kinds[i].is_empty());
                for &kind in &kinds[i] {
                    let free = |a: &Applied| a.residue.seq == [i] && a.kind == kind;
                    if !plan.applied.iter().any(free) {
                        let case = (name.as_str(), program.rules[i].to_string(), kind);
                        if !exceptions.contains(&case) {
                            exceptions.push(case);
                        }
                    }
                }
            }
        }
    }
    let listed: Vec<(&str, String, OptKind)> = CGM_ONLY
        .iter()
        .map(|&(n, r, k)| (n, r.to_owned(), k))
        .collect();
    assert_eq!(exceptions, listed);
    assert!(rewritten >= 16, "{rewritten} rewritten rules compared");
}

/// A residue whose condition mentions a variable the homomorphism would
/// otherwise be free to move: `M~1 ↦ X` folds `f(X, M~1)` onto the head
/// `f(X, X)`, but `M~1 > 5` says nothing about `X`.
const CONDITIONAL: &str = "p(X, Y) :- b(X, Y).
    p(X, Y) :- e(X, M), f(X, M), e(X, X), p(X, Y).
    ic: e(X, M), M > 5 -> f(X, X).";

/// Detection residue for residue against `oracle_residues`, which
/// rebuilds everything per match and shares no code with the product's
/// verification context: every candidate (predicate, constraint) pair,
/// every sequence up to length 4, θ, matched atoms, usefulness and order
/// included. As in `Optimizer::run`, one `Detector` per block — each
/// recursive predicate, and each non-recursive rule on its own — serves
/// all its constraints, so each context is reused across constraints.
#[test]
fn residues_agree_with_a_per_match_oracle() {
    let mut sources = sources();
    for seed in 0..4u64 {
        let blocks = 12 + 4 * (seed as u32 % 2);
        sources.push((format!("multi_block {seed}"), multi_block(seed, blocks)));
    }
    sources.push(("conditional".to_owned(), CONDITIONAL.to_owned()));
    let method = DetectionMethod::Exhaustive { max_len: 4 };
    let mut compared = 0;
    for (name, src) in &sources {
        let unit = parse_unit(src).unwrap();
        let (program, _) = rectify(&unit.program());
        for info in &blocks(&program, validate(&program, &unit.constraints).unwrap()) {
            let seqs = enumerate_sequences(info, 4);
            let preds = subgoal_preds(&program, info);
            let mut work = DetectWork::default();
            let mut detector = Detector::new(&program, info, method, 0, &mut work);
            for ic in unit.constraints.iter().filter(|ic| may_match(ic, &preds)) {
                let ic = Arc::new(ic.clone());
                let product: Vec<Residue> = detector.detect(&ic).unwrap();
                let oracle = oracle_residues(&program, info, &ic, &seqs);
                assert_eq!(product, oracle, "{name}: {ic} on {}", info.pred);
                compared += product.len();
            }
        }
    }
    assert!(compared > 2000, "{compared} residues compared");

    let unit = parse_unit(CONDITIONAL).unwrap();
    let (program, _) = rectify(&unit.program());
    let info = &validate(&program, &unit.constraints).unwrap()[0];
    let ds = detect(&program, info, &unit.constraints[0], method, 0).unwrap();
    let on_one_step: Vec<(String, bool)> = ds
        .iter()
        .filter(|d| d.seq == [1])
        .map(|d| (d.to_string(), d.is_useful()))
        .collect();
    assert_eq!(
        on_one_step,
        [
            ("M~1 > 5 -> f(X, X)".to_owned(), false),
            ("X > 5 -> f(X, X)".to_owned(), true),
        ]
    );
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
            let on_views = (plain.applied.iter()).filter(|a| {
                plain.rectified.rules[a.residue.seq[0]]
                    .head
                    .pred
                    .name()
                    .starts_with('v')
            });
            assert!(on_views.count() >= 2 * shapes, "{what}: one view per group");
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
        // their body predicates in a recursive block, 2 in the view `v`'s
        // one-rule block and 1 in `d`'s; the partial overlaps never do.
        let groups = blocks as usize / 4;
        assert_eq!(s.candidate_pairs, (8 + 2 + 1) * groups, "{s:?}");
        assert!(s.sequences_verified > 0 && s.residues > 0, "{s:?}");
        // One unfolding (and verification context) per distinct sequence
        // of a predicate, shared by its constraints.
        assert!(
            0 < s.unfoldings && s.unfoldings <= s.sequences_verified,
            "{s:?}"
        );
        // The loop it replaced formed every pair: per group four
        // recursive blocks and two one-rule blocks.
        assert_eq!(reference.candidate_pairs, 6 * groups * s.ics);
        if let Some((p, p_ref)) = previous.replace((s, reference)) {
            for (now, before) in [
                (s.sequences_verified, p.sequences_verified),
                (s.unfoldings, p.unfoldings),
            ] {
                let ratio = now as f64 / before as f64;
                assert!((1.8..=2.2).contains(&ratio), "{p:?} -> {s:?}");
            }
            assert_eq!(reference.candidate_pairs, 4 * p_ref.candidate_pairs);
        }
    }
}
