//! Shared by the compile-step suites: the all-pairs optimizer the product
//! replaced (now the oracle), the program families of the soundness
//! suite, and a seeded multi-block generator.
#![allow(dead_code)]

use semrec::core::detect::{detect, DetectStats, Detection};
use semrec::core::occurs::IcIndex;
use semrec::core::optimizer::{choose_sequence, OptimizerConfig, Plan};
use semrec::core::push::{replace_blocks, Pusher};
use semrec::core::sequence::unfold;
use semrec::datalog::analysis::{rectify, validate};
use semrec::datalog::{Constraint, Pred, Program, Rule};
use semrec::gen::rng::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;

/// Dead-rule removal over a whole program, to a fixpoint: rules with a
/// trivially false comparison or a body atom whose `idb_like` predicate
/// no rule defines any more; then rules unreachable from `roots`.
fn remove_dead_rules(
    mut rules: Vec<Rule>,
    roots: &BTreeSet<Pred>,
    idb_like: &BTreeSet<Pred>,
) -> Vec<Rule> {
    loop {
        let defined: BTreeSet<Pred> = rules.iter().map(|r| r.head.pred).collect();
        let before = rules.len();
        rules.retain(|r| {
            !r.body_cmps().any(|c| c.is_trivially_false())
                && r.body_atoms()
                    .all(|a| !idb_like.contains(&a.pred) || defined.contains(&a.pred))
        });
        if rules.len() == before {
            break;
        }
    }
    let mut reachable = roots.clone();
    loop {
        let before = reachable.len();
        for r in &rules {
            if reachable.contains(&r.head.pred) {
                reachable.extend(r.body_atoms().map(|a| a.pred));
            }
        }
        if reachable.len() == before {
            break;
        }
    }
    rules.retain(|r| reachable.contains(&r.head.pred));
    rules
}

/// `Optimizer::run` as it was before the occurrence index: every
/// constraint is tried against every recursive predicate through the
/// public one-pair `detect`, each predicate then picks its own
/// detections back out of the whole list, and every push is cleaned as
/// a whole program — the other predicates' rules copied in, dead rules
/// removed over all of it, the block filtered back out.
/// `detect_stats.candidate_pairs` counts the pairs formed; graphs and
/// sequences are not visible from out here and stay 0.
pub fn reference_plan(program: &Program, ics: &[Constraint], config: &OptimizerConfig) -> Plan {
    validate(program, ics).expect("valid input");
    let (rectified, _) = rectify(program);
    let infos = validate(&rectified, ics).expect("valid after rectification");
    let policy = &config.policy;
    let idb = rectified.idb_preds();

    let mut detections: Vec<(Pred, Detection)> = Vec::new();
    for info in &infos {
        for ic in ics {
            let found = detect(&rectified, info, ic, config.method, config.pad).expect("detect");
            detections.extend(found.into_iter().map(|d| (info.pred, d)));
        }
    }

    let (mut applied, mut skipped) = (Vec::new(), Vec::new());
    let mut chosen = BTreeMap::new();
    let mut blocks = BTreeMap::new();
    for info in &infos {
        let mine: Vec<&Detection> = detections
            .iter()
            .filter(|(p, _)| *p == info.pred)
            .map(|(_, d)| d)
            .collect();
        let Some(seq) = choose_sequence(&mine, policy) else {
            // Nothing pushable: each residue gets a dry run of its own,
            // for the reason it is skipped.
            for d in mine {
                let u = unfold(&rectified, info, &d.residue.seq).expect("unfold");
                let mut pusher = Pusher::new(&rectified, info, &u);
                pusher.push(&d.residue, policy);
                skipped.extend(pusher.outcomes().1.iter().cloned());
            }
            continue;
        };
        let u = unfold(&rectified, info, &seq).expect("unfold");
        let mut pusher = Pusher::new(&rectified, info, &u);
        for d in mine.iter().filter(|d| d.residue.seq == seq) {
            pusher.push(&d.residue, policy);
        }
        let res = pusher.finish();
        skipped.extend(res.skipped);
        if !res.applied.is_empty() {
            chosen.insert(info.pred, seq);
            applied.extend(res.applied);
            let others = rectified.rules.iter().filter(|r| r.head.pred != info.pred);
            let whole: Vec<Rule> = others.cloned().chain(res.rules).collect();
            let idb_like = whole
                .iter()
                .map(|r| r.head.pred)
                .chain(idb.clone())
                .collect();
            let mut cleaned = remove_dead_rules(whole, &idb, &idb_like);
            cleaned.retain(|r| r.head.pred == info.pred || r.head.pred.name().contains('@'));
            blocks.insert(info.pred, cleaned);
        }
    }

    let program = replace_blocks(&rectified, blocks);
    let recursive: BTreeSet<Pred> = infos.iter().map(|i| i.pred).collect();
    let non_recursive: BTreeSet<Pred> = program
        .idb_preds()
        .into_iter()
        .filter(|p| !recursive.contains(p) && !p.name().contains('@'))
        .collect();
    let (program, _, rule_level) = semrec::core::baseline::rule_level_rewrite_with(
        &program,
        &IcIndex::new(ics),
        policy,
        Some(&non_recursive),
    );
    let program = if config.minimize {
        semrec::core::minimize::minimize_program(&program)
    } else {
        program
    };
    Plan {
        rectified,
        program,
        detect_stats: DetectStats {
            ics: ics.len(),
            candidate_pairs: infos.len() * ics.len(),
            residues: detections.len(),
            ..DetectStats::default()
        },
        detections,
        chosen,
        applied,
        skipped,
        rule_level,
    }
}

/// (name, program+ics source, edb preds to fill with random binary data,
/// small relations for introduction).
pub const FAMILIES: &[(&str, &str, &[&str], &[&str])] = &[
    (
        "guarded_reach",
        "reach(X, Y) :- edge(X, Y).
         reach(X, Y) :- edge(X, Z), witness(Z, W), reach(Z, Y).
         ic: edge(X, Z) -> witness(Z, W).",
        &["edge", "witness"],
        &[],
    ),
    (
        "tc_transitive_base",
        "t(X, Y) :- a(X, Y).
         t(X, Y) :- a(X, Z), t(Z, Y).
         ic: a(X, Y), a(Y, Z) -> a(X, Z).",
        &["a"],
        &[],
    ),
    (
        "ordered_edges",
        "up(X, Y) :- a(X, Y).
         up(X, Y) :- a(X, Z), up(Z, Y).
         ic: a(X, Y) -> X < Y.",
        &["a"],
        &[],
    ),
    (
        "irreflexive",
        "t(X, Y) :- a(X, Y).
         t(X, Y) :- a(X, Z), t(Z, Y).
         ic: a(X, X) -> .",
        &["a"],
        &[],
    ),
    (
        "small_marker",
        "path(X, Y) :- a(X, Y).
         path(X, Y) :- a(X, Z), big(Z, W), path(Z, Y).
         ic: a(X, Z), Z > 5 -> marked(Z).",
        &["a", "big"],
        &["marked"],
    ),
];

/// The small relations of [`multi_block`]'s programs (atom introduction).
pub fn multi_block_small(blocks: u32) -> impl Iterator<Item = Pred> {
    (0..blocks).map(|i| Pred::new(&format!("f{i}")))
}

/// `blocks` (a multiple of 4, at least 12) recursive predicates in four
/// shapes, covering what the benchmark's `compile_cli` input does not.
/// Per block the work is constant and no constraint matches more than
/// two blocks, so every detection counter is linear in `blocks`; the
/// seed picks the partner of each partial-overlap constraint and the
/// constants.
///
/// * `i % 4 == 0`: witness elimination as in `compile_cli` beside a
///   conditional comparison to introduce, plus a non-recursive view over
///   the same atoms (a rule-level residue);
/// * `1`: recursion over `s{i/4}`, an EDB predicate the next block reads
///   too, with the previous block called as a subgoal; its one residue
///   sits on a two-step sequence, so the push builds `@` auxiliaries;
/// * `2`: a predicate repeated inside one rule; its last constraint is
///   listed under `s{i/4}`, out of order with those under `r{i}`;
/// * `3`: every rule dies in cleanup (false exit rule, dead callee).
///
/// Each block also gets a constraint over its own main predicate *and*
/// that of a block in another group: some, never all, of its body
/// predicates occur in either block.
pub fn multi_block(seed: u64, blocks: u32) -> String {
    assert!(blocks >= 12 && blocks.is_multiple_of(4));
    let mut rng = Rng::seed_from_u64(seed);
    let main = |i: u32| match i % 4 {
        1 => format!("s{}", i / 4),
        2 => format!("r{i}"),
        _ => format!("e{i}"),
    };
    let mut t = String::new();
    for i in 0..blocks {
        let (g, c) = (i / 4, rng.gen_range(0..1000i64));
        let _ = match i % 4 {
            0 => writeln!(
                t,
                "p{i}(X, Y) :- e{i}(X, Y).
                 p{i}(X, Y) :- e{i}(X, Z), w{i}(Z, W), p{i}(Z, Y).
                 v{i}(X, Z) :- e{i}(X, Z), w{i}(Z, W).
                 ic u{i}: e{i}(X, Z) -> w{i}(Z, W).
                 ic c{i}: e{i}(X, Z), Z > {c} -> X < Z."
            ),
            1 => writeln!(
                t,
                "p{i}(X, Y) :- s{g}(X, Y).
                 p{i}(X, Y) :- s{g}(X, Z), p{}(Z, V), p{i}(Z, Y).
                 ic a{i}: s{g}(X, Y), s{g}(Y, Z) -> .",
                i - 1
            ),
            2 => writeln!(
                t,
                "p{i}(X, Y) :- s{g}(X, Y).
                 p{i}(X, Y) :- r{i}(X, M), r{i}(M, Z), p{i}(Z, Y).
                 ic a{i}: r{i}(A, B), r{i}(B, C) -> f{i}(A, C).
                 ic b{i}: r{i}(A, B), B > {c} -> .
                 ic c{i}: s{g}(B, C), r{i}(A, B) -> ."
            ),
            _ => writeln!(
                t,
                "d{i}(X) :- e{i}(X, X), 1 > 2.
                 p{i}(X, Y) :- e{i}(X, Y), 1 > 2.
                 p{i}(X, Y) :- e{i}(X, Z), w{i}(Z, W), d{i}(Z), p{i}(Z, Y).
                 ic u{i}: e{i}(X, Z) -> w{i}(Z, W)."
            ),
        };
        let j = (i + 4 + rng.gen_range(0..(blocks - 8) as usize) as u32) % blocks;
        let _ = writeln!(t, "ic n{i}: {}(X, Z), {}(Z, V) -> .", main(i), main(j));
    }
    t
}
