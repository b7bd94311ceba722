//! Shared by the compile-step suites: the all-pairs optimizer the product
//! replaced (now the oracle), a per-match residue builder that shares no
//! code with the product's verification context (the oracle of
//! detection), and the program families of the soundness suite.

use semrec::core::detect::{detect, DetectStats, Detection};
use semrec::core::hom::{bind, extend_hom};
use semrec::core::occurs::IcIndex;
use semrec::core::optimizer::{choose_sequence, OptimizerConfig, Plan};
use semrec::core::push::{replace_blocks, Pusher};
use semrec::core::residue::{Residue, ResidueHead, UsefulAt};
use semrec::core::sequence::{unfold, Unfolding};
use semrec::core::subsume::{total_matches, Match};
use semrec::datalog::analysis::{rectify, validate, RecursionInfo};
use semrec::datalog::constraint::IcHead;
use semrec::datalog::{Atom, Cmp, Constraint, Pred, Program, Rule, Subst, Symbol, Term};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

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
    let (program, _, rule_level) = semrec::core::optimizer::rule_level_rewrite_with(
        &program,
        &IcIndex::new(ics),
        policy,
        Some(&non_recursive),
    );
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

/// The residues of `ic` on the sequences `seqs` of `info`'s predicate, as
/// detection defines them: per sequence, every total match's residue,
/// repeats dropped in match order; then stably sorted by (sequence,
/// text). Each match recomputes everything it reads from the unfolding.
pub fn oracle_residues(
    program: &Program,
    info: &RecursionInfo,
    ic: &Arc<Constraint>,
    seqs: &[Vec<usize>],
) -> Vec<Residue> {
    let mut out: Vec<Residue> = Vec::new();
    for seq in seqs {
        let u = unfold(program, info, seq).expect("unfold");
        let targets: Vec<&Atom> = u.body_atoms().map(|(_, a)| a).collect();
        for m in total_matches(&ic.body_atoms, &targets) {
            if let Some(r) = oracle_residue(ic, &u, &m) {
                if !out.contains(&r) {
                    out.push(r);
                }
            }
        }
    }
    out.sort_by_cached_key(|r| (r.seq.clone(), r.to_string()));
    out
}

/// The residue of one total match, or `None` when it is degenerate.
fn oracle_residue(ic: &Arc<Constraint>, u: &Unfolding, m: &Match) -> Option<Residue> {
    let theta = m.theta.clone();
    let seq_vars: BTreeSet<Symbol> = u.to_rule().vars();
    let grounded = |c: &Cmp| c.vars().all(|v| seq_vars.contains(&v));
    let seq_cmps: Vec<Cmp> = u
        .body
        .iter()
        .filter_map(|sl| sl.lit.as_cmp().copied())
        .collect();
    let mut body: Vec<Cmp> = Vec::new();
    for c in &ic.body_cmps {
        let c = theta.apply_cmp(c);
        if c.is_trivially_true() || seq_cmps.iter().any(|sc| sc.implies(&c)) {
            continue;
        }
        if c.is_trivially_false() || !grounded(&c) {
            return None;
        }
        body.push(c);
    }
    let head = match &ic.head {
        IcHead::None => ResidueHead::Null,
        IcHead::Cmp(c) => {
            let h = theta.apply_cmp(c);
            if h.is_trivially_true() {
                return None;
            } else if h.is_trivially_false() {
                ResidueHead::Null
            } else if grounded(&h) {
                ResidueHead::Cmp(h)
            } else {
                return None;
            }
        }
        IcHead::Atom(a) => ResidueHead::Atom(theta.apply_atom(a)),
    };
    let positions: Vec<usize> = u.body_atoms().map(|(i, _)| i).collect();
    let matched_body: Vec<usize> = m.onto.iter().map(|o| positions[o.unwrap()]).collect();
    let mut r = Residue {
        ic: Arc::clone(ic),
        seq: u.seq.clone(),
        body,
        head,
        theta,
        matched_body,
        useful_at: None,
    };
    if let ResidueHead::Atom(a) = &r.head {
        r.useful_at = oracle_redundant(&r, a, u).map(|bi| UsefulAt {
            body_index: bi,
            step: u.body[bi].step,
        });
    }
    Some(r)
}

/// The first body atom `B` the residue makes redundant: `h(B)` is its
/// head `A` and `h` maps the rest of the body into itself plus `A`,
/// fixing head, tail and comparison variables and the residue's
/// conditions; `B` is none of the matched atoms.
fn oracle_redundant(r: &Residue, a: &Atom, u: &Unfolding) -> Option<usize> {
    let mut protected: BTreeSet<Symbol> = u.head.vars().collect();
    protected.extend(u.tail.iter().flat_map(Atom::vars));
    for sl in &u.body {
        protected.extend(sl.lit.as_cmp().into_iter().flat_map(Cmp::vars));
    }
    protected.extend(r.body.iter().flat_map(Cmp::vars));
    let vars: BTreeSet<Symbol> = u.to_rule().vars();
    let body: Vec<(usize, &Atom)> = u.body_atoms().collect();
    let mut occur: BTreeMap<Symbol, usize> = BTreeMap::new();
    for v in body.iter().flat_map(|(_, b)| b.vars()) {
        *occur.entry(v).or_default() += 1;
    }
    'candidates: for &(bi, b) in &body {
        if r.matched_body.contains(&bi) || b.pred != a.pred || b.args.len() != a.args.len() {
            continue;
        }
        let mut h = Subst::new();
        for (&bt, &at) in b.args.iter().zip(&a.args) {
            let fits = match (bt, at) {
                // A free IC variable is a wildcard for a variable of B
                // used once, unprotected, not yet bound.
                (Term::Var(v), Term::Var(w)) if !vars.contains(&w) => {
                    let free = !protected.contains(&v) && occur[&v] == 1 && h.get(v).is_none();
                    if free {
                        h.insert(v, bt);
                    }
                    free
                }
                (_, Term::Var(w)) if !vars.contains(&w) => false,
                (Term::Var(v), _) if !protected.contains(&v) => bind(&mut h, v, at),
                _ => bt == at,
            };
            if !fits {
                continue 'candidates;
            }
        }
        let others: Vec<&Atom> = body.iter().filter(|e| e.0 != bi).map(|e| e.1).collect();
        let mut targets = others.clone();
        targets.push(a);
        if extend_hom(&others, 0, &h, &protected, &targets) {
            return Some(bi);
        }
    }
    None
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
