//! Shared by the compile-step suites: the all-pairs optimizer the product
//! replaced (now the oracle), a per-match residue builder that shares no
//! code with the product's verification context (the oracle of
//! detection), with the matchers the product replaced — a substitution
//! cloned per candidate target, `BTreeSet` protected sets — and the
//! program families of the soundness suite.

use semrec::core::detect::{blocks, detect, DetectStats, PAD};
use semrec::core::optimizer::{choose_sequence, OptimizerConfig, Plan};
use semrec::core::push::{replace_blocks, Pusher};
use semrec::core::residue::{Residue, ResidueHead, UsefulAt};
use semrec::core::sequence::{unfold, Unfolding};
use semrec::core::subsume::Match;
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
/// constraint is tried against every block through the public one-pair
/// `detect`, each block then picks its own detections back out of the
/// whole list, and every push is cleaned as a whole program — the other
/// predicates' rules copied in, dead rules removed over all of it, the
/// block filtered back out. A block is a recursive predicate or, the
/// k = 1 case, one non-recursive rule (its only sequence is the rule).
/// `detect_stats.candidate_pairs` counts the pairs formed; graphs and
/// sequences are not visible from out here and stay 0. A block with
/// nothing pushable has each residue pushed on its own sequence by a
/// `Pusher` of its own, for the reason it is skipped — the isolation the
/// product's classifier answers without.
pub fn reference_plan(program: &Program, ics: &[Constraint], config: &OptimizerConfig) -> Plan {
    validate(program, ics).expect("valid input");
    let (rectified, _) = rectify(program);
    let blocks = blocks(&rectified, validate(&rectified, ics).expect("valid"));
    let small = &config.small_relations;
    let idb = rectified.idb_preds();

    let mut detections: Vec<(usize, Residue)> = Vec::new();
    for (b, info) in blocks.iter().enumerate() {
        for ic in ics {
            let found = detect(&rectified, info, ic, config.method, PAD).expect("detect");
            detections.extend(found.into_iter().map(|d| (b, d)));
        }
    }

    let (mut applied, mut skipped) = (Vec::new(), Vec::new());
    let mut chosen = BTreeMap::new();
    let mut pushed = BTreeMap::new();
    let mut rewritten: BTreeMap<usize, Vec<Rule>> = BTreeMap::new();
    for (b, info) in blocks.iter().enumerate() {
        let mine: Vec<&Residue> = detections
            .iter()
            .filter(|(block, _)| *block == b)
            .map(|(_, d)| d)
            .collect();
        let Some(seq) = choose_sequence(&mine, small) else {
            // Nothing pushable: each residue gets a dry run of its own,
            // for the reason it is skipped.
            for r in mine {
                let u = unfold(&rectified, info, &r.seq).expect("unfold");
                let mut pusher = Pusher::new(&rectified, info, &u);
                pusher.push(r, small);
                skipped.extend(pusher.finish().skipped);
            }
            continue;
        };
        let u = unfold(&rectified, info, seq).expect("unfold");
        let mut pusher = Pusher::new(&rectified, info, &u);
        for r in mine.iter().filter(|r| r.seq == seq) {
            pusher.push(r, small);
        }
        let res = pusher.finish();
        skipped.extend(res.skipped);
        if !res.applied.is_empty() {
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
            if info.recursive_rules.is_empty() {
                rewritten.insert(seq[0], cleaned);
            } else {
                chosen.insert(info.pred, seq.to_vec());
                pushed.insert(info.pred, cleaned);
            }
        }
    }

    // A rewritten non-recursive predicate keeps its other rules as written.
    for (i, rule) in rectified.rules.iter().enumerate() {
        let pred = rule.head.pred;
        if rewritten
            .keys()
            .any(|&j| rectified.rules[j].head.pred == pred)
        {
            let rules = rewritten
                .get(&i)
                .cloned()
                .unwrap_or_else(|| vec![rule.clone()]);
            pushed.entry(pred).or_insert_with(Vec::new).extend(rules);
        }
    }
    let program = replace_blocks(&rectified, pushed);
    Plan {
        rectified,
        program,
        detect_stats: DetectStats {
            ics: ics.len(),
            candidate_pairs: blocks.len() * ics.len(),
            residues: detections.len(),
            ..DetectStats::default()
        },
        detections: (detections.into_iter())
            .map(|(b, d)| (blocks[b].pred, d))
            .collect(),
        chosen,
        applied,
        skipped,
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
    protected.extend(u.tail().into_iter().flatten().filter_map(|t| t.as_var()));
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

/// One-way matching of atoms: extends `s` with bindings for `pattern`'s
/// variables so that `pattern·s = target`; `s` may hold partial bindings
/// on `false`.
fn match_atom(s: &mut Subst, pattern: &Atom, target: &Atom) -> bool {
    if pattern.pred != target.pred || pattern.arity() != target.arity() {
        return false;
    }
    pattern
        .args
        .iter()
        .zip(&target.args)
        .all(|(&p, &t)| match p {
            Term::Const(_) => p == t,
            Term::Var(v) => match s.get(v) {
                Some(bound) => bound == t,
                None => {
                    s.insert(v, t);
                    true
                }
            },
        })
}

/// All *total* free subsumption matches of `patterns` into `targets`:
/// consistent substitutions θ with `patternsᵢ·θ = targets[onto[i]]` for
/// every `i`. Different pattern atoms may map onto the same target.
fn total_matches(patterns: &[Atom], targets: &[&Atom]) -> Vec<Match> {
    let mut out = Vec::new();
    let mut onto: Vec<Option<usize>> = vec![None; patterns.len()];
    go_total(patterns, targets, 0, &Subst::new(), &mut onto, &mut out);
    out
}

fn go_total(
    patterns: &[Atom],
    targets: &[&Atom],
    i: usize,
    theta: &Subst,
    onto: &mut Vec<Option<usize>>,
    out: &mut Vec<Match>,
) {
    if i == patterns.len() {
        out.push(Match {
            theta: theta.clone(),
            onto: onto.clone(),
        });
        return;
    }
    for (j, target) in targets.iter().enumerate() {
        if target.pred != patterns[i].pred {
            continue;
        }
        let mut t = theta.clone();
        if match_atom(&mut t, &patterns[i], target) {
            onto[i] = Some(j);
            go_total(patterns, targets, i + 1, &t, onto, out);
            onto[i] = None;
        }
    }
}

/// Extends `h` with `v ↦ t`, keeping the mapping idempotent. Returns
/// `false` on conflict.
fn bind(h: &mut Subst, v: Symbol, t: Term) -> bool {
    match h.get(v) {
        Some(prev) => prev == t,
        None => {
            if let Term::Var(w) = t {
                if w != v {
                    match h.get(w) {
                        Some(p) if p != Term::Var(w) => return false,
                        Some(_) => {}
                        None => {
                            h.insert(w, Term::Var(w));
                        }
                    }
                }
            }
            h.insert(v, t);
            true
        }
    }
}

/// Matches `h(source)` onto `target`, binding remaining unprotected
/// variables (identity bindings included), returning the extended mapping.
fn match_into(
    source: &Atom,
    target: &Atom,
    h: &Subst,
    protected: &BTreeSet<Symbol>,
) -> Option<Subst> {
    if source.pred != target.pred || source.arity() != target.arity() {
        return None;
    }
    let mut h2 = h.clone();
    for (&st, &tt) in source.args.iter().zip(&target.args) {
        match st {
            Term::Const(_) => {
                if st != tt {
                    return None;
                }
            }
            Term::Var(v) if protected.contains(&v) => {
                if Term::Var(v) != tt {
                    return None;
                }
            }
            Term::Var(v) => {
                if !bind(&mut h2, v, tt) {
                    return None;
                }
            }
        }
    }
    Some(h2)
}

/// Backtracking search: can `h` (fixing `protected`) be extended so every
/// atom of `sources` maps into `targets`?
fn extend_hom(
    sources: &[&Atom],
    i: usize,
    h: &Subst,
    protected: &BTreeSet<Symbol>,
    targets: &[&Atom],
) -> bool {
    let Some(atom) = sources.get(i) else {
        return true;
    };
    for target in targets {
        if let Some(h2) = match_into(atom, target, h, protected) {
            if extend_hom(sources, i + 1, &h2, protected, targets) {
                return true;
            }
        }
    }
    false
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
