//! Residue detection: Algorithm 3.1 (SD-graph pattern matching) and the
//! exhaustive enumeration it replaces.
//!
//! Both methods end in the same verification step: the candidate expansion
//! sequence is unfolded and the IC's database atoms are (freely, totally)
//! subsumed into it, yielding residues via [`crate::residue::build_residue`]
//! against the unfolding's [`VerifyContext`].
//! The SD-graph method merely *proposes* candidate sequences cheaply —
//! exactly the division of labour of Algorithm 3.1 (Steps 1–3 propose,
//! Step 4 verifies).
//!
//! Detected residues whose head atom is not yet *useful* (§3) are retried
//! on padded sequences (extra rule applications prepended/appended), which
//! is how the paper's Example 3.1 obtains the variant residue `→ d(X5', X6)`
//! — its own expansion uses one more level than the minimal subsumed
//! sequence.

use crate::graph::{build_sd_graph, pattern_labels, SdGraph};
use crate::occurs::may_match;
use crate::residue::{Residue, Scratch, VerifyContext};
use crate::sequence::{enumerate_sequences, unfold_with, StepNames, Unfolding};
use semrec_datalog::analysis::RecursionInfo;
use semrec_datalog::atom::{Atom, Pred};
use semrec_datalog::constraint::Constraint;
use semrec_datalog::error::Error;
use semrec_datalog::program::Program;
use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;

/// How residues were (or should be) detected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DetectionMethod {
    /// Algorithm 3.1: SD-graph proposal + subsumption verification.
    SdGraph,
    /// Enumerate every expansion sequence up to the given length.
    Exhaustive {
        /// Maximum sequence length.
        max_len: usize,
    },
}

/// How many levels the optimizer's usefulness search may add to a
/// sequence with a fact residue that is not useful (Examples 3.1 and 4.1
/// find their useful residues only on padded sequences).
pub const PAD: usize = 3;

/// Work counters of the detection phase of one [`Optimizer::run`]; they
/// are exact and repeat, so the compile step's scaling is tested on them
/// rather than on a clock.
///
/// [`Optimizer::run`]: crate::optimizer::Optimizer::run
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct DetectStats {
    /// Integrity constraints given.
    pub ics: usize,
    /// (block, constraint) pairs detection was run on: the constraint's
    /// body predicates all occur among the block's subgoals. A block is
    /// a recursive predicate or a non-recursive rule.
    pub candidate_pairs: usize,
    /// SD-graphs built (at most one per recursive predicate).
    pub graphs_built: usize,
    /// (constraint, expansion sequence) subsumption checks — Step 4 of
    /// Algorithm 3.1.
    pub sequences_verified: usize,
    /// Distinct unfoldings built, each with its verification context;
    /// the constraints of one predicate share them.
    pub unfoldings: usize,
    /// Residues detected.
    pub residues: usize,
}

/// The predicates of the non-recursive subgoals of the rules defining
/// `info.pred`. Every body atom of every unfolding, and every SD-graph
/// occurrence, carries one of them — so a constraint that does not
/// [`may_match`] this set has no residue for the predicate under either
/// detection method.
pub fn subgoal_preds(program: &Program, info: &RecursionInfo) -> BTreeSet<Pred> {
    info.recursive_rules
        .iter()
        .chain(&info.exit_rules)
        .flat_map(|&r| program.rules[r].body_atoms())
        .map(|a| a.pred)
        .filter(|&p| p != info.pred)
        .collect()
}

/// The blocks residues are detected and pushed on: each recursive
/// predicate of `infos`, then, in program order, each rule of `program`
/// defining none of them as a one-rule block (k = 1) — no recursive rule,
/// the rule as its one exit rule, so its one sequence is the rule itself.
pub fn blocks(program: &Program, infos: Vec<RecursionInfo>) -> Vec<RecursionInfo> {
    let recursive: BTreeSet<Pred> = infos.iter().map(|i| i.pred).collect();
    let rules = program.rules.iter().enumerate();
    let one_rule = rules.filter(|(_, r)| !recursive.contains(&r.head.pred));
    let one_rule = one_rule.map(|(i, r)| RecursionInfo {
        pred: r.head.pred,
        arity: r.head.arity(),
        recursive_rules: Vec::new(),
        exit_rules: vec![i],
    });
    infos.into_iter().chain(one_rule).collect()
}

/// Detects residues of `ic` w.r.t. the block described by `info` (a
/// recursive predicate, or a rule of [`blocks`]), using the requested
/// method. `program` must be rectified.
///
/// `pad` controls how many extra levels are tried when a fact residue's
/// head atom is not useful on the minimal sequence (both methods); the
/// optimizer passes [`PAD`].
///
/// This is the one-pair entry point; a caller with many constraints per
/// predicate keeps one [`Detector`] per predicate instead.
pub fn detect(
    program: &Program,
    info: &RecursionInfo,
    ic: &Constraint,
    method: DetectionMethod,
    pad: usize,
) -> Result<Vec<Residue>, Error> {
    if !may_match(ic, &subgoal_preds(program, info)) {
        return Ok(Vec::new());
    }
    Detector::new(program, info, method, pad, &mut DetectWork::default())
        .detect(&Arc::new(ic.clone()))
}

/// Where candidate expansion sequences come from.
enum Proposer {
    /// Steps 1–3 of Algorithm 3.1, per constraint, on the predicate's
    /// SD-graph.
    Graph(SdGraph),
    /// Every sequence up to the bound, whatever the constraint.
    All(Vec<Vec<usize>>),
}

/// Residue detection for one block (a recursive predicate, or a
/// non-recursive rule on its own): what depends only on the block — its
/// SD-graph (or enumerated sequences), the unfolding of each expansion
/// sequence and its [`VerifyContext`] — is built once and shared by
/// every constraint tried against it. `program` must be rectified.
pub struct Detector<'a> {
    program: &'a Program,
    info: &'a RecursionInfo,
    pad: usize,
    proposer: Proposer,
    names: StepNames,
    /// The verification context of each sequence unfolded so far, in
    /// sequence order, with the number of the last [`Detector::detect`]
    /// call that verified it (0 for none). A sequence is looked up by
    /// its unfolding's own copy; no other is kept.
    contexts: Vec<(usize, VerifyContext)>,
    /// Calls of [`Detector::detect`] so far.
    calls: usize,
    work: &'a mut DetectWork,
}

/// What detection keeps from one [`Detector`] to the next: the work
/// counts booked so far, and the working places of
/// [`Detector::detect`], which grow to the largest block's size once.
#[derive(Default)]
pub struct DetectWork {
    /// The work counts.
    pub stats: DetectStats,
    reuse: Reuse,
}

/// What [`Detector::detect`] reuses from one call to the next.
#[derive(Default)]
struct Reuse {
    /// The searches.
    scratch: Scratch,
    /// The sequences to verify.
    work: Worklist,
    /// The SD-graph path being walked.
    path: Vec<usize>,
    /// Each residue found (taken out when it is sorted), with its text —
    /// the order key's second half — as a range of `texts`.
    found: Vec<(Range<usize>, Option<Residue>)>,
    texts: String,
    /// Positions in `found`, in key order.
    order: Vec<usize>,
}

/// Sequences to verify, each with how many levels padding added to it,
/// their rule indices one after the other.
#[derive(Default)]
struct Worklist {
    seqs: Vec<usize>,
    todo: Vec<(Range<usize>, usize)>,
}

impl Worklist {
    /// Adds the sequence `seq`, padded `depth` levels.
    fn push(&mut self, seq: impl IntoIterator<Item = usize>, depth: usize) {
        let start = self.seqs.len();
        self.seqs.extend(seq);
        self.todo.push((start..self.seqs.len(), depth));
    }
}

impl<'a> Detector<'a> {
    /// Prepares detection for `info.pred`; work is booked to `work`.
    pub fn new(
        program: &'a Program,
        info: &'a RecursionInfo,
        method: DetectionMethod,
        pad: usize,
        work: &'a mut DetectWork,
    ) -> Detector<'a> {
        let proposer = match method {
            // A one-rule block (a non-recursive rule) has one sequence,
            // the rule itself: nothing to search for, nothing to pad.
            _ if info.recursive_rules.is_empty() => Proposer::All(enumerate_sequences(info, 1)),
            DetectionMethod::Exhaustive { max_len } => {
                Proposer::All(enumerate_sequences(info, max_len))
            }
            DetectionMethod::SdGraph => {
                work.stats.graphs_built += 1;
                Proposer::Graph(build_sd_graph(program, info, info.arity + 2))
            }
        };
        Detector {
            program,
            info,
            pad,
            proposer,
            names: StepNames::default(),
            contexts: Vec::new(),
            calls: 0,
            work,
        }
    }

    /// The unfolding of `seq`, computed on first use.
    pub fn unfolding(&mut self, seq: &[usize]) -> Result<&Unfolding, Error> {
        let at = self.context(seq)?;
        Ok(self.contexts[at].1.unfolding())
    }

    /// Where `seq`'s verification context is in `contexts`, built on
    /// first use.
    fn context(&mut self, seq: &[usize]) -> Result<usize, Error> {
        let found = (self.contexts).binary_search_by(|(_, c)| c.unfolding().seq[..].cmp(seq));
        found.or_else(|at| {
            let u = unfold_with(self.program, self.info, seq, &mut self.names)?;
            self.work.stats.unfoldings += 1;
            self.contexts.insert(at, (0, VerifyContext::new(u)));
            Ok(at)
        })
    }

    /// The residues of `ic`, in deterministic order (by sequence, then by
    /// the residue's text), each once.
    pub fn detect(&mut self, ic: &Arc<Constraint>) -> Result<Vec<Residue>, Error> {
        let mut reuse = std::mem::take(&mut self.work.reuse);
        let Reuse {
            scratch,
            work,
            path,
            found,
            texts,
            order,
        } = &mut reuse;
        match &self.proposer {
            Proposer::All(all) => all.iter().for_each(|s| work.push(s.iter().copied(), 0)),
            Proposer::Graph(graph) => propose_sequences(graph, ic, path, work),
        }
        self.calls += 1;
        let (call, info, pad) = (self.calls, self.info, self.pad);

        while let Some((range, depth)) = work.todo.pop() {
            let at = self.context(&work.seqs[range])?;
            let (verified_by, ctx) = &mut self.contexts[at];
            if std::mem::replace(verified_by, call) == call {
                continue;
            }
            // Step 4 of Algorithm 3.1: unfold the sequence and test maximal
            // (total) free subsumption, generating residues.
            let before = found.len();
            ctx.residues(ic, scratch, |r| {
                let start = texts.len();
                r.write_to(texts).expect("a String takes every write");
                found.push((start..texts.len(), Some(r)));
            });
            // Non-useful fact residues are kept: they cannot drive atom
            // elimination, but they can still drive atom *introduction*
            // (Example 4.2's doctoral(S)). They also trigger a search for a
            // useful variant on a padded sequence (Example 3.1).
            let mut mine = found[before..].iter().flat_map(|(_, r)| r);
            let any_non_useful = mine.any(|r| !r.is_useful());
            // Retry longer sequences to look for useful variants (Example 3.1).
            if any_non_useful && depth < pad {
                let seq = &ctx.unfolding().seq;
                for &r in &info.recursive_rules {
                    work.push(std::iter::once(r).chain(seq.iter().copied()), depth + 1);
                    // Appending is only possible when the sequence does not end
                    // in an exit rule.
                    if let Some(&last) = seq.last() {
                        if info.recursive_rules.contains(&last) {
                            work.push(seq.iter().copied().chain([r]), depth + 1);
                        }
                    }
                }
            }
            self.work.stats.sequences_verified += 1;
        }
        let out = sort_distinct(found, texts, order);
        work.seqs.clear();
        texts.clear();
        self.work.reuse = reuse;
        self.work.stats.residues += out.len();
        Ok(out)
    }
}

/// Sorts residues by (sequence, text) and drops repeats, keeping the first
/// of equal residues. Equal residues share that key, so each residue is
/// compared only with the others of its key; the sort is stable, so
/// residues of one key stay in the order they were found. Each text is a
/// range of `texts`; the sort moves positions, through `order`, and each
/// residue is moved once. `found` is left empty.
fn sort_distinct(
    found: &mut Vec<(Range<usize>, Option<Residue>)>,
    texts: &str,
    order: &mut Vec<usize>,
) -> Vec<Residue> {
    let key = |i: usize| {
        let (text, r) = &found[i];
        let r = r.as_ref().expect("a residue is sorted once");
        (&r.seq[..], &texts[text.clone()])
    };
    order.clear();
    order.extend(0..found.len());
    order.sort_by(|&a, &b| key(a).cmp(&key(b)));
    let mut out: Vec<Residue> = Vec::with_capacity(found.len());
    let (mut key_start, mut key_text) = (0, "");
    for &i in order.iter() {
        let (range, slot) = &mut found[i];
        let residue = slot.take().expect("a residue is sorted once");
        let text = &texts[range.clone()];
        if out.last().is_none_or(|r| r.seq != residue.seq) || text != key_text {
            key_start = out.len();
            key_text = text;
        }
        if !out[key_start..].contains(&residue) {
            out.push(residue);
        }
    }
    found.clear();
    out
}

/// Steps 1–3 of Algorithm 3.1: match the IC's pattern graph against the
/// SD-graph (in both orientations) and read candidate expansion sequences
/// off the matched paths, walked in `path`. Each distinct one goes onto
/// the empty `work` (padding depth 0), in sequence order.
fn propose_sequences(graph: &SdGraph, ic: &Constraint, path: &mut Vec<usize>, work: &mut Worklist) {
    let forward = &ic.body_atoms[..];
    walk_all(graph, forward, path, work);
    // One atom reads the same both ways.
    if forward.len() > 1 {
        let backward: Vec<&Atom> = forward.iter().rev().collect();
        walk_all(graph, &backward, path, work);
    }
    let Worklist { seqs, todo } = work;
    let seq = |r: &Range<usize>| &seqs[r.clone()];
    todo.sort_by(|(a, _), (b, _)| seq(a).cmp(seq(b)));
    todo.dedup_by(|(a, _), (b, _)| seq(a) == seq(b));
}

/// [`walk`]s the pattern `atoms` from every occurrence of its first
/// atom's predicate.
fn walk_all<A: Borrow<Atom>>(
    graph: &SdGraph,
    atoms: &[A],
    path: &mut Vec<usize>,
    out: &mut Worklist,
) {
    let labels = pattern_labels(atoms);
    let Some(first) = atoms.first() else { return };
    for &start in graph.occs_of(first.borrow().pred) {
        path.clear();
        path.push(graph.occs()[start].rule);
        walk(graph, atoms, &labels, 0, start, path, out);
    }
}

#[allow(clippy::too_many_arguments)]
fn walk<A: Borrow<Atom>>(
    graph: &SdGraph,
    atoms: &[A],
    labels: &[BTreeSet<(usize, usize)>],
    t: usize,
    occ: usize,
    seq: &mut Vec<usize>,
    out: &mut Worklist,
) {
    if t + 1 == atoms.len() {
        // Completed path; the accumulated sequence is a candidate. It is
        // valid only if every rule except possibly the last is recursive
        // (guaranteed by construction) — emit it.
        out.push(seq.iter().copied(), 0);
        return;
    }
    let next_pred = atoms[t + 1].borrow().pred;
    for e in graph.edges_from(occ) {
        if graph.occs()[e.to].pred != next_pred {
            continue;
        }
        // Lemma 3.1 condition (ii): the pattern label must be a subset of
        // the edge's sharing label. An empty pattern label cannot happen
        // (chain ICs share ≥1 variable between neighbours).
        if !labels[t].is_subset(&e.pairs) {
            continue;
        }
        if e.exp.is_empty() {
            // Same level: rule must agree with the current level's rule.
            if graph.occs()[e.to].rule != *seq.last().expect("nonempty seq") {
                continue;
            }
            walk(graph, atoms, labels, t + 1, e.to, seq, out);
        } else {
            // Descend: the previous level's rule must be where we are now.
            if graph.occs()[occ].rule != *seq.last().expect("nonempty seq") {
                continue;
            }
            let len_before = seq.len();
            seq.extend(&e.exp);
            walk(graph, atoms, labels, t + 1, e.to, seq, out);
            seq.truncate(len_before);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_datalog::analysis::{classify_linear_pred, rectify};
    use semrec_datalog::atom::Pred;
    use semrec_datalog::parser::parse_unit;

    fn setup(src: &str, pred: &str) -> (Program, RecursionInfo, Vec<Constraint>) {
        let unit = parse_unit(src).unwrap();
        let (p, _) = rectify(&unit.program());
        let info = classify_linear_pred(&p, Pred::new(pred)).unwrap();
        (p, info, unit.constraints)
    }

    const EVAL: &str = "eval(P, S, T) :- super(P, S, T).
        eval(P, S, T) :- works_with(P, P1), eval(P1, S, T), expert(P, F), field(T, F).
        ic ic1: works_with(P2, P1), expert(P1, F1) -> expert(P2, F1).";

    #[test]
    fn example_3_2_detection_via_sdgraph() {
        let (p, info, ics) = setup(EVAL, "eval");
        let ds = detect(&p, &info, &ics[0], DetectionMethod::SdGraph, 2).unwrap();
        assert!(!ds.is_empty());
        // Sequence r1 r1, unconditional useful fact residue -> expert(…).
        let r = ds
            .iter()
            .find(|r| r.is_useful() && r.seq == vec![1, 1])
            .expect("useful residue on r1 r1");
        assert!(r.is_fact());
        assert!(!r.is_conditional());
    }

    #[test]
    fn sdgraph_agrees_with_exhaustive() {
        let (p, info, ics) = setup(EVAL, "eval");
        let sd = detect(&p, &info, &ics[0], DetectionMethod::SdGraph, 2).unwrap();
        let ex = detect(
            &p,
            &info,
            &ics[0],
            DetectionMethod::Exhaustive { max_len: 3 },
            2,
        )
        .unwrap();
        // Every SD-detected residue must also be found exhaustively.
        for d in &sd {
            assert!(
                ex.iter()
                    .any(|e| e.seq == d.seq && e.head == d.head && e.body == d.body),
                "missing {:?}",
                d.to_string()
            );
        }
    }

    const ANC_AGE: &str = "anc(X, Xa, Y, Ya) :- par(X, Xa, Y, Ya).
        anc(X, Xa, Y, Ya) :- anc(X, Xa, Z, Za), par(Z, Za, Y, Ya).
        ic: Ya <= 50, par(Z, Za, Y, Ya), par(Z1, Z1a, Z, Za), par(Z2, Z2a, Z1, Z1a) -> .";

    #[test]
    fn example_4_3_pruning_detection() {
        let (p, info, ics) = setup(ANC_AGE, "anc");
        let ds = detect(&p, &info, &ics[0], DetectionMethod::SdGraph, 2).unwrap();
        let null: Vec<&Residue> = ds.iter().filter(|d| d.is_null()).collect();
        assert!(!null.is_empty(), "no null residue found: {ds:?}");
        // The paper's sequence r1 r1 r1; the variant closed by the exit
        // rule (r1 r1 r0 — three par atoms across two recursive levels plus
        // the base case) is also legitimately detected.
        assert!(null.iter().any(|d| d.seq == vec![1, 1, 1]));
        assert!(null.iter().all(|d| d.is_conditional()));
    }

    const CHAIN: &str = "p(X1, X2, X3, X4, X5, X6) :- e(X1, X2, X3, X4, X5, X6).
        p(X1, X2, X3, X4, X5, X6) :- a(X1, X2, X4), b(W2, X3), c(W3, W4, X5),
            d(W5, X6), p(X1, W2, W3, W4, W5, W6).
        ic: a(V1, V2, V3), b(V2, V4), c(V4, V5, V6) -> d(V6, V7).";

    #[test]
    fn example_3_1_useful_residue_needs_padding() {
        let (p, info, ics) = setup(CHAIN, "p");
        let ds = detect(&p, &info, &ics[0], DetectionMethod::SdGraph, 2).unwrap();
        let useful: Vec<&Residue> = ds.iter().filter(|d| d.is_useful() && d.is_fact()).collect();
        assert!(!useful.is_empty(), "no useful residue: {ds:?}");
        // The minimal maximally-subsumed sequence is r0 r0 r0. The paper
        // claims a useful variant at 4 levels by extending V7 ↦ X6 — but X6
        // is the root output variable, so eliminating d(X5', X6) there
        // would be unsound (the IC only guarantees ∃V7). The first *sound*
        // useful variant sits at 5 levels, where the d atom's second
        // argument is a pure existential; padding finds it.
        assert!(useful.iter().any(|d| d.seq == vec![1; 5]));
        assert!(!ds.iter().any(|d| d.is_useful() && d.seq.len() <= 4));
    }

    #[test]
    fn exhaustive_also_finds_chain_residue() {
        let (p, info, ics) = setup(CHAIN, "p");
        let ds = detect(
            &p,
            &info,
            &ics[0],
            DetectionMethod::Exhaustive { max_len: 5 },
            0,
        )
        .unwrap();
        assert!(ds.iter().any(|d| d.is_useful() && d.seq.len() == 5));
    }

    #[test]
    fn no_detection_for_unrelated_ic() {
        let (p, info, _) = setup(EVAL, "eval");
        let ic = semrec_datalog::parse_constraints("ic: zig(A, B), zag(B, C) -> .")
            .unwrap()
            .remove(0);
        let ds = detect(&p, &info, &ic, DetectionMethod::SdGraph, 1).unwrap();
        assert!(ds.is_empty());
    }

    #[test]
    fn rule_level_detection_single_rule_sequence() {
        // An IC fully inside one rule body → sequence of length 1.
        let (p, info, ics) = setup(
            "t(E1, E2, E3) :- same_level(E1, E2, E3).
             t(E1, E2, E3) :- boss(U, E3, R), experienced(U), t(U, E1, E2).
             ic: boss(U, E, R), experienced(U) -> strong(E).",
            "t",
        );
        let ds = detect(&p, &info, &ics[0], DetectionMethod::SdGraph, 0).unwrap();
        assert!(ds.iter().any(|d| d.seq == vec![1]));
    }
}

#[cfg(test)]
mod duplicate_subgoal_tests {
    use super::*;
    use semrec_datalog::analysis::{classify_linear_pred, rectify};
    use semrec_datalog::atom::Pred;
    use semrec_datalog::parser::parse_unit;

    /// The paper assumes all subgoal occurrences are distinct predicates;
    /// our occurrence-keyed SD-graph handles repeats, and must agree with
    /// exhaustive enumeration.
    #[test]
    fn repeated_predicates_in_one_rule() {
        let unit = parse_unit(
            "hops(X, Y) :- base(X, Y).
             hops(X, Y) :- step(X, M), step(M, Z), hops(Z, Y).
             ic: step(A, B), step(B, C) -> far(A, C).",
        )
        .unwrap();
        let (p, _) = rectify(&unit.program());
        let info = classify_linear_pred(&p, Pred::new("hops")).unwrap();
        let g = crate::graph::build_sd_graph(&p, &info, 6);
        assert!(!g.distinct_subgoals());

        let sd = detect(&p, &info, &unit.constraints[0], DetectionMethod::SdGraph, 1).unwrap();
        let ex = detect(
            &p,
            &info,
            &unit.constraints[0],
            DetectionMethod::Exhaustive { max_len: 3 },
            1,
        )
        .unwrap();
        // The same-rule match (both step atoms inside one level) must be
        // found by both methods.
        assert!(sd.iter().any(|d| d.seq == vec![1]), "sd: {sd:?}");
        assert!(ex.iter().any(|d| d.seq == vec![1]));
        // And every SD residue with a small sequence appears exhaustively.
        for d in &sd {
            if d.seq.len() <= 3 {
                assert!(
                    ex.iter().any(|e| e.seq == d.seq && e.head == d.head),
                    "missing {:?}",
                    d.seq
                );
            }
        }
    }

    /// Cross-level sharing through a repeated predicate: the IC chain can
    /// match one occurrence at one level and the other a level below.
    #[test]
    fn repeated_predicate_across_levels() {
        let unit = parse_unit(
            "walk(X, Y) :- base(X, Y).
             walk(X, Y) :- road(X, Z), walk(Z, Y).
             ic: road(A, B), road(B, C) -> shortcut(A, C).",
        )
        .unwrap();
        let (p, _) = rectify(&unit.program());
        let info = classify_linear_pred(&p, Pred::new("walk")).unwrap();
        let ds = detect(&p, &info, &unit.constraints[0], DetectionMethod::SdGraph, 1).unwrap();
        // road@level1 and road@level2 chain via the recursion variable.
        assert!(ds.iter().any(|d| d.seq == vec![1, 1]), "detections: {ds:?}");
    }
}
