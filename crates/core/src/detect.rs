//! Residue detection: Algorithm 3.1 (SD-graph pattern matching) and the
//! exhaustive enumeration it replaces.
//!
//! Both methods end in the same verification step: the candidate expansion
//! sequence is unfolded and the IC's database atoms are (freely, totally)
//! subsumed into it, yielding residues via [`crate::residue::build_residue`].
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
use crate::residue::{build_residue, Residue};
use crate::sequence::{enumerate_sequences, unfold, Unfolding};
use crate::subsume::total_matches;
use semrec_datalog::analysis::RecursionInfo;
use semrec_datalog::atom::{Atom, Pred};
use semrec_datalog::constraint::Constraint;
use semrec_datalog::error::Error;
use semrec_datalog::program::Program;
use std::collections::{BTreeMap, BTreeSet};

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

/// A detected residue (the sequence lives in [`Residue::seq`]).
#[derive(Clone, PartialEq, Debug)]
pub struct Detection {
    /// The residue.
    pub residue: Residue,
}

/// Work counters of the detection phase of one [`Optimizer::run`]; they
/// are exact and repeat, so the compile step's scaling is tested on them
/// rather than on a clock.
///
/// [`Optimizer::run`]: crate::optimizer::Optimizer::run
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct DetectStats {
    /// Integrity constraints given.
    pub ics: usize,
    /// (recursive predicate, constraint) pairs detection was run on: the
    /// constraint's body predicates all occur among the predicate's
    /// subgoals.
    pub candidate_pairs: usize,
    /// SD-graphs built (at most one per recursive predicate).
    pub graphs_built: usize,
    /// (constraint, expansion sequence) subsumption checks — Step 4 of
    /// Algorithm 3.1.
    pub sequences_verified: usize,
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

/// Detects residues of `ic` w.r.t. the recursive predicate described by
/// `info`, using the requested method. `program` must be rectified.
///
/// `pad` controls how many extra levels are tried when a fact residue's
/// head atom is not useful on the minimal sequence (both methods).
///
/// This is the one-pair entry point; a caller with many constraints per
/// predicate keeps one [`Detector`] per predicate instead.
pub fn detect(
    program: &Program,
    info: &RecursionInfo,
    ic: &Constraint,
    method: DetectionMethod,
    pad: usize,
) -> Result<Vec<Detection>, Error> {
    if !may_match(ic, &subgoal_preds(program, info)) {
        return Ok(Vec::new());
    }
    Detector::new(program, info, method, pad, &mut DetectStats::default()).detect(ic)
}

/// Where candidate expansion sequences come from.
enum Proposer {
    /// Steps 1–3 of Algorithm 3.1, per constraint, on the predicate's
    /// SD-graph.
    Graph(SdGraph),
    /// Every sequence up to the bound, whatever the constraint.
    All(Vec<Vec<usize>>),
}

/// Residue detection for one recursive predicate: what depends only on
/// the predicate — its SD-graph (or enumerated sequences) and the
/// unfolding of each expansion sequence — is built once and shared by
/// every constraint tried against it. `program` must be rectified.
pub struct Detector<'a> {
    program: &'a Program,
    info: &'a RecursionInfo,
    pad: usize,
    proposer: Proposer,
    unfoldings: BTreeMap<Vec<usize>, Unfolding>,
    stats: &'a mut DetectStats,
}

impl<'a> Detector<'a> {
    /// Prepares detection for `info.pred`; work is booked to `stats`.
    pub fn new(
        program: &'a Program,
        info: &'a RecursionInfo,
        method: DetectionMethod,
        pad: usize,
        stats: &'a mut DetectStats,
    ) -> Detector<'a> {
        let proposer = match method {
            DetectionMethod::Exhaustive { max_len } => {
                Proposer::All(enumerate_sequences(info, max_len))
            }
            DetectionMethod::SdGraph => {
                stats.graphs_built += 1;
                Proposer::Graph(build_sd_graph(program, info, info.arity + 2))
            }
        };
        Detector {
            program,
            info,
            pad,
            proposer,
            unfoldings: BTreeMap::new(),
            stats,
        }
    }

    /// The unfolding of `seq`, computed on first use.
    pub fn unfolding(&mut self, seq: &[usize]) -> Result<&Unfolding, Error> {
        if !self.unfoldings.contains_key(seq) {
            let u = unfold(self.program, self.info, seq)?;
            self.unfoldings.insert(seq.to_vec(), u);
        }
        Ok(&self.unfoldings[seq])
    }

    /// The residues of `ic`, in deterministic order (by sequence, then by
    /// the residue's text).
    pub fn detect(&mut self, ic: &Constraint) -> Result<Vec<Detection>, Error> {
        let seqs = match &self.proposer {
            Proposer::All(seqs) => seqs.clone(),
            Proposer::Graph(graph) => propose_sequences(graph, ic),
        };

        let mut out: Vec<Detection> = Vec::new();
        let mut verified: BTreeSet<Vec<usize>> = BTreeSet::new();
        let mut worklist: Vec<(Vec<usize>, usize)> = seqs.into_iter().map(|s| (s, 0)).collect();

        while let Some((seq, depth)) = worklist.pop() {
            if !verified.insert(seq.clone()) {
                continue;
            }
            let residues = self.verify_sequence(ic, &seq)?;
            let mut any_non_useful = false;
            for r in residues {
                // Non-useful fact residues are kept: they cannot drive atom
                // elimination, but they can still drive atom *introduction*
                // (Example 4.2's doctoral(S)). They also trigger a search for a
                // useful variant on a padded sequence (Example 3.1).
                if !r.is_useful() {
                    any_non_useful = true;
                }
                let d = Detection { residue: r };
                if !out.contains(&d) {
                    out.push(d);
                }
            }
            // Retry longer sequences to look for useful variants (Example 3.1).
            if any_non_useful && depth < self.pad {
                for &r in &self.info.recursive_rules {
                    let mut pre = vec![r];
                    pre.extend(&seq);
                    worklist.push((pre, depth + 1));
                    // Appending is only possible when the sequence does not end
                    // in an exit rule.
                    if let Some(&last) = seq.last() {
                        if self.info.recursive_rules.contains(&last) {
                            let mut post = seq.clone();
                            post.push(r);
                            worklist.push((post, depth + 1));
                        }
                    }
                }
            }
        }
        out.sort_by_cached_key(|d| (d.residue.seq.clone(), d.residue.to_string()));
        self.stats.residues += out.len();
        Ok(out)
    }

    /// Step 4 of Algorithm 3.1: unfold the sequence and test maximal
    /// (total) free subsumption, generating residues.
    fn verify_sequence(&mut self, ic: &Constraint, seq: &[usize]) -> Result<Vec<Residue>, Error> {
        self.stats.sequences_verified += 1;
        let u = self.unfolding(seq)?;
        let targets: Vec<&Atom> = u.body_atoms().map(|(_, a)| a).collect();
        let mut out: Vec<Residue> = Vec::new();
        for m in total_matches(&ic.body_atoms, &targets) {
            if let Some(r) = build_residue(ic, u, &m) {
                if !out.contains(&r) {
                    out.push(r);
                }
            }
        }
        Ok(out)
    }
}

/// Steps 1–3 of Algorithm 3.1: match the IC's pattern graph against the
/// SD-graph (in both orientations) and read candidate expansion sequences
/// off the matched paths.
fn propose_sequences(graph: &SdGraph, ic: &Constraint) -> Vec<Vec<usize>> {
    let mut out: BTreeSet<Vec<usize>> = BTreeSet::new();
    for atoms in [
        ic.body_atoms.clone(),
        ic.body_atoms.iter().rev().cloned().collect::<Vec<_>>(),
    ] {
        let labels = pattern_labels(&atoms);
        let Some(first) = atoms.first() else { continue };
        for &start in graph.occs_of(first.pred) {
            let mut path_exp: Vec<usize> = vec![graph.occs()[start].rule];
            walk(graph, &atoms, &labels, 0, start, &mut path_exp, &mut out);
        }
    }
    out.into_iter().collect()
}

#[allow(clippy::too_many_arguments)]
fn walk(
    graph: &SdGraph,
    atoms: &[Atom],
    labels: &[BTreeSet<(usize, usize)>],
    t: usize,
    occ: usize,
    seq: &mut Vec<usize>,
    out: &mut BTreeSet<Vec<usize>>,
) {
    if t + 1 == atoms.len() {
        // Completed path; the accumulated sequence is a candidate. It is
        // valid only if every rule except possibly the last is recursive
        // (guaranteed by construction) — emit it.
        out.insert(seq.clone());
        return;
    }
    let next_pred = atoms[t + 1].pred;
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
            .map(|d| &d.residue)
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
                ex.iter().any(|e| e.residue.seq == d.residue.seq
                    && e.residue.head == d.residue.head
                    && e.residue.body == d.residue.body),
                "missing {:?}",
                d.residue.to_string()
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
        let null: Vec<&Detection> = ds.iter().filter(|d| d.residue.is_null()).collect();
        assert!(!null.is_empty(), "no null residue found: {ds:?}");
        // The paper's sequence r1 r1 r1; the variant closed by the exit
        // rule (r1 r1 r0 — three par atoms across two recursive levels plus
        // the base case) is also legitimately detected.
        assert!(null.iter().any(|d| d.residue.seq == vec![1, 1, 1]));
        assert!(null.iter().all(|d| d.residue.is_conditional()));
    }

    const CHAIN: &str = "p(X1, X2, X3, X4, X5, X6) :- e(X1, X2, X3, X4, X5, X6).
        p(X1, X2, X3, X4, X5, X6) :- a(X1, X2, X4), b(W2, X3), c(W3, W4, X5),
            d(W5, X6), p(X1, W2, W3, W4, W5, W6).
        ic: a(V1, V2, V3), b(V2, V4), c(V4, V5, V6) -> d(V6, V7).";

    #[test]
    fn example_3_1_useful_residue_needs_padding() {
        let (p, info, ics) = setup(CHAIN, "p");
        let ds = detect(&p, &info, &ics[0], DetectionMethod::SdGraph, 2).unwrap();
        let useful: Vec<&Detection> = ds
            .iter()
            .filter(|d| d.residue.is_useful() && d.residue.is_fact())
            .collect();
        assert!(!useful.is_empty(), "no useful residue: {ds:?}");
        // The minimal maximally-subsumed sequence is r0 r0 r0. The paper
        // claims a useful variant at 4 levels by extending V7 ↦ X6 — but X6
        // is the root output variable, so eliminating d(X5', X6) there
        // would be unsound (the IC only guarantees ∃V7). The first *sound*
        // useful variant sits at 5 levels, where the d atom's second
        // argument is a pure existential; padding finds it.
        assert!(useful.iter().any(|d| d.residue.seq == vec![1; 5]));
        assert!(!ds
            .iter()
            .any(|d| d.residue.is_useful() && d.residue.seq.len() <= 4));
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
        assert!(ds
            .iter()
            .any(|d| d.residue.is_useful() && d.residue.seq.len() == 5));
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
        assert!(ds.iter().any(|d| d.residue.seq == vec![1]));
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
        assert!(sd.iter().any(|d| d.residue.seq == vec![1]), "sd: {sd:?}");
        assert!(ex.iter().any(|d| d.residue.seq == vec![1]));
        // And every SD residue with a small sequence appears exhaustively.
        for d in &sd {
            if d.residue.seq.len() <= 3 {
                assert!(
                    ex.iter().any(|e| e.residue.seq == d.residue.seq
                        && e.residue.head == d.residue.head),
                    "missing {:?}",
                    d.residue.seq
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
        assert!(
            ds.iter().any(|d| d.residue.seq == vec![1, 1]),
            "detections: {ds:?}"
        );
    }
}
