//! The argument/predicate graph (AP-graph, Definition 3.2) and the subgoal
//! dependency graph (SD-graph) derived from it.
//!
//! The AP-graph records how values flow between subgoal argument positions
//! and the recursive predicate's argument positions, within and across
//! recursion levels. The SD-graph summarizes it: an edge `a → b` labelled
//! `(exp, {(i, j), …})` says that in the expansion sequence obtained by
//! applying the rules `exp` below `a`'s rule, argument `i` of `a` is
//! identical to argument `j` of `b`. An edge with an empty `exp` is the
//! *undirected* (same-level) sharing case.
//!
//! Rather than materializing AP-graph vertices explicitly, the SD-graph
//! construction walks the same paths the definition describes: an
//! *entry* step (subgoal argument shares a variable with a recursive-call
//! position, the undirected `(a, p_k)` edges), zero or more *pass-through*
//! steps (a head variable forwarded to a call position, the directed
//! `⟨p_i, p_j⟩` edges), and an *exit* step (a head variable occurring in a
//! subgoal, the directed `⟨p_i, a⟩` edges). Pass-through chains are
//! enumerated up to `max_descents` rule applications, which bounds the
//! simple paths of the AP-graph.

use semrec_datalog::analysis::RecursionInfo;
use semrec_datalog::atom::{Atom, Pred};
use semrec_datalog::program::Program;
use semrec_datalog::symbol::Symbol;
use semrec_datalog::term::Term;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A non-recursive subgoal occurrence in a rule for the recursive predicate.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Occ {
    /// Rule index in the program.
    pub rule: usize,
    /// Literal index within the rule body.
    pub lit: usize,
    /// The occurrence's predicate.
    pub pred: Pred,
}

/// An SD-graph edge.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SdEdge {
    /// Index of the source occurrence in [`SdGraph::occs`].
    pub from: usize,
    /// Index of the target occurrence.
    pub to: usize,
    /// The rules applied below `from`'s rule to reach `to`'s level
    /// (empty = same level). The last element, if any, is `to`'s rule.
    pub exp: Vec<usize>,
    /// Shared argument positions: 0-based `(column of from, column of to)`.
    pub pairs: BTreeSet<(usize, usize)>,
}

/// The subgoal dependency graph of a (rectified) linear program, indexed
/// for the walk of Algorithm 3.1: the edges leaving an occurrence and the
/// occurrences of a predicate are slices, not scans.
#[derive(Clone, Debug)]
pub struct SdGraph {
    occs: Vec<Occ>,
    /// Sorted by `(from, to, exp)`, so each occurrence's out-edges are
    /// contiguous.
    edges: Vec<SdEdge>,
    /// `edges[out[i]..out[i + 1]]` leave occurrence `i`.
    out: Vec<usize>,
    by_pred: BTreeMap<Pred, Vec<usize>>,
}

impl SdGraph {
    fn new(occs: Vec<Occ>, edges: Vec<SdEdge>) -> SdGraph {
        debug_assert!(edges.windows(2).all(|w| w[0].from <= w[1].from));
        let mut out = vec![0usize; occs.len() + 1];
        for e in &edges {
            out[e.from + 1] += 1;
        }
        for i in 0..occs.len() {
            out[i + 1] += out[i];
        }
        let mut by_pred: BTreeMap<Pred, Vec<usize>> = BTreeMap::new();
        for (i, o) in occs.iter().enumerate() {
            by_pred.entry(o.pred).or_default().push(i);
        }
        SdGraph {
            occs,
            edges,
            out,
            by_pred,
        }
    }

    /// The subgoal occurrences, in (rule, literal) order.
    pub fn occs(&self) -> &[Occ] {
        &self.occs
    }

    /// Occurrence indices with the given predicate, ascending.
    pub fn occs_of(&self, pred: Pred) -> &[usize] {
        self.by_pred.get(&pred).map_or(&[], Vec::as_slice)
    }

    /// Edges leaving occurrence `from`.
    pub fn edges_from(&self, from: usize) -> impl Iterator<Item = &SdEdge> {
        self.edges[self.out[from]..self.out[from + 1]].iter()
    }

    /// True if the program satisfies the paper's distinct-subgoal
    /// assumption: no predicate occurs twice among the subgoals.
    pub fn distinct_subgoals(&self) -> bool {
        self.by_pred.values().all(|occs| occs.len() == 1)
    }
}

impl fmt::Display for SdGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.edges {
            let a = &self.occs[e.from];
            let b = &self.occs[e.to];
            let exp: Vec<String> = e.exp.iter().map(|r| format!("r{r}")).collect();
            writeln!(
                f,
                "{}[r{}] -> {}[r{}]  exp=<{}> pairs={:?}",
                a.pred,
                a.rule,
                b.pred,
                b.rule,
                exp.join(" "),
                e.pairs
            )?;
        }
        Ok(())
    }
}

fn atom_of<'p>(program: &'p Program, occ: &Occ) -> &'p Atom {
    program.rules[occ.rule].body[occ.lit]
        .as_atom()
        .expect("occurrence is an atom")
}

/// Builds the SD-graph of the (rectified) program restricted to the rules
/// defining `info.pred`. `max_descents` bounds pass-through chains.
pub fn build_sd_graph(program: &Program, info: &RecursionInfo, max_descents: usize) -> SdGraph {
    let pred = info.pred;
    let rules = info.all_rules();

    // Canonical head variables (identical across rectified rules).
    let head_vars: Vec<Symbol> = program.rules[rules[0]]
        .head
        .args
        .iter()
        .map(|t| t.as_var().expect("rectified head"))
        .collect();
    let n = head_vars.len();

    // Occurrences.
    let mut occs: Vec<Occ> = Vec::new();
    for &r in &rules {
        for (li, lit) in program.rules[r].body.iter().enumerate() {
            if let Some(a) = lit.as_atom() {
                if a.pred != pred {
                    occs.push(Occ {
                        rule: r,
                        lit: li,
                        pred: a.pred,
                    });
                }
            }
        }
    }

    // Recursive-call arguments per recursive rule.
    let mut call_args: BTreeMap<usize, Vec<Term>> = BTreeMap::new();
    for &r in &info.recursive_rules {
        let call = program.rules[r]
            .body_atoms()
            .find(|a| a.pred == pred)
            .expect("recursive rule has a call");
        call_args.insert(r, call.args.clone());
    }

    // Pass-through steps: pos_steps[k] = [(rule, k2)] when rule forwards
    // head variable k to call position k2.
    let mut pos_steps: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for (&r, args) in &call_args {
        for (k2, t) in args.iter().enumerate() {
            if let Term::Var(v) = t {
                if let Some(k) = head_vars.iter().position(|h| h == v) {
                    pos_steps[k].push((r, k2));
                }
            }
        }
    }

    // Exit steps: pos_exits[k] = [(occ index, column)] where head var k
    // appears in an occurrence.
    let mut pos_exits: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for (oi, occ) in occs.iter().enumerate() {
        for (col, t) in atom_of(program, occ).args.iter().enumerate() {
            if let Term::Var(v) = t {
                if let Some(k) = head_vars.iter().position(|h| h == v) {
                    pos_exits[k].push((oi, col));
                }
            }
        }
    }

    // Accumulate edges keyed by (from, to, exp).
    type EdgeAcc = BTreeMap<(usize, usize, Vec<usize>), BTreeSet<(usize, usize)>>;
    let mut acc: EdgeAcc = BTreeMap::new();

    // Same-level sharing: two occurrences of one rule sharing a variable.
    for (ai, a) in occs.iter().enumerate() {
        for (bi, b) in occs.iter().enumerate() {
            if ai == bi || a.rule != b.rule {
                continue;
            }
            let aa = atom_of(program, a);
            let bb = atom_of(program, b);
            let mut pairs = BTreeSet::new();
            for (i, ta) in aa.args.iter().enumerate() {
                if !ta.is_var() {
                    continue;
                }
                for (j, tb) in bb.args.iter().enumerate() {
                    if ta == tb {
                        pairs.insert((i, j));
                    }
                }
            }
            if !pairs.is_empty() {
                acc.entry((ai, bi, Vec::new())).or_default().extend(pairs);
            }
        }
    }

    // Cross-level sharing: entry → pass-through* → exit.
    for (ai, a) in occs.iter().enumerate() {
        let Some(cargs) = call_args.get(&a.rule) else {
            continue; // occurrences in exit rules cannot descend
        };
        let aa = atom_of(program, a);
        for (i, ta) in aa.args.iter().enumerate() {
            let Term::Var(v) = ta else { continue };
            for (k0, ct) in cargs.iter().enumerate() {
                if *ct != Term::Var(*v) {
                    continue;
                }
                // DFS from position k0.
                let mut stack: Vec<(usize, Vec<usize>)> = vec![(k0, Vec::new())];
                while let Some((k, exp)) = stack.pop() {
                    // Exit at this level: choose the rule of the exit
                    // occurrence as the final descent.
                    for &(bi, j) in &pos_exits[k] {
                        let mut full = exp.clone();
                        full.push(occs[bi].rule);
                        acc.entry((ai, bi, full)).or_default().insert((i, j));
                    }
                    if exp.len() + 1 >= max_descents {
                        continue;
                    }
                    for &(r, k2) in &pos_steps[k] {
                        let mut e2 = exp.clone();
                        e2.push(r);
                        stack.push((k2, e2));
                    }
                }
            }
        }
    }

    let edges = acc
        .into_iter()
        .map(|((from, to, exp), pairs)| SdEdge {
            from,
            to,
            exp,
            pairs,
        })
        .collect();
    SdGraph::new(occs, edges)
}

/// The pattern graph of an IC (§3): labels between consecutive database
/// atoms. Entry `t` holds the 0-based shared argument-position pairs
/// between `D_t` and `D_{t+1}`.
pub fn pattern_labels(atoms: &[Atom]) -> Vec<BTreeSet<(usize, usize)>> {
    let mut out = Vec::new();
    for w in atoms.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        let mut pairs = BTreeSet::new();
        for (i, ta) in a.args.iter().enumerate() {
            if !ta.is_var() {
                continue;
            }
            for (j, tb) in b.args.iter().enumerate() {
                if ta == tb {
                    pairs.insert((i, j));
                }
            }
        }
        out.push(pairs);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_datalog::analysis::{classify_linear_pred, rectify};
    use semrec_datalog::parser::parse_unit;

    fn sd(src: &str, pred: &str) -> (Program, SdGraph) {
        let p = parse_unit(src).unwrap().program();
        let (p, _) = rectify(&p);
        let info = classify_linear_pred(&p, Pred::new(pred)).unwrap();
        let g = build_sd_graph(&p, &info, 8);
        (p, g)
    }

    #[test]
    fn example_3_2_sd_edge() {
        // works_with → expert with exp <r1> and pair (2,1) [1-based in the
        // paper, (1,0) 0-based here].
        let (_, g) = sd(
            "eval(P, S, T) :- super(P, S, T).
             eval(P, S, T) :- works_with(P, P1), eval(P1, S, T), expert(P, F), field(T, F).",
            "eval",
        );
        assert!(g.distinct_subgoals());
        let ww = g.occs_of(Pred::new("works_with"))[0];
        let ex = g.occs_of(Pred::new("expert"))[0];
        let edge = g
            .edges_from(ww)
            .find(|e| e.to == ex && e.exp == vec![1])
            .expect("works_with -> expert edge");
        assert!(edge.pairs.contains(&(1, 0)));
    }

    #[test]
    fn same_level_edges() {
        let (_, g) = sd(
            "eval(P, S, T) :- super(P, S, T).
             eval(P, S, T) :- works_with(P, P1), eval(P1, S, T), expert(P, F), field(T, F).",
            "eval",
        );
        let ex = g.occs_of(Pred::new("expert"))[0];
        let fi = g.occs_of(Pred::new("field"))[0];
        // expert(P, F) and field(T, F) share F at (1, 1).
        let edge = g
            .edges_from(ex)
            .find(|e| e.to == fi && e.exp.is_empty())
            .expect("same-level edge");
        assert!(edge.pairs.contains(&(1, 1)));
    }

    #[test]
    fn chain_program_descent_edges() {
        // Example 2.1/3.1's r0 (primes as W-vars): a's col 1 (X2) is the
        // call's position 1, which next level exposes as a's col 1 …
        let (_, g) = sd(
            "p(X1, X2, X3, X4, X5, X6) :- e(X1, X2, X3, X4, X5, X6).
             p(X1, X2, X3, X4, X5, X6) :- a(X1, X2, X4), b(W2, X3), c(W3, W4, X5),
                 d(W5, X6), p(X1, W2, W3, W4, W5, W6).",
            "p",
        );
        // b(W2, X3): W2 is call position 1 → next level's X2 → appears in
        // a's column 1 (a(X1, X2, X4)): edge b → a, exp <r1>, pair (0, 1).
        let b = g.occs_of(Pred::new("b"))[0];
        let a = g.occs_of(Pred::new("a"))[0];
        let edge = g
            .edges_from(b)
            .find(|e| e.to == a && e.exp == vec![1])
            .expect("b -> a descent edge");
        assert!(edge.pairs.contains(&(0, 1)));
        // c(W3, W4, X5): W3 = call position 2 → next level's X3 → b's col 1:
        // edge c → b with pair (0, 1).
        let c = g.occs_of(Pred::new("c"))[0];
        let edge = g
            .edges_from(c)
            .find(|e| e.to == b && e.exp == vec![1])
            .expect("c -> b descent edge");
        assert!(edge.pairs.contains(&(0, 1)));
    }

    #[test]
    fn pass_through_multi_level() {
        // X passes down position 0 unchanged; mark(X) at any level shares
        // with the level-0 start(X, Y): edges with exp of increasing length.
        let (_, g) = sd(
            "q(X, Y) :- base(X, Y).
             q(X, Y) :- start(X, Y1), q(X, Y1), mark(Y).",
            "q",
        );
        let st = g.occs_of(Pred::new("start"))[0];
        let edges: Vec<_> = g.edges_from(st).collect();
        // start's col 0 (X) enters call position 0, which is passed through
        // r1 indefinitely; bounded by max_descents = 8.
        assert!(edges.iter().any(|e| e.exp.len() >= 2));
    }

    #[test]
    fn pattern_labels_of_chain_ic() {
        let ic = semrec_datalog::parse_constraints(
            "ic: a(V1, V2, V3), b(V2, V4), c(V4, V5, V6) -> d(V6, V7).",
        )
        .unwrap()
        .remove(0);
        let labels = pattern_labels(&ic.body_atoms);
        assert_eq!(labels.len(), 2);
        assert_eq!(labels[0], BTreeSet::from([(1, 0)]));
        assert_eq!(labels[1], BTreeSet::from([(1, 0)]));
    }

    #[test]
    fn duplicate_subgoals_detected() {
        let (_, g) = sd(
            "p(X) :- e(X).
             p(X) :- a(X, Y), a(Y, X2), p(Y), X2 = Y.",
            "p",
        );
        assert!(!g.distinct_subgoals());
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;
    use semrec_datalog::analysis::{classify_linear_pred, rectify};
    use semrec_datalog::parser::parse_unit;

    #[test]
    fn sd_graph_display_is_readable() {
        let p = parse_unit(
            "eval(P, S, T) :- super(P, S, T).
             eval(P, S, T) :- works_with(P, P1), eval(P1, S, T), expert(P, F), field(T, F).",
        )
        .unwrap()
        .program();
        let (p, _) = rectify(&p);
        let info = classify_linear_pred(&p, Pred::new("eval")).unwrap();
        let g = build_sd_graph(&p, &info, 4);
        let text = g.to_string();
        assert!(text.contains("works_with[r1] -> expert[r1]"), "{text}");
        assert!(text.contains("exp=<r1>"));
    }
}
