//! Predicate dependency graph and strongly connected components.

use crate::atom::Pred;
use crate::program::Program;
use std::collections::{BTreeMap, BTreeSet};

/// The predicate dependency graph of a program: an edge `p → q` exists when
/// `q` occurs in the body of a rule whose head predicate is `p`.
#[derive(Clone, Debug)]
pub struct DepGraph {
    /// All predicates, sorted.
    pub preds: Vec<Pred>,
    /// Adjacency: `edges[p]` = body predicates of rules for `p`.
    pub edges: BTreeMap<Pred, BTreeSet<Pred>>,
}

impl DepGraph {
    /// Builds the dependency graph of `program`.
    pub fn new(program: &Program) -> DepGraph {
        let mut preds: BTreeSet<Pred> = BTreeSet::new();
        let mut edges: BTreeMap<Pred, BTreeSet<Pred>> = BTreeMap::new();
        for r in &program.rules {
            preds.insert(r.head.pred);
            let entry = edges.entry(r.head.pred).or_default();
            for a in r.body_atoms() {
                preds.insert(a.pred);
                entry.insert(a.pred);
            }
        }
        DepGraph {
            preds: preds.into_iter().collect(),
            edges,
        }
    }

    /// Successors of `p` (empty for EDB predicates).
    pub fn succ(&self, p: Pred) -> impl Iterator<Item = Pred> + '_ {
        self.edges.get(&p).into_iter().flatten().copied()
    }

    /// Strongly connected components in reverse topological order
    /// (callees before callers), computed with an iterative Tarjan.
    pub fn sccs(&self) -> Vec<Vec<Pred>> {
        let index_of: BTreeMap<Pred, usize> = self
            .preds
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i))
            .collect();
        let n = self.preds.len();
        let adj: Vec<Vec<usize>> = self
            .preds
            .iter()
            .map(|&p| self.succ(p).map(|q| index_of[&q]).collect())
            .collect();

        const UNVISITED: usize = usize::MAX;
        let mut index = vec![UNVISITED; n];
        let mut lowlink = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut out: Vec<Vec<Pred>> = Vec::new();

        // Explicit DFS stack: (node, next child position).
        for start in 0..n {
            if index[start] != UNVISITED {
                continue;
            }
            let mut call: Vec<(usize, usize)> = vec![(start, 0)];
            while let Some(&mut (v, ref mut ci)) = call.last_mut() {
                if *ci == 0 {
                    index[v] = next_index;
                    lowlink[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                if *ci < adj[v].len() {
                    let w = adj[v][*ci];
                    *ci += 1;
                    if index[w] == UNVISITED {
                        call.push((w, 0));
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                } else {
                    call.pop();
                    if let Some(&(parent, _)) = call.last() {
                        lowlink[parent] = lowlink[parent].min(lowlink[v]);
                    }
                    if lowlink[v] == index[v] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            comp.push(self.preds[w]);
                            if w == v {
                                break;
                            }
                        }
                        comp.sort();
                        out.push(comp);
                    }
                }
            }
        }
        out
    }

    /// The undirected connected component of `p` (used by the §5 notion of
    /// *reachability* for intelligent query answering).
    pub fn undirected_component(&self, p: Pred) -> BTreeSet<Pred> {
        let mut undirected: BTreeMap<Pred, BTreeSet<Pred>> = BTreeMap::new();
        for (&h, bs) in &self.edges {
            for &b in bs {
                undirected.entry(h).or_default().insert(b);
                undirected.entry(b).or_default().insert(h);
            }
        }
        let mut seen = BTreeSet::new();
        let mut work = vec![p];
        while let Some(q) = work.pop() {
            if !seen.insert(q) {
                continue;
            }
            if let Some(next) = undirected.get(&q) {
                work.extend(next.iter().copied());
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_unit;

    fn graph(src: &str) -> DepGraph {
        DepGraph::new(&parse_unit(src).unwrap().program())
    }

    #[test]
    fn simple_recursion() {
        let g = graph("p(X,Y) :- e(X,Y). p(X,Y) :- e(X,Z), p(Z,Y).");
        let p = Pred::new("p");
        assert!(g.succ(p).any(|q| q == p));
        assert_eq!(g.succ(Pred::new("e")).count(), 0);
        assert!(g.sccs().iter().all(|c| c.len() == 1));
    }

    #[test]
    fn mutual_recursion_scc() {
        let g = graph(
            "even(X) :- zero(X). even(X) :- succ(Y,X), odd(Y). odd(X) :- succ(Y,X), even(X).",
        );
        let sccs = g.sccs();
        let big: Vec<_> = sccs.iter().filter(|c| c.len() > 1).collect();
        assert_eq!(big.len(), 1);
        assert_eq!(big[0].len(), 2);
        assert!(big[0].contains(&Pred::new("even")) && big[0].contains(&Pred::new("odd")));
    }

    #[test]
    fn sccs_in_reverse_topological_order() {
        let g = graph("a(X) :- b(X). b(X) :- c(X).");
        let sccs = g.sccs();
        let pos = |p: &str| sccs.iter().position(|c| c.contains(&Pred::new(p))).unwrap();
        assert!(pos("c") < pos("b"));
        assert!(pos("b") < pos("a"));
    }

    #[test]
    fn undirected_component() {
        let g = graph("a(X) :- b(X). c(X) :- d(X).");
        let comp = g.undirected_component(Pred::new("a"));
        assert!(comp.contains(&Pred::new("b")));
        assert!(!comp.contains(&Pred::new("c")));
    }
}
