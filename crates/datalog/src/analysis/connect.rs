//! Connectivity of rule and constraint bodies.
//!
//! The paper (§1, assumption 2) requires rules and ICs to be *connected*:
//! "for any two subgoals in the body, either they share a variable, or are
//! both connected to a common subgoal".

use crate::atom::Atom;
use crate::constraint::Constraint;
use crate::literal::Cmp;
use crate::rule::Rule;
use crate::symbol::Symbol;

/// Union-find over literal indices `0..n`, by shared variables; `vars(i)`
/// lists literal `i`'s variables (repeats allowed). Compares the lists
/// directly: no set is built per literal.
fn connected<I: Iterator<Item = Symbol>>(n: usize, vars: impl Fn(usize) -> I) -> bool {
    // Ground literals share no variables with anything; treat them as
    // connected (they constrain nothing, and the paper's examples never
    // contain them).
    let live = |i: usize| vars(i).next().is_some();
    if (0..n).filter(|&i| live(i)).nth(1).is_none() {
        return true;
    }
    // Bodies are short: their union-find lives on the stack.
    let (mut stack, mut heap) = ([0usize; 16], vec![0; if n > 16 { n } else { 0 }]);
    let parent = heap.get_mut(..n).unwrap_or_else(|| &mut stack[..n]);
    for (i, p) in parent.iter_mut().enumerate() {
        *p = i;
    }
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if vars(i).any(|v| vars(j).any(|w| w == v)) {
                let (a, b) = (find(parent, i), find(parent, j));
                parent[a] = b;
            }
        }
    }
    let mut roots = (0..n).filter(|&i| live(i)).map(|i| find(parent, i));
    let root = roots.next();
    roots.all(|r| Some(r) == root)
}

/// True if the rule body is connected (facts and single-literal bodies are
/// trivially connected).
pub fn rule_is_connected(rule: &Rule) -> bool {
    connected(rule.body.len(), |i| rule.body[i].var_iter())
}

/// True if the constraint body (database atoms and comparisons together)
/// is connected.
pub fn constraint_is_connected(ic: &Constraint) -> bool {
    let k = ic.body_atoms.len();
    connected(k + ic.body_cmps.len(), |i| {
        let cmp = i.checked_sub(k).and_then(|j| ic.body_cmps.get(j));
        let atom_vars = ic.body_atoms.get(i).into_iter().flat_map(Atom::vars);
        atom_vars.chain(cmp.into_iter().flat_map(Cmp::vars))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_constraints, parse_rule};

    #[test]
    fn connected_rule() {
        let r = parse_rule("p(X,Y) :- a(X,Z), b(Z,W), c(W,Y).").unwrap();
        assert!(rule_is_connected(&r));
    }

    #[test]
    fn disconnected_rule() {
        let r = parse_rule("p(X,Y) :- a(X), b(Y).").unwrap();
        assert!(!rule_is_connected(&r));
    }

    #[test]
    fn indirectly_connected_via_cmp() {
        let r = parse_rule("p(X,Y) :- a(X), b(Y), X < Y.").unwrap();
        assert!(rule_is_connected(&r));
    }

    #[test]
    fn connected_constraint() {
        let ics = parse_constraints("ic: a(X,Y), b(Y,Z), Z > 5 -> c(Z).").unwrap();
        assert!(constraint_is_connected(&ics[0]));
        let ics = parse_constraints("ic: a(X), b(Y) -> .").unwrap();
        assert!(!constraint_is_connected(&ics[0]));
    }

    #[test]
    fn trivial_cases() {
        assert!(rule_is_connected(&parse_rule("p(X) :- a(X).").unwrap()));
        assert!(rule_is_connected(&parse_rule("p(1).").unwrap()));
    }
}
