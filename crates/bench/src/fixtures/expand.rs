//! The Chakravarthy–Grant–Minker *expanded form* of ICs and the standard
//! (non-free) residue computation against single rules (§2, Example 2.1).
//!
//! In the expanded form no constant appears among the arguments of any
//! database predicate and each argument is a distinct variable; the
//! original constants and variable sharing become explicit equality atoms.
//! Partial subsumption of the expanded IC against a rule body then yields
//! residues that may carry residual equalities and unmatched database
//! atoms — precisely what makes them weaker than §2's free residues for
//! program transformation (the equalities anticipate a specific query).

use semrec_core::residue::ResidueHead;
use semrec_core::subsume::maximal_partial_matches;
use semrec_datalog::atom::Atom;
use semrec_datalog::constraint::{Constraint, IcHead};
use semrec_datalog::literal::{Cmp, CmpOp};
use semrec_datalog::rule::Rule;
use semrec_datalog::subst::Subst;
use semrec_datalog::symbol::Symbol;
use semrec_datalog::term::Term;
use std::fmt;

/// An IC in expanded form.
#[derive(Clone, Debug)]
pub struct ExpandedIc {
    /// Database atoms with all-distinct fresh variable arguments.
    pub atoms: Vec<Atom>,
    /// The introduced equality constraints.
    pub eqs: Vec<Cmp>,
    /// The original evaluable atoms, rewritten over the fresh variables.
    pub cmps: Vec<Cmp>,
    /// The head, rewritten over the fresh variables.
    pub head: IcHead,
}

/// Converts an IC to expanded form.
pub fn expand_ic(ic: &Constraint) -> ExpandedIc {
    let mut first_var_for: std::collections::BTreeMap<Symbol, Term> =
        std::collections::BTreeMap::new();
    let mut eqs: Vec<Cmp> = Vec::new();
    let mut atoms: Vec<Atom> = Vec::new();

    for (ai, a) in ic.body_atoms.iter().enumerate() {
        let mut args = Vec::with_capacity(a.arity());
        for (col, t) in a.args.iter().enumerate() {
            let fresh = Term::Var(Symbol::intern(&format!("V~{ai}~{col}")));
            match t {
                Term::Const(c) => eqs.push(Cmp::new(fresh, CmpOp::Eq, Term::Const(*c))),
                Term::Var(v) => match first_var_for.get(v) {
                    Some(&orig) => eqs.push(Cmp::new(fresh, CmpOp::Eq, orig)),
                    None => {
                        first_var_for.insert(*v, fresh);
                    }
                },
            }
            args.push(fresh);
        }
        atoms.push(Atom::new(a.pred, args));
    }

    // Rewrite the evaluable atoms and head over the representative fresh
    // variables; variables that never occur in a database atom stay.
    let rename = Subst::from_pairs(first_var_for.iter().map(|(&v, &t)| (v, t)));
    ExpandedIc {
        atoms,
        eqs,
        cmps: ic.body_cmps.iter().map(|c| rename.apply_cmp(c)).collect(),
        head: ic.head.apply(&rename),
    }
}

/// A standard (CGM) residue of an IC w.r.t. a single rule.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StdResidue {
    /// Unmatched database atoms remaining in the residue body.
    pub body_atoms: Vec<Atom>,
    /// Residual evaluable conditions (including surviving equalities).
    pub body_cmps: Vec<Cmp>,
    /// The residue head.
    pub head: ResidueHead,
    /// How many IC atoms participated in the subsumption.
    pub matched: usize,
}

impl StdResidue {
    /// A residue is *directly usable* for optimization when its body has no
    /// database atoms and no variable-to-variable equalities left — i.e. it
    /// does not anticipate subgoals of a specific query (§3's motivation
    /// for maximal free subsumption).
    pub fn directly_usable(&self) -> bool {
        self.body_atoms.is_empty()
            && self
                .body_cmps
                .iter()
                .all(|c| !(c.op == CmpOp::Eq && c.lhs.is_var() && c.rhs.is_var()))
    }

    /// True when the residue imposes nothing (tautological head).
    pub fn is_trivial(&self) -> bool {
        match &self.head {
            ResidueHead::Cmp(c) => c.is_trivially_true(),
            _ => false,
        }
    }
}

impl fmt::Display for StdResidue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for a in &self.body_atoms {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{a}")?;
        }
        for c in &self.body_cmps {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{c}")?;
        }
        if first {
            write!(f, "true")?;
        }
        write!(f, " -> {}", self.head)
    }
}

/// Computes the CGM residues of `ic` w.r.t. `rule` via partial subsumption
/// of the expanded form against the rule's database body atoms.
///
/// Every IC variable is first renamed apart with a reserved `` `ic ``
/// marker, so an IC-existential head variable can never *accidentally*
/// coincide with a rule variable (which would let downstream users treat a
/// merely-existentially-implied atom as syntactically implied).
pub fn rule_residues(ic: &Constraint, rule: &Rule) -> Vec<StdResidue> {
    let apart: Subst = ic
        .vars()
        .into_iter()
        .map(|v| (v, Term::Var(Symbol::intern(&format!("{v}`ic")))))
        .collect();
    let ic = ic.apply(&apart);
    let ic = &ic;
    let exp = expand_ic(ic);
    let targets: Vec<&Atom> = rule.body_atoms().collect();
    let mut out = Vec::new();
    for m in maximal_partial_matches(&exp.atoms, &targets, 1) {
        let theta = &m.theta;
        // Instantiate the equalities and simplify: resolve fresh variables
        // that remained unmatched by substituting them away when equated to
        // something known.
        let mut pending: Vec<Cmp> = exp.eqs.iter().map(|e| theta.apply_cmp(e)).collect();
        let mut extra = Subst::new();
        let residual_eqs: Vec<Cmp>;
        let mut infeasible = false;
        loop {
            let mut progressed = false;
            let mut next = Vec::new();
            for e in pending {
                let e = extra.apply_cmp(&e);
                if e.is_trivially_true() {
                    progressed = true;
                } else if e.is_trivially_false() {
                    infeasible = true;
                } else {
                    // Substitute away a free fresh variable if possible.
                    let free = |t: Term| matches!(t, Term::Var(v) if v.as_str().starts_with("V~"));
                    if free(e.lhs) {
                        let Term::Var(v) = e.lhs else { unreachable!() };
                        extra.insert(v, e.rhs);
                        progressed = true;
                    } else if free(e.rhs) {
                        let Term::Var(v) = e.rhs else { unreachable!() };
                        extra.insert(v, e.lhs);
                        progressed = true;
                    } else {
                        next.push(e);
                    }
                }
            }
            pending = next;
            if infeasible || !progressed {
                residual_eqs = pending;
                break;
            }
        }
        if infeasible {
            continue;
        }

        let full = theta.compose(&extra);
        let mut body_cmps: Vec<Cmp> = residual_eqs
            .into_iter()
            .map(|c| full.apply_cmp(&c))
            .collect();
        for c in &exp.cmps {
            let g = full.apply_cmp(c);
            if !g.is_trivially_true() {
                body_cmps.push(g);
            }
        }
        let body_atoms: Vec<Atom> = exp
            .atoms
            .iter()
            .zip(&m.onto)
            .filter(|(_, onto)| onto.is_none())
            .map(|(a, _)| full.apply_atom(a))
            .collect();
        let head = match &exp.head {
            IcHead::None => ResidueHead::Null,
            IcHead::Atom(a) => ResidueHead::Atom(full.apply_atom(a)),
            IcHead::Cmp(c) => {
                let g = full.apply_cmp(c);
                if g.is_trivially_false() {
                    ResidueHead::Null
                } else {
                    ResidueHead::Cmp(g)
                }
            }
        };
        let r = StdResidue {
            body_atoms,
            body_cmps,
            head,
            matched: m.matched_count(),
        };
        if !out.contains(&r) {
            out.push(r);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_datalog::parser::{parse_constraints, parse_rule};

    /// Example 2.1's program rule r0 and IC (primes written as W-variables).
    fn example_2_1() -> (Constraint, Rule) {
        let ic = parse_constraints("ic: a(V1, V2, V3), b(V2, V4), c(V4, V5, V6) -> d(V6, V7).")
            .unwrap()
            .remove(0);
        let rule = parse_rule(
            "p(X1, X2, X3, X4, X5, X6) :- a(X1, X2, X4), b(W2, X3), c(W3, W4, X5),
             d(W5, X6), p(X1, W2, W3, W4, W5, W6).",
        )
        .unwrap();
        (ic, rule)
    }

    #[test]
    fn expanded_form_shape() {
        let (ic, _) = example_2_1();
        let exp = expand_ic(&ic);
        assert_eq!(exp.atoms.len(), 3);
        // All arguments distinct variables.
        let mut seen = std::collections::BTreeSet::new();
        for a in &exp.atoms {
            for t in &a.args {
                assert!(t.is_var());
                assert!(seen.insert(*t), "argument {t} repeated");
            }
        }
        // V2 and V4 each shared once → two equalities.
        assert_eq!(exp.eqs.len(), 2);
    }

    #[test]
    fn expanded_form_constants_become_equalities() {
        let ic = parse_constraints("ic: boss(E, B, executive) -> experienced(B).")
            .unwrap()
            .remove(0);
        let exp = expand_ic(&ic);
        assert_eq!(exp.eqs.len(), 1);
        assert_eq!(exp.eqs[0].op, CmpOp::Eq);
        assert!(exp.eqs[0].rhs.as_const().is_some());
    }

    #[test]
    fn example_2_1_standard_residue() {
        // The paper: partial subsumption of ic against r0 yields the residue
        // W2 = X2, W3 = X3 -> d(X5, V7) (their X2'=X2, X3'=X3 -> d(X5,X6)).
        let (ic, rule) = example_2_1();
        let residues = rule_residues(&ic, &rule);
        let best = residues
            .iter()
            .max_by_key(|r| r.matched)
            .expect("some residue");
        assert_eq!(best.matched, 3);
        assert!(best.body_atoms.is_empty());
        assert_eq!(best.body_cmps.len(), 2);
        let conds: Vec<String> = best.body_cmps.iter().map(|c| c.to_string()).collect();
        assert!(
            conds.contains(&"W2 = X2".to_string()) || conds.contains(&"X2 = W2".to_string()),
            "conds: {conds:?}"
        );
        let ResidueHead::Atom(h) = &best.head else {
            panic!("expected atom head")
        };
        assert_eq!(h.pred.name(), "d");
        assert_eq!(h.args[0], Term::var("X5"));
        // Not directly usable: it carries var-var equalities.
        assert!(!best.directly_usable());
    }

    #[test]
    fn example_3_2_standard_residue_is_weak() {
        // ic1 against r1: the CGM residue is P = P1 -> expert(P, F1-ish) —
        // trivial in context (paper, Example 3.2). It must not be directly
        // usable.
        let ic = parse_constraints("ic: works_with(P2, P1), expert(P1, F1) -> expert(P2, F1).")
            .unwrap()
            .remove(0);
        let rule = parse_rule(
            "eval(P, S, T) :- works_with(P, P1), eval(P1, S, T), expert(P, F), field(T, F).",
        )
        .unwrap();
        let residues = rule_residues(&ic, &rule);
        let full: Vec<&StdResidue> = residues.iter().filter(|r| r.matched == 2).collect();
        assert!(!full.is_empty());
        assert!(full.iter().all(|r| !r.directly_usable()));
    }

    #[test]
    fn unmatched_atoms_stay_in_body() {
        let ic = parse_constraints("ic: a(X, Y), z(Y, W) -> d(W).")
            .unwrap()
            .remove(0);
        let rule = parse_rule("p(X1) :- a(X1, X2), b(X2, X1).").unwrap();
        let residues = rule_residues(&ic, &rule);
        let best = residues.iter().max_by_key(|r| r.matched).unwrap();
        assert_eq!(best.matched, 1);
        assert_eq!(best.body_atoms.len(), 1);
        assert_eq!(best.body_atoms[0].pred.name(), "z");
        // z's first argument was instantiated to the rule's X2.
        assert_eq!(best.body_atoms[0].args[0], Term::var("X2"));
    }

    #[test]
    fn denial_gives_null_residue() {
        let ic = parse_constraints("ic: a(X, Y), X > 100 -> .")
            .unwrap()
            .remove(0);
        let rule = parse_rule("p(U, V) :- a(U, V), b(V, U).").unwrap();
        let residues = rule_residues(&ic, &rule);
        let best = residues.iter().max_by_key(|r| r.matched).unwrap();
        assert_eq!(best.head, ResidueHead::Null);
        assert_eq!(best.body_cmps.len(), 1);
        assert_eq!(best.body_cmps[0].to_string(), "U > 100");
    }
}
