//! Bundled validation of the paper's assumptions (§1):
//!
//! 1. all rules are range restricted;
//! 2. all rules and ICs are connected;
//! 3. only linear recursive programs, no mutual recursion;
//! 4. ICs involve EDB relations (and evaluable predicates) only — and have
//!    the §3 chain shape.

use super::{connect, recursion, safety};
use crate::atom::{Atom, Pred};
use crate::constraint::{Constraint, IcHead};
use crate::error::Error;
use crate::program::Program;
use std::collections::BTreeMap;

/// The diagnostic label of a constraint: its name, else its text.
fn label(ic: &Constraint) -> String {
    ic.name
        .map(|n| n.as_str().to_owned())
        .unwrap_or_else(|| ic.to_string())
}

/// Checks that every predicate has one arity across the rules, the
/// constraints (body and head atoms) and the ground `facts`, and returns
/// it. A constraint or fact atom that disagrees could never match a row,
/// so it is an error naming the offender, not something to carry along.
/// Predicates mentioned only by constraints are legal as long as the
/// constraints agree among themselves.
pub fn check_arities(
    program: &Program,
    ics: &[Constraint],
    facts: &[Atom],
) -> Result<BTreeMap<Pred, usize>, Error> {
    let mut arities = program.arities().map_err(Error::analysis)?;
    // For predicates no rule mentions: the constraint that fixed the arity.
    let mut fixed_by: BTreeMap<Pred, &Constraint> = BTreeMap::new();
    for ic in ics {
        let head = match &ic.head {
            IcHead::Atom(a) => Some(a),
            _ => None,
        };
        for a in ic.body_atoms.iter().chain(head) {
            let n = *arities.entry(a.pred).or_insert_with(|| {
                fixed_by.insert(a.pred, ic);
                a.arity()
            });
            if n != a.arity() {
                let whose = match fixed_by.get(&a.pred) {
                    Some(first) => format!("constraint {}", label(first)),
                    None => "the program's rules".to_owned(),
                };
                return Err(Error::analysis(format!(
                    "constraint {} uses {} with arity {}, but {} has arity {n} in {whose}",
                    label(ic),
                    a.pred,
                    a.arity(),
                    a.pred,
                )));
            }
        }
    }
    for f in facts {
        let n = *arities.entry(f.pred).or_insert(f.arity());
        if n != f.arity() {
            return Err(Error::analysis(format!(
                "fact {f} has arity {}, but {} has arity {n} elsewhere in the source",
                f.arity(),
                f.pred
            )));
        }
    }
    Ok(arities)
}

/// Validates `program` and `ics` against the paper's assumption bundle.
/// Returns the recursion classification on success.
pub fn validate(
    program: &Program,
    ics: &[Constraint],
) -> Result<Vec<recursion::RecursionInfo>, Error> {
    check_arities(program, ics, &[])?;

    for (i, r) in program.rules.iter().enumerate() {
        if r.body.iter().any(|l| l.as_neg().is_some()) {
            return Err(Error::analysis(format!(
                "rule {i} (`{r}`) uses negation, which is outside the paper's class"
            )));
        }
        if !r.is_range_restricted() {
            return Err(Error::analysis(format!(
                "rule {i} (`{r}`) is not range restricted"
            )));
        }
        if !connect::rule_is_connected(r) {
            return Err(Error::analysis(format!(
                "rule {i} (`{r}`) is not connected"
            )));
        }
    }
    safety::check_program_safety(program)?;

    let infos = recursion::classify_linear(program)?;

    let idb = program.idb_preds();
    for ic in ics {
        let label = label(ic);
        if !connect::constraint_is_connected(ic) {
            return Err(Error::analysis(format!(
                "constraint {label} is not connected"
            )));
        }
        for a in &ic.body_atoms {
            if idb.contains(&a.pred) {
                return Err(Error::analysis(format!(
                    "constraint {label} mentions IDB predicate {} in its body",
                    a.pred
                )));
            }
        }
        if let IcHead::Atom(a) = &ic.head {
            if idb.contains(&a.pred) {
                return Err(Error::analysis(format!(
                    "constraint {label} has IDB predicate {} in its head",
                    a.pred
                )));
            }
        }
        if !ic.is_chain() {
            return Err(Error::analysis(format!(
                "constraint {label} does not have the chain-connected shape of §3"
            )));
        }
    }
    Ok(infos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_unit;

    #[test]
    fn accepts_paper_example() {
        // Example 3.2 program and IC.
        let unit = parse_unit(
            "eval(P, S, T) :- super(P, S, T).
             eval(P, S, T) :- works_with(P, P1), eval(P1, S, T), expert(P, F), field(T, F).
             ic ic1: works_with(P2, P1), expert(P1, F1) -> expert(P2, F1).",
        )
        .unwrap();
        let infos = validate(&unit.program(), &unit.constraints).unwrap();
        assert_eq!(infos.len(), 1);
    }

    #[test]
    fn rejects_idb_in_constraint() {
        let unit = parse_unit(
            "p(X) :- e(X).
             ic: p(X) -> .",
        )
        .unwrap();
        let err = validate(&unit.program(), &unit.constraints).unwrap_err();
        assert!(err.to_string().contains("IDB"));
    }

    #[test]
    fn rejects_unrestricted_rule() {
        let unit = parse_unit("p(X, Y) :- e(X).").unwrap();
        assert!(validate(&unit.program(), &[]).is_err());
    }

    #[test]
    fn rejects_non_chain_ic() {
        let unit = parse_unit(
            "p(X) :- e(X).
             ic: a(X,Y), b(Y,Z), c(Z,X) -> .",
        )
        .unwrap();
        let err = validate(&unit.program(), &unit.constraints).unwrap_err();
        assert!(err.to_string().contains("chain"));
    }
}

#[cfg(test)]
mod negation_tests {
    use super::*;
    use crate::parser::parse_unit;

    #[test]
    fn rejects_negation() {
        let unit = parse_unit("p(X) :- e(X, Y), !bad(X).").unwrap();
        let err = validate(&unit.program(), &[]).unwrap_err();
        assert!(err.to_string().contains("negation"));
    }
}
