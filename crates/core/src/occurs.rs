//! Occurrence index over integrity constraints: which constraints can
//! possibly apply to a given set of body predicates.
//!
//! A constraint yields a residue against a clause only if *every* one of
//! its database atoms is subsumed by an atom of that clause. Both
//! detection methods end in that total subsumption (Step 4 of
//! Algorithm 3.1), and the SD-graph walk that precedes it visits one
//! subgoal occurrence per constraint atom — so a constraint whose
//! *signature* (the set of its body predicates) is not contained in the
//! clause's predicates can be skipped without looking at it. A clause is
//! a block's subgoals: those of a recursive predicate's rules, or of one
//! non-recursive rule.
//!
//! The index lists each constraint under one predicate of its signature —
//! the one the fewest constraints mention, as backward subsumption scans
//! the shortest occurrence list — so finding the candidates for a clause
//! costs the length of the lists of the clause's own predicates, not a
//! pass over all constraints, and a predicate every clause uses does not
//! drag in the constraints that also need a rarer one. This is the
//! occurrence-list / signature early-exit idiom of SAT subsumption
//! checkers.

use semrec_datalog::atom::Pred;
use semrec_datalog::constraint::Constraint;
use std::collections::{BTreeMap, BTreeSet};

/// True when `ic` can match inside a clause whose database atoms range
/// over `preds`: it has database atoms, and all their predicates are
/// among `preds`.
pub fn may_match(ic: &Constraint, preds: &BTreeSet<Pred>) -> bool {
    !ic.body_atoms.is_empty() && ic.body_atoms.iter().all(|a| preds.contains(&a.pred))
}

/// Constraints indexed by body predicate.
pub struct IcIndex<'a> {
    ics: &'a [Constraint],
    /// Constraint indices, ascending, each under the rarest of its body
    /// predicates.
    watched: BTreeMap<Pred, Vec<usize>>,
}

impl<'a> IcIndex<'a> {
    /// Indexes `ics`, reading each constraint's atoms in place: an atom
    /// counts for its predicate unless an earlier atom of the same
    /// constraint has it.
    pub fn new(ics: &'a [Constraint]) -> IcIndex<'a> {
        let signature = |ic: &'a Constraint| {
            let atoms = ic.body_atoms.iter().enumerate();
            atoms
                .filter(|&(i, a)| ic.body_atoms[..i].iter().all(|b| b.pred != a.pred))
                .map(|(_, a)| a.pred)
        };
        let mut mentions: BTreeMap<Pred, usize> = BTreeMap::new();
        for p in ics.iter().flat_map(signature) {
            *mentions.entry(p).or_default() += 1;
        }
        let mut watched: BTreeMap<Pred, Vec<usize>> = BTreeMap::new();
        for (i, ic) in ics.iter().enumerate() {
            if let Some(rarest) = signature(ic).min_by_key(|p| (mentions[p], *p)) {
                watched.entry(rarest).or_default().push(i);
            }
        }
        IcIndex { ics, watched }
    }

    /// The constraints that [`may_match`] `preds`, as indices into the
    /// indexed slice, in constraint order.
    pub fn candidate_ids(&self, preds: &BTreeSet<Pred>) -> Vec<usize> {
        let mut hits: Vec<usize> = preds
            .iter()
            .filter_map(|p| self.watched.get(p))
            .flatten()
            .copied()
            .filter(|&i| may_match(&self.ics[i], preds))
            .collect();
        hits.sort_unstable();
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_datalog::parse_constraints;

    fn preds(names: &[&str]) -> BTreeSet<Pred> {
        names.iter().map(|n| Pred::new(n)).collect()
    }

    #[test]
    fn candidates_need_every_body_predicate_and_keep_constraint_order() {
        let ics = parse_constraints(
            "ic c0: b(X, Y), a(Y, Z) -> .
             ic c1: a(X, Y), z(Y, W) -> .
             ic c2: a(X, Y) -> d(Y).
             ic c3: b(X, Y), b(Y, Z) -> a(X, Z).
             ic c4: q(X) -> a(X, X).",
        )
        .unwrap();
        let index = IcIndex::new(&ics);
        let names = |ps: &[&str]| -> Vec<String> {
            index
                .candidate_ids(&preds(ps))
                .iter()
                .map(|&i| ics[i].name.unwrap().as_str().to_owned())
                .collect()
        };
        // c1 shares `a` but also needs `z`; c4's head predicate is no
        // reason to try it.
        assert_eq!(names(&["a", "b"]), ["c0", "c2", "c3"]);
        assert_eq!(names(&["a"]), ["c2"]);
        assert_eq!(names(&["b", "d"]), ["c3"]);
        assert!(names(&["d", "w"]).is_empty());
    }

    #[test]
    fn candidates_agree_with_may_match_on_every_subset() {
        let ics = parse_constraints(
            "ic: a(X, Y), b(Y, Z), c(Z, W) -> .
             ic: c(X, Y), a(Y, Z) -> .
             ic: b(X, Y) -> c(Y, Z).
             ic: a(X, Y), a(Y, Z) -> b(X, Z).",
        )
        .unwrap();
        let index = IcIndex::new(&ics);
        let all = ["a", "b", "c"];
        for mask in 0..8u32 {
            let subset: Vec<&str> = (0..3)
                .filter(|b| mask & (1 << b) != 0)
                .map(|b| all[b])
                .collect();
            let ps = preds(&subset);
            let expected: Vec<usize> = (0..ics.len())
                .filter(|&i| may_match(&ics[i], &ps))
                .collect();
            assert_eq!(index.candidate_ids(&ps), expected, "subset {subset:?}");
        }
    }

    /// A predicate every constraint mentions is nobody's list: each
    /// constraint hangs under its own rarer predicate, so a clause over
    /// the hub and one spoke looks at one constraint, not at all of them.
    #[test]
    fn a_hub_predicate_does_not_collect_every_constraint() {
        let src: String = (0..50)
            .map(|i| format!("ic s{i}: hub(X, Y), spoke{i}(Y, Z) -> .\n"))
            .collect();
        let ics = parse_constraints(&src).unwrap();
        let index = IcIndex::new(&ics);
        assert!(index.watched.values().all(|list| list.len() == 1));
        let found = index.candidate_ids(&preds(&["hub", "spoke7"]));
        assert_eq!(found.len(), 1);
        assert_eq!(ics[found[0]].name.unwrap().as_str(), "s7");
    }
}
