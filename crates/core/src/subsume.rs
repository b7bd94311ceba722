//! Clause subsumption: full, partial, and *free* (§2).
//!
//! A clause `C` subsumes `D` if a substitution θ over `C`'s variables maps
//! `C` to a subclause of `D`. *Partial* subsumption maps a subclause of `C`
//! into `D`. *Free* subsumption (Definition 2.1) performs the test on the
//! clauses as written, without first converting the IC to expanded form —
//! so the subsuming substitution maps IC variables directly onto the target
//! clause's terms and no equality constraints are introduced.

use semrec_datalog::atom::Atom;
use semrec_datalog::subst::Subst;
use semrec_datalog::unify::match_atom;

/// One way of (freely) subsuming a set of pattern atoms into target atoms.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Match {
    /// The subsuming substitution: pattern variables ↦ target terms.
    pub theta: Subst,
    /// For each pattern atom, the index of the target atom it mapped onto
    /// (`None` for unmatched atoms in partial matches).
    pub onto: Vec<Option<usize>>,
}

impl Match {
    /// Number of matched pattern atoms.
    pub fn matched_count(&self) -> usize {
        self.onto.iter().filter(|o| o.is_some()).count()
    }

    /// True if every pattern atom was matched ("maximal" subsumption in the
    /// §3 sense when the patterns are an IC's database atoms).
    pub fn is_total(&self) -> bool {
        self.onto.iter().all(|o| o.is_some())
    }
}

/// All *total* free subsumption matches of `patterns` into `targets`:
/// consistent substitutions θ with `patternsᵢ·θ = targets[onto[i]]` for
/// every `i`. Different pattern atoms may map onto the same target.
pub fn total_matches(patterns: &[Atom], targets: &[&Atom]) -> Vec<Match> {
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

/// All *maximal partial* matches: matches where no additional pattern atom
/// could be matched consistently. Returns only matches with at least
/// `min_matched` matched atoms.
pub fn maximal_partial_matches(
    patterns: &[Atom],
    targets: &[&Atom],
    min_matched: usize,
) -> Vec<Match> {
    let mut all: Vec<Match> = Vec::new();
    let mut onto: Vec<Option<usize>> = vec![None; patterns.len()];
    go_partial(patterns, targets, 0, &Subst::new(), &mut onto, &mut all);
    // Keep only maximal ones (no other match whose matched set strictly
    // contains this one's with the same mappings on the shared part — we
    // use the simpler criterion of maximal matched *count* per matched-set
    // pattern, which is what residue generation needs).
    all.retain(|m| m.matched_count() >= min_matched.max(1));
    let mut maximal: Vec<Match> = Vec::new();
    for m in &all {
        let dominated = all.iter().any(|other| {
            other.matched_count() > m.matched_count()
                && m.onto
                    .iter()
                    .zip(&other.onto)
                    .all(|(a, b)| a.is_none() || a == b)
        });
        if !dominated && !maximal.contains(m) {
            maximal.push(m.clone());
        }
    }
    maximal
}

fn go_partial(
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
    // Option 1: leave pattern i unmatched.
    onto[i] = None;
    go_partial(patterns, targets, i + 1, theta, onto, out);
    // Option 2: match it against each compatible target.
    for (j, target) in targets.iter().enumerate() {
        let mut t = theta.clone();
        if match_atom(&mut t, &patterns[i], target) {
            onto[i] = Some(j);
            go_partial(patterns, targets, i + 1, &t, onto, out);
            onto[i] = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_datalog::parser::parse_atom;
    use semrec_datalog::term::Term;

    fn a(s: &str) -> Atom {
        parse_atom(s).unwrap()
    }

    #[test]
    fn simple_total_match() {
        let pats = vec![a("works_with(P2, P1)"), a("expert(P1, F1)")];
        let t1 = a("works_with(P, Q1)");
        let t2 = a("expert(Q1, F2)");
        let targets = vec![&t1, &t2];
        let ms = total_matches(&pats, &targets);
        assert_eq!(ms.len(), 1);
        let theta = &ms[0].theta;
        assert_eq!(theta.apply_term(Term::var("P2")), Term::var("P"));
        assert_eq!(theta.apply_term(Term::var("P1")), Term::var("Q1"));
        assert_eq!(theta.apply_term(Term::var("F1")), Term::var("F2"));
    }

    #[test]
    fn inconsistent_sharing_fails() {
        // b's first arg must equal a's second, but targets break the chain.
        let pats = vec![a("a(X, Y)"), a("b(Y, Z)")];
        let t1 = a("a(U, V)");
        let t2 = a("b(W, V)");
        let targets = vec![&t1, &t2];
        assert!(total_matches(&pats, &targets).is_empty());
    }

    #[test]
    fn multiple_total_matches() {
        let pats = vec![a("e(X, Y)")];
        let t1 = a("e(A, B)");
        let t2 = a("e(B, C)");
        let targets = vec![&t1, &t2];
        assert_eq!(total_matches(&pats, &targets).len(), 2);
    }

    #[test]
    fn constants_must_agree() {
        let pats = vec![a("r(X, executive)")];
        let t1 = a("r(U, manager)");
        let t2 = a("r(U, executive)");
        let targets = vec![&t1, &t2];
        let ms = total_matches(&pats, &targets);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].onto[0], Some(1));
    }

    #[test]
    fn pattern_constant_matches_target_var_never() {
        // Free subsumption is one-way: pattern constants only match equal
        // constants, never target variables.
        let pats = vec![a("r(3)")];
        let t = a("r(X)");
        let targets = vec![&t];
        assert!(total_matches(&pats, &targets).is_empty());
    }

    #[test]
    fn partial_matches_are_maximal() {
        let pats = vec![a("a(X, Y)"), a("b(Y, Z)"), a("c(Z, W)")];
        let t1 = a("a(U, V)");
        let t2 = a("b(V, W1)");
        let targets = vec![&t1, &t2];
        let ms = maximal_partial_matches(&pats, &targets, 1);
        // The maximal match covers a and b; c stays unmatched. Submatches
        // (only a, only b) are dominated and dropped.
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].matched_count(), 2);
        assert_eq!(ms[0].onto, vec![Some(0), Some(1), None]);
    }

    #[test]
    fn non_injective_mapping_allowed() {
        let pats = vec![a("e(X, Y)"), a("e(Y, Z)")];
        let t = a("e(A, A)");
        let targets = vec![&t];
        // X=A, Y=A, Z=A: both patterns onto the single target.
        let ms = total_matches(&pats, &targets);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].onto, vec![Some(0), Some(0)]);
    }
}
