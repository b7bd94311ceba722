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
use semrec_datalog::symbol::Symbol;
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
}

/// The working place of a backtracking match: one substitution, bound in
/// place, and the trail that undoes it. A caller that keeps one from
/// search to search allocates nothing once its buffers have grown.
#[derive(Default)]
pub struct Search {
    /// The substitution under construction.
    theta: Subst,
    /// The variables `theta` bound, oldest first, for [`Subst::undo`].
    trail: Vec<Symbol>,
    /// The target index of each matched pattern.
    onto: Vec<usize>,
}

impl Search {
    /// Hands `each`, in search order, every *total* free subsumption match
    /// of `patterns` into the indexed atoms `targets()` lists: a consistent
    /// θ with `patternsᵢ·θ` the target of index `onto[i]` for every `i`.
    /// Different pattern atoms may map onto the same target. `each`
    /// clones what it keeps: θ is undone on backtrack.
    pub fn total_matches<'t, I>(
        &mut self,
        patterns: &[Atom],
        targets: impl Fn() -> I,
        mut each: impl FnMut(&Subst, &[usize]),
    ) where
        I: Iterator<Item = (usize, &'t Atom)>,
    {
        self.go_total(patterns, &targets, &mut each);
    }

    fn go_total<'t, I: Iterator<Item = (usize, &'t Atom)>>(
        &mut self,
        patterns: &[Atom],
        targets: &impl Fn() -> I,
        each: &mut impl FnMut(&Subst, &[usize]),
    ) {
        let Some(pattern) = patterns.get(self.onto.len()) else {
            each(&self.theta, &self.onto);
            return;
        };
        for (j, target) in targets() {
            if target.pred != pattern.pred {
                continue;
            }
            let mark = self.trail.len();
            if match_atom(&mut self.theta, pattern, target, &mut self.trail) {
                self.onto.push(j);
                self.go_total(patterns, targets, each);
                self.onto.pop();
            }
            self.theta.undo(&mut self.trail, mark);
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
    let (mut theta, mut trail) = (Subst::new(), Vec::new());
    go_partial(
        patterns, targets, 0, &mut theta, &mut trail, &mut onto, &mut all,
    );
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
    theta: &mut Subst,
    trail: &mut Vec<Symbol>,
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
    go_partial(patterns, targets, i + 1, theta, trail, onto, out);
    // Option 2: match it against each compatible target.
    for (j, target) in targets.iter().enumerate() {
        let mark = trail.len();
        if match_atom(theta, &patterns[i], target, trail) {
            onto[i] = Some(j);
            go_partial(patterns, targets, i + 1, theta, trail, onto, out);
            onto[i] = None;
        }
        theta.undo(trail, mark);
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

    /// The total matches, collected.
    fn totals(patterns: &[Atom], targets: &[&Atom]) -> Vec<Match> {
        let mut out = Vec::new();
        let targets = || targets.iter().copied().enumerate();
        Search::default().total_matches(patterns, targets, |theta, onto| {
            out.push(Match {
                theta: theta.clone(),
                onto: onto.iter().copied().map(Some).collect(),
            })
        });
        out
    }

    #[test]
    fn simple_total_match() {
        let pats = vec![a("works_with(P2, P1)"), a("expert(P1, F1)")];
        let t1 = a("works_with(P, Q1)");
        let t2 = a("expert(Q1, F2)");
        let targets = vec![&t1, &t2];
        let ms = totals(&pats, &targets);
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
        assert!(totals(&pats, &targets).is_empty());
    }

    #[test]
    fn multiple_total_matches() {
        let pats = vec![a("e(X, Y)")];
        let t1 = a("e(A, B)");
        let t2 = a("e(B, C)");
        let targets = vec![&t1, &t2];
        assert_eq!(totals(&pats, &targets).len(), 2);
    }

    #[test]
    fn constants_must_agree() {
        let pats = vec![a("r(X, executive)")];
        let t1 = a("r(U, manager)");
        let t2 = a("r(U, executive)");
        let targets = vec![&t1, &t2];
        let ms = totals(&pats, &targets);
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
        assert!(totals(&pats, &targets).is_empty());
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
        let ms = totals(&pats, &targets);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].onto, vec![Some(0), Some(0)]);
    }
}
