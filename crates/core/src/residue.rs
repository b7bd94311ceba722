//! Residues of integrity constraints w.r.t. expansion sequences, their
//! classification (Definition 4.1) and usefulness (§3).

use crate::hom::{bind, extend_hom};
use crate::sequence::Unfolding;
use crate::subsume::{total_matches, Match};
use semrec_datalog::atom::Atom;
use semrec_datalog::constraint::{Constraint, IcHead};
use semrec_datalog::literal::Cmp;
use semrec_datalog::subst::Subst;
use semrec_datalog::symbol::Symbol;
use semrec_datalog::term::Term;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// The consequent of a residue.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ResidueHead {
    /// `E1, …, Em → ⊥` (null residue: the sequence yields nothing when the
    /// body holds).
    Null,
    /// A database atom.
    Atom(Atom),
    /// An evaluable comparison.
    Cmp(Cmp),
}

impl fmt::Display for ResidueHead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResidueHead::Null => write!(f, "false"),
            ResidueHead::Atom(a) => write!(f, "{a}"),
            ResidueHead::Cmp(c) => write!(f, "{c}"),
        }
    }
}

/// Where a residue's head atom occurs inside the unfolding, making the
/// residue *useful* for its sequence (§3): the atom can then be eliminated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UsefulAt {
    /// Index into [`Unfolding::body`].
    pub body_index: usize,
    /// The 1-based step (level) of that literal.
    pub step: usize,
}

/// A free residue of an IC w.r.t. an expansion sequence. Free maximal
/// subsumption guarantees the body contains only evaluable atoms.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Residue {
    /// The source constraint, shared by every residue of it.
    pub ic: Arc<Constraint>,
    /// The expansion sequence the residue is attached to.
    pub seq: Vec<usize>,
    /// The instantiated evaluable conditions (`E1, …, Em`).
    pub body: Vec<Cmp>,
    /// The instantiated consequent.
    pub head: ResidueHead,
    /// The subsuming substitution (possibly extended by the usefulness
    /// match).
    pub theta: Subst,
    /// Indices (into the unfolding body) of the atoms the IC's database
    /// atoms were matched onto. An elimination may never target these: the
    /// constraint's premises must survive the deletion.
    pub matched_body: Vec<usize>,
    /// Where the head atom occurs in the unfolding, if it does.
    pub useful_at: Option<UsefulAt>,
}

impl Residue {
    /// Fact residue: the head is present (Definition 4.1).
    pub fn is_fact(&self) -> bool {
        !matches!(self.head, ResidueHead::Null)
    }

    /// Null residue: absent head.
    pub fn is_null(&self) -> bool {
        matches!(self.head, ResidueHead::Null)
    }

    /// Conditional: the body is non-empty (`m > 0`).
    pub fn is_conditional(&self) -> bool {
        !self.body.is_empty()
    }

    /// A residue is *useful* for its sequence if its head is not a database
    /// atom, or its head atom occurs (under an extension of θ) in the
    /// sequence (§3).
    pub fn is_useful(&self) -> bool {
        !matches!(self.head, ResidueHead::Atom(_)) || self.useful_at.is_some()
    }
}

impl fmt::Display for Residue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, " -> {}", self.head)
    }
}

/// What verifying residues against one unfolding needs that does not
/// depend on the match, computed once per unfolding — as minisat computes
/// a clause's abstraction once, not on every subsumption check. A match
/// then pays only for what depends on θ: the residue's own conditions
/// (whose variables join the protected set), the atoms it matched and the
/// usefulness search they seed.
pub struct VerifyContext {
    unfolding: Unfolding,
    /// Every variable of the unfolding, tail included.
    vars: BTreeSet<Symbol>,
    /// The unfolding's own comparisons.
    cmps: Vec<Cmp>,
    /// The database atoms, in order, and their positions in the body.
    atoms: Vec<Atom>,
    positions: Vec<usize>,
    /// Occurrences of each variable across `atoms`, with multiplicity.
    occur: BTreeMap<Symbol, usize>,
    /// Head, tail and comparison variables: what every redundancy
    /// homomorphism fixes.
    protected: BTreeSet<Symbol>,
}

impl VerifyContext {
    /// Precomputes what every match against `unfolding` reads.
    pub fn new(unfolding: Unfolding) -> VerifyContext {
        let mut vars: BTreeSet<Symbol> = unfolding.head.vars().collect();
        vars.extend(unfolding.body.iter().flat_map(|sl| sl.lit.vars()));
        vars.extend(unfolding.tail.iter().flat_map(Atom::vars));
        let cmps: Vec<Cmp> = unfolding
            .body
            .iter()
            .filter_map(|sl| sl.lit.as_cmp().copied())
            .collect();
        let (positions, atoms): (Vec<usize>, Vec<Atom>) =
            unfolding.body_atoms().map(|(i, a)| (i, a.clone())).unzip();
        let mut occur: BTreeMap<Symbol, usize> = BTreeMap::new();
        for v in atoms.iter().flat_map(Atom::vars) {
            *occur.entry(v).or_insert(0) += 1;
        }
        let mut protected: BTreeSet<Symbol> = unfolding.head.vars().collect();
        protected.extend(unfolding.tail.iter().flat_map(Atom::vars));
        protected.extend(cmps.iter().flat_map(Cmp::vars));
        VerifyContext {
            unfolding,
            vars,
            cmps,
            atoms,
            positions,
            occur,
            protected,
        }
    }

    /// The unfolding this context verifies against.
    pub fn unfolding(&self) -> &Unfolding {
        &self.unfolding
    }

    /// Step 4 of Algorithm 3.1: the residue of every total free
    /// subsumption match of `ic`'s database atoms into the unfolding, in
    /// match order, repeats included.
    pub fn residues(&self, ic: &Arc<Constraint>) -> Vec<Residue> {
        let targets: Vec<&Atom> = self.atoms.iter().collect();
        total_matches(&ic.body_atoms, &targets)
            .into_iter()
            .filter_map(|m| build_residue(ic, self, m))
            .collect()
    }
}

/// Builds the residue induced by a total subsumption match of `ic`'s
/// database atoms into the body atoms of `ctx`'s unfolding.
///
/// Returns `None` when the residue is degenerate:
/// * a body condition is trivially false (the residue can never fire);
/// * the head comparison is trivially true (the residue says nothing);
/// * a body condition or head comparison still contains variables that θ
///   did not ground to sequence terms (it could never be evaluated at the
///   point of use).
///
/// A head comparison that is trivially *false* degrades to a null residue.
pub fn build_residue(ic: &Arc<Constraint>, ctx: &VerifyContext, m: Match) -> Option<Residue> {
    debug_assert!(m.is_total());
    let Match { theta, onto } = m;
    let grounded = |c: &Cmp| c.vars().all(|v| ctx.vars.contains(&v));

    // Conditions implied by the sequence's own comparisons are discharged:
    // the residue fires unconditionally on every tree of this shape.
    let mut body: Vec<Cmp> = Vec::new();
    for c in &ic.body_cmps {
        let ic_c = theta.apply_cmp(c);
        if ic_c.is_trivially_true() || ctx.cmps.iter().any(|sc| sc.implies(&ic_c)) {
            continue;
        }
        if ic_c.is_trivially_false() || !grounded(&ic_c) {
            return None;
        }
        body.push(ic_c);
    }

    let head = match &ic.head {
        IcHead::None => ResidueHead::Null,
        IcHead::Cmp(c) => {
            let h = theta.apply_cmp(c);
            if h.is_trivially_true() {
                return None;
            }
            if h.is_trivially_false() {
                ResidueHead::Null
            } else if grounded(&h) {
                ResidueHead::Cmp(h)
            } else {
                return None;
            }
        }
        IcHead::Atom(a) => ResidueHead::Atom(theta.apply_atom(a)),
    };

    // Map the match's target indices (into the atom list) back to body
    // positions of the unfolding.
    let matched_body: Vec<usize> = onto
        .iter()
        .map(|o| ctx.positions[o.expect("total match")])
        .collect();

    let mut residue = Residue {
        ic: Arc::clone(ic),
        seq: ctx.unfolding.seq.clone(),
        body,
        head,
        theta,
        matched_body,
        useful_at: None,
    };
    if let ResidueHead::Atom(a) = &residue.head {
        residue.useful_at = ctx.redundant_atom(&residue, a).map(|body_index| UsefulAt {
            body_index,
            step: ctx.unfolding.body[body_index].step,
        });
    }
    Some(residue)
}

impl VerifyContext {
    /// Establishes usefulness of a fact residue's head atom `A` (§3): the
    /// body position of an atom `B` of the unfolding that the residue
    /// makes *redundant*.
    ///
    /// Two criteria are tried in order:
    ///
    /// 1. **Syntactic** (the paper's definition): θ extends so that
    ///    `A·θ' = B` (Example 3.1's variant residue).
    /// 2. **Homomorphism-based**: there is a mapping `h` of the unfolding's
    ///    variables, fixing every variable that occurs in the head, the
    ///    recursive tail, any comparison, or the residue's conditions, such
    ///    that `h(B) = A` and `h` maps every other body atom into
    ///    `(body ∖ B) ∪ {A}`. Then deleting `B` preserves the answers on
    ///    every IC-satisfying database: a valuation of the reduced body
    ///    composes with `h` into a valuation of the full body, using the IC
    ///    to supply `A`. This is what licenses Example 3.2/4.2's elimination
    ///    of `expert(P, F)` — the co-occurring `field(T, F)` re-maps one
    ///    level down.
    ///
    /// `B` is never one of the atoms the IC matched on (the premises of the
    /// implication must survive the deletion).
    fn redundant_atom(&self, residue: &Residue, head: &Atom) -> Option<usize> {
        let mut protected = Cow::Borrowed(&self.protected);
        for v in residue.body.iter().flat_map(Cmp::vars) {
            if !protected.contains(&v) {
                protected.to_mut().insert(v);
            }
        }
        for (k, b) in self.atoms.iter().enumerate() {
            let bi = self.positions[k];
            if residue.matched_body.contains(&bi)
                || b.pred != head.pred
                || b.arity() != head.arity()
            {
                continue;
            }
            let Some(h) = self.seed(b, head, &protected) else {
                continue;
            };
            // Targets: the body without B, plus A itself.
            let others: Vec<&Atom> = self
                .atoms
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != k)
                .map(|(_, a)| a)
                .collect();
            let mut targets = others.clone();
            targets.push(head);
            if extend_hom(&others, 0, &h, &protected, &targets) {
                return Some(bi);
            }
        }
        None
    }

    /// Seeds the redundancy homomorphism: `h(B) = A`, remapping only
    /// unprotected unfolding variables.
    ///
    /// Positions where A still holds a *free IC variable* (an existential
    /// the IC head introduces, like V7 in Example 3.1) are wildcards — but
    /// soundly so only when B's argument there is an unprotected variable
    /// occurring exactly once in the body: the IC guarantees the existence
    /// of *some* value, so B's argument must be free to absorb whatever
    /// that witness is. Binding a wildcard to a head/tail/shared variable
    /// would claim the witness equals an independently constrained value —
    /// unsound.
    fn seed(&self, b: &Atom, head: &Atom, protected: &BTreeSet<Symbol>) -> Option<Subst> {
        let mut h = Subst::new();
        for (&bt, &at) in b.args.iter().zip(&head.args) {
            if matches!(at, Term::Var(v) if !self.vars.contains(&v)) {
                match bt {
                    Term::Var(v)
                        if !protected.contains(&v)
                            && self.occur.get(&v) == Some(&1)
                            && h.get(v).is_none() =>
                    {
                        // Mark the wildcard column as consumed so a second
                        // appearance of v cannot re-constrain it.
                        h.insert(v, Term::Var(v));
                    }
                    _ => return None,
                }
                continue;
            }
            let fits = match bt {
                Term::Const(_) => bt == at,
                Term::Var(v) if protected.contains(&v) => bt == at,
                Term::Var(v) => bind(&mut h, v, at),
            };
            if !fits {
                return None;
            }
        }
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::unfold;
    use semrec_datalog::analysis::{classify_linear_pred, rectify};
    use semrec_datalog::atom::Pred;
    use semrec_datalog::parser::parse_unit;

    /// The residues of `src`'s first constraint on `pred`'s unfolding of
    /// `seq`, and the number of total matches they were built from.
    fn residues_on(src: &str, pred: &str, seq: &[usize]) -> (Vec<Residue>, usize) {
        let unit = parse_unit(src).unwrap();
        let (prog, _) = rectify(&unit.program());
        let info = classify_linear_pred(&prog, Pred::new(pred)).unwrap();
        let ctx = VerifyContext::new(unfold(&prog, &info, seq).unwrap());
        let ic = Arc::new(unit.constraints[0].clone());
        let targets: Vec<&Atom> = ctx.atoms.iter().collect();
        let matches = total_matches(&ic.body_atoms, &targets).len();
        (ctx.residues(&ic), matches)
    }

    /// Example 3.2: works_with/expert transitivity over the eval program.
    fn eval_residues() -> Vec<Residue> {
        let src = "eval(P, S, T) :- super(P, S, T).
             eval(P, S, T) :- works_with(P, P1), eval(P1, S, T), expert(P, F), field(T, F).
             ic ic1: works_with(P2, P1), expert(P1, F1) -> expert(P2, F1).";
        residues_on(src, "eval", &[1, 1]).0
    }

    #[test]
    fn example_3_2_residue_is_useful_unconditional_fact() {
        let residues = eval_residues();
        assert!(!residues.is_empty());
        // The paper's residue: -> expert(P, F) matched against the level-1
        // expert atom (usefulness extends V-variables onto it).
        let useful: Vec<&Residue> = residues.iter().filter(|r| r.is_useful()).collect();
        assert!(!useful.is_empty());
        let r = useful[0];
        assert!(r.is_fact());
        assert!(!r.is_conditional());
        let ResidueHead::Atom(a) = &r.head else {
            panic!("expected atom head")
        };
        assert_eq!(a.pred, Pred::new("expert"));
        assert!(r.useful_at.is_some());
    }

    #[test]
    fn pruning_residue_from_denial() {
        // Example 4.3 in miniature: a 3-generation denial over anc.
        let (rs, _) = residues_on(
            "anc(X, Xa, Y, Ya) :- par(X, Xa, Y, Ya).
             anc(X, Xa, Y, Ya) :- anc(X, Xa, Z, Za), par(Z, Za, Y, Ya).
             ic: Ya <= 50, par(Z, Za, Y, Ya), par(Z1, Z1a, Z, Za), par(Z2, Z2a, Z1, Z1a) -> .",
            "anc",
            &[1, 1, 1],
        );
        let r = &rs[0];
        assert!(r.is_null());
        assert!(r.is_conditional());
        assert!(r.is_useful());
        assert_eq!(r.body.len(), 1);
        assert_eq!(r.body[0].to_string(), "Ya <= 50");
    }

    #[test]
    fn trivially_false_condition_drops_residue() {
        let (rs, matches) = residues_on(
            "anc(X, Y) :- par(X, Y).
             anc(X, Y) :- anc(X, Z), par(Z, Y).
             ic: par(A, B), 1 > 2 -> q(A).",
            "anc",
            &[1],
        );
        assert_eq!(matches, 1);
        assert!(rs.is_empty());
    }

    #[test]
    fn trivially_false_head_cmp_becomes_null() {
        let (rs, matches) = residues_on(
            "anc(X, Y) :- par(X, Y).
             anc(X, Y) :- anc(X, Z), par(Z, Y).
             ic: par(A, B) -> 1 > 2.",
            "anc",
            &[1],
        );
        assert_eq!((rs.len(), matches), (1, 1));
        assert!(rs[0].is_null());
    }

    #[test]
    fn display_formats() {
        let residues = eval_residues();
        let r = residues.iter().find(|r| r.is_useful()).unwrap();
        let s = r.to_string();
        assert!(s.contains("-> expert("), "got: {s}");
    }

    /// A rule that already guarantees the residue's condition turns a
    /// conditional residue into an unconditional one.
    #[test]
    fn sequence_comparisons_discharge_conditions() {
        let (rs, matches) = residues_on(
            "t(X, Y) :- base(X, Y).
             t(X, Y) :- a(X, Z), Z > 100, t(Z, Y).
             ic: a(U, V), V > 50 -> marked(V).",
            "t",
            &[1],
        );
        assert_eq!((rs.len(), matches), (1, 1));
        // Z > 100 (in the rule) implies V > 50 (the condition): discharged.
        assert!(!rs[0].is_conditional(), "residue: {}", rs[0]);
    }
}
