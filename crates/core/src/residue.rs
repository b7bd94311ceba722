//! Residues of integrity constraints w.r.t. expansion sequences, their
//! classification (Definition 4.1) and usefulness (§3).

use crate::hom::{bind_idempotent, extend_hom};
use crate::sequence::Unfolding;
use crate::subsume::Search;
use semrec_datalog::atom::Atom;
use semrec_datalog::constraint::{Constraint, IcHead};
use semrec_datalog::literal::Cmp;
use semrec_datalog::subst::Subst;
use semrec_datalog::symbol::Symbol;
use semrec_datalog::term::Term;
use std::fmt;
use std::ops::Range;
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

impl ResidueHead {
    /// Writes the head as `Display` prints it, through
    /// [`fmt::Write::write_str`] (see [`Atom::write_to`]).
    pub fn write_to<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        match self {
            ResidueHead::Null => out.write_str("false"),
            ResidueHead::Atom(a) => a.write_to(out),
            ResidueHead::Cmp(c) => c.write_to(out),
        }
    }
}

impl fmt::Display for ResidueHead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
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

impl Residue {
    /// Writes `E1, …, Em -> head` as `Display` prints it, through
    /// [`fmt::Write::write_str`]: detection renders its order key with
    /// it straight into one buffer, with no formatter between.
    pub fn write_to<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        for (i, c) in self.body.iter().enumerate() {
            if i > 0 {
                out.write_str(", ")?;
            }
            c.write_to(out)?;
        }
        out.write_str(" -> ")?;
        self.head.write_to(out)
    }
}

impl fmt::Display for Residue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

/// What verifying residues against one unfolding needs that does not
/// depend on the match, computed once per unfolding — as minisat computes
/// a clause's abstraction once, not on every subsumption check. A match
/// then pays only for what depends on θ: the residue's own conditions
/// (whose variables join the protected set), the atoms it matched and the
/// usefulness search they seed. Its variable sets are sorted slices of
/// one buffer.
pub struct VerifyContext {
    unfolding: Unfolding,
    /// The sets below, one after the other.
    symbols: Vec<Symbol>,
    /// Head, tail and comparison variables: what every redundancy
    /// homomorphism fixes.
    protected: Range<usize>,
    /// Every occurrence of a variable in the body's database atoms: a
    /// variable's occurrences are one run.
    occur: Range<usize>,
    /// Every variable of the unfolding, tail included.
    vars: Range<usize>,
}

/// The working places of [`VerifyContext::residues`], which a caller keeps
/// from one call to the next.
#[derive(Default)]
pub struct Scratch {
    matches: Search,
    hom: (Subst, Vec<Symbol>),
}

/// Sorts `v[from..]` and drops its repeats.
fn sort_dedup_from(v: &mut Vec<Symbol>, from: usize) {
    v[from..].sort_unstable();
    let mut kept = from;
    for i in from..v.len() {
        if kept == from || v[i] != v[kept - 1] {
            v[kept] = v[i];
            kept += 1;
        }
    }
    v.truncate(kept);
}

impl VerifyContext {
    /// Precomputes what every match against `unfolding` reads.
    pub fn new(unfolding: Unfolding) -> VerifyContext {
        let u = &unfolding;
        let atoms = || u.body_atoms().map(|(_, a)| a);
        let negated = || u.body.iter().filter_map(|sl| sl.lit.as_neg());
        let fixed = u.head.arity() * 2 + u.cmps().count() * 2;
        let occurrences: usize = atoms().map(Atom::arity).sum();
        let unbound: usize = negated().map(Atom::arity).sum();
        let mut symbols = Vec::with_capacity(2 * (fixed + occurrences) + unbound);
        let tail = u.tail().into_iter().flatten().filter_map(|t| t.as_var());
        symbols.extend(u.head.vars().chain(tail));
        symbols.extend(u.cmps().flat_map(Cmp::vars));
        sort_dedup_from(&mut symbols, 0);
        let protected = 0..symbols.len();
        symbols.extend(atoms().flat_map(Atom::vars));
        symbols[protected.end..].sort_unstable();
        let occur = protected.end..symbols.len();
        symbols.extend_from_within(..occur.end);
        symbols.extend(negated().flat_map(Atom::vars));
        sort_dedup_from(&mut symbols, occur.end);
        let vars = occur.end..symbols.len();
        VerifyContext {
            unfolding,
            symbols,
            protected,
            occur,
            vars,
        }
    }

    /// Every variable of the unfolding, sorted.
    fn vars(&self) -> &[Symbol] {
        &self.symbols[self.vars.clone()]
    }

    /// The unfolding this context verifies against.
    pub fn unfolding(&self) -> &Unfolding {
        &self.unfolding
    }

    /// Step 4 of Algorithm 3.1: the residue of every total free
    /// subsumption match of `ic`'s database atoms into the unfolding,
    /// handed to `each` in match order, repeats included.
    pub fn residues(
        &self,
        ic: &Arc<Constraint>,
        scratch: &mut Scratch,
        mut each: impl FnMut(Residue),
    ) {
        let Scratch { matches, hom } = scratch;
        let targets = || self.unfolding.body_atoms();
        matches.total_matches(&ic.body_atoms, targets, |theta, onto| {
            build_residue(ic, self, theta, onto, hom).map(&mut each);
        });
    }
}

/// Builds the residue induced by a total subsumption match θ of `ic`'s
/// database atoms into the body atoms of `ctx`'s unfolding (atom `i` onto
/// body position `onto[i]`); θ is cloned only into a residue that is kept.
/// `hom` holds the usefulness homomorphism's substitution and trail.
///
/// Returns `None` when the residue is degenerate:
/// * a body condition is trivially false (the residue can never fire);
/// * the head comparison is trivially true (the residue says nothing);
/// * a body condition or head comparison still contains variables that θ
///   did not ground to sequence terms (it could never be evaluated at the
///   point of use).
///
/// A head comparison that is trivially *false* degrades to a null residue.
pub fn build_residue(
    ic: &Arc<Constraint>,
    ctx: &VerifyContext,
    theta: &Subst,
    onto: &[usize],
    hom: &mut (Subst, Vec<Symbol>),
) -> Option<Residue> {
    let grounded = |c: &Cmp| c.vars().all(|v| ctx.vars().binary_search(&v).is_ok());

    // Conditions implied by the sequence's own comparisons are discharged:
    // the residue fires unconditionally on every tree of this shape.
    let mut body: Vec<Cmp> = Vec::new();
    for c in &ic.body_cmps {
        let ic_c = theta.apply_cmp(c);
        if ic_c.is_trivially_true() || ctx.unfolding.cmps().any(|sc| sc.implies(&ic_c)) {
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

    let matched_body = onto.to_vec();

    let mut residue = Residue {
        ic: Arc::clone(ic),
        seq: ctx.unfolding.seq.clone(),
        body,
        head,
        theta: theta.clone(),
        matched_body,
        useful_at: None,
    };
    if let ResidueHead::Atom(a) = &residue.head {
        let at = ctx.redundant_atom(&residue, a, hom);
        residue.useful_at = at.map(|body_index| UsefulAt {
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
    fn redundant_atom(
        &self,
        residue: &Residue,
        head: &Atom,
        (h, trail): &mut (Subst, Vec<Symbol>),
    ) -> Option<usize> {
        let conds = || residue.body.iter().flat_map(Cmp::vars);
        let fixed = &self.symbols[self.protected.clone()];
        let protected = |v| fixed.binary_search(&v).is_ok() || conds().any(|w| w == v);
        let body = || self.unfolding.body_atoms();
        for (bi, b) in body() {
            if residue.matched_body.contains(&bi)
                || b.pred != head.pred
                || b.arity() != head.arity()
            {
                continue;
            }
            h.undo(trail, 0);
            if !self.seed(b, head, &protected, h, trail) {
                continue;
            }
            // Sources: the body without B; targets: those plus A itself.
            let others = || body().filter(move |&(j, _)| j != bi).map(|(_, a)| a);
            let targets = || others().chain(std::iter::once(head));
            if extend_hom(others(), h, trail, &protected, &targets) {
                return Some(bi);
            }
        }
        None
    }

    /// How often `v` occurs in the body's database atoms.
    fn occurrences(&self, v: Symbol) -> usize {
        let occur = &self.symbols[self.occur.clone()];
        let run = &occur[occur.partition_point(|&w| w < v)..];
        run.partition_point(|&w| w == v)
    }

    /// Seeds the redundancy homomorphism into the empty `h`: `h(B) = A`,
    /// remapping only unprotected unfolding variables. `false` if B cannot
    /// map onto A.
    ///
    /// Positions where A still holds a *free IC variable* (an existential
    /// the IC head introduces, like V7 in Example 3.1) are wildcards — but
    /// soundly so only when B's argument there is an unprotected variable
    /// occurring exactly once in the body: the IC guarantees the existence
    /// of *some* value, so B's argument must be free to absorb whatever
    /// that witness is. Binding a wildcard to a head/tail/shared variable
    /// would claim the witness equals an independently constrained value —
    /// unsound.
    fn seed(
        &self,
        b: &Atom,
        head: &Atom,
        protected: &impl Fn(Symbol) -> bool,
        h: &mut Subst,
        trail: &mut Vec<Symbol>,
    ) -> bool {
        for (&bt, &at) in b.args.iter().zip(&head.args) {
            if matches!(at, Term::Var(v) if self.vars().binary_search(&v).is_err()) {
                match bt {
                    Term::Var(v)
                        if !protected(v) && self.occurrences(v) == 1 && h.get(v).is_none() =>
                    {
                        // Mark the wildcard column as consumed so a second
                        // appearance of v cannot re-constrain it.
                        h.bind(v, Term::Var(v), trail);
                    }
                    _ => return false,
                }
                continue;
            }
            let fits = match bt {
                Term::Const(_) => bt == at,
                Term::Var(v) if protected(v) => bt == at,
                Term::Var(v) => bind_idempotent(h, v, at, trail),
            };
            if !fits {
                return false;
            }
        }
        true
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
        let mut matches = 0;
        let targets = || ctx.unfolding.body_atoms();
        Search::default().total_matches(&ic.body_atoms, targets, |_, _| matches += 1);
        let mut residues = Vec::new();
        ctx.residues(&ic, &mut Scratch::default(), |r| residues.push(r));
        (residues, matches)
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
