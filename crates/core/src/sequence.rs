//! Expansion sequences and their unfoldings.
//!
//! For linear programs, proof trees are in 1–1 correspondence with
//! *expansion sequences* — sequences of rule indices applied top-down (§2).
//! An [`Unfolding`] is the conjunctive query obtained by composing the rules
//! of a sequence, with a deterministic per-step variable renaming. The same
//! renaming chain is reused by the §4 isolation transformation (the strict
//! chain of [`crate::push`]), so a residue computed against an unfolding can
//! be attached syntactically to the isolating rule of the step its variables
//! belong to.
//!
//! Renaming convention: step `i` (1-based) keeps the incoming recursive-call
//! terms for the rule's head variables and renames each body-local variable
//! `v` to `v~i`. `~` cannot appear in source identifiers, so the generated
//! names never collide with user variables.

use semrec_datalog::analysis::RecursionInfo;
use semrec_datalog::atom::Atom;
use semrec_datalog::error::Error;
use semrec_datalog::literal::Literal;
use semrec_datalog::program::Program;
use semrec_datalog::rule::Rule;
use semrec_datalog::subst::Subst;
use semrec_datalog::symbol::Symbol;
use semrec_datalog::term::Term;
use std::collections::BTreeMap;

/// A body literal of an unfolding, with provenance.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SeqLiteral {
    /// The (renamed) literal.
    pub lit: Literal,
    /// 1-based step (level) the literal came from.
    pub step: usize,
    /// Index of the originating literal in that rule's body.
    pub source_index: usize,
}

/// The unfolding (composed conjunctive query) of an expansion sequence.
#[derive(Clone, Debug)]
pub struct Unfolding {
    /// The sequence of rule indices.
    pub seq: Vec<usize>,
    /// The head `p(X1, …, Xn)` (the canonical rectified head).
    pub head: Atom,
    /// Flattened body literals with provenance, in step order.
    pub body: Vec<SeqLiteral>,
    /// The trailing recursive call, if the last rule is recursive.
    pub tail: Option<Atom>,
    /// Per step: the substitution applied to that rule's variables.
    pub step_substs: Vec<Subst>,
    /// Per step `i` (0-based entry `i`): the incoming call arguments — the
    /// head arguments of the rule applied at step `i+1`. Entry 0 is the
    /// canonical head variables themselves.
    pub call_args: Vec<Vec<Term>>,
}

impl Unfolding {
    /// The database (non-recursive) body atoms in order, paired with their
    /// position in `body`.
    pub fn body_atoms(&self) -> impl Iterator<Item = (usize, &Atom)> {
        self.body
            .iter()
            .enumerate()
            .filter_map(|(i, sl)| sl.lit.as_atom().map(|a| (i, a)))
    }

    /// Renders the unfolding as a single rule (tail included), mainly for
    /// display and tests.
    pub fn to_rule(&self) -> Rule {
        let mut body: Vec<Literal> = self.body.iter().map(|sl| sl.lit.clone()).collect();
        if let Some(t) = &self.tail {
            body.push(Literal::Atom(t.clone()));
        }
        Rule::new(self.head.clone(), body)
    }
}

/// Renames local variable `v` of step `step` (1-based).
pub fn step_local(v: Symbol, step: usize) -> Symbol {
    Symbol::intern(&format!("{v}~{step}"))
}

/// The [`step_local`] renaming of each rule's local variables, per
/// (rule, step), built on first use. A caller that unfolds many sequences
/// over the same rules keeps one, so each `v~i` is formatted and interned
/// once rather than once per unfolding.
#[derive(Default)]
pub struct StepNames {
    locals: BTreeMap<(usize, usize), Vec<(Symbol, Term)>>,
}

impl StepNames {
    /// Local variable ↦ its renamed variable, for rule `ri` at `step`.
    fn get(&mut self, program: &Program, ri: usize, step: usize) -> &[(Symbol, Term)] {
        self.locals.entry((ri, step)).or_insert_with(|| {
            program.rules[ri]
                .local_vars()
                .into_iter()
                .map(|v| (v, Term::Var(step_local(v, step))))
                .collect()
        })
    }
}

/// Unfolds `seq` (rule indices into `program`, which must be rectified) for
/// the recursive predicate described by `info`.
///
/// Every rule of the sequence must define `info.pred`; every rule except
/// possibly the last must be recursive.
pub fn unfold(program: &Program, info: &RecursionInfo, seq: &[usize]) -> Result<Unfolding, Error> {
    unfold_with(program, info, seq, &mut StepNames::default())
}

/// [`unfold`], renaming through `names`.
pub fn unfold_with(
    program: &Program,
    info: &RecursionInfo,
    seq: &[usize],
    names: &mut StepNames,
) -> Result<Unfolding, Error> {
    if seq.is_empty() {
        return Err(Error::analysis("empty expansion sequence"));
    }
    for (pos, &ri) in seq.iter().enumerate() {
        if ri >= program.len() || program.rules[ri].head.pred != info.pred {
            return Err(Error::analysis(format!(
                "sequence element {ri} is not a rule for {}",
                info.pred
            )));
        }
        let recursive = info.recursive_rules.contains(&ri);
        if !recursive && pos + 1 != seq.len() {
            return Err(Error::analysis(format!(
                "non-recursive rule {ri} may only end a sequence"
            )));
        }
    }

    let head = program.rules[seq[0]].head.clone();
    let mut call_args: Vec<Vec<Term>> = vec![head.args.clone()];
    let mut body: Vec<SeqLiteral> = Vec::new();
    let mut step_substs: Vec<Subst> = Vec::new();
    let mut tail: Option<Atom> = None;

    for (idx, &ri) in seq.iter().enumerate() {
        let step = idx + 1;
        let rule = &program.rules[ri];
        // σ_step: head var of column t ↦ incoming call arg t; locals ↦ v~step.
        let mut sigma = Subst::new();
        for (t, arg) in rule.head.args.iter().zip(&call_args[idx]) {
            let v = t
                .as_var()
                .expect("rectified rule heads contain only variables");
            sigma.insert(v, *arg);
        }
        for &(v, renamed) in names.get(program, ri, step) {
            sigma.insert(v, renamed);
        }

        let mut next_call: Option<Vec<Term>> = None;
        for (li, lit) in rule.body.iter().enumerate() {
            match lit {
                Literal::Atom(a) if a.pred == info.pred => {
                    let renamed = sigma.apply_atom(a);
                    next_call = Some(renamed.args.clone());
                    if idx + 1 == seq.len() {
                        tail = Some(renamed);
                    }
                }
                other => body.push(SeqLiteral {
                    lit: sigma.apply_literal(other),
                    step,
                    source_index: li,
                }),
            }
        }
        step_substs.push(sigma);
        if let Some(args) = next_call {
            call_args.push(args);
        } else {
            // Exit rule: must be last (checked above).
            debug_assert_eq!(idx + 1, seq.len());
        }
    }

    Ok(Unfolding {
        seq: seq.to_vec(),
        head,
        body,
        tail,
        step_substs,
        call_args,
    })
}

/// Enumerates expansion sequences of length `1..=max_len`: every element is
/// a recursive rule, except the last which may also be an exit rule.
pub fn enumerate_sequences(info: &RecursionInfo, max_len: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut prefix: Vec<usize> = Vec::new();
    fn go(
        info: &RecursionInfo,
        max_len: usize,
        prefix: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if !prefix.is_empty() {
            out.push(prefix.clone());
            // Each (purely recursive) prefix can also be closed by an exit
            // rule.
            for &e in &info.exit_rules {
                let mut s = prefix.clone();
                s.push(e);
                out.push(s);
            }
        } else {
            for &e in &info.exit_rules {
                out.push(vec![e]);
            }
        }
        if prefix.len() == max_len {
            return;
        }
        for &r in &info.recursive_rules {
            prefix.push(r);
            go(info, max_len, prefix, out);
            prefix.pop();
        }
    }
    go(info, max_len, &mut prefix, &mut out);
    // The recursion above can emit over-length exit-closed sequences; trim.
    out.retain(|s| s.len() <= max_len);
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_datalog::analysis::{classify_linear_pred, rectify};
    use semrec_datalog::atom::Pred;
    use semrec_datalog::parser::parse_unit;

    fn setup(src: &str, pred: &str) -> (Program, RecursionInfo) {
        let p = parse_unit(src).unwrap().program();
        let (p, _) = rectify(&p);
        let info = classify_linear_pred(&p, Pred::new(pred)).unwrap();
        (p, info)
    }

    const ANC: &str = "anc(X,Y) :- par(X,Y). anc(X,Y) :- anc(X,Z), par(Z,Y).";

    #[test]
    fn unfold_single_recursive_rule() {
        let (p, info) = setup(ANC, "anc");
        let u = unfold(&p, &info, &[1]).unwrap();
        assert_eq!(u.body.len(), 1);
        assert!(u.tail.is_some());
        assert_eq!(
            u.to_rule().to_string(),
            "anc(X, Y) :- par(Z~1, Y), anc(X, Z~1)."
        );
    }

    #[test]
    fn unfold_two_levels_composes_variables() {
        let (p, info) = setup(ANC, "anc");
        let u = unfold(&p, &info, &[1, 1]).unwrap();
        // Level 1: anc(X, Z~1), par(Z~1, Y); level 2 head args = (X, Z~1),
        // so level 2 is par(Z~2, Z~1) and tail anc(X, Z~2).
        assert_eq!(
            u.to_rule().to_string(),
            "anc(X, Y) :- par(Z~1, Y), par(Z~2, Z~1), anc(X, Z~2)."
        );
        assert_eq!(u.body[0].step, 1);
        assert_eq!(u.body[1].step, 2);
    }

    #[test]
    fn unfold_closed_with_exit_rule() {
        let (p, info) = setup(ANC, "anc");
        let u = unfold(&p, &info, &[1, 0]).unwrap();
        assert!(u.tail.is_none());
        assert_eq!(
            u.to_rule().to_string(),
            "anc(X, Y) :- par(Z~1, Y), par(X, Z~1)."
        );
    }

    #[test]
    fn exit_rule_only_last() {
        let (p, info) = setup(ANC, "anc");
        assert!(unfold(&p, &info, &[0, 1]).is_err());
        assert!(unfold(&p, &info, &[]).is_err());
    }

    #[test]
    fn eval_example_unfolding() {
        // Example 3.2's program: the r1 r1 sequence must contain two
        // works_with and two expert atoms with the chained professor vars.
        let (p, info) = setup(
            "eval(P, S, T) :- super(P, S, T).
             eval(P, S, T) :- works_with(P, P1), eval(P1, S, T), expert(P, F), field(T, F).",
            "eval",
        );
        let u = unfold(&p, &info, &[1, 1]).unwrap();
        let atoms: Vec<String> = u.body_atoms().map(|(_, a)| a.to_string()).collect();
        assert_eq!(
            atoms,
            vec![
                "works_with(P, P1~1)",
                "expert(P, F~1)",
                "field(T, F~1)",
                "works_with(P1~1, P1~2)",
                "expert(P1~1, F~2)",
                "field(T, F~2)",
            ]
        );
        assert_eq!(u.tail.as_ref().unwrap().to_string(), "eval(P1~2, S, T)");
    }

    #[test]
    fn enumerate_bounded() {
        let (_, info) = setup(ANC, "anc");
        let seqs = enumerate_sequences(&info, 2);
        // [0], [1], [1,0], [1,1]
        assert_eq!(seqs, vec![vec![0], vec![1], vec![1, 0], vec![1, 1]]);
    }

    #[test]
    fn enumerate_two_recursive_rules() {
        let (_, info) = setup(
            "p(X) :- e(X). p(X) :- a(X,Y), p(Y). p(X) :- b(X,Y), p(Y).",
            "p",
        );
        let seqs = enumerate_sequences(&info, 2);
        // len1: [0],[1],[2]; len2: [1,0],[1,1],[1,2],[2,0],[2,1],[2,2]
        assert_eq!(seqs.len(), 9);
    }

    #[test]
    fn provenance_maps_to_alpha_rules() {
        let (p, info) = setup(ANC, "anc");
        let u = unfold(&p, &info, &[1, 1]).unwrap();
        // step_substs[1] must rename rule 1's local Z to Z~2 and head X,Y to
        // the incoming call args X, Z~1.
        let s2 = &u.step_substs[1];
        assert_eq!(s2.apply_term(Term::var("Y")), Term::var("Z~1"));
        assert_eq!(s2.apply_term(Term::var("X")), Term::var("X"));
        assert_eq!(s2.apply_term(Term::var("Z")), Term::var("Z~2"));
    }
}
