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
use semrec_datalog::literal::{Cmp, Literal};
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
    /// Flattened body literals with provenance, in step order, and in
    /// rule order within a step.
    pub body: Vec<SeqLiteral>,
    /// [`Unfolding::call_args`] of each step, one after the other, and
    /// of the trailing recursive call when there is one.
    call_args: Vec<Term>,
    /// Whether the last rule is recursive.
    recursive_tail: bool,
}

impl Unfolding {
    /// The database (non-recursive) body atoms in order, paired with their
    /// position in `body`.
    pub fn body_atoms(&self) -> impl Iterator<Item = (usize, &Atom)> + Clone {
        self.body
            .iter()
            .enumerate()
            .filter_map(|(i, sl)| sl.lit.as_atom().map(|a| (i, a)))
    }

    /// The body's comparisons, in order.
    pub fn cmps(&self) -> impl Iterator<Item = &Cmp> + Clone {
        self.body.iter().filter_map(|sl| sl.lit.as_cmp())
    }

    /// The incoming call arguments of step `i + 1`: the head arguments
    /// of the rule applied there, as renamed. Entry 0 is the canonical
    /// head variables themselves; the recursive subgoal of step `i`
    /// (1-based) calls with entry `i`.
    pub fn call_args(&self, i: usize) -> &[Term] {
        let n = self.head.arity();
        &self.call_args[i * n..(i + 1) * n]
    }

    /// The arguments of the trailing recursive call (a `head.pred` atom),
    /// if the last rule is recursive.
    pub fn tail(&self) -> Option<&[Term]> {
        self.recursive_tail.then(|| self.call_args(self.seq.len()))
    }

    /// The body of step `i` (1-based) as renamed: the rule's literals in
    /// its order, its recursive subgoal calling with
    /// [`Unfolding::call_args`]`(i)`.
    pub fn step_body(&self, program: &Program, i: usize) -> Vec<Literal> {
        let rule = &program.rules[self.seq[i - 1]];
        let mut mine = self.body.iter().filter(|sl| sl.step == i);
        let renamed = |l: &Literal| match l {
            Literal::Atom(a) if a.pred == self.head.pred => {
                Literal::Atom(Atom::new(a.pred, self.call_args(i).to_vec()))
            }
            _ => mine
                .next()
                .expect("every other literal is in the body")
                .lit
                .clone(),
        };
        rule.body.iter().map(renamed).collect()
    }

    /// Renders the unfolding as a single rule (tail included), mainly for
    /// display and tests.
    pub fn to_rule(&self) -> Rule {
        let mut body: Vec<Literal> = self.body.iter().map(|sl| sl.lit.clone()).collect();
        if let Some(args) = self.tail() {
            body.push(Literal::Atom(Atom::new(self.head.pred, args.to_vec())));
        }
        Rule::new(self.head.clone(), body)
    }
}

/// Renames local variable `v` of step `step` (1-based).
pub fn step_local(v: Symbol, step: usize) -> Symbol {
    Symbol::intern(&format!("{v}~{step}"))
}

/// What unfolding reuses from one sequence to the next: the
/// [`step_local`] renaming of each rule's local variables, per (rule,
/// step), built on first use, and the one substitution each step renames
/// through. A caller that unfolds many sequences over the same rules
/// keeps one, so each `v~i` is formatted and interned once, and a step
/// allocates only what the unfolding keeps.
#[derive(Default)]
pub struct StepNames {
    locals: BTreeMap<(usize, usize), Vec<(Symbol, Term)>>,
    sigma: Subst,
}

impl StepNames {
    /// σ for rule `ri` at `step`: head variable of column t ↦
    /// `incoming[t]`, local ↦ its renamed variable.
    fn sigma(&mut self, program: &Program, ri: usize, step: usize, incoming: &[Term]) -> &Subst {
        let rule = &program.rules[ri];
        let locals = self.locals.entry((ri, step)).or_insert_with(|| {
            (rule.local_vars().into_iter())
                .map(|v| (v, Term::Var(step_local(v, step))))
                .collect()
        });
        let heads = rule.head.args.iter().zip(incoming).map(|(t, &arg)| {
            let v = t
                .as_var()
                .expect("rectified rule heads contain only variables");
            (v, arg)
        });
        self.sigma.assign(heads.chain(locals.iter().copied()));
        &self.sigma
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
    let n = head.arity();
    let mut call_args: Vec<Term> = Vec::with_capacity(n * (seq.len() + 1));
    call_args.extend_from_slice(&head.args);
    let body_len = seq.iter().map(|&ri| program.rules[ri].body.len()).sum();
    let mut body: Vec<SeqLiteral> = Vec::with_capacity(body_len);

    for (idx, &ri) in seq.iter().enumerate() {
        let step = idx + 1;
        let sigma = names.sigma(program, ri, step, &call_args[idx * n..step * n]);
        for (li, lit) in program.rules[ri].body.iter().enumerate() {
            match lit {
                Literal::Atom(a) if a.pred == info.pred => {
                    call_args.extend(a.args.iter().map(|&t| sigma.apply_term(t)));
                }
                other => body.push(SeqLiteral {
                    lit: sigma.apply_literal(other),
                    step,
                    source_index: li,
                }),
            }
        }
    }

    Ok(Unfolding {
        seq: seq.to_vec(),
        head,
        body,
        recursive_tail: info.recursive_rules.contains(&seq[seq.len() - 1]),
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
        assert!(u.tail().is_some());
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
        assert!(u.tail().is_none());
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
        let tail: Vec<String> = u.tail().unwrap().iter().map(Term::to_string).collect();
        assert_eq!(tail, ["P1~2", "S", "T"]);
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
        // Step 2 renames rule 1's head X, Y to the incoming call args
        // X, Z~1 and its local Z to Z~2; its recursive subgoal calls with
        // X, Z~2.
        let text = |ts: &[Term]| ts.iter().map(Term::to_string).collect::<Vec<_>>();
        assert_eq!(text(u.call_args(1)), ["X", "Z~1"]);
        assert_eq!(text(u.call_args(2)), ["X", "Z~2"]);
        let step2: Vec<String> = u.step_body(&p, 2).iter().map(|l| l.to_string()).collect();
        assert_eq!(step2, ["anc(X, Z~2)", "par(Z~2, Z~1)"]);
    }
}
