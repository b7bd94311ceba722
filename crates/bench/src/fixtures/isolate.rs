//! Algorithm 4.1: transforming a program into an equivalent one that
//! *isolates* an expansion sequence.
//!
//! For a sequence `s = ⟨r_{j1}, …, r_{jk}⟩` over a linear predicate `p`,
//! auxiliary predicates `p^1 … p^{k-1}` and `q^1 … q^{k-1}` are introduced
//! (with `p^0 = p^k = q^0 = q^k = p`) and three rule groups are emitted:
//!
//! * **α-rules** `p^{i-1} :- body(r_{ji})[p ↦ p^i]` — advance the match of
//!   `s`; a complete α-chain is exactly one occurrence of `s`.
//! * **β-rules** `p^{i-1} :- body(r_{ji})[p ↦ q^i]` — apply `r_{ji}` but
//!   commit to deviating from `s` at the next step.
//! * **γ-rules** `q^{i-1} :- body(r_l)` for every `l ≠ j_i` — the deviating
//!   step; its recursive subgoal returns to `p`, where a fresh match of `s`
//!   may begin.
//!
//! Step 5's head/body unifications are realized by constructing the
//! α-rules with the *same* per-step renaming as the sequence's
//! [`semrec_core::sequence::Unfolding`]: the `i`-th α-rule's variables
//! are exactly the step-`i` variables of the unfolding, so residues
//! computed against the unfolding can be attached syntactically
//! ([`semrec_core::push`]).
//!
//! The transformation preserves the set of proof trees (Theorem 4.1):
//! property tests in `tests/` check IDB equality against the original
//! program on random databases.

use semrec_core::sequence::Unfolding;
use semrec_datalog::analysis::RecursionInfo;
use semrec_datalog::atom::{Atom, Pred};
use semrec_datalog::literal::Literal;
use semrec_datalog::program::Program;
use semrec_datalog::rule::Rule;
use semrec_datalog::subst::Subst;
use semrec_datalog::symbol::Symbol;
use semrec_datalog::term::Term;

/// The result of isolating a sequence.
#[derive(Clone, Debug)]
pub struct Isolated {
    /// The transformed program (all rules: non-`p` rules first, then α, β,
    /// γ groups).
    pub program: Program,
    /// The isolated predicate.
    pub pred: Pred,
    /// The isolated sequence.
    pub seq: Vec<usize>,
    /// Indices (into `program`) of the α-rules, one per step.
    pub alpha: Vec<usize>,
    /// The auxiliary predicates `p^1 … p^{k-1}`.
    pub aux_p: Vec<Pred>,
    /// The auxiliary predicates `q^1 … q^{k-1}`.
    pub aux_q: Vec<Pred>,
}

/// Isolates `unfolding.seq` in `program` (rectified). The unfolding must
/// have been produced by [`semrec_core::sequence::unfold`] on the same program.
///
/// For `k = 1` the transformation is the identity up to the step-1
/// renaming of the single rule (no auxiliary predicates).
pub fn isolate(program: &Program, info: &RecursionInfo, unfolding: &Unfolding) -> Isolated {
    let p = info.pred;
    let seq = &unfolding.seq;
    let k = seq.len();

    let aux_p: Vec<Pred> = (1..k)
        .map(|i| Pred::new(&format!("{}@p{i}", p.name())))
        .collect();
    let aux_q: Vec<Pred> = (1..k)
        .map(|i| Pred::new(&format!("{}@q{i}", p.name())))
        .collect();
    // p^i / q^i with the boundary convention p^0 = p^k = q^0 = q^k = p.
    let p_i = |i: usize| -> Pred {
        if i == 0 || i == k {
            p
        } else {
            aux_p[i - 1]
        }
    };
    let q_i = |i: usize| -> Pred {
        if i == 0 || i == k {
            p
        } else {
            aux_q[i - 1]
        }
    };

    let mut rules: Vec<Rule> = Vec::new();
    // Rules of other predicates pass through unchanged.
    for r in &program.rules {
        if r.head.pred != p {
            rules.push(r.clone());
        }
    }

    // α- and β-rules for each step i (1-based). The head of step i's rules
    // is p^{i-1}(call_args(i-1)); the body is the unfolding's step i;
    // the recursive subgoal becomes p^i (α) / q^i (β).
    let mut alpha: Vec<usize> = Vec::new();
    for i in 1..=k {
        let body = unfolding.step_body(program, i);
        let head = Atom::new(p_i(i - 1), unfolding.call_args(i - 1).to_vec());
        alpha.push(rules.len());
        rules.push(Rule::new(head.clone(), retarget(&body, p, p_i(i))));
        // β-rule: identical except the recursive subgoal goes to q^i. For
        // i = k (q^k = p) or an exit step it would duplicate the α-rule.
        if i < k && q_i(i) != p_i(i) {
            rules.push(Rule::new(head, retarget(&body, p, q_i(i))));
        }
    }

    // γ-rules: for each step i, every rule l ≠ j_i, with head q^{i-1}.
    // For i = 1 (q^0 = p) these are verbatim copies of the other rules.
    for i in 1..=k {
        for &l in &info.all_rules() {
            if l == seq[i - 1] {
                continue;
            }
            let rule = &program.rules[l];
            if i == 1 {
                rules.push(rule.clone());
                continue;
            }
            // Head q^{i-1}(call_args(i-1)); rename the rule's head
            // variables to the incoming call args and freshen locals
            // uniquely per (i, l).
            let mut sigma = Subst::new();
            for (t, arg) in rule.head.args.iter().zip(unfolding.call_args(i - 1)) {
                let v = t.as_var().expect("rectified head");
                sigma.insert(v, *arg);
            }
            for v in rule.local_vars() {
                sigma.insert(v, Term::Var(Symbol::intern(&format!("{v}~g{i}r{l}"))));
            }
            let head = Atom::new(q_i(i - 1), unfolding.call_args(i - 1).to_vec());
            let body = (rule.body.iter()).map(|l| sigma.apply_literal(l)).collect();
            rules.push(Rule::new(head, body));
        }
    }

    Isolated {
        program: Program::new(rules),
        pred: p,
        seq: seq.clone(),
        alpha,
        aux_p,
        aux_q,
    }
}

/// `body` with its recursive subgoal over `p` calling `rec_target`.
fn retarget(body: &[Literal], p: Pred, rec_target: Pred) -> Vec<Literal> {
    let retargeted = |lit: &Literal| match lit {
        Literal::Atom(a) if a.pred == p => Literal::Atom(Atom::new(rec_target, a.args.clone())),
        other => other.clone(),
    };
    body.iter().map(retargeted).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_core::sequence::unfold;
    use semrec_datalog::analysis::{classify_linear_pred, rectify};
    use semrec_datalog::parser::parse_unit;

    fn setup(src: &str, pred: &str) -> (Program, RecursionInfo) {
        let p = parse_unit(src).unwrap().program();
        let (p, _) = rectify(&p);
        let info = classify_linear_pred(&p, Pred::new(pred)).unwrap();
        (p, info)
    }

    const ANC: &str = "anc(X,Y) :- par(X,Y). anc(X,Y) :- anc(X,Z), par(Z,Y).";

    #[test]
    fn k1_isolation_is_trivial() {
        let (p, info) = setup(ANC, "anc");
        let u = unfold(&p, &info, &[1]).unwrap();
        let iso = isolate(&p, &info, &u);
        assert!(iso.aux_p.is_empty());
        assert!(iso.aux_q.is_empty());
        assert_eq!(iso.program.len(), 2);
        assert_eq!(iso.alpha, vec![0]);
        // The α-rule is the recursive rule under the step-1 renaming.
        assert_eq!(
            iso.program.rules[iso.alpha[0]].to_string(),
            "anc(X, Y) :- anc(X, Z~1), par(Z~1, Y)."
        );
    }

    #[test]
    fn k2_isolation_structure() {
        let (p, info) = setup(ANC, "anc");
        let u = unfold(&p, &info, &[1, 1]).unwrap();
        let iso = isolate(&p, &info, &u);
        // α1, β1, α2, γ-group1 (rule 0), γ-group2 (rule 0): 5 rules.
        assert_eq!(iso.program.len(), 5);
        assert_eq!(iso.aux_p.len(), 1);
        assert_eq!(iso.aux_q.len(), 1);
        let texts: Vec<String> = iso.program.rules.iter().map(|r| r.to_string()).collect();
        // α1 routes to anc@p1; β1 to anc@q1.
        assert_eq!(texts[0], "anc(X, Y) :- anc@p1(X, Z~1), par(Z~1, Y).");
        assert_eq!(texts[1], "anc(X, Y) :- anc@q1(X, Z~1), par(Z~1, Y).");
        // α2's head carries the step-1 call args (X, Z~1) and its body is
        // the step-2 renamed rule, recursing to p (= anc).
        assert_eq!(texts[2], "anc@p1(X, Z~1) :- anc(X, Z~2), par(Z~2, Z~1).");
        // γ1: the exit rule verbatim; γ2: exit rule with head anc@q1.
        assert_eq!(texts[3], "anc(X, Y) :- par(X, Y).");
        assert_eq!(texts[4], "anc@q1(X, Z~1) :- par(X, Z~1).");
    }

    #[test]
    fn alpha_rules_share_unfolding_variables() {
        let (p, info) = setup(ANC, "anc");
        let u = unfold(&p, &info, &[1, 1, 1]).unwrap();
        let iso = isolate(&p, &info, &u);
        // The variables of α-rule i are exactly the step-i literals' vars
        // plus the chaining vars: each unfolding body literal must appear
        // verbatim in its α-rule.
        for sl in &u.body {
            let ar = &iso.program.rules[iso.alpha[sl.step - 1]];
            assert!(
                ar.body.contains(&sl.lit),
                "literal {} not found in α-rule {}",
                sl.lit,
                ar
            );
        }
    }

    #[test]
    fn exit_rule_may_close_sequence() {
        let (p, info) = setup(ANC, "anc");
        let u = unfold(&p, &info, &[1, 0]).unwrap();
        let iso = isolate(&p, &info, &u);
        // α2 is the exit rule at step 2: head anc@p1, no recursive subgoal.
        let a2 = &iso.program.rules[iso.alpha[1]];
        assert_eq!(a2.head.pred.name(), "anc@p1");
        assert!(a2.body_atoms().all(|a| a.pred != Pred::new("anc")));
        // γ-group 2 contains the recursive rule (l=1 ≠ j2=0) with head
        // anc@q1 — wait, q^1 is only reachable via β1, and its rules come
        // from group 2. Check it recurses back to anc.
        let q1 = Pred::new("anc@q1");
        let q1_rules: Vec<&Rule> = iso
            .program
            .rules
            .iter()
            .filter(|r| r.head.pred == q1)
            .collect();
        assert_eq!(q1_rules.len(), 1);
        assert!(q1_rules[0].body_atoms().any(|a| a.pred == Pred::new("anc")));
    }

    #[test]
    fn other_predicates_pass_through() {
        let (p, info) = setup(
            "anc(X,Y) :- par(X,Y). anc(X,Y) :- anc(X,Z), par(Z,Y).
             sib(X,Y) :- par(Z,X), par(Z,Y).",
            "anc",
        );
        let u = unfold(&p, &info, &[1, 1]).unwrap();
        let iso = isolate(&p, &info, &u);
        assert!(iso
            .program
            .rules
            .iter()
            .any(|r| r.head.pred == Pred::new("sib")));
    }

    #[test]
    fn all_rules_range_restricted_and_connected() {
        let (p, info) = setup(ANC, "anc");
        for seq in [
            vec![1],
            vec![1, 1],
            vec![1, 1, 1],
            vec![1, 0],
            vec![1, 1, 0],
        ] {
            let u = unfold(&p, &info, &seq).unwrap();
            let iso = isolate(&p, &info, &u);
            let no_facts = semrec_datalog::Facts::new();
            semrec_datalog::analysis::check(&iso.program, &[], &no_facts).unwrap();
        }
    }
}
