//! Safety for bottom-up evaluation, in the engine compiler's binding
//! order. Beyond the paper's range restriction, every body literal must
//! run and every head term be bound as the body drains to a fixpoint: a
//! positive subgoal runs at once and binds its variables; a builtin runs
//! once two arguments are bound and binds the third; `=` with one side
//! bound binds the other, other comparisons need both; a negated subgoal
//! needs its variables bound, but for a generated one (a `$` in its name,
//! which `.dl` text cannot spell) occurring nowhere else, which is
//! existential; a negated builtin never runs.

use crate::atom::Pred;
use crate::literal::{CmpOp, Literal};
use crate::rule::Rule;
use crate::symbol::Symbol;
use crate::term::Term;

/// The builtin predicates: arithmetic the engine computes instead of
/// reading a relation. No rule or fact may define one.
pub const BUILTINS: [&str; 2] = ["plus", "times"];

/// The arity of every builtin.
pub const BUILTIN_ARITY: usize = 3;

/// True if `p` names a builtin.
pub fn is_builtin(p: Pred) -> bool {
    BUILTINS.contains(&p.name())
}

/// True when `v` is a generated variable occurring in body literal `li`
/// and nowhere else in `rule`: inside a negation it is existential.
fn existential(rule: &Rule, li: usize, v: Symbol) -> bool {
    let elsewhere = |(lj, l): (usize, &Literal)| lj != li && l.var_iter().any(|w| w == v);
    v.as_str().contains('$')
        && !rule.head.vars().any(|x| x == v)
        && !rule.body.iter().enumerate().any(elsewhere)
}

/// The variables a body binds, reused rule after rule by
/// [`check`](super::check), and which body literals ran.
#[derive(Default)]
pub(super) struct Drain {
    bound: Vec<Symbol>,
    ran: Vec<bool>,
}

impl Drain {
    /// [`unsafe_detail`] of `rule`, draining its body to its fixpoint.
    pub(super) fn unsafe_detail(&mut self, rule: &Rule) -> Option<String> {
        let (bound, ran) = (&mut self.bound, &mut self.ran);
        bound.clear();
        ran.clear();
        ran.resize(rule.body.len(), false);
        let mut progressed = true;
        while progressed {
            progressed = false;
            for (li, l) in rule.body.iter().enumerate() {
                if ran[li] {
                    continue;
                }
                let known = |t: &Term| match t {
                    Term::Const(_) => true,
                    Term::Var(v) => bound.contains(v),
                };
                ran[li] = match l {
                    Literal::Atom(a) if is_builtin(a.pred) => {
                        let args = a.args.iter().filter(|t| known(t)).count();
                        a.arity() == BUILTIN_ARITY && args >= 2
                    }
                    Literal::Atom(_) => true,
                    Literal::Cmp(c) => match (known(&c.lhs), known(&c.rhs)) {
                        (true, true) => true,
                        (true, false) | (false, true) => c.op == CmpOp::Eq,
                        (false, false) => false,
                    },
                    Literal::Neg(a) => {
                        !is_builtin(a.pred)
                            && (a.vars()).all(|v| bound.contains(&v) || existential(rule, li, v))
                    }
                };
                if ran[li] {
                    for v in l.var_iter() {
                        if !bound.contains(&v) {
                            bound.push(v);
                        }
                    }
                    progressed = true;
                }
            }
        }
        if let Some((l, _)) = rule.body.iter().zip(ran.iter()).find(|(_, &ran)| !ran) {
            return Some(match l {
                Literal::Cmp(c) => format!("comparison `{c}` has unbound variables"),
                Literal::Neg(a) if is_builtin(a.pred) => {
                    format!("builtin `{a}` cannot be negated")
                }
                Literal::Neg(a) => format!("negated subgoal `!{a}` has unbound variables"),
                Literal::Atom(a) => format!("builtin `{a}` needs at least two bound arguments"),
            });
        }
        let unbound = |t: &&Term| t.as_var().is_some_and(|v| !bound.contains(&v));
        let t = rule.head.args.iter().find(unbound)?;
        Some(format!("head term `{t}` is not bound by the body"))
    }
}

/// Why `rule` cannot run bottom-up, in the compiler's words: the first
/// body literal that never runs, else the first head term the body does
/// not bind. `None` for a safe rule.
pub fn unsafe_detail(rule: &Rule) -> Option<String> {
    Drain::default().unsafe_detail(rule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_rule;

    fn detail(src: &str) -> Option<String> {
        unsafe_detail(&parse_rule(src).unwrap())
    }

    #[test]
    fn atoms_and_equality_chains_bind() {
        for safe in [
            "p(X,Y) :- e(X,Y), X < Y.",
            "p(X,Y) :- e(X), Y = X.",
            "p(X,Y) :- e(X), Y = 3.",
            "p(X,Y) :- e(X), Y = Z, Z = X.",
        ] {
            assert_eq!(detail(safe), None, "{safe}");
        }
    }

    #[test]
    fn inequality_does_not_bind() {
        assert_eq!(
            detail("p(X,Y) :- e(X), Y < 3.").as_deref(),
            Some("comparison `Y < 3` has unbound variables")
        );
    }

    #[test]
    fn head_only_var_is_unsafe() {
        assert_eq!(
            detail("p(X,Y) :- e(X).").as_deref(),
            Some("head term `Y` is not bound by the body")
        );
    }
}
