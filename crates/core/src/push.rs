//! Pushing residues inside recursion (§4): atom elimination, atom
//! introduction, and subtree pruning, applied through a *full-commitment*
//! variant of Algorithm 4.1's isolation.
//!
//! # Why not edit the α-rules directly
//!
//! The paper applies each optimization to "the i-th α-rule" of the isolated
//! program. In the α/β/γ structure, a proof tree that passes through the
//! i-th α-rule is only guaranteed to match the first `i+1` elements of the
//! sequence — it may still deviate below. A residue, however, is justified
//! by premises (the IC's matched atoms) that can sit at *any* level of the
//! sequence: in Example 4.1 the `boss` premise sits at level 4 while the
//! eliminated `experienced` atom sits at level 1. Editing the first α-rule
//! would therefore also affect trees in which the premise never occurs.
//!
//! This module instead isolates the sequence with commitment at the top:
//!
//! * a **strict chain** `p → σ1 → σ2 → … → σk` whose trees match the full
//!   sequence, built with the unfolding's variable renaming (so residue
//!   variables attach syntactically);
//! * **deviation chains** covering trees that match a proper prefix and
//!   then apply a different rule;
//! * the untouched rules for every other case.
//!
//! Every tree has exactly one parse, so the construction is equivalence-
//! preserving. Optimizations are applied *only to strict-chain rules*,
//! where the full sequence — and hence every premise — is guaranteed:
//!
//! * a **conditional** residue `E → …` splits the strict chain into an
//!   optimized chain carrying `E` (each conjunct checked at the deepest
//!   level where its variables are visible) and complement chains carrying
//!   the disjuncts of `¬E`;
//! * **atom elimination** removes the redundant atom from its level in the
//!   optimized chain;
//! * **atom introduction** adds the implied atom (small relation or
//!   evaluable filter) at the deepest level where its variables are
//!   visible;
//! * **subtree pruning** simply deletes the optimized chain — those trees
//!   provably derive nothing.

use crate::residue::{Residue, ResidueHead};
use crate::sequence::Unfolding;
use semrec_datalog::analysis::{safety, RecursionInfo};
use semrec_datalog::atom::{Atom, Pred};
use semrec_datalog::literal::{Cmp, Literal};
use semrec_datalog::program::Program;
use semrec_datalog::rule::Rule;
use semrec_datalog::subst::Subst;
use semrec_datalog::symbol::Symbol;
use semrec_datalog::term::Term;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The kind of optimization a residue induced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OptKind {
    /// §4(1): a redundant atom deleted from the sequence.
    AtomElimination,
    /// §4(2): an implied evaluable filter or small relation added.
    AtomIntroduction,
    /// §4(3): the sequence's trees pruned (conditionally or not).
    SubtreePruning,
}

impl fmt::Display for OptKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OptKind::AtomElimination => "atom elimination",
            OptKind::AtomIntroduction => "atom introduction",
            OptKind::SubtreePruning => "subtree pruning",
        };
        f.write_str(s)
    }
}

/// Why a residue was not pushed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SkipReason {
    /// Fact residue with a database-atom head that is neither useful
    /// (elimination) nor whitelisted as a small relation (introduction).
    NotUsefulNotSmall,
    /// A condition (or the introduced atom) has variables not all visible
    /// at any single level of the strict chain.
    NotLocalizable,
    /// Deleting the atom would leave an unsafe rule (e.g. an output
    /// variable would become unbound).
    WouldBreakSafety,
    /// The target atom was already removed by an earlier residue.
    AlreadyEliminated,
}

impl fmt::Display for SkipReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SkipReason::NotUsefulNotSmall => {
                "head atom neither occurs in the sequence nor is a small relation"
            }
            SkipReason::NotLocalizable => "variables not visible together at any level",
            SkipReason::WouldBreakSafety => "deletion would leave an unsafe rule",
            SkipReason::AlreadyEliminated => "target atom already eliminated",
        };
        f.write_str(s)
    }
}

/// A successfully pushed residue.
#[derive(Clone, Debug)]
pub struct Applied {
    /// What kind of optimization.
    pub kind: OptKind,
    /// The residue that induced it.
    pub residue: Residue,
    /// Human-readable description.
    pub note: String,
}

/// A residue that could not be pushed.
#[derive(Clone, Debug)]
pub struct Skipped {
    /// The residue.
    pub residue: Residue,
    /// Why.
    pub reason: SkipReason,
}

/// What `residue` can do (§4), the one place its use is decided: a null
/// residue prunes the sequence's trees, a useful fact residue eliminates
/// the atom its head makes redundant, and an evaluable residue or a fact
/// residue over one of the `small` relations introduces its head. A fact
/// head that is neither useful nor small drives nothing.
pub fn action(residue: &Residue, small: &BTreeSet<Pred>) -> Result<OptKind, SkipReason> {
    match &residue.head {
        ResidueHead::Null => Ok(OptKind::SubtreePruning),
        ResidueHead::Cmp(_) => Ok(OptKind::AtomIntroduction),
        ResidueHead::Atom(_) if residue.useful_at.is_some() => Ok(OptKind::AtomElimination),
        ResidueHead::Atom(a) if small.contains(&a.pred) => Ok(OptKind::AtomIntroduction),
        ResidueHead::Atom(_) => Err(SkipReason::NotUsefulNotSmall),
    }
}

/// One strict chain: the per-step bodies (level 1 first). The recursive
/// subgoal inside each body still carries the original predicate `p`; it is
/// retargeted to chain-local auxiliary predicates on emission.
#[derive(Clone, Debug)]
struct Chain {
    steps: Vec<Vec<Literal>>,
}

/// A pushing session for one (program, predicate, sequence).
pub struct Pusher<'a> {
    program: &'a Program,
    info: &'a RecursionInfo,
    unfolding: &'a Unfolding,
    chains: Vec<Chain>,
    applied: Vec<Applied>,
    skipped: Vec<Skipped>,
}

impl<'a> Pusher<'a> {
    /// Starts a session. `program` must be rectified and `unfolding` must
    /// come from [`crate::sequence::unfold`] on it.
    pub fn new(program: &'a Program, info: &'a RecursionInfo, unfolding: &'a Unfolding) -> Self {
        let k = unfolding.seq.len();
        let steps = (1..=k).map(|i| unfolding.step_body(program, i)).collect();
        Pusher {
            program,
            info,
            unfolding,
            chains: vec![Chain { steps }],
            applied: Vec::new(),
            skipped: Vec::new(),
        }
    }

    /// The deepest level at which all of `vars` are visible: each is one
    /// of the level's head arguments or occurs in its body.
    fn home_level(
        &self,
        chain: &Chain,
        vars: impl Iterator<Item = Symbol> + Clone,
    ) -> Option<usize> {
        (1..=chain.steps.len()).rev().find(|&i| {
            let head = self.unfolding.call_args(i - 1);
            let body = &chain.steps[i - 1];
            let in_body = |v| body.iter().any(|l| l.var_iter().any(|w| w == v));
            vars.clone()
                .all(|v| head.contains(&Term::Var(v)) || in_body(v))
        })
    }

    /// Applies one residue as [`action`] decides, with `small` the
    /// relations introduction may add; records the outcome.
    pub fn push(&mut self, residue: &Residue, small: &BTreeSet<Pred>) {
        let outcome = action(residue, small).and_then(|kind| match kind {
            OptKind::SubtreePruning => self.push_pruning(residue),
            OptKind::AtomElimination => self.push_elimination(residue),
            OptKind::AtomIntroduction => self.push_introduction(residue),
        });
        match outcome {
            Ok(applied) => self.applied.push(applied),
            Err(reason) => self.skipped.push(Skipped {
                residue: residue.clone(),
                reason,
            }),
        }
    }

    /// Splits `chain` into the optimized chain (conditions added, `edit`
    /// applied) and the `¬E` complement chains. Returns `None` if some
    /// condition is not localizable or the edit fails.
    fn split_chain(
        &self,
        chain: &Chain,
        conditions: &[Cmp],
        edit: impl Fn(&mut Chain) -> Result<(), SkipReason>,
    ) -> Result<Vec<Chain>, SkipReason> {
        // Locate each condition's home level first.
        let mut homes = Vec::with_capacity(conditions.len());
        for c in conditions {
            let vars = [c.lhs, c.rhs].into_iter().filter_map(Term::as_var);
            let home = (self.home_level(chain, vars)).ok_or(SkipReason::NotLocalizable)?;
            homes.push(home);
        }

        let mut out = Vec::new();
        // Optimized chain: all conditions + the edit.
        let mut opt = chain.clone();
        for (c, &home) in conditions.iter().zip(&homes) {
            opt.steps[home - 1].push(Literal::Cmp(*c));
        }
        edit(&mut opt)?;
        out.push(opt);
        // Complement chains: ¬(E1 ∧ … ∧ Em) as disjoint disjuncts
        // E1 … E_{j-1} ∧ ¬E_j.
        for j in 0..conditions.len() {
            let mut comp = chain.clone();
            for (c, &home) in conditions.iter().zip(&homes).take(j) {
                comp.steps[home - 1].push(Literal::Cmp(*c));
            }
            comp.steps[homes[j] - 1].push(Literal::Cmp(conditions[j].negate()));
            out.push(comp);
        }
        Ok(out)
    }

    fn rebuild_chains(
        &mut self,
        residue: &Residue,
        edit: impl Fn(&Self, &mut Chain) -> Result<(), SkipReason>,
    ) -> Result<usize, SkipReason> {
        let mut new_chains = Vec::new();
        let mut touched = 0usize;
        for chain in &self.chains {
            match self.split_chain(chain, &residue.body, |c| edit(self, c)) {
                Ok(mut split) => {
                    touched += 1;
                    new_chains.append(&mut split);
                }
                Err(SkipReason::AlreadyEliminated) => new_chains.push(chain.clone()),
                Err(e) => return Err(e),
            }
        }
        if touched == 0 {
            return Err(SkipReason::AlreadyEliminated);
        }
        self.chains = new_chains;
        Ok(touched)
    }

    fn push_elimination(&mut self, residue: &Residue) -> Result<Applied, SkipReason> {
        let at = residue.useful_at.expect("an eliminating residue is useful");
        let target = self.unfolding.body[at.body_index].lit.clone();
        let level = at.step;
        let unfolding = self.unfolding;
        self.rebuild_chains(residue, |_, chain| {
            let body = &mut chain.steps[level - 1];
            let Some(pos) = body.iter().position(|l| l == &target) else {
                return Err(SkipReason::AlreadyEliminated);
            };
            body.remove(pos);
            // The level's rule must stay safe and range restricted.
            if !Self::level_rule_safe(chain, level, unfolding) {
                return Err(SkipReason::WouldBreakSafety);
            }
            Ok(())
        })?;
        Ok(Applied {
            kind: OptKind::AtomElimination,
            residue: residue.clone(),
            note: format!("deleted {} at level {}", target, level),
        })
    }

    fn push_pruning(&mut self, residue: &Residue) -> Result<Applied, SkipReason> {
        // The optimized chain derives nothing: drop it, keep complements.
        let mut new_chains = Vec::new();
        for chain in &self.chains {
            let split = self.split_chain(chain, &residue.body, |_| Ok(()))?;
            // split[0] is the optimized (pruned) chain; keep the rest.
            new_chains.extend(split.into_iter().skip(1));
        }
        self.chains = new_chains;
        Ok(Applied {
            kind: OptKind::SubtreePruning,
            residue: residue.clone(),
            note: if residue.body.is_empty() {
                "pruned the sequence unconditionally".to_owned()
            } else {
                format!(
                    "pruned the sequence when {}",
                    residue
                        .body
                        .iter()
                        .map(|c| c.to_string())
                        .collect::<Vec<_>>()
                        .join(" and ")
                )
            },
        })
    }

    fn push_introduction(&mut self, residue: &Residue) -> Result<Applied, SkipReason> {
        // Build the literal to add; IC-existential variables become fresh
        // locals.
        let u = self.unfolding;
        let mut unfolding_vars: BTreeSet<Symbol> = u
            .head
            .vars()
            .chain(u.tail().into_iter().flatten().filter_map(|t| t.as_var()))
            .collect();
        unfolding_vars.extend(u.body.iter().flat_map(|sl| sl.lit.var_iter()));
        let lit: Literal = match &residue.head {
            ResidueHead::Cmp(c) => Literal::Cmp(*c),
            ResidueHead::Atom(a) => {
                let mut fresh = Subst::new();
                for v in a.vars() {
                    if !unfolding_vars.contains(&v) {
                        fresh.insert(v, Term::Var(Symbol::fresh(v.as_str())));
                    }
                }
                Literal::Atom(fresh.apply_atom(a))
            }
            ResidueHead::Null => unreachable!("pruning handled separately"),
        };
        // Anchor on the bound (unfolding) variables only.
        let anchor_vars: BTreeSet<Symbol> = lit
            .vars()
            .into_iter()
            .filter(|v| unfolding_vars.contains(v))
            .collect();
        let lit2 = lit.clone();
        self.rebuild_chains(residue, move |s, chain| {
            let home = s
                .home_level(chain, anchor_vars.iter().copied())
                .ok_or(SkipReason::NotLocalizable)?;
            chain.steps[home - 1].push(lit2.clone());
            Ok(())
        })?;
        Ok(Applied {
            kind: OptKind::AtomIntroduction,
            residue: residue.clone(),
            note: format!("introduced {lit}"),
        })
    }

    /// Whether `level`'s rule stays safe, judged on the level's body in
    /// place.
    fn level_rule_safe(chain: &mut Chain, level: usize, unfolding: &Unfolding) -> bool {
        let head = Atom::new(Pred::new("chk@"), unfolding.call_args(level - 1).to_vec());
        let rule = Rule::new(head, std::mem::take(&mut chain.steps[level - 1]));
        let safe = safety::unsafe_detail(&rule).is_none();
        chain.steps[level - 1] = rule.body;
        safe
    }

    /// Emits the rules that replace the predicate's own: strict chains
    /// (with all edits), deviation chains and the remaining original
    /// rules. Rules of other predicates are not touched by a push and
    /// not copied. Edits can leave rules that never fire;
    /// [`IdbLiveness::clean_block`] removes them.
    ///
    /// [`IdbLiveness::clean_block`]: crate::cleanup::IdbLiveness::clean_block
    pub fn finish(self) -> PushResult {
        let p = self.info.pred;
        let seq = &self.unfolding.seq;
        let k = seq.len();
        let all_rules = self.info.all_rules();
        let mut rules: Vec<Rule> = Vec::new();

        // Strict chains.
        for (ci, chain) in self.chains.iter().enumerate() {
            for i in 1..=k {
                let head_pred = if i == 1 {
                    p
                } else {
                    Pred::new(&format!("{}@s{ci}x{}", p.name(), i - 1))
                };
                let next_pred = if i == k {
                    p
                } else {
                    Pred::new(&format!("{}@s{ci}x{i}", p.name()))
                };
                let head = Atom::new(head_pred, self.unfolding.call_args(i - 1).to_vec());
                let body: Vec<Literal> = chain.steps[i - 1]
                    .iter()
                    .map(|l| match l {
                        Literal::Atom(a) if a.pred == p => {
                            let mut a = a.clone();
                            a.pred = next_pred;
                            Literal::Atom(a)
                        }
                        other => other.clone(),
                    })
                    .collect();
                rules.push(Rule::new(head, body));
            }
        }

        // Deviation structure (only needed for k ≥ 2): trees that match a
        // proper prefix of the sequence and then deviate.
        if k >= 2 {
            let dev_pred = |i: usize| Pred::new(&format!("{}@d{i}", p.name()));
            // Entry: apply r_{j1}, commit to deviating before completing s.
            let entry = self.retarget(&self.program.rules[seq[0]], p, dev_pred(1), 1, 0);
            rules.push(entry);
            for (i, &next) in seq.iter().enumerate().take(k).skip(1) {
                // Escape now: apply any rule ≠ r_{j,i+1}, recursing to p.
                for &l in &all_rules {
                    if l == next {
                        continue;
                    }
                    let mut esc = self.retarget(&self.program.rules[l], p, p, i + 1, l);
                    esc.head.pred = dev_pred(i);
                    rules.push(esc);
                }
                // Continue matching (still committed to deviate later).
                if i + 1 < k {
                    let mut cont =
                        self.retarget(&self.program.rules[next], p, dev_pred(i + 1), i + 1, next);
                    cont.head.pred = dev_pred(i);
                    rules.push(cont);
                }
            }
        }

        // The original rules other than r_{j1} (immediate deviation).
        for &l in &all_rules {
            if l != seq[0] {
                rules.push(self.program.rules[l].clone());
            }
        }

        PushResult {
            rules,
            applied: self.applied,
            skipped: self.skipped,
        }
    }

    /// A copy of `rule` with locals freshened (tagged by `(level, tag)`)
    /// and the recursive subgoal retargeted.
    fn retarget(&self, rule: &Rule, p: Pred, target: Pred, level: usize, tag: usize) -> Rule {
        let mut sigma = Subst::new();
        for v in rule.local_vars() {
            sigma.insert(v, Term::Var(Symbol::intern(&format!("{v}~v{level}t{tag}"))));
        }
        let body = rule
            .body
            .iter()
            .map(|l| match l {
                Literal::Atom(a) if a.pred == p => {
                    let mut a = sigma.apply_atom(a);
                    a.pred = target;
                    Literal::Atom(a)
                }
                other => sigma.apply_literal(other),
            })
            .collect();
        Rule::new(sigma.apply_atom(&rule.head), body)
    }
}

/// The result of a pushing session.
#[derive(Clone, Debug)]
pub struct PushResult {
    /// The rules that replace the predicate's block — its own and the
    /// `@`-named auxiliaries they use — before dead-rule cleanup.
    pub rules: Vec<Rule>,
    /// Successfully pushed residues.
    pub applied: Vec<Applied>,
    /// Residues that could not be pushed.
    pub skipped: Vec<Skipped>,
}

/// `program` with the rules of each predicate in `blocks` replaced by the
/// given ones: the untouched rules first, in order, then each block.
pub fn replace_blocks(program: &Program, blocks: BTreeMap<Pred, Vec<Rule>>) -> Program {
    let mut rules: Vec<Rule> = program
        .rules
        .iter()
        .filter(|r| !blocks.contains_key(&r.head.pred))
        .cloned()
        .collect();
    rules.extend(blocks.into_values().flatten());
    Program::new(rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{detect, DetectionMethod};
    use crate::sequence::unfold;
    use semrec_datalog::analysis::{classify_linear_pred, rectify};
    use semrec_datalog::parser::parse_unit;
    use semrec_engine::{evaluate, Database, Strategy};

    fn setup(src: &str, pred: &str) -> (Program, RecursionInfo, Vec<semrec_datalog::Constraint>) {
        let unit = parse_unit(src).unwrap();
        let (p, _) = rectify(&unit.program());
        let info = classify_linear_pred(&p, Pred::new(pred)).unwrap();
        (p, info, unit.constraints)
    }

    /// The whole program after the push, cleaned as the optimizer does.
    pub(super) fn spliced(p: &Program, info: &RecursionInfo, res: &PushResult) -> Program {
        let rules = crate::cleanup::IdbLiveness::new(p).clean_block(info.pred, res.rules.clone());
        replace_blocks(p, BTreeMap::from([(info.pred, rules)]))
    }

    /// Example 4.3: conditional pruning on the genealogy program.
    #[test]
    fn pruning_example_4_3() {
        let (p, info, ics) = setup(
            "anc(X, Xa, Y, Ya) :- par(X, Xa, Y, Ya).
             anc(X, Xa, Y, Ya) :- anc(X, Xa, Z, Za), par(Z, Za, Y, Ya).
             ic: Ya <= 50, par(Z, Za, Y, Ya), par(Z1, Z1a, Z, Za), par(Z2, Z2a, Z1, Z1a) -> .",
            "anc",
        );
        let ds = detect(&p, &info, &ics[0], DetectionMethod::SdGraph, 1).unwrap();
        let d = ds
            .iter()
            .find(|d| d.is_null() && d.seq == vec![1, 1, 1])
            .unwrap();
        let u = unfold(&p, &info, &d.seq).unwrap();
        let mut pusher = Pusher::new(&p, &info, &u);
        pusher.push(d, &BTreeSet::new());
        let res = pusher.finish();
        assert_eq!(res.applied.len(), 1);
        assert_eq!(res.applied[0].kind, OptKind::SubtreePruning);
        // The optimized strict chain is gone; a complement chain with the
        // negated condition remains.
        let has_negated = res
            .rules
            .iter()
            .any(|r| r.body_cmps().any(|c| c.to_string() == "Ya > 50"));
        assert!(has_negated, "rules: {:?}", res.rules);
    }

    /// Equivalence of the pushed program on an IC-satisfying database.
    #[test]
    fn pruning_preserves_semantics_on_consistent_db() {
        let (p, info, ics) = setup(
            "anc(X, Xa, Y, Ya) :- par(X, Xa, Y, Ya).
             anc(X, Xa, Y, Ya) :- anc(X, Xa, Z, Za), par(Z, Za, Y, Ya).
             ic: Ya <= 50, par(Z, Za, Y, Ya), par(Z1, Z1a, Z, Za), par(Z2, Z2a, Z1, Z1a) -> .",
            "anc",
        );
        let ds = detect(&p, &info, &ics[0], DetectionMethod::SdGraph, 1).unwrap();
        let d = ds
            .iter()
            .find(|d| d.is_null() && d.seq == vec![1, 1, 1])
            .unwrap();
        let u = unfold(&p, &info, &d.seq).unwrap();
        let mut pusher = Pusher::new(&p, &info, &u);
        pusher.push(d, &BTreeSet::new());
        let res = pusher.finish();

        // Three generations, ages decreasing by 30 per generation; the
        // 3-generation IC holds (ancestors of the young have age > 50).
        let mut db = Database::new();
        let mut fact = |child: i64, ca: i64, par: i64, pa: i64| {
            db.insert(
                "par",
                vec![
                    semrec_datalog::Value::Int(child),
                    semrec_datalog::Value::Int(ca),
                    semrec_datalog::Value::Int(par),
                    semrec_datalog::Value::Int(pa),
                ],
            );
        };
        fact(1, 20, 2, 45);
        fact(2, 45, 3, 75);
        fact(3, 75, 4, 105);
        fact(5, 25, 2, 45);
        for ic in &ics {
            assert!(db.satisfies(ic));
        }
        let base = evaluate(&db, &p, Strategy::SemiNaive).unwrap();
        let opt = evaluate(&db, &spliced(&p, &info, &res), Strategy::SemiNaive).unwrap();
        assert_eq!(
            base.relation("anc").unwrap().sorted_tuples(),
            opt.relation("anc").unwrap().sorted_tuples()
        );
    }

    /// Example 3.2/4.2: unconditional elimination of the expert atom.
    #[test]
    fn elimination_example_3_2() {
        let (p, info, ics) = setup(
            "eval(P, S, T) :- super(P, S, T).
             eval(P, S, T) :- works_with(P, P1), eval(P1, S, T), expert(P, F), field(T, F).
             ic: works_with(P2, P1), expert(P1, F1) -> expert(P2, F1).",
            "eval",
        );
        let ds = detect(&p, &info, &ics[0], DetectionMethod::SdGraph, 1).unwrap();
        let d = ds
            .iter()
            .find(|d| d.is_useful() && d.seq == vec![1, 1])
            .unwrap();
        let u = unfold(&p, &info, &d.seq).unwrap();
        let mut pusher = Pusher::new(&p, &info, &u);
        pusher.push(d, &BTreeSet::new());
        let res = pusher.finish();
        assert_eq!(res.applied.len(), 1);
        assert_eq!(res.applied[0].kind, OptKind::AtomElimination);
        // The strict chain's level-1 rule lost its expert atom: count the
        // expert atoms across eval-rules — original had 1 per recursive
        // rule copy, the optimized strict chain drops one.
        let strict_level1 = res
            .rules
            .iter()
            .find(|r| {
                r.head.pred == Pred::new("eval")
                    && r.body_atoms().any(|a| a.pred.name().contains("@s0x1"))
            })
            .expect("strict chain entry");
        assert!(
            !strict_level1
                .body_atoms()
                .any(|a| a.pred == Pred::new("expert")),
            "expert not eliminated: {strict_level1}"
        );
    }

    /// Elimination must preserve semantics on a works_with/expert-closed DB.
    #[test]
    fn elimination_preserves_semantics_on_consistent_db() {
        let (p, info, ics) = setup(
            "eval(P, S, T) :- super(P, S, T).
             eval(P, S, T) :- works_with(P, P1), eval(P1, S, T), expert(P, F), field(T, F).
             ic: works_with(P2, P1), expert(P1, F1) -> expert(P2, F1).",
            "eval",
        );
        let ds = detect(&p, &info, &ics[0], DetectionMethod::SdGraph, 1).unwrap();
        let d = ds
            .iter()
            .find(|d| d.is_useful() && d.seq == vec![1, 1])
            .unwrap();
        let u = unfold(&p, &info, &d.seq).unwrap();
        let mut pusher = Pusher::new(&p, &info, &u);
        pusher.push(d, &BTreeSet::new());
        let res = pusher.finish();

        let v = semrec_datalog::Value::str;
        let mut db = Database::new();
        // works_with chain p0 -> p1 -> p2; expert closed under the IC.
        db.insert("works_with", vec![v("p0"), v("p1")]);
        db.insert("works_with", vec![v("p1"), v("p2")]);
        db.insert("expert", vec![v("p2"), v("db")]);
        db.insert("expert", vec![v("p1"), v("db")]);
        db.insert("expert", vec![v("p0"), v("db")]);
        db.insert("expert", vec![v("p1"), v("ai")]);
        db.insert("expert", vec![v("p0"), v("ai")]);
        db.insert("field", vec![v("thesis1"), v("db")]);
        db.insert("field", vec![v("thesis2"), v("ai")]);
        db.insert("super", vec![v("p2"), v("s1"), v("thesis1")]);
        db.insert("super", vec![v("p1"), v("s2"), v("thesis2")]);
        for ic in &ics {
            assert!(db.satisfies(ic));
        }
        let base = evaluate(&db, &p, Strategy::SemiNaive).unwrap();
        let opt = evaluate(&db, &spliced(&p, &info, &res), Strategy::SemiNaive).unwrap();
        assert_eq!(
            base.relation("eval").unwrap().sorted_tuples(),
            opt.relation("eval").unwrap().sorted_tuples()
        );
    }

    /// Example 4.2's conditional introduction of doctoral(S).
    #[test]
    fn introduction_of_small_relation() {
        let (p, info, ics) = setup(
            "es(P, S, T, M) :- base_es(P, S, T, M).
             es(P, S, T, M) :- link(P, P1), es(P1, S, T, M), pays(M, G, S, T).
             ic: pays(M, G, S, T), M > 10000 -> doctoral(S).",
            "es",
        );
        let ds = detect(&p, &info, &ics[0], DetectionMethod::SdGraph, 1).unwrap();
        let d = ds
            .iter()
            .find(|d| d.is_fact() && d.is_conditional())
            .expect("conditional fact residue");
        let u = unfold(&p, &info, &d.seq).unwrap();
        let mut pusher = Pusher::new(&p, &info, &u);
        pusher.push(d, &BTreeSet::from([Pred::new("doctoral")]));
        let res = pusher.finish();
        assert_eq!(res.applied.len(), 1, "skipped: {:?}", res.skipped);
        assert_eq!(res.applied[0].kind, OptKind::AtomIntroduction);
        assert!(res
            .rules
            .iter()
            .any(|r| r.body_atoms().any(|a| a.pred == Pred::new("doctoral"))));
        // And a complement rule with the negated condition exists.
        assert!(res
            .rules
            .iter()
            .any(|r| r.body_cmps().any(|c| c.to_string() == "M <= 10000")));
    }

    /// Without the small-relation whitelist the introduction is skipped.
    #[test]
    fn introduction_requires_whitelist() {
        let (p, info, ics) = setup(
            "es(P, S, T, M) :- base_es(P, S, T, M).
             es(P, S, T, M) :- link(P, P1), es(P1, S, T, M), pays(M, G, S, T).
             ic: pays(M, G, S, T), M > 10000 -> doctoral(S).",
            "es",
        );
        let ds = detect(&p, &info, &ics[0], DetectionMethod::SdGraph, 1).unwrap();
        let d = ds
            .iter()
            .find(|d| d.is_fact() && d.is_conditional())
            .unwrap();
        let u = unfold(&p, &info, &d.seq).unwrap();
        let mut pusher = Pusher::new(&p, &info, &u);
        pusher.push(d, &BTreeSet::new());
        let res = pusher.finish();
        assert!(res.applied.is_empty());
        assert_eq!(res.skipped[0].reason, SkipReason::NotUsefulNotSmall);
    }
}

#[cfg(test)]
mod skip_path_tests {
    use super::tests::spliced;
    use super::*;
    use crate::detect::{detect, DetectionMethod};
    use crate::sequence::unfold;
    use semrec_datalog::analysis::{classify_linear_pred, rectify};
    use semrec_datalog::parser::parse_unit;

    fn setup(src: &str, pred: &str) -> (Program, RecursionInfo, Vec<semrec_datalog::Constraint>) {
        let unit = parse_unit(src).unwrap();
        let (p, _) = rectify(&unit.program());
        let info = classify_linear_pred(&p, Pred::new(pred)).unwrap();
        (p, info, unit.constraints)
    }

    /// Deleting the atom would unbind an output variable: skipped with
    /// WouldBreakSafety.
    #[test]
    fn elimination_that_breaks_safety_is_skipped() {
        // witness(Z, W) where W is an output of the head: the IC implies
        // *some* witness exists, but the rule exports the specific W.
        let (p, info, ics) = setup(
            "r(X, W) :- base(X, W).
             r(X, W) :- edge(X, Z), witness(Z, W), r(Z, W0), W0 = W.
             ic: edge(X, Z) -> witness(Z, V).",
            "r",
        );
        let ds = detect(&p, &info, &ics[0], DetectionMethod::SdGraph, 1).unwrap();
        // If any residue is useful it must fail the safety check.
        for d in ds.iter().filter(|d| d.is_useful()) {
            let u = unfold(&p, &info, &d.seq).unwrap();
            let mut pusher = Pusher::new(&p, &info, &u);
            pusher.push(d, &BTreeSet::new());
            let res = pusher.finish();
            assert!(res.applied.is_empty());
            assert!(res
                .skipped
                .iter()
                .all(|s| s.reason == SkipReason::WouldBreakSafety
                    || s.reason == SkipReason::NotUsefulNotSmall));
        }
    }

    /// Pushing the same residue twice: the second application reports
    /// AlreadyEliminated.
    #[test]
    fn double_elimination_reports_already_eliminated() {
        let (p, info, ics) = setup(
            "reach(X, Y) :- edge(X, Y).
             reach(X, Y) :- edge(X, Z), witness(Z, W), reach(Z, Y).
             ic: edge(X, Z) -> witness(Z, W).",
            "reach",
        );
        let ds = detect(&p, &info, &ics[0], DetectionMethod::SdGraph, 1).unwrap();
        let d = ds
            .iter()
            .find(|d| d.is_useful() && d.seq == vec![1])
            .unwrap();
        let u = unfold(&p, &info, &d.seq).unwrap();
        let mut pusher = Pusher::new(&p, &info, &u);
        pusher.push(d, &BTreeSet::new());
        pusher.push(d, &BTreeSet::new());
        let res = pusher.finish();
        assert_eq!(res.applied.len(), 1);
        assert_eq!(res.skipped.len(), 1);
        assert_eq!(res.skipped[0].reason, SkipReason::AlreadyEliminated);
    }

    /// An unconditional null residue removes the committed chain entirely
    /// (the paper's "delete the rule defining p^{k-1}" case).
    #[test]
    fn unconditional_pruning_removes_the_chain() {
        let (p, info, ics) = setup(
            "t(X, Y) :- base(X, Y).
             t(X, Y) :- a(X, Z), t(Z, Y).
             ic: a(U, V), a(W, U) -> .",
            "t",
        );
        // The IC forbids a-chains of length 2: the 2-level sequence can be
        // pruned unconditionally.
        let ds = detect(&p, &info, &ics[0], DetectionMethod::SdGraph, 1).unwrap();
        let d = ds
            .iter()
            .find(|d| d.is_null() && !d.is_conditional())
            .expect("unconditional null residue");
        assert_eq!(d.seq, vec![1, 1]);
        let u = unfold(&p, &info, &d.seq).unwrap();
        let mut pusher = Pusher::new(&p, &info, &u);
        pusher.push(d, &BTreeSet::new());
        let res = pusher.finish();
        assert_eq!(res.applied.len(), 1);
        // No strict-chain predicates remain — only deviation structure.
        assert!(res.rules.iter().all(|r| !r.head.pred.name().contains("@s")));

        // Semantics on IC-consistent data (no 2-chains): equivalent.
        use semrec_engine::{evaluate, int_tuple, Database, Strategy};
        let mut db = Database::new();
        db.insert("a", int_tuple(&[1, 2]));
        db.insert("a", int_tuple(&[5, 6]));
        db.insert("base", int_tuple(&[2, 9]));
        db.insert("base", int_tuple(&[6, 9]));
        for ic in &ics {
            assert!(db.satisfies(ic));
        }
        let x = evaluate(&db, &p, Strategy::SemiNaive).unwrap();
        let y = evaluate(&db, &spliced(&p, &info, &res), Strategy::SemiNaive).unwrap();
        assert_eq!(
            x.relation("t").unwrap().sorted_tuples(),
            y.relation("t").unwrap().sorted_tuples()
        );
    }
}
