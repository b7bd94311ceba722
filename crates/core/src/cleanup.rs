//! Post-transformation program cleanup: removing rules that can never fire
//! and rules unreachable from the predicates of interest (the paper's "once
//! the rule for p^{k-1} is deleted every rule making use of the predicate
//! p^{k-1} can be deleted", generalized).

use semrec_datalog::atom::Pred;
use semrec_datalog::program::Program;
use semrec_datalog::rule::Rule;
use std::collections::BTreeSet;

/// Removes from `rules`, to a fixpoint:
/// * rules containing a trivially false comparison;
/// * rules with a body atom whose predicate is *IDB-like* but has no
///   defining rule left, neither among `rules` nor `elsewhere` (it can
///   never hold); predicates that are not IDB-like are assumed
///   extensional — they may hold facts even if the program never defines
///   them (e.g. relations only mentioned by ICs);
///
/// then drops rules whose head predicate is not reachable from `roots`.
fn remove_dead_rules(
    mut rules: Vec<Rule>,
    roots: &BTreeSet<Pred>,
    idb_like: impl Fn(Pred) -> bool,
    elsewhere: impl Fn(Pred) -> bool,
) -> Vec<Rule> {
    loop {
        let defined: BTreeSet<Pred> = rules.iter().map(|r| r.head.pred).collect();
        let before = rules.len();
        rules.retain(|r| {
            if r.body_cmps().any(|c| c.is_trivially_false()) {
                return false;
            }
            r.body_atoms()
                .all(|a| !idb_like(a.pred) || defined.contains(&a.pred) || elsewhere(a.pred))
        });
        if rules.len() == before {
            break;
        }
    }

    // Reachability from the roots over the remaining rules.
    let mut reachable: BTreeSet<Pred> = roots.clone();
    loop {
        let mut changed = false;
        for r in &rules {
            if reachable.contains(&r.head.pred) {
                for a in r.body_atoms() {
                    changed |= reachable.insert(a.pred);
                }
            }
        }
        if !changed {
            break;
        }
    }
    rules.retain(|r| reachable.contains(&r.head.pred));
    rules
}

/// What cleaning up after a push needs to know about the *rest* of the
/// program, computed once per program: its IDB predicates, and which of
/// them still have a rule that can fire. With it, the rules that replace
/// one recursive predicate are cleaned on their own, exactly as if the
/// whole program had been.
///
/// That is sound because the program has no mutual recursion: whatever
/// the rules of `p` call does not call `p` back, so whether those callees
/// stay defined does not depend on what the push did to `p`.
pub struct IdbLiveness {
    idb: BTreeSet<Pred>,
    live: BTreeSet<Pred>,
}

impl IdbLiveness {
    /// Analyzes `program` (one pass of the dead-rule fixpoint over all of
    /// it).
    pub fn new(program: &Program) -> IdbLiveness {
        let idb = program.idb_preds();
        let live = remove_dead_rules(program.rules.clone(), &idb, |p| idb.contains(&p), |_| false)
            .iter()
            .map(|r| r.head.pred)
            .collect();
        IdbLiveness { idb, live }
    }

    /// Cleans `rules` — the rules for `pred` plus the generated auxiliary
    /// predicates only they use — against the rest of the program.
    pub fn clean_block(&self, pred: Pred, rules: Vec<Rule>) -> Vec<Rule> {
        // IDB-like: anything the program defines plus every generated
        // auxiliary predicate; everything else may hold EDB facts.
        let generated: BTreeSet<Pred> = rules.iter().map(|r| r.head.pred).collect();
        remove_dead_rules(
            rules,
            &BTreeSet::from([pred]),
            |p| self.idb.contains(&p) || generated.contains(&p),
            |p| p != pred && self.live.contains(&p),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_datalog::parser::parse_unit;

    fn clean(src: &str, roots: &[&str], idb_like: &[&str]) -> Program {
        let p = parse_unit(src).unwrap().program();
        let idb_like: BTreeSet<Pred> = idb_like.iter().map(|s| Pred::new(s)).collect();
        Program::new(remove_dead_rules(
            p.rules,
            &roots.iter().map(|s| Pred::new(s)).collect(),
            |p| idb_like.contains(&p),
            |_| false,
        ))
    }

    #[test]
    fn drops_undefined_body_predicates_transitively() {
        let p = clean(
            "a(X) :- ghost(X).
             b(X) :- a(X).
             c(X) :- e(X).",
            &["b", "c"],
            &["a", "b", "c", "ghost"],
        );
        // ghost is IDB-like but undefined → a dropped → b dropped.
        assert_eq!(p.len(), 1);
        assert_eq!(p.rules[0].head.pred, Pred::new("c"));
    }

    #[test]
    fn non_idb_predicates_are_assumed_extensional() {
        // ghost is NOT declared IDB-like → kept (it may hold EDB facts).
        let p = clean("a(X) :- ghost(X).", &["a"], &["a"]);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn drops_trivially_false_rules() {
        let p = clean("a(X) :- e(X), 1 > 2. a(X) :- e(X).", &["a"], &["a"]);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn drops_unreachable_rules() {
        let p = clean("a(X) :- e(X). z(X) :- e(X).", &["a"], &["a", "z"]);
        assert_eq!(p.len(), 1);
        assert_eq!(p.rules[0].head.pred, Pred::new("a"));
    }

    #[test]
    fn keeps_recursive_structures() {
        let p = clean(
            "t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), t(Z,Y).",
            &["t"],
            &["t"],
        );
        assert_eq!(p.len(), 2);
    }

    /// Cleaning a block alone must give what cleaning the whole program
    /// gave: callees that died elsewhere take the block's rules with them,
    /// live callees and EDB predicates do not, and the block's own
    /// predicate counts as defined only by the block's surviving rules.
    #[test]
    fn block_cleanup_sees_the_rest_of_the_program() {
        let program = parse_unit(
            "dead(X) :- e(X), 1 > 2.
             gone(X) :- dead(X).
             live(X) :- e(X).
             t(X) :- e(X).",
        )
        .unwrap()
        .program();
        let liveness = IdbLiveness::new(&program);
        let block = parse_unit(
            "t(X) :- e(X), live(X).
             t(X) :- gone(X), t(X).
             t(X) :- t_s0x1(X).
             t_s0x1(X) :- e(X), 3 < 2.
             t_d1(X) :- e(X).",
        )
        .unwrap()
        .program();
        let kept = liveness.clean_block(Pred::new("t"), block.rules);
        assert_eq!(kept.len(), 1, "{kept:?}");
        assert_eq!(kept[0].to_string(), "t(X) :- e(X), live(X).");

        // Every rule of the block can die, leaving the predicate empty.
        let block = parse_unit("t(X) :- e(X), 1 > 2. t(X) :- gone(X), t(X).")
            .unwrap()
            .program();
        assert!(liveness.clean_block(Pred::new("t"), block.rules).is_empty());
    }
}
