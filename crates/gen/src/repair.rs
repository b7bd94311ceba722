//! Constraint repair (a bounded chase): turns an arbitrary database into
//! one satisfying a set of ICs, so randomized tests can exercise the
//! optimizer on arbitrary (program, IC, data) combinations.
//!
//! * atom-head ICs (tuple-generating): the implied fact is added; head
//!   variables not bound by the body receive a fresh labelled null
//!   (an interned `null<n>` constant);
//! * comparison-head ICs and denials: one body fact of each violation is
//!   removed (the first atom's match), which may cascade — hence the
//!   round limit.

use semrec_datalog::constraint::{Constraint, IcHead};
use semrec_datalog::subst::Subst;
use semrec_datalog::term::{Term, Value};
use semrec_engine::{Database, Tuple};

/// The outcome of a repair run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RepairOutcome {
    /// All constraints hold.
    Satisfied,
    /// The round budget was exhausted first (e.g. a diverging chase).
    BudgetExhausted,
}

/// Repairs `db` in place against `ics`, with at most `max_rounds` passes.
pub fn repair(db: &mut Database, ics: &[Constraint], max_rounds: usize) -> RepairOutcome {
    let mut null_counter = 0usize;
    for _ in 0..max_rounds {
        let mut changed = false;
        for ic in ics {
            let violations = db.violations(ic);
            if violations.is_empty() {
                continue;
            }
            changed = true;
            match &ic.head {
                IcHead::Atom(head) => {
                    for v in violations {
                        let mut fresh = Subst::new();
                        for var in head.vars() {
                            if v.get(var).is_none() && fresh.get(var).is_none() {
                                null_counter += 1;
                                fresh.insert(
                                    var,
                                    Term::Const(Value::str(&format!("null{null_counter}"))),
                                );
                            }
                        }
                        let ground = fresh.apply_atom(&v.apply_atom(head));
                        debug_assert!(ground.is_ground());
                        db.insert_atom(&ground);
                    }
                }
                IcHead::None | IcHead::Cmp(_) => {
                    // Remove the first body atom's matched fact of each
                    // violation. Collect first: the removal API rebuilds
                    // relations.
                    let mut to_remove: Vec<(semrec_datalog::Pred, Tuple)> = Vec::new();
                    for v in &violations {
                        let a = v.apply_atom(&ic.body_atoms[0]);
                        if a.is_ground() {
                            let t: Tuple = a.args.iter().map(|x| x.as_const().unwrap()).collect();
                            to_remove.push((a.pred, t));
                        }
                    }
                    remove_facts(db, &to_remove);
                }
            }
        }
        if !changed {
            return RepairOutcome::Satisfied;
        }
    }
    if ics.iter().all(|ic| db.satisfies(ic)) {
        RepairOutcome::Satisfied
    } else {
        RepairOutcome::BudgetExhausted
    }
}

/// Rebuilds the database without the listed facts (relations are
/// append-only, so removal means reconstruction).
fn remove_facts(db: &mut Database, remove: &[(semrec_datalog::Pred, Tuple)]) {
    let mut next = Database::new();
    for (pred, rel) in db.iter() {
        for t in rel.tuples() {
            let drop = remove.iter().any(|(p, r)| *p == pred && *r == t);
            if !drop {
                next.insert(pred, t);
            }
        }
    }
    *db = next;
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_datalog::parse_constraints;
    use semrec_engine::int_tuple;

    #[test]
    fn tuple_generating_ic_adds_facts() {
        let ics = parse_constraints("ic: a(X, Y) -> b(X, Y).").unwrap();
        let mut db = Database::new();
        db.insert("a", int_tuple(&[1, 2]));
        db.insert("a", int_tuple(&[3, 4]));
        assert_eq!(repair(&mut db, &ics, 10), RepairOutcome::Satisfied);
        assert_eq!(db.count("b"), 2);
        assert!(db.satisfies(&ics[0]));
    }

    #[test]
    fn existential_head_gets_labelled_null() {
        let ics = parse_constraints("ic: person(X) -> guardian(X, G).").unwrap();
        let mut db = Database::new();
        db.insert("person", int_tuple(&[7]));
        assert_eq!(repair(&mut db, &ics, 10), RepairOutcome::Satisfied);
        assert_eq!(db.count("guardian"), 1);
    }

    #[test]
    fn denial_removes_violating_facts() {
        let ics = parse_constraints("ic: e(X, X) -> .").unwrap();
        let mut db = Database::new();
        db.insert("e", int_tuple(&[1, 1]));
        db.insert("e", int_tuple(&[1, 2]));
        assert_eq!(repair(&mut db, &ics, 10), RepairOutcome::Satisfied);
        assert_eq!(db.count("e"), 1);
        assert!(db.satisfies(&ics[0]));
    }

    #[test]
    fn transitivity_chase_converges_on_small_data() {
        let ics = parse_constraints("ic: a(X, Y), a(Y, Z) -> a(X, Z).").unwrap();
        let mut db = Database::new();
        for i in 0..5 {
            db.insert("a", int_tuple(&[i, i + 1]));
        }
        assert_eq!(repair(&mut db, &ics, 50), RepairOutcome::Satisfied);
        assert_eq!(db.count("a"), 5 * 6 / 2);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        // a(X,Y) -> a(Y,X2) with a fresh X2 every round diverges.
        let ics = parse_constraints("ic: a(X, Y) -> a(Y, Z).").unwrap();
        let mut db = Database::new();
        db.insert("a", vec![Value::str("u"), Value::str("v")]);
        assert_eq!(repair(&mut db, &ics, 3), RepairOutcome::BudgetExhausted);
    }
}
