//! The extensional database: a map from predicate to relation.

use crate::incr::matcher::{match_body, Poll, State};
use crate::relation::{Relation, Tuple};
use semrec_datalog::atom::{Atom, Pred};
use semrec_datalog::constraint::{Constraint, IcHead};
use semrec_datalog::subst::Subst;
use semrec_datalog::term::Value;
use std::collections::BTreeMap;

/// An extensional database (EDB): ground facts grouped by predicate.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Database {
    rels: BTreeMap<Pred, Relation>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Inserts a fact; creates the relation on first use. Returns `true` if
    /// the fact was new.
    ///
    /// # Panics
    /// Panics if the predicate was already used with a different arity.
    pub fn insert(&mut self, pred: impl Into<Pred>, tuple: Tuple) -> bool {
        let pred = pred.into();
        let arity = tuple.len();
        self.rels
            .entry(pred)
            .or_insert_with(|| Relation::new(arity))
            .insert(tuple)
    }

    /// Inserts a ground atom.
    ///
    /// # Panics
    /// Panics if the atom is not ground.
    pub fn insert_atom(&mut self, atom: &Atom) -> bool {
        let tuple: Tuple = atom
            .args
            .iter()
            .map(|t| t.as_const().expect("fact must be ground"))
            .collect();
        self.insert(atom.pred, tuple)
    }

    /// Builds a database from ground atoms (e.g. the `facts` of a parsed
    /// [`semrec_datalog::Unit`]).
    pub fn from_facts<'a>(facts: impl IntoIterator<Item = &'a Atom>) -> Database {
        let mut db = Database::new();
        for f in facts {
            db.insert_atom(f);
        }
        db
    }

    /// Deletes a fact (tombstoning its row — see [`Relation::delete`]).
    /// Returns `true` if the fact was present.
    pub fn delete(&mut self, pred: impl Into<Pred>, tuple: &[Value]) -> bool {
        self.rels
            .get_mut(&pred.into())
            .is_some_and(|r| r.delete(tuple))
    }

    /// Runs [`Relation::compact_if_sparse`] on every relation. For the
    /// gap between two transactions: row ids of a compacted relation
    /// change, so no watermark or undo log may be outstanding.
    pub fn compact_sparse(&mut self) {
        for r in self.rels.values_mut() {
            r.compact_if_sparse();
        }
    }

    /// The relation for `pred`, if present.
    pub fn get(&self, pred: Pred) -> Option<&Relation> {
        self.rels.get(&pred)
    }

    /// Mutable access to the relation for `pred`, if present.
    pub fn get_mut(&mut self, pred: Pred) -> Option<&mut Relation> {
        self.rels.get_mut(&pred)
    }

    /// Number of tuples for `pred` (0 if absent).
    pub fn count(&self, pred: impl Into<Pred>) -> usize {
        self.get(pred.into()).map_or(0, Relation::len)
    }

    /// Total number of tuples in the database.
    pub fn total_tuples(&self) -> usize {
        self.rels.values().map(Relation::len).sum()
    }

    /// Iterates over `(pred, relation)` pairs in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (Pred, &Relation)> {
        self.rels.iter().map(|(&p, r)| (p, r))
    }

    /// Checks whether this database satisfies an integrity constraint:
    /// every assignment satisfying the body must satisfy the head. Returns
    /// the list of violating body bindings (empty = satisfied).
    pub fn violations(&self, ic: &Constraint) -> Vec<Subst> {
        let mut out = Vec::new();
        self.each_violation(ic, &mut |theta| {
            out.push(theta.clone());
            true
        });
        out
    }

    /// True if the database satisfies the constraint; stops at the first
    /// violating binding.
    pub fn satisfies(&self, ic: &Constraint) -> bool {
        self.each_violation(ic, &mut |_| false)
    }

    /// Hands `f` each body binding of `ic` whose head fails, through the
    /// incremental layer's indexed matcher over this database alone,
    /// until `f` returns `false`; returns whether it ran to the end.
    fn each_violation(&self, ic: &Constraint, f: &mut dyn FnMut(&Subst) -> bool) -> bool {
        let state = State {
            edb: self,
            idb: &BTreeMap::new(),
        };
        let atoms: Vec<&Atom> = ic.body_atoms.iter().collect();
        let cmps: Vec<_> = ic.body_cmps.iter().collect();
        let mut on_binding = |theta: &Subst| self.head_holds(ic, theta) || f(theta);
        let (theta, poll) = (&mut Subst::new(), &mut Poll::new(None));
        match_body(&state, &atoms, &cmps, theta, poll, &mut on_binding)
            .expect("an ungoverned match cannot be interrupted")
    }

    /// True if the constraint's head holds under a complete body binding.
    pub(crate) fn head_holds(&self, ic: &Constraint, theta: &Subst) -> bool {
        match &ic.head {
            IcHead::None => false,
            IcHead::Cmp(c) => theta.apply_cmp(c).eval_ground() == Some(true),
            IcHead::Atom(a) => {
                // One matcher step, stopped at the first hit: a ground
                // instance is a membership test; under existential head
                // variables any live row matching the bound positions
                // witnesses the head, found by probing those columns.
                let state = State {
                    edb: self,
                    idb: &BTreeMap::new(),
                };
                let (theta, poll) = (&mut theta.clone(), &mut Poll::new(None));
                !match_body(&state, &[a], &[], theta, poll, &mut |_| false)
                    .expect("an ungoverned match cannot be interrupted")
            }
        }
    }
}

/// Convenience constructor for integer-tuple test data.
pub fn int_tuple(vals: &[i64]) -> Tuple {
    vals.iter().map(|&v| Value::Int(v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_datalog::parser::{parse_constraints, parse_unit};

    #[test]
    fn insert_and_count() {
        let mut db = Database::new();
        assert!(db.insert("e", int_tuple(&[1, 2])));
        assert!(!db.insert("e", int_tuple(&[1, 2])));
        db.insert("e", int_tuple(&[2, 3]));
        assert_eq!(db.count("e"), 2);
        assert_eq!(db.total_tuples(), 2);
    }

    #[test]
    fn from_parsed_facts() {
        let unit = parse_unit("par(ann, bea). par(bea, cal).").unwrap();
        let db = Database::from_facts(&unit.facts);
        assert_eq!(db.count("par"), 2);
    }

    #[test]
    fn constraint_satisfaction_atom_head() {
        let ics = parse_constraints("ic: boss(E, B, R), R = executive -> experienced(B).").unwrap();
        let mut db = Database::new();
        db.insert(
            "boss",
            vec![
                Value::str("eva"),
                Value::str("max"),
                Value::str("executive"),
            ],
        );
        assert!(!db.satisfies(&ics[0]));
        db.insert("experienced", vec![Value::str("max")]);
        assert!(db.satisfies(&ics[0]));
    }

    #[test]
    fn constraint_satisfaction_denial() {
        let ics = parse_constraints("ic: p(X, Y), X > Y -> .").unwrap();
        let mut db = Database::new();
        db.insert("p", int_tuple(&[1, 2]));
        assert!(db.satisfies(&ics[0]));
        db.insert("p", int_tuple(&[5, 2]));
        assert_eq!(db.violations(&ics[0]).len(), 1);
    }

    #[test]
    fn constraint_cmp_head() {
        let ics = parse_constraints("ic: pays(M, S), M > 10000 -> M < 50000.").unwrap();
        let mut db = Database::new();
        db.insert("pays", int_tuple(&[20000, 1]));
        assert!(db.satisfies(&ics[0]));
        db.insert("pays", int_tuple(&[60000, 2]));
        assert!(!db.satisfies(&ics[0]));
    }

    #[test]
    fn existential_head_probes_bound_columns_and_skips_tombstones() {
        let ics = parse_constraints("ic: e(X, Z) -> w(Z, W).").unwrap();
        let mut db = Database::new();
        for z in 0..50 {
            db.insert("e", int_tuple(&[z, z + 1]));
            db.insert("w", int_tuple(&[z + 1, 7]));
            db.insert("w", int_tuple(&[z + 1, 8]));
        }
        assert!(db.satisfies(&ics[0]));
        // One of two witnesses gone: the other still holds the head.
        assert!(db.delete("w", &int_tuple(&[20, 7])));
        assert!(db.satisfies(&ics[0]));
        // Both gone: the rows are still in the index group of `20`,
        // dead, and must not count.
        assert!(db.delete("w", &int_tuple(&[20, 8])));
        let bad = db.violations(&ics[0]);
        assert_eq!(bad.len(), 1);
        let x = semrec_datalog::symbol::Symbol::intern("X");
        assert_eq!(
            bad[0].get(x).and_then(|t| t.as_const()),
            Some(Value::Int(19))
        );
        db.insert("w", int_tuple(&[20, 9]));
        assert!(db.satisfies(&ics[0]));
        // No column bound: any live row will do, a dead one will not.
        let any = parse_constraints("ic: e(X, Z) -> u(A, B).").unwrap();
        assert!(!db.satisfies(&any[0]));
        db.insert("u", int_tuple(&[1, 1]));
        assert!(db.satisfies(&any[0]));
        db.delete("u", &int_tuple(&[1, 1]));
        assert!(!db.satisfies(&any[0]));
    }

    #[test]
    fn repeated_variables_in_ic_body() {
        let ics = parse_constraints("ic: e(X, X) -> .").unwrap();
        let mut db = Database::new();
        db.insert("e", int_tuple(&[1, 2]));
        assert!(db.satisfies(&ics[0]));
        db.insert("e", int_tuple(&[3, 3]));
        assert!(!db.satisfies(&ics[0]));
    }
}
