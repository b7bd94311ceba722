//! The extensional database: a map from predicate to relation, and the
//! one-off integrity-constraint checks over it. A constraint is checked
//! by its denial rule on the rule executor ([`IcCheck`]), compiled per
//! call here; a maintained query compiles its constraints once and keeps
//! them.

use crate::governor::Budget;
use crate::incr::IcCheck;
use crate::relation::{Relation, Tuple};
use semrec_datalog::atom::{Atom, Pred};
use semrec_datalog::constraint::Constraint;
use semrec_datalog::facts::Facts;
use semrec_datalog::subst::Subst;
use semrec_datalog::term::Value;
use semrec_datalog::word::Word;
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
        let row: Vec<Word> = atom
            .args
            .iter()
            .map(|t| Word::new(t.as_const().expect("fact must be ground")))
            .collect();
        self.rels
            .entry(atom.pred)
            .or_insert_with(|| Relation::new(row.len()))
            .insert_row(&row)
    }

    /// Builds a database from parsed facts (the `facts` of a
    /// [`semrec_datalog::Unit`]): each relation in one
    /// [`Relation::from_rows`] over its fact group, duplicates dropped,
    /// rows in source order.
    ///
    /// # Panics
    /// Panics if a predicate has facts at two arities.
    pub fn from_facts(facts: &Facts) -> Database {
        let mut db = Database::new();
        for g in facts.groups() {
            let rel = Relation::from_rows(g.arity(), g.rows());
            let clash = db.rels.insert(g.pred(), rel).is_some();
            assert!(!clash, "predicate {} has facts at two arities", g.pred());
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
    /// the violating bindings of the body variables (empty = satisfied),
    /// sorted by their values in the variables' first-occurrence order.
    pub fn violations(&self, ic: &Constraint) -> Vec<Subst> {
        IcCheck::new(self, ic).violations(self)
    }

    /// True if the database satisfies the constraint.
    pub fn satisfies(&self, ic: &Constraint) -> bool {
        let check = IcCheck::new(self, ic);
        let run = check.holds(self, None, &Budget::unlimited(), None);
        run.expect("an ungoverned run cannot be interrupted").0
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
    fn a_bulk_load_drops_repeated_facts() {
        // `e(1, 2)` repeated adjacently, across `w`'s facts and after a
        // rule; `w(7)` after the rule too.
        let unit = parse_unit(
            "e(1, 2). e(1, 2). w(7). e(2, 3). w(8). e(1, 2).\n\
             t(X, Y) :- e(X, Y).\n\
             w(7). e(2, 3). e(3, 4).",
        )
        .unwrap();
        assert_eq!(unit.facts.len(), 9);
        let db = Database::from_facts(&unit.facts);
        assert_eq!((db.count("e"), db.count("w"), db.total_tuples()), (3, 2, 5));
        for (p, rel) in db.iter() {
            rel.check_invariant().unwrap_or_else(|e| panic!("{p}: {e}"));
        }
        // First appearances, in source order.
        let e: Vec<Tuple> = db.get(Pred::new("e")).unwrap().tuples().collect();
        assert_eq!(e, [[1, 2], [2, 3], [3, 4]].map(|t| int_tuple(&t)));
        let mut one_by_one = Database::new();
        for f in unit.facts.atoms() {
            one_by_one.insert_atom(&f);
        }
        assert_eq!(db, one_by_one);
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
    fn violations_come_sorted_whatever_the_insertion_order() {
        let ics = parse_constraints("ic: e(X, Y) -> w(Y).").unwrap();
        let mut db = Database::new();
        for t in [[9, 1], [5, 4], [1, 2], [5, 3]] {
            db.insert("e", int_tuple(&t));
        }
        let at = |v: &str| {
            let v = semrec_datalog::symbol::Symbol::intern(v);
            let bad = db.violations(&ics[0]);
            bad.iter()
                .map(|s| s.get(v).and_then(|t| t.as_const()))
                .collect::<Vec<_>>()
        };
        let int = |xs: [i64; 4]| xs.map(|x| Some(Value::Int(x))).to_vec();
        assert_eq!(at("X"), int([1, 5, 5, 9]));
        assert_eq!(at("Y"), int([2, 3, 4, 1]));
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

    #[test]
    fn a_head_at_another_arity_never_holds_and_an_unmatchable_body_never_binds() {
        // `e(X)` can never be a row of the binary `e`: every body binding
        // violates.
        let ics = parse_constraints("ic: e(X, Y) -> e(X). ic: e(X, Y) -> w(X).").unwrap();
        let mut db = Database::new();
        for t in [[1, 2], [3, 4]] {
            db.insert("e", int_tuple(&t));
        }
        db.insert("w", int_tuple(&[1, 1]));
        assert_eq!(db.violations(&ics[0]).len(), 2);
        assert!(!db.satisfies(&ics[0]));
        // Nor can a unary head row be a row of the binary `w`.
        assert_eq!(db.violations(&ics[1]).len(), 2);
        // A body atom no row can match: nothing binds, nothing violates.
        let never = parse_constraints("ic: e(X) -> w(X). ic: e(X, Y), e(X) -> .").unwrap();
        assert!(never.iter().all(|ic| db.satisfies(ic)));
        assert!(never.iter().all(|ic| db.violations(ic).is_empty()));
    }
}
