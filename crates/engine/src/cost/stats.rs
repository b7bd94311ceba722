//! EDB statistics for the cost planner, cached per relation generation.
//!
//! Everything here is read off structures the engine already maintains:
//! row counts and arities from the relation headers, distinct-value
//! counts and fanout histograms from the dictionary indexes
//! ([`Relation::key_distribution`] — one pass over group headers, no row
//! data touched). Each cached entry is stamped with the relation's
//! [`Relation::generation`] at collection time; a later lookup against a
//! mutated relation recollects just that entry, so incremental
//! transactions invalidate exactly the statistics they made stale.

use crate::database::Database;
use crate::fxhash::FxHashMap;
use crate::relation::Relation;
use semrec_datalog::atom::Pred;

/// Per-relation summary statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RelationStats {
    /// Live tuples.
    pub rows: u64,
    /// Column count.
    pub arity: usize,
    /// Estimated resident bytes ([`Relation::estimated_bytes`]).
    pub bytes: u64,
    /// The relation's mutation counter when these numbers were read.
    pub generation: u64,
}

/// Distinct-count / fanout summary of one column subset, read off the
/// dictionary index on those columns.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ColumnGroupStats {
    /// Distinct key tuples.
    pub distinct: u64,
    /// Largest key group (worst-case probe fanout).
    pub max_group: u64,
    /// Mean rows per distinct key (average probe fanout).
    pub mean_fanout: f64,
    /// log2 histogram of group sizes (bucket `i`: sizes in
    /// `[2^i, 2^(i+1))`, last bucket open-ended).
    pub histogram: [usize; 16],
}

/// The statistics collector: lazily gathered, generation-invalidated
/// summaries of every EDB relation the estimator asks about.
#[derive(Debug, Default)]
pub struct EdbStats {
    rels: FxHashMap<Pred, RelationStats>,
    groups: FxHashMap<(Pred, Vec<usize>), (u64, ColumnGroupStats)>,
    /// Fresh collections performed (index walks paid).
    pub collected: u64,
    /// Lookups served from a generation-current cache entry.
    pub reused: u64,
    /// Cache entries discarded because the relation mutated.
    pub invalidated: u64,
}

impl EdbStats {
    /// An empty collector.
    pub fn new() -> EdbStats {
        EdbStats::default()
    }

    fn rel(db: &Database, pred: Pred) -> Option<&Relation> {
        db.get(pred)
    }

    /// Row/arity/bytes summary for `pred`, recollected if the relation
    /// mutated since the cached entry was stamped. `None` when the
    /// database has no such relation (the estimator treats it as empty).
    pub fn relation(&mut self, db: &Database, pred: Pred) -> Option<RelationStats> {
        let rel = Self::rel(db, pred)?;
        let generation = rel.generation();
        if let Some(cached) = self.rels.get(&pred) {
            if cached.generation == generation {
                self.reused += 1;
                return Some(*cached);
            }
            self.invalidated += 1;
        }
        let fresh = RelationStats {
            rows: rel.len() as u64,
            arity: rel.arity(),
            bytes: rel.estimated_bytes(),
            generation,
        };
        self.collected += 1;
        self.rels.insert(pred, fresh);
        Some(fresh)
    }

    /// Distinct/fanout statistics for the dictionary index on `cols` of
    /// `pred`, building the index on first ask and recollecting when the
    /// relation mutated. `None` when the relation is absent.
    pub fn group(&mut self, db: &Database, pred: Pred, cols: &[usize]) -> Option<ColumnGroupStats> {
        let rel = Self::rel(db, pred)?;
        let generation = rel.generation();
        let key = (pred, cols.to_vec());
        if let Some((g, cached)) = self.groups.get(&key) {
            if *g == generation {
                self.reused += 1;
                return Some(cached.clone());
            }
            self.invalidated += 1;
        }
        let d = rel.key_distribution(cols);
        let fresh = ColumnGroupStats {
            distinct: d.distinct as u64,
            max_group: d.max_group as u64,
            mean_fanout: d.mean_fanout(),
            histogram: d.histogram,
        };
        self.collected += 1;
        self.groups.insert(key, (generation, fresh.clone()));
        Some(fresh)
    }

    /// Number of live cache entries (both kinds), for tests.
    pub fn cached_entries(&self) -> usize {
        self.rels.len() + self.groups.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::int_tuple;

    fn db_with_edges(pairs: &[(i64, i64)]) -> Database {
        let mut db = Database::new();
        for &(a, b) in pairs {
            db.insert("edge", int_tuple(&[a, b]));
        }
        db
    }

    #[test]
    fn collects_and_reuses_until_generation_changes() {
        let mut db = db_with_edges(&[(1, 2), (1, 3), (2, 3)]);
        let mut stats = EdbStats::new();
        let edge: Pred = "edge".into();

        let r = stats.relation(&db, edge).unwrap();
        assert_eq!(r.rows, 3);
        assert_eq!(r.arity, 2);
        let g = stats.group(&db, edge, &[0]).unwrap();
        assert_eq!(g.distinct, 2);
        assert_eq!(g.max_group, 2);
        assert!((g.mean_fanout - 1.5).abs() < 1e-9);
        let collected = stats.collected;

        // Same generation: everything served from cache.
        stats.relation(&db, edge).unwrap();
        stats.group(&db, edge, &[0]).unwrap();
        assert_eq!(stats.collected, collected);
        assert_eq!(stats.reused, 2);

        // A mutation invalidates on next lookup.
        db.insert("edge", int_tuple(&[9, 9]));
        let r = stats.relation(&db, edge).unwrap();
        assert_eq!(r.rows, 4);
        let g = stats.group(&db, edge, &[0]).unwrap();
        assert_eq!(g.distinct, 3);
        assert!(stats.invalidated >= 2);
    }

    #[test]
    fn missing_relation_is_none() {
        let db = Database::new();
        let mut stats = EdbStats::new();
        assert!(stats.relation(&db, "ghost".into()).is_none());
        assert!(stats.group(&db, "ghost".into(), &[0]).is_none());
    }
}
