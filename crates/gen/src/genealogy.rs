//! Example 4.3's genealogy database: `par(Person, PersonAge, Parent,
//! ParentAge)` with the IC "people of age ≤ 50 do not have 3 generations
//! of descendants below them" (driving conditional subtree pruning).
//!
//! Consistency is enforced *structurally*: ages are assigned bottom-up with
//! a generation gap of at least 20 years and leaf ages of at most 30, so
//! anyone with three descendant generations is at least 60 — the IC can
//! never be violated.

use crate::rng::Rng;
use semrec_datalog::term::Value;
use semrec_engine::Database;

/// The scenario program and IC (Example 4.3).
pub const PROGRAM: &str = "
    anc(X, Xa, Y, Ya) :- par(X, Xa, Y, Ya).
    anc(X, Xa, Y, Ya) :- anc(X, Xa, Z, Za), par(Z, Za, Y, Ya).
    ic ic1: Ya <= 50, par(Z, Za, Y, Ya), par(Z1, Z1a, Z, Za), par(Z2, Z2a, Z1, Z1a) -> .
";

/// Generator parameters.
#[derive(Clone, Copy, Debug)]
pub struct GenealogyParams {
    /// Number of family-tree roots (oldest ancestors).
    pub families: usize,
    /// Generations below each root.
    pub depth: usize,
    /// Children per person.
    pub branching: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GenealogyParams {
    fn default() -> Self {
        GenealogyParams {
            families: 4,
            depth: 5,
            branching: 2,
            seed: 42,
        }
    }
}

/// Generates an IC-consistent genealogy.
///
/// Each family is a `branching`-ary tree of the given depth. A person at
/// height `h` above the leaves has age `leaf_age + Σ gaps` with gaps in
/// `20..=35`, so the 3-generations-below-50 denial holds by construction.
pub fn generate(params: &GenealogyParams) -> Database {
    let mut rng = Rng::seed_from_u64(params.seed);
    let mut db = Database::new();
    let mut next_id = 0i64;

    for _ in 0..params.families.max(1) {
        // Build top-down, assign ages top-down with decreasing gaps — the
        // root's age must cover the full depth.
        let depth = params.depth.max(1);
        let root_age = 18 + 25 * depth as i64 + rng.gen_range(0..10i64);
        let root = next_id;
        next_id += 1;
        let mut frontier: Vec<(i64, i64)> = vec![(root, root_age)];
        for _level in 1..=depth {
            let mut next_frontier = Vec::new();
            for &(parent, parent_age) in &frontier {
                for _ in 0..params.branching.max(1) {
                    let gap = rng.gen_range(20..=35i64);
                    let age = (parent_age - gap).max(0);
                    let child = next_id;
                    next_id += 1;
                    db.insert(
                        "par",
                        vec![
                            Value::Int(child),
                            Value::Int(age),
                            Value::Int(parent),
                            Value::Int(parent_age),
                        ],
                    );
                    next_frontier.push((child, age));
                }
            }
            frontier = next_frontier;
        }
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_scenario;

    #[test]
    fn generated_db_satisfies_ic() {
        let s = parse_scenario(PROGRAM);
        for seed in [5, 17, 3000] {
            let db = generate(&GenealogyParams {
                families: 3,
                depth: 4,
                branching: 2,
                seed,
            });
            for ic in &s.constraints {
                assert!(db.satisfies(ic), "seed {seed} violates {ic}");
            }
        }
    }

    #[test]
    fn sizes_scale_with_parameters() {
        let small = generate(&GenealogyParams {
            families: 1,
            depth: 3,
            branching: 2,
            seed: 1,
        });
        let large = generate(&GenealogyParams {
            families: 2,
            depth: 5,
            branching: 2,
            seed: 1,
        });
        assert!(large.count("par") > small.count("par"));
        // 1 family, depth 3, branching 2: 2 + 4 + 8 = 14 edges.
        assert_eq!(small.count("par"), 14);
    }

    #[test]
    fn some_people_are_young() {
        // The pruning condition Ya <= 50 must be non-vacuous: young parents
        // exist (they just have short descendant chains).
        let db = generate(&GenealogyParams::default());
        let rel = db.get(semrec_datalog::Pred::new("par")).unwrap();
        let young_parents = rel
            .iter()
            .filter(|t| matches!(t[3].value(), Value::Int(a) if a <= 50))
            .count();
        assert!(young_parents > 0);
    }
}
