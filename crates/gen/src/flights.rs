//! A flight-routing scenario exercising *conditional* rule-level atom
//! elimination: international carriers only serve hub airports, so the
//! `hub(H)` check is redundant exactly on the international branch.
//!
//! Complements [`crate::fanout`] (unconditional, k = 1) and
//! [`crate::org`] (conditional, k = 4): here the optimizer splits the
//! recursive rule on `K = intl` / `K != intl` and drops the hub probe from
//! the international branch.

use crate::rng::Rng;
use semrec_datalog::term::Value;
use semrec_engine::Database;

/// The scenario program and IC.
pub const PROGRAM: &str = "
    route(X, Y) :- flight(X, Y, A, K).
    route(X, Y) :- flight(X, H, A, K), hub(H), route(H, Y).
    ic ic1: flight(X, H, A, K), K = intl -> hub(H).
";

/// Generator parameters.
#[derive(Clone, Copy, Debug)]
pub struct FlightsParams {
    /// Number of airports.
    pub airports: usize,
    /// Fraction of airports that are hubs.
    pub hub_frac: f64,
    /// Number of flights.
    pub flights: usize,
    /// Fraction of flights operated by international carriers.
    pub intl_frac: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FlightsParams {
    fn default() -> Self {
        FlightsParams {
            airports: 60,
            hub_frac: 0.3,
            flights: 400,
            intl_frac: 0.5,
            seed: 42,
        }
    }
}

/// Generates an IC-consistent flight network: international flights always
/// land at hubs; domestic flights land anywhere.
pub fn generate(params: &FlightsParams) -> Database {
    let mut rng = Rng::seed_from_u64(params.seed);
    let mut db = Database::new();
    let n = params.airports.max(2);
    let hubs: Vec<bool> = (0..n)
        .map(|_| rng.gen_bool(params.hub_frac.clamp(0.0, 1.0)))
        .collect();
    // Guarantee at least one hub so international flights exist.
    let mut hubs = hubs;
    hubs[0] = true;
    for (a, &h) in hubs.iter().enumerate() {
        if h {
            db.insert("hub", vec![Value::Int(a as i64)]);
        }
    }
    let hub_ids: Vec<i64> = hubs
        .iter()
        .enumerate()
        .filter(|(_, &h)| h)
        .map(|(i, _)| i as i64)
        .collect();
    let carriers = ["skyways", "aerocorp", "jetline", "windair"];
    for f in 0..params.flights {
        let from = rng.gen_range(0..n) as i64;
        let intl = rng.gen_bool(params.intl_frac.clamp(0.0, 1.0));
        let to = if intl {
            hub_ids[rng.gen_range(0..hub_ids.len())]
        } else {
            rng.gen_range(0..n) as i64
        };
        if to == from {
            continue;
        }
        let carrier = Value::str(&format!("{}{}", carriers[f % carriers.len()], f % 7));
        let kind = Value::str(if intl { "intl" } else { "dom" });
        db.insert(
            "flight",
            vec![Value::Int(from), Value::Int(to), carrier, kind],
        );
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
        for seed in [1, 9, 77] {
            let db = generate(&FlightsParams {
                seed,
                ..FlightsParams::default()
            });
            for ic in &s.constraints {
                assert!(db.satisfies(ic), "seed {seed} violates {ic}");
            }
        }
    }

    #[test]
    fn intl_fraction_controls_branch_selectivity() {
        let dom = generate(&FlightsParams {
            intl_frac: 0.0,
            ..FlightsParams::default()
        });
        let intl = generate(&FlightsParams {
            intl_frac: 1.0,
            ..FlightsParams::default()
        });
        let count_kind = |db: &Database, kind: &str| {
            db.get(semrec_datalog::Pred::new("flight"))
                .map(|r| {
                    r.iter()
                        .filter(|t| t[3].value() == Value::str(kind))
                        .count()
                })
                .unwrap_or(0)
        };
        assert_eq!(count_kind(&dom, "intl"), 0);
        assert_eq!(count_kind(&intl, "dom"), 0);
    }
}
