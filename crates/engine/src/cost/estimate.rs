//! Size-bound cardinality estimation over compiled plans.
//!
//! The estimator mirrors the semi-naive evaluator symbolically: it reads
//! the plans [`Prepared`] compiled for the evaluator in either mode (one
//! full plan plus the delta variants a batch run schedules, one per IDB
//! subgoal occurrence, the same join order), reduces each to a *shape* —
//! seed scan, probe chain with per-probe fanout sources, head projection
//! sources — and then iterates rounds of cheap float arithmetic instead
//! of rounds of joins. Per round, a plan's output is its seed view's
//! cardinality times the product of its probe fanouts (existential probes
//! contribute `min(1, fanout)`: the kernel's first-hit short-circuit);
//! per predicate, totals are capped by the product of per-column domain
//! sizes derived from EDB distinct counts by a monotone propagation
//! fixpoint — the *Size Bound-Adorned Datalog* bound: no predicate can
//! exceed the product of its columns' active domains. Iteration stops
//! when deltas die out or at [`DEPTH_CAP`] rounds, whichever is first.
//!
//! Everything is an upper-bound-flavored estimate: filters, negation,
//! and residual checks multiply by 1.0, and dedup is modeled only
//! through the domain caps. On the gen workloads this lands within a
//! few x of actual cardinalities (asserted within 10x by
//! `tests/cost_agreement.rs`), which is accurate enough to rank rewrite
//! alternatives whose true costs differ by integer factors.

use super::stats::EdbStats;
use crate::database::Database;
use crate::eval::Prepared;
use crate::plan::{CompiledRule, KernelGuard, KernelLookup, KernelSrc, View};
use semrec_datalog::atom::Pred;
use semrec_datalog::word::Word;
use std::collections::{BTreeMap, BTreeSet};

/// Maximum simulated fixpoint rounds. Each round is a few dozen float
/// multiplications per plan, so even the cap costs microseconds — it
/// exists to bound estimation of slowly-converging recursions (long
/// chains) whose domain caps are far away.
pub const DEPTH_CAP: u64 = 4096;

/// Clamp on any estimated row count: beyond this the estimate is
/// "effectively unbounded" and iterating further adds no information.
const ROW_CLAMP: f64 = 1e15;

/// Where a head column's values come from, for domain propagation.
#[derive(Clone, Copy, Debug)]
enum DomSrc {
    /// A compile-time constant: domain 1.
    Const,
    /// A column of a scanned predicate: that column's domain.
    Col(Pred, usize),
    /// A computed value (builtin output): domain unknown.
    Unknown,
}

/// One probe of a plan shape.
#[derive(Clone, Debug)]
struct ProbeShape {
    pred: Pred,
    view: View,
    key_cols: Vec<usize>,
    existential: bool,
    /// Per key column: every `(pred, col)` position the bound variable
    /// occupies across the rule (its join class). The variable's value
    /// universe is the largest distinct count over the class, and the
    /// probe's hit rate is `distinct keys / universe` — the containment
    /// assumption that prices guard subgoals (`experienced(U)`,
    /// `field(T, F)`) below certainty. Empty when the binding source is
    /// unknown (step-machine plans, computed values): hit rate 1.
    key_univ: Vec<Vec<(Pred, usize)>>,
}

/// One compiled plan variant reduced to its estimation-relevant shape.
#[derive(Clone, Debug)]
struct PlanShape {
    seed: Option<(Pred, View, Vec<usize>)>,
    probes: Vec<ProbeShape>,
    head_src: Vec<DomSrc>,
}

/// All plan variants of one rule (mirror of the evaluator's `RulePlans`).
#[derive(Debug)]
struct RuleShapes {
    head_pred: Pred,
    full: PlanShape,
    deltas: Vec<PlanShape>,
}

/// The whole-program estimate.
#[derive(Clone, Debug, Default)]
pub struct ProgramEstimate {
    /// Estimated total IDB rows at fixpoint (post-cap).
    pub rows: f64,
    /// Estimated resident bytes of the IDB (`rows × arity × 16`).
    pub bytes: f64,
    /// Estimated cumulative rows touched across all rounds — the cost
    /// metric routes are ranked by.
    pub work: f64,
    /// Simulated rounds to (estimated) fixpoint.
    pub rounds: u64,
    /// True if iteration stopped at [`DEPTH_CAP`] or [`ROW_CLAMP`]
    /// rather than convergence.
    pub capped: bool,
    /// Estimated rows per IDB predicate.
    pub per_pred: BTreeMap<Pred, f64>,
}

/// The estimator: prices compiled programs against one database's
/// statistics.
pub(crate) struct Estimator<'a> {
    db: &'a Database,
    stats: &'a mut EdbStats,
}

impl<'a> Estimator<'a> {
    /// An estimator over `db`, reading (and filling) `stats`.
    pub(crate) fn new(db: &'a Database, stats: &'a mut EdbStats) -> Estimator<'a> {
        Estimator { db, stats }
    }

    /// Estimates a batch evaluation of `prepared`, compiled in either
    /// mode, over the estimator's database.
    pub(crate) fn estimate(&mut self, prepared: &Prepared) -> ProgramEstimate {
        let arities = &prepared.arities;
        let idb_preds = &prepared.idb_preds;
        let rules: Vec<RuleShapes> = (prepared.plans.iter())
            .map(|plans| RuleShapes {
                head_pred: plans.full.head_pred,
                full: shape_of(&plans.full),
                deltas: plans.deltas(false).map(shape_of).collect(),
            })
            .collect();

        // Domain propagation: per-column domain sizes for IDB predicates,
        // a monotone max-fixpoint seeded from EDB distinct counts.
        let mut dom: BTreeMap<(Pred, usize), f64> = BTreeMap::new();
        for p in idb_preds {
            for c in 0..arities.get(p).copied().unwrap_or(0) {
                dom.insert((*p, c), 0.0);
            }
        }
        for _ in 0..64 {
            let mut changed = false;
            for rs in &rules {
                for (c, src) in rs.full.head_src.iter().enumerate() {
                    let v = self.domain_of(*src, &dom, idb_preds);
                    let slot = dom.entry((rs.head_pred, c)).or_insert(0.0);
                    if v > *slot {
                        *slot = v;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let cap_of = |p: Pred| -> f64 {
            let arity = arities.get(&p).copied().unwrap_or(0);
            let mut cap = 1.0f64;
            for c in 0..arity {
                let d = dom.get(&(p, c)).copied().unwrap_or(f64::INFINITY);
                if d == 0.0 {
                    return 0.0;
                }
                cap = (cap * d).min(ROW_CLAMP);
            }
            cap
        };
        let caps: BTreeMap<Pred, f64> = idb_preds.iter().map(|&p| (p, cap_of(p))).collect();

        // Round simulation: totals/deltas per IDB predicate, full plans
        // on round 1, delta variants afterwards — the evaluator's
        // schedule, in float arithmetic.
        let mut total: BTreeMap<Pred, f64> = idb_preds.iter().map(|&p| (p, 0.0)).collect();
        let mut delta: BTreeMap<Pred, f64> = total.clone();
        let mut work = 0.0f64;
        let mut rounds = 0u64;
        let mut capped = false;
        loop {
            rounds += 1;
            let mut derived: BTreeMap<Pred, f64> = BTreeMap::new();
            for rs in &rules {
                let variants = match rounds {
                    1 => std::slice::from_ref(&rs.full),
                    _ => &rs.deltas[..],
                };
                for shape in variants {
                    let (out, w) = self.plan_rows(shape, &total, &delta, &dom);
                    *derived.entry(rs.head_pred).or_insert(0.0) += out;
                    work += w;
                }
            }
            let mut max_delta = 0.0f64;
            for (&p, t) in total.iter_mut() {
                let raw = derived.get(&p).copied().unwrap_or(0.0);
                let headroom = (caps.get(&p).copied().unwrap_or(f64::INFINITY) - *t).max(0.0);
                let new = raw.min(headroom).min(ROW_CLAMP - *t).max(0.0);
                delta.insert(p, new);
                *t += new;
                if *t >= ROW_CLAMP {
                    capped = true;
                }
                max_delta = max_delta.max(new);
            }
            if max_delta < 0.5 || rules.iter().all(|r| r.deltas.is_empty()) {
                break;
            }
            if rounds >= DEPTH_CAP {
                capped = true;
                break;
            }
        }

        let rows: f64 = total.values().sum();
        let bytes: f64 = total
            .iter()
            .map(|(p, t)| t * arities.get(p).copied().unwrap_or(0) as f64)
            .sum::<f64>()
            * std::mem::size_of::<Word>() as f64;
        ProgramEstimate {
            rows,
            bytes,
            work,
            rounds,
            capped,
            per_pred: total,
        }
    }

    fn domain_of(
        &mut self,
        src: DomSrc,
        dom: &BTreeMap<(Pred, usize), f64>,
        idb_preds: &BTreeSet<Pred>,
    ) -> f64 {
        match src {
            DomSrc::Const => 1.0,
            DomSrc::Unknown => f64::INFINITY,
            DomSrc::Col(p, c) => {
                if idb_preds.contains(&p) {
                    dom.get(&(p, c)).copied().unwrap_or(f64::INFINITY)
                } else {
                    self.stats
                        .group(self.db, p, &[c])
                        .map_or(0.0, |g| g.distinct as f64)
                }
            }
        }
    }

    /// Rows visible through `view` of `pred` in the current simulated
    /// state.
    fn view_rows(
        &mut self,
        pred: Pred,
        view: View,
        total: &BTreeMap<Pred, f64>,
        delta: &BTreeMap<Pred, f64>,
    ) -> f64 {
        match total.get(&pred) {
            Some(&t) => match view {
                View::Full | View::Total => t,
                View::Old => (t - delta.get(&pred).copied().unwrap_or(0.0)).max(0.0),
                View::Delta => delta.get(&pred).copied().unwrap_or(0.0),
            },
            // EDB: every view is the full relation.
            None => self
                .stats
                .relation(self.db, pred)
                .map_or(0.0, |r| r.rows as f64),
        }
    }

    /// Distinct values at one (pred, col) position: the propagated
    /// domain for IDB predicates, capped by the rows estimated so far (a
    /// column has no more values than its relation has rows — what keeps
    /// a one-row magic seed from reading as a whole domain of bindings),
    /// the dictionary distinct count for EDB.
    fn position_ndv(
        &mut self,
        p: Pred,
        c: usize,
        total: &BTreeMap<Pred, f64>,
        dom: &BTreeMap<(Pred, usize), f64>,
    ) -> f64 {
        match dom.get(&(p, c)) {
            Some(&d) => d.min(total.get(&p).copied().unwrap_or(d)),
            None => self
                .stats
                .group(self.db, p, &[c])
                .map_or(0.0, |g| g.distinct as f64),
        }
    }

    /// Expected rows matched per probe of `pred` keyed on `key_cols`.
    fn probe_fanout(
        &mut self,
        probe: &ProbeShape,
        total: &BTreeMap<Pred, f64>,
        delta: &BTreeMap<Pred, f64>,
        dom: &BTreeMap<(Pred, usize), f64>,
    ) -> f64 {
        let rows = self.view_rows(probe.pred, probe.view, total, delta);
        if rows == 0.0 {
            return 0.0;
        }
        if probe.key_cols.is_empty() {
            return rows; // cross product
        }
        if total.contains_key(&probe.pred) {
            // IDB: no dictionary stats — assume uniform over the key
            // columns' domains (`distinct ≈ min(rows, Π domain)`).
            let mut keys = 1.0f64;
            for &c in &probe.key_cols {
                let d = self
                    .stats
                    .group(self.db, probe.pred, &[c])
                    .map(|g| g.distinct as f64);
                // IDB columns have no index; fall back to rows itself
                // (the most keys the view can have).
                keys = (keys * d.unwrap_or(rows)).min(rows);
            }
            rows / keys.max(1.0)
        } else {
            // EDB: expected matches per probe = rows / max(distinct key
            // tuples, Π per-column universes). The first term is the
            // dictionary's real mean fanout; the second attenuates it by
            // the hit rate — bound values drawn from a universe larger
            // than the resident keys miss proportionally (containment
            // assumption). A column with no join-class info contributes
            // nothing, leaving the plain mean fanout.
            let Some(g) = self.stats.group(self.db, probe.pred, &probe.key_cols) else {
                return 0.0;
            };
            let mut universe = 1.0f64;
            for (i, _) in probe.key_cols.iter().enumerate() {
                let mut u = 0.0f64;
                for &(p, c) in probe.key_univ.get(i).map_or(&[][..], Vec::as_slice) {
                    u = u.max(self.position_ndv(p, c, total, dom));
                }
                if u > 0.0 {
                    universe = (universe * u).min(ROW_CLAMP);
                }
            }
            rows / (g.distinct as f64).max(universe).max(1.0)
        }
    }

    /// One plan shape's per-round output and work in the given state.
    fn plan_rows(
        &mut self,
        shape: &PlanShape,
        total: &BTreeMap<Pred, f64>,
        delta: &BTreeMap<Pred, f64>,
        dom: &BTreeMap<(Pred, usize), f64>,
    ) -> (f64, f64) {
        let mut card = match &shape.seed {
            // The unit seed: one row.
            None => 1.0,
            Some((seed_pred, seed_view, seed_key)) if seed_key.is_empty() => {
                self.view_rows(*seed_pred, *seed_view, total, delta)
            }
            // Constant-keyed seed: one key group.
            Some((seed_pred, seed_view, seed_key)) => {
                let probe = ProbeShape {
                    pred: *seed_pred,
                    view: *seed_view,
                    key_cols: seed_key.clone(),
                    existential: false,
                    key_univ: Vec::new(),
                };
                self.probe_fanout(&probe, total, delta, dom)
            }
        };
        let mut work = card;
        for probe in &shape.probes {
            let f = self.probe_fanout(probe, total, delta, dom);
            card *= if probe.existential { f.min(1.0) } else { f };
            card = card.min(ROW_CLAMP);
            work = (work + card).min(ROW_CLAMP);
        }
        (card, work)
    }
}

/// Reduces a compiled plan to its estimation shape: the kernel's seed,
/// probe chain (with existential flags and join classes) and head
/// sources. A ground subgoal's membership test
/// ([`KernelGuard::Present`]) stands in the chain where its guard runs,
/// priced as the existential probe it replaces.
fn shape_of(plan: &CompiledRule) -> PlanShape {
    let k = &plan.kernel;
    // The chain: per link, predicate, view, bound columns with their
    // sources (key and residual checks, by column), and existential flag.
    type Link = (Pred, View, Vec<(usize, KernelSrc)>, bool);
    let present = |gs: &[KernelGuard]| -> Vec<Link> {
        let lookups = gs.iter().filter_map(|g| match *g {
            KernelGuard::Present(li) => Some(&k.lookups[li]),
            _ => None,
        });
        let link = |l: &KernelLookup| {
            (
                l.pred,
                l.view,
                l.cols.iter().copied().zip(l.key.clone()).collect(),
                true,
            )
        };
        lookups.map(link).collect()
    };
    let mut chain: Vec<Link> = present(&k.seed_guards);
    for p in &k.probes {
        let mut cols: Vec<(usize, KernelSrc)> =
            p.key_cols.iter().copied().zip(p.key.clone()).collect();
        cols.extend(p.checks.iter().copied());
        cols.sort_by_key(|(c, _)| *c);
        cols.dedup_by_key(|(c, _)| *c);
        chain.push((p.pred, p.view, cols, p.existential));
        chain.extend(present(&p.guards));
    }
    // Join classes: key (and check) elements sharing a binding source —
    // a seed column or an earlier probe's output column — bind the same
    // variable. Collect every (pred, col) position each variable
    // touches; the largest distinct count over a class is the variable's
    // value universe for hit-rate pricing.
    let src_id = |s: &KernelSrc| match s {
        KernelSrc::Seed(c) => Some((u64::MAX, *c)),
        KernelSrc::Probe(d, c) => Some((*d as u64, *c)),
        _ => None,
    };
    let src_pos = |s: &KernelSrc| match s {
        KernelSrc::Seed(c) => k.seed_pred.map(|p| (p, *c)),
        KernelSrc::Probe(d, c) => Some((k.probes[*d].pred, *c)),
        _ => None,
    };
    let mut classes: BTreeMap<(u64, usize), Vec<(Pred, usize)>> = BTreeMap::new();
    for (pred, _, cols, _) in &chain {
        for (col, s) in cols {
            let Some(id) = src_id(s) else { continue };
            let class = classes.entry(id).or_default();
            for pos in [src_pos(s), Some((*pred, *col))].into_iter().flatten() {
                if !class.contains(&pos) {
                    class.push(pos);
                }
            }
        }
    }
    let probes: Vec<ProbeShape> = chain
        .iter()
        .map(|(pred, view, cols, existential)| ProbeShape {
            pred: *pred,
            view: *view,
            key_cols: cols.iter().map(|(c, _)| *c).collect(),
            existential: *existential,
            key_univ: cols
                .iter()
                .map(|(_, s)| {
                    src_id(s)
                        .and_then(|id| classes.get(&id))
                        .cloned()
                        .unwrap_or_default()
                })
                .collect(),
        })
        .collect();
    let head_src = k
        .head
        .iter()
        .map(|s| match *s {
            KernelSrc::Const(_) => DomSrc::Const,
            KernelSrc::Seed(c) => k.seed_pred.map_or(DomSrc::Unknown, |p| DomSrc::Col(p, c)),
            KernelSrc::Probe(d, c) => DomSrc::Col(k.probes[d].pred, c),
            KernelSrc::Computed(_) => DomSrc::Unknown,
        })
        .collect();
    PlanShape {
        seed: k
            .seed_pred
            .map(|p| (p, k.seed_view, k.seed_key_cols.clone())),
        probes,
        head_src,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::int_tuple;
    use crate::eval::{evaluate, Strategy};
    use semrec_datalog::program::Program;

    fn parse_program(src: &str) -> Result<Program, semrec_datalog::Error> {
        Ok(semrec_datalog::parser::parse_unit(src)?.program())
    }

    fn chain_db(n: i64) -> Database {
        let mut db = Database::new();
        for i in 0..n {
            db.insert("edge", int_tuple(&[i, i + 1]));
        }
        db
    }

    #[test]
    fn chain_closure_estimate_within_bounds() {
        let prog = parse_program(
            "reach(X, Y) :- edge(X, Y).\n\
             reach(X, Y) :- edge(X, Z), reach(Z, Y).",
        )
        .unwrap();
        let db = chain_db(60);
        let mut stats = EdbStats::new();
        let mut est = Estimator::new(&db, &mut stats);
        let e = est.estimate(&Prepared::batch(&db, prog.clone(), &BTreeMap::new()).unwrap());
        let actual = evaluate(&db, &prog, Strategy::SemiNaive)
            .unwrap()
            .relation("reach")
            .unwrap()
            .len() as f64;
        assert!(!e.capped, "chain closure converges: {e:?}");
        assert!(
            e.rows >= actual / 10.0 && e.rows <= actual * 10.0,
            "estimate {} vs actual {actual} breaches the 10x band",
            e.rows
        );
        assert!(e.work >= e.rows, "work includes at least the output rows");
        assert!(e.rounds > 1 && e.rounds <= DEPTH_CAP);
        // What a relation keeps resident per row: one 8-byte word per
        // column (`Relation::estimated_bytes` pins the same figure).
        assert_eq!(e.bytes, e.rows * 16.0, "two words per reach row");
    }

    #[test]
    fn domain_caps_bound_dense_recursion() {
        // Complete digraph on 12 nodes: reach is exactly 12×12 = 144.
        let mut db = Database::new();
        for a in 0..12 {
            for b in 0..12 {
                db.insert("edge", int_tuple(&[a, b]));
            }
        }
        let prog = parse_program(
            "reach(X, Y) :- edge(X, Y).\n\
             reach(X, Y) :- edge(X, Z), reach(Z, Y).",
        )
        .unwrap();
        let mut stats = EdbStats::new();
        let mut est = Estimator::new(&db, &mut stats);
        let e = est.estimate(&Prepared::batch(&db, prog.clone(), &BTreeMap::new()).unwrap());
        // The cap is the exact answer here; the estimate must respect it.
        assert!(
            (e.rows - 144.0).abs() < 1.0,
            "domain cap should pin the estimate at 144, got {}",
            e.rows
        );
    }

    #[test]
    fn nonrecursive_program_is_one_round() {
        let prog = parse_program("big(X, Y) :- edge(X, Y).").unwrap();
        let db = chain_db(5);
        let mut stats = EdbStats::new();
        let mut est = Estimator::new(&db, &mut stats);
        let e = est.estimate(&Prepared::batch(&db, prog.clone(), &BTreeMap::new()).unwrap());
        assert_eq!(e.rounds, 1);
        assert!((e.rows - 5.0).abs() < 1e-9);
    }
}
