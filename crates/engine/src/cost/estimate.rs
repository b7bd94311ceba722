//! Size-bound cardinality estimation over compiled plans.
//!
//! The estimator mirrors the semi-naive evaluator symbolically: it
//! compiles every rule exactly as [`crate::eval::Evaluator`] would (one
//! full plan plus one delta variant per IDB subgoal occurrence, the same
//! size-based join ordering), reduces each compiled plan to a *shape* —
//! seed scan, probe chain with per-probe fanout sources, head projection
//! sources — and then iterates rounds of cheap float arithmetic instead
//! of rounds of joins. Per round, a plan's output is its seed view's
//! cardinality times the product of its probe fanouts (existential
//! probes contribute `min(1, fanout)`: the kernel's first-hit
//! short-circuit); per predicate, totals are capped by the product of
//! per-column domain sizes derived from EDB distinct counts by a
//! monotone propagation fixpoint — the *Size Bound-Adorned Datalog*
//! bound: no predicate can exceed the product of its columns' active
//! domains. Iteration stops when deltas die out or at [`DEPTH_CAP`]
//! rounds, whichever is first.
//!
//! Everything is an upper-bound-flavored estimate: filters, negation,
//! and residual checks multiply by 1.0, and dedup is modeled only
//! through the domain caps. On the gen workloads this lands within a
//! few x of actual cardinalities (asserted within 10x by
//! `tests/cost_agreement.rs`), which is accurate enough to rank rewrite
//! alternatives whose true costs differ by integer factors.

use super::stats::EdbStats;
use crate::database::Database;
use crate::error::EngineError;
use crate::eval::{delta_capable, RulePlans};
use crate::fxhash::FxHashMap;
use crate::plan::{CompiledRule, KernelGuard, KernelLookup, KernelSrc, View};
use semrec_datalog::atom::Pred;
use semrec_datalog::program::Program;
use semrec_datalog::word::Word;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Maximum simulated fixpoint rounds. Each round is a few dozen float
/// multiplications per plan, so even the cap costs microseconds — it
/// exists to bound estimation of slowly-converging recursions (long
/// chains) whose domain caps are far away.
pub const DEPTH_CAP: u64 = 4096;

/// Clamp on any estimated row count: beyond this the estimate is
/// "effectively unbounded" and iterating further adds no information.
const ROW_CLAMP: f64 = 1e15;

/// Longest probe chain whose orderings [`Estimator::orderings_of`]
/// enumerates (4! = 24 permutations); the factorial is not paid for
/// wider bodies.
const MAX_REORDERED_PROBES: usize = 4;

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
    /// Bitmask of earlier probe depths this probe's key reads; a probe
    /// reordering is valid only if all dependencies come earlier.
    deps: u64,
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
    has_deltas: bool,
    full: PlanShape,
    deltas: Vec<PlanShape>,
}

/// Cumulative estimate attributed to one rule.
#[derive(Clone, Debug)]
pub struct RuleEstimate {
    /// The rule's head predicate.
    pub head_pred: Pred,
    /// The rule, printed.
    pub rule: String,
    /// Estimated rows this rule derives over the whole fixpoint
    /// (pre-dedup).
    pub rows: f64,
    /// Estimated cumulative intermediate rows the rule's joins touch.
    pub work: f64,
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
    /// Per-rule breakdown.
    pub per_rule: Vec<RuleEstimate>,
    /// Probe-chain orderings enumerated across the program's kernels
    /// (dependency-valid permutations, compiled order included).
    pub orderings_considered: u64,
    /// Best enumerated ordering's advantage over the compiled order
    /// (compiled work / best work, ≥ 1; 1 = compiled order is optimal).
    pub ordering_gain: f64,
}

/// The estimator: walks programs against one database's statistics.
/// Shapes are cached across [`Estimator::estimate`] calls keyed by the
/// rule's text and its in-body IDB predicates, so rewrite alternatives
/// sharing rules (rectified vs residue-pushed programs differ in a few
/// body atoms) share compilation — the memo's subplan deduplication.
pub struct Estimator<'a> {
    db: &'a Database,
    stats: &'a mut EdbStats,
    shapes: FxHashMap<String, Rc<RuleShapes>>,
    /// Rule compilations served from the shape cache.
    pub shape_hits: u64,
    /// Rule compilations paid.
    pub shape_misses: u64,
}

impl<'a> Estimator<'a> {
    /// An estimator over `db`, reading (and filling) `stats`.
    pub fn new(db: &'a Database, stats: &'a mut EdbStats) -> Estimator<'a> {
        Estimator {
            db,
            stats,
            shapes: FxHashMap::default(),
            shape_hits: 0,
            shape_misses: 0,
        }
    }

    /// Estimates evaluating `program` over the estimator's database.
    pub fn estimate(&mut self, program: &Program) -> Result<ProgramEstimate, EngineError> {
        // Head arities; the program was checked before it is priced.
        let arities: BTreeMap<Pred, usize> = (program.rules.iter())
            .map(|r| (r.head.pred, r.head.arity()))
            .collect();
        let idb_preds = program.idb_preds();

        // EDB sizes for the same join-ordering tie-breaks the evaluator
        // uses, so estimated plans are the plans that will actually run.
        let mut sizes: BTreeMap<Pred, usize> = BTreeMap::new();
        for (p, rel) in self.db.iter() {
            sizes.insert(p, rel.len());
        }
        for p in &idb_preds {
            sizes.remove(p);
        }

        let mut rules: Vec<Rc<RuleShapes>> = Vec::with_capacity(program.len());
        for rule in &program.rules {
            rules.push(self.rule_shapes(rule, &idb_preds, &sizes)?);
        }

        // Domain propagation: per-column domain sizes for IDB predicates,
        // a monotone max-fixpoint seeded from EDB distinct counts.
        let mut dom: BTreeMap<(Pred, usize), f64> = BTreeMap::new();
        for p in &idb_preds {
            for c in 0..arities.get(p).copied().unwrap_or(0) {
                dom.insert((*p, c), 0.0);
            }
        }
        for _ in 0..64 {
            let mut changed = false;
            for rs in &rules {
                for (c, src) in rs.full.head_src.iter().enumerate() {
                    let v = self.domain_of(*src, &dom, &idb_preds);
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
        let mut per_rule: Vec<RuleEstimate> = program
            .rules
            .iter()
            .enumerate()
            .map(|(i, r)| RuleEstimate {
                head_pred: rules[i].head_pred,
                rule: r.to_string(),
                rows: 0.0,
                work: 0.0,
            })
            .collect();
        let mut work = 0.0f64;
        let mut rounds = 0u64;
        let mut capped = false;
        loop {
            rounds += 1;
            let mut derived: BTreeMap<Pred, f64> = BTreeMap::new();
            for (i, rs) in rules.iter().enumerate() {
                let variants: Vec<&PlanShape> = if rounds == 1 {
                    vec![&rs.full]
                } else if rs.has_deltas {
                    rs.deltas.iter().collect()
                } else {
                    continue;
                };
                for shape in variants {
                    let (out, w) = self.plan_rows(shape, &total, &delta, &dom);
                    *derived.entry(rs.head_pred).or_insert(0.0) += out;
                    per_rule[i].rows += out;
                    per_rule[i].work += w;
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
            if max_delta < 0.5 || !rules.iter().any(|r| r.has_deltas) {
                break;
            }
            if rounds >= DEPTH_CAP {
                capped = true;
                break;
            }
        }

        // Probe-ordering enumeration over the recursive (delta) shapes,
        // priced against the converged state: how much would the best
        // dependency-valid probe permutation save over the compiled one?
        let mut orderings = 0u64;
        let mut gain = 1.0f64;
        for rs in &rules {
            for shape in &rs.deltas {
                let (n, g) = self.orderings_of(shape, &total, &delta, &dom);
                orderings += n;
                gain = gain.max(g);
            }
        }

        let rows: f64 = total.values().sum();
        let bytes: f64 = total
            .iter()
            .map(|(p, t)| t * arities.get(p).copied().unwrap_or(0) as f64)
            .sum::<f64>()
            * std::mem::size_of::<Word>() as f64;
        Ok(ProgramEstimate {
            rows,
            bytes,
            work,
            rounds,
            capped,
            per_pred: total,
            per_rule,
            orderings_considered: orderings,
            ordering_gain: gain,
        })
    }

    /// Compiles one rule's plan variants (or reuses a cached shape).
    fn rule_shapes(
        &mut self,
        rule: &semrec_datalog::rule::Rule,
        idb_preds: &BTreeSet<Pred>,
        sizes: &BTreeMap<Pred, usize>,
    ) -> Result<Rc<RuleShapes>, EngineError> {
        // Shapes depend on the rule text and on which of its body
        // predicates are IDB (that decides views and delta variants) —
        // not on the rest of the program. Alternatives share both.
        let mut key = rule.to_string();
        key.push('|');
        for a in rule.body_atoms() {
            if idb_preds.contains(&a.pred) {
                key.push_str(&a.pred.to_string());
                key.push(',');
            }
        }
        if let Some(rc) = self.shapes.get(&key) {
            self.shape_hits += 1;
            return Ok(rc.clone());
        }
        self.shape_misses += 1;

        // The evaluator's plans, in batch mode.
        let plans = RulePlans::compile(rule, delta_capable(idb_preds, false), idb_preds, sizes)?;
        let rc = Rc::new(RuleShapes {
            head_pred: rule.head.pred,
            has_deltas: !plans.deltas.is_empty(),
            full: shape_of(&plans.full),
            deltas: plans.deltas.iter().map(shape_of).collect(),
        });
        self.shapes.insert(key, rc.clone());
        Ok(rc)
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
                    deps: 0,
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

    /// Enumerates dependency-valid probe permutations of one shape and
    /// prices them in the given state: returns (orderings considered,
    /// compiled-order work / best-order work).
    fn orderings_of(
        &mut self,
        shape: &PlanShape,
        total: &BTreeMap<Pred, f64>,
        delta: &BTreeMap<Pred, f64>,
        dom: &BTreeMap<(Pred, usize), f64>,
    ) -> (u64, f64) {
        let n = shape.probes.len();
        if n < 2 || shape.probes.iter().any(|p| p.deps == u64::MAX) {
            return (u64::from(n >= 1), 1.0);
        }
        let fanouts: Vec<f64> = shape
            .probes
            .iter()
            .map(|p| {
                let f = self.probe_fanout(p, total, delta, dom);
                if p.existential {
                    f.min(1.0)
                } else {
                    f
                }
            })
            .collect();
        // Unit-seed work of an order: Σ prefix products (the fanout
        // *product* is order-invariant; only intermediate sizes differ).
        let work_of = |order: &[usize]| -> f64 {
            let mut card = 1.0f64;
            let mut w = 0.0f64;
            for &i in order {
                card = (card * fanouts[i]).min(ROW_CLAMP);
                w += card;
            }
            w
        };
        let compiled: Vec<usize> = (0..n).collect();
        let compiled_work = work_of(&compiled);
        let mut best = compiled_work;
        let mut count = 0u64;
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut used = 0u64;
        fn rec(
            probes: &[ProbeShape],
            order: &mut Vec<usize>,
            used: &mut u64,
            count: &mut u64,
            best: &mut f64,
            work_of: &dyn Fn(&[usize]) -> f64,
        ) {
            if order.len() == probes.len() {
                *count += 1;
                let w = work_of(order);
                if w < *best {
                    *best = w;
                }
                return;
            }
            for i in 0..probes.len() {
                let bit = 1u64 << i;
                // Valid only once every dependency is already placed.
                if *used & bit != 0 || probes[i].deps & !*used != 0 {
                    continue;
                }
                *used |= bit;
                order.push(i);
                rec(probes, order, used, count, best, work_of);
                order.pop();
                *used &= !bit;
            }
        }
        rec(
            &shape.probes,
            &mut order,
            &mut used,
            &mut count,
            &mut best,
            &work_of,
        );
        (count, compiled_work / best.max(1e-12))
    }
}

/// Reduces a compiled plan to its estimation shape: the kernel's seed,
/// probe chain (with existential flags and probe-key dependency
/// structure) and head sources. A ground subgoal's membership test
/// ([`KernelGuard::Present`]) stands in the chain where its guard runs,
/// priced as the existential probe it replaces.
fn shape_of(plan: &CompiledRule) -> PlanShape {
    let k = &plan.kernel;
    // The chain: per link, predicate, view, bound columns with their
    // sources (key and residual checks, by column), and existential flag;
    // `at[d]` is kernel probe depth `d`'s link.
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
    let mut at = Vec::with_capacity(k.probes.len());
    for p in &k.probes {
        let mut cols: Vec<(usize, KernelSrc)> =
            p.key_cols.iter().copied().zip(p.key.clone()).collect();
        cols.extend(p.checks.iter().copied());
        cols.sort_by_key(|(c, _)| *c);
        cols.dedup_by_key(|(c, _)| *c);
        at.push(chain.len());
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
    // Reordering freedom is priced only for chains short enough to
    // enumerate; a longer chain keeps its compiled order (the
    // all-earlier sentinel).
    let reorderable = chain.len() <= MAX_REORDERED_PROBES;
    let probes: Vec<ProbeShape> = chain
        .iter()
        .enumerate()
        .map(|(i, (pred, view, cols, existential))| {
            let reads = |d: &usize| at[*d] < i && cols.iter().any(|(_, s)| k.reads_depth(*s, *d));
            ProbeShape {
                pred: *pred,
                view: *view,
                key_cols: cols.iter().map(|(c, _)| *c).collect(),
                existential: *existential,
                deps: if reorderable {
                    (0..at.len())
                        .filter(reads)
                        .fold(0u64, |m, d| m | (1 << at[d]))
                } else {
                    u64::MAX
                },
                key_univ: cols
                    .iter()
                    .map(|(_, s)| {
                        src_id(s)
                            .and_then(|id| classes.get(&id))
                            .cloned()
                            .unwrap_or_default()
                    })
                    .collect(),
            }
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
        let e = est.estimate(&prog).unwrap();
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
        let e = est.estimate(&prog).unwrap();
        // The cap is the exact answer here; the estimate must respect it.
        assert!(
            (e.rows - 144.0).abs() < 1.0,
            "domain cap should pin the estimate at 144, got {}",
            e.rows
        );
    }

    #[test]
    fn shape_cache_shares_rules_across_alternatives() {
        let p1 = parse_program(
            "reach(X, Y) :- edge(X, Y).\n\
             reach(X, Y) :- edge(X, Z), reach(Z, Y).",
        )
        .unwrap();
        // Same rules plus one extra: the two shared rules must hit.
        let p2 = parse_program(
            "reach(X, Y) :- edge(X, Y).\n\
             reach(X, Y) :- edge(X, Z), reach(Z, Y).\n\
             big(X) :- reach(X, Y).",
        )
        .unwrap();
        let db = chain_db(10);
        let mut stats = EdbStats::new();
        let mut est = Estimator::new(&db, &mut stats);
        est.estimate(&p1).unwrap();
        assert_eq!(est.shape_hits, 0);
        assert_eq!(est.shape_misses, 2);
        est.estimate(&p2).unwrap();
        assert_eq!(est.shape_hits, 2, "shared rules reuse cached shapes");
        assert_eq!(est.shape_misses, 3);
    }

    #[test]
    fn nonrecursive_program_is_one_round() {
        let prog = parse_program("big(X, Y) :- edge(X, Y).").unwrap();
        let db = chain_db(5);
        let mut stats = EdbStats::new();
        let mut est = Estimator::new(&db, &mut stats);
        let e = est.estimate(&prog).unwrap();
        assert_eq!(e.rounds, 1);
        assert!((e.rows - 5.0).abs() < 1e-9);
    }
}
