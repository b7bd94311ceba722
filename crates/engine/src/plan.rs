//! Rule compilation: turning a rule into an ordered sequence of indexed
//! scan, filter and assignment steps over variable *slots*.
//!
//! The planner is a greedy bound-ness heuristic: evaluable assignments and
//! filters run as soon as their inputs are bound, and the next subgoal to
//! join is the one with the most bound argument positions (ties broken by
//! source order). Semi-naive evaluation asks for one *delta variant* per
//! IDB subgoal occurrence; the delta occurrence is scanned first, which is
//! the classic seed-from-delta strategy.

use crate::builtins::BuiltinOp;
use crate::error::EngineError;
use crate::fxhash::{FxHashMap, FxHashSet};
use semrec_datalog::atom::Pred;
use semrec_datalog::literal::{CmpOp, Literal};
use semrec_datalog::rule::Rule;
use semrec_datalog::symbol::Symbol;
use semrec_datalog::term::{Term, Value};
use std::collections::BTreeMap;

/// A value source: a variable slot or an inline constant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Source {
    /// Read the slot.
    Slot(usize),
    /// Use the constant.
    Const(Value),
}

/// Which view of a predicate's relation a scan reads (see the evaluator for
/// the old/delta/total row-range bookkeeping).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum View {
    /// The whole relation (EDB predicates).
    Full,
    /// All IDB rows visible at the start of the round.
    Total,
    /// Rows older than the last round's delta.
    Old,
    /// The last round's delta rows.
    Delta,
}

/// How one argument position of a scanned atom is handled per row.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArgPat {
    /// Must equal this constant.
    Const(Value),
    /// Must equal the current value of the slot (bound before this arg).
    Bound(usize),
    /// Binds the slot to the row's value (first occurrence).
    Bind(usize),
}

/// A scan of one body atom.
#[derive(Clone, Debug)]
pub struct ScanStep {
    /// The scanned predicate.
    pub pred: Pred,
    /// Which view to read.
    pub view: View,
    /// Per-argument handling.
    pub args: Vec<ArgPat>,
    /// Columns usable as an index key (constant or pre-scan-bound).
    pub key_cols: Vec<usize>,
    /// Key values, parallel to `key_cols`.
    pub key_vals: Vec<Source>,
    /// Index of the originating literal in the rule body.
    pub literal: usize,
}

/// A negated-subgoal check: fails when a matching tuple exists. A
/// generated variable (named with a `$`) that occurs nowhere else in the
/// rule is existential inside the negation (`!h(Z, W$)` reads
/// `¬∃W h(Z, W)`) and leaves its column out of the key; every other
/// argument is bound when the step runs.
#[derive(Clone, Debug)]
pub struct NegStep {
    /// The negated predicate.
    pub pred: Pred,
    /// Which view to read (Full for EDB, Total for lower-stratum IDB).
    pub view: View,
    /// The subgoal's arity.
    pub arity: usize,
    /// Bound columns, ascending: all of them unless a variable is
    /// existential.
    pub key_cols: Vec<usize>,
    /// Key values, parallel to `key_cols`.
    pub key_vals: Vec<Source>,
    /// `(column, earlier column)` pairs an existential variable repeats
    /// across.
    pub same: Vec<(usize, usize)>,
}

/// An arithmetic builtin evaluation (`plus/3`, `times/3`): computes the
/// unbound argument from the bound ones, or checks the relation when all
/// are bound.
#[derive(Clone, Copy, Debug)]
pub struct ComputeStep {
    /// The operation.
    pub op: BuiltinOp,
    /// The three argument sources.
    pub args: [Source; 3],
    /// Index of the argument to bind (`None` = pure check).
    pub bind: Option<(usize, usize)>, // (arg position, slot)
}

/// A comparison filter over bound values.
#[derive(Clone, Copy, Debug)]
pub struct FilterStep {
    /// Left operand.
    pub lhs: Source,
    /// Operator.
    pub op: CmpOp,
    /// Right operand.
    pub rhs: Source,
}

/// Binds a slot from an equality with an already-bound source.
#[derive(Clone, Copy, Debug)]
pub struct AssignStep {
    /// Destination slot.
    pub slot: usize,
    /// Value source.
    pub from: Source,
}

/// One step of a compiled rule.
#[derive(Clone, Debug)]
pub enum Step {
    /// Join against a relation.
    Scan(ScanStep),
    /// Check a negated subgoal (stratified negation).
    Neg(NegStep),
    /// Evaluate an arithmetic builtin.
    Compute(ComputeStep),
    /// Evaluate a comparison.
    Filter(FilterStep),
    /// Bind a slot.
    Assign(AssignStep),
}

/// Where a kernel value comes from, resolved at plan-compile time so the
/// kernel's inner loop never routes through variable slots: a constant, a
/// column of the current seed row, a column of the current row at an
/// earlier probe depth, or the value a builtin solved for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KernelSrc {
    /// The constant.
    Const(Value),
    /// Column of the seed row.
    Seed(usize),
    /// `(probe depth, column)` of a probe row already matched.
    Probe(usize, usize),
    /// Result of the `i`-th [`KernelCompute`].
    Computed(usize),
}

/// A value-binding builtin (`plus(Y, 1, Z)` solving for `Z`). Its read
/// arguments resolve to constants, seed columns, rows matched at or
/// before the depth that binds it, or earlier computes — so its value
/// is a pure function of the seed row and the matched rows, and the
/// executor re-solves it wherever a [`KernelSrc::Computed`] is read.
/// The [`KernelGuard::Solve`] at the planner's evaluation point drops
/// the candidate when the builtin has no solution (type error, inexact
/// division) before anything reads the value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct KernelCompute {
    /// The operation.
    pub op: BuiltinOp,
    /// Argument sources; the entry at `bind` is the solved position and
    /// is never read.
    pub args: [KernelSrc; 3],
    /// The argument position the builtin solves for.
    pub bind: usize,
}

impl KernelCompute {
    /// The sources the builtin reads: every argument but the solved one.
    pub fn inputs(&self) -> impl Iterator<Item = KernelSrc> + '_ {
        let read = move |(j, &s): (usize, &KernelSrc)| (j != self.bind).then_some(s);
        self.args.iter().enumerate().filter_map(read)
    }
}

/// A membership lookup: does a visible row of `pred` carry `key` in
/// columns `cols`? A negated subgoal is one ([`KernelGuard::Absent`]);
/// so is a ground positive subgoal, whose row nothing downstream needs
/// ([`KernelGuard::Present`]). A full key is a membership-table test; a
/// partial one — a negated subgoal with existential variables — is an
/// anti-probe of the index on the bound columns, never a projection of
/// the relation. The relation is an EDB predicate or an IDB view
/// complete by the time the rule runs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct KernelLookup {
    /// The looked-up predicate.
    pub pred: Pred,
    /// Which view to read.
    pub view: View,
    /// Expected row width; a relation of any other width holds no match.
    pub arity: usize,
    /// Bound columns, ascending.
    pub cols: Vec<usize>,
    /// One source per bound column.
    pub key: Vec<KernelSrc>,
    /// `(column, earlier column)` equalities among the unbound columns.
    pub same: Vec<(usize, usize)>,
}

/// A pass-or-fail test riding a batch-kernel depth, evaluated per
/// candidate row at the planner's evaluation point. Guards never bind
/// anything ([`KernelGuard::Solve`] only verifies that the value other
/// sources will re-solve exists), so the executor can evaluate them
/// wherever their sources are available.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KernelGuard {
    /// A comparison filter (`Y > 50`).
    Cmp(KernelSrc, CmpOp, KernelSrc),
    /// An all-bound arithmetic builtin check (`plus(X, 7, Y)`).
    Builtin(BuiltinOp, [KernelSrc; 3]),
    /// Evaluate-or-drop for the `i`-th [`KernelCompute`].
    Solve(usize),
    /// Anti-probe: the `i`-th [`KernelLookup`] must find no row.
    Absent(usize),
    /// Membership test: the `i`-th [`KernelLookup`] must find a row.
    Present(usize),
}

/// One indexed probe in a [`BatchKernel`] chain.
#[derive(Clone, Debug)]
pub struct KernelProbe {
    /// The probed predicate.
    pub pred: Pred,
    /// Which view to read.
    pub view: View,
    /// Expected row width (the atom's arity); rows of any other width
    /// never match.
    pub arity: usize,
    /// Index key columns (same as the originating scan step's). Empty
    /// for a cross product: the zero-column index files every row under
    /// the one empty key, so the probe walks the whole visible range.
    pub key_cols: Vec<usize>,
    /// Key value sources, parallel to `key_cols`.
    pub key: Vec<KernelSrc>,
    /// Offset of this depth's key in the executor's packed key buffer
    /// (the summed key widths of the earlier depths).
    pub key_at: usize,
    /// Residual equality checks on non-key columns (repeated variables
    /// first bound within this same atom).
    pub checks: Vec<(usize, KernelSrc)>,
    /// Guards the planner placed directly after this probe; they may
    /// read this depth and anything bound earlier.
    pub guards: Vec<KernelGuard>,
    /// `true` when no later probe key, later check or guard, or head
    /// term reads a column of this probe's matched row: the probe is a
    /// pure existence test (a semijoin), and the kernel stops at its
    /// first match instead of enumerating every duplicate-producing
    /// group row. This is the witness-guard shape the paper's isolating
    /// rules introduce — `witness(Z, W)` with `W` otherwise unused.
    pub existential: bool,
}

/// The executable form of every compiled rule: a seed (a key-less or
/// constant-keyed scan, or the unit seed) followed by a chain of indexed
/// probes, guards at the planner's evaluation points, and the head
/// projected straight from row columns, constants and solved builtins.
/// The canonical instance is the linear recursive rule
/// `T(x,z) :- T(x,y), E(y,z)` — delta-seed scan of `T`, one probe of
/// `E`, direct projection. The derivation is total over what
/// [`compile_rule`] accepts: negation is a [`KernelGuard::Absent`], a
/// ground subgoal after the seed a [`KernelGuard::Present`], a binding
/// builtin a [`KernelCompute`] at any depth, a cross product a probe on
/// the zero-column index, and a rule with nothing to scan first (no
/// body, or a guard or computed key ahead of the first scan) starts from
/// the unit seed. Chains are as long as the body.
#[derive(Clone, Debug)]
pub struct BatchKernel {
    /// The seed predicate; `None` is the unit seed — the evaluator's
    /// built-in nullary relation holding one empty row, so the rule is
    /// "one seed row + probes" like any other.
    pub seed_pred: Option<Pred>,
    /// The seed view (Delta for semi-naive variants).
    pub seed_view: View,
    /// Expected seed row width.
    pub seed_arity: usize,
    /// Index key columns on the seed scan (empty = full range scan).
    pub seed_key_cols: Vec<usize>,
    /// Constant key values, parallel to `seed_key_cols`.
    pub seed_key: Vec<Value>,
    /// Constant / repeated-variable checks on the seed row.
    pub seed_checks: Vec<(usize, KernelSrc)>,
    /// Guards evaluable from the seed row alone (placed before any
    /// probe).
    pub seed_guards: Vec<KernelGuard>,
    /// Binding builtins, in planner order (later computes may read
    /// earlier ones); each has one [`KernelGuard::Solve`].
    pub computes: Vec<KernelCompute>,
    /// Membership lookups; each has one [`KernelGuard::Absent`] or
    /// [`KernelGuard::Present`].
    pub lookups: Vec<KernelLookup>,
    /// The probe chain, outermost first.
    pub probes: Vec<KernelProbe>,
    /// Head projection.
    pub head: Vec<KernelSrc>,
}

impl BatchKernel {
    /// Total width of the packed probe-key buffer.
    pub fn key_width(&self) -> usize {
        self.probes.last().map_or(0, |p| p.key_at + p.key.len())
    }

    /// True when resolving `src` reads the row matched at probe depth
    /// `d`, directly or through the arguments of a compute.
    pub fn reads_depth(&self, src: KernelSrc, d: usize) -> bool {
        match src {
            KernelSrc::Probe(dd, _) => dd == d,
            KernelSrc::Computed(ci) => {
                let mut inputs = self.computes[ci].inputs();
                inputs.any(|s| self.reads_depth(s, d))
            }
            KernelSrc::Const(_) | KernelSrc::Seed(_) => false,
        }
    }

    /// True when `f` holds for every source `g` resolves.
    pub fn guard_all(&self, g: &KernelGuard, mut f: impl FnMut(KernelSrc) -> bool) -> bool {
        match *g {
            KernelGuard::Cmp(l, _, r) => f(l) && f(r),
            KernelGuard::Builtin(_, args) => args.iter().all(|&s| f(s)),
            KernelGuard::Solve(ci) => f(KernelSrc::Computed(ci)),
            KernelGuard::Absent(li) | KernelGuard::Present(li) => {
                self.lookups[li].key.iter().all(|&s| f(s))
            }
        }
    }
}

/// A fully compiled rule.
#[derive(Clone, Debug)]
pub struct CompiledRule {
    /// Head predicate.
    pub head_pred: Pred,
    /// Head projection.
    pub head: Vec<Source>,
    /// Ordered steps: the planner's IR, printed by `semrec plan`.
    pub steps: Vec<Step>,
    /// Number of variable slots.
    pub nslots: usize,
    /// Variable name of each slot (diagnostics).
    pub slot_vars: Vec<Symbol>,
    /// What the evaluator runs, derived from `steps` at compile time.
    pub kernel: BatchKernel,
}

/// Derives the [`BatchKernel`] of a compiled step sequence. The first
/// scan seeds the iteration when nothing that needs a seed row precedes
/// it (its key, if any, is then all constants); otherwise — a guard or
/// a compute ahead of the first scan, or no scan at all — the rule
/// starts from the unit seed and every other scan is a probe — or, when
/// it is ground (every column bound before it runs), a membership test:
/// its one possible row carries nothing the key does not. Filters,
/// builtins, negated and ground subgoals become guards attached to the
/// most recent probe (or the seed), preserving the planner's evaluation
/// point.
fn derive_kernel(steps: &[Step], head: &[Source], nslots: usize) -> BatchKernel {
    // Where each slot was first bound, in step order; `compile_rule`
    // binds every slot before its first read.
    let mut bindings: Vec<Option<KernelSrc>> = vec![None; nslots];
    let resolve = |bindings: &[Option<KernelSrc>], v: Source| match v {
        Source::Const(c) => KernelSrc::Const(c),
        Source::Slot(sl) => bindings[sl].expect("slot bound before use"),
    };
    // A lookup of the `cols` of `pred` keyed by `vals`.
    let lookup = |bindings: &[Option<KernelSrc>], pred, view, arity, cols: &[usize], vals: &[_]| {
        let key = vals.iter().map(|&v| resolve(bindings, v)).collect();
        let (cols, same) = (cols.to_vec(), Vec::new());
        KernelLookup {
            pred,
            view,
            arity,
            cols,
            key,
            same,
        }
    };
    let mut k = BatchKernel {
        seed_pred: None,
        seed_view: View::Full,
        seed_arity: 0,
        seed_key_cols: Vec::new(),
        seed_key: Vec::new(),
        seed_checks: Vec::new(),
        seed_guards: Vec::new(),
        computes: Vec::new(),
        lookups: Vec::new(),
        probes: Vec::new(),
        head: Vec::new(),
    };
    // Cleared by the first step that needs a seed row: a scan seen while
    // it is still set becomes the seed, any later one a probe.
    let mut seedable = true;
    for step in steps {
        let guard = match step {
            Step::Assign(a) => {
                bindings[a.slot] = Some(resolve(&bindings, a.from));
                continue;
            }
            Step::Filter(fs) => KernelGuard::Cmp(
                resolve(&bindings, fs.lhs),
                fs.op,
                resolve(&bindings, fs.rhs),
            ),
            Step::Compute(cs) => {
                let bind = cs.bind.map(|(pos, _)| pos);
                let mut args = [KernelSrc::Seed(0); 3];
                for (j, &a) in cs.args.iter().enumerate() {
                    if bind != Some(j) {
                        args[j] = resolve(&bindings, a);
                    }
                }
                match cs.bind {
                    None => KernelGuard::Builtin(cs.op, args),
                    Some((pos, slot)) => {
                        k.computes.push(KernelCompute {
                            op: cs.op,
                            args,
                            bind: pos,
                        });
                        let ci = k.computes.len() - 1;
                        bindings[slot] = Some(KernelSrc::Computed(ci));
                        KernelGuard::Solve(ci)
                    }
                }
            }
            Step::Neg(n) => {
                let mut l = lookup(&bindings, n.pred, n.view, n.arity, &n.key_cols, &n.key_vals);
                l.same = n.same.clone();
                k.lookups.push(l);
                KernelGuard::Absent(k.lookups.len() - 1)
            }
            Step::Scan(s) if !seedable && s.key_cols.len() == s.args.len() => {
                let (cols, vals) = (&s.key_cols, &s.key_vals);
                k.lookups
                    .push(lookup(&bindings, s.pred, s.view, cols.len(), cols, vals));
                KernelGuard::Present(k.lookups.len() - 1)
            }
            Step::Scan(s) => {
                let seed = std::mem::take(&mut seedable);
                let d = k.probes.len();
                let key: Vec<KernelSrc> =
                    s.key_vals.iter().map(|&v| resolve(&bindings, v)).collect();
                let mut checks = Vec::new();
                for (col, pat) in s.args.iter().enumerate() {
                    if s.key_cols.contains(&col) {
                        continue; // enforced by the dictionary code match
                    }
                    let here = if seed {
                        KernelSrc::Seed(col)
                    } else {
                        KernelSrc::Probe(d, col)
                    };
                    match *pat {
                        ArgPat::Const(c) => checks.push((col, KernelSrc::Const(c))),
                        ArgPat::Bind(sl) => bindings[sl] = Some(here),
                        // A repeated variable within the atom: equality
                        // with the column that bound it.
                        ArgPat::Bound(sl) => {
                            checks.push((col, resolve(&bindings, Source::Slot(sl))))
                        }
                    }
                }
                if seed {
                    // Only assignments can precede the seed scan, so
                    // its key (e.g. `R = executive` pushed into the
                    // index key) is all constants: the executor
                    // enumerates one dictionary group instead of the
                    // range.
                    k.seed_pred = Some(s.pred);
                    k.seed_view = s.view;
                    k.seed_arity = s.args.len();
                    k.seed_key_cols = s.key_cols.clone();
                    k.seed_key = key
                        .iter()
                        .map(|src| match *src {
                            KernelSrc::Const(c) => c,
                            _ => unreachable!("seed key bound before any row"),
                        })
                        .collect();
                    k.seed_checks = checks;
                } else {
                    let key_at = k.key_width();
                    k.probes.push(KernelProbe {
                        pred: s.pred,
                        view: s.view,
                        arity: s.args.len(),
                        key_cols: s.key_cols.clone(),
                        key_at,
                        key,
                        checks,
                        guards: Vec::new(),
                        existential: false,
                    });
                }
                continue;
            }
        };
        seedable = false;
        match k.probes.last_mut() {
            Some(p) => p.guards.push(guard),
            None => k.seed_guards.push(guard),
        }
    }
    k.head = head.iter().map(|&h| resolve(&bindings, h)).collect();
    // A probe depth nothing downstream reads is an existence test: once
    // one group row matches, every further match emits the exact same
    // head tuples, so the executor may short-circuit. `checks` and
    // `guards` *within* a depth run while matching that depth and don't
    // pin it.
    for d in 0..k.probes.len() {
        let reads = |s: KernelSrc| k.reads_depth(s, d);
        let in_later = k.probes[d + 1..].iter().any(|p| {
            p.key.iter().any(|&s| reads(s))
                || p.checks.iter().any(|&(_, s)| reads(s))
                || p.guards.iter().any(|g| !k.guard_all(g, |s| !reads(s)))
        });
        let pinned = in_later || k.head.iter().any(|&s| reads(s));
        k.probes[d].existential = !pinned;
    }
    k
}

struct Compiler<'a> {
    rule: &'a Rule,
    slots: FxHashMap<Symbol, usize>,
    slot_vars: Vec<Symbol>,
    bound: FxHashSet<usize>,
    steps: Vec<Step>,
    /// Views for negated literals (by body index).
    neg_views: FxHashMap<usize, View>,
}

impl<'a> Compiler<'a> {
    fn slot(&mut self, v: Symbol) -> usize {
        if let Some(&s) = self.slots.get(&v) {
            return s;
        }
        let s = self.slot_vars.len();
        self.slots.insert(v, s);
        self.slot_vars.push(v);
        s
    }

    fn source(&mut self, t: Term) -> Source {
        match t {
            Term::Const(c) => Source::Const(c),
            Term::Var(v) => Source::Slot(self.slot(v)),
        }
    }

    fn source_is_bound(&self, s: Source) -> bool {
        match s {
            Source::Const(_) => true,
            Source::Slot(i) => self.bound.contains(&i),
        }
    }

    /// True for a constant or a variable already bound.
    fn term_bound(&self, t: Term) -> bool {
        match t {
            Term::Const(_) => true,
            Term::Var(v) => self.slots.get(&v).is_some_and(|s| self.bound.contains(s)),
        }
    }

    /// True when `v` is a generated variable (its name carries a `$`, which
    /// `.dl` text cannot spell) occurring in body literal `li` and nowhere
    /// else in the rule: inside a negation it is then existential. The
    /// IC compiler ([`crate::incr::IcCheck`]) names head-only variables
    /// this way; in a user's rule an unbound variable under a negation
    /// stays unsafe, so a misspelling is an error rather than a quantifier.
    fn existential(&self, li: usize, v: Symbol) -> bool {
        let elsewhere = |(lj, l): (usize, &Literal)| lj != li && l.vars().contains(&v);
        v.as_str().contains('$')
            && !self.rule.head.vars().any(|x| x == v)
            && !self.rule.body.iter().enumerate().any(elsewhere)
    }

    /// Emits the scan for body literal `li` (must be an atom), given the
    /// view it should read.
    fn emit_scan(&mut self, li: usize, view: View) {
        let atom = self.rule.body[li].as_atom().expect("scan of non-atom");
        let mut args = Vec::with_capacity(atom.arity());
        let mut key_cols = Vec::new();
        let mut key_vals = Vec::new();
        let mut newly_bound: FxHashSet<usize> = FxHashSet::default();
        for (col, &t) in atom.args.iter().enumerate() {
            match t {
                Term::Const(c) => {
                    args.push(ArgPat::Const(c));
                    key_cols.push(col);
                    key_vals.push(Source::Const(c));
                }
                Term::Var(v) => {
                    let s = self.slot(v);
                    if self.bound.contains(&s) {
                        args.push(ArgPat::Bound(s));
                        // Only pre-scan bound slots join the index key.
                        if !newly_bound.contains(&s) {
                            key_cols.push(col);
                            key_vals.push(Source::Slot(s));
                        }
                    } else {
                        args.push(ArgPat::Bind(s));
                        self.bound.insert(s);
                        newly_bound.insert(s);
                    }
                }
            }
        }
        self.steps.push(Step::Scan(ScanStep {
            pred: atom.pred,
            view,
            args,
            key_cols,
            key_vals,
            literal: li,
        }));
    }

    /// Emits every currently runnable comparison (assignments first, then
    /// filters) and fully bound negated subgoal, repeating until none
    /// applies. Marks indices in `done`.
    fn drain_cmps(&mut self, done: &mut FxHashSet<usize>) {
        loop {
            let mut progressed = false;
            for (li, l) in self.rule.body.iter().enumerate() {
                if done.contains(&li) {
                    continue;
                }
                if let Literal::Atom(a) = l {
                    if let Some(op) = BuiltinOp::of(a.pred) {
                        if a.arity() != BuiltinOp::ARITY {
                            continue;
                        }
                        let srcs: Vec<Source> = a.args.iter().map(|&t| self.source(t)).collect();
                        let bound_count = srcs.iter().filter(|s| self.source_is_bound(**s)).count();
                        if bound_count >= 2 {
                            let bind =
                                srcs.iter()
                                    .position(|s| !self.source_is_bound(*s))
                                    .map(|pos| {
                                        let Source::Slot(sl) = srcs[pos] else {
                                            unreachable!("unbound source is a slot")
                                        };
                                        self.bound.insert(sl);
                                        (pos, sl)
                                    });
                            self.steps.push(Step::Compute(ComputeStep {
                                op,
                                args: [srcs[0], srcs[1], srcs[2]],
                                bind,
                            }));
                            done.insert(li);
                            progressed = true;
                        }
                        continue;
                    }
                    continue;
                }
                if let Literal::Neg(a) = l {
                    // Waits until every variable is bound or existential.
                    let ready = |t: &Term| match t {
                        Term::Var(v) => self.term_bound(*t) || self.existential(li, *v),
                        Term::Const(_) => true,
                    };
                    if a.args.iter().all(ready) {
                        let mut step = NegStep {
                            pred: a.pred,
                            view: self.neg_views.get(&li).copied().unwrap_or(View::Full),
                            arity: a.arity(),
                            key_cols: Vec::new(),
                            key_vals: Vec::new(),
                            same: Vec::new(),
                        };
                        for (col, &t) in a.args.iter().enumerate() {
                            if self.term_bound(t) {
                                step.key_cols.push(col);
                                step.key_vals.push(self.source(t));
                            } else if let Some(first) = a.args[..col].iter().position(|&u| u == t) {
                                step.same.push((col, first));
                            }
                        }
                        self.steps.push(Step::Neg(step));
                        done.insert(li);
                        progressed = true;
                    }
                    continue;
                }
                let Literal::Cmp(c) = l else { continue };
                let lhs = self.source(c.lhs);
                let rhs = self.source(c.rhs);
                let lb = self.source_is_bound(lhs);
                let rb = self.source_is_bound(rhs);
                if lb && rb {
                    self.steps
                        .push(Step::Filter(FilterStep { lhs, op: c.op, rhs }));
                    done.insert(li);
                    progressed = true;
                } else if c.op == CmpOp::Eq && (lb || rb) {
                    let (slot, from) = if lb {
                        let Source::Slot(s) = rhs else { unreachable!() };
                        (s, lhs)
                    } else {
                        let Source::Slot(s) = lhs else { unreachable!() };
                        (s, rhs)
                    };
                    self.steps.push(Step::Assign(AssignStep { slot, from }));
                    self.bound.insert(slot);
                    done.insert(li);
                    progressed = true;
                }
            }
            if !progressed {
                return;
            }
        }
    }
}

/// Compiles a rule. `views` assigns a [`View`] to each body-literal index
/// that is an atom (atoms not present default to [`View::Full`]).
/// `first_literal` forces a particular atom to be scanned first (used for
/// the delta occurrence in semi-naive variants).
pub fn compile_rule(
    rule: &Rule,
    views: &BTreeMap<usize, View>,
    first_literal: Option<usize>,
) -> Result<CompiledRule, EngineError> {
    compile_rule_with_sizes(rule, views, first_literal, &BTreeMap::new())
}

/// Like [`compile_rule`], with relation cardinalities for join ordering:
/// when two candidate subgoals have equally many bound argument positions,
/// the smaller relation is scanned first (classic selectivity heuristic —
/// this is what realizes the paper's §4(2) "introduction of small
/// relations in the context of joining large relations"). Predicates
/// absent from `sizes` are assumed large.
pub fn compile_rule_with_sizes(
    rule: &Rule,
    views: &BTreeMap<usize, View>,
    first_literal: Option<usize>,
    sizes: &BTreeMap<Pred, usize>,
) -> Result<CompiledRule, EngineError> {
    let mut c = Compiler {
        rule,
        slots: FxHashMap::default(),
        slot_vars: Vec::new(),
        bound: FxHashSet::default(),
        steps: Vec::new(),
        neg_views: views
            .iter()
            .filter(|(li, _)| rule.body.get(**li).is_some_and(|l| l.as_neg().is_some()))
            .map(|(&li, &v)| (li, v))
            .collect(),
    };

    let atom_indices: Vec<usize> = rule
        .body
        .iter()
        .enumerate()
        .filter(|(_, l)| l.as_atom().is_some_and(|a| BuiltinOp::of(a.pred).is_none()))
        .map(|(i, _)| i)
        .collect();
    let mut done: FxHashSet<usize> = FxHashSet::default();

    let view_of = |li: usize| views.get(&li).copied().unwrap_or(View::Full);

    c.drain_cmps(&mut done);
    if let Some(first) = first_literal {
        debug_assert!(atom_indices.contains(&first));
        c.emit_scan(first, view_of(first));
        done.insert(first);
        c.drain_cmps(&mut done);
    }

    loop {
        // Pick the remaining atom with the most bound argument positions.
        // Among boundness-ties the smaller relation goes first — but only
        // when every tied candidate has a known size; if any is unknown
        // (IDB, e.g. a magic guard placed first on purpose) source order
        // is preserved.
        let bound_count = |li: usize| {
            let atom = rule.body[li].as_atom().unwrap();
            atom.args.iter().filter(|&&t| c.term_bound(t)).count()
        };
        let candidates: Vec<usize> = atom_indices
            .iter()
            .filter(|li| !done.contains(li))
            .copied()
            .collect();
        let Some(&max_bound) = candidates
            .iter()
            .map(|&li| bound_count(li))
            .collect::<Vec<_>>()
            .iter()
            .max()
        else {
            break;
        };
        let tied: Vec<usize> = candidates
            .into_iter()
            .filter(|&li| bound_count(li) == max_bound)
            .collect();
        let tied_sizes: Vec<Option<usize>> = tied
            .iter()
            .map(|&li| {
                let atom = rule.body[li].as_atom().unwrap();
                sizes.get(&atom.pred).copied()
            })
            .collect();
        let li = if tied.len() > 1 && tied_sizes.iter().all(Option::is_some) {
            tied.iter()
                .zip(&tied_sizes)
                .min_by_key(|(&li, sz)| (sz.unwrap(), li))
                .map(|(&li, _)| li)
                .unwrap()
        } else {
            tied[0]
        };
        c.emit_scan(li, view_of(li));
        done.insert(li);
        c.drain_cmps(&mut done);
    }

    // Any leftover comparison or negated subgoal has an unbound variable:
    // the rule is unsafe.
    for (li, l) in rule.body.iter().enumerate() {
        if done.contains(&li) {
            continue;
        }
        match l {
            Literal::Cmp(cmp) => {
                return Err(EngineError::UnsafeRule {
                    rule: rule.to_string(),
                    detail: format!("comparison `{cmp}` has unbound variables"),
                });
            }
            Literal::Neg(a) => {
                return Err(EngineError::UnsafeRule {
                    rule: rule.to_string(),
                    detail: format!("negated subgoal `!{a}` has unbound variables"),
                });
            }
            Literal::Atom(a) if BuiltinOp::of(a.pred).is_some() => {
                return Err(EngineError::UnsafeRule {
                    rule: rule.to_string(),
                    detail: format!("builtin `{a}` needs at least two bound arguments"),
                });
            }
            Literal::Atom(_) => {}
        }
    }

    // Head projection; every head variable must be bound.
    let mut head = Vec::with_capacity(rule.head.arity());
    for &t in &rule.head.args {
        let s = c.source(t);
        if !c.source_is_bound(s) {
            return Err(EngineError::UnsafeRule {
                rule: rule.to_string(),
                detail: format!("head term `{t}` is not bound by the body"),
            });
        }
        head.push(s);
    }

    let kernel = derive_kernel(&c.steps, &head, c.slot_vars.len());
    Ok(CompiledRule {
        head_pred: rule.head.pred,
        head,
        nslots: c.slot_vars.len(),
        slot_vars: c.slot_vars,
        steps: c.steps,
        kernel,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_datalog::parser::parse_rule;

    fn compile(src: &str) -> CompiledRule {
        compile_rule(&parse_rule(src).unwrap(), &BTreeMap::new(), None).unwrap()
    }

    #[test]
    fn scans_then_filters() {
        let c = compile("p(X,Y) :- e(X,Z), Z > 3, f(Z,Y).");
        // e scanned first (tie-break by order), then Z>3 filter, then f.
        assert_eq!(c.steps.len(), 3);
        assert!(matches!(&c.steps[0], Step::Scan(s) if s.pred == Pred::new("e")));
        assert!(matches!(&c.steps[1], Step::Filter(_)));
        assert!(matches!(&c.steps[2], Step::Scan(s) if s.pred == Pred::new("f")));
        // f's first column is bound by then → index key on col 0.
        if let Step::Scan(s) = &c.steps[2] {
            assert_eq!(s.key_cols, vec![0]);
        }
    }

    #[test]
    fn constant_goes_to_index_key() {
        let c = compile("p(X) :- e(X, 7).");
        if let Step::Scan(s) = &c.steps[0] {
            assert_eq!(s.key_cols, vec![1]);
            assert_eq!(s.key_vals, vec![Source::Const(Value::Int(7))]);
        } else {
            panic!("expected scan");
        }
    }

    #[test]
    fn repeated_var_in_atom_checks_equality_not_key() {
        let c = compile("p(X) :- e(X, X).");
        if let Step::Scan(s) = &c.steps[0] {
            assert!(s.key_cols.is_empty());
            assert!(matches!(s.args[0], ArgPat::Bind(_)));
            assert!(matches!(s.args[1], ArgPat::Bound(_)));
        } else {
            panic!("expected scan");
        }
    }

    #[test]
    fn assignment_from_equality() {
        let c = compile("p(X,Y) :- e(X), Y = X.");
        assert!(c.steps.iter().any(|s| matches!(s, Step::Assign(_))));
    }

    #[test]
    fn eq_chain_assignments() {
        let c = compile("p(X,Y) :- e(X), Y = Z, Z = X.");
        let assigns = c
            .steps
            .iter()
            .filter(|s| matches!(s, Step::Assign(_)))
            .count();
        assert_eq!(assigns, 2);
    }

    #[test]
    fn unsafe_rule_rejected() {
        let r = parse_rule("p(X,Y) :- e(X), Y > 3.").unwrap();
        let err = compile_rule(&r, &BTreeMap::new(), None).unwrap_err();
        assert!(err.to_string().contains("unbound"));
        let r = parse_rule("p(X,Y) :- e(X).").unwrap();
        assert!(compile_rule(&r, &BTreeMap::new(), None).is_err());
    }

    #[test]
    fn first_literal_is_honored() {
        let r = parse_rule("p(X,Y) :- e(X,Z), q(Z,Y).").unwrap();
        let c = compile_rule(&r, &BTreeMap::new(), Some(1)).unwrap();
        assert!(matches!(&c.steps[0], Step::Scan(s) if s.pred == Pred::new("q")));
    }

    #[test]
    fn ground_head_constant_projection() {
        let c = compile("p(X, 3) :- e(X).");
        assert_eq!(c.head[1], Source::Const(Value::Int(3)));
    }

    #[test]
    fn linear_shape_gets_a_kernel() {
        // The canonical linear recursive shape: key-less seed, one
        // indexed probe, direct head projection.
        let c = compile("t(X,Z) :- t0(X,Y), e(Y,Z).");
        let k = &c.kernel;
        assert_eq!(k.seed_pred, Some(Pred::new("t0")));
        assert_eq!(k.probes.len(), 1);
        assert_eq!(k.probes[0].pred, Pred::new("e"));
        assert_eq!(k.probes[0].key_cols, vec![0]);
        assert_eq!(k.probes[0].key, vec![KernelSrc::Seed(1)]);
        assert_eq!(k.head, vec![KernelSrc::Seed(0), KernelSrc::Probe(0, 1)]);
    }

    #[test]
    fn probe_chain_gets_a_kernel() {
        // Seed plus two chained probes (the fanout witness shape).
        let c = compile("r(X,Y) :- d(Z,Y), e(X,Z), w(Z,W).");
        let k = &c.kernel;
        assert_eq!(k.probes.len(), 2);
        for p in &k.probes {
            assert!(!p.key_cols.is_empty());
        }
        // `e` binds `X`, which the head reads; `w` binds only the unused
        // `W`, so it is a pure existence test.
        let e = k.probes.iter().position(|p| p.pred == Pred::new("e"));
        let w = k.probes.iter().position(|p| p.pred == Pred::new("w"));
        assert!(!k.probes[e.unwrap()].existential);
        assert!(k.probes[w.unwrap()].existential);
    }

    #[test]
    fn probe_read_by_later_key_is_not_existential() {
        // `f` binds nothing the head reads, but its `Y` keys the later
        // `g` probe — short-circuiting `f` would drop bindings.
        let c = compile("p(X,Z) :- s(X), f(X,Y), g(Y,Z).");
        let k = &c.kernel;
        assert_eq!(k.probes.len(), 2);
        assert!(!k.probes[0].existential);
        assert!(!k.probes[1].existential);
    }

    #[test]
    fn kernel_captures_repeats_within_a_probe() {
        // `Y` is first bound at probe column 1 and repeated at column 2:
        // the kernel must carry a residual equality check, not a key col.
        let c = compile("p(X,Y) :- s(X), e(X, Y, Y).");
        let k = &c.kernel;
        assert_eq!(k.probes[0].key_cols, vec![0]);
        assert_eq!(k.probes[0].checks, vec![(2, KernelSrc::Probe(0, 1))]);
    }

    #[test]
    fn formerly_interpreted_shapes_get_kernels() {
        // A binding builtin after two probes: the compute reads the `f`
        // row, its `Solve` guard rides that probe, and `g` is keyed by
        // the solved value — which pins `f` non-existential.
        let c = compile("p(X, V) :- e(X,Y), f(Y,W), plus(W, 1, Z), g(Z, V).");
        let k = &c.kernel;
        assert_eq!(k.computes.len(), 1);
        assert_eq!(k.computes[0].args[0], KernelSrc::Probe(0, 1));
        assert_eq!(k.probes[0].guards, vec![KernelGuard::Solve(0)]);
        assert_eq!(k.probes[1].key, vec![KernelSrc::Computed(0)]);
        assert!(!k.probes[0].existential);
        // Negation: an anti-probe guard at the planner's evaluation
        // point, keyed by the seed row.
        let k = compile("p(X) :- e(X,Y), !blocked(X,Y).").kernel;
        assert_eq!(k.seed_guards, vec![KernelGuard::Absent(0)]);
        assert_eq!(k.lookups[0].pred, Pred::new("blocked"));
        assert_eq!(k.lookups[0].cols, vec![0, 1]);
        assert_eq!(
            k.lookups[0].key,
            vec![KernelSrc::Seed(0), KernelSrc::Seed(1)]
        );
        // A ground subgoal after the seed is a membership test, not a
        // probe: nothing downstream needs its row.
        let k = compile("p(X,Z) :- e(X,Y), f(Y,Z), e(Z,X).").kernel;
        assert_eq!(k.probes.len(), 1);
        assert_eq!(k.probes[0].guards, vec![KernelGuard::Present(0)]);
        assert_eq!(k.lookups[0].pred, Pred::new("e"));
        assert_eq!(
            k.lookups[0].key,
            vec![KernelSrc::Probe(0, 1), KernelSrc::Seed(0)]
        );
        // A cross product: a probe on the zero-column index.
        let k = compile("p(X,Y) :- e(X), f(Y).").kernel;
        assert_eq!(k.probes.len(), 1);
        assert!(k.probes[0].key_cols.is_empty() && k.probes[0].key.is_empty());
        // A bodyless rule: the unit seed and nothing else.
        let k = compile("p(1, 2).").kernel;
        assert_eq!(k.seed_pred, None);
        assert!(k.probes.is_empty());
        assert_eq!(k.head.len(), 2);
        // A computed key ahead of the first scan: unit seed, and the
        // scan becomes a probe keyed by the solved value.
        let k = compile("p(Y, Z) :- plus(1, 2, Y), q(Y, Z).").kernel;
        assert_eq!(k.seed_pred, None);
        assert_eq!(k.seed_guards, vec![KernelGuard::Solve(0)]);
        assert_eq!(k.probes[0].key, vec![KernelSrc::Computed(0)]);
        // No width limit: a seven-atom body is seed + six probes, keys
        // packed back to back.
        let k = compile("p(A,H) :- a(A,B), b(B,C), c(C,D), d(D,E), e(E,F), f(F,G), g(G,H).").kernel;
        assert_eq!(k.probes.len(), 6);
        assert_eq!(k.probes[5].key_at, 5);
        assert_eq!(k.key_width(), 6);
    }

    #[test]
    fn only_a_generated_variable_is_existential_under_negation() {
        // In `.dl` text an unbound variable under a negation is unsafe.
        let rule = parse_rule("p(X) :- e(X,Y), !w(Y, W, W).").unwrap();
        let err = compile_rule(&rule, &BTreeMap::new(), None).unwrap_err();
        assert!(matches!(err, EngineError::UnsafeRule { .. }), "{err:?}");
        // Renamed to `W$`, as the IC compiler names head-only variables,
        // it is existential: the anti-probe keys on the bound columns
        // alone, and its repeat is an equality among the unbound ones.
        let w = (Symbol::intern("W"), Term::Var(Symbol::intern("W$")));
        let rule = semrec_datalog::subst::Subst::from_pairs([w]).apply_rule(&rule);
        let k = compile_rule(&rule, &BTreeMap::new(), None).unwrap().kernel;
        assert_eq!(k.lookups[0].cols, vec![0]);
        assert_eq!(k.lookups[0].key, vec![KernelSrc::Seed(1)]);
        assert_eq!(k.lookups[0].same, vec![(2, 1)]);
    }

    #[test]
    fn filter_between_scans_becomes_probe_guard() {
        // A comparison after the seed scan guards the seed phase; a
        // pure-check builtin after a probe guards that probe.
        let c = compile("p(X,Y) :- e(X,Z), Z > 3, f(Z,Y).");
        let k = &c.kernel;
        assert_eq!(k.seed_guards.len(), 1);
        assert!(matches!(
            k.seed_guards[0],
            KernelGuard::Cmp(KernelSrc::Seed(1), _, KernelSrc::Const(_))
        ));
        assert_eq!(k.probes.len(), 1);
        assert!(k.probes[0].guards.is_empty());
    }

    #[test]
    fn builtin_tail_becomes_hoisted_compute() {
        // The planner hoists `plus(X, 1, Y)` as a binding compute right
        // after the seed scan (solving for `Y`) and pushes `Y` into the
        // `e` probe's index key — the kernel carries it as a
        // `KernelCompute` read through `KernelSrc::Computed`.
        let c = compile("p(X,Y,W) :- s(X), e(X,Y,W), plus(X, 1, Y).");
        let k = &c.kernel;
        assert_eq!(k.computes.len(), 1);
        assert_eq!(k.computes[0].op, BuiltinOp::Plus);
        assert_eq!(k.computes[0].bind, 2);
        assert_eq!(k.seed_guards, vec![KernelGuard::Solve(0)]);
        assert_eq!(k.probes.len(), 1);
        assert!(k.probes[0].key.contains(&KernelSrc::Computed(0)));
    }

    #[test]
    fn seed_only_binding_builtin_kernelizes() {
        // No probe at all: seed scan + hoisted compute + head read.
        let c = compile("succ_t(X,Z) :- t(X,Y), plus(Y, 1, Z).");
        let k = &c.kernel;
        assert!(k.probes.is_empty());
        assert_eq!(k.computes.len(), 1);
        assert_eq!(k.head, vec![KernelSrc::Seed(0), KernelSrc::Computed(0)]);
    }

    #[test]
    fn probe_dependent_binding_builtin_rides_its_probe() {
        // The binding compute reads `Y`, bound by the `e` probe: it is
        // solved per matched row, and the head's read of it pins `e`.
        let c = compile("p(X,Z) :- s(X), e(X,Y), plus(Y, 1, Z).");
        let k = &c.kernel;
        assert_eq!(k.probes[0].guards, vec![KernelGuard::Solve(0)]);
        assert_eq!(k.head, vec![KernelSrc::Seed(0), KernelSrc::Computed(0)]);
        assert!(!k.probes[0].existential);
    }

    #[test]
    fn own_guard_does_not_pin_existential() {
        // `w` binds only `W`, unused downstream — the `plus` check reads
        // it, but the planner attaches that guard to the `w` probe
        // itself, where it runs per candidate row *before* the first-hit
        // short-circuit. Nothing after the probe reads its columns, so
        // the probe stays existential.
        let c = compile("p(X) :- s(X), w(X, W), plus(W, 0, W).");
        let k = &c.kernel;
        assert_eq!(k.probes[0].guards.len(), 1);
        assert!(k.probes[0].existential);
    }

    #[test]
    fn later_guard_read_pins_probe_non_existential() {
        // Here the pinning is real: the comparison also reads `F` from
        // the *later* `f` probe, so the planner evaluates it at depth 1
        // — short-circuiting depth 0 would drop `W` bindings the guard
        // still needs.
        let c = compile("p(X) :- s(X), w(X, W), f(X, F), W < F.");
        let k = &c.kernel;
        assert_eq!(k.probes.len(), 2);
        assert!(!k.probes[0].existential);
        assert!(k.probes[1].guards.len() == 1);
        assert!(k.probes[1].existential);
    }

    #[test]
    fn constant_seed_key_kernelizes() {
        // Constant in the seed atom makes the seed scan keyed; the whole
        // key is constant, so the batch kernel enumerates one dictionary
        // group.
        let c = compile("p(X) :- e(3, X).");
        let k = &c.kernel;
        assert_eq!(k.seed_key_cols, vec![0]);
        assert_eq!(k.seed_key, vec![Value::Int(3)]);
        assert!(k.probes.is_empty());
        assert_eq!(k.head, vec![KernelSrc::Seed(1)]);
    }

    #[test]
    fn multi_recursive_rule_kernelizes() {
        // Two IDB occurrences: seed on the first, probe on the second.
        let c = compile("t(X,Z) :- t(X,Y), t(Y,Z).");
        let k = &c.kernel;
        assert_eq!(k.seed_pred, Some(Pred::new("t")));
        assert_eq!(k.probes.len(), 1);
        assert_eq!(k.probes[0].pred, Pred::new("t"));
    }

    #[test]
    fn constant_equality_becomes_index_key() {
        // `R = executive` is turned into an assignment before any scan, so
        // the boss scan can use column 2 as part of its index key —
        // selection pushdown all the way into the index.
        let c = compile("t(U) :- boss(U, E, R), R = executive, experienced(U).");
        let kinds: Vec<&'static str> = c
            .steps
            .iter()
            .map(|s| match s {
                Step::Scan(_) => "scan",
                Step::Neg(_) => "neg",
                Step::Compute(_) => "compute",
                Step::Filter(_) => "filter",
                Step::Assign(_) => "assign",
            })
            .collect();
        assert_eq!(kinds, vec!["assign", "scan", "scan"]);
        if let Step::Scan(s) = &c.steps[1] {
            assert_eq!(s.pred, Pred::new("boss"));
            assert_eq!(s.key_cols, vec![2]);
        } else {
            panic!("expected boss scan");
        }
    }
}

impl std::fmt::Display for Source {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Source::Slot(i) => write!(f, "${i}"),
            Source::Const(c) => write!(f, "{c}"),
        }
    }
}

impl std::fmt::Display for CompiledRule {
    /// Renders the physical plan, one step per line — the engine's
    /// `EXPLAIN` output.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let head: Vec<String> = self.head.iter().map(ToString::to_string).collect();
        writeln!(f, "plan for {}({})", self.head_pred, head.join(", "))?;
        for (vi, v) in self.slot_vars.iter().enumerate() {
            write!(f, "{}${vi}={v}", if vi == 0 { "  slots: " } else { ", " })?;
        }
        if !self.slot_vars.is_empty() {
            writeln!(f)?;
        }
        for step in &self.steps {
            match step {
                Step::Scan(s) => {
                    let args: Vec<String> = s
                        .args
                        .iter()
                        .map(|a| match a {
                            ArgPat::Const(c) => format!("={c}"),
                            ArgPat::Bound(i) => format!("=${i}"),
                            ArgPat::Bind(i) => format!("→${i}"),
                        })
                        .collect();
                    let key = if s.key_cols.is_empty() {
                        "full scan".to_owned()
                    } else {
                        format!("index on cols {:?}", s.key_cols)
                    };
                    writeln!(
                        f,
                        "  scan {}({}) [{:?}, {}]",
                        s.pred,
                        args.join(", "),
                        s.view,
                        key
                    )?;
                }
                Step::Neg(n) => {
                    let key: Vec<String> = (0..n.arity)
                        .map(|c| match n.key_cols.iter().position(|&k| k == c) {
                            Some(i) => n.key_vals[i].to_string(),
                            None => "_".to_owned(),
                        })
                        .collect();
                    writeln!(
                        f,
                        "  check absent {}({}) [{:?}]",
                        n.pred,
                        key.join(", "),
                        n.view
                    )?;
                }
                Step::Compute(cs) => {
                    let args: Vec<String> = cs.args.iter().map(ToString::to_string).collect();
                    match cs.bind {
                        Some((pos, slot)) => writeln!(
                            f,
                            "  compute {:?}({}) → arg {} = ${}",
                            cs.op,
                            args.join(", "),
                            pos,
                            slot
                        )?,
                        None => writeln!(f, "  check {:?}({})", cs.op, args.join(", "))?,
                    }
                }
                Step::Filter(c) => writeln!(f, "  filter {} {} {}", c.lhs, c.op, c.rhs)?,
                Step::Assign(a) => writeln!(f, "  assign ${} := {}", a.slot, a.from)?,
            }
        }
        let k = &self.kernel;
        let seed = k
            .seed_pred
            .map_or_else(|| "unit".to_owned(), |p| p.to_string());
        writeln!(
            f,
            "  kernel: batch (seed {seed} + {} probe{})",
            k.probes.len(),
            if k.probes.len() == 1 { "" } else { "s" }
        )
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;
    use semrec_datalog::parser::parse_rule;

    #[test]
    fn explain_output_shape() {
        let r = parse_rule("p(X, Y) :- e(X, Z), Z > 3, f(Z, Y), !blocked(Z).").unwrap();
        let c = compile_rule(&r, &BTreeMap::new(), None).unwrap();
        let text = c.to_string();
        assert!(text.contains("plan for p("), "{text}");
        assert!(text.contains("scan e("));
        assert!(text.contains("filter"));
        assert!(text.contains("check absent blocked"));
        assert!(text.contains("index on cols"));
    }
}

#[cfg(test)]
mod size_aware_tests {
    use super::*;
    use semrec_datalog::parser::parse_rule;

    #[test]
    fn smaller_relation_scanned_first_on_tie() {
        let r = parse_rule("q(X, Y) :- big(X, Z), small(X, W), link(Z, W, Y).").unwrap();
        let mut sizes = BTreeMap::new();
        sizes.insert(Pred::new("big"), 100_000);
        sizes.insert(Pred::new("small"), 10);
        sizes.insert(Pred::new("link"), 100_000);
        let c = compile_rule_with_sizes(&r, &BTreeMap::new(), None, &sizes).unwrap();
        if let Step::Scan(s) = &c.steps[0] {
            assert_eq!(s.pred, Pred::new("small"));
        } else {
            panic!("expected scan first");
        }
    }

    #[test]
    fn boundness_still_dominates_size() {
        // After scanning tiny, mid has a bound arg while huge has none —
        // mid wins despite being larger than huge? No: bound args first.
        let r = parse_rule("q(X, Y) :- tiny(X), mid(X, Y), huge(Z, Y).").unwrap();
        let mut sizes = BTreeMap::new();
        sizes.insert(Pred::new("tiny"), 5);
        sizes.insert(Pred::new("mid"), 1_000);
        sizes.insert(Pred::new("huge"), 50);
        let c = compile_rule_with_sizes(&r, &BTreeMap::new(), None, &sizes).unwrap();
        let order: Vec<&str> = c
            .steps
            .iter()
            .filter_map(|s| match s {
                Step::Scan(s) => Some(s.pred.name()),
                _ => None,
            })
            .collect();
        assert_eq!(order, vec!["tiny", "mid", "huge"]);
    }

    #[test]
    fn unknown_sizes_fall_back_to_source_order() {
        let r = parse_rule("q(X, Y) :- a(X, Z), b(Z, Y).").unwrap();
        let c = compile_rule_with_sizes(&r, &BTreeMap::new(), None, &BTreeMap::new()).unwrap();
        if let Step::Scan(s) = &c.steps[0] {
            assert_eq!(s.pred, Pred::new("a"));
        } else {
            panic!();
        }
    }
}
