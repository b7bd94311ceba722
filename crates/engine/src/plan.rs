//! Rule compilation: turning a rule into the [`BatchKernel`] the
//! evaluator runs — a seed scan, a chain of indexed probes, guards at
//! the planner's evaluation points, and the head projected straight from
//! row columns, constants and solved builtins.
//!
//! The planner is a greedy bound-ness heuristic: evaluable assignments and
//! filters run as soon as their inputs are bound, and the next subgoal to
//! join is the one with the most bound argument positions (ties broken by
//! source order). Semi-naive evaluation asks for one *delta variant* per
//! IDB subgoal occurrence; the delta occurrence is scanned first, which is
//! the classic seed-from-delta strategy. While it orders the body the
//! compiler records where each variable's value comes from (a
//! [`KernelSrc`]), so every step it takes is emitted straight into the
//! kernel.

use crate::builtins::BuiltinOp;
use crate::error::EngineError;
use crate::fxhash::{FxHashMap, FxHashSet};
use semrec_datalog::analysis::unsafe_detail;
use semrec_datalog::atom::{Atom, Pred};
use semrec_datalog::error::Error;
use semrec_datalog::literal::{Cmp, CmpOp, Literal};
use semrec_datalog::rule::Rule;
use semrec_datalog::symbol::Symbol;
use semrec_datalog::term::Term;
use semrec_datalog::word::Word;
use std::collections::BTreeMap;
use std::fmt;

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

/// Where a kernel value comes from, resolved at plan-compile time so the
/// kernel's inner loop never routes through variable slots: a constant, a
/// column of the current seed row, a column of the current row at an
/// earlier probe depth, or the value a builtin solved for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KernelSrc {
    /// The constant, as stored.
    Const(Word),
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
    /// Index key columns: constants and variables bound before the
    /// probe. Empty for a cross product: the zero-column index files
    /// every row under the one empty key, so the probe walks the whole
    /// visible range.
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
/// `E`, direct projection. The compiler is total over what
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
    pub seed_key: Vec<Word>,
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
    /// What the evaluator runs.
    pub kernel: BatchKernel,
}

struct Compiler<'a> {
    rule: &'a Rule,
    /// Where each bound variable's value comes from.
    bound: FxHashMap<Symbol, KernelSrc>,
    /// Views for negated literals (by body index).
    neg_views: FxHashMap<usize, View>,
    /// The kernel emitted so far.
    k: BatchKernel,
    /// Set until the first step that needs a seed row: a scan emitted
    /// while it holds becomes the seed; any later one is a probe — or,
    /// when it is ground, a membership test.
    seedable: bool,
}

impl Compiler<'_> {
    /// The source of a constant or an already-bound variable.
    fn src(&self, t: Term) -> Option<KernelSrc> {
        match t {
            Term::Const(c) => Some(KernelSrc::Const(Word::new(c))),
            Term::Var(v) => self.bound.get(&v).copied(),
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

    /// Places `g` at the current evaluation point: on the latest probe,
    /// or on the seed before any.
    fn guard(&mut self, g: KernelGuard) {
        self.seedable = false;
        match self.k.probes.last_mut() {
            Some(p) => p.guards.push(g),
            None => self.k.seed_guards.push(g),
        }
    }

    /// Emits the scan of body literal `li` (must be an atom), given the
    /// view it should read: the seed, a probe, or a membership test.
    fn emit_scan(&mut self, li: usize, view: View) {
        let rule = self.rule;
        let atom = rule.body[li].as_atom().expect("scan of non-atom");
        let arity = atom.arity();
        // Constants and variables bound before the scan key its index.
        let (key_cols, key): (Vec<usize>, Vec<KernelSrc>) = (atom.args.iter().enumerate())
            .filter_map(|(col, &t)| Some((col, self.src(t)?)))
            .unzip();
        if !self.seedable && key_cols.len() == arity {
            // Ground: its one possible row carries nothing the key does not.
            self.k.lookups.push(KernelLookup {
                pred: atom.pred,
                view,
                arity,
                cols: key_cols,
                key,
                same: Vec::new(),
            });
            self.guard(KernelGuard::Present(self.k.lookups.len() - 1));
            return;
        }
        let seed = std::mem::take(&mut self.seedable);
        let d = self.k.probes.len();
        let mut checks = Vec::new();
        for (col, &t) in atom.args.iter().enumerate() {
            // Constants are key columns, and so are variables bound earlier.
            let Term::Var(v) = t else { continue };
            if key_cols.contains(&col) {
                continue;
            }
            match self.bound.get(&v) {
                // A repeated variable within the atom: equality with the
                // column that bound it.
                Some(&first) => checks.push((col, first)),
                None => {
                    let here = if seed {
                        KernelSrc::Seed(col)
                    } else {
                        KernelSrc::Probe(d, col)
                    };
                    self.bound.insert(v, here);
                }
            }
        }
        if seed {
            // Only assignments can precede the seed scan, so its key (e.g.
            // `R = executive` pushed into the index key) is all constants:
            // the executor enumerates one dictionary group instead of the
            // range.
            self.k.seed_pred = Some(atom.pred);
            self.k.seed_view = view;
            self.k.seed_arity = arity;
            self.k.seed_key_cols = key_cols;
            self.k.seed_key = (key.iter())
                .map(|src| match *src {
                    KernelSrc::Const(c) => c,
                    _ => unreachable!("seed key bound before any row"),
                })
                .collect();
            self.k.seed_checks = checks;
        } else {
            let key_at = self.k.key_width();
            self.k.probes.push(KernelProbe {
                pred: atom.pred,
                view,
                arity,
                key_cols,
                key,
                key_at,
                checks,
                guards: Vec::new(),
                existential: false,
            });
        }
    }

    /// A builtin with at least two bound arguments: a compute solving
    /// for the third, or a check when all three are bound.
    fn emit_builtin(&mut self, op: BuiltinOp, a: &Atom) -> bool {
        let srcs: Vec<Option<KernelSrc>> = a.args.iter().map(|&t| self.src(t)).collect();
        if srcs.iter().flatten().count() < 2 {
            return false;
        }
        // The solved position is never read; it holds a placeholder.
        let args = [0, 1, 2].map(|j| srcs[j].unwrap_or(KernelSrc::Seed(0)));
        let guard = match srcs.iter().position(Option::is_none) {
            None => KernelGuard::Builtin(op, args),
            Some(bind) => {
                let Term::Var(v) = a.args[bind] else {
                    unreachable!("an unbound argument is a variable")
                };
                self.k.computes.push(KernelCompute { op, args, bind });
                let ci = self.k.computes.len() - 1;
                self.bound.insert(v, KernelSrc::Computed(ci));
                KernelGuard::Solve(ci)
            }
        };
        self.guard(guard);
        true
    }

    /// A negated subgoal once every variable is bound or existential: an
    /// anti-probe keyed by the bound columns.
    fn emit_negation(&mut self, li: usize, a: &Atom) -> bool {
        let ready = |&t: &Term| match t {
            Term::Var(v) => self.bound.contains_key(&v) || self.existential(li, v),
            Term::Const(_) => true,
        };
        if !a.args.iter().all(ready) {
            return false;
        }
        let view = self.neg_views.get(&li).copied().unwrap_or(View::Full);
        let mut l = KernelLookup {
            pred: a.pred,
            view,
            arity: a.arity(),
            cols: Vec::new(),
            key: Vec::new(),
            same: Vec::new(),
        };
        for (col, &t) in a.args.iter().enumerate() {
            if let Some(s) = self.src(t) {
                l.cols.push(col);
                l.key.push(s);
            } else if let Some(first) = a.args[..col].iter().position(|&u| u == t) {
                l.same.push((col, first));
            }
        }
        self.k.lookups.push(l);
        self.guard(KernelGuard::Absent(self.k.lookups.len() - 1));
        true
    }

    /// A comparison over bound values (a filter guard), or an equality
    /// with one side bound, which binds the other and costs nothing.
    fn emit_cmp(&mut self, c: &Cmp) -> bool {
        let (t, from) = match (self.src(c.lhs), self.src(c.rhs)) {
            (Some(l), Some(r)) => {
                self.guard(KernelGuard::Cmp(l, c.op, r));
                return true;
            }
            (Some(from), None) if c.op == CmpOp::Eq => (c.rhs, from),
            (None, Some(from)) if c.op == CmpOp::Eq => (c.lhs, from),
            _ => return false,
        };
        let Term::Var(v) = t else {
            unreachable!("an unbound operand is a variable")
        };
        self.bound.insert(v, from);
        true
    }

    /// Emits every currently runnable comparison, builtin and negated
    /// subgoal, in body order, repeating until none applies. Marks
    /// indices in `done`.
    fn drain_cmps(&mut self, done: &mut FxHashSet<usize>) {
        let rule = self.rule;
        loop {
            let mut progressed = false;
            for (li, l) in rule.body.iter().enumerate() {
                if done.contains(&li) {
                    continue;
                }
                let emitted = match l {
                    Literal::Atom(a) => match BuiltinOp::of(a.pred) {
                        Some(op) if a.arity() == BuiltinOp::ARITY => self.emit_builtin(op, a),
                        _ => false,
                    },
                    Literal::Neg(a) => BuiltinOp::of(a.pred).is_none() && self.emit_negation(li, a),
                    Literal::Cmp(c) => self.emit_cmp(c),
                };
                if emitted {
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
/// the delta occurrence in semi-naive variants). `sizes` are relation
/// cardinalities for join ordering: when two candidate subgoals have
/// equally many bound argument positions, the smaller relation is
/// scanned first (classic selectivity heuristic — this is what realizes
/// the paper's §4(2) "introduction of small relations in the context of
/// joining large relations"). Predicates absent from `sizes` are assumed
/// large.
pub fn compile_rule(
    rule: &Rule,
    views: &BTreeMap<usize, View>,
    first_literal: Option<usize>,
    sizes: &BTreeMap<Pred, usize>,
) -> Result<CompiledRule, EngineError> {
    let mut c = Compiler {
        rule,
        bound: FxHashMap::default(),
        neg_views: views
            .iter()
            .filter(|(li, _)| rule.body.get(**li).is_some_and(|l| l.as_neg().is_some()))
            .map(|(&li, &v)| (li, v))
            .collect(),
        // The unit seed until a scan claims the seed.
        k: BatchKernel {
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
        },
        seedable: true,
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
            atom.args.iter().filter(|&&t| c.src(t).is_some()).count()
        };
        let candidates: Vec<usize> = atom_indices
            .iter()
            .filter(|li| !done.contains(li))
            .copied()
            .collect();
        let Some(max_bound) = candidates.iter().map(|&li| bound_count(li)).max() else {
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

    // A literal that never ran or a head term never bound: the rule is
    // unsafe, in the words of `semrec_datalog::analysis::check`, which
    // refuses exactly these rules (`tests/check_agreement.rs`).
    let head: Option<Vec<KernelSrc>> = rule.head.args.iter().map(|&t| c.src(t)).collect();
    let Some(head) = head.filter(|_| done.len() == rule.body.len()) else {
        let detail = unsafe_detail(rule).unwrap_or_else(|| "check calls it safe".into());
        return Err(Error::UnsafeRule {
            rule: rule.to_string(),
            detail,
        }
        .into());
    };
    c.k.head = head;

    // A probe depth nothing downstream reads is an existence test: once
    // one group row matches, every further match emits the exact same
    // head tuples, so the executor may short-circuit. `checks` and
    // `guards` *within* a depth run while matching that depth and don't
    // pin it.
    let k = &mut c.k;
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
    Ok(CompiledRule {
        head_pred: rule.head.pred,
        kernel: c.k,
    })
}

impl fmt::Display for KernelSrc {
    /// `3` (a constant), `seed.1`, `p0.2` (probe depth 0, column 2) or
    /// `c#0` (the first compute's value).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            KernelSrc::Const(c) => write!(f, "{c}"),
            KernelSrc::Seed(col) => write!(f, "seed.{col}"),
            KernelSrc::Probe(d, col) => write!(f, "p{d}.{col}"),
            KernelSrc::Computed(ci) => write!(f, "c#{ci}"),
        }
    }
}

/// `items`, comma-separated.
fn list<T: fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
    let items: Vec<String> = items.into_iter().map(|i| i.to_string()).collect();
    items.join(", ")
}

/// An index access: the key columns and the source of each.
fn index(cols: &[usize], key: impl IntoIterator<Item = KernelSrc>) -> String {
    if cols.is_empty() {
        "full scan".to_owned()
    } else {
        format!("index on cols {cols:?} = ({})", list(key))
    }
}

/// Residual `column=source` equalities, if any.
fn checks(checks: &[(usize, KernelSrc)]) -> String {
    if checks.is_empty() {
        return String::new();
    }
    format!(
        " check {}",
        list(checks.iter().map(|(c, s)| format!("{c}={s}")))
    )
}

impl BatchKernel {
    /// Renders guard `g` on its own line; a compute or lookup prints
    /// where its one guard is placed.
    fn fmt_guard(&self, f: &mut fmt::Formatter<'_>, g: &KernelGuard) -> fmt::Result {
        let lookup = |l: &KernelLookup| {
            let col = |c| match l.cols.iter().position(|&k| k == c) {
                Some(i) => l.key[i].to_string(),
                None => "_".to_owned(),
            };
            let same = if l.same.is_empty() {
                String::new()
            } else {
                format!(" same {:?}", l.same)
            };
            format!(
                "{}({}) [{:?}]{same}",
                l.pred,
                list((0..l.arity).map(col)),
                l.view
            )
        };
        match *g {
            KernelGuard::Cmp(l, op, r) => writeln!(f, "    filter {l} {op} {r}"),
            KernelGuard::Builtin(op, args) => writeln!(f, "    check {op:?}({})", list(args)),
            KernelGuard::Solve(ci) => {
                let c = &self.computes[ci];
                let arg = |(j, s): (usize, &KernelSrc)| {
                    if j == c.bind {
                        "_".to_owned()
                    } else {
                        s.to_string()
                    }
                };
                let args = list(c.args.iter().enumerate().map(arg));
                writeln!(f, "    compute {:?}({args}) → c#{ci}", c.op)
            }
            KernelGuard::Absent(li) => writeln!(f, "    absent {}", lookup(&self.lookups[li])),
            KernelGuard::Present(li) => writeln!(f, "    present {}", lookup(&self.lookups[li])),
        }
    }
}

impl fmt::Display for CompiledRule {
    /// Renders the kernel the evaluator runs — the engine's `EXPLAIN`
    /// output: the head projection, the seed, each probe, and every
    /// guard under the seed or probe it rides.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = &self.kernel;
        writeln!(f, "plan for {}({})", self.head_pred, list(&k.head))?;
        let seed = k
            .seed_pred
            .map_or_else(|| "unit".to_owned(), |p| p.to_string());
        if k.seed_pred.is_some() {
            let key = k.seed_key.iter().map(|&c| KernelSrc::Const(c));
            let (view, index) = (k.seed_view, index(&k.seed_key_cols, key));
            writeln!(
                f,
                "  seed {seed} [{view:?}, {index}]{}",
                checks(&k.seed_checks)
            )?;
        } else {
            writeln!(f, "  seed unit")?;
        }
        for g in &k.seed_guards {
            k.fmt_guard(f, g)?;
        }
        for (d, p) in k.probes.iter().enumerate() {
            writeln!(
                f,
                "  probe {d}: {} [{:?}, {}]{}{}",
                p.pred,
                p.view,
                index(&p.key_cols, p.key.iter().copied()),
                checks(&p.checks),
                if p.existential { " existential" } else { "" },
            )?;
            for g in &p.guards {
                k.fmt_guard(f, g)?;
            }
        }
        writeln!(
            f,
            "  kernel: batch (seed {seed} + {} probe{})",
            k.probes.len(),
            if k.probes.len() == 1 { "" } else { "s" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_datalog::parser::parse_rule;

    fn compile(src: &str) -> CompiledRule {
        compile_rule(
            &parse_rule(src).unwrap(),
            &BTreeMap::new(),
            None,
            &BTreeMap::new(),
        )
        .unwrap()
    }

    fn with_sizes(src: &str, sizes: &[(&str, usize)]) -> BatchKernel {
        let sizes = sizes.iter().map(|&(p, n)| (Pred::new(p), n)).collect();
        let r = parse_rule(src).unwrap();
        compile_rule(&r, &BTreeMap::new(), None, &sizes)
            .unwrap()
            .kernel
    }

    #[test]
    fn scans_then_filters() {
        // e seeds (tie-break by order), the Z > 3 filter guards the seed,
        // and f's first column is bound by then → index key on col 0.
        let k = compile("p(X,Y) :- e(X,Z), Z > 3, f(Z,Y).").kernel;
        assert_eq!(k.seed_pred, Some(Pred::new("e")));
        assert_eq!(
            k.seed_guards,
            vec![KernelGuard::Cmp(
                KernelSrc::Seed(1),
                CmpOp::Gt,
                KernelSrc::Const(Word::int(3))
            )]
        );
        assert_eq!(k.probes.len(), 1);
        assert_eq!(k.probes[0].pred, Pred::new("f"));
        assert_eq!(k.probes[0].key_cols, vec![0]);
        assert_eq!(k.probes[0].key, vec![KernelSrc::Seed(1)]);
        assert!(k.probes[0].guards.is_empty());
    }

    #[test]
    fn constant_goes_to_index_key() {
        // The whole seed key is constant, so the batch kernel enumerates
        // one dictionary group.
        let k = compile("p(X) :- e(3, X).").kernel;
        assert_eq!(k.seed_key_cols, vec![0]);
        assert_eq!(k.seed_key, vec![Word::int(3)]);
        assert!(k.probes.is_empty());
        assert_eq!(k.head, vec![KernelSrc::Seed(1)]);
    }

    #[test]
    fn repeated_var_in_atom_checks_equality_not_key() {
        let k = compile("p(X) :- e(X, X).").kernel;
        assert!(k.seed_key_cols.is_empty());
        assert_eq!(k.seed_checks, vec![(1, KernelSrc::Seed(0))]);
    }

    #[test]
    fn equalities_assign_without_guards() {
        // `Y = X` binds `Y` to X's column; `Y = Z, Z = X` chains: the
        // second binds `Z`, after which the first binds `Y`.
        for src in ["p(X,Y) :- e(X), Y = X.", "p(X,Y) :- e(X), Y = Z, Z = X."] {
            let k = compile(src).kernel;
            assert_eq!(
                k.head,
                vec![KernelSrc::Seed(0), KernelSrc::Seed(0)],
                "{src}"
            );
            assert!(k.seed_guards.is_empty(), "{src}");
        }
    }

    #[test]
    fn unsafe_rule_rejected() {
        let r = parse_rule("p(X,Y) :- e(X), Y > 3.").unwrap();
        let err = compile_rule(&r, &BTreeMap::new(), None, &BTreeMap::new()).unwrap_err();
        assert!(err.to_string().contains("unbound"));
        let r = parse_rule("p(X,Y) :- e(X).").unwrap();
        assert!(compile_rule(&r, &BTreeMap::new(), None, &BTreeMap::new()).is_err());
    }

    #[test]
    fn first_literal_is_honored() {
        let r = parse_rule("p(X,Y) :- e(X,Z), q(Z,Y).").unwrap();
        let c = compile_rule(&r, &BTreeMap::new(), Some(1), &BTreeMap::new()).unwrap();
        assert_eq!(c.kernel.seed_pred, Some(Pred::new("q")));
    }

    #[test]
    fn ground_head_constant_projection() {
        let k = compile("p(X, 3) :- e(X).").kernel;
        assert_eq!(k.head[1], KernelSrc::Const(Word::int(3)));
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
        let err = compile_rule(&rule, &BTreeMap::new(), None, &BTreeMap::new()).unwrap_err();
        assert!(err.to_string().starts_with("unsafe rule"), "{err:?}");
        // Renamed to `W$`, as the IC compiler names head-only variables,
        // it is existential: the anti-probe keys on the bound columns
        // alone, and its repeat is an equality among the unbound ones.
        let w = (Symbol::intern("W"), Term::Var(Symbol::intern("W$")));
        let rule = semrec_datalog::subst::Subst::from_pairs([w]).apply_rule(&rule);
        let k = compile_rule(&rule, &BTreeMap::new(), None, &BTreeMap::new())
            .unwrap()
            .kernel;
        assert_eq!(k.lookups[0].cols, vec![0]);
        assert_eq!(k.lookups[0].key, vec![KernelSrc::Seed(1)]);
        assert_eq!(k.lookups[0].same, vec![(2, 1)]);
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
        // `R = executive` binds `R` before any scan, so the boss seed
        // uses column 2 as its index key — selection pushdown all the
        // way into the index — and `experienced(U)`, ground by then, is
        // a membership test on the seed.
        let k = compile("t(U) :- boss(U, E, R), R = executive, experienced(U).").kernel;
        assert_eq!(k.seed_pred, Some(Pred::new("boss")));
        assert_eq!(k.seed_key_cols, vec![2]);
        assert!(k.probes.is_empty());
        assert_eq!(k.seed_guards, vec![KernelGuard::Present(0)]);
        assert_eq!(k.lookups[0].pred, Pred::new("experienced"));
    }

    #[test]
    fn smaller_relation_scanned_first_on_tie() {
        let k = with_sizes(
            "q(X, Y) :- big(X, Z), small(X, W), link(Z, W, Y).",
            &[("big", 100_000), ("small", 10), ("link", 100_000)],
        );
        assert_eq!(k.seed_pred, Some(Pred::new("small")));
    }

    #[test]
    fn boundness_still_dominates_size() {
        // After tiny, mid has a bound argument and huge none: mid goes
        // next although huge is smaller.
        let k = with_sizes(
            "q(X, Y) :- tiny(X), mid(X, Y), huge(Z, Y).",
            &[("tiny", 5), ("mid", 1_000), ("huge", 50)],
        );
        let probes: Vec<&str> = k.probes.iter().map(|p| p.pred.name()).collect();
        assert_eq!(k.seed_pred, Some(Pred::new("tiny")));
        assert_eq!(probes, vec!["mid", "huge"]);
    }

    #[test]
    fn unknown_sizes_fall_back_to_source_order() {
        let k = with_sizes("q(X, Y) :- a(X, Z), b(Z, Y).", &[]);
        assert_eq!(k.seed_pred, Some(Pred::new("a")));
    }

    #[test]
    fn explain_output_is_the_kernel() {
        let c = compile("p(X, Y) :- e(X, Z), Z > 3, f(Z, Y), !blocked(Z), plus(Y, 1, W), g(W).");
        assert_eq!(
            c.to_string(),
            "plan for p(seed.0, p0.1)\n  \
               seed e [Full, full scan]\n    \
                 filter seed.1 > 3\n    \
                 absent blocked(seed.1) [Full]\n  \
               probe 0: f [Full, index on cols [0] = (seed.1)]\n    \
                 compute Plus(p0.1, 1, _) → c#0\n    \
                 present g(c#0) [Full]\n  \
               kernel: batch (seed e + 1 probe)\n"
        );
    }
}
