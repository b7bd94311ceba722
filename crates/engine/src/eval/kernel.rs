//! The batch kernel: one scheduled plan run over its seed rows, gathered
//! into chunks grouped by depth-0 dictionary code, with the invariant
//! probe prefix enumerated once per group.

use super::emit::DerivedBuf;
use super::Evaluator;
use crate::fxhash::hash_slice;
use crate::governor::POLL_MASK;
use crate::plan::{BatchKernel, CompiledRule, KernelGuard, KernelLookup, KernelSrc};
use crate::relation::{ProbeHandle, Relation, RowRange};
use crate::stats::Stats;
use semrec_datalog::word::Word;

/// Runs one task — a scheduled plan — to completion on the thread's
/// [`TaskScratch`]. Returns `false` when a cooperative governance check
/// aborted it mid-scan (its partial output must be discarded).
pub(super) fn run_task(
    ev: &Evaluator<'_>,
    plan: &CompiledRule,
    stats: &mut Stats,
    out: &mut DerivedBuf,
) -> bool {
    stats.rule_firings += 1;
    TASK_SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        stats.kernel_firings += 1;
        let ok = run_kernel(ev, plan, scratch, stats, out);
        stats.scratch_hw_bytes = stats.scratch_hw_bytes.max(scratch.resident_bytes());
        ok
    })
}

/// A current [`ProbeHandle`] on `cols` of `rel`, building the index
/// first if needed.
fn handle_for(rel: &Relation, cols: &[usize]) -> ProbeHandle {
    match rel.probe_handle(cols) {
        Some(h) => h,
        None => {
            rel.ensure_index(cols);
            rel.probe_handle(cols)
                .expect("index is current immediately after ensure_index")
        }
    }
}

/// One probe depth's position in its dictionary group: the borrowed
/// row-id slice as raw parts plus the next index. Sound because
/// relations and their indexes are frozen while a round's tasks run
/// (inserts commit only between rounds); see [`ProbeHandle`].
type Cursor = (*const u32, u32, u32);

/// Reusable scratch for task execution. Held in a thread-local so every
/// evaluator a thread runs — the incremental layer builds one per
/// transaction — reuses one allocation set across all tasks and rounds:
/// steady-state execution does zero heap allocation per derived row.
/// The per-depth buffers are sized per task from the kernel's chain
/// length, so no plan is too wide. [`Stats::scratch_hw_bytes`] reports
/// the high-water resident size as the observable witness: it follows
/// the largest seed scan up to [`KERNEL_CHUNK`] packed words, twice
/// (chunk and spill), plus the fixed repeat filter, then stays flat no
/// matter how many rows derive.
#[derive(Default)]
struct TaskScratch {
    /// Packed probe keys, depth `d` at [`crate::plan::KernelProbe::key_at`].
    key_buf: Vec<Word>,
    /// One group cursor per probe depth.
    cursors: Vec<Cursor>,
    /// The row currently matched at each probe depth.
    rowids: Vec<u32>,
    /// Staging buffer for [`KernelLookup`] keys.
    lookup_key: Vec<Word>,
    /// The batch kernel's gathered seed chunk: `depth-0 dictionary code
    /// << 32 | seed row id` words, partitioned by code — only when some
    /// code repeats — so rows sharing a probe key form runs. Capacity is
    /// bounded by [`KERNEL_CHUNK`], never by data size.
    chunk: Vec<u64>,
    /// The other side of each [`partition_by_code`] pass, reserved to
    /// the chunk's capacity: at most [`KERNEL_CHUNK`] words.
    spill: Vec<u64>,
    /// The repeat filter: one bit per value of a code's low
    /// log2([`KERNEL_CHUNK`]) bits (8 KiB), set at gather and cleared by
    /// walking the chunk. Two rows landing on one bit send the chunk
    /// through the partition; a bit shared by two distinct codes only
    /// costs a partition that was not needed.
    seen: Vec<u64>,
}

impl TaskScratch {
    /// Resident heap footprint of the scratch buffers, in bytes.
    fn resident_bytes(&self) -> u64 {
        ((self.key_buf.capacity() + self.lookup_key.capacity()) * std::mem::size_of::<Word>()
            + self.cursors.capacity() * std::mem::size_of::<Cursor>()
            + self.rowids.capacity() * std::mem::size_of::<u32>()
            + (self.chunk.capacity() + self.spill.capacity() + self.seen.capacity())
                * std::mem::size_of::<u64>()) as u64
    }
}

thread_local! {
    static TASK_SCRATCH: std::cell::RefCell<TaskScratch> =
        std::cell::RefCell::new(TaskScratch::default());
}

/// Seed rows per batch-kernel chunk: the grouping unit. It holds a
/// whole round's delta on every benchmarked workload (a fanout round is
/// ≈ 16 000 rows over 800 keys), so each distinct depth-0 key forms one
/// group per round and pays its deeper resolutions once. The gather
/// resolves every row's depth-0 key to its dictionary code and packs
/// `code << 32 | row`; a chunk in which no code repeats (a chain's
/// delta) is already grouped and skips the partition. The gather buffer
/// and the partition's spill each grow with the delta up to this many
/// packed words (512 KiB) and the repeat filter holds this many bits
/// (8 KiB), so task scratch stays a data-independent constant.
pub const KERNEL_CHUNK: usize = 1 << 16;

/// Widest head [`HeadSplit`] templates; wider heads resolve every
/// entry per member.
const HEAD_TMPL: usize = 8;

/// A fully invariant chain's head, split once per task: the entries a
/// prefix match fixes (constants, probe columns) and the ones each
/// member fills (seed columns, computes).
struct HeadSplit {
    fixed: [(usize, KernelSrc); HEAD_TMPL],
    nf: usize,
    dyns: [(usize, KernelSrc); HEAD_TMPL],
    nd: usize,
}

impl HeadSplit {
    /// `None` for a degenerate width (empty, or wider than the stack
    /// template).
    fn new(head: &[KernelSrc]) -> Option<HeadSplit> {
        if head.is_empty() || head.len() > HEAD_TMPL {
            return None;
        }
        let mut hs = HeadSplit {
            fixed: [(0, head[0]); HEAD_TMPL],
            nf: 0,
            dyns: [(0, head[0]); HEAD_TMPL],
            nd: 0,
        };
        for (j, &s) in head.iter().enumerate() {
            match s {
                KernelSrc::Seed(_) | KernelSrc::Computed(_) => {
                    hs.dyns[hs.nd] = (j, s);
                    hs.nd += 1;
                }
                _ => {
                    hs.fixed[hs.nf] = (j, s);
                    hs.nf += 1;
                }
            }
        }
        Some(hs)
    }
}

/// Immutable per-task context of a batch-kernel execution: the kernel,
/// the resolved seed, probe and negated relations, and the
/// invariant/dependent depth split.
struct KernelCtx<'a> {
    ev: &'a Evaluator<'a>,
    plan: &'a CompiledRule,
    k: &'a BatchKernel,
    seed_rel: &'a Relation,
    /// Relation, visible range and index handle of each probe depth.
    prels: Vec<(&'a Relation, RowRange, ProbeHandle)>,
    /// Relation and visible range of each [`KernelLookup`], with the
    /// index on its bound columns when they are not all of them; `None`
    /// when there is nothing to find.
    lrels: Vec<Option<(&'a Relation, RowRange, Option<ProbeHandle>)>>,
    /// The head's template split when the head fits the template; read
    /// only when the whole chain is invariant (`split == np`).
    head_split: Option<HeadSplit>,
    /// First member-dependent probe depth. Depths `[0, split)` read only
    /// constants, seed columns that are part of the depth-0 (grouping)
    /// key — equal across a group by construction — or rows matched at
    /// earlier invariant depths, so the group phase enumerates them once
    /// per distinct key and replays their logical work counts per
    /// member. Depths `[split, np)` run per member, tuple-style.
    split: usize,
    np: usize,
}

/// Mutable per-task state of a batch-kernel execution, borrowed from
/// [`TaskScratch`] and sized to the kernel's chain.
struct KernelState<'s> {
    key_buf: &'s mut [Word],
    cursors: &'s mut [Cursor],
    rowids: &'s mut [u32],
    lookup_key: &'s mut Vec<Word>,
    /// Rows walked so far: the clock of the governance poll (bulk
    /// counter updates would break the global `rows_scanned` cadence).
    ticks: u64,
}

/// True when `src` yields the same value for every seed row of one
/// depth-0 key group while the rows matched at depths `< below` stay
/// fixed: constants always, seed columns exactly when they are part of
/// the grouping key (a group shares one depth-0 dictionary code, hence
/// one key),
/// and computes when they are themselves a grouping-key source or read
/// only invariant inputs.
fn group_invariant(k: &BatchKernel, src: KernelSrc, below: usize) -> bool {
    let in_group_key = k.probes.first().is_some_and(|p| p.key.contains(&src));
    match src {
        KernelSrc::Const(_) => true,
        KernelSrc::Seed(_) => in_group_key,
        KernelSrc::Probe(d, _) => d < below,
        KernelSrc::Computed(ci) => {
            let mut inputs = k.computes[ci].inputs();
            in_group_key || inputs.all(|s| group_invariant(k, s, below))
        }
    }
}

impl KernelCtx<'_> {
    /// Resolves a kernel source against a seed row and the per-depth
    /// matched rows. Forced inline: the compute arm makes it recursive,
    /// which otherwise keeps it out of line on every per-row path.
    #[inline(always)]
    fn src_val(&self, src: KernelSrc, seed_row: &[Word], rowids: &[u32]) -> Word {
        match src {
            KernelSrc::Const(c) => c,
            KernelSrc::Seed(c) => seed_row[c],
            KernelSrc::Probe(d, c) => self.prels[d].0.row(rowids[d])[c],
            KernelSrc::Computed(ci) => self.computed_val(ci, seed_row, rowids),
        }
    }

    /// Re-solves the `ci`-th compute on demand: it is a pure function of
    /// the seed row and the matched rows, and its `Solve` guard already
    /// evaluated (and counted) it for this candidate and dropped the
    /// candidate on failure, so solving again here is silent and
    /// infallible.
    #[inline(never)]
    fn computed_val(&self, ci: usize, seed_row: &[Word], rowids: &[u32]) -> Word {
        self.compute_val(ci, seed_row, rowids)
            .expect("compute verified by its guard")
    }

    /// Evaluates the `ci`-th binding builtin over decoded operands;
    /// `None` means it has no solution here (ill-typed operand, …) and
    /// its guard must drop the candidate before anything reads
    /// `KernelSrc::Computed(ci)`.
    #[inline]
    fn compute_val(&self, ci: usize, seed_row: &[Word], rowids: &[u32]) -> Option<Word> {
        let c = &self.k.computes[ci];
        let mut vals = [None; 3];
        for (j, (v, &s)) in vals.iter_mut().zip(&c.args).enumerate() {
            if j != c.bind {
                *v = Some(self.src_val(s, seed_row, rowids).value());
            }
        }
        c.op.solve(vals).map(Word::new)
    }

    /// Evaluates one guard against a candidate.
    #[inline]
    fn guard_ok(
        &self,
        g: &KernelGuard,
        seed_row: &[Word],
        rowids: &[u32],
        lookup_key: &mut Vec<Word>,
    ) -> bool {
        match *g {
            // Words order as their values do (`Word`'s `Ord`).
            KernelGuard::Cmp(l, op, r) => op.eval(
                &self.src_val(l, seed_row, rowids),
                &self.src_val(r, seed_row, rowids),
            ),
            KernelGuard::Builtin(op, args) => op.check(
                self.src_val(args[0], seed_row, rowids).value(),
                self.src_val(args[1], seed_row, rowids).value(),
                self.src_val(args[2], seed_row, rowids).value(),
            ),
            KernelGuard::Solve(ci) => self.compute_val(ci, seed_row, rowids).is_some(),
            KernelGuard::Absent(li) => !self.found(li, seed_row, rowids, lookup_key),
            KernelGuard::Present(li) => self.found(li, seed_row, rowids, lookup_key),
        }
    }

    /// True when the `li`-th lookup finds a visible row: a
    /// membership-table test for a full key, else a walk of the bound
    /// columns' index group checking the unbound columns' equalities.
    fn found(&self, li: usize, seed_row: &[Word], rowids: &[u32], key: &mut Vec<Word>) -> bool {
        let Some((rel, range, handle)) = self.lrels[li] else {
            return false;
        };
        let l = &self.k.lookups[li];
        key.clear();
        key.extend(l.key.iter().map(|&s| self.src_val(s, seed_row, rowids)));
        let h = hash_slice(key);
        let Some(handle) = handle else {
            return rel.contains_in_range(key, h, range);
        };
        let fits = |&r: &u32| {
            let same = |row: &[Word]| l.same.iter().all(|&(c, d)| row[c] == row[d]);
            rel.row_visible(r, range) && same(rel.row(r))
        };
        // SAFETY: relations and indexes are frozen while a round's tasks
        // run (see `ProbeHandle` docs).
        let group = unsafe { handle.encode(h, key).map(|c| handle.group(c)) };
        group.is_some_and(|g| g.iter().any(fits))
    }

    /// The per-member tail of one group-phase prefix match: for each
    /// member seed row, either emit the head directly (`split == np`,
    /// the match is already complete) or drive the dependent probe
    /// suffix `[split, np)` tuple-at-a-time. A dependent depth 0 reuses
    /// the group's pre-fetched dictionary group `depth0` instead of
    /// re-encoding per member. Returns `false` on a governance abort.
    fn member_tail(
        &self,
        members: &[u64],
        depth0: (*const u32, u32),
        st: &mut KernelState<'_>,
        stats: &mut Stats,
        out: &mut DerivedBuf,
    ) -> bool {
        let (ev, seed_rel) = (self.ev, self.seed_rel);
        let (k, np, split) = (self.k, self.np, self.split);
        // A repeated code's members are scattered through the seed
        // store; stay a few rows ahead of the walk.
        const MEMBER_PREFETCH: usize = 4;
        if split == np {
            // Fully invariant chain: the match is already complete and
            // only the head still reads member columns. Resolve the
            // invariant head entries once into a stack template; per
            // member, fill the seed-dependent entries, hash, and copy —
            // the emission loop touches no probe state.
            let Some(hs) = &self.head_split else {
                // Degenerate widths: per-member full resolve.
                for (mi, &e) in members.iter().enumerate() {
                    if let Some(&ne) = members.get(mi + MEMBER_PREFETCH) {
                        seed_rel.prefetch_row(ne as u32);
                    }
                    let seed_row = seed_rel.row(e as u32);
                    st.ticks += 1;
                    if st.ticks & POLL_MASK == 0 && ev.should_abort() {
                        return false;
                    }
                    stats.derived += 1;
                    out.push(
                        self.plan.head_pred,
                        k.head.iter().map(|&s| self.src_val(s, seed_row, st.rowids)),
                    );
                }
                return true;
            };
            let mut tmpl = [Word::int(0); HEAD_TMPL];
            // Constants and probe rows are fixed for the whole match;
            // the empty seed slice is never read.
            for &(j, s) in &hs.fixed[..hs.nf] {
                tmpl[j] = self.src_val(s, &[], st.rowids);
            }
            for (mi, &e) in members.iter().enumerate() {
                if let Some(&ne) = members.get(mi + MEMBER_PREFETCH) {
                    seed_rel.prefetch_row(ne as u32);
                }
                let seed_row = seed_rel.row(e as u32);
                st.ticks += 1;
                if st.ticks & POLL_MASK == 0 && ev.should_abort() {
                    return false;
                }
                stats.derived += 1;
                for &(j, s) in &hs.dyns[..hs.nd] {
                    tmpl[j] = self.src_val(s, seed_row, st.rowids);
                }
                out.push_row(self.plan.head_pred, &tmpl[..k.head.len()]);
            }
            return true;
        }
        for (mi, &e) in members.iter().enumerate() {
            if let Some(&ne) = members.get(mi + MEMBER_PREFETCH) {
                seed_rel.prefetch_row(ne as u32);
            }
            let seed_row = seed_rel.row(e as u32);
            let mut d = split;
            let mut entering = true;
            loop {
                let p = &k.probes[d];
                let (rel, range, handle) = &self.prels[d];
                if entering {
                    stats.probes += 1;
                    if d == 0 {
                        // Shared dictionary group: encoded once per
                        // group; member-dependent checks and guards
                        // still run below.
                        st.cursors[0] = (depth0.0, depth0.1, 0);
                    } else {
                        let (ks, ke) = (p.key_at, p.key_at + p.key.len());
                        for (j, &src) in p.key.iter().enumerate() {
                            st.key_buf[ks + j] = self.src_val(src, seed_row, st.rowids);
                        }
                        let key = &st.key_buf[ks..ke];
                        stats.dict_probes += 1;
                        // SAFETY: relations and indexes are frozen while
                        // a round's tasks run (see `ProbeHandle` docs).
                        st.cursors[d] = match unsafe { handle.encode(hash_slice(key), key) } {
                            Some(code) => {
                                let g = unsafe { handle.group(code) };
                                (g.as_ptr(), g.len() as u32, 0)
                            }
                            None => (std::ptr::null(), 0, 0),
                        };
                    }
                    entering = false;
                }
                // Advance depth d to its next matching row.
                let mut matched = false;
                {
                    let (ptr, len, pos) = &mut st.cursors[d];
                    while *pos < *len {
                        // SAFETY: group storage is frozen for the round.
                        let rid = unsafe { *ptr.add(*pos as usize) };
                        *pos += 1;
                        // Dictionary groups hold exactly the probed key,
                        // so visibility is the only residual filter.
                        if !rel.row_visible(rid, *range) {
                            continue;
                        }
                        stats.probe_hits += 1;
                        stats.rows_scanned += 1;
                        st.ticks += 1;
                        if st.ticks & POLL_MASK == 0 && ev.should_abort() {
                            return false;
                        }
                        let row = rel.row(rid);
                        if row.len() != p.arity {
                            continue;
                        }
                        st.rowids[d] = rid;
                        let mut ok = true;
                        for &(c, src) in &p.checks {
                            if row[c] != self.src_val(src, seed_row, st.rowids) {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            for g in &p.guards {
                                stats.cmp_evals += 1;
                                if !self.guard_ok(g, seed_row, st.rowids, st.lookup_key) {
                                    ok = false;
                                    break;
                                }
                            }
                        }
                        if !ok {
                            continue;
                        }
                        matched = true;
                        break;
                    }
                }
                if matched {
                    if p.existential {
                        // Nothing downstream reads this row: exhaust the
                        // cursor so the next advance backtracks at once.
                        st.cursors[d].2 = st.cursors[d].1;
                    }
                    if d + 1 < np {
                        d += 1;
                        entering = true;
                        continue;
                    }
                    stats.derived += 1;
                    out.push(
                        self.plan.head_pred,
                        k.head.iter().map(|&s| self.src_val(s, seed_row, st.rowids)),
                    );
                    // Stay at the deepest depth and advance for more.
                } else if d == split {
                    break;
                } else {
                    d -= 1;
                }
            }
        }
        true
    }
}

/// Executes a [`BatchKernel`]: the seed scan is gathered into
/// [`KERNEL_CHUNK`]-row chunks of packed depth-0-code/row-id words —
/// a row whose key has no code derives nothing and drops there — and
/// partitioned by code, only when some code repeats, so rows sharing a
/// probe key form groups; each group then pays its deeper dictionary
/// lookups once. The invariant probe prefix (see
/// [`KernelCtx::split`]) is enumerated once per group — including the
/// existential short-circuit, which becomes a group-level first-hit —
/// with its logical work counters replayed per member, so
/// `derived`/`rows_scanned`/`probe_hits` stay partition-invariant and
/// equal to per-tuple execution. The dependent suffix runs per member
/// over pre-fetched dictionary groups. Guards — comparisons, builtin
/// checks, solved builtins, anti-probes — run per candidate row at the
/// depth the planner placed them, each counted as one `cmp_evals`.
/// Returns `false` when a governance poll aborted the task; its partial
/// output is discarded at the round boundary.
fn run_kernel(
    ev: &Evaluator<'_>,
    plan: &CompiledRule,
    scratch: &mut TaskScratch,
    stats: &mut Stats,
    out: &mut DerivedBuf,
) -> bool {
    let k = &plan.kernel;
    let seed = match k.seed_pred {
        Some(p) => ev.resolve(p, k.seed_view),
        None => Some((&ev.unit, ev.unit.all_rows())),
    };
    let Some((seed_rel, mut seed_range)) = seed else {
        return true;
    };
    seed_range.end = seed_range.end.min(seed_rel.physical_rows() as u32);
    if seed_range.is_empty() {
        return true;
    }
    let np = k.probes.len();
    let mut prels = Vec::with_capacity(np);
    for p in &k.probes {
        let Some((rel, range)) = ev.resolve(p.pred, p.view) else {
            return true;
        };
        if range.is_empty() {
            return true;
        }
        let handle = handle_for(rel, &p.key_cols);
        debug_assert_eq!(handle.generation(), rel.physical_rows());
        prels.push((rel, range, handle));
    }
    let lookup = |l: &KernelLookup| {
        let (rel, range) = ev.resolve(l.pred, l.view)?;
        let partial = l.cols.len() < l.arity;
        let fits = !range.is_empty() && rel.arity() == l.arity;
        fits.then(|| (rel, range, partial.then(|| handle_for(rel, &l.cols))))
    };
    let lrels = k.lookups.iter().map(lookup).collect();
    // A constant-keyed seed enumerates one dictionary group instead of
    // the row range; an absent key derives nothing.
    let seed_handle = (!k.seed_key_cols.is_empty()).then(|| handle_for(seed_rel, &k.seed_key_cols));
    let seed_group: Option<&[u32]> = match &seed_handle {
        None => None,
        Some(h) => {
            debug_assert_eq!(h.generation(), seed_rel.physical_rows());
            stats.probes += 1;
            stats.dict_probes += 1;
            // SAFETY: relations and indexes are frozen while a round's
            // tasks run (see `ProbeHandle` docs).
            match unsafe { h.encode(hash_slice(&k.seed_key), &k.seed_key) } {
                Some(code) => Some(unsafe { h.group(code) }),
                None => return true,
            }
        }
    };
    // Invariant/dependent split (see [`KernelCtx::split`]): keys may
    // read rows of strictly earlier depths; checks and guards at depth
    // `d` may also read the row being matched at `d` itself.
    let split = k
        .probes
        .iter()
        .enumerate()
        .position(|(d, p)| {
            !(p.key.iter().all(|&s| group_invariant(k, s, d))
                && p.checks.iter().all(|&(_, s)| group_invariant(k, s, d + 1))
                && p.guards
                    .iter()
                    .all(|g| k.guard_all(g, |s| group_invariant(k, s, d + 1))))
        })
        .unwrap_or(np);
    let ctx = KernelCtx {
        ev,
        plan,
        k,
        seed_rel,
        prels,
        lrels,
        head_split: HeadSplit::new(&k.head),
        split,
        np,
    };
    let TaskScratch {
        key_buf,
        cursors,
        rowids,
        lookup_key,
        chunk,
        spill,
        seen,
    } = scratch;
    seen.resize(KERNEL_CHUNK / 64, 0);
    key_buf.clear();
    key_buf.resize(k.key_width(), Word::int(0));
    cursors.clear();
    cursors.resize(np, (std::ptr::null(), 0, 0));
    rowids.clear();
    rowids.resize(np, 0);
    let st = &mut KernelState {
        key_buf,
        cursors,
        rowids,
        lookup_key,
        ticks: 0,
    };
    let w0 = if np > 0 { k.probes[0].key.len() } else { 0 };

    let mut range_next = seed_range.start;
    let mut group_pos = 0usize;
    'chunks: loop {
        // Gather: fill one chunk with visible seed rows that pass the
        // seed checks and guards, resolving each row's depth-0 probe key
        // to its dictionary code and noting whether any code repeats.
        chunk.clear();
        let mut repeat = false;
        while chunk.len() < KERNEL_CHUNK {
            let r = match seed_group {
                None => {
                    if range_next >= seed_range.end {
                        break;
                    }
                    let r = range_next;
                    range_next += 1;
                    if seed_rel.is_dead(r) {
                        continue;
                    }
                    r
                }
                Some(g) => {
                    let Some(&r) = g.get(group_pos) else { break };
                    group_pos += 1;
                    if !seed_rel.row_visible(r, seed_range) {
                        continue;
                    }
                    r
                }
            };
            stats.rows_scanned += 1;
            st.ticks += 1;
            if st.ticks & POLL_MASK == 0 && ev.should_abort() {
                forget_codes(seen, chunk);
                return false;
            }
            let seed_row = seed_rel.row(r);
            if seed_row.len() != k.seed_arity {
                continue;
            }
            let mut ok = true;
            for &(c, src) in &k.seed_checks {
                if seed_row[c] != ctx.src_val(src, seed_row, st.rowids) {
                    ok = false;
                    break;
                }
            }
            if ok {
                for g in &k.seed_guards {
                    stats.cmp_evals += 1;
                    if !ctx.guard_ok(g, seed_row, st.rowids, st.lookup_key) {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            if np == 0 {
                chunk.push(r as u64);
                continue;
            }
            for (j, &src) in k.probes[0].key.iter().enumerate() {
                st.key_buf[j] = ctx.src_val(src, seed_row, st.rowids);
            }
            let key = &st.key_buf[..w0];
            stats.dict_probes += 1;
            // SAFETY: relations and indexes are frozen while a round's
            // tasks run (see `ProbeHandle` docs).
            let Some(code) = (unsafe { ctx.prels[0].2.encode(hash_slice(key), key) }) else {
                // No depth-0 rows for this key: the row opens and at
                // once exhausts the probe.
                stats.probes += 1;
                continue;
            };
            let e = u64::from(code) << 32 | u64::from(r);
            let bit = 1u64 << (code % 64);
            repeat |= seen[seen_word(e)] & bit != 0;
            seen[seen_word(e)] |= bit;
            chunk.push(e);
        }
        if chunk.is_empty() {
            break 'chunks;
        }
        // The spill keeps the chunk's capacity, partitioned or not, so
        // scratch stays a function of the deltas, not of their codes.
        spill.reserve_exact(chunk.capacity().saturating_sub(spill.len()));
        if np == 0 {
            // Pure seed scan: the gather is the whole pipeline; emit.
            // A head that copies the seed row verbatim (the ubiquitous
            // base-rule shape `p(X,Y) :- e(X,Y).`) re-emits stored rows
            // as one slice copy each.
            let identity = k.head.len() == k.seed_arity
                && k.head
                    .iter()
                    .enumerate()
                    .all(|(j, &s)| s == KernelSrc::Seed(j));
            for &e in chunk.iter() {
                let r = e as u32;
                let seed_row = seed_rel.row(r);
                stats.derived += 1;
                if identity {
                    out.push_row(plan.head_pred, seed_row);
                } else {
                    out.push(
                        plan.head_pred,
                        k.head.iter().map(|&s| ctx.src_val(s, seed_row, st.rowids)),
                    );
                }
            }
            continue 'chunks;
        }
        forget_codes(seen, chunk);
        // Group: rows sharing a code become one run. Only a repeated
        // code needs the partition (code order with row-id tiebreak
        // keeps runs deterministic); otherwise every row is its own
        // group.
        let h0 = &ctx.prels[0].2;
        let chunk: &[u64] = if repeat {
            stats.sorted_chunks += 1;
            let code_bits = u32::BITS - h0.codes().saturating_sub(1).leading_zeros();
            let chunk = partition_by_code(chunk, spill, code_bits);
            debug_assert!(chunk.is_sorted(), "not in code, row order");
            chunk
        } else {
            chunk
        };
        let mut gs = 0usize;
        while gs < chunk.len() {
            let code = (chunk[gs] >> 32) as u32;
            let rep_row = seed_rel.row(chunk[gs] as u32);
            let mut ge = gs + 1;
            while ge < chunk.len() && (chunk[ge] >> 32) as u32 == code {
                ge += 1;
            }
            let members = &chunk[gs..ge];
            let m = members.len() as u64;
            stats.groups += 1;
            gs = ge;
            // SAFETY: frozen for the round (see `ProbeHandle` docs).
            let depth0 = {
                let g = unsafe { h0.group(code) };
                (g.as_ptr(), g.len() as u32)
            };
            if split == 0 {
                // Member-dependent depth 0: per-member enumeration
                // over the shared pre-fetched group.
                if !ctx.member_tail(members, depth0, st, stats, out) {
                    return false;
                }
                continue;
            }
            // Group phase: enumerate the invariant prefix once
            // against the representative row; local counters replay
            // ×members.
            let (mut lp, mut lph, mut lrs, mut lce) = (1u64, 0u64, 0u64, 0u64);
            st.cursors[0] = (depth0.0, depth0.1, 0);
            let mut d = 0usize;
            let mut entering = false; // depth-0 cursor pre-opened
            loop {
                let p = &k.probes[d];
                let (rel, range, handle) = &ctx.prels[d];
                if entering {
                    lp += 1;
                    let (ks, ke) = (p.key_at, p.key_at + p.key.len());
                    for (j, &src) in p.key.iter().enumerate() {
                        st.key_buf[ks + j] = ctx.src_val(src, rep_row, st.rowids);
                    }
                    let key = &st.key_buf[ks..ke];
                    stats.dict_probes += 1;
                    // SAFETY: frozen for the round (`ProbeHandle`
                    // docs).
                    st.cursors[d] = match unsafe { handle.encode(hash_slice(key), key) } {
                        Some(code) => {
                            let g = unsafe { handle.group(code) };
                            (g.as_ptr(), g.len() as u32, 0)
                        }
                        None => (std::ptr::null(), 0, 0),
                    };
                    entering = false;
                }
                // Advance depth d to its next matching row.
                let mut matched = false;
                {
                    let (ptr, len, pos) = &mut st.cursors[d];
                    while *pos < *len {
                        // SAFETY: group storage is frozen for the
                        // round.
                        let rid = unsafe { *ptr.add(*pos as usize) };
                        *pos += 1;
                        if !rel.row_visible(rid, *range) {
                            continue;
                        }
                        lph += 1;
                        lrs += 1;
                        st.ticks += 1;
                        if st.ticks & POLL_MASK == 0 && ev.should_abort() {
                            return false;
                        }
                        let row = rel.row(rid);
                        if row.len() != p.arity {
                            continue;
                        }
                        st.rowids[d] = rid;
                        let mut ok = true;
                        for &(c, src) in &p.checks {
                            if row[c] != ctx.src_val(src, rep_row, st.rowids) {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            for g in &p.guards {
                                lce += 1;
                                if !ctx.guard_ok(g, rep_row, st.rowids, st.lookup_key) {
                                    ok = false;
                                    break;
                                }
                            }
                        }
                        if !ok {
                            continue;
                        }
                        matched = true;
                        break;
                    }
                }
                if matched {
                    if p.existential {
                        // Invariant existential: the first hit
                        // serves every member — a group-level
                        // short-circuit.
                        st.cursors[d].2 = st.cursors[d].1;
                    }
                    if d + 1 < split {
                        d += 1;
                        entering = true;
                        continue;
                    }
                    // Full invariant prefix match: per-member tail.
                    if !ctx.member_tail(members, depth0, st, stats, out) {
                        return false;
                    }
                    // Stay at the deepest invariant depth, advance.
                } else if d == 0 {
                    break;
                } else {
                    d -= 1;
                }
            }
            stats.probes += lp * m;
            stats.probe_hits += lph * m;
            stats.rows_scanned += lrs * m;
            stats.cmp_evals += lce * m;
        }
    }
    true
}

/// Widest radix digit of [`partition_by_code`]: its counts fit in 8 KiB.
const RADIX_BITS: u32 = 11;

/// Stable LSD radix partition of gathered `code << 32 | row` words on
/// their code half, whose codes fit in `code_bits` bits, in as few
/// passes of at most [`RADIX_BITS`] as that width allows (one for up to
/// 2 048 codes). The gather pushes rows ascending, so the result is the
/// chunk sorted — the order `sort_unstable` gives — without a
/// comparison. Passes alternate between `chunk` and `spill`; returns the
/// one holding the result.
fn partition_by_code<'a>(
    chunk: &'a mut [u64],
    spill: &'a mut Vec<u64>,
    code_bits: u32,
) -> &'a [u64] {
    let passes = code_bits.div_ceil(RADIX_BITS);
    if passes == 0 {
        return chunk; // one code: already in row order
    }
    let digit = code_bits.div_ceil(passes);
    let n = chunk.len();
    if spill.len() < n {
        spill.reserve_exact(n - spill.len());
        spill.resize(n, 0);
    }
    let mask = (1usize << digit) - 1;
    let (mut src, mut dst) = (chunk, &mut spill[..n]);
    let mut at = [0u32; 1 << RADIX_BITS];
    for pass in 0..passes {
        let shift = 32 + pass * digit;
        let at = &mut at[..=mask];
        at.fill(0);
        for &e in src.iter() {
            at[(e >> shift) as usize & mask] += 1;
        }
        let mut sum = 0;
        for c in at.iter_mut() {
            (*c, sum) = (sum, sum + *c);
        }
        for &e in src.iter() {
            let d = &mut at[(e >> shift) as usize & mask];
            dst[*d as usize] = e;
            *d += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    src
}

/// The repeat-filter word a gathered `code << 32 | row` word sets.
#[inline]
fn seen_word(e: u64) -> usize {
    ((e >> 32) as usize % KERNEL_CHUNK) / 64
}

/// Clears the repeat-filter words a gathered chunk set, leaving the
/// filter all zero for the next chunk.
fn forget_codes(seen: &mut [u64], chunk: &[u64]) {
    for &e in chunk {
        seen[seen_word(e)] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_by_code_gives_the_sorted_order_word_for_word() {
        let mut state = 0x5eed_u64;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut spill = Vec::new();
        for bits in [1u32, 10, 11, 17, 31] {
            for len in [1, 2, 63, 1000, KERNEL_CHUNK] {
                // Rows ascend with gaps; a small pool of codes makes
                // ties, and the widest code of the width turns up.
                let pool: Vec<u64> = (0..1 + len / 8).map(|_| next() >> (64 - bits)).collect();
                let mut row = 0u64;
                let mut chunk: Vec<u64> = (0..len)
                    .map(|i| {
                        row += 1 + next() % 3;
                        let code = match i % 5 {
                            0 => (1 << bits) - 1,
                            1 | 2 => pool[next() as usize % pool.len()],
                            _ => next() >> (64 - bits),
                        };
                        code << 32 | row
                    })
                    .collect();
                let mut want = chunk.clone();
                want.sort_unstable();
                let got = partition_by_code(&mut chunk, &mut spill, bits);
                assert!(got == want, "{bits}-bit codes, {len} rows");
            }
        }
        assert_eq!(spill.capacity(), KERNEL_CHUNK, "the spill outgrew a chunk");
    }
}
