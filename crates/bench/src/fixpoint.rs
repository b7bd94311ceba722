//! Fixpoint throughput benchmark: times the engine's semi-naive loop on
//! the `gen` workloads and emits `BENCH_fixpoint.json` at the repo root.
//!
//! This is the perf trajectory every engine PR is judged against — no
//! criterion, no external deps (offline-build policy): plain
//! `Instant`-based wall timing, median of N runs.

use semrec_datalog::program::Program;
use semrec_engine::fxhash::hash_one;
use semrec_engine::{evaluate, Budget, CancelToken, CodeMap, Database, Evaluator, Stats, Strategy};
use semrec_gen::{fanout, org, parse_scenario, university};
use std::fmt::Write as _;
use std::time::Instant;

/// Version of the `BENCH_fixpoint.json` schema this harness emits
/// (`"schema_version"` in the document header). Bump it whenever a
/// section or field the CI gates read is added or changed; `check.sh`
/// fails when the checked-in baseline's version differs, forcing a
/// regeneration with `harness bench --json` in the same PR.
pub const SCHEMA_VERSION: u64 = 5;

/// IDB-size floor for the `--assert-throughput` gate: workloads below
/// this finish in a few ms and are dominated by noise, not by the
/// engine. The quick set keeps one fanout size above it.
pub const THROUGHPUT_MIN_IDB_ROWS: usize = 50_000;

/// One benchmarked workload.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    /// Workload name (`fanout`, `org`, `university`).
    pub name: String,
    /// Size label (generator parameters).
    pub params: String,
    /// EDB tuples in.
    pub rows_edb: usize,
    /// IDB tuples out.
    pub rows_idb: usize,
    /// Fixpoint rounds.
    pub rounds: u64,
    /// Median wall milliseconds of plan compilation + `run()`.
    pub millis: f64,
}

impl WorkloadResult {
    /// IDB rows materialized per second of wall time — the throughput
    /// the `--assert-throughput` gate compares against the baseline.
    pub fn rows_per_sec(&self) -> f64 {
        rows_per_sec(self.rows_idb, self.millis)
    }
}

fn rows_per_sec(rows: usize, millis: f64) -> f64 {
    rows as f64 * 1e3 / millis.max(1e-9)
}

fn edb_rows(db: &Database) -> usize {
    db.iter().map(|(_, rel)| rel.len()).sum()
}

fn time_once(db: &Database, prog: &Program) -> (f64, usize, u64) {
    let start = Instant::now();
    let mut ev = Evaluator::new(db, prog, Strategy::SemiNaive).unwrap();
    ev.run().unwrap();
    let millis = start.elapsed().as_secs_f64() * 1e3;
    let rounds = ev.rounds();
    let res = ev.finish();
    let out: usize = res.idb.values().map(|r| r.len()).sum();
    (millis, out, rounds)
}

fn bench_workload(
    name: &str,
    params: String,
    db: &Database,
    prog: &Program,
    runs: usize,
) -> WorkloadResult {
    // One untimed warmup so the first timed run doesn't absorb the
    // cold-start cost (page faults, lazily built indexes) alone.
    let (_, rows_idb, rounds) = time_once(db, prog);
    let mut samples: Vec<f64> = (0..runs.max(1)).map(|_| time_once(db, prog).0).collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
    WorkloadResult {
        name: name.to_owned(),
        params,
        rows_edb: edb_rows(db),
        rows_idb,
        rounds,
        millis: samples[samples.len() / 2],
    }
}

/// Runs the full fixpoint benchmark. `quick` shrinks sizes and run counts
/// (used by `scripts/check.sh` so the tier-1 gate stays fast).
pub fn run_fixpoint_bench(quick: bool) -> Vec<WorkloadResult> {
    // Quick mode still takes 3 samples per workload: the medians feed
    // the throughput gate, and a single-sample median is just that
    // sample — one scheduling hiccup would flake the gate.
    let runs = 3;
    let mut results = Vec::new();

    // Fanout k = 1 — the E1 headline scenario. fanout=64 is the ≥2x
    // target configuration; a second size shows scaling in `nodes`, and
    // is the one workload above [`THROUGHPUT_MIN_IDB_ROWS`], so it stays
    // in the quick set.
    let fanout_sizes: &[(usize, usize, usize)] = if quick {
        &[(150, 80, 64), (300, 160, 64)]
    } else {
        &[(150, 80, 64), (300, 160, 64), (300, 160, 8)]
    };
    let s = parse_scenario(fanout::PROGRAM);
    for &(nodes, extra, fo) in fanout_sizes {
        let db = fanout::generate(&fanout::FanoutParams {
            nodes,
            extra_edges: extra,
            fanout: fo,
            seed: 1,
        });
        results.push(bench_workload(
            "fanout",
            format!("nodes={nodes} extra_edges={extra} fanout={fo}"),
            &db,
            &s.program,
            runs,
        ));
    }

    // Org reporting-tree closure (Example 4.1).
    let org_sizes: &[usize] = if quick { &[400] } else { &[400, 1200] };
    let s = parse_scenario(org::PROGRAM);
    for &employees in org_sizes {
        let db = org::generate(&org::OrgParams {
            employees,
            seed: 2,
            ..org::OrgParams::default()
        });
        results.push(bench_workload(
            "org",
            format!("employees={employees}"),
            &db,
            &s.program,
            runs,
        ));
    }

    // University collaboration chains (Examples 3.2/4.2).
    let uni_sizes: &[(usize, usize)] = if quick {
        &[(60, 200)]
    } else {
        &[(60, 200), (120, 600)]
    };
    let s = parse_scenario(university::PROGRAM);
    for &(professors, students) in uni_sizes {
        let db = university::generate(&university::UniversityParams {
            professors,
            students,
            seed: 3,
            ..university::UniversityParams::default()
        });
        results.push(bench_workload(
            "university",
            format!("professors={professors} students={students}"),
            &db,
            &s.program,
            runs,
        ));
    }

    results
}

/// One workload's evaluation time with the batch executor's telemetry
/// counters.
#[derive(Clone, Debug)]
pub struct KernelBenchResult {
    /// Workload name.
    pub name: String,
    /// Generator parameter label.
    pub params: String,
    /// IDB tuples out.
    pub rows_idb: usize,
    /// Median wall ms.
    pub kernel_millis: f64,
    /// Plan executions.
    pub kernel_firings: u64,
    /// Index probes issued.
    pub probes: u64,
    /// Rows yielded by index probes after lazy filtering.
    pub probe_hits: u64,
    /// High-water bytes of reusable task scratch — flat and tiny
    /// regardless of derived-row count: the zero-allocation witness.
    pub scratch_hw_bytes: u64,
    /// Dictionary-map walks actually paid (memo misses and unmemoized
    /// resolutions).
    pub dict_probes: u64,
    /// Key→code resolutions served from the EDB-stable kernel memos
    /// instead of the dictionary.
    pub dict_memo_hits: u64,
    /// Mid-insert dedup-table rehashes during drains; 0 means the EWMA
    /// pre-sizing held on every round.
    pub dedup_regrows: u64,
}

impl KernelBenchResult {
    /// IDB rows/sec.
    pub fn kernel_rows_per_sec(&self) -> f64 {
        rows_per_sec(self.rows_idb, self.kernel_millis)
    }
}

fn time_kernels_once(db: &Database, prog: &Program) -> (f64, Stats, usize) {
    let start = Instant::now();
    let mut ev = Evaluator::new(db, prog, Strategy::SemiNaive).unwrap();
    ev.run().unwrap();
    let millis = start.elapsed().as_secs_f64() * 1e3;
    let stats = ev.stats();
    let out: usize = ev.finish().idb.values().map(|r| r.len()).sum();
    (millis, stats, out)
}

/// Runs the kernel telemetry bench: every gen workload evaluated, the
/// median time and the last run's counters reported. (The step machine
/// this section used to time against went with PR 20; its last
/// measured ratio is in EXPERIMENTS.md.)
pub fn run_kernel_bench(quick: bool) -> Vec<KernelBenchResult> {
    let runs = if quick { 1 } else { 3 };
    let mut specs: Vec<(String, String, Database, Program)> = Vec::new();

    let fanout_sizes: &[(usize, usize, usize)] = if quick {
        &[(150, 80, 64)]
    } else {
        &[(150, 80, 64), (300, 160, 64)]
    };
    let s = parse_scenario(fanout::PROGRAM);
    for &(nodes, extra, fo) in fanout_sizes {
        let db = fanout::generate(&fanout::FanoutParams {
            nodes,
            extra_edges: extra,
            fanout: fo,
            seed: 1,
        });
        specs.push((
            "fanout".into(),
            format!("nodes={nodes} extra_edges={extra} fanout={fo}"),
            db,
            s.program.clone(),
        ));
    }
    let s = parse_scenario(org::PROGRAM);
    let db = org::generate(&org::OrgParams {
        employees: 400,
        seed: 2,
        ..org::OrgParams::default()
    });
    specs.push(("org".into(), "employees=400".into(), db, s.program.clone()));
    let s = parse_scenario(university::PROGRAM);
    let db = university::generate(&university::UniversityParams {
        professors: 60,
        students: 200,
        seed: 3,
        ..university::UniversityParams::default()
    });
    specs.push((
        "university".into(),
        "professors=60 students=200".into(),
        db,
        s.program.clone(),
    ));

    let mut out = Vec::new();
    for (name, params, db, prog) in &specs {
        time_kernels_once(db, prog); // untimed warmup
        let mut kernel_ms = Vec::new();
        let mut kstats = Stats::default();
        let mut rows_idb = 0;
        for _ in 0..runs.max(1) {
            let (ms, st, rows) = time_kernels_once(db, prog);
            kernel_ms.push(ms);
            kstats = st;
            rows_idb = rows;
        }
        kernel_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        out.push(KernelBenchResult {
            name: name.clone(),
            params: params.clone(),
            rows_idb,
            kernel_millis: kernel_ms[kernel_ms.len() / 2],
            kernel_firings: kstats.kernel_firings,
            probes: kstats.probes,
            probe_hits: kstats.probe_hits,
            scratch_hw_bytes: kstats.scratch_hw_bytes,
            dict_probes: kstats.dict_probes,
            dict_memo_hits: kstats.dict_memo_hits,
            dedup_regrows: kstats.dedup_regrows,
        });
    }
    out
}

/// A human-readable kernel telemetry table.
pub fn kernel_table(results: &[KernelBenchResult]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<10} {:<42} {:>10} {:>11} {:>10} {:>9} {:>9} {:>8}",
        "kernels", "params", "kernel ms", "krows/s", "scratch", "dict", "memo", "regrows"
    );
    for r in results {
        let _ = writeln!(
            s,
            "{:<10} {:<42} {:>10.2} {:>11.0} {:>9}B {:>9} {:>9} {:>8}",
            r.name,
            r.params,
            r.kernel_millis,
            r.kernel_rows_per_sec(),
            r.scratch_hw_bytes,
            r.dict_probes,
            r.dict_memo_hits,
            r.dedup_regrows,
        );
    }
    s
}

/// Splices the `kernels` section into an already-serialized benchmark
/// document. Empty input leaves the document unchanged.
pub fn to_json_with_kernel_stats(mut s: String, kernels: &[KernelBenchResult]) -> String {
    if kernels.is_empty() {
        return s;
    }
    let tail = s.rfind("  ]\n}").expect("serializer emits a closing array");
    s.truncate(tail + 3);
    s.push_str(",\n  \"kernels\": [\n");
    for (i, r) in kernels.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"params\": \"{}\", \"rows_idb\": {}, \
             \"kernel_millis\": {}, \"kernel_rows_per_sec\": {}, \"kernel_firings\": {}, \
             \"probes\": {}, \"probe_hits\": {}, \"scratch_hw_bytes\": {}, \
             \"dict_probes\": {}, \"dict_memo_hits\": {}, \"dedup_regrows\": {}}}",
            r.name,
            r.params,
            r.rows_idb,
            json_f(r.kernel_millis),
            json_f(r.kernel_rows_per_sec()),
            r.kernel_firings,
            r.probes,
            r.probe_hits,
            r.scratch_hw_bytes,
            r.dict_probes,
            r.dict_memo_hits,
            r.dedup_regrows
        );
        s.push_str(if i + 1 < kernels.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// One end-to-end semantic-optimization measurement: the same workload
/// evaluated with the rectified original program vs the `core`
/// optimizer's residue-eliminated output.
#[derive(Clone, Debug)]
pub struct SemanticResult {
    /// Scenario name.
    pub scenario: String,
    /// Generator parameter label.
    pub params: String,
    /// Median fixpoint milliseconds of the original (rectified) program.
    pub original_millis: f64,
    /// Median fixpoint milliseconds of the optimized program.
    pub optimized_millis: f64,
    /// Rows scanned by the original program.
    pub original_rows: u64,
    /// Rows scanned by the optimized program.
    pub optimized_rows: u64,
    /// IDB tuples of the checked answer predicate (identical in both).
    pub rows_idb: usize,
}

impl SemanticResult {
    /// Wall-time speedup of the optimized program (> 1 means it wins).
    pub fn speedup(&self) -> f64 {
        self.original_millis / self.optimized_millis.max(1e-9)
    }
}

/// Runs the end-to-end semantic speedup bench: the fanout scenario's
/// guarded-reachability program (the paper's k=1 residue-based atom
/// elimination, DESIGN §4) timed original-vs-optimized on the fast
/// engine. This is the number the whole repo exists to improve: a
/// residue-eliminated join must save more time than evaluation overhead
/// costs.
pub fn run_semantic_bench(quick: bool) -> Vec<SemanticResult> {
    let runs = if quick { 1 } else { 3 };
    let s = parse_scenario(fanout::PROGRAM);
    let plan = semrec_core::optimizer::Optimizer::new(&s.program)
        .with_constraints(&s.constraints)
        .run()
        .expect("fanout scenario optimizes");

    let sizes: &[(usize, usize, usize)] = if quick {
        &[(150, 80, 64)]
    } else {
        &[(150, 80, 64), (300, 160, 64)]
    };
    let mut out = Vec::new();
    for &(nodes, extra, fo) in sizes {
        let db = fanout::generate(&fanout::FanoutParams {
            nodes,
            extra_edges: extra,
            fanout: fo,
            seed: 1,
        });
        let mut orig_ms = Vec::new();
        let mut opt_ms = Vec::new();
        let mut orig_rows = 0;
        let mut opt_rows = 0;
        let mut rows_idb = 0;
        for _ in 0..runs.max(1) {
            let t = Instant::now();
            let base = evaluate(&db, &plan.rectified, Strategy::SemiNaive).unwrap();
            orig_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let opt = evaluate(&db, &plan.program, Strategy::SemiNaive).unwrap();
            opt_ms.push(t.elapsed().as_secs_f64() * 1e3);
            assert_eq!(
                base.relation("reach").unwrap().sorted_tuples(),
                opt.relation("reach").unwrap().sorted_tuples(),
                "optimized program diverged on reach"
            );
            orig_rows = base.stats.rows_scanned;
            opt_rows = opt.stats.rows_scanned;
            rows_idb = base.relation("reach").unwrap().len();
        }
        orig_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        opt_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        out.push(SemanticResult {
            scenario: "fanout".to_owned(),
            params: format!("nodes={nodes} extra_edges={extra} fanout={fo}"),
            original_millis: orig_ms[orig_ms.len() / 2],
            optimized_millis: opt_ms[opt_ms.len() / 2],
            original_rows: orig_rows,
            optimized_rows: opt_rows,
            rows_idb,
        });
    }
    out
}

/// One governance-overhead measurement: the identical workload evaluated
/// with no budget vs a fully-armed budget that never trips (deadline,
/// row cap, byte cap, cancel token), isolating the cost of the checks
/// themselves — the round-boundary accounting plus the per-1024-row
/// cooperative deadline/cancel poll.
#[derive(Clone, Debug)]
pub struct GovernanceResult {
    /// Workload name.
    pub workload: String,
    /// Generator parameter label.
    pub params: String,
    /// Median fixpoint milliseconds without any budget.
    pub ungoverned_millis: f64,
    /// Median fixpoint milliseconds under the never-tripping budget.
    pub governed_millis: f64,
    /// IDB tuples out (identical in both).
    pub rows_idb: usize,
}

impl GovernanceResult {
    /// Governance overhead in percent (> 0 means governed is slower).
    pub fn overhead_pct(&self) -> f64 {
        (self.governed_millis / self.ungoverned_millis.max(1e-9) - 1.0) * 100.0
    }
}

fn time_governance_once(db: &Database, prog: &Program, governed: bool) -> (f64, usize) {
    let start = Instant::now();
    let mut ev = Evaluator::new(db, prog, Strategy::SemiNaive).unwrap();
    if governed {
        ev = ev
            .with_budget(
                Budget::unlimited()
                    .with_deadline(std::time::Duration::from_secs(3600))
                    .with_max_idb_rows(u64::MAX)
                    .with_max_resident_bytes(u64::MAX),
            )
            .with_cancel_token(CancelToken::new());
    }
    ev.run().unwrap();
    let millis = start.elapsed().as_secs_f64() * 1e3;
    let out: usize = ev.finish().idb.values().map(|r| r.len()).sum();
    (millis, out)
}

/// Measures governance overhead on the E1 fanout scenario (EXPERIMENTS.md
/// expects < 2%). Governed and ungoverned runs are interleaved so slow
/// machine drift hits both sides equally.
pub fn run_governance_bench(quick: bool) -> Vec<GovernanceResult> {
    let runs = if quick { 3 } else { 5 };
    let sizes: &[(usize, usize, usize)] = if quick {
        &[(150, 80, 64)]
    } else {
        &[(150, 80, 64), (300, 160, 64)]
    };
    let s = parse_scenario(fanout::PROGRAM);
    let mut out = Vec::new();
    for &(nodes, extra, fo) in sizes {
        let db = fanout::generate(&fanout::FanoutParams {
            nodes,
            extra_edges: extra,
            fanout: fo,
            seed: 1,
        });
        // Warmup both paths untimed.
        time_governance_once(&db, &s.program, false);
        time_governance_once(&db, &s.program, true);
        let mut plain = Vec::new();
        let mut governed = Vec::new();
        let mut rows_idb = 0;
        for _ in 0..runs {
            let (ms, out_rows) = time_governance_once(&db, &s.program, false);
            plain.push(ms);
            let (ms, gov_rows) = time_governance_once(&db, &s.program, true);
            governed.push(ms);
            assert_eq!(out_rows, gov_rows, "governed run changed the answer");
            rows_idb = out_rows;
        }
        plain.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        governed.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        out.push(GovernanceResult {
            workload: "fanout".to_owned(),
            params: format!("nodes={nodes} extra_edges={extra} fanout={fo}"),
            ungoverned_millis: plain[plain.len() / 2],
            governed_millis: governed[governed.len() / 2],
            rows_idb,
        });
    }
    out
}

/// A human-readable governance-overhead table.
pub fn governance_table(results: &[GovernanceResult]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<10} {:<42} {:>12} {:>12} {:>9}",
        "governance", "params", "plain ms", "governed ms", "overhead"
    );
    for r in results {
        let _ = writeln!(
            s,
            "{:<10} {:<42} {:>12.2} {:>12.2} {:>8.2}%",
            r.workload,
            r.params,
            r.ungoverned_millis,
            r.governed_millis,
            r.overhead_pct(),
        );
    }
    s
}

/// CI gate: no kernel-bench workload may exceed `max_regrows` mid-drain
/// dedup-table rehashes (`dedup_regrows`) —
/// `--assert-no-regrow 0` pins the EWMA pre-sizing promise on the gen
/// workloads. Returns a pass summary or a per-workload violation report.
pub fn check_no_regrow(results: &[KernelBenchResult], max_regrows: u64) -> Result<String, String> {
    let mut violations = String::new();
    for r in results {
        if r.dedup_regrows > max_regrows {
            let _ = writeln!(
                violations,
                "  {} {}: dedup_regrows {} > {max_regrows}",
                r.name, r.params, r.dedup_regrows,
            );
        }
    }
    if violations.is_empty() {
        Ok(format!(
            "regrow gate: {} workload(s) at <= {max_regrows} mid-drain dedup rehashes",
            results.len()
        ))
    } else {
        Err(format!(
            "regrow gate FAILED (dedup pre-sizing missed; drains rehashed mid-insert):\n{violations}"
        ))
    }
}

/// One dictionary-map microbenchmark row: [`CodeMap`] over a synthetic
/// key population, nanoseconds per operation. "Insert" builds the map
/// from empty; "hit" looks up every resident key; "miss" looks up as
/// many absent keys.
#[derive(Clone, Debug)]
pub struct DictBenchResult {
    /// Resident keys in the map.
    pub keys: usize,
    /// ns/op building a `CodeMap` from empty.
    pub codemap_insert_ns: f64,
    /// ns/op for resident-key lookups on `CodeMap`.
    pub codemap_hit_ns: f64,
    /// ns/op for absent-key lookups on `CodeMap`.
    pub codemap_miss_ns: f64,
}

/// Runs the `harness dict` microbenchmark: the dictionary-encoding
/// `CodeMap` on insert / lookup-hit / lookup-miss mixes at 1k / 100k /
/// 1M resident keys (`quick` drops the 1M row). Key `i` hashes via
/// `hash_one(i)` — the same Fx mixing the relation stores use — and
/// codes are the key indices, so the equality closure is an O(1) array
/// check, isolating the probe-walk cost. (The comparison against the
/// std-`HashMap`-based map it replaced is recorded in EXPERIMENTS.md.)
pub fn run_dict_bench(quick: bool) -> Vec<DictBenchResult> {
    let sizes: &[usize] = if quick {
        &[1_000, 100_000]
    } else {
        &[1_000, 100_000, 1_000_000]
    };
    let mut out = Vec::new();
    for &n in sizes {
        // Repeat small populations so every cell measures a similar
        // total op count (≥ ~1M) and the per-op quotient is stable.
        let reps = (1_000_000 / n).max(1);
        let hashes: Vec<u64> = (0..2 * n as u64).map(hash_one).collect();
        let per_op = |nanos: u128| nanos as f64 / (reps * n) as f64;

        let mut cm = CodeMap::default();
        let t = Instant::now();
        for _ in 0..reps {
            cm.clear();
            for (i, &h) in hashes.iter().enumerate().take(n) {
                cm.insert(h, i as u32, |c| hashes[c as usize]);
            }
        }
        let codemap_insert_ns = per_op(t.elapsed().as_nanos());
        let mut found = 0u64;
        let t = Instant::now();
        for _ in 0..reps {
            for (i, &h) in hashes.iter().enumerate().take(n) {
                found += u64::from(cm.get(h, |c| c as usize == i).is_some());
            }
        }
        let codemap_hit_ns = per_op(t.elapsed().as_nanos());
        assert_eq!(std::hint::black_box(found), (reps * n) as u64);
        let t = Instant::now();
        for _ in 0..reps {
            for (i, &h) in hashes.iter().enumerate().skip(n) {
                found += u64::from(cm.get(h, |c| c as usize == i).is_some());
            }
        }
        let codemap_miss_ns = per_op(t.elapsed().as_nanos());
        assert_eq!(std::hint::black_box(found), (reps * n) as u64, "misses hit");

        out.push(DictBenchResult {
            keys: n,
            codemap_insert_ns,
            codemap_hit_ns,
            codemap_miss_ns,
        });
    }
    out
}

/// A human-readable dictionary-microbenchmark table (ns per operation).
pub fn dict_table(results: &[DictBenchResult]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<10} {:>10} {:>10} {:>10} {:>10}",
        "dict", "keys", "cm ins", "cm hit", "cm miss"
    );
    for r in results {
        let _ = writeln!(
            s,
            "{:<10} {:>10} {:>10.1} {:>10.1} {:>10.1}",
            "ns/op", r.keys, r.codemap_insert_ns, r.codemap_hit_ns, r.codemap_miss_ns,
        );
    }
    s
}

/// Splices the `dict` section into an already-serialized benchmark
/// document. Empty input leaves the document unchanged.
pub fn to_json_with_dict(mut s: String, dict: &[DictBenchResult]) -> String {
    if dict.is_empty() {
        return s;
    }
    let tail = s.rfind("  ]\n}").expect("serializer emits a closing array");
    s.truncate(tail + 3);
    s.push_str(",\n  \"dict\": [\n");
    for (i, r) in dict.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"keys\": {}, \"codemap_insert_ns\": {}, \"codemap_hit_ns\": {}, \
             \"codemap_miss_ns\": {}}}",
            r.keys,
            json_f(r.codemap_insert_ns),
            json_f(r.codemap_hit_ns),
            json_f(r.codemap_miss_ns),
        );
        s.push_str(if i + 1 < dict.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

fn json_f(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_owned()
    }
}

/// Serializes results as JSON (hand-rolled: offline-build policy).
/// `semantic` may be empty (the section is omitted for compatibility
/// with older baselines).
pub fn to_json_with_semantic(results: &[WorkloadResult], semantic: &[SemanticResult]) -> String {
    let mut s = to_json(results);
    if semantic.is_empty() {
        return s;
    }
    // Splice the semantic section before the closing brace.
    let tail = s.rfind("  ]\n}").expect("to_json emits its workload array");
    s.truncate(tail + 3); // keep `  ]`, drop the newline and closing brace
    s.push_str(",\n  \"semantic\": [\n");
    for (i, r) in semantic.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"scenario\": \"{}\", \"params\": \"{}\", \"original_millis\": {}, \
             \"optimized_millis\": {}, \"speedup\": {}, \"original_rows\": {}, \
             \"optimized_rows\": {}, \"rows_idb\": {}}}",
            r.scenario,
            r.params,
            json_f(r.original_millis),
            json_f(r.optimized_millis),
            json_f(r.speedup()),
            r.original_rows,
            r.optimized_rows,
            r.rows_idb
        );
        s.push_str(if i + 1 < semantic.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Serializes the full benchmark document — workloads, semantic
/// speedups, and governance overhead. Empty sections are omitted so the
/// JSON stays compatible with older baselines.
pub fn to_json_full(
    results: &[WorkloadResult],
    semantic: &[SemanticResult],
    governance: &[GovernanceResult],
) -> String {
    let mut s = to_json_with_semantic(results, semantic);
    if governance.is_empty() {
        return s;
    }
    // Splice before the closing brace, like the semantic section.
    let tail = s.rfind("  ]\n}").expect("serializer emits a closing array");
    s.truncate(tail + 3);
    s.push_str(",\n  \"governance_overhead\": [\n");
    for (i, r) in governance.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"workload\": \"{}\", \"params\": \"{}\", \"ungoverned_millis\": {}, \
             \"governed_millis\": {}, \"overhead_pct\": {}, \"rows_idb\": {}}}",
            r.workload,
            r.params,
            json_f(r.ungoverned_millis),
            json_f(r.governed_millis),
            json_f(r.overhead_pct()),
            r.rows_idb
        );
        s.push_str(if i + 1 < governance.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("  ]\n}\n");
    s
}

/// A human-readable semantic-speedup table.
pub fn semantic_table(results: &[SemanticResult]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<10} {:<42} {:>10} {:>10} {:>8} {:>12}",
        "semantic", "params", "orig ms", "opt ms", "speedup", "rows saved"
    );
    for r in results {
        let _ = writeln!(
            s,
            "{:<10} {:<42} {:>10.2} {:>10.2} {:>7.2}x {:>11.2}x",
            r.scenario,
            r.params,
            r.original_millis,
            r.optimized_millis,
            r.speedup(),
            r.original_rows as f64 / r.optimized_rows.max(1) as f64,
        );
    }
    s
}

/// Serializes results as JSON (hand-rolled: offline-build policy).
pub fn to_json(results: &[WorkloadResult]) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"benchmark\": \"fixpoint\",\n");
    let _ = writeln!(s, "  \"schema_version\": {SCHEMA_VERSION},");
    let _ = writeln!(
        s,
        "  \"strategy\": \"SemiNaive\",\n  \"available_parallelism\": {},",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    s.push_str("  \"workloads\": [\n");
    for (i, w) in results.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"name\": \"{}\",", w.name);
        let _ = writeln!(s, "      \"params\": \"{}\",", w.params);
        let _ = writeln!(s, "      \"rows_edb\": {},", w.rows_edb);
        let _ = writeln!(s, "      \"rows_idb\": {},", w.rows_idb);
        let _ = writeln!(s, "      \"rounds\": {},", w.rounds);
        let _ = writeln!(s, "      \"millis\": {},", json_f(w.millis));
        let _ = writeln!(s, "      \"rows_per_sec\": {}", json_f(w.rows_per_sec()));
        s.push_str(if i + 1 < results.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    s.push_str("  ]\n}\n");
    s
}

/// A human-readable summary table.
pub fn to_table(results: &[WorkloadResult]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<12} {:<42} {:>9} {:>9} {:>7} {:>9} {:>11}",
        "workload", "params", "edb", "idb", "rounds", "ms", "rows/s"
    );
    for w in results {
        let _ = writeln!(
            s,
            "{:<12} {:<42} {:>9} {:>9} {:>7} {:>9.2} {:>11.0}",
            w.name,
            w.params,
            w.rows_edb,
            w.rows_idb,
            w.rounds,
            w.millis,
            w.rows_per_sec(),
        );
    }
    s
}

/// One incremental-maintenance measurement: a single transaction
/// applied to a maintained E1 fanout materialization, vs re-answering
/// the same post-transaction database from scratch.
#[derive(Clone, Debug)]
pub struct IncrementalResult {
    /// Scenario name.
    pub scenario: String,
    /// Generator parameter label.
    pub params: String,
    /// What the transaction did (`insert`, `ic_violating_insert`).
    pub op: String,
    /// Median milliseconds for the incremental update.
    pub update_millis: f64,
    /// Median milliseconds for a from-scratch evaluation of the active
    /// route's program over the post-transaction database.
    pub scratch_millis: f64,
    /// The route answering queries after the update.
    pub route: String,
    /// IDB tuples of the answer predicate after the update.
    pub rows_idb: usize,
}

impl IncrementalResult {
    /// From-scratch / incremental latency ratio (> 1: maintenance wins).
    pub fn speedup(&self) -> f64 {
        self.scratch_millis / self.update_millis.max(1e-9)
    }
}

/// Runs the incremental-maintenance bench on the large E1 fanout
/// workload: a single-tuple clean insert (must be far cheaper than
/// re-evaluating) and an IC-violating insert (pays the route
/// invalidation: the rectified program is rebuilt from scratch, so its
/// latency is the honest worst case).
pub fn run_incremental_bench(quick: bool) -> Vec<IncrementalResult> {
    use semrec_core::maintain::MaintainedQuery;
    use semrec_core::optimizer::OptimizerConfig;
    use semrec_datalog::term::Value;
    use semrec_engine::Tx;

    let runs = if quick { 1 } else { 5 };
    let (nodes, extra, fo) = if quick { (150, 80, 64) } else { (300, 160, 64) };
    let s = parse_scenario(fanout::PROGRAM);
    let params = format!("nodes={nodes} extra_edges={extra} fanout={fo}");
    let db = fanout::generate(&fanout::FanoutParams {
        nodes,
        extra_edges: extra,
        fanout: fo,
        seed: 1,
    });

    // (op, edge to insert): the clean insert targets a witnessed node;
    // the violating one targets a node the generator gave no witness.
    let clean_target = (2..nodes as i64)
        .find(|&b| {
            !db.get("edge".into())
                .is_some_and(|r| r.contains(&[Value::Int(0), Value::Int(b)]))
        })
        .expect("some witnessed node has no edge from 0");
    let ops: [(&str, i64); 2] = [
        ("insert", clean_target),
        ("ic_violating_insert", nodes as i64 + 4242),
    ];

    let mut out = Vec::new();
    for (op, target) in ops {
        let mut update_ms = Vec::new();
        let mut scratch_ms = Vec::new();
        let mut route = String::new();
        let mut rows_idb = 0;
        for _ in 0..runs.max(1) {
            // Fresh materialization per run: each measurement applies
            // the identical transaction to the identical state.
            let mut q = MaintainedQuery::new(
                db.clone(),
                &s.program,
                &s.constraints,
                OptimizerConfig::default(),
                1,
            )
            .expect("fanout scenario optimizes");
            let mut tx = Tx::new();
            tx.insert("edge", vec![Value::Int(0), Value::Int(target)]);
            let t = Instant::now();
            let res = q
                .apply(&tx, Budget::unlimited(), None)
                .expect("unlimited-budget update succeeds");
            update_ms.push(t.elapsed().as_secs_f64() * 1e3);
            route = format!("{:?}", res.route);
            rows_idb = q.relation("reach").map(|r| r.len()).unwrap_or(0);

            // From-scratch comparison: evaluate the active route's
            // program over the post-tx database.
            let program = if q.on_optimized_route() {
                &q.plan().program
            } else {
                &q.plan().rectified
            };
            let t = Instant::now();
            let scratch =
                evaluate(q.db(), program, Strategy::SemiNaive).expect("scratch evaluation");
            scratch_ms.push(t.elapsed().as_secs_f64() * 1e3);
            assert_eq!(
                q.relation("reach").map(|r| r.sorted_tuples()),
                scratch.relation("reach").map(|r| r.sorted_tuples()),
                "maintained answer diverged from scratch"
            );
        }
        update_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        scratch_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        out.push(IncrementalResult {
            scenario: "fanout".to_owned(),
            params: params.clone(),
            op: op.to_owned(),
            update_millis: update_ms[update_ms.len() / 2],
            scratch_millis: scratch_ms[scratch_ms.len() / 2],
            route,
            rows_idb,
        });
    }
    out
}

/// A human-readable incremental-update latency table.
pub fn incremental_table(results: &[IncrementalResult]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<12} {:<20} {:>10} {:>11} {:>8}  route",
        "incremental", "op", "update ms", "scratch ms", "speedup"
    );
    for r in results {
        let _ = writeln!(
            s,
            "{:<12} {:<20} {:>10.3} {:>11.2} {:>7.1}x  {}",
            r.scenario,
            r.op,
            r.update_millis,
            r.scratch_millis,
            r.speedup(),
            r.route
        );
    }
    s
}

/// Splices the `incremental` section into an already-serialized
/// benchmark document (the output of [`to_json_full`]). Empty input
/// leaves the document unchanged.
pub fn to_json_with_incremental(mut s: String, incremental: &[IncrementalResult]) -> String {
    if incremental.is_empty() {
        return s;
    }
    let tail = s.rfind("  ]\n}").expect("serializer emits a closing array");
    s.truncate(tail + 3);
    s.push_str(",\n  \"incremental\": [\n");
    for (i, r) in incremental.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"scenario\": \"{}\", \"params\": \"{}\", \"op\": \"{}\", \
             \"update_millis\": {}, \"scratch_millis\": {}, \"speedup\": {}, \
             \"route\": \"{}\", \"rows_idb\": {}}}",
            r.scenario,
            r.params,
            r.op,
            json_f(r.update_millis),
            json_f(r.scratch_millis),
            json_f(r.speedup()),
            r.route,
            r.rows_idb
        );
        s.push_str(if i + 1 < incremental.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("  ]\n}\n");
    s
}

/// `--assert-routing`: the cost-chosen route may be at most this factor
/// slower than the fixed pre-cost ladder's program…
pub const ROUTING_MAX_SLOWDOWN: f64 = 1.25;
/// …plus this absolute noise floor in milliseconds (sub-ms workloads are
/// scheduling noise, not routing regressions).
pub const ROUTING_NOISE_FLOOR_MS: f64 = 2.0;
/// Maximum tolerated cardinality misprediction ratio
/// (`max(pred, actual) / min(pred, actual)`).
pub const ROUTING_MAX_MISPREDICTION: f64 = 10.0;
/// Routed evaluations at least this slow arm the planning-overhead
/// clause: planning must stay under [`ROUTING_MAX_PLAN_FRACTION`] of
/// evaluation time. Faster rows skip it — a fixed planning cost against
/// a micro-workload measures the workload's size, not the planner.
pub const ROUTING_PLAN_GATE_MIN_MS: f64 = 8.0;
/// Maximum planning time as a fraction of routed evaluation time.
pub const ROUTING_MAX_PLAN_FRACTION: f64 = 0.02;

/// One cost-routing measurement: the planner's chosen alternative for a
/// gen workload, timed against the fixed pre-cost ladder (the
/// optimizer's output program, which every evaluation ran before routes
/// were priced).
#[derive(Clone, Debug)]
pub struct RoutingResult {
    /// Scenario name.
    pub scenario: String,
    /// Generator parameter label.
    pub params: String,
    /// The chosen alternative (`original`, `rectified`, `residue_pushed`,
    /// `magic`).
    pub chosen: String,
    /// The route label evaluation reports for the chosen alternative.
    pub route: String,
    /// Estimated cost (cumulative rows touched) of the chosen plan.
    pub predicted_work: f64,
    /// Estimated fixpoint cardinality of the chosen plan.
    pub predicted_rows: f64,
    /// Measured IDB rows of the chosen plan.
    pub actual_rows: u64,
    /// `max(pred, actual) / min(pred, actual)` (1.0 = exact).
    pub misprediction: f64,
    /// Median fixpoint milliseconds of the cost-chosen program.
    pub routed_millis: f64,
    /// Median fixpoint milliseconds of the fixed ladder's program.
    pub ladder_millis: f64,
    /// Planning wall milliseconds (the memo's `plan_nanos`).
    pub plan_millis: f64,
}

impl RoutingResult {
    /// Planning time as a fraction of routed evaluation time.
    pub fn plan_fraction(&self) -> f64 {
        self.plan_millis / self.routed_millis.max(1e-9)
    }
}

fn route_workload(
    name: &str,
    params: String,
    db: &Database,
    program: &Program,
    plan: &semrec_core::Plan,
    runs: usize,
) -> Option<RoutingResult> {
    use semrec_engine::{CostMemo, EdbStats};
    // Warm the planner untimed: the very first build pays one-time
    // per-generation dictionary-index construction that persists on the
    // relations (the evaluator shares the same indexes). The measured
    // build below — with a *fresh* EdbStats, so every distribution is
    // re-read — is the steady-state replanning cost serve/maintain pay.
    let (warm_alts, _) = semrec_core::route_alternatives(program, plan, None);
    CostMemo::build(db, &mut EdbStats::new(), warm_alts).ok()?;
    let (alts, _) = semrec_core::route_alternatives(program, plan, None);
    let memo = CostMemo::build(db, &mut EdbStats::new(), alts).ok()?;
    let choice = memo.choice();
    let routed_prog = memo.best().program.clone();
    let ladder_prog = plan.program.clone();
    // Warm both programs untimed, then interleave the timed passes so
    // machine drift hits both sides equally (same discipline as the
    // governance bench).
    evaluate(db, &routed_prog, Strategy::SemiNaive).ok()?;
    evaluate(db, &ladder_prog, Strategy::SemiNaive).ok()?;
    let mut routed_ms = Vec::new();
    let mut ladder_ms = Vec::new();
    let mut actual_rows = 0u64;
    for _ in 0..runs.max(1) {
        let t = Instant::now();
        let res = evaluate(db, &routed_prog, Strategy::SemiNaive).ok()?;
        routed_ms.push(t.elapsed().as_secs_f64() * 1e3);
        actual_rows = res.idb.values().map(|r| r.len() as u64).sum();
        let t = Instant::now();
        evaluate(db, &ladder_prog, Strategy::SemiNaive).ok()?;
        ladder_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    routed_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    ladder_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    Some(RoutingResult {
        scenario: name.to_owned(),
        params,
        chosen: choice.chosen.name().to_owned(),
        route: format!("{:?}", choice.chosen.route()),
        predicted_work: choice.predicted_work,
        predicted_rows: choice.predicted_rows,
        actual_rows,
        misprediction: choice.misprediction(actual_rows),
        routed_millis: routed_ms[routed_ms.len() / 2],
        ladder_millis: ladder_ms[ladder_ms.len() / 2],
        plan_millis: choice.plan_nanos as f64 / 1e6,
    })
}

/// Runs the cost-routing bench: every gen scenario is optimized, its
/// route alternatives priced by the [`semrec_engine::CostMemo`], and the
/// chosen program timed against the fixed pre-cost ladder. The large
/// fanout size runs even in quick mode — it is the workload slow enough
/// to arm [`check_routing`]'s planning-overhead clause.
pub fn run_routing_bench(quick: bool) -> Vec<RoutingResult> {
    use semrec_core::optimizer::Optimizer;
    let runs = if quick { 3 } else { 5 };
    let mut out = Vec::new();

    let s = parse_scenario(fanout::PROGRAM);
    if let Ok(plan) = Optimizer::new(&s.program)
        .with_constraints(&s.constraints)
        .run()
    {
        for &(nodes, extra, fo) in &[(150usize, 80usize, 64usize), (300, 160, 64)] {
            let db = fanout::generate(&fanout::FanoutParams {
                nodes,
                extra_edges: extra,
                fanout: fo,
                seed: 1,
            });
            out.extend(route_workload(
                "fanout",
                format!("nodes={nodes} extra_edges={extra} fanout={fo}"),
                &db,
                &s.program,
                &plan,
                runs,
            ));
        }
    }

    let s = parse_scenario(org::PROGRAM);
    if let Ok(plan) = Optimizer::new(&s.program)
        .with_constraints(&s.constraints)
        .run()
    {
        let db = org::generate(&org::OrgParams {
            employees: 400,
            seed: 2,
            ..org::OrgParams::default()
        });
        out.extend(route_workload(
            "org",
            "employees=400".to_owned(),
            &db,
            &s.program,
            &plan,
            runs,
        ));
    }

    let s = parse_scenario(university::PROGRAM);
    if let Ok(plan) = Optimizer::new(&s.program)
        .with_constraints(&s.constraints)
        .run()
    {
        let db = university::generate(&university::UniversityParams {
            professors: 60,
            students: 200,
            seed: 3,
            ..university::UniversityParams::default()
        });
        out.extend(route_workload(
            "university",
            "professors=60 students=200".to_owned(),
            &db,
            &s.program,
            &plan,
            runs,
        ));
    }
    out
}

/// A human-readable cost-routing table.
pub fn routing_table(results: &[RoutingResult]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<10} {:<34} {:<14} {:>10} {:>9} {:>8} {:>9} {:>9} {:>8}",
        "routing", "params", "chosen", "est work", "rows", "mispred", "routed", "ladder", "plan ms"
    );
    for r in results {
        let _ = writeln!(
            s,
            "{:<10} {:<34} {:<14} {:>10.0} {:>9} {:>7.2}x {:>9.2} {:>9.2} {:>8.3}",
            r.scenario,
            r.params,
            r.chosen,
            r.predicted_work,
            r.actual_rows,
            r.misprediction,
            r.routed_millis,
            r.ladder_millis,
            r.plan_millis,
        );
    }
    s
}

/// The `--assert-routing` gate: on every routing workload the chosen
/// route must run no slower than [`ROUTING_MAX_SLOWDOWN`] × the fixed
/// ladder (plus [`ROUTING_NOISE_FLOOR_MS`]), the cardinality estimate
/// must land within [`ROUTING_MAX_MISPREDICTION`]× of the measured
/// rows, and — on workloads slow enough to arm the clause — planning
/// must cost under [`ROUTING_MAX_PLAN_FRACTION`] of evaluation time.
/// Arming zero planning-overhead checks is itself an error: the gate
/// would otherwise silently stop pinning the <2% promise.
pub fn check_routing(results: &[RoutingResult]) -> Result<String, String> {
    if results.is_empty() {
        return Err("routing gate FAILED: no routing workload ran".to_owned());
    }
    let mut violations = String::new();
    let mut plan_checked = 0usize;
    for r in results {
        let cap = r.ladder_millis * ROUTING_MAX_SLOWDOWN + ROUTING_NOISE_FLOOR_MS;
        if r.routed_millis > cap {
            let _ = writeln!(
                violations,
                "  {} {}: routed ({}) {:.2} ms > {:.2} ms cap (ladder {:.2} ms)",
                r.scenario, r.params, r.chosen, r.routed_millis, cap, r.ladder_millis,
            );
        }
        if !r.misprediction.is_finite() || r.misprediction > ROUTING_MAX_MISPREDICTION {
            let _ = writeln!(
                violations,
                "  {} {}: misprediction {:.2}x > {ROUTING_MAX_MISPREDICTION}x \
                 (predicted {:.0} rows, actual {})",
                r.scenario, r.params, r.misprediction, r.predicted_rows, r.actual_rows,
            );
        }
        if r.routed_millis >= ROUTING_PLAN_GATE_MIN_MS {
            plan_checked += 1;
            if r.plan_fraction() > ROUTING_MAX_PLAN_FRACTION {
                let _ = writeln!(
                    violations,
                    "  {} {}: planning {:.3} ms is {:.1}% of the {:.2} ms evaluation \
                     (cap {:.0}%)",
                    r.scenario,
                    r.params,
                    r.plan_millis,
                    100.0 * r.plan_fraction(),
                    r.routed_millis,
                    100.0 * ROUTING_MAX_PLAN_FRACTION,
                );
            }
        }
    }
    if plan_checked == 0 {
        let _ = writeln!(
            violations,
            "  no workload reached {ROUTING_PLAN_GATE_MIN_MS} ms routed time; the \
             planning-overhead clause never armed"
        );
    }
    if violations.is_empty() {
        Ok(format!(
            "routing gate: {} workload(s) routed within {:.0}% of the fixed ladder, \
             estimates within {ROUTING_MAX_MISPREDICTION}x, planning under {:.0}% of \
             evaluation on {plan_checked} workload(s)",
            results.len(),
            (ROUTING_MAX_SLOWDOWN - 1.0) * 100.0,
            100.0 * ROUTING_MAX_PLAN_FRACTION,
        ))
    } else {
        Err(format!("routing gate FAILED:\n{violations}"))
    }
}

/// Splices the `routing` section into an already-serialized benchmark
/// document. Empty input leaves the document unchanged.
pub fn to_json_with_routing(mut s: String, routing: &[RoutingResult]) -> String {
    if routing.is_empty() {
        return s;
    }
    let tail = s.rfind("  ]\n}").expect("serializer emits a closing array");
    s.truncate(tail + 3);
    s.push_str(",\n  \"routing\": [\n");
    for (i, r) in routing.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"scenario\": \"{}\", \"params\": \"{}\", \"chosen\": \"{}\", \
             \"route\": \"{}\", \"predicted_work\": {}, \"predicted_rows\": {}, \
             \"actual_rows\": {}, \"misprediction\": {}, \"routed_millis\": {}, \
             \"ladder_millis\": {}, \"plan_millis\": {}}}",
            r.scenario,
            r.params,
            r.chosen,
            r.route,
            json_f(r.predicted_work),
            json_f(r.predicted_rows),
            r.actual_rows,
            json_f(r.misprediction),
            json_f(r.routed_millis),
            json_f(r.ladder_millis),
            json_f(r.plan_millis),
        );
        s.push_str(if i + 1 < routing.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_runs_and_serializes() {
        let results = run_fixpoint_bench(true);
        assert!(results.len() >= 3, "at least 3 workloads");
        for w in &results {
            assert!(w.rows_idb > 0, "{} derived nothing", w.name);
            assert!(w.rows_per_sec() > 0.0, "{} has rows_per_sec=0", w.name);
        }
        // The throughput gate needs a workload above its floor even at
        // quick sizes.
        assert!(results
            .iter()
            .any(|w| w.rows_idb >= THROUGHPUT_MIN_IDB_ROWS));
        let json = to_json(&results);
        assert!(json.contains("\"fanout\""));
        // Sanity: balanced braces/brackets.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let table = to_table(&results);
        assert!(table.contains("university"));
        // The fresh JSON must round-trip through the baseline reader.
        let parsed = crate::baseline::parse_baseline(&json).expect("fresh JSON parses");
        assert_eq!(parsed.len(), results.len());
        let diff = crate::baseline::diff_table(&results, &parsed);
        assert!(diff.contains("1.00x"), "self-diff is 1.00x:\n{diff}");
    }

    #[test]
    fn semantic_bench_runs_and_splices_into_json() {
        let semantic = run_semantic_bench(true);
        assert!(!semantic.is_empty());
        for r in &semantic {
            assert!(r.rows_idb > 0);
            assert!(
                r.optimized_rows < r.original_rows,
                "atom elimination must scan fewer rows: {r:?}"
            );
        }
        let w = WorkloadResult {
            name: "x".into(),
            params: "p".into(),
            rows_edb: 1,
            rows_idb: 1,
            rounds: 1,
            millis: 1.0,
        };
        let json = to_json_with_semantic(&[w], &semantic);
        assert!(json.contains("\"semantic\""));
        assert!(json.contains("\"optimized_millis\""));
        // Still valid JSON per our own reader, with the workloads intact.
        let doc = crate::baseline::parse_json(&json).expect("spliced JSON parses");
        assert!(doc.get("workloads").is_some());
        assert_eq!(
            doc.get("semantic").and_then(|s| s.as_arr()).map(<[_]>::len),
            Some(semantic.len())
        );
    }

    #[test]
    fn governance_bench_runs_and_splices_into_json() {
        let governance = run_governance_bench(true);
        assert!(!governance.is_empty());
        for r in &governance {
            assert!(r.rows_idb > 0);
            assert!(r.overhead_pct().is_finite());
        }
        let w = WorkloadResult {
            name: "x".into(),
            params: "p".into(),
            rows_edb: 1,
            rows_idb: 1,
            rounds: 1,
            millis: 1.0,
        };
        let sem = SemanticResult {
            scenario: "s".into(),
            params: "p".into(),
            original_millis: 2.0,
            optimized_millis: 1.0,
            original_rows: 2,
            optimized_rows: 1,
            rows_idb: 1,
        };
        // All three sections coexist and the document still parses.
        let json = to_json_full(std::slice::from_ref(&w), &[sem], &governance);
        assert!(json.contains("\"semantic\""));
        assert!(json.contains("\"governance_overhead\""));
        let doc = crate::baseline::parse_json(&json).expect("full JSON parses");
        assert_eq!(
            doc.get("governance_overhead")
                .and_then(|g| g.as_arr())
                .map(<[_]>::len),
            Some(governance.len())
        );
        // Governance without semantic also parses.
        let doc = crate::baseline::parse_json(&to_json_full(&[w], &[], &governance))
            .expect("governance-only JSON parses");
        assert!(doc.get("semantic").is_none());
        assert!(doc.get("governance_overhead").is_some());
    }

    #[test]
    fn routing_bench_runs_gates_and_splices_into_json() {
        use crate::baseline::Json;
        let routing = run_routing_bench(true);
        assert!(
            routing.len() >= 4,
            "two fanout sizes + org + university expected: {routing:?}"
        );
        let fanout_large = routing
            .iter()
            .find(|r| r.scenario == "fanout" && r.params.contains("nodes=300"))
            .expect("large fanout runs even in quick mode");
        // The paper's rewrite is the cheap one on fanout; the planner
        // must find it.
        assert_eq!(fanout_large.chosen, "residue_pushed", "{routing:?}");
        match check_routing(&routing) {
            Ok(summary) => assert!(summary.contains("routing gate"), "{summary}"),
            Err(report) => panic!("{report}\n{}", routing_table(&routing)),
        }
        let table = routing_table(&routing);
        assert!(table.contains("residue_pushed"), "{table}");
        let w = WorkloadResult {
            name: "x".into(),
            params: "p".into(),
            rows_edb: 1,
            rows_idb: 1,
            rounds: 1,
            millis: 1.0,
        };
        let json = to_json_with_routing(to_json(std::slice::from_ref(&w)), &routing);
        assert!(json.contains("\"routing\""));
        let doc = crate::baseline::parse_json(&json).expect("routing JSON parses");
        assert_eq!(
            doc.get("routing").and_then(|r| r.as_arr()).map(<[_]>::len),
            Some(routing.len())
        );
        let first = &doc.get("routing").unwrap().as_arr().unwrap()[0];
        assert!(first.get("chosen").and_then(Json::as_str).is_some());
        assert!(first.get("misprediction").and_then(Json::as_num).is_some());
    }

    #[test]
    fn routing_gate_flags_each_violation_class() {
        let ok = RoutingResult {
            scenario: "s".into(),
            params: "p".into(),
            chosen: "residue_pushed".into(),
            route: "Optimized".into(),
            predicted_work: 100.0,
            predicted_rows: 120.0,
            actual_rows: 100,
            misprediction: 1.2,
            routed_millis: 10.0,
            ladder_millis: 10.0,
            plan_millis: 0.1,
        };
        assert!(check_routing(std::slice::from_ref(&ok)).is_ok());
        // An empty run can't silently pass.
        assert!(check_routing(&[]).is_err());
        // Routed slower than the ladder cap.
        let slow = RoutingResult {
            routed_millis: 20.0,
            ..ok.clone()
        };
        assert!(check_routing(&[slow]).unwrap_err().contains("cap"));
        // A wild cardinality estimate.
        let wild = RoutingResult {
            misprediction: 50.0,
            ..ok.clone()
        };
        assert!(check_routing(&[wild])
            .unwrap_err()
            .contains("misprediction"));
        // Planning overhead above the fraction cap.
        let heavy = RoutingResult {
            plan_millis: 1.0,
            ..ok.clone()
        };
        assert!(check_routing(&[heavy]).unwrap_err().contains("planning"));
        // Only fast workloads: the plan clause never arms, which fails
        // rather than silently disarming the <2% promise.
        let fast = RoutingResult {
            routed_millis: 1.0,
            ladder_millis: 1.0,
            ..ok
        };
        assert!(check_routing(&[fast]).unwrap_err().contains("never armed"));
    }
}
