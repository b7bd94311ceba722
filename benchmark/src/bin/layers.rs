//! The traced run: the same inputs as `e2e`, driven in-process through
//! the product crates' public functions, with a span around every call
//! into a layer. Spans live in memory and are written out at exit. The
//! end-to-end numbers of the half-length `e2e` pass that ran just before
//! come in through `--e2e`, and what the process boundary and the socket
//! add on top of the in-process calls is reported as `cli.*`/`socket.*`.
//!
//! This is the only file of the benchmark that a product API change can
//! break; README.md lists the functions it calls.
//!
//! ```text
//! layers --workload NAME --seed N --seconds S --e2e SUMMARY --work DIR --trace-to PATH
//! ```

use semrec_benchmark::gen::{self, Workload};
use semrec_benchmark::report::{read_summary, Flags, Report, Samples};
use semrec_core::{detect, route_alternatives, DetectionMethod, MaintainedQuery, Optimizer, Plan};
use semrec_datalog::analysis::{rectify, validate};
use semrec_datalog::parser::{parse_atom, parse_unit, Unit};
use semrec_datalog::term::Value;
use semrec_engine::incr::parse_txs;
use semrec_engine::{
    evaluate, tx_to_stream, Budget, CostMemo, Database, EdbStats, Evaluator, Strategy, Tuple, Tx,
};
use semrec_serve::{Connection, Response, ServeConfig, Server, Wal};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Every per-layer metric of BENCHMARK.json, in its order. A workload
/// that does not cross a layer reports that layer's metrics as 0. Unit
/// `count` is for what a seed fixes exactly (`--selfcheck` insists);
/// `ops` counts what fitted into the time budget.
const PER_LAYER: &[(&str, &str)] = &[
    ("datalog.parse_s", "s"),
    ("datalog.parse_mb_per_s", "MB/s"),
    ("engine.load_s", "s"),
    ("core.optimize_s", "s"),
    ("core.optimize_us_per_ic", "us"),
    ("core.detect_s", "s"),
    ("core.ics", "count"),
    ("core.residues_detected", "count"),
    ("core.residues_applied", "count"),
    ("core.residues_skipped", "count"),
    ("core.rows_saved_ratio", "ratio"),
    ("engine.cost_plan_s", "s"),
    ("engine.cost_mispredict_ratio", "ratio"),
    ("engine.eval_s", "s"),
    ("engine.rows_inserted_per_s", "1/s"),
    ("engine.iters", "count"),
    ("engine.probes", "count"),
    ("engine.rows_derived", "count"),
    ("engine.rows_inserted", "count"),
    ("engine.dedup_useful_ratio", "ratio"),
    ("engine.kernel_share", "ratio"),
    ("engine.answer_s", "s"),
    ("engine.drop_s", "s"),
    ("cli.unattributed_s", "s"),
    ("cli.attributed_share", "ratio"),
    ("serve.open_s", "s"),
    ("serve.query_cold_us", "us"),
    ("serve.query_hot_us", "us"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.handle_line_cold_us", "us"),
    ("serve.render_us", "us"),
    ("serve.first_read_after_commit_us", "us"),
    ("maintain.apply_insert_ms", "ms"),
    ("maintain.apply_delete_ms", "ms"),
    ("maintain.over_deleted", "count"),
    ("maintain.rederived", "count"),
    ("maintain.idb_inserted", "count"),
    ("serve.commit_insert_ms", "ms"),
    ("serve.commit_delete_ms", "ms"),
    ("serve.publish_ms", "ms"),
    ("wal.append_sync_us", "us"),
    ("wal.bytes_per_commit", "B"),
    ("wal.replay_ms_per_commit", "ms"),
    ("serve.admitted", "ops"),
    ("serve.rejected", "count"),
    ("socket.overhead_read_us", "us"),
    ("socket.overhead_commit_ms", "ms"),
    ("socket.read_cold_p95_us", "us"),
    ("socket.commit_insert_p95_ms", "ms"),
    ("socket.read_under_write_p50_us", "us"),
    ("socket.recovery_s", "s"),
    ("trace.layers_share", "ratio"),
];

/// In-process repetitions of a whole CLI operation, and of `Server::open`.
const REPS: u32 = 8;
/// Reads of each class in the in-process `serve_read` loop: a fixed
/// count, so the cache counters repeat exactly.
const READS_PER_CLASS: u32 = 1000;

// ---- spans -------------------------------------------------------------

struct Span {
    name: &'static str,
    parent: Option<usize>,
    /// Which operation of the workload this span belongs to.
    op: u32,
    start_ns: u64,
    end_ns: u64,
}

struct Tracer {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: Vec<(&'static str, u32, f64)>,
}

impl Tracer {
    fn new(workload: &'static str) -> Tracer {
        Tracer {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn enter(&mut self, name: &'static str, op: u32) -> usize {
        let id = self.spans.len();
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            op,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
    }

    /// A span around one call into a layer.
    fn call<T>(&mut self, name: &'static str, op: u32, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    /// A count taken at the same boundary as the span of `op`.
    fn count(&mut self, name: &'static str, op: u32, value: f64) {
        self.counts.push((name, op, value));
    }

    /// Durations in seconds of the spans called `name`, from operation
    /// `from_op` on (earlier ones are warm-up).
    fn seconds(&self, name: &str, from_op: u32) -> Samples {
        let mut s = Samples::default();
        for span in self
            .spans
            .iter()
            .filter(|s| s.name == name && s.op >= from_op)
        {
            s.push((span.end_ns - span.start_ns) as f64 / 1e9);
        }
        s
    }

    fn p50(&self, name: &str) -> f64 {
        self.seconds(name, 0).p50()
    }

    /// For repetitions of one deterministic call, as `e2e` reports its
    /// cold processes: the rest is interference.
    fn fastest(&self, name: &str) -> f64 {
        self.seconds(name, 0).fastest()
    }

    fn total_seconds(&self, name: &str) -> f64 {
        let named = self.spans.iter().filter(|s| s.name == name);
        named.map(|s| s.end_ns - s.start_ns).sum::<u64>() as f64 / 1e9
    }

    /// Share of the in-process wall (the root span, less the benchmark's
    /// own generating and verifying) that spans named after a layer
    /// cover, by self time = span − children.
    fn layers_share(&self) -> f64 {
        let mut self_ns: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_ns[p] = self_ns[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        let (mut layers, mut own) = (0, 0);
        for (s, ns) in self.spans.iter().zip(&self_ns) {
            if s.name.starts_with("bench.") {
                own += ns;
            } else if s.parent.is_some() && !s.name.starts_with("op.") {
                layers += ns;
            }
        }
        let root = self.spans.first().map_or(0, |s| s.end_ns - s.start_ns);
        layers as f64 / root.saturating_sub(own).max(1) as f64
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut json = String::from("{\"spans\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let sep = if id == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                json,
                "{sep}{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"workload\": \"{}\", \
                 \"op\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, self.workload, s.op, s.start_ns, s.end_ns
            );
        }
        json.push_str("\n], \"counts\": [\n");
        for (i, (name, op, value)) in self.counts.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let _ = write!(
                json,
                "{sep}{{\"name\": \"{name}\", \"workload\": \"{}\", \"op\": {op}, \"value\": {value}}}",
                self.workload
            );
        }
        json.push_str("\n]}\n");
        std::fs::write(path, json)
    }
}

// ---- the run -----------------------------------------------------------

struct Run {
    seed: u64,
    seconds: u32,
    work: PathBuf,
    /// End-to-end numbers of the `e2e` pass, by name.
    e2e: BTreeMap<String, f64>,
    tracer: Tracer,
    report: Report,
    /// Per-layer values this workload produced, by metric name.
    values: BTreeMap<&'static str, f64>,
}

impl Run {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unlisted {name}");
        self.values.insert(name, value);
    }

    /// Books a count both in the trace and as a metric.
    fn count(&mut self, name: &'static str, op: u32, value: u64) {
        self.tracer.count(name, op, value as f64);
        self.set(name, value as f64);
    }

    fn e2e(&self, name: &str) -> Result<f64, String> {
        self.e2e
            .get(name)
            .copied()
            .ok_or_else(|| format!("the e2e summary has no `{name}`"))
    }

    /// Parse and load, which every workload starts with.
    fn parse_and_load(&mut self, text: &str, op: u32) -> Result<(Unit, Database), String> {
        let unit = self
            .tracer
            .call("datalog.parse", op, || parse_unit(text))
            .map_err(|e| e.to_string())?;
        let db = self
            .tracer
            .call("engine.load", op, || Database::from_facts(&unit.facts));
        Ok((unit, db))
    }

    /// The paper's compile-time step, with the plan's counts booked at
    /// the same boundary.
    fn optimize(&mut self, unit: &Unit, op: u32) -> Result<Plan, String> {
        let program = unit.program();
        let plan = self
            .tracer
            .call("core.optimize", op, || {
                Optimizer::new(&program)
                    .with_constraints(&unit.constraints)
                    .run()
            })
            .map_err(|e| e.to_string())?;
        self.count("core.ics", op, unit.constraints.len() as u64);
        self.count("core.residues_detected", op, plan.detections.len() as u64);
        self.count("core.residues_applied", op, plan.applied.len() as u64);
        self.count("core.residues_skipped", op, plan.skipped.len() as u64);
        Ok(plan)
    }

    /// Per-layer metrics that are end-to-end numbers of the `e2e` pass.
    fn set_from_e2e(&mut self, pairs: &[(&'static str, &str)]) -> Result<(), String> {
        for (metric, e2e_name) in pairs {
            self.set(metric, self.e2e(e2e_name)?);
        }
        Ok(())
    }

    fn set_parse_and_load(&mut self, text: &str) {
        let parse_s = self.tracer.fastest("datalog.parse");
        self.set("datalog.parse_s", parse_s);
        self.set("datalog.parse_mb_per_s", text.len() as f64 / 1e6 / parse_s);
        self.set("engine.load_s", self.tracer.fastest("engine.load"));
    }

    /// What the process adds to the in-process calls of one CLI
    /// operation: start, rendering, teardown. Fastest against fastest,
    /// as the clock read them: `op_a_ms` itself is yardstick-scaled.
    fn set_cli_attribution(&mut self, layers: &[&str]) -> Result<(), String> {
        let run_s = self.e2e("op_a_wall_ms")? / 1e3;
        let attributed: f64 = layers.iter().map(|l| self.tracer.fastest(l)).sum();
        self.set("cli.unattributed_s", run_s - attributed);
        self.set("cli.attributed_share", attributed / run_s);
        Ok(())
    }
}

fn fixpoint_cli(run: &mut Run) -> Result<(), String> {
    let input = run
        .tracer
        .call("bench.generate", 0, || gen::fixpoint(run.seed));
    let goal = parse_atom(gen::FIXPOINT_GOAL).map_err(|e| e.to_string())?;
    let budget = Budget::unlimited().with_max_idb_rows(1_000_000_000);
    let mut rows_scanned = 0;
    for op in 0..REPS {
        // What `semrec run --optimize --max-rows N --query G` does, call
        // by call.
        let whole = run.tracer.enter("op.run", op);
        let (unit, db) = run.parse_and_load(&input.text, op)?;
        let program = unit.program();
        let plan = run.optimize(&unit, op)?;
        let memo = run
            .tracer
            .call("engine.cost_plan", op, || {
                let (alternatives, _) = route_alternatives(&program, &plan, None);
                CostMemo::build(&db, &mut EdbStats::new(), alternatives)
            })
            .map_err(|e| e.to_string())?;
        let result = run
            .tracer
            .call("engine.eval", op, || {
                let mut ev = Evaluator::new(&db, &memo.best().program, Strategy::SemiNaive)?
                    .with_parallelism(1)
                    .with_budget(budget);
                ev.run()?;
                Ok(ev.finish())
            })
            .map_err(|e: semrec_engine::EngineError| e.to_string())?;
        let answers = run.tracer.call("engine.answer", op, || {
            let mut answers = result.answers(&goal);
            answers.sort();
            answers
        });
        let ys: Vec<u32> = run.tracer.call("bench.verify", op, || {
            answers.iter().filter_map(second_int).collect()
        });
        run.report.check(ys == input.reachable, || {
            format!(
                "in-process run {op}: {} answers, oracle {}",
                ys.len(),
                input.reachable.len()
            )
        });

        let stats = &result.stats;
        let actual_rows: u64 = result.idb.values().map(|r| r.len() as u64).sum();
        let eval_s = run.tracer.seconds("engine.eval", op).p50();
        run.count("engine.iters", op, stats.iterations);
        run.count("engine.probes", op, stats.probes);
        run.count("engine.rows_derived", op, stats.derived);
        run.count("engine.rows_inserted", op, stats.inserted);
        run.set("engine.rows_inserted_per_s", stats.inserted as f64 / eval_s);
        run.set(
            "engine.dedup_useful_ratio",
            stats.inserted as f64 / stats.derived as f64,
        );
        let firings = stats.kernel_firings + stats.interp_firings;
        run.set(
            "engine.kernel_share",
            stats.kernel_firings as f64 / firings as f64,
        );
        run.set(
            "engine.cost_mispredict_ratio",
            memo.choice().misprediction(actual_rows),
        );
        rows_scanned = stats.rows_scanned;
        run.tracer
            .call("engine.drop", op, || drop((result, db, unit, plan, memo)));
        run.tracer.exit(whole);
    }

    // The paper's claim as a work count: rows the program as written
    // scans per row the residue-pushed one does (one extra evaluation).
    let (unit, db) = run.parse_and_load(&input.text, REPS)?;
    let original = run
        .tracer
        .call("engine.eval_original", REPS, || {
            evaluate(&db, &unit.program(), Strategy::SemiNaive)
        })
        .map_err(|e| e.to_string())?;
    run.tracer.count(
        "engine.rows_scanned_original",
        REPS,
        original.stats.rows_scanned as f64,
    );
    run.set(
        "core.rows_saved_ratio",
        original.stats.rows_scanned as f64 / rows_scanned as f64,
    );

    run.set_parse_and_load(&input.text);
    run.set("core.optimize_s", run.tracer.fastest("core.optimize"));
    run.set(
        "core.optimize_us_per_ic",
        run.tracer.fastest("core.optimize") * 1e6,
    );
    run.set("engine.cost_plan_s", run.tracer.fastest("engine.cost_plan"));
    run.set("engine.eval_s", run.tracer.fastest("engine.eval"));
    run.set("engine.answer_s", run.tracer.fastest("engine.answer"));
    run.set("engine.drop_s", run.tracer.fastest("engine.drop"));
    run.set_cli_attribution(&[
        "datalog.parse",
        "engine.load",
        "core.optimize",
        "engine.cost_plan",
        "engine.eval",
        "engine.answer",
    ])
}

fn second_int(t: &Tuple) -> Option<u32> {
    match t.get(1)? {
        Value::Int(y) => u32::try_from(*y).ok(),
        Value::Str(_) => None,
    }
}

fn compile_cli(run: &mut Run) -> Result<(), String> {
    let text = run.tracer.call("bench.generate", 0, || {
        gen::compile(run.seed, gen::COMPILE_BLOCKS)
    });
    for op in 0..REPS {
        let whole = run.tracer.enter("op.optimize", op);
        let (unit, _) = run.parse_and_load(&text, op)?;
        let plan = run.optimize(&unit, op)?;
        run.tracer.exit(whole);
        run.report
            .check(plan.applied.len() == gen::COMPILE_BLOCKS as usize, || {
                format!(
                    "in-process optimize {op}: {} residues applied",
                    plan.applied.len()
                )
            });
    }

    // Detection alone, one span per recursive predicate: every
    // constraint is tried against every predicate.
    let whole = run.tracer.enter("op.detect", REPS);
    let (unit, _) = run.parse_and_load(&text, REPS)?;
    let (rectified, infos) = run
        .tracer
        .call("datalog.analysis", REPS, || {
            let (rectified, _) = rectify(&unit.program());
            validate(&rectified, &unit.constraints).map(|infos| (rectified, infos))
        })
        .map_err(|e| e.to_string())?;
    for (i, info) in infos.iter().enumerate() {
        run.tracer
            .call("core.detect", REPS + i as u32, || {
                unit.constraints.iter().try_for_each(|ic| {
                    detect(&rectified, info, ic, DetectionMethod::SdGraph, 3).map(drop)
                })
            })
            .map_err(|e| e.to_string())?;
    }
    run.tracer.exit(whole);

    let optimize_s = run.tracer.fastest("core.optimize");
    run.set_parse_and_load(&text);
    run.set("core.optimize_s", optimize_s);
    run.set(
        "core.optimize_us_per_ic",
        optimize_s * 1e6 / unit.constraints.len() as f64,
    );
    run.set("core.detect_s", run.tracer.total_seconds("core.detect"));
    run.set_cli_attribution(&["datalog.parse", "engine.load", "core.optimize"])
}

fn open_server(
    run: &mut Run,
    unit: &Unit,
    wal: Option<&Path>,
    name: &'static str,
    op: u32,
) -> Result<(std::sync::Arc<Server>, usize), String> {
    let (server, recovery) = run
        .tracer
        .call(name, op, || Server::open(unit, ServeConfig::default(), wal))
        .map_err(|e| e.to_string())?;
    Ok((server, recovery.replayed_commits))
}

fn serve_read(run: &mut Run) -> Result<(), String> {
    let text = run
        .tracer
        .call("bench.generate", 0, || gen::chain(gen::READ_CHAIN));
    let (unit, db) = run.parse_and_load(&text, 0)?;
    drop(db);
    let mut server = None;
    for op in 0..REPS {
        drop(server.take());
        server = Some(open_server(run, &unit, None, "serve.open", op)?.0);
    }
    let server = server.expect("REPS > 0");
    let mut conn = Connection::new(server.clone());
    let (mut cold_walk, hot_goals) = gen::read_goals(run.seed);

    let query = |run: &mut Run, name: &'static str, op: u32, goal: &gen::Goal| {
        let atom = parse_atom(&goal.atom).expect("generated goals parse");
        let reply = run
            .tracer
            .call(name, op, || server.query(&atom, None, None));
        let rows = reply.as_ref().map(|r| r.tuples.len() as u32);
        run.report
            .check(rows.as_ref().ok() == Some(&goal.rows), || {
                format!(
                    "in-process {}: want {} rows, got {rows:?}",
                    goal.atom, goal.rows
                )
            });
    };
    for goal in &hot_goals {
        query(run, "serve.query_warmup", 0, goal);
    }
    for op in 0..READS_PER_CLASS {
        // Cold goals alternate between the two entry points, so that
        // neither sees a goal the other has put in the cache.
        let goal = gen::chain_goal(gen::READ_CHAIN, cold_walk.next().expect("walks never end"));
        if op % 2 == 0 {
            query(run, "serve.query_cold", op, &goal);
        } else {
            let line = format!("query {}.", goal.atom);
            let reply = run
                .tracer
                .call("serve.handle_line_cold", op, || conn.handle_line(&line));
            let ok = matches!(&reply, Response::Lines(l) if l.len() as u32 == goal.rows + 2);
            run.report
                .check(ok, || format!("in-process line `{line}`: wrong reply size"));
        }
        query(
            run,
            "serve.query_hot",
            op,
            &hot_goals[op as usize % hot_goals.len()],
        );
    }
    let stats = server.stats();

    let query_cold_us = run.tracer.p50("serve.query_cold") * 1e6;
    let handle_line_us = run.tracer.p50("serve.handle_line_cold") * 1e6;
    run.set_parse_and_load(&text);
    run.set("serve.open_s", run.tracer.p50("serve.open"));
    run.set("serve.query_cold_us", query_cold_us);
    run.set(
        "serve.query_hot_us",
        run.tracer.p50("serve.query_hot") * 1e6,
    );
    run.set("serve.handle_line_cold_us", handle_line_us);
    run.set("serve.render_us", handle_line_us - query_cold_us);
    let lookups = stats.cache_hits + stats.cache_misses;
    run.tracer
        .count("serve.cache_hits", 0, stats.cache_hits as f64);
    run.tracer
        .count("serve.cache_misses", 0, stats.cache_misses as f64);
    run.set(
        "serve.cache_hit_rate",
        stats.cache_hits as f64 / lookups as f64,
    );
    run.set(
        "socket.overhead_read_us",
        run.e2e("read_cold_p50_us")? - handle_line_us,
    );
    run.set_from_e2e(&[
        ("serve.admitted", "admitted"),
        ("serve.rejected", "rejected"),
        ("socket.read_cold_p95_us", "read_cold_p95_us"),
    ])
}

fn serve_mixed(run: &mut Run) -> Result<(), String> {
    let text = run
        .tracer
        .call("bench.generate", 0, || gen::chain(gen::MIXED_CHAIN));
    let cycles = gen::mixed_cycles(run.seed, gen::mixed_cycle_count(run.seconds));
    // The write script as transactions, from the very lines `e2e` sends.
    let mut txs: Vec<(Tx, bool)> = Vec::new();
    for cycle in &cycles {
        let inserts = cycle.iter().map(|s| (gen::insert_request(s), true));
        for (request, is_insert) in inserts.chain([(gen::delete_request(cycle), false)]) {
            txs.extend(parse_txs(&request)?.into_iter().map(|tx| (tx, is_insert)));
        }
    }
    let first_timed = (gen::MIXED_WARMUP_CYCLES * (gen::MIXED_SPURS_PER_CYCLE + 1)) as u32;
    let class = |is_insert: bool, names: [&'static str; 2]| names[usize::from(!is_insert)];
    let (unit, db) = run.parse_and_load(&text, 0)?;

    // Maintenance alone: the delta propagation, DRed and IC re-check a
    // commit pays, without log or publication.
    let mut maintained = run
        .tracer
        .call("bench.setup", 0, || {
            let ics = &unit.constraints;
            MaintainedQuery::new(db, &unit.program(), ics, Default::default(), 1)
        })
        .map_err(|e| e.to_string())?;
    let (mut over_deleted, mut rederived, mut idb_inserted) = (0, 0, 0);
    for (op, (tx, is_insert)) in txs.iter().enumerate() {
        let name = class(
            *is_insert,
            ["maintain.apply_insert", "maintain.apply_delete"],
        );
        let outcome = run
            .tracer
            .call(name, op as u32, || {
                maintained.apply(tx, Budget::unlimited(), None)
            })
            .map_err(|e| e.to_string())?;
        over_deleted += outcome.stats.over_deleted;
        rederived += outcome.stats.rederived;
        idb_inserted += outcome.stats.idb_inserted;
    }
    drop(maintained);
    run.count("maintain.over_deleted", 0, over_deleted);
    run.count("maintain.rederived", 0, rederived);
    run.count("maintain.idb_inserted", 0, idb_inserted);

    // The whole commit path with the log on a file, and the first bound
    // read after each commit (which meets the new epoch's cold indexes).
    let wal = run.work.join("layers.wal");
    let _ = std::fs::remove_file(&wal);
    let (server, _) = open_server(run, &unit, Some(&wal), "serve.open", 0)?;
    let mut walk = gen::Walk::new(&mut gen::Rng::new(run.seed ^ 0x5eed), gen::MIXED_CHAIN);
    for (op, (tx, is_insert)) in txs.iter().enumerate() {
        let name = class(*is_insert, ["serve.commit_insert", "serve.commit_delete"]);
        let reply = run.tracer.call(name, op as u32, || server.commit(tx));
        let epoch = reply.as_ref().map(|r| r.epoch).map_err(|e| e.to_string());
        run.report.check(epoch == Ok(op as u64 + 1), || {
            format!("in-process commit {op}: {epoch:?}")
        });
        let i = walk.next().expect("walks never end");
        let atom = parse_atom(&format!("reach({i}, Y)")).expect("generated goals parse");
        let read = run
            .tracer
            .call("serve.first_read_after_commit", op as u32, || {
                server.query(&atom, None, None)
            });
        let rows = read.map(|r| r.tuples.len() as u32).ok();
        run.report.check(
            rows.is_some() && rows == gen::mixed_rows_at(&cycles, op as u64 + 1, i),
            || format!("in-process reach({i}, Y) after commit {op}: {rows:?} rows"),
        );
    }
    drop(server);
    let wal_bytes = std::fs::metadata(&wal).map_err(|e| e.to_string())?.len();
    run.tracer.count("wal.bytes", 0, wal_bytes as f64);

    // The log alone: append + fsync of the same records.
    let bare = run.work.join("layers_bare.wal");
    let _ = std::fs::remove_file(&bare);
    let (mut log, _) = Wal::open(&bare).map_err(|e| e.to_string())?;
    for (op, (tx, _)) in txs.iter().enumerate() {
        let payload = tx_to_stream(tx);
        run.tracer
            .call("wal.append_sync", op as u32, || log.append_commit(&payload))
            .map_err(|e| e.to_string())?;
    }
    drop(log);

    // Recovery: open again on the log the commits wrote.
    let (server, replayed) = open_server(run, &unit, Some(&wal), "serve.open_replay", 1)?;
    run.report.check(replayed == txs.len(), || {
        format!("in-process replay: {replayed} of {} commits", txs.len())
    });
    drop(server);

    let ms = |run: &Run, name: &str| run.tracer.seconds(name, first_timed).p50() * 1e3;
    let (apply_insert, commit_insert) = (
        ms(run, "maintain.apply_insert"),
        ms(run, "serve.commit_insert"),
    );
    let append_sync_us = ms(run, "wal.append_sync") * 1e3;
    let open_s = run.tracer.p50("serve.open");
    run.set_parse_and_load(&text);
    run.set("serve.open_s", open_s);
    run.set("maintain.apply_insert_ms", apply_insert);
    run.set("maintain.apply_delete_ms", ms(run, "maintain.apply_delete"));
    run.set("serve.commit_insert_ms", commit_insert);
    run.set("serve.commit_delete_ms", ms(run, "serve.commit_delete"));
    run.set(
        "serve.publish_ms",
        commit_insert - apply_insert - append_sync_us / 1e3,
    );
    run.set(
        "serve.first_read_after_commit_us",
        ms(run, "serve.first_read_after_commit") * 1e3,
    );
    run.set("wal.append_sync_us", append_sync_us);
    run.set("wal.bytes_per_commit", wal_bytes as f64 / txs.len() as f64);
    let replay_s = run.tracer.p50("serve.open_replay") - open_s;
    run.set(
        "wal.replay_ms_per_commit",
        replay_s * 1e3 / txs.len() as f64,
    );
    run.set(
        "socket.overhead_commit_ms",
        run.e2e("commit_insert_p50_ms")? - commit_insert,
    );
    run.set_from_e2e(&[
        ("serve.admitted", "admitted"),
        ("serve.rejected", "rejected"),
        ("socket.commit_insert_p95_ms", "commit_insert_p95_ms"),
        ("socket.read_under_write_p50_us", "read_under_write_p50_us"),
        ("socket.recovery_s", "recovery_s"),
    ])
}

fn run() -> Result<(), String> {
    let flags = Flags::from_env();
    let workload = Workload::parse(flags.get("--workload")?)?;
    let name = workload.name();
    let e2e_path = flags.get("--e2e")?;
    let mut run = Run {
        seed: flags.num("--seed")?,
        seconds: flags.num("--seconds")?,
        work: PathBuf::from(flags.get("--work")?),
        e2e: read_summary(Path::new(e2e_path)).map_err(|e| format!("{e2e_path}: {e}"))?,
        tracer: Tracer::new(workload.name()),
        report: Report::new(workload.name()),
        values: BTreeMap::new(),
    };
    // The ledger carries on from the end-to-end pass: a failure there
    // fails this run too.
    run.report.attempted = run.e2e("attempted")? as u64;
    run.report.failed = run.e2e("failed")? as u64;

    let root = run.tracer.enter("workload", 0);
    match workload {
        Workload::FixpointCli => fixpoint_cli(&mut run)?,
        Workload::CompileCli => compile_cli(&mut run)?,
        Workload::ServeRead => serve_read(&mut run)?,
        Workload::ServeMixed => serve_mixed(&mut run)?,
    }
    run.tracer.exit(root);

    let share = run.tracer.layers_share();
    run.set("trace.layers_share", share);
    if share < 0.9 {
        eprintln!(
            "[{name}] WARNING: named layers cover {:.1}% of the in-process wall, below 90%",
            share * 100.0
        );
    }
    let trace_to = flags.get("--trace-to")?;
    run.tracer
        .write(Path::new(trace_to))
        .map_err(|e| format!("{trace_to}: {e}"))?;
    println!(
        "[{name}] {} spans, {} counts → {trace_to}",
        run.tracer.spans.len(),
        run.tracer.counts.len()
    );

    for (metric, unit) in PER_LAYER {
        match run.values.get(metric) {
            Some(v) => run.report.metric(metric, unit, *v, String::new()),
            None => run.report.absent(metric, unit),
        }
    }
    run.report.print();
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("layers: {e}");
            ExitCode::FAILURE
        }
    }
}
