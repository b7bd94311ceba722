//! `semrec` — command-line driver for the semantic optimizer.
//!
//! ```text
//! semrec optimize <file> [--small PRED]...        show the optimization plan
//! semrec run <file> [--optimize] [--query 'p(a, X)'] [--magic]
//!            [--data DIR] [--save DIR] [--engine seminaive|topdown|sld]
//!            [--deadline-ms N] [--max-rows N] [--max-bytes N] [--max-iters N]
//! semrec explain <file> [--run] [--query ATOM] [--data DIR]
//!                        residues per IC + per-alternative route costs
//! semrec describe <file> 'describe p(X) where q(X, c).'
//! semrec why <file> 'anc(dan, 20, bob, 77)'       show one derivation of a fact
//! semrec check <file>                             validate assumptions + IC satisfaction
//! semrec update <file> <txfile> [--optimize] [--query 'p(a, X)']
//!            [--deadline-ms N] [--max-rows N] [--max-bytes N] [--max-iters N]
//!                                                 apply transactions incrementally
//! semrec plan <file> [--optimize]                 show compiled physical plans (EXPLAIN)
//! semrec gen <scenario> <dir>                     write a generated workload bundle
//! semrec serve <file> [--wal PATH] [--script PATH | --listen ADDR]
//!            [--max-inflight N] [--retain-epochs N] [--watchdog-ms N]
//!            [--request-deadline-ms N] [--deadline-ms N] [--max-rows N]
//!            [--max-bytes N] [--max-iters N] [--cache-capacity N]
//!                                                 run the serving daemon
//! ```
//!
//! A `--flag` the subcommand does not know is a usage error (exit 2),
//! never silently ignored. `--cache-capacity 0` serves without the
//! answer cache.
//!
//! `<file>` holds rules, ground facts, and `ic:` constraints in the
//! Prolog-like syntax of `semrec_datalog::parser`.
//!
//! ## Exit codes
//!
//! Resource-governance failures get distinct non-zero exit codes so
//! scripts can tell a timeout from a wrong invocation:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | success |
//! | 1    | any other error (parse, analysis, I/O, …) |
//! | 2    | usage error (bad command line) |
//! | 3    | wall-clock deadline exceeded |
//! | 4    | row/byte budget exceeded |
//! | 5    | evaluation cancelled |
//! | 6    | the evaluator panicked (partial round discarded) |
//! | 7    | serve: admission control shed the request (overloaded) |
//! | 8    | serve: the write-ahead log is corrupt (torn tails recover; this does not) |
//! | 9    | serve: the pinned epoch was reclaimed |
//!
//! In `serve` script/stdin mode, per-request errors are reported on the
//! wire (`err kind=…`) and the session continues; the process exit code
//! reflects the most severe serving error seen across the whole session
//! (wal-corrupt > epoch-reclaimed > overloaded), or 0.

use semrec::core::optimizer::{evaluate_governed, Optimizer, OptimizerConfig};
use semrec::datalog::analysis::{check_arities, classify_linear, validate};
use semrec::datalog::parser::{parse_atom, parse_unit, Unit};
use semrec::datalog::Pred;
use semrec::engine::magic::evaluate_query;
use semrec::engine::{evaluate, Budget, CancelToken, Database, EngineError, Route, Strategy};
use semrec::serve::{serve_session, Connection, ServeConfig, ServeError, Server};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// A CLI failure, carrying enough type to pick the exit code.
enum CliError {
    /// Bad command line (exit 2).
    Usage(String),
    /// A typed engine failure (exit 3–6 for governance errors, else 1).
    Engine(EngineError),
    /// A typed serving failure (exit 7–9 for the serving-specific
    /// conditions, the engine mapping for wrapped engine errors, else 1).
    Serve(ServeError),
    /// Anything else (exit 1).
    Other(String),
}

/// Exit code for a typed engine failure (shared by `run`/`update` and
/// engine errors surfacing through `serve`).
fn engine_exit_code(e: &EngineError) -> u8 {
    match e {
        EngineError::DeadlineExceeded { .. } => 3,
        EngineError::BudgetExceeded { .. } => 4,
        EngineError::Cancelled => 5,
        EngineError::WorkerPanicked { .. } => 6,
        _ => 1,
    }
}

/// Exit code for a serving error kind tag (see `ServeError::kind`).
fn serve_kind_exit_code(kind: &str) -> u8 {
    match kind {
        "overloaded" => 7,
        "wal-corrupt" => 8,
        "epoch-reclaimed" => 9,
        _ => 1,
    }
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Engine(e) => engine_exit_code(e),
            CliError::Serve(ServeError::Engine(e)) => engine_exit_code(e),
            CliError::Serve(e) => serve_kind_exit_code(e.kind()),
            CliError::Other(_) => 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Other(m) => write!(f, "{m}"),
            CliError::Engine(e) => write!(f, "{e}"),
            CliError::Serve(e) => write!(f, "{e}"),
        }
    }
}

impl From<String> for CliError {
    fn from(s: String) -> Self {
        CliError::Other(s)
    }
}

impl From<&str> for CliError {
    fn from(s: &str) -> Self {
        CliError::Other(s.to_owned())
    }
}

impl From<EngineError> for CliError {
    fn from(e: EngineError) -> Self {
        CliError::Engine(e)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn dispatch(args: &[String]) -> Result<(), CliError> {
    let Some(cmd) = args.first() else {
        return Err(CliError::Usage(usage()));
    };
    check_flags(cmd, &args[1..])?;
    match cmd.as_str() {
        "optimize" => cmd_optimize(&args[1..]),
        "run" => cmd_run(&args[1..]),
        "explain" => cmd_explain(&args[1..]),
        "describe" => cmd_describe(&args[1..]),
        "why" => cmd_why(&args[1..]),
        "plan" => cmd_plan(&args[1..]),
        "gen" => cmd_gen(&args[1..]),
        "check" => cmd_check(&args[1..]),
        "update" => cmd_update(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`\n{}",
            usage()
        ))),
    }
}

fn usage() -> String {
    "usage:\n  semrec optimize <file> [--small PRED]...\n  \
     semrec run <file> [--optimize] [--query ATOM] [--magic]\n  \
             [--data DIR] [--save DIR] [--small PRED]...\n  \
             [--engine seminaive|topdown|sld]\n  \
             [--deadline-ms N] [--max-rows N] [--max-bytes N] [--max-iters N]\n  \
     semrec explain <file> [--run] [--query ATOM] [--data DIR] [--small PRED]...\n  \
     semrec describe <file> QUERY\n  \
     semrec why <file> GROUND_ATOM\n  \
     semrec plan <file> [--optimize]\n  \
     semrec gen <org|university|genealogy|fanout|flights> <dir>\n  \
     semrec check <file>\n  \
     semrec update <file> <txfile> [--optimize] [--query ATOM] [--data DIR]\n  \
             [--deadline-ms N] [--max-rows N] [--max-bytes N] [--max-iters N]\n  \
     semrec serve <file> [--wal PATH] [--script PATH | --listen ADDR]\n  \
             [--max-inflight N] [--retain-epochs N] [--watchdog-ms N]\n  \
             [--request-deadline-ms N] [--deadline-ms N] [--max-rows N]\n  \
             [--max-bytes N] [--max-iters N] [--cache-capacity N]"
        .to_owned()
}

/// The budget flags `run`, `update` and `serve` share (see
/// [`parse_budget`]); each takes a value.
const BUDGET_FLAGS: [&str; 4] = ["--deadline-ms", "--max-rows", "--max-bytes", "--max-iters"];

/// The flags `cmd` accepts: those that stand alone, those that consume
/// the next argument, and whether [`BUDGET_FLAGS`] are accepted too.
fn known_flags(cmd: &str) -> (&'static [&'static str], &'static [&'static str], bool) {
    match cmd {
        "optimize" => (&[], &["--small"], false),
        "run" => (
            &["--optimize", "--magic"],
            &["--query", "--data", "--save", "--small", "--engine"],
            true,
        ),
        "explain" => (&["--run"], &["--query", "--data", "--small"], false),
        "plan" => (&["--optimize"], &["--small"], false),
        "update" => (&["--optimize"], &["--query", "--data", "--small"], true),
        "serve" => (
            &[],
            &[
                "--wal",
                "--script",
                "--listen",
                "--small",
                "--max-inflight",
                "--retain-epochs",
                "--watchdog-ms",
                "--request-deadline-ms",
                "--cache-capacity",
            ],
            true,
        ),
        _ => (&[], &[], false),
    }
}

/// Rejects (usage, exit 2) any `--flag` the subcommand does not know,
/// so a typo or a retired flag fails loudly instead of being ignored.
/// The argument after a value-taking flag is skipped unexamined.
fn check_flags(cmd: &str, args: &[String]) -> Result<(), CliError> {
    let (switches, valued, budget) = known_flags(cmd);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let a = a.as_str();
        if !a.starts_with("--") {
            continue;
        }
        if valued.contains(&a) || (budget && BUDGET_FLAGS.contains(&a)) {
            it.next();
        } else if !switches.contains(&a) {
            return Err(CliError::Usage(format!(
                "unknown flag `{a}` for `semrec {cmd}`\n{}",
                usage()
            )));
        }
    }
    Ok(())
}

fn need_path(args: &[String]) -> Result<&String, CliError> {
    args.first().ok_or_else(|| CliError::Usage(usage()))
}

/// Reads and parses `path`. Every predicate must have one arity across
/// the file's rules, constraints and facts: loading a fact of another
/// arity would panic in the relation store, and a constraint atom of
/// another arity could never match a row.
fn load(path: &str) -> Result<Unit, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let unit = parse_unit(&src).map_err(|e| format!("{path}: {e}"))?;
    check_arities(&unit.program(), &unit.constraints, &unit.facts)
        .map_err(|e| format!("{path}: {e}"))?;
    Ok(unit)
}

fn small_preds(args: &[String]) -> Vec<Pred> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--small" {
            if let Some(p) = it.next() {
                out.push(Pred::new(p));
            }
        }
    }
    out
}

fn optimizer_config(args: &[String]) -> OptimizerConfig {
    let mut config = OptimizerConfig::default();
    for p in small_preds(args) {
        config.policy.small_relations.insert(p);
    }
    config
}

fn build_plan(unit: &Unit, args: &[String]) -> Result<semrec::core::Plan, String> {
    Optimizer::new(&unit.program())
        .with_constraints(&unit.constraints)
        .with_config(optimizer_config(args))
        .run()
        .map_err(|e| e.to_string())
}

fn cmd_optimize(args: &[String]) -> Result<(), CliError> {
    let path = need_path(args)?;
    let unit = load(path)?;
    let plan = build_plan(&unit, args)?;
    print!("{plan}");
    Ok(())
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
}

/// Parses an optional `--flag N` u64 value, erroring (usage, exit 2) on
/// a malformed number instead of silently ignoring the limit.
fn flag_u64(args: &[String], flag: &str) -> Result<Option<u64>, CliError> {
    flag_value(args, flag)
        .map(|v| {
            v.parse()
                .map_err(|_| CliError::Usage(format!("bad {flag} value `{v}`")))
        })
        .transpose()
}

/// Assembles the evaluation [`Budget`] from the `run` budget flags.
fn parse_budget(args: &[String]) -> Result<Budget, CliError> {
    let mut b = Budget::unlimited();
    if let Some(ms) = flag_u64(args, "--deadline-ms")? {
        b = b.with_deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(n) = flag_u64(args, "--max-rows")? {
        b = b.with_max_idb_rows(n);
    }
    if let Some(n) = flag_u64(args, "--max-bytes")? {
        b = b.with_max_resident_bytes(n);
    }
    if let Some(n) = flag_u64(args, "--max-iters")? {
        b = b.with_max_iterations(n);
    }
    Ok(b)
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let path = need_path(args)?;
    let unit = load(path)?;
    let mut db = Database::from_facts(&unit.facts);
    if let Some(dir) = flag_value(args, "--data") {
        let n = semrec::engine::io::load_dir(&mut db, std::path::Path::new(dir))
            .map_err(CliError::Engine)?;
        eprintln!("loaded {n} facts from {dir}");
    }
    let db = db;
    let budget = parse_budget(args)?;
    let optimize = args.iter().any(|a| a == "--optimize");

    let query = args
        .iter()
        .position(|a| a == "--query")
        .and_then(|i| args.get(i + 1))
        .map(|q| parse_atom(q).map_err(|e| e.to_string()))
        .transpose()?;

    // The governed optimizing path: under a budget, `--optimize` runs
    // the degradation policy — the optimized program gets a slice of
    // the budget and the rectified program answers if that route fails.
    if optimize && budget.is_limited() {
        let outcome = evaluate_governed(
            &db,
            &unit.program(),
            &unit.constraints,
            optimizer_config(args),
            budget,
            CancelToken::new(),
        )
        .map_err(CliError::Engine)?;
        if let Some(why) = &outcome.degraded {
            eprintln!("degraded: {why}");
        }
        eprintln!("route: {}", route_name(outcome.result.route));
        emit_result(&outcome.result, query.as_ref(), args)?;
        return Ok(());
    }

    let program = if optimize {
        let plan = build_plan(&unit, args)?;
        for a in &plan.applied {
            eprintln!("applied {}: {}", a.kind, a.note);
        }
        plan.program
    } else {
        unit.program()
    };

    if args.iter().any(|a| a == "--magic") {
        let goal = query.ok_or("--magic requires --query")?;
        let (answers, res) = evaluate_query(&db, &program, &goal).map_err(CliError::Engine)?;
        for t in &answers {
            println!("{}", render(goal.pred, t));
        }
        eprintln!("-- {} answers; {}", answers.len(), res.stats);
        return Ok(());
    }

    match flag_value(args, "--engine").map(String::as_str) {
        Some("topdown") => {
            let goal = query.ok_or("--engine topdown requires --query")?;
            let (answers, stats) = semrec::engine::topdown::query_topdown(&db, &program, &goal)
                .map_err(CliError::Engine)?;
            for t in &answers {
                println!("{}", render(goal.pred, t));
            }
            eprintln!("-- {} answers; {}", answers.len(), stats);
            return Ok(());
        }
        Some("sld") => {
            let goal = query.ok_or("--engine sld requires --query")?;
            let (answers, stats, compl) = semrec::engine::sld::query_sld(
                &db,
                &program,
                &goal,
                semrec::engine::sld::SldConfig::default(),
            )
            .map_err(CliError::Engine)?;
            for t in &answers {
                println!("{}", render(goal.pred, t));
            }
            eprintln!("-- {} answers; {}; {:?}", answers.len(), stats, compl);
            return Ok(());
        }
        Some("seminaive") | None => {}
        Some(other) => {
            return Err(CliError::Usage(format!(
                "unknown engine `{other}` (seminaive, topdown, sld)"
            )));
        }
    }
    let mut ev = semrec::engine::Evaluator::new(&db, &program, Strategy::SemiNaive)
        .map_err(CliError::Engine)?
        .with_budget(budget);
    ev.run().map_err(CliError::Engine)?;
    let res = ev.finish();
    emit_result(&res, query.as_ref(), args)?;
    Ok(())
}

/// Human-readable name for an evaluation route.
fn route_name(r: Route) -> &'static str {
    match r {
        Route::Direct => "direct (no optimization applied)",
        Route::Optimized => "optimized program",
        Route::RectifiedFallback => "rectified fallback",
        Route::IncrementalOptimized => "incremental (optimized program maintained)",
        Route::IncrementalInvalidated => "incremental (IC violated: rectified program)",
    }
}

/// `semrec update <file> <txfile>`: materializes the file's program,
/// then applies each transaction from the tx file incrementally. With
/// `--optimize`, the optimized program is maintained under IC
/// monitoring — a transaction that violates a constraint the optimizer
/// relied on invalidates the optimized route and re-answers from the
/// rectified program. Transactions are atomic; the first failing one
/// stops the stream with the corresponding governance exit code.
fn cmd_update(args: &[String]) -> Result<(), CliError> {
    let [path, txpath, ..] = args else {
        return Err(CliError::Usage(usage()));
    };
    let unit = load(path)?;
    let txsrc = std::fs::read_to_string(txpath).map_err(|e| format!("reading {txpath}: {e}"))?;
    let txs = semrec::engine::incr::parse_txs(&txsrc).map_err(|e| format!("{txpath}: {e}"))?;
    let mut db = Database::from_facts(&unit.facts);
    if let Some(dir) = flag_value(args, "--data") {
        let n = semrec::engine::io::load_dir(&mut db, std::path::Path::new(dir))
            .map_err(CliError::Engine)?;
        eprintln!("loaded {n} facts from {dir}");
    }
    let budget = parse_budget(args)?;
    let query = flag_value(args, "--query")
        .map(|q| parse_atom(q).map_err(|e| e.to_string()))
        .transpose()?;

    let report = |i: usize, route: Route, stats: &semrec::engine::UpdateStats| {
        eprintln!(
            "tx {}: route: {}; {} over-deleted, {} re-derived, {} inserted, {} round(s), {} ms{}",
            i + 1,
            route_name(route),
            stats.over_deleted,
            stats.rederived,
            stats.idb_inserted,
            stats.rounds,
            stats.elapsed_ms,
            if stats.from_scratch {
                " (from scratch)"
            } else {
                ""
            },
        );
    };

    if args.iter().any(|a| a == "--optimize") {
        let mut q = semrec::core::maintain::MaintainedQuery::new(
            db,
            &unit.program(),
            &unit.constraints,
            optimizer_config(args),
            1,
        )
        .map_err(|e| match e {
            semrec::core::maintain::MaintainError::Engine(e) => CliError::Engine(e),
            semrec::core::maintain::MaintainError::Optimizer(e) => CliError::Other(e.to_string()),
        })?;
        eprintln!("route: {}", route_name(q.route()));
        for (i, tx) in txs.iter().enumerate() {
            let out = q.apply(tx, budget, None).map_err(CliError::Engine)?;
            report(i, out.route, &out.stats);
        }
        emit_idb(q.idb(), query.as_ref());
        return Ok(());
    }

    let mut m =
        semrec::engine::Materialized::new(&db, &unit.program()).map_err(CliError::Engine)?;
    if !m.is_incremental() {
        eprintln!("program uses negation or builtins: every tx re-evaluates from scratch");
    }
    for (i, tx) in txs.iter().enumerate() {
        let stats = m
            .apply(&mut db, tx, budget, None)
            .map_err(CliError::Engine)?;
        report(
            i,
            if stats.from_scratch {
                Route::Direct
            } else {
                Route::IncrementalOptimized
            },
            &stats,
        );
    }
    emit_idb(m.idb(), query.as_ref());
    Ok(())
}

/// Prints a maintained IDB: the goal's answers if a query was given,
/// every relation otherwise.
fn emit_idb(
    idb: &std::collections::BTreeMap<Pred, semrec::engine::Relation>,
    query: Option<&semrec::datalog::Atom>,
) {
    match query {
        Some(goal) => {
            let Some(rel) = idb.get(&goal.pred) else {
                eprintln!("-- 0 answers");
                return;
            };
            let mut answers = semrec::engine::eval::answer_goal(&rel.snapshot(), goal);
            answers.sort();
            for t in &answers {
                println!("{}", render(goal.pred, t));
            }
            eprintln!("-- {} answers", answers.len());
        }
        None => {
            for (p, rel) in idb {
                for t in rel.sorted_tuples() {
                    println!("{}", render(*p, &t));
                }
            }
        }
    }
}

/// Prints answers (or the whole IDB) and handles `--save`.
fn emit_result(
    res: &semrec::engine::EvalResult,
    query: Option<&semrec::datalog::Atom>,
    args: &[String],
) -> Result<(), CliError> {
    match query {
        Some(goal) => {
            let mut answers = res.answers(goal);
            answers.sort();
            for t in &answers {
                println!("{}", render(goal.pred, t));
            }
            eprintln!("-- {} answers; {}", answers.len(), res.stats);
        }
        None => {
            for (p, rel) in &res.idb {
                for t in rel.sorted_tuples() {
                    println!("{}", render(*p, &t));
                }
            }
            eprintln!("-- {}", res.stats);
        }
    }
    if let Some(dir) = flag_value(args, "--save") {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        for (p, rel) in &res.idb {
            semrec::engine::io::save_relation(*p, rel.sorted_tuples().iter(), dir)
                .map_err(CliError::Engine)?;
        }
        eprintln!("saved IDB relations to {}", dir.display());
    }
    Ok(())
}

fn render(p: Pred, t: &[semrec::datalog::Value]) -> String {
    let cells: Vec<String> = t.iter().map(ToString::to_string).collect();
    format!("{}({}).", p, cells.join(", "))
}

fn cmd_explain(args: &[String]) -> Result<(), CliError> {
    let path = need_path(args)?;
    let unit = load(path)?;
    let plan = build_plan(&unit, args)?;
    let infos = classify_linear(&plan.rectified).map_err(|e| e.to_string())?;
    if infos.is_empty() {
        println!("no recursive predicates.");
    }
    let mut residues: BTreeMap<Pred, Vec<&semrec::core::Residue>> = BTreeMap::new();
    for (p, d) in &plan.detections {
        residues.entry(*p).or_default().push(&d.residue);
    }
    for info in &infos {
        println!("recursive predicate {} (arity {}):", info.pred, info.arity);
        println!("  exit rules      {:?}", info.exit_rules);
        println!("  recursive rules {:?}", info.recursive_rules);
        let Some(mine) = residues.get(&info.pred) else {
            println!("  no residues");
            continue;
        };
        for r in mine {
            println!(
                "  ic {}: seq {:?}: {}  [{}{}{}]",
                r.ic.name.map_or("(unnamed)", |n| n.as_str()),
                r.seq,
                r,
                if r.is_null() { "null" } else { "fact" },
                if r.is_conditional() {
                    ", conditional"
                } else {
                    ""
                },
                if r.is_useful() { ", useful" } else { "" },
            );
        }
    }
    let s = &plan.detect_stats;
    println!(
        "compile: {} ICs, {} of {} pairs tried, {} SD-graphs, {} sequences verified, {} residues",
        s.ics,
        s.candidate_pairs,
        infos.len() * s.ics,
        s.graphs_built,
        s.sequences_verified,
        s.residues,
    );
    explain_routing(&unit, &plan, args)
}

/// The `semrec explain` routing section: prices every rewrite
/// alternative against the file's data (embedded facts plus `--data`),
/// prints the per-alternative estimates and the planner's choice, and
/// with `--run` evaluates the chosen program to report actual
/// cardinalities next to the prediction.
fn explain_routing(
    unit: &Unit,
    plan: &semrec::core::Plan,
    args: &[String],
) -> Result<(), CliError> {
    let program = unit.program();
    let mut db = Database::from_facts(&unit.facts);
    if let Some(dir) = flag_value(args, "--data") {
        let n = semrec::engine::io::load_dir(&mut db, std::path::Path::new(dir))
            .map_err(CliError::Engine)?;
        eprintln!("loaded {n} facts from {dir}");
    }
    let goal = flag_value(args, "--query")
        .map(|q| parse_atom(q).map_err(|e| e.to_string()))
        .transpose()?;
    let (alts, _) = semrec::core::route_alternatives(&program, plan, goal.as_ref());
    let mut stats = semrec::engine::EdbStats::new();
    let memo = match semrec::engine::CostMemo::build(&db, &mut stats, alts) {
        Ok(m) => m,
        Err(e) => {
            println!("— route plan — (cost routing unavailable: {e})");
            return Ok(());
        }
    };
    println!("— route plan —");
    for a in &memo.alternatives {
        println!(
            "  {:<14} est_work={:<12.0} est_rows={:<10.0} est_bytes={:<12.0} rounds={}{}",
            a.kind.name(),
            a.estimate.work,
            a.estimate.rows,
            a.estimate.bytes,
            a.estimate.rounds,
            if a.estimate.capped { " (capped)" } else { "" },
        );
    }
    let choice = memo.choice();
    let best = memo.best();
    println!(
        "chosen: {} → route {} (predicted {:.0} rows, {:.0} work)",
        choice.chosen,
        route_name(choice.chosen.route()),
        choice.predicted_rows,
        choice.predicted_work,
    );
    if let Some((kind, work)) = choice.runner_up {
        println!("runner-up: {kind} ({work:.0} work)");
    }
    println!(
        "planning: {} alternative(s), {} shared subplan(s), {} ordering(s) considered, {:.3} ms",
        memo.alternatives.len(),
        memo.shared_subplans,
        best.estimate.orderings_considered,
        memo.plan_nanos as f64 / 1e6,
    );
    if args.iter().any(|a| a == "--run") {
        let res = evaluate(&db, &best.program, Strategy::SemiNaive).map_err(CliError::Engine)?;
        let actual: u64 = res.idb.values().map(|r| r.len() as u64).sum();
        println!(
            "actual: {} rows in {} round(s) (misprediction ×{:.2})",
            actual,
            res.stats.iterations,
            choice.misprediction(actual),
        );
        for (p, rel) in &res.idb {
            let predicted = best.estimate.per_pred.get(p).copied().unwrap_or(0.0);
            println!(
                "  {:<20} actual={:<8} predicted={:.0}",
                p,
                rel.len(),
                predicted
            );
        }
    }
    Ok(())
}

fn cmd_describe(args: &[String]) -> Result<(), CliError> {
    let (path, qsrc) = match args {
        [p, q, ..] => (p, q),
        _ => return Err(CliError::Usage(usage())),
    };
    let unit = load(path)?;
    let query = semrec::iqa::parse_describe(qsrc).map_err(|e| e.to_string())?;
    let a = if unit.facts.is_empty() {
        semrec::iqa::answer(&unit.program(), &query, 4)
    } else {
        let db = Database::from_facts(&unit.facts);
        semrec::iqa::answer_with_data(&unit.program(), &query, &db, 4)
    };
    print!("{a}");
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<(), CliError> {
    use semrec::gen::{export, fanout, flights, genealogy, org, parse_scenario, university};
    let (name, dir) = match args {
        [n, d, ..] => (n.as_str(), std::path::Path::new(d)),
        _ => return Err(CliError::Usage(usage())),
    };
    let (scenario, db) = match name {
        "org" => (
            parse_scenario(org::PROGRAM),
            org::generate(&org::OrgParams::default()),
        ),
        "university" => (
            parse_scenario(university::PROGRAM),
            university::generate(&university::UniversityParams::default()),
        ),
        "genealogy" => (
            parse_scenario(genealogy::PROGRAM),
            genealogy::generate(&genealogy::GenealogyParams::default()),
        ),
        "fanout" => (
            parse_scenario(fanout::PROGRAM),
            fanout::generate(&fanout::FanoutParams::default()),
        ),
        "flights" => (
            parse_scenario(flights::PROGRAM),
            flights::generate(&flights::FlightsParams::default()),
        ),
        other => return Err(CliError::Usage(format!("unknown scenario `{other}`"))),
    };
    export::write_bundle(&scenario, &db, dir, name).map_err(|e| e.to_string())?;
    println!(
        "wrote {}/{name}.dl and {}/{name}-data/ ({} facts)",
        dir.display(),
        dir.display(),
        db.total_tuples()
    );
    Ok(())
}

fn cmd_plan(args: &[String]) -> Result<(), CliError> {
    let path = need_path(args)?;
    let unit = load(path)?;
    let program = if args.iter().any(|a| a == "--optimize") {
        build_plan(&unit, args)?.program
    } else {
        unit.program()
    };
    let idb = program.idb_preds();
    for rule in &program.rules {
        println!("% {rule}");
        let views: std::collections::BTreeMap<usize, semrec::engine::plan::View> = rule
            .body
            .iter()
            .enumerate()
            .filter(|(_, l)| {
                l.as_atom().is_some_and(|a| idb.contains(&a.pred))
                    || l.as_neg().is_some_and(|a| idb.contains(&a.pred))
            })
            .map(|(i, _)| (i, semrec::engine::plan::View::Total))
            .collect();
        match semrec::engine::plan::compile_rule(rule, &views, None) {
            Ok(c) => println!("{c}"),
            Err(e) => println!("  (uncompilable: {e})"),
        }
    }
    Ok(())
}

fn cmd_why(args: &[String]) -> Result<(), CliError> {
    let (path, fact_src) = match args {
        [p, f, ..] => (p, f),
        _ => return Err(CliError::Usage(usage())),
    };
    let unit = load(path)?;
    let program = unit.program();
    let goal = parse_atom(fact_src).map_err(|e| e.to_string())?;
    if !goal.is_ground() {
        return Err("`why` needs a ground atom".into());
    }
    let db = Database::from_facts(&unit.facts);
    let res = evaluate(&db, &program, Strategy::SemiNaive).map_err(CliError::Engine)?;
    match semrec::engine::explain::explain_fact(&db, &res, &program, &goal) {
        Some(d) => {
            print!("{d}");
            Ok(())
        }
        None => Err(format!("{goal} is not derivable").into()),
    }
}

/// `semrec serve <file>`: the serving daemon. Three drive modes:
///
/// * `--listen ADDR` — accept TCP connections, one session per
///   connection, until killed;
/// * `--script PATH` — run the protocol lines from a file (replies to
///   stdout) and exit: the mode used by tests and the check harness;
/// * neither — read protocol lines from stdin (replies to stdout).
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let path = need_path(args)?;
    let unit = load(path)?;
    let mut cfg = ServeConfig {
        optimizer: optimizer_config(args),
        write_budget: parse_budget(args)?,
        ..ServeConfig::default()
    };
    if let Some(n) = flag_u64(args, "--max-inflight")? {
        cfg.admission.max_inflight = n as usize;
    }
    if let Some(n) = flag_u64(args, "--retain-epochs")? {
        cfg.retain_epochs = n as usize;
    }
    if let Some(ms) = flag_u64(args, "--watchdog-ms")? {
        cfg.admission.watchdog_after = Some(std::time::Duration::from_millis(ms));
    }
    if let Some(ms) = flag_u64(args, "--request-deadline-ms")? {
        cfg.admission.default_deadline = Some(std::time::Duration::from_millis(ms));
    }
    if let Some(n) = flag_u64(args, "--cache-capacity")? {
        cfg.cache_capacity = n as usize;
    }
    let wal = flag_value(args, "--wal").map(std::path::PathBuf::from);

    let (server, report) = Server::open(&unit, cfg, wal.as_deref()).map_err(CliError::Serve)?;
    eprintln!(
        "serving {path}: epoch {} ({} commit(s) replayed{}), route {}",
        report.epoch,
        report.replayed_commits,
        match report.truncated_tail {
            Some(off) => format!(", torn WAL tail truncated at byte {off}"),
            None => String::new(),
        },
        route_name(server.registry().latest().route),
    );
    let _watchdog = server.spawn_watchdog();

    if let Some(addr) = flag_value(args, "--listen") {
        let listener = std::net::TcpListener::bind(addr.as_str())
            .map_err(|e| format!("binding {addr}: {e}"))?;
        eprintln!(
            "listening on {}",
            listener.local_addr().map_err(|e| e.to_string())?
        );
        server
            .serve_listener(&listener)
            .map_err(|e| format!("accept loop: {e}"))?;
        return Ok(());
    }

    // Script / stdin mode: one session over the same protocol and the
    // same loop as a TCP connection, replies to stdout. Per-request
    // errors keep the session going; the exit code reports the most
    // severe serving condition the session answered with.
    let input: Box<dyn std::io::Read> = match flag_value(args, "--script") {
        Some(p) => Box::new(std::fs::File::open(p).map_err(|e| format!("reading {p}: {e}"))?),
        None => Box::new(std::io::stdin()),
    };
    let mut conn = Connection::new(server);
    serve_session(
        &mut conn,
        std::io::BufReader::new(input),
        std::io::stdout().lock(),
    )
    .map_err(|e| format!("serving the session: {e}"))?;
    match conn.worst_error() {
        Some(e) => Err(CliError::Serve(e.clone())),
        None => Ok(()),
    }
}

fn cmd_check(args: &[String]) -> Result<(), CliError> {
    let path = need_path(args)?;
    let unit = load(path)?;
    let program = unit.program();
    match validate(&program, &unit.constraints) {
        Ok(infos) => {
            println!(
                "program ok: {} rules, {} facts, {} constraints, {} recursive predicate(s)",
                program.len(),
                unit.facts.len(),
                unit.constraints.len(),
                infos.len()
            );
        }
        Err(e) => return Err(e.to_string().into()),
    }
    // Then verify IC satisfaction on the embedded facts.
    let db = Database::from_facts(&unit.facts);
    let mut violated = 0;
    for ic in &unit.constraints {
        let v = db.violations(ic);
        if !v.is_empty() {
            violated += 1;
            println!("VIOLATED {ic}");
            for s in v.iter().take(3) {
                println!("  by {s}");
            }
        }
    }
    if violated == 0 {
        println!("all constraints satisfied by the embedded facts.");
    } else {
        return Err(format!("{violated} constraint(s) violated").into());
    }
    Ok(())
}
