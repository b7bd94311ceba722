//! `semrec` — command-line driver for the semantic optimizer.
//!
//! ```text
//! semrec optimize <file> [--small PRED]...        show the optimization plan
//! semrec run <file> [--optimize] [--query 'p(a, X)']
//!            [--data DIR] [--save DIR]
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
//!            [--max-bytes N] [--max-iters N]
//!                                                 run the serving daemon
//! ```
//!
//! A `--flag` the subcommand does not know is a usage error (exit 2),
//! never silently ignored.
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

use semrec::core::maintain::MaintainedQuery;
use semrec::core::optimizer::{evaluate_routed, Optimizer, OptimizerConfig};
use semrec::datalog::analysis::{check, Checked, RecursionInfo};
use semrec::datalog::parser::{parse_atom, parse_unit};
use semrec::datalog::{Constraint, Error, Facts, Pred, Program};
use semrec::engine::{
    scan_goal, Budget, CancelToken, Database, EngineError, EvalResult, Evaluator, Materialized,
    Prepared, Route,
};
use semrec::serve::{serve_session, Connection, ServeConfig, ServeError, Server};
use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
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

/// Only stdout is written through `?` (see [`with_stdout`]).
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Other(format!("writing to stdout: {e}"))
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
        "--help" | "-h" | "help" => with_stdout(|w| writeln!(w, "{}", usage())),
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`\n{}",
            usage()
        ))),
    }
}

fn usage() -> String {
    "usage:\n  semrec optimize <file> [--small PRED]...\n  \
     semrec run <file> [--optimize] [--query ATOM]\n  \
             [--data DIR] [--save DIR] [--small PRED]...\n  \
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
             [--max-bytes N] [--max-iters N]"
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
            &["--optimize"],
            &["--query", "--data", "--save", "--small"],
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
            ],
            true,
        ),
        _ => (&[], &[], false),
    }
}

/// Rejects (usage, exit 2) any `--flag` the subcommand does not know,
/// so a typo or a retired flag fails loudly instead of being ignored,
/// and a value-taking flag that ends the arguments without its value.
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
            if it.next().is_none() {
                return Err(CliError::Usage(format!(
                    "flag `{a}` of `semrec {cmd}` needs a value\n{}",
                    usage()
                )));
            }
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

/// A parsed file and its one judgment. Its rules are moved into the one
/// [`Program`] every command reads; none copies it.
struct Source {
    program: Program,
    facts: Facts,
    constraints: Vec<Constraint>,
    /// [`check`] of the rules, constraints and facts.
    checked: Checked,
}

/// Reads, parses and [`check`]s `path`, once for every command: a file
/// that breaks an evaluation rule is refused, with the same text, by all
/// of them. An arity clash names the file, as a parse error does.
fn load(path: &str) -> Result<Source, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let unit = parse_unit(&text).map_err(|e| format!("{path}: {e}"))?;
    let program = Program::new(unit.rules);
    let checked = check(&program, &unit.constraints, &unit.facts).map_err(|e| match e {
        Error::Analysis(_) => format!("{path}: {e}"),
        e => e.to_string(),
    })?;
    Ok(Source {
        program,
        facts: unit.facts,
        constraints: unit.constraints,
        checked,
    })
}

impl Source {
    /// The recursive predicates, for the commands that need the file in
    /// the paper's class.
    fn in_class(&self) -> Result<&[RecursionInfo], CliError> {
        (self.checked.paper_class()).map_err(|e| CliError::Other(e.to_string()))
    }

    /// The program run over `db` under `budget`, in the strata `load` judged.
    fn evaluate(&self, db: &Database, budget: Budget) -> Result<EvalResult, EngineError> {
        let plans = Prepared::batch(db, self.program.clone(), &self.checked.strata)?;
        let mut ev = Evaluator::from_prepared_batch(db, &plans, None).with_budget(budget);
        ev.run()?;
        Ok(ev.finish())
    }

    /// The embedded facts plus the `--data` directory's files, each held
    /// to the checked arities.
    fn database(&self, args: &[String]) -> Result<Database, CliError> {
        let mut db = Database::from_facts(&self.facts);
        if let Some(dir) = flag_value(args, "--data") {
            let dir_path = std::path::Path::new(dir);
            let n = semrec::engine::io::load_dir(&mut db, dir_path, &self.checked.arities)?;
            eprintln!("loaded {n} facts from {dir}");
        }
        Ok(db)
    }
}

/// Leaves `state` to the OS. A one-shot command (`optimize`, `run`,
/// `explain`, `check`) exits right after it prints, and the OS takes
/// the whole heap back then; freeing its source, plan, database and
/// result block by block first would only delay the exit (52 000
/// `free` calls after `optimize` on 800 constraints). Called once the
/// output is written; `serve` and the library free as usual.
fn leave_to_os<T>(state: T) {
    std::mem::forget(state);
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
        config.small_relations.insert(p);
    }
    config
}

/// The plan of `src`, read off the judgment `load` made.
fn build_plan(src: &Source, args: &[String]) -> Result<semrec::core::Plan, String> {
    Optimizer::new(&src.program)
        .with_constraints(&src.constraints)
        .with_checked(&src.checked)
        .with_config(optimizer_config(args))
        .run()
        .map_err(|e| e.to_string())
}

fn cmd_optimize(args: &[String]) -> Result<(), CliError> {
    let path = need_path(args)?;
    let src = load(path)?;
    let plan = build_plan(&src, args)?;
    let printed = with_stdout(|w| write!(w, "{plan}"));
    leave_to_os((src, plan));
    printed
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
    let src = load(path)?;
    let db = src.database(args)?;
    let budget = parse_budget(args)?;
    let optimize = args.iter().any(|a| a == "--optimize");

    let query = flag_value(args, "--query")
        .map(|q| parse_atom(q).map_err(|e| e.to_string()))
        .transpose()?;
    // `--optimize` is one path: the cost router picks among the rewrites
    // — the goal-directed ones too when a query is given — and runs the
    // cheapest under the budget (a slice of its deadline); the rectified
    // program answers if that route fails. `--save` writes whole
    // relations, which a goal-directed route does not compute, so it
    // routes without the goal.
    if optimize {
        let goal = query
            .as_ref()
            .filter(|_| flag_value(args, "--save").is_none());
        let outcome = evaluate_routed(
            &db,
            &src.program,
            &src.constraints,
            &src.checked,
            optimizer_config(args),
            budget,
            CancelToken::new(),
            goal,
        )
        .map_err(CliError::Engine)?;
        for a in outcome.plan.iter().flat_map(|plan| &plan.applied) {
            eprintln!("applied {}: {}", a.kind, a.note);
        }
        if let Some(why) = &outcome.degraded {
            eprintln!("degraded: {why}");
        }
        let res = &outcome.result;
        match &res.choice {
            Some(c) => eprintln!("route: {} ({})", route_name(res.route), c.chosen),
            None => eprintln!("route: {}", route_name(res.route)),
        }
        let printed = emit_result(res, query.as_ref(), args);
        leave_to_os((src, db, outcome));
        return printed;
    }

    let res = src.evaluate(&db, budget)?;
    let printed = emit_result(&res, query.as_ref(), args);
    leave_to_os((src, db, res));
    printed
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
    let src = load(path)?;
    let txsrc = std::fs::read_to_string(txpath).map_err(|e| format!("reading {txpath}: {e}"))?;
    let txs = semrec::engine::incr::parse_txs(&txsrc).map_err(|e| format!("{txpath}: {e}"))?;
    let mut db = src.database(args)?;
    let budget = parse_budget(args)?;
    let query = flag_value(args, "--query")
        .map(|q| parse_atom(q).map_err(|e| e.to_string()))
        .transpose()?;

    let report = |i: usize, route: Route, stats: &semrec::engine::UpdateStats| {
        eprintln!(
            "tx {}: route: {}; {} over-deleted, {} re-derived, {} inserted, {} round(s), {} ms{}; {}",
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
            stats.stats,
        );
    };

    if args.iter().any(|a| a == "--optimize") {
        let mut q = MaintainedQuery::from_plan(db, build_plan(&src, args)?)?;
        eprintln!("route: {}", route_name(q.route()));
        for (i, tx) in txs.iter().enumerate() {
            let out = q.apply(tx, budget, None).map_err(CliError::Engine)?;
            report(i, out.route, &out.stats);
        }
        return emit_idb(q.idb(), query.as_ref());
    }

    let plans = Prepared::compile(&db, &src.program, &[], &src.checked.strata)?;
    let mut m = Materialized::adopt(&db, plans)?;
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
    emit_idb(m.idb(), query.as_ref())
}

/// Prints a maintained IDB: the goal's answers if a query was given,
/// every relation otherwise.
fn emit_idb(
    idb: &BTreeMap<Pred, semrec::engine::Relation>,
    query: Option<&semrec::datalog::Atom>,
) -> Result<(), CliError> {
    match query {
        Some(goal) => {
            let mut answers = idb
                .get(&goal.pred)
                .map_or_else(Vec::new, |rel| scan_goal(rel, goal));
            answers.sort();
            print_facts(answers.iter().map(|t| (goal.pred, &t[..])))?;
            eprintln!("-- {} answers", answers.len());
        }
        None => print_idb(idb)?,
    }
    Ok(())
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
            print_facts(answers.iter().map(|t| (goal.pred, &t[..])))?;
            eprintln!("-- {} answers; {}", answers.len(), res.stats);
        }
        None => {
            print_idb(&res.idb)?;
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

/// Runs `write` against stdout through one buffer, flushed before this
/// returns, error or not: Rust's stdout is line-buffered, which would
/// cost one `write(2)` per printed fact. Every command but `serve`
/// (whose session loop owns its writer) prints through here, so a reader
/// that closes the pipe early (`| head -1`) ends the command with an
/// error, never a `println!` panic.
fn with_stdout<E>(write: impl FnOnce(&mut dyn Write) -> Result<(), E>) -> Result<(), CliError>
where
    CliError: From<E>,
{
    let mut out = BufWriter::new(std::io::stdout().lock());
    let written = write(&mut out).map_err(CliError::from);
    written.and(
        out.flush()
            .map_err(<CliError as From<std::io::Error>>::from),
    )
}

/// Prints one `p(a, b).` line per fact, written piece by piece into the
/// buffer.
fn print_facts<'a>(
    facts: impl IntoIterator<Item = (Pred, &'a [semrec::datalog::Value])>,
) -> Result<(), CliError> {
    with_stdout(|w| (facts.into_iter()).try_for_each(|(p, t)| write_fact(w, p, t.iter().copied())))
}

/// Writes the fact `p(values).` and its newline.
fn write_fact(
    w: &mut dyn Write,
    p: Pred,
    values: impl Iterator<Item = semrec::datalog::Value>,
) -> std::io::Result<()> {
    write!(w, "{p}(")?;
    for (i, v) in values.enumerate() {
        if i > 0 {
            w.write_all(b", ")?;
        }
        write!(w, "{v}")?;
    }
    w.write_all(b").\n")
}

/// Prints every relation of an IDB, each sorted: its row ids, ordered by
/// their word rows (`Word`'s order is value order), and each fact
/// written from its words.
fn print_idb(idb: &BTreeMap<Pred, semrec::engine::Relation>) -> Result<(), CliError> {
    with_stdout(|w| {
        let mut order: Vec<u32> = Vec::new();
        for (&p, rel) in idb {
            order.clear();
            order.extend(rel.iter_range(rel.all_rows()).map(|(r, _)| r));
            order.sort_unstable_by(|&a, &b| rel.row(a).cmp(rel.row(b)));
            for &r in &order {
                write_fact(w, p, rel.row(r).iter().map(|word| word.value()))?;
            }
        }
        Ok::<_, std::io::Error>(())
    })
}

fn cmd_explain(args: &[String]) -> Result<(), CliError> {
    let path = need_path(args)?;
    let src = load(path)?;
    let infos = src.in_class()?;
    let plan = build_plan(&src, args)?;
    let printed = with_stdout(|w| {
        explain_residues(w, &plan, infos)?;
        explain_routing(w, &src, &plan, args)
    });
    leave_to_os((src, plan));
    printed
}

/// The `semrec explain` residue section: per recursive predicate, its
/// rules and every residue detected for it; per non-recursive predicate
/// with residues, those of its rules (one-rule blocks, k = 1); then the
/// detection work.
fn explain_residues(
    w: &mut dyn Write,
    plan: &semrec::core::Plan,
    infos: &[RecursionInfo],
) -> std::io::Result<()> {
    if infos.is_empty() {
        writeln!(w, "no recursive predicates.")?;
    }
    let mut residues: BTreeMap<Pred, Vec<&semrec::core::Residue>> = BTreeMap::new();
    for (p, r) in &plan.detections {
        residues.entry(*p).or_default().push(r);
    }
    let list = |w: &mut dyn Write, mine: &[&semrec::core::Residue]| -> std::io::Result<()> {
        for r in mine {
            writeln!(
                w,
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
            )?;
        }
        Ok(())
    };
    for info in infos {
        writeln!(
            w,
            "recursive predicate {} (arity {}):",
            info.pred, info.arity
        )?;
        writeln!(w, "  exit rules      {:?}", info.exit_rules)?;
        writeln!(w, "  recursive rules {:?}", info.recursive_rules)?;
        match residues.remove(&info.pred) {
            Some(mine) => list(w, &mine)?,
            None => writeln!(w, "  no residues")?,
        }
    }
    for (p, mine) in &residues {
        writeln!(w, "non-recursive predicate {p}, one block per rule:")?;
        list(w, mine)?;
    }
    let blocks = semrec::core::detect::blocks(&plan.rectified, infos.to_vec()).len();
    let s = &plan.detect_stats;
    writeln!(
        w,
        "compile: {} ICs, {} of {} pairs tried, {} SD-graphs, {} sequences verified, \
         {} unfoldings, {} residues",
        s.ics,
        s.candidate_pairs,
        blocks * s.ics,
        s.graphs_built,
        s.sequences_verified,
        s.unfoldings,
        s.residues,
    )
}

/// The `semrec explain` routing section: prices every rewrite
/// alternative against the file's data (embedded facts plus `--data`),
/// prints the per-alternative estimates and the planner's choice, and
/// with `--run` runs the chosen alternative's priced plans to report
/// actual cardinalities next to the prediction.
fn explain_routing(
    w: &mut dyn Write,
    src: &Source,
    plan: &semrec::core::Plan,
    args: &[String],
) -> Result<(), CliError> {
    let program = &src.program;
    let db = src.database(args)?;
    let goal = flag_value(args, "--query")
        .map(|q| parse_atom(q).map_err(|e| e.to_string()))
        .transpose()?;
    let (alts, answer) = semrec::core::route_alternatives(program, plan, goal.as_ref());
    let mut stats = semrec::engine::EdbStats::new();
    let memo = match semrec::engine::CostMemo::build(&db, &mut stats, alts) {
        Ok(m) => m,
        Err(e) => {
            writeln!(w, "— route plan — (cost routing unavailable: {e})")?;
            return Ok(());
        }
    };
    writeln!(w, "— route plan —")?;
    for a in &memo.alternatives {
        writeln!(
            w,
            "  {:<16} est_work={:<12.0} est_rows={:<10.0} est_bytes={:<12.0} rounds={}{}",
            a.kind.name(),
            a.estimate.work,
            a.estimate.rows,
            a.estimate.bytes,
            a.estimate.rounds,
            if a.estimate.capped { " (capped)" } else { "" },
        )?;
    }
    let choice = memo.choice();
    writeln!(
        w,
        "chosen: {} → route {} (predicted {:.0} rows, {:.0} work)",
        choice.chosen,
        route_name(choice.chosen.route()),
        choice.predicted_rows,
        choice.predicted_work,
    )?;
    if let Some((kind, work)) = choice.runner_up {
        writeln!(w, "runner-up: {kind} ({work:.0} work)")?;
    }
    writeln!(
        w,
        "planning: {} alternative(s), {:.3} ms",
        memo.alternatives.len(),
        memo.plan_nanos as f64 / 1e6,
    )?;
    if args.iter().any(|a| a == "--run") {
        let best = memo.best();
        let mut ev = semrec::engine::Evaluator::from_prepared_batch(&db, &best.plans, None);
        ev.run().map_err(CliError::Engine)?;
        let res = ev.finish();
        let actual: u64 = res.idb.values().map(|r| r.len() as u64).sum();
        writeln!(
            w,
            "actual: {} rows in {} round(s) (misprediction ×{:.2})",
            actual,
            res.stats.iterations,
            choice.misprediction(actual),
        )?;
        for (p, rel) in &res.idb {
            let predicted = best.estimate.per_pred.get(p).copied().unwrap_or(0.0);
            writeln!(
                w,
                "  {:<20} actual={:<8} predicted={:.0}",
                p.name(),
                rel.len(),
                predicted
            )?;
        }
        if let Some(goal) = &goal {
            // A goal-directed program answers under the adorned predicate.
            let holder = answer
                .filter(|_| best.kind.is_goal_directed())
                .unwrap_or(goal.pred);
            let n = res
                .relation(holder)
                .map_or(0, |rel| scan_goal(rel, goal).len());
            writeln!(w, "answers: {n} to {goal}")?;
        }
    }
    Ok(())
}

fn cmd_describe(args: &[String]) -> Result<(), CliError> {
    let (path, qsrc) = match args {
        [p, q, ..] => (p, q),
        _ => return Err(CliError::Usage(usage())),
    };
    let src = load(path)?;
    let query = semrec::iqa::parse_describe(qsrc).map_err(|e| e.to_string())?;
    let a = if src.facts.is_empty() {
        semrec::iqa::answer(&src.program, &query, 4)
    } else {
        let db = Database::from_facts(&src.facts);
        semrec::iqa::answer_with_data(&src.program, &query, &db, 4)
    };
    with_stdout(|w| write!(w, "{a}"))
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
    with_stdout(|w| {
        writeln!(
            w,
            "wrote {}/{name}.dl and {}/{name}-data/ ({} facts)",
            dir.display(),
            dir.display(),
            db.total_tuples()
        )
    })
}

fn cmd_plan(args: &[String]) -> Result<(), CliError> {
    let path = need_path(args)?;
    let src = load(path)?;
    let db = Database::from_facts(&src.facts);
    // The plans `run` executes: the program as written in the strata
    // `load` judged, the pushed one (which the system writes) in none.
    let plans = if args.iter().any(|a| a == "--optimize") {
        Prepared::batch(&db, build_plan(&src, args)?.program, &BTreeMap::new())?
    } else {
        Prepared::batch(&db, src.program, &src.checked.strata)?
    };
    with_stdout(|w| -> Result<(), CliError> {
        for (rule, plan) in plans.program().rules.iter().zip(plans.full_plans()) {
            writeln!(w, "% {rule}\n{plan}")?;
        }
        Ok(())
    })
}

fn cmd_why(args: &[String]) -> Result<(), CliError> {
    let (path, fact_src) = match args {
        [p, f, ..] => (p, f),
        _ => return Err(CliError::Usage(usage())),
    };
    let src = load(path)?;
    let program = &src.program;
    let goal = parse_atom(fact_src).map_err(|e| e.to_string())?;
    if !goal.is_ground() {
        return Err("`why` needs a ground atom".into());
    }
    let db = Database::from_facts(&src.facts);
    let mut res = src.evaluate(&db, Budget::unlimited())?;
    match semrec::engine::explain::explain_fact(&db, &mut res, program, &goal) {
        Some(d) => with_stdout(|w| write!(w, "{d}")),
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
    let src = load(path)?;
    src.in_class()?;
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
    let wal = flag_value(args, "--wal").map(std::path::PathBuf::from);

    let plan = build_plan(&src, args)
        .map_err(|e| ServeError::Io(format!("initial materialization: optimizer: {e}")));
    let db = Database::from_facts(&src.facts);
    let query = plan.and_then(|plan| Ok(MaintainedQuery::from_plan(db, plan)?));
    let started = query.and_then(|query| Server::start(query, cfg, wal.as_deref()));
    let (server, report) = started.map_err(CliError::Serve)?;
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
    let src = load(path)?;
    let infos = src.in_class()?;
    let db = Database::from_facts(&src.facts);
    let printed = with_stdout(|w| {
        writeln!(
            w,
            "program ok: {} rules, {} facts, {} constraints, {} recursive predicate(s)",
            src.program.len(),
            src.facts.len(),
            src.constraints.len(),
            infos.len()
        )?;
        // Then verify IC satisfaction on the embedded facts.
        let mut violated = 0;
        for ic in &src.constraints {
            let v = db.violations(ic);
            if !v.is_empty() {
                violated += 1;
                writeln!(w, "VIOLATED {ic}")?;
                for s in v.iter().take(3) {
                    writeln!(w, "  by {s}")?;
                }
            }
        }
        if violated > 0 {
            return Err(format!("{violated} constraint(s) violated").into());
        }
        writeln!(w, "all constraints satisfied by the embedded facts.")?;
        Ok::<_, CliError>(())
    });
    leave_to_os((src, db));
    printed
}
