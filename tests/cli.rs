//! Smoke tests for the `semrec` command-line driver against the bundled
//! sample programs.

use std::process::Command;

fn output(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_semrec"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn semrec(args: &[&str]) -> (bool, String, String) {
    let out = output(args);
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn sample(name: &str) -> String {
    format!("{}/samples/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn check_validates_samples() {
    for s in ["genealogy.dl", "university.dl", "honors.dl"] {
        let (ok, stdout, stderr) = semrec(&["check", &sample(s)]);
        assert!(ok, "check {s} failed: {stderr}");
        assert!(stdout.contains("program ok"), "{stdout}");
    }
}

/// `semrec check` on a file whose facts violate two constraints: each
/// one's first three violating bindings, in sorted order, byte for byte
/// — the executor's enumeration order must not leak into the report.
#[test]
fn check_reports_violations_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("semrec-cli-check-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("viol.dl");
    std::fs::write(
        &file,
        "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, Z), t(Z, Y).\n\
         ic sink: e(X, Y) -> w(Y).\nic order: e(X, Y), X > Y -> .\n\
         ic held: e(X, Y) -> e(X, Z).\n\
         e(1, 2). e(2, 3). e(3, 4). e(5, 4). e(9, 1).\nw(3).\n",
    )
    .unwrap();
    let out = output(&["check", file.to_str().unwrap()]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "program ok: 2 rules, 6 facts, 3 constraints, 1 recursive predicate(s)\n\
         VIOLATED ic sink: e(X, Y) -> w(Y).\n  by {X/1, Y/2}\n  by {X/3, Y/4}\n  by {X/5, Y/4}\n\
         VIOLATED ic order: e(X, Y), X > Y -> .\n  by {X/5, Y/4}\n  by {X/9, Y/1}\n"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("2 constraint(s) violated"));
}

#[test]
fn run_plain_and_optimized_agree() {
    let file = sample("genealogy.dl");
    let (ok, plain, _) = semrec(&["run", &file, "--query", "anc(dan, A, Y, Ya)"]);
    assert!(ok);
    let (ok, opt, stderr) = semrec(&["run", &file, "--optimize", "--query", "anc(dan, A, Y, Ya)"]);
    assert!(ok, "{stderr}");
    assert_eq!(plain, opt, "answers must agree");
    assert!(stderr.contains("subtree pruning"));
    assert!(plain.contains("anc(dan, 20, alice, 104)."));
}

/// `run --optimize --query` hands the goal to the router, which prices
/// magic sets like any route (there is no `--magic` to ask for it).
#[test]
fn run_optimize_routes_the_goal() {
    let file = sample("genealogy.dl");
    let q = "anc(dan, A, Y, Ya)";
    let (ok, plain, _) = semrec(&["run", &file, "--query", q]);
    assert!(ok);
    let (ok, out, stderr) = semrec(&["run", &file, "--optimize", "--query", q]);
    assert!(ok, "{stderr}");
    assert_eq!(out.lines().count(), 3);
    assert_eq!(out, plain);
    assert!(stderr.contains("applied subtree pruning"), "{stderr}");
    assert!(
        stderr.contains("route: direct (no optimization applied) (magic)"),
        "{stderr}"
    );
}

/// A `semrec gen fanout` bundle in a fresh directory named `tag`.
fn fanout_bundle(tag: &str) -> (std::path::PathBuf, String, String) {
    let dir = std::env::temp_dir().join(format!("semrec-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (ok, _, stderr) = semrec(&["gen", "fanout", dir.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    let program = dir.join("fanout.dl").to_str().unwrap().to_owned();
    let data = dir.join("fanout-data").to_str().unwrap().to_owned();
    (dir, program, data)
}

/// On the fanout bundle (200 nodes, 39 601 `reach` rows) the router
/// factors the residue-pushed program toward `reach(0, Y)`: a row budget
/// of 2 000 — five times the factored program's 400 rows, a twentieth of
/// the closure — answers exactly what the plain run answers without a
/// budget, and the same budget without `--optimize` trips (exit 4).
#[test]
fn a_row_budget_proves_the_closure_is_not_built() {
    let (dir, program, data) = fanout_bundle("budget");
    let run = |extra: &[&str]| {
        let args = [&["run", &program, "--data", &data][..], extra].concat();
        output(&[&args[..], &["--query", "reach(0, Y)"]].concat())
    };
    let plain = run(&[]);
    let routed = run(&["--optimize", "--max-rows", "2000"]);
    let capped = run(&["--max-rows", "2000"]);
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&routed.stderr);
    assert_eq!(routed.status.code(), Some(0), "{stderr}");
    assert_eq!(routed.stdout, plain.stdout);
    assert_eq!(String::from_utf8_lossy(&plain.stdout).lines().count(), 200);
    assert!(stderr.contains("inserted=400 "), "{stderr}");
    assert_eq!(
        capped.status.code(),
        Some(4),
        "{}",
        String::from_utf8_lossy(&capped.stderr)
    );
}

/// `semrec explain --query` names every goal-directed alternative with
/// its estimates and the chosen one; on the fanout bundle that is the
/// factored residue-pushed program, and `--run` reports its actual rows
/// beside the prediction.
#[test]
fn explain_chooses_the_pushed_factored_route_on_fanout() {
    let (dir, program, data) = fanout_bundle("explain");
    let args = [
        "explain",
        &program,
        "--data",
        &data,
        "--query",
        "reach(0, Y)",
    ];
    let (ok, out, stderr) = semrec(&[&args[..], &["--run"]].concat());
    let _ = std::fs::remove_dir_all(&dir);
    assert!(ok, "{stderr}");
    for name in ["magic", "factored", "pushed_magic", "pushed_factored"] {
        assert!(
            out.lines()
                .any(|l| l.trim_start().starts_with(&format!("{name} ")) && l.contains("est_rows=")),
            "{name} missing: {out}"
        );
    }
    assert!(
        out.contains("chosen: pushed_factored → route optimized program"),
        "{out}"
    );
    assert!(out.contains("actual: 400 rows"), "{out}");
    assert!(out.contains("reach@bf"), "{out}");
    assert!(out.contains("answers: 200 to reach(0, Y)"), "{out}");
}

/// With `--save`, `run --optimize --query` routes without the goal: a
/// goal-directed route computes the goal's rows only, and the saved
/// relations must be whole — the same files the plain run writes.
#[test]
fn save_with_a_goal_writes_whole_relations() {
    let (dir, program, data) = fanout_bundle("save");
    let save = |extra: &[&str], to: &str| {
        let out = dir.join(to);
        let base = ["run", &program, "--data", &data, "--query", "reach(0, Y)"];
        let save = ["--save", out.to_str().unwrap()];
        let (ok, stdout, stderr) = semrec(&[&base[..], extra, &save].concat());
        assert!(ok, "{stderr}");
        let mut files: Vec<(String, String)> = std::fs::read_dir(&out)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read_to_string(&path).unwrap())
            })
            .collect();
        files.sort();
        (stdout, files)
    };
    let (plain_out, plain_files) = save(&[], "plain");
    let (opt_out, opt_files) = save(&["--optimize"], "optimized");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(opt_out, plain_out);
    assert_eq!(
        plain_files
            .iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>(),
        ["reach.csv"]
    );
    assert_eq!(plain_files[0].1.lines().count(), 39_601);
    assert!(opt_files == plain_files, "saved relations differ");
}

#[test]
fn optimize_prints_plan() {
    let (ok, out, _) = semrec(&["optimize", &sample("university.dl"), "--small", "doctoral"]);
    assert!(ok);
    assert!(out.contains("atom elimination"));
    assert!(out.contains("optimized program"));
}

#[test]
fn explain_lists_residues() {
    let (ok, out, _) = semrec(&["explain", &sample("genealogy.dl")]);
    assert!(ok);
    assert!(out.contains("recursive predicate anc"));
    assert!(out.contains("null, conditional"));
    // What detection cost, in exact work counts.
    assert!(
        out.contains(
            "compile: 1 ICs, 1 of 1 pairs tried, 1 SD-graphs, 2 sequences verified, \
             2 unfoldings, 2 residues"
        ),
        "{out}"
    );
}

/// A constraint or fact whose arity disagrees with the rest of the file
/// is an analysis error (exit 1) on every command that loads the file —
/// not a nonsense violation report, a constraint silently carried along,
/// or a panic in the relation store.
#[test]
fn arity_clashes_are_analysis_errors() {
    let dir = std::env::temp_dir().join(format!("semrec-cli-arity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let rules = "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, Z), t(Z, Y).\ne(1, 2). e(2, 3).\n";
    for (tail, says) in [
        (
            "ic ar: e(X) -> w(X, W).\n",
            "constraint ar uses e with arity 1, but e has arity 2 in the program's rules",
        ),
        (
            "ic c1: e(X, Y) -> w(X).\nic c2: e(X, Y) -> w(X, Y).\n",
            "constraint c2 uses w with arity 2, but w has arity 1 in constraint c1",
        ),
        (
            "e(4).\n",
            "fact e(4) has arity 1, but e has arity 2 elsewhere",
        ),
        (
            "ic c1: e(X, Y) -> w(X, Y).\nw(1).\n",
            "fact w(1) has arity 1, but w has arity 2 elsewhere",
        ),
    ] {
        let file = dir.join("prog.dl");
        std::fs::write(&file, format!("{rules}{tail}")).unwrap();
        let file = file.to_str().unwrap();
        for cmd in ["check", "optimize", "run", "explain"] {
            let out = output(&[cmd, file]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd} {tail:?}: {stderr}");
            assert!(stderr.contains("analysis error"), "{cmd}: {stderr}");
            assert!(stderr.contains(says), "{cmd} {tail:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{cmd} {tail:?}");
        }
    }
    // Predicates only constraints mention stay legal.
    let file = dir.join("prog.dl");
    std::fs::write(&file, format!("{rules}ic: e(X, Y) -> w(Y, Z, 3).\n")).unwrap();
    let out = output(&["optimize", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn describe_answers_knowledge_query() {
    let (ok, out, _) = semrec(&[
        "describe",
        &sample("honors.dl"),
        "describe honors(S) where graduated(S, C), topten(C).",
    ]);
    assert!(ok);
    assert!(out.contains("[qualified, 1 in db]"), "{out}");
}

#[test]
fn bad_input_fails_cleanly() {
    let (ok, _, stderr) = semrec(&["run", "/nonexistent.dl"]);
    assert!(!ok);
    assert!(stderr.contains("error"));
    let (ok, _, stderr) = semrec(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn why_prints_a_derivation_tree() {
    let (ok, out, _) = semrec(&["why", &sample("genealogy.dl"), "anc(dan, 20, alice, 104)"]);
    assert!(ok);
    assert!(out.contains("[rule 1]"));
    assert!(out.contains("par(dan, 20, carl, 48)   [fact]"));
    let (ok, _, stderr) = semrec(&["why", &sample("genealogy.dl"), "anc(alice, 104, dan, 20)"]);
    assert!(!ok);
    assert!(stderr.contains("not derivable"));
}

#[test]
fn data_dir_loading_and_saving() {
    let data = std::env::temp_dir().join(format!("semrec-cli-data-{}", std::process::id()));
    let out = std::env::temp_dir().join(format!("semrec-cli-out-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data);
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&data).unwrap();
    std::fs::write(
        data.join("par.csv"),
        "fred,30,george,60\ngeorge,60,harry,95\n",
    )
    .unwrap();
    let (ok, stdout, stderr) = semrec(&[
        "run",
        &sample("genealogy.dl"),
        "--data",
        data.to_str().unwrap(),
        "--query",
        "anc(fred, A, Y, Ya)",
        "--save",
        out.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("anc(fred, 30, harry, 95)."));
    let saved = std::fs::read_to_string(out.join("anc.csv")).unwrap();
    assert!(saved.contains("fred,30,george,60"));
    let _ = std::fs::remove_dir_all(&data);
    let _ = std::fs::remove_dir_all(&out);
}

/// Facts leave through one stdout buffer. What reaches the pipe must be
/// byte for byte what the library renders — a run's answers, a whole
/// IDB, an optimize's plan — and a command that fails after printing
/// (`--save` into a path under a regular file) still delivers every
/// line before its error.
#[test]
fn buffered_stdout_is_complete_and_byte_identical() {
    use semrec::core::optimizer::Optimizer;
    use semrec::datalog::parser::{parse_atom, parse_unit};
    use semrec::datalog::{Pred, Value};
    use semrec::engine::{evaluate, Database, Strategy};

    let file = sample("genealogy.dl");
    let unit = parse_unit(&std::fs::read_to_string(&file).unwrap()).unwrap();
    let res = evaluate(
        &Database::from_facts(&unit.facts),
        &unit.program(),
        Strategy::SemiNaive,
    )
    .unwrap();
    let fact = |p: Pred, t: &[Value]| {
        let cells: Vec<String> = t.iter().map(ToString::to_string).collect();
        format!("{p}({}).\n", cells.join(", "))
    };
    let q = "anc(dan, A, Y, Ya)";
    let mut answers = res.answers(&parse_atom(q).unwrap());
    answers.sort();
    let expect: String = answers.iter().map(|t| fact(Pred::new("anc"), t)).collect();
    let (ok, out, stderr) = semrec(&["run", &file, "--query", q]);
    assert!(ok, "{stderr}");
    assert_eq!(out, expect);

    let dump: String = res
        .idb
        .iter()
        .flat_map(|(&p, rel)| rel.sorted_tuples().into_iter().map(move |t| fact(p, &t)))
        .collect();
    let (ok, out, stderr) = semrec(&["run", &file]);
    assert!(ok, "{stderr}");
    assert_eq!(out, dump);

    let plan = Optimizer::new(&unit.program())
        .with_constraints(&unit.constraints)
        .run()
        .unwrap();
    let (ok, out, stderr) = semrec(&["optimize", &file]);
    assert!(ok, "{stderr}");
    assert_eq!(out, plan.to_string());

    let blocker = std::env::temp_dir().join(format!("semrec-cli-blocker-{}", std::process::id()));
    std::fs::write(&blocker, "not a directory").unwrap();
    let under = blocker.join("out");
    let (ok, out, stderr) = semrec(&[
        "run",
        &file,
        "--query",
        q,
        "--save",
        under.to_str().unwrap(),
    ]);
    let _ = std::fs::remove_file(&blocker);
    assert!(!ok && stderr.contains("error"), "{stderr}");
    assert_eq!(out, expect, "lines printed before the error were lost");
}

/// `semrec plan` prints the kernel the executor runs: the seed, each
/// probe with its key sources, and every guard under the depth it rides.
#[test]
fn plan_shows_physical_plans() {
    let (ok, out, _) = semrec(&["plan", &sample("genealogy.dl")]);
    assert!(ok);
    assert!(out.contains("plan for anc"));
    assert!(out.contains("index on cols"));
    let (ok, out, _) = semrec(&["plan", &sample("genealogy.dl"), "--optimize"]);
    assert!(ok);
    assert!(
        out.contains("anc@"),
        "optimized plans include aux preds: {out}"
    );
    // The pushed `Ya > 50` guard runs per matched `par` row: it sits on
    // the `par` probe and reads that probe's age column.
    assert!(
        out.contains(
            "  probe 0: par [Full, index on cols [0, 1] = (seed.2, seed.3)]\n    \
             filter p0.3 > 50\n"
        ),
        "{out}"
    );

    // A ground subgoal after the seed runs as a membership test, not a
    // scan: it lists as a present lookup on the probe it follows.
    let dir = std::env::temp_dir().join(format!("semrec-cli-plan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("ground.dl");
    std::fs::write(&file, "p(X, Z) :- e(X, Y), f(Y, Z), e(Z, X).\n").unwrap();
    let (ok, out, stderr) = semrec(&["plan", file.to_str().unwrap()]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(ok, "{stderr}");
    assert!(
        out.contains(
            "  probe 0: f [Full, index on cols [0] = (seed.1)]\n    \
             present e(p0.1, seed.0) [Full]\n  \
             kernel: batch (seed e + 1 probe)"
        ),
        "{out}"
    );
}

/// A reader that closes the pipe early (`| head -1`) ends a command with
/// an error, never a `println!` panic (exit 101).
#[test]
fn a_closed_stdout_is_an_error_not_a_panic() {
    use std::process::Stdio;
    let file = sample("genealogy.dl");
    for args in [
        &["plan", &file, "--optimize"][..],
        &["explain", &file],
        &["why", &file, "anc(dan, 20, alice, 104)"],
        &["describe", &file, "describe anc(X, Xa, Y, Ya)."],
        &["optimize", &file],
        &["run", &file],
        &["check", &file],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_semrec"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("binary exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_ne!(out.status.code(), Some(101), "{args:?}: {stderr}");
    }
}

#[test]
fn gen_bundle_roundtrips_through_run() {
    let dir = std::env::temp_dir().join(format!("semrec-cli-gen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (ok, out, stderr) = semrec(&["gen", "fanout", dir.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(out.contains("fanout.dl"));
    let program = dir.join("fanout.dl");
    let data = dir.join("fanout-data");
    let (ok, plain, _) = semrec(&[
        "run",
        program.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
        "--query",
        "reach(0, Y)",
    ]);
    assert!(ok);
    let (ok, opt, _) = semrec(&[
        "run",
        program.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
        "--optimize",
        "--query",
        "reach(0, Y)",
    ]);
    assert!(ok);
    assert_eq!(plain, opt);
    let (ok, _, stderr) = semrec(&["gen", "nonsense", dir.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("unknown scenario"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_and_retired_flags_are_usage_errors() {
    let file = sample("genealogy.dl");
    for (args, flag) in [
        (vec!["run", &file, "--threads", "2"], "--threads"),
        (vec!["update", &file, &file, "--threads", "2"], "--threads"),
        (vec!["serve", &file, "--no-batch"], "--no-batch"),
        (
            vec!["serve", &file, "--no-answer-cache"],
            "--no-answer-cache",
        ),
        (
            vec!["serve", &file, "--cache-capacity", "8"],
            "--cache-capacity",
        ),
        (vec!["run", &file, "--naive"], "--naive"),
        (
            vec!["run", &file, "--magic", "--query", "anc(dan, A, Y, Ya)"],
            "--magic",
        ),
        (vec!["run", &file, "--optmize"], "--optmize"),
        (vec!["check", &file, "--optimize"], "--optimize"),
        // The top-down models are experiment fixtures now, and the
        // bottom-up executor is the only engine: `--engine` went whole.
        // (`--engine naive` used to be accepted and run semi-naive.)
        (vec!["run", &file, "--engine", "topdown"], "--engine"),
        (vec!["run", &file, "--engine", "sld"], "--engine"),
        (vec!["run", &file, "--engine", "seminaive"], "--engine"),
        (vec!["run", &file, "--engine", "naive"], "--engine"),
    ] {
        let out = output(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{args:?}: {stderr}"
        );
    }
    // A flag-looking *value* is not a flag.
    let out = output(&["run", &file, "--query", "--threads"]);
    assert_ne!(out.status.code(), Some(2));
}

/// A flag that takes a value, last on the line with none, is a usage
/// error — not a run without the budget, goal or small relation it named.
#[test]
fn a_valued_flag_without_its_value_is_a_usage_error() {
    let file = sample("genealogy.dl");
    for args in [
        ["run", &file, "--max-rows"],
        ["run", &file, "--deadline-ms"],
        ["explain", &file, "--query"],
        ["optimize", &file, "--small"],
    ] {
        let out = output(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!(
                "flag `{}` of `semrec {}` needs a value",
                args[2], args[0]
            )),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

/// The exact invocations `benchmark/README.md` freezes (*Frozen
/// surfaces (a)*) stay accepted.
#[test]
fn frozen_benchmark_invocations_are_accepted() {
    let dir = std::env::temp_dir().join(format!("semrec-cli-frozen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("prog.dl");
    std::fs::write(
        &file,
        "reach(X, Y) :- edge(X, Y).\n\
         reach(X, Y) :- edge(X, Z), witness(Z, W), reach(Z, Y).\n\
         ic ic1: edge(X, Z) -> witness(Z, W).\n\
         edge(0, 1). edge(1, 2). witness(1, 10). witness(2, 20).\n",
    )
    .unwrap();
    let file = file.to_str().unwrap();
    let tail = ["--max-rows", "1000000000", "--query", "reach(0, Y)"];
    for head in [&["run", file, "--optimize"][..], &["run", file][..]] {
        let args = [head, &tail].concat();
        let (ok, stdout, stderr) = semrec(&args);
        assert!(ok, "{args:?}: {stderr}");
        assert_eq!(stdout, "reach(0, 1).\nreach(0, 2).\n", "{args:?}");
    }
    let (ok, stdout, stderr) = semrec(&["optimize", file]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("applied"), "{stdout}");

    // `serve FILE --wal PATH --listen 127.0.0.1:0` runs until killed;
    // the `listening on` line says the flags were accepted.
    use std::io::BufRead;
    let wal = dir.join("serve.wal");
    let mut child = Command::new(env!("CARGO_BIN_EXE_semrec"))
        .args(["serve", file, "--wal", wal.to_str().unwrap()])
        .args(["--listen", "127.0.0.1:0"])
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let mut banner = Vec::new();
    let mut listening = false;
    for line in std::io::BufReader::new(child.stderr.take().unwrap()).lines() {
        let line = line.unwrap();
        if line.starts_with("listening on") {
            listening = true;
            break;
        }
        banner.push(line);
    }
    child.kill().ok();
    child.wait().ok();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(listening, "daemon never opened its socket: {banner:?}");
    assert!(
        banner.iter().any(|l| l.contains("commit(s) replayed")),
        "{banner:?}"
    );
}

/// Script mode runs the same session loop as a socket and exits with
/// the most severe serving condition it answered, read off the typed
/// error the session recorded.
#[test]
fn serve_script_exit_code_is_the_worst_typed_condition() {
    let dir = std::env::temp_dir().join(format!("semrec-cli-script-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("prog.dl");
    std::fs::write(&file, "p(X) :- q(X).\nq(1).\n").unwrap();
    let run = |script: &str| {
        let path = dir.join("script.txt");
        std::fs::write(&path, script).unwrap();
        let out = output(&[
            "serve",
            file.to_str().unwrap(),
            "--retain-epochs",
            "1",
            "--script",
            path.to_str().unwrap(),
        ]);
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };

    // Per-request errors keep the session going and the exit clean.
    let (code, stdout) = run("query p(X).\nquery p(.\nping.\nquit.\nping.\n");
    assert_eq!(code, Some(0), "{stdout}");
    assert_eq!(
        stdout.lines().collect::<Vec<_>>()[..3],
        ["ok epoch=0 route=direct rows=1", "p(1).", "end"]
    );
    assert!(stdout.contains("err kind=protocol"), "{stdout}");
    assert!(
        stdout.ends_with("ok pong\n"),
        "quit. ends the session: {stdout}"
    );

    // Epoch 0 fell off a one-epoch ring: typed `epoch-reclaimed`, exit 9
    // — and the session still answered everything after it.
    let (code, stdout) = run("+q(2).\ncommit.\nquery@0 p(X).\nquery p(X).\n");
    assert_eq!(code, Some(9), "{stdout}");
    assert!(stdout.contains("err kind=epoch-reclaimed"), "{stdout}");
    assert!(stdout.ends_with("p(1).\np(2).\nend\n"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A committed string constant reads back the same before and after a
/// restart that replays it from the WAL. The log stores each commit as
/// `Display` text, so the lexer must read back every escape `Display`
/// writes: non-ASCII, control characters, quotes and backslashes.
#[test]
fn serve_wal_replays_string_constants_exactly() {
    let dir = std::env::temp_dir().join(format!("semrec-cli-walstr-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("prog.dl");
    std::fs::write(&file, "named(X, N) :- name(X, N).\nname(1, a).\n").unwrap();
    let wal = dir.join("serve.wal");
    let run = |script: &str| {
        let path = dir.join("script.txt");
        std::fs::write(&path, script).unwrap();
        let (ok, stdout, stderr) = semrec(&[
            "serve",
            file.to_str().unwrap(),
            "--wal",
            wal.to_str().unwrap(),
            "--script",
            path.to_str().unwrap(),
        ]);
        assert!(ok, "{stderr}");
        let answers: Vec<String> = stdout
            .lines()
            .filter(|l| l.starts_with("named("))
            .map(str::to_owned)
            .collect();
        (answers, stderr)
    };
    let (live, _) = run(concat!(
        "+name(2, \"λ\").\n",
        r#"+name(3, "a\rb\\\"'\u{1}")."#,
        "\ncommit.\nquery named(X, N).\nquit.\n"
    ));
    assert_eq!(
        live,
        [
            "named(1, a).",
            "named(2, \"λ\").",
            r#"named(3, "a\rb\\\"'\u{1}")."#
        ]
    );
    let (replayed, stderr) = run("query named(X, N).\nquit.\n");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(stderr.contains("1 commit(s) replayed"), "{stderr}");
    assert_eq!(replayed, live);
}
