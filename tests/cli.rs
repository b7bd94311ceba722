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

#[test]
fn run_with_magic() {
    let file = sample("genealogy.dl");
    let (ok, out, _) = semrec(&["run", &file, "--magic", "--query", "anc(dan, A, Y, Ya)"]);
    assert!(ok);
    assert_eq!(out.lines().count(), 3);
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
            "compile: 1 ICs, 1 of 1 pairs tried, 1 SD-graphs, 2 sequences verified, 2 residues"
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

#[test]
fn alternative_engines_agree() {
    let file = sample("genealogy.dl");
    let q = "anc(dan, A, Y, Ya)";
    let (ok1, bottom_up, _) = semrec(&["run", &file, "--query", q]);
    let (ok2, topdown, _) = semrec(&["run", &file, "--engine", "topdown", "--query", q]);
    let (ok3, sld, _) = semrec(&["run", &file, "--engine", "sld", "--query", q]);
    assert!(ok1 && ok2 && ok3);
    assert_eq!(bottom_up, topdown);
    assert_eq!(bottom_up, sld);
    let (ok, _, stderr) = semrec(&["run", &file, "--engine", "warp", "--query", q]);
    assert!(!ok);
    assert!(stderr.contains("unknown engine"));
}

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
        (vec!["run", &file, "--naive"], "--naive"),
        (vec!["run", &file, "--optmize"], "--optmize"),
        (vec!["check", &file, "--optimize"], "--optimize"),
    ] {
        let out = output(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{args:?}: {stderr}"
        );
    }
    // The naive strategy went with its flag: `--engine naive` used to be
    // accepted and silently run semi-naive.
    let out = output(&["run", &file, "--engine", "naive"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown engine `naive`"), "{stderr}");
    // A flag-looking *value* is not a flag.
    let out = output(&["run", &file, "--query", "--threads"]);
    assert_ne!(out.status.code(), Some(2));
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
