//! End-to-end runner: one workload per invocation against the real
//! `semrec` binary, with nothing recorded inside the program.
//!
//! This file uses no product crate — only the CLI flags, the `.dl` text
//! format, the `listening on <addr>` stderr line and the wire protocol
//! (README.md lists this frozen surface) — so no internal refactor can
//! break it.
//!
//! ```text
//! e2e --workload NAME --seed N --seconds S --semrec PATH --work DIR [--summary PATH]
//! ```

use semrec_benchmark::gen::{self, Cycle, Goal, Rng, Walk, Workload};
use semrec_benchmark::report::{write_summary, Flags, Report, Samples};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Set-up is short, so it is repeated; every set-up is CPU-bound and
/// yardstick-scaled like a CLI process, and the median is reported.
const SETUP_REPS: usize = 5;
const RSS_POLL: Duration = Duration::from_millis(2);
/// Unit and scale from seconds, for [`Report::sampled`].
const S: (&str, f64) = ("s", 1.0);
const MS: (&str, f64) = ("ms", 1e3);
/// No reply in this long means the daemon hangs; fail instead of
/// sitting out the driver's time limit.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(60);

struct Env {
    semrec: PathBuf,
    work: PathBuf,
    seed: u64,
    seconds: u32,
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let flags = Flags::from_env();
    let workload = Workload::parse(flags.get("--workload")?)?;
    let env = Env {
        semrec: PathBuf::from(flags.get("--semrec")?),
        work: PathBuf::from(flags.get("--work")?),
        seed: flags.num("--seed")?,
        seconds: flags.num("--seconds")?,
    };
    std::fs::create_dir_all(&env.work).map_err(|e| format!("{}: {e}", env.work.display()))?;

    let mut report = Report::new(workload.name());
    match workload {
        Workload::FixpointCli => fixpoint_cli(&env, &mut report)?,
        Workload::CompileCli => compile_cli(&env, &mut report)?,
        Workload::ServeRead => serve_read(&env, &mut report)?,
        Workload::ServeMixed => serve_mixed(&env, &mut report)?,
    }
    if let Ok(path) = flags.get("--summary") {
        write_summary(Path::new(path), &report).map_err(|e| format!("{path}: {e}"))?;
    }
    report.print();
    Ok(())
}

// ---- cold CLI processes ----------------------------------------------

struct CliRun {
    wall_s: f64,
    peak_rss_kb: u64,
    stdout: String,
    success: bool,
}

fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// One cold process, spawn → exit with all of stdout read. A second
/// thread polls the child's memory high-water mark while it runs.
fn run_cli(semrec: &Path, args: &[&str], stderr_to: &Path) -> Result<CliRun, String> {
    let stderr = std::fs::File::create(stderr_to).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut child = Command::new(semrec)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", semrec.display()))?;
    let pid = child.id();
    let mut out = child.stdout.take().expect("stdout was piped");
    let done = AtomicBool::new(false);
    let mut stdout = String::new();
    let (peak_rss_kb, wall_s, status) = std::thread::scope(|s| {
        let poller = s.spawn(|| {
            let mut peak = 0;
            while !done.load(Ordering::SeqCst) {
                peak = peak.max(vm_hwm_kb(pid).unwrap_or(0));
                std::thread::sleep(RSS_POLL);
            }
            peak
        });
        let read = out.read_to_string(&mut stdout);
        let status = child.wait();
        let wall_s = start.elapsed().as_secs_f64();
        done.store(true, Ordering::SeqCst);
        let peak = poller.join().expect("rss poller panicked");
        (peak, wall_s, read.and(status))
    });
    let status = status.map_err(|e| format!("waiting for semrec: {e}"))?;
    Ok(CliRun {
        wall_s,
        peak_rss_kb,
        stdout,
        success: status.success(),
    })
}

/// A cold process of the benchmark's own `yardstick` bin (which says why
/// there are two kinds), spawn → exit.
struct Yardstick {
    bin: PathBuf,
    kind: &'static str,
    /// What this kind takes on this sandbox when nothing interferes (the
    /// fastest of several hundred processes). A product time is reported
    /// as its multiple of the yardsticks beside it, times this, so that
    /// it still reads as milliseconds — of a quiet minute.
    nominal_s: f64,
}

/// Kind and nominal seconds; frozen together with `yardstick.rs`.
const YARDSTICK_TABLE: (&str, f64) = ("table", 0.096);
const YARDSTICK_SORT: (&str, f64) = ("sort", 0.088);

impl Yardstick {
    fn new((kind, nominal_s): (&'static str, f64)) -> Result<Yardstick, String> {
        let me = std::env::current_exe().map_err(|e| e.to_string())?;
        Ok(Yardstick {
            bin: me.with_file_name("yardstick"),
            kind,
            nominal_s,
        })
    }

    fn run(&self) -> Result<f64, String> {
        let start = Instant::now();
        let status = Command::new(&self.bin)
            .arg(self.kind)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("spawning {}: {e}", self.bin.display()))?;
        match status.success() {
            true => Ok(start.elapsed().as_secs_f64()),
            false => Err(format!("{} {}: {status}", self.bin.display(), self.kind)),
        }
    }

    /// `wall_s` as it would read in a quiet minute, going by the
    /// yardstick processes that ran right before and right after it.
    fn scale(&self, wall_s: f64, before_s: f64, after_s: f64) -> f64 {
        wall_s * self.nominal_s / ((before_s + after_s) / 2.0)
    }
}

/// The two operation classes of a CLI workload: argument lists and the
/// oracle each run's stdout must pass.
struct CliClass<'a> {
    what: &'static str,
    args: Vec<&'a str>,
    oracle: Box<dyn FnMut(&str) -> bool + 'a>,
}

/// Shared shape of both CLI workloads. Set-up is `write_inputs` (generate
/// and write) and one unmeasured process that pulls binary and inputs
/// into the page cache, repeated. Then cold processes of class A and B in
/// turn until `seconds` are spent, a yardstick process between every two.
///
/// Every process of a class does the same deterministic work on the same
/// input, so whatever one sample takes beyond another is the sandbox's
/// interference — which here slows everything by up to 2.5× for seconds
/// to minutes, longer than a run, so that no statistic of the walls alone
/// sees through it. Each wall is therefore scaled by its neighbouring
/// yardsticks ([`Yardstick::scale`]) and the median of those is
/// reported; the raw walls are printed beside it.
fn cli_workload(
    env: &Env,
    report: &mut Report,
    yardstick: (&'static str, f64),
    mut write_inputs: impl FnMut() -> Result<(), String>,
    mut classes: [CliClass; 2],
) -> Result<(), String> {
    let yardstick = Yardstick::new(yardstick)?;
    let stderr_to = env.work.join(format!("{}.stderr", report.workload));
    let mut setups = Samples::default();
    let mut before = yardstick.run()?;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        write_inputs()?;
        let warm = run_cli(&env.semrec, &classes[0].args, &stderr_to)?;
        let setup_s = t.elapsed().as_secs_f64();
        let after = yardstick.run()?;
        setups.push(yardstick.scale(setup_s, before, after));
        before = after;
        let warm_ok = warm.success && (classes[0].oracle)(&warm.stdout);
        report.check(warm_ok, || format!("warm-up {} process", classes[0].what));
    }

    let mut scaled = [Samples::default(), Samples::default()];
    let mut raw = [Samples::default(), Samples::default()];
    let mut yards = Samples::default();
    let mut rss = Samples::default();
    let timed = Instant::now();
    while timed.elapsed().as_secs_f64() < f64::from(env.seconds) {
        for (i, class) in classes.iter_mut().enumerate() {
            let r = run_cli(&env.semrec, &class.args, &stderr_to)?;
            let after = yardstick.run()?;
            let ok = r.success && (class.oracle)(&r.stdout);
            report.check(ok, || {
                let stderr = std::fs::read_to_string(&stderr_to).unwrap_or_default();
                format!("{} process; stderr: {}", class.what, stderr.trim())
            });
            if ok {
                scaled[i].push(yardstick.scale(r.wall_s, before, after));
                raw[i].push(r.wall_s);
                if i == 0 {
                    rss.push(r.peak_rss_kb as f64 / 1024.0);
                }
            }
            yards.push(after);
            before = after;
        }
    }

    report.sampled(
        "setup_s",
        S,
        setups.p50(),
        &setups,
        "generate + write inputs + warm-up process, yardstick-scaled",
    );
    for (i, name) in ["op_a_ms", "op_b_ms"].into_iter().enumerate() {
        let what = format!("{}, yardstick-scaled", classes[i].what);
        report.sampled(name, MS, scaled[i].p50(), &scaled[i], &what);
    }
    report.metric(
        "ops_per_s",
        "1/s",
        2.0 / (scaled[0].p50() + scaled[1].p50()),
        "one A and one B in turn at those latencies".to_owned(),
    );
    report.sampled(
        "peak_rss_mb",
        ("MB", 1.0),
        rss.p50(),
        &rss,
        "VmHWM per class-A process",
    );
    for (i, name) in ["op_a_wall_ms", "op_b_wall_ms"].into_iter().enumerate() {
        let note = format!("{} as the clock read them", raw[i].spread(1e3));
        report.extra(name, "ms", raw[i].fastest() * 1e3, note);
    }
    let note = format!(
        "{} `yardstick {}`, nominal {} ms",
        yards.spread(1e3),
        yardstick.kind,
        yardstick.nominal_s * 1e3
    );
    report.extra("yardstick_ms", "ms", yards.p50() * 1e3, note);
    Ok(())
}

fn write_input(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn fixpoint_cli(env: &Env, report: &mut Report) -> Result<(), String> {
    let file = env.work.join("fixpoint.dl");
    let path = file.to_str().ok_or("work dir is not UTF-8")?;
    let expected = gen::fixpoint(env.seed).reachable;
    let oracle = |stdout: &str| gen::parse_fixpoint_answers(stdout).as_ref() == Some(&expected);
    // `--max-rows` (never reached) selects the cost-routed governed path,
    // so every compile and planning layer is crossed.
    let tail = ["--max-rows", "1000000000", "--query", gen::FIXPOINT_GOAL];
    let classes = [
        CliClass {
            what: "run_s: cold `semrec run --optimize` (residue-pushed program)",
            args: [&["run", path, "--optimize"][..], &tail].concat(),
            oracle: Box::new(oracle),
        },
        CliClass {
            what: "cold `semrec run` (the program as written)",
            args: [&["run", path][..], &tail].concat(),
            oracle: Box::new(oracle),
        },
    ];
    let setup = || write_input(&file, &gen::fixpoint(env.seed).text);
    cli_workload(env, report, YARDSTICK_TABLE, setup, classes)
}

fn compile_cli(env: &Env, report: &mut Report) -> Result<(), String> {
    let full = env.work.join("compile.dl");
    let half = env.work.join("compile_half.dl");
    let (full_path, half_path) = (
        full.to_str().ok_or("work dir is not UTF-8")?,
        half.to_str().ok_or("work dir is not UTF-8")?,
    );
    // One applied residue per block, and the same bytes from every
    // repetition: the optimizer is deterministic or it is wrong.
    let oracle = |blocks: u32| {
        let mut first: Option<String> = None;
        move |stdout: &str| {
            gen::applied_lines(stdout) == blocks as usize
                && *first.get_or_insert_with(|| stdout.to_owned()) == stdout
        }
    };
    let classes = [
        CliClass {
            what: "compile_s: cold `semrec optimize`, 160 blocks / 800 ICs",
            args: vec!["optimize", full_path],
            oracle: Box::new(oracle(gen::COMPILE_BLOCKS)),
        },
        CliClass {
            what: "cold `semrec optimize`, 80 blocks / 400 ICs",
            args: vec!["optimize", half_path],
            oracle: Box::new(oracle(gen::COMPILE_BLOCKS_HALF)),
        },
    ];
    let setup = || {
        write_input(&full, &gen::compile(env.seed, gen::COMPILE_BLOCKS))?;
        write_input(&half, &gen::compile(env.seed, gen::COMPILE_BLOCKS_HALF))
    };
    cli_workload(env, report, YARDSTICK_SORT, setup, classes)
}

// ---- the daemon and its clients --------------------------------------

struct Daemon {
    child: Child,
    /// Kept open so the daemon never writes into a closed pipe.
    _stderr: BufReader<ChildStderr>,
    addr: String,
    /// stderr lines before `listening on`: the recovery banner.
    banner: Vec<String>,
}

impl Daemon {
    /// `semrec serve FILE [--wal PATH] --listen 127.0.0.1:0`, returning
    /// once the daemon has printed the address it listens on.
    fn spawn(semrec: &Path, file: &Path, wal: Option<&Path>) -> Result<Daemon, String> {
        let mut cmd = Command::new(semrec);
        cmd.arg("serve").arg(file);
        if let Some(wal) = wal {
            cmd.arg("--wal").arg(wal);
        }
        let mut child = cmd
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", semrec.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr was piped"));
        let mut banner = Vec::new();
        let mut line = String::new();
        loop {
            line.clear();
            let n = stderr.read_line(&mut line).unwrap_or(0);
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                return Ok(Daemon {
                    child,
                    addr: addr.to_owned(),
                    _stderr: stderr,
                    banner,
                });
            }
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("daemon exited before listening: {banner:?}"));
            }
            banner.push(line.trim().to_owned());
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        vm_hwm_kb(self.child.id()).unwrap_or(0) as f64 / 1024.0
    }

    /// `N` of the banner's `(N commit(s) replayed`.
    fn replayed(&self) -> Option<u64> {
        let line = self.banner.iter().find(|l| l.contains("replayed"))?;
        let head = line.split(" commit(s) replayed").next()?;
        head.rsplit('(').next()?.parse().ok()
    }

    /// SIGKILL, no graceful path: what survives is what was flushed.
    /// Done on drop, so that no error path leaves a daemon behind.
    fn kill(self) {
        drop(self);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct QueryReply {
    latency_s: f64,
    epoch: u64,
    /// `rows=` of the header, if it equals the fact lines before `end`.
    rows: Option<u32>,
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

fn field<T: std::str::FromStr>(header: &str, key: &str) -> Option<T> {
    header
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))?
        .parse()
        .ok()
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        writer
            .set_read_timeout(Some(SOCKET_TIMEOUT))
            .and_then(|()| writer.set_nodelay(true))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            reader,
            writer,
            line: String::new(),
        })
    }

    fn read_line(&mut self) -> Result<&str, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("daemon closed the connection".to_owned()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(format!("reading reply: {e}")),
        }
    }

    fn send(&mut self, request: &str) -> Result<Instant, String> {
        self.writer
            .write_all(request.as_bytes())
            .map_err(|e| format!("writing request: {e}"))?;
        Ok(Instant::now())
    }

    /// Reads one query reply: `ok epoch=E route=R rows=N`, facts, `end`.
    fn read_query_reply(&mut self, sent: Instant) -> Result<QueryReply, String> {
        let header = self.read_line()?.to_owned();
        if !header.starts_with("ok ") {
            return Err(header);
        }
        let mut facts = 0u32;
        while self.read_line()? != "end" {
            facts += 1;
        }
        let latency_s = sent.elapsed().as_secs_f64();
        Ok(QueryReply {
            latency_s,
            epoch: field(&header, "epoch").ok_or_else(|| header.clone())?,
            rows: field(&header, "rows").filter(|&n: &u32| n == facts),
        })
    }

    /// One round trip, last request byte written → `end` line read.
    fn query(&mut self, atom: &str) -> Result<QueryReply, String> {
        let sent = self.send(&format!("query {atom}.\n"))?;
        self.read_query_reply(sent)
    }

    /// A one-line verb or a commit: request written → `ok …` line read.
    fn one_line(&mut self, request: &str) -> Result<(f64, String), String> {
        let sent = self.send(request)?;
        let reply = self.read_line()?.to_owned();
        let latency_s = sent.elapsed().as_secs_f64();
        match reply.starts_with("ok ") {
            true => Ok((latency_s, reply)),
            false => Err(reply),
        }
    }
}

/// Generates and writes the chain, then boots the daemon on it:
/// repeated, and the last daemon kept. `setup_s` is workload start →
/// first request can be issued. A boot is the chain's whole fixpoint, so
/// it is yardstick-scaled like a CLI process.
fn setup_daemon(
    env: &Env,
    yardstick: &Yardstick,
    n: u32,
    file: &Path,
    wal: Option<&Path>,
) -> Result<(Daemon, Samples), String> {
    let mut setups = Samples::default();
    let mut last = None;
    let mut before = yardstick.run()?;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        if let Some(wal) = wal {
            let _ = std::fs::remove_file(wal);
        }
        write_input(file, &gen::chain(n))?;
        last = Some(Daemon::spawn(&env.semrec, file, wal)?);
        let setup_s = t.elapsed().as_secs_f64();
        let after = yardstick.run()?;
        setups.push(yardstick.scale(setup_s, before, after));
        before = after;
    }
    Ok((last.expect("at least one set-up"), setups))
}

fn checked_read(
    report: &mut Report,
    reply: Result<QueryReply, String>,
    goal: &Goal,
) -> Option<f64> {
    let ok = matches!(&reply, Ok(r) if r.rows == Some(goal.rows));
    report.check(ok, || match &reply {
        Ok(r) => format!("{}: want {} rows, got {:?}", goal.atom, goal.rows, r.rows),
        Err(e) => format!("{}: {e}", goal.atom),
    });
    reply.ok().filter(|_| ok).map(|r| r.latency_s)
}

/// `admitted` and `rejected` of the `stats.` verb.
fn gate_counters(client: &mut Client) -> Result<(f64, f64), String> {
    let (_, stats) = client.one_line("stats.\n")?;
    let admitted: u64 = field(&stats, "admitted").ok_or_else(|| stats.clone())?;
    let rejected: u64 = field(&stats, "rejected").ok_or_else(|| stats.clone())?;
    Ok((admitted as f64, rejected as f64))
}

fn gate_extras(report: &mut Report, (admitted, rejected): (f64, f64)) {
    let note = || "daemon's `stats.` at the end".to_owned();
    report.extra("admitted", "count", admitted, note());
    report.extra("rejected", "count", rejected, note());
}

fn serve_read(env: &Env, report: &mut Report) -> Result<(), String> {
    let file = env.work.join("serve_read.dl");
    let yardstick = Yardstick::new(YARDSTICK_TABLE)?;
    let (daemon, setups) = setup_daemon(env, &yardstick, gen::READ_CHAIN, &file, None)?;
    let mut client = Client::connect(&daemon.addr)?;
    let (mut cold_walk, hot_goals) = gen::read_goals(env.seed);

    // Warm-up: every hot goal once, so the timed hot class only ever
    // hits the answer cache. Pipelined — replies still come in order —
    // because it is not timed.
    let batch: String = hot_goals
        .iter()
        .map(|g| format!("query {}.\n", g.atom))
        .collect();
    let sent = client.send(&batch)?;
    for goal in &hot_goals {
        let reply = client.read_query_reply(sent);
        checked_read(report, reply, goal);
    }

    let (mut cold, mut hot) = (Samples::default(), Samples::default());
    let timed = Instant::now();
    let mut turn = 0;
    while timed.elapsed().as_secs_f64() < f64::from(env.seconds) {
        let goal = gen::chain_goal(gen::READ_CHAIN, cold_walk.next().expect("walks never end"));
        let reply = client.query(&goal.atom);
        cold.push_some(checked_read(report, reply, &goal));
        let goal = &hot_goals[turn % hot_goals.len()];
        let reply = client.query(&goal.atom);
        hot.push_some(checked_read(report, reply, goal));
        turn += 1;
    }
    let elapsed = timed.elapsed().as_secs_f64();
    let gate = gate_counters(&mut client)?;
    let peak_rss_mb = daemon.peak_rss_mb();
    daemon.kill();

    report.sampled(
        "setup_s",
        S,
        setups.p50(),
        &setups,
        "generate + write + daemon boot → `listening on`, yardstick-scaled",
    );
    report.sampled(
        "op_a_ms",
        MS,
        cold.midmean(),
        &cold,
        "read_cold: cold-goal round trip, misses the answer cache",
    );
    report.sampled(
        "op_b_ms",
        MS,
        hot.midmean(),
        &hot,
        "read_hot: hot-goal round trip, hits the answer cache",
    );
    let done = cold.len() + hot.len();
    report.metric(
        "ops_per_s",
        "1/s",
        done as f64 / elapsed,
        format!("n={done} verified replies / timed wall, 1 connection, closed loop"),
    );
    report.metric(
        "peak_rss_mb",
        "MB",
        peak_rss_mb,
        "n=1 daemon VmHWM before kill".to_owned(),
    );
    let note = || "informational".to_owned();
    report.extra("read_cold_p50_us", "us", cold.p50() * 1e6, note());
    report.extra("read_cold_p95_us", "us", cold.quantile(0.95) * 1e6, note());
    gate_extras(report, gate);
    Ok(())
}

/// The reader beside the writer: cold `reach(i, Y)` goals until told to
/// stop. The reply's epoch says which spurs were live, so every reply
/// has an exact expected row count although it races the commits.
fn read_under_write(
    addr: &str,
    cycles: &[Cycle],
    mut walk: Walk,
    stop: &AtomicBool,
) -> Result<(Samples, Report), String> {
    let mut client = Client::connect(addr)?;
    let mut ledger = Report::new("serve_mixed");
    let mut latency = Samples::default();
    while !stop.load(Ordering::SeqCst) {
        let i = walk.next().expect("walks never end");
        let reply = client.query(&format!("reach({i}, Y)"));
        let ok = matches!(&reply, Ok(r)
            if r.rows.is_some() && r.rows == gen::mixed_rows_at(cycles, r.epoch, i));
        ledger.check(ok, || match &reply {
            Ok(r) => format!("reach({i}, Y) at epoch {}: got {:?} rows", r.epoch, r.rows),
            Err(e) => format!("reach({i}, Y): {e}"),
        });
        if let (true, Ok(r)) = (ok, reply) {
            latency.push(r.latency_s);
        }
    }
    Ok((latency, ledger))
}

/// Sends one commit and books it: acknowledged, and with exactly the
/// next epoch (nobody else writes).
fn checked_commit(
    report: &mut Report,
    client: &mut Client,
    request: &str,
    acked: &mut u64,
) -> Option<f64> {
    let reply = client.one_line(request);
    let ok = matches!(&reply, Ok((_, line)) if field(line, "epoch") == Some(*acked + 1));
    report.check(ok, || format!("commit {}: {reply:?}", *acked + 1));
    if reply.is_ok() {
        *acked += 1;
    }
    reply.ok().filter(|_| ok).map(|(latency_s, _)| latency_s)
}

fn serve_mixed(env: &Env, report: &mut Report) -> Result<(), String> {
    let file = env.work.join("serve_mixed.dl");
    let wal = env.work.join("serve_mixed.wal");
    let yardstick = Yardstick::new(YARDSTICK_TABLE)?;
    let (daemon, setups) = setup_daemon(env, &yardstick, gen::MIXED_CHAIN, &file, Some(&wal))?;
    let cycles = gen::mixed_cycles(env.seed, gen::mixed_cycle_count(env.seconds));
    let mut rng = Rng::new(env.seed ^ 0x5eed);
    let reader_walk = Walk::new(&mut rng, gen::MIXED_CHAIN);

    // An insert commit is five parts waiting on the socket to one part
    // work, and steady as it is. A delete commit is three quarters work
    // (maintenance over half a million tuples), which this sandbox runs a
    // third slower for minutes at a time: it is yardstick-scaled like a
    // CLI process, by a yardstick process between every two cycles.
    let mut writer = Client::connect(&daemon.addr)?;
    let (mut insert, mut delete) = (Samples::default(), Samples::default());
    let (mut delete_wall, mut yards) = (Samples::default(), Samples::default());
    let mut acked = 0u64;
    let stop = AtomicBool::new(false);
    let (written, read) = std::thread::scope(|s| {
        let (addr, script, stop) = (&daemon.addr, &cycles, &stop);
        let reader = s.spawn(move || read_under_write(addr, script, reader_walk, stop));
        let mut write = || -> Result<(), String> {
            let mut before = yardstick.run()?;
            for (c, cycle) in cycles.iter().enumerate() {
                let timed = c >= gen::MIXED_WARMUP_CYCLES;
                for spur in cycle {
                    let request = gen::insert_request(spur);
                    let l = checked_commit(report, &mut writer, &request, &mut acked);
                    insert.push_some(l.filter(|_| timed));
                }
                let request = gen::delete_request(cycle);
                let l = checked_commit(report, &mut writer, &request, &mut acked);
                let after = yardstick.run()?;
                if let Some(l) = l.filter(|_| timed) {
                    delete.push(yardstick.scale(l, before, after));
                    delete_wall.push(l);
                    yards.push(after);
                }
                before = after;
            }
            Ok(())
        };
        // The reader is told to stop on every way out of the writer.
        let written = write();
        stop.store(true, Ordering::SeqCst);
        (written, reader.join().expect("reader thread panicked"))
    });
    written?;
    let (reads, reader_ledger) = read?;
    report.attempted += reader_ledger.attempted;
    report.failed += reader_ledger.failed;
    let gate = gate_counters(&mut writer)?;
    let peak_rss_mb = daemon.peak_rss_mb();

    // Durability: kill -9, restart on the same log, and everything that
    // was acknowledged must be there — by the daemon's own count, by its
    // epoch, and by what it answers.
    daemon.kill();
    let killed = Instant::now();
    let daemon = Daemon::spawn(&env.semrec, &file, Some(&wal))?;
    let recovery_s = killed.elapsed().as_secs_f64();
    report.check(daemon.replayed() == Some(acked), || {
        format!(
            "restart replayed {:?} of {acked} commits",
            daemon.replayed()
        )
    });
    let mut client = Client::connect(&daemon.addr)?;
    let epoch = client
        .one_line("epoch.\n")
        .map(|(_, l)| field::<u64>(&l, "epoch"));
    report.check(epoch == Ok(Some(acked)), || {
        format!("epoch after restart {epoch:?}, acknowledged {acked}")
    });
    for _ in 0..gen::MIXED_RECHECK_GOALS {
        let goal = gen::chain_goal(gen::MIXED_CHAIN, rng.below(2 * gen::MIXED_CHAIN));
        let reply = client.query(&goal.atom);
        checked_read(report, reply, &goal);
    }
    daemon.kill();

    // A torn tail — the last 5 bytes of a copy gone — must cost at most
    // the last commit, never the start.
    let torn = env.work.join("serve_mixed_torn.wal");
    let tear = || -> std::io::Result<()> {
        std::fs::copy(&wal, &torn)?;
        let f = std::fs::OpenOptions::new().write(true).open(&torn)?;
        f.set_len(f.metadata()?.len().saturating_sub(5))
    };
    tear().map_err(|e| format!("{}: {e}", torn.display()))?;
    let torn_epoch = Daemon::spawn(&env.semrec, &file, Some(&torn)).and_then(|daemon| {
        let (_, line) = Client::connect(&daemon.addr)?.one_line("epoch.\n")?;
        Ok(field::<u64>(&line, "epoch"))
    });
    report.check(
        matches!(torn_epoch, Ok(Some(e)) if e + 1 >= acked && e <= acked),
        || format!("torn-tail restart: epoch {torn_epoch:?}, acknowledged {acked}"),
    );

    report.sampled(
        "setup_s",
        S,
        setups.p50(),
        &setups,
        "generate + write + boot with WAL → `listening on`, yardstick-scaled",
    );
    report.sampled(
        "op_a_ms",
        MS,
        insert.midmean(),
        &insert,
        "commit_insert: two-fact `commit.` → ack",
    );
    report.sampled(
        "op_b_ms",
        MS,
        delete.midmean(),
        &delete,
        "commit_delete: eight-fact `commit.` → ack, yardstick-scaled",
    );
    let per_cycle = gen::MIXED_SPURS_PER_CYCLE as f64;
    report.metric(
        "ops_per_s",
        "1/s",
        (per_cycle + 1.0) / (per_cycle * insert.midmean() + delete.midmean()),
        format!(
            "n={} acknowledged commits, four A and one B in turn at those latencies, \
             1 writer + 1 reader",
            insert.len() + delete.len()
        ),
    );
    report.metric(
        "peak_rss_mb",
        "MB",
        peak_rss_mb,
        "n=1 daemon VmHWM before kill -9".to_owned(),
    );
    let note = format!("{} as the clock read them", delete_wall.spread(1e3));
    report.extra(
        "commit_delete_wall_ms",
        "ms",
        delete_wall.midmean() * 1e3,
        note,
    );
    let note = format!(
        "{} `yardstick table`, nominal {} ms",
        yards.spread(1e3),
        yardstick.nominal_s * 1e3
    );
    report.extra("yardstick_ms", "ms", yards.p50() * 1e3, note);
    let note = || "informational".to_owned();
    report.extra("commit_insert_p50_ms", "ms", insert.p50() * 1e3, note());
    report.extra(
        "commit_insert_p95_ms",
        "ms",
        insert.quantile(0.95) * 1e3,
        note(),
    );
    report.extra(
        "read_under_write_p50_us",
        "us",
        reads.p50() * 1e6,
        format!("{} reader beside the writer", reads.spread(1e6)),
    );
    report.extra(
        "recovery_s",
        "s",
        recovery_s,
        format!("n=1 kill -9 → `listening on`, replaying {acked} commits"),
    );
    gate_extras(report, gate);
    Ok(())
}
