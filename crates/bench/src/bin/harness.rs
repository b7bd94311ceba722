//! Experiment harness: prints the E1–E9 tables (text or markdown) and
//! runs the engine fixpoint benchmark.
//!
//! ```sh
//! cargo run -p semrec-bench --release --bin harness -- all
//! cargo run -p semrec-bench --release --bin harness -- e1 e4 --quick
//! cargo run -p semrec-bench --release --bin harness -- all --markdown
//! cargo run -p semrec-bench --release --bin harness -- bench --json
//! cargo run -p semrec-bench --release --bin harness -- bench --baseline BENCH_fixpoint.json
//! cargo run -p semrec-bench --release --bin harness -- serve-bench --json
//! cargo run -p semrec-bench --release --bin harness -- serve-bench --quick --baseline BENCH_serve.json
//! ```
//!
//! `bench` times the semi-naive fixpoint on the gen workloads plus the
//! end-to-end semantic (optimizer) speedup and the governance overhead
//! (budget checks on vs off, E1 fanout); with `--json` it also writes
//! `BENCH_fixpoint.json` at the repo root (`--quick` shrinks sizes for
//! the CI gate). `--baseline <file>` diffs
//! the fresh run against a prior JSON and prints per-workload speedups.
//! `--assert-throughput <pct>` (requires `--baseline`) exits nonzero if
//! the rows/sec of any workload with `rows_idb >= 50_000` falls more
//! than `<pct>` percent below the baseline's.
//! `--assert-routing` exits nonzero if the cost planner's chosen route
//! runs slower than the fixed ladder (beyond noise), mispredicts
//! cardinality by more than 10x, or spends over 2% of evaluation time
//! planning.

use semrec_bench::baseline::{check_schema_version, check_throughput, diff_table, parse_baseline};
use semrec_bench::experiments::{run, Scale, ALL};
use semrec_bench::fixpoint::{
    check_no_regrow, check_routing, dict_table, governance_table, incremental_table, kernel_table,
    routing_table, run_dict_bench, run_fixpoint_bench, run_governance_bench, run_incremental_bench,
    run_kernel_bench, run_routing_bench, run_semantic_bench, semantic_table, to_json_full,
    to_json_with_dict, to_json_with_incremental, to_json_with_kernel_stats, to_json_with_routing,
    to_table,
};
use semrec_bench::serve::{
    check_serve_baseline, check_serve_read, run_serve_bench, serve_table, serve_to_json,
};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline_path: Option<String> = None;
    let mut assert_throughput: Option<f64> = None;
    let mut assert_no_regrow: Option<u64> = None;
    let mut args: Vec<String> = Vec::new();
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        if a == "--baseline" {
            match it.next() {
                Some(p) => baseline_path = Some(p),
                None => {
                    eprintln!("--baseline requires a file argument");
                    return ExitCode::FAILURE;
                }
            }
        } else if a == "--assert-throughput" {
            match it.next().and_then(|p| p.parse::<f64>().ok()) {
                Some(pct) if pct >= 0.0 => assert_throughput = Some(pct),
                _ => {
                    eprintln!("--assert-throughput requires a tolerance percentage");
                    return ExitCode::FAILURE;
                }
            }
        } else if a == "--assert-no-regrow" {
            match it.next().and_then(|p| p.parse::<u64>().ok()) {
                Some(max) => assert_no_regrow = Some(max),
                None => {
                    eprintln!("--assert-no-regrow requires a max-regrow count");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            args.push(a);
        }
    }
    // A retired or mistyped gate flag must not pass silently.
    const SWITCHES: [&str; 5] = [
        "--quick",
        "--markdown",
        "--json",
        "--assert-routing",
        "--assert-serve-read",
    ];
    if let Some(bad) = args
        .iter()
        .find(|a| a.starts_with("--") && !SWITCHES.contains(&a.as_str()))
    {
        eprintln!("unknown flag `{bad}`");
        return ExitCode::FAILURE;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let markdown = args.iter().any(|a| a == "--markdown");
    let json = args.iter().any(|a| a == "--json");
    let assert_routing = args.iter().any(|a| a == "--assert-routing");
    let mut ids: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();

    if ids.contains(&"dict") {
        print!("{}", dict_table(&run_dict_bench(quick)));
        return ExitCode::SUCCESS;
    }

    if ids.contains(&"serve-bench") {
        // With --baseline, validate the checked-in artifact's schema
        // before the timing run — a stale BENCH_serve.json fails fast.
        if let Some(path) = &baseline_path {
            match std::fs::read_to_string(path).map_err(|e| e.to_string()) {
                Ok(src) => match check_serve_baseline(&src) {
                    Ok(summary) => println!("{summary}"),
                    Err(e) => {
                        eprintln!("baseline {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                Err(e) => {
                    eprintln!("cannot read baseline {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let result = run_serve_bench(quick);
        print!("{}", serve_table(&result));
        if args.iter().any(|a| a == "--assert-serve-read") {
            match check_serve_read(&result) {
                Ok(summary) => println!("{summary}"),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if json {
            let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json");
            std::fs::write(&out, serve_to_json(&result)).expect("write BENCH_serve.json");
            println!("wrote {}", out.display());
        }
        return ExitCode::SUCCESS;
    }

    if ids.contains(&"bench") {
        // Read the baseline up front: --json may overwrite the very file
        // (the usual flow diffs a fresh run against the checked-in one).
        let baseline = match &baseline_path {
            Some(path) => match std::fs::read_to_string(path) {
                Ok(src) => {
                    // A stale schema fails before any timing runs: the
                    // gates below read fields the old artifact lacks.
                    match check_schema_version(&src) {
                        Ok(summary) => println!("{summary}"),
                        Err(e) => {
                            eprintln!("baseline {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                    match parse_baseline(&src) {
                        Ok(base) => Some(base),
                        Err(e) => {
                            eprintln!("cannot parse baseline {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                Err(e) => {
                    eprintln!("cannot read baseline {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            None => None,
        };
        let results = run_fixpoint_bench(quick);
        print!("{}", to_table(&results));
        let semantic = run_semantic_bench(quick);
        print!("{}", semantic_table(&semantic));
        let governance = run_governance_bench(quick);
        print!("{}", governance_table(&governance));
        let incremental = run_incremental_bench(quick);
        print!("{}", incremental_table(&incremental));
        let routing = run_routing_bench(quick);
        print!("{}", routing_table(&routing));
        let kernels = run_kernel_bench(quick);
        print!("{}", kernel_table(&kernels));
        let dict = run_dict_bench(quick);
        print!("{}", dict_table(&dict));
        if json {
            let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_fixpoint.json");
            let doc = to_json_with_dict(
                to_json_with_kernel_stats(
                    to_json_with_routing(
                        to_json_with_incremental(
                            to_json_full(&results, &semantic, &governance),
                            &incremental,
                        ),
                        &routing,
                    ),
                    &kernels,
                ),
                &dict,
            );
            std::fs::write(&out, doc).expect("write BENCH_fixpoint.json");
            println!("wrote {}", out.display());
        }
        if let (Some(base), Some(path)) = (&baseline, &baseline_path) {
            println!("\nspeedup vs baseline {path} (base ms / fresh ms):");
            print!("{}", diff_table(&results, base));
        }
        if assert_routing {
            match check_routing(&routing) {
                Ok(summary) => println!("{summary}"),
                Err(report) => {
                    eprintln!("{report}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if let Some(pct) = assert_throughput {
            let Some(base) = &baseline else {
                eprintln!("--assert-throughput requires --baseline <file>");
                return ExitCode::FAILURE;
            };
            match check_throughput(&results, base, pct) {
                Ok(summary) => println!("{summary}"),
                Err(report) => {
                    eprintln!("{report}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if let Some(max) = assert_no_regrow {
            match check_no_regrow(&kernels, max) {
                Ok(summary) => println!("{summary}"),
                Err(report) => {
                    eprintln!("{report}");
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }

    if ids.is_empty() || ids.contains(&"all") {
        ids = ALL.to_vec();
    }
    let scale = Scale { quick };
    for id in ids {
        match run(id, scale) {
            Some(tables) => {
                for t in tables {
                    if markdown {
                        println!("{}", t.to_markdown());
                    } else {
                        println!("{t}");
                    }
                }
            }
            None => eprintln!(
                "unknown experiment `{id}` (known: bench, serve-bench, {})",
                ALL.join(", ")
            ),
        }
    }
    ExitCode::SUCCESS
}
