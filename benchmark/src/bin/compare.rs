//! `run.sh --selfcheck`'s judge: two sets of result lines from the same
//! build must agree — every end-to-end metric within the bound
//! BENCHMARK.json gives it, every exact count identical.
//!
//! ```text
//! compare BENCHMARK.json SET_A SET_B      (set lines: `workload trace {json}`)
//! ```

use semrec_benchmark::json::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// (workload, trace) → the run's result object.
type Set = BTreeMap<(String, String), Json>;

fn read_set(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .map(|line| {
            let mut parts = line.splitn(3, ' ');
            let (w, t, json) = (parts.next(), parts.next(), parts.next());
            let (Some(w), Some(t), Some(json)) = (w, t, json) else {
                return Err(format!("{path}: malformed line `{line}`"));
            };
            Ok(((w.to_owned(), t.to_owned()), Json::parse(json)?))
        })
        .collect()
}

fn value(result: &Json, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.num()
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [spec, a, b] = args.as_slice() else {
        return Err("usage: compare BENCHMARK.json SET_A SET_B".to_owned());
    };
    let spec = std::fs::read_to_string(spec).map_err(|e| format!("{spec}: {e}"))?;
    let spec = Json::parse(&spec)?;
    let (a, b) = (read_set(a)?, read_set(b)?);
    let mut agree = true;

    println!(
        "available_parallelism={}",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for ((workload, trace), first) in &a {
        let second = b
            .get(&(workload.clone(), trace.clone()))
            .ok_or_else(|| format!("second set lacks {workload} trace {trace}"))?;
        for result in [first, second] {
            if result.get("correct") != Some(&Json::Bool(true)) {
                println!("{workload} trace {trace}: a run was not correct");
                agree = false;
            }
        }
        if trace == "0" {
            for m in spec.get("end_to_end").map_or(&[][..], Json::items) {
                let name = m.get("name").and_then(Json::str).unwrap_or_default();
                let bound = m.get("bound").and_then(Json::num).unwrap_or(0.0);
                let (Some(x), Some(y)) = (value(first, name), value(second, name)) else {
                    return Err(format!("{workload}: no value for {name}"));
                };
                let diff = (y - x).abs() / x;
                let verdict = if diff > bound { "  DIFFERS" } else { "" };
                agree &= diff <= bound;
                println!(
                    "{workload:<14} {name:<14} {x:>14.4} {y:>14.4} {:>7.1}% {:>5.0}%{verdict}",
                    diff * 100.0,
                    bound * 100.0
                );
            }
        } else {
            // Counts of the traced run are exact: same inputs, same
            // calls, no clock. Any difference is nondeterminism.
            let metrics = first.get("metrics").ok_or("no metrics")?;
            for (name, m) in metrics.entries() {
                if m.get("unit").and_then(Json::str) != Some("count") {
                    continue;
                }
                let (x, y) = (value(first, name), value(second, name));
                if x != y {
                    println!("{workload:<14} {name}: count {x:?} then {y:?}  DIFFERS");
                    agree = false;
                }
            }
        }
    }
    Ok(agree)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => {
            println!("selfcheck: the two sets agree");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            println!("selfcheck: the two sets DISAGREE");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}
