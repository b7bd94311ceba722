//! Baseline diffing for `harness bench --baseline <file>`: parses a prior
//! `BENCH_fixpoint.json` and prints per-workload speedup ratios against a
//! fresh run, starting the bench trajectory across PRs.
//!
//! The JSON reader is hand-rolled (offline-build policy: no serde). It is
//! a small recursive-descent parser over the generic JSON grammar, so it
//! tolerates schema growth — unknown keys are carried in the tree and
//! ignored by the extractor.

use crate::fixpoint::{CompileBenchResult, ParseBenchResult, WorkloadResult};
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as f64, which covers every value we emit).
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.src.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_lit(&mut self, lit: &str, val: Json) -> Result<Json, String> {
        if self.src[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(val)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_obj(),
            Some(b'[') => self.parse_arr(),
            Some(b'"') => self.parse_string().map(Json::Str),
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_num(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn parse_obj(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.parse_value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn parse_arr(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .src
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("short \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u"))?;
                            self.pos += 4;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (multi-byte sequences pass through).
                    let rest = std::str::from_utf8(&self.src[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let ch = rest.chars().next().unwrap();
                    s.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn parse_num(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.src[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }
}

/// Parses a JSON document.
pub fn parse_json(src: &str) -> Result<Json, String> {
    let mut p = Parser {
        src: src.as_bytes(),
        pos: 0,
    };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing content"));
    }
    Ok(v)
}

/// Checks a prior `BENCH_fixpoint.json` against the harness's current
/// [`crate::fixpoint::SCHEMA_VERSION`]. A missing or older
/// `schema_version` means the checked-in artifact predates a schema
/// change the CI gates read — the fix is regenerating it with
/// `harness bench --json`, not loosening the gate.
pub fn check_schema_version(src: &str) -> Result<String, String> {
    let current = crate::fixpoint::SCHEMA_VERSION;
    let doc = parse_json(src)?;
    match doc.get("schema_version").and_then(Json::as_num) {
        Some(v) if v == current as f64 => Ok(format!("baseline schema v{current} is current")),
        Some(v) => Err(format!(
            "baseline schema v{v} is stale (harness emits v{current}); regenerate with \
             `harness bench --json`"
        )),
        None => Err(format!(
            "baseline has no `schema_version` (harness emits v{current}); regenerate with \
             `harness bench --json`"
        )),
    }
}

/// One workload row recovered from a prior `BENCH_fixpoint.json`.
#[derive(Clone, Debug)]
pub struct BaselineWorkload {
    /// Workload name.
    pub name: String,
    /// Generator parameter label (joins with `name` to key the diff).
    pub params: String,
    /// Median wall milliseconds (NaN when absent).
    pub millis: f64,
    /// IDB rows per second (NaN when absent — the throughput gate
    /// skips those).
    pub rows_per_sec: f64,
}

/// Extracts the workload timings from a parsed `BENCH_fixpoint.json`.
pub fn parse_baseline(src: &str) -> Result<Vec<BaselineWorkload>, String> {
    let doc = parse_json(src)?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("baseline has no `workloads` array")?;
    let mut out = Vec::new();
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload missing `name`")?
            .to_owned();
        let params = w
            .get("params")
            .and_then(Json::as_str)
            .ok_or("workload missing `params`")?
            .to_owned();
        let num = |key: &str| w.get(key).and_then(Json::as_num).unwrap_or(f64::NAN);
        out.push(BaselineWorkload {
            name,
            params,
            millis: num("millis"),
            rows_per_sec: num("rows_per_sec"),
        });
    }
    Ok(out)
}

/// Renders a per-workload speedup table: `baseline millis / fresh millis`
/// (> 1.00x means the fresh run is faster).
pub fn diff_table(fresh: &[WorkloadResult], baseline: &[BaselineWorkload]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<12} {:<42} {:>10} {:>10} {:>8}",
        "workload", "params", "base ms", "fresh ms", "speedup"
    );
    for w in fresh {
        let base = baseline
            .iter()
            .find(|b| b.name == w.name && b.params == w.params);
        let Some(base) = base else {
            let _ = writeln!(s, "{:<12} {:<42}   (not in baseline)", w.name, w.params);
            continue;
        };
        let _ = writeln!(
            s,
            "{:<12} {:<42} {:>10.2} {:>10.2} {:>7.2}x",
            w.name,
            w.params,
            base.millis,
            w.millis,
            base.millis / w.millis.max(1e-9),
        );
    }
    for b in baseline {
        if !fresh
            .iter()
            .any(|w| w.name == b.name && w.params == b.params)
        {
            let _ = writeln!(
                s,
                "{:<12} {:<42}   (baseline only; not re-run)",
                b.name, b.params
            );
        }
    }
    s
}

/// The `--assert-throughput <pct>` gate: on every fresh workload whose
/// baseline records a finite `rows_per_sec`, the fresh throughput must
/// not fall more than `tolerance_pct` percent below the baseline's.
/// Returns a summary of the checked workloads, or a report of the
/// violations. Checking zero workloads is itself an error — a baseline
/// without throughput fields would otherwise silently disarm the gate.
///
/// Workloads below [`crate::fixpoint::THROUGHPUT_MIN_IDB_ROWS`] IDB rows
/// are skipped: their sub-millisecond runs are scheduling-noise-dominated
/// and swing 2x between passes, so a percentage floor on them measures
/// the machine, not the engine.
pub fn check_throughput(
    fresh: &[WorkloadResult],
    baseline: &[BaselineWorkload],
    tolerance_pct: f64,
) -> Result<String, String> {
    let mut checked = 0usize;
    let mut violations = String::new();
    for w in fresh {
        if w.rows_idb < crate::fixpoint::THROUGHPUT_MIN_IDB_ROWS {
            continue;
        }
        let Some(base) = baseline
            .iter()
            .find(|b| b.name == w.name && b.params == w.params)
        else {
            continue;
        };
        let base_rps = base.rows_per_sec;
        if !base_rps.is_finite() || base_rps <= 0.0 {
            continue;
        }
        let fresh_rps = w.rows_per_sec();
        checked += 1;
        let floor = base_rps * (1.0 - tolerance_pct / 100.0);
        if fresh_rps < floor {
            let _ = writeln!(
                violations,
                "  {} {}: {:.0} rows/s < floor {:.0} (baseline {:.0} - {tolerance_pct}%)",
                w.name, w.params, fresh_rps, floor, base_rps,
            );
        }
    }
    if checked == 0 {
        return Err(
            "throughput gate FAILED: no workload overlapped the baseline with a finite \
             rows_per_sec"
                .to_owned(),
        );
    }
    if violations.is_empty() {
        Ok(format!(
            "throughput gate: {checked} workload(s) within {tolerance_pct}% of baseline \
             rows/sec"
        ))
    } else {
        Err(format!(
            "throughput gate FAILED (rows/sec more than {tolerance_pct}% below baseline):\n\
             {violations}"
        ))
    }
}

/// A one-row section (`parse`, `compile`) recovered from a prior
/// `BENCH_fixpoint.json`: the input it measured and the rate the
/// `--assert-throughput` gate holds.
#[derive(Clone, Debug)]
pub struct BaselineRate {
    /// Input label (must match the fresh row's to compare).
    pub params: String,
    /// The rate, higher is better (`mb_per_s`, `ics_per_s`).
    pub rate: f64,
}

/// Extracts `section`'s row from a prior `BENCH_fixpoint.json`, with
/// `field` as its rate.
pub fn parse_baseline_rate(src: &str, section: &str, field: &str) -> Result<BaselineRate, String> {
    let doc = parse_json(src)?;
    let row = doc
        .get(section)
        .and_then(Json::as_arr)
        .and_then(<[Json]>::first)
        .ok_or(format!("baseline has no `{section}` row"))?;
    Ok(BaselineRate {
        params: row
            .get("params")
            .and_then(Json::as_str)
            .ok_or(format!("{section} row missing `params`"))?
            .to_owned(),
        rate: row
            .get(field)
            .and_then(Json::as_num)
            .ok_or(format!("{section} row missing `{field}`"))?,
    })
}

/// Extracts the `parse` row (MB/s) from a prior `BENCH_fixpoint.json`.
pub fn parse_baseline_parse(src: &str) -> Result<BaselineRate, String> {
    parse_baseline_rate(src, "parse", "mb_per_s")
}

/// Extracts the `compile` row (ICs/s) from a prior `BENCH_fixpoint.json`.
pub fn parse_baseline_compile(src: &str) -> Result<BaselineRate, String> {
    parse_baseline_rate(src, "compile", "ics_per_s")
}

/// A clause of the `--assert-throughput <pct>` gate: `section`'s fresh
/// rate on `params` must not fall more than `tolerance_pct` percent below
/// the baseline's on the same input.
fn check_rate(
    section: &str,
    unit: &str,
    params: &str,
    rate: f64,
    baseline: &BaselineRate,
    tolerance_pct: f64,
) -> Result<String, String> {
    if params != baseline.params {
        return Err(format!(
            "{section} gate FAILED: the baseline measured `{}`, this run `{params}`",
            baseline.params
        ));
    }
    let floor = baseline.rate * (1.0 - tolerance_pct / 100.0);
    if rate < floor {
        return Err(format!(
            "{section} gate FAILED ({unit} more than {tolerance_pct}% below baseline):\n  \
             {params}: {rate:.1} {unit} < floor {floor:.1} (baseline {:.1} - {tolerance_pct}%)",
            baseline.rate,
        ));
    }
    Ok(format!(
        "{section} gate: {rate:.1} {unit} within {tolerance_pct}% of baseline {:.1} {unit}",
        baseline.rate
    ))
}

/// The gate's parse clause: text-to-database MB/s (`parse_unit` +
/// `Database::from_facts`).
pub fn check_parse_throughput(
    fresh: &ParseBenchResult,
    baseline: &BaselineRate,
    tolerance_pct: f64,
) -> Result<String, String> {
    let rate = fresh.mb_per_s();
    check_rate(
        "parse",
        "MB/s",
        &fresh.params,
        rate,
        baseline,
        tolerance_pct,
    )
}

/// The gate's compile clause: constraints `Optimizer::run` compiles per
/// second.
pub fn check_compile_throughput(
    fresh: &CompileBenchResult,
    baseline: &BaselineRate,
    tolerance_pct: f64,
) -> Result<String, String> {
    let rate = fresh.ics_per_s();
    check_rate(
        "compile",
        "ICs/s",
        &fresh.params,
        rate,
        baseline,
        tolerance_pct,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let doc =
            parse_json(r#"{"a": [1, -2.5, 3e2], "b": "x\ny A", "c": null, "d": true}"#).unwrap();
        assert_eq!(
            doc.get("a").unwrap().as_arr().unwrap()[2].as_num(),
            Some(300.0)
        );
        assert_eq!(doc.get("b").unwrap().as_str(), Some("x\ny A"));
        assert_eq!(doc.get("c"), Some(&Json::Null));
        assert_eq!(doc.get("d"), Some(&Json::Bool(true)));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1, 2,]").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json(r#"{"unterminated": "yes"#).is_err());
    }

    #[test]
    fn extracts_workload_timings_from_bench_schema() {
        let src = r#"{
          "benchmark": "fixpoint",
          "future_key": {"ignored": [1, 2]},
          "workloads": [
            {"name": "fanout", "params": "nodes=10", "rows_idb": 5,
             "millis": 2.5, "rows_per_sec": 5000.0},
            {"name": "org", "params": "p", "millis": 1.0}
          ]
        }"#;
        let ws = parse_baseline(src).unwrap();
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].name, "fanout");
        assert_eq!((ws[0].millis, ws[0].rows_per_sec), (2.5, 5000.0));
        // A workload without the field parses with a NaN marker.
        assert!(ws[1].rows_per_sec.is_nan());
    }

    #[test]
    fn throughput_gate_flags_regressions_and_passes_parity() {
        use crate::fixpoint::THROUGHPUT_MIN_IDB_ROWS;
        // `rows_per_sec` is rows_idb per wall second, so pick the time
        // that yields the wanted rate.
        let mk_fresh = |rps: f64| WorkloadResult {
            name: "w".into(),
            params: "p".into(),
            rows_edb: 0,
            rows_idb: THROUGHPUT_MIN_IDB_ROWS,
            rounds: 1,
            millis: THROUGHPUT_MIN_IDB_ROWS as f64 * 1e3 / rps,
        };
        let base = BaselineWorkload {
            name: "w".into(),
            params: "p".into(),
            millis: 1.0,
            rows_per_sec: 100_000.0,
        };
        // Within tolerance and genuinely faster both pass.
        assert!(check_throughput(&[mk_fresh(95_000.0)], std::slice::from_ref(&base), 10.0).is_ok());
        assert!(
            check_throughput(&[mk_fresh(250_000.0)], std::slice::from_ref(&base), 10.0).is_ok()
        );
        // A regression beyond the tolerance fails with a report.
        let err =
            check_throughput(&[mk_fresh(80_000.0)], std::slice::from_ref(&base), 10.0).unwrap_err();
        assert!(err.contains("FAILED"), "{err}");
        assert!(err.contains("80000"), "{err}");
        // Sub-floor micro workloads are exempt (noise-dominated) while
        // gated ones still check.
        let micro = WorkloadResult {
            rows_idb: THROUGHPUT_MIN_IDB_ROWS - 1,
            ..mk_fresh(10_000.0)
        };
        assert!(check_throughput(
            &[micro, mk_fresh(95_000.0)],
            std::slice::from_ref(&base),
            10.0
        )
        .is_ok());
        // A baseline without throughput fields cannot silently disarm
        // the gate: checking zero workloads is an error.
        let old = BaselineWorkload {
            rows_per_sec: f64::NAN,
            ..base
        };
        assert!(check_throughput(&[mk_fresh(80_000.0)], &[old], 10.0).is_err());
    }

    #[test]
    fn parse_gate_flags_a_slower_parser_or_another_input() {
        let fresh = |millis: f64| ParseBenchResult {
            params: "in".into(),
            bytes: 1_000_000,
            facts: 10,
            millis,
        };
        let base = BaselineRate {
            params: "in".into(),
            rate: 100.0,
        };
        // 10 ms for 1 MB is 100 MB/s; 12.5 ms is 80 MB/s.
        assert!(check_parse_throughput(&fresh(10.0), &base, 10.0).is_ok());
        let err = check_parse_throughput(&fresh(12.5), &base, 10.0).unwrap_err();
        assert!(err.contains("80.0 MB/s < floor 90.0"), "{err}");
        let other = BaselineRate {
            params: "other".into(),
            ..base
        };
        assert!(check_parse_throughput(&fresh(10.0), &other, 10.0).is_err());
    }

    #[test]
    fn compile_gate_flags_a_slower_optimizer() {
        let fresh = |millis: f64| CompileBenchResult {
            params: "in".into(),
            ics: 1000,
            millis,
        };
        let base = BaselineRate {
            params: "in".into(),
            rate: 100_000.0,
        };
        // 10 ms for 1 000 constraints is 100 000 ICs/s; 12.5 ms is 80 000.
        assert!(check_compile_throughput(&fresh(10.0), &base, 10.0).is_ok());
        let err = check_compile_throughput(&fresh(12.5), &base, 10.0).unwrap_err();
        assert!(err.contains("80000.0 ICs/s < floor 90000.0"), "{err}");
    }

    #[test]
    fn parses_the_repo_checked_in_baseline() {
        // The real artifact must stay parseable by this reader.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fixpoint.json");
        let src = std::fs::read_to_string(path).expect("BENCH_fixpoint.json exists");
        let ws = parse_baseline(&src).expect("checked-in baseline parses");
        assert!(ws.iter().any(|w| w.name == "fanout"));
        assert!(ws.iter().all(|w| w.millis.is_finite()));
        assert!(parse_baseline_parse(&src).expect("parse row").rate > 0.0);
        assert!(parse_baseline_compile(&src).expect("compile row").rate > 0.0);
    }
}
