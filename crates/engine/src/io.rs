//! Loading and saving extensional data as delimiter-separated files.
//!
//! A data directory holds one `<predicate>.csv` per relation; each line is
//! one tuple. Cells parse as integers when possible and as string
//! constants otherwise (quoting with `"` is supported for cells containing
//! the delimiter). This keeps workloads out of program sources and lets
//! the CLI run against generated or exported data.

use crate::database::Database;
use crate::error::EngineError;
use crate::relation::Relation;
use semrec_datalog::analysis::is_builtin;
use semrec_datalog::atom::Pred;
use semrec_datalog::term::Value;
use semrec_datalog::Error;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// The cell delimiter.
pub const DELIMITER: char = ',';

fn io_err(context: &str, e: std::io::Error) -> EngineError {
    EngineError::Io(format!("{context}: {e}"))
}

/// Parses one CSV line into values. Unquoted cells parse as integers when
/// possible; quoted cells are always string constants (so a string "42"
/// survives a round trip).
fn parse_line(line: &str) -> Vec<Value> {
    let mut out = Vec::new();
    let mut cell = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    let mut was_quoted = false;
    loop {
        match chars.next() {
            None => {
                out.push(finish_cell(&cell, was_quoted));
                return out;
            }
            Some('"') if in_quotes && chars.peek() == Some(&'"') => {
                chars.next();
                cell.push('"');
            }
            Some('"') => {
                in_quotes = !in_quotes;
                was_quoted = true;
            }
            Some(c) if c == DELIMITER && !in_quotes => {
                out.push(finish_cell(&cell, was_quoted));
                cell.clear();
                was_quoted = false;
            }
            Some(c) => cell.push(c),
        }
    }
}

fn finish_cell(cell: &str, was_quoted: bool) -> Value {
    if was_quoted {
        return Value::str(cell);
    }
    let t = cell.trim();
    match t.parse::<i64>() {
        Ok(i) => Value::Int(i),
        Err(_) => Value::str(t),
    }
}

fn render_cell(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Str(s) => {
            let t = s.as_str();
            if t.contains(DELIMITER) || t.contains('"') || t.parse::<i64>().is_ok() {
                format!("\"{}\"", t.replace('"', "\"\""))
            } else {
                t.to_owned()
            }
        }
    }
}

/// Loads every `*.csv` file of `dir` into `db` (file stem = predicate),
/// each held to the `arities` the program was checked with (see
/// [`load_file`]). Returns the number of facts inserted.
pub fn load_dir(
    db: &mut Database,
    dir: &Path,
    arities: &BTreeMap<Pred, usize>,
) -> Result<usize, EngineError> {
    let mut inserted = 0;
    let entries =
        std::fs::read_dir(dir).map_err(|e| io_err(&format!("reading {}", dir.display()), e))?;
    let mut paths: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .collect();
    paths.sort();
    for path in paths {
        let pred = path
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| EngineError::Io(format!("bad file name {path:?}")))?
            .to_owned();
        inserted += load_file(db, &pred, &path, arities)?;
    }
    Ok(inserted)
}

/// Loads one CSV file into the named relation. Every row has the arity of
/// the relation already in `db`, else the one `arities` gives the
/// predicate, else the first row's; a builtin is no relation to load.
pub fn load_file(
    db: &mut Database,
    pred: &str,
    path: &Path,
    arities: &BTreeMap<Pred, usize>,
) -> Result<usize, EngineError> {
    #[cfg(feature = "failpoints")]
    crate::failpoint::hit("io.load").map_err(EngineError::Io)?;
    let pred = Pred::new(pred);
    if is_builtin(pred) {
        return Err(EngineError::Invalid(Error::DefinesBuiltin {
            pred,
            fact: true,
        }));
    }
    let f =
        std::fs::File::open(path).map_err(|e| io_err(&format!("opening {}", path.display()), e))?;
    let mut inserted = 0;
    let mut arity = (db.get(pred).map(Relation::arity)).or_else(|| arities.get(&pred).copied());
    for (lineno, line) in BufReader::new(f).lines().enumerate() {
        let line = line.map_err(|e| io_err(&format!("reading {}", path.display()), e))?;
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let tuple = parse_line(&line);
        match arity {
            None => arity = Some(tuple.len()),
            Some(n) if n != tuple.len() => {
                return Err(EngineError::ArityMismatch(format!(
                    "{}:{}: expected {} cells, found {}",
                    path.display(),
                    lineno + 1,
                    n,
                    tuple.len()
                )));
            }
            Some(_) => {}
        }
        if db.insert(pred, tuple) {
            inserted += 1;
        }
    }
    Ok(inserted)
}

/// Saves every relation of `db` into `dir` as `<predicate>.csv`.
pub fn save_dir(db: &Database, dir: &Path) -> Result<(), EngineError> {
    std::fs::create_dir_all(dir).map_err(|e| io_err(&format!("creating {}", dir.display()), e))?;
    for (pred, rel) in db.iter() {
        save_relation(pred, rel.sorted_tuples().iter(), dir)?;
    }
    Ok(())
}

/// Saves one relation.
pub fn save_relation<'a>(
    pred: Pred,
    tuples: impl Iterator<Item = &'a Vec<Value>>,
    dir: &Path,
) -> Result<(), EngineError> {
    let path = dir.join(format!("{}.csv", pred.name()));
    let f = std::fs::File::create(&path)
        .map_err(|e| io_err(&format!("creating {}", path.display()), e))?;
    let mut w = BufWriter::new(f);
    for t in tuples {
        let cells: Vec<String> = t.iter().map(render_cell).collect();
        writeln!(w, "{}", cells.join(","))
            .map_err(|e| io_err(&format!("writing {}", path.display()), e))?;
    }
    w.flush()
        .map_err(|e| io_err(&format!("flushing {}", path.display()), e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::int_tuple;

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("semrec-io-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn roundtrip_dir() {
        let dir = tempdir("roundtrip");
        let mut db = Database::new();
        db.insert("e", int_tuple(&[1, 2]));
        db.insert("e", int_tuple(&[2, 3]));
        db.insert(
            "boss",
            vec![Value::str("amy"), Value::str("bo b"), Value::Int(7)],
        );
        save_dir(&db, &dir).unwrap();

        let mut back = Database::new();
        let n = load_dir(&mut back, &dir, &BTreeMap::new()).unwrap();
        assert_eq!(n, 3);
        assert_eq!(back, db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quoting_roundtrips() {
        let dir = tempdir("quote");
        let mut db = Database::new();
        // Tricky cells: embedded delimiter, quote, and a numeric string.
        db.insert(
            "t",
            vec![
                Value::str("a,b"),
                Value::str("say \"hi\""),
                Value::str("42"),
            ],
        );
        save_dir(&db, &dir).unwrap();
        let mut back = Database::new();
        load_dir(&mut back, &dir, &BTreeMap::new()).unwrap();
        assert_eq!(back, db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn arity_mismatch_reported() {
        let dir = tempdir("arity");
        std::fs::write(dir.join("p.csv"), "1,2\n1,2,3\n").unwrap();
        let mut db = Database::new();
        let err = load_dir(&mut db, &dir, &BTreeMap::new()).expect_err("arity error");
        assert!(err.to_string().contains("expected 2 cells"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let dir = tempdir("comments");
        std::fs::write(dir.join("p.csv"), "# header\n1,2\n\n3,4\n").unwrap();
        let mut db = Database::new();
        assert_eq!(load_dir(&mut db, &dir, &BTreeMap::new()).unwrap(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
