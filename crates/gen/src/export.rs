//! Exporting generated scenarios as artifacts the CLI consumes: a `.dl`
//! source (rules + ICs + optionally inline facts) and/or a CSV data
//! directory.

use crate::Scenario;
use semrec_engine::{io, Database, EngineError};
use std::fmt::Write as _;
use std::path::Path;

/// Renders a scenario (and optionally its facts) as a `.dl` source string
/// that [`semrec_datalog::parse_unit`] accepts.
pub fn to_dl(scenario: &Scenario, db: Option<&Database>) -> String {
    let mut out = String::new();
    for r in &scenario.program.rules {
        let _ = writeln!(out, "{r}");
    }
    if !scenario.constraints.is_empty() {
        let _ = writeln!(out);
        for ic in &scenario.constraints {
            let _ = writeln!(out, "{ic}");
        }
    }
    if let Some(db) = db {
        let _ = writeln!(out);
        for (pred, rel) in db.iter() {
            for t in rel.sorted_tuples() {
                let cells: Vec<String> = t.iter().map(ToString::to_string).collect();
                let _ = writeln!(out, "{pred}({}).", cells.join(", "));
            }
        }
    }
    out
}

/// Writes the scenario as `<dir>/<name>.dl` (rules + ICs only) plus a
/// `<dir>/<name>-data/` CSV directory, suitable for
/// `semrec run <name>.dl --data <name>-data`.
pub fn write_bundle(
    scenario: &Scenario,
    db: &Database,
    dir: &Path,
    name: &str,
) -> Result<(), EngineError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| EngineError::Io(format!("creating {}: {e}", dir.display())))?;
    let program_path = dir.join(format!("{name}.dl"));
    std::fs::write(&program_path, to_dl(scenario, None))
        .map_err(|e| EngineError::Io(format!("writing {}: {e}", program_path.display())))?;
    io::save_dir(db, &dir.join(format!("{name}-data")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{genealogy, parse_scenario};
    use semrec_datalog::parser::parse_unit;
    use semrec_engine::{evaluate, Strategy};

    #[test]
    fn dl_roundtrip_with_inline_facts() {
        let s = parse_scenario(genealogy::PROGRAM);
        let db = genealogy::generate(&genealogy::GenealogyParams {
            families: 1,
            depth: 3,
            branching: 2,
            seed: 3,
        });
        let text = to_dl(&s, Some(&db));
        let unit = parse_unit(&text).expect("exported source parses");
        assert_eq!(unit.rules.len(), s.program.rules.len());
        assert_eq!(unit.constraints.len(), s.constraints.len());
        assert_eq!(unit.facts.len(), db.total_tuples());

        // Evaluating the re-parsed bundle gives the same IDB.
        let db2 = Database::from_facts(&unit.facts);
        let a = evaluate(&db, &s.program, Strategy::SemiNaive).unwrap();
        let b = evaluate(&db2, &unit.program(), Strategy::SemiNaive).unwrap();
        assert_eq!(
            a.relation("anc").unwrap().sorted_tuples(),
            b.relation("anc").unwrap().sorted_tuples()
        );
    }

    #[test]
    fn bundle_written_and_loadable() {
        let dir = std::env::temp_dir().join(format!("semrec-export-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = parse_scenario(crate::fanout::PROGRAM);
        let db = crate::fanout::generate(&crate::fanout::FanoutParams {
            nodes: 10,
            extra_edges: 5,
            fanout: 2,
            seed: 1,
        });
        write_bundle(&s, &db, &dir, "fanout").unwrap();
        assert!(dir.join("fanout.dl").exists());
        let mut back = Database::new();
        let n = io::load_dir(&mut back, &dir.join("fanout-data"), &Default::default()).unwrap();
        assert_eq!(n, db.total_tuples());
        assert_eq!(back, db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
