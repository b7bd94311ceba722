//! The paper's Theorem 4.1 (isolation preserves semantics on *all*
//! databases) and the soundness of pushing (the optimized program agrees
//! on every IC-satisfying database), as case generators over the route
//! matrix of `common/routes.rs`, which isolates sequences of every
//! recursive predicate of every case and compares every route with the
//! naive oracle. Where a test is about the static routes — isolation,
//! semi-naive evaluation, the optimizer's soundness — its first cases go
//! through every route and its later seeds through the static ones
//! (`Depth::Static`): the programs the optimizer derives, evaluated.

mod common;

use common::cases::{random_programs, tiered, workload};
use common::routes::{assert_reached, check_all, Counts};

/// `n` seeds of the generated workload `kind`, three of them in full.
fn workload_seeds(kind: &str, n: u64) -> Counts {
    check_all(tiered((0..n).map(|seed| workload(kind, seed)), 3))
}

/// Isolation of sequences of a left-linear ancestor program over random
/// parent graphs.
#[test]
fn isolation_preserves_semantics() {
    let isolated = check_all(tiered(random_programs("anc", 0..48), 16))["isolated"];
    assert!(isolated >= 48 * 2, "{isolated} isolated");
}

/// The same on random linear programs (`gen::programs::random_linear`).
#[test]
fn isolation_preserves_semantics_on_random_programs() {
    let cases = tiered(random_programs("random linear", 0..32), 16);
    let isolated = check_all(cases)["isolated"];
    assert!(isolated >= 32, "{isolated} isolated");
}

/// The original route and the oracle agree on random graphs.
#[test]
fn naive_equals_seminaive() {
    check_all(tiered(random_programs("closure", 0..48), 16));
}

/// Magic sets and factoring answer every binding pattern of the closure
/// completely, on other random graphs.
#[test]
fn magic_query_complete() {
    let counts = check_all(random_programs("closure", 48..96));
    assert_reached(&counts, &["magic", "factored"]);
}

/// The bottom-up routes and the experiments' two top-down models
/// (tabled top-down, depth-bounded SLD) agree on random acyclic data.
#[test]
fn three_engines_agree() {
    check_all(random_programs("acyclic", 0..48));
}

#[test]
fn org_optimization_sound() {
    workload_seeds("org", 48);
}

/// Elimination and introduction of the small `doctoral` relation.
#[test]
fn university_optimization_sound() {
    workload_seeds("university", 24);
}

/// Conditional pruning.
#[test]
fn genealogy_optimization_sound() {
    workload_seeds("genealogy", 24);
}

/// k = 1 elimination of the witness subgoal.
#[test]
fn fanout_optimization_sound() {
    workload_seeds("fanout", 24);
}

/// The optimizer takes its blocks from the one `check` of the program as
/// written and applies them to the rectified one: rectification must
/// keep every block. On every program in the paper's class by `check` —
/// `gen::programs`' random programs, each also with seeded head
/// constants and repeated head variables, the samples, the paper's
/// examples and the regression corpus — the rectified program has the
/// same rules in the same places, obeys the evaluation rules, and
/// `check` finds the same recursive predicates in it with the same exit
/// and recursive rules.
#[test]
fn rectification_keeps_every_block() {
    use common::cases::EXAMPLE_2_1;
    use common::compile::FAMILIES;
    use semrec::datalog::analysis::{check, rectify};
    use semrec::datalog::{parse_unit, Constraint, Facts, Program, Term};
    use semrec::gen::programs::{multi_block, random_linear, RandomLinearParams};
    use semrec::gen::rng::Rng;
    use semrec::gen::{fanout, flights, genealogy, org, university};

    let mut inputs: Vec<(String, Program, Vec<Constraint>)> = Vec::new();
    let mut parsed = |name: String, src: &str| {
        let unit = parse_unit(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        inputs.push((name, unit.program(), unit.constraints));
    };
    let root = env!("CARGO_MANIFEST_DIR");
    for dir in ["samples", "tests/regressions"] {
        for entry in std::fs::read_dir(format!("{root}/{dir}")).expect(dir) {
            let path = entry.expect("entry").path();
            if path.extension().is_some_and(|x| x == "dl") {
                let src = std::fs::read_to_string(&path).expect("source");
                parsed(path.display().to_string(), &src);
            }
        }
    }
    parsed("example 2.1".into(), EXAMPLE_2_1);
    for (name, src, _, _) in FAMILIES {
        parsed((*name).into(), src);
    }
    let scenarios = [
        org::PROGRAM,
        university::PROGRAM,
        genealogy::PROGRAM,
        fanout::PROGRAM,
        flights::PROGRAM,
    ];
    for (i, src) in scenarios.into_iter().enumerate() {
        parsed(format!("scenario {i}"), src);
    }
    parsed("multi_block".into(), &multi_block(3, 16));
    for seed in 0..200 {
        let mut rng = Rng::seed_from_u64(0x7ec + seed);
        let mut program = random_linear(&RandomLinearParams {
            arity: rng.gen_range(1..5usize),
            recursive_rules: rng.gen_range(1..4usize),
            locals: rng.gen_range(0..3usize),
            seed,
        });
        inputs.push((format!("random {seed}"), program.clone(), Vec::new()));
        // Some head positions become a constant or repeat another
        // position's variable: what rectification rewrites.
        for rule in &mut program.rules {
            let head = rule.head.args.clone();
            for arg in &mut rule.head.args {
                *arg = match rng.gen_range(0..4usize) {
                    0 => Term::int(rng.gen_range(0..3i64)),
                    1 => head[rng.gen_range(0..head.len())],
                    _ => continue,
                };
            }
        }
        inputs.push((
            format!("random {seed}, heads rewritten"),
            program,
            Vec::new(),
        ));
    }

    let (mut checked, mut rewritten) = (0, 0);
    for (name, program, ics) in &inputs {
        let Ok(judged) = check(program, ics, &Facts::new()) else {
            continue;
        };
        let Ok(infos) = judged.paper_class() else {
            continue;
        };
        let (rectified, _) = rectify(program);
        let heads = |p: &Program| p.rules.iter().map(|r| r.head.pred).collect::<Vec<_>>();
        assert_eq!(heads(&rectified), heads(program), "{name}");
        let again = check(&rectified, &[], &Facts::new()).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(again.recursion.as_deref(), Ok(infos), "{name}");
        checked += 1;
        rewritten += usize::from(rectified != *program);
    }
    assert!(
        checked >= 380,
        "{checked} of {} inputs validated",
        inputs.len()
    );
    assert!(
        rewritten >= 100,
        "rectification rewrote {rewritten} programs"
    );
}
