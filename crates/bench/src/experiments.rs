//! The experiment suite (E1–E9) reproducing every claimed effect of the
//! paper. See DESIGN.md §6 for the experiment index and EXPERIMENTS.md for
//! recorded results. Each experiment returns printable tables; the
//! `harness` binary drives them.

use crate::fixtures::isolate::isolate;
use crate::fixtures::runtime_baseline::evaluate_with_runtime_semantics;
use crate::fixtures::sld::{query_sld, SldConfig};
use crate::fixtures::topdown::query_topdown;
use crate::table::{ms, ratio, Table};
use semrec_core::detect::{detect, DetectionMethod};
use semrec_core::optimizer::{Optimizer, OptimizerConfig, Plan};
use semrec_core::sequence::unfold;
use semrec_datalog::analysis::{classify_linear_pred, rectify};
use semrec_datalog::parser::{parse_atom, parse_unit};
use semrec_datalog::program::Program;
use semrec_datalog::term::{Term, Value};
use semrec_datalog::Pred;
use semrec_engine::eval::EvalResult;
use semrec_engine::magic::evaluate_query;
use semrec_engine::{evaluate, Database, Strategy};
use semrec_gen::{fanout, genealogy, org, parse_scenario, university, Scenario};
use std::time::{Duration, Instant};

/// Experiment sizing.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Use smaller workloads (CI-friendly).
    pub quick: bool,
}

impl Scale {
    fn pick<T>(&self, quick: T, full: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed())
}

/// Builds the optimization plan for a scenario, with small relations.
pub fn plan_for(scenario: &Scenario, small: &[&str]) -> Plan {
    let mut config = OptimizerConfig::default();
    for s in small {
        config.policy.small_relations.insert(Pred::new(s));
    }
    Optimizer::new(&scenario.program)
        .with_constraints(&scenario.constraints)
        .with_config(config)
        .run()
        .expect("scenario optimizes")
}

fn check_equal(a: &EvalResult, b: &EvalResult, pred: &str) {
    assert_eq!(
        a.relation(pred).expect("computed").sorted_tuples(),
        b.relation(pred).expect("computed").sorted_tuples(),
        "optimized program diverged on {pred}"
    );
}

/// E1 — atom elimination: original vs transformed across the three
/// scenarios, showing the benefit/overhead trade against the sequence
/// depth k the residue spans.
pub fn e1(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "E1 — atom elimination (Ex. 4.1/3.2 + guarded reachability)",
        &[
            "scenario",
            "k",
            "param",
            "orig time",
            "opt time",
            "orig rows",
            "opt rows",
            "rows saved",
        ],
    );

    // k = 1: guarded reachability, sweep witness fan-out.
    let s = parse_scenario(fanout::PROGRAM);
    let plan = plan_for(&s, &[]);
    for &fo in scale.pick(&[2usize, 8][..], &[1usize, 4, 16, 64][..]) {
        let db = fanout::generate(&fanout::FanoutParams {
            nodes: scale.pick(120, 300),
            extra_edges: scale.pick(60, 150),
            fanout: fo,
            seed: 1,
        });
        let (base, tb) = timed(|| evaluate(&db, &plan.rectified, Strategy::SemiNaive).unwrap());
        let (opt, to) = timed(|| evaluate(&db, &plan.program, Strategy::SemiNaive).unwrap());
        check_equal(&base, &opt, "reach");
        t.row(vec![
            "fanout".into(),
            "1".into(),
            format!("fanout={fo}"),
            ms(tb),
            ms(to),
            base.stats.rows_scanned.to_string(),
            opt.stats.rows_scanned.to_string(),
            ratio(base.stats.rows_scanned, opt.stats.rows_scanned),
        ]);
    }

    // k = 1 conditional: flight routing, sweep the international fraction
    // (the optimized branch's selectivity).
    let s = parse_scenario(semrec_gen::flights::PROGRAM);
    let plan = plan_for(&s, &[]);
    for &frac in scale.pick(&[0.2f64, 0.8][..], &[0.1f64, 0.5, 0.9][..]) {
        let db = semrec_gen::flights::generate(&semrec_gen::flights::FlightsParams {
            airports: scale.pick(50, 90),
            flights: scale.pick(300, 700),
            intl_frac: frac,
            ..semrec_gen::flights::FlightsParams::default()
        });
        let (base, tb) = timed(|| evaluate(&db, &plan.rectified, Strategy::SemiNaive).unwrap());
        let (opt, to) = timed(|| evaluate(&db, &plan.program, Strategy::SemiNaive).unwrap());
        check_equal(&base, &opt, "route");
        t.row(vec![
            "flights".into(),
            "1c".into(),
            format!("intl={frac:.1}"),
            ms(tb),
            ms(to),
            base.stats.rows_scanned.to_string(),
            opt.stats.rows_scanned.to_string(),
            ratio(base.stats.rows_scanned, opt.stats.rows_scanned),
        ]);
    }

    // k = 2: university, sweep collaboration chain length.
    let s = parse_scenario(university::PROGRAM);
    let plan = plan_for(&s, &["doctoral"]);
    for &chain in scale.pick(&[2usize, 6][..], &[2usize, 4, 8, 12][..]) {
        let db = university::generate(&university::UniversityParams {
            professors: scale.pick(48, 96),
            students: scale.pick(100, 240),
            chain_len: chain,
            ..university::UniversityParams::default()
        });
        let (base, tb) = timed(|| evaluate(&db, &plan.rectified, Strategy::SemiNaive).unwrap());
        let (opt, to) = timed(|| evaluate(&db, &plan.program, Strategy::SemiNaive).unwrap());
        check_equal(&base, &opt, "eval");
        t.row(vec![
            "university".into(),
            "2".into(),
            format!("chain={chain}"),
            ms(tb),
            ms(to),
            base.stats.rows_scanned.to_string(),
            opt.stats.rows_scanned.to_string(),
            ratio(base.stats.rows_scanned, opt.stats.rows_scanned),
        ]);
    }

    // k = 4: organizational hierarchy.
    let s = parse_scenario(org::PROGRAM);
    let plan = plan_for(&s, &[]);
    for &n in scale.pick(&[200usize][..], &[200usize, 800][..]) {
        let db = org::generate(&org::OrgParams {
            employees: n,
            ..org::OrgParams::default()
        });
        let (base, tb) = timed(|| evaluate(&db, &plan.rectified, Strategy::SemiNaive).unwrap());
        let (opt, to) = timed(|| evaluate(&db, &plan.program, Strategy::SemiNaive).unwrap());
        check_equal(&base, &opt, "triple");
        t.row(vec![
            "org".into(),
            "4".into(),
            format!("employees={n}"),
            ms(tb),
            ms(to),
            base.stats.rows_scanned.to_string(),
            opt.stats.rows_scanned.to_string(),
            ratio(base.stats.rows_scanned, opt.stats.rows_scanned),
        ]);
    }
    t.note("rows saved > 1x: transformation wins; < 1x: sequence-commitment overhead dominates.");
    t.note("shape: the k=1 elimination wins and scales with fan-out; deep sequences (k=2,4) pay commitment overhead that single-probe savings cannot recoup.");
    vec![t]
}

/// E2 — atom introduction: the doctoral small relation restricting the
/// eval_support join, across stipend selectivity.
pub fn e2(scale: Scale) -> Vec<Table> {
    let s = parse_scenario(university::PROGRAM);
    let with = plan_for(&s, &["doctoral"]);
    let without = plan_for(&s, &[]);
    let mut t = Table::new(
        "E2 — atom introduction (Ex. 4.2: doctoral into eval_support)",
        &[
            "rich_frac",
            "doctoral",
            "pays",
            "no-intro time",
            "intro time",
            "no-intro rows",
            "intro rows",
        ],
    );
    for &frac in scale.pick(&[0.1f64, 0.9][..], &[0.05f64, 0.2, 0.5, 0.9][..]) {
        let db = university::generate(&university::UniversityParams {
            professors: scale.pick(48, 96),
            students: scale.pick(150, 400),
            rich_frac: frac,
            ..university::UniversityParams::default()
        });
        let (base, tb) = timed(|| evaluate(&db, &without.program, Strategy::SemiNaive).unwrap());
        let (opt, to) = timed(|| evaluate(&db, &with.program, Strategy::SemiNaive).unwrap());
        check_equal(&base, &opt, "eval_support");
        t.row(vec![
            format!("{frac:.2}"),
            db.count("doctoral").to_string(),
            db.count("pays").to_string(),
            ms(tb),
            ms(to),
            base.stats.rows_scanned.to_string(),
            opt.stats.rows_scanned.to_string(),
        ]);
    }
    t.note("both programs carry the same recursive optimization; the delta is the introduced doctoral guard on the rich branch.");
    vec![t]
}

/// E3 — subtree pruning: full evaluation (honest overhead on consistent
/// data) and goal-directed evaluation where the query binds the pruning
/// condition.
pub fn e3(scale: Scale) -> Vec<Table> {
    let s = parse_scenario(genealogy::PROGRAM);
    let plan = plan_for(&s, &[]);
    let db = genealogy::generate(&genealogy::GenealogyParams {
        families: scale.pick(4, 8),
        depth: scale.pick(5, 7),
        branching: 2,
        seed: 7,
    });

    let mut full = Table::new(
        "E3a — pruning under full evaluation (Ex. 4.3)",
        &["system", "time", "rows", "anc tuples"],
    );
    let (base, tb) = timed(|| evaluate(&db, &plan.rectified, Strategy::SemiNaive).unwrap());
    let (opt, to) = timed(|| evaluate(&db, &plan.program, Strategy::SemiNaive).unwrap());
    check_equal(&base, &opt, "anc");
    full.row(vec![
        "original".into(),
        ms(tb),
        base.stats.rows_scanned.to_string(),
        base.relation("anc").unwrap().len().to_string(),
    ]);
    full.row(vec![
        "pruned".into(),
        ms(to),
        opt.stats.rows_scanned.to_string(),
        opt.relation("anc").unwrap().len().to_string(),
    ]);
    full.note("on IC-consistent data the pruned pattern never materializes in bottom-up evaluation — pruning adds chain overhead and saves nothing; this quantifies the limit of the paper's claim for data-driven engines.");

    let mut magic = Table::new(
        "E3b — pruning × magic sets (goal binds the ancestor's age)",
        &["bound age", "orig rows", "pruned rows", "answers"],
    );
    // One young and one old parent age present in the data.
    let rel = db.get(Pred::new("par")).unwrap();
    let mut ages = Vec::new();
    for probe in [|a: i64| a <= 50, |a: i64| a > 100] {
        if let Some(t) = rel
            .iter()
            .find(|t| matches!(t[3].value(), Value::Int(a) if probe(a)))
        {
            if let Value::Int(a) = t[3].value() {
                ages.push(a);
            }
        }
    }
    for age in ages {
        let mut goal = parse_atom("anc(X, Xa, Y, Ya)").unwrap();
        goal.args[3] = Term::Const(Value::Int(age));
        let (a1, r1) = evaluate_query(&db, &plan.rectified, &goal).unwrap();
        let (a2, r2) = evaluate_query(&db, &plan.program, &goal).unwrap();
        assert_eq!(a1, a2);
        magic.row(vec![
            age.to_string(),
            r1.stats.rows_scanned.to_string(),
            r2.stats.rows_scanned.to_string(),
            a1.len().to_string(),
        ]);
    }
    magic.note("with the age bound, the strict chain's Ya > 50 guard makes deep exploration statically dead for young goals.");

    // E3c: the same bound-age goals under tabled top-down evaluation —
    // the evaluation model the paper's proof-tree argument presumes.
    let mut td = Table::new(
        "E3c — pruning × tabled top-down evaluation",
        &[
            "bound age",
            "orig expansions",
            "pruned expansions",
            "orig resolutions",
            "pruned resolutions",
            "answers",
        ],
    );
    let rel = db.get(Pred::new("par")).unwrap();
    let mut ages = Vec::new();
    for probe in [|a: i64| a <= 50, |a: i64| a > 100] {
        if let Some(tp) = rel
            .iter()
            .find(|t| matches!(t[3].value(), Value::Int(a) if probe(a)))
        {
            if let Value::Int(a) = tp[3].value() {
                ages.push(a);
            }
        }
    }
    for age in ages {
        let mut goal = parse_atom("anc(X, Xa, Y, Ya)").unwrap();
        goal.args[3] = Term::Const(Value::Int(age));
        let (a1, s1) = query_topdown(&db, &plan.rectified, &goal).unwrap();
        let (a2, s2) = query_topdown(&db, &plan.program, &goal).unwrap();
        assert_eq!(a1, a2);
        td.row(vec![
            age.to_string(),
            s1.expansions.to_string(),
            s2.expansions.to_string(),
            s1.resolutions.to_string(),
            s2.resolutions.to_string(),
            a1.len().to_string(),
        ]);
    }
    td.note("with bound-first resolution, tabled top-down exploration is data-driven too: the guards never fire on consistent data and the chain structure adds expansions — confirming E3a/E3b's finding in the paper's own evaluation model.");

    // E3d: non-tabled, depth-bounded SLD — the speculative prover of the
    // paper's era. Here the pushed guard finally pays: a young-bound goal
    // makes the committed chain die at rule entry, while the original
    // program expands the unbound recursion to the depth bound.
    let small = genealogy::generate(&genealogy::GenealogyParams {
        families: 2,
        depth: 4,
        branching: 2,
        seed: 7,
    });
    let mut sld = Table::new(
        "E3d — pruning × depth-bounded SLD (no tabling)",
        &[
            "bound age",
            "orig expansions",
            "pruned expansions",
            "saved",
            "answers",
        ],
    );
    let rel = small.get(Pred::new("par")).unwrap();
    let mut ages = Vec::new();
    for probe in [|a: i64| a <= 50, |a: i64| a > 100] {
        if let Some(tp) = rel
            .iter()
            .find(|t| matches!(t[3].value(), Value::Int(a) if probe(a)))
        {
            if let Value::Int(a) = tp[3].value() {
                ages.push(a);
            }
        }
    }
    let config = SldConfig {
        max_depth: scale.pick(8, 10),
        max_expansions: 4_000_000,
    };
    for age in ages {
        let mut goal = parse_atom("anc(X, Xa, Y, Ya)").unwrap();
        goal.args[3] = Term::Const(Value::Int(age));
        let (a1, s1, _) = query_sld(&small, &plan.rectified, &goal, config).unwrap();
        let (a2, s2, _) = query_sld(&small, &plan.program, &goal, config).unwrap();
        assert_eq!(a1, a2, "SLD answers diverged at age {age}");
        sld.row(vec![
            age.to_string(),
            s1.expansions.to_string(),
            s2.expansions.to_string(),
            ratio(s1.expansions, s2.expansions),
            a1.len().to_string(),
        ]);
    }
    sld.note("the paper's claimed benefit, demonstrated in its native evaluation model: for goals binding the pruning condition, whole speculative search subtrees are cut before touching the database.");
    vec![full, magic, td, sld]
}

/// E4 — compile-time transformation vs the evaluation-based (per-
/// iteration) baseline: run-time overhead decomposition.
pub fn e4(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "E4 — compile-time vs evaluation-based semantic optimization",
        &[
            "scenario",
            "rounds",
            "compiled: optimize once",
            "compiled: eval",
            "baseline: re-optimize total",
            "baseline: total",
            "residue computations",
        ],
    );
    let cases: Vec<(&str, Scenario, Database, &str)> = vec![
        (
            "org",
            parse_scenario(org::PROGRAM),
            org::generate(&org::OrgParams {
                employees: scale.pick(150, 500),
                ..org::OrgParams::default()
            }),
            "triple",
        ),
        (
            "university",
            parse_scenario(university::PROGRAM),
            university::generate(&university::UniversityParams {
                professors: scale.pick(48, 96),
                students: scale.pick(100, 300),
                ..university::UniversityParams::default()
            }),
            "eval",
        ),
        (
            "genealogy",
            parse_scenario(genealogy::PROGRAM),
            genealogy::generate(&genealogy::GenealogyParams {
                families: scale.pick(3, 6),
                depth: scale.pick(5, 6),
                ..genealogy::GenealogyParams::default()
            }),
            "anc",
        ),
        (
            "fanout",
            parse_scenario(fanout::PROGRAM),
            fanout::generate(&fanout::FanoutParams {
                nodes: scale.pick(120, 250),
                fanout: scale.pick(8, 16),
                ..fanout::FanoutParams::default()
            }),
            "reach",
        ),
    ];
    for (name, s, db, pred) in cases {
        let (plan, compile_time) = timed(|| plan_for(&s, &["doctoral"]));
        let (opt, eval_time) = timed(|| evaluate(&db, &plan.program, Strategy::SemiNaive).unwrap());
        let (rt, rt_total) =
            timed(|| evaluate_with_runtime_semantics(&db, &s.program, &s.constraints).unwrap());
        check_equal(&opt, &rt.result, pred);
        t.row(vec![
            name.into(),
            rt.rounds.to_string(),
            ms(compile_time),
            ms(eval_time),
            ms(rt.optimization_time),
            ms(rt_total),
            rt.residue_computations.to_string(),
        ]);
    }
    t.note("the compiled approach pays its optimization cost once; the evaluation-based baseline re-derives rule-level residues every round (claim (ii) of §1).");
    t.note("the baseline's residues are rule-level only — the sequence-spanning optimizations of Ex. 3.2/4.1/4.3 are out of its reach (claim (i)).");
    vec![t]
}

/// E5 — Algorithm 3.1 (SD-graph) vs exhaustive sequence enumeration for
/// residue detection, scaling the IC chain length.
pub fn e5(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "E5 — residue detection: Algorithm 3.1 vs exhaustive enumeration",
        &[
            "ic atoms k",
            "sdgraph",
            "exhaustive",
            "speedup",
            "found (both)",
        ],
    );
    let kmax = scale.pick(4, 5);
    for k in 2..=kmax {
        let (program, ic) = chain_detection_workload(k);
        let (prog, _) = rectify(&program);
        let info = classify_linear_pred(&prog, Pred::new("p")).unwrap();
        let (sd, t_sd) = timed(|| detect(&prog, &info, &ic, DetectionMethod::SdGraph, 0).unwrap());
        let (ex, t_ex) = timed(|| {
            detect(
                &prog,
                &info,
                &ic,
                DetectionMethod::Exhaustive { max_len: k + 1 },
                0,
            )
            .unwrap()
        });
        // Every SD detection is found exhaustively.
        for d in &sd {
            assert!(
                ex.iter()
                    .any(|e| e.residue.seq == d.residue.seq && e.residue.head == d.residue.head),
                "missing {:?}",
                d.residue.seq
            );
        }
        t.row(vec![
            k.to_string(),
            format!("{:.0}µs", t_sd.as_secs_f64() * 1e6),
            format!("{:.0}µs", t_ex.as_secs_f64() * 1e6),
            format!("{:.1}x", t_ex.as_secs_f64() / t_sd.as_secs_f64().max(1e-9)),
            format!("{}/{}", sd.len(), ex.len()),
        ]);
    }
    t.note("the program has two recursive rules, so exhaustive enumeration grows as 2^k while the SD-graph proposes the matching path directly.");
    vec![t]
}

/// A linear program with two recursive rules and an IC whose chain of `k`
/// atoms spans `k` levels of the first rule.
pub fn chain_detection_workload(k: usize) -> (Program, semrec_datalog::Constraint) {
    // p(X1, X2) with rule 1 stepping through `a` and rule 2 through `z`.
    let src = "
        p(X1, X2) :- e(X1, X2).
        p(X1, X2) :- a(X1, W), p(W, X2).
        p(X1, X2) :- z(X1, W), p(W, X2).
    ";
    let program = parse_unit(src).unwrap().program();
    // IC: a(V1, V2), a(V2, V3), …, a(Vk, Vk+1) -> q(V1, Vk+1).
    let atoms: Vec<String> = (0..k).map(|i| format!("a(V{}, V{})", i, i + 1)).collect();
    let ic_src = format!("ic: {} -> q(V0, V{k}).", atoms.join(", "));
    let ic = semrec_datalog::parse_constraints(&ic_src)
        .unwrap()
        .remove(0);
    (program, ic)
}

/// E6 — free residues vs expanded-form (CGM) residues: how many are
/// directly usable for query-independent optimization.
pub fn e6(_scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "E6 — free (sequence) residues vs CGM rule-level residues",
        &[
            "scenario",
            "ic",
            "CGM residues",
            "directly usable",
            "free detections",
            "useful/pushable",
        ],
    );
    for (name, src) in [
        ("org", org::PROGRAM),
        ("university", university::PROGRAM),
        ("genealogy", genealogy::PROGRAM),
        ("fanout", fanout::PROGRAM),
    ] {
        let s = parse_scenario(src);
        let (prog, _) = rectify(&s.program);
        let infos = semrec_datalog::analysis::classify_linear(&prog).unwrap();
        for ic in &s.constraints {
            let mut cgm = 0usize;
            let mut usable = 0usize;
            for rule in &prog.rules {
                for r in semrec_core::expand::rule_residues(ic, rule) {
                    cgm += 1;
                    if r.directly_usable() && !r.is_trivial() {
                        usable += 1;
                    }
                }
            }
            let mut free = 0usize;
            let mut useful = 0usize;
            for info in &infos {
                let ds = detect(&prog, info, ic, DetectionMethod::SdGraph, 3).unwrap();
                free += ds.len();
                useful += ds
                    .iter()
                    .filter(|d| d.residue.is_useful() || d.residue.is_null())
                    .count();
            }
            t.row(vec![
                name.into(),
                ic.name.map(|n| n.as_str().to_owned()).unwrap_or_default(),
                cgm.to_string(),
                usable.to_string(),
                free.to_string(),
                useful.to_string(),
            ]);
        }
    }
    t.note("CGM residues against recursive rules are mostly trivial or carry query-anticipating conditions (Ex. 3.2); free sequence residues are what the program transformation can push.");
    vec![t]
}

/// E7 — query independence: the transformed program under different
/// binding patterns, with magic sets on top.
pub fn e7(scale: Scale) -> Vec<Table> {
    let s = parse_scenario(fanout::PROGRAM);
    let plan = plan_for(&s, &[]);
    let db = fanout::generate(&fanout::FanoutParams {
        nodes: scale.pick(150, 400),
        extra_edges: scale.pick(60, 200),
        fanout: scale.pick(8, 16),
        seed: 3,
    });
    let mut t = Table::new(
        "E7 — query independence: bindings × (original|optimized) × magic",
        &["goal", "orig rows", "opt rows", "answers"],
    );
    for goal_src in ["reach(0, Y)", "reach(X, 17)", "reach(3, 17)", "reach(X, Y)"] {
        let goal = parse_atom(goal_src).unwrap();
        let (a1, r1) = evaluate_query(&db, &plan.rectified, &goal).unwrap();
        let (a2, r2) = evaluate_query(&db, &plan.program, &goal).unwrap();
        assert_eq!(a1, a2, "magic mismatch at {goal_src}");
        t.row(vec![
            goal_src.into(),
            r1.stats.rows_scanned.to_string(),
            r2.stats.rows_scanned.to_string(),
            a1.len().to_string(),
        ]);
    }
    t.note("the same compiled transformation serves every binding pattern (claim (i) of §1) and composes with magic sets (§6's analogy).");
    vec![t]
}

/// E8 — ablation: the cost of isolation alone (faithful Algorithm 4.1 and
/// the full-commitment variant) with no optimization applied.
pub fn e8(scale: Scale) -> Vec<Table> {
    let unit = parse_unit("anc(X, Y) :- par(X, Y). anc(X, Y) :- anc(X, Z), par(Z, Y).").unwrap();
    let (prog, _) = rectify(&unit.program());
    let info = classify_linear_pred(&prog, Pred::new("anc")).unwrap();
    let db = semrec_gen::graphs::tree("par", scale.pick(2_000, 10_000), 2);

    let mut t = Table::new(
        "E8 — isolation overhead ablation (no optimization applied)",
        &["k", "rules", "time", "rows", "vs original"],
    );
    let (base, tb) = timed(|| evaluate(&db, &prog, Strategy::SemiNaive).unwrap());
    t.row(vec![
        "-".into(),
        prog.len().to_string(),
        ms(tb),
        base.stats.rows_scanned.to_string(),
        "1.00x".into(),
    ]);
    for k in 1..=4usize {
        let seq = vec![1usize; k];
        let u = unfold(&prog, &info, &seq).unwrap();
        let iso = isolate(&prog, &info, &u);
        let (r, td) = timed(|| evaluate(&db, &iso.program, Strategy::SemiNaive).unwrap());
        check_equal(&base, &r, "anc");
        t.row(vec![
            k.to_string(),
            iso.program.len().to_string(),
            ms(td),
            r.stats.rows_scanned.to_string(),
            ratio(r.stats.rows_scanned, base.stats.rows_scanned),
        ]);
    }
    t.note("isolating a length-k sequence multiplies rule count and per-tuple bookkeeping; an optimization must beat this floor to pay off (cf. E1).");
    vec![t]
}

/// E9 — intelligent query answering latency and outcomes (Ex. 5.1).
pub fn e9(_scale: Scale) -> Vec<Table> {
    let program = parse_unit(
        "honors(Stud) :- transcript(Stud, Major, Cred, Gpa), Cred >= 30, Gpa >= 38.
         honors(Stud) :- transcript(Stud, Major, Cred, Gpa), Gpa >= 38, exceptional(Stud).
         exceptional(Stud) :- publication(Stud, P), appears(P, Jl), reputed(Jl).
         honors(Stud) :- graduated(Stud, College), topten(College).",
    )
    .unwrap()
    .program();
    let mut t = Table::new(
        "E9 — intelligent query answering (Ex. 5.1)",
        &[
            "query",
            "relevant",
            "irrelevant",
            "qualified",
            "needs-more",
            "time",
        ],
    );
    for q in [
        "describe honors(S) where major(S, cs), graduated(S, C), topten(C), hobby(S, chess).",
        "describe honors(S) where transcript(S, M, Cr, G), G >= 38.",
        "describe honors(S) where transcript(S, M, Cr, G), Cr >= 30, G >= 38.",
        "describe honors(S).",
    ] {
        let query = semrec_iqa::parse_describe(q).unwrap();
        let (a, d) = timed(|| semrec_iqa::answer(&program, &query, 4));
        let qualified = a
            .trees
            .iter()
            .filter(|x| x.verdict == semrec_iqa::TreeVerdict::Qualified)
            .count();
        let needs = a
            .trees
            .iter()
            .filter(|x| matches!(x.verdict, semrec_iqa::TreeVerdict::NeedsMore { .. }))
            .count();
        t.row(vec![
            q.chars().take(58).collect(),
            a.relevant.len().to_string(),
            a.irrelevant.len().to_string(),
            qualified.to_string(),
            needs.to_string(),
            format!("{:.0}µs", d.as_secs_f64() * 1e6),
        ]);
    }
    vec![t]
}

/// Runs an experiment by id.
pub fn run(id: &str, scale: Scale) -> Option<Vec<Table>> {
    match id {
        "e1" => Some(e1(scale)),
        "e2" => Some(e2(scale)),
        "e3" => Some(e3(scale)),
        "e4" => Some(e4(scale)),
        "e5" => Some(e5(scale)),
        "e6" => Some(e6(scale)),
        "e7" => Some(e7(scale)),
        "e8" => Some(e8(scale)),
        "e9" => Some(e9(scale)),
        _ => None,
    }
}

/// All experiment ids.
pub const ALL: [&str; 9] = ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9"];

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: Scale = Scale { quick: true };

    #[test]
    fn all_experiments_run_quick() {
        for id in ALL {
            let tables = run(id, QUICK).expect("known id");
            assert!(!tables.is_empty(), "{id} produced no tables");
            for t in &tables {
                assert!(!t.rows.is_empty(), "{id} produced an empty table");
            }
        }
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run("e42", QUICK).is_none());
    }

    #[test]
    fn chain_workload_validates() {
        for k in 2..=4 {
            let (p, ic) = chain_detection_workload(k);
            semrec_datalog::analysis::validate(&p, &[ic]).unwrap();
        }
    }
}
