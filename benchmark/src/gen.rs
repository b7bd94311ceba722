//! Seeded inputs and the independent oracles their outputs are checked
//! against. Nothing here touches a product crate: inputs are `.dl` text
//! and wire-protocol request lines, oracles are closed forms and a BFS.
//!
//! Every size is a constant on purpose (README.md says why each was
//! chosen); the seed moves only what must not matter to the metrics —
//! which random edges, which noise constraints, which order of goals.

use std::collections::BTreeSet;
use std::fmt::Write as _;

/// SplitMix64, a private copy so the benchmark's inputs cannot change
/// when the product's generator crate does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias at these sizes is below 1e-15).
    pub fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % u64::from(n)) as u32
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    FixpointCli,
    CompileCli,
    ServeRead,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FixpointCli,
        Workload::CompileCli,
        Workload::ServeRead,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FixpointCli => "fixpoint_cli",
            Workload::CompileCli => "compile_cli",
            Workload::ServeRead => "serve_read",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    pub fn parse(name: &str) -> Result<Workload, String> {
        let known = Workload::ALL.into_iter().find(|w| w.name() == name);
        known.ok_or_else(|| format!("unknown workload `{name}`"))
    }
}

// ---- fixpoint_cli ----------------------------------------------------

/// 640 000 IDB rows, ≈ 0.15 s per process: the sandbox's speed moves
/// within seconds, so a run wants many short samples, not a few long ones.
pub const FIXPOINT_NODES: u32 = 800;
pub const FIXPOINT_EXTRA_EDGES: usize = 400;
pub const FIXPOINT_FANOUT: u32 = 16;
pub const FIXPOINT_GOAL: &str = "reach(0, Y)";

const GUARDED_REACH: &str = "reach(X, Y) :- edge(X, Y).\n\
     reach(X, Y) :- edge(X, Z), witness(Z, W), reach(Z, Y).\n\
     ic ic1: edge(X, Z) -> witness(Z, W).\n";

pub struct Fixpoint {
    /// Program, constraint and facts.
    pub text: String,
    /// Every `Y` with a path of at least one edge from node 0, ascending:
    /// the expected answers to [`FIXPOINT_GOAL`].
    pub reachable: Vec<u32>,
}

/// The fanout scenario: a chain plus seeded extra edges, every node
/// carrying [`FIXPOINT_FANOUT`] witnesses, so the constraint holds and
/// the witness join is pure overhead the rewrite removes. One of the
/// extra edges always closes the chain into a cycle: every node then
/// reaches every node, and the rows derived (edges × nodes) and kept
/// (nodes²) are the same for every seed — only the shortcuts, and with
/// them the number of rounds, move.
pub fn fixpoint(seed: u64) -> Fixpoint {
    let n = FIXPOINT_NODES;
    let mut rng = Rng::new(seed);
    let mut edges: BTreeSet<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    while edges.len() < n as usize - 1 + FIXPOINT_EXTRA_EDGES {
        let (a, b) = (rng.below(n), rng.below(n));
        if a != b {
            edges.insert((a, b));
        }
    }
    let mut text = String::from(GUARDED_REACH);
    for (a, b) in &edges {
        let _ = writeln!(text, "edge({a}, {b}).");
    }
    for v in 0..n {
        for w in 0..FIXPOINT_FANOUT {
            let _ = writeln!(text, "witness({v}, {}).", v * 1000 + w);
        }
    }

    let mut succ: Vec<Vec<u32>> = vec![Vec::new(); n as usize];
    for &(a, b) in &edges {
        succ[a as usize].push(b);
    }
    let mut seen = vec![false; n as usize];
    let mut frontier = vec![0u32];
    while let Some(v) = frontier.pop() {
        for &t in &succ[v as usize] {
            if !seen[t as usize] {
                seen[t as usize] = true;
                frontier.push(t);
            }
        }
    }
    let reachable = (0..n).filter(|&v| seen[v as usize]).collect();
    Fixpoint { text, reachable }
}

/// Parses CLI answer lines `reach(0, Y).` back into the sorted `Y`s;
/// `None` if any line has another shape.
pub fn parse_fixpoint_answers(stdout: &str) -> Option<Vec<u32>> {
    let mut ys = Vec::new();
    for line in stdout.lines() {
        let y = line.strip_prefix("reach(0, ")?.strip_suffix(").")?;
        ys.push(y.parse().ok()?);
    }
    ys.sort_unstable();
    Some(ys)
}

// ---- compile_cli -----------------------------------------------------

/// 800 constraints against 160 predicates, ≈ 0.25 s per process.
pub const COMPILE_BLOCKS: u32 = 160;
/// The second operation class compiles the first half, which puts a
/// second point on the constraints → time curve.
pub const COMPILE_BLOCKS_HALF: u32 = COMPILE_BLOCKS / 2;
pub const COMPILE_NOISE_PER_BLOCK: u32 = 4;

/// `blocks` independent recursive predicates, each with the one
/// constraint that lets its witness atom be eliminated, plus seeded
/// constraints of three shapes that mention another block and therefore
/// can never apply: the optimizer must still look at every one. No
/// facts: nothing is evaluated.
pub fn compile(seed: u64, blocks: u32) -> String {
    let mut rng = Rng::new(seed);
    let mut text = String::new();
    for i in 0..blocks {
        let _ = writeln!(text, "p{i}(X, Y) :- e{i}(X, Y).");
        let _ = writeln!(text, "p{i}(X, Y) :- e{i}(X, Z), w{i}(Z, W), p{i}(Z, Y).");
    }
    for i in 0..blocks {
        let _ = writeln!(text, "ic u{i}: e{i}(X, Z) -> w{i}(Z, W).");
        for s in 0..COMPILE_NOISE_PER_BLOCK {
            let j = (i + 1 + rng.below(blocks - 1)) % blocks;
            let _ = match (i * COMPILE_NOISE_PER_BLOCK + s) % 3 {
                0 => writeln!(text, "ic n{i}_{s}: e{i}(X, Z), e{j}(Z, V) -> w{j}(V, W)."),
                1 => {
                    let c = rng.below(1000);
                    writeln!(text, "ic n{i}_{s}: e{i}(X, Z), X > {c} -> w{j}(X, W).")
                }
                _ => writeln!(text, "ic n{i}_{s}: e{i}(X, Z), w{j}(X, Z) -> ."),
            };
        }
    }
    text
}

/// Residues the optimizer reports as pushed, read off `semrec optimize`
/// output; the oracle is one per block.
pub fn applied_lines(plan_text: &str) -> usize {
    plan_text
        .lines()
        .filter(|l| l.starts_with("applied "))
        .count()
}

// ---- serve workloads: the witnessed chain ----------------------------

pub const READ_CHAIN: u32 = 2000;
pub const READ_HOT_GOALS: u32 = 64;
pub const MIXED_CHAIN: u32 = 1000;
pub const MIXED_SPURS_PER_CYCLE: usize = 4;
pub const MIXED_WARMUP_CYCLES: usize = 2;
pub const MIXED_RECHECK_GOALS: usize = 20;

/// Nodes `0..=n` in a chain, one witness each: `reach` holds exactly the
/// pairs `i < j`, which makes every reply's row count a closed form.
pub fn chain(n: u32) -> String {
    let mut text = String::from(GUARDED_REACH);
    for i in 0..n {
        let _ = writeln!(text, "edge({i}, {}).", i + 1);
        let _ = writeln!(text, "witness({i}, {}).", 10_000 + i);
    }
    let _ = writeln!(text, "witness({n}, {}).", 10_000 + n);
    text
}

pub struct Goal {
    /// The atom as sent after `query `, without the final dot.
    pub atom: String,
    /// Rows the reply must carry on the unmodified chain.
    pub rows: u32,
}

/// Goal number `k` of the `2n` bound goals on a chain of `n` edges:
/// `reach(k, Y)` for `k < n`, then `reach(X, j)` for `j = 1..=n`.
pub fn chain_goal(n: u32, k: u32) -> Goal {
    if k < n {
        Goal {
            atom: format!("reach({k}, Y)"),
            rows: n - k,
        }
    } else {
        let j = k - n + 1;
        Goal {
            atom: format!("reach(X, {j})"),
            rows: j,
        }
    }
}

/// A full-period walk over `0..modulus`: seeded start, seeded stride
/// coprime to the modulus, so every value comes up once per period and
/// consecutive values are far apart.
pub struct Walk {
    pos: u32,
    stride: u32,
    modulus: u32,
}

impl Walk {
    pub fn new(rng: &mut Rng, modulus: u32) -> Walk {
        let gcd = |mut a: u32, mut b: u32| {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a
        };
        let stride = loop {
            let s = modulus / 4 + rng.below(modulus / 2);
            if gcd(s, modulus) == 1 {
                break s;
            }
        };
        Walk {
            pos: rng.below(modulus),
            stride,
            modulus,
        }
    }
}

impl Iterator for Walk {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let at = self.pos;
        self.pos = (self.pos + self.stride) % self.modulus;
        Some(at)
    }
}

/// The `serve_read` goal streams: a cold walk over all `2n` goals (more
/// than the daemon's 1024-entry answer cache, so it never hits) and
/// [`READ_HOT_GOALS`] fixed goals spread evenly over the same space (so
/// both classes average the same reply size) that fit the cache.
pub fn read_goals(seed: u64) -> (Walk, Vec<Goal>) {
    let mut rng = Rng::new(seed);
    let space = 2 * READ_CHAIN;
    let cold = Walk::new(&mut rng, space);
    let gap = space / READ_HOT_GOALS;
    let offset = rng.below(gap);
    let hot = (0..READ_HOT_GOALS)
        .map(|h| chain_goal(READ_CHAIN, h * gap + offset))
        .collect();
    (cold, hot)
}

/// A fresh node hung off chain position `at`, with the witness the
/// constraint demands.
#[derive(Clone, Copy)]
pub struct Spur {
    pub at: u32,
    pub node: u32,
    pub witness: u32,
}

pub type Cycle = [Spur; MIXED_SPURS_PER_CYCLE];

/// Write cycles run for `seconds` of budget: a fixed amount of work, so
/// the numbers do not depend on how fast the commits go. At the first
/// measurement a cycle took about half a second.
pub fn mixed_cycle_count(seconds: u32) -> usize {
    MIXED_WARMUP_CYCLES + 2 * seconds as usize
}

/// The `serve_mixed` write script. Cycle `c` inserts four spurs, one
/// commit each, then deletes all four in a fifth commit, so the database
/// is back at the plain chain every five commits. Spur `j` of a cycle
/// sits at a seeded position in the `j`-th quarter of the chain: every
/// seed sees the same mix of delta sizes.
pub fn mixed_cycles(seed: u64, count: usize) -> Vec<Cycle> {
    let mut rng = Rng::new(seed);
    let quarter = MIXED_CHAIN / MIXED_SPURS_PER_CYCLE as u32;
    (0..count)
        .map(|c| {
            std::array::from_fn(|j| {
                let id = (c * MIXED_SPURS_PER_CYCLE + j) as u32;
                Spur {
                    at: j as u32 * quarter + rng.below(quarter),
                    node: 100_000 + id,
                    witness: 200_000 + id,
                }
            })
        })
        .collect()
}

pub fn insert_request(s: &Spur) -> String {
    format!(
        "+edge({}, {}).\n+witness({}, {}).\ncommit.\n",
        s.at, s.node, s.node, s.witness
    )
}

pub fn delete_request(cycle: &Cycle) -> String {
    let mut req = String::new();
    for s in cycle {
        let _ = writeln!(req, "-edge({}, {}).", s.at, s.node);
        let _ = writeln!(req, "-witness({}, {}).", s.node, s.witness);
    }
    req.push_str("commit.\n");
    req
}

/// Rows of `reach(i, Y)` at `epoch` of the write script: the chain's
/// `n - i` plus the live spurs at or after `i`. One writer commits in
/// order, so the epoch alone says which spurs are live: the first
/// `epoch % 5` of cycle `epoch / 5`.
pub fn mixed_rows_at(cycles: &[Cycle], epoch: u64, i: u32) -> Option<u32> {
    let per_cycle = MIXED_SPURS_PER_CYCLE as u64 + 1;
    let live = (epoch % per_cycle) as usize;
    let spurs: &[Spur] = match cycles.get((epoch / per_cycle) as usize) {
        Some(c) => &c[..live],
        None if live == 0 && epoch / per_cycle == cycles.len() as u64 => &[],
        None => return None,
    };
    Some(MIXED_CHAIN - i + spurs.iter().filter(|s| s.at >= i).count() as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(fixpoint(7).text, fixpoint(7).text);
        assert_ne!(fixpoint(7).text, fixpoint(8).text);
        assert_eq!(compile(7, 20), compile(7, 20));
    }

    #[test]
    fn walk_visits_every_goal_once_per_period() {
        let mut seen = vec![false; 4000];
        for k in Walk::new(&mut Rng::new(3), 4000).take(4000) {
            assert!(!std::mem::replace(&mut seen[k as usize], true));
        }
    }

    #[test]
    fn closed_forms() {
        assert_eq!(chain_goal(2000, 0).rows, 2000);
        assert_eq!(chain_goal(2000, 1999).rows, 1);
        assert_eq!(chain_goal(2000, 2000).atom, "reach(X, 1)");
        assert_eq!(chain_goal(2000, 3999).rows, 2000);
        let cycles = mixed_cycles(1, 3);
        assert_eq!(mixed_rows_at(&cycles, 0, 0), Some(1000));
        assert_eq!(mixed_rows_at(&cycles, 4, 0), Some(1004));
        assert_eq!(mixed_rows_at(&cycles, 5, 0), Some(1000));
        assert_eq!(mixed_rows_at(&cycles, 15, 10), Some(990));
        assert_eq!(mixed_rows_at(&cycles, 16, 10), None);
    }
}
