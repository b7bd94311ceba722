//! What the `e2e` and `layers` bins share for reporting: order
//! statistics, the operation ledger behind `attempted`/`failed`, the
//! metric table and the one-line JSON result the driver reads, and the
//! `name value` summary file that carries end-to-end numbers into the
//! traced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Latency (or any) samples of one operation class.
#[derive(Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Books the latency of an operation that passed its check; a failed
    /// one (`None`) is in the ledger, not in the timings.
    pub fn push_some(&mut self, v: Option<f64>) {
        self.0.extend(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Linear-interpolated quantile; 0 for an empty class, which the
    /// ledger has by then counted as a failure.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut v = self.0.clone();
        if v.is_empty() {
            return 0.0;
        }
        v.sort_by(|a, b| a.total_cmp(b));
        let at = q * (v.len() - 1) as f64;
        let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn fastest(&self) -> f64 {
        self.quantile(0.0)
    }

    /// The mean of the middle half of the samples. As robust as the
    /// median against a burst of slow samples, but it moves smoothly
    /// where the median jumps: socket latencies here end on the 4 ms grid
    /// of the kernel's delayed-ACK timer, and their median flips between
    /// grid points from run to run.
    pub fn midmean(&self) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(|a, b| a.total_cmp(b));
        let middle = &v[v.len() / 4..v.len() - v.len() / 4];
        middle.iter().sum::<f64>() / middle.len().max(1) as f64
    }

    /// `n=12 q1=1.13 p50=1.15 q3=1.19`, scaled into the metric's unit.
    pub fn spread(&self, scale: f64) -> String {
        format!(
            "n={} q1={:.4} p50={:.4} q3={:.4}",
            self.len(),
            self.quantile(0.25) * scale,
            self.p50() * scale,
            self.quantile(0.75) * scale
        )
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Sample count, quartiles, or what the number means on this workload.
    pub note: String,
    /// False for a metric this workload cannot produce: the JSON line
    /// still carries it, as 0, but the table leaves it out.
    pub measured: bool,
}

/// One run's result: metrics plus the ledger of operations attempted and
/// failed (errored, refused, exited non-zero, or failed their oracle).
pub struct Report {
    pub workload: &'static str,
    /// The metrics BENCHMARK.json names: the JSON line carries these.
    pub metrics: Vec<Metric>,
    /// Further end-to-end numbers of this workload, printed and handed
    /// to the traced run, where they become `socket.*`/`cli.*` metrics.
    pub extras: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            metrics: Vec::new(),
            extras: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Books one operation; a failure is logged to stderr with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("[{}] FAILED: {}", self.workload, what());
            }
        }
    }

    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64, note: String) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            note,
            measured: true,
        });
    }

    /// A metric that is a statistic of `samples`: `value` × `scale` in
    /// `unit`, noted with the samples' count, quartiles and median and
    /// with `what` it is on this workload.
    pub fn sampled(
        &mut self,
        name: &'static str,
        (unit, scale): (&'static str, f64),
        value: f64,
        samples: &Samples,
        what: &str,
    ) {
        let note = format!("{} {what}", samples.spread(scale));
        self.metric(name, unit, value * scale, note);
    }

    /// A metric of a layer this workload does not cross.
    pub fn absent(&mut self, name: &'static str, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            unit,
            value: 0.0,
            note: String::new(),
            measured: false,
        });
    }

    pub fn extra(&mut self, name: &'static str, unit: &'static str, value: f64, note: String) {
        self.extras.push(Metric {
            name,
            unit,
            value,
            note,
            measured: true,
        });
    }

    /// The table for people, then, as the last line, the JSON object for
    /// the driver.
    pub fn print(&self) {
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "[{}] attempted={} failed={} failed_share={share}",
            self.workload, self.attempted, self.failed
        );
        for m in self
            .metrics
            .iter()
            .chain(&self.extras)
            .filter(|m| m.measured)
        {
            println!(
                "[{}] {:<34} {:>16.6} {:<6} {}",
                self.workload, m.name, m.value, m.unit, m.note
            );
        }
        let absent = self.metrics.iter().filter(|m| !m.measured).count();
        if absent > 0 {
            println!(
                "[{}] {absent} metrics of layers this workload does not cross are 0",
                self.workload
            );
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// The ledger and the end-to-end numbers handed from `e2e` to `layers` as
/// `name value` lines, so the traced run can say what the sockets and the process
/// boundary cost on top of the in-process calls.
pub fn write_summary(path: &Path, report: &Report) -> std::io::Result<()> {
    let mut text = format!("attempted {}\nfailed {}\n", report.attempted, report.failed);
    for m in report.metrics.iter().chain(&report.extras) {
        let _ = writeln!(text, "{} {}", m.name, m.value);
    }
    std::fs::write(path, text)
}

pub fn read_summary(path: &Path) -> std::io::Result<BTreeMap<String, f64>> {
    let text = std::fs::read_to_string(path)?;
    Ok(text
        .lines()
        .filter_map(|l| {
            let (name, v) = l.split_once(' ')?;
            Some((name.to_owned(), v.parse().ok()?))
        })
        .collect())
}

/// Command-line flags of the form `--name value`, as both bins take them.
pub struct Flags(Vec<String>);

impl Flags {
    pub fn from_env() -> Flags {
        Flags(std::env::args().skip(1).collect())
    }

    pub fn get(&self, name: &str) -> Result<&str, String> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name} <value>"))
    }

    pub fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let v = self.get(name)?;
        v.parse().map_err(|_| format!("bad {name} value `{v}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::default();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.p50(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(s.midmean(), 2.5);
        s.push(100.0);
        assert_eq!(s.midmean(), 3.0);
        assert_eq!(Samples::default().midmean(), 0.0);
    }
}
