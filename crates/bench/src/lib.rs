//! Shared harness utilities for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (the README's "Experiment harnesses" section lists them) and prints it
//! as a text table. All binaries accept the same flags:
//!
//! ```text
//! --scale <f64>     fraction of the Table 2 dataset sizes (default 0.02)
//! --seed <u64>      RNG seed for graphs and workloads (default 42)
//! --timeout <secs>  per-query budget (default 10; the paper used 600)
//! --limit <n>       per-query match cap (default 10^6; the paper used 10^7)
//! ```
//!
//! Absolute times differ from the paper (different hardware, synthetic
//! stand-in graphs, scaled sizes); the *relationships* between engines are
//! what the harnesses reproduce. Performance is measured by the
//! repository's benchmark (`perfbench/`, declared in `BENCHMARK.json`),
//! not by these binaries.

use std::time::Duration;

use rig_baselines::Budget;
use rig_core::{RunReport, RunStatus, Session};
use rig_datasets::spec;
use rig_graph::DataGraph;
use rig_query::{random_query, template, Flavor, GeneratorConfig, PatternQuery};

/// Common command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub scale: f64,
    pub seed: u64,
    pub timeout: Duration,
    pub limit: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args { scale: 0.02, seed: 42, timeout: Duration::from_secs(10), limit: 1_000_000 }
    }
}

impl Args {
    /// Parses `--scale/--seed/--timeout/--limit` from `std::env::args`,
    /// panicking on any argument [`Args::parse_from`] rejects.
    pub fn parse() -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Self::parse_from(&argv).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Parses the arguments after the program name. Every flag takes a
    /// value; a flag without one, an unparsable value, an unknown flag and
    /// a stray positional argument are all errors.
    pub fn parse_from(argv: &[String]) -> Result<Self, String> {
        fn value<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<T, String> {
            let v = v.ok_or_else(|| format!("missing value for {flag}"))?;
            v.parse().map_err(|_| format!("bad {flag} value {v:?}"))
        }
        let mut out = Args::default();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--scale" => out.scale = value(flag, it.next())?,
                "--seed" => out.seed = value(flag, it.next())?,
                "--timeout" => out.timeout = Duration::from_secs(value(flag, it.next())?),
                "--limit" => out.limit = value(flag, it.next())?,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(out)
    }

    /// The evaluation budget derived from the flags.
    pub fn budget(&self) -> Budget {
        Budget {
            timeout: Some(self.timeout),
            max_intermediate: Some(2_000_000),
            match_limit: Some(self.limit),
        }
    }
}

/// Generates dataset `name` at the configured scale. Small datasets (the
/// biology graphs) are floored at ~2000 nodes so their workloads stay
/// meaningful at the default scale.
pub fn load(name: &str, args: &Args) -> DataGraph {
    let s = spec(name).unwrap_or_else(|| panic!("unknown dataset {name}"));
    let floor = (2_000.0 / s.nodes as f64).min(1.0);
    s.generate(args.scale.max(floor), args.seed)
}

/// Generates dataset `name` at an explicit scale.
pub fn load_scaled(name: &str, scale: f64, seed: u64) -> DataGraph {
    spec(name).unwrap().generate(scale, seed)
}

/// Instantiates template `id` with labels drawn from the graph's label
/// space (`node % |L|` rotated by the seed, so instances vary but stay
/// deterministic).
pub fn template_query(g: &DataGraph, id: usize, flavor: Flavor, seed: u64) -> PatternQuery {
    let t = template(id);
    let nl = g.num_labels().max(1) as u32;
    let labels: Vec<u32> =
        (0..t.num_nodes).map(|i| ((i as u64 + seed) % nl as u64) as u32).collect();
    t.instantiate(flavor, &labels)
}

/// Instantiates template `id` preferring label assignments with a
/// *non-empty answer*: draws labels (weighted toward frequent ones) and
/// probes each candidate with a 1-match GM evaluation through `session`,
/// keeping the first instance that matches. Falls back to the last
/// candidate when none matches within the attempt budget — the paper's
/// workloads also contain some empty queries, which exercise early
/// termination.
pub fn template_query_probed(
    g: &DataGraph,
    session: &Session,
    id: usize,
    flavor: Flavor,
    seed: u64,
) -> PatternQuery {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let t = template(id);
    // frequent labels first: weight by inverted-list size
    let mut by_freq: Vec<u32> = (0..g.num_labels() as u32).collect();
    by_freq.sort_by_key(|&l| std::cmp::Reverse(g.nodes_with_label(l).len()));
    let top = &by_freq[..by_freq.len().clamp(1, 8)];
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37).wrapping_add(id as u64));
    let mut last = t.instantiate_modulo(flavor, g.num_labels().max(1));
    for _ in 0..12 {
        let labels: Vec<u32> = (0..t.num_nodes).map(|_| top[rng.gen_range(0..top.len())]).collect();
        let q = t.instantiate(flavor, &labels);
        let probe = session.prepare(&q).expect("template query validates");
        // probes bypass the plan cache so workload selection does not
        // pollute the sweep's hit statistics
        let hit = probe.run().no_cache().limit(1).timeout(Duration::from_millis(500)).count();
        if hit.result.count > 0 {
            return q;
        }
        last = q;
    }
    last
}

/// Random queries of the given node counts, one per size, non-empty by
/// construction (§7.1's biology-dataset workloads).
pub fn random_queries(
    g: &DataGraph,
    sizes: &[usize],
    flavor: Flavor,
    seed: u64,
) -> Vec<(String, PatternQuery)> {
    let mut out = Vec::new();
    for (i, &n) in sizes.iter().enumerate() {
        let cfg = GeneratorConfig::new(n, flavor, seed + i as u64 * 7919);
        if let Some(q) = random_query(g, &cfg) {
            out.push((format!("{n}N"), q));
        }
    }
    out
}

/// Fixed-width table printer (markdown-ish, stable column layout).
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(headers: &[&str]) -> Self {
        Table { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells);
    }

    pub fn print(&self, title: &str) {
        println!("\n## {title}");
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:width$}", width = widths[i]))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        println!("{}", fmt_row(&self.headers));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("{}", fmt_row(&sep));
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
    }
}

/// True iff `r` completed under the budget's match cap, so its count is
/// the whole answer.
pub fn finished(r: &RunReport, budget: &Budget) -> bool {
    r.status == RunStatus::Completed && budget.match_limit.is_none_or(|cap| r.occurrences < cap)
}

/// Panics unless the engines of one cell agree on the answer's size when
/// every one of them finished (see [`finished`]). Returns whether the cell
/// was compared.
pub fn check_agreement(cell: &str, budget: &Budget, reports: &[&RunReport]) -> bool {
    let Some((first, rest)) = reports.split_first() else { return false };
    if !reports.iter().all(|r| finished(r, budget)) {
        return false;
    }
    for r in rest {
        assert_eq!(
            r.occurrences, first.occurrences,
            "{cell}: {} disagrees with {}",
            r.engine, first.engine
        );
    }
    true
}

/// Seconds with millisecond precision, for table cells.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_defaults() {
        let a = Args::default();
        assert!(a.scale > 0.0);
        assert!(a.budget().timeout.is_some());
    }

    #[test]
    fn load_small_dataset() {
        let args = Args { scale: 0.01, ..Args::default() };
        let g = load("yt", &args);
        assert!(g.num_nodes() > 0);
        // at tiny scales not all 71 labels can be present
        assert!(g.num_labels() >= 1 && g.num_labels() <= 71);
    }

    #[test]
    fn template_query_labels_within_range() {
        let args = Args { scale: 0.01, ..Args::default() };
        let g = load("yt", &args);
        let q = template_query(&g, 6, Flavor::H, 3);
        assert!(q.labels().iter().all(|&l| (l as usize) < g.num_labels()));
    }

    #[test]
    fn random_queries_produced() {
        let args = Args { scale: 0.05, ..Args::default() };
        let g = load("yt", &args);
        let qs = random_queries(&g, &[4, 6, 8], Flavor::H, 1);
        assert!(!qs.is_empty());
        for (_, q) in &qs {
            assert!(q.is_connected());
        }
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_parse_all_flags() {
        let a = Args::parse_from(&argv(&[
            "--scale",
            "0.5",
            "--seed",
            "3",
            "--timeout",
            "2",
            "--limit",
            "100",
        ]))
        .unwrap();
        assert_eq!(a, Args { scale: 0.5, seed: 3, timeout: Duration::from_secs(2), limit: 100 });
        assert_eq!(Args::parse_from(&[]).unwrap(), Args::default());
    }

    #[test]
    fn args_reject_trailing_flag_without_value() {
        let e = Args::parse_from(&argv(&["--scale"])).unwrap_err();
        assert!(e.contains("--scale"), "{e}");
        let e = Args::parse_from(&argv(&["--seed", "3", "--timeout"])).unwrap_err();
        assert!(e.contains("--timeout"), "{e}");
        // a flag is never taken as the previous flag's value
        assert!(Args::parse_from(&argv(&["--seed", "--timeout", "2"])).is_err());
    }

    #[test]
    fn args_reject_stray_and_unknown_arguments() {
        let e = Args::parse_from(&argv(&["stray"])).unwrap_err();
        assert!(e.contains("stray"), "{e}");
        let e = Args::parse_from(&argv(&["--seed", "3", "extra"])).unwrap_err();
        assert!(e.contains("extra"), "{e}");
        assert!(Args::parse_from(&argv(&["--json", "out.json"])).is_err());
    }

    #[test]
    fn table_prints() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print("test"); // smoke: no panic
    }
}
