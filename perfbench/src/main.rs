//! `perfbench` — the end-to-end and per-layer benchmark of rigmatch.
//!
//! ```text
//! perfbench --workload <cold_hybrid|cached_enum|serve_rw> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --probe <workload>      # regenerate a pools/*.tsv file
//! ```
//!
//! One closed-loop client, sequential enumeration, a fixed number of
//! operations per run (derived from `--seconds`, never from measured
//! speed). The last line of standard output is the JSON result: with
//! `--trace 0` the end-to-end metrics, with `--trace 1` the per-layer
//! metrics of a traced replay of the same sequence. Any answer mismatch
//! makes the run incorrect and the exit code 1. See README.md.

mod cached;
mod cold;
mod common;
mod http;
mod inputs;
mod layers;
mod pools;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;

use common::{Args, Report, E2E, LAYERS};

/// Scratch space for durable stores and trace files, under the current
/// directory (the checkout the benchmark runs from).
pub fn work_dir() -> PathBuf {
    PathBuf::from(".perfbench_work")
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10, trace: false };
    let mut i = 0;
    while i < argv.len() {
        let value = argv.get(i + 1).ok_or_else(|| format!("{} needs a value", argv[i]))?;
        let bad = |_| format!("bad value {value:?} for {}", argv[i]);
        match argv[i].as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--probe" => {
                pools::probe(value)?;
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report: Report = match args.workload.as_str() {
        "cold_hybrid" => cold::run(args.seed, args.seconds, args.trace),
        "cached_enum" => cached::run(args.seed, args.seconds, args.trace),
        "serve_rw" => serve::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let correct = report.check.failures == 0;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let samples: Vec<String> = report.samples.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    println!(
        "# run {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"scale\":{},\"ops\":{{\"read\":{},\"write\":{}}},\"error_rate\":{},\
         \"answer_check_failures\":{},\"samples\":{{{}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report.scale,
        report.reads,
        report.writes,
        json_number(report.failed as f64 / report.attempted.max(1) as f64),
        report.check.failures,
        samples.join(",")
    );
    let table: &[(&str, &str)] = if args.trace { &LAYERS } else { &E2E };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = report.metrics.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", json_number(v))
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
