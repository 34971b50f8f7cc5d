//! perfbench: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tick_scale|read_serve|churn_propagate|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Prints a report (run metadata, the
//! measured workload properties, every metric with its unit) and, as the
//! last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--trace 0` gives the end-to-end metrics, `--trace 1` the per-layer
//! ones and writes the recorded spans under `.perfbench/`. End-to-end
//! times are in reference-core units (see `probe.rs`); per-layer times
//! are wall time. Every reply, propagated value, fleet rollup and view
//! bound is checked; any mismatch counts as failed and fails the run
//! (exit code 1).

mod gen;
mod probe;
mod readers;
mod rig;
mod run;
mod shadow;
mod spans;
mod stats;

use std::path::{Path, PathBuf};

use run::{Opts, Outcome};

/// Directory (relative to the working directory) for sockets and spans.
const WORK_DIR: &str = ".perfbench";

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        gen::WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if args.workload.is_empty() || args.seconds.is_nan() || args.seconds <= 0.0 {
        usage();
    }
    args
}

/// The checked-out commit, read from `.git` in the working directory
/// (a plain source tree has none).
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(c) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return c.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[run::Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_escape(&m.name),
                if m.value.is_finite() { m.value } else { 0.0 },
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_report(o: &Outcome, w: &gen::Workload) {
    println!("workload {}: {}", w.name, w.why);
    for l in &o.lines {
        println!("  {l}");
    }
    for m in &o.metrics {
        println!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  failed_share {:.6} ({} of {} operations)",
        o.failed as f64 / o.attempted.max(1) as f64,
        o.failed,
        o.attempted
    );
    for n in &o.notes {
        println!("  FAILED: {n}");
    }
}

fn main() {
    let args = parse_args();
    let chosen: Vec<&'static gen::Workload> = if args.workload == "all" {
        gen::WORKLOADS.iter().collect()
    } else {
        vec![gen::workload(&args.workload).unwrap_or_else(|| usage())]
    };
    let work_dir = PathBuf::from(WORK_DIR);
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {WORK_DIR}: {e}");
        std::process::exit(1);
    }
    println!(
        "perfbench: seed={} seconds={} trace={} nproc={} commit={} transport=unix-socket-loopback generator_threads=2 connections=2",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        git_commit()
    );
    let mut all = Outcome::default();
    for w in &chosen {
        let opts = Opts {
            w,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
        };
        let o = match run::run(&opts, &work_dir) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", w.name);
                std::process::exit(1);
            }
        };
        print_report(&o, w);
        all.attempted += o.attempted;
        all.failed += o.failed;
        let table: &[(&str, &str)] = if args.trace {
            &run::PER_LAYER
        } else {
            &run::END_TO_END
        };
        for mut m in o.ordered(table) {
            if chosen.len() > 1 {
                m.name = format!("{}.{}", w.name, m.name);
            }
            all.metrics.push(m);
        }
    }
    let correct = all.failed == 0 && all.attempted > 0;
    println!(
        "{}",
        result_json(correct, all.attempted, all.failed, &all.metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the
    /// metrics the program reports.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let section = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect("section");
            let body = &text[start..];
            let end = body.find(']').expect("list end");
            body[..end]
                .split("\"name\":")
                .skip(1)
                .map(|s| {
                    s.trim()
                        .trim_start_matches('"')
                        .split('"')
                        .next()
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        let e2e = section("end_to_end");
        assert_eq!(e2e, run::END_TO_END.map(|(n, _)| n.to_string()).to_vec());
        let layers = section("per_layer");
        assert_eq!(layers, run::PER_LAYER.map(|(n, _)| n.to_string()).to_vec());
        let workloads = section("workloads");
        assert_eq!(
            workloads,
            gen::WORKLOADS.map(|w| w.name.to_string()).to_vec()
        );
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let m = vec![run::Metric {
            name: "setup_s".into(),
            value: 1.25,
            unit: "s",
        }];
        assert_eq!(
            result_json(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
