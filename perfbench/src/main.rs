//! End-to-end and per-layer benchmark of the X-Stream reproduction.
//!
//! ```text
//! perfbench --workload <pagerank-ooc|traversal-ooc|serve-mixed> --seed N
//!           --seconds S --trace <0|1> [--xstream PATH]
//! ```
//!
//! Each workload loads one graph (timed as set-up), answers a seeded
//! sequence of queries for `S` seconds and checks every answer against
//! an oracle. Untraced runs report the end-to-end metrics, traced runs
//! the per-layer ones; the last line of standard output is the result
//! as JSON, a human summary goes to standard error. See `README.md`.

mod batch;
mod inputs;
mod oracle;
mod report;
mod serve;
mod sys;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Scratch root, relative to the directory the benchmark runs from.
const WORK_ROOT: &str = ".perfbench";

struct Args(Vec<String>);

impl Args {
    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self.get(key).ok_or_else(|| format!("missing {key}"))?;
        v.parse().map_err(|_| format!("bad value for {key}: {v}"))
    }
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let result = if args.0.first().map(String::as_str) == Some("worker") {
        worker(&args)
    } else {
        bench(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn worker(args: &Args) -> Result<(), String> {
    let workload: String = args.require("--workload")?;
    batch::worker(&batch::WorkerArgs {
        kind: batch::Kind::parse(&workload).ok_or("unknown worker workload")?,
        input: args.require("--input")?,
        vertices: args.require("--vertices")?,
        work: args.require("--work")?,
        seconds: args.require("--seconds")?,
        traced: args.require::<u8>("--trace")? == 1,
        roots: args.get("--roots").map(PathBuf::from),
    })
}

fn bench(args: &Args) -> Result<(), String> {
    let workload: String = args.require("--workload")?;
    let seed: u64 = args.require("--seed")?;
    let seconds: u64 = args.require("--seconds")?;
    let traced = match args.require::<u8>("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let work = Path::new(WORK_ROOT).join(format!("{workload}-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;

    let ticks_before = sys::cpu_ticks();
    let calibration_before = sys::calibration_s();
    let result = match (batch::Kind::parse(&workload), workload.as_str()) {
        (Some(kind), _) => batch::run(kind, seed, seconds, traced, &work),
        (None, "serve-mixed") => {
            let xstream: PathBuf = args.require("--xstream")?;
            serve::run(&xstream, seed, seconds, traced, &work)
        }
        _ => Err(format!("unknown workload `{workload}`")),
    };
    let calibration_after = sys::calibration_s();
    let steal_pct = match (ticks_before, sys::cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            format!("{:.1}", 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "unknown".into(),
    };
    // Keep the trace, drop the inputs and stores.
    if traced {
        let traces = Path::new(WORK_ROOT).join("traces");
        let _ = std::fs::create_dir_all(&traces);
        for name in ["trace-worker.jsonl", "trace-client.jsonl"] {
            let _ = std::fs::rename(
                work.join(name),
                traces.join(format!("{workload}-{seed}-{name}")),
            );
        }
    }
    let _ = std::fs::remove_dir_all(&work);
    let mut report = result?;

    report.meta("workload", &workload);
    report.meta("seed", seed);
    report.meta("seconds", seconds);
    report.meta("traced", traced);
    report.meta("nproc", sys::nproc());
    report.meta("cpu_model", sys::cpu_model());
    report.meta("store_filesystem", sys::filesystem_of(Path::new(WORK_ROOT)));
    report.meta("calibration_s_before", format!("{calibration_before:.4}"));
    report.meta("calibration_s_after", format!("{calibration_after:.4}"));
    report.meta("steal_pct", steal_pct);
    report.print_summary(&workload);
    println!("{}", report.meta_line());
    println!("{}", report.result_line(traced)?);
    if report.errors.is_empty() && report.failed == 0 {
        Ok(())
    } else {
        Err(format!(
            "{} wrong answers or failed checks; first: {}",
            report.failed.max(report.errors.len() as u64),
            report
                .errors
                .first()
                .map_or("(failed queries)", String::as_str)
        ))
    }
}
