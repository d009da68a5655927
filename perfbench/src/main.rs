//! `perfbench` — runs one workload of the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Workloads: `guess-maint-500k`, `paper-quick`, `forwarding-full`.
//! `--trace 0` (the default) prints the end-to-end metrics; `--trace 1`
//! runs the traced pass and prints the per-layer metrics and the layer
//! accounting table. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The seed
//! (decimal or `0x` hex, default `0xBE7C`) feeds the GUESS run, the
//! engine runs and the layer replays; the suites run their registry's
//! built-in seeds, because committed goldens pin their outputs.

use std::process::ExitCode;
use std::time::Duration;

use guess_bench::bench::host_cores;
use perfbench::pins::repo_root;
use perfbench::run::{self, Outcome};
use perfbench::workloads::{Workload, DEFAULT_SEED};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 36;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{value}' (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = parse_u64(value).ok_or_else(bad)?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The commit the checkout was built from, read from `.git` without
/// running git; `unknown` outside a git checkout.
fn git_revision() -> String {
    let git = repo_root().join(".git");
    let read = |p: std::path::PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(git.join(reference)) {
        return rev.trim().to_string();
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Formats a metric value with every digit it was measured with.
fn json_number(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("non-finite metric value {v}"))
    }
}

fn result_line(o: &Outcome) -> Result<String, String> {
    let metrics = o
        .metrics
        .iter()
        .map(|m| {
            Ok(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value)?,
                m.unit
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0 && o.attempted > 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "context {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {}, \
         \"profile\": \"{}\", \"git\": \"{}\"}}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        host_cores(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        git_revision()
    );
    let outcome = if args.trace {
        run::traced(args.workload, args.seed)
    } else {
        run::untraced(args.workload, args.seed, Duration::from_secs(args.seconds))
    };
    match outcome.and_then(|o| result_line(&o)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
