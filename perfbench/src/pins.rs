//! Pinned answers the benchmark checks every output against.
//!
//! * `paper-quick` reads the repository's own committed goldens,
//!   `crates/bench/tests/golden/{quick,scenarios}.fnv1a.txt`.
//! * `forwarding-full` reads `pins/forwarding-full.fnv1a.txt` in the
//!   benchmark's directory.
//! * `guess-maint-500k` reads `pins/guess-maint-500k.txt`: the event
//!   count and report hash at the pinned seed.
//!
//! Manifests are `name  0xhash` lines; `#` starts a comment line.

use std::path::{Path, PathBuf};

use crate::workloads::{EngineRun, ReportRun, Workload};

/// The benchmark's own directory.
#[must_use]
fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The repository root the benchmark was built from.
#[must_use]
pub fn repo_root() -> &'static Path {
    bench_dir()
        .parent()
        .expect("the benchmark lives inside the repository")
}

/// A parsed `name  0xhash` manifest, in file order.
pub type Manifest = Vec<(String, u64)>;

/// Parses manifest text.
///
/// # Errors
///
/// A line without a name and a hex hash.
fn parse_manifest(text: &str) -> Result<Manifest, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut parts = l.split_whitespace();
            let name = parts
                .next()
                .ok_or_else(|| format!("bad manifest line '{l}'"))?;
            let hash = parts
                .next()
                .and_then(|h| u64::from_str_radix(h.trim_start_matches("0x"), 16).ok())
                .ok_or_else(|| format!("bad manifest hash in '{l}'"))?;
            Ok((name.to_string(), hash))
        })
        .collect()
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// The pin files a workload is checked against.
#[must_use]
fn manifest_paths(w: Workload) -> Vec<PathBuf> {
    let golden = repo_root().join("crates/bench/tests/golden");
    match w {
        Workload::GuessMaint500k => vec![bench_dir().join("pins/guess-maint-500k.txt")],
        Workload::PaperQuick => vec![
            golden.join("quick.fnv1a.txt"),
            golden.join("scenarios.fnv1a.txt"),
        ],
        Workload::ForwardingFull => vec![bench_dir().join("pins/forwarding-full.fnv1a.txt")],
    }
}

/// Loads a suite workload's pinned report hashes.
///
/// # Errors
///
/// A missing or malformed manifest file.
pub fn load(w: Workload) -> Result<Manifest, String> {
    let mut out = Manifest::new();
    for path in manifest_paths(w) {
        out.extend(parse_manifest(&read(&path)?)?);
    }
    Ok(out)
}

/// The `guess-maint-500k` pin: at `seed`, exactly `events` kernel events
/// and a report hashing to `hash`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaintPin {
    /// Seed the pin holds for.
    pub seed: u64,
    /// Kernel events of the run.
    pub events: u64,
    /// FNV-1a of the `RunReport`'s `Debug` rendering.
    pub hash: u64,
}

/// Loads the `guess-maint-500k` pin (`seed events hash`, one line).
///
/// # Errors
///
/// A missing or malformed pin file.
pub fn load_maint() -> Result<MaintPin, String> {
    let path = &manifest_paths(Workload::GuessMaint500k)[0];
    let text = read(path)?;
    let line = text
        .lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'))
        .ok_or_else(|| format!("{} holds no pin", path.display()))?;
    let nums: Vec<u64> = line
        .split_whitespace()
        .map(|t| match t.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => t.parse().ok(),
        })
        .collect::<Option<_>>()
        .ok_or_else(|| format!("bad pin line '{line}'"))?;
    match nums[..] {
        [seed, events, hash] => Ok(MaintPin { seed, events, hash }),
        _ => Err(format!("bad pin line '{line}'")),
    }
}

/// Why `run` does not match its pin, or `None` when it does.
#[must_use]
pub fn problem(run: &ReportRun, pins: &Manifest) -> Option<String> {
    match pins.iter().find(|(n, _)| n == run.name) {
        Some((_, h)) if *h == run.hash => None,
        Some((_, h)) => Some(format!("pinned {h:#018x}, got {:#018x}", run.hash)),
        None => Some("no pin".into()),
    }
}

/// Why one `guess-maint-500k` run against the first run of the
/// invocation, the engine invariant, or the pin at the pinned seed —
/// or `None` when it passes all three.
pub fn maint_problem(
    run: &EngineRun,
    first: &EngineRun,
    seed: u64,
    pin: MaintPin,
) -> Option<String> {
    if !run.invariant_ok {
        return Some("births != deaths + N".into());
    }
    if (run.events, run.hash) != (first.events, first.hash) {
        return Some(format!(
            "run differs from the invocation's first run ({} events, {:#018x})",
            run.events, run.hash
        ));
    }
    if seed == pin.seed && (run.events, run.hash) != (pin.events, pin.hash) {
        return Some(format!(
            "pinned {} events / {:#018x} at seed {seed:#x}, got {} / {:#018x}",
            pin.events, pin.hash, run.events, run.hash
        ));
    }
    None
}
