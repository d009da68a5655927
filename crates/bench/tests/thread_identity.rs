//! Lane-mode identity gates.
//!
//! GUESS lanes are independent queries-off sub-networks, each a serial
//! run (`guess::run_lanes`). Three contracts protect the goldens and
//! the thread-scaling bench:
//!
//! 1. `lanes = 1` is the ordinary serial run — byte-identical reports,
//!    so the 30 quick goldens and 7 scenario goldens are unchanged by
//!    construction.
//! 2. With `lanes > 1`, the report is a pure function of
//!    `(seed, lanes)`: any worker-thread count produces the same
//!    bytes, and the event count is exact. The quick-scale variant runs
//!    in release via `scripts/verify.sh` (ignored here — debug-mode
//!    quick runs take minutes).
//! 3. Lane reports match the committed `golden/lanes.fnv1a.txt`.

use guess::Runnable;
use guess_bench::scale::{base_config, Scale};

/// Seeds for the lanes=1 property check — arbitrary but fixed.
const SEEDS: [u64; 3] = [0x11, 0x22, 0x33];

#[test]
fn guess_lanes_one_is_byte_identical_to_serial() {
    for seed in SEEDS {
        let mut cfg = guess::config::Config::small_test(seed);
        cfg.run.duration = simkit::time::SimDuration::from_secs(200.0);
        cfg.run.warmup = simkit::time::SimDuration::from_secs(50.0);
        let serial = cfg.clone().build().expect("valid config").run();
        let laned = guess::run_lanes(cfg, 4).expect("valid config");
        assert_eq!(serial, laned, "guess seed {seed}");
    }
}

#[test]
fn small_scale_lane_runs_are_thread_count_invariant() {
    let mut cfg = guess::config::Config::small_test(7).with_queries(false);
    cfg.run.duration = simkit::time::SimDuration::from_secs(200.0);
    cfg.run.warmup = simkit::time::SimDuration::from_secs(50.0);
    cfg.run.lanes = 4;
    let one = guess::run_lanes(cfg.clone(), 1).expect("valid config");
    let four = guess::run_lanes(cfg, 4).expect("valid config");
    assert_eq!(one, four, "guess lane run must not depend on threads");
    assert_eq!(one.events_processed, SMALL_LANE_EVENTS);
}

/// Events of the small-scale lane run above (seed 7, 4 lanes, 200 s).
const SMALL_LANE_EVENTS: u64 = 835;

/// The quick-scale cross-thread gate over the bench base config with
/// queries off: `--threads 1` and `--threads 4` must produce
/// byte-identical reports at the bench lane count, with an exact event
/// count. Release-only (run by `scripts/verify.sh`).
#[test]
#[ignore = "quick-scale; release-run by scripts/verify.sh"]
fn quick_scale_lane_runs_are_thread_count_invariant() {
    let mut cfg = base_config(Scale::Quick, 0xBE7C).with_queries(false);
    cfg.run.lanes = guess_bench::bench::BENCH_LANES;
    let one = guess::run_lanes(cfg.clone(), 1).expect("valid config");
    let four = guess::run_lanes(cfg, 4).expect("valid config");
    assert_eq!(one, four, "guess quick lane run must not depend on threads");
    assert_eq!(one.events_processed, QUICK_LANE_EVENTS);
}

/// Events of the quick-scale lane run above (seed 0xBE7C, 8 lanes).
const QUICK_LANE_EVENTS: u64 = 23_942;

const LANES_MANIFEST: &str = include_str!("golden/lanes.fnv1a.txt");

/// FNV-1a, 64-bit, as in the other golden manifests.
fn fnv1a(text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in text.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Pins queries-off lane runs: each manifest line names a `small_test`
/// seed, a lane count and a maintenance mode, the FNV-1a digest of the
/// report's `Debug` with `events_processed` zeroed, and the event count
/// of the window/barrier lane kernel these digests were first taken
/// from. That kernel peeked at the horizon where the serial kernel pops
/// (and counts) one event past it, so each lane now adds exactly one
/// event.
///
/// To print the current lines: `cargo test -p guess-bench --test
/// thread_identity lane_runs_match -- --nocapture`.
#[test]
fn lane_runs_match_the_committed_manifest() {
    let mut lines = 0;
    let mut bad = Vec::new();
    for line in LANES_MANIFEST
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [name, digest, events] = fields[..] else {
            panic!("malformed manifest line: {line}");
        };
        let (seed, lanes, mode) = parse_lane_case(name);
        let mut cfg = guess::config::Config::small_test(seed)
            .with_queries(false)
            .with_maintenance_mode(mode);
        cfg.run.lanes = lanes;
        let mut report = guess::run_lanes(cfg, 2).expect("valid config");
        let got_events = report.events_processed;
        report.events_processed = 0;
        let got = fnv1a(&format!("{report:?}"));
        let want = u64::from_str_radix(digest.trim_start_matches("0x"), 16).expect("hex digest");
        let want_events: u64 = events.parse().expect("event count");
        println!("{name}  {got:#018x}  {}", got_events - lanes as u64);
        if got != want || got_events != want_events + lanes as u64 {
            bad.push(format!(
                "{name}: digest {got:#018x} (want {want:#018x}), \
                 events {got_events} (want {want_events} + {lanes})"
            ));
        }
        lines += 1;
    }
    assert_eq!(
        lines, 24,
        "manifest covers 4 seeds x 3 lane counts x 2 modes"
    );
    assert!(bad.is_empty(), "lane pins moved:\n{}", bad.join("\n"));
}

/// Splits a manifest name like `s42-l8-push` into its parts.
fn parse_lane_case(name: &str) -> (u64, usize, simkit::scenario::MaintenanceMode) {
    let mut parts = name.split('-');
    let seed = parts.next().and_then(|s| s.strip_prefix('s'));
    let lanes = parts.next().and_then(|s| s.strip_prefix('l'));
    let mode = match parts.next() {
        Some("pull") => simkit::scenario::MaintenanceMode::Pull,
        Some("push") => simkit::scenario::MaintenanceMode::Push,
        other => panic!("unknown mode {other:?} in {name}"),
    };
    let seed = seed.and_then(|s| s.parse().ok()).expect("seed");
    let lanes = lanes.and_then(|s| s.parse().ok()).expect("lane count");
    (seed, lanes, mode)
}
