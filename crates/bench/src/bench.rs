//! `repro bench` — the in-repo wall-clock benchmark harness.
//!
//! Runs fixed-seed workloads of each engine N times and reports the
//! minimum and median wall time plus kernel events per second. The
//! harness is hand-rolled (the offline build has no criterion): every
//! workload is a deterministic simulation, so between-run variance is
//! pure scheduler/allocator noise and min/median over a handful of
//! iterations is a stable signal.
//!
//! Results are emitted through the structured [`Report`] JSON as
//! `BENCH_<n>.json` files — the repo's perf trajectory, whose canonical
//! home is the repo root (the `repro bench` default out dir).
//! `BENCH_0.json` (pre-optimization), `BENCH_1.json` (post
//! slab/calendar-queue pass), `BENCH_2.json` (post wavefront-flood
//! rewrite), `BENCH_3.json` (arena memory layout, first carrying
//! `bytes_per_peer` and the `guess-1m` row), `BENCH_4.json` (the
//! lane-partitioned parallel kernel, first carrying the `cores` and
//! `threads` columns and the `--threads` sweep's `<workload>@t<N>`
//! rows), `BENCH_5.json` (the binary-heap event queue, the same
//! sweep) and `BENCH_6.json` (lanes as independent queries-off
//! sub-networks, so only `guess-1m` has `@t<N>` rows) are committed
//! baselines; the `BENCH_*.json` gitignore pattern keeps ad-hoc runs
//! untracked.
//! `scripts/verify.sh` replays the quick workloads and fails on any
//! event-count difference or a >2× median regression against the
//! committed baseline — both on the aggregate matrix and per-engine
//! via `--only <workload>`.

use std::time::Instant;

use crate::report::{Cell, Report, TableBlock};
use crate::scale::{base_config, Scale};
use simkit::sim::{Runnable, SimReport};

/// Fixed master seed for every bench workload. Changing it invalidates
/// wall-time comparisons across BENCH_* generations, so don't.
const BENCH_SEED: u64 = 0xBE7C;

/// Measured outcome of one workload.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Workload id, e.g. `guess-full`.
    pub name: String,
    /// Engine name (`guess`, `gnutella`, `gossip`).
    pub engine: &'static str,
    /// Scale label (`Full` or `Quick`).
    pub scale: Scale,
    /// Timed iterations.
    pub iters: usize,
    /// Kernel events processed per iteration (identical across
    /// iterations — the workloads are deterministic).
    pub events: u64,
    /// Fastest iteration, seconds.
    pub min_secs: f64,
    /// Median iteration, seconds.
    pub median_secs: f64,
    /// Simulated peers in the workload's network.
    pub peers: usize,
    /// Peak heap growth of the first iteration divided by `peers` —
    /// the engine's large-N memory footprint (see
    /// [`crate::alloc_meter`]).
    pub bytes_per_peer: u64,
    /// Worker threads this row ran with. `1` is the serial engine —
    /// the path every earlier BENCH generation measured; `> 1` runs
    /// [`BENCH_LANES`] independent lanes ([`guess::run_lanes`]).
    pub threads: usize,
}

impl BenchResult {
    /// Kernel events per second at the median wall time.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        if self.median_secs > 0.0 {
            self.events as f64 / self.median_secs
        } else {
            0.0
        }
    }
}

/// Runs one built simulator to completion and returns its kernel event
/// count — the engine-generic dispatch the unified [`Runnable`] /
/// [`SimReport`] surface provides; the workload closures below differ
/// only in how they build their config.
fn events_of<S: Runnable>(sim: S) -> u64
where
    S::Report: SimReport,
{
    sim.run().events_processed()
}

/// Lane count used by every threaded (`--threads > 1`) bench row.
/// Fixed independently of the thread count so a row's simulated
/// trajectory is addressed by `(seed, lanes)` alone and thread-scaling
/// rows differ only in wall-clock.
pub const BENCH_LANES: usize = 8;

/// One benchmarkable workload: a name plus a closure that runs the
/// simulation once with a given worker-thread budget and returns the
/// kernel event count. `threads = 1` is the serial path — the exact
/// bytes every earlier BENCH generation measured. A workload without a
/// lane decomposition returns `None` for `threads > 1`.
struct Workload {
    name: &'static str,
    engine: &'static str,
    scale: Scale,
    /// Simulated peers — the denominator of `bytes_per_peer`.
    peers: usize,
    run: Box<dyn Fn(usize) -> Option<u64>>,
}

/// The workload matrix. Quick rows come first so `--quick` (used by the
/// CI smoke gate) is a prefix of the full matrix.
fn workloads(quick_only: bool) -> Vec<Workload> {
    let mut list = Vec::new();
    for scale in [Scale::Quick, Scale::Full] {
        if quick_only && scale == Scale::Full {
            continue;
        }
        list.push(Workload {
            name: match scale {
                Scale::Quick => "guess-quick",
                Scale::Full => "guess-full",
            },
            engine: "guess",
            scale,
            peers: base_config(scale, BENCH_SEED).system.network_size,
            // Queries couple every peer: no lane decomposition.
            run: Box::new(move |threads| {
                let cfg = base_config(scale, BENCH_SEED);
                (threads == 1).then(|| events_of(cfg.build().expect("bench config validates")))
            }),
        });
        list.push(Workload {
            name: match scale {
                Scale::Quick => "gnutella-quick",
                Scale::Full => "gnutella-full",
            },
            engine: "gnutella",
            scale,
            peers: gnutella::dynamic::GnutellaConfig::default().network_size,
            // Floods traverse one shared overlay: no lane decomposition.
            run: Box::new(move |threads| {
                let cfg = gnutella::dynamic::GnutellaConfig::default()
                    .with_duration(scale.duration())
                    .with_warmup(scale.warmup())
                    .with_seed(BENCH_SEED);
                (threads == 1).then(|| events_of(cfg.build().expect("bench config validates")))
            }),
        });
        list.push(Workload {
            name: match scale {
                Scale::Quick => "gossip-quick",
                Scale::Full => "gossip-full",
            },
            engine: "gossip",
            scale,
            peers: gossip::Config::default().network_size,
            // Rumors spread over the whole population: no lane
            // decomposition.
            run: Box::new(move |threads| {
                let cfg = gossip::Config::default()
                    .with_seed(BENCH_SEED)
                    .with_duration(scale.duration())
                    .with_warmup(scale.warmup());
                (threads == 1).then(|| events_of(cfg.build().expect("bench config validates")))
            }),
        });
    }
    if !quick_only {
        // Million-peer GUESS run: the large-N memory-layout showcase.
        // Maintenance-only (queries off) over a short horizon — the
        // point is arena footprint (`bytes_per_peer`) and that a
        // million-peer network populates, churns, and samples (the
        // stride-sampled metrics path engages above the 50k threshold).
        list.push(Workload {
            name: "guess-1m",
            engine: "guess",
            scale: Scale::Full,
            peers: MILLION,
            run: Box::new(|threads| {
                let mut cfg = million_peer_config();
                if threads > 1 {
                    cfg.run.lanes = BENCH_LANES;
                }
                Some(
                    guess::run_lanes(cfg, threads)
                        .expect("valid config")
                        .events_processed,
                )
            }),
        });
    }
    list
}

const MILLION: usize = 1_000_000;

/// The `guess-1m` configuration: paper-default protocol parameters at
/// `NetworkSize = 1e6`, queries off, a 120-second horizon.
fn million_peer_config() -> guess::config::Config {
    let mut cfg = base_config(Scale::Full, BENCH_SEED).with_network_size(MILLION);
    cfg.run.duration = simkit::time::SimDuration::from_secs(120.0);
    cfg.run.warmup = simkit::time::SimDuration::from_secs(30.0);
    cfg.run.simulate_queries = false;
    cfg
}

/// Median of already-measured wall times (mean of the middle pair for
/// even counts).
fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The workload names in matrix order — what `--only` accepts.
#[must_use]
pub fn workload_names(quick_only: bool) -> Vec<&'static str> {
    workloads(quick_only).iter().map(|w| w.name).collect()
}

/// Runs the workload matrix `iters` times each and returns the measured
/// results in matrix order. A non-empty `only` restricts the run to the
/// named workloads (matrix order is preserved; unknown names are an
/// error so typos cannot silently skip a gate). Each workload runs once
/// per entry of `threads` (`[1]` is the classic serial matrix): the
/// `1`-thread row keeps the workload's plain name, threaded rows are
/// suffixed `@t<N>` and run [`BENCH_LANES`] independent lanes. Only
/// the queries-off `guess-1m` has a lane decomposition; every other
/// workload skips threaded rows with a note. Prints one progress line
/// per row as it completes (the full matrix takes minutes).
///
/// # Errors
///
/// Returns the offending name when `only` lists an unknown workload.
pub fn run_workloads(
    quick_only: bool,
    iters: usize,
    only: &[String],
    threads: &[usize],
) -> Result<Vec<BenchResult>, String> {
    let iters = iters.max(1);
    let threads = if threads.is_empty() {
        &[1][..]
    } else {
        threads
    };
    let matrix = workloads(quick_only);
    for name in only {
        if !matrix.iter().any(|w| w.name == name) {
            return Err(format!(
                "unknown workload '{name}' (available: {})",
                matrix.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
            ));
        }
    }
    let mut results = Vec::new();
    for w in matrix {
        if !only.is_empty() && !only.iter().any(|n| n == w.name) {
            continue;
        }
        'threads: for &t in threads {
            let t = t.max(1);
            let name = if t == 1 {
                w.name.to_string()
            } else {
                format!("{}@t{t}", w.name)
            };
            let mut walls = Vec::with_capacity(iters);
            let mut events = 0u64;
            let mut bytes_per_peer = 0u64;
            for i in 0..iters {
                // Meter the first iteration only: the peak heap growth
                // over the pre-run level is the simulation's working set
                // (later iterations see allocator reuse and would
                // under-read).
                let metered_from = crate::alloc_meter::current_bytes();
                if i == 0 {
                    crate::alloc_meter::reset_peak();
                }
                let started = Instant::now();
                let Some(got) = (w.run)(t) else {
                    println!(
                        "  {:<16} skipped at {t} threads (no lane decomposition)",
                        w.name
                    );
                    continue 'threads;
                };
                walls.push(started.elapsed().as_secs_f64());
                if i == 0 {
                    events = got;
                    let grown = crate::alloc_meter::peak_bytes().saturating_sub(metered_from);
                    bytes_per_peer = grown as u64 / w.peers.max(1) as u64;
                } else {
                    debug_assert_eq!(got, events, "bench workloads must be deterministic");
                }
            }
            walls.sort_by(f64::total_cmp);
            let r = BenchResult {
                name,
                engine: w.engine,
                scale: w.scale,
                iters,
                events,
                min_secs: walls[0],
                median_secs: median(&walls),
                peers: w.peers,
                bytes_per_peer,
                threads: t,
            };
            println!(
                "  {:<20} {:>10} events  min {:>8.3}s  median {:>8.3}s  {:>12.0} events/s  {:>8} B/peer",
                r.name,
                r.events,
                r.min_secs,
                r.median_secs,
                r.events_per_sec(),
                r.bytes_per_peer
            );
            results.push(r);
        }
    }
    Ok(results)
}

/// Logical CPUs of the host running the bench — recorded in every row
/// so thread-scaling numbers carry their hardware context.
#[must_use]
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Assembles bench results into a structured [`Report`]; the JSON form
/// of this report is the `BENCH_<n>.json` schema (see EXPERIMENTS.md).
#[must_use]
pub fn build_report(results: &[BenchResult]) -> Report {
    let mut t = TableBlock::new(
        "bench",
        vec![
            "workload",
            "engine",
            "scale",
            "iters",
            "events",
            "min_s",
            "median_s",
            "events_per_s",
            "peers",
            "bytes_per_peer",
            "cores",
            "threads",
        ],
    );
    let cores = host_cores();
    for r in results {
        t.row(vec![
            Cell::text(&r.name),
            Cell::text(r.engine),
            Cell::text(format!("{:?}", r.scale)),
            Cell::size(r.iters),
            Cell::uint(r.events),
            Cell::float(r.min_secs, 4),
            Cell::float(r.median_secs, 4),
            Cell::float(r.events_per_sec(), 0),
            Cell::size(r.peers),
            Cell::uint(r.bytes_per_peer),
            Cell::size(cores),
            Cell::size(r.threads),
        ]);
    }
    Report::new()
        .text(
            "Fixed-seed engine workloads; wall-clock min/median over N runs.\n\
             Deterministic workloads: events per iteration are identical.\n\n",
        )
        .table(t)
}

/// The smallest `n` such that `BENCH_<n>.json` does not yet exist in
/// `dir` — the next slot in the perf trajectory.
#[must_use]
pub fn next_bench_index(dir: &std::path::Path) -> u32 {
    let mut n = 0u32;
    while dir.join(format!("BENCH_{n}.json")).exists() {
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 9.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quick_matrix_is_a_prefix_of_the_full_matrix() {
        let quick: Vec<&str> = workloads(true).iter().map(|w| w.name).collect();
        let all: Vec<&str> = workloads(false).iter().map(|w| w.name).collect();
        assert_eq!(quick.len(), 3);
        assert_eq!(all.len(), 7);
        assert_eq!(&all[..quick.len()], &quick[..]);
    }

    #[test]
    fn million_peer_workload_is_full_only_and_validates() {
        assert!(!workloads(true).iter().any(|w| w.name == "guess-1m"));
        let w = workloads(false)
            .into_iter()
            .find(|w| w.name == "guess-1m")
            .expect("full matrix carries guess-1m");
        assert_eq!(w.peers, MILLION);
        let cfg = million_peer_config();
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.system.network_size, MILLION);
        assert!(!cfg.run.simulate_queries);
        assert!(
            cfg.run.metrics_sample_threshold < MILLION,
            "the million-peer run must exercise the sampled-metrics path"
        );
    }

    #[test]
    fn report_rows_match_results() {
        let r = BenchResult {
            name: "guess-quick".into(),
            engine: "guess",
            scale: Scale::Quick,
            iters: 3,
            events: 1000,
            min_secs: 0.5,
            median_secs: 0.8,
            peers: 1000,
            bytes_per_peer: 512,
            threads: 1,
        };
        assert!((r.events_per_sec() - 1250.0).abs() < 1e-9);
        let report = build_report(std::slice::from_ref(&r));
        let json = report.render_json("bench", "wall-clock benchmark", "Quick");
        let expected = format!(
            "\"guess-quick\", \"guess\", \"Quick\", 3, 1000, 0.5000, 0.8000, 1250, 1000, 512, {}, 1",
            host_cores()
        );
        assert!(json.contains(&expected), "row missing from {json}");
    }

    #[test]
    fn next_index_skips_existing_files() {
        let dir = std::env::temp_dir().join(format!("bench-idx-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(next_bench_index(&dir), 0);
        std::fs::write(dir.join("BENCH_0.json"), "{}").unwrap();
        assert_eq!(next_bench_index(&dir), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
