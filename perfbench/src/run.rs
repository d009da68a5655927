//! The two passes of one benchmark invocation.
//!
//! * [`untraced`] times the workload with tracing off and reports the
//!   end-to-end metrics: `run_s`, `setup_s` and `peak_heap_mb`.
//! * [`traced`] reports the per-layer metrics: the layer replays, the
//!   workload's engine runs under [`BenchSink`](crate::sink::BenchSink),
//!   the lane kernel on the `guess-maint-500k` config, and both suites
//!   report by report. It also prints the layer accounting table.
//!
//! Both passes check every output they produce against its pin and
//! count each mismatch as a failed operation.

use std::time::{Duration, Instant};

use guess_bench::alloc_meter;
use guess_bench::bench::{host_cores, BENCH_LANES};
use simkit::sim::SimReport;

use crate::account::{self, ProbeTotals};
use crate::layers;
use crate::pins;
use crate::stats::{median, process_cpu_s, timed};
use crate::workloads::{maint_config, EngineConfig, EngineRun, Suite, Workload};

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a pass measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Outputs checked against a pin or an invariant.
    pub attempted: u64,
    /// Outputs that did not match.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records one checked output; `problem` is `None` when it matched.
    fn check(&mut self, what: &str, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            println!("MISMATCH {what}: {p}");
        }
    }
}

/// Set-up samples of the suites' engine builds (each a few ms) taken
/// before each pass.
const SUITE_SETUPS_PER_PASS: usize = 40;

/// Repetitions every untraced pass makes at least, so its median is
/// never a single sample.
const MIN_REPS: usize = 2;

/// Runs `rep` at least [`MIN_REPS`] times, then until another repetition
/// of the mean length would end past `budget`, and returns each
/// repetition's result.
fn repeat<T>(budget: Duration, mut rep: impl FnMut() -> T) -> Vec<T> {
    let started = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(rep());
        let elapsed = started.elapsed();
        if out.len() >= MIN_REPS && elapsed + elapsed / out.len() as u32 > budget {
            return out;
        }
    }
}

/// The untraced pass: end-to-end metrics of `w`.
///
/// # Errors
///
/// A pin file that cannot be read.
pub fn untraced(w: Workload, seed: u64, budget: Duration) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    match w.suite() {
        None => {
            let pin = pins::load_maint()?;
            let cfg = EngineConfig::Guess(maint_config(seed));
            // An unrun build before each repetition doubles the set-up
            // samples and spreads them over the whole timing window.
            let mut setups = Vec::new();
            let runs = repeat(budget, || {
                setups.push(cfg.setup_only());
                let run = cfg.run();
                setups.push(run.setup_s);
                run
            });
            for (i, r) in runs.iter().enumerate() {
                println!(
                    "rep {i}: setup_s {:.4}  run_s {:.4}  events {}  events_per_s {:.0}  \
                     bytes_per_peer {}  hash {:#018x}",
                    r.setup_s,
                    r.run_s,
                    r.events,
                    r.events as f64 / r.run_s,
                    r.peak_bytes / cfg.peers(),
                    r.hash
                );
                out.check(
                    &format!("{} rep {i}", w.name()),
                    pins::maint_problem(r, &runs[0], seed, pin),
                );
            }
            let run_s: Vec<f64> = runs.iter().map(|r| r.run_s).collect();
            out.metric("run_s", median(&run_s), "s");
            out.metric("setup_s", median(&setups), "s");
            out.metric("peak_heap_mb", runs[0].peak_bytes as f64 / 1e6, "MB");
        }
        Some(suite) => {
            let pins = pins::load(w)?;
            let probes = w.probes(seed);
            // Set-up samples are taken before every pass, not in one
            // block, so their median spans the whole timing window.
            let mut setups = Vec::new();
            let passes = repeat(budget, || {
                let builds: Vec<f64> = (0..SUITE_SETUPS_PER_PASS)
                    .map(|_| probes.iter().map(EngineConfig::setup_only).sum())
                    .collect();
                let setup_s = median(&builds);
                setups.extend(builds);
                let base = alloc_meter::current_bytes();
                alloc_meter::reset_peak();
                let (runs, secs) = timed(|| suite.run(host_cores()));
                (
                    runs,
                    secs,
                    alloc_meter::peak_bytes().saturating_sub(base),
                    setup_s,
                )
            });
            for (i, (runs, secs, peak, setup_s)) in passes.iter().enumerate() {
                println!(
                    "pass {i}: setup_s {setup_s:.5}  run_s {secs:.4}  peak_heap_mb {:.1}",
                    *peak as f64 / 1e6
                );
                for r in runs {
                    out.check(
                        &format!("{} pass {i} {}", w.name(), r.name),
                        pins::problem(r, &pins),
                    );
                }
            }
            let secs: Vec<f64> = passes.iter().map(|p| p.1).collect();
            let peaks: Vec<f64> = passes.iter().map(|p| p.2 as f64 / 1e6).collect();
            out.metric("run_s", median(&secs), "s");
            out.metric("setup_s", median(&setups), "s");
            out.metric("peak_heap_mb", median(&peaks), "MB");
        }
    }
    println!("output_mismatch {}", out.failed);
    Ok(out)
}

/// The traced pass: per-layer metrics, with `w` choosing the engine runs
/// whose work is counted.
///
/// # Errors
///
/// A pin file that cannot be read.
pub fn traced(w: Workload, seed: u64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let maint_pin = pins::load_maint()?;
    let suite_pins = [
        (Suite::paper_quick(), pins::load(Workload::PaperQuick)?),
        (
            Suite::forwarding_full(),
            pins::load(Workload::ForwardingFull)?,
        ),
    ];

    // Layer replays.
    let replays = layers::all(seed);
    let reference = layers::all_checksums(&replays);
    println!("layer replays (seed {seed:#x}, checksum {reference:#018x})");
    for m in &replays {
        println!("  {:<28} {:>14.3} {}", m.name, m.value, m.unit);
        out.metric(m.name, m.value, m.unit);
    }

    // The workload's engine runs, untraced then traced.
    let mut totals = ProbeTotals::default();
    let mut serial: Option<EngineRun> = None;
    let mut bytes_per_peer = 0usize;
    for p in w.probes(seed) {
        let plain = p.run();
        let (traced, sink) = p.run_traced();
        let what = format!("{} {} engine run", w.name(), p.engine());
        let problem = if !plain.invariant_ok {
            Some("engine invariant failed".to_string())
        } else if (traced.events, traced.hash) != (plain.events, plain.hash) {
            Some("traced run differs from the untraced run".to_string())
        } else if w == Workload::GuessMaint500k {
            pins::maint_problem(&plain, &plain, seed, maint_pin)
        } else {
            None
        };
        out.check(&what, problem);
        println!(
            "{what}: events {}  run_s {:.4}  traced_run_s {:.4}  sample ticks at host s {:?}",
            plain.events, plain.run_s, traced.run_s, sink.tick_host_s
        );
        println!("  counting sink: {:?}", sink.counts);
        bytes_per_peer = bytes_per_peer.max(plain.peak_bytes / p.peers());
        totals.add(p.peers(), plain.events, plain.run_s, traced.run_s, &sink);
        if w == Workload::GuessMaint500k {
            serial = Some(plain);
        }
    }
    out.metric("kernel.events", totals.events as f64, "count");
    out.metric(
        "kernel.events_per_s",
        totals.events as f64 / totals.run_s,
        "1/s",
    );
    out.metric("kernel.host_s_per_tick", median(&totals.tick_gaps), "s");
    out.metric("heap.bytes_per_peer", bytes_per_peer as f64, "B");
    out.metric(
        "trace.overhead",
        totals.traced_run_s / totals.run_s,
        "ratio",
    );
    out.metric("trace.records", totals.records as f64, "count");
    for (name, v) in [
        ("trace.query_probes", totals.query_probes),
        ("trace.ping_probes", totals.ping_probes),
        ("trace.flood_probes", totals.flood_probes),
        ("trace.push_probes", totals.push_probes),
        ("trace.pull_probes", totals.pull_probes),
        ("trace.evictions", totals.evictions),
        ("trace.joins", totals.joins),
        ("trace.deaths", totals.deaths),
    ] {
        out.metric(name, v as f64, "count");
    }

    // The lane kernel on the guess-maint-500k config.
    let serial = serial.unwrap_or_else(|| EngineConfig::Guess(maint_config(seed)).run());
    let mut lane_cfg = maint_config(seed);
    lane_cfg.run.lanes = BENCH_LANES;
    let (lanes, lanes_s) = timed(|| guess::run_lanes(lane_cfg, host_cores()));
    let lanes = lanes.map_err(|e| format!("lane config: {e}"))?;
    let speedup = (serial.setup_s + serial.run_s) / lanes_s;
    println!(
        "lanes: {BENCH_LANES} lanes on {} threads: {lanes_s:.4} s, {} events; serial {:.4} s; speedup {speedup:.3}",
        host_cores(),
        lanes.events_processed(),
        serial.setup_s + serial.run_s
    );
    out.metric("lanes.run_s", lanes_s, "s");
    out.metric("lanes.events", lanes.events_processed() as f64, "count");
    out.metric("lanes.speedup", speedup, "ratio");

    // Both suites, report by report.
    let cpu0 = process_cpu_s();
    let wall0 = Instant::now();
    for (suite, pins) in &suite_pins {
        let scale = format!("{:?}", suite.scale).to_lowercase();
        let runs = suite.run(host_cores());
        for r in &runs {
            out.check(&format!("{scale} {}", r.name), pins::problem(r, pins));
            out.metric(format!("runner.report_s.{scale}.{}", r.name), r.secs, "s");
        }
    }
    let wall = wall0.elapsed().as_secs_f64();
    let cpu_util = match (cpu0, process_cpu_s()) {
        (Some(a), Some(b)) => (b - a) / (host_cores() as f64 * wall),
        _ => return Err("/proc/self/stat is unreadable".into()),
    };
    println!(
        "runner: suites took {wall:.3} s on {} workers, cpu_util {cpu_util:.3}",
        host_cores()
    );
    out.metric("runner.cpu_util", cpu_util, "ratio");

    let value = |name: &str| {
        replays
            .iter()
            .find(|m| m.name == name)
            .map(|m| match m.unit {
                "ns" => m.value * 1e-9,
                "ms" => m.value * 1e-3,
                _ => m.value,
            })
            .expect("every costed metric is a replay")
    };
    let rows = account::rows(w, &totals, value);
    print!("{}", account::render(w, &rows, totals.run_s));
    println!("output_mismatch {}", out.failed);
    Ok(out)
}
