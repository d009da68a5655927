//! The benchmark's workloads and the engine runs the traced pass probes.
//!
//! * `guess-maint-500k` — one serial GUESS run at N = 500 000, queries
//!   off: the event queue, ping/pong link-cache upkeep, the arenas and
//!   population set-up carry the time.
//! * `paper-quick` — every registry experiment, then every catalog
//!   scenario, at Quick scale: what a user waits for to regenerate the
//!   paper.
//! * `forwarding-full` — `fig8`, `forwarding`, `forwarding3` and
//!   `gossip` at Full scale: flood hops, fixed-extent curves and the
//!   gossip engine.
//!
//! The suites run one report at a time, in registry order, through one
//! fresh [`Ctx`] per pass with `jobs` = the host's cores, and use the registry's
//! built-in seeds (their outputs are pinned by committed goldens). The
//! GUESS run takes its seed from the command line.

use std::fmt::Debug;

use guess_bench::alloc_meter;
use guess_bench::report::Report;
use guess_bench::runner::Ctx;
use guess_bench::scale::{base_config, Scale};
use guess_bench::{experiments, scenarios};
use simkit::sim::{Runnable, SimReport};
use simkit::time::SimDuration;
use simkit::trace::{NullSink, TraceSink};

use crate::sink::BenchSink;
use crate::stats::{fnv1a, timed};

/// The seed `guess-maint-500k` and the layer replays use when none is
/// given — the repository's bench seed, at which the GUESS run's event
/// count is pinned.
pub const DEFAULT_SEED: u64 = 0xBE7C;

/// Peers of the `guess-maint-500k` network.
pub const MAINT_PEERS: usize = 500_000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Serial GUESS maintenance at N = 500 000.
    GuessMaint500k,
    /// The whole paper at Quick scale.
    PaperQuick,
    /// The forwarding-family reports at Full scale.
    ForwardingFull,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::GuessMaint500k,
        Workload::PaperQuick,
        Workload::ForwardingFull,
    ];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::GuessMaint500k => "guess-maint-500k",
            Workload::PaperQuick => "paper-quick",
            Workload::ForwardingFull => "forwarding-full",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The report suite this workload runs, if it is a suite.
    #[must_use]
    pub fn suite(self) -> Option<Suite> {
        match self {
            Workload::GuessMaint500k => None,
            Workload::PaperQuick => Some(Suite::paper_quick()),
            Workload::ForwardingFull => Some(Suite::forwarding_full()),
        }
    }

    /// The engine runs that represent this workload's simulators: the
    /// GUESS run itself, the GUESS base config at Quick scale for
    /// `paper-quick`, and the Gnutella and gossip defaults at Full scale
    /// for `forwarding-full` (with a 60 s sample tick, which those
    /// defaults leave off, so the traced pass gets a tick timeline).
    /// Their set-up is the suites' `setup_s`; the traced pass takes its
    /// work counts from them.
    #[must_use]
    pub fn probes(self, seed: u64) -> Vec<EngineConfig> {
        match self {
            Workload::GuessMaint500k => vec![EngineConfig::Guess(maint_config(seed))],
            Workload::PaperQuick => vec![EngineConfig::Guess(base_config(Scale::Quick, seed))],
            Workload::ForwardingFull => vec![
                EngineConfig::Gnutella(
                    gnutella::dynamic::GnutellaConfig::default()
                        .with_duration(Scale::Full.duration())
                        .with_warmup(Scale::Full.warmup())
                        .with_sample_interval(Some(SimDuration::from_secs(PROBE_TICK_S)))
                        .with_seed(seed),
                ),
                EngineConfig::Gossip(
                    gossip::Config::default()
                        .with_duration(Scale::Full.duration())
                        .with_warmup(Scale::Full.warmup())
                        .with_sample_interval(Some(SimDuration::from_secs(PROBE_TICK_S)))
                        .with_seed(seed),
                ),
            ],
        }
    }
}

/// Sample tick of the forwarding-full engine runs (the GUESS base
/// config's own interval).
const PROBE_TICK_S: f64 = 60.0;

/// The `guess-maint-500k` configuration: paper-default protocol at
/// N = 500 000, queries off, a 120 s horizon with 30 s of warm-up, on
/// the serial engine.
#[must_use]
pub fn maint_config(seed: u64) -> guess::Config {
    let mut cfg = base_config(Scale::Full, seed).with_network_size(MAINT_PEERS);
    cfg.run.duration = SimDuration::from_secs(120.0);
    cfg.run.warmup = SimDuration::from_secs(30.0);
    cfg.run.simulate_queries = false;
    cfg.run.lanes = 1;
    cfg
}

/// One engine configuration the benchmark can build and run.
// A run holds a handful of these, so the GUESS variant's size is moot.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum EngineConfig {
    /// A GUESS run (serial unless `run.lanes > 1`).
    Guess(guess::Config),
    /// A dynamic Gnutella flooding run.
    Gnutella(gnutella::dynamic::GnutellaConfig),
    /// A gossip run.
    Gossip(gossip::Config),
}

/// What one engine run measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineRun {
    /// Host seconds of building the simulator (population, caches,
    /// overlay).
    pub setup_s: f64,
    /// Host seconds of running it to the horizon.
    pub run_s: f64,
    /// Kernel events processed.
    pub events: u64,
    /// FNV-1a of the report's `Debug` rendering.
    pub hash: u64,
    /// Peak heap growth over set-up plus run, bytes.
    pub peak_bytes: usize,
    /// Whether the report passed the engine's invariant check (GUESS:
    /// every death was replaced, so births = deaths + N).
    pub invariant_ok: bool,
}

impl EngineConfig {
    /// Short engine name.
    #[must_use]
    pub fn engine(&self) -> &'static str {
        match self {
            EngineConfig::Guess(_) => "guess",
            EngineConfig::Gnutella(_) => "gnutella",
            EngineConfig::Gossip(_) => "gossip",
        }
    }

    /// Simulated peers.
    #[must_use]
    pub fn peers(&self) -> usize {
        match self {
            EngineConfig::Guess(c) => c.system.network_size,
            EngineConfig::Gnutella(c) => c.network_size,
            EngineConfig::Gossip(c) => c.network_size,
        }
    }

    /// Validates the configuration as the engine does before it builds.
    ///
    /// # Errors
    ///
    /// The engine's validation message.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            EngineConfig::Guess(c) => c.validate().map_err(|e| e.to_string()),
            EngineConfig::Gnutella(c) => c.validate().map_err(|e| e.to_string()),
            EngineConfig::Gossip(c) => c.validate().map_err(|e| e.to_string()),
        }
    }

    /// Host seconds of building the simulator alone (it is dropped
    /// unrun).
    #[must_use]
    pub fn setup_only(&self) -> f64 {
        match self {
            EngineConfig::Guess(c) => build_secs(|| guess::GuessSim::new(c.clone())),
            EngineConfig::Gnutella(c) => build_secs(|| c.clone().build()),
            EngineConfig::Gossip(c) => build_secs(|| c.clone().build()),
        }
    }

    /// Builds and runs untraced.
    #[must_use]
    pub fn run(&self) -> EngineRun {
        self.run_with(NullSink).0
    }

    /// Builds and runs with the benchmark's sink.
    #[must_use]
    pub fn run_traced(&self) -> (EngineRun, BenchSink) {
        self.run_with(BenchSink::new())
    }

    fn run_with<T: TraceSink>(&self, sink: T) -> (EngineRun, T) {
        match self {
            EngineConfig::Guess(c) => {
                let n = c.system.network_size as u64;
                drive(
                    || guess::GuessSim::new(c.clone()),
                    |r: &guess::RunReport| r.counters.get("births") == r.counters.get("deaths") + n,
                    sink,
                )
            }
            EngineConfig::Gnutella(c) => drive(|| c.clone().build(), |_| true, sink),
            EngineConfig::Gossip(c) => drive(|| c.clone().build(), |_| true, sink),
        }
    }
}

/// Host seconds of `build`; the built simulator is dropped after the
/// clock stops.
fn build_secs<S, E: Debug>(build: impl FnOnce() -> Result<S, E>) -> f64 {
    let (sim, secs) = timed(|| build().expect("benchmark configs validate"));
    drop(sim);
    secs
}

/// Builds a simulator, runs it with `sink`, meters the heap over both
/// phases, and checks the report with `invariant`.
fn drive<S, E, T>(
    build: impl FnOnce() -> Result<S, E>,
    invariant: impl FnOnce(&S::Report) -> bool,
    sink: T,
) -> (EngineRun, T)
where
    S: Runnable,
    S::Report: SimReport + Debug,
    E: Debug,
    T: TraceSink,
{
    let base = alloc_meter::current_bytes();
    alloc_meter::reset_peak();
    let (sim, setup_s) = timed(|| build().expect("benchmark configs validate"));
    let ((report, sink), run_s) = timed(|| sim.run_traced(sink));
    let peak_bytes = alloc_meter::peak_bytes().saturating_sub(base);
    let run = EngineRun {
        setup_s,
        run_s,
        events: report.events_processed(),
        hash: fnv1a(&format!("{report:?}")),
        peak_bytes,
        invariant_ok: invariant(&report),
    };
    (run, sink)
}

/// One report of a suite.
#[derive(Debug, Clone, Copy)]
pub struct SuiteReport {
    /// Registry name.
    pub name: &'static str,
    /// Renders the report.
    pub run: fn(&Ctx) -> Report,
}

/// An ordered list of reports at one scale.
#[derive(Debug, Clone)]
pub struct Suite {
    /// Scale every report runs at.
    pub scale: Scale,
    /// Reports in run order.
    pub reports: Vec<SuiteReport>,
}

/// What one report of a suite pass measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportRun {
    /// Registry name.
    pub name: &'static str,
    /// FNV-1a of `render_text()`.
    pub hash: u64,
    /// Host seconds of the report.
    pub secs: f64,
}

/// The names of `forwarding-full`'s reports, in run order.
pub const FORWARDING_REPORTS: [&str; 4] = ["fig8", "forwarding", "forwarding3", "gossip"];

impl Suite {
    /// All registry experiments, then all catalog scenarios, at Quick
    /// scale.
    #[must_use]
    pub fn paper_quick() -> Suite {
        let mut reports: Vec<SuiteReport> = experiments::all()
            .into_iter()
            .map(|e| SuiteReport {
                name: e.name,
                run: e.run,
            })
            .collect();
        reports.extend(scenarios::all().into_iter().map(|s| SuiteReport {
            name: s.name,
            run: s.run,
        }));
        Suite {
            scale: Scale::Quick,
            reports,
        }
    }

    /// The forwarding-family experiments at Full scale.
    #[must_use]
    pub fn forwarding_full() -> Suite {
        let reports = FORWARDING_REPORTS
            .iter()
            .map(|name| {
                let e = experiments::find(name).expect("forwarding reports are registered");
                SuiteReport {
                    name: e.name,
                    run: e.run,
                }
            })
            .collect();
        Suite {
            scale: Scale::Full,
            reports,
        }
    }

    /// Runs every report once, in order, through one fresh context.
    #[must_use]
    pub fn run(&self, jobs: usize) -> Vec<ReportRun> {
        let ctx = Ctx::new(self.scale, jobs);
        self.reports
            .iter()
            .map(|r| {
                let (report, secs) = timed(|| (r.run)(&ctx));
                ReportRun {
                    name: r.name,
                    hash: fnv1a(&report.render_text()),
                    secs,
                }
            })
            .collect()
    }
}
