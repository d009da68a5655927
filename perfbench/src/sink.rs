//! The benchmark's own trace sink.
//!
//! [`BenchSink`] forwards every record to a [`CountingSink`] (the work
//! counts the layer table divides by) and stamps the host clock at each
//! kernel `Sample` record, which turns the simulated sample ticks into a
//! host-time timeline: how long each stretch of simulated time took to
//! compute, warm-up against steady state.

use std::time::Instant;

use simkit::time::SimTime;
use simkit::trace::{CountingSink, ProbeKind, ProbeOutcome, TraceRecord, TraceSink};

/// Counts records and timestamps sample ticks on the host clock.
#[derive(Debug, Clone)]
pub struct BenchSink {
    /// Per-kind record totals.
    pub counts: CountingSink,
    /// Answered maintenance pings (each absorbs one pong).
    pub good_pings: u64,
    /// Answered query probes (each absorbs one pong).
    pub good_query_probes: u64,
    /// Flood messages that reached a peer for the first time — the
    /// nodes a wavefront visited.
    pub flood_visits: u64,
    started: Instant,
    /// Host seconds since the sink was made, one per `Sample` record.
    pub tick_host_s: Vec<f64>,
}

impl BenchSink {
    /// A fresh sink whose host clock starts now.
    #[must_use]
    pub fn new() -> Self {
        BenchSink {
            counts: CountingSink::new(),
            good_pings: 0,
            good_query_probes: 0,
            flood_visits: 0,
            started: Instant::now(),
            tick_host_s: Vec::new(),
        }
    }

    /// Host seconds between consecutive ticks, the first measured from
    /// the sink's creation (so it carries set-up of the kernel run and
    /// the warm-up stretch).
    #[must_use]
    pub fn tick_gaps(&self) -> Vec<f64> {
        let mut prev = 0.0;
        self.tick_host_s
            .iter()
            .map(|&t| {
                let gap = t - prev;
                prev = t;
                gap
            })
            .collect()
    }
}

impl Default for BenchSink {
    fn default() -> Self {
        BenchSink::new()
    }
}

impl TraceSink for BenchSink {
    fn record(&mut self, at: SimTime, rec: TraceRecord) {
        match rec {
            TraceRecord::Sample { .. } => {
                self.tick_host_s.push(self.started.elapsed().as_secs_f64());
            }
            TraceRecord::Probe { kind, outcome, .. } => match (kind, outcome) {
                (ProbeKind::Ping, ProbeOutcome::Good) => self.good_pings += 1,
                (ProbeKind::Query, ProbeOutcome::Good) => self.good_query_probes += 1,
                (ProbeKind::Flood, o) if o != ProbeOutcome::Duplicate => self.flood_visits += 1,
                _ => {}
            },
            _ => {}
        }
        self.counts.record(at, rec);
    }
}
