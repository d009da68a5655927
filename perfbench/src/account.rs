//! The layer accounting table: for a workload's engine runs, each
//! layer's estimated seconds (a work count from the trace times that
//! layer's per-call cost from the replays), its share of the measured
//! untraced `run_s`, and what the estimates leave unexplained.
//!
//! The estimates are only as good as the count each row multiplies: a
//! row names its count so a reader can judge it. Costs are the replays'
//! (paper-default, Random-policy) figures.

use crate::sink::BenchSink;
use crate::workloads::Workload;

/// Work counts of a workload's engine runs, summed over its probes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProbeTotals {
    /// Peers of the probes, summed (initial population births happen
    /// in set-up, not in `run_s`).
    pub peers: u64,
    /// Kernel events.
    pub events: u64,
    /// Untraced run seconds (set-up excluded).
    pub run_s: f64,
    /// Traced run seconds.
    pub traced_run_s: f64,
    /// `PeerJoin` records.
    pub joins: u64,
    /// `PeerDeath` records.
    pub deaths: u64,
    /// `QueryStart` records.
    pub query_starts: u64,
    /// Query probes.
    pub query_probes: u64,
    /// Answered query probes.
    pub good_query_probes: u64,
    /// Maintenance pings.
    pub ping_probes: u64,
    /// Answered maintenance pings.
    pub good_pings: u64,
    /// Flood messages.
    pub flood_probes: u64,
    /// First-time flood receipts (wavefront visits).
    pub flood_visits: u64,
    /// Gossip push hops.
    pub push_probes: u64,
    /// Gossip pull exchanges.
    pub pull_probes: u64,
    /// Cache evictions.
    pub evictions: u64,
    /// Kernel sample ticks.
    pub samples: u64,
    /// Every record the `CountingSink` saw.
    pub records: u64,
    /// Host seconds between consecutive sample ticks (the gap ending at
    /// each probe's first tick is left out: it carries warm-up).
    pub tick_gaps: Vec<f64>,
}

impl ProbeTotals {
    /// Adds one probe's runs.
    pub fn add(&mut self, peers: usize, events: u64, run_s: f64, traced_run_s: f64, s: &BenchSink) {
        let c = &s.counts;
        self.peers += peers as u64;
        self.events += events;
        self.run_s += run_s;
        self.traced_run_s += traced_run_s;
        self.joins += c.joins;
        self.deaths += c.deaths;
        self.query_starts += c.query_starts;
        self.query_probes += c.query_probes;
        self.good_query_probes += s.good_query_probes;
        self.ping_probes += c.ping_probes;
        self.good_pings += s.good_pings;
        self.flood_probes += c.flood_probes;
        self.flood_visits += s.flood_visits;
        self.push_probes += c.push_probes;
        self.pull_probes += c.pull_probes;
        self.evictions += c.evictions;
        self.samples += c.samples;
        self.records += c.total();
        self.tick_gaps.extend(s.tick_gaps().into_iter().skip(1));
    }
}

/// One row of the table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Layer (module) name.
    pub layer: &'static str,
    /// What was counted.
    pub count_of: &'static str,
    /// The count.
    pub count: f64,
    /// Per-layer metric supplying the cost.
    pub cost_metric: &'static str,
    /// Cost per counted unit, seconds.
    pub unit_s: f64,
}

impl Row {
    /// Estimated seconds: count × cost.
    #[must_use]
    pub fn est_s(&self) -> f64 {
        self.count * self.unit_s
    }
}

/// Builds `w`'s rows from its probe totals; `cost` looks up a layer
/// metric's value in seconds per unit.
#[must_use]
pub fn rows(w: Workload, t: &ProbeTotals, cost: impl Fn(&str) -> f64) -> Vec<Row> {
    let row = |layer, count_of, count: f64, cost_metric: &'static str| Row {
        layer,
        count_of,
        count,
        cost_metric,
        unit_s: cost(cost_metric),
    };
    let births_in_run = t.joins.saturating_sub(t.peers) as f64;
    // Every answered ping or query probe absorbs one 5-entry pong.
    let pongs = (t.good_pings + t.good_query_probes) as f64;
    let queue = match w {
        Workload::GuessMaint500k => "event.hold_ns.d500k",
        _ => "event.hold_ns.d1k",
    };
    let mut out = vec![row(
        "simkit::event",
        "kernel events",
        t.events as f64,
        queue,
    )];
    match w {
        Workload::GuessMaint500k | Workload::PaperQuick => {
            out.push(row(
                "guess::link_cache",
                "pong entries offered",
                5.0 * pongs,
                "link_cache.offer_ns.random",
            ));
            out.push(row(
                "guess::policy",
                "top-k picks (pings + pongs)",
                t.ping_probes as f64 + pongs,
                "policy.top_k_ns.random",
            ));
            out.push(row(
                "guess::policy",
                "probe-queue pops (query probes)",
                t.query_probes as f64,
                "policy.probe_queue_ns",
            ));
        }
        Workload::ForwardingFull => {
            out.push(row(
                "gnutella::wavefront",
                "wavefront visits",
                t.flood_visits as f64,
                "wavefront.advance_ns",
            ));
            out.push(row("gossip", "gossip runs", 1.0, "gossip.run_s"));
        }
    }
    if w == Workload::PaperQuick {
        out.push(row(
            "guess::graph",
            "sample ticks",
            t.samples as f64,
            "graph.lcc_ms",
        ));
    }
    out.push(row(
        "workload",
        "births during the run",
        births_in_run,
        "workload.library_alloc_ns",
    ));
    out.push(row(
        "workload",
        "query item draws",
        t.query_starts as f64,
        "workload.zipf_sample_ns",
    ));
    out
}

/// Renders the table against the measured untraced `run_s`.
#[must_use]
pub fn render(w: Workload, rows: &[Row], run_s: f64) -> String {
    let mut s = format!(
        "layer accounting for {} (engine runs' untraced run_s = {run_s:.3} s)\n",
        w.name()
    );
    s += &format!(
        "  {:<20} {:<32} {:>14} {:<28} {:>9} {:>7}\n",
        "layer", "count", "value", "cost", "est_s", "share"
    );
    let mut explained = 0.0;
    for r in rows {
        explained += r.est_s();
        s += &format!(
            "  {:<20} {:<32} {:>14.0} {:<28} {:>9.3} {:>6.1}%\n",
            r.layer,
            r.count_of,
            r.count,
            r.cost_metric,
            r.est_s(),
            100.0 * r.est_s() / run_s
        );
    }
    let rest = run_s - explained;
    s += &format!(
        "  {:<20} {:<32} {:>14} {:<28} {:>9.3} {:>6.1}%\n",
        "unexplained",
        "",
        "",
        "",
        rest,
        100.0 * rest / run_s
    );
    s
}
