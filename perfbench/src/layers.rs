//! Layer replays: each times calls into one layer's public functions
//! with inputs shaped like the workload that stresses that layer.
//!
//! Every replay draws its inputs from the benchmark's `--seed`, repeats
//! its timed batch [`BATCHES`] times and reports the median batch's cost
//! per call, plus a checksum of what the calls returned, so the same
//! seed must give the same checksum on every run.

use std::hint::black_box;
use std::time::Instant;

use gnutella::fixed::FixedExtentCurve;
use gnutella::population::Population;
use gnutella::topology::Topology;
use gnutella::wavefront::{advance, VisitTable};
use guess::addr::AddrAllocator;
use guess::entry::CacheEntry;
use guess::link_cache::{CacheArena, InsertOutcome};
use guess::policy::{select_top_k, ProbeQueue};
use guess::{ReplacementPolicy, SelectionPolicy};
use simkit::event::EventQueue;
use simkit::rng::RngStream;
use simkit::time::SimTime;
use workload::content::{Catalog, CatalogParams, LibraryArena};
use workload::files::FileCountModel;

use crate::stats::median;

/// Timed batches per replay; the median batch is reported.
pub const BATCHES: usize = 5;

/// One per-layer figure and the checksum of the calls behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMetric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
    /// Combined result of the timed calls; depends only on the seed.
    pub checksum: u64,
}

/// Runs `batch` [`BATCHES`] times and returns the median seconds per
/// call (`calls` per batch) and the wrapping sum of the batch results.
fn per_call(calls: u64, mut batch: impl FnMut() -> u64) -> (f64, u64) {
    let mut secs = Vec::with_capacity(BATCHES);
    let mut checksum = 0u64;
    for _ in 0..BATCHES {
        let started = Instant::now();
        let out = black_box(batch());
        secs.push(started.elapsed().as_secs_f64() / calls as f64);
        checksum = checksum.wrapping_mul(31).wrapping_add(out);
    }
    (median(&secs), checksum)
}

fn ns(name: &'static str, (secs, checksum): (f64, u64)) -> LayerMetric {
    LayerMetric {
        name,
        value: secs * 1e9,
        unit: "ns",
        checksum,
    }
}

fn ms(name: &'static str, (secs, checksum): (f64, u64)) -> LayerMetric {
    LayerMetric {
        name,
        value: secs * 1e3,
        unit: "ms",
        checksum,
    }
}

/// `name`'s mean over two per-policy metrics, followed by them.
fn with_mean(name: &'static str, per_policy: [LayerMetric; 2]) -> Vec<LayerMetric> {
    let [a, b] = per_policy;
    let mean = LayerMetric {
        name,
        value: (a.value + b.value) / 2.0,
        unit: a.unit,
        checksum: a.checksum.wrapping_add(b.checksum),
    };
    vec![mean, a, b]
}

/// Runs every layer replay for `seed`, in a fixed order.
#[must_use]
pub fn all(seed: u64) -> Vec<LayerMetric> {
    let mut out = vec![
        event_hold("event.hold_ns.d1k", seed, 1_000, 400_000),
        event_hold("event.hold_ns.d500k", seed, 500_000, 100_000),
        event_burst(seed),
    ];
    out.extend(link_cache_offer(seed));
    out.extend(policy_top_k(seed));
    out.push(policy_probe_queue(seed));
    out.push(graph_lcc(seed));
    out.push(wavefront_advance(seed));
    out.push(fixed_curve(seed));
    out.push(gossip_run(seed));
    out.push(zipf_sample(seed));
    out.push(library_alloc(seed));
    out
}

/// One checksum over every replay's, order-sensitive.
#[must_use]
pub fn all_checksums(metrics: &[LayerMetric]) -> u64 {
    metrics
        .iter()
        .fold(0u64, |acc, m| acc.rotate_left(7) ^ m.checksum)
}

/// Hold-model replay on an [`EventQueue`] preloaded with `depth`
/// pending events: pop one, schedule one at now + U[15, 45] s. The
/// 15–45 s spread is the GUESS ping cycle, so the queue's time span and
/// bucket density match a maintenance run of `depth` peers.
#[must_use]
pub fn event_hold(name: &'static str, seed: u64, depth: usize, holds: u64) -> LayerMetric {
    let mut rng = RngStream::from_seed(seed, "perfbench-event-hold");
    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..depth {
        q.schedule(SimTime::from_secs(rng.uniform(15.0, 45.0)), i as u32);
    }
    ns(
        name,
        per_call(holds, || {
            let mut sum = 0u64;
            for _ in 0..holds {
                let (now, ev) = q.pop().expect("the hold model keeps the queue full");
                sum = sum.wrapping_add(u64::from(ev));
                q.schedule(
                    SimTime::from_secs(now.as_secs() + rng.uniform(15.0, 45.0)),
                    ev,
                );
            }
            sum
        }),
    )
}

/// The overlay every flooding replay runs on: 1000 peers, each opening
/// 4 connections — the Gnutella engine's default initial wiring.
fn overlay(seed: u64) -> Topology {
    let mut rng = RngStream::from_seed(seed, "perfbench-overlay");
    Topology::random_regular(1000, 4, &mut rng)
}

/// TTL of the flooding replays (the Gnutella default).
const FLOOD_TTL: usize = 7;

/// Per-hop transmission counts of `floods` TTL-7 floods from random
/// origins on `topo`.
fn flood_hops(topo: &Topology, floods: usize, rng: &mut RngStream) -> Vec<u64> {
    let mut visits = VisitTable::new(topo.len());
    let (mut frontier, mut next) = (Vec::new(), Vec::new());
    let mut hops = Vec::with_capacity(floods * FLOOD_TTL);
    for _ in 0..floods {
        let token = visits.token();
        let origin = rng.below(topo.len()) as u32;
        visits.visit(origin, token);
        frontier.clear();
        frontier.push(origin);
        for _ in 0..FLOOD_TTL {
            next.clear();
            let sent = advance(
                &frontier,
                &mut next,
                &mut visits,
                token,
                |u| topo.neighbors(u as usize),
                |_, _| {},
            );
            hops.push(sent);
            std::mem::swap(&mut frontier, &mut next);
        }
    }
    hops
}

/// Burst replay: each hop of a TTL-7 flood on the degree-4 overlay
/// schedules all its transmissions at one instant, then the queue is
/// drained — the bursty same-instant pattern flood hops give the event
/// queue. Reports ns per event (one schedule plus one pop).
#[must_use]
pub fn event_burst(seed: u64) -> LayerMetric {
    let topo = overlay(seed);
    let mut rng = RngStream::from_seed(seed, "perfbench-event-burst");
    let hops = flood_hops(&topo, 40, &mut rng);
    let events: u64 = hops.iter().sum();
    let mut q: EventQueue<u32> = EventQueue::new();
    ns(
        "event.burst_ns",
        per_call(events, || {
            let mut sum = 0u64;
            for &n in &hops {
                let at = SimTime::from_secs(q.now().as_secs() + 0.05);
                for i in 0..n {
                    q.schedule(at, i as u32);
                }
                while let Some((_, ev)) = q.pop() {
                    sum = sum.wrapping_add(u64::from(ev));
                }
            }
            sum
        }),
    )
}

/// A random cache entry among `addrs` addresses, stamped within the
/// first 1000 simulated seconds.
fn random_entry(addrs: &[guess::addr::PeerAddr], rng: &mut RngStream) -> CacheEntry {
    let addr = addrs[rng.below(addrs.len())];
    let ts = SimTime::from_secs(rng.uniform(0.0, 1000.0));
    CacheEntry::new(addr, ts, rng.below(500) as u32)
}

/// `CacheArena::offer` at cache size 100 under Random and LRU
/// replacement: 1000 full caches fed a pong stream of entries naming
/// 1000 peers, five per pong — the paper-quick network's shape.
/// Reports ns per offer, per policy and over both.
#[must_use]
pub fn link_cache_offer(seed: u64) -> Vec<LayerMetric> {
    const PEERS: usize = 1000;
    const OFFERS: u64 = 200_000;
    let mut alloc = AddrAllocator::new();
    let addrs: Vec<_> = (0..PEERS).map(|_| alloc.allocate()).collect();
    let per_policy = [
        ("link_cache.offer_ns.random", ReplacementPolicy::Random),
        ("link_cache.offer_ns.lru", ReplacementPolicy::Lru),
    ]
    .map(|(name, policy)| {
        let mut rng = RngStream::from_seed(seed, name);
        let mut arena = CacheArena::with_peer_capacity(100, PEERS);
        let caches: Vec<_> = (0..PEERS).map(|_| arena.alloc()).collect();
        for &h in &caches {
            while !arena.is_full(h) {
                let e = random_entry(&addrs, &mut rng);
                let _ = arena.offer(h, e, policy, &mut rng);
            }
        }
        let pongs: Vec<(usize, [CacheEntry; 5])> = (0..OFFERS / 5)
            .map(|_| {
                let owner = rng.below(PEERS);
                (
                    owner,
                    std::array::from_fn(|_| random_entry(&addrs, &mut rng)),
                )
            })
            .collect();
        ns(
            name,
            per_call(OFFERS, || {
                let mut sum = 0u64;
                for (owner, pong) in &pongs {
                    for e in pong {
                        sum += match arena.offer(caches[*owner], *e, policy, &mut rng) {
                            InsertOutcome::Inserted => 1,
                            InsertOutcome::Replaced(a) => 2 + a.index() as u64,
                            InsertOutcome::Rejected => 3,
                            InsertOutcome::AlreadyPresent => 5,
                        };
                    }
                }
                sum
            }),
        )
    });
    with_mean("link_cache.offer_ns", per_policy)
}

/// 100 random cache entries — one full link cache.
fn full_cache(rng: &mut RngStream) -> Vec<CacheEntry> {
    let mut alloc = AddrAllocator::new();
    let addrs: Vec<_> = (0..1000).map(|_| alloc.allocate()).collect();
    let mut entries = Vec::with_capacity(100);
    while entries.len() < 100 {
        let e = random_entry(&addrs, rng);
        if !entries.iter().any(|x: &CacheEntry| x.addr() == e.addr()) {
            entries.push(e);
        }
    }
    entries
}

/// `select_top_k` with k = 5 from 100 entries — one pong — under
/// Random and MFS selection. Reports ns per call, per policy and over
/// both.
#[must_use]
pub fn policy_top_k(seed: u64) -> Vec<LayerMetric> {
    const CALLS: u64 = 40_000;
    let mut rng = RngStream::from_seed(seed, "perfbench-top-k");
    let entries = full_cache(&mut rng);
    let per_policy = [
        ("policy.top_k_ns.random", SelectionPolicy::Random),
        ("policy.top_k_ns.mfs", SelectionPolicy::Mfs),
    ]
    .map(|(name, policy)| {
        ns(
            name,
            per_call(CALLS, || {
                let mut sum = 0u64;
                for _ in 0..CALLS {
                    for e in select_top_k(policy, &entries, 5, &mut rng) {
                        sum = sum.wrapping_add(e.addr().index() as u64);
                    }
                }
                sum
            }),
        )
    });
    with_mean("policy.top_k_ns", per_policy)
}

/// `ProbeQueue` under MFS: push a 100-entry cache, then pop it empty —
/// the candidate queue of one query. Reports ns per entry (one push
/// plus one pop).
#[must_use]
pub fn policy_probe_queue(seed: u64) -> LayerMetric {
    const FILLS: u64 = 4_000;
    let mut rng = RngStream::from_seed(seed, "perfbench-probe-queue");
    let entries = full_cache(&mut rng);
    ns(
        "policy.probe_queue_ns",
        per_call(FILLS * entries.len() as u64, || {
            let mut sum = 0u64;
            for _ in 0..FILLS {
                let mut q = ProbeQueue::new(SelectionPolicy::Mfs);
                for e in &entries {
                    q.push(*e, &mut rng);
                }
                while let Some(e) = q.pop() {
                    sum = sum.wrapping_mul(3).wrapping_add(e.addr().index() as u64);
                }
            }
            sum
        }),
    )
}

/// `largest_component` at the sample-sweep shape: 1000 nodes, each with
/// a 100-entry cache of which a tenth points at departed peers (edges
/// to out-of-range nodes, which the sweep skips). Reports ms per call.
#[must_use]
pub fn graph_lcc(seed: u64) -> LayerMetric {
    const NODES: usize = 1000;
    const CALLS: u64 = 20;
    let mut rng = RngStream::from_seed(seed, "perfbench-lcc");
    let edges: Vec<(usize, usize)> = (0..NODES)
        .flat_map(|u| (0..100).map(move |_| u))
        .map(|u| {
            let v = if rng.chance(0.1) {
                NODES + rng.below(NODES)
            } else {
                rng.below(NODES)
            };
            (u, v)
        })
        .collect();
    ms(
        "graph.lcc_ms",
        per_call(CALLS, || {
            (0..CALLS)
                .map(|_| guess::graph::largest_component(NODES, edges.iter().copied()) as u64)
                .sum()
        }),
    )
}

/// `advance` with one reused `VisitTable` on the degree-4 overlay:
/// TTL-7 floods from random origins. Reports ns per visited node.
#[must_use]
pub fn wavefront_advance(seed: u64) -> LayerMetric {
    const FLOODS: usize = 400;
    let topo = overlay(seed);
    let mut rng = RngStream::from_seed(seed, "perfbench-wavefront");
    let origins: Vec<u32> = (0..FLOODS).map(|_| rng.below(topo.len()) as u32).collect();
    let mut visits = VisitTable::new(topo.len());
    let (mut frontier, mut next) = (Vec::new(), Vec::new());
    let mut flood_all = |visits: &mut VisitTable| {
        let mut visited = 0u64;
        let mut sent = 0u64;
        for &origin in &origins {
            let token = visits.token();
            visits.visit(origin, token);
            frontier.clear();
            frontier.push(origin);
            for _ in 0..FLOOD_TTL {
                next.clear();
                sent += advance(
                    &frontier,
                    &mut next,
                    visits,
                    token,
                    |u| topo.neighbors(u as usize),
                    |_, _| {},
                );
                visited += next.len() as u64;
                std::mem::swap(&mut frontier, &mut next);
            }
        }
        (visited, sent)
    };
    let (visited, _) = flood_all(&mut visits);
    ns(
        "wavefront.advance_ns",
        per_call(visited, || {
            let (v, s) = flood_all(&mut visits);
            v.wrapping_mul(1_000_003).wrapping_add(s)
        }),
    )
}

/// `FixedExtentCurve::evaluate` at Figure 8's Full size: 1000 peers,
/// 4000 queries. Reports ms per evaluation.
#[must_use]
pub fn fixed_curve(seed: u64) -> LayerMetric {
    const CALLS: u64 = 1;
    let pop = Population::generate(1000, CatalogParams::default(), seed)
        .expect("the default catalog is valid");
    let mut rng = RngStream::from_seed(seed, "perfbench-fixed");
    ms(
        "fixed.curve_ms",
        per_call(CALLS, || {
            let curve = FixedExtentCurve::evaluate(&pop, 4000, &mut rng);
            (curve.unsatisfaction_at(50) * 1e6) as u64
        }),
    )
}

/// `GossipSim` at its default config (1000 peers, 2400 s). Reports
/// seconds per run, set-up included.
#[must_use]
pub fn gossip_run(seed: u64) -> LayerMetric {
    use simkit::sim::{Runnable, SimReport};
    let cfg = gossip::Config::default().with_seed(seed);
    let (secs, checksum) = per_call(1, || {
        cfg.clone()
            .build()
            .expect("the default gossip config is valid")
            .run()
            .events_processed()
    });
    LayerMetric {
        name: "gossip.run_s",
        value: secs,
        unit: "s",
        checksum,
    }
}

/// Query-popularity draws from the default catalog
/// (`Catalog::sample_query_item`). Reports ns per draw.
#[must_use]
pub fn zipf_sample(seed: u64) -> LayerMetric {
    const DRAWS: u64 = 1_000_000;
    let catalog = Catalog::new(CatalogParams::default()).expect("the default catalog is valid");
    let mut rng = RngStream::from_seed(seed, "perfbench-zipf");
    ns(
        "workload.zipf_sample_ns",
        per_call(DRAWS, || {
            (0..DRAWS)
                .map(|_| u64::from(catalog.sample_query_item(&mut rng).0))
                .fold(0u64, u64::wrapping_add)
        }),
    )
}

/// The library half of a birth in a churning population: draw a
/// Gnutella-like file count, build the library into a `LibraryArena`
/// and free a departed peer's. Reports ns per birth.
#[must_use]
pub fn library_alloc(seed: u64) -> LayerMetric {
    const LIVE: usize = 1000;
    const BIRTHS: u64 = 20_000;
    let catalog = Catalog::new(CatalogParams::default()).expect("the default catalog is valid");
    let files = FileCountModel::gnutella_like();
    let mut rng = RngStream::from_seed(seed, "perfbench-library");
    let mut arena = LibraryArena::new();
    let mut live: Vec<_> = (0..LIVE)
        .map(|_| {
            let n = files.sample_file_count(&mut rng);
            catalog.build_library_in(n, &mut rng, &mut arena)
        })
        .collect();
    ns(
        "workload.library_alloc_ns",
        per_call(BIRTHS, || {
            let mut sum = 0u64;
            for _ in 0..BIRTHS {
                let slot = rng.below(LIVE);
                arena.free(live[slot]);
                let n = files.sample_file_count(&mut rng);
                live[slot] = catalog.build_library_in(n, &mut rng, &mut arena);
                sum += live[slot].len() as u64;
            }
            sum
        }),
    )
}
