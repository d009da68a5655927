//! Golden pins for every scenario intervention on the Gnutella and
//! gossip engines.
//!
//! The scenario catalog only reaches a few intervention paths on these
//! two engines, so this test runs each `Intervention` kind — and each
//! parameter flip the engine supports — on the engine's `small_test`
//! config with a traced run. It hashes the report together with the
//! full trace-record stream (FNV-1a, 64-bit) and compares the digest
//! against `tests/golden/interventions.fnv1a.txt`. A change to the RNG
//! draw order, the event order or any report counter moves a digest.
//!
//! For gossip it also checks population conservation: every birth is
//! an initial peer, a rebirth after a death, or a mass-join newcomer.
//!
//! To refresh after an intentional output change:
//!
//! ```text
//! cargo test -p guess-bench --test intervention_pins -- --nocapture
//! ```
//!
//! and copy the `name  hash` lines into the manifest.

use std::fmt::Write as _;

use gnutella::dynamic::GnutellaConfig;
use gossip::Config as GossipConfig;
use simkit::scenario::{Param, Scenario};
use simkit::sim::Runnable;
use simkit::time::{SimDuration, SimTime};
use simkit::trace::{TraceRecord, TraceSink};

const MANIFEST: &str = include_str!("golden/interventions.fnv1a.txt");

/// FNV-1a, 64-bit, folded incrementally.
fn fnv1a(mut hash: u64, text: &str) -> u64 {
    for b in text.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds every trace record, in emission order, into one digest.
struct HashSink {
    hash: u64,
    records: u64,
    line: String,
}

impl HashSink {
    fn new() -> Self {
        HashSink {
            hash: FNV_OFFSET,
            records: 0,
            line: String::new(),
        }
    }
}

impl TraceSink for HashSink {
    fn record(&mut self, at: SimTime, rec: TraceRecord) {
        self.line.clear();
        writeln!(self.line, "{at:?} {rec:?}").expect("formatting into a String cannot fail");
        self.hash = fnv1a(self.hash, &self.line);
        self.records += 1;
    }
}

/// One pinned run: a manifest name, the timeline, and the number of
/// peers it mass-joins (for the gossip conservation check).
struct Case {
    name: &'static str,
    scenario: Scenario,
    joined: u64,
}

fn case(name: &'static str, scenario: Scenario) -> Case {
    Case {
        name,
        scenario,
        joined: 0,
    }
}

/// The timelines both engines share, before the engine's own flips.
fn common_cases() -> Vec<Case> {
    vec![
        case("none", Scenario::new()),
        Case {
            name: "mass-join",
            scenario: Scenario::new().at(150.0).mass_join(75),
            joined: 75,
        },
        case("mass-leave", Scenario::new().at(150.0).mass_leave(40)),
        case("flash-crowd", Scenario::new().at(150.0).flash_crowd(100)),
        case(
            "partition-heal",
            Scenario::new().at(120.0).partition(2).at(260.0).heal(),
        ),
        Case {
            name: "mixed",
            scenario: Scenario::new()
                .at(110.0)
                .mass_join(30)
                .at(140.0)
                .partition(3)
                .at(170.0)
                .mass_leave(50)
                .at(200.0)
                .flash_crowd(60)
                .at(230.0)
                .heal()
                .at(260.0)
                .mass_join(20)
                .at(290.0)
                .param_flip(Param::QueryRate(0.03)),
            joined: 50,
        },
    ]
}

fn gnutella_cases() -> Vec<Case> {
    let mut cases = common_cases();
    cases.extend([
        case(
            "flip-query-rate",
            Scenario::new().at(200.0).param_flip(Param::QueryRate(0.03)),
        ),
        case(
            "flip-flood-ttl",
            Scenario::new().at(200.0).param_flip(Param::FloodTtl(3)),
        ),
        case(
            "flip-target-degree",
            Scenario::new().at(200.0).param_flip(Param::TargetDegree(7)),
        ),
    ]);
    cases
}

fn gossip_cases() -> Vec<Case> {
    let mut cases = common_cases();
    cases.extend([
        case(
            "flip-query-rate",
            Scenario::new().at(200.0).param_flip(Param::QueryRate(0.03)),
        ),
        case(
            "flip-fanout",
            Scenario::new().at(200.0).param_flip(Param::Fanout(5)),
        ),
        case(
            "flip-round-ttl",
            Scenario::new().at(200.0).param_flip(Param::RoundTtl(3)),
        ),
        case(
            "flip-pull-probability",
            Scenario::new()
                .at(200.0)
                .param_flip(Param::PullProbability(0.9)),
        ),
    ]);
    cases
}

/// Short lifetimes so the death/rebirth path runs often, and a sample
/// tick so the trace pins the live-peer count too.
fn gnutella_config() -> GnutellaConfig {
    GnutellaConfig::small_test(0x1e7)
        .with_lifespan_multiplier(0.2)
        .with_sample_interval(Some(SimDuration::from_secs(25.0)))
}

fn gossip_config() -> GossipConfig {
    GossipConfig::small_test(0x905)
        .with_lifespan_multiplier(0.2)
        .with_sample_interval(Some(SimDuration::from_secs(25.0)))
}

fn digest(report: &impl std::fmt::Debug, sink: &HashSink) -> u64 {
    fnv1a(sink.hash, &format!("{report:?}"))
}

/// Runs every case on both engines and returns `(name, digest)` lines.
fn run_all() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for c in gnutella_cases() {
        let (report, sink) = gnutella_config()
            .build()
            .expect("valid config")
            .run_scenario_traced(&c.scenario, HashSink::new())
            .unwrap_or_else(|e| panic!("gnutella/{}: {e}", c.name));
        assert!(sink.records > 0);
        out.push((format!("gnutella/{}", c.name), digest(&report, &sink)));
    }
    let n = gossip_config().network_size as u64;
    for c in gossip_cases() {
        let (report, sink) = gossip_config()
            .build()
            .expect("valid config")
            .run_scenario_traced(&c.scenario, HashSink::new())
            .unwrap_or_else(|e| panic!("gossip/{}: {e}", c.name));
        assert_eq!(
            report.counters.get("births"),
            report.counters.get("deaths") + n + c.joined,
            "gossip/{}: births must equal deaths + initial peers + newcomers",
            c.name
        );
        out.push((format!("gossip/{}", c.name), digest(&report, &sink)));
    }
    out
}

fn manifest_entries() -> Vec<(&'static str, u64)> {
    MANIFEST
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut parts = l.split_whitespace();
            let name = parts.next().expect("manifest line has a name");
            let hash = parts.next().expect("manifest line has a hash");
            let hash = u64::from_str_radix(hash.trim_start_matches("0x"), 16)
                .expect("manifest hash parses as hex");
            (name, hash)
        })
        .collect()
}

#[test]
fn every_intervention_matches_its_committed_digest() {
    let got = run_all();
    for (name, hash) in &got {
        println!("{name}  0x{hash:016x}");
    }
    let expected = manifest_entries();
    assert_eq!(
        expected.len(),
        got.len(),
        "manifest and case list disagree on the entry count; refresh \
         tests/golden/interventions.fnv1a.txt"
    );
    let mismatches: Vec<String> = expected
        .iter()
        .zip(&got)
        .filter(|((en, eh), (gn, gh))| en != gn || eh != gh)
        .map(|((en, eh), (gn, gh))| format!("{en} 0x{eh:016x} vs {gn} 0x{gh:016x}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "intervention runs drifted from the committed digests:\n{}",
        mismatches.join("\n")
    );
}
