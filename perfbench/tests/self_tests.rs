//! The benchmark's own checks: its configs are what it claims, its
//! replays are deterministic, and its pins catch a wrong answer.

use perfbench::layers;
use perfbench::pins::{self, MaintPin};
use perfbench::workloads::{maint_config, EngineConfig, EngineRun, Suite, Workload, MAINT_PEERS};

#[test]
fn every_workload_config_validates() {
    for w in Workload::ALL {
        for p in w.probes(7) {
            assert_eq!(p.validate(), Ok(()), "{} {}", w.name(), p.engine());
        }
    }
    let mut lanes = maint_config(7);
    lanes.run.lanes = guess_bench::bench::BENCH_LANES;
    assert!(lanes.validate().is_ok());
    assert_eq!(Suite::paper_quick().reports.len(), 37);
    assert_eq!(Suite::forwarding_full().reports.len(), 4);
}

#[test]
fn guess_maint_runs_the_serial_sampled_maintenance_path() {
    let cfg = maint_config(7);
    assert!(!cfg.run.simulate_queries, "queries must be off");
    assert_eq!(cfg.run.lanes, 1, "the workload is the serial engine");
    assert_eq!(cfg.system.network_size, MAINT_PEERS);
    assert!(
        cfg.run.metrics_sample_threshold < MAINT_PEERS,
        "N must exceed the threshold so the stride-sampled metrics path runs"
    );
    assert_eq!(cfg.run.seed, 7, "the seed comes from the command line");
}

#[test]
fn layer_replays_repeat_their_checksums() {
    let a = layers::all(11);
    let b = layers::all(11);
    let sums =
        |v: &[layers::LayerMetric]| v.iter().map(|m| (m.name, m.checksum)).collect::<Vec<_>>();
    assert_eq!(sums(&a), sums(&b));
    assert_eq!(layers::all_checksums(&a), layers::all_checksums(&b));
    assert!(a.iter().all(|m| m.value > 0.0 && m.value.is_finite()));
    let other = layers::event_hold("event.hold_ns.d1k", 12, 1_000, 10_000);
    assert_ne!(
        other.checksum, a[0].checksum,
        "the seed must reach the replay inputs"
    );
}

#[test]
fn every_suite_report_has_exactly_one_pin() {
    for w in [Workload::PaperQuick, Workload::ForwardingFull] {
        let manifest = pins::load(w).expect("pins load");
        let suite = w.suite().expect("a suite workload");
        assert_eq!(manifest.len(), suite.reports.len(), "{}", w.name());
        for r in &suite.reports {
            assert_eq!(
                manifest.iter().filter(|(n, _)| n == r.name).count(),
                1,
                "{} has no single pin for {}",
                w.name(),
                r.name
            );
        }
    }
    let maint = pins::load_maint().expect("the maintenance pin loads");
    assert_eq!((maint.seed, maint.events), (0xBE7C, 2_041_669));
}

#[test]
fn a_corrupted_report_pin_is_a_mismatch() {
    let mut suite = Suite::paper_quick();
    suite.reports.retain(|r| r.name == "param-flip");
    let runs = suite.run(1);
    let mut manifest = pins::load(Workload::PaperQuick).expect("pins load");
    assert_eq!(
        pins::problem(&runs[0], &manifest),
        None,
        "the real golden matches"
    );
    for (name, hash) in &mut manifest {
        if name == "param-flip" {
            *hash ^= 1;
        }
    }
    assert!(pins::problem(&runs[0], &manifest).is_some());
    manifest.retain(|(n, _)| n != "param-flip");
    assert_eq!(
        pins::problem(&runs[0], &manifest).as_deref(),
        Some("no pin")
    );
}

#[test]
fn a_corrupted_maintenance_pin_is_a_mismatch() {
    let pin = pins::load_maint().expect("the maintenance pin loads");
    let good = EngineRun {
        setup_s: 1.0,
        run_s: 1.0,
        events: pin.events,
        hash: pin.hash,
        peak_bytes: 1,
        invariant_ok: true,
    };
    assert_eq!(pins::maint_problem(&good, &good, pin.seed, pin), None);
    let corrupted = MaintPin {
        events: pin.events + 1,
        ..pin
    };
    assert!(pins::maint_problem(&good, &good, pin.seed, corrupted).is_some());
    // Other seeds are not held to the pin, but to the first run and the
    // population invariant.
    assert_eq!(pins::maint_problem(&good, &good, 1, corrupted), None);
    let drifted = EngineRun {
        hash: good.hash ^ 1,
        ..good
    };
    assert!(pins::maint_problem(&drifted, &good, 1, pin).is_some());
    let leaky = EngineRun {
        invariant_ok: false,
        ..good
    };
    assert!(pins::maint_problem(&leaky, &leaky, 1, pin).is_some());
}

#[test]
fn engine_runs_are_deterministic_and_tracing_does_not_perturb_them() {
    let cfg = EngineConfig::Guess(guess::Config::small_test(5));
    let plain = cfg.run();
    let (traced, sink) = cfg.run_traced();
    assert_eq!((plain.events, plain.hash), (traced.events, traced.hash));
    assert!(plain.invariant_ok);
    assert_eq!(sink.counts.samples as usize, sink.tick_host_s.len());
    assert!(sink.counts.query_probes >= sink.good_query_probes);
}
