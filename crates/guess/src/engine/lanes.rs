//! Lane mode: the population split into independent sub-networks.
//!
//! With `cfg.run.lanes = L > 1` the population is split into `L`
//! seed-addressed lanes, each a complete serial [`GuessSim`] over its
//! share of the peers. Lanes never exchange an event: queries are off
//! ([`Config::validate`] enforces it), and churn, pings, pushes and
//! metric sweeps are lane-local. So the lanes run to the horizon on
//! scoped worker threads with no windows or barriers, and their
//! collectors are merged in lane order. The report is a pure function
//! of `(seed, lanes)`, identical at any thread count; `lanes = 1` is the
//! ordinary serial run.
//!
//! This is a different model from one network of the same size: no
//! cache entry ever points across lanes, so the overlay is `L` disjoint
//! pieces (DESIGN.md §16).

use simkit::rng::derive_seed;
use simkit::scenario::Scenario;
use simkit::trace::NullSink;

use super::*;

/// Runs `cfg` as `cfg.run.lanes` independent serial lanes on up to
/// `threads` worker threads.
///
/// With `cfg.run.lanes <= 1` this is exactly [`Runnable::run`] on a
/// serial [`GuessSim`]. Otherwise the report merges the lanes in lane
/// order and `events_processed` is their sum; any `threads` value
/// produces the same bytes.
///
/// # Errors
///
/// Returns the validation error if `cfg` is inconsistent, including
/// `lanes > 1` with queries on.
pub fn run_lanes(cfg: Config, threads: usize) -> Result<RunReport, ConfigError> {
    cfg.validate()?;
    let l = cfg.run.lanes;
    if l <= 1 {
        return Ok(GuessSim::new(cfg)?.run());
    }

    let n = cfg.system.network_size;
    let lane_cfgs = (0..l)
        .map(|i| {
            let lane_n = n / l + usize::from(i < n % l);
            let mut lane = cfg.clone();
            lane.system.network_size = lane_n;
            lane.run.seed = derive_seed(cfg.run.seed, "guess-lane", i as u64);
            lane.run.lanes = 1;
            lane.run.cache_seed_size = cfg.run.cache_seed_size.min(lane_n - 1);
            lane.run.metrics_sample_size = (cfg.run.metrics_sample_size / l).max(1);
            lane.validate().map(|()| lane)
        })
        .collect::<Result<Vec<_>, _>>()?;

    // Worker `w` runs lanes w, w + workers, …; each lane is built, run
    // and dropped on its worker, so only its collector outlives it.
    let workers = threads.clamp(1, l);
    let mut runs: Vec<(usize, MetricsCollector, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let lane_cfgs = &lane_cfgs;
                s.spawn(move || {
                    (w..l)
                        .step_by(workers)
                        .map(|i| {
                            let sim = GuessSim::new(lane_cfgs[i].clone())
                                .expect("lane config was validated");
                            let (metrics, events, _) = sim
                                .run_collect(&Scenario::new(), NullSink)
                                .expect("an empty timeline raises no scenario error");
                            (i, metrics, events)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("lane worker panicked"))
            .collect()
    });
    runs.sort_unstable_by_key(|&(i, ..)| i);

    let mut collector = MetricsCollector::new();
    let mut events_processed = 0;
    for (_, metrics, events) in runs {
        collector.absorb(metrics);
        events_processed += events;
    }
    collector.counters_mut().add("lanes", l as u64);
    let mut report = collector.finish();
    report.events_processed = events_processed;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::time::SimDuration;

    fn tiny(seed: u64, lanes: usize) -> Config {
        let mut cfg = Config::small_test(seed).with_queries(lanes == 1);
        cfg.run.duration = SimDuration::from_secs(200.0);
        cfg.run.warmup = SimDuration::from_secs(50.0);
        cfg.run.lanes = lanes;
        cfg
    }

    #[test]
    fn one_lane_is_exactly_the_serial_run() {
        for seed in [1u64, 7, 42] {
            let serial = GuessSim::new(tiny(seed, 1)).unwrap().run();
            let laned = run_lanes(tiny(seed, 1), 4).unwrap();
            assert_eq!(serial, laned, "seed {seed}");
        }
    }

    #[test]
    fn lane_runs_are_identical_across_thread_counts() {
        let baseline = run_lanes(tiny(3, 4), 1).unwrap();
        assert_eq!(baseline.queries, 0);
        assert_eq!(baseline.counters.get("lanes"), 4);
        for threads in 2..=6 {
            let run = run_lanes(tiny(3, 4), threads).unwrap();
            assert_eq!(baseline, run, "threads={threads}");
        }
    }

    #[test]
    fn lane_count_is_part_of_the_trajectory() {
        let two = run_lanes(tiny(5, 2), 2).unwrap();
        let four = run_lanes(tiny(5, 4), 2).unwrap();
        assert_ne!(two, four, "lane count must address the run");
    }

    #[test]
    fn bad_lane_counts_are_rejected() {
        let mut zero = tiny(1, 1);
        zero.run.lanes = 0;
        assert_eq!(run_lanes(zero, 1), Err(ConfigError::BadLanes));
        let mut with_queries = tiny(1, 4);
        with_queries.run.simulate_queries = true;
        assert_eq!(run_lanes(with_queries, 1), Err(ConfigError::BadLanes));
        // 120 peers over 80 lanes leaves one-peer lanes.
        assert_eq!(run_lanes(tiny(1, 80), 1), Err(ConfigError::BadLanes));
    }
}
