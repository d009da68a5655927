//! Lane-model tolerance: `lanes = 8` against the serial engine at equal N.
//!
//! A lane run splits the population into independent sub-networks
//! (`guess::run_lanes`), so it is a different model from one network of
//! the same size. This test checks that the cache-health metrics the
//! maintenance experiments read stay within the serial model's own
//! seed-to-seed noise: for each metric, the mean over [`SEEDS`] of the
//! lane runs must lie within [`SIGMAS`] sample standard deviations of
//! the serial runs' mean.
//!
//! The network is sized so every lane holds 20 cache sizes' worth of
//! peers (N/L = 2000 against the paper's `CacheSize` of 100): a lane
//! must not be so small that every peer can cache most of it.
//! `largest_component` is not compared: lanes are disjoint by
//! construction, so the overlay's largest piece is at most N/L.
//!
//! Release-only (the ten runs take about 5 s in release on a 2-core
//! host):
//! `cargo test --release -p guess --test lane_model -- --ignored`.

use guess::config::Config;
use guess::{RunReport, Runnable};
use simkit::time::SimDuration;

const SEEDS: [u64; 5] = [1, 2, 3, 4, 5];
const LANES: usize = 8;
const CACHE_SIZE: usize = 100;
const NETWORK_SIZE: usize = 20 * CACHE_SIZE * LANES;
const SIGMAS: f64 = 3.0;

fn config(seed: u64) -> Config {
    let mut cfg = Config::default()
        .with_seed(seed)
        .with_network_size(NETWORK_SIZE)
        .with_cache_size(CACHE_SIZE)
        .with_queries(false);
    cfg.run.duration = SimDuration::from_secs(700.0);
    cfg.run.warmup = SimDuration::from_secs(200.0);
    cfg
}

/// Mean and sample standard deviation.
fn mean_sd(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

/// The compared metrics of one report, by name.
fn compared(r: &RunReport) -> [(&'static str, Option<f64>); 4] {
    [
        ("live_fraction", r.live_fraction),
        ("live_absolute", r.live_absolute),
        ("good_entries", r.good_entries),
        ("mean_staleness", r.mean_staleness),
    ]
}

#[test]
#[ignore = "ten runs at N = 16000; release-run by scripts/verify.sh"]
fn eight_lanes_stay_within_serial_seed_spread() {
    let serial: Vec<RunReport> = SEEDS
        .iter()
        .map(|&s| config(s).build().expect("valid config").run())
        .collect();
    let laned: Vec<RunReport> = SEEDS
        .iter()
        .map(|&s| {
            let mut cfg = config(s);
            cfg.run.lanes = LANES;
            guess::run_lanes(cfg, 2).expect("valid config")
        })
        .collect();

    let mut outside = Vec::new();
    for k in 0..4 {
        let name = compared(&serial[0])[k].0;
        let values = |runs: &[RunReport]| -> Vec<f64> {
            runs.iter()
                .map(|r| compared(r)[k].1.expect("post-warm-up samples exist"))
                .collect()
        };
        let (s_mean, s_sd) = mean_sd(&values(&serial));
        let (l_mean, _) = mean_sd(&values(&laned));
        let gap = (l_mean - s_mean).abs();
        println!(
            "{name:<15} serial {s_mean:.4} ± {s_sd:.4}  lanes {l_mean:.4}  gap {:.2} sd",
            gap / s_sd
        );
        if gap > SIGMAS * s_sd {
            outside.push(format!(
                "{name}: lanes {l_mean:.4} vs serial {s_mean:.4} ± {s_sd:.4}"
            ));
        }
    }
    assert!(
        outside.is_empty(),
        "lane metrics outside {SIGMAS} serial sd:\n{}",
        outside.join("\n")
    );
}
