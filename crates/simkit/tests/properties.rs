//! Property-style tests for the simulation substrate.
//!
//! The build environment is offline, so these are driven by `RngStream`
//! itself rather than proptest: each test generates many randomized cases
//! from a fixed seed, which keeps the coverage of the old property tests
//! while staying fully deterministic.

use simkit::dist::{AliasTable, ContinuousDist, DiscreteDist, EmpiricalDist, Exponential, Zipf};
use simkit::event::EventQueue;
use simkit::rng::RngStream;
use simkit::stats::{Histogram, Summary};
use simkit::time::SimTime;

/// Generates a random lowercase label of 1..=12 chars.
fn gen_label(rng: &mut RngStream) -> String {
    let len = 1 + rng.below(12);
    (0..len)
        .map(|_| (b'a' + rng.below(26) as u8) as char)
        .collect()
}

/// Events always pop in non-decreasing time order, whatever order they
/// were scheduled in.
#[test]
fn event_queue_pops_in_time_order() {
    let mut gen = RngStream::from_seed(0x11, "cases");
    for _ in 0..40 {
        let n = 1 + gen.below(200);
        let times: Vec<f64> = (0..n).map(|_| gen.uniform(0.0, 1e6)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_secs(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            popped += 1;
        }
        assert_eq!(popped, times.len());
    }
}

/// Identical (seed, label) pairs generate identical streams; the stream is
/// insensitive to when it is created.
#[test]
fn rng_streams_are_reproducible() {
    let mut gen = RngStream::from_seed(0x13, "cases");
    for _ in 0..50 {
        let seed = gen.next_u64();
        let label = gen_label(&mut gen);
        let mut a = RngStream::from_seed(seed, &label);
        let mut b = RngStream::from_seed(seed, &label);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}

/// `sample_indices` returns distinct, in-range indices of the requested
/// (clamped) size, for any n and k.
#[test]
fn sample_indices_invariants() {
    let mut gen = RngStream::from_seed(0x14, "cases");
    for _ in 0..200 {
        let n = gen.below(500);
        let k = gen.below(600);
        let mut rng = RngStream::from_seed(gen.next_u64(), "prop");
        let s = rng.sample_indices(n, k);
        assert_eq!(s.len(), k.min(n));
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), s.len(), "indices must be distinct");
        assert!(s.iter().all(|&i| i < n));
    }
}

/// Shuffling preserves the multiset.
#[test]
fn shuffle_is_a_permutation() {
    let mut gen = RngStream::from_seed(0x15, "cases");
    for _ in 0..60 {
        let n = gen.below(200);
        let mut v: Vec<i32> = (0..n).map(|_| gen.next_u32() as i32).collect();
        let mut rng = RngStream::from_seed(gen.next_u64(), "prop");
        let mut original = v.clone();
        rng.shuffle(&mut v);
        v.sort_unstable();
        original.sort_unstable();
        assert_eq!(v, original);
    }
}

/// An alias table never emits a zero-weight category and always emits
/// in-range indices.
#[test]
fn alias_table_respects_support() {
    let mut gen = RngStream::from_seed(0x16, "cases");
    for _ in 0..40 {
        let n = 1 + gen.below(50);
        let weights: Vec<f64> = (0..n)
            .map(|_| {
                if gen.chance(0.25) {
                    0.0
                } else {
                    gen.uniform(0.0, 100.0)
                }
            })
            .collect();
        if weights.iter().sum::<f64>() <= 0.0 {
            continue;
        }
        let table = AliasTable::new(&weights).unwrap();
        let mut rng = RngStream::from_seed(gen.next_u64(), "prop");
        for _ in 0..200 {
            let i = table.sample_index(&mut rng);
            assert!(i < weights.len());
            assert!(weights[i] > 0.0, "sampled zero-weight category {i}");
        }
    }
}

/// Zipf samples are always in range.
#[test]
fn zipf_in_range() {
    let mut gen = RngStream::from_seed(0x17, "cases");
    for _ in 0..40 {
        let n = 1 + gen.below(2000);
        let exp = gen.uniform(0.0, 2.0);
        let z = Zipf::new(n, exp).unwrap();
        let mut rng = RngStream::from_seed(gen.next_u64(), "prop");
        for _ in 0..100 {
            assert!(z.sample_index(&mut rng) < n);
        }
    }
}

/// Empirical distributions only return observed values, and scaling scales
/// the quantiles.
#[test]
fn empirical_resamples_sample() {
    let mut gen = RngStream::from_seed(0x18, "cases");
    for _ in 0..40 {
        let n = 1 + gen.below(100);
        let sample: Vec<f64> = (0..n).map(|_| gen.uniform(0.0, 1e6)).collect();
        let factor = gen.uniform(0.01, 10.0);
        let d = EmpiricalDist::from_sample(sample.clone()).unwrap();
        let mut rng = RngStream::from_seed(gen.next_u64(), "prop");
        for _ in 0..50 {
            let x = d.sample(&mut rng);
            assert!(sample.contains(&x));
        }
        let scaled = d.scaled(factor);
        assert!((scaled.median() - d.median() * factor).abs() < 1e-6 * (1.0 + d.median()));
    }
}

/// Exponential samples are non-negative and the summary mean stays within a
/// loose sanity bound of 1/lambda.
#[test]
fn exponential_sane() {
    let mut gen = RngStream::from_seed(0x19, "cases");
    for _ in 0..40 {
        let lambda = gen.uniform(0.01, 100.0);
        let d = Exponential::new(lambda).unwrap();
        let mut rng = RngStream::from_seed(gen.next_u64(), "prop");
        let mut s = Summary::new();
        for _ in 0..300 {
            let x = d.sample(&mut rng);
            assert!(x >= 0.0);
            s.record(x);
        }
        let analytic = 1.0 / lambda;
        assert!(s.mean() < analytic * 10.0 + 1e-9);
    }
}

/// Welford summary matches direct two-pass computation.
#[test]
fn summary_matches_two_pass() {
    let mut gen = RngStream::from_seed(0x1a, "cases");
    for _ in 0..60 {
        let n = 2 + gen.below(200);
        let data: Vec<f64> = (0..n).map(|_| gen.uniform(-1e6, 1e6)).collect();
        let mut s = Summary::new();
        for &x in &data {
            s.record(x);
        }
        let count = data.len() as f64;
        let mean = data.iter().sum::<f64>() / count;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / count;
        assert!((s.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        assert!((s.variance() - var).abs() <= 1e-4 * (1.0 + var.abs()));
        assert_eq!(s.count(), data.len() as u64);
    }
}

/// Histogram percentiles are monotone and bounded by min/max.
#[test]
fn histogram_percentiles_monotone() {
    let mut gen = RngStream::from_seed(0x1b, "cases");
    for _ in 0..60 {
        let n = 1 + gen.below(300);
        let data: Vec<f64> = (0..n).map(|_| gen.uniform(-1e3, 1e3)).collect();
        let mut h = Histogram::new();
        for &x in &data {
            h.record(x);
        }
        let mut last = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0] {
            let v = h.percentile(p).unwrap();
            assert!(v >= last);
            last = v;
        }
        let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(h.percentile(0.0).unwrap(), lo);
        assert_eq!(h.percentile(100.0).unwrap(), hi);
    }
}
