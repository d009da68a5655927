//! Lane-partitioned parallel runner: the gossip engine on
//! [`simkit::lanes::LaneKernel`].
//!
//! The population is split into `cfg.lanes` seed-addressed lanes, each
//! a full [`GossipSim`] over a contiguous global slot range. Fanout
//! targets are drawn over the *global* population; a push that lands
//! outside the spreader's lane becomes a counted cross-lane push,
//! delivered one `round_interval` later. The remote peer answers (a
//! hit is routed back and credited to the rumor) but is not infected —
//! rumor state lives in the origin lane, so the epidemic itself stays
//! lane-local. That `round_interval` latency is the kernel's lookahead.
//!
//! Determinism: lane seeds derive from `(master seed, lane index)`,
//! boundary batches merge in fixed order, and per-lane reports merge in
//! lane order — the result is a pure function of `(seed, lanes)`,
//! byte-identical for any worker-thread count. `lanes = 1` routes to
//! the ordinary serial [`Runnable::run`], untouched.

use simkit::lanes::{LaneCtx, LaneKernel, LaneSimulation};
use simkit::rng::derive_seed;
use simkit::trace::NullSink;

use super::*;

/// One lane: a self-contained [`GossipSim`] whose staged cross-lane
/// pushes are drained into the kernel's boundary batches.
struct GossipLane {
    sim: GossipSim,
}

impl GossipLane {
    /// Moves pushes staged by `on_round` into the lane kernel's
    /// outbox, one `round_interval` ahead (the lookahead window).
    fn drain_cross<T: TraceSink>(&mut self, now: SimTime, lctx: &mut LaneCtx<'_, Event, T>) {
        let interval = self.sim.cfg.round_interval;
        for (dst, event) in self.sim.lane_out.drain(..) {
            lctx.send(dst, now + interval, event);
        }
    }

    /// A sibling lane's push lands on `slot`: the peer answers the
    /// library check and reports a hit back, but is not infected.
    fn on_remote_push<T: TraceSink>(
        &mut self,
        query: u64,
        src_lane: u32,
        slot: u32,
        target: QueryTarget,
        now: SimTime,
        lctx: &mut LaneCtx<'_, Event, T>,
    ) {
        let sim = &mut self.sim;
        sim.counters.incr("remote_pushes_received");
        if sim.peers.answers(slot as usize, target) {
            lctx.send(
                src_lane,
                now + sim.cfg.round_interval,
                Event::RemoteHit { query },
            );
        }
    }
}

impl<T: TraceSink> LaneSimulation<T> for GossipLane {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, lctx: &mut LaneCtx<'_, Event, T>) {
        match event {
            Event::RemotePush {
                query,
                src_lane,
                slot,
                target,
            } => self.on_remote_push(query, src_lane, slot, target, now, lctx),
            Event::RemoteHit { query } => self.sim.on_remote_hit(query),
            // Bursts, deaths, and rounds are the serial handlers over
            // this lane's state; rounds may stage cross-lane pushes.
            other => {
                Simulation::handle(&mut self.sim, now, other, lctx.inner());
                self.drain_cross(now, lctx);
            }
        }
    }

    fn live_peers(&self) -> u64 {
        Simulation::<T>::live_peers(&self.sim)
    }
}

/// Runs `cfg` on the lane-partitioned parallel kernel with up to
/// `threads` worker threads.
///
/// With `cfg.lanes <= 1` this is exactly [`Runnable::run`] on a serial
/// [`GossipSim`] — byte-identical to every golden. Otherwise the
/// report is a pure function of `(seed, lanes)`: any `threads` value
/// produces the same bytes.
///
/// # Errors
///
/// Returns the validation error if `cfg` is inconsistent.
pub fn run_lanes(cfg: Config, threads: usize) -> Result<GossipReport, GossipConfigError> {
    cfg.validate()?;
    let l = cfg.lanes;
    if l <= 1 {
        return Ok(GossipSim::new(cfg)?.run());
    }

    let n = cfg.network_size;
    let base = n / l;
    let rem = n % l;
    // Lookahead: nothing crosses a lane boundary in under one round.
    let window = cfg.round_interval;
    let mut params = KernelParams::new(cfg.duration).with_warmup(cfg.warmup);
    if let Some(interval) = cfg.sample_interval {
        params = params.with_sampling(interval);
    }

    let mut lanes: Vec<GossipLane> = Vec::with_capacity(l);
    for i in 0..l {
        let lane_n = base + usize::from(i < rem);
        let mut lane_cfg = cfg.clone();
        lane_cfg.network_size = lane_n;
        lane_cfg.seed = derive_seed(cfg.seed, "gossip-lane", i as u64);
        lane_cfg.lanes = 1;
        let mut sim = GossipSim::new(lane_cfg)?;
        sim.lane_env = Some(LaneEnv {
            lane: i as u32,
            offset: LaneEnv::offset_of(base, rem, i),
            total: n,
            base,
            rem,
        });
        lanes.push(GossipLane { sim });
    }

    let sinks = (0..l).map(|_| NullSink).collect();
    let mut kernel: LaneKernel<Event, NullSink> = LaneKernel::new(params, window, sinks);
    for (i, lane) in lanes.iter_mut().enumerate() {
        lane.sim.schedule_initial(&mut kernel.ctx(i));
    }
    kernel.run(&mut lanes, threads.max(1));

    // Wrap-up, strictly in lane order so the merged report is
    // independent of which thread ran which lane.
    let end = SimTime::ZERO + cfg.duration;
    let mut report = GossipReport {
        queries: 0,
        unsatisfied: 0,
        messages: Summary::new(),
        peers_reached: Summary::new(),
        response_time: Summary::new(),
        counters: CounterSet::new(),
        events_processed: kernel.events_processed(),
    };
    for lane in lanes {
        let mut sim = lane.sim;
        // Flush in-flight rumors at the horizon, in query order — the
        // same discipline as the serial run.
        let mut pending: Vec<u64> = sim.rumors.keys().copied().collect();
        pending.sort_unstable();
        for qid in pending {
            let rumor = sim.rumors.remove(&qid).expect("pending rumor exists");
            sim.counters.incr("horizon_flushed");
            sim.settle(&rumor, end);
        }
        report.queries += sim.queries;
        report.unsatisfied += sim.unsatisfied;
        report.messages.merge(&sim.messages);
        report.peers_reached.merge(&sim.peers_reached);
        report.response_time.merge(&sim.response_time);
        report.counters.merge(&sim.counters);
    }
    report.counters.add("lanes", l as u64);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64, lanes: usize) -> Config {
        Config::small_test(seed).with_lanes(lanes)
    }

    #[test]
    fn one_lane_is_exactly_the_serial_run() {
        for seed in [1u64, 7, 42] {
            let serial = GossipSim::new(tiny(seed, 1)).unwrap().run();
            let laned = run_lanes(tiny(seed, 1), 4).unwrap();
            assert_eq!(serial, laned, "seed {seed}");
        }
    }

    #[test]
    fn lane_runs_are_identical_across_thread_counts() {
        let baseline = run_lanes(tiny(3, 4), 1).unwrap();
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
    fn lane_mode_pushes_cross_lanes() {
        let report = run_lanes(tiny(9, 4), 4).unwrap();
        assert!(report.queries > 0, "queries must execute");
        // With 4 lanes, ~3/4 of all fanout targets land remote.
        assert!(
            report.counters.get("cross_lane_pushes") > 0,
            "global fanout must cross lanes"
        );
        // Every delivered push was sent; the last round's pushes are
        // still in flight at the horizon and never arrive.
        let sent = report.counters.get("cross_lane_pushes");
        let received = report.counters.get("remote_pushes_received");
        assert!(received > 0, "some cross-lane pushes must arrive");
        assert!(received <= sent, "deliveries cannot exceed sends");
        assert_eq!(report.counters.get("lanes"), 4);
        assert!(report.events_processed > 0);
    }

    #[test]
    fn lane_geometry_maps_slots_both_ways() {
        // 10 slots over 3 lanes: sizes 4, 3, 3.
        let env = |i: usize| LaneEnv {
            lane: i as u32,
            offset: LaneEnv::offset_of(3, 1, i),
            total: 10,
            base: 3,
            rem: 1,
        };
        let e0 = env(0);
        assert_eq!(e0.offset, 0);
        assert_eq!(env(1).offset, 4);
        assert_eq!(env(2).offset, 7);
        for g in 0..10 {
            let (lane, slot) = e0.locate(g);
            assert_eq!(env(lane as usize).offset + slot as usize, g);
        }
    }

    #[test]
    fn zero_lanes_is_rejected() {
        let cfg = tiny(1, 0);
        assert!(run_lanes(cfg, 1).is_err());
    }
}
