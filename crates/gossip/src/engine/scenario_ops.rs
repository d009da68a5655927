//! Scenario interventions: the [`Intervenable`] side of `GossipSim`.
//!
//! Split out like the guess and gnutella counterparts; this is still
//! the same `GossipSim`. Every intervention routes through the engine's
//! existing machinery — joins through the peer table's birth step and
//! `spawn`, leaves
//! through `on_death`, flash crowds through `start_query`, parameter
//! flips through [`Config::validate`] — and mutates only the
//! [`super::Runtime`] side of the config/state split. `self.cfg` is
//! never written after `GossipSim::new`.

use simkit::scenario::{Intervenable, Intervention, Param, ScenarioError};

use super::*;

impl GossipSim {
    /// Applies a parameter flip: overlays the current runtime values
    /// plus the flip onto a copy of the immutable config, re-validates
    /// through [`Config::validate`], and only then installs the new
    /// value into the runtime state.
    fn param_flip(&mut self, param: &Param) -> Result<(), ScenarioError> {
        let mut probe = self.cfg.clone();
        probe.query_rate = self.rt.query_rate;
        probe.fanout = self.rt.fanout;
        probe.round_ttl = self.rt.round_ttl;
        probe.pull_probability = self.rt.pull_probability;
        match *param {
            Param::QueryRate(r) => probe.query_rate = r,
            Param::Fanout(f) => probe.fanout = f,
            Param::RoundTtl(t) => probe.round_ttl = t,
            Param::PullProbability(p) => probe.pull_probability = p,
            _ => {
                return Err(ScenarioError::Unsupported {
                    engine: "gossip",
                    action: param.name(),
                })
            }
        }
        probe
            .validate()
            .map_err(|e| ScenarioError::InvalidParam(e.to_string()))?;
        if probe.query_rate != self.rt.query_rate {
            self.peers
                .set_query_rate(probe.query_rate)
                .map_err(|_| ScenarioError::InvalidParam("bad query rate".into()))?;
        }
        self.rt.query_rate = probe.query_rate;
        self.rt.fanout = probe.fanout;
        self.rt.round_ttl = probe.round_ttl;
        self.rt.pull_probability = probe.pull_probability;
        Ok(())
    }
}

impl<T: TraceSink> Intervenable<T> for GossipSim {
    fn intervene(
        &mut self,
        now: SimTime,
        action: &Intervention,
        ctx: &mut SimCtx<'_, Event, T>,
    ) -> Result<(), ScenarioError> {
        self.counters.incr("interventions");
        match *action {
            // Newborns take the initial population's path. In-flight
            // rumors learn about them lazily (their infected vectors
            // grow at the next round), so they are gossipable at once.
            Intervention::MassJoin { count } => {
                for _ in 0..count {
                    let slot = self.peers.birth(&mut self.rng);
                    self.active_stamp.push(0);
                    self.spawn(slot, now, ctx);
                }
            }
            // Victims die through the normal death path, rebirth
            // included: the wave's damage is the mass loss of rumor
            // knowledge. Their originally scheduled deaths go stale.
            Intervention::MassLeave { count } => {
                for _ in 0..count {
                    let slot = self.peers.pick(&mut self.rng);
                    self.on_death(slot, self.peers.incarnation(slot), now, ctx);
                }
            }
            Intervention::FlashCrowd { queries } => {
                for _ in 0..queries {
                    let src = self.peers.pick(&mut self.rng);
                    self.start_query(src, now, ctx);
                }
            }
            Intervention::ParamFlip(ref param) => self.param_flip(param)?,
            Intervention::Partition { groups } => self.rt.partition = Some(groups),
            Intervention::Heal => self.rt.partition = None,
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::scenario::Scenario;

    fn small() -> Config {
        Config::small_test(0x906)
    }

    /// Churnless variant: every death in the run is the scenario's.
    fn churnless() -> Config {
        small().with_lifespan_multiplier(1000.0)
    }

    #[test]
    fn empty_scenario_equals_plain_run() {
        let plain = small().build().unwrap().run();
        let scen = small()
            .build()
            .unwrap()
            .run_scenario(&Scenario::new())
            .unwrap();
        assert_eq!(plain, scen);
    }

    #[test]
    fn mass_join_grows_the_population() {
        let n = churnless().network_size as u64;
        let scenario = Scenario::new().at(150.0).mass_join(75);
        let report = churnless()
            .build()
            .unwrap()
            .run_scenario(&scenario)
            .unwrap();
        assert_eq!(report.counters.get("interventions"), 1);
        assert_eq!(report.counters.get("deaths"), 0, "run is churnless");
        assert_eq!(
            report.counters.get("births"),
            n + 75,
            "exactly the join wave on top of the seed population"
        );
    }

    #[test]
    fn mass_leave_erases_rumor_knowledge() {
        let n = churnless().network_size as u64;
        let scenario = Scenario::new().at(150.0).mass_leave(30);
        let report = churnless()
            .build()
            .unwrap()
            .run_scenario(&scenario)
            .unwrap();
        assert_eq!(report.counters.get("deaths"), 30, "exactly the wave");
        assert_eq!(
            report.counters.get("births"),
            n + 30,
            "every victim is replaced in place"
        );
    }

    #[test]
    fn flash_crowd_starts_extra_rumors() {
        let scenario = Scenario::new().at(150.0).flash_crowd(200);
        let report = small().build().unwrap().run_scenario(&scenario).unwrap();
        assert!(
            report.queries >= 200,
            "flash rumors land after warm-up: {}",
            report.queries
        );
        assert_eq!(report.counters.get("interventions"), 1);
    }

    #[test]
    fn fanout_flip_starves_the_epidemic() {
        // Cut the fanout to 1 halfway through: infect-and-die epidemics
        // with a single contact per spreader die out almost at once, so
        // the message mean must fall well below the fanout-3 baseline.
        let baseline = small().build().unwrap().run();
        let scenario = Scenario::new().at(200.0).param_flip(Param::Fanout(1));
        let flipped = small().build().unwrap().run_scenario(&scenario).unwrap();
        assert!(
            flipped.messages_per_query() < baseline.messages_per_query(),
            "fanout-1 tail must cut the message mean: {:.0} vs {:.0}",
            flipped.messages_per_query(),
            baseline.messages_per_query()
        );
    }

    #[test]
    fn param_flip_revalidates_and_rejects_unsupported() {
        let bad = Scenario::new().at(100.0).param_flip(Param::Fanout(0));
        let err = small().build().unwrap().run_scenario(&bad).unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidParam(_)));

        let unsupported = Scenario::new()
            .at(100.0)
            .param_flip(Param::ParallelProbes(4));
        let err = small()
            .build()
            .unwrap()
            .run_scenario(&unsupported)
            .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::Unsupported {
                engine: "gossip",
                action: "parallel_probes",
            }
        );
    }

    #[test]
    fn partition_drops_cross_group_pushes_until_heal() {
        let part_only = Scenario::new().at(120.0).partition(2);
        let p = small().build().unwrap().run_scenario(&part_only).unwrap();
        let baseline = small().build().unwrap().run();
        assert!(
            p.counters.get("partition_drops") > 0,
            "uniform contacts must cross the partition"
        );
        assert!(
            p.peers_reached.mean() < baseline.peers_reached.mean(),
            "dropped pushes must shrink mean reach: {:.0} vs {:.0}",
            p.peers_reached.mean(),
            baseline.peers_reached.mean()
        );
        let healed = Scenario::new().at(120.0).partition(2).at(260.0).heal();
        let h = small().build().unwrap().run_scenario(&healed).unwrap();
        assert!(
            h.peers_reached.mean() > p.peers_reached.mean(),
            "healing must restore some reach: {:.0} vs {:.0}",
            h.peers_reached.mean(),
            p.peers_reached.mean()
        );
    }

    #[test]
    fn bad_partition_spec_is_rejected() {
        let scenario = Scenario::new().at(100.0).partition(1);
        let err = small()
            .build()
            .unwrap()
            .run_scenario(&scenario)
            .unwrap_err();
        assert_eq!(err, ScenarioError::BadPartition { groups: 1 });
    }
}
