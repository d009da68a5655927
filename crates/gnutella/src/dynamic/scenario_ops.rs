//! Scenario interventions: the [`Intervenable`] side of `GnutellaSim`.
//!
//! Split out like `flood`; this is still the same `GnutellaSim`. Every
//! intervention routes through the engine's existing machinery — joins
//! through the peer table's birth step plus top-up wiring, leaves
//! through `on_death`, flash crowds through `flood_query`, parameter
//! flips through [`GnutellaConfig::validate`] — and mutates only the
//! [`super::Runtime`] side of the config/state split. `self.cfg` is
//! never written after `GnutellaSim::new`.

use simkit::scenario::{Intervenable, Intervention, Param, ScenarioError};

use super::*;

impl GnutellaSim {
    /// Applies a parameter flip: overlays the current runtime values
    /// plus the flip onto a copy of the immutable config, re-validates
    /// through [`GnutellaConfig::validate`], and only then installs the
    /// new value into the runtime state.
    fn param_flip(&mut self, param: &Param) -> Result<(), ScenarioError> {
        let mut probe = self.cfg.clone();
        probe.query_rate = self.rt.query_rate;
        probe.ttl = self.rt.ttl;
        probe.target_degree = self.rt.target_degree;
        match *param {
            Param::QueryRate(r) => probe.query_rate = r,
            Param::FloodTtl(t) => probe.ttl = t,
            Param::TargetDegree(d) => probe.target_degree = d,
            _ => {
                return Err(ScenarioError::Unsupported {
                    engine: "gnutella",
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
        self.rt.ttl = probe.ttl;
        self.rt.target_degree = probe.target_degree;
        Ok(())
    }
}

impl<T: TraceSink> Intervenable<T> for GnutellaSim {
    fn intervene(
        &mut self,
        now: SimTime,
        action: &Intervention,
        ctx: &mut SimCtx<'_, Event, T>,
    ) -> Result<(), ScenarioError> {
        self.counters.incr("interventions");
        match *action {
            // Newborns take the rebirth path minus the departure:
            // library, top-up wiring, then death and burst.
            Intervention::MassJoin { count } => {
                for _ in 0..count {
                    let slot = self.peers.birth(&mut self.rng);
                    self.adj.push(Vec::new());
                    self.top_up_connections(slot);
                    self.peers.schedule(slot, now, ctx, &mut self.rng);
                }
            }
            // Victims die through the normal death path, rebirth
            // included: the wave's damage is the mass re-wiring. Their
            // originally scheduled deaths go stale.
            Intervention::MassLeave { count } => {
                for _ in 0..count {
                    let slot = self.peers.pick(&mut self.rng);
                    self.on_death(slot, self.peers.incarnation(slot), now, ctx);
                }
            }
            Intervention::FlashCrowd { queries } => {
                for _ in 0..queries {
                    let src = self.peers.pick(&mut self.rng);
                    self.flood_query(src, now, ctx);
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

    fn small() -> GnutellaConfig {
        GnutellaConfig::small_test(0x67)
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
    fn join_wave_grows_the_overlay() {
        let n = small().network_size;
        let scenario = Scenario::new().at(150.0).mass_join(n / 2);
        let report = small().build().unwrap().run_scenario(&scenario).unwrap();
        assert_eq!(report.counters.get("interventions"), 1);
        assert!(
            report.counters.get("connect_messages") > 0,
            "newborns must wire themselves in"
        );
        // Post-warm-up floods over the grown overlay can reach more
        // than the original population ever could.
        assert!(report.queries > 0);
    }

    #[test]
    fn mass_leave_rewires_the_overlay() {
        let scenario = Scenario::new().at(150.0).mass_leave(40);
        let report = small().build().unwrap().run_scenario(&scenario).unwrap();
        assert!(report.counters.get("deaths") >= 40);
        assert!(report.counters.get("repairs") > 0);
    }

    #[test]
    fn flash_crowd_floods_extra_queries() {
        let scenario = Scenario::new().at(150.0).flash_crowd(100);
        let report = small().build().unwrap().run_scenario(&scenario).unwrap();
        assert!(
            report.queries >= 100,
            "flash floods land after warm-up: {}",
            report.queries
        );
    }

    #[test]
    fn ttl_flip_changes_flood_reach() {
        // Drop the TTL to 1 halfway through: messages per query must
        // fall well below the TTL-7 baseline's.
        let baseline = small().build().unwrap().run();
        let scenario = Scenario::new().at(200.0).param_flip(Param::FloodTtl(1));
        let flipped = small().build().unwrap().run_scenario(&scenario).unwrap();
        assert!(
            flipped.messages_per_query() < baseline.messages_per_query(),
            "TTL-1 tail must cut the message mean: {:.0} vs {:.0}",
            flipped.messages_per_query(),
            baseline.messages_per_query()
        );
    }

    #[test]
    fn param_flip_revalidates_and_rejects_unsupported() {
        let bad = Scenario::new().at(100.0).param_flip(Param::FloodTtl(0));
        let err = small().build().unwrap().run_scenario(&bad).unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidParam(_)));

        let unsupported = Scenario::new().at(100.0).param_flip(Param::Fanout(3));
        let err = small()
            .build()
            .unwrap()
            .run_scenario(&unsupported)
            .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::Unsupported {
                engine: "gnutella",
                action: "fanout",
            }
        );
    }

    #[test]
    fn partition_shrinks_reach_and_heal_restores_it() {
        let part_only = Scenario::new().at(120.0).partition(2);
        let p = small().build().unwrap().run_scenario(&part_only).unwrap();
        let baseline = small().build().unwrap().run();
        assert!(
            p.peers_reached.mean() < baseline.peers_reached.mean(),
            "cross-group drops must shrink mean reach: {:.0} vs {:.0}",
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
}
