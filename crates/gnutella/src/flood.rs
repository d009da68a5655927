//! TTL-scoped flooding — the Gnutella query primitive, and the reference
//! oracle for the per-hop wavefront engine in [`crate::wavefront`].
//!
//! A query floods outward from its source: every peer within `ttl` hops
//! receives it exactly once (duplicate suppression by message id), but the
//! *message cost* counts every copy sent over every edge, which is what
//! makes flooding expensive and amplifies attacks (§3.3).

use workload::query::QueryTarget;

use crate::population::Population;
use crate::topology::Topology;

/// The outcome of one flooded query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloodOutcome {
    /// Peers that received the query (excluding the source).
    pub peers_reached: usize,
    /// Query messages transmitted (every edge crossing counts, including
    /// duplicates that are then suppressed).
    pub messages: usize,
    /// Results found among reached peers.
    pub results: usize,
}

impl FloodOutcome {
    /// True if at least `desired` results were found.
    #[must_use]
    pub fn satisfied(&self, desired: usize) -> bool {
        self.results >= desired
    }
}

/// Floods `target` from `src` with the given `ttl` and tallies the cost.
///
/// # Panics
///
/// Panics if `src` is out of range or the population size differs from the
/// topology size.
#[must_use]
pub fn flood(
    topo: &Topology,
    pop: &Population,
    src: usize,
    ttl: usize,
    target: QueryTarget,
) -> FloodOutcome {
    assert_eq!(topo.len(), pop.len(), "topology and population must agree");
    let reached = topo.bfs_within(src, ttl);
    let mut results = 0;
    let mut messages = 0;
    for &(u, d) in &reached {
        if u != src && pop.answers(u, target) {
            results += 1;
        }
        // A peer at depth d < ttl forwards to all its neighbors; the
        // source initiates to all of its own.
        if d < ttl {
            messages += topo.degree(u);
        }
    }
    FloodOutcome {
        peers_reached: reached.len().saturating_sub(1),
        messages,
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::rng::RngStream;
    use workload::content::CatalogParams;

    fn setup(n: usize) -> (Topology, Population, RngStream) {
        let mut rng = RngStream::from_seed(31, "flood");
        let topo = Topology::random_regular(n, 3, &mut rng);
        let pop = Population::generate(n, CatalogParams::default(), 31).unwrap();
        (topo, pop, rng)
    }

    #[test]
    fn ttl_zero_reaches_nobody() {
        let (topo, pop, mut rng) = setup(100);
        let t = pop.sample_target(&mut rng);
        let out = flood(&topo, &pop, 0, 0, t);
        assert_eq!(out.peers_reached, 0);
        assert_eq!(out.results, 0);
        assert_eq!(out.messages, 0);
    }

    #[test]
    fn reach_grows_with_ttl() {
        let (topo, pop, mut rng) = setup(300);
        let t = pop.sample_target(&mut rng);
        let mut last = 0;
        for ttl in 0..8 {
            let out = flood(&topo, &pop, 5, ttl, t);
            assert!(out.peers_reached >= last);
            last = out.peers_reached;
        }
        assert_eq!(last, 299, "high ttl floods the whole graph");
    }

    #[test]
    fn messages_exceed_peers_reached() {
        // Duplicate suppression means messages >= deliveries.
        let (topo, pop, mut rng) = setup(200);
        let t = pop.sample_target(&mut rng);
        let out = flood(&topo, &pop, 0, 5, t);
        assert!(
            out.messages >= out.peers_reached,
            "{} < {}",
            out.messages,
            out.peers_reached
        );
    }

    #[test]
    fn results_bounded_by_holders() {
        let (topo, pop, mut rng) = setup(200);
        for _ in 0..20 {
            let t = pop.sample_target(&mut rng);
            let out = flood(&topo, &pop, 3, 10, t);
            assert!(out.results <= pop.holders(t));
            assert!(out.satisfied(0));
        }
    }

    #[test]
    fn full_flood_finds_all_holders_except_source() {
        let (topo, pop, mut rng) = setup(150);
        let t = pop.sample_target(&mut rng);
        let out = flood(&topo, &pop, 9, 50, t);
        let holders = pop.holders(t);
        let source_holds = usize::from(pop.answers(9, t));
        assert_eq!(out.results, holders - source_holds);
    }
}
