//! The constant-population peer table the forwarding engines share.
//!
//! The Gnutella and gossip simulators face the same population as the
//! GUESS simulator (paper §3.2, Figure 8): Saroiu-like lifetimes,
//! in-place rebirth on death, a Zipf catalog with per-peer libraries,
//! and bursty query arrivals. [`PeerTable`] owns that population — one
//! `{incarnation, library}` slot per peer, the library arena, and the
//! file-count, query, lifetime and arrival models — and exposes it as
//! separate steps, so each engine keeps only its protocol.
//!
//! # Draw-order contract
//!
//! The table owns no RNG. Every step that draws takes the engine's
//! stream, and each step draws in a fixed order:
//!
//! * [`PeerTable::birth`] and [`PeerTable::rebirth`] draw the file
//!   count, then the library items;
//! * [`PeerTable::schedule`] draws the lifetime, then the first burst
//!   gap;
//! * [`PeerTable::burst_size`] and [`PeerTable::schedule_burst`] draw
//!   one value each.
//!
//! Births and scheduling are separate steps because engines draw in
//! between: Gnutella wires the overlay after the library draws and
//! before the lifetime draw.

use simkit::rng::RngStream;
use simkit::sim::{ChurnDriver, SimCtx};
use simkit::time::SimTime;
use simkit::trace::TraceSink;

use crate::content::{Catalog, LibraryArena, LibraryHandle};
use crate::files::FileCountModel;
use crate::lifetime::LifetimeModel;
use crate::query::{InvalidQueryRateError, QueryModel, QueryTarget, QueryWorkload};

/// A peer's life-cycle event. An engine's event alphabet converts from
/// it, so the table can schedule deaths and bursts the engine then
/// dispatches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerEvent {
    /// The peer's bursty query-generation clock fires.
    Burst {
        /// The peer's slot.
        slot: u32,
        /// The instance the burst belongs to.
        incarnation: u64,
    },
    /// The peer's sampled lifetime expires.
    Death {
        /// The peer's slot.
        slot: u32,
        /// The instance that dies.
        incarnation: u64,
    },
}

/// One slot: the peer instance living there and its shared files.
#[derive(Debug, Clone, Copy)]
struct Slot {
    incarnation: u64,
    /// Freed and rebuilt at every rebirth, so churn recycles arena
    /// blocks instead of leaking them.
    library: LibraryHandle,
}

/// Slot-indexed peers with in-place rebirth, plus the content, churn
/// and query-arrival models that act on them.
///
/// Incarnations are allocated from 0 in birth order and never reused,
/// so an event stamped with an incarnation goes stale the moment its
/// slot is reborn ([`PeerTable::is_current`]).
#[derive(Debug)]
pub struct PeerTable {
    slots: Vec<Slot>,
    libs: LibraryArena,
    qmodel: QueryModel,
    files: FileCountModel,
    churn: ChurnDriver<LifetimeModel>,
    workload: QueryWorkload,
    next_incarnation: u64,
}

impl PeerTable {
    /// An empty table over `catalog`, drawing lifetimes from
    /// `lifetimes` and query bursts from `workload`; file counts follow
    /// [`FileCountModel::gnutella_like`].
    #[must_use]
    pub fn new(catalog: Catalog, lifetimes: LifetimeModel, workload: QueryWorkload) -> Self {
        PeerTable {
            slots: Vec::new(),
            libs: LibraryArena::new(),
            qmodel: QueryModel::new(catalog),
            files: FileCountModel::gnutella_like(),
            churn: ChurnDriver::new(lifetimes),
            workload,
            next_incarnation: 0,
        }
    }

    /// Number of slots; every slot always holds a live peer.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True before the first birth.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The incarnation currently living in `slot`.
    #[inline]
    #[must_use]
    pub fn incarnation(&self, slot: usize) -> u64 {
        self.slots[slot].incarnation
    }

    /// True when `incarnation` still lives in `slot` — the guard that
    /// makes a reborn slot's old death and burst events no-ops.
    #[inline]
    #[must_use]
    pub fn is_current(&self, slot: usize, incarnation: u64) -> bool {
        self.slots[slot].incarnation == incarnation
    }

    /// Appends a newborn peer with a fresh incarnation and library and
    /// returns its slot. Nothing is scheduled yet; see
    /// [`PeerTable::schedule`].
    pub fn birth(&mut self, rng: &mut RngStream) -> usize {
        let library = self.fresh_library(rng);
        let incarnation = self.take_incarnation();
        self.slots.push(Slot {
            incarnation,
            library,
        });
        self.slots.len() - 1
    }

    /// Replaces the peer in `slot` in place: traces the death of the
    /// current instance, frees its library, and installs a fresh
    /// incarnation and library. Nothing is scheduled yet.
    pub fn rebirth<E, T: TraceSink>(
        &mut self,
        slot: usize,
        now: SimTime,
        ctx: &mut SimCtx<'_, E, T>,
        rng: &mut RngStream,
    ) {
        self.churn.died(ctx, now, self.slots[slot].incarnation);
        let incarnation = self.take_incarnation();
        self.libs.free(self.slots[slot].library);
        let library = self.fresh_library(rng);
        self.slots[slot] = Slot {
            incarnation,
            library,
        };
    }

    /// Schedules the death and the first burst of the peer now living
    /// in `slot`, and traces its join.
    pub fn schedule<E: From<PeerEvent>, T: TraceSink>(
        &self,
        slot: usize,
        now: SimTime,
        ctx: &mut SimCtx<'_, E, T>,
        rng: &mut RngStream,
    ) {
        let incarnation = self.slots[slot].incarnation;
        let slot = slot_id(slot);
        self.churn.spawn(
            ctx,
            rng,
            now,
            incarnation,
            PeerEvent::Death { slot, incarnation }.into(),
        );
        self.schedule_burst(slot as usize, incarnation, now, ctx, rng);
    }

    /// Draws the number of queries in one burst.
    pub fn burst_size(&self, rng: &mut RngStream) -> u64 {
        self.workload.sample_burst_size(rng)
    }

    /// Draws the gap to the next burst of `incarnation` in `slot` and
    /// schedules it.
    pub fn schedule_burst<E: From<PeerEvent>, T: TraceSink>(
        &self,
        slot: usize,
        incarnation: u64,
        now: SimTime,
        ctx: &mut SimCtx<'_, E, T>,
        rng: &mut RngStream,
    ) {
        let gap = self.workload.sample_burst_gap(rng);
        ctx.schedule(
            now + gap,
            PeerEvent::Burst {
                slot: slot_id(slot),
                incarnation,
            }
            .into(),
        );
    }

    /// A uniformly chosen slot.
    pub fn pick(&self, rng: &mut RngStream) -> usize {
        rng.below(self.slots.len())
    }

    /// Draws a query target from the query model.
    pub fn sample_target(&self, rng: &mut RngStream) -> QueryTarget {
        self.qmodel.sample_target(rng)
    }

    /// True when the peer in `slot` shares a file matching `target`.
    #[inline]
    #[must_use]
    pub fn answers(&self, slot: usize, target: QueryTarget) -> bool {
        self.qmodel
            .answers_in(&self.libs, self.slots[slot].library, target)
    }

    /// Switches query arrivals to `rate` queries per peer-second.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidQueryRateError`] for a non-positive or
    /// non-finite rate, leaving the current rate in place.
    pub fn set_query_rate(&mut self, rate: f64) -> Result<(), InvalidQueryRateError> {
        self.workload = QueryWorkload::with_rate(rate)?;
        Ok(())
    }

    fn take_incarnation(&mut self) -> u64 {
        let incarnation = self.next_incarnation;
        self.next_incarnation += 1;
        incarnation
    }

    fn fresh_library(&mut self, rng: &mut RngStream) -> LibraryHandle {
        let count = self.files.sample_file_count(rng);
        self.qmodel
            .catalog()
            .build_library_in(count, rng, &mut self.libs)
    }
}

fn slot_id(slot: usize) -> u32 {
    u32::try_from(slot).expect("slot ids fit u32")
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::sim::{Kernel, KernelParams};
    use simkit::time::SimDuration;
    use simkit::trace::CountingSink;

    use crate::content::CatalogParams;

    fn table() -> PeerTable {
        let catalog = Catalog::new(CatalogParams {
            items: 500,
            ..CatalogParams::default()
        })
        .expect("valid catalog");
        PeerTable::new(
            catalog,
            LifetimeModel::saroiu_like(1.0),
            QueryWorkload::paper_default(),
        )
    }

    #[test]
    fn births_take_increasing_incarnations() {
        let mut peers = table();
        let mut rng = RngStream::from_seed(1, "peers");
        for expected in 0..5 {
            assert_eq!(peers.birth(&mut rng), expected);
            assert_eq!(peers.incarnation(expected), expected as u64);
        }
        assert_eq!(peers.len(), 5);
    }

    #[test]
    fn rebirth_makes_the_old_instance_stale() {
        let mut peers = table();
        let mut rng = RngStream::from_seed(2, "peers");
        for _ in 0..3 {
            peers.birth(&mut rng);
        }
        let mut kernel: Kernel<PeerEvent, CountingSink> = Kernel::new(
            KernelParams::new(SimDuration::from_secs(10.0)),
            CountingSink::new(),
        );
        peers.rebirth(1, SimTime::ZERO, &mut kernel.ctx(), &mut rng);
        assert!(!peers.is_current(1, 1));
        assert!(peers.is_current(1, 3));
        assert!(peers.is_current(0, 0) && peers.is_current(2, 2));
        assert_eq!(kernel.into_sink().deaths, 1);
    }

    #[test]
    fn schedule_queues_one_death_and_one_burst() {
        let mut peers = table();
        let mut rng = RngStream::from_seed(3, "peers");
        let slot = peers.birth(&mut rng);
        let mut kernel: Kernel<PeerEvent, CountingSink> = Kernel::new(
            KernelParams::new(SimDuration::from_secs(1e9)),
            CountingSink::new(),
        );
        peers.schedule(slot, SimTime::ZERO, &mut kernel.ctx(), &mut rng);
        struct Collect(Vec<PeerEvent>);
        impl<T: TraceSink> simkit::sim::Simulation<T> for Collect {
            type Event = PeerEvent;
            fn handle(&mut self, _: SimTime, ev: PeerEvent, _: &mut SimCtx<'_, PeerEvent, T>) {
                self.0.push(ev);
            }
        }
        let mut seen = Collect(Vec::new());
        kernel.run(&mut seen);
        assert_eq!(seen.0.len(), 2);
        for ev in [
            PeerEvent::Death {
                slot: 0,
                incarnation: 0,
            },
            PeerEvent::Burst {
                slot: 0,
                incarnation: 0,
            },
        ] {
            assert!(seen.0.contains(&ev), "{ev:?} was not scheduled");
        }
        assert_eq!(kernel.into_sink().joins, 1);
    }
}
