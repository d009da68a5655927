//! Per-peer simulation state.
//!
//! Bulk storage — the library item ids and the link-cache entries — does
//! not live here: `PeerState` holds arena *handles*
//! ([`workload::content::LibraryHandle`], [`crate::link_cache::CacheHandle`])
//! into engine-owned arenas. A dead peer's record stays in the peer table
//! forever (so stale cache entries still resolve), but its arena blocks
//! are released at death and recycled by the replacement peer, which is
//! what keeps long churny runs at a flat bytes-per-peer cost.
//!
//! The defence state — the pong-source [`ReputationTracker`] and the
//! [`ProbeAccount`] — is boxed and allocated on first use. Only the
//! pong-distrust and payment experiments ever touch it; inline, it would
//! take 208 of every record's bytes in all other runs too. A record is
//! 104 bytes.

use std::sync::LazyLock;

use simkit::time::{SimDuration, SimTime};
use workload::content::LibraryHandle;

use crate::addr::{PeerAddr, SlotId};
use crate::capacity::CapacityMeter;
use crate::link_cache::CacheHandle;
use crate::payments::ProbeAccount;
use crate::reputation::{ReputationParams, ReputationTracker};

/// Whether a peer follows the protocol or attacks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Behavior {
    /// An honest peer: answers queries from its library, shares real cache
    /// entries in pongs.
    Good,
    /// A malicious peer (§6.4): returns no results and poisons pongs with
    /// dead or colluding addresses, advertising inflated metadata.
    Malicious,
}

/// The complete state of one peer instance.
///
/// A `PeerState` is created at birth and never removed: after death it
/// remains in the peer table (flagged dead) so stale cache entries held by
/// others still resolve to *something* — namely, a peer that will never
/// answer a probe.
#[derive(Debug, Clone)]
pub struct PeerState {
    addr: PeerAddr,
    slot: SlotId,
    behavior: Behavior,
    alive: bool,
    born: SimTime,
    died: SimTime,
    /// Advertised shared-file count. Honest peers advertise the truth;
    /// malicious peers inflate it to game metadata-trusting policies.
    advertised_files: u32,
    library: LibraryHandle,
    cache: CacheHandle,
    capacity: CapacityMeter,
    probes_received: u64,
    selfish: bool,
    ping_interval: SimDuration,
    reputation: Option<Box<ReputationTracker>>,
    account: Option<Box<ProbeAccount>>,
}

// The hot record must stay small: the peer table holds one per address
// ever born, and at 500k peers every byte here is about 1 MB of heap.
const _: () = assert!(std::mem::size_of::<PeerState>() <= 112);

/// What [`PeerState::reputation`] reads before the tracker is allocated.
static FRESH_REPUTATION: LazyLock<ReputationTracker> =
    LazyLock::new(|| ReputationTracker::new(ReputationParams::default()));

impl PeerState {
    /// Creates a live peer owning the given arena blocks.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        addr: PeerAddr,
        slot: SlotId,
        behavior: Behavior,
        born: SimTime,
        advertised_files: u32,
        library: LibraryHandle,
        cache: CacheHandle,
        probe_limit: Option<u32>,
    ) -> Self {
        PeerState {
            addr,
            slot,
            behavior,
            alive: true,
            born,
            died: born,
            advertised_files,
            library,
            cache,
            capacity: CapacityMeter::with_limit(probe_limit),
            probes_received: 0,
            selfish: false,
            ping_interval: SimDuration::from_secs(30.0),
            reputation: None,
            account: None,
        }
    }

    /// Creates a dead placeholder for a fabricated address (the dead IPs
    /// malicious peers hand out in poisoned pongs). Stubs own no arena
    /// blocks: the library handle is empty and the cache handle is null —
    /// nothing ever probes *through* a stub.
    #[must_use]
    pub fn dead_stub(addr: PeerAddr, born: SimTime) -> Self {
        PeerState {
            addr,
            slot: SlotId(u32::MAX),
            behavior: Behavior::Malicious,
            alive: false,
            born,
            // A fabricated address was never live: its pointers are stale
            // information from the moment they first circulate.
            died: born,
            advertised_files: 0,
            library: LibraryHandle::EMPTY,
            cache: CacheHandle::NULL,
            capacity: CapacityMeter::with_limit(None),
            probes_received: 0,
            selfish: false,
            ping_interval: SimDuration::from_secs(30.0),
            reputation: None,
            account: None,
        }
    }

    /// This peer's address.
    #[must_use]
    pub fn addr(&self) -> PeerAddr {
        self.addr
    }

    /// The network slot this peer occupies (or occupied).
    #[must_use]
    pub fn slot(&self) -> SlotId {
        self.slot
    }

    /// Honest or malicious.
    #[must_use]
    pub fn behavior(&self) -> Behavior {
        self.behavior
    }

    /// True until the peer leaves the network.
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// True for live peers that follow the protocol.
    #[must_use]
    pub fn is_good(&self) -> bool {
        self.alive && self.behavior == Behavior::Good
    }

    /// Birth instant.
    #[must_use]
    pub fn born(&self) -> SimTime {
        self.born
    }

    /// The file count this peer advertises in introductions and pongs.
    #[must_use]
    pub fn advertised_files(&self) -> u32 {
        self.advertised_files
    }

    /// Handle to the peer's content library in the engine's library arena.
    #[must_use]
    pub fn library(&self) -> LibraryHandle {
        self.library
    }

    /// Handle to the peer's link cache in the engine's cache arena.
    #[must_use]
    pub fn cache(&self) -> CacheHandle {
        self.cache
    }

    /// Mutable access to the capacity meter.
    pub fn capacity_mut(&mut self) -> &mut CapacityMeter {
        &mut self.capacity
    }

    /// Total probes that have arrived at this peer while alive (including
    /// refused ones — a refusal still costs the receiver work).
    #[must_use]
    pub fn probes_received(&self) -> u64 {
        self.probes_received
    }

    /// Records an arriving probe for load accounting.
    pub fn note_probe_received(&mut self) {
        self.probes_received += 1;
    }

    /// Marks the peer as departed at `now`. GUESS peers leave silently
    /// (§3.2): no notification is sent; others discover the death via
    /// failed probes. The instant is kept so the staleness sweep can
    /// measure how long cache entries keep pointing at the corpse.
    pub fn kill(&mut self, now: SimTime) {
        self.alive = false;
        self.died = now;
    }

    /// When the peer left the network. Meaningful only once
    /// [`is_alive`](Self::is_alive) is false; dead stubs report their
    /// creation instant.
    #[must_use]
    pub fn died_at(&self) -> SimTime {
        self.died
    }

    /// Surrenders the peer's arena blocks at death: returns the handles
    /// (for the engine to free) and leaves the record holding inert
    /// null/empty handles so any later read sees an empty cache/library.
    pub fn release_storage(&mut self) -> (CacheHandle, LibraryHandle) {
        let released = (self.cache, self.library);
        self.cache = CacheHandle::NULL;
        self.library = LibraryHandle::EMPTY;
        released
    }

    /// Whether this (honest) peer games the system with huge probe
    /// volleys (§3.3).
    #[must_use]
    pub fn is_selfish(&self) -> bool {
        self.selfish
    }

    /// Flags the peer as selfish.
    pub fn set_selfish(&mut self, selfish: bool) {
        self.selfish = selfish;
    }

    /// The peer's current maintenance ping interval (adaptive pinging
    /// adjusts it at runtime).
    #[must_use]
    pub fn ping_interval(&self) -> SimDuration {
        self.ping_interval
    }

    /// Sets the maintenance ping interval.
    pub fn set_ping_interval(&mut self, interval: SimDuration) {
        self.ping_interval = interval;
    }

    /// The peer's pong-source reputation memory. A peer whose tracker was
    /// never written reads as a fresh one.
    #[must_use]
    pub fn reputation(&self) -> &ReputationTracker {
        self.reputation.as_deref().unwrap_or(&FRESH_REPUTATION)
    }

    /// Mutable access to the reputation memory, allocating it on first
    /// use.
    pub fn reputation_mut(&mut self) -> &mut ReputationTracker {
        self.reputation
            .get_or_insert_with(|| Box::new(FRESH_REPUTATION.clone()))
    }

    /// Opens (or replaces) the peer's probe-credit account.
    pub fn open_account(&mut self, account: ProbeAccount) {
        self.account = Some(Box::new(account));
    }

    /// Mutable access to the probe-credit account, if the payment economy
    /// is enabled.
    pub fn account_mut(&mut self) -> Option<&mut ProbeAccount> {
        self.account.as_deref_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::AddrAllocator;
    use crate::link_cache::CacheArena;
    use crate::payments::PaymentParams;
    use crate::reputation::SourceVerdict;

    fn peer_in(arena: &mut CacheArena) -> PeerState {
        let mut alloc = AddrAllocator::new();
        PeerState::new(
            alloc.allocate(),
            SlotId(0),
            Behavior::Good,
            SimTime::ZERO,
            42,
            LibraryHandle::EMPTY,
            arena.alloc(),
            Some(100),
        )
    }

    fn peer() -> PeerState {
        peer_in(&mut CacheArena::new(10))
    }

    #[test]
    fn newborn_is_alive_and_good() {
        let mut arena = CacheArena::new(10);
        let p = peer_in(&mut arena);
        assert!(p.is_alive());
        assert!(p.is_good());
        assert_eq!(p.advertised_files(), 42);
        assert_eq!(p.probes_received(), 0);
        assert!(!p.cache().is_null());
        assert_eq!(arena.len(p.cache()), 0);
    }

    #[test]
    fn kill_marks_dead_and_records_the_instant() {
        let mut p = peer();
        p.kill(SimTime::from_secs(12.5));
        assert!(!p.is_alive());
        assert!(!p.is_good());
        assert_eq!(p.died_at(), SimTime::from_secs(12.5));
    }

    #[test]
    fn release_storage_leaves_inert_handles() {
        let mut arena = CacheArena::new(10);
        let mut p = peer_in(&mut arena);
        let original = p.cache();
        p.kill(SimTime::ZERO);
        let (cache, library) = p.release_storage();
        assert_eq!(cache, original);
        assert!(library.is_empty());
        arena.free(cache);
        assert!(p.cache().is_null(), "record keeps only the null handle");
        assert!(p.library().is_empty());
        assert_eq!(arena.alloc(), original, "block is recycled");
    }

    #[test]
    fn dead_stub_is_dead_from_birth() {
        let mut alloc = AddrAllocator::new();
        let s = PeerState::dead_stub(alloc.allocate(), SimTime::from_secs(5.0));
        assert!(!s.is_alive());
        assert!(!s.is_good());
        assert_eq!(s.born(), SimTime::from_secs(5.0));
        assert_eq!(s.died_at(), SimTime::from_secs(5.0));
        assert!(s.library().is_empty());
        assert!(s.cache().is_null());
    }

    #[test]
    fn probe_load_accumulates() {
        let mut p = peer();
        p.note_probe_received();
        p.note_probe_received();
        assert_eq!(p.probes_received(), 2);
    }

    #[test]
    fn selfish_flag_and_ping_interval_round_trip() {
        let mut p = peer();
        assert!(!p.is_selfish());
        p.set_selfish(true);
        assert!(p.is_selfish());
        p.set_ping_interval(SimDuration::from_secs(12.0));
        assert_eq!(p.ping_interval(), SimDuration::from_secs(12.0));
    }

    #[test]
    fn untouched_reputation_reads_fresh() {
        let p = peer();
        let mut alloc = AddrAllocator::new();
        let someone = alloc.allocate();
        assert_eq!(p.reputation().blacklisted_count(), 0);
        assert!(!p.reputation().is_blacklisted(someone));
        assert_eq!(p.reputation().verdict(someone), SourceVerdict::Undecided);
        assert!(p.reputation.is_none(), "reading allocates nothing");
    }

    #[test]
    fn reputation_mut_blacklists_as_before() {
        let mut p = peer();
        let mut alloc = AddrAllocator::new();
        let liar = alloc.allocate();
        for _ in 0..8 {
            let fake = alloc.allocate();
            p.reputation_mut().note_shared(liar, fake);
            assert_eq!(p.reputation_mut().note_dead(fake), Some(liar));
        }
        assert!(p.reputation().is_blacklisted(liar));
        assert_eq!(p.reputation().blacklisted_count(), 1);
        // Another peer's tracker is untouched.
        assert_eq!(peer().reputation().blacklisted_count(), 0);
    }

    #[test]
    fn account_round_trips() {
        let mut p = peer();
        assert!(p.account_mut().is_none(), "no account until opened");
        let params = PaymentParams {
            initial_balance: 1.0,
            allowance_per_sec: 0.0,
            ..PaymentParams::default()
        };
        p.open_account(ProbeAccount::new(params, SimTime::ZERO));
        let acct = p.account_mut().expect("account was opened");
        assert!(acct.pay_probe(SimTime::ZERO).is_ok());
        assert!(acct.pay_probe(SimTime::ZERO).is_err(), "balance spent");
        assert!(
            p.account_mut().unwrap().pay_probe(SimTime::ZERO).is_err(),
            "the spend persisted in the record"
        );
        p.open_account(ProbeAccount::new(params, SimTime::ZERO));
        assert!(p.account_mut().unwrap().pay_probe(SimTime::ZERO).is_ok());
    }

    #[test]
    fn reputation_is_per_peer() {
        let mut p = peer();
        let mut alloc = AddrAllocator::new();
        let src = alloc.allocate();
        let subj = alloc.allocate();
        p.reputation_mut().note_shared(src, subj);
        p.reputation_mut().note_dead(subj);
        assert_eq!(
            p.reputation().blacklisted_count(),
            0,
            "one strike is not enough"
        );
    }

    #[test]
    fn malicious_live_peer_is_not_good() {
        let mut alloc = AddrAllocator::new();
        let p = PeerState::new(
            alloc.allocate(),
            SlotId(1),
            Behavior::Malicious,
            SimTime::ZERO,
            5000,
            LibraryHandle::EMPTY,
            CacheHandle::NULL,
            None,
        );
        assert!(p.is_alive());
        assert!(!p.is_good());
        assert_eq!(p.behavior(), Behavior::Malicious);
    }
}
