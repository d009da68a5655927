//! The GUESS wire payload: the pong every reply carries.
//!
//! The protocol has two interaction kinds (§2): maintenance *pings*, which
//! elicit a [`Pong`], and query *probes*, which elicit a query response
//! bundled with a pong. Because GUESS runs over UDP, the absence of any
//! reply within the timeout — whether the target is dead or silently
//! dropping excess load — looks identical to the sender.

use crate::entry::CacheEntry;

/// A pong: the cache-entry sharing payload attached to every reply.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pong {
    /// Up to `PongSize` entries chosen by the responder's pong policy.
    pub entries: Vec<CacheEntry>,
}

impl Pong {
    /// An empty pong (e.g. from a peer with an empty cache).
    #[must_use]
    pub fn empty() -> Self {
        Pong {
            entries: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::AddrAllocator;
    use simkit::time::SimTime;

    #[test]
    fn empty_pong_has_no_entries() {
        assert!(Pong::empty().entries.is_empty());
        assert_eq!(Pong::default(), Pong::empty());
    }

    #[test]
    fn pong_round_trips_entries() {
        let mut alloc = AddrAllocator::new();
        let e = CacheEntry::new(alloc.allocate(), SimTime::ZERO, 3);
        let pong = Pong { entries: vec![e] };
        assert_eq!(pong.entries.len(), 1);
        assert_eq!(pong.entries[0].num_files(), 3);
    }
}
