//! Cache entries — the pointers GUESS peers hold about each other.
//!
//! The paper's entry format (§2.1):
//!
//! ```text
//! { IP address of Q, TS, NumFiles, NumRes }
//! ```
//!
//! `TS` is the time of the last direct interaction with `Q`; `NumFiles` is
//! `Q`'s advertised shared-file count (set when `Q` introduces itself and
//! propagated verbatim as entries are shared); `NumRes` is the number of
//! results `Q` returned to *the last query probe recorded in this entry*.
//!
//! An entry is 20 bytes with 4-byte alignment: `TS` is kept as the exact
//! `f64` but packed to a 4-byte boundary, so the four fields carry no
//! padding. The link-cache arena is most of a large run's heap, and 4
//! bytes of padding per entry would be a sixth of it.

use simkit::time::SimTime;

use crate::addr::PeerAddr;

/// One link-cache or query-cache entry.
///
/// # Examples
///
/// ```
/// use guess::addr::AddrAllocator;
/// use guess::entry::CacheEntry;
/// use simkit::time::SimTime;
///
/// let mut alloc = AddrAllocator::new();
/// let mut e = CacheEntry::new(alloc.allocate(), SimTime::ZERO, 120);
/// e.touch(SimTime::from_secs(5.0));
/// e.record_results(SimTime::from_secs(5.0), 1);
/// assert_eq!(e.num_res(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, packed(4))]
pub struct CacheEntry {
    addr: PeerAddr,
    ts: SimTime,
    num_files: u32,
    num_res: u32,
}

impl CacheEntry {
    /// Creates an entry for `addr` first observed at `ts`, advertising
    /// `num_files` shared files and no result history.
    #[must_use]
    pub fn new(addr: PeerAddr, ts: SimTime, num_files: u32) -> Self {
        CacheEntry {
            addr,
            ts,
            num_files,
            num_res: 0,
        }
    }

    /// Creates an entry with explicit metadata, as carried inside a Pong.
    /// Receivers insert pong entries *without* modifying any field (§2.2),
    /// so this constructor preserves whatever the sender claimed.
    #[must_use]
    pub fn from_pong(addr: PeerAddr, ts: SimTime, num_files: u32, num_res: u32) -> Self {
        CacheEntry {
            addr,
            ts,
            num_files,
            num_res,
        }
    }

    /// The peer this entry points to.
    #[must_use]
    pub fn addr(&self) -> PeerAddr {
        self.addr
    }

    /// Timestamp of the last recorded interaction.
    #[must_use]
    pub fn ts(&self) -> SimTime {
        self.ts
    }

    /// Advertised shared-file count.
    #[must_use]
    pub fn num_files(&self) -> u32 {
        self.num_files
    }

    /// Results returned by the peer's last recorded query probe.
    #[must_use]
    pub fn num_res(&self) -> u32 {
        self.num_res
    }

    /// Records a direct interaction at `now`, refreshing `TS`.
    pub fn touch(&mut self, now: SimTime) {
        self.ts = now;
    }

    /// Records the outcome of a query probe: refresh `TS` and overwrite
    /// `NumRes` with this probe's result count (the paper *resets* the
    /// field on every query, §2.1).
    pub fn record_results(&mut self, now: SimTime, results: u32) {
        self.ts = now;
        self.num_res = results;
    }

    /// Clears third-party result history. MR\* applies this to every entry
    /// learned from someone else so rankings rest only on first-hand
    /// experience (§6.4).
    pub fn reset_num_res(&mut self) {
        self.num_res = 0;
    }
}

// A field that brings padding back fails the build instead of silently
// growing every link cache (4 bytes per entry is ~200 MB at 500k peers).
const _: () = assert!(std::mem::size_of::<CacheEntry>() == 20);
const _: () = assert!(std::mem::align_of::<CacheEntry>() == 4);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::AddrAllocator;
    use crate::policy::{retention_key, selection_key, ReplacementPolicy, SelectionPolicy};
    use simkit::rng::RngStream;
    use simkit::time::SimDuration;

    fn addr() -> PeerAddr {
        AddrAllocator::new().allocate()
    }

    #[test]
    fn new_entry_has_no_result_history() {
        let e = CacheEntry::new(addr(), SimTime::from_secs(3.0), 42);
        assert_eq!(e.num_res(), 0);
        assert_eq!(e.num_files(), 42);
        assert_eq!(e.ts(), SimTime::from_secs(3.0));
    }

    #[test]
    fn touch_updates_only_ts() {
        let mut e = CacheEntry::new(addr(), SimTime::ZERO, 7);
        e.touch(SimTime::from_secs(10.0));
        assert_eq!(e.ts(), SimTime::from_secs(10.0));
        assert_eq!(e.num_files(), 7);
        assert_eq!(e.num_res(), 0);
    }

    #[test]
    fn record_results_overwrites_not_accumulates() {
        let mut e = CacheEntry::new(addr(), SimTime::ZERO, 7);
        e.record_results(SimTime::from_secs(1.0), 3);
        assert_eq!(e.num_res(), 3);
        e.record_results(SimTime::from_secs(2.0), 0);
        assert_eq!(e.num_res(), 0, "NumRes is reset each query");
        assert_eq!(e.ts(), SimTime::from_secs(2.0));
    }

    #[test]
    fn pong_entries_preserve_claims() {
        let e = CacheEntry::from_pong(addr(), SimTime::from_secs(9.0), 5000, 17);
        assert_eq!(e.num_files(), 5000);
        assert_eq!(e.num_res(), 17);
        assert_eq!(e.ts(), SimTime::from_secs(9.0));
    }

    #[test]
    fn reset_num_res_zeroes_history() {
        let mut e = CacheEntry::from_pong(addr(), SimTime::ZERO, 10, 99);
        e.reset_num_res();
        assert_eq!(e.num_res(), 0);
        assert_eq!(e.num_files(), 10, "NumFiles untouched");
    }

    fn bit_exact_times() -> Vec<SimTime> {
        let mut times: Vec<SimTime> = [0.0, f64::MIN_POSITIVE, 1.0 / 3.0, 1e9 + 0.1]
            .into_iter()
            .map(SimTime::from_secs)
            .collect();
        // Timestamps as the engine builds them: an instant plus a scaled
        // interval, which leaves arbitrary low mantissa bits.
        let mut rng = RngStream::from_seed(7, "entry-ts");
        let mut now = SimTime::from_secs(30.0);
        for _ in 0..64 {
            now += SimDuration::from_secs(30.0) * rng.f64();
            times.push(now);
        }
        times
    }

    #[test]
    fn ts_round_trips_bit_exactly() {
        for t in bit_exact_times() {
            let bits = t.as_secs().to_bits();
            let e = CacheEntry::from_pong(addr(), t, 9, 4);
            assert_eq!(e.ts().as_secs().to_bits(), bits);
            let mut touched = CacheEntry::new(addr(), SimTime::ZERO, 9);
            touched.touch(t);
            assert_eq!(touched.ts().as_secs().to_bits(), bits);
            let mut recorded = CacheEntry::new(addr(), SimTime::ZERO, 9);
            recorded.record_results(t, 2);
            assert_eq!(recorded.ts().as_secs().to_bits(), bits);
            assert_eq!((recorded.num_files(), recorded.num_res()), (9, 2));
        }
    }

    #[test]
    fn recency_keys_keep_their_order() {
        let mut times = bit_exact_times();
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        let entries: Vec<CacheEntry> = times
            .iter()
            .map(|&t| CacheEntry::new(addr(), t, 1))
            .collect();
        let mut rng = RngStream::from_seed(7, "entry-keys");
        let keys = |sel: SelectionPolicy, rep: ReplacementPolicy, rng: &mut RngStream| {
            entries
                .iter()
                .map(|e| (selection_key(sel, e, rng).0, retention_key(rep, e, rng).0))
                .collect::<Vec<_>>()
        };
        // Later TS: MRU selection and LRU retention keys never fall;
        // LRU selection and MRU retention keys never rise.
        let fresh = keys(SelectionPolicy::Mru, ReplacementPolicy::Lru, &mut rng);
        for (&t, &(key, _)) in times.iter().zip(&fresh) {
            assert_eq!(key, (t.as_secs() * 1e6) as u64, "microsecond key of TS");
        }
        let stale = keys(SelectionPolicy::Lru, ReplacementPolicy::Mru, &mut rng);
        for w in fresh.windows(2) {
            assert!(w[0].0 <= w[1].0 && w[0].1 <= w[1].1);
        }
        for w in stale.windows(2) {
            assert!(w[0].0 >= w[1].0 && w[0].1 >= w[1].1);
        }
        assert!(
            fresh[0].0 < fresh[fresh.len() - 1].0,
            "keys are not all equal"
        );
    }
}
