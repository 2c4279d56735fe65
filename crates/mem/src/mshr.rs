//! Miss status holding registers (MSHRs).

use lnuca_types::{Addr, ConfigError, ReqId};
use serde::{Deserialize, Serialize};

/// Result of trying to allocate an MSHR for a missing block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MshrAllocation {
    /// The miss is the first one to this block: a new entry was allocated and
    /// a request must be sent to the next level.
    Primary,
    /// The block is already being fetched: the request was merged into the
    /// existing entry and no new downstream request is needed.
    Secondary,
    /// No entry could be allocated (all entries in use, or the entry for this
    /// block already holds the maximum number of secondary misses). The
    /// requester must stall and retry.
    Full,
}

impl MshrAllocation {
    /// Returns `true` when a downstream request must be issued.
    #[must_use]
    pub fn is_primary(self) -> bool {
        matches!(self, MshrAllocation::Primary)
    }

    /// Returns `true` when the requester must stall.
    #[must_use]
    pub fn is_full(self) -> bool {
        matches!(self, MshrAllocation::Full)
    }
}

/// One physical MSHR slot. Dead slots keep their `waiters` allocation so a
/// steady-state allocate/retire cycle never touches the heap (DESIGN.md §9).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct MshrSlot {
    block: Addr,
    live: bool,
    waiters: Vec<ReqId>,
}

/// A file of miss status holding registers with secondary-miss merging,
/// stored as a fixed array of physical slots (first-fit allocation, slot
/// order is the deterministic sweep order).
///
/// The paper's configuration (Table I) uses 16 entries for the L1 and L2,
/// 8 for the L3, and allows 4 secondary misses per entry.
///
/// # Example
///
/// ```
/// use lnuca_mem::{MshrFile, MshrAllocation};
/// use lnuca_types::{Addr, ReqId};
///
/// let mut mshrs = MshrFile::new(16, 4, 64)?;
/// assert_eq!(mshrs.allocate(Addr(0x100), ReqId(1)), MshrAllocation::Primary);
/// assert_eq!(mshrs.allocate(Addr(0x104), ReqId(2)), MshrAllocation::Secondary);
/// let done = mshrs.complete(Addr(0x100));
/// assert_eq!(done, vec![ReqId(1), ReqId(2)]);
/// # Ok::<(), lnuca_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MshrFile {
    /// Fixed-length slot array (`capacity` entries, live or dead).
    slots: Vec<MshrSlot>,
    occupancy: usize,
    secondary_per_entry: usize,
    block_size: u64,
    peak_occupancy: usize,
    primary_misses: u64,
    secondary_misses: u64,
    rejections: u64,
}

impl MshrFile {
    /// Creates an MSHR file with `capacity` entries, each accepting up to
    /// `secondary_per_entry` merged misses beyond the primary one, tracking
    /// blocks of `block_size` bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `capacity` is zero or `block_size` is not
    /// a power of two.
    pub fn new(capacity: usize, secondary_per_entry: usize, block_size: u64) -> Result<Self, ConfigError> {
        if capacity == 0 {
            return Err(ConfigError::new("capacity", "must be nonzero"));
        }
        if block_size == 0 || !block_size.is_power_of_two() {
            return Err(ConfigError::new(
                "block_size",
                format!("must be a nonzero power of two, got {block_size}"),
            ));
        }
        Ok(MshrFile {
            slots: (0..capacity)
                .map(|_| MshrSlot {
                    block: Addr(0),
                    live: false,
                    // Full capacity up front (primary + merged secondaries)
                    // so even the *first* allocate/merge cycle of a slot
                    // never grows the vector: the zero-allocation window of
                    // a run starts at construction, not after a warm-up
                    // (DESIGN.md §9).
                    waiters: Vec::with_capacity(1 + secondary_per_entry),
                })
                .collect(),
            occupancy: 0,
            secondary_per_entry,
            block_size,
            peak_occupancy: 0,
            primary_misses: 0,
            secondary_misses: 0,
            rejections: 0,
        })
    }

    /// Number of entries currently in use.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Highest occupancy observed so far.
    #[must_use]
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// Returns `true` when no more primary misses can be accepted.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.occupancy >= self.slots.len()
    }

    /// Returns `true` if a fetch for the block containing `addr` is pending.
    #[must_use]
    pub fn is_pending(&self, addr: Addr) -> bool {
        let block = addr.block_base(self.block_size);
        self.slots.iter().any(|s| s.live && s.block == block)
    }

    /// Tries to register the miss of `req` on the block containing `addr`.
    pub fn allocate(&mut self, addr: Addr, req: ReqId) -> MshrAllocation {
        let block = addr.block_base(self.block_size);
        if let Some(slot) = self.slots.iter_mut().find(|s| s.live && s.block == block) {
            if slot.waiters.len() >= 1 + self.secondary_per_entry {
                self.rejections += 1;
                return MshrAllocation::Full;
            }
            slot.waiters.push(req);
            self.secondary_misses += 1;
            return MshrAllocation::Secondary;
        }
        let Some(slot) = self.slots.iter_mut().find(|s| !s.live) else {
            self.rejections += 1;
            return MshrAllocation::Full;
        };
        slot.block = block;
        slot.live = true;
        slot.waiters.clear();
        slot.waiters.push(req);
        self.occupancy += 1;
        self.peak_occupancy = self.peak_occupancy.max(self.occupancy);
        self.primary_misses += 1;
        MshrAllocation::Primary
    }

    /// Completes the fetch of the block containing `addr`, freeing its entry
    /// and returning all requests that were waiting on it (primary first, in
    /// allocation order). Returns an empty vector if no entry matched.
    ///
    /// Allocating convenience over [`MshrFile::retire`] for callers that
    /// need the waiter list; the hierarchies' per-cycle retire sweeps use
    /// `retire`, which frees the entry without touching the heap.
    pub fn complete(&mut self, addr: Addr) -> Vec<ReqId> {
        let block = addr.block_base(self.block_size);
        match self.slots.iter_mut().find(|s| s.live && s.block == block) {
            Some(slot) => {
                slot.live = false;
                self.occupancy -= 1;
                std::mem::take(&mut slot.waiters)
            }
            None => Vec::new(),
        }
    }

    /// Frees the entry for the block containing `addr` without returning the
    /// waiter list, keeping the slot's waiter allocation for reuse. Returns
    /// the number of requests that were waiting (0 if no entry matched).
    pub fn retire(&mut self, addr: Addr) -> usize {
        let block = addr.block_base(self.block_size);
        match self.slots.iter_mut().find(|s| s.live && s.block == block) {
            Some(slot) => {
                slot.live = false;
                self.occupancy -= 1;
                let waiting = slot.waiters.len();
                slot.waiters.clear();
                waiting
            }
            None => 0,
        }
    }

    /// Counts of (primary, secondary, rejected) allocations so far.
    #[must_use]
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.primary_misses, self.secondary_misses, self.rejections)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn primary_then_secondary_then_full_per_entry() {
        let mut m = MshrFile::new(2, 1, 64).unwrap();
        assert_eq!(m.allocate(Addr(0x00), ReqId(1)), MshrAllocation::Primary);
        assert_eq!(m.allocate(Addr(0x3F), ReqId(2)), MshrAllocation::Secondary);
        assert_eq!(m.allocate(Addr(0x20), ReqId(3)), MshrAllocation::Full, "entry for block 0 is saturated");
        assert_eq!(m.allocate(Addr(0x40), ReqId(4)), MshrAllocation::Primary);
        assert!(m.is_pending(Addr(0x00)));
        assert!(!m.is_pending(Addr(0x80)));
    }

    #[test]
    fn file_capacity_limits_primary_misses() {
        let mut m = MshrFile::new(2, 4, 64).unwrap();
        assert!(m.allocate(Addr(0x000), ReqId(1)).is_primary());
        assert!(m.allocate(Addr(0x040), ReqId(2)).is_primary());
        assert!(m.is_full());
        assert!(m.allocate(Addr(0x080), ReqId(3)).is_full());
        let (prim, sec, rej) = m.counters();
        assert_eq!((prim, sec, rej), (2, 0, 1));
    }

    #[test]
    fn complete_returns_waiters_in_order_and_frees_entry() {
        let mut m = MshrFile::new(4, 4, 64).unwrap();
        m.allocate(Addr(0x100), ReqId(10));
        m.allocate(Addr(0x110), ReqId(11));
        m.allocate(Addr(0x120), ReqId(12));
        assert_eq!(m.complete(Addr(0x13C)), vec![ReqId(10), ReqId(11), ReqId(12)]);
        assert_eq!(m.occupancy(), 0);
        assert!(m.complete(Addr(0x100)).is_empty());
    }

    #[test]
    fn retire_frees_the_entry_and_reports_waiter_count() {
        let mut m = MshrFile::new(2, 4, 64).unwrap();
        m.allocate(Addr(0x100), ReqId(1));
        m.allocate(Addr(0x110), ReqId(2));
        assert_eq!(m.retire(Addr(0x100)), 2);
        assert_eq!(m.occupancy(), 0);
        assert!(!m.is_pending(Addr(0x100)));
        assert_eq!(m.retire(Addr(0x100)), 0, "already retired");
        // The freed slot is reusable immediately.
        assert!(m.allocate(Addr(0x200), ReqId(3)).is_primary());
    }

    #[test]
    fn invalid_configuration_is_rejected() {
        assert!(MshrFile::new(0, 4, 64).is_err());
        assert!(MshrFile::new(4, 4, 63).is_err());
    }

    #[test]
    fn peak_occupancy_is_monotonic() {
        let mut m = MshrFile::new(4, 0, 64).unwrap();
        m.allocate(Addr(0x000), ReqId(1));
        m.allocate(Addr(0x040), ReqId(2));
        assert_eq!(m.peak_occupancy(), 2);
        m.complete(Addr(0x000));
        m.complete(Addr(0x040));
        assert_eq!(m.peak_occupancy(), 2);
        assert_eq!(m.occupancy(), 0);
    }

    proptest! {
        #[test]
        fn occupancy_never_exceeds_capacity(
            addrs in proptest::collection::vec(0u64..0x1000, 1..200),
            capacity in 1usize..8,
        ) {
            let mut m = MshrFile::new(capacity, 2, 64).unwrap();
            for (i, &a) in addrs.iter().enumerate() {
                let _ = m.allocate(Addr(a), ReqId(i as u64));
                prop_assert!(m.occupancy() <= capacity);
                // Occasionally complete something to exercise both paths.
                if i % 5 == 0 {
                    let _ = m.complete(Addr(a));
                }
            }
        }

        #[test]
        fn every_allocated_waiter_is_returned_exactly_once(addrs in proptest::collection::vec(0u64..0x400, 1..100)) {
            let mut m = MshrFile::new(64, 64, 64).unwrap();
            let mut accepted = Vec::new();
            for (i, &a) in addrs.iter().enumerate() {
                let id = ReqId(i as u64);
                match m.allocate(Addr(a), id) {
                    MshrAllocation::Primary | MshrAllocation::Secondary => accepted.push((a, id)),
                    MshrAllocation::Full => {}
                }
            }
            let mut returned = Vec::new();
            for &(a, _) in &accepted {
                returned.extend(m.complete(Addr(a)));
            }
            returned.sort_by_key(|r| r.0);
            returned.dedup();
            let mut expected: Vec<ReqId> = accepted.iter().map(|&(_, id)| id).collect();
            expected.sort_by_key(|r| r.0);
            prop_assert_eq!(returned, expected);
        }
    }
}
