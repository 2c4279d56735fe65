//! The tag/state array of a set-associative cache, stored as flat parallel
//! lanes for branch-light lookups.

use crate::{CacheGeometry, ReplacementPolicy};
use lnuca_types::Addr;
use serde::{Deserialize, Serialize};

/// Metadata stored with every resident cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Line {
    /// Block-aligned base address of the cached block.
    pub addr: Addr,
    /// Whether the line holds modified data that must be written back.
    pub dirty: bool,
}

/// A line that was evicted to make room for a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvictedLine {
    /// Block-aligned base address of the evicted block.
    pub addr: Addr,
    /// Whether the victim was dirty (requires a write-back).
    pub dirty: bool,
}

/// Per-way state that is *not* scanned during a lookup: the dirty bit and
/// the replacement metadata. Kept in a lane parallel to the packed tag
/// array so the tag scan touches nothing but dense `u64` words.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Way {
    dirty: bool,
    last_use: u64,
    inserted: u64,
}

/// Sentinel tag marking an empty way. Real tags are `block_index >> set_shift`
/// and can only reach `u64::MAX` for a degenerate 1-set, 1-byte-block
/// geometry, which [`CacheArray::new`] debug-asserts against in `fill`.
const EMPTY_TAG: u64 = u64::MAX;

/// A set-associative tag/state array.
///
/// `CacheArray` models only residency, recency and dirtiness — timing lives
/// in [`crate::ConventionalCache`] and in the L-NUCA tile model. The array is
/// the piece shared by every cache-like structure in the workspace
/// (conventional caches, L-NUCA tiles, D-NUCA banks).
///
/// # Storage layout (DESIGN.md §10)
///
/// Ways are stored flat, indexed by `set * ways + way`:
///
/// * `tags` — one packed `u64` tag per way (a sentinel word marks an
///   empty way). A lookup is a linear scan over the set's `ways`-long slice of
///   this lane: dense words, no `Option` discriminant, no pointer chasing.
/// * `ways` — the parallel cold lane (dirty bit + replacement metadata),
///   touched only on a hit or when choosing a victim.
///
/// Set indexing is shift/mask (`sets` is always a power of two), so the hot
/// path performs no division.
///
/// # Example
///
/// ```
/// use lnuca_mem::{CacheArray, CacheGeometry, ReplacementPolicy};
/// use lnuca_types::Addr;
///
/// let geometry = CacheGeometry::new(8 * 1024, 2, 32)?;
/// let mut array = CacheArray::new(geometry, ReplacementPolicy::Lru);
/// assert!(array.lookup(Addr(0x40)).is_none());
/// let evicted = array.fill(Addr(0x40), false);
/// assert!(evicted.is_none());
/// assert!(array.lookup(Addr(0x5f)).is_some()); // same 32-byte block
/// # Ok::<(), lnuca_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheArray {
    geometry: CacheGeometry,
    policy: ReplacementPolicy,
    /// Packed tag lane, `sets * ways` entries, [`EMPTY_TAG`] = empty.
    tags: Box<[u64]>,
    /// Cold per-way lane parallel to `tags`.
    ways: Box<[Way]>,
    /// `log2(block_size)`: shifts an address down to its block index.
    block_shift: u32,
    /// `log2(sets)`: shifts a block index down to its tag.
    set_shift: u32,
    /// `sets - 1`: masks a block index to its set index.
    set_mask: u64,
    /// Ways per set (cached out of `geometry` for the hot path).
    assoc: usize,
    tick: u64,
    resident: usize,
}

impl CacheArray {
    /// Creates an empty array with the given geometry and replacement policy.
    #[must_use]
    pub fn new(geometry: CacheGeometry, policy: ReplacementPolicy) -> Self {
        let lines = geometry.lines();
        CacheArray {
            geometry,
            policy,
            tags: vec![EMPTY_TAG; lines].into_boxed_slice(),
            ways: vec![
                Way {
                    dirty: false,
                    last_use: 0,
                    inserted: 0,
                };
                lines
            ]
            .into_boxed_slice(),
            block_shift: geometry.block_size().trailing_zeros(),
            set_shift: (geometry.sets() as u64).trailing_zeros(),
            set_mask: geometry.sets() as u64 - 1,
            assoc: geometry.ways(),
            tick: 0,
            resident: 0,
        }
    }

    /// The geometry this array was built with.
    #[must_use]
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Number of blocks currently resident.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.resident
    }

    /// Splits an address into `(base way index of its set, tag)`.
    #[inline]
    fn slot(&self, addr: Addr) -> (usize, u64) {
        let block_index = addr.0 >> self.block_shift;
        let set = (block_index & self.set_mask) as usize;
        (set * self.assoc, block_index >> self.set_shift)
    }

    /// Reconstructs the block base address stored in way `index`.
    #[inline]
    fn addr_of(&self, index: usize) -> Addr {
        let set = (index / self.assoc) as u64;
        Addr(((self.tags[index] << self.set_shift) | set) << self.block_shift)
    }

    /// Scans the set's ways starting at `base`; returns the way offset
    /// holding `needle`.
    #[inline]
    fn way_holding(&self, base: usize, needle: u64) -> Option<usize> {
        self.tags[base..base + self.assoc]
            .iter()
            .position(|&t| t == needle)
    }

    /// Scans the set containing `addr`; returns the matching way index.
    #[inline]
    fn find(&self, addr: Addr) -> Option<usize> {
        let (base, tag) = self.slot(addr);
        self.way_holding(base, tag).map(|w| base + w)
    }

    /// Returns `true` if the block containing `addr` is resident, without
    /// updating recency state.
    #[must_use]
    pub fn contains(&self, addr: Addr) -> bool {
        self.find(addr).is_some()
    }

    /// Looks up the block containing `addr`; on a hit the line's recency is
    /// refreshed and a copy of its metadata is returned.
    pub fn lookup(&mut self, addr: Addr) -> Option<Line> {
        self.tick += 1;
        let index = self.find(addr)?;
        self.ways[index].last_use = self.tick;
        Some(Line {
            addr: self.addr_of(index),
            dirty: self.ways[index].dirty,
        })
    }

    /// Marks the block containing `addr` dirty if it is resident. Returns
    /// `true` if the block was found.
    pub fn mark_dirty(&mut self, addr: Addr) -> bool {
        match self.find(addr) {
            Some(index) => {
                self.ways[index].dirty = true;
                true
            }
            None => false,
        }
    }

    /// Inserts the block containing `addr` (with the given dirty state),
    /// evicting a victim chosen by the replacement policy if the set is full.
    ///
    /// If the block is already resident its dirty bit is OR-ed with `dirty`
    /// and no eviction occurs.
    pub fn fill(&mut self, addr: Addr, dirty: bool) -> Option<EvictedLine> {
        self.tick += 1;
        let tick = self.tick;
        let (base, tag) = self.slot(addr);
        debug_assert_ne!(tag, EMPTY_TAG, "tag collides with the empty sentinel");

        // Already resident: refresh and merge dirtiness.
        if let Some(w) = self.way_holding(base, tag) {
            let way = &mut self.ways[base + w];
            way.dirty |= dirty;
            way.last_use = tick;
            return None;
        }

        // Free way available.
        if let Some(w) = self.way_holding(base, EMPTY_TAG) {
            self.tags[base + w] = tag;
            self.ways[base + w] = Way {
                dirty,
                last_use: tick,
                inserted: tick,
            };
            self.resident += 1;
            return None;
        }

        // Evict a victim (streaming the way metadata keeps this hot path
        // free of temporary allocations).
        let victim_way = self.policy.choose_victim_from(
            self.ways[base..base + self.assoc]
                .iter()
                .map(|w| (w.last_use, w.inserted)),
            tick,
        );
        let index = base + victim_way;
        let victim = EvictedLine {
            addr: self.addr_of(index),
            dirty: self.ways[index].dirty,
        };
        self.tags[index] = tag;
        self.ways[index] = Way {
            dirty,
            last_use: tick,
            inserted: tick,
        };
        Some(victim)
    }

    /// Removes the block containing `addr` from the array, returning its
    /// metadata if it was resident.
    pub fn invalidate(&mut self, addr: Addr) -> Option<Line> {
        let index = self.find(addr)?;
        let line = Line {
            addr: self.addr_of(index),
            dirty: self.ways[index].dirty,
        };
        self.tags[index] = EMPTY_TAG;
        self.ways[index].dirty = false;
        self.resident -= 1;
        Some(line)
    }

    /// Returns `true` if the set that `addr` maps to has at least one empty
    /// way.
    #[must_use]
    pub fn has_free_way(&self, addr: Addr) -> bool {
        let (base, _) = self.slot(addr);
        self.way_holding(base, EMPTY_TAG).is_some()
    }

    /// Iterates over all resident lines (in no particular order).
    ///
    /// Lines are yielded by value: the flat layout stores no `Line` structs
    /// to hand out references to.
    pub fn iter(&self) -> impl Iterator<Item = Line> + '_ {
        (0..self.tags.len()).filter_map(|index| {
            (self.tags[index] != EMPTY_TAG).then(|| Line {
                addr: self.addr_of(index),
                dirty: self.ways[index].dirty,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnuca_types::ConfigError;
    use proptest::prelude::*;

    fn small_array() -> CacheArray {
        let g = CacheGeometry::new(256, 2, 32).unwrap(); // 4 sets x 2 ways
        CacheArray::new(g, ReplacementPolicy::Lru)
    }

    #[test]
    fn fill_then_lookup_hits_whole_block() {
        let mut a = small_array();
        assert!(a.fill(Addr(0x100), false).is_none());
        assert!(a.lookup(Addr(0x11F)).is_some());
        assert!(a.lookup(Addr(0x120)).is_none());
        assert_eq!(a.resident(), 1);
    }

    #[test]
    fn refilling_resident_block_does_not_duplicate() {
        let mut a = small_array();
        a.fill(Addr(0x100), false);
        a.fill(Addr(0x100), true);
        assert_eq!(a.resident(), 1);
        assert!(a.lookup(Addr(0x100)).unwrap().dirty, "dirtiness merges on refill");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut a = small_array();
        // Set index = (addr >> 5) % 4. Choose three blocks in set 0.
        let b0 = Addr(0x000);
        let b1 = Addr(0x080);
        let b2 = Addr(0x100);
        a.fill(b0, false);
        a.fill(b1, false);
        a.lookup(b0); // b1 is now LRU
        let evicted = a.fill(b2, false).expect("set is full");
        assert_eq!(evicted.addr, b1);
        assert!(a.contains(b0));
        assert!(a.contains(b2));
        assert!(!a.contains(b1));
    }

    #[test]
    fn dirty_victims_are_reported_dirty() {
        let mut a = small_array();
        a.fill(Addr(0x000), true);
        a.fill(Addr(0x080), false);
        a.lookup(Addr(0x080));
        // 0x000 is LRU and dirty.
        let evicted = a.fill(Addr(0x100), false).unwrap();
        assert_eq!(evicted.addr, Addr(0x000));
        assert!(evicted.dirty);
    }

    #[test]
    fn mark_dirty_only_affects_resident_blocks() {
        let mut a = small_array();
        assert!(!a.mark_dirty(Addr(0x40)));
        a.fill(Addr(0x40), false);
        assert!(a.mark_dirty(Addr(0x5F)));
        assert!(a.lookup(Addr(0x40)).unwrap().dirty);
    }

    #[test]
    fn invalidate_removes_block() {
        let mut a = small_array();
        a.fill(Addr(0x40), true);
        let line = a.invalidate(Addr(0x40)).unwrap();
        assert!(line.dirty);
        assert!(!a.contains(Addr(0x40)));
        assert_eq!(a.resident(), 0);
        assert!(a.invalidate(Addr(0x40)).is_none());
    }

    #[test]
    fn has_free_way_tracks_set_occupancy() {
        let mut a = small_array();
        assert!(a.has_free_way(Addr(0x000)));
        a.fill(Addr(0x000), false);
        assert!(a.has_free_way(Addr(0x000)));
        a.fill(Addr(0x080), false);
        assert!(!a.has_free_way(Addr(0x000)));
        assert!(a.has_free_way(Addr(0x020)), "other sets unaffected");
    }

    #[test]
    fn iter_visits_every_resident_line() -> Result<(), ConfigError> {
        let g = CacheGeometry::new(512, 4, 32)?;
        let mut a = CacheArray::new(g, ReplacementPolicy::Lru);
        for i in 0..8u64 {
            a.fill(Addr(i * 32), false);
        }
        assert_eq!(a.iter().count(), 8);
        Ok(())
    }

    #[test]
    fn lookup_and_iter_reconstruct_block_base_addresses() {
        let g = CacheGeometry::new(8 * 1024, 2, 32).unwrap();
        let mut a = CacheArray::new(g, ReplacementPolicy::Lru);
        let addr = Addr(0xABCD_EF13);
        a.fill(addr, true);
        let line = a.lookup(addr).expect("just filled");
        assert_eq!(line.addr, addr.block_base(32));
        assert!(line.dirty);
        let from_iter: Vec<Line> = a.iter().collect();
        assert_eq!(from_iter, vec![line]);
    }

    proptest! {
        #[test]
        fn resident_never_exceeds_capacity(addrs in proptest::collection::vec(0u64..0x4000, 0..200)) {
            let g = CacheGeometry::new(1024, 2, 32).unwrap();
            let mut a = CacheArray::new(g, ReplacementPolicy::Lru);
            for addr in addrs {
                a.fill(Addr(addr), addr % 3 == 0);
                prop_assert!(a.resident() <= a.geometry().lines());
                prop_assert_eq!(a.iter().count(), a.resident());
            }
        }

        #[test]
        fn a_filled_block_is_resident_until_evicted_or_invalidated(
            addrs in proptest::collection::vec(0u64..0x2000, 1..100),
            policy in prop::sample::select(vec![ReplacementPolicy::Lru, ReplacementPolicy::Fifo, ReplacementPolicy::Random]),
        ) {
            let g = CacheGeometry::new(1024, 4, 32).unwrap();
            let mut a = CacheArray::new(g, policy);
            for &addr in &addrs {
                let evicted = a.fill(Addr(addr), false);
                // The block just filled must be resident.
                prop_assert!(a.contains(Addr(addr)));
                // The evicted block (if any, and if distinct) must be gone.
                if let Some(e) = evicted {
                    if !e.addr.same_block(Addr(addr), 32) {
                        prop_assert!(!a.contains(e.addr));
                    }
                }
            }
        }
    }
}
