//! The content-addressed result cache.
//!
//! Completed `lnuca-report/v1` reports are stored under the submission's
//! **semantic plan digest** (`lnuca_sim::journal::plan_digest`): the FNV-1a
//! content address over schema, instructions, seed, resolved workloads and
//! the full configuration specs — and over nothing else, because execution
//! knobs (threads, engine, watchdogs) cannot change results.
//! Two submissions collide exactly when the engine would produce the same
//! report bytes, so a hit is served **byte-identically** without running
//! anything, and any semantic field change is a guaranteed miss.
//!
//! Eviction is deterministic LRU under a configured capacity: every
//! `get`/`insert` advances a logical tick, the entry with the smallest
//! last-use tick is evicted first, and an evicted digest is simply re-run
//! on resubmission — a stale report can never be served because the digest
//! *is* the content address of its plan.

use std::collections::HashMap;
use std::sync::Arc;

/// One cached report.
struct Entry {
    /// The rendered `lnuca-report/v1` document, byte-exact.
    report: Arc<str>,
    /// Logical time of the last hit or insertion (LRU order).
    last_used: u64,
}

/// A bounded LRU map from semantic plan digest to rendered report.
pub struct ResultCache {
    entries: HashMap<u64, Entry>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ResultCache {
    /// An empty cache holding at most `capacity` reports (clamped to at
    /// least 1 — a service with no cache at all should not construct one).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            entries: HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks `digest` up, refreshing its LRU position on a hit.
    pub fn get(&mut self, digest: u64) -> Option<Arc<str>> {
        self.tick += 1;
        match self.entries.get_mut(&digest) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.hits += 1;
                Some(Arc::clone(&entry.report))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores `report` under `digest`, evicting the least-recently-used
    /// entry when the cache is at capacity. Re-inserting an existing digest
    /// refreshes its LRU position; the stored report is replaced only by a
    /// byte-identical one in practice (runs are deterministic), so either
    /// copy is correct.
    pub fn insert(&mut self, digest: u64, report: Arc<str>) {
        self.tick += 1;
        if let Some(entry) = self.entries.get_mut(&digest) {
            entry.last_used = self.tick;
            entry.report = report;
            return;
        }
        if self.entries.len() >= self.capacity {
            // Deterministic LRU victim: the smallest last-use tick. Ticks
            // are unique (one per operation), so there is never a tie.
            if let Some(&victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(digest, _)| digest)
            {
                self.entries.remove(&victim);
                self.evictions += 1;
            }
        }
        self.entries.insert(
            digest,
            Entry {
                report,
                last_used: self.tick,
            },
        );
    }

    /// Number of cached reports.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime `(hits, misses, evictions)` counters.
    #[must_use]
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(text: &str) -> Arc<str> {
        Arc::from(text)
    }

    #[test]
    fn hit_returns_the_exact_bytes_inserted() {
        let mut cache = ResultCache::new(4);
        cache.insert(0xabc, report("{\n  \"x\": 1\n}\n"));
        let hit = cache.get(0xabc).expect("present");
        assert_eq!(&*hit, "{\n  \"x\": 1\n}\n");
        assert_eq!(cache.stats(), (1, 0, 0));
    }

    #[test]
    fn lru_eviction_is_deterministic_and_never_serves_the_victim() {
        let mut cache = ResultCache::new(2);
        cache.insert(1, report("one"));
        cache.insert(2, report("two"));
        assert!(cache.get(1).is_some(), "refresh 1 so 2 is the LRU victim");
        cache.insert(3, report("three"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(2).is_none(), "2 was least recently used");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        let (_, _, evictions) = cache.stats();
        assert_eq!(evictions, 1);
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let mut cache = ResultCache::new(0);
        cache.insert(1, report("one"));
        cache.insert(2, report("two"));
        assert_eq!(cache.len(), 1);
        assert!(cache.get(2).is_some());
    }
}
