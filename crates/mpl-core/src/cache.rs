//! The fingerprint-keyed LRU result cache behind `mpl serve`.
//!
//! Keys are 64-bit content hashes of the *normalized* request (program
//! rendered from its AST plus the full configuration signature — see
//! [`crate::request::AnalysisRequest::fingerprint`]). A 64-bit hash can
//! collide, and a collision must never surface another program's answer,
//! so every entry also stores the full normalization string it was keyed
//! from (`check`): a lookup whose key matches but whose check string
//! differs is counted as a **collision** and treated as a miss — the
//! caller recomputes, and the colliding entry is overwritten. Correctness
//! therefore never depends on hash quality; only the hit rate does.
//!
//! Recency is a doubly-linked list threaded through a slot arena by
//! index, so `lookup`/`insert` are O(1) apart from the hash-map probe.
//! The cache is deliberately single-threaded (`&mut self`); the service
//! layer wraps it in a mutex and keeps the critical section to the
//! lookup/insert itself, never the analysis.

use std::collections::HashMap;

/// Index sentinel for "no slot".
const NIL: usize = usize::MAX;

/// Counters describing cache effectiveness. All deterministic given a
/// request sequence (the cache itself has no clock or randomness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found nothing under the key.
    pub misses: u64,
    /// Entries displaced to make room (capacity evictions only;
    /// collision overwrites are counted separately).
    pub evictions: u64,
    /// Lookups whose key matched but whose check string did not — the
    /// 64-bit fingerprint collided and the fallback path recomputed —
    /// and such records found beside the cache (the journal tier).
    pub collisions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries.
    pub capacity: usize,
}

#[derive(Debug)]
struct Slot {
    key: u64,
    check: String,
    body: String,
    prev: usize,
    next: usize,
}

/// A fingerprint-keyed LRU cache of rendered response bodies.
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    map: HashMap<u64, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot.
    tail: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    collisions: u64,
}

impl ResultCache {
    /// A cache holding at most `capacity` entries. Zero capacity is a
    /// valid configuration ("caching off"): every lookup misses and
    /// every insert is dropped.
    #[must_use]
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            capacity,
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            evictions: 0,
            collisions: 0,
        }
    }

    /// Looks up `key`, verifying the entry against `check`. A verified
    /// hit refreshes recency and returns the stored body; a check
    /// mismatch is the collision fallback path — counted, and reported
    /// as a miss so the caller recomputes.
    pub fn lookup(&mut self, key: u64, check: &str) -> Option<String> {
        let Some(&slot) = self.map.get(&key) else {
            self.misses += 1;
            return None;
        };
        if self.slots[slot].check != check {
            self.collisions += 1;
            self.misses += 1;
            return None;
        }
        self.hits += 1;
        self.unlink(slot);
        self.push_front(slot);
        Some(self.slots[slot].body.clone())
    }

    /// Inserts (or overwrites) the entry for `key`, evicting the least
    /// recently used entry if the cache is full.
    pub fn insert(&mut self, key: u64, check: String, body: String) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&slot) = self.map.get(&key) {
            // Same key re-inserted: refresh in place. This covers both a
            // racing double-compute of one request and a collision
            // overwrite (the latest computation wins either way).
            self.slots[slot].check = check;
            self.slots[slot].body = body;
            self.unlink(slot);
            self.push_front(slot);
            return;
        }
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "full cache has a tail");
            self.unlink(victim);
            self.map.remove(&self.slots[victim].key);
            self.free.push(victim);
            self.evictions += 1;
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Slot {
                    key,
                    check,
                    body,
                    prev: NIL,
                    next: NIL,
                };
                slot
            }
            None => {
                self.slots.push(Slot {
                    key,
                    check,
                    body,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.push_front(slot);
    }

    /// Current effectiveness counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            collisions: self.collisions,
            entries: self.map.len(),
            capacity: self.capacity,
        }
    }

    /// Maximum resident entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True when an entry is resident under `key`, whatever its check
    /// string.
    #[must_use]
    pub(crate) fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    /// Counts a collision found beside the cache: a record stored
    /// elsewhere under the key whose check string did not match.
    pub(crate) fn note_collision(&mut self) {
        self.collisions += 1;
    }

    /// Number of resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates resident entries from least- to most-recently used, as
    /// `(key, check, body)`. Re-inserting in this order into an empty
    /// cache reproduces the recency order exactly — the contract journal
    /// compaction and restart replay rely on.
    pub fn iter_lru(&self) -> impl Iterator<Item = (u64, &str, &str)> {
        let mut order = Vec::with_capacity(self.map.len());
        let mut cursor = self.tail;
        while cursor != NIL {
            order.push(cursor);
            cursor = self.slots[cursor].prev;
        }
        order.into_iter().map(|slot| {
            let s = &self.slots[slot];
            (s.key, s.check.as_str(), s.body.as_str())
        })
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        if prev == NIL {
            if self.head == slot {
                self.head = next;
            }
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            if self.tail == slot {
                self.tail = prev;
            }
        } else {
            self.slots[next].prev = prev;
        }
        self.slots[slot].prev = NIL;
        self.slots[slot].next = NIL;
    }

    fn push_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(n: u64) -> String {
        format!("check-{n}")
    }

    #[test]
    fn miss_then_hit_round_trip() {
        let mut cache = ResultCache::new(4);
        assert_eq!(cache.lookup(1, &check(1)), None);
        cache.insert(1, check(1), "body-1".to_owned());
        assert_eq!(cache.lookup(1, &check(1)), Some("body-1".to_owned()));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.collisions), (1, 1, 0, 0));
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn lru_eviction_order_respects_recency() {
        let mut cache = ResultCache::new(2);
        cache.insert(1, check(1), "b1".to_owned());
        cache.insert(2, check(2), "b2".to_owned());
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.lookup(1, &check(1)).is_some());
        cache.insert(3, check(3), "b3".to_owned());
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup(2, &check(2)).is_none(), "2 was evicted");
        assert!(cache.lookup(1, &check(1)).is_some());
        assert!(cache.lookup(3, &check(3)).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn colliding_key_falls_back_to_recompute() {
        let mut cache = ResultCache::new(4);
        cache.insert(42, "program A".to_owned(), "answer A".to_owned());
        // Same 64-bit key, different content: must NOT serve answer A.
        assert_eq!(cache.lookup(42, "program B"), None);
        assert!(cache.contains(42), "the colliding entry stays resident");
        let s = cache.stats();
        assert_eq!(s.collisions, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 0);
        // The recomputed entry overwrites the colliding one...
        cache.insert(42, "program B".to_owned(), "answer B".to_owned());
        assert_eq!(cache.lookup(42, "program B"), Some("answer B".to_owned()));
        // ...at which point the original is the one that collides.
        assert_eq!(cache.lookup(42, "program A"), None);
        assert_eq!(cache.stats().collisions, 2);
        assert_eq!(cache.len(), 1, "one body per key");
        // A collision found beside the cache counts with the others.
        cache.note_collision();
        assert_eq!(cache.stats().collisions, 3);
        assert!(!cache.contains(7));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = ResultCache::new(0);
        cache.insert(1, check(1), "b".to_owned());
        assert!(cache.is_empty());
        assert_eq!(cache.lookup(1, &check(1)), None);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn reinsert_refreshes_in_place() {
        let mut cache = ResultCache::new(2);
        cache.insert(1, check(1), "old".to_owned());
        cache.insert(2, check(2), "b2".to_owned());
        cache.insert(1, check(1), "new".to_owned());
        // 1 is now most recent; inserting 3 evicts 2.
        cache.insert(3, check(3), "b3".to_owned());
        assert_eq!(cache.lookup(1, &check(1)), Some("new".to_owned()));
        assert!(cache.lookup(2, &check(2)).is_none());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn iter_lru_reproduces_recency_order() {
        let mut cache = ResultCache::new(4);
        for k in 1..=4u64 {
            cache.insert(k, check(k), format!("b{k}"));
        }
        // Touch 2 so it becomes most recent.
        assert!(cache.lookup(2, &check(2)).is_some());
        let order: Vec<u64> = cache.iter_lru().map(|(k, _, _)| k).collect();
        assert_eq!(order, vec![1, 3, 4, 2]);
        // Re-inserting in iteration order reproduces the same recency:
        // the next eviction victim matches in both caches.
        let mut rebuilt = ResultCache::new(4);
        for (k, c, b) in cache.iter_lru() {
            rebuilt.insert(k, c.to_owned(), b.to_owned());
        }
        rebuilt.insert(9, check(9), "b9".to_owned());
        assert!(rebuilt.lookup(1, &check(1)).is_none(), "1 was the LRU");
        assert!(rebuilt.lookup(2, &check(2)).is_some());
    }

    #[test]
    fn churn_over_capacity_is_stable() {
        let mut cache = ResultCache::new(8);
        for round in 0..4u64 {
            for k in 0..32u64 {
                cache.insert(k, check(k), format!("body-{k}-{round}"));
            }
        }
        assert_eq!(cache.len(), 8);
        // The last 8 keys inserted are resident with their latest bodies.
        for k in 24..32u64 {
            assert_eq!(cache.lookup(k, &check(k)), Some(format!("body-{k}-3")));
        }
        for k in 0..24u64 {
            assert_eq!(cache.lookup(k, &check(k)), None);
        }
        let s = cache.stats();
        assert_eq!(s.entries, 8);
        assert_eq!(s.evictions, 32 * 4 - 8);
    }
}
