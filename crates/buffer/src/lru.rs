//! A plain least-recently-used cache — the §VII-E naive system's caching
//! policy ("we also use a simple Least Recently Used (LRU) scheme").

use mar_store::RecencyIndex;
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// A capacity-bounded LRU map.
///
/// Recency lives in the workspace-shared [`RecencyIndex`] (unique
/// monotone stamps over a `BTreeMap`), so eviction order is a pure
/// function of the call sequence and the victim pops off the index in
/// O(log n) instead of a full-map stamp scan.
#[derive(Debug, Clone)]
pub struct LruCache<K, V> {
    capacity: usize,
    map: BTreeMap<K, (u64, V)>,
    recency: RecencyIndex<K>,
    hits: u64,
    lookups: u64,
}

impl<K: Ord + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        Self {
            capacity,
            map: BTreeMap::new(),
            recency: RecencyIndex::new(),
            hits: 0,
            lookups: 0,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `k`, refreshing its recency on a hit.
    pub fn get<Q>(&mut self, k: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.lookups += 1;
        // The clock advances on misses too, matching the original
        // recency-counter behaviour stamp for stamp.
        let stamp = self.recency.tick();
        match self.map.remove_entry(k) {
            Some((key, (old, v))) => {
                self.recency.remove(old);
                self.recency.insert(stamp, key.clone());
                self.hits += 1;
                let slot = self.map.entry(key).or_insert((stamp, v));
                Some(&slot.1)
            }
            None => None,
        }
    }

    /// Inserts `k → v`, evicting the least recently used entry if full.
    pub fn put(&mut self, k: K, v: V) {
        let stamp = self.recency.tick();
        match self.map.get(&k) {
            Some((old, _)) => {
                self.recency.remove(*old);
            }
            None => {
                if self.map.len() == self.capacity {
                    if let Some((_, victim)) = self.recency.pop_lru() {
                        self.map.remove(&victim);
                    }
                }
            }
        }
        self.recency.insert(stamp, k.clone());
        self.map.insert(k, (stamp, v));
    }

    /// Hit rate over all `get` calls so far (1.0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            1.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_and_put_round_trip() {
        let mut c = LruCache::new(2);
        c.put("a", 1);
        assert_eq!(c.get("a"), Some(&1));
        assert_eq!(c.get("b"), None);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.put("a", 1);
        c.put("b", 2);
        c.get("a"); // refresh a; b is now LRU
        c.put("c", 3);
        assert!(c.map.contains_key("a"));
        assert!(!c.map.contains_key("b"));
        assert!(c.map.contains_key("c"));
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let mut c = LruCache::new(2);
        c.put("a", 1);
        c.put("b", 2);
        c.put("a", 10);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get("a"), Some(&10));
    }

    #[test]
    fn reinsert_refreshes_recency() {
        let mut c = LruCache::new(2);
        c.put("a", 1);
        c.put("b", 2);
        c.put("a", 10); // "a" is now the most recent entry
        c.put("c", 3); // so "b" is the victim
        assert!(c.map.contains_key("a"));
        assert!(!c.map.contains_key("b"));
        assert!(c.map.contains_key("c"));
    }

    #[test]
    fn hit_rate_accounting() {
        let mut c = LruCache::new(4);
        c.put("x", 0);
        c.get("x");
        c.get("y");
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_one() {
        let mut c = LruCache::new(1);
        c.put(1, "one");
        c.put(2, "two");
        assert!(!c.map.contains_key(&1));
        assert!(c.map.contains_key(&2));
    }
}
