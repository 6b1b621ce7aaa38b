//! The one deterministic recency structure shared by every cache in the
//! workspace.
//!
//! A [`RecencyIndex`] is a monotone logical clock plus a `BTreeMap` from
//! *unique* recency stamps to keys. Because every stamp is handed out
//! exactly once, "least recently used" is a total order and a pure
//! function of the operation sequence — no wall clocks, no hashing, no
//! ties. `mar_buffer::LruCache` and `mar_buffer::BlockCache` keep their
//! stamp→key side index here instead of hand-rolling two copies.

use std::collections::BTreeMap;

/// Deterministic stamp→key recency index with a monotone logical clock.
///
/// The index only tracks recency; callers own the key→value map and the
/// key→stamp back-pointers. The invariant callers must keep is that each
/// live key appears under exactly one stamp (remove the old stamp before
/// inserting a refreshed one — or use [`RecencyIndex::touch`]).
#[derive(Debug, Clone, Default)]
pub struct RecencyIndex<K> {
    clock: u64,
    stamps: BTreeMap<u64, K>,
}

impl<K: Ord + Clone> RecencyIndex<K> {
    /// Creates an empty index with the clock at zero.
    pub fn new() -> Self {
        Self {
            clock: 0,
            stamps: BTreeMap::new(),
        }
    }

    /// Advances the logical clock and returns the fresh (unique) stamp.
    pub fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Current clock value (the most recently issued stamp).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Records `key` under `stamp`. The stamp must come from [`tick`]
    /// (uniqueness is the caller's side of the invariant).
    ///
    /// [`tick`]: RecencyIndex::tick
    pub fn insert(&mut self, stamp: u64, key: K) {
        self.stamps.insert(stamp, key);
    }

    /// Drops the entry recorded under `stamp`, if any.
    pub fn remove(&mut self, stamp: u64) -> Option<K> {
        self.stamps.remove(&stamp)
    }

    /// Refreshes `key` from `old_stamp` to a fresh stamp, returning it.
    pub fn touch(&mut self, old_stamp: u64, key: K) -> u64 {
        self.stamps.remove(&old_stamp);
        let stamp = self.tick();
        self.stamps.insert(stamp, key.clone());
        stamp
    }

    /// Removes and returns the least recently stamped entry.
    pub fn pop_lru(&mut self) -> Option<(u64, K)> {
        self.stamps.pop_first()
    }

    /// The least recently stamped entry, without removing it.
    pub fn peek_lru(&self) -> Option<(u64, &K)> {
        self.stamps.first_key_value().map(|(s, k)| (*s, k))
    }

    /// Tracked entries.
    pub fn len(&self) -> usize {
        self.stamps.len()
    }

    /// True when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }

    /// Keeps only entries whose key satisfies `pred`. The clock is left
    /// untouched so surviving stamps keep their relative order.
    pub fn retain(&mut self, mut pred: impl FnMut(&K) -> bool) {
        self.stamps.retain(|_, k| pred(k));
    }

    /// Iterates entries in stamp (least→most recent) order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &K)> {
        self.stamps.iter().map(|(s, k)| (*s, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_order_follows_stamps() {
        let mut r: RecencyIndex<u32> = RecencyIndex::new();
        for key in [10u32, 20, 30] {
            let s = r.tick();
            r.insert(s, key);
        }
        assert_eq!(r.pop_lru(), Some((1, 10)));
        assert_eq!(r.pop_lru(), Some((2, 20)));
        assert_eq!(r.peek_lru(), Some((3, &30)));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn touch_moves_to_back() {
        let mut r: RecencyIndex<u32> = RecencyIndex::new();
        let s1 = r.tick();
        r.insert(s1, 10);
        let s2 = r.tick();
        r.insert(s2, 20);
        let s1b = r.touch(s1, 10);
        assert!(s1b > s2);
        assert_eq!(r.pop_lru(), Some((s2, 20)));
        assert_eq!(r.pop_lru(), Some((s1b, 10)));
    }

    #[test]
    fn retain_preserves_relative_order() {
        let mut r: RecencyIndex<u32> = RecencyIndex::new();
        for key in [1u32, 2, 3, 4] {
            let s = r.tick();
            r.insert(s, key);
        }
        r.retain(|k| k % 2 == 0);
        let keys: Vec<u32> = r.iter().map(|(_, k)| *k).collect();
        assert_eq!(keys, vec![2, 4]);
        assert_eq!(r.clock(), 4, "clock untouched by retain");
    }
}
