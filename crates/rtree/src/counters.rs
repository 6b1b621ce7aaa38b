//! Unified node-access accounting.
//!
//! The paper's I/O metric started as a single cumulative counter, then
//! grew ad-hoc companions: the batched descent's *unique* physical
//! visits were tallied by callers by hand, and the out-of-core backend
//! needed a third number — real page faults. [`IoCounters`] replaces the
//! scattered `AtomicU64`s with one structure holding all three, each
//! addressed by an [`IoKind`]:
//!
//! * [`IoKind::Logical`] — per-query node accesses as K independent
//!   scalar descents would report them (the paper's §VI metric; what
//!   [`crate::RTree::io_count`] has always returned).
//! * [`IoKind::Unique`] — distinct node visits the grouped descent
//!   actually performed (a node shared by several windows of a batch
//!   counts once).
//! * [`IoKind::Physical`] — page-cache faults: reads that went to the
//!   page file instead of the buffer pool. Always zero for the all-in-RAM
//!   backend.
//!
//! Counters are atomics so a read-only tree can be shared across
//! threads; queries take `&self` yet still tally.

use std::sync::atomic::{AtomicU64, Ordering};

/// Which node-access counter a read accounts against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoKind {
    /// Per-window logical node accesses (the paper's §VI metric).
    Logical,
    /// Distinct node visits of a grouped descent.
    Unique,
    /// Real page-file reads (out-of-core backend only).
    Physical,
}

/// Plain-value snapshot of the three counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Cumulative logical node accesses.
    pub logical: u64,
    /// Cumulative unique (physical-visit) node accesses.
    pub unique: u64,
    /// Cumulative page faults.
    pub physical: u64,
}

/// Cumulative node-access counters, shared-readable across threads.
///
/// Every query of every thread *writes* these, and the structs that hold
/// them (`RTree`, the paged index) keep right next to them the fields
/// every query *reads* first — slab pointer, root, pager handle. On a
/// cache line of their own the counters cannot false-share with those.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct IoCounters {
    logical: AtomicU64,
    unique: AtomicU64,
    physical: AtomicU64,
}

impl IoCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    fn cell(&self, kind: IoKind) -> &AtomicU64 {
        match kind {
            IoKind::Logical => &self.logical,
            IoKind::Unique => &self.unique,
            IoKind::Physical => &self.physical,
        }
    }

    /// Adds `n` accesses of the given kind.
    pub fn add(&self, kind: IoKind, n: u64) {
        self.cell(kind).fetch_add(n, Ordering::Relaxed);
    }

    /// Reads one counter.
    pub fn get(&self, kind: IoKind) -> u64 {
        self.cell(kind).load(Ordering::Relaxed)
    }

    /// Reads all three counters at once (each individually `Relaxed`).
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            logical: self.logical.load(Ordering::Relaxed),
            unique: self.unique.load(Ordering::Relaxed),
            physical: self.physical.load(Ordering::Relaxed),
        }
    }

    /// Zeroes all three counters.
    pub fn reset(&self) {
        self.logical.store(0, Ordering::Relaxed);
        self.unique.store(0, Ordering::Relaxed);
        self.physical.store(0, Ordering::Relaxed);
    }
}

impl Clone for IoCounters {
    fn clone(&self) -> Self {
        let s = self.snapshot();
        Self {
            logical: AtomicU64::new(s.logical),
            unique: AtomicU64::new(s.unique),
            physical: AtomicU64::new(s.physical),
        }
    }
}

const _: () = assert!(std::mem::align_of::<IoCounters>() == 64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_independent() {
        let c = IoCounters::new();
        c.add(IoKind::Logical, 5);
        c.add(IoKind::Unique, 3);
        c.add(IoKind::Physical, 1);
        c.add(IoKind::Logical, 2);
        assert_eq!(c.get(IoKind::Logical), 7);
        assert_eq!(c.get(IoKind::Unique), 3);
        assert_eq!(c.get(IoKind::Physical), 1);
        assert_eq!(
            c.snapshot(),
            IoSnapshot {
                logical: 7,
                unique: 3,
                physical: 1
            }
        );
        c.reset();
        assert_eq!(c.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn clone_carries_values() {
        let c = IoCounters::new();
        c.add(IoKind::Unique, 9);
        let d = c.clone();
        c.add(IoKind::Unique, 1);
        assert_eq!(d.get(IoKind::Unique), 9);
        assert_eq!(c.get(IoKind::Unique), 10);
    }
}
