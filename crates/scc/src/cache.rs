//! L1 cache model for MPBT-typed data, and the write-combining buffer.
//!
//! The SCC has no cache coherence: a core that cached an MPB line keeps
//! serving the *stale* copy until it executes `CL1INVMB`. This model keeps
//! real (possibly stale) line copies so that protocol code must perform the
//! same invalidations the RCCE sources perform on hardware — forgetting one
//! produces wrong data in tests, exactly like on the machine.
//!
//! Policy, per the EAS: MPBT lines are cacheable in L1 only, write-through,
//! no write-allocate; a one-line write-combining buffer (WCB) merges
//! consecutive stores to the same 32 B line.

use std::cell::RefCell;
use std::collections::HashMap;

use des::hash::FxBuildHasher;
use des::stats::Counter;

use crate::geometry::GlobalCore;
use crate::LINE_BYTES;

/// Identifies one 32 B line in the system: (owning core's region, line idx).
pub type LineKey = (GlobalCore, u16);

/// Per-core L1 model for MPBT lines. The line map is keyed with the
/// deterministic [`FxBuildHasher`]: every cached load looks a line up,
/// and nothing iterates the map, so the hasher changes no behaviour.
#[derive(Default)]
pub struct L1Model {
    lines: RefCell<HashMap<LineKey, [u8; LINE_BYTES], FxBuildHasher>>,
    hits: Counter,
    misses: Counter,
    invalidations: Counter,
}

impl L1Model {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a line; `Some` returns the cached (possibly stale) copy.
    pub fn lookup(&self, key: LineKey) -> Option<[u8; LINE_BYTES]> {
        let hit = self.lines.borrow().get(&key).copied();
        if hit.is_some() {
            self.hits.inc();
        } else {
            self.misses.inc();
        }
        hit
    }

    /// Install a line after a miss fill.
    pub fn fill(&self, key: LineKey, data: [u8; LINE_BYTES]) {
        self.lines.borrow_mut().insert(key, data);
    }

    /// Write-through store: update the cached copy if (and only if) the
    /// line is already present — no write-allocate.
    pub fn write_through(&self, key: LineKey, offset_in_line: usize, bytes: &[u8]) {
        if let Some(line) = self.lines.borrow_mut().get_mut(&key) {
            line[offset_in_line..offset_in_line + bytes.len()].copy_from_slice(bytes);
        }
    }

    /// `CL1INVMB`: drop every MPBT line.
    pub fn invalidate_all(&self) {
        self.lines.borrow_mut().clear();
        self.invalidations.inc();
    }

    /// Drop the lines covering `[offset, offset+len)` of `owner`'s region
    /// (selective invalidation used by the host software cache protocol).
    pub fn invalidate_range(&self, owner: GlobalCore, offset: u16, len: usize) {
        let first = offset / LINE_BYTES as u16;
        let last = ((offset as usize + len).div_ceil(LINE_BYTES).max(1) - 1) as u16;
        let mut lines = self.lines.borrow_mut();
        for l in first..=last {
            lines.remove(&(owner, l));
        }
    }

    /// (hits, misses, invalidations) so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits.get(), self.misses.get(), self.invalidations.get())
    }

    /// Number of resident lines.
    pub fn resident(&self) -> usize {
        self.lines.borrow().len()
    }
}

/// One-line write-combining buffer.
///
/// Counts how many *transactions* a sequence of stores costs: stores to the
/// line currently held merge for free; touching a different line flushes.
/// This is the mechanism the paper exploits to program the vDMA controller's
/// three registers with a single fused 32 B write (§3.3, Fig. 5).
#[derive(Default)]
pub struct Wcb {
    current: RefCell<Option<LineKey>>,
    transactions: Counter,
    merged: Counter,
}

impl Wcb {
    /// Empty WCB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a store to `key`; returns `true` if it merged into the
    /// pending line (no new transaction).
    pub fn store(&self, key: LineKey) -> bool {
        let mut cur = self.current.borrow_mut();
        if *cur == Some(key) {
            self.merged.inc();
            true
        } else {
            *cur = Some(key);
            self.transactions.inc();
            false
        }
    }

    /// Record a store spanning `n` consecutive lines starting at `key`;
    /// returns the number of transactions issued.
    pub fn store_span(&self, key: LineKey, n: u16) -> u64 {
        let mut tx = 0;
        for i in 0..n {
            if !self.store((key.0, key.1 + i)) {
                tx += 1;
            }
        }
        tx
    }

    /// Explicit flush (e.g. before a synchronizing flag write).
    pub fn flush(&self) {
        *self.current.borrow_mut() = None;
    }

    /// (transactions, merged stores) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.transactions.get(), self.merged.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(core: u8, line: u16) -> LineKey {
        (GlobalCore::new(0, core), line)
    }

    #[test]
    fn miss_then_hit() {
        let l1 = L1Model::new();
        assert!(l1.lookup(key(0, 1)).is_none());
        l1.fill(key(0, 1), [7; LINE_BYTES]);
        assert_eq!(l1.lookup(key(0, 1)), Some([7; LINE_BYTES]));
        let (h, m, _) = l1.stats();
        assert_eq!((h, m), (1, 1));
    }

    #[test]
    fn stale_copy_served_until_invalidated() {
        let l1 = L1Model::new();
        l1.fill(key(0, 0), [1; LINE_BYTES]);
        // Memory changed underneath (another core wrote) — cache is stale.
        assert_eq!(l1.lookup(key(0, 0)), Some([1; LINE_BYTES]));
        l1.invalidate_all();
        assert!(l1.lookup(key(0, 0)).is_none());
    }

    #[test]
    fn write_through_updates_only_present_lines() {
        let l1 = L1Model::new();
        l1.write_through(key(0, 2), 0, &[9, 9]); // absent: no allocate
        assert!(l1.lookup(key(0, 2)).is_none());
        l1.fill(key(0, 2), [0; LINE_BYTES]);
        l1.write_through(key(0, 2), 4, &[5]);
        let line = l1.lookup(key(0, 2)).unwrap();
        assert_eq!(line[4], 5);
    }

    #[test]
    fn invalidate_range_is_selective() {
        let l1 = L1Model::new();
        let owner = GlobalCore::new(0, 3);
        for line in 0..4u16 {
            l1.fill((owner, line), [line as u8; LINE_BYTES]);
        }
        // Invalidate bytes [32, 96): lines 1 and 2.
        l1.invalidate_range(owner, 32, 64);
        assert!(l1.lookup((owner, 0)).is_some());
        assert!(l1.lookup((owner, 1)).is_none());
        assert!(l1.lookup((owner, 2)).is_none());
        assert!(l1.lookup((owner, 3)).is_some());
    }

    #[test]
    fn wcb_merges_same_line() {
        let w = Wcb::new();
        assert!(!w.store(key(0, 5))); // new transaction
        assert!(w.store(key(0, 5))); // merged
        assert!(w.store(key(0, 5))); // merged
        assert!(!w.store(key(0, 6))); // different line: flush + new
        assert_eq!(w.stats(), (2, 2));
    }

    #[test]
    fn wcb_flush_forces_new_transaction() {
        let w = Wcb::new();
        w.store(key(0, 1));
        w.flush();
        assert!(!w.store(key(0, 1)));
        assert_eq!(w.stats().0, 2);
    }

    #[test]
    fn wcb_span_counts_transactions() {
        let w = Wcb::new();
        assert_eq!(w.store_span(key(0, 0), 4), 4);
        // Re-storing the last line merges.
        assert_eq!(w.store_span(key(0, 3), 1), 0);
    }
}
