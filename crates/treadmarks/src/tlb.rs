//! The per-processor software TLB.
//!
//! Every checked access used to take the node's global page-table lock at
//! least twice (protection check + byte copy). The software TLB removes
//! both: it caches, per page, a [`FrameRef`] (the lock-free, single-writer
//! frame handle from `pagedmem`) together with the protection epoch at
//! which the mapping was observed and whether it was writable. A hit is an
//! epoch load, this probe, the frame's protection re-check and one word
//! load or store — no lock and no atomic read-modify-write.
//!
//! A probe is valid only while the table's protection epoch is unchanged —
//! the epoch bumps on *every* protection or validity change (write-protect
//! at flush, invalidate at acquire or barrier, push installs), so a stale
//! entry can never satisfy a probe. Even if it somehow did, the access
//! path re-checks the frame's own protection before touching bytes; see
//! `DESIGN.md`, "The software TLB and why epochs are sufficient".
//!
//! The cache is two-way set associative: page id modulo [`TLB_SETS`]
//! selects a set, and within a set the insert evicts the entry observed at
//! the older epoch (a cheap, deterministic LRU proxy). Two ways matter for
//! the phase plans of the compiler interface, which warm a read section
//! and a write section in one call — with a direct-mapped cache a single
//! unlucky alignment makes the two sections evict each other on every
//! access. Conflicts still only evict — correctness never depends on an
//! entry being present.

use pagedmem::{FrameRef, PageId};

/// Total number of TLB entries per processor.
pub(crate) const TLB_SLOTS: usize = 256;

/// Associativity: entries per set.
const TLB_WAYS: usize = 2;

/// Number of sets (`page.0 % TLB_SETS` selects the set).
pub(crate) const TLB_SETS: usize = TLB_SLOTS / TLB_WAYS;

#[derive(Debug)]
struct TlbEntry {
    page: PageId,
    frame: FrameRef,
    epoch: u64,
    writable: bool,
}

/// A two-way set-associative cache of page → frame mappings, validated by
/// epoch.
#[derive(Debug)]
pub(crate) struct SoftTlb {
    sets: Vec<[Option<TlbEntry>; TLB_WAYS]>,
}

impl SoftTlb {
    pub(crate) fn new() -> SoftTlb {
        SoftTlb { sets: (0..TLB_SETS).map(|_| [None, None]).collect() }
    }

    fn set(page: PageId) -> usize {
        page.0 % TLB_SETS
    }

    /// The cached frame for `page`, provided the entry was filled at the
    /// current protection `epoch` and allows the requested access.
    #[inline]
    pub(crate) fn probe(&self, page: PageId, is_write: bool, epoch: u64) -> Option<&FrameRef> {
        self.sets[Self::set(page)].iter().find_map(|way| match way {
            Some(e) if e.page == page && e.epoch == epoch && (!is_write || e.writable) => {
                Some(&e.frame)
            }
            _ => None,
        })
    }

    /// Caches `frame` as the mapping of `page`, observed at `epoch`. An
    /// existing entry for the page is replaced in place; otherwise an empty
    /// way is used, and failing that the way filled at the older epoch is
    /// evicted (ties evict way 0, deterministically).
    pub(crate) fn insert(&mut self, page: PageId, frame: FrameRef, epoch: u64, writable: bool) {
        let set = &mut self.sets[Self::set(page)];
        let victim = set
            .iter()
            .position(|way| way.as_ref().is_some_and(|e| e.page == page))
            .or_else(|| set.iter().position(Option::is_none))
            .unwrap_or_else(|| {
                let epoch = |way: &Option<TlbEntry>| way.as_ref().map_or(0, |e| e.epoch);
                usize::from(epoch(&set[1]) < epoch(&set[0]))
            });
        set[victim] = Some(TlbEntry { page, frame, epoch, writable });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagedmem::{PageFrame, Protection};
    use std::sync::Arc;

    fn frame() -> FrameRef {
        Arc::new(PageFrame::new(Protection::ReadOnly))
    }

    #[test]
    fn probe_hits_only_at_the_fill_epoch() {
        let mut tlb = SoftTlb::new();
        tlb.insert(PageId(3), frame(), 7, false);
        assert!(tlb.probe(PageId(3), false, 7).is_some());
        assert!(tlb.probe(PageId(3), false, 8).is_none(), "stale epoch must miss");
        assert!(tlb.probe(PageId(3), true, 7).is_none(), "read entry must not allow writes");
        assert!(tlb.probe(PageId(4), false, 7).is_none());
    }

    #[test]
    fn writable_entries_serve_reads_and_writes() {
        let mut tlb = SoftTlb::new();
        tlb.insert(PageId(1), frame(), 1, true);
        assert!(tlb.probe(PageId(1), false, 1).is_some());
        assert!(tlb.probe(PageId(1), true, 1).is_some());
    }

    #[test]
    fn two_conflicting_pages_coexist_in_one_set() {
        // The warm-list case that motivated the associativity: a read
        // section and a write section whose pages alias the same set.
        let mut tlb = SoftTlb::new();
        tlb.insert(PageId(5), frame(), 1, false);
        tlb.insert(PageId(5 + TLB_SETS), frame(), 1, true);
        assert!(tlb.probe(PageId(5), false, 1).is_some(), "two ways must hold both");
        assert!(tlb.probe(PageId(5 + TLB_SETS), true, 1).is_some());
    }

    #[test]
    fn a_third_conflicting_page_evicts_the_oldest_epoch() {
        let mut tlb = SoftTlb::new();
        tlb.insert(PageId(5), frame(), 1, false);
        tlb.insert(PageId(5 + TLB_SETS), frame(), 3, false);
        tlb.insert(PageId(5 + 2 * TLB_SETS), frame(), 3, false);
        assert!(tlb.probe(PageId(5), false, 1).is_none(), "the epoch-1 entry is the victim");
        assert!(tlb.probe(PageId(5 + TLB_SETS), false, 3).is_some());
        assert!(tlb.probe(PageId(5 + 2 * TLB_SETS), false, 3).is_some());
    }

    #[test]
    fn reinserting_a_cached_page_replaces_in_place() {
        let mut tlb = SoftTlb::new();
        tlb.insert(PageId(9), frame(), 1, false);
        tlb.insert(PageId(9 + TLB_SETS), frame(), 1, false);
        // Upgrade page 9 to writable at a newer epoch: the set's other way
        // must survive.
        tlb.insert(PageId(9), frame(), 2, true);
        assert!(tlb.probe(PageId(9), true, 2).is_some());
        assert!(tlb.probe(PageId(9 + TLB_SETS), false, 1).is_some());
    }
}
