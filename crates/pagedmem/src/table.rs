//! Per-node page tables.
//!
//! The table is the node's page-id → frame map, guarded by the **table
//! lock** (taken by whoever owns the `PageTable`, typically a node-level
//! mutex). Each mapped page has an entry holding its [`PageFrame`] (live
//! bytes and protection) and the protocol bookkeeping only the table lock
//! guards: the twin and the dirty flag.
//!
//! Frames themselves take no lock. Only the owning node's compute thread
//! writes a frame, and every other reader (the node's protocol server,
//! shipping a whole page) reads it under the table lock; see
//! [`PageFrame`] for why relaxed word loads and stores are enough.
//!
//! A [`FrameRef`] is a shared handle onto one frame. Frame handles are
//! stable: once a page is mapped, its `Arc` identity never changes (
//! [`install`](PageTable::install) and [`map_zeroed`](PageTable::map_zeroed)
//! mutate the existing frame in place), so a cached handle always observes
//! the frame's *current* protection. That is what makes a software TLB above
//! this table sound: a cached mapping can be used without the table lock,
//! because the frame's protection re-check still sees every downgrade.
//!
//! The table additionally maintains a monotone **protection epoch**: a
//! counter bumped on every protection or validity change (mapping a page,
//! installing a copy, any `set_protection` that changes the state, or an
//! explicit [`bump_epoch`](PageTable::bump_epoch)). The epoch is readable
//! *without* the table lock through an [`EpochProbe`], which is how cached
//! mappings are cheaply revalidated.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::{
    Addr, AddrRange, Diff, FrameRef, MemError, Page, PageFrame, PageId, Protection, PAGE_SIZE,
};

/// One mapped page: its frame plus the bookkeeping guarded by the table
/// lock.
#[derive(Debug)]
struct Entry {
    frame: FrameRef,
    /// Twin saved when the page became writable (absent when twinning was
    /// bypassed via `WRITE_ALL`).
    twin: Option<Page>,
    /// Whether the page has been write-enabled since the last flush; dirty
    /// pages are diffed at release/barrier time.
    dirty: bool,
}

impl Entry {
    fn new(protection: Protection) -> Entry {
        Entry { frame: Arc::new(PageFrame::new(protection)), twin: None, dirty: false }
    }

    /// Applies a remote diff to the frame and, if the page has one, to the
    /// twin: the twin records the pre-*local*-modification state, so remote
    /// diffs must land there too or they would be re-reported as local
    /// writes.
    fn apply(&mut self, diff: &Diff) -> Result<(), MemError> {
        diff.apply_to_frame(&self.frame);
        if let Some(twin) = self.twin.as_mut() {
            diff.apply(twin.as_mut_slice())?;
        }
        Ok(())
    }
}

/// The result of checking whether an access may proceed without a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The access can proceed.
    Hit,
    /// The node has never mapped the page; a whole copy must be fetched.
    Unmapped,
    /// The local copy was invalidated; missing diffs must be fetched.
    Invalid,
    /// The page is valid but write-protected and the access is a write.
    WriteProtected,
}

impl AccessOutcome {
    /// The outcome of an access against a page in state `protection`.
    pub fn of(protection: Protection, is_write: bool) -> AccessOutcome {
        match protection {
            Protection::Unmapped => AccessOutcome::Unmapped,
            Protection::Invalid => AccessOutcome::Invalid,
            Protection::ReadOnly if is_write => AccessOutcome::WriteProtected,
            Protection::ReadOnly | Protection::ReadWrite => AccessOutcome::Hit,
        }
    }

    /// Whether the access faults.
    pub fn is_fault(self) -> bool {
        self != AccessOutcome::Hit
    }
}

/// A fault found by one of the checked bulk accessors: the first page of the
/// range that does not allow the access, and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessFault {
    /// The faulting page.
    pub page: PageId,
    /// Why the access cannot proceed.
    pub outcome: AccessOutcome,
}

/// A lock-free view of a table's protection epoch.
///
/// Cloned from [`PageTable::epoch_probe`]; [`current`](EpochProbe::current)
/// never takes the table lock, which is what lets a software TLB revalidate
/// cached mappings on the fast path.
#[derive(Debug, Clone)]
pub struct EpochProbe {
    epoch: Arc<AtomicU64>,
}

impl EpochProbe {
    /// The table's current protection epoch.
    #[inline]
    pub fn current(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

/// A node's view of the shared address space.
///
/// The page table stores only pages the node has touched; pages materialise
/// lazily, zero-filled, mirroring anonymous virtual memory. All bookkeeping
/// needed by the DSM protocol (protection changes, twinning, diffing, the
/// dirty list) lives here; *when* those operations happen is decided by the
/// runtime crates.
#[derive(Debug, Default)]
pub struct PageTable {
    frames: BTreeMap<PageId, Entry>,
    epoch: Arc<AtomicU64>,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> PageTable {
        PageTable::default()
    }

    /// Number of pages currently mapped (the "pages in use" quantity the
    /// SP/2 fault and mprotect costs depend on).
    pub fn pages_in_use(&self) -> usize {
        self.frames.len()
    }

    /// The current protection epoch. Monotone; bumped on every protection or
    /// validity change.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// A handle that reads the protection epoch without the table lock.
    pub fn epoch_probe(&self) -> EpochProbe {
        EpochProbe { epoch: Arc::clone(&self.epoch) }
    }

    /// Advances the protection epoch, invalidating every cached mapping.
    ///
    /// Called internally on protection changes; exposed for operations that
    /// replace page contents wholesale outside the protection machinery
    /// (e.g. a push installing received data).
    pub fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// The protection state of `page` (`Unmapped` if the node never touched
    /// it).
    pub fn protection(&self, page: PageId) -> Protection {
        self.frames.get(&page).map_or(Protection::Unmapped, |e| e.frame.protection())
    }

    /// Checks whether an access may proceed without a fault.
    pub fn check_access(&self, page: PageId, is_write: bool) -> AccessOutcome {
        AccessOutcome::of(self.protection(page), is_write)
    }

    /// The entry of `page`, mapping it zero-filled with `protection` (and
    /// bumping the epoch) if the node never touched it.
    fn entry_or_map(&mut self, page: PageId, protection: Protection) -> &mut Entry {
        let epoch = &self.epoch;
        self.frames.entry(page).or_insert_with(|| {
            epoch.fetch_add(1, Ordering::Release);
            Entry::new(protection)
        })
    }

    /// Maps `page` zero-filled with the given protection. An existing frame
    /// is reset in place (contents zeroed, twin dropped, dirty cleared) so
    /// that outstanding [`FrameRef`]s keep observing the live frame.
    pub fn map_zeroed(&mut self, page: PageId, protection: Protection) -> FrameRef {
        let entry = self.entry_or_map(page, protection);
        entry.frame.zero();
        entry.frame.set_protection(protection);
        entry.twin = None;
        entry.dirty = false;
        let frame = Arc::clone(&entry.frame);
        self.bump_epoch();
        frame
    }

    /// Installs a received copy of `page` with the given protection.
    pub fn install(&mut self, page: PageId, contents: Page, protection: Protection) {
        let entry = self.entry_or_map(page, protection);
        entry.frame.write(0, contents.as_slice());
        entry.frame.set_protection(protection);
        entry.twin = None;
        entry.dirty = false;
        self.bump_epoch();
    }

    /// Returns the frame for `page`, mapping it zero-filled read-write if the
    /// node never touched it (used by the node that "owns" the initial data).
    pub fn frame_or_map(&mut self, page: PageId) -> FrameRef {
        Arc::clone(&self.entry_or_map(page, Protection::ReadWrite).frame)
    }

    /// Returns the frame for `page`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Unmapped`] if the page is not mapped.
    pub fn frame(&self, page: PageId) -> Result<FrameRef, MemError> {
        self.frames.get(&page).map(|e| Arc::clone(&e.frame)).ok_or(MemError::Unmapped(page))
    }

    /// Whether `page` is mapped at all.
    pub fn is_mapped(&self, page: PageId) -> bool {
        self.frames.contains_key(&page)
    }

    /// Sets the protection of `page`, mapping it zero-filled if necessary.
    /// The epoch is bumped only when the state actually changes.
    pub fn set_protection(&mut self, page: PageId, protection: Protection) {
        let frame = &self.entry_or_map(page, protection).frame;
        if frame.protection() != protection {
            frame.set_protection(protection);
            self.bump_epoch();
        }
    }

    /// Marks `page` dirty and returns whether it was already dirty.
    pub fn mark_dirty(&mut self, page: PageId) -> bool {
        std::mem::replace(&mut self.entry_or_map(page, Protection::ReadWrite).dirty, true)
    }

    /// Whether `page` is on the dirty list.
    pub fn is_dirty(&self, page: PageId) -> bool {
        self.frames.get(&page).is_some_and(|e| e.dirty)
    }

    /// The pages currently on the dirty list, in address order.
    pub fn dirty_pages(&self) -> Vec<PageId> {
        self.frames.iter().filter(|(_, e)| e.dirty).map(|(&id, _)| id).collect()
    }

    /// Clears the dirty flag of `page`.
    pub fn clear_dirty(&mut self, page: PageId) {
        if let Some(entry) = self.frames.get_mut(&page) {
            entry.dirty = false;
        }
    }

    /// Creates a twin (pre-modification copy) for `page` if it does not have
    /// one. Returns whether a twin was created.
    pub fn make_twin(&mut self, page: PageId) -> bool {
        let entry = self.entry_or_map(page, Protection::ReadWrite);
        if entry.twin.is_none() {
            entry.twin = Some(entry.frame.to_page());
            true
        } else {
            false
        }
    }

    /// Whether `page` currently has a twin.
    pub fn has_twin(&self, page: PageId) -> bool {
        self.frames.get(&page).is_some_and(|e| e.twin.is_some())
    }

    /// Discards the twin of `page`, if any.
    pub fn drop_twin(&mut self, page: PageId) {
        if let Some(entry) = self.frames.get_mut(&page) {
            entry.twin = None;
        }
    }

    /// Encodes the modifications made to `page` since its twin was created.
    ///
    /// Returns `None` if the page has no twin (nothing was recorded). The twin
    /// is left in place; callers decide when to retire it.
    pub fn create_diff(&self, page: PageId) -> Option<Diff> {
        let entry = self.frames.get(&page)?;
        let twin = entry.twin.as_ref()?;
        Some(Diff::create_from_frame(twin.as_slice(), &entry.frame))
    }

    /// Applies `diff` to the local copy of `page` (and to its twin, if it
    /// has one), mapping it zero-filled if the node never touched it.
    ///
    /// # Errors
    ///
    /// Propagates [`MemError`] from the diff application.
    pub fn apply_diff(&mut self, page: PageId, diff: &Diff) -> Result<(), MemError> {
        self.entry_or_map(page, Protection::ReadWrite).apply(diff)
    }

    /// Applies a batch of diffs with **one entry resolution per page-run**:
    /// consecutive records for the same page reuse the entry instead of
    /// re-walking the table per record. This is the bulk entry point the
    /// runtime's synchronization-point batching builds on — all diffs
    /// collected at one barrier or lock acquire are applied in a single
    /// pass. Callers are expected to pre-sort the batch (same-page records
    /// adjacent, causal order within a page); the method applies records
    /// exactly in the order given.
    ///
    /// # Errors
    ///
    /// Propagates the first [`MemError`] from a diff application; records
    /// before the failing one remain applied.
    pub fn apply_diff_batch<'a, I>(&mut self, records: I) -> Result<(), MemError>
    where
        I: IntoIterator<Item = (PageId, &'a Diff)>,
    {
        let mut run: Option<(PageId, &mut Entry)> = None;
        for (page, diff) in records {
            if run.as_ref().is_none_or(|(current, _)| *current != page) {
                run = Some((page, self.entry_or_map(page, Protection::ReadWrite)));
            }
            let (_, entry) = run.as_mut().expect("the run was resolved above");
            entry.apply(diff)?;
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes starting at `addr` into `buf`.
    ///
    /// The caller is responsible for having resolved faults first; unmapped
    /// pages read as zero.
    pub fn read_bytes(&self, addr: Addr, buf: &mut [u8]) {
        let mut cursor = addr;
        let mut filled = 0;
        while filled < buf.len() {
            let offset = cursor.page_offset();
            let chunk = (PAGE_SIZE - offset).min(buf.len() - filled);
            let out = &mut buf[filled..filled + chunk];
            match self.frames.get(&cursor.page()) {
                Some(entry) => entry.frame.read(offset, out),
                None => out.fill(0),
            }
            filled += chunk;
            cursor = cursor.offset(chunk);
        }
    }

    /// Writes `data` starting at `addr`, mapping pages as needed.
    pub fn write_bytes(&mut self, addr: Addr, data: &[u8]) {
        let mut cursor = addr;
        let mut written = 0;
        while written < data.len() {
            let offset = cursor.page_offset();
            let chunk = (PAGE_SIZE - offset).min(data.len() - written);
            let entry = self.entry_or_map(cursor.page(), Protection::ReadWrite);
            entry.frame.write(offset, &data[written..written + chunk]);
            written += chunk;
            cursor = cursor.offset(chunk);
        }
    }

    /// Installs remotely produced `data` starting at `addr`: like
    /// [`write_bytes`](Self::write_bytes), but mirrored into each page's
    /// twin (if one exists), exactly as [`apply_diff_batch`](Self::apply_diff_batch)
    /// mirrors applied diffs. An install moves data, not local
    /// modifications, so installed bytes must never show up in a later
    /// twin-vs-page diff as the receiver's own writes.
    pub fn install_bytes(&mut self, addr: Addr, data: &[u8]) {
        let mut cursor = addr;
        let mut written = 0;
        while written < data.len() {
            let offset = cursor.page_offset();
            let chunk = (PAGE_SIZE - offset).min(data.len() - written);
            let bytes = &data[written..written + chunk];
            let entry = self.entry_or_map(cursor.page(), Protection::ReadWrite);
            entry.frame.write(offset, bytes);
            if let Some(twin) = entry.twin.as_mut() {
                twin.as_mut_slice()[offset..offset + chunk].copy_from_slice(bytes);
            }
            written += chunk;
            cursor = cursor.offset(chunk);
        }
    }

    /// Reads `range` into `buf` with the protection check and the copy done
    /// under **one frame resolution per page-run** (the bulk entry point the
    /// fast access layer builds on, instead of check + copy per element).
    ///
    /// On a fault the bytes of preceding pages have already been copied;
    /// callers resolve the fault and retry.
    ///
    /// # Errors
    ///
    /// Returns the first page that does not allow a read.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is not exactly `range.len()` bytes.
    pub fn read_checked(&self, range: AddrRange, buf: &mut [u8]) -> Result<(), AccessFault> {
        assert_eq!(buf.len(), range.len(), "buffer must cover the range exactly");
        let mut cursor = range.start();
        let mut filled = 0;
        while filled < buf.len() {
            let frame = self.checked_frame(cursor.page(), false)?;
            let offset = cursor.page_offset();
            let chunk = (PAGE_SIZE - offset).min(buf.len() - filled);
            frame.read(offset, &mut buf[filled..filled + chunk]);
            filled += chunk;
            cursor = cursor.offset(chunk);
        }
        Ok(())
    }

    /// Writes `data` over `range` with the protection check and the copy done
    /// under one frame resolution per page-run. Unlike
    /// [`write_bytes`](Self::write_bytes) this never maps pages: a page that
    /// is not mapped read-write is a fault the caller must resolve (twin +
    /// write-enable), which keeps the write-detection protocol honest.
    ///
    /// # Errors
    ///
    /// Returns the first page that does not allow a write.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly `range.len()` bytes.
    pub fn write_checked(&mut self, range: AddrRange, data: &[u8]) -> Result<(), AccessFault> {
        assert_eq!(data.len(), range.len(), "data must cover the range exactly");
        let mut cursor = range.start();
        let mut written = 0;
        while written < data.len() {
            let frame = self.checked_frame(cursor.page(), true)?;
            let offset = cursor.page_offset();
            let chunk = (PAGE_SIZE - offset).min(data.len() - written);
            frame.write(offset, &data[written..written + chunk]);
            written += chunk;
            cursor = cursor.offset(chunk);
        }
        Ok(())
    }

    /// The frame of `page` if its protection allows the access.
    fn checked_frame(&self, page: PageId, is_write: bool) -> Result<&PageFrame, AccessFault> {
        let frame = self.frames.get(&page).map(|e| &e.frame);
        let protection = frame.map_or(Protection::Unmapped, |f| f.protection());
        match (frame, AccessOutcome::of(protection, is_write)) {
            (Some(frame), AccessOutcome::Hit) => Ok(frame),
            (_, outcome) => Err(AccessFault { page, outcome }),
        }
    }

    /// Copies the bytes of `range` out of the table (unmapped bytes read as
    /// zero).
    pub fn read_range(&self, range: AddrRange) -> Vec<u8> {
        let mut buf = vec![0u8; range.len()];
        self.read_bytes(range.start(), &mut buf);
        buf
    }

    /// Iterator over all mapped page ids in address order.
    pub fn mapped_pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.frames.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn installed_bytes_never_reappear_in_a_diff() {
        let mut table = PageTable::new();
        let page = PageId(2);
        table.map_zeroed(page, Protection::ReadWrite);
        table.make_twin(page);
        // A local write followed by an install into a disjoint region: the
        // diff must contain the write and nothing of the install.
        table.write_bytes(page.base(), &[5, 5, 5, 5]);
        table.install_bytes(page.base().offset(64), &[9; 16]);
        let diff = table.create_diff(page).expect("twinned page diffs");
        assert_eq!(diff.modified_ranges(), vec![(0, 4)]);
        // The installed bytes are present in the page itself.
        let mut buf = [0u8; 16];
        table.read_bytes(page.base().offset(64), &mut buf);
        assert_eq!(buf, [9; 16]);
    }

    #[test]
    fn unmapped_pages_fault() {
        let table = PageTable::new();
        assert_eq!(table.check_access(PageId(0), false), AccessOutcome::Unmapped);
        assert_eq!(table.protection(PageId(0)), Protection::Unmapped);
        assert_eq!(table.pages_in_use(), 0);
    }

    #[test]
    fn protection_transitions_drive_access_outcomes() {
        let mut table = PageTable::new();
        table.map_zeroed(PageId(1), Protection::ReadOnly);
        assert_eq!(table.check_access(PageId(1), false), AccessOutcome::Hit);
        assert_eq!(table.check_access(PageId(1), true), AccessOutcome::WriteProtected);
        table.set_protection(PageId(1), Protection::ReadWrite);
        assert_eq!(table.check_access(PageId(1), true), AccessOutcome::Hit);
        table.set_protection(PageId(1), Protection::Invalid);
        assert_eq!(table.check_access(PageId(1), false), AccessOutcome::Invalid);
        assert!(table.check_access(PageId(1), false).is_fault());
    }

    #[test]
    fn twin_and_diff_capture_local_writes() {
        let mut table = PageTable::new();
        let page = PageId(3);
        table.map_zeroed(page, Protection::ReadWrite);
        assert!(table.make_twin(page));
        assert!(!table.make_twin(page), "second make_twin is a no-op");
        table.write_bytes(page.base().offset(8), &[7, 7, 7, 7]);
        let diff = table.create_diff(page).expect("twin exists");
        assert!(!diff.is_empty());
        assert_eq!(diff.modified_bytes(), 4);

        // Applying the diff on another node reproduces the write.
        let mut other = PageTable::new();
        other.apply_diff(page, &diff).unwrap();
        let mut buf = [0u8; 4];
        other.read_bytes(page.base().offset(8), &mut buf);
        assert_eq!(buf, [7, 7, 7, 7]);
    }

    #[test]
    fn remote_diffs_do_not_reappear_as_local_modifications() {
        let mut table = PageTable::new();
        let page = PageId(0);
        table.map_zeroed(page, Protection::ReadWrite);
        table.make_twin(page);
        // A remote diff arrives for a word this node did not write.
        let mut remote_page = vec![0u8; PAGE_SIZE];
        remote_page[100..104].copy_from_slice(&[5, 5, 5, 5]);
        let remote = Diff::create(&vec![0u8; PAGE_SIZE], &remote_page);
        table.apply_diff(page, &remote).unwrap();
        // The local diff must be empty: this node made no writes of its own.
        let local = table.create_diff(page).unwrap();
        assert!(local.is_empty(), "remote modifications must not be re-diffed");
    }

    #[test]
    fn dirty_list_tracks_write_enabled_pages() {
        let mut table = PageTable::new();
        assert!(!table.mark_dirty(PageId(2)));
        assert!(table.mark_dirty(PageId(2)));
        table.mark_dirty(PageId(5));
        assert_eq!(table.dirty_pages(), vec![PageId(2), PageId(5)]);
        table.clear_dirty(PageId(2));
        assert_eq!(table.dirty_pages(), vec![PageId(5)]);
    }

    #[test]
    fn apply_diff_batch_matches_per_record_application() {
        let twin = vec![0u8; PAGE_SIZE];
        let mut a = twin.clone();
        a[0..8].fill(1);
        let mut b = twin.clone();
        b[0..8].fill(2);
        let mut c = twin.clone();
        c[64..72].fill(9);
        let da = Diff::create(&twin, &a);
        let db = Diff::create(&twin, &b);
        let dc = Diff::create(&twin, &c);

        // Batch order is preserved: the later record of a same-page run wins
        // on overlapping words, and a second page in the batch is applied
        // through its own frame.
        let mut table = PageTable::new();
        table.apply_diff_batch(vec![(PageId(3), &da), (PageId(3), &db), (PageId(7), &dc)]).unwrap();
        let mut buf = [0u8; 8];
        table.read_bytes(PageId(3).base(), &mut buf);
        assert_eq!(buf, [2; 8], "the causally later record must win");
        table.read_bytes(PageId(7).base().offset(64), &mut buf);
        assert_eq!(buf, [9; 8]);

        // Twins stay coherent exactly like the per-record path.
        let mut other = PageTable::new();
        other.map_zeroed(PageId(3), Protection::ReadWrite);
        other.make_twin(PageId(3));
        other.apply_diff_batch(vec![(PageId(3), &da)]).unwrap();
        assert!(other.create_diff(PageId(3)).unwrap().is_empty());
    }

    #[test]
    fn byte_io_spans_page_boundaries() {
        let mut table = PageTable::new();
        let addr = Addr::new(PAGE_SIZE - 2);
        table.write_bytes(addr, &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        table.read_bytes(addr, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
        assert_eq!(table.pages_in_use(), 2);
    }

    #[test]
    fn unmapped_reads_are_zero() {
        let table = PageTable::new();
        let bytes = table.read_range(AddrRange::new(Addr::new(100), 16));
        assert_eq!(bytes, vec![0u8; 16]);
    }

    #[test]
    fn install_replaces_contents_and_state() {
        let mut table = PageTable::new();
        let page = PageId(4);
        table.map_zeroed(page, Protection::ReadWrite);
        table.make_twin(page);
        let mut incoming = Page::zeroed();
        incoming.as_mut_slice()[0] = 42;
        table.install(page, incoming, Protection::ReadOnly);
        assert_eq!(table.protection(page), Protection::ReadOnly);
        assert!(!table.has_twin(page));
        let mut buf = [0u8; 1];
        table.read_bytes(page.base(), &mut buf);
        assert_eq!(buf[0], 42);
    }

    #[test]
    fn frame_lookup_errors_on_unmapped() {
        let table = PageTable::new();
        assert!(matches!(table.frame(PageId(9)), Err(MemError::Unmapped(PageId(9)))));
    }

    #[test]
    fn frame_handles_are_stable_across_install_and_remap() {
        // A cached FrameRef must keep observing the live frame, or a stale
        // software-TLB entry could read a detached copy with old protection.
        let mut table = PageTable::new();
        let page = PageId(2);
        let frame = table.map_zeroed(page, Protection::ReadWrite);
        let mut incoming = Page::zeroed();
        incoming.as_mut_slice()[7] = 9;
        table.install(page, incoming, Protection::ReadOnly);
        let again = table.frame(page).unwrap();
        assert!(Arc::ptr_eq(&frame, &again), "install must not replace the frame");
        assert_eq!(frame.protection(), Protection::ReadOnly);
        assert_eq!(frame.to_page().as_slice()[7], 9);
        table.map_zeroed(page, Protection::Invalid);
        assert_eq!(frame.protection(), Protection::Invalid);
    }

    #[test]
    fn a_full_page_read_under_the_table_lock_sees_only_written_elements() {
        // The single-writer rule: the compute thread stores elements straight
        // into a frame it holds (a TLB hit), while the server copies the whole
        // page out under the table lock (a full-page diff). Every aligned
        // element the copy sees must be one the writer stored.
        const ROUNDS: u64 = 2_000;
        const HALF: usize = PAGE_SIZE / 2;
        // Each value carries its round at both ends, so a mix of two stores
        // is never a value that was written.
        let wide = |round: u64, slot: usize| round << 40 | (slot as u64) << 20 | round;
        let narrow = |round: u64, slot: usize| (round << 21 | (slot as u64) << 11 | round) as u32;
        let check = |bytes: &[u8], last: Option<u64>| {
            for (slot, word) in bytes[..HALF].chunks_exact(8).enumerate() {
                let value = u64::from_le_bytes(word.try_into().expect("8 bytes"));
                let round = value >> 40;
                let written = (1..=ROUNDS).contains(&round) && value == wide(round, slot);
                assert!(value == 0 || written, "u64 slot {slot} holds {value:#x}");
                assert!(last.is_none_or(|round| value == wide(round, slot)));
            }
            for (slot, word) in bytes[HALF..].chunks_exact(4).enumerate() {
                let value = u32::from_le_bytes(word.try_into().expect("4 bytes"));
                let round = u64::from(value >> 21);
                let written = (1..=ROUNDS).contains(&round) && value == narrow(round, slot);
                assert!(value == 0 || written, "u32 slot {slot} holds {value:#x}");
                assert!(last.is_none_or(|round| value == narrow(round, slot)));
            }
        };

        let page = PageId(5);
        let table = dsm_core::sync::Mutex::new(PageTable::new());
        let frame = table.lock().map_zeroed(page, Protection::ReadWrite);
        let done = std::sync::atomic::AtomicBool::new(false);
        let mut copy = [0u8; PAGE_SIZE];
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for round in 1..=ROUNDS {
                    for slot in 0..HALF / 8 {
                        frame.store(slot * 8, 8, wide(round, slot));
                    }
                    for slot in 0..HALF / 4 {
                        frame.store(HALF + slot * 4, 4, u64::from(narrow(round, slot)));
                    }
                }
                done.store(true, Ordering::Release);
            });
            loop {
                let finished = done.load(Ordering::Acquire);
                table.lock().read_bytes(page.base(), &mut copy);
                check(&copy, None);
                if finished {
                    break;
                }
            }
        });
        // Once the writer is done, every element holds its last value: no
        // sub-word store clobbered a neighbour sharing its word.
        table.lock().read_bytes(page.base(), &mut copy);
        check(&copy, Some(ROUNDS));
    }

    #[test]
    fn epoch_bumps_on_every_validity_change_only() {
        let mut table = PageTable::new();
        let e0 = table.epoch();
        table.map_zeroed(PageId(1), Protection::ReadOnly);
        let e1 = table.epoch();
        assert!(e1 > e0, "mapping a page is a validity change");
        table.set_protection(PageId(1), Protection::ReadWrite);
        let e2 = table.epoch();
        assert!(e2 > e1, "a protection change bumps the epoch");
        table.set_protection(PageId(1), Protection::ReadWrite);
        assert_eq!(table.epoch(), e2, "a no-op protection change does not bump");
        table.mark_dirty(PageId(1));
        table.make_twin(PageId(1));
        table.clear_dirty(PageId(1));
        table.drop_twin(PageId(1));
        assert_eq!(table.epoch(), e2, "twin/dirty bookkeeping does not bump");
        table.install(PageId(1), Page::zeroed(), Protection::ReadOnly);
        assert!(table.epoch() > e2, "installing a copy bumps");
    }

    #[test]
    fn epoch_probe_reads_without_the_table() {
        let table = PageTable::new();
        let probe = table.epoch_probe();
        let before = probe.current();
        table.bump_epoch();
        assert_eq!(probe.current(), before + 1);
    }

    #[test]
    fn read_checked_copies_or_faults_per_page_run() {
        let mut table = PageTable::new();
        let range = AddrRange::new(Addr::new(PAGE_SIZE - 4), 8);
        let mut buf = [0u8; 8];
        // Both pages unmapped: fault on the first.
        let fault = table.read_checked(range, &mut buf).unwrap_err();
        assert_eq!(fault, AccessFault { page: PageId(0), outcome: AccessOutcome::Unmapped });
        table.map_zeroed(PageId(0), Protection::ReadOnly);
        table.map_zeroed(PageId(1), Protection::Invalid);
        let fault = table.read_checked(range, &mut buf).unwrap_err();
        assert_eq!(fault, AccessFault { page: PageId(1), outcome: AccessOutcome::Invalid });
        table.set_protection(PageId(1), Protection::ReadOnly);
        table.write_bytes(Addr::new(PAGE_SIZE - 4), &[1, 2, 3, 4, 5, 6, 7, 8]);
        table.read_checked(range, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn write_checked_requires_read_write_and_never_maps() {
        let mut table = PageTable::new();
        let range = AddrRange::new(Addr::new(16), 4);
        let fault = table.write_checked(range, &[9; 4]).unwrap_err();
        assert_eq!(fault.outcome, AccessOutcome::Unmapped);
        assert_eq!(table.pages_in_use(), 0, "a faulting write must not map the page");
        table.map_zeroed(PageId(0), Protection::ReadOnly);
        let fault = table.write_checked(range, &[9; 4]).unwrap_err();
        assert_eq!(fault.outcome, AccessOutcome::WriteProtected);
        table.set_protection(PageId(0), Protection::ReadWrite);
        table.write_checked(range, &[9; 4]).unwrap();
        assert_eq!(table.read_range(range), vec![9; 4]);
    }
}
