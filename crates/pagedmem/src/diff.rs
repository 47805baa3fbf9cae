//! Word-granularity diffs between a twin and a modified page.
//!
//! TreadMarks encodes the modifications made to a page as a *diff*: the page
//! is compared word by word against its twin (the copy saved when the page
//! first became writable) and the changed runs are recorded. Diffs, not whole
//! pages, travel over the network, and multiple diffs for the same page can
//! be applied in timestamp order to reconstruct a consistent copy — this is
//! what enables the multiple-writer protocol and what causes the *diff
//! accumulation* pathology the paper observes for IS.

use std::fmt;
use std::ops::Range;

use crate::{MemError, PageFrame, PAGE_SIZE};

/// Comparison granularity in bytes (one 32-bit word, as in TreadMarks).
const WORD: usize = 4;

/// The scan's stride: two words compared at once.
const BLOCK: usize = 2 * WORD;

/// A run of modified bytes within a page.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Run {
    /// Byte offset of the run within the page (word aligned).
    offset: u32,
    /// The new contents of the run.
    data: Vec<u8>,
}

/// A word-granularity run-length encoded diff of one page.
///
/// ```
/// use pagedmem::{Diff, PAGE_SIZE};
/// let twin = vec![0u8; PAGE_SIZE];
/// let mut modified = twin.clone();
/// modified[8..16].copy_from_slice(&[9; 8]);
/// let diff = Diff::create(&twin, &modified);
/// assert!(!diff.is_empty());
/// assert!(diff.encoded_bytes() < PAGE_SIZE);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Diff {
    runs: Vec<Run>,
}

impl Diff {
    /// Compares `current` against `twin` and records the changed words.
    ///
    /// Runs are still word granular, but the scan compares 8-byte blocks and
    /// only descends to the two 4-byte words inside a block that differs —
    /// on the common mostly-clean page this halves the comparisons without
    /// changing the encoding.
    ///
    /// # Panics
    ///
    /// Panics if the two buffers are not both exactly [`PAGE_SIZE`] long.
    pub fn create(twin: &[u8], current: &[u8]) -> Diff {
        assert_eq!(twin.len(), PAGE_SIZE, "twin must be a whole page");
        assert_eq!(current.len(), PAGE_SIZE, "page must be a whole page");
        let blocks = current.as_chunks::<BLOCK>().0.iter().map(|b| u64::from_le_bytes(*b));
        Diff::scan(twin, blocks, |run| current[run].to_vec())
    }

    /// [`create`](Self::create) against a live frame: its words are compared
    /// in place, and only the changed runs are copied out.
    pub(crate) fn create_from_frame(twin: &[u8], frame: &PageFrame) -> Diff {
        assert_eq!(twin.len(), PAGE_SIZE, "twin must be a whole page");
        Diff::scan(twin, frame.words(), |run| {
            let mut data = vec![0u8; run.len()];
            frame.read(run.start, &mut data);
            data
        })
    }

    /// The scan behind both constructors: `current` yields the page's
    /// 8-byte blocks (little endian), `run_bytes` copies out a changed run.
    fn scan(
        twin: &[u8],
        current: impl Iterator<Item = u64>,
        run_bytes: impl Fn(Range<usize>) -> Vec<u8>,
    ) -> Diff {
        let mut runs = Vec::new();
        let mut close = |start: usize, end: usize| {
            runs.push(Run { offset: start as u32, data: run_bytes(start..end) });
        };
        let mut run_start: Option<usize> = None;
        let twin = twin.as_chunks::<BLOCK>().0.iter().map(|b| u64::from_le_bytes(*b));
        for (block, (t, c)) in twin.zip(current).enumerate() {
            let lo = block * BLOCK;
            let changed = t ^ c;
            if changed == 0 {
                // Both words are clean; a run open at this point ends exactly
                // where the word-by-word scan would have ended it.
                if let Some(start) = run_start.take() {
                    close(start, lo);
                }
                continue;
            }
            // The low half of the little-endian block is the word at `lo`.
            for (word_lo, differs) in [(lo, changed as u32 != 0), (lo + WORD, changed >> 32 != 0)] {
                match (differs, run_start) {
                    (true, None) => run_start = Some(word_lo),
                    (false, Some(start)) => {
                        close(start, word_lo);
                        run_start = None;
                    }
                    _ => {}
                }
            }
        }
        if let Some(start) = run_start {
            close(start, PAGE_SIZE);
        }
        Diff { runs }
    }

    /// A diff that describes the entire page contents (used when a whole page
    /// must be shipped, e.g. the first copy of a page).
    pub fn full_page(current: &[u8]) -> Diff {
        assert_eq!(current.len(), PAGE_SIZE, "page must be a whole page");
        Diff { runs: vec![Run { offset: 0, data: current.to_vec() }] }
    }

    /// Applies the diff to `page`, overwriting the recorded runs.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadPageLength`] if `page` is not exactly one page.
    pub fn apply(&self, page: &mut [u8]) -> Result<(), MemError> {
        if page.len() != PAGE_SIZE {
            return Err(MemError::BadPageLength(page.len()));
        }
        for run in &self.runs {
            let start = run.offset as usize;
            page[start..start + run.data.len()].copy_from_slice(&run.data);
        }
        Ok(())
    }

    /// Applies the diff to a live frame, writing each run straight into its
    /// words.
    pub(crate) fn apply_to_frame(&self, frame: &PageFrame) {
        for run in &self.runs {
            frame.write(run.offset as usize, &run.data);
        }
    }

    /// Whether the diff records no modifications.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of modified bytes recorded.
    pub fn modified_bytes(&self) -> usize {
        self.runs.iter().map(|r| r.data.len()).sum()
    }

    /// The modified byte ranges as half-open `(start, end)` offsets within
    /// the page, sorted and non-overlapping — the diff's *word-write set*,
    /// without the payload. This is what the race detector intersects
    /// across intervals.
    pub fn modified_ranges(&self) -> Vec<(u32, u32)> {
        self.runs.iter().map(|r| (r.offset, r.offset + r.data.len() as u32)).collect()
    }

    /// Size of the diff as transmitted: run headers plus run payloads.
    ///
    /// Each run costs 8 header bytes (offset + length) in the wire encoding.
    pub fn encoded_bytes(&self) -> usize {
        self.runs.len() * 8 + self.modified_bytes()
    }

    /// Merges `later` on top of `self`, producing a diff equivalent to
    /// applying `self` then `later`.
    pub fn merge(&self, later: &Diff) -> Diff {
        // Materialise on a scratch page. Simple and obviously correct; diffs
        // are merged rarely (only when collapsing write-notice chains).
        let mut scratch = vec![0u8; PAGE_SIZE];
        let mut mask = vec![false; PAGE_SIZE];
        for diff in [self, later] {
            for run in &diff.runs {
                let start = run.offset as usize;
                scratch[start..start + run.data.len()].copy_from_slice(&run.data);
                mask[start..start + run.data.len()].iter_mut().for_each(|m| *m = true);
            }
        }
        let mut runs = Vec::new();
        let mut cursor = 0;
        while cursor < PAGE_SIZE {
            if mask[cursor] {
                let start = cursor;
                while cursor < PAGE_SIZE && mask[cursor] {
                    cursor += 1;
                }
                runs.push(Run { offset: start as u32, data: scratch[start..cursor].to_vec() });
            } else {
                cursor += 1;
            }
        }
        Diff { runs }
    }
}

impl fmt::Display for Diff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "diff with {} runs, {} modified bytes", self.runs.len(), self.modified_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_with(edits: &[(usize, u8)]) -> Vec<u8> {
        let mut p = vec![0u8; PAGE_SIZE];
        for &(i, v) in edits {
            p[i] = v;
        }
        p
    }

    #[test]
    fn empty_diff_for_identical_pages() {
        let twin = page_with(&[(3, 7)]);
        let diff = Diff::create(&twin, &twin);
        assert!(diff.is_empty());
        assert_eq!(diff.encoded_bytes(), 0);
    }

    #[test]
    fn a_frame_diffs_exactly_like_its_bytes() {
        let twin = page_with(&[(0, 1), (9, 2)]);
        let mut current = twin.clone();
        // Runs that start and end inside 8-byte blocks, span blocks and
        // touch the last word.
        for i in [0, 4, 5, 12, 13, 16, 200, 4091, 4095] {
            current[i] ^= 0x5a;
        }
        let frame = PageFrame::new(crate::Protection::ReadWrite);
        frame.write(0, &current);
        assert_eq!(Diff::create_from_frame(&twin, &frame), Diff::create(&twin, &current));
    }

    #[test]
    fn diff_round_trips_onto_twin_copy() {
        let twin = page_with(&[(100, 1)]);
        let current = page_with(&[(100, 1), (200, 2), (201, 3), (4000, 9)]);
        let diff = Diff::create(&twin, &current);
        let mut rebuilt = twin.clone();
        diff.apply(&mut rebuilt).unwrap();
        assert_eq!(rebuilt, current);
    }

    #[test]
    fn adjacent_words_coalesce_into_one_run() {
        let twin = vec![0u8; PAGE_SIZE];
        let mut current = twin.clone();
        current[16..32].copy_from_slice(&[5; 16]);
        let diff = Diff::create(&twin, &current);
        assert_eq!(diff.runs.len(), 1);
        assert_eq!(diff.modified_bytes(), 16);
        assert_eq!(diff.encoded_bytes(), 8 + 16);
    }

    #[test]
    fn separated_modifications_produce_separate_runs() {
        let twin = vec![0u8; PAGE_SIZE];
        let mut current = twin.clone();
        current[0] = 1;
        current[2048] = 1;
        let diff = Diff::create(&twin, &current);
        assert_eq!(diff.runs.len(), 2);
        // Word granularity: each run is one 4-byte word even though only one
        // byte changed.
        assert_eq!(diff.modified_bytes(), 8);
    }

    #[test]
    fn full_page_diff_covers_everything() {
        let current = page_with(&[(1, 1), (4095, 255)]);
        let diff = Diff::full_page(&current);
        assert_eq!(diff.modified_bytes(), PAGE_SIZE);
        let mut blank = vec![0u8; PAGE_SIZE];
        diff.apply(&mut blank).unwrap();
        assert_eq!(blank, current);
    }

    #[test]
    fn apply_to_wrong_sized_buffer_fails() {
        let diff = Diff::full_page(&vec![0u8; PAGE_SIZE]);
        let mut short = vec![0u8; 100];
        assert_eq!(diff.apply(&mut short), Err(MemError::BadPageLength(100)));
    }

    #[test]
    fn merge_applies_later_on_top() {
        let twin = vec![0u8; PAGE_SIZE];
        let mut a = twin.clone();
        a[0..4].copy_from_slice(&[1, 1, 1, 1]);
        a[100..104].copy_from_slice(&[2, 2, 2, 2]);
        let mut b = twin.clone();
        b[100..104].copy_from_slice(&[3, 3, 3, 3]);

        let da = Diff::create(&twin, &a);
        let db = Diff::create(&twin, &b);
        let merged = da.merge(&db);

        let mut result = twin.clone();
        merged.apply(&mut result).unwrap();
        assert_eq!(&result[0..4], &[1, 1, 1, 1]);
        assert_eq!(&result[100..104], &[3, 3, 3, 3]);
    }

    #[test]
    fn create_apply_round_trips_from_any_base() {
        // The roundtrip holds not only onto a copy of the twin but onto any
        // page that agrees with the twin on the unmodified words.
        let twin = page_with(&[(0, 9), (500, 1)]);
        let mut current = twin.clone();
        current[500] = 2;
        current[501] = 3;
        let diff = Diff::create(&twin, &current);
        let mut base = twin.clone();
        base[3000] = 77; // untouched word: must survive
        diff.apply(&mut base).unwrap();
        assert_eq!(base[500], 2);
        assert_eq!(base[501], 3);
        assert_eq!(base[3000], 77);
        assert_eq!(base[0], 9);
    }

    #[test]
    fn empty_diffs_are_elided_cheaply() {
        // An empty diff is detectable without inspecting runs and costs no
        // wire bytes — the property the runtime's flush relies on to elide
        // notices for write-enabled-but-untouched pages.
        let twin = page_with(&[(7, 7)]);
        let diff = Diff::create(&twin, &twin);
        assert!(diff.is_empty());
        assert_eq!(diff.encoded_bytes(), 0);
        assert_eq!(diff.modified_bytes(), 0);
        // Applying an empty diff is a no-op.
        let mut page = twin.clone();
        diff.apply(&mut page).unwrap();
        assert_eq!(page, twin);
    }

    #[test]
    fn disjoint_multiple_writer_diffs_apply_commutatively() {
        // Two concurrent writers of one page with disjoint modifications
        // (false sharing): their diffs must merge to the same contents in
        // either application order.
        let twin = vec![0u8; PAGE_SIZE];
        let mut by_a = twin.clone();
        by_a[0..64].fill(0xAA);
        let mut by_b = twin.clone();
        by_b[2048..2112].fill(0xBB);
        let da = Diff::create(&twin, &by_a);
        let db = Diff::create(&twin, &by_b);

        let mut ab = twin.clone();
        da.apply(&mut ab).unwrap();
        db.apply(&mut ab).unwrap();
        let mut ba = twin.clone();
        db.apply(&mut ba).unwrap();
        da.apply(&mut ba).unwrap();
        assert_eq!(ab, ba, "disjoint diffs must commute");
        assert_eq!(&ab[0..64], &[0xAA; 64][..]);
        assert_eq!(&ab[2048..2112], &[0xBB; 64][..]);

        // The explicit merge agrees with sequential application, in both
        // merge orders.
        let mut merged_ab = twin.clone();
        da.merge(&db).apply(&mut merged_ab).unwrap();
        let mut merged_ba = twin.clone();
        db.merge(&da).apply(&mut merged_ba).unwrap();
        assert_eq!(merged_ab, ab);
        assert_eq!(merged_ba, ab);
    }

    #[test]
    fn block_scan_matches_a_word_by_word_reference() {
        // The 8-byte-block scan must produce the exact encoding of the plain
        // word-by-word state machine, including runs that straddle block
        // boundaries, start mid-block or cover exactly one word of a block.
        fn reference(twin: &[u8], current: &[u8]) -> Diff {
            let mut runs = Vec::new();
            let mut run_start: Option<usize> = None;
            for word in 0..PAGE_SIZE / WORD {
                let lo = word * WORD;
                let differs = twin[lo..lo + WORD] != current[lo..lo + WORD];
                match (differs, run_start) {
                    (true, None) => run_start = Some(lo),
                    (false, Some(start)) => {
                        runs.push(Run { offset: start as u32, data: current[start..lo].to_vec() });
                        run_start = None;
                    }
                    _ => {}
                }
            }
            if let Some(start) = run_start {
                runs.push(Run { offset: start as u32, data: current[start..PAGE_SIZE].to_vec() });
            }
            Diff { runs }
        }
        // A deterministic pseudo-random page pair with edits of many shapes.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..16 {
            let twin: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 251) as u8).collect();
            let mut current = twin.clone();
            for _ in 0..40 {
                let at = (next() as usize) % PAGE_SIZE;
                let len = 1 + (next() as usize) % 24;
                for b in current[at..(at + len).min(PAGE_SIZE)].iter_mut() {
                    *b = b.wrapping_add(1 + (next() as u8 % 3));
                }
            }
            assert_eq!(Diff::create(&twin, &current), reference(&twin, &current));
        }
        // Edge shapes: first word, last word, a lone second-word-of-block.
        let twin = vec![0u8; PAGE_SIZE];
        for edit in [0usize, PAGE_SIZE - 1, 4, PAGE_SIZE - 5] {
            let mut current = twin.clone();
            current[edit] = 1;
            assert_eq!(Diff::create(&twin, &current), reference(&twin, &current));
        }
    }

    #[test]
    fn modified_ranges_mirror_the_runs() {
        let twin = vec![0u8; PAGE_SIZE];
        let mut current = twin.clone();
        current[16..32].fill(7);
        current[2048] = 1;
        let diff = Diff::create(&twin, &current);
        assert_eq!(diff.modified_ranges(), vec![(16, 32), (2048, 2052)]);
        assert!(Diff::create(&twin, &twin).modified_ranges().is_empty());
        assert_eq!(Diff::full_page(&twin).modified_ranges(), vec![(0, PAGE_SIZE as u32)]);
    }

    #[test]
    fn display_mentions_runs() {
        let twin = vec![0u8; PAGE_SIZE];
        let current = page_with(&[(8, 1)]);
        let d = Diff::create(&twin, &current);
        assert!(d.to_string().contains("1 runs"));
    }
}
