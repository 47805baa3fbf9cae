//! Single-writer page frames.
//!
//! A [`PageFrame`] holds one mapped page's live bytes and its protection.
//! Only the owning node's compute thread ever writes a frame; the node's
//! protocol server reads it, under the table lock, when it ships a whole
//! page. That ownership rule is what lets a frame go without a lock: the
//! bytes are stored as relaxed [`AtomicU64`] words and the protection as a
//! relaxed [`AtomicU8`], so a cached frame handle can be read and written
//! with plain word loads and stores, and a concurrent reader sees every
//! aligned word either before or after a store, never torn.
//!
//! Relaxed ordering is enough because no access through a frame carries
//! synchronization of its own. Every write a remote requester is entitled
//! to see happens-before its request: the writer's release (a message send)
//! and the request's arrival at the server are release/acquire hops of the
//! message channels. See `DESIGN.md` §3.
//!
//! Sub-word stores read the containing word and store it back whole. That
//! is not an atomic read-modify-write, and it does not need to be: there is
//! one writer, so no other store can fall between the load and the store.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use crate::{Page, Protection, PAGE_SIZE};

/// Bytes per frame word.
const WORD: usize = 8;

/// Words per page.
const WORDS: usize = PAGE_SIZE / WORD;

/// The low `len` bytes of a word set, the rest clear (`len` in `1..=8`).
#[inline]
fn mask(len: usize) -> u64 {
    if len >= WORD {
        u64::MAX
    } else {
        (1u64 << (len * 8)) - 1
    }
}

/// One mapped page on a node: its live contents and its protection.
///
/// The twin and the dirty flag are bookkeeping of the table, not of the
/// frame; see [`PageTable`](crate::PageTable).
pub struct PageFrame {
    words: [AtomicU64; WORDS],
    protection: AtomicU8,
}

/// A shared handle onto one page frame.
///
/// Obtained from [`PageTable::frame`](crate::PageTable::frame) /
/// [`PageTable::frame_or_map`](crate::PageTable::frame_or_map); the handle
/// stays valid (and observes all later protection changes) for the lifetime
/// of the table.
pub type FrameRef = Arc<PageFrame>;

impl PageFrame {
    /// A zero-filled frame with the given protection.
    pub fn new(protection: Protection) -> PageFrame {
        PageFrame {
            words: [const { AtomicU64::new(0) }; WORDS],
            protection: AtomicU8::new(protection as u8),
        }
    }

    /// The frame's current protection.
    #[inline]
    pub fn protection(&self) -> Protection {
        Protection::from_u8(self.protection.load(Ordering::Relaxed))
    }

    pub(crate) fn set_protection(&self, protection: Protection) {
        self.protection.store(protection as u8, Ordering::Relaxed);
    }

    /// Reads the `len` bytes at `offset` (`len` in `1..=8`) as a
    /// little-endian value in the low bytes of the result.
    ///
    /// # Panics
    ///
    /// Panics if the bytes do not lie within the page.
    #[inline]
    pub fn load(&self, offset: usize, len: usize) -> u64 {
        debug_assert!((1..=WORD).contains(&len));
        let (index, shift) = (offset / WORD, offset % WORD);
        let low = self.words[index].load(Ordering::Relaxed) >> (shift * 8);
        let value = if shift + len <= WORD {
            low
        } else {
            low | self.words[index + 1].load(Ordering::Relaxed) << ((WORD - shift) * 8)
        };
        value & mask(len)
    }

    /// Writes the low `len` bytes of `value` (little endian) at `offset`
    /// (`len` in `1..=8`). An aligned 8-byte value is one word store.
    ///
    /// # Panics
    ///
    /// Panics if the bytes do not lie within the page.
    #[inline]
    pub fn store(&self, offset: usize, len: usize, value: u64) {
        debug_assert!((1..=WORD).contains(&len));
        let (index, shift) = (offset / WORD, offset % WORD);
        if shift == 0 && len == WORD {
            self.words[index].store(value, Ordering::Relaxed);
            return;
        }
        let (mask, value) = (mask(len), value & mask(len));
        let word = &self.words[index];
        let old = word.load(Ordering::Relaxed);
        word.store(old & !(mask << (shift * 8)) | value << (shift * 8), Ordering::Relaxed);
        if shift + len > WORD {
            let spilled = (WORD - shift) * 8;
            let word = &self.words[index + 1];
            let old = word.load(Ordering::Relaxed);
            word.store(old & !(mask >> spilled) | value >> spilled, Ordering::Relaxed);
        }
    }

    /// Copies the bytes at `offset` into `buf`, a whole word per load
    /// between the partial words at either end.
    ///
    /// # Panics
    ///
    /// Panics if the bytes do not lie within the page.
    pub(crate) fn read(&self, offset: usize, buf: &mut [u8]) {
        let buf_len = buf.len();
        let head = ((WORD - offset % WORD) % WORD).min(buf_len);
        let (first, rest) = buf.split_at_mut(head);
        if head > 0 {
            first.copy_from_slice(&self.load(offset, head).to_le_bytes()[..head]);
        }
        let (chunks, tail) = rest.as_chunks_mut::<WORD>();
        for (chunk, word) in chunks.iter_mut().zip(&self.words[(offset + head) / WORD..]) {
            *chunk = word.load(Ordering::Relaxed).to_le_bytes();
        }
        if !tail.is_empty() {
            let at = offset + buf_len - tail.len();
            tail.copy_from_slice(&self.load(at, tail.len()).to_le_bytes()[..tail.len()]);
        }
    }

    /// Writes `data` at `offset`, a whole word per store between the
    /// partial words at either end.
    ///
    /// # Panics
    ///
    /// Panics if the bytes do not lie within the page.
    pub(crate) fn write(&self, offset: usize, data: &[u8]) {
        let head = ((WORD - offset % WORD) % WORD).min(data.len());
        let (first, rest) = data.split_at(head);
        if head > 0 {
            self.store(offset, head, word_of(first));
        }
        let (chunks, tail) = rest.as_chunks::<WORD>();
        for (chunk, word) in chunks.iter().zip(&self.words[(offset + head) / WORD..]) {
            word.store(u64::from_le_bytes(*chunk), Ordering::Relaxed);
        }
        if !tail.is_empty() {
            self.store(offset + data.len() - tail.len(), tail.len(), word_of(tail));
        }
    }

    /// The page's words in order, each a little-endian 8-byte block.
    pub(crate) fn words(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().map(|word| word.load(Ordering::Relaxed))
    }

    /// A copy of the whole page.
    pub(crate) fn to_page(&self) -> Page {
        let mut page = Page::zeroed();
        self.read(0, page.as_mut_slice());
        page
    }

    /// Overwrites the whole page with zeros.
    pub(crate) fn zero(&self) {
        for word in &self.words {
            word.store(0, Ordering::Relaxed);
        }
    }
}

/// `bytes` (at most 8) as a little-endian word, zero-extended.
#[inline]
fn word_of(bytes: &[u8]) -> u64 {
    let mut word = [0u8; WORD];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

impl fmt::Debug for PageFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PageFrame {{ protection: {}, page: {:?} }}", self.protection(), self.to_page())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_stores_land_at_their_byte_offsets() {
        let frame = PageFrame::new(Protection::ReadWrite);
        frame.store(8, 8, 0x0102_0304_0506_0708);
        frame.store(20, 4, 0xaabb_ccdd);
        frame.store(31, 2, 0xeeff); // straddles words 3 and 4
        frame.store(39, 1, 0x77);
        let mut bytes = [0u8; 48];
        frame.read(0, &mut bytes);
        assert_eq!(&bytes[8..16], &0x0102_0304_0506_0708u64.to_le_bytes());
        assert_eq!(&bytes[20..24], &0xaabb_ccddu32.to_le_bytes());
        assert_eq!(&bytes[31..33], &0xeeffu16.to_le_bytes());
        assert_eq!(bytes[39], 0x77);
        assert_eq!(bytes.iter().filter(|&&b| b != 0).count(), 8 + 4 + 2 + 1);
        assert_eq!(frame.load(20, 4), 0xaabb_ccdd);
        assert_eq!(frame.load(31, 2), 0xeeff);
        // Unaligned loads spanning two words.
        assert_eq!(frame.load(12, 8), 0x0102_0304);
        assert_eq!(frame.load(4, 8), 0x0506_0708_0000_0000);
    }

    #[test]
    fn unaligned_bulk_copies_round_trip() {
        let frame = PageFrame::new(Protection::ReadWrite);
        let data: Vec<u8> = (0..61).map(|i| i as u8 + 1).collect();
        for offset in [0, 3, 8, 13, PAGE_SIZE - 61] {
            frame.zero();
            frame.write(offset, &data);
            let mut back = vec![0u8; data.len()];
            frame.read(offset, &mut back);
            assert_eq!(back, data, "offset {offset}");
            let page = frame.to_page();
            assert!(page.as_slice()[..offset].iter().all(|&b| b == 0));
            assert!(page.as_slice()[offset + data.len()..].iter().all(|&b| b == 0));
        }
    }

    #[test]
    fn protection_round_trips_through_the_byte() {
        let frame = PageFrame::new(Protection::Unmapped);
        for p in
            [Protection::Unmapped, Protection::Invalid, Protection::ReadOnly, Protection::ReadWrite]
        {
            frame.set_protection(p);
            assert_eq!(frame.protection(), p);
        }
    }
}
