//! Primary (core) memory.
//!
//! Main memory is a flat array of 36-bit words, viewed by the rest of the
//! system as a sequence of 1024-word *page frames*. The memory itself does
//! no allocation or protection; ownership of frames is a software matter
//! (the page-frame manager in the new design, page control in the old).
//!
//! Descriptor segments and page tables are ordinary data in this memory:
//! the processor reads translation words out of core exactly the way the
//! paper's supervisor modules do, which is what makes the map and
//! address-space dependencies in the dependency analysis *real* rather
//! than notional.

use crate::word::Word;

/// Words per page / page frame (the Multics page size).
pub const PAGE_WORDS: usize = 1024;

/// An absolute (physical) word address in primary memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct AbsAddr(pub u64);

impl AbsAddr {
    /// The frame this absolute address falls in.
    pub const fn frame(self) -> FrameNo {
        FrameNo((self.0 / PAGE_WORDS as u64) as u32)
    }

    /// Word offset within the frame.
    pub const fn offset(self) -> usize {
        (self.0 % PAGE_WORDS as u64) as usize
    }

    /// Absolute address `n` words beyond this one.
    pub const fn add(self, n: u64) -> AbsAddr {
        AbsAddr(self.0 + n)
    }
}

impl core::fmt::Display for AbsAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "@{:o}", self.0)
    }
}

/// A page-frame number: frame `n` covers absolute words
/// `n*1024 .. (n+1)*1024`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FrameNo(pub u32);

impl FrameNo {
    /// Absolute address of the first word of the frame.
    pub const fn base(self) -> AbsAddr {
        AbsAddr(self.0 as u64 * PAGE_WORDS as u64)
    }
}

/// Primary memory: `frames * PAGE_WORDS` 36-bit words.
#[derive(Debug, Clone)]
pub struct MainMemory {
    words: Vec<Word>,
}

impl MainMemory {
    /// Creates a memory of `frames` zeroed page frames.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero — a machine without core is not a machine.
    pub fn new(frames: usize) -> Self {
        let mut mem = Self { words: Vec::new() };
        mem.reset(frames);
        mem
    }

    /// Makes this memory `frames` zeroed page frames in its own buffer —
    /// the core a bootload of the same machine finds, without faulting
    /// a new allocation in.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero.
    pub fn reset(&mut self, frames: usize) {
        assert!(frames > 0, "main memory must have at least one frame");
        self.words.clear();
        self.words.resize(frames * PAGE_WORDS, Word::ZERO);
    }

    /// Number of page frames.
    pub fn frames(&self) -> usize {
        self.words.len() / PAGE_WORDS
    }

    /// Total words of core.
    pub fn size_words(&self) -> usize {
        self.words.len()
    }

    /// True if `addr` names a word that exists.
    pub fn contains(&self, addr: AbsAddr) -> bool {
        (addr.0 as usize) < self.words.len()
    }

    /// Reads the word at an absolute address.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside of core; software is expected to
    /// never generate such an address (the simulator treats it as a wiring
    /// error, not a recoverable fault).
    pub fn read(&self, addr: AbsAddr) -> Word {
        self.words[self.index(addr)]
    }

    /// Writes the word at an absolute address.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside of core.
    pub fn write(&mut self, addr: AbsAddr, value: Word) {
        let i = self.index(addr);
        self.words[i] = value;
    }

    /// The `n` words starting at an absolute address, borrowed in place.
    ///
    /// # Panics
    ///
    /// Panics if any of the words lies outside of core.
    pub fn words(&self, addr: AbsAddr, n: usize) -> &[Word] {
        let i = self.index(addr);
        let end = i + n;
        assert!(
            end <= self.words.len(),
            "absolute range {addr}+{n} outside of {} words of core",
            self.words.len()
        );
        &self.words[i..end]
    }

    /// Writes `value` to each of the `n` words starting at an absolute
    /// address.
    ///
    /// # Panics
    ///
    /// Panics if any of the words lies outside of core.
    pub fn fill(&mut self, addr: AbsAddr, n: usize, value: Word) {
        let i = self.index(addr);
        let end = i + n;
        assert!(
            end <= self.words.len(),
            "absolute range {addr}+{n} outside of {} words of core",
            self.words.len()
        );
        self.words[i..end].fill(value);
    }

    /// Overwrites a whole frame from a page buffer.
    pub fn write_frame(&mut self, frame: FrameNo, page: &[Word; PAGE_WORDS]) {
        let base = frame.base().0 as usize;
        self.words[base..base + PAGE_WORDS].copy_from_slice(page);
    }

    /// Zeroes every word of a frame.
    pub fn zero_frame(&mut self, frame: FrameNo) {
        let base = frame.base().0 as usize;
        for w in &mut self.words[base..base + PAGE_WORDS] {
            *w = Word::ZERO;
        }
    }

    /// True if every word of the frame is zero.
    ///
    /// This is the scan the paper's page-removal algorithm performs to
    /// decide whether a page about to be removed can revert to a zero-page
    /// flag in the file map (and stop being charged for).
    pub fn frame_is_zero(&self, frame: FrameNo) -> bool {
        let base = frame.base().0 as usize;
        self.words[base..base + PAGE_WORDS]
            .iter()
            .all(|w| w.is_zero())
    }

    fn index(&self, addr: AbsAddr) -> usize {
        let i = addr.0 as usize;
        assert!(
            i < self.words.len(),
            "absolute address {addr} outside of {} words of core",
            self.words.len()
        );
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_base_and_split() {
        let f = FrameNo(3);
        assert_eq!(f.base(), AbsAddr(3 * PAGE_WORDS as u64));
        let a = AbsAddr(3 * PAGE_WORDS as u64 + 5);
        assert_eq!(a.frame(), f);
        assert_eq!(a.offset(), 5);
    }

    #[test]
    fn read_write_round_trip() {
        let mut m = MainMemory::new(2);
        let a = AbsAddr(1500);
        m.write(a, Word::new(0o1234));
        assert_eq!(m.read(a), Word::new(0o1234));
    }

    #[test]
    fn new_memory_is_zero() {
        let m = MainMemory::new(4);
        assert!(m.frame_is_zero(FrameNo(0)));
        assert!(m.frame_is_zero(FrameNo(3)));
        assert_eq!(m.frames(), 4);
        assert_eq!(m.size_words(), 4 * PAGE_WORDS);
    }

    #[test]
    fn reset_zeroes_core_in_its_own_buffer() {
        let mut m = MainMemory::new(4);
        m.write(AbsAddr(5), Word::new(9));
        let buffer = m.words.as_ptr();
        m.reset(2);
        assert_eq!(m.frames(), 2);
        assert!(m.frame_is_zero(FrameNo(0)) && m.frame_is_zero(FrameNo(1)));
        assert_eq!(m.words.as_ptr(), buffer, "the allocation is kept");
    }

    #[test]
    fn frame_zero_scan_detects_nonzero() {
        let mut m = MainMemory::new(1);
        assert!(m.frame_is_zero(FrameNo(0)));
        m.write(AbsAddr(1023), Word::new(1));
        assert!(!m.frame_is_zero(FrameNo(0)));
        m.zero_frame(FrameNo(0));
        assert!(m.frame_is_zero(FrameNo(0)));
    }

    #[test]
    fn frame_copy_round_trip() {
        let mut m = MainMemory::new(2);
        m.write(AbsAddr(10), Word::new(42));
        let page: [Word; PAGE_WORDS] = m.words(AbsAddr(0), PAGE_WORDS).try_into().unwrap();
        m.write_frame(FrameNo(1), &page);
        assert_eq!(m.read(AbsAddr(PAGE_WORDS as u64 + 10)), Word::new(42));
    }

    #[test]
    fn words_borrows_a_run_in_place() {
        let mut m = MainMemory::new(2);
        for i in 0..3 {
            m.write(AbsAddr(1022 + i), Word::new(i + 1));
        }
        let run = m.words(AbsAddr(1022), 3);
        assert_eq!(run, &[Word::new(1), Word::new(2), Word::new(3)]);
        assert!(m.words(AbsAddr(2 * PAGE_WORDS as u64 - 1), 1)[0].is_zero());
    }

    #[test]
    fn fill_writes_exactly_the_run() {
        let mut m = MainMemory::new(2);
        m.fill(AbsAddr(1020), 6, Word::new(7));
        for a in 1018..1028 {
            let want = if (1020..1026).contains(&a) { 7 } else { 0 };
            assert_eq!(m.read(AbsAddr(a)), Word::new(want), "word {a}");
        }
        m.fill(AbsAddr(2 * PAGE_WORDS as u64 - 1), 1, Word::new(1));
        assert_eq!(m.read(AbsAddr(2 * PAGE_WORDS as u64 - 1)), Word::new(1));
    }

    #[test]
    #[should_panic(expected = "outside of")]
    fn fill_past_the_end_of_core_panics() {
        let mut m = MainMemory::new(1);
        m.fill(AbsAddr(PAGE_WORDS as u64 - 2), 3, Word::new(1));
    }

    #[test]
    #[should_panic(expected = "outside of")]
    fn words_past_the_end_of_core_panics() {
        let m = MainMemory::new(1);
        m.words(AbsAddr(PAGE_WORDS as u64 - 2), 3);
    }

    #[test]
    #[should_panic(expected = "outside of")]
    fn out_of_range_read_panics() {
        let m = MainMemory::new(1);
        m.read(AbsAddr(PAGE_WORDS as u64));
    }
}
