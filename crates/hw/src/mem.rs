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

/// Words per chunk: the grain at which core frames and disk records
/// keep track of which of a page's words may be nonzero.
pub const CHUNK_WORDS: usize = 64;

/// Chunks per page: one bit of a `u16` live mask each.
const CHUNKS: usize = PAGE_WORDS / CHUNK_WORDS;
const _: () = assert!(CHUNKS == u16::BITS as usize);

/// The live mask of a page any of whose chunks may be nonzero.
pub(crate) const ALL_LIVE: u16 = u16::MAX;

/// What a range of core past the initialized prefix borrows.
static ZERO_PAGE: [Word; PAGE_WORDS] = [Word::ZERO; PAGE_WORDS];

/// The chunks a live mask names, lowest first.
pub(crate) fn live_chunks(mut live: u16) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (live != 0).then(|| {
            let c = live.trailing_zeros() as usize;
            live &= live - 1;
            c
        })
    })
}

/// Primary memory: `frames * PAGE_WORDS` 36-bit words.
///
/// The host keeps it sparse in two ways no simulated figure can see.
/// Each frame has a live mask, one bit per [`CHUNK_WORDS`]-word chunk: a
/// clear bit means the chunk is all zeros (a set bit promises nothing),
/// so zeroing or scanning a frame visits only the chunks written since
/// it was last zeroed. And core is initialized only up to the highest
/// frame ever written; every word past that prefix reads as zero.
/// Equality and `Debug` are over the words alone.
#[derive(Clone)]
pub struct MainMemory {
    /// The initialized prefix, whole frames; room for all of core is
    /// reserved.
    words: Vec<Word>,
    /// Per frame, a bit per chunk that may hold a nonzero word.
    live: Vec<u16>,
}

impl MainMemory {
    /// Creates a memory of `frames` zeroed page frames.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero — a machine without core is not a machine.
    pub fn new(frames: usize) -> Self {
        let mut mem = Self {
            words: Vec::new(),
            live: Vec::new(),
        };
        mem.reset(frames);
        mem
    }

    /// Makes this memory `frames` zeroed page frames in its own buffer —
    /// the core a bootload of the same machine finds, without faulting
    /// a new allocation in. Only the chunks written since their frame
    /// was last zeroed are visited.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero.
    pub fn reset(&mut self, frames: usize) {
        assert!(frames > 0, "main memory must have at least one frame");
        let kept = (self.words.len() / PAGE_WORDS).min(frames);
        self.words.truncate(kept * PAGE_WORDS);
        for f in 0..kept {
            self.zero_frame(FrameNo(f as u32));
        }
        self.words
            .reserve_exact(frames * PAGE_WORDS - self.words.len());
        self.live.clear();
        self.live.resize(frames, 0);
    }

    /// Number of page frames.
    pub fn frames(&self) -> usize {
        self.live.len()
    }

    /// Total words of core.
    pub fn size_words(&self) -> usize {
        self.live.len() * PAGE_WORDS
    }

    /// True if `addr` names a word that exists.
    pub fn contains(&self, addr: AbsAddr) -> bool {
        (addr.0 as usize) < self.size_words()
    }

    /// Reads the word at an absolute address.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside of core; software is expected to
    /// never generate such an address (the simulator treats it as a wiring
    /// error, not a recoverable fault).
    pub fn read(&self, addr: AbsAddr) -> Word {
        match self.words.get(addr.0 as usize) {
            Some(&w) => w,
            None => {
                self.index(addr);
                Word::ZERO
            }
        }
    }

    /// Writes the word at an absolute address.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside of core.
    pub fn write(&mut self, addr: AbsAddr, value: Word) {
        let i = self.index(addr);
        self.grow(i + 1);
        self.words[i] = value;
        self.live[i / PAGE_WORDS] |= 1 << (i / CHUNK_WORDS % CHUNKS);
    }

    /// The `n` words starting at an absolute address, borrowed in place.
    ///
    /// # Panics
    ///
    /// Panics if any of the words lies outside of core, or if the range
    /// reaches past the initialized prefix without lying inside one frame.
    pub fn words(&self, addr: AbsAddr, n: usize) -> &[Word] {
        let (i, end) = self.range(addr, n);
        if end <= self.words.len() {
            return &self.words[i..end];
        }
        // The prefix ends at a frame edge, so a range inside one frame
        // lies either inside it or wholly past it.
        let offset = i % PAGE_WORDS;
        assert!(
            offset + n <= PAGE_WORDS,
            "absolute range {addr}+{n} crosses a frame past the {} written words of core",
            self.words.len()
        );
        &ZERO_PAGE[offset..offset + n]
    }

    /// Writes `value` to each of the `n` words starting at an absolute
    /// address.
    ///
    /// # Panics
    ///
    /// Panics if any of the words lies outside of core.
    pub fn fill(&mut self, addr: AbsAddr, n: usize, value: Word) {
        let (i, end) = self.range(addr, n);
        if n == 0 {
            return;
        }
        self.grow(end);
        self.words[i..end].fill(value);
        for chunk in i / CHUNK_WORDS..=(end - 1) / CHUNK_WORDS {
            self.live[chunk / CHUNKS] |= 1 << (chunk % CHUNKS);
        }
    }

    /// The frame's live mask: a clear bit means that chunk is all zeros.
    pub fn live(&self, frame: FrameNo) -> u16 {
        self.live[self.frame_index(frame)]
    }

    /// Overwrites a whole frame from a sparse page: `chunks` holds the
    /// chunks `live` names, lowest first, and every other chunk of the
    /// frame becomes zero. The frame's live mask becomes `live`.
    ///
    /// # Panics
    ///
    /// Panics if the frame is outside of core or `chunks` is not
    /// [`CHUNK_WORDS`] words for each chunk `live` names.
    pub fn load_frame(&mut self, frame: FrameNo, live: u16, chunks: &[Word]) {
        assert_eq!(
            chunks.len(),
            live.count_ones() as usize * CHUNK_WORDS,
            "the chunks of live mask {live:#06x}"
        );
        let f = self.frame_index(frame);
        let base = f * PAGE_WORDS;
        for c in live_chunks(self.live[f] & !live) {
            self.words[base + c * CHUNK_WORDS..][..CHUNK_WORDS].fill(Word::ZERO);
        }
        if live != 0 {
            self.grow(base + PAGE_WORDS);
        }
        for (c, chunk) in live_chunks(live).zip(chunks.chunks_exact(CHUNK_WORDS)) {
            self.words[base + c * CHUNK_WORDS..][..CHUNK_WORDS].copy_from_slice(chunk);
        }
        self.live[f] = live;
    }

    /// Zeroes every word of a frame.
    pub fn zero_frame(&mut self, frame: FrameNo) {
        let f = self.frame_index(frame);
        for c in live_chunks(std::mem::take(&mut self.live[f])) {
            self.words[f * PAGE_WORDS + c * CHUNK_WORDS..][..CHUNK_WORDS].fill(Word::ZERO);
        }
    }

    /// True if every word of the frame is zero.
    ///
    /// This is the scan the paper's page-removal algorithm performs to
    /// decide whether a page about to be removed can revert to a zero-page
    /// flag in the file map (and stop being charged for).
    pub fn frame_is_zero(&self, frame: FrameNo) -> bool {
        let f = self.frame_index(frame);
        live_chunks(self.live[f]).all(|c| {
            self.words[f * PAGE_WORDS + c * CHUNK_WORDS..][..CHUNK_WORDS]
                .iter()
                .all(|w| w.is_zero())
        })
    }

    /// Initializes core through the frame holding word `end - 1`.
    fn grow(&mut self, end: usize) {
        if end > self.words.len() {
            self.words
                .resize(end.next_multiple_of(PAGE_WORDS), Word::ZERO);
        }
    }

    /// Frames of the initialized prefix.
    #[cfg(test)]
    pub(crate) fn written_frames(&self) -> usize {
        self.words.len() / PAGE_WORDS
    }

    fn index(&self, addr: AbsAddr) -> usize {
        let i = addr.0 as usize;
        assert!(
            i < self.size_words(),
            "absolute address {addr} outside of {} words of core",
            self.size_words()
        );
        i
    }

    /// The word indexes of the `n` words at `addr`.
    fn range(&self, addr: AbsAddr, n: usize) -> (usize, usize) {
        let i = self.index(addr);
        let end = i + n;
        assert!(
            end <= self.size_words(),
            "absolute range {addr}+{n} outside of {} words of core",
            self.size_words()
        );
        (i, end)
    }

    fn frame_index(&self, frame: FrameNo) -> usize {
        let f = frame.0 as usize;
        assert!(
            f < self.live.len(),
            "frame {} outside of {} frames of core",
            frame.0,
            self.live.len()
        );
        f
    }
}

/// Every word of core, the zeros past the initialized prefix included.
struct AllWords<'a>(&'a MainMemory);

impl core::fmt::Debug for AllWords<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let mem = self.0;
        let zeros = mem.size_words() - mem.words.len();
        f.debug_list()
            .entries(
                mem.words
                    .iter()
                    .chain(std::iter::repeat_n(&Word::ZERO, zeros)),
            )
            .finish()
    }
}

impl core::fmt::Debug for MainMemory {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MainMemory")
            .field("words", &AllWords(self))
            .finish()
    }
}

impl PartialEq for MainMemory {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        self.frames() == other.frames()
            && short[..] == long[..short.len()]
            && long[short.len()..].iter().all(|w| w.is_zero())
    }
}

impl Eq for MainMemory {}

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
    fn core_is_initialized_up_to_the_highest_frame_written() {
        let mut m = MainMemory::new(4);
        assert_eq!(m.written_frames(), 0, "a new core initializes nothing");
        assert!(m.read(AbsAddr(3 * PAGE_WORDS as u64 + 7)).is_zero());
        assert!(m
            .words(FrameNo(2).base().add(5), 9)
            .iter()
            .all(|w| w.is_zero()));
        m.write(FrameNo(1).base().add(1023), Word::new(3));
        assert_eq!(m.written_frames(), 2);
        assert_eq!(m.live(FrameNo(1)), 1 << 15);
        assert_eq!(m.live(FrameNo(0)), 0, "grown, not written");
        let mut page = [Word::ZERO; PAGE_WORDS];
        page[64] = Word::new(4);
        m.load_frame(FrameNo(3), 1 << 1, &page[64..128]);
        assert_eq!(m.written_frames(), 4);
        assert_eq!(m.words(FrameNo(3).base(), PAGE_WORDS), &page[..]);
        m.load_frame(FrameNo(3), 0, &[]);
        assert!(m.frame_is_zero(FrameNo(3)) && m.live(FrameNo(3)) == 0);
    }

    #[test]
    fn equality_and_debug_are_over_the_words_alone() {
        let dense = |frames: usize| {
            let words = vec![Word::ZERO; frames * PAGE_WORDS];
            format!("MainMemory {{ words: {words:?} }}")
        };
        let (mut a, b) = (MainMemory::new(3), MainMemory::new(3));
        a.write(FrameNo(2).base().add(5), Word::new(7));
        a.write(FrameNo(2).base().add(5), Word::ZERO);
        assert_eq!(a, b, "a longer prefix and a set bit hold only zeros");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(format!("{b:?}"), dense(3));
        assert_ne!(a, MainMemory::new(4));
        a.write(FrameNo(2).base().add(5), Word::new(1));
        assert_ne!(a, b);
        assert_ne!(b, a);
    }

    #[test]
    #[should_panic(expected = "crosses a frame past")]
    fn words_across_a_frame_past_the_prefix_panics() {
        let mut m = MainMemory::new(3);
        m.write(AbsAddr(0), Word::new(1));
        m.words(FrameNo(1).base().add(1000), 100);
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
        let page = m.words(AbsAddr(0), PAGE_WORDS).to_vec();
        m.load_frame(FrameNo(1), ALL_LIVE, &page);
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
