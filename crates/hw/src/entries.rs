//! Directory entry records, read a page at a time.
//!
//! Both designs store a directory as a segment of fixed-size entry
//! records behind a count word. Word 0 holds the number of slots ever
//! used; slot k's record starts at word `1 + k·w`, for w words an entry;
//! an entry's word [`FLAGS`] has bit 0 set while the slot is in use, and
//! its words [`NAME`] to `NAME + 7` hold its name in the
//! [`crate::word`] codec. Everything else about an entry — how many words
//! it has, which of them its codec reads and what they mean, what a
//! search pays per slot, and how a word reaches core — is a design's own,
//! given by its [`EntryStore`] impl. One [`EntryReader`] reads the
//! records for both.

use crate::clock::{Language, RefCharges};
use crate::mem::{AbsAddr, MainMemory, PAGE_WORDS};
use crate::word::{NameKey, Word, NAME_WORDS};
use crate::Machine;

/// Offset of an entry's flags word; bit 0 is the in-use flag.
pub const FLAGS: u32 = 1;

/// Offset of an entry's first name word.
pub const NAME: u32 = 4;

/// The name words of an entry's words.
#[inline]
pub fn name_words(entry: &[Word]) -> &[Word; NAME_WORDS] {
    entry[NAME as usize..NAME as usize + NAME_WORDS]
        .try_into()
        .expect("eight name words")
}

/// Where a design keeps its directories: how it lays out an entry and
/// how a word of a directory segment reaches core.
pub trait EntryStore {
    /// Names one directory segment.
    type Dir: Copy;
    /// What a failed page touch reports.
    type Error;
    /// A decoded entry record.
    type Entry;
    /// One entry's words, `[Word; ENTRY_WORDS]`.
    type Words: Default + AsRef<[Word]> + AsMut<[Word]>;
    /// Words per entry record.
    const ENTRY_WORDS: u32;
    /// The words of an entry in use that the codec reads, as a bit set
    /// over the entry's words. The flags word is read first, on its own,
    /// and is not in the set; word 0 is.
    const RECORD: u64;
    /// PL/I instructions a search spends on each slot it passes.
    const SLOT_INSTR: u64;

    /// The machine whose core holds the directories' pages.
    fn machine(&mut self) -> &mut Machine;

    /// Everything of a full word read of `wordno` in `dir` but the core
    /// access: page service, growth, the used bit. The word's absolute
    /// address.
    fn touch(&mut self, dir: Self::Dir, wordno: u32) -> Result<AbsAddr, Self::Error>;

    /// Decodes an entry in use from its words, the first
    /// `64 - RECORD.leading_zeros()` of them at least.
    fn decode(words: &[Word]) -> Self::Entry;

    /// True to read through the per-slot, per-word reference loop the
    /// walk replaced. Only a design's test build says so, from a
    /// `#[cfg(test)]` thread-local.
    fn reference(&self) -> bool {
        false
    }

    /// Word offset of entry `slot`.
    fn entry_base(slot: u32) -> u32 {
        1 + slot * Self::ENTRY_WORDS
    }
}

/// Reads one directory segment's entry records, a page at a time.
///
/// The first word the reader takes from each page goes through the
/// design's full word path ([`EntryStore::touch`]); every later word on
/// that page is read straight from core, and its core access waits, with
/// the PL/I block of each slot [`EntryReader::find`] passes, for the one
/// charge made before the next page touch and at the end. The walks read
/// the slots that lie wholly on the page held as one run. The simulated
/// outcome is the per-slot, per-word loop's exactly — DESIGN.md, "The
/// directory scan cursor", gives the conditions.
pub struct EntryReader<S: EntryStore> {
    dir: S::Dir,
    /// The page last touched and the absolute address of its first word.
    page: Option<(u32, AbsAddr)>,
    /// Core accesses read but not yet charged.
    pending: u64,
    /// Slots `find` passed whose PL/I block is not yet charged.
    blocks: u64,
}

impl<S: EntryStore> EntryReader<S> {
    /// Words from an entry's base through the last one the codec reads.
    const SPAN: usize = (u64::BITS - S::RECORD.leading_zeros()) as usize;

    /// Core accesses an entry in use costs beyond its flags word.
    const RECORD_READS: u64 = S::RECORD.count_ones() as u64;

    /// A reader of `dir` holding no page.
    pub fn new(dir: S::Dir) -> Self {
        Self {
            dir,
            page: None,
            pending: 0,
            blocks: 0,
        }
    }

    /// Copies the words from `wordno` on into `out`. The words whose bits
    /// are set in `charged` count as read: each costs a core access,
    /// charged at the next flush. The first and last words must be
    /// charged, so every page the copy touches is one a word-by-word read
    /// would touch too.
    fn read(
        &mut self,
        store: &mut S,
        wordno: u32,
        out: &mut [Word],
        charged: u64,
    ) -> Result<(), S::Error> {
        debug_assert!(charged & 1 == 1 && charged >> (out.len() - 1) == 1);
        // The reference reads every charged word through the full path.
        if store.reference() {
            for (i, w) in out.iter_mut().enumerate() {
                if charged >> i & 1 == 1 {
                    let abs = store.touch(self.dir, wordno + i as u32)?;
                    let m = store.machine();
                    let cost = m.cost;
                    m.clock.charge_core_access(&cost);
                    *w = m.mem.read(abs);
                }
            }
            return Ok(());
        }
        let mut done = 0;
        while done < out.len() {
            let at = wordno + done as u32;
            let (pageno, offset) = (at / PAGE_WORDS as u32, at as usize % PAGE_WORDS);
            let frame = match self.page {
                Some((p, frame)) if p == pageno => frame,
                _ => {
                    // What is read so far goes on the clock before any
                    // fault the full path takes, and a failed touch
                    // leaves no page behind.
                    self.flush(store);
                    self.page = None;
                    let frame = AbsAddr(store.touch(self.dir, at)?.0 - offset as u64);
                    self.page = Some((pageno, frame));
                    frame
                }
            };
            let n = (out.len() - done).min(PAGE_WORDS - offset);
            let mem = &store.machine().mem;
            out[done..done + n].copy_from_slice(mem.words(frame.add(offset as u64), n));
            let run = charged >> done & ((1 << n) - 1);
            self.pending += u64::from(run.count_ones());
            done += n;
        }
        Ok(())
    }

    fn flush(&mut self, store: &mut S) {
        let blocks = std::mem::take(&mut self.blocks);
        let charges = RefCharges {
            core_accesses: std::mem::take(&mut self.pending),
            ..RefCharges::default()
        };
        let m = store.machine();
        let cost = m.cost;
        m.clock
            .charge_instruction_blocks(&cost, S::SLOT_INSTR, Language::Pli, blocks);
        m.clock.charge_reference(&cost, charges);
    }

    /// The count word, charged.
    ///
    /// # Errors
    ///
    /// Whatever the page touch reports.
    pub fn count(&mut self, store: &mut S) -> Result<u32, S::Error> {
        let mut w = [Word::ZERO];
        self.read(store, 0, &mut w, 1)?;
        self.flush(store);
        Ok(w[0].raw() as u32)
    }

    /// The run from `slot`: the slots from `slot` on, below `count`,
    /// whose words `at..at + len` all lie on the page the reader holds.
    /// The run's end, and its words straight from core, from the first
    /// slot's word `at` through the last slot's word `at + len - 1`: slot
    /// `slot + i`'s words start `i · ENTRY_WORDS` in. `None` if slot
    /// `slot` is not on that page, or no page is held.
    fn run<'m>(
        &self,
        mem: &'m MainMemory,
        slot: u32,
        count: u32,
        at: u32,
        len: u32,
    ) -> Option<(u32, &'m [Word])> {
        let (pageno, frame) = self.page?;
        let offset = (S::entry_base(slot) + at).checked_sub(pageno * PAGE_WORDS as u32)?;
        // Slot s's words end before word 1 + s·w + at + len, which the
        // page's end must not pass.
        let page_end = (pageno + 1) * PAGE_WORDS as u32;
        let end = ((page_end - 1 - at - len) / S::ENTRY_WORDS + 1).min(count);
        let slots = end.checked_sub(slot).filter(|&n| n > 0)?;
        let n = (slots - 1) * S::ENTRY_WORDS + len;
        Some((end, mem.words(frame.add(u64::from(offset)), n as usize)))
    }

    /// The first unused slot below `count`, else `count`: the in-use
    /// flags in slot order. The flags words that lie on the page the
    /// reader holds are read in place, as one run.
    ///
    /// # Errors
    ///
    /// Whatever a page touch reports.
    pub fn first_unused(&mut self, store: &mut S, count: u32) -> Result<u32, S::Error> {
        let mut slot = 0;
        while slot < count {
            let Some((end, run)) = self.run(&store.machine().mem, slot, count, FLAGS, 1) else {
                let mut flags = [Word::ZERO];
                self.read(store, S::entry_base(slot) + FLAGS, &mut flags, 1)?;
                if flags[0].raw() & 1 == 0 {
                    break;
                }
                slot += 1;
                continue;
            };
            let step = S::ENTRY_WORDS as usize;
            let in_use = run.iter().step_by(step).take_while(|f| f.raw() & 1 != 0);
            let passed = in_use.count() as u32;
            // Every flags word passed is read, and the unused one, if any.
            let read = (passed + 1).min(end - slot);
            self.pending += u64::from(read);
            slot += passed;
            if slot < end {
                break;
            }
        }
        self.flush(store);
        Ok(slot)
    }

    /// The words of entry `slot`, `None` if unused, charged as the codec
    /// reads them: the flags word, then for an entry in use the record.
    fn stored(&mut self, store: &mut S, slot: u32) -> Result<Option<S::Words>, S::Error> {
        let base = S::entry_base(slot);
        let mut e = S::Words::default();
        let words = e.as_mut();
        self.read(store, base + FLAGS, &mut words[FLAGS as usize..][..1], 1)?;
        let in_use = words[FLAGS as usize].raw() & 1 != 0;
        if in_use {
            self.read(store, base, &mut words[..Self::SPAN], S::RECORD)?;
        }
        self.flush(store);
        Ok(in_use.then_some(e))
    }

    /// Entry `slot`, decoded; `None` if unused.
    ///
    /// # Errors
    ///
    /// Whatever a page touch reports.
    pub fn entry(&mut self, store: &mut S, slot: u32) -> Result<Option<S::Entry>, S::Error> {
        Ok(self.stored(store, slot)?.map(|e| S::decode(e.as_ref())))
    }

    /// The search: the first slot below `count` in use and named by
    /// `key`, decoded. Every slot passed costs a PL/I block, due before
    /// the slot's first word: it waits with the core accesses for the
    /// charge before the next page touch, so it lands in the same place.
    /// The slots whose words lie on the page the reader holds are read as
    /// one run, and a match among them is decoded in place; the slot that
    /// enters a page or straddles two is read as [`EntryReader::entry`]
    /// reads it.
    ///
    /// # Errors
    ///
    /// Whatever a page touch reports.
    pub fn find(
        &mut self,
        store: &mut S,
        count: u32,
        key: &NameKey,
    ) -> Result<Option<(u32, S::Entry)>, S::Error> {
        if store.reference() {
            return self.find_per_slot(store, count, key);
        }
        let named = |words: &[Word]| key.matches(name_words(words));
        let mut slot = 0;
        while slot < count {
            let span = Self::SPAN as u32;
            let Some((end, run)) = self.run(&store.machine().mem, slot, count, 0, span) else {
                self.blocks += 1;
                if let Some(e) = self.stored(store, slot)?.filter(|e| named(e.as_ref())) {
                    return Ok(Some((slot, S::decode(e.as_ref()))));
                }
                slot += 1;
                continue;
            };
            let (mut in_use, mut found) = (0, None);
            for (words, at) in run.chunks(S::ENTRY_WORDS as usize).zip(slot..) {
                if words[FLAGS as usize].raw() & 1 != 0 {
                    in_use += 1;
                    if named(words) {
                        found = Some((at, S::decode(words)));
                        break;
                    }
                }
            }
            // Each slot passed costs its block and its flags word, and
            // each one in use its record.
            let passed = u64::from(found.as_ref().map_or(end, |(at, _)| at + 1) - slot);
            self.blocks += passed;
            self.pending += passed + in_use * Self::RECORD_READS;
            if found.is_some() {
                self.flush(store);
                return Ok(found);
            }
            slot = end;
        }
        self.flush(store);
        Ok(None)
    }

    /// The reference for [`EntryReader::find`]: the loop the walk
    /// replaced, each slot's PL/I block charged before the slot's first
    /// word is read.
    fn find_per_slot(
        &mut self,
        store: &mut S,
        count: u32,
        key: &NameKey,
    ) -> Result<Option<(u32, S::Entry)>, S::Error> {
        for slot in 0..count {
            let m = store.machine();
            let cost = m.cost;
            m.clock
                .charge_instructions(&cost, S::SLOT_INSTR, Language::Pli);
            if let Some(e) = self.stored(store, slot)? {
                if key.matches(name_words(e.as_ref())) {
                    return Ok(Some((slot, S::decode(e.as_ref()))));
                }
            }
        }
        Ok(None)
    }
}
