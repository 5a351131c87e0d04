//! The frame table both designs keep: which page each core frame holds,
//! and the replacement clock hand over the pageable frames.
//!
//! The frames below the first pageable one are wired (low core, the
//! page-table pool, descriptor segments) and never hold a page. Each
//! design keeps its own replacement policy and names a page's owner in
//! its own terms: the kernel by its page-table slot, the 1974 supervisor
//! by the segment's AST index.
//!
//! Two pieces of host bookkeeping spare the table sweeps without moving
//! any choice the sweeps made. A free floor marks the lowest frame that
//! may be free, so a claim starts there and still takes the lowest free
//! frame. Each owner's frames are kept in ascending order, so
//! [`FrameTable::next_owned`] walks the owner's pages in ascending frame
//! order without walking the table or building a listing.

use crate::mem::FrameNo;

/// A page resident in a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Page {
    /// The design's name for the page's segment.
    pub owner: u32,
    /// Page number within the segment.
    pub pageno: u32,
}

/// Who holds each core frame, plus the clock hand for page replacement.
#[derive(Debug, Clone)]
pub struct FrameTable {
    pages: Vec<Option<Page>>,
    first_pageable: u32,
    clock_hand: u32,
    /// Every pageable frame below this one holds a page.
    floor: u32,
    /// Each owner's frames in ascending order, indexed by owner.
    frames_of: Vec<Vec<u32>>,
}

impl FrameTable {
    /// A table over `frames` frames, the first `first_pageable` of which
    /// are wired; every pageable frame starts free.
    ///
    /// # Panics
    ///
    /// Panics if more frames are wired than exist.
    pub fn new(frames: usize, first_pageable: u32) -> Self {
        assert!(
            first_pageable as usize <= frames,
            "{first_pageable} wired frames of {frames}"
        );
        Self {
            pages: vec![None; frames],
            first_pageable,
            clock_hand: first_pageable,
            floor: first_pageable,
            frames_of: Vec::new(),
        }
    }

    /// Number of pageable frames.
    pub fn pageable(&self) -> u32 {
        self.pages.len() as u32 - self.first_pageable
    }

    /// The page in `frame`, or `None` for a free or wired frame.
    pub fn page(&self, frame: FrameNo) -> Option<Page> {
        self.pages[frame.0 as usize]
    }

    /// Number of pages `owner` has resident.
    pub fn resident(&self, owner: u32) -> u32 {
        self.frames_of.get(owner as usize).map_or(0, Vec::len) as u32
    }

    /// Gives the lowest free pageable frame to page `pageno` of `owner`,
    /// if any frame is free.
    pub fn take(&mut self, owner: u32, pageno: u32) -> Option<FrameNo> {
        let floor = self.floor as usize;
        let Some(i) = self.pages[floor..].iter().position(Option::is_none) else {
            self.floor = self.pages.len() as u32;
            return None;
        };
        let frame = (floor + i) as u32;
        self.pages[frame as usize] = Some(Page { owner, pageno });
        self.floor = frame + 1;
        let owner = owner as usize;
        if owner >= self.frames_of.len() {
            self.frames_of.resize_with(owner + 1, Vec::new);
        }
        let frames = &mut self.frames_of[owner];
        frames.insert(frames.partition_point(|&f| f < frame), frame);
        Some(FrameNo(frame))
    }

    /// Frees the page in `frame`.
    ///
    /// # Panics
    ///
    /// Panics if the frame is wired or already free.
    pub fn release(&mut self, frame: FrameNo) {
        assert!(frame.0 >= self.first_pageable, "releasing a wired frame");
        let page = self.pages[frame.0 as usize]
            .take()
            .expect("releasing a free frame");
        let frames = &mut self.frames_of[page.owner as usize];
        let at = frames
            .binary_search(&frame.0)
            .expect("a taken frame is listed under its owner");
        frames.remove(at);
        self.floor = self.floor.min(frame.0);
    }

    /// Advances the clock hand and returns the frame it pointed at
    /// (pageable frames only, wrapping).
    pub fn tick(&mut self) -> FrameNo {
        let frame = FrameNo(self.clock_hand);
        self.clock_hand += 1;
        if self.clock_hand as usize >= self.pages.len() {
            self.clock_hand = self.first_pageable;
        }
        frame
    }

    /// The lowest frame above `after` holding a page of `owner`, with its
    /// page number; `None` for `after` starts at the owner's lowest frame.
    ///
    /// A walk that passes back each frame it is handed visits the owner's
    /// frames in ascending order. It may free the frame it was handed
    /// before asking for the next, and still visits exactly the frames
    /// the owner held when the walk began, so long as it takes no frame
    /// for that owner and frees no other of its frames on the way: each
    /// design's flush, truncation and deletion walks this way.
    pub fn next_owned(&self, owner: u32, after: Option<FrameNo>) -> Option<(FrameNo, u32)> {
        let frames = self.frames_of.get(owner as usize)?;
        let at = after.map_or(0, |a| frames.partition_point(|&f| f <= a.0));
        let &f = frames.get(at)?;
        let page = self.pages[f as usize].expect("a listed frame holds a page");
        Some((FrameNo(f), page.pageno))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// The table without its floor and counts: every claim and every
    /// owner's listing sweeps from the first pageable frame.
    struct SweepTable {
        pages: Vec<Option<Page>>,
        first_pageable: usize,
    }

    impl SweepTable {
        fn take(&mut self, owner: u32, pageno: u32) -> Option<FrameNo> {
            let i = self.pages[self.first_pageable..]
                .iter()
                .position(Option::is_none)?;
            let frame = self.first_pageable + i;
            self.pages[frame] = Some(Page { owner, pageno });
            Some(FrameNo(frame as u32))
        }

        fn owned(&self, owner: u32) -> Vec<(FrameNo, u32)> {
            (self.first_pageable..self.pages.len())
                .filter_map(|f| match self.pages[f] {
                    Some(p) if p.owner == owner => Some((FrameNo(f as u32), p.pageno)),
                    _ => None,
                })
                .collect()
        }
    }

    /// An owner's pages as a walk of [`FrameTable::next_owned`] visits
    /// them.
    fn listing(table: &FrameTable, owner: u32) -> Vec<(FrameNo, u32)> {
        let mut out = Vec::new();
        let mut at = None;
        while let Some((frame, pageno)) = table.next_owned(owner, at) {
            at = Some(frame);
            out.push((frame, pageno));
        }
        out
    }

    #[test]
    fn claims_and_listings_match_the_sweeping_twin_on_random_sequences() {
        // Releases below the floor, listings of an owner with nothing
        // resident, claims refused by a full table, and flushes that
        // freed two or more frames as they walked.
        let (mut below_floor, mut none_resident, mut full) = (0, 0, 0);
        let mut flushed = 0;
        for seed in 0..16u64 {
            let mut rng = SplitMix64::new(0xF4A3_0000 + seed);
            let (frames, wired) = (rng.range_usize(6, 40), rng.range_u32(0, 5));
            let mut table = FrameTable::new(frames, wired);
            let mut twin = SweepTable {
                pages: vec![None; frames],
                first_pageable: wired as usize,
            };
            for step in 0..2_000 {
                if rng.chance(1, 20) {
                    // A flush as the designs walk one: each frame the walk
                    // hands back is freed before the next is asked for.
                    let owner = rng.range_u32(0, 6);
                    let held = twin.owned(owner);
                    let mut walked = Vec::new();
                    let mut at = None;
                    while let Some((frame, pageno)) = table.next_owned(owner, at) {
                        at = Some(frame);
                        walked.push((frame, pageno));
                        table.release(frame);
                        twin.pages[frame.0 as usize] = None;
                    }
                    assert_eq!(walked, held, "seed {seed} step {step}");
                    flushed += usize::from(held.len() >= 2);
                } else if rng.chance(3, 5) {
                    let (owner, pageno) = (rng.range_u32(0, 6), rng.range_u32(0, 256));
                    let got = table.take(owner, pageno);
                    assert_eq!(got, twin.take(owner, pageno), "seed {seed} step {step}");
                    full += usize::from(got.is_none());
                } else {
                    let held: Vec<usize> =
                        (0..frames).filter(|&f| twin.pages[f].is_some()).collect();
                    if !held.is_empty() {
                        let frame = held[rng.below(held.len() as u64) as usize];
                        below_floor += usize::from((frame as u32) < table.floor);
                        table.release(FrameNo(frame as u32));
                        twin.pages[frame] = None;
                    }
                }
                assert_eq!(table.pages, twin.pages, "seed {seed} step {step}");
                for owner in 0..6 {
                    let owned = twin.owned(owner);
                    none_resident += usize::from(owned.is_empty());
                    assert_eq!(table.resident(owner) as usize, owned.len());
                    assert_eq!(listing(&table, owner), owned, "seed {seed} step {step}");
                }
            }
        }
        assert!(
            below_floor > 1_000,
            "{below_floor} releases below the floor"
        );
        assert!(
            none_resident > 1_000,
            "{none_resident} owners with nothing resident"
        );
        assert!(full > 1_000, "{full} claims refused by a full table");
        assert!(flushed > 200, "{flushed} flushes freed two or more frames");
    }

    #[test]
    fn releasing_an_owners_lowest_page_keeps_its_listing() {
        // Two owners interleaved over the table; most releases take an
        // owner's lowest frame, and its listing must still match the
        // sweep's.
        let mut lowest = 0;
        let mut rng = SplitMix64::new(0x10E5_7000);
        let (frames, wired) = (24, 3);
        let mut table = FrameTable::new(frames, wired);
        let mut twin = SweepTable {
            pages: vec![None; frames],
            first_pageable: wired as usize,
        };
        for step in 0..4_000 {
            let owner = rng.range_u32(0, 2);
            if rng.chance(1, 2) {
                assert_eq!(
                    table.take(owner, step),
                    twin.take(owner, step),
                    "step {step}"
                );
            } else if let Some(&(first, _)) = twin.owned(owner).first() {
                let frame = if rng.chance(3, 4) {
                    first
                } else {
                    let owned = twin.owned(owner);
                    owned[rng.below(owned.len() as u64) as usize].0
                };
                lowest += usize::from(frame == first);
                table.release(frame);
                twin.pages[frame.0 as usize] = None;
            }
            for owner in 0..2 {
                assert_eq!(listing(&table, owner), twin.owned(owner), "step {step}");
            }
        }
        assert!(
            lowest > 1_000,
            "{lowest} releases of an owner's lowest page"
        );
    }

    #[test]
    #[should_panic(expected = "free frame")]
    fn releasing_a_free_frame_panics() {
        let mut table = FrameTable::new(4, 2);
        table.release(FrameNo(3));
    }
}
