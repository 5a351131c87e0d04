//! The known segment table both designs keep per process: segment
//! number → the design's entry for the segment known by that number.
//!
//! The numbering rule is one rule: number 0 is reserved, a uid the
//! process already knows gets its existing number back, any other uid
//! takes the lowest free number, and the table is full when every number
//! below [`MAX_SEGNO`] is taken. The table grows on demand, so a process
//! that knows few segments holds a short table. What an entry records
//! (access, disk home, quota cell) is each design's own.

use crate::ids::SegUid;
use crate::mem::PAGE_WORDS;

/// Segment numbers per process: the SDWs one descriptor-segment frame
/// holds.
pub const MAX_SEGNO: u32 = PAGE_WORDS as u32;

/// What the table needs of a design's entry: the segment it makes known.
pub trait Known {
    /// The uid of the segment this entry makes known.
    fn uid(&self) -> SegUid;
}

/// A process's known segment table.
#[derive(Debug, Clone)]
pub struct Kst<E>(Vec<Option<E>>);

impl<E> Default for Kst<E> {
    /// An empty table: number 0 only, reserved.
    fn default() -> Self {
        Kst(vec![None])
    }
}

impl<E: Known> Kst<E> {
    /// Makes `entry` known and returns its segment number: the number
    /// its uid is known by already (that entry stays as it is), else the
    /// lowest free number. `None` when all [`MAX_SEGNO`] numbers are
    /// taken.
    pub fn bind(&mut self, entry: E) -> Option<u32> {
        if let Some(segno) = self.segno_of(entry.uid()) {
            return Some(segno);
        }
        let free = self.0.iter().skip(1).position(Option::is_none);
        let segno = free.map_or(self.0.len(), |i| i + 1);
        if segno >= MAX_SEGNO as usize {
            return None;
        }
        if segno == self.0.len() {
            self.0.push(None);
        }
        self.0[segno] = Some(entry);
        Some(segno as u32)
    }

    /// The entry known at `segno`, if any.
    pub fn get(&self, segno: u32) -> Option<&E> {
        self.0.get(segno as usize)?.as_ref()
    }

    /// The segment number `uid` is known by, if any.
    pub fn segno_of(&self, uid: SegUid) -> Option<u32> {
        let known = |e: &Option<E>| e.as_ref().is_some_and(|k| k.uid() == uid);
        self.0.iter().position(known).map(|i| i as u32)
    }

    /// Forgets the entry at `segno` and returns it; its number is free
    /// again.
    pub fn unbind(&mut self, segno: u32) -> Option<E> {
        self.0.get_mut(segno as usize)?.take()
    }

    /// Every entry, in segment-number order.
    pub fn entries_mut(&mut self) -> impl Iterator<Item = &mut E> {
        self.0.iter_mut().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    impl Known for SegUid {
        fn uid(&self) -> SegUid {
            *self
        }
    }

    /// The rule written as plainly as possible: a full-length vector,
    /// searched from the bottom every time.
    struct Naive(Vec<Option<SegUid>>);

    impl Naive {
        fn bind(&mut self, uid: SegUid) -> Option<u32> {
            if let Some(segno) = self.0.iter().position(|&e| e == Some(uid)) {
                return Some(segno as u32);
            }
            let segno = (1..MAX_SEGNO as usize).find(|&i| self.0[i].is_none())?;
            self.0[segno] = Some(uid);
            Some(segno as u32)
        }
    }

    /// Seeded binds of new and known uids and unbinds of bound and
    /// unbound numbers give the naive model's numbers and entries after
    /// every step. Floors make sure the walk filled the table, rebound
    /// known uids and reused a hole below the top.
    #[test]
    fn the_table_numbers_as_the_naive_model_does() {
        let mut rng = SplitMix64::new(0x5E6_0000);
        let (mut kst, mut naive) = (Kst::default(), Naive(vec![None; MAX_SEGNO as usize]));
        let (mut full, mut reused, mut holes) = (0, 0, 0);
        let mut next_uid = 1;
        for step in 0..12_000 {
            // Fill fast at first, then churn near the top.
            let unbind_odds = if step < 2_000 { 1 } else { 5 };
            if rng.below(10) < unbind_odds {
                let segno = rng.below(u64::from(MAX_SEGNO) + 8) as u32;
                let want = naive.0.get_mut(segno as usize).and_then(Option::take);
                assert_eq!(kst.unbind(segno), want, "unbind {segno}");
                continue;
            }
            let uid = if rng.chance(1, 4) && next_uid > 1 {
                SegUid(rng.range_u64(1, next_uid))
            } else {
                next_uid += 1;
                SegUid(next_uid - 1)
            };
            let known = naive.0.contains(&Some(uid));
            let top = naive.0.iter().rposition(Option::is_some).unwrap_or(0);
            let segno = naive.bind(uid);
            assert_eq!(kst.bind(uid), segno, "bind {uid:?} at step {step}");
            match segno {
                None => full += 1,
                Some(_) if known => reused += 1,
                Some(s) if (s as usize) < top => holes += 1,
                Some(_) => {}
            }
            for (s, want) in naive.0.iter().enumerate() {
                assert_eq!(kst.get(s as u32), want.as_ref(), "segno {s}");
            }
            assert_eq!(kst.get(MAX_SEGNO), None);
        }
        assert!(full >= 20, "{full} binds refused by a full table");
        assert!(reused >= 100, "{reused} known uids given their number back");
        assert!(holes >= 100, "{holes} binds into a hole below the top");
    }

    #[test]
    fn number_zero_is_reserved_and_the_table_grows_on_demand() {
        let mut kst = Kst::default();
        assert_eq!(kst.get(0), None);
        assert_eq!(kst.unbind(0), None);
        assert_eq!(kst.bind(SegUid(0)), Some(1), "even uid 0 starts at 1");
        assert_eq!(kst.0.len(), 2);
        assert_eq!(kst.bind(SegUid(0)), Some(1));
        assert_eq!(kst.0.len(), 2, "a rebind takes no number");
        assert_eq!(kst.segno_of(SegUid(0)), Some(1));
        for e in kst.entries_mut() {
            *e = SegUid(9);
        }
        assert_eq!(kst.segno_of(SegUid(9)), Some(1));
    }
}
