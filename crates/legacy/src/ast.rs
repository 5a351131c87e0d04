//! The active segment table and page-table pool.
//!
//! The AST is segment control's central data base — and, in the old
//! supervisor, everybody else's too: page control reads it directly to
//! identify a faulting page with its segment and to find the nearest
//! superior quota directory, and segment control's management of it "is
//! constrained to follow the shape of the directory hierarchy": a
//! directory's entry is threaded to its superior's (always present)
//! entry, and a directory may never be deactivated while inferior
//! segments are active.

use crate::types::{DiskHome, ProcessId, SegUid};
use mx_aim::Label;
use mx_hw::AbsAddr;

pub use mx_hw::PT_WORDS;

/// The cached quota cell of a quota directory, held in its AST entry
/// while the directory is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaCell {
    /// Page limit for the controlled region.
    pub limit: u32,
    /// Pages currently charged.
    pub used: u32,
}

/// One active segment table entry.
#[derive(Debug, Clone)]
pub struct Aste {
    /// The segment's unique identifier.
    pub uid: SegUid,
    /// Current disk home (pack + TOC index); rewritten by relocation.
    pub home: DiskHome,
    /// Which page-table pool slot holds this segment's page table.
    pub pt_slot: usize,
    /// Current segment length in pages.
    pub len_pages: u32,
    /// True for directory segments.
    pub is_dir: bool,
    /// AST index of the superior directory's entry. `None` only for the
    /// root. Segment control keeps the superior active, so the link is
    /// always valid — this is the chain page control's quota walk
    /// follows.
    pub parent: Option<usize>,
    /// Number of active inferior segments (blocks deactivation).
    pub inferiors: u32,
    /// Quota cell if this is a quota directory.
    pub quota: Option<QuotaCell>,
    /// Where this segment's directory entry lives: superior's AST index
    /// plus entry slot. Maintained for segment control's benefit by the
    /// naming layers (the shared-data dependency the paper calls out in
    /// the full-pack case). `None` for the root.
    pub dir_home: Option<(usize, u32)>,
    /// Processes connected to this segment: (process, segment number),
    /// for SDW invalidation at deactivation or relocation.
    pub connections: Vec<(ProcessId, u32)>,
    /// AIM label of the segment's contents.
    pub label: Label,
}

/// The active segment table plus the page-table pool it allocates from.
#[derive(Debug, Clone)]
pub struct ActiveSegmentTable {
    entries: Vec<Option<Aste>>,
    /// Base of the wired page-table pool in core.
    pt_pool_base: AbsAddr,
    pt_free: Vec<bool>,
}

impl ActiveSegmentTable {
    /// Creates an AST with `slots` entries whose page tables live in a
    /// wired pool starting at `pt_pool_base` (each slot owns
    /// [`PT_WORDS`] words).
    pub fn new(slots: usize, pt_pool_base: AbsAddr) -> Self {
        Self {
            entries: (0..slots).map(|_| None).collect(),
            pt_pool_base,
            pt_free: vec![true; slots],
        }
    }

    /// Core words the page-table pool occupies.
    pub fn pt_pool_words(slots: usize) -> u64 {
        slots as u64 * PT_WORDS as u64
    }

    /// Absolute address of the page table in a pool slot.
    pub fn pt_addr(&self, slot: usize) -> AbsAddr {
        self.pt_pool_base.add(slot as u64 * PT_WORDS as u64)
    }

    /// Number of AST slots.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Number of active segments.
    pub fn active_count(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Activates a segment: claims an AST slot and a page-table slot.
    ///
    /// Returns the new AST index, or `None` if the table is full.
    pub fn activate(&mut self, mut aste: Aste) -> Option<usize> {
        let astx = self.entries.iter().position(|e| e.is_none())?;
        let pt_slot = self.pt_free.iter().position(|f| *f)?;
        self.pt_free[pt_slot] = false;
        aste.pt_slot = pt_slot;
        if let Some(p) = aste.parent {
            if let Some(parent) = self.entries[p].as_mut() {
                parent.inferiors += 1;
            }
        }
        self.entries[astx] = Some(aste);
        Some(astx)
    }

    /// Removes an entry, releasing its page-table slot and decrementing
    /// the superior's inferior count. The caller must have flushed pages
    /// and persisted the quota cell first.
    ///
    /// # Panics
    ///
    /// Panics if the entry still has active inferiors (the hierarchy
    /// constraint) or does not exist.
    pub fn deactivate(&mut self, astx: usize) -> Aste {
        let aste = self.entries[astx]
            .take()
            .expect("deactivating a free AST slot");
        assert_eq!(
            aste.inferiors, 0,
            "deactivating a directory with active inferiors"
        );
        self.pt_free[aste.pt_slot] = true;
        if let Some(p) = aste.parent {
            if let Some(parent) = self.entries[p].as_mut() {
                parent.inferiors -= 1;
            }
        }
        aste
    }

    /// Shared access to an entry.
    pub fn get(&self, astx: usize) -> Option<&Aste> {
        self.entries.get(astx).and_then(|e| e.as_ref())
    }

    /// Mutable access to an entry.
    pub fn get_mut(&mut self, astx: usize) -> Option<&mut Aste> {
        self.entries.get_mut(astx).and_then(|e| e.as_mut())
    }

    /// Finds the AST index of an active segment by uid.
    pub fn find(&self, uid: SegUid) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.as_ref().is_some_and(|a| a.uid == uid))
    }

    /// Walks parent links from `astx` to the nearest entry with a quota
    /// cell, returning `(ast index, levels walked)`.
    ///
    /// This is the dynamic upward search the paper's new design
    /// eliminates; the level count feeds the cycle charge.
    pub fn nearest_quota_dir(&self, astx: usize) -> Option<(usize, u32)> {
        let mut current = astx;
        let mut levels = 0;
        loop {
            let aste = self.get(current)?;
            if aste.quota.is_some() {
                return Some((current, levels));
            }
            current = aste.parent?;
            levels += 1;
        }
    }

    /// Iterates over `(astx, entry)` pairs for active segments.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Aste)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|a| (i, a)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mx_hw::frames::Page;
    use mx_hw::{FrameNo, FrameTable, PackId, TocIndex};

    fn aste(uid: u64, parent: Option<usize>) -> Aste {
        Aste {
            uid: SegUid(uid),
            home: DiskHome {
                pack: PackId(0),
                toc: TocIndex(0),
            },
            pt_slot: 0,
            len_pages: 0,
            is_dir: true,
            parent,
            inferiors: 0,
            quota: None,
            dir_home: None,
            connections: Vec::new(),
            label: Label::BOTTOM,
        }
    }

    #[test]
    fn activate_links_parent_inferiors() {
        let mut ast = ActiveSegmentTable::new(4, AbsAddr(1024));
        let root = ast.activate(aste(1, None)).unwrap();
        let child = ast.activate(aste(2, Some(root))).unwrap();
        assert_eq!(ast.get(root).unwrap().inferiors, 1);
        ast.deactivate(child);
        assert_eq!(ast.get(root).unwrap().inferiors, 0);
    }

    #[test]
    #[should_panic(expected = "active inferiors")]
    fn cannot_deactivate_with_active_inferiors() {
        let mut ast = ActiveSegmentTable::new(4, AbsAddr(1024));
        let root = ast.activate(aste(1, None)).unwrap();
        let _child = ast.activate(aste(2, Some(root))).unwrap();
        ast.deactivate(root);
    }

    #[test]
    fn quota_walk_finds_nearest_superior() {
        let mut ast = ActiveSegmentTable::new(8, AbsAddr(1024));
        let mut root = aste(1, None);
        root.quota = Some(QuotaCell {
            limit: 100,
            used: 0,
        });
        let root = ast.activate(root).unwrap();
        let mid = ast.activate(aste(2, Some(root))).unwrap();
        let mut qdir = aste(3, Some(mid));
        qdir.quota = Some(QuotaCell { limit: 10, used: 0 });
        let qdir = ast.activate(qdir).unwrap();
        let leaf = ast.activate(aste(4, Some(qdir))).unwrap();
        assert_eq!(ast.nearest_quota_dir(leaf), Some((qdir, 1)));
        assert_eq!(ast.nearest_quota_dir(mid), Some((root, 1)));
        assert_eq!(ast.nearest_quota_dir(root), Some((root, 0)));
        // A deeper leaf under mid walks two levels to the root cell.
        let deep = ast.activate(aste(5, Some(mid))).unwrap();
        assert_eq!(ast.nearest_quota_dir(deep), Some((root, 2)));
    }

    #[test]
    fn pt_slots_are_recycled() {
        let mut ast = ActiveSegmentTable::new(2, AbsAddr(2048));
        let a = ast.activate(aste(1, None)).unwrap();
        let slot_a = ast.get(a).unwrap().pt_slot;
        assert_eq!(ast.pt_addr(slot_a), AbsAddr(2048));
        let b = ast.activate(aste(2, None)).unwrap();
        assert_ne!(ast.get(b).unwrap().pt_slot, slot_a);
        assert!(ast.activate(aste(3, None)).is_none(), "table full");
        ast.deactivate(a);
        let c = ast.activate(aste(4, None)).unwrap();
        assert_eq!(ast.get(c).unwrap().pt_slot, slot_a, "slot reused");
    }

    #[test]
    fn find_by_uid() {
        let mut ast = ActiveSegmentTable::new(2, AbsAddr(0));
        let a = ast.activate(aste(42, None)).unwrap();
        assert_eq!(ast.find(SegUid(42)), Some(a));
        assert_eq!(ast.find(SegUid(43)), None);
    }

    #[test]
    fn frame_table_alloc_release_cycle() {
        let mut ft = FrameTable::new(8, 4);
        assert_eq!(ft.pageable(), 4);
        let f = ft.take(0, 0).unwrap();
        assert_eq!(f, FrameNo(4));
        assert_eq!(
            ft.page(f),
            Some(Page {
                owner: 0,
                pageno: 0
            })
        );
        ft.release(f);
        assert_eq!(ft.page(f), None);
    }

    #[test]
    fn clock_hand_wraps_over_pageable_frames() {
        let mut ft = FrameTable::new(6, 4);
        let seq: Vec<u32> = (0..5).map(|_| ft.tick().0).collect();
        assert_eq!(seq, vec![4, 5, 4, 5, 4]);
    }

    #[test]
    fn frames_of_collects_a_segments_pages() {
        let mut ft = FrameTable::new(8, 2);
        let f1 = ft.take(3, 0).unwrap();
        let _f2 = ft.take(4, 0).unwrap();
        let f3 = ft.take(3, 7).unwrap();
        let first = ft.next_owned(3, None);
        assert_eq!(first, Some((f1, 0)));
        assert_eq!(ft.next_owned(3, Some(f1)), Some((f3, 7)));
        assert_eq!(ft.next_owned(3, Some(f3)), None);
    }

    #[test]
    #[should_panic(expected = "wired")]
    fn releasing_wired_frame_panics() {
        let mut ft = FrameTable::new(4, 2);
        ft.release(FrameNo(0));
    }
}
