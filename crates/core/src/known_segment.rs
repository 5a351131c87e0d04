//! The Known Segment Manager.
//!
//! Maps each process's segment numbers to segment unique identifiers —
//! and, crucially, carries the **statically bound quota cell name** for
//! every known segment, recorded when the segment was made known. The
//! hardware quota exception "invokes the known segment manager …
//! reporting the segment number and page number"; the manager translates
//! the segment number into a uid and invokes the segment manager, which
//! finds the quota cell by name — no hierarchy search anywhere.

use crate::disk_record::DiskRecordManager;
use crate::error::KernelError;
use crate::page_frame::PageFrameManager;
use crate::quota_cell::QuotaCellManager;
use crate::segment::SegmentManager;
use crate::types::{DiskHome, ProcessId, SegUid};
use mx_aim::{FlowTracker, Label};
use mx_hw::{IdMap, Known, Kst, Machine};

pub use mx_hw::MAX_SEGNO;

/// One known segment: everything activation needs, captured at
/// initiation so no directory is ever consulted afterwards.
#[derive(Debug, Clone)]
pub struct KstEntry {
    /// The segment's uid.
    pub uid: SegUid,
    /// Its disk home as of initiation (refreshed by moved-segment
    /// signals).
    pub home: DiskHome,
    /// The statically bound quota cell (uid of the controlling quota
    /// directory).
    pub cell: SegUid,
    /// True for directories.
    pub is_dir: bool,
    /// AIM label.
    pub label: Label,
    /// Effective read permission (ACL ∩ AIM, fixed at initiation).
    pub read: bool,
    /// Effective write permission.
    pub write: bool,
    /// Effective execute permission.
    pub execute: bool,
}

impl Known for KstEntry {
    fn uid(&self) -> SegUid {
        self.uid
    }
}

/// The known-segment object manager.
#[derive(Debug, Default)]
pub struct KnownSegmentManager {
    ksts: IdMap<ProcessId, Kst<KstEntry>>,
    /// Quota exceptions serviced (experiment counter).
    pub quota_exceptions: u64,
}

impl KnownSegmentManager {
    /// A fresh manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty KST for a new process.
    pub fn create_kst(&mut self, pid: ProcessId) {
        self.ksts.insert(pid, Kst::default());
    }

    /// Destroys a process's KST.
    pub fn destroy_kst(&mut self, pid: ProcessId) {
        self.ksts.remove(&pid);
    }

    /// Makes a segment known to a process, returning its segment number
    /// (the one it is known by already, if any: [`Kst::bind`]).
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchProcess`] / [`KernelError::KstFull`].
    pub fn bind(&mut self, pid: ProcessId, entry: KstEntry) -> Result<u32, KernelError> {
        let kst = self.ksts.get_mut(&pid).ok_or(KernelError::NoSuchProcess)?;
        kst.bind(entry).ok_or(KernelError::KstFull)
    }

    /// The KST entry for (process, segno).
    ///
    /// # Errors
    ///
    /// [`KernelError::NoAccess`] if the segment number is not known.
    pub fn lookup(&self, pid: ProcessId, segno: u32) -> Result<&KstEntry, KernelError> {
        let kst = self.ksts.get(&pid).ok_or(KernelError::NoSuchProcess)?;
        kst.get(segno).ok_or(KernelError::NoAccess)
    }

    /// The segment number a uid is known by in a process, if any.
    pub fn segno_of(&self, pid: ProcessId, uid: SegUid) -> Option<u32> {
        self.ksts.get(&pid)?.segno_of(uid)
    }

    /// Unbinds a segment number.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoAccess`] if it was not bound.
    pub fn unbind(&mut self, pid: ProcessId, segno: u32) -> Result<KstEntry, KernelError> {
        let kst = self.ksts.get_mut(&pid).ok_or(KernelError::NoSuchProcess)?;
        kst.unbind(segno).ok_or(KernelError::NoAccess)
    }

    /// Refreshes the recorded disk home of a uid everywhere it is known
    /// (applied when the moved-segment signal is consumed).
    pub fn refresh_home(&mut self, uid: SegUid, new_home: DiskHome) {
        for kst in self.ksts.values_mut() {
            for entry in kst.entries_mut().filter(|e| e.uid == uid) {
                entry.home = new_home;
            }
        }
    }

    /// Services the hardware **quota exception**: translates the segment
    /// number to a uid, ensures the segment is active (activation
    /// parameters all come from the KST entry), and asks the segment
    /// manager to grow it under its statically bound cell.
    ///
    /// # Errors
    ///
    /// Quota and disk errors from below, or the propagating upward
    /// signal ([`KernelError::Upward`]).
    #[allow(clippy::too_many_arguments)]
    pub fn quota_exception(
        &mut self,
        machine: &mut Machine,
        drm: &mut DiskRecordManager,
        qcm: &mut QuotaCellManager,
        pfm: &mut PageFrameManager,
        segm: &mut SegmentManager,
        flows: &mut FlowTracker,
        pid: ProcessId,
        segno: u32,
        pageno: u32,
        subject: Label,
    ) -> Result<(), KernelError> {
        self.quota_exceptions += 1;
        crate::charge_pli(machine, 25);
        let entry = self.lookup(pid, segno)?.clone();
        segm.activate(
            machine,
            drm,
            qcm,
            pfm,
            entry.uid,
            entry.home,
            entry.cell,
            entry.is_dir,
            entry.label,
        )?;
        segm.grow(machine, drm, qcm, pfm, flows, entry.uid, pageno, subject)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mx_hw::{PackId, TocIndex};

    fn entry(uid: u64) -> KstEntry {
        KstEntry {
            uid: SegUid(uid),
            home: DiskHome {
                pack: PackId(0),
                toc: TocIndex(0),
            },
            cell: SegUid(1),
            is_dir: false,
            label: Label::BOTTOM,
            read: true,
            write: true,
            execute: false,
        }
    }

    #[test]
    fn bind_lookup_unbind_cycle() {
        let mut ksm = KnownSegmentManager::new();
        let pid = ProcessId(0);
        ksm.create_kst(pid);
        let segno = ksm.bind(pid, entry(9)).unwrap();
        assert!(segno >= 1, "segno 0 reserved");
        assert_eq!(ksm.lookup(pid, segno).unwrap().uid, SegUid(9));
        assert_eq!(ksm.segno_of(pid, SegUid(9)), Some(segno));
        ksm.unbind(pid, segno).unwrap();
        assert!(ksm.lookup(pid, segno).is_err());
    }

    #[test]
    fn rebinding_the_same_uid_reuses_the_segno() {
        let mut ksm = KnownSegmentManager::new();
        let pid = ProcessId(0);
        ksm.create_kst(pid);
        let a = ksm.bind(pid, entry(9)).unwrap();
        let b = ksm.bind(pid, entry(9)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn refresh_home_updates_every_kst() {
        let mut ksm = KnownSegmentManager::new();
        for p in 0..2 {
            let pid = ProcessId(p);
            ksm.create_kst(pid);
            ksm.bind(pid, entry(9)).unwrap();
        }
        let new_home = DiskHome {
            pack: PackId(1),
            toc: TocIndex(5),
        };
        ksm.refresh_home(SegUid(9), new_home);
        for p in 0..2 {
            let pid = ProcessId(p);
            let segno = ksm.segno_of(pid, SegUid(9)).unwrap();
            assert_eq!(ksm.lookup(pid, segno).unwrap().home, new_home);
        }
    }

    #[test]
    fn kst_fills_at_max_segno_and_reuses_the_lowest_free_segno() {
        let mut ksm = KnownSegmentManager::new();
        let pid = ProcessId(0);
        ksm.create_kst(pid);
        for uid in 1..MAX_SEGNO {
            assert_eq!(ksm.bind(pid, entry(u64::from(uid))), Ok(uid));
        }
        assert_eq!(
            ksm.bind(pid, entry(u64::from(MAX_SEGNO))),
            Err(KernelError::KstFull)
        );
        assert_eq!(
            ksm.lookup(pid, MAX_SEGNO).unwrap_err(),
            KernelError::NoAccess
        );
        ksm.unbind(pid, 700).unwrap();
        ksm.unbind(pid, 5).unwrap();
        assert_eq!(
            ksm.bind(pid, entry(9_000)),
            Ok(5),
            "lowest free segno first"
        );
        assert_eq!(ksm.bind(pid, entry(9_001)), Ok(700));
        assert_eq!(ksm.bind(pid, entry(9_002)), Err(KernelError::KstFull));
    }

    #[test]
    fn unknown_process_and_segno_are_errors() {
        let mut ksm = KnownSegmentManager::new();
        assert_eq!(
            ksm.bind(ProcessId(3), entry(1)),
            Err(KernelError::NoSuchProcess)
        );
        ksm.create_kst(ProcessId(3));
        assert_eq!(
            ksm.lookup(ProcessId(3), 7).unwrap_err(),
            KernelError::NoAccess,
            "unknown segno is indistinguishable from forbidden"
        );
    }
}
