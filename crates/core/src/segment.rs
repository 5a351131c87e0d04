//! The Segment (active segment) Manager.
//!
//! Activates segments, grows them under their **statically bound** quota
//! cells, and relocates them when their pack fills. Two of the paper's
//! headline simplifications are visible directly in the signatures:
//!
//! * `activate` takes the disk home and the quota cell name — supplied
//!   from above by the known-segment manager — and never consults any
//!   directory. "As a result, the deactivation of segments by the active
//!   segment manager no longer is constrained by the shape of the
//!   directory hierarchy."
//!
//! * `grow` checks the quota with one call to the quota-cell manager
//!   (no upward search), calls the page-frame manager to add the page,
//!   and on a full pack relocates the segment itself and then raises the
//!   [`Signal::SegmentMoved`] **upward signal** — the quota and
//!   full-pack work is complete by the time the directory manager hears
//!   about it, and no activation record below awaits a return.

use crate::disk_record::DiskRecordManager;
use crate::error::{KernelError, Signal};
use crate::page_frame::{PageFrameManager, PtHandle};
use crate::quota_cell::QuotaCellManager;
use crate::types::{DiskHome, SegUid};
use mx_aim::{FlowTracker, Label};
use mx_hw::cpu::Sdw;
use mx_hw::{AbsAddr, IdMap, Machine, Subsystem};

/// One active segment.
#[derive(Debug, Clone)]
pub struct ActiveSeg {
    /// Paged-object handle in the page-frame manager.
    pub handle: PtHandle,
    /// Current disk home.
    pub home: DiskHome,
    /// The statically bound quota cell (the uid of the controlling quota
    /// directory).
    pub cell: SegUid,
    /// True for directory segments.
    pub is_dir: bool,
    /// AIM label of the contents.
    pub label: Label,
    /// Absolute addresses of connected SDWs, registered from above, so
    /// deactivation can cut every address space loose.
    pub connected_sdws: Vec<AbsAddr>,
}

/// Experiment counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SegStats {
    /// Activations performed.
    pub activations: u64,
    /// Deactivations performed.
    pub deactivations: u64,
    /// Whole-segment relocations (full packs).
    pub relocations: u64,
    /// Upward signals raised.
    pub upward_signals: u64,
}

/// The active-segment object manager.
#[derive(Debug, Default)]
pub struct SegmentManager {
    active: IdMap<SegUid, ActiveSeg>,
    /// Counters.
    pub stats: SegStats,
}

impl SegmentManager {
    /// A fresh manager with nothing active.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of active segments.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// The active entry for `uid`, if any.
    pub fn get(&self, uid: SegUid) -> Option<&ActiveSeg> {
        self.active.get(&uid)
    }

    /// Finds the uid bound to a page-table handle (fault routing).
    pub fn uid_of_handle(&self, handle: PtHandle) -> Option<SegUid> {
        self.active
            .iter()
            .find(|(_, s)| s.handle == handle)
            .map(|(u, _)| *u)
    }

    /// Activates a segment: loads its quota cell and binds a paged
    /// object. Requires nothing about the directory hierarchy.
    ///
    /// # Errors
    ///
    /// Table exhaustion or unknown-cell errors from below.
    #[allow(clippy::too_many_arguments)]
    pub fn activate(
        &mut self,
        machine: &mut Machine,
        drm: &mut DiskRecordManager,
        qcm: &mut QuotaCellManager,
        pfm: &mut PageFrameManager,
        uid: SegUid,
        home: DiskHome,
        cell: SegUid,
        is_dir: bool,
        label: Label,
    ) -> Result<PtHandle, KernelError> {
        if let Some(seg) = self.active.get(&uid) {
            return Ok(seg.handle);
        }
        crate::charge_pli(machine, 110);
        qcm.load(machine, drm, cell, label)?;
        let handle = match pfm.bind(machine, drm, home, Some(cell)) {
            Ok(h) => h,
            Err(e) => {
                qcm.unload(machine, drm, cell)?;
                return Err(e);
            }
        };
        self.active.insert(
            uid,
            ActiveSeg {
                handle,
                home,
                cell,
                is_dir,
                label,
                connected_sdws: Vec::new(),
            },
        );
        self.stats.activations += 1;
        Ok(handle)
    }

    /// Deactivates a segment — any segment, directory or not, regardless
    /// of what else is active: flushes and unbinds its pages, cuts every
    /// registered SDW, releases the quota cell reference.
    ///
    /// # Errors
    ///
    /// [`KernelError::NotActive`] if the segment is not active.
    pub fn deactivate(
        &mut self,
        machine: &mut Machine,
        drm: &mut DiskRecordManager,
        qcm: &mut QuotaCellManager,
        pfm: &mut PageFrameManager,
        uid: SegUid,
    ) -> Result<(), KernelError> {
        let seg = self.active.remove(&uid).ok_or(KernelError::NotActive)?;
        crate::charge_pli(machine, 85);
        pfm.unbind(machine, drm, qcm, seg.handle)?;
        for sdw_addr in &seg.connected_sdws {
            // Witness: descriptor words are segment control's data base.
            machine.clock.note_shared_data(Subsystem::SegmentControl);
            machine.mem.write(*sdw_addr, Sdw::default().encode());
            machine.tlb_invalidate_sdw(*sdw_addr);
        }
        qcm.unload(machine, drm, seg.cell)?;
        self.stats.deactivations += 1;
        Ok(())
    }

    /// The uids of every active segment, sorted (so shutdown sweeps are
    /// deterministic).
    pub fn active_uids(&self) -> Vec<SegUid> {
        let mut uids: Vec<SegUid> = self.active.keys().copied().collect();
        uids.sort();
        uids
    }

    /// Registers a connected SDW's core address so deactivation can cut
    /// it (called from the gatekeeper when it connects an address
    /// space).
    ///
    /// # Errors
    ///
    /// [`KernelError::NotActive`] if the segment is not active.
    pub fn register_connection(
        &mut self,
        uid: SegUid,
        sdw_addr: AbsAddr,
    ) -> Result<(), KernelError> {
        let seg = self.active.get_mut(&uid).ok_or(KernelError::NotActive)?;
        if !seg.connected_sdws.contains(&sdw_addr) {
            seg.connected_sdws.push(sdw_addr);
        }
        Ok(())
    }

    /// Grows a segment by one page (the quota-exception service): one
    /// direct quota charge, then page creation; a full pack triggers
    /// relocation and the upward signal.
    ///
    /// # Errors
    ///
    /// [`KernelError::QuotaExceeded`] (charge refused),
    /// [`KernelError::AllPacksFull`] (no pack can take the segment), or
    /// [`KernelError::Upward`] carrying [`Signal::SegmentMoved`] whenever
    /// the segment moved — only the directory entry update remains (a
    /// page not created is re-requested by the retry). Every failure
    /// gives the charge back.
    #[allow(clippy::too_many_arguments)]
    pub fn grow(
        &mut self,
        machine: &mut Machine,
        drm: &mut DiskRecordManager,
        qcm: &mut QuotaCellManager,
        pfm: &mut PageFrameManager,
        flows: &mut FlowTracker,
        uid: SegUid,
        pageno: u32,
        subject: Label,
    ) -> Result<(), KernelError> {
        let (handle, cell) = {
            let seg = self.active.get(&uid).ok_or(KernelError::NotActive)?;
            (seg.handle, seg.cell)
        };
        crate::charge_pli(machine, 35);
        qcm.charge(machine, cell, 1, subject, flows)?;
        let mut added = pfm.add_page(machine, drm, qcm, handle, pageno);
        let mut moved = None;
        if added == Err(KernelError::AllPacksFull) {
            // Full pack: relocate and retry the creation on the new home.
            added = self
                .relocate(machine, drm, qcm, pfm, uid)
                .and_then(|new_home| {
                    moved = Some(new_home);
                    pfm.add_page(machine, drm, qcm, handle, pageno)
                });
        }
        if added.is_err() {
            qcm.uncharge(machine, cell, 1)?;
        }
        match moved {
            Some(new_home) => {
                self.stats.upward_signals += 1;
                Err(KernelError::Upward(Signal::SegmentMoved { uid, new_home }))
            }
            None => added,
        }
    }

    /// Moves a segment, records and all, to the emptiest other pack
    /// through the disk record manager
    /// ([`DiskRecordManager::move_segment`]). The paged object keeps its
    /// handle (and page-table address), so connected address spaces
    /// remain valid.
    ///
    /// # Errors
    ///
    /// [`KernelError::AllPacksFull`] if no other pack has room for the
    /// segment and one page more; storage errors from the copy.
    pub fn relocate(
        &mut self,
        machine: &mut Machine,
        drm: &mut DiskRecordManager,
        qcm: &mut QuotaCellManager,
        pfm: &mut PageFrameManager,
        uid: SegUid,
    ) -> Result<DiskHome, KernelError> {
        let (handle, old) = {
            let seg = self.active.get(&uid).ok_or(KernelError::NotActive)?;
            (seg.handle, seg.home)
        };
        crate::charge_pli(machine, 380);
        pfm.flush(machine, drm, qcm, handle)?;
        // The move reads each record as a page-in does, so the failures
        // it absorbs are counted with the page-ins'.
        let (moved, absorbed) = drm.move_segment(machine, old);
        pfm.stats.transient_retries += u64::from(absorbed);
        let new_home = moved?;
        // The quota cell, if this segment is a quota directory, moved
        // with it: repoint the cell manager at the new home.
        qcm.update_home(uid, new_home);
        pfm.rebind_home(machine, drm, handle, new_home)?;
        self.active
            .get_mut(&uid)
            .ok_or(KernelError::NotActive)?
            .home = new_home;
        self.stats.relocations += 1;
        Ok(new_home)
    }

    /// Reads one word of an active segment from kernel state, servicing
    /// missing pages and creating never-used pages (a read of a hole
    /// materializes a zero page — and charges quota, the confinement
    /// side effect the paper analyses).
    ///
    /// # Errors
    ///
    /// Paging, quota, and upward-signal errors from below.
    #[allow(clippy::too_many_arguments)]
    pub fn read_word(
        &mut self,
        machine: &mut Machine,
        drm: &mut DiskRecordManager,
        qcm: &mut QuotaCellManager,
        pfm: &mut PageFrameManager,
        vpm: &mut crate::vproc::VirtualProcessorManager,
        flows: &mut FlowTracker,
        uid: SegUid,
        wordno: u32,
        subject: Label,
    ) -> Result<mx_hw::Word, KernelError> {
        let abs = self.touch_word(
            machine, drm, qcm, pfm, vpm, flows, uid, wordno, subject, false,
        )?;
        let cost = machine.cost;
        machine.clock.charge_core_access(&cost);
        Ok(machine.mem.read(abs))
    }

    /// Writes one word of an active segment from kernel state.
    ///
    /// # Errors
    ///
    /// Paging, quota, and upward-signal errors from below.
    #[allow(clippy::too_many_arguments)]
    pub fn write_word(
        &mut self,
        machine: &mut Machine,
        drm: &mut DiskRecordManager,
        qcm: &mut QuotaCellManager,
        pfm: &mut PageFrameManager,
        vpm: &mut crate::vproc::VirtualProcessorManager,
        flows: &mut FlowTracker,
        uid: SegUid,
        wordno: u32,
        value: mx_hw::Word,
        subject: Label,
    ) -> Result<(), KernelError> {
        let abs = self.touch_word(
            machine, drm, qcm, pfm, vpm, flows, uid, wordno, subject, true,
        )?;
        let cost = machine.cost;
        machine.clock.charge_core_access(&cost);
        machine.mem.write(abs, value);
        Ok(())
    }

    /// Brings the page under `wordno` resident and returns the word's
    /// absolute address, updating the descriptor's used/modified bits —
    /// everything of a word reference but the core access itself.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn touch_word(
        &mut self,
        machine: &mut Machine,
        drm: &mut DiskRecordManager,
        qcm: &mut QuotaCellManager,
        pfm: &mut PageFrameManager,
        vpm: &mut crate::vproc::VirtualProcessorManager,
        flows: &mut FlowTracker,
        uid: SegUid,
        wordno: u32,
        subject: Label,
        dirty: bool,
    ) -> Result<AbsAddr, KernelError> {
        let handle = self.active.get(&uid).ok_or(KernelError::NotActive)?.handle;
        let pageno = wordno / mx_hw::PAGE_WORDS as u32;
        if pageno >= crate::page_frame::PT_WORDS {
            return Err(KernelError::SegmentTooBig);
        }
        for _ in 0..4 {
            let ptw = pfm.ptw(machine, handle, pageno);
            if ptw.present {
                let mut p = ptw;
                p.used = true;
                p.modified |= dirty;
                machine
                    .mem
                    .write(pfm.pt_addr(handle).add(u64::from(pageno)), p.encode());
                return Ok(p
                    .frame
                    .base()
                    .add(u64::from(wordno % mx_hw::PAGE_WORDS as u32)));
            }
            if ptw.quota_trap {
                self.grow(machine, drm, qcm, pfm, flows, uid, pageno, subject)?;
            } else {
                pfm.service_missing(machine, drm, qcm, vpm, handle, pageno)?;
            }
        }
        Err(KernelError::NotActive)
    }

    /// Truncates an active segment to zero pages, uncharging its cell.
    ///
    /// # Errors
    ///
    /// [`KernelError::NotActive`] if the segment is not active.
    pub fn truncate(
        &mut self,
        machine: &mut Machine,
        drm: &mut DiskRecordManager,
        qcm: &mut QuotaCellManager,
        pfm: &mut PageFrameManager,
        uid: SegUid,
    ) -> Result<(), KernelError> {
        let (handle, home, cell) = {
            let seg = self.active.get(&uid).ok_or(KernelError::NotActive)?;
            (seg.handle, seg.home, seg.cell)
        };
        // Flush drops zero pages (uncharging them); then free whatever
        // records remain and re-arm every descriptor.
        pfm.flush(machine, drm, qcm, handle)?;
        let freed = drm.truncate(machine, home)?;
        if freed > 0 {
            qcm.uncharge(machine, cell, freed)?;
        }
        pfm.rebind_home(machine, drm, handle, home)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core_segment::CoreSegmentManager;
    use crate::vproc::VirtualProcessorManager;
    use mx_hw::{MachineConfig, PackId, Word};

    struct Rig {
        machine: Machine,
        drm: DiskRecordManager,
        qcm: QuotaCellManager,
        pfm: PageFrameManager,
        vpm: VirtualProcessorManager,
        segm: SegmentManager,
        flows: FlowTracker,
        cell: SegUid,
        uid: SegUid,
        home: DiskHome,
    }

    fn rig(records: u32, quota: u32) -> Rig {
        let mut machine = Machine::new(MachineConfig {
            frames: 64,
            packs: 2,
            records_per_pack: records,
            toc_slots_per_pack: 16,
            ..MachineConfig::kernel_proposed()
        });
        let mut csm = CoreSegmentManager::new(0, 10);
        let mut vpm = VirtualProcessorManager::new(&mut csm, 4).unwrap();
        let mut drm = DiskRecordManager::new();
        let mut qcm = QuotaCellManager::new(&mut csm).unwrap();
        qcm.bind_table_base(&csm);
        let mut pfm = PageFrameManager::new(&mut csm, &mut vpm, 8).unwrap();
        csm.seal();
        pfm.set_pageable_region(csm.end_frame(), 64);

        let cell = SegUid(1);
        let cell_toc = drm.create_entry(&mut machine, PackId(0), cell.0).unwrap();
        qcm.create_cell(
            &mut machine,
            &mut drm,
            cell,
            DiskHome {
                pack: PackId(0),
                toc: cell_toc,
            },
            quota,
            Label::BOTTOM,
        )
        .unwrap();
        let uid = SegUid(2);
        let toc = drm.create_entry(&mut machine, PackId(0), uid.0).unwrap();
        let home = DiskHome {
            pack: PackId(0),
            toc,
        };
        Rig {
            machine,
            drm,
            qcm,
            pfm,
            vpm,
            segm: SegmentManager::new(),
            flows: FlowTracker::new(),
            cell,
            uid,
            home,
        }
    }

    fn activate(r: &mut Rig) -> PtHandle {
        r.segm
            .activate(
                &mut r.machine,
                &mut r.drm,
                &mut r.qcm,
                &mut r.pfm,
                r.uid,
                r.home,
                r.cell,
                false,
                Label::BOTTOM,
            )
            .unwrap()
    }

    fn grow(r: &mut Rig, pageno: u32) -> Result<(), KernelError> {
        r.segm.grow(
            &mut r.machine,
            &mut r.drm,
            &mut r.qcm,
            &mut r.pfm,
            &mut r.flows,
            r.uid,
            pageno,
            Label::BOTTOM,
        )
    }

    #[test]
    fn activate_needs_no_hierarchy_and_is_idempotent() {
        let mut r = rig(32, 20);
        let h1 = activate(&mut r);
        let h2 = activate(&mut r);
        assert_eq!(h1, h2);
        assert_eq!(r.segm.stats.activations, 1);
        assert_eq!(r.segm.uid_of_handle(h1), Some(r.uid));
    }

    #[test]
    fn grow_charges_the_static_cell_directly() {
        let mut r = rig(32, 3);
        activate(&mut r);
        grow(&mut r, 0).unwrap();
        grow(&mut r, 1).unwrap();
        grow(&mut r, 2).unwrap();
        assert_eq!(r.qcm.cell_state(r.cell), Some((3, 3)));
        let err = grow(&mut r, 3).unwrap_err();
        assert_eq!(err, KernelError::QuotaExceeded { limit: 3, used: 3 });
        assert_eq!(r.qcm.charges, 4, "one direct hit per growth — no walking");
    }

    #[test]
    fn full_pack_relocates_and_raises_the_upward_signal() {
        let mut r = rig(6, 40);
        // A roomier third pack to take the relocated segment (pack 1 is
        // as small as pack 0 and could not absorb it).
        let big = r.machine.disks.attach(64, 16);
        activate(&mut r);
        // Pack 0 has 6 records; growth fills it and forces the move.
        let mut moved = None;
        for pageno in 0..8 {
            match grow(&mut r, pageno) {
                Ok(()) => {
                    // Make the page nonzero so flushes keep the records.
                    let ptw = r
                        .pfm
                        .ptw(&r.machine, r.segm.get(r.uid).unwrap().handle, pageno);
                    r.machine
                        .mem
                        .write(ptw.frame.base(), Word::new(u64::from(pageno) + 1));
                }
                Err(KernelError::Upward(Signal::SegmentMoved { uid, new_home })) => {
                    moved = Some((uid, new_home, pageno));
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        let (uid, new_home, at_page) = moved.expect("a full pack must occur");
        assert_eq!(uid, r.uid);
        assert_eq!(new_home.pack, big);
        assert_eq!(r.segm.stats.relocations, 1);
        assert_eq!(r.segm.stats.upward_signals, 1);
        // The page creation completed before the signal.
        let seg = r.segm.get(r.uid).unwrap();
        assert_eq!(seg.home, new_home);
        assert!(r.pfm.ptw(&r.machine, seg.handle, at_page).present);
        // Earlier data survived the move.
        let h = seg.handle;
        r.pfm
            .service_missing(&mut r.machine, &mut r.drm, &mut r.qcm, &mut r.vpm, h, 0)
            .unwrap();
        let ptw = r.pfm.ptw(&r.machine, h, 0);
        assert_eq!(r.machine.mem.read(ptw.frame.base()), Word::new(1));
    }

    #[test]
    fn deactivate_cuts_registered_sdws_and_releases_cell() {
        let mut r = rig(32, 20);
        let handle = activate(&mut r);
        grow(&mut r, 0).unwrap();
        // Fake a connected SDW in frame 0.
        let sdw_addr = AbsAddr(10);
        let sdw = Sdw {
            page_table: r.pfm.pt_addr(handle),
            bound_pages: 256,
            read: true,
            write: true,
            execute: false,
            present: true,
            software: false,
        };
        r.machine.mem.write(sdw_addr, sdw.encode());
        r.segm.register_connection(r.uid, sdw_addr).unwrap();
        r.segm
            .deactivate(&mut r.machine, &mut r.drm, &mut r.qcm, &mut r.pfm, r.uid)
            .unwrap();
        assert!(
            !Sdw::decode(r.machine.mem.read(sdw_addr)).present,
            "SDW cut"
        );
        assert_eq!(r.qcm.cell_state(r.cell), None, "cell reference released");
        assert_eq!(r.segm.active_count(), 0);
    }

    #[test]
    fn truncate_frees_records_and_charges() {
        let mut r = rig(32, 20);
        let handle = activate(&mut r);
        for p in 0..3 {
            grow(&mut r, p).unwrap();
            let ptw = r.pfm.ptw(&r.machine, handle, p);
            r.machine.mem.write(ptw.frame.base(), Word::new(9));
        }
        assert_eq!(r.qcm.cell_state(r.cell), Some((20, 3)));
        r.segm
            .truncate(&mut r.machine, &mut r.drm, &mut r.qcm, &mut r.pfm, r.uid)
            .unwrap();
        assert_eq!(r.qcm.cell_state(r.cell), Some((20, 0)));
        assert_eq!(
            r.drm
                .len_pages(&r.machine, r.segm.get(r.uid).unwrap().home)
                .unwrap(),
            0
        );
    }
}
