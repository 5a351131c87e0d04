//! The Page Frame Manager.
//!
//! Manager of page frames and of *paged objects* — page tables bound to
//! disk homes. Three of the paper's mechanisms live here:
//!
//! * **The descriptor lock protocol.** The hardware sets the lock bit in
//!   a missing page's descriptor while taking the fault, so no
//!   interpretive retranslation is ever needed: the handler that owns the
//!   locked descriptor services the page, *unlocks the descriptor and
//!   notifies all processes that have been waiting* (an eventcount
//!   advance — no knowledge of who waits). A processor that encounters a
//!   locked descriptor takes the locked-page-descriptor exception and
//!   waits on the same eventcount.
//!
//! * **The quota-trap bit.** The manager sets the exception-causing bit
//!   in every descriptor corresponding to an unallocated page, so a
//!   reference to a never-before-used page raises a *quota* fault routed
//!   to the known-segment manager — page creation is requested from
//!   above, with quota already checked, through
//!   [`PageFrameManager::add_page`]. The manager never identifies pages
//!   with segments, never walks any hierarchy.
//!
//! * **The write-behind purifier.** Following Huber's multi-process
//!   paging design, modified victims are queued for a dedicated daemon
//!   virtual processor ([`PageFrameManager::purifier_step`]) that writes
//!   them back — at low priority, when a processor would otherwise be
//!   idle — and performs the zero-page scan, reverting all-zero pages to
//!   file-map flags and uncharging their statically bound quota cells.
//!
//! The manager's own map (page-table pool slot → disk home and cell) is
//! kept in ordinary manager state backed by a core segment; it depends
//! only on the core-segment, disk-record and quota-cell managers and the
//! virtual-processor primitives — all below it in the lattice.

use crate::core_segment::CoreSegmentManager;
use crate::disk_record::DiskRecordManager;
use crate::error::KernelError;
use crate::quota_cell::QuotaCellManager;
use crate::types::{DiskHome, SegUid};
use crate::vproc::VirtualProcessorManager;
use mx_hw::cpu::Ptw;
use mx_hw::frames::Page;
use mx_hw::{AbsAddr, FrameNo, FrameTable, Machine, Subsystem, PAGE_WORDS};
use mx_sync::sim::EcId;
use std::collections::VecDeque;

pub use mx_hw::PT_WORDS;

pub use mx_hw::storage::READ_RETRY_BUDGET;

/// Transient failures one kernel disk read absorbs: the kernel counts
/// attempts, so the failure that uses up [`READ_RETRY_BUDGET`] surfaces.
pub(crate) const READ_ABSORB: u32 = READ_RETRY_BUDGET - 1;

/// A handle to a paged object (a bound page-table slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PtHandle(pub u32);

#[derive(Debug, Clone, Copy)]
struct PtBinding {
    home: DiskHome,
    /// The statically bound quota cell to uncharge on zero reversion.
    cell: Option<SegUid>,
}

/// Experiment counters for the paging paths.
#[derive(Debug, Clone, Copy, Default)]
pub struct PageStats {
    /// Missing pages serviced (page-ins).
    pub services: u64,
    /// Pages created via [`PageFrameManager::add_page`].
    pub creations: u64,
    /// Frames reclaimed from other pages.
    pub evictions: u64,
    /// Evicted pages found all-zero and reverted to file-map flags.
    pub zero_reversions: u64,
    /// Pages written back by the purifier daemon.
    pub purifier_writes: u64,
    /// Eventcount notifications issued after services.
    pub notifications: u64,
    /// Transient read errors absorbed by the retry path: page-ins, and
    /// the reads of a full-pack segment move.
    pub transient_retries: u64,
}

/// The page-frame object manager.
#[derive(Debug)]
pub struct PageFrameManager {
    pool_base: AbsAddr,
    slots: Vec<Option<PtBinding>>,
    /// Frame ownership, by page-table slot, and the clock hand.
    frames: FrameTable,
    write_queue: VecDeque<FrameNo>,
    /// Advanced whenever a locked descriptor is serviced and unlocked.
    pub page_event: EcId,
    /// Counters.
    pub stats: PageStats,
}

impl PageFrameManager {
    /// Builds the manager: a page-table pool of `slots` paged objects in
    /// a core segment, and the page eventcount.
    ///
    /// The pageable frame region must be declared later with
    /// [`PageFrameManager::set_pageable_region`], after every core
    /// segment has been allocated.
    ///
    /// # Errors
    ///
    /// [`KernelError::TableFull`] if the core-segment region cannot hold
    /// the pool.
    pub fn new(
        csm: &mut CoreSegmentManager,
        vpm: &mut VirtualProcessorManager,
        slots: u32,
    ) -> Result<Self, KernelError> {
        let words = u64::from(slots) * u64::from(PT_WORDS);
        let frames = words.div_ceil(PAGE_WORDS as u64) as u32;
        let pool_seg = csm.allocate(frames.max(1))?;
        Ok(Self {
            pool_base: csm.addr(pool_seg, 0),
            slots: (0..slots).map(|_| None).collect(),
            frames: FrameTable::new(0, 0),
            write_queue: VecDeque::new(),
            page_event: vpm.create_eventcount(),
            stats: PageStats::default(),
        })
    }

    /// Declares the pageable region `[first, total)` once initialization
    /// has fixed the wired layout.
    pub fn set_pageable_region(&mut self, first: u32, total: u32) {
        self.frames = FrameTable::new(total as usize, first);
    }

    /// Number of pageable frames.
    pub fn pageable(&self) -> u32 {
        self.frames.pageable()
    }

    /// Absolute address of the page table for a bound handle.
    ///
    /// # Panics
    ///
    /// Panics on a foreign or unbound handle.
    pub fn pt_addr(&self, handle: PtHandle) -> AbsAddr {
        assert!(
            self.slots[handle.0 as usize].is_some(),
            "unbound page table handle"
        );
        self.pool_base
            .add(u64::from(handle.0) * u64::from(PT_WORDS))
    }

    /// The disk home a handle is bound to.
    ///
    /// # Panics
    ///
    /// Panics on an unbound handle.
    pub fn home(&self, handle: PtHandle) -> DiskHome {
        self.slots[handle.0 as usize].expect("bound handle").home
    }

    /// Binds a page-table slot to the segment at `home`, initializing
    /// every descriptor: not-present, with the quota-trap bit on exactly
    /// the unallocated pages (holes and everything past the length).
    ///
    /// # Errors
    ///
    /// [`KernelError::TableFull`] when the pool is exhausted.
    pub fn bind(
        &mut self,
        machine: &mut Machine,
        drm: &DiskRecordManager,
        home: DiskHome,
        cell: Option<SegUid>,
    ) -> Result<PtHandle, KernelError> {
        let slot = self
            .slots
            .iter()
            .position(|s| s.is_none())
            .ok_or(KernelError::TableFull("page table pool"))? as u32;
        self.slots[slot as usize] = Some(PtBinding { home, cell });
        let handle = PtHandle(slot);
        self.arm(machine, drm, handle, home)?;
        Ok(handle)
    }

    /// Arms every descriptor of `handle` from the file map at `home` (not
    /// present, the quota-trap bit on exactly the unallocated pages) and
    /// flushes every translation cached from the table's previous use.
    fn arm(
        &self,
        machine: &mut Machine,
        drm: &DiskRecordManager,
        handle: PtHandle,
        home: DiskHome,
    ) -> Result<(), KernelError> {
        let map = drm.file_map(&machine.disks, home)?;
        let base = self.ptw_addr(handle, 0);
        let trap = Ptw {
            quota_trap: true,
            ..Ptw::default()
        };
        machine.mem.fill(base, PT_WORDS as usize, trap.encode());
        for (pageno, record) in (0..PT_WORDS).zip(map) {
            if record.is_some() {
                machine
                    .mem
                    .write(base.add(u64::from(pageno)), Ptw::default().encode());
            }
        }
        machine.tlb_invalidate_ptw_range(base, u64::from(PT_WORDS));
        Ok(())
    }

    /// Unbinds a paged object: flushes every resident page (with the
    /// zero scan) and frees the slot.
    ///
    /// # Errors
    ///
    /// Propagates disk errors from the flush.
    pub fn unbind(
        &mut self,
        machine: &mut Machine,
        drm: &mut DiskRecordManager,
        qcm: &mut QuotaCellManager,
        handle: PtHandle,
    ) -> Result<(), KernelError> {
        self.flush(machine, drm, qcm, handle)?;
        self.slots[handle.0 as usize] = None;
        Ok(())
    }

    /// Flushes every resident page of a paged object to disk (or back to
    /// zero flags), leaving the object bound.
    ///
    /// # Errors
    ///
    /// Propagates disk errors.
    pub fn flush(
        &mut self,
        machine: &mut Machine,
        drm: &mut DiskRecordManager,
        qcm: &mut QuotaCellManager,
        handle: PtHandle,
    ) -> Result<(), KernelError> {
        let mut at = None;
        while let Some((frame, pageno)) = self.frames.next_owned(handle.0, at) {
            at = Some(frame);
            self.evict_frame(machine, drm, qcm, frame, handle.0, pageno)?;
        }
        Ok(())
    }

    /// Absolute address of a PTW.
    fn ptw_addr(&self, handle: PtHandle, pageno: u32) -> AbsAddr {
        self.pool_base
            .add(u64::from(handle.0) * u64::from(PT_WORDS) + u64::from(pageno))
    }

    /// Reads a PTW.
    pub fn ptw(&self, machine: &Machine, handle: PtHandle, pageno: u32) -> Ptw {
        Ptw::decode(machine.mem.read(self.ptw_addr(handle, pageno)))
    }

    fn set_ptw(&self, machine: &mut Machine, handle: PtHandle, pageno: u32, ptw: Ptw) {
        let addr = self.ptw_addr(handle, pageno);
        // Witness: page-table slots belong to page control; a rewrite
        // from any other scope appears in the edge ledger.
        machine.clock.note_shared_data(Subsystem::PageControl);
        machine.mem.write(addr, ptw.encode());
        // Every kernel descriptor mutation funnels through here: flush
        // the associative memories for the rewritten word ("setfaults").
        machine.tlb_invalidate_ptw(addr);
    }

    /// Maps a faulting descriptor address back to (handle, pageno) using
    /// the manager's own pool geometry.
    pub fn identify(&self, descriptor: AbsAddr) -> Option<(PtHandle, u32)> {
        if descriptor.0 < self.pool_base.0 {
            return None;
        }
        let rel = descriptor.0 - self.pool_base.0;
        let slot = (rel / u64::from(PT_WORDS)) as u32;
        let pageno = (rel % u64::from(PT_WORDS)) as u32;
        if (slot as usize) < self.slots.len() && self.slots[slot as usize].is_some() {
            Some((PtHandle(slot), pageno))
        } else {
            None
        }
    }

    /// Services a missing-page fault whose descriptor the hardware has
    /// already locked: pages the record in, unlocks the descriptor, and
    /// notifies every waiter via the page eventcount.
    ///
    /// # Errors
    ///
    /// [`KernelError::UnhandledFault`]-free by construction: a missing
    /// (not quota-trap) page always has a record. Disk and frame errors
    /// propagate.
    pub fn service_missing(
        &mut self,
        machine: &mut Machine,
        drm: &mut DiskRecordManager,
        qcm: &mut QuotaCellManager,
        vpm: &mut VirtualProcessorManager,
        handle: PtHandle,
        pageno: u32,
    ) -> Result<(), KernelError> {
        crate::charge_pli(machine, 95);
        let ptw = self.ptw(machine, handle, pageno);
        if ptw.present {
            // Already serviced (we were a waiter); nothing to do.
            return Ok(());
        }
        let home = self.home(handle);
        let record = drm
            .record_of(machine, home, pageno)?
            .expect("missing-page fault on a page with no record: quota-trap bit lost");
        let frame = self.claim_frame(machine, drm, qcm, handle.0, pageno)?;
        let (read, retries) = machine.read_with_retry(READ_ABSORB, |m| {
            m.disk_read_into_frame(home.pack, record, frame)
        });
        if let Err(e) = read {
            // Release the claimed frame so an exhausted or offline read
            // leaves no leak, and clear the lock bit the hardware set at
            // fault time — a descriptor left locked would turn every
            // later reference into an endless LockedDescriptor wait.
            // Waiters are notified so they re-fault and observe the
            // error themselves.
            self.frames.release(frame);
            let mut unlocked = ptw;
            unlocked.locked = false;
            self.set_ptw(machine, handle, pageno, unlocked);
            self.stats.notifications += 1;
            vpm.advance(self.page_event);
            return Err(KernelError::Disk(e));
        }
        self.stats.transient_retries += u64::from(retries);
        self.set_ptw(
            machine,
            handle,
            pageno,
            Ptw {
                frame,
                present: true,
                used: true,
                ..Ptw::default()
            },
        );
        self.stats.services += 1;
        // Unlock (the write above cleared the lock bit) and notify.
        self.stats.notifications += 1;
        vpm.advance(self.page_event);
        Ok(())
    }

    /// Adds a never-before-used page to a paged object. Called from the
    /// segment manager *after* the quota charge has been approved.
    ///
    /// # Errors
    ///
    /// [`KernelError::AllPacksFull`] when the home pack is full — the
    /// caller relocates and retries.
    pub fn add_page(
        &mut self,
        machine: &mut Machine,
        drm: &mut DiskRecordManager,
        qcm: &mut QuotaCellManager,
        handle: PtHandle,
        pageno: u32,
    ) -> Result<(), KernelError> {
        if pageno >= PT_WORDS {
            return Err(KernelError::SegmentTooBig);
        }
        crate::charge_pli(machine, 70);
        let home = self.home(handle);
        let record = drm.allocate(machine, home.pack)?;
        let frame = match self.claim_frame(machine, drm, qcm, handle.0, pageno) {
            Ok(f) => f,
            Err(e) => {
                drm.free(machine, home.pack, record);
                return Err(e);
            }
        };
        machine.mem.zero_frame(frame);
        drm.set_record(machine, home, pageno, Some(record))?;
        self.set_ptw(
            machine,
            handle,
            pageno,
            Ptw {
                frame,
                present: true,
                used: true,
                modified: true,
                ..Ptw::default()
            },
        );
        self.stats.creations += 1;
        Ok(())
    }

    /// Claims a frame, preferring free frames, then clean victims; when
    /// only dirty frames remain, runs the purifier synchronously.
    fn claim_frame(
        &mut self,
        machine: &mut Machine,
        drm: &mut DiskRecordManager,
        qcm: &mut QuotaCellManager,
        slot: u32,
        pageno: u32,
    ) -> Result<FrameNo, KernelError> {
        for attempt in 0..3 {
            if let Some(f) = self.frames.take(slot, pageno) {
                return Ok(f);
            }
            if let Some((frame, vslot, vpage)) = self.select_clean_victim(machine) {
                self.evict_frame(machine, drm, qcm, frame, vslot, vpage)?;
                if let Some(f) = self.frames.take(slot, pageno) {
                    return Ok(f);
                }
            }
            if attempt < 2 {
                // Everything is dirty: purify synchronously.
                while self.purifier_step(machine, drm, qcm)? {}
            }
        }
        Err(KernelError::TableFull("page frames"))
    }

    /// Second-chance clock preferring clean pages; dirty candidates are
    /// queued for the purifier instead of being written inline.
    fn select_clean_victim(&mut self, machine: &mut Machine) -> Option<(FrameNo, u32, u32)> {
        for _ in 0..self.frames.pageable() * 2 {
            let f = self.frames.tick();
            let Some(Page {
                owner: slot,
                pageno,
            }) = self.frames.page(f)
            else {
                continue;
            };
            let handle = PtHandle(slot);
            let mut ptw = self.ptw(machine, handle, pageno);
            if ptw.wired || ptw.locked {
                continue;
            }
            if ptw.used {
                ptw.used = false;
                self.set_ptw(machine, handle, pageno, ptw);
                continue;
            }
            if ptw.modified {
                if !self.write_queue.contains(&f) {
                    self.write_queue.push_back(f);
                }
                continue;
            }
            return Some((f, slot, pageno));
        }
        None
    }

    /// Evicts one resident page: scans for all-zeros (reverting to a
    /// flag and uncharging the bound cell) or writes it back, then frees
    /// the frame and re-arms the descriptor.
    fn evict_frame(
        &mut self,
        machine: &mut Machine,
        drm: &mut DiskRecordManager,
        qcm: &mut QuotaCellManager,
        frame: FrameNo,
        slot: u32,
        pageno: u32,
    ) -> Result<(), KernelError> {
        let handle = PtHandle(slot);
        let binding = self.slots[slot as usize].expect("bound slot");
        let ptw = self.ptw(machine, handle, pageno);
        self.stats.evictions += 1;
        // The zero scan reads the whole page: the paper's "otherwise
        // unnecessary access to the data in every page".
        crate::charge_pli(machine, 45);
        if machine.mem.frame_is_zero(frame) {
            self.revert_to_zero(machine, drm, qcm, handle, pageno)?;
        } else {
            if ptw.modified {
                let record = drm
                    .record_of(machine, binding.home, pageno)?
                    .expect("nonzero resident page has a record");
                machine
                    .disk_write_from_frame(binding.home.pack, record, frame)
                    .map_err(KernelError::Disk)?;
            }
            self.set_ptw(machine, handle, pageno, Ptw::default());
        }
        self.frames.release(frame);
        self.write_queue.retain(|f| *f != frame);
        Ok(())
    }

    /// Reverts a resident all-zero page to the zero flag: frees its
    /// record, drops the storage charge and re-arms the quota-trap bit.
    fn revert_to_zero(
        &mut self,
        machine: &mut Machine,
        drm: &mut DiskRecordManager,
        qcm: &mut QuotaCellManager,
        handle: PtHandle,
        pageno: u32,
    ) -> Result<(), KernelError> {
        let binding = self.slots[handle.0 as usize].expect("bound slot");
        if drm.unmap(machine, binding.home, pageno)? {
            if let Some(cell) = binding.cell {
                qcm.uncharge(machine, cell, 1)?;
            }
        }
        let trap = Ptw {
            quota_trap: true,
            ..Ptw::default()
        };
        self.set_ptw(machine, handle, pageno, trap);
        self.stats.zero_reversions += 1;
        Ok(())
    }

    /// One unit of purifier-daemon work: write back (or zero-revert) the
    /// oldest queued dirty page. Returns `true` if work was done.
    ///
    /// The daemon VP runs this when a processor would otherwise be idle,
    /// which is where the new memory manager wins back some of its
    /// PL/I-recoding cost.
    ///
    /// # Errors
    ///
    /// Propagates disk errors.
    pub fn purifier_step(
        &mut self,
        machine: &mut Machine,
        drm: &mut DiskRecordManager,
        qcm: &mut QuotaCellManager,
    ) -> Result<bool, KernelError> {
        let Some(frame) = self.write_queue.pop_front() else {
            return Ok(false);
        };
        crate::charge_pli(machine, 50);
        let Some(Page {
            owner: slot,
            pageno,
        }) = self.frames.page(frame)
        else {
            return Ok(true);
        };
        let handle = PtHandle(slot);
        let binding = self.slots[slot as usize].expect("bound slot");
        let mut ptw = self.ptw(machine, handle, pageno);
        if !ptw.modified {
            return Ok(true);
        }
        if machine.mem.frame_is_zero(frame) {
            // The page went back to zeros while dirty: revert in place.
            self.revert_to_zero(machine, drm, qcm, handle, pageno)?;
            self.frames.release(frame);
        } else {
            let record = drm
                .record_of(machine, binding.home, pageno)?
                .expect("dirty page has a record");
            machine
                .disk_write_from_frame(binding.home.pack, record, frame)
                .map_err(KernelError::Disk)?;
            ptw.modified = false;
            self.set_ptw(machine, handle, pageno, ptw);
            self.stats.purifier_writes += 1;
        }
        Ok(true)
    }

    /// Dirty pages queued for the purifier daemon.
    pub fn pending_purifier_work(&self) -> usize {
        self.write_queue.len()
    }

    /// Rebinds a flushed paged object to a new disk home (relocation),
    /// keeping the same handle — and therefore the same page-table
    /// address, so connected descriptor segments stay valid and no
    /// address space needs disconnecting.
    ///
    /// # Errors
    ///
    /// Propagates disk errors re-arming the descriptors.
    ///
    /// # Panics
    ///
    /// Panics if any page of the object is still resident.
    pub fn rebind_home(
        &mut self,
        machine: &mut Machine,
        drm: &DiskRecordManager,
        handle: PtHandle,
        new_home: DiskHome,
    ) -> Result<(), KernelError> {
        assert_eq!(
            self.frames.resident(handle.0),
            0,
            "rebinding a paged object with resident pages"
        );
        let binding = self.slots[handle.0 as usize]
            .as_mut()
            .expect("bound handle");
        binding.home = new_home;
        self.arm(machine, drm, handle, new_home)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mx_aim::{FlowTracker, Label};
    use mx_hw::{MachineConfig, PackId, Word};

    struct Rig {
        machine: Machine,
        drm: DiskRecordManager,
        qcm: QuotaCellManager,
        vpm: VirtualProcessorManager,
        pfm: PageFrameManager,
        home: DiskHome,
        handle: PtHandle,
    }

    fn rig(frames: usize, records: u32) -> Rig {
        let mut machine = Machine::new(MachineConfig {
            frames,
            packs: 2,
            records_per_pack: records,
            toc_slots_per_pack: 8,
            ..MachineConfig::kernel_proposed()
        });
        let mut csm = CoreSegmentManager::new(0, 8);
        let mut vpm = VirtualProcessorManager::new(&mut csm, 4).unwrap();
        let mut drm = DiskRecordManager::new();
        let mut qcm = QuotaCellManager::new(&mut csm).unwrap();
        qcm.bind_table_base(&csm);
        let mut pfm = PageFrameManager::new(&mut csm, &mut vpm, 8).unwrap();
        csm.seal();
        pfm.set_pageable_region(csm.end_frame(), frames as u32);
        // A segment plus a quota cell to bill.
        let cell_toc = drm.create_entry(&mut machine, PackId(0), 100).unwrap();
        let cell_home = DiskHome {
            pack: PackId(0),
            toc: cell_toc,
        };
        qcm.create_cell(
            &mut machine,
            &mut drm,
            SegUid(100),
            cell_home,
            50,
            Label::BOTTOM,
        )
        .unwrap();
        let toc = drm.create_entry(&mut machine, PackId(0), 1).unwrap();
        let home = DiskHome {
            pack: PackId(0),
            toc,
        };
        let handle = pfm
            .bind(&mut machine, &drm, home, Some(SegUid(100)))
            .unwrap();
        Rig {
            machine,
            drm,
            qcm,
            vpm,
            pfm,
            home,
            handle,
        }
    }

    #[test]
    fn bind_arms_quota_traps_on_unallocated_pages() {
        let mut r = rig(64, 64);
        let ptw = r.pfm.ptw(&r.machine, r.handle, 0);
        assert!(ptw.quota_trap && !ptw.present);
        // Allocate page 0, rebind another handle: trap only on holes.
        r.pfm
            .add_page(&mut r.machine, &mut r.drm, &mut r.qcm, r.handle, 0)
            .unwrap();
        let h2 = r
            .pfm
            .bind(&mut r.machine, &r.drm, r.home, Some(SegUid(100)))
            .unwrap();
        assert!(
            !r.pfm.ptw(&r.machine, h2, 0).quota_trap,
            "page 0 has a record now"
        );
        assert!(r.pfm.ptw(&r.machine, h2, 1).quota_trap);
    }

    #[test]
    fn arm_matches_the_per_page_lookup_on_every_file_map_shape() {
        let mut r = rig(64, 400);
        // Empty, partial, holed (200 pages, a hole every third page and
        // at the end) and full-length file maps.
        let base = r.pfm.pt_addr(r.handle);
        for (uid, len) in (200..).zip([0, 10, 200, PT_WORDS]) {
            let toc = r.drm.create_entry(&mut r.machine, PackId(0), uid).unwrap();
            let home = DiskHome {
                pack: PackId(0),
                toc,
            };
            for p in 0..len {
                let hole = len == 200 && (p % 3 == 1 || p == len - 1);
                let record = (!hole).then(|| r.drm.allocate(&mut r.machine, PackId(0)).unwrap());
                r.drm.set_record(&mut r.machine, home, p, record).unwrap();
            }
            assert_eq!(r.drm.len_pages(&r.machine, home).unwrap(), len);
            // Words left by the table's previous use.
            r.machine
                .mem
                .fill(base, PT_WORDS as usize, Word::new(0o777_000_777_000));
            r.pfm
                .rebind_home(&mut r.machine, &r.drm, r.handle, home)
                .unwrap();
            for pageno in 0..PT_WORDS {
                let quota_trap = r.drm.record_of(&r.machine, home, pageno).unwrap().is_none();
                let want = Ptw {
                    quota_trap,
                    ..Ptw::default()
                };
                let got = r.machine.mem.read(base.add(u64::from(pageno)));
                assert_eq!(got, want.encode(), "length {len}, page {pageno}");
            }
            r.pfm
                .rebind_home(&mut r.machine, &r.drm, r.handle, r.home)
                .unwrap();
        }
        // An unknown home arms nothing.
        let armed = r.machine.mem.words(base, PT_WORDS as usize).to_vec();
        let gone = DiskHome {
            pack: PackId(0),
            toc: mx_hw::TocIndex(7),
        };
        let err = r.pfm.rebind_home(&mut r.machine, &r.drm, r.handle, gone);
        assert_eq!(err, Err(KernelError::NotActive));
        assert_eq!(r.machine.mem.words(base, PT_WORDS as usize), armed);
    }

    #[test]
    fn add_page_then_flush_then_service_round_trip() {
        let mut r = rig(64, 64);
        r.pfm
            .add_page(&mut r.machine, &mut r.drm, &mut r.qcm, r.handle, 0)
            .unwrap();
        let ptw = r.pfm.ptw(&r.machine, r.handle, 0);
        assert!(ptw.present && ptw.modified);
        // Put a word in so it is not reverted to zeros.
        r.machine.mem.write(ptw.frame.base(), Word::new(0o777));
        r.pfm
            .flush(&mut r.machine, &mut r.drm, &mut r.qcm, r.handle)
            .unwrap();
        assert!(!r.pfm.ptw(&r.machine, r.handle, 0).present);
        // Service brings it back with the stored contents.
        let (h, p) = (r.handle, 0);
        r.pfm
            .service_missing(&mut r.machine, &mut r.drm, &mut r.qcm, &mut r.vpm, h, p)
            .unwrap();
        let ptw = r.pfm.ptw(&r.machine, r.handle, 0);
        assert!(ptw.present);
        assert_eq!(r.machine.mem.read(ptw.frame.base()), Word::new(0o777));
        assert_eq!(r.pfm.stats.services, 1);
        assert_eq!(r.pfm.stats.notifications, 1);
    }

    #[test]
    fn flush_of_zero_page_reverts_and_uncharges() {
        let mut r = rig(64, 64);
        let mut flows = FlowTracker::new();
        r.qcm
            .charge(&mut r.machine, SegUid(100), 1, Label::BOTTOM, &mut flows)
            .unwrap();
        r.pfm
            .add_page(&mut r.machine, &mut r.drm, &mut r.qcm, r.handle, 3)
            .unwrap();
        assert_eq!(r.qcm.cell_state(SegUid(100)), Some((50, 1)));
        // Never written: all zeros. Flush reverts and uncharges.
        r.pfm
            .flush(&mut r.machine, &mut r.drm, &mut r.qcm, r.handle)
            .unwrap();
        assert_eq!(r.qcm.cell_state(SegUid(100)), Some((50, 0)));
        assert!(
            r.pfm.ptw(&r.machine, r.handle, 3).quota_trap,
            "trap re-armed"
        );
        assert_eq!(r.drm.records_used(&r.machine, r.home).unwrap(), 0);
        assert_eq!(r.pfm.stats.zero_reversions, 1);
    }

    #[test]
    fn pressure_prefers_clean_victims_and_queues_dirty_for_purifier() {
        let mut r = rig(24, 128); // small pageable pool
        let pageable = r.pfm.pageable();
        assert!(
            pageable >= 4,
            "rig leaves a few pageable frames, got {pageable}"
        );
        // Fill all pageable frames with dirty pages, then write a marker
        // so they are nonzero.
        for pageno in 0..pageable + 4 {
            r.pfm
                .add_page(&mut r.machine, &mut r.drm, &mut r.qcm, r.handle, pageno)
                .unwrap();
            let ptw = r.pfm.ptw(&r.machine, r.handle, pageno);
            if ptw.present {
                r.machine
                    .mem
                    .write(ptw.frame.base(), Word::new(u64::from(pageno) + 1));
            }
        }
        assert!(r.pfm.stats.evictions > 0 || r.pfm.stats.purifier_writes > 0);
        // Drain the purifier queue like the daemon VP would.
        while r
            .pfm
            .purifier_step(&mut r.machine, &mut r.drm, &mut r.qcm)
            .unwrap()
        {}
        assert_eq!(r.pfm.pending_purifier_work(), 0);
    }

    #[test]
    fn transient_reads_are_absorbed_by_the_retry_budget() {
        use mx_hw::FaultPlan;
        let mut r = rig(64, 64);
        r.pfm
            .add_page(&mut r.machine, &mut r.drm, &mut r.qcm, r.handle, 0)
            .unwrap();
        let ptw = r.pfm.ptw(&r.machine, r.handle, 0);
        r.machine.mem.write(ptw.frame.base(), Word::new(0o55));
        r.pfm
            .flush(&mut r.machine, &mut r.drm, &mut r.qcm, r.handle)
            .unwrap();
        let rec = r.drm.record_of(&r.machine, r.home, 0).unwrap().unwrap();
        // The first two channel reads of the record fail; the third
        // succeeds within the budget.
        r.machine.install_fault_plan(
            FaultPlan::new()
                .transient_read(PackId(0), rec, 1)
                .transient_read(PackId(0), rec, 2),
        );
        let (h, p) = (r.handle, 0);
        r.pfm
            .service_missing(&mut r.machine, &mut r.drm, &mut r.qcm, &mut r.vpm, h, p)
            .unwrap();
        assert_eq!(r.pfm.stats.transient_retries, 2);
        let ptw = r.pfm.ptw(&r.machine, r.handle, 0);
        assert_eq!(r.machine.mem.read(ptw.frame.base()), Word::new(0o55));
    }

    #[test]
    fn retry_exhaustion_surfaces_typed_error_without_leaking_the_frame() {
        use mx_hw::{DiskError, FaultPlan};
        let mut r = rig(64, 64);
        r.pfm
            .add_page(&mut r.machine, &mut r.drm, &mut r.qcm, r.handle, 0)
            .unwrap();
        let ptw = r.pfm.ptw(&r.machine, r.handle, 0);
        r.machine.mem.write(ptw.frame.base(), Word::new(0o55));
        r.pfm
            .flush(&mut r.machine, &mut r.drm, &mut r.qcm, r.handle)
            .unwrap();
        let rec = r.drm.record_of(&r.machine, r.home, 0).unwrap().unwrap();
        let mut plan = FaultPlan::new();
        for k in 1..=u64::from(READ_RETRY_BUDGET) {
            plan = plan.transient_read(PackId(0), rec, k);
        }
        r.machine.install_fault_plan(plan);
        let free = |r: &Rig| {
            (0..r.machine.mem.frames() as u32)
                .filter(|&f| r.pfm.frames.page(FrameNo(f)).is_none())
                .count()
        };
        let free_before = free(&r);
        let (h, p) = (r.handle, 0);
        let err = r
            .pfm
            .service_missing(&mut r.machine, &mut r.drm, &mut r.qcm, &mut r.vpm, h, p)
            .unwrap_err();
        assert!(matches!(
            err,
            KernelError::Disk(DiskError::TransientRead { .. })
        ));
        assert_eq!(free_before, free(&r), "claimed frame released");
        // The fault was transient: once the plan's ordinals pass, the
        // same reference succeeds.
        r.pfm
            .service_missing(&mut r.machine, &mut r.drm, &mut r.qcm, &mut r.vpm, h, p)
            .unwrap();
    }

    #[test]
    fn offline_pack_surfaces_typed_error() {
        use mx_hw::DiskError;
        let mut r = rig(64, 64);
        r.pfm
            .add_page(&mut r.machine, &mut r.drm, &mut r.qcm, r.handle, 0)
            .unwrap();
        let ptw = r.pfm.ptw(&r.machine, r.handle, 0);
        r.machine.mem.write(ptw.frame.base(), Word::new(0o55));
        r.pfm
            .flush(&mut r.machine, &mut r.drm, &mut r.qcm, r.handle)
            .unwrap();
        r.machine.faults.set_offline(PackId(0), true);
        let (h, p) = (r.handle, 0);
        let err = r
            .pfm
            .service_missing(&mut r.machine, &mut r.drm, &mut r.qcm, &mut r.vpm, h, p)
            .unwrap_err();
        assert!(matches!(
            err,
            KernelError::Disk(DiskError::PackOffline { .. })
        ));
    }

    #[test]
    fn identify_maps_descriptor_addresses_home() {
        let r = rig(64, 64);
        let addr = r.pfm.pt_addr(r.handle).add(5);
        assert_eq!(r.pfm.identify(addr), Some((r.handle, 5)));
        assert_eq!(r.pfm.identify(AbsAddr(0)), None);
    }

    #[test]
    fn unbind_releases_the_slot() {
        let mut r = rig(64, 64);
        r.pfm
            .unbind(&mut r.machine, &mut r.drm, &mut r.qcm, r.handle)
            .unwrap();
        // The slot is reusable.
        let h2 = r.pfm.bind(&mut r.machine, &r.drm, r.home, None).unwrap();
        assert_eq!(h2, r.handle);
    }
}
