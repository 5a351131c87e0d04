//! Page control: fault service, replacement, quota, and the global lock.
//!
//! This module exhibits three of the paper's loops in running code:
//!
//! 1. **Interpretive retranslation.** The unmodified hardware leaves a
//!    window between a missing-page fault and page control's acquisition
//!    of the global lock, during which another processor may service the
//!    very same fault. So the handler, lock in hand, re-walks the address
//!    translation tables — segment control's and address space control's
//!    data — to see whether the page descriptor still says *missing*.
//!    Page control thereby "know\[s\] the format of and depend\[s\] upon the
//!    correctness of the address translation tables maintained by segment
//!    control and address space control."
//!
//! 2. **Dynamic quota search.** Growing a segment (a fault on a
//!    never-before-used page) requires finding the nearest superior quota
//!    directory: page control identifies the page with a segment by
//!    direct reference to the AST and follows the superior links segment
//!    control threads through it.
//!
//! 3. **Full packs.** If materializing a page finds the segment's pack
//!    full, page control *invokes segment control* — an upward call —
//!    to relocate the whole segment.
//!
//! The zero-page storage policy also lives here: evicted pages are
//! scanned for all-zeros and reverted to file-map flags (dropping their
//! storage charge), and reading a hole materializes a page — updating
//! quota accounting as a side effect, the confinement violation the
//! paper cites.

use crate::supervisor::Supervisor;
use crate::types::{LegacyError, ProcessId};
use mx_aim::Label;
use mx_hw::cpu::Ptw;
use mx_hw::frames::Page;
use mx_hw::meter::Subsystem;
use mx_hw::{AbsAddr, DiskError, FrameNo, Language, Machine, VirtAddr};

pub use mx_hw::storage::READ_RETRY_BUDGET;

/// Transient failures one disk read of the old supervisor absorbs: it
/// counts retries after the first attempt, so it absorbs the whole
/// [`READ_RETRY_BUDGET`] (the kernel absorbs one fewer).
pub(crate) const READ_ABSORB: u32 = READ_RETRY_BUDGET;

/// Cost constants (abstract instructions) for the PL/I paths of page
/// control; the old page control was largely assembly, so the *resident*
/// paths charge assembly.
const RETRANSLATE_INSTR: u64 = 60;
const SERVICE_INSTR: u64 = 90;
const QUOTA_WALK_INSTR_PER_LEVEL: u64 = 25;
const EVICT_SCAN_INSTR: u64 = 40;

impl Supervisor {
    /// The missing-page fault handler (old design).
    ///
    /// Takes the global lock, performs the interpretive retranslation,
    /// and services the page. Models "give the processor to another
    /// process" by charging a process switch pair when the service
    /// involves a disk transfer.
    ///
    /// # Errors
    ///
    /// Quota, disk, and pool errors from the service path.
    pub(crate) fn page_fault(
        &mut self,
        pid: ProcessId,
        va: VirtAddr,
        _descriptor: AbsAddr,
    ) -> Result<(), LegacyError> {
        self.lock_global();
        // Interpretive retranslation: re-walk dseg SDW and the page
        // table, in software, to confirm the fault is still real.
        self.stats.retranslations += 1;
        self.charge(RETRANSLATE_INSTR, Language::Assembly);
        let cost = self.machine.cost;
        self.machine.clock.charge_descriptor_fetch(&cost);
        self.machine.clock.charge_descriptor_fetch(&cost);
        let sdw = self.sdw(pid, va.segno);
        if !sdw.present {
            // Another processor deactivated the segment in the window;
            // retry from the top (a segment fault will follow).
            self.unlock_global();
            return Ok(());
        }
        let ptw_addr = sdw.page_table.add(u64::from(va.pageno()));
        let ptw = Ptw::decode(self.machine.mem.read(ptw_addr));
        if ptw.present {
            // The race: someone else serviced it between fault and lock.
            self.stats.retranslations_resolved += 1;
            self.unlock_global();
            return Ok(());
        }
        // Identify the page with its segment by direct reference to the
        // AST (pt pool geometry) — segment control's data base.
        self.machine
            .clock
            .note_shared_data(Subsystem::SegmentControl);
        let (astx, pageno) = self
            .astx_of_ptw(ptw_addr)
            .ok_or(LegacyError::UnhandledFault(mx_hw::Fault::BadDescriptor {
                va,
            }))?;
        let label = self.process(pid)?.label;
        let io_before = self.machine.clock.disk_transfers();
        let service = self.service_page(astx, pageno, label);
        self.unlock_global();
        service?;
        // If the service moved data, the faulting process gave its
        // processor away while the transfer ran; charge the switch out
        // and back. A pure page creation completes without I/O.
        if self.machine.clock.disk_transfers() > io_before {
            self.yield_for_io(pid);
        }
        Ok(())
    }

    /// Maps a PTW's absolute address back to (AST index, page number) by
    /// the pool geometry — the shared-data shortcut the old design used.
    pub(crate) fn astx_of_ptw(&self, ptw_addr: AbsAddr) -> Option<(usize, u32)> {
        let base = self.ast.pt_addr(0);
        if ptw_addr.0 < base.0 {
            return None;
        }
        let rel = ptw_addr.0 - base.0;
        let slot = (rel / u64::from(crate::ast::PT_WORDS)) as usize;
        let pageno = (rel % u64::from(crate::ast::PT_WORDS)) as u32;
        let astx = self.ast.iter().find(|(_, a)| a.pt_slot == slot)?.0;
        Some((astx, pageno))
    }

    /// Brings (or creates) page `pageno` of the segment at `astx` into
    /// core. `subject` is the label of the acting process, used to record
    /// accounting information flows.
    ///
    /// # Errors
    ///
    /// [`LegacyError::QuotaExceeded`], [`LegacyError::AllPacksFull`],
    /// [`LegacyError::SegmentTooBig`], or frame-pool exhaustion.
    pub fn service_page(
        &mut self,
        astx: usize,
        pageno: u32,
        subject: Label,
    ) -> Result<(), LegacyError> {
        self.scoped(Subsystem::PageControl, |s| {
            s.service_page_body(astx, pageno, subject)
        })
    }

    fn service_page_body(
        &mut self,
        astx: usize,
        pageno: u32,
        subject: Label,
    ) -> Result<(), LegacyError> {
        if pageno >= crate::ast::PT_WORDS {
            return Err(LegacyError::SegmentTooBig);
        }
        self.charge(SERVICE_INSTR, Language::Assembly);
        let aste = self.ast.get(astx).ok_or(LegacyError::NotActive)?;
        let (home, len) = (aste.home, aste.len_pages);

        // What does the file map say about this page?
        let record = self
            .machine
            .disks
            .pack(home.pack)
            .and_then(|p| p.page_record(home.toc, pageno))
            .map_err(LegacyError::Disk)?;

        if let Some(record) = record {
            // Ordinary page-in from its disk record, with the bounded
            // transient-read retry; on exhaustion the claimed frame is
            // released and the typed error surfaces.
            let frame = self.claim_frame(astx, pageno)?;
            if let Err(e) =
                self.read_with_retry(|m| m.disk_read_into_frame(home.pack, record, frame))
            {
                self.frames.release(frame);
                return Err(e);
            }
            self.install_ptw(astx, pageno, frame);
            return Ok(());
        }

        // The page has never been used (beyond the length) or is a
        // zero-page flag: materialize it. Growth and materialization
        // require the quota check — the dynamic upward search.
        self.quota_charge(astx, 1, subject)?;
        let record = match self.allocate_record_for(astx) {
            Ok(r) => r,
            Err(e) => {
                self.quota_uncharge(astx, 1);
                return Err(e);
            }
        };
        let frame = match self.claim_frame(astx, pageno) {
            Ok(f) => f,
            Err(e) => {
                let aste = self.ast.get(astx).ok_or(LegacyError::NotActive)?;
                let pack = aste.home.pack;
                // Best effort on this unwind path: a record the free
                // cannot reach is the salvager's to reclaim.
                if let Ok(p) = self.machine.disks.pack_mut(pack) {
                    let _ = p.free_record(record);
                }
                self.quota_uncharge(astx, 1);
                return Err(e);
            }
        };
        self.machine.mem.zero_frame(frame);
        self.stats.materializations += 1;

        // Commit the new page to the file map (growing it if needed).
        let aste = self.ast.get_mut(astx).ok_or(LegacyError::NotActive)?;
        aste.len_pages = len.max(pageno + 1);
        let home = aste.home;
        self.machine
            .disks
            .pack_mut(home.pack)
            .and_then(|p| p.map_page(home.toc, pageno, Some(record)))
            .map_err(LegacyError::Disk)?;
        self.install_ptw(astx, pageno, frame);
        Ok(())
    }

    /// Makes one disk read, absorbing transient read errors up to
    /// [`READ_RETRY_BUDGET`] retries; anything worse surfaces as
    /// [`LegacyError::Disk`].
    pub(crate) fn read_with_retry<T>(
        &mut self,
        read: impl FnMut(&mut Machine) -> Result<T, DiskError>,
    ) -> Result<T, LegacyError> {
        let (outcome, retries) = self.machine.read_with_retry(READ_ABSORB, read);
        self.stats.disk_retries += u64::from(retries);
        outcome.map_err(LegacyError::Disk)
    }

    fn install_ptw(&mut self, astx: usize, pageno: u32, frame: FrameNo) {
        self.set_ptw(
            astx,
            pageno,
            Ptw {
                frame,
                present: true,
                used: true,
                ..Ptw::default()
            },
        );
    }

    /// Allocates a disk record on the segment's own pack; on a full pack,
    /// invokes segment control to relocate the segment and retries on its
    /// new home — the upward call of the full-pack loop.
    fn allocate_record_for(&mut self, astx: usize) -> Result<mx_hw::RecordNo, LegacyError> {
        let allocate = |s: &mut Self| -> Result<mx_hw::RecordNo, LegacyError> {
            let home = s.ast.get(astx).ok_or(LegacyError::NotActive)?.home;
            let pack = s
                .machine
                .disks
                .pack_mut(home.pack)
                .map_err(LegacyError::Disk)?;
            pack.allocate_record()
                .map_err(|_| LegacyError::AllPacksFull)
        };
        match allocate(self) {
            // Full disk pack: page control invokes segment control.
            Err(LegacyError::AllPacksFull) => {
                self.relocate_segment(astx)?;
                allocate(self)
            }
            allocated => allocated,
        }
    }

    /// Claims a core frame, evicting by the clock algorithm when none is
    /// free.
    pub(crate) fn claim_frame(&mut self, astx: usize, pageno: u32) -> Result<FrameNo, LegacyError> {
        if let Some(f) = self.frames.take(astx as u32, pageno) {
            return Ok(f);
        }
        let victim = self.select_victim()?;
        self.evict(victim)?;
        self.frames
            .take(astx as u32, pageno)
            .ok_or(LegacyError::PageTablePoolFull)
    }

    /// Second-chance clock over the pageable frames.
    fn select_victim(&mut self) -> Result<FrameNo, LegacyError> {
        let limit = self.frames.pageable() * 2 + 2;
        for _ in 0..limit {
            let frame = self.frames.tick();
            let Some(Page { owner, pageno }) = self.frames.page(frame) else {
                continue;
            };
            let astx = owner as usize;
            let mut ptw = self.ptw(astx, pageno);
            if ptw.wired {
                continue;
            }
            if ptw.used {
                ptw.used = false;
                self.set_ptw(astx, pageno, ptw);
                continue;
            }
            return Ok(frame);
        }
        Err(LegacyError::PageTablePoolFull)
    }

    /// Evicts the page in `frame`: scans it for all-zeros (reverting to a
    /// file-map flag and dropping the storage charge if so), otherwise
    /// writes it to its disk record.
    pub(crate) fn evict(&mut self, frame: FrameNo) -> Result<(), LegacyError> {
        let Some(Page { owner, pageno }) = self.frames.page(frame) else {
            return Ok(());
        };
        let astx = owner as usize;
        self.stats.evictions += 1;
        // "This algorithm must be given (otherwise unnecessary) access to
        // the data in every page of every file stored by the system."
        self.charge(EVICT_SCAN_INSTR, Language::Assembly);
        let home = self.ast.get(astx).ok_or(LegacyError::NotActive)?.home;
        let modified = self.ptw(astx, pageno).modified;
        let disks = &mut self.machine.disks;
        if self.machine.mem.frame_is_zero(frame) {
            // Revert to the zero-page flag; free the record and drop the
            // charge.
            let pack = disks.pack_mut(home.pack).map_err(LegacyError::Disk)?;
            if pack
                .unmap_page(home.toc, pageno)
                .map_err(LegacyError::Disk)?
                .is_some()
            {
                self.quota_uncharge(astx, 1);
            }
            self.stats.zero_reversions += 1;
        } else if modified {
            let pack = disks.pack(home.pack).map_err(LegacyError::Disk)?;
            let record = pack
                .page_record(home.toc, pageno)
                .map_err(LegacyError::Disk)?;
            let record = record.ok_or(LegacyError::NotActive)?;
            self.machine
                .disk_write_from_frame(home.pack, record, frame)
                .map_err(LegacyError::Disk)?;
        }
        self.set_ptw(astx, pageno, Ptw::default());
        self.frames.release(frame);
        Ok(())
    }

    /// Charges `pages` against the nearest superior quota directory,
    /// walking the AST's image of the hierarchy (the dynamic search the
    /// new design eliminates).
    ///
    /// # Errors
    ///
    /// [`LegacyError::QuotaExceeded`] if the charge would exceed the
    /// limit.
    pub(crate) fn quota_charge(
        &mut self,
        astx: usize,
        pages: u32,
        subject: Label,
    ) -> Result<(), LegacyError> {
        // "Nearest superior quota directory": the search starts at the
        // segment's superior, so a quota directory's own pages charge
        // the next cell up, not its own.
        let start = self.ast.get(astx).and_then(|a| a.parent).unwrap_or(astx);
        let (qdir, levels) = self
            .ast
            .nearest_quota_dir(start)
            .expect("root always carries a quota cell");
        self.stats.quota_walks += 1;
        self.stats.quota_walk_levels += u64::from(levels);
        self.charge(
            QUOTA_WALK_INSTR_PER_LEVEL * (u64::from(levels) + 1),
            Language::Assembly,
        );
        let qlabel = self.ast.get(qdir).expect("quota dir").label;
        // Mutating a quota cell in the AST: segment control's data base,
        // written directly from page control — Figure 3's shared-data edge.
        self.machine
            .clock
            .note_shared_data(Subsystem::SegmentControl);
        let cell = self
            .ast
            .get_mut(qdir)
            .expect("quota dir")
            .quota
            .as_mut()
            .expect("cell");
        if cell.used + pages > cell.limit {
            let (limit, used) = (cell.limit, cell.used);
            return Err(LegacyError::QuotaExceeded { limit, used });
        }
        cell.used += pages;
        // The accounting update is an information flow from the acting
        // subject into the quota directory's cell.
        self.flows.observe(
            subject,
            qlabel,
            "quota used-count update on page materialization",
        );
        Ok(())
    }

    /// Reverses a quota charge (page reverted to zero flag, truncation,
    /// deletion). `astx` is the charged object; the walk starts at its
    /// superior, mirroring [`Self::quota_charge`].
    pub(crate) fn quota_uncharge(&mut self, astx: usize, pages: u32) {
        let start = self.ast.get(astx).and_then(|a| a.parent).unwrap_or(astx);
        self.quota_uncharge_from(start, pages);
    }

    /// Reverses a quota charge walking up from `start` itself — for
    /// callers holding the charged object's *containing directory*
    /// (which may itself be the governing quota directory), not the
    /// object. Deleting an inactive segment is the one such caller: the
    /// segment has no AST entry to start from, only its parent does.
    pub(crate) fn quota_uncharge_from(&mut self, start: usize, pages: u32) {
        let (qdir, levels) = self
            .ast
            .nearest_quota_dir(start)
            .expect("root always carries a quota cell");
        self.stats.quota_walks += 1;
        self.stats.quota_walk_levels += u64::from(levels);
        self.charge(
            QUOTA_WALK_INSTR_PER_LEVEL * (u64::from(levels) + 1),
            Language::Assembly,
        );
        self.machine
            .clock
            .note_shared_data(Subsystem::SegmentControl);
        let cell = self
            .ast
            .get_mut(qdir)
            .expect("quota dir")
            .quota
            .as_mut()
            .expect("cell");
        cell.used = cell.used.saturating_sub(pages);
    }

    /// Flushes every resident page of a segment (used before
    /// deactivation and relocation, and by experiments that want cold
    /// rereads).
    pub fn flush_segment(&mut self, astx: usize) -> Result<(), LegacyError> {
        self.scoped(Subsystem::PageControl, |s| {
            for (frame, _pageno) in s.frames.owned(astx as u32) {
                s.evict(frame)?;
            }
            Ok(())
        })
    }

    pub(crate) fn lock_global(&mut self) {
        if self.lock.held {
            self.stats.lock_contentions += 1;
        }
        self.lock.held = true;
    }

    pub(crate) fn unlock_global(&mut self) {
        self.lock.held = false;
    }

    /// Drives the full missing-page handler from outside the crate —
    /// the race tests stage the window and then invoke this.
    ///
    /// # Errors
    ///
    /// As [`Supervisor::service_page`].
    pub fn handle_page_fault_for_test(
        &mut self,
        pid: ProcessId,
        va: VirtAddr,
        descriptor: AbsAddr,
    ) -> Result<(), LegacyError> {
        self.scoped(Subsystem::PageControl, |s| {
            s.page_fault(pid, va, descriptor)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::SupervisorConfig;
    use mx_hw::{Word, PAGE_WORDS};

    fn small() -> Supervisor {
        Supervisor::boot(SupervisorConfig {
            frames: 64,
            pt_slots: 16,
            max_processes: 4,
            packs: 2,
            records_per_pack: 64,
            toc_slots_per_pack: 32,
            root_quota: 200,
        })
    }

    #[test]
    fn materialization_charges_quota_and_eviction_of_zero_reverts() {
        let mut sup = small();
        let root = sup.ast.find(sup.root()).unwrap();
        // Touch three pages without writing anything nonzero.
        for p in 1..4 {
            sup.service_page(root, p, Label::BOTTOM).unwrap();
        }
        let used_before = sup.ast.get(root).unwrap().quota.unwrap().used;
        assert_eq!(used_before, 4, "header + 3 materialized pages charged");
        // Evict them all: all-zero pages revert and uncharge.
        sup.flush_segment(root).unwrap();
        let used_after = sup.ast.get(root).unwrap().quota.unwrap().used;
        assert_eq!(used_after, 0, "all pages were zero, all charges dropped");
        assert!(sup.stats.zero_reversions >= 3);
    }

    #[test]
    fn nonzero_page_survives_eviction_and_keeps_its_charge() {
        let mut sup = small();
        let root = sup.ast.find(sup.root()).unwrap();
        sup.sup_write(root, 5, Word::new(0o123)).unwrap();
        sup.flush_segment(root).unwrap();
        let used = sup.ast.get(root).unwrap().quota.unwrap().used;
        assert_eq!(used, 1, "page 0 holds data, stays charged");
        assert_eq!(
            sup.sup_read(root, 5).unwrap(),
            Word::new(0o123),
            "data pages back in"
        );
    }

    #[test]
    fn quota_exhaustion_is_reported_and_not_charged() {
        let mut sup = Supervisor::boot(SupervisorConfig {
            root_quota: 2,
            ..SupervisorConfig::default()
        });
        let root = sup.ast.find(sup.root()).unwrap();
        sup.service_page(root, 1, Label::BOTTOM).unwrap();
        let err = sup.service_page(root, 2, Label::BOTTOM).unwrap_err();
        assert!(matches!(
            err,
            LegacyError::QuotaExceeded { limit: 2, used: 2 }
        ));
        assert_eq!(
            sup.ast.get(root).unwrap().quota.unwrap().used,
            2,
            "failed charge rolled back"
        );
    }

    #[test]
    fn replacement_evicts_under_memory_pressure() {
        let mut sup = Supervisor::boot(SupervisorConfig {
            frames: 48, // wired ≈ 9, so ~39 pageable
            pt_slots: 16,
            max_processes: 4,
            packs: 1,
            records_per_pack: 128,
            toc_slots_per_pack: 16,
            root_quota: 150,
        });
        let root = sup.ast.find(sup.root()).unwrap();
        // Touch more pages than there are pageable frames.
        let pages = sup.frames.pageable() + 8;
        for p in 0..pages {
            sup.sup_write(root, p * PAGE_WORDS as u32, Word::new(u64::from(p) + 1))
                .unwrap();
        }
        assert!(sup.stats.evictions > 0, "pressure forced evictions");
        // Every page still readable (paged back in on demand).
        for p in 0..pages {
            assert_eq!(
                sup.sup_read(root, p * PAGE_WORDS as u32).unwrap(),
                Word::new(u64::from(p) + 1)
            );
        }
    }

    #[test]
    fn flows_record_the_accounting_side_effect() {
        let mut sup = small();
        let root = sup.ast.find(sup.root()).unwrap();
        let secret = Label::new(mx_aim::Level(2), mx_aim::CompartmentSet::empty());
        sup.service_page(root, 1, secret).unwrap();
        // A level-2 subject updated the level-0 root quota cell: an
        // unlawful downward flow, recorded.
        assert!(sup.flows.violation_count() >= 1);
    }
}
