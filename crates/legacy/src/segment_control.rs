//! Segment control: activation, deactivation, connection, relocation.
//!
//! Activation must bring the whole superior chain of directories active
//! first (the AST mirrors the hierarchy); deactivation refuses while
//! inferior segments are active. On a full pack, [`Supervisor::
//! relocate_segment`] moves every record of the segment to the emptiest
//! other pack (the kernel's copy too, [`mx_hw::storage`]) and then — the
//! loop the paper highlights — *directly rewrites the directory entry*
//! it locates through the branch table, the data base the naming layers
//! maintain.

use crate::ast::{Aste, QuotaCell};
use crate::page_control::READ_ABSORB;
use crate::supervisor::Supervisor;
use crate::types::{LegacyError, ProcessId, SegUid};
use mx_hw::cpu::Sdw;
use mx_hw::meter::Subsystem;
use mx_hw::{DiskError, Language};

/// Abstract-instruction costs of segment control's PL/I paths.
const ACTIVATE_INSTR: u64 = 120;
const DEACTIVATE_INSTR: u64 = 90;
const RELOCATE_INSTR: u64 = 400;

impl Supervisor {
    /// Ensures the segment `uid` is active, activating its superior
    /// directories first, and returns its AST index.
    ///
    /// # Errors
    ///
    /// [`LegacyError::AstFull`] when no slot is free,
    /// [`LegacyError::NoAccess`] for an unknown uid, plus paging errors
    /// from reading directory entries.
    pub fn activate(&mut self, uid: SegUid) -> Result<usize, LegacyError> {
        if let Some(astx) = self.ast.find(uid) {
            return Ok(astx);
        }
        self.scoped(Subsystem::SegmentControl, |s| s.activate_body(uid))
    }

    fn activate_body(&mut self, uid: SegUid) -> Result<usize, LegacyError> {
        self.charge(ACTIVATE_INSTR, Language::Pli);
        let branch = *self.branch_table.get(&uid).ok_or(LegacyError::NoAccess)?;
        let parent_uid = branch.parent.ok_or(LegacyError::NoAccess)?;
        let parent_astx = self.activate(parent_uid)?;

        // Read the entry record out of the superior directory segment.
        let entry = self.read_entry(parent_astx, branch.slot)?;
        let home = entry.home;
        let len_pages = {
            let pack = self
                .machine
                .disks
                .pack(home.pack)
                .map_err(LegacyError::Disk)?;
            pack.entry(home.toc).map(|e| e.len_pages()).unwrap_or(0)
        };
        let quota = entry.quota_dir.then_some(QuotaCell {
            limit: entry.quota_limit,
            used: entry.quota_used,
        });
        let aste = Aste {
            uid,
            home,
            pt_slot: 0,
            len_pages,
            is_dir: entry.is_dir,
            parent: Some(parent_astx),
            inferiors: 0,
            quota,
            dir_home: Some((parent_astx, branch.slot)),
            connections: Vec::new(),
            label: entry.label,
        };
        let astx = self.ast.activate(aste).ok_or(LegacyError::AstFull)?;
        // The claimed page-table slot may be a reused one; translations
        // cached from its previous tenant must not survive into the new
        // segment's table.
        if let Some(aste) = self.ast.get(astx) {
            let pt_base = self.ast.pt_addr(aste.pt_slot);
            self.machine
                .tlb_invalidate_ptw_range(pt_base, u64::from(crate::ast::PT_WORDS));
        }
        Ok(astx)
    }

    /// Deactivates a segment: flushes its pages, persists its quota cell
    /// into its directory entry, and disconnects every process.
    ///
    /// # Errors
    ///
    /// [`LegacyError::NotActive`] if the segment is not active or — the
    /// hierarchy constraint — still has active inferiors.
    pub fn deactivate_segment(&mut self, uid: SegUid) -> Result<(), LegacyError> {
        self.scoped(Subsystem::SegmentControl, |s| {
            s.deactivate_segment_body(uid)
        })
    }

    fn deactivate_segment_body(&mut self, uid: SegUid) -> Result<(), LegacyError> {
        let astx = self.ast.find(uid).ok_or(LegacyError::NotActive)?;
        if self.ast.get(astx).expect("found").inferiors > 0 {
            return Err(LegacyError::NotActive);
        }
        self.charge(DEACTIVATE_INSTR, Language::Pli);
        self.flush_segment(astx)?;
        let aste = self.ast.get(astx).expect("found").clone();
        // Persist the quota cell into the directory entry.
        if let (Some(cell), Some((parent_astx, slot))) = (aste.quota, aste.dir_home) {
            self.write_entry_quota(parent_astx, slot, cell.limit, cell.used)?;
        }
        // Disconnect every address space.
        for (pid, segno) in aste.connections {
            if self
                .processes
                .get(pid.0 as usize)
                .and_then(|p| p.as_ref())
                .is_some()
            {
                self.set_sdw(pid, segno, Sdw::default());
            }
        }
        self.ast.deactivate(astx);
        Ok(())
    }

    /// Connects a segment into a process's address space at `segno`,
    /// with access bits from the process's KST entry.
    pub(crate) fn connect(&mut self, pid: ProcessId, segno: u32, astx: usize) {
        let kst = self.processes[pid.0 as usize]
            .as_ref()
            .expect("live process")
            .kst
            .get(segno)
            .expect("initiated segno")
            .clone();
        let aste = self.ast.get_mut(astx).expect("live astx");
        let pt = aste.pt_slot;
        if !aste.connections.contains(&(pid, segno)) {
            aste.connections.push((pid, segno));
        }
        let sdw = Sdw {
            page_table: self.ast.pt_addr(pt),
            bound_pages: crate::ast::PT_WORDS,
            read: kst.read,
            write: kst.write,
            execute: kst.execute,
            present: true,
            software: self.ast.get(astx).expect("live").is_dir,
        };
        self.set_sdw(pid, segno, sdw);
    }

    /// The missing-segment fault handler: activate (chain) and connect.
    pub(crate) fn segment_fault(&mut self, pid: ProcessId, segno: u32) -> Result<(), LegacyError> {
        let uid = self
            .process(pid)?
            .kst
            .get(segno)
            .map(|e| e.uid)
            .ok_or(LegacyError::NoAccess)?;
        let astx = self.activate(uid)?;
        self.connect(pid, segno, astx);
        Ok(())
    }

    /// Relocates a whole segment to the emptiest other pack (full-pack
    /// service, [`mx_hw::Machine::move_segment`]) and directly rewrites
    /// its directory entry.
    ///
    /// # Errors
    ///
    /// [`LegacyError::AllPacksFull`] when no pack can take the segment
    /// and one page more; [`LegacyError::Disk`] for a failed transfer.
    pub(crate) fn relocate_segment(&mut self, astx: usize) -> Result<(), LegacyError> {
        self.stats.relocations += 1;
        self.charge(RELOCATE_INSTR, Language::Pli);
        // Push resident pages out to the old records first so the copy
        // sees current contents.
        self.flush_segment(astx)?;

        // The copy reads through the fault-checked channel with page
        // control's retry edge.
        let aste = self.ast.get(astx).expect("live astx");
        let (old, dir_home) = (aste.home, aste.dir_home);
        let (moved, retries) = self.machine.move_segment(old, READ_ABSORB);
        self.stats.disk_retries += u64::from(retries);
        let new_home = moved.map_err(|e| match e {
            DiskError::PackFull { .. } | DiskError::TocFull { .. } => LegacyError::AllPacksFull,
            e => LegacyError::Disk(e),
        })?;

        // Update the AST and then — reading the branch table, the data
        // base the naming layers own — directly rewrite the directory
        // entry with the new pack and TOC index.
        self.salvage_note_relocated(new_home);
        self.ast.get_mut(astx).expect("live astx").home = new_home;
        self.machine
            .clock
            .note_shared_data(Subsystem::DirectoryControl);
        match dir_home {
            Some((parent_astx, slot)) => self.write_entry_home(parent_astx, slot, new_home)?,
            None => self.root_home = new_home,
        }
        Ok(())
    }

    /// Truncates a segment to zero pages, releasing records and charges.
    ///
    /// # Errors
    ///
    /// [`LegacyError::NotActive`] if the segment is not active.
    pub fn truncate_segment(&mut self, uid: SegUid) -> Result<(), LegacyError> {
        self.scoped(Subsystem::SegmentControl, |s| s.truncate_segment_body(uid))
    }

    fn truncate_segment_body(&mut self, uid: SegUid) -> Result<(), LegacyError> {
        let astx = self.ast.find(uid).ok_or(LegacyError::NotActive)?;
        // Drop resident frames without write-back.
        for (frame, pageno) in self.frames.owned(astx as u32) {
            self.set_ptw(astx, pageno, Default::default());
            self.frames.release(frame);
        }
        let home = self.ast.get(astx).ok_or(LegacyError::NotActive)?.home;
        let released = self
            .machine
            .disks
            .pack_mut(home.pack)
            .and_then(|p| p.truncate_entry(home.toc))
            .map_err(LegacyError::Disk)?;
        if released > 0 {
            self.quota_uncharge(astx, released);
        }
        self.ast.get_mut(astx).expect("live").len_pages = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::SupervisorConfig;
    use crate::types::{Acl, UserId};
    use mx_aim::Label;
    use mx_hw::Word;

    fn sup_with_tree() -> (Supervisor, SegUid, SegUid) {
        let mut sup = Supervisor::boot_default();
        let user = UserId(1);
        let dir = sup
            .create_directory_in(sup.root(), "sub", Acl::owner(user), Label::BOTTOM)
            .unwrap();
        let seg = sup
            .create_segment_in(dir, "data", Acl::owner(user), Label::BOTTOM)
            .unwrap();
        // Creation does not activate the new segment; do so explicitly.
        sup.activate(seg).unwrap();
        (sup, dir, seg)
    }

    #[test]
    fn activation_brings_the_superior_chain_active() {
        let (mut sup, dir, seg) = sup_with_tree();
        // Deactivate bottom-up so the hierarchy constraint is honoured.
        sup.deactivate_segment(seg).unwrap();
        sup.deactivate_segment(dir).unwrap();
        assert!(sup.ast.find(seg).is_none());
        assert!(sup.ast.find(dir).is_none());
        // Activating the leaf reactivates the chain.
        let astx = sup.activate(seg).unwrap();
        assert!(sup.ast.find(dir).is_some(), "superior reactivated");
        let parent = sup.ast.get(astx).unwrap().parent.unwrap();
        assert_eq!(sup.ast.get(parent).unwrap().uid, dir);
    }

    #[test]
    fn deactivation_refused_while_inferiors_active() {
        let (mut sup, dir, _seg) = sup_with_tree();
        assert_eq!(sup.deactivate_segment(dir), Err(LegacyError::NotActive));
    }

    #[test]
    fn relocation_moves_data_and_rewrites_the_directory_entry() {
        let mut sup = Supervisor::boot(SupervisorConfig {
            packs: 2,
            records_per_pack: 12,
            toc_slots_per_pack: 8,
            root_quota: 40,
            ..SupervisorConfig::default()
        });
        let user = UserId(1);
        let seg = sup
            .create_segment_in(sup.root(), "grower", Acl::owner(user), Label::BOTTOM)
            .unwrap();
        let astx = sup.activate(seg).unwrap();
        // Fill pack 0: root header + grower pages until the pack fills;
        // the next growth forces relocation to pack 1.
        let mut wrote = 0;
        for p in 0.. {
            sup.sup_write(astx, p * mx_hw::PAGE_WORDS as u32, Word::new(p as u64 + 1))
                .unwrap();
            wrote = p;
            if sup.stats.relocations > 0 {
                break;
            }
            assert!(p < 30, "relocation never triggered");
        }
        let home = sup.ast.get(astx).unwrap().home;
        assert_ne!(
            home.pack,
            mx_hw::PackId(0),
            "segment moved off the full pack"
        );
        // Every page still readable from the new pack.
        sup.flush_segment(astx).unwrap();
        for p in 0..=wrote {
            assert_eq!(
                sup.sup_read(astx, p * mx_hw::PAGE_WORDS as u32).unwrap(),
                Word::new(p as u64 + 1)
            );
        }
        // The directory entry now names the new home.
        let root_astx = sup.ast.find(sup.root()).unwrap();
        let slot = sup.branch_table[&seg].slot;
        let entry = sup.read_entry(root_astx, slot).unwrap();
        assert_eq!(entry.home, home);
    }

    #[test]
    fn truncate_releases_records_and_charges() {
        let (mut sup, _dir, seg) = sup_with_tree();
        let astx = sup.activate(seg).unwrap();
        for p in 0..3 {
            sup.sup_write(astx, p * mx_hw::PAGE_WORDS as u32, Word::new(9))
                .unwrap();
        }
        let root_astx = sup.ast.find(sup.root()).unwrap();
        let used_before = sup.ast.get(root_astx).unwrap().quota.unwrap().used;
        sup.truncate_segment(seg).unwrap();
        let used_after = sup.ast.get(root_astx).unwrap().quota.unwrap().used;
        assert_eq!(used_before - used_after, 3);
        assert_eq!(sup.ast.get(astx).unwrap().len_pages, 0);
    }
}
