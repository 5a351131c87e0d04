//! The Disk Record Manager.
//!
//! The manager of disk-record objects and table-of-contents entries: the
//! component layer under both the page-frame manager (records hold
//! pages) and the quota-cell manager (cells persist in TOC entries).
//! It wraps the raw pack hardware with kernel error reporting and clock
//! charges; it knows nothing about segments, directories, or quota.
//! Its file-map edits and the full-pack segment move are the old
//! supervisor's too, in [`DiskPack`] and [`mx_hw::storage`].

use crate::error::KernelError;
use crate::page_frame::READ_ABSORB;
use crate::types::DiskHome;
use mx_hw::{DiskError, DiskPack, DiskSystem, Machine, PackId, RecordNo, TocEntry, TocIndex};

/// The disk-record object manager.
#[derive(Debug, Default, Clone)]
pub struct DiskRecordManager {
    /// Full-pack conditions surfaced.
    pub pack_full_events: u64,
}

/// The pack `pack`, for a manager that edits it; an unknown pack is an
/// object that is not active.
fn pack_mut(machine: &mut Machine, pack: PackId) -> Result<&mut DiskPack, KernelError> {
    machine
        .disks
        .pack_mut(pack)
        .map_err(|_| KernelError::NotActive)
}

impl DiskRecordManager {
    /// A fresh manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a TOC entry for a new segment on `pack`.
    ///
    /// # Errors
    ///
    /// [`KernelError::TableFull`] when the TOC is full.
    pub fn create_entry(
        &mut self,
        machine: &mut Machine,
        pack: PackId,
        uid: u64,
    ) -> Result<TocIndex, KernelError> {
        machine
            .disks
            .pack_mut(pack)
            .map_err(|_| KernelError::TableFull("pack"))?
            .create_entry(uid)
            .map_err(|_| KernelError::TableFull("table of contents"))
    }

    /// Creates a TOC entry on `preferred` if it has room, otherwise on
    /// any pack with a free slot (fullest-free-records first).
    ///
    /// # Errors
    ///
    /// [`KernelError::TableFull`] when every TOC in the system is full.
    pub fn create_entry_anywhere(
        &mut self,
        machine: &mut Machine,
        preferred: PackId,
        uid: u64,
    ) -> Result<DiskHome, KernelError> {
        if let Ok(toc) = self.create_entry(machine, preferred, uid) {
            return Ok(DiskHome {
                pack: preferred,
                toc,
            });
        }
        let mut candidates: Vec<(u32, PackId)> = machine
            .disks
            .packs()
            .filter(|p| p.id != preferred)
            .map(|p| (p.free_records(), p.id))
            .collect();
        candidates.sort_by(|a, b| b.cmp(a));
        for (_, pack) in candidates {
            if let Ok(toc) = self.create_entry(machine, pack, uid) {
                return Ok(DiskHome { pack, toc });
            }
        }
        Err(KernelError::TableFull("table of contents"))
    }

    /// Deletes a TOC entry, freeing its records.
    ///
    /// # Errors
    ///
    /// [`KernelError::NotActive`] for an unknown entry.
    pub fn delete_entry(
        &mut self,
        machine: &mut Machine,
        home: DiskHome,
    ) -> Result<(), KernelError> {
        pack_mut(machine, home.pack)?
            .delete_entry(home.toc)
            .map_err(|_| KernelError::NotActive)
    }

    /// Allocates a record on `pack`.
    ///
    /// # Errors
    ///
    /// [`KernelError::AllPacksFull`] on the full-pack condition — the
    /// caller (the segment manager) decides whether to relocate.
    pub fn allocate(
        &mut self,
        machine: &mut Machine,
        pack: PackId,
    ) -> Result<RecordNo, KernelError> {
        pack_mut(machine, pack)?.allocate_record().map_err(|_| {
            self.pack_full_events += 1;
            KernelError::AllPacksFull
        })
    }

    /// Frees a record.
    ///
    /// # Panics
    ///
    /// Panics if the record was not allocated — only the kernel hands
    /// out record names, so this is an invariant violation.
    pub fn free(&self, machine: &mut Machine, pack: PackId, record: RecordNo) {
        machine
            .disks
            .pack_mut(pack)
            .expect("known pack")
            .free_record(record)
            .expect("record was allocated");
    }

    /// Shared access to a pack (read-only operations).
    ///
    /// # Errors
    ///
    /// [`KernelError::NotActive`] for an unknown pack.
    pub fn pack<'m>(
        &self,
        machine: &'m Machine,
        pack: PackId,
    ) -> Result<&'m DiskPack, KernelError> {
        machine.disks.pack(pack).map_err(|_| KernelError::NotActive)
    }

    /// The TOC entry at `home`.
    fn entry<'m>(&self, machine: &'m Machine, home: DiskHome) -> Result<&'m TocEntry, KernelError> {
        self.pack(machine, home.pack)?
            .entry(home.toc)
            .map_err(|_| KernelError::NotActive)
    }

    /// The file map entry for page `pageno` of the segment at `home`.
    ///
    /// # Errors
    ///
    /// [`KernelError::NotActive`] for an unknown entry.
    pub fn record_of(
        &self,
        machine: &Machine,
        home: DiskHome,
        pageno: u32,
    ) -> Result<Option<RecordNo>, KernelError> {
        self.pack(machine, home.pack)?
            .page_record(home.toc, pageno)
            .map_err(|_| KernelError::NotActive)
    }

    /// The file map of the segment at `home`: page `p`'s record at
    /// index `p`, `None` for a zero page; pages past its end are zero
    /// pages. It borrows only the disks, so a caller may write core
    /// while it reads the map.
    ///
    /// # Errors
    ///
    /// [`KernelError::NotActive`] for an unknown entry.
    pub fn file_map<'d>(
        &self,
        disks: &'d DiskSystem,
        home: DiskHome,
    ) -> Result<&'d [Option<RecordNo>], KernelError> {
        disks
            .pack(home.pack)
            .and_then(|p| p.entry(home.toc))
            .map(|e| e.file_map.as_slice())
            .map_err(|_| KernelError::NotActive)
    }

    /// Current length (pages) of the segment at `home`.
    ///
    /// # Errors
    ///
    /// [`KernelError::NotActive`] for an unknown entry.
    pub fn len_pages(&self, machine: &Machine, home: DiskHome) -> Result<u32, KernelError> {
        Ok(self.entry(machine, home)?.len_pages())
    }

    /// Records currently charged to the segment at `home`.
    ///
    /// # Errors
    ///
    /// [`KernelError::NotActive`] for an unknown entry.
    pub fn records_used(&self, machine: &Machine, home: DiskHome) -> Result<u32, KernelError> {
        Ok(self.entry(machine, home)?.records_used())
    }

    /// Points page `pageno` of the file map at `record` (growing the map
    /// as needed).
    ///
    /// # Errors
    ///
    /// [`KernelError::NotActive`] for an unknown entry.
    pub fn set_record(
        &mut self,
        machine: &mut Machine,
        home: DiskHome,
        pageno: u32,
        record: Option<RecordNo>,
    ) -> Result<(), KernelError> {
        pack_mut(machine, home.pack)?
            .map_page(home.toc, pageno, record)
            .map_err(|_| KernelError::NotActive)
    }

    /// Makes page `pageno` of the segment at `home` a zero page, freeing
    /// its record; true if it had one.
    ///
    /// # Errors
    ///
    /// [`KernelError::NotActive`] for an unknown entry or a record that
    /// was not allocated.
    pub fn unmap(
        &mut self,
        machine: &mut Machine,
        home: DiskHome,
        pageno: u32,
    ) -> Result<bool, KernelError> {
        pack_mut(machine, home.pack)?
            .unmap_page(home.toc, pageno)
            .map(|freed| freed.is_some())
            .map_err(|_| KernelError::NotActive)
    }

    /// Truncates the segment at `home` to zero pages, freeing its
    /// records; returns how many it freed.
    ///
    /// # Errors
    ///
    /// [`KernelError::NotActive`] for an unknown entry or a record that
    /// was not allocated.
    pub fn truncate(&mut self, machine: &mut Machine, home: DiskHome) -> Result<u32, KernelError> {
        pack_mut(machine, home.pack)?
            .truncate_entry(home.toc)
            .map_err(|_| KernelError::NotActive)
    }

    /// Moves the segment at `home` — records, file map and quota-cell
    /// record — to the emptiest other pack, reading each record as the
    /// page-frame manager does ([`Machine::move_segment`]). Returns its
    /// new home, with the transient read failures the move absorbed
    /// (counted whether or not it completed).
    ///
    /// # Errors
    ///
    /// [`KernelError::AllPacksFull`] if no other pack has a free record
    /// for every mapped page and one more, [`KernelError::TableFull`] if
    /// its TOC is full, [`KernelError::Disk`] for a failed transfer. A
    /// failed move leaves nothing behind unless the power failed.
    pub fn move_segment(
        &mut self,
        machine: &mut Machine,
        home: DiskHome,
    ) -> (Result<DiskHome, KernelError>, u32) {
        let (moved, absorbed) = machine.move_segment(home, READ_ABSORB);
        let moved = moved.map_err(|e| match e {
            DiskError::PackFull { .. } => KernelError::AllPacksFull,
            DiskError::TocFull { .. } => KernelError::TableFull("table of contents"),
            DiskError::NoSuchEntry { .. } => KernelError::NotActive,
            e => KernelError::Disk(e),
        });
        (moved, absorbed)
    }

    /// Reads the on-disk quota cell of the entry at `home`.
    ///
    /// # Errors
    ///
    /// [`KernelError::NotActive`] for an unknown entry.
    pub fn read_quota_cell(
        &self,
        machine: &Machine,
        home: DiskHome,
    ) -> Result<Option<mx_hw::disk::QuotaCellRecord>, KernelError> {
        Ok(self.entry(machine, home)?.quota_cell)
    }

    /// Writes the on-disk quota cell of the entry at `home`.
    ///
    /// # Errors
    ///
    /// [`KernelError::NotActive`] for an unknown entry.
    pub fn write_quota_cell(
        &mut self,
        machine: &mut Machine,
        home: DiskHome,
        cell: Option<mx_hw::disk::QuotaCellRecord>,
    ) -> Result<(), KernelError> {
        pack_mut(machine, home.pack)?
            .entry_mut(home.toc)
            .map_err(|_| KernelError::NotActive)?
            .quota_cell = cell;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mx_hw::MachineConfig;

    fn machine() -> Machine {
        Machine::new(MachineConfig {
            packs: 2,
            records_per_pack: 4,
            toc_slots_per_pack: 4,
            ..MachineConfig::kernel_proposed()
        })
    }

    #[test]
    fn entry_and_record_lifecycle() {
        let mut m = machine();
        let mut drm = DiskRecordManager::new();
        let toc = drm.create_entry(&mut m, PackId(0), 42).unwrap();
        let home = DiskHome {
            pack: PackId(0),
            toc,
        };
        assert_eq!(drm.len_pages(&m, home).unwrap(), 0);
        let rec = drm.allocate(&mut m, PackId(0)).unwrap();
        drm.set_record(&mut m, home, 2, Some(rec)).unwrap();
        assert_eq!(drm.len_pages(&m, home).unwrap(), 3);
        assert_eq!(drm.records_used(&m, home).unwrap(), 1);
        assert_eq!(drm.record_of(&m, home, 2).unwrap(), Some(rec));
        assert_eq!(
            drm.record_of(&m, home, 0).unwrap(),
            None,
            "hole is a zero flag"
        );
        drm.delete_entry(&mut m, home).unwrap();
        assert!(drm.len_pages(&m, home).is_err());
    }

    #[test]
    fn pack_full_is_surfaced_and_counted() {
        let mut m = machine();
        let mut drm = DiskRecordManager::new();
        for _ in 0..4 {
            drm.allocate(&mut m, PackId(0)).unwrap();
        }
        assert_eq!(
            drm.allocate(&mut m, PackId(0)),
            Err(KernelError::AllPacksFull)
        );
        assert_eq!(drm.pack_full_events, 1);
    }

    #[test]
    fn quota_cell_persists_in_toc() {
        let mut m = machine();
        let mut drm = DiskRecordManager::new();
        let toc = drm.create_entry(&mut m, PackId(1), 7).unwrap();
        let home = DiskHome {
            pack: PackId(1),
            toc,
        };
        assert_eq!(drm.read_quota_cell(&m, home).unwrap(), None);
        drm.write_quota_cell(
            &mut m,
            home,
            Some(mx_hw::disk::QuotaCellRecord {
                limit_pages: 9,
                used_pages: 2,
            }),
        )
        .unwrap();
        assert_eq!(
            drm.read_quota_cell(&m, home).unwrap().unwrap().limit_pages,
            9
        );
    }
}
