//! The Quota Cell Manager.
//!
//! "The new design makes quota cells be explicit objects with their own
//! manager. A quota cell is stored in the disk pack table of contents
//! entry for the associated directory and is cached in primary memory in
//! a table managed by the quota cell manager. The segment manager
//! presents the quota cell information to the quota cell manager whenever
//! a directory is activated and calls upon the quota cell manager to
//! perform all operations on quota cells."
//!
//! Cells are named by the uid of their quota directory. Because
//! designation is restricted to childless directories, the binding
//! between a segment and its controlling cell is **static**: no dynamic
//! upward search ever happens — `charge` is a direct table hit.
//!
//! The in-core cache lives in a core segment (a map dependency on the
//! core-segment manager only), and cells persist in TOC entries (a
//! component dependency on the disk-record manager only): the manager
//! sits low in the lattice, below the segment manager that calls it.

use crate::core_segment::{CoreSegId, CoreSegmentManager};
use crate::disk_record::DiskRecordManager;
use crate::error::KernelError;
use crate::types::{DiskHome, SegUid};
use mx_aim::{FlowTracker, Label};
use mx_hw::disk::QuotaCellRecord;
use mx_hw::{IdMap, Machine, Subsystem, Word};

/// Words of core-segment table per cell (uid, limit, used, flags).
const CELL_WORDS: u64 = 4;

#[derive(Debug, Clone, Copy)]
struct CellDirEntry {
    home: DiskHome,
    slot: u32,
}

#[derive(Debug, Clone, Copy)]
struct LoadedCell {
    limit: u32,
    used: u32,
    refs: u32,
    label: Label,
}

/// The quota-cell object manager.
#[derive(Debug)]
pub struct QuotaCellManager {
    /// Registry of every cell in existence: uid → (persistent home, core
    /// table slot). Conceptually part of the core table itself.
    cell_dir: IdMap<SegUid, CellDirEntry>,
    loaded: IdMap<SegUid, LoadedCell>,
    table_seg: CoreSegId,
    /// Absolute base of the core-table segment, bound once after
    /// construction via [`QuotaCellManager::bind_table_base`].
    table_base: mx_hw::AbsAddr,
    max_cells: u32,
    next_slot: u32,
    /// Direct-hit charges performed (experiment counter — compare the
    /// legacy quota-walk level counts).
    pub charges: u64,
}

impl QuotaCellManager {
    /// Builds the manager with a one-frame core-segment cell table.
    ///
    /// # Errors
    ///
    /// [`KernelError::TableFull`] if no core segment can be allocated.
    pub fn new(csm: &mut CoreSegmentManager) -> Result<Self, KernelError> {
        let table_seg = csm.allocate(1)?;
        let max_cells = (mx_hw::PAGE_WORDS as u64 / CELL_WORDS) as u32;
        Ok(Self {
            cell_dir: IdMap::default(),
            loaded: IdMap::default(),
            table_seg,
            table_base: mx_hw::AbsAddr(0),
            max_cells,
            next_slot: 0,
            charges: 0,
        })
    }

    /// Creates a new quota cell for quota directory `uid`, persisted in
    /// the TOC entry at `home`, and loads it.
    ///
    /// # Errors
    ///
    /// [`KernelError::TableFull`] when the cell table is exhausted;
    /// [`KernelError::QuotaDesignation`] if the cell already exists.
    pub fn create_cell(
        &mut self,
        machine: &mut Machine,
        drm: &mut DiskRecordManager,
        uid: SegUid,
        home: DiskHome,
        limit: u32,
        label: Label,
    ) -> Result<(), KernelError> {
        if self.cell_dir.contains_key(&uid) {
            return Err(KernelError::QuotaDesignation("cell already exists"));
        }
        if self.next_slot >= self.max_cells {
            return Err(KernelError::TableFull("quota cell"));
        }
        let slot = self.next_slot;
        self.next_slot += 1;
        self.cell_dir.insert(uid, CellDirEntry { home, slot });
        drm.write_quota_cell(
            machine,
            home,
            Some(QuotaCellRecord {
                limit_pages: limit,
                used_pages: 0,
            }),
        )?;
        self.loaded.insert(
            uid,
            LoadedCell {
                limit,
                used: 0,
                refs: 0,
                label,
            },
        );
        self.sync_core_table(machine, uid);
        Ok(())
    }

    /// Registers an existing on-disk cell without touching its persisted
    /// counts — the recovery bootload path: after a crash the cell
    /// directory is rebuilt by walking the surviving disk image, and the
    /// used count found on disk must be preserved for the salvager to
    /// audit. Idempotent for an already-registered uid.
    ///
    /// # Errors
    ///
    /// [`KernelError::TableFull`] when the cell table is exhausted;
    /// [`KernelError::QuotaDesignation`] if the TOC entry at `home`
    /// carries no cell record.
    pub fn adopt_cell(
        &mut self,
        machine: &Machine,
        drm: &DiskRecordManager,
        uid: SegUid,
        home: DiskHome,
    ) -> Result<(), KernelError> {
        if self.cell_dir.contains_key(&uid) {
            return Ok(());
        }
        if self.next_slot >= self.max_cells {
            return Err(KernelError::TableFull("quota cell"));
        }
        drm.read_quota_cell(machine, home)?
            .ok_or(KernelError::QuotaDesignation("cell missing from TOC"))?;
        let slot = self.next_slot;
        self.next_slot += 1;
        self.cell_dir.insert(uid, CellDirEntry { home, slot });
        Ok(())
    }

    /// Destroys a cell that is no longer referenced and carries no
    /// charge.
    ///
    /// # Errors
    ///
    /// [`KernelError::QuotaDesignation`] if the cell is still charged or
    /// referenced.
    pub fn destroy_cell(
        &mut self,
        machine: &mut Machine,
        drm: &mut DiskRecordManager,
        uid: SegUid,
    ) -> Result<(), KernelError> {
        let entry = *self
            .cell_dir
            .get(&uid)
            .ok_or(KernelError::QuotaDesignation("no such cell"))?;
        if let Some(cell) = self.loaded.get(&uid) {
            if cell.refs > 0 {
                return Err(KernelError::QuotaDesignation("cell still referenced"));
            }
            if cell.used > 0 {
                return Err(KernelError::QuotaDesignation("cell still charged"));
            }
        }
        self.loaded.remove(&uid);
        self.cell_dir.remove(&uid);
        drm.write_quota_cell(machine, entry.home, None)?;
        Ok(())
    }

    /// Loads (or re-references) a cell into the core table. The segment
    /// manager calls this when it activates a segment bound to the cell.
    ///
    /// # Errors
    ///
    /// [`KernelError::QuotaDesignation`] for an unknown cell.
    pub fn load(
        &mut self,
        machine: &mut Machine,
        drm: &DiskRecordManager,
        uid: SegUid,
        label: Label,
    ) -> Result<(), KernelError> {
        let entry = *self
            .cell_dir
            .get(&uid)
            .ok_or(KernelError::QuotaDesignation("no such cell"))?;
        if let Some(cell) = self.loaded.get_mut(&uid) {
            cell.refs += 1;
            return Ok(());
        }
        let rec = drm
            .read_quota_cell(machine, entry.home)?
            .ok_or(KernelError::QuotaDesignation("cell missing from TOC"))?;
        self.loaded.insert(
            uid,
            LoadedCell {
                limit: rec.limit_pages,
                used: rec.used_pages,
                refs: 1,
                label,
            },
        );
        self.sync_core_table(machine, uid);
        Ok(())
    }

    /// Drops a reference; when the last reference goes, persists the cell
    /// back to its TOC entry and evicts it from the core table.
    ///
    /// # Errors
    ///
    /// [`KernelError::QuotaDesignation`] for an unknown or unloaded cell.
    pub fn unload(
        &mut self,
        machine: &mut Machine,
        drm: &mut DiskRecordManager,
        uid: SegUid,
    ) -> Result<(), KernelError> {
        let entry = *self
            .cell_dir
            .get(&uid)
            .ok_or(KernelError::QuotaDesignation("no such cell"))?;
        let cell = self
            .loaded
            .get_mut(&uid)
            .ok_or(KernelError::QuotaDesignation("cell not loaded"))?;
        cell.refs = cell.refs.saturating_sub(1);
        if cell.refs == 0 {
            let rec = QuotaCellRecord {
                limit_pages: cell.limit,
                used_pages: cell.used,
            };
            self.loaded.remove(&uid);
            drm.write_quota_cell(machine, entry.home, Some(rec))?;
        }
        Ok(())
    }

    /// Charges `pages` against the cell — a direct hit, no hierarchy
    /// walk. Records the accounting information flow for the confinement
    /// experiments.
    ///
    /// # Errors
    ///
    /// [`KernelError::QuotaExceeded`] when the limit would be passed;
    /// [`KernelError::QuotaDesignation`] for an unloaded cell.
    pub fn charge(
        &mut self,
        machine: &mut Machine,
        uid: SegUid,
        pages: u32,
        subject: Label,
        flows: &mut FlowTracker,
    ) -> Result<(), KernelError> {
        self.charges += 1;
        crate::charge_pli(machine, 18);
        // Witness: quota cells are page control's data base in the new
        // design (moved down out of the directories); any scope mutating
        // one shows up in the edge ledger as a writer->owner edge.
        machine.clock.note_shared_data(Subsystem::PageControl);
        let cell = self
            .loaded
            .get_mut(&uid)
            .ok_or(KernelError::QuotaDesignation("cell not loaded"))?;
        if cell.used + pages > cell.limit {
            return Err(KernelError::QuotaExceeded {
                limit: cell.limit,
                used: cell.used,
            });
        }
        cell.used += pages;
        let cell_label = cell.label;
        flows.observe(
            subject,
            cell_label,
            "quota cell used-count update on page creation",
        );
        self.sync_core_table(machine, uid);
        Ok(())
    }

    /// Reverses a charge (zero reversion, truncation, deletion).
    ///
    /// Deletion paths may uncharge a cell no active segment references;
    /// in that case the persistent copy in the TOC entry is updated
    /// directly.
    ///
    /// # Errors
    ///
    /// [`KernelError::QuotaDesignation`] for a cell that does not exist
    /// at all.
    pub fn uncharge(
        &mut self,
        machine: &mut Machine,
        uid: SegUid,
        pages: u32,
    ) -> Result<(), KernelError> {
        crate::charge_pli(machine, 12);
        machine.clock.note_shared_data(Subsystem::PageControl);
        if let Some(cell) = self.loaded.get_mut(&uid) {
            cell.used = cell.used.saturating_sub(pages);
            self.sync_core_table(machine, uid);
            return Ok(());
        }
        // Not resident: update the on-disk cell in place.
        let entry = *self
            .cell_dir
            .get(&uid)
            .ok_or(KernelError::QuotaDesignation("no such cell"))?;
        let mut drm = DiskRecordManager::new();
        let mut rec = drm
            .read_quota_cell(machine, entry.home)?
            .ok_or(KernelError::QuotaDesignation("cell missing from TOC"))?;
        rec.used_pages = rec.used_pages.saturating_sub(pages);
        drm.write_quota_cell(machine, entry.home, Some(rec))?;
        Ok(())
    }

    /// Forces a cell's used count to `used`, in core (when resident) and
    /// in the persistent TOC copy — the salvager's drift repair, which
    /// must work whether or not any segment bound to the cell is active.
    ///
    /// # Errors
    ///
    /// [`KernelError::QuotaDesignation`] if the cell does not exist.
    pub fn salvage_set_used(
        &mut self,
        machine: &mut Machine,
        drm: &mut DiskRecordManager,
        uid: SegUid,
        used: u32,
    ) -> Result<(), KernelError> {
        let entry = *self
            .cell_dir
            .get(&uid)
            .ok_or(KernelError::QuotaDesignation("no such cell"))?;
        // Cross-subsystem mutation witness: drift repair rewrites a cell
        // page control owns, from whichever scope the salvager runs in.
        machine.clock.note_shared_data(Subsystem::PageControl);
        if let Some(cell) = self.loaded.get_mut(&uid) {
            cell.used = used;
        }
        self.sync_core_table(machine, uid);
        let mut rec = drm
            .read_quota_cell(machine, entry.home)?
            .ok_or(KernelError::QuotaDesignation("cell missing from TOC"))?;
        rec.used_pages = used;
        drm.write_quota_cell(machine, entry.home, Some(rec))
    }

    /// Current (limit, used) of a loaded cell.
    pub fn cell_state(&self, uid: SegUid) -> Option<(u32, u32)> {
        self.loaded.get(&uid).map(|c| (c.limit, c.used))
    }

    /// Rewrites a cell's persistent home (its quota directory relocated).
    pub fn update_home(&mut self, uid: SegUid, new_home: DiskHome) {
        if let Some(e) = self.cell_dir.get_mut(&uid) {
            e.home = new_home;
        }
    }

    /// True if `uid` names a quota cell.
    pub fn exists(&self, uid: SegUid) -> bool {
        self.cell_dir.contains_key(&uid)
    }

    /// Mirrors a cell into the core-segment table (limit and used words),
    /// keeping the "cached in primary memory" story literal.
    /// Mirrors a cell into the core-segment table (uid, limit, used,
    /// flags words), keeping the "cached in primary memory" story
    /// literal. Skipped until the base is bound.
    fn sync_core_table(&self, machine: &mut Machine, uid: SegUid) {
        if self.table_base == mx_hw::AbsAddr(0) {
            return;
        }
        let Some(entry) = self.cell_dir.get(&uid) else {
            return;
        };
        let Some(cell) = self.loaded.get(&uid) else {
            return;
        };
        let base = u64::from(entry.slot) * CELL_WORDS;
        let words = [
            Word::new(uid.0),
            Word::new(u64::from(cell.limit)),
            Word::new(u64::from(cell.used)),
            Word::new(1),
        ];
        for (i, w) in words.iter().enumerate() {
            machine.mem.write(self.table_base.add(base + i as u64), *w);
        }
    }

    /// Binds the core-table base address (called once by the kernel
    /// right after construction, with the core-segment manager in hand).
    pub fn bind_table_base(&mut self, csm: &CoreSegmentManager) {
        self.table_base = csm.addr(self.table_seg, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mx_hw::MachineConfig;

    fn setup() -> (
        Machine,
        CoreSegmentManager,
        DiskRecordManager,
        QuotaCellManager,
        DiskHome,
    ) {
        let mut machine = Machine::new(MachineConfig {
            packs: 1,
            records_per_pack: 16,
            toc_slots_per_pack: 8,
            ..MachineConfig::kernel_proposed()
        });
        let mut csm = CoreSegmentManager::new(0, 4);
        let mut drm = DiskRecordManager::new();
        let mut qcm = QuotaCellManager::new(&mut csm).unwrap();
        qcm.bind_table_base(&csm);
        let toc = drm.create_entry(&mut machine, mx_hw::PackId(0), 1).unwrap();
        let home = DiskHome {
            pack: mx_hw::PackId(0),
            toc,
        };
        (machine, csm, drm, qcm, home)
    }

    #[test]
    fn create_charge_uncharge_cycle() {
        let (mut m, _csm, mut drm, mut qcm, home) = setup();
        let uid = SegUid(1);
        let mut flows = FlowTracker::new();
        qcm.create_cell(&mut m, &mut drm, uid, home, 5, Label::BOTTOM)
            .unwrap();
        qcm.charge(&mut m, uid, 3, Label::BOTTOM, &mut flows)
            .unwrap();
        assert_eq!(qcm.cell_state(uid), Some((5, 3)));
        let err = qcm
            .charge(&mut m, uid, 3, Label::BOTTOM, &mut flows)
            .unwrap_err();
        assert_eq!(err, KernelError::QuotaExceeded { limit: 5, used: 3 });
        qcm.uncharge(&mut m, uid, 2).unwrap();
        assert_eq!(qcm.cell_state(uid), Some((5, 1)));
        assert_eq!(qcm.charges, 2);
    }

    #[test]
    fn unload_persists_and_reload_restores() {
        let (mut m, _csm, mut drm, mut qcm, home) = setup();
        let uid = SegUid(2);
        let mut flows = FlowTracker::new();
        qcm.create_cell(&mut m, &mut drm, uid, home, 10, Label::BOTTOM)
            .unwrap();
        qcm.load(&mut m, &drm, uid, Label::BOTTOM).unwrap();
        qcm.charge(&mut m, uid, 4, Label::BOTTOM, &mut flows)
            .unwrap();
        qcm.unload(&mut m, &mut drm, uid).unwrap();
        assert_eq!(qcm.cell_state(uid), None, "evicted from the core table");
        let rec = drm.read_quota_cell(&m, home).unwrap().unwrap();
        assert_eq!(rec.used_pages, 4, "persisted to the TOC entry");
        qcm.load(&mut m, &drm, uid, Label::BOTTOM).unwrap();
        assert_eq!(qcm.cell_state(uid), Some((10, 4)));
    }

    #[test]
    fn refcounting_keeps_cell_loaded() {
        let (mut m, _csm, mut drm, mut qcm, home) = setup();
        let uid = SegUid(3);
        qcm.create_cell(&mut m, &mut drm, uid, home, 10, Label::BOTTOM)
            .unwrap();
        qcm.load(&mut m, &drm, uid, Label::BOTTOM).unwrap();
        qcm.load(&mut m, &drm, uid, Label::BOTTOM).unwrap();
        qcm.unload(&mut m, &mut drm, uid).unwrap();
        assert!(qcm.cell_state(uid).is_some(), "one reference remains");
        qcm.unload(&mut m, &mut drm, uid).unwrap();
        assert!(qcm.cell_state(uid).is_none());
    }

    #[test]
    fn destroy_refuses_charged_or_referenced_cells() {
        let (mut m, _csm, mut drm, mut qcm, home) = setup();
        let uid = SegUid(4);
        let mut flows = FlowTracker::new();
        qcm.create_cell(&mut m, &mut drm, uid, home, 10, Label::BOTTOM)
            .unwrap();
        qcm.charge(&mut m, uid, 1, Label::BOTTOM, &mut flows)
            .unwrap();
        assert!(qcm.destroy_cell(&mut m, &mut drm, uid).is_err());
        qcm.uncharge(&mut m, uid, 1).unwrap();
        qcm.destroy_cell(&mut m, &mut drm, uid).unwrap();
        assert!(!qcm.exists(uid));
        assert_eq!(drm.read_quota_cell(&m, home).unwrap(), None);
    }

    #[test]
    fn adopt_preserves_the_persisted_used_count() {
        let (mut m, _csm, mut drm, mut qcm, home) = setup();
        let uid = SegUid(6);
        let mut flows = FlowTracker::new();
        qcm.create_cell(&mut m, &mut drm, uid, home, 10, Label::BOTTOM)
            .unwrap();
        qcm.load(&mut m, &drm, uid, Label::BOTTOM).unwrap();
        qcm.charge(&mut m, uid, 3, Label::BOTTOM, &mut flows)
            .unwrap();
        qcm.unload(&mut m, &mut drm, uid).unwrap();
        // A recovery bootload sees only the disk image.
        let mut fresh = QuotaCellManager::new(&mut CoreSegmentManager::new(0, 4)).unwrap();
        fresh.adopt_cell(&m, &drm, uid, home).unwrap();
        assert!(fresh.exists(uid));
        fresh.adopt_cell(&m, &drm, uid, home).unwrap(); // idempotent
        fresh.load(&mut m, &drm, uid, Label::BOTTOM).unwrap();
        assert_eq!(fresh.cell_state(uid), Some((10, 3)), "used count kept");
    }

    #[test]
    fn downward_accounting_flow_is_observed() {
        let (mut m, _csm, mut drm, mut qcm, home) = setup();
        let uid = SegUid(5);
        let mut flows = FlowTracker::new();
        qcm.create_cell(&mut m, &mut drm, uid, home, 10, Label::BOTTOM)
            .unwrap();
        let secret = Label::new(mx_aim::Level(2), mx_aim::CompartmentSet::empty());
        qcm.charge(&mut m, uid, 1, secret, &mut flows).unwrap();
        assert_eq!(flows.violation_count(), 1, "high subject wrote a low cell");
    }
}
