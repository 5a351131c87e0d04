//! The salvager: file-system consistency checking and repair.
//!
//! The paper's third verification prong puts the system into operational
//! use and traces failures to see whether they originate in the kernel.
//! Multics' operational tool for that was the *salvager*, which walked
//! the hierarchy rebuilding damaged structures. This module is its
//! Kernel/Multics counterpart: it cross-checks the four places the
//! file system records a fact — directory entries, the branch cache,
//! pack tables of contents, and quota cells — reports every
//! disagreement, and (optionally) repairs the recoverable ones.
//!
//! Invariants checked:
//!
//! 1. every directory entry's disk home names a live TOC entry whose
//!    recorded uid matches;
//! 2. every TOC entry is reachable from exactly one directory entry
//!    (or is the root's);
//! 3. every quota cell's `used` equals the records actually mapped by
//!    the objects statically bound to it;
//! 4. no file map names a record outside its pack;
//! 5. every allocated record is referenced by some file map (a crash
//!    between allocation and the file-map commit leaks the record).

use crate::directory::{DirectoryManager, FsCtx};
use crate::error::KernelError;
use crate::kernel::Kernel;
use crate::types::{DiskHome, ObjToken, SegUid};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// One detected inconsistency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Problem {
    /// A TOC entry no directory entry names — storage leaked by a crash
    /// between allocation and cataloguing.
    OrphanTocEntry {
        /// Where the orphan lives.
        home: DiskHome,
        /// The uid it claims.
        uid: SegUid,
    },
    /// A directory entry whose disk home is missing or names a
    /// different uid.
    DanglingEntry {
        /// The directory holding the entry.
        dir: SegUid,
        /// The entry's name.
        name: String,
        /// The uid the entry claims.
        uid: SegUid,
    },
    /// Two live directory entries claim the same TOC entry — invariant
    /// 2's other half (a torn directory page can duplicate a branch).
    DoublyClaimedToc {
        /// The directory holding the *second* (duplicate) claim.
        dir: SegUid,
        /// The duplicate entry's name.
        name: String,
        /// The home claimed twice.
        home: DiskHome,
    },
    /// A quota cell whose used count disagrees with the mapped records
    /// of its bound objects.
    CellDrift {
        /// The cell (uid of its quota directory).
        cell: SegUid,
        /// What the cell says.
        recorded: u32,
        /// What the disk says.
        actual: u32,
    },
    /// A file map pointing at a record number beyond the pack.
    BadRecordPointer {
        /// The object whose map is damaged.
        home: DiskHome,
        /// The page with the bad pointer.
        pageno: u32,
    },
    /// An allocated record no file map references — storage leaked by a
    /// crash between record allocation and the file-map commit.
    LeakedRecord {
        /// The pack holding the record.
        pack: mx_hw::PackId,
        /// The leaked record.
        record: mx_hw::RecordNo,
    },
}

/// The salvager's findings (and actions, when repairing).
#[derive(Debug, Clone, Default)]
pub struct SalvageReport {
    /// Objects examined.
    pub objects_checked: u32,
    /// Quota cells examined.
    pub cells_checked: u32,
    /// Everything found wrong.
    pub problems: Vec<Problem>,
    /// Human-readable descriptions of repairs performed.
    pub repairs: Vec<String>,
}

impl SalvageReport {
    /// True if the file system was fully consistent.
    pub fn clean(&self) -> bool {
        self.problems.is_empty()
    }
}

impl Kernel {
    /// Runs the salvager over the whole hierarchy.
    ///
    /// With `repair` set, cell drift is corrected to the disk's truth,
    /// orphan TOC entries are deleted, and dangling or doubly-claimed
    /// directory entries are cleared — everything needed for a second
    /// pass to come back clean from any crash state.
    ///
    /// # Errors
    ///
    /// Storage errors reading directories.
    pub fn salvage(&mut self, repair: bool) -> Result<SalvageReport, KernelError> {
        let meter = self.machine.clock.enter(mx_hw::meter::Subsystem::Salvager);
        let result = self.salvage_walk(repair);
        self.machine.clock.exit(meter);
        result
    }

    fn salvage_walk(&mut self, repair: bool) -> Result<SalvageReport, KernelError> {
        let mut report = SalvageReport::default();

        // Walk the hierarchy from the root, collecting every catalogued
        // object: uid -> (home, own_cell), and counting who claims each
        // TOC entry along the way.
        let root = self.dirm.root();
        let mut catalogued: HashMap<SegUid, (DiskHome, SegUid)> = HashMap::new();
        let mut claimed: HashSet<(u32, u32)> = HashSet::new();
        // The cell governing each directory's children, derived from the
        // walk (nearest superior quota directory) rather than from the
        // entries' cached `own_cell` words, which a torn page can leave
        // stale. Designation truth is the cell directory, which is
        // TOC-backed and survives crashes.
        let mut governs: HashMap<SegUid, SegUid> = HashMap::new();
        governs.insert(root, root);
        // The root itself.
        if let Some((home, _, _, _)) = self.dirm.activation_info(root) {
            catalogued.insert(root, (home, root));
            claimed.insert((home.pack.0, home.toc.0));
        }
        let mut stack = vec![root];
        let mut bad_entries = Vec::new(); // (dir, slot, uid, problem)
        while let Some(dir) = stack.pop() {
            let gcell = *governs.get(&dir).ok_or(KernelError::Salvage(
                "governing cell missing for walked dir",
            ))?;
            let entries = self.salvage_dir_entries(dir)?;
            for (slot, name, uid, home, _own_cell, is_dir) in entries {
                report.objects_checked += 1;
                // Invariant 1: home must exist and agree on the uid.
                let toc_uid = self
                    .machine
                    .disks
                    .pack(home.pack)
                    .ok()
                    .and_then(|p| p.entry(home.toc).ok())
                    .map(|e| e.uid);
                if toc_uid != Some(uid.0) {
                    bad_entries.push((dir, slot, uid, Problem::DanglingEntry { dir, name, uid }));
                    continue;
                }
                // Invariant 2 (first half): no TOC entry is claimed by
                // more than one directory entry. The first claim wins;
                // later ones are duplicates.
                if !claimed.insert((home.pack.0, home.toc.0)) {
                    bad_entries.push((
                        dir,
                        slot,
                        uid,
                        Problem::DoublyClaimedToc { dir, name, home },
                    ));
                    continue;
                }
                catalogued.insert(uid, (home, gcell));
                if is_dir {
                    governs.insert(uid, if self.qcm.exists(uid) { uid } else { gcell });
                    stack.push(uid);
                }
            }
        }
        if repair {
            for (dir, slot, uid, problem) in &bad_entries {
                self.salvage_clear(*dir, *slot, *uid)?;
                report.repairs.push(match problem {
                    Problem::DoublyClaimedToc { .. } => {
                        format!("cleared duplicate claim on uid {} in dir {}", uid.0, dir.0)
                    }
                    _ => format!("cleared dangling entry for uid {} in dir {}", uid.0, dir.0),
                });
            }
        }
        report
            .problems
            .extend(bad_entries.into_iter().map(|(_, _, _, p)| p));

        // Invariant 4 + per-cell actual usage from the disk's view.
        let mut actual_by_cell: BTreeMap<SegUid, u32> = BTreeMap::new();
        for (uid, (home, cell)) in &catalogued {
            let _ = uid;
            if let Ok(pack) = self.machine.disks.pack(home.pack) {
                let capacity = pack.capacity();
                if let Ok(entry) = pack.entry(home.toc) {
                    let mut used = 0;
                    for (pageno, rec) in entry.file_map.iter().enumerate() {
                        if let Some(r) = rec {
                            if r.0 >= capacity {
                                report.problems.push(Problem::BadRecordPointer {
                                    home: *home,
                                    pageno: pageno as u32,
                                });
                            } else {
                                used += 1;
                            }
                        }
                    }
                    *actual_by_cell.entry(*cell).or_insert(0) += used;
                }
            }
        }

        // Invariant 2 (second half): orphan TOC entries.
        let mut orphans = Vec::new();
        for pack in self.machine.disks.packs() {
            for (toc, entry) in pack.entries() {
                if !claimed.contains(&(pack.id.0, toc.0)) {
                    orphans.push(Problem::OrphanTocEntry {
                        home: DiskHome { pack: pack.id, toc },
                        uid: SegUid(entry.uid),
                    });
                }
            }
        }
        if repair {
            for p in &orphans {
                if let Problem::OrphanTocEntry { home, uid } = p {
                    // Only reclaim storage for objects nothing names and
                    // nothing has active.
                    if self.segm.get(*uid).is_none() && !self.qcm.exists(*uid) {
                        self.drm.delete_entry(&mut self.machine, *home)?;
                        report.repairs.push(format!(
                            "reclaimed orphan TOC entry {:?} (uid {})",
                            home, uid.0
                        ));
                    }
                }
            }
        }
        report.problems.extend(orphans);

        // Invariant 5: every allocated record is referenced by some file
        // map. Runs after the orphan sweep so reclaimed entries' records
        // are already back in the free pool.
        let mut leaked = Vec::new();
        for pack in self.machine.disks.packs() {
            let mut referenced: HashSet<u32> = HashSet::new();
            for (_, entry) in pack.entries() {
                for rec in entry.file_map.iter().flatten() {
                    referenced.insert(rec.0);
                }
            }
            for rec in pack.allocated_record_nos() {
                if !referenced.contains(&rec.0) {
                    leaked.push((pack.id, rec));
                }
            }
        }
        for (pack, rec) in leaked {
            report
                .problems
                .push(Problem::LeakedRecord { pack, record: rec });
            if repair {
                if let Ok(p) = self.machine.disks.pack_mut(pack) {
                    let _ = p.free_record(rec);
                }
                report
                    .repairs
                    .push(format!("freed leaked record {} on pack {}", rec.0, pack.0));
            }
        }

        // Invariant 3: cell drift.
        let cells: Vec<SegUid> = catalogued
            .values()
            .map(|(_, c)| *c)
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        for cell in cells {
            report.cells_checked += 1;
            let actual = actual_by_cell.get(&cell).copied().unwrap_or(0);
            let recorded = match self.qcm.cell_state(cell) {
                Some((_, used)) => used,
                None => {
                    // Not resident: read the persistent copy.
                    match self.dirm.activation_info(cell) {
                        Some((home, _, _, _)) => self
                            .drm
                            .read_quota_cell(&self.machine, home)?
                            .map(|r| r.used_pages)
                            .unwrap_or(0),
                        None => continue,
                    }
                }
            };
            if recorded != actual {
                report.problems.push(Problem::CellDrift {
                    cell,
                    recorded,
                    actual,
                });
                if repair {
                    self.repair_cell(cell, recorded, actual)?;
                    report.repairs.push(format!(
                        "reset cell {} used count {} -> {}",
                        cell.0, recorded, actual
                    ));
                }
            }
        }
        Ok(report)
    }

    fn repair_cell(
        &mut self,
        cell: SegUid,
        _recorded: u32,
        actual: u32,
    ) -> Result<(), KernelError> {
        // Force both copies (core table if resident, TOC always) to the
        // disk's truth. No limit enforcement: the pages already exist.
        self.qcm
            .salvage_set_used(&mut self.machine, &mut self.drm, cell, actual)
    }

    /// Every live entry of `dir`, from segment storage (the borrow-split
    /// shared by the offline walk and the online claims).
    fn salvage_dir_entries(&mut self, dir: SegUid) -> Result<Vec<SalvageEntry>, KernelError> {
        let Kernel {
            machine,
            drm,
            qcm,
            pfm,
            vpm,
            segm,
            flows,
            monitor,
            dirm,
            ..
        } = self;
        let mut fs = FsCtx {
            machine,
            drm,
            qcm,
            pfm,
            vpm,
            segm,
            flows,
            monitor,
        };
        dirm.salvage_entries(&mut fs, dir)
    }

    fn salvage_clear(&mut self, dir: SegUid, slot: u32, uid: SegUid) -> Result<(), KernelError> {
        let Kernel {
            machine,
            drm,
            qcm,
            pfm,
            vpm,
            segm,
            flows,
            monitor,
            dirm,
            ..
        } = self;
        let mut fs = FsCtx {
            machine,
            drm,
            qcm,
            pfm,
            vpm,
            segm,
            flows,
            monitor,
        };
        dirm.salvage_clear_entry(&mut fs, dir, slot, uid)
    }

    // ---- online (incremental) salvage ------------------------------------

    /// Starts an incremental salvage: everything is quarantined, the
    /// claim frontier holds the root, and service resumes immediately —
    /// gates into not-yet-released directories surface
    /// [`KernelError::SalvageBusy`] until the salvager proves them clean.
    pub fn begin_online_salvage(&mut self) {
        self.begin_online_salvage_with_cheat(None);
    }

    /// Test-only entry point: a deliberately misbehaving salvager for
    /// the S1 planted-cheat self-check.
    #[doc(hidden)]
    pub fn begin_online_salvage_with_cheat(&mut self, cheat: Option<OnlineCheat>) {
        let root = self.dirm.root();
        let mut claimed = HashSet::new();
        if let Some((home, _, _, _)) = self.dirm.activation_info(root) {
            claimed.insert((home.pack.0, home.toc.0));
        }
        let mut frontier = VecDeque::new();
        frontier.push_back(root);
        self.online = Some(OnlineSalvage {
            released: HashSet::new(),
            frontier,
            claimed,
            finalize: VecDeque::new(),
            finalize_built: false,
            report: SalvageReport::default(),
            cheat,
            dirs_released: 0,
        });
    }

    /// True while an incremental salvage is in progress.
    pub fn online_salvage_active(&self) -> bool {
        self.online.is_some()
    }

    /// Directories the online salvager has released so far (figures).
    pub fn online_salvage_dirs_released(&self) -> u32 {
        self.online.as_ref().map_or(0, |o| o.dirs_released)
    }

    /// Performs one unit of online salvage: claims, repairs, rechecks
    /// and releases one directory, or runs one per-pack finalize sweep
    /// once the frontier has drained. After [`OnlineProgress::Done`] the
    /// quarantine barrier lifts entirely.
    ///
    /// # Errors
    ///
    /// Storage errors reading directories; [`KernelError::Salvage`] on
    /// internal inconsistencies. The salvage state survives an error and
    /// the step may be retried.
    pub fn online_salvage_step(&mut self) -> Result<OnlineProgress, KernelError> {
        let Some(mut st) = self.online.take() else {
            return Ok(OnlineProgress::Idle);
        };
        let meter = self.machine.clock.enter(mx_hw::meter::Subsystem::Salvager);
        let result = self.online_step_inner(&mut st);
        self.machine.clock.exit(meter);
        if !matches!(result, Ok(OnlineProgress::Done { .. })) {
            self.online = Some(st);
        }
        result
    }

    fn online_step_inner(&mut self, st: &mut OnlineSalvage) -> Result<OnlineProgress, KernelError> {
        if let Some(dir) = st.frontier.pop_front() {
            return self.online_claim_dir(st, dir);
        }
        if !st.finalize_built {
            // The frontier drained: every directory has been claimed, so
            // the claim set is complete and the global sweeps are sound.
            st.finalize_built = true;
            let packs: Vec<mx_hw::PackId> = self.machine.disks.packs().map(|p| p.id).collect();
            for p in &packs {
                st.finalize.push_back(FinalizeStep::Orphans(*p));
            }
            for p in &packs {
                st.finalize.push_back(FinalizeStep::Leaks(*p));
            }
        }
        match st.finalize.pop_front() {
            Some(FinalizeStep::Orphans(pack)) => {
                self.online_orphan_sweep(st, pack)?;
                Ok(OnlineProgress::Finalized { pack, leaks: false })
            }
            Some(FinalizeStep::Leaks(pack)) => {
                self.online_leak_sweep(st, pack);
                Ok(OnlineProgress::Finalized { pack, leaks: true })
            }
            None => Ok(OnlineProgress::Done {
                report: std::mem::take(&mut st.report),
            }),
        }
    }

    /// Claim → check/repair → recheck → release, for one directory.
    fn online_claim_dir(
        &mut self,
        st: &mut OnlineSalvage,
        dir: SegUid,
    ) -> Result<OnlineProgress, KernelError> {
        let problems_before = st.report.problems.len();
        let repairs_before = st.report.repairs.len();
        // The cell preview must run before this directory's entries join
        // the global claim set: its duplicate filter is "already claimed
        // by a processed directory", and the whole subtree below `dir`
        // is still quarantined (frozen), so the preview is exact.
        let is_cell = self.qcm.exists(dir) || dir == self.dirm.root();
        let preview = if is_cell {
            Some(self.online_cell_usage(st, dir)?)
        } else {
            None
        };

        let entries = self.salvage_dir_entries(dir)?;
        st.report.objects_checked += entries.len() as u32;
        let mut bad = Vec::new();
        for (slot, name, uid, home, _own_cell, is_dir) in entries {
            // Invariant 1: home must exist and agree on the uid.
            let toc_uid = self
                .machine
                .disks
                .pack(home.pack)
                .ok()
                .and_then(|p| p.entry(home.toc).ok())
                .map(|e| e.uid);
            if toc_uid != Some(uid.0) {
                bad.push((slot, uid, Problem::DanglingEntry { dir, name, uid }));
                continue;
            }
            // Invariant 2 (first half): first claim wins, globally.
            if !st.claimed.insert((home.pack.0, home.toc.0)) {
                bad.push((slot, uid, Problem::DoublyClaimedToc { dir, name, home }));
                continue;
            }
            // Invariant 4 for this entry's object.
            self.online_check_record_pointers(st, home);
            if is_dir {
                st.frontier.push_back(uid);
            }
        }
        for (slot, uid, problem) in bad {
            self.salvage_clear(dir, slot, uid)?;
            st.report.repairs.push(match &problem {
                Problem::DoublyClaimedToc { .. } => {
                    format!("cleared duplicate claim on uid {} in dir {}", uid.0, dir.0)
                }
                _ => format!("cleared dangling entry for uid {} in dir {}", uid.0, dir.0),
            });
            st.report.problems.push(problem);
        }
        // Invariant 3, before release (the planted cheat skips exactly
        // this repair and lets the recheck below expose it).
        if let Some(actual) = preview {
            st.report.cells_checked += 1;
            let recorded = self.online_cell_recorded(dir)?;
            if recorded != actual && st.cheat != Some(OnlineCheat::ReleaseBeforeCellRepair) {
                st.report.problems.push(Problem::CellDrift {
                    cell: dir,
                    recorded,
                    actual,
                });
                self.repair_cell(dir, recorded, actual)?;
                st.report.repairs.push(format!(
                    "reset cell {} used count {} -> {}",
                    dir.0, recorded, actual
                ));
            }
        }
        let recheck_clean = self.online_recheck(st, dir, preview)?;
        st.released.insert(dir);
        st.dirs_released += 1;
        Ok(OnlineProgress::Released {
            dir,
            recheck_clean,
            problems_found: (st.report.problems.len() - problems_before) as u32,
            repairs_made: (st.report.repairs.len() - repairs_before) as u32,
        })
    }

    /// Per-directory release proof: every entry satisfies invariants 1
    /// and 2 (within the directory) and, for quota directories, the cell
    /// matches the usage computed at claim time. Any finding is recorded
    /// as a problem and fails the recheck.
    fn online_recheck(
        &mut self,
        st: &mut OnlineSalvage,
        dir: SegUid,
        preview: Option<u32>,
    ) -> Result<bool, KernelError> {
        let mut clean = true;
        let entries = self.salvage_dir_entries(dir)?;
        let mut local: HashSet<(u32, u32)> = HashSet::new();
        for (_slot, name, uid, home, _own_cell, _is_dir) in entries {
            let toc_uid = self
                .machine
                .disks
                .pack(home.pack)
                .ok()
                .and_then(|p| p.entry(home.toc).ok())
                .map(|e| e.uid);
            if toc_uid != Some(uid.0) {
                clean = false;
                st.report
                    .problems
                    .push(Problem::DanglingEntry { dir, name, uid });
                continue;
            }
            if !local.insert((home.pack.0, home.toc.0)) {
                clean = false;
                st.report
                    .problems
                    .push(Problem::DoublyClaimedToc { dir, name, home });
            }
        }
        if let Some(actual) = preview {
            let recorded = self.online_cell_recorded(dir)?;
            if recorded != actual {
                clean = false;
                st.report.problems.push(Problem::CellDrift {
                    cell: dir,
                    recorded,
                    actual,
                });
            }
        }
        Ok(clean)
    }

    /// Mapped records governed by `dir`'s quota cell, computed from its
    /// frozen quarantined subtree: every object below `dir` pruned at
    /// deeper quota directories (whose own pages still charge `dir`),
    /// plus the root's own pages when `dir` is the root. Dangling
    /// entries and duplicates of already-claimed TOC entries contribute
    /// nothing — exactly what the later per-directory repairs leave.
    fn online_cell_usage(&mut self, st: &OnlineSalvage, dir: SegUid) -> Result<u32, KernelError> {
        let mut seen = st.claimed.clone();
        let mut used = 0;
        if dir == self.dirm.root() {
            if let Some((home, _, _, _)) = self.dirm.activation_info(dir) {
                used += self.online_records_of(home);
            }
        }
        let mut stack = vec![dir];
        while let Some(d) = stack.pop() {
            let entries = self.salvage_dir_entries(d)?;
            for (_slot, _name, uid, home, _own_cell, is_dir) in entries {
                let toc_uid = self
                    .machine
                    .disks
                    .pack(home.pack)
                    .ok()
                    .and_then(|p| p.entry(home.toc).ok())
                    .map(|e| e.uid);
                if toc_uid != Some(uid.0) {
                    continue;
                }
                if !seen.insert((home.pack.0, home.toc.0)) {
                    continue;
                }
                used += self.online_records_of(home);
                if is_dir && !self.qcm.exists(uid) {
                    stack.push(uid);
                }
            }
        }
        Ok(used)
    }

    /// Valid (in-pack) mapped records of one TOC entry.
    fn online_records_of(&self, home: DiskHome) -> u32 {
        match self.machine.disks.pack(home.pack) {
            Ok(pack) => {
                let capacity = pack.capacity();
                match pack.entry(home.toc) {
                    Ok(e) => e
                        .file_map
                        .iter()
                        .flatten()
                        .filter(|r| r.0 < capacity)
                        .count() as u32,
                    Err(_) => 0,
                }
            }
            Err(_) => 0,
        }
    }

    fn online_check_record_pointers(&self, st: &mut OnlineSalvage, home: DiskHome) {
        if let Ok(pack) = self.machine.disks.pack(home.pack) {
            let capacity = pack.capacity();
            if let Ok(entry) = pack.entry(home.toc) {
                for (pageno, rec) in entry.file_map.iter().enumerate() {
                    if let Some(r) = rec {
                        if r.0 >= capacity {
                            st.report.problems.push(Problem::BadRecordPointer {
                                home,
                                pageno: pageno as u32,
                            });
                        }
                    }
                }
            }
        }
    }

    /// What the cell currently records: the core table if resident, the
    /// persistent TOC copy otherwise.
    fn online_cell_recorded(&mut self, cell: SegUid) -> Result<u32, KernelError> {
        match self.qcm.cell_state(cell) {
            Some((_, used)) => Ok(used),
            None => match self.dirm.activation_info(cell) {
                Some((home, _, _, _)) => Ok(self
                    .drm
                    .read_quota_cell(&self.machine, home)?
                    .map(|r| r.used_pages)
                    .unwrap_or(0)),
                None => Err(KernelError::Salvage("quota cell has no recorded home")),
            },
        }
    }

    /// Invariant 2 (second half) for one pack, against the completed
    /// claim set (which includes every TOC entry the service created
    /// while salvage ran — see [`Kernel::salvage_note_created`]).
    fn online_orphan_sweep(
        &mut self,
        st: &mut OnlineSalvage,
        pack_id: mx_hw::PackId,
    ) -> Result<(), KernelError> {
        let mut orphans = Vec::new();
        if let Ok(pack) = self.machine.disks.pack(pack_id) {
            for (toc, entry) in pack.entries() {
                if !st.claimed.contains(&(pack_id.0, toc.0)) {
                    orphans.push((DiskHome { pack: pack_id, toc }, SegUid(entry.uid)));
                }
            }
        }
        for (home, uid) in orphans {
            st.report
                .problems
                .push(Problem::OrphanTocEntry { home, uid });
            // Only reclaim storage for objects nothing names and nothing
            // has active.
            if self.segm.get(uid).is_none() && !self.qcm.exists(uid) {
                self.drm.delete_entry(&mut self.machine, home)?;
                st.report.repairs.push(format!(
                    "reclaimed orphan TOC entry {:?} (uid {})",
                    home, uid.0
                ));
            }
        }
        Ok(())
    }

    /// Invariant 5 for one pack. Runs after that pack's orphan sweep, so
    /// reclaimed entries' records are already back in the free pool;
    /// service operations between steps are atomic, so the pack is
    /// consistent at every sweep.
    fn online_leak_sweep(&mut self, st: &mut OnlineSalvage, pack_id: mx_hw::PackId) {
        let mut leaked = Vec::new();
        if let Ok(pack) = self.machine.disks.pack(pack_id) {
            let mut referenced: HashSet<u32> = HashSet::new();
            for (_, entry) in pack.entries() {
                for rec in entry.file_map.iter().flatten() {
                    referenced.insert(rec.0);
                }
            }
            for rec in pack.allocated_record_nos() {
                if !referenced.contains(&rec.0) {
                    leaked.push(rec);
                }
            }
        }
        for rec in leaked {
            st.report.problems.push(Problem::LeakedRecord {
                pack: pack_id,
                record: rec,
            });
            if let Ok(p) = self.machine.disks.pack_mut(pack_id) {
                let _ = p.free_record(rec);
            }
            st.report.repairs.push(format!(
                "freed leaked record {} on pack {}",
                rec.0, pack_id.0
            ));
        }
    }

    // ---- the quarantine barrier and service hooks ------------------------

    /// Gate barrier: a reference to a directory the online salvager has
    /// not yet proven clean surfaces as [`KernelError::SalvageBusy`].
    /// Files pass — they are servable the moment their parent directory
    /// (the only path to a token for them) is released.
    pub(crate) fn salvage_barrier(&self, token: ObjToken) -> Result<(), KernelError> {
        if self.online.is_some() {
            if let Some(uid) = self.dirm.resolve_token(token) {
                self.salvage_barrier_uid(uid)?;
            }
        }
        Ok(())
    }

    pub(crate) fn salvage_barrier_uid(&self, uid: SegUid) -> Result<(), KernelError> {
        if let Some(o) = &self.online {
            let is_dir = self
                .dirm
                .activation_info(uid)
                .map(|(_, _, d, _)| d)
                .unwrap_or(false);
            if is_dir && !o.released.contains(&uid) {
                return Err(KernelError::SalvageBusy);
            }
        }
        Ok(())
    }

    /// Records a TOC entry the *service* created while the salvager is
    /// running, so the finalize orphan sweep does not reclaim it. A
    /// freshly created directory is trivially clean and born released.
    pub(crate) fn salvage_note_created(&mut self, uid: SegUid, is_dir: bool) {
        if self.online.is_some() {
            let home = self.dirm.home_of(uid);
            if let Some(o) = &mut self.online {
                if let Some(h) = home {
                    o.claimed.insert((h.pack.0, h.toc.0));
                }
                if is_dir {
                    o.released.insert(uid);
                }
            }
        }
    }

    /// Records a segment's relocation target (a fresh TOC entry) while
    /// the salvager is running.
    pub(crate) fn salvage_note_relocated(&mut self, new_home: DiskHome) {
        if let Some(o) = &mut self.online {
            o.claimed.insert((new_home.pack.0, new_home.toc.0));
        }
    }
}

/// Why the test-only cheating salvager misbehaves (the S1 planted-cheat
/// self-check).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnlineCheat {
    /// Release a quota directory without repairing its drifted cell.
    ReleaseBeforeCellRepair,
}

/// Progress from one [`Kernel::online_salvage_step`].
#[derive(Debug, Clone)]
pub enum OnlineProgress {
    /// A directory was claimed, repaired, rechecked and released into
    /// service.
    Released {
        /// The directory now servable.
        dir: SegUid,
        /// The post-repair recheck found nothing left wrong.
        recheck_clean: bool,
        /// Problems recorded while claiming this directory.
        problems_found: u32,
        /// Repairs performed on this directory.
        repairs_made: u32,
    },
    /// A per-pack finalize sweep ran.
    Finalized {
        /// The pack swept.
        pack: mx_hw::PackId,
        /// False: orphan reclaim; true: leaked-record sweep.
        leaks: bool,
    },
    /// The hierarchy is fully salvaged; the barrier has lifted.
    Done {
        /// The accumulated findings and repairs.
        report: SalvageReport,
    },
    /// No online salvage is in progress.
    Idle,
}

#[derive(Debug)]
enum FinalizeStep {
    Orphans(mx_hw::PackId),
    Leaks(mx_hw::PackId),
}

/// State of an in-progress incremental salvage: the released (servable)
/// directories, the claim frontier, the global claim set, and the
/// accumulated findings.
#[derive(Debug)]
pub(crate) struct OnlineSalvage {
    pub(crate) released: HashSet<SegUid>,
    frontier: VecDeque<SegUid>,
    claimed: HashSet<(u32, u32)>,
    finalize: VecDeque<FinalizeStep>,
    finalize_built: bool,
    report: SalvageReport,
    cheat: Option<OnlineCheat>,
    dirs_released: u32,
}

/// One live directory entry as the salvager sees it:
/// `(slot, name, uid, home, own_cell, is_dir)`.
type SalvageEntry = (u32, String, SegUid, DiskHome, SegUid, bool);

impl DirectoryManager {
    /// Salvager access: every live entry of `dir`, read from segment
    /// storage.
    pub(crate) fn salvage_entries(
        &mut self,
        ctx: &mut FsCtx<'_>,
        dir: SegUid,
    ) -> Result<Vec<SalvageEntry>, KernelError> {
        self.ensure_active(ctx, dir)?;
        Ok(self
            .entries(ctx, dir)?
            .into_iter()
            .map(|(slot, e)| (slot, e.name, e.uid, e.home, e.own_cell, e.is_dir))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelConfig;
    use crate::types::{Acl, UserId};
    use mx_aim::Label;
    use mx_hw::Word;

    fn boot() -> (Kernel, crate::types::ProcessId) {
        let mut k = Kernel::boot(KernelConfig {
            frames: 128,
            records_per_pack: 256,
            toc_slots_per_pack: 64,
            pt_slots: 24,
            max_processes: 4,
            root_quota: 300,
            ..KernelConfig::default()
        });
        k.register_account("u", UserId(1), 1, Label::BOTTOM);
        let pid = k.login_residue("u", 1, Label::BOTTOM).unwrap();
        (k, pid)
    }

    #[test]
    fn a_healthy_system_salvages_clean() {
        let (mut k, pid) = boot();
        let root = k.root_token();
        let dir = k
            .create_entry(pid, root, "d", Acl::owner(UserId(1)), Label::BOTTOM, true)
            .unwrap();
        let f = k
            .create_entry(pid, dir, "f", Acl::owner(UserId(1)), Label::BOTTOM, false)
            .unwrap();
        let segno = k.initiate(pid, f).unwrap();
        k.write_word(pid, segno, 0, Word::new(5)).unwrap();
        let report = k.salvage(false).unwrap();
        assert!(report.clean(), "problems: {:?}", report.problems);
        assert!(report.objects_checked >= 3, "d, f, and the state segment");
        assert!(report.cells_checked >= 1);
    }

    #[test]
    fn orphan_toc_entries_are_found_and_reclaimed() {
        let (mut k, _pid) = boot();
        // Inject: a TOC entry nothing catalogues.
        let orphan_toc = k
            .machine
            .disks
            .pack_mut(mx_hw::PackId(1))
            .unwrap()
            .create_entry(0xDEAD)
            .unwrap();
        let report = k.salvage(false).unwrap();
        assert!(report
            .problems
            .iter()
            .any(|p| matches!(p, Problem::OrphanTocEntry { uid, .. } if uid.0 == 0xDEAD)));
        // Repair reclaims it.
        let report = k.salvage(true).unwrap();
        assert!(!report.repairs.is_empty());
        assert!(k
            .machine
            .disks
            .pack(mx_hw::PackId(1))
            .unwrap()
            .entry(orphan_toc)
            .is_err());
        // And the system is clean afterwards.
        let report = k.salvage(false).unwrap();
        assert!(report.clean(), "problems: {:?}", report.problems);
    }

    #[test]
    fn leaked_records_are_found_and_freed() {
        let (mut k, _pid) = boot();
        // Inject: a record allocated but referenced by no file map, as a
        // crash between allocation and the file-map commit leaves it.
        let pack = mx_hw::PackId(1);
        let leaked = k
            .machine
            .disks
            .pack_mut(pack)
            .unwrap()
            .allocate_record()
            .unwrap();
        let free_before = k.machine.disks.pack(pack).unwrap().free_records();
        let report = k.salvage(false).unwrap();
        assert!(report
            .problems
            .iter()
            .any(|p| matches!(p, Problem::LeakedRecord { record, .. } if *record == leaked)));
        let report = k.salvage(true).unwrap();
        assert!(report.repairs.iter().any(|r| r.contains("leaked record")));
        assert_eq!(
            k.machine.disks.pack(pack).unwrap().free_records(),
            free_before + 1,
            "record returned to the free pool"
        );
        let report = k.salvage(false).unwrap();
        assert!(report.clean(), "problems: {:?}", report.problems);
    }

    #[test]
    fn cell_drift_is_detected_and_repaired() {
        let (mut k, pid) = boot();
        let root = k.root_token();
        let f = k
            .create_entry(pid, root, "f", Acl::owner(UserId(1)), Label::BOTTOM, false)
            .unwrap();
        let segno = k.initiate(pid, f).unwrap();
        k.write_word(pid, segno, 0, Word::new(5)).unwrap();
        // Inject drift: over-charge the root cell behind the system's back.
        let mut flows = mx_aim::FlowTracker::new();
        k.qcm
            .charge(&mut k.machine, SegUid(1), 3, Label::BOTTOM, &mut flows)
            .unwrap();
        let report = k.salvage(false).unwrap();
        assert!(report.problems.iter().any(|p| matches!(
            p,
            Problem::CellDrift {
                cell: SegUid(1),
                ..
            }
        )));
        let report = k.salvage(true).unwrap();
        assert!(report.repairs.iter().any(|r| r.contains("reset cell 1")));
        let report = k.salvage(false).unwrap();
        assert!(
            report.clean(),
            "problems after repair: {:?}",
            report.problems
        );
    }

    /// Pokes a raw word of the root directory segment — fault injection
    /// for catalogue damage.
    fn poke_root_dir(k: &mut Kernel, wordno: u32, value: u64) {
        k.segm
            .write_word(
                &mut k.machine,
                &mut k.drm,
                &mut k.qcm,
                &mut k.pfm,
                &mut k.vpm,
                &mut k.flows,
                SegUid(1),
                wordno,
                Word::new(value),
                Label::BOTTOM,
            )
            .unwrap();
    }

    #[test]
    fn doubly_claimed_toc_entries_are_found_and_cleared() {
        let (mut k, pid) = boot();
        let root = k.root_token();
        let f1 = k
            .create_entry(pid, root, "f1", Acl::owner(UserId(1)), Label::BOTTOM, false)
            .unwrap();
        let _f2 = k
            .create_entry(pid, root, "f2", Acl::owner(UserId(1)), Label::BOTTOM, false)
            .unwrap();
        let u1 = k.uid_of_token(f1).unwrap();
        let h1 = k.dirm.home_of(u1).unwrap();
        // Root slots: 0 = "processes", 1 = "f1", 2 = "f2". Duplicate
        // f1's claim into f2's entry, as a torn directory page would.
        let base2 = 1 + 2 * crate::directory::ENTRY_WORDS;
        poke_root_dir(&mut k, base2, u1.0);
        poke_root_dir(&mut k, base2 + 2, u64::from(h1.pack.0));
        poke_root_dir(&mut k, base2 + 3, u64::from(h1.toc.0));
        let report = k.salvage(false).unwrap();
        assert!(
            report
                .problems
                .iter()
                .any(|p| matches!(p, Problem::DoublyClaimedToc { name, .. } if name == "f2")),
            "problems: {:?}",
            report.problems
        );
        // Repair clears the duplicate (and reclaims f2's orphaned TOC
        // entry); a second pass is clean.
        let report = k.salvage(true).unwrap();
        assert!(report.repairs.iter().any(|r| r.contains("duplicate claim")));
        let report = k.salvage(false).unwrap();
        assert!(report.clean(), "problems: {:?}", report.problems);
        // The surviving claim still works.
        let segno = k.initiate(pid, f1).unwrap();
        k.write_word(pid, segno, 0, Word::new(3)).unwrap();
    }

    #[test]
    fn dangling_entry_repair_converges() {
        let (mut k, pid) = boot();
        let root = k.root_token();
        let f = k
            .create_entry(
                pid,
                root,
                "victim",
                Acl::owner(UserId(1)),
                Label::BOTTOM,
                false,
            )
            .unwrap();
        let uid = k.uid_of_token(f).unwrap();
        let home = k.dirm.home_of(uid).unwrap();
        k.machine
            .disks
            .pack_mut(home.pack)
            .unwrap()
            .delete_entry(home.toc)
            .unwrap();
        let report = k.salvage(true).unwrap();
        assert!(report.repairs.iter().any(|r| r.contains("dangling entry")));
        let report = k.salvage(false).unwrap();
        assert!(report.clean(), "problems: {:?}", report.problems);
    }

    fn config() -> KernelConfig {
        KernelConfig {
            frames: 128,
            records_per_pack: 256,
            toc_slots_per_pack: 64,
            pt_slots: 24,
            max_processes: 4,
            root_quota: 300,
            ..KernelConfig::default()
        }
    }

    #[test]
    fn online_salvage_releases_incrementally_and_serves_behind_barrier() {
        let (mut k, pid) = boot();
        let root = k.root_token();
        let dir = k
            .create_entry(pid, root, "d", Acl::owner(UserId(1)), Label::BOTTOM, true)
            .unwrap();
        let f = k
            .create_entry(pid, dir, "f", Acl::owner(UserId(1)), Label::BOTTOM, false)
            .unwrap();
        let segno = k.initiate(pid, f).unwrap();
        k.write_word(pid, segno, 0, Word::new(5)).unwrap();
        k.sync_to_disk().unwrap();
        let crashed = k.machine;

        let mut rk = Kernel::boot_from_image(config(), crashed).unwrap();
        rk.register_account("u", UserId(1), 1, Label::BOTTOM);
        rk.begin_online_salvage();
        assert!(rk.online_salvage_active());
        // Everything is quarantined: even login is barred (the process
        // state segment lives under `>processes`).
        assert_eq!(
            rk.login_residue("u", 1, Label::BOTTOM),
            Err(KernelError::SalvageBusy)
        );
        // Root releases first; `>processes` is root slot 0, then "d".
        match rk.online_salvage_step().unwrap() {
            OnlineProgress::Released { recheck_clean, .. } => assert!(recheck_clean),
            other => panic!("expected root release, got {other:?}"),
        }
        assert_eq!(
            rk.login_residue("u", 1, Label::BOTTOM),
            Err(KernelError::SalvageBusy),
            "processes dir still quarantined"
        );
        rk.online_salvage_step().unwrap();
        let pid = rk.login_residue("u", 1, Label::BOTTOM).unwrap();
        // "d" is still quarantined: searching the (released) root for it
        // works, but entering it does not.
        let root2 = rk.root_token();
        let dtok = rk.dir_search(pid, root2, "d").unwrap();
        assert_eq!(rk.list_dir(pid, dtok), Err(KernelError::SalvageBusy));
        assert_eq!(rk.initiate(pid, dtok), Err(KernelError::SalvageBusy));
        match rk.online_salvage_step().unwrap() {
            OnlineProgress::Released {
                dir, recheck_clean, ..
            } => {
                assert!(recheck_clean);
                assert_eq!(rk.dirm.resolve_token(dtok), Some(dir));
            }
            other => panic!("expected d release, got {other:?}"),
        }
        // Released: serving works, including creates (noted so the
        // orphan sweep below does not reclaim them).
        let ftok = rk.dir_search(pid, dtok, "f").unwrap();
        let segno = rk.initiate(pid, ftok).unwrap();
        assert_eq!(rk.read_word(pid, segno, 0).unwrap(), Word::new(5));
        let g = rk
            .create_entry(pid, dtok, "g", Acl::owner(UserId(1)), Label::BOTTOM, false)
            .unwrap();
        let gseg = rk.initiate(pid, g).unwrap();
        rk.write_word(pid, gseg, 0, Word::new(7)).unwrap();
        // Drain to completion: the barrier lifts, the service-created
        // entry survived, and a full offline pass agrees nothing is
        // left wrong.
        let report = loop {
            match rk.online_salvage_step().unwrap() {
                OnlineProgress::Done { report } => break report,
                OnlineProgress::Idle => panic!("went idle before done"),
                _ => {}
            }
        };
        assert!(!rk.online_salvage_active());
        assert!(
            report.clean(),
            "crash-free image online-salvages clean: {:?}",
            report.problems
        );
        assert_eq!(rk.read_word(pid, gseg, 0).unwrap(), Word::new(7));
        let offline = rk.salvage(false).unwrap();
        assert!(offline.clean(), "offline recheck: {:?}", offline.problems);
    }

    #[test]
    fn online_cheat_release_before_cell_repair_fails_recheck() {
        let (mut k, pid) = boot();
        let root = k.root_token();
        let f = k
            .create_entry(pid, root, "f", Acl::owner(UserId(1)), Label::BOTTOM, false)
            .unwrap();
        let segno = k.initiate(pid, f).unwrap();
        k.write_word(pid, segno, 0, Word::new(5)).unwrap();
        k.sync_to_disk().unwrap();
        let crashed = k.machine;

        let run = |cheat: Option<OnlineCheat>| {
            let mut rk = Kernel::boot_from_image(config(), crashed.clone()).unwrap();
            // Torn quota cell: the root cell over-charged behind the
            // system's back.
            let mut flows = mx_aim::FlowTracker::new();
            rk.qcm
                .charge(&mut rk.machine, SegUid(1), 3, Label::BOTTOM, &mut flows)
                .unwrap();
            rk.begin_online_salvage_with_cheat(cheat);
            match rk.online_salvage_step().unwrap() {
                OnlineProgress::Released {
                    recheck_clean,
                    repairs_made,
                    ..
                } => (recheck_clean, repairs_made),
                other => panic!("expected root release, got {other:?}"),
            }
        };
        let (honest_clean, honest_repairs) = run(None);
        assert!(honest_clean, "honest salvager repairs the cell");
        assert!(honest_repairs > 0);
        let (cheat_clean, _) = run(Some(OnlineCheat::ReleaseBeforeCellRepair));
        assert!(
            !cheat_clean,
            "releasing before the cell repair must fail the recheck"
        );
    }

    #[test]
    fn dangling_entries_are_reported() {
        let (mut k, pid) = boot();
        let root = k.root_token();
        let f = k
            .create_entry(
                pid,
                root,
                "victim",
                Acl::owner(UserId(1)),
                Label::BOTTOM,
                false,
            )
            .unwrap();
        // Inject: delete the TOC entry out from under the catalogue.
        let uid = k.uid_of_token(f).unwrap();
        let home = k.dirm.home_of(uid).unwrap();
        k.machine
            .disks
            .pack_mut(home.pack)
            .unwrap()
            .delete_entry(home.toc)
            .unwrap();
        let report = k.salvage(false).unwrap();
        assert!(report
            .problems
            .iter()
            .any(|p| matches!(p, Problem::DanglingEntry { name, .. } if name == "victim")));
    }
}
