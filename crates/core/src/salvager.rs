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
//!
//! The claim check behind invariants 1 and 2, the per-pack sweeps for
//! invariants 2 and 5, and the online salvage machine are the legacy
//! salvager's too, in [`mx_hw::salvage`]; this module reads directories
//! and quota cells and clears entries the kernel's way.

use crate::directory::FsCtx;
use crate::error::KernelError;
use crate::kernel::{ctx, Kernel};
use crate::types::{DiskHome, ObjToken, SegUid};
use mx_hw::salvage::{self, Claim, Claims, Online, Salvager, Sweep};
use mx_hw::{Machine, PackId, RecordNo};
use std::collections::{BTreeMap, BTreeSet, HashMap};

pub use mx_hw::salvage::OnlineCheat;

/// Progress from one [`Kernel::online_salvage_step`].
pub type OnlineProgress = salvage::OnlineProgress<Problem>;

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

impl Problem {
    /// How entry `name` of `dir`, naming `uid` at `home`, is reported
    /// when its claim fails.
    fn of_claim(claim: Claim, dir: SegUid, name: String, uid: SegUid, home: DiskHome) -> Self {
        match claim {
            Claim::Duplicate => Problem::DoublyClaimedToc { dir, name, home },
            _ => Problem::DanglingEntry { dir, name, uid },
        }
    }
}

/// The salvager's findings (and actions, when repairing).
pub type SalvageReport = salvage::Report<Problem>;

/// A directory entry whose claim failed: `(dir, slot, uid, problem)`.
type BadEntry = (SegUid, u32, SegUid, Problem);

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
        // object: uid -> (home, own_cell), and claiming each TOC entry
        // along the way. The catalogue and the cell set below are
        // ordered, so the report is the same in every process.
        let root = self.dirm.root();
        let mut catalogued: BTreeMap<SegUid, (DiskHome, SegUid)> = BTreeMap::new();
        let mut claims = Claims::default();
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
            claims.insert(home);
        }
        let mut stack = vec![root];
        let mut bad = Vec::new();
        while let Some(dir) = stack.pop() {
            let gcell = *governs.get(&dir).ok_or(KernelError::Salvage(
                "governing cell missing for walked dir",
            ))?;
            for (slot, name, uid, home, is_dir) in self.salvage_dir_entries(dir)? {
                report.objects_checked += 1;
                // Invariants 1 and 2 (first half): the first claim wins.
                match claims.claim(&self.machine.disks, home, uid) {
                    Claim::Won => {
                        catalogued.insert(uid, (home, gcell));
                        if is_dir {
                            governs.insert(uid, if self.qcm.exists(uid) { uid } else { gcell });
                            stack.push(uid);
                        }
                    }
                    claim => {
                        let problem = Problem::of_claim(claim, dir, name, uid, home);
                        bad.push((dir, slot, uid, problem));
                    }
                }
            }
        }
        self.clear_entries(&mut report, bad, repair)?;

        // Invariant 4 + per-cell actual usage from the disk's view.
        let mut actual_by_cell: BTreeMap<SegUid, u32> = BTreeMap::new();
        for (home, cell) in catalogued.values() {
            *actual_by_cell.entry(*cell).or_insert(0) += self.records_of(*home, Some(&mut report));
        }

        // Invariant 2 (second half), then invariant 5, a pack at a time.
        for s in Sweep::all(&self.machine.disks) {
            salvage::sweep(self, &claims, s, &mut report, repair)?;
        }

        // Invariant 3: cell drift, for every cell governing a catalogued
        // object and every catalogued quota directory, whose objects may
        // all have been reclaimed as orphans.
        let mut cells: BTreeSet<SegUid> = catalogued.values().map(|(_, c)| *c).collect();
        cells.extend(catalogued.keys().filter(|uid| self.qcm.exists(**uid)));
        for cell in cells {
            report.cells_checked += 1;
            let actual = actual_by_cell.get(&cell).copied().unwrap_or(0);
            let Some(recorded) = self.cell_recorded(cell)? else {
                continue;
            };
            if recorded != actual {
                self.cell_drift(&mut report, cell, recorded, actual, repair)?;
            }
        }
        Ok(report)
    }

    /// Reports each entry whose claim failed and, with `repair`, clears
    /// it.
    fn clear_entries(
        &mut self,
        report: &mut SalvageReport,
        bad: Vec<BadEntry>,
        repair: bool,
    ) -> Result<(), KernelError> {
        for (dir, slot, uid, problem) in bad {
            if repair {
                self.dirm
                    .salvage_clear_entry(&mut ctx!(self), dir, slot, uid)?;
                report.repairs.push(match problem {
                    Problem::DoublyClaimedToc { .. } => {
                        format!("cleared duplicate claim on uid {} in dir {}", uid.0, dir.0)
                    }
                    _ => format!("cleared dangling entry for uid {} in dir {}", uid.0, dir.0),
                });
            }
            report.problems.push(problem);
        }
        Ok(())
    }

    /// Reports `cell`'s drift and, with `repair`, forces both copies
    /// (core table if resident, TOC always) to the disk's truth. No
    /// limit enforcement: the pages already exist.
    fn cell_drift(
        &mut self,
        report: &mut SalvageReport,
        cell: SegUid,
        recorded: u32,
        actual: u32,
        repair: bool,
    ) -> Result<(), KernelError> {
        report.problems.push(Problem::CellDrift {
            cell,
            recorded,
            actual,
        });
        if repair {
            self.qcm
                .salvage_set_used(&mut self.machine, &mut self.drm, cell, actual)?;
            report.repairs.push(format!(
                "reset cell {} used count {} -> {}",
                cell.0, recorded, actual
            ));
        }
        Ok(())
    }

    /// What `cell` records: the core table if resident, the persistent
    /// TOC copy otherwise; `None` if the cell has no recorded home.
    fn cell_recorded(&self, cell: SegUid) -> Result<Option<u32>, KernelError> {
        if let Some((_, used)) = self.qcm.cell_state(cell) {
            return Ok(Some(used));
        }
        let Some((home, _, _, _)) = self.dirm.activation_info(cell) else {
            return Ok(None);
        };
        let stored = self.drm.read_quota_cell(&self.machine, home)?;
        Ok(Some(stored.map_or(0, |r| r.used_pages)))
    }

    /// The valid (in-pack) mapped records of one TOC entry; each page
    /// mapped outside the pack is a [`Problem::BadRecordPointer`] in
    /// `report`, if one is given (invariant 4).
    fn records_of(&self, home: DiskHome, mut report: Option<&mut SalvageReport>) -> u32 {
        let Ok(pack) = self.machine.disks.pack(home.pack) else {
            return 0;
        };
        let Ok(entry) = pack.entry(home.toc) else {
            return 0;
        };
        let mut used = 0;
        for (pageno, rec) in entry.file_map.iter().enumerate() {
            match rec {
                Some(r) if r.0 >= pack.capacity() => {
                    if let Some(report) = report.as_deref_mut() {
                        report.problems.push(Problem::BadRecordPointer {
                            home,
                            pageno: pageno as u32,
                        });
                    }
                }
                Some(_) => used += 1,
                None => {}
            }
        }
        used
    }

    /// Every live entry of `dir`, read from segment storage.
    pub(crate) fn salvage_dir_entries(
        &mut self,
        dir: SegUid,
    ) -> Result<Vec<SalvageEntry>, KernelError> {
        let mut fs = ctx!(self);
        self.dirm.ensure_active(&mut fs, dir)?;
        let entries = self.dirm.entries(&mut fs, dir)?.into_iter();
        Ok(entries
            .map(|(slot, e)| (slot, e.name, e.uid, e.home, e.is_dir))
            .collect())
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
        let mut online = Online::new(root, cheat);
        if let Some((home, _, _, _)) = self.dirm.activation_info(root) {
            online.claims.insert(home);
        }
        self.online = Some(online);
    }

    /// True while an incremental salvage is in progress.
    pub fn online_salvage_active(&self) -> bool {
        self.online.is_some()
    }

    /// Directories the online salvager has released so far (figures).
    pub fn online_salvage_dirs_released(&self) -> u32 {
        self.online.as_ref().map_or(0, Online::dirs_released)
    }

    /// Performs one unit of online salvage: claims, repairs, rechecks
    /// and releases one directory, or runs one per-pack finalize sweep
    /// once the frontier has drained. After [`OnlineProgress::Done`] the
    /// quarantine barrier lifts entirely.
    ///
    /// # Errors
    ///
    /// Storage errors reading directories; [`KernelError::Salvage`] on
    /// internal inconsistencies. A failed step is undone — its directory
    /// goes back to the head of the frontier, and the claims, the
    /// released set and the report are as before — so the next step
    /// retries it ([`mx_hw::salvage::Online`]).
    pub fn online_salvage_step(&mut self) -> Result<OnlineProgress, KernelError> {
        salvage::step(self)
    }

    /// Per-directory release proof: every entry satisfies invariants 1
    /// and 2 (within the directory) and, for quota directories, the cell
    /// matches the usage computed at claim time. Any finding is recorded
    /// as a problem and fails the recheck.
    fn online_recheck(
        &mut self,
        report: &mut SalvageReport,
        dir: SegUid,
        preview: Option<u32>,
    ) -> Result<bool, KernelError> {
        let mut clean = true;
        let mut local = Claims::default();
        for (_slot, name, uid, home, _is_dir) in self.salvage_dir_entries(dir)? {
            let claim = local.claim(&self.machine.disks, home, uid);
            if claim != Claim::Won {
                clean = false;
                let problem = Problem::of_claim(claim, dir, name, uid, home);
                report.problems.push(problem);
            }
        }
        if let Some(actual) = preview {
            let recorded = self.online_cell_recorded(dir)?;
            if recorded != actual {
                clean = false;
                report.problems.push(Problem::CellDrift {
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
    fn online_cell_usage(&mut self, claims: &Claims, dir: SegUid) -> Result<u32, KernelError> {
        let mut seen = Claims::default();
        let mut used = 0;
        if dir == self.dirm.root() {
            if let Some((home, _, _, _)) = self.dirm.activation_info(dir) {
                used += self.records_of(home, None);
            }
        }
        let mut stack = vec![dir];
        while let Some(d) = stack.pop() {
            for (_slot, _name, uid, home, is_dir) in self.salvage_dir_entries(d)? {
                if claims.preview(&mut seen, &self.machine.disks, home, uid) {
                    used += self.records_of(home, None);
                    if is_dir && !self.qcm.exists(uid) {
                        stack.push(uid);
                    }
                }
            }
        }
        Ok(used)
    }

    /// What a quota directory's cell currently records.
    fn online_cell_recorded(&self, cell: SegUid) -> Result<u32, KernelError> {
        self.cell_recorded(cell)?
            .ok_or(KernelError::Salvage("quota cell has no recorded home"))
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
            if is_dir && !o.is_released(uid) {
                return Err(KernelError::SalvageBusy);
            }
        }
        Ok(())
    }

    /// Records a TOC entry the *service* created while the salvager is
    /// running, so the finalize orphan sweep does not reclaim it. A
    /// freshly created directory is trivially clean and born released.
    pub(crate) fn salvage_note_created(&mut self, uid: SegUid, is_dir: bool) {
        if let Some(o) = &mut self.online {
            if let Some(h) = self.dirm.home_of(uid) {
                o.claims.insert(h);
            }
            if is_dir {
                o.release_new(uid);
            }
        }
    }

    /// Records a segment's relocation target (a fresh TOC entry) while
    /// the salvager is running.
    pub(crate) fn salvage_note_relocated(&mut self, new_home: DiskHome) {
        if let Some(o) = &mut self.online {
            o.claims.insert(new_home);
        }
    }
}

impl Salvager for Kernel {
    type Dir = SegUid;
    type Problem = Problem;
    type Error = KernelError;
    type Memo = ();

    fn machine(&mut self) -> &mut Machine {
        &mut self.machine
    }

    fn online(&mut self) -> &mut Option<Online<Self>> {
        &mut self.online
    }

    fn uid(dir: SegUid) -> SegUid {
        dir
    }

    /// Claim → check/repair → recheck, for one directory.
    fn claim_dir(&mut self, st: &mut Online<Self>, dir: SegUid) -> Result<bool, KernelError> {
        // The cell preview must run before this directory's entries join
        // the global claim set: its duplicate filter is "already claimed
        // by a processed directory", and the whole subtree below `dir`
        // is still quarantined (frozen), so the preview is exact.
        let is_cell = self.qcm.exists(dir) || dir == self.dirm.root();
        let preview = if is_cell {
            Some(self.online_cell_usage(&st.claims, dir)?)
        } else {
            None
        };

        let entries = self.salvage_dir_entries(dir)?;
        st.report.objects_checked += entries.len() as u32;
        let mut bad = Vec::new();
        for (slot, name, uid, home, is_dir) in entries {
            // Invariants 1 and 2 (first half): first claim wins, globally.
            match st.claims.claim(&self.machine.disks, home, uid) {
                Claim::Won => {
                    // Invariant 4 for this entry's object.
                    self.records_of(home, Some(&mut st.report));
                    if is_dir {
                        st.push(uid);
                    }
                }
                claim => {
                    let problem = Problem::of_claim(claim, dir, name, uid, home);
                    bad.push((dir, slot, uid, problem));
                }
            }
        }
        self.clear_entries(&mut st.report, bad, true)?;
        // Invariant 3, before release (the planted cheat skips exactly
        // this repair and lets the recheck below expose it).
        if let Some(actual) = preview {
            st.report.cells_checked += 1;
            let recorded = self.online_cell_recorded(dir)?;
            if recorded != actual && st.cheat.is_none() {
                self.cell_drift(&mut st.report, dir, recorded, actual, true)?;
            }
        }
        self.online_recheck(&mut st.report, dir, preview)
    }

    /// Only reclaims storage for objects nothing names and nothing has
    /// active.
    fn orphan(
        &mut self,
        report: &mut SalvageReport,
        home: DiskHome,
        uid: SegUid,
        repair: bool,
    ) -> Result<(), KernelError> {
        report.problems.push(Problem::OrphanTocEntry { home, uid });
        if repair && self.segm.get(uid).is_none() && !self.qcm.exists(uid) {
            self.drm.delete_entry(&mut self.machine, home)?;
            report.repairs.push(format!(
                "reclaimed orphan TOC entry {:?} (uid {})",
                home, uid.0
            ));
        }
        Ok(())
    }

    fn leaked(pack: PackId, record: RecordNo) -> Problem {
        Problem::LeakedRecord { pack, record }
    }
}

/// One live directory entry as the salvager sees it:
/// `(slot, name, uid, home, is_dir)`.
type SalvageEntry = (u32, String, SegUid, DiskHome, bool);

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

    /// Six quota directories, each holding one page and over-charged by
    /// two, three of them with a file map pointing past its pack.
    fn drifted_image() -> Kernel {
        let (mut k, pid) = boot();
        let root = k.root_token();
        let owner = || Acl::owner(UserId(1));
        for i in 0..6u64 {
            let d = k
                .create_entry(pid, root, &format!("q{i}"), owner(), Label::BOTTOM, true)
                .unwrap();
            k.set_quota(pid, d, 20).unwrap();
            let f = k
                .create_entry(pid, d, "f", owner(), Label::BOTTOM, false)
                .unwrap();
            let segno = k.initiate(pid, f).unwrap();
            k.write_word(pid, segno, 0, Word::new(i)).unwrap();
            let cell = k.uid_of_token(d).unwrap();
            let mut flows = mx_aim::FlowTracker::new();
            k.qcm
                .charge(&mut k.machine, cell, 2, Label::BOTTOM, &mut flows)
                .unwrap();
            if i % 2 == 0 {
                let home = k.dirm.home_of(k.uid_of_token(f).unwrap()).unwrap();
                let pack = k.machine.disks.pack_mut(home.pack).unwrap();
                let entry = pack.entry_mut(home.toc).unwrap();
                entry.file_map.push(Some(mx_hw::RecordNo(9999)));
            }
        }
        k
    }

    #[test]
    fn a_quota_directory_whose_files_are_all_orphans_is_audited() {
        let (mut k, pid) = boot();
        let root = k.root_token();
        let q = k
            .create_entry(pid, root, "q", Acl::owner(UserId(1)), Label::BOTTOM, true)
            .unwrap();
        k.set_quota(pid, q, 10).unwrap();
        let f = k
            .create_entry(pid, q, "f", Acl::owner(UserId(1)), Label::BOTTOM, false)
            .unwrap();
        let segno = k.initiate(pid, f).unwrap();
        for p in 0..3 {
            let wordno = p * mx_hw::PAGE_WORDS as u32;
            k.write_word(pid, segno, wordno, Word::new(7)).unwrap();
        }
        let (q, f) = (k.uid_of_token(q).unwrap(), k.uid_of_token(f).unwrap());
        // A torn directory page loses `f`'s entry; its TOC entry, its
        // records and `q`'s charge for them stay.
        let entries = k.salvage_dir_entries(q).unwrap();
        let slot = entries.iter().find(|e| e.2 == f).unwrap().0;
        k.dirm
            .salvage_clear_entry(&mut ctx!(k), q, slot, f)
            .unwrap();
        k.sync_to_disk().unwrap();
        let drift = Problem::CellDrift {
            cell: q,
            recorded: 3,
            actual: 0,
        };
        let report = k.salvage(false).unwrap();
        assert!(report.problems.contains(&drift), "{:?}", report.problems);
        let report = k.salvage(true).unwrap();
        assert!(report.repairs.iter().any(|r| r.contains("reset cell")));
        let report = k.salvage(false).unwrap();
        assert!(report.clean(), "problems: {:?}", report.problems);
        assert_eq!(k.cell_recorded(q).unwrap(), Some(0));
    }

    #[test]
    fn offline_reports_are_the_same_in_every_process() {
        let (a, b) = (
            drifted_image().salvage(false),
            drifted_image().salvage(false),
        );
        let (a, b) = (a.unwrap(), b.unwrap());
        let count = |f: fn(&Problem) -> bool| a.problems.iter().filter(|p| f(p)).count();
        assert_eq!(count(|p| matches!(p, Problem::CellDrift { .. })), 6);
        assert_eq!(count(|p| matches!(p, Problem::BadRecordPointer { .. })), 3);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let (a, b) = (drifted_image().salvage(true), drifted_image().salvage(true));
        assert_eq!(format!("{:?}", a.unwrap()), format!("{:?}", b.unwrap()));
    }

    #[test]
    fn an_online_step_failed_by_an_offline_pack_is_retried() {
        let (mut k, pid) = boot();
        let root = k.root_token();
        let dir = k
            .create_entry(pid, root, "d", Acl::owner(UserId(1)), Label::BOTTOM, true)
            .unwrap();
        k.set_quota(pid, dir, 20).unwrap();
        let f = k
            .create_entry(pid, dir, "f", Acl::owner(UserId(1)), Label::BOTTOM, false)
            .unwrap();
        let segno = k.initiate(pid, f).unwrap();
        k.write_word(pid, segno, 0, Word::new(5)).unwrap();
        let d = k.uid_of_token(dir).unwrap();
        k.sync_to_disk().unwrap();

        let mut rk = Kernel::boot_from_image(config(), k.machine).unwrap();
        rk.register_account("u", UserId(1), 1, Label::BOTTOM);
        rk.begin_online_salvage();
        rk.online_salvage_step().unwrap(); // the root
        rk.online_salvage_step().unwrap(); // `>processes`

        // `>d` is next: page it out and take its pack away.
        rk.sync_to_disk().unwrap();
        let pack = rk.dirm.home_of(d).unwrap().pack;
        rk.machine.faults.set_offline(pack, true);
        assert_eq!(
            rk.online_salvage_step().unwrap_err(),
            KernelError::Disk(mx_hw::DiskError::PackOffline { pack })
        );
        assert!(!rk.online.as_ref().unwrap().is_released(d));
        rk.machine.faults.set_offline(pack, false);
        match rk.online_salvage_step().unwrap() {
            OnlineProgress::Released {
                dir, recheck_clean, ..
            } => assert!(dir == d && recheck_clean),
            other => panic!("expected the retried release of d, got {other:?}"),
        }
        let report = loop {
            match rk.online_salvage_step().unwrap() {
                OnlineProgress::Done { report } => break report,
                OnlineProgress::Idle => panic!("went idle before done"),
                _ => {}
            }
        };
        assert!(report.clean(), "problems: {:?}", report.problems);
        let pid = rk.login_residue("u", 1, Label::BOTTOM).unwrap();
        let root = rk.root_token();
        let dtok = rk.dir_search(pid, root, "d").unwrap();
        let ftok = rk.dir_search(pid, dtok, "f").unwrap();
        let segno = rk.initiate(pid, ftok).unwrap();
        assert_eq!(rk.read_word(pid, segno, 0).unwrap(), Word::new(5));
        let offline = rk.salvage(false).unwrap();
        assert!(offline.clean(), "offline recheck: {:?}", offline.problems);
    }
}
