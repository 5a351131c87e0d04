//! Crash recovery for the old supervisor: re-bootload from a surviving
//! disk image, plus the legacy salvager.
//!
//! The 1974 supervisor kept no redundancy beyond the disk structures
//! themselves, so recovery is a raw walk of those structures: find the
//! root's TOC entry, rebuild the branch table from the on-disk
//! hierarchy, recompute the root quota cell (which is never persisted —
//! the root never deactivates), and then let [`Supervisor::salvage`]
//! cross-check the same invariants the new design's salvager checks:
//!
//! 1. every directory entry names a live TOC entry with a matching uid;
//! 2. every TOC entry is claimed by exactly one directory entry (or is
//!    the root's);
//! 3. every quota cell's used count equals the records mapped by the
//!    objects charged to it;
//! 4. every allocated record is referenced by some file map.
//!
//! The salvager works on the disk image directly (flushing core first),
//! because after a crash the AST is empty and the directory segments
//! may themselves be damaged in ways the paging path cannot tolerate.
//! The claim check behind invariants 1 and 2, the per-pack sweeps for
//! invariants 2 and 4, and the online salvage machine are the new
//! design's too, in [`mx_hw::salvage`]; this module reads directories
//! and quota cells raw and clears entries the old supervisor's way.

use std::collections::{HashMap, VecDeque};

use crate::ast::{Aste, QuotaCell};
use crate::directory_control::{FLAGS, NAME, PACK, QUOTA_USED, TOC, UID};
use crate::supervisor::{Branch, Supervisor, SupervisorConfig};
use crate::types::{DiskHome, LegacyError, SegUid};
use mx_aim::Label;
use mx_hw::meter::Subsystem;
use mx_hw::salvage::{
    self, live, toc_entry, Claim, Claims, Online, OnlineCheat, OnlineProgress, Salvager, Sweep,
};
use mx_hw::word::{unpack_name, NAME_WORDS};
use mx_hw::{
    DiskError, DiskSystem, HwFeatures, Language, Machine, PackId, RecordNo, TocIndex, Word,
    PAGE_WORDS,
};

/// PL/I instructions charged per word the raw walk touches — the old
/// salvager interpreted the disk structures in software.
const RAW_WALK_INSTR: u64 = 10;

/// What one [`Supervisor::online_salvage_step`] accomplished.
pub type LegacyOnlineProgress = OnlineProgress<String>;

/// The legacy salvager's findings (and actions, when repairing), its
/// problems as human-readable descriptions.
pub type LegacySalvageReport = salvage::Report<String>;

/// Records the drift of `cell` (`root cell` or `cell N`) and, if
/// `reset`, its reset to `actual`.
fn drift(report: &mut LegacySalvageReport, cell: &str, recorded: u32, actual: u32, reset: bool) {
    report.problems.push(format!(
        "{cell} drift: recorded {recorded}, actual {actual}"
    ));
    if reset {
        report
            .repairs
            .push(format!("reset {cell} used {recorded} -> {actual}"));
    }
}

/// A directory entry as the raw disk walk decodes it.
struct RawEntry {
    uid: SegUid,
    is_dir: bool,
    quota_dir: bool,
    home: DiskHome,
    name: String,
    quota_used: u32,
}

impl RawEntry {
    /// Claims this entry's TOC entry: `Err` with how the salvager
    /// reports it if the claim fails.
    fn claim(&self, claims: &mut Claims, disks: &DiskSystem) -> Result<(), String> {
        match claims.claim(disks, self.home, self.uid) {
            Claim::Won => Ok(()),
            Claim::Duplicate => Err(format!(
                "duplicate claim '{}' on uid {}",
                self.name, self.uid.0
            )),
            Claim::Dangling => Err(format!(
                "dangling entry '{}' (uid {})",
                self.name, self.uid.0
            )),
        }
    }
}

/// A directory entry whose claim failed: `(dir, dir home, slot, problem)`.
type BadEntry = (SegUid, DiskHome, u32, String);

/// Pages of `home` occupying disk records (zero if it has no TOC entry).
fn records_of(disks: &DiskSystem, home: DiskHome) -> u32 {
    toc_entry(disks, home).map_or(0, |e| e.records_used())
}

impl Supervisor {
    /// Flushes every active segment's pages to disk and persists every
    /// quota cell, deactivating everything but the root — the clean-
    /// shutdown point after which the disk image alone describes the
    /// system.
    ///
    /// Deactivation proceeds leaves-first in uid order, so the disk
    /// write sequence is deterministic for a given hierarchy.
    ///
    /// # Errors
    ///
    /// Disk errors from the flushes.
    pub fn sync_to_disk(&mut self) -> Result<(), LegacyError> {
        loop {
            let mut leaves: Vec<SegUid> = self
                .ast
                .iter()
                .filter(|(_, a)| a.inferiors == 0 && a.uid != self.root_uid)
                .map(|(_, a)| a.uid)
                .collect();
            if leaves.is_empty() {
                break;
            }
            leaves.sort();
            for uid in leaves {
                self.deactivate_segment(uid)?;
            }
        }
        let root_astx = self.ast.find(self.root_uid).ok_or(LegacyError::NotActive)?;
        self.flush_segment(root_astx)
    }

    /// Re-bootloads the supervisor on the machine that crashed, whose
    /// packs alone survive ([`Machine::restart`](mx_hw::Machine::restart)):
    /// finds the root's TOC entry (the bootload gives the root uid 1 on
    /// pack 0), rebuilds the branch table by walking the on-disk
    /// hierarchy, and recomputes the root quota cell.
    ///
    /// Entries damaged by the crash — dangling, or claiming a TOC entry
    /// twice — are skipped here; clearing them is the salvager's job.
    ///
    /// # Errors
    ///
    /// [`LegacyError::NoAccess`] if the image holds no root;
    /// disk errors reading the image.
    pub fn boot_from_image(
        config: SupervisorConfig,
        crashed: mx_hw::Machine,
    ) -> Result<Self, LegacyError> {
        let machine = crashed.restart(config.machine(HwFeatures::BASE_1974));
        let mut sup = Self::assemble(&config, machine);
        let root_toc = sup
            .machine
            .disks
            .pack(PackId(0))
            .map_err(LegacyError::Disk)?
            .entries()
            .find(|(_, e)| e.uid == 1)
            .map(|(i, _)| i)
            .ok_or(LegacyError::NoAccess)?;
        let root_home = DiskHome {
            pack: PackId(0),
            toc: root_toc,
        };
        let len_pages = sup
            .machine
            .disks
            .pack(PackId(0))
            .map_err(LegacyError::Disk)?
            .entry(root_toc)
            .map_err(LegacyError::Disk)?
            .len_pages();
        let root_uid = SegUid(1);
        let aste = Aste {
            uid: root_uid,
            home: root_home,
            pt_slot: 0,
            len_pages,
            is_dir: true,
            parent: None,
            inferiors: 0,
            quota: Some(QuotaCell {
                limit: config.root_quota,
                used: 0,
            }),
            dir_home: None,
            connections: Vec::new(),
            label: Label::BOTTOM,
        };
        sup.ast.activate(aste).ok_or(LegacyError::AstFull)?;
        sup.root_uid = root_uid;
        sup.root_home = root_home;
        sup.branch_table.insert(
            root_uid,
            Branch {
                parent: None,
                slot: 0,
                is_dir: true,
            },
        );

        // Rebuild the branch table from the on-disk hierarchy.
        let mut max_uid = 1u64;
        let mut queue = VecDeque::from([(root_uid, root_home)]);
        while let Some((dir, home)) = queue.pop_front() {
            for (slot, e) in sup.raw_entries(home)? {
                if !live(&sup.machine.disks, e.home, e.uid) || sup.branch_table.contains_key(&e.uid)
                {
                    continue;
                }
                sup.branch_table.insert(
                    e.uid,
                    Branch {
                        parent: Some(dir),
                        slot,
                        is_dir: e.is_dir,
                    },
                );
                max_uid = max_uid.max(e.uid.0);
                if e.is_dir {
                    queue.push_back((e.uid, e.home));
                }
            }
        }
        sup.next_uid = max_uid + 1;

        // The root cell's used count is never persisted; recompute it
        // from what the image actually stores.
        let usage = sup.raw_cell_usage()?;
        if let Some(cell) = sup.root_quota()? {
            cell.used = usage.get(&root_uid).copied().unwrap_or(0);
        }
        Ok(sup)
    }

    /// Runs the legacy salvager over the disk image.
    ///
    /// Core is flushed first so the image is current; the walk then
    /// operates on raw records. With `repair` set, dangling and
    /// doubly-claimed entries are cleared, orphan TOC entries and leaked
    /// records are reclaimed, and drifted quota cells are reset — enough
    /// for a second pass to come back clean from any crash state.
    ///
    /// # Errors
    ///
    /// Disk errors from the initial flush, the walk (a pack offline, a
    /// power failure, a record that stays unreadable past
    /// [`READ_RETRY_BUDGET`](crate::page_control::READ_RETRY_BUDGET) retries) or the repairs. The hierarchy is
    /// walked before anything is repaired, so an error in that walk
    /// leaves the image as it was.
    pub fn salvage(&mut self, repair: bool) -> Result<LegacySalvageReport, LegacyError> {
        let guard = self.machine.clock.enter(Subsystem::Salvager);
        let result = self.salvage_walk(repair);
        self.machine.clock.exit(guard);
        result
    }

    fn salvage_walk(&mut self, repair: bool) -> Result<LegacySalvageReport, LegacyError> {
        let mut report = LegacySalvageReport::default();
        // Flush core so the disk image is the whole truth.
        let mut active: Vec<usize> = self.ast.iter().map(|(i, _)| i).collect();
        active.sort_unstable();
        for astx in active {
            self.flush_segment(astx)?;
        }

        // Walk the hierarchy raw, checking invariants 1 and 2 and
        // collecting each quota directory along the way.
        let root_uid = self.root_uid;
        let root_home = self.root_home;
        let mut claims = Claims::default();
        claims.insert(root_home);
        let mut quota_dirs: Vec<(SegUid, SegUid, DiskHome, u32)> = Vec::new(); // (uid, parent, its home, slot)
        let mut queue = VecDeque::from([(root_uid, root_home)]);
        let mut bad = Vec::new();
        while let Some((dir, home)) = queue.pop_front() {
            for (slot, e) in self.raw_entries(home)? {
                report.objects_checked += 1;
                if let Err(what) = e.claim(&mut claims, &self.machine.disks) {
                    bad.push((dir, home, slot, what));
                    continue;
                }
                if e.quota_dir {
                    quota_dirs.push((e.uid, dir, home, slot));
                }
                if e.is_dir {
                    queue.push_back((e.uid, e.home));
                }
            }
        }
        self.clear_entries(&mut report, bad, repair, false)?;

        // Invariant 2, second half, then invariant 4, a pack at a time.
        for s in Sweep::all(&self.machine.disks) {
            salvage::sweep(self, &claims, s, &mut report, repair)?;
        }

        // Invariant 3: cell drift. The root cell lives in the AST; other
        // cells live in their directory's entry (or the AST if active).
        let actual = self.raw_cell_usage()?;
        report.cells_checked += 1;
        let want = actual.get(&root_uid).copied().unwrap_or(0);
        self.check_root_cell(&mut report, want, repair)?;
        for (uid, parent, parent_home, slot) in quota_dirs {
            report.cells_checked += 1;
            let want = actual.get(&uid).copied().unwrap_or(0);
            let recorded = match self.ast.find(uid) {
                Some(astx) => self
                    .ast
                    .get(astx)
                    .and_then(|a| a.quota.map(|q| q.used))
                    .unwrap_or(0),
                None => self
                    .raw_seg_read(parent_home, Self::entry_base(slot) + QUOTA_USED)?
                    .raw() as u32,
            };
            if recorded != want {
                if repair {
                    self.set_cell(uid, parent, parent_home, slot, want, false)?;
                }
                let cell = format!("cell {}", uid.0);
                drift(&mut report, &cell, recorded, want, repair);
            }
        }
        Ok(report)
    }

    /// Reports each entry whose claim failed and, with `repair`, clears
    /// its in-use flag — through core if `through_core` and its
    /// directory is active, raw otherwise — and drops any branch the
    /// recovery walk catalogued from it.
    fn clear_entries(
        &mut self,
        report: &mut LegacySalvageReport,
        bad: Vec<BadEntry>,
        repair: bool,
        through_core: bool,
    ) -> Result<(), LegacyError> {
        for (dir, home, slot, what) in bad {
            if repair {
                let base = Self::entry_base(slot);
                let uid = SegUid(self.raw_seg_read(home, base + UID)?.raw());
                self.dir_write(dir, home, base + FLAGS, Word::ZERO, through_core)?;
                if self
                    .branch_table
                    .get(&uid)
                    .is_some_and(|b| b.slot == slot && b.parent == Some(dir))
                {
                    self.branch_table.remove(&uid);
                }
                report.repairs.push(format!("cleared {what}"));
            }
            report.problems.push(what);
        }
        Ok(())
    }

    /// Sets quota directory `uid`'s cell, kept in entry `slot` of
    /// `parent` (stored at `parent_home`) and in the AST while `uid` is
    /// active, to `used`.
    fn set_cell(
        &mut self,
        uid: SegUid,
        parent: SegUid,
        parent_home: DiskHome,
        slot: u32,
        used: u32,
        through_core: bool,
    ) -> Result<(), LegacyError> {
        if let Some(cell) = self
            .ast
            .find(uid)
            .and_then(|astx| self.ast.get_mut(astx))
            .and_then(|a| a.quota.as_mut())
        {
            cell.used = used;
        }
        let (at, value) = (
            Self::entry_base(slot) + QUOTA_USED,
            Word::new(u64::from(used)),
        );
        self.dir_write(parent, parent_home, at, value, through_core)
    }

    /// The root's quota cell, which lives only in the AST.
    fn root_quota(&mut self) -> Result<Option<&mut QuotaCell>, LegacyError> {
        let astx = self.ast.find(self.root_uid).ok_or(LegacyError::NotActive)?;
        Ok(self.ast.get_mut(astx).and_then(|a| a.quota.as_mut()))
    }

    /// Checks the root cell against `want` and, with `repair`, resets it.
    fn check_root_cell(
        &mut self,
        report: &mut LegacySalvageReport,
        want: u32,
        repair: bool,
    ) -> Result<(), LegacyError> {
        let cell = self.root_quota()?;
        let recorded = cell.as_ref().map_or(0, |q| q.used);
        if recorded != want {
            if let Some(q) = cell.filter(|_| repair) {
                q.used = want;
            }
            drift(report, "root cell", recorded, want, repair);
        }
        Ok(())
    }

    // ----- online salvage -------------------------------------------------

    /// Starts an online salvage: the whole recovered hierarchy is
    /// quarantined — every reference to an unreleased directory answers
    /// [`LegacyError::SalvageBusy`] — and each call to
    /// [`Supervisor::online_salvage_step`] claims, repairs, rechecks and
    /// releases one directory, so service resumes behind the repair
    /// frontier instead of waiting for a stop-the-world pass.
    pub fn begin_online_salvage(&mut self) {
        self.begin_online_salvage_with_cheat(None);
    }

    /// [`Supervisor::begin_online_salvage`] with a planted defect, for
    /// the self-check harness only.
    #[doc(hidden)]
    pub fn begin_online_salvage_with_cheat(&mut self, cheat: Option<OnlineCheat>) {
        let mut online = Online::new((self.root_uid, self.root_home), cheat);
        online.claims.insert(self.root_home);
        self.online = Some(online);
    }

    /// True while an online salvage is in progress.
    pub fn online_salvage_active(&self) -> bool {
        self.online.is_some()
    }

    /// Directories released so far by the running online salvage.
    pub fn online_salvage_dirs_released(&self) -> u32 {
        self.online.as_ref().map_or(0, Online::dirs_released)
    }

    /// Performs one unit of online salvage work: releases the next
    /// frontier directory, or runs one whole-pack finalize sweep, or
    /// completes the salvage and lifts the quarantine.
    ///
    /// # Errors
    ///
    /// Disk errors from the walk or the repairs;
    /// [`LegacyError::Salvage`] on internal inconsistencies. A failed
    /// step is undone — its directory goes back to the head of the
    /// frontier, and the claims, the released set and the report are as
    /// before — so the next step retries it
    /// ([`mx_hw::salvage::Online`]).
    pub fn online_salvage_step(&mut self) -> Result<LegacyOnlineProgress, LegacyError> {
        salvage::step(self)
    }

    /// Honest recheck before release: re-reads the directory raw and
    /// re-verifies invariants 1 and 2 locally, and — if this directory
    /// owns a quota cell — that the recorded used count equals the
    /// frozen truth captured when the cell was checked.
    fn online_recheck(
        &mut self,
        st: &mut Online<Self>,
        dir: SegUid,
        home: DiskHome,
    ) -> Result<bool, LegacyError> {
        let mut clean = true;
        let mut local = Claims::default();
        for (_, e) in self.raw_entries(home)? {
            if let Err(what) = e.claim(&mut local, &self.machine.disks) {
                clean = false;
                st.report.problems.push(what);
            }
        }
        if let Some(expect) = st.memo.get(&dir).copied() {
            let recorded = if dir == self.root_uid {
                self.root_quota()?.map_or(0, |q| q.used)
            } else {
                let branch = self
                    .branch_table
                    .get(&dir)
                    .copied()
                    .ok_or(LegacyError::Salvage("claimed directory lost its branch"))?;
                let parent = branch
                    .parent
                    .ok_or(LegacyError::Salvage("non-root directory without a parent"))?;
                match self.ast.find(parent) {
                    Some(pastx) => self.read_entry(pastx, branch.slot)?.quota_used,
                    None => {
                        let phome = self.online_home_of(parent)?;
                        let at = Self::entry_base(branch.slot) + QUOTA_USED;
                        self.raw_seg_read(phome, at)?.raw() as u32
                    }
                }
            };
            if recorded != expect {
                clean = false;
                let cell = format!("cell {}", dir.0);
                drift(&mut st.report, &cell, recorded, expect, false);
            }
        }
        Ok(clean)
    }

    /// Writes one word of directory `dir`, stored at `home`: through the
    /// paging path if `through_core` and `dir` is active (keeping core
    /// coherent), raw otherwise.
    fn dir_write(
        &mut self,
        dir: SegUid,
        home: DiskHome,
        wordno: u32,
        value: Word,
        through_core: bool,
    ) -> Result<(), LegacyError> {
        match self.ast.find(dir).filter(|_| through_core) {
            Some(astx) => self.sup_write(astx, wordno, value),
            None => self.raw_seg_write(home, wordno, value),
        }
    }

    /// The disk home of an object, found without activating anything:
    /// the root's home is pinned; anyone else's lives in the parent's
    /// entry (read buffered if the parent is active, raw otherwise).
    fn online_home_of(&mut self, uid: SegUid) -> Result<DiskHome, LegacyError> {
        if uid == self.root_uid {
            return Ok(self.root_home);
        }
        let branch = self
            .branch_table
            .get(&uid)
            .copied()
            .ok_or(LegacyError::Salvage("object has no branch"))?;
        let parent = branch
            .parent
            .ok_or(LegacyError::Salvage("non-root object without a parent"))?;
        match self.ast.find(parent) {
            Some(pastx) => Ok(self.read_entry(pastx, branch.slot)?.home),
            None => {
                let phome = self.online_home_of(parent)?;
                let base = Self::entry_base(branch.slot);
                Ok(DiskHome {
                    pack: PackId(self.raw_seg_read(phome, base + PACK)?.raw() as u32),
                    toc: TocIndex(self.raw_seg_read(phome, base + TOC)?.raw() as u32),
                })
            }
        }
    }

    /// Frozen-subtree usage of the cell owned by the quota directory at
    /// `qdir_home`: the records of everything below it, pruning at
    /// deeper quota directories (whose subtrees charge their own cells)
    /// but counting those directories' own pages here — the same
    /// nearest-superior attribution as [`Supervisor::raw_cell_usage`].
    /// Entries whose TOC home is already claimed elsewhere are excluded,
    /// matching the claim winner the walk keeps.
    ///
    /// # Errors
    ///
    /// As [`Supervisor::raw_seg_read`].
    fn online_cell_actual(
        &mut self,
        qdir_home: DiskHome,
        claims: &Claims,
    ) -> Result<u32, LegacyError> {
        let mut seen = Claims::default();
        let mut used = 0u32;
        let mut queue = VecDeque::from([qdir_home]);
        while let Some(home) = queue.pop_front() {
            for (_, e) in self.raw_entries(home)? {
                let disks = &self.machine.disks;
                if claims.preview(&mut seen, disks, e.home, e.uid) {
                    used += records_of(disks, e.home);
                    if e.is_dir && !e.quota_dir {
                        queue.push_back(e.home);
                    }
                }
            }
        }
        Ok(used)
    }

    /// The quarantine barrier: while an online salvage runs, any
    /// reference to a directory the salvager has not yet released
    /// answers [`LegacyError::SalvageBusy`]. Files pass — they are
    /// reachable only through directories that already passed.
    pub(crate) fn salvage_barrier_uid(&self, uid: SegUid) -> Result<(), LegacyError> {
        if let Some(o) = &self.online {
            let is_dir = self
                .branch_table
                .get(&uid)
                .map(|b| b.is_dir)
                .unwrap_or(false);
            if is_dir && !o.is_released(uid) {
                return Err(LegacyError::SalvageBusy);
            }
        }
        Ok(())
    }

    /// Tells a running salvage about a service-created object so the
    /// finalize sweeps keep it: its TOC entry joins the claim set, and
    /// a new directory is born released (it cannot be crash debris).
    pub(crate) fn salvage_note_created(&mut self, uid: SegUid, home: DiskHome, is_dir: bool) {
        if let Some(o) = &mut self.online {
            o.claims.insert(home);
            if is_dir {
                o.release_new(uid);
            }
        }
    }

    /// Tells a running salvage that a segment relocated to a new TOC
    /// entry, so the orphan sweep keeps the new home.
    pub(crate) fn salvage_note_relocated(&mut self, new_home: DiskHome) {
        if let Some(o) = &mut self.online {
            o.claims.insert(new_home);
        }
    }

    // ----- raw disk-image access -----------------------------------------

    /// Reads one word of a segment straight from its disk records.
    ///
    /// The walk is unbuffered — every word costs a full record transfer,
    /// which is exactly how expensive the old salvager's raw disk pass
    /// was — and the transfer is charged to the clock so recovery time
    /// is measurable.
    ///
    /// Torn structures read as zero: a missing TOC entry, a zero page,
    /// or a file map naming a record or pack that does not exist.
    /// Transient read errors are retried up to [`READ_RETRY_BUDGET`](crate::page_control::READ_RETRY_BUDGET).
    ///
    /// # Errors
    ///
    /// [`LegacyError::Disk`] for an offline pack, a power failure, or an
    /// exhausted retry budget: a directory the walk cannot read is not
    /// an empty one.
    fn raw_seg_read(&mut self, home: DiskHome, wordno: u32) -> Result<Word, LegacyError> {
        let page = wordno as usize / PAGE_WORDS;
        let off = wordno as usize % PAGE_WORDS;
        self.charge(RAW_WALK_INSTR, Language::Pli);
        let Some(record) = toc_entry(&self.machine.disks, home)
            .and_then(|e| e.file_map.get(page).copied().flatten())
        else {
            return Ok(Word::ZERO);
        };
        match self.read_with_retry(|m| m.disk_read_word(home.pack, record, off)) {
            Err(LegacyError::Disk(DiskError::BadRecord { .. } | DiskError::NoSuchPack { .. })) => {
                Ok(Word::ZERO)
            }
            read => read,
        }
    }

    /// Writes one word of a segment straight into its disk records,
    /// materializing the page if the word lands on a zero page.
    fn raw_seg_write(
        &mut self,
        home: DiskHome,
        wordno: u32,
        value: Word,
    ) -> Result<(), LegacyError> {
        let page = wordno / PAGE_WORDS as u32;
        let off = wordno as usize % PAGE_WORDS;
        self.charge(RAW_WALK_INSTR, Language::Pli);
        let pack = self
            .machine
            .disks
            .pack_mut(home.pack)
            .map_err(LegacyError::Disk)?;
        let record = match pack
            .page_record(home.toc, page)
            .map_err(LegacyError::Disk)?
        {
            Some(r) => r,
            None => {
                let r = pack
                    .allocate_record()
                    .map_err(|_| LegacyError::AllPacksFull)?;
                pack.map_page(home.toc, page, Some(r))
                    .map_err(LegacyError::Disk)?;
                r
            }
        };
        let mut buf = self.read_with_retry(|m| m.disk_read_record(home.pack, record))?;
        buf[off] = value;
        self.machine
            .disk_write_record(home.pack, record, buf.as_ref())
            .map_err(LegacyError::Disk)?;
        Ok(())
    }

    /// Every entry in use of the directory stored at `home`, with its
    /// slot, decoded raw: the count word, then each slot's flags and, if
    /// the in-use flag is set, its name, uid, home and cell words.
    ///
    /// # Errors
    ///
    /// As [`Supervisor::raw_seg_read`].
    fn raw_entries(&mut self, home: DiskHome) -> Result<Vec<(u32, RawEntry)>, LegacyError> {
        let count = self.raw_seg_read(home, 0)?.raw() as u32;
        let mut entries = Vec::new();
        for slot in 0..count {
            let base = Self::entry_base(slot);
            let flags = self.raw_seg_read(home, base + FLAGS)?.raw();
            if flags & 1 == 0 {
                continue;
            }
            let mut name_words = [Word::ZERO; NAME_WORDS];
            for (i, w) in name_words.iter_mut().enumerate() {
                *w = self.raw_seg_read(home, base + NAME + i as u32)?;
            }
            let entry = RawEntry {
                uid: SegUid(self.raw_seg_read(home, base + UID)?.raw()),
                is_dir: flags & 2 != 0,
                quota_dir: flags & 4 != 0,
                home: DiskHome {
                    pack: PackId(self.raw_seg_read(home, base + PACK)?.raw() as u32),
                    toc: TocIndex(self.raw_seg_read(home, base + TOC)?.raw() as u32),
                },
                name: unpack_name(&name_words),
                quota_used: self.raw_seg_read(home, base + QUOTA_USED)?.raw() as u32,
            };
            entries.push((slot, entry));
        }
        Ok(entries)
    }

    /// Computes, from the disk image alone, the pages actually charged
    /// to each quota cell: an object charges the nearest superior quota
    /// directory; a quota directory's own pages charge its superior's
    /// cell; the root charges itself.
    ///
    /// # Errors
    ///
    /// As [`Supervisor::raw_seg_read`].
    fn raw_cell_usage(&mut self) -> Result<HashMap<SegUid, u32>, LegacyError> {
        let mut usage: HashMap<SegUid, u32> = HashMap::new();
        usage.insert(
            self.root_uid,
            records_of(&self.machine.disks, self.root_home),
        );
        let mut claims = Claims::default();
        claims.insert(self.root_home);
        // (directory home, cell its children charge to)
        let mut queue = VecDeque::from([(self.root_home, self.root_uid)]);
        while let Some((home, cell)) = queue.pop_front() {
            for (_, e) in self.raw_entries(home)? {
                if e.claim(&mut claims, &self.machine.disks).is_err() {
                    continue;
                }
                *usage.entry(cell).or_default() += records_of(&self.machine.disks, e.home);
                if e.is_dir {
                    let child_cell = if e.quota_dir {
                        usage.entry(e.uid).or_default();
                        e.uid
                    } else {
                        cell
                    };
                    queue.push_back((e.home, child_cell));
                }
            }
        }
        Ok(usage)
    }
}

impl Salvager for Supervisor {
    /// A directory found but not yet claimed, with the home its parent's
    /// entry recorded. The home is stable: a quarantined directory
    /// cannot be activated, so it cannot relocate.
    type Dir = (SegUid, DiskHome);
    type Problem = String;
    type Error = LegacyError;
    /// Per quota cell, the frozen-truth used count established when the
    /// cell was checked at its parent's claim (or the root's own claim);
    /// the owning directory's recheck re-verifies the recorded value
    /// against it before release.
    type Memo = HashMap<SegUid, u32>;

    fn machine(&mut self) -> &mut Machine {
        &mut self.machine
    }

    fn online(&mut self) -> &mut Option<Online<Self>> {
        &mut self.online
    }

    fn uid((dir, _): (SegUid, DiskHome)) -> SegUid {
        dir
    }

    fn claim_dir(
        &mut self,
        st: &mut Online<Self>,
        (dir, home): (SegUid, DiskHome),
    ) -> Result<bool, LegacyError> {
        // An active quarantined directory (only the root in practice)
        // may hold dirty pages; flush so the raw reads see the truth.
        if let Some(astx) = self.ast.find(dir) {
            self.flush_segment(astx)?;
        }
        let mut bad = Vec::new();
        // (child uid, slot, recorded used, child home)
        let mut quota_children: Vec<(SegUid, u32, u32, DiskHome)> = Vec::new();
        for (slot, e) in self.raw_entries(home)? {
            st.report.objects_checked += 1;
            if let Err(what) = e.claim(&mut st.claims, &self.machine.disks) {
                bad.push((dir, home, slot, what));
                continue;
            }
            if e.quota_dir {
                quota_children.push((e.uid, slot, e.quota_used, e.home));
            }
            if e.is_dir {
                st.push((e.uid, e.home));
            }
        }
        self.clear_entries(&mut st.report, bad, true, true)?;
        for (quid, slot, recorded, child_home) in quota_children {
            st.report.cells_checked += 1;
            // The child's subtree is frozen (quarantined until its own
            // claim), so its true usage is computable now, while the
            // cell word in this directory is still the salvager's.
            let actual = self.online_cell_actual(child_home, &st.claims)?;
            st.memo.insert(quid, actual);
            if recorded != actual && st.cheat.is_none() {
                self.set_cell(quid, dir, home, slot, actual, true)?;
                let cell = format!("cell {}", quid.0);
                drift(&mut st.report, &cell, recorded, actual, true);
            }
        }
        if dir == self.root_uid {
            st.report.cells_checked += 1;
            // The whole tree is still frozen at the root's claim (it is
            // the first), so the root cell's truth is computable here.
            let usage = self.raw_cell_usage()?;
            let want = usage.get(&self.root_uid).copied().unwrap_or(0);
            st.memo.insert(dir, want);
            if st.cheat.is_none() {
                self.check_root_cell(&mut st.report, want, true)?;
            }
        }
        // Repairs to an active directory went through the paging path;
        // flush again so the raw recheck reads current data.
        if let Some(astx) = self.ast.find(dir) {
            self.flush_segment(astx)?;
        }
        self.online_recheck(st, dir, home)
    }

    /// Reclaims TOC entries no claimed directory entry references.
    /// Service-created objects were noted into the claim set at birth,
    /// so only crash debris qualifies; an active segment's home is
    /// additionally never touched, nor reported.
    fn orphan(
        &mut self,
        report: &mut LegacySalvageReport,
        home: DiskHome,
        uid: SegUid,
        repair: bool,
    ) -> Result<(), LegacyError> {
        if self.ast.iter().any(|(_, a)| a.home == home) {
            return Ok(());
        }
        let DiskHome { pack, toc } = home;
        report.problems.push(format!(
            "orphan TOC entry {}:{} (uid {})",
            pack.0, toc.0, uid.0
        ));
        if repair {
            if let Ok(p) = self.machine.disks.pack_mut(pack) {
                let _ = p.delete_entry(toc);
            }
            report
                .repairs
                .push(format!("reclaimed orphan TOC entry {}:{}", pack.0, toc.0));
        }
        Ok(())
    }

    fn leaked(pack: PackId, record: RecordNo) -> String {
        format!("leaked record {} on pack {}", record.0, pack.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page_control::READ_RETRY_BUDGET;
    use crate::types::{Acl, UserId};
    use mx_hw::PAGE_WORDS;

    fn config() -> SupervisorConfig {
        SupervisorConfig {
            frames: 128,
            packs: 2,
            records_per_pack: 256,
            toc_slots_per_pack: 64,
            pt_slots: 24,
            max_processes: 4,
            root_quota: 200,
        }
    }

    #[test]
    fn raw_walk_retries_transient_reads_within_the_budget() {
        let mut sup = Supervisor::boot(config());
        let dir = sup
            .create_directory_in(sup.root(), "d", Acl::owner(UserId(1)), Label::BOTTOM)
            .unwrap();
        sup.create_segment_in(dir, "f", Acl::owner(UserId(1)), Label::BOTTOM)
            .unwrap();
        sup.sync_to_disk().unwrap();
        let home = sup.root_home;
        let record = sup
            .machine
            .disks
            .pack(home.pack)
            .unwrap()
            .entry(home.toc)
            .unwrap()
            .file_map[0]
            .unwrap();
        // The walk's first read is the root's entry count: fail it on
        // each of its first `failures` attempts.
        let plan = |failures: u32| {
            (1..=u64::from(failures)).fold(mx_hw::FaultPlan::new(), |plan, k| {
                plan.transient_read(home.pack, record, k)
            })
        };
        sup.machine.install_fault_plan(plan(READ_RETRY_BUDGET));
        let retries = sup.stats.disk_retries;
        let report = sup.salvage(false).unwrap();
        assert!(report.clean(), "problems: {:?}", report.problems);
        assert_eq!(
            sup.stats.disk_retries - retries,
            u64::from(READ_RETRY_BUDGET)
        );
        sup.machine.install_fault_plan(plan(READ_RETRY_BUDGET + 1));
        assert_eq!(
            sup.salvage(false).unwrap_err(),
            LegacyError::Disk(DiskError::TransientRead {
                pack: home.pack,
                record
            })
        );
    }

    #[test]
    fn recovery_bootload_rebuilds_the_hierarchy() {
        let mut sup = Supervisor::boot(config());
        let user = UserId(1);
        let dir = sup
            .create_directory_in(sup.root(), "d", Acl::owner(user), Label::BOTTOM)
            .unwrap();
        let seg = sup
            .create_segment_in(dir, "f", Acl::owner(user), Label::BOTTOM)
            .unwrap();
        let astx = sup.activate(seg).unwrap();
        for p in 0..3u32 {
            sup.sup_write(astx, p * PAGE_WORDS as u32, Word::new(u64::from(p) + 10))
                .unwrap();
        }
        sup.sync_to_disk().unwrap();
        let crashed = sup.machine;

        let mut back = Supervisor::boot_from_image(config(), crashed).unwrap();
        let report = back.salvage(false).unwrap();
        assert!(report.clean(), "problems: {:?}", report.problems);
        // The hierarchy came back: the file is reachable and readable.
        let astx = back.activate(seg).unwrap();
        for p in 0..3u32 {
            assert_eq!(
                back.sup_read(astx, p * PAGE_WORDS as u32).unwrap(),
                Word::new(u64::from(p) + 10)
            );
        }
        // The root cell was recomputed, and uids do not collide.
        let root_astx = back.ast.find(back.root()).unwrap();
        assert!(back.ast.get(root_astx).unwrap().quota.unwrap().used > 0);
        let fresh = back
            .create_segment_in(back.root(), "new", Acl::owner(user), Label::BOTTOM)
            .unwrap();
        assert!(fresh.0 > seg.0, "recovered next_uid continues the sequence");
    }

    #[test]
    fn online_salvage_releases_incrementally_and_serves_behind_barrier() {
        let mut sup = Supervisor::boot(config());
        let user = UserId(1);
        let dir = sup
            .create_directory_in(sup.root(), "d", Acl::owner(user), Label::BOTTOM)
            .unwrap();
        let seg = sup
            .create_segment_in(dir, "f", Acl::owner(user), Label::BOTTOM)
            .unwrap();
        let astx = sup.activate(seg).unwrap();
        sup.sup_write(astx, 0, Word::new(7)).unwrap();
        sup.sync_to_disk().unwrap();
        let crashed = sup.machine;

        let mut back = Supervisor::boot_from_image(config(), crashed).unwrap();
        back.begin_online_salvage();
        assert!(back.online_salvage_active());
        // A process needs a state segment under ">processes", so even
        // process creation is barred until the root is released.
        assert_eq!(
            back.create_process(user, Label::BOTTOM),
            Err(LegacyError::SalvageBusy)
        );

        // First step releases the root: service resumes there while
        // ">d" is still quarantined (as final target and as a path
        // component both).
        match back.online_salvage_step().unwrap() {
            LegacyOnlineProgress::Released {
                dir, recheck_clean, ..
            } => {
                assert_eq!(dir, back.root());
                assert!(recheck_clean);
            }
            other => panic!("expected root release, got {other:?}"),
        }
        let pid = back
            .create_process(user, Label::BOTTOM)
            .expect("released root admits processes mid-salvage");
        assert_eq!(
            back.resolve(pid, ">d", crate::types::AccessRight::Read),
            Err(LegacyError::SalvageBusy)
        );
        assert_eq!(
            back.resolve(pid, ">d>f", crate::types::AccessRight::Read),
            Err(LegacyError::SalvageBusy)
        );
        let fresh = back
            .create_segment_in(back.root(), "fresh", Acl::owner(user), Label::BOTTOM)
            .expect("released root serves creates mid-salvage");

        // Second step releases "d"; the file behind it becomes
        // reachable with its contents intact.
        match back.online_salvage_step().unwrap() {
            LegacyOnlineProgress::Released { recheck_clean, .. } => assert!(recheck_clean),
            other => panic!("expected release of 'd', got {other:?}"),
        }
        let (got, _) = back
            .resolve(pid, ">d>f", crate::types::AccessRight::Read)
            .unwrap();
        assert_eq!(got, seg);
        let astx = back.activate(seg).unwrap();
        assert_eq!(back.sup_read(astx, 0).unwrap(), Word::new(7));

        // Drain: finalize sweeps must keep the service-created segment.
        let report = loop {
            match back.online_salvage_step().unwrap() {
                LegacyOnlineProgress::Done { report } => break report,
                LegacyOnlineProgress::Idle => panic!("salvage went idle before Done"),
                _ => {}
            }
        };
        assert!(report.clean(), "problems: {:?}", report.problems);
        assert!(!back.online_salvage_active());
        assert_eq!(back.online_salvage_dirs_released(), 0);
        back.activate(fresh)
            .expect("fresh segment survived finalize");
        let check = back.salvage(false).unwrap();
        assert!(check.clean(), "problems: {:?}", check.problems);
    }

    #[test]
    fn online_cheat_release_before_cell_repair_fails_recheck() {
        let mut sup = Supervisor::boot(config());
        let user = UserId(1);
        let dir = sup
            .create_directory_in(sup.root(), "d", Acl::owner(user), Label::BOTTOM)
            .unwrap();
        sup.create_segment_in(dir, "f", Acl::owner(user), Label::BOTTOM)
            .unwrap();
        sup.sync_to_disk().unwrap();
        let crashed = sup.machine;

        // Honest salvager: repairs the drifted root cell and the
        // recheck passes.
        let mut honest = Supervisor::boot_from_image(config(), crashed.clone()).unwrap();
        let root_astx = honest.ast.find(honest.root()).unwrap();
        honest
            .ast
            .get_mut(root_astx)
            .unwrap()
            .quota
            .as_mut()
            .unwrap()
            .used += 3;
        honest.begin_online_salvage();
        match honest.online_salvage_step().unwrap() {
            LegacyOnlineProgress::Released {
                recheck_clean,
                repairs_made,
                ..
            } => {
                assert!(recheck_clean, "honest repair must satisfy the recheck");
                assert!(repairs_made > 0, "the drift must have been repaired");
            }
            other => panic!("expected root release, got {other:?}"),
        }

        // Cheating salvager: skips the repair; the per-release recheck
        // catches it at the root's own release.
        let mut cheat = Supervisor::boot_from_image(config(), crashed).unwrap();
        let root_astx = cheat.ast.find(cheat.root()).unwrap();
        cheat
            .ast
            .get_mut(root_astx)
            .unwrap()
            .quota
            .as_mut()
            .unwrap()
            .used += 3;
        cheat.begin_online_salvage_with_cheat(Some(OnlineCheat::ReleaseBeforeCellRepair));
        match cheat.online_salvage_step().unwrap() {
            LegacyOnlineProgress::Released { recheck_clean, .. } => {
                assert!(!recheck_clean, "the recheck must catch the planted cheat");
            }
            other => panic!("expected root release, got {other:?}"),
        }
    }

    #[test]
    fn salvage_reclaims_orphans_and_leaks() {
        let mut sup = Supervisor::boot(config());
        sup.sync_to_disk().unwrap();
        // An orphan TOC entry with a record, and a bare leaked record.
        {
            let pack = sup.machine.disks.pack_mut(PackId(1)).unwrap();
            let toc = pack.create_entry(0xBEEF).unwrap();
            let rec = pack.allocate_record().unwrap();
            pack.entry_mut(toc).unwrap().file_map.push(Some(rec));
            pack.allocate_record().unwrap();
        }
        let free_before = sup.machine.disks.pack(PackId(1)).unwrap().free_records();
        let report = sup.salvage(true).unwrap();
        assert!(report.problems.iter().any(|p| p.contains("orphan")));
        assert!(report.problems.iter().any(|p| p.contains("leaked")));
        assert_eq!(
            sup.machine.disks.pack(PackId(1)).unwrap().free_records(),
            free_before + 2,
            "both records reclaimed"
        );
        let report = sup.salvage(false).unwrap();
        assert!(report.clean(), "problems: {:?}", report.problems);
    }

    #[test]
    fn salvage_clears_dangling_entries_and_converges() {
        let mut sup = Supervisor::boot(config());
        let user = UserId(1);
        let seg = sup
            .create_segment_in(sup.root(), "victim", Acl::owner(user), Label::BOTTOM)
            .unwrap();
        sup.sync_to_disk().unwrap();
        // Delete the TOC entry out from under the catalogue.
        let branch = sup.branch_table[&seg];
        let root_astx = sup.ast.find(sup.root()).unwrap();
        let home = sup.read_entry(root_astx, branch.slot).unwrap().home;
        sup.machine
            .disks
            .pack_mut(home.pack)
            .unwrap()
            .delete_entry(home.toc)
            .unwrap();
        let report = sup.salvage(true).unwrap();
        assert!(report.problems.iter().any(|p| p.contains("dangling")));
        assert!(!report.repairs.is_empty());
        let report = sup.salvage(false).unwrap();
        assert!(report.clean(), "problems: {:?}", report.problems);
    }

    /// The image of `>d>f` (word 0 = 7) after a clean shutdown, with an
    /// entry `>d>g` whose TOC entry is gone if `dangling`; also `f` and
    /// `>d`'s home.
    fn image_with_dir(dangling: bool) -> (mx_hw::Machine, SegUid, DiskHome) {
        let mut sup = Supervisor::boot(config());
        let owner = || Acl::owner(UserId(1));
        let dir = sup
            .create_directory_in(sup.root(), "d", owner(), Label::BOTTOM)
            .unwrap();
        let seg = sup
            .create_segment_in(dir, "f", owner(), Label::BOTTOM)
            .unwrap();
        let astx = sup.activate(seg).unwrap();
        sup.sup_write(astx, 0, Word::new(7)).unwrap();
        let g = sup
            .create_segment_in(dir, "g", owner(), Label::BOTTOM)
            .unwrap();
        let home_of = |sup: &mut Supervisor, uid| {
            let astx = sup.activate(uid).unwrap();
            sup.ast.get(astx).unwrap().home
        };
        let (d_home, g_home) = (home_of(&mut sup, dir), home_of(&mut sup, g));
        sup.sync_to_disk().unwrap();
        if dangling {
            let pack = sup.machine.disks.pack_mut(g_home.pack).unwrap();
            pack.delete_entry(g_home.toc).unwrap();
        }
        (sup.machine, seg, d_home)
    }

    /// Steps `sup`'s online salvage to `Done`, then checks that `f` still
    /// reads 7 and an offline pass is clean; the online report.
    fn drain_and_check(sup: &mut Supervisor, f: SegUid) -> LegacySalvageReport {
        let report = loop {
            match sup.online_salvage_step().unwrap() {
                LegacyOnlineProgress::Done { report } => break report,
                LegacyOnlineProgress::Idle => panic!("salvage went idle before Done"),
                _ => {}
            }
        };
        let astx = sup.activate(f).unwrap();
        assert_eq!(sup.sup_read(astx, 0).unwrap(), Word::new(7));
        let check = sup.salvage(false).unwrap();
        assert!(check.clean(), "problems: {:?}", check.problems);
        report
    }

    #[test]
    fn an_online_step_failed_by_an_offline_pack_is_retried() {
        let (crashed, f, d_home) = image_with_dir(false);
        let mut back = Supervisor::boot_from_image(config(), crashed).unwrap();
        back.begin_online_salvage();
        back.online_salvage_step().unwrap(); // the root
        back.machine.faults.set_offline(d_home.pack, true);
        assert_eq!(
            back.online_salvage_step().unwrap_err(),
            LegacyError::Disk(DiskError::PackOffline { pack: d_home.pack })
        );
        back.machine.faults.set_offline(d_home.pack, false);
        let report = drain_and_check(&mut back, f);
        assert!(report.clean(), "problems: {:?}", report.problems);
    }

    #[test]
    fn an_online_step_failed_after_reading_its_entries_is_retried() {
        let (crashed, f, d_home) = image_with_dir(true);
        let mut back = Supervisor::boot_from_image(config(), crashed).unwrap();
        back.begin_online_salvage();
        back.online_salvage_step().unwrap(); // the root

        // `>d`'s pack drops offline at the raw write that clears `g`,
        // after every entry of `>d` was read and claimed.
        let plan = mx_hw::FaultPlan::new().pack_offline_after_writes(d_home.pack, 1);
        back.machine.install_fault_plan(plan);
        assert_eq!(
            back.online_salvage_step().unwrap_err(),
            LegacyError::Disk(DiskError::PackOffline { pack: d_home.pack })
        );
        back.machine.install_fault_plan(mx_hw::FaultPlan::new());
        let report = drain_and_check(&mut back, f);
        // The failed attempt's findings were undone with it: `g` is
        // reported and cleared once.
        assert_eq!(report.problems.len(), 1, "problems: {:?}", report.problems);
        assert!(report.problems[0].starts_with("dangling entry 'g'"));
        assert_eq!(report.repairs, [format!("cleared {}", report.problems[0])]);
    }
}
