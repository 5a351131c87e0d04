//! Directory control: the hierarchy, ACLs, pathname resolution, quota
//! designation.
//!
//! Directory representations are stored in segments, so every operation
//! here really pages: an entry is a 16-word record written through
//! [`Supervisor::sup_write`], and a lookup is a scan of those records
//! through [`Supervisor::sup_read`].
//!
//! Two of the paper's semantic case studies live here in their *old*
//! form:
//!
//! * **Buried pathname search.** `resolve` follows a tree name through
//!   directories the caller may not be able to read, checks only the
//!   final target's ACL, and answers either "file found" or the
//!   deliberately uninformative [`LegacyError::NoAccess`].
//! * **Dynamic quota directories.** Any directory may be designated a
//!   quota directory *at any time*, which forces an expensive
//!   subtree-usage computation and charge migration — the complexity
//!   that drove the new design's childless-only rule.

use crate::supervisor::{Branch, KstEntry, Supervisor};
use crate::types::{AccessRight, Acl, DiskHome, LegacyError, ProcessId, SegUid};
use mx_aim::{AccessKind, Label, ReferenceMonitor};
use mx_hw::entries::{name_words, EntryReader, EntryStore};
pub(crate) use mx_hw::entries::{FLAGS, NAME};
use mx_hw::meter::Subsystem;
use mx_hw::word::{name_fits, pack_name, unpack_name, Name, NameKey};
use mx_hw::{AbsAddr, Language, Machine, PackId, TocIndex, Word};

/// Words per directory entry record.
pub const ENTRY_WORDS: u32 = 16;

const LOOKUP_INSTR_PER_ENTRY: u64 = 12;
const CREATE_INSTR: u64 = 150;
const QUOTA_SWEEP_INSTR_PER_OBJECT: u64 = 60;

/// A decoded directory entry record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryRecord {
    /// The named object's uid.
    pub uid: SegUid,
    /// True if the entry names a directory.
    pub is_dir: bool,
    /// True if the directory is a quota directory.
    pub quota_dir: bool,
    /// Where the named object lives on disk.
    pub home: DiskHome,
    /// Entry name (up to 32 characters).
    pub name: Name,
    /// Discretionary access control list.
    pub acl: Acl,
    /// AIM label of the object.
    pub label: Label,
    /// Quota limit (quota directories only).
    pub quota_limit: u32,
    /// Persisted quota use count (quota directories only).
    pub quota_used: u32,
}

/// Offset of an entry's uid word.
pub(crate) const UID: u32 = 0;
/// Offsets of an entry's disk home: its pack, then its TOC index.
pub(crate) const PACK: u32 = 2;
pub(crate) const TOC: u32 = 3;
/// Offset of an entry's ACL, two words.
pub(crate) const ACL: u32 = 12;
/// Offsets of a quota directory's limit and persisted use count.
pub(crate) const QUOTA_LIMIT: u32 = 14;
pub(crate) const QUOTA_USED: u32 = 15;

/// The old supervisor's directories as the entry reader reads them: its
/// entry layout and its full word access (page service, the used bit,
/// the setfaults flush of both processors' associative memories).
impl EntryStore for Supervisor {
    /// An AST index.
    type Dir = usize;
    type Error = LegacyError;
    type Entry = EntryRecord;
    type Words = [Word; ENTRY_WORDS as usize];
    const ENTRY_WORDS: u32 = ENTRY_WORDS;
    /// Every word but the flags word.
    const RECORD: u64 = 0xfffd;
    const SLOT_INSTR: u64 = LOOKUP_INSTR_PER_ENTRY;

    #[inline]
    fn machine(&mut self) -> &mut Machine {
        &mut self.machine
    }

    fn touch(&mut self, astx: usize, wordno: u32) -> Result<AbsAddr, LegacyError> {
        self.sup_touch(astx, wordno, false)
    }

    fn decode(words: &[Word]) -> EntryRecord {
        let w = |i: u32| words[i as usize].raw();
        let flags = w(FLAGS);
        EntryRecord {
            uid: SegUid(w(UID)),
            is_dir: flags & 2 != 0,
            quota_dir: flags & 4 != 0,
            home: DiskHome {
                pack: PackId(w(PACK) as u32),
                toc: TocIndex(w(TOC) as u32),
            },
            name: unpack_name(name_words(words)),
            acl: Acl::unpack(w(ACL), w(ACL + 1)),
            label: Label::from_stored(flags >> 3),
            quota_limit: w(QUOTA_LIMIT) as u32,
            quota_used: w(QUOTA_USED) as u32,
        }
    }

    #[cfg(test)]
    fn reference(&self) -> bool {
        reference::per_word()
    }
}

/// Selects the per-slot loop over [`Supervisor::sup_read`] the entry
/// reader replaced, kept as the reference the tests compare it against.
#[cfg(test)]
mod reference {
    use std::cell::Cell;

    thread_local! {
        static PER_WORD: Cell<bool> = const { Cell::new(false) };
    }

    pub(super) fn per_word() -> bool {
        PER_WORD.get()
    }

    /// Runs `f` with every directory word read through
    /// [`super::Supervisor::sup_read`], and `lookup` charging each slot's
    /// PL/I block before the slot's first word.
    pub(super) fn per_word_during<T>(f: impl FnOnce() -> T) -> T {
        PER_WORD.set(true);
        let out = f();
        PER_WORD.set(false);
        out
    }
}

impl Supervisor {
    // ----- entry record codec -------------------------------------------

    /// Word offset of entry `slot` within a directory segment.
    pub(crate) fn entry_base(slot: u32) -> u32 {
        <Self as EntryStore>::entry_base(slot)
    }

    /// Reads and decodes entry `slot` of the directory at `astx`.
    ///
    /// # Errors
    ///
    /// [`LegacyError::NoAccess`] if the slot is unused; paging errors
    /// otherwise.
    pub fn read_entry(&mut self, astx: usize, slot: u32) -> Result<EntryRecord, LegacyError> {
        EntryReader::new(astx)
            .entry(self, slot)?
            .ok_or(LegacyError::NoAccess)
    }

    /// Encodes and writes a full entry record into `slot`.
    pub(crate) fn write_entry(
        &mut self,
        astx: usize,
        slot: u32,
        entry: &EntryRecord,
    ) -> Result<(), LegacyError> {
        let base = Self::entry_base(slot);
        let mut flags = 1u64;
        if entry.is_dir {
            flags |= 2;
        }
        if entry.quota_dir {
            flags |= 4;
        }
        flags |= entry.label.stored().ok_or(LegacyError::BadLabel)? << 3;
        let (users, rights) = entry.acl.stored().ok_or(LegacyError::BadAcl)?;
        self.sup_write(astx, base + UID, Word::new(entry.uid.0))?;
        self.sup_write(astx, base + FLAGS, Word::new(flags))?;
        self.write_entry_home(astx, slot, entry.home)?;
        for (i, w) in pack_name(&entry.name).iter().enumerate() {
            self.sup_write(astx, base + NAME + i as u32, *w)?;
        }
        self.sup_write(astx, base + ACL, Word::new(users))?;
        self.sup_write(astx, base + ACL + 1, Word::new(rights))?;
        let limit = u64::from(entry.quota_limit);
        self.sup_write(astx, base + QUOTA_LIMIT, Word::new(limit))?;
        let used = u64::from(entry.quota_used);
        self.sup_write(astx, base + QUOTA_USED, Word::new(used))?;
        Ok(())
    }

    /// Rewrites only the disk home of an entry (relocation's direct
    /// update).
    pub(crate) fn write_entry_home(
        &mut self,
        astx: usize,
        slot: u32,
        home: DiskHome,
    ) -> Result<(), LegacyError> {
        let base = Self::entry_base(slot);
        self.sup_write(astx, base + PACK, Word::new(u64::from(home.pack.0)))?;
        self.sup_write(astx, base + TOC, Word::new(u64::from(home.toc.0)))?;
        Ok(())
    }

    /// Rewrites only the quota words of an entry (deactivation persists
    /// the cached cell).
    pub(crate) fn write_entry_quota(
        &mut self,
        astx: usize,
        slot: u32,
        limit: u32,
        used: u32,
    ) -> Result<(), LegacyError> {
        let base = Self::entry_base(slot);
        self.sup_write(astx, base + QUOTA_LIMIT, Word::new(u64::from(limit)))?;
        self.sup_write(astx, base + QUOTA_USED, Word::new(u64::from(used)))?;
        Ok(())
    }

    /// Scans the directory at `astx` for `name`; returns (slot, entry).
    pub(crate) fn lookup(
        &mut self,
        astx: usize,
        name: &str,
    ) -> Result<Option<(u32, EntryRecord)>, LegacyError> {
        let mut reader = EntryReader::new(astx);
        let count = reader.count(self)?;
        reader.find(self, count, &NameKey::new(name))
    }

    // ----- creation ------------------------------------------------------

    /// Creates a directory named `name` inside the directory `parent`.
    ///
    /// # Errors
    ///
    /// [`LegacyError::BadName`], [`LegacyError::BadLabel`] or
    /// [`LegacyError::BadAcl`] for a name, label or ACL the entry codec
    /// cannot store; [`LegacyError::NameDuplicated`] on a name clash;
    /// paging and disk errors otherwise.
    pub fn create_directory_in(
        &mut self,
        parent: SegUid,
        name: &str,
        acl: Acl,
        label: Label,
    ) -> Result<SegUid, LegacyError> {
        self.scoped(Subsystem::DirectoryControl, |s| {
            s.create_object(parent, name, acl, label, true)
        })
    }

    /// Creates a data segment named `name` inside the directory `parent`.
    ///
    /// # Errors
    ///
    /// [`LegacyError::BadName`], [`LegacyError::BadLabel`] or
    /// [`LegacyError::BadAcl`] for a name, label or ACL the entry codec
    /// cannot store; [`LegacyError::NameDuplicated`] on a name clash;
    /// paging and disk errors otherwise.
    pub fn create_segment_in(
        &mut self,
        parent: SegUid,
        name: &str,
        acl: Acl,
        label: Label,
    ) -> Result<SegUid, LegacyError> {
        self.scoped(Subsystem::DirectoryControl, |s| {
            s.create_object(parent, name, acl, label, false)
        })
    }

    fn create_object(
        &mut self,
        parent: SegUid,
        name: &str,
        acl: Acl,
        label: Label,
        is_dir: bool,
    ) -> Result<SegUid, LegacyError> {
        if !name_fits(name) {
            return Err(LegacyError::BadName);
        }
        if label.stored().is_none() {
            return Err(LegacyError::BadLabel);
        }
        if acl.stored().is_none() {
            return Err(LegacyError::BadAcl);
        }
        self.charge(CREATE_INSTR, Language::Pli);
        self.salvage_barrier_uid(parent)?;
        let parent_astx = self.activate(parent)?;
        if !self.ast.get(parent_astx).expect("active parent").is_dir {
            return Err(LegacyError::NotADirectory);
        }
        if self.lookup(parent_astx, name)?.is_some() {
            return Err(LegacyError::NameDuplicated);
        }
        // Place the new object on its parent's pack when possible so
        // subtrees cluster (and packs genuinely fill).
        let parent_pack = self.ast.get(parent_astx).expect("active parent").home.pack;
        let uid = self.allocate_uid();
        let home = match self
            .machine
            .disks
            .pack_mut(parent_pack)
            .map_err(LegacyError::Disk)?
            .create_entry(uid.0)
        {
            Ok(toc) => DiskHome {
                pack: parent_pack,
                toc,
            },
            Err(_) => {
                let alt = self
                    .machine
                    .disks
                    .emptiest_pack(parent_pack)
                    .ok_or(LegacyError::AllPacksFull)?;
                let toc = self
                    .machine
                    .disks
                    .pack_mut(alt)
                    .map_err(LegacyError::Disk)?
                    .create_entry(uid.0)
                    .map_err(|_| LegacyError::AllPacksFull)?;
                DiskHome { pack: alt, toc }
            }
        };

        // Claim an entry slot: first unused, else extend.
        let mut reader = EntryReader::new(parent_astx);
        let count = reader.count(self)?;
        let slot = reader.first_unused(self, count)?;
        if slot == count {
            self.sup_write(parent_astx, 0, Word::new(u64::from(count + 1)))?;
        }
        let entry = EntryRecord {
            uid,
            is_dir,
            quota_dir: false,
            home,
            name: Name::new(name),
            acl,
            label,
            quota_limit: 0,
            quota_used: 0,
        };
        self.write_entry(parent_astx, slot, &entry)?;
        self.branch_table.insert(
            uid,
            Branch {
                parent: Some(parent),
                slot,
                is_dir,
            },
        );
        self.salvage_note_created(uid, home, is_dir);
        Ok(uid)
    }

    // ----- pathname resolution (buried in the kernel) ---------------------

    /// Resolves a `>`-separated tree name, entirely inside the kernel.
    ///
    /// Intermediate directories are traversed *without* access checks;
    /// only the final target's ACL (and AIM label) is consulted, and the
    /// only failure answer is [`LegacyError::NoAccess`] — which by design
    /// does not reveal whether the name exists.
    ///
    /// # Errors
    ///
    /// [`LegacyError::NoAccess`] uniformly for nonexistent or forbidden
    /// targets.
    pub fn resolve(
        &mut self,
        pid: ProcessId,
        path: &str,
        right: AccessRight,
    ) -> Result<(SegUid, EntryRecord), LegacyError> {
        self.scoped(Subsystem::DirectoryControl, |s| {
            s.resolve_body(pid, path, right)
        })
    }

    fn resolve_body(
        &mut self,
        pid: ProcessId,
        path: &str,
        right: AccessRight,
    ) -> Result<(SegUid, EntryRecord), LegacyError> {
        let (user, plabel) = {
            let p = self.process(pid)?;
            (p.user, p.label)
        };
        self.salvage_barrier_uid(self.root_uid)?;
        let mut dir_astx = self.activate(self.root_uid)?;
        let mut components = path.split('>').filter(|c| !c.is_empty()).peekable();
        if components.peek().is_none() {
            return Err(LegacyError::NoAccess);
        }
        loop {
            let comp = components.next().expect("peeked nonempty");
            let found = self.lookup(dir_astx, comp)?;
            let Some((_slot, entry)) = found else {
                return Err(LegacyError::NoAccess);
            };
            if components.peek().is_none() {
                // Final component: the one place access is checked.
                if !entry.acl.permits(user, right) {
                    return Err(LegacyError::NoAccess);
                }
                let kind = match right {
                    AccessRight::Write => AccessKind::Write,
                    _ => AccessKind::Read,
                };
                if !ReferenceMonitor::decide(plabel, entry.label, kind).granted() {
                    return Err(LegacyError::NoAccess);
                }
                if entry.is_dir {
                    self.salvage_barrier_uid(entry.uid)?;
                }
                return Ok((entry.uid, entry));
            }
            if !entry.is_dir {
                // Not a directory mid-path: still just "no access".
                return Err(LegacyError::NoAccess);
            }
            self.salvage_barrier_uid(entry.uid)?;
            dir_astx = self.activate(entry.uid)?;
        }
    }

    /// Makes a segment known to a process: resolves the path and records
    /// the effective access in the KST at the lowest free segment number.
    /// A segment the process knows already keeps its number and entry.
    /// The SDW is left faulted; first reference activates and connects.
    ///
    /// # Errors
    ///
    /// [`LegacyError::NoAccess`] per the resolution rules;
    /// [`LegacyError::KstFull`] when no segment number is free.
    pub fn initiate(&mut self, pid: ProcessId, path: &str) -> Result<u32, LegacyError> {
        self.scoped(Subsystem::DirectoryControl, |s| s.initiate_body(pid, path))
    }

    fn initiate_body(&mut self, pid: ProcessId, path: &str) -> Result<u32, LegacyError> {
        // Resolution for initiation needs *some* access to the target.
        let (user, plabel) = {
            let p = self.process(pid)?;
            (p.user, p.label)
        };
        let (uid, entry) = self
            .resolve(pid, path, AccessRight::Read)
            .or_else(|_| self.resolve(pid, path, AccessRight::Write))
            .or_else(|_| self.resolve(pid, path, AccessRight::Execute))?;
        // Effective access: ACL ∩ AIM.
        let aim_read = ReferenceMonitor::decide(plabel, entry.label, AccessKind::Read).granted();
        let aim_write = ReferenceMonitor::decide(plabel, entry.label, AccessKind::Write).granted();
        let kst_entry = KstEntry {
            uid,
            read: entry.acl.permits(user, AccessRight::Read) && aim_read,
            write: entry.acl.permits(user, AccessRight::Write) && aim_write,
            execute: entry.acl.permits(user, AccessRight::Execute) && aim_read,
        };
        let kst = &mut self.process_mut(pid)?.kst;
        kst.bind(kst_entry).ok_or(LegacyError::KstFull)
    }

    // ----- dynamic quota designation --------------------------------------

    /// Designates `path` as a quota directory with the given limit — at
    /// any time, children or not (the old semantics). Requires modify
    /// access to the directory. The current subtree usage is computed by
    /// sweeping the hierarchy and migrated from the superior quota cell.
    ///
    /// # Errors
    ///
    /// [`LegacyError::QuotaCellBusy`] if already a quota directory;
    /// [`LegacyError::NoAccess`] / paging errors otherwise.
    pub fn set_quota_directory(
        &mut self,
        pid: ProcessId,
        path: &str,
        limit: u32,
    ) -> Result<(), LegacyError> {
        self.scoped(Subsystem::DirectoryControl, |s| {
            s.set_quota_directory_body(pid, path, limit)
        })
    }

    fn set_quota_directory_body(
        &mut self,
        pid: ProcessId,
        path: &str,
        limit: u32,
    ) -> Result<(), LegacyError> {
        let (uid, entry) = self.resolve(pid, path, AccessRight::Write)?;
        if !entry.is_dir {
            return Err(LegacyError::NotADirectory);
        }
        if entry.quota_dir {
            return Err(LegacyError::QuotaCellBusy);
        }
        let astx = self.activate(uid)?;
        // The expensive part the paper's semantics change removes: sweep
        // the subtree for current usage.
        let used = self.subtree_usage(uid)?;
        if used > limit {
            return Err(LegacyError::QuotaExceeded { limit, used });
        }
        // Migrate the charge out of the superior cell.
        if let Some(parent) = self.ast.get(astx).expect("active").parent {
            let (qdir, _) = self.ast.nearest_quota_dir(parent).expect("root cell");
            let cell = self
                .ast
                .get_mut(qdir)
                .expect("qdir")
                .quota
                .as_mut()
                .expect("cell");
            cell.used = cell.used.saturating_sub(used);
        }
        self.ast.get_mut(astx).expect("active").quota = Some(crate::ast::QuotaCell { limit, used });
        // Persist the designation in the directory's own entry.
        let branch = self.branch_table[&uid];
        if let Some(parent_uid) = branch.parent {
            let parent_astx = self.activate(parent_uid)?;
            let mut e = self.read_entry(parent_astx, branch.slot)?;
            e.quota_dir = true;
            e.quota_limit = limit;
            e.quota_used = used;
            self.write_entry(parent_astx, branch.slot, &e)?;
        }
        Ok(())
    }

    /// Removes a quota designation, migrating the charge back to the
    /// superior cell (old semantics: allowed any time).
    ///
    /// # Errors
    ///
    /// [`LegacyError::QuotaCellBusy`] if the directory is not a quota
    /// directory.
    pub fn clear_quota_directory(&mut self, pid: ProcessId, path: &str) -> Result<(), LegacyError> {
        self.scoped(Subsystem::DirectoryControl, |s| {
            s.clear_quota_directory_body(pid, path)
        })
    }

    fn clear_quota_directory_body(
        &mut self,
        pid: ProcessId,
        path: &str,
    ) -> Result<(), LegacyError> {
        let (uid, entry) = self.resolve(pid, path, AccessRight::Write)?;
        if !entry.is_dir || !entry.quota_dir {
            return Err(LegacyError::QuotaCellBusy);
        }
        let astx = self.activate(uid)?;
        let cell = self
            .ast
            .get(astx)
            .expect("active")
            .quota
            .ok_or(LegacyError::QuotaCellBusy)?;
        self.ast.get_mut(astx).expect("active").quota = None;
        if let Some(parent) = self.ast.get(astx).expect("active").parent {
            let (qdir, _) = self.ast.nearest_quota_dir(parent).expect("root cell");
            let sup_cell = self
                .ast
                .get_mut(qdir)
                .expect("qdir")
                .quota
                .as_mut()
                .expect("cell");
            sup_cell.used += cell.used;
        }
        let branch = self.branch_table[&uid];
        if let Some(parent_uid) = branch.parent {
            let parent_astx = self.activate(parent_uid)?;
            let mut e = self.read_entry(parent_astx, branch.slot)?;
            e.quota_dir = false;
            e.quota_limit = 0;
            e.quota_used = 0;
            self.write_entry(parent_astx, branch.slot, &e)?;
        }
        Ok(())
    }

    /// Pages occupied by the subtree rooted at `uid`, excluding regions
    /// below inferior quota directories. Sweeps the branch table and
    /// reads directory entries (with real paging) — the cost the new
    /// design's childless-only rule avoids.
    pub(crate) fn subtree_usage(&mut self, root: SegUid) -> Result<u32, LegacyError> {
        // The sweep activates directories as it descends, which the
        // online salvager cannot tolerate on quarantined ones.
        self.salvage_barrier_uid(root)?;
        // The subtree root's own directory pages stay charged to the
        // superior cell ("the nearest *superior* quota directory"), so
        // only strictly inferior objects are counted.
        let mut total = 0u32;
        let children: Vec<SegUid> = self
            .branch_table
            .iter()
            .filter(|(_, b)| b.parent == Some(root))
            .map(|(u, _)| *u)
            .collect();
        for child in children {
            self.charge(QUOTA_SWEEP_INSTR_PER_OBJECT, Language::Pli);
            let branch = self.branch_table[&child];
            let parent_astx = self.activate(root)?;
            let entry = self.read_entry(parent_astx, branch.slot)?;
            if entry.is_dir {
                if entry.quota_dir {
                    // Below an inferior quota directory — but the
                    // inferior quota directory's own pages charge here.
                    total += self.object_records(child)?;
                    continue;
                }
                total += self.object_records(child)?;
                total += self.subtree_usage(child)?;
            } else {
                total += self.object_records(child)?;
            }
        }
        Ok(total)
    }

    /// Records currently occupied by one object (its chargeable pages).
    fn object_records(&mut self, uid: SegUid) -> Result<u32, LegacyError> {
        let home = if uid == self.root_uid {
            self.root_home
        } else {
            let branch = self
                .branch_table
                .get(&uid)
                .copied()
                .ok_or(LegacyError::NoAccess)?;
            let parent_astx = self.activate(branch.parent.expect("non-root"))?;
            self.read_entry(parent_astx, branch.slot)?.home
        };
        Ok(self
            .machine
            .disks
            .pack(home.pack)
            .ok()
            .and_then(|p| p.entry(home.toc).ok())
            .map(|e| e.records_used())
            .unwrap_or(0))
    }

    /// Deletes a leaf object (an empty directory or a segment): frees
    /// its records and charges, removes its entry, deactivates it.
    ///
    /// # Errors
    ///
    /// [`LegacyError::NoAccess`] if the path does not resolve with write
    /// access, or the directory is not empty.
    pub fn delete(&mut self, pid: ProcessId, path: &str) -> Result<(), LegacyError> {
        self.scoped(Subsystem::DirectoryControl, |s| s.delete_body(pid, path))
    }

    fn delete_body(&mut self, pid: ProcessId, path: &str) -> Result<(), LegacyError> {
        let (uid, entry) = self.resolve(pid, path, AccessRight::Write)?;
        if entry.is_dir {
            let has_children = self.branch_table.values().any(|b| b.parent == Some(uid));
            if has_children {
                return Err(LegacyError::NoAccess);
            }
        }
        // Deactivate (flushing pages is unnecessary: we drop them).
        if let Some(astx) = self.ast.find(uid) {
            if self.ast.get(astx).expect("found").inferiors > 0 {
                return Err(LegacyError::NoAccess);
            }
            let records = self.object_records(uid)?;
            if records > 0 {
                self.quota_uncharge(astx, records);
            }
            let mut at = None;
            while let Some((frame, pageno)) = self.frames.next_owned(astx as u32, at) {
                at = Some(frame);
                self.set_ptw(astx, pageno, Default::default());
                self.frames.release(frame);
            }
            let aste = self.ast.get(astx).expect("found").clone();
            for (cpid, segno) in aste.connections {
                if self
                    .processes
                    .get(cpid.0 as usize)
                    .and_then(|p| p.as_ref())
                    .is_some()
                {
                    self.set_sdw(cpid, segno, Default::default());
                }
            }
            self.ast.deactivate(astx);
        } else {
            // Not active: the object has no AST entry to anchor the
            // quota walk, so start it at the containing directory
            // *itself* — which may be the governing quota cell. Passing
            // the parent to `quota_uncharge` would skip it and uncharge
            // the next cell up (the cell then reads high forever, until
            // a spurious quota fault or a salvage).
            let records = self.object_records(uid)?;
            if records > 0 {
                let branch = self.branch_table[&uid];
                let parent_astx = self.activate(branch.parent.expect("non-root"))?;
                self.quota_uncharge_from(parent_astx, records);
            }
        }
        let branch = self.branch_table.remove(&uid).expect("resolved object");
        let parent_astx = self.activate(branch.parent.expect("non-root"))?;
        let home = self.read_entry(parent_astx, branch.slot)?.home;
        self.machine
            .disks
            .pack_mut(home.pack)
            .map_err(LegacyError::Disk)?
            .delete_entry(home.toc)
            .map_err(LegacyError::Disk)?;
        // Clear the in-use flag.
        self.sup_write(
            parent_astx,
            Self::entry_base(branch.slot) + FLAGS,
            Word::ZERO,
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::UserId;
    use mx_aim::{CompartmentSet, Level};
    use mx_hw::word::name_is;
    use mx_hw::{DiskError, PAGE_WORDS};
    use std::collections::{HashMap, HashSet};

    fn boot_with_user() -> (Supervisor, ProcessId, UserId) {
        let mut sup = Supervisor::boot_default();
        let user = UserId(1);
        let pid = sup.create_process(user, Label::BOTTOM).unwrap();
        (sup, pid, user)
    }

    #[test]
    fn name_codec_round_trip() {
        for name in ["a", "alpha.beta", "x".repeat(32).as_str()] {
            assert_eq!(unpack_name(&pack_name(name)), name);
            assert!(name_is(&pack_name(name), name));
        }
    }

    #[test]
    fn create_and_resolve_nested_path() {
        let (mut sup, pid, user) = boot_with_user();
        let a = sup
            .create_directory_in(sup.root(), "a", Acl::owner(user), Label::BOTTOM)
            .unwrap();
        let b = sup
            .create_directory_in(a, "b", Acl::owner(user), Label::BOTTOM)
            .unwrap();
        let leaf = sup
            .create_segment_in(b, "leaf", Acl::owner(user), Label::BOTTOM)
            .unwrap();
        let (uid, entry) = sup.resolve(pid, "a>b>leaf", AccessRight::Read).unwrap();
        assert_eq!(uid, leaf);
        assert!(!entry.is_dir);
        assert_eq!(entry.name, "leaf");
    }

    /// A path the process knows already keeps its segment number: more
    /// initiations than there are numbers never fill the table, and a
    /// second segment still takes the next number.
    #[test]
    fn initiating_a_known_path_returns_its_segment_number() {
        let (mut sup, pid, user) = boot_with_user();
        for name in ["s", "t"] {
            sup.create_segment_in(sup.root(), name, Acl::owner(user), Label::BOTTOM)
                .unwrap();
        }
        let first = sup.initiate(pid, "s").unwrap();
        for _ in 1..1_100 {
            assert_eq!(sup.initiate(pid, "s"), Ok(first));
        }
        assert_eq!(sup.initiate(pid, "t"), Ok(first + 1));
        sup.user_write(pid, first, 0, mx_hw::Word::new(7)).unwrap();
        assert_eq!(sup.user_read(pid, first, 0), Ok(mx_hw::Word::new(7)));
    }

    #[test]
    fn nonexistent_and_forbidden_answers_are_identical() {
        let (mut sup, pid, user) = boot_with_user();
        let a = sup
            .create_directory_in(sup.root(), "a", Acl::owner(user), Label::BOTTOM)
            .unwrap();
        // A file owned (and readable) only by user 9.
        sup.create_segment_in(a, "private", Acl::owner(UserId(9)), Label::BOTTOM)
            .unwrap();
        let forbidden = sup
            .resolve(pid, "a>private", AccessRight::Read)
            .unwrap_err();
        let missing = sup.resolve(pid, "a>ghost", AccessRight::Read).unwrap_err();
        assert_eq!(forbidden, missing, "the caller cannot tell the cases apart");
        assert_eq!(forbidden, LegacyError::NoAccess);
    }

    #[test]
    fn resolution_traverses_inaccessible_intermediate_directories() {
        let (mut sup, pid, user) = boot_with_user();
        // The intermediate dir is readable only by user 9, but the final
        // target grants our user: old Multics grants the access.
        let locked = sup
            .create_directory_in(sup.root(), "locked", Acl::owner(UserId(9)), Label::BOTTOM)
            .unwrap();
        sup.create_segment_in(locked, "mine", Acl::owner(user), Label::BOTTOM)
            .unwrap();
        assert!(sup.resolve(pid, "locked>mine", AccessRight::Read).is_ok());
    }

    #[test]
    fn duplicate_names_rejected() {
        let (mut sup, _pid, user) = boot_with_user();
        sup.create_segment_in(sup.root(), "x", Acl::owner(user), Label::BOTTOM)
            .unwrap();
        let err = sup
            .create_segment_in(sup.root(), "x", Acl::owner(user), Label::BOTTOM)
            .unwrap_err();
        assert_eq!(err, LegacyError::NameDuplicated);
    }

    /// Names longer than the codec's 32 characters, or holding NUL or
    /// non-ASCII bytes, used to be stored garbled: created twice, never
    /// found. They are refused before any durable work.
    #[test]
    fn names_the_entry_codec_cannot_store_are_refused() {
        let (mut sup, pid, user) = boot_with_user();
        let root = sup.root();
        let next_uid = sup.next_uid;
        for bad in ["x".repeat(33), "café".to_string(), "a\0b".to_string()] {
            let seg = sup.create_segment_in(root, &bad, Acl::owner(user), Label::BOTTOM);
            assert_eq!(seg, Err(LegacyError::BadName), "{bad:?}");
            let dir = sup.create_directory_in(root, &bad, Acl::owner(user), Label::BOTTOM);
            assert_eq!(dir, Err(LegacyError::BadName), "{bad:?}");
        }
        assert_eq!(sup.next_uid, next_uid, "no uid or TOC entry spent");
        let longest = "y".repeat(32);
        let uid = sup
            .create_segment_in(root, &longest, Acl::owner(user), Label::BOTTOM)
            .unwrap();
        assert_eq!(
            sup.resolve(pid, &longest, AccessRight::Read).unwrap().0,
            uid
        );
        assert_eq!(
            sup.create_segment_in(root, &longest, Acl::owner(user), Label::BOTTOM),
            Err(LegacyError::NameDuplicated)
        );
    }

    /// Labels beyond the codec's 3 level bits and 24 compartments used to
    /// be stored garbled: a system-low process resolving a (0, {30})
    /// segment for read saw label (0, {}). They are refused before any
    /// durable work. Level 7 and compartment 23 round-trip, and AIM
    /// decides on them as created.
    #[test]
    fn labels_the_entry_codec_cannot_store_are_refused() {
        let (mut sup, pid, user) = boot_with_user();
        let root = sup.root();
        let root_astx = sup.ast.find(root).unwrap();
        let listing = |sup: &mut Supervisor| {
            let mut reader = EntryReader::new(root_astx);
            let count = reader.count(sup).unwrap();
            let names = (0..count).filter_map(|slot| reader.entry(sup, slot).unwrap());
            names.map(|e| e.name).collect::<Vec<_>>()
        };
        let listed = listing(&mut sup);
        let next_uid = sup.next_uid;
        let label = |level, c: &[u32]| {
            let set = c.iter().fold(CompartmentSet::empty(), |s, &c| s.with(c));
            Label::new(Level(level), set)
        };
        for bad in [
            label(0, &[30]),
            label(9, &[]),
            label(8, &[23]),
            label(7, &[24]),
        ] {
            let seg = sup.create_segment_in(root, "x", Acl::owner(user), bad);
            assert_eq!(seg, Err(LegacyError::BadLabel), "{bad}");
            let dir = sup.create_directory_in(root, "x", Acl::owner(user), bad);
            assert_eq!(dir, Err(LegacyError::BadLabel), "{bad}");
        }
        assert_eq!(listing(&mut sup), listed);
        assert_eq!(sup.next_uid, next_uid, "no uid or TOC entry spent");
        assert_eq!(
            sup.resolve(pid, "x", AccessRight::Read),
            Err(LegacyError::NoAccess)
        );
        let top = label(7, &[23]);
        let uid = sup
            .create_segment_in(root, "top", Acl::owner(user), top)
            .unwrap();
        let reader = sup.create_process(user, top).unwrap();
        let (found, entry) = sup.resolve(reader, "top", AccessRight::Read).unwrap();
        assert_eq!((found, entry.label), (uid, top));
        assert!(sup.resolve(reader, "top", AccessRight::Write).is_ok());
        // Without level 7 or compartment 23, a reader is refused.
        for below in [label(6, &[23]), label(7, &[])] {
            let p = sup.create_process(user, below).unwrap();
            let read = sup.resolve(p, "top", AccessRight::Read);
            assert_eq!(read, Err(LegacyError::NoAccess), "{below}");
        }
    }

    /// ACLs beyond the codec's four terms and user ids 0–255 used to be
    /// stored garbled: owner 300 came back as owner 44, so user 300 was
    /// refused and user 44 could initiate and write the segment, and a
    /// fifth term was dropped. They are refused before any durable work.
    /// Four terms and user 255 round-trip, and decide access as created.
    #[test]
    fn acls_the_entry_codec_cannot_store_are_refused() {
        let (mut sup, pid, user) = boot_with_user();
        let root = sup.root();
        let root_astx = sup.ast.find(root).unwrap();
        let listing = |sup: &mut Supervisor| {
            let mut reader = EntryReader::new(root_astx);
            let count = reader.count(sup).unwrap();
            let names = (0..count).filter_map(|slot| reader.entry(sup, slot).unwrap());
            names.map(|e| e.name).collect::<Vec<_>>()
        };
        let listed = listing(&mut sup);
        let next_uid = sup.next_uid;
        let readers = |acl: &mut Acl, users: &[u32]| {
            for &u in users {
                acl.grant(UserId(u), &[AccessRight::Read]);
            }
        };
        let mut five = Acl::owner(user);
        readers(&mut five, &[2, 3, 4, 5]);
        for bad in [Acl::owner(UserId(256)), Acl::owner(UserId(300)), five] {
            let seg = sup.create_segment_in(root, "x", bad.clone(), Label::BOTTOM);
            assert_eq!(seg, Err(LegacyError::BadAcl), "{bad:?}");
            let dir = sup.create_directory_in(root, "x", bad.clone(), Label::BOTTOM);
            assert_eq!(dir, Err(LegacyError::BadAcl), "{bad:?}");
        }
        assert_eq!(listing(&mut sup), listed);
        assert_eq!(sup.next_uid, next_uid, "no uid or TOC entry spent");
        let mut four = Acl::owner(UserId(255));
        readers(&mut four, &[2, 3, 4]);
        let uid = sup
            .create_segment_in(root, "edge", four.clone(), Label::BOTTOM)
            .unwrap();
        let owner = sup.create_process(UserId(255), Label::BOTTOM).unwrap();
        let (found, entry) = sup.resolve(owner, "edge", AccessRight::Write).unwrap();
        assert_eq!((found, entry.acl), (uid, four));
        let reader = sup.create_process(UserId(4), Label::BOTTOM).unwrap();
        assert!(sup.resolve(reader, "edge", AccessRight::Read).is_ok());
        let write = sup.resolve(reader, "edge", AccessRight::Write);
        assert_eq!(write, Err(LegacyError::NoAccess));
        // The creator is not on the list.
        let read = sup.resolve(pid, "edge", AccessRight::Read);
        assert_eq!(read, Err(LegacyError::NoAccess));
    }

    #[test]
    fn aim_label_denies_read_up_through_resolution() {
        let (mut sup, pid, user) = boot_with_user();
        let secret = Label::new(Level(2), CompartmentSet::empty());
        sup.create_segment_in(sup.root(), "secret", Acl::owner(user), secret)
            .unwrap();
        // ACL would allow, AIM forbids: still just "no access".
        let err = sup.resolve(pid, "secret", AccessRight::Read).unwrap_err();
        assert_eq!(err, LegacyError::NoAccess);
    }

    #[test]
    fn dynamic_quota_designation_migrates_charges() {
        let (mut sup, pid, user) = boot_with_user();
        let dir = sup
            .create_directory_in(sup.root(), "q", Acl::owner(user), Label::BOTTOM)
            .unwrap();
        let astx = sup.activate(dir).unwrap();
        // Put two nonzero pages into a child segment.
        let seg = sup
            .create_segment_in(dir, "data", Acl::owner(user), Label::BOTTOM)
            .unwrap();
        let seg_astx = sup.activate(seg).unwrap();
        sup.sup_write(seg_astx, 0, Word::new(1)).unwrap();
        sup.sup_write(seg_astx, mx_hw::PAGE_WORDS as u32, Word::new(2))
            .unwrap();
        let root_astx = sup.ast.find(sup.root()).unwrap();
        let root_used_before = sup.ast.get(root_astx).unwrap().quota.unwrap().used;

        sup.set_quota_directory(pid, "q", 50).unwrap();
        let cell = sup.ast.get(astx).unwrap().quota.unwrap();
        // q's own directory page stays charged above; the two data
        // pages migrate into the new cell.
        assert_eq!(cell.used, 2, "2 data pages migrated, got {}", cell.used);
        let root_used_after = sup.ast.get(root_astx).unwrap().quota.unwrap().used;
        assert_eq!(
            root_used_before - root_used_after,
            cell.used,
            "charge moved, not copied"
        );

        // New growth under q charges q's cell, not the root's.
        sup.sup_write(seg_astx, 2 * mx_hw::PAGE_WORDS as u32, Word::new(3))
            .unwrap();
        assert_eq!(
            sup.ast.get(astx).unwrap().quota.unwrap().used,
            cell.used + 1
        );
        assert_eq!(
            sup.ast.get(root_astx).unwrap().quota.unwrap().used,
            root_used_after
        );

        // And the inverse operation migrates the charge back.
        sup.clear_quota_directory(pid, "q").unwrap();
        assert_eq!(
            sup.ast.get(root_astx).unwrap().quota.unwrap().used,
            root_used_before + 1
        );
    }

    #[test]
    fn deleting_inactive_segment_uncharges_its_own_quota_cell() {
        // Surfaced by the C1 chaos composition: after a recovery
        // bootload nothing is active, so deleting a surviving file took
        // `delete`'s inactive path — which anchored the quota walk at
        // the file's parent and therefore uncharged the cell *above*
        // the governing quota directory. The quota directory's cell
        // read high forever and the next growth under it spuriously
        // faulted on quota.
        let (mut sup, pid, user) = boot_with_user();
        sup.create_directory_in(sup.root(), "q", Acl::owner(user), Label::BOTTOM)
            .unwrap();
        sup.set_quota_directory(pid, "q", 3).unwrap();
        let (q_uid, _) = sup.resolve(pid, "q", AccessRight::Read).unwrap();
        let seg = sup
            .create_segment_in(q_uid, "data", Acl::owner(user), Label::BOTTOM)
            .unwrap();
        let seg_astx = sup.activate(seg).unwrap();
        sup.sup_write(seg_astx, 0, Word::new(5)).unwrap();
        sup.sync_to_disk().unwrap();

        // A fresh boot from the image: the file exists on disk but has
        // no AST entry, exactly the post-recovery state.
        let crashed = sup.machine;
        let mut rs =
            Supervisor::boot_from_image(crate::SupervisorConfig::default(), crashed).unwrap();
        let pid = rs.create_process(user, Label::BOTTOM).unwrap();
        let root_astx = rs.ast.find(rs.root()).unwrap();
        let root_before = rs.ast.get(root_astx).unwrap().quota.unwrap().used;
        let used = rs
            .resolve(pid, "q", AccessRight::Read)
            .unwrap()
            .1
            .quota_used;
        assert_eq!(used, 1, "the data page is charged to q's cell");

        rs.delete(pid, "q>data").unwrap();

        let q_uid = rs.resolve(pid, "q", AccessRight::Read).unwrap().0;
        let q_astx = rs.ast.find(q_uid).expect("q activated by the delete");
        let q_used = rs.ast.get(q_astx).unwrap().quota.unwrap().used;
        assert_eq!(q_used, 0, "q's own cell was uncharged");
        let root_after = rs.ast.get(root_astx).unwrap().quota.unwrap().used;
        assert_eq!(root_after, root_before, "the root cell was left alone");
    }

    #[test]
    fn delete_frees_records_and_uncharges() {
        let (mut sup, pid, user) = boot_with_user();
        let seg = sup
            .create_segment_in(sup.root(), "tmp", Acl::owner(user), Label::BOTTOM)
            .unwrap();
        let astx = sup.activate(seg).unwrap();
        sup.sup_write(astx, 0, Word::new(5)).unwrap();
        sup.flush_segment(astx).unwrap();
        let root_astx = sup.ast.find(sup.root()).unwrap();
        let before = sup.ast.get(root_astx).unwrap().quota.unwrap().used;
        sup.delete(pid, "tmp").unwrap();
        let after = sup.ast.get(root_astx).unwrap().quota.unwrap().used;
        assert_eq!(before - after, 1);
        assert_eq!(
            sup.resolve(pid, "tmp", AccessRight::Read).unwrap_err(),
            LegacyError::NoAccess
        );
    }

    use crate::supervisor::SupervisorConfig;
    use mx_hw::SplitMix64;

    const USER: UserId = UserId(1);

    fn boot(frames: usize) -> (Supervisor, ProcessId) {
        let mut sup = Supervisor::boot(SupervisorConfig {
            frames,
            pt_slots: 16,
            max_processes: 4,
            toc_slots_per_pack: 512,
            root_quota: 400,
            ..SupervisorConfig::default()
        });
        let pid = sup.create_process(USER, Label::BOTTOM).unwrap();
        (sup, pid)
    }

    /// Two supervisors booted alike: `cursor` reads directories through
    /// the entry reader, `per_word` through [`Supervisor::sup_read`].
    struct Twin {
        cursor: Supervisor,
        per_word: Supervisor,
        pid: ProcessId,
    }

    impl Twin {
        fn new(frames: usize) -> Self {
            let (cursor, pid) = boot(frames);
            let (per_word, _) = boot(frames);
            Self {
                cursor,
                per_word,
                pid,
            }
        }

        /// Runs `op` on both supervisors; its result and everything
        /// simulated a directory read can touch must agree.
        fn step<T: PartialEq + std::fmt::Debug>(
            &mut self,
            at: &str,
            op: impl Fn(&mut Supervisor, ProcessId) -> T,
        ) -> T {
            let pid = self.pid;
            let out = op(&mut self.cursor, pid);
            let per_word = reference::per_word_during(|| op(&mut self.per_word, pid));
            assert_eq!(out, per_word, "result of {at}");
            let (a, b) = (&self.cursor.machine, &self.per_word.machine);
            assert_eq!(a.clock.snapshot(), b.clock.snapshot(), "clock after {at}");
            assert_eq!(
                a.clock.meter_snapshot(),
                b.clock.meter_snapshot(),
                "meter after {at}"
            );
            assert_eq!(
                a.clock.edge_snapshot(),
                b.clock.edge_snapshot(),
                "edges after {at}"
            );
            assert_eq!(a.tlb_stats(), b.tlb_stats(), "TLB after {at}");
            assert!(a.mem == b.mem, "core image after {at}");
            out
        }

        /// Creates segment `name` in `dir`; its slot.
        fn create(&mut self, at: &str, dir: SegUid, name: &str) -> Result<u32, LegacyError> {
            let made = self.step(at, |s, _| {
                s.create_segment_in(dir, name, Acl::owner(USER), Label::BOTTOM)
            });
            made.map(|uid| self.cursor.branch_table[&uid].slot)
        }

        /// Slots ever used in directory `dir` (its entry count).
        fn slots(&self, dir: SegUid) -> u32 {
            self.cursor
                .branch_table
                .values()
                .filter(|b| b.parent == Some(dir))
                .map(|b| b.slot + 1)
                .max()
                .unwrap_or(0)
        }
    }

    fn page(wordno: u32) -> u32 {
        wordno / PAGE_WORDS as u32
    }

    /// The page of slot `slot`'s words, if they lie on one: the codec
    /// reads all of them.
    fn one_page(slot: u32) -> Option<u32> {
        let base = Supervisor::entry_base(slot);
        (page(base) == page(base + ENTRY_WORDS - 1)).then_some(page(base))
    }

    /// True if `find` reads `slot` in a run: its words lie on the page of
    /// the last word the walk read, the count word before slot 0, else
    /// the slot before's last word if in use, or its flags word.
    fn in_find_run(slot: u32, in_use: &HashSet<u32>) -> bool {
        let last_read = match slot.checked_sub(1) {
            None => 0,
            Some(s) if in_use.contains(&s) => Supervisor::entry_base(s) + ENTRY_WORDS - 1,
            Some(s) => Supervisor::entry_base(s) + FLAGS,
        };
        one_page(slot) == Some(page(last_read))
    }

    /// The page of slot `slot`'s flags word.
    fn flags_page(slot: u32) -> u32 {
        page(Supervisor::entry_base(slot) + FLAGS)
    }

    /// True if `first_unused` reads `slot`'s flags word in a run: it lies
    /// on the page of the flags word before it (of the count word, for
    /// slot 0).
    fn in_unused_run(slot: u32) -> bool {
        slot == 0 || flags_page(slot - 1) == flags_page(slot)
    }

    /// The walk's cases the churn reached, told from the entry layout
    /// and the slots in use before each step.
    #[derive(Debug, Default)]
    struct Walked {
        /// Matches on a slot read in place: its words lie on the page
        /// of the flags word before it.
        in_place: usize,
        /// Matches on a slot whose words cross a page boundary.
        straddling: usize,
        /// Misses that walked three pages or more.
        long_misses: usize,
        /// Slots `first_unused` found unused past page 0.
        unused_past_page_0: usize,
        /// Matches on a run's first slot, and on the last slot of a
        /// page's run.
        run_first_matches: usize,
        run_last_matches: usize,
        /// Misses whose last run the count cut mid-page, and misses whose
        /// count ends at the last slot of a page's run.
        cut_by_count: usize,
        count_at_page_end: usize,
        /// `first_unused` answers at a run's first position and at the
        /// last flags word of a page's run.
        unused_run_first: usize,
        unused_run_last: usize,
    }

    impl Walked {
        fn matched(&mut self, slot: u32, in_use: &HashSet<u32>) {
            let base = Supervisor::entry_base(slot);
            if one_page(slot).is_none() {
                self.straddling += 1;
            } else if slot == 0 || page(Supervisor::entry_base(slot - 1) + 1) == page(base) {
                self.in_place += 1;
            }
            if in_find_run(slot, in_use) {
                let first = slot == 0 || !in_find_run(slot - 1, in_use);
                self.run_first_matches += usize::from(first);
                self.run_last_matches += usize::from(one_page(slot + 1) != one_page(slot));
            }
        }

        fn missed(&mut self, count: u32, in_use: &HashSet<u32>) {
            if count > 0 && in_find_run(count - 1, in_use) {
                if one_page(count) == one_page(count - 1) {
                    self.cut_by_count += 1;
                } else {
                    self.count_at_page_end += 1;
                }
            }
        }

        fn claimed(&mut self, slot: u32, count: u32) {
            if slot == count {
                return;
            }
            self.unused_past_page_0 += usize::from(flags_page(slot) > 0);
            if in_unused_run(slot) {
                let first = slot == 0 || !in_unused_run(slot - 1);
                self.unused_run_first += usize::from(first);
                self.unused_run_last += usize::from(flags_page(slot + 1) != flags_page(slot));
            }
        }
    }

    /// Seeded churn on tight frames. Every create, delete and lookup
    /// reads the directory through the entry reader on one supervisor
    /// and, on its twin, through the loop the walk replaced: each slot's
    /// PL/I block charged before its first word, every word through
    /// `sup_read`. After every step the results, clocks, meters, edges,
    /// TLB tallies and core images must be identical. The churn is
    /// checked to reach entries that straddle a page (slot 63, 127, 191),
    /// unused slots, scans whose next-page fault evicts a page they just
    /// left, first touches whose setfaults flush drops a live user
    /// translation, and each case of the walk: a miss over three pages
    /// or more, a match read in place, a match on a straddling entry,
    /// and an unused slot found past page 0. Every seventh step that is a
    /// miss searches with the directory's pack offline, so a walk whose
    /// page touch must read the disk fails mid-walk. Aimed steps after the
    /// churn reach each edge of a run: a match at a run's first slot and
    /// at its last, `first_unused` answering at a run's first position
    /// and at its last, and a count that ends at the last slot of a
    /// page's run; misses whose run the count cuts mid-page come from the
    /// churn.
    #[test]
    fn entry_reader_matches_the_per_word_reference_under_churn() {
        let mut t = Twin::new(17);
        let root = t.cursor.root();
        let d = t
            .step("mkdir", |s, _| {
                s.create_directory_in(root, "d", Acl::owner(USER), Label::BOTTOM)
            })
            .unwrap();
        // Data pages that compete with the directory's for the frames,
        // and the directory itself made known, so user references cache
        // its page descriptors.
        let (ballast, dseg) = t
            .step("initiate", |s, pid| {
                s.create_segment_in(root, "b", Acl::owner(USER), Label::BOTTOM)?;
                Ok::<_, LegacyError>((s.initiate(pid, "b")?, s.initiate(pid, "d")?))
            })
            .unwrap();
        let pack = t.cursor.machine.disks.packs();
        let pack = pack.filter(|p| p.entries().any(|(_, e)| e.uid == d.0));
        let pack = pack.map(|p| p.id).next().expect("d's home");
        let mut rng = SplitMix64::new(1977);
        let (mut deleted, mut reused, mut left_page_evicted, mut widest, mut dropped) =
            (0, 0, 0, 0, 0);
        let mut failed = 0;
        let mut walked = Walked::default();
        let mut live = HashMap::new();
        // The count word: slots ever used.
        let mut count = 0;
        for i in 0..1500 {
            let name = format!("n{}", rng.below(640));
            let at = format!("step {i} ({name})");
            let in_use: HashSet<u32> = live.values().copied().collect();
            match rng.below(10) {
                0..=5 => {
                    match t.create(&at, d, &name) {
                        Ok(slot) => {
                            walked.missed(count, &in_use);
                            walked.claimed(slot, count);
                            reused += usize::from(slot < count);
                            count = count.max(slot + 1);
                            live.insert(name.clone(), slot);
                        }
                        Err(LegacyError::NameDuplicated) => walked.matched(live[&name], &in_use),
                        Err(e) => panic!("{at}: {e}"),
                    }
                    let page = rng.below(12) as u32;
                    t.step(&at, |s, pid| {
                        s.user_write(pid, ballast, page * PAGE_WORDS as u32, Word::new(1))
                    })
                    .unwrap();
                }
                6 => {
                    let path = format!("d>{name}");
                    if t.step(&at, |s, pid| s.delete(pid, &path)).is_ok() {
                        deleted += 1;
                        walked.matched(live.remove(&name).expect("a live name"), &in_use);
                    }
                }
                7..=8 => {
                    // Cache a user translation through one of the
                    // directory's page descriptors, then scan: a miss
                    // reads every slot, so every page of `d`.
                    let pages = Supervisor::entry_base(t.slots(d)).div_ceil(PAGE_WORDS as u32);
                    let page = rng.below(u64::from(pages)) as u32;
                    t.step(&at, |s, pid| {
                        s.user_read(pid, dseg, page * PAGE_WORDS as u32)
                    })
                    .unwrap();
                    let before = t.cursor.machine.tlb_stats().invalidations;
                    let path = format!("d>x{name}");
                    let offline = i % 7 == 0;
                    let found = t.step(&at, |s, pid| {
                        s.machine.faults.set_offline(pack, offline);
                        let found = s.resolve(pid, &path, AccessRight::Read);
                        s.machine.faults.set_offline(pack, false);
                        found
                    });
                    if offline && found == Err(LegacyError::Disk(DiskError::PackOffline { pack })) {
                        failed += 1;
                        continue;
                    }
                    assert_eq!(found, Err(LegacyError::NoAccess));
                    walked.missed(count, &in_use);
                    dropped += usize::from(t.cursor.machine.tlb_stats().invalidations > before);
                    widest = widest.max(t.slots(d));
                    walked.long_misses += usize::from(pages >= 3);
                    let astx = t.cursor.ast.find(d).expect("active");
                    let resident = (0..pages).filter(|&p| t.cursor.ptw(astx, p).present);
                    left_page_evicted += usize::from(resident.count() < pages as usize);
                }
                _ => {
                    let path = format!("d>{name}");
                    let found = t.step(&at, |s, pid| {
                        s.resolve(pid, &path, AccessRight::Read).map(|r| r.0)
                    });
                    if found.is_ok() {
                        walked.matched(live[&name], &in_use);
                    }
                }
            }
        }
        // Aimed steps at the edges of every run in the slots churned:
        // with every slot in use, a duplicate create matches each run's
        // first and last slot; deleting one slot and creating again has
        // `first_unused` answer at it.
        let mut fresh = (0..).map(|i| format!("f{i}"));
        while live.len() < count as usize {
            let name = fresh.next().unwrap();
            let slot = t.create(&name, d, &name).unwrap();
            live.insert(name, slot);
        }
        let mut all: HashSet<u32> = (0..count).collect();
        let mut named: HashMap<u32, String> = live.into_iter().map(|(n, s)| (s, n)).collect();
        for slot in 0..count {
            let at = format!("aimed at slot {slot}");
            let first = |run: &dyn Fn(u32) -> bool| run(slot) && (slot == 0 || !run(slot - 1));
            let in_run = |s| in_find_run(s, &all);
            if first(&in_run) || in_run(slot) && one_page(slot + 1) != one_page(slot) {
                let made = t.create(&at, d, &named[&slot]);
                assert_eq!(made, Err(LegacyError::NameDuplicated), "{at}");
                walked.matched(slot, &all);
            }
            let flags_edge = flags_page(slot + 1) != flags_page(slot);
            if first(&in_unused_run) || in_unused_run(slot) && flags_edge {
                let path = format!("d>{}", named[&slot]);
                let gone = t.step(&at, |s, pid| s.delete(pid, &path));
                assert_eq!(gone, Ok(()), "{at}");
                walked.matched(slot, &all);
                all.remove(&slot);
                let name = fresh.next().unwrap();
                assert_eq!(t.create(&at, d, &name), Ok(slot), "{at}");
                walked.missed(count, &all);
                walked.claimed(slot, count);
                all.insert(slot);
                named.insert(slot, name);
            }
        }
        // Grow the directory until its count ends at the last slot of a
        // page's run, and miss.
        while !(in_find_run(count - 1, &all) && one_page(count) != one_page(count - 1)) {
            let name = fresh.next().unwrap();
            assert_eq!(t.create(&name, d, &name), Ok(count));
            all.insert(count);
            count += 1;
        }
        let found = t.step("miss at a page's end", |s, pid| {
            s.resolve(pid, "d>x", AccessRight::Read)
        });
        assert_eq!(found, Err(LegacyError::NoAccess));
        walked.missed(count, &all);
        assert!(
            widest > 191,
            "scans reached the third straddling entry ({widest} slots)"
        );
        assert!(
            deleted > 20 && reused > 5,
            "unused slots scanned and reclaimed"
        );
        assert!(left_page_evicted > 0, "a scan evicted a page it had left");
        assert!(dropped > 0, "a first touch dropped a live user translation");
        assert!(failed > 8, "walks failed mid-walk ({failed})");
        assert!(
            walked.long_misses > 20
                && walked.in_place > 100
                && walked.straddling >= 3
                && walked.unused_past_page_0 > 5
                && walked.run_first_matches >= 10
                && walked.run_last_matches >= 10
                && walked.cut_by_count > 100
                && walked.count_at_page_end >= 6
                && walked.unused_run_first >= 4
                && walked.unused_run_last >= 4,
            "every case of the walk reached: {walked:?}"
        );
    }
}
