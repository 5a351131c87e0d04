//! The Directory Manager.
//!
//! Directories are segments holding fixed-size entry records; every
//! operation here reads and writes them *through the segment manager*,
//! so directory work really pages, really grows, and really charges
//! quota cells.
//!
//! Three of the paper's designs live here:
//!
//! * **The single-directory search primitive with mythical
//!   identifiers** (Bratt, 1975). The kernel does not follow tree names;
//!   it searches one designated directory for one presented name. If the
//!   caller can read the directory, the answer is honest. If not — or if
//!   the "directory" never existed — the primitive *always returns a
//!   matching identifier*, mythical if necessary, indistinguishable from
//!   a real one; only an attempt to *use* the final identifier yields
//!   the uniform "no access". Tree-name expansion itself lives outside
//!   the kernel, in `mx-user`.
//!
//! * **Childless-only quota designation.** A directory may become (or
//!   stop being) a quota directory only while it has no children, so
//!   every object's controlling quota cell is fixed at creation — the
//!   static binding the whole quota design rests on.
//!
//! * **The moved-segment signal consumer.** When the upward signal
//!   arrives (via the gatekeeper), the manager rewrites the directory
//!   entry of the moved segment with its new pack and TOC index.

use crate::disk_record::DiskRecordManager;
use crate::error::KernelError;
use crate::known_segment::{KnownSegmentManager, KstEntry};
use crate::page_frame::PageFrameManager;
use crate::quota_cell::QuotaCellManager;
use crate::segment::SegmentManager;
use crate::types::{AccessRight, Acl, DiskHome, ObjToken, ProcessId, SegUid, UserId};
use crate::vproc::VirtualProcessorManager;
use mx_aim::{AccessKind, FlowTracker, Label, ReferenceMonitor};
use mx_hw::entries::{name_words, EntryReader, EntryStore};
use mx_hw::word::{name_fits, pack_name, unpack_name, Name, NameKey};
use mx_hw::{AbsAddr, IdMap, Machine, PackId, TocIndex, Word};
use std::collections::HashMap;

/// Words per directory entry record.
pub const ENTRY_WORDS: u32 = 20;

/// The lower managers a directory operation runs against — everything
/// below the directory manager in the lattice, bundled for signatures.
pub struct FsCtx<'a> {
    /// The machine.
    pub machine: &'a mut Machine,
    /// Disk-record manager.
    pub drm: &'a mut DiskRecordManager,
    /// Quota-cell manager.
    pub qcm: &'a mut QuotaCellManager,
    /// Page-frame manager.
    pub pfm: &'a mut PageFrameManager,
    /// Virtual-processor manager (eventcounts for page service).
    pub vpm: &'a mut VirtualProcessorManager,
    /// Segment manager.
    pub segm: &'a mut SegmentManager,
    /// Information-flow tracker.
    pub flows: &'a mut FlowTracker,
    /// The AIM reference monitor: every mandatory-access decision made
    /// during directory operations is recorded in its audit log.
    pub monitor: &'a mut ReferenceMonitor,
}

/// A decoded directory entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryRecord {
    /// The named object's uid.
    pub uid: SegUid,
    /// Directory?
    pub is_dir: bool,
    /// Quota directory?
    pub quota_dir: bool,
    /// Disk home.
    pub home: DiskHome,
    /// Entry name.
    pub name: Name,
    /// Discretionary ACL.
    pub acl: Acl,
    /// AIM label.
    pub label: Label,
    /// Quota limit (quota directories; informational — the live value
    /// is the cell's).
    pub quota_limit: u32,
    /// Controlling quota cell of the object's own pages.
    pub own_cell: SegUid,
}

#[derive(Debug, Clone, Copy)]
struct BranchInfo {
    parent: Option<SegUid>,
    slot: u32,
    is_dir: bool,
    children: u32,
    /// Cell charged for this object's own pages (fixed at creation).
    own_cell: SegUid,
    /// Cell new children will be bound to (own uid if quota directory).
    child_cell: SegUid,
    quota_dir: bool,
    home: DiskHome,
    label: Label,
}

/// Experiment counters for the search primitive.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirStats {
    /// Search-primitive invocations.
    pub searches: u64,
    /// Mythical identifiers issued.
    pub mythical_issued: u64,
    /// Moved-segment signals consumed.
    pub moves_recorded: u64,
}

/// The directory object manager.
#[derive(Debug)]
pub struct DirectoryManager {
    branch: IdMap<SegUid, BranchInfo>,
    real_tokens: HashMap<u64, SegUid>,
    token_of: IdMap<SegUid, u64>,
    secret: u64,
    root: SegUid,
    next_uid: u64,
    /// Counters.
    pub stats: DirStats,
}

fn mix(mut x: u64) -> u64 {
    // SplitMix64 finalizer: deterministic, well distributed.
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn name_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The kernel's directories as the entry reader reads them: its entry
/// layout and the segment manager's full word path.
impl EntryStore for FsCtx<'_> {
    type Dir = SegUid;
    type Error = KernelError;
    type Entry = EntryRecord;
    type Words = [Word; ENTRY_WORDS as usize];
    const ENTRY_WORDS: u32 = ENTRY_WORDS;
    /// Words 0, 2–14 and 16.
    const RECORD: u64 = 1 | 0x1fff << 2 | 1 << 16;
    /// What `scan` spends on each slot it passes.
    const SLOT_INSTR: u64 = 14;

    #[inline]
    fn machine(&mut self) -> &mut Machine {
        self.machine
    }

    fn touch(&mut self, dir: SegUid, wordno: u32) -> Result<AbsAddr, KernelError> {
        let (c, subject) = (self, Label::BOTTOM);
        c.segm.touch_word(
            c.machine, c.drm, c.qcm, c.pfm, c.vpm, c.flows, dir, wordno, subject, false,
        )
    }

    fn decode(words: &[Word]) -> EntryRecord {
        let w = |i: usize| words[i].raw();
        let flags = w(1);
        EntryRecord {
            uid: SegUid(w(0)),
            is_dir: flags & 2 != 0,
            quota_dir: flags & 4 != 0,
            home: DiskHome {
                pack: PackId(w(2) as u32),
                toc: TocIndex(w(3) as u32),
            },
            name: unpack_name(name_words(words)),
            acl: Acl::unpack(w(12), w(13)),
            label: Label::from_stored(flags >> 3),
            quota_limit: w(14) as u32,
            own_cell: SegUid(w(16)),
        }
    }

    #[cfg(test)]
    fn reference(&self) -> bool {
        reference::per_word()
    }
}

/// Selects the per-slot, per-word loop the entry reader replaced, kept
/// as the reference the tests compare it against.
#[cfg(test)]
mod reference {
    use std::cell::Cell;

    thread_local! {
        static PER_WORD: Cell<bool> = const { Cell::new(false) };
    }

    pub(super) fn per_word() -> bool {
        PER_WORD.get()
    }

    /// Runs `f` with every directory word read through the full
    /// per-word path, and `scan` charging each slot's PL/I block before
    /// the slot's first word.
    pub(super) fn per_word_during<T>(f: impl FnOnce() -> T) -> T {
        PER_WORD.set(true);
        let out = f();
        PER_WORD.set(false);
        out
    }
}

impl DirectoryManager {
    /// Creates the manager and the root directory (a quota directory
    /// with `root_quota` pages, public access, system-low label).
    ///
    /// # Errors
    ///
    /// Disk or table errors from below.
    pub fn new(ctx: &mut FsCtx<'_>, seed: u64, root_quota: u32) -> Result<Self, KernelError> {
        let root = SegUid(1);
        let toc = ctx.drm.create_entry(ctx.machine, PackId(0), root.0)?;
        let home = DiskHome {
            pack: PackId(0),
            toc,
        };
        ctx.qcm
            .create_cell(ctx.machine, ctx.drm, root, home, root_quota, Label::BOTTOM)?;
        let mut dm = Self {
            branch: IdMap::default(),
            real_tokens: HashMap::new(),
            token_of: IdMap::default(),
            secret: mix(seed ^ 0x006d_756c_7469_6373),
            root,
            next_uid: 2,
            stats: DirStats::default(),
        };
        dm.branch.insert(
            root,
            BranchInfo {
                parent: None,
                slot: 0,
                is_dir: true,
                children: 0,
                own_cell: root,
                child_cell: root,
                quota_dir: true,
                home,
                label: Label::BOTTOM,
            },
        );
        ctx.segm.activate(
            ctx.machine,
            ctx.drm,
            ctx.qcm,
            ctx.pfm,
            root,
            home,
            root,
            true,
            Label::BOTTOM,
        )?;
        ctx.segm.write_word(
            ctx.machine,
            ctx.drm,
            ctx.qcm,
            ctx.pfm,
            ctx.vpm,
            ctx.flows,
            root,
            0,
            Word::ZERO,
            Label::BOTTOM,
        )?;
        Ok(dm)
    }

    /// Rebuilds the manager from a surviving disk image — the recovery
    /// bootload path. `root_home` names the root directory's TOC entry
    /// (found by scanning pack 0 for uid 1). The branch cache is rebuilt
    /// by walking the directory segments themselves; entries whose TOC
    /// home is missing or mismatched are left uncatalogued for the
    /// salvager to report and repair.
    ///
    /// # Errors
    ///
    /// Disk or table errors reading the hierarchy.
    pub fn recover(
        ctx: &mut FsCtx<'_>,
        seed: u64,
        root_home: DiskHome,
    ) -> Result<Self, KernelError> {
        let root = SegUid(1);
        let mut dm = Self {
            branch: IdMap::default(),
            real_tokens: HashMap::new(),
            token_of: IdMap::default(),
            secret: mix(seed ^ 0x006d_756c_7469_6373),
            root,
            next_uid: 2,
            stats: DirStats::default(),
        };
        dm.branch.insert(
            root,
            BranchInfo {
                parent: None,
                slot: 0,
                is_dir: true,
                children: 0,
                own_cell: root,
                child_cell: root,
                quota_dir: true,
                home: root_home,
                label: Label::BOTTOM,
            },
        );
        // The root's quota cell record rode out the crash in its TOC
        // entry; adopt it without disturbing the persisted counts.
        ctx.qcm.adopt_cell(ctx.machine, ctx.drm, root, root_home)?;
        ctx.segm.activate(
            ctx.machine,
            ctx.drm,
            ctx.qcm,
            ctx.pfm,
            root,
            root_home,
            root,
            true,
            Label::BOTTOM,
        )?;
        // Uids restart past every TOC entry, orphans included.
        let mut max_uid = ctx.machine.disks.max_uid().max(root.0);
        let mut stack = vec![root];
        while let Some(dir) = stack.pop() {
            let parent_cell = dm.branch.get(&dir).expect("walked dir").child_cell;
            dm.ensure_active(ctx, dir)?;
            let count = dm.entry_count(ctx, dir)?;
            for slot in 0..count {
                let Some(e) = dm.read_entry(ctx, dir, slot)? else {
                    continue;
                };
                max_uid = max_uid.max(e.uid.0);
                // Catalogue only entries whose home survived; the
                // salvager flags the rest as dangling.
                let toc_uid = ctx
                    .machine
                    .disks
                    .pack(e.home.pack)
                    .ok()
                    .and_then(|p| p.entry(e.home.toc).ok())
                    .map(|t| t.uid);
                if toc_uid != Some(e.uid.0) {
                    continue;
                }
                if dm.branch.contains_key(&e.uid) {
                    // A duplicate claim (torn directory page); keep the
                    // first, leave this one for the salvager.
                    continue;
                }
                let mut quota_dir = e.quota_dir;
                if quota_dir {
                    // Re-adopt the persisted cell; if the record is gone
                    // the designation did not survive the crash.
                    if ctx
                        .qcm
                        .adopt_cell(ctx.machine, ctx.drm, e.uid, e.home)
                        .is_err()
                    {
                        quota_dir = false;
                    }
                }
                // Derive the controlling cell from the walk, not from the
                // entry's cached `own_cell` word: a torn directory page
                // can leave a valid uid next to a stale cell pointer, and
                // the nearest-superior rule is exactly what this top-down
                // walk reconstructs.
                dm.branch.insert(
                    e.uid,
                    BranchInfo {
                        parent: Some(dir),
                        slot,
                        is_dir: e.is_dir,
                        children: 0,
                        own_cell: parent_cell,
                        child_cell: if quota_dir { e.uid } else { parent_cell },
                        quota_dir,
                        home: e.home,
                        label: e.label,
                    },
                );
                dm.branch.get_mut(&dir).expect("walked dir").children += 1;
                if e.is_dir {
                    stack.push(e.uid);
                }
            }
        }
        dm.next_uid = max_uid + 1;
        Ok(dm)
    }

    /// The root directory's uid.
    pub fn root(&self) -> SegUid {
        self.root
    }

    /// The (real) token for the root directory.
    pub fn root_token(&mut self) -> ObjToken {
        self.real_token(self.root)
    }

    fn real_token(&mut self, uid: SegUid) -> ObjToken {
        if let Some(t) = self.token_of.get(&uid) {
            return ObjToken(*t);
        }
        let mut t = mix(uid.0 ^ self.secret);
        while t == 0 || self.real_tokens.contains_key(&t) {
            t = mix(t ^ 0x9e37_79b9);
        }
        self.real_tokens.insert(t, uid);
        self.token_of.insert(uid, t);
        ObjToken(t)
    }

    fn mythical_token(&mut self, dir_token: ObjToken, name: &str) -> ObjToken {
        self.stats.mythical_issued += 1;
        let mut t = mix(dir_token.0 ^ name_hash(name) ^ self.secret.rotate_left(17));
        // A mythical token must never collide with a real one (that
        // would grant access); perturb deterministically until clear.
        while t == 0 || self.real_tokens.contains_key(&t) {
            t = mix(t ^ 0x51_7c_c1_b7);
        }
        ObjToken(t)
    }

    /// Resolves a token to a uid — kernel internal; user code never sees
    /// uids.
    pub fn resolve_token(&self, token: ObjToken) -> Option<SegUid> {
        self.real_tokens.get(&token.0).copied()
    }

    /// True if the object exists (kernel internal).
    pub fn exists(&self, uid: SegUid) -> bool {
        self.branch.contains_key(&uid)
    }

    /// The home the manager currently records for an object.
    pub fn home_of(&self, uid: SegUid) -> Option<DiskHome> {
        self.branch.get(&uid).map(|b| b.home)
    }

    /// Everything needed to activate an object: `(home, controlling
    /// cell, is_dir, label)`. Kernel internal — the gatekeeper uses it
    /// for process state segments.
    pub fn activation_info(&self, uid: SegUid) -> Option<(DiskHome, SegUid, bool, Label)> {
        self.branch
            .get(&uid)
            .map(|b| (b.home, b.own_cell, b.is_dir, b.label))
    }

    // ---- entry records in segment storage --------------------------------

    fn entry_base(slot: u32) -> u32 {
        FsCtx::entry_base(slot)
    }

    pub(crate) fn ensure_active(
        &self,
        ctx: &mut FsCtx<'_>,
        uid: SegUid,
    ) -> Result<(), KernelError> {
        let b = self.branch.get(&uid).ok_or(KernelError::NotActive)?;
        ctx.segm
            .activate(
                ctx.machine,
                ctx.drm,
                ctx.qcm,
                ctx.pfm,
                uid,
                b.home,
                b.own_cell,
                b.is_dir,
                b.label,
            )
            .map(|_| ())
    }

    fn seg_write(
        &self,
        ctx: &mut FsCtx<'_>,
        uid: SegUid,
        wordno: u32,
        value: Word,
    ) -> Result<(), KernelError> {
        ctx.segm.write_word(
            ctx.machine,
            ctx.drm,
            ctx.qcm,
            ctx.pfm,
            ctx.vpm,
            ctx.flows,
            uid,
            wordno,
            value,
            Label::BOTTOM,
        )
    }

    pub(crate) fn entry_count(&self, ctx: &mut FsCtx<'_>, dir: SegUid) -> Result<u32, KernelError> {
        EntryReader::new(dir).count(ctx)
    }

    /// Reads entry `slot` of directory `dir`; `Ok(None)` for unused
    /// slots.
    pub(crate) fn read_entry(
        &self,
        ctx: &mut FsCtx<'_>,
        dir: SegUid,
        slot: u32,
    ) -> Result<Option<EntryRecord>, KernelError> {
        self.ensure_active(ctx, dir)?;
        EntryReader::new(dir).entry(ctx, slot)
    }

    /// Every entry in use in the active directory `dir`, with its slot,
    /// in slot order.
    pub(crate) fn entries(
        &self,
        ctx: &mut FsCtx<'_>,
        dir: SegUid,
    ) -> Result<Vec<(u32, EntryRecord)>, KernelError> {
        let mut reader = EntryReader::new(dir);
        let count = reader.count(ctx)?;
        let mut out = Vec::new();
        for slot in 0..count {
            if let Some(e) = reader.entry(ctx, slot)? {
                out.push((slot, e));
            }
        }
        Ok(out)
    }

    /// Writes a whole entry, setting the in-use flag **last** so a
    /// retried operation (after an upward signal) never sees a partial
    /// record.
    fn write_entry(
        &self,
        ctx: &mut FsCtx<'_>,
        dir: SegUid,
        slot: u32,
        e: &EntryRecord,
    ) -> Result<(), KernelError> {
        let label = e.label.stored().ok_or(KernelError::BadLabel)?;
        let (users, rights) = e.acl.stored().ok_or(KernelError::BadAcl)?;
        let base = Self::entry_base(slot);
        self.seg_write(ctx, dir, base, Word::new(e.uid.0))?;
        self.seg_write(ctx, dir, base + 2, Word::new(u64::from(e.home.pack.0)))?;
        self.seg_write(ctx, dir, base + 3, Word::new(u64::from(e.home.toc.0)))?;
        for (i, w) in pack_name(&e.name).iter().enumerate() {
            self.seg_write(ctx, dir, base + 4 + i as u32, *w)?;
        }
        self.seg_write(ctx, dir, base + 12, Word::new(users))?;
        self.seg_write(ctx, dir, base + 13, Word::new(rights))?;
        self.seg_write(ctx, dir, base + 14, Word::new(u64::from(e.quota_limit)))?;
        self.seg_write(ctx, dir, base + 16, Word::new(e.own_cell.0))?;
        let mut flags = 1u64;
        if e.is_dir {
            flags |= 2;
        }
        if e.quota_dir {
            flags |= 4;
        }
        flags |= label << 3;
        self.seg_write(ctx, dir, base + 1, Word::new(flags))
    }

    /// The metadata of an object, read from its entry in its superior
    /// (synthesized for the root: public ACL, system-low label).
    fn object_meta(&self, ctx: &mut FsCtx<'_>, uid: SegUid) -> Result<EntryRecord, KernelError> {
        let b = *self.branch.get(&uid).ok_or(KernelError::NoAccess)?;
        match b.parent {
            None => Ok(EntryRecord {
                uid,
                is_dir: true,
                quota_dir: b.quota_dir,
                home: b.home,
                name: Name::EMPTY,
                acl: Acl::new(), // Root: checked specially (public).
                label: Label::BOTTOM,
                quota_limit: 0,
                own_cell: b.own_cell,
            }),
            Some(parent) => self
                .read_entry(ctx, parent, b.slot)?
                .ok_or(KernelError::NoAccess),
        }
    }

    /// True if (user, label) may search/read the directory.
    fn can_read_dir(
        &self,
        ctx: &mut FsCtx<'_>,
        user: UserId,
        label: Label,
        dir: SegUid,
    ) -> Result<bool, KernelError> {
        if dir == self.root {
            return Ok(true); // The root listing is public.
        }
        let meta = self.object_meta(ctx, dir)?;
        Ok(meta.acl.permits(user, AccessRight::Read)
            && ctx
                .monitor
                .check(label, meta.label, AccessKind::Read)
                .is_ok())
    }

    /// Scans one directory for `name`; kernel-internal, no access check.
    fn scan(
        &self,
        ctx: &mut FsCtx<'_>,
        dir: SegUid,
        name: &str,
    ) -> Result<Option<(u32, EntryRecord)>, KernelError> {
        // Activation holds for the whole scan: only `delete` and
        // `sync_to_disk` deactivate, and neither runs inside one.
        self.ensure_active(ctx, dir)?;
        let mut reader = EntryReader::new(dir);
        let count = reader.count(ctx)?;
        reader.find(ctx, count, &NameKey::new(name))
    }

    // ---- the kernel primitives -------------------------------------------

    /// **The single-directory search primitive.**
    ///
    /// If the caller can read `dir_token`'s directory: an honest answer —
    /// the entry's identifier, or [`KernelError::NoEntry`].
    ///
    /// Otherwise — inaccessible directory, a non-directory, a mythical
    /// token, garbage — the primitive *always* returns an identifier:
    /// the real one if the name really is there (so a path that leads to
    /// an accessible file works), a deterministic mythical one if not.
    /// The two are indistinguishable.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoEntry`] only in the honest (readable) case.
    pub fn search(
        &mut self,
        ctx: &mut FsCtx<'_>,
        user: UserId,
        label: Label,
        dir_token: ObjToken,
        name: &str,
    ) -> Result<ObjToken, KernelError> {
        self.stats.searches += 1;
        let resolved = self
            .resolve_token(dir_token)
            .filter(|u| self.branch.contains_key(u));
        let is_real_dir = resolved.is_some_and(|u| self.branch[&u].is_dir);
        let readable = match resolved {
            Some(uid) if is_real_dir => self.can_read_dir(ctx, user, label, uid)?,
            _ => false,
        };
        if readable {
            let dir = resolved.expect("readable implies resolved");
            return match self.scan(ctx, dir, name)? {
                Some((_, e)) => Ok(self.real_token(e.uid)),
                None => Err(KernelError::NoEntry),
            };
        }
        // Not readable: never an error, never information.
        if is_real_dir {
            let dir = resolved.expect("real dir");
            if let Some((_, e)) = self.scan(ctx, dir, name)? {
                // Real identifier: if the path ultimately reaches an
                // accessible object, every intervening identifier works.
                return Ok(self.real_token(e.uid));
            }
        }
        Ok(self.mythical_token(dir_token, name))
    }

    /// Makes the object behind `token` known to a process, with
    /// effective access = ACL ∩ AIM fixed at initiation.
    ///
    /// A mythical (or otherwise unusable) token yields exactly
    /// [`KernelError::NoAccess`] — the same answer a real but forbidden
    /// object yields, so the caller "will be unable to decide whether or
    /// not the identifier … is real or mythical".
    ///
    /// # Errors
    ///
    /// [`KernelError::NoAccess`], uniformly.
    pub fn initiate(
        &mut self,
        ctx: &mut FsCtx<'_>,
        ksm: &mut KnownSegmentManager,
        pid: ProcessId,
        user: UserId,
        plabel: Label,
        token: ObjToken,
    ) -> Result<u32, KernelError> {
        let uid = self.resolve_token(token).ok_or(KernelError::NoAccess)?;
        let b = *self.branch.get(&uid).ok_or(KernelError::NoAccess)?;
        let meta = self.object_meta(ctx, uid)?;
        let aim_read = ctx
            .monitor
            .check(plabel, meta.label, AccessKind::Read)
            .is_ok();
        let aim_write = ctx
            .monitor
            .check(plabel, meta.label, AccessKind::Write)
            .is_ok();
        let read = meta.acl.permits(user, AccessRight::Read) && aim_read;
        let write = meta.acl.permits(user, AccessRight::Write) && aim_write;
        let execute = meta.acl.permits(user, AccessRight::Execute) && aim_read;
        if !(read || write || execute) {
            return Err(KernelError::NoAccess);
        }
        ksm.bind(
            pid,
            KstEntry {
                uid,
                home: b.home,
                cell: b.own_cell,
                is_dir: b.is_dir,
                label: meta.label,
                read,
                write,
                execute,
            },
        )
    }

    /// Creates a segment or directory entry in the directory behind
    /// `dir_token`.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadName`] (a name the entry codec cannot store),
    /// [`KernelError::BadLabel`] (a label it cannot store),
    /// [`KernelError::BadAcl`] (an ACL it cannot store),
    /// [`KernelError::NoAccess`] (bad token / no modify permission),
    /// [`KernelError::AimViolation`], [`KernelError::NameDuplicated`],
    /// or storage errors — including a propagating upward signal if the
    /// directory itself had to move while growing.
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        &mut self,
        ctx: &mut FsCtx<'_>,
        user: UserId,
        plabel: Label,
        dir_token: ObjToken,
        name: &str,
        acl: Acl,
        label: Label,
        is_dir: bool,
    ) -> Result<ObjToken, KernelError> {
        if !name_fits(name) {
            return Err(KernelError::BadName);
        }
        if label.stored().is_none() {
            return Err(KernelError::BadLabel);
        }
        if acl.stored().is_none() {
            return Err(KernelError::BadAcl);
        }
        let dir = self.resolve_token(dir_token).ok_or(KernelError::NoAccess)?;
        let b = *self.branch.get(&dir).ok_or(KernelError::NoAccess)?;
        if !b.is_dir {
            return Err(KernelError::NotADirectory);
        }
        let meta = self.object_meta(ctx, dir)?;
        let modify_ok = dir == self.root
            || (meta.acl.permits(user, AccessRight::Write)
                && ctx
                    .monitor
                    .check(plabel, meta.label, AccessKind::Write)
                    .is_ok());
        if !modify_ok {
            return Err(KernelError::NoAccess);
        }
        if !label.dominates(meta.label) {
            return Err(KernelError::AimViolation);
        }
        if self.scan(ctx, dir, name)?.is_some() {
            return Err(KernelError::NameDuplicated);
        }
        crate::charge_pli(ctx.machine, 160);
        // Claim a slot: first unused, else extend the count.
        let mut reader = EntryReader::new(dir);
        let count = reader.count(ctx)?;
        let slot = reader.first_unused(ctx, count)?;
        // Touch the slot's last word first: any growth (and its possible
        // upward signal) happens before we allocate durable resources.
        self.seg_write(
            ctx,
            dir,
            Self::entry_base(slot) + ENTRY_WORDS - 1,
            Word::ZERO,
        )?;
        if slot == count {
            self.seg_write(ctx, dir, 0, Word::new(u64::from(count) + 1))?;
        }

        let uid = SegUid(self.next_uid);
        self.next_uid += 1;
        // Cluster children on the parent's pack, falling back to any
        // pack with table-of-contents room.
        let toc = ctx
            .drm
            .create_entry_anywhere(ctx.machine, b.home.pack, uid.0)?;
        let own_cell = b.child_cell;
        let entry = EntryRecord {
            uid,
            is_dir,
            quota_dir: false,
            home: toc,
            name: Name::new(name),
            acl,
            label,
            quota_limit: 0,
            own_cell,
        };
        self.write_entry(ctx, dir, slot, &entry)?;
        self.branch.insert(
            uid,
            BranchInfo {
                parent: Some(dir),
                slot,
                is_dir,
                children: 0,
                own_cell,
                child_cell: own_cell,
                quota_dir: false,
                home: toc,
                label,
            },
        );
        self.branch.get_mut(&dir).expect("parent").children += 1;
        Ok(self.real_token(uid))
    }

    /// Designates a **childless** directory as a quota directory.
    ///
    /// # Errors
    ///
    /// [`KernelError::QuotaDesignation`] if the directory has children
    /// or already is one; [`KernelError::NoAccess`] for bad tokens or
    /// missing modify permission.
    pub fn set_quota_directory(
        &mut self,
        ctx: &mut FsCtx<'_>,
        user: UserId,
        plabel: Label,
        dir_token: ObjToken,
        limit: u32,
    ) -> Result<(), KernelError> {
        let dir = self.resolve_token(dir_token).ok_or(KernelError::NoAccess)?;
        let b = *self.branch.get(&dir).ok_or(KernelError::NoAccess)?;
        if !b.is_dir {
            return Err(KernelError::NotADirectory);
        }
        let meta = self.object_meta(ctx, dir)?;
        if dir != self.root
            && !(meta.acl.permits(user, AccessRight::Write)
                && ctx
                    .monitor
                    .check(plabel, meta.label, AccessKind::Write)
                    .is_ok())
        {
            return Err(KernelError::NoAccess);
        }
        if b.children > 0 {
            return Err(KernelError::QuotaDesignation("directory has children"));
        }
        if b.quota_dir {
            return Err(KernelError::QuotaDesignation("already a quota directory"));
        }
        ctx.qcm
            .create_cell(ctx.machine, ctx.drm, dir, b.home, limit, meta.label)?;
        {
            let bi = self.branch.get_mut(&dir).expect("branch");
            bi.quota_dir = true;
            bi.child_cell = dir;
        }
        if let Some(parent) = b.parent {
            if let Some(mut e) = self.read_entry(ctx, parent, b.slot)? {
                e.quota_dir = true;
                e.quota_limit = limit;
                self.write_entry(ctx, parent, b.slot, &e)?;
            }
        }
        Ok(())
    }

    /// Removes a quota designation from a **childless**, uncharged
    /// quota directory (the inverse operation, restricted identically).
    ///
    /// # Errors
    ///
    /// [`KernelError::QuotaDesignation`] if the rules are violated.
    pub fn clear_quota_directory(
        &mut self,
        ctx: &mut FsCtx<'_>,
        user: UserId,
        plabel: Label,
        dir_token: ObjToken,
    ) -> Result<(), KernelError> {
        let dir = self.resolve_token(dir_token).ok_or(KernelError::NoAccess)?;
        let b = *self.branch.get(&dir).ok_or(KernelError::NoAccess)?;
        let meta = self.object_meta(ctx, dir)?;
        if dir != self.root
            && !(meta.acl.permits(user, AccessRight::Write)
                && ctx
                    .monitor
                    .check(plabel, meta.label, AccessKind::Write)
                    .is_ok())
        {
            return Err(KernelError::NoAccess);
        }
        if b.children > 0 {
            return Err(KernelError::QuotaDesignation("directory has children"));
        }
        if !b.quota_dir {
            return Err(KernelError::QuotaDesignation("not a quota directory"));
        }
        ctx.qcm.destroy_cell(ctx.machine, ctx.drm, dir)?;
        {
            let bi = self.branch.get_mut(&dir).expect("branch");
            bi.quota_dir = false;
            bi.child_cell = bi.own_cell;
        }
        if let Some(parent) = b.parent {
            if let Some(mut e) = self.read_entry(ctx, parent, b.slot)? {
                e.quota_dir = false;
                e.quota_limit = 0;
                self.write_entry(ctx, parent, b.slot, &e)?;
            }
        }
        Ok(())
    }

    /// Kernel-internal lookup (no access check): the uid behind `name`
    /// in `dir`, if any. Recovery bootload uses it to refind well-known
    /// directories.
    pub(crate) fn lookup_in(
        &self,
        ctx: &mut FsCtx<'_>,
        dir: SegUid,
        name: &str,
    ) -> Result<Option<SegUid>, KernelError> {
        Ok(self.scan(ctx, dir, name)?.map(|(_, e)| e.uid))
    }

    /// The (real) token for a known uid — recovery bootload only.
    pub(crate) fn token_for(&mut self, uid: SegUid) -> ObjToken {
        self.real_token(uid)
    }

    /// Salvager repair: clears entry `slot` of `dir` (the in-use flag
    /// goes to zero) and evicts `uid` from the branch cache if that
    /// entry was its catalogue record.
    pub(crate) fn salvage_clear_entry(
        &mut self,
        ctx: &mut FsCtx<'_>,
        dir: SegUid,
        slot: u32,
        uid: SegUid,
    ) -> Result<(), KernelError> {
        self.seg_write(ctx, dir, Self::entry_base(slot) + 1, Word::ZERO)?;
        let cached_here = self
            .branch
            .get(&uid)
            .is_some_and(|b| b.parent == Some(dir) && b.slot == slot);
        if cached_here {
            self.branch.remove(&uid);
            if let Some(t) = self.token_of.remove(&uid) {
                self.real_tokens.remove(&t);
            }
            if let Some(p) = self.branch.get_mut(&dir) {
                p.children = p.children.saturating_sub(1);
            }
        }
        Ok(())
    }

    /// Deletes a leaf object named `name` in the directory behind
    /// `dir_token`.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoAccess`] (uniform), or
    /// [`KernelError::QuotaDesignation`] when deleting a still-charged
    /// quota directory.
    pub fn delete(
        &mut self,
        ctx: &mut FsCtx<'_>,
        ksm: &mut KnownSegmentManager,
        user: UserId,
        plabel: Label,
        dir_token: ObjToken,
        name: &str,
    ) -> Result<(), KernelError> {
        let dir = self.resolve_token(dir_token).ok_or(KernelError::NoAccess)?;
        if !self.branch.contains_key(&dir) {
            return Err(KernelError::NoAccess);
        }
        let meta = self.object_meta(ctx, dir)?;
        if dir != self.root
            && !(meta.acl.permits(user, AccessRight::Write)
                && ctx
                    .monitor
                    .check(plabel, meta.label, AccessKind::Write)
                    .is_ok())
        {
            return Err(KernelError::NoAccess);
        }
        let Some((slot, e)) = self.scan(ctx, dir, name)? else {
            return Err(KernelError::NoAccess);
        };
        let b = *self.branch.get(&e.uid).ok_or(KernelError::NoAccess)?;
        if b.children > 0 {
            return Err(KernelError::NoAccess);
        }
        if b.quota_dir {
            // The cell must go first (it must be unreferenced and empty).
            ctx.qcm.destroy_cell(ctx.machine, ctx.drm, e.uid)?;
        }
        if ctx.segm.get(e.uid).is_some() {
            ctx.segm
                .deactivate(ctx.machine, ctx.drm, ctx.qcm, ctx.pfm, e.uid)?;
        }
        // Uncharge whatever records the object still holds, then free
        // them with the TOC entry.
        let records = ctx.drm.records_used(ctx.machine, b.home).unwrap_or(0);
        if records > 0 {
            ctx.qcm.uncharge(ctx.machine, b.own_cell, records)?;
        }
        ctx.drm.delete_entry(ctx.machine, b.home)?;
        self.seg_write(ctx, dir, Self::entry_base(slot) + 1, Word::ZERO)?;
        self.branch.remove(&e.uid);
        self.branch.get_mut(&dir).expect("parent").children -= 1;
        if let Some(t) = self.token_of.remove(&e.uid) {
            self.real_tokens.remove(&t);
        }
        ksm.refresh_home(e.uid, b.home); // Harmless refresh; KST entries go stale naturally.
        Ok(())
    }

    /// Consumes a moved-segment signal: rewrites the directory entry of
    /// `uid` with its new home and refreshes the branch cache. Invoked
    /// by the gatekeeper trampoline.
    ///
    /// # Errors
    ///
    /// Storage errors rewriting the entry.
    pub fn record_move(
        &mut self,
        ctx: &mut FsCtx<'_>,
        uid: SegUid,
        new_home: DiskHome,
    ) -> Result<(), KernelError> {
        self.stats.moves_recorded += 1;
        let b = *self.branch.get(&uid).ok_or(KernelError::NotActive)?;
        if let Some(parent) = b.parent {
            let base = Self::entry_base(b.slot);
            self.seg_write(ctx, parent, base + 2, Word::new(u64::from(new_home.pack.0)))?;
            self.seg_write(ctx, parent, base + 3, Word::new(u64::from(new_home.toc.0)))?;
        }
        self.branch.get_mut(&uid).expect("branch").home = new_home;
        Ok(())
    }

    /// Lists the entry names of a directory the caller can read.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoAccess`] for unreadable or unreal directories.
    pub fn list(
        &mut self,
        ctx: &mut FsCtx<'_>,
        user: UserId,
        label: Label,
        dir_token: ObjToken,
    ) -> Result<Vec<String>, KernelError> {
        let dir = self.resolve_token(dir_token).ok_or(KernelError::NoAccess)?;
        if !self.branch.get(&dir).is_some_and(|b| b.is_dir) {
            return Err(KernelError::NoAccess);
        }
        if !self.can_read_dir(ctx, user, label, dir)? {
            return Err(KernelError::NoAccess);
        }
        Ok(self
            .entries(ctx, dir)?
            .into_iter()
            .map(|(_, e)| e.name.to_string())
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mx_hw::word::name_is;

    #[test]
    fn name_codec_round_trip() {
        for name in ["x", "alpha.pl1", &"q".repeat(32)] {
            assert_eq!(unpack_name(&pack_name(name)), name);
            assert!(name_is(&pack_name(name), name));
        }
    }

    /// An entry's flags word holds its label's stored form from bit 3 on.
    #[test]
    fn label_codec_round_trip() {
        let l = Label::new(Level(3), CompartmentSet::from_bits(0b1011));
        let mut words = [Word::ZERO; ENTRY_WORDS as usize];
        words[1] = Word::new(1 | l.stored().unwrap() << 3);
        assert_eq!(FsCtx::decode(&words).label, l);
    }

    #[test]
    fn mix_is_deterministic_and_spread() {
        assert_eq!(mix(1), mix(1));
        assert_ne!(mix(1), mix(2));
        assert_ne!(name_hash("a"), name_hash("b"));
    }

    use crate::kernel::{Kernel, KernelConfig};
    use crate::types::ProcessId;
    use mx_aim::{CompartmentSet, Level};
    use mx_hw::{DiskError, SplitMix64, PAGE_WORDS};
    use std::collections::HashSet;

    const USER: UserId = UserId(1);

    fn boot(frames: usize) -> (Kernel, ProcessId) {
        let mut k = Kernel::boot(KernelConfig {
            frames,
            records_per_pack: 512,
            toc_slots_per_pack: 320,
            pt_slots: 24,
            max_processes: 4,
            root_quota: 400,
            ..KernelConfig::default()
        });
        k.register_account("u", USER, 7, Label::BOTTOM);
        let pid = k.login_residue("u", 7, Label::BOTTOM).unwrap();
        (k, pid)
    }

    /// Names longer than the codec's 32 characters, or holding NUL or
    /// non-ASCII bytes, used to be stored garbled: created twice, never
    /// found. They are refused before any durable work.
    #[test]
    fn names_the_entry_codec_cannot_store_are_refused() {
        let (mut k, pid) = boot(128);
        let root = k.root_token();
        let listed = k.list_dir(pid, root).unwrap();
        let next_uid = k.dirm.next_uid;
        for bad in ["x".repeat(33), "café".to_string(), "a\0b".to_string()] {
            for is_dir in [false, true] {
                let made = k.create_entry(pid, root, &bad, Acl::owner(USER), Label::BOTTOM, is_dir);
                assert_eq!(made, Err(KernelError::BadName), "{bad:?}");
            }
        }
        assert_eq!(k.list_dir(pid, root).unwrap(), listed);
        assert_eq!(k.dirm.next_uid, next_uid, "no uid or TOC entry spent");
        let longest = "y".repeat(32);
        let token = k
            .create_entry(pid, root, &longest, Acl::owner(USER), Label::BOTTOM, false)
            .unwrap();
        assert_eq!(k.dir_search(pid, root, &longest), Ok(token));
        assert_eq!(
            k.create_entry(pid, root, &longest, Acl::owner(USER), Label::BOTTOM, false),
            Err(KernelError::NameDuplicated)
        );
    }

    /// Labels beyond the codec's 3 level bits and 24 compartments used to
    /// be stored garbled: (0, {30}) as (0, {}), so a system-low process
    /// with an ACL read grant could initiate it and its creator could not
    /// write it, and level 9 as level 1. They are refused before any
    /// durable work. Level 7 and compartment 23 round-trip, and AIM
    /// decides on them as created.
    #[test]
    fn labels_the_entry_codec_cannot_store_are_refused() {
        let (mut k, pid) = boot(128);
        let root = k.root_token();
        let listed = k.list_dir(pid, root).unwrap();
        let next_uid = k.dirm.next_uid;
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
            for is_dir in [false, true] {
                let made = k.create_entry(pid, root, "x", Acl::owner(USER), bad, is_dir);
                assert_eq!(made, Err(KernelError::BadLabel), "{bad}");
            }
        }
        assert_eq!(k.list_dir(pid, root).unwrap(), listed);
        assert_eq!(k.dirm.next_uid, next_uid, "no uid or TOC entry spent");
        let top = label(7, &[23]);
        let creator = k.create_process(USER, top).unwrap();
        let token = k
            .create_entry(creator, root, "top", Acl::owner(USER), top, false)
            .unwrap();
        // Its creator may read it (the stored label is no higher) and
        // write it (no lower).
        let segno = k.initiate(creator, token).unwrap();
        k.write_word(creator, segno, 0, Word::new(7)).unwrap();
        assert_eq!(k.read_word(creator, segno, 0), Ok(Word::new(7)));
        // Without level 7 or compartment 23, a reader is refused.
        for below in [label(6, &[23]), label(7, &[])] {
            let reader = k.create_process(USER, below).unwrap();
            let segno = k.initiate(reader, token).unwrap();
            let read = k.read_word(reader, segno, 0);
            assert_eq!(read, Err(KernelError::NoAccess), "{below}");
        }
    }

    /// ACLs beyond the codec's four terms and user ids 0–255 used to be
    /// stored garbled: owner 300 came back as owner 44, so user 300 was
    /// refused and user 44 could initiate and write the segment, and a
    /// fifth term was dropped. They are refused before any durable work.
    /// Four terms and user 255 round-trip, and decide access as created.
    #[test]
    fn acls_the_entry_codec_cannot_store_are_refused() {
        let (mut k, pid) = boot(128);
        let root = k.root_token();
        let listed = k.list_dir(pid, root).unwrap();
        let next_uid = k.dirm.next_uid;
        let readers = |acl: &mut Acl, users: &[u32]| {
            for &u in users {
                acl.grant(UserId(u), &[AccessRight::Read]);
            }
        };
        let mut five = Acl::owner(USER);
        readers(&mut five, &[2, 3, 4, 5]);
        for bad in [Acl::owner(UserId(256)), Acl::owner(UserId(300)), five] {
            for is_dir in [false, true] {
                let made = k.create_entry(pid, root, "x", bad.clone(), Label::BOTTOM, is_dir);
                assert_eq!(made, Err(KernelError::BadAcl), "{bad:?}");
            }
        }
        assert_eq!(k.list_dir(pid, root).unwrap(), listed);
        assert_eq!(k.dirm.next_uid, next_uid, "no uid or TOC entry spent");
        let mut four = Acl::owner(UserId(255));
        readers(&mut four, &[2, 3, 4]);
        let token = k
            .create_entry(pid, root, "edge", four.clone(), Label::BOTTOM, false)
            .unwrap();
        let uid = k.dirm.resolve_token(token).unwrap();
        let stored = k.dirm.object_meta(&mut crate::kernel::ctx!(k), uid);
        assert_eq!(stored.unwrap().acl, four);
        let owner = k.create_process(UserId(255), Label::BOTTOM).unwrap();
        let segno = k.initiate(owner, token).unwrap();
        k.write_word(owner, segno, 0, Word::new(7)).unwrap();
        let reader = k.create_process(UserId(4), Label::BOTTOM).unwrap();
        let segno = k.initiate(reader, token).unwrap();
        assert_eq!(k.read_word(reader, segno, 0), Ok(Word::new(7)));
        let write = k.write_word(reader, segno, 0, Word::new(8));
        assert_eq!(write, Err(KernelError::NoAccess));
        // The creator is not on the list.
        assert_eq!(k.initiate(pid, token), Err(KernelError::NoAccess));
    }

    /// Two kernels booted alike: `cursor` reads directories through the
    /// entry reader, `per_word` through the per-word reference.
    struct Twin {
        cursor: Kernel,
        per_word: Kernel,
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

        /// Runs `op` on both kernels; its result and everything simulated
        /// a directory read can touch must agree.
        fn step<T: PartialEq + std::fmt::Debug>(
            &mut self,
            at: &str,
            op: impl Fn(&mut Kernel, ProcessId) -> T,
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
        fn create(&mut self, at: &str, dir: ObjToken, name: &str) -> Result<u32, KernelError> {
            let made = self.step(at, |k, pid| {
                k.create_entry(pid, dir, name, Acl::owner(USER), Label::BOTTOM, false)
            });
            let dm = &self.cursor.dirm;
            made.map(|token| dm.branch[&dm.resolve_token(token).unwrap()].slot)
        }

        /// Slots ever used in directory `dir` (its entry count).
        fn slots(&self, dir: SegUid) -> u32 {
            let dm = &self.cursor.dirm;
            dm.branch
                .values()
                .filter(|b| b.parent == Some(dir))
                .map(|b| b.slot + 1)
                .max()
                .unwrap_or(0)
        }

        /// Pages of active segment `uid` resident in core.
        fn resident_pages(&self, uid: SegUid, pages: u32) -> Vec<u32> {
            let k = &self.cursor;
            let handle = k.segm.get(uid).expect("active").handle;
            (0..pages)
                .filter(|&p| k.pfm.ptw(&k.machine, handle, p).present)
                .collect()
        }
    }

    /// Words from an entry's base through word 16, the cell: the last
    /// one the codec reads.
    const SPAN: u32 = 17;

    fn page(wordno: u32) -> u32 {
        wordno / PAGE_WORDS as u32
    }

    /// The page of the words of slot `slot` the codec reads, if they lie
    /// on one.
    fn one_page(slot: u32) -> Option<u32> {
        let base = DirectoryManager::entry_base(slot);
        (page(base) == page(base + SPAN - 1)).then_some(page(base))
    }

    /// True if `find` reads `slot` in a run: its words lie on the page of
    /// the last word the walk read, the count word before slot 0, else
    /// the slot before's record if in use, or its flags word.
    fn in_find_run(slot: u32, in_use: &HashSet<u32>) -> bool {
        let last_read = match slot.checked_sub(1) {
            None => 0,
            Some(s) if in_use.contains(&s) => DirectoryManager::entry_base(s) + SPAN - 1,
            Some(s) => DirectoryManager::entry_base(s) + 1,
        };
        one_page(slot) == Some(page(last_read))
    }

    /// The page of slot `slot`'s flags word.
    fn flags_page(slot: u32) -> u32 {
        page(DirectoryManager::entry_base(slot) + 1)
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
            let base = DirectoryManager::entry_base(slot);
            if one_page(slot).is_none() {
                self.straddling += 1;
            } else if slot == 0 || page(DirectoryManager::entry_base(slot - 1) + 1) == page(base) {
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

    /// Seeded churn on tight frames. Every create, delete, search and
    /// listing reads the directory through the entry reader on one
    /// kernel and, on its twin, through the loop the walk replaced: each
    /// slot's PL/I block charged before its first word, every word
    /// through the full path. After every step the results, clocks,
    /// meters, edges, TLB tallies and core images must be identical. The
    /// churn is checked to reach entries that straddle a page (slot 51,
    /// 102, 153), unused slots, scans whose next-page fault evicts a page
    /// they just left, and each case of the walk: a miss over three
    /// pages or more, a match read in place, a match on a straddling
    /// entry, and an unused slot found past page 0. Every seventh step
    /// that is a miss searches with the directory's pack offline, so a
    /// walk whose page touch must read the disk fails mid-walk. Aimed
    /// steps after the churn reach each edge of a run: a match at a
    /// run's first slot and at its last, `first_unused` answering at a
    /// run's first position and at its last, and a count that ends at
    /// the last slot of a page's run; misses whose run the count cuts
    /// mid-page come from the churn.
    #[test]
    fn entry_reader_matches_the_per_word_reference_under_churn() {
        let mut t = Twin::new(24);
        let root = t.step("root", |k, _| k.root_token());
        let d = t
            .step("mkdir", |k, pid| {
                k.create_entry(pid, root, "d", Acl::owner(USER), Label::BOTTOM, true)
            })
            .unwrap();
        let d_uid = t.cursor.dirm.resolve_token(d).unwrap();
        let pack = t.cursor.dirm.home_of(d_uid).unwrap().pack;
        // Data pages that compete with the directory's for the frames.
        let ballast = t
            .step("ballast", |k, pid| {
                let token =
                    k.create_entry(pid, root, "b", Acl::owner(USER), Label::BOTTOM, false)?;
                k.initiate(pid, token)
            })
            .unwrap();
        let mut rng = SplitMix64::new(1977);
        let (mut deleted, mut reused, mut left_page_evicted, mut widest) = (0, 0, 0, 0);
        let mut failed = 0;
        let mut walked = Walked::default();
        let mut live = HashMap::new();
        // The count word: slots ever used.
        let mut count = 0;
        for i in 0..900 {
            let name = format!("n{}", rng.below(240));
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
                        Err(KernelError::NameDuplicated) => walked.matched(live[&name], &in_use),
                        Err(e) => panic!("{at}: {e}"),
                    }
                    let page = rng.below(12) as u32;
                    t.step(&at, |k, pid| {
                        k.write_word(pid, ballast, page * PAGE_WORDS as u32, Word::new(1))
                    })
                    .unwrap();
                }
                6 => {
                    if t.step(&at, |k, pid| k.delete_entry(pid, d, &name)).is_ok() {
                        deleted += 1;
                        walked.matched(live.remove(&name).expect("a live name"), &in_use);
                    }
                }
                7..=8 => {
                    // A miss scans every slot, so every page of `d`.
                    let missing = format!("x{name}");
                    let offline = i % 7 == 0;
                    let found = t.step(&at, |k, pid| {
                        k.machine.faults.set_offline(pack, offline);
                        let found = k.dir_search(pid, d, &missing);
                        k.machine.faults.set_offline(pack, false);
                        found
                    });
                    if offline && found == Err(KernelError::Disk(DiskError::PackOffline { pack })) {
                        failed += 1;
                        continue;
                    }
                    assert_eq!(found, Err(KernelError::NoEntry));
                    walked.missed(count, &in_use);
                    let pages =
                        DirectoryManager::entry_base(t.slots(d_uid)).div_ceil(PAGE_WORDS as u32);
                    widest = widest.max(t.slots(d_uid));
                    walked.long_misses += usize::from(pages >= 3);
                    let resident = t.resident_pages(d_uid, pages);
                    left_page_evicted += usize::from(resident.len() < pages as usize);
                }
                _ => {
                    t.step(&at, |k, pid| k.list_dir(pid, d)).unwrap();
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
                assert_eq!(made, Err(KernelError::NameDuplicated), "{at}");
                walked.matched(slot, &all);
            }
            let flags_edge = flags_page(slot + 1) != flags_page(slot);
            if first(&in_unused_run) || in_unused_run(slot) && flags_edge {
                let gone = t.step(&at, |k, pid| k.delete_entry(pid, d, &named[&slot]));
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
        let found = t.step("miss at a page's end", |k, pid| k.dir_search(pid, d, "x"));
        assert_eq!(found, Err(KernelError::NoEntry));
        walked.missed(count, &all);
        assert!(
            widest > 153,
            "scans reached the third straddling entry ({widest} slots)"
        );
        assert!(
            deleted > 20 && reused > 5,
            "unused slots scanned and reclaimed"
        );
        assert!(left_page_evicted > 0, "a scan evicted a page it had left");
        assert!(failed > 4, "walks failed mid-walk ({failed})");
        assert!(
            walked.long_misses > 20
                && walked.in_place > 100
                && walked.straddling >= 3
                && walked.unused_past_page_0 > 5
                && walked.run_first_matches >= 4
                && walked.run_last_matches >= 3
                && walked.cut_by_count > 100
                && walked.count_at_page_end >= 2
                && walked.unused_run_first >= 3
                && walked.unused_run_last >= 3,
            "every case of the walk reached: {walked:?}"
        );
    }
}
