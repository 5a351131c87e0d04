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
use mx_aim::{AccessKind, CompartmentSet, FlowTracker, Label, Level, ReferenceMonitor};
use mx_hw::word::{name_fits, pack_name, unpack_name, NameKey, NAME_WORDS};
use mx_hw::{
    AbsAddr, IdMap, Language, Machine, MainMemory, PackId, RefCharges, TocIndex, Word, PAGE_WORDS,
};
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
    pub name: String,
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

fn pack_label(label: Label) -> u64 {
    u64::from(label.level.0 & 0x7) | (label.compartments.bits() & 0xFF_FFFF) << 3
}

fn unpack_label(bits: u64) -> Label {
    Label::new(
        Level((bits & 0x7) as u8),
        CompartmentSet::from_bits((bits >> 3) & 0xFF_FFFF),
    )
}

/// PL/I instructions `scan` spends on each slot it passes.
const SCAN_INSTR_PER_SLOT: u64 = 14;

/// The words of an entry in use that the record codec reads, as a bit
/// set over the entry's words: 0, 2–14 and 16 (the flags word, 1, is
/// read first, on its own).
const RECORD: u64 = 1 | 0x1fff << 2 | 1 << 16;

/// Words from an entry's base through the last one [`RECORD`] reads.
const RECORD_SPAN: usize = 17;

/// Core accesses an entry in use costs: its flags word and [`RECORD`].
const IN_USE_READS: u64 = 1 + RECORD.count_ones() as u64;

/// The name words of an entry's words.
fn name_words(entry: &[Word]) -> &[Word; NAME_WORDS] {
    entry[4..12].try_into().expect("eight name words")
}

/// One entry record as copied from core, decoded only on demand.
struct StoredEntry([Word; ENTRY_WORDS as usize]);

impl StoredEntry {
    /// Copies the words an entry in use is read for.
    fn copied(record: &[Word]) -> Self {
        let mut e = StoredEntry([Word::ZERO; ENTRY_WORDS as usize]);
        e.0[..RECORD_SPAN].copy_from_slice(record);
        e
    }

    fn name_words(&self) -> &[Word; NAME_WORDS] {
        name_words(&self.0)
    }

    fn decode(&self) -> EntryRecord {
        let w = |i: usize| self.0[i].raw();
        let flags = w(1);
        EntryRecord {
            uid: SegUid(w(0)),
            is_dir: flags & 2 != 0,
            quota_dir: flags & 4 != 0,
            home: DiskHome {
                pack: PackId(w(2) as u32),
                toc: TocIndex(w(3) as u32),
            },
            name: unpack_name(self.name_words()),
            acl: Acl::unpack(w(12), w(13)),
            label: unpack_label(flags >> 3),
            quota_limit: w(14) as u32,
            own_cell: SegUid(w(16)),
        }
    }
}

/// Reads one directory segment's entry records, a page at a time.
///
/// The first word the reader takes from each page goes through the
/// segment manager's full reference path (page service, growth, the used
/// bit); every later word on that page is read straight from core, and
/// its core access waits, with the PL/I block of each slot `scan`
/// passes, for the one charge made before the next page touch and at
/// the end. The simulated outcome is the per-slot, per-word loop's
/// exactly — DESIGN.md, "The directory scan cursor", gives the
/// conditions.
struct EntryReader {
    dir: SegUid,
    /// The page last touched and the absolute address of its first word.
    page: Option<(u32, AbsAddr)>,
    /// Core accesses read but not yet charged.
    pending: u64,
    /// Slots `scan` passed whose PL/I block is not yet charged.
    blocks: u64,
}

impl EntryReader {
    fn new(dir: SegUid) -> Self {
        Self {
            dir,
            page: None,
            pending: 0,
            blocks: 0,
        }
    }

    /// The words from `wordno` on, `n` of them, straight from core, if
    /// they all lie on the page the reader holds.
    fn held<'m>(&self, mem: &'m MainMemory, wordno: u32, n: usize) -> Option<&'m [Word]> {
        let (pageno, frame) = self.page?;
        let offset = wordno.checked_sub(pageno * PAGE_WORDS as u32)? as usize;
        (offset + n <= PAGE_WORDS).then(|| mem.words(frame.add(offset as u64), n))
    }

    /// Copies the words from `wordno` on into `out`. The words whose bits
    /// are set in `charged` count as read: each costs a core access,
    /// charged at the next [`EntryReader::flush`]. The first and last
    /// words must be charged, so every page the copy touches is one a
    /// word-by-word read would touch too.
    fn read(
        &mut self,
        ctx: &mut FsCtx<'_>,
        wordno: u32,
        out: &mut [Word],
        charged: u64,
    ) -> Result<(), KernelError> {
        debug_assert!(charged & 1 == 1 && charged >> (out.len() - 1) == 1);
        #[cfg(test)]
        if reference::per_word() {
            for (i, w) in out.iter_mut().enumerate() {
                if charged >> i & 1 == 0 {
                    continue;
                }
                *w = ctx.segm.read_word(
                    ctx.machine,
                    ctx.drm,
                    ctx.qcm,
                    ctx.pfm,
                    ctx.vpm,
                    ctx.flows,
                    self.dir,
                    wordno + i as u32,
                    Label::BOTTOM,
                )?;
            }
            return Ok(());
        }
        let mut done = 0;
        while done < out.len() {
            let at = wordno + done as u32;
            let (pageno, offset) = (at / PAGE_WORDS as u32, at as usize % PAGE_WORDS);
            let frame = match self.page {
                Some((p, frame)) if p == pageno => frame,
                _ => {
                    // What is read so far goes on the clock before any
                    // fault the full path takes, and a failed touch
                    // leaves no page behind.
                    self.flush(ctx);
                    self.page = None;
                    let abs = ctx.segm.touch_word(
                        ctx.machine,
                        ctx.drm,
                        ctx.qcm,
                        ctx.pfm,
                        ctx.vpm,
                        ctx.flows,
                        self.dir,
                        at,
                        Label::BOTTOM,
                        false,
                    )?;
                    let frame = AbsAddr(abs.0 - offset as u64);
                    self.page = Some((pageno, frame));
                    frame
                }
            };
            let n = (out.len() - done).min(PAGE_WORDS - offset);
            out[done..done + n].copy_from_slice(ctx.machine.mem.words(frame.add(offset as u64), n));
            let run = charged >> done & ((1 << n) - 1);
            self.pending += u64::from(run.count_ones());
            done += n;
        }
        Ok(())
    }

    fn flush(&mut self, ctx: &mut FsCtx<'_>) {
        let cost = ctx.machine.cost;
        let blocks = std::mem::take(&mut self.blocks);
        let n = SCAN_INSTR_PER_SLOT;
        ctx.machine
            .clock
            .charge_instruction_blocks(&cost, n, Language::Pli, blocks);
        let charges = RefCharges {
            core_accesses: std::mem::take(&mut self.pending),
            ..RefCharges::default()
        };
        ctx.machine.clock.charge_reference(&cost, charges);
    }

    /// One word, charged.
    fn word(&mut self, ctx: &mut FsCtx<'_>, wordno: u32) -> Result<Word, KernelError> {
        let mut w = [Word::ZERO];
        self.read(ctx, wordno, &mut w, 1)?;
        self.flush(ctx);
        Ok(w[0])
    }

    /// The first unused slot below `count`, else `count`: the in-use
    /// flags in slot order, each read in place when it lies on the page
    /// the reader holds.
    fn first_unused(&mut self, ctx: &mut FsCtx<'_>, count: u32) -> Result<u32, KernelError> {
        let mut slot = 0;
        while slot < count {
            let at = DirectoryManager::entry_base(slot) + 1;
            let flags = match self.held(&ctx.machine.mem, at, 1) {
                Some(words) => {
                    self.pending += 1;
                    words[0]
                }
                None => {
                    let mut flags = [Word::ZERO];
                    self.read(ctx, at, &mut flags, 1)?;
                    flags[0]
                }
            };
            if flags.raw() & 1 == 0 {
                break;
            }
            slot += 1;
        }
        self.flush(ctx);
        Ok(slot)
    }

    /// Entry `slot`, `None` if unused, charged as the record codec reads
    /// it: the flags word (1), then for an entry in use [`RECORD`].
    fn entry(
        &mut self,
        ctx: &mut FsCtx<'_>,
        slot: u32,
    ) -> Result<Option<StoredEntry>, KernelError> {
        let base = DirectoryManager::entry_base(slot);
        let mut e = StoredEntry([Word::ZERO; ENTRY_WORDS as usize]);
        self.read(ctx, base + 1, &mut e.0[1..2], 1)?;
        let in_use = e.0[1].raw() & 1 != 0;
        if in_use {
            self.read(ctx, base, &mut e.0[..RECORD_SPAN], RECORD)?;
        }
        self.flush(ctx);
        Ok(in_use.then_some(e))
    }

    /// `scan`'s walk: the first slot below `count` in use and named by
    /// `key`, copied as [`EntryReader::entry`] copies it. Every slot
    /// passed costs a PL/I block, due before the slot's first word: it
    /// waits with the core accesses for the charge before the next page
    /// touch, so it lands in the same place. A slot whose words lie on
    /// the page the reader holds is read in place; any other takes
    /// [`EntryReader::entry`]'s path.
    fn find(
        &mut self,
        ctx: &mut FsCtx<'_>,
        count: u32,
        key: &NameKey,
    ) -> Result<Option<(u32, StoredEntry)>, KernelError> {
        #[cfg(test)]
        if reference::per_word() {
            return reference::find(self, ctx, count, key);
        }
        for slot in 0..count {
            self.blocks += 1;
            let base = DirectoryManager::entry_base(slot);
            let found = match self.held(&ctx.machine.mem, base, RECORD_SPAN) {
                Some(words) if words[1].raw() & 1 == 0 => {
                    self.pending += 1;
                    None
                }
                Some(words) => {
                    self.pending += IN_USE_READS;
                    key.matches(name_words(words))
                        .then(|| StoredEntry::copied(words))
                }
                None => self
                    .entry(ctx, slot)?
                    .filter(|e| key.matches(e.name_words())),
            };
            if let Some(e) = found {
                self.flush(ctx);
                return Ok(Some((slot, e)));
            }
        }
        self.flush(ctx);
        Ok(None)
    }
}

/// The per-slot, per-word loop the cursor replaced, kept as the
/// reference the tests compare it against.
#[cfg(test)]
mod reference {
    use super::{EntryReader, FsCtx, KernelError, NameKey, StoredEntry, SCAN_INSTR_PER_SLOT};
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

    /// `scan`'s loop before the walk.
    pub(super) fn find(
        reader: &mut EntryReader,
        ctx: &mut FsCtx<'_>,
        count: u32,
        key: &NameKey,
    ) -> Result<Option<(u32, StoredEntry)>, KernelError> {
        for slot in 0..count {
            crate::charge_pli(ctx.machine, SCAN_INSTR_PER_SLOT);
            if let Some(e) = reader.entry(ctx, slot)? {
                if key.matches(e.name_words()) {
                    return Ok(Some((slot, e)));
                }
            }
        }
        Ok(None)
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
        let mut max_uid = root.0;
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
        1 + slot * ENTRY_WORDS
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
        Ok(EntryReader::new(dir).word(ctx, 0)?.raw() as u32)
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
        Ok(EntryReader::new(dir).entry(ctx, slot)?.map(|e| e.decode()))
    }

    /// Every entry in use in the active directory `dir`, with its slot,
    /// in slot order.
    pub(crate) fn entries(
        &self,
        ctx: &mut FsCtx<'_>,
        dir: SegUid,
    ) -> Result<Vec<(u32, EntryRecord)>, KernelError> {
        let mut reader = EntryReader::new(dir);
        let count = reader.word(ctx, 0)?.raw() as u32;
        let mut out = Vec::new();
        for slot in 0..count {
            if let Some(e) = reader.entry(ctx, slot)? {
                out.push((slot, e.decode()));
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
        let base = Self::entry_base(slot);
        self.seg_write(ctx, dir, base, Word::new(e.uid.0))?;
        self.seg_write(ctx, dir, base + 2, Word::new(u64::from(e.home.pack.0)))?;
        self.seg_write(ctx, dir, base + 3, Word::new(u64::from(e.home.toc.0)))?;
        for (i, w) in pack_name(&e.name).iter().enumerate() {
            self.seg_write(ctx, dir, base + 4 + i as u32, *w)?;
        }
        let (users, rights) = e.acl.pack();
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
        flags |= pack_label(e.label) << 3;
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
                name: String::new(),
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
        let count = reader.word(ctx, 0)?.raw() as u32;
        let found = reader.find(ctx, count, &NameKey::new(name))?;
        Ok(found.map(|(slot, e)| (slot, e.decode())))
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
        let count = reader.word(ctx, 0)?.raw() as u32;
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
            name: name.to_string(),
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
            if let Some((slot, mut e)) = self.scan_slot(ctx, parent, b.slot)? {
                e.quota_dir = true;
                e.quota_limit = limit;
                self.write_entry(ctx, parent, slot, &e)?;
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
            if let Some((slot, mut e)) = self.scan_slot(ctx, parent, b.slot)? {
                e.quota_dir = false;
                e.quota_limit = 0;
                self.write_entry(ctx, parent, slot, &e)?;
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

    fn scan_slot(
        &self,
        ctx: &mut FsCtx<'_>,
        dir: SegUid,
        slot: u32,
    ) -> Result<Option<(u32, EntryRecord)>, KernelError> {
        Ok(self.read_entry(ctx, dir, slot)?.map(|e| (slot, e)))
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
        let bdir = *self.branch.get(&dir).ok_or(KernelError::NoAccess)?;
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
        let _ = bdir;
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
            .map(|(_, e)| e.name)
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

    #[test]
    fn label_codec_round_trip() {
        let l = Label::new(Level(3), CompartmentSet::from_bits(0b1011));
        assert_eq!(unpack_label(pack_label(l)), l);
    }

    #[test]
    fn mix_is_deterministic_and_spread() {
        assert_eq!(mix(1), mix(1));
        assert_ne!(mix(1), mix(2));
        assert_ne!(name_hash("a"), name_hash("b"));
    }

    use crate::kernel::{Kernel, KernelConfig};
    use crate::types::ProcessId;
    use mx_hw::SplitMix64;

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
            let n = a.mem.size_words();
            assert!(
                a.mem.words(AbsAddr(0), n) == b.mem.words(AbsAddr(0), n),
                "core image after {at}"
            );
            out
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

    /// The walk's cases the churn reached, told from the entry layout.
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
    }

    impl Walked {
        fn matched(&mut self, slot: u32) {
            let page = |wordno: u32| wordno / PAGE_WORDS as u32;
            let base = DirectoryManager::entry_base(slot);
            if page(base) != page(base + RECORD_SPAN as u32 - 1) {
                self.straddling += 1;
            } else if slot == 0 || page(DirectoryManager::entry_base(slot - 1) + 1) == page(base) {
                self.in_place += 1;
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
    /// entry, and an unused slot found past page 0.
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
        let mut walked = Walked::default();
        let mut live = HashMap::new();
        for i in 0..900 {
            let name = format!("n{}", rng.below(240));
            let at = format!("step {i} ({name})");
            match rng.below(10) {
                0..=5 => {
                    let count = t.slots(d_uid);
                    let made = t.step(&at, |k, pid| {
                        k.create_entry(pid, d, &name, Acl::owner(USER), Label::BOTTOM, false)
                    });
                    match made {
                        Ok(token) => {
                            let uid = t.cursor.dirm.resolve_token(token).unwrap();
                            let slot = t.cursor.dirm.branch[&uid].slot;
                            reused += usize::from(slot < count);
                            let flags = DirectoryManager::entry_base(slot) + 1;
                            walked.unused_past_page_0 +=
                                usize::from(slot < count && flags >= PAGE_WORDS as u32);
                            live.insert(name.clone(), slot);
                        }
                        Err(KernelError::NameDuplicated) => walked.matched(live[&name]),
                        Err(_) => {}
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
                        walked.matched(live.remove(&name).expect("a live name"));
                    }
                }
                7..=8 => {
                    // A miss scans every slot, so every page of `d`.
                    let missing = format!("x{name}");
                    let found = t.step(&at, |k, pid| k.dir_search(pid, d, &missing));
                    assert_eq!(found, Err(KernelError::NoEntry));
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
        assert!(
            widest > 153,
            "scans reached the third straddling entry ({widest} slots)"
        );
        assert!(
            deleted > 20 && reused > 5,
            "unused slots scanned and reclaimed"
        );
        assert!(left_page_evicted > 0, "a scan evicted a page it had left");
        assert!(
            walked.long_misses > 20
                && walked.in_place > 100
                && walked.straddling >= 3
                && walked.unused_past_page_0 > 5,
            "every case of the walk reached: {walked:?}"
        );
    }
}
