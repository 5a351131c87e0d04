//! The monolithic supervisor: shared state, bootload, and fault dispatch.
//!
//! [`Supervisor`] owns the whole machine plus every supervisor data base.
//! The per-module source files (`page_control`, `segment_control`,
//! `directory_control`, …) add `impl Supervisor` blocks; because they
//! all operate on the same struct with direct field access, the
//! implementation *is* the tangle of shared writable data bases the
//! paper's Figure 3 documents. The declared dependency registry in
//! [`crate::registry`] mirrors what the code in these impl blocks
//! actually touches.

use std::collections::{HashMap, VecDeque};

use crate::ast::{ActiveSegmentTable, Aste, QuotaCell, PT_WORDS};
use crate::types::{DiskHome, LegacyError, ProcessId, SegUid, UserId};
use mx_aim::{FlowTracker, Label, ReferenceMonitor};
use mx_hw::cpu::{AccessMode, DescBase, Ptw, Sdw};
use mx_hw::meter::{CounterSet, Subsystem};
use mx_hw::{
    AbsAddr, Fault, FrameNo, FrameTable, HwFeatures, IdMap, Known, Kst, Language, Machine,
    VirtAddr, Word, PAGE_WORDS,
};

pub use mx_hw::MAX_SEGNO;

/// Configuration for bootloading the old supervisor: the one both
/// designs boot from. The old supervisor boots it on
/// [`HwFeatures::BASE_1974`].
pub use mx_hw::BootConfig as SupervisorConfig;

/// Counters the experiments read.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    /// Page faults serviced.
    pub page_faults: u64,
    /// Segment faults serviced.
    pub segment_faults: u64,
    /// Interpretive retranslations performed under the global lock.
    pub retranslations: u64,
    /// Retranslations that found the fault already serviced by another
    /// processor (the race the lock window admits).
    pub retranslations_resolved: u64,
    /// Global-lock acquisitions that found the lock held.
    pub lock_contentions: u64,
    /// Total levels walked by the dynamic quota search.
    pub quota_walk_levels: u64,
    /// Individual quota searches.
    pub quota_walks: u64,
    /// Pages evicted.
    pub evictions: u64,
    /// Evicted pages found all-zero and reverted to file-map flags.
    pub zero_reversions: u64,
    /// Whole-segment relocations forced by full packs.
    pub relocations: u64,
    /// Pages materialized (frame + record assigned).
    pub materializations: u64,
    /// Transient disk-read errors absorbed by the retry budget.
    pub disk_retries: u64,
}

impl Stats {
    /// Renders every counter for the trace report, in declaration order.
    pub fn counters(&self) -> CounterSet {
        let mut set = CounterSet::new();
        set.set("page_faults", self.page_faults);
        set.set("segment_faults", self.segment_faults);
        set.set("retranslations", self.retranslations);
        set.set("retranslations_resolved", self.retranslations_resolved);
        set.set("lock_contentions", self.lock_contentions);
        set.set("quota_walk_levels", self.quota_walk_levels);
        set.set("quota_walks", self.quota_walks);
        set.set("evictions", self.evictions);
        set.set("zero_reversions", self.zero_reversions);
        set.set("relocations", self.relocations);
        set.set("materializations", self.materializations);
        set.set("disk_retries", self.disk_retries);
        set
    }
}

/// The branch table: the naming layers' record of where every file-system
/// object hangs — uid to (parent uid, entry slot, directory?). Segment
/// control reads this "data base maintained by address space control"
/// directly when it must find and rewrite a directory entry during
/// relocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Branch {
    /// The superior directory's uid (`None` for the root).
    pub parent: Option<SegUid>,
    /// Entry slot within the superior directory segment.
    pub slot: u32,
    /// True if the object is a directory.
    pub is_dir: bool,
}

/// Per-process known-segment-table entry.
#[derive(Debug, Clone)]
pub(crate) struct KstEntry {
    pub uid: SegUid,
    /// Access the connecting SDW should grant (derived from the ACL at
    /// initiation).
    pub read: bool,
    pub write: bool,
    pub execute: bool,
}

impl Known for KstEntry {
    fn uid(&self) -> SegUid {
        self.uid
    }
}

/// Scheduling state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProcState {
    Ready,
    Running,
    /// Waiting for a page or segment fault service.
    Blocked,
    /// Logged out / destroyed.
    Dead,
}

/// A process: its address space and identity.
#[derive(Debug, Clone)]
pub(crate) struct Process {
    pub id: ProcessId,
    pub user: UserId,
    pub label: Label,
    /// Wired frame holding this process's descriptor segment.
    pub dseg_frame: FrameNo,
    /// Known segment table.
    pub kst: Kst<KstEntry>,
    pub state: ProcState,
    /// The segment holding the process's swappable state — making
    /// process implementation depend on the virtual memory, which is the
    /// central loop of Figure 3.
    pub state_uid: Option<SegUid>,
    /// Accumulated accounting units (the answering service bills these).
    pub cpu_charge: u64,
}

/// The global page-control lock of the old design.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct GlobalLock {
    pub held: bool,
}

/// The old Multics supervisor.
#[derive(Debug)]
pub struct Supervisor {
    /// The machine everything runs on (1974 feature level).
    pub machine: Machine,
    /// Frame ownership, by AST index, and the replacement clock hand.
    pub frames: FrameTable,
    /// The active segment table.
    pub ast: ActiveSegmentTable,
    /// The AIM reference monitor (box 1 of the plan was already done).
    pub monitor: ReferenceMonitor,
    /// Observed information flows (for the confinement experiment).
    pub flows: FlowTracker,
    /// Experiment counters.
    pub stats: Stats,
    pub(crate) processes: Vec<Option<Process>>,
    pub(crate) branch_table: IdMap<SegUid, Branch>,
    pub(crate) next_uid: u64,
    pub(crate) root_uid: SegUid,
    pub(crate) root_home: DiskHome,
    pub(crate) lock: GlobalLock,
    pub(crate) ready: VecDeque<ProcessId>,
    pub(crate) current: Option<ProcessId>,
    /// In-kernel linker data: per-segment definition lists (as if read
    /// from object-segment headers).
    pub(crate) definitions: HashMap<SegUid, Vec<(String, u32)>>,
    /// Per-process snapped links: (process, target uid) → symbol →
    /// (segno, offset), so a probe borrows the symbol.
    pub(crate) linkage: IdMap<(ProcessId, SegUid), HashMap<String, (u32, u32)>>,
    /// Answering-service user registry.
    pub(crate) users: HashMap<String, crate::answering::UserAccount>,
    /// In-kernel network handlers, one per attached network.
    pub(crate) networks: Vec<crate::network::NetworkHandler>,
    /// In-progress online salvage, if one is running (see
    /// [`Supervisor::begin_online_salvage`]).
    pub(crate) online: Option<mx_hw::salvage::Online<Supervisor>>,
    max_processes: u32,
    dseg_frame_base: u32,
}

impl Supervisor {
    /// Bootloads the old supervisor on 1974-feature-level hardware.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not leave at least eight
    /// pageable frames.
    pub fn boot(config: SupervisorConfig) -> Self {
        let mut sup = Self::assemble(&config, Machine::new(config.machine(HwFeatures::BASE_1974)));
        sup.create_root(config.root_quota);
        sup
    }

    /// Builds the supervisor structures on `machine` without touching
    /// the disks — shared by [`Supervisor::boot`] (which then creates
    /// the root on a new machine) and [`Supervisor::boot_from_image`]
    /// (which recovers it from the packs of the machine that crashed).
    pub(crate) fn assemble(config: &SupervisorConfig, machine: Machine) -> Self {
        // Low-core layout: frame 0 scratch, then the page-table pool,
        // then one dseg frame per process slot.
        let pt_frames = (ActiveSegmentTable::pt_pool_words(config.pt_slots as usize) as usize)
            .div_ceil(PAGE_WORDS) as u32;
        let dseg_frame_base = 1 + pt_frames;
        let wired = dseg_frame_base + config.max_processes;
        assert!(
            (wired as usize) + 8 <= config.frames,
            "configuration leaves fewer than 8 pageable frames"
        );
        let frames = FrameTable::new(config.frames, wired);
        let ast = ActiveSegmentTable::new(config.pt_slots as usize, FrameNo(1).base());

        Self {
            machine,
            frames,
            ast,
            monitor: ReferenceMonitor::new(),
            flows: FlowTracker::new(),
            stats: Stats::default(),
            processes: (0..config.max_processes).map(|_| None).collect(),
            branch_table: IdMap::default(),
            next_uid: 1,
            root_uid: SegUid(0),
            root_home: DiskHome {
                pack: mx_hw::PackId(0),
                toc: mx_hw::TocIndex(0),
            },
            lock: GlobalLock::default(),
            ready: VecDeque::new(),
            current: None,
            definitions: HashMap::new(),
            linkage: IdMap::default(),
            users: HashMap::new(),
            networks: Vec::new(),
            online: None,
            max_processes: config.max_processes,
            dseg_frame_base,
        }
    }

    /// Bootloads with the default configuration.
    pub fn boot_default() -> Self {
        Self::boot(SupervisorConfig::default())
    }

    fn create_root(&mut self, root_quota: u32) {
        let uid = self.allocate_uid();
        let pack = mx_hw::PackId(0);
        let toc = self
            .machine
            .disks
            .pack_mut(pack)
            .expect("pack 0 exists")
            .create_entry(uid.0)
            .expect("empty TOC");
        let aste = Aste {
            uid,
            home: DiskHome { pack, toc },
            pt_slot: 0,
            len_pages: 0,
            is_dir: true,
            parent: None,
            inferiors: 0,
            quota: Some(QuotaCell {
                limit: root_quota,
                used: 0,
            }),
            dir_home: None,
            connections: Vec::new(),
            label: Label::BOTTOM,
        };
        let astx = self.ast.activate(aste).expect("empty AST");
        self.root_uid = uid;
        self.root_home = DiskHome { pack, toc };
        self.branch_table.insert(
            uid,
            Branch {
                parent: None,
                slot: 0,
                is_dir: true,
            },
        );
        // Touch the header word so the directory has a first page.
        self.sup_write(astx, 0, Word::ZERO).expect("root header");
    }

    /// The uid of the root directory.
    pub fn root(&self) -> SegUid {
        self.root_uid
    }

    pub(crate) fn allocate_uid(&mut self) -> SegUid {
        let uid = SegUid(self.next_uid);
        self.next_uid += 1;
        uid
    }

    /// Absolute address of the dseg frame for a process slot.
    pub(crate) fn dseg_frame_for_slot(&self, slot: u32) -> FrameNo {
        FrameNo(self.dseg_frame_base + slot)
    }

    /// Number of process slots.
    pub(crate) fn process_slots(&self) -> u32 {
        self.max_processes
    }

    pub(crate) fn process(&self, pid: ProcessId) -> Result<&Process, LegacyError> {
        let p = self
            .processes
            .get(pid.0 as usize)
            .and_then(|p| p.as_ref())
            .filter(|p| p.state != ProcState::Dead)
            .ok_or(LegacyError::NoSuchProcess)?;
        debug_assert_eq!(p.id, pid, "process table slot consistent");
        Ok(p)
    }

    pub(crate) fn process_mut(&mut self, pid: ProcessId) -> Result<&mut Process, LegacyError> {
        self.processes
            .get_mut(pid.0 as usize)
            .and_then(|p| p.as_mut())
            .filter(|p| p.state != ProcState::Dead)
            .ok_or(LegacyError::NoSuchProcess)
    }

    // ----- page-table word access helpers -------------------------------

    /// Absolute address of the PTW for (astx, pageno).
    pub(crate) fn ptw_addr(&self, astx: usize, pageno: u32) -> AbsAddr {
        let aste = self.ast.get(astx).expect("live astx");
        debug_assert!(pageno < PT_WORDS);
        self.ast.pt_addr(aste.pt_slot).add(u64::from(pageno))
    }

    /// Reads and decodes a PTW.
    pub(crate) fn ptw(&self, astx: usize, pageno: u32) -> Ptw {
        Ptw::decode(self.machine.mem.read(self.ptw_addr(astx, pageno)))
    }

    /// Encodes and writes a PTW — the choke point every descriptor
    /// mutation in this supervisor goes through, so the associative
    /// memories are flushed here ("setfaults").
    pub(crate) fn set_ptw(&mut self, astx: usize, pageno: u32, ptw: Ptw) {
        let addr = self.ptw_addr(astx, pageno);
        self.machine.mem.write(addr, ptw.encode());
        self.machine.tlb_invalidate_ptw(addr);
    }

    // ----- supervisor access to segment contents ------------------------

    /// Reads one word of an active segment from supervisor state,
    /// faulting the page in if necessary.
    ///
    /// This is the path directory control uses to read directory
    /// contents: directory representations are stored in segments, so
    /// file-system operations really do page.
    ///
    /// # Errors
    ///
    /// Propagates paging errors (quota, full packs, pool exhaustion).
    pub fn sup_read(&mut self, astx: usize, wordno: u32) -> Result<Word, LegacyError> {
        let addr = self.sup_touch(astx, wordno, false)?;
        let cost = self.machine.cost;
        self.machine.clock.charge_core_access(&cost);
        Ok(self.machine.mem.read(addr))
    }

    /// Writes one word of an active segment from supervisor state,
    /// faulting/growing as necessary.
    ///
    /// # Errors
    ///
    /// Propagates paging errors (quota, full packs, pool exhaustion).
    pub fn sup_write(&mut self, astx: usize, wordno: u32, value: Word) -> Result<(), LegacyError> {
        let addr = self.sup_touch(astx, wordno, true)?;
        let cost = self.machine.cost;
        self.machine.clock.charge_core_access(&cost);
        self.machine.mem.write(addr, value);
        Ok(())
    }

    /// Brings the page under `wordno` resident and returns the word's
    /// absolute address, setting the PTW's used (and, for a write,
    /// modified) bit through [`Supervisor::set_ptw`] — everything of a
    /// supervisor word access but the core access itself.
    pub(crate) fn sup_touch(
        &mut self,
        astx: usize,
        wordno: u32,
        dirty: bool,
    ) -> Result<AbsAddr, LegacyError> {
        let pageno = wordno / PAGE_WORDS as u32;
        loop {
            let mut p = self.ptw(astx, pageno);
            if p.present {
                p.used = true;
                p.modified |= dirty;
                self.set_ptw(astx, pageno, p);
                return Ok(p.frame.base().add(u64::from(wordno % PAGE_WORDS as u32)));
            }
            self.service_page(astx, pageno, Label::BOTTOM)?;
        }
    }

    // ----- user access path ---------------------------------------------

    /// The real processor serving a process (the old supervisor has no
    /// VP layer, so the home is a simple `pid mod cpus`; a single-user
    /// workload stays on processor 0 exactly as before).
    pub(crate) fn cpu_for(&self, pid: ProcessId) -> mx_hw::ProcessorId {
        mx_hw::ProcessorId(pid.0 % self.machine.cpu_count() as u32)
    }

    /// Points the process's serving processor at its address space and
    /// returns that processor's id.
    pub(crate) fn load_dbr(&mut self, pid: ProcessId) -> Result<mx_hw::ProcessorId, LegacyError> {
        let frame = self.process(pid)?.dseg_frame;
        let cpu = self.cpu_for(pid);
        self.machine.cpus[cpu.0 as usize].dbr_user = Some(DescBase {
            base: frame.base(),
            len: MAX_SEGNO,
        });
        Ok(cpu)
    }

    /// Reads one word as a process, servicing faults like the real
    /// supervisor (missing segment → activate + connect; missing page →
    /// global lock, retranslate, page in).
    ///
    /// # Errors
    ///
    /// [`LegacyError::NoAccess`] on protection violations; paging errors
    /// otherwise.
    pub fn user_read(
        &mut self,
        pid: ProcessId,
        segno: u32,
        wordno: u32,
    ) -> Result<Word, LegacyError> {
        self.user_access(pid, segno, wordno, AccessMode::Read, None)
            .map(|w| w.expect("read returns a word"))
    }

    /// Writes one word as a process.
    ///
    /// # Errors
    ///
    /// [`LegacyError::NoAccess`] on protection violations; paging errors
    /// otherwise.
    pub fn user_write(
        &mut self,
        pid: ProcessId,
        segno: u32,
        wordno: u32,
        value: Word,
    ) -> Result<(), LegacyError> {
        self.user_access(pid, segno, wordno, AccessMode::Write, Some(value))
            .map(|_| ())
    }

    fn user_access(
        &mut self,
        pid: ProcessId,
        segno: u32,
        wordno: u32,
        mode: AccessMode,
        value: Option<Word>,
    ) -> Result<Option<Word>, LegacyError> {
        let cpu = self.load_dbr(pid)?;
        let va = VirtAddr::new(segno, wordno);
        // A real reference retries after each serviced fault; bound the
        // retries so a supervisor bug cannot hang the simulation.
        for _ in 0..8 {
            let attempt = match mode {
                AccessMode::Write => self
                    .machine
                    .write(cpu, va, value.expect("write value"))
                    .map(|()| None),
                _ => self.machine.read(cpu, va).map(Some),
            };
            match attempt {
                Ok(w) => {
                    self.machine.cpus[cpu.0 as usize].retire_op();
                    return Ok(w);
                }
                Err(fault) => self.handle_fault(pid, fault)?,
            }
        }
        Err(LegacyError::UnhandledFault(Fault::BadDescriptor { va }))
    }

    /// Attributes the cycles charged inside `f` to `subsystem`.
    ///
    /// Every supervisor entry point wraps its body with this so the
    /// clock's meter can report where the old design spends its time.
    /// Scopes nest across internal calls (directory control paging via
    /// page control, login creating a process), with each inner scope
    /// claiming its own cycles.
    pub(crate) fn scoped<T>(&mut self, subsystem: Subsystem, f: impl FnOnce(&mut Self) -> T) -> T {
        let guard = self.machine.clock.enter(subsystem);
        let result = f(self);
        self.machine.clock.exit(guard);
        result
    }

    /// The supervisor fault dispatcher.
    pub(crate) fn handle_fault(&mut self, pid: ProcessId, fault: Fault) -> Result<(), LegacyError> {
        match fault {
            Fault::MissingSegment { va } => {
                self.stats.segment_faults += 1;
                self.scoped(Subsystem::SegmentControl, |s| {
                    s.segment_fault(pid, va.segno)
                })
            }
            Fault::MissingPage { va, descriptor, .. } => {
                self.stats.page_faults += 1;
                self.scoped(Subsystem::PageControl, |s| {
                    s.page_fault(pid, va, descriptor)
                })
            }
            Fault::AccessViolation { .. } => Err(LegacyError::NoAccess),
            Fault::BoundsViolation { .. } => Err(LegacyError::SegmentTooBig),
            other => Err(LegacyError::UnhandledFault(other)),
        }
    }

    /// Reads the SDW for (process, segno) from the process's dseg.
    pub(crate) fn sdw(&self, pid: ProcessId, segno: u32) -> Sdw {
        let frame = self.processes[pid.0 as usize]
            .as_ref()
            .expect("live process")
            .dseg_frame;
        Sdw::decode(self.machine.mem.read(frame.base().add(u64::from(segno))))
    }

    /// Writes the SDW for (process, segno), flushing the associative
    /// memories for the rewritten descriptor.
    pub(crate) fn set_sdw(&mut self, pid: ProcessId, segno: u32, sdw: Sdw) {
        let frame = self.processes[pid.0 as usize]
            .as_ref()
            .expect("live process")
            .dseg_frame;
        let addr = frame.base().add(u64::from(segno));
        self.machine.mem.write(addr, sdw.encode());
        self.machine.tlb_invalidate_sdw(addr);
    }

    /// Charges `n` abstract instructions of supervisor code written in
    /// `lang` — the mechanism behind the PL/I-vs-assembly performance
    /// comparisons.
    pub(crate) fn charge(&mut self, n: u64, lang: Language) {
        let cost = self.machine.cost;
        self.machine.clock.charge_instructions(&cost, n, lang);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Acl;

    #[test]
    fn boot_builds_root_directory() {
        let sup = Supervisor::boot_default();
        let root_astx = sup.ast.find(sup.root()).expect("root active");
        let aste = sup.ast.get(root_astx).unwrap();
        assert!(aste.is_dir);
        assert!(aste.quota.is_some(), "root is a quota directory");
        assert_eq!(aste.len_pages, 1, "header page materialized");
        assert_eq!(sup.stats.materializations, 1);
    }

    /// The table grows on demand, keeps number 0 reserved, and binds the
    /// lowest free number: the same numbers the full-size table gave.
    /// `initiate` answers a full table with `KstFull` and a path the
    /// process knows with its number.
    #[test]
    fn kst_fills_at_max_segno_and_reuses_the_lowest_free_segno() {
        // Filler uids far above any the supervisor hands out.
        let entry = |uid| KstEntry {
            uid: SegUid(1 << 40 | uid),
            read: true,
            write: true,
            execute: false,
        };
        let mut sup = Supervisor::boot_default();
        let user = UserId(1);
        let pid = sup.create_process(user, Label::BOTTOM).unwrap();
        for name in ["s", "t", "u", "v"] {
            sup.create_segment_in(sup.root(), name, Acl::owner(user), Label::BOTTOM)
                .unwrap();
        }
        assert_eq!(sup.initiate(pid, "s"), Ok(1));
        let kst = &mut sup.process_mut(pid).unwrap().kst;
        for segno in 2..MAX_SEGNO {
            assert_eq!(kst.bind(entry(u64::from(segno))), Some(segno));
        }
        assert!(kst.get(0).is_none() && kst.get(MAX_SEGNO).is_none());
        assert_eq!(kst.segno_of(SegUid(1 << 40 | 700)), Some(700));
        assert_eq!(sup.initiate(pid, "t"), Err(LegacyError::KstFull));
        assert_eq!(sup.initiate(pid, "s"), Ok(1), "known path, same number");
        let kst = &mut sup.process_mut(pid).unwrap().kst;
        assert!(kst.unbind(700).is_some() && kst.unbind(5).is_some());
        assert_eq!(sup.initiate(pid, "t"), Ok(5), "lowest free segno first");
        assert_eq!(sup.initiate(pid, "u"), Ok(700));
        assert_eq!(sup.initiate(pid, "v"), Err(LegacyError::KstFull));
        assert_eq!(sup.initiate(pid, "u"), Ok(700));
    }

    #[test]
    fn sup_read_write_round_trip_pages_in() {
        let mut sup = Supervisor::boot_default();
        let root = sup.ast.find(sup.root()).unwrap();
        sup.sup_write(root, 100, Word::new(0o42)).unwrap();
        assert_eq!(sup.sup_read(root, 100).unwrap(), Word::new(0o42));
    }

    #[test]
    fn sup_write_grows_the_segment_across_pages() {
        let mut sup = Supervisor::boot_default();
        let root = sup.ast.find(sup.root()).unwrap();
        let far = 3 * PAGE_WORDS as u32 + 5;
        sup.sup_write(root, far, Word::new(7)).unwrap();
        assert_eq!(sup.ast.get(root).unwrap().len_pages, 4);
        assert_eq!(sup.sup_read(root, far).unwrap(), Word::new(7));
        // Quota charged for the materialized pages.
        let used = sup.ast.get(root).unwrap().quota.unwrap().used;
        assert!(used >= 2, "root charged for materialized pages, got {used}");
    }

    #[test]
    #[should_panic(expected = "fewer than 8 pageable frames")]
    fn boot_rejects_cramped_configurations() {
        let _ = Supervisor::boot(SupervisorConfig {
            frames: 20,
            ..Default::default()
        });
    }
}
