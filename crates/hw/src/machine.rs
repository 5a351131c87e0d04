//! The assembled machine: memory + processors + disks + clock.
//!
//! [`Machine`] is the single mutable world the supervisor implementations
//! operate on. Its methods split borrows across the component fields so a
//! processor can walk descriptor tables held in main memory while the
//! clock accumulates charges.

use crate::clock::{Clock, CostModel};
use crate::cpu::{HwFeatures, Processor, ProcessorId};
use crate::disk::{DiskError, DiskSystem, PackId, RecordNo};
use crate::fault::Fault;
use crate::faultinj::{DiskFaults, FaultPlan, HwFault, WriteFate};
use crate::mem::{AbsAddr, FrameNo, MainMemory, ALL_LIVE, PAGE_WORDS};
use crate::tlb::TlbStats;
use crate::word::Word;
use crate::VirtAddr;

/// Real processors of every machine.
pub const CPUS: u32 = 2;

/// Configuration for building a [`Machine`] of [`CPUS`] processors with
/// the default [`CostModel`].
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Page frames of primary memory.
    pub frames: usize,
    /// Number of disk packs to attach at bootload.
    pub packs: u32,
    /// Records (pages) per pack.
    pub records_per_pack: u32,
    /// Table-of-contents slots per pack.
    pub toc_slots_per_pack: u32,
    /// Hardware feature set.
    pub features: HwFeatures,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            frames: 256,
            packs: 2,
            records_per_pack: 1024,
            toc_slots_per_pack: 256,
            features: HwFeatures::BASE_1974,
        }
    }
}

impl MachineConfig {
    /// A configuration with the paper's proposed hardware additions on.
    pub fn kernel_proposed() -> Self {
        Self {
            features: HwFeatures::KERNEL_PROPOSED,
            ..Self::default()
        }
    }
}

/// What either design is bootloaded with: the machine's sizes and the
/// supervisor's table sizes. Each design picks its own feature set and
/// lays out its own wired frames from these.
#[derive(Debug, Clone)]
pub struct BootConfig {
    /// Core frames.
    pub frames: usize,
    /// Disk packs attached at bootload.
    pub packs: u32,
    /// Records per pack.
    pub records_per_pack: u32,
    /// TOC slots per pack.
    pub toc_slots_per_pack: u32,
    /// Page-table pool slots: the most segments active at once (the old
    /// supervisor's AST slots).
    pub pt_slots: u32,
    /// Process slots, each owning one wired descriptor-segment frame.
    pub max_processes: u32,
    /// Page quota placed on the root directory at bootload.
    pub root_quota: u32,
}

impl BootConfig {
    /// The machine this configuration boots, with `features` on.
    pub fn machine(&self, features: HwFeatures) -> MachineConfig {
        MachineConfig {
            frames: self.frames,
            packs: self.packs,
            records_per_pack: self.records_per_pack,
            toc_slots_per_pack: self.toc_slots_per_pack,
            features,
        }
    }
}

impl Default for BootConfig {
    fn default() -> Self {
        Self {
            frames: 256,
            packs: 2,
            records_per_pack: 1024,
            toc_slots_per_pack: 256,
            pt_slots: 64,
            max_processes: 16,
            root_quota: 1500,
        }
    }
}

/// The whole simulated machine.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Primary memory.
    pub mem: MainMemory,
    /// The cycle clock.
    pub clock: Clock,
    /// Cycle cost model.
    pub cost: CostModel,
    /// Real processors.
    pub cpus: Vec<Processor>,
    /// Attached disk packs.
    pub disks: DiskSystem,
    /// Fault-injection state on the disk channel (empty plan by default).
    pub faults: DiskFaults,
    /// Hardware feature set the machine was built with.
    pub features: HwFeatures,
}

impl Machine {
    /// Builds a machine from a configuration.
    pub fn new(config: MachineConfig) -> Self {
        let mut disks = DiskSystem::new();
        for _ in 0..config.packs {
            disks.attach(config.records_per_pack, config.toc_slots_per_pack);
        }
        let mem = MainMemory::new(config.frames);
        Self::on(&config, mem, disks)
    }

    /// Bootloads this machine again after a crash: exactly what
    /// [`Machine::new`] builds from `config`, except that the disks are
    /// this machine's and core is `config.frames` zeroed frames in this
    /// machine's own buffer. Only the packs survive; the clock, the
    /// processors and the fault-injection state start fresh.
    pub fn restart(self, config: MachineConfig) -> Self {
        let Self { mut mem, disks, .. } = self;
        mem.reset(config.frames);
        Self::on(&config, mem, disks)
    }

    fn on(config: &MachineConfig, mem: MainMemory, disks: DiskSystem) -> Self {
        Self {
            mem,
            clock: Clock::new(),
            cost: CostModel::default(),
            cpus: (0..CPUS)
                .map(|i| Processor::new(ProcessorId(i), config.features))
                .collect(),
            disks,
            faults: DiskFaults::default(),
            features: config.features,
        }
    }

    /// Installs a deterministic fault plan on the disk channel, resetting
    /// the transfer ordinals the plan is keyed off.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.faults.install(plan);
    }

    /// The machine-level fault that halted the machine, if any.
    pub fn hw_fault(&self) -> Option<HwFault> {
        self.faults.halted()
    }

    /// A default machine with the 1974 hardware base.
    pub fn base_1974() -> Self {
        Self::new(MachineConfig::default())
    }

    /// A default machine with the paper's proposed hardware additions.
    pub fn kernel_proposed() -> Self {
        Self::new(MachineConfig::kernel_proposed())
    }

    /// Reads one word through processor `cpu`'s address translation.
    ///
    /// # Errors
    ///
    /// Propagates any translation [`Fault`]; a processor id that names no
    /// real processor reports [`Fault::BadDescriptor`] rather than
    /// panicking.
    pub fn read(&mut self, cpu: ProcessorId, va: VirtAddr) -> Result<Word, Fault> {
        let Some(p) = self.cpus.get_mut(cpu.0 as usize) else {
            return Err(Fault::BadDescriptor { va });
        };
        p.read(&mut self.mem, &mut self.clock, &self.cost, va)
    }

    /// Writes one word through processor `cpu`'s address translation.
    ///
    /// # Errors
    ///
    /// Propagates any translation [`Fault`]; a processor id that names no
    /// real processor reports [`Fault::BadDescriptor`] rather than
    /// panicking.
    pub fn write(&mut self, cpu: ProcessorId, va: VirtAddr, value: Word) -> Result<(), Fault> {
        let Some(p) = self.cpus.get_mut(cpu.0 as usize) else {
            return Err(Fault::BadDescriptor { va });
        };
        p.write(&mut self.mem, &mut self.clock, &self.cost, va, value)
    }

    // ----- associative-memory invalidation broadcasts ---------------------
    //
    // The 6180's "clear associative memory" connects to every processor;
    // supervisor software invokes these whenever it rewrites a descriptor
    // word, addressed by the descriptor's core address (the "setfaults"
    // discipline). All are cheap no-ops when the feature is off.

    /// Flushes every processor's cached translations made from the PTW at
    /// `addr`.
    pub fn tlb_invalidate_ptw(&mut self, addr: AbsAddr) {
        for cpu in &mut self.cpus {
            cpu.tlb.invalidate_ptw(addr);
        }
    }

    /// Flushes every processor's cached translations made from the SDW at
    /// `addr`.
    pub fn tlb_invalidate_sdw(&mut self, addr: AbsAddr) {
        for cpu in &mut self.cpus {
            cpu.tlb.invalidate_sdw(addr);
        }
    }

    /// Flushes cached translations for a whole page table
    /// (`[base, base + len)`) on every processor — the flush a reused
    /// page-table slot requires.
    pub fn tlb_invalidate_ptw_range(&mut self, base: AbsAddr, len: u64) {
        for cpu in &mut self.cpus {
            cpu.tlb.invalidate_ptw_range(base, len);
        }
    }

    /// Flushes cached translations made from SDWs in `[base, base + len)`
    /// on every processor — required when a whole descriptor segment is
    /// rebuilt or its frame reused.
    pub fn tlb_invalidate_sdw_range(&mut self, base: AbsAddr, len: u64) {
        for cpu in &mut self.cpus {
            cpu.tlb.invalidate_sdw_range(base, len);
        }
    }

    /// Clears every processor's associative memory outright.
    pub fn tlb_clear(&mut self) {
        for cpu in &mut self.cpus {
            cpu.tlb.clear();
        }
    }

    /// Aggregated associative-memory tallies across all processors.
    pub fn tlb_stats(&self) -> TlbStats {
        self.cpus
            .iter()
            .fold(TlbStats::default(), |acc, cpu| acc.merge(&cpu.tlb.stats()))
    }

    /// Consults the fault plan for one read of `record` on `pack`,
    /// charging the clock for a transient failure (the transfer was
    /// attempted).
    fn note_read(&mut self, pack: PackId, record: RecordNo) -> Result<(), DiskError> {
        let noted = self.faults.note_read(pack, record);
        if let Err(DiskError::TransientRead { .. }) = noted {
            self.clock.charge_disk_transfer(&self.cost);
        }
        noted
    }

    /// Transfers a disk record into a core frame, charging the clock.
    /// Only the record's nonzero chunks and the frame's live chunks the
    /// record lacks are touched.
    ///
    /// # Errors
    ///
    /// Propagates [`DiskError`] for a bad pack or record, or an injected
    /// fault ([`DiskError::TransientRead`], [`DiskError::PackOffline`],
    /// [`DiskError::PowerFail`]) per the installed plan.
    pub fn disk_read_into_frame(
        &mut self,
        pack: PackId,
        record: RecordNo,
        frame: FrameNo,
    ) -> Result<(), DiskError> {
        self.note_read(pack, record)?;
        let data = self.disks.pack(pack)?.read_record(record)?;
        self.mem.load_frame(frame, data.live(), data.chunks());
        self.clock.charge_disk_transfer(&self.cost);
        Ok(())
    }

    /// Transfers a core frame onto a disk record, charging the clock.
    /// Only the frame's live chunks are looked at, and only its nonzero
    /// ones are kept.
    ///
    /// # Errors
    ///
    /// Propagates [`DiskError`] for a bad pack or record, or an injected
    /// fault per the installed plan; [`DiskError::PowerFail`] means the
    /// machine halted on this write (torn or dropped per the plan).
    pub fn disk_write_from_frame(
        &mut self,
        pack: PackId,
        record: RecordNo,
        frame: FrameNo,
    ) -> Result<(), DiskError> {
        let live = self.mem.live(frame);
        let data = self
            .mem
            .words(frame.base(), PAGE_WORDS)
            .try_into()
            .expect("a frame is one page of words");
        channel_write(
            &mut self.faults,
            &mut self.disks,
            &mut self.clock,
            &self.cost,
            pack,
            record,
            (data, live),
        )
    }

    /// Reads a whole record through the fault-checked channel, charging
    /// the clock (also on a transient failure — the transfer was
    /// attempted).
    ///
    /// # Errors
    ///
    /// Propagates [`DiskError`], including injected faults.
    pub fn disk_read_record(
        &mut self,
        pack: PackId,
        record: RecordNo,
    ) -> Result<crate::disk::RecordBuf, DiskError> {
        self.note_read(pack, record)?;
        let data = self.disks.pack(pack)?.read_record(record)?.page();
        self.clock.charge_disk_transfer(&self.cost);
        Ok(data)
    }

    /// Reads the word at `offset` of a record through the fault-checked
    /// channel, in place: the same fault check and the same charge as
    /// [`Machine::disk_read_record`], for a reader that wants one word.
    ///
    /// # Errors
    ///
    /// Propagates [`DiskError`], including injected faults.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is not below [`PAGE_WORDS`].
    pub fn disk_read_word(
        &mut self,
        pack: PackId,
        record: RecordNo,
        offset: usize,
    ) -> Result<Word, DiskError> {
        self.note_read(pack, record)?;
        let word = self.disks.pack(pack)?.read_record(record)?.word(offset);
        self.clock.charge_disk_transfer(&self.cost);
        Ok(word)
    }

    /// Writes a whole record through the fault-checked channel, charging
    /// the clock. On the plan's crash write, the payload is torn at a
    /// word boundary (or dropped), the machine halts, and every later
    /// disk operation reports [`DiskError::PowerFail`].
    ///
    /// # Errors
    ///
    /// Propagates [`DiskError`], including injected faults.
    pub fn disk_write_record(
        &mut self,
        pack: PackId,
        record: RecordNo,
        data: &[Word; PAGE_WORDS],
    ) -> Result<(), DiskError> {
        channel_write(
            &mut self.faults,
            &mut self.disks,
            &mut self.clock,
            &self.cost,
            pack,
            record,
            (data, ALL_LIVE),
        )
    }

    /// Number of real processors.
    pub fn cpu_count(&self) -> usize {
        self.cpus.len()
    }

    /// Posts a wakeup to `cpu`'s wakeup-waiting switch: a notification
    /// arriving between a locked-descriptor exception and the wait
    /// primitive must land on the *faulting processor*, not processor 0.
    /// Returns false, and sets nothing, if the machine lacks the
    /// [`HwFeatures::wakeup_waiting`] switch or `cpu` names no real
    /// processor.
    pub fn post_wakeup(&mut self, cpu: ProcessorId) -> bool {
        if !self.features.wakeup_waiting {
            return false;
        }
        match self.cpus.get_mut(cpu.0 as usize) {
            Some(p) => {
                p.wakeup_waiting = true;
                true
            }
            None => false,
        }
    }

    /// Per-processor retired user-operation tallies, indexed by
    /// [`ProcessorId`].
    pub fn ops_retired(&self) -> Vec<u64> {
        self.cpus.iter().map(|c| c.ops_retired).collect()
    }
}

/// One record write through the fault-checked channel, over the
/// machine's parts so that the page may be borrowed from its core. The
/// page comes with a live mask: its chunks outside the mask are zeros.
fn channel_write(
    faults: &mut DiskFaults,
    disks: &mut DiskSystem,
    clock: &mut Clock,
    cost: &CostModel,
    pack: PackId,
    record: RecordNo,
    (data, live): (&[Word; PAGE_WORDS], u16),
) -> Result<(), DiskError> {
    match faults.note_write(pack)? {
        WriteFate::Commit => {
            disks.pack_mut(pack)?.record_mut(record)?.store(data, live);
            clock.charge_disk_transfer(cost);
            Ok(())
        }
        WriteFate::Crash(mode) => {
            let words = match mode {
                crate::faultinj::CrashWrite::Dropped => 0,
                crate::faultinj::CrashWrite::Torn { words } => words.min(PAGE_WORDS),
            };
            if words > 0 {
                // A tear at a word boundary: the prefix is new data,
                // the rest keeps whatever the record held.
                if let Ok(pk) = disks.pack_mut(pack) {
                    if let Ok(old) = pk.read_record(record) {
                        let mut torn = old.page();
                        torn[..words].copy_from_slice(&data[..words]);
                        let _ = pk.write_record(record, &torn);
                        clock.charge_disk_transfer(cost);
                    }
                }
            }
            faults.halt();
            Err(DiskError::PowerFail)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{DescBase, Ptw, Sdw};
    use crate::mem::AbsAddr;

    #[test]
    fn default_machine_shape() {
        let m = Machine::base_1974();
        assert_eq!(m.cpu_count(), 2);
        assert_eq!(m.disks.pack_count(), 2);
        assert_eq!(m.mem.frames(), 256);
        assert!(!m.features.descriptor_lock);
        let k = Machine::kernel_proposed();
        assert!(k.features.descriptor_lock && k.features.dual_dbr);
    }

    #[test]
    fn machine_read_write_through_translation() {
        let mut m = Machine::base_1974();
        // Descriptor table at frame 0, page table at frame 1, page at 2.
        let pt = FrameNo(1).base();
        m.mem.write(
            pt,
            Ptw {
                frame: FrameNo(2),
                present: true,
                ..Ptw::default()
            }
            .encode(),
        );
        let sdw = Sdw {
            page_table: pt,
            bound_pages: 1,
            read: true,
            write: true,
            execute: false,
            present: true,
            software: false,
        };
        m.mem.write(AbsAddr(0), sdw.encode());
        m.cpus[0].dbr_user = Some(DescBase {
            base: AbsAddr(0),
            len: 1,
        });
        let va = VirtAddr::new(0, 9);
        m.write(ProcessorId(0), va, Word::new(3)).unwrap();
        assert_eq!(m.read(ProcessorId(0), va).unwrap(), Word::new(3));
        assert!(m.clock.now() > 0);
    }

    #[test]
    fn bad_processor_id_is_a_fault_not_a_panic() {
        let mut m = Machine::base_1974();
        let va = VirtAddr::new(0, 0);
        assert!(matches!(
            m.read(ProcessorId(99), va),
            Err(Fault::BadDescriptor { .. })
        ));
        assert!(matches!(
            m.write(ProcessorId(99), va, Word::new(1)),
            Err(Fault::BadDescriptor { .. })
        ));
    }

    #[test]
    fn tlb_invalidation_broadcasts_to_every_processor() {
        let mut m = Machine::kernel_proposed();
        let pt = FrameNo(1).base();
        m.mem.write(
            pt,
            Ptw {
                frame: FrameNo(2),
                present: true,
                ..Ptw::default()
            }
            .encode(),
        );
        let sdw = Sdw {
            page_table: pt,
            bound_pages: 1,
            read: true,
            write: true,
            execute: false,
            present: true,
            software: false,
        };
        m.mem.write(AbsAddr(0), sdw.encode());
        for cpu in &mut m.cpus {
            cpu.dbr_user = Some(DescBase {
                base: AbsAddr(0),
                len: 1,
            });
            cpu.system_segno_limit = 0;
        }
        let va = VirtAddr::new(0, 3);
        m.read(ProcessorId(0), va).unwrap();
        m.read(ProcessorId(1), va).unwrap();
        assert_eq!(m.tlb_stats().fills, 2);
        m.tlb_invalidate_ptw(pt);
        assert_eq!(m.tlb_stats().invalidations, 2, "both processors flushed");
        assert!(m.cpus.iter().all(|c| c.tlb.resident() == 0));
    }

    #[test]
    fn crash_write_tears_at_a_word_boundary_and_halts() {
        use crate::faultinj::{CrashWrite, FaultPlan, HwFault};
        let mut m = Machine::base_1974();
        let pack = PackId(0);
        let rec = m.disks.pack_mut(pack).unwrap().allocate_record().unwrap();
        // Seed the record with old data.
        let old = [Word::new(0o111); PAGE_WORDS];
        m.disks
            .pack_mut(pack)
            .unwrap()
            .write_record(rec, &old)
            .unwrap();
        m.install_fault_plan(FaultPlan::new().crash_after_writes(1, CrashWrite::Torn { words: 4 }));
        let new = [Word::new(0o222); PAGE_WORDS];
        assert_eq!(
            m.disk_write_record(pack, rec, &new),
            Err(DiskError::PowerFail)
        );
        assert_eq!(m.hw_fault(), Some(HwFault::PowerFail { at_write: 1 }));
        // Subsequent operations fail while halted; the image is frozen.
        assert_eq!(
            m.disk_read_into_frame(pack, rec, FrameNo(5)),
            Err(DiskError::PowerFail)
        );
        let surviving = m.disks.pack(pack).unwrap().read_record(rec).unwrap();
        assert_eq!(
            surviving.word(3),
            Word::new(0o222),
            "prefix reached the platter"
        );
        assert_eq!(
            surviving.word(4),
            Word::new(0o111),
            "suffix kept old contents"
        );
        // A dropped crash write leaves the record untouched.
        let mut m2 = Machine::base_1974();
        let rec2 = m2.disks.pack_mut(pack).unwrap().allocate_record().unwrap();
        m2.disks
            .pack_mut(pack)
            .unwrap()
            .write_record(rec2, &old)
            .unwrap();
        m2.install_fault_plan(FaultPlan::new().crash_after_writes(1, CrashWrite::Dropped));
        assert_eq!(
            m2.disk_write_record(pack, rec2, &new),
            Err(DiskError::PowerFail)
        );
        assert_eq!(
            m2.disks
                .pack(pack)
                .unwrap()
                .read_record(rec2)
                .unwrap()
                .word(0),
            Word::new(0o111)
        );
    }

    #[test]
    fn transient_read_fails_once_then_recovers() {
        use crate::faultinj::FaultPlan;
        let mut m = Machine::base_1974();
        let pack = PackId(0);
        let rec = m.disks.pack_mut(pack).unwrap().allocate_record().unwrap();
        m.mem.write(FrameNo(5).base(), Word::new(0o42));
        m.disk_write_from_frame(pack, rec, FrameNo(5)).unwrap();
        m.install_fault_plan(FaultPlan::new().transient_read(pack, rec, 1));
        assert_eq!(
            m.disk_read_into_frame(pack, rec, FrameNo(6)),
            Err(DiskError::TransientRead { pack, record: rec })
        );
        m.disk_read_into_frame(pack, rec, FrameNo(6)).unwrap();
        assert_eq!(m.mem.read(FrameNo(6).base()), Word::new(0o42));
        assert!(m.hw_fault().is_none());
    }

    #[test]
    fn the_1974_base_has_no_wakeup_waiting_switch() {
        let mut m = Machine::base_1974();
        assert!(!m.post_wakeup(ProcessorId(0)));
        assert!(!m.cpus[0].take_wakeup_waiting());
        let mut k = Machine::kernel_proposed();
        assert!(k.post_wakeup(ProcessorId(0)));
        assert!(k.cpus[0].take_wakeup_waiting());
        assert!(!k.post_wakeup(ProcessorId(k.cpu_count() as u32)));
    }

    #[test]
    fn restart_is_new_with_the_crashed_machines_disks() {
        use crate::faultinj::{CrashWrite, FaultPlan};
        use crate::meter::Subsystem;
        let config = MachineConfig {
            frames: 8,
            packs: 2,
            records_per_pack: 8,
            toc_slots_per_pack: 4,
            ..MachineConfig::kernel_proposed()
        };
        // A machine with every kind of state a crash leaves behind.
        let crashed = || {
            let mut m = Machine::new(config.clone());
            let pt = FrameNo(1).base();
            let ptw = Ptw {
                frame: FrameNo(2),
                present: true,
                ..Ptw::default()
            };
            m.mem.write(pt, ptw.encode());
            let sdw = Sdw {
                page_table: pt,
                bound_pages: 1,
                read: true,
                write: true,
                execute: false,
                present: true,
                software: false,
            };
            m.mem.write(AbsAddr(0), sdw.encode());
            for cpu in &mut m.cpus {
                cpu.dbr_user = Some(DescBase {
                    base: AbsAddr(0),
                    len: 1,
                });
                cpu.system_segno_limit = 0;
            }
            let va = VirtAddr::new(0, 5);
            m.write(ProcessorId(0), va, Word::new(0o55)).unwrap();
            m.read(ProcessorId(1), va).unwrap();
            // A frame written past the initialized prefix.
            m.mem.write(FrameNo(7).base().add(700), Word::new(0o77));
            assert_eq!(m.tlb_stats().fills, 2, "both processors filled");
            let guard = m.clock.enter(Subsystem::Salvager);
            m.clock
                .charge_instructions(&m.cost, 9, crate::Language::Pli);
            m.clock.exit(guard);
            let rec = m
                .disks
                .pack_mut(PackId(0))
                .unwrap()
                .allocate_record()
                .unwrap();
            m.install_fault_plan(
                FaultPlan::new().crash_after_writes(2, CrashWrite::Torn { words: 3 }),
            );
            m.disk_write_from_frame(PackId(0), rec, FrameNo(2)).unwrap();
            m.disk_read_into_frame(PackId(0), rec, FrameNo(3)).unwrap();
            m.faults.set_offline(PackId(1), true);
            assert_eq!(
                m.disk_write_from_frame(PackId(0), rec, FrameNo(1)),
                Err(DiskError::PowerFail)
            );
            assert!(m.hw_fault().is_some());
            m
        };
        for frames in [8, 5, 12] {
            let config = MachineConfig {
                frames,
                ..config.clone()
            };
            let m = crashed();
            let mut fresh = Machine::new(config.clone());
            fresh.disks = m.disks.clone();
            let mut restarted = m.restart(config);
            assert_eq!(
                format!("{restarted:?}"),
                format!("{fresh:?}"),
                "restart at {frames} frames"
            );
            // Each frame first written after the bootload: past the
            // fresh core's prefix, inside or past the restarted one's.
            for f in [frames - 1, 6.min(frames - 1), 0] {
                let at = FrameNo(f as u32).base().add(f as u64);
                restarted.mem.write(at, Word::new(0o66));
                fresh.mem.write(at, Word::new(0o66));
                assert_eq!(restarted.mem, fresh.mem, "frame {f} at {frames} frames");
            }
        }
    }

    #[test]
    fn disk_read_word_is_disk_read_record_at_one_offset() {
        use crate::faultinj::{CrashWrite, FaultPlan};
        /// One read both ways, on twin machines: the same answer, and the
        /// same cycles, transfers and fault counters left behind. Returns
        /// the answer and the cycles it charged.
        fn read(
            twins: &mut [Machine; 2],
            rec: RecordNo,
            off: usize,
        ) -> (Result<Word, DiskError>, u64) {
            let [whole, word] = twins;
            let before = whole.clock.now();
            let a = whole.disk_read_record(PackId(0), rec).map(|buf| buf[off]);
            let b = word.disk_read_word(PackId(0), rec, off);
            assert_eq!(a, b);
            assert_eq!(whole.clock.now(), word.clock.now());
            assert_eq!(whole.clock.disk_transfers(), word.clock.disk_transfers());
            assert_eq!(
                (whole.faults.reads, whole.faults.writes, whole.hw_fault()),
                (word.faults.reads, word.faults.writes, word.hw_fault())
            );
            (a, whole.clock.now() - before)
        }
        let transfer = CostModel::default().record_transfer();
        let mut m = Machine::base_1974();
        let rec = m
            .disks
            .pack_mut(PackId(0))
            .unwrap()
            .allocate_record()
            .unwrap();
        let mut page = [Word::ZERO; PAGE_WORDS];
        page[37] = Word::new(0o3737);
        for off in [63, 64, 1023] {
            page[off] = Word::new(off as u64);
        }
        m.disks
            .pack_mut(PackId(0))
            .unwrap()
            .write_record(rec, &page)
            .unwrap();
        m.install_fault_plan(FaultPlan::new().transient_read(PackId(0), rec, 2));
        let mut twins = [m.clone(), m];
        assert_eq!(read(&mut twins, rec, 37), (Ok(Word::new(0o3737)), transfer));
        let transient = Err(DiskError::TransientRead {
            pack: PackId(0),
            record: rec,
        });
        assert_eq!(read(&mut twins, rec, 37), (transient, transfer), "charged");
        assert_eq!(read(&mut twins, rec, 0), (Ok(Word::ZERO), transfer));
        // Each edge of a kept chunk, and a word of a chunk not kept.
        for off in [63, 64, 1023] {
            assert_eq!(read(&mut twins, rec, off), (Ok(page[off]), transfer));
        }
        assert_eq!(read(&mut twins, rec, 200), (Ok(Word::ZERO), transfer));
        let unallocated = RecordNo(rec.0 + 1);
        let bad = Err(DiskError::BadRecord {
            pack: PackId(0),
            record: unallocated,
        });
        assert_eq!(read(&mut twins, unallocated, 0), (bad, 0));
        for m in &mut twins {
            m.faults.set_offline(PackId(0), true);
        }
        let offline = Err(DiskError::PackOffline { pack: PackId(0) });
        assert_eq!(read(&mut twins, rec, 37), (offline, 0), "not charged");
        for m in &mut twins {
            m.faults.set_offline(PackId(0), false);
            m.faults.crash_after_further_writes(1, CrashWrite::Dropped);
            assert_eq!(
                m.disk_write_record(PackId(0), rec, &page),
                Err(DiskError::PowerFail)
            );
        }
        assert_eq!(
            read(&mut twins, rec, 37),
            (Err(DiskError::PowerFail), 0),
            "halted"
        );
    }

    /// Seeded reference model of the sparse page bytes: core, one pack
    /// and the channel against a dense twin, a plain vector of core words
    /// and whole-page records. Random writes (zero ones included), fills
    /// across chunk and frame edges, zero fills, page-outs, page-ins, raw
    /// record transfers, torn crash writes and resets; after every step
    /// every core word, every zero scan and every record word agree, a
    /// frame's clear bit covers only zeros, and a record keeps exactly
    /// its nonzero chunks.
    #[test]
    fn sparse_pages_match_a_dense_twin() {
        use crate::faultinj::CrashWrite;
        use crate::mem::{ALL_LIVE, CHUNK_WORDS};
        use crate::rng::SplitMix64;
        use std::collections::BTreeMap;
        const FRAMES: usize = 6;
        const RECORDS: usize = 5;
        let config = MachineConfig {
            frames: FRAMES,
            packs: 1,
            records_per_pack: RECORDS as u32,
            toc_slots_per_pack: 1,
            ..MachineConfig::default()
        };
        let pack = PackId(0);
        let mut m = Machine::new(config.clone());
        for _ in 0..RECORDS {
            m.disks.pack_mut(pack).unwrap().allocate_record().unwrap();
        }
        let mut core = vec![Word::ZERO; FRAMES * PAGE_WORDS];
        let mut records = vec![[Word::ZERO; PAGE_WORDS]; RECORDS];
        let zero = |words: &[Word]| words.iter().all(|w| w.is_zero());
        let mut rng = SplitMix64::new(0x5BA2_5E00);
        let value = |rng: &mut SplitMix64| {
            if rng.chance(1, 4) {
                Word::ZERO
            } else {
                Word::new(rng.range_u64(1, 1 << 20))
            }
        };
        let offset = |rng: &mut SplitMix64| match rng.below(6) {
            0 => 63,
            1 => 64,
            2 => 1023,
            _ => rng.below(PAGE_WORDS as u64) as usize,
        };
        let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
        for step in 0..4_000 {
            let at = format!("step {step}");
            let f = rng.below(FRAMES as u64) as usize;
            let (frame, rec) = (
                FrameNo(f as u32),
                RecordNo(rng.below(RECORDS as u64) as u32),
            );
            let page = f * PAGE_WORDS..(f + 1) * PAGE_WORDS;
            let past_prefix = f >= m.mem.written_frames();
            let mut note = |what| *seen.entry(what).or_default() += 1;
            match rng.below(12) {
                0..=2 => {
                    let (off, v) = (offset(&mut rng), value(&mut rng));
                    if v.is_zero() && m.mem.live(frame) >> (off / CHUNK_WORDS) & 1 == 1 {
                        note("a zero write into a live chunk");
                    }
                    match off {
                        63 => note("a write at word 63"),
                        64 => note("a write at word 64"),
                        1023 => note("a write at word 1023"),
                        _ => {}
                    }
                    if past_prefix && !v.is_zero() {
                        note("a frame first written past the prefix");
                    }
                    m.mem.write(frame.base().add(off as u64), v);
                    core[page.start + off] = v;
                }
                3 | 4 => {
                    let start = page.start + offset(&mut rng);
                    let n = rng.range_usize(1, (2 * PAGE_WORDS).min(core.len() - start) + 1);
                    let v = value(&mut rng);
                    if start / CHUNK_WORDS != (start + n - 1) / CHUNK_WORDS {
                        note("a fill across a chunk edge");
                    }
                    if start / PAGE_WORDS != (start + n - 1) / PAGE_WORDS {
                        note("a fill across a frame edge");
                    }
                    m.mem.fill(AbsAddr(start as u64), n, v);
                    core[start..start + n].fill(v);
                }
                5 => {
                    m.mem.zero_frame(frame);
                    core[page].fill(Word::ZERO);
                }
                6 | 7 => {
                    m.disk_write_from_frame(pack, rec, frame).unwrap();
                    records[rec.0 as usize].copy_from_slice(&core[page]);
                    let kept = m.disks.pack(pack).unwrap().read_record(rec).unwrap();
                    if kept.live() == ALL_LIVE {
                        note("a record with all 16 chunks");
                    }
                }
                8 | 9 => {
                    let data = &records[rec.0 as usize];
                    if zero(data) && !zero(&core[page.clone()]) {
                        note("a page-in of an empty record over a dirty frame");
                    }
                    m.disk_read_into_frame(pack, rec, frame).unwrap();
                    core[page].copy_from_slice(data);
                }
                10 => {
                    // A raw write of a page with some chunks zero, then a
                    // raw read of the whole page and of one word.
                    let mut raw = [Word::ZERO; PAGE_WORDS];
                    for chunk in raw.chunks_mut(CHUNK_WORDS) {
                        if rng.chance(1, 2) {
                            chunk[rng.below(CHUNK_WORDS as u64) as usize] = Word::new(9);
                        }
                    }
                    m.disk_write_record(pack, rec, &raw).unwrap();
                    records[rec.0 as usize] = raw;
                    let whole = m.disk_read_record(pack, rec).unwrap();
                    assert_eq!(whole[..], raw[..], "{at}");
                    let off = offset(&mut rng);
                    assert_eq!(m.disk_read_word(pack, rec, off), Ok(raw[off]), "{at}");
                }
                _ if rng.chance(1, 2) => {
                    let words = match rng.below(3) {
                        0 => CHUNK_WORDS * rng.range_usize(1, PAGE_WORDS / CHUNK_WORDS),
                        1 => CHUNK_WORDS * rng.range_usize(0, 16) + rng.range_usize(1, 64),
                        _ => rng.range_usize(1, PAGE_WORDS),
                    };
                    note(if words % CHUNK_WORDS == 0 {
                        "a tear at a chunk edge"
                    } else {
                        "a tear mid-chunk"
                    });
                    m.faults
                        .crash_after_further_writes(1, CrashWrite::Torn { words });
                    assert_eq!(
                        m.disk_write_from_frame(pack, rec, frame),
                        Err(DiskError::PowerFail),
                        "{at}"
                    );
                    records[rec.0 as usize][..words].copy_from_slice(&core[page][..words]);
                    m = m.restart(config.clone());
                    core.fill(Word::ZERO);
                }
                _ => {
                    // Through a smaller core, so the prefix shrinks.
                    note("a reset");
                    m.mem.reset(rng.range_usize(1, FRAMES + 1));
                    m.mem.reset(FRAMES);
                    core.fill(Word::ZERO);
                }
            }
            for (f, want) in core.chunks(PAGE_WORDS).enumerate() {
                let frame = FrameNo(f as u32);
                let got = m.mem.words(frame.base(), PAGE_WORDS);
                if let Some(w) = (0..PAGE_WORDS).find(|&w| got[w] != want[w]) {
                    panic!(
                        "{at}: frame {f} word {w} is {:?}, not {:?}",
                        got[w], want[w]
                    );
                }
                assert_eq!(m.mem.frame_is_zero(frame), zero(want), "{at} frame {f}");
                let live = m.mem.live(frame);
                for (c, chunk) in want.chunks(CHUNK_WORDS).enumerate() {
                    assert!(
                        live >> c & 1 == 1 || zero(chunk),
                        "{at}: frame {f} chunk {c} is nonzero under a clear bit"
                    );
                }
            }
            let read: Vec<Word> = (0..core.len() as u64)
                .map(|a| m.mem.read(AbsAddr(a)))
                .collect();
            assert!(read == core, "{at}: core words");
            for (r, want) in records.iter().enumerate() {
                let kept = m.disks.pack(pack).unwrap().read_record(RecordNo(r as u32));
                let kept = kept.unwrap();
                assert_eq!(kept.page()[..], want[..], "{at} record {r}");
                for (c, chunk) in want.chunks(CHUNK_WORDS).enumerate() {
                    assert_eq!(
                        kept.live() >> c & 1 == 1,
                        !zero(chunk),
                        "{at}: record {r} keeps exactly its nonzero chunks"
                    );
                }
            }
        }
        for (what, floor) in [
            ("a zero write into a live chunk", 30),
            ("a write at word 63", 75),
            ("a write at word 64", 75),
            ("a write at word 1023", 75),
            ("a frame first written past the prefix", 25),
            ("a fill across a chunk edge", 300),
            ("a fill across a frame edge", 200),
            ("a page-in of an empty record over a dirty frame", 40),
            ("a record with all 16 chunks", 15),
            ("a tear at a chunk edge", 25),
            ("a tear mid-chunk", 50),
            ("a reset", 80),
        ] {
            let n = seen.get(what).copied().unwrap_or(0);
            assert!(n >= floor, "{n} times {what}, fewer than {floor}");
        }
    }

    #[test]
    fn disk_frame_round_trip_charges_clock() {
        let mut m = Machine::base_1974();
        let pack = PackId(0);
        let rec = m.disks.pack_mut(pack).unwrap().allocate_record().unwrap();
        m.mem.write(FrameNo(5).base().add(3), Word::new(0o777));
        let before = m.clock.disk_transfers();
        m.disk_write_from_frame(pack, rec, FrameNo(5)).unwrap();
        m.disk_read_into_frame(pack, rec, FrameNo(6)).unwrap();
        assert_eq!(m.mem.read(FrameNo(6).base().add(3)), Word::new(0o777));
        assert_eq!(m.clock.disk_transfers(), before + 2);
    }
}
