//! The simulated processor: descriptor-driven address translation.
//!
//! Translation walks real data structures in simulated core: a *descriptor
//! segment* (an array of segment descriptor words, [`Sdw`]) located by a
//! descriptor base register, and per-segment *page tables* (arrays of page
//! table words, [`Ptw`]). Supervisor software builds and owns those
//! tables; the processor only reads them — and, with the paper's proposed
//! `descriptor_lock` addition, atomically sets the lock bit in a missing
//! page's descriptor while taking the fault.
//!
//! With the `dual_dbr` feature (the paper's second address-translation
//! base register), segment numbers below [`Processor::system_segno_limit`]
//! translate through a per-processor *system* descriptor table that lives
//! in permanently resident core, so that system modules using those
//! numbers cannot depend on the machinery supporting user address spaces.

use crate::clock::{Clock, CostModel, RefCharges};
use crate::fault::Fault;
use crate::mem::{AbsAddr, FrameNo, MainMemory, PAGE_WORDS};
use crate::tlb::{Tlb, TlbEntry};
use crate::word::Word;
use crate::VirtAddr;

/// Identifies one of the machine's (real) processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessorId(pub u32);

/// The kind of access a reference makes, checked against SDW permissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Execute,
}

/// Optional hardware features — the paper's proposed processor additions.
///
/// The legacy supervisor runs with [`HwFeatures::BASE_1974`]; the new
/// kernel design requires [`HwFeatures::KERNEL_PROPOSED`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HwFeatures {
    /// Second descriptor base register: per-processor system address
    /// space for low segment numbers.
    pub dual_dbr: bool,
    /// Lock bit in page descriptors, set atomically on a missing-page
    /// fault, plus the locked-page-descriptor exception.
    pub descriptor_lock: bool,
    /// Exception-causing bit distinguishing never-before-used pages:
    /// raises [`Fault::QuotaTrap`] instead of [`Fault::MissingPage`].
    pub quota_trap: bool,
    /// Wakeup-waiting switch + locked-descriptor address register,
    /// preventing lost notifications between a locked-descriptor
    /// exception and the wait primitive.
    pub wakeup_waiting: bool,
    /// SDW/PTW associative memory: hardware the 6180 already had, which
    /// hides the two descriptor fetches of the walk behind a translation
    /// cache (see [`crate::tlb`]). On in both feature sets; switchable
    /// only so its contribution can be ablated.
    pub associative_memory: bool,
}

impl HwFeatures {
    /// The unmodified 1974 hardware base the old supervisor ran on.
    pub const BASE_1974: HwFeatures = HwFeatures {
        dual_dbr: false,
        descriptor_lock: false,
        quota_trap: false,
        wakeup_waiting: false,
        associative_memory: true,
    };

    /// All of the paper's proposed additions enabled.
    pub const KERNEL_PROPOSED: HwFeatures = HwFeatures {
        dual_dbr: true,
        descriptor_lock: true,
        quota_trap: true,
        wakeup_waiting: true,
        associative_memory: true,
    };
}

// SDW field layout (one 36-bit word per segment):
//   bits  0..22  page-table base (absolute word address)
//   bits 22..31  bound: number of pages in the segment (0..=511)
//   bit  31      read permitted
//   bit  32      write permitted
//   bit  33      execute permitted
//   bit  34      present (connected); 0 raises a missing-segment fault
//   bit  35      software-defined (the kernels use it to tag directories)
const SDW_PT_BASE_LO: u32 = 0;
const SDW_PT_BASE_W: u32 = 22;
const SDW_BOUND_LO: u32 = 22;
const SDW_BOUND_W: u32 = 9;
const SDW_READ: u32 = 31;
const SDW_WRITE: u32 = 32;
const SDW_EXECUTE: u32 = 33;
const SDW_PRESENT: u32 = 34;
const SDW_SOFTWARE: u32 = 35;

/// A decoded segment descriptor word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Sdw {
    /// Absolute address of the segment's page table.
    pub page_table: AbsAddr,
    /// Number of pages the segment may occupy (the hardware bound).
    pub bound_pages: u32,
    /// Read access permitted.
    pub read: bool,
    /// Write access permitted.
    pub write: bool,
    /// Execute access permitted.
    pub execute: bool,
    /// Segment connected; a reference through a non-present SDW raises a
    /// missing-segment fault.
    pub present: bool,
    /// Free software-defined flag.
    pub software: bool,
}

impl Sdw {
    /// Encodes the descriptor into its 36-bit memory representation.
    pub fn encode(self) -> Word {
        let mut w = Word::ZERO
            .with_field(SDW_PT_BASE_LO, SDW_PT_BASE_W, self.page_table.0)
            .with_field(SDW_BOUND_LO, SDW_BOUND_W, self.bound_pages as u64);
        if self.read {
            w = w.with_bit(SDW_READ);
        }
        if self.write {
            w = w.with_bit(SDW_WRITE);
        }
        if self.execute {
            w = w.with_bit(SDW_EXECUTE);
        }
        if self.present {
            w = w.with_bit(SDW_PRESENT);
        }
        if self.software {
            w = w.with_bit(SDW_SOFTWARE);
        }
        w
    }

    /// Decodes a descriptor from its memory representation.
    pub fn decode(w: Word) -> Self {
        Sdw {
            page_table: AbsAddr(w.field(SDW_PT_BASE_LO, SDW_PT_BASE_W)),
            bound_pages: w.field(SDW_BOUND_LO, SDW_BOUND_W) as u32,
            read: w.bit(SDW_READ),
            write: w.bit(SDW_WRITE),
            execute: w.bit(SDW_EXECUTE),
            present: w.bit(SDW_PRESENT),
            software: w.bit(SDW_SOFTWARE),
        }
    }

    /// True if the descriptor permits the given access mode.
    pub fn permits(&self, mode: AccessMode) -> bool {
        match mode {
            AccessMode::Read => self.read,
            AccessMode::Write => self.write,
            AccessMode::Execute => self.execute,
        }
    }
}

// PTW field layout (one 36-bit word per page):
//   bits  0..13  core frame number
//   bit  30      quota-trap (never-before-used page; with the quota_trap
//                feature a reference raises a quota fault)
//   bit  31      locked (descriptor lock bit)
//   bit  32      used (set by hardware on any reference)
//   bit  33      modified (set by hardware on a write)
//   bit  34      present (page is in the named core frame)
//   bit  35      wired (software: never evict)
const PTW_FRAME_LO: u32 = 0;
const PTW_FRAME_W: u32 = 13;
const PTW_QUOTA_TRAP: u32 = 30;
const PTW_LOCKED: u32 = 31;
const PTW_USED: u32 = 32;
const PTW_MODIFIED: u32 = 33;
const PTW_PRESENT: u32 = 34;
const PTW_WIRED: u32 = 35;

/// A decoded page table word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ptw {
    /// Core frame holding the page, meaningful only when `present`.
    pub frame: FrameNo,
    /// The page has never been used: a reference means the page must be
    /// created, so quota must be checked first.
    pub quota_trap: bool,
    /// Descriptor lock bit (the paper's proposed addition).
    pub locked: bool,
    /// Referenced since last cleared (hardware-maintained).
    pub used: bool,
    /// Written since last cleared (hardware-maintained).
    pub modified: bool,
    /// Page resident in core.
    pub present: bool,
    /// Software wired: replacement must skip this page.
    pub wired: bool,
}

impl Ptw {
    /// Encodes the page table word into its memory representation.
    pub fn encode(self) -> Word {
        let mut w = Word::ZERO.with_field(PTW_FRAME_LO, PTW_FRAME_W, self.frame.0 as u64);
        if self.quota_trap {
            w = w.with_bit(PTW_QUOTA_TRAP);
        }
        if self.locked {
            w = w.with_bit(PTW_LOCKED);
        }
        if self.used {
            w = w.with_bit(PTW_USED);
        }
        if self.modified {
            w = w.with_bit(PTW_MODIFIED);
        }
        if self.present {
            w = w.with_bit(PTW_PRESENT);
        }
        if self.wired {
            w = w.with_bit(PTW_WIRED);
        }
        w
    }

    /// Decodes a page table word from memory representation.
    pub fn decode(w: Word) -> Self {
        Ptw {
            frame: FrameNo(w.field(PTW_FRAME_LO, PTW_FRAME_W) as u32),
            quota_trap: w.bit(PTW_QUOTA_TRAP),
            locked: w.bit(PTW_LOCKED),
            used: w.bit(PTW_USED),
            modified: w.bit(PTW_MODIFIED),
            present: w.bit(PTW_PRESENT),
            wired: w.bit(PTW_WIRED),
        }
    }
}

/// PTWs per page table: the page bound both designs give every SDW, and
/// the words each slot of their page-table pools takes.
pub const PT_WORDS: u32 = 256;

/// A descriptor base register: locates a descriptor segment in core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DescBase {
    /// Absolute address of the first SDW.
    pub base: AbsAddr,
    /// Number of SDWs (one per segment number).
    pub len: u32,
}

/// One simulated processor.
///
/// Holds the translation registers plus the paper's proposed
/// wakeup-waiting switch and locked-descriptor address register.
#[derive(Debug, Clone)]
pub struct Processor {
    /// This processor's identity.
    pub id: ProcessorId,
    /// Hardware features in force.
    pub features: HwFeatures,
    /// Descriptor base register for the (per-process) user address space.
    pub dbr_user: Option<DescBase>,
    /// Descriptor base register for the per-processor system address
    /// space (meaningful only with `dual_dbr`).
    pub dbr_system: Option<DescBase>,
    /// Segment numbers strictly below this value translate through the
    /// system descriptor table when `dual_dbr` is on.
    pub system_segno_limit: u32,
    /// Wakeup-waiting switch: set by a notification that arrives between
    /// a locked-descriptor exception and the wait primitive, so the
    /// notification is not lost.
    pub wakeup_waiting: bool,
    /// Absolute address of the page descriptor whose lock bit caused the
    /// most recent locked-descriptor exception. Cleared by the next
    /// translation this processor completes.
    pub locked_descriptor_reg: Option<AbsAddr>,
    /// The SDW/PTW associative memory (consulted only when
    /// `features.associative_memory` is on).
    pub tlb: Tlb,
    /// User operations this processor retired (load-harness counter:
    /// user-level reads, writes and program runs served on this CPU).
    pub ops_retired: u64,
}

impl Processor {
    /// A processor with no address spaces loaded.
    pub fn new(id: ProcessorId, features: HwFeatures) -> Self {
        Self {
            id,
            features,
            dbr_user: None,
            dbr_system: None,
            system_segno_limit: 0,
            wakeup_waiting: false,
            locked_descriptor_reg: None,
            tlb: Tlb::new(),
            ops_retired: 0,
        }
    }

    /// Selects the descriptor table a segment number translates through.
    fn select_dbr(&self, segno: u32) -> Option<DescBase> {
        if self.features.dual_dbr && segno < self.system_segno_limit {
            self.dbr_system
        } else {
            self.dbr_user
        }
    }

    /// Translates a virtual address to an absolute core address.
    ///
    /// Walks the descriptor segment and page table in `mem`, maintaining
    /// the used/modified bits, honouring the lock and quota-trap bits
    /// according to [`HwFeatures`], and charging the clock for each
    /// descriptor fetch and for fault overhead.
    ///
    /// # Errors
    ///
    /// Returns the [`Fault`] the reference raises, if any. When the
    /// `descriptor_lock` feature is on and a missing-page fault is taken,
    /// the lock bit has already been set in the page descriptor by the
    /// time this returns.
    pub fn translate(
        &mut self,
        mem: &mut MainMemory,
        clock: &mut Clock,
        cost: &CostModel,
        va: VirtAddr,
        mode: AccessMode,
    ) -> Result<AbsAddr, Fault> {
        let mut pending = RefCharges::default();
        let abs = self.translate_batched(mem, clock, cost, va, mode, &mut pending)?;
        clock.charge_reference(cost, pending);
        Ok(abs)
    }

    /// The translation walk itself, accumulating descriptor-fetch and
    /// PTW-write-back charges into `pending` instead of charging the
    /// clock per step. This is the simulator's hottest loop; none of the
    /// accumulated charges counts an event and no caller observes the
    /// clock mid-reference, so deferring them is attribution-exact.
    ///
    /// Flush discipline: every fault return flushes `pending` *before*
    /// charging the fault, so the translation work is on the clock, and
    /// attributed to the faulting scope, before any fault-handler charge
    /// — byte-identical to the unbatched charge sequence. A successful return leaves `pending`
    /// unflushed so [`Processor::read`]/[`Processor::write`] can fold
    /// the core access into the same single meter attribution.
    fn translate_batched(
        &mut self,
        mem: &mut MainMemory,
        clock: &mut Clock,
        cost: &CostModel,
        va: VirtAddr,
        mode: AccessMode,
        pending: &mut RefCharges,
    ) -> Result<AbsAddr, Fault> {
        let fault = |clock: &mut Clock, pending: &mut RefCharges, f: Fault| {
            clock.charge_reference(cost, std::mem::take(pending));
            clock.charge_fault(cost);
            Err(f)
        };

        let Some(dbr) = self.select_dbr(va.segno) else {
            return fault(clock, pending, Fault::BadDescriptor { va });
        };

        // Associative-memory probe: a hit answers without touching the
        // descriptor tables, so neither descriptor fetch is charged.
        if self.features.associative_memory {
            if let Some(entry) = self.tlb.lookup(dbr.base, va.segno, va.pageno()) {
                let abs = entry.frame.base().add(u64::from(va.offset_in_page()));
                if entry.permits(mode) && mem.contains(abs) {
                    if mode == AccessMode::Write && !entry.modified {
                        // The walk would have set the modified bit in the
                        // PTW; do the same write-back so the core image
                        // stays byte-identical with the cache off.
                        entry.modified = true;
                        let ptw_addr = entry.ptw_addr;
                        let mut ptw = Ptw::decode(mem.read(ptw_addr));
                        ptw.used = true;
                        ptw.modified = true;
                        mem.write(ptw_addr, ptw.encode());
                        pending.ptw_updates += 1;
                    }
                    self.locked_descriptor_reg = None;
                    return Ok(abs);
                }
                // Cached access bits refuse the mode: fall through to the
                // full walk, which re-checks everything against the live
                // descriptors and raises the correct fault.
            }
        }

        if va.segno >= dbr.len {
            return fault(clock, pending, Fault::MissingSegment { va });
        }
        let sdw_addr = dbr.base.add(va.segno as u64);
        if !mem.contains(sdw_addr) {
            return fault(clock, pending, Fault::BadDescriptor { va });
        }
        pending.descriptor_fetches += 1;
        let sdw = Sdw::decode(mem.read(sdw_addr));
        if !sdw.present {
            return fault(clock, pending, Fault::MissingSegment { va });
        }
        if !sdw.permits(mode) {
            return fault(clock, pending, Fault::AccessViolation { va });
        }
        let pageno = va.pageno();
        if pageno >= sdw.bound_pages {
            return fault(clock, pending, Fault::BoundsViolation { va });
        }
        let ptw_addr = sdw.page_table.add(pageno as u64);
        if !mem.contains(ptw_addr) {
            return fault(clock, pending, Fault::BadDescriptor { va });
        }
        pending.descriptor_fetches += 1;
        let mut ptw = Ptw::decode(mem.read(ptw_addr));

        if self.features.descriptor_lock && ptw.locked {
            self.locked_descriptor_reg = Some(ptw_addr);
            return fault(
                clock,
                pending,
                Fault::LockedDescriptor {
                    va,
                    descriptor: ptw_addr,
                },
            );
        }
        if !ptw.present {
            if self.features.quota_trap && ptw.quota_trap {
                return fault(
                    clock,
                    pending,
                    Fault::QuotaTrap {
                        va,
                        descriptor: ptw_addr,
                    },
                );
            }
            let locked_by_hw = if self.features.descriptor_lock {
                ptw.locked = true;
                mem.write(ptw_addr, ptw.encode());
                pending.ptw_updates += 1;
                true
            } else {
                false
            };
            return fault(
                clock,
                pending,
                Fault::MissingPage {
                    va,
                    descriptor: ptw_addr,
                    locked_by_hw,
                },
            );
        }

        // Maintain the hardware-set reference bits.
        let dirty = mode == AccessMode::Write;
        if !ptw.used || (dirty && !ptw.modified) {
            ptw.used = true;
            ptw.modified |= dirty;
            mem.write(ptw_addr, ptw.encode());
            pending.ptw_updates += 1;
        }

        let frame_base = ptw.frame.base();
        let abs = frame_base.add(va.offset_in_page() as u64);
        if !mem.contains(abs) {
            return fault(clock, pending, Fault::BadDescriptor { va });
        }
        if self.features.associative_memory {
            self.tlb.fill(TlbEntry {
                asid: dbr.base,
                segno: va.segno,
                pageno,
                sdw_addr,
                ptw_addr,
                frame: ptw.frame,
                read: sdw.read,
                write: sdw.write,
                execute: sdw.execute,
                modified: ptw.modified,
                lru: 0,
            });
        }
        // A completed translation clears the locked-descriptor register.
        self.locked_descriptor_reg = None;
        Ok(abs)
    }

    /// Reads one word through address translation, charging a core access.
    ///
    /// # Errors
    ///
    /// Propagates any translation fault.
    pub fn read(
        &mut self,
        mem: &mut MainMemory,
        clock: &mut Clock,
        cost: &CostModel,
        va: VirtAddr,
    ) -> Result<Word, Fault> {
        let mut pending = RefCharges::default();
        let abs = self.translate_batched(mem, clock, cost, va, AccessMode::Read, &mut pending)?;
        pending.core_accesses += 1;
        clock.charge_reference(cost, pending);
        Ok(mem.read(abs))
    }

    /// Writes one word through address translation, charging a core access.
    ///
    /// # Errors
    ///
    /// Propagates any translation fault.
    pub fn write(
        &mut self,
        mem: &mut MainMemory,
        clock: &mut Clock,
        cost: &CostModel,
        va: VirtAddr,
        value: Word,
    ) -> Result<(), Fault> {
        let mut pending = RefCharges::default();
        let abs = self.translate_batched(mem, clock, cost, va, AccessMode::Write, &mut pending)?;
        pending.core_accesses += 1;
        clock.charge_reference(cost, pending);
        mem.write(abs, value);
        Ok(())
    }

    /// Consumes and returns the wakeup-waiting switch (clearing it).
    ///
    /// The wait primitive calls this: a `true` means a notification
    /// arrived since the locked-descriptor exception and the process
    /// should not block.
    pub fn take_wakeup_waiting(&mut self) -> bool {
        std::mem::take(&mut self.wakeup_waiting)
    }

    /// Counts one completed user operation against this processor.
    pub fn retire_op(&mut self) {
        self.ops_retired += 1;
    }
}

/// Number of whole pages needed to hold `words` words.
pub fn pages_for_words(words: u64) -> u32 {
    words.div_ceil(PAGE_WORDS as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (MainMemory, Clock, CostModel) {
        (MainMemory::new(32), Clock::new(), CostModel::default())
    }

    /// Hand-builds a one-segment address space: descriptor table at frame
    /// 0, page table at frame 1, data pages at frames 2..2+pages.
    fn build_space(mem: &mut MainMemory, pages: u32, present: bool) -> DescBase {
        let pt_base = FrameNo(1).base();
        for p in 0..pages {
            let ptw = Ptw {
                frame: FrameNo(2 + p),
                present,
                ..Ptw::default()
            };
            mem.write(pt_base.add(p as u64), ptw.encode());
        }
        let sdw = Sdw {
            page_table: pt_base,
            bound_pages: pages,
            read: true,
            write: true,
            execute: false,
            present: true,
            software: false,
        };
        let base = FrameNo(0).base();
        mem.write(base, sdw.encode());
        DescBase { base, len: 1 }
    }

    #[test]
    fn sdw_ptw_encode_decode_round_trip() {
        let sdw = Sdw {
            page_table: AbsAddr(0o123456),
            bound_pages: 257,
            read: true,
            write: false,
            execute: true,
            present: true,
            software: true,
        };
        assert_eq!(Sdw::decode(sdw.encode()), sdw);
        let ptw = Ptw {
            frame: FrameNo(4095),
            quota_trap: true,
            locked: true,
            used: false,
            modified: true,
            present: false,
            wired: true,
        };
        assert_eq!(Ptw::decode(ptw.encode()), ptw);
    }

    #[test]
    fn translate_and_read_write_round_trip() {
        let (mut mem, mut clock, cost) = setup();
        let dbr = build_space(&mut mem, 2, true);
        let mut cpu = Processor::new(ProcessorId(0), HwFeatures::BASE_1974);
        cpu.dbr_user = Some(dbr);
        let va = VirtAddr::new(0, PAGE_WORDS as u32 + 7);
        cpu.write(&mut mem, &mut clock, &cost, va, Word::new(0o55))
            .unwrap();
        assert_eq!(
            cpu.read(&mut mem, &mut clock, &cost, va).unwrap(),
            Word::new(0o55)
        );
        // The word landed in frame 3 (second page) at offset 7.
        assert_eq!(mem.read(FrameNo(3).base().add(7)), Word::new(0o55));
    }

    #[test]
    fn write_sets_used_and_modified_bits() {
        let (mut mem, mut clock, cost) = setup();
        let dbr = build_space(&mut mem, 1, true);
        let mut cpu = Processor::new(ProcessorId(0), HwFeatures::BASE_1974);
        cpu.dbr_user = Some(dbr);
        cpu.write(
            &mut mem,
            &mut clock,
            &cost,
            VirtAddr::new(0, 0),
            Word::new(1),
        )
        .unwrap();
        let ptw = Ptw::decode(mem.read(FrameNo(1).base()));
        assert!(ptw.used && ptw.modified);
    }

    #[test]
    fn read_sets_used_but_not_modified() {
        let (mut mem, mut clock, cost) = setup();
        let dbr = build_space(&mut mem, 1, true);
        let mut cpu = Processor::new(ProcessorId(0), HwFeatures::BASE_1974);
        cpu.dbr_user = Some(dbr);
        cpu.read(&mut mem, &mut clock, &cost, VirtAddr::new(0, 3))
            .unwrap();
        let ptw = Ptw::decode(mem.read(FrameNo(1).base()));
        assert!(ptw.used && !ptw.modified);
    }

    #[test]
    fn missing_page_without_lock_feature() {
        let (mut mem, mut clock, cost) = setup();
        let dbr = build_space(&mut mem, 1, false);
        let mut cpu = Processor::new(ProcessorId(0), HwFeatures::BASE_1974);
        cpu.dbr_user = Some(dbr);
        let err = cpu
            .read(&mut mem, &mut clock, &cost, VirtAddr::new(0, 0))
            .unwrap_err();
        match err {
            Fault::MissingPage { locked_by_hw, .. } => assert!(!locked_by_hw),
            other => panic!("expected missing page, got {other}"),
        }
        // Without the feature the lock bit stays clear.
        assert!(!Ptw::decode(mem.read(FrameNo(1).base())).locked);
        assert_eq!(clock.faults(), 1);
    }

    #[test]
    fn missing_page_with_lock_feature_sets_lock_bit() {
        let (mut mem, mut clock, cost) = setup();
        let dbr = build_space(&mut mem, 1, false);
        let mut cpu = Processor::new(ProcessorId(0), HwFeatures::KERNEL_PROPOSED);
        cpu.dbr_user = Some(dbr);
        let err = cpu
            .read(&mut mem, &mut clock, &cost, VirtAddr::new(0, 0))
            .unwrap_err();
        match err {
            Fault::MissingPage {
                locked_by_hw,
                descriptor,
                ..
            } => {
                assert!(locked_by_hw);
                assert!(Ptw::decode(mem.read(descriptor)).locked);
            }
            other => panic!("expected missing page, got {other}"),
        }
        // A second processor touching the same page now takes the
        // locked-descriptor exception instead of a duplicate page fault.
        let mut cpu2 = Processor::new(ProcessorId(1), HwFeatures::KERNEL_PROPOSED);
        cpu2.dbr_user = Some(dbr);
        let err2 = cpu2
            .read(&mut mem, &mut clock, &cost, VirtAddr::new(0, 0))
            .unwrap_err();
        assert!(matches!(err2, Fault::LockedDescriptor { .. }));
        assert!(cpu2.locked_descriptor_reg.is_some());
    }

    #[test]
    fn quota_trap_bit_raises_quota_fault_only_with_feature() {
        let (mut mem, mut clock, cost) = setup();
        let dbr = build_space(&mut mem, 1, false);
        // Mark the page never-before-used.
        let ptw_addr = FrameNo(1).base();
        let mut ptw = Ptw::decode(mem.read(ptw_addr));
        ptw.quota_trap = true;
        mem.write(ptw_addr, ptw.encode());

        let mut old = Processor::new(ProcessorId(0), HwFeatures::BASE_1974);
        old.dbr_user = Some(dbr);
        let f = old
            .read(&mut mem, &mut clock, &cost, VirtAddr::new(0, 0))
            .unwrap_err();
        assert!(
            matches!(f, Fault::MissingPage { .. }),
            "old hardware sees a page fault"
        );

        let mut new = Processor::new(ProcessorId(1), HwFeatures::KERNEL_PROPOSED);
        new.dbr_user = Some(dbr);
        let f = new
            .read(&mut mem, &mut clock, &cost, VirtAddr::new(0, 0))
            .unwrap_err();
        assert!(
            matches!(f, Fault::QuotaTrap { .. }),
            "new hardware distinguishes quota"
        );
    }

    #[test]
    fn dual_dbr_routes_low_segnos_to_system_space() {
        let (mut mem, mut clock, cost) = setup();
        // System space: segment 0 maps frame 2. User space: segment 0
        // would map frame 3, but segno 0 < limit must hit the system one.
        let sys_pt = FrameNo(1).base();
        mem.write(
            sys_pt,
            Ptw {
                frame: FrameNo(2),
                present: true,
                ..Ptw::default()
            }
            .encode(),
        );
        let sys_sdw = Sdw {
            page_table: sys_pt,
            bound_pages: 1,
            read: true,
            write: true,
            execute: true,
            present: true,
            software: false,
        };
        mem.write(FrameNo(0).base(), sys_sdw.encode());

        let user_pt = FrameNo(4).base();
        mem.write(
            user_pt,
            Ptw {
                frame: FrameNo(3),
                present: true,
                ..Ptw::default()
            }
            .encode(),
        );
        let user_sdw = Sdw {
            page_table: user_pt,
            ..sys_sdw
        };
        mem.write(FrameNo(5).base(), user_sdw.encode());

        let mut cpu = Processor::new(ProcessorId(0), HwFeatures::KERNEL_PROPOSED);
        cpu.dbr_system = Some(DescBase {
            base: FrameNo(0).base(),
            len: 1,
        });
        cpu.dbr_user = Some(DescBase {
            base: FrameNo(5).base(),
            len: 1,
        });
        cpu.system_segno_limit = 1;

        mem.write(FrameNo(2).base(), Word::new(0o111));
        mem.write(FrameNo(3).base(), Word::new(0o222));
        let got = cpu
            .read(&mut mem, &mut clock, &cost, VirtAddr::new(0, 0))
            .unwrap();
        assert_eq!(
            got,
            Word::new(0o111),
            "segno 0 translated via the system space"
        );
    }

    #[test]
    fn access_and_bounds_checks() {
        let (mut mem, mut clock, cost) = setup();
        let dbr = build_space(&mut mem, 1, true);
        let mut cpu = Processor::new(ProcessorId(0), HwFeatures::BASE_1974);
        cpu.dbr_user = Some(dbr);
        let exec = cpu.translate(
            &mut mem,
            &mut clock,
            &cost,
            VirtAddr::new(0, 0),
            AccessMode::Execute,
        );
        assert!(matches!(exec, Err(Fault::AccessViolation { .. })));
        let oob = cpu.read(
            &mut mem,
            &mut clock,
            &cost,
            VirtAddr::new(0, PAGE_WORDS as u32),
        );
        assert!(matches!(oob, Err(Fault::BoundsViolation { .. })));
        let noseg = cpu.read(&mut mem, &mut clock, &cost, VirtAddr::new(9, 0));
        assert!(matches!(noseg, Err(Fault::MissingSegment { .. })));
    }

    #[test]
    fn wakeup_waiting_switch_is_take_once() {
        let mut cpu = Processor::new(ProcessorId(0), HwFeatures::KERNEL_PROPOSED);
        cpu.wakeup_waiting = true;
        assert!(cpu.take_wakeup_waiting());
        assert!(!cpu.take_wakeup_waiting());
    }

    #[test]
    fn locked_descriptor_reg_clears_on_next_successful_translation() {
        let (mut mem, mut clock, cost) = setup();
        let dbr = build_space(&mut mem, 2, true);
        // Lock page 0's descriptor by hand.
        let ptw_addr = FrameNo(1).base();
        let mut ptw = Ptw::decode(mem.read(ptw_addr));
        ptw.locked = true;
        mem.write(ptw_addr, ptw.encode());

        let mut cpu = Processor::new(ProcessorId(0), HwFeatures::KERNEL_PROPOSED);
        cpu.dbr_user = Some(dbr);
        let err = cpu
            .read(&mut mem, &mut clock, &cost, VirtAddr::new(0, 0))
            .unwrap_err();
        assert!(matches!(err, Fault::LockedDescriptor { .. }));
        assert_eq!(cpu.locked_descriptor_reg, Some(ptw_addr));

        // A successful translation (page 1) must clear the register:
        // the stale address otherwise survives across process switches.
        cpu.read(
            &mut mem,
            &mut clock,
            &cost,
            VirtAddr::new(0, PAGE_WORDS as u32),
        )
        .unwrap();
        assert_eq!(cpu.locked_descriptor_reg, None);
    }

    #[test]
    fn tlb_hit_skips_descriptor_fetches() {
        let (mut mem, mut clock, cost) = setup();
        let dbr = build_space(&mut mem, 1, true);
        let mut cpu = Processor::new(ProcessorId(0), HwFeatures::KERNEL_PROPOSED);
        cpu.dbr_user = Some(dbr);
        let va = VirtAddr::new(0, 3);
        cpu.read(&mut mem, &mut clock, &cost, va).unwrap();
        let after_walk = clock.descriptor_fetches();
        assert_eq!(after_walk, 2, "cold reference pays the full walk");
        cpu.read(&mut mem, &mut clock, &cost, va).unwrap();
        assert_eq!(
            clock.descriptor_fetches(),
            after_walk,
            "warm reference pays no descriptor fetch"
        );
        assert_eq!(cpu.tlb.stats().hits, 1);
    }

    #[test]
    fn tlb_off_walks_every_time() {
        let (mut mem, mut clock, cost) = setup();
        let dbr = build_space(&mut mem, 1, true);
        let mut cpu = Processor::new(
            ProcessorId(0),
            HwFeatures {
                associative_memory: false,
                ..HwFeatures::KERNEL_PROPOSED
            },
        );
        cpu.dbr_user = Some(dbr);
        let va = VirtAddr::new(0, 3);
        cpu.read(&mut mem, &mut clock, &cost, va).unwrap();
        cpu.read(&mut mem, &mut clock, &cost, va).unwrap();
        assert_eq!(clock.descriptor_fetches(), 4);
        assert_eq!(cpu.tlb.stats().lookups, 0);
    }

    #[test]
    fn tlb_write_hit_sets_modified_bit_in_core() {
        let (mut mem, mut clock, cost) = setup();
        let dbr = build_space(&mut mem, 1, true);
        let mut cpu = Processor::new(ProcessorId(0), HwFeatures::KERNEL_PROPOSED);
        cpu.dbr_user = Some(dbr);
        let va = VirtAddr::new(0, 3);
        // Fill via a read: PTW has used but not modified.
        cpu.read(&mut mem, &mut clock, &cost, va).unwrap();
        assert!(!Ptw::decode(mem.read(FrameNo(1).base())).modified);
        // Write hit must write the modified bit back, charged as a
        // descriptor update.
        let before = clock.ptw_updates();
        cpu.write(&mut mem, &mut clock, &cost, va, Word::new(4))
            .unwrap();
        let ptw = Ptw::decode(mem.read(FrameNo(1).base()));
        assert!(ptw.used && ptw.modified);
        assert_eq!(clock.ptw_updates(), before + 1);
        // A second write is already cached as modified: no extra update.
        cpu.write(&mut mem, &mut clock, &cost, va, Word::new(5))
            .unwrap();
        assert_eq!(clock.ptw_updates(), before + 1);
    }

    #[test]
    fn reference_bit_write_back_charges_the_clock() {
        let (mut mem, mut clock, cost) = setup();
        let dbr = build_space(&mut mem, 1, true);
        let mut cpu = Processor::new(ProcessorId(0), HwFeatures::BASE_1974);
        cpu.dbr_user = Some(dbr);
        let before = clock.now();
        cpu.read(&mut mem, &mut clock, &cost, VirtAddr::new(0, 0))
            .unwrap();
        // Two descriptor fetches + one used-bit write-back + the access.
        assert_eq!(
            clock.now() - before,
            2 * cost.descriptor_fetch + cost.ptw_update + cost.core_access
        );
        assert_eq!(clock.ptw_updates(), 1);
    }

    #[test]
    fn tlb_permission_mismatch_falls_through_to_the_walk_fault() {
        let (mut mem, mut clock, cost) = setup();
        let dbr = build_space(&mut mem, 1, true);
        let mut cpu = Processor::new(ProcessorId(0), HwFeatures::KERNEL_PROPOSED);
        cpu.dbr_user = Some(dbr);
        let va = VirtAddr::new(0, 0);
        cpu.read(&mut mem, &mut clock, &cost, va).unwrap();
        // Execute is not permitted: the cached entry must not grant it.
        let err = cpu
            .translate(&mut mem, &mut clock, &cost, va, AccessMode::Execute)
            .unwrap_err();
        assert!(matches!(err, Fault::AccessViolation { .. }));
    }

    #[test]
    fn pages_for_words_rounds_up() {
        assert_eq!(pages_for_words(0), 0);
        assert_eq!(pages_for_words(1), 1);
        assert_eq!(pages_for_words(PAGE_WORDS as u64), 1);
        assert_eq!(pages_for_words(PAGE_WORDS as u64 + 1), 2);
    }
}
