//! Simulated hardware substrate for the Multics kernel design project.
//!
//! This crate plays the role of the Honeywell 6180 in the paper: a 36-bit
//! word machine with segmented, paged addressing driven by descriptor words
//! that live *in* simulated main memory, a fault model, demountable disk
//! packs with per-pack tables of contents, and a deterministic cycle clock
//! used for cost accounting.
//!
//! The paper proposes several small hardware additions that its new kernel
//! design depends on; all of them are implemented here behind the
//! [`HwFeatures`] switches so the legacy supervisor can run without them:
//!
//! * a second descriptor base register giving every processor a private
//!   *system* address space for low-numbered segments (`dual_dbr`);
//! * a lock bit in page descriptors, set atomically when a missing-page
//!   fault is taken, plus a *locked page descriptor* exception
//!   (`descriptor_lock`);
//! * an exception-causing bit in page descriptors that turns a fault on a
//!   never-before-used page into a distinct *quota* exception
//!   (`quota_trap`);
//! * a wakeup-waiting switch and a locked-descriptor address register per
//!   processor (`wakeup_waiting`).
//!
//! One feature models hardware the 6180 already *had*: the SDW/PTW
//! associative memories that hid the descriptor walk's cost
//! (`associative_memory`, see [`tlb`]). It is on in both feature sets and
//! exists as a switch only so experiments can ablate it.
//!
//! Nothing in this crate knows how either design works; it stores
//! words, walks descriptors, raises faults, and charges cycles. It
//! declares once the vocabulary both designs share: the identifiers
//! they hand out ([`ids`]), a segment's [`DiskHome`], the ACL and the
//! two words an entry stores it in ([`acl`]), the per-process known
//! segment table and its numbering rule ([`kst`], [`MAX_SEGNO`]), the
//! page-table size [`PT_WORDS`], the network frame limit [`MAX_FRAME`],
//! and the program-run loop and how a run ended ([`interp::drive`],
//! [`interp::ProgramRun`]). Of files it knows only the directory
//! segment layout both designs share, in [`entries`]: a count word,
//! entry `k` at word `1 + k·w`, a flags word, and name words 4–11.
//! Neither design's entry codec lives here, only the ACL's. Of salvage
//! it knows what both designs' salvagers check of the packs, in
//! [`salvage`]: the claim check, the per-pack sweeps and the online
//! salvage machine. Of segment storage it knows what both designs do
//! to a segment's disk home, in [`storage`]: the transient-read retry
//! and the full-pack segment move. Of page control it knows the frame
//! table both designs keep, in [`frames`]; each keeps its own
//! replacement policy.

pub mod acl;
pub mod clock;
pub mod cpu;
pub mod disk;
pub mod entries;
pub mod fault;
pub mod faultinj;
pub mod frames;
pub mod idmap;
pub mod ids;
pub mod interp;
pub mod kst;
pub mod machine;
pub mod mem;
pub mod meter;
pub mod rng;
pub mod salvage;
pub mod storage;
pub mod tlb;
pub mod word;

pub use acl::{AccessRight, Acl};
pub use clock::{Clock, CostModel, Language, RefCharges};
pub use cpu::{AccessMode, HwFeatures, Processor, ProcessorId, PT_WORDS};
pub use disk::{DiskError, DiskHome, DiskPack, DiskSystem, PackId, RecordNo, TocEntry, TocIndex};
pub use fault::Fault;
pub use faultinj::{CrashWrite, DiskFaults, FaultPlan, HwFault};
pub use frames::FrameTable;
pub use idmap::{IdMap, IdSet};
pub use ids::{ProcessId, SegUid, UserId};
pub use interp::{ProgramOutcome, ProgramRun, StepOutcome};
pub use kst::{Known, Kst, MAX_SEGNO};
pub use machine::{BootConfig, Machine, MachineConfig};
pub use mem::{AbsAddr, FrameNo, MainMemory, PAGE_WORDS};
pub use meter::{
    CounterSet, EdgeKind, EdgeSet, MeterGuard, MeterSnapshot, ObservedEdge, Subsystem,
};
pub use rng::SplitMix64;
pub use tlb::{Tlb, TlbEntry, TlbStats};
pub use word::{Name, Word, WORD_MASK};

/// A virtual address: segment number plus word offset within the segment.
///
/// This is the two-part address the 6180 hardware translates through a
/// descriptor segment and a page table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VirtAddr {
    /// Segment number, an index into the executing address space.
    pub segno: u32,
    /// Word offset within the segment.
    pub wordno: u32,
}

impl VirtAddr {
    /// Builds a virtual address from a segment number and word offset.
    pub const fn new(segno: u32, wordno: u32) -> Self {
        Self { segno, wordno }
    }

    /// The page number within the segment that this address falls on.
    pub const fn pageno(self) -> u32 {
        self.wordno / PAGE_WORDS as u32
    }

    /// The word offset within the page.
    pub const fn offset_in_page(self) -> u32 {
        self.wordno % PAGE_WORDS as u32
    }
}

impl core::fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}|{}", self.segno, self.wordno)
    }
}

/// Largest frame an attached network stream accepts: the wired buffer
/// either design gives a stream. A longer frame is refused with a typed
/// error before any parse looks at it; it would overrun the buffer, so it
/// is a caller bug (or an attack on the buffer), not line noise.
pub const MAX_FRAME: usize = 4096;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virt_addr_page_split() {
        let va = VirtAddr::new(3, 2 * PAGE_WORDS as u32 + 17);
        assert_eq!(va.pageno(), 2);
        assert_eq!(va.offset_in_page(), 17);
        assert_eq!(format!("{va}"), "3|2065");
    }

    #[test]
    fn virt_addr_orders_by_segment_then_word() {
        let a = VirtAddr::new(1, 500);
        let b = VirtAddr::new(2, 0);
        assert!(a < b);
    }
}
