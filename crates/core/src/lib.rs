//! Kernel/Multics: the loop-free, type-extended security kernel.
//!
//! This crate is the paper's primary contribution rendered as running
//! code: the file system, memory management and processor management of
//! Multics reorganized as a lattice of *object managers* (Figure 4), on
//! the hardware base with the paper's proposed additions
//! ([`mx_hw::HwFeatures::KERNEL_PROPOSED`]).
//!
//! Where the old supervisor (`mx-legacy`) is one struct whose modules
//! share writable data freely, every manager here is a separate type and
//! every dependency is explicit in a function signature: a manager
//! receives mutable references *only* to the managers below it in the
//! lattice. The registry in [`registry`] declares the same structure for
//! analysis, and a test proves it loop-free.
//!
//! Bottom-up:
//!
//! * [`core_segment`] — fixed core segments, allocated at initialization,
//!   readable and writable and nothing else; every module's maps and
//!   programs live here without creating dependency loops.
//! * [`vproc`] — a *fixed* number of virtual processors whose states are
//!   always in core segments; eventcount/sequencer primitives; some VPs
//!   permanently bound to kernel modules (the page-purifier and core
//!   manager daemons, the user-process scheduler).
//! * [`disk_record`] — disk records and tables of contents.
//! * [`quota_cell`] — quota cells as explicit objects with their own
//!   manager, cached in a core-segment table, stored in pack TOCs.
//! * [`page_frame`] — page frames and page tables; missing-page service
//!   using the hardware lock bit (no interpretive retranslation);
//!   zero-page reversion; the write-behind purifier daemon.
//! * [`segment`] — active segments: activation *without* reference to
//!   the directory hierarchy, growth under a statically bound quota
//!   cell, relocation on full packs reported by **upward signal**.
//! * [`known_segment`] — per-process segment numbering and the quota
//!   exception service.
//! * [`directory`] — directories, ACLs, the single-directory search
//!   primitive with Bratt's mythical identifiers, childless-only quota
//!   designation, and the receiving end of the moved-segment signal.
//! * [`user_process`] — an arbitrary number of user processes multiplexed
//!   over the fixed virtual processors, with upward event delivery
//!   through the real-memory message queue.
//! * [`demux`] — the network-independent demultiplexer residue.
//! * [`kernel`] — the gatekeeper: the (small) user-callable gate set,
//!   AIM checks, fault dispatch, and the upward-signal trampoline.

pub mod core_segment;
pub mod demux;
pub mod directory;
pub mod disk_record;
pub mod error;
pub mod kernel;
pub mod known_segment;
pub mod page_frame;
pub mod quota_cell;
pub mod registry;
pub mod salvager;
pub mod segment;
pub mod user_process;
pub mod vproc;

pub use error::{KernelError, Signal};
pub use kernel::{Kernel, KernelConfig, KernelStats};
pub use mx_hw::interp::{ProgramOutcome, ProgramRun};
pub use registry::{kernel_runtime_lattice, kernel_structure};
pub use salvager::{OnlineCheat, OnlineProgress, Problem, SalvageReport};
pub use types::*;

/// Charges `n` abstract instructions of kernel code to the machine's
/// clock. The new kernel is written uniformly in the high-level language
/// (the paper's EUCLID plan; PL/I cost model), so every charge uses the
/// PL/I expansion factor — the "factor of two in the speed of the code"
/// that recoding costs.
pub(crate) fn charge_pli(machine: &mut mx_hw::Machine, n: u64) {
    let cost = machine.cost;
    machine
        .clock
        .charge_instructions(&cost, n, mx_hw::Language::Pli);
}

/// The identifiers, disk homes and ACLs the managers share: declared
/// once in [`mx_hw`] for both designs, except the directory-search token.
pub mod types {
    pub use mx_hw::{AccessRight, Acl, DiskHome, ProcessId, SegUid, UserId};

    /// An opaque identifier returned by the directory-search primitive —
    /// real or mythical, deliberately indistinguishable.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub struct ObjToken(pub u64);

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn acl_round_trip() {
            let mut a = Acl::new();
            a.grant(UserId(3), &[AccessRight::Read, AccessRight::Write]);
            a.grant(UserId(0), &[AccessRight::Execute]);
            let (u, r) = a.stored().unwrap();
            let b = Acl::unpack(u, r);
            assert!(b.permits(UserId(3), AccessRight::Write));
            assert!(b.permits(UserId(0), AccessRight::Execute));
            assert!(!b.permits(UserId(3), AccessRight::Execute));
            assert!(!b.permits(UserId(1), AccessRight::Read));
        }

        #[test]
        fn revoke_removes_term() {
            let mut a = Acl::owner(UserId(5));
            a.revoke(UserId(5));
            assert!(!a.permits(UserId(5), AccessRight::Read));
        }
    }
}
