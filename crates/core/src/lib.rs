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
pub use kernel::{Kernel, KernelConfig, KernelStats, ProgramOutcome, ProgramRun};
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

/// Common identifier types shared by the managers.
pub mod types {
    /// A segment's unique identifier.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub struct SegUid(pub u64);

    /// A user principal.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub struct UserId(pub u32);

    /// A user process (unbounded supply).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub struct ProcessId(pub u32);

    /// An opaque identifier returned by the directory-search primitive —
    /// real or mythical, deliberately indistinguishable.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub struct ObjToken(pub u64);

    /// Where a segment lives on disk.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct DiskHome {
        /// Containing pack.
        pub pack: mx_hw::PackId,
        /// Index into the pack's table of contents.
        pub toc: mx_hw::TocIndex,
    }

    /// A discretionary access right.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum AccessRight {
        /// Read / search.
        Read,
        /// Write / modify.
        Write,
        /// Execute.
        Execute,
    }

    /// An access control list (same structure as the old system's; the
    /// user-visible ACL semantics were deliberately kept).
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct Acl {
        terms: Vec<(UserId, [bool; 3])>,
    }

    impl Acl {
        /// An empty ACL.
        pub fn new() -> Self {
            Self::default()
        }

        /// An ACL granting one user everything.
        pub fn owner(user: UserId) -> Self {
            let mut a = Self::new();
            a.grant(
                user,
                &[AccessRight::Read, AccessRight::Write, AccessRight::Execute],
            );
            a
        }

        /// Grants rights to a user.
        pub fn grant(&mut self, user: UserId, rights: &[AccessRight]) {
            let mut bits = [false; 3];
            for r in rights {
                bits[right_slot(*r)] = true;
            }
            self.add(user, bits);
        }

        /// Adds a term's rights to the user's term, or appends the term.
        fn add(&mut self, user: UserId, bits: [bool; 3]) {
            match self.terms.iter_mut().find(|(u, _)| *u == user) {
                Some((_, have)) => {
                    for (have, add) in have.iter_mut().zip(bits) {
                        *have |= add;
                    }
                }
                None => self.terms.push((user, bits)),
            }
        }

        /// Revokes all of a user's rights.
        pub fn revoke(&mut self, user: UserId) {
            self.terms.retain(|(u, _)| *u != user);
        }

        /// True if the user holds the right.
        pub fn permits(&self, user: UserId, right: AccessRight) -> bool {
            self.terms
                .iter()
                .find(|(u, _)| *u == user)
                .is_some_and(|(_, b)| b[right_slot(right)])
        }

        /// The two words a directory entry stores the ACL in: up to four
        /// terms, each user id in a 9-bit field of the first word and its
        /// rights in a 4-bit field of the second (read, write, execute,
        /// and a bit marking the term present). `None` for an ACL the
        /// form cannot hold: more than four terms, or a user id above
        /// 255. [`Acl::unpack`] is its inverse.
        pub fn stored(&self) -> Option<(u64, u64)> {
            if self.terms.len() > ACL_TERMS {
                return None;
            }
            let (mut users, mut rights) = (0, 0);
            for (i, (u, r)) in self.terms.iter().enumerate() {
                if u.0 > ACL_MAX_USER {
                    return None;
                }
                users |= u64::from(u.0) << (i * 9);
                let bits = u64::from(r[0]) | u64::from(r[1]) << 1 | u64::from(r[2]) << 2;
                rights |= (bits | 0b1000) << (i * 4);
            }
            Some((users, rights))
        }

        /// The ACL [`Acl::stored`] stored in `users` and `rights`.
        pub fn unpack(users: u64, rights: u64) -> Self {
            let mut acl = Self::new();
            for i in 0..ACL_TERMS {
                let bits = rights >> (i * 4) & 0xF;
                if bits & 0b1000 != 0 {
                    let user = UserId((users >> (i * 9) & u64::from(ACL_MAX_USER)) as u32);
                    acl.add(user, [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0]);
                }
            }
            acl
        }
    }

    /// Terms a stored ACL holds.
    const ACL_TERMS: usize = 4;

    /// The highest user id a stored ACL holds.
    const ACL_MAX_USER: u32 = 0xFF;

    fn right_slot(r: AccessRight) -> usize {
        match r {
            AccessRight::Read => 0,
            AccessRight::Write => 1,
            AccessRight::Execute => 2,
        }
    }

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
