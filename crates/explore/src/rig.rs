//! One experiment rig over both designs.
//!
//! [`Rig`] is the one process-level interface to a design: boot it,
//! reach its machine, log a principal in, create directories and
//! segments, read and write words on the user path, run a scheduler
//! pass, sync, bootload again on a crashed machine's disks, salvage,
//! name the refusals every report shares, and check the result. The
//! kernel implements it once and the 1974 supervisor once, and every
//! driver that runs both designs (the explorer's op scenarios, the
//! P4/P5/P7/A2/A3 and G1 drivers, R1's crash matrix, and the load
//! harness's session-level `Design` in `mx-load`) is written once
//! against it.
//!
//! Each method is one design call or one fixed call sequence, so a
//! driver written once against the rig issues the same calls, in the
//! same order, as one written against each design directly: it moves
//! no cycle, label or edge. The caller's principal is decided here:
//! [`Rig::login`] and [`Rig::spawn`] take one, and every object is
//! created for [`Principal::OPERATOR`] with an owner-only ACL.
//!
//! The rig sits in `mx-explore` because that is the lowest crate that
//! depends on both designs, and both the explorer and `mx-bench` see
//! it. The methods the load harness calls once a simulated operation
//! are `#[inline]`, so that they inline across the crate boundary as
//! the harness's own forwarders did.

use crate::oracle;
use mx_aim::Label;
use mx_hw::meter::CounterSet;
use mx_hw::salvage::Report;
use mx_hw::{Acl, BootConfig, Machine, Name, ProcessId, SegUid, UserId, Word};
use mx_kernel::vproc::VpId;
use mx_kernel::{Kernel, KernelError, ObjToken};
use mx_legacy::{LegacyError, Supervisor};
use std::fmt::Debug;

/// A result carrying `R`'s typed refusal.
pub type Res<T, R> = Result<T, <R as Rig>::Error>;

/// Who a process acts for: a user at a label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Principal {
    /// The user the ACLs name.
    pub user: UserId,
    /// The label the process runs at.
    pub label: Label,
}

impl Principal {
    /// The one principal the drivers act as: user 1 at the bottom label,
    /// the owner of every object the rig and the load harness create.
    pub const OPERATOR: Principal = Principal {
        user: UserId(1),
        label: Label::BOTTOM,
    };
}

/// What a single-process driver needs of a design. A fallible method
/// returns the design's own typed refusal; `login` and `spawn` panic if
/// the design refuses the process.
pub trait Rig: Sized {
    /// `kernel` or `legacy`: the design's name in trace labels.
    const NAME: &'static str;
    /// The design's typed error.
    type Error: Debug;
    /// A created directory entry as the design names it: an object token
    /// on the kernel; the uid, to create in, and the path, to name by, on
    /// the old supervisor.
    type Entry: Copy;
    /// A problem the design's salvager reports.
    type Problem: Debug + 'static;

    /// Bootloads the design.
    fn boot(config: BootConfig) -> Self;
    /// Bootloads on the disks of `crashed`, whose power failed.
    fn recover(config: BootConfig, crashed: Self) -> Res<Self, Self>;
    /// The machine the design runs on.
    fn machine(&self) -> &Machine;
    /// The machine the design runs on, to change.
    fn machine_mut(&mut self) -> &mut Machine;
    /// A process for `who`: the kernel registers the account `name` and
    /// logs it in through the login residue; the old supervisor creates
    /// a process.
    fn login(&mut self, name: &str, who: Principal) -> ProcessId;
    /// Another process for `who`.
    fn spawn(&mut self, who: Principal) -> ProcessId;
    /// The root directory. (Not `root`: a trait method `root(&mut self)`
    /// would be chosen over `Supervisor::root(&self)` wherever the
    /// receiver is a `&mut Supervisor`.)
    fn root_dir(&mut self) -> Self::Entry;
    /// Creates `name` under `parent`: a directory if `is_dir`, else a
    /// segment.
    fn create(
        &mut self,
        pid: ProcessId,
        parent: &Self::Entry,
        name: &str,
        is_dir: bool,
    ) -> Res<Self::Entry, Self>;
    /// Makes `entry` known to `pid`, returning its segment number.
    fn initiate(&mut self, pid: ProcessId, entry: &Self::Entry) -> Res<u32, Self>;
    /// Creates the segment `name` under `parent` and initiates it.
    fn create_segment(
        &mut self,
        pid: ProcessId,
        parent: &Self::Entry,
        name: &str,
    ) -> Res<u32, Self> {
        let entry = self.create(pid, parent, name, false)?;
        self.initiate(pid, &entry)
    }
    /// Places a quota of `pages` on the directory `dir`.
    fn set_quota(&mut self, pid: ProcessId, dir: &Self::Entry, pages: u32) -> Res<(), Self>;
    /// Reads one word as `pid` through the user access path.
    fn read(&mut self, pid: ProcessId, segno: u32, wordno: u32) -> Res<Word, Self>;
    /// Writes one word as `pid` through the user access path.
    fn write(&mut self, pid: ProcessId, segno: u32, wordno: u32, value: Word) -> Res<(), Self>;
    /// One scheduler pass: the process dispatched and, on the kernel,
    /// its virtual processor; `None` when nothing ran.
    fn schedule(&mut self) -> Option<(ProcessId, Option<VpId>)>;
    /// The clean-shutdown sweep: deactivate everything, flush, persist.
    fn sync_to_disk(&mut self) -> Res<(), Self>;
    /// Whole-segment relocations so far.
    fn relocations(&self) -> u64;
    /// One stop-the-world salvage pass, repairing if `repair`.
    fn salvage(&mut self, repair: bool) -> Res<Report<Self::Problem>, Self>;
    /// The name a report gives a refusal both designs share: `quota` for
    /// an exceeded quota, `full` when every pack is full; `None` for any
    /// other error.
    fn refusal(e: &Self::Error) -> Option<&'static str>;
    /// The design's statistics in the shared registry form.
    fn counters(&self) -> CounterSet;
    /// The design's oracle battery; empty when every check passes.
    fn oracles(&self) -> Vec<String>;
}

impl Rig for Kernel {
    const NAME: &'static str = "kernel";
    type Error = KernelError;
    type Entry = ObjToken;
    type Problem = mx_kernel::Problem;

    fn boot(config: BootConfig) -> Self {
        Kernel::boot(config)
    }

    fn recover(config: BootConfig, crashed: Self) -> Res<Self, Self> {
        Kernel::boot_from_image(config, crashed.machine)
    }

    #[inline]
    fn machine(&self) -> &Machine {
        &self.machine
    }

    #[inline]
    fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    fn login(&mut self, name: &str, who: Principal) -> ProcessId {
        self.register_account(name, who.user, 1, who.label);
        self.login_residue(name, 1, who.label).expect("login")
    }

    fn spawn(&mut self, who: Principal) -> ProcessId {
        self.create_process(who.user, who.label).expect("process")
    }

    #[inline]
    fn root_dir(&mut self) -> ObjToken {
        self.root_token()
    }

    #[inline]
    fn create(
        &mut self,
        pid: ProcessId,
        parent: &ObjToken,
        name: &str,
        is_dir: bool,
    ) -> Res<ObjToken, Self> {
        let Principal { user, label } = Principal::OPERATOR;
        self.create_entry(pid, *parent, name, Acl::owner(user), label, is_dir)
    }

    #[inline]
    fn initiate(&mut self, pid: ProcessId, entry: &ObjToken) -> Res<u32, Self> {
        Kernel::initiate(self, pid, *entry)
    }

    fn set_quota(&mut self, pid: ProcessId, dir: &ObjToken, pages: u32) -> Res<(), Self> {
        Kernel::set_quota(self, pid, *dir, pages)
    }

    fn read(&mut self, pid: ProcessId, segno: u32, wordno: u32) -> Res<Word, Self> {
        self.read_word(pid, segno, wordno)
    }

    #[inline]
    fn write(&mut self, pid: ProcessId, segno: u32, wordno: u32, value: Word) -> Res<(), Self> {
        self.write_word(pid, segno, wordno, value)
    }

    #[inline]
    fn schedule(&mut self) -> Option<(ProcessId, Option<VpId>)> {
        Kernel::schedule(self).map(|d| (d.pid, Some(d.vp)))
    }

    #[inline]
    fn sync_to_disk(&mut self) -> Res<(), Self> {
        Kernel::sync_to_disk(self)
    }

    #[inline]
    fn relocations(&self) -> u64 {
        self.segm.stats.relocations
    }

    fn salvage(&mut self, repair: bool) -> Res<Report<mx_kernel::Problem>, Self> {
        Kernel::salvage(self, repair)
    }

    #[inline]
    fn refusal(e: &KernelError) -> Option<&'static str> {
        match e {
            KernelError::QuotaExceeded { .. } => Some("quota"),
            KernelError::AllPacksFull => Some("full"),
            _ => None,
        }
    }

    fn counters(&self) -> CounterSet {
        self.stats.counters()
    }

    fn oracles(&self) -> Vec<String> {
        oracle::check_kernel(self)
    }
}

/// An old-supervisor entry: its uid, to create in, and its tree name
/// (`>d>f0`; the root's is empty), to name by.
type Named = (SegUid, Name);

impl Rig for Supervisor {
    const NAME: &'static str = "legacy";
    type Error = LegacyError;
    type Entry = Named;
    type Problem = String;

    fn boot(config: BootConfig) -> Self {
        Supervisor::boot(config)
    }

    fn recover(config: BootConfig, crashed: Self) -> Res<Self, Self> {
        Supervisor::boot_from_image(config, crashed.machine)
    }

    #[inline]
    fn machine(&self) -> &Machine {
        &self.machine
    }

    #[inline]
    fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    fn login(&mut self, _name: &str, who: Principal) -> ProcessId {
        self.spawn(who)
    }

    fn spawn(&mut self, who: Principal) -> ProcessId {
        self.create_process(who.user, who.label).expect("process")
    }

    #[inline]
    fn root_dir(&mut self) -> Named {
        (Supervisor::root(self), Name::EMPTY)
    }

    #[inline]
    fn create(
        &mut self,
        _pid: ProcessId,
        (parent, path): &Named,
        name: &str,
        is_dir: bool,
    ) -> Res<Named, Self> {
        let Principal { user, label } = Principal::OPERATOR;
        let acl = Acl::owner(user);
        let uid = if is_dir {
            self.create_directory_in(*parent, name, acl, label)?
        } else {
            self.create_segment_in(*parent, name, acl, label)?
        };
        Ok((uid, path.push(">").push(name)))
    }

    #[inline]
    fn initiate(&mut self, pid: ProcessId, (_, path): &Named) -> Res<u32, Self> {
        Supervisor::initiate(self, pid, path)
    }

    fn set_quota(&mut self, pid: ProcessId, (_, path): &Named, pages: u32) -> Res<(), Self> {
        self.set_quota_directory(pid, path, pages)
    }

    fn read(&mut self, pid: ProcessId, segno: u32, wordno: u32) -> Res<Word, Self> {
        self.user_read(pid, segno, wordno)
    }

    #[inline]
    fn write(&mut self, pid: ProcessId, segno: u32, wordno: u32, value: Word) -> Res<(), Self> {
        self.user_write(pid, segno, wordno, value)
    }

    #[inline]
    fn schedule(&mut self) -> Option<(ProcessId, Option<VpId>)> {
        self.dispatch().map(|p| (p, None))
    }

    #[inline]
    fn sync_to_disk(&mut self) -> Res<(), Self> {
        Supervisor::sync_to_disk(self)
    }

    #[inline]
    fn relocations(&self) -> u64 {
        self.stats.relocations
    }

    fn salvage(&mut self, repair: bool) -> Res<Report<String>, Self> {
        Supervisor::salvage(self, repair)
    }

    #[inline]
    fn refusal(e: &LegacyError) -> Option<&'static str> {
        match e {
            LegacyError::QuotaExceeded { .. } => Some("quota"),
            LegacyError::AllPacksFull => Some("full"),
            _ => None,
        }
    }

    fn counters(&self) -> CounterSet {
        self.stats.counters()
    }

    fn oracles(&self) -> Vec<String> {
        oracle::check_legacy(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A second principal: user 7 at the operator's label.
    const STRANGER: Principal = Principal {
        user: UserId(7),
        label: Label::BOTTOM,
    };

    /// The operator creates a segment, owner-only, and writes a word; a
    /// process logged in for [`STRANGER`] then initiates and reads it.
    /// The stranger's outcome, once the operator's own process has read
    /// the word back.
    fn strangers_read<R: Rig>() -> Res<Word, R> {
        let mut sys = R::boot(BootConfig::default());
        let owner = sys.login("owner", Principal::OPERATOR);
        let root = sys.root_dir();
        let entry = sys.create(owner, &root, "private", false).expect("create");
        let segno = sys.initiate(owner, &entry).expect("owner initiates");
        let word = Word::new(0o1234);
        sys.write(owner, segno, 0, word).expect("owner writes");
        let stranger = sys.login("stranger", STRANGER);
        let got = sys
            .initiate(stranger, &entry)
            .and_then(|s| sys.read(stranger, s, 0));
        let back = sys.read(owner, segno, 0).expect("owner reads");
        assert_eq!(back, word, "{}", R::NAME);
        got
    }

    /// A process of another principal is refused the operator's
    /// owner-only segment on both designs, with the design's typed error.
    #[test]
    fn a_second_principal_is_refused_the_operators_segment() {
        let k = strangers_read::<Kernel>();
        assert!(matches!(k, Err(KernelError::NoAccess)), "kernel: {k:?}");
        let l = strangers_read::<Supervisor>();
        assert!(matches!(l, Err(LegacyError::NoAccess)), "legacy: {l:?}");
    }
}
