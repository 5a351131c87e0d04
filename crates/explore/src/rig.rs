//! One experiment rig over both designs.
//!
//! [`Rig`] is what a single-process driver needs of a design: boot it,
//! reach its machine, log user 1 in, create directories and segments,
//! read and write words on the user path, run a scheduler pass, sync,
//! name the refusals every report shares, and check the result. The
//! kernel implements it once and the 1974 supervisor once, and every
//! driver that runs both designs (the explorer's op scenarios, the
//! P4/P7/A2/A3 and G1 drivers, R1's crash matrix) is written once
//! against it.
//!
//! Each method is one design call or one fixed call sequence, so a
//! driver written once against the rig issues the same calls, in the
//! same order, as one written against each design directly: it moves
//! no cycle, label or edge. Every object is created for user 1 at
//! [`Label::BOTTOM`] with an owner-only ACL, the one principal these
//! drivers use.
//!
//! The rig sits in `mx-explore` because that is the lowest crate that
//! depends on both designs, and both the explorer and `mx-bench` see
//! it. The load harness's session-level `Design` (in `mx-load`) is the
//! level above: admission, sessions, crash recovery and salvage.

use crate::oracle;
use mx_aim::Label;
use mx_hw::meter::CounterSet;
use mx_hw::{Acl, BootConfig, Machine, ProcessId, SegUid, UserId, Word};
use mx_kernel::{Kernel, KernelError, ObjToken};
use mx_legacy::{LegacyError, Supervisor};
use std::fmt::Debug;

/// A result carrying `R`'s typed refusal.
pub type Res<T, R> = Result<T, <R as Rig>::Error>;

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
    type Entry: Clone;

    /// Bootloads the design.
    fn boot(config: BootConfig) -> Self;
    /// The machine the design runs on.
    fn machine(&mut self) -> &mut Machine;
    /// A process for user 1: the kernel registers the account `name` and
    /// logs it in through the login residue; the old supervisor creates
    /// a process.
    fn login(&mut self, name: &str) -> ProcessId;
    /// Another process for user 1.
    fn spawn(&mut self) -> ProcessId;
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
    /// One scheduler pass. Names the process dispatched and, on the
    /// kernel, its virtual processor (`p1v0`; `p1` on the old
    /// supervisor), or `None` when nothing ran.
    fn schedule(&mut self) -> Option<String>;
    /// The clean-shutdown sweep: deactivate everything, flush, persist.
    fn sync_to_disk(&mut self) -> Res<(), Self>;
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

    fn boot(config: BootConfig) -> Self {
        Kernel::boot(config)
    }

    fn machine(&mut self) -> &mut Machine {
        &mut self.machine
    }

    fn login(&mut self, name: &str) -> ProcessId {
        self.register_account(name, UserId(1), 1, Label::BOTTOM);
        self.login_residue(name, 1, Label::BOTTOM).expect("login")
    }

    fn spawn(&mut self) -> ProcessId {
        self.create_process(UserId(1), Label::BOTTOM)
            .expect("process")
    }

    fn root_dir(&mut self) -> ObjToken {
        self.root_token()
    }

    fn create(
        &mut self,
        pid: ProcessId,
        parent: &ObjToken,
        name: &str,
        is_dir: bool,
    ) -> Res<ObjToken, Self> {
        let acl = Acl::owner(UserId(1));
        self.create_entry(pid, *parent, name, acl, Label::BOTTOM, is_dir)
    }

    fn initiate(&mut self, pid: ProcessId, entry: &ObjToken) -> Res<u32, Self> {
        Kernel::initiate(self, pid, *entry)
    }

    fn set_quota(&mut self, pid: ProcessId, dir: &ObjToken, pages: u32) -> Res<(), Self> {
        Kernel::set_quota(self, pid, *dir, pages)
    }

    fn read(&mut self, pid: ProcessId, segno: u32, wordno: u32) -> Res<Word, Self> {
        self.read_word(pid, segno, wordno)
    }

    fn write(&mut self, pid: ProcessId, segno: u32, wordno: u32, value: Word) -> Res<(), Self> {
        self.write_word(pid, segno, wordno, value)
    }

    fn schedule(&mut self) -> Option<String> {
        Kernel::schedule(self).map(|d| format!("p{}v{}", d.pid.0, d.vp.0))
    }

    fn sync_to_disk(&mut self) -> Res<(), Self> {
        Kernel::sync_to_disk(self)
    }

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
type Named = (SegUid, String);

impl Rig for Supervisor {
    const NAME: &'static str = "legacy";
    type Error = LegacyError;
    type Entry = Named;

    fn boot(config: BootConfig) -> Self {
        Supervisor::boot(config)
    }

    fn machine(&mut self) -> &mut Machine {
        &mut self.machine
    }

    fn login(&mut self, _name: &str) -> ProcessId {
        self.spawn()
    }

    fn spawn(&mut self) -> ProcessId {
        self.create_process(UserId(1), Label::BOTTOM)
            .expect("process")
    }

    fn root_dir(&mut self) -> Named {
        (Supervisor::root(self), String::new())
    }

    fn create(
        &mut self,
        _pid: ProcessId,
        (parent, path): &Named,
        name: &str,
        is_dir: bool,
    ) -> Res<Named, Self> {
        let acl = Acl::owner(UserId(1));
        let uid = if is_dir {
            self.create_directory_in(*parent, name, acl, Label::BOTTOM)?
        } else {
            self.create_segment_in(*parent, name, acl, Label::BOTTOM)?
        };
        Ok((uid, format!("{path}>{name}")))
    }

    fn initiate(&mut self, pid: ProcessId, (_, path): &Named) -> Res<u32, Self> {
        Supervisor::initiate(self, pid, path)
    }

    fn set_quota(&mut self, pid: ProcessId, (_, path): &Named, pages: u32) -> Res<(), Self> {
        self.set_quota_directory(pid, path, pages)
    }

    fn read(&mut self, pid: ProcessId, segno: u32, wordno: u32) -> Res<Word, Self> {
        self.user_read(pid, segno, wordno)
    }

    fn write(&mut self, pid: ProcessId, segno: u32, wordno: u32, value: Word) -> Res<(), Self> {
        self.user_write(pid, segno, wordno, value)
    }

    fn schedule(&mut self) -> Option<String> {
        self.dispatch().map(|p| format!("p{}", p.0))
    }

    fn sync_to_disk(&mut self) -> Res<(), Self> {
        Supervisor::sync_to_disk(self)
    }

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
