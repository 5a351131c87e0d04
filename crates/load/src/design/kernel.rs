//! The new kernel behind the [`Design`] interface.
//!
//! Admission is simulated: the answering service is a user-domain
//! program whose queue (`login_or_queue`, `admit_waiting`) is charged to
//! the machine. Session files are named by the object tokens the
//! harness created its directories with, so a file gate never searches.
//! Only this design has schedule-policy hooks, the queue-delay and
//! event-queue probes, and the specialized store's resident reads.

use super::{online_step, salvage_pass, Admitted, Design, Res, SalvagePass, Session, Step};
use crate::fleet::CH_DIRECTIVE;
use crate::label::Status;
use crate::run::SalvageProbe;
use crate::run::{account_index, account_name, definitions, file_name, symbol, Entry};
use mx_aim::{FlowTracker, Label};
use mx_explore::{oracle, Rig};
use mx_hw::{Machine, Name, Subsystem, Word};
use mx_kernel::demux::{FramingSpec, StreamId};
use mx_kernel::{Acl, Kernel, KernelConfig, KernelError, ObjToken, OnlineCheat, ProcessId, UserId};
use mx_sync::SchedulePolicy;
use mx_user::{publish_library, Admission, AnsweringService, NameSpace, UserLinker};

pub(crate) struct KernelDesign {
    k: Kernel,
    svc: AnsweringService,
    /// Tokens of the root entries found or created on this machine
    /// since boot, so a file gate never searches for its directory: one
    /// slot per entry, at [`slot`].
    held: Vec<Option<ObjToken>>,
    stream: Option<StreamId>,
}

/// Where `entry`'s token is held: the library, the shared segment and
/// the migration zone first, then the shards in order.
fn slot(entry: Entry) -> usize {
    match entry {
        Entry::Lib => 0,
        Entry::Shared => 1,
        Entry::Mig => 2,
        Entry::Shard(j) => 3 + j,
    }
}

/// The tree name of root entry `entry`: `>lib`, `>s3`.
fn path(entry: Entry) -> Name {
    Name::new(">").push(&entry.name())
}

/// A kernel session's user-domain half.
pub(crate) struct UserSide {
    ns: NameSpace,
    linker: UserLinker,
}

impl KernelDesign {
    fn on(k: Kernel, svc: AnsweringService) -> Self {
        Self {
            k,
            svc,
            held: Vec::new(),
            stream: None,
        }
    }

    fn held(&self, dir: Entry) -> Res<ObjToken, Self> {
        let tok = self.held.get(slot(dir)).copied().flatten();
        tok.ok_or(KernelError::NoEntry)
    }

    fn hold(&mut self, entry: Entry, tok: ObjToken) {
        let at = slot(entry);
        if self.held.len() <= at {
            self.held.resize(at + 1, None);
        }
        self.held[at] = Some(tok);
    }

    fn stream(&self) -> StreamId {
        self.stream.expect("network attached")
    }

    fn create_in(
        &mut self,
        pid: ProcessId,
        dir: ObjToken,
        name: &str,
        is_dir: bool,
    ) -> Res<ObjToken, Self> {
        let acl = Acl::owner(UserId(1));
        self.k
            .create_entry(pid, dir, name, acl, Label::BOTTOM, is_dir)
    }
}

impl Design for KernelDesign {
    const NAME: &'static str = "kernel";
    const SCHEDULE_HOOKS: bool = true;
    const RESIDENT_STORE: bool = true;

    type Handle = ObjToken;
    type Ext = UserSide;
    type Error = KernelError;

    fn boot(config: KernelConfig) -> Self {
        Self::on(Kernel::boot(config), AnsweringService::new())
    }

    /// The answering service is a user-domain program: its records and
    /// its admission queue survive; its sessions died with core.
    fn reboot(self, config: KernelConfig) -> Res<Self, Self> {
        let mut svc = self.svc;
        svc.crash_recover();
        Ok(Self::on(
            Kernel::boot_from_image(config, self.k.machine)?,
            svc,
        ))
    }

    fn machine(&self) -> &Machine {
        &self.k.machine
    }

    fn machine_mut(&mut self) -> &mut Machine {
        &mut self.k.machine
    }

    fn oracle(&self) -> Vec<String> {
        oracle::check_kernel(&self.k)
    }

    fn relocations(&self) -> u64 {
        self.k.segm.stats.relocations
    }

    fn busy(e: &KernelError) -> bool {
        matches!(e, KernelError::SalvageBusy)
    }

    fn status(e: &KernelError) -> Status {
        Status::of_refusal(<Kernel as Rig>::refusal(e))
    }

    fn register(&mut self, name: &str) {
        self.svc
            .register(&mut self.k, name, UserId(1), "pw", Label::BOTTOM);
    }

    fn login(&mut self, name: &str) -> Res<ProcessId, Self> {
        self.svc.login(&mut self.k, name, "pw", Label::BOTTOM)
    }

    fn open(&mut self, pid: ProcessId) -> UserSide {
        UserSide {
            ns: NameSpace::new(&mut self.k, pid),
            linker: UserLinker::new(pid),
        }
    }

    fn login_or_queue(&mut self, idx: usize) -> Res<Option<ProcessId>, Self> {
        self.svc
            .login_or_queue(&mut self.k, &account_name(idx), "pw", Label::BOTTOM)
            .map(|a| match a {
                Admission::Admitted(pid) => Some(pid),
                Admission::Queued(_) => None,
            })
    }

    fn admit_waiting(&mut self) -> Admitted<Self> {
        let admitted = self.svc.admit_waiting(&mut self.k).into_iter();
        Admitted {
            sessions: admitted
                .map(|(name, pid)| (account_index(&name), pid))
                .collect(),
            refused: Vec::new(),
            busy: None,
        }
    }

    fn queued(&self) -> usize {
        self.svc.queued_logins()
    }

    fn pending_names(&self) -> Option<Vec<String>> {
        Some(self.svc.pending_names())
    }

    fn drop_youngest_queued(&mut self) {
        self.svc.drop_last_pending_for_test();
    }

    fn logout(&mut self, _idx: usize, pid: ProcessId) -> Res<(), Self> {
        self.svc.logout(&mut self.k, pid).map(|_| ())
    }

    fn link(&mut self, s: &mut Session<Self>, sym: usize) -> Res<u32, Self> {
        let UserSide { ns, linker } = &mut s.ext;
        linker
            .link(&mut self.k, ns, ">lib", &symbol(sym))
            .map(|l| l.offset)
    }

    fn resolve(&mut self, s: &mut Session<Self>, target: Entry) -> Res<(), Self> {
        s.ext.ns.resolve(&mut self.k, &path(target)).map(|_| ())
    }

    fn initiate_shared(&mut self, s: &mut Session<Self>) -> Res<u32, Self> {
        s.ext.ns.initiate(&mut self.k, ">shared")
    }

    fn search(&mut self, drv: ProcessId, entry: Entry) -> Res<ObjToken, Self> {
        let root = self.k.root_token();
        let tok = self.k.dir_search(drv, root, &entry.name())?;
        self.hold(entry, tok);
        Ok(tok)
    }

    fn create(&mut self, drv: ProcessId, entry: Entry) -> Res<ObjToken, Self> {
        let root = self.k.root_token();
        let is_dir = matches!(entry, Entry::Shard(_) | Entry::Mig);
        let tok = self.create_in(drv, root, &entry.name(), is_dir)?;
        self.hold(entry, tok);
        Ok(tok)
    }

    fn initiate(&mut self, drv: ProcessId, seg: ObjToken) -> Res<u32, Self> {
        self.k.initiate(drv, seg)
    }

    fn publish(
        &mut self,
        drv: ProcessId,
        lib: ObjToken,
        probe: &mut SalvageProbe,
    ) -> Result<(), String> {
        let segno = super::gate_retry(self, probe, "lib initiate", |d| d.k.initiate(drv, lib))?;
        let defs = definitions();
        let refs: Vec<(&str, u32)> = defs.iter().map(|(s, o)| (s.as_str(), *o)).collect();
        super::gate_retry(self, probe, "lib publish", |d| {
            publish_library(&mut d.k, drv, segno, &refs)
        })
    }

    /// A directory search walks only the (released) root, so a
    /// surviving shard keeps its token even while quarantined.
    fn shard_survives(&mut self, drv: ProcessId, shard: usize, probe: &mut SalvageProbe) -> bool {
        super::gate_retry(self, probe, format_args!("shard s{shard} search"), |d| {
            d.search(drv, Entry::Shard(shard))
        })
        .is_ok()
    }

    fn set_quota(&mut self, drv: ProcessId, dir: Entry, pages: u32) -> Res<(), Self> {
        let tok = self.held(dir)?;
        self.k.set_quota(drv, tok, pages)
    }

    fn open_dir(&mut self, _pid: ProcessId, dir: Entry) -> Res<ObjToken, Self> {
        self.held(dir)
    }

    fn probe_dir(&mut self, pid: ProcessId, dir: Entry) -> Res<ObjToken, Self> {
        let tok = self.held(dir)?;
        self.k.list_dir(pid, tok).map(|_| tok)
    }

    fn create_file(&mut self, pid: ProcessId, at: ObjToken, idx: usize) -> Res<u32, Self> {
        let tok = self.create_in(pid, at, &file_name(idx), false)?;
        self.k.initiate(pid, tok)
    }

    fn delete_file(&mut self, pid: ProcessId, dir: Entry, idx: usize) -> Res<(), Self> {
        let tok = self.held(dir)?;
        self.k.delete_entry(pid, tok, &file_name(idx))
    }

    fn write(&mut self, pid: ProcessId, segno: u32, offset: u32, val: u64) -> Res<(), Self> {
        self.k.write_word(pid, segno, offset, Word::new(val))
    }

    fn read(&mut self, pid: ProcessId, segno: u32, offset: u32, resident: bool) -> Res<u64, Self> {
        if resident {
            self.k.resident_read_word(pid, segno, offset)
        } else {
            self.k.read_word(pid, segno, offset)
        }
        .map(|w| w.raw())
    }

    fn sync_to_disk(&mut self) -> Res<(), Self> {
        self.k.sync_to_disk()
    }

    fn schedule(&mut self) {
        self.k.schedule();
    }

    fn set_schedule_policy(&mut self, policy: Box<dyn SchedulePolicy>) {
        self.k.set_schedule_policy(policy);
    }

    fn reset_load_probes(&mut self) {
        self.k.reset_load_probes();
    }

    fn load_probes(&self) -> ((u64, u64), usize) {
        (self.k.vpm.queue_delay(), self.k.upm.queue_high_watermark())
    }

    fn salvage(&mut self, repair: bool) -> Result<SalvagePass, String> {
        salvage_pass(self.k.salvage(repair))
    }

    fn begin_online_salvage(&mut self, release_early: bool) -> Result<(), String> {
        if !release_early {
            self.k.begin_online_salvage();
            return Ok(());
        }
        let root = self.k.dirm.root();
        let mut flows = FlowTracker::new();
        let torn = self
            .k
            .qcm
            .charge(&mut self.k.machine, root, 3, Label::BOTTOM, &mut flows)
            .map_err(|e| format!("self-check drift injection failed: {e:?}"));
        self.k
            .begin_online_salvage_with_cheat(Some(OnlineCheat::ReleaseBeforeCellRepair));
        torn
    }

    fn online_salvage_active(&self) -> bool {
        self.k.online_salvage_active()
    }

    fn online_salvage_step(&mut self) -> Res<Step, Self> {
        self.k.online_salvage_step().map(online_step)
    }

    fn attach_network(&mut self) {
        self.stream = Some(self.k.demux_attach(FramingSpec::FRONT_END));
    }

    fn net_receive(&mut self, frame: &[u8]) -> Res<(), Self> {
        self.k.demux_receive(self.stream(), frame)
    }

    fn net_read(
        &mut self,
        pid: ProcessId,
        channel: u16,
        resident: bool,
        buf: &mut Vec<u8>,
    ) -> Res<(), Self> {
        let stream = self.stream();
        if resident {
            self.k.demux_read_resident(stream, channel, buf)
        } else {
            self.k.demux_read(pid, stream, channel, buf)
        }
    }

    /// Admission directives are answering-service traffic: received and,
    /// only after a successful receive, drained through the resident
    /// entry, all inside the answering service's meter scope —
    /// kernel-internal traffic does not cross a user gate.
    fn receive_directive(&mut self, frame: &[u8], buf: &mut Vec<u8>) -> Res<(), Self> {
        let cost = self.k.machine.cost;
        let g = self.k.machine.clock.enter(Subsystem::AnsweringService);
        self.k.machine.clock.charge_wire_frame(&cost, frame.len());
        let got = self.net_receive(frame);
        if got.is_ok() {
            let _ = self
                .k
                .demux_read_resident(self.stream(), u16::from(CH_DIRECTIVE), buf);
        }
        self.k.machine.clock.exit(g);
        got
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::NAME_INDICES;

    #[test]
    fn root_paths_print_what_format_printed_and_slots_are_distinct() {
        for (entry, text) in [
            (Entry::Lib, ">lib"),
            (Entry::Shared, ">shared"),
            (Entry::Mig, ">mig"),
        ] {
            assert_eq!(&*path(entry), text);
        }
        for j in NAME_INDICES {
            assert_eq!(&*path(Entry::Shard(j)), format!(">s{j}"));
        }
        let slots: Vec<usize> = [Entry::Lib, Entry::Shared, Entry::Mig]
            .into_iter()
            .chain((0..8).map(Entry::Shard))
            .map(slot)
            .collect();
        assert_eq!(slots, (0..11).collect::<Vec<_>>());
    }
}
